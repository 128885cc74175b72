"""bvsigma benchmark: closed-loop CLI job mixes, checked against references.

Run from the repository root:

    python3 perfbench/run.py --workload identities --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --out base.jsonl
    python3 perfbench/run.py --compare base.jsonl new.jsonl

Each workload runs as a closed loop in this one process and thread: every
job is a ``bvsigma.cli.main(argv)`` call with stdout captured, started after
the previous one returns.  The job list is repeated until ``--seconds`` have
passed (at least once) and every end-to-end time is the median over those
passes.  Every reported time is calibrated against a reference computation
sampled while the job runs (see ``speed.py``), because the speed of a
shared host drifts more between runs than the program changes; the raw
wall times are printed beside them and kept in the ``--out`` record.
``--workload all`` runs each workload in a fresh interpreter and prints
one table.  ``--trace 1`` runs one untraced pass and then traced
passes, and reports per-layer metrics instead (see ``tracing.py``).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--out FILE`` appends the full record of the
run (machine facts, per-pass and per-job times, report SHA-256 digests) as
one JSON line; ``--compare`` prints median and quartiles of two such files.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXAMPLES = SRC / "bvsigma" / "examples"
GOLDEN = ROOT / "tests" / "golden"
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import workloads as W  # noqa: E402

# Set-up is sampled in fresh interpreters besides the run's own: at least
# SETUP_MIN_SAMPLES in all, and more, up to SETUP_MAX_SAMPLES, while the
# samples so far total under SETUP_SAMPLE_BUDGET_S (set-up on identities
# parses the n=9 model and takes seconds; elsewhere it takes a tenth of one).
SETUP_MIN_SAMPLES, SETUP_MAX_SAMPLES, SETUP_SAMPLE_BUDGET_S = 3, 9, 1.0
# A tenth of a second of set-up would collect one speed sample at the pass
# interval, so set-up is sampled five times as often.
SETUP_INTERVAL_S = speed.INTERVAL_S / 5


class BenchError(Exception):
    """The benchmark cannot run here; exits 2 without a result."""


def machine_facts() -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


# -- set-up ----------------------------------------------------------------------


def setup(workload: str, workdir: Path):
    """Import bvsigma from this checkout, write the generated inputs and
    parse every model the workload uses.  Returns (cli module, model paths,
    parse errors)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        from bvsigma import cli, modelfile
    except ImportError as exc:
        raise BenchError("cannot import bvsigma from %s: %s" % (SRC, exc))
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError("bvsigma was imported from %s, not from %s" % (cli.__file__, SRC))
    paths, errors = {}, {}
    for ref in W.model_refs(workload):
        kind, stem = ref.split(":", 1)
        if kind == "gen":
            path = workdir / (stem + ".model")
            path.write_text(W.GENERATED[stem](), encoding="utf-8")
        else:
            path = EXAMPLES / (stem + ".model")
        # Relative to the checkout root (the working directory), so that
        # reports naming a model path are byte-identical across checkouts.
        paths[ref] = str(path.relative_to(ROOT))
        try:
            modelfile.parse_model(path.read_text(encoding="utf-8"))
        except (OSError, modelfile.ParseError) as exc:
            errors[ref] = "%s: %s" % (type(exc).__name__, exc)
    return cli, paths, errors


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:  # still in use by the run that started this probe
        pass


def setup_probe(workload: str) -> tuple[float, float]:
    """One set-up in a fresh interpreter, as a user's first command pays it.
    Returns (calibrated, raw) seconds."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError("set-up probe failed: %s" % proc.stderr.strip()[-2000:])
    cal, raw = proc.stdout.split()[-2:]
    return float(cal), float(raw)


# -- jobs ------------------------------------------------------------------------


def job_argv(job: dict, paths: dict, seed: int) -> list[str]:
    command, model, *rest = job["argv"]
    argv = [command, "--model", paths[model]] + [paths.get(a, a) for a in rest]
    if job["seeded"]:
        argv += ["--seed", str(seed)]
    return argv


def _wall_clock(fn, *args):
    t0 = perf_counter()
    result = fn(*args)
    seconds = perf_counter() - t0
    return result, seconds, seconds


def run_pass(cli, workload: str, paths: dict, errors: dict, seed: int,
             probe=None, tracer=None) -> dict:
    """One closed-loop pass over the workload's job list, each job timed
    by ``probe`` (calibrated) or, without one, by the raw wall clock."""
    timed = probe.time if probe is not None else _wall_clock
    jobs = []
    for job in W.JOBS[workload]:
        bad = [errors[a] for a in job["argv"] if a in errors]
        if bad:
            jobs.append({"id": job["id"], "seconds": None, "raw": None, "outputs": [],
                         "error": bad[0]})
            continue
        argv = job_argv(job, paths, seed)
        reps = W.SHORT_JOB_REPEATS if job["short"] else 1
        outputs, error = [], ""

        def unit():
            nonlocal error
            for _ in range(reps):
                out, err = io.StringIO(), io.StringIO()
                try:
                    with redirect_stdout(out), redirect_stderr(err):
                        code = cli.main(argv)
                except Exception:  # a job that raises is a failed job, the run goes on
                    code, error = None, traceback.format_exc(limit=3)
                outputs.append((code, out.getvalue(), err.getvalue()))

        if tracer is not None:
            tracer.begin_job(job["id"])
        _, seconds, raw = timed(unit)
        if tracer is not None:
            tracer.end_job()
            tracer.count("cli.report_bytes", sum(len(o[1].encode()) for o in outputs))
        jobs.append({"id": job["id"], "seconds": seconds / reps, "raw": raw / reps,
                     "outputs": outputs, "error": error})
    reps = [W.SHORT_JOB_REPEATS if j["short"] else 1 for j in W.JOBS[workload]]
    return {
        "wall": sum(n * j["seconds"] for n, j in zip(reps, jobs) if j["seconds"] is not None),
        "raw_wall": sum(n * j["raw"] for n, j in zip(reps, jobs) if j["raw"] is not None),
        "jobs": jobs,
    }


def check_pass(workload: str, result: dict) -> None:
    """Attach a verdict and report digest to every job of one pass."""
    for job, rec in zip(W.JOBS[workload], result["jobs"]):
        ref = job["expect"]
        why = rec["error"]
        if not why:
            code, stdout, stderr = rec["outputs"][0]
            if any(o[:2] != (code, stdout) for o in rec["outputs"][1:]):
                why = "repeated calls gave different reports"
            else:
                golden = None
                if ref["golden"]:
                    golden = (GOLDEN / (ref["golden"] + ".json")).read_text(encoding="utf-8")
                why = W.verdict(ref, code, stdout, golden)
                if why and stderr:
                    why += " (stderr: %s)" % stderr.strip()[-300:]
            rec["sha256"] = hashlib.sha256(stdout.encode()).hexdigest()
        rec["failure"] = why
        del rec["outputs"]


# -- one workload ----------------------------------------------------------------


def run_workload(args) -> int:
    facts = machine_facts()
    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with speed.SpeedProbe(SETUP_INTERVAL_S) as probe:
            (cli, paths, errors), *own_setup = probe.time(setup, args.workload, workdir)
        samples = [tuple(own_setup)]
        while not args.trace and len(samples) < SETUP_MAX_SAMPLES and (
            len(samples) < SETUP_MIN_SAMPLES
            or sum(raw for _, raw in samples) < SETUP_SAMPLE_BUDGET_S
        ):
            samples.append(setup_probe(args.workload))
        passes, traced_passes, tracer = [], [], None

        def one_pass(into, probe=None, tracer=None):
            into.append(run_pass(cli, args.workload, paths, errors, args.seed, probe, tracer))
            check_pass(args.workload, into[-1])

        if not args.trace:
            with speed.SpeedProbe() as probe:
                t_start = perf_counter()
                while not passes or perf_counter() - t_start < args.seconds:
                    one_pass(passes, probe)
        else:
            # Raw clock, as for the traced passes, so the overhead ratio
            # compares like with like (and no sample lands in a span).
            one_pass(passes)
            import tracing

            with tracing.Tracer() as tracer:
                t_start = perf_counter()
                while not traced_passes or perf_counter() - t_start < args.seconds:
                    one_pass(traced_passes, tracer=tracer)
            # A second untraced pass after the traced ones, so the overhead
            # ratio is not the difference between a first and a later pass.
            one_pass(passes)
    finally:
        remove_workdir(workdir)

    all_passes = passes + traced_passes
    failed_ids = sorted({j["id"] for p in all_passes for j in p["jobs"] if j["failure"]})
    attempted = sum(len(p["jobs"]) for p in all_passes)
    failed = sum(1 for p in all_passes for j in p["jobs"] if j["failure"])
    correct = all("%s/%s" % (args.workload, i) in W.KNOWN_OPEN_DEFECTS for i in failed_ids)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        # The seed reaches only these jobs' --seed; an empty list means the
        # workload has no randomized input.
        "seeded_jobs": [j["id"] for j in W.JOBS[args.workload] if j["seeded"]],
        "seconds": args.seconds,
        "trace": args.trace,
        "facts": facts,
        "passes": len(passes),
        "pass_wall_s": [p["wall"] for p in passes],
        "pass_raw_wall_s": [p["raw_wall"] for p in passes],
        "setup_samples_s": [cal for cal, _ in samples],
        "setup_raw_samples_s": [raw for _, raw in samples],
        "jobs_failed": len(failed_ids),
        "failed_jobs": {
            j["id"]: j["failure"] for p in all_passes for j in p["jobs"] if j["failure"]
        },
        "jobs": [
            {
                "id": j["id"],
                "seconds": [p["jobs"][k]["seconds"] for p in passes],
                "raw_seconds": [p["jobs"][k]["raw"] for p in passes],
                "sha256": j.get("sha256"),
            }
            for k, j in enumerate(passes[0]["jobs"])
        ],
    }
    if args.trace:
        traced_wall = statistics.median(p["wall"] for p in traced_passes)
        metrics = tracer.layer_metrics(len(traced_passes))
        untraced_wall = statistics.median(p["wall"] for p in passes)
        metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
        record["traced_passes"] = len(traced_passes)
        t0 = min(span[2] for span in tracer.spans)
        record["spans"] = [
            [sid, name, start - t0, end - t0, parent, job]
            for sid, name, start, end, parent, job in tracer.spans
        ]
        main_total = tracer.stats["cli.main"].incl
        record["self_time_coverage"] = tracer.self_time_total() / main_total
        record["cli_main_vs_pass_time"] = main_total / sum(p["wall"] for p in traced_passes)
        uncovered = tracer.uncovered(args.workload)
        if uncovered:
            sys.stderr.write(
                "error: trace coverage: %s recorded no calls on %s\n"
                % (", ".join(uncovered), args.workload)
            )
            return 1
    else:
        times = [[j["seconds"] for j in p["jobs"] if j["seconds"] is not None] for p in passes]
        metrics = {
            "wall_s": (statistics.median(record["pass_wall_s"]), "s"),
            "job_geomean_s": (statistics.median(statistics.geometric_mean(t) for t in times if t), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(record["setup_samples_s"]), "s"),
        }
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["correct"], record["attempted"], record["failed"] = correct, attempted, failed

    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    print(
        "workload %s  seed %d%s  passes %d%s  nproc %s  python %s  load %.2f  cpu %s"
        % (args.workload, args.seed, "" if record["seeded_jobs"] else " (no randomized job)",
           len(passes),
           " + %d traced" % len(traced_passes) if args.trace else "",
           facts["nproc"], facts["python"], facts["loadavg"][0], facts["cpu"])
    )
    for name, (value, unit) in metrics.items():
        print("  %-44s %14.6g %s" % (name, value, unit))
    if not args.trace:
        for name, key in (("wall_s", "pass_raw_wall_s"), ("setup_s", "setup_raw_samples_s")):
            print("  %-44s %14.6g s  (uncalibrated)"
                  % (name + " raw", statistics.median(record[key])))
    print("  %-44s %14d of %d jobs" % ("jobs_failed", len(failed_ids), len(W.JOBS[args.workload])))
    if args.trace:
        print("  trace: layer self times sum to %.4f of cli.main time; cli.main spans cover "
              "%.4f of traced pass time; %d span records"
              % (record["self_time_coverage"], record["cli_main_vs_pass_time"], len(record["spans"])))
    for jid in failed_ids:
        known = W.KNOWN_OPEN_DEFECTS.get("%s/%s" % (args.workload, jid))
        print("    %s: %s%s" % (jid, record["failed_jobs"][jid].splitlines()[-1],
                                "  [known open defect: %s]" % known if known else ""))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result, sort_keys=True))
    return 0


# -- every workload, one table -----------------------------------------------------


def run_all(args) -> int:
    rows, ok = {}, True
    for workload in W.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write("error: workload %s exited with %d\n" % (workload, proc.returncode))
            return proc.returncode or 1
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        rows[workload] = json.loads(lines[-1])
        ok = ok and rows[workload]["correct"]
    names = list(next(iter(rows.values()))["metrics"])
    print()
    print("%-44s %-6s" % ("metric", "unit") + "".join("%14s" % w for w in rows))
    for name in names:
        unit = rows[W.WORKLOADS[0]]["metrics"][name]["unit"]
        print("%-44s %-6s" % (name, unit)
              + "".join("%14.6g" % r["metrics"][name]["value"] for r in rows.values()))
    print("%-44s %-6s" % ("jobs_failed", "count")
          + "".join("%14s" % ("%d/%d" % (r["failed"], r["attempted"])) for r in rows.values()))
    print("%-44s %-6s" % ("correct", "")
          + "".join("%14s" % r["correct"] for r in rows.values()))
    return 0 if ok else 1


# -- compare two result files --------------------------------------------------------


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def compare(path_a: str, path_b: str) -> int:
    sides = []
    for path in (path_a, path_b):
        groups: dict = {}
        digests: dict = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                w = rec["workload"]
                for name, m in rec["metrics"].items():
                    groups.setdefault((w, name, m["unit"]), []).append(m["value"])
                groups.setdefault((w, "jobs_failed", "count"), []).append(rec["jobs_failed"])
                for j in rec["jobs"]:
                    digests.setdefault((w, j["id"], rec["seed"]), set()).add(j["sha256"])
        sides.append((groups, digests))
    (ga, da), (gb, db) = sides
    print("%-10s %-44s %-6s %34s %34s %9s" % (
        "workload", "metric", "unit", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "delta"))
    for key in sorted(set(ga) | set(gb)):
        w, name, unit = key
        cells = []
        for g in (ga, gb):
            vals = g.get(key)
            if vals:
                q1, q2, q3 = _quartiles(vals)
                cells.append(("%.6g [%.6g, %.6g] (%d)" % (q2, q1, q3, len(vals)), q2))
            else:
                cells.append(("-", None))
        (ta, ma), (tb, mb) = cells
        delta = "%+.2f%%" % (100 * (mb - ma) / ma) if ma and mb is not None else "-"
        print("%-10s %-44s %-6s %34s %34s %9s" % (w, name, unit, ta, tb, delta))
    differing = sorted(k for k in set(da) & set(db) if da[k] != db[k] or len(da[k]) > 1)
    print()
    if differing:
        print("reports that differ between or within the files:")
        for w, jid, seed in differing:
            print("  %s/%s seed %d" % (w, jid, seed))
    else:
        print("every job's report is byte-identical across both files, seed by seed")
    return 0


# -- command line --------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=W.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run's full record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two result files written with --out")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload or --compare is required")
    if not (SRC / "bvsigma" / "cli.py").is_file():
        sys.stderr.write("error: no bvsigma sources under %s\n" % SRC)
        return 2
    if args.out:
        args.out = os.path.abspath(args.out)
    os.chdir(ROOT)
    try:
        if args.workload == "all":
            return run_all(args)
        if args.setup_probe:
            workdir = WORK / (args.workload + ".probe")
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                with speed.SpeedProbe(SETUP_INTERVAL_S) as probe:
                    _, cal, raw = probe.time(setup, args.workload, workdir)
            finally:
                remove_workdir(workdir)
            print(repr(cal), repr(raw))
            return 0
        return run_workload(args)
    except BenchError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
