"""Command-line interface: one subcommand per engine operation.

Reports are emitted as deterministic JSON on stdout (sorted keys, fixed
formatting); ``--format text`` renders the same content as plain lines.
Exit codes: 0 pass, 1 mathematical failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .algebroid import check_algebroid, operation_table
from .master import (
    EQUAL,
    N2_JACOBI,
    N3_BF,
    N3_CS,
    compare_identity_spans,
    extract_identities,
    transcribe_paper_identities,
    verify_structure_data,
)
from .models import ModelError, ModelSpec, build_S1_generic
from .modelfile import ModelFile, ParseError, parse_model
from .pstructure import PStructure, Verdicts, check_bv_identities
from .symalg import MissingSymbolError
from .worldsheet import (
    GeneratorTable,
    component_exprs,
    first_order_check,
    integrate,
    kinetic_master_check,
    theorem1_sum,
    theorem1_witness,
)

PASS, FAIL, USAGE = 0, 1, 2


def _spec_echo(spec: ModelSpec) -> dict:
    echo = {"n": spec.n, "d": spec.d, "flavor": spec.flavor,
            "blocks": [[b.p, b.rank] for b in sorted(spec.bf_blocks, key=lambda b: b.p)]}
    if spec.cs_block is not None:
        echo["cs_rank"] = spec.cs_block.rank
        echo["k"] = [[str(x) for x in row] for row in spec.cs_block.metric]
    return echo


def _report(command: str, spec: ModelSpec, passed: bool, details, witnesses, fmt: str) -> int:
    doc = {
        "command": command,
        "spec": _spec_echo(spec),
        "result": "pass" if passed else "fail",
        "details": details,
        "witnesses": witnesses,
    }
    if fmt == "json":
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write("%s: %s\n" % (command, doc["result"]))
        for item in details:
            sys.stdout.write("  %s\n" % item)
        for item in witnesses:
            sys.stdout.write("  witness: %s\n" % item)
    return PASS if passed else FAIL


def _require_data(mf: ModelFile, command: str):
    if mf.data is None:
        raise SystemExit2("%s requires a [data] section in the model file" % command)


class SystemExit2(Exception):
    """Usage-level error: exit code 2."""


def _read_model(path: str) -> ModelFile:
    """The model file at ``path``; a missing file or a parse error is a
    usage error that names the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_model(fh.read())
    except FileNotFoundError:
        raise SystemExit2("no such model file: %s" % path) from None
    except ParseError as exc:
        raise SystemExit2("%s: %s" % (path, exc)) from None


def _cmd_check_bv(mf: ModelFile, args) -> int:
    rep = check_bv_identities(PStructure(mf.spec))
    return _report("check-bv", mf.spec, rep.passed, rep.details(), rep.witnesses, args.format)


def _cmd_check_master(mf: ModelFile, args) -> int:
    _require_data(mf, "check-master")
    p = PStructure(mf.spec)
    s1 = build_S1_generic(mf.spec)
    rep = verify_structure_data(p, s1, mf.data)
    details = ["(S1,S1) after substitution %s" % ("vanishes" if rep.passed else "does not vanish")]
    witnesses = ["%s: %s" % (mono, poly) for mono, poly in rep.residual]
    return _report("check-master", mf.spec, rep.passed, details, witnesses, args.format)


def _cmd_verify_data(mf: ModelFile, args) -> int:
    _require_data(mf, "verify-data")
    p = PStructure(mf.spec)
    s1 = build_S1_generic(mf.spec)
    residual = dict(verify_structure_data(p, s1, mf.data).residual)
    rep = Verdicts()
    for tag, _ in extract_identities(p, s1).equations:
        value = residual.pop(tag, None)
        rep.record(tag, "%s -> %s" % (tag, value) if value else None)
    if residual:  # (S1,S1)|data has a term that (S1,S1) lacks
        raise RuntimeError("residual monomials outside the extracted identities: %s" % ", ".join(residual))
    return _report("verify-data", mf.spec, rep.passed, rep.details(), rep.witnesses[:10], args.format)


def _cmd_extract(mf: ModelFile, args) -> int:
    p = PStructure(mf.spec)
    s1 = build_S1_generic(mf.spec)
    idents = extract_identities(p, s1)
    memo: dict = {}  # one string per coefficient symbol of the report
    details = ["%s: %s = 0" % (tag, poly.render(memo)) for tag, poly in idents.equations]
    return _report("extract-identities", mf.spec, True, details, [], args.format)


def _paper_family(spec: ModelSpec) -> str:
    if spec.n == 2 and not spec.bf_blocks:
        return N2_JACOBI
    if spec.n == 3 and spec.cs_block is not None:
        return N3_CS
    if spec.n == 3 and len(spec.bf_blocks) == 1 and spec.bf_blocks[0].p == 1:
        return N3_BF
    raise SystemExit2("no transcribed identity system for this model shape")


def _cmd_compare(mf: ModelFile, args) -> int:
    # The other side first, so that a usage error in it costs no extraction.
    if args.against == "paper":
        theirs = transcribe_paper_identities(_paper_family(mf.spec), mf.spec)
        label = "paper"
    else:
        other = _read_model(args.against)
        theirs = extract_identities(PStructure(other.spec), build_S1_generic(other.spec))
        label = args.against
    ours = extract_identities(PStructure(mf.spec), build_S1_generic(mf.spec))
    cmp = compare_identity_spans(ours, theirs)
    details = [
        "extracted equations: %d" % len(ours),
        "%s equations: %d" % (label, len(theirs)),
        "relation: %s" % cmp.relation,
    ]
    witnesses = [cmp.witness] if cmp.witness else []
    return _report("compare-identities", mf.spec, cmp.relation == EQUAL, details, witnesses, args.format)


def _cmd_check_algebroid(mf: ModelFile, args) -> int:
    _require_data(mf, "check-algebroid")
    p = PStructure(mf.spec)
    rep = check_algebroid(p, build_S1_generic(mf.spec), mf.data)
    return _report("check-algebroid", mf.spec, rep.passed, rep.details(), rep.witnesses, args.format)


def _cmd_derived_table(mf: ModelFile, args) -> int:
    p = PStructure(mf.spec)
    details, memo = [], {}
    for op, left, right, expr in operation_table(p, build_S1_generic(mf.spec)):
        expr = expr.render(memo)
        if op == "circ":
            details.append("%s o %s = %s" % (left, right, expr))
        elif op == "pair":
            details.append("<%s, %s> = %s" % (left, right, expr))
        else:
            details.append("rho(%s) %s = %s" % (left, right, expr))
    return _report("derived-table", mf.spec, True, details, [], args.format)


def _cmd_laplacian(mf: ModelFile, args) -> int:
    p = PStructure(mf.spec)
    s1 = build_S1_generic(mf.spec)
    expr = s1.expr
    if mf.data is not None:
        expr = expr.substitute(mf.data)
    value = p.laplacian(expr)
    details = [
        "Delta(S1) = %s" % value,
        "note: reported at finite-dimensional target level, not asserted zero",
    ]
    return _report("laplacian", mf.spec, True, details, [], args.format)


def _cmd_theorem1(mf: ModelFile, args) -> int:
    n = mf.spec.n
    rep = Verdicts()
    for pf in (0, 1):
        for pg in (0, 1):
            table = GeneratorTable(n, (("F", pf), ("G", pg)))
            fc = component_exprs(table, "F", pf)
            gc = component_exprs(table, "G", pg)
            total = theorem1_sum(table, fc, gc)
            t, w = theorem1_witness(table, fc, gc)
            exact = (total - t.delta0() - w.d()).is_zero()
            reduced = integrate(total - t.delta0()).is_zero()
            rep.record("parities (|F|,|G|)=(%d,%d)" % (pf, pg),
                       None if exact and reduced else "parities (%d,%d)" % (pf, pg))
    return _report("theorem1", mf.spec, rep.passed, rep.details(), rep.witnesses, args.format)


def _cmd_first_order(mf: ModelFile, args) -> int:
    s1 = build_S1_generic(mf.spec)
    if s1.expr.is_zero():  # no law to check: refuse rather than pass
        raise SystemExit2("first-order: the deformation ansatz of this model is empty, so there is nothing to check")
    rep = first_order_check(mf.spec, s1)
    return _report("first-order", mf.spec, rep.passed, rep.details(), rep.witnesses, args.format)


def _cmd_kinetic_master(mf: ModelFile, args) -> int:
    rep = kinetic_master_check(mf.spec)
    return _report("kinetic-master", mf.spec, rep.passed, [rep.detail], [], args.format)


_COMMANDS = {
    "check-bv": _cmd_check_bv,
    "check-master": _cmd_check_master,
    "extract-identities": _cmd_extract,
    "compare-identities": _cmd_compare,
    "verify-data": _cmd_verify_data,
    "check-algebroid": _cmd_check_algebroid,
    "derived-table": _cmd_derived_table,
    "laplacian": _cmd_laplacian,
    "theorem1": _cmd_theorem1,
    "first-order": _cmd_first_order,
    "kinetic-master": _cmd_kinetic_master,
}


# Flags a command takes and ignores, since its checks are exact: perfbench's
# axioms and bv-laws jobs still pass them.
_IGNORED_FLAGS = {"check-algebroid": ("--seed",), "check-bv": ("--seed", "--trials")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvsigma",
        description="exact computations with graded BV structures of sigma models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in sorted(_COMMANDS):
        cmd = sub.add_parser(name)
        cmd.set_defaults(parser=cmd)  # reports the flags it does not take
        cmd.add_argument("--model", required=True, help="path to a model file")
        for flag in _IGNORED_FLAGS.get(name, ()):
            cmd.add_argument(flag, type=int, help="ignored: the checks are exact")
        cmd.add_argument("--format", choices=("json", "text"), default="json")
        if name == "compare-identities":
            cmd.add_argument(
                "--against",
                default="paper",
                help="'paper' or a path to another model file",
            )
    return parser


# Built by the first ``main`` call and kept for the process: parsing leaves
# an argparse parser unchanged, and building one costs more than a short
# command.  Not built at import, so importing the module stays cheap.
_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list[str]] = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args, unknown = _PARSER.parse_known_args(argv)
        if unknown:
            args.parser.error("unrecognized arguments: %s" % " ".join(unknown))
    except SystemExit as exc:
        return USAGE if exc.code else PASS
    # Only errors in what the user gave are usage errors; any other
    # exception is a fault of the engine and propagates.
    try:
        return _COMMANDS[args.command](_read_model(args.model), args)
    except (SystemExit2, ModelError, MissingSymbolError, ParseError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
