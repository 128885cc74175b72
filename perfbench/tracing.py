"""Outside-in layer tracing for the benchmark's traced run.

The program is not changed: the tracer replaces functions and methods of the
``bvsigma`` modules with timing wrappers for the duration of a ``with``
block.  A function imported by value into another module (``from .x import
f``) is replaced at every module attribute that holds the same object, so
calls through each import site are seen.

Every wrapped call opens a span on an in-memory stack.  A span's self time is
its duration minus the time its child spans cover.  Spans of the coarse
layers are kept as (id, name, start, end, parent, job) records; the hot
per-operation layers (products, derivatives, brackets) fold their span into
per-name totals when it closes, so memory stays bounded on jobs that make
hundreds of thousands of such calls.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (module, attribute path, layer name, kind).  kind: "span" keeps span
# records, "hot" folds spans into totals on close, "count" only counts calls
# (timing each sort_monomial call would swamp it).
TARGETS = (
    ("cli", "main", "cli.main", "span"),
    ("modelfile", "parse_model", "modelfile.parse_model", "span"),
    ("models", "ansatz_families", "models.ansatz_families", "span"),
    ("models", "build_S1_generic", "models.build_S1_generic", "span"),
    ("grading", "sort_monomial", "grading.sort_monomial", "count"),
    ("symalg", "Expr.__mul__", "symalg.Expr.mul", "hot"),
    ("symalg", "Expr.left_deriv", "symalg.Expr.deriv", "hot"),
    ("symalg", "Expr.right_deriv", "symalg.Expr.deriv", "hot"),
    ("symalg", "Expr.substitute", "symalg.Expr.substitute", "span"),
    ("pstructure", "PStructure.bracket", "pstructure.bracket", "hot"),
    ("pstructure", "PStructure.laplacian", "pstructure.laplacian", "hot"),
    ("pstructure", "check_bv_identities", "pstructure.check_bv_identities", "span"),
    ("master", "expand_master", "master.expand_master", "span"),
    ("master", "extract_identities", "master.extract_identities", "span"),
    ("master", "transcribe_paper_identities", "master.transcribe_paper_identities", "span"),
    ("master", "compare_identity_spans", "master.compare_identity_spans", "span"),
    ("rowreduce", "span_includes", "rowreduce.span_includes", "span"),
    ("rowreduce", "RowSpan.add", "rowreduce.RowSpan.add", "hot"),
    ("algebroid", "check_courant", "algebroid.check", "span"),
    ("algebroid", "check_lie_algebroid", "algebroid.check", "span"),
    ("algebroid", "operation_table", "algebroid.operation_table", "span"),
    ("algebroid", "derived_bracket", "algebroid.derived_bracket", "hot"),
    ("worldsheet", "first_order_check", "worldsheet.first_order_check", "span"),
    ("worldsheet", "product_form_part", "worldsheet.product_form_part", "hot"),
    ("worldsheet", "integrate", "worldsheet.integrate", "span"),
    ("worldsheet", "kinetic_master_check", "worldsheet.kinetic_master_check", "span"),
)

# Import sites that hold a traced function by value; each must end up
# patched, or the layer behind it would be silently missed.
BY_VALUE_SITES = (
    ("cli", "extract_identities"),
    ("cli", "build_S1_generic"),
    ("cli", "integrate"),
    ("symalg", "sort_monomial"),
    ("master", "span_includes"),
)

# Layers that do real work in each workload; the traced run fails if one of
# them records no call there.
WORKS_IN = {
    "identities": (
        "cli.main", "modelfile.parse_model", "models.ansatz_families",
        "models.build_S1_generic", "grading.sort_monomial", "symalg.Expr.mul",
        "pstructure.bracket", "master.expand_master",
        "master.transcribe_paper_identities", "master.compare_identity_spans",
        "rowreduce.span_includes", "rowreduce.RowSpan.add",
    ),
    "axioms": (
        "cli.main", "modelfile.parse_model", "grading.sort_monomial",
        "symalg.Expr.mul", "symalg.Expr.deriv", "symalg.Expr.substitute",
        "pstructure.bracket", "master.expand_master", "algebroid.check",
        "algebroid.operation_table", "algebroid.derived_bracket",
    ),
    "bv-laws": (
        "cli.main", "modelfile.parse_model", "grading.sort_monomial",
        "symalg.Expr.mul", "symalg.Expr.deriv", "pstructure.bracket",
        "pstructure.laplacian", "pstructure.check_bv_identities",
        "worldsheet.first_order_check", "worldsheet.product_form_part",
        "worldsheet.integrate", "worldsheet.kinetic_master_check",
    ),
}


class Stat:
    __slots__ = ("calls", "incl", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0  # outermost calls only, so recursion is not double counted
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    """Span stack, per-layer totals and counters of one traced run."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, int] = {}
        # (id, name, start, end, parent id or -1, job id)
        self.spans: list[tuple[int, str, float, float, int, str]] = []
        self.job = ""
        self._stack: list[list] = []  # [child time, id of nearest kept span]
        self._next_id = 0
        self._first_args: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- jobs --------------------------------------------------------------
    def begin_job(self, job: str) -> None:
        self.job = job
        # id -> [object, calls]; the strong reference keeps the id unique
        # within the job, and end_job drops it.
        self._first_args = {}

    def end_job(self) -> None:
        if self._first_args:
            top = max(calls for _, calls in self._first_args.values())
            self.count("pstructure.bracket.top_first_arg_repeats", top - 1)
        self._first_args = {}

    def count(self, name: str, k: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, fn, name: str, kind: str):
        st = self.stats.setdefault(name, Stat())
        if kind == "count":
            def counted(*args, **kwargs):
                st.calls += 1
                return fn(*args, **kwargs)
            return counted

        stack, spans, keep = self._stack, self.spans, kind == "span"
        after = _AFTER.get(name)
        before = self._note_first_arg if name == "pstructure.bracket" else None

        def traced(*args, **kwargs):
            if before is not None:
                before(args[1])
            parent = stack[-1][1] if stack else -1
            sid = parent
            if keep:
                sid = self._next_id
                self._next_id += 1
            frame = [0.0, sid]
            stack.append(frame)
            st.depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                st.calls += 1
                st.self_time += dur - frame[0]
                st.depth -= 1
                if not st.depth:
                    st.incl += dur
                if keep:
                    spans.append((sid, name, t0, t1, parent, self.job))
            if after is not None:
                after(self, result)
            return result

        return traced

    def _note_first_arg(self, f) -> None:
        seen = self._first_args.get(id(f))
        if seen is None:
            self._first_args[id(f)] = [f, 1]
        else:
            seen[1] += 1
            self.count("pstructure.bracket.repeat_first_arg")

    # -- installation --------------------------------------------------------
    def __enter__(self) -> "Tracer":
        package = [m for name, m in sorted(sys.modules.items())
                   if name == "bvsigma" or name.startswith("bvsigma.")]
        for modname, path, name, kind in TARGETS:
            mod = importlib.import_module("bvsigma." + modname)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, attr, self._wrap(cls.__dict__[attr], name, kind))
                continue
            orig = getattr(mod, path)
            wrapper = self._wrap(orig, name, kind)
            for m in package:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, attr, wrapper)
        for modname, attr in BY_VALUE_SITES:
            mod = sys.modules["bvsigma." + modname]
            if not any(owner is mod and a == attr for owner, a, _ in self._restore):
                self.__exit__(None, None, None)
                raise RuntimeError("import site bvsigma.%s.%s was not patched" % (modname, attr))
        return self

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    # -- results ---------------------------------------------------------------
    def uncovered(self, workload: str) -> list[str]:
        """Layers the plan says work in ``workload`` that recorded no call."""
        return [n for n in WORKS_IN[workload] if not self.stats.get(n, Stat()).calls]

    def self_time_total(self) -> float:
        return sum(st.self_time for st in self.stats.values())

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per traced pass, as name -> (value, unit)."""

        def st(name):
            return self.stats.get(name, Stat())

        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0

        c = self.counters
        bracket, deriv, add = st("pstructure.bracket"), st("symalg.Expr.deriv"), st("rowreduce.RowSpan.add")
        out = {
            "cli.main.self_s": (st("cli.main").self_time, "s"),
            "cli.report_bytes": (c.get("cli.report_bytes", 0), "bytes"),
            "modelfile.parse_model.s": (st("modelfile.parse_model").incl, "s"),
            "models.ansatz_families.calls": (st("models.ansatz_families").calls, "count"),
            "models.ansatz_families.s": (st("models.ansatz_families").incl, "s"),
            "models.build_S1_generic.s": (st("models.build_S1_generic").incl, "s"),
            "models.s1_terms": (c.get("models.s1_terms", 0), "count"),
            "grading.sort_monomial.calls": (st("grading.sort_monomial").calls, "count"),
            "symalg.Expr.mul.calls": (st("symalg.Expr.mul").calls, "count"),
            "symalg.Expr.mul.self_s": (st("symalg.Expr.mul").self_time, "s"),
            "symalg.Expr.deriv.calls": (deriv.calls, "count"),
            "symalg.Expr.deriv.nonzero_ratio": (ratio(c.get("symalg.Expr.deriv.nonzero", 0), deriv.calls), "ratio"),
            "symalg.Expr.substitute.s": (st("symalg.Expr.substitute").incl, "s"),
            "pstructure.bracket.calls": (bracket.calls, "count"),
            "pstructure.bracket.self_s": (bracket.self_time, "s"),
            "pstructure.bracket.repeat_first_arg_ratio": (
                ratio(c.get("pstructure.bracket.repeat_first_arg", 0), bracket.calls), "ratio"),
            # Share of calls that repeat the job's most frequent first argument
            # (the fixed S where there is one): the hits of a cache of (S,.).
            "pstructure.bracket.top_first_arg_ratio": (
                ratio(c.get("pstructure.bracket.top_first_arg_repeats", 0), bracket.calls), "ratio"),
            "pstructure.laplacian.calls": (st("pstructure.laplacian").calls, "count"),
            "pstructure.laplacian.self_s": (st("pstructure.laplacian").self_time, "s"),
            "pstructure.check_bv_identities.s": (st("pstructure.check_bv_identities").incl, "s"),
            "master.expand_master.s": (st("master.expand_master").incl, "s"),
            "master.transcribe_paper_identities.s": (st("master.transcribe_paper_identities").incl, "s"),
            "master.compare_identity_spans.s": (st("master.compare_identity_spans").incl, "s"),
            "master.equations": (c.get("master.equations", 0), "count"),
            "rowreduce.span_includes.s": (st("rowreduce.span_includes").incl, "s"),
            "rowreduce.RowSpan.add.calls": (add.calls, "count"),
            "rowreduce.RowSpan.add.enlarged_ratio": (ratio(c.get("rowreduce.RowSpan.add.enlarged", 0), add.calls), "ratio"),
            "algebroid.check.s": (st("algebroid.check").incl, "s"),
            "algebroid.operation_table.s": (st("algebroid.operation_table").incl, "s"),
            "algebroid.derived_bracket.calls": (st("algebroid.derived_bracket").calls, "count"),
            "worldsheet.first_order_check.s": (st("worldsheet.first_order_check").incl, "s"),
            "worldsheet.product_form_part.s": (st("worldsheet.product_form_part").incl, "s"),
            "worldsheet.integrate.calls": (st("worldsheet.integrate").calls, "count"),
            "worldsheet.integrate.s": (st("worldsheet.integrate").incl, "s"),
            "worldsheet.kinetic_master_check.s": (st("worldsheet.kinetic_master_check").incl, "s"),
        }
        # Ratios are per call already; totals are reported per pass (counts
        # repeat exactly from pass to pass, so they stay whole numbers).
        return {
            k: (v if u == "ratio" else v // passes if isinstance(v, int) else v / passes, u)
            for k, (v, u) in out.items()
        }


# Counters read off a traced call's result.
_AFTER = {
    "models.build_S1_generic": lambda t, r: t.count("models.s1_terms", len(r.expr.terms)),
    "symalg.Expr.deriv": lambda t, r: t.count("symalg.Expr.deriv.nonzero", 1 if r else 0),
    "master.extract_identities": lambda t, r: t.count("master.equations", len(r)),
    "master.transcribe_paper_identities": lambda t, r: t.count("master.equations", len(r)),
    "rowreduce.RowSpan.add": lambda t, r: t.count("rowreduce.RowSpan.add.enlarged", 1 if r else 0),
}
