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
from .pstructure import LAPLACIAN_LAWS, PStructure, check_bv_identities
from .symalg import Expr, MissingSymbolError, monomial_str
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


def _verdicts(rows, notes=()) -> tuple[bool, list[str], list[str]]:
    """(passed, details, witnesses) of a law report from its (law, witness
    or None) rows: one ``law: ok|FAILED`` line per law in the order first
    met, then one ``note:`` line per note.  A law fails on a row with a
    witness and keeps the witness of its first failing row."""
    results: dict[str, bool] = {}
    witnesses = []
    for law, witness in rows:
        ok = results.get(law, True)
        if ok and witness is not None:
            witnesses.append(witness)
        results[law] = ok and witness is None
    details = ["%s: %s" % (law, "ok" if ok else "FAILED") for law, ok in results.items()]
    return all(results.values()), details + ["note: %s" % note for note in notes], witnesses


def _least_term(law: str, residual: Expr, case: str = "") -> Optional[str]:
    """The witness of a law decided by ``residual``: None when it is zero,
    else the law, the case and the residual's term of least monomial."""
    if not residual:
        return None
    m = min(residual.terms)
    return "%s: %sresidual term %s" % (law, case, Expr({m: residual.terms[m]}))


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
    p = PStructure(mf.spec)
    first = check_bv_identities(p)
    rows = []
    for law, case in first.items():
        witness = None
        if case is not None:  # the operands' degrees and the residual
            degrees, residual = case
            witness = _least_term(law, residual, "%s = %s: " % (
                ",".join("|%s|" % x for x in "FGH"[:len(degrees)]), ",".join(map(str, degrees))))
        rows.append((law, witness))
    notes = []
    if p.n % 2 and first[LAPLACIAN_LAWS[0]]:
        notes.append("Delta-Leibniz cannot hold for odd n at target level: the bracket is graded-antisymmetric "
                     "there while any second-order Leibniz defect is graded-symmetric")
    if p.self_pairs:
        notes.append("Delta-Leibniz compared against the Darboux sector; the self-block k-term has no second-order "
                     "generator (k^{ab} d_l d_l vanishes identically on an odd self-paired block)")
    return _report("check-bv", mf.spec, *_verdicts(rows, notes), args.format)


def _cmd_check_master(mf: ModelFile, args) -> int:
    _require_data(mf, "check-master")
    p = PStructure(mf.spec)
    s1 = build_S1_generic(mf.spec)
    residual = verify_structure_data(p, s1, mf.data)
    passed = not residual
    details = ["(S1,S1) after substitution %s" % ("vanishes" if passed else "does not vanish")]
    witnesses = ["%s: %s" % (monomial_str(m), residual.terms[m]) for m in sorted(residual.terms)]
    return _report("check-master", mf.spec, passed, details, witnesses, args.format)


def _cmd_verify_data(mf: ModelFile, args) -> int:
    _require_data(mf, "verify-data")
    p = PStructure(mf.spec)
    s1 = build_S1_generic(mf.spec)
    terms = verify_structure_data(p, s1, mf.data).terms
    residual = {monomial_str(m): terms[m] for m in sorted(terms)}
    rows = []
    for tag, _ in extract_identities(p, s1):
        value = residual.pop(tag, None)
        rows.append((tag, "%s -> %s" % (tag, value) if value else None))
    if residual:  # (S1,S1)|data has a term that (S1,S1) lacks
        raise RuntimeError("residual monomials outside the extracted identities: %s" % ", ".join(residual))
    passed, details, witnesses = _verdicts(rows)
    return _report("verify-data", mf.spec, passed, details, witnesses[:10], args.format)


def _cmd_extract(mf: ModelFile, args) -> int:
    p = PStructure(mf.spec)
    s1 = build_S1_generic(mf.spec)
    idents = extract_identities(p, s1)
    memo: dict = {}  # one string per coefficient symbol of the report
    details = ["%s: %s = 0" % (tag, poly.render(memo)) for tag, poly in idents]
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
    residuals = check_algebroid(p, build_S1_generic(mf.spec), mf.data)
    rows = [(law, _least_term(law, residual)) for law, residual in residuals.items()]
    return _report("check-algebroid", mf.spec, *_verdicts(rows), args.format)


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
    rows = []
    for pf in (0, 1):
        for pg in (0, 1):
            table = GeneratorTable(n, (("F", pf), ("G", pg)))
            fc = component_exprs(table, "F", pf)
            gc = component_exprs(table, "G", pg)
            total = theorem1_sum(table, fc, gc)
            t, w = theorem1_witness(table, fc, gc)
            exact = (total - t.delta0() - w.d()).is_zero()
            reduced = integrate(total - t.delta0()).is_zero()
            rows.append(("parities (|F|,|G|)=(%d,%d)" % (pf, pg),
                         None if exact and reduced else "parities (%d,%d)" % (pf, pg)))
    return _report("theorem1", mf.spec, *_verdicts(rows), args.format)


def _cmd_first_order(mf: ModelFile, args) -> int:
    s1 = build_S1_generic(mf.spec)
    if s1.expr.is_zero():  # no law to check: refuse rather than pass
        raise SystemExit2("first-order: the deformation ansatz of this model is empty, so there is nothing to check")
    residuals = first_order_check(mf.spec, s1)
    rows = [(label, label if residual else None) for label, residual in residuals.items()]
    return _report("first-order", mf.spec, *_verdicts(rows), args.format)


def _cmd_kinetic_master(mf: ModelFile, args) -> int:
    residue = kinetic_master_check(mf.spec)
    detail = "residual: %s" % residue if residue else "delta0(S0) is d-exact at form degree n"
    return _report("kinetic-master", mf.spec, not residue, [detail], [], args.format)


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
