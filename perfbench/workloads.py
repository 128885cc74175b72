"""Workload tables: generated model specs, job lists and hand-written references.

Every expected verdict below comes from the mathematics stated in the README
and ROADMAP, never from program output:

* a bivector that fails Jacobi fails ``check-master`` and ``check-algebroid``;
* linear Poisson structures of Lie algebras (so(3), u(2)) and the exact
  Courant algebroid TM + T*M pass every axiom;
* for odd n the target-level Delta-Leibniz law cannot hold while every
  bracket law and the degree shift of Delta do; Delta^2 is then an honest
  fourth-order operator, so whether 200 random trials meet a witness
  depends on the operand degrees and that law is left unasserted; for even
  n every law holds;
* an extracted identity system spans the same space as the published one
  (Ikeda, hep-th/0203043; the n=2 Jacobi identity), and as itself.

A job whose report differs from its reference counts as failed.
"""

from __future__ import annotations

import json
import re

WORKLOADS = ("identities", "axioms", "bv-laws")

# Jobs that took under 0.1 s at the seed are repeated this many times inside
# their timed unit, so that timer resolution and scheduling noise do not
# dominate ``job_geomean_s`` (at 5 repeats the 10 ms jobs, timed once per
# identities run, read from 5 to 13 ms).  Fixed here so it is the same on
# every commit.
SHORT_JOB_REPEATS = 20

# Jobs whose reference verdict the program is known not to reach yet.  They
# still count in ``failed``; ``correct`` stays true only while every failed
# job is listed here, so any new wrong answer makes the run incorrect.
KNOWN_OPEN_DEFECTS = {
    "identities/compare_n3_bf_r3_paper": (
        "ROADMAP item 1: the N3_BF transcription is blind above rank 2"
    ),
}


# -- generated model files -----------------------------------------------------


def bf_model(n: int, d: int, ranks: dict[int, int]) -> str:
    lines = ["[model]", "n = %d" % n, "d = %d" % d, "flavor = bf"]
    lines += ["block p=%d rank=%d" % (p, r) for p, r in sorted(ranks.items())]
    return "\n".join(lines) + "\n"


def cs_model(d: int, rank: int) -> str:
    rows = " ; ".join(
        " ".join("1" if a == b else "0" for b in range(rank)) for a in range(rank)
    )
    return "[model]\nn = 3\nd = %d\nflavor = cs_bf\ncs rank=%d\nk = %s\n" % (d, rank, rows)


def exact_courant_model(d: int) -> str:
    """TM + T*M over a d-dimensional base, every family component assigned.

    The anchor embeds the tangent directions (f2 = -identity, the sign the
    shipped d=2 model uses); f1, f4, f5 and the totally antisymmetric f3, f6
    (nonzero families once the rank reaches 3) are set to zero explicitly.
    """
    r = range(1, d + 1)
    data = []
    data += ["f1[%d;%d] = 0" % (a, i) for a in r for i in r]
    data += ["f2[;%d,%d] = %d" % (b, i, -1 if b == i else 0) for b in r for i in r]
    data += ["f3[%d,%d,%d;] = 0" % t for t in _increasing(d, 3)]
    data += ["f4[%d,%d;%d] = 0" % (a, b, c) for a, b in _increasing(d, 2) for c in r]
    data += ["f5[%d;%d,%d] = 0" % (a, b, c) for a in r for b, c in _increasing(d, 2)]
    data += ["f6[;%d,%d,%d] = 0" % t for t in _increasing(d, 3)]
    return bf_model(3, d, {1: d}) + "\n[data]\n" + "\n".join(data) + "\n"


def u2_poisson_model() -> str:
    """Linear Poisson structure of u(2) = su(2) + u(1): pi^{ij} = c^{ij}_k phi_k."""
    values = {(1, 2): "phi3", (1, 3): "-phi2", (2, 3): "phi1"}
    data = ["f1[;%d,%d] = %s" % (i, j, values.get((i, j), "0")) for i, j in _increasing(4, 2)]
    return "[model]\nn = 2\nd = 4\nflavor = bf\n\n[data]\n" + "\n".join(data) + "\n"


def _increasing(d: int, k: int):
    if k == 0:
        yield ()
        return
    for first in range(1, d + 1):
        for rest in _increasing(d, k - 1):
            if not rest or first < rest[0]:
                yield (first,) + rest


# The spec table of every generated input, by file stem.
GENERATED = {
    "bf_n5_d4_r44": lambda: bf_model(5, 4, {1: 4, 2: 4}),
    "bf_n7_d3_r333": lambda: bf_model(7, 3, {1: 3, 2: 3, 3: 3}),
    "bf_n9_d3_r3333": lambda: bf_model(9, 3, {1: 3, 2: 3, 3: 3, 4: 3}),
    "n2_d6": lambda: bf_model(2, 6, {}),
    "cs_n3_d2_r5": lambda: cs_model(2, 5),
    "bf_n3_d3_r3": lambda: bf_model(3, 3, {1: 3}),
    "courant_d3": lambda: exact_courant_model(3),
    "u2_poisson_d4": u2_poisson_model,
    "bf_n4_d2_r2": lambda: bf_model(4, 2, {1: 2}),
    "bf_n5_d2_r22": lambda: bf_model(5, 2, {1: 2, 2: 2}),
    "bf_n5_d3_r33": lambda: bf_model(5, 3, {1: 3, 2: 3}),
    "bf_n6_d2_r22": lambda: bf_model(6, 2, {1: 2, 2: 2}),
}


# -- references ------------------------------------------------------------------


def expect(code, result, golden=None, lines=None, others=None, nonempty=False, check=None):
    """A hand-written reference for one job.

    ``lines`` maps a detail label (the text before ': ') to its required
    status (``None``: the whole line must appear; ``ANY``: any status);
    ``others`` is the status every remaining 'label: status' detail
    must carry; ``check`` is an extra predicate on the parsed report.
    """
    return {
        "code": code,
        "result": result,
        "golden": golden,
        "lines": lines or {},
        "others": others,
        "nonempty": nonempty,
        "check": check,
    }


def _derived_table_shape(d: int):
    """Exact Courant structure, symbols opaque: e o e = 0 for every basis
    section, <A1_a, B1_b> = <B1_a, A1_b> = delta_ab and the pairing vanishes
    within a block, and each of the 2d x d anchor entries is one nonzero
    symbol."""
    names = ["A1_%d" % i for i in range(1, d + 1)] + ["B1_%d" % i for i in range(1, d + 1)]

    def ok(doc):
        details = doc["details"]
        circ = [l for l in details if " o " in l]
        pair = [l for l in details if l.startswith("<")]
        rho = [l for l in details if l.startswith("rho(")]
        if (len(circ), len(pair), len(rho)) != (4 * d * d, 4 * d * d, 2 * d * d):
            return False
        if any("%s o %s = 0" % (x, x) not in circ for x in names):
            return False
        for x in names:
            for y in names:
                one = x[0] != y[0] and x[3:] == y[3:]
                if "<%s, %s> = %s" % (x, y, "1" if one else "0") not in pair:
                    return False
        return all(re.fullmatch(r"rho\(\S+\) phi\d+ = -?f\d\[[\d,;]+\]", l) for l in rho)

    return ok


ANY = "*"
ODD_N_BV = expect(1, "fail", lines={"Delta-Leibniz": "FAILED", "Delta^2 = 0": ANY}, others="ok")
EVEN_N_BV = expect(0, "pass", others="ok")
EXTRACT = expect(0, "pass", nonempty=True)
EQUAL = expect(0, "pass", lines={"relation": "equal"})
ALL_OK = expect(0, "pass", others="ok", nonempty=True)


def job(jid, argv, ref, short=False, seeded=False):
    return {"id": jid, "argv": argv, "expect": ref, "short": short, "seeded": seeded}


# Model references: "gen:<stem>" is a generated file, "ex:<stem>" a shipped
# example under src/bvsigma/examples.
JOBS = {
    # Few calls on very large expressions: ansatz construction, (S1,S1)
    # expansion, transcription, row reduction and report formatting.
    "identities": [
        job("extract_n5_d4_r44", ["extract-identities", "gen:bf_n5_d4_r44"], EXTRACT),
        job("extract_n7_d3_r333", ["extract-identities", "gen:bf_n7_d3_r333"], EXTRACT),
        job("extract_n9_d3_r3333", ["extract-identities", "gen:bf_n9_d3_r3333"], EXTRACT),
        job("compare_n2_d6_paper", ["compare-identities", "gen:n2_d6", "--against", "paper"], EQUAL),
        job("compare_n3_cs_r5_paper", ["compare-identities", "gen:cs_n3_d2_r5", "--against", "paper"], EQUAL),
        job("compare_n3_bf_r3_paper", ["compare-identities", "gen:bf_n3_d3_r3", "--against", "paper"], EQUAL),
        job(
            "compare_cs_rank2_paper",
            ["compare-identities", "ex:n3_cs_rank2", "--against", "paper"],
            expect(0, "pass", golden="cs_rank2_compare_paper"),
            short=True,
        ),
        job(
            "compare_n5_d4_self",
            ["compare-identities", "gen:bf_n5_d4_r44", "--against", "gen:bf_n5_d4_r44"],
            EQUAL,
        ),
        job(
            "extract_cs_su2",
            ["extract-identities", "ex:n3_cs_su2"],
            expect(0, "pass", golden="cs_su2_extract"),
            short=True,
        ),
    ],
    # Thousands of brackets on tiny operands, the substituted S first in
    # every derived bracket and anchor.
    "axioms": [
        job(
            "algebroid_courant_d2",
            ["check-algebroid", "ex:n3_bf_exact_courant"],
            expect(0, "pass", golden="exact_courant_check_algebroid"),
            seeded=True,
        ),
        job("algebroid_cs_su2", ["check-algebroid", "ex:n3_cs_su2"], ALL_OK, seeded=True),
        job("algebroid_so3", ["check-algebroid", "ex:n2_poisson_so3"], ALL_OK, seeded=True),
        job(
            "algebroid_bivector",
            ["check-algebroid", "ex:n2_bivector_fail"],
            expect(1, "fail", lines={"bracket antisymmetry": "ok"},
                   check=lambda doc: any(l.endswith(": FAILED") for l in doc["details"])),
            seeded=True,
        ),
        job("algebroid_courant_d3", ["check-algebroid", "gen:courant_d3"], ALL_OK, seeded=True),
        job("algebroid_u2_d4", ["check-algebroid", "gen:u2_poisson_d4"], ALL_OK, seeded=True),
        job(
            "derived_table_d2",
            ["derived-table", "ex:n3_bf_exact_courant"],
            expect(0, "pass", golden="exact_courant_derived_table", check=_derived_table_shape(2)),
            short=True,
        ),
        job(
            "derived_table_d3",
            ["derived-table", "gen:courant_d3"],
            expect(0, "pass", check=_derived_table_shape(3)),
        ),
        job(
            "master_so3",
            ["check-master", "ex:n2_poisson_so3"],
            expect(0, "pass", golden="so3_check_master"),
            short=True,
        ),
        job(
            "master_bivector",
            ["check-master", "ex:n2_bivector_fail"],
            expect(1, "fail", golden="bivector_check_master"),
            short=True,
        ),
        job(
            "master_courant_d3",
            ["check-master", "gen:courant_d3"],
            expect(0, "pass", lines={"(S1,S1) after substitution vanishes": None}),
        ),
        job("verify_courant_d3", ["verify-data", "gen:courant_d3"], ALL_OK),
    ],
    # Fresh random operands in every bracket, Laplacian and triple product;
    # worldsheet DGA products.
    "bv-laws": [
        job("bv_so3_n2", ["check-bv", "ex:n2_poisson_so3", "--trials", "200"], EVEN_N_BV, seeded=True),
        job("bv_courant_n3", ["check-bv", "ex:n3_bf_exact_courant", "--trials", "200"], ODD_N_BV, seeded=True),
        job("bv_cs_su2_n3", ["check-bv", "ex:n3_cs_su2", "--trials", "200"], ODD_N_BV, seeded=True),
        job("bv_n4_d2_r2", ["check-bv", "gen:bf_n4_d2_r2", "--trials", "200"], EVEN_N_BV, seeded=True),
        job("bv_n5_d2_r22", ["check-bv", "gen:bf_n5_d2_r22", "--trials", "200"], ODD_N_BV, seeded=True),
        job("first_order_n5_d3_r33", ["first-order", "gen:bf_n5_d3_r33"], ALL_OK),
        job("first_order_n6_d2_r22", ["first-order", "gen:bf_n6_d2_r22"], ALL_OK),
        job("theorem1_n3", ["theorem1", "ex:n3_bf_exact_courant"], ALL_OK, short=True),
        job("kinetic_master_n3", ["kinetic-master", "ex:n3_bf_exact_courant"], expect(0, "pass"), short=True),
        job(
            "laplacian_n3",
            ["laplacian", "ex:n3_bf_exact_courant"],
            expect(0, "pass", check=lambda doc: doc["details"][0].startswith("Delta(S1) = ")),
            short=True,
        ),
    ],
}


def model_refs(workload: str) -> list[str]:
    """Every distinct model reference the workload's jobs use, in order."""
    out: list[str] = []
    for j in JOBS[workload]:
        for a in j["argv"]:
            if a.startswith(("gen:", "ex:")) and a not in out:
                out.append(a)
    return out


def _labelled(details):
    out = {}
    for line in details:
        label, sep, status = line.rpartition(": ")
        if sep:
            out[label] = status
    return out


def verdict(ref: dict, code: int, stdout: str, golden_text) -> str:
    """Empty string when the job's report meets its reference, else why not."""
    if code != ref["code"]:
        return "exit code %d, expected %d" % (code, ref["code"])
    if golden_text is not None and stdout != golden_text:
        return "report differs from tests/golden/%s.json" % ref["golden"]
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "report is not JSON"
    if doc.get("result") != ref["result"]:
        return "result %r, expected %r" % (doc.get("result"), ref["result"])
    details = doc.get("details", [])
    if ref["nonempty"] and not details:
        return "empty report"
    labelled = _labelled(details)
    for label, status in ref["lines"].items():
        if status is None:
            if label not in details:
                return "missing line %r" % label
        elif status != ANY and labelled.get(label) != status:
            return "%s: %s, expected %s" % (label, labelled.get(label), status)
    if ref["others"] is not None:
        for label, status in labelled.items():
            if label not in ref["lines"] and status in ("ok", "FAILED") and status != ref["others"]:
                return "%s: %s, expected %s" % (label, status, ref["others"])
    if ref["check"] is not None and not ref["check"](doc):
        return "report fails the hand-written structural check"
    return ""
