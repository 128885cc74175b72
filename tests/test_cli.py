import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from bvsigma import cli
from bvsigma.symalg import Expr
from bvsigma.worldsheet import GeneratorTable, component_exprs
from corpus import load_workloads

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "src" / "bvsigma" / "examples"
GOLDEN = Path(__file__).resolve().parent / "golden"

GOLDEN_CASES = [
    ("so3_check_master", ["check-master", "--model", "n2_poisson_so3.model"], 0),
    ("bivector_check_master", ["check-master", "--model", "n2_bivector_fail.model"], 1),
    (
        "exact_courant_check_algebroid",
        ["check-algebroid", "--model", "n3_bf_exact_courant.model"],
        0,
    ),
    (
        "cs_rank2_compare_paper",
        ["compare-identities", "--model", "n3_cs_rank2.model", "--against", "paper"],
        0,
    ),
    ("cs_su2_extract", ["extract-identities", "--model", "n3_cs_su2.model"], 0),
    (
        "bf_rank3_compare_paper",
        ["compare-identities", "--model", "n3_bf_rank3.model", "--against", "paper"],
        0,
    ),
    (
        "exact_courant_derived_table",
        ["derived-table", "--model", "n3_bf_exact_courant.model"],
        0,
    ),
    (
        "courant_check_bv",
        ["check-bv", "--model", "n3_bf_exact_courant.model"],
        1,
    ),
    ("bivector_check_algebroid", ["check-algebroid", "--model", "n2_bivector_fail.model"], 1),
    ("bivector_verify_data", ["verify-data", "--model", "n2_bivector_fail.model"], 1),
    ("so3_check_bv", ["check-bv", "--model", "n2_poisson_so3.model"], 0),
    ("exact_courant_first_order", ["first-order", "--model", "n3_bf_exact_courant.model"], 0),
    ("exact_courant_theorem1", ["theorem1", "--model", "n3_bf_exact_courant.model"], 0),
    ("exact_courant_kinetic_master", ["kinetic-master", "--model", "n3_bf_exact_courant.model"], 0),
    ("so3_check_algebroid", ["check-algebroid", "--model", "n2_poisson_so3.model"], 0),
    ("cs_su2_check_algebroid", ["check-algebroid", "--model", "n3_cs_su2.model"], 0),
]


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def resolve(argv):
    return [str(EXAMPLES / a) if a.endswith(".model") else a for a in argv]


@pytest.mark.parametrize("name,argv,expected_code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_reports_are_byte_identical(name, argv, expected_code):
    code1, out1 = run_cli(resolve(argv))
    code2, out2 = run_cli(resolve(argv))
    assert code1 == code2 == expected_code
    assert out1 == out2  # run-to-run determinism
    assert out1 == (GOLDEN / ("%s.json" % name)).read_text()
    json.loads(out1)  # valid JSON


# SHA-256 of the extract-identities reports of the three large bf models
# (n, d, block ranks) that the benchmark generates (perfbench/workloads.py
# GENERATED), which no golden covers (280 KB, 200 KB and 700 KB).  The n=5
# report has no fractional coefficient, the n=7 one has halves and thirds, and
# the n=9 one also sixths and twelfths.
LARGE_EXTRACT_DIGESTS = {
    (5, 4, (4, 4)): "42abe2d41e34c27601870e4a4626ad98ebfa4359f23a2485c4eeccf8f779c782",
    (7, 3, (3, 3, 3)): "db8254562392476253ffc55d87a54190391a6fe35b959022e7c518131b465a81",
    (9, 3, (3, 3, 3, 3)): "ad9cf6d03532513a923d49f8378e48880f8dbad2058b49d7dd7ee81dfb2f4d04",
}


def shape_stem(shape):
    n, d, ranks = shape
    return "n%d_d%d_r%s" % (n, d, "".join(map(str, ranks)))


@functools.lru_cache(maxsize=None)
def extract_report_digest(text):
    """Exit code and SHA-256 of the extract-identities report of a model
    text, computed once per distinct text."""
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "large.model"
        model.write_text(text)
        code, out = run_cli(["extract-identities", "--model", str(model)])
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("shape", list(LARGE_EXTRACT_DIGESTS), ids=shape_stem)
def test_large_extract_reports_are_pinned(shape):
    n, d, ranks = shape
    blocks = "".join("block p=%d rank=%d\n" % (p, r) for p, r in enumerate(ranks, 1))
    text = "[model]\nn = %d\nd = %d\nflavor = bf\n%s" % (n, d, blocks)
    assert extract_report_digest(text) == (0, LARGE_EXTRACT_DIGESTS[shape])


@pytest.mark.parametrize(
    "shape", list(LARGE_EXTRACT_DIGESTS), ids=lambda shape: "bf_" + shape_stem(shape)
)
def test_big_extraction_reports_are_pinned(shape):
    # The benchmark's generated model gives the pinned report; while its text
    # is the one written out above, the report is not extracted again.
    text = load_workloads().GENERATED["bf_" + shape_stem(shape)]()
    assert extract_report_digest(text) == (0, LARGE_EXTRACT_DIGESTS[shape])


# Exit code and SHA-256 of the check-bv reports that no golden covers: the
# benchmark's generated n=4 and n=5 bf models (perfbench/workloads.py
# GENERATED) and the cs su(2) example.  The n=5 and cs reports print a
# residual term of each failed law, Delta-Leibniz and Delta^2 = 0 among them.
CHECK_BV_DIGESTS = {
    "bf_n4_d2_r2": (0, "50bde86f50dcbd0a96d72406aa3deca20a35c041a82773b423c379b42c568c06"),
    "bf_n5_d2_r22": (1, "aa0ef62b115190292001c32128ce67bfff7d5daae7d5066ac5289cd379e0dd19"),
    "n3_cs_su2.model": (1, "a17d5f401724d79b5bcd9e8d69d45d92fdba446d67b3a51a06dccf98070b4e1f"),
}


@pytest.mark.parametrize("name", list(CHECK_BV_DIGESTS))
def test_check_bv_reports_are_pinned(name, tmp_path):
    model, generated = EXAMPLES / name, load_workloads().GENERATED
    if name in generated:
        model = tmp_path / "generated.model"
        model.write_text(generated[name]())
    code, out = run_cli(["check-bv", "--model", str(model)])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == CHECK_BV_DIGESTS[name]


def test_reports_are_schema_stable():
    _, out = run_cli(resolve(["check-master", "--model", "n2_poisson_so3.model"]))
    doc = json.loads(out)
    assert set(doc) == {"command", "spec", "result", "details", "witnesses"}
    assert doc["result"] in ("pass", "fail")


def test_exit_code_2_for_missing_model():
    code, _ = run_cli(["check-bv", "--model", "no-such-file.model"])
    assert code == 2


def test_exit_code_2_for_parse_error(tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("[model]\nn = 4\nd = 2\nflavor = cs_bf\ncs rank=2\nk = 1 0 ; 0 1\n")
    code, _ = run_cli(["check-bv", "--model", str(bad)])
    assert code == 2


@pytest.mark.parametrize("var", ["phi0", "phi4"])
def test_exit_code_2_for_base_variable_outside_the_base(tmp_path, capsys, var):
    bad = tmp_path / "bad.model"
    bad.write_text("[model]\nn = 3\nd = 3\nflavor = bf\nblock p=1 rank=1\n\n[data]\nf1[1;1] = %s\n" % var)
    code, out = run_cli(["check-master", "--model", str(bad)])
    assert code == 2 and out == ""
    assert "line 8: base variable %s out of range phi1..phi3" % var in capsys.readouterr().err


N2_MODEL = "[model]\nn = 2\nd = 3\n"
CS_MODEL = "[model]\nn = 3\nd = 2\nflavor = cs_bf\ncs rank=2\n"
# Longer than the 4,300 digits Python converts by default.
LONG = "9" * 5000
TOO_LONG = "integer of 5000 digits is too long"
# A message repeats at most 32 characters of an input, then its length.
WIDE = "9" * 3000


def clipped(text, quote="'"):
    return "%s%s...%s (%d characters)" % (quote, text[:32], quote, len(text))


# One model file per parse error message, with the message it must print.
PARSE_ERRORS = [
    ("trailing-token", N2_MODEL + "\n[data]\nf1[;1,2] = phi1 phi2\n",
     "line 6, column 6: unexpected 'phi2' after polynomial"),
    ("empty-value", N2_MODEL + "\n[data]\nf1[;1,2] =\n", "line 6, column 1: unexpected end of polynomial"),
    ("dangling-plus", N2_MODEL + "\n[data]\nf1[;1,2] = phi1 +\n",
     "line 6, column 7: unexpected end of polynomial"),
    ("bad-exponent", N2_MODEL + "\n[data]\nf1[;1,2] = phi1^phi2\n",
     "line 6, column 6: exponent must be a nonnegative integer"),
    ("unclosed-paren", N2_MODEL + "\n[data]\nf1[;1,2] = (phi1 + 1 phi2\n",
     "line 6, column 11: expected ')'"),
    ("zero-denominator", N2_MODEL + "\n[data]\nf1[;1,2] = 1/0\n",
     "line 6, column 3: invalid rational denominator"),
    ("bad-index", N2_MODEL + "\n[data]\nf1[;1 2] = phi1\n", "line 6: invalid index '1 2'"),
    ("bad-assignment", N2_MODEL + "\n[data]\nf1 = phi1\n",
     "line 6: expected 'name[lower;upper] = polynomial'"),
    ("no-key-value", N2_MODEL + "bogus\n", "line 4: expected 'key = value'"),
    ("n-not-integer", "[model]\nn = two\nd = 3\n", "line 2: n must be a positive integer"),
    ("n-superscript-digit", "[model]\nn = \u00b2\nd = 3\n", "line 2: n must be a positive integer"),
    ("n-zero", "[model]\nd = 3\nn = 0\n", "line 3: n must be a positive integer"),
    ("d-zero", "[model]\nn = 2\n\nd = 0\n", "line 4: d must be a positive integer"),
    ("metric-not-symmetric", CS_MODEL + "k = 0 1 ; 2 0\n", "line 6: metric k must be symmetric"),
    ("metric-degenerate", CS_MODEL + "k = 1 0 ; 0 0\n", "line 6: metric k must be nondegenerate"),
    ("cs-under-bf", "[model]\nn = 3\nd = 2\nblock p=1 rank=2\ncs rank=2\nk = 1 0 ; 0 1\n",
     "line 5: bf flavor does not take a cs block"),
    ("cs-bf-without-cs", "[model]\nn = 3\nd = 2\nblock p=1 rank=2\nflavor = cs_bf\n",
     "line 5: cs_bf flavor requires a cs block"),
    ("lower-index-out-of-range", "[model]\nn = 3\nd = 2\nblock p=1 rank=2\n\n[data]\nf1[7;1] = 0\n",
     "line 7: index 7 out of range 1..2 for f1"),
    ("duplicate-block", "[model]\nn = 5\nd = 2\nblock p=1 rank=2\nblock p=1 rank=1\n",
     "line 5: duplicate block degree p=1"),
    ("second-block-out-of-range", "[model]\nn = 5\nd = 2\nblock p=1 rank=2\nblock p=3 rank=1\n",
     "line 5: block degree p=3 out of range 1..2 for n=5 (bf)"),
    ("second-block-rank-zero", "[model]\nn = 5\nd = 2\nblock p=1 rank=2\nblock p=2 rank=0\n",
     "line 5: block rank must be >= 1"),
    ("bad-flavor", N2_MODEL + "flavor = ab\n", "line 4: flavor must be bf or cs_bf"),
    ("bad-metric-entry", CS_MODEL + "k = 1 0 ; 0 z\n", "line 6: invalid metric entry 'z'"),
    ("unknown-model-key", N2_MODEL + "rank = 2\n", "line 4: unknown model key 'rank'"),
    ("missing-d", "[model]\nn = 2\n", "line 1: missing 'd' in [model] section"),
    ("cs-without-metric", CS_MODEL, "line 5: cs block requires a metric line 'k = ...'"),
    ("metric-without-cs", N2_MODEL + "k = 1 0 ; 0 1\n",
     "line 4: metric k given without a cs block"),
    ("minus-run", N2_MODEL + "\n[data]\nf1[;1,2] = " + "-" * 3000 + "phi1 phi2\n",
     "line 6, column 3006: unexpected 'phi2' after polynomial"),
    ("deep-nesting", N2_MODEL + "\n[data]\nf1[;1,2] = " + "(" * 3000 + "phi1" + ")" * 3000 + "\n",
     "line 6: polynomial nested too deeply"),
    ("repeated-n", "[model]\nn = 5\nd = 2\nn = 2\n", "line 4: repeated model key 'n'"),
    ("repeated-d", N2_MODEL + "d = 3\n", "line 4: repeated model key 'd'"),
    ("repeated-flavor", N2_MODEL + "flavor = bf\nflavor = bf\n", "line 5: repeated model key 'flavor'"),
    ("repeated-k", CS_MODEL + "k = 1 0 ; 0 1\nk = 1 0 ; 0 1\n", "line 7: repeated model key 'k'"),
    ("repeated-cs", CS_MODEL + "cs rank=2\nk = 1 0 ; 0 1\n", "line 6: repeated model key 'cs rank'"),
    ("symmetry-no-equals", N2_MODEL + "\n[symmetry]\nf1 antisym upper\n",
     "line 6: expected 'family = antisym|sym lower|upper'"),
    ("symmetry-unknown-family", N2_MODEL + "\n[symmetry]\nf9 = antisym upper\n",
     "line 6: unknown symbol family 'f9'"),
    ("symmetry-bad-kind", N2_MODEL + "\n[symmetry]\nf1 = skew upper\n",
     "line 6: expected 'antisym|sym lower|upper'"),
    ("data-unknown-family", N2_MODEL + "\n[data]\nf9[;1,2] = phi1\n",
     "line 6: unknown symbol family 'f9'"),
    ("long-n", "[model]\nn = %s\nd = 3\n" % LONG, "line 2: " + TOO_LONG),
    ("long-d", "[model]\nn = 2\nd = %s\n" % LONG, "line 3: " + TOO_LONG),
    ("long-block-rank", "[model]\nn = 3\nd = 2\nblock p=1 rank=%s\n" % LONG, "line 4: " + TOO_LONG),
    ("long-cs-rank", "[model]\nn = 3\nd = 2\nflavor = cs_bf\ncs rank=%s\n" % LONG, "line 5: " + TOO_LONG),
    ("long-index", N2_MODEL + "\n[data]\nf1[;1,%s] = phi1\n" % LONG, "line 6: " + TOO_LONG),
    ("long-coefficient", N2_MODEL + "\n[data]\nf1[;1,2] = 2*%s*phi1\n" % LONG,
     "line 6, column 3: " + TOO_LONG),
    ("long-denominator", N2_MODEL + "\n[data]\nf1[;1,2] = 1/%s\n" % LONG, "line 6, column 3: " + TOO_LONG),
    ("long-exponent", N2_MODEL + "\n[data]\nf1[;1,2] = phi3^%s\n" % LONG, "line 6, column 6: " + TOO_LONG),
    ("long-phi", N2_MODEL + "\n[data]\nf1[;1,2] = 1 + phi%s\n" % LONG, "line 6, column 8: " + TOO_LONG),
    ("long-metric-entry", CS_MODEL + "k = %s 0 ; 0 1\n" % LONG, "line 6: invalid metric entry " + clipped(LONG)),
    ("wide-trailing-token", N2_MODEL + "\n[data]\nf1[;1,2] = phi1 %s\n" % WIDE,
     "line 6, column 6: unexpected %s after polynomial" % clipped(WIDE)),
    ("wide-model-key", N2_MODEL + "x%s = 2\n" % WIDE, "line 4: unknown model key " + clipped("x" + WIDE)),
    ("wide-section", N2_MODEL + "[%s]\n" % WIDE, "line 4: unknown section " + clipped("[%s]" % WIDE, "")),
    ("wide-index", N2_MODEL + "\n[data]\nf1[;1 %s] = phi1\n" % WIDE, "line 6: invalid index " + clipped("1 " + WIDE)),
    ("wide-data-family", N2_MODEL + "\n[data]\nf%s[;1,2] = phi1\n" % WIDE,
     "line 6: unknown symbol family " + clipped("f" + WIDE)),
    ("wide-symmetry-family", N2_MODEL + "\n[symmetry]\nf%s = antisym upper\n" % WIDE,
     "line 6: unknown symbol family " + clipped("f" + WIDE)),
    ("wide-index-out-of-range", N2_MODEL + "\n[data]\nf1[;1,%s] = phi1\n" % WIDE,
     "line 6: index %s out of range 1..3 for f1" % clipped(WIDE, "")),
    ("wide-phi-out-of-range", N2_MODEL + "\n[data]\nf1[;1,2] = phi%s\n" % WIDE,
     "line 6: base variable phi%s out of range phi1..phi3" % clipped(WIDE, "")),
    ("wide-block-degree", "[model]\nn = 3\nd = 2\nblock p=%s rank=2\n" % WIDE,
     "line 4: block degree p=%s out of range 1..1 for n=3 (bf)" % clipped(WIDE, "")),
]


@pytest.mark.parametrize(
    "text,message", [c[1:] for c in PARSE_ERRORS], ids=[c[0] for c in PARSE_ERRORS]
)
def test_exit_code_2_and_message_for_each_parse_error(tmp_path, capsys, monkeypatch, text, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.model").write_text(text)
    code, out = run_cli(["check-master", "--model", "bad.model"])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err == "error: bad.model: %s\n" % message
    assert len(err.encode()) < 200  # however long the input


def test_compare_against_missing_file_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # Found before any extraction, so the error costs none.
    monkeypatch.setattr(cli, "extract_identities", lambda *args: pytest.fail("extracted first"))
    missing = tmp_path / "no-such-file.model"
    argv = ["compare-identities", "--model", str(EXAMPLES / "n3_cs_rank2.model"), "--against", str(missing)]
    code, out = run_cli(argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: no such model file: %s\n" % missing


def test_compare_against_parse_error_names_its_path(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text(N2_MODEL + "\n[symmetry]\nf9 = antisym upper\n")
    argv = ["compare-identities", "--model", str(EXAMPLES / "n3_cs_rank2.model"), "--against", str(bad)]
    code, out = run_cli(argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: %s: line 6: unknown symbol family 'f9'\n" % bad


@pytest.mark.parametrize("command", ["check-master", "verify-data", "check-algebroid", "laplacian"])
def test_every_data_command_names_an_unassigned_symbol(tmp_path, capsys, command):
    # The data is substituted into S1 first, so the symbol named is the
    # unassigned one itself, not a derivative of it met in (S1,S1).
    text = (EXAMPLES / "n2_poisson_so3.model").read_text(encoding="utf-8")
    model = tmp_path / "partial.model"
    model.write_text(text.replace("f1[;1,2] = phi3\n", ""))
    code, out = run_cli([command, "--model", str(model)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: no assignment for symbol f1[;1,2]\n"


def test_exit_code_2_when_data_is_required(tmp_path):
    nodata = tmp_path / "nodata.model"
    nodata.write_text("[model]\nn = 2\nd = 3\n")
    code, _ = run_cli(["check-master", "--model", str(nodata)])
    assert code == 2


@pytest.mark.parametrize("command, model, message", [
    ("check-master", N2_MODEL, "no assignment for symbol f1[;1,2]"),
    ("laplacian", N2_MODEL, "no assignment for symbol f1[;1,2]"),
    ("check-algebroid", "[model]\nn = 5\nd = 2\nblock p=1 rank=1\nblock p=2 rank=1\n",
     "section bases are defined for the n=2 and n=3 models"),
])
def test_an_empty_data_section_is_read_as_data(tmp_path, capsys, command, model, message):
    empty = tmp_path / "empty.model"
    empty.write_text(model + "\n[data]\n")
    code, out = run_cli([command, "--model", str(empty)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: %s\n" % message


def test_exit_code_2_for_unsupported_paper_comparison(tmp_path):
    model = tmp_path / "n4.model"
    model.write_text("[model]\nn = 4\nd = 2\nblock p=1 rank=2\n")
    code, _ = run_cli(["compare-identities", "--model", str(model), "--against", "paper"])
    assert code == 2


def test_compare_n2_model_against_paper():
    argv = ["compare-identities", "--model", "n2_poisson_so3.model", "--against", "paper"]
    code, out = run_cli(resolve(argv))
    assert code == 0
    assert "relation: equal" in json.loads(out)["details"]


def test_compare_against_other_model_file(tmp_path):
    other = tmp_path / "other.model"
    other.write_text((EXAMPLES / "n2_poisson_so3.model").read_text())
    code, out = run_cli(
        [
            "compare-identities",
            "--model",
            str(EXAMPLES / "n2_poisson_so3.model"),
            "--against",
            str(other),
        ]
    )
    assert code == 0
    assert json.loads(out)["result"] == "pass"


def test_text_format():
    code, out = run_cli(
        ["check-master", "--model", str(EXAMPLES / "n2_poisson_so3.model"), "--format", "text"]
    )
    assert code == 0
    assert out.startswith("check-master: pass")


def test_check_algebroid_text_format_on_a_failing_bivector():
    code, out = run_cli(resolve(["check-algebroid", "--model", "n2_bivector_fail.model", "--format", "text"]))
    assert code == 1
    assert out == (
        "check-algebroid: fail\n"
        "  bracket antisymmetry: ok\n"
        "  anchor homomorphism: FAILED\n"
        "  witness: anchor homomorphism: residual term (d(1)F[;]*d(2)G[;]*d(3)H[;]*phi1"
        " - d(1)F[;]*d(3)G[;]*d(2)H[;]*phi1 - d(2)F[;]*d(1)G[;]*d(3)H[;]*phi1"
        " + d(2)F[;]*d(3)G[;]*d(1)H[;]*phi1 + d(3)F[;]*d(1)G[;]*d(2)H[;]*phi1"
        " - d(3)F[;]*d(2)G[;]*d(1)H[;]*phi1)\n"
    )


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["check-master", "--model", "n2_poisson_so3.model", "--trials", "5"], "--trials"),
        (["extract-identities", "--model", "n3_cs_su2.model", "--seed", "1"], "--seed"),
    ],
    ids=["check-master-trials", "extract-identities-seed"],
)
def test_unread_seed_and_trials_are_usage_errors(argv, flag):
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(resolve(argv))
    assert code == 2
    assert out == ""
    # reported by the subcommand, with the flags it does take
    assert err.getvalue().startswith("usage: bvsigma %s [-h] --model MODEL" % argv[0])
    assert "bvsigma %s: error: unrecognized arguments: %s" % (argv[0], flag) in err.getvalue()


def test_check_algebroid_ignores_seed():
    # check-algebroid and check-bv are exact: they take --seed (check-bv
    # --trials too) and ignore it, so the report is byte-identical.
    for argv, flags in (
        (["check-algebroid", "--model", "n3_bf_exact_courant.model"], ["--seed", "5"]),
        (["check-bv", "--model", "n3_bf_exact_courant.model"], ["--seed", "5", "--trials", "3"]),
        (["check-bv", "--model", "n2_poisson_so3.model"], ["--trials", "0", "--seed", "-1"]),
    ):
        code, out = run_cli(resolve(argv))
        assert run_cli(resolve(argv) + flags) == (code, out)
        assert out and code in (0, 1)


def test_seed_and_trials_only_where_read():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    settable = sorted(
        (name, opt)
        for name, sub in subparsers.items()
        for action in sub._actions
        for opt in action.option_strings
        if opt in ("--seed", "--trials")
    )
    assert settable == [
        ("check-algebroid", "--seed"),
        ("check-bv", "--seed"),
        ("check-bv", "--trials"),
    ]


def test_verdicts_keep_first_witness_and_first_recorded_order():
    assert cli._verdicts([]) == (True, [], [])
    rows = [
        ("b", None),
        ("a", "a: first"),
        ("b", None),
        ("a", "a: second"),  # a law keeps the witness of its first failure
        ("c", None),
        ("a", None),  # a later passing case does not undo a failure
        ("c", "c: only"),
    ]
    passed, details, witnesses = cli._verdicts(rows, ["something to know"])
    assert witnesses == ["a: first", "c: only"]
    assert not passed
    assert details == ["b: ok", "a: FAILED", "c: FAILED", "note: something to know"]
    passing, other = cli._verdicts([("x", None)], ["n"]), cli._verdicts([("x", None)], ["n"])
    assert passing == (True, ["x: ok", "note: n"], [])
    assert all(a is not b for a, b in zip(passing[1:], other[1:]))


def test_failing_first_order_report_names_the_monomial(monkeypatch):
    real = cli.first_order_check
    table = GeneratorTable(3, (("F", 0),))
    nonzero = component_exprs(table, "F", 0)[0]

    def broken(spec, s1):
        residuals = real(spec, s1)
        assert list(residuals) == ["A1_1*A1_2*B1_1", "A1_1*B2_1"]
        return dict(residuals, **{"A1_1*B2_1": nonzero})

    monkeypatch.setattr(cli, "first_order_check", broken)
    code, out = run_cli(["first-order", "--model", str(EXAMPLES / "n3_bf_exact_courant.model")])
    report = json.loads(out)
    assert (code, report["result"]) == (1, "fail")
    assert report["details"] == ["A1_1*A1_2*B1_1: ok", "A1_1*B2_1: FAILED"]
    assert report["witnesses"] == ["A1_1*B2_1"]


def test_failing_theorem1_report_names_the_parities(monkeypatch):
    # A wrong T on the third case, (|F|,|G|) = (1,0): delta0 of the
    # doubled T misses the sum by delta0(T), which is not zero.
    real, calls = cli.theorem1_witness, []

    def broken(table, fc, gc):
        t, w = real(table, fc, gc)
        calls.append(t)
        assert not t.delta0().is_zero()
        return (t + t if len(calls) == 3 else t), w

    monkeypatch.setattr(cli, "theorem1_witness", broken)
    code, out = run_cli(["theorem1", "--model", str(EXAMPLES / "n3_bf_exact_courant.model")])
    report = json.loads(out)
    assert (code, report["result"], len(calls)) == (1, "fail", 4)
    assert report["details"] == [
        "parities (|F|,|G|)=(0,0): ok",
        "parities (|F|,|G|)=(0,1): ok",
        "parities (|F|,|G|)=(1,0): FAILED",
        "parities (|F|,|G|)=(1,1): ok",
    ]
    assert report["witnesses"] == ["parities (1,0)"]


def test_kinetic_master_and_first_order_commands():
    for cmd in ("kinetic-master", "first-order", "theorem1", "laplacian"):
        code, out = run_cli([cmd, "--model", str(EXAMPLES / "n3_bf_exact_courant.model")])
        assert code == 0, (cmd, out)
        assert json.loads(out)["result"] == "pass"


@pytest.mark.parametrize("body", ["n = 2\nd = 1\n", "n = 1\nd = 2\n"], ids=["n2_d1", "n1"])
def test_first_order_refuses_an_empty_ansatz(tmp_path, body):
    # No deformation term, so no law to check: a usage error, not a pass.
    model = tmp_path / "empty.model"
    model.write_text("[model]\n" + body)
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["first-order", "--model", str(model)])
    assert (code, out) == (2, "")
    assert err.getvalue() == (
        "error: first-order: the deformation ansatz of this model is empty, so there is nothing to check\n"
    )


def test_extract_on_poisson_model_yields_one_identity():
    code, out = run_cli(
        ["extract-identities", "--model", str(EXAMPLES / "n2_poisson_so3.model")]
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["details"]) == 1
    assert doc["details"][0].startswith("B1_1*B1_2*B1_3:")


def test_verify_data_lists_failing_identities():
    code, out = run_cli(
        ["verify-data", "--model", str(EXAMPLES / "n2_bivector_fail.model")]
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["result"] == "fail"
    assert doc["witnesses"]


def test_verify_data_reports_every_identity_and_caps_its_witnesses(tmp_path):
    # The exact Courant algebroid over a 3-dimensional base with every
    # f1[a;i] set to phi((a+i) mod 3 + 1): 15 of its 66 identities fail.
    text = re.sub(
        r"f1\[(\d);(\d)\] = 0",
        lambda m: "f1[%s;%s] = phi%d" % (m[1], m[2], (int(m[1]) + int(m[2])) % 3 + 1),
        load_workloads().exact_courant_model(3),
    )
    model = tmp_path / "courant_f1.model"
    model.write_text(text)
    code, out = run_cli(["verify-data", "--model", str(model)])
    assert code == 1
    doc = json.loads(out)
    assert doc["result"] == "fail" and len(doc["details"]) == 66
    failed = [line[: -len(": FAILED")] for line in doc["details"] if line.endswith(": FAILED")]
    assert len(failed) == 15
    assert [w.split(" -> ")[0] for w in doc["witnesses"]] == failed[:10]


def test_module_entry_point():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "bvsigma.cli",
            "check-master",
            "--model",
            str(EXAMPLES / "n2_poisson_so3.model"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == "pass"


def test_exit_code_2_for_algebroid_of_unsupported_n(tmp_path):
    model = tmp_path / "n5.model"
    model.write_text("[model]\nn = 5\nd = 2\nblock p=1 rank=2\n\n[data]\nf1[1;1] = phi1\n")
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["check-algebroid", "--model", str(model)])
    assert code == 2
    assert out == ""
    assert err.getvalue() == "error: section bases are defined for the n=2 and n=3 models\n"


def test_even_degree_self_block_refused_only_where_the_bracket_is_needed(tmp_path):
    # n=5 gives a degree-2 self block: a valid model with a kinetic action,
    # but no antibracket.
    model = tmp_path / "n5_cs.model"
    model.write_text("[model]\nn = 5\nd = 2\nflavor = cs_bf\ncs rank=2\nk = 1 0 ; 0 1\n")
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["check-bv", "--model", str(model), "--trials", "2"])
    assert code == 2
    assert out == ""
    assert err.getvalue().startswith("error: self-paired block of even degree 2 cannot carry")
    code, out = run_cli(["kinetic-master", "--model", str(model)])
    assert code == 0
    assert json.loads(out)["result"] == "pass"


def test_exit_code_2_for_comparing_models_of_different_shape():
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(
            [
                "compare-identities",
                "--model",
                str(EXAMPLES / "n2_poisson_so3.model"),
                "--against",
                str(EXAMPLES / "n3_cs_su2.model"),
            ]
        )
    assert code == 2
    assert err.getvalue().startswith("error: alphabet mismatch: f1 has")


@pytest.mark.parametrize("seed", ["1", "2"])
def test_alphabet_mismatch_names_one_family_under_every_hash_seed(tmp_path, seed):
    # The first family of --against whose shape differs, in equation order;
    # a pick by set order named f2 or f3 depending on the seed.
    n4, n5 = tmp_path / "n4.model", tmp_path / "n5.model"
    n4.write_text("[model]\nn = 4\nd = 2\nblock p=1 rank=2\n")
    n5.write_text("[model]\nn = 5\nd = 2\nblock p=1 rank=2\nblock p=2 rank=2\n")
    path = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bvsigma.cli", "compare-identities", "--model", str(n4), "--against", str(n5)],
        env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: alphabet mismatch: f2 has 0 lower/2 upper indices in one set and 1/1 in the other\n"


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    # An engine fault must surface, not pass for a mistake in the input.
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "check_courant", broken)
    with pytest.raises(ValueError, match="internal fault"):
        run_cli(["check-algebroid", "--model", str(EXAMPLES / "n3_bf_exact_courant.model")])


def test_verify_data_refuses_a_residual_term_outside_the_identities(monkeypatch):
    # A residual monomial that no extracted identity tags would go
    # unreported; it is a fault of the engine, not a usage error.
    real = cli.expand_master

    def widened(p, S):
        return real(p, S) + Expr.base(1) * Expr.var(p.spec.vars_of("B1")[0])

    monkeypatch.setattr(cli, "expand_master", widened)
    with pytest.raises(RuntimeError, match="outside the extracted identities: B1_1$"):
        run_cli(["verify-data", "--model", str(EXAMPLES / "n2_poisson_so3.model")])


def test_parser_kept_across_calls_gives_what_a_fresh_one_gives(monkeypatch):
    so3 = str(EXAMPLES / "n2_poisson_so3.model")
    sequence = [
        ["check-bv", "--model", so3, "--trials", "nope"],  # usage error
        ["-h"],
        ["check-bv", "--model", so3, "--trials", "5", "--seed", "2"],
        ["check-master", "--model", so3, "--format", "text"],
    ]

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    fresh = []
    for argv in sequence:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(run(argv))
    monkeypatch.setattr(cli, "_PARSER", None)
    kept = [run(argv) for argv in sequence]
    parser = cli._PARSER
    assert parser is not None
    kept += [run(argv) for argv in sequence]
    assert cli._PARSER is parser  # built once, by the first call
    assert kept == fresh + fresh
    assert [code for code, _, _ in fresh] == [2, 0, 0, 0]
    assert fresh[1][1].startswith("usage: bvsigma")
    assert fresh[3][1].startswith("check-master: pass")


def test_parser_not_built_at_import():
    proc = subprocess.run(
        [sys.executable, "-c", "import bvsigma.cli as c; print(c._PARSER)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "None"
