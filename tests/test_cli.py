import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from bvsigma import cli

EXAMPLES = Path(__file__).resolve().parent.parent / "src" / "bvsigma" / "examples"
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


def test_exit_code_2_when_data_is_required(tmp_path):
    nodata = tmp_path / "nodata.model"
    nodata.write_text("[model]\nn = 2\nd = 3\n")
    code, _ = run_cli(["check-master", "--model", str(nodata)])
    assert code == 2


def test_exit_code_2_for_unsupported_paper_comparison(tmp_path):
    model = tmp_path / "n4.model"
    model.write_text("[model]\nn = 4\nd = 2\nblock p=1 rank=2\n")
    code, _ = run_cli(["compare-identities", "--model", str(model), "--against", "paper"])
    assert code == 2


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


def test_kinetic_master_and_first_order_commands():
    for cmd in ("kinetic-master", "first-order", "theorem1", "laplacian"):
        code, out = run_cli([cmd, "--model", str(EXAMPLES / "n3_bf_exact_courant.model")])
        assert code == 0, (cmd, out)
        assert json.loads(out)["result"] == "pass"


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


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    # An engine fault must surface, not pass for a mistake in the input.
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "check_algebroid", broken)
    with pytest.raises(ValueError, match="internal fault"):
        run_cli(["check-algebroid", "--model", str(EXAMPLES / "n3_bf_exact_courant.model")])


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
