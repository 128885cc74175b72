from fractions import Fraction
from pathlib import Path

import pytest

from bvsigma.modelfile import ParseError, parse_model, parse_poly
from bvsigma.symalg import CPoly

EXAMPLES = Path(__file__).resolve().parent.parent / "src" / "bvsigma" / "examples"
FIXTURES = sorted(EXAMPLES.glob("*.model"))


def print_model(mf) -> str:
    """Canonical text form of a parsed model file; the round-trip tests
    check that parsing it gives the same model back."""
    spec = mf.spec
    lines = ["[model]", "n = %d" % spec.n, "d = %d" % spec.d, "flavor = %s" % spec.flavor]
    for blk in sorted(spec.bf_blocks, key=lambda b: b.p):
        lines.append("block p=%d rank=%d" % (blk.p, blk.rank))
    if spec.cs_block is not None:
        lines.append("cs rank=%d" % spec.cs_block.rank)
        lines.append(
            "k = " + " ; ".join(" ".join(str(x) for x in row) for row in spec.cs_block.metric)
        )
    if mf.data is not None and mf.data.values:
        lines.append("")
        lines.append("[data]")
        for (name, lower, upper), poly in mf.data.items():
            lines.append(
                "%s[%s;%s] = %s"
                % (
                    name,
                    ",".join(map(str, lower)),
                    ",".join(map(str, upper)),
                    str(poly),
                )
            )
    return "\n".join(lines) + "\n"


def test_fixture_inventory():
    assert len(FIXTURES) == 6


def test_minimal_poisson_model():
    mf = parse_model("[model]\nn = 2\nd = 3\n")
    assert mf.spec.n == 2 and mf.spec.d == 3 and mf.spec.flavor == "bf"
    assert mf.data is None


def test_cs_block_with_even_n_is_rejected_with_line():
    text = "[model]\nn = 4\nd = 2\nflavor = cs_bf\ncs rank=2\nk = 1 0 ; 0 1\n"
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert "odd n" in str(err.value)
    assert err.value.line == 5


def test_metric_shape_and_symmetry_diagnostics():
    base = "[model]\nn = 3\nd = 2\nflavor = cs_bf\ncs rank=2\n"
    with pytest.raises(ParseError):
        parse_model(base + "k = 1 0 ; 0\n")  # ragged
    with pytest.raises(ParseError):
        parse_model(base + "k = 1 2 ; 3 4\n")  # not symmetric
    with pytest.raises(ParseError):
        parse_model(base + "k = 1 1 ; 1 1\n")  # degenerate


def test_so3_file_parses_with_data():
    mf = parse_model((EXAMPLES / "n2_poisson_so3.model").read_text())
    assert mf.data is not None
    assert len(mf.data.values) == 3


def test_unknown_symbol_family_is_an_error():
    text = "[model]\nn = 2\nd = 3\n\n[data]\nf9[;1,2] = phi1\n"
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert err.value.line == 6


def test_symmetry_violating_assignment():
    text = "[model]\nn = 2\nd = 3\n\n[data]\nf1[;1,2] = phi1\nf1[;2,1] = phi1\n"
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert "conflicting" in str(err.value)


@pytest.mark.parametrize("var", ["phi0", "phi4"])
def test_base_variable_outside_the_base_is_an_error(var):
    text = "[model]\nn = 2\nd = 3\n\n[data]\nf1[;1,2] = phi3\nf1[;1,3] = phi1 - 2*%s\n" % var
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert err.value.line == 7
    assert "base variable %s out of range phi1..phi3" % var in str(err.value)


def test_nonzero_on_vanishing_combination():
    text = "[model]\nn = 2\nd = 3\n\n[data]\nf1[;1,1] = phi1\n"
    with pytest.raises(ParseError):
        parse_model(text)


def test_symmetry_section_consistency():
    good = "[model]\nn = 2\nd = 3\n\n[symmetry]\nf1 = antisym upper\n"
    parse_model(good)
    bad = "[model]\nn = 2\nd = 3\n\n[symmetry]\nf1 = sym upper\n"
    with pytest.raises(ParseError):
        parse_model(bad)
    bad2 = "[model]\nn = 2\nd = 3\n\n[symmetry]\nf1 = antisym lower\n"
    with pytest.raises(ParseError):
        parse_model(bad2)


def test_poly_parsing_and_errors():
    p = parse_poly("3/2*phi1^2 - phi2*phi3 + (1 - phi1)*2")
    expected = (
        CPoly.base(1) * CPoly.base(1)
    ).scale(Fraction(3, 2)) - CPoly.base(2) * CPoly.base(3) + (
        CPoly.scalar(1) - CPoly.base(1)
    ).scale(2)
    assert p == expected
    with pytest.raises(ParseError):
        parse_poly("phi1 +")
    with pytest.raises(ParseError):
        parse_poly("2 ** phi1")
    with pytest.raises(ParseError):
        parse_poly("phi1 @ 2")
    err = pytest.raises(ParseError, parse_poly, "phi1 ^ x")
    assert err.value.line == 1


def test_a_unary_minus_negates_its_whole_factor():
    square = CPoly.base(1) * CPoly.base(1)
    assert parse_poly("1*-phi1^2") == parse_poly("-phi1^2") == -square
    assert parse_poly("2*-phi1^2") == square.scale(-2)
    assert parse_poly("2*-phi1") == CPoly.base(1).scale(-2)
    assert parse_poly("+phi1 - 2") == CPoly.base(1) - CPoly.scalar(2)


def test_trailing_blanks_end_the_token_scan():
    assert parse_poly("phi1 + 2 \t") == parse_poly("phi1 + 2")


def test_a_run_of_minuses_is_read_in_one_loop():
    assert parse_poly("-" * 3000 + "phi1") == CPoly.base(1)
    assert parse_poly("2*" + "-" * 3001 + "phi1^2") == (CPoly.base(1) * CPoly.base(1)).scale(-2)


@pytest.mark.parametrize("text,column", [("2*+phi1", 3), ("phi1 + + phi2", 8), ("-+phi1", 2)])
def test_a_plus_is_accepted_only_at_the_start(text, column):
    with pytest.raises(ParseError) as err:
        parse_poly(text)
    assert str(err.value) == "line 1, column %d: unexpected token '+'" % column


def test_unknown_section_and_stray_content():
    with pytest.raises(ParseError):
        parse_model("[stuff]\n")
    with pytest.raises(ParseError):
        parse_model("n = 2\n")


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_parse_print_parse_roundtrip(path):
    first = parse_model(path.read_text())
    printed = print_model(first)
    second = parse_model(printed)
    assert second == first
    assert print_model(second) == printed


def test_print_is_canonical_for_handwritten_variants():
    a = parse_model("[model]\nn = 2\nd = 3\n\n[data]\nf1[;2,1] = -phi3\n")
    b = parse_model("[model]\nflavor = bf\nd = 3\nn = 2\n\n[data]\nf1[;1,2] = phi3\n")
    assert print_model(a) == print_model(b)
