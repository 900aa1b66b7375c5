from fractions import Fraction

import pytest

from sympcoh.cec import validate
from sympcoh.forms import KForm
from sympcoh.parser import (
    ParseError,
    parse_form,
    parse_salamon,
    render_form,
    render_salamon,
)

F = Fraction


def e(n, *indices):
    return KForm.basis(n, indices)


# --- structure equations ------------------------------------------------------


def test_parse_kodaira():
    g = parse_salamon("(0,0,0,23)")
    assert g.dim == 4
    assert g.gen_differentials[0].is_zero()
    assert g.gen_differentials[3] == e(4, 2, 3)


def test_parse_signed_entries():
    g = parse_salamon("(0,0,-23,24)")
    assert g.gen_differentials[2] == -e(4, 2, 3)
    assert g.gen_differentials[3] == e(4, 2, 4)


def test_parse_abelian():
    g = parse_salamon("(0,0,0,0)")
    assert all(d.is_zero() for d in g.gen_differentials)


def test_parse_whitespace_and_coefficients():
    g = parse_salamon("( 0 , 0 , 1/2*12 + 3*13 , 0 )")
    assert g.gen_differentials[2] == F(1, 2) * e(4, 1, 2) + 3 * e(4, 1, 3)


def test_parse_repeated_index_rejected():
    with pytest.raises(ParseError):
        parse_salamon("(0,0,0,11)")


def test_parse_out_of_range_index_rejected():
    with pytest.raises(ParseError):
        parse_salamon("(0,0,0,25)")


def test_parse_malformed_rational_rejected():
    with pytest.raises(ParseError):
        parse_salamon("(0,0,0,1.5*23)")
    with pytest.raises(ParseError):
        parse_salamon("(0,0,0,2//3*23)")
    with pytest.raises(ParseError):
        parse_salamon("(0,0,0,1/0*23)")


def test_parse_accepts_ascii_digits_only():
    # str.isdigit() holds for '²', but it is no decimal digit
    with pytest.raises(ParseError, match="malformed rational"):
        parse_form("²*14+23", 4)
    with pytest.raises(ParseError):
        parse_form("[1.²]", 4)
    with pytest.raises(ParseError):
        parse_form("1²", 4)


def test_parse_rejects_doubled_or_trailing_signs():
    with pytest.raises(ParseError):
        parse_form("+-23", 4)
    with pytest.raises(ParseError):
        parse_form("12++34", 4)
    with pytest.raises(ParseError):
        parse_form("12+", 4)


def test_parse_accepts_leading_plus():
    assert parse_form("+23", 4) == e(4, 2, 3)


def test_parse_requires_parentheses_and_two_forms():
    with pytest.raises(ParseError):
        parse_salamon("0,0,0,23")
    with pytest.raises(ParseError):
        parse_salamon("(0,0,0,234)")


def test_parsed_algebra_satisfies_jacobi():
    assert validate(parse_salamon("(0,0,12,13)")) is None


# --- form expressions ---------------------------------------------------------


def test_parse_form_basics():
    assert parse_form("12+34", 4) == e(4, 1, 2) + e(4, 3, 4)
    assert parse_form("2*12-3*14", 4) == 2 * e(4, 1, 2) - 3 * e(4, 1, 4)


def test_parse_form_bracket_syntax():
    form = parse_form("[1.10]", 10)
    assert form == KForm.basis(10, [1, 10])


def test_parse_form_digit_runs_refused_above_nine():
    with pytest.raises(ParseError):
        parse_form("12", 10)


def test_parse_form_mixed_degrees_rejected():
    with pytest.raises(ParseError):
        parse_form("12+134", 4)


def test_parse_form_repeated_index_rejected():
    with pytest.raises(ParseError):
        parse_form("112", 4)
    with pytest.raises(ParseError):
        parse_form("[1.1]", 10)


def test_parse_form_permuted_indices_normalize_with_sign():
    assert parse_form("21", 4) == -e(4, 1, 2)
    assert parse_form("312", 4) == e(4, 1, 2, 3)


def test_parse_form_zero():
    z = parse_form("0", 4)
    assert z.is_zero() and z.degree == 0


def test_parse_form_higher_degree():
    assert parse_form("123-2*234", 4) == e(4, 1, 2, 3) - 2 * e(4, 2, 3, 4)


# --- rendering ----------------------------------------------------------------


def test_render_form_canonical():
    form = -e(4, 1, 2) + F(1, 2) * e(4, 3, 4)
    assert render_form(form) == "-12+1/2*34"
    assert render_form(KForm.zero(4, 2)) == "0"


def test_render_constants_as_their_coefficient():
    assert render_form(KForm.constant(4, 1)) == "1"
    assert render_form(KForm.constant(4, -2)) == "-2"
    assert render_form(KForm.constant(4, F(1, 2))) == "1/2"
    assert render_form(KForm.constant(4, 0)) == "0"


def test_render_salamon_round_trip_idempotent():
    for text in ["(0,0,0,23)", "(0,0,-23,24)", "(0, 0, 1/2*12+3*13, -14)"]:
        once = render_salamon(parse_salamon(text))
        twice = render_salamon(parse_salamon(once))
        assert once == twice
        assert parse_salamon(once) == parse_salamon(text)


def test_render_bracket_labels_above_nine():
    g = parse_salamon("(0,0,0,0,0,0,0,0,0,-[1.3]+[2.4])")
    assert render_salamon(g) == "(0,0,0,0,0,0,0,0,0,-[1.3]+[2.4])"
