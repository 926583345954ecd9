"""Grammar coverage, error reporting and round-trip fixpoints."""

import random
import sys

import pytest

from lvf import parsing
from lvf.errors import LvfError, ParseError, UnknownIdentifier
from lvf.expr import format_scalar
from lvf.fields import format_field
from lvf.parsing import MAX_EXPONENT, MAX_NESTING, MAX_PRODUCTS, parse_field, parse_scalar

from _rand import rand_exppoly, rand_field


def test_nesting_bounded():
    ok = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_scalar(ok) == parse_scalar("x")
    for deep in (
        "(" * 3000 + "x" + ")" * 3000,
        "-" * 3000 + "x",
        "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
    ):
        with pytest.raises(ParseError, match="nesting"):
            parse_scalar(deep)


def test_power_bounded():
    assert parse_scalar(f"x^{MAX_EXPONENT}").max_poly_degree() == MAX_EXPONENT
    for text in ("x^100000000", f"(x*y)^{MAX_EXPONENT}", "exp(x)^65"):
        with pytest.raises(ParseError, match="power"):
            parse_scalar(text)


# the interpreter's limit on digits converted to an integer (Python 3.11+)
INT_DIGITS = getattr(sys, "get_int_max_str_digits", int)()


@pytest.mark.skipif(not INT_DIGITS, reason="the interpreter converts integers of any length")
@pytest.mark.parametrize("template", ["{}*x", "x^{}"])
def test_number_over_the_digit_limit_refused(template):
    # a coefficient and a power's exponent take the check literal
    # parameter values take, not the interpreter's own error
    with pytest.raises(LvfError) as info:
        parse_scalar(template.format("1" * 5000))
    assert str(info.value) == f"literal has 5000 digits; at most {INT_DIGITS} are accepted"
    assert parse_scalar(f"{'1' * INT_DIGITS}*x") == parse_scalar("x") * int("1" * INT_DIGITS)


def test_products_bounded():
    # within the degree bound but past the product bound; the first ran
    # for minutes before there was one
    for text in ("(x+y+z+1)^64*Dx", "(x+y+z+1)^32", "(x+y+z+1)^12*(x+y+z+1)^12",
                 "((x+y+z+1)^12 - 1)*((x+y+z+1)^12 + 1)*Dy"):
        with pytest.raises(ParseError, match=f"more than {MAX_PRODUCTS} term products"):
            parse_field(text) if "D" in text else parse_scalar(text)
    # parameter monomials count as terms too
    with pytest.raises(ParseError, match="term products"):
        parse_scalar("(a+b+c+x)^32", params=("a", "b", "c"))
    for text in ("(x+y+z+1)^12", "(x+1)^64", "(x*y*z)^21", "(1+x+x^2)^32", "0^64"):
        parse_scalar(text)
    square = parse_scalar("(x+y+1)^10")
    assert parse_scalar("(x+y+1)^20") == square * square


def test_products_counted_over_the_whole_parse(monkeypatch):
    monkeypatch.setattr(parsing, "MAX_PRODUCTS", 10)
    # 3 * 2 term products, then 6 more in a second product
    assert parse_scalar("(x+y+z)*(x+y)") == parse_scalar("x^2 + 2*x*y + x*z + y^2 + y*z")
    with pytest.raises(ParseError, match="more than 10 term products"):
        parse_scalar("(x+y+z)*(x+y) - (x+y+z)*(x+y)")


def test_coordinate():
    y = parse_scalar("y")
    assert format_scalar(y) == "y"


def test_positional_aliases():
    assert parse_scalar("x2") == parse_scalar("y")
    assert parse_field("D3") == parse_field("Dz")


def test_half_exponent_term():
    f = parse_scalar("exp((-x+y)/2)*(z+1/4)")
    exps = {exp for exp, _, _ in f.terms()}
    assert len(exps) == 1
    (q,) = exps
    assert [str(v) for v in q] == ["-1/2", "1/2", "0"]


def test_rational_literals():
    assert parse_scalar("3/4") == parse_scalar("6/8")
    assert parse_scalar("z^2/2") == parse_scalar("1/2*z^2")


def test_unary_minus():
    assert parse_scalar("-x + y") == parse_scalar("y - x")
    assert parse_scalar("-(x + y)") == parse_scalar("-x - y")


def test_field_expression():
    x = parse_field("exp(x)*(Dx + Dy + z*Dz)")
    assert format_field(x) == "exp(x)*Dx + exp(x)*Dy + z*exp(x)*Dz"


def test_zero_field():
    assert parse_field("0").is_zero()


def test_parameters_must_be_declared():
    with pytest.raises(UnknownIdentifier):
        parse_scalar("lambda*y")
    f = parse_scalar("lambda*y", params=("lambda",))
    assert f.params() == ("lambda",)


def test_syntax_error_position():
    with pytest.raises(ParseError) as info:
        parse_scalar("x + + y")
    assert info.value.pos == 4


def test_unknown_identifier_position():
    with pytest.raises(UnknownIdentifier) as info:
        parse_scalar("x + foo")
    assert info.value.pos == 4


def test_field_scalar_mix_rejected():
    with pytest.raises(ParseError):
        parse_scalar("x + Dx")
    with pytest.raises(ParseError):
        parse_field("Dx * Dy")


def test_exp_argument_restrictions():
    with pytest.raises(ParseError):
        parse_scalar("exp(x^2)")
    with pytest.raises(ParseError):
        parse_scalar("exp(x + 1)")
    with pytest.raises(ParseError):
        parse_scalar("exp(exp(x))")


def test_division_restrictions():
    with pytest.raises(ParseError):
        parse_scalar("x / y")
    with pytest.raises(ParseError):
        parse_scalar("x / 0")


def test_dim_4():
    f = parse_field("x*Dy + z*Dw", dim=4)
    assert format_field(f) == "x*Dy + z*Dw"


def test_scalar_roundtrip_random():
    rng = random.Random(23)
    for _ in range(300):
        f = rand_exppoly(rng, with_params=True)
        text = format_scalar(f)
        assert parse_scalar(text, 3, ("a", "b", "lam")) == f
        assert format_scalar(parse_scalar(text, 3, ("a", "b", "lam"))) == text


def test_field_roundtrip_random():
    rng = random.Random(29)
    for _ in range(300):
        x = rand_field(rng, with_params=True)
        text = format_field(x)
        assert parse_field(text, 3, ("a", "b", "lam")) == x
