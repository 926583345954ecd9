"""Exact scalar arithmetic: canonical form, ring laws, differentiation."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lvf.errors import DimensionMismatch, LvfError, UnassignedParameter
from lvf.expr import ExpPoly, as_fraction, format_scalar
from lvf.parsing import parse_scalar

from _rand import rand_exppoly


def S(text, params=()):
    return parse_scalar(text, 3, params)


class TestCanonicalForm:
    def test_additive_inverse_is_empty(self):
        x = ExpPoly.coord(3, 0)
        assert (x + (-x)).is_zero()

    def test_like_terms_merge(self):
        assert S("exp(x)*y + exp(x)*y") == S("2*y*exp(x)")

    def test_parameter_cancellation(self):
        f = S("z^2/2 + l", params=("l",)) + S("z^2/2 - l", params=("l",))
        assert f == S("z^2")

    def test_zero_iff_empty(self):
        assert ExpPoly.zero(3).is_zero()
        assert not ExpPoly.coord(3, 1).is_zero()

    def test_double_normalization_is_identity(self):
        rng = random.Random(5)
        for _ in range(50):
            f = rand_exppoly(rng, with_params=True)
            assert f + ExpPoly.zero(3) == f

    def test_equal_values_built_differently_are_equal_and_hash_equal(self):
        # equality is structural on the stored numerators and
        # denominator, so each route must end in the same canonical data
        x, a = ExpPoly.coord(3, 0), ExpPoly.param(3, "a")
        half, third, sixth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
        pairs = [
            ((x * half) * 2, x),
            ((x * ExpPoly.const(3, half)) * ExpPoly.const(3, 2), x),
            ((a * x * third) * 3, a * x),
            ((a * x * ExpPoly.const(3, third)) * ExpPoly.const(3, 3), a * x),
            (x * sixth + x * third, x * half),
            ((x * x * half).diff(0), x),
            (S("x/6 + x/3"), S("x/2")),
        ]
        for left, right in pairs:
            assert left == right
            assert hash(left) == hash(right)


class TestMul:
    def test_exponent_cancellation(self):
        assert S("exp(x)") * S("exp(-x)") == S("1")

    def test_half_exponent_addition(self):
        e = S("exp((-x+y)/2)")
        assert e * e == S("exp(-x + y)")

    def test_monomials(self):
        assert S("y") * S("y/2") == S("y^2/2")

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ExpPoly.coord(2, 0) * ExpPoly.coord(3, 0)


class TestDerive:
    def test_product_rule_with_exponential(self):
        assert S("exp(2*x)*y").diff(0) == S("2*exp(2*x)*y")

    def test_polynomial(self):
        assert S("z^2/2 + l", params=("l",)).diff(2) == S("z")

    def test_half_exponent(self):
        f = S("exp((-x+y)/2)*z")
        assert f.diff(1) == S("1/2*exp((-x+y)/2)*z")

    def test_mixed_partials_commute(self):
        rng = random.Random(17)
        for _ in range(50):
            f = rand_exppoly(rng, with_params=True)
            for i in range(3):
                for j in range(i, 3):
                    assert f.diff(i).diff(j) == f.diff(j).diff(i)


class TestSubstParams:
    def test_constraint_vanishes(self):
        f = S("a^2 + 2*b", params=("a", "b"))
        assert f.subst_params({"a": 2, "b": -2}).is_zero()

    def test_scaling_to_zero(self):
        f = S("lambda*y", params=("lambda",))
        assert f.subst_params({"lambda": 0}).is_zero()

    def test_binomial(self):
        f = S("(z + l)^2", params=("l",))
        assert f.subst_params({"l": 1}) == S("z^2 + 2*z + 1")

    def test_unassigned(self):
        with pytest.raises(UnassignedParameter):
            S("a*y", params=("a",)).subst_params({})


small = st.integers(min_value=-3, max_value=3)


@st.composite
def exppolys(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    return rand_exppoly(rng, with_params=True)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(exppolys(), exppolys(), exppolys())
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=200, deadline=None, derandomize=True)
@given(exppolys(), exppolys(), st.integers(min_value=0, max_value=2))
def test_leibniz(f, g, i):
    assert (f * g).diff(i) == f.diff(i) * g + f * g.diff(i)


class TestAffineSubst:
    def test_shift_kills_constant(self):
        # z -> z + 1/2 applied to  -((z - 1/2)^2 + d - 1/4)
        f = S("-((z - 1/2)^2 + d - 1/4)", params=("d",))
        m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        g = f.subst_affine(m, [0, 0, Fraction(1, 2)])
        assert g == S("-(z^2 + d - 1/4)", params=("d",))

    def test_exponential_shift_rejected(self):
        f = S("exp(x)")
        m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        with pytest.raises(LvfError):
            f.subst_affine(m, [1, 0, 0])

    def test_linear_exponent_transform(self):
        f = S("exp(x)")
        m = [[2, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert f.subst_affine(m, [0, 0, 0]) == S("exp(2*x)")


def test_format_examples():
    assert format_scalar(S("2*y + y")) == "3*y"
    assert format_scalar(ExpPoly.zero(3)) == "0"
    # canonical term order sorts by (exponent, monomial)
    assert format_scalar(S("-x + y")) == "y - x"


def test_as_fraction_refuses_exponent_notation():
    # '1e1000000000' would ask Fraction for a billion-digit integer
    for text in ("2E3", "-1.5e-3", " 1e2 ", "1e1000000000"):
        with pytest.raises(LvfError, match="exponent notation"):
            as_fraction(text)
    assert as_fraction("-3/4") == Fraction(-3, 4)
    assert as_fraction("0.25") == Fraction(1, 4)
    assert as_fraction(" 7 ") == 7


# the interpreter's limit on digits converted to an integer (Python 3.11+)
INT_DIGITS = getattr(sys, "get_int_max_str_digits", int)()


@pytest.mark.skipif(not INT_DIGITS, reason="the interpreter converts integers of any length")
def test_as_fraction_refuses_literal_over_the_digit_limit():
    text = "0." + "5" * 5000
    with pytest.raises(LvfError) as info:
        as_fraction(text)
    assert str(info.value) == f"literal has 5001 digits; at most {INT_DIGITS} are accepted"
    assert as_fraction("0." + "5" * (INT_DIGITS - 1)) == Fraction(
        int("5" * (INT_DIGITS - 1)), 10 ** (INT_DIGITS - 1)
    )
