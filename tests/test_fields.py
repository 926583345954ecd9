"""Vector fields: bracket identities, rank, affine pullback."""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lvf.errors import DimensionMismatch, SingularMap
from lvf.fields import AffineMap, VectorField, affine_pullback, bracket, generic_rank
from lvf.parsing import parse_field, parse_scalar

from _rand import PARAM_NAMES, rand_affine, rand_exppoly, rand_field, rand_invertible


def F(text, params=()):
    return parse_field(text, 3, params)


class TestApply:
    def test_coordinate(self):
        assert F("Dy").apply(parse_scalar("y")) == parse_scalar("1")

    def test_exponential(self):
        assert F("exp(x)*Dy").apply(parse_scalar("exp(-x)*y")) == parse_scalar("1")

    def test_linear(self):
        assert F("y*Dx + Dz").apply(parse_scalar("x")) == parse_scalar("y")


class TestBracket:
    def test_heisenberg_relation(self):
        assert bracket(F("Dy"), F("y*Dx + Dz")) == F("Dx")

    def test_self_bracket_vanishes(self):
        rng = random.Random(1)
        for _ in range(30):
            x = rand_field(rng)
            assert bracket(x, x).is_zero()

    def test_long_root_pair(self):
        a = F("exp(x)*(Dx + Dy + z*Dz)")
        b = F("exp(-x)*(-Dx + Dy + z*Dz)")
        assert bracket(a, b) == F("2*Dx")

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            bracket(parse_field("Dx", dim=2), parse_field("Dx", dim=3))


class TestGenericRank:
    def test_rank_three(self):
        assert generic_rank([F("Dx"), F("Dy"), F("y*Dx + Dz")]) == 3

    def test_rank_two_with_parameter(self):
        fields = [F("Dx"), F("Dy"), F("y*Dx + lambda*Dy", params=("lambda",))]
        assert generic_rank(fields) == 2

    def test_zero_field(self):
        assert generic_rank([VectorField.zero(3)]) == 0

    def test_zero_iff_rank_zero(self):
        rng = random.Random(2)
        for _ in range(40):
            x = rand_field(rng)
            assert (generic_rank([x]) == 0) == x.is_zero()

    def test_invariance_under_recombination(self):
        rng = random.Random(3)
        fields = [F("Dx"), F("y*Dx + Dz"), F("exp(x)*Dy")]
        r = generic_rank(fields)
        for _ in range(20):
            m = rand_invertible(rng, 3)
            mixed = [
                VectorField(
                    [
                        sum(
                            (fields[k].components[i] * m[j][k] for k in range(3)),
                            parse_scalar("0"),
                        )
                        for i in range(3)
                    ]
                )
                for j in range(3)
            ]
            assert generic_rank(mixed) == r


class TestAffinePullback:
    def test_identity(self):
        x = F("y*Dx + exp(z)*Dz")
        assert affine_pullback(x, AffineMap.identity(3)) == x

    def test_chain_rule_scaling(self):
        t = AffineMap([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert affine_pullback(F("Dx"), t) == F("2*Dx")

    def test_shift_absorbs_constant(self):
        # z -> z - 1/2 turns -((z-1/2)^2 + d - 1/4) Dz into -(z^2 + k) Dz
        x = F("-((z - 1/2)^2 + d - 1/4)*Dz", params=("d",))
        t = AffineMap([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, Fraction(-1, 2)])
        assert affine_pullback(x, t) == F("-(z^2 + d - 1/4)*Dz", params=("d",))

    def test_singular_rejected(self):
        with pytest.raises(SingularMap):
            AffineMap([[1, 0, 0], [2, 0, 0], [0, 0, 1]])

    def test_bracket_naturality(self):
        rng = random.Random(7)
        for _ in range(60):
            with_exp = rng.random() < 0.5
            x = rand_field(rng, with_exp=with_exp)
            y = rand_field(rng, with_exp=with_exp)
            t = rand_affine(rng, 3, allow_shift=not with_exp)
            lhs = affine_pullback(bracket(x, y), t)
            rhs = bracket(affine_pullback(x, t), affine_pullback(y, t))
            assert lhs == rhs

    def test_rank_invariance(self):
        rng = random.Random(9)
        for _ in range(20):
            fields = [rand_field(rng, with_exp=False) for _ in range(3)]
            t = rand_affine(rng, 3, allow_shift=True)
            moved = [affine_pullback(f, t) for f in fields]
            assert generic_rank(moved) == generic_rank(fields)


def test_jacobi_random():
    rng = random.Random(13)
    for _ in range(60):
        x, y, z = (rand_field(rng, max_terms=1) for _ in range(3))
        total = (
            bracket(x, bracket(y, z))
            + bracket(y, bracket(z, x))
            + bracket(z, bracket(x, y))
        )
        assert total.is_zero()


def test_bilinearity_random():
    rng = random.Random(15)
    for _ in range(50):
        x, y, z = (rand_field(rng) for _ in range(3))
        c = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        assert bracket(x + y * c, z) == bracket(x, z) + bracket(y, z) * c
        assert bracket(z, x) == -(bracket(x, z))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_operations_leave_operands_unchanged(seed):
    """Sums and shortcuts share storage with their operands instead of
    copying it (``x + 0`` is ``x``), so no operation may write to an
    operand's stored numerators or denominator; sums are operands here
    too.  The stored data are compared, not the ``term_map()`` view,
    which is built anew on every call."""
    rng = random.Random(seed)
    f, g = (rand_exppoly(rng, with_params=True) for _ in range(2))
    x, y = (rand_field(rng, with_params=True) for _ in range(2))
    scalars = [f, g, f + g, f - g, f * g]
    fields = [x, y, x + y, x * f]
    assignment = {name: Fraction(k + 2, 3) for k, name in enumerate(PARAM_NAMES)}
    calls = [(lambda a=a, b=b: a + b) for a in scalars for b in scalars]
    calls += [(lambda a=a, b=b: a - b) for a in scalars for b in scalars]
    calls += [(lambda a=a, b=b: a * b) for a in scalars for b in scalars]
    calls += [(lambda a=a, i=i: a.diff(i)) for a in scalars for i in range(3)]
    calls += [(lambda a=a: a.subst_params(assignment)) for a in scalars]
    calls += [(lambda a=a, b=b: a.bracket(b)) for a in fields for b in fields]
    calls += [(lambda a=a, b=b: a.apply(b)) for a in fields for b in scalars]
    values = scalars + [c for v in fields for c in v.components]

    def stored():
        return [(s._num, s._den) for s in values]

    before = copy.deepcopy(stored())
    for call in calls:
        call()
        assert stored() == before
