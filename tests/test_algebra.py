"""Spans, bracket closures, structure tensors, Killing forms."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from lvf import _kernels, algebra, catalog
from lvf.algebra import (
    StructureTensor,
    close_under_bracket,
    express_in_basis,
    span_basis,
    structure_tensor,
)
from lvf.errors import (
    DependentBasis,
    LvfError,
    NotFiniteDimensionalWithinBound,
    NotInSpan,
    ParameterizedInput,
)
from lvf.fields import VectorField, bracket
from lvf.parsing import parse_field

from _rand import cold_copy, rand_fraction


def F(text):
    return parse_field(text)


class TestSpan:
    def test_duplicates_drop(self):
        basis = span_basis([F("Dx"), F("2*Dx"), F("Dy")])
        assert basis == [F("Dx"), F("Dy")]

    def test_zero_field(self):
        assert span_basis([VectorField.zero(3)]) == []

    def test_heisenberg_generators_independent(self):
        basis = span_basis([F("Dx"), F("Dy"), F("y*Dx + Dz")])
        assert len(basis) == 3

    def test_parameterized_rejected(self):
        with pytest.raises(ParameterizedInput):
            span_basis([parse_field("lambda*Dx", params=("lambda",))])


class TestExpress:
    def test_simple(self):
        assert express_in_basis(F("Dx"), [F("Dx"), F("Dy")]) == [1, 0]

    def test_bracket_image(self):
        basis = [F("Dx"), F("Dy"), F("y*Dx + Dz")]
        w = bracket(F("Dy"), F("y*Dx + Dz"))
        assert express_in_basis(w, basis) == [1, 0, 0]

    def test_not_in_span(self):
        with pytest.raises(NotInSpan):
            express_in_basis(F("z*Dz"), [F("Dx"), F("Dy")])

    @pytest.mark.parametrize("basis", [
        ["Dx", "2*Dx"],
        ["Dx", "Dy", "Dx - 3*Dy"],
        ["Dx", "0"],
    ])
    def test_dependent_basis(self, basis):
        with pytest.raises(DependentBasis):
            express_in_basis(F("Dx"), [F(b) for b in basis])


class TestClosure:
    def test_abelian(self):
        basis = close_under_bracket([F("Dx"), F("Dy")])
        assert len(basis) == 2

    def test_sl2_span_contains_dx(self):
        basis = close_under_bracket([F("exp(x)*Dx"), F("exp(-x)*Dx")])
        assert len(basis) == 3
        express_in_basis(F("Dx"), basis)  # must not raise

    def test_a2_closure_dimension(self):
        gens = [
            F("Dy"),
            F("y*Dx"),
            F("-x*y*Dx - y^2*Dy"),
            F("x*Dy"),
        ]
        assert len(close_under_bracket(gens)) == 8

    def test_bound_enforced(self, monkeypatch):
        monkeypatch.setattr(algebra, "CLOSURE_BOUND", 5)
        with pytest.raises(NotFiniteDimensionalWithinBound):
            close_under_bracket([F("Dy"), F("y*Dx"), F("-x*y*Dx - y^2*Dy"), F("x*Dy")])

    def test_idempotent(self):
        gens = [F("exp(x)*Dy"), F("exp(-x)*(y*Dx + y^2/2*Dy + Dz)")]
        first = close_under_bracket(gens)
        second = close_under_bracket(first)
        assert len(first) == len(second) == 3
        for b in second:
            express_in_basis(b, first)


def test_closure_brackets_each_pair_once(monkeypatch):
    entry = catalog.get("b2.1")
    gens = list(entry.generators_at({}).values())
    brackets = []
    bracket = VectorField.bracket

    def counting_bracket(self, other):
        brackets.append(1)
        return bracket(self, other)

    monkeypatch.setattr(VectorField, "bracket", counting_bracket)
    m = len(close_under_bracket(gens))
    assert m == 10
    assert len(brackets) == m * (m - 1) // 2 == 45


def test_closure_differentiates_each_scalar_once(monkeypatch):
    """Each basis field of a b2 closure meets nine partners, and each
    scalar keeps its partials (``ExpPoly.integer_partial``), so
    ``_kernels.diff`` runs at most once per scalar and coordinate.  The
    generators are copied first, so no earlier test has filled them."""
    entry = catalog.get("b2.1")
    gens = [cold_copy(g) for g in entry.generators_at({}).values()]
    calls = []  # keeps every differentiated map alive, so ids stay distinct
    diff = _kernels.diff

    def counting_diff(num, j, e):
        calls.append((num, j))
        return diff(num, j, e)

    monkeypatch.setattr(_kernels, "diff", counting_diff)
    assert len(close_under_bracket(gens)) == 10
    per_scalar = Counter((id(num), j) for num, j in calls)
    assert calls and max(per_scalar.values()) == 1


class TestStructureTensor:
    def test_heisenberg(self):
        basis = [F("Dx"), F("Dy"), F("y*Dx + Dz")]  # (Z, X, Y)
        t = structure_tensor(basis)
        assert t.c(1, 2) == (Fraction(1), Fraction(0), Fraction(0))
        assert t.c(0, 1) == (0, 0, 0)
        assert t.c(0, 2) == (0, 0, 0)
        assert not t.is_semisimple()

    def test_abelian_zeros(self):
        t = structure_tensor([F("Dx"), F("Dy")])
        assert not t.constants
        assert t.killing_form() == [[0, 0], [0, 0]]

    def test_sl2_constants(self):
        basis = [F("Dx"), F("exp(x)*Dx"), F("exp(-x)*Dx")]  # (H, E, F)
        t = structure_tensor(basis)
        assert t.c(0, 1) == (0, 1, 0)
        assert t.c(0, 2) == (0, 0, -1)
        assert t.c(1, 2) == (-2, 0, 0)
        assert t.is_semisimple()

    def test_antisymmetry(self):
        basis = [F("Dx"), F("exp(x)*Dx"), F("exp(-x)*Dx")]
        t = structure_tensor(basis)
        for i in range(3):
            for j in range(3):
                assert t.c(i, j) == tuple(-v for v in t.c(j, i))

    @pytest.mark.parametrize("basis", [
        ["Dx", "2*Dx"],  # abelian: no bracket is ever expressed
        ["Dx", "exp(x)*Dx", "exp(-x)*Dx", "exp(x)*Dx - Dx"],
    ])
    def test_dependent_basis(self, basis):
        with pytest.raises(DependentBasis):
            structure_tensor([F(b) for b in basis])

    def test_bracket_outside_span(self):
        # [Dx, x^2*Dx] = 2*x*Dx
        with pytest.raises(NotInSpan):
            structure_tensor([F("Dx"), F("x^2*Dx")])

    def test_jacobi_rejects_bad_tensor(self):
        # [b0,b1]=b1, [b0,b2]=b2, [b1,b2]=b0 violates Jacobi by -2*b0
        with pytest.raises(Exception):
            StructureTensor(
                3,
                {
                    (0, 1): {1: Fraction(1)},
                    (0, 2): {2: Fraction(1)},
                    (1, 2): {0: Fraction(1)},
                },
            )

    def test_constants_refuse_floats(self):
        # 0.1 would be stored as 3602879701896397/36028797018963968
        with pytest.raises(TypeError, match="not an exact rational"):
            StructureTensor(2, {(0, 1): {0: 0.1}})

    def test_constants_read_exact_rationals(self):
        # [b0, b1] = 1/2*b0 - 3/4*b1, from a literal and a Fraction
        t = StructureTensor(2, {(0, 1): {0: "1/2", 1: Fraction(-3, 4)}})
        assert t.c(0, 1) == (Fraction(1, 2), Fraction(-3, 4))
        assert t.c(1, 0) == (Fraction(-1, 2), Fraction(3, 4))
        assert t.constants == {(0, 1): (Fraction(1, 2), Fraction(-3, 4))}

    @pytest.mark.parametrize("constants", [
        {(1, 0): {0: 1}},  # pairs are given with i < j
        {(0, 1): {2: 1}},  # coordinate index past the dimension
    ])
    def test_constants_out_of_range(self, constants):
        with pytest.raises(LvfError):
            StructureTensor(2, constants)


class TestKilling:
    def test_standard_sl2(self):
        t = StructureTensor(
            3,
            {
                (0, 1): {1: Fraction(2)},
                (0, 2): {2: Fraction(-2)},
                (1, 2): {0: Fraction(1)},
            },
        )
        K = t.killing_form()
        assert K[0][0] == 8
        assert K[1][2] == 4
        assert t.is_semisimple()

    def test_symmetry_and_ad_invariance(self):
        rng = random.Random(31)
        t = structure_tensor(
            [F("Dx"), F("exp(x)*Dx"), F("exp(-x)*Dx")]
        )
        K = t.killing_form()
        m = t.dim
        for i in range(m):
            for j in range(m):
                assert K[i][j] == K[j][i]

        def kform(u, v):
            return sum(
                K[i][j] * u[i] * v[j] for i in range(m) for j in range(m)
            )

        for _ in range(100):
            u = [rand_fraction(rng) for _ in range(m)]
            v = [rand_fraction(rng) for _ in range(m)]
            w = [rand_fraction(rng) for _ in range(m)]
            uv = t.bracket_vectors(u, v)
            uw = t.bracket_vectors(u, w)
            assert kform(uv, w) + kform(v, uw) == 0
