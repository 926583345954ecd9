"""Backend parity of the term-map kernels and elimination properties.

The elimination itself is checked against a reference implementation
in ``test_differential.py``.
"""

import copy
import random
from fractions import Fraction

import pytest

from lvf import _kernels, _kernels_py
from lvf._linalg import det, nullspace, rank, solve_affine

try:
    from lvf import _kernels_c
except ImportError:
    _kernels_c = None

needs_compiled = pytest.mark.skipif(
    _kernels_c is None, reason="compiled kernels not built"
)


def rand_pp(rng):
    out = {}
    for _ in range(rng.randint(0, 3)):
        names = sorted(rng.sample(("a", "b", "c"), rng.randint(0, 2)))
        key = tuple((n, rng.randint(1, 2)) for n in names)
        out[key] = Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 4))
    return out


def rand_ep(rng, dim=2):
    from lvf.expr import encode_exponents

    out = {}
    for _ in range(rng.randint(0, 3)):
        exp = encode_exponents(
            Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(dim)
        )
        mono = tuple(rng.randint(0, 2) for _ in range(dim))
        pp = rand_pp(rng)
        if pp:
            out[(exp, mono)] = pp
    return out


def rand_rows(rng, ncols):
    return [
        {rng.randrange(ncols): Fraction(rng.randint(-4, 4) or 1, rng.choice((1, 2)))
         for _ in range(rng.randint(1, ncols))}
        for _ in range(rng.randint(1, 2 * ncols))
    ]


@needs_compiled
def test_backend_parity():
    rng = random.Random(97)
    for _ in range(300):
        a, b = rand_pp(rng), rand_pp(rng)
        assert _kernels_c.pp_add(a, b) == _kernels_py.pp_add(a, b)
        assert _kernels_c.pp_mul(a, b) == _kernels_py.pp_mul(a, b)
        assert _kernels_c.pp_scale(a, Fraction(3, 7)) == _kernels_py.pp_scale(
            a, Fraction(3, 7)
        )
        f, g = rand_ep(rng), rand_ep(rng)
        assert _kernels_c.ep_add(f, g) == _kernels_py.ep_add(f, g)
        assert _kernels_c.ep_mul(f, g) == _kernels_py.ep_mul(f, g)
        assert _kernels_c.ep_scale(f, Fraction(-2)) == _kernels_py.ep_scale(
            f, Fraction(-2)
        )
        for i in range(2):
            assert _kernels_c.ep_diff(f, i) == _kernels_py.ep_diff(f, i)


def test_rref_no_zero_coefficients_stored():
    rng = random.Random(103)
    for _ in range(100):
        ncols = rng.randint(1, 5)
        pivots, rows = _kernels.rref(rand_rows(rng, ncols), ncols)
        assert pivots == sorted(pivots)
        for p, row in zip(pivots, rows):
            assert row[p] == 1
            assert all(v != 0 for v in row.values())
            # fully reduced: pivot columns are cleared from other rows
            for q, other in zip(pivots, rows):
                if q != p:
                    assert p not in other


def test_rref_input_not_mutated():
    rows = [{0: Fraction(2), 1: Fraction(4)}, {0: Fraction(1)}]
    copy_rows = copy.deepcopy(rows)
    _kernels.rref(rows, 2)
    assert rows == copy_rows


def test_nullspace_solves():
    rng = random.Random(107)
    for _ in range(100):
        ncols = rng.randint(1, 5)
        rows = rand_rows(rng, ncols)
        for vec in nullspace(rows, ncols):
            for row in rows:
                total = sum(
                    (c * vec.get(j, Fraction(0)) for j, c in row.items()),
                    Fraction(0),
                )
                assert total == 0
        assert rank(rows, ncols) + len(nullspace(rows, ncols)) == ncols


def test_solve_affine_consistent():
    rows = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1)}]
    particular, hom, mrank, witness = solve_affine(rows, [Fraction(3), Fraction(1)], 2)
    assert witness is None
    assert particular == {0: Fraction(2), 1: Fraction(1)}
    assert hom == [] and mrank == 2


def test_solve_affine_witness():
    rows = [{0: Fraction(1)}, {0: Fraction(2)}]
    particular, hom, mrank, witness = solve_affine(rows, [Fraction(1), Fraction(3)], 1)
    assert particular is None and witness == 1


def test_det():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert det(m) == 1
    assert det([[Fraction(0)]]) == 0


def test_selector_exposes_backend():
    assert _kernels.BACKEND in ("c", "py")
