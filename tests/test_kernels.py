"""Properties of the exact elimination kernels.

The elimination itself, and the inverse, determinant and span tracker
built on it, are checked against reference implementations in
``test_differential.py``.
"""

import copy
import math
import random
from fractions import Fraction

import lvf
from lvf import _kernels
from lvf._linalg import det, nullspace, rank, solve_affine


def rand_rows(rng, ncols):
    return [
        {rng.randrange(ncols): Fraction(rng.randint(-4, 4) or 1, rng.choice((1, 2)))
         for _ in range(rng.randint(1, ncols))}
        for _ in range(rng.randint(1, 2 * ncols))
    ]


def test_rref_no_zero_coefficients_stored():
    rng = random.Random(103)
    for _ in range(100):
        ncols = rng.randint(1, 5)
        pivots, rows = _kernels.rref(rand_rows(rng, ncols), ncols)
        assert pivots == sorted(pivots)
        for p, row in zip(pivots, rows):
            # a primitive integer row with a positive lead
            assert row[p] > 0 and math.gcd(*row.values()) == 1
            assert all(type(v) is int and v != 0 for v in row.values())
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
    point, hom, mrank, witness = solve_affine(rows, [Fraction(3), Fraction(1)], 2)
    assert witness is None
    # (2, 1) in integers, with its scale at the rhs column
    assert point == {2: 1, 0: 2, 1: 1}
    assert hom == [] and mrank == 2


def test_solve_affine_witness():
    rows = [{0: Fraction(1)}, {0: Fraction(2)}]
    point, hom, mrank, witness = solve_affine(rows, [Fraction(1), Fraction(3)], 1)
    assert point is None and witness == 1


def test_det():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert det(m) == 1
    assert det([[Fraction(0)]]) == 0


def test_selector_exposes_backend():
    assert lvf.kernel_backend == "py"
