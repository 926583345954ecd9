"""Properties of the exact elimination kernels and of the key-sum table
of term products.

The elimination itself, and the inverse, determinant and span tracker
built on it, are checked against reference implementations in
``test_differential.py``, and so is ``mul_into`` with its table cold,
warm and at its bound.  Here the table is checked to stay within its
bound, and brackets computed from four threads at once, on one shared
table that is cleared often, to equal the serial ones.
"""

import copy
import itertools
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import lvf
from lvf import _kernels, catalog
from lvf._linalg import det, nullspace, rank, solve_affine
from lvf.algebra import close_under_bracket

from _rand import cold_copy, key_sum_table


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


def reference_pins(rows, rhs):
    """The coordinates the singleton rule forces to 0, one round over
    every row at a time until a round pins nothing new."""
    pinned = set()
    while True:
        fresh = set()
        for row, b in zip(rows, rhs):
            left = [c for c in row if c not in pinned]
            if len(left) == 1 and not b:
                fresh.update(left)
        if not fresh:
            return pinned
        pinned |= fresh


def test_pin_singletons_cascade():
    # row 0 pins 0; then row 1 pins 2 and row 2 pins 3; row 3 keeps its
    # nonzero right-hand side on an empty row; row 4 is left over
    rows = [{0: 5}, {0: 1, 2: -1}, {2: 3, 3: 1}, {3: 2}, {1: 1, 4: 2}]
    kept, left, rhs = _kernels.pin_singletons(rows, 5, [0, 0, 0, 7, 1])
    assert kept == [1, 4]
    assert left == [{}, {0: 1, 1: 2}] and rhs == [7, 1]
    # homogeneous: row 3 pins 3 as well, and the rows keep their order
    kept, left, rhs = _kernels.pin_singletons(rows, 6)
    assert kept == [1, 4, 5] and left == [{0: 1, 1: 2}] and rhs is None
    # without a pin the input comes back as it is, unless a row is empty
    rows = [{0: 1, 1: 1}, {}]
    kept, left, rhs = _kernels.pin_singletons(rows, 3, [0, 2])
    assert (kept, rhs) == ([0, 1, 2], [0, 2]) and left is rows
    assert _kernels.pin_singletons(rows, 3) == ([0, 1, 2], [{0: 1, 1: 1}], None)


def test_pin_singletons_pins_exactly_the_forced_coordinates():
    rng = random.Random(2028)
    for _ in range(300):
        ncols = rng.randint(1, 7)
        rows = []
        for _ in range(rng.randint(0, 9)):
            cols = rng.sample(range(ncols), rng.randint(0, min(3, ncols)))
            rows.append({c: rng.choice((-3, -1, 1, 2)) for c in cols})
        rhs = [rng.choice((0, 0, 0, 1, -2)) for _ in rows]
        kept, left, left_rhs = _kernels.pin_singletons(rows, ncols, rhs)
        pinned = set(range(ncols)) - set(kept)
        assert pinned == reference_pins(rows, rhs)
        assert kept == sorted(kept)
        # the rows left over, in input order, over the kept positions
        expect = []
        for row, b in zip(rows, rhs):
            rest = {kept.index(c): v for c, v in row.items() if c in kept}
            if rest or b:
                expect.append((rest, b))
        assert list(zip(left, left_rhs)) == expect
        # each pinned coordinate is a unit row of the reduced form of the
        # rows with a zero right-hand side, so it is 0 in every solution,
        # and the rest of that form is the form of the rows left over
        zero_rhs = [row for row, b in zip(rows, rhs) if not b]
        pivots, rrows = _kernels.rref(zero_rhs, ncols)
        unit = {p for p, row in zip(pivots, rrows) if row == {p: 1}}
        assert pinned <= unit
        kept_zero = [row for row, b in zip(left, left_rhs) if not b]
        sub_pivots, sub_rows = _kernels.rref(kept_zero, len(kept))
        rest = [(p, row) for p, row in zip(pivots, rrows) if p not in pinned]
        assert rest == [
            (kept[p], {kept[c]: v for c, v in row.items()}) for p, row in zip(sub_pivots, sub_rows)
        ]


def test_det():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert det(m) == 1
    assert det([[Fraction(0)]]) == 0


def test_selector_exposes_backend():
    assert lvf.kernel_backend == "py"


def b2_closure_pairs():
    """Every pair of basis fields of b2.1's bracket closure, cold copies."""
    gens = catalog.get("b2.1").generators_at({}).values()
    basis = [cold_copy(x) for x in close_under_bracket(list(gens))]
    return list(itertools.combinations(basis, 2))


def test_key_sum_table_never_exceeds_its_bound(monkeypatch):
    """The table's size is read before every new key is computed (each
    miss calls ``exp_add``) and after every product, when no row of it
    is empty."""
    bound = 7
    sizes = []

    def table_size():
        n = sum(map(len, _kernels._key_sums.values()))
        assert n == _kernels._key_sum_count
        return n

    exp_add = _kernels.exp_add

    def watched_exp_add(e1, e2):
        sizes.append(table_size())
        return exp_add(e1, e2)

    mul_into = _kernels.mul_into

    def watched_mul_into(acc, f, g, scale=1):
        out = mul_into(acc, f, g, scale)
        sizes.append(table_size())
        assert all(_kernels._key_sums.values())
        return out

    monkeypatch.setattr(_kernels, "exp_add", watched_exp_add)
    monkeypatch.setattr(_kernels, "mul_into", watched_mul_into)
    with key_sum_table(bound):
        for x, y in b2_closure_pairs():
            x.bracket(y)
    assert max(sizes) == bound
    # filled and cleared many times over
    assert sum(1 for a, b in zip(sizes, sizes[1:]) if b < a) > 10


def test_brackets_from_threads_match_serial():
    pairs = b2_closure_pairs()
    with key_sum_table():
        serial = [x.bracket(y) for x, y in b2_closure_pairs()]
    # a small bound clears the shared table while other threads read it
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with key_sum_table(16), ThreadPoolExecutor(max_workers=4) as pool:
            runs = [pool.submit(lambda: [x.bracket(y) for x, y in pairs]) for _ in range(4)]
            results = [run.result(timeout=120) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert got == serial
        assert all(
            list(a.components[i]._num) == list(b.components[i]._num)
            for a, b in zip(got, serial)
            for i in range(a.dim)
        )
