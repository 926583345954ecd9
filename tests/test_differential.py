"""Differential tests: the row-insert elimination and the raw-key
constraint build against reference implementations kept here.

The references are the earlier column-scan ``rref``, the binary-search
``solve_affine``, the ``ExpPoly`` build loop of ``solve.solve`` and the
dense ``fields._invert``.  The reduced row echelon form is unique, so
the fast paths must agree with them exactly, including the order of the
constraint rows (the inconsistency message depends on it).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lvf import _kernels
from lvf._linalg import nullspace, nullspace_from_rref, rank, solve_affine
from lvf.errors import AnsatzExplosion, SingularMap
from lvf.expr import ExpPoly
from lvf.fields import _invert
from lvf.solve import (
    DEFAULT_TARGET_BOUND,
    AnsatzSpace,
    BracketConstraint,
    _build_system,
    _field_keys,
)

from _rand import rand_field

_ZERO = Fraction(0)


# -- reference implementations ------------------------------------------------


def reference_rref(rows, ncols):
    """Column-scan Gauss-Jordan: the first row (in input order) with a
    nonzero entry in the current column is the pivot."""
    active = [dict(r) for r in rows if r]
    done = []
    pivots = []
    for col in range(ncols):
        pivot_row = None
        for idx, r in enumerate(active):
            if col in r:
                pivot_row = active.pop(idx)
                break
        if pivot_row is None:
            continue
        inv = 1 / pivot_row[col]
        if inv != 1:
            pivot_row = {c: v * inv for c, v in pivot_row.items()}
        remaining = []
        for r in active:
            fac = r.get(col)
            if fac is not None:
                for c, v in pivot_row.items():
                    s = r.get(c, _ZERO) - fac * v
                    if s:
                        r[c] = s
                    elif c in r:
                        del r[c]
            if r:
                remaining.append(r)
        active = remaining
        for r in done:
            fac = r.get(col)
            if fac is not None:
                for c, v in pivot_row.items():
                    s = r.get(c, _ZERO) - fac * v
                    if s:
                        r[c] = s
                    elif c in r:
                        del r[c]
        done.append(pivot_row)
        pivots.append(col)
        if not active:
            break
    return pivots, done


def reference_nullspace(rows, ncols):
    return nullspace_from_rref(*reference_rref(rows, ncols), ncols)


def reference_solve_affine(rows, rhs, ncols):
    """Full rref of the augmented rows, a second one for the nullspace,
    and a binary search over row prefixes for the witness."""
    def augmented(sub_rows, sub_rhs):
        aug = []
        for r, b in zip(sub_rows, sub_rhs):
            row = dict(r)
            if b:
                row[ncols] = b
            aug.append(row)
        return aug

    pivots, rrows = reference_rref(augmented(rows, rhs), ncols + 1)
    if ncols in pivots:
        lo, hi = 1, len(rows)
        while lo < hi:
            mid = (lo + hi) // 2
            p, _ = reference_rref(augmented(rows[:mid], rhs[:mid]), ncols + 1)
            if ncols in p:
                hi = mid
            else:
                lo = mid + 1
        return None, [], len(reference_rref(rows, ncols)[0]), lo - 1
    particular = {}
    for p, row in zip(pivots, rrows):
        b = row.get(ncols)
        if b:
            particular[p] = b
    hom = reference_nullspace(rows, ncols)
    return particular, hom, len(pivots), None


def reference_invert(rows):
    """Exact inverse of a rational matrix; raises SingularMap."""
    n = len(rows)
    aug = [
        list(rows[i]) + [Fraction(1 if j == i else 0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if aug[r][col]:
                piv = r
                break
        if piv is None:
            raise SingularMap("linear part of the affine map is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                fac = aug[r][col]
                aug[r] = [a - fac * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def reference_build(constraints, ansatz, target_bound=DEFAULT_TARGET_BOUND):
    """The ``ExpPoly`` build loop: (targets, rows, rhs)."""
    keys = ansatz.basis_keys()
    col_index = {key: m for m, key in enumerate(keys)}
    dim = ansatz.dim
    target_index = {}
    rows_map = {}

    def index_of(ci, fkey):
        full = (ci, *fkey)
        idx = target_index.get(full)
        if idx is None:
            idx = len(target_index)
            target_index[full] = idx
            if idx >= target_bound:
                raise AnsatzExplosion(idx + 1, target_bound)
            rows_map[idx] = {}
        return idx

    def add_entries(ci, col, image, target_comp):
        for (exp, mono), pp in image.term_map().items():
            row = rows_map[index_of(ci, (target_comp, exp, mono))]
            value = row.get(col, Fraction(0)) + pp[()]
            if value:
                row[col] = value
            elif col in row:
                del row[col]

    term_keys = sorted({(exp, mono) for _, exp, mono in keys})
    for ci, cons in enumerate(constraints):
        kc = cons.known.components
        dk = [[kc[j].diff(c) for c in range(dim)] for j in range(dim)]
        for exp, mono in term_keys:
            f = ExpPoly(dim, {(exp, mono): {(): Fraction(1)}})
            fd = [f.diff(j) for j in range(dim)]
            kf = ExpPoly.zero(dim)
            for j in range(dim):
                if not kc[j].is_zero() and not fd[j].is_zero():
                    kf = kf + kc[j] * fd[j]
            for c in ansatz.components:
                col = col_index[(c, exp, mono)]
                diag = kf
                if cons.kind == "eigen" and cons.eigenvalue:
                    diag = diag - f * cons.eigenvalue
                if not diag.is_zero():
                    add_entries(ci, col, diag, c)
                for j in range(dim):
                    if not dk[j][c].is_zero():
                        add_entries(ci, col, -(f * dk[j][c]), j)

    rhs_entries = {}
    has_equals = any(c.kind == "equals" for c in constraints)
    if has_equals:
        for ci, cons in enumerate(constraints):
            if cons.kind != "equals":
                continue
            for fkey, value in _field_keys(cons.target):
                idx = index_of(ci, fkey)
                rhs_entries[idx] = rhs_entries.get(idx, Fraction(0)) + value

    nrows = len(target_index)
    rows = [rows_map[i] for i in range(nrows)]
    rhs = [rhs_entries.get(i, Fraction(0)) for i in range(nrows)] if has_equals else None
    return sorted(target_index, key=target_index.get), rows, rhs


# -- strategies ---------------------------------------------------------------

values = st.builds(
    Fraction, st.integers(-4, 4).filter(bool), st.sampled_from((1, 1, 2, 3))
)


@st.composite
def matrices(draw, max_cols=7):
    """Sparse rows, some of them combinations of earlier ones, so that
    rank deficiency and zero rows occur often."""
    ncols = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(draw(st.integers(0, 2 * ncols + 2))):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(values), draw(values)
            row = {}
            for c in set(a) | set(b):
                v = x * a.get(c, _ZERO) + y * b.get(c, _ZERO)
                if v:
                    row[c] = v
        else:
            cols = draw(st.sets(st.integers(0, ncols - 1), max_size=3))
            row = {c: draw(values) for c in cols}
        rows.append(row)
    return rows, ncols


@st.composite
def affine_systems(draw):
    rows, ncols = draw(matrices())
    rhs = [draw(st.one_of(st.just(_ZERO), values)) for _ in rows]
    return rows, rhs, ncols


@st.composite
def square_matrices(draw):
    """Dense n x n rational matrices, n = 0..4; a row is often a
    combination of earlier ones, so singular matrices occur often."""
    n = draw(st.integers(0, 4))
    small = st.one_of(st.just(_ZERO), values, values)
    rows = []
    for _ in range(n):
        if rows and draw(st.integers(0, 2)) == 0:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(values), draw(small)
            rows.append(tuple(x * u + y * v for u, v in zip(a, b)))
        else:
            rows.append(tuple(draw(small) for _ in range(n)))
    return tuple(rows)


EXPONENTS = ((0, 0, 0), (1, 0, 0), (0, 0, 1), (0, -1, 1), (Fraction(1, 2), 0, 0))


@st.composite
def constraint_systems(draw):
    rng = draw(st.randoms(use_true_random=False))
    constraints = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("eigen", "zero", "equals")))
        known = rand_field(rng, max_terms=2)
        if kind == "eigen":
            constraints.append(
                BracketConstraint.eigen(known, draw(st.sampled_from((0, 1, -2, Fraction(1, 2)))))
            )
        elif kind == "zero":
            constraints.append(BracketConstraint.commutes(known))
        else:
            constraints.append(
                BracketConstraint.equals(known, rand_field(rng, max_terms=2))
            )
    exponents = draw(st.lists(st.sampled_from(EXPONENTS), min_size=1, max_size=2))
    components = draw(st.sets(st.integers(0, 2), min_size=1))
    ansatz = AnsatzSpace(3, exponents, draw(st.integers(0, 2)), sorted(components))
    return constraints, ansatz


# -- tests --------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_matches_column_scan(system):
    rows, ncols = system
    assert _kernels.rref(rows, ncols) == reference_rref(rows, ncols)
    assert nullspace(rows, ncols) == reference_nullspace(rows, ncols)
    assert rank(rows, ncols) == len(reference_rref(rows, ncols)[0])


@settings(max_examples=300, deadline=None)
@given(affine_systems())
def test_solve_affine_matches_binary_search(system):
    rows, rhs, ncols = system
    assert solve_affine(rows, rhs, ncols) == reference_solve_affine(rows, rhs, ncols)


@settings(max_examples=120, deadline=None)
@given(constraint_systems())
def test_build_matches_exppoly_loop(system):
    constraints, ansatz = system
    _, targets, rows, rhs = _build_system(constraints, ansatz, DEFAULT_TARGET_BOUND)
    ref_targets, ref_rows, ref_rhs = reference_build(constraints, ansatz)
    assert targets == ref_targets
    assert rows == ref_rows
    assert [list(r) for r in rows] == [list(r) for r in ref_rows]
    assert rhs == ref_rhs


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_invert_matches_dense(rows):
    try:
        expected = reference_invert(rows)
    except SingularMap:
        with pytest.raises(SingularMap):
            _invert(rows)
    else:
        assert _invert(rows) == expected
