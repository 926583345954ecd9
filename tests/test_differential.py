"""Differential tests: the row-insert elimination, the span tracker
and determinant on it, the raw-key constraint build, the staged
homogeneous solve and its graded column selection, the in-place bracket
kernel and the sparse structure-constant table against reference
implementations kept here, one reference per layer.

The references are the earlier column-scan ``rref``, the binary-search
``solve_affine`` (also on tall systems with a planted solution, which
reach full column rank early and go on inserting rows), the
``ExpPoly`` build loop of the stacked matrix (``reference_build``), the
dense ``fields._invert`` and ``_linalg.det``, the ``SpanTracker`` with
its own row-reduction loop (also for the structure constants of the
builtin catalog), the per-free-column ``nullspace_from_rref``, and one
stacked solve (``reference_stacked_solve``) on ``reference_build``, not
on the build under test: one elimination, ``rref`` for a homogeneous
system and ``solve_affine`` with an ``equals`` constraint, the witness
row mapped to its constraint and component.  The columns kept for
graded constraints are checked to hold the kernel of one constraint's
full build.  The staged solve is checked against the stacked solve,
for systems with an ``equals`` constraint also with the stacked
matrix's row count as the target bound: on planted systems, the same
systems with target terms no column reaches or with conflicting terms
in some constraint's image, mixed eigen/zero/equals lists and ansatze
with exponentials, and on one example per rule of the witness order;
on a system that is one point after three constraints, a later
constraint is built only when the point's residual for it is not zero,
and the residual of each constraint at the returned point is computed
once.  Systems built to
contain cascades of rows with one entry and a zero right-hand side
(``pinned_systems``: homogeneous and ``equals``, consistent and not,
also with a later row that meets a coordinate an earlier constraint
pinned) are checked against the same stacked solve; the singleton
pass itself is checked in ``test_kernels.py``.  The reduced row
echelon form is unique, so the fast paths must agree with them exactly,
including the order of the constraint rows (the inconsistency message
depends on it) and the key order of the basis vectors.
``_linalg.rref`` and ``_linalg.solve_affine`` hand out integers; they
are compared through their rational views (``rational_rref``,
``rational_affine``).

The nullspace basis is read off the integer rows: each vector of
``_kernels.kernel_vectors`` is checked to be a positive multiple of the
``Fraction`` one that ``nullspace_from_rref`` (kept here) read off
rational rows, on matrices of every rank with wide entries.

The elimination keeps primitive integer rows, so the rref, affine solve,
inverse and determinant are also drawn with wide entries (numerators up
to 10^20, denominators that include large primes), which exercise the
lcm, content and sign normalisation, and a property test checks that
every table row stays primitive with a positive pivot entry.

The joint obstruction solve (one ``solve`` over every exponent block)
is checked against the earlier per-block solves, on the obstruction's
own systems and on random systems whose blocks do not interact.

The bracket and ``apply`` are checked against the ``Fraction`` term-map
kernels (``reference_ep_bracket``, ``reference_ep_apply``), and the
sparse Jacobi check and Killing form against the earlier dense loops
over coordinate tuples (same verdict, same failing triple).  The tensor
holds integers over one denominator D, so ``c``, ``constants``,
``bracket_vectors``, ``killing_form`` and ``killing_det`` are checked
against the dense references, and to be ``Fraction``s, also on
perturbed and rebased tensors, whose mixed denominators make D > 1.
The span tracker's integer rows are checked against the ``Fraction``
rows it read before (``FractionRowSpanTracker``): identical stored
rows, on fields whose components have different denominators.

``ExpPoly`` stores integer terms over one denominator.  The ``Fraction``
term-map kernels it replaced are kept here (``pp_*``, ``ep_*`` and
``ReferenceExpPoly`` on them) as the reference for the ring operations,
``diff``, ``subst_params``, ``subst_affine``, ``apply`` and printing,
and ``reference_ep_bracket`` for the bracket: equal term maps and text,
in the same insertion order on parameter-free operands, for
coefficients with numerators up to 10^20, exponent denominators 1, 2
and 3, parameters, multiples whose results cancel, zero values and
``[X, X]``.  Every result is checked to be stored canonically (so that
structural equality holds) and to parse back from its text to an equal
value with an equal hash, and a field bracketed against partners in any
order gives the bracket of a fresh copy without changing any input.
The reference sums exponents through their ``Fraction``s
(``reference_exp_add``), not with ``_kernels.exp_add``.  ``mul_into``,
which reads the key of each term product from its key-sum table, is
checked against ``reference_mul_into``, which sums every key again: the
same maps in the same key order, with the table cold, warm and at a
bound of 1-3 (so that it is cleared inside the product), on operands
with exponent denominators 1-3, parameters and starts that cancel some
of the products.

The structure tensor of a bracket closure, read from the constants the
closure recorded, is checked against the pair-by-pair path over the same
basis as a plain list: on the catalog at default and admissible
parameters, and on random invertible recombinations of its generators.

``generic_rank``, which grows one nonzero minor by bordering, is checked
against the earlier search through every k x k minor, largest k first,
on random families with parameters and exponentials, many of them
rank-deficient by construction.

The column of an ansatz basis field, computed by arithmetic, and its
inverse are checked against the key table every ansatz once built over
all its columns (``reference_columns``), on spaces whose exponent
vectors sort differently as ``Fraction`` tuples and encoded, and a
monomial's rank and its inverse against ``solve._monomials`` in
dimensions 1-5 and in dimension 3 up to degree 32.

The graded start, which walks only the solutions of the weight
equations, is checked against the ``Fraction`` weight of every key
(``_weight_columns``, which drops m_i > 0 when b has one constant term
b_i): degrees 0-10, weight rows of rank 0-3, lists shaped like the
obstruction's (two Cartan elements and two translations), fractional
weights and eigenvalues, and exponent denominators 2 and 3.  For one
constraint with at most one constant term the kept columns are checked
to be exactly its kernel, and ``[Dx + Dy, X] = 0``, whose kernel holds
``(x - y)*Dz``, to keep ``x*Dz``.  A graded solve never lists a block's
monomials.

A build takes one constraint.  Each build is checked against
``reference_build`` of that constraint alone: the same targets (less
the constraint slot) and image count, ``int`` entries, and rows and
right-hand side the reference's times one positive rational, also
over restricted columns, with eigenvalues, targets and exponents over
denominators.  ``test_build_matches_exppoly_loop`` states the stacked
order that the witness depends on: the builds of a system's
constraints, stacked as every image row in constraint order and then
every target term that no column reaches, are ``reference_build`` of
the system, up to one positive scale per constraint.

The parser, which keeps a product of single-term factors as one term
until it meets a sum, is checked against the evaluator it replaced
(``ReferenceParser``: an ``ExpPoly`` or ``VectorField`` for every atom
and every product) on drawn texts with products, quotients, powers
(also ``0^n`` and ``x^0``), unary minus, ``exp``, parameters, frames,
parenthesized sums and zero factors, and on the catalog's generator
texts: an accepted text gives the same value with the same item order
in each component's storage, and a refused one the same error class,
message and offset, also with ``MAX_PRODUCTS`` patched small.
"""

import dataclasses
import itertools
import math
import operator
import random
import re
from fractions import Fraction
from typing import List
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from lvf import _kernels, _linalg
from lvf import catalog, obstruction, parsing
from lvf import solve as solve_module
from lvf._linalg import det, nullspace, rank, solve_affine
from lvf.algebra import SpanTracker, StructureTensor, close_under_bracket, structure_tensor
from lvf.errors import (
    LvfError,
    ParameterizedInput,
    ParseError,
    SingularMap,
    UnknownIdentifier,
)
from lvf.expr import (
    ExpPoly,
    check_digits,
    coord_names,
    decode_exponents,
    encode_exponents,
    format_scalar,
    zero_exponents,
)
from lvf.fields import VectorField, _ep_det, _invert, format_field, generic_rank
from lvf.parsing import parse_field, parse_scalar
from lvf.solve import (
    AnsatzSpace,
    BracketConstraint,
    _build_system,
    _graded_columns,
    _graded_weights,
    _staged_solve,
    solve,
)

from _rand import (
    cold_copy,
    exponential,
    key_sum_table,
    rand_exppoly,
    rand_field,
    rand_fraction,
    rand_invertible,
)

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


def nullspace_from_rref(pivots, rrows, ncols):
    """The ``Fraction`` nullspace basis ``_linalg`` read off rational
    reduced rows before ``_kernels.kernel_vectors``: one vector per free
    column f below ``ncols``, ``{f: 1}`` first, then ``-row[f]`` at each
    pivot whose row uses f, pivots ascending, in one pass over the rows."""
    pivot_set = set(pivots)
    basis = {f: {f: Fraction(1)} for f in range(ncols) if f not in pivot_set}
    for p, row in zip(pivots, rrows):
        for c, v in row.items():
            vec = basis.get(c)
            if vec is not None:
                vec[p] = -v
    return list(basis.values())


def reference_nullspace(rows, ncols):
    return nullspace_from_rref(*reference_rref(rows, ncols), ncols)


def rational_rref(pivots, irows):
    """``_linalg.rref``'s integer rows as rational rows, each over its
    lead, so pivot entries are 1."""
    return pivots, [
        {c: Fraction(v, row[p]) for c, v in row.items()} for p, row in zip(pivots, irows)
    ]


def rational_affine(result, ncols):
    """``_linalg.solve_affine``'s integer result in rationals: the point
    over its scale at ``ncols`` (keys ascending, as it hands them out),
    each homogeneous vector over its entry at its free column, which
    comes first."""
    point, hom, mrank, witness = result
    if point is not None:
        scale = point[ncols]
        point = {c: Fraction(v, scale) for c, v in point.items() if c != ncols}
    hom = [{c: Fraction(v, next(iter(vec.values()))) for c, v in vec.items()} for vec in hom]
    return point, hom, mrank, witness


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


def reference_det(matrix):
    """Exact determinant via fraction Gaussian elimination."""
    n = len(matrix)
    m = [list(row) for row in matrix]
    sign = 1
    out = Fraction(1)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        lead = m[col][col]
        out *= lead
        for r in range(col + 1, n):
            if m[r][col]:
                fac = m[r][col] / lead
                m[r] = [a - fac * b for a, b in zip(m[r], m[col])]
    return out * sign


class ReferenceSpanTracker:
    """Incremental echelon form over a growing key set.

    Keeps, for every echelon row, the combination of inserted fields
    that produced it, so coordinates of a member come out for free.
    """

    def __init__(self):
        self.key_index = {}
        self.rows = []
        self.count = 0  # fields inserted so far (successfully or not)

    def _vectorize(self, field):
        vec = {}
        for i, comp in enumerate(field.components):
            for (exp, mono), pp in comp.term_map().items():
                if list(pp) != [()]:
                    raise ParameterizedInput("parameterized field in exact span")
                key = (i, exp, mono)
                col = self.key_index.get(key)
                if col is None:
                    col = len(self.key_index)
                    self.key_index[key] = col
                vec[col] = pp[()]
        return vec

    def insert(self, field):
        """Try to add a field; returns (added, combo).

        When not added, ``combo`` expresses the field over previously
        *added* ones (by insertion index).
        """
        vec = self._vectorize(field)
        combo = {self.count: Fraction(1)}
        for row, rcombo in self.rows:
            piv = min(row)
            fac = vec.get(piv)
            if fac:
                for c, v in row.items():
                    s = vec.get(c, Fraction(0)) - fac * v
                    if s:
                        vec[c] = s
                    elif c in vec:
                        del vec[c]
                for c, v in rcombo.items():
                    s = combo.get(c, Fraction(0)) - fac * v
                    if s:
                        combo[c] = s
                    elif c in combo:
                        del combo[c]
        idx = self.count
        self.count += 1
        if not vec:
            # member of the span: field = -sum(combo[j] * field_j) for j < idx
            coeffs = {j: -v for j, v in combo.items() if j != idx}
            return False, coeffs
        piv = min(vec)
        inv = 1 / vec[piv]
        if inv != 1:
            vec = {c: v * inv for c, v in vec.items()}
            combo = {c: v * inv for c, v in combo.items()}
        self.rows.append((vec, combo))
        return True, {}


def reference_structure_constants(basis):
    """Structure constants with a fresh reference tracker per nonzero
    bracket, as ``express_in_basis`` once computed them."""
    constants = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            w = basis[i].bracket(basis[j])
            if w.is_zero():
                continue
            tracker = ReferenceSpanTracker()
            for b in basis:
                assert tracker.insert(b)[0]
            added, combo = tracker.insert(w)
            assert not added
            constants[(i, j)] = tuple(combo.get(k, _ZERO) for k in range(len(basis)))
    return constants


def reference_build(constraints, ansatz, columns=None):
    """The ``ExpPoly`` build loop of the stacked matrix: ``(targets, rows,
    rhs, images)``, one target key ``(constraint, component, exp, mono)``
    per row.  Every constraint's image rows come first, in constraint
    order, then every constraint's target terms that no built column
    reaches; ``images`` counts the image rows.  Entries are the rational
    values of the equations, columns come from the key table
    (``reference_columns``), and with ``columns`` only the images of
    those basis fields are built."""
    keys, col_index = reference_columns(ansatz)
    dim = ansatz.dim
    target_index = {}
    rows_map = {}

    def index_of(ci, fkey):
        full = (ci, *fkey)
        idx = target_index.get(full)
        if idx is None:
            idx = len(target_index)
            target_index[full] = idx
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
            f = ExpPoly.from_terms(dim, {(exp, mono, ()): 1})
            fd = [f.diff(j) for j in range(dim)]
            kf = ExpPoly.zero(dim)
            for j in range(dim):
                if not kc[j].is_zero() and not fd[j].is_zero():
                    kf = kf + kc[j] * fd[j]
            for c in ansatz.components:
                col = col_index[(c, exp, mono)]
                if columns is not None and col not in columns:
                    continue
                diag = kf
                if cons.kind == "eigen" and cons.eigenvalue:
                    diag = diag - f * cons.eigenvalue
                if not diag.is_zero():
                    add_entries(ci, col, diag, c)
                for j in range(dim):
                    if not dk[j][c].is_zero():
                        add_entries(ci, col, -(f * dk[j][c]), j)

    images = len(target_index)
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
    return list(target_index), rows, rhs, images


def reference_columns(ansatz):
    """The key table an ansatz once built over every column: the keys in
    column order (components, then exponent blocks in ``exponents``
    order, then monomials ascending) and the column of each key."""
    monos = []
    for total in range(ansatz.max_degree + 1):
        for cuts in itertools.combinations_with_replacement(range(ansatz.dim), total):
            mono = [0] * ansatz.dim
            for i in cuts:
                mono[i] += 1
            monos.append(tuple(mono))
    monos.sort()
    encoded = [encode_exponents(e) for e in ansatz.exponents]
    keys = tuple(
        (c, exp, mono) for c in ansatz.components for exp in encoded for mono in monos
    )
    return keys, {key: m for m, key in enumerate(keys)}


def _field_keys(field: VectorField):
    """``((component, exp, mono), value)`` of every term of a field, in
    storage order: the ``Fraction`` right-hand side the builds read."""
    for i, comp in enumerate(field.components):
        for (exp, mono), c in comp.rational_terms():
            yield (i, exp, mono), c


def assert_scaled_build(builds, ref):
    """``builds``, one build per constraint, stacked as every image row in
    constraint order and then every target term that no column reaches,
    are ``ref``, the reference build of those constraints, in integers:
    the same targets and image count, ``int`` entries with the keys in
    the same order, and each build's rows and right-hand side the
    reference's times one positive rational."""
    order = [(ci, i) for ci, b in enumerate(builds) for i in range(b[3])]
    order += [(ci, i) for ci, b in enumerate(builds) for i in range(b[3], len(b[0]))]
    targets, rows, rhs, images = ref
    assert [(ci, *builds[ci][0][i]) for ci, i in order] == targets
    assert sum(b[3] for b in builds) == images
    assert (rhs is None) == all(b[2] is None for b in builds)
    ratios = {}
    for k, (ci, i) in enumerate(order):
        _, got_rows, got_rhs, _ = builds[ci]
        row, b = got_rows[i], got_rhs[i] if got_rhs else 0
        assert list(row) == list(rows[k])
        assert type(b) is int and all(type(v) is int for v in row.values())
        for v, w in [(row[c], rows[k][c]) for c in row] + [(b, rhs[k] if rhs else 0)]:
            if v or w:
                ratio = ratios.setdefault(ci, Fraction(v) / w)
                assert ratio > 0 and v == ratio * w


def reference_stacked_solve(constraints, ansatz):
    """The stacked solve: every constraint built over the whole ansatz
    (``reference_build``), one elimination, ``_linalg.rref`` read by
    ``nullspace_from_rref`` or, with an ``equals`` constraint,
    ``solve_affine``, and the witness row mapped to its constraint and
    component.  Returns (basis vectors, particular vector, matrix rank,
    inconsistency text, number of target rows)."""
    targets, rows, rhs, _ = reference_build(constraints, ansatz)
    ncols = len(ansatz.basis_keys())
    if rhs is None:
        pivots, rrows = rational_rref(*_linalg.rref(rows, ncols))
        return nullspace_from_rref(pivots, rrows, ncols), None, len(pivots), None, len(targets)
    particular, hom, mrank, witness = rational_affine(solve_affine(rows, rhs, ncols), ncols)
    if witness is not None:
        ci, comp = targets[witness][:2]
        detail = f"constraint {ci} has no solution at component {comp + 1}"
        return [], None, mrank, detail, len(targets)
    return hom, particular, mrank, None, len(targets)


# The Fraction ExpPoly that the integer storage replaced.  A term map maps
# ``(exponents, monomial)`` to a parameter polynomial ("pp"): a dict from
# a parameter monomial to a nonzero Fraction.  Parameter polynomials are
# never mutated, so sums and products share them with their operands.


def pp_add_into(out, key, pp):
    """``out[key] += pp`` for a term map, dropping the key when the sum
    vanishes; the sum is a new parameter polynomial."""
    cur = out.get(key)
    if cur is None:
        out[key] = pp
    else:
        cur = pp_add(cur, pp)
        if cur:
            out[key] = cur
        else:
            del out[key]


def pp_add(a, b):
    out = dict(a)
    for k, v in b.items():
        _kernels.add_into(out, k, v)
    return out


def pp_scale(a, c):
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def pp_mul(a, b):
    if not a or not b:
        return {}
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            _kernels.add_into(out, _kernels.pmono_mul(ka, kb), va * vb)
    return out


def ep_add(f, g):
    if not f:
        return dict(g)
    out = dict(f)
    for k, pp in g.items():
        pp_add_into(out, k, pp)
    return out


def ep_scale(f, c):
    if not c:
        return {}
    return {k: {pk: pv * c for pk, pv in pp.items()} for k, pp in f.items()}


def reference_exp_add(e1, e2):
    """Sum of two encoded exponent vectors, through their ``Fraction``s."""
    return encode_exponents(
        a + b for a, b in zip(decode_exponents(e1), decode_exponents(e2))
    )


def ep_mul_into(out, f, g, negate=False):
    """Add ``f*g`` (``-f*g`` when ``negate``) into the term map ``out``."""
    if not f or not g:
        return out
    for (ef, mf), ppf in f.items():
        if negate:
            ppf = {k: -v for k, v in ppf.items()}
        for (eg, mg), ppg in g.items():
            key = (reference_exp_add(ef, eg), tuple(map(operator.add, mf, mg)))
            pp_add_into(out, key, pp_mul(ppf, ppg))
    return out


def ep_mul(f, g):
    return ep_mul_into({}, f, g)


def reference_mul_into(acc, f, g, scale=1):
    """``acc + scale*f*g`` for integer term maps, in place: every key of
    a term product summed again (exponents by ``reference_exp_add``),
    the terms of ``f`` the outer loop, a key dropped when its sum
    vanishes."""
    for (ef, mf, pf), a in f.items():
        for (eg, mg, pg), b in g.items():
            powers = dict(pf)
            for name, e in pg:
                powers[name] = powers.get(name, 0) + e
            key = (
                reference_exp_add(ef, eg),
                tuple(x + y for x, y in zip(mf, mg)),
                tuple(sorted(powers.items())),
            )
            v = acc.get(key, 0) + scale * a * b
            if v:
                acc[key] = v
            else:
                del acc[key]
    return acc


def ep_diff(f, i):
    out = {}
    for (exp, mono), pp in f.items():
        m = mono[i]
        if m:
            key = (exp, mono[:i] + (m - 1,) + mono[i + 1:])
            pp_add_into(out, key, pp if m == 1 else pp_scale(pp, m))
        n = exp[1 + i]
        if n:
            pp_add_into(out, (exp, mono), pp_scale(pp, Fraction(n, exp[0])))
    return out


class ReferenceExpPoly:
    """The ``Fraction`` ExpPoly: a term map, and the arithmetic of the
    kernels above.  ``format_scalar`` prints it as it printed the old
    ``ExpPoly``, through ``dim`` and ``terms()``."""

    def __init__(self, dim, terms):
        self.dim = dim
        self.tmap = terms

    @classmethod
    def of(cls, value):
        return cls(value.dim, value.term_map())

    @classmethod
    def const(cls, dim, c):
        key = (zero_exponents(dim), (0,) * dim)
        return cls(dim, {key: {(): Fraction(c)}} if c else {})

    def __add__(self, other):
        return ReferenceExpPoly(self.dim, ep_add(self.tmap, other.tmap))

    def __neg__(self):
        return ReferenceExpPoly(self.dim, ep_scale(self.tmap, Fraction(-1)))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ReferenceExpPoly(self.dim, ep_scale(self.tmap, Fraction(other)))
        return ReferenceExpPoly(self.dim, ep_mul(self.tmap, other.tmap))

    def diff(self, i):
        return ReferenceExpPoly(self.dim, ep_diff(self.tmap, i))

    def subst_params(self, assignment):
        out = {}
        for key, pp in self.tmap.items():
            total = Fraction(0)
            for pmono, c in pp.items():
                v = c
                for name, e in pmono:
                    v *= Fraction(assignment[name]) ** e
                total += v
            if total:
                out[key] = {(): total}
        return ReferenceExpPoly(self.dim, out)

    def subst_affine(self, rows, cvec):
        dim = self.dim
        images = []
        for i in range(dim):
            img = ReferenceExpPoly.const(dim, cvec[i])
            for j in range(dim):
                if rows[i][j]:
                    mono = tuple(int(k == j) for k in range(dim))
                    coord = ReferenceExpPoly(dim, {(zero_exponents(dim), mono): {(): Fraction(1)}})
                    img = img + coord * rows[i][j]
            images.append(img)
        out = ReferenceExpPoly(dim, {})
        for (exp_key, mono), pp in self.tmap.items():
            exp = decode_exponents(exp_key)
            if sum(q * c for q, c in zip(exp, cvec)):
                raise LvfError("drift")
            new_exp = encode_exponents(
                sum((exp[i] * rows[i][j] for i in range(dim)), Fraction(0))
                for j in range(dim)
            )
            piece = ReferenceExpPoly(dim, {(new_exp, (0,) * dim): dict(pp)})
            for i, m in enumerate(mono):
                for _ in range(m):
                    piece = piece * images[i]
            out = out + piece
        return out

    def terms(self):
        for exp, mono in sorted(self.tmap):
            yield decode_exponents(exp), mono, self.tmap[(exp, mono)]


def reference_ep_apply(xs, f):
    """``X(f)`` from the term maps of X's components and of ``f`` by the
    ``Fraction`` kernel."""
    out = {}
    for i, c in enumerate(xs):
        if c:
            ep_mul_into(out, c, ep_diff(f, i))
    return out


def reference_ep_bracket(xs, ys):
    """Components of ``[X, Y]`` from two lists of term maps by the
    ``Fraction`` kernel: every product a ``Fraction`` product and a
    parameter-polynomial merge, every partial derivative computed
    again for each bracket."""
    n = len(xs)
    out = []
    for i in range(n):
        acc = {}
        yi, xi = ys[i], xs[i]
        for j in range(n):
            if xs[j] and yi:
                ep_mul_into(acc, xs[j], ep_diff(yi, j))
        for j in range(n):
            if ys[j] and xi:
                ep_mul_into(acc, ys[j], ep_diff(xi, j), negate=True)
        out.append(acc)
    return out


def is_canonical(value):
    """The storage invariant that structural equality relies on: a
    positive denominator, no zero numerator, and gcd(denominator,
    numerators) = 1."""
    num, den = value._num, value._den
    return den >= 1 and all(num.values()) and math.gcd(den, *num.values()) == 1


def _reference_c(dim, constants, i, j):
    """[b_i, b_j] as a dense vector, negated on every call for i > j."""
    if i == j:
        return (_ZERO,) * dim
    if i < j:
        return constants.get((i, j), (_ZERO,) * dim)
    vec = constants.get((j, i))
    if vec is None:
        return (_ZERO,) * dim
    return tuple(-v for v in vec)


def reference_check_jacobi(dim, constants):
    """The dense Jacobi loop over every triple i < j < k."""
    m = dim

    def c(i, j):
        return _reference_c(dim, constants, i, j)

    for i in range(m):
        for j in range(i + 1, m):
            cij = c(i, j)
            for k in range(j + 1, m):
                acc = [_ZERO] * m
                cjk = c(j, k)
                cki = c(k, i)
                for s in range(m):
                    if cjk[s]:
                        for t, v in enumerate(c(i, s)):
                            acc[t] += cjk[s] * v
                    if cki[s]:
                        for t, v in enumerate(c(j, s)):
                            acc[t] += cki[s] * v
                    if cij[s]:
                        for t, v in enumerate(c(k, s)):
                            acc[t] += cij[s] * v
                if any(acc):
                    raise LvfError(f"Jacobi identity fails on basis triple ({i},{j},{k})")


def reference_killing_form(dim, constants):
    """trace(ad_i . ad_j) from dense ad matrices."""
    m = dim

    def ad(i):
        cols = [_reference_c(dim, constants, i, j) for j in range(m)]
        return [[cols[j][k] for j in range(m)] for k in range(m)]

    ads = [ad(i) for i in range(m)]
    out = [[_ZERO] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            tr = _ZERO
            for r in range(m):
                for s in range(m):
                    if ads[i][r][s] and ads[j][s][r]:
                        tr += ads[i][r][s] * ads[j][s][r]
            out[i][j] = out[j][i] = tr
    return out


def reference_generic_rank(fields):
    """Largest k with a k x k minor that is not the zero function, by
    trying every minor, largest k first."""
    rows = [list(f.components) for f in fields]
    if not rows:
        return 0
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for rsel in itertools.combinations(range(m), k):
            for csel in itertools.combinations(range(n), k):
                sub = [[rows[r][c] for c in csel] for r in rsel]
                if not _ep_det(sub).is_zero():
                    return k
    return 0


def _single_exponent(exp) -> bool:
    return len(exp) <= 1


def reference_solve_by_blocks(constraints, dim, exponents, degree, components=None):
    """Solve one exponent block at a time and join the bases.

    Valid whenever every known field carries a single exponent vector:
    distinct source blocks then land in distinct target blocks, so the
    joint solution space is the direct sum of the per-block spaces.
    """
    for c in constraints:
        for comp in c.known.components:
            if not _single_exponent(comp.exponents()):
                # fall back to one joint solve
                ansatz = AnsatzSpace(dim, exponents, degree, components)
                return solve(constraints, ansatz).basis
    basis: List[VectorField] = []
    for exp in sorted(set(exponents)):
        ansatz = AnsatzSpace(dim, [exp], degree, components)
        basis.extend(solve(constraints, ansatz).basis)
    return basis


class ReferenceParser:
    """The earlier evaluator of the expression grammar: every atom an
    ``ExpPoly`` or a ``VectorField``, every ``*`` and every power a
    product of them, counted against ``parsing.MAX_PRODUCTS`` as it is
    made.  It reads the limits from ``lvf.parsing`` when it runs, so a
    limit patched there holds for both parsers."""

    def __init__(self, dim=3, params=()):
        parsing.check_dimension(dim)
        parsing.check_params(dim, params)
        self.dim = dim
        self.coords = {}
        for i, name in enumerate(coord_names(dim)):
            self.coords[name] = i
        for i in range(dim):
            self.coords.setdefault(f"x{i + 1}", i)
        self.frames = {}
        if dim <= 4:
            for i, name in enumerate(coord_names(dim)):
                self.frames[f"D{name}"] = i
        for i in range(dim):
            self.frames.setdefault(f"D{i + 1}", i)
        self.params = set(params)

    @staticmethod
    def _terms(value):
        comps = value.components if isinstance(value, VectorField) else (value,)
        return sum(c.term_count() for c in comps)

    def _expr(self, toks):
        value = self._term(toks)
        while True:
            kind, val, pos = toks.peek()
            if kind == "op" and val in "+-":
                toks.next()
                rhs = self._term(toks)
                if isinstance(value, VectorField) != isinstance(rhs, VectorField):
                    raise ParseError("cannot add a scalar and a vector field", pos)
                value = value + rhs if val == "+" else value - rhs
            else:
                return value

    def _term(self, toks):
        value = self._unary(toks)
        while True:
            kind, val, pos = toks.peek()
            if kind == "op" and val in "*/":
                toks.next()
                rhs = self._unary(toks)
                value = self._mul_div(value, rhs, val, pos)
            else:
                return value

    def _mul_div(self, a, b, op, pos):
        if op == "/":
            if isinstance(b, VectorField):
                raise ParseError("cannot divide by a vector field", pos)
            try:
                q = b.rational_value()
            except LvfError:
                raise ParseError("divisor must be a nonzero rational constant", pos)
            if not q:
                raise ParseError("division by zero", pos)
            return a * (1 / q)
        if isinstance(a, VectorField) and isinstance(b, VectorField):
            raise ParseError("cannot multiply two vector fields", pos)
        return self._times(a, b, pos)

    def _times(self, a, b, pos):
        self.products += self._terms(a) * self._terms(b)
        if self.products > parsing.MAX_PRODUCTS:
            raise ParseError(f"expression needs more than {parsing.MAX_PRODUCTS} term products", pos)
        return b * a if isinstance(b, VectorField) else a * b

    def _enter(self, pos):
        self.depth += 1
        if self.depth > parsing.MAX_NESTING:
            raise ParseError(f"nesting deeper than {parsing.MAX_NESTING} levels", pos)

    def _unary(self, toks):
        kind, val, pos = toks.peek()
        if kind == "op" and val == "-":
            toks.next()
            self._enter(pos)
            inner = self._unary(toks)
            self.depth -= 1
            return -inner
        return self._power(toks)

    def _power(self, toks):
        value = self._atom(toks)
        while True:
            kind, val, pos = toks.peek()
            if kind == "op" and val == "^":
                toks.next()
                nkind, nval, npos = toks.next()
                if nkind != "num":
                    raise ParseError("exponent must be a natural number", npos)
                if isinstance(value, VectorField):
                    raise ParseError("cannot raise a vector field to a power", pos)
                check_digits(nval)
                n = int(nval)
                if max(n, n * value.max_poly_degree()) > parsing.MAX_EXPONENT:
                    raise ParseError(f"power of degree above {parsing.MAX_EXPONENT}", npos)
                power = ExpPoly.const(self.dim, 1)
                while n:
                    if n & 1:
                        power = self._times(power, value, pos)
                    n >>= 1
                    if n:
                        value = self._times(value, value, pos)
                value = power
            else:
                return value

    def _atom(self, toks):
        kind, val, pos = toks.next()
        if kind == "num":
            check_digits(val)
            return ExpPoly.const(self.dim, int(val))
        if kind == "op" and val == "(":
            self._enter(pos)
            inner = self._expr(toks)
            toks.expect("op", ")")
            self.depth -= 1
            return inner
        if kind == "ident":
            if val == "exp":
                toks.expect("op", "(")
                self._enter(pos)
                inner = self._expr(toks)
                toks.expect("op", ")")
                self.depth -= 1
                if isinstance(inner, VectorField):
                    raise ParseError("exp() takes a scalar argument", pos)
                return self._make_exponential(inner, pos)
            if val in self.coords:
                return ExpPoly.coord(self.dim, self.coords[val])
            if val in self.frames:
                comps = [ExpPoly.zero(self.dim) for _ in range(self.dim)]
                comps[self.frames[val]] = ExpPoly.const(self.dim, 1)
                return VectorField(comps)
            if val in self.params:
                return ExpPoly.param(self.dim, val)
            raise UnknownIdentifier(f"unknown identifier '{val}'", pos)
        raise ParseError(f"unexpected token {val!r}", pos)

    def _make_exponential(self, arg, pos):
        qvec = [Fraction(0)] * self.dim
        try:
            terms = arg.rational_terms()
        except ParameterizedInput:
            raise ParseError("exponent must not contain parameters", pos) from None
        zero = zero_exponents(self.dim)
        for (exp, mono), c in sorted(terms):
            if exp != zero:
                raise ParseError("nested exponentials are not allowed", pos)
            total = sum(mono)
            if total == 0:
                raise ParseError("exponent must have no constant term", pos)
            if total > 1:
                raise ParseError("exponent must be linear in the coordinates", pos)
            qvec[mono.index(1)] += c
        return exponential(self.dim, qvec)

    def parse(self, text):
        toks = parsing._Tokens(text)
        self.depth = 0
        self.products = 0
        value = self._expr(toks)
        kind, val, pos = toks.peek()
        if kind is not None:
            raise ParseError(f"trailing input {val!r}", pos)
        return value


# -- strategies ---------------------------------------------------------------

values = st.builds(
    Fraction, st.integers(-4, 4).filter(bool), st.sampled_from((1, 1, 2, 3))
)
# Entries whose integer rows need a real lcm, content and sign
# normalisation: numerators up to 10^20 in size, denominators small or
# large primes, so that no two rows share a denominator by accident.
LARGE_PRIMES = (1_000_003, 2_147_483_647, 2_305_843_009_213_693_951, 10**9 + 7)
wide_values = st.builds(
    Fraction,
    st.integers(-10**20, 10**20).filter(bool),
    st.one_of(st.integers(1, 12), st.sampled_from(LARGE_PRIMES)),
)


def _combine(draw, rows, vals=values):
    """x*a + y*b for two rows drawn from ``rows``; it may cancel to {}."""
    a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
    x, y = draw(vals), draw(vals)
    row = {}
    for c in set(a) | set(b):
        v = x * a.get(c, _ZERO) + y * b.get(c, _ZERO)
        if v:
            row[c] = v
    return row


@st.composite
def matrices(draw, max_cols=7, vals=values):
    """Sparse rows, some of them combinations of earlier ones, so that
    rank deficiency and zero rows occur often."""
    ncols = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(draw(st.integers(0, 2 * ncols + 2))):
        if rows and draw(st.booleans()):
            row = _combine(draw, rows, vals)
        else:
            cols = draw(st.sets(st.integers(0, ncols - 1), max_size=3))
            row = {c: draw(vals) for c in cols}
        rows.append(row)
    return rows, ncols


@st.composite
def affine_systems(draw):
    rows, ncols = draw(matrices())
    rhs = [draw(st.one_of(st.just(_ZERO), values)) for _ in rows]
    return rows, rhs, ncols


@st.composite
def tall_affine_systems(draw, vals=values):
    """Tall systems with a planted solution x: a triangular full-rank
    block first (some of its rows left out for a rank-deficient
    system), then many combinations of earlier rows with the
    consistent rhs row . x.  Sometimes one row goes wrong at a random
    position: a combination of earlier rows with a shifted rhs, or an
    empty row with b != 0.  Inside the block its witness comes before
    full rank; after it, the witness comes once the table is full."""
    ncols = draw(st.integers(1, 6))
    x = {c: draw(st.one_of(st.just(_ZERO), vals)) for c in range(ncols)}
    order = draw(st.permutations(range(ncols)))
    deficient = draw(st.integers(0, 2)) == 0
    dropped = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols - 1)) if deficient else set()
    rows = []
    for k, p in enumerate(order):
        if k not in dropped:
            rows.append({p: draw(vals), **{
                q: draw(vals) for q in order[k + 1:] if draw(st.integers(0, 2)) == 0
            }})
    for _ in range(draw(st.integers(0, 5 * ncols))):
        rows.append(_combine(draw, rows, vals))
    rhs = [sum(v * x[c] for c, v in row.items()) for row in rows]
    bad = draw(st.sampled_from((None, "row", "empty")))
    if bad is not None:
        at = draw(st.integers(0, len(rows)))
        row = _combine(draw, rows[:at], vals) if bad == "row" and at else {}
        rows.insert(at, row)
        rhs.insert(at, sum(v * x[c] for c, v in row.items()) + draw(vals))
    return rows, rhs, ncols


@st.composite
def square_matrices(draw, vals=values):
    """Dense n x n rational matrices, n = 0..7; a row is often a
    combination of earlier ones, so singular matrices occur often."""
    n = draw(st.integers(0, 7))
    small = st.one_of(st.just(_ZERO), vals, vals)
    rows = []
    for _ in range(n):
        if rows and draw(st.integers(0, 2)) == 0:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(vals), draw(small)
            rows.append(tuple(x * u + y * v for u, v in zip(a, b)))
        else:
            rows.append(tuple(draw(small) for _ in range(n)))
    return tuple(rows)


@st.composite
def insert_sequences(draw):
    """Fields to insert one after another: random fields (zero ones
    among them), duplicates, multiples and combinations of earlier
    fields, so members come often and with nontrivial coordinates."""
    rng = draw(st.randoms(use_true_random=False))
    fields = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(("new", "new", "new", "zero", "copy", "combo", "combo")))
        if kind == "zero":
            fields.append(VectorField.zero(3))
        elif kind == "copy" and fields:
            fields.append(draw(st.sampled_from(fields)) * draw(st.sampled_from((1, -1, 2))))
        elif kind == "combo" and fields:
            combo = VectorField.zero(3)
            picks = st.sets(st.integers(0, len(fields) - 1), min_size=min(2, len(fields)),
                            max_size=3)
            for k in sorted(draw(picks)):
                combo = combo + fields[k] * draw(values)
            fields.append(combo)
        else:
            fields.append(rand_field(rng, max_terms=2, with_exp=draw(st.booleans())))
    return fields


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


# Fields with large centralizers and eigenspaces, so that kernels often
# survive the first constraint and later stages run on a proper subspace
# (random fields mostly cut the kernel to {0} at once).
STAGE_FIELDS = (
    "Dx", "Dy", "Dz", "x*Dx", "y*Dx", "z*Dy", "x*Dz", "z*Dz", "exp(z)*Dx", "exp(x)*Dy",
    "Dx + Dy", "Dx - Dz", "z*Dx + Dy",
)


@st.composite
def staged_systems(draw):
    pool = [parse_field(text) for text in STAGE_FIELDS]
    constraints = []
    for _ in range(draw(st.integers(2, 4))):
        known = VectorField.zero(3)
        for f in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2)):
            known = known + f * draw(values)
        if draw(st.booleans()):
            constraints.append(BracketConstraint.eigen(known, draw(st.sampled_from((0, 1, -1)))))
        else:
            constraints.append(BracketConstraint.commutes(known))
    exponents = draw(st.lists(st.sampled_from(EXPONENTS), min_size=1, max_size=2))
    components = draw(st.sets(st.integers(0, 2), min_size=1))
    ansatz = AnsatzSpace(3, exponents, draw(st.integers(0, 2)), sorted(components))
    return constraints, ansatz


# -- tests --------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.one_of(matrices(), matrices(vals=wide_values)))
def test_rref_matches_column_scan(system):
    rows, ncols = system
    assert rational_rref(*_linalg.rref(rows, ncols)) == reference_rref(rows, ncols)
    assert nullspace(rows, ncols) == reference_nullspace(rows, ncols)
    assert rank(rows, ncols) == len(reference_rref(rows, ncols)[0])


@settings(max_examples=300, deadline=None)
@given(affine_systems())
def test_solve_affine_matches_binary_search(system):
    rows, rhs, ncols = system
    got = rational_affine(solve_affine(rows, rhs, ncols), ncols)
    assert got == reference_solve_affine(rows, rhs, ncols)


@settings(max_examples=400, deadline=None)
@given(st.one_of(tall_affine_systems(), tall_affine_systems(vals=wide_values)))
def test_tall_solve_affine_matches_binary_search(system):
    rows, rhs, ncols = system
    got = rational_affine(solve_affine(rows, rhs, ncols), ncols)
    ref = reference_solve_affine(rows, rhs, ncols)
    assert got == ref
    if got[0] is not None:
        assert list(got[0]) == list(ref[0])
    assert [list(v) for v in got[1]] == [list(v) for v in ref[1]]


@settings(max_examples=120, deadline=None)
@given(constraint_systems())
def test_build_matches_exppoly_loop(system):
    # the stacked order that the witness depends on
    constraints, ansatz = system
    builds = [_build_system(cons, ansatz) for cons in constraints]
    assert_scaled_build(builds, reference_build(constraints, ansatz))


@settings(max_examples=300, deadline=None)
@given(st.one_of(square_matrices(), square_matrices(vals=wide_values)))
def test_invert_matches_dense(rows):
    try:
        expected = reference_invert(rows)
    except SingularMap:
        with pytest.raises(SingularMap):
            _invert(rows)
    else:
        assert _invert(rows) == expected


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(square_matrices(), square_matrices(vals=wide_values)).flatmap(
        lambda m: st.tuples(st.just(m), st.permutations(m))
    )
)
def test_det_matches_dense(case):
    # a row permutation often moves a zero onto the diagonal, so the
    # dense reference swaps rows and the echelon pivots are permuted
    for rows in case:
        assert det(rows) == reference_det(rows)


@settings(max_examples=300, deadline=None)
@given(insert_sequences())
def test_span_tracker_matches_reference(fields):
    tracker, ref = SpanTracker(), ReferenceSpanTracker()
    for f in fields:
        assert tracker.insert(f) == ref.insert(f)
        assert_primitive_table(tracker.table)


class FractionRowSpanTracker(SpanTracker):
    """The tracker on the rows it built before it read integer storage:
    one ``Fraction`` per term from ``rational_terms()`` and a
    ``Fraction(1)`` marker, which ``echelon_insert`` scales to
    integers."""

    def _vectorize(self, field, idx):
        vec = {}
        for i, comp in enumerate(field.components):
            for (exp, mono), c in comp.rational_terms():
                key = (i, exp, mono)
                col = self.key_index.get(key)
                if col is None:
                    col = -1 - len(self.key_index)
                    self.key_index[key] = col
                vec[col] = Fraction(c)
        vec[idx] = Fraction(1)
        return vec


def assert_tracker_matches_fraction_rows(fields):
    """Every insert gives the reference's answer, with ``Fraction``
    coordinates, and leaves the table the ``Fraction`` rows leave, row
    for row and entry order for entry order."""
    tracker, frac, ref = SpanTracker(), FractionRowSpanTracker(), ReferenceSpanTracker()
    for f in fields:
        got = tracker.insert(f)
        assert got == frac.insert(f) == ref.insert(f)
        assert all(type(v) is Fraction for v in got[1].values())
        assert [(p, list(row.items())) for p, row in tracker.table.items()] == [
            (p, list(row.items())) for p, row in frac.table.items()
        ]
        assert list(tracker.key_index.items()) == list(frac.key_index.items())
        assert_primitive_table(tracker.table)


def test_span_tracker_rows_over_mixed_denominators():
    fields = [parse_field(t, 2) for t in (
        "1/3*x*Dx + 2/5*exp(y/2)*Dy",
        "2/7*Dx - 5/3*y*Dy",
        "1/3*x*Dx",
        # (first - third) + 2*second
        "2/5*exp(y/2)*Dy + 4/7*Dx - 10/3*y*Dy",
        "3/11*x*y*Dx + 7/4*Dy",
    )]
    assert_tracker_matches_fraction_rows(fields)
    tracker = SpanTracker()
    for f in fields[:3]:
        assert tracker.insert(f) == (True, {})
    assert tracker.insert(fields[3]) == (False, {0: 1, 1: 2, 2: -1})


@st.composite
def mixed_denominator_sequences(draw):
    """``insert_sequences`` with each component axis scaled by its own
    rational, the same for every field, so the components of one field
    have different denominators and the dependencies stay."""
    scales = draw(st.lists(
        st.builds(Fraction, st.integers(-7, 7).filter(bool), st.sampled_from((1, 3, 5, 7, 9))),
        min_size=3, max_size=3,
    ))
    return [
        VectorField([c * s for c, s in zip(f.components, scales)])
        for f in draw(insert_sequences())
    ]


@settings(max_examples=200, deadline=None)
@given(mixed_denominator_sequences())
def test_span_tracker_rows_match_fraction_rows(fields):
    assert_tracker_matches_fraction_rows(fields)


def assert_primitive_table(table):
    """Every row of an echelon table is a primitive integer row: its
    pivot is its least column, with a positive entry, and the gcd of
    its entries is 1."""
    for p, row in table.items():
        assert min(row) == p and row[p] > 0
        assert all(type(v) is int for v in row.values())
        assert math.gcd(*row.values()) == 1


@settings(max_examples=300, deadline=None)
@given(st.one_of(matrices(), matrices(vals=wide_values)))
def test_echelon_table_rows_stay_primitive(system):
    # a content left in a stored row would grow through every later
    # cross-multiplication with it
    rows, _ = system
    table = {}
    for row in rows:
        before = dict(row)
        _kernels.echelon_insert(table, row)
        assert row == before and list(row) == list(before)
        assert_primitive_table(table)
    _kernels.back_substitute(table)
    assert_primitive_table(table)


def test_catalog_structure_constants_and_killing_det_match_reference():
    for entry in catalog.load_builtin():
        gens = entry.generators_at(entry.default_assignment())
        basis = close_under_bracket(list(gens.values()))
        tensor = structure_tensor(basis)
        assert tensor.constants == reference_structure_constants(basis), entry.id
        killing = tensor.killing_form()
        assert tensor.killing_det() == reference_det(killing), entry.id


def assert_closure_tensor_matches_general_path(fields):
    """The tensor read from a closure has exactly the constants of the
    pair-by-pair path over the same basis as a plain list."""
    closure = close_under_bracket(fields)
    assert structure_tensor(closure).constants == structure_tensor(list(closure)).constants


def test_closure_tensor_matches_general_path_on_catalog():
    for entry in catalog.load_builtin():
        gens = entry.generators_at(entry.default_assignment())
        assert_closure_tensor_matches_general_path(list(gens.values()))


@pytest.mark.parametrize("entry_id, params", [
    ("heisenberg.2", {"lambda": Fraction(-3, 2)}),
    ("sl2.2", {"l": Fraction(5)}),
    ("sl2xsl2.1", {"beta": Fraction(1, 3)}),
    ("sl2xsl2.3", {"a": Fraction(4), "b": Fraction(-8)}),
])
def test_closure_tensor_matches_general_path_at_parameters(entry_id, params):
    entry = catalog.get(entry_id)
    assignment = {**entry.default_assignment(), **params}
    assert entry.constraints_satisfied(assignment)
    gens = entry.generators_at(assignment)
    assert_closure_tensor_matches_general_path(list(gens.values()))


_SMALL_ENTRIES = [e.id for e in catalog.load_builtin() if len(e.generators) <= 8]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_SMALL_ENTRIES), st.integers(0, 2**32), st.booleans())
def test_closure_tensor_matches_general_path_on_recombined_generators(entry_id, seed, dependent):
    # an invertible recombination, cut to its first few fields, changes the
    # discovery order and leaves brackets that add basis fields; a dependent
    # third input shifts the insertion index of every later field
    rng = random.Random(seed)
    entry = catalog.get(entry_id)
    gens = list(entry.generators_at(entry.default_assignment()).values())
    matrix = rand_invertible(rng, len(gens))
    fields = [
        sum((g * c for g, c in zip(gens, row) if c), VectorField.zero(entry.dim))
        for row in matrix[:rng.randint(2, len(gens))]
    ]
    if dependent:
        fields.insert(2, fields[0] * Fraction(-2) + fields[1])
    assert_closure_tensor_matches_general_path(fields)


@settings(max_examples=300, deadline=None)
@given(affine_systems())
def test_nullspace_one_pass_matches_column_scan(system):
    # augmented rows also hold the rhs column ncols, which is never free
    rows, rhs, ncols = system
    aug = [{**r, ncols: b} if b else dict(r) for r, b in zip(rows, rhs)]
    for matrix, width in ((rows, ncols), (aug, ncols + 1)):
        ref = nullspace_from_rref(*reference_rref(matrix, width), ncols)
        pivots, irows = _kernels.rref(matrix, width)
        got = []
        for vec in _kernels.kernel_vectors(pivots, irows, ncols):
            scale = next(iter(vec.values()))  # at the free column, first
            got.append({c: Fraction(v, scale) for c, v in vec.items()})
        assert [list(v.items()) for v in got] == [list(v.items()) for v in ref]
    ref = reference_nullspace(rows, ncols)
    assert [list(v.items()) for v in nullspace(rows, ncols)] == [list(v.items()) for v in ref]


@st.composite
def kernel_matrices(draw, vals=values):
    """Sparse matrices of a drawn rank r: r independent rows (a pivot
    entry each and entries only in later pivot or free columns, in a
    random column order), then, for a rank-deficient matrix, rows that
    combine earlier ones."""
    ncols = draw(st.integers(1, 8))
    order = draw(st.permutations(range(ncols)))
    r = draw(st.integers(0, ncols))
    rows = []
    for k in range(r):
        rows.append({order[k]: draw(vals), **{
            q: draw(vals) for q in order[k + 1:] if draw(st.integers(0, 2)) == 0
        }})
    if rows and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 2 * ncols))):
            rows.insert(draw(st.integers(0, len(rows))), _combine(draw, rows, vals))
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    kernel_matrices(), kernel_matrices(vals=wide_values), matrices(vals=wide_values),
))
def test_kernel_vectors_are_positive_multiples_of_nullspace_from_rref(system):
    # one integer vector per free column, with the keys of the rational
    # one, in order, and every entry the same positive multiple of it
    rows, ncols = system
    ref = nullspace_from_rref(*reference_rref(rows, ncols), ncols)
    pivots, irows = _kernels.rref(rows, ncols)
    got = _kernels.kernel_vectors(pivots, irows, ncols)
    assert len(got) == len(ref) == ncols - len(pivots)
    for vec, unit in zip(got, ref):
        assert list(vec) == list(unit)
        assert all(type(v) is int for v in vec.values())
        scale = next(iter(vec.values()))
        assert scale > 0
        assert all(v == scale * unit[c] for c, v in vec.items())


def _is_homogeneous(system):
    return all(c.kind != "equals" for c in system[0])


def _to_field(vec, ansatz):
    keys = ansatz.basis_keys()
    terms = {c: {} for c in range(ansatz.dim)}
    for m, v in vec.items():
        comp, exp, mono = keys[m]
        terms[comp][(exp, mono, ())] = v
    return VectorField([ExpPoly.from_terms(ansatz.dim, terms[c]) for c in range(ansatz.dim)])


def _check_staged(constraints, ansatz):
    ref, _, ref_rank, _, _ = reference_stacked_solve(constraints, ansatz)
    ref_cols = len(ansatz.basis_keys())
    staged = _staged_solve(constraints, ansatz)[0]
    assert [list(v.items()) for v in staged] == [list(v.items()) for v in ref]
    result = solve(constraints, ansatz)
    assert (result.matrix_rank, result.ansatz_dim) == (ref_rank, ref_cols)
    assert result.particular is None and result.inconsistency is None
    expected = [_to_field(v, ansatz) for v in ref]
    assert result.basis == expected
    assert [format_field(b) for b in result.basis] == [format_field(b) for b in expected]


@settings(max_examples=200, deadline=None)
@given(st.one_of(constraint_systems().filter(_is_homogeneous), staged_systems()))
def test_staged_solve_matches_stacked(system):
    _check_staged(*system)


@settings(max_examples=100, deadline=None)
@given(constraint_systems().filter(_is_homogeneous), st.data())
def test_build_over_columns_restricts_the_full_build(system, data):
    constraints, ansatz = system
    ncols = len(ansatz.basis_keys())
    mask = data.draw(st.lists(st.booleans(), min_size=ncols, max_size=ncols))
    columns = {m for m, keep in enumerate(mask) if keep}
    for cons in constraints:
        targets, rows, _, _ = _build_system(cons, ansatz)
        full = {
            t: {c: v for c, v in row.items() if c in columns}
            for t, row in zip(targets, rows)
        }
        targets, rows, _, _ = _build_system(cons, ansatz, columns)
        assert {t: r for t, r in zip(targets, rows) if r} == {t: r for t, r in full.items() if r}


# exponent vectors over denominators 2 and 3, besides those of EXPONENTS
FRACTIONAL_EXPONENTS = EXPONENTS + (
    (0, Fraction(1, 3), 0), (Fraction(-1, 2), 0, Fraction(2, 3)), (0, 0, Fraction(3, 2)),
)
FRACTIONAL_EIGENVALUES = (0, 1, -2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6))


def _fractional_field(rng):
    """A random field, at times with a component times exp(q.x) for a q
    over denominators 2 and 3."""
    field = rand_field(rng, max_terms=2)
    comps = list(field.components)
    if rng.random() < 0.6:
        i = rng.randrange(3)
        q = [rng.choice((0, Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3))) for _ in range(3)]
        comps[i] = comps[i] * exponential(3, q)
    return VectorField(comps)


@st.composite
def integer_build_systems(draw):
    """Constraint lists with eigenvalues and ``equals`` targets over
    denominators, known fields and ansatz blocks with exponent
    denominators 2 and 3, and at times a subset of the columns."""
    rng = draw(st.randoms(use_true_random=False))
    constraints = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("eigen", "zero", "equals")))
        known = _fractional_field(rng)
        if kind == "eigen":
            value = draw(st.sampled_from(FRACTIONAL_EIGENVALUES))
            constraints.append(BracketConstraint.eigen(known, value))
        elif kind == "zero":
            constraints.append(BracketConstraint.commutes(known))
        else:
            scale = draw(st.sampled_from((1, Fraction(1, 7), Fraction(-5, 6))))
            target = _fractional_field(rng) * scale
            constraints.append(BracketConstraint.equals(known, target))
    exponents = draw(st.lists(st.sampled_from(FRACTIONAL_EXPONENTS), min_size=1, max_size=3))
    components = draw(st.sets(st.integers(0, 2), min_size=1))
    ansatz = AnsatzSpace(3, exponents, draw(st.integers(0, 2)), sorted(components))
    columns = None
    if draw(st.booleans()):
        ncols = ansatz.dimension()
        columns = set(draw(st.lists(st.integers(0, ncols - 1), max_size=ncols)))
    return constraints, ansatz, columns


@settings(max_examples=150, deadline=None)
@given(integer_build_systems())
def test_integer_build_matches_fraction_build(system):
    constraints, ansatz, columns = system
    for cons in constraints:
        got = _build_system(cons, ansatz, columns)
        assert_scaled_build([got], reference_build([cons], ansatz, columns))


# Later stages combine kernel vectors of several terms, so the sums come
# out with their keys in another order than the stacked solve's.
@pytest.mark.parametrize("fields, degree", [
    (("Dx + Dy", "Dx - Dz"), 2),
    (("Dx + Dy", "z*Dx + Dy"), 2),
    (("Dx - Dz", "Dx + Dy"), 3),
])
def test_staged_solve_matches_stacked_examples(fields, degree):
    constraints = [BracketConstraint.commutes(parse_field(f)) for f in fields]
    _check_staged(constraints, AnsatzSpace(3, max_degree=degree))


# -- staged affine solve --------------------------------------------------------

# a term that no field of STAGE_FIELDS or rand_field reaches from the
# ansatz exponents of EXPONENTS: its exponent is far from their sums
UNREACHABLE = ("x^9*exp(7*y)*Dx", "x^9*exp(7*y)*Dy", "x^9*exp(7*y)*Dz")


def _known_field(draw, rng, pool):
    """A combination of fields with large centralizers, or a random field
    with exponentials (which mostly cuts the kernel to {0} at once)."""
    if draw(st.booleans()):
        return rand_field(rng, max_terms=2)
    known = VectorField.zero(3)
    for f in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2)):
        known = known + f * draw(values)
    return known


@st.composite
def planted_systems(draw, kinds=("equals",)):
    """[K_i, X] = [K_i, X0] for an X0 in the ansatz (eigen and zero
    constraints among them when ``kinds`` allows), perturbed by nothing,
    by terms no column reaches (target-only rows) or by a term of some
    [K_j, e] for a basis field e (a conflicting image row)."""
    rng = draw(st.randoms(use_true_random=False))
    pool = [parse_field(text) for text in STAGE_FIELDS]
    exponents = draw(st.lists(st.sampled_from(EXPONENTS), min_size=1, max_size=2))
    components = draw(st.sets(st.integers(0, 2), min_size=1))
    ansatz = AnsatzSpace(3, exponents, draw(st.integers(0, 2)), sorted(components))
    keys = ansatz.basis_keys()
    x0 = VectorField.zero(3)
    for key in draw(st.lists(st.sampled_from(keys), max_size=3)):
        x0 = x0 + ansatz.basis_field(key) * draw(values)
    constraints = []
    for _ in range(draw(st.integers(1, 4))):
        known = _known_field(draw, rng, pool)
        kind = draw(st.sampled_from(kinds))
        if kind == "eigen":
            constraints.append(BracketConstraint.eigen(known, draw(st.sampled_from((0, 1, -1)))))
        elif kind == "zero":
            constraints.append(BracketConstraint.commutes(known))
        else:
            constraints.append(BracketConstraint.equals(known, known.bracket(x0)))
    if not any(c.kind == "equals" for c in constraints):
        constraints.append(BracketConstraint.equals(pool[0], pool[0].bracket(x0)))
    equals = [i for i, c in enumerate(constraints) if c.kind == "equals"]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.sampled_from(equals))
        cons = constraints[i]
        if draw(st.booleans()):
            extra = parse_field(draw(st.sampled_from(UNREACHABLE)))
        else:
            image = cons.known.bracket(ansatz.basis_field(draw(st.sampled_from(keys))))
            comp = draw(st.integers(0, 2))
            terms = image.components[comp].term_map()
            if not terms:
                continue
            key = draw(st.sampled_from(sorted(terms)))
            parts = [ExpPoly.zero(3)] * 3
            parts[comp] = ExpPoly.from_terms(3, {(*key, ()): draw(values)})
            extra = VectorField(parts)
        constraints[i] = BracketConstraint.equals(cons.known, cons.target + extra)
    return constraints, ansatz


def _check_affine(constraints, ansatz):
    """``solve`` against the stacked solve: witness text, rank, basis and
    particular solution (values and key order), also at the stacked
    matrix's row count as the target bound."""
    hom, particular, mrank, detail, nrows = reference_stacked_solve(constraints, ansatz)
    with mock.patch.object(solve_module, "TARGET_BOUND", nrows):
        got = _staged_solve(constraints, ansatz)
        result = solve(constraints, ansatz)
    assert got[2] == mrank
    if detail is not None:
        assert got[:2] == ([], None)
    else:
        assert [list(v.items()) for v in got[0]] == [list(v.items()) for v in hom]
        assert list(got[1].items()) == list(particular.items())
    assert (result.inconsistency, result.matrix_rank) == (detail, mrank)
    assert result.ansatz_dim == len(ansatz.basis_keys())
    if detail is None:
        expected = _to_field(particular, ansatz)
        assert result.particular == expected
        assert format_field(result.particular) == format_field(expected)
        assert result.basis == [_to_field(v, ansatz) for v in hom]
    else:
        assert (result.basis, result.particular) == ([], None)
    return result


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    planted_systems(),
    planted_systems(kinds=("equals", "zero", "eigen")),
    constraint_systems().filter(lambda system: not _is_homogeneous(system)),
))
def test_staged_affine_solve_matches_stacked(system):
    _check_affine(*system)


# Fields that map most one-term basis fields to terms no other basis
# field reaches: most rows of a stage hold one entry, and the nilpotent
# ones (y*Dx, z*Dy, ...) leave rows that hold one entry only once other
# rows pinned their columns.
PIN_FIELDS = (
    "Dx", "Dy", "Dz", "x*Dx", "y*Dy", "z*Dz", "y*Dx", "z*Dy", "x*Dz", "exp(z)*Dx",
    "x*Dx + 2*y*Dy", "x*Dx - z*Dz", "y*Dx + Dz",
)


@st.composite
def pinned_systems(draw):
    """Homogeneous or ``equals`` systems of fields from PIN_FIELDS.  An
    ``equals`` system is [K_i, X] = [K_i, X0] for an X0 in the ansatz,
    perturbed by nothing, by a term no column reaches, by a term of
    [K_i, e] for a basis field e, or by a term of [K_i, e] for a basis
    field e that the first constraint moves, which it mostly pins to 0:
    a later row then meets a pinned coordinate with a nonzero
    right-hand side."""
    pool = [parse_field(text) for text in PIN_FIELDS]
    exponents = draw(st.lists(st.sampled_from(EXPONENTS[:3]), min_size=1, max_size=2))
    components = draw(st.sets(st.integers(0, 2), min_size=1))
    ansatz = AnsatzSpace(3, exponents, draw(st.integers(1, 3)), sorted(components))
    knowns = [
        draw(st.sampled_from(pool)) * draw(st.sampled_from((1, -2, Fraction(1, 3))))
        for _ in range(draw(st.integers(1, 4)))
    ]
    if draw(st.booleans()):
        constraints = [
            BracketConstraint.eigen(k, draw(st.sampled_from((0, 1, -1, 2))))
            if draw(st.booleans()) else BracketConstraint.commutes(k)
            for k in knowns
        ]
        return constraints, ansatz
    keys = ansatz.basis_keys()
    x0 = VectorField.zero(3)
    for key in draw(st.lists(st.sampled_from(keys), max_size=3)):
        x0 = x0 + ansatz.basis_field(key) * draw(values)
    constraints = [BracketConstraint.equals(k, k.bracket(x0)) for k in knowns]
    moved = [key for key in keys if not knowns[0].bracket(ansatz.basis_field(key)).is_zero()]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(knowns) - 1))
        how = draw(st.sampled_from(("unreachable", "image", "pinned")))
        if how == "unreachable":
            extra = parse_field(draw(st.sampled_from(UNREACHABLE)))
        else:
            if how == "pinned" and (i == 0 or not moved):
                continue
            key = draw(st.sampled_from(moved if how == "pinned" else keys))
            image = knowns[i].bracket(ansatz.basis_field(key))
            terms = [
                (comp, term)
                for comp in range(3)
                for term in sorted(image.components[comp].term_map())
            ]
            if not terms:
                continue
            comp, term = draw(st.sampled_from(terms))
            parts = [ExpPoly.zero(3)] * 3
            parts[comp] = ExpPoly.from_terms(3, {(*term, ()): draw(values)})
            extra = VectorField(parts)
        constraints[i] = BracketConstraint.equals(knowns[i], constraints[i].target + extra)
    return constraints, ansatz


@settings(max_examples=300, deadline=None)
@given(pinned_systems())
def test_pinned_stages_match_stacked(system):
    constraints, ansatz = system
    if _is_homogeneous(system):
        _check_staged(constraints, ansatz)
    else:
        _check_affine(constraints, ansatz)


def _equals(known, x0, extra=None):
    known = parse_field(known)
    target = known.bracket(parse_field(x0))
    return BracketConstraint.equals(known, target + parse_field(extra) if extra else target)


KERNEL_ZERO_AFTER_3 = ("x*Dx + 2*y*Dy + 3*z*Dz", "x*Dy + y*Dz", "Dx", "Dy", "Dz")


def test_staged_affine_kernel_zero_midway():
    constraints = [_equals(k, "x*y*Dz") for k in KERNEL_ZERO_AFTER_3]
    ansatz = AnsatzSpace(3, max_degree=2)
    assert [_check_affine(constraints[:n], ansatz).dimension for n in (2, 3)] == [2, 0]
    result = _check_affine(constraints, ansatz)
    assert format_field(result.particular) == "x*y*Dz"


# One system per ordering rule of the stacked witness.  X0 = x*y*Dz; in
# [Dz, X] = [Dz, X0] + y*Dx the extra term is in the image of Dz, and it
# conflicts with [Dy, X] = [Dy, X0], which X0 + y*z*Dx would break.
@pytest.mark.parametrize("constraints, degree, detail", [
    # a target-only row of constraint 0 comes after every image row, and
    # constraint 2 has a conflicting image row
    ([_equals("Dx", "x*y*Dz", "x^9*Dz"), _equals("Dy", "x*y*Dz"),
      _equals("Dz", "x*y*Dz", "y*Dx")], 2,
     "constraint 2 has no solution at component 1"),
    # only target-only rows: the first constraint that has one
    ([_equals("Dx", "x*y*Dz"), _equals("Dy", "x*y*Dz", "x^9*Dy"),
      _equals("Dz", "x*y*Dz", "x^9*Dx")], 2,
     "constraint 1 has no solution at component 2"),
    # within one constraint, a conflicting image row before its own
    # target-only row
    ([_equals("Dy", "x*y*Dz"), _equals("Dz", "x*y*Dz", "x^9*Dz + y*Dx")], 2,
     "constraint 1 has no solution at component 1"),
    # conflicting image rows in constraints 1 and 2 (z*Dx conflicts with
    # [Dz, X] = 0) after a target-only row: the earlier one
    ([_equals("Dy", "x*y*Dz", "x^9*Dz"), _equals("Dz", "x*y*Dz", "y*Dx"),
      _equals("Dx", "x*y*Dz", "z*Dx")], 2,
     "constraint 1 has no solution at component 1"),
    # [x*Dx, x*Dx] = 0 leaves an empty image row at x*Dx: a target term
    # there is a conflicting image row, not a target-only one
    ([_equals("Dy", "x*y*Dz", "x^9*Dz"), _equals("x*Dx", "x*y*Dz", "x*Dx")], 2,
     "constraint 1 has no solution at component 1"),
    # the same at the first stage, which is built over every column
    ([_equals("x*Dx", "x*y*Dz", "x^9*Dz + x*Dx")], 2,
     "constraint 0 has no solution at component 1"),
    # the kernel is {0} after three constraints (KERNEL_ZERO_AFTER_3), so
    # the later stages run on the particular solution X0 alone, and any
    # term in the image conflicts
    ([_equals(k, "x*y*Dz", extra) for k, extra in zip(
        KERNEL_ZERO_AFTER_3, (None, "x^9*Dy", None, "Dx", None))], 2,
     "constraint 3 has no solution at component 1"),
    # on that one point: it passes both later constraints; it fails
    # constraint 3 only through a term no column reaches; it fails
    # constraints 3 and 4 through their images, and 3 is named; and a
    # target over denominators 6 and 7 passes through it
    ([_equals(k, "x*y*Dz") for k in KERNEL_ZERO_AFTER_3], 2, None),
    ([_equals(k, "x*y*Dz", extra) for k, extra in zip(
        KERNEL_ZERO_AFTER_3, (None, None, None, "x^9*Dy", None))], 2,
     "constraint 3 has no solution at component 2"),
    ([_equals(k, "x*y*Dz", extra) for k, extra in zip(
        KERNEL_ZERO_AFTER_3, (None, None, None, "Dx", "Dy"))], 2,
     "constraint 3 has no solution at component 1"),
    ([_equals(k, "5/6*x*y*Dz - 3/7*z*Dx") for k in KERNEL_ZERO_AFTER_3], 2, None),
], ids=[
    "image-row-after-target-only-row", "target-only-rows", "own-image-row-first",
    "earlier-image-row", "emptied-image-row", "emptied-image-row-at-stage-0",
    "kernel-zero-midway", "one-point-holds", "one-point-target-only-row",
    "one-point-two-image-rows", "one-point-fractional-target",
])
def test_staged_affine_witness_examples(constraints, degree, detail):
    result = _check_affine(constraints, AnsatzSpace(3, max_degree=degree))
    assert result.inconsistency == detail


@pytest.mark.parametrize("x0, extras, built", [
    ("x*y*Dz", (None,) * 5, [(0, True), (1, False), (2, False)]),
    ("5/6*x*y*Dz - 3/7*z*Dx", (None,) * 5, [(0, True), (1, False), (2, False)]),
    # a constraint the point fails is built over the point's columns,
    # then again over every column for its witness
    ("x*y*Dz", (None, None, None, "x^9*Dy", None),
     [(0, True), (1, False), (2, False), (3, False), (3, True)]),
    ("x*y*Dz", (None, None, None, "Dx", "Dy"),
     [(0, True), (1, False), (2, False), (3, False), (3, True)]),
])
def test_one_point_builds_only_the_constraints_it_fails(x0, extras, built, monkeypatch):
    constraints = [_equals(k, x0, extra) for k, extra in zip(KERNEL_ZERO_AFTER_3, extras)]
    ansatz = AnsatzSpace(3, max_degree=2)
    calls = []
    build = solve_module._build_system

    def recording(cons, ansatz, columns=None):
        calls.append((constraints.index(cons), columns is None))
        return build(cons, ansatz, columns)

    monkeypatch.setattr(solve_module, "_build_system", recording)
    solve(constraints, ansatz)
    assert calls == built


def test_each_residual_at_the_point_is_computed_once(monkeypatch):
    # the staged solve decides constraints 3 and 4 by their residuals at
    # the one point, which is the particular solution; the soundness
    # check of solve computes only the other three
    constraints = [_equals(k, "x*y*Dz") for k in KERNEL_ZERO_AFTER_3]
    calls = []
    residual = BracketConstraint.residual

    def counting(cons, x):
        calls.append(constraints.index(cons))
        return residual(cons, x)

    monkeypatch.setattr(BracketConstraint, "residual", counting)
    result = solve(constraints, AnsatzSpace(3, max_degree=2))
    assert format_field(result.particular) == "x*y*Dz"
    assert calls == [3, 4, 0, 1, 2]


def test_staged_affine_rank_counts_every_constraint():
    # [Dx, X] = Dy conflicts with [Dx, X] = Dx; [Dz, X] = 0, after the
    # witness, still adds to the rank of the stacked matrix
    constraints = [
        BracketConstraint.equals(parse_field("Dx"), parse_field("Dx")),
        BracketConstraint.equals(parse_field("Dx"), parse_field("Dy")),
        BracketConstraint.commutes(parse_field("Dz")),
    ]
    ansatz = AnsatzSpace(3, max_degree=1)
    result = _check_affine(constraints, ansatz)
    assert result.inconsistency == "constraint 1 has no solution at component 1"
    prefix = _check_affine(constraints[:2], ansatz)
    assert prefix.matrix_rank < result.matrix_rank


def test_staged_affine_particular_is_zero_at_free_columns():
    # X0 = z*Dx + x*Dy is one solution of [Dz, X] = Dx; the reported one
    # is zero at every free column of the kernel of ad Dz
    constraints = [_equals("Dz", "z*Dx + x*Dy")]
    ansatz = AnsatzSpace(3, max_degree=1)
    result = _check_affine(constraints, ansatz)
    assert format_field(result.particular) == "z*Dx"
    assert result.dimension == 9


@st.composite
def spanning_sets(draw):
    """A matrix and a random invertible recombination of the nullspace
    basis ``nullspace_from_rref`` gives for it."""
    rows, ncols = draw(matrices())
    basis = reference_nullspace(rows, ncols)
    mixed = []
    for i in range(len(basis)):
        scale = draw(values)
        vec = {c: v * scale for c, v in basis[i].items()}
        for j in draw(st.sets(st.integers(0, len(basis) - 1), max_size=2)) - {i}:
            x = draw(values)
            for c, v in basis[j].items():
                s = vec.get(c, _ZERO) + x * v
                if s:
                    vec[c] = s
                else:
                    vec.pop(c, None)
        mixed.append(vec)
    return draw(st.permutations(mixed)), ncols, basis


@settings(max_examples=300, deadline=None)
@given(spanning_sets())
def test_reduced_kernel_basis_is_the_nullspace_basis(case):
    mixed, ncols, basis = case
    # each vector is scaled and gets multiples of others added, which can
    # make the set dependent; those draws span less and are skipped
    if rank(mixed, ncols) < len(basis):
        return
    got = _linalg.reduced_kernel_basis(mixed, ncols)
    assert [list(v.items()) for v in got] == [list(v.items()) for v in basis]


# -- graded column selection --------------------------------------------------

GRADED_EXPONENTS = EXPONENTS + ((0, 0, -1), (0, Fraction(1, 3), 0), (1, 1, 0), (0, 2, -1))
SMALL = (1, -1, 2, -2, Fraction(1, 2), Fraction(-2, 3))


@st.composite
def graded_fields(draw):
    """``(H, a, b)`` for a graded H = sum_i (a_i x_i + b_i) d_i with
    b_i = 0 wherever a_i != 0."""
    a, b = [], []
    for _ in range(3):
        mode = draw(st.sampled_from(("none", "a", "b", "b")))
        a.append(Fraction(draw(st.sampled_from(SMALL))) if mode == "a" else _ZERO)
        b.append(Fraction(draw(st.sampled_from(SMALL))) if mode == "b" else _ZERO)
    known = VectorField([
        ExpPoly.coord(3, i) * a[i] + ExpPoly.const(3, b[i]) for i in range(3)
    ])
    return known, a, b


@st.composite
def graded_ansatze(draw):
    """Exponent blocks with and without some a_i q_i != 0."""
    exponents = draw(st.lists(st.sampled_from(GRADED_EXPONENTS), min_size=1, max_size=3))
    components = draw(st.sets(st.integers(0, 2), min_size=1))
    return AnsatzSpace(3, exponents, draw(st.integers(0, 3)), sorted(components))


def _weight(a, b, key):
    """a.m + b.q - a_c, the eigenvalue of ad H on the basis field ``key``
    up to lower-degree terms."""
    c, exp, mono = key
    q = decode_exponents(exp)
    return sum(x * m for x, m in zip(a, mono)) + sum(x * y for x, y in zip(b, q)) - a[c]


def _graded_eigen(draw, key):
    """[H, X] = cX for a graded H, whose c is often the weight of the
    basis field ``key``, so that kernels are often nonzero."""
    known, a, b = draw(graded_fields())
    value = draw(st.one_of(st.just(_weight(a, b, key)), st.just(_weight(a, b, key)), values))
    return BracketConstraint.eigen(known, value)


@st.composite
def graded_systems(draw):
    """One graded constraint, a commutation or an eigen constraint."""
    ansatz = draw(graded_ansatze())
    if draw(st.booleans()):
        return BracketConstraint.commutes(draw(graded_fields())[0]), ansatz
    return _graded_eigen(draw, draw(st.sampled_from(ansatz.basis_keys()))), ansatz


# (1/2, 0, 0) comes before (1, 0, 0) as Fractions but after it encoded
COLUMN_EXPONENT_ENTRIES = (0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3))


@st.composite
def column_spaces(draw):
    """Ansatze of dimension 1-4 and degree 0-6 over 1-3 exponent vectors,
    drawn in any order, and a subset of the components."""
    dim = draw(st.integers(1, 4))
    entry = st.sampled_from(COLUMN_EXPONENT_ENTRIES)
    vector = st.tuples(*[entry] * dim)
    exponents = draw(st.lists(vector, min_size=1, max_size=3))
    components = draw(st.sets(st.integers(0, dim - 1), min_size=1))
    return AnsatzSpace(dim, exponents, draw(st.integers(0, 6)), components)


@settings(max_examples=300, deadline=None)
@given(column_spaces(), st.data())
def test_column_mapping_matches_key_table(ansatz, data):
    keys, col_index = reference_columns(ansatz)
    assert ansatz.basis_keys() == list(keys)
    assert ansatz.dimension() == len(keys)
    # a monomial's rank is its position in one block of the table
    ranks = {mono: r for r, mono in enumerate(sorted({key[2] for key in keys}))}
    for m, (c, exp, mono) in enumerate(keys):
        assert ansatz.key(m) == (c, exp, mono)
        assert ansatz.column(c, exp, mono) == m
        r = ranks[mono]
        assert ansatz.rank(mono) == r and ansatz.monomial(r) == mono
        assert [(comp, start + r) for comp, start in ansatz.starts(exp)] == [
            (comp, col_index[(comp, exp, mono)]) for comp in ansatz.components
        ]
    # the blocks a build visits: sorted encoded order, ranks ascending,
    # each monomial with its rank
    columns = data.draw(st.sets(st.integers(0, len(keys) - 1)))
    for wanted in (None, columns):
        by_exp = {}
        for m in range(len(keys)) if wanted is None else columns:
            by_exp.setdefault(keys[m][1], set()).add(keys[m][2])
        expected = {
            exp: [(ranks[mono], mono) for mono in sorted(by_exp[exp])]
            for exp in sorted(by_exp)
        }
        assert ansatz.blocks(wanted) == expected
        assert list(ansatz.blocks(wanted)) == list(expected)


@pytest.mark.parametrize("dim, degrees", [
    (1, range(7)), (2, range(7)), (3, range(7)), (4, range(7)), (5, range(7)),
    (3, range(12, 33, 5)),
])
def test_ranks_match_the_monomial_list(dim, degrees):
    exponents = [(0,) * dim, (Fraction(1, 2),) + (0,) * (dim - 1)]
    for degree in degrees:
        monos = solve_module._monomials(dim, degree)
        ansatz = AnsatzSpace(dim, exponents, degree, range(dim - 1, -1, -2))
        assert [ansatz.rank(mono) for mono in monos] == list(range(len(monos)))
        assert [ansatz.monomial(r) for r in range(len(monos))] == monos
        encoded = [encode_exponents(e) for e in ansatz.exponents]
        keys = [(c, exp, mono) for c in ansatz.components for exp in encoded for mono in monos]
        assert ansatz.basis_keys() == keys
        assert [ansatz.key(m) for m in range(len(keys))] == keys
        assert [ansatz.column(*key) for key in keys] == list(range(len(keys)))
        pairs = list(enumerate(monos))
        assert ansatz.blocks() == {exp: pairs for exp in sorted(encoded)}
        # runs of two columns and gaps, in the last block of the last component
        columns = {m for m in range(len(keys) - len(monos), len(keys)) if m % 3}
        kept = [pairs[m % len(monos)] for m in sorted(columns)]
        assert ansatz.blocks(columns) == ({encoded[-1]: kept} if kept else {})


UNGRADED_FIELDS = ("y*Dx", "z*Dy", "x*Dz", "exp(z)*Dx", "exp(x)*Dy", "z*Dx + Dy", "x*Dx + Dx")


@st.composite
def graded_lists(draw):
    """2-3 graded eigen constraints whose eigenvalues are often the
    weights of one common basis field, and at times an ungraded one, in
    random order."""
    ansatz = draw(graded_ansatze())
    key = draw(st.sampled_from(ansatz.basis_keys()))
    constraints = [_graded_eigen(draw, key) for _ in range(draw(st.integers(2, 3)))]
    if draw(st.booleans()):
        known = parse_field(draw(st.sampled_from(UNGRADED_FIELDS)))
        constraints.append(BracketConstraint.eigen(known, draw(st.sampled_from((0, 1, -1)))))
    return draw(st.permutations(constraints)), ansatz


def _survives(a, b, key):
    """Whether the basis field ``key`` lies in a block with no
    a_i q_i != 0 and, when b has one constant term b_i, has m_i = 0."""
    constant = [i for i, v in enumerate(b) if v]
    lowered = len(constant) == 1 and key[2][constant[0]] > 0
    q = decode_exponents(key[1])
    return not any(x * y for x, y in zip(a, q)) and not lowered


def _weight_columns(graded, ansatz):
    """The columns of weight c for every graded ``(a, b, c)`` that
    ``_survives`` keeps, by the ``Fraction`` weight of each key."""
    def keeps(a, b, c, key):
        return _survives(a, b, key) and _weight(a, b, key) == c

    keys = ansatz.basis_keys()
    return [m for m, key in enumerate(keys) if all(keeps(*g, key) for g in graded)]


def _graded_of(constraints):
    """The ``(a, b, c)`` of the graded constraints, in order."""
    out = []
    for cons in constraints:
        weights = _graded_weights(cons.known)
        if weights is not None:
            out.append((*weights, cons.eigenvalue))
    return out


def _build_kernel(cons, ansatz):
    """Kernel of one constraint by the full build and elimination."""
    _, rows, _, _ = _build_system(cons, ansatz)
    ncols = len(ansatz.basis_keys())
    return _linalg.reduced_kernel_basis(nullspace(rows, ncols), ncols)


@settings(max_examples=300, deadline=None)
@given(graded_systems())
def test_graded_kernel_matches_build(system):
    cons, ansatz = system
    graded = _graded_of([cons])
    assert len(graded) == 1
    ref = _build_kernel(cons, ansatz)
    columns = _graded_columns(graded, ansatz)
    assert columns == _weight_columns(graded, ansatz)
    assert set().union(*ref) <= set(columns)
    got = _staged_solve([cons], ansatz)[0]
    assert [list(v.items()) for v in got] == [list(v.items()) for v in ref]


@settings(max_examples=200, deadline=None)
@given(graded_lists())
def test_graded_lists_match_stacked(system):
    constraints, ansatz = system
    graded = _graded_of(constraints)
    assert len(graded) in (2, 3)
    ref = reference_stacked_solve(constraints, ansatz)[0]
    # every graded constraint narrows the columns, wherever it stands
    columns = _graded_columns(graded, ansatz)
    assert columns == _weight_columns(graded, ansatz)
    assert set().union(*ref) <= set(columns)
    got = _staged_solve(constraints, ansatz)[0]
    assert [list(v.items()) for v in got] == [list(v.items()) for v in ref]


@settings(max_examples=150, deadline=None)
@given(graded_systems())
def test_graded_columns_are_the_kernel(system):
    """With at most one constant term, the kept columns are exactly the
    kernel of the constraint: the union of the supports of its reduced
    basis."""
    cons, ansatz = system
    graded = _graded_of([cons])
    (_, b, _), = graded
    assume(sum(1 for v in b if v) <= 1)
    ref = _build_kernel(cons, ansatz)
    assert _graded_columns(graded, ansatz) == sorted(set().union(*ref))


def test_two_constant_terms_keep_the_weight_columns():
    """[Dx + Dy, X] = 0 lowers x and y together, so (x - y)*Dz is in its
    kernel, and the column x*Dz stays kept though its m_x is 1."""
    ansatz = AnsatzSpace(3, max_degree=2)
    cons = BracketConstraint.commutes(parse_field("Dx + Dy"))
    assert cons.residual(parse_field("(x - y)*Dz")).is_zero()
    columns = _graded_columns(_graded_of([cons]), ansatz)
    assert ansatz.column(2, zero_exponents(3), (1, 0, 0)) in columns
    ref = _build_kernel(cons, ansatz)
    assert set().union(*ref) <= set(columns)
    got = _staged_solve([cons], ansatz)[0]
    assert [list(v.items()) for v in got] == [list(v.items()) for v in ref]


@pytest.mark.parametrize("text, value", [("Dy", 0), ("x*Dx + Dz", 1), ("-x*Dx - 2*y*Dy + Dz", 1)])
def test_one_constant_term_keeps_the_kernel(text, value):
    """A known field with one constant term b_i d_i keeps exactly its
    kernel: the columns of weight c with m_i = 0, in every block."""
    ansatz = AnsatzSpace(3, [(0, 0, 0), (0, 0, 1), (1, 0, 0)], 3)
    cons = BracketConstraint.eigen(parse_field(text), value)
    graded = _graded_of([cons])
    columns = _graded_columns(graded, ansatz)
    assert columns == sorted(set().union(*_build_kernel(cons, ansatz)))
    assert columns == _weight_columns(graded, ansatz)


# Blocks over denominators 2 and 3 for the graded start.  A block
# survives only where every a_i of its nonzero q_i vanishes.
WEIGHT_EXPONENTS = GRADED_EXPONENTS + (
    (Fraction(1, 2), 0, 0), (0, 0, Fraction(2, 3)), (0, Fraction(-3, 2), Fraction(1, 3)),
)
WEIGHT_ENTRIES = (0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2))


def _graded_triples(draw, a_rows, b_rows, ansatz):
    """``(a, b, c)`` for each row pair.  Half the lists take as every c
    the weight of one basis field that every row pair lets survive
    (``_survives``), so that field and often many more are kept; the
    others take the weight or a random value for each c."""
    a_rows = [[Fraction(v) for v in a] for a in a_rows]
    b_rows = [[Fraction(v) for v in b] for b in b_rows]
    keys = ansatz.basis_keys()
    kept = [key for key in keys if all(_survives(a, b, key) for a, b in zip(a_rows, b_rows))]
    key = draw(st.sampled_from(kept or keys))
    exact = draw(st.booleans())
    graded = []
    for a, b in zip(a_rows, b_rows):
        weight = _weight(a, b, key)
        graded.append((a, b, weight if exact else draw(st.sampled_from((weight, draw(values))))))
    return draw(st.permutations(graded))


def _b_where_a_vanishes(draw, a):
    return [draw(st.sampled_from(WEIGHT_ENTRIES)) if not x else 0 for x in a]


def _translation(draw):
    b = [draw(st.sampled_from(WEIGHT_ENTRIES)) for _ in range(3)]
    return [0, 0, 0], b if any(b) else [0, 0, 1]


def _weight_ansatz(draw):
    # the zero block, which no a drops, and one to three others
    others = draw(st.lists(st.sampled_from(WEIGHT_EXPONENTS), min_size=1, max_size=3))
    exponents = [(0, 0, 0)] + others
    components = draw(st.sets(st.integers(0, 2), min_size=1))
    return AnsatzSpace(3, exponents, draw(st.integers(0, 10)), sorted(components))


@st.composite
def weight_systems(draw):
    """Graded constraints whose weight rows a_k have rank 0-3 (rank-many
    independent rows, at times a combination of them, and translations
    a = 0), with fractional a, b and c, over degrees 0-10."""
    ansatz = _weight_ansatz(draw)
    rank_wanted = draw(st.integers(0, 3))
    a_rows = [
        [draw(st.sampled_from(WEIGHT_ENTRIES)) for _ in range(3)] for _ in range(rank_wanted)
    ]
    assume(rank([{j: Fraction(v) for j, v in enumerate(a) if v} for a in a_rows], 3) == rank_wanted)
    if a_rows and draw(st.booleans()):
        x, y = draw(values), draw(values)
        i, j = draw(st.integers(0, len(a_rows) - 1)), draw(st.integers(0, len(a_rows) - 1))
        combo = [x * u + y * v for u, v in zip(a_rows[i], a_rows[j])]
        if any(combo):
            a_rows.append(combo)
    b_rows = [_b_where_a_vanishes(draw, a) for a in a_rows]
    for _ in range(draw(st.integers(0 if a_rows else 1, 2))):
        a, b = _translation(draw)
        a_rows.append(a)
        b_rows.append(b)
    return _graded_triples(draw, a_rows, b_rows, ansatz), ansatz


@st.composite
def g2_shaped_systems(draw):
    """Four graded constraints shaped like the obstruction's: two
    Cartan-type with a != 0 and two translations."""
    ansatz = _weight_ansatz(draw)
    a_rows, b_rows = [], []
    for _ in range(2):
        a = [draw(st.sampled_from(WEIGHT_ENTRIES)) for _ in range(3)]
        if not any(a):
            a[draw(st.integers(0, 2))] = draw(values)
        a_rows.append(a)
        b_rows.append(_b_where_a_vanishes(draw, a))
    for _ in range(2):
        a, b = _translation(draw)
        a_rows.append(a)
        b_rows.append(b)
    return _graded_triples(draw, a_rows, b_rows, ansatz), ansatz


@settings(max_examples=100, deadline=None)
@given(st.one_of(weight_systems(), g2_shaped_systems()))
def test_graded_columns_match_weight_reference(system):
    graded, ansatz = system
    assert _graded_columns(graded, ansatz) == _weight_columns(graded, ansatz)


# (a rows, b rows, block, component, monomial) with weight rows of rank
# 0, 1, 2 and 3; the eigenvalues are the weights of that basis field,
# whose m_i is 0 for each b row with one constant term b_i
RANK_EXAMPLES = [
    ([(0, 0, 0), (0, 0, 0)], [(0, 0, Fraction(3, 2)), (Fraction(1, 2), -1, 0)],
     (0, 0, Fraction(2, 3)), 2, (1, 2, 0)),
    ([(Fraction(1, 2), -1, 0), (0, 0, 0)], [(0, 0, Fraction(3, 2)), (0, 0, 3)],
     (0, 0, Fraction(2, 3)), 0, (2, 1, 0)),
    ([(1, -2, 0), (Fraction(1, 3), 1, 0), (0, 0, 0), (0, 0, 0)],
     [(0, 0, Fraction(3, 2)), (0, 0, Fraction(-3, 4)), (0, 0, 1), (1, Fraction(1, 2), 0)],
     (0, 0, Fraction(2, 3)), 1, (3, 1, 0)),
    ([(1, -2, 0), (0, Fraction(1, 3), 1), (Fraction(1, 2), 0, -1), (2, -3, 1)],
     [(0, 0, Fraction(1, 2)), (0, 0, 0), (0, 3, 0), (0, 0, 0)],
     (0, 0, 0), 1, (2, 0, 0)),
]


@pytest.mark.parametrize("weights", range(4))
def test_graded_columns_by_weight_rank(weights):
    a_rows, b_rows, exp, comp, mono = RANK_EXAMPLES[weights]
    a_rows = [[Fraction(v) for v in a] for a in a_rows]
    b_rows = [[Fraction(v) for v in b] for b in b_rows]
    matrix = [{j: v for j, v in enumerate(a) if v} for a in a_rows]
    assert rank(matrix, 3) == weights
    exponents = [(0, 0, 0), exp, (Fraction(1, 2), 0, 0), (0, Fraction(-1, 3), 0)]
    key = (comp, encode_exponents(exp), mono)
    graded = [(a, b, _weight(a, b, key)) for a, b in zip(a_rows, b_rows)]
    for degree in range(11):
        ansatz = AnsatzSpace(3, exponents, degree)
        columns = _graded_columns(graded, ansatz)
        assert columns == _weight_columns(graded, ansatz)
        if degree >= sum(mono):
            assert ansatz.column(*key) in columns


def test_graded_solve_builds_no_monomial_table(monkeypatch):
    """The graded start and the builds over its columns list no block's
    monomials: ``_monomials`` is never called."""
    expected = [
        obstruction.g2_obstruction(form, AnsatzSpace(3, max_degree=32)).to_records()
        for form in (1, 2, 3)
    ]
    space = AnsatzSpace(3, [(0, 0, 0), (0, 0, 1)], 32)
    cons = [
        BracketConstraint.eigen(parse_field("-x*Dx - 2*y*Dy"), 1),
        BracketConstraint.commutes(parse_field("Dz")),
    ]
    kept = solve(cons, space)

    def refuse(dim, max_degree):
        raise AssertionError("the monomial list was built")

    monkeypatch.setattr(solve_module, "_monomials", refuse)
    assert [
        obstruction.g2_obstruction(form, AnsatzSpace(3, max_degree=32)).to_records()
        for form in (1, 2, 3)
    ] == expected
    got = solve(cons, AnsatzSpace(3, [(0, 0, 0), (0, 0, 1)], 32))
    assert got.dimension > 0
    assert (got.basis, got.matrix_rank) == (kept.basis, kept.matrix_rank)


@pytest.mark.parametrize("text", [
    "x*Dx + Dx", "exp(x)*Dx", "y*Dx", "x*y*Dx", "x^2*Dx", "x*Dx + 2*Dx + y*Dy",
])
def test_ungraded_fields_take_the_build(text, monkeypatch):
    cons = BracketConstraint.commutes(parse_field(text))
    ansatz = AnsatzSpace(3, [(0, 0, 0), (1, 0, 0)], 2)
    assert _graded_weights(cons.known) is None
    built = []
    build = solve_module._build_system

    def counting(cons, ansatz, columns):
        built.append(columns)
        return build(cons, ansatz, columns)

    monkeypatch.setattr(solve_module, "_build_system", counting)
    got = _staged_solve([cons], ansatz)[0]
    # no graded constraint: the one build covers every column
    assert built == [None]
    assert [list(v.items()) for v in got] == [
        list(v.items()) for v in _build_kernel(cons, ansatz)
    ]


# -- bracket kernel and sparse structure table --------------------------------


@st.composite
def bracket_pairs(draw):
    """Two fields in dimension 1..4 with parameters and exponentials; the
    second is often built from the first (a parameter or constant
    multiple, or a sum with it), so that terms cancel, parameters among
    them, and the bracket is often zero."""
    rng = draw(st.randoms(use_true_random=False))
    dim = draw(st.integers(1, 4))
    x = rand_field(rng, dim, max_terms=3, with_params=True, with_exp=True)
    z = rand_field(rng, dim, max_terms=2, with_params=draw(st.booleans()),
                   with_exp=draw(st.booleans()))
    kind = draw(st.sampled_from(("free", "param", "scale", "sum", "self")))
    if kind == "param":
        y = x * ExpPoly.param(dim, draw(st.sampled_from(("a", "b", "lam"))))
    elif kind == "scale":
        y = x * draw(values)
    elif kind == "sum":
        y = x * ExpPoly.param(dim, "a") + z
    elif kind == "self":
        y = x
    else:
        y = z
    if draw(st.booleans()):
        x, y = y, x
    return x, y


def _canonical(field):
    return all(is_canonical(comp) for comp in field.components)


@settings(max_examples=400, deadline=None)
@given(bracket_pairs())
def test_bracket_matches_apply_reference(pair):
    x, y = pair
    texts = (format_field(x), format_field(y))
    got = x.bracket(y)
    assert got == -y.bracket(x)
    for comp in y.components:
        assert x.apply(comp).term_map() == reference_ep_apply(_term_maps(x), comp.term_map())
    # the kernels share parameter polynomials with their inputs and
    # must never write to them
    assert (format_field(x), format_field(y)) == texts
    assert _term_maps(got) == reference_ep_bracket(_term_maps(x), _term_maps(y))
    assert _canonical(got)


def test_bracket_of_parameter_multiples_cancels():
    x = parse_field("lam*x*exp(z)*Dx + a*y^2*Dz", params=("a", "lam"))
    y = x * ExpPoly.param(3, "b")
    assert not any(reference_ep_bracket(_term_maps(x), _term_maps(y)))
    assert x.bracket(y).is_zero()
    assert all(not c.term_map() for c in x.bracket(y).components)


# each field takes its exponent entries over one of these denominator
# sets, so that the two operands' exponent denominators often differ
# (2 and 3) and the bracket needs their lcm
EXPONENT_DENOMINATORS = ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3))
WIDE_PMONOS = ((), (("a", 1),), (("b", 1),), (("a", 2),), (("a", 1), ("b", 1)))


@st.composite
def wide_scalars(draw, dim, with_params=True, dens=None):
    """A scalar of up to 3 terms whose coefficients have numerators up
    to 10^20 and, with ``with_params``, parameter monomials, and whose
    exponent entries have the denominators ``dens`` (drawn when None);
    often zero."""
    pmonos = WIDE_PMONOS if with_params else ((),)
    if dens is None:
        dens = draw(st.sampled_from(EXPONENT_DENOMINATORS))
    entries = st.sampled_from([Fraction(n, d) for n in (-2, -1, 0, 1, 2) for d in dens])
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        exp = encode_exponents(draw(st.tuples(*[entries] * dim)))
        mono = draw(st.tuples(*[st.integers(0, 2)] * dim))
        terms[(exp, mono, draw(st.sampled_from(pmonos)))] = draw(wide_values)
    return ExpPoly.from_terms(dim, terms)


@st.composite
def wide_fields(draw, dim, with_params=True):
    """A field of wide scalars over one set of exponent denominators, so
    that two fields' denominators often differ (2 and 3) and the bracket
    needs their lcm; its components are often zero."""
    dens = draw(st.sampled_from(EXPONENT_DENOMINATORS))
    return VectorField([draw(wide_scalars(dim, with_params, dens)) for _ in range(dim)])


@st.composite
def wide_bracket_pairs(draw):
    """Two wide fields, parameter-free or not; the second is often the
    first itself, a multiple of it (whose bracket with it cancels term
    by term, parameters among them) or a sum with such a multiple."""
    dim = draw(st.integers(1, 3))
    with_params = draw(st.booleans())
    x = draw(wide_fields(dim, with_params))
    z = draw(wide_fields(dim, with_params))
    c = draw(wide_values)
    if with_params:
        c = ExpPoly.param(dim, "a") * c + ExpPoly.param(dim, "b")
    kind = draw(st.sampled_from(("free", "self", "multiple", "sum")))
    if kind == "self":
        y = x
    elif kind == "multiple":
        y = x * c
    elif kind == "sum":
        y = x * c + z
    else:
        y = z
    if draw(st.booleans()):
        x, y = y, x
    return x, y


def _term_maps(field):
    return [c.term_map() for c in field.components]


def _assert_kernel_matches_reference(x, y, got):
    want = reference_ep_bracket(_term_maps(x), _term_maps(y))
    assert _term_maps(got) == want
    assert _canonical(got)
    if x.is_parameter_free() and y.is_parameter_free():
        # the insertion order is what the constraint build's rows read
        assert [list(t.items()) for t in _term_maps(got)] == [list(t.items()) for t in want]


@settings(max_examples=300, deadline=None)
@given(wide_bracket_pairs())
def test_integer_bracket_matches_fraction_kernel(pair):
    x, y = pair
    _assert_kernel_matches_reference(x, y, x.bracket(y))
    _assert_kernel_matches_reference(y, x, y.bracket(x))
    _assert_kernel_matches_reference(x, x, x.bracket(x))
    assert x.bracket(x).is_zero()


def _storage(value):
    """The integer storage of a scalar or of each component of a field,
    in insertion order."""
    comps = value.components if isinstance(value, VectorField) else (value,)
    return [(list(c._num.items()), c._den) for c in comps]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bracket_keeps_nothing_between_partners(data):
    """One field object bracketed against partners in any order, on
    both sides: each result is the one of a cold copy of the field, and
    the inputs' text never changes.  The partials a scalar keeps
    (``ExpPoly.integer_partial``) are derived state that never changes
    a result, and no bracket writes to an operand."""
    dim = data.draw(st.integers(1, 3))
    x = data.draw(wide_fields(dim))
    partners = [x] + data.draw(st.lists(wide_fields(dim), min_size=1, max_size=4))
    partners.append(partners[1] * ExpPoly.param(dim, "b"))
    texts = [format_field(p) for p in partners]

    want = {
        i: (cold_copy(x).bracket(cold_copy(p)), cold_copy(p).bracket(cold_copy(x)))
        for i, p in enumerate(partners)
    }
    for i in data.draw(st.permutations(range(len(partners)))):
        p = partners[i]
        got = (x.bracket(p), p.bracket(x))
        assert [_term_maps(f) for f in got] == [_term_maps(f) for f in want[i]]
        assert format_field(x) == texts[0]
        assert [format_field(q) for q in partners] == texts


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kept_partials_match_cold_copies(data):
    """Brackets, ``apply`` and ``diff`` of wide fields (exponent
    denominators 2 and 3, parameters), run in a random order on the same
    objects, so that any of them may fill a scalar's partials first:
    each result has the storage, in insertion order, of the same
    operation on cold copies, and the value of the ``Fraction``
    kernels."""
    dim = data.draw(st.integers(1, 3))
    fields = data.draw(st.lists(wide_fields(dim), min_size=2, max_size=3))
    scalars = [c for f in fields for c in f.components]
    ops = [("bracket", a, b) for a in range(len(fields)) for b in range(len(fields))]
    ops += [("apply", a, k) for a in range(len(fields)) for k in range(len(scalars))]
    ops += [("diff", k, j) for k in range(len(scalars)) for j in range(dim)]
    for op, a, b in data.draw(st.permutations(ops)):
        if op == "bracket":
            x, y = fields[a], fields[b]
            got, cold = x.bracket(y), cold_copy(x).bracket(cold_copy(y))
            _assert_kernel_matches_reference(x, y, got)
        elif op == "apply":
            x, f = fields[a], scalars[b]
            got, cold = x.apply(f), cold_copy(x).apply(cold_copy(f))
            xs = [c.term_map() for c in x.components]
            assert got.term_map() == reference_ep_apply(xs, f.term_map())
        else:
            f = scalars[a]
            got, cold = f.diff(b), cold_copy(f).diff(b)
            assert got.term_map() == ReferenceExpPoly.of(f).diff(b).tmap
        assert _storage(got) == _storage(cold)


@settings(max_examples=60, deadline=None)
@given(integer_build_systems(), st.data())
def test_build_reads_kept_partials(system, data):
    """The constraint build reads the known fields' kept partials: after
    the known fields are bracketed, applied, differentiated or built in
    a random order, a build gives the same ``int`` rows, target keys in
    the same order, right-hand side and image count as a build on cold
    copies, and each is ``reference_build`` of its constraint in integers."""
    constraints, ansatz, columns = system
    knowns = [c.known for c in constraints]
    uses = [
        lambda k: k.bracket(knowns[0]),
        lambda k: knowns[-1].bracket(k),
        lambda k: k.apply(k.components[-1]),
        lambda k: [c.diff(j) for c in k.components for j in range(k.dim)],
        lambda k: [_build_system(c, ansatz, columns) for c in constraints],
    ]
    for i in data.draw(st.permutations(range(len(knowns)))):
        data.draw(st.sampled_from(uses))(knowns[i])
    cold = [dataclasses.replace(c, known=cold_copy(c.known)) for c in constraints]
    for cons, cold_cons in zip(constraints, cold):
        want = _build_system(cold_cons, ansatz, columns)
        for _ in range(2):
            got = _build_system(cons, ansatz, columns)
            assert (got[0], got[2], got[3]) == (want[0], want[2], want[3])
            assert [list(r.items()) for r in got[1]] == [list(r.items()) for r in want[1]]
        assert_scaled_build([got], reference_build([cold_cons], ansatz, columns))


# -- term products and the key-sum table --------------------------------------

# few keys, so that products meet: exponent denominators 1-3, monomials
# of degree at most 1 and parameter monomials in a and b
_EXPONENTS = tuple(
    encode_exponents(q)
    for q in ((0, 0), (Fraction(1, 2), 0), (Fraction(-1, 3), Fraction(2, 3)), (1, Fraction(-1, 2)))
)
_MONOS = ((0, 0), (1, 0), (0, 1))
_PMONOS = ((), (("a", 1),), (("b", 1),), (("a", 1), ("b", 2)))


@st.composite
def integer_term_maps(draw):
    """A small integer term map in dimension 2."""
    out = {}
    for _ in range(draw(st.integers(0, 5))):
        key = tuple(draw(st.sampled_from(pool)) for pool in (_EXPONENTS, _MONOS, _PMONOS))
        out[key] = draw(st.integers(-3, 3).filter(bool))
    return out


@settings(max_examples=400, deadline=None)
@given(
    integer_term_maps(),
    integer_term_maps(),
    st.integers(-3, 3).filter(bool),
    st.sampled_from(("cold", "warm", "bound")),
    st.data(),
)
def test_mul_into_matches_reference_products(f, g, scale, table, data):
    # a start that cancels some of the products, and one that holds others
    prod = reference_mul_into({}, f, g, scale)
    cancel = data.draw(st.lists(st.sampled_from((-1, 0, 2)), min_size=len(prod), max_size=len(prod)))
    start = {k: c * v for (k, v), c in zip(prod.items(), cancel) if c}
    want = reference_mul_into(dict(start), f, g, scale)
    bound = data.draw(st.integers(1, 3)) if table == "bound" else None
    with key_sum_table(bound):
        if table == "warm":
            # the pairs of these terms and of others, already in the table
            other = data.draw(integer_term_maps())
            _kernels.mul_into({}, {**other, **f}, {**g, **other})
        got = _kernels.mul_into(dict(start), f, g, scale)
    assert list(got.items()) == list(want.items())


# -- integer storage against the Fraction ExpPoly -----------------------------


@st.composite
def scalar_cases(draw):
    """``(dim, f, g, c, x)``: two wide scalars, the second often built
    from the first so that terms cancel, a wide rational and a wide
    field, all parameter-free or all with parameters."""
    dim = draw(st.integers(1, 3))
    with_params = draw(st.booleans())
    f = draw(wide_scalars(dim, with_params))
    z = draw(wide_scalars(dim, with_params))
    c = draw(wide_values)
    kind = draw(st.sampled_from(("free", "self", "multiple", "sum")))
    g = {"free": z, "self": f, "multiple": f * c, "sum": f * c + z}[kind]
    if draw(st.booleans()):
        f, g = g, f
    return dim, f, g, c, draw(wide_fields(dim, with_params))


def _affine_data(data, dim):
    """A random invertible matrix and a shift that is often zero; a
    nonzero shift usually meets an exponential and is refused."""
    rows = rand_invertible(random.Random(data.draw(st.integers(0, 2**32))), dim)
    if data.draw(st.booleans()):
        return rows, [Fraction(0)] * dim
    return rows, [data.draw(values) for _ in range(dim)]


def _scalar_results(case, data):
    """``(label, result, reference)`` of every scalar operation on a
    case: ring operations, derivatives, parameter and affine
    substitution and ``apply``; a refused affine substitution gives
    ``None`` on both sides."""
    dim, f, g, c, x = case
    rf, rg = ReferenceExpPoly.of(f), ReferenceExpPoly.of(g)
    out = [
        ("f+g", f + g, rf + rg),
        ("f-g", f - g, rf - rg),
        ("-f", -f, -rf),
        ("f*g", f * g, rf * rg),
        ("f*c", f * c, rf * c),
        ("f*0", f * 0, rf * 0),
    ]
    out += [(f"d{i}f", f.diff(i), rf.diff(i)) for i in range(dim)]
    assignment = {"a": data.draw(wide_values), "b": data.draw(wide_values)}
    out.append(("subst_params", f.subst_params(assignment), rf.subst_params(assignment)))
    rows, shift = _affine_data(data, dim)
    try:
        want = rf.subst_affine(rows, shift)
    except LvfError:
        with pytest.raises(LvfError):
            f.subst_affine(rows, shift)
    else:
        out.append(("subst_affine", f.subst_affine(rows, shift), want))
    xs = [ReferenceExpPoly.of(comp).tmap for comp in x.components]
    out.append(("apply", x.apply(f), ReferenceExpPoly(dim, reference_ep_apply(xs, rf.tmap))))
    return out


@settings(max_examples=200, deadline=None)
@given(scalar_cases(), st.data())
def test_scalar_ops_match_fraction_reference(case, data):
    """Every scalar operation gives the term map and the text of the
    ``Fraction`` ExpPoly; on parameter-free operands also its insertion
    order, which the constraint build's rows read.  (With parameters,
    a term whose first parameter monomial cancelled may move; printing
    sorts and equality ignores order.)"""
    _, f, g, _, x = case
    ordered = f.is_parameter_free() and g.is_parameter_free() and x.is_parameter_free()
    for label, got, want in _scalar_results(case, data):
        assert got.term_map() == want.tmap, label
        if ordered:
            assert list(got.term_map().items()) == list(want.tmap.items()), label
        assert format_scalar(got) == format_scalar(want), label


@settings(max_examples=100, deadline=None)
@given(scalar_cases(), st.data())
def test_results_are_canonical(case, data):
    """Every value made by an operation is stored canonically, so equal
    functions compare equal: ring operations, derivatives,
    substitutions, ``apply``, the bracket, and parsing the printed
    text, which also gives back an equal value with an equal hash."""
    dim, f, g, _, x = case
    results = [got for _, got, _ in _scalar_results(case, data)]
    y = data.draw(wide_fields(dim, not x.is_parameter_free()))
    results += x.bracket(y).components + y.bracket(x).components
    for value in results + [f, g]:
        assert is_canonical(value), value
        back = parse_scalar(format_scalar(value), dim, params=("a", "b"))
        assert is_canonical(back)
        assert back == value and hash(back) == hash(value)


_CATALOG_TENSORS = []


def _catalog_tensors():
    """(id, tensor) of every builtin entry at its default parameters."""
    if not _CATALOG_TENSORS:
        for entry in catalog.load_builtin():
            gens = entry.generators_at(entry.default_assignment())
            tensor = structure_tensor(close_under_bracket(list(gens.values())))
            _CATALOG_TENSORS.append((entry.id, tensor))
    return _CATALOG_TENSORS


def _jacobi_outcome(check, dim, constants):
    try:
        check(dim, constants)
    except LvfError as exc:
        return str(exc)
    return None


def _sparse(constants):
    """Dense constant tuples as the sparse coordinates a
    ``StructureTensor`` is built from."""
    return {ij: {k: v for k, v in enumerate(vec) if v} for ij, vec in constants.items()}


def assert_tensor_matches_reference(tensor, constants, rng):
    """``c``, ``constants``, ``bracket_vectors``, ``killing_form`` and
    ``killing_det`` of ``tensor`` against the dense references on the
    constants it was built from: equal, and every entry a ``Fraction``."""
    m = tensor.dim
    assert tensor.constants == {ij: vec for ij, vec in constants.items() if any(vec)}
    for i in range(m):
        for j in range(m):
            got = tensor.c(i, j)
            assert got == _reference_c(m, constants, i, j)
            assert all(type(v) is Fraction for v in got)
    u = [rng.choice((_ZERO, rand_fraction(rng))) for _ in range(m)]
    v = [rand_fraction(rng) for _ in range(m)]
    want = [_ZERO] * m
    for i in range(m):
        for j in range(m):
            for k, c in enumerate(_reference_c(m, constants, i, j)):
                want[k] += u[i] * v[j] * c
    got = tensor.bracket_vectors(u, v)
    assert got == want and all(type(x) is Fraction for x in got)
    killing = reference_killing_form(m, constants)
    got = tensor.killing_form()
    assert got == killing and all(type(x) is Fraction for row in got for x in row)
    assert tensor.killing_det() == reference_det(killing)


def test_catalog_tensors_match_dense_jacobi_and_killing():
    rng = random.Random(24)
    for entry_id, tensor in _catalog_tensors():
        m = tensor.dim
        assert reference_check_jacobi(m, tensor.constants) is None, entry_id
        assert_tensor_matches_reference(tensor, tensor.constants, rng)


@st.composite
def perturbed_tensors(draw):
    """A catalog tensor with a few constants changed, added or zeroed."""
    _, tensor = draw(st.sampled_from(_catalog_tensors()))
    m = tensor.dim
    constants = dict(tensor.constants)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, m - 2))
        j = draw(st.integers(i + 1, m - 1))
        vec = list(constants.get((i, j), (_ZERO,) * m))
        k = draw(st.integers(0, m - 1))
        vec[k] = draw(st.one_of(st.just(_ZERO), values, st.just(vec[k] * 2)))
        constants[(i, j)] = tuple(vec)
    return m, constants


def _tensor(m, constants):
    return StructureTensor(m, _sparse(constants))


@settings(max_examples=300, deadline=None)
@given(perturbed_tensors(), st.randoms(use_true_random=False))
def test_sparse_jacobi_matches_dense(case, rng):
    # the perturbed constants have denominators 1-3 beside the catalog's
    # 1, 2 and 4, so the common denominator D and the D^(2m) of the
    # determinant vary
    m, constants = case
    expected = _jacobi_outcome(reference_check_jacobi, m, constants)
    got = _jacobi_outcome(_tensor, m, constants)
    assert got == expected
    if got is None:
        assert_tensor_matches_reference(_tensor(m, constants), constants, rng)


@st.composite
def rebased_tensors(draw):
    """A catalog tensor in the random basis b'_i = sum_a P_ia b_a, so the
    constants are dense and still satisfy Jacobi."""
    _, tensor = draw(st.sampled_from(_catalog_tensors()))
    m = tensor.dim
    p = rand_invertible(draw(st.randoms(use_true_random=False)), m)
    pinv = _invert(p)
    constants = {}
    for i in range(m):
        for j in range(i + 1, m):
            old = tensor.bracket_vectors(p[i], p[j])
            constants[(i, j)] = tuple(
                sum((old[l] * pinv[l][k] for l in range(m)), _ZERO) for k in range(m)
            )
    return m, constants


@settings(max_examples=40, deadline=None)
@given(rebased_tensors(), st.randoms(use_true_random=False))
def test_killing_form_matches_dense_in_random_bases(case, rng):
    m, constants = case
    assert reference_check_jacobi(m, constants) is None
    assert_tensor_matches_reference(_tensor(m, constants), constants, rng)


# -- joint obstruction solve --------------------------------------------------


def test_obstruction_solves_match_per_block_solves(monkeypatch):
    calls = []

    def recording(constraints, ansatz):
        result = solve(constraints, ansatz)
        calls.append((constraints, ansatz, result.basis))
        return result

    monkeypatch.setattr(obstruction, "solve", recording)
    for form in (1, 2, 3):
        # at degree 19 the five blocks hold 23100 fields, more than one
        # block may hold
        for degree in (2, 6, 10, 19):
            obstruction.g2_obstruction(form, AnsatzSpace(3, max_degree=degree))
    for degree in (2, 4):
        obstruction.b2_sanity_control(degree)
    # one solve per orientation, one for the control
    assert len(calls) == 3 * 4 * 2 + 2
    assert any(basis for _, _, basis in calls)
    for constraints, ansatz, basis in calls:
        assert basis == reference_solve_by_blocks(
            constraints, 3, ansatz.exponents, ansatz.max_degree, ansatz.components
        )


BLOCK_FIELDS = (
    "Dx", "Dy", "Dz", "x*Dx", "y*Dy", "z*Dz", "x*Dx + Dz", "Dx + Dy", "y*Dx", "z*Dy",
    "x*Dz", "z*Dx + Dy",
)


@st.composite
def block_systems(draw):
    """Constraints over 2-3 exponent blocks (0,0,q) in which every known
    field carries one exponent vector (0,0,k) on all its components, so
    each constraint maps block q into block q+k alone: the case in which
    the per-block solve is exact.  An eigen term also maps block q into
    itself, so eigen constraints get k = 0."""
    pool = [parse_field(text) for text in BLOCK_FIELDS]
    constraints = []
    for _ in range(draw(st.integers(1, 3))):
        known = VectorField.zero(3)
        for f in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2)):
            known = known + f * draw(values)
        if draw(st.booleans()):
            constraints.append(BracketConstraint.eigen(known, draw(st.sampled_from((0, 1, -1, 2)))))
        else:
            k = draw(st.sampled_from((0, 1, -1)))
            known = known * exponential(3, (0, 0, k))
            constraints.append(BracketConstraint.commutes(known))
    qs = draw(st.sets(st.sampled_from((-2, -1, 0, 1, 2)), min_size=2, max_size=3))
    components = draw(st.sets(st.integers(0, 2), min_size=1))
    ansatz = AnsatzSpace(3, [(0, 0, q) for q in qs], draw(st.integers(0, 2)), sorted(components))
    return constraints, ansatz


@settings(max_examples=150, deadline=None)
@given(block_systems())
def test_joint_solve_spans_the_per_block_solves(system):
    # the same reduced basis vectors, but not always in the same order:
    # the joint basis follows the column order (component first), the
    # per-block one the exponent blocks
    constraints, ansatz = system
    joint = solve(constraints, ansatz).basis
    ref = reference_solve_by_blocks(
        constraints, ansatz.dim, ansatz.exponents, ansatz.max_degree, ansatz.components
    )
    assert len(joint) == len(ref)
    assert {format_field(f) for f in joint} == {format_field(f) for f in ref}


def test_joint_solve_order_differs_from_per_block_order():
    constraints = [BracketConstraint.eigen(parse_field("x*Dx + Dz"), 1)]
    ansatz = AnsatzSpace(3, [(0, 0, 0), (0, 0, 1)], 1)
    joint = solve(constraints, ansatz).basis
    ref = reference_solve_by_blocks(constraints, 3, ansatz.exponents, 1)
    assert len(joint) == len(ref) == 7
    assert {format_field(f) for f in joint} == {format_field(f) for f in ref}
    assert joint != ref


def test_per_block_solve_misses_solutions_across_blocks():
    # one exponent vector per component is not enough for the per-block
    # split: e^z*Dx + Dy maps the blocks 0 and (0,0,1) both into (0,0,1),
    # and (-x + y*e^z)*Dx commutes with it although neither block part does
    known = parse_field("exp(z)*Dx + Dy")
    constraints = [BracketConstraint.commutes(known)]
    ansatz = AnsatzSpace(3, [(0, 0, 0), (0, 0, 1)], 1)
    joint = {format_field(f) for f in solve(constraints, ansatz).basis}
    ref = {format_field(f) for f in reference_solve_by_blocks(constraints, 3, ansatz.exponents, 1)}
    cross = parse_field("(-x + y*exp(z))*Dx")
    assert known.bracket(cross).is_zero()
    assert format_field(cross) in joint - ref
    assert ref < joint


# -- generic rank by bordering ------------------------------------------------


@st.composite
def rank_families(draw):
    """1-6 fields in dimension 1..4 with parameters and exponentials.
    Most families are rank-deficient by construction: a field that is
    x times the first plus the second, multiples of one field by
    scalars, or a zero field."""
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    dim = draw(st.integers(1, 4))
    with_params = draw(st.booleans())

    def field():
        return rand_field(rng, dim, max_terms=2, with_params=with_params, with_exp=True)

    def scalar():
        return rand_exppoly(rng, dim, max_terms=2, with_params=with_params)

    fields = [field() for _ in range(draw(st.integers(1, 4)))]
    kind = draw(st.sampled_from(("free", "combination", "multiples", "zero")))
    if kind == "combination":
        if len(fields) == 1:
            fields.append(field())
        fields.append(fields[0] * ExpPoly.coord(dim, 0) + fields[1])
    elif kind == "multiples":
        fields = [fields[0] * scalar() for _ in range(draw(st.integers(2, 4)))]
    elif kind == "zero":
        fields.append(VectorField.zero(dim))
    return draw(st.permutations(fields))


@settings(max_examples=200, deadline=None)
@given(rank_families())
def test_generic_rank_matches_every_minor(fields):
    assert generic_rank(fields) == reference_generic_rank(fields)


def test_generic_rank_of_a_combination_family():
    first = parse_field("exp(z)*Dx + a*y*Dy", params=("a",))
    second = parse_field("Dy - x*exp(-x)*Dz")
    fields = [first, second, first * ExpPoly.coord(3, 0) + second]
    assert generic_rank(fields) == reference_generic_rank(fields) == 2


# -- the parser ---------------------------------------------------------------

# factors of one term, and texts the grammar refuses
_PARSE_ATOMS = [
    "0", "1", "2", "3", "12", "x", "y", "z", "x2", "a", "b",
    "exp(x)", "exp(-1/2*x + y/3)", "exp((x-y)/2)", "exp(x - x)", "exp(0)", "exp(2*z/4)",
]
_FRAMES = ["Dx", "Dy", "Dz", "D3", "x*Dy"]
_BAD_ATOMS = [
    "exp(x^2)", "exp(x + 1)", "exp(a*x)", "exp(exp(x))", "exp(Dx)", "c", "x y", "/", "x^a",
]


def _join(children):
    a, b = children
    return st.sampled_from([
        f"{a}*{b}", f"{a}*{b}", f"{a}/{b}", f"-{a}", f"{a} + {b}", f"{a} - {b}",
        f"({a})*{b}", f"{a}*({b})", f"({a} + {b})",
    ] + [f"{a}^{n}" for n in (0, 1, 2, 3, 5)] + [f"({a})^{n}" for n in (0, 2, 3, 64, 65)])


def _texts(atoms):
    return st.recursive(atoms, lambda inner: st.tuples(inner, inner).flatmap(_join), max_leaves=8)


@st.composite
def expression_texts(draw):
    """Texts of the grammar: products, quotients, powers (also of zero
    and to the 0th), unary minus, ``exp``, parameters, frames and
    parenthesized sums, joined as text so that precedence decides; half
    of them sums of scalars times frames."""
    good = st.sampled_from(_PARSE_ATOMS)
    frames = st.sampled_from(_FRAMES)
    # a third of the texts may hold a factor the grammar refuses
    bad = st.sampled_from(_BAD_ATOMS if draw(st.integers(0, 2)) == 0 else _PARSE_ATOMS)
    if draw(st.booleans()):
        return draw(_texts(st.one_of(good, good, good, frames, bad)))
    scalars = _texts(st.one_of(good, good, good, good, bad))
    term = st.tuples(scalars, frames).flatmap(
        lambda p: st.sampled_from([f"{p[0]}*{p[1]}", f"({p[0]})*{p[1]}", f"{p[1]}*({p[0]})"])
    )
    return " + ".join(draw(st.lists(term, min_size=1, max_size=3)))


def parse_outcome(parser, text):
    """The storage of each component of what ``parser`` reads from
    ``text`` (``integer_terms()`` of a parameter-free value, in item
    order), or the class, message and offset of its refusal."""
    try:
        value = parser.parse(text)
    except LvfError as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)
    comps = value.components if isinstance(value, VectorField) else (value,)
    return type(value), [(list(c._num.items()), c._den) for c in comps]


@settings(max_examples=500, deadline=None)
@given(expression_texts(), st.sampled_from([parsing.MAX_PRODUCTS, 40, 6, 1]))
def test_parser_matches_reference_evaluator(text, max_products):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parsing, "MAX_PRODUCTS", max_products)
        got = parse_outcome(parsing.Parser(3, ("a", "b")), text)
        assert got == parse_outcome(ReferenceParser(3, ("a", "b")), text)


@pytest.mark.parametrize("text", [
    "0^0", "0^5*Dx", "x^0", "(x+y)^0", "Dx*0", "0*Dx + 0*Dy", "x*0 + y", "-(-x)^3",
    "x*Dx/2 - 3/6*y*(Dx + Dy)", "(x + 1)*exp(x)*Dx", "Dz*(a + b)^2", "a^3*b*exp(-x/2)^2*Dy",
    "exp(x)^64", "(x*y)^32", "x/(2 - 2)", "x/(y - y + 3)", "Dx^2", "Dx*Dy", "x/Dx",
    "(x+y+z+1)^12*(x+y+z+1)^12", "12*x^2*y/4*z*Dx", "exp(-x)*(y*Dx + (y^2/2 + a)*Dy)",
    "x/-1", "3*a*x/-2", "Dx/(0 - 3)*6", "(x + y)/-1",
])
@pytest.mark.parametrize("max_products", [parsing.MAX_PRODUCTS, 3])
def test_parser_matches_reference_evaluator_examples(text, max_products, monkeypatch):
    monkeypatch.setattr(parsing, "MAX_PRODUCTS", max_products)
    got = parse_outcome(parsing.Parser(3, ("a", "b")), text)
    assert got == parse_outcome(ReferenceParser(3, ("a", "b")), text)


def test_parser_matches_reference_evaluator_on_the_catalog():
    for entry in catalog.load_builtin():
        for text in re.findall(r'gen \S+ = "([^"]*)"', catalog.dumps([entry])):
            got = parse_outcome(parsing.Parser(entry.dim, entry.param_names()), text)
            assert got == parse_outcome(ReferenceParser(entry.dim, entry.param_names()), text)
