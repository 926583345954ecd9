"""Finite-dimensional Lie-algebra structure from concrete vector fields.

Fields are flattened to exact coefficient vectors over their
``(component, exponent, monomial)`` support, so linear questions (span,
membership, coordinates) reduce to rows of the echelon core in
``_kernels``.  A field's row is read from its integer storage
(``ExpPoly.integer_terms``), scaled to one denominator, so no
``Fraction`` enters the elimination.  All inputs must be
parameter-free; substitute parameters first.

``close_under_bracket`` brackets every pair of its basis once and keeps,
from its own tracker, each bracket's coordinates over the basis (a new
basis element, or the combination of earlier ones that the tracker
returns).  The structure tensor of a closure is read from those sparse
coordinates, and ``verify`` decides the relations that hold from the
same table, so a verification of a sound entry brackets each pair of
basis fields once.

A ``StructureTensor`` holds its constants as integers over one
denominator, so the Jacobi check, the Killing form and its determinant
(through ``_linalg.det``) run in integer arithmetic; exact ``Fraction``
values come out only at its accessors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from lvf import _kernels as K
from lvf import _linalg
from lvf.errors import (
    DependentBasis,
    LvfError,
    NotFiniteDimensionalWithinBound,
    NotInSpan,
    ParameterizedInput,
)
from lvf.expr import as_fraction
from lvf.fields import VectorField

Key = Tuple[int, tuple, tuple]

# the largest basis ``close_under_bracket`` builds before it gives up
CLOSURE_BOUND = 32


def _require_parameter_free(fields: Iterable[VectorField]):
    for f in fields:
        if not f.is_parameter_free():
            raise ParameterizedInput(
                f"substitute parameters first: {sorted(f.params())}"
            )


class SpanTracker:
    """Incremental echelon form over a growing key set, on the echelon
    core.

    A field is stored as one row: its coefficient at key k in column
    ``-1 - k`` and a 1 in the combination column of its insertion
    index, the augmented-identity idiom of
    ``_linalg.echelon_with_identity``, all times the lcm of the
    field's component denominators, so the row enters the core in
    integers.  Key columns are negative, so
    ``min(row)`` pivots on them first; a row whose keys cancel has its
    pivot in a combination column, so the field is a member, and its
    combination columns give its coordinates.  The table holds the
    core's primitive integer rows, so a member's row is an integer
    relation ``sum_j row[j] * field_j = 0`` with ``lead = row[idx]``
    nonzero, and coordinate j is ``Fraction(-row[j], lead)``.
    """

    def __init__(self):
        self.key_index: Dict[Key, int] = {}
        self.table: Dict[int, Dict[int, int]] = {}
        self.count = 0  # fields inserted so far (successfully or not)

    def _vectorize(self, field: VectorField, idx: int) -> Dict[int, int]:
        """The integer row ``[L*v | L*e_idx]`` of ``field``, for L the lcm
        of its component denominators: a positive multiple of the
        rational row ``[v | e_idx]``, with the same primitive form."""
        parts = [comp.integer_terms() for comp in field.components]
        lcm = math.lcm(*[den for _, den in parts])
        vec: Dict[int, int] = {}
        for i, (num, den) in enumerate(parts):
            scale = lcm // den
            for (exp, mono, _), v in num.items():
                key = (i, exp, mono)
                col = self.key_index.get(key)
                if col is None:
                    col = -1 - len(self.key_index)
                    self.key_index[key] = col
                vec[col] = v * scale
        vec[idx] = lcm
        return vec

    def insert(self, field: VectorField) -> Tuple[bool, Dict[int, Fraction]]:
        """Try to add a field; returns (added, combo).

        When not added, ``combo`` expresses the field over previously
        *added* ones (by insertion index).
        """
        idx = self.count
        self.count += 1
        pivot = K.echelon_insert(self.table, self._vectorize(field, idx))
        if pivot < 0:
            return True, {}
        # keys cancelled: 0 = sum(row[j] * field_j), and row[idx] != 0
        row = self.table.pop(pivot)
        lead = row[idx]
        return False, {j: Fraction(-v, lead) for j, v in row.items() if j != idx}


def _basis_tracker(basis: Sequence[VectorField]) -> SpanTracker:
    """A tracker holding ``basis``; DependentBasis if it is dependent."""
    tracker = SpanTracker()
    for i, b in enumerate(basis):
        added, _ = tracker.insert(b)
        if not added:
            raise DependentBasis(f"basis element {i} depends on the previous ones")
    return tracker


def _coordinates(tracker: SpanTracker, field: VectorField) -> Dict[int, Fraction]:
    """The nonzero coordinates ``{j: c_j}`` of ``field`` over the fields
    of a basis tracker; NotInSpan if outside."""
    added, combo = tracker.insert(field)
    if added:
        raise NotInSpan(f"field is outside the span: {field}")
    return combo


def span_basis(fields: Sequence[VectorField]) -> List[VectorField]:
    """Maximal linearly independent sublist, in input order."""
    flist = list(fields)
    if not flist:
        return []
    _require_parameter_free(flist)
    tracker = SpanTracker()
    basis = []
    for f in flist:
        added, _ = tracker.insert(f)
        if added:
            basis.append(f)
    return basis


def express_in_basis(field: VectorField, basis: Sequence[VectorField]) -> List[Fraction]:
    """Exact coordinates of ``field`` over ``basis``; NotInSpan if outside."""
    blist = list(basis)
    _require_parameter_free(blist + [field])
    combo = _coordinates(_basis_tracker(blist), field)
    return [combo.get(j, Fraction(0)) for j in range(len(blist))]


class Closure(tuple):
    """Basis of a bracket closure, with the coordinates of its brackets.

    A tuple of the basis fields, so callers take its length, iterate it
    or pass it back in as a list of fields.  It also records:

    - ``positions``: the basis index of each input field, or None for
      an input that depends on earlier ones;
    - ``constants``: the coordinates ``{k: c^k_ij}`` of every nonzero
      ``[b_i, b_j]``, i < j.
    """

    positions: Tuple[Optional[int], ...]
    constants: Dict[Tuple[int, int], Dict[int, Fraction]]

    def __new__(cls, basis, positions, constants):
        self = super().__new__(cls, basis)
        self.positions = tuple(positions)
        self.constants = constants
        return self


def close_under_bracket(fields: Sequence[VectorField]) -> Closure:
    """Basis of the smallest bracket-closed span containing the fields.

    Basis order is input order, then discovery order.  Each pair of
    basis fields is bracketed once; the result records the coordinates
    of every nonzero bracket (see ``Closure``).  Raises
    NotFiniteDimensionalWithinBound when the dimension would pass
    ``CLOSURE_BOUND``.
    """
    _require_parameter_free(fields)
    tracker = SpanTracker()
    basis: List[VectorField] = []
    at: List[Optional[int]] = []  # basis index of each insert, None if not added

    def insert(field) -> Dict[int, Fraction]:
        """Coordinates of ``field`` over the basis, which takes it as a
        new element when it is independent."""
        added, combo = tracker.insert(field)
        if not added:
            at.append(None)
            return {at[j]: v for j, v in combo.items()}
        at.append(len(basis))
        basis.append(field)
        if len(basis) > CLOSURE_BOUND:
            raise NotFiniteDimensionalWithinBound(CLOSURE_BOUND)
        return {at[-1]: Fraction(1)}

    for f in fields:
        insert(f)
    positions = list(at)
    constants: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    j = 0
    while j < len(basis):
        for i in range(j):
            w = basis[i].bracket(basis[j])
            if not w.is_zero():
                constants[(i, j)] = insert(w)
        j += 1
    return Closure(basis, positions, constants)


class StructureTensor:
    """Structure constants c^k_{ij} of a finite-dimensional algebra.

    Built from the sparse coordinates ``{(i, j): {k: c^k_ij}}`` of the
    brackets with i < j, the form ``Closure.constants`` records;
    antisymmetry fills the rest.  A constant is an ``int``, a
    ``Fraction`` or a literal like ``'-3/4'``, never a float.  The
    nonzero constants are stored as one sparse integer table over their
    common denominator D, the lcm of their denominators:
    ``_table[a][b] = {k: n}`` with c^k_ab = n/D, for every ordered pair
    with a nonzero bracket.  The Jacobi check (run on construction),
    the Killing form and its determinant are integer arithmetic on that
    table, scaled by D^2 (each Jacobi sum and Killing entry) and
    D^(2m) (the determinant); ``c``, ``bracket_vectors``,
    ``constants``, ``killing_form`` and ``killing_det`` divide by the
    scale only as they hand out exact ``Fraction``s.
    """

    def __init__(self, dim: int, constants: Dict[Tuple[int, int], Dict[int, object]]):
        self.dim = dim
        coords = []
        for (i, j), vec in constants.items():
            if not 0 <= i < j < dim:
                raise LvfError(f"bad index pair ({i}, {j})")
            vec = {k: as_fraction(v) for k, v in vec.items()}
            if not all(0 <= k < dim for k in vec):
                raise LvfError(f"coordinate index out of range in [b_{i}, b_{j}]")
            coords.append((i, j, vec))
        den = math.lcm(*[v.denominator for _, _, vec in coords for v in vec.values()])
        self._den = den
        self._table: List[Dict[int, Dict[int, int]]] = [{} for _ in range(dim)]
        for i, j, vec in coords:
            row = {k: v.numerator * (den // v.denominator) for k, v in vec.items() if v}
            if row:
                self._table[i][j] = row
                self._table[j][i] = {k: -n for k, n in row.items()}
        self._check_jacobi()

    @property
    def constants(self) -> Dict[Tuple[int, int], Tuple[Fraction, ...]]:
        """``{(i, j): c(i, j)}`` for every nonzero bracket with i < j,
        built on each call."""
        return {
            (i, j): self.c(i, j)
            for i, row in enumerate(self._table)
            for j in sorted(row)
            if i < j
        }

    def c(self, i: int, j: int) -> Tuple[Fraction, ...]:
        """[b_i, b_j] as a coordinate vector."""
        vec = self._table[i].get(j, {})
        return tuple(Fraction(vec.get(k, 0), self._den) for k in range(self.dim))

    def bracket_vectors(self, u: Sequence[Fraction], v: Sequence[Fraction]):
        out = [0] * self.dim
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                for k, n in self._table[i].get(j, {}).items():
                    out[k] += ui * vj * n
        return [Fraction(x, self._den) for x in out]

    def _check_jacobi(self):
        """[b_i,[b_j,b_k]] + [b_j,[b_k,b_i]] + [b_k,[b_i,b_j]] = 0 on every
        triple i < j < k, summing only nonzero products.  Each sum is in
        integers, D^2 times the rational one."""
        m = self.dim
        table = self._table
        for i in range(m):
            ci = table[i]
            for j in range(i + 1, m):
                cj = table[j]
                cij = ci.get(j)
                for k in range(j + 1, m):
                    ck = table[k]
                    acc: Dict[int, int] = {}
                    for outer, inner in ((cj.get(k), ci), (ck.get(i), cj), (cij, ck)):
                        if not outer:
                            continue
                        for s, v in outer.items():
                            row = inner.get(s)
                            if row:
                                for t, w in row.items():
                                    acc[t] = acc.get(t, 0) + v * w
                    if any(acc.values()):
                        raise LvfError(
                            f"Jacobi identity fails on basis triple ({i},{j},{k})"
                        )

    def _killing_matrix(self) -> List[List[int]]:
        """D^2 K as an integer matrix."""
        m = self.dim
        table = self._table
        K = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                cj = table[j]
                tr = 0
                for s, vec in table[i].items():
                    for t, a in vec.items():
                        row = cj.get(t)
                        if row:
                            b = row.get(s)
                            if b:
                                tr += a * b
                K[i][j] = K[j][i] = tr
        return K

    def killing_form(self):
        """K_ij = trace(ad_i . ad_j) = sum_{s,t} c^t_is c^s_jt, symmetric
        rational matrix."""
        scale = self._den ** 2
        return [[Fraction(v, scale) for v in row] for row in self._killing_matrix()]

    def killing_det(self) -> Fraction:
        """det K: the determinant of the integer matrix D^2 K over
        D^(2m)."""
        return _linalg.det(self._killing_matrix()) / self._den ** (2 * self.dim)

    def is_semisimple(self) -> bool:
        """Cartan's criterion: nondegenerate Killing form."""
        return self.killing_det() != 0


def structure_tensor(basis: Sequence[VectorField]) -> StructureTensor:
    """Extract c^k_{ij} from a bracket-closed independent basis.

    A ``Closure`` already holds its constants, so its tensor takes no
    bracket.  Any other basis is bracketed pair by pair, and one tracker
    of the basis serves every bracket, so a dependent basis raises
    DependentBasis even when all brackets vanish.
    """
    if isinstance(basis, Closure):
        return StructureTensor(len(basis), basis.constants)
    blist = list(basis)
    _require_parameter_free(blist)
    tracker = _basis_tracker(blist)
    m = len(blist)
    constants = {}
    for i in range(m):
        for j in range(i + 1, m):
            w = blist[i].bracket(blist[j])
            if w.is_zero():
                continue
            constants[(i, j)] = _coordinates(tracker, w)
    return StructureTensor(m, constants)
