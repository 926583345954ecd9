"""Finite-dimensional Lie-algebra structure from concrete vector fields.

Fields are flattened to exact coefficient vectors over their
``(component, exponent, monomial)`` support, so linear questions (span,
membership, coordinates) reduce to rational Gaussian elimination.  All
inputs must be parameter-free; substitute parameters first.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from lvf import _linalg
from lvf.errors import (
    DependentBasis,
    LvfError,
    NotFiniteDimensionalWithinBound,
    NotInSpan,
    ParameterizedInput,
)
from lvf.fields import VectorField

Key = Tuple[int, tuple, tuple]


def _require_parameter_free(fields: Iterable[VectorField]):
    for f in fields:
        if not f.is_parameter_free():
            raise ParameterizedInput(
                f"substitute parameters first: {sorted(f.params())}"
            )


class SpanTracker:
    """Incremental echelon form over a growing key set.

    Keeps, for every echelon row, the combination of inserted fields
    that produced it, so coordinates of a member come out for free.
    """

    def __init__(self):
        self.key_index: Dict[Key, int] = {}
        self.rows: List[Tuple[Dict[int, Fraction], Dict[int, Fraction]]] = []
        self.count = 0  # fields inserted so far (successfully or not)

    def _vectorize(self, field: VectorField) -> Dict[int, Fraction]:
        vec: Dict[int, Fraction] = {}
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

    def insert(self, field: VectorField) -> Tuple[bool, Dict[int, Fraction]]:
        """Try to add a field; returns (added, combo).

        When not added, ``combo`` expresses the field over previously
        *added* ones (by insertion index).
        """
        vec = self._vectorize(field)
        combo: Dict[int, Fraction] = {self.count: Fraction(1)}
        for row, rcombo in self.rows:
            piv = row_pivot(row)
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
        piv = row_pivot(vec)
        inv = 1 / vec[piv]
        if inv != 1:
            vec = {c: v * inv for c, v in vec.items()}
            combo = {c: v * inv for c, v in combo.items()}
        self.rows.append((vec, combo))
        return True, {}


def row_pivot(row: Dict[int, Fraction]) -> int:
    return min(row)


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
    tracker = SpanTracker()
    for i, b in enumerate(blist):
        added, _ = tracker.insert(b)
        if not added:
            raise DependentBasis(f"basis element {i} depends on the previous ones")
    added, combo = tracker.insert(field)
    if added:
        raise NotInSpan(f"field is outside the span: {field}")
    return [combo.get(j, Fraction(0)) for j in range(len(blist))]


def close_under_bracket(
    fields: Sequence[VectorField], max_dim: int = 64
) -> List[VectorField]:
    """Basis of the smallest bracket-closed span containing the fields.

    Basis order is input order, then discovery order.  Raises
    NotFiniteDimensionalWithinBound when the dimension would pass
    ``max_dim``.
    """
    _require_parameter_free(fields)
    tracker = SpanTracker()
    basis: List[VectorField] = []
    for f in fields:
        added, _ = tracker.insert(f)
        if added:
            basis.append(f)
            if len(basis) > max_dim:
                raise NotFiniteDimensionalWithinBound(max_dim)
    j = 0
    while j < len(basis):
        for i in range(j):
            w = basis[i].bracket(basis[j])
            if w.is_zero():
                continue
            added, _ = tracker.insert(w)
            if added:
                basis.append(w)
                if len(basis) > max_dim:
                    raise NotFiniteDimensionalWithinBound(max_dim)
        j += 1
    return basis


class StructureTensor:
    """Structure constants c^k_{ij} of a finite-dimensional algebra.

    Stored for i < j; antisymmetry fills the rest.  Construction checks
    the Jacobi identity exactly.
    """

    def __init__(self, dim: int, constants: Dict[Tuple[int, int], Tuple[Fraction, ...]]):
        self.dim = dim
        self.constants = {}
        for (i, j), vec in constants.items():
            if not 0 <= i < j < dim:
                raise LvfError(f"bad index pair ({i}, {j})")
            vec = tuple(Fraction(v) for v in vec)
            if len(vec) != dim:
                raise LvfError("constant vector of wrong length")
            if any(vec):
                self.constants[(i, j)] = vec
        self._check_jacobi()

    def c(self, i: int, j: int) -> Tuple[Fraction, ...]:
        """[b_i, b_j] as a coordinate vector."""
        if i == j:
            return (Fraction(0),) * self.dim
        if i < j:
            return self.constants.get((i, j), (Fraction(0),) * self.dim)
        vec = self.constants.get((j, i))
        if vec is None:
            return (Fraction(0),) * self.dim
        return tuple(-v for v in vec)

    def bracket_vectors(self, u: Sequence[Fraction], v: Sequence[Fraction]):
        out = [Fraction(0)] * self.dim
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                for k, ck in enumerate(self.c(i, j)):
                    if ck:
                        out[k] += ui * vj * ck
        return out

    def _check_jacobi(self):
        m = self.dim
        for i in range(m):
            for j in range(i + 1, m):
                cij = self.c(i, j)
                for k in range(j + 1, m):
                    acc = [Fraction(0)] * m
                    cjk = self.c(j, k)
                    cki = self.c(k, i)
                    for s in range(m):
                        if cjk[s]:
                            for t, v in enumerate(self.c(i, s)):
                                acc[t] += cjk[s] * v
                        if cki[s]:
                            for t, v in enumerate(self.c(j, s)):
                                acc[t] += cki[s] * v
                        if cij[s]:
                            for t, v in enumerate(self.c(k, s)):
                                acc[t] += cij[s] * v
                    if any(acc):
                        raise LvfError(
                            f"Jacobi identity fails on basis triple ({i},{j},{k})"
                        )

    def ad_matrix(self, i: int):
        """Matrix of ad(b_i): column j holds [b_i, b_j]."""
        cols = [self.c(i, j) for j in range(self.dim)]
        return [[cols[j][k] for j in range(self.dim)] for k in range(self.dim)]

    def killing_form(self):
        """K_ij = trace(ad_i . ad_j), symmetric rational matrix."""
        m = self.dim
        ads = [self.ad_matrix(i) for i in range(m)]
        K = [[Fraction(0)] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                tr = Fraction(0)
                A, B = ads[i], ads[j]
                for r in range(m):
                    for s in range(m):
                        if A[r][s] and B[s][r]:
                            tr += A[r][s] * B[s][r]
                K[i][j] = K[j][i] = tr
        return K

    def killing_det(self) -> Fraction:
        return _linalg.det(self.killing_form())

    def is_semisimple(self) -> bool:
        """Cartan's criterion: nondegenerate Killing form."""
        return self.killing_det() != 0


def structure_tensor(basis: Sequence[VectorField]) -> StructureTensor:
    """Extract c^k_{ij} from a bracket-closed independent basis."""
    blist = list(basis)
    _require_parameter_free(blist)
    m = len(blist)
    constants = {}
    for i in range(m):
        for j in range(i + 1, m):
            w = blist[i].bracket(blist[j])
            if w.is_zero():
                continue
            coeffs = express_in_basis(w, blist)
            constants[(i, j)] = tuple(coeffs)
    return StructureTensor(m, constants)


def killing_form(tensor: StructureTensor):
    return tensor.killing_form()


def is_semisimple(tensor: StructureTensor) -> bool:
    return tensor.is_semisimple()
