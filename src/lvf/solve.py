"""Exact linear solver for bracket constraints on an unknown field.

The unknown is confined to a finite :class:`AnsatzSpace`: a choice of
allowed exponent vectors, a maximal total polynomial degree and a set
of allowed components.  Constraints are of three kinds against a known
parameter-free field K: ``[K, X] = c X`` (eigen), ``[K, X] = 0`` (zero)
and ``[K, X] = T`` (equals).  Each constraint maps the ansatz linearly
into a finite-dimensional target space whose basis is derived from the
images, so the solution set comes out of one exact elimination.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from lvf import _kernels as K
from lvf import _linalg
from lvf.errors import AnsatzExplosion, InternalError, LvfError, ParameterizedInput
from lvf.expr import ExpPoly, as_fraction, encode_exponents
from lvf.fields import VectorField, generic_rank

DEFAULT_TARGET_BOUND = 20000


def _monomials(dim: int, max_degree: int):
    """All coordinate multi-indices of total degree <= max_degree."""
    out = []
    for total in range(max_degree + 1):
        for cuts in itertools.combinations_with_replacement(range(dim), total):
            mono = [0] * dim
            for i in cuts:
                mono[i] += 1
            out.append(tuple(mono))
    return sorted(out)


@dataclass(frozen=True)
class AnsatzSpace:
    """Finite search space: exponents x degrees x components."""

    dim: int
    exponents: Tuple[Tuple[Fraction, ...], ...]
    max_degree: int
    components: Tuple[int, ...]

    def __init__(self, dim, exponents=((),), max_degree=2, components=None):
        exps = []
        for e in exponents:
            vec = tuple(as_fraction(v) for v in e) if e else (Fraction(0),) * dim
            if len(vec) != dim:
                raise LvfError(f"exponent vector {e} in dimension {dim}")
            exps.append(vec)
        if not exps:
            exps.append((Fraction(0),) * dim)
        comps = tuple(components) if components is not None else tuple(range(dim))
        if any(not 0 <= c < dim for c in comps):
            raise LvfError("component index out of range")
        if int(max_degree) < 0:
            raise LvfError(f"ansatz degree must be at least 0, not {max_degree}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "exponents", tuple(sorted(set(exps))))
        object.__setattr__(self, "max_degree", int(max_degree))
        object.__setattr__(self, "components", tuple(sorted(set(comps))))

    def basis_keys(self) -> List[Tuple[int, tuple, tuple]]:
        """Canonical ordered basis of one-term fields.

        Exponent vectors appear in their canonical integer encoding, as
        used by the term maps themselves.
        """
        monos = _monomials(self.dim, self.max_degree)
        encoded = [encode_exponents(e) for e in self.exponents]
        return [
            (c, exp, mono)
            for c in self.components
            for exp in encoded
            for mono in monos
        ]

    def basis_field(self, key) -> VectorField:
        c, exp, mono = key
        comps = [ExpPoly.zero(self.dim) for _ in range(self.dim)]
        comps[c] = ExpPoly(self.dim, {(exp, mono): {(): Fraction(1)}})
        return VectorField(comps)

    def dimension(self) -> int:
        return len(self.basis_keys())

    def describe(self) -> str:
        exps = ", ".join(
            "(" + ",".join(str(q) for q in e) + ")" for e in self.exponents
        )
        comps = ",".join(str(c + 1) for c in self.components)
        return (
            f"dim={self.dim} exponents=[{exps}] degree<={self.max_degree} "
            f"components=[{comps}]"
        )


@dataclass(frozen=True)
class BracketConstraint:
    """[known, X] = eigenvalue*X | 0 | target."""

    known: VectorField
    kind: str  # "eigen" | "zero" | "equals"
    eigenvalue: Fraction = Fraction(0)
    target: Optional[VectorField] = None

    @classmethod
    def eigen(cls, known: VectorField, value) -> "BracketConstraint":
        return cls(known, "eigen", as_fraction(value))

    @classmethod
    def commutes(cls, known: VectorField) -> "BracketConstraint":
        return cls(known, "zero")

    @classmethod
    def equals(cls, known: VectorField, target: VectorField) -> "BracketConstraint":
        return cls(known, "equals", Fraction(0), target)

    def residual(self, x: VectorField) -> VectorField:
        out = self.known.bracket(x)
        if self.kind == "eigen":
            out = out - x * self.eigenvalue
        elif self.kind == "equals":
            out = out - self.target
        return out


@dataclass
class SolveResult:
    basis: List[VectorField]
    particular: Optional[VectorField]
    matrix_rank: int
    ansatz_dim: int
    inconsistency: Optional[str] = None

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _field_keys(field: VectorField):
    for i, comp in enumerate(field.components):
        for (exp, mono), pp in comp.term_map().items():
            yield (i, exp, mono), pp[()]


def _raw_terms(comp: ExpPoly):
    """``((exp, mono), value)`` pairs of a parameter-free scalar, in
    term-map order."""
    return [(key, pp[()]) for key, pp in comp.term_map().items()]


def _accumulate(out, key, value):
    """``out[key] += value``, dropping the key when the sum vanishes."""
    cur = out.get(key)
    if cur is None:
        out[key] = value
    else:
        cur += value
        if cur:
            out[key] = cur
        else:
            del out[key]


def _build_system(constraints, ansatz: AnsatzSpace, target_bound: int):
    """The constraint matrix over the ansatz basis.

    Returns ``(keys, targets, rows, rhs)``: the column keys, one target
    key ``(constraint, component, exp, mono)`` per row in order of first
    appearance, the sparse rows, and the right-hand side (None without
    an ``equals`` constraint).

    One-term basis fields make the constraint images cheap:
      [K, f d_c] = K(f) d_c - f * sum_j (dK^j/dx_c) d_j
    and f = x^m exp(q.x) has coefficient 1, so K(f) and f*dK are key
    shifts of the raw terms of K.  K(f) is shared across the ansatz
    components.  Terms are produced in the order of the term-map
    arithmetic, so row order (and the inconsistency witness) matches a
    build through ``ExpPoly``.
    """
    keys = ansatz.basis_keys()
    col_index = {key: m for m, key in enumerate(keys)}
    dim = ansatz.dim
    target_index: Dict[Tuple[int, int, tuple, tuple], int] = {}
    rows: List[Dict[int, Fraction]] = []

    def index_of(full):
        idx = target_index.get(full)
        if idx is None:
            idx = len(target_index)
            target_index[full] = idx
            if idx >= target_bound:
                raise AnsatzExplosion(idx + 1, target_bound)
            rows.append({})
        return idx

    exps = sorted({exp for _, exp, _ in keys})
    monos = sorted({mono for _, _, mono in keys})
    for ci, cons in enumerate(constraints):
        known = cons.known.components
        kc = [_raw_terms(comp) for comp in known]
        # the nonzero dK^j/dx_c, negated, for the f*dK images
        dk = {c: [] for c in ansatz.components}
        for c in ansatz.components:
            for j in range(dim):
                terms = _raw_terms(known[j].diff(c))
                if terms:
                    dk[c].append((j, [(e, mk, -v) for (e, mk), v in terms]))
        eig = as_fraction(cons.eigenvalue) if cons.kind == "eigen" else 0
        for exp in exps:
            q = [Fraction(n, exp[0]) for n in exp[1:]]
            k_shifted = [
                [(K.exp_add(ek, exp), mk, a) for (ek, mk), a in terms] for terms in kc
            ]
            dk_shifted = {
                c: [
                    (j, [(K.exp_add(exp, e), mk, v) for e, mk, v in terms])
                    for j, terms in images
                ]
                for c, images in dk.items()
            }
            for mono in monos:
                # K(f) = sum_j K^j df/dx_j, df/dx_j = m_j x^(m-e_j) e^(q.x) + q_j f
                kf: Dict[tuple, Fraction] = {}
                for j in range(dim):
                    m = mono[j]
                    if not k_shifted[j] or not (m or q[j]):
                        continue
                    fd = []
                    if m:
                        fd.append((mono[:j] + (m - 1,) + mono[j + 1:], m))
                    if q[j]:
                        fd.append((mono, q[j]))
                    prod: Dict[tuple, Fraction] = {}
                    for e, mk, a in k_shifted[j]:
                        for mf, b in fd:
                            _accumulate(prod, (e, tuple(map(add, mk, mf))), a * b)
                    if kf:
                        for key, v in prod.items():
                            _accumulate(kf, key, v)
                    else:
                        kf = prod
                diag = kf
                if eig:
                    diag = dict(kf)
                    _accumulate(diag, (exp, mono), -eig)
                for c in ansatz.components:
                    col = col_index[(c, exp, mono)]
                    for (e, mk), v in diag.items():
                        _accumulate(rows[index_of((ci, c, e, mk))], col, v)
                    for j, terms in dk_shifted[c]:
                        for e, mk, v in terms:
                            key = (ci, j, e, tuple(map(add, mono, mk)))
                            _accumulate(rows[index_of(key)], col, v)

    rhs = None
    if any(c.kind == "equals" for c in constraints):
        rhs_entries: Dict[int, Fraction] = {}
        for ci, cons in enumerate(constraints):
            if cons.kind != "equals":
                continue
            for fkey, value in _field_keys(cons.target):
                idx = index_of((ci, *fkey))
                rhs_entries[idx] = rhs_entries.get(idx, Fraction(0)) + value
        rhs = [rhs_entries.get(i, Fraction(0)) for i in range(len(rows))]
    return keys, list(target_index), rows, rhs


def solve(
    constraints: Sequence[BracketConstraint],
    ansatz: AnsatzSpace,
    target_bound: int = DEFAULT_TARGET_BOUND,
) -> SolveResult:
    """Exact basis of the solution set of the constraints in the ansatz.

    The homogeneous part is always a linear-space basis; with an
    ``equals`` constraint the result also carries a particular solution
    (or an inconsistency witness and an empty basis).
    """
    for c in constraints:
        if not c.known.is_parameter_free():
            raise ParameterizedInput("constraint fields must be parameter-free")
        if c.target is not None and not c.target.is_parameter_free():
            raise ParameterizedInput("constraint targets must be parameter-free")
        if c.known.dim != ansatz.dim:
            raise LvfError("constraint dimension does not match the ansatz")

    keys, targets, rows, rhs = _build_system(constraints, ansatz, target_bound)
    ncols = len(keys)

    def to_field(vec: Dict[int, Fraction]) -> VectorField:
        terms: Dict[int, dict] = {c: {} for c in range(ansatz.dim)}
        for m, v in vec.items():
            comp, exp, mono = keys[m]
            terms[comp][(exp, mono)] = {(): v}
        return VectorField(
            [ExpPoly(ansatz.dim, terms[c]) for c in range(ansatz.dim)]
        )

    if rhs is not None:
        particular_vec, hom, mrank, witness = _linalg.solve_affine(rows, rhs, ncols)
        if witness is not None:
            ci, comp = targets[witness][:2]
            detail = f"constraint {ci} has no solution at component {comp + 1}"
            return SolveResult([], None, mrank, ncols, detail)
        basis = [to_field(v) for v in hom]
        particular = to_field(particular_vec)
        result = SolveResult(basis, particular, mrank, ncols)
    else:
        pivots, rrows = _linalg.rref(rows, ncols)
        hom = _linalg.nullspace_from_rref(pivots, rrows, ncols)
        result = SolveResult([to_field(v) for v in hom], None, len(pivots), ncols)

    # soundness: every reported solution satisfies every constraint exactly
    for x in result.basis:
        for cons in constraints:
            check = cons.residual(x) if cons.kind != "equals" else (
                cons.known.bracket(x)
            )
            if not check.is_zero():
                raise InternalError("solution fails a constraint")
    if result.particular is not None:
        for cons in constraints:
            if not cons.residual(result.particular).is_zero():
                raise InternalError("particular solution fails a constraint")
    return result


def centralizer(
    algebra: Sequence[VectorField],
    ansatz: AnsatzSpace,
    target_bound: int = DEFAULT_TARGET_BOUND,
) -> SolveResult:
    """Solution space of [g, X] = 0 for every g in the algebra."""
    constraints = [BracketConstraint.commutes(g) for g in algebra]
    return solve(constraints, ansatz, target_bound)


def centralizer_rank(
    algebra: Sequence[VectorField],
    ansatz: AnsatzSpace,
    target_bound: int = DEFAULT_TARGET_BOUND,
) -> int:
    """Generic rank of the centralizer inside the ansatz."""
    result = centralizer(algebra, ansatz, target_bound)
    if not result.basis:
        return 0
    return generic_rank(result.basis)
