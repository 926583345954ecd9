"""Exact linear solver for bracket constraints on an unknown field.

The unknown is confined to a finite :class:`AnsatzSpace`: a choice of
allowed exponent vectors, a maximal total polynomial degree and a set
of allowed components.  Constraints are of three kinds against a known
parameter-free field K: ``[K, X] = c X`` (eigen), ``[K, X] = 0`` (zero)
and ``[K, X] = T`` (equals).  Each constraint maps the ansatz linearly
into a finite-dimensional target space whose basis is derived from the
images.  With an ``equals`` constraint the stacked system is solved in
one exact elimination pass; once the matrix reaches full column rank,
each later row is checked against the unique solution instead of being
reduced, which leaves the witness and the rank of the whole matrix
unchanged.  Homogeneous constraints are solved one at a time, each on
the kernel left by the ones before it.  A graded known field,
H = sum_j (a_j x_j + b_j) d_j with a_j b_j = 0 (every Cartan element of
the obstruction pipeline), confines every solution to the basis fields
of one weight, wherever its constraint stands: the first stage starts
on the columns all graded constraints keep, and every constraint then
takes the same build.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import add, mul
from typing import Dict, List, Optional, Sequence, Tuple

from lvf import _kernels as K
from lvf import _linalg
from lvf._kernels import add_into
from lvf.errors import AnsatzExplosion, InternalError, LvfError, ParameterizedInput
from lvf.expr import ExpPoly, as_fraction, encode_exponents, zero_exponents
from lvf.fields import VectorField, generic_rank
from lvf.parsing import check_dimension

DEFAULT_TARGET_BOUND = 20000
_ZERO = Fraction(0)  # shared by every right-hand side entry that starts at zero


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


def _ansatz_size(dim: int, max_degree: int, blocks: int) -> int:
    """``blocks * C(dim + max_degree, dim)``, the number of basis fields.

    Each factor of the running product is at least 1, so once it
    passes DEFAULT_TARGET_BOUND the lower bound is returned at once:
    huge dimensions or degrees cost a few steps, not a huge binomial.
    """
    size = blocks
    for j in range(1, min(dim, max_degree) + 1):
        if not 0 < size <= DEFAULT_TARGET_BOUND:
            break
        size = size * (dim + max_degree + 1 - j) // j
    return size


def exponent_vector(e, dim: int) -> Tuple[Fraction, ...]:
    """``e`` as exact rationals, or () for the zero vector.  A vector
    whose length is not ``dim`` is refused, written as in a solve file."""
    vec = tuple(as_fraction(v) for v in e)
    if vec and len(vec) != dim:
        text = ",".join(str(v) for v in vec)
        raise LvfError(f"exponent vector ({text}) in dimension {dim}")
    return vec if any(vec) else ()


@dataclass(frozen=True)
class AnsatzSpace:
    """Finite search space: exponents x degrees x components."""

    dim: int
    exponents: Tuple[Tuple[Fraction, ...], ...]
    max_degree: int
    components: Tuple[int, ...]

    def __init__(self, dim, exponents=((),), max_degree=2, components=None):
        # () stands for the zero vector until the dimension is bounded, so
        # no table of size dim is built before the checks below
        vecs = {exponent_vector(e, dim) for e in exponents}
        if not vecs:
            vecs.add(())
        comps = set(components) if components is not None else range(dim)
        if any(not 0 <= c < dim for c in comps):
            raise LvfError("component index out of range")
        if int(max_degree) < 0:
            raise LvfError(f"ansatz degree must be at least 0, not {max_degree}")
        # the bound counts the fields of one exponent vector: the vectors
        # are listed one by one, while dimension and degree grow the space
        # as a binomial; solve bounds the rows it builds over all of them
        if _ansatz_size(dim, int(max_degree), len(comps)) > DEFAULT_TARGET_BOUND:
            raise LvfError(
                f"ansatz of degree {max_degree} in dimension {dim} has more "
                f"than {DEFAULT_TARGET_BOUND} basis fields"
            )
        check_dimension(dim)
        zero = (Fraction(0),) * dim
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "exponents", tuple(sorted(v or zero for v in vecs)))
        object.__setattr__(self, "max_degree", int(max_degree))
        object.__setattr__(self, "components", tuple(sorted(comps)))

    @cached_property
    def _columns(self):
        """Setup shared by every build over this space: the basis keys,
        their column indices, the encoded exponents and the monomials."""
        monos = _monomials(self.dim, self.max_degree)
        encoded = [encode_exponents(e) for e in self.exponents]
        keys = tuple(
            (c, exp, mono)
            for c in self.components
            for exp in encoded
            for mono in monos
        )
        return keys, {key: m for m, key in enumerate(keys)}, sorted(encoded), monos

    def basis_keys(self) -> List[Tuple[int, tuple, tuple]]:
        """Canonical ordered basis of one-term fields.

        Exponent vectors appear in their canonical integer encoding, as
        used by the term maps themselves.
        """
        return list(self._columns[0])

    def basis_field(self, key) -> VectorField:
        c, exp, mono = key
        comps = [ExpPoly.zero(self.dim) for _ in range(self.dim)]
        comps[c] = ExpPoly(self.dim, {(exp, mono): {(): Fraction(1)}})
        return VectorField(comps)

    def dimension(self) -> int:
        # exact: the constructor refused every block above the bound
        block = _ansatz_size(self.dim, self.max_degree, len(self.components))
        return len(self.exponents) * block

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


def _build_system(constraints, ansatz: AnsatzSpace, target_bound: int, columns=None):
    """The constraint matrix over the ansatz basis.

    Returns ``(keys, targets, rows, rhs)``: the column keys, one target
    key ``(constraint, component, exp, mono)`` per row in order of first
    appearance, the sparse rows, and the right-hand side (None without
    an ``equals`` constraint).  With ``columns``, a set of column
    indices, only the images of those basis fields are built.

    One-term basis fields make the constraint images cheap:
      [K, f d_c] = K(f) d_c - f * sum_j (dK^j/dx_c) d_j
    and f = x^m exp(q.x) has coefficient 1, so K(f) and f*dK are key
    shifts of the raw terms of K.  K(f) is shared across the ansatz
    components.  Terms are produced in the order of the term-map
    arithmetic, so row order (and the inconsistency witness) matches a
    build through ``ExpPoly``.
    """
    keys, col_index, exps, monos = ansatz._columns
    dim = ansatz.dim
    by_exp = {exp: monos for exp in exps}
    if columns is not None:
        # visit only the monomials of the wanted columns, in the same order
        by_exp = {}
        for col in columns:
            _, exp, mono = keys[col]
            by_exp.setdefault(exp, set()).add(mono)
        by_exp = {exp: sorted(by_exp[exp]) for exp in exps if exp in by_exp}
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
        for exp, exp_monos in by_exp.items():
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
            for mono in exp_monos:
                cols = [(c, col_index[(c, exp, mono)]) for c in ansatz.components]
                if columns is not None:
                    cols = [(c, col) for c, col in cols if col in columns]
                if not cols:
                    continue
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
                            add_into(prod, (e, tuple(map(add, mk, mf))), a * b)
                    if kf:
                        for key, v in prod.items():
                            add_into(kf, key, v)
                    else:
                        kf = prod
                diag = kf
                if eig:
                    diag = dict(kf)
                    add_into(diag, (exp, mono), -eig)
                for c, col in cols:
                    for (e, mk), v in diag.items():
                        add_into(rows[index_of((ci, c, e, mk))], col, v)
                    for j, terms in dk_shifted[c]:
                        for e, mk, v in terms:
                            key = (ci, j, e, tuple(map(add, mono, mk)))
                            add_into(rows[index_of(key)], col, v)

    rhs = None
    if any(c.kind == "equals" for c in constraints):
        rhs_entries: Dict[int, Fraction] = {}
        for ci, cons in enumerate(constraints):
            if cons.kind != "equals":
                continue
            for fkey, value in _field_keys(cons.target):
                idx = index_of((ci, *fkey))
                rhs_entries[idx] = rhs_entries.get(idx, _ZERO) + value
        rhs = [rhs_entries.get(i, _ZERO) for i in range(len(rows))]
    return list(keys), list(target_index), rows, rhs


def _compose(rows, basis):
    """The rows of the product M N, for the sparse rows of M and the
    columns of N given as the sparse vectors ``basis``.  Entries of N
    equal to 1 (every start vector, every free column) skip the product."""
    by_col: Dict[int, List[Tuple[int, Fraction]]] = {}
    for j, vec in enumerate(basis):
        for c, v in vec.items():
            by_col.setdefault(c, []).append((j, v))
    out = []
    for row in rows:
        acc: Dict[int, Fraction] = {}
        for c, a in row.items():
            for j, v in by_col[c]:
                add_into(acc, j, a if v == 1 else a * v)
        out.append(acc)
    return out


def _combine(coeffs, basis):
    """``sum_j coeffs[j] * basis[j]`` as a sparse vector."""
    out: Dict[int, Fraction] = {}
    for j, a in coeffs.items():
        for c, v in basis[j].items():
            add_into(out, c, a if v == 1 else a * v)
    return out


def _graded_weights(known: VectorField):
    """``(a, b)`` when known = sum_j (a_j x_j + b_j) d_j with a_j b_j = 0
    for every j, else None."""
    zero = zero_exponents(known.dim)
    a = [Fraction(0)] * known.dim
    b = [Fraction(0)] * known.dim
    for j, comp in enumerate(known.components):
        for (exp, mono), pp in comp.term_map().items():
            if exp != zero or list(pp) != [()]:
                return None
            if not any(mono):
                b[j] = pp[()]
            elif mono[j] == 1 and sum(mono) == 1:
                a[j] = pp[()]
            else:
                return None
        if a[j] and b[j]:
            return None
    return a, b


def _graded_columns(graded, ansatz: AnsatzSpace):
    """Sorted columns on which the graded constraints ``graded``, given
    as ``(a, b, c)`` for [H, X] = cX with H = sum_j (a_j x_j + b_j) d_j
    (see ``_graded_weights``), can have a common solution.

    On f = x^m e^(q.x) the bracket splits as
      [H, f d_c] = (a.m + b.q - a_c) f d_c + (sum_i a_i q_i x_i) f d_c
                   + (sum_i b_i m_i x^(m-e_i) e^(q.x)) d_c.
    The middle term raises the degree, so a block with some a_i q_i != 0
    has kernel {0}.  In any other block the last term keeps the weight
    a.m + b.q - a_c (b_i != 0 only where a_i = 0), and ad H - c is
    invertible on every weight but c: each solution lives on the
    columns of weight c, for each graded constraint.
    """
    _, col_index, exps, monos = ansatz._columns
    scaled = []
    for a, b, c in graded:
        # integer weights: everything scaled by the common denominator
        scale = math.lcm(c.denominator, *(v.denominator for v in a + b))
        ia = [int(v * scale) for v in a]
        ib = [int(v * scale) for v in b]
        scaled.append((ia, ib, int(c * scale)))
    # a.m of the first constraint once per monomial; the others only on
    # the monomials that pass it
    am = [sum(map(mul, scaled[0][0], mono)) for mono in monos]
    columns = []
    for exp in exps:
        den, nums = exp[0], exp[1:]
        if any(x and n for ia, _, _ in scaled for x, n in zip(ia, nums)):
            continue
        for comp in ansatz.components:
            # weight c, times den: den * (a.m - a_c - c) + b.(den q) = 0
            need = [
                divmod(den * (ia[comp] + ic) - sum(map(mul, ib, nums)), den)
                for ia, ib, ic in scaled
            ]
            if any(rem for _, rem in need):
                continue
            kept = [mono for mono, w in zip(monos, am) if w == need[0][0]]
            for (ia, _, _), (n, _) in zip(scaled[1:], need[1:]):
                kept = [mono for mono in kept if sum(map(mul, ia, mono)) == n]
            columns.extend(col_index[(comp, exp, mono)] for mono in kept)
    return sorted(columns)


def _common_kernel(constraints, ansatz: AnsatzSpace, target_bound: int):
    """Kernel basis of homogeneous constraints, one constraint at a time.

    The basis N starts as the unit vectors of the columns
    ``_graded_columns`` keeps for the graded constraints (of every
    column when none is graded).  Each constraint in turn is built only
    over the columns N uses; the kernel W of those rows times N gives
    the new basis N W.  The solve stops once N is empty, so most of the
    target rows of the stacked matrix are never built.  A graded
    constraint's diagonal terms can cancel on the columns kept for it,
    leaving empty rows; they are dropped before the elimination.
    ``target_bound`` bounds the nonempty rows built over all stages,
    and the targets of any one stage's build.  The basis is returned in
    the reduced form ``nullspace_from_rref`` gives for the stacked
    matrix: that form depends only on the kernel.
    """
    ncols = len(ansatz._columns[0])
    graded = []
    for cons in constraints:
        weights = _graded_weights(cons.known)
        if weights is not None:
            eig = as_fraction(cons.eigenvalue) if cons.kind == "eigen" else Fraction(0)
            graded.append((*weights, eig))
    columns = _graded_columns(graded, ansatz) if graded else range(ncols)
    basis = [{m: Fraction(1)} for m in columns]
    built = 0
    for cons in constraints:
        if not basis:
            return []
        try:
            rows = _build_system([cons], ansatz, target_bound, set().union(*basis))[2]
        except AnsatzExplosion as exc:
            raise AnsatzExplosion(built + exc.size, target_bound) from None
        rows = [row for row in rows if row]
        built += len(rows)
        if built > target_bound:
            raise AnsatzExplosion(built, target_bound)
        k = len(basis)
        pivots, rrows = _linalg.rref(_compose(rows, basis), k)
        kernel = _linalg.nullspace_from_rref(pivots, rrows, k)
        basis = [_combine(w, basis) for w in kernel]
    return _linalg.reduced_kernel_basis(basis, ncols)


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

    keys = ansatz._columns[0]
    ncols = len(keys)

    def to_field(vec: Dict[int, Fraction]) -> VectorField:
        terms: Dict[int, dict] = {c: {} for c in range(ansatz.dim)}
        for m, v in vec.items():
            comp, exp, mono = keys[m]
            terms[comp][(exp, mono)] = {(): v}
        return VectorField(
            [ExpPoly(ansatz.dim, terms[c]) for c in range(ansatz.dim)]
        )

    if any(c.kind == "equals" for c in constraints):
        _, targets, rows, rhs = _build_system(constraints, ansatz, target_bound)
        particular_vec, hom, mrank, witness = _linalg.solve_affine(rows, rhs, ncols)
        if witness is not None:
            ci, comp = targets[witness][:2]
            detail = f"constraint {ci} has no solution at component {comp + 1}"
            return SolveResult([], None, mrank, ncols, detail)
        basis = [to_field(v) for v in hom]
        particular = to_field(particular_vec)
        result = SolveResult(basis, particular, mrank, ncols)
    else:
        hom = _common_kernel(constraints, ansatz, target_bound)
        result = SolveResult([to_field(v) for v in hom], None, ncols - len(hom), ncols)

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
    return generic_rank(centralizer(algebra, ansatz, target_bound).basis)
