"""Exact linear solver for bracket constraints on an unknown field.

The unknown is confined to a finite :class:`AnsatzSpace`: a choice of
allowed exponent vectors, a maximal total polynomial degree and a set of
allowed components.  Constraints are of three kinds against a known
parameter-free field K: ``[K, X] = c X`` (eigen), ``[K, X] = 0`` (zero)
and ``[K, X] = T`` (equals).  Each constraint maps the ansatz linearly
into a finite-dimensional target space whose basis is derived from the
images, and a build (``_build_system``) takes one constraint.  The
stacked matrix of a system is every constraint's image rows, in
constraint order, then every constraint's target terms that no column
reaches; it is never built, and its order is defined in the tests
(``test_build_matches_exppoly_loop``).  Both kinds of system are solved
in one staged loop, one constraint at a time on the solution set of the
ones before it, each built only over the columns that set uses, so most
of the target rows of the stacked matrix are never built; once that set
is one point, a constraint is built only when the point's residual is
not zero.  The set
is carried in integers, as the elimination hands it out.  A stage's
rows with one entry and a zero right-hand side pin their coordinates of
the set to 0 before it is eliminated (``_kernels.pin_singletons``), and
only the rows left over reach the elimination; most stages of the
bracket systems of the obstruction and of centralizers have none left.
The basis, particular solution and rank are those one elimination of
the stacked matrix gives, and so is the inconsistency witness: the first
conflicting image row of any constraint, else the first target term that
no ansatz field reaches.  A stage without a solution is built again
over every column, and solved once more without the pins, to find it
(see ``_staged_solve``).  A graded known field,
H = sum_j (a_j x_j + b_j) d_j with a_j b_j = 0 (every Cartan element of
the obstruction pipeline), confines every solution of a homogeneous
system to the basis fields of one weight, wherever its constraint
stands: the first stage starts on the columns all graded constraints
keep, and every constraint then takes the same build.  The weights a,
b and the eigenvalue are read in integers on one positive scale, from
the integer terms of H that the build reads (``_known_terms``).  ad H
lowers the degree of each coordinate i with b_i != 0, and when that
coordinate is the only one (a translation such as ``Dy``), the
lowering is injective on the fields with m_i > 0, so every solution has
m_i = 0: the kept columns are then exactly that constraint's kernel.
Those columns are the lattice points of the degree simplex that solve
the weight equations and these m_i = 0, walked from one echelon form
of their rows, so no other monomial is visited.  Columns are computed by
arithmetic from a basis field's component, block and monomial rank,
and back: a monomial's rank is its index in the combinatorial number
system, and a block's monomial list is built only for a build or a
listing over every column (``blocks()``, ``basis_keys()``).  The constraint rows are integers,
each constraint's equations times one positive scale, built from the
integer storage of the known field and the target.
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

TARGET_BOUND = 20000


def _simplex(dim: int, max_degree: int):
    """Every coordinate multi-index of total degree <= max_degree, in
    ascending order, one at a time."""
    if dim == 0:
        yield ()
    elif dim == 1:
        yield from ((d,) for d in range(max_degree + 1))
    else:
        for first in range(max_degree + 1):
            for rest in _simplex(dim - 1, max_degree - first):
                yield (first, *rest)


def _monomials(dim: int, max_degree: int):
    """All coordinate multi-indices of total degree <= max_degree, ascending."""
    return list(_simplex(dim, max_degree))


def _ansatz_size(dim: int, max_degree: int, blocks: int) -> int:
    """``blocks * C(dim + max_degree, dim)``, the number of basis fields.

    Each factor of the running product is at least 1, so once it
    passes TARGET_BOUND the lower bound is returned at once:
    huge dimensions or degrees cost a few steps, not a huge binomial.
    """
    size = blocks
    for j in range(1, min(dim, max_degree) + 1):
        if not 0 < size <= TARGET_BOUND:
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
        # () stands for the zero vector, and the default components (all
        # of them) are counted, not listed, until the dimension is
        # bounded: no table of size dim is built before the checks below
        vecs = {exponent_vector(e, dim) for e in exponents}
        if not vecs:
            vecs.add(())
        blocks = dim
        if components is not None:
            components = sorted(set(components))
            if any(not 0 <= c < dim for c in components):
                raise LvfError("component index out of range")
            blocks = len(components)
        if int(max_degree) < 0:
            raise LvfError(f"ansatz degree must be at least 0, not {max_degree}")
        # the bound counts the fields of one exponent vector: the vectors
        # are listed one by one, while dimension and degree grow the space
        # as a binomial; solve bounds the rows it builds over all of them
        if _ansatz_size(dim, int(max_degree), blocks) > TARGET_BOUND:
            raise LvfError(
                f"ansatz of degree {max_degree} in dimension {dim} has more "
                f"than {TARGET_BOUND} basis fields"
            )
        check_dimension(dim)
        zero = (Fraction(0),) * dim
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "exponents", tuple(sorted(v or zero for v in vecs)))
        object.__setattr__(self, "max_degree", int(max_degree))
        object.__setattr__(
            self, "components", tuple(range(dim) if components is None else components)
        )

    @cached_property
    def _layout(self):
        """The encoded exponents in ``exponents`` order, their block
        positions and the number of monomials of one block."""
        encoded = [encode_exponents(e) for e in self.exponents]
        size = math.comb(self.dim + self.max_degree, self.dim)
        return encoded, {exp: b for b, exp in enumerate(encoded)}, size

    @cached_property
    def _block(self):
        """``(rank, monomial)`` of every monomial of one block, built
        only for a build or a listing over every column."""
        return list(enumerate(_monomials(self.dim, self.max_degree)))

    def rank(self, mono: tuple) -> int:
        """The position of ``mono`` among one block's monomials, in
        ascending order, by the combinatorial number system: the
        monomials that share the first i coordinates of ``mono`` and
        have a smaller coordinate i number C(k+1+r, k+1) - C(k+1+r-m_i,
        k+1), for the k later coordinates and the degree r left."""
        r = 0
        left = self.max_degree
        k = self.dim
        for m in mono:
            k -= 1
            if m:
                r += math.comb(k + 1 + left, k + 1) - math.comb(k + 1 + left - m, k + 1)
                left -= m
        return r

    def monomial(self, r: int) -> tuple:
        """The monomial of rank ``r``, the inverse of :meth:`rank`."""
        mono = []
        left = self.max_degree
        for k in range(self.dim - 1, 0, -1):
            m = 0
            # C(k + left - m, k) monomials have coordinate m here
            while r >= (count := math.comb(k + left - m, k)):
                r -= count
                m += 1
            mono.append(m)
            left -= m
        mono.append(r)
        return tuple(mono)

    def starts(self, exp: tuple) -> List[Tuple[int, int]]:
        """``(comp, column of (comp, exp, monomial of rank 0))`` for every
        component, ascending: the column of rank r is the start plus r."""
        encoded, block, size = self._layout
        at = block[exp] * size
        stride = len(encoded) * size
        return [(c, p * stride + at) for p, c in enumerate(self.components)]

    def key(self, col: int) -> Tuple[int, tuple, tuple]:
        """The basis key ``(comp, exp, mono)`` of column ``col``."""
        encoded, _, size = self._layout
        at, r = divmod(col, size)
        c, b = divmod(at, len(encoded))
        return self.components[c], encoded[b], self.monomial(r)

    def blocks(self, columns=None) -> Dict[tuple, List[Tuple[int, tuple]]]:
        """``{exp: [(rank, monomial), ...]}`` of every basis field, or of
        ``columns``: blocks in sorted encoded order, ranks ascending."""
        encoded, _, size = self._layout
        if columns is None:
            return {exp: self._block for exp in sorted(encoded)}
        ranks: Dict[tuple, set] = {exp: set() for exp in sorted(encoded)}
        for col in columns:
            at, r = divmod(col, size)
            ranks[encoded[at % len(encoded)]].add(r)
        return {
            exp: [(r, self.monomial(r)) for r in sorted(rs)]
            for exp, rs in ranks.items()
            if rs
        }

    def basis_keys(self) -> List[Tuple[int, tuple, tuple]]:
        """Canonical ordered basis of one-term fields, built when asked.

        Exponent vectors appear in their canonical integer encoding, as
        used by the term maps themselves.
        """
        encoded = self._layout[0]
        return [
            (c, exp, mono)
            for c in self.components
            for exp in encoded
            for _, mono in self._block
        ]

    def basis_field(self, key) -> VectorField:
        c, exp, mono = key
        comps = [ExpPoly.zero(self.dim) for _ in range(self.dim)]
        comps[c] = ExpPoly.from_terms(self.dim, {(exp, mono, ()): 1})
        return VectorField(comps)

    def dimension(self) -> int:
        return len(self.exponents) * len(self.components) * self._layout[2]

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


def _known_terms(known: VectorField, components, k_mul: int, d_mul: int):
    """The known field K in integers: ``(scale, kc, dk)``.

    ``scale`` is the lcm of K's component denominators times the lcm
    of its exponent denominators, ``kc[j]`` lists the terms ``(exp,
    mono, v)`` of k_mul * scale * K^j and ``dk[c]`` the pairs ``(j,
    terms)`` of the nonzero -d_mul * scale * dK^j/dx_c, for c in
    ``components``, all read in storage order from the components'
    integer storage and their kept partials (``integer_partial``).  A
    zero component adds no term, and no partial of it is read.
    """
    comps = known.components
    parts = {j: comp.integer_terms() for j, comp in enumerate(comps) if not comp.is_zero()}
    den = math.lcm(*(d for _, d in parts.values()))
    e = math.lcm(*(K.exp_den(num) for num, _ in parts.values()))
    kc = [[] for _ in comps]
    for j, (num, d) in parts.items():
        f = den // d * e * k_mul
        kc[j] = [(exp, mono, v * f) for (exp, mono, _), v in num.items()]
    dk = {c: [] for c in components}
    for c in components:
        for j, (_, d) in parts.items():
            ej, terms = comps[j].integer_partial(c)
            if terms:
                # terms / (d * ej) is dK^j/dx_c, and the scale is den * e
                f = -(den // d) * (e // ej) * d_mul
                dk[c].append((j, [(exp, mono, v * f) for (exp, mono, _), v in terms.items()]))
    return den * e, kc, dk


def _build_system(cons, ansatz: AnsatzSpace, columns=None):
    """The matrix of one constraint over the ansatz basis, in integers.

    Returns ``(targets, rows, rhs, images)``: one target key
    ``(component, exp, mono)`` per row in order of first appearance, the
    sparse rows, the right-hand side (None unless ``cons`` is an
    ``equals`` constraint) and the number of image rows.  The image rows
    come first; the rows from ``images`` on are target terms that no
    built column reaches, so each is empty with a nonzero right-hand
    side.  With ``columns``, a set of column indices, only the images of
    those basis fields are built.  A build that reaches more than
    ``TARGET_BOUND`` target keys, read when it runs, raises
    ``AnsatzExplosion`` at the first key past it.

    The rows hold ``int``s: the equations times one positive scale, the
    lcm of the known field's component denominators times the lcm of its
    exponent denominators (``_known_terms``), times the lcm of the
    ansatz's exponent denominators, times the eigenvalue's denominator
    or, for ``equals``, the lcm of the target's component denominators,
    whatever ``columns`` is.  The right-hand side is scaled by the same
    number, so it holds ``int``s too, read from the target's integer
    storage (``ExpPoly.integer_terms``) in storage order.  The
    elimination stores primitive rows, so the scale changes no table,
    kernel, solution or witness.

    One-term basis fields make the constraint images cheap:
      [K, f d_c] = K(f) d_c - f * sum_j (dK^j/dx_c) d_j
    and f = x^m exp(q.x) has coefficient 1, so K(f) and f*dK are key
    shifts of the integer terms of K.  K(f) is shared across the ansatz
    components.  Terms are produced in the order of the term-map
    arithmetic, so row order (and the inconsistency witness) matches a
    build through ``ExpPoly``.
    """
    dim = ansatz.dim
    by_exp = ansatz.blocks(columns)
    block_den = math.lcm(*(exp[0] for exp in ansatz._layout[0]))
    target_index: Dict[Tuple[int, tuple, tuple], int] = {}
    rows: List[Dict[int, int]] = []

    def index_of(full):
        idx = target_index.get(full)
        if idx is None:
            idx = len(target_index)
            target_index[full] = idx
            if idx >= TARGET_BOUND:
                raise AnsatzExplosion(idx + 1, TARGET_BOUND)
            rows.append({})
        return idx

    eig = as_fraction(cons.eigenvalue) if cons.kind == "eigen" else 0
    # the equation's own denominator: the eigenvalue's, or the lcm of the
    # target's component denominators (an equals constraint has
    # eigenvalue 0)
    den = eig.denominator
    if cons.kind == "equals":
        parts = [comp.integer_terms() for comp in cons.target.components]
        den = math.lcm(*(d for _, d in parts))
    # the row scale is known_scale * block_den * den: K takes den here
    # and the block's denominator in the factors of df/dx_j below, dK
    # takes both here
    known_scale, kc, dk = _known_terms(cons.known, ansatz.components, den, den * block_den)
    diag_eig = -eig.numerator * known_scale * block_den
    for exp, exp_monos in by_exp.items():
        # q_j = n_j / den_b: its factor in df/dx_j is n_j * block_den / den_b
        qf = [n * (block_den // exp[0]) for n in exp[1:]]
        starts = ansatz.starts(exp)
        if not any(exp[1:]):
            # the zero block: adding its exponent changes no key
            k_shifted, dk_shifted = kc, dk
        else:
            k_shifted = [
                [(K.exp_add(ek, exp), mk, a) for ek, mk, a in terms] for terms in kc
            ]
            dk_shifted = {
                c: [
                    (j, [(K.exp_add(exp, e), mk, v) for e, mk, v in terms])
                    for j, terms in images
                ]
                for c, images in dk.items()
            }
        for r, mono in exp_monos:
            cols = [(c, start + r) for c, start in starts]
            if columns is not None:
                cols = [(c, col) for c, col in cols if col in columns]
            if not cols:
                continue
            # K(f) = sum_j K^j df/dx_j, df/dx_j = m_j x^(m-e_j) e^(q.x) + q_j f
            kf: Dict[tuple, int] = {}
            for j in range(dim):
                m = mono[j]
                if not k_shifted[j] or not (m or qf[j]):
                    continue
                fd = []
                if m:
                    fd.append((mono[:j] + (m - 1,) + mono[j + 1:], m * block_den))
                if qf[j]:
                    fd.append((mono, qf[j]))
                prod: Dict[tuple, int] = {}
                for e, mk, a in k_shifted[j]:
                    for mf, b in fd:
                        add_into(prod, (e, tuple(map(add, mk, mf))), a * b)
                if kf:
                    for key, v in prod.items():
                        add_into(kf, key, v)
                else:
                    kf = prod
            diag = kf
            if diag_eig:
                diag = dict(kf)
                add_into(diag, (exp, mono), diag_eig)
            for c, col in cols:
                for (e, mk), v in diag.items():
                    add_into(rows[index_of((c, e, mk))], col, v)
                for j, terms in dk_shifted[c]:
                    for e, mk, v in terms:
                        add_into(rows[index_of((j, e, tuple(map(add, mono, mk))))], col, v)

    images = len(rows)
    rhs = None
    if cons.kind == "equals":
        scale = known_scale * block_den * den
        rhs_entries: Dict[int, int] = {}
        for comp, (num, d) in enumerate(parts):
            # num / d times the scale, which d divides
            f = scale // d
            for (exp, mono, _), v in num.items():
                rhs_entries[index_of((comp, exp, mono))] = v * f
        rhs = [rhs_entries.get(i, 0) for i in range(len(rows))]
    return list(target_index), rows, rhs, images


def _compose(rows, basis):
    """The rows of the product M N, for the sparse rows of M and the
    columns of N given as the sparse vectors ``basis``, all in integers.
    A column of M that no vector uses adds nothing."""
    by_col: Dict[int, List[Tuple[int, int]]] = {}
    for j, vec in enumerate(basis):
        for c, v in vec.items():
            by_col.setdefault(c, []).append((j, v))
    out = []
    for row in rows:
        acc: Dict[int, int] = {}
        for c, a in row.items():
            for j, v in by_col.get(c, ()):
                add_into(acc, j, a * v)
        out.append(acc)
    return out


def _on_affine_set(rows, rhs, basis, particular, ncols):
    """The rows ``rows . v = rhs`` on v = P/d + N w, as rows in d w:
    the rows composed with N and each right-hand side times d less the
    row times P, for the particular solution P with its denominator d at
    key ``ncols`` (a column no row has).  P is composed as one more basis
    vector.  ``rhs`` None stands for zeros."""
    k = len(basis)
    den = particular[ncols]
    composed = _compose(rows, basis + [particular])
    shifted = []
    for row, b in zip(composed, rhs or itertools.repeat(0)):
        at = row.pop(k, 0)
        shifted.append(b * den - at)
    return composed, shifted


def _combine(coeffs, basis):
    """``sum_j coeffs[j] * basis[j]`` as a sparse integer vector, divided
    by its content (a positive gcd), so that entries do not grow from
    stage to stage."""
    out: Dict[int, int] = {}
    for j, a in coeffs.items():
        for c, v in basis[j].items():
            add_into(out, c, a * v)
    g = math.gcd(*out.values())
    return {c: v // g for c, v in out.items()} if g > 1 else out


def _cut(rows, rhs, basis, particular):
    """The set P/d + span N cut by the rows ``rows . w = rhs`` in its
    coordinates w (``rhs`` and ``particular`` None for a homogeneous
    stage, whose set is span N), as ``(basis, particular)``, or None when
    the rows have no solution.

    ``_kernels.pin_singletons`` first fixes at 0 the coordinates that
    rows with one entry and a zero right-hand side force there, and
    drops their vectors from N; the others keep their vectors and their
    order.  Only the rows left over are eliminated, over the coordinates
    left: ``_linalg.rref`` for a homogeneous stage,
    ``_linalg.solve_affine`` otherwise.  With no row left, N is the kept
    vectors and P does not change; a row left empty with a nonzero
    right-hand side has no solution, and no elimination runs for it.
    The pinned coordinates are pivots of the stage's reduced echelon
    form, so the free columns, and the vectors and point read off them,
    are those of an elimination of every row.
    """
    kept, rows, rhs = K.pin_singletons(rows, len(basis), rhs)
    basis = [basis[j] for j in kept]
    if not rows:
        return basis, particular
    k = len(basis)
    if particular is None:
        pivots, rrows = _linalg.rref(rows, k)
        return [_combine(w, basis) for w in K.kernel_vectors(pivots, rrows, k)], None
    if any(b and not row for row, b in zip(rows, rhs)):
        # a row left empty reads 0 = b
        return None
    step, kernel, _, bad = _linalg.solve_affine(rows, rhs, k)
    if bad is not None:
        return None
    # step holds the scale of P at k, the position of P below
    return [_combine(w, basis) for w in kernel], _combine(step, basis + [particular])


def _graded_weights(cons):
    """``(a, b, c)`` in integers, all times one positive scale, when
    ``cons`` reads [H, X] = cX (c = 0 unless it is an eigen constraint)
    with H = sum_j (a_j x_j + b_j) d_j and a_j b_j = 0 for every j, else
    None.  H is read as the build reads it (``_known_terms``), scaled by
    the eigenvalue's denominator, so c is the eigenvalue's numerator
    times the known field's scale.  ``cons.known`` is parameter-free
    (``solve`` refuses any other)."""
    eig = as_fraction(cons.eigenvalue) if cons.kind == "eigen" else 0
    scale, kc, _ = _known_terms(cons.known, (), eig.denominator, 0)
    zero = zero_exponents(cons.known.dim)
    a = [0] * len(kc)
    b = [0] * len(kc)
    for j, terms in enumerate(kc):
        for exp, mono, v in terms:
            if exp != zero:
                return None
            if not any(mono):
                b[j] = v
            elif mono[j] == 1 and sum(mono) == 1:
                a[j] = v
            else:
                return None
        if a[j] and b[j]:
            return None
    return a, b, eig.numerator * scale


def _graded_columns(graded, ansatz: AnsatzSpace):
    """Sorted columns on which the graded constraints ``graded``, given
    as integer ``(a, b, c)`` for [H, X] = cX with H = sum_j (a_j x_j +
    b_j) d_j, each triple on its own positive scale (see
    ``_graded_weights``), can have a common solution.

    On f = x^m e^(q.x) the bracket splits as
      [H, f d_c] = (a.m + b.q - a_c) f d_c + (sum_i a_i q_i x_i) f d_c
                   + (sum_i b_i m_i x^(m-e_i) e^(q.x)) d_c.
    The middle term raises the degree, so a block with some a_i q_i != 0
    has kernel {0}.  In any other block the last term, the lowering,
    keeps the weight a.m + b.q - a_c (b_i != 0 only where a_i = 0), and
    ad H - c is invertible on every weight but c: each solution lives on
    the columns of weight c, for each graded constraint.

    When b has exactly one nonzero coordinate i, ad H - c on the columns
    of weight c is the lowering alone, x^m e^(q.x) d_c to b_i m_i
    x^(m-e_i) e^(q.x) d_c: zero where m_i = 0, and distinct columns with
    m_i > 0 go to distinct targets.  So the constraint's kernel is
    exactly its columns of weight c with m_i = 0, and a unit row e_i
    with right-hand side 0 joins its weight row.  With two or more
    constant terms the lowerings of different coordinates can cancel,
    and only the weight is used.

    So the columns kept are the lattice points of the degree simplex
    with a_k.m = n_k for every graded constraint k, where n_k depends
    only on the block and the component, and m_i = 0 for each
    coordinate i fixed that way.  One fraction-free echelon pass over
    the rows [a_k | e_k] and the unit rows [e_i | 0]
    (``_kernels.echelon_insert``, then ``back_substitute``) solves that
    system once per call: a row with no pivot among the coordinates
    says that its combination of the n_k vanishes, and a reduced pivot
    row fixes its coordinate from the free ones.  For each block and
    component only the points of the solution set are walked
    (``_solution_ranks``), so no monomial outside it is visited.  With
    no pivot row that is the whole simplex, walked once per call.
    """
    dim = ansatz.dim
    table: Dict[int, Dict[int, int]] = {}
    for k, (a, _, _) in enumerate(graded):
        row = {j: v for j, v in enumerate(a) if v}
        row[dim + k] = 1
        K.echelon_insert(table, row)
    for _, b, _ in graded:
        constant = [j for j, v in enumerate(b) if v]
        if len(constant) == 1:
            # m_i = 0: the unit row carries no n_k
            K.echelon_insert(table, {constant[0]: 1})
    K.back_substitute(table)
    # each reduced row reads a.m = t.n, t in the columns from dim on, and
    # a pivot row holds no other pivot coordinate
    free = [j for j in range(dim) if j not in table]
    checks, solved = [], []
    for p in sorted(table):
        row = table[p]
        combo = [row.get(dim + k, 0) for k in range(len(graded))]
        if p >= dim:
            checks.append(combo)
        else:
            solved.append((p, row[p], [row.get(f, 0) for f in free], combo))
    encoded, _, _ = ansatz._layout
    columns = []
    walked: Dict[tuple, List[int]] = {}
    for exp in encoded:
        den, nums = exp[0], exp[1:]
        if any(x and n for a, _, _ in graded for x, n in zip(a, nums)):
            continue
        # weight c: a.m = a_c + c - b.q, an integer only where b.q is
        bq = [divmod(sum(map(mul, b, nums)), den) for _, b, _ in graded]
        if any(rem for _, rem in bq):
            continue
        for comp, start in ansatz.starts(exp):
            n = [a[comp] + c - q for (a, _, c), (q, _) in zip(graded, bq)]
            if any(sum(map(mul, combo, n)) for combo in checks):
                continue
            # the kept ranks depend only on the pivot rows' right-hand sides
            targets = tuple(sum(map(mul, combo, n)) for _, _, _, combo in solved)
            ranks = walked.get(targets)
            if ranks is None:
                ranks = walked[targets] = _solution_ranks(ansatz, free, solved, targets)
            columns.extend(start + r for r in ranks)
    return sorted(columns)


def _solution_ranks(ansatz: AnsatzSpace, free, solved, targets) -> List[int]:
    """Ranks of the monomials of degree <= ``ansatz.max_degree`` whose
    pivot coordinates p solve ``lead * m_p + coef . m_free = target``
    for each ``(p, lead, coef, _)`` of ``solved``: the free coordinates
    are walked within the degree and each pivot coordinate must come
    out a natural number within what is left of it."""
    degree = ansatz.max_degree
    ranks = []
    for point in _simplex(len(free), degree):
        left = degree - sum(point)
        mono = [0] * ansatz.dim
        for (p, lead, coef, _), t in zip(solved, targets):
            m, rem = divmod(t - sum(map(mul, coef, point)), lead)
            if rem or not 0 <= m <= left:
                break
            mono[p] = m
            left -= m
        else:
            for j, v in zip(free, point):
                mono[j] = v
            ranks.append(ansatz.rank(mono))
    return ranks


def _staged_solve(constraints, ansatz: AnsatzSpace):
    """Solution set of the constraints, one constraint at a time.

    Returns ``(basis, particular, rank, witness, at_point)``.  The
    solution set is carried as P/d + span N, in integers (particular is
    None for homogeneous constraints): N as combinations of the vectors
    ``_kernels.kernel_vectors`` gives, P with its denominator d at key
    ``ncols``, one past the last column, so that a combination scales
    both; each is divided by its content (``_combine``).  N starts as
    the unit vectors of every column, or for homogeneous constraints of
    the columns ``_graded_columns`` keeps for the graded ones.  Each
    constraint in turn is built only over the columns that N and P use,
    and its rows are solved on the set so far, in its coordinates: the
    rows times N for a homogeneous stage, the rows on the affine set
    (``_on_affine_set``) otherwise.  ``_cut`` first pins to 0 the
    coordinates that rows with one entry and a zero right-hand side
    force there (``_kernels.pin_singletons``) and drops their vectors;
    only the rows left over go to ``_linalg.rref`` or
    ``_linalg.solve_affine``, over the coordinates left, and a stage
    with no row left calls neither.  A homogeneous solve stops once N is
    empty.  Once an affine solve's set is one point (N empty), each
    later constraint is decided by the point's exact residual and built
    only when that is not zero; ``at_point`` lists those constraints,
    whose residual at the returned particular solution is then known to
    be zero.  So most of the target rows of the stacked matrix are never
    built, and most of those built are never eliminated.

    The witness, ``(constraint, component)`` or None, is the row the
    stacked solve reports: the first row of the stacked matrix whose
    prefix has no solution, where the image rows of every constraint,
    in constraint order, come before the target terms that no column
    reaches.  Each build takes one constraint (``_build_system``), and
    the component is slot 0 of its target key.  A stage without a
    solution is built again over every column (stage 0 already is),
    which puts its rows in stacked order, and its image rows are solved
    on the set so far.  If they have no solution either,
    ``_linalg.solve_affine`` solves them once more on every row, with no
    pin, and its witness row, the first conflicting image row, is the
    witness; every later stage is then homogeneous: only its kernel is
    still needed.  Otherwise the constraint's first unreachable term is
    the witness, unless an earlier constraint has one, and the stages go
    on, since a later image row would still come first.  A constraint
    that holds at the one point has neither.  ``rank`` is the rank of
    the stacked matrix, ``ncols - dim N``, with or without a witness.

    ``TARGET_BOUND``, read when the call runs, bounds the rows built
    over all stages that are not empty or have a nonzero right-hand
    side, and the targets of any one build; a constraint decided by its
    residual builds nothing.  A stage built again counts its second
    build in place of its first, whose targets it holds, so the count
    never exceeds the rows of the stacked matrix.  The basis is returned
    in the reduced form ``_linalg.nullspace`` gives for the stacked
    matrix, and the particular solution as the one that is zero at each
    of its free columns, keys ascending, as the stacked ``solve_affine``
    gives it: both forms depend only on the solution set, not on N's or
    P's scale.
    """
    ncols = ansatz.dimension()
    if any(cons.kind == "equals" for cons in constraints):
        particular, columns = {ncols: 1}, range(ncols)
    else:
        graded = [w for w in map(_graded_weights, constraints) if w is not None]
        particular = None
        columns = _graded_columns(graded, ansatz) if graded else range(ncols)
    basis = [{m: 1} for m in columns]
    witness = None
    point = None  # the field of P/d once N is empty; P/d stays that point
    at_point = []  # the constraints decided by their residual at that point
    built = 0

    def build(cons, support):
        """The system of ``cons`` over ``support`` (every column when
        None) and the row count with its rows."""
        try:
            system = _build_system(cons, ansatz, support)
        except AnsatzExplosion as exc:
            raise AnsatzExplosion(built + exc.size, TARGET_BOUND) from None
        _, rows, rhs, _ = system
        if rhs is None:
            count = built + sum(1 for row in rows if row)
        else:
            count = built + sum(1 for row, b in zip(rows, rhs) if row or b)
        if count > TARGET_BOUND:
            raise AnsatzExplosion(count, TARGET_BOUND)
        return system, count

    for ci, cons in enumerate(constraints):
        if not basis:
            if particular is None:
                break
            if point is None:
                den = particular[ncols]
                point = _to_field(
                    ansatz, {c: Fraction(v, den) for c, v in particular.items() if c != ncols}
                )
            if cons.residual(point).is_zero():
                at_point.append(ci)
                continue
        support = set().union(*basis)
        if particular is not None:
            support.update(particular)
            support.discard(ncols)
        restricted = len(support) < ncols
        (targets, rows, rhs, images), count = build(cons, support if restricted else None)
        if particular is None:
            built = count
            rows = [row for row in rows if row]
            basis = _cut(_compose(rows, basis), None, basis, None)[0]
            continue
        composed, shifted = _on_affine_set(
            rows if restricted else rows[:images], rhs, basis, particular, ncols
        )
        cut = _cut(composed, shifted, basis, particular)
        if cut is None and restricted:
            # no solution: the constraint again, its rows in stacked order
            (targets, rows, rhs, images), count = build(cons, None)
            composed, shifted = _on_affine_set(rows[:images], rhs, basis, particular, ncols)
            cut = _cut(composed, shifted, basis, particular)
        if cut is None:
            # its image rows have no solution: the stage again on every
            # row, without the pins, names the first conflicting one
            bad = _linalg.solve_affine(composed, shifted, len(basis))[3]
            witness = (ci, targets[bad][0])
            cut = _cut(composed, None, basis, None)
        built = count
        basis, particular = cut
        if witness is None and images < len(rows):
            # after a full build: a target term no column reaches
            witness = (ci, targets[images][0])

    rank = ncols - len(basis)
    if witness is not None:
        return [], None, rank, witness, at_point
    if basis:
        basis = _linalg.reduced_kernel_basis(basis, ncols)
    if particular is not None:
        # already zero at every free column: each stage's solve leaves its
        # own free columns at zero, and each vector of N is nonzero at its
        # free column and 0 at the others
        den = particular.pop(ncols)
        particular = {c: Fraction(particular[c], den) for c in sorted(particular)}
    return basis, particular, rank, None, at_point


def _to_field(ansatz: AnsatzSpace, vec: Dict[int, Fraction]) -> VectorField:
    """The field sum_m vec[m] * (basis field of column m)."""
    terms: List[dict] = [{} for _ in range(ansatz.dim)]
    for m, v in vec.items():
        comp, exp, mono = ansatz.key(m)
        terms[comp][(exp, mono, ())] = v
    return VectorField([ExpPoly.from_terms(ansatz.dim, t) for t in terms])


def solve(constraints: Sequence[BracketConstraint], ansatz: AnsatzSpace) -> SolveResult:
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

    ncols = ansatz.dimension()
    hom, particular, mrank, witness, at_point = _staged_solve(constraints, ansatz)
    if witness is not None:
        ci, comp = witness
        detail = f"constraint {ci} has no solution at component {comp + 1}"
        return SolveResult([], None, mrank, ncols, detail)
    result = SolveResult(
        [_to_field(ansatz, v) for v in hom],
        None if particular is None else _to_field(ansatz, particular),
        mrank,
        ncols,
    )

    # soundness: every reported solution satisfies every constraint exactly
    for x in result.basis:
        for cons in constraints:
            check = cons.residual(x) if cons.kind != "equals" else (
                cons.known.bracket(x)
            )
            if not check.is_zero():
                raise InternalError("solution fails a constraint")
    if result.particular is not None:
        # the staged solve checked the constraints of ``at_point`` at this
        # very point, by their exact residuals
        for ci, cons in enumerate(constraints):
            if ci not in at_point and not cons.residual(result.particular).is_zero():
                raise InternalError("particular solution fails a constraint")
    return result


def centralizer(algebra: Sequence[VectorField], ansatz: AnsatzSpace) -> SolveResult:
    """Solution space of [g, X] = 0 for every g in the algebra."""
    constraints = [BracketConstraint.commutes(g) for g in algebra]
    return solve(constraints, ansatz)


def centralizer_rank(algebra: Sequence[VectorField], ansatz: AnsatzSpace) -> int:
    """Generic rank of the centralizer inside the ansatz."""
    return generic_rank(centralizer(algebra, ansatz).basis)
