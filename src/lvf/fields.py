"""Vector fields with exponential-polynomial components.

A :class:`VectorField` on C^n is a tuple of n :class:`ExpPoly`
components, the coefficients of d/dx_1 .. d/dx_n.  The Lie bracket is
the commutator of derivations, computed exactly componentwise:
``[X,Y]^i = X(Y^i) - Y(X^i)``.

The derivation ``X(f)`` and each bracket component are one
``expr.derivation_sum``: the products of the components' own integer
numerators and of the partials each component keeps
(``ExpPoly.integer_partial``), summed over one denominator and
normalised once.  A field keeps nothing but its components; a closure
that brackets one field with many partners differentiates each of its
components once per coordinate.  The kept partials are derived state
that never changes a result, so fields stay safe to share.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

from lvf import _kernels as K
from lvf import _linalg
from lvf.errors import DimensionMismatch, SingularMap
from lvf.expr import ExpPoly, as_fraction, coord_names, derivation_sum, format_scalar, join_signed


class VectorField:
    """Immutable vector field; components share dimension and parameters."""

    __slots__ = ("dim", "components")

    def __init__(self, components: Sequence[ExpPoly]):
        comps = tuple(components)
        if not comps:
            raise DimensionMismatch("a vector field needs at least one component")
        dim = comps[0].dim
        for c in comps:
            if c.dim != dim:
                raise DimensionMismatch("components of mixed dimension")
        if len(comps) != dim:
            raise DimensionMismatch(
                f"{len(comps)} components for dimension {dim}"
            )
        self.dim = dim
        self.components = comps

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "VectorField":
        return cls(tuple(ExpPoly.zero(dim) for _ in range(dim)))

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def params(self) -> Tuple[str, ...]:
        names = set()
        for c in self.components:
            names.update(c.params())
        return tuple(sorted(names))

    def is_parameter_free(self) -> bool:
        return all(c.is_parameter_free() for c in self.components)

    def subst_params(self, assignment) -> "VectorField":
        return VectorField([c.subst_params(assignment) for c in self.components])

    def constant_multiple_of(self, other: "VectorField"):
        """Rational c with self == c*other, or None."""
        if other.is_zero():
            return Fraction(0) if self.is_zero() else None
        ratio = None
        for a, b in zip(self.components, other.components):
            if b.is_zero():
                if not a.is_zero():
                    return None
                continue
            r = a.constant_multiple_of(b)
            if r is None:
                return None
            if ratio is None:
                ratio = r
            elif r != ratio:
                return None
        return ratio

    def _check_dim(self, other: "VectorField"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimensions {self.dim} and {other.dim}")

    # -- module operations ---------------------------------------------

    def __add__(self, other: "VectorField") -> "VectorField":
        self._check_dim(other)
        return VectorField([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: "VectorField") -> "VectorField":
        self._check_dim(other)
        return VectorField([a - b for a, b in zip(self.components, other.components)])

    def __neg__(self) -> "VectorField":
        return VectorField([-a for a in self.components])

    def __mul__(self, scalar) -> "VectorField":
        """Multiply by an ExpPoly or a rational."""
        return VectorField([c * scalar for c in self.components])

    __rmul__ = __mul__

    # -- derivation action and bracket ------------------------------------

    def apply(self, f: ExpPoly) -> ExpPoly:
        """X(f) = sum_i X^i df/dx_i."""
        if f.dim != self.dim:
            raise DimensionMismatch(f"dimensions {self.dim} and {f.dim}")
        return derivation_sum(self.dim, [(self.components, f, 1)])

    __call__ = apply

    def bracket(self, other: "VectorField") -> "VectorField":
        """[X, Y]^i = X(Y^i) - Y(X^i), each component one derivation sum:
        the X part first, then the Y part."""
        self._check_dim(other)
        xs, ys = self.components, other.components
        return VectorField(
            [derivation_sum(self.dim, [(xs, y, 1), (ys, x, -1)]) for x, y in zip(xs, ys)]
        )

    # -- equality and display ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.dim == other.dim and self.components == other.components

    def __hash__(self):
        return hash((self.dim, self.components))

    def __repr__(self) -> str:
        return f"VectorField({format_field(self)!r})"

    def __str__(self) -> str:
        return format_field(self)


def bracket(x: VectorField, y: VectorField) -> VectorField:
    return x.bracket(y)


# -- affine coordinate changes ------------------------------------------------


class AffineMap:
    """Invertible affine change of coordinates: new = linear*old + shift."""

    __slots__ = ("dim", "linear", "shift", "_inv_linear")

    def __init__(self, linear, shift=None):
        rows = tuple(tuple(as_fraction(v) for v in row) for row in linear)
        dim = len(rows)
        if any(len(r) != dim for r in rows):
            raise DimensionMismatch("linear part is not square")
        if shift is None:
            shift = (0,) * dim
        sh = tuple(as_fraction(v) for v in shift)
        if len(sh) != dim:
            raise DimensionMismatch("shift length does not match")
        self.dim = dim
        self.linear = rows
        self.shift = sh
        self._inv_linear = _invert(rows)

    @classmethod
    def identity(cls, dim: int) -> "AffineMap":
        return cls(
            tuple(
                tuple(Fraction(1 if i == j else 0) for j in range(dim))
                for i in range(dim)
            )
        )

    def __repr__(self) -> str:
        return f"AffineMap(linear={self.linear}, shift={self.shift})"


def _invert(rows):
    """Exact inverse of a rational matrix; raises SingularMap.

    The rows of ``[A | I]`` go through the echelon core; back
    substitution leaves each row of ``A^-1``, times the row's lead, in
    the identity block.
    """
    echelon = _linalg.echelon_with_identity(rows)
    if echelon is None:
        raise SingularMap("linear part of the affine map is singular")
    n = len(rows)
    pivots, reduced = K.back_substitute(echelon[0])
    return tuple(
        tuple(Fraction(r.get(n + j, 0), r[p]) for j in range(n)) for p, r in zip(pivots, reduced)
    )


def affine_pullback(field: VectorField, t: AffineMap) -> VectorField:
    """Express ``field`` in the coordinates ``new = linear*old + shift``.

    Components transform by the chain rule: the new j-th component is
    sum_i linear[j][i] * X^i, with old coordinates substituted out via
    the inverse map.
    """
    if field.dim != t.dim:
        raise DimensionMismatch(f"dimensions {field.dim} and {t.dim}")
    n = field.dim
    minv = t._inv_linear
    # old = minv*(new - shift)
    back_shift = tuple(
        -sum((minv[i][j] * t.shift[j] for j in range(n)), Fraction(0))
        for i in range(n)
    )
    substituted = [c.subst_affine(minv, back_shift) for c in field.components]
    comps = []
    for j in range(n):
        acc = ExpPoly.zero(n)
        for i in range(n):
            if t.linear[j][i]:
                acc = acc + substituted[i] * t.linear[j][i]
        comps.append(acc)
    return VectorField(comps)


# -- generic rank -----------------------------------------------------------


def _ep_det(rows: List[List[ExpPoly]]) -> ExpPoly:
    """Determinant by cofactor expansion.

    ``generic_rank`` calls it on minors of up to ``MAX_DIM`` = 64 rows,
    and an r x r minor costs on the order of r! products of scalars:
    dense full-rank families of dimension 5, 6 and 7 take about 0.13,
    1.5 and 19.9 s.  A fraction-free elimination on the integer storage
    is ROADMAP item 1.
    """
    k = len(rows)
    if k == 1:
        return rows[0][0]
    dim = rows[0][0].dim
    out = ExpPoly.zero(dim)
    for r in range(k):
        lead = rows[r][0]
        if lead.is_zero():
            continue
        minor = [rows[i][1:] for i in range(k) if i != r]
        sub = _ep_det(minor)
        if r % 2:
            sub = -sub
        out = out + lead * sub
    return out


def generic_rank(fields: Iterable[VectorField]) -> int:
    """Largest k such that some k x k minor of the component matrix is
    not the zero function.

    The rank is generic: parameters, if present, are treated as generic
    values (a minor counts as nonzero when it is nonzero as a polynomial
    in the parameters).  It is found by bordering: a block with a
    nonzero r x r minor grows by one row and one column while some
    (r + 1)-minor that contains it is nonzero.  When none is, the rank
    is r (the coefficients lie in an integral domain, and a nonzero
    minor all of whose bordered minors vanish has the rank's size).
    """
    flist = list(fields)
    if not flist:
        return 0
    n = flist[0].dim
    for f in flist:
        if f.dim != n:
            raise DimensionMismatch("fields of mixed dimension")
    rows = [f.components for f in flist]
    rsel: List[int] = []
    csel: List[int] = []
    while True:
        for r, c in itertools.product(range(len(rows)), range(n)):
            if r in rsel or c in csel:
                continue
            minor = [[rows[i][j] for j in csel + [c]] for i in rsel + [r]]
            if not _ep_det(minor).is_zero():
                rsel.append(r)
                csel.append(c)
                break
        else:
            return len(rsel)


# -- canonical text form -----------------------------------------------------


def format_field(x: VectorField) -> str:
    """Canonical text: components attached to the frame symbols D<name>."""
    names = coord_names(x.dim)
    pairs = []
    for i, comp in enumerate(x.components):
        if comp.is_zero():
            continue
        frame = f"D{names[i]}" if x.dim <= 4 else f"D{i + 1}"
        text = format_scalar(comp)
        if " " in text:  # more than one term: parenthesize
            pairs.append((False, f"({text})*{frame}"))
        else:
            negative = text.startswith("-")
            text = text.removeprefix("-")
            pairs.append((negative, frame if text == "1" else f"{text}*{frame}"))
    return join_signed(pairs)
