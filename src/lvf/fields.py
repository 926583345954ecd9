"""Vector fields with exponential-polynomial components.

A :class:`VectorField` on C^n is a tuple of n :class:`ExpPoly`
components, the coefficients of d/dx_1 .. d/dx_n.  The Lie bracket is
the commutator of derivations, computed exactly componentwise:
``[X,Y]^i = X(Y^i) - Y(X^i)``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

from lvf import _kernels as K
from lvf.errors import DimensionMismatch, SingularMap
from lvf.expr import ExpPoly, as_fraction, coord_names, format_scalar


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

    @classmethod
    def coordinate(cls, dim: int, i: int) -> "VectorField":
        """The frame field d/dx_i."""
        comps = [ExpPoly.zero(dim) for _ in range(dim)]
        comps[i] = ExpPoly.const(dim, 1)
        return cls(comps)

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
        out = ExpPoly.zero(self.dim)
        for i, c in enumerate(self.components):
            if not c.is_zero():
                out = out + c * f.diff(i)
        return out

    __call__ = apply

    def bracket(self, other: "VectorField") -> "VectorField":
        self._check_dim(other)
        return VectorField(
            [
                self.apply(other.components[i]) - other.apply(self.components[i])
                for i in range(self.dim)
            ]
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

    def inverse_linear(self):
        return self._inv_linear

    def __repr__(self) -> str:
        return f"AffineMap(linear={self.linear}, shift={self.shift})"


def _invert(rows):
    """Exact inverse of a rational matrix; raises SingularMap.

    The rows of ``[A | I]`` go through the echelon core; ``A`` is
    singular exactly when a row's pivot falls in the identity block.
    """
    n = len(rows)
    table = {}
    for i, row in enumerate(rows):
        aug = {j: v for j, v in enumerate(row) if v}
        aug[n + i] = Fraction(1)
        if K.echelon_insert(table, aug) >= n:
            raise SingularMap("linear part of the affine map is singular")
    _, reduced = K.back_substitute(table)
    return tuple(tuple(r.get(n + j, Fraction(0)) for j in range(n)) for r in reduced)


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
    """Determinant by cofactor expansion (sizes here are at most 4)."""
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
    in the parameters).
    """
    flist = list(fields)
    if not flist:
        return 0
    n = flist[0].dim
    for f in flist:
        if f.dim != n:
            raise DimensionMismatch("fields of mixed dimension")
    rows = [list(f.components) for f in flist]
    m = len(rows)
    for k in range(min(m, n), 0, -1):
        for rsel in itertools.combinations(range(m), k):
            for csel in itertools.combinations(range(n), k):
                sub = [[rows[r][c] for c in csel] for r in rsel]
                if not _ep_det(sub).is_zero():
                    return k
    return 0


# -- canonical text form -----------------------------------------------------


def format_field(x: VectorField) -> str:
    """Canonical text: components attached to the frame symbols D<name>."""
    names = coord_names(x.dim)
    chunks = []
    for i, comp in enumerate(x.components):
        if comp.is_zero():
            continue
        frame = f"D{names[i]}" if x.dim <= 4 else f"D{i + 1}"
        text = format_scalar(comp)
        if text == "1":
            body, sign = frame, "+"
        elif text == "-1":
            body, sign = frame, "-"
        else:
            if " " in text:  # more than one term: parenthesize
                body, sign = f"({text})*{frame}", "+"
            elif text.startswith("-"):
                body, sign = f"{text[1:]}*{frame}", "-"
            else:
                body, sign = f"{text}*{frame}", "+"
        if not chunks:
            chunks.append(body if sign == "+" else f"-{body}")
        else:
            chunks.append(("+ " if sign == "+" else "- ") + body)
    if not chunks:
        return "0"
    return " ".join(chunks)
