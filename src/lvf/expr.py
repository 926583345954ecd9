"""Exact exponential-polynomial scalars.

An :class:`ExpPoly` is a finite sum of terms

    (polynomial in formal parameters over Q) * x^m * exp(q . x)

with ``m`` a coordinate multi-index and ``q`` a rational covector.  The
functions ``x^m exp(q . x)`` for distinct ``(m, q)`` are linearly
independent, so a value is the zero function exactly when its term map
is empty; equality is a structural check on canonical term maps.

Values are immutable and safe to share between threads.  All arithmetic
is exact.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple

from lvf import _kernels as K
from lvf.errors import DimensionMismatch, LvfError, UnassignedParameter

Rat = Fraction
PMono = Tuple[Tuple[str, int], ...]
TermKey = Tuple[Tuple[Fraction, ...], Tuple[int, ...]]

_AXIS_NAMES = ("x", "y", "z", "w")
# the start of a literal like '1e9' or '-2.5E-3', which Fraction accepts
_EXPONENT_NOTATION = re.compile(r"\s*[-+]?[\d_.]*[eE]")


def coord_names(dim: int) -> Tuple[str, ...]:
    """Printable coordinate names: x,y,z,w for dim <= 4, else x1..xn."""
    if dim <= 4:
        return _AXIS_NAMES[:dim]
    return tuple(f"x{i + 1}" for i in range(dim))


def check_digits(literal: str) -> None:
    """Refuse a number literal with more digits than the interpreter
    converts to an integer, with an input error instead of the
    interpreter's own advice."""
    # 0 (or no such setting, before Python 3.11) means no limit
    limit = getattr(sys, "get_int_max_str_digits", int)()
    digits = sum(ch.isdigit() for ch in literal)
    if limit and digits > limit:
        raise LvfError(f"literal has {digits} digits; at most {limit} are accepted")


def as_fraction(value) -> Fraction:
    """An exact rational from a Fraction, an int or a literal like '-3/4'
    or '0.25'; a literal with a zero denominator, in exponent notation
    (where '1e1000000000' asks for a billion-digit integer) or with more
    digits than the interpreter converts to an integer is an input
    error."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if _EXPONENT_NOTATION.match(value):
            raise LvfError(f"exponent notation in {value.strip()!r}; write p/q or a decimal")
        check_digits(value)
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise LvfError(f"zero denominator in {value.strip()!r}") from None
    raise TypeError(f"not an exact rational: {value!r}")


def encode_exponents(qvec) -> Tuple[int, ...]:
    """Integer encoding (den, n_1, .., n_k) of a rational covector.

    Canonical: den >= 1 and gcd(den, n_1, .., n_k) = 1.  All-integer
    keys keep term-map hashing cheap.
    """
    fracs = [as_fraction(v) for v in qvec]
    den = 1
    for v in fracs:
        den = den // math.gcd(den, v.denominator) * v.denominator
    nums = [int(v * den) for v in fracs]
    g = den
    for n in nums:
        g = math.gcd(g, n)
        if g == 1:
            break
    if g > 1:
        den //= g
        nums = [n // g for n in nums]
    return (den, *nums)


def decode_exponents(key) -> Tuple[Fraction, ...]:
    den = key[0]
    return tuple(Fraction(n, den) for n in key[1:])


def zero_exponents(dim: int) -> Tuple[int, ...]:
    return (1,) + (0,) * dim


class ExpPoly:
    """Canonical exponential-polynomial scalar in ``dim`` coordinates."""

    __slots__ = ("dim", "_terms")

    def __init__(self, dim: int, terms: Dict[TermKey, dict] | None = None):
        self.dim = dim
        self._terms = terms or {}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "ExpPoly":
        return cls(dim)

    @classmethod
    def const(cls, dim: int, value) -> "ExpPoly":
        q = as_fraction(value)
        if not q:
            return cls(dim)
        key = (zero_exponents(dim), (0,) * dim)
        return cls(dim, {key: {(): q}})

    @classmethod
    def coord(cls, dim: int, i: int) -> "ExpPoly":
        if not 0 <= i < dim:
            raise IndexError(f"coordinate {i} out of range for dimension {dim}")
        mono = tuple(1 if j == i else 0 for j in range(dim))
        key = (zero_exponents(dim), mono)
        return cls(dim, {key: {(): Fraction(1)}})

    @classmethod
    def param(cls, dim: int, name: str) -> "ExpPoly":
        key = (zero_exponents(dim), (0,) * dim)
        return cls(dim, {key: {((name, 1),): Fraction(1)}})

    @classmethod
    def exponential(cls, dim: int, qvec) -> "ExpPoly":
        """exp(q . x) for a rational covector q."""
        q = tuple(as_fraction(c) for c in qvec)
        if len(q) != dim:
            raise DimensionMismatch(f"exponent vector of length {len(q)} in dimension {dim}")
        key = (encode_exponents(q), (0,) * dim)
        return cls(dim, {key: {(): Fraction(1)}})

    @classmethod
    def monomial(cls, dim: int, mono, coeff=1) -> "ExpPoly":
        m = tuple(int(e) for e in mono)
        if len(m) != dim or any(e < 0 for e in m):
            raise ValueError(f"bad monomial {mono} in dimension {dim}")
        q = as_fraction(coeff)
        if not q:
            return cls(dim)
        key = (zero_exponents(dim), m)
        return cls(dim, {key: {(): q}})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterable[Tuple[Tuple[Fraction, ...], Tuple[int, ...], dict]]:
        """Terms in the canonical (exponent, monomial) order."""
        for exp, mono in sorted(self._terms):
            yield decode_exponents(exp), mono, self._terms[(exp, mono)]

    def term_map(self) -> Dict[TermKey, dict]:
        """The raw term map (treat as read-only)."""
        return self._terms

    def params(self) -> Tuple[str, ...]:
        names = set()
        for pp in self._terms.values():
            for pmono in pp:
                for name, _ in pmono:
                    names.add(name)
        return tuple(sorted(names))

    def is_parameter_free(self) -> bool:
        return all(pmono == () for pp in self._terms.values() for pmono in pp)

    def rational_value(self) -> Fraction:
        """The value of a constant, or raise ``LvfError``."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1:
            (key, pp), = self._terms.items()
            exp, mono = key
            if not any(exp[1:]) and not any(mono) and list(pp) == [()]:
                return pp[()]
        raise LvfError(f"not a rational constant: {self}")

    def constant_multiple_of(self, other: "ExpPoly"):
        """Return rational c with self == c*other, or None."""
        if other.is_zero():
            return Fraction(0) if self.is_zero() else None
        if self.is_zero():
            return Fraction(0)
        if set(self._terms) != set(other._terms):
            return None
        ratio = None
        for key, pp in self._terms.items():
            opp = other._terms[key]
            if set(pp) != set(opp):
                return None
            for pm, v in pp.items():
                r = v / opp[pm]
                if ratio is None:
                    ratio = r
                elif r != ratio:
                    return None
        return ratio

    def max_poly_degree(self) -> int:
        return max((sum(mono) for _, mono in self._terms), default=0)

    def exponents(self) -> set:
        return {decode_exponents(exp) for exp, _ in self._terms}

    def _check_dim(self, other: "ExpPoly"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimensions {self.dim} and {other.dim}")

    def _coerce(self, other) -> "ExpPoly":
        if isinstance(other, ExpPoly):
            return other
        return ExpPoly.const(self.dim, other)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "ExpPoly":
        other = self._coerce(other)
        self._check_dim(other)
        return ExpPoly(self.dim, K.ep_add(self._terms, other._terms))

    __radd__ = __add__

    def __neg__(self) -> "ExpPoly":
        return ExpPoly(self.dim, K.ep_scale(self._terms, Fraction(-1)))

    def __sub__(self, other) -> "ExpPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "ExpPoly":
        return (-self) + other

    def __mul__(self, other) -> "ExpPoly":
        if isinstance(other, (int, Fraction)):
            return ExpPoly(self.dim, K.ep_scale(self._terms, as_fraction(other)))
        other = self._coerce(other)
        self._check_dim(other)
        return ExpPoly(self.dim, K.ep_mul(self._terms, other._terms))

    __rmul__ = __mul__

    def diff(self, i: int) -> "ExpPoly":
        """Exact partial derivative along coordinate i."""
        if not 0 <= i < self.dim:
            raise IndexError(f"coordinate {i} out of range")
        return ExpPoly(self.dim, K.ep_diff(self._terms, i))

    # -- parameters ----------------------------------------------------

    def subst_params(self, assignment: Mapping[str, object]) -> "ExpPoly":
        """Substitute rationals for every parameter occurring here."""
        values = {name: as_fraction(v) for name, v in assignment.items()}
        out: Dict[TermKey, dict] = {}
        for key, pp in self._terms.items():
            total = Fraction(0)
            for pmono, c in pp.items():
                v = c
                for name, e in pmono:
                    if name not in values:
                        raise UnassignedParameter(f"parameter '{name}' not assigned")
                    v *= values[name] ** e
                total += v
            if total:
                out[key] = {(): total}
        return ExpPoly(self.dim, out)

    # -- coordinates ----------------------------------------------------

    def subst_affine(self, matrix, shift) -> "ExpPoly":
        """Substitute x_i -> sum_j M[i][j]*x_j + c_i.

        Exponentials transform by q.x -> (q^T M).x + q.c; a nonzero q.c
        would introduce a transcendental constant e^(q.c), which leaves
        the coefficient ring, so that case is an error.
        """
        dim = self.dim
        rows = [tuple(as_fraction(v) for v in row) for row in matrix]
        cvec = tuple(as_fraction(v) for v in shift)
        if len(rows) != dim or any(len(r) != dim for r in rows) or len(cvec) != dim:
            raise DimensionMismatch("affine data does not match dimension")
        images = []
        for i in range(dim):
            img = ExpPoly.const(dim, cvec[i])
            for j in range(dim):
                if rows[i][j]:
                    img = img + ExpPoly.coord(dim, j) * rows[i][j]
            images.append(img)
        out = ExpPoly.zero(dim)
        for (exp_key, mono), pp in self._terms.items():
            exp = decode_exponents(exp_key)
            drift = sum((q * c for q, c in zip(exp, cvec)), Fraction(0))
            if drift:
                raise LvfError(
                    "affine substitution would create the non-rational factor "
                    f"exp({drift}); shift the non-exponential directions only"
                )
            new_exp = encode_exponents(
                sum((exp[i] * rows[i][j] for i in range(dim)), Fraction(0))
                for j in range(dim)
            )
            piece = ExpPoly(dim, {(new_exp, (0,) * dim): dict(pp)})
            for i, m in enumerate(mono):
                for _ in range(m):
                    piece = piece * images[i]
            out = out + piece
        return out

    # -- equality and display ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ExpPoly.const(self.dim, other)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self.dim == other.dim and self._terms == other._terms

    def __hash__(self):
        frozen = tuple(
            (key, tuple(sorted(pp.items())))
            for key, pp in sorted(self._terms.items())
        )
        return hash((self.dim, frozen))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"ExpPoly({self.dim}, {format_scalar(self)!r})"

    def __str__(self) -> str:
        return format_scalar(self)


# -- canonical text form ---------------------------------------------------


def _format_pmono(pmono: PMono) -> str:
    parts = []
    for name, e in pmono:
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def join_signed(pairs) -> str:
    """``a - b + c`` from ``(negative, body)`` pairs, ``-a`` for a
    negative first term; ``0`` when there are none."""
    chunks = []
    for negative, body in pairs:
        if chunks:
            chunks.append(("- " if negative else "+ ") + body)
        else:
            chunks.append("-" + body if negative else body)
    return " ".join(chunks) or "0"


def signed_term(c, body: str):
    """``(c < 0, "|c|*body")`` for :func:`join_signed`: the factor 1 is
    left out, and an empty body stands for 1."""
    mag = abs(c)
    if not body:
        return c < 0, str(mag)
    return c < 0, body if mag == 1 else f"{mag}*{body}"


def _format_pp(pp: dict) -> str:
    """Parameter polynomial as a sum, canonical monomial order."""
    return join_signed(signed_term(pp[pm], _format_pmono(pm)) for pm in sorted(pp))


def format_scalar(f: ExpPoly) -> str:
    """Canonical text for an ExpPoly; parses back to an equal value."""
    names = coord_names(f.dim)
    pairs = []
    for exp, mono, pp in f.terms():
        factors = []
        for i, m in enumerate(mono):
            if m == 1:
                factors.append(names[i])
            elif m:
                factors.append(f"{names[i]}^{m}")
        if any(exp):
            form = join_signed(signed_term(q, n) for q, n in zip(exp, names) if q)
            factors.append(f"exp({form})")
        if len(pp) == 1:
            (pmono, c), = pp.items()
            negative, coef = signed_term(c, _format_pmono(pmono))
            if coef != "1" or not factors:
                factors.insert(0, coef)
        else:
            negative = False
            factors.insert(0, f"({_format_pp(pp)})")
        pairs.append((negative, "*".join(factors)))
    return join_signed(pairs)
