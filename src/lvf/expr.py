"""Exact exponential-polynomial scalars.

An :class:`ExpPoly` is a finite sum of terms

    (polynomial in formal parameters over Q) * x^m * exp(q . x)

with ``m`` a coordinate multi-index and ``q`` a rational covector.  The
functions ``x^m exp(q . x)`` for distinct ``(m, q)`` are linearly
independent, so a value is the zero function exactly when it has no
term.

A value is stored as one integer term map, keyed ``(exponents,
monomial, parameter monomial)``, over one positive denominator, and is
kept canonical: no zero numerator, and gcd(denominator, numerators) = 1.
Equal values therefore have equal storage, so equality and hashing are
structural.  Every ring operation, derivative and derivation runs on
the integer kernels of ``_kernels`` and ends in one normalise step;
``Fraction`` appears only where rationals come in (:meth:`ExpPoly.from_terms`)
or go out (:meth:`ExpPoly.term_map`, printing).  Only this module reads
the storage; :meth:`ExpPoly.integer_terms` hands it out read-only, for
the integer rows of the constraint build and of the span tracker.

A value computes its integer partial derivative along a coordinate
when it is first asked for it, and keeps it (:meth:`ExpPoly.integer_partial`):
``diff``, :func:`derivation_sum` (so ``apply`` and every bracket) and the
constraint build read it there, and ``_kernels.diff`` runs nowhere
else.  A partial is derived from the stored value alone, so filling it
is idempotent: two threads that fill one at once store equal maps, and
at worst one of them is computed again later.

Values are immutable and safe to share between threads.  All arithmetic
is exact.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

from lvf import _kernels as K
from lvf.errors import DimensionMismatch, LvfError, ParameterizedInput, UnassignedParameter

Rational = Union[int, Fraction]
PMono = Tuple[Tuple[str, int], ...]
# (den, n_1, .., n_k) for the rational covector n_i/den; see encode_exponents
Exponents = Tuple[int, ...]
TermKey = Tuple[Exponents, Tuple[int, ...], PMono]

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
    or '0.25'; a literal that is not a rational, or one with a zero
    denominator, in exponent notation (where '1e1000000000' asks for a
    billion-digit integer) or with more digits than the interpreter
    converts to an integer is an input error."""
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
        except ValueError:
            raise LvfError(f"not a rational number: {value.strip()!r}") from None
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
    """Canonical exponential-polynomial scalar in ``dim`` coordinates.

    Stored as one integer term map ``(exponents, monomial, pmono) ->
    int`` (see ``_kernels``) over one positive denominator, canonical:
    no zero numerator and gcd(denominator, numerators) = 1.  The
    constructor takes that storage as it is; values from rationals come
    from :meth:`from_terms`.  ``_partials`` is None until
    :meth:`integer_partial` first fills it.
    """

    __slots__ = ("dim", "_num", "_den", "_partials")

    def __init__(self, dim: int, num: Dict[TermKey, int] | None = None, den: int = 1):
        self.dim = dim
        self._num = num or {}
        self._den = den
        self._partials = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_terms(cls, dim: int, terms: Mapping[TermKey, Rational]) -> "ExpPoly":
        """The sum of ``c * x^mono exp(q.x) * pmono`` over a map from
        keys ``(exponents, monomial, pmono)`` to rationals, in the map's
        order; zero entries are left out.  Over the lcm of the
        denominators of reduced rationals the numerators are already
        coprime to the denominator, so the value is canonical as built.
        """
        den = math.lcm(*(q.denominator for q in terms.values()))
        num = {k: q.numerator * (den // q.denominator) for k, q in terms.items() if q}
        return cls(dim, num, den if num else 1)

    @classmethod
    def zero(cls, dim: int) -> "ExpPoly":
        return cls(dim)

    @classmethod
    def const(cls, dim: int, value) -> "ExpPoly":
        key = (zero_exponents(dim), (0,) * dim, ())
        return cls.from_terms(dim, {key: as_fraction(value)})

    @classmethod
    def coord(cls, dim: int, i: int) -> "ExpPoly":
        if not 0 <= i < dim:
            raise IndexError(f"coordinate {i} out of range for dimension {dim}")
        mono = tuple(1 if j == i else 0 for j in range(dim))
        return cls(dim, {(zero_exponents(dim), mono, ()): 1})

    @classmethod
    def param(cls, dim: int, name: str) -> "ExpPoly":
        return cls(dim, {(zero_exponents(dim), (0,) * dim, ((name, 1),)): 1})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def term_map(self) -> Dict[Tuple[Exponents, Tuple[int, ...]], dict]:
        """A read-only view ``{(exponents, monomial): {pmono: Fraction}}``,
        built on each call, in first-appearance order."""
        out: Dict[Tuple[Exponents, Tuple[int, ...]], dict] = {}
        den = self._den
        for (exp, mono, pm), v in self._num.items():
            out.setdefault((exp, mono), {})[pm] = Fraction(v, den)
        return out

    def terms(self) -> Iterable[Tuple[Tuple[Fraction, ...], Tuple[int, ...], dict]]:
        """Terms in the canonical (exponent, monomial) order, each with
        its ``{pmono: Fraction}`` coefficient."""
        view = self.term_map()
        for exp, mono in sorted(view):
            yield decode_exponents(exp), mono, view[(exp, mono)]

    def integer_terms(self) -> Tuple[Dict[TermKey, int], int]:
        """The storage of a parameter-free value, which the caller must
        not change: the integer term map, in storage order, and its
        positive denominator.  ParameterizedInput when a parameter
        occurs."""
        if not self.is_parameter_free():
            raise ParameterizedInput(f"substitute parameters first: {list(self.params())}")
        return self._num, self._den

    def integer_partial(self, j: int) -> Tuple[int, Dict[TermKey, int]]:
        """``(e, d)``: ``e`` the lcm of the exponent denominators and
        ``d`` the integer term map of ``e`` times the partial derivative
        of the numerators along coordinate ``j``, in the order
        ``_kernels.diff`` makes it, so the value's partial is
        ``d/(den*e)``.  Computed on the first call for ``j`` and kept;
        the caller must not change it."""
        memo = self._partials
        if memo is None:
            memo = self._partials = [K.exp_den(self._num)] + [None] * self.dim
        d = memo[j + 1]
        if d is None:
            d = memo[j + 1] = K.diff(self._num, j, memo[0])
        return memo[0], d

    def term_count(self) -> int:
        """Coefficient terms: one per parameter monomial of each
        (exponent, monomial) term."""
        return len(self._num)

    def params(self) -> Tuple[str, ...]:
        return tuple(sorted({name for _, _, pm in self._num for name, _ in pm}))

    def is_parameter_free(self) -> bool:
        return all(not pm for _, _, pm in self._num)

    def rational_value(self) -> Fraction:
        """The value of a constant, or raise ``LvfError``."""
        if not self._num:
            return Fraction(0)
        if len(self._num) == 1:
            ((exp, mono, pm), v), = self._num.items()
            if not any(exp[1:]) and not any(mono) and not pm:
                return Fraction(v, self._den)
        raise LvfError(f"not a rational constant: {self}")

    def constant_multiple_of(self, other: "ExpPoly"):
        """Return rational c with self == c*other, or None."""
        if other.is_zero():
            return Fraction(0) if self.is_zero() else None
        if self.is_zero():
            return Fraction(0)
        f, g = self._num, other._num
        if f.keys() != g.keys():
            return None
        k0 = next(iter(f))
        a0, b0 = f[k0], g[k0]
        if any(a * b0 != a0 * g[k] for k, a in f.items()):
            return None
        return Fraction(a0 * other._den, b0 * self._den)

    def max_poly_degree(self) -> int:
        return max((sum(mono) for _, mono, _ in self._num), default=0)

    def exponents(self) -> set:
        return {decode_exponents(exp) for exp, _, _ in self._num}

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
        if not other._num:
            return self
        if not self._num:
            return other
        den = math.lcm(self._den, other._den)
        sf = den // self._den
        sg = den // other._den
        out = dict(self._num) if sf == 1 else {k: v * sf for k, v in self._num.items()}
        for k, v in other._num.items():
            K.add_into(out, k, v * sg)
        return ExpPoly(self.dim, *K.normalise(out, den))

    __radd__ = __add__

    def __neg__(self) -> "ExpPoly":
        return ExpPoly(self.dim, {k: -v for k, v in self._num.items()}, self._den)

    def __sub__(self, other) -> "ExpPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "ExpPoly":
        return (-self) + other

    def __mul__(self, other) -> "ExpPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return ExpPoly(self.dim)
            p, q = other.numerator, other.denominator
            num = {k: v * p for k, v in self._num.items()}
            return ExpPoly(self.dim, *K.normalise(num, self._den * q))
        other = self._coerce(other)
        self._check_dim(other)
        acc = K.mul_into({}, self._num, other._num)
        return ExpPoly(self.dim, *K.normalise(acc, self._den * other._den))

    __rmul__ = __mul__

    def diff(self, i: int) -> "ExpPoly":
        """Exact partial derivative along coordinate i."""
        if not 0 <= i < self.dim:
            raise IndexError(f"coordinate {i} out of range")
        e, d = self.integer_partial(i)
        return ExpPoly(self.dim, *K.normalise(d, self._den * e))

    # -- parameters ----------------------------------------------------

    def subst_params(self, assignment: Mapping[str, object]) -> "ExpPoly":
        """Substitute rationals for every parameter occurring here."""
        if self.is_parameter_free():
            return self
        values = {name: as_fraction(v) for name, v in assignment.items()}
        out: Dict[TermKey, Fraction] = {}
        for (exp, mono, pmono), v in self._num.items():
            v = Fraction(v, self._den)
            for name, e in pmono:
                if name not in values:
                    raise UnassignedParameter(f"parameter '{name}' not assigned")
                v *= values[name] ** e
            key = (exp, mono, ())
            out[key] = out.get(key, 0) + v
        return ExpPoly.from_terms(self.dim, out)

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
        for (exp_key, mono, pm), v in self._num.items():
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
            piece = ExpPoly.from_terms(dim, {(new_exp, (0,) * dim, pm): Fraction(v, self._den)})
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
        return self.dim == other.dim and self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self.dim, self._den, frozenset(self._num.items())))

    def __bool__(self) -> bool:
        return bool(self._num)

    def __repr__(self) -> str:
        return f"ExpPoly({self.dim}, {format_scalar(self)!r})"

    def __str__(self) -> str:
        return format_scalar(self)


def derivation_sum(dim: int, parts) -> ExpPoly:
    """``sum sign * X(f)`` over ``parts`` of ``(X, f, sign)``, with X a
    sequence of components, ``X(f) = sum_j X^j df/dx_j`` and sign +1 or
    -1: ``X(f)`` itself, and each component of a bracket.

    Each product ``X^j * df/dx_j`` is taken in integers, from the
    partials ``f`` keeps (:meth:`ExpPoly.integer_partial`), and scaled, as
    it is added, to the lcm of the products' denominators; the sum is
    divided by its content once.  Products are added in the order
    given, the terms of ``X^j`` the outer loop of each, which is the
    term order the constraint build reads.
    """
    prods = []
    for xs, f, sign in parts:
        if not f._num:
            continue
        fden = sign * f._den
        for j, c in enumerate(xs):
            if c._num:
                e, d = f.integer_partial(j)
                if d:
                    prods.append((c._num, d, c._den * fden * e))
    den = math.lcm(*[p[2] for p in prods])
    acc: Dict[TermKey, int] = {}
    for c, d, pden in prods:
        K.mul_into(acc, c, d, den // pden)
    return ExpPoly(dim, *K.normalise(acc, den))


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
