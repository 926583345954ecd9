"""Recursive-descent parser for the expression grammar.

Scalars: rationals ``p/q``, coordinates (``x y z w`` or ``x1..xn``),
declared parameters, ``+ - * / ^``, ``exp(<linear form>)`` and
parentheses.  Vector fields are linear combinations of the frame
symbols ``Dx Dy Dz Dw`` (or ``D1..Dn``) with scalar coefficients.

``parse_scalar`` / ``parse_field`` round-trip with the canonical
formatters: ``parse(format(v)) == v`` for every canonical value.

A product is evaluated term by term while it stays one term: a number,
coordinate, parameter, frame symbol or ``exp(<linear form>)``, and any
product, power, quotient by a constant or negation of such factors, is
a ``_Term`` (an integer coefficient over a denominator, the encoded
exponents, the monomial, the parameter monomial and the frame index).
It becomes an ``ExpPoly`` or a ``VectorField`` only where it meets a
sum: at a ``+`` or ``-``, at a product with a parenthesized value, and
at the end of a parenthesized or whole expression.  A single term is
stored canonically, so the values, and the term order of every sum,
are the ones that multiplying ``ExpPoly`` atoms gives.

Hostile input is refused with a ``ParseError``: parentheses, ``exp(``
and unary minus nest at most ``MAX_NESTING`` deep (the parser recurses
once per level), a power's exponent and polynomial degree are at most
``MAX_EXPONENT``, the term products of the whole parse are at most
``MAX_PRODUCTS``, counted before each product (a power is computed by
squaring and multiplying, so ``v^n`` counts popcount(n) + bitlen(n) - 1
products of ``v`` with itself; a zero factor has no terms), and the
dimension is at most ``MAX_DIM``, checked before the coordinate tables
are built.  A number, also a power's exponent, with more digits than
the interpreter converts to an integer is refused by
``expr.check_digits``, the check that literal parameter values go
through.  A parameter named like a coordinate, a frame symbol or
``exp`` is refused, by ``Parser`` and, before any text is parsed, by
``check_params``.

``_Tokens`` is the package's one tokenizer: it takes the token pattern
and the error to raise, so the catalog text format (``lvf.catalog``)
reads its files with it under its own pattern, and reads each relation
from the tokens of its statement (``_Tokens.detach``).
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from operator import add
from types import MappingProxyType
from typing import Mapping, Tuple, Union

from lvf import _kernels as K
from lvf.errors import LvfError, ParameterizedInput, ParseError, UnknownIdentifier
from lvf.expr import ExpPoly, check_digits, coord_names, zero_exponents
from lvf.fields import VectorField

# a parsed value: a scalar, or a field (a sum of frame symbols)
Value = Union[ExpPoly, VectorField]

MAX_NESTING = 100
MAX_EXPONENT = 64
MAX_PRODUCTS = 20_000
MAX_DIM = 64


def check_dimension(dim: int) -> None:
    """Refuse a dimension outside 1..MAX_DIM, before any table of that
    size is built."""
    if dim < 1:
        raise LvfError(f"dimension must be at least 1, not {dim}")
    if dim > MAX_DIM:
        raise LvfError(f"dimension must be at most {MAX_DIM}, not {dim}")


@functools.lru_cache(maxsize=MAX_DIM)
def _builtin_names(dim: int) -> Tuple[Mapping[str, int], Mapping[str, int]]:
    """The coordinate and frame symbols of dimension ``dim``, each with
    its coordinate index, as read-only views.  Built once per dimension
    and shared by every parser of that dimension; callers check the
    dimension first, so at most ``MAX_DIM`` pairs are kept."""
    coords = {name: i for i, name in enumerate(coord_names(dim))}
    for i in range(dim):
        coords.setdefault(f"x{i + 1}", i)
    frames = {f"D{name}": i for i, name in enumerate(coord_names(dim))} if dim <= 4 else {}
    for i in range(dim):
        frames.setdefault(f"D{i + 1}", i)
    return MappingProxyType(coords), MappingProxyType(frames)


def check_params(dim: int, params) -> None:
    """Refuse a parameter named like a coordinate, a frame symbol or
    ``exp`` in dimension ``dim``."""
    if params:
        _check_param_names(params, *_builtin_names(dim))


def _check_param_names(params, coords, frames) -> None:
    bad = sorted(set(params) & (coords.keys() | frames.keys() | {"exp"}))
    if bad:
        raise LvfError(f"parameter {', '.join(bad)} named like a builtin")


class _Term:
    """One term while a product is parsed: ``num/den * x^mono *
    exp(q.x) * pmono``, times the frame field ``D<frame>`` when
    ``frame`` is not None.  ``num/den`` is reduced with ``den``
    positive, ``num`` 0 is the zero value, and ``exp`` is the encoded
    covector q (``expr.encode_exponents``)."""

    __slots__ = ("num", "den", "exp", "mono", "pmono", "frame")

    def __init__(self, num, den, exp, mono, pmono=(), frame=None):
        self.num = num
        self.den = den
        self.exp = exp
        self.mono = mono
        self.pmono = pmono
        self.frame = frame

    def times(self, other: "_Term") -> "_Term":
        num = self.num * other.num
        den = self.den * other.den
        g = math.gcd(num, den)
        if g != 1:
            num //= g
            den //= g
        return _Term(
            num,
            den,
            K.exp_add(self.exp, other.exp),
            tuple(map(add, self.mono, other.mono)),
            K.pmono_mul(self.pmono, other.pmono),
            self.frame if other.frame is None else other.frame,
        )

    def over(self, q: Fraction) -> "_Term":
        """The term divided by a nonzero rational."""
        num = self.num * q.denominator
        den = self.den * q.numerator
        g = math.gcd(num, den)
        if den < 0:
            g = -g
        return _Term(num // g, den // g, self.exp, self.mono, self.pmono, self.frame)

    def __neg__(self) -> "_Term":
        return _Term(-self.num, self.den, self.exp, self.mono, self.pmono, self.frame)

    def rational_value(self) -> Fraction:
        """The value of a constant scalar, or raise ``LvfError``."""
        if self.num and (any(self.exp[1:]) or any(self.mono) or self.pmono):
            raise LvfError("not a rational constant")
        return Fraction(self.num, self.den)

    def value(self, dim: int) -> Value:
        """The term as an ``ExpPoly``, or as a ``VectorField`` when it
        has a frame."""
        scalar = ExpPoly(dim)
        if self.num:
            scalar = ExpPoly(dim, {(self.exp, self.mono, self.pmono): self.num}, self.den)
        if self.frame is None:
            return scalar
        comps = [ExpPoly(dim)] * dim
        comps[self.frame] = scalar
        return VectorField(comps)


# a value while a product is parsed
Factor = Union[_Term, ExpPoly, VectorField]


def _is_field(v: Factor) -> bool:
    return v.frame is not None if isinstance(v, _Term) else isinstance(v, VectorField)


def _terms(v: Factor) -> int:
    """Coefficient terms of a value: one per parameter monomial of each
    term, so that a product of values with s and t terms makes s*t
    term products."""
    if isinstance(v, _Term):
        return 1 if v.num else 0
    comps = v.components if isinstance(v, VectorField) else (v,)
    return sum(c.term_count() for c in comps)


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


class _Tokens:
    """The tokens ``(kind, value, offset)`` of ``text``: one per match of
    ``pattern``, whose kind is the name of the group that matched.  A
    character no token starts with, and every ``expect`` that fails,
    raises ``error(message, offset)``; the end of the tokens reads as
    the token ``(None, "", len(text))``."""

    def __init__(self, text: str, pattern=_TOKEN, error=ParseError):
        self.text = text
        self.error = error
        self.items = []
        pos = 0
        for m in pattern.finditer(text):
            if m.start() != pos:
                break
            kind = m.lastgroup
            self.items.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        stripped = text[pos:].lstrip()
        if stripped:
            raise error(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        self.i = 0

    def detach(self, end: int, error) -> "_Tokens":
        """The tokens from the next one up to index ``end`` (not
        included), as a stream of their own over the same text that
        raises ``error``; this stream goes on at ``end``."""
        part = _Tokens.__new__(_Tokens)
        part.text = self.text
        part.error = error
        part.items = self.items[self.i:end]
        part.i = 0
        self.i = end
        return part

    def peek(self):
        if self.i < len(self.items):
            return self.items[self.i]
        return (None, "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, kind: str, value=None) -> str:
        """The next token's value; it must be of ``kind`` (and be ``value``)."""
        k, v, pos = self.next()
        if k != kind or (value is not None and v != value):
            wanted = kind if value is None else repr(value)
            raise self.error(f"expected {wanted}, found {v!r}", pos)
        return v


class Parser:
    def __init__(self, dim: int = 3, params: Tuple[str, ...] = ()):
        check_dimension(dim)
        self.dim = dim
        self.coords, self.frames = _builtin_names(dim)
        _check_param_names(params, self.coords, self.frames)
        self.params = set(params)
        self.zero_exp = zero_exponents(dim)
        self.zero_mono = (0,) * dim

    def _const(self, n: int) -> _Term:
        return _Term(n, 1, self.zero_exp, self.zero_mono)

    # expr := term (('+'|'-') term)*
    def _expr(self, toks: _Tokens) -> Value:
        value = self._value(self._term(toks))
        while True:
            kind, val, pos = toks.peek()
            if kind == "op" and val in "+-":
                toks.next()
                rhs = self._value(self._term(toks))
                value = self._combine(value, rhs, val, pos)
            else:
                return value

    def _value(self, v: Factor) -> Value:
        return v.value(self.dim) if isinstance(v, _Term) else v

    def _combine(self, a: Value, b: Value, op: str, pos: int) -> Value:
        if isinstance(a, VectorField) != isinstance(b, VectorField):
            raise ParseError("cannot add a scalar and a vector field", pos)
        return a + b if op == "+" else a - b

    # term := unary (('*'|'/') unary)*
    def _term(self, toks: _Tokens) -> Factor:
        value = self._unary(toks)
        while True:
            kind, val, pos = toks.peek()
            if kind == "op" and val in "*/":
                toks.next()
                rhs = self._unary(toks)
                value = self._mul_div(value, rhs, val, pos)
            else:
                return value

    def _mul_div(self, a: Factor, b: Factor, op: str, pos: int) -> Factor:
        if op == "/":
            if _is_field(b):
                raise ParseError("cannot divide by a vector field", pos)
            try:
                q = b.rational_value()
            except LvfError:
                raise ParseError("divisor must be a nonzero rational constant", pos)
            if not q:
                raise ParseError("division by zero", pos)
            return a.over(q) if isinstance(a, _Term) else a * (1 / q)
        if _is_field(a) and _is_field(b):
            raise ParseError("cannot multiply two vector fields", pos)
        return self._times(a, b, pos)

    def _count(self, products: int, pos: int) -> None:
        """Count ``products`` term products against ``MAX_PRODUCTS`` for
        this parse, before they are made."""
        self.products += products
        if self.products > MAX_PRODUCTS:
            raise ParseError(f"expression needs more than {MAX_PRODUCTS} term products", pos)

    def _times(self, a: Factor, b: Factor, pos: int) -> Factor:
        """``a * b``: one term when both are, else on ``ExpPoly``."""
        self._count(_terms(a) * _terms(b), pos)
        if isinstance(a, _Term) and isinstance(b, _Term):
            return a.times(b)
        a, b = self._value(a), self._value(b)
        return b * a if isinstance(b, VectorField) else a * b

    def _enter(self, pos: int):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)

    # unary := '-' unary | power
    def _unary(self, toks: _Tokens) -> Factor:
        kind, val, pos = toks.peek()
        if kind == "op" and val == "-":
            toks.next()
            self._enter(pos)
            inner = self._unary(toks)
            self.depth -= 1
            return -inner
        return self._power(toks)

    # power := atom ('^' nat)*
    def _power(self, toks: _Tokens) -> Factor:
        value = self._atom(toks)
        while True:
            kind, val, pos = toks.peek()
            if kind == "op" and val == "^":
                toks.next()
                nkind, nval, npos = toks.next()
                if nkind != "num":
                    raise ParseError("exponent must be a natural number", npos)
                if _is_field(value):
                    raise ParseError("cannot raise a vector field to a power", pos)
                check_digits(nval)
                n = int(nval)
                if isinstance(value, _Term):
                    degree = sum(value.mono) if value.num else 0
                else:
                    degree = value.max_poly_degree()
                if max(n, n * degree) > MAX_EXPONENT:
                    raise ParseError(f"power of degree above {MAX_EXPONENT}", npos)
                value = self._raise(value, n, pos)
            else:
                return value

    def _raise(self, value: Factor, n: int, pos: int) -> Factor:
        """``value^n`` by squaring and multiplying, each product counted."""
        power = self._const(1)
        while n:
            if n & 1:
                power = self._times(power, value, pos)
            n >>= 1
            if n:
                value = self._times(value, value, pos)
        return power

    def _atom(self, toks: _Tokens) -> Factor:
        kind, val, pos = toks.next()
        if kind == "num":
            check_digits(val)
            return self._const(int(val))
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
                mono = [0] * self.dim
                mono[self.coords[val]] = 1
                return _Term(1, 1, self.zero_exp, tuple(mono))
            if val in self.frames:
                return _Term(1, 1, self.zero_exp, self.zero_mono, (), self.frames[val])
            if val in self.params:
                return _Term(1, 1, self.zero_exp, self.zero_mono, ((val, 1),))
            raise UnknownIdentifier(f"unknown identifier '{val}'", pos)
        raise ParseError(f"unexpected token {val!r}", pos)

    def _make_exponential(self, arg: ExpPoly, pos: int) -> _Term:
        """exp of a rational linear form in the coordinates.  The form's
        storage is canonical, so its coefficients over its denominator
        are the encoded exponents."""
        nums = [0] * self.dim
        try:
            terms, den = arg.integer_terms()
        except ParameterizedInput:
            raise ParseError("exponent must not contain parameters", pos) from None
        for (exp, mono, _), c in sorted(terms.items()):
            if exp != self.zero_exp:
                raise ParseError("nested exponentials are not allowed", pos)
            total = sum(mono)
            if total == 0:
                raise ParseError("exponent must have no constant term", pos)
            if total > 1:
                raise ParseError("exponent must be linear in the coordinates", pos)
            nums[mono.index(1)] = c
        return _Term(1, 1, (den, *nums), self.zero_mono)

    def parse(self, text: str) -> Value:
        toks = _Tokens(text)
        self.depth = 0
        self.products = 0
        value = self._expr(toks)
        kind, val, pos = toks.peek()
        if kind is not None:
            raise ParseError(f"trailing input {val!r}", pos)
        return value


def parse_scalar(text: str, dim: int = 3, params=()) -> ExpPoly:
    value = Parser(dim, tuple(params)).parse(text)
    if isinstance(value, VectorField):
        raise ParseError("expected a scalar, found a vector field", 0)
    return value


def parse_field(text: str, dim: int = 3, params=()) -> VectorField:
    value = Parser(dim, tuple(params)).parse(text)
    if isinstance(value, VectorField):
        return value
    if value.is_zero():
        return VectorField.zero(dim)
    raise ParseError("expected a vector field, found a scalar", 0)
