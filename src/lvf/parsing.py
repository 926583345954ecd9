"""Recursive-descent parser for the expression grammar.

Scalars: rationals ``p/q``, coordinates (``x y z w`` or ``x1..xn``),
declared parameters, ``+ - * / ^``, ``exp(<linear form>)`` and
parentheses.  Vector fields are linear combinations of the frame
symbols ``Dx Dy Dz Dw`` (or ``D1..Dn``) with scalar coefficients.

``parse_scalar`` / ``parse_field`` round-trip with the canonical
formatters: ``parse(format(v)) == v`` for every canonical value.

Hostile input is refused with a ``ParseError``: parentheses, ``exp(``
and unary minus nest at most ``MAX_NESTING`` deep (the parser recurses
once per level), a power's exponent and polynomial degree are at most
``MAX_EXPONENT``, the term products of the whole parse are at most
``MAX_PRODUCTS``, counted before each product (a power is computed by
squaring and multiplying), and the dimension is at most ``MAX_DIM``,
checked before the coordinate tables are built.  A number, also a
power's exponent, with more digits than the interpreter converts to an
integer is refused by ``expr.check_digits``, the check that literal
parameter values go through.

``_Tokens`` is the package's one tokenizer: it takes the token pattern
and the error to raise, so the catalog text format (``lvf.catalog``)
reads its files and relations with it under its own pattern.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Tuple, Union

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


def _terms(value: Value) -> int:
    """Coefficient terms of a value: one per parameter monomial of each
    term, so that a product of values with s and t terms makes s*t
    term products."""
    comps = value.components if isinstance(value, VectorField) else (value,)
    return sum(c.term_count() for c in comps)


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


class _Tokens:
    """The tokens ``(kind, value, offset)`` of ``text``: one per match of
    ``pattern``, whose kind is the name of the group that matched.  A
    character no token starts with, and every ``expect`` that fails,
    raises ``error(message, offset)``; the end of input reads as the
    token ``(None, "", len(text))``."""

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
        self.coords = {}
        for i, name in enumerate(coord_names(dim)):
            self.coords[name] = i
        for i in range(dim):
            self.coords.setdefault(f"x{i + 1}", i)
        self.frames = {}
        if dim <= 4:
            for i, name in enumerate(coord_names(dim)):
                self.frames[f"D{name}"] = i
        for i in range(dim):
            self.frames.setdefault(f"D{i + 1}", i)
        self.params = set(params)
        bad = self.params & (set(self.coords) | set(self.frames) | {"exp"})
        if bad:
            raise ValueError(f"parameter names collide with builtins: {sorted(bad)}")

    # expr := term (('+'|'-') term)*
    def _expr(self, toks: _Tokens) -> Value:
        value = self._term(toks)
        while True:
            kind, val, pos = toks.peek()
            if kind == "op" and val in "+-":
                toks.next()
                rhs = self._term(toks)
                value = self._combine(value, rhs, val, pos)
            else:
                return value

    def _combine(self, a: Value, b: Value, op: str, pos: int) -> Value:
        if isinstance(a, VectorField) != isinstance(b, VectorField):
            raise ParseError("cannot add a scalar and a vector field", pos)
        return a + b if op == "+" else a - b

    # term := unary (('*'|'/') unary)*
    def _term(self, toks: _Tokens) -> Value:
        value = self._unary(toks)
        while True:
            kind, val, pos = toks.peek()
            if kind == "op" and val in "*/":
                toks.next()
                rhs = self._unary(toks)
                value = self._mul_div(value, rhs, val, pos)
            else:
                return value

    def _mul_div(self, a: Value, b: Value, op: str, pos: int) -> Value:
        if op == "/":
            if isinstance(b, VectorField):
                raise ParseError("cannot divide by a vector field", pos)
            try:
                q = b.rational_value()
            except LvfError:
                raise ParseError("divisor must be a nonzero rational constant", pos)
            if not q:
                raise ParseError("division by zero", pos)
            return a * (1 / q)
        if isinstance(a, VectorField) and isinstance(b, VectorField):
            raise ParseError("cannot multiply two vector fields", pos)
        return self._times(a, b, pos)

    def _times(self, a: Value, b: Value, pos: int) -> Value:
        """``a * b``, once its term products fit in what is left of
        ``MAX_PRODUCTS`` for this parse."""
        self.products += _terms(a) * _terms(b)
        if self.products > MAX_PRODUCTS:
            raise ParseError(f"expression needs more than {MAX_PRODUCTS} term products", pos)
        return b * a if isinstance(b, VectorField) else a * b

    def _enter(self, pos: int):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)

    # unary := '-' unary | power
    def _unary(self, toks: _Tokens) -> Value:
        kind, val, pos = toks.peek()
        if kind == "op" and val == "-":
            toks.next()
            self._enter(pos)
            inner = self._unary(toks)
            self.depth -= 1
            return -inner
        return self._power(toks)

    # power := atom ('^' nat)*
    def _power(self, toks: _Tokens) -> Value:
        value = self._atom(toks)
        while True:
            kind, val, pos = toks.peek()
            if kind == "op" and val == "^":
                toks.next()
                nkind, nval, npos = toks.next()
                if nkind != "num":
                    raise ParseError("exponent must be a natural number", npos)
                if isinstance(value, VectorField):
                    raise ParseError("cannot raise a vector field to a power", pos)
                check_digits(nval)
                n = int(nval)
                if max(n, n * value.max_poly_degree()) > MAX_EXPONENT:
                    raise ParseError(f"power of degree above {MAX_EXPONENT}", npos)
                # square and multiply, each product counted
                power = ExpPoly.const(self.dim, 1)
                while n:
                    if n & 1:
                        power = self._times(power, value, pos)
                    n >>= 1
                    if n:
                        value = self._times(value, value, pos)
                value = power
            else:
                return value

    def _atom(self, toks: _Tokens) -> Value:
        kind, val, pos = toks.next()
        if kind == "num":
            check_digits(val)
            return ExpPoly.const(self.dim, int(val))
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
                return ExpPoly.coord(self.dim, self.coords[val])
            if val in self.frames:
                return VectorField.coordinate(self.dim, self.frames[val])
            if val in self.params:
                return ExpPoly.param(self.dim, val)
            raise UnknownIdentifier(f"unknown identifier '{val}'", pos)
        raise ParseError(f"unexpected token {val!r}", pos)

    def _make_exponential(self, arg: ExpPoly, pos: int) -> ExpPoly:
        """exp of a rational linear form in the coordinates."""
        qvec = [Fraction(0)] * self.dim
        try:
            terms = arg.rational_terms()
        except ParameterizedInput:
            raise ParseError("exponent must not contain parameters", pos) from None
        zero = zero_exponents(self.dim)
        for (exp, mono), c in sorted(terms):
            if exp != zero:
                raise ParseError("nested exponentials are not allowed", pos)
            total = sum(mono)
            if total == 0:
                raise ParseError("exponent must have no constant term", pos)
            if total > 1:
                raise ParseError("exponent must be linear in the coordinates", pos)
            i = mono.index(1)
            qvec[i] += c
        return ExpPoly.exponential(self.dim, qvec)

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
