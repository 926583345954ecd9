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
``MAX_EXPONENT``, and the dimension is at most ``MAX_DIM``, checked
before the coordinate tables are built.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Tuple

from lvf.errors import LvfError, ParseError, UnknownIdentifier
from lvf.expr import ExpPoly, coord_names
from lvf.fields import VectorField

MAX_NESTING = 100
MAX_EXPONENT = 64
MAX_DIM = 64


def check_dimension(dim: int) -> None:
    """Refuse a dimension outside 1..MAX_DIM, before any table of that
    size is built."""
    if dim < 1:
        raise LvfError(f"dimension must be at least 1, not {dim}")
    if dim > MAX_DIM:
        raise LvfError(f"dimension must be at most {MAX_DIM}, not {dim}")


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                at = len(text) - len(stripped)
                raise ParseError(f"unexpected character {stripped[0]!r}", at)
            kind = m.lastgroup
            self.items.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0

    def peek(self):
        if self.i < len(self.items):
            return self.items[self.i]
        return (None, "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected '{op}', found {val!r}", pos)


class _Value:
    """Scalar or field produced while parsing."""

    __slots__ = ("scalar", "field")

    def __init__(self, scalar=None, field=None):
        self.scalar = scalar
        self.field = field

    @property
    def is_field(self):
        return self.field is not None


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
    def _expr(self, toks: _Tokens) -> _Value:
        value = self._term(toks)
        while True:
            kind, val, pos = toks.peek()
            if kind == "op" and val in "+-":
                toks.next()
                rhs = self._term(toks)
                value = self._combine(value, rhs, val, pos)
            else:
                return value

    def _combine(self, a: _Value, b: _Value, op: str, pos: int) -> _Value:
        if a.is_field != b.is_field:
            raise ParseError("cannot add a scalar and a vector field", pos)
        if a.is_field:
            return _Value(field=a.field + b.field if op == "+" else a.field - b.field)
        return _Value(scalar=a.scalar + b.scalar if op == "+" else a.scalar - b.scalar)

    # term := unary (('*'|'/') unary)*
    def _term(self, toks: _Tokens) -> _Value:
        value = self._unary(toks)
        while True:
            kind, val, pos = toks.peek()
            if kind == "op" and val in "*/":
                toks.next()
                rhs = self._unary(toks)
                value = self._mul_div(value, rhs, val, pos)
            else:
                return value

    def _mul_div(self, a: _Value, b: _Value, op: str, pos: int) -> _Value:
        if op == "/":
            if b.is_field:
                raise ParseError("cannot divide by a vector field", pos)
            try:
                q = b.scalar.rational_value()
            except Exception:
                raise ParseError("divisor must be a nonzero rational constant", pos)
            if not q:
                raise ParseError("division by zero", pos)
            factor = 1 / q
            if a.is_field:
                return _Value(field=a.field * factor)
            return _Value(scalar=a.scalar * factor)
        if a.is_field and b.is_field:
            raise ParseError("cannot multiply two vector fields", pos)
        if a.is_field:
            return _Value(field=a.field * b.scalar)
        if b.is_field:
            return _Value(field=b.field * a.scalar)
        return _Value(scalar=a.scalar * b.scalar)

    def _enter(self, pos: int):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)

    # unary := '-' unary | power
    def _unary(self, toks: _Tokens) -> _Value:
        kind, val, pos = toks.peek()
        if kind == "op" and val == "-":
            toks.next()
            self._enter(pos)
            inner = self._unary(toks)
            self.depth -= 1
            if inner.is_field:
                return _Value(field=-inner.field)
            return _Value(scalar=-inner.scalar)
        return self._power(toks)

    # power := atom ('^' nat)*
    def _power(self, toks: _Tokens) -> _Value:
        value = self._atom(toks)
        while True:
            kind, val, pos = toks.peek()
            if kind == "op" and val == "^":
                toks.next()
                nkind, nval, npos = toks.next()
                if nkind != "num":
                    raise ParseError("exponent must be a natural number", npos)
                if value.is_field:
                    raise ParseError("cannot raise a vector field to a power", pos)
                n = int(nval)
                if max(n, n * value.scalar.max_poly_degree()) > MAX_EXPONENT:
                    raise ParseError(f"power of degree above {MAX_EXPONENT}", npos)
                value = _Value(scalar=value.scalar ** n)
            else:
                return value

    def _atom(self, toks: _Tokens) -> _Value:
        kind, val, pos = toks.next()
        if kind == "num":
            return _Value(scalar=ExpPoly.const(self.dim, int(val)))
        if kind == "op" and val == "(":
            self._enter(pos)
            inner = self._expr(toks)
            toks.expect_op(")")
            self.depth -= 1
            return inner
        if kind == "ident":
            if val == "exp":
                toks.expect_op("(")
                self._enter(pos)
                inner = self._expr(toks)
                toks.expect_op(")")
                self.depth -= 1
                if inner.is_field:
                    raise ParseError("exp() takes a scalar argument", pos)
                return _Value(scalar=self._make_exponential(inner.scalar, pos))
            if val in self.coords:
                return _Value(scalar=ExpPoly.coord(self.dim, self.coords[val]))
            if val in self.frames:
                return _Value(field=VectorField.coordinate(self.dim, self.frames[val]))
            if val in self.params:
                return _Value(scalar=ExpPoly.param(self.dim, val))
            raise UnknownIdentifier(f"unknown identifier '{val}'", pos)
        raise ParseError(f"unexpected token {val!r}", pos)

    def _make_exponential(self, arg: ExpPoly, pos: int) -> ExpPoly:
        """exp of a rational linear form in the coordinates."""
        qvec = [Fraction(0)] * self.dim
        for exp, mono, pp in arg.terms():
            if any(exp):
                raise ParseError("nested exponentials are not allowed", pos)
            if list(pp) != [()]:
                raise ParseError("exponent must not contain parameters", pos)
            total = sum(mono)
            if total == 0:
                raise ParseError("exponent must have no constant term", pos)
            if total > 1:
                raise ParseError("exponent must be linear in the coordinates", pos)
            i = mono.index(1)
            qvec[i] += pp[()]
        return ExpPoly.exponential(self.dim, qvec)

    def parse(self, text: str) -> _Value:
        toks = _Tokens(text)
        self.depth = 0
        value = self._expr(toks)
        kind, val, pos = toks.peek()
        if kind is not None:
            raise ParseError(f"trailing input {val!r}", pos)
        return value


def parse_scalar(text: str, dim: int = 3, params=()) -> ExpPoly:
    value = Parser(dim, tuple(params)).parse(text)
    if value.is_field:
        raise ParseError("expected a scalar, found a vector field", 0)
    return value.scalar


def parse_field(text: str, dim: int = 3, params=()) -> VectorField:
    value = Parser(dim, tuple(params)).parse(text)
    if value.is_field:
        return value.field
    if value.scalar.is_zero():
        return VectorField.zero(dim)
    raise ParseError("expected a vector field, found a scalar", 0)
