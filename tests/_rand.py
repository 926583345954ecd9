"""Deterministic random generators, cold copies of values and a cold
key-sum table, shared by the property suites."""

from __future__ import annotations

import contextlib
import random
from fractions import Fraction

from lvf import _kernels
from lvf.expr import ExpPoly, encode_exponents
from lvf.fields import AffineMap, VectorField

PARAM_NAMES = ("a", "b", "lam")


def exponential(dim: int, qvec) -> ExpPoly:
    """exp(q . x) for a rational covector q of length ``dim``."""
    assert len(qvec) == dim
    return ExpPoly(dim, {(encode_exponents(qvec), (0,) * dim, ()): 1})


def cold_copy(value):
    """A copy of a scalar or a field that shares no storage with it and
    has kept no partial derivatives yet (``ExpPoly.integer_partial``)."""
    if isinstance(value, VectorField):
        return VectorField([cold_copy(c) for c in value.components])
    return ExpPoly(value.dim, dict(value._num), value._den)


@contextlib.contextmanager
def key_sum_table(bound=None):
    """Run a block on the empty key-sum table of ``_kernels.mul_into``,
    with ``bound`` (when given) in place of ``KEY_SUM_BOUND``; the table
    is emptied again and the bound restored on exit."""
    saved = _kernels.KEY_SUM_BOUND
    _kernels._key_sums.clear()
    _kernels._key_sum_count = 0
    if bound is not None:
        _kernels.KEY_SUM_BOUND = bound
    try:
        yield
    finally:
        _kernels.KEY_SUM_BOUND = saved
        _kernels._key_sums.clear()
        _kernels._key_sum_count = 0


def rand_fraction(rng: random.Random, small: bool = True) -> Fraction:
    num = rng.randint(-4, 4)
    den = rng.choice((1, 1, 2, 3)) if small else rng.randint(1, 6)
    return Fraction(num, den)


def rand_exppoly(
    rng: random.Random,
    dim: int = 3,
    max_terms: int = 2,
    with_params: bool = False,
    with_exp: bool = True,
) -> ExpPoly:
    out = ExpPoly.zero(dim)
    for _ in range(rng.randint(0, max_terms)):
        coeff = rand_fraction(rng)
        if not coeff:
            coeff = Fraction(1)
        term = ExpPoly.const(dim, coeff)
        for i in range(dim):
            for _ in range(rng.randint(0, 1)):
                term = term * ExpPoly.coord(dim, i)
        if with_exp and rng.random() < 0.5:
            qvec = [Fraction(rng.randint(-1, 1)) for _ in range(dim)]
            term = term * exponential(dim, qvec)
        if with_params and rng.random() < 0.4:
            term = term * ExpPoly.param(dim, rng.choice(PARAM_NAMES))
        out = out + term
    return out


def rand_field(
    rng: random.Random,
    dim: int = 3,
    max_terms: int = 2,
    with_params: bool = False,
    with_exp: bool = True,
) -> VectorField:
    return VectorField(
        [
            rand_exppoly(rng, dim, max_terms, with_params, with_exp)
            for _ in range(dim)
        ]
    )


def rand_invertible(rng: random.Random, dim: int):
    """Random invertible rational matrix (unit lower x unit upper x diag)."""
    lower = [[Fraction(1 if i == j else 0) for j in range(dim)] for i in range(dim)]
    upper = [[Fraction(1 if i == j else 0) for j in range(dim)] for i in range(dim)]
    for i in range(dim):
        for j in range(i):
            lower[i][j] = rand_fraction(rng)
            upper[j][i] = rand_fraction(rng)
    diag = [rng.choice((1, -1, 2, Fraction(1, 2))) for _ in range(dim)]
    out = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            out[i][j] = sum(
                (lower[i][k] * upper[k][j] * diag[j] for k in range(dim)),
                Fraction(0),
            )
    return out


def rand_affine(rng: random.Random, dim: int, allow_shift: bool) -> AffineMap:
    shift = (
        [rand_fraction(rng) for _ in range(dim)]
        if allow_shift
        else [Fraction(0)] * dim
    )
    return AffineMap(rand_invertible(rng, dim), shift)
