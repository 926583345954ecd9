"""Exact rational linear algebra on sparse rows.

Thin wrappers around the row-insert elimination kernel plus a dense
determinant.  Rows are dicts mapping column index to a nonzero
Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from lvf import _kernels as K

Row = Dict[int, Fraction]


def rref(rows: List[Row], ncols: int) -> Tuple[List[int], List[Row]]:
    return K.rref(rows, ncols)


def nullspace_from_rref(pivots: List[int], rrows: List[Row], ncols: int) -> List[Row]:
    """Nullspace basis out of an existing reduced echelon form."""
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec: Row = {free: Fraction(1)}
        for p, row in zip(pivots, rrows):
            c = row.get(free)
            if c:
                vec[p] = -c
        basis.append(vec)
    return basis


def nullspace(rows: List[Row], ncols: int) -> List[Row]:
    """Basis of the right nullspace, one vector per free column."""
    pivots, rrows = K.rref(rows, ncols)
    return nullspace_from_rref(pivots, rrows, ncols)


def solve_affine(
    rows: List[Row], rhs: List[Fraction], ncols: int
) -> Tuple[Optional[Row], List[Row], int, Optional[int]]:
    """Solve M v = rhs exactly.

    Returns (particular, homogeneous basis, rank of M, witness) where
    witness is the index of an inconsistent input row (particular is
    then None): the first row whose prefix makes the system
    inconsistent.  One echelon pass over the augmented rows gives all
    four: the witness is the row whose insertion creates a pivot in the
    rhs column, and the rank counts the pivots left of it.
    """
    table: Dict[int, Row] = {}
    witness = None
    for i, (r, b) in enumerate(zip(rows, rhs)):
        row = dict(r)
        if b:
            row[ncols] = b
        if row and K.echelon_insert(table, row) == ncols:
            witness = i
        if len(table) > ncols:
            break
    if witness is not None:
        return None, [], len(table) - 1, witness
    pivots, rrows = K.back_substitute(table)
    particular: Row = {}
    for p, row in zip(pivots, rrows):
        b = row.get(ncols)
        if b:
            particular[p] = b
    hom = nullspace_from_rref(pivots, rrows, ncols)
    return particular, hom, len(pivots), None


def rank(rows: List[Row], ncols: int) -> int:
    pivots, _ = K.rref(rows, ncols)
    return len(pivots)


def det(matrix: List[List[Fraction]]) -> Fraction:
    """Exact determinant via fraction Gaussian elimination."""
    n = len(matrix)
    m = [list(row) for row in matrix]
    sign = 1
    out = Fraction(1)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        lead = m[col][col]
        out *= lead
        for r in range(col + 1, n):
            if m[r][col]:
                fac = m[r][col] / lead
                m[r] = [a - fac * b for a, b in zip(m[r], m[col])]
    return out * sign
