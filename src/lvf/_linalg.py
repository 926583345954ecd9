"""Exact rational linear algebra on sparse rows.

Thin wrappers around the row-insert elimination kernel: rref,
nullspaces, affine solves and, through the rows of ``[A | I]``, the
determinant and the inverse.  rref, nullspaces and affine solves
insert every row they are given, with no exit at full rank.  Rows are
dicts mapping column index to a nonzero rational (``Fraction`` or
``int``); the echelon tables in between hold the kernel's primitive
integer rows.  ``rref`` and ``solve_affine`` hand out those integers,
as the kernel reduces them; ``nullspace`` divides them by their leads
and hands out ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from lvf import _kernels as K

Row = Dict[int, Fraction]


def rref(rows: List[Row], ncols: int) -> Tuple[List[int], List[Dict[int, int]]]:
    """Reduced row echelon form in integers (``_kernels.rref``): each
    row is primitive with a positive pivot entry, its lead, and over its
    lead it is the row of the rational reduced form."""
    return K.rref(rows, ncols)


def reduced_kernel_basis(vectors: List[Row], ncols: int) -> List[Row]:
    """The basis ``nullspace`` gives for any matrix whose nullspace is
    spanned by ``vectors`` (``int`` or ``Fraction`` entries).

    Its vector for a free column f is 1 at f, 0 at every other free
    column and nonzero only left of f, so the basis is the reduced
    echelon form of ``vectors`` with the column order reversed.
    """
    last = ncols - 1
    pivots, rrows = K.rref([{last - c: v for c, v in vec.items()} for vec in vectors], ncols)
    basis = []
    for p, row in zip(reversed(pivots), reversed(rrows)):
        lead = row[p]
        vec: Row = {last - p: Fraction(1)}
        for c in sorted(row, reverse=True):
            if c != p:
                vec[last - c] = Fraction(row[c], lead)
        basis.append(vec)
    return basis


def nullspace(rows: List[Row], ncols: int) -> List[Row]:
    """Basis of the right nullspace, one vector per free column f: 1 at
    f, 0 at every other free column."""
    pivots, irows = K.rref(rows, ncols)
    basis = []
    for vec in K.kernel_vectors(pivots, irows, ncols):
        # the entry at the free column comes first
        lead = next(iter(vec.values()))
        basis.append({c: Fraction(v, lead) for c, v in vec.items()})
    return basis


def solve_affine(
    rows: List[Row], rhs: List[Fraction], ncols: int
) -> Tuple[Optional[Dict[int, int]], List[Dict[int, int]], int, Optional[int]]:
    """Solve M v = rhs exactly, in integers.

    Returns (point, homogeneous basis, rank of M, witness) where
    witness is the index of an inconsistent input row (point is then
    None): the first row whose prefix makes the system inconsistent.
    One echelon pass over all the rows ``[M | -rhs]`` gives all four:
    the witness is the row whose insertion creates a pivot in the rhs
    column ``ncols``, and the rank counts the other pivots.  Without a
    witness, column ``ncols`` is free, and ``_kernels.kernel_vectors``
    of the reduced table over ``ncols + 1`` columns gives the
    homogeneous basis (the vectors of the free columns below ``ncols``)
    and, last, the vector of column ``ncols``: the point, ``L`` at
    ``ncols`` and ``L`` times the solution that is zero at every free
    column elsewhere.
    """
    table: Dict[int, Dict[int, int]] = {}
    witness = None
    for i, row in enumerate(rows):
        if rhs[i]:
            row = {**row, ncols: -rhs[i]}
        if row and K.echelon_insert(table, row) == ncols:
            witness = i
    if witness is not None:
        return None, [], len(table) - 1, witness
    pivots, irows = K.back_substitute(table)
    *hom, point = K.kernel_vectors(pivots, irows, ncols + 1)
    return point, hom, len(pivots), None


def rank(rows: List[Row], ncols: int) -> int:
    pivots, _ = K.rref(rows, ncols)
    return len(pivots)


def echelon_with_identity(
    rows: List[List[Fraction]],
) -> Optional[Tuple[Dict[int, Dict[int, int]], List[int]]]:
    """Insert the rows of ``[A | I]`` into one echelon table.

    A's entries are ``int`` or ``Fraction`` and the identity block holds
    ``int`` 1s, so an integer matrix enters the elimination as it is.
    Returns the table and the pivot column of each row of the n x n
    matrix A, or None as soon as a pivot falls in the identity block
    (column n or later), which happens exactly when A is singular.  Row
    i's marker entry (column n + i) is the total scale the integer
    elimination applied to row i: only earlier rows, with markers left
    of it, are subtracted from it, and a stored row is never touched
    again.  So the stored row is its marker times row i of U, where
    L A = U for a unit lower triangular L.
    """
    n = len(rows)
    table: Dict[int, Dict[int, int]] = {}
    pivots = []
    for i, row in enumerate(rows):
        aug = {j: v for j, v in enumerate(row) if v}
        aug[n + i] = 1
        p = K.echelon_insert(table, aug)
        if p >= n:
            return None
        pivots.append(p)
    return table, pivots


def det(matrix: List[List[Fraction]]) -> Fraction:
    """Exact determinant of a matrix of ``int`` or ``Fraction`` entries:
    sign of the pivot permutation times the product of the pivot
    entries of the echelon rows over the product of their marker
    entries (see ``echelon_with_identity``).  Always a ``Fraction``;
    an integer matrix runs without one until that last division."""
    echelon = echelon_with_identity(matrix)
    if echelon is None:
        return Fraction(0)
    table, pivots = echelon
    n = len(pivots)
    num = den = 1
    for i, p in enumerate(pivots):
        row = table[p]
        num *= row[p]
        den *= row[n + i]
    inversions = sum(p > q for k, p in enumerate(pivots) for q in pivots[k + 1:])
    return Fraction(-num if inversions % 2 else num, den)
