"""Kernels for the hot inner loops: integer term-map arithmetic and exact
elimination.

These functions operate on the raw representations used by the
expression layer:

* an integer term map is a dict mapping a key ``(exponents, monomial,
  pmono)`` to a nonzero ``int``; with one positive denominator it is
  the storage of an ``ExpPoly``.  ``monomial`` is a tuple of ints,
  ``pmono`` a parameter monomial (a tuple of ``(name, power)`` pairs
  sorted by name) and ``exponents`` the integer encoding ``(den, n_1,
  .., n_k)`` of the rational covector ``n_i/den`` (den positive,
  gcd(den, n_1, .., n_k) = 1) -- all-int keys keep dict hashing cheap;
* a sparse matrix row is a dict mapping a column index to a nonzero
  rational, an ``int`` or a ``Fraction`` (the constraint build of
  ``solve`` hands in ``int`` rows); inside the elimination, always to a
  nonzero ``int``.

A value ``num/den`` is canonical when ``den`` is positive, no entry of
``num`` is zero and gcd(den, numerators) = 1: the layout of FLINT's
rational polynomials (an integer polynomial over one denominator; Hart,
*FLINT: Fast Library for Number Theory*, ICMS 2010).  ``normalise``
divides by that gcd and is the one step that makes a value canonical.

Every sum goes through one add-into step: ``add_into`` adds a value to
one key of a map and drops the key when the sum vanishes (only
``_eliminate``, the innermost loop of the elimination, is inline).
Products accumulate in place: ``mul_into`` adds ``scale*f*g`` into a
map, exponents adding by ``exp_add`` and parameter monomials by
``pmono_mul``, so parameters run in the same kernel as everything else.
The key of a term product is read from the key-sum table, keyed by the
two factors' keys, and computed only when a pair is not there, so the
few exponent sums a bracket chain repeats are added once.  The table
starts empty, holds at most ``KEY_SUM_BOUND`` pairs and is cleared when
full.  An entry is derived from its pair alone, so threads that race on
the table store equal keys; at worst a key is computed again, or a lost
update of the entry count clears the table a few entries early or late.
``diff`` is the partial derivative, in integers times the lcm of the
exponent denominators (``exp_den``); its one caller is
``ExpPoly.integer_partial``, which keeps what it returns.  A sum of
products over different denominators (the derivation ``X(f)`` and the
bracket) scales each product to the lcm of the denominators as it is
added and divides by the content once, at the end.

The exact elimination is one row-insert core: ``echelon_insert`` adds a
row to a table of pivot rows and ``back_substitute`` reduces the table
once at the end; ``rref`` is built on the two, and so are the nullspace,
affine solve, inverse and determinant of ``_linalg`` and the span
tracker of ``algebra``; ``kernel_vectors`` reads an integer nullspace
basis off the reduced table.  ``pin_singletons`` resolves the rows with
one entry and a zero right-hand side before an elimination, so that only
the rows left over reach it.  The table holds primitive integer rows
(gcd 1, positive pivot entry) and is reduced fraction-free, by
cross-multiplication: the integer-preserving elimination of Bareiss
(1968), with each stored row divided by its content instead of by the
previous pivot.  ``Fraction`` appears only at its boundary: a rational
row is scaled to integers once, as it enters (an ``int`` row is only
divided by its content); every result is integer, and ``_linalg``
divides by the leads where a caller wants rational rows.

Callers look the kernels up through this module (``K.mul_into``,
``K.rref``, ...), so each has exactly one implementation.
"""

import math
from operator import add


def add_into(out, key, value):
    """``out[key] += value``, dropping the key when the sum vanishes."""
    cur = out.get(key)
    if cur is None:
        out[key] = value
    else:
        cur = cur + value
        if cur:
            out[key] = cur
        else:
            del out[key]


def normalise(num, den):
    """The canonical ``(num, den)`` of the value ``num/den`` (den
    positive): both divided by gcd(den, numerators).  The zero value
    comes out as ``({}, 1)``."""
    if den == 1:
        return num, den
    g = math.gcd(den, *num.values())
    if g != 1:
        num = {k: v // g for k, v in num.items()}
        den //= g
    return num, den


def pmono_mul(p, q):
    """Merge two sorted parameter monomials."""
    if not p:
        return q
    if not q:
        return p
    merged = dict(p)
    for name, e in q:
        merged[name] = merged.get(name, 0) + e
    return tuple(sorted(merged.items()))


def exp_add(e1, e2):
    """Sum of two integer-encoded exponent vectors."""
    d1 = e1[0]
    d2 = e2[0]
    if d1 == 1 and d2 == 1:
        return (1, *map(add, e1[1:], e2[1:]))
    g0 = math.gcd(d1, d2)
    den = d1 // g0 * d2
    m1 = den // d1
    m2 = den // d2
    nums = [a * m1 + b * m2 for a, b in zip(e1[1:], e2[1:])]
    g = den
    for n in nums:
        g = math.gcd(g, n)
        if g == 1:
            return (den, *nums)
    if g > 1:
        den //= g
        nums = [n // g for n in nums]
    return (den, *nums)


# The key-sum table of mul_into: key of f -> {key of g: key of the
# product}, one row per key of f, so that a term of f is hashed once per
# product and not once per pair; _key_sum_count entries in all, and no
# row empty.  It starts empty and is cleared when it holds KEY_SUM_BOUND
# entries.
KEY_SUM_BOUND = 65536
_key_sums = {}
_key_sum_count = 0


def mul_into(acc, f, g, scale=1):
    """Add ``scale*f*g`` into ``acc``, in place, for integer term maps
    ``f`` and ``g``.

    The key of each term product is read from the key-sum table and
    computed (``exp_add``, the monomial sum, ``pmono_mul``) only when
    the pair is not there.  The terms of ``f`` are the outer loop, so on
    parameter-free maps the keys of ``acc`` come in the order the
    constraint build reads.
    """
    global _key_sum_count
    if not g:
        return acc
    sums = _key_sums
    for kf, a in f.items():
        a *= scale
        row = sums.get(kf)
        if row is None:
            row = sums[kf] = {}
        for kg, b in g.items():
            key = row.get(kg)
            if key is None:
                ef, mf, pf = kf
                eg, mg, pg = kg
                key = (exp_add(ef, eg), tuple(map(add, mf, mg)), pmono_mul(pf, pg))
                if _key_sum_count >= KEY_SUM_BOUND:
                    sums.clear()
                    _key_sum_count = 0
                    row = sums[kf] = {}
                row[kg] = key
                _key_sum_count += 1
            add_into(acc, key, a * b)
    return acc


def exp_den(num):
    """The lcm of the exponent denominators of an integer term map."""
    return math.lcm(*{exp[0] for exp, _, _ in num})


def diff(num, j, e):
    """Partial derivative of an integer term map along coordinate ``j``,
    times ``e``, a multiple of its exponent denominators
    (:func:`exp_den`), so that it is integer too.

    A term ``x^m exp(q.x)`` gives ``m_j x^(m - e_j) exp(q.x)`` and then
    ``q_j x^m exp(q.x)``, in that order.
    """
    out = {}
    for key, v in num.items():
        exp, mono, pm = key
        m = mono[j]
        if m:
            add_into(out, (exp, mono[:j] + (m - 1,) + mono[j + 1:], pm), v * m * e)
        n = exp[1 + j]
        if n:
            add_into(out, key, v * n * (e // exp[0]))
    return out


def _integer_row(row):
    """``row`` as a new primitive integer row: times the lcm of its
    denominators, divided by the gcd of the numerators.  A one-entry
    row is ``{c: 1}`` and an all-integer row skips the lcm."""
    if len(row) <= 1:
        return {c: 1 for c in row}
    den = 1
    for v in row.values():
        if v.denominator != 1:
            den = math.lcm(den, v.denominator)
    if den == 1:
        out = {c: v.numerator for c, v in row.items()}
    else:
        out = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
    g = math.gcd(*out.values())
    if g != 1:
        out = {c: v // g for c, v in out.items()}
    return out


def _primitive(row, lead):
    """A nonzero integer row divided by its content, with the sign of
    ``lead`` (one of its entries), so that entry becomes positive."""
    g = math.gcd(*row.values())
    if lead < 0:
        g = -g
    if g != 1:
        row = {c: v // g for c, v in row.items()}
    return row


def _eliminate(row, col, prow):
    """Clear column ``col`` of the integer ``row`` with the pivot row
    ``prow`` by cross-multiplication: ``(p/g)*row - (r/g)*prow`` for
    ``p = prow[col] > 0``, ``r = row[col]`` and ``g = gcd(p, r)``.

    The result is returned; ``row`` is changed in place when ``p/g`` is
    1 and replaced otherwise.  The scale ``p/g`` is positive.
    """
    r = row.pop(col)
    p = prow[col]
    if p != 1:
        g = math.gcd(p, r)
        if g != 1:
            p //= g
            r //= g
        if p != 1:
            row = {c: v * p for c, v in row.items()}
    for c, v in prow.items():
        if c == col:
            continue
        s = row.get(c)
        if s is None:
            row[c] = -r * v
        else:
            s -= r * v
            if s:
                row[c] = s
            else:
                del row[c]
    return row


def echelon_insert(table, row):
    """Reduce ``row`` by the pivots of ``table`` and insert what is left.

    ``row`` maps columns to rationals (``Fraction`` or ``int``) and is
    not mutated: it is converted once, on entry, to a primitive integer
    row.  ``table`` maps each pivot column to its row, which holds
    integers with gcd 1, a positive pivot entry and no entry left of
    the pivot.  Only the leading entry is eliminated, repeatedly, by
    cross-multiplication (:func:`_eliminate`), so a stored row may
    still hold entries in later pivot columns; :func:`back_substitute`
    clears those once at the end.  A row that was reduced is divided by
    its content before it is stored.  Returns the new pivot column, or
    None when the row reduces to zero.
    """
    row = _integer_row(row)
    reduced = False
    while row:
        col = min(row)
        prow = table.get(col)
        if prow is None:
            if reduced or row[col] < 0:
                row = _primitive(row, row[col])
            table[col] = row
            return col
        row = _eliminate(row, col, prow)
        reduced = True
    return None


def back_substitute(table):
    """Fully reduce an echelon table, in integers and in place.

    Rows are reduced from the last pivot to the first: the rows of later
    pivots are final by then and hold no other pivot column, so each
    elimination only adds free columns.  Returns ``(pivots, rows)``,
    pivots ascending and ``rows[k]`` the reduced primitive row of
    ``pivots[k]``, still held by the table; its pivot entry, positive,
    is the row's lead, and the row over its lead is the row of the
    reduced row echelon form.  This is the one full reduction: the
    rational forms of ``_linalg`` are read from it.
    """
    pivots = sorted(table)
    for p in reversed(pivots):
        row = table[p]
        later = [c for c in row if c != p and c in table]
        if later:
            for q in later:
                row = _eliminate(row, q, table[q])
            table[p] = _primitive(row, row[p])
    return pivots, [table[p] for p in pivots]


def kernel_vectors(pivots, rows, ncols):
    """Integer nullspace basis of a reduced table (:func:`back_substitute`),
    one vector per free column f below ``ncols``, ascending.

    The vector of f is ``L`` at f and ``-row[f] * L / lead`` at each
    pivot whose row uses f, pivots ascending, where ``L`` is the lcm of
    those rows' leads: a positive multiple of the rational vector that
    is 1 at f and 0 at every other free column.  One pass over the rows:
    a reduced row holds no other pivot column, so every other entry
    below ``ncols`` is free.
    """
    pivot_set = set(pivots)
    uses = {f: [] for f in range(ncols) if f not in pivot_set}
    for p, row in zip(pivots, rows):
        lead = row[p]
        for c, v in row.items():
            at = uses.get(c)
            if at is not None:
                at.append((p, v, lead))
    basis = []
    for f, at in uses.items():
        lcm = math.lcm(*(lead for _, _, lead in at))
        vec = {f: lcm}
        for p, v, lead in at:
            vec[p] = -v * (lcm // lead)
        basis.append(vec)
    return basis


def pin_singletons(rows, ncols, rhs=None):
    """Resolve the rows ``rows . w = rhs`` (``rhs`` None for zeros) that
    hold one entry and a zero right-hand side, before any elimination.

    Such a row fixes its column at 0, so the column is dropped from
    every other row, and a row left with one entry and a zero
    right-hand side pins its column in turn, until none is left: the
    presolve of sparse solvers (Andersen & Andersen, *Presolving in
    linear programming*, Math. Programming 71, 1995).  A pinned column
    is a pivot of the reduced echelon form in any column order, so the
    rest of that form, its free columns included, is the form of the
    rows left over.

    Returns ``(kept, rows, rhs)``: the columns below ``ncols`` that are
    not pinned, ascending, and the rows that keep an entry or have a
    nonzero right-hand side, in input order, over the positions of
    their columns in ``kept``, with their right-hand sides (None when
    ``rhs`` is).  A row that loses every entry but not its right-hand
    side is kept empty, so an elimination of the rows left over finds
    that they have no solution.  When nothing is pinned and no row is
    dropped, the input rows are returned.
    """
    # the rows that can pin: the count of their entries not yet pinned,
    # and the rows of each column among them that hold more than one
    left = {}
    users = {}
    stack = []
    dropped = False
    for i, row in enumerate(rows):
        if rhs and rhs[i]:
            continue
        if len(row) > 1:
            left[i] = len(row)
            for c in row:
                users.setdefault(c, []).append(i)
        elif row:
            stack.extend(row)
        else:
            dropped = True
    if not (stack or dropped):
        return list(range(ncols)), rows, rhs
    pinned = set()
    while stack:
        c = stack.pop()
        if c in pinned:
            continue
        pinned.add(c)
        for i in users.get(c, ()):
            left[i] -= 1
            if left[i] == 1:
                stack.extend(d for d in rows[i] if d not in pinned)
    kept = [c for c in range(ncols) if c not in pinned]
    at = {c: j for j, c in enumerate(kept)}
    out, out_rhs = [], []
    for i, row in enumerate(rows):
        b = rhs[i] if rhs else 0
        if b or left.get(i):
            out.append({at[c]: v for c, v in row.items() if c in at})
            out_rhs.append(b)
    return kept, out, out_rhs if rhs is not None else None


def rref(rows, ncols):
    """Reduced row echelon form of a sparse rational matrix, in integers.

    ``rows`` is a list of sparse rows with columns in ``range(ncols)``;
    the input is not mutated.  Returns ``(pivots, out_rows)`` as
    :func:`back_substitute` gives them: ``pivots[k]`` is the pivot
    column of the primitive integer row ``out_rows[k]``, pivots strictly
    increasing, every pivot entry positive and eliminated from all other
    rows.  Every row is inserted.  The reduced form of a matrix is
    unique up to the scale of each row, so it does not depend on the
    order in which rows are inserted.
    """
    table = {}
    for r in rows:
        if r:
            echelon_insert(table, r)
    return back_substitute(table)
