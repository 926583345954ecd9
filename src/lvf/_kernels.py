"""Kernels for the hot inner loops: term-map arithmetic and exact
elimination.

These functions operate on the raw term representations used by the
expression layer:

* a parameter polynomial ("pp") is a dict mapping a parameter monomial
  (a tuple of ``(name, power)`` pairs sorted by name) to a nonzero
  ``Fraction``;
* an exponential-polynomial term map ("ep") is a dict mapping a key
  ``(exponents, monomial)`` to a nonzero pp, where ``monomial`` is a
  tuple of ints and ``exponents`` is the integer encoding
  ``(den, n_1, .., n_k)`` of the rational covector ``n_i/den`` (den
  positive, gcd(den, n_1, .., n_k) = 1) -- all-int keys keep dict
  hashing cheap;
* a sparse matrix row is a dict mapping a column index to a nonzero
  ``Fraction``.

The exact elimination is one row-insert core: ``echelon_insert`` adds
a row to a table of pivot rows and ``back_substitute`` reduces the
table once at the end; ``rref`` is built on the two.  Callers look the
kernels up through this module (``K.ep_mul``, ``K.rref``, ...), so each
has exactly one implementation.
"""

import math
from fractions import Fraction


def pp_add(a, b):
    """Sum of two parameter polynomials."""
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for k, v in b.items():
        s = out.get(k)
        if s is None:
            out[k] = v
        else:
            s = s + v
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def pp_scale(a, c):
    """Parameter polynomial times a rational."""
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


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


def pp_mul(a, b):
    """Product of two parameter polynomials."""
    if not a or not b:
        return {}
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = pmono_mul(ka, kb)
            s = out.get(k)
            if s is None:
                out[k] = va * vb
            else:
                s = s + va * vb
                if s:
                    out[k] = s
                else:
                    del out[k]
    return out


def exp_add(e1, e2):
    """Sum of two integer-encoded exponent vectors."""
    d1 = e1[0]
    d2 = e2[0]
    if d1 == 1 and d2 == 1:
        return (1,) + tuple(a + b for a, b in zip(e1[1:], e2[1:]))
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


def ep_add(f, g):
    """Sum of two term maps."""
    if not f:
        return {k: dict(v) for k, v in g.items()}
    out = {k: dict(v) for k, v in f.items()}
    for k, pp in g.items():
        cur = out.get(k)
        if cur is None:
            out[k] = dict(pp)
        else:
            cur = pp_add(cur, pp)
            if cur:
                out[k] = cur
            else:
                del out[k]
    return out


def ep_scale(f, c):
    """Term map times a rational."""
    if not c:
        return {}
    return {k: {pk: pv * c for pk, pv in pp.items()} for k, pp in f.items()}


def ep_mul(f, g):
    """Product of two term maps (exponents add, monomials add)."""
    if not f or not g:
        return {}
    out = {}
    for (ef, mf), ppf in f.items():
        for (eg, mg), ppg in g.items():
            key = (exp_add(ef, eg), tuple(a + b for a, b in zip(mf, mg)))
            pp = pp_mul(ppf, ppg)
            cur = out.get(key)
            if cur is None:
                out[key] = pp
            else:
                cur = pp_add(cur, pp)
                if cur:
                    out[key] = cur
                else:
                    del out[key]
    return out


def ep_diff(f, i):
    """Partial derivative of a term map along coordinate ``i``."""
    out = {}
    for (exp, mono), pp in f.items():
        m = mono[i]
        if m:
            key = (exp, mono[:i] + (m - 1,) + mono[i + 1:])
            scaled = pp_scale(pp, Fraction(m))
            cur = out.get(key)
            if cur is None:
                out[key] = scaled
            else:
                cur = pp_add(cur, scaled)
                if cur:
                    out[key] = cur
                else:
                    del out[key]
        n = exp[1 + i]
        if n:
            key = (exp, mono)
            scaled = pp_scale(pp, Fraction(n, exp[0]))
            cur = out.get(key)
            if cur is None:
                out[key] = scaled
            else:
                cur = pp_add(cur, scaled)
                if cur:
                    out[key] = cur
                else:
                    del out[key]
    return out


def _eliminate(row, col, prow):
    """Clear column ``col`` of ``row`` with the pivot row ``prow``
    (``prow[col] == 1``), in place."""
    fac = row.pop(col)
    for c, v in prow.items():
        if c == col:
            continue
        s = row.get(c)
        if s is None:
            row[c] = -fac * v
        else:
            s -= fac * v
            if s:
                row[c] = s
            else:
                del row[c]


def echelon_insert(table, row):
    """Reduce ``row`` by the pivots of ``table`` and insert what is left.

    ``table`` maps each pivot column to its row: pivot entry 1 and no
    entry left of the pivot.  ``row`` is consumed (pass a copy).  Only
    the leading entry is eliminated, repeatedly, so a stored row may
    still hold entries in later pivot columns; :func:`back_substitute`
    clears those once at the end.  Returns the new pivot column, or
    None when the row reduces to zero.
    """
    while row:
        col = min(row)
        prow = table.get(col)
        if prow is None:
            inv = 1 / row[col]
            if inv != 1:
                row = {c: v * inv for c, v in row.items()}
            table[col] = row
            return col
        _eliminate(row, col, prow)
    return None


def back_substitute(table):
    """Reduced row echelon form ``(pivots, rows)`` of an echelon table.

    Rows are fully reduced in place, from the last pivot to the first:
    the rows of later pivots are final by then and hold no other pivot
    column, so each elimination only adds free columns.
    """
    pivots = sorted(table)
    for p in reversed(pivots):
        row = table[p]
        for q in [c for c in row if c != p and c in table]:
            _eliminate(row, q, table[q])
    return pivots, [table[p] for p in pivots]


def rref(rows, ncols):
    """Reduced row echelon form of a sparse rational matrix.

    ``rows`` is a list of sparse rows with columns in ``range(ncols)``;
    the input is not mutated.  Returns ``(pivots, out_rows)`` where
    ``pivots[k]`` is the pivot column of ``out_rows[k]``, pivots
    strictly increasing, every pivot entry 1 and eliminated from all
    other rows.  The reduced form of a matrix is unique, so it does not
    depend on the order in which rows are inserted.
    """
    table = {}
    for r in rows:
        if r:
            echelon_insert(table, dict(r))
            if len(table) == ncols:
                break
    return back_substitute(table)
