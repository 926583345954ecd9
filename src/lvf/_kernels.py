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
* an integer form (:class:`IntegerForm`) is a vector field scaled to
  integers, one dict per component mapping ``(exponents, monomial,
  pmono)`` to a nonzero ``int`` over the field's common denominator;
* a sparse matrix row is a dict mapping a column index to a nonzero
  ``Fraction``; inside the elimination, to a nonzero ``int``.

Every sum goes through one add-into step: ``add_into`` adds a value to
one key of a map and drops the key when the sum vanishes, and
``pp_add_into`` does the same with a parameter polynomial as the value
(only ``_eliminate``, the innermost loop of the elimination, is inline).
Products accumulate in place: ``ep_mul_into`` adds ``f*g`` into a term
map and ``ep_mul`` is its call on an empty map.  Parameter polynomials
are never mutated, so sums and products share them with their operands
instead of copying them.

The bracket ``[X, Y]`` runs on integer forms: ``integer_form`` scales a
field to integers once (times the lcm of its coefficient denominators),
its partial derivatives are scaled by the lcm of its exponent
denominators and computed only when a bracket asks for them, and
``ep_bracket`` multiplies ints, sums every product into one map per
component and divides once per output term.  A parameter monomial is
part of the key, so parameters stay in the same kernel.

The exact elimination is one row-insert core: ``echelon_insert`` adds
a row to a table of pivot rows and ``back_substitute`` reduces the
table once at the end; ``rref`` is built on the two, and so are the
nullspace, affine solve, inverse and determinant of ``_linalg`` and the
span tracker of ``algebra``.  The table holds primitive integer rows
(gcd 1, positive pivot entry) and is reduced fraction-free, by
cross-multiplication: the integer-preserving elimination of Bareiss
(1968), with each stored row divided by its content instead of by the
previous pivot.

In both the elimination and the bracket ``Fraction`` appears only at
the boundary: a rational row or field is scaled to integers once, as it
enters, and a rational value is made once per entry that leaves
(``back_substitute`` returns rational rows with pivot entry 1,
``ep_bracket`` term maps with ``Fraction`` coefficients).

Callers look the kernels up through this module (``K.ep_mul``,
``K.rref``, ...), so each has exactly one implementation.
"""

import math
from fractions import Fraction
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


def pp_add_into(out, key, pp):
    """:func:`add_into` for a term map: the parameter polynomial ``pp``
    is added to ``out[key]`` by :func:`pp_add`, which makes a new one."""
    cur = out.get(key)
    if cur is None:
        out[key] = pp
    else:
        cur = pp_add(cur, pp)
        if cur:
            out[key] = cur
        else:
            del out[key]


def pp_add(a, b):
    """Sum of two parameter polynomials."""
    out = dict(a)
    for k, v in b.items():
        add_into(out, k, v)
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
            add_into(out, pmono_mul(ka, kb), va * vb)
    return out


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


def ep_add(f, g):
    """Sum of two term maps; it shares their parameter polynomials."""
    if not f:
        return dict(g)
    out = dict(f)
    for k, pp in g.items():
        pp_add_into(out, k, pp)
    return out


def ep_scale(f, c):
    """Term map times a rational."""
    if not c:
        return {}
    return {k: {pk: pv * c for pk, pv in pp.items()} for k, pp in f.items()}


def ep_mul_into(out, f, g, negate=False):
    """Add ``f*g`` (``-f*g`` when ``negate``) into the term map ``out``,
    in place, and return ``out``.

    Exponents add and monomials add.  A parameter polynomial already in
    ``out`` is replaced by the sum, never mutated, so ``out`` may share
    them with other term maps.
    """
    if not f or not g:
        return out
    for (ef, mf), ppf in f.items():
        if negate:
            ppf = {k: -v for k, v in ppf.items()}
        for (eg, mg), ppg in g.items():
            key = (exp_add(ef, eg), tuple(map(add, mf, mg)))
            pp_add_into(out, key, pp_mul(ppf, ppg))
    return out


def ep_mul(f, g):
    """Product of two term maps."""
    return ep_mul_into({}, f, g)


def ep_diff(f, i):
    """Partial derivative of a term map along coordinate ``i``."""
    out = {}
    for (exp, mono), pp in f.items():
        m = mono[i]
        if m:
            key = (exp, mono[:i] + (m - 1,) + mono[i + 1:])
            pp_add_into(out, key, pp if m == 1 else pp_scale(pp, m))
        n = exp[1 + i]
        if n:
            pp_add_into(out, (exp, mono), pp_scale(pp, Fraction(n, exp[0])))
    return out


class IntegerForm:
    """A vector field scaled to integers: the operand of :func:`ep_bracket`.

    ``comps[i]`` maps ``(exponents, monomial, pmono)`` to a nonzero
    ``int``, the coefficient of component i times ``den``, the lcm of
    the field's coefficient denominators; the keys come in term-map
    order.  ``diff(i, j)`` is the partial derivative of component i
    along coordinate j in the same keys, times ``den * eden`` with
    ``eden`` the lcm of the field's exponent denominators, so it is
    integer too.  Each derivative is computed when a bracket first asks
    for it and kept.  Nothing else changes after construction.
    """

    __slots__ = ("comps", "den", "eden", "_diffs")

    def __init__(self, comps, den, eden):
        self.comps = comps
        self.den = den
        self.eden = eden
        self._diffs = {}

    def diff(self, i, j):
        d = self._diffs.get((i, j))
        if d is None:
            d = self._diffs[(i, j)] = {}
            eden = self.eden
            for (exp, mono, pm), v in self.comps[i].items():
                m = mono[j]
                if m:
                    key = (exp, mono[:j] + (m - 1,) + mono[j + 1:], pm)
                    add_into(d, key, v * m * eden)
                n = exp[1 + j]
                if n:
                    add_into(d, (exp, mono, pm), v * n * (eden // exp[0]))
        return d


def integer_form(term_maps):
    """The :class:`IntegerForm` of a vector field given as a list of
    term maps, one per component."""
    den = 1
    eden = 1
    for terms in term_maps:
        for (exp, _), pp in terms.items():
            if exp[0] != 1:
                eden = math.lcm(eden, exp[0])
            for v in pp.values():
                if v.denominator != 1:
                    den = math.lcm(den, v.denominator)
    comps = [
        {
            (exp, mono, pm): v.numerator * (den // v.denominator)
            for (exp, mono), pp in terms.items()
            for pm, v in pp.items()
        }
        for terms in term_maps
    ]
    return IntegerForm(comps, den, eden)


def _int_mul_into(acc, f, g, scale):
    """Add ``scale*f*g`` into ``acc``, for components ``f``, ``g`` of
    integer forms, keyed ``(exponents, monomial, pmono)``."""
    for (ef, mf, pf), a in f.items():
        a *= scale
        for (eg, mg, pg), b in g.items():
            key = (exp_add(ef, eg), tuple(map(add, mf, mg)), pmono_mul(pf, pg))
            add_into(acc, key, a * b)


def ep_bracket(x, y):
    """Components of the bracket ``[X, Y]`` of two vector fields given
    by their :class:`IntegerForm`, as term maps.

    Component i is sum_j X^j d_j Y^i - Y^j d_j X^i.  Both parts are
    summed in integers over the one denominator
    ``x.den * y.den * lcm(x.eden, y.eden)``, each product in its own key
    ``(exponents, monomial, pmono)``, and every surviving key is divided
    once, as it leaves.  The X part comes before the Y part, and the
    terms of X^j are the outer loop over those of d_j Y^i, so on
    parameter-free fields the term maps come out in the insertion order
    of :func:`ep_mul_into` over :func:`ep_diff`, which the constraint
    build's row order reads.
    """
    n = len(x.comps)
    lx, ly = x.eden, y.eden
    eden = math.lcm(lx, ly)
    den = x.den * y.den * eden
    # X^j is over x.den and d_j Y^i over y.den * ly: raise both parts to den
    sx = eden // ly
    sy = -(eden // lx)
    out = []
    for i in range(n):
        acc = {}
        for f, g, scale in ((x, y, sx), (y, x, sy)):
            if g.comps[i]:
                for j, fj in enumerate(f.comps):
                    if fj:
                        d = g.diff(i, j)
                        if d:
                            _int_mul_into(acc, fj, d, scale)
        terms = {}
        for (exp, mono, pm), v in acc.items():
            pp = terms.get((exp, mono))
            if pp is None:
                terms[(exp, mono)] = {pm: Fraction(v, den)}
            else:
                pp[pm] = Fraction(v, den)
        out.append(terms)
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
    """Reduced row echelon form ``(pivots, rows)`` of an echelon table.

    Rows are fully reduced, in integers, from the last pivot to the
    first: the rows of later pivots are final by then and hold no other
    pivot column, so each elimination only adds free columns.  The
    table is left holding the reduced primitive rows; the returned rows
    are ``Fraction`` rows with pivot entry 1.
    """
    pivots = sorted(table)
    out = []
    for p in reversed(pivots):
        row = table[p]
        later = [c for c in row if c != p and c in table]
        if later:
            for q in later:
                row = _eliminate(row, q, table[q])
            table[p] = row = _primitive(row, row[p])
        lead = row[p]
        out.append({c: Fraction(v, lead) for c, v in row.items()})
    out.reverse()
    return pivots, out


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
            echelon_insert(table, r)
            if len(table) == ncols:
                break
    return back_substitute(table)
