# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled term-map kernels: same contract as ``lvf._kernels_py``.

Coefficients stay exact (``fractions.Fraction`` objects); the speedup
comes from C-level loops and dict plumbing, not from changing the
arithmetic.  Keep this file behaviourally identical to the pure twin.
"""

from fractions import Fraction
from math import gcd


def pp_add(dict a, dict b):
    """Sum of two parameter polynomials."""
    cdef dict out
    cdef object k, v, s
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


def pp_scale(dict a, object c):
    """Parameter polynomial times a rational."""
    cdef dict out = {}
    cdef object k, v
    if not c:
        return out
    for k, v in a.items():
        out[k] = v * c
    return out


def pmono_mul(tuple p, tuple q):
    """Merge two sorted parameter monomials."""
    cdef dict merged
    cdef object name, e
    if not p:
        return q
    if not q:
        return p
    merged = dict(p)
    for name, e in q:
        if name in merged:
            merged[name] = merged[name] + e
        else:
            merged[name] = e
    return tuple(sorted(merged.items()))


def pp_mul(dict a, dict b):
    """Product of two parameter polynomials."""
    cdef dict out = {}
    cdef object ka, va, kb, vb, k, s
    if not a or not b:
        return out
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


def exp_add(tuple e1, tuple e2):
    """Sum of two integer-encoded exponent vectors."""
    cdef object d1 = e1[0]
    cdef object d2 = e2[0]
    cdef Py_ssize_t i, k
    cdef list nums
    cdef object g0, den, m1, m2, g, n
    k = len(e1) - 1
    if d1 == 1 and d2 == 1:
        nums = []
        for i in range(k):
            nums.append(e1[i + 1] + e2[i + 1])
        return (1, *nums)
    g0 = gcd(d1, d2)
    den = d1 // g0 * d2
    m1 = den // d1
    m2 = den // d2
    nums = []
    for i in range(k):
        nums.append(e1[i + 1] * m1 + e2[i + 1] * m2)
    g = den
    for n in nums:
        g = gcd(g, n)
        if g == 1:
            return (den, *nums)
    if g > 1:
        den //= g
        for i in range(k):
            nums[i] //= g
    return (den, *nums)


def ep_add(dict f, dict g):
    """Sum of two term maps."""
    cdef dict out = {}
    cdef object k, pp, cur
    if not f:
        for k, pp in g.items():
            out[k] = dict(pp)
        return out
    for k, pp in f.items():
        out[k] = dict(pp)
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


def ep_scale(dict f, object c):
    """Term map times a rational."""
    cdef dict out = {}
    cdef dict inner
    cdef object k, pp, pk, pv
    if not c:
        return out
    for k, pp in f.items():
        inner = {}
        for pk, pv in (<dict>pp).items():
            inner[pk] = pv * c
        out[k] = inner
    return out


def ep_mul(dict f, dict g):
    """Product of two term maps (exponents add, monomials add)."""
    cdef dict out = {}
    cdef object kf, kg, ppf, ppg, cur
    cdef tuple ef, mf, eg, mg, key
    cdef Py_ssize_t i, n
    if not f or not g:
        return out
    for kf, ppf in f.items():
        ef = <tuple>(<tuple>kf)[0]
        mf = <tuple>(<tuple>kf)[1]
        for kg, ppg in g.items():
            eg = <tuple>(<tuple>kg)[0]
            mg = <tuple>(<tuple>kg)[1]
            n = len(mf)
            m_new = []
            for i in range(n):
                m_new.append(mf[i] + mg[i])
            key = (exp_add(ef, eg), tuple(m_new))
            pp = pp_mul(<dict>ppf, <dict>ppg)
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


def ep_diff(dict f, Py_ssize_t i):
    """Partial derivative of a term map along coordinate ``i``."""
    cdef dict out = {}
    cdef object k, pp, q, cur, key
    cdef tuple exp, mono
    cdef object m
    for k, pp in f.items():
        exp = <tuple>(<tuple>k)[0]
        mono = <tuple>(<tuple>k)[1]
        m = mono[i]
        if m:
            key = (exp, mono[:i] + (m - 1,) + mono[i + 1:])
            scaled = pp_scale(<dict>pp, Fraction(m))
            cur = out.get(key)
            if cur is None:
                out[key] = scaled
            else:
                cur = pp_add(cur, scaled)
                if cur:
                    out[key] = cur
                else:
                    del out[key]
        q = exp[1 + i]
        if q:
            scaled = pp_scale(<dict>pp, Fraction(q, exp[0]))
            cur = out.get(k)
            if cur is None:
                out[k] = scaled
            else:
                cur = pp_add(cur, scaled)
                if cur:
                    out[k] = cur
                else:
                    del out[k]
    return out
