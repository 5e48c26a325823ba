"""Real roots of low-degree polynomials on a given interval.

Roots are isolated by Descartes' rule (Collins and Akritas): a piece of
[lo, hi] whose mapped polynomial has no sign change holds no root and is
dropped; one with a single sign change and ends of opposite sign holds one
simple root, which a bracketed Newton iteration pins down (a Newton step
kept inside the shrinking bracket, bisection where it would leave it).
Any other piece is split at its midpoint, and where the floats between its
ends run out the midpoint is a (multiple) root, as is an exact zero at an end.
"""
from __future__ import annotations

import math

_NEWTON_ITER = 100       # evaluations per bracketed root, at most
_NEWTON_ULPS = 2.0       # a Newton step this many ulps long ends the search


# Polynomials as plain coefficient lists, ascending degree.

def padd(p: list[float], q: list[float]) -> list[float]:
    """Sum of two polynomials."""
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return out


def pmul(p: list[float], q: list[float]) -> list[float]:
    """Product of two polynomials."""
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0.0:
            continue
        for k, b in enumerate(q):
            out[i + k] += a * b
    return out


def pscale(p: list[float], c: float) -> list[float]:
    """Polynomial times a scalar."""
    return [c * x for x in p]


def peval(p: list[float], x: float) -> float:
    """Value of the polynomial at x (Horner)."""
    acc = 0.0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _bracketed_newton(coeffs: list[float], deriv: list[float], lo: float,
                      hi: float, flo: float) -> float:
    """The one root between lo and hi, where coeffs changes sign.

    Newton steps start from the middle.  Every evaluation shrinks the
    bracket to the side of the sign change; a step that would leave the
    bracket, or is not at most half the step before it, bisects instead.
    """
    x, last = 0.5 * (lo + hi), hi - lo
    for _ in range(_NEWTON_ITER):
        f = peval(coeffs, x)
        if f == 0.0:
            return x
        if (f < 0.0) == (flo < 0.0):
            lo = x
        else:
            hi = x
        df = peval(deriv, x)
        step = f / df if df != 0.0 else math.inf
        if abs(step) <= _NEWTON_ULPS * math.ulp(x):
            return x - step
        nxt = x - step
        if not (lo < nxt < hi and 2.0 * abs(step) <= last):
            nxt = 0.5 * (lo + hi)
            if nxt == lo or nxt == hi:
                return x
        last = abs(nxt - x)
        x = nxt
    return x


def _taylor_shift(coeffs: list[float], s: float) -> list[float]:
    """Coefficients of p(x + s)."""
    c = list(coeffs)
    for i in range(len(c) - 1):
        for k in range(len(c) - 2, i - 1, -1):
            c[k] += s * c[k + 1]
    return c


def _sign_changes(coeffs: list[float], lo: float, hi: float) -> int:
    """Descartes' bound on the roots in (lo, hi), exact when 0 or 1.

    The sign changes of (1 + t)^n p((hi + lo t) / (1 + t)), where t > 0
    maps onto (lo, hi): the roots there, plus an even number.
    """
    q = _taylor_shift(coeffs, lo)
    q = _taylor_shift([c * (hi - lo) ** k for k, c in enumerate(q)][::-1], 1.0)
    signs = [c > 0.0 for c in q if c != 0.0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def solve_real_roots(coeffs, lo: float, hi: float) -> list[float]:
    """Distinct real roots in [lo, hi] as ascending floats.

    ``coeffs[k]`` multiplies x**k.  A simple root is refined until its
    Newton step is at most _NEWTON_ULPS ulps; a multiple root may come back
    as a few neighbouring values.  A constant, the zero polynomial
    included, has no roots to report, and neither has an interval with
    lo > hi: both return [].
    """
    coeffs = [float(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0.0:
        coeffs.pop()
    if len(coeffs) <= 1 or not lo <= hi:
        return []
    deriv = [k * c for k, c in enumerate(coeffs)][1:]
    roots = set()
    pieces = [(lo, hi, peval(coeffs, lo), peval(coeffs, hi))]
    while pieces:
        a, b, fa, fb = pieces.pop()
        roots.update(x for x, f in ((a, fa), (b, fb)) if f == 0.0)
        n, mid = _sign_changes(coeffs, a, b), 0.5 * (a + b)
        if n <= 1 and min(fa, fb) < 0.0 < max(fa, fb):
            roots.add(_bracketed_newton(coeffs, deriv, a, b, fa))
        elif n and mid in (a, b):          # the floats between a and b ran out
            roots.add(mid)
        elif n:
            f_mid = peval(coeffs, mid)
            pieces += [(a, mid, fa, f_mid), (mid, b, f_mid, fb)]
    return sorted(roots)
