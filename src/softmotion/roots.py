"""Real-root extraction for low-degree polynomials.

Roots are isolated by recursing on the derivative: between consecutive
critical points a polynomial is monotone, so a sign change brackets exactly
one root, which a bracketed Newton iteration then pins down (a Newton step
kept inside the shrinking bracket, bisection where it would leave it).
Critical points where the polynomial itself (nearly) vanishes are multiple
roots.  ``solve_real_roots`` returns the distinct real roots in ascending
order; a multiple root may come back as a few neighbouring values, and the
all-zero polynomial returns [].
"""
from __future__ import annotations

import math

_TRIM_TOL = 1e-12        # leading coefficients below this share of the largest are zero
_MULTIPLE_TOL = 1e-11    # |p| at a critical point, relative to the knots, of a multiple root
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


def _derivative(coeffs: list[float]) -> list[float]:
    return [k * c for k, c in enumerate(coeffs)][1:]


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


def no_root_between(coeffs, lo: float, hi: float) -> bool:
    """True when Descartes' rule of signs rules out a root in (lo, hi).

    The map x = (hi + lo t) / (1 + t) takes t > 0 onto (lo, hi); the
    polynomial in t has as many positive roots as sign changes of its
    coefficients, less an even number.  False means a root may lie there.
    """
    q = _taylor_shift(coeffs, lo)
    q = _taylor_shift([c * (hi - lo) ** k for k, c in enumerate(q)][::-1], 1.0)
    signs = [c > 0.0 for c in q if c != 0.0]
    return all(sg == signs[0] for sg in signs)


def solve_real_roots(coeffs) -> list[float]:
    """Distinct real roots as ascending floats; coefficients ascending in degree.

    ``coeffs[k]`` multiplies x**k.  A simple root is refined until its
    Newton step is at most _NEWTON_ULPS ulps; a multiple root may come back
    as a few neighbouring values.  The all-zero polynomial has no roots to
    report and returns [].
    """
    coeffs = [float(c) for c in coeffs]
    scale = max((abs(c) for c in coeffs), default=0.0)
    # leading coefficients below rounding noise are structural zeros; keeping
    # them would blow the root bound up by their reciprocal
    while coeffs and abs(coeffs[-1]) <= _TRIM_TOL * scale:
        coeffs.pop()
    if len(coeffs) <= 1:
        return []
    if len(coeffs) == 2:
        return [-coeffs[0] / coeffs[1]]

    bound = 1.0 + max(abs(c / coeffs[-1]) for c in coeffs[:-1])   # Cauchy
    deriv = _derivative(coeffs)
    crit = solve_real_roots(deriv)
    knots = [-bound] + [c for c in crit if -bound < c < bound] + [bound]

    # a critical point sitting (numerically) on the axis is a multiple root;
    # its value was already polished at a deeper derivative level where the
    # root is simple
    values = [peval(coeffs, k) for k in knots]
    local = max(abs(f) for f in values)
    roots = [c for c in crit
             if abs(peval(coeffs, c)) <= _MULTIPLE_TOL * local]
    for lo, hi, flo, fhi in zip(knots, knots[1:], values, values[1:]):
        if flo == 0.0:
            roots.append(lo)
        elif (flo < 0.0) != (fhi < 0.0):
            roots.append(_bracketed_newton(coeffs, deriv, lo, hi, flo))
    if values[-1] == 0.0:
        roots.append(knots[-1])
    return sorted(set(roots))
