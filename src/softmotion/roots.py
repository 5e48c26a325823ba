"""Real-root extraction for low-degree polynomials.

Roots are isolated by recursing on the derivative: between consecutive
critical points a polynomial is monotone, so a sign change brackets exactly
one root, which bisection then pins down and Newton polishing sharpens.
Critical points where the polynomial itself (nearly) vanishes are multiple
roots.  ``solve_real_roots`` returns the distinct real roots in ascending
order; a multiple root may come back as a few neighbouring values, and the
all-zero polynomial returns [].
"""
from __future__ import annotations

import math


# Polynomials as plain coefficient lists, ascending degree.

def padd(p: list[float], q: list[float]) -> list[float]:
    """Sum of two polynomials."""
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0.0) + (q[i] if i < len(q) else 0.0)
            for i in range(n)]


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


def _poly_eval(coeffs: list[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _derivative(coeffs: list[float]) -> list[float]:
    return [k * c for k, c in enumerate(coeffs)][1:]


def _bisect_root(coeffs: list[float], lo: float, hi: float) -> float:
    flo = _poly_eval(coeffs, lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = _poly_eval(coeffs, mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _newton_polish(coeffs: list[float], x: float, lo: float, hi: float) -> float:
    deriv = _derivative(coeffs)
    for _ in range(8):
        f = _poly_eval(coeffs, x)
        df = _poly_eval(deriv, x)
        if df == 0.0:
            break
        step = f / df
        x_new = x - step
        if not (lo <= x_new <= hi) or not math.isfinite(x_new):
            break
        if x_new == x:
            break
        x = x_new
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

    ``coeffs[k]`` multiplies x**k.  Simple roots are polished to ~1e-10
    relative; a multiple root may come back as a few neighbouring values.
    The all-zero polynomial has no roots to report and returns [].
    """
    coeffs = [float(c) for c in coeffs]
    scale = max((abs(c) for c in coeffs), default=0.0)
    # leading coefficients below rounding noise are structural zeros; keeping
    # them would blow the root bound up by their reciprocal
    while coeffs and abs(coeffs[-1]) <= 1e-12 * scale:
        coeffs.pop()
    if len(coeffs) <= 1:
        return []
    if len(coeffs) == 2:
        return [-coeffs[0] / coeffs[1]]

    bound = 1.0 + max(abs(c / coeffs[-1]) for c in coeffs[:-1])   # Cauchy
    crit = solve_real_roots(_derivative(coeffs))
    knots = [-bound] + [c for c in crit if -bound < c < bound] + [bound]

    # a critical point sitting (numerically) on the axis is a multiple root;
    # its value was already polished at a deeper derivative level where the
    # root is simple
    local = max(abs(_poly_eval(coeffs, k)) for k in knots)
    roots = [c for c in crit
             if abs(_poly_eval(coeffs, c)) <= 1e-11 * max(local, 1e-30)]
    for lo, hi in zip(knots[:-1], knots[1:]):
        flo, fhi = _poly_eval(coeffs, lo), _poly_eval(coeffs, hi)
        if flo == 0.0:
            roots.append(lo)
        elif (flo < 0.0) != (fhi < 0.0):
            r = _bisect_root(coeffs, lo, hi)
            roots.append(_newton_polish(coeffs, r, lo, hi))
    if _poly_eval(coeffs, knots[-1]) == 0.0:
        roots.append(knots[-1])
    return sorted(set(roots))
