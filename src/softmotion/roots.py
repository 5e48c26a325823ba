"""Real roots of low-degree polynomials on a given interval.

Roots are isolated by Descartes' rule (Collins and Akritas): a piece of
[lo, hi] whose mapped polynomial has no sign change holds no root and is
dropped; one with a single sign change and ends of opposite sign holds one
simple root, which a bracketed Newton iteration pins down (a Newton step
kept inside the shrinking bracket, bisection where it would leave it).
Any other piece is split at its midpoint, and where the floats between its
ends run out the midpoint is a (multiple) root, as is an exact zero at an end.
trace compiles list arithmetic into straight-line code once per shape: here
the map behind Descartes' rule, once per degree.  The code gives the list
form's bits: it adds each product pmul skips as zero, a signed zero added to
a sum that starts at +0.0, so is never -0.0 and stays as it is.
"""
from __future__ import annotations

import functools
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


class _Traced:
    """A stand-in float: each +, -, *, /, ** it takes part in goes on the tape."""
    __slots__ = ("tape", "name")

    def __init__(self, tape: dict, name: str) -> None:
        self.tape, self.name = tape, name

    def _record(self, expr: str, *xs) -> _Traced:
        deps = [x.name for x in xs if isinstance(x, _Traced)]
        return _Traced(self.tape, self.tape.setdefault(expr, (f"t{len(self.tape)}", deps))[0])

    def _op(op: str, swap: bool = False):
        def record(self, other):
            a, b = (other, self) if swap else (self, other)
            return self._record(f"{_src(a)} {op} {_src(b)}", a, b)
        return record

    __add__, __radd__, __sub__, __rsub__ = _op("+"), _op("+", True), _op("-"), _op("-", True)
    __mul__, __rmul__, __truediv__, __rtruediv__ = _op("*"), _op("*", True), _op("/"), _op("/", True)
    __pow__, __rpow__ = _op("**"), _op("**", True)

    def __neg__(self) -> _Traced:
        return self._record(f"-{self.name}", self)

    def _branch(self, *_):
        raise TypeError("a traced value cannot decide a branch")

    __bool__ = __lt__ = __le__ = __gt__ = __ge__ = __abs__ = __float__ = _branch


def _src(x) -> str:
    """x in the generated code: a stand-in by its name, a constant in
    parentheses, since (-0.5) ** t is not -0.5 ** t."""
    return x.name if isinstance(x, _Traced) else f"({x!r})"


def trace(fn, nargs: int):
    """fn, a function of nargs floats that returns a list, as straight-line code.

    fn runs once on stand-ins.  Constants fold as plain floats, each other
    operation is recorded once, in order, and those the list needs are
    compiled, so the code returns fn's list bit for bit.  A stand-in in
    bool(), <, >, abs() or float() raises: no branch on a value is baked in.
    == is False for a stand-in, so pmul never skips a traced zero a: it adds
    a * b = +-0 to a sum that starts at +0.0, so is never -0.0 and is left
    unchanged, for b finite.
    """
    tape: dict = {}
    args = [f"x{i}" for i in range(nargs)]
    out = fn(*(_Traced(tape, a) for a in args))
    live, body = {_src(x) for x in out}, []
    for expr, (name, deps) in reversed(tape.items()):
        if name in live:
            live.update(deps)
            body.insert(0, f"    {name} = {expr}\n")
    exec(f"def f({', '.join(args)}):\n{''.join(body)}    return [{', '.join(map(_src, out))}]",
         scope := {})
    return scope["f"]


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


def _descartes_map(*args: float) -> list[float]:
    """(1 + t)^n p((hi + lo t) / (1 + t)) for args = (*p, lo, hi), where
    t > 0 maps onto (lo, hi).  _sign_changes runs it traced, once per degree."""
    *coeffs, lo, hi = args
    q = _taylor_shift(coeffs, lo)
    return _taylor_shift([c * (hi - lo) ** k for k, c in enumerate(q)][::-1], 1.0)


_compiled_map = functools.cache(lambda nargs: trace(_descartes_map, nargs))


def _sign_changes(coeffs: list[float], lo: float, hi: float) -> int:
    """Descartes' bound on the roots in (lo, hi), exact when 0 or 1: the sign
    changes of _descartes_map, the roots there plus an even number."""
    signs = [c > 0.0 for c in _compiled_map(len(coeffs) + 2)(*coeffs, lo, hi) if c != 0.0]
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
