import struct

import numpy as np
import pytest

from softmotion import roots
from softmotion.roots import solve_real_roots


def coeffs_from_roots(roots):
    """Ascending coefficients of prod (x - r)."""
    c = np.array([1.0])
    for r in roots:
        c = np.convolve(c, np.array([-r, 1.0]))
    return list(c)


def test_quadratic():
    assert solve_real_roots([-1.0, 0.0, 1.0], -2.0, 2.0) == pytest.approx(
        [-1.0, 1.0], abs=1e-12)
    assert solve_real_roots([-1.0, 0.0, 1.0], 0.0, 2.0) == pytest.approx([1.0], abs=1e-12)


def test_triple_root_with_complex_pair():
    # (x - 0.2)^3 (x^2 + 1): the only real root is 0.2; a multiple root may
    # come back as a few neighbouring values, distinct and ascending
    c = np.convolve(np.array(coeffs_from_roots([0.2, 0.2, 0.2])),
                    np.array([1.0, 0.0, 1.0]))
    for lo, hi in ((-3.0, 3.0), (0.0, 1.0), (0.15, 0.25)):
        roots = solve_real_roots(list(c), lo, hi)
        assert roots
        assert all(abs(r - 0.2) <= 1e-5 for r in roots)
        assert all(lo < hi for lo, hi in zip(roots, roots[1:]))


def test_planted_degree_six_roots_recovered():
    rng = np.random.default_rng(5)
    for _ in range(100):
        planted = sorted(rng.uniform(-2.0, 2.0, 6))
        # keep roots separated so conditioning stays sane
        if min(np.diff(planted)) < 1e-2:
            continue
        found = solve_real_roots(coeffs_from_roots(planted), -3.0, 3.0)
        assert len(found) == 6
        for want, got in zip(planted, found):
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)
        # on an interval, exactly the planted roots inside it
        lo, hi = sorted(rng.uniform(-2.5, 2.5, 2))
        inside = [r for r in planted if lo <= r <= hi]
        if min(abs(r - e) for r in planted for e in (lo, hi)) < 1e-9:
            continue
        found = solve_real_roots(coeffs_from_roots(planted), lo, hi)
        assert found == pytest.approx(inside, rel=1e-10, abs=1e-10)


def test_cross_check_against_companion_matrix():
    rng = np.random.default_rng(6)
    for _ in range(50):
        c = rng.uniform(-1.0, 1.0, 6)
        c[-1] = c[-1] if abs(c[-1]) > 0.1 else 0.5
        ref = np.roots(c[::-1])
        ref_real = sorted(float(z.real) for z in ref
                          if abs(z.imag) < 1e-9 * max(1.0, abs(z.real)))
        # every real root lies within the Cauchy bound
        bound = 1.0 + max(abs(c[:-1] / c[-1]))
        mine = solve_real_roots(list(c), -bound, bound)
        assert len(mine) == len(ref_real)
        for a, b in zip(mine, ref_real):
            assert a == pytest.approx(b, rel=1e-8, abs=1e-8)
        lo, hi = sorted(rng.uniform(-bound, bound, 2))
        want = [r for r in ref_real if lo + 1e-6 < r < hi - 1e-6]
        got = [r for r in solve_real_roots(list(c), lo, hi)
               if lo + 1e-6 < r < hi - 1e-6]
        assert got == pytest.approx(want, rel=1e-8, abs=1e-8)


def test_zero_polynomial_has_no_roots():
    assert solve_real_roots([0.0, 0.0, 0.0], -1.0, 1.0) == []
    assert solve_real_roots([], -1.0, 1.0) == []


def test_constant_and_linear():
    assert solve_real_roots([3.0], -10.0, 10.0) == []
    assert solve_real_roots([3.0, -1.5], -10.0, 10.0) == pytest.approx([2.0], abs=1e-12)
    assert solve_real_roots([3.0, -1.5], 2.5, 10.0) == []
    # an exact zero leading coefficient lowers the degree
    assert solve_real_roots([3.0, -1.5, 0.0], 0.0, 10.0) == pytest.approx([2.0], abs=1e-12)


def test_root_free_intervals_return_nothing():
    # (x - 0.2)(x - 0.5)(x^2 + 1): real roots 0.2 and 0.5 only
    c = coeffs_from_roots([0.2, 0.5])
    c = list(np.convolve(c, [1.0, 0.0, 1.0]))
    assert solve_real_roots(c, 0.25, 0.45) == []
    assert solve_real_roots(c, 0.6, 3.0) == []
    assert solve_real_roots(c, -2.0, 0.19) == []
    assert solve_real_roots(c, 0.1, 0.3) == pytest.approx([0.2], abs=1e-12)
    assert solve_real_roots(c, 0.45, 0.55) == pytest.approx([0.5], abs=1e-12)
    assert solve_real_roots(c, 0.0, 1.0) == pytest.approx([0.2, 0.5], abs=1e-12)
    assert solve_real_roots(c, 1.0, 0.0) == []          # an empty interval


def test_roots_at_the_interval_ends_come_back():
    # a simple root at either end, and a triple root at an end
    c = coeffs_from_roots([0.5, -1.0])
    assert solve_real_roots(c, 0.5, 2.0) == [0.5]
    assert solve_real_roots(c, -3.0, -1.0) == [-1.0]
    assert solve_real_roots(c, -1.0, 0.5) == [-1.0, 0.5]
    triple = coeffs_from_roots([0.5, 0.5, 0.5, -2.0])
    for lo, hi in ((0.5, 1.0), (-1.0, 0.5)):
        roots = solve_real_roots(triple, lo, hi)
        assert roots and all(abs(r - 0.5) <= 1e-5 for r in roots)


def test_complex_pair_just_off_the_axis_returns():
    # x^2 + 1e-24 has the pair +-1e-12 i; shifted to 0.3, float coefficients
    # cannot tell it from a double root, which may come back
    assert solve_real_roots([1e-24, 0.0, 1.0], -1.0, 1.0) == []
    c = [0.09 + 1e-24, -0.6, 1.0]
    for lo, hi in ((0.0, 1.0), (0.3, 1.0), (-1.0, 0.3)):
        roots = solve_real_roots(c, lo, hi)
        assert all(abs(r - 0.3) <= 1e-6 for r in roots)
    # the pair times a simple root: that root still comes back alone
    c = list(np.convolve(c, [-0.7, 1.0]))
    roots = solve_real_roots(c, 0.5, 1.0)
    assert roots == pytest.approx([0.7], abs=1e-12)


def _bits(values):
    return [struct.pack("<d", v) for v in values]


def test_compiled_descartes_map_matches_the_list_path_bit_for_bit():
    # per degree 1-6 (the templates pass 2-4, the stretching cells 2, 4 and
    # 6): the compiled map against the list Taylor shifts, signed zeros
    # included, over coefficients spread across 20 decades, some +-0.0
    rng = np.random.default_rng(47)
    for n in range(3000):
        deg = 1 + n % 6
        c = list(rng.normal(size=deg + 1) * 10.0 ** rng.uniform(-10.0, 10.0, deg + 1))
        if n % 3 == 0:
            c[rng.integers(deg + 1)] = rng.choice([0.0, -0.0])
        lo, hi = sorted(rng.normal(size=2) * 10.0 ** rng.uniform(-3.0, 3.0))
        if n % 5 == 0:
            lo = rng.choice([0.0, -0.0])
        assert (_bits(roots._compiled_map(deg + 3)(*c, lo, hi))
                == _bits(roots._descartes_map(*c, lo, hi))), (c, lo, hi)


def test_a_traced_branch_raises_at_trace_time():
    # a stand-in never decides a branch: bool(), <, >, abs() and float()
    # raise, so no value-dependent path is compiled in silently
    for fn in (lambda x: [x if x else 0.0], lambda x: [max(x, 0.0)],
               lambda x: [min(x, 1.0)], lambda x: [abs(x)], lambda x: [float(x)],
               lambda x: [x * 2.0 if x > 0.0 else x]):
        with pytest.raises(TypeError, match="cannot decide a branch"):
            roots.trace(fn, 1)
    # signed zeros come through (x + 0.0 is not folded to x), a folded
    # constant is returned as is, and a negative constant base keeps its
    # parentheses: (-0.5) ** 2 = 0.25
    f = roots.trace(lambda x, y: [-x / y + 0.5, (-0.5) ** y, x * y, x + 0.0, 1.0 - 3.0], 2)
    assert _bits(f(-0.0, 2.0)) == _bits([0.5, 0.25, -0.0, 0.0, -2.0])
    assert _bits(f(0.0, 2.0)) == _bits([0.5, 0.25, 0.0, 0.0, -2.0])
