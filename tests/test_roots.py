import numpy as np
import pytest

from softmotion.roots import no_root_between, solve_real_roots


def coeffs_from_roots(roots):
    """Ascending coefficients of prod (x - r)."""
    c = np.array([1.0])
    for r in roots:
        c = np.convolve(c, np.array([-r, 1.0]))
    return list(c)


def test_quadratic():
    assert solve_real_roots([-1.0, 0.0, 1.0]) == pytest.approx([-1.0, 1.0], abs=1e-12)


def test_triple_root_with_complex_pair():
    # (x - 0.2)^3 (x^2 + 1): the only real root is 0.2; a multiple root may
    # come back as a few neighbouring values, distinct and ascending
    c = np.convolve(np.array(coeffs_from_roots([0.2, 0.2, 0.2])),
                    np.array([1.0, 0.0, 1.0]))
    roots = solve_real_roots(list(c))
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
        found = solve_real_roots(coeffs_from_roots(planted))
        assert len(found) == 6
        for want, got in zip(planted, found):
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_cross_check_against_companion_matrix():
    rng = np.random.default_rng(6)
    for _ in range(50):
        c = rng.uniform(-1.0, 1.0, 6)
        c[-1] = c[-1] if abs(c[-1]) > 0.1 else 0.5
        mine = solve_real_roots(list(c))
        ref = np.roots(c[::-1])
        ref_real = sorted(float(z.real) for z in ref
                          if abs(z.imag) < 1e-9 * max(1.0, abs(z.real)))
        assert len(mine) == len(ref_real)
        for a, b in zip(mine, ref_real):
            assert a == pytest.approx(b, rel=1e-8, abs=1e-8)


def test_zero_polynomial_has_no_roots():
    assert solve_real_roots([0.0, 0.0, 0.0]) == []
    assert solve_real_roots([]) == []


def test_constant_and_linear():
    assert solve_real_roots([3.0]) == []
    assert solve_real_roots([3.0, -1.5]) == pytest.approx([2.0], abs=1e-12)


def test_no_root_between_brackets_the_roots():
    # (x - 0.2)(x - 0.5)(x^2 + 1): real roots 0.2 and 0.5 only
    c = coeffs_from_roots([0.2, 0.5])
    c = list(np.convolve(c, [1.0, 0.0, 1.0]))
    assert no_root_between(c, 0.25, 0.45)
    assert no_root_between(c, 0.6, 3.0)
    assert no_root_between(c, -2.0, 0.19)
    assert not no_root_between(c, 0.1, 0.3)
    assert not no_root_between(c, 0.45, 0.55)
    assert not no_root_between(c, 0.0, 1.0)
