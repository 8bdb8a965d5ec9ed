"""Special functions: integer zeta, complex trigamma, sinc."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hawkdeco import sinc, special, trigamma_complex, verification, zeta_int
from hawkdeco.special import one_minus_sinc, zeta_series
from hawkdeco.verification import (FAIL, PASS, check_trigamma_large_y, check_trigamma_small_y,
                                   check_trigamma_vs_series)

# Directly-summed reference values (series with Euler-Maclaurin tail,
# checked against the published decimal expansions).
ZETA3 = 1.2020569031595942854
ZETA9 = 1.0020083928260822144
IM_TRIGAMMA_1_PLUS_I = -0.7942335427593189


def test_zeta_table_values():
    assert zeta_int(2) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-15)
    assert zeta_int(3) == pytest.approx(ZETA3, rel=1e-13)
    assert zeta_int(9) == pytest.approx(ZETA9, rel=1e-13)
    assert zeta_int(3) == pytest.approx(1.2020569032, rel=1e-10)
    assert zeta_int(9) == pytest.approx(1.0020083928, rel=1e-10)


def test_zeta_table_vs_series():
    for n in (2, 3, 5, 7, 9):
        assert zeta_int(n) == pytest.approx(zeta_series(n), rel=1e-12)


def test_zeta_series_untabled():
    # falls back to the series; zeta(n) -> 1 quickly
    assert zeta_int(4) == pytest.approx(math.pi ** 4 / 90.0, rel=1e-12)
    assert zeta_int(40) == pytest.approx(1.0, rel=1e-11)


def test_zeta_domain_errors():
    with pytest.raises(ValueError):
        zeta_int(1)
    with pytest.raises(ValueError):
        zeta_series(0)
    with pytest.raises(ValueError, match="^n must be an integer"):
        zeta_int(3.0)
    with pytest.raises(ValueError):
        zeta_series(5, terms=3)
    assert zeta_int(np.int64(3)) == zeta_int(3)


def test_trigamma_at_one():
    assert abs(trigamma_complex(1.0) - math.pi ** 2 / 6.0) < 1e-12


def test_trigamma_half_integer():
    # psi1(1/2) = pi^2/2, and the recurrence carries it to -1/2
    assert trigamma_complex(0.5).real == pytest.approx(math.pi ** 2 / 2.0, rel=1e-12)
    assert trigamma_complex(-0.5).real == pytest.approx(
        math.pi ** 2 / 2.0 + 4.0, rel=1e-12)


def test_trigamma_known_imag():
    assert trigamma_complex(1.0 + 1.0j).imag == pytest.approx(
        IM_TRIGAMMA_1_PLUS_I, rel=1e-10)
    assert trigamma_complex(1.0 + 1.0j).imag == pytest.approx(-0.795, abs=1e-3)


def test_trigamma_poles_and_bad_args():
    for z in (0.0, -1.0, -2.0, -17.0):
        with pytest.raises(ValueError):
            trigamma_complex(z)
    with pytest.raises(ValueError):
        trigamma_complex(complex(math.inf, 0.0))
    with pytest.raises(ValueError):
        trigamma_complex(complex(0.0, math.nan))


@given(st.floats(0.5, 20.0), st.floats(-50.0, 50.0))
def test_trigamma_recurrence(re, im):
    z = complex(re, im)
    lhs = trigamma_complex(z) - trigamma_complex(z + 1.0)
    rhs = 1.0 / (z * z)
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


@given(st.floats(0.5, 20.0), st.floats(0.0, 50.0))
def test_trigamma_conjugation(re, im):
    z = complex(re, im)
    assert trigamma_complex(z.conjugate()) == trigamma_complex(z).conjugate()


def test_trigamma_asymptotic_regime():
    # far from the recurrence region, against the leading expansion terms
    z = 100.0
    expected = 1.0 / z + 1.0 / (2.0 * z * z) + 1.0 / (6.0 * z ** 3)
    assert trigamma_complex(z).real == pytest.approx(expected, rel=1e-9)


def test_sinc_values():
    assert sinc(0.0) == 1.0
    assert abs(sinc(math.pi)) < 1e-15
    assert sinc(1.0) == pytest.approx(0.8414709848, rel=1e-10)
    assert sinc(1.0) == pytest.approx(math.sin(1.0), rel=1e-15)


def test_sinc_series_branch_continuity():
    below, above = 0.99e-4, 1.01e-4
    assert sinc(below) == pytest.approx(math.sin(below) / below, rel=1e-13)
    assert sinc(above) == pytest.approx(1.0 - above ** 2 / 6.0, rel=1e-12)


@given(st.floats(-1e6, 1e6, allow_nan=False))
def test_sinc_even_and_bounded(x):
    assert sinc(x) == sinc(-x)
    assert abs(sinc(x)) <= 1.0 + 1e-15


def test_sinc_array_matches_scalar():
    xs = np.array([0.0, 1e-6, 0.5, math.pi, 40.0])
    batch = sinc(xs)
    assert batch.shape == xs.shape
    for x, v in zip(xs, batch):
        assert v == sinc(float(x))
    assert isinstance(sinc(0.5), float)


def test_one_minus_sinc_matches_direct():
    for x in (0.2, 0.5, 2.0, 10.0):
        assert one_minus_sinc(x) == pytest.approx(1.0 - sinc(x), rel=1e-12)


def test_one_minus_sinc_small_argument():
    # direct subtraction would return garbage here; the series keeps
    # full relative accuracy
    x = 1e-6
    assert one_minus_sinc(x) == pytest.approx(x * x / 6.0, rel=1e-9)
    assert one_minus_sinc(x) > 0.0
    assert one_minus_sinc(0.0) == 0.0


def test_one_minus_sinc_branch_continuity():
    below, above = 0.1249, 0.1251
    direct = lambda x: 1.0 - math.sin(x) / x
    assert one_minus_sinc(below) == pytest.approx(direct(below), rel=1e-12)
    assert one_minus_sinc(above) == pytest.approx(direct(above), rel=1e-12)


def shift_threshold_deviation() -> float:
    # trigamma_complex at |z| = SHIFT_THRESHOLD against ten recurrence steps
    # into a deeper (more accurate) asymptotic region, worst relative
    def deviation(z):
        deep = sum(1.0 / ((z + k) * (z + k)) for k in range(10)) + trigamma_complex(z + 10.0)
        return abs(trigamma_complex(z) - deep) / abs(deep)

    return max(deviation(special.SHIFT_THRESHOLD * direction)
               for direction in (1.0 + 0.0j, 0.6 + 0.8j, 0.0 + 1.0j))


def test_shift_threshold_check():
    assert shift_threshold_deviation() <= 1e-12
    with pytest.MonkeyPatch.context() as mp:
        # the Bernoulli tail is far from converged at |z| = 3
        mp.setattr(special, "SHIFT_THRESHOLD", 3.0)
        assert shift_threshold_deviation() > 1e-12


def test_limit_checks_cover_the_overlap_routine(monkeypatch):
    assert check_trigamma_small_y().status == PASS
    assert check_trigamma_large_y().status == PASS
    # a 1e-12 relative error in the saturated regime alone must fail the large-y row
    exact = verification._trigamma_im_over_y
    monkeypatch.setattr(verification, "_trigamma_im_over_y",
                        lambda y: exact(y) * (1.0 + 1e-12) if y > 1e3 else exact(y))
    assert check_trigamma_large_y().status == FAIL
    assert check_trigamma_small_y().status == PASS


def test_small_y_check_detects_a_wrong_normalization(monkeypatch):
    # a 1e-14 relative error at y = 0 alone must fail only the small-y row
    exact = verification._trigamma_im_over_y
    monkeypatch.setattr(verification, "_trigamma_im_over_y",
                        lambda y: exact(y) * (1.0 + 1e-14) if y == 0.0 else exact(y))
    assert check_trigamma_small_y().status == FAIL
    assert check_trigamma_large_y().status == PASS
    assert check_trigamma_vs_series().status == PASS


def test_series_check_covers_the_overlap_routine(monkeypatch):
    result = check_trigamma_vs_series()
    assert result.status == PASS and "-Im psi1(1+iy)/y" in result.detail
    # a 1e-8 relative error in the routine the rates run must fail the check
    exact = verification._trigamma_im_over_y
    monkeypatch.setattr(verification, "_trigamma_im_over_y", lambda y: exact(y) * (1.0 + 1e-8))
    assert check_trigamma_vs_series().status == FAIL
