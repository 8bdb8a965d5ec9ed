"""Emission spectrum: shape, normalization, total rate, the oracle's denominator."""

import math

import mpmath
import numpy as np
import pytest

from hawkdeco import (CODATA2018, QuadratureSpec, frequency_pdf, rate_density,
                      total_emission_rate)
from hawkdeco.quadrature import integrate_adaptive
from hawkdeco.spectrum import (BOSE_SEEDS, U_TRUNCATION, bose_integral, bose_spectral_kernel,
                               per_u_rate)

ZETA3 = 1.2020569031595942854
R_S_MOON = 1.0916e-4  # horizon radius of a 7.35e22 kg hole, metres


def u_to_omega(r_s: float, u: float) -> float:
    return u * CODATA2018.c / (4.0 * math.pi * r_s)


def test_rate_density_zero_and_errors():
    assert rate_density(1.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        rate_density(1.0, -1.0)


def test_rate_density_cross_check_at_u1():
    # the omega form 27 R_s^2 w^2/(pi c^2 (e^u - 1)) and the dimensionless
    # form 27 u^2/(16 pi^3 (e^u - 1)) are the same expression
    r_s = 3.7
    omega = u_to_omega(r_s, 1.0)
    direct = 27.0 * r_s ** 2 * omega ** 2 / (math.pi * CODATA2018.c ** 2 * math.expm1(1.0))
    assert rate_density(r_s, omega) == pytest.approx(direct, rel=1e-14)
    assert rate_density(r_s, omega) == pytest.approx(
        27.0 / (16.0 * math.pi ** 3) / (math.e - 1.0), rel=1e-14)


def test_rate_density_collapse_across_radii():
    # at equal u the density is the same number for any hole size
    values = []
    for r_s in (1e-6, 1.0, 1e6):
        values.append(rate_density(r_s, u_to_omega(r_s, 1.5936)))
    assert values[0] == pytest.approx(values[1], rel=1e-12)
    assert values[1] == pytest.approx(values[2], rel=1e-12)


def test_rate_density_scaling_knobs():
    omega = u_to_omega(1.0, 2.0)
    assert rate_density(1.0, omega, species_multiplicity=2) == pytest.approx(
        2.0 * rate_density(1.0, omega), rel=1e-15)


def test_total_emission_rate_closed_form():
    for r_s in (1e-6, R_S_MOON, 1.0, 1e6):
        expected = 27.0 * ZETA3 * CODATA2018.c / (32.0 * math.pi ** 4 * r_s)
        assert total_emission_rate(r_s) == pytest.approx(expected, rel=1e-14)
    assert total_emission_rate(R_S_MOON) == pytest.approx(2.86e10, rel=1e-2)


def test_total_rate_dimensionless_constant():
    dimensionless = total_emission_rate(1.0) / CODATA2018.c  # R_s = 1 m
    assert dimensionless == pytest.approx(27.0 * ZETA3 / (32.0 * math.pi ** 4), rel=1e-14)
    assert dimensionless == pytest.approx(1.0412e-2, rel=1e-4)


def test_total_rate_inverse_radius():
    a = total_emission_rate(1.0)
    b = total_emission_rate(2.0)
    assert b == pytest.approx(a / 2.0, rel=1e-14)


def test_frequency_pdf_normalization():
    top = u_to_omega(1.0, U_TRUNCATION)
    seeds = [u_to_omega(1.0, u) for u in (0.0, 0.5, 2.0, 8.0, 20.0)] + [top]

    def pdf_batch(omega):
        return np.array([frequency_pdf(1.0, float(w)) for w in omega])

    integral, _ = integrate_adaptive(pdf_batch, seeds, QuadratureSpec(rel_tol=1e-10))
    assert integral == pytest.approx(1.0, rel=1e-8)


def test_frequency_pdf_far_past_the_spectrum_is_zero():
    # u ~ 4e292: u^2 overflowed against e^-u = 0, which gave NaN (and an
    # overflow warning, an error in this suite)
    assert rate_density(1.0, 1e300) == 0.0
    assert frequency_pdf(1.0, 1e300) == 0.0


def test_spectral_mode_location():
    # brute-force scan around the stationary point of u^2/(e^u - 1)
    mode = 1.5936242600400403
    grid = np.linspace(mode - 0.2, mode + 0.2, 4001)
    values = bose_spectral_kernel(grid)
    assert abs(grid[int(np.argmax(values))] - mode) < 2e-4
    assert bose_spectral_kernel(mode) > bose_spectral_kernel(mode - 1e-3)
    assert bose_spectral_kernel(mode) > bose_spectral_kernel(mode + 1e-3)


def test_bose_kernel_branches():
    assert bose_spectral_kernel(0.0) == 0.0
    assert bose_spectral_kernel(-2.0) == 0.0
    # small-u behaviour ~ u
    assert bose_spectral_kernel(1e-8) == pytest.approx(1e-8, rel=1e-7)
    # continuity across the overflow-guard switch at u = 37
    assert bose_spectral_kernel(37.0 - 1e-9) == pytest.approx(
        bose_spectral_kernel(37.0 + 1e-9), rel=1e-7)
    arr = bose_spectral_kernel(np.array([-1.0, 0.0, 1.0, 40.0]))
    assert arr.shape == (4,)
    assert arr[0] == 0.0 and arr[1] == 0.0
    assert arr[2] == pytest.approx(1.0 / math.expm1(1.0), rel=1e-14)


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: total_emission_rate(0.0), "r_s", id="total_emission_rate-r_s"),
    pytest.param(lambda: rate_density(0.0, 1.0), "r_s", id="rate_density-r_s"),
    pytest.param(lambda: frequency_pdf(0.0, 1.0), "r_s", id="frequency_pdf-r_s"),
    pytest.param(lambda: total_emission_rate(1.0, species_multiplicity=0), "species_multiplicity",
                 id="total_emission_rate-species_multiplicity"),
    pytest.param(lambda: rate_density(1.0, 1.0, species_multiplicity=0), "species_multiplicity",
                 id="rate_density-species_multiplicity"),
])
def test_spectrum_validation(call, name):
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        call()


def test_per_u_rate_times_full_integral_is_lambda_total():
    for r_s in (1e-6, R_S_MOON, 1e6):
        assert 3 * per_u_rate(r_s) * 2.0 * ZETA3 == pytest.approx(
            total_emission_rate(r_s, species_multiplicity=3), rel=1e-14)


def test_lambda_total_out_of_range_names_r_s():
    # R_s ~ 1.5e-307 m puts Lambda_total past the largest double, and
    # R_s = 1e307 m underflows it to 0 inside the closed form
    for r_s in (1.485232053823733e-307, 1e307):
        with pytest.raises(ValueError, match="r_s="):
            total_emission_rate(r_s)


def test_lambda_total_near_the_overflow_edge():
    # Lambda_total ~ 7e306 s^-1 fits a double here, and so must every
    # intermediate of the closed form
    r_s = 4.455696161471198e-301
    rate = total_emission_rate(r_s)
    assert math.isfinite(rate)
    assert rate == pytest.approx(total_emission_rate(1.0) / r_s, rel=1e-15)


def test_truncation_tail_bounds():
    # what [0, U_TRUNCATION] drops, as a share of the whole integral, for the
    # spectrum (u^2) and for the rate at small separations (u^4), at 30 digits
    with mpmath.workdps(30):
        top = mpmath.mpf(U_TRUNCATION)
        for power, bound in ((2, 2.6e-19), (4, 5.5e-17)):
            def f(u):
                return u ** power / mpmath.expm1(u)
            share = mpmath.quad(f, [top, mpmath.inf]) / mpmath.quad(f, [0, 2, 10, top, mpmath.inf])
            assert share <= bound
            assert share >= bound / 1.3  # the stated bound is close, not loose


TIGHT = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-16)


def test_bose_integral_is_the_direct_quadrature():
    # on the kernel's knees and the truncation, BOSE_SEEDS
    assert BOSE_SEEDS == (0.0, 0.5, 2.0, 8.0, 20.0, U_TRUNCATION)
    for quad in (QuadratureSpec(), TIGHT):
        direct = integrate_adaptive(bose_spectral_kernel, [0.0, 0.5, 2.0, 8.0, 20.0, 50.0], quad)
        assert bose_integral(quad) == direct
    assert bose_integral() == bose_integral(QuadratureSpec())


@pytest.mark.parametrize("quad", [QuadratureSpec(rel_tol=1e-6), QuadratureSpec(rel_tol=1e-8),
                                  QuadratureSpec(), TIGHT], ids=["1e-6", "1e-8", "default", "tight"])
def test_bose_integral_within_its_estimate(quad):
    # 2 zeta(3) less the tail above U_TRUNCATION, sum_n e^(-n U) (U^2/n +
    # 2U/n^2 + 2/n^3), at 30 digits: independent of the oracle's quadrature
    value, err = bose_integral(quad)
    with mpmath.workdps(30):
        top = mpmath.mpf(U_TRUNCATION)
        tail = sum(mpmath.exp(-n * top) * (top ** 2 / n + 2 * top / n ** 2 + 2 / mpmath.mpf(n) ** 3)
                   for n in range(1, 6))
        exact = 2 * mpmath.zeta(3) - tail
    assert abs(value - float(exact)) <= err
    assert float(abs(value - exact) / exact) <= quad.rel_tol


def test_bose_integral_cache_entries_and_bound():
    bose_integral.cache_clear()
    keys = [QuadratureSpec(), QuadratureSpec(rel_tol=1e-11), TIGHT]
    values = [bose_integral(key) for key in keys]
    info = bose_integral.cache_info()
    assert (info.misses, info.currsize) == (3, 3)
    assert [bose_integral(key) for key in keys] == values
    assert bose_integral.cache_info().hits == 3
    maxsize = bose_integral.cache_info().maxsize
    assert maxsize is not None and maxsize <= 64
    for rel_tol in np.geomspace(1e-10, 1e-6, 3 * maxsize).tolist():
        bose_integral(QuadratureSpec(rel_tol=rel_tol))
    assert bose_integral.cache_info().currsize == maxsize
