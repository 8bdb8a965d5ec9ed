"""Emission spectrum: shape, normalization, total rate, cutoff path."""

import math

import numpy as np
import pytest

from hawkdeco import EmissionSpectrum, QuadratureSpec, frequency_pdf, rate_density, total_emission_rate
from hawkdeco.quadrature import integrate_adaptive
from hawkdeco.spectrum import U_TRUNCATION, bose_seed_points, bose_spectral_kernel

ZETA3 = 1.2020569031595942854
R_S_MOON = 1.0916e-4  # horizon radius of a 7.35e22 kg hole, metres


def u_to_omega(spectrum: EmissionSpectrum, u: float) -> float:
    return u * spectrum.constants.c / (4.0 * math.pi * spectrum.r_s)


def test_rate_density_zero_and_errors():
    spec = EmissionSpectrum(r_s=1.0)
    assert rate_density(spec, 0.0) == 0.0
    with pytest.raises(ValueError):
        rate_density(spec, -1.0)


def test_rate_density_cross_check_at_u1():
    # the omega form 27 R_s^2 w^2/(pi c^2 (e^u - 1)) and the dimensionless
    # form 27 u^2/(16 pi^3 (e^u - 1)) are the same expression
    spec = EmissionSpectrum(r_s=3.7)
    omega = u_to_omega(spec, 1.0)
    direct = 27.0 * spec.r_s ** 2 * omega ** 2 / (
        math.pi * spec.constants.c ** 2 * math.expm1(1.0))
    assert rate_density(spec, omega) == pytest.approx(direct, rel=1e-14)
    assert rate_density(spec, omega) == pytest.approx(
        27.0 / (16.0 * math.pi ** 3) / (math.e - 1.0), rel=1e-14)


def test_rate_density_collapse_across_radii():
    # at equal u the density is the same number for any hole size
    values = []
    for r_s in (1e-6, 1.0, 1e6):
        spec = EmissionSpectrum(r_s=r_s)
        values.append(rate_density(spec, u_to_omega(spec, 1.5936)))
    assert values[0] == pytest.approx(values[1], rel=1e-12)
    assert values[1] == pytest.approx(values[2], rel=1e-12)


def test_rate_density_scaling_knobs():
    spec1 = EmissionSpectrum(r_s=1.0)
    spec2 = EmissionSpectrum(r_s=1.0, species_multiplicity=2)
    half = EmissionSpectrum(r_s=1.0, polarizations=1)
    omega = u_to_omega(spec1, 2.0)
    assert rate_density(spec2, omega) == pytest.approx(2.0 * rate_density(spec1, omega), rel=1e-15)
    assert rate_density(half, omega) == pytest.approx(0.5 * rate_density(spec1, omega), rel=1e-15)


def test_rate_density_below_cutoff():
    spec = EmissionSpectrum(r_s=1.0, omega_min=1e6)
    assert rate_density(spec, 0.5e6) == 0.0
    assert rate_density(spec, 2e6) > 0.0
    assert spec.u_min == pytest.approx(4.0 * math.pi * 1e6 / spec.constants.c, rel=1e-15)


def test_total_emission_rate_closed_form():
    for r_s in (1e-6, R_S_MOON, 1.0, 1e6):
        spec = EmissionSpectrum(r_s=r_s)
        expected = 27.0 * ZETA3 * spec.constants.c / (32.0 * math.pi ** 4 * r_s)
        assert total_emission_rate(spec) == pytest.approx(expected, rel=1e-14)
    assert total_emission_rate(EmissionSpectrum(r_s=R_S_MOON)) == pytest.approx(2.86e10, rel=1e-2)


def test_total_rate_dimensionless_constant():
    spec = EmissionSpectrum(r_s=1.0)
    dimensionless = total_emission_rate(spec) * spec.r_s / spec.constants.c
    assert dimensionless == pytest.approx(27.0 * ZETA3 / (32.0 * math.pi ** 4), rel=1e-14)
    assert dimensionless == pytest.approx(1.0412e-2, rel=1e-4)


def test_total_rate_inverse_radius():
    a = total_emission_rate(EmissionSpectrum(r_s=1.0))
    b = total_emission_rate(EmissionSpectrum(r_s=2.0))
    assert b == pytest.approx(a / 2.0, rel=1e-14)


def bose_tail_series(a: float, terms: int = 60) -> float:
    # int_a^inf u^2/(e^u - 1) du = sum_n e^(-n a) (a^2/n + 2a/n^2 + 2/n^3),
    # from expanding the Bose factor in powers of e^-u
    total = 0.0
    for n in range(terms, 0, -1):
        total += math.exp(-n * a) * (a * a / n + 2.0 * a / n ** 2 + 2.0 / n ** 3)
    return total


def test_total_rate_with_cutoff_vs_series():
    r_s = 2.5
    spec = EmissionSpectrum(r_s=r_s)
    cutoff = EmissionSpectrum(r_s=r_s, omega_min=u_to_omega(spec, 2.0))
    assert cutoff.u_min == pytest.approx(2.0, rel=1e-14)
    per_u = 27.0 * spec.constants.c / (64.0 * math.pi ** 4 * r_s)
    expected = per_u * bose_tail_series(2.0)
    assert total_emission_rate(cutoff) == pytest.approx(expected, rel=1e-10)


def test_total_rate_cutoff_reduces():
    spec = EmissionSpectrum(r_s=1.0)
    cutoff = EmissionSpectrum(r_s=1.0, omega_min=u_to_omega(spec, 0.5))
    assert 0.0 < total_emission_rate(cutoff) < total_emission_rate(spec)


def test_total_rate_cutoff_beyond_truncation():
    spec = EmissionSpectrum(r_s=1.0)
    too_far = EmissionSpectrum(r_s=1.0, omega_min=u_to_omega(spec, U_TRUNCATION))
    with pytest.raises(ValueError):
        total_emission_rate(too_far)


def test_frequency_pdf_normalization():
    spec = EmissionSpectrum(r_s=1.0)
    top = u_to_omega(spec, U_TRUNCATION)
    seeds = [u_to_omega(spec, u) for u in (0.0, 0.5, 2.0, 8.0, 20.0)] + [top]

    def pdf_batch(omega):
        return np.array([frequency_pdf(spec, float(w)) for w in omega])

    integral, _ = integrate_adaptive(pdf_batch, seeds, QuadratureSpec(rel_tol=1e-10))
    assert integral == pytest.approx(1.0, rel=1e-8)


def test_frequency_pdf_knob_independence():
    base = EmissionSpectrum(r_s=1.0)
    scaled = EmissionSpectrum(r_s=1.0, polarizations=1, species_multiplicity=5)
    for u in (0.5, 1.5936, 4.0):
        omega = u_to_omega(base, u)
        assert frequency_pdf(scaled, omega) == pytest.approx(
            frequency_pdf(base, omega), rel=1e-12)


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


def test_spectrum_validation():
    with pytest.raises(ValueError):
        EmissionSpectrum(r_s=0.0)
    with pytest.raises(ValueError):
        EmissionSpectrum(r_s=1.0, polarizations=0)
    with pytest.raises(ValueError):
        EmissionSpectrum(r_s=1.0, species_multiplicity=0)
    with pytest.raises(ValueError):
        EmissionSpectrum(r_s=1.0, omega_min=-1.0)


def test_per_u_rate_times_full_integral_is_lambda_total():
    for r_s in (1e-6, R_S_MOON, 1e6):
        spec = EmissionSpectrum(r_s=r_s, polarizations=4, species_multiplicity=3)
        assert spec.per_u_rate() * 2.0 * ZETA3 == pytest.approx(
            total_emission_rate(spec), rel=1e-14)


def test_lambda_total_out_of_range_names_r_s():
    # R_s ~ 1.5e-307 m puts Lambda_total past the largest double, and
    # R_s = 1e307 m underflows it to 0 inside the closed form
    for r_s in (1.485232053823733e-307, 1e307):
        with pytest.raises(ValueError, match="r_s="):
            total_emission_rate(EmissionSpectrum(r_s=r_s))


def test_lambda_total_near_the_overflow_edge():
    # Lambda_total ~ 7e306 s^-1 fits a double here, and so must every
    # intermediate of the closed form
    r_s = 4.455696161471198e-301
    rate = total_emission_rate(EmissionSpectrum(r_s=r_s))
    assert math.isfinite(rate)
    assert rate == pytest.approx(total_emission_rate(EmissionSpectrum(r_s=1.0)) / r_s, rel=1e-15)


def test_bose_seed_points():
    assert bose_seed_points(0.0) == [0.0, 0.5, 2.0, 8.0, 20.0, U_TRUNCATION]
    assert bose_seed_points(2.0) == [2.0, 8.0, 20.0, U_TRUNCATION]
    assert bose_seed_points(30.0) == [30.0, U_TRUNCATION]
    with pytest.raises(ValueError, match="cutoff"):
        bose_seed_points(U_TRUNCATION - 1.0)
