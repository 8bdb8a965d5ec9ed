"""Quadrature route vs closed forms, and the direct trigamma series."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from hawkdeco import (
    CODATA2018,
    EmissionSpectrum,
    QuadratureSpec,
    SuperpositionGeometry,
    overlap_numeric,
    rate_numeric,
    schwarzschild_radius,
    trigamma_complex,
    trigamma_series,
    trigamma_series_error_bound,
    vacuum_overlap,
    vacuum_rate,
)
from hawkdeco import numeric
from hawkdeco.numeric import overlap_numeric_detail, rate_numeric_detail
from hawkdeco.quadrature import integrate_adaptive
from hawkdeco.special import sinc
from hawkdeco.spectrum import U_TRUNCATION, bose_spectral_kernel

M_EARTH = 5.97e24


def geom_at(dx_over_rs: float, r_s: float = 1.0) -> SuperpositionGeometry:
    return SuperpositionGeometry(delta_x=dx_over_rs * r_s, r_s=r_s)


def test_trigamma_series_at_one():
    exact = math.pi ** 2 / 6.0
    value = trigamma_series(1.0, terms=10000)
    assert abs(value - exact) < 1e-9
    assert abs(value - exact) <= trigamma_series_error_bound(1.0, terms=10000)


def test_trigamma_series_complex():
    # direct summation against the recurrence+asymptotic implementation
    for z in (1.0 + 1.0j, 0.5 + 2.0j, 3.0 - 10.0j, 20.0 + 50.0j):
        series = trigamma_series(z, terms=20000)
        fast = trigamma_complex(z)
        assert abs(series - fast) <= 1e-9 * abs(fast)


def test_trigamma_series_tiny_and_huge_arguments():
    # |z + n|^4 leaves the double range here, |z + n|^2 does not
    assert trigamma_series(1e-100).real == pytest.approx(1e200, rel=1e-15)
    assert trigamma_series(1e100 + 1.0j).real == pytest.approx(1e-100, rel=1e-15)


def test_trigamma_series_moon_argument():
    assert trigamma_series(1.0 + 7.29j, terms=20000).imag == pytest.approx(
        -0.1368, abs=1e-4)


def test_trigamma_series_validation():
    with pytest.raises(ValueError):
        trigamma_series(-3.0)
    with pytest.raises(ValueError):
        trigamma_series(1.0, terms=50)


def test_overlap_numeric_identity_at_zero():
    assert overlap_numeric(geom_at(0.0)) == 1.0


def test_overlap_numeric_vs_closed_form():
    for x in (1e-3, 0.1, 1.0, 4.0 * math.pi, 30.0, 91.61, 1e3):
        geom = geom_at(x)
        numeric = overlap_numeric(geom)
        closed = vacuum_overlap(geom)
        assert abs(numeric - closed) <= 1e-8 * max(1.0, abs(closed))


def test_overlap_numeric_oscillatory_acceleration():
    # dx/R_s = 1e5 means ~1e5 sinc lobes; this exercises the Euler tail
    geom = geom_at(1e5)
    value, err = overlap_numeric_detail(geom)
    closed = vacuum_overlap(geom)
    assert abs(value - closed) <= max(err, 1e-10 * abs(closed))
    assert err < 1e-10


def test_rate_numeric_vs_closed_form():
    r_s = schwarzschild_radius(M_EARTH)
    for x in (1e-3, 1e-2, 0.5, 1.13, 10.0, 200.0, 1e4):
        geom = geom_at(x, r_s)
        numeric = rate_numeric(geom)
        closed = vacuum_rate(geom).rate
        assert numeric == pytest.approx(closed, rel=1e-8)


def test_rate_numeric_small_separation_accuracy():
    # the positive-integrand branch keeps relative accuracy where naive
    # 1 - overlap subtraction would have none left
    geom = geom_at(1e-3)
    closed = vacuum_rate(geom).rate
    assert rate_numeric(geom) == pytest.approx(closed, rel=1e-10)


def test_rate_numeric_zero():
    assert rate_numeric(geom_at(0.0)) == 0.0


def test_rate_numeric_monotone_on_grid():
    # empirical property of this spectrum: more separation, faster decay
    rates = [rate_numeric(geom_at(float(x))) for x in np.logspace(-2, 3, 11)]
    assert all(a < b for a, b in zip(rates, rates[1:]))


def test_error_estimates_are_honest():
    # tightening the tolerance must move the result by less than the
    # estimate reported at the looser tolerance
    loose = QuadratureSpec(rel_tol=1e-8)
    tight = QuadratureSpec(rel_tol=1e-12)
    for x in (0.3, 5.0, 300.0):
        geom = geom_at(x)
        v_loose, e_loose = overlap_numeric_detail(geom, quad=loose)
        v_tight, _ = overlap_numeric_detail(geom, quad=tight)
        assert abs(v_loose - v_tight) <= max(e_loose, 1e-14)
        r_loose, re_loose = rate_numeric_detail(geom, quad=loose)
        r_tight, _ = rate_numeric_detail(geom, quad=tight)
        assert abs(r_loose - r_tight) <= max(re_loose, 1e-14 * abs(r_tight))


def omega_at_u(u: float, r_s: float = 1.0) -> float:
    # the angular frequency at u = 4 pi omega r_s / c
    return u * CODATA2018.c / (4.0 * math.pi * r_s)


def test_cutoff_overlap_differs():
    geom = geom_at(4.0 * math.pi)
    # u_min = 2: the soft part of the spectrum is gone and the overlap drops
    assert EmissionSpectrum(r_s=1.0, omega_min=omega_at_u(2.0)).u_min == pytest.approx(
        2.0, rel=1e-12)
    without = overlap_numeric(geom)
    with_cut = overlap_numeric(geom, omega_min=omega_at_u(2.0))
    assert with_cut != pytest.approx(without, rel=1e-3)


def test_cutoff_is_taken_at_the_geometry_radius():
    # the same u_min on holes of different size gives the same overlap
    small = overlap_numeric(geom_at(4.0 * math.pi), omega_at_u(2.0))
    large = overlap_numeric(geom_at(4.0 * math.pi, r_s=1e3), omega_at_u(2.0, r_s=1e3))
    assert small == pytest.approx(large, rel=1e-10)


def test_cutoff_beyond_truncation_rejected():
    # the truncation moves with the cut-off, so a cut near u = 41.5 leaves a
    # spectrum like any other; past u ~ 721.6 the cut integral leaves the
    # normal range of a double
    assert abs(overlap_numeric(geom_at(1.0), omega_at_u(41.0))) <= 1.0
    with pytest.raises(ValueError, match="omega_min"):
        overlap_numeric(geom_at(1.0), omega_at_u(722.0))


def test_cutoff_rejected_on_every_rate_branch():
    for dx_over_rs in (0.0, 1.0, 100.0):  # alpha = 0, < 1 and > 1
        with pytest.raises(ValueError, match="cutoff"):
            rate_numeric(geom_at(dx_over_rs), omega_at_u(722.0))


def test_rate_below_alpha_one_skips_the_denominator(monkeypatch):
    # alpha = 1 exactly sits on the seeded side, as in overlap_numeric
    assert geom_at(4.0 * math.pi).y == 1.0
    values = [rate_numeric(geom_at(x)) for x in (1.0, 4.0 * math.pi)]

    def fail(*args):
        raise AssertionError("denominator integrated on the alpha <= 1 branch")

    monkeypatch.setattr(numeric, "bose_integral", fail)
    assert [rate_numeric(geom_at(x)) for x in (1.0, 4.0 * math.pi)] == values
    with pytest.raises(AssertionError):
        rate_numeric(geom_at(100.0))


def _count_integrand_calls(monkeypatch):
    # every oracle integrand is bose_spectral_kernel times a sinc weight,
    # called once per gk15_batch block
    calls = [0]
    kernel = numeric.bose_spectral_kernel

    def counted(u):
        calls[0] += 1
        return kernel(u)

    monkeypatch.setattr(numeric, "bose_spectral_kernel", counted)
    return calls


def test_one_integrand_call_per_oracle_call(monkeypatch):
    # alpha <= 1 starts from the halved seeds, and past 128 lobes one batch
    # holds the head's first pass and the accelerated lobes; the denominator
    # is cached, so each call integrates once
    overlap_numeric(geom_at(1.0))
    calls = _count_integrand_calls(monkeypatch)
    alphas = [1e-6, 1e-3, 1e-2] + np.linspace(0.0, 1.0, 201)[1:].tolist()
    for dx_over_rs in [4.0 * math.pi * a for a in alphas] + [1e3, 1e4]:
        for oracle in (rate_numeric, overlap_numeric):
            calls[0] = 0
            oracle(geom_at(dx_over_rs))
            assert calls[0] == 1, (oracle.__name__, dx_over_rs)


@pytest.mark.parametrize("quad, refined", [
    (QuadratureSpec(), False), (QuadratureSpec(rel_tol=1e-12, abs_tol=1e-20), True)],
    ids=["default", "tight"])
@pytest.mark.parametrize("alpha", [130.0, 1e3, 1e5])
def test_fused_head_is_the_adaptive_head(monkeypatch, alpha, quad, refined):
    # the head from the shared 128-lobe batch is, bit for bit, the adaptive
    # integral of its 64 lobes; under the tight spec it misses the target on
    # the first pass and is refined from there
    points, _ = numeric._sinc_zeros(alpha, 0.0)
    head = integrate_adaptive(lambda u: bose_spectral_kernel(u) * sinc(alpha * u),
                              points[:numeric._EXPLICIT_LOBES + 1], quad)
    monkeypatch.setattr(numeric, "_accelerated_tail", lambda lobes: (0.0, 0.0))
    calls = _count_integrand_calls(monkeypatch)
    assert numeric._oscillatory_integral(alpha, 0.0, quad)[0] == head[0]
    assert (calls[0] > 1) == refined


def _seed_points_loop(u_min, alpha):
    # The oracle's former loop-based seed grid, kept as a reference.
    top = u_min + U_TRUNCATION
    seeds = {u_min, top}
    for p in (0.5, 2.0, 8.0, 20.0):
        if u_min < p < top:
            seeds.add(p)
    k = 1
    while k * math.pi / alpha < top:
        if k * math.pi / alpha > u_min:
            seeds.add(k * math.pi / alpha)
        k += 1
        if k > 64:
            break
    return sorted(seeds)


@pytest.mark.parametrize("u_min", [0.0, 0.3, 2.0, 10.0, 30.0])
def test_seed_points_match_loop_reference(u_min):
    # a regular grid plus alphas whose sinc zeros land on a knee (8, 20)
    alphas = list(np.linspace(0.0, 1.0, 401)[1:]) + [1e-3, math.pi / 4.0, math.pi / 10.0]
    for alpha in alphas:
        assert numeric._seed_points(u_min, alpha) == _seed_points_loop(u_min, alpha)


def _sinc_zeros_full(alpha, u_min):
    # The oracle's former construction: every zero in range, kept as a reference.
    top = u_min + U_TRUNCATION
    k_first = int(math.floor(u_min * alpha / math.pi)) + 1
    k_last = int(math.ceil(top * alpha / math.pi)) - 1
    zeros = np.pi * np.arange(k_first, k_last + 1) / alpha
    zeros = zeros[(zeros > u_min) & (zeros < top)]
    return np.concatenate(([u_min], zeros, [top]))


@pytest.mark.parametrize("u_min", [0.0, 0.3, 2.0, 8.0, 10.0, 30.0])
def test_sinc_zeros_are_the_head_of_the_full_grid(u_min):
    # alphas around the switch to acceleration (128 lobes at alpha ~ 9.69),
    # and alphas that put a zero exactly on the cut-off or the truncation
    alphas = [1e-3, 0.5, 1.0, math.pi / 4.0, 2.0, 9.6, 9.69, 9.7, 9.8, 100.0, 159.5, 160.0,
              1e3, 1e4, 2.0 * math.pi / U_TRUNCATION * 7.0]
    alphas += [math.pi * k / (u_min + U_TRUNCATION) for k in (1, 7, 128, 5000)]
    if u_min > 0.0:
        alphas += [math.pi * k / u_min for k in (1, 3, 40, 5000)]
    for alpha in alphas:
        full = _sinc_zeros_full(alpha, u_min)
        head, n_lobes = numeric._sinc_zeros(alpha, u_min)
        assert n_lobes == len(full) - 1
        assert head.tobytes() == full[:len(head)].tobytes()
        assert len(head) == min(len(full), numeric._EXPLICIT_LOBES + numeric._ACCEL_LOBES + 1)


def test_wide_separation_oracle_memory():
    # dx/R_s = 1e7 spans ~1e7 sinc lobes, of which the oracle reads 129;
    # building every lobe edge peaked at ~180 MB under tracemalloc
    geom = geom_at(1e7)
    tracemalloc.start()
    try:
        value = rate_numeric(geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert value == pytest.approx(vacuum_rate(geom).rate, rel=1e-8)


@pytest.mark.parametrize("dx_over_rs, u_min", [
    (1e40, 0.3), (1e100, 0.3), (1e300, 0.3),   # the lobe edges read pass k = 2^53
    (1e308, 0.0), (1e308, 0.3),                # U_TRUNCATION alpha / pi overflows
])
def test_separations_past_distinct_sinc_zeros_name_the_argument(dx_over_rs, u_min):
    for oracle in (rate_numeric, overlap_numeric):
        with pytest.raises(ValueError, match=r"^delta_x / r_s=1e\+[0-9]+ puts the sinc zeros"):
            oracle(geom_at(dx_over_rs), omega_at_u(u_min))


def _overlap_at_large_y(y: float) -> float:
    # (1/zeta(3)) (1/(2 y^2) - 1/(12 y^4)), the large-y series of the
    # closed form, at 40 digits; the next term is O(y^-6)
    with mpmath.workdps(40):
        y = mpmath.mpf(y)
        return float((1 / (2 * y ** 2) - 1 / (12 * y ** 4)) / mpmath.zeta(3))


@pytest.mark.parametrize("dx_over_rs", [1e40, 1e100, 1e300])
def test_huge_separations_without_cutoff_keep_their_values(dx_over_rs):
    # u_min = 0: the first lobe edges read are pi k / alpha with k <= 129
    geom = geom_at(dx_over_rs)
    overlap = _overlap_at_large_y(geom.y)
    assert rate_numeric(geom) == pytest.approx(3121476.17761359, rel=1e-14)
    assert overlap_numeric(geom) == pytest.approx(overlap, rel=2e-13, abs=0.0)


@pytest.mark.parametrize("u_min", [0.0, 0.3, 2.0, 8.0, 20.0, 30.0, 39.0])
def test_accelerated_and_explicit_lobe_sums_agree(monkeypatch, u_min):
    # the Euler tail after 64 lobes against 2048 lobes integrated one by
    # one: with the truncation at u_min + 41.5 the continuation past it
    # that the acceleration sums is negligible at every cut-off
    omega_min = omega_at_u(u_min)
    for dx_over_rs in (100.0, 130.0, 500.0, 3286.0, 3e4, 1e6):
        geom = geom_at(dx_over_rs)
        runs = []
        for lobes in (64, 2048):
            monkeypatch.setattr(numeric, "_EXPLICIT_LOBES", lobes)
            runs.append((overlap_numeric_detail(geom, omega_min),
                         rate_numeric_detail(geom, omega_min)))
        for (a, a_err), (b, b_err) in zip(*runs):
            assert abs(a - b) <= a_err + b_err, (dx_over_rs, a, b, a_err, b_err)


@pytest.mark.parametrize("u_min, dx_over_rs, overlap", [
    (20.0, 500.0, -1.7130253103339742e-5), (30.0, 3286.0, -4.4814979815699524e-7)])
def test_cutoff_overlap_physical_values(u_min, dx_over_rs, overlap):
    # 30-digit mpmath over [u_min, u_min + 80], split at the sinc zeros
    value = overlap_numeric(geom_at(dx_over_rs), omega_at_u(u_min))
    assert value == pytest.approx(overlap, rel=1e-10, abs=0.0)
