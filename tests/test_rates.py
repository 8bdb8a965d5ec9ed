"""Closed-form decoherence rates: vacuum channel, thermal channel, limits."""

import dataclasses
import math
import os
import sys
import threading
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from hawkdeco import (
    CODATA2018,
    DecoherenceResult,
    DipoleApproximationWarning,
    SuperpositionGeometry,
    ThermalBathParams,
    VARIANT_CANONICAL,
    VARIANT_PRINTED,
    classify_regime,
    evaporation_time,
    hawking_temperature,
    one_minus_overlap,
    planck_length,
    planck_localization_time,
    schwarzschild_radius,
    thermal_bh_rate,
    thermal_coefficient,
    thermal_localization_coeff,
    thermal_sphere_rate,
    vacuum_localization_coeff,
    vacuum_overlap,
    vacuum_rate,
    vacuum_rate_saturation,
    vacuum_rate_small_dx,
)
from hawkdeco import rates
from hawkdeco.rates import _trigamma_im_over_y, canonical_rate_array
from hawkdeco.special import zeta_int
from hawkdeco.spectrum import per_u_rate

M_SUN = 1.99e30
M_EARTH = 5.97e24
M_MOON = 7.35e22

ZETA3 = 1.2020569031595942854
ZETA5 = 1.0369277551433699263
ZETA7 = 1.0083492773819228268

# Frozen reference numbers, from the direct-series/quadrature routes run
# at reduced rounding (50-digit arithmetic for the overlaps and times).
OVERLAP_Y1 = 0.3303643698861860
TAU_SUN = 7570915600.3604965
TAU_EARTH = 2.0681894021399773e-07
TAU_MOON_CANONICAL = 3.5247124615710643e-11
TAU_MOON_PRINTED = 8.811781153927661e-12
SMALL_DX_PREFACTOR = 1.1375567242290936e-04
THERMAL_D = 0.05758667446091064
THERMAL_TAU_COEFF = 17.365128466982267
THERMAL_LOC_EXACT = 138.92102773585813
VACUUM_LOC_EXACT = 70326.1633429444
LOC_RATIO_EXACT = 4.372170517467834


def geom_for(mass: float, dx: float) -> SuperpositionGeometry:
    return SuperpositionGeometry.from_mass(mass, dx)


def geom_at(dx_over_rs: float, r_s: float = 1.0) -> SuperpositionGeometry:
    return SuperpositionGeometry(delta_x=dx_over_rs * r_s, r_s=r_s)


def test_geometry_properties():
    geom = geom_for(M_MOON, 0.01)
    assert geom.r_s == schwarzschild_radius(M_MOON)
    assert geom.dx_over_rs == pytest.approx(91.61, rel=1e-3)
    assert geom.y == pytest.approx(geom.dx_over_rs / (4.0 * math.pi), rel=1e-15)
    with pytest.raises(ValueError):
        SuperpositionGeometry(delta_x=-1.0, r_s=1.0)
    with pytest.raises(ValueError):
        SuperpositionGeometry(delta_x=1.0, r_s=0.0)


def test_vacuum_overlap_values():
    assert vacuum_overlap(geom_at(0.0)) == 1.0
    # dx = 4 pi R_s puts the trigamma argument at 1 + i
    assert vacuum_overlap(geom_at(4.0 * math.pi)) == pytest.approx(OVERLAP_Y1, rel=1e-12)
    assert vacuum_overlap(geom_at(4.0 * math.pi)) == pytest.approx(0.331, rel=2e-3)
    assert vacuum_overlap(geom_at(91.61)) == pytest.approx(7.8e-3, rel=2e-3)


def test_vacuum_overlap_range():
    for x in np.logspace(-3, 6, 25):
        ov = vacuum_overlap(geom_at(float(x)))
        assert -1.0 <= ov <= 1.0


def test_geometry_rejects_non_finite_input():
    for delta_x in (math.nan, math.inf):
        with pytest.raises(ValueError, match="delta_x"):
            SuperpositionGeometry(delta_x=delta_x, r_s=1.0)
    for r_s in (math.nan, math.inf):
        with pytest.raises(ValueError, match="r_s"):
            SuperpositionGeometry(delta_x=1.0, r_s=r_s)
    # both finite, but the ratio overflows
    with pytest.raises(ValueError, match="delta_x / r_s"):
        SuperpositionGeometry(delta_x=1e300, r_s=1e-300)


def test_overlap_at_underflowing_separation():
    # y = dx / (4 pi R_s) underflows to 0: coincident for every purpose
    geom = SuperpositionGeometry(delta_x=5e-324, r_s=1.0)
    assert geom.y == 0.0
    assert vacuum_overlap(geom) == 1.0
    res = vacuum_rate(geom)
    assert res.overlap == 1.0
    assert res.rate == 0.0
    assert one_minus_overlap(geom) == 0.0


def overlap_of_y(y):
    return _trigamma_im_over_y(y) / (2.0 * ZETA3)


@given(st.floats(1e-300, 1e300))
def test_real_overlap_in_unit_interval(y):
    ov = overlap_of_y(y)
    assert 0.0 <= ov <= 1.0
    assert math.copysign(1.0, ov) == 1.0  # +0.0, never -0.0
    assert 0.0 <= vacuum_overlap(SuperpositionGeometry(delta_x=y, r_s=1.0)) <= 1.0


def test_real_overlap_at_range_edges():
    assert overlap_of_y(0.0) <= 1.0
    assert overlap_of_y(0.0) == pytest.approx(1.0, rel=1e-15)
    for y in (1e154, 1.3e154, 1.35e154, 1e200, 1e300, 1.7976931348623157e308):
        ov = overlap_of_y(y)
        assert 0.0 <= ov < 1e-300
        assert math.copysign(1.0, ov) == 1.0, y


def test_real_overlap_array_equals_scalar_bitwise():
    ys = np.concatenate([[0.0], np.logspace(-300.0, 300.0, 6001),
                         [1.3e154, 1.35e154, 1.7976931348623157e308]])
    with np.errstate(over="ignore"):
        array = overlap_of_y(ys)
    scalar = np.array([overlap_of_y(float(y)) for y in ys])
    assert array.tobytes() == scalar.tobytes()


def test_real_overlap_against_mpmath():
    # -Im psi1(1 + iy) / y at 40 digits on 321 y up to 1e8, within the 2e-15
    # that the docstring states; the worst is about 1.7e-15
    with mpmath.workdps(40):
        for y in np.logspace(-8.0, 8.0, 321).tolist():
            ref = -mpmath.im(mpmath.psi(1, mpmath.mpc(1, y))) / y
            assert abs(_trigamma_im_over_y(y) - ref) <= 2e-15 * ref, y


def test_canonical_rate_array_equals_vacuum_rate_bitwise():
    # both complement branches, the switch, and y past 1e154 (large delta_x
    # keeps every radius, and so Lambda_total, in range)
    delta_x = 1e200
    y = np.concatenate([[1e-9, 0.0499, 0.05], np.logspace(-1.0, 300.0, 41)])
    r_s = delta_x / (4.0 * math.pi * y)
    for species in (1, 3):
        scalar = [vacuum_rate(SuperpositionGeometry(delta_x, float(r)),
                              species_multiplicity=species).rate for r in r_s]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning from y * y
            array = canonical_rate_array(delta_x, r_s, species_multiplicity=species)[0]
        assert array.tobytes() == np.array(scalar).tobytes()
    # coincident branches
    r_s = np.array([1.0, 2.0])
    assert canonical_rate_array(0.0, r_s)[0].tolist() == [
        vacuum_rate(SuperpositionGeometry(0.0, float(r))).rate for r in r_s]


def test_canonical_rate_array_over_separations_equals_vacuum_rate_bitwise():
    # the `sweep` orientation: an array of separations at one radius, from
    # dx = 0 through both complement branches (an odd count of series points)
    # to y past 1e154
    r_s = 7.3e-5
    delta_x = np.concatenate([[0.0, 1e-320], 4.0 * math.pi * r_s * np.array(
        [1e-9, 0.01, 0.0499, 0.05]), r_s * np.logspace(-3.0, 300.0, 45)])
    for species in (1, 3):
        scalar = [vacuum_rate(SuperpositionGeometry(float(dx), r_s),
                              species_multiplicity=species) for dx in delta_x]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rate, overlap = canonical_rate_array(delta_x, r_s, species_multiplicity=species)
        assert rate.tobytes() == np.array([res.rate for res in scalar]).tobytes()
        assert overlap.tobytes() == np.array([res.overlap for res in scalar]).tobytes()


def test_canonical_rate_array_checks_its_own_inputs():
    # the species count and Lambda_total are checked here, Lambda_total at
    # the smallest radius, where it peaks
    r_s = np.array([1.0, 2.0])
    assert canonical_rate_array(1.0, r_s, species_multiplicity=2)[0].tolist() == [
        2.0 * x for x in canonical_rate_array(1.0, r_s)[0].tolist()]
    with pytest.raises(ValueError, match=r"^species_multiplicity must be an integer >= 1"):
        canonical_rate_array(1.0, r_s, species_multiplicity=0)
    with pytest.raises(ValueError, match=r"^r_s=1e-303 m puts Lambda_total=inf out of "):
        canonical_rate_array(1e-300, np.array([1.0, 1e-303, 1e-300]))


def test_one_minus_overlap_small_y_leading_order():
    # complement -> 2 zeta(5)/zeta(3) y^2 as y -> 0
    geom = geom_at(4.0 * math.pi * 1e-6)  # y = 1e-6
    expected = 2.0 * ZETA5 / ZETA3 * 1e-12
    assert one_minus_overlap(geom) == pytest.approx(expected, rel=1e-9)


def test_one_minus_overlap_branch_continuity():
    # series branch below y = 0.05, direct subtraction above; the two
    # routes must agree where they meet
    for y in (0.0499, 0.05, 0.0501):
        geom = geom_at(4.0 * math.pi * y)
        direct = 1.0 - vacuum_overlap(geom)
        assert one_minus_overlap(geom) == pytest.approx(direct, rel=5e-12)


def _allow_cpus(monkeypatch, cpus):
    # the series asks the affinity mask how many CPUs it may run on
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _count_started_threads(monkeypatch):
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountedThread)
    return started


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_complement_series_batch_equals_one_element_calls_bitwise(monkeypatch, cpus):
    # batch sizes of one tile or less, every residue modulo the tile at a size
    # that 2 workers split 2 + 3 or 3 + 3 tiles, and 8 tiles split 2 + 3 + 3
    # by 3 workers, against one-element calls; the y run from the cut down to
    # y^2 underflowing, so every tile holds different magnitudes
    _allow_cpus(monkeypatch, cpus)
    rows = rates._SERIES_ROWS
    sizes = [0, 1, rows - 1, rows] + [5 * rows + r for r in range(rows)] + [7 * rows + 3]
    ys = np.concatenate([[0.05, 0.0499], np.logspace(math.log10(0.0499), -8.0, max(sizes) - 4),
                         [1e-9, 1e-170]])
    one_by_one = np.array([rates._one_minus_overlap_series(np.array([y]))[0] for y in ys])
    started = _count_started_threads(monkeypatch)
    for size in sizes:
        assert rates._one_minus_overlap_series(ys[:size]).tobytes() == one_by_one[:size].tobytes()
    del started[:]
    rates._one_minus_overlap_series(ys)
    assert len(started) == cpus - 1  # the caller's thread runs the first range
    # the scalar route runs the same body on one element
    geoms = [SuperpositionGeometry(4.0 * math.pi * float(y), 1.0) for y in ys[1:]]
    assert [one_minus_overlap(g) for g in geoms] == rates._one_minus_overlap_series(
        np.array([g.y for g in geoms])).tolist()


def test_complement_series_one_tile_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    _allow_cpus(monkeypatch, 3)
    monkeypatch.setattr(threading, "Thread", no_thread)
    result = vacuum_rate(geom_at(4.0 * math.pi * 0.01))  # y = 0.01, a one-element series
    assert result.rate > 0.0
    assert rates._one_minus_overlap_series(np.empty(0)).size == 0
    assert np.all(rates._one_minus_overlap_series(np.full(rates._SERIES_ROWS, 0.01)) > 0.0)


def test_complement_series_worker_count_without_sched_getaffinity(monkeypatch):
    # where os.sched_getaffinity does not exist, os.cpu_count() gives the count
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert rates._usable_cpus() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert rates._usable_cpus() == 3
    ys = np.logspace(-8.0, math.log10(0.0499), 7 * rates._SERIES_ROWS + 3)
    started = _count_started_threads(monkeypatch)
    threaded = rates._one_minus_overlap_series(ys)
    assert len(started) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert threaded.tobytes() == rates._one_minus_overlap_series(ys).tobytes()
    assert len(started) == 2


def test_complement_series_more_workers_than_cores_with_fast_switching(monkeypatch):
    # 6 workers on what may be fewer cores, switching threads every microsecond:
    # a lost or overlapping write into the shared sums would change some bits
    rows = rates._SERIES_ROWS
    ys = np.logspace(-8.0, math.log10(0.0499), 13 * rows + 5)
    one_worker = rates._one_minus_overlap_series(ys)
    _allow_cpus(monkeypatch, 6)
    started = _count_started_threads(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert rates._one_minus_overlap_series(ys).tobytes() == one_worker.tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert len(started) == 5 * 5
    assert not any(thread.is_alive() for thread in started)


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_complement_series_reraises_a_failed_range(monkeypatch, failing):
    # an exception in any range reaches the caller, after every thread has
    # ended; the half-filled sums are never returned
    tiles = rates._series_tiles

    def fail_one_range(y2, sums, start, stop):
        if (start > 0) == (failing == "worker"):
            raise ArithmeticError(f"range {start}:{stop}")
        tiles(y2, sums, start, stop)

    _allow_cpus(monkeypatch, 2)
    monkeypatch.setattr(rates, "_series_tiles", fail_one_range)
    ys = np.logspace(-8.0, math.log10(0.0499), 5 * rates._SERIES_ROWS)
    threads_before = threading.active_count()
    with pytest.raises(ArithmeticError, match=r"^range \d+:\d+$"):
        rates._one_minus_overlap_series(ys)
    assert threading.active_count() == threads_before


def test_complement_series_is_one_numpy_sum_over_all_terms_bitwise():
    # the blocks and their pairwise tree give np.sum over all N terms, m from
    # N down to 1, bit for bit; the tail is added after the sum
    n = 20000.0
    m = np.arange(1.0, n + 1.0)
    m2 = m * m
    ys = np.concatenate([[1e-170, 1e-9], np.logspace(-8.0, math.log10(0.0499), 60)])
    expected = []
    for y in ys.tolist():
        denom = m2 + y * y
        terms = (2.0 * m2 + y * y) / (m * m2 * denom * denom)
        tail = 0.5 / n ** 4 - 1.0 / n ** 5
        expected.append(y * y * (float(np.sum(terms[::-1])) + tail) / zeta_int(3))
    assert rates._one_minus_overlap_series(ys).tolist() == expected


def test_complement_series_call_stays_under_the_mmap_threshold():
    # a one-element call's temporaries are 20 KB each, under glibc's 128 KiB
    # mmap threshold, so one scalar call stays below 128 KiB too
    geom = geom_at(4.0 * math.pi * 0.01)
    one_minus_overlap(geom)
    tracemalloc.start()
    try:
        one_minus_overlap(geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * 1024


def test_complement_series_against_mpmath():
    # 200 log-spaced y in [1e-8, 0.05), against 50-digit
    # 1 + Im psi1(1 + iy) / (2 zeta(3) y); the worst is about 5.4e-16
    ys = np.logspace(-8.0, math.log10(0.05), 201)[:-1]
    worst = 0.0
    with mpmath.workdps(50):
        two_zeta3 = 2 * mpmath.zeta(3)
        for y, got in zip(ys.tolist(), rates._one_minus_overlap_series(ys).tolist()):
            exact = 1 + mpmath.im(mpmath.psi(1, mpmath.mpc(1, y))) / (two_zeta3 * y)
            worst = max(worst, float(abs(got - exact) / exact))
    assert worst <= 1.5e-15


def test_one_minus_overlap_positive():
    for y in np.logspace(-8, 3, 23):
        assert one_minus_overlap(geom_at(4.0 * math.pi * float(y))) > 0.0
    assert one_minus_overlap(geom_at(0.0)) == 0.0


def test_vacuum_rate_result_fields():
    res = vacuum_rate(geom_for(M_MOON, 0.01))
    assert isinstance(res, DecoherenceResult)
    assert res.variant == VARIANT_CANONICAL
    assert res.regime == "crossover"
    assert res.rate == pytest.approx(res.lambda_total * (1.0 - res.overlap), rel=1e-12)
    assert res.decoherence_time == pytest.approx(1.0 / res.rate, rel=1e-15)


def test_vacuum_rate_zero_separation():
    res = vacuum_rate(geom_for(M_MOON, 0.0))
    assert res.rate == 0.0
    assert res.overlap == 1.0
    assert res.decoherence_time == math.inf


def test_headline_times_frozen():
    assert 1.0 / vacuum_rate(geom_for(M_SUN, 0.01)).rate == pytest.approx(TAU_SUN, rel=1e-10)
    assert 1.0 / vacuum_rate(geom_for(M_EARTH, 0.01)).rate == pytest.approx(TAU_EARTH, rel=1e-10)
    assert 1.0 / vacuum_rate(geom_for(M_MOON, 0.01)).rate == pytest.approx(
        TAU_MOON_CANONICAL, rel=1e-10)
    assert 1.0 / vacuum_rate(geom_for(M_MOON, 0.01), VARIANT_PRINTED).rate == pytest.approx(
        TAU_MOON_PRINTED, rel=1e-10)


def test_variant_factor_four():
    for x in np.logspace(-3, 4, 15):
        geom = geom_at(float(x), r_s=schwarzschild_radius(M_EARTH))
        canonical = vacuum_rate(geom, VARIANT_CANONICAL).rate
        printed = vacuum_rate(geom, VARIANT_PRINTED).rate
        assert printed == pytest.approx(4.0 * canonical, rel=1e-12)


def test_variant_validation():
    with pytest.raises(ValueError):
        vacuum_rate(geom_at(1.0), variant="eq8")


def test_regime_labels():
    assert classify_regime(0.5) == "small_separation"
    assert classify_regime(1.0) == "crossover"
    assert classify_regime(100.0) == "crossover"
    assert classify_regime(101.0) == "saturated"
    assert vacuum_rate(geom_at(0.5)).regime == "small_separation"
    assert vacuum_rate(geom_at(1e4)).regime == "saturated"


def test_small_dx_prefactor():
    coeff = 27.0 * ZETA5 / (256.0 * math.pi ** 6)
    assert coeff == pytest.approx(SMALL_DX_PREFACTOR, rel=1e-13)
    assert coeff == pytest.approx(1.138e-4, rel=1e-3)
    geom = geom_at(0.1)
    in_c_over_rs = vacuum_rate_small_dx(geom) * geom.r_s / CODATA2018.c
    assert in_c_over_rs == pytest.approx(coeff * 0.01, rel=1e-13)
    assert in_c_over_rs == pytest.approx(1.138e-6, rel=1e-3)


def test_small_dx_limit_consistency():
    # the quadratic limit approximates the full rate to the next series
    # order, relative error (3 zeta(7) / 2 zeta(5)) y^2
    bound_coeff = 3.0 * ZETA7 / (2.0 * ZETA5)
    for x in (1e-3, 1e-2, 1e-1):
        geom = geom_at(x)
        full = vacuum_rate(geom).rate
        approx = vacuum_rate_small_dx(geom)
        rel = abs(full - approx) / full
        y = geom.y
        assert rel <= 1.05 * bound_coeff * y * y + 1e-13
    geom = geom_at(0.01)
    rel = abs(vacuum_rate(geom).rate - vacuum_rate_small_dx(geom)) / vacuum_rate(geom).rate
    assert rel < 1e-4


def test_saturation_limit():
    geom = geom_at(1e4, r_s=schwarzschild_radius(M_MOON))
    sat = vacuum_rate_saturation(geom)
    res = vacuum_rate(geom)
    assert sat == res.lambda_total
    assert res.rate < sat
    assert res.rate == pytest.approx(sat, rel=1e-3)
    # tau_D Lambda_total -> 1: emitting one photon decoheres fully
    assert res.decoherence_time * sat == pytest.approx(1.0, rel=1e-3)


def test_rate_approaches_saturation_from_below():
    r_s = 1.0
    rates = [vacuum_rate(geom_at(float(x), r_s)).rate for x in np.logspace(0, 5, 12)]
    sat = vacuum_rate_saturation(geom_at(1.0, r_s))
    assert all(r < sat for r in rates)
    assert all(a < b for a, b in zip(rates, rates[1:]))


@given(st.floats(0.0, 1e4))
def test_rate_bounds_canonical(x):
    res = vacuum_rate(geom_at(x))
    assert 0.0 <= res.rate <= 2.0 * res.lambda_total


def test_size_scaling_at_fixed_ratio():
    # rate ~ 1/R_s at fixed dx/R_s, both channels
    small = geom_at(5.0, r_s=1.0)
    large = geom_at(5.0, r_s=2.0)
    assert vacuum_rate(large).rate == pytest.approx(0.5 * vacuum_rate(small).rate, rel=1e-12)
    assert thermal_bh_rate(large) == pytest.approx(0.5 * thermal_bh_rate(small), rel=1e-12)


def test_species_multiplicity_scales_rate():
    geom = geom_at(2.0)
    base = vacuum_rate(geom)
    tripled = vacuum_rate(geom, species_multiplicity=3)
    assert tripled.rate == pytest.approx(3.0 * base.rate, rel=1e-14)
    assert tripled.overlap == base.overlap


def test_limits_are_those_of_one_species():
    # the limits take no count: with N species the rate tends to N times them
    geom = geom_at(1e4)
    assert vacuum_rate(geom, species_multiplicity=3).lambda_total == (
        3 * vacuum_rate_saturation(geom))
    small = geom_at(1e-3)
    ratio = vacuum_rate(small, species_multiplicity=3).rate / vacuum_rate_small_dx(small)
    assert ratio == pytest.approx(3.0, abs=1e-6)


def test_thermal_coefficient_value():
    d = thermal_coefficient()
    assert d == pytest.approx(THERMAL_D, rel=1e-13)
    assert abs(d - 0.0576) < 1e-3
    # direct evaluation of (16*8! zeta(9)/9 pi) 27^3/(4 pi)^9
    direct = (16.0 * 40320.0 * 1.0020083928260822144 / (9.0 * math.pi)
              * 27.0 ** 3 / (4.0 * math.pi) ** 9)
    assert d == pytest.approx(direct, rel=1e-14)


def test_shared_coefficients_keep_their_bits():
    # the one thermal prefactor and the one per-u emission coefficient give
    # the bits the separate copies gave
    assert thermal_coefficient().hex() == "0x1.d7c0026fd71e7p-5"
    assert per_u_rate(1.0).hex() == "0x1.3cfd585d2acd2p+20"


def test_thermal_bh_time_at_one_radius():
    geom = geom_at(1.0, r_s=schwarzschild_radius(M_EARTH))
    tau = 1.0 / thermal_bh_rate(geom)
    tau_in_rs_over_c = tau * CODATA2018.c / geom.r_s
    assert tau_in_rs_over_c == pytest.approx(THERMAL_TAU_COEFF, rel=1e-12)
    assert tau_in_rs_over_c == pytest.approx(17.37, rel=1e-3)


def test_thermal_dual_path_identity():
    # specialized constant vs the sphere formula with a = sqrt(27) R_s,
    # T = T_H; hbar, G, k_B all cancel in the ratio
    for mass in (1e22, M_MOON, M_EARTH, M_SUN, 1e31):
        r_s = schwarzschild_radius(mass)
        dx = 0.37 * r_s
        params = ThermalBathParams(radius_eff=math.sqrt(27.0) * r_s,
                                   temperature=hawking_temperature(mass))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DipoleApproximationWarning)
            via_sphere = thermal_sphere_rate(params, dx)
        direct = thermal_bh_rate(SuperpositionGeometry(dx, r_s))
        assert direct == pytest.approx(via_sphere, rel=1e-12)


def test_thermal_sphere_rate_shape():
    params = ThermalBathParams(radius_eff=1e-6, temperature=300.0)
    assert thermal_sphere_rate(params, 0.0) == 0.0
    r1 = thermal_sphere_rate(params, 1e-8)
    r2 = thermal_sphere_rate(params, 2e-8)
    assert r2 == pytest.approx(4.0 * r1, rel=1e-13)


def test_thermal_sphere_rate_takes_no_species_count():
    # the bath's photons are its one species; the count is a vacuum-rate option
    params = ThermalBathParams(radius_eff=1e-6, temperature=300.0)
    with pytest.raises(TypeError, match="species_multiplicity"):
        thermal_sphere_rate(params, 1e-8, species_multiplicity=1)


def test_thermal_sphere_rate_errors():
    params = ThermalBathParams(radius_eff=1e-6, temperature=300.0)
    with pytest.raises(ValueError):
        thermal_sphere_rate(params, -1.0)
    with pytest.raises(ValueError):
        ThermalBathParams(radius_eff=0.0, temperature=300.0)
    with pytest.raises(ValueError):
        ThermalBathParams(radius_eff=1e-6, temperature=0.0)


def test_dipole_warnings():
    # thermal wavelength at 300 K is ~7.6 um
    params = ThermalBathParams(radius_eff=1e-6, temperature=300.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        thermal_sphere_rate(params, 1e-8)  # clean regime: no warning
    with pytest.warns(DipoleApproximationWarning, match="separation"):
        thermal_sphere_rate(params, 1e-3)
    big = ThermalBathParams(radius_eff=1e-2, temperature=300.0)
    with pytest.warns(DipoleApproximationWarning, match="effective radius"):
        thermal_sphere_rate(big, 1e-8)


def test_hbar_invariance_of_hole_rates():
    geom = geom_for(M_EARTH, 0.01)
    base_vac = vacuum_rate(geom).rate
    base_th = thermal_bh_rate(geom)
    for factor in (0.5, 2.0, 10.0):
        scaled = dataclasses.replace(CODATA2018, hbar=factor * CODATA2018.hbar)
        assert vacuum_rate(geom, constants=scaled).rate == pytest.approx(base_vac, rel=1e-12)
        assert thermal_bh_rate(geom, constants=scaled) == pytest.approx(base_th, rel=1e-12)


def test_hbar_ninth_power_in_sphere_rate():
    # the general bath formula is the contrast case: ~ hbar^-9
    params = ThermalBathParams(radius_eff=1e-6, temperature=300.0)
    base = thermal_sphere_rate(params, 1e-8)
    for factor in (0.5, 2.0, 10.0):
        scaled = dataclasses.replace(CODATA2018, hbar=factor * CODATA2018.hbar)
        assert thermal_sphere_rate(params, 1e-8, constants=scaled) == pytest.approx(
            base * factor ** -9, rel=1e-12)


def test_localization_coefficients():
    assert thermal_localization_coeff() == pytest.approx(THERMAL_LOC_EXACT, rel=1e-12)
    assert thermal_localization_coeff() == pytest.approx(
        8.0 / thermal_coefficient(), rel=1e-15)
    assert abs(thermal_localization_coeff() - 139.0) < 1.0
    assert thermal_localization_coeff(rounded=True) == 139.0
    assert vacuum_localization_coeff() == pytest.approx(VACUUM_LOC_EXACT, rel=1e-12)
    assert vacuum_localization_coeff() == pytest.approx(
        8.0 * 256.0 * math.pi ** 6 / (27.0 * ZETA5), rel=1e-14)
    assert vacuum_localization_coeff() == pytest.approx(22400.0 * math.pi, rel=5e-3)
    assert vacuum_localization_coeff(rounded=True) == 22400.0 * math.pi


def test_localization_times():
    c = CODATA2018
    for mass in (1e9, M_MOON):
        body = c.G ** 2 * mass ** 3 / (c.hbar * c.c ** 4)
        assert planck_localization_time(mass, mode="thermal") == pytest.approx(
            THERMAL_LOC_EXACT * body, rel=1e-12)
        assert planck_localization_time(mass, mode="vacuum") == pytest.approx(
            VACUUM_LOC_EXACT * body, rel=1e-10)
    with pytest.raises(ValueError):
        planck_localization_time(1e9, mode="bath")
    with pytest.raises(ValueError):
        planck_localization_time(-1.0)
    for mass in (1e-120, 1e120):  # M^3 under- and overflows
        with pytest.raises(ValueError, match="mass="):
            planck_localization_time(mass)


def test_localization_lifetime_ratios():
    exact = planck_localization_time(M_MOON) / evaporation_time(M_MOON)
    assert exact == pytest.approx(LOC_RATIO_EXACT, rel=1e-12)
    rounded = planck_localization_time(M_MOON, rounded=True) / evaporation_time(M_MOON)
    assert rounded == pytest.approx(4.375, rel=1e-12)


def test_localization_matches_small_dx_rate():
    # at dx = l_p the small-separation law reproduces the closed coefficient
    mass = 1e9
    geom = SuperpositionGeometry.from_mass(mass, planck_length())
    assert 1.0 / vacuum_rate_small_dx(geom) == pytest.approx(
        planck_localization_time(mass, mode="vacuum"), rel=1e-10)
    assert 1.0 / thermal_bh_rate(geom) == pytest.approx(
        planck_localization_time(mass, mode="thermal"), rel=1e-10)


def test_overlap_and_complement_against_mpmath():
    # 50-digit reference -Im psi1(1 + iy) / (2 zeta(3) y) at the y the
    # geometry actually holds, on 161 log-spaced y in [1e-8, 1e8]; the
    # worst errors sit near y = 3.2 (overlap, 1.7e-15) and just above the
    # complement-series switch at y = 0.05 (complement, 1.5e-13)
    worst_overlap = worst_complement = 0.0
    with mpmath.workdps(50):
        two_zeta3 = 2 * mpmath.zeta(3)
        for y_target in np.logspace(-8.0, 8.0, 161):
            geom = SuperpositionGeometry(4.0 * math.pi * float(y_target), 1.0)
            y = mpmath.mpf(geom.y)
            exact = -mpmath.im(mpmath.psi(1, mpmath.mpc(1, y))) / (two_zeta3 * y)
            worst_overlap = max(worst_overlap,
                                float(abs(vacuum_overlap(geom) - exact) / exact))
            worst_complement = max(worst_complement,
                                   float(abs(one_minus_overlap(geom) - (1 - exact)) / (1 - exact)))
    assert worst_overlap <= 3e-15
    assert worst_complement <= 2.5e-13
