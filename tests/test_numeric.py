"""Quadrature route vs closed forms, and the direct series for -Im psi1(1 + iy) / y."""

import functools
import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from hawkdeco import (
    QuadratureSpec,
    SuperpositionGeometry,
    overlap_numeric,
    rate_numeric,
    schwarzschild_radius,
    trigamma_series,
    trigamma_series_error_bound,
    vacuum_overlap,
    vacuum_rate,
)
from hawkdeco import numeric, quadrature
from hawkdeco.numeric import overlap_numeric_detail, rate_numeric_detail
from hawkdeco.quadrature import integrate_adaptive
from hawkdeco.special import sinc
from hawkdeco.spectrum import BOSE_SEEDS, U_TRUNCATION, bose_spectral_kernel, per_u_rate

M_EARTH = 5.97e24


def geom_at(dx_over_rs: float, r_s: float = 1.0) -> SuperpositionGeometry:
    return SuperpositionGeometry(delta_x=dx_over_rs * r_s, r_s=r_s)


@pytest.mark.parametrize("terms", [10000, 200000])
@pytest.mark.parametrize("y", [0.0, 0.01, 1.0, 7.29, 50.0, 1e3])
def test_trigamma_series_against_mpmath(y, terms):
    # -Im psi1(1 + iy) / y at 40 digits, 2 zeta(3) exactly at y = 0, within
    # the truncation bound plus the rounding: a term is three rounded
    # operations, and fsum rounds once
    with mpmath.workdps(40):
        exact = (2 * mpmath.zeta(3) if y == 0.0
                 else -mpmath.im(mpmath.psi(1, mpmath.mpc(1, y))) / y)
        value = trigamma_series(y, terms=terms)
        bound = trigamma_series_error_bound(y, terms=terms)
        assert abs(value - exact) <= bound + 4 * math.ulp(value)


def test_trigamma_series_past_the_square_root_of_the_double_range():
    # d = a^2 + y^2 is finite, d^2 is not: the tail 1/d_N carries the 1/y^2
    assert trigamma_series(1e100) == pytest.approx(1e-200, rel=1e-15)
    # y^2 itself overflows: every term and the tail are +0.0
    assert trigamma_series(1e160) == 0.0
    assert trigamma_series_error_bound(1e100) == 0.0


def test_trigamma_series_moon_argument():
    # Im psi1(1 + iy) = -y (-Im psi1(1 + iy) / y)
    assert -7.29 * trigamma_series(7.29, terms=20000) == pytest.approx(-0.1368, abs=1e-4)


def test_trigamma_series_validation():
    with pytest.raises(ValueError):
        trigamma_series(-3.0)
    with pytest.raises(ValueError):
        trigamma_series(1.0, terms=50)
    with pytest.raises(TypeError):  # real y only
        trigamma_series(1.0 + 1.0j)


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


def _count_passes(monkeypatch):
    # A pass evaluates one transcendental factor on the nodes of a first
    # pass: the sinc (or 1 - sinc) on the alpha <= 1 table, the kernel on the
    # lobes of alpha > 1.  A refinement split runs quadrature.gk15_batch.
    calls = {"pass": 0, "split": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    for name in ("bose_spectral_kernel", "sinc", "one_minus_sinc"):
        monkeypatch.setattr(numeric, name, counted("pass", getattr(numeric, name)))
    monkeypatch.setattr(quadrature, "gk15_batch", counted("split", quadrature.gk15_batch))
    return calls


def test_one_integrand_pass_per_oracle_call(monkeypatch):
    # the tables and the denominator are cached, so each call makes one pass
    # and meets the default target there: alpha <= 1 on the panel table;
    # 1 < alpha <= 10, where the kernel's knees split the first lobe and the
    # series is accelerated past 128 lobes (alpha ~ 8.04); and far past that
    for dx_over_rs in (1.0, 100.0, 1e3):
        overlap_numeric(geom_at(dx_over_rs))
    calls = _count_passes(monkeypatch)
    alphas = ([1e-6, 1e-3, 1e-2] + np.linspace(0.0, 1.0, 201)[1:].tolist()
              + np.linspace(1.0, 10.0, 1001)[1:].tolist())
    for dx_over_rs in [4.0 * math.pi * a for a in alphas] + [1e3, 1e4]:
        for oracle in (rate_numeric, overlap_numeric):
            calls.update({"pass": 0, "split": 0})
            oracle(geom_at(dx_over_rs))
            assert calls == {"pass": 1, "split": 0}, (oracle.__name__, dx_over_rs)


@pytest.mark.parametrize("quad, refined", [
    (QuadratureSpec(), False), (QuadratureSpec(rel_tol=1e-12, abs_tol=1e-20), True)],
    ids=["default", "tight"])
@pytest.mark.parametrize("alpha", [130.0, 1e3, 1e5])
def test_accelerated_head_is_the_integral_of_its_lobes(monkeypatch, alpha, quad, refined):
    # the head of the shared 128-lobe pass is the integral over its 64 lobes,
    # within the estimates of integrate_adaptive split at the sinc zeros in u;
    # under the tight spec it misses the target on the first pass and is
    # refined from there
    zeros = np.pi * np.arange(numeric._EXPLICIT_LOBES + 1.0) / alpha
    ref, ref_err = integrate_adaptive(lambda u: bose_spectral_kernel(u) * sinc(alpha * u),
                                      zeros, quad)
    monkeypatch.setattr(numeric, "_accelerated_tail", lambda lobes: (0.0, 0.0))
    calls = _count_passes(monkeypatch)
    head, err = numeric._oscillatory_integral(alpha, quad)
    assert abs(head - ref) <= err + ref_err
    assert (calls["split"] > 0) == refined


def test_panel_table_holds_the_knees_and_the_kernel():
    a, b, nodes, half, kernel = numeric._panel_table()
    edges = np.append(a, b[-1])
    assert edges[0] == 0.0 and edges[-1] == U_TRUNCATION and len(a) == 17
    assert (np.diff(edges) > 0.0).all() and (b == edges[1:]).all()
    assert set(BOSE_SEEDS) <= set(edges.tolist())
    assert nodes.shape == (len(a), 15) and (half == 0.5 * (b - a)).all()
    assert kernel.tobytes() == bose_spectral_kernel(nodes).tobytes()
    # memoised, so shared by every later call
    assert not any(arr.flags.writeable for arr in (a, b, nodes, half, kernel))


def test_tables_are_built_once_and_not_at_import():
    # importing builds no table; then one of each kind serves every alpha
    code = ("import hawkdeco.numeric as n; "
            "print(n._panel_table.cache_info().currsize, n._lobe_table.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.split() == ["0", "0"]
    for table in (numeric._panel_table, numeric._lobe_table):
        table.cache_clear()
    for dx_over_rs in (1e-3, 1.0, 12.0, 20.0, 100.0, 1e3, 1e4):
        rate_numeric(geom_at(dx_over_rs))
        overlap_numeric(geom_at(dx_over_rs))
    for table in (numeric._panel_table, numeric._lobe_table):
        assert table.cache_info().currsize == 1


def test_lobe_table_is_the_sinc_on_whole_lobes():
    ks, nodes, sincs = numeric._lobe_table()
    assert (ks == np.arange(128.0)).all()
    assert np.all(np.sign(sincs) == (1.0 - 2.0 * (ks % 2.0))[:, None])
    assert np.allclose(sincs, sinc(np.pi * nodes), rtol=0.0, atol=1e-15)
    assert not any(arr.flags.writeable for arr in (ks, nodes, sincs))


# alphas around the switch to acceleration (128 lobes at alpha ~ 8.04),
# and alphas that put a zero on the truncation
LOBE_ALPHAS = [1.0001, 2.0, 8.0, 8.04, 8.05, 9.7, 100.0, 159.5, 1e3, 1e4]
LOBE_ALPHAS += [math.pi * k / U_TRUNCATION for k in (17, 128, 129, 5000)]


@pytest.mark.parametrize("alpha", LOBE_ALPHAS)
def test_lobes_count_the_sinc_lobes(alpha):
    with mpmath.workdps(40):
        c_top, n = numeric._lobes(alpha)
        assert n - 1 < c_top <= n
        exact_top = mpmath.mpf(U_TRUNCATION) * alpha / mpmath.pi
        assert abs(exact_top - mpmath.nint(exact_top)) < 1e-9 or n == int(
            mpmath.ceil(exact_top))


def _closed_forms_mp(alpha: float) -> tuple:
    # rate / per_u_rate and the overlap from psi1(1 + i alpha) at 30 digits:
    # sum_n 2n / (n^2 + alpha^2)^2 = -Im psi1(1 + i alpha) / alpha
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        lobes = -mpmath.im(mpmath.psi(1, 1 + 1j * a)) / a
        return 2 * mpmath.zeta(3) - lobes, lobes / (2 * mpmath.zeta(3))


@pytest.mark.parametrize("alpha", [1e-4, 1e-2, 0.3, 1.0, 1.02, 3.0, 30.0, 300.0])
def test_error_estimates_bound_the_error_against_mpmath(alpha):
    # the whole error, truncation included, against the untruncated integrals
    geom = SuperpositionGeometry(delta_x=4.0 * math.pi * alpha, r_s=1.0)
    complement, overlap = _closed_forms_mp(geom.y)
    scale = per_u_rate(1.0)
    rate, rate_err = rate_numeric_detail(geom)
    assert abs(rate - scale * complement) <= rate_err + 1e-14 * scale * complement
    value, err = overlap_numeric_detail(geom)
    assert abs(value - overlap) <= err + 1e-14  # scale 1, as verify measures it


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


@pytest.mark.parametrize("oracle", [rate_numeric, overlap_numeric])
@pytest.mark.parametrize("dx_over_rs", [5e307, 1e308])
def test_separations_past_distinct_sinc_zeros_name_the_argument(dx_over_rs, oracle):
    # U_TRUNCATION alpha / pi overflows past dx/R_s ~ 4.5e307
    with pytest.raises(ValueError, match=r"^delta_x / r_s=[0-9]e\+30[78] puts the sinc zeros"):
        oracle(geom_at(dx_over_rs))


def _overlap_at_large_y(y: float) -> float:
    # (1/zeta(3)) (1/(2 y^2) - 1/(12 y^4)), the large-y series of the
    # closed form, at 40 digits; the next term is O(y^-6)
    with mpmath.workdps(40):
        y = mpmath.mpf(y)
        return float((1 / (2 * y ** 2) - 1 / (12 * y ** 4)) / mpmath.zeta(3))


@pytest.mark.parametrize("dx_over_rs", [1e40, 1e100, 1e300])
def test_huge_separations_without_cutoff_keep_their_values(dx_over_rs):
    # the lobe edges read are pi k / alpha with k <= 129
    geom = geom_at(dx_over_rs)
    overlap = _overlap_at_large_y(geom.y)
    assert rate_numeric(geom) == pytest.approx(3121476.17761359, rel=1e-14)
    assert overlap_numeric(geom) == pytest.approx(overlap, rel=2e-13, abs=0.0)


@pytest.mark.parametrize("quad", [QuadratureSpec(), QuadratureSpec(rel_tol=1e-12, abs_tol=1e-16)],
                         ids=["default", "tight"])
@pytest.mark.parametrize("dx_over_rs", [100.0, 130.0, 500.0, 3286.0, 3e4, 1e6])
def test_accelerated_and_explicit_lobe_sums_agree(monkeypatch, dx_over_rs, quad):
    # the Euler tail after 64 lobes against 2048 lobes integrated one by one
    geom = geom_at(dx_over_rs)
    runs = []
    for lobes in (64, 2048):
        monkeypatch.setattr(numeric, "_EXPLICIT_LOBES", lobes)
        # a fresh table of that many lobes, the shared one back after the test
        monkeypatch.setattr(numeric, "_lobe_table",
                            functools.cache(numeric._lobe_table.__wrapped__))
        runs.append((overlap_numeric_detail(geom, quad=quad), rate_numeric_detail(geom, quad=quad)))
    for (a, a_err), (b, b_err) in zip(*runs):
        assert abs(a - b) <= a_err + b_err, (a, b, a_err, b_err)


@pytest.mark.parametrize("oracle", [overlap_numeric, overlap_numeric_detail, rate_numeric,
                                    rate_numeric_detail])
def test_quad_is_keyword_only(oracle):
    # a positional second argument is a TypeError at the call, not a float
    # taken for the spec
    with pytest.raises(TypeError):
        oracle(geom_at(1.0), 0.3)
    with pytest.raises(TypeError):
        oracle(geom_at(1.0), QuadratureSpec())
    assert oracle(geom_at(1.0), quad=QuadratureSpec()) == oracle(geom_at(1.0))
