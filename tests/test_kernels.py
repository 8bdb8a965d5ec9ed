"""The oracle's kernels and its blocked GK15 evaluation against their
one-shot forms: the same bits, and bounded memory per integrand call."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from hawkdeco import SuperpositionGeometry, overlap_numeric, rate_numeric
from hawkdeco import numeric, quadrature
from hawkdeco.quadrature import gk15_batch, gk15_panels, gk15_sums
from hawkdeco.special import one_minus_sinc, sinc
from hawkdeco.spectrum import bose_spectral_kernel


def one_shot_gk15_batch(f, a, b):
    """Reference: every interval's 15 nodes in one integrand call, summed
    per row (the form before blocked evaluation)."""
    nodes, half = gk15_panels(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    y = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    if not np.all(np.isfinite(y)):
        raise ValueError("integrand returned a non-finite value")
    return gk15_sums(y, half)


def where_sinc(x):
    """Reference: both branches on every element, joined by np.where; 0 at +-inf."""
    infinite = np.isinf(x)
    arr = np.where(infinite, 1.0, np.asarray(x, dtype=float))
    small = np.abs(arr) < 1e-4
    safe = np.where(small, 1.0, arr)
    x2 = arr * arr
    out = np.where(small, 1.0 - x2 / 6.0 + x2 * x2 / 120.0, np.sin(safe) / safe)
    out = np.where(infinite, 0.0, out)
    if out.ndim == 0:
        return float(out)
    return out


def where_one_minus_sinc(x):
    """Reference: both branches on every element, joined by np.where; 1 at +-inf."""
    infinite = np.isinf(x)
    arr = np.where(infinite, 1.0, np.asarray(x, dtype=float))
    small = np.abs(arr) < 0.125
    safe = np.where(small, 1.0, arr)
    x2 = arr * arr
    series = x2 / 6.0 - x2 * x2 / 120.0 + x2 * x2 * x2 / 5040.0 - x2 * x2 * x2 * x2 / 362880.0
    out = np.where(small, series, 1.0 - np.sin(safe) / safe)
    out = np.where(infinite, 1.0, out)
    if out.ndim == 0:
        return float(out)
    return out


def indexed_bose_kernel(u):
    """Reference: each branch on a fancy-indexed copy of its elements, and 0
    past u = 746, where e^-u is 0 (there u^2 e^-u gave NaN from u ~ 1.35e154)."""
    arr = np.asarray(u, dtype=float)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr)
    out = np.zeros_like(flat)
    pos = flat > 0.0
    up = flat[pos]
    res = np.empty_like(up)
    small = up <= 37.0
    res[small] = up[small] ** 2 / np.expm1(up[small])
    tail = ~small & (up <= 746.0)
    res[tail] = up[tail] ** 2 * np.exp(-up[tail])
    res[up > 746.0] = 0.0
    out[pos] = res
    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)


def _around(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


EDGES = np.array([0.0, -0.0, 1e-5, -1e-5, *_around(1e-4), *_around(-1e-4), *_around(37.0),
                  41.5, 700.0, 1000.0, -0.5, -37.0, -1e3, 5e-324, 1e-300, math.pi, np.nan,
                  math.inf, -math.inf])
# past the underflow of e^-u, up to where u^2 overflows and beyond
BOSE_EDGES = np.concatenate([EDGES, _around(745.0), _around(746.0),
                             [1e153, 1.35e154, 1e300, math.inf]])
# the series cut of one_minus_sinc and the far ends
ONE_MINUS_SINC_EDGES = np.concatenate([EDGES, _around(0.125), _around(-0.125), [1e6, -1e6]])
# oracle-like node sets: the GK15 nodes of the first 2500 lobes of bose * sinc(300 u)
LOBES = np.pi * np.arange(2501) / 300.0
NODES = gk15_panels(LOBES[:-1], LOBES[1:])[0].ravel()


def _same_bits(new, ref):
    assert type(new) is type(ref)
    assert np.shape(new) == np.shape(ref)
    assert np.asarray(new).tobytes() == np.asarray(ref).tobytes()


@pytest.mark.parametrize("kernel, reference, edges, arguments", [
    (sinc, where_sinc, EDGES, [300.0 * NODES, EDGES * 1e-4]),
    (one_minus_sinc, where_one_minus_sinc, ONE_MINUS_SINC_EDGES,
     [300.0 * NODES, NODES, ONE_MINUS_SINC_EDGES * 1e-2]),
    (bose_spectral_kernel, indexed_bose_kernel, BOSE_EDGES, [NODES, 41.5 - NODES]),
])
def test_kernel_bits_match_the_reference(kernel, reference, edges, arguments):
    for arr in [edges, *arguments]:
        _same_bits(kernel(arr), reference(arr))
        _same_bits(kernel(arr.reshape(1, -1, 1)), reference(arr.reshape(1, -1, 1)))
        _same_bits(kernel(arr[::-3]), reference(arr[::-3]))  # a strided view
        for x in arr[::97].tolist() + edges.tolist():
            _same_bits(kernel(x), reference(x))
            _same_bits(kernel(np.array(x)), reference(np.array(x)))
    _same_bits(kernel(np.empty((0, 3))), reference(np.empty((0, 3))))


def test_kernels_at_zero_and_past_overflow_are_quiet():
    # the common branch divides 0 by 0 at zero and overflows past u ~ 709.8;
    # warnings are errors in this suite
    assert sinc(0.0) == 1.0
    assert bose_spectral_kernel(0.0) == 0.0
    assert bose_spectral_kernel(np.array([0.0, 1000.0, -1.0])).tolist() == [0.0, 0.0, 0.0]
    assert np.isnan(sinc(np.nan)) and bose_spectral_kernel(np.nan) == 0.0
    assert one_minus_sinc(0.0) == 0.0 and np.isnan(one_minus_sinc(np.nan))
    # sin(x)/x -> 0 at +-inf, where sin itself is NaN with an invalid-value warning
    assert [sinc(math.inf), sinc(-math.inf)] == [0.0, 0.0]
    assert [one_minus_sinc(math.inf), one_minus_sinc(-math.inf)] == [1.0, 1.0]
    assert sinc(np.array([math.inf, 1e-5, np.nan, 2.0])).tolist()[:2] == [0.0, sinc(1e-5)]
    # past u ~ 1.35e154, u^2 overflowed against e^-u = 0: NaN and an overflow warning
    far = [1e153, 1.35e154, 1e300, math.inf]
    assert bose_spectral_kernel(np.array(far)).tolist() == [0.0] * 4
    assert [bose_spectral_kernel(u) for u in far] == [0.0] * 4


def test_gk15_batch_bits_match_one_shot_over_ragged_blocks():
    # 2500 intervals: two full blocks of 1024 and a ragged one of 452
    assert len(LOBES) - 1 == 2500 > 2 * quadrature._BLOCK

    def f(u):
        return bose_spectral_kernel(u) * sinc(300.0 * u)

    for a, b in ((LOBES[:-1], LOBES[1:]), (LOBES[:-1], LOBES[:-1] + 1e-3)):
        new, ref = gk15_batch(f, a, b), one_shot_gk15_batch(f, a, b)
        for got, want in zip(new, ref):
            _same_bits(got, want)


def test_integrand_never_sees_more_than_one_block(monkeypatch):
    sizes = []

    def kernel(u):
        sizes.append(u.size)
        return bose_spectral_kernel(u)

    gk15_batch(kernel, LOBES[:-1], LOBES[1:])
    assert sizes == [15 * 1024, 15 * 1024, 15 * 452]
    # the oracle at dx/R_s = 1e4 reads 128 lobes (64 integrated, 64 accelerated)
    monkeypatch.setattr(numeric, "bose_spectral_kernel", kernel)
    sizes.clear()
    geom = SuperpositionGeometry(1e4, 1.0)
    rate_numeric(geom)
    overlap_numeric(geom)
    assert sizes and max(sizes) <= 15 * 1024


@pytest.mark.parametrize("oracle", [rate_numeric, overlap_numeric])
def test_oracle_peak_memory_at_large_separation(oracle):
    geom = SuperpositionGeometry(1e4, 1.0)
    tracemalloc.start()
    try:
        oracle(geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


# a seeded log-uniform grid of dx/R_s in [1e-6, 1e8], each oracle value and
# its estimate under the default and a tight spec, as hex
ORACLE_BITS = """
import numpy as np
from hawkdeco import QuadratureSpec, SuperpositionGeometry, numeric
oracle = getattr(numeric, {name!r})
grid = np.power(10.0, np.random.default_rng(7).uniform(-6.0, 8.0, 60)).tolist()
for quad in (QuadratureSpec(), QuadratureSpec(rel_tol=1e-12, abs_tol=1e-16)):
    for dx in grid:
        print(*(v.hex() for v in oracle(SuperpositionGeometry(dx, 1.0), quad=quad)))
"""


@pytest.mark.parametrize("name", ["rate_numeric_detail", "overlap_numeric_detail"])
def test_oracle_bits_do_not_depend_on_the_blas_kernel(name):
    # the GK15 sums are per row, not BLAS products, so an older OpenBLAS
    # kernel (where numpy links OpenBLAS) leaves every bit in place
    def run(**env):
        return subprocess.run(
            [sys.executable, "-c", ORACLE_BITS.format(name=name)], capture_output=True,
            text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **env}).stdout
    lines = run().splitlines()
    assert len(lines) == 120
    assert run(OPENBLAS_CORETYPE="Nehalem").splitlines() == lines
