"""The oracle's kernels and its blocked GK15 evaluation against their
one-shot forms: the same bits, and bounded memory per integrand call."""

import math
import tracemalloc

import numpy as np
import pytest

from hawkdeco import SuperpositionGeometry, overlap_numeric, rate_numeric
from hawkdeco import numeric, quadrature
from hawkdeco.quadrature import _NODES, _WG, _WGK, gk15_batch
from hawkdeco.special import one_minus_sinc, sinc
from hawkdeco.spectrum import bose_spectral_kernel


def one_shot_gk15_batch(f, a, b):
    """Reference: every interval's 15 nodes in one integrand call, one
    matrix-vector product per rule (the form before blocked evaluation)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = center[:, None] + half[:, None] * _NODES[None, :]
    y = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    if not np.all(np.isfinite(y)):
        raise ValueError("integrand returned a non-finite value")
    vk = half * (y @ _WGK)
    vg = half * (y @ _WG)
    return vk, np.abs(vk - vg)


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
NODES = (0.5 * (LOBES[:-1] + LOBES[1:])[:, None]
         + 0.5 * (LOBES[1:] - LOBES[:-1])[:, None] * _NODES).ravel()


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
