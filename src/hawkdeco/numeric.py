"""Independent numerical routes to the quantities with closed forms.

Everything here deliberately avoids the trigamma/zeta machinery that the
closed forms use, so agreement between the two is a real cross-check and
not a tautology:

  * overlap_numeric  -- the sinc-weighted spectral average, by quadrature
  * rate_numeric     -- emission rate times (1 - overlap), by quadrature
  * trigamma_series  -- -Im psi1(1 + iy) / y by direct summation with a tail

The overlap integrand in u = 4 pi omega R_s / c is

    (u^2 / (e^u - 1)) sinc(alpha u),   alpha = dx / (4 pi R_s),

integrated over [0, 50] and divided by the same integral without the sinc
(spectrum.bose_integral, cached, so most calls integrate only the
numerator).  What does not depend on alpha is tabulated once, lazily, so
that a call evaluates one transcendental factor on the nodes of one first
pass: for alpha <= 1 the sinc (or 1 - sinc) on a fixed panel grid that
holds the kernel (_panel_table); for alpha > 1 the kernel on the lobes
between the sinc zeros, taken in c = alpha u / pi, where lobe k is
[k, k + 1] and the sinc on a whole lobe comes from a table of sin(pi t)
(_lobe_table), free of the phase rounding of sin(alpha u).  Past 128 lobes
(alpha > 8.04) the first 64 are integrated and the rest of the series is
summed from the next 64 by repeated averaging of their partial sums (Euler
acceleration), geometrically convergent for this smooth tail.  Each panel's
Kronrod and Gauss values are summed per row (quadrature.gk15_sums), so their
bits do not depend on the batch layout or the BLAS kernel; a first pass that
misses the target (past 128 lobes, of the first 64) is refined from there.

The cancellation hazard in 1 - overlap at small alpha is kept out of the
rate by integrating (u^2/(e^u - 1)) (1 - sinc(alpha u)) directly with a
series-stabilized 1 - sinc kernel.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .blackhole import _count, _non_negative
from .quadrature import QuadratureSpec, gk15_panels, gk15_sums, refine
from .rates import SuperpositionGeometry
from .special import one_minus_sinc, sinc
from .spectrum import (BOSE_KNEES, BOSE_SEEDS, U_TRUNCATION, bose_integral, bose_spectral_kernel,
                       per_u_rate)

# Panel edges for alpha <= 1: the kernel's seeds and 12 more, 17 panels on
# which the first pass meets even the fixture's tight spec (rel_tol 1e-12,
# abs_tol 1e-16) at every alpha <= 1, its error estimate at least 100 times
# below the target.
_PANEL_EDGES = sorted({*BOSE_SEEDS, 3.5, 5.0, 6.5, 10.0, 12.0, 14.0, 17.0, 24.0, 28.0, 33.0,
                       38.0, 44.0})
# Past this many sinc lobes the remaining alternating series is
# accelerated instead of integrated lobe by lobe.
_EXPLICIT_LOBES = 64
_ACCEL_LOBES = 64
_EULER_WEIGHTS = np.array([[0.0] * s + [math.comb(m, i) / 2.0 ** m for i in range(m + 1)]
                           for m, s in ((_ACCEL_LOBES - 1, 0), (_ACCEL_LOBES - 2, 1))])


def trigamma_series(y: float, terms: int = 10000) -> float:
    """-Im psi1(1 + iy) / y = sum_{a >= 1} 2a / d^2, d = a^2 + y^2, for real
    y >= 0 (2 zeta(3) at y = 0): the first N = terms terms and the
    Euler-Maclaurin tail at a_N = N + 1, 1/d_N plus half the term there.
    Direct route, no recurrence, no Bernoulli expansion; the reference
    that rates._trigamma_im_over_y is checked against.  The terms and the
    tail are added by one ``math.fsum``, which is correctly rounded, so
    every step is a correctly rounded IEEE-754 operation and the result is
    the same to the last bit on any platform and numpy build."""
    y = _non_negative("y", y)
    a = np.arange(1.0, _count("terms", terms, 100) + 2.0)
    d = a * a + y * y
    # divide by d twice: d * d overflows once d passes 1e154, d does not
    f = 2.0 * a / d / d
    return math.fsum(f[:-1].tolist() + [1.0 / d[-1], 0.5 * f[-1]])


def trigamma_series_error_bound(y: float, terms: int = 10000) -> float:
    """Truncation bound for trigamma_series: the next Euler-Maclaurin
    correction |f'(a_N)|/12 <= 1/(2 d_N^2), f(a) = 2a / d^2, padded 2x for
    the terms beyond it.  Rounding adds at most a few ulps."""
    y = _non_negative("y", y)
    a = _count("terms", terms, 100) + 1.0
    d = a * a + y * y
    return 1.0 / d / d


def _read_only(*arrays: np.ndarray) -> tuple:
    # a memoised table is shared by every later call: no caller may write to it
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@functools.cache
def _panel_table() -> tuple:
    """The alpha <= 1 first pass, for every alpha: the panels on _PANEL_EDGES,
    their GK15 nodes and half-widths, and the kernel on the nodes."""
    edges = np.array(_PANEL_EDGES)
    a, b = edges[:-1], edges[1:]
    nodes, half = gk15_panels(a, b)
    return _read_only(a, b, nodes, half, bose_spectral_kernel(nodes))


def _panel_integral(weight, quad: QuadratureSpec) -> tuple[float, float]:
    """integral of bose * weight(u) over [0, U_TRUNCATION], for a weight that
    varies on the scale of the panels (sinc(alpha u), alpha <= 1): one pass
    over the cached table, refined only if it misses the target."""
    a, b, nodes, half, kernel = _panel_table()
    return refine(lambda u: bose_spectral_kernel(u) * weight(u), a, b,
                  *gk15_sums(kernel * weight(nodes), half), quad)


@functools.cache
def _lobe_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first _EXPLICIT_LOBES + _ACCEL_LOBES lobes [k, k + 1] of sin(pi c):
    their left edges, their GK15 nodes, and sin(pi c) / (pi c) on the nodes,
    the sine (-1)^k sin(pi t) from the 15 values of sin(pi t) on the nodes t
    of [0, 1]."""
    ks = np.arange(_EXPLICIT_LOBES + _ACCEL_LOBES, dtype=float)
    nodes, _ = gk15_panels(ks, ks + 1.0)
    t = gk15_panels(np.zeros(1), np.ones(1))[0][0]
    # taken on the nearer half of the lobe, the sine keeps its relative
    # accuracy next to the zeros
    sin_t = np.sin(np.pi * np.minimum(t, 1.0 - t))
    return _read_only(ks, nodes,
                      np.multiply.outer(1.0 - 2.0 * np.fmod(ks, 2.0), sin_t) / (np.pi * nodes))


def _lobes(alpha: float) -> tuple[float, int]:
    """(c_top, n): in c = alpha u / pi, where lobe k of sinc(alpha u) is
    [k, k + 1], the truncation c_top and the number of lobes below it,
    about 15.9 alpha."""
    c_top = U_TRUNCATION * alpha / math.pi
    if c_top == math.inf:
        raise ValueError(f"delta_x / r_s={4.0 * math.pi * alpha:g} puts the sinc zeros "
                         f"below u={U_TRUNCATION:g} past the largest double")
    return c_top, math.ceil(c_top)


def _accelerated_tail(lobe_values: np.ndarray) -> tuple[float, float]:
    # Euler acceleration of the _ACCEL_LOBES alternating lobes: averaging
    # adjacent partial sums S_0 .. S_n-1 until one is left, n - 1 rounds, gives
    # their binomial mean sum_i C(n-1, i) S_i / 2^(n-1), taken as one dot
    # product.  Error estimate is the move from the mean one round earlier
    # (of S_1 .. S_n-1), doubled to stay on the conservative side.
    estimate, earlier = _EULER_WEIGHTS @ np.cumsum(lobe_values)
    return float(estimate), 2.0 * abs(float(estimate - earlier))


def _oscillatory_integral(alpha: float, quad: QuadratureSpec) -> tuple[float, float]:
    """integral of bose * sinc(alpha u) over [0, U_TRUNCATION] for alpha > 1,
    lobe by lobe in c = alpha u / pi, where sinc(alpha u) is sinc(pi c) and
    du = (pi / alpha) dc.  Returns (value, error estimate)."""
    scale = math.pi / alpha

    def f(c):
        return scale * bose_spectral_kernel(c * scale) * sinc(np.pi * c)

    c_top, n_lobes = _lobes(alpha)
    accelerate = n_lobes > _EXPLICIT_LOBES + _ACCEL_LOBES
    # The panels: the first lobe, split at the kernel's knees in it, whole
    # lobes from the table, and the last lobe, cut at the truncation, unless
    # the series is accelerated before it.  The pieces of lobes take the
    # sinc on their own nodes.
    first = [0.0, *(c for c in (p / scale for p in BOSE_KNEES) if c < 1.0), 1.0]
    pieces = [] if len(first) == 2 else list(zip(first[:-1], first[1:]))
    n_first = len(pieces)
    if not accelerate:
        pieces.append((n_lobes - 1.0, c_top))
    ks, nodes, sincs = _lobe_table()
    stop = _EXPLICIT_LOBES + _ACCEL_LOBES if accelerate else n_lobes - 1
    whole = slice(1 if n_first else 0, stop)
    a, b, nodes, sincs = ks[whole], ks[whole] + 1.0, nodes[whole], sincs[whole]
    if pieces:
        pa, pb = np.array(pieces).T
        pn = gk15_panels(pa, pb)[0]
        x = np.pi * pn
        a, b, nodes, sincs = (np.concatenate((p[:n_first], w, p[n_first:]))
                              for p, w in ((pa, a), (pb, b), (pn, nodes), (np.sin(x) / x, sincs)))
    y = bose_spectral_kernel(nodes * scale) * sincs
    values, errors = gk15_sums(y, (0.5 * scale) * (b - a))

    n_head = len(a) - _ACCEL_LOBES if accelerate else len(a)
    head, head_err = refine(f, a[:n_head], b[:n_head], values[:n_head], errors[:n_head], quad)
    if not accelerate:
        return head, head_err
    tail, tail_err = _accelerated_tail(values[n_head:])
    # The acceleration implicitly sums the series on past U_TRUNCATION; that
    # continuation is bounded by the Bose tail there, at most 2.6e-19 of the
    # denominator.
    return head + tail, head_err + tail_err + float(errors[n_head:].sum())


def overlap_numeric_detail(
    geom: SuperpositionGeometry,
    *,
    quad: QuadratureSpec = QuadratureSpec(),
) -> tuple[float, float]:
    """(overlap, error estimate) by quadrature, for the spectrum of the
    hole of radius geom.r_s."""
    alpha = geom.y
    if alpha == 0.0:
        return 1.0, 0.0
    denom, denom_err = bose_integral(quad)
    if alpha <= 1.0:
        num, num_err = _panel_integral(lambda u: sinc(alpha * u), quad)
    else:
        num, num_err = _oscillatory_integral(alpha, quad)
    value = num / denom
    err = (num_err + abs(value) * denom_err) / denom
    return value, err


def overlap_numeric(
    geom: SuperpositionGeometry,
    *,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Sinc-weighted spectral average of the emission spectrum: the
    emitted-photon overlap, computed without the closed form."""
    return overlap_numeric_detail(geom, quad=quad)[0]


def rate_numeric_detail(
    geom: SuperpositionGeometry,
    *,
    quad: QuadratureSpec = QuadratureSpec(),
) -> tuple[float, float]:
    """(rate, error estimate) in s^-1 by quadrature, for the spectrum of
    the hole of radius geom.r_s."""
    alpha = geom.y
    if alpha == 0.0:
        return 0.0, 0.0
    if alpha <= 1.0:
        # positive integrand, relative accuracy survives small alpha
        comp, comp_err = _panel_integral(lambda u: one_minus_sinc(alpha * u), quad)
    else:
        denom, denom_err = bose_integral(quad)
        num, num_err = _oscillatory_integral(alpha, quad)
        comp = denom - num
        comp_err = num_err + denom_err
    scale = per_u_rate(geom.r_s)
    return scale * comp, scale * comp_err


def rate_numeric(
    geom: SuperpositionGeometry,
    *,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Vacuum decoherence rate by quadrature: per-u emission coefficient
    times the integral of the spectrum weighted by 1 - sinc."""
    return rate_numeric_detail(geom, quad=quad)[0]
