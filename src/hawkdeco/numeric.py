"""Independent numerical routes to the quantities with closed forms.

Everything here deliberately avoids the trigamma/zeta machinery that the
closed forms use, so agreement between the two is a real cross-check and
not a tautology:

  * overlap_numeric  -- the sinc-weighted spectral average, by quadrature
  * rate_numeric     -- emission rate times (1 - overlap), by quadrature
  * trigamma_series  -- psi1 by direct summation with an integral tail

The overlap integrand in u = 4 pi omega R_s / c is

    (u^2 / (e^u - 1)) sinc(alpha u),   alpha = dx / (4 pi R_s),

integrated over [u_min, u_min + 41.5] and divided by the same integral
without the sinc (spectrum.bose_integral, cached, so most calls integrate
only the numerator), both to abs_tol scaled to the cut integral's size
(spectrum.cut_spec).  For alpha <= 1 the first pass runs on the kernel's
knees and the sinc zeros with every gap halved, the bisection that a pass on
the bare seeds mostly needs.  For alpha > 1 the integrand oscillates faster than
blind refinement resolves economically, so the domain is split at the sinc
zeros k pi / alpha, where the per-lobe integrals alternate in sign.  Past
128 lobes (alpha > 9.7) the first 64 are integrated and the rest of the
series is summed from the next 64 by repeated averaging of their partial
sums (Euler acceleration), geometrically convergent for this smooth tail.
The 128 lobes are one GK15 batch, and the first 64 are refined only if they
miss the target, so a call usually evaluates the integrand once.

The cancellation hazard in 1 - overlap at small alpha is kept out of the
rate by integrating (u^2/(e^u - 1)) (1 - sinc(alpha u)) directly with a
series-stabilized 1 - sinc kernel.
"""

from __future__ import annotations

import math

import numpy as np

from .blackhole import _count
from .quadrature import QuadratureSpec, gk15_batch, integrate_adaptive, refine
from .rates import SuperpositionGeometry
from .special import _trigamma_domain, one_minus_sinc, sinc
from .spectrum import (EmissionSpectrum, U_TRUNCATION, bose_integral, bose_seed_points,
                       bose_spectral_kernel, cut_spec)

# Past this many sinc lobes the remaining alternating series is
# accelerated instead of integrated lobe by lobe.
_EXPLICIT_LOBES = 64
_ACCEL_LOBES = 64
_EULER_WEIGHTS = np.array([[0.0] * s + [math.comb(m, i) / 2.0 ** m for i in range(m + 1)]
                           for m, s in ((_ACCEL_LOBES - 1, 0), (_ACCEL_LOBES - 2, 1))])


def trigamma_series(z: complex, terms: int = 10000) -> complex:
    """psi1(z) = sum_n 1/(z+n)^2 with the Euler-Maclaurin tail
    1/(z+N) + 1/(2 (z+N)^2).  Direct route, no recurrence, no Bernoulli
    expansion; the reference the fast implementation is checked against.

    With z = x + iy, a = x + n and d = a^2 + y^2, each term is
    ((a^2 - y^2) - 2ayi) / d^2, formed in real elementwise arithmetic.
    The real parts, and then the imaginary parts, are added together with
    the two tail pieces by one ``math.fsum`` each, which is correctly
    rounded.  Every step is thus a correctly rounded IEEE-754 operation,
    so the result is the same to the last bit on any platform and numpy
    build."""
    z = _trigamma_domain(z)
    terms = _count("terms", terms, 100)
    x, y = z.real, z.imag
    a = x + np.arange(terms + 1, dtype=float)
    d = a * a + y * y
    # divide by d twice: d * d would under- or overflow for |z + n|
    # outside about [1e-77, 1e77], where d itself is still finite
    re = (a * a - y * y) / d / d
    im = -2.0 * a * y / d / d
    # Tail at n = N: 1/(z+N) = (a_N - iy) / d_N, and 1/(2 (z+N)^2) is
    # half of the n = N term.
    real = math.fsum(re[:-1].tolist() + [a[-1] / d[-1], 0.5 * re[-1]])
    imag = math.fsum(im[:-1].tolist() + [-y / d[-1], 0.5 * im[-1]])
    return complex(real, imag)


def trigamma_series_error_bound(z: complex, terms: int = 10000) -> float:
    """Truncation bound for trigamma_series: the next Euler-Maclaurin
    correction 1/(6 |z+N|^3), padded 2x for the terms beyond it."""
    w = abs(_trigamma_domain(z) + _count("terms", terms, 100))
    return 2.0 / (6.0 * w ** 3)


def _sinc_zeros(alpha: float, u_min: float) -> tuple[np.ndarray, int]:
    """The edges of the first _EXPLICIT_LOBES + _ACCEL_LOBES sinc lobes on
    [u_min, top], top = u_min + U_TRUNCATION (u_min, the zeros pi k / alpha
    strictly between, then top), and the number of lobes on the whole
    range, about 13.2 alpha.  Only the edges that the oracle reads are built."""
    top = u_min + U_TRUNCATION
    k_top = top * alpha / math.pi
    k_first = int(math.floor(u_min * alpha / math.pi)) + 1 if k_top < math.inf else 2 ** 53
    # past k = 2^53 (or an infinite last zero) adjacent edges are no longer distinct doubles
    if k_first + _EXPLICIT_LOBES + _ACCEL_LOBES >= 2 ** 53:
        raise ValueError(f"delta_x / r_s={4.0 * math.pi * alpha:g} puts the sinc zeros above "
                         f"u={u_min:g} closer together than adjacent doubles")
    k_last = int(math.ceil(k_top)) - 1
    # a rounded quotient may put the first or the last zero on or past its bound
    if k_first <= k_last and math.pi * k_first / alpha <= u_min:
        k_first += 1
    if k_first <= k_last and math.pi * k_last / alpha >= top:
        k_last -= 1
    n_lobes = k_last - k_first + 2
    whole = n_lobes <= _EXPLICIT_LOBES + _ACCEL_LOBES
    read = n_lobes - 1 if whole else _EXPLICIT_LOBES + _ACCEL_LOBES
    # k in floats: exact below 2^53, and no int64 overflow above
    zeros = np.pi * (float(k_first) + np.arange(read, dtype=float)) / alpha
    return np.concatenate(([u_min], zeros, [top] if whole else [])), n_lobes


def _accelerated_tail(lobe_values: np.ndarray) -> tuple[float, float]:
    # Euler acceleration of the _ACCEL_LOBES alternating lobes: averaging
    # adjacent partial sums S_0 .. S_n-1 until one is left, n - 1 rounds, gives
    # their binomial mean sum_i C(n-1, i) S_i / 2^(n-1), taken as one dot
    # product.  Error estimate is the move from the mean one round earlier
    # (of S_1 .. S_n-1), doubled to stay on the conservative side.
    estimate, earlier = _EULER_WEIGHTS @ np.cumsum(lobe_values)
    return float(estimate), 2.0 * abs(float(estimate - earlier))


def _oscillatory_integral(alpha: float, u_min: float, quad: QuadratureSpec) -> tuple[float, float]:
    """integral of bose * sinc(alpha u) over [u_min, u_min + U_TRUNCATION]
    for alpha > 1, split at the sinc zeros.  Returns (value, error estimate)."""

    def f(u):
        return bose_spectral_kernel(u) * sinc(alpha * u)

    points, n_lobes = _sinc_zeros(alpha, u_min)
    if n_lobes <= _EXPLICIT_LOBES + _ACCEL_LOBES:
        return integrate_adaptive(f, points, quad)

    # One batch for every lobe read: the head's first pass and the accelerated
    # lobes.  The head is refined from there only if it misses the target.
    a, b = points[:-1], points[1:]
    values, errors = gk15_batch(f, a, b)
    n = _EXPLICIT_LOBES
    head, head_err = refine(f, a[:n], b[:n], values[:n], errors[:n], quad)
    tail, tail_err = _accelerated_tail(values[n:])
    # The acceleration implicitly sums the series on past u_min + U_TRUNCATION;
    # that continuation is bounded by the Bose tail there, at most 8.6e-16 of
    # the denominator at every cut-off, as the truncation moves with the cut-off.
    return head + tail, head_err + tail_err + float(errors[n:].sum())


def _seed_points(u_min: float, alpha: float) -> list[float]:
    # the kernel's breakpoints plus the sinc zeros in range, for 0 < alpha <= 1
    return sorted(set(bose_seed_points(u_min)) | set(_sinc_zeros(alpha, u_min)[0].tolist()))


def _halved_seed_points(u_min: float, alpha: float) -> np.ndarray:
    # _seed_points and each gap's midpoint: a first pass on the bare seeds
    # mostly misses the target and then bisects every gap, so start here
    seeds = np.array(_seed_points(u_min, alpha))
    return np.concatenate((seeds, 0.5 * (seeds[:-1] + seeds[1:])))  # integrate_adaptive sorts


def overlap_numeric_detail(
    geom: SuperpositionGeometry,
    omega_min: float = 0.0,
    quad: QuadratureSpec = QuadratureSpec(),
) -> tuple[float, float]:
    """(overlap, error estimate) by quadrature, for the spectrum of the
    hole of radius geom.r_s cut off below omega_min."""
    u_min = EmissionSpectrum(r_s=geom.r_s, omega_min=omega_min).u_min
    denom, denom_err = bose_integral(u_min, quad)
    alpha = geom.y
    if alpha == 0.0:
        return 1.0, 0.0
    quad = cut_spec(u_min, quad)
    if alpha <= 1.0:
        num, num_err = integrate_adaptive(
            lambda u: bose_spectral_kernel(u) * sinc(alpha * u),
            _halved_seed_points(u_min, alpha), quad)
    else:
        num, num_err = _oscillatory_integral(alpha, u_min, quad)
    value = num / denom
    err = (num_err + abs(value) * denom_err) / denom
    return value, err


def overlap_numeric(
    geom: SuperpositionGeometry,
    omega_min: float = 0.0,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Sinc-weighted spectral average of the emission spectrum: the
    emitted-photon overlap, computed without the closed form."""
    return overlap_numeric_detail(geom, omega_min, quad)[0]


def rate_numeric_detail(
    geom: SuperpositionGeometry,
    omega_min: float = 0.0,
    quad: QuadratureSpec = QuadratureSpec(),
) -> tuple[float, float]:
    """(rate, error estimate) in s^-1 by quadrature, for the spectrum of
    the hole of radius geom.r_s cut off below omega_min."""
    spectrum = EmissionSpectrum(r_s=geom.r_s, omega_min=omega_min)
    u_min = spectrum.u_min
    bose_seed_points(u_min)  # rejects a cut-off beyond the spectrum on every branch
    alpha = geom.y
    if alpha == 0.0:
        return 0.0, 0.0
    if alpha <= 1.0:
        # positive integrand, relative accuracy survives small alpha
        comp, comp_err = integrate_adaptive(
            lambda u: bose_spectral_kernel(u) * one_minus_sinc(alpha * u),
            _halved_seed_points(u_min, alpha), cut_spec(u_min, quad))
    else:
        denom, denom_err = bose_integral(u_min, quad)
        num, num_err = _oscillatory_integral(alpha, u_min, cut_spec(u_min, quad))
        comp = denom - num
        comp_err = num_err + denom_err
    per_u_rate = spectrum.per_u_rate()
    return per_u_rate * comp, per_u_rate * comp_err


def rate_numeric(
    geom: SuperpositionGeometry,
    omega_min: float = 0.0,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Vacuum decoherence rate by quadrature: per-u emission coefficient
    times the integral of the spectrum weighted by 1 - sinc."""
    return rate_numeric_detail(geom, omega_min, quad)[0]
