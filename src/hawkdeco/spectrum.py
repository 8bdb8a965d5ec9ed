"""Photon emission spectrum of a Schwarzschild hole, geometric-optics limit.

The differential emission rate per unit angular frequency is

    Lambda(omega) = (27 R_s^2 omega^2 / (pi c^2)) / (e^u - 1),   u = 4 pi omega R_s / c

for the two photon polarizations; in the dimensionless variable u this
collapses to (27/(16 pi^3)) u^2/(e^u - 1) independent of R_s.  Integrated
over all frequencies,

    Lambda_total = 27 zeta(3) c / (32 pi^4 R_s)  ~=  1.0412e-2 c/R_s,

using int_0^inf u^2/(e^u - 1) du = 2 zeta(3).

Convention: by detailed balance this is sigma omega^2 / (pi^2 c^2) / (e^u - 1)
with sigma = 27 pi R_s^2, the disc of the paper's capture radius sqrt(27) R_s:
4 times the geometric-optics 27 pi G^2 M^2 / c^4, whose critical impact
parameter is sqrt(27) G M / c^2 = (sqrt(27)/2) R_s.  Every rate carries it.

The species count N >= 1 is the one rate multiplier, for N - 1 additional
massless channels; the normalized frequency distribution does not change.

``per_u_rate`` (rate per unit u-integral) and ``BOSE_SEEDS`` (the kernel's
knees and the truncation) serve the oracle and the checks too.
``bose_integral`` is the one quadrature of the spectrum, cached per spec:
the oracle's denominator and the saturation check both read it.
"""

from __future__ import annotations

import contextlib
import functools
import math

import numpy as np

from .blackhole import CODATA2018, PhysicalConstants, _count, _in_range, _non_negative, _positive
from .special import zeta_int
from .quadrature import QuadratureSpec, integrate_adaptive

# The spectrum is integrated over [0, U = 50]; the tail dropped above is
# e^-50 (U^2 + 2U + 2) / 2 <= 2.6e-19 of the integral (analytic bound on
# int_U^inf u^2 e^-u du).  The oracle's rate integrand at small separations
# goes as alpha^2 u^4 e^-u / 6, whose tail e^-50 (U^4 + 4U^3 + 12U^2 + 24U + 24)
# / 24 is at most 5.5e-17 of its integral.
U_TRUNCATION = 50.0
# The kernel's knees: below its mode near u ~ 1.6, past it, and in its decay.
BOSE_KNEES = (0.5, 2.0, 8.0, 20.0)
# Breakpoints for the kernel on [0, U_TRUNCATION]: the ends and the knees.
BOSE_SEEDS = (0.0, *BOSE_KNEES, U_TRUNCATION)


def per_u_rate(r_s, constants: PhysicalConstants = CODATA2018) -> float:
    """27 c / (64 pi^4 r_s) in s^-1, unchecked: the rate of one species per
    unit of the integral of u^2/(e^u - 1) du (2 zeta(3) over all u)."""
    return 27.0 * constants.c / (64.0 * math.pi ** 4 * r_s)


def bose_spectral_kernel(u):
    """u^2 / (e^u - 1), the dimensionless spectral shape; 0 at u = 0.

    expm1 keeps full precision for small u; above u = 37 the denominator
    is e^u to machine precision and the e^-u form avoids overflow.  Past
    u = 746, where e^-u underflows to 0, the kernel is 0 (u = inf too).
    """
    arr = np.asarray(u, dtype=float)
    flat = arr.ravel()  # contiguous: a strided loop may round expm1 differently
    big, off = flat > 37.0, ~(flat > 0.0)  # off: u <= 0 and NaN, which give 0
    rare = big.any() or off.any()
    # u^2/expm1(u) on every element first: on the rare ones it may overflow
    # (u past ~709.8) or divide 0 by 0, and they are overwritten after
    with np.errstate(over="ignore", invalid="ignore") if rare else contextlib.nullcontext():
        out = flat * flat
        out /= np.expm1(flat)
    if rare:
        tail = flat[big]
        tail[tail > 746.0] = 0.0  # e^-u is 0 there and u^2 may overflow: give 0 * 1
        out[big] = tail ** 2 * np.exp(-tail)
        out[off] = 0.0
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def rate_density(r_s: float, omega: float, constants: PhysicalConstants = CODATA2018,
                 species_multiplicity: int = 1) -> float:
    """Differential emission rate Lambda(omega) per unit angular frequency; omega = 0
    gives 0 (the u^2 prefactor wins over the Bose pole), a negative omega is an error."""
    _positive("r_s", r_s)
    n = _count("species_multiplicity", species_multiplicity)
    _non_negative("omega", omega)
    if omega == 0.0:
        return 0.0
    u = 4.0 * math.pi * omega * r_s / constants.c
    return n * 27.0 / (16.0 * math.pi ** 3) * bose_spectral_kernel(u)


def total_emission_rate(r_s: float, constants: PhysicalConstants = CODATA2018,
                        species_multiplicity: int = 1) -> float:
    """Total photon emission rate Lambda_total = N * 27 zeta(3) c / (32 pi^4 R_s)
    in s^-1; a radius that puts it out of the normal range of a double is a
    ValueError naming r_s."""
    _positive("r_s", r_s)
    return _emission_rate(r_s, _count("species_multiplicity", species_multiplicity), constants)


def _emission_rate(r_s: float, n: int, constants: PhysicalConstants) -> float:
    # closed_form_emission_rate at a valid radius and count, range-checked
    return _in_range("Lambda_total", lambda: closed_form_emission_rate(r_s, n, constants),
                     "r_s={!r} m", r_s)


def closed_form_emission_rate(r_s, species_multiplicity: int, constants: PhysicalConstants):
    """Lambda_total = N * 27 zeta(3) c / (32 pi^4 r_s), unchecked.
    r_s may be a float or a numpy array; the bits are the same either way."""
    # Dividing the constant by 32 is exact, and keeps the quotient by
    # pi^4 r_s at Lambda_total / N instead of 32 times that, so it does not
    # overflow before the rate does.  Folding 32 pi^4 r_s into one product
    # would instead overflow for r_s above ~5.8e304.
    return species_multiplicity * (27.0 * constants.c * zeta_int(3) / 32.0 / (math.pi ** 4 * r_s))


def frequency_pdf(r_s: float, omega: float, constants: PhysicalConstants = CODATA2018) -> float:
    """Normalized emitted-frequency density Lambda(omega) / Lambda_total;
    the dimensionless shape peaks at u ~= 1.5936."""
    return rate_density(r_s, omega, constants) / total_emission_rate(r_s, constants)


@functools.lru_cache(maxsize=16)
def bose_integral(quad: QuadratureSpec = QuadratureSpec()) -> tuple[float, float]:
    """(value, error estimate) of the integral of bose_spectral_kernel over
    [0, U_TRUNCATION] on BOSE_SEEDS; memoised, as the oracle needs it at one
    spec on most calls."""
    return integrate_adaptive(bose_spectral_kernel, BOSE_SEEDS, quad)
