"""Photon emission spectrum of a Schwarzschild hole, geometric-optics limit.

The differential emission rate per unit angular frequency is

    Lambda(omega) = (27 R_s^2 omega^2 / (pi c^2)) / (e^u - 1),   u = 4 pi omega R_s / c

for two polarizations; in the dimensionless variable u this collapses to
(27/(16 pi^3)) u^2/(e^u - 1) independent of R_s.  Integrated over all
frequencies,

    Lambda_total = 27 zeta(3) c / (32 pi^4 R_s)  ~=  1.0412e-2 c/R_s,

using int_0^inf u^2/(e^u - 1) du = 2 zeta(3).  A low-frequency cutoff
omega_min has no closed form and is handled by quadrature.

The ``polarizations`` knob rescales the two-polarization normalization
(factor p/2) and ``species_multiplicity`` multiplies the whole rate for
additional massless emission channels; neither affects the normalized
frequency distribution.

``per_u_rate`` (rate per unit u-integral) and ``bose_seed_points`` (the
kernel's knees and the cut-off limit) serve the oracle and the checks too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blackhole import CODATA2018, PhysicalConstants, _in_range, _non_negative, _positive
from .special import zeta_int
from .quadrature import QuadratureSpec, integrate_adaptive

# Beyond u ~= 41.5 the Bose factor is below 1e-18 and the remaining tail
# contributes less than 1e-15 of the total integral (analytic bound
# e^-U (U^2 + 2U + 2) on int_U^inf u^2 e^-u du).
U_TRUNCATION = 41.5


@dataclass(frozen=True)
class EmissionSpectrum:
    """Emission spectrum parameters for a hole of horizon radius r_s."""

    r_s: float
    polarizations: int = 2
    species_multiplicity: int = 1
    omega_min: float = 0.0
    constants: PhysicalConstants = CODATA2018

    def __post_init__(self) -> None:
        _positive("r_s", self.r_s)
        if self.polarizations < 1:
            raise ValueError(f"polarizations must be >= 1, got {self.polarizations}")
        if self.species_multiplicity < 1:
            raise ValueError(f"species_multiplicity must be >= 1, got {self.species_multiplicity}")
        _non_negative("omega_min", self.omega_min)

    @property
    def u_min(self) -> float:
        """Cutoff in the dimensionless frequency u = 4 pi omega R_s / c."""
        return 4.0 * math.pi * self.omega_min * self.r_s / self.constants.c

    def prefactor(self) -> float:
        """Polarization and species multiplier (p/2) * N relative to photons."""
        return 0.5 * self.polarizations * self.species_multiplicity

    def per_u_rate(self) -> float:
        """prefactor * 27 c / (64 pi^4 R_s) in s^-1: the rate per unit of
        the integral of u^2/(e^u - 1) du (2 zeta(3) over all u)."""
        return self.prefactor() * 27.0 * self.constants.c / (64.0 * math.pi ** 4 * self.r_s)


def bose_spectral_kernel(u):
    """u^2 / (e^u - 1), the dimensionless spectral shape; 0 at u = 0.

    expm1 keeps full precision for small u; above u = 37 the denominator
    is e^u to machine precision and the e^-u form avoids overflow.
    """
    arr = np.asarray(u, dtype=float)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr)
    out = np.zeros_like(flat)
    pos = flat > 0.0
    up = flat[pos]
    res = np.empty_like(up)
    small = up <= 37.0
    res[small] = up[small] ** 2 / np.expm1(up[small])
    res[~small] = up[~small] ** 2 * np.exp(-up[~small])
    out[pos] = res
    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)


def rate_density(spectrum: EmissionSpectrum, omega: float) -> float:
    """Differential emission rate Lambda(omega), per unit angular frequency.

    omega = 0 is accepted and gives 0 (the u^2 prefactor wins over the
    Bose pole); negative frequencies are a domain error.  Frequencies
    below the omega_min cutoff return 0.
    """
    _non_negative("omega", omega)
    if omega == 0.0 or omega < spectrum.omega_min:
        return 0.0
    u = 4.0 * math.pi * omega * spectrum.r_s / spectrum.constants.c
    return spectrum.prefactor() * 27.0 / (16.0 * math.pi ** 3) * bose_spectral_kernel(u)


def total_emission_rate(spectrum: EmissionSpectrum, quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Total photon emission rate Lambda_total in s^-1.

    Closed form 27 zeta(3) c / (32 pi^4 R_s) for an uncut spectrum;
    with omega_min > 0 the truncated u-integral is done numerically.
    A radius so small or so large that the rate overflows or leaves the
    normal range of a double is a ValueError naming r_s.
    """
    def rate():
        if spectrum.omega_min == 0.0:
            return closed_form_emission_rate(spectrum.r_s, spectrum)
        integral, _ = integrate_adaptive(
            bose_spectral_kernel, bose_seed_points(spectrum.u_min), quad)
        return spectrum.per_u_rate() * integral

    return _in_range("Lambda_total", rate, "r_s={!r} m", spectrum.r_s)


def closed_form_emission_rate(r_s, spectrum: EmissionSpectrum):
    """Lambda_total = prefactor * 27 zeta(3) c / (32 pi^4 r_s) of an uncut
    spectrum, at the horizon radius r_s instead of spectrum.r_s.  r_s may be
    a float or a numpy array; the bits are the same either way."""
    # Dividing the constant by 32 is exact, and keeps the quotient by
    # pi^4 r_s at Lambda_total / prefactor instead of 32 times that, so it
    # does not overflow before the rate does.  Folding 32 pi^4 r_s into one
    # product would instead overflow for r_s above ~5.8e304.
    return spectrum.prefactor() * (27.0 * spectrum.constants.c * zeta_int(3) / 32.0
                                   / (math.pi ** 4 * r_s))


def frequency_pdf(spectrum: EmissionSpectrum, omega: float) -> float:
    """Normalized emitted-frequency density Lambda(omega) / Lambda_total.

    Independent of polarizations and species multiplicity; the
    dimensionless shape peaks at u ~= 1.5936.
    """
    return rate_density(spectrum, omega) / total_emission_rate(spectrum)


def bose_seed_points(u_min: float) -> list[float]:
    """Breakpoints for integrating the Bose kernel over [u_min, U_TRUNCATION]:
    the cut-off, the knees above it (the mode is near u ~ 1.6, decay sets in
    past ~10) and the truncation.  A cut-off within one unit of the
    truncation leaves no resolvable spectrum (ValueError)."""
    if u_min >= U_TRUNCATION - 1.0:
        raise ValueError(
            f"omega_min puts the cutoff at u={u_min:.3g}, beyond the resolvable spectrum")
    return [u_min] + [p for p in (0.5, 2.0, 8.0, 20.0) if p > u_min] + [U_TRUNCATION]
