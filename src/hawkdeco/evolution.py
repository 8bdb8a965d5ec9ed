"""Coherence decay of a superposed hole over time.

The off-diagonal density matrix element obeys rho_od'(t) = -Gamma(t)
rho_od(t), so

    coherence(t) = exp(-int_0^t Gamma(t') dt').

With evaporation on, Gamma(t') is evaluated at the shrinking mass
M(t') = M0 (1 - t'/t_bh)^(1/3) while the branch separation delta_x stays
fixed; the rate then grows monotonically as the hole shrinks, so the
evaporating trace always lies at or below the constant-mass one.  One
rate routine, rates.canonical_rate_array, serves both modes in one call:
on every radius of the grid when evaporating, on the t = 0 radius alone at
constant mass.  Each rate has the bits of vacuum_rate at its radius, and
the trace carries them as `rate`.

The accumulated exponent is integrated on the uniform grid with local
parabolic segments (composite Simpson when the interval count is even),
exact for constant and linear rates and O(h^4) otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blackhole import (CODATA2018, PhysicalConstants, _count, _mass_at, _positive, _radius,
                        evaporation_time, schwarzschild_radius)
from .rates import SuperpositionGeometry, canonical_rate_array


@dataclass(frozen=True)
class CoherenceTrace:
    """Sampled coherence history: at each time, the coherence, the mass and
    the decoherence rate Gamma.  quasi_static_valid records whether the
    initial decoherence time 1/rate[0] is under 1% of the lifetime, the
    regime in which treating emission as quasi-static is self-consistent."""

    times: np.ndarray
    coherence: np.ndarray
    mass: np.ndarray
    rate: np.ndarray       # s^-1
    quasi_static_valid: bool


def _cumulative_parabolic(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Cumulative integral on a uniform grid via quadratic segments.

    For each point triple the interpolating parabola contributes
    h(5 f0 + 8 f1 - f2)/12 and h(-f0 + 8 f1 + 5 f2)/12 to its two
    subintervals; adjacent pairs sum to the Simpson weights.  A trailing
    odd interval reuses the parabola through the last three points.  A
    steep rise (f2 > 5 f0 + 8 f1) makes a weight negative: a ValueError.
    """
    n = len(times) - 1
    h = times[1] - times[0]
    inc = np.empty(n)
    f0 = values[0:-2:2]
    f1 = values[1:-1:2]
    f2 = values[2::2]
    inc[0:n - (n % 2):2] = h * (5.0 * f0 + 8.0 * f1 - f2) / 12.0
    inc[1:n - (n % 2) + 1:2] = h * (-f0 + 8.0 * f1 + 5.0 * f2) / 12.0
    if n % 2 == 1:
        a, b, c = values[n - 2], values[n - 1], values[n]
        inc[n - 1] = h * (-a + 8.0 * b + 5.0 * c) / 12.0
    if np.any(inc < 0.0):
        raise ValueError(f"steps={n} cannot resolve the rate's growth; raise steps")
    out = np.empty(n + 1)
    out[0] = 0.0
    np.cumsum(inc, out=out[1:])
    return out


def evolve_coherence(
    mass0: float,
    delta_x: float,
    t_max: float,
    steps: int,
    evaporate: bool = False,
    constants: PhysicalConstants = CODATA2018,
    species_multiplicity: int = 1,
) -> CoherenceTrace:
    """Integrate the decoherence exponent of branches delta_x apart, on a
    hole of initial mass mass0, over [0, t_max] on `steps` uniform intervals.

    With evaporate on, t_max must stay short of the evaporation time.
    """
    steps = _count("steps", steps, 2)
    _positive("t_max", t_max)
    t_bh = evaporation_time(mass0, constants)
    if evaporate and t_max >= t_bh:
        raise ValueError(
            f"t_max={t_max} reaches the evaporation time {t_bh}; the quasi-static "
            "description ends there")

    times = np.linspace(0.0, t_max, steps + 1)
    if evaporate:
        masses = _mass_at(mass0, times, t_bh)
        r_s = _radius(masses, constants)
    else:
        masses = np.full(steps + 1, mass0)
        r_s = np.array([schwarzschild_radius(mass0, constants)])
    # raises unless the geometry is valid at the smallest radius, where dx/R_s peaks
    SuperpositionGeometry(delta_x, float(r_s.min()))
    rates = canonical_rate_array(delta_x, r_s, constants, species_multiplicity)[0]
    if not evaporate:
        rates = np.full(steps + 1, rates[0])

    exponent = _cumulative_parabolic(times, rates)
    quasi_static = bool(rates[0] > 0.0 and (1.0 / rates[0]) < 0.01 * t_bh)
    return CoherenceTrace(times=times, coherence=np.exp(-exponent), mass=masses, rate=rates,
                          quasi_static_valid=quasi_static)
