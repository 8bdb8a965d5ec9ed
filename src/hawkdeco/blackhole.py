"""Schwarzschild black hole basics: radius, Hawking temperature, lifetime.

All quantities are SI.  The relations implemented here are

    R_s   = 2 G M / c^2
    k T_H = hbar c^3 / (8 pi G M) = hbar c / (4 pi R_s)
    l_p   = sqrt(hbar G / c^3)
    t_bh  = 5120 pi G^2 M^3 / (hbar c^4)
    M(t)  = M0 (1 - t / t_bh)^(1/3)

The evaporation law treats the hole as a quasi-static emitter whose mass
loss rate follows from the Stefan-Boltzmann-like M^-2 luminosity, which
integrates to the cubic-root depletion above.  A mass whose radius,
temperature or lifetime over- or underflows a double is a ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    """SI constants bundle.  Frozen so result objects can share it safely."""

    G: float        # m^3 kg^-1 s^-2
    c: float        # m s^-1
    hbar: float     # J s
    k_B: float      # J K^-1


# CODATA 2018 recommended values.
CODATA2018 = PhysicalConstants(
    G=6.67430e-11,
    c=2.99792458e8,
    hbar=1.054571817e-34,
    k_B=1.380649e-23,
)


def _check_mass(mass: float, name: str = "mass") -> None:
    if not mass > 0.0:
        raise ValueError(f"{name} must be positive, got {mass}")


def _in_range(what: str, mass: float, compute) -> float:
    # compute(), unless it over- or underflows: then no double holds the answer
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if value == 0.0 or value == math.inf:
        raise ValueError(f"mass={mass!r} kg puts {what} out of floating-point range")
    return value


def schwarzschild_radius(mass: float, constants: PhysicalConstants = CODATA2018) -> float:
    """R_s = 2 G M / c^2 in metres.  mass must be positive."""
    _check_mass(mass)
    return _in_range("r_s", mass, lambda: 2.0 * constants.G * mass / constants.c ** 2)


def hawking_temperature(mass: float, constants: PhysicalConstants = CODATA2018) -> float:
    """Hawking temperature T_H = hbar c^3 / (8 pi G M k_B) in kelvin."""
    _check_mass(mass)
    return _in_range("T_H", mass, lambda: constants.hbar * constants.c ** 3 / (
        8.0 * math.pi * constants.G * mass * constants.k_B))


def planck_length(constants: PhysicalConstants = CODATA2018) -> float:
    """l_p = sqrt(hbar G / c^3), about 1.616e-35 m for CODATA 2018."""
    return math.sqrt(constants.hbar * constants.G / constants.c ** 3)


def evaporation_time(mass: float, constants: PhysicalConstants = CODATA2018) -> float:
    """Total evaporation time t_bh = 5120 pi G^2 M^3 / (hbar c^4) in seconds.

    Photon-only greybody luminosity; about 8.4e-17 s for one kilogram.
    """
    _check_mass(mass)
    g2 = constants.G * constants.G
    return _in_range("t_bh", mass, lambda: 5120.0 * math.pi * g2 * mass ** 3 / (
        constants.hbar * constants.c ** 4))


def mass_at_time(mass0: float, t: float, constants: PhysicalConstants = CODATA2018) -> float:
    """Quasi-static mass M(t) = M0 (1 - t/t_bh)^(1/3).

    Valid for 0 <= t < t_bh; at or beyond the lifetime the hole is gone and
    a ValueError is raised rather than returning a complex or zero mass.
    """
    _check_mass(mass0, "mass0")
    if t < 0.0:
        raise ValueError(f"t must be non-negative, got {t}")
    t_bh = evaporation_time(mass0, constants)
    if t >= t_bh:
        raise ValueError(f"t={t} is at or past the evaporation time {t_bh}")
    return mass0 * (1.0 - t / t_bh) ** (1.0 / 3.0)


@dataclass(frozen=True)
class BlackHole:
    """A Schwarzschild black hole of a given mass, with derived scales."""

    mass: float
    constants: PhysicalConstants = CODATA2018

    def __post_init__(self) -> None:
        _check_mass(self.mass)

    @property
    def r_s(self) -> float:
        return schwarzschild_radius(self.mass, self.constants)

    @property
    def t_hawking(self) -> float:
        return hawking_temperature(self.mass, self.constants)

    @property
    def t_evaporation(self) -> float:
        return evaporation_time(self.mass, self.constants)
