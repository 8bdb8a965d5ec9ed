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
temperature or lifetime overflows a double, or underflows below its
normal range (sys.float_info.min, where digits start to be lost), is a
ValueError.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, fields


def _positive(name: str, value: float) -> float:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


def _non_negative(name: str, value: float) -> float:
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and non-negative, got {value}")
    return value


def _count(name: str, value: int, least: int = 1) -> int:
    """value as an int, if it is an int or numpy integer of at least `least`;
    NaN, inf and 2.5 are ValueErrors like a count that is too small."""
    try:
        count = operator.index(value)
    except TypeError:
        count = least - 1
    if count < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return count


def _in_range(what: str, compute, culprit: str, *args: float,
              lowest: float = sys.float_info.min) -> float:
    """compute(), unless it overflows or falls below `lowest`: then no double
    holds the answer to full precision, and the ValueError names the
    culprit, culprit.format(*args) (formatted only then).  Rates pass
    lowest=0.0, because a rate may underflow to zero."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not lowest <= value < math.inf:
        raise ValueError(
            f"{culprit.format(*args)} puts {what}={value!r} out of floating-point range")
    return value


@dataclass(frozen=True)
class PhysicalConstants:
    """SI constants bundle, each finite and positive.  Frozen so result
    objects can share it safely."""

    G: float        # m^3 kg^-1 s^-2
    c: float        # m s^-1
    hbar: float     # J s
    k_B: float      # J K^-1

    def __post_init__(self) -> None:
        for field in fields(self):
            _positive(field.name, getattr(self, field.name))


# CODATA 2018 recommended values.
CODATA2018 = PhysicalConstants(
    G=6.67430e-11,
    c=2.99792458e8,
    hbar=1.054571817e-34,
    k_B=1.380649e-23,
)


# Unchecked float-or-array bodies of R_s(M) and M(t), shared with evolve_coherence.
def _radius(mass, constants: PhysicalConstants):
    return 2.0 * constants.G * mass / constants.c ** 2


def _mass_at(mass0: float, t, t_bh: float):
    return mass0 * (1.0 - t / t_bh) ** (1.0 / 3.0)


def schwarzschild_radius(mass: float, constants: PhysicalConstants = CODATA2018) -> float:
    """R_s = 2 G M / c^2 in metres.  mass must be positive."""
    _positive("mass", mass)
    return _in_range("r_s", lambda: _radius(mass, constants), "mass={!r} kg", mass)


def hawking_temperature(mass: float, constants: PhysicalConstants = CODATA2018) -> float:
    """Hawking temperature T_H = hbar c^3 / (8 pi G M k_B) in kelvin."""
    _positive("mass", mass)
    return _in_range("T_H", lambda: constants.hbar * constants.c ** 3 / (
        8.0 * math.pi * constants.G * mass * constants.k_B), "mass={!r} kg", mass)


def planck_length(constants: PhysicalConstants = CODATA2018) -> float:
    """l_p = sqrt(hbar G / c^3), about 1.616e-35 m for CODATA 2018."""
    return math.sqrt(constants.hbar * constants.G / constants.c ** 3)


def evaporation_time(mass: float, constants: PhysicalConstants = CODATA2018) -> float:
    """Total evaporation time t_bh = 5120 pi G^2 M^3 / (hbar c^4) in seconds.

    Photon-only greybody luminosity; about 8.4e-17 s for one kilogram.
    """
    _positive("mass", mass)
    g2 = constants.G * constants.G
    return _in_range("t_bh", lambda: 5120.0 * math.pi * g2 * mass ** 3 / (
        constants.hbar * constants.c ** 4), "mass={!r} kg", mass)


def mass_at_time(mass0: float, t: float, constants: PhysicalConstants = CODATA2018) -> float:
    """Quasi-static mass M(t) = M0 (1 - t/t_bh)^(1/3).

    Valid for 0 <= t < t_bh; at or beyond the lifetime the hole is gone and
    a ValueError is raised rather than returning a complex or zero mass.
    """
    _positive("mass0", mass0)
    _non_negative("t", t)
    t_bh = evaporation_time(mass0, constants)
    if t >= t_bh:
        raise ValueError(f"t={t} is at or past the evaporation time {t_bh}")
    return _mass_at(mass0, t, t_bh)


@dataclass(frozen=True)
class BlackHole:
    """A Schwarzschild black hole of a given mass, with derived scales."""

    mass: float
    constants: PhysicalConstants = CODATA2018

    def __post_init__(self) -> None:
        _positive("mass", self.mass)

    @property
    def r_s(self) -> float:
        return schwarzschild_radius(self.mass, self.constants)

    @property
    def t_hawking(self) -> float:
        return hawking_temperature(self.mass, self.constants)

    @property
    def t_evaporation(self) -> float:
        return evaporation_time(self.mass, self.constants)
