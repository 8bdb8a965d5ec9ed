"""Arbitrary-precision references the benchmark checks hawkdeco against.

Every quantity is recomputed from its defining formula with mpmath at
DPS decimal digits, independently of the package: the vacuum overlap from
the complex trigamma pair, the emission rate from zeta(3), the thermal
coefficient from zeta(9), and the Hawking lifetime from the CODATA 2018
constants written out as decimal strings.

mpmath is not a dependency of hawkdeco; importing this module without it
raises ImportError, and the benchmark stops instead of skipping checks.
"""

from __future__ import annotations

import math

import mpmath as mp

# 40 digits leave at least 30 after the cancellation in 1 - overlap at the
# smallest separation the workloads draw (y ~ 1e-4 loses about 9).
DPS = 40

_G = "6.67430e-11"
_C = "2.99792458e8"
_HBAR = "1.054571817e-34"

# A double holds about 16 digits; an error below this reads as full precision.
ERROR_FLOOR = 1e-16


def schwarzschild_radius(mass: float) -> mp.mpf:
    with mp.workdps(DPS):
        return 2 * mp.mpf(_G) * mp.mpf(mass) / mp.mpf(_C) ** 2


def one_minus_overlap(y) -> mp.mpf:
    """1 - i pi [psi1(1+iy) - psi1(1-iy)] / (4 pi y zeta(3))."""
    with mp.workdps(DPS):
        y = mp.mpf(y)
        if y == 0:
            return mp.mpf(0)
        z = mp.mpc(1, y)
        diff = mp.psi(1, z) - mp.psi(1, mp.conj(z))
        overlap = mp.mpc(0, 1) * mp.pi * diff / (4 * mp.pi * y * mp.zeta(3))
        return 1 - overlap.real


def saturated_rate_c_over_rs() -> mp.mpf:
    """Lambda_total in units of c / R_s: 27 zeta(3) / (32 pi^4)."""
    with mp.workdps(DPS):
        return 27 * mp.zeta(3) / (32 * mp.pi ** 4)


def rate_c_over_rs(dx_over_rs) -> mp.mpf:
    """Vacuum decoherence rate in units of c / R_s."""
    with mp.workdps(DPS):
        y = mp.mpf(dx_over_rs) / (4 * mp.pi)
        return saturated_rate_c_over_rs() * one_minus_overlap(y)


def vacuum_rate(mass: float, delta_x: float) -> mp.mpf:
    """Vacuum-channel rate in 1/s for a hole of `mass` kg, separation `delta_x` m."""
    with mp.workdps(DPS):
        r_s = schwarzschild_radius(mass)
        y = mp.mpf(delta_x) / (4 * mp.pi * r_s)
        return saturated_rate_c_over_rs() * mp.mpf(_C) / r_s * one_minus_overlap(y)


def vacuum_overlap(mass: float, delta_x: float) -> mp.mpf:
    with mp.workdps(DPS):
        return 1 - one_minus_overlap(mp.mpf(delta_x) / (4 * mp.pi * schwarzschild_radius(mass)))


def thermal_bh_rate(mass: float, delta_x: float) -> mp.mpf:
    """d (dx/R_s)^2 c/R_s with d = (16 * 8! zeta(9) / 9 pi) 27^3 / (4 pi)^9."""
    with mp.workdps(DPS):
        r_s = schwarzschild_radius(mass)
        d = 16 * mp.factorial(8) * mp.zeta(9) / (9 * mp.pi) * mp.mpf(27) ** 3 / (4 * mp.pi) ** 9
        x = mp.mpf(delta_x) / r_s
        return d * x * x * mp.mpf(_C) / r_s


def evaporation_time(mass: float) -> mp.mpf:
    with mp.workdps(DPS):
        g = mp.mpf(_G)
        return 5120 * mp.pi * g * g * mp.mpf(mass) ** 3 / (mp.mpf(_HBAR) * mp.mpf(_C) ** 4)


def evaporated_mass(mass0: float, t: float) -> mp.mpf:
    """M0 (1 - t / t_bh)^(1/3) at the exact time t (a double)."""
    with mp.workdps(DPS):
        return mp.mpf(mass0) * mp.cbrt(1 - mp.mpf(t) / evaporation_time(mass0))


def constant_mass_coherence(mass: float, dx_over_rs: float, t: float) -> mp.mpf:
    """exp(-rate t) for the vacuum rate of a hole that keeps its mass."""
    with mp.workdps(DPS):
        rate = rate_c_over_rs(dx_over_rs) * mp.mpf(_C) / schwarzschild_radius(mass)
        return mp.exp(-rate * mp.mpf(t))


def relative_error(value: float, ref, scale=None) -> float:
    """|value - ref| / |ref| (or / scale when given), never below 1e-16."""
    with mp.workdps(DPS):
        denom = abs(mp.mpf(ref)) if scale is None else mp.mpf(scale)
        err = float(abs(mp.mpf(value) - ref) / denom)
    return max(err, ERROR_FLOOR) if math.isfinite(err) else math.inf
