"""Decoherence rates for spatial superpositions of a Schwarzschild hole.

Vacuum channel (the hole's own Hawking photons): a superposition of two
horizon positions separated by Delta x decoheres at

    Gamma = Lambda_total (1 - <chi'|chi>),

where the emitted-photon overlap has the closed form

    <chi'|chi> = i pi R_s [psi1(1 + iy) - psi1(1 - iy)] / (Delta x zeta(3))
               = -Im psi1(1 + iy) / (2 zeta(3) y),      y = Delta x / (4 pi R_s),

real by conjugation symmetry.  It is evaluated in real arithmetic only
(nine recurrence terms, then the Bernoulli asymptotic series at 10 + iy),
so one function body serves a Python float and a numpy array of y and
gives the same bits for both.  Below y = 0.05, 1 - overlap comes from
its own positive series, summed for an array of y at once.  Limits:

    small separation:  Gamma -> (27 zeta(5) / (256 pi^6)) (dx/R_s)^2 (c/R_s)
    large separation:  Gamma -> Lambda_total = 27 zeta(3) c / (32 pi^4 R_s)

Two coefficient conventions are provided.  ``canonical_appendix`` is the
flux-normalized rate above.  ``printed_eq8`` evaluates the closed form
with 8 pi^4 / 8 pi^3 denominators instead of 32 pi^4 / 32 pi^3, which is
exactly four times the canonical rate at every separation; it is kept so
that published numbers quoting those coefficients can be reproduced.

Thermal channel (hole sitting in a photon bath of temperature T): the
long-wavelength scattering rate for a sphere of effective radius a is

    Gamma = (16 * 8! * zeta(9) / (9 pi)) a^6 dx^2 (k T)^9 / (c^8 hbar^9),

which for a = sqrt(27) R_s and T = T_H collapses to the hbar-free form

    Gamma = d (dx/R_s)^2 (c/R_s),   d = (16 * 8! zeta(9) / 9 pi) 27^3/(4 pi)^9,

with d ~= 0.0576 (decoherence time 17.37 R_s/c at dx = R_s).
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .blackhole import (CODATA2018, PhysicalConstants, _count, _in_range, _non_negative,
                        _positive, schwarzschild_radius)
from .special import BERNOULLI_2K, zeta_int
from .spectrum import _emission_rate, closed_form_emission_rate

VARIANT_CANONICAL = "canonical_appendix"
VARIANT_PRINTED = "printed_eq8"
VARIANTS = (VARIANT_CANONICAL, VARIANT_PRINTED)
VARIANT_FACTOR = {VARIANT_CANONICAL: 1.0, VARIANT_PRINTED: 4.0}  # times the canonical rate

REGIME_SMALL = "small_separation"
REGIME_CROSSOVER = "crossover"
REGIME_SATURATED = "saturated"
REGIMES = (REGIME_SMALL, REGIME_CROSSOVER, REGIME_SATURATED)

# Below this y = dx/(4 pi R_s) the complement 1 - overlap is evaluated by
# its own positive series; direct subtraction would lose ~half the digits
# by y = 1e-4 while the rate limit needs full relative accuracy.
_COMPLEMENT_SERIES_CUT = 0.05
_COMPLEMENT_SERIES_TERMS = 20000
# numpy sums a row pairwise, splitting n terms at n//2 - (n//2) % 8.  Three such
# splits cut the N terms (m from N down to 1) into eight blocks; their row sums,
# added up the same tree, give np.sum over all N terms bit for bit.  A tile of
# 16 values of y makes each block temporary 320 KB, sized for L2 cache, two per
# thread and call (about 1.2k minor faults per 10^4-point sweep, --trace 1).
# A batch's tiles are split into contiguous ranges, one thread each, over the
# CPUs in os.sched_getaffinity (so CPU affinity, e.g. taskset, limits them),
# with at least _TILES_PER_WORKER tiles a thread.  A batch too small for two
# threads, a scalar call included, runs on the caller's thread and starts none.
_SERIES_ROWS, _SERIES_WIDTH, _TILES_PER_WORKER = 16, 2504, 2
_SERIES_BLOCKS = [(m * m, 2.0 * m * m, m * m * m) for m in np.split(
    np.arange(float(_COMPLEMENT_SERIES_TERMS), 0.0, -1.0), np.cumsum([2496, 2504] * 3 + [2496]))]

# Shifts a of the trigamma recurrence psi1(1 + iy) = sum_{a=1}^{9} 1/(a + iy)^2
# + psi1(10 + iy), largest first so that the smallest terms are added first.
_RECURRENCE_SHIFTS = (9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0)
_TWO_ZETA3 = 2.0 * zeta_int(3)

# 16 * 8! zeta(9) / (9 pi), the dipole-scattering prefactor of the thermal rate
_THERMAL_PREFACTOR = 16.0 * math.factorial(8) * zeta_int(9) / (9.0 * math.pi)


class DipoleApproximationWarning(UserWarning):
    """Inputs stretch the long-wavelength assumptions of the thermal formula."""


@dataclass(frozen=True)
class SuperpositionGeometry:
    """Separation delta_x of two branch positions of a hole of radius r_s."""

    delta_x: float
    r_s: float

    def __post_init__(self) -> None:
        _non_negative("delta_x", self.delta_x)
        _positive("r_s", self.r_s)
        if self.delta_x / self.r_s == math.inf:
            raise ValueError(
                f"delta_x / r_s must be finite, got {self.delta_x!r} / {self.r_s!r}")

    @classmethod
    def from_mass(cls, mass: float, delta_x: float,
                  constants: PhysicalConstants = CODATA2018) -> "SuperpositionGeometry":
        return cls(delta_x=delta_x, r_s=schwarzschild_radius(mass, constants))

    @property
    def dx_over_rs(self) -> float:
        return self.delta_x / self.r_s

    @property
    def y(self) -> float:
        """Trigamma argument scale y = delta_x / (4 pi r_s)."""
        return self.delta_x / (4.0 * math.pi * self.r_s)


@dataclass(frozen=True)
class DecoherenceResult:
    """One vacuum-channel rate evaluation."""

    rate: float            # s^-1
    overlap: float         # dimensionless, in [0, 1] for this spectrum
    lambda_total: float    # s^-1, photon emission rate of one branch
    regime: str
    variant: str

    @property
    def decoherence_time(self) -> float:
        """1/rate; infinite for coincident branches."""
        if self.rate == 0.0:
            return math.inf
        return 1.0 / self.rate


def _regime_index(dx_over_rs):
    # index into REGIMES of a valid dx/R_s, a float or an array: below one horizon
    # radius the quadratic law holds, beyond a hundred the rate has saturated
    return 1 * (dx_over_rs >= 1.0) + (dx_over_rs > 100.0)


def classify_regime(dx_over_rs: float) -> str:
    """Reporting label of dx/R_s, one of REGIMES (see _regime_index)."""
    return REGIMES[_regime_index(_non_negative("dx_over_rs", dx_over_rs))]


def _trigamma_im_over_y(y):
    """-Im psi1(1 + iy) / y = sum_{a >= 1} 2a / (a^2 + y^2)^2 for y >= 0.

    y may be a float or a numpy array.  Nine recurrence terms carry the
    argument to w = 10 + iy, where psi1(w) ~ 1/w + 1/(2 w^2) + sum B_2k /
    w^(2k+1).  Powers of 1/w = (10 - iy)/(100 + y^2) are kept as pairs
    (Re, -Im/y), with y factored out analytically, so y = 0 and y past
    1e154 (where y^2 overflows and every term becomes +0.0) need no
    special case.  Every step is one IEEE + - * or /, hence the same bits
    for scalars and arrays on any platform.  Relative error stays below
    2e-15 (against mpmath); an array caller should ignore the overflow of
    y * y.
    """
    yy = y * y
    s = 1.0 / (100.0 + yy)
    p = 10.0 * s
    t = y * (y * s)
    # 1/w^2 = (re2, j2); y^2 j2 = yj2
    re2 = p * p - s * t
    j2 = 2.0 * p * s
    yj2 = 2.0 * p * t
    # Horner in 1/w^2 over B_12 .. B_2
    h_re = BERNOULLI_2K[-1]
    h_j = 0.0
    for b in BERNOULLI_2K[-2::-1]:
        h_re, h_j = b + h_re * re2 - h_j * yj2, h_re * j2 + h_j * re2
    # 1/w^3
    re3 = p * re2 - t * j2
    j3 = p * j2 + s * re2
    total = s + 0.5 * j2 + (re3 * h_j + j3 * h_re)
    for a in _RECURRENCE_SHIFTS:  # smallest terms first
        d = a * a + yy
        total = total + 2.0 * a / d / d
    return total


def vacuum_overlap(geom: SuperpositionGeometry) -> float:
    """Overlap of the Hawking-photon states emitted by the two branches.

    -Im psi1(1 + iy) / (2 zeta(3) y), real by construction; 1.0 when y = 0
    (coincident branches, or a separation so small that y underflows).
    """
    return _overlap(geom.y)


def _overlap(y: float) -> float:
    return 1.0 if y == 0.0 else _trigamma_im_over_y(y) / _TWO_ZETA3


def _one_minus_overlap_series(y: np.ndarray) -> np.ndarray:
    # 1 - overlap = (y^2/zeta(3)) sum_m (2 m^2 + y^2) / (m^3 (m^2 + y^2)^2),
    # every term positive, so no cancellation at any y.  Truncation after N
    # terms is bounded by the integral 1/(2 N^4) plus half the last term.
    # A y's sum depends neither on its neighbours nor on the thread it runs on.
    y2 = y * y
    sums = np.empty_like(y2)
    tiles = -(-y2.size // _SERIES_ROWS)
    workers = 1
    if tiles >= 2 * _TILES_PER_WORKER:
        workers = min(tiles // _TILES_PER_WORKER, _usable_cpus())
    bounds = [min(k * tiles // workers * _SERIES_ROWS, y2.size) for k in range(workers + 1)]
    errors = []

    def work(start: int, stop: int) -> None:
        try:
            _series_tiles(y2, sums, start, stop)
        except BaseException as exc:  # re-raised on the caller's thread
            errors.append(exc)

    threads = []
    try:
        for b in zip(bounds[1:-1], bounds[2:]):
            thread = threading.Thread(target=work, args=b)
            thread.start()
            threads.append(thread)
        _series_tiles(y2, sums, bounds[0], bounds[1])  # the first range, on the caller's thread
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    n = float(_COMPLEMENT_SERIES_TERMS)
    return y2 * (sums + (0.5 / n ** 4 - 1.0 / n ** 5)) / zeta_int(3)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _series_tiles(y2: np.ndarray, sums: np.ndarray, start: int, stop: int) -> None:
    # sums[start:stop] = the series sum (tail excluded) of y2[start:stop], a tile at a time
    d = np.empty((min(_SERIES_ROWS, stop - start), _SERIES_WIDTH))
    t = np.empty_like(d)
    for i in range(start, stop, _SERIES_ROWS):
        rows = y2[i:min(i + _SERIES_ROWS, stop), None]
        s = []
        for m2, two_m2, m3 in _SERIES_BLOCKS:
            dj, tj = d[:len(rows), :len(m2)], t[:len(rows), :len(m2)]
            np.add(m2, rows, out=dj)
            np.multiply(m3, dj, out=tj)
            tj *= dj  # m^3 (m^2 + y^2)^2
            np.add(two_m2, rows, out=dj)
            s.append(np.divide(dj, tj, out=dj).sum(axis=1))
        while len(s) > 1:  # the pairwise tree over the eight block sums
            s = [a + b for a, b in zip(s[0::2], s[1::2])]
        sums[i:i + len(rows)] = s[0]


def _complement(y: float, overlap: float) -> float:
    # 1 - overlap, from the positive series where the subtraction loses digits
    if 0.0 < y < _COMPLEMENT_SERIES_CUT:
        return float(_one_minus_overlap_series(np.array([y]))[0])
    return 1.0 - overlap


def one_minus_overlap(geom: SuperpositionGeometry) -> float:
    """1 - vacuum_overlap with full relative accuracy at small separation.

    The closed form's subtraction from 1 is fine once the complement is
    of order 1e-3 (y >= 0.05); below that the positive series takes over.
    The two paths agree to ~1e-13 relative at the switch.
    """
    return _complement(geom.y, vacuum_overlap(geom))


def vacuum_rate(
    geom: SuperpositionGeometry,
    variant: str = VARIANT_CANONICAL,
    constants: PhysicalConstants = CODATA2018,
    species_multiplicity: int = 1,
) -> DecoherenceResult:
    """Decoherence rate from the hole's own Hawking emission.

    canonical_appendix: Lambda_total (1 - overlap).
    printed_eq8: same expression with all coefficient denominators 8 pi^k
    in place of 32 pi^k, i.e. exactly 4x canonical (VARIANT_FACTOR).
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    y, n = geom.y, _count("species_multiplicity", species_multiplicity)
    lam = _emission_rate(geom.r_s, n, constants)
    overlap = _overlap(y)
    return DecoherenceResult(
        rate=VARIANT_FACTOR[variant] * (lam * _complement(y, overlap)),
        overlap=overlap,
        lambda_total=lam,
        regime=REGIMES[_regime_index(geom.dx_over_rs)],
        variant=variant,
    )


def canonical_rate_array(
    delta_x,
    r_s,
    constants: PhysicalConstants = CODATA2018,
    species_multiplicity: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """(rate, overlap) of vacuum_rate(SuperpositionGeometry(dx, r), ...) at every
    dx, r of delta_x and r_s broadcast together, bit for bit: separations at one
    radius (`sweep`) or radii at one separation (`evolve`), from one trigamma
    pass and one series call.  The caller validates the geometries."""
    n = _count("species_multiplicity", species_multiplicity)
    _emission_rate(float(np.min(r_s)), n, constants)  # Lambda_total peaks there: check it once
    y = delta_x / (4.0 * math.pi * r_s)
    with np.errstate(over="ignore"):  # y * y past 1e154, where the terms are +0.0
        overlap = _trigamma_im_over_y(y) / _TWO_ZETA3
    overlap[y == 0.0] = 1.0
    complement = 1.0 - overlap
    near = (0.0 < y) & (y < _COMPLEMENT_SERIES_CUT)
    complement[near] = _one_minus_overlap_series(y[near])
    return closed_form_emission_rate(r_s, n, constants) * complement, overlap


def vacuum_rate_small_dx(
    geom: SuperpositionGeometry,
    constants: PhysicalConstants = CODATA2018,
) -> float:
    """Quadratic small-separation limit (27 zeta(5)/256 pi^6)(dx/R_s)^2 c/R_s
    for photons alone: vacuum_rate with N massless species tends to N times it.

    Relative error against the full rate is (3 zeta(7)/2 zeta(5)) y^2 to
    leading order, below 1e-6 for dx/R_s = 0.01.
    """
    coeff = 27.0 * zeta_int(5) / (256.0 * math.pi ** 6)
    x = geom.dx_over_rs
    return _in_range("vacuum_rate_small_dx", lambda: coeff * x * x * constants.c / geom.r_s,
                     "dx/R_s={!r} at r_s={!r} m", x, geom.r_s, lowest=0.0)


def vacuum_rate_saturation(
    geom: SuperpositionGeometry,
    constants: PhysicalConstants = CODATA2018,
) -> float:
    """Large-separation ceiling: every emitted photon distinguishes the
    branches, so the rate saturates at the photon emission rate.  With N
    massless species vacuum_rate saturates at N times it."""
    return _emission_rate(geom.r_s, 1, constants)


def thermal_coefficient() -> float:
    """d = (16 * 8! zeta(9) / 9 pi) * 27^3 / (4 pi)^9 ~= 0.0576."""
    return _THERMAL_PREFACTOR * 27.0 ** 3 / (4.0 * math.pi) ** 9


@dataclass(frozen=True)
class ThermalBathParams:
    """Photon bath of temperature T scattering off a sphere of effective
    radius a (long-wavelength cross-section ~ a^6 omega^4)."""

    radius_eff: float     # m
    temperature: float    # K

    def __post_init__(self) -> None:
        _positive("radius_eff", self.radius_eff)
        _positive("temperature", self.temperature)


def thermal_sphere_rate(
    params: ThermalBathParams,
    delta_x: float,
    constants: PhysicalConstants = CODATA2018,
) -> float:
    """Thermal-bath decoherence rate for a dipole-regime sphere, s^-1.

    (16 * 8! zeta(9) / 9 pi) a^6 dx^2 (k T / hbar)^9 / c^8, computed with
    the temperature as a frequency k T / hbar so that no intermediate
    under- or overflows for physical inputs.  Scales as hbar^-9: thermal
    decoherence has no classical limit.

    Warns (does not fail) when dx or the sphere radius reaches the
    dominant thermal wavelength hbar c / (k T), where the dipole
    expansion underlying the dx^2 law stops being controlled.
    """
    _non_negative("delta_x", delta_x)
    wavelength = constants.hbar * constants.c / (constants.k_B * params.temperature)
    if delta_x >= wavelength:
        warnings.warn(
            f"separation {delta_x:.3e} m is not small against the dominant "
            f"thermal wavelength {wavelength:.3e} m; dipole dx^2 law is extrapolated",
            DipoleApproximationWarning, stacklevel=2)
    if params.radius_eff >= wavelength:
        warnings.warn(
            f"effective radius {params.radius_eff:.3e} m is not small against the "
            f"dominant thermal wavelength {wavelength:.3e} m; a^6 cross-section "
            "is extrapolated",
            DipoleApproximationWarning, stacklevel=2)
    thermal_freq = constants.k_B * params.temperature / constants.hbar
    return _in_range("thermal_sphere_rate", lambda: (
        _THERMAL_PREFACTOR * params.radius_eff ** 6 * delta_x ** 2 * thermal_freq ** 9
        / constants.c ** 8),
        "delta_x={!r} m, radius_eff={!r} m and temperature={!r} K", delta_x,
        params.radius_eff, params.temperature, lowest=0.0)


def thermal_bh_rate(
    geom: SuperpositionGeometry,
    constants: PhysicalConstants = CODATA2018,
    species_multiplicity: int = 1,
) -> float:
    """Thermal rate of a hole immersed in its own-temperature bath, s^-1.

    Specializes the sphere formula with a^2 = 27 R_s^2 and T = T_H; all
    powers of hbar cancel, leaving d (dx/R_s)^2 (c/R_s).
    """
    n = _count("species_multiplicity", species_multiplicity)
    x = geom.dx_over_rs
    return _in_range("thermal_bh_rate", lambda: _thermal_rate(x, geom.r_s, n, constants),
                     "dx/R_s={!r} at r_s={!r} m", x, geom.r_s, lowest=0.0)


def _thermal_rate(x, r_s: float, n: int, constants: PhysicalConstants):
    # d (dx/R_s)^2 (c/R_s), unchecked, at x = dx/R_s: a float or an array
    return n * thermal_coefficient() * x * x * constants.c / r_s


def thermal_localization_coeff(rounded: bool = False) -> float:
    """Coefficient k in tau = k G^2 M^3 / (hbar c^4) for dx = l_p, thermal.

    Exact value 8/d ~= 138.92; ``rounded`` selects the conventional 139.
    """
    if rounded:
        return 139.0
    return 8.0 / thermal_coefficient()


def vacuum_localization_coeff(rounded: bool = False) -> float:
    """Coefficient k in tau = k G^2 M^3 / (hbar c^4) for dx = l_p, vacuum.

    Exact value 8 * 256 pi^6 / (27 zeta(5)) ~= 70326.2; ``rounded``
    selects the conventional 22400 pi ~= 70371.7 (0.065% higher), whose
    ratio to the 5120 pi lifetime coefficient is exactly 35/8 = 4.375.
    """
    if rounded:
        return 22400.0 * math.pi
    return 8.0 * 256.0 * math.pi ** 6 / (27.0 * zeta_int(5))


def planck_localization_time(
    mass: float,
    mode: str = "vacuum",
    rounded: bool = False,
    constants: PhysicalConstants = CODATA2018,
) -> float:
    """Decoherence time for a Planck-length separation, in seconds.

    With dx = l_p both channels give tau = k G^2 M^3/(hbar c^4), the same
    mass scaling as the evaporation lifetime 5120 pi G^2 M^3/(hbar c^4).
    mode selects the thermal or vacuum coefficient; ``rounded`` selects
    the conventional rounded coefficients instead of the exact ones.
    """
    if mode not in ("vacuum", "thermal"):
        raise ValueError(f"mode must be 'vacuum' or 'thermal', got {mode!r}")
    _positive("mass", mass)
    if mode == "thermal":
        coeff = thermal_localization_coeff(rounded)
    else:
        coeff = vacuum_localization_coeff(rounded)
    g2 = constants.G * constants.G
    return _in_range("tau", lambda: coeff * g2 * mass ** 3 / (
        constants.hbar * constants.c ** 4), "mass={!r} kg", mass)
