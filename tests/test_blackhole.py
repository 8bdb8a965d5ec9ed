"""Kinematics of the hole itself: radius, temperature, lifetime, mass history."""

import dataclasses
import math
import re

import pytest
from hypothesis import given, strategies as st

from hawkdeco import (
    BlackHole,
    CODATA2018,
    PhysicalConstants,
    evaporation_time,
    hawking_temperature,
    mass_at_time,
    planck_length,
    planck_localization_time,
    schwarzschild_radius,
)

M_SUN = 1.99e30
M_EARTH = 5.97e24
M_MOON = 7.35e22

masses = st.floats(min_value=1e-6, max_value=1e40, allow_nan=False, allow_infinity=False)


def test_schwarzschild_radius_direct():
    # same arithmetic written out independently of the library path
    for mass in (M_SUN, M_EARTH, M_MOON, 1.0):
        expected = 2.0 * 6.67430e-11 * mass / 2.99792458e8 ** 2
        assert schwarzschild_radius(mass) == pytest.approx(expected, rel=1e-15)
    assert schwarzschild_radius(M_SUN) == pytest.approx(2.955e3, rel=1e-3)
    assert schwarzschild_radius(M_EARTH) == pytest.approx(8.866e-3, rel=1e-3)


def test_schwarzschild_radius_linear():
    assert schwarzschild_radius(2.0 * M_SUN) == pytest.approx(
        2.0 * schwarzschild_radius(M_SUN), rel=1e-15)


def test_hawking_temperatures():
    assert hawking_temperature(M_SUN) == pytest.approx(6.17e-8, rel=5e-3)
    assert hawking_temperature(M_EARTH) == pytest.approx(0.0205, rel=5e-3)
    assert hawking_temperature(M_MOON) == pytest.approx(1.67, rel=5e-3)


@given(masses)
def test_temperature_inverse_proportionality(mass):
    product = hawking_temperature(mass) * mass
    expected = CODATA2018.hbar * CODATA2018.c ** 3 / (
        8.0 * math.pi * CODATA2018.G * CODATA2018.k_B)
    assert product == pytest.approx(expected, rel=1e-12)


@given(masses)
def test_temperature_radius_form(mass):
    # the two printed forms of T_H must be the same number
    c = CODATA2018
    via_radius = c.hbar * c.c / (4.0 * math.pi * c.k_B * schwarzschild_radius(mass))
    assert hawking_temperature(mass) == pytest.approx(via_radius, rel=1e-14)


def test_planck_length_value():
    assert planck_length() == pytest.approx(1.616255e-35, rel=1e-5)


def test_planck_length_identities():
    lp = planck_length()
    c = CODATA2018
    assert lp * lp * c.c ** 3 / (c.hbar * c.G) == pytest.approx(1.0, rel=1e-14)
    scaled = PhysicalConstants(G=c.G, c=c.c, hbar=4.0 * c.hbar, k_B=c.k_B)
    assert planck_length(scaled) == pytest.approx(2.0 * lp, rel=1e-14)


def test_evaporation_time_one_kg():
    c = CODATA2018
    expected = 5120.0 * math.pi * c.G ** 2 / (c.hbar * c.c ** 4)
    assert evaporation_time(1.0) == pytest.approx(expected, rel=1e-15)
    assert evaporation_time(1.0) == pytest.approx(8.4e-17, rel=1e-2)


def test_evaporation_time_cubic():
    assert evaporation_time(2.0 * M_MOON) / evaporation_time(M_MOON) == pytest.approx(
        8.0, rel=1e-13)


@given(masses)
def test_vacuum_localization_to_lifetime_ratio(mass):
    # rounded coefficients give 22400 pi / 5120 pi = 35/8 for every mass
    ratio = planck_localization_time(mass, mode="vacuum", rounded=True) / evaporation_time(mass)
    assert ratio == pytest.approx(4.375, rel=1e-10)


def test_mass_at_time_endpoints():
    assert mass_at_time(M_MOON, 0.0) == M_MOON
    t_bh = evaporation_time(M_MOON)
    assert mass_at_time(M_MOON, 7.0 / 8.0 * t_bh) == pytest.approx(M_MOON / 2.0, rel=1e-12)


def test_mass_at_time_monotone():
    t_bh = evaporation_time(1e9)
    history = [mass_at_time(1e9, f * t_bh) for f in (0.0, 0.2, 0.5, 0.9, 0.999)]
    assert all(a > b for a, b in zip(history, history[1:]))


def test_remaining_lifetime_identity():
    t_bh = evaporation_time(1e9)
    for f in (0.1, 0.5, 0.9):
        t = f * t_bh
        remaining = evaporation_time(mass_at_time(1e9, t))
        assert remaining == pytest.approx(t_bh - t, rel=1e-10)


def test_domain_errors():
    with pytest.raises(ValueError):
        schwarzschild_radius(0.0)
    with pytest.raises(ValueError):
        schwarzschild_radius(-1.0)
    with pytest.raises(ValueError):
        hawking_temperature(-5.0)
    with pytest.raises(ValueError):
        evaporation_time(0.0)
    with pytest.raises(ValueError):
        mass_at_time(-1.0, 0.0)
    with pytest.raises(ValueError):
        mass_at_time(1.0, -1e-20)
    with pytest.raises(ValueError):
        mass_at_time(1.0, evaporation_time(1.0))


@pytest.mark.parametrize("function, mass", [
    (schwarzschild_radius, 1e-300),   # R_s underflows to 0
    (hawking_temperature, 1e-290),    # T_H overflows
    (hawking_temperature, 1e-300),    # 8 pi G M k_B underflows to 0
    (evaporation_time, 1e-120),       # M^3 underflows to 0
    (evaporation_time, 1e120),        # M^3 overflows
    (lambda m: mass_at_time(m, 0.0), 1e120),
    (lambda m: BlackHole(m).t_evaporation, 1e300),
])
def test_out_of_range_results_name_the_mass(function, mass):
    with pytest.raises(ValueError, match=re.escape(f"mass={mass!r} kg")):
        function(mass)


def test_values_near_the_range_edges_are_unchanged():
    # results in the normal range of a double keep their bits; subnormal ones
    # have lost digits and are rejected
    with pytest.raises(ValueError):
        schwarzschild_radius(1e-290)
    assert schwarzschild_radius(1.7e308).hex() == "0x1.bd1c2226065b2p+934"
    assert hawking_temperature(1e-250).hex() == "0x1.224c2937bfd9fp+907"
    assert hawking_temperature(1.7e308).hex() == "0x1.b794118f8f51fp-948"
    with pytest.raises(ValueError):
        evaporation_time(1e-100)
    assert evaporation_time(1e100).hex() == "0x1.219e58c2192c8p+943"


def test_blackhole_dataclass():
    hole = BlackHole(M_SUN)
    assert hole.r_s == schwarzschild_radius(M_SUN)
    assert hole.t_hawking == hawking_temperature(M_SUN)
    assert hole.t_evaporation == evaporation_time(M_SUN)
    with pytest.raises(ValueError):
        BlackHole(0.0)


def test_custom_constants_flow_through():
    doubled = PhysicalConstants(G=2.0 * CODATA2018.G, c=CODATA2018.c,
                                hbar=CODATA2018.hbar, k_B=CODATA2018.k_B)
    assert schwarzschild_radius(1.0, doubled) == pytest.approx(
        2.0 * schwarzschild_radius(1.0), rel=1e-15)
    # replace() re-runs the field checks and keeps a valid bundle
    hbar2 = dataclasses.replace(CODATA2018, hbar=2.0 * CODATA2018.hbar)
    assert planck_length(hbar2) == pytest.approx(math.sqrt(2.0) * planck_length(), rel=1e-15)
