"""Coherence traces: exponential decay, grid convergence, evaporation."""

import math

import numpy as np
import pytest

from hawkdeco import (
    SuperpositionGeometry,
    evaporation_time,
    evolve_coherence,
    mass_at_time,
    schwarzschild_radius,
    vacuum_rate,
)
from hawkdeco import evolution
from hawkdeco.evolution import _cumulative_parabolic

M_MOON = 7.35e22

# small hole whose lifetime is short enough for evaporation to matter
M_SMALL = 1e9


def small_hole_dx(dx_over_rs: float = 2.7327e-17) -> float:
    return dx_over_rs * schwarzschild_radius(M_SMALL)


def test_constant_mass_matches_exponential_exactly():
    geom = SuperpositionGeometry.from_mass(M_MOON, 0.01)
    rate = vacuum_rate(geom).rate
    tau = 1.0 / rate
    trace = evolve_coherence(M_MOON, 0.01, t_max=3.0 * tau, steps=64)
    expected = np.exp(-rate * trace.times)
    assert np.allclose(trace.coherence, expected, rtol=1e-13, atol=0.0)
    assert trace.coherence[0] == 1.0
    assert np.all(trace.mass == M_MOON)


def test_coherence_at_tau_is_inverse_e():
    geom = SuperpositionGeometry.from_mass(M_MOON, 0.01)
    tau = 1.0 / vacuum_rate(geom).rate
    trace = evolve_coherence(M_MOON, 0.01, t_max=tau, steps=100)
    assert trace.coherence[-1] == pytest.approx(math.exp(-1.0), abs=1e-6)


def test_log_coherence_linear_in_rate():
    # doubling the emission channels doubles the exponent everywhere
    geom = SuperpositionGeometry.from_mass(M_MOON, 0.01)
    tau = 1.0 / vacuum_rate(geom).rate
    one = evolve_coherence(M_MOON, 0.01, t_max=2.0 * tau, steps=32)
    two = evolve_coherence(M_MOON, 0.01, t_max=2.0 * tau, steps=32,
                           species_multiplicity=2)
    assert np.allclose(np.log(two.coherence[1:]), 2.0 * np.log(one.coherence[1:]),
                       rtol=1e-12)


def test_grid_doubling_convergence_evaporating():
    dx = small_hole_dx()
    t_max = 0.5 * evaporation_time(M_SMALL)
    coarse = evolve_coherence(M_SMALL, dx, t_max, steps=128, evaporate=True)
    fine = evolve_coherence(M_SMALL, dx, t_max, steps=256, evaporate=True)
    drift = abs(fine.coherence[-1] - coarse.coherence[-1]) / fine.coherence[-1]
    assert drift < 1e-8


def test_evaporation_accelerates_decoherence():
    dx = small_hole_dx()
    t_max = 0.9 * evaporation_time(M_SMALL)
    frozen = evolve_coherence(M_SMALL, dx, t_max, steps=200, evaporate=False)
    shrinking = evolve_coherence(M_SMALL, dx, t_max, steps=200, evaporate=True)
    assert np.all(shrinking.coherence[1:] <= frozen.coherence[1:])
    assert shrinking.coherence[-1] < frozen.coherence[-1]
    assert np.all(np.diff(shrinking.mass) < 0.0)
    assert shrinking.mass[0] == M_SMALL


def _spy_on_the_rate(monkeypatch):
    """Every radius array evolve_coherence hands to canonical_rate_array."""
    real, radii = evolution.canonical_rate_array, []

    def spy(delta_x, r_s, *args, **kwargs):
        radii.append(r_s.copy())
        return real(delta_x, r_s, *args, **kwargs)

    monkeypatch.setattr(evolution, "canonical_rate_array", spy)
    return radii


@pytest.mark.parametrize("species", [1, 2])
@pytest.mark.parametrize("dx_over_rs", [2.7327e-17, 0.3, 30.0])
def test_evaporating_rates_match_scalar_vacuum_rate(dx_over_rs, species, monkeypatch):
    # the grid is evaluated as arrays in one call; every rate must carry the
    # bits of vacuum_rate at the same radius (dx_over_rs = 0.3 crosses
    # y = 0.05 as the hole shrinks, so both complement branches occur).  The
    # trace's rate shows them, where the coherence underflows to 0 long
    # before the mass changes at the larger separations.
    radii = _spy_on_the_rate(monkeypatch)
    dx = small_hole_dx(dx_over_rs)
    t_bh = evaporation_time(M_SMALL)
    trace = evolve_coherence(M_SMALL, dx, 0.999 * t_bh, steps=101, evaporate=True,
                             species_multiplicity=species)
    # numpy's ** and libm pow may differ in the last bit of the cube root
    expected_mass = np.array([mass_at_time(M_SMALL, float(t)) for t in trace.times])
    assert np.all(np.abs(trace.mass - expected_mass) <= 2.0 * np.spacing(expected_mass))
    expected = np.array([
        vacuum_rate(SuperpositionGeometry(dx, schwarzschild_radius(float(m))),
                    species_multiplicity=species).rate
        for m in trace.mass])
    assert len(radii) == 1 and len(radii[0]) == 102
    assert trace.rate.tobytes() == expected.tobytes()
    coherence = np.exp(-_cumulative_parabolic(trace.times, expected))
    assert trace.coherence.tobytes() == coherence.tobytes()


@pytest.mark.parametrize("species", [1, 2])
@pytest.mark.parametrize("dx_over_rs", [0.0, 1e-6, 0.3, 30.0, 1e4])
def test_constant_mass_rate_is_one_evaluation_at_t0(dx_over_rs, species, monkeypatch):
    # one call on the single t = 0 radius, broadcast to the grid: the
    # complement series (dx_over_rs 1e-6 and 0.3) costs ~0.5 ms per radius
    radii = _spy_on_the_rate(monkeypatch)
    geom = SuperpositionGeometry.from_mass(M_MOON, dx_over_rs * schwarzschild_radius(M_MOON))
    trace = evolve_coherence(M_MOON, geom.delta_x, 1e-9, steps=9,
                             species_multiplicity=species)
    assert [r.tolist() for r in radii] == [[geom.r_s]]
    expected = vacuum_rate(geom, species_multiplicity=species).rate
    assert trace.rate.tobytes() == np.full(10, expected).tobytes()
    assert trace.rate.flags.writeable and trace.rate.flags.owndata
    coherence = np.exp(-_cumulative_parabolic(trace.times, trace.rate))
    assert trace.coherence.tobytes() == coherence.tobytes()


def test_evolution_has_one_rate_routine():
    assert not hasattr(evolution, "vacuum_rate")


def test_trace_invariants():
    trace = evolve_coherence(M_SMALL, small_hole_dx(), 0.5 * evaporation_time(M_SMALL),
                             steps=77, evaporate=True)  # odd interval count
    assert trace.times[0] == 0.0
    assert len(trace.times) == len(trace.coherence) == len(trace.mass) == 78
    assert np.all(np.diff(trace.coherence) <= 0.0)
    assert np.all(trace.coherence > 0.0)
    assert np.all(trace.coherence <= 1.0)


def test_quasi_static_flag():
    # decoherence far faster than evaporation: flag set
    trace = evolve_coherence(M_MOON, 0.01, 1e-10, steps=4)
    assert trace.quasi_static_valid
    # decoherence slower than the hole's own lifetime: flag cleared
    trace = evolve_coherence(M_SMALL, small_hole_dx(dx_over_rs=1e-22), 1e-3, steps=4)
    assert not trace.quasi_static_valid


def test_validation_errors():
    with pytest.raises(ValueError):
        evolve_coherence(M_MOON, 0.01, t_max=1.0, steps=1)
    with pytest.raises(ValueError):
        evolve_coherence(M_MOON, 0.01, t_max=0.0, steps=8)
    with pytest.raises(ValueError, match="^delta_x"):
        evolve_coherence(M_MOON, -0.01, t_max=1.0, steps=8)
    with pytest.raises(ValueError):
        evolve_coherence(M_SMALL, small_hole_dx(), t_max=evaporation_time(M_SMALL),
                         steps=8, evaporate=True)
    # dx/R_s is finite at t = 0 but overflows as the hole shrinks
    with pytest.raises(ValueError, match="delta_x / r_s"):
        evolve_coherence(M_SMALL, small_hole_dx(dx_over_rs=1e305),
                         t_max=(1.0 - 1e-12) * evaporation_time(M_SMALL),
                         steps=8, evaporate=True)


def test_too_coarse_evaporating_grid_names_steps():
    # over 0.95 of a 1 kg hole's lifetime at dx/R_s = 1e-3 the rate rises so
    # steeply that the first parabola weight goes negative: the exponent
    # would fall below zero and the coherence exceed 1
    dx = 1e-3 * schwarzschild_radius(1.0)
    with pytest.raises(ValueError, match=r"^steps=2 cannot resolve"):
        evolve_coherence(1.0, dx, 8e-17, steps=2, evaporate=True)
    trace = evolve_coherence(1.0, dx, 8e-17, steps=4, evaporate=True)
    assert np.all(np.diff(trace.coherence) <= 0.0) and trace.coherence[-1] < 1.0
