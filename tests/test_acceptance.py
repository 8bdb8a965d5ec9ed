"""Acceptance gate: every release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL
lines alongside the pytest verdicts.  Each criterion states its
tolerance inline; the frozen comparison numbers come from the published
captions and from the independent quadrature/series routes.
"""

import dataclasses
import math

import numpy as np

from hawkdeco import (
    CODATA2018,
    SuperpositionGeometry,
    ThermalBathParams,
    evaporation_time,
    evolve_coherence,
    hawking_temperature,
    overlap_numeric,
    planck_localization_time,
    rate_numeric,
    schwarzschild_radius,
    thermal_bh_rate,
    thermal_coefficient,
    thermal_localization_coeff,
    thermal_sphere_rate,
    trigamma_complex,
    vacuum_localization_coeff,
    vacuum_overlap,
    vacuum_rate,
    vacuum_rate_saturation,
    vacuum_rate_small_dx,
)
from hawkdeco.rates import VARIANT_PRINTED
from hawkdeco.verification import WARN, check_moon_discrepancy

M_SUN = 1.99e30
M_EARTH = 5.97e24
M_MOON = 7.35e22

GRID_MASSES = (1e22, 3.1622776601683795e26, 1e31)
DX_GRID = np.logspace(-3.0, 4.0, 40)


def report(num: int, description: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {description} [{detail}]")
    assert ok, f"criterion {num}: {description} [{detail}]"


def tau_for(mass: float, dx: float = 0.01) -> float:
    return 1.0 / vacuum_rate(SuperpositionGeometry.from_mass(mass, dx)).rate


def test_criterion_01_sun_value():
    tau = tau_for(M_SUN)
    rel = abs(tau - 7.52e9) / 7.52e9
    report(1, "sun, 1 cm: tau_D = 7.52e9 s within 2%", rel <= 0.02,
           f"tau={tau:.4e} s, rel={rel:.2e}")


def test_criterion_02_earth_value():
    tau = tau_for(M_EARTH)
    rel = abs(tau - 2.07e-7) / 2.07e-7
    report(2, "earth, 1 cm: tau_D = 2.07e-7 s within 2%", rel <= 0.02,
           f"tau={tau:.4e} s, rel={rel:.2e}")


def test_criterion_03_moon_documented_warn():
    geom = SuperpositionGeometry.from_mass(M_MOON, 0.01)
    canonical = vacuum_rate(geom)
    printed = vacuum_rate(geom, VARIANT_PRINTED)
    oracle_tau = 1.0 / rate_numeric(geom)
    stable = abs(canonical.decoherence_time - oracle_tau) <= 5e-3 * oracle_tau
    factor4 = abs(printed.rate - 4.0 * canonical.rate) <= 1e-12 * printed.rate
    result = check_moon_discrepancy()
    warned = (result.status == WARN and "3.5" in result.detail and "8.8" in result.detail
              and "1.09" in result.detail)
    ok = stable and factor4 and warned
    report(3, "moon value not reproducible; verify reports documented WARN "
              "with both conventions oracle-stable to 0.5%", ok,
           f"canonical={canonical.decoherence_time:.3e} s, "
           f"printed={printed.decoherence_time:.3e} s, published=1.09e-11 s, "
           f"status={result.status}")


def test_criterion_04_hawking_temperatures():
    published = {M_SUN: 6.17e-8, M_EARTH: 0.0205, M_MOON: 1.67}
    worst = max(abs(hawking_temperature(m) - t) / t for m, t in published.items())
    report(4, "Hawking temperatures for the three published masses within 0.5%",
           worst <= 5e-3, f"worst rel={worst:.2e}")


def test_criterion_05_thermal_constant_and_time():
    d = thermal_coefficient()
    geom = SuperpositionGeometry(delta_x=1.0, r_s=1.0)
    tau_coeff = CODATA2018.c / thermal_bh_rate(geom)  # r_s = 1 m
    d_ok = abs(d - 0.0576) <= 1e-3
    tau_ok = abs(tau_coeff - 17.37) / 17.37 <= 1e-3
    report(5, "thermal d = 0.0576 (+-0.001) and tau(dx=R_s) = 17.37 R_s/c (0.1%)",
           d_ok and tau_ok, f"d={d:.6f}, tau={tau_coeff:.4f} R_s/c")


def test_criterion_06_limits():
    geom = SuperpositionGeometry(delta_x=1e-3, r_s=1.0)
    measured = vacuum_rate_small_dx(geom) * geom.r_s / (CODATA2018.c * 1e-6)
    pre_ok = abs(measured - 1.138e-4) / 1.138e-4 <= 1e-3
    sat_geom = SuperpositionGeometry(delta_x=1e4, r_s=1.0)
    sat = vacuum_rate_saturation(sat_geom)
    sat_rel = abs(vacuum_rate(sat_geom).rate - sat) / sat
    report(6, "small-dx prefactor 1.138e-4 (0.1%); saturation at Lambda_total "
              "within 1% by dx/R_s = 1e4", pre_ok and sat_rel <= 1e-2,
           f"prefactor={measured:.6e}, saturation rel={sat_rel:.2e}")


def test_criterion_07_planck_localization():
    thermal = thermal_localization_coeff()
    vacuum = vacuum_localization_coeff()
    ratio = (planck_localization_time(M_MOON, mode="vacuum", rounded=True)
             / evaporation_time(M_MOON))
    thermal_ok = abs(thermal - 139.0) <= 1.0
    vacuum_ok = abs(vacuum - 22400.0 * math.pi) / (22400.0 * math.pi) <= 5e-3
    ratio_ok = abs(ratio - 4.375) <= 1e-10 * 4.375
    report(7, "localization coefficients: 139 (+-1), 22400 pi (0.5%), "
              "lifetime ratio 4.375 (1e-10)", thermal_ok and vacuum_ok and ratio_ok,
           f"thermal={thermal:.4f}, vacuum={vacuum:.2f}, ratio={ratio:.12f}")


def test_criterion_08_oracle_equivalence():
    worst_overlap = 0.0
    worst_rate = 0.0
    for mass in GRID_MASSES:
        r_s = schwarzschild_radius(mass)
        for x in DX_GRID:
            geom = SuperpositionGeometry(delta_x=float(x) * r_s, r_s=r_s)
            ov_closed = vacuum_overlap(geom)
            dev = abs(overlap_numeric(geom) - ov_closed) / max(1.0, abs(ov_closed))
            worst_overlap = max(worst_overlap, dev)
            closed = vacuum_rate(geom).rate
            worst_rate = max(worst_rate, abs(rate_numeric(geom) - closed) / closed)
    ok = worst_overlap <= 1e-8 and worst_rate <= 1e-8
    report(8, "quadrature vs closed forms to 1e-8 on 40-point grid, three masses",
           ok, f"worst overlap dev={worst_overlap:.2e}, worst rate rel={worst_rate:.2e}")


def test_criterion_09_hbar_invariance():
    geom = SuperpositionGeometry.from_mass(M_EARTH, 0.01)
    params = ThermalBathParams(radius_eff=1e-6, temperature=300.0)
    base_vac = vacuum_rate(geom).rate
    base_th = thermal_bh_rate(geom)
    base_sphere = thermal_sphere_rate(params, 1e-8)
    worst_inv = 0.0
    worst_contrast = 0.0
    for f in (0.5, 2.0, 10.0):
        scaled = dataclasses.replace(CODATA2018, hbar=f * CODATA2018.hbar)
        worst_inv = max(
            worst_inv,
            abs(vacuum_rate(geom, constants=scaled).rate - base_vac) / base_vac,
            abs(thermal_bh_rate(geom, constants=scaled) - base_th) / base_th)
        sphere = thermal_sphere_rate(params, 1e-8, constants=scaled)
        worst_contrast = max(
            worst_contrast, abs(sphere - base_sphere * f ** -9) / (base_sphere * f ** -9))
    ok = worst_inv <= 1e-12 and worst_contrast <= 1e-12
    report(9, "hole rates hbar-invariant to 1e-12; bath rate scales as hbar^-9",
           ok, f"worst invariance={worst_inv:.2e}, worst hbar^-9 dev={worst_contrast:.2e}")


def test_criterion_10_variant_identity():
    worst = 0.0
    for mass in GRID_MASSES:
        r_s = schwarzschild_radius(mass)
        for x in DX_GRID:
            geom = SuperpositionGeometry(delta_x=float(x) * r_s, r_s=r_s)
            canonical = vacuum_rate(geom).rate
            printed = vacuum_rate(geom, VARIANT_PRINTED).rate
            worst = max(worst, abs(printed - 4.0 * canonical) / printed)
    report(10, "printed_eq8 = 4 x canonical to 1e-12 across the grid",
           worst <= 1e-12, f"worst rel={worst:.2e}")


def test_criterion_11_special_functions():
    anchor = abs(trigamma_complex(1.0) - math.pi ** 2 / 6.0)
    worst_rec = 0.0
    worst_conj = 0.0
    for re in (0.5, 1.0, 2.5, 5.0, 10.0, 20.0):
        for im in (0.0, 0.5, 2.0, 10.0, 50.0):
            z = complex(re, im)
            rhs = 1.0 / (z * z)
            worst_rec = max(worst_rec, abs(
                trigamma_complex(z) - trigamma_complex(z + 1.0) - rhs) / abs(rhs))
            worst_conj = max(worst_conj, abs(
                trigamma_complex(z.conjugate()) - trigamma_complex(z).conjugate()))
    ok = anchor <= 1e-12 and worst_rec <= 1e-10 and worst_conj <= 1e-12
    report(11, "trigamma: psi1(1) = pi^2/6 to 1e-12; recurrence and conjugation "
               "on the complex grid", ok,
           f"anchor={anchor:.2e}, recurrence={worst_rec:.2e}, conjugation={worst_conj:.2e}")


def test_criterion_12_evolution():
    geom = SuperpositionGeometry.from_mass(M_MOON, 0.01)
    tau = 1.0 / vacuum_rate(geom).rate
    base = evolve_coherence(M_MOON, 0.01, t_max=tau, steps=128)
    doubled = evolve_coherence(M_MOON, 0.01, t_max=tau, steps=256)
    e_dev = abs(base.coherence[-1] - math.exp(-1.0))
    refine = abs(doubled.coherence[-1] - base.coherence[-1]) / doubled.coherence[-1]
    ok = e_dev <= 1e-6 and refine <= 1e-8
    report(12, "coherence(tau) = 1/e within 1e-6; grid doubling moves it < 1e-8",
           ok, f"1/e dev={e_dev:.2e}, refinement drift={refine:.2e}")
