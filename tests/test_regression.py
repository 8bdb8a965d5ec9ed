"""Committed reference values: file format, round-trip, and drift checks."""

import importlib.util
import math
from pathlib import Path

import pytest

import hawkdeco
from hawkdeco import (
    SuperpositionGeometry,
    ThermalBathParams,
    thermal_sphere_rate,
    trigamma_complex,
    vacuum_overlap,
    vacuum_rate,
)
from hawkdeco.spectrum import bose_spectral_kernel
from regression import (
    RegressionRecord,
    load_default_records,
    parse_records,
    regenerate_default_file,
    write_records,
)

EXPECTED_NAMES = {
    "bose_mode_u",
    "im_trigamma_1_plus_i",
    "im_trigamma_moon",
    "overlap_alpha_1",
    "overlap_moon",
    "tau_earth_canonical_s",
    "tau_moon_canonical_s",
    "tau_sun_canonical_s",
    "thermal_sphere_rate_300k",
}


def test_default_file_contents():
    records = load_default_records()
    assert set(records) == EXPECTED_NAMES
    for rec in records.values():
        assert math.isfinite(rec.value)
        assert rec.rel_tol > 0.0
        assert rec.generator
        assert rec.params


def test_the_package_ships_no_fixture():
    # the fixture and its generator live under tests/, not in the wheel
    assert importlib.util.find_spec("hawkdeco.regression") is None
    assert not (Path(hawkdeco.__file__).parent / "data").exists()


def test_roundtrip_bit_exact(tmp_path):
    records = list(load_default_records().values())
    path = tmp_path / "constants.txt"
    write_records(path, records)
    back = parse_records(path.read_text(encoding="utf-8"), source=str(path))
    for rec in records:
        assert back[rec.name].value == rec.value  # bit-exact, not approx
        assert back[rec.name].rel_tol == rec.rel_tol


# Quadrature generators run numpy transcendentals (exp, expm1), whose last
# bits depend on the CPU's SIMD dispatch level.  Their GK15 sums are per
# row (einsum), so the OpenBLAS kernel no longer moves them; when the
# Kronrod sums were BLAS dot products, older kernels (Nehalem, Sandybridge,
# Core2, Prescott) moved oracle records by up to 4 ulps.  The bound is four
# times that spread, and still at least 10^4 times tighter than these
# records' rel_tol, so a real change to a generator fails.
QUADRATURE_GENERATORS = {"overlap_numeric", "rate_numeric"}
QUADRATURE_ULPS = 16


def test_regeneration_matches_committed_file(tmp_path):
    # through the maintenance entry point the README documents, into a scratch file
    committed = load_default_records()
    path = regenerate_default_file(tmp_path / "constants.txt")
    assert path == tmp_path / "constants.txt"
    fresh = parse_records(path.read_text(encoding="utf-8"), source=str(path))
    assert set(fresh) == set(committed)
    for name, rec in committed.items():
        if rec.generator in QUADRATURE_GENERATORS:
            ulps = abs(fresh[name].value - rec.value) / math.ulp(rec.value)
            assert ulps <= QUADRATURE_ULPS, (name, ulps)
        else:
            # the series (math.fsum), bisection and closed-form generators
            # do scalar double arithmetic that no numpy SIMD level or BLAS
            # kernel touches, so their values must come back identically
            assert fresh[name].value == rec.value, name


def test_parser_rejects_corruption():
    rec = RegressionRecord("a", 1.5, 1e-9, "gen", "p=1")
    good_lines = [
        f"name: {rec.name}", f"value: {rec.value!r}",
        f"value_hex: {rec.value.hex()}", f"rel_tol: {rec.rel_tol!r}",
        f"generator: {rec.generator}", f"params: {rec.params}", "",
    ]
    # decimal and hex disagree
    bad = list(good_lines)
    bad[1] = "value: 1.6"
    with pytest.raises(ValueError, match="hex"):
        parse_records("\n".join(bad))
    # duplicate names
    with pytest.raises(ValueError, match="duplicate"):
        parse_records("\n".join(good_lines + good_lines))
    # unknown field
    bad = good_lines[:5] + ["surprise: 1"] + good_lines[5:]
    with pytest.raises(ValueError):
        parse_records("\n".join(bad))
    # missing field
    with pytest.raises(ValueError, match="missing"):
        parse_records("\n".join(good_lines[:3] + good_lines[4:]))


def test_record_coerces_value_to_float():
    import numpy as np
    rec = RegressionRecord("x", np.float64(2.25), 1e-9, "g", "p")
    assert type(rec.value) is float


def current_value(name: str) -> float:
    """Recompute each pinned quantity along its closed-form route."""
    geom_moon = SuperpositionGeometry.from_mass(7.35e22, 0.01)
    routes = {
        "overlap_alpha_1": lambda: vacuum_overlap(
            SuperpositionGeometry(delta_x=4.0 * math.pi, r_s=1.0)),
        "overlap_moon": lambda: vacuum_overlap(geom_moon),
        "tau_sun_canonical_s": lambda: 1.0 / vacuum_rate(
            SuperpositionGeometry.from_mass(1.99e30, 0.01)).rate,
        "tau_earth_canonical_s": lambda: 1.0 / vacuum_rate(
            SuperpositionGeometry.from_mass(5.97e24, 0.01)).rate,
        "tau_moon_canonical_s": lambda: 1.0 / vacuum_rate(geom_moon).rate,
        "thermal_sphere_rate_300k": lambda: thermal_sphere_rate(
            ThermalBathParams(radius_eff=1e-6, temperature=300.0), 1e-8),
        "im_trigamma_1_plus_i": lambda: trigamma_complex(1.0 + 1.0j).imag,
        "im_trigamma_moon": lambda: trigamma_complex(1.0 + 1j * geom_moon.y).imag,
    }
    return routes[name]()


def test_closed_forms_match_pinned_quadrature_values():
    """The real drift alarm: today's closed-form numbers vs the committed
    independently-generated references, at each record's tolerance."""
    records = load_default_records()
    for name in sorted(EXPECTED_NAMES - {"bose_mode_u"}):
        rec = records[name]
        assert current_value(name) == pytest.approx(rec.value, rel=rec.rel_tol), name


def test_bose_mode_record_is_stationary():
    mode = load_default_records()["bose_mode_u"].value
    # stationarity condition u = 2 (1 - e^-u) of u^2/(e^u - 1)
    assert mode == pytest.approx(2.0 * (1.0 - math.exp(-mode)), rel=1e-12)
    assert bose_spectral_kernel(mode) >= bose_spectral_kernel(mode - 1e-7)
    assert bose_spectral_kernel(mode) >= bose_spectral_kernel(mode + 1e-7)
