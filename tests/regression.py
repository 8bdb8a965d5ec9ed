"""Frozen reference values and their on-disk record format.

Every number that the test suite pins against drift is generated by
hawkdeco's own numerical routes (quadrature, direct series, bisection),
written to data/regression_constants.txt as key-value records, and
committed.  Records carry the generator name and its parameters so a
reader can re-derive any value without archaeology.

A record looks like:

    name: overlap_alpha_1
    value: 0.3303643698861859
    value_hex: 0x1.5243...p-2
    rel_tol: 1e-08
    generator: overlap_numeric
    params: alpha=1.0 quad_rel_tol=1e-12

``value`` is the shortest round-tripping decimal; ``value_hex`` is the
authoritative bit pattern.  Both must decode to the same double or the
loader refuses the file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from hawkdeco.quadrature import QuadratureSpec
from hawkdeco.rates import SuperpositionGeometry, ThermalBathParams, thermal_sphere_rate
from hawkdeco.numeric import overlap_numeric, rate_numeric, trigamma_series
from hawkdeco.verification import HEADLINE

# The committed fixture, next to this module.
DEFAULT_FILE = Path(__file__).parent / "data" / "regression_constants.txt"

_FIELDS = ("name", "value", "value_hex", "rel_tol", "generator", "params")

# Tight quadrature settings for reference generation.
_REF_QUAD = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-16, max_subdivisions=20000)

# Branch separation of the headline comparisons (verification.HEADLINE).
_SEPARATION = 0.01


@dataclass(frozen=True)
class RegressionRecord:
    name: str
    value: float
    rel_tol: float
    generator: str
    params: str

    def __post_init__(self) -> None:
        # Generators may hand back numpy scalars; the file format and the
        # decimal/hex cross-check assume plain doubles.
        object.__setattr__(self, "value", float(self.value))


def write_records(path: str | Path, records: list[RegressionRecord]) -> None:
    lines = ["# Reference values regenerated by tests/regression.py; do not edit by hand.", ""]
    for rec in sorted(records, key=lambda r: r.name):
        lines.append(f"name: {rec.name}")
        lines.append(f"value: {rec.value!r}")
        lines.append(f"value_hex: {rec.value.hex()}")
        lines.append(f"rel_tol: {rec.rel_tol!r}")
        lines.append(f"generator: {rec.generator}")
        lines.append(f"params: {rec.params}")
        lines.append("")
    Path(path).write_text("\n".join(lines), encoding="utf-8")


def _parse_block(block: dict[str, str], source: str) -> RegressionRecord:
    missing = [f for f in _FIELDS if f not in block]
    if missing:
        raise ValueError(f"{source}: record missing fields {missing}: {block}")
    value = float.fromhex(block["value_hex"])
    decimal = float(block["value"])
    if decimal != value:
        raise ValueError(
            f"{source}: record {block['name']!r} decimal {block['value']} does not "
            f"match hex {block['value_hex']}")
    return RegressionRecord(
        name=block["name"],
        value=value,
        rel_tol=float(block["rel_tol"]),
        generator=block["generator"],
        params=block["params"],
    )


def parse_records(text: str, source: str = "<string>") -> dict[str, RegressionRecord]:
    records: dict[str, RegressionRecord] = {}
    block: dict[str, str] = {}
    for raw in text.splitlines() + [""]:
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            if block:
                rec = _parse_block(block, source)
                if rec.name in records:
                    raise ValueError(f"{source}: duplicate record {rec.name!r}")
                records[rec.name] = rec
                block = {}
            continue
        key, _, val = line.partition(":")
        key = key.strip()
        if key not in _FIELDS:
            raise ValueError(f"{source}: unknown field {key!r}")
        block[key] = val.strip()
    return records


def load_default_records() -> dict[str, RegressionRecord]:
    """The committed reference file."""
    return parse_records(DEFAULT_FILE.read_text(encoding="utf-8"), source=str(DEFAULT_FILE))


def _bose_mode() -> float:
    # stationarity of u^2/(e^u - 1):  u = 2 (1 - e^-u), bisected to 1 ulp
    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - 2.0 * (1.0 - math.exp(-mid)) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi == lo:
            break
    return 0.5 * (lo + hi)


def generate_records() -> list[RegressionRecord]:
    """Recompute every reference value from scratch."""
    out: list[RegressionRecord] = []
    quad_params = f"quad_rel_tol={_REF_QUAD.rel_tol!r} quad_abs_tol={_REF_QUAD.abs_tol!r}"

    # Emitted-photon overlap at separation 4 pi R_s (alpha = 1), the
    # Fig-style midpoint of the crossover.
    geom_alpha1 = SuperpositionGeometry(delta_x=4.0 * math.pi, r_s=1.0)
    out.append(RegressionRecord(
        name="overlap_alpha_1",
        value=overlap_numeric(geom_alpha1, quad=_REF_QUAD),
        rel_tol=1e-10,
        generator="overlap_numeric",
        params=f"alpha=1.0 {quad_params}",
    ))

    # Headline one-centimetre superpositions.
    for label, (mass, _, _) in HEADLINE.items():
        geom = SuperpositionGeometry.from_mass(mass, _SEPARATION)
        out.append(RegressionRecord(
            name=f"tau_{label}_canonical_s",
            value=1.0 / rate_numeric(geom, quad=_REF_QUAD),
            rel_tol=1e-9,
            generator="rate_numeric",
            params=f"mass_kg={mass!r} delta_x_m={_SEPARATION!r} {quad_params}",
        ))
    mass_moon = HEADLINE["moon"][0]
    geom_moon = SuperpositionGeometry.from_mass(mass_moon, _SEPARATION)
    out.append(RegressionRecord(
        name="overlap_moon",
        value=overlap_numeric(geom_moon, quad=_REF_QUAD),
        rel_tol=1e-9,
        generator="overlap_numeric",
        params=f"mass_kg={mass_moon!r} delta_x_m={_SEPARATION!r} {quad_params}",
    ))

    # Thermal sphere spot value: micron-scale sphere, 10 nm split, room bath.
    out.append(RegressionRecord(
        name="thermal_sphere_rate_300k",
        value=thermal_sphere_rate(
            ThermalBathParams(radius_eff=1e-6, temperature=300.0), delta_x=1e-8),
        rel_tol=1e-12,
        generator="thermal_sphere_rate",
        params="radius_eff=1e-06 temperature=300.0 delta_x=1e-08",
    ))

    # Trigamma anchors Im psi1(1 + iy) = -y (-Im psi1(1 + iy) / y) from the
    # direct series.
    out.append(RegressionRecord(
        name="im_trigamma_1_plus_i",
        value=-trigamma_series(1.0, terms=200000),
        rel_tol=1e-12,
        generator="trigamma_series",
        params="z=1+1j terms=200000",
    ))
    y_moon = geom_moon.y
    out.append(RegressionRecord(
        name="im_trigamma_moon",
        value=-y_moon * trigamma_series(y_moon, terms=200000),
        rel_tol=1e-12,
        generator="trigamma_series",
        params=f"z=1+{y_moon!r}j terms=200000",
    ))

    # Spectral shape mode in u.
    out.append(RegressionRecord(
        name="bose_mode_u",
        value=_bose_mode(),
        rel_tol=1e-12,
        generator="bisection",
        params="stationarity u=2(1-exp(-u)) on [1,2]",
    ))

    return out


def regenerate_default_file(path: str | Path = DEFAULT_FILE) -> Path:
    """Rewrite the committed reference file (maintenance entry point)."""
    write_records(path, generate_records())
    return Path(path)
