"""Command-line interface.

Subcommands: info, rate, sweep, evolve, verify.  All numeric output uses
scientific notation with nine significant digits; CSV is comma-separated
with LF line endings, JSON is a single object with "meta" and "rows".
Exit codes: 0 success (verify: all checks passed or warned), 1 verify
found a failing check, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .blackhole import (BlackHole, CODATA2018, _non_negative, _positive, planck_length,
                        schwarzschild_radius)
from .evolution import evolve_coherence
from .quadrature import QuadratureAccuracyError
from .rates import (SuperpositionGeometry, VARIANT_CANONICAL, VARIANT_PRINTED,
                    classify_regime, thermal_bh_rate, vacuum_rate)
from .spectrum import EmissionSpectrum, total_emission_rate
from .verification import FAIL, run_checks

_PRINTED_NOTICE = (
    "note: variant printed_eq8 uses the published closed-form coefficients, "
    "which are exactly 4x the emission-rate normalization"
)


def _fmt(x) -> str:
    # one output cell: nine significant digits (or "inf") for a float, "" for None
    if isinstance(x, float):
        return f"{x:.8e}"
    return "" if x is None else str(x)


def _json_value(x):
    # round-trip through the 9-digit display so JSON and CSV encode the
    # same numbers
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return float(_fmt(x))
    return x


def _write(args, output) -> None:
    """Write a JSON payload (dict) or CSV lines (list) to --out or stdout."""
    if isinstance(output, dict):
        text = json.dumps(output, indent=2, allow_nan=False) + "\n"
    else:
        text = "\n".join(output) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, header: list[str], rows: list[list], meta: dict) -> None:
    meta = {**meta, "constants": "CODATA2018"}
    if args.format == "json":
        _write(args, {
            "meta": {k: _json_value(v) for k, v in meta.items()},
            "rows": [{k: _json_value(v) for k, v in zip(header, row)} for row in rows],
        })
    else:
        # plain loops: on CPython 3.11 map() or a comprehension per row is slower
        lines = [",".join(header)]
        for row in rows:
            cells = []
            for v in row:
                cells.append(_fmt(v))
            lines.append(",".join(cells))
        _write(args, lines)


def _resolve_geometry(args) -> SuperpositionGeometry:
    r_s = schwarzschild_radius(args.mass)
    given = [args.dx is not None, args.dx_over_rs is not None]
    if sum(given) != 1:
        raise ValueError("provide exactly one of --dx or --dx-over-rs")
    if args.dx is not None:
        delta_x = _non_negative("--dx", args.dx)
    else:
        delta_x = _non_negative("--dx-over-rs", args.dx_over_rs) * r_s
    return SuperpositionGeometry(delta_x=delta_x, r_s=r_s)


def _resolve_variant(args) -> str:
    """The rates variant named by --variant; vacuum mode only.  Prints the
    printed_eq8 notice to stderr."""
    if args.variant == "canonical":
        return VARIANT_CANONICAL
    if args.mode == "thermal":
        raise ValueError("--variant applies to the vacuum mode only")
    print(_PRINTED_NOTICE, file=sys.stderr)
    return VARIANT_PRINTED


def cmd_info(args) -> int:
    hole = BlackHole(args.mass)
    lam = total_emission_rate(EmissionSpectrum(
        r_s=hole.r_s, species_multiplicity=args.species))
    header = ["r_s_m", "t_hawking_k", "t_evaporation_s", "lambda_total_per_s",
              "planck_length_m"]
    rows = [[hole.r_s, hole.t_hawking, hole.t_evaporation, lam, planck_length()]]
    _emit(args, header, rows,
          meta={"command": "info", "mass_kg": args.mass,
                "species_multiplicity": args.species})
    return 0


def _rate_row(geom: SuperpositionGeometry, mode: str, variant: str, species: int):
    """(rate, tau, overlap, regime, variant_label); overlap None for thermal."""
    if mode == "vacuum":
        res = vacuum_rate(geom, variant, species_multiplicity=species)
        return res.rate, res.decoherence_time, res.overlap, res.regime, res.variant
    rate = thermal_bh_rate(geom, species_multiplicity=species)
    tau = math.inf if rate == 0.0 else 1.0 / rate
    return rate, tau, None, classify_regime(geom.dx_over_rs), None


def cmd_rate(args) -> int:
    geom = _resolve_geometry(args)
    variant = _resolve_variant(args)
    rate, tau, overlap, regime, variant_label = _rate_row(
        geom, args.mode, variant, args.species)
    header = ["rate_si", "tau_d_s", "overlap", "regime", "variant"]
    rows = [[rate, tau, overlap, regime, variant_label or ""]]
    _emit(args, header, rows,
          meta={"command": "rate", "mass_kg": args.mass, "delta_x_m": geom.delta_x,
                "dx_over_rs": geom.dx_over_rs, "mode": args.mode,
                "variant": variant_label, "species_multiplicity": args.species})
    return 0


def cmd_sweep(args) -> int:
    start, stop, points = args.dx_over_rs
    if not (points.is_integer() and points >= 2):
        raise ValueError(f"--dx-over-rs POINTS must be an integer >= 2, got {points}")
    npts = int(points)
    _non_negative("--dx-over-rs START", start)
    _non_negative("--dx-over-rs STOP", stop)
    if not stop > start:
        raise ValueError(f"need start < stop, got [{start}, {stop}]")
    if args.spacing == "log" and not start > 0.0:
        raise ValueError("log spacing needs start > 0")
    variant = _resolve_variant(args)

    r_s = schwarzschild_radius(args.mass)
    if args.spacing == "log":
        grid = np.logspace(math.log10(start), math.log10(stop), npts)
    else:
        grid = np.linspace(start, stop, npts)

    header = ["dx_over_rs", "rate_c_over_rs", "rate_si", "overlap", "regime"]
    rows = []
    for x in grid:
        geom = SuperpositionGeometry(delta_x=float(x) * r_s, r_s=r_s)
        rate, _, overlap, regime, _ = _rate_row(geom, args.mode, variant, args.species)
        rows.append([float(x), rate * r_s / CODATA2018.c, rate, overlap, regime])
    _emit(args, header, rows,
          meta={"command": "sweep", "mass_kg": args.mass, "mode": args.mode,
                "variant": variant if args.mode == "vacuum" else None,
                "spacing": args.spacing, "species_multiplicity": args.species})
    return 0


def cmd_evolve(args) -> int:
    _positive("--t-max", args.t_max)
    geom = _resolve_geometry(args)
    trace = evolve_coherence(geom, args.mass, args.t_max, args.steps,
                             evaporate=args.evaporate,
                             species_multiplicity=args.species)
    res = vacuum_rate(geom, species_multiplicity=args.species)
    header = ["t", "coherence", "mass"]
    rows = [[float(t), float(c), float(m)]
            for t, c, m in zip(trace.times, trace.coherence, trace.mass)]
    meta = {"command": "evolve", "mass_kg": args.mass, "delta_x_m": geom.delta_x,
            "t_max_s": args.t_max, "steps": args.steps,
            "evaporate": bool(args.evaporate),
            "species_multiplicity": args.species,
            "tau_d_s": res.decoherence_time,
            "quasi_static_valid": trace.quasi_static_valid}
    _emit(args, header, rows, meta)
    if args.format == "csv":
        # keep stdout as pure CSV; the summary goes to stderr
        print(f"tau_d_s={_fmt(res.decoherence_time)} "
              f"quasi_static_valid={str(trace.quasi_static_valid).lower()}",
              file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    results = run_checks()
    failed = sum(1 for r in results if r.status == FAIL)
    if args.format == "json":
        _write(args, {
            "meta": {"command": "verify", "checks": len(results), "failed": failed},
            # an infinite value (a non-finite deviation) is written "inf", as elsewhere
            "rows": [{"name": r.name, "status": r.status, "detail": r.detail,
                      "value": r.value if r.value < math.inf else "inf", "tol": r.tol}
                     for r in results],
        })
    else:
        warned = sum(1 for r in results if r.status == "WARN")
        passed = len(results) - failed - warned
        _write(args, [f"{r.status} {r.name}: {r.detail}" for r in results]
               + [f"{passed} passed, {warned} warned, {failed} failed"])
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hawkdeco",
        description="Decoherence of black hole spatial superpositions by Hawking radiation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def mass(p):
        p.add_argument("--mass", type=float, required=True, help="hole mass in kg")

    def separation(p):
        p.add_argument("--dx", type=float, help="branch separation in m")
        p.add_argument("--dx-over-rs", type=float, help="branch separation in horizon radii")

    def mode_and_variant(p):
        p.add_argument("--mode", choices=("vacuum", "thermal"), default="vacuum")
        p.add_argument("--variant", choices=("canonical", "printed_eq8"), default="canonical")

    def species(p):
        p.add_argument("--species", type=int, default=1,
                       help="massless species multiplicity (default 1)")

    def add(name, help, func, *options):
        p = sub.add_parser(name, help=help)
        for option in options:
            option(p)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.set_defaults(func=func)

    def sweep_range(p):
        p.add_argument("--dx-over-rs", type=float, nargs=3, required=True,
                       metavar=("START", "STOP", "POINTS"),
                       help="separation range in horizon radii")
        p.add_argument("--spacing", choices=("log", "linear"), default="log")

    def evolution(p):
        p.add_argument("--t-max", type=float, required=True, dest="t_max",
                       help="evolution span in s")
        p.add_argument("--steps", type=int, default=256,
                       help="uniform grid intervals (default 256)")
        p.add_argument("--evaporate", action="store_true",
                       help="let the mass shrink by Hawking emission")

    add("info", "derived scales for a given mass", cmd_info, mass, species)
    add("rate", "decoherence rate for one separation", cmd_rate,
        mass, separation, mode_and_variant, species)
    add("sweep", "rate table over a separation range", cmd_sweep,
        mass, sweep_range, mode_and_variant, species)
    add("evolve", "coherence as a function of time", cmd_evolve,
        mass, separation, evolution, species)
    add("verify", "run the self-check battery", cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command != "verify":
            _positive("--mass", args.mass)
        return args.func(args)
    except (ValueError, QuadratureAccuracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
