"""Command-line interface.

Subcommands: info, rate, sweep, evolve, verify.  All numeric output uses
scientific notation with nine significant digits; CSV is comma-separated
with LF line endings, JSON is a single object with "meta" and "rows".
Exit codes: 0 success (verify: all checks passed or warned), 1 verify
found a failing check, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from .blackhole import (BlackHole, CODATA2018, _count, _in_range, _non_negative, _positive,
                        planck_length, schwarzschild_radius)
from .evolution import evolve_coherence
from .quadrature import QuadratureAccuracyError
from .rates import (REGIMES, SuperpositionGeometry, VARIANT_CANONICAL, VARIANT_FACTOR,
                    VARIANT_PRINTED, _regime_index, _thermal_rate, canonical_rate_array,
                    classify_regime, thermal_bh_rate, vacuum_rate)
from .spectrum import EmissionSpectrum, total_emission_rate
from .verification import FAIL, run_checks

_PRINTED_NOTICE = (
    "note: variant printed_eq8 uses the published closed-form coefficients, "
    "which are exactly 4x the emission-rate normalization"
)


def _json_column(values) -> list[str]:
    """JSON text of a column of one type.  A float goes through the CSV's nine
    digits, so both formats encode the same numbers; an infinite one is "inf"."""
    if isinstance(values[0], float):
        text = list(map(repr, map(float, ("%.8e " * len(values) % tuple(values)).split())))
        if "nan" in text:
            json.dumps(math.nan, allow_nan=False)  # raises json's own ValueError
        return list(map({"inf": '"inf"', "-inf": '"inf"'}.get, text, text))
    memo = {v: json.dumps(v) for v in set(values)}
    return list(map(memo.__getitem__, values))


def _write(args, output: str) -> None:
    """Write text to --out or stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output)


def _emit(args, header: list[str], rows: list, meta: dict) -> None:
    meta = {**meta, "constants": "CODATA2018"}
    if args.format == "json":
        # the text json.dumps(indent=2) writes, a column at a time
        meta_text = ",\n".join(f"    {json.dumps(k)}: {_json_column([v])[0]}"
                               for k, v in meta.items())
        row = "    {\n" + ",\n".join(f"      {json.dumps(k)}: %s" for k in header) + "\n    }"
        cells = tuple(itertools.chain.from_iterable(zip(*map(_json_column, zip(*rows)))))
        _write(args, '{\n  "meta": {\n' + meta_text + '\n  },\n  "rows": [\n'
               + ",\n".join([row] * len(rows)) % cells + "\n  ]\n}\n")
    else:
        # One %-format for the whole table, applied once: nine significant
        # digits (or "inf") for a float, "" for None ("%.0s"), str() otherwise.
        # Each column holds one type, so the first row sets the line format.
        line = ",".join("%.8e" if isinstance(v, float) else "%.0s" if v is None else "%s"
                        for v in rows[0])
        cells = tuple(itertools.chain.from_iterable(rows))
        _write(args, ",".join(header) + "\n" + (line + "\n") * len(rows) % cells)


def _delta_x(dx_over_rs: float, r_s: float) -> float:
    """The separation in metres of dx/R_s = dx_over_rs; an overflow names --dx-over-rs."""
    return _in_range("delta_x", lambda: dx_over_rs * r_s, "--dx-over-rs={!r}", dx_over_rs,
                     lowest=0.0)


def _resolve_geometry(args) -> SuperpositionGeometry:
    r_s = schwarzschild_radius(args.mass)
    if (args.dx is None) == (args.dx_over_rs is None):
        raise ValueError("provide exactly one of --dx or --dx-over-rs")
    delta_x = (_non_negative("--dx", args.dx) if args.dx is not None
               else _delta_x(_non_negative("--dx-over-rs", args.dx_over_rs), r_s))
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


def cmd_rate(args) -> int:
    geom = _resolve_geometry(args)
    variant = _resolve_variant(args)
    if args.mode == "vacuum":
        res = vacuum_rate(geom, variant, species_multiplicity=args.species)
        row = [res.rate, res.decoherence_time, res.overlap, res.regime, res.variant]
    else:
        rate = thermal_bh_rate(geom, species_multiplicity=args.species)
        tau = math.inf if rate == 0.0 else 1.0 / rate
        row = [rate, tau, None, classify_regime(geom.dx_over_rs), ""]
    _emit(args, ["rate_si", "tau_d_s", "overlap", "regime", "variant"], [row],
          meta={"command": "rate", "mass_kg": args.mass, "delta_x_m": geom.delta_x,
                "dx_over_rs": geom.dx_over_rs, "mode": args.mode,
                "variant": row[4] or None, "species_multiplicity": args.species})
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
    with np.errstate(over="ignore"):  # 10**log10(stop) may round past the largest double
        grid = (np.logspace(math.log10(start), math.log10(stop), npts) if args.spacing == "log"
                else np.linspace(start, stop, npts))
    grid[0], grid[-1] = start, stop  # the grid runs from START to STOP exactly

    # Each point fails as it would alone in `rate`, which checks its geometry
    # first.  The grid ascends, so the points whose dx/R_s or thermal rate
    # overflows come last.
    with np.errstate(over="ignore"):
        delta_x = grid * r_s
        dx_over_rs = delta_x / r_s
        point = lambda i: SuperpositionGeometry(_delta_x(float(grid[i]), r_s), r_s)
        valid = int(np.searchsorted(dx_over_rs, math.inf))
        if args.mode == "vacuum":
            point(0)  # its geometry is checked before Lambda_total, as in `rate`
            rate, overlap = canonical_rate_array(delta_x[:valid], r_s, CODATA2018, args.species)
            rate, overlap = VARIANT_FACTOR[variant] * rate, overlap.tolist()
        else:  # point 0 first: a species count too large for a double fails there
            thermal_bh_rate(point(0), species_multiplicity=args.species)
            rate = _thermal_rate(dx_over_rs[:valid], r_s, args.species, CODATA2018)
            overlap, first = [None] * valid, int(np.searchsorted(rate, math.inf))
            if first < valid:
                thermal_bh_rate(point(first), species_multiplicity=args.species)
        if valid < npts:
            point(valid)
        rate_c_over_rs = rate * r_s / CODATA2018.c
    header = ["dx_over_rs", "rate_c_over_rs", "rate_si", "overlap", "regime"]
    regime = np.array(REGIMES, dtype=object)[_regime_index(dx_over_rs)].tolist()
    rows = list(zip(grid.tolist(), rate_c_over_rs.tolist(), rate.tolist(), overlap, regime,
                    strict=True))
    _emit(args, header, rows,
          meta={"command": "sweep", "mass_kg": args.mass, "mode": args.mode,
                "variant": variant if args.mode == "vacuum" else None,
                "spacing": args.spacing, "species_multiplicity": args.species})
    return 0


def cmd_evolve(args) -> int:
    _positive("--t-max", args.t_max)
    _count("--steps", args.steps, 2)
    geom = _resolve_geometry(args)
    trace = evolve_coherence(args.mass, geom.delta_x, args.t_max, args.steps,
                             evaporate=args.evaporate,
                             species_multiplicity=args.species)
    rate0 = float(trace.rate[0])
    tau = math.inf if rate0 == 0.0 else 1.0 / rate0
    header = ["t", "coherence", "mass"]
    rows = list(zip(trace.times.tolist(), trace.coherence.tolist(), trace.mass.tolist()))
    meta = {"command": "evolve", "mass_kg": args.mass, "delta_x_m": geom.delta_x,
            "t_max_s": args.t_max, "steps": args.steps,
            "evaporate": bool(args.evaporate),
            "species_multiplicity": args.species,
            "tau_d_s": tau,
            "quasi_static_valid": trace.quasi_static_valid}
    _emit(args, header, rows, meta)
    if args.format == "csv":
        # keep stdout as pure CSV; the summary goes to stderr
        print(f"tau_d_s={tau:.8e} quasi_static_valid={str(trace.quasi_static_valid).lower()}",
              file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    results = run_checks()
    failed = sum(1 for r in results if r.status == FAIL)
    if args.format == "json":
        _write(args, json.dumps({
            "meta": {"command": "verify", "checks": len(results), "failed": failed},
            # an infinite value (a non-finite deviation) is written "inf", as elsewhere
            "rows": [{"name": r.name, "status": r.status, "detail": r.detail,
                      "value": r.value if r.value < math.inf else "inf", "tol": r.tol}
                     for r in results],
        }, indent=2, allow_nan=False) + "\n")
    else:
        warned = sum(1 for r in results if r.status == "WARN")
        passed = len(results) - failed - warned
        _write(args, "".join(f"{r.status} {r.name}: {r.detail}\n" for r in results)
               + f"{passed} passed, {warned} warned, {failed} failed\n")
    return 1 if failed else 0


@functools.cache
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
            _count("--species", args.species)
        return args.func(args)
    except (ValueError, QuadratureAccuracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
