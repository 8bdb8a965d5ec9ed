"""Command-line interface.

Subcommands: info, rate, sweep, evolve, verify.  Numbers are the bytes of
Python's "%.8e", made a column at a time (_sci); a NaN is a domain error.  CSV
is comma-separated with LF line endings, JSON is the text json.dumps(indent=2)
writes for one object with "meta" and "rows".
Exit codes: 0 success (verify: all checks passed or warned), 1 verify
found a failing check, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import functools
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
from .spectrum import total_emission_rate
from .verification import FAIL, run_checks

_PRINTED_NOTICE = (
    "note: variant printed_eq8 uses the published closed-form coefficients, "
    "which are exactly 4x the emission-rate normalization"
)


# "%.8e" a column at a time, 16 NUL-padded bytes a cell: [sign] d "." 8 digits
# "e" sign 2-3 digits.  With e = floor(log10|x|), m = |x| * 10**(8 - e) is in
# [1e8, 1e9) and rounds to the nine digits.  10**(8 - e) is one exact factor for
# 8 - e in [0, 22], else two correctly rounded ones (no overflow, no subnormal
# product): at most four roundings of half an ulp, so m is within 4.5e-7 of
# exact.  Infinite cells, and those whose m is nonzero outside [1e8, 1e9) or
# within _TIE of a half-integer (a rounding tie or near-tie), take Python's "%.8e".
_TIE = 1e-6
_E = np.arange(-324, 309)  # the decimal exponents of nonzero finite doubles
_P1 = np.where((_E >= -14) & (_E <= 8), 0, (8 - _E) >> 1)
_POW10 = np.array(list(map(float, map("1e{}".format, range(-150, 167)))))  # correctly rounded
_F1, _F2 = _POW10[150 + _P1], _POW10[150 + 8 - _E - _P1]
_EXPONENT = np.array([b"e%+03d" % e for e in _E.tolist()], "S8").view(np.uint64)
_DIGITS = np.ascontiguousarray(  # "0000".."9999" as 4-byte words
    np.indices((10,) * 4, np.uint8).reshape(4, -1).T + np.uint8(ord("0"))).view(np.uint32).ravel()
_BLOCK_BYTES = 127 << 10  # a row block and its bytes copy stay under glibc's 128 KiB mmap threshold


def _exact(x: np.ndarray) -> np.ndarray:
    """Python's own "%.8e" of each value, as rows of 16 NUL-padded bytes."""
    return np.array(["%.8e" % v for v in x.tolist()], "S16").view(np.uint8).reshape(-1, 16)


def _sci(out: np.ndarray, x: np.ndarray) -> None:
    """Write "%.8e" % v for each v in x, NUL-padded, into the 16-byte rows of the
    uint8 matrix out.  A NaN raises json's own ValueError, in CSV as in JSON."""
    if np.isnan(x).any():
        json.dumps(math.nan, allow_nan=False)
    finite = np.isfinite(x)
    a = np.abs(x, out=np.zeros_like(x), where=finite)  # inf: a zero, then the fallback
    # i is the row of the exponent e in the tables
    i = np.floor(np.log10(a, out=np.zeros_like(a), where=a > 0.0)).astype(np.intp) - _E[0]
    m = a * _F1[i] * _F2[i]
    r = np.rint(m)
    certified = finite & (np.abs(m - r) < 0.5 - _TIE) & ((m >= 1e8) & (m < 1e9) | (a == 0.0))
    carry = r == 1e9
    r[carry] = 1e8
    i += carry
    lead, rest = np.divmod(r.astype(np.int64), 10**8)
    out[:, 0] = np.signbit(x).view(np.uint8) * np.uint8(ord("-"))
    out[:, 1] = lead + ord("0")
    out[:, 2] = ord(".")
    out[:, 3:11] = _DIGITS[np.stack(np.divmod(rest, 10**4), axis=1)].view(np.uint8)
    out[:, 11:] = _EXPONENT[i, None].view(np.uint8)[:, :5]
    fallback = np.flatnonzero(~certified)
    out[fallback] = _exact(x[fallback])


def _rows(columns) -> list[str]:
    """The CSV lines of a table given as columns of floats or of str, in blocks."""
    columns = [c if c.dtype.kind == "f" else c.astype("S") for c in map(np.asarray, columns)]
    widths = [16 if c.dtype.kind == "f" else c.itemsize for c in columns]
    width = sum(widths) + len(widths)  # each cell and the separator after it
    n, step = len(columns[0]), max(1, _BLOCK_BYTES // width)
    text = []
    for lo in range(0, n, step):
        block = np.empty((min(step, n - lo), width), np.uint8)
        at = 0
        for c, w in zip(columns, widths):
            if c.dtype.kind == "f":
                _sci(block[:, at:at + w], c[lo:lo + step])
            else:
                block[:, at:at + w] = c[lo:lo + step, None].view(np.uint8)
            block[:, at + w] = ord(",")
            at += w + 1
        block[:, -1] = ord("\n")
        text.append(block.tobytes().translate(None, b"\0").decode())
    return text


def _json_column(values) -> list[str]:
    """JSON text of a column of one type.  A float goes through the CSV's nine
    digits, so both formats encode the same numbers; an infinite one is "inf"."""
    if isinstance(values[0], float):
        text = list(map(repr, map(float, "".join(_rows([values])).split())))
        return list(map({"inf": '"inf"', "-inf": '"inf"'}.get, text, text))
    memo = {v: json.dumps(v) for v in set(values)}
    return list(map(memo.__getitem__, values))


def _write(args, parts: list[str]) -> None:
    """Write text to --out or stdout, part by part (no joined copy)."""
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _emit(args, header: list[str], columns: list, meta: dict) -> None:
    """Write a table given as columns: float or str sequences, or None for empty cells."""
    meta = {**meta, "constants": "CODATA2018"}
    n = len(next(c for c in columns if c is not None))
    if args.format == "json":
        # the text json.dumps(indent=2) writes, a column at a time
        meta_text = ",\n".join(f"    {json.dumps(k)}: {_json_column([v])[0]}"
                               for k, v in meta.items())
        row = "    {\n" + ",\n".join(f"      {json.dumps(k)}: %s" for k in header) + "\n    }"
        cells = zip(*(_json_column([None] * n if c is None else c) for c in columns))
        _write(args, ['{\n  "meta": {\n' + meta_text + '\n  },\n  "rows": [\n'
                      + ",\n".join(map(row.__mod__, cells)) + "\n  ]\n}\n"])
    else:
        _write(args, [",".join(header) + "\n", *_rows([[""] * n if c is None else c
                                                       for c in columns])])


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
    lam = total_emission_rate(hole.r_s, species_multiplicity=args.species)
    header = ["r_s_m", "t_hawking_k", "t_evaporation_s", "lambda_total_per_s",
              "planck_length_m"]
    columns = [[hole.r_s], [hole.t_hawking], [hole.t_evaporation], [lam], [planck_length()]]
    _emit(args, header, columns,
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
    _emit(args, ["rate_si", "tau_d_s", "overlap", "regime", "variant"],
          [None if v is None else [v] for v in row],
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
            rate = VARIANT_FACTOR[variant] * rate
        else:  # point 0 first: a species count too large for a double fails there
            thermal_bh_rate(point(0), species_multiplicity=args.species)
            rate = _thermal_rate(dx_over_rs[:valid], r_s, args.species, CODATA2018)
            overlap, first = None, int(np.searchsorted(rate, math.inf))
            if first < valid:
                thermal_bh_rate(point(first), species_multiplicity=args.species)
        if valid < npts:
            point(valid)
        rate_c_over_rs = rate * r_s / CODATA2018.c
    header = ["dx_over_rs", "rate_c_over_rs", "rate_si", "overlap", "regime"]
    regime = np.array(REGIMES)[_regime_index(dx_over_rs)]
    _emit(args, header, [grid, rate_c_over_rs, rate, overlap, regime],
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
    meta = {"command": "evolve", "mass_kg": args.mass, "delta_x_m": geom.delta_x,
            "t_max_s": args.t_max, "steps": args.steps,
            "evaporate": bool(args.evaporate),
            "species_multiplicity": args.species,
            "tau_d_s": tau,
            "quasi_static_valid": trace.quasi_static_valid}
    _emit(args, header, [trace.times, trace.coherence, trace.mass], meta)
    if args.format == "csv":
        # keep stdout as pure CSV; the summary goes to stderr
        print(f"tau_d_s={tau:.8e} quasi_static_valid={str(trace.quasi_static_valid).lower()}",
              file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    results = run_checks()
    failed = sum(1 for r in results if r.status == FAIL)
    if args.format == "json":
        _write(args, [json.dumps({
            "meta": {"command": "verify", "checks": len(results), "failed": failed},
            # an infinite value (a non-finite deviation) is written "inf", as elsewhere
            "rows": [{"name": r.name, "status": r.status, "detail": r.detail,
                      "value": r.value if r.value < math.inf else "inf", "tol": r.tol}
                     for r in results],
        }, indent=2, allow_nan=False) + "\n"])
    else:
        warned = sum(1 for r in results if r.status == "WARN")
        passed = len(results) - failed - warned
        _write(args, [*(f"{r.status} {r.name}: {r.detail}\n" for r in results),
                      f"{passed} passed, {warned} warned, {failed} failed\n"])
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
