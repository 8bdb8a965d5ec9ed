"""hawkdeco benchmark: seeded workloads, end-to-end metrics, traced per-layer run.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload runs in its own fresh,
single-threaded interpreter (bench/worker.py) against the checkout's src/,
in a closed loop: one caller, the next operation starts when the previous
one returns.  Outputs are checked against mpmath references computed here,
outside the timed region.

--trace 0 prints the end-to-end metrics; --trace 1 spends half the budget
on an untraced pass and half on a traced pass in a second fresh process,
checks that both produce bit-identical outputs, and prints the per-layer
metrics.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; everything above it is the
human-readable report.  Each run also writes a result file with the
environment record under .bench_build/results/.

Workloads (see inputs.py for the generators):
  sweep             one `hawkdeco sweep` of 10^4 log-spaced points, dx/R_s ~1e-3..~1e4;
                    ~40% of the points take the complement series, so it dominates
  point_rate        vacuum_rate + thermal_bh_rate at one geometry, dx/R_s in [1e-3, 1e4];
                    the scalar path the array work must not slow down
  evolve_evaporate  one `hawkdeco evolve --evaporate --steps 4096`, dx/R_s(0) in [1, 100];
                    closed-form trigamma branch only, the control for sweep
  oracle            rate_numeric or overlap_numeric at one geometry, dx/R_s in [1e-3, 1e4];
                    exercises only numeric and quadrature

End-to-end metrics (--trace 0):
  setup_s           import of hawkdeco plus the workload's first call, median of
                    SETUP_REPEATS fresh interpreters
  evals_per_s       evaluations (sweep points, geometries, evolve grid points, oracle
                    calls) per second of operation time, median over consecutive blocks
  op_p50_s          median operation latency
  peak_rss_mb       peak resident memory of the measuring process
  accuracy_digits   -log10 of the worst error against mpmath over the checked sample;
                    the CLI workloads are capped by the 9-digit print, all by 1e-16
The report also prints op_p90_s (for runs of at least 100 operations) and
ops_failed_frac; in the JSON line failures appear as "failed" of "attempted".

Per-layer metrics (--trace 1), from the traced pass: <module>.<function>.calls
and .self_s per operation for every traced function (tracer.LAYERS), ratios
built on them, the untraced pass's own getrusage per operation (proc.*), the
share of evaluations with each input property (input.*), and
trace.overhead_frac = 1 - traced / untraced throughput.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import inputs
from worker import EVOLVE_STEPS, SWEEP_POINTS, WORKLOADS, Evolve, Sweep

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
WORKER = os.path.join(ROOT, "bench", "worker.py")

SETUP_REPEATS = 9
THROUGHPUT_BLOCKS = 10
PRINT_TOL = 1e-8       # the CLI prints 9 significant digits: rounding <= 5e-9 relative
FULL_TOL = 1e-12       # library calls return doubles; 1 - overlap is good to ~2e-13
ORACLE_TOL = 1e-8      # the tolerance `hawkdeco verify` holds the oracle to
CHECKED_OPS = 400      # library ops checked against mpmath per pass
CHECKED_SWEEPS = 10    # sweep ops whose sampled rows are checked against mpmath
P90_MIN_OPS = 100      # report a p90 only with at least ten samples beyond it

END_TO_END_UNITS = {"setup_s": "s", "evals_per_s": "1/s", "op_p50_s": "s",
                    "peak_rss_mb": "MB", "accuracy_digits": "digits"}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # glibc raises its mmap threshold whenever a large mmapped block is
    # freed, so whether the package's 160 KB series temporaries are mmapped
    # (and page-faulted) on every call would depend on what the process,
    # the benchmark's own buffers included, freed before, and could flip in
    # mid-run.  Setting the threshold to glibc's default of 128 KiB turns
    # the dynamic adjustment off and holds every pass in the state of a
    # fresh process, allocator churn included.
    env["MALLOC_MMAP_THRESHOLD_"] = str(128 * 1024)
    return env


def measure_setup(workload: str, scratch: str) -> list[float]:
    """Import + first call, each in a fresh interpreter; the first run is an
    untimed warm-up that also leaves the bytecode cache written."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, WORKER, "--setup", workload, scratch],
                             env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                             timeout=30, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times[1:]


def timed_pass(workload: str, seed: int, seconds: float, trace: bool, scratch: str) -> dict:
    tag = "traced" if trace else "plain"
    job = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
           "scratch": scratch, "result": os.path.join(scratch, f"result-{tag}.json")}
    job_path = os.path.join(scratch, f"job-{tag}.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    subprocess.run([sys.executable, WORKER, job_path], env=_child_env(), cwd=ROOT,
                   timeout=seconds + 60, check=True)
    with open(job["result"], encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- checks

def check_outputs(workload: str, cols: dict, kept: list) -> tuple[set, float]:
    """(indices of kept operations whose output is wrong, worst error against
    the reference over the checked sample)."""
    import reference as ref

    n = len(kept)
    bad = {i for i, row in enumerate(kept) if row is None}
    errors = [ref.ERROR_FLOOR]

    def judge(i, err, tol):
        errors.append(err)
        if not err <= tol:
            bad.add(i)

    def sample(count):
        picks = {round(j * (n - 1) / max(count - 1, 1)) for j in range(min(count, n))}
        return sorted(i for i in picks if kept[i] is not None)

    if workload == "sweep":
        k = len(Sweep.rows)
        checked = set(sample(CHECKED_SWEEPS))
        for i, row in enumerate(kept):
            if row is None:
                continue
            grid = np.logspace(math.log10(cols["start"][i]), math.log10(cols["stop"][i]),
                               SWEEP_POINTS)[Sweep.rows]
            if not np.allclose(row[1:1 + k], grid, rtol=PRINT_TOL, atol=0.0):
                bad.add(i)
            if i in checked:
                for x, value in zip(grid, row[1 + k:]):
                    judge(i, ref.relative_error(value, ref.rate_c_over_rs(x)), PRINT_TOL)
    elif workload == "point_rate":
        for i in sample(CHECKED_OPS):
            m, dx = cols["mass"][i], cols["delta_x"][i]
            rate, _, thermal = kept[i]
            judge(i, ref.relative_error(rate, ref.vacuum_rate(m, dx)), FULL_TOL)
            judge(i, ref.relative_error(thermal, ref.thermal_bh_rate(m, dx)), FULL_TOL)
    elif workload == "evolve_evaporate":
        k = len(Evolve.rows)
        for i, row in enumerate(kept):
            if row is None:
                continue
            m0, t_max = cols["mass"][i], cols["t_max"][i]
            grid = np.linspace(0.0, t_max, EVOLVE_STEPS + 1)[Evolve.rows]
            if not np.allclose(row[3:3 + k], grid, rtol=PRINT_TOL, atol=0.0):
                bad.add(i)
            if cols["kind"][i] == 0:
                # the mass does not move over a few decoherence times, so the
                # rate is constant and coherence ends at exp(-rate * t_max)
                expected = ref.constant_mass_coherence(m0, cols["dx_over_rs"][i], t_max)
                judge(i, ref.relative_error(row[2], expected), PRINT_TOL)
            else:
                for t, m in zip(grid, row[3 + k:]):
                    judge(i, ref.relative_error(m, ref.evaporated_mass(m0, t)), PRINT_TOL)
    elif workload == "oracle":
        import hawkdeco

        for i in sample(CHECKED_OPS):
            m, dx = cols["mass"][i], cols["delta_x"][i]
            geom = hawkdeco.SuperpositionGeometry.from_mass(m, dx)
            value = kept[i][0]
            if cols["kind"][i] == 0:
                judge(i, ref.relative_error(value, ref.vacuum_rate(m, dx)), ORACLE_TOL)
                closed = hawkdeco.vacuum_rate(geom).rate
                if not abs(value - closed) <= ORACLE_TOL * abs(closed):
                    bad.add(i)
            else:
                # overlap deviation is measured against max(1, |overlap|) as in verify
                judge(i, ref.relative_error(value, ref.vacuum_overlap(m, dx), scale=1), ORACLE_TOL)
                if not abs(value - hawkdeco.vacuum_overlap(geom)) <= ORACLE_TOL:
                    bad.add(i)
    return bad, max(errors)


def input_shares(workload: str, cols: dict) -> dict:
    """Share of the evaluations run that has each input property."""
    from hawkdeco.rates import (REGIME_CROSSOVER, REGIME_SATURATED, REGIME_SMALL,
                                classify_regime)

    if workload in ("point_rate", "oracle"):
        x = cols["delta_x"] / inputs.schwarzschild_radius(cols["mass"])
    elif workload == "sweep":
        x = np.concatenate([np.logspace(math.log10(a), math.log10(b), SWEEP_POINTS)
                            for a, b in zip(cols["start"], cols["stop"])])
    else:
        # fixed dx against the shrinking radius R_s(t) = R_s(0) (1 - t/t_bh)^(1/3)
        x = np.concatenate([
            x0 / np.cbrt(1.0 - np.linspace(0.0, t_max, EVOLVE_STEPS + 1)
                         / inputs.evaporation_time(m0))
            for m0, x0, t_max in zip(cols["mass"], cols["dx_over_rs"], cols["t_max"])])
    y = x / (4.0 * math.pi)
    regime = np.array([classify_regime(v) for v in x.tolist()])
    return {
        "input.small_separation_share": float(np.mean(regime == REGIME_SMALL)),
        "input.crossover_share": float(np.mean(regime == REGIME_CROSSOVER)),
        "input.saturated_share": float(np.mean(regime == REGIME_SATURATED)),
        "input.oscillatory_share": float(np.mean(y > 1.0)),
        # below y = 0.05 the package sums the complement series
        "input.series_share": float(np.mean(y < 0.05)),
        # more than 2048 + 64 sinc lobes below u = 41.5: the oracle's Euler-accelerated tail
        "input.accelerated_share": float(np.mean(41.5 * y / math.pi > 2112)),
    }


# ---------------------------------------------------------------- metrics

def end_to_end(workload: str, plain: dict, setup: list[float], worst: float) -> dict:
    lat = np.array(plain["latencies"])
    evals = np.full(len(lat), float(WORKLOADS[workload].evals))
    evals[[i for i, _ in plain["failures"]]] = 0.0
    # median over consecutive blocks of operations, so that a few seconds of
    # a noisy neighbour move one block and not the result
    blocks = np.array_split(np.arange(len(lat)), min(THROUGHPUT_BLOCKS, len(lat)))
    return {
        "setup_s": statistics.median(setup),
        "evals_per_s": statistics.median(float(evals[b].sum() / lat[b].sum()) for b in blocks),
        "op_p50_s": float(np.median(lat)),
        "peak_rss_mb": plain["maxrss_kb"] / 1024.0,
        "accuracy_digits": -math.log10(worst),
    }


def per_layer(plain: dict, traced: dict, shares: dict) -> dict:
    trace = traced["trace"]
    ops = traced["ops"]
    calls, self_s = trace["calls"], trace["self_s"]
    metrics = {}
    for name in calls:
        metrics[f"{name}.calls"] = (calls[name] / ops, "1/op")
        metrics[f"{name}.self_s"] = (self_s[name] / ops, "s/op")

    def ratio(num, den):
        return num / den if den else 0.0  # a ratio with no base reads 0

    gk_intervals = trace["gk15_intervals"]
    oracle_calls = calls["numeric.rate_numeric"] + calls["numeric.overlap_numeric"]
    metrics.update({
        "quadrature.gk15_batch.intervals": (gk_intervals / ops, "1/op"),
        "quadrature.intervals_per_batch": (ratio(gk_intervals, calls["quadrature.gk15_batch"]),
                                           "1/call"),
        "quadrature.nodes_per_oracle_call": (ratio(15 * gk_intervals, oracle_calls), "1/call"),
        "rates.vacuum_overlap.per_rate": (ratio(calls["rates.vacuum_overlap"],
                                                calls["rates.vacuum_rate"]), "1/call"),
        "special.trigamma_complex.per_rate": (ratio(calls["special.trigamma_complex"],
                                                    calls["rates.vacuum_rate"]), "1/call"),
        "proc.user_s": (plain["user_s"] / plain["ops"], "s/op"),
        "proc.sys_s": (plain["sys_s"] / plain["ops"], "s/op"),
        "proc.minflt": (plain["minflt"] / plain["ops"], "1/op"),
        "trace.overhead_frac": (1.0 - ratio(traced["evals"] / traced["busy_s"],
                                            plain["evals"] / plain["busy_s"]), "ratio"),
    })
    for name, value in shares.items():
        metrics[name] = (value, "ratio")
    return metrics


def environment(seed: int, plain: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    import mpmath

    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "blas_build": blas,
        "blas_library": plain["blas_library"],
        "blas_threads_in_effect": plain["blas_threads"],
        "worker_os_threads": plain["os_threads"],
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "load_average": os.getloadavg(),
        "machine_state": "page cache not dropped, CPUs not pinned, frequency not fixed: "
                         "machine settings are left alone",
        "load_generator": "closed loop, one caller in one process",
    }


# ---------------------------------------------------------------- driver

def _same_output(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return np.array(a, dtype=float).tobytes() == np.array(b, dtype=float).tobytes()


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(BUILD, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=BUILD)
    try:
        setup = measure_setup(workload, scratch)
        budget = seconds / 2 if trace else seconds
        plain = timed_pass(workload, seed, budget, False, scratch)
        traced = timed_pass(workload, seed, budget, True, scratch) if trace else None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    cols = inputs.columns(workload, seed, plain["ops"])
    bad, worst = check_outputs(workload, cols, plain["kept"])
    failed_ops = bad | {i for i, _ in plain["failures"]}
    attempted, failed = plain["ops"], len(failed_ops)
    mismatched = []
    if trace:
        mismatched = [i for i, (a, b, da, db) in enumerate(zip(
            plain["kept"], traced["kept"], plain["digests"], traced["digests"]))
            if da != db or not _same_output(a, b)]
        traced_failed = {i for i, _ in traced["failures"]} | set(mismatched) | {
            i for i in bad if i < traced["ops"]}
        attempted += traced["ops"]
        failed += len(traced_failed)

    e2e = end_to_end(workload, plain, setup, worst)
    lat = plain["latencies"]
    extra = {
        "op_p90_s": statistics.quantiles(lat, n=10)[-1] if len(lat) >= P90_MIN_OPS else None,
        "ops_failed_frac": failed / attempted,
    }
    shares = input_shares(workload, cols)
    layers = per_layer(plain, traced, shares) if trace else {}
    env = environment(seed, plain)

    report = [f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}"
              f"  ops {plain['ops']}  evals {plain['evals']}"]
    for name, value in e2e.items():
        report.append(f"  {name:<18} {value:.6g} {END_TO_END_UNITS[name]}")
    p90 = extra["op_p90_s"]
    report.append(f"  {'op_p90_s':<18} " + (f"{p90:.6g} s" if p90 is not None else
                                           f"n/a ({len(lat)} ops < {P90_MIN_OPS})"))
    report.append(f"  {'ops_failed_frac':<18} {extra['ops_failed_frac']:.6g} "
                  f"({failed}/{attempted})")
    for name, (value, unit) in layers.items():
        report.append(f"  {name:<40} {value:.6g} {unit}")
    if mismatched:
        report.append(f"  traced outputs differ from untraced at ops {mismatched[:10]}")
    for i, err in (plain["failures"] + (traced["failures"] if trace else []))[:10]:
        report.append(f"  op {i} failed: {err}")
    if bad:
        report.append(f"  ops failing the reference check: {sorted(bad)[:10]}")
    report.append("  env " + json.dumps(env))
    print("\n".join(report))

    if trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    else:
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in e2e.items()}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    record = {"workload": workload, "seconds": seconds, "trace": trace, "environment": env,
              "end_to_end": e2e, "setup_runs_s": setup, **extra,
              "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
              "input_shares": shares, "ops": plain["ops"],
              "process": {k: plain[k] for k in ("user_s", "sys_s", "minflt", "busy_s")},
              "failures": plain["failures"], "reference_failures": sorted(bad),
              "traced_mismatches": mismatched, "result": line}
    path = os.path.join(BUILD, "results", f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    return line


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)  # BENCHMARK.json run_seconds
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "hawkdeco", "__init__.py")):
        print(f"error: no hawkdeco sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        import mpmath  # noqa: F401
    except ImportError:
        print("error: mpmath is required for the correctness checks and is not installed",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        started = time.perf_counter()
        try:
            line = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"error: {workload}: benchmark process failed: {exc}", file=sys.stderr)
            return 1
        print(f"  wall {time.perf_counter() - started:.1f} s", file=sys.stderr)
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
