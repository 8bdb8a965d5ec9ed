"""One measured pass of one workload, in a fresh single-threaded interpreter.

    python3 bench/worker.py JOB_JSON     timed pass; writes the job's result file
    python3 bench/worker.py --setup WORKLOAD SCRATCH_DIR
                                         prints seconds for import + first call

The parent (run.py) starts this script with PYTHONPATH pointing at the
checkout's src/ and BLAS threads set to 1, so a pass never inherits
allocator or cache state from another workload.  A pass runs operation 0
once untimed (same-operation warm-up), then operations 0, 1, 2, ... in
order until the summed operation time reaches the budget.  Only the call
into hawkdeco is timed; reading the output back for the checks happens
between operations.

Only the standard library is imported at module level, so that the
set-up probe times the import of numpy as part of importing hawkdeco.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import sys
import time
from array import array

SWEEP_POINTS = 10_000
EVOLVE_STEPS = 4096
# Outputs of the first KEPT_OPS operations go back to the parent for the
# reference checks and the traced/untraced comparison; every operation's
# output is range-checked here.
KEPT_OPS = 4096
SWEEP_SAMPLE_ROWS = 40
EVOLVE_SAMPLE_ROWS = 16

# Fixed set-up inputs: the README's lunar-mass example.
_SETUP_MASS = 7.342e22


def _sample_rows(rows: int, count: int) -> list[int]:
    return sorted({round(j * (rows - 1) / (count - 1)) for j in range(count)})


class Sweep:
    """One `hawkdeco sweep` CLI call (vacuum mode, CSV to a file) per operation."""

    evals = SWEEP_POINTS
    rows = _sample_rows(SWEEP_POINTS, SWEEP_SAMPLE_ROWS)

    def __init__(self, api, scratch):
        self.cli = api.cli
        self.path = os.path.join(scratch, "sweep.csv")

    def prepare(self, op):
        return ["sweep", "--mass", repr(op["mass"]), "--dx-over-rs", repr(op["start"]),
                repr(op["stop"]), str(SWEEP_POINTS), "--out", self.path]

    def run(self, argv):
        code = self.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"hawkdeco sweep exited with {code}")

    def collect(self, _):
        """(row count, sampled dx_over_rs..., sampled rate_c_over_rs...), CSV digest."""
        digest = hashlib.sha256()
        wanted = set(self.rows)
        dx, rate = {}, {}
        n = -1  # header line
        with open(self.path, "rb") as fh:
            for line in fh:
                digest.update(line)
                if n in wanted:
                    fields = line.split(b",")
                    dx[n], rate[n] = float(fields[0]), float(fields[1])
                n += 1
        nan = float("nan")
        row = [float(n)] + [dx.get(r, nan) for r in self.rows] + [rate.get(r, nan) for r in self.rows]
        return row, digest.hexdigest()

    def valid(self, row):
        return row[0] == SWEEP_POINTS and all(v > 0.0 for v in row[1:])

    def close(self):
        pass


class Evolve(Sweep):
    """One `hawkdeco evolve --evaporate --steps 4096` CLI call per operation."""

    evals = EVOLVE_STEPS + 1
    rows = _sample_rows(EVOLVE_STEPS + 1, EVOLVE_SAMPLE_ROWS)

    def __init__(self, api, scratch):
        super().__init__(api, scratch)
        self.path = os.path.join(scratch, "evolve.csv")
        self.sink = open(os.devnull, "w", encoding="utf-8")

    def prepare(self, op):
        return ["evolve", "--evaporate", "--mass", repr(op["mass"]),
                "--dx-over-rs", repr(op["dx_over_rs"]), "--t-max", repr(op["t_max"]),
                "--steps", str(EVOLVE_STEPS), "--out", self.path]

    def run(self, argv):
        # the CLI prints a one-line summary on stderr
        with contextlib.redirect_stderr(self.sink):
            code = self.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"hawkdeco evolve exited with {code}")

    def collect(self, _):
        """(row count, 1 if coherence stays in [0, 1] and never increases else 0,
        final coherence, sampled t..., sampled mass...), CSV digest."""
        digest = hashlib.sha256()
        wanted = set(self.rows)
        t_s, m_s = {}, {}
        ok, prev, coh = True, 1.0, float("nan")
        n = -1
        with open(self.path, "rb") as fh:
            for line in fh:
                digest.update(line)
                if n >= 0:
                    t, coh, m = (float(v) for v in line.split(b","))
                    ok = ok and 0.0 <= coh <= prev
                    prev = coh
                    if n in wanted:
                        t_s[n], m_s[n] = t, m
                n += 1
        nan = float("nan")
        row = ([float(n), float(ok), coh] + [t_s.get(r, nan) for r in self.rows]
               + [m_s.get(r, nan) for r in self.rows])
        return row, digest.hexdigest()

    def valid(self, row):
        return row[0] == EVOLVE_STEPS + 1 and row[1] == 1.0 and all(v >= 0.0 for v in row[2:])

    def close(self):
        self.sink.close()


class PointRate:
    """vacuum_rate(geom) plus thermal_bh_rate(geom) at one geometry."""

    evals = 1

    def __init__(self, api, scratch):
        self.api = api

    def prepare(self, op):
        return op["mass"], op["delta_x"]

    def run(self, args):
        api = self.api
        geom = api.SuperpositionGeometry.from_mass(*args)
        res = api.vacuum_rate(geom)
        return res.rate, res.overlap, api.thermal_bh_rate(geom)

    def collect(self, result):
        """(rate, overlap, thermal rate)."""
        return list(result), None

    def valid(self, row):
        rate, overlap, thermal = row
        return rate >= 0.0 and 0.0 <= overlap <= 1.0 and thermal >= 0.0 and math.isfinite(
            rate + thermal)

    def close(self):
        pass


class Oracle(PointRate):
    """rate_numeric or overlap_numeric (alternating) at one geometry."""

    def prepare(self, op):
        return op["mass"], op["delta_x"], op["kind"]

    def run(self, args):
        api = self.api
        geom = api.SuperpositionGeometry.from_mass(args[0], args[1])
        if args[2] == 0:
            return (api.rate_numeric(geom),)
        return (api.overlap_numeric(geom),)

    def valid(self, row):
        return math.isfinite(row[0])


WORKLOADS = {"sweep": Sweep, "point_rate": PointRate, "evolve_evaporate": Evolve,
             "oracle": Oracle}


def _blas_threads():
    """(library, thread count) of the OpenBLAS loaded in this process."""
    import ctypes

    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower() and ".so" in path:
                libs.add(path)
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return os.path.basename(path), fn()
    return None, None


def _os_threads() -> int:
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


def timed_pass(job: dict) -> dict:
    import hawkdeco
    import hawkdeco.cli
    from inputs import Stream

    ops = Stream(job["workload"], job["seed"])
    kind = WORKLOADS[job["workload"]](hawkdeco, job["scratch"])
    kept, digests, failures = [], [], []

    try:  # same-operation warm-up, untimed
        kind.run(kind.prepare(ops[0]))
    except Exception:  # noqa: BLE001 -- the timed call of op 0 records it
        pass

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    latencies = array("d")
    clock = time.perf_counter
    busy = 0.0
    done = 0
    evals = 0
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    while busy < job["seconds"]:
        args = kind.prepare(ops[done])
        t0 = clock()
        try:
            result = kind.run(args)
            error = None
        except Exception as exc:  # noqa: BLE001 -- any failure of the program counts
            error = f"{type(exc).__name__}: {exc}"
        dt = clock() - t0
        latencies.append(dt)
        busy += dt
        if tracer:
            tracer.fold()
        if error is None:
            row, digest = kind.collect(result)
            if kind.valid(row):
                evals += kind.evals
            else:
                error = "output out of range: " + repr(row[:4])
        else:
            row, digest = None, None
        if error is not None:
            failures.append([done, error])
        if done < KEPT_OPS:
            kept.append(row)
            digests.append(digest)
        done += 1
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    if tracer:
        tracer.restore()
    kind.close()

    lib, threads = _blas_threads()
    return {
        "ops": done,
        "evals": evals,
        "busy_s": busy,
        "latencies": latencies.tolist(),
        "failures": failures,
        "kept": kept,
        "digests": digests,
        "user_s": ru1.ru_utime - ru0.ru_utime,
        "sys_s": ru1.ru_stime - ru0.ru_stime,
        "minflt": ru1.ru_minflt - ru0.ru_minflt,
        "maxrss_kb": ru1.ru_maxrss,
        "blas_library": lib,
        "blas_threads": threads,
        "os_threads": _os_threads(),
        "trace": None if tracer is None else {
            "calls": tracer.calls, "self_s": tracer.self_s,
            "gk15_intervals": tracer.gk15_intervals},
    }


def setup_probe(workload: str, scratch: str) -> float:
    """Seconds to import hawkdeco and make the workload's first call."""
    t0 = time.perf_counter()
    import hawkdeco
    if workload in ("sweep", "evolve_evaporate"):
        import hawkdeco.cli

    r_s = hawkdeco.schwarzschild_radius(_SETUP_MASS)
    mass = repr(_SETUP_MASS)
    if workload == "sweep":
        code = hawkdeco.cli.main(["sweep", "--mass", mass, "--dx-over-rs", "0.001", "10000", "2",
                                  "--out", os.path.join(scratch, "setup.csv")])
    elif workload == "evolve_evaporate":
        with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
            code = hawkdeco.cli.main(["evolve", "--evaporate", "--mass", mass, "--dx-over-rs", "10",
                                      "--t-max", "1e-10", "--steps", "2",
                                      "--out", os.path.join(scratch, "setup.csv")])
    elif workload == "point_rate":
        geom = hawkdeco.SuperpositionGeometry.from_mass(_SETUP_MASS, 1000.0 * r_s)
        hawkdeco.vacuum_rate(geom)
        hawkdeco.thermal_bh_rate(geom)
        code = 0
    else:
        hawkdeco.rate_numeric(hawkdeco.SuperpositionGeometry.from_mass(_SETUP_MASS, r_s))
        code = 0
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"set-up call exited with {code}")
    return elapsed


def main(argv: list[str]) -> int:
    if argv and argv[0] == "--setup":
        print(repr(setup_probe(argv[1], argv[2])))
        return 0
    with open(argv[0], encoding="utf-8") as fh:
        job = json.load(fh)
    result = timed_pass(job)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
