"""Seeded input generation for the four workloads.

Operation i of a workload is drawn in chunks of CHUNK operations, chunk c
from its own generator seeded with (seed, workload, c), so any prefix of
the operation sequence can be rebuilt without the rest and no operation
repeats another.  Masses are log-uniform in [1e10, 1e30] kg and
separations dx/R_s log-uniform over each workload's range.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("sweep", "point_rate", "evolve_evaporate", "oracle")
CHUNK = 4096

LOG10_MASS = (10.0, 30.0)

# CODATA 2018, the package's default constants.
_G = 6.67430e-11
_C = 2.99792458e8
_HBAR = 1.054571817e-34

# Small-separation coefficient of 1 - overlap in (dx/R_s)^2: zeta(5) / (8 pi^2 zeta(3)).
_SMALL_DX = 1.0369277551433699 / (8.0 * math.pi ** 2 * 1.2020569031595942)


def schwarzschild_radius(mass):
    return 2.0 * _G * mass / _C ** 2


def evaporation_time(mass):
    return 5120.0 * math.pi * _G * _G * mass ** 3 / (_HBAR * _C ** 4)


def _approx_decoherence_time(mass, dx_over_rs):
    # a x^2 / (1 + a x^2) follows 1 - overlap within ~6% for x in [1, 100]
    ax2 = _SMALL_DX * dx_over_rs ** 2
    rate_c_over_rs = 27.0 * 1.2020569031595942 / (32.0 * math.pi ** 4) * ax2 / (1.0 + ax2)
    return schwarzschild_radius(mass) / _C / rate_c_over_rs


def _log_uniform(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    return 10.0 ** rng.uniform(lo, hi, n)


def chunk(workload: str, seed: int, c: int) -> dict[str, np.ndarray]:
    """Columns of operations c*CHUNK .. (c+1)*CHUNK - 1 of `workload`."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), c])
    n = CHUNK
    parity = np.arange(c * n, (c + 1) * n) % 2
    mass = _log_uniform(rng, *LOG10_MASS, n)
    if workload == "sweep":
        # "about 1e-3 to about 1e4": about 40% of the points sit below the
        # complement-series cut y = 0.05, i.e. dx/R_s < 0.63
        return {"mass": mass,
                "start": _log_uniform(rng, -3.1, -2.9, n),
                "stop": _log_uniform(rng, 3.9, 4.1, n)}
    if workload in ("point_rate", "oracle"):
        dx_over_rs = _log_uniform(rng, -3.0, 4.0, n)
        cols = {"mass": mass, "delta_x": dx_over_rs * schwarzschild_radius(mass)}
        if workload == "oracle":
            cols["kind"] = parity  # 0: rate_numeric, 1: overlap_numeric
        return cols
    if workload == "evolve_evaporate":
        dx_over_rs = _log_uniform(rng, 0.0, 2.0, n)
        k = rng.uniform(0.5, 5.0, n)
        eps = _log_uniform(rng, -6.0, -1.0, n)
        # even ops: about k decoherence times, over which the mass stays put;
        # odd ops: up to (1 - eps) of the lifetime, where the hole shrinks fast
        t_max = np.where(parity == 0, k * _approx_decoherence_time(mass, dx_over_rs),
                         (1.0 - eps) * evaporation_time(mass))
        return {"mass": mass, "dx_over_rs": dx_over_rs, "kind": parity, "t_max": t_max}
    raise ValueError(f"unknown workload {workload!r}")


def columns(workload: str, seed: int, count: int) -> dict[str, np.ndarray]:
    """Columns of the first `count` operations."""
    parts = [chunk(workload, seed, c) for c in range(max(1, math.ceil(count / CHUNK)))]
    return {k: np.concatenate([p[k] for p in parts])[:count] for k in parts[0]}


class Stream:
    """Operation i as a dict of Python scalars, generated a chunk at a time."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self._index, self._rows = -1, []

    def __getitem__(self, i: int) -> dict:
        c = i // CHUNK
        if c != self._index:
            cols = chunk(self.workload, self.seed, c)
            self._rows = [dict(zip(cols, values)) for values in
                          zip(*(cols[k].tolist() for k in cols))]
            self._index = c
        return self._rows[i % CHUNK]
