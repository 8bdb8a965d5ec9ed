"""Adaptive Gauss-Kronrod quadrature with honest error accounting.

A 7-point Gauss / 15-point Kronrod pair supplies both the value and a
local error estimate |K15 - G7| per interval; the interval with the
largest estimate is bisected until the summed estimate meets the
tolerance.  |K15 - G7| systematically overestimates the true K15 error,
which is the behaviour wanted from a cross-check tool: the reported
estimate should bound the actual error, not flatter it.

Evaluation is batched: the integrand must accept a numpy array and
return one.  As in QUADPACK's qag, the intervals form an error-ordered
list rather than a heap: four numpy arrays (left edge, right edge, value,
error) in insertion order, from which each pass bisects the 32 intervals
with the largest estimates in one batch.  The bookkeeping is
deterministic (equal estimates go to the older interval, and the final
sum runs sequentially left to right across the intervals), so
identical inputs give bit-identical results on one platform.  Across
platforms the last bits may differ: the Kronrod sum is a BLAS dot
product whose kernel depends on the CPU, and numpy's transcendental
functions in the integrands round differently at different SIMD levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .blackhole import _positive

# Kronrod-15 abscissae (positive half) and weights, with the embedded
# Gauss-7 weights on the shared nodes.  Standard published values.
_XGK_HALF = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK_HALF = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG_HALF = np.array([
    0.1294849661688697, 0.2797053914892767,
    0.3818300505051189, 0.4179591836734694,
])

# Full 15-node arrays, ascending; Gauss weights sit on every second node.
_NODES = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])
_WGK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_WG = np.zeros(15)
_WG[1:15:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy contract for the adaptive integrator."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 10000

    def __post_init__(self) -> None:
        _positive("rel_tol", self.rel_tol)
        _positive("abs_tol", self.abs_tol)
        if self.max_subdivisions < 1:
            raise ValueError(f"max_subdivisions must be >= 1, got {self.max_subdivisions}")


class QuadratureAccuracyError(ArithmeticError):
    """Raised when the subdivision budget runs out before the tolerance is met."""

    def __init__(self, message: str, achieved: float, target: float):
        super().__init__(f"{message} (achieved error estimate {achieved:.3e}, target {target:.3e})")
        self.achieved = achieved
        self.target = target


def gk15_batch(f: Callable, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply the GK15 rule to each [a_i, b_i]; returns (values, error estimates)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = center[:, None] + half[:, None] * _NODES[None, :]
    y = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    if not np.all(np.isfinite(y)):
        raise ValueError("integrand returned a non-finite value")
    vk = half * (y @ _WGK)
    vg = half * (y @ _WG)
    return vk, np.abs(vk - vg)


def integrate_adaptive(
    f: Callable,
    points: Sequence[float],
    spec: QuadratureSpec = QuadratureSpec(),
) -> tuple[float, float]:
    """Integrate f over [points[0], points[-1]] splitting at the given seeds.

    Returns (value, error_estimate).  Seed breakpoints let callers place
    known structure (kernel knees, oscillation zeros) on interval edges
    instead of making the refinement loop rediscover it.
    """
    pts = np.sort(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise ValueError("breakpoints must be finite")
    pts = np.append(pts[:1], pts[1:][pts[1:] > pts[:-1]])
    if len(pts) < 2:
        raise ValueError("need at least two breakpoints")

    # Intervals stay in insertion order (survivors, then children left/right
    # per parent), so a stable sort on -err gives ties to the older interval.
    a, b = pts[:-1], pts[1:]
    val, err = gk15_batch(f, a, b)
    splits = 0
    while True:
        total_err = float(np.sum(err))
        tol = max(spec.abs_tol, spec.rel_tol * abs(float(np.sum(val))))
        if total_err <= tol:
            break
        if splits >= spec.max_subdivisions:
            raise QuadratureAccuracyError(
                "quadrature did not converge within the subdivision budget",
                achieved=total_err, target=tol,
            )
        # bisect a batch of the worst intervals in one vectorized evaluation
        worst = np.argsort(-err, kind="stable")[:32]
        wa, wb = a[worst], b[worst]
        mid = 0.5 * (wa + wb)
        an = np.column_stack((wa, mid)).ravel()
        bn = np.column_stack((mid, wb)).ravel()
        nv, ne = gk15_batch(f, an, bn)
        keep = np.ones(len(a), dtype=bool)
        keep[worst] = False
        a, b = np.append(a[keep], an), np.append(b[keep], bn)
        val, err = np.append(val[keep], nv), np.append(err[keep], ne)
        splits += len(worst)

    # Deterministic final sum: sequential, left to right across intervals
    # (equal left edges, from an interval too narrow to bisect, by value).
    return float(np.cumsum(val[np.lexsort((val, a))])[-1]), total_err
