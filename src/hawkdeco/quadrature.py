"""Adaptive Gauss-Kronrod quadrature with honest error accounting.

A 7-point Gauss / 15-point Kronrod pair supplies both the value and a
local error estimate |K15 - G7| per interval; the interval with the
largest estimate is bisected until the summed estimate meets the
tolerance.  |K15 - G7| systematically overestimates the true K15 error,
which is the behaviour wanted from a cross-check tool: the reported
estimate should bound the actual error, not flatter it.

Evaluation is batched: the integrand must accept a numpy array and
return one.  It sees at most 1024 intervals' nodes per call: 120 KiB of
doubles, so its temporaries stay in L2 and under glibc's 128 KiB mmap
threshold (past it each one is a fresh, page-faulted mmap); no bit moves.
As in QUADPACK's qag, the intervals form an error-ordered list rather
than a heap: four numpy arrays (left edge, right edge, value, error) in
insertion order, from which each pass bisects the 32 intervals with the
largest estimates in one batch.  A first pass that meets the target,
the common case for seeds that already resolve the integrand, is summed
as it stands and skips that bookkeeping; ``refine`` is the loop alone,
for a caller that holds a first pass from a larger batch, such as one
formed by ``gk15_panels`` (the nodes) and ``gk15_sums`` (per-row sums of
integrand values a caller tabulated on them).  The bookkeeping is
deterministic (equal estimates go to the older interval, and the final
sum runs sequentially left to right across the intervals), and every
rule is summed per row by gk15_sums, not by a BLAS product, so identical
inputs give bit-identical results whatever the CPU's BLAS kernel.  Across
platforms the last bits may still differ where numpy's transcendental
functions in the integrands round differently at different SIMD levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .blackhole import _count, _positive

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
_WEIGHTS = np.stack((_WGK, _WG))
_BLOCK = 1024  # intervals per integrand call (see the module docstring)


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy contract for the adaptive integrator."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 10000

    def __post_init__(self) -> None:
        _positive("rel_tol", self.rel_tol)
        _positive("abs_tol", self.abs_tol)
        _count("max_subdivisions", self.max_subdivisions)


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
    y = np.empty((len(a), len(_NODES)))
    for lo in range(0, len(a), _BLOCK):
        nodes, _ = gk15_panels(a[lo:lo + _BLOCK], b[lo:lo + _BLOCK])
        y[lo:lo + _BLOCK] = np.asarray(f(nodes.ravel())).reshape(nodes.shape)
    if not np.isfinite(y).all():
        raise ValueError("integrand returned a non-finite value")
    return gk15_sums(y, 0.5 * (b - a))


def gk15_panels(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The GK15 nodes on each [a_i, b_i], one row per interval, and the
    half-widths: gk15_batch places its nodes with it, and so may a caller
    that tabulates what its integrands share and sums them with gk15_sums."""
    half = 0.5 * (b - a)
    return (0.5 * (a + b))[:, None] + half[:, None] * _NODES, half


def gk15_sums(y: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, |K15 - G7| estimates) from integrand values y on the nodes
    of gk15_panels and the half-widths.  Each row is summed by numpy's
    einsum, not a BLAS product, so an interval's bits do not depend on its
    row in the batch or on the CPU's BLAS kernel; gk15_batch sums with it too."""
    kronrod, gauss = half * np.einsum("ij,kj->ki", y, _WEIGHTS)
    return kronrod, np.abs(kronrod - gauss)


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
    pts = np.array(points, dtype=float)
    pts.sort()
    if not np.isfinite(pts).all():
        raise ValueError("breakpoints must be finite")
    pts = np.concatenate((pts[:1], pts[1:][pts[1:] > pts[:-1]]))
    if len(pts) < 2:
        raise ValueError("need at least two breakpoints")
    a, b = pts[:-1], pts[1:]
    return refine(f, a, b, *gk15_batch(f, a, b), spec)


def refine(f: Callable, a: np.ndarray, b: np.ndarray, val: np.ndarray, err: np.ndarray,
           spec: QuadratureSpec) -> tuple[float, float]:
    """The adaptive loop of integrate_adaptive from its first pass: the
    ascending, disjoint intervals [a_i, b_i] and their gk15_batch values and
    error estimates.  Returns (value, error_estimate)."""
    # Intervals stay in insertion order (survivors, then children left/right
    # per parent), so a stable sort on -err gives ties to the older interval.
    splits = 0
    while True:
        total_err = float(err.sum())
        tol = max(spec.abs_tol, spec.rel_tol * abs(float(val.sum())))
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

    # Deterministic final sum: sequential, left to right across intervals.
    # A converged first pass is already in that order; after splits, order by
    # left edge (equal left edges, from an interval too narrow to bisect, by value).
    order = np.lexsort((val, a)) if splits else slice(None)
    return float(val[order].cumsum()[-1]), total_err
