"""Adaptive Gauss-Kronrod integrator: exactness, honesty, determinism."""

import heapq

import numpy as np
import pytest

from hawkdeco import QuadratureAccuracyError, QuadratureSpec, integrate_adaptive
from hawkdeco.numeric import _seed_points, _sinc_zeros
from hawkdeco.quadrature import gk15_batch
from hawkdeco.special import sinc
from hawkdeco.spectrum import bose_seed_points, bose_spectral_kernel


def heap_integrate_adaptive(f, points, spec=QuadratureSpec()):
    """Reference split order: the heap-based loop the array version replaced.

    A heap keyed on (-err, insertion counter) pops the 32 worst intervals per
    pass; totals are kept as running sums; the final value is a sequential
    left-to-right sum."""
    pts = sorted(set(float(p) for p in points))
    a0, b0 = np.array(pts[:-1]), np.array(pts[1:])
    vals, errs = gk15_batch(f, a0, b0)
    heap = []
    counter = 0
    for i in range(len(a0)):
        heapq.heappush(heap, (-errs[i], counter, a0[i], b0[i], vals[i], errs[i]))
        counter += 1
    total_val = float(np.sum(vals))
    total_err = float(np.sum(errs))
    splits = 0
    while True:
        tol = max(spec.abs_tol, spec.rel_tol * abs(total_val))
        if total_err <= tol:
            break
        if splits >= spec.max_subdivisions:
            raise QuadratureAccuracyError("budget", achieved=total_err, target=tol)
        batch = []
        while heap and len(batch) < 32:
            batch.append(heapq.heappop(heap))
        an = np.empty(2 * len(batch))
        bn = np.empty(2 * len(batch))
        for j, (_, _, ia, ib, ival, ierr) in enumerate(batch):
            mid = 0.5 * (ia + ib)
            an[2 * j], bn[2 * j] = ia, mid
            an[2 * j + 1], bn[2 * j + 1] = mid, ib
            total_val -= ival
            total_err -= ierr
        nv, ne = gk15_batch(f, an, bn)
        for j in range(len(an)):
            heapq.heappush(heap, (-ne[j], counter, an[j], bn[j], nv[j], ne[j]))
            counter += 1
        total_val += float(np.sum(nv))
        total_err += float(np.sum(ne))
        splits += len(batch)
    value = 0.0
    for _, v in sorted((entry[2], entry[4]) for entry in heap):
        value += v
    return value, total_err


def bose_sinc(alpha):
    return lambda u: bose_spectral_kernel(u) * sinc(alpha * u)


REFERENCE_CASES = {
    "sqrt": (np.sqrt, [0.0, 1.0]),
    # mirror-image panels give exactly equal error estimates
    "sqrt_abs_tie_2": (lambda x: np.sqrt(np.abs(x)), [-1.0, 0.0, 1.0]),
    "sqrt_abs_tie_4": (lambda x: np.sqrt(np.abs(x)), [-2.0, -1.0, 0.0, 1.0, 2.0]),
    "bose_u0": (bose_spectral_kernel, bose_seed_points(0.0)),
    "bose_u2": (bose_spectral_kernel, bose_seed_points(2.0)),
    "bose_sinc_0.215": (bose_sinc(0.215), _seed_points(0.0, 0.215)),
    # the oracle's explicit head of 2048 sinc lobes
    "bose_sinc_250": (bose_sinc(250.0), _sinc_zeros(250.0, 0.0)[:2049]),
}


def test_gk15_polynomial_exactness():
    # the embedded 7-point Gauss rule is exact through degree 13
    for k in range(14):
        value, _ = gk15_batch(lambda x: x ** k, np.array([0.0]), np.array([1.0]))
        assert value[0] == pytest.approx(1.0 / (k + 1), rel=1e-14)


def test_gk15_error_estimate_zero_for_low_degree():
    _, err = gk15_batch(lambda x: 3.0 * x ** 2, np.array([-1.0]), np.array([2.0]))
    assert err[0] < 1e-13


def test_adaptive_smooth():
    value, err = integrate_adaptive(np.exp, [0.0, 1.0])
    exact = np.e - 1.0
    assert value == pytest.approx(exact, rel=1e-13)
    assert abs(value - exact) <= max(err, 1e-15)


def test_adaptive_needs_refinement():
    # sqrt has an unbounded derivative at 0; the initial panel is not enough
    value, err = integrate_adaptive(np.sqrt, [0.0, 1.0], QuadratureSpec(rel_tol=1e-12))
    assert value == pytest.approx(2.0 / 3.0, rel=1e-11)
    assert abs(value - 2.0 / 3.0) <= err


def test_adaptive_oscillatory_with_seeds():
    # zeros of sin on panel edges
    seeds = [k * np.pi for k in range(11)]
    value, err = integrate_adaptive(np.sin, seeds)
    assert abs(value) <= max(err, 1e-12)
    value2, _ = integrate_adaptive(lambda x: np.sin(x) ** 2, seeds)
    assert value2 == pytest.approx(5.0 * np.pi, rel=1e-12)


def test_error_estimate_is_honest():
    # the reported estimate must bound the actual error
    cases = [
        (np.sqrt, [0.0, 1.0], 2.0 / 3.0),
        (lambda x: 1.0 / (1.0 + x * x), [0.0, 1.0], np.arctan(1.0)),
        (lambda x: np.exp(-x) * x ** 2, [0.0, 5.0, 41.5], 2.0 - np.exp(-41.5) * (41.5 ** 2 + 2 * 41.5 + 2)),
    ]
    for f, seeds, exact in cases:
        value, err = integrate_adaptive(f, seeds, QuadratureSpec(rel_tol=1e-9))
        assert abs(value - exact) <= max(err, 1e-15 * abs(exact))


def test_budget_exhaustion_raises():
    spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=2)
    with pytest.raises(QuadratureAccuracyError) as exc:
        integrate_adaptive(np.sqrt, [0.0, 1.0], spec)
    assert exc.value.achieved > exc.value.target


def test_breakpoint_handling():
    # unsorted and duplicated seeds are normalized
    v1, _ = integrate_adaptive(np.exp, [1.0, 0.0, 0.5, 0.5])
    v2, _ = integrate_adaptive(np.exp, [0.0, 0.5, 1.0])
    assert v1 == v2
    with pytest.raises(ValueError):
        integrate_adaptive(np.exp, [1.0])
    with pytest.raises(ValueError):
        integrate_adaptive(np.exp, [1.0, 1.0])
    for bad in ([0.0, np.nan, 1.0], [0.0, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            integrate_adaptive(np.exp, bad)


def test_deterministic_results():
    f = lambda x: np.sqrt(x) * np.cos(3.0 * x)
    a = integrate_adaptive(f, [0.0, 2.0, 7.0])
    b = integrate_adaptive(f, [0.0, 2.0, 7.0])
    assert a == b


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_split_order_matches_heap_reference(case):
    f, seeds = REFERENCE_CASES[case]
    value, err = integrate_adaptive(f, seeds)
    ref_value, ref_err = heap_integrate_adaptive(f, seeds)
    assert value == ref_value
    assert err == pytest.approx(ref_err, rel=1e-11, abs=0.0)


def test_budget_exhaustion_matches_heap_reference():
    spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=40)
    results = []
    for integrate in (integrate_adaptive, heap_integrate_adaptive):
        nodes = []

        def f(x):
            nodes.append(len(x))
            return np.sqrt(np.abs(x))

        with pytest.raises(QuadratureAccuracyError) as exc:
            integrate(f, [-1.0, 0.0, 1.0], spec)
        results.append((nodes, exc.value.achieved, exc.value.target))
    (nodes, achieved, target), (ref_nodes, ref_achieved, ref_target) = results
    assert nodes == ref_nodes  # the same batches, so the same number of splits
    assert achieved > target
    assert achieved == pytest.approx(ref_achieved, rel=1e-11, abs=0.0)
    assert target == pytest.approx(ref_target, rel=1e-11, abs=0.0)


def test_nonfinite_integrand_rejected():
    bad = lambda x: np.where(x < 0.5, np.inf, 1.0)
    with pytest.raises(ValueError):
        integrate_adaptive(bad, [0.0, 1.0])


def test_integrand_receives_arrays():
    seen = []

    def f(x):
        seen.append(np.asarray(x).shape)
        return np.ones_like(x)

    value, _ = integrate_adaptive(f, [0.0, 3.0])
    assert value == pytest.approx(3.0, rel=1e-14)
    assert all(len(s) == 1 for s in seen)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)
