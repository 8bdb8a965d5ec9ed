"""Adaptive Gauss-Kronrod integrator: exactness, honesty, determinism."""

import heapq

import numpy as np
import pytest

from hawkdeco import QuadratureAccuracyError, QuadratureSpec, integrate_adaptive
from hawkdeco.quadrature import gk15_batch, gk15_panels, gk15_sums
from hawkdeco.special import sinc
from hawkdeco.spectrum import BOSE_SEEDS, bose_spectral_kernel


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
    "bose_u0": (bose_spectral_kernel, list(BOSE_SEEDS)),
    "bose_u2": (bose_spectral_kernel, [2.0, 8.0, 20.0, 52.0]),
    # the kernel's knees and the sinc zeros below the truncation
    "bose_sinc_0.215": (bose_sinc(0.215), [*BOSE_SEEDS, *(np.pi * k / 0.215 for k in (1, 2, 3))]),
    # 2048 sinc lobes from u = 0, split at the zeros; meets the target on its first pass
    "bose_sinc_250": (bose_sinc(250.0), np.pi * np.arange(2049.0) / 250.0),
}


def test_gk15_polynomial_exactness():
    # the embedded 7-point Gauss rule is exact through degree 13
    for k in range(14):
        value, _ = gk15_batch(lambda x: x ** k, np.array([0.0]), np.array([1.0]))
        assert value[0] == pytest.approx(1.0 / (k + 1), rel=1e-14)


def test_gk15_error_estimate_zero_for_low_degree():
    _, err = gk15_batch(lambda x: 3.0 * x ** 2, np.array([-1.0]), np.array([2.0]))
    assert err[0] < 1e-13


def test_gk15_panels_and_sums_are_the_gk15_rule():
    a, b = np.array([0.0, 0.5, 2.0]), np.array([0.5, 2.0, 7.0])
    seen = []

    def f(x):
        seen.append(x)
        return np.exp(-x) * np.sin(3.0 * x)

    values, errors = gk15_batch(f, a, b)
    nodes, half = gk15_panels(a, b)
    assert nodes.ravel().tobytes() == seen[0].tobytes()
    assert half.tobytes() == (0.5 * (b - a)).tobytes()
    # gk15_batch sums with gk15_sums: the same bits
    sums, estimates = gk15_sums(f(nodes), half)
    assert sums.tobytes() == values.tobytes() and estimates.tobytes() == errors.tobytes()


def test_gk15_sums_do_not_depend_on_the_row():
    # one interval at every row of batches of 1 to 130 gets the same bits,
    # which a BLAS matrix-vector product does not give (its kernel rounds
    # the trailing rows differently)
    rng = np.random.default_rng(0)
    nodes, half = gk15_panels(np.array([0.3]), np.array([1.7]))
    row = np.exp(-nodes) * np.sin(3.0 * nodes)
    value, error = gk15_sums(row, half)
    for n in range(1, 131):
        y, h = rng.standard_normal((n, 15)), rng.uniform(0.1, 1.0, n)
        for pos in range(n):
            batch, widths = y.copy(), h.copy()
            batch[pos], widths[pos] = row[0], half[0]
            v, e = gk15_sums(batch, widths)
            assert (v[pos], e[pos]) == (value[0], error[0]), (n, pos)


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


def test_converged_first_pass_is_the_sequential_sum():
    # a first pass that meets the target is summed left to right as it
    # stands: one gk15_batch (two integrand blocks of 1024 intervals), no split
    f, seeds = REFERENCE_CASES["bose_sinc_250"]
    blocks = []

    def counted(x):
        blocks.append(len(x))
        return f(x)

    value, err = integrate_adaptive(counted, seeds)
    vals, errs = gk15_batch(f, seeds[:-1], seeds[1:])
    assert blocks == [15 * 1024, 15 * 1024]
    assert value == float(np.cumsum(vals)[-1])
    assert err == float(np.sum(errs))


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
