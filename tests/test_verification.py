"""The verify battery: one measured value against one tolerance per row."""

import dataclasses
import math

from hawkdeco import verification
from hawkdeco.verification import (FAIL, PASS, WARN, _check, _worst, check_overlap_oracle,
                                   check_rate_oracle, check_variant_factor)


def test_status_is_value_against_tolerance():
    assert _check("x", "deviation", 1e-9, 1e-9).status == PASS
    assert _check("x", "deviation", 2e-9, 1e-9).status == FAIL
    assert _check("x", "deviation", 1e-9, 1e-9, ok=WARN).status == WARN
    nan = _check("x", "deviation", math.nan, 1.0)
    assert nan.status == FAIL and nan.value == math.inf
    assert nan.detail == "deviation inf (tol 1)"


def test_worst_does_not_drop_non_finite_deviations():
    assert _worst([]) == 0.0
    assert _worst([1e-3, 2e-3, 5e-4]) == 2e-3
    assert _worst([1e-3, math.nan, 2e-3]) == math.inf
    assert _worst([math.inf, 1e-3]) == math.inf


def test_a_nan_grid_point_fails_its_check(monkeypatch):
    # NaN at the largest separation of the dx/R_s grid, as a broken closed
    # form would give it; before the NaN-safe reducer all three checks passed
    exact_rate, exact_overlap = verification.vacuum_rate, verification.vacuum_overlap
    largest = verification._DX_GRID[-1]

    def poisoned(geom):
        return math.isclose(geom.dx_over_rs, largest, rel_tol=1e-12)

    def vacuum_rate(geom, *args, **kwargs):
        result = exact_rate(geom, *args, **kwargs)
        return dataclasses.replace(result, rate=math.nan) if poisoned(geom) else result

    def vacuum_overlap(geom):
        return math.nan if poisoned(geom) else exact_overlap(geom)

    monkeypatch.setattr(verification, "vacuum_rate", vacuum_rate)
    monkeypatch.setattr(verification, "vacuum_overlap", vacuum_overlap)
    for check, name in ((check_rate_oracle, "rate_oracle_grid"),
                        (check_variant_factor, "variant_factor_4"),
                        (check_overlap_oracle, "overlap_oracle_grid")):
        result = check()
        assert (result.name, result.status, result.value) == (name, FAIL, math.inf)
