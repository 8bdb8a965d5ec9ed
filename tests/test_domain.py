"""Input domain of the library: non-finite arguments, counts that are not
integers of at least their minimum, and results that leave the range of a
double are ValueErrors naming the argument."""

import dataclasses
import math
import re
import warnings

import pytest

from hawkdeco import (CODATA2018, QuadratureSpec, SuperpositionGeometry,
                      ThermalBathParams, classify_regime, evolve_coherence, mass_at_time,
                      planck_localization_time,
                      rate_density, thermal_bh_rate, thermal_sphere_rate, total_emission_rate,
                      trigamma_complex, trigamma_series, trigamma_series_error_bound,
                      vacuum_rate_small_dx, zeta_int)
from hawkdeco.special import zeta_series

M_EARTH = 5.97e24
BATH = ThermalBathParams(radius_eff=1e-6, temperature=300.0)


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: mass_at_time(1e20, math.nan), "t", id="mass_at_time-t-nan"),
    pytest.param(lambda: thermal_sphere_rate(ThermalBathParams(math.inf, 300.0), 1e-8),
                 "radius_eff", id="bath-radius_eff-inf"),
    pytest.param(lambda: ThermalBathParams(1e-6, math.nan), "temperature",
                 id="bath-temperature-nan"),
    pytest.param(lambda: thermal_sphere_rate(BATH, math.nan), "delta_x",
                 id="thermal_sphere_rate-delta_x-nan"),
    pytest.param(lambda: evolve_coherence(M_EARTH, 0.01, math.inf, 4), "t_max",
                 id="evolve_coherence-t_max-inf"),
    pytest.param(lambda: rate_density(1.0, math.nan), "omega", id="rate_density-omega-nan"),
    pytest.param(lambda: total_emission_rate(math.inf), "r_s", id="total_emission_rate-r_s-inf"),
    pytest.param(lambda: rate_density(math.inf, 1.0), "r_s", id="rate_density-r_s-inf"),
    pytest.param(lambda: QuadratureSpec(rel_tol=math.inf), "rel_tol", id="quad-rel_tol-inf"),
    pytest.param(lambda: QuadratureSpec(abs_tol=math.nan), "abs_tol", id="quad-abs_tol-nan"),
    pytest.param(lambda: trigamma_complex(-math.inf), "z", id="trigamma_complex-z--inf"),
    pytest.param(lambda: trigamma_complex(complex(1.0, math.nan)), "z",
                 id="trigamma_complex-z-nan"),
    pytest.param(lambda: trigamma_series(-1.0), "y", id="trigamma_series-y-negative"),
    pytest.param(lambda: trigamma_series(math.nan), "y", id="trigamma_series-y-nan"),
    pytest.param(lambda: trigamma_series(math.inf), "y", id="trigamma_series-y-inf"),
    pytest.param(lambda: trigamma_series_error_bound(-1.0), "y",
                 id="trigamma_series_error_bound-y-negative"),
    pytest.param(lambda: trigamma_series_error_bound(math.nan), "y",
                 id="trigamma_series_error_bound-y-nan"),
    pytest.param(lambda: trigamma_series_error_bound(math.inf), "y",
                 id="trigamma_series_error_bound-y-inf"),
    pytest.param(lambda: classify_regime(math.nan), "dx_over_rs", id="classify_regime-nan"),
    pytest.param(lambda: classify_regime(-1.0), "dx_over_rs", id="classify_regime-negative"),
])
def test_non_finite_input_names_the_argument(call, name):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be finite"):
        call()


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("field", ["G", "c", "hbar", "k_B"])
def test_constants_are_finite_and_positive(field, value):
    # a negative c used to pass unseen through c**2, and a negative hbar
    # reached math.sqrt in planck_length
    with pytest.raises(ValueError, match=rf"^{field} must be finite and positive, got "):
        dataclasses.replace(CODATA2018, **{field: value})



# Every count argument: the call with that argument set to n, its name and its least value.
COUNTS = [
    pytest.param(lambda n: total_emission_rate(1.0, species_multiplicity=n),
                 "species_multiplicity", 1, id="total_emission_rate-species_multiplicity"),
    pytest.param(lambda n: rate_density(1.0, 1.0, species_multiplicity=n),
                 "species_multiplicity", 1, id="rate_density-species_multiplicity"),
    pytest.param(lambda n: thermal_bh_rate(SuperpositionGeometry(1.0, 1.0),
                                           species_multiplicity=n),
                 "species_multiplicity", 1, id="thermal_bh_rate-species_multiplicity"),
    pytest.param(lambda n: evolve_coherence(1e9, 1e-20, 1.0, 4, evaporate=True,
                                            species_multiplicity=n),
                 "species_multiplicity", 1, id="evolve_coherence-species_multiplicity"),
    pytest.param(lambda n: QuadratureSpec(max_subdivisions=n), "max_subdivisions", 1,
                 id="QuadratureSpec-max_subdivisions"),
    pytest.param(lambda n: evolve_coherence(M_EARTH, 0.01, 1.0, n), "steps", 2,
                 id="evolve_coherence-steps"),
    pytest.param(lambda n: trigamma_series(1.0, terms=n), "terms", 100,
                 id="trigamma_series-terms"),
    pytest.param(lambda n: trigamma_series_error_bound(1.0, terms=n), "terms", 100,
                 id="trigamma_series_error_bound-terms"),
    pytest.param(lambda n: zeta_series(n), "n", 2, id="zeta_series-n"),
    pytest.param(lambda n: zeta_series(3, terms=n), "terms", 10, id="zeta_series-terms"),
    pytest.param(lambda n: zeta_int(n), "n", 2, id="zeta_int-n"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 2.5, "below_least"])
@pytest.mark.parametrize("call, name, least", COUNTS)
def test_counts_are_integers_at_least_their_minimum(call, name, least, value):
    if value == "below_least":
        value = least - 1
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= {least}, got "):
        call(value)
    call(least)  # the minimum itself is accepted


@pytest.mark.parametrize("call, named", [
    pytest.param(lambda: thermal_bh_rate(SuperpositionGeometry(1e200, 1.0)),
                 "thermal_bh_rate=inf", id="thermal_bh_rate"),
    pytest.param(lambda: vacuum_rate_small_dx(SuperpositionGeometry(1e200, 1.0)),
                 "vacuum_rate_small_dx=inf", id="vacuum_rate_small_dx"),
    pytest.param(lambda: thermal_sphere_rate(ThermalBathParams(1e-6, 1e40), 1e-8),
                 "thermal_sphere_rate=inf", id="thermal_sphere_rate"),
])
def test_overflowing_rates_are_value_errors(call, named):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the dipole-regime warning of the hot bath
        with pytest.raises(ValueError, match=re.escape(named)):
            call()


@pytest.mark.parametrize("species", [10 ** 305, 10 ** 400])
@pytest.mark.parametrize("evaporate", [False, True])
def test_evolve_with_an_overflowing_emission_rate_names_the_radius(species, evaporate):
    # Lambda_total is range-checked where it peaks, at the smallest radius; the
    # evaporating path used to give NaN rates (10**305) or an OverflowError (10**400)
    with pytest.raises(ValueError, match=r"^r_s=\S+ m puts Lambda_total=inf out of "):
        evolve_coherence(1e20, 1.0, 1e-3, 4, evaporate=evaporate, species_multiplicity=species)


def test_rates_may_underflow_to_zero():
    tiny = SuperpositionGeometry(1e-300, 1e300)
    assert thermal_bh_rate(tiny) == 0.0
    assert vacuum_rate_small_dx(tiny) == 0.0
    assert thermal_sphere_rate(BATH, 0.0) == 0.0


@pytest.mark.parametrize("call, named", [
    pytest.param(lambda: planck_localization_time(1e-100), "mass=1e-100 kg", id="tau"),
    pytest.param(lambda: total_emission_rate(
        1e300, constants=dataclasses.replace(CODATA2018, c=1e-20)), "r_s=1e+300 m",
        id="lambda_total"),
])
def test_subnormal_results_are_value_errors(call, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        call()
