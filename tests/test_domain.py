"""Input domain of the library: non-finite arguments and results that leave
the range of a double are ValueErrors naming the argument."""

import dataclasses
import math
import re
import warnings

import pytest

from hawkdeco import (CODATA2018, EmissionSpectrum, QuadratureSpec, SuperpositionGeometry,
                      ThermalBathParams, evolve_coherence, mass_at_time, planck_localization_time,
                      rate_density, thermal_bh_rate, thermal_sphere_rate, total_emission_rate,
                      trigamma_complex, trigamma_series, vacuum_rate_small_dx)

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
    pytest.param(lambda: evolve_coherence(SuperpositionGeometry.from_mass(M_EARTH, 0.01),
                                          M_EARTH, math.inf, 4), "t_max",
                 id="evolve_coherence-t_max-inf"),
    pytest.param(lambda: rate_density(EmissionSpectrum(r_s=1.0), math.nan), "omega",
                 id="rate_density-omega-nan"),
    pytest.param(lambda: EmissionSpectrum(r_s=1.0, omega_min=math.nan), "omega_min",
                 id="spectrum-omega_min-nan"),
    pytest.param(lambda: EmissionSpectrum(r_s=math.inf), "r_s", id="spectrum-r_s-inf"),
    pytest.param(lambda: QuadratureSpec(rel_tol=math.inf), "rel_tol", id="quad-rel_tol-inf"),
    pytest.param(lambda: QuadratureSpec(abs_tol=math.nan), "abs_tol", id="quad-abs_tol-nan"),
    pytest.param(lambda: trigamma_complex(-math.inf), "z", id="trigamma_complex-z--inf"),
    pytest.param(lambda: trigamma_complex(complex(1.0, math.nan)), "z",
                 id="trigamma_complex-z-nan"),
    pytest.param(lambda: trigamma_series(-math.inf), "z", id="trigamma_series-z--inf"),
    pytest.param(lambda: trigamma_series(math.inf), "z", id="trigamma_series-z-inf"),
    pytest.param(lambda: trigamma_series(math.nan), "z", id="trigamma_series-z-nan"),
])
def test_non_finite_input_names_the_argument(call, name):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be finite"):
        call()


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


def test_rates_may_underflow_to_zero():
    tiny = SuperpositionGeometry(1e-300, 1e300)
    assert thermal_bh_rate(tiny) == 0.0
    assert vacuum_rate_small_dx(tiny) == 0.0
    assert thermal_sphere_rate(BATH, 0.0) == 0.0


@pytest.mark.parametrize("call, named", [
    pytest.param(lambda: planck_localization_time(1e-100), "mass=1e-100 kg", id="tau"),
    pytest.param(lambda: total_emission_rate(EmissionSpectrum(
        r_s=1e300, constants=dataclasses.replace(CODATA2018, c=1e-20))), "r_s=1e+300 m",
        id="lambda_total"),
])
def test_subnormal_results_are_value_errors(call, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        call()
