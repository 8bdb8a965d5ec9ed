"""Decoherence of black hole spatial superpositions by Hawking radiation.

A hole held in a superposition of two center-of-mass positions loses
coherence because its emitted radiation records which branch it came
from.  This package provides the closed-form rates for the hole's own
emission (vacuum channel) and for scattering of an ambient photon bath
(thermal channel), an independent quadrature route used to validate the
closed forms, time evolution with optional evaporation, and a CLI.
"""

from .blackhole import (
    BlackHole,
    CODATA2018,
    PhysicalConstants,
    evaporation_time,
    hawking_temperature,
    mass_at_time,
    planck_length,
    schwarzschild_radius,
)
from .special import sinc, trigamma_complex, zeta_int
from .spectrum import frequency_pdf, rate_density, total_emission_rate
from .quadrature import QuadratureAccuracyError, QuadratureSpec, integrate_adaptive
from .rates import (
    DecoherenceResult,
    DipoleApproximationWarning,
    SuperpositionGeometry,
    ThermalBathParams,
    VARIANT_CANONICAL,
    VARIANT_PRINTED,
    classify_regime,
    one_minus_overlap,
    planck_localization_time,
    thermal_bh_rate,
    thermal_coefficient,
    thermal_localization_coeff,
    thermal_sphere_rate,
    vacuum_localization_coeff,
    vacuum_overlap,
    vacuum_rate,
    vacuum_rate_saturation,
    vacuum_rate_small_dx,
)
from .numeric import (
    overlap_numeric,
    rate_numeric,
    trigamma_series,
    trigamma_series_error_bound,
)
from .evolution import CoherenceTrace, evolve_coherence
from .verification import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "BlackHole",
    "CODATA2018",
    "CheckResult",
    "CoherenceTrace",
    "DecoherenceResult",
    "DipoleApproximationWarning",
    "PhysicalConstants",
    "QuadratureAccuracyError",
    "QuadratureSpec",
    "SuperpositionGeometry",
    "ThermalBathParams",
    "VARIANT_CANONICAL",
    "VARIANT_PRINTED",
    "classify_regime",
    "evaporation_time",
    "evolve_coherence",
    "frequency_pdf",
    "hawking_temperature",
    "integrate_adaptive",
    "mass_at_time",
    "one_minus_overlap",
    "overlap_numeric",
    "planck_length",
    "planck_localization_time",
    "rate_density",
    "rate_numeric",
    "run_checks",
    "schwarzschild_radius",
    "sinc",
    "thermal_bh_rate",
    "thermal_coefficient",
    "thermal_localization_coeff",
    "thermal_sphere_rate",
    "total_emission_rate",
    "trigamma_complex",
    "trigamma_series",
    "trigamma_series_error_bound",
    "vacuum_localization_coeff",
    "vacuum_overlap",
    "vacuum_rate",
    "vacuum_rate_saturation",
    "vacuum_rate_small_dx",
    "zeta_int",
]
