"""Quantile/distortion risk measures over a closed algebra of distributions."""

from .distortions import (
    ConvexityResult,
    Distortion,
    DistortionMeasure,
    Piece,
    SpectralDensity,
    distortion_of,
    expectation,
    expected_shortfall_distortion,
    higher_order_es_distortion,
    is_convex,
    make_named,
    spectral_of,
    sqrt_example_distortion,
    threshold_distortion,
    value_at_risk_distortion,
)
from .distributions import (
    Discrete,
    Distribution,
    ParetoNegative,
    ParetoPositive,
    comonotone_sum,
    point_mass,
)
from .errors import (
    InconclusiveError,
    NoCounterexampleError,
    NotSpectralError,
    ParameterError,
    ParseError,
    QuantRiskError,
)
from .riskmeasures import (
    DomainClass,
    DomainComparison,
    InfimumResult,
    MembershipVerdict,
    RiskValue,
    Verdict,
    choquet_risk,
    classify_membership,
    compare_domains,
    expected_shortfall,
    expected_shortfall_higher_order,
    expected_shortfall_infimum,
    mixture_risk,
    quantile_risk,
    value_at_risk,
)

# name -> module for the exports of the two modules that are loaded only on first use
_LAZY = {
    "ComonotoneAdditivityReport": "subadditivity",
    "CounterexampleReport": "subadditivity",
    "JointTable": "subadditivity",
    "SubadditivityViolation": "subadditivity",
    "build_counterexample": "subadditivity",
    "comonotone_additivity_check": "subadditivity",
    "subadditivity_search": "subadditivity",
    "SuiteConfig": "suite",
    "SuiteReport": "suite",
    "default_config": "suite",
    "run_suite": "suite",
}


def __getattr__(name: str):
    """Import a lazy export's module on first access, and keep the name here from then on."""
    from importlib import import_module

    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    return value


__version__ = "0.1.0"

# `from quantrisk import *` gives the lazy names too, as it did when they were imported here
__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)
