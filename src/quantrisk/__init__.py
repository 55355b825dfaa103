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
from .subadditivity import (
    ComonotoneAdditivityReport,
    CounterexampleReport,
    JointTable,
    SubadditivityViolation,
    build_counterexample,
    comonotone_additivity_check,
    subadditivity_search,
)
from .suite import SuiteConfig, SuiteReport, Tolerances, default_config, run_suite

__version__ = "0.1.0"
