"""Secrecy-constrained binary quantizer design for distributed detection.

A sensor network quantizes noisy observations to single bits, ships them
over noisy binary channels to a fusion center, and is wiretapped by an
eavesdropper on her own noisy channels.  This package designs the sensor
thresholds to maximize the fusion center's per-symbol KL divergence (the
miss-probability error exponent) while capping the divergence available to
the eavesdropper, allocates a network-wide secrecy budget across
heterogeneous sensors, and verifies the designs against exact
detection-theoretic baselines and Monte Carlo simulation.
"""

from .allocation import (
    AllocationResult,
    GrowthPoint,
    NetworkConfig,
    SensorAllocation,
    allocate,
    growth_curve,
    quality_ratio,
    sample_sites,
)
from .boundary import (
    BoundaryPoint,
    ConvexityCertificate,
    constraint_curvature,
    constraint_slope,
    convexity_certificate,
    roc_region,
    slope_bounds,
    trace_constraint_curve,
)
from .detection import (
    ExponentCurvePoint,
    MonteCarloResult,
    exact_np_miss,
    second_order_slope,
    simulate_monte_carlo,
    stein_curve,
)
from .errors import ArtifactError, SingularPointError, UnimodalityError
from .gaussian import (
    GaussianSensorModel,
    max_channel_divergence,
    q_function,
    q_inverse,
)
from .roc import (
    BscChannel,
    OperatingPoint,
    SensorSite,
    bsc_transform,
    kl_divergence,
    kl_divergence_grad_pd,
    mix_quantizers,
)
from .solver import (
    QuantizerDesign,
    design_quantizer,
    eve_divergence_gap,
    find_budget_thresholds,
    max_eve_divergence,
    tradeoff_curve,
    unconstrained_design,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationResult",
    "ArtifactError",
    "BoundaryPoint",
    "BscChannel",
    "ConvexityCertificate",
    "ExponentCurvePoint",
    "GaussianSensorModel",
    "GrowthPoint",
    "MonteCarloResult",
    "NetworkConfig",
    "OperatingPoint",
    "QuantizerDesign",
    "SensorAllocation",
    "SensorSite",
    "SingularPointError",
    "UnimodalityError",
    "allocate",
    "bsc_transform",
    "constraint_curvature",
    "constraint_slope",
    "convexity_certificate",
    "design_quantizer",
    "eve_divergence_gap",
    "exact_np_miss",
    "find_budget_thresholds",
    "growth_curve",
    "kl_divergence",
    "kl_divergence_grad_pd",
    "max_channel_divergence",
    "max_eve_divergence",
    "mix_quantizers",
    "q_function",
    "q_inverse",
    "quality_ratio",
    "roc_region",
    "sample_sites",
    "second_order_slope",
    "simulate_monte_carlo",
    "slope_bounds",
    "stein_curve",
    "tradeoff_curve",
    "trace_constraint_curve",
    "unconstrained_design",
]
