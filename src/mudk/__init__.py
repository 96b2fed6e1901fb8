"""mu-domain-kit: planar domains embedding a prescribed exit distribution.

Given a centered law on the real line, the package discretizes its
quantile, conjugates it through the periodic Hilbert transform, and
traces the boundary of a simply connected domain with the property that
planar Brownian motion started at the origin exits with the prescribed
real-part distribution.  A Monte Carlo module verifies the construction
by simulating exits directly.
"""

__version__ = "0.1.0"

from .distributions import (
    AffineDistribution,
    Beta,
    Discrete,
    Distribution,
    Exponential,
    Mixture,
    TruncatedDistribution,
    TruncatedNormal,
    Uniform,
)
from .discretize import (
    RateBound,
    StepQuantile,
    UnboundedSupportError,
    build_measure,
    build_measure_cdf,
    build_measure_pdf,
    grid,
    l1_distance,
    quantile_l1,
    rate_bound,
    step_l1_distance,
    tail_defect,
)
from .hilbert import (
    OracleConvergenceError,
    PoleError,
    hilbert_indicator,
    hilbert_pv_oracle,
    hilbert_step_quantile,
    pole_levels,
)
from .gross_map import (
    FourierCoefficients,
    evaluate_map,
    fourier_coefficients,
    map_distance_bound,
)
from .boundary import (
    BoundaryPolyline,
    boundary_points,
    export_csv,
    export_svg,
    load_csv,
    normalize_support,
    scale_domain,
)
from .verify_mc import (
    ExitSampleSet,
    TopologyError,
    ks_distance,
    point_in_domain,
    simulate_exit,
)

__all__ = [
    "AffineDistribution",
    "Beta",
    "Discrete",
    "Distribution",
    "Exponential",
    "Mixture",
    "TruncatedDistribution",
    "TruncatedNormal",
    "Uniform",
    "RateBound",
    "StepQuantile",
    "UnboundedSupportError",
    "build_measure",
    "build_measure_cdf",
    "build_measure_pdf",
    "grid",
    "l1_distance",
    "quantile_l1",
    "rate_bound",
    "step_l1_distance",
    "tail_defect",
    "OracleConvergenceError",
    "PoleError",
    "hilbert_indicator",
    "hilbert_pv_oracle",
    "hilbert_step_quantile",
    "pole_levels",
    "FourierCoefficients",
    "evaluate_map",
    "fourier_coefficients",
    "map_distance_bound",
    "BoundaryPolyline",
    "boundary_points",
    "export_csv",
    "export_svg",
    "load_csv",
    "normalize_support",
    "scale_domain",
    "ExitSampleSet",
    "TopologyError",
    "ks_distance",
    "point_in_domain",
    "simulate_exit",
    "__version__",
]
