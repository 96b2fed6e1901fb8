"""mu-domain-kit: planar domains embedding a prescribed exit distribution.

Given a centered law on the real line, the package discretizes its
quantile, conjugates it through the periodic Hilbert transform, and
traces the boundary of a simply connected domain with the property that
planar Brownian motion started at the origin exits with the prescribed
real-part distribution.  A Monte Carlo module verifies the construction
by simulating exits directly.

`import mudk` loads none of the numeric modules (nor numpy): each public
name imports its home module on first access (PEP 562).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "distributions": (
        "AffineDistribution", "Beta", "Discrete", "Distribution", "Exponential",
        "Mixture", "TruncatedDistribution", "TruncatedNormal", "Uniform",
    ),
    "discretize": (
        "RateBound", "StepQuantile", "UnboundedSupportError", "build_measure",
        "build_measure_cdf", "build_measure_pdf", "grid", "l1_distance",
        "rate_bound",
    ),
    "hilbert": (
        "OracleConvergenceError", "PoleError", "hilbert_indicator",
        "hilbert_pv_oracle", "hilbert_step_quantile", "pole_levels",
    ),
    "gross_map": (
        "FourierCoefficients", "evaluate_map", "fourier_coefficients",
        "map_distance_bound",
    ),
    "boundary": (
        "BoundaryPolyline", "boundary_points", "export_csv", "export_svg",
        "load_csv", "normalize_support", "scale_domain",
    ),
    "verify_mc": (
        "ExitSampleSet", "TopologyError", "ks_distance", "point_in_domain",
        "simulate_exit",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
