"""Goodness-of-fit testing for growing-graph models via non-stationary sampling."""

from .gof import (
    FixedAlpha,
    RadiusEstimate,
    SampledAlpha,
    TestConfig,
    TestReport,
    dn_estimate,
    sampling_radius_estimate,
    statistic_samples,
    test_dynamic_graph,
    test_statistic,
)
from .models import (
    ModelSpec,
    Trajectory,
    affine_pref_attach,
    pref_attach,
    read_trajectory,
    replay,
    sample_trajectory,
    uniform_attach,
    write_trajectory,
)
from .sampling import ProbePlan, sample_probe_points

__version__ = "0.1.0"

__all__ = [
    "ModelSpec",
    "Trajectory",
    "affine_pref_attach",
    "pref_attach",
    "read_trajectory",
    "replay",
    "sample_trajectory",
    "uniform_attach",
    "write_trajectory",
    "ProbePlan",
    "sample_probe_points",
    "FixedAlpha",
    "RadiusEstimate",
    "SampledAlpha",
    "TestConfig",
    "TestReport",
    "dn_estimate",
    "sampling_radius_estimate",
    "statistic_samples",
    "test_dynamic_graph",
    "test_statistic",
    "__version__",
]
