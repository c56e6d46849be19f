"""Stochastic iterative rotation averaging from relative-rotation
supervision: projective (MRP), SO(3), and quaternion algorithms with a
benchmark harness."""

from . import averaging, envgraph, io, metrics, rotmath
from .averaging import (
    EstimateSet,
    OptimizerConfig,
    StepReport,
    expected_update,
    run_averaging,
)
from .envgraph import (
    ConnectivityFailure,
    GeneratorConfig,
    RotationEnvironment,
    generate_uniform_env,
)
from .metrics import (
    DegenerateAlignment,
    TraceRecord,
    absolute_error,
    align_gauge,
    avg_pairwise_error,
    nauc,
    relative_edge_error,
    steps_to_threshold,
)
from .rotmath import SouthPoleSingularity

__version__ = "0.1.0"
