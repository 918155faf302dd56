"""Continuous-variable cluster shaping toolkit.

Builds finitely squeezed Gaussian cluster states, removes nodes and
shortens wires by homodyne measurement with feedforward, and verifies
nullifier-based entanglement criteria, analytically and by Monte Carlo.
"""

from .gaussian import (
    GaussianState,
    LossModel,
    PHYSICALITY_TOL,
    SYMPLECTIC_TOL,
    VACUUM_VARIANCE,
    apply,
    apply_loss,
    quadrature_selector,
    squeezed_variance,
    symplectic_form,
    vacuum,
)
from .decompositions import bloch_messiah, is_orthogonal, is_symplectic
from .graphs import (
    ClusterGraph,
    NetworkPlan,
    NullifierTable,
    build_canonical,
    canonical_transform,
    compile_network,
    nullifiers_of,
    parse_graph_text,
    preset_wire_network,
    wire_to_ring_phases,
)
from .shaping import (
    FeedforwardTarget,
    HomodyneOutcome,
    MeasurementStep,
    ShapingResult,
    TrajectoryPlan,
    TrajectoryStats,
    execute_conditional,
    execute_ensemble,
    remove_node,
    removal_steps,
    run_trajectory,
    shorten_steps,
    shorten_wire,
)
from .criteria import (
    CriteriaReport,
    check_cluster_criteria,
    nullifier_db,
    residual_squeezing_db,
)
from .experiments import (
    ConfigError,
    DETECTOR_EFFICIENCY,
    ExperimentConfig,
    ExperimentReport,
    HOMODYNE_VISIBILITY,
    calibrate_loss,
    emit,
    run,
)

__version__ = "0.1.0"
