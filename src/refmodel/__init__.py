"""Reference-modeling toolkit with an energy-simulation evaluator.

Typed building blocks live in concern layers (strategic, operational,
service, resource), compose into validated configurations with capability
traceability, and exchangeable coverage-path algorithms are compared by
simulating battery consumption over elevation-grid terrains.
"""

from .core import (
    Aspect,
    BlockKind,
    BuildingBlock,
    ConcernLayer,
    Connection,
    Model,
    Origin,
    Port,
    PortDirection,
    PortRef,
    TraceKind,
    TraceLink,
    add_block,
    add_trace,
    port_compatible,
)
from .composition import (
    CoverageReport,
    CoverageStatus,
    Pattern,
    PatternAnchor,
    TraceDirection,
    ValidationReport,
    View,
    Viewpoint,
    apply_pattern,
    capability_coverage,
    connect,
    enumerate_alternatives,
    export_dot,
    extract_view,
    trace,
    validate_configuration,
    viewpoint_valid,
)
from .repository import (
    Asset,
    BlockAsset,
    PatternAsset,
    ReferenceRepository,
    ViewpointAsset,
    adapt,
    add_asset,
    adopt,
    extend,
    list_assets,
    load,
    load_model,
    save,
    save_model,
)
from .terrain import (
    GenParams,
    Position,
    StepClass,
    TerrainMap,
    classify_step,
    generate_map,
    load_map,
    neighbors,
    save_map,
    step_factor,
)
from .planners import (
    Path,
    PlannerId,
    plan_edge_follow,
    plan_terrain_aware,
    register_planner,
    resolve_planner,
    select_adaptive,
)
from .simulation import SimParams, SimResult, Termination, power_consumption, power_state, run
from .evaluator import (
    ComparisonReport,
    EnsembleSpec,
    EnsembleStats,
    compare,
    ensemble,
    rank_configurations,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
