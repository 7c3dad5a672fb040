"""Reference-modeling toolkit with an energy-simulation evaluator.

Typed building blocks live in concern layers (strategic, operational,
service, resource), compose into validated configurations with capability
traceability, and exchangeable coverage-path algorithms are compared by
simulating battery consumption over elevation-grid terrains.

Every name below, and each submodule, is imported on first access (PEP 562),
so ``import refmodel`` loads no layer until one is used.
"""

import importlib

# The public names, by the submodule that defines them.
_EXPORTS = {
    "core": (
        "Aspect", "BlockKind", "BuildingBlock", "ConcernLayer", "Connection", "Model", "Origin", "Port",
        "PortDirection", "PortRef", "TraceKind", "TraceLink", "add_block", "add_trace", "port_compatible",
    ),
    "composition": (
        "CoverageReport", "CoverageStatus", "Pattern", "PatternAnchor", "TraceDirection", "ValidationReport",
        "View", "Viewpoint", "apply_pattern", "capability_coverage", "connect", "enumerate_alternatives",
        "export_dot", "extract_view", "trace", "validate_configuration", "viewpoint_valid",
    ),
    "repository": (
        "Asset", "BlockAsset", "PatternAsset", "ReferenceRepository", "ViewpointAsset", "adapt", "add_asset",
        "adopt", "extend", "list_assets", "load", "load_model", "save", "save_model",
    ),
    "terrain": (
        "GenParams", "Position", "StepClass", "TerrainMap", "classify_step", "generate_map", "load_map",
        "step_factor",
    ),
    "planners": (
        "Path", "PlannerId", "plan_edge_follow", "plan_terrain_aware", "register_planner", "resolve_planner",
        "select_adaptive",
    ),
    "simulation": ("SimParams", "SimResult", "Termination", "power_consumption", "power_state", "run"),
    "evaluator": ("ComparisonReport", "EnsembleSpec", "EnsembleStats", "compare", "ensemble", "rank_configurations"),
    "errors": (),
    "demo": (),
}
# Each name, and each submodule's own name, mapped to the submodule that holds it.
_OWNER = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_OWNER[name]}", __name__)
    return module if name == _OWNER[name] else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
