"""Executable example: a smart mowing robot modeled end to end.

Builds a reference repository of typed blocks for an autonomous mowing robot,
composes the application model (three capabilities traced down to one
resource configuration, with a service layer applied as a pattern), and ships
a small ridge map on which the two coverage planners separate clearly.
"""

from __future__ import annotations

from .composition import Pattern, PatternAnchor, Viewpoint, apply_pattern, connect
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
    add_trace,
)
from .repository import (
    BlockAsset,
    PatternAsset,
    ReferenceRepository,
    ViewpointAsset,
    add_asset,
    adopt,
)
from .terrain import TerrainMap, load_map

DEMO_MODEL_ID = "demo.mowing_robot"
DEMO_PATTERN_ID = "pat.smart_mowing_services"

# Narrow strip with a full-height ridge in the middle column. A row-by-row
# sweep has to climb the ridge once per row; a terrain-hugging planner mows
# each flank, then walks the ridge crest once.
REFERENCE_MAP_TEXT = (
    "030\n"
    "030\n"
    "030\n"
    "030\n"
    "030\n"
    "030\n"
    "030\n"
    "030\n"
)


def reference_map() -> TerrainMap:
    return load_map(REFERENCE_MAP_TEXT)


def _provided(port_id: str, interface: str, layer: ConcernLayer) -> Port:
    return Port(id=port_id, direction=PortDirection.PROVIDED, interface_type=interface, layer=layer)


def _required(port_id: str, interface: str, layer: ConcernLayer) -> Port:
    return Port(id=port_id, direction=PortDirection.REQUIRED, interface_type=interface, layer=layer)


def _reference_blocks() -> list[BuildingBlock]:
    strategic = ConcernLayer.STRATEGIC
    operational = ConcernLayer.OPERATIONAL
    service = ConcernLayer.SERVICE
    resource = ConcernLayer.RESOURCE
    return [
        BuildingBlock("cap.recognition", "Object Recognition", strategic, BlockKind.CAPABILITY),
        BuildingBlock("cap.mobility", "Green Area Mobility", strategic, BlockKind.CAPABILITY),
        BuildingBlock("cap.mowing", "Mowing", strategic, BlockKind.CAPABILITY),
        BuildingBlock(
            "op.mowing_node",
            "Mowing Node",
            operational,
            BlockKind.OPERATIONAL_PERFORMER,
            ports=(_required("in_smart_mowing", "SmartMowing", operational),),
        ),
        BuildingBlock(
            "op.act.recognize", "Recognize Mowing Object", operational, BlockKind.OPERATIONAL_ACTIVITY
        ),
        BuildingBlock(
            "op.act.move", "Move In Green Areas", operational, BlockKind.OPERATIONAL_ACTIVITY
        ),
        BuildingBlock("op.act.mow", "Mowing Process", operational, BlockKind.OPERATIONAL_ACTIVITY),
        BuildingBlock(
            "res.mowing_robot",
            "Mowing Robot",
            resource,
            BlockKind.RESOURCE_CONFIGURATION,
            ports=(_required("in_power", "Power", resource),),
            parameters={"weight": 12.5},
        ),
        BuildingBlock(
            "res.camera",
            "Camera",
            resource,
            BlockKind.RESOURCE_COMPONENT,
            ports=(_provided("out", "ImageStream", resource),),
        ),
        BuildingBlock(
            "res.battery",
            "Battery",
            resource,
            BlockKind.RESOURCE_COMPONENT,
            ports=(_provided("out", "Power", resource),),
            parameters={"capacity": 100.0},
        ),
        BuildingBlock(
            "res.blade",
            "Mowing Blades",
            resource,
            BlockKind.RESOURCE_COMPONENT,
            ports=(_provided("out", "Cutting", resource),),
        ),
        BuildingBlock(
            "res.propulsion",
            "Propulsion",
            resource,
            BlockKind.RESOURCE_COMPONENT,
            ports=(_provided("out", "Drive", resource),),
            parameters={"consumption_factor": 1.0},
        ),
        BuildingBlock(
            "res.fn.preprocess",
            "Pre-Processing",
            resource,
            BlockKind.FUNCTION,
            ports=(
                _required("in_images", "ImageStream", resource),
                _provided("out", "PreprocessedImages", resource),
            ),
        ),
        BuildingBlock(
            "res.fn.detect",
            "Detecting",
            resource,
            BlockKind.FUNCTION,
            ports=(
                _required("in_frames", "PreprocessedImages", resource),
                _provided("out", "Detection", resource),
            ),
        ),
        BuildingBlock(
            "res.fn.classify",
            "Classifying",
            resource,
            BlockKind.FUNCTION,
            ports=(
                _required("in_detections", "Detection", resource),
                _provided("out", "ObjectClassification", resource),
            ),
        ),
        BuildingBlock(
            "alg.edge_follow",
            "Edge Follow Planner",
            resource,
            BlockKind.ALGORITHM_BLOCK,
            ports=(_provided("out", "CoveragePlanning", resource),),
            parameters={"algorithm": "edge_follow"},
        ),
        BuildingBlock(
            "alg.terrain_aware",
            "Terrain Aware Planner",
            resource,
            BlockKind.ALGORITHM_BLOCK,
            ports=(_provided("out", "CoveragePlanning", resource),),
            parameters={"algorithm": "terrain_aware"},
        ),
    ]


def _service_blocks() -> list[BuildingBlock]:
    service = ConcernLayer.SERVICE
    return [
        BuildingBlock(
            "svc.smart_mowing",
            "Smart Mowing Service",
            service,
            BlockKind.SERVICE,
            ports=(
                _required("in_mobility", "GreenAreaMobility", service),
                _required("in_mowing", "MowingService", service),
                _required("in_recognition", "ObjectRecognition", service),
                _provided("out", "SmartMowing", service),
            ),
        ),
        BuildingBlock(
            "svc.object_recognition",
            "Object Recognition Service",
            service,
            BlockKind.SERVICE,
            ports=(
                _required("in_classified", "ObjectClassification", service),
                _provided("out", "ObjectRecognition", service),
            ),
        ),
        BuildingBlock(
            "svc.green_area_mobility",
            "Green Area Mobility Service",
            service,
            BlockKind.SERVICE,
            ports=(
                _required("in_drive", "Drive", service),
                _required("in_path", "CoveragePlanning", service),
                _provided("out", "GreenAreaMobility", service),
            ),
        ),
        BuildingBlock(
            "svc.mowing",
            "Mowing Service",
            service,
            BlockKind.SERVICE,
            ports=(
                _required("in_cutting", "Cutting", service),
                _provided("out", "MowingService", service),
            ),
        ),
    ]


def services_pattern() -> Pattern:
    """The service layer as a reusable pattern anchored to capabilities and resources."""
    blocks = tuple(
        # Applied pattern content lands in application models, hence adopted.
        # Sorted by id so the pattern equals its canonical serialized form.
        BuildingBlock(
            b.id, b.name, b.layer, b.kind, ports=b.ports, parameters=b.parameters, origin=Origin.ADOPTED
        )
        for b in sorted(_service_blocks(), key=lambda b: b.id)
    )
    connections = frozenset(
        {
            Connection(PortRef("svc.object_recognition", "out"), PortRef("svc.smart_mowing", "in_recognition")),
            Connection(PortRef("svc.green_area_mobility", "out"), PortRef("svc.smart_mowing", "in_mobility")),
            Connection(PortRef("svc.mowing", "out"), PortRef("svc.smart_mowing", "in_mowing")),
            Connection(PortRef("res.fn.classify", "out"), PortRef("svc.object_recognition", "in_classified")),
            Connection(PortRef("res.propulsion", "out"), PortRef("svc.green_area_mobility", "in_drive")),
            Connection(PortRef("alg.edge_follow", "out"), PortRef("svc.green_area_mobility", "in_path")),
            Connection(PortRef("res.blade", "out"), PortRef("svc.mowing", "in_cutting")),
        }
    )
    traces = frozenset(
        {
            TraceLink(TraceKind.MAPS_TO, "svc.object_recognition", "cap.recognition"),
            TraceLink(TraceKind.MAPS_TO, "svc.green_area_mobility", "cap.mobility"),
            TraceLink(TraceKind.MAPS_TO, "svc.mowing", "cap.mowing"),
            TraceLink(TraceKind.MAPS_TO, "svc.smart_mowing", "cap.mowing"),
        }
    )
    anchors = (
        PatternAnchor("alg.edge_follow", ConcernLayer.RESOURCE, BlockKind.ALGORITHM_BLOCK),
        PatternAnchor("cap.mobility", ConcernLayer.STRATEGIC, BlockKind.CAPABILITY),
        PatternAnchor("cap.mowing", ConcernLayer.STRATEGIC, BlockKind.CAPABILITY),
        PatternAnchor("cap.recognition", ConcernLayer.STRATEGIC, BlockKind.CAPABILITY),
        PatternAnchor("res.blade", ConcernLayer.RESOURCE, BlockKind.RESOURCE_COMPONENT),
        PatternAnchor("res.fn.classify", ConcernLayer.RESOURCE, BlockKind.FUNCTION),
        PatternAnchor("res.propulsion", ConcernLayer.RESOURCE, BlockKind.RESOURCE_COMPONENT),
    )
    return Pattern(
        id=DEMO_PATTERN_ID, blocks=blocks, connections=connections, traces=traces, anchors=anchors
    )


def _viewpoints() -> list[Viewpoint]:
    return [
        Viewpoint(ConcernLayer.STRATEGIC, Aspect.REQUIREMENTS, "vp.capability_requirements"),
        Viewpoint(ConcernLayer.OPERATIONAL, Aspect.BEHAVIOR, "vp.operational_behavior"),
        Viewpoint(ConcernLayer.SERVICE, Aspect.STRUCTURE, "vp.service_structure"),
        Viewpoint(ConcernLayer.RESOURCE, Aspect.STRUCTURE, "vp.resource_structure"),
        Viewpoint(ConcernLayer.RESOURCE, Aspect.PARAMETERS, "vp.resource_parameters"),
    ]


def build_demo_repository() -> ReferenceRepository:
    repo = ReferenceRepository()
    for block in _reference_blocks() + _service_blocks():
        repo = add_asset(repo, BlockAsset(block))
    repo = add_asset(repo, PatternAsset(services_pattern()))
    for viewpoint in _viewpoints():
        repo = add_asset(repo, ViewpointAsset(viewpoint))
    return repo


def build_demo_model(repo: ReferenceRepository | None = None) -> Model:
    """Adopt the reference blocks, apply the service pattern, and wire the rest."""
    repo = repo or build_demo_repository()
    model = Model(id=DEMO_MODEL_ID)
    for block in _reference_blocks():
        # the planner slot holds one algorithm; the alternative stays in the repo
        if block.id == "alg.terrain_aware":
            continue
        model = adopt(repo, block.id, model)
    model = apply_pattern(
        model, services_pattern(), {anchor: anchor for anchor in services_pattern().anchor_ids()}
    )
    model = connect(model, PortRef("svc.smart_mowing", "out"), PortRef("op.mowing_node", "in_smart_mowing"))
    model = connect(model, PortRef("res.camera", "out"), PortRef("res.fn.preprocess", "in_images"))
    model = connect(model, PortRef("res.fn.preprocess", "out"), PortRef("res.fn.detect", "in_frames"))
    model = connect(model, PortRef("res.fn.detect", "out"), PortRef("res.fn.classify", "in_detections"))
    model = connect(model, PortRef("res.battery", "out"), PortRef("res.mowing_robot", "in_power"))
    for kind, source, target in [
        (TraceKind.EXHIBITS, "op.act.recognize", "cap.recognition"),
        (TraceKind.EXHIBITS, "op.act.move", "cap.mobility"),
        (TraceKind.EXHIBITS, "op.act.mow", "cap.mowing"),
        (TraceKind.EXHIBITS, "res.mowing_robot", "cap.recognition"),
        (TraceKind.EXHIBITS, "res.mowing_robot", "cap.mobility"),
        (TraceKind.EXHIBITS, "res.mowing_robot", "cap.mowing"),
        (TraceKind.PERFORMS, "op.mowing_node", "op.act.recognize"),
        (TraceKind.PERFORMS, "op.mowing_node", "op.act.move"),
        (TraceKind.PERFORMS, "op.mowing_node", "op.act.mow"),
        (TraceKind.PERFORMS, "res.mowing_robot", "res.fn.preprocess"),
        (TraceKind.PERFORMS, "res.mowing_robot", "res.fn.detect"),
        (TraceKind.PERFORMS, "res.mowing_robot", "res.fn.classify"),
        (TraceKind.IMPLEMENTS, "svc.object_recognition", "op.act.recognize"),
        (TraceKind.IMPLEMENTS, "svc.green_area_mobility", "op.act.move"),
        (TraceKind.IMPLEMENTS, "svc.mowing", "op.act.mow"),
    ]:
        model = add_trace(model, TraceLink(kind, source, target))
    return model
