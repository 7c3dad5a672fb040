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
    layer_for_kind,
)
from .repository import (
    BlockAsset,
    PatternAsset,
    ReferenceRepository,
    ViewpointAsset,
    add_asset,
    adopt,
)

DEMO_MODEL_ID = "demo.mowing_robot"
DEMO_PATTERN_ID = "pat.smart_mowing_services"

# Narrow strip with a full-height ridge in the middle column. A row-by-row
# sweep has to climb the ridge once per row; a terrain-hugging planner mows
# each flank, then walks the ridge crest once.
REFERENCE_MAP_TEXT = "030\n" * 8

# One row per block: (id, name, kind, required ports, provided ports, parameters),
# each port as {port id: interface type}. The kind fixes the layer of the block and its ports.
_REFERENCE_ROWS = (
    ("cap.recognition", "Object Recognition", BlockKind.CAPABILITY, {}, {}, {}),
    ("cap.mobility", "Green Area Mobility", BlockKind.CAPABILITY, {}, {}, {}),
    ("cap.mowing", "Mowing", BlockKind.CAPABILITY, {}, {}, {}),
    (
        "op.mowing_node", "Mowing Node", BlockKind.OPERATIONAL_PERFORMER,
        {"in_smart_mowing": "SmartMowing"}, {}, {},
    ),
    ("op.act.recognize", "Recognize Mowing Object", BlockKind.OPERATIONAL_ACTIVITY, {}, {}, {}),
    ("op.act.move", "Move In Green Areas", BlockKind.OPERATIONAL_ACTIVITY, {}, {}, {}),
    ("op.act.mow", "Mowing Process", BlockKind.OPERATIONAL_ACTIVITY, {}, {}, {}),
    (
        "res.mowing_robot", "Mowing Robot", BlockKind.RESOURCE_CONFIGURATION,
        {"in_power": "Power"}, {}, {"weight": 12.5},
    ),
    ("res.camera", "Camera", BlockKind.RESOURCE_COMPONENT, {}, {"out": "ImageStream"}, {}),
    ("res.battery", "Battery", BlockKind.RESOURCE_COMPONENT, {}, {"out": "Power"}, {"capacity": 100.0}),
    ("res.blade", "Mowing Blades", BlockKind.RESOURCE_COMPONENT, {}, {"out": "Cutting"}, {}),
    (
        "res.propulsion", "Propulsion", BlockKind.RESOURCE_COMPONENT,
        {}, {"out": "Drive"}, {"consumption_factor": 1.0},
    ),
    (
        "res.fn.preprocess", "Pre-Processing", BlockKind.FUNCTION,
        {"in_images": "ImageStream"}, {"out": "PreprocessedImages"}, {},
    ),
    (
        "res.fn.detect", "Detecting", BlockKind.FUNCTION,
        {"in_frames": "PreprocessedImages"}, {"out": "Detection"}, {},
    ),
    (
        "res.fn.classify", "Classifying", BlockKind.FUNCTION,
        {"in_detections": "Detection"}, {"out": "ObjectClassification"}, {},
    ),
    (
        "alg.edge_follow", "Edge Follow Planner", BlockKind.ALGORITHM_BLOCK,
        {}, {"out": "CoveragePlanning"}, {"algorithm": "edge_follow"},
    ),
    (
        "alg.terrain_aware", "Terrain Aware Planner", BlockKind.ALGORITHM_BLOCK,
        {}, {"out": "CoveragePlanning"}, {"algorithm": "terrain_aware"},
    ),
)

_SERVICE_ROWS = (
    (
        "svc.smart_mowing", "Smart Mowing Service", BlockKind.SERVICE,
        {
            "in_mobility": "GreenAreaMobility", "in_mowing": "MowingService",
            "in_recognition": "ObjectRecognition",
        },
        {"out": "SmartMowing"}, {},
    ),
    (
        "svc.object_recognition", "Object Recognition Service", BlockKind.SERVICE,
        {"in_classified": "ObjectClassification"}, {"out": "ObjectRecognition"}, {},
    ),
    (
        "svc.green_area_mobility", "Green Area Mobility Service", BlockKind.SERVICE,
        {"in_drive": "Drive", "in_path": "CoveragePlanning"}, {"out": "GreenAreaMobility"}, {},
    ),
    (
        "svc.mowing", "Mowing Service", BlockKind.SERVICE,
        {"in_cutting": "Cutting"}, {"out": "MowingService"}, {},
    ),
)


def _blocks(rows, origin: Origin = Origin.REFERENCE_ASSET) -> list[BuildingBlock]:
    """The blocks of a row table, each on the layer its kind fixes, its ports on that layer too."""
    blocks = []
    for block_id, name, kind, required, provided, parameters in rows:
        layer = layer_for_kind(kind)
        ports = [
            Port(port_id, direction, interface, layer)
            for direction, table in ((PortDirection.REQUIRED, required), (PortDirection.PROVIDED, provided))
            for port_id, interface in table.items()
        ]
        blocks.append(BuildingBlock(block_id, name, layer, kind, tuple(ports), parameters, origin))
    return blocks


def _connections(*pairs: tuple[str, str]) -> list[Connection]:
    """Connections from ("block:port", "block:port") pairs, the provided end first."""
    return [Connection(PortRef(*source.split(":")), PortRef(*target.split(":"))) for source, target in pairs]


def _reference_blocks() -> list[BuildingBlock]:
    return _blocks(_REFERENCE_ROWS)


def services_pattern() -> Pattern:
    """The service layer as a reusable pattern anchored to capabilities and resources."""
    # Applied pattern content lands in application models, hence adopted.
    blocks = _blocks(_SERVICE_ROWS, Origin.ADOPTED)
    connections = _connections(
        ("svc.object_recognition:out", "svc.smart_mowing:in_recognition"),
        ("svc.green_area_mobility:out", "svc.smart_mowing:in_mobility"),
        ("svc.mowing:out", "svc.smart_mowing:in_mowing"),
        ("res.fn.classify:out", "svc.object_recognition:in_classified"),
        ("res.propulsion:out", "svc.green_area_mobility:in_drive"),
        ("alg.edge_follow:out", "svc.green_area_mobility:in_path"),
        ("res.blade:out", "svc.mowing:in_cutting"),
    )
    traces = frozenset(
        TraceLink(TraceKind.MAPS_TO, source, target)
        for source, target in [
            ("svc.object_recognition", "cap.recognition"),
            ("svc.green_area_mobility", "cap.mobility"),
            ("svc.mowing", "cap.mowing"),
            ("svc.smart_mowing", "cap.mowing"),
        ]
    )
    # The anchors are the reference blocks that the pattern's wiring and traces name.
    named = {c.source.block for c in connections} | {t.target for t in traces}
    anchors = [PatternAnchor(b.id, b.layer, b.kind) for b in _reference_blocks() if b.id in named]
    return Pattern(DEMO_PATTERN_ID, blocks, connections, traces, anchors)


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
    for block in _reference_blocks() + _blocks(_SERVICE_ROWS):
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
    for wire in _connections(
        ("svc.smart_mowing:out", "op.mowing_node:in_smart_mowing"),
        ("res.camera:out", "res.fn.preprocess:in_images"),
        ("res.fn.preprocess:out", "res.fn.detect:in_frames"),
        ("res.fn.detect:out", "res.fn.classify:in_detections"),
        ("res.battery:out", "res.mowing_robot:in_power"),
    ):
        model = connect(model, wire.source, wire.target)
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
