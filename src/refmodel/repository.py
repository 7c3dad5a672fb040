"""Reference-asset repository and the reuse mechanisms adopt, adapt, extend.

Also home of the JSON persistence layer for repositories and models. Documents
are versioned (`schema_version`), canonically ordered (assets, blocks, ports,
connections, and traces sorted by id) and therefore byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence, Union

from .composition import Pattern, PatternAnchor, Viewpoint
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
    Scalar,
    TraceKind,
    TraceLink,
    add_block,
    connection_key,
    trace_key,
)
from .errors import (
    DuplicateId,
    DuplicatePortId,
    IllegalOverride,
    ParseError,
    SchemaVersionMismatch,
    UnknownAsset,
    UnknownElement,
    WrongAssetKind,
)

SCHEMA_VERSION = 1

REPOSITORY_SUFFIX = ".refrepo.json"
MODEL_SUFFIX = ".refmodel.json"


@dataclass(frozen=True)
class BlockAsset:
    """A frozen reference block; payload origin is always `reference_asset`."""

    block: BuildingBlock

    def __post_init__(self):
        if self.block.origin is not Origin.REFERENCE_ASSET:
            raise ValueError(
                f"block asset '{self.block.id}' must have origin reference_asset, "
                f"not {self.block.origin.value}"
            )

    @property
    def id(self) -> str:
        return self.block.id


@dataclass(frozen=True)
class PatternAsset:
    pattern: Pattern

    @property
    def id(self) -> str:
        return self.pattern.id


@dataclass(frozen=True)
class ViewpointAsset:
    viewpoint: Viewpoint

    def __post_init__(self):
        if not self.viewpoint.name:
            raise ValueError("viewpoint assets need a non-empty name to serve as their id")

    @property
    def id(self) -> str:
        return self.viewpoint.name


Asset = Union[BlockAsset, PatternAsset, ViewpointAsset]


@dataclass(frozen=True)
class ReferenceRepository:
    """Immutable store of reference assets; version counts mutating operations."""

    assets: Mapping[str, Asset] = field(default_factory=dict)
    version: int = 0

    def __post_init__(self):
        assets = dict(self.assets)
        for key, asset in assets.items():
            if key != asset.id:
                raise ValueError(f"repository key '{key}' does not match asset id '{asset.id}'")
        object.__setattr__(self, "assets", assets)

    def asset(self, asset_id: str) -> Asset:
        try:
            return self.assets[asset_id]
        except KeyError:
            raise UnknownAsset(f"repository has no asset '{asset_id}'") from None

    def block_assets(self) -> list[BlockAsset]:
        return [a for a in self.sorted_assets() if isinstance(a, BlockAsset)]

    def sorted_assets(self) -> list[Asset]:
        return [self.assets[key] for key in sorted(self.assets)]


def add_asset(repo: ReferenceRepository, asset: Asset) -> ReferenceRepository:
    """Return a repository with the asset added and the version bumped by one."""
    if asset.id in repo.assets:
        raise DuplicateId(f"repository already contains asset '{asset.id}'")
    assets = dict(repo.assets)
    assets[asset.id] = asset
    return ReferenceRepository(assets=assets, version=repo.version + 1)


def list_assets(
    repo: ReferenceRepository,
    layer: ConcernLayer | None = None,
    kind: BlockKind | None = None,
) -> list[str]:
    """Asset ids in lexicographic order; layer/kind filters select block assets."""
    out = []
    for asset in repo.sorted_assets():
        if layer is not None or kind is not None:
            if not isinstance(asset, BlockAsset):
                continue
            if layer is not None and asset.block.layer is not layer:
                continue
            if kind is not None and asset.block.kind is not kind:
                continue
        out.append(asset.id)
    return out


def _block_asset(repo: ReferenceRepository, asset_id: str) -> BuildingBlock:
    asset = repo.asset(asset_id)
    if not isinstance(asset, BlockAsset):
        raise WrongAssetKind(f"asset '{asset_id}' is not a block asset")
    return asset.block


def adopt(repo: ReferenceRepository, asset_id: str, model: Model) -> Model:
    """Copy a reference block verbatim into the model, marked as adopted."""
    block = _block_asset(repo, asset_id)
    return add_block(model, replace(block, origin=Origin.ADOPTED))


_ADAPTABLE_FIELDS = frozenset({"name", "parameters", "port_types"})


def adapt(
    repo: ReferenceRepository,
    asset_id: str,
    overrides: Mapping[str, Any],
    model: Model,
) -> Model:
    """Copy a reference block with tailored name, parameters, or port types.

    Layer and kind can never change (the trace-pair table depends on them);
    attempting to override them raises IllegalOverride. Parameter overrides
    merge into the block's existing parameters.
    """
    block = _block_asset(repo, asset_id)
    illegal = set(overrides) - _ADAPTABLE_FIELDS
    if illegal:
        raise IllegalOverride(
            f"cannot override {sorted(illegal)}; only name, parameters, and "
            f"port_types may be adapted"
        )
    name = overrides.get("name", block.name)
    parameters = dict(block.parameters)
    parameters.update(overrides.get("parameters", {}))
    ports = list(block.ports)
    for port_id, token in dict(overrides.get("port_types", {})).items():
        for i, port in enumerate(ports):
            if port.id == port_id:
                ports[i] = replace(port, interface_type=token)
                break
        else:
            raise UnknownElement(f"block '{block.id}' has no port '{port_id}' to retype")
    adapted = replace(block, name=name, parameters=parameters, ports=tuple(ports), origin=Origin.ADAPTED)
    return add_block(model, adapted)


def extend(
    repo: ReferenceRepository,
    asset_id: str,
    extra_ports: Sequence[Port],
    extra_params: Mapping[str, Scalar],
    model: Model,
) -> Model:
    """Copy a reference block supplemented with new ports and parameters.

    Existing fields stay untouched: clashing port ids raise DuplicatePortId
    and clashing parameter names raise IllegalOverride.
    """
    block = _block_asset(repo, asset_id)
    existing_ports = {p.id for p in block.ports}
    for port in extra_ports:
        if port.id in existing_ports:
            raise DuplicatePortId(f"block '{block.id}' already has a port '{port.id}'")
        existing_ports.add(port.id)
    clashes = set(extra_params) & set(block.parameters)
    if clashes:
        raise IllegalOverride(
            f"extension may not overwrite existing parameters: {sorted(clashes)}"
        )
    extended = replace(
        block,
        ports=tuple(block.ports) + tuple(extra_ports),
        parameters={**block.parameters, **extra_params},
        origin=Origin.EXTENDED,
    )
    return add_block(model, extended)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save(repo: ReferenceRepository) -> str:
    """Serialize a repository to its canonical JSON document."""
    return _dumps(repository_to_document(repo))


def load(text: str) -> ReferenceRepository:
    """Parse a repository document; raises ParseError / SchemaVersionMismatch."""
    doc = _loads(text)
    top = _expect_object(doc, "$")
    _check_fields(top, "$", {"schema_version", "version", "assets"})
    _check_schema_version(top)
    version = _expect_int(top.get("version", 0), "$.version")
    assets: dict[str, Asset] = {}
    for i, entry in enumerate(_expect_array(top.get("assets", []), "$.assets")):
        asset = _parse_asset(entry, f"$.assets[{i}]")
        if asset.id in assets:
            raise ParseError(f"$.assets[{i}]: duplicate asset id '{asset.id}'")
        assets[asset.id] = asset
    return ReferenceRepository(assets=assets, version=version)


def save_model(model: Model) -> str:
    """Serialize a model to its canonical JSON document."""
    return _dumps(model_to_document(model))


def load_model(text: str) -> Model:
    """Parse a model document; shares the repository schema conventions."""
    doc = _loads(text)
    top = _expect_object(doc, "$")
    _check_fields(top, "$", {"schema_version", "id", "blocks", "connections", "traces"})
    _check_schema_version(top)
    model_id = _expect_str(top.get("id", ""), "$.id")
    blocks: dict[str, BuildingBlock] = {}
    for i, entry in enumerate(_expect_array(top.get("blocks", []), "$.blocks")):
        block = _parse_block(entry, f"$.blocks[{i}]")
        if block.id in blocks:
            raise ParseError(f"$.blocks[{i}]: duplicate block id '{block.id}'")
        blocks[block.id] = block
    connections = frozenset(
        _parse_connection(entry, f"$.connections[{i}]")
        for i, entry in enumerate(_expect_array(top.get("connections", []), "$.connections"))
    )
    traces = frozenset(
        _parse_trace(entry, f"$.traces[{i}]")
        for i, entry in enumerate(_expect_array(top.get("traces", []), "$.traces"))
    )
    return Model(id=model_id, blocks=blocks, connections=connections, traces=traces)


def load_asset(text: str) -> Asset:
    """Parse a single asset document (same shape as entries in a repository)."""
    return _parse_asset(_loads(text), "$")


def repository_to_document(repo: ReferenceRepository) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "version": repo.version,
        "assets": [_asset_to_document(a) for a in repo.sorted_assets()],
    }


def model_to_document(model: Model) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "id": model.id,
        "blocks": [_block_to_document(b) for b in model.sorted_blocks()],
        "connections": [_connection_to_document(c) for c in model.sorted_connections()],
        "traces": [_trace_to_document(t) for t in model.sorted_traces()],
    }


def _dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _asset_to_document(asset: Asset) -> dict:
    if isinstance(asset, BlockAsset):
        return {"id": asset.id, "asset_kind": "block", "block": _block_to_document(asset.block)}
    if isinstance(asset, PatternAsset):
        return {
            "id": asset.id,
            "asset_kind": "pattern",
            "pattern": _pattern_to_document(asset.pattern),
        }
    return {
        "id": asset.id,
        "asset_kind": "viewpoint",
        "viewpoint": _viewpoint_to_document(asset.viewpoint),
    }


def _block_to_document(block: BuildingBlock) -> dict:
    return {
        "id": block.id,
        "name": block.name,
        "layer": block.layer.value,
        "kind": block.kind.value,
        "ports": [_port_to_document(p) for p in sorted(block.ports, key=lambda p: p.id)],
        "parameters": dict(sorted(block.parameters.items())),
        "origin": block.origin.value,
    }


def _port_to_document(port: Port) -> dict:
    return {
        "id": port.id,
        "direction": port.direction.value,
        "interface_type": port.interface_type,
        "layer": port.layer.value,
    }


def _connection_to_document(conn: Connection) -> dict:
    return {
        "from": {"block": conn.source.block, "port": conn.source.port},
        "to": {"block": conn.target.block, "port": conn.target.port},
    }


def _trace_to_document(link: TraceLink) -> dict:
    return {"kind": link.kind.value, "source": link.source, "target": link.target}


def _pattern_to_document(pattern: Pattern) -> dict:
    return {
        "id": pattern.id,
        "blocks": [_block_to_document(b) for b in sorted(pattern.blocks, key=lambda b: b.id)],
        "connections": [
            _connection_to_document(c) for c in sorted(pattern.connections, key=connection_key)
        ],
        "traces": [_trace_to_document(t) for t in sorted(pattern.traces, key=trace_key)],
        "anchors": [
            {"id": a.id, "layer": a.layer.value, "kind": a.kind.value}
            for a in sorted(pattern.anchors, key=lambda a: a.id)
        ],
    }


def _viewpoint_to_document(viewpoint: Viewpoint) -> dict:
    return {
        "subject": viewpoint.subject.value,
        "aspect": viewpoint.aspect.value,
        "name": viewpoint.name,
    }


# --- parsing helpers -------------------------------------------------------


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None


def _check_schema_version(top: Mapping[str, Any]):
    found = top.get("schema_version")
    if found != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"$.schema_version: expected {SCHEMA_VERSION}, found {found!r}"
        )


def _check_fields(obj: Mapping[str, Any], path: str, allowed: set[str]):
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"{path}: unexpected field '{sorted(unknown)[0]}'")


def _expect_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{path}: expected an object, found {type(value).__name__}")
    return value


def _expect_array(value, path: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected an array, found {type(value).__name__}")
    return value


def _expect_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{path}: expected a string, found {type(value).__name__}")
    return value


def _expect_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{path}: expected an integer, found {type(value).__name__}")
    return value


def _parse_enum(enum_cls, value, path: str):
    token = _expect_str(value, path)
    try:
        return enum_cls(token)
    except ValueError:
        raise ParseError(f"{path}: unknown {enum_cls.__name__.lower()} token '{token}'") from None


def _parse_scalar(value, path: str) -> Scalar:
    if isinstance(value, (str, int, float, bool)):
        return value
    raise ParseError(f"{path}: expected a scalar, found {type(value).__name__}")


def _parse_asset(entry, path: str) -> Asset:
    obj = _expect_object(entry, path)
    _check_fields(obj, path, {"id", "asset_kind", "block", "pattern", "viewpoint"})
    asset_kind = _expect_str(obj.get("asset_kind", ""), f"{path}.asset_kind")
    if asset_kind == "block":
        asset: Asset = _wrap(lambda: BlockAsset(_parse_block(obj.get("block"), f"{path}.block")), path)
    elif asset_kind == "pattern":
        asset = PatternAsset(_parse_pattern(obj.get("pattern"), f"{path}.pattern"))
    elif asset_kind == "viewpoint":
        asset = _wrap(
            lambda: ViewpointAsset(_parse_viewpoint(obj.get("viewpoint"), f"{path}.viewpoint")), path
        )
    else:
        raise ParseError(f"{path}.asset_kind: unknown asset kind token '{asset_kind}'")
    declared = obj.get("id")
    if declared is not None and declared != asset.id:
        raise ParseError(f"{path}.id: '{declared}' does not match payload id '{asset.id}'")
    return asset


def _wrap(build, path: str):
    try:
        return build()
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _parse_block(entry, path: str) -> BuildingBlock:
    obj = _expect_object(entry, path)
    _check_fields(obj, path, {"id", "name", "layer", "kind", "ports", "parameters", "origin"})
    ports = tuple(
        _parse_port(p, f"{path}.ports[{i}]")
        for i, p in enumerate(_expect_array(obj.get("ports", []), f"{path}.ports"))
    )
    parameters = {
        _expect_str(k, f"{path}.parameters"): _parse_scalar(v, f"{path}.parameters.{k}")
        for k, v in _expect_object(obj.get("parameters", {}), f"{path}.parameters").items()
    }
    return _wrap(
        lambda: BuildingBlock(
            id=_expect_str(obj.get("id", ""), f"{path}.id"),
            name=_expect_str(obj.get("name", ""), f"{path}.name"),
            layer=_parse_enum(ConcernLayer, obj.get("layer"), f"{path}.layer"),
            kind=_parse_enum(BlockKind, obj.get("kind"), f"{path}.kind"),
            ports=ports,
            parameters=parameters,
            origin=_parse_enum(Origin, obj.get("origin", "reference_asset"), f"{path}.origin"),
        ),
        path,
    )


def _parse_port(entry, path: str) -> Port:
    obj = _expect_object(entry, path)
    _check_fields(obj, path, {"id", "direction", "interface_type", "layer"})
    return _wrap(
        lambda: Port(
            id=_expect_str(obj.get("id", ""), f"{path}.id"),
            direction=_parse_enum(PortDirection, obj.get("direction"), f"{path}.direction"),
            interface_type=_expect_str(obj.get("interface_type", ""), f"{path}.interface_type"),
            layer=_parse_enum(ConcernLayer, obj.get("layer"), f"{path}.layer"),
        ),
        path,
    )


def _parse_connection(entry, path: str) -> Connection:
    obj = _expect_object(entry, path)
    _check_fields(obj, path, {"from", "to"})
    return Connection(
        source=_parse_port_ref(obj.get("from"), f"{path}.from"),
        target=_parse_port_ref(obj.get("to"), f"{path}.to"),
    )


def _parse_port_ref(entry, path: str) -> PortRef:
    obj = _expect_object(entry, path)
    _check_fields(obj, path, {"block", "port"})
    return PortRef(
        block=_expect_str(obj.get("block", ""), f"{path}.block"),
        port=_expect_str(obj.get("port", ""), f"{path}.port"),
    )


def _parse_trace(entry, path: str) -> TraceLink:
    obj = _expect_object(entry, path)
    _check_fields(obj, path, {"kind", "source", "target"})
    return TraceLink(
        kind=_parse_enum(TraceKind, obj.get("kind"), f"{path}.kind"),
        source=_expect_str(obj.get("source", ""), f"{path}.source"),
        target=_expect_str(obj.get("target", ""), f"{path}.target"),
    )


def _parse_pattern(entry, path: str) -> Pattern:
    obj = _expect_object(entry, path)
    _check_fields(obj, path, {"id", "blocks", "connections", "traces", "anchors"})
    blocks = tuple(
        _parse_block(b, f"{path}.blocks[{i}]")
        for i, b in enumerate(_expect_array(obj.get("blocks", []), f"{path}.blocks"))
    )
    connections = frozenset(
        _parse_connection(c, f"{path}.connections[{i}]")
        for i, c in enumerate(_expect_array(obj.get("connections", []), f"{path}.connections"))
    )
    traces = frozenset(
        _parse_trace(t, f"{path}.traces[{i}]")
        for i, t in enumerate(_expect_array(obj.get("traces", []), f"{path}.traces"))
    )
    anchors = tuple(
        _parse_anchor(a, f"{path}.anchors[{i}]")
        for i, a in enumerate(_expect_array(obj.get("anchors", []), f"{path}.anchors"))
    )
    return _wrap(
        lambda: Pattern(
            id=_expect_str(obj.get("id", ""), f"{path}.id"),
            blocks=blocks,
            connections=connections,
            traces=traces,
            anchors=anchors,
        ),
        path,
    )


def _parse_anchor(entry, path: str) -> PatternAnchor:
    obj = _expect_object(entry, path)
    _check_fields(obj, path, {"id", "layer", "kind"})
    return PatternAnchor(
        id=_expect_str(obj.get("id", ""), f"{path}.id"),
        layer=_parse_enum(ConcernLayer, obj.get("layer"), f"{path}.layer"),
        kind=_parse_enum(BlockKind, obj.get("kind"), f"{path}.kind"),
    )


def _parse_viewpoint(entry, path: str) -> Viewpoint:
    obj = _expect_object(entry, path)
    _check_fields(obj, path, {"subject", "aspect", "name"})
    return Viewpoint(
        subject=_parse_enum(ConcernLayer, obj.get("subject"), f"{path}.subject"),
        aspect=_parse_enum(Aspect, obj.get("aspect"), f"{path}.aspect"),
        name=_expect_str(obj.get("name", ""), f"{path}.name"),
    )
