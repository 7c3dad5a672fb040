"""Reference-asset repository and the reuse mechanisms adopt, adapt, extend.

Also home of the JSON persistence layer for repositories and models. Documents
are versioned (`schema_version`), canonically ordered (assets, blocks, ports,
connections, and traces sorted by id) and therefore byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, NamedTuple, Sequence, Union

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
    _by_id,
    _map_by_id,
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
        object.__setattr__(self, "assets", _map_by_id(self.assets, "repository key", "asset id"))

    def asset(self, asset_id: str) -> Asset:
        try:
            return self.assets[asset_id]
        except KeyError:
            raise UnknownAsset(f"repository has no asset '{asset_id}'") from None

    def block_assets(self) -> list[BlockAsset]:
        return [a for a in self.sorted_assets() if isinstance(a, BlockAsset)]

    def sorted_assets(self) -> list[Asset]:
        return sorted(self.assets.values(), key=_by_id)


def add_asset(repo: ReferenceRepository, asset: Asset) -> ReferenceRepository:
    """Return a repository with the asset added and the version bumped by one."""
    if asset.id in repo.assets:
        raise DuplicateId(f"repository already contains asset '{asset.id}'")
    return ReferenceRepository(assets=repo.assets.appended(asset.id, asset), version=repo.version + 1)


def list_assets(
    repo: ReferenceRepository,
    layer: ConcernLayer | None = None,
    kind: BlockKind | None = None,
) -> list[str]:
    """Asset ids in lexicographic order; layer/kind filters select block assets."""
    if layer is None and kind is None:
        return [asset.id for asset in repo.sorted_assets()]
    return [
        asset.id
        for asset in repo.block_assets()
        if (layer is None or asset.block.layer is layer) and (kind is None or asset.block.kind is kind)
    ]


def asset_of_kind(repo: ReferenceRepository, asset_id: str, kind: type) -> Asset:
    """The asset under asset_id, which must be of the asset class kind; else WrongAssetKind."""
    asset = repo.asset(asset_id)
    if not isinstance(asset, kind):
        name = kind.__name__.removesuffix("Asset").lower()
        raise WrongAssetKind(f"asset '{asset_id}' is not a {name} asset")
    return asset


def adopt(repo: ReferenceRepository, asset_id: str, model: Model) -> Model:
    """Copy a reference block verbatim into the model, marked as adopted."""
    block = asset_of_kind(repo, asset_id, BlockAsset).block
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
    block = asset_of_kind(repo, asset_id, BlockAsset).block
    illegal = set(overrides) - _ADAPTABLE_FIELDS
    if illegal:
        raise IllegalOverride(
            f"cannot override {sorted(illegal)}; only name, parameters, and "
            f"port_types may be adapted"
        )
    name = overrides.get("name", block.name)
    parameters = dict(block.parameters)
    parameters.update(overrides.get("parameters", {}))
    ports = {port.id: port for port in block.ports}
    for port_id, token in dict(overrides.get("port_types", {})).items():
        if port_id not in ports:
            raise UnknownElement(f"block '{block.id}' has no port '{port_id}' to retype")
        ports[port_id] = replace(ports[port_id], interface_type=token)
    adapted = replace(block, name=name, parameters=parameters, ports=ports.values(), origin=Origin.ADAPTED)
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
    block = asset_of_kind(repo, asset_id, BlockAsset).block
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
    return _REPOSITORY.decode(_loads(text), "$")


def save_model(model: Model) -> str:
    """Serialize a model to its canonical JSON document."""
    return _dumps(model_to_document(model))


def load_model(text: str) -> Model:
    """Parse a model document; shares the repository schema conventions."""
    return _MODEL.decode(_loads(text), "$")


def load_asset(text: str) -> Asset:
    """Parse a single asset document (same shape as entries in a repository)."""
    return _ASSET.decode(_loads(text), "$")


def repository_to_document(repo: ReferenceRepository) -> dict:
    return _REPOSITORY.encode(repo)


def model_to_document(model: Model) -> dict:
    return _MODEL.encode(model)


def _dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _reject_constant(name: str):
    raise ParseError(f"{name} is not a JSON number")


def _loads(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # an integer literal longer than int() accepts
        raise ParseError(str(exc)) from None
    except RecursionError:
        raise ParseError("arrays and objects are nested too deeply") from None


class _Codec(NamedTuple):
    """How one value is written to JSON and read back; `decode` names `path` in its errors."""

    encode: Callable[[Any], Any]
    decode: Callable[[Any, str], Any]


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def _expect(kind: type, value, path: str):
    """The value itself if it is a JSON value of `kind` (a bool is no integer)."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ParseError(f"{path}: expected {_JSON_TYPES[kind]}, found {type(value).__name__}")
    return value


def _wrap(path: str, build, *args, **kwargs):
    """`build(*args, **kwargs)`, with a ValueError it raises turned into a ParseError at `path`."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _same(value):
    return value


_STR = _Codec(_same, lambda value, path: _expect(str, value, path))
_INT = _Codec(_same, lambda value, path: _expect(int, value, path))


def _enum(cls) -> _Codec:
    """An enum member, written as its token."""
    members = {member.value: member for member in cls}

    def decode(value, path: str):
        token = _expect(str, value, path)
        if token not in members:
            raise ParseError(f"{path}: unknown {cls.__name__.lower()} token '{token}'")
        return members[token]

    return _Codec(lambda member: member.value, decode)


def _decode_scalars(value, path: str) -> dict[str, Scalar]:
    scalars = {}
    for key, scalar in _expect(dict, value, path).items():
        key = _expect(str, key, path)
        if not isinstance(scalar, (str, int, float, bool)):
            raise ParseError(f"{path}.{key}: expected a scalar, found {type(scalar).__name__}")
        scalars[key] = scalar
    return scalars


_SCALARS = _Codec(lambda scalars: dict(sorted(scalars.items())), _decode_scalars)


def _check_schema_version(found, path: str):
    if found != SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"{path}: expected {SCHEMA_VERSION}, found {found!r}")
    return found


_SCHEMA_VERSION = _Codec(lambda _: SCHEMA_VERSION, _check_schema_version)


def _array(item: _Codec, key, unique: str = "") -> _Codec:
    """A list written sorted by `key` and read, in document order, into a tuple.

    A `unique` list stores a dict by id instead: it is written from the dict's
    values, read into a dict, and an entry that repeats an id is rejected as a
    duplicate `unique` id before the next entry is read.
    """

    def encode(values) -> list:
        return [item.encode(v) for v in sorted(values.values() if unique else values, key=key)]

    def decode(value, path: str):
        records, ids = [], set()
        for i, entry in enumerate(_expect(list, value, path)):
            record = item.decode(entry, f"{path}[{i}]")
            if unique:
                if record.id in ids:
                    raise ParseError(f"{path}[{i}]: duplicate {unique} id '{record.id}'")
                ids.add(record.id)
            records.append(record)
        return {r.id: r for r in records} if unique else tuple(records)

    return _Codec(encode, decode)


_Field = tuple[str, Union[str, None], _Codec, Any]


def _record(cls, fields: Sequence[_Field]) -> _Codec:
    """An object with one (json key, attribute, codec, default) row per field.

    Fields are read in row order and a missing key reads as its default; any
    other key is an error. A row without an attribute is written by its codec
    alone and read only to be checked.
    """
    keys = {key for key, _, _, _ in fields}

    def encode(obj) -> dict:
        return {key: codec.encode(attr and getattr(obj, attr)) for key, attr, codec, _ in fields}

    def decode(value, path: str):
        obj = _expect(dict, value, path)
        _check_fields(obj, path, keys)
        kwargs = {}
        for key, attr, codec, default in fields:
            field_value = codec.decode(obj.get(key, default), f"{path}.{key}")
            if attr:
                kwargs[attr] = field_value
        return _wrap(path, cls, **kwargs)

    return _Codec(encode, decode)


def _check_fields(obj: Mapping[str, Any], path: str, allowed: set[str]):
    unknown = obj.keys() - allowed
    if unknown:
        raise ParseError(f"{path}: unexpected field '{sorted(unknown)[0]}'")


_LAYER = _enum(ConcernLayer)
_BLOCK_KIND = _enum(BlockKind)

_PORT = _record(Port, (
    ("id", "id", _STR, ""),
    ("direction", "direction", _enum(PortDirection), None),
    ("interface_type", "interface_type", _STR, ""),
    ("layer", "layer", _LAYER, None),
))
_BLOCK = _record(BuildingBlock, (
    ("ports", "ports", _array(_PORT, _by_id), []),
    ("parameters", "parameters", _SCALARS, {}),
    ("id", "id", _STR, ""),
    ("name", "name", _STR, ""),
    ("layer", "layer", _LAYER, None),
    ("kind", "kind", _BLOCK_KIND, None),
    ("origin", "origin", _enum(Origin), Origin.REFERENCE_ASSET.value),
))
_PORT_REF = _record(PortRef, (("block", "block", _STR, ""), ("port", "port", _STR, "")))
_CONNECTIONS = _array(
    _record(Connection, (("from", "source", _PORT_REF, None), ("to", "target", _PORT_REF, None))),
    connection_key,
)
_TRACES = _array(
    _record(TraceLink, (
        ("kind", "kind", _enum(TraceKind), None),
        ("source", "source", _STR, ""),
        ("target", "target", _STR, ""),
    )),
    trace_key,
)
_ANCHOR = _record(PatternAnchor, (
    ("id", "id", _STR, ""), ("layer", "layer", _LAYER, None), ("kind", "kind", _BLOCK_KIND, None)
))
_PATTERN = _record(Pattern, (
    ("blocks", "blocks", _array(_BLOCK, _by_id), []),
    ("connections", "connections", _CONNECTIONS, []),
    ("traces", "traces", _TRACES, []),
    ("anchors", "anchors", _array(_ANCHOR, _by_id), []),
    ("id", "id", _STR, ""),
))
_VIEWPOINT = _record(Viewpoint, (
    ("subject", "subject", _LAYER, None),
    ("aspect", "aspect", _enum(Aspect), None),
    ("name", "name", _STR, ""),
))

# asset_kind token -> (asset class, key of its payload, payload codec)
_ASSET_KINDS = {
    "block": (BlockAsset, "block", _BLOCK),
    "pattern": (PatternAsset, "pattern", _PATTERN),
    "viewpoint": (ViewpointAsset, "viewpoint", _VIEWPOINT),
}
_ASSET_TOKENS = {cls: token for token, (cls, _, _) in _ASSET_KINDS.items()}
_ID, _ASSET_KIND = "id", "asset_kind"
_ASSET_KEYS = {_ID, _ASSET_KIND, *(key for _, key, _ in _ASSET_KINDS.values())}


def _encode_asset(asset: Asset) -> dict:
    token = _ASSET_TOKENS[type(asset)]
    _, key, codec = _ASSET_KINDS[token]
    return {_ID: asset.id, _ASSET_KIND: token, key: codec.encode(getattr(asset, key))}


def _decode_asset(value, path: str) -> Asset:
    """An asset: its kind token picks the payload, and a given id must match the payload's."""
    obj = _expect(dict, value, path)
    _check_fields(obj, path, _ASSET_KEYS)
    token = _expect(str, obj.get(_ASSET_KIND, ""), f"{path}.{_ASSET_KIND}")
    if token not in _ASSET_KINDS:
        raise ParseError(f"{path}.{_ASSET_KIND}: unknown asset kind token '{token}'")
    cls, key, codec = _ASSET_KINDS[token]
    asset = _wrap(path, cls, codec.decode(obj.get(key), f"{path}.{key}"))
    declared = obj.get(_ID)
    if declared is not None and declared != asset.id:
        raise ParseError(f"{path}.{_ID}: '{declared}' does not match payload id '{asset.id}'")
    return asset


_ASSET = _Codec(_encode_asset, _decode_asset)
_MODEL = _record(Model, (
    ("schema_version", None, _SCHEMA_VERSION, None),
    ("id", "id", _STR, ""),
    ("blocks", "blocks", _array(_BLOCK, _by_id, unique="block"), []),
    ("connections", "connections", _CONNECTIONS, []),
    ("traces", "traces", _TRACES, []),
))
_REPOSITORY = _record(ReferenceRepository, (
    ("schema_version", None, _SCHEMA_VERSION, None),
    ("version", "version", _INT, 0),
    ("assets", "assets", _array(_ASSET, _by_id, unique="asset"), []),
))
