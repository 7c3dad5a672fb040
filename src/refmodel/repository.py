"""Reference-asset repository and the reuse mechanisms adopt, adapt, extend.

Also home of the JSON persistence layer for repositories and models. Documents
are versioned (`schema_version`), canonically ordered (assets, blocks, ports,
connections, and traces sorted by id) and therefore byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import field, replace
from operator import attrgetter
from typing import AbstractSet, Any, Callable, Mapping, NamedTuple, Sequence, Union

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
    _next_version,
    _record,
    _wrong_type,
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


@_record
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


@_record
class PatternAsset:
    """A reference pattern, stored under its id."""

    pattern: Pattern

    @property
    def id(self) -> str:
        return self.pattern.id


@_record
class ViewpointAsset:
    """A reference viewpoint, stored under its name."""

    viewpoint: Viewpoint

    def __post_init__(self):
        if not self.viewpoint.name:
            raise ValueError("viewpoint assets need a non-empty name to serve as their id")

    @property
    def id(self) -> str:
        return self.viewpoint.name


Asset = Union[BlockAsset, PatternAsset, ViewpointAsset]


@_record
class ReferenceRepository:
    """Immutable store of reference assets; version counts mutating operations."""

    assets: Mapping[str, Asset] = field(default_factory=dict)
    version: int = 0

    def __post_init__(self):
        if type(self.version) is not int:
            raise _wrong_type(self, int, "version")
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
    assets = repo.assets.appended(asset.id, asset)
    if assets is repo.assets:
        raise DuplicateId(f"repository already contains asset '{asset.id}'")
    return _next_version(repo, {"assets": assets, "version": repo.version + 1})


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
    return add_block(model, block._adopted())


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
    return _encode(_REPOSITORY, repo)


def load(text: str) -> ReferenceRepository:
    """Parse a repository document; raises ParseError / SchemaVersionMismatch."""
    return _decode(_REPOSITORY, text)


def save_model(model: Model) -> str:
    """Serialize a model to its canonical JSON document."""
    return _encode(_MODEL, model)


def load_model(text: str) -> Model:
    """Parse a model document; shares the repository schema conventions."""
    return _decode(_MODEL, text)


def load_asset(text: str) -> Asset:
    """Parse a single asset document (same shape as entries in a repository)."""
    return _decode(_ASSET, text)


def _encode(codec: _Codec, value) -> str:
    """The text of `json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\\n"`, with no `doc` built."""
    chunks = []
    codec.write(value, "", "\n", chunks)
    chunks.append("\n")
    return "".join(chunks)


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


def _decode(codec: _Codec, text: str):
    doc = _loads(text)
    try:
        return codec.decode(doc)
    except ParseError as exc:
        raise _located("$", exc)


def _located(step: str, exc: ParseError) -> ParseError:
    """`exc` with `step` put in front of the path that its message starts with."""
    exc.args = (f"{step}{exc}",)
    return exc


class _Codec(NamedTuple):
    """How a value is written to JSON (after `prefix`, on a line that `newline` began), read back, and read
    when missing. `decode` raises ParseErrors whose message starts with the path below the value; each
    enclosing record or array prepends its step."""

    write: Callable[[Any, str, str, list], None]
    decode: Callable[[Any], Any]
    default: Any = None


def _expect(kind: type, name: str) -> Callable[[Any], Any]:
    """A decoder passing a JSON value of `kind` through (a bool is no integer)."""

    def decode(value):
        if type(value) is kind:
            return value
        raise ParseError(f": expected {name}, found {type(value).__name__}")

    return decode


def _leaf(text: Callable[[Any], str]):
    """A writer of a value that `text` gives on one line."""
    return lambda value, prefix, newline, chunks: chunks.append(prefix + text(value))


_quote = json.encoder.encode_basestring
# What json.dumps writes for each type of scalar, a parameter's value or the repository version.
_SCALAR_TEXT = {str: _quote, int: int.__repr__, float: float.__repr__, bool: lambda flag: "true" if flag else "false"}


_object, _list, _string = _expect(dict, "an object"), _expect(list, "an array"), _expect(str, "a string")
_STR = _Codec(_leaf(_quote), _string, "")
_INT = _Codec(_leaf(lambda value: _SCALAR_TEXT[type(value)](value)), _expect(int, "an integer"), 0)


def _tokens(members: Mapping[str, Any], what: str) -> Callable[[Any], Any]:
    """A decoder reading a token as its entry in `members`."""

    def decode(value):
        if type(value) is str and value in members:
            return members[value]
        raise ParseError(f": unknown {what} token '{_string(value)}'")

    return decode


def _enum(cls, default=None) -> _Codec:
    """An enum member, written as its token."""
    decode = _tokens({member.value: member for member in cls}, cls.__name__.lower())
    return _Codec(_leaf({member: _quote(member.value) for member in cls}.__getitem__), decode, default)


def _decode_scalars(value) -> dict[str, Scalar]:
    for key, scalar in _object(value).items():
        if type(scalar) not in (str, int, float, bool):
            raise ParseError(f".{key}: expected a scalar, found {type(scalar).__name__}")
    return value


def _check_schema_version(found):
    # A bool or a float may equal 1 (True == 1.0 == 1), but the version is the integer 1.
    if type(found) is not int or found != SCHEMA_VERSION:
        raise SchemaVersionMismatch(f": expected {SCHEMA_VERSION}, found {found!r}")


def _lines(brackets: str, entries: Callable[[Any], list], write_entry):
    """A writer of the `entries` of a value between `brackets`, one a line, or of bare brackets if it has none."""

    def write(value, prefix, newline, chunks):
        inner = newline + "  "
        separator = prefix + brackets[0] + inner
        start = len(chunks)
        for entry in entries(value):
            write_entry(entry, separator, inner, chunks)
            separator = "," + inner
        chunks.append(newline + brackets[1] if len(chunks) > start else prefix + brackets)

    return write


_SCALAR_ENTRY = _leaf(lambda item: f"{_quote(item[0])}: {_SCALAR_TEXT[type(item[1])](item[1])}")
_SCALARS = _Codec(_lines("{}", lambda scalars: sorted(scalars.items()), _SCALAR_ENTRY), _decode_scalars, {})
_SCHEMA_VERSION = _Codec(_leaf(lambda _: str(SCHEMA_VERSION)), _check_schema_version)


def _array(item: _Codec, key, unique: str = "") -> _Codec:
    """A list written sorted by `key` and read, in document order, into a tuple; a `unique`
    list is a dict by id instead, and an entry that repeats an id is a duplicate `unique` id."""

    def decode(value):
        entries, records = _list(value), {} if unique else []
        try:
            for entry in entries:
                record = item.decode(entry)
                if not unique:
                    records.append(record)
                elif records.setdefault(record.id, record) is not record:
                    raise ParseError(f": duplicate {unique} id '{record.id}'")
        except ParseError as exc:
            raise _located(f"[{len(records)}]", exc)
        return records if unique else tuple(records)

    write = _lines("[]", lambda values: sorted(values.values() if unique else values, key=key), item.write)
    return _Codec(write, decode, [])


def _struct(cls, codecs: Mapping[str, _Codec], attributes: Mapping[str, str | None] | None = None) -> _Codec:
    """An object with one codec per key, read in key order into `cls`; any other key is an error. A key
    is also its attribute, unless `attributes` maps it to another, or to None for a key only checked."""
    rows = [(key, (attributes or {}).get(key, key), *codec) for key, codec in codecs.items()]
    # The writer's rows in sorted key order: the key's text, a getter of its value, and the value's writer.
    fields = [(_quote(key) + ": ", attrgetter(attr) if attr else lambda _: None, write)
              for key, attr, write, *_ in sorted(rows)]

    def write(obj, prefix, newline, chunks):
        inner = newline + "  "
        separator = prefix + "{" + inner
        for key, get, write_field in fields:
            write_field(get(obj), separator + key, inner, chunks)
            separator = "," + inner
        chunks.append(newline + "}")

    def decode(value):
        obj = _object(value)
        _check_fields(obj, codecs.keys())
        kwargs = {}
        try:
            for key, attr, _, decode_field, default in rows:
                kwargs[attr] = decode_field(obj.get(key, default))
        except ParseError as exc:
            raise _located(f".{key}", exc)
        kwargs.pop(None, None)
        try:
            return cls(**kwargs)
        except ValueError as exc:  # the record's own check, at the record's path
            raise ParseError(f": {exc}") from None

    return _Codec(write, decode)


def _check_fields(obj: dict, allowed: AbstractSet[str]):
    if not obj.keys() <= allowed:
        raise ParseError(f": unexpected field '{min(obj.keys() - allowed)}'")


_LAYER, _BLOCK_KIND = _enum(ConcernLayer), _enum(BlockKind)
_PORT = _struct(
    Port, {"id": _STR, "direction": _enum(PortDirection), "interface_type": _STR, "layer": _LAYER}
)
_BLOCK = _struct(BuildingBlock, {
    "ports": _array(_PORT, _by_id), "parameters": _SCALARS, "id": _STR, "name": _STR, "layer": _LAYER,
    "kind": _BLOCK_KIND, "origin": _enum(Origin, Origin.REFERENCE_ASSET.value),
})
_PORT_REF = _struct(PortRef, {"block": _STR, "port": _STR})
_CONNECTION = _struct(Connection, {"from": _PORT_REF, "to": _PORT_REF}, {"from": "source", "to": "target"})
_CONNECTIONS = _array(_CONNECTION, connection_key)
_TRACES = _array(_struct(TraceLink, {"kind": _enum(TraceKind), "source": _STR, "target": _STR}), trace_key)
_ANCHOR = _struct(PatternAnchor, {"id": _STR, "layer": _LAYER, "kind": _BLOCK_KIND})
_PATTERN = _struct(Pattern, {
    "blocks": _array(_BLOCK, _by_id), "connections": _CONNECTIONS, "traces": _TRACES,
    "anchors": _array(_ANCHOR, _by_id), "id": _STR,
})
_VIEWPOINT = _struct(Viewpoint, {"subject": _LAYER, "aspect": _enum(Aspect), "name": _STR})

# Each asset class, its asset_kind token, and the codec of its payload, which a document holds under the token.
_ASSET_TABLE = [
    (BlockAsset, "block", _BLOCK), (PatternAsset, "pattern", _PATTERN), (ViewpointAsset, "viewpoint", _VIEWPOINT),
]
# asset_kind token -> the asset class read from the payload under the same key
_ASSET_KINDS = {token: _struct(cls, {token: codec}) for cls, token, codec in _ASSET_TABLE}
# asset class -> the writer of its document: the kind token, the payload under the token's key, and the id
_ASSET_WRITERS = {
    cls: _struct(cls, {"asset_kind": _Codec(_leaf(lambda _, text=_quote(token): text), None), token: codec,
                       "id": _STR}, {"asset_kind": None}).write
    for cls, token, codec in _ASSET_TABLE
}
_ASSET_KEYS = {"id", "asset_kind", *_ASSET_KINDS}
_ASSET_KIND = _tokens({token: token for token in _ASSET_KINDS}, "asset kind")


def _decode_asset(value) -> Asset:
    """An asset: its kind token picks the payload, and a given id must match the payload's."""
    obj = _object(value)
    _check_fields(obj, _ASSET_KEYS)
    try:
        token = _ASSET_KIND(obj.get("asset_kind", ""))
    except ParseError as exc:
        raise _located(".asset_kind", exc)
    asset = _ASSET_KINDS[token].decode({token: obj.get(token)})
    declared = obj.get("id")
    if declared is not None and declared != asset.id:
        raise ParseError(f".id: '{declared}' does not match payload id '{asset.id}'")
    return asset


_ASSET = _Codec(lambda asset, *place: _ASSET_WRITERS[type(asset)](asset, *place), _decode_asset)
_MODEL = _struct(Model, {
    "schema_version": _SCHEMA_VERSION, "id": _STR, "blocks": _array(_BLOCK, _by_id, unique="block"),
    "connections": _CONNECTIONS, "traces": _TRACES,
}, {"schema_version": None})
_REPOSITORY = _struct(ReferenceRepository, {
    "schema_version": _SCHEMA_VERSION, "version": _INT, "assets": _array(_ASSET, _by_id, unique="asset"),
}, {"schema_version": None})
