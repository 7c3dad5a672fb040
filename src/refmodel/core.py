"""Typed building-block model: concern layers, ports, blocks, trace links, models.

Everything here is an immutable value; operations return new models instead of
mutating. Blocks are bound to exactly one concern layer, ports carry nominal
interface types, and cross-layer trace links are restricted to a fixed table of
permitted (source layer, target layer, kind) triples. A model's blocks,
connections and traces, and a repository's assets, are versions of append-only
logs that successive versions share, so a write costs amortised O(1).
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Set
from dataclasses import dataclass, field
from enum import Enum
from itertools import count, islice
from operator import attrgetter
from typing import Union

from .errors import DuplicateId, IllegalTraceKind, UnknownElement

Scalar = Union[str, int, float, bool]
_by_id = attrgetter("id")


def _wrong_type(obj, kind: type, *names: str) -> TypeError:
    """The error for the first of the fields `names` of `obj` whose value is not exactly a `kind`."""
    name = next(name for name in names if type(getattr(obj, name)) is not kind)
    return TypeError(f"{type(obj).__name__}.{name} must be {kind.__name__}, not {type(getattr(obj, name)).__name__}")


class _Token(Enum):
    # A member equals only itself (Enum compares by identity), so hashing by identity agrees
    # with ==, and a lookup keyed by a member hashes at C speed instead of calling Enum.__hash__.
    __hash__ = object.__hash__


class ConcernLayer(_Token):
    STRATEGIC = "strategic"
    OPERATIONAL = "operational"
    SERVICE = "service"
    RESOURCE = "resource"


class Aspect(_Token):
    STRUCTURE = "structure"
    BEHAVIOR = "behavior"
    PARAMETERS = "parameters"
    REQUIREMENTS = "requirements"


class PortDirection(_Token):
    PROVIDED = "provided"
    REQUIRED = "required"


class BlockKind(_Token):
    CAPABILITY = "capability"
    OPERATIONAL_PERFORMER = "operational_performer"
    OPERATIONAL_ACTIVITY = "operational_activity"
    SERVICE = "service"
    RESOURCE_CONFIGURATION = "resource_configuration"
    RESOURCE_COMPONENT = "resource_component"
    FUNCTION = "function"
    ALGORITHM_BLOCK = "algorithm_block"


class Origin(_Token):
    REFERENCE_ASSET = "reference_asset"
    ADOPTED = "adopted"
    ADAPTED = "adapted"
    EXTENDED = "extended"


class TraceKind(_Token):
    EXHIBITS = "exhibits"
    MAPS_TO = "maps_to"
    PERFORMS = "performs"
    IMPLEMENTS = "implements"


_KIND_LAYER = {
    BlockKind.CAPABILITY: ConcernLayer.STRATEGIC,
    BlockKind.OPERATIONAL_PERFORMER: ConcernLayer.OPERATIONAL,
    BlockKind.OPERATIONAL_ACTIVITY: ConcernLayer.OPERATIONAL,
    BlockKind.SERVICE: ConcernLayer.SERVICE,
    BlockKind.RESOURCE_CONFIGURATION: ConcernLayer.RESOURCE,
    BlockKind.RESOURCE_COMPONENT: ConcernLayer.RESOURCE,
    BlockKind.FUNCTION: ConcernLayer.RESOURCE,
    BlockKind.ALGORITHM_BLOCK: ConcernLayer.RESOURCE,
}


def layer_for_kind(kind: BlockKind) -> ConcernLayer:
    """The single concern layer a block of this kind must live on."""
    return _KIND_LAYER[kind]


@dataclass(frozen=True)
class Port:
    """A typed interface point on a block; matching is nominal by token."""

    id: str
    direction: PortDirection
    interface_type: str
    layer: ConcernLayer

    def __post_init__(self):
        if not self.id:
            raise ValueError("port id must be non-empty")
        if not self.interface_type:
            raise ValueError(f"port '{self.id}': interface_type must be a non-empty token")


@dataclass(frozen=True)
class BuildingBlock:
    """A reusable, typed model element carrying ports, kept in id order, and flat parameters."""

    id: str
    name: str
    layer: ConcernLayer
    kind: BlockKind
    ports: tuple[Port, ...] = ()
    parameters: Mapping[str, Scalar] = field(default_factory=dict)
    origin: Origin = Origin.REFERENCE_ASSET

    def __post_init__(self):
        object.__setattr__(self, "ports", tuple(sorted(self.ports, key=_by_id)))
        object.__setattr__(self, "parameters", dict(self.parameters))
        if not self.id:
            raise ValueError("block id must be non-empty")
        for key, value in self.parameters.items():
            # The parameters are written as a JSON object of scalars, and must read back equal.
            if type(key) is not str:
                raise ValueError(f"block '{self.id}': parameter key {key!r} is not a string")
            if type(value) not in (str, int, float, bool):
                raise ValueError(f"block '{self.id}': parameter '{key}' is a {type(value).__name__}, not a scalar")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"block '{self.id}': parameter '{key}' must be finite, got {value}")
        if layer_for_kind(self.kind) is not self.layer:
            raise ValueError(
                f"block '{self.id}': kind {self.kind.value} belongs on layer "
                f"{layer_for_kind(self.kind).value}, not {self.layer.value}"
            )
        seen = set()
        for port in self.ports:
            if port.id in seen:
                raise ValueError(f"block '{self.id}': duplicate port id '{port.id}'")
            seen.add(port.id)
            if port.layer is not self.layer:
                raise ValueError(
                    f"block '{self.id}': port '{port.id}' is on layer {port.layer.value}, "
                    f"but ports must share the owning block's layer {self.layer.value}"
                )

    def find_port(self, port_id: str) -> Port | None:
        for port in self.ports:
            if port.id == port_id:
                return port
        return None

    def port_signature(self) -> tuple[tuple[str, str], ...]:
        """Sorted multiset of (direction, interface type); the plug-compatibility key."""
        return tuple(sorted((p.direction.value, p.interface_type) for p in self.ports))

    def _adopted(self) -> BuildingBlock:
        """This block marked as adopted, with its own copy of the parameters, so it never shares the asset's dict."""
        return _next_version(self, {"origin": Origin.ADOPTED, "parameters": dict(self.parameters)})


@dataclass(frozen=True)
class PortRef:
    """Address of one port: (block id, port id)."""

    block: str
    port: str

    def __post_init__(self):
        if type(self.block) is not str or type(self.port) is not str:
            raise _wrong_type(self, str, "block", "port")


@dataclass(frozen=True)
class Connection:
    """A wire from a provided port to a required port with equal interface types."""

    source: PortRef
    target: PortRef

    def __post_init__(self):
        if type(self.source) is not PortRef or type(self.target) is not PortRef:
            raise _wrong_type(self, PortRef, "source", "target")


@dataclass(frozen=True)
class TraceLink:
    """A cross-layer realization relation between two blocks."""

    kind: TraceKind
    source: str
    target: str

    def __post_init__(self):
        if type(self.kind) is not TraceKind:
            raise _wrong_type(self, TraceKind, "kind")
        if type(self.source) is not str or type(self.target) is not str:
            raise _wrong_type(self, str, "source", "target")


# Permitted (source layer, target layer, kind) triples for trace links.
PERMITTED_TRACE_PAIRS = frozenset(
    {
        (ConcernLayer.OPERATIONAL, ConcernLayer.STRATEGIC, TraceKind.EXHIBITS),
        (ConcernLayer.RESOURCE, ConcernLayer.STRATEGIC, TraceKind.EXHIBITS),
        (ConcernLayer.SERVICE, ConcernLayer.STRATEGIC, TraceKind.MAPS_TO),
        (ConcernLayer.OPERATIONAL, ConcernLayer.OPERATIONAL, TraceKind.PERFORMS),
        (ConcernLayer.RESOURCE, ConcernLayer.RESOURCE, TraceKind.PERFORMS),
        (ConcernLayer.RESOURCE, ConcernLayer.SERVICE, TraceKind.IMPLEMENTS),
        (ConcernLayer.SERVICE, ConcernLayer.OPERATIONAL, TraceKind.IMPLEMENTS),
    }
)


def trace_pair_permitted(source: ConcernLayer, target: ConcernLayer, kind: TraceKind) -> bool:
    return (source, target, kind) in PERMITTED_TRACE_PAIRS


class _Log(dict):
    """Append-only entries, in insertion order, shared by the versions of one lineage.

    `positions` (key to position) is built when an older version is first read,
    `targets` (required port to its first connection) on the lineage's first `connect`;
    after that, each append keeps both up to date.
    """

    positions = targets = None

    def holds(self, key, length: int) -> bool:
        """Whether the version of this length, shorter than the log, holds the key."""
        if self.positions is None:
            self.positions = dict(zip(self, count()))
        return self.positions.get(key, length) < length


class _Version:
    """The first `length` entries of a `_Log`; only the newest, as long as the log, appends in place."""

    __slots__ = ("_log", "_len")

    def __init__(self, log: _Log, length: int):
        self._log, self._len = log, length

    def __len__(self):
        return self._len

    def __contains__(self, key):
        log = self._log
        return key in log if self._len == len(log) else log.holds(key, self._len)

    def __iter__(self):
        # A snapshot, so that a write inside the loop cannot change what it walks.
        return iter(list(islice(self._log, self._len)))

    def _entries(self) -> dict:
        """This version's entries: the log itself for the newest version, else a copy."""
        log = self._log
        return log if self._len == len(log) else dict(islice(log.items(), self._len))

    def appended(self, key, value=None):
        """This version plus one entry, or itself if it holds the key; an older version copies first."""
        if self._len < len(self._log) and key in self:
            return self
        log = self._log if self._len == len(self._log) else _Log(islice(self._log.items(), self._len))
        # One hash of the key on the newest version: setdefault grows the log only if the key is new.
        log.setdefault(key, value)
        if len(log) == self._len:
            return self
        if log.positions is not None:
            log.positions[key] = self._len
        if log.targets is not None:
            log.targets.setdefault(key.target, key)
        return type(self)(log, self._len + 1)


class _Map(_Version, Mapping):
    """A read-only mapping over one version of a log; `values()` and `items()` return list snapshots."""

    __slots__ = ()

    def __getitem__(self, key):
        log = self._log
        if self._len == len(log) or log.holds(key, self._len):
            return log[key]
        raise KeyError(key)

    def values(self) -> list:
        return list(self._entries().values())

    def items(self) -> list:
        return list(self._entries().items())

    def __repr__(self):
        return repr(self._entries())


class _Set(_Version, Set):
    """A read-only set over one version of a log; `|`, `&`, `-` and `^` return frozensets."""

    __slots__ = ()
    _from_iterable = frozenset

    def binds(self, target: PortRef) -> bool:
        """For a set of connections: whether one of them feeds the required port `target`."""
        log = self._log
        if log.targets is None:
            log.targets = {conn.target: conn for conn in reversed(log)}
        first = log.targets.get(target)
        return first is not None and first in self

    def __repr__(self):
        return repr(frozenset(self))


def _map_by_id(entries: Mapping, owner: str, what: str) -> _Map:
    """A `_Map` as it is, else a new log of the entries, whose keys must be their values' ids."""
    if isinstance(entries, _Map):
        return entries
    log = _Log(entries)
    for key, value in log.items():
        if key != value.id:
            raise ValueError(f"{owner} '{key}' does not match {what} '{value.id}'")
    return _Map(log, len(log))


def _set_of(items) -> _Set:
    """A `_Set` as it is, else a new log of the items."""
    if isinstance(items, _Set):
        return items
    log = _Log.fromkeys(items)
    return _Set(log, len(log))


@dataclass(frozen=True)
class Model:
    """An identified set of blocks plus the connections and traces between them."""

    id: str
    blocks: Mapping[str, BuildingBlock] = field(default_factory=dict)
    connections: Set[Connection] = frozenset()
    traces: Set[TraceLink] = frozenset()
    # Values computed from this version by the modules that read it, kept out of ==, repr and the JSON.
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if type(self.id) is not str:
            raise _wrong_type(self, str, "id")
        object.__setattr__(self, "blocks", _map_by_id(self.blocks, f"model '{self.id}': key", "block id"))
        object.__setattr__(self, "connections", _set_of(self.connections))
        object.__setattr__(self, "traces", _set_of(self.traces))

    def _next(self, name: str, value) -> Model:
        """The next version: this model with the field `name` set to `value`, which is already valid, and an empty
        `_derived` of its own."""
        return _next_version(self, {name: value, "_derived": {}})

    def block(self, block_id: str) -> BuildingBlock:
        try:
            return self.blocks[block_id]
        except KeyError:
            raise UnknownElement(f"model '{self.id}' has no block '{block_id}'") from None

    def port(self, ref: PortRef) -> Port | None:
        block = self.blocks.get(ref.block)
        return block.find_port(ref.port) if block else None

    def sorted_blocks(self) -> list[BuildingBlock]:
        return sorted(self.blocks.values(), key=_by_id)

    def sorted_connections(self) -> list[Connection]:
        return sorted(self.connections, key=connection_key)

    def sorted_traces(self) -> list[TraceLink]:
        return sorted(self.traces, key=trace_key)


def _next_version(prev, changes: dict):
    """`prev` with `changes` (field name to value), which are already valid, built without re-checking them or its
    other fields: its fields are copied and the changes merged in, one dict built."""
    new = object.__new__(type(prev))
    object.__setattr__(new, "__dict__", prev.__dict__ | changes)
    return new


def connection_key(conn: Connection) -> tuple[str, str, str, str]:
    return (conn.source.block, conn.source.port, conn.target.block, conn.target.port)


def trace_key(link: TraceLink) -> tuple[str, str, str]:
    return (link.kind.value, link.source, link.target)


def add_block(model: Model, block: BuildingBlock) -> Model:
    """Return the model with one more block.

    Raises DuplicateId if the block's id is already taken.
    """
    blocks = model.blocks.appended(block.id, block)
    if blocks is model.blocks:
        raise DuplicateId(f"model '{model.id}' already contains block '{block.id}'")
    return model._next("blocks", blocks)


def port_compatible(provided: Port, required: Port) -> bool:
    """True iff the pair can be wired: provided->required with equal type tokens."""
    return (
        provided.direction is PortDirection.PROVIDED
        and required.direction is PortDirection.REQUIRED
        and provided.interface_type == required.interface_type
    )


def add_trace(model: Model, link: TraceLink) -> Model:
    """Return the model with one more trace link.

    The link is accepted only if both endpoints exist and the
    (source layer, target layer, kind) triple is in the permitted table.
    """
    source = model.block(link.source)
    target = model.block(link.target)
    if not trace_pair_permitted(source.layer, target.layer, link.kind):
        raise IllegalTraceKind(
            f"{link.kind.value} from {source.layer.value} to {target.layer.value} is not permitted"
        )
    return model._next("traces", model.traces.appended(link))
