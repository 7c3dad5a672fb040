"""Configuration assembly and analysis over typed block models.

Covers wiring of provided/required ports, pattern application by merge,
structural validation, alternative enumeration against a repository,
traceability queries, capability coverage, viewpoint-filtered views, and
DOT export of views and trace trees.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Iterator, Mapping

from .core import (
    Aspect,
    BlockKind,
    BuildingBlock,
    ConcernLayer,
    Connection,
    Model,
    Port,
    PortDirection,
    PortRef,
    TraceKind,
    TraceLink,
    _by_id,
    _wrong_type,
    connection_key,
    port_compatible,
    trace_key,
    trace_pair_permitted,
)
from .errors import (
    AlreadyBound,
    AnchorKindMismatch,
    AnchorUnbound,
    DuplicateId,
    InvalidViewpoint,
    MergeConflict,
    TypeMismatch,
    UnknownElement,
)

if TYPE_CHECKING:
    from .repository import ReferenceRepository


@dataclass(frozen=True)
class PatternAnchor:
    """A block id the pattern expects to find in the target model."""

    id: str
    layer: ConcernLayer
    kind: BlockKind

    def __post_init__(self):
        if type(self.id) is not str:
            raise _wrong_type(self, str, "id")
        if type(self.layer) is not ConcernLayer:
            raise _wrong_type(self, ConcernLayer, "layer")
        if type(self.kind) is not BlockKind:
            raise _wrong_type(self, BlockKind, "kind")


@dataclass(frozen=True)
class Pattern:
    """A self-contained sub-model template, applied to a model by merge; blocks and anchors in id order."""

    id: str
    blocks: tuple[BuildingBlock, ...] = ()
    connections: frozenset[Connection] = frozenset()
    traces: frozenset[TraceLink] = frozenset()
    anchors: tuple[PatternAnchor, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(sorted(self.blocks, key=_by_id)))
        object.__setattr__(self, "connections", frozenset(self.connections))
        object.__setattr__(self, "traces", frozenset(self.traces))
        object.__setattr__(self, "anchors", tuple(sorted(self.anchors, key=_by_id)))
        block_ids, anchor_ids = set(), set()
        for block in self.blocks:
            if block.id in block_ids:
                raise ValueError(f"pattern '{self.id}': duplicate block id '{block.id}'")
            block_ids.add(block.id)
        for anchor in self.anchors:
            if anchor.id in anchor_ids:
                raise ValueError(f"pattern '{self.id}': duplicate anchor id '{anchor.id}'")
            if anchor.id in block_ids:
                raise ValueError(f"pattern '{self.id}': anchor id '{anchor.id}' clashes with a block id")
            anchor_ids.add(anchor.id)
        known = block_ids | anchor_ids
        connections = sorted(self.connections, key=connection_key)
        traces = sorted(self.traces, key=trace_key)
        endpoints = [("connection", ref.block) for conn in connections for ref in (conn.source, conn.target)]
        endpoints += [("trace", end) for link in traces for end in (link.source, link.target)]
        for what, endpoint in endpoints:
            if endpoint not in known:
                raise ValueError(
                    f"pattern '{self.id}': {what} endpoint '{endpoint}' is neither a "
                    f"pattern block nor an anchor"
                )

    def anchor_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.anchors)


@dataclass(frozen=True)
class Viewpoint:
    """A (subject layer, aspect) lens onto a model."""

    subject: ConcernLayer
    aspect: Aspect
    name: str = ""


@dataclass(frozen=True)
class View:
    """The model subset a viewpoint selects: elements plus induced relations."""

    viewpoint: Viewpoint
    elements: tuple[str, ...]
    connections: tuple[Connection, ...] = ()
    traces: tuple[TraceLink, ...] = ()


class CoverageStatus(Enum):
    COVERED = "covered"
    PARTIALLY_COVERED = "partially_covered"
    UNCOVERED = "uncovered"


@dataclass(frozen=True)
class CapabilityCoverage:
    capability_id: str
    status: CoverageStatus
    witnesses: tuple[tuple[str, ...], ...] = ()


@dataclass(frozen=True)
class CoverageReport:
    """Per-capability coverage statuses with witness trace chains."""

    entries: tuple[CapabilityCoverage, ...]


@dataclass(frozen=True)
class ValidationReport:
    """Findings from structural validation; the model is valid iff all lists are empty."""

    unbound_required: tuple[str, ...] = ()
    multiply_bound: tuple[str, ...] = ()
    type_mismatches: tuple[str, ...] = ()
    illegal_traces: tuple[str, ...] = ()
    dangling: tuple[str, ...] = ()

    @property
    def is_valid(self) -> bool:
        return not any(getattr(self, name) for name, _ in _FINDINGS)

    def findings(self) -> list[str]:
        return [f"{label}: {finding}" for name, label in _FINDINGS for finding in getattr(self, name)]


# The ValidationReport fields, in the order findings() prints them, each with its label.
_FINDINGS = (
    ("unbound_required", "unbound required port"),
    ("multiply_bound", "multiply bound required port"),
    ("type_mismatches", "type mismatch"),
    ("illegal_traces", "illegal trace"),
    ("dangling", "dangling reference"),
)


class TraceDirection(Enum):
    UP = "up"
    DOWN = "down"


@dataclass(frozen=True, eq=False, repr=False)
class TraceNode:
    """One node of a trace tree; `link` is the kind of the edge that led here.

    Equality, hash and repr read the tree's pre-order (depth, block id, link)
    rows, so they do not recurse on deep trees.
    """

    block_id: str
    link: TraceKind | None
    children: tuple["TraceNode", ...] = ()

    def _rows(self) -> tuple[tuple[int, str, TraceKind | None], ...]:
        return tuple((depth, node.block_id, node.link) for depth, node in self.walk())

    def __eq__(self, other):
        if not isinstance(other, TraceNode):
            return NotImplemented
        return self._rows() == other._rows()

    def __hash__(self):
        return hash(self._rows())

    def __repr__(self):
        return f"TraceNode({self._rows()!r})"

    def walk(self) -> Iterator[tuple[int, "TraceNode"]]:
        """Yield (depth, node) for every node of the tree in pre-order, root at depth 0."""
        stack = [(0, self)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            stack.extend((depth + 1, child) for child in reversed(node.children))

    def node_ids(self) -> list[str]:
        return [node.block_id for _, node in self.walk()]


def connect(model: Model, provided_ref: PortRef, required_ref: PortRef) -> Model:
    """Wire a provided port to a required port, returning the new model.

    Raises UnknownElement for missing endpoints, TypeMismatch when the ports
    are not compatible, and AlreadyBound when the required port already has a
    provider.
    """
    provided = _resolve_port(model, provided_ref)
    required = _resolve_port(model, required_ref)
    if not port_compatible(provided, required):
        raise TypeMismatch(
            f"{provided_ref.block}:{provided_ref.port} ({provided.direction.value} "
            f"'{provided.interface_type}') cannot feed {required_ref.block}:{required_ref.port} "
            f"({required.direction.value} '{required.interface_type}')"
        )
    if model.connections.binds(required_ref):
        raise AlreadyBound(f"required port {required_ref.block}:{required_ref.port} is already bound")
    connection = Connection(source=provided_ref, target=required_ref)
    return model._next("connections", model.connections.appended(connection))


def _resolve_port(model: Model, ref: PortRef) -> Port:
    block = model.block(ref.block)
    port = block.find_port(ref.port)
    if port is None:
        raise UnknownElement(f"block '{ref.block}' has no port '{ref.port}'")
    return port


def apply_pattern(
    model: Model,
    pattern: Pattern,
    anchor_bindings: Mapping[str, str] | None = None,
    *,
    force_theirs: bool = False,
) -> Model:
    """Merge a pattern into the model, substituting anchors per the bindings.

    The result is the union of model and pattern content. A pattern block
    whose id already exists in the model is deduplicated when equal and a
    MergeConflict otherwise; ``force_theirs`` replaces the model's element
    instead. Application is idempotent.
    """
    bindings = dict(anchor_bindings or {})
    unknown = set(bindings) - set(pattern.anchor_ids())
    if unknown:
        raise ValueError(f"bindings name unknown anchors: {sorted(unknown)}")
    substitution: dict[str, str] = {}
    for anchor in pattern.anchors:
        if anchor.id not in bindings:
            raise AnchorUnbound(f"pattern '{pattern.id}': anchor '{anchor.id}' is unbound")
        target_id = bindings[anchor.id]
        target = model.blocks.get(target_id)
        if target is None:
            raise AnchorUnbound(
                f"pattern '{pattern.id}': anchor '{anchor.id}' is bound to missing block '{target_id}'"
            )
        if target.layer is not anchor.layer or target.kind is not anchor.kind:
            raise AnchorKindMismatch(
                f"anchor '{anchor.id}' expects {anchor.layer.value}/{anchor.kind.value}, "
                f"but '{target_id}' is {target.layer.value}/{target.kind.value}"
            )
        substitution[anchor.id] = target_id

    blocks = dict(model.blocks.items())
    for block in pattern.blocks:
        if blocks.get(block.id, block) != block and not force_theirs:
            raise MergeConflict(f"block '{block.id}' already exists with different content")
        blocks[block.id] = block
    connections, traces = _relinked(pattern, substitution, {})
    return replace(
        model, blocks=blocks, connections=model.connections | connections, traces=model.traces | traces
    )


def _relinked(
    links: Model | Pattern, block_ids: Mapping[str, str], port_ids: Mapping[str, str]
) -> tuple[frozenset[Connection], frozenset[TraceLink]]:
    """The connections and traces with each block in `block_ids` renamed, and its ports per `port_ids`."""

    def ref(old: PortRef) -> PortRef:
        if old.block not in block_ids:
            return old
        return PortRef(block_ids[old.block], port_ids.get(old.port, old.port))

    def block(old: str) -> str:
        return block_ids.get(old, old)

    connections = frozenset(Connection(ref(c.source), ref(c.target)) for c in links.connections)
    return connections, frozenset(TraceLink(t.kind, block(t.source), block(t.target)) for t in links.traces)


def validate_configuration(model: Model) -> ValidationReport:
    """Check interface wiring and trace legality; total, never raises."""
    found: dict[str, list[str]] = {name: [] for name, _ in _FINDINGS}
    bound_count: dict[PortRef, int] = {}
    for conn in model.sorted_connections():
        source = model.port(conn.source)
        target = model.port(conn.target)
        for ref, port in ((conn.source, source), (conn.target, target)):
            if ref.block not in model.blocks:
                found["dangling"].append(f"connection endpoint block '{ref.block}' does not exist")
            elif port is None:
                found["dangling"].append(f"connection endpoint port '{ref.block}:{ref.port}' does not exist")
        if source is None or target is None:
            continue
        if not port_compatible(source, target):
            found["type_mismatches"].append(
                f"{conn.source.block}:{conn.source.port} ({source.direction.value} "
                f"'{source.interface_type}') -> {conn.target.block}:{conn.target.port} "
                f"({target.direction.value} '{target.interface_type}')"
            )
        bound_count[conn.target] = bound_count.get(conn.target, 0) + 1

    for block in model.sorted_blocks():
        for port in block.ports:
            if port.direction is not PortDirection.REQUIRED:
                continue
            ref = PortRef(block.id, port.id)
            count = bound_count.get(ref, 0)
            if count == 0:
                found["unbound_required"].append(f"{block.id}:{port.id} ('{port.interface_type}')")
            elif count > 1:
                found["multiply_bound"].append(f"{block.id}:{port.id} bound {count} times")

    for link in model.sorted_traces():
        source = model.blocks.get(link.source)
        target = model.blocks.get(link.target)
        if source is None or target is None:
            missing = link.source if source is None else link.target
            found["dangling"].append(f"trace endpoint block '{missing}' does not exist")
            continue
        if not trace_pair_permitted(source.layer, target.layer, link.kind):
            found["illegal_traces"].append(
                f"{link.kind.value} {link.source} ({source.layer.value}) -> "
                f"{link.target} ({target.layer.value})"
            )
    return ValidationReport(**{name: tuple(items) for name, items in found.items()})


def replacement_blocks(model: Model, repo: "ReferenceRepository", slot: str) -> list[BuildingBlock]:
    """The repository's block assets that can fill the slot, each as its adopted block.

    Plug-compatibility means equal layer, kind, and port signature. The slot
    block itself is element 0 when it equals one of the assets, the rest follow
    in id order, and with no matching assets the list holds only the slot block.
    """
    slot_block = model.block(slot)
    signature = (slot_block.layer, slot_block.kind, slot_block.port_signature())
    blocks: list[BuildingBlock] = []
    for asset in repo.block_assets():
        candidate = asset.block
        if (candidate.layer, candidate.kind, candidate.port_signature()) != signature:
            continue
        replacement = candidate._adopted()
        # An equal block maps each port to itself, so swapping it in would change nothing.
        if replacement.id == slot and replacement == slot_block:
            blocks.insert(0, slot_block)
        elif replacement.id != slot and replacement.id in model.blocks:
            raise DuplicateId(f"cannot swap '{slot}' for '{replacement.id}': id already present in model")
        else:
            blocks.append(replacement)
    # block_assets() is in id order, so the alternatives are too.
    return blocks or [slot_block]


def enumerate_alternatives(model: Model, repo: "ReferenceRepository", slot: str) -> list[Model]:
    """One model per block of replacement_blocks: that block swapped into the slot, or the model itself."""
    return [m for _, m in enumerate_alternatives_with_slots(model, repo, slot)]


def enumerate_alternatives_with_slots(
    model: Model, repo: "ReferenceRepository", slot: str
) -> list[tuple[str, Model]]:
    """Like enumerate_alternatives, but pairs each model with its slot block id."""
    blocks = replacement_blocks(model, repo, slot)
    slot_block = model.blocks[slot]
    return [(block.id, model if block is slot_block else _swap_block(model, slot, block)) for block in blocks]


def _swap_block(model: Model, slot: str, replacement: BuildingBlock) -> Model:
    """Replace the slot block with the replacement, rewiring incident references."""
    blocks = dict(model.blocks.items())
    del blocks[slot]
    blocks[replacement.id] = replacement
    port_ids = _match_ports(model.blocks[slot], replacement)
    connections, traces = _relinked(model, {slot: replacement.id}, port_ids)
    return replace(model, blocks=blocks, connections=connections, traces=traces)


def _match_ports(old: BuildingBlock, new: BuildingBlock) -> dict[str, str]:
    """Map old port ids onto new ones with the same (direction, type), both taken in id order."""
    groups: dict[tuple[PortDirection, str], list[str]] = {}
    for port in new.ports:
        groups.setdefault((port.direction, port.interface_type), []).append(port.id)
    return {port.id: groups[(port.direction, port.interface_type)].pop(0) for port in old.ports}


def trace(model: Model, element_id: str, direction: TraceDirection) -> TraceNode:
    """Follow trace links from an element, up toward Strategic or down toward Resource.

    The result is a depth-first tree with unique nodes (cycle-safe): children
    are ordered by block id, and a block reachable along several paths
    appears once, under the first node that reaches it.
    """
    if element_id not in model.blocks:
        raise UnknownElement(f"model '{model.id}' has no block '{element_id}'")
    return _tree(_cached_steps(model, direction), element_id)


def _cached_steps(model: Model, direction: TraceDirection) -> dict[str, list[tuple[str, TraceKind]]]:
    """`_steps(model, direction)`, computed once per model version and kept on the version."""
    steps = model._derived.get(direction)
    if steps is None:
        steps = model._derived[direction] = _steps(model, direction)
    return steps


def _steps(model: Model, direction: TraceDirection) -> dict[str, list[tuple[str, TraceKind]]]:
    """One pass over the traces: per block, its sorted (next block, kind) pairs, blocks only."""
    up = direction is TraceDirection.UP
    steps: dict[str, list[tuple[str, TraceKind]]] = {}
    for link in model.traces:
        here, there = (link.source, link.target) if up else (link.target, link.source)
        if here in model.blocks and there in model.blocks:
            steps.setdefault(here, []).append((there, link.kind))
    for pairs in steps.values():
        pairs.sort(key=lambda step: (step[0], step[1].value))
    return steps


def _tree(steps: Mapping[str, list[tuple[str, TraceKind]]], root: str) -> TraceNode:
    """The depth-first trace tree from root, built without recursion.

    A block is marked when it is popped, so it hangs under the first node that
    reaches it. Nodes are built in reverse pre-order, each child before its parent.
    """
    order: list[tuple[str, TraceKind | None, int]] = []
    seen: set[str] = set()
    stack: list[tuple[str, TraceKind | None, int]] = [(root, None, -1)]
    while stack:
        block_id, kind, parent = stack.pop()
        if block_id in seen:
            continue
        seen.add(block_id)
        stack.extend((child, via, len(order)) for child, via in reversed(steps.get(block_id, ())))
        order.append((block_id, kind, parent))
    children: list[list[TraceNode]] = [[] for _ in order]
    for index in range(len(order) - 1, -1, -1):
        block_id, kind, parent = order[index]
        node = TraceNode(block_id=block_id, link=kind, children=tuple(reversed(children[index])))
        if parent >= 0:
            children[parent].append(node)
    return node


def capability_coverage(model: Model) -> CoverageReport:
    """Classify every capability by how far trace chains reach down the layers."""
    steps = _cached_steps(model, TraceDirection.DOWN)
    entries = []
    for block in model.sorted_blocks():
        if block.kind is not BlockKind.CAPABILITY:
            continue
        layers = set()
        path: list[str] = []
        witnesses = []
        for depth, node in _tree(steps, block.id).walk():
            del path[depth:]
            path.append(node.block_id)
            layer = model.blocks[node.block_id].layer
            if depth:
                layers.add(layer)
            if layer is ConcernLayer.RESOURCE:
                witnesses.append(tuple(path))
        if ConcernLayer.RESOURCE in layers:
            status = CoverageStatus.COVERED
        elif ConcernLayer.OPERATIONAL in layers or ConcernLayer.SERVICE in layers:
            status = CoverageStatus.PARTIALLY_COVERED
        else:
            status = CoverageStatus.UNCOVERED
        entries.append(
            CapabilityCoverage(capability_id=block.id, status=status, witnesses=tuple(witnesses))
        )
    return CoverageReport(entries=tuple(entries))


def viewpoint_valid(viewpoint: Viewpoint) -> bool:
    """Capability concerns carry no behavior, so (Strategic, Behavior) is invalid."""
    return not (
        viewpoint.subject is ConcernLayer.STRATEGIC and viewpoint.aspect is Aspect.BEHAVIOR
    )


# The trace kinds a view of each aspect shows; the aspects not listed show no traces.
_ASPECT_TRACE_KINDS = {
    Aspect.BEHAVIOR: frozenset({TraceKind.PERFORMS, TraceKind.IMPLEMENTS}),
    Aspect.REQUIREMENTS: frozenset({TraceKind.MAPS_TO, TraceKind.EXHIBITS}),
}


def extract_view(model: Model, viewpoint: Viewpoint) -> View:
    """Select the subject layer's blocks and the aspect-filtered relations among them."""
    if not viewpoint_valid(viewpoint):
        raise InvalidViewpoint(
            f"({viewpoint.subject.value}, {viewpoint.aspect.value}) is not a valid viewpoint"
        )
    element_set = {
        block.id for block in model.blocks.values() if block.layer is viewpoint.subject
    }
    if viewpoint.aspect is Aspect.PARAMETERS:
        element_set = {bid for bid in element_set if model.blocks[bid].parameters}
    connections: tuple[Connection, ...] = ()
    traces: tuple[TraceLink, ...] = ()
    if viewpoint.aspect is Aspect.STRUCTURE:
        connections = tuple(
            c
            for c in model.sorted_connections()
            if c.source.block in element_set and c.target.block in element_set
        )
    kinds = _ASPECT_TRACE_KINDS.get(viewpoint.aspect)
    if kinds:
        traces = tuple(
            t
            for t in model.sorted_traces()
            if t.kind in kinds and t.source in element_set and t.target in element_set
        )
    return View(
        viewpoint=viewpoint,
        elements=tuple(sorted(element_set)),
        connections=connections,
        traces=traces,
    )


def export_dot(item) -> str:
    """Render a View or a TraceNode tree as a deterministic DOT digraph."""
    if isinstance(item, View):
        return _view_dot(item)
    if isinstance(item, TraceNode):
        return _trace_dot(item)
    raise TypeError(f"cannot export {type(item).__name__} as DOT")


def _view_dot(view: View) -> str:
    edges = [
        (conn.source.block, conn.target.block, f"{conn.source.port}->{conn.target.port}", "")
        for conn in sorted(view.connections, key=connection_key)
    ]
    edges.extend(
        (link.source, link.target, link.kind.value, ", style=dashed")
        for link in sorted(view.traces, key=trace_key)
    )
    return _dot("view", view.elements, edges)


def _trace_dot(tree: TraceNode) -> str:
    nodes: list[str] = []
    edges: list[tuple[str, str, str, str]] = []
    path: list[str] = []
    for depth, node in tree.walk():
        del path[depth:]
        if path:
            edges.append((path[-1], node.block_id, node.link.value, ""))
        path.append(node.block_id)
        nodes.append(node.block_id)
    return _dot("trace", nodes, edges)


def _dot(graph: str, nodes, edges) -> str:
    """A DOT digraph: one line per node id, then one per (source, target, label, attrs) edge."""
    lines = [f"digraph {graph} {{"]
    lines.extend(f"  {_quoted(node)};" for node in nodes)
    lines.extend(
        f"  {_quoted(source)} -> {_quoted(target)} [label={_quoted(label)}{attrs}];"
        for source, target, label, attrs in edges
    )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _quoted(text: str) -> str:
    """A DOT quoted string; backslashes and double quotes are escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
