"""Independent reference implementations the planner, simulator and evaluator tests check against.

Deliberately different algorithms from the production code: plain flood fill
for reachability and a Dijkstra search over (position, visited-set) states for
the minimum coverage energy on tiny maps. The evaluator references keep the
separate per-function loops that compare, ensemble and rank_configurations
once had, so the shared evaluation core is checked against them. The
composition references are the recursive trace walks (tree, node ids, witness
chains, coverage, DOT and the CLI's indented text) that the one iterative
traversal replaced; they hold for trees shallower than the recursion limit.
The persistence references are the per-record JSON writers and readers that
the field tables replaced, so saved bytes and parse errors are checked
against them. The planner references are the two coverage loops with their
breadth-first and uniform-cost relocation searches, the consumption check
and the battery recurrence with a per-step charge lookup, that the one
coverage loop over the map's move table and the single-pass simulation
replaced; paths, consumption and remaining-charge series are checked against
them for equality, and the move table against one rebuilt from neighbors and
step_factor. The terrain references are the per-point value noise and the
flood fill over position sets that the lattice-cached noise field and the
flat-index components replaced; generated cells and the noise field are
checked against them for equality. The model-write references are the
copy-on-write add_block, add_trace, connect and add_asset that copied the
whole model or repository on every write, before versions shared one
append-only store; random write sequences against any version are checked
against them. The composition-rule references are validate_configuration,
extract_view, apply_pattern and the block swap behind
enumerate_alternatives_with_slots as they stood before each of their rules
(findings, aspect kinds, link rewrite) was stated once; seeded models,
patterns and swaps are checked against them for equal results or equal errors.
"""

from __future__ import annotations

import heapq
import json
import random
from collections import deque
from dataclasses import replace
from typing import Any, Mapping

from refmodel import terrain
from refmodel.composition import (
    CapabilityCoverage,
    CoverageReport,
    CoverageStatus,
    Pattern,
    PatternAnchor,
    TraceDirection,
    TraceNode,
    ValidationReport,
    View,
    Viewpoint,
    viewpoint_valid,
)
from refmodel.core import (
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
    connection_key,
    port_compatible,
    trace_key,
    trace_pair_permitted,
)
from refmodel.errors import (
    AlreadyBound,
    AnchorKindMismatch,
    AnchorUnbound,
    DuplicateId,
    IllegalTraceKind,
    InvalidPath,
    InvalidViewpoint,
    MergeConflict,
    NoAlternatives,
    ParseError,
    SchemaVersionMismatch,
    StartBlocked,
    TypeMismatch,
    UnknownElement,
)
from refmodel.evaluator import ComparisonReport, EnsembleStats, PlannerStats, RankedConfiguration
from refmodel.planners import Path, resolve_planner
from refmodel.repository import (
    SCHEMA_VERSION,
    Asset,
    BlockAsset,
    PatternAsset,
    ReferenceRepository,
    ViewpointAsset,
)
from refmodel.simulation import SimParams, Termination, run
from refmodel.terrain import OBSTACLE, Position, TerrainMap, step_factor


def level(tmap: TerrainMap, pos: Position) -> int:
    """The elevation level of a free cell."""
    return tmap.cells[pos.row][pos.col]


def neighbors(tmap: TerrainMap, pos: Position) -> list[Position]:
    """Free 4-connected neighbors of a cell on the map, in N, E, S, W order."""
    row, col = pos
    around = (Position(row - 1, col), Position(row, col + 1), Position(row + 1, col), Position(row, col - 1))
    return [nxt for nxt in around if tmap.is_free(nxt)]


def flood_fill(tmap: TerrainMap, start: Position) -> set[Position]:
    seen = {start}
    queue = deque([start])
    while queue:
        row, col = queue.popleft()
        for nxt in (
            Position(row - 1, col),
            Position(row + 1, col),
            Position(row, col - 1),
            Position(row, col + 1),
        ):
            if tmap.is_free(nxt) and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def min_coverage_energy(tmap: TerrainMap, start: Position, factor: float = 1.0) -> float:
    """Exact minimum energy of any walk from start covering all reachable free cells.

    State space is (cell, bitmask of covered cells); only usable for a handful
    of free cells.
    """
    free = sorted(flood_fill(tmap, start))
    if len(free) > 16:
        raise ValueError("oracle is exponential; use maps with at most 16 free cells")
    index = {pos: i for i, pos in enumerate(free)}
    full = (1 << len(free)) - 1
    start_state = (index[start], 1 << index[start])
    dist = {start_state: 0.0}
    heap = [(0.0, *start_state)]
    while heap:
        cost, pos_i, mask = heapq.heappop(heap)
        if cost > dist.get((pos_i, mask), float("inf")):
            continue
        if mask == full:
            return cost
        pos = free[pos_i]
        for delta_r, delta_c in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nxt = Position(pos.row + delta_r, pos.col + delta_c)
            if not tmap.is_free(nxt):
                continue
            ni = index[nxt]
            ncost = cost + step_factor(level(tmap, pos), level(tmap, nxt)) * factor
            state = (ni, mask | (1 << ni))
            if ncost < dist.get(state, float("inf")):
                dist[state] = ncost
                heapq.heappush(heap, (ncost, *state))
    raise AssertionError("coverage walk must exist on a connected free set")


def _generate(gen, seed):
    return terrain.generate_map(gen.width, gen.height, gen.obstacle_density, seed, max_level=gen.max_level)


def compare(tmap, planners, start=None, params=None, map_label=""):
    if not planners:
        raise ValueError("compare needs at least one planner")
    params = params or SimParams()
    if start is None:
        start = tmap.first_free()
    runs = []
    for planner in planners:
        name, _ = resolve_planner(planner)
        runs.append((name, run(tmap, planner, start=start, params=params)))
    winner = min(
        range(len(runs)),
        key=lambda i: (
            runs[i][1].terminated is not Termination.PATH_COMPLETE,
            runs[i][1].total_consumed,
            i,
        ),
    )
    return ComparisonReport(
        map_label=map_label, start=start, params=params, runs=tuple(runs), winner=runs[winner][0]
    )


def ensemble(gen, n_maps, planners, params=None, seed0=0, start=None):
    if n_maps < 1:
        raise ValueError("ensemble needs at least one map")
    params = params or SimParams()
    names = [resolve_planner(p)[0] for p in planners]
    totals = [[] for _ in names]
    wins = [0] * len(names)
    for offset in range(n_maps):
        seed = seed0 + offset
        report = compare(_generate(gen, seed), planners, start=start, params=params)
        # Runs of a repeated planner tie, and a tie goes to the earlier position.
        wins[names.index(report.winner)] += 1
        for index, (_, result) in enumerate(report.runs):
            totals[index].append(result.total_consumed)
    per_planner = tuple(
        PlannerStats(
            planner=name,
            mean_total=sum(totals[index]) / len(totals[index]),
            min_total=min(totals[index]),
            max_total=max(totals[index]),
            wins=wins[index],
        )
        for index, name in enumerate(names)
    )
    return EnsembleStats(
        n_maps=n_maps, seed_start=seed0, seed_end=seed0 + n_maps - 1, per_planner=per_planner
    )


def rank_configurations(model, repo, slot, arena, params=None, start=None):
    if model.block(slot).kind is not BlockKind.ALGORITHM_BLOCK:
        raise NoAlternatives(f"slot '{slot}' is not an algorithm block")
    params = params or SimParams()
    ranked = []
    for block_id, alternative in enumerate_alternatives_with_slots(model, repo, slot):
        planner_name, _ = resolve_planner(alternative.blocks[block_id])
        score, completed = _score(planner_name, arena, params, start)
        ranked.append(
            RankedConfiguration(block_id=block_id, planner=planner_name, score=score, completed=completed)
        )
    ranked.sort(key=lambda r: (not r.completed, r.score, r.block_id))
    return ranked


def _score(planner, arena, params, start):
    if isinstance(arena, TerrainMap):
        result = run(arena, planner, start=start, params=params)
        return result.total_consumed, result.terminated is Termination.PATH_COMPLETE
    totals = []
    completed = True
    for offset in range(arena.n_maps):
        result = run(_generate(arena.gen, arena.seed0 + offset), planner, start=start, params=params)
        totals.append(result.total_consumed)
        completed = completed and result.terminated is Termination.PATH_COMPLETE
    return sum(totals) / len(totals), completed


def trace(model, element_id, direction):
    visited = {element_id}

    def expand(block_id, via):
        steps = []
        for link in model.traces:
            if direction is TraceDirection.UP and link.source == block_id:
                steps.append((link.target, link.kind))
            elif direction is TraceDirection.DOWN and link.target == block_id:
                steps.append((link.source, link.kind))
        children = []
        for child_id, kind in sorted(steps, key=lambda s: (s[0], s[1].value)):
            if child_id in visited or child_id not in model.blocks:
                continue
            visited.add(child_id)
            children.append(expand(child_id, kind))
        return TraceNode(block_id=block_id, link=via, children=tuple(children))

    return expand(element_id, None)


def node_ids(tree):
    out = [tree.block_id]
    for child in tree.children:
        out.extend(node_ids(child))
    return out


def witness_chains(model, tree):
    chains = []

    def walk(node, prefix):
        path = prefix + (node.block_id,)
        if model.blocks[node.block_id].layer is ConcernLayer.RESOURCE:
            chains.append(path)
        for child in node.children:
            walk(child, path)

    walk(tree, ())
    return chains


def capability_coverage(model):
    entries = []
    for block in model.sorted_blocks():
        if block.kind is not BlockKind.CAPABILITY:
            continue
        tree = trace(model, block.id, TraceDirection.DOWN)
        layers = {model.blocks[node_id].layer for node_id in node_ids(tree) if node_id != block.id}
        if ConcernLayer.RESOURCE in layers:
            status = CoverageStatus.COVERED
        elif ConcernLayer.OPERATIONAL in layers or ConcernLayer.SERVICE in layers:
            status = CoverageStatus.PARTIALLY_COVERED
        else:
            status = CoverageStatus.UNCOVERED
        entries.append(
            CapabilityCoverage(
                capability_id=block.id, status=status, witnesses=tuple(witness_chains(model, tree))
            )
        )
    return CoverageReport(entries=tuple(entries))


def view_dot(view: View):
    """The DOT text of a view, for ids and labels that need no escaping."""
    lines = ["digraph view {"]
    for element in view.elements:
        lines.append(f'  "{element}";')
    for conn in sorted(view.connections, key=connection_key):
        lines.append(
            f'  "{conn.source.block}" -> "{conn.target.block}" '
            f'[label="{conn.source.port}->{conn.target.port}"];'
        )
    for link in sorted(view.traces, key=trace_key):
        lines.append(f'  "{link.source}" -> "{link.target}" [label="{link.kind.value}", style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def trace_dot(tree):
    """The DOT text of a trace tree, for ids that need no escaping."""
    nodes = []
    edges = []

    def walk(node):
        nodes.append(node.block_id)
        for child in node.children:
            edges.append(f'  "{node.block_id}" -> "{child.block_id}" [label="{child.link.value}"];')
            walk(child)

    walk(tree)
    lines = ["digraph trace {"]
    lines.extend(f'  "{node}";' for node in nodes)
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def trace_text(tree):
    """What `refmodel trace` prints: one indented line per node, with the link kind."""
    lines = []

    def render(node, depth):
        label = f" ({node.link.value})" if node.link else ""
        lines.append("  " * depth + node.block_id + label)
        for child in node.children:
            render(child, depth + 1)

    render(tree, 0)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON persistence: the hand-written writer and reader of every record that the
# field tables in refmodel.repository replaced, kept unchanged as the reference.
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
    if type(found) is not int or found != SCHEMA_VERSION:
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


# ---------------------------------------------------------------------------
# Planners and simulation: the two coverage loops, the breadth-first and the
# uniform-cost relocation searches, the position-by-position consumption
# check and the battery recurrence with its per-step charge lookup that the
# one coverage loop, the move table and the single-pass simulation in
# refmodel replaced, kept unchanged as the reference.
# ---------------------------------------------------------------------------


def reachable_free(tmap: TerrainMap, start: Position) -> set[Position]:
    if not tmap.is_free(start):
        raise StartBlocked(f"start {tuple(start)} is not a free cell")
    return flood_fill(tmap, start)


def plan_edge_follow(tmap: TerrainMap, start: Position) -> Path:
    target = reachable_free(tmap, start)
    visited = {start}
    out = [start]
    pos = start
    heading = 1  # +1 sweeps east, -1 sweeps west
    while len(visited) < len(target):
        ahead = Position(pos.row, pos.col + heading)
        below = Position(pos.row + 1, pos.col)
        if tmap.is_free(ahead) and ahead not in visited:
            pos = ahead
        elif tmap.is_free(below) and below not in visited:
            pos = below
            heading = -heading
        else:
            hop = _bfs_relocation(tmap, pos, visited)
            for cell in hop:
                visited.add(cell)
                out.append(cell)
            pos = out[-1]
            continue
        visited.add(pos)
        out.append(pos)
    return Path(start=start, steps=tuple(out[1:]))


def _bfs_relocation(tmap: TerrainMap, pos: Position, visited: set[Position]) -> list[Position]:
    parents: dict[Position, Position] = {pos: pos}
    queue = deque([pos])
    while queue:
        current = queue.popleft()
        if current != pos and current not in visited:
            return _walk_back(parents, pos, current)
        for nxt in neighbors(tmap, current):
            if nxt not in parents:
                parents[nxt] = current
                queue.append(nxt)
    raise AssertionError("relocation called with no unvisited reachable cell")


def plan_terrain_aware(tmap: TerrainMap, start: Position) -> Path:
    target = reachable_free(tmap, start)
    visited = {start}
    out = [start]
    pos = start
    while len(visited) < len(target):
        best = None
        for index, nxt in enumerate(neighbors(tmap, pos)):
            if nxt in visited:
                continue
            factor = step_factor(level(tmap, pos), level(tmap, nxt))
            if best is None or (factor, index) < best[:2]:
                best = (factor, index, nxt)
        if best is not None:
            pos = best[2]
            visited.add(pos)
            out.append(pos)
        else:
            hop = _ucs_relocation(tmap, pos, visited)
            for cell in hop:
                visited.add(cell)
                out.append(cell)
            pos = out[-1]
    return Path(start=start, steps=tuple(out[1:]))


def _ucs_relocation(tmap: TerrainMap, pos: Position, visited: set[Position]) -> list[Position]:
    dist: dict[Position, float] = {pos: 0.0}
    parents: dict[Position, Position] = {pos: pos}
    heap: list[tuple[float, int, int]] = [(0.0, pos.row, pos.col)]
    settled: set[Position] = set()
    while heap:
        cost, row, col = heapq.heappop(heap)
        current = Position(row, col)
        if current in settled:
            continue
        settled.add(current)
        if current != pos and current not in visited:
            return _walk_back(parents, pos, current)
        for nxt in neighbors(tmap, current):
            step = step_factor(level(tmap, current), level(tmap, nxt))
            candidate = cost + step
            if nxt not in dist or candidate < dist[nxt]:
                dist[nxt] = candidate
                parents[nxt] = current
                heapq.heappush(heap, (candidate, nxt.row, nxt.col))
    raise AssertionError("relocation called with no unvisited reachable cell")


def _walk_back(parents: dict[Position, Position], origin: Position, end: Position) -> list[Position]:
    path = [end]
    current = end
    while current != origin:
        current = parents[current]
        path.append(current)
    path.reverse()
    return path[1:]


def power_consumption(path: Path, tmap: TerrainMap, consumption_factor: float = 1.0) -> list[float]:
    positions = path.positions
    for pos in positions:
        if not tmap.is_free(pos):
            raise InvalidPath(f"position {tuple(pos)} is not a free cell")
    out = []
    for here, there in zip(positions, positions[1:]):
        if abs(here.row - there.row) + abs(here.col - there.col) != 1:
            raise InvalidPath(f"{tuple(here)} -> {tuple(there)} is not a 4-adjacent move")
        out.append(step_factor(level(tmap, here), level(tmap, there)) * consumption_factor)
    return out


def power_state(params: SimParams, consumption) -> tuple[list[float], Termination]:
    """The battery recurrence with a per-step charge lookup that adds 0.0 past the charging series."""
    remaining = []
    charge = params.capacity
    for t, consumed in enumerate(consumption):
        candidate = charge - consumed + (params.charging[t] if t < len(params.charging) else 0.0)
        if candidate < 0:
            return remaining, Termination.BATTERY_DEPLETED
        remaining.append(candidate)
        charge = candidate
    return remaining, Termination.PATH_COMPLETE


def move_table(tmap: TerrainMap) -> tuple:
    """TerrainMap.moves rebuilt cell by cell from neighbors and step_factor."""
    return tuple(
        tuple(
            (nxt.row * tmap.width + nxt.col, step_factor(level(tmap, pos), level(tmap, nxt)))
            for nxt in neighbors(tmap, pos)
        )
        if tmap.is_free(pos)
        else None
        for pos in (Position(r, c) for r in range(tmap.height) for c in range(tmap.width))
    )


# ---------------------------------------------------------------------------
# Terrain generation: the per-point value noise, evaluated four lattice hashes
# per cell per octave, and the flood fill over position sets that the
# lattice-cached noise field and the flat-index components replaced.
# ---------------------------------------------------------------------------


def generate_map(width: int, height: int, obstacle_density: float, seed: int, *, max_level: int = 3) -> TerrainMap:
    scale = 0.35
    raw = [[fbm(c * scale, r * scale, seed, octaves=3) for c in range(width)] for r in range(height)]
    lo = min(min(row) for row in raw)
    hi = max(max(row) for row in raw)
    span = hi - lo

    def quantize(value: float) -> int:
        if max_level == 0 or span <= 0.0:
            return 0
        return min(max_level, int((value - lo) / span * (max_level + 1)))

    levels = [[quantize(v) for v in row] for row in raw]
    rng = random.Random(seed)
    cells = [
        [OBSTACLE if rng.random() < obstacle_density else levels[r][c] for c in range(width)]
        for r in range(height)
    ]
    if all(value == OBSTACLE for row in cells for value in row):
        cells[0][0] = levels[0][0]
    _carve_connected(cells, levels)
    return TerrainMap(cells=tuple(tuple(row) for row in cells))


def _carve_connected(cells: list[list[int]], levels: list[list[int]]):
    components = _free_components(cells)
    if len(components) <= 1:
        return
    components.sort(key=lambda comp: (-len(comp), min(comp)))
    main_row, main_col = min(components[0])
    for comp in components[1:]:
        r, c = min(comp)
        while r != main_row:
            r += 1 if main_row > r else -1
            if cells[r][c] == OBSTACLE:
                cells[r][c] = levels[r][c]
        while c != main_col:
            c += 1 if main_col > c else -1
            if cells[r][c] == OBSTACLE:
                cells[r][c] = levels[r][c]


def _free_components(cells: list[list[int]]) -> list[set[Position]]:
    seen: set[Position] = set()
    components = []
    for r, row in enumerate(cells):
        for c, value in enumerate(row):
            if value == OBSTACLE or (r, c) in seen:
                continue
            comp = _connected_free(cells, Position(r, c))
            seen |= comp
            components.append(comp)
    return components


def _connected_free(cells: list[list[int]], start: Position) -> set[Position]:
    height, width = len(cells), len(cells[0])
    seen = {start}
    stack = [start]
    while stack:
        row, col = stack.pop()
        for dr, dc in ((-1, 0), (0, 1), (1, 0), (0, -1)):
            nr, nc = row + dr, col + dc
            if 0 <= nr < height and 0 <= nc < width and cells[nr][nc] != OBSTACLE and (nr, nc) not in seen:
                nxt = Position(nr, nc)
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _hash2(x: int, y: int, seed: int) -> int:
    n = (x * 0x1F1F1F1F) ^ (y * 0x5F356495) ^ (seed & 0xFFFFFFFF)
    n &= 0xFFFFFFFF
    n ^= n >> 13
    n = (n * 0x85EBCA6B) & 0xFFFFFFFF
    n ^= n >> 16
    return n


def _value_at(ix: int, iy: int, seed: int) -> float:
    return (_hash2(ix, iy, seed) % 1000003) / 1000003.0


def _smoothstep(t: float) -> float:
    return t * t * (3.0 - 2.0 * t)


def _lerp(a: float, b: float, t: float) -> float:
    return a + (b - a) * t


def value_noise(x: float, y: float, seed: int) -> float:
    ix, iy = int(x // 1), int(y // 1)
    fx, fy = x - ix, y - iy
    v00 = _value_at(ix, iy, seed)
    v10 = _value_at(ix + 1, iy, seed)
    v01 = _value_at(ix, iy + 1, seed)
    v11 = _value_at(ix + 1, iy + 1, seed)
    sx, sy = _smoothstep(fx), _smoothstep(fy)
    return _lerp(_lerp(v00, v10, sx), _lerp(v01, v11, sx), sy)


def fbm(x: float, y: float, seed: int, octaves: int, persistence: float = 0.5, lacunarity: float = 2.0) -> float:
    amp, freq, total, norm = 1.0, 1.0, 0.0, 0.0
    for octave in range(octaves):
        total += value_noise(x * freq, y * freq, seed + octave) * amp
        norm += amp
        amp *= persistence
        freq *= lacunarity
    return total / norm


# ---------------------------------------------------------------------------
# Model writes: the copy-on-write writes that copied the whole model or
# repository each time, kept unchanged as the reference for the shared store.
# ---------------------------------------------------------------------------


def add_block(model: Model, block: BuildingBlock) -> Model:
    if block.id in model.blocks:
        raise DuplicateId(f"model '{model.id}' already contains block '{block.id}'")
    blocks = dict(model.blocks)
    blocks[block.id] = block
    return replace(model, blocks=blocks)


def add_trace(model: Model, link: TraceLink) -> Model:
    source = model.block(link.source)
    target = model.block(link.target)
    if not trace_pair_permitted(source.layer, target.layer, link.kind):
        raise IllegalTraceKind(
            f"{link.kind.value} from {source.layer.value} to {target.layer.value} is not permitted"
        )
    return replace(model, traces=model.traces | {link})


def connect(model: Model, provided_ref: PortRef, required_ref: PortRef) -> Model:
    provided = _resolve_port(model, provided_ref)
    required = _resolve_port(model, required_ref)
    if not port_compatible(provided, required):
        raise TypeMismatch(
            f"{provided_ref.block}:{provided_ref.port} ({provided.direction.value} "
            f"'{provided.interface_type}') cannot feed {required_ref.block}:{required_ref.port} "
            f"({required.direction.value} '{required.interface_type}')"
        )
    for conn in model.connections:
        if conn.target == required_ref:
            raise AlreadyBound(
                f"required port {required_ref.block}:{required_ref.port} is already bound"
            )
    connection = Connection(source=provided_ref, target=required_ref)
    return replace(model, connections=model.connections | {connection})


def _resolve_port(model: Model, ref: PortRef) -> Port:
    block = model.block(ref.block)
    port = block.find_port(ref.port)
    if port is None:
        raise UnknownElement(f"block '{ref.block}' has no port '{ref.port}'")
    return port


def add_asset(repo: ReferenceRepository, asset: Asset) -> ReferenceRepository:
    if asset.id in repo.assets:
        raise DuplicateId(f"repository already contains asset '{asset.id}'")
    assets = dict(repo.assets)
    assets[asset.id] = asset
    return ReferenceRepository(assets=assets, version=repo.version + 1)


# ---------------------------------------------------------------------------
# Composition rules: validation with one list and one line per finding kind,
# views with one branch per aspect, and the pattern merge and block swap with
# their own rename closures, kept unchanged as the reference.
# ---------------------------------------------------------------------------


def apply_pattern(
    model: Model,
    pattern: Pattern,
    anchor_bindings: Mapping[str, str] | None = None,
    *,
    force_theirs: bool = False,
) -> Model:
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

    def sub(block_id: str) -> str:
        return substitution.get(block_id, block_id)

    connections = model.connections | {
        Connection(PortRef(sub(c.source.block), c.source.port), PortRef(sub(c.target.block), c.target.port))
        for c in pattern.connections
    }
    traces = model.traces | {TraceLink(t.kind, sub(t.source), sub(t.target)) for t in pattern.traces}
    return replace(model, blocks=blocks, connections=connections, traces=traces)


def validate_configuration(model: Model) -> ValidationReport:
    unbound: list[str] = []
    multiply: list[str] = []
    mismatches: list[str] = []
    illegal: list[str] = []
    dangling: list[str] = []

    bound_count: dict[PortRef, int] = {}
    for conn in model.sorted_connections():
        source = model.port(conn.source)
        target = model.port(conn.target)
        broken = False
        for ref, port in ((conn.source, source), (conn.target, target)):
            if ref.block not in model.blocks:
                dangling.append(f"connection endpoint block '{ref.block}' does not exist")
                broken = True
            elif port is None:
                dangling.append(f"connection endpoint port '{ref.block}:{ref.port}' does not exist")
                broken = True
        if broken:
            continue
        if not port_compatible(source, target):
            mismatches.append(
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
                unbound.append(f"{block.id}:{port.id} ('{port.interface_type}')")
            elif count > 1:
                multiply.append(f"{block.id}:{port.id} bound {count} times")

    for link in model.sorted_traces():
        source = model.blocks.get(link.source)
        target = model.blocks.get(link.target)
        if source is None or target is None:
            missing = link.source if source is None else link.target
            dangling.append(f"trace endpoint block '{missing}' does not exist")
            continue
        if not trace_pair_permitted(source.layer, target.layer, link.kind):
            illegal.append(
                f"{link.kind.value} {link.source} ({source.layer.value}) -> "
                f"{link.target} ({target.layer.value})"
            )

    return ValidationReport(
        unbound_required=tuple(unbound),
        multiply_bound=tuple(multiply),
        type_mismatches=tuple(mismatches),
        illegal_traces=tuple(illegal),
        dangling=tuple(dangling),
    )


def findings(report: ValidationReport) -> list[str]:
    out = []
    out.extend(f"unbound required port: {f}" for f in report.unbound_required)
    out.extend(f"multiply bound required port: {f}" for f in report.multiply_bound)
    out.extend(f"type mismatch: {f}" for f in report.type_mismatches)
    out.extend(f"illegal trace: {f}" for f in report.illegal_traces)
    out.extend(f"dangling reference: {f}" for f in report.dangling)
    return out


def is_valid(report: ValidationReport) -> bool:
    return not (
        report.unbound_required
        or report.multiply_bound
        or report.type_mismatches
        or report.illegal_traces
        or report.dangling
    )


def enumerate_alternatives_with_slots(
    model: Model, repo: ReferenceRepository, slot: str
) -> list[tuple[str, Model]]:
    slot_block = model.block(slot)
    signature = (slot_block.layer, slot_block.kind, slot_block.port_signature())
    original: list[tuple[str, Model]] = []
    results: list[tuple[str, Model]] = []
    for asset in repo.block_assets():
        candidate = asset.block
        if (candidate.layer, candidate.kind, candidate.port_signature()) != signature:
            continue
        replacement = replace(candidate, origin=Origin.ADOPTED)
        if replacement.id == slot and replacement == slot_block:
            original.append((slot, model))
        else:
            results.append((candidate.id, swap_block(model, slot, replacement)))
    return original + results or [(slot, model)]


def swap_block(model: Model, slot: str, replacement: BuildingBlock) -> Model:
    if replacement.id != slot and replacement.id in model.blocks:
        raise DuplicateId(f"cannot swap '{slot}' for '{replacement.id}': id already present in model")
    port_map = _match_ports(model.blocks[slot], replacement)
    blocks = dict(model.blocks.items())
    del blocks[slot]
    blocks[replacement.id] = replacement

    def sub(block_id: str) -> str:
        return replacement.id if block_id == slot else block_id

    def sub_ref(ref: PortRef) -> PortRef:
        return ref if ref.block != slot else PortRef(replacement.id, port_map.get(ref.port, ref.port))

    connections = frozenset(Connection(sub_ref(c.source), sub_ref(c.target)) for c in model.connections)
    traces = frozenset(TraceLink(t.kind, sub(t.source), sub(t.target)) for t in model.traces)
    return replace(model, blocks=blocks, connections=connections, traces=traces)


def _match_ports(old: BuildingBlock, new: BuildingBlock) -> dict[str, str]:
    groups: dict[tuple[str, str], list[str]] = {}
    for port in new.ports:
        groups.setdefault((port.direction.value, port.interface_type), []).append(port.id)
    for ids in groups.values():
        ids.sort()
    mapping: dict[str, str] = {}
    for port in sorted(old.ports, key=lambda p: p.id):
        bucket = groups[(port.direction.value, port.interface_type)]
        mapping[port.id] = bucket.pop(0)
    return mapping


_REQUIREMENT_KINDS = frozenset({TraceKind.MAPS_TO, TraceKind.EXHIBITS})
_BEHAVIOR_KINDS = frozenset({TraceKind.PERFORMS, TraceKind.IMPLEMENTS})


def extract_view(model: Model, viewpoint: Viewpoint) -> View:
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
    elif viewpoint.aspect is Aspect.REQUIREMENTS:
        traces = tuple(
            t
            for t in model.sorted_traces()
            if t.kind in _REQUIREMENT_KINDS and t.source in element_set and t.target in element_set
        )
    elif viewpoint.aspect is Aspect.BEHAVIOR:
        traces = tuple(
            t
            for t in model.sorted_traces()
            if t.kind in _BEHAVIOR_KINDS and t.source in element_set and t.target in element_set
        )
    return View(
        viewpoint=viewpoint,
        elements=tuple(sorted(element_set)),
        connections=connections,
        traces=traces,
    )
