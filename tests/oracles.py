"""Independent reference implementations the planner, simulator and evaluator tests check against.

Deliberately different algorithms from the production code: plain flood fill
for reachability and a Dijkstra search over (position, visited-set) states for
the minimum coverage energy on tiny maps. The evaluator references keep the
separate per-function loops that compare, ensemble and rank_configurations
once had, so the shared evaluation core is checked against them. The
composition references are the recursive trace walks (tree, node ids, witness
chains, coverage, DOT and the CLI's indented text) that the one iterative
traversal replaced; they hold for trees shallower than the recursion limit.
"""

from __future__ import annotations

import heapq
from collections import deque

from refmodel.composition import (
    CapabilityCoverage,
    CoverageReport,
    CoverageStatus,
    TraceDirection,
    TraceNode,
    View,
    enumerate_alternatives_with_slots,
)
from refmodel.core import BlockKind, ConcernLayer, connection_key, trace_key
from refmodel.errors import NoAlternatives
from refmodel.evaluator import ComparisonReport, EnsembleStats, PlannerStats, RankedConfiguration
from refmodel.planners import resolve_planner
from refmodel.simulation import SimParams, Termination, run
from refmodel.terrain import Position, TerrainMap, generate_map, step_factor


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
            ncost = cost + step_factor(tmap.level(pos), tmap.level(nxt)) * factor
            state = (ni, mask | (1 << ni))
            if ncost < dist.get(state, float("inf")):
                dist[state] = ncost
                heapq.heappush(heap, (ncost, *state))
    raise AssertionError("coverage walk must exist on a connected free set")


def _generate(gen, seed):
    return generate_map(gen.width, gen.height, gen.obstacle_density, seed, max_level=gen.max_level)


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
    totals = {name: [] for name in names}
    wins = {name: 0 for name in names}
    for offset in range(n_maps):
        seed = seed0 + offset
        report = compare(_generate(gen, seed), planners, start=start, params=params)
        wins[report.winner] += 1
        for name, result in report.runs:
            totals[name].append(result.total_consumed)
    per_planner = tuple(
        PlannerStats(
            planner=name,
            mean_total=sum(totals[name]) / len(totals[name]),
            min_total=min(totals[name]),
            max_total=max(totals[name]),
            wins=wins[name],
        )
        for name in names
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
            RankedConfiguration(
                block_id=block_id, planner=planner_name, score=score, completed=completed, model=alternative
            )
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
