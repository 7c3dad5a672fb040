"""Independent reference implementations the planner, simulator and evaluator tests check against.

Deliberately different algorithms from the production code: plain flood fill
for reachability and a Dijkstra search over (position, visited-set) states for
the minimum coverage energy on tiny maps. The evaluator references keep the
separate per-function loops that compare, ensemble and rank_configurations
once had, so the shared evaluation core is checked against them.
"""

from __future__ import annotations

import heapq
from collections import deque

from refmodel.composition import enumerate_alternatives_with_slots
from refmodel.core import BlockKind
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
            mean_total=sum(totals[name]) / n_maps,
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
