"""Coverage-path planners over elevation grids, packaged as exchangeable blocks.

Two built-in planners cover every reachable free cell:

* ``edge_follow`` sweeps row by row, turning at edges, obstacles, and cells
  already passed, and relocates over the shortest hop path when stuck.
* ``terrain_aware`` greedily picks the unvisited neighbor with the smallest
  step factor and relocates along the minimum-energy path when stuck.

Both concretize the strategy they are named after in one specific way; other
readings are possible. Revisited cells cost travel energy but are only counted
as covered on first visit. A registry maps algorithm names to planner
functions so models can swap planners as algorithm blocks.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Union

from .core import BlockKind, BuildingBlock
from .errors import StartBlocked, UnknownElement
from .terrain import Position, TerrainMap, connected_free, neighbors, step_factor


@dataclass(frozen=True)
class Path:
    """A walk over free cells: a start plus the positions after each step."""

    start: Position
    steps: tuple[Position, ...] = ()

    @property
    def positions(self) -> tuple[Position, ...]:
        return (self.start,) + self.steps

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def visited(self) -> set[Position]:
        return set(self.positions)


class PlannerId(Enum):
    EDGE_FOLLOW = "edge_follow"
    TERRAIN_AWARE = "terrain_aware"


PlannerFn = Callable[[TerrainMap, Position], Path]
PlannerRef = Union[PlannerId, str, BuildingBlock]


def reachable_free(tmap: TerrainMap, start: Position) -> set[Position]:
    """Flood fill: all free cells reachable from start by 4-connected moves."""
    if not tmap.is_free(start):
        raise StartBlocked(f"start {tuple(start)} is not a free cell")
    return connected_free(tmap.cells, start)


def plan_edge_follow(tmap: TerrainMap, start: Position) -> Path:
    """Boustrophedon sweep: advance along the row, drop one row at turns.

    When neither the sweep move nor the turn is possible the planner hops to
    the nearest unvisited cell along a breadth-first shortest path, revisiting
    cells as needed.
    """
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
    """Shortest hop path from pos to the nearest unvisited free cell."""
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
    """Greedy sweep that keeps the elevation change of each move as small as possible.

    Among unvisited neighbors the move with the lowest step factor wins, ties
    broken in N, E, S, W order. When no unvisited neighbor exists the planner
    relocates along the minimum-energy path (uniform-cost search with step
    factors as edge weights) to the nearest unvisited cell.
    """
    target = reachable_free(tmap, start)
    visited = {start}
    out = [start]
    pos = start
    while len(visited) < len(target):
        best = None
        for index, nxt in enumerate(neighbors(tmap, pos)):
            if nxt in visited:
                continue
            factor = step_factor(tmap.level(pos), tmap.level(nxt))
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
    """Minimum-energy path from pos to the cheapest-to-reach unvisited cell."""
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
            step = step_factor(tmap.level(current), tmap.level(nxt))
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


@dataclass(frozen=True)
class MapStatistics:
    """Summary numbers adaptive selection decides on."""

    free_cells: int
    mean_level: float
    level_variance: float
    obstacle_fraction: float


def map_statistics(tmap: TerrainMap) -> MapStatistics:
    levels = [tmap.level(pos) for pos in tmap.free_positions()]
    mean = sum(levels) / len(levels)
    variance = sum((lv - mean) ** 2 for lv in levels) / len(levels)
    total = tmap.width * tmap.height
    return MapStatistics(
        free_cells=len(levels),
        mean_level=mean,
        level_variance=variance,
        obstacle_fraction=(total - len(levels)) / total,
    )


DEFAULT_VARIANCE_THRESHOLD = 0.25


def select_adaptive(tmap: TerrainMap, threshold: float = DEFAULT_VARIANCE_THRESHOLD) -> PlannerId:
    """Pick the terrain-aware planner on hilly maps, the sweep on flat ones.

    Hilly means the elevation variance of the free cells exceeds the
    threshold.
    """
    stats = map_statistics(tmap)
    if stats.level_variance > threshold:
        return PlannerId.TERRAIN_AWARE
    return PlannerId.EDGE_FOLLOW


_REGISTRY: dict[str, PlannerFn] = {
    PlannerId.EDGE_FOLLOW.value: plan_edge_follow,
    PlannerId.TERRAIN_AWARE.value: plan_terrain_aware,
}


def register_planner(name: str, planner: PlannerFn, *, overwrite: bool = False):
    """Register a planner function so algorithm blocks can name it."""
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"planner '{name}' is already registered")
    _REGISTRY[name] = planner


def resolve_planner(ref: PlannerRef) -> tuple[str, PlannerFn]:
    """Resolve a planner id, registry name, or algorithm block to its function.

    Algorithm blocks name their planner through the ``algorithm`` parameter,
    falling back to the block id.
    """
    if isinstance(ref, PlannerId):
        name = ref.value
    elif isinstance(ref, str):
        name = ref
    elif isinstance(ref, BuildingBlock):
        if ref.kind is not BlockKind.ALGORITHM_BLOCK:
            raise UnknownElement(f"block '{ref.id}' is not an algorithm block")
        name = str(ref.parameters.get("algorithm", ref.id))
    else:
        raise TypeError(f"cannot resolve a planner from {type(ref).__name__}")
    if name not in _REGISTRY:
        raise UnknownElement(f"no planner registered under '{name}'")
    return name, _REGISTRY[name]


def path_to_csv(path: Path) -> str:
    """CSV rows `t,row,col`, starting at t=0 with the start cell."""
    lines = ["t,row,col"]
    for t, pos in enumerate(path.positions):
        lines.append(f"{t},{pos.row},{pos.col}")
    return "\n".join(lines) + "\n"
