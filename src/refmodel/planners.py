"""Coverage-path planners over elevation grids, packaged as exchangeable blocks.

Two built-in planners cover every reachable free cell:

* ``edge_follow`` sweeps row by row, turning at edges, obstacles, and cells
  already passed, and relocates over the shortest hop path when stuck.
* ``terrain_aware`` greedily picks the unvisited neighbor with the smallest
  step factor and relocates along the minimum-energy path when stuck.

Both run one coverage loop over the map's move table and differ only in the
next-cell rule they pass it and in the metric, hops or energy, of the one
relocation search. Each concretizes the strategy it is named after in one
specific way; other readings are possible. Revisited cells cost travel energy
but are only counted as covered on first visit. A registry maps algorithm
names to planner functions so models can swap planners as algorithm blocks.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Union

from .core import BlockKind, BuildingBlock
from .errors import StartBlocked, UnknownElement
from .terrain import Position, TerrainMap


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


def plan_edge_follow(tmap: TerrainMap, start: Position) -> Path:
    """Boustrophedon sweep: advance along the row, drop one row at turns.

    When neither the sweep move nor the turn is possible the planner hops to
    the nearest unvisited cell along a breadth-first shortest path, revisiting
    cells as needed.
    """
    heading = 1  # +1 sweeps east, -1 sweeps west

    def sweep(pos: Position, visited: set) -> Position | None:
        nonlocal heading
        here = tmap.moves[pos]
        ahead = Position(pos.row, pos.col + heading)
        if ahead in here and ahead not in visited:
            return ahead
        below = Position(pos.row + 1, pos.col)
        if below in here and below not in visited:
            heading = -heading
            return below
        return None

    return _cover(tmap, start, sweep, by_energy=False)


def plan_terrain_aware(tmap: TerrainMap, start: Position) -> Path:
    """Greedy sweep that keeps the elevation change of each move as small as possible.

    Among unvisited neighbors the move with the lowest step factor wins, ties
    broken in N, E, S, W order. When no unvisited neighbor exists the planner
    relocates along the minimum-energy path (uniform-cost search with step
    factors as edge weights) to the nearest unvisited cell.
    """

    def greedy(pos: Position, visited: set) -> Position | None:
        # min keeps the first of equal factors, which is the N, E, S, W order
        here = tmap.moves[pos]
        return min((nxt for nxt in here if nxt not in visited), key=here.get, default=None)

    return _cover(tmap, start, greedy, by_energy=True)


def _cover(tmap: TerrainMap, start: Position, next_cell: Callable, *, by_energy: bool) -> Path:
    """Step to next_cell(pos, visited), or relocate when it is None, until no unvisited cell is reachable."""
    if not tmap.is_free(start):
        raise StartBlocked(f"start {tuple(start)} is not a free cell")
    visited = {start}
    out = [start]
    while True:
        nxt = next_cell(out[-1], visited)
        hop = [nxt] if nxt is not None else _relocate(tmap.moves, out[-1], visited, by_energy)
        if not hop:
            return Path(start=start, steps=tuple(out[1:]))
        visited.update(hop)
        out.extend(hop)


def _relocate(moves: dict, pos: Position, visited: set, by_energy: bool) -> list[Position]:
    """The cheapest path from pos to an unvisited cell, or [] when every reachable cell is visited.

    By hops each move weighs 1 and equal costs pop in push order, which is
    breadth-first order; by energy each move weighs its step factor and equal
    costs pop by (row, col).
    """
    pushes = itertools.count()
    dist = {pos: 0.0}
    parents = {pos: pos}
    heap = [(0.0, pos if by_energy else next(pushes), pos)]
    while heap:
        cost, _, current = heapq.heappop(heap)
        if cost > dist[current]:
            continue  # a stale entry, superseded by a cheaper push
        if current not in visited:
            path = [current]
            while parents[path[-1]] != pos:
                path.append(parents[path[-1]])
            return path[::-1]
        for nxt, factor in moves[current].items():
            candidate = cost + (factor if by_energy else 1.0)
            if nxt not in dist or candidate < dist[nxt]:
                dist[nxt] = candidate
                parents[nxt] = current
                heapq.heappush(heap, (candidate, nxt if by_energy else next(pushes), nxt))
    return []


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
