"""Coverage-path planners over elevation grids, packaged as exchangeable blocks.

Two built-in planners cover every reachable free cell:

* ``edge_follow`` sweeps row by row, turning at edges, obstacles, and cells
  already passed, and relocates over the shortest hop path when stuck.
* ``terrain_aware`` greedily picks the unvisited neighbor with the smallest
  step factor and relocates along the minimum-energy path when stuck.

Both run one coverage loop over the map's move table, which is indexed by cell
index ``row * width + col``, and differ only in the next-cell rule and the
relocation search they pass it: breadth-first by hops or uniform-cost by
energy. The loop, the searches and the returned path work on cell indices;
a path builds positions only when they are read. Each concretizes the
strategy it is named after in one specific way; other readings are possible.
Revisited cells cost travel energy but are only counted as covered on first
visit. A registry maps algorithm names to planner functions so models can
swap planners as algorithm blocks.
"""

from __future__ import annotations

import heapq
import math
from enum import Enum
from typing import Callable, Union

from .core import BlockKind, BuildingBlock
from .errors import StartBlocked, UnknownElement
from .terrain import OBSTACLE, Position, TerrainMap


class Path:
    """A walk over free cells: a start plus the cell after each step.

    A built-in planner hands back the cell indices ``row * width + col`` of its
    map, ``Path(cells=..., width=...)``. ``Path(start, steps)`` is a walk of
    positions, as a registered planner may build one: its width is 0 and its
    cells are the positions. Positions are derived when read, and paths with
    equal positions are equal.
    """

    __slots__ = ("cells", "width")

    def __init__(self, start: Position | None = None, steps: tuple[Position, ...] = (), *, cells=None, width: int = 0):
        self.cells, self.width = ((start, *steps), 0) if cells is None else (cells, width)

    @property
    def positions(self) -> tuple[Position, ...]:
        return tuple(Position(*divmod(i, self.width)) for i in self.cells) if self.width else self.cells

    @property
    def start(self) -> Position:
        return self.positions[0]

    @property
    def steps(self) -> tuple[Position, ...]:
        return self.positions[1:]

    @property
    def num_steps(self) -> int:
        return len(self.cells) - 1

    def __eq__(self, other):
        return self.positions == other.positions if isinstance(other, Path) else NotImplemented

    def __hash__(self):
        return hash(self.positions)

    def __repr__(self):
        return f"Path(start={self.start!r}, steps={self.steps!r})"


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
    moves, width = tmap.moves, tmap.width
    heading = 1  # +1 sweeps east, -1 sweeps west

    def sweep(i: int, visited: bytearray) -> int | None:
        nonlocal heading
        # Bounds by column and row: on a one-column map i + 1 is the cell below, not ahead.
        ahead = i + heading
        if 0 <= i % width + heading < width and moves[ahead] is not None and not visited[ahead]:
            return ahead
        below = i + width
        if below < len(moves) and moves[below] is not None and not visited[below]:
            heading = -heading
            return below
        return None

    return _cover(tmap, start, sweep, _hop_search)


def plan_terrain_aware(tmap: TerrainMap, start: Position) -> Path:
    """Greedy sweep that keeps the elevation change of each move as small as possible.

    Among unvisited neighbors the move with the lowest step factor wins, ties
    broken in N, E, S, W order. When no unvisited neighbor exists the planner
    relocates along the minimum-energy path (uniform-cost search with step
    factors as edge weights) to the nearest unvisited cell.
    """
    moves = tmap.moves

    def greedy(i: int, visited: bytearray) -> int | None:
        # the strict < keeps the first of equal factors, which is the N, E, S, W order
        best, least = None, math.inf
        for j, factor in moves[i]:
            if factor < least and not visited[j]:
                best, least = j, factor
        return best

    return _cover(tmap, start, greedy, _energy_search)


def check_start(start) -> Position:
    """start itself if it is a Position of ints, the only start a planner takes; else a TypeError."""
    if isinstance(start, Position) and type(start.row) is int and type(start.col) is int:
        return start
    raise TypeError(f"start must be a Position of ints, not {start!r}")


def _cover(tmap: TerrainMap, start: Position, next_cell: Callable, search: Callable) -> Path:
    """Step to next_cell(i, visited), or relocate when it is None, until no unvisited cell is reachable.

    A relocation follows parents back from the unvisited cell that search
    returns, None once every reachable cell is visited. The search sets dist
    and parents of each cell it reaches and lists the cell in touched.
    """
    if not tmap.is_free(check_start(start)):
        raise StartBlocked(f"start {tuple(start)} is not a free cell")
    moves, width = tmap.moves, tmap.width
    here = start.row * width + start.col
    visited = bytearray(len(moves))
    visited[here] = 1
    out = [here]
    # Each hop ends on the one cell it newly visits (a relocation passes only
    # visited cells before it), so the loop can stop without a search once
    # every free cell is visited.
    unvisited = len(moves) - moves.count(None) - 1
    # One search's scratch, reused by every relocation of this plan.
    dist = [math.inf] * len(moves)
    parents = [0] * len(moves)
    while unvisited:
        nxt = next_cell(here, visited)
        if nxt is None:
            dist[here] = 0.0
            touched = [here]
            nxt = search(moves, here, visited, dist, parents, touched)
            for i in touched:
                dist[i] = math.inf
            if nxt is None:
                break
            hop = [nxt]
            while parents[hop[-1]] != here:
                hop.append(parents[hop[-1]])
            out.extend(reversed(hop))
        else:
            out.append(nxt)
        here = nxt
        visited[here] = 1
        unvisited -= 1
    return Path(cells=tuple(out), width=width)


def _hop_search(moves: tuple, source: int, visited: bytearray, dist: list, parents: list, touched: list) -> int | None:
    """Breadth-first by hops: the first unvisited cell reached, which is the nearest.

    touched is the queue, walked while it grows. Cells expand in the order
    they are reached, the order a (hops, push order) heap would pop them in,
    so the first unvisited cell reached is the one that heap pops first.
    """
    for current in touched:
        hops = dist[current] + 1.0
        for nxt, _ in moves[current]:
            if dist[nxt] == math.inf:
                dist[nxt] = hops
                parents[nxt] = current
                touched.append(nxt)
                if not visited[nxt]:
                    return nxt
    return None


def _energy_search(
    moves: tuple, source: int, visited: bytearray, dist: list, parents: list, touched: list
) -> int | None:
    """Uniform-cost by step factor: the cheapest unvisited cell, equal costs popped in (cost, index) order."""
    heap = [(0.0, source)]
    # The cheapest unvisited cell pushed so far bounds the answer's cost. Since
    # every move costs more than 0, a costlier cell can be neither the answer nor
    # on its path and is not pushed; an equal one may still win the tie.
    bound = math.inf
    while heap:
        cost, current = heapq.heappop(heap)
        if cost > dist[current]:
            continue  # a stale entry, superseded by a cheaper push
        if not visited[current]:
            return current
        for nxt, factor in moves[current]:
            candidate = cost + factor
            if candidate < dist[nxt] and candidate <= bound:
                touched.append(nxt)
                dist[nxt] = candidate
                parents[nxt] = current
                if not visited[nxt]:
                    bound = candidate
                heapq.heappush(heap, (candidate, nxt))
    return None


DEFAULT_VARIANCE_THRESHOLD = 0.25


def select_adaptive(tmap: TerrainMap) -> PlannerId:
    """Pick the terrain-aware planner on hilly maps, the sweep on flat ones.

    Hilly means the elevation variance of the free cells exceeds
    DEFAULT_VARIANCE_THRESHOLD.
    """
    levels = [value for row in tmap.cells for value in row if value != OBSTACLE]
    mean = sum(levels) / len(levels)
    variance = sum((lv - mean) ** 2 for lv in levels) / len(levels)
    if variance > DEFAULT_VARIANCE_THRESHOLD:
        return PlannerId.TERRAIN_AWARE
    return PlannerId.EDGE_FOLLOW


_REGISTRY: dict[str, PlannerFn] = {
    PlannerId.EDGE_FOLLOW.value: plan_edge_follow,
    PlannerId.TERRAIN_AWARE.value: plan_terrain_aware,
}


def register_planner(name: str, planner: PlannerFn, *, overwrite: bool = False):
    """Register a planner function so algorithm blocks can name it; it must be deterministic in (map, start)."""
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
