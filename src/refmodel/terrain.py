"""Elevation-coded grid worlds and the step-cost classification.

Cells hold discrete elevation levels 0-3 or an obstacle marker. Moving
between free cells costs energy according to the sign of the elevation
change: climbing scales by 1.9, level moves by 1.0, descending by 0.6.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

from .errors import BadSymbol, ParseError, RaggedRows, Unsatisfiable

OBSTACLE = -1
MIN_LEVEL = 0
MAX_LEVEL = 3

HIGH_FACTOR = 1.9
NORMAL_FACTOR = 1.0
LOW_FACTOR = 0.6


class Position(NamedTuple):
    row: int
    col: int


class StepClass(Enum):
    """Energy class of one move: climbing, staying level, or descending."""

    HIGH = "high"
    NORMAL = "normal"
    LOW = "low"

    @property
    def factor(self) -> float:
        return _STEP_FACTORS[self]


_STEP_FACTORS = {
    StepClass.HIGH: HIGH_FACTOR,
    StepClass.NORMAL: NORMAL_FACTOR,
    StepClass.LOW: LOW_FACTOR,
}


def classify_step(from_level: int, to_level: int) -> StepClass:
    """Class of a move between elevation levels: High if up, Normal if equal, Low if down."""
    for level in (from_level, to_level):
        if not MIN_LEVEL <= level <= MAX_LEVEL:
            raise ValueError(f"elevation level {level} outside {MIN_LEVEL}..{MAX_LEVEL}")
    if to_level > from_level:
        return StepClass.HIGH
    if to_level < from_level:
        return StepClass.LOW
    return StepClass.NORMAL


def step_factor(from_level: int, to_level: int) -> float:
    return classify_step(from_level, to_level).factor


@dataclass(frozen=True)
class TerrainMap:
    """Rectangular grid of elevation levels 0-3 with obstacle cells (-1)."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.cells)
        object.__setattr__(self, "cells", rows)
        if not rows or not rows[0]:
            raise ValueError("terrain map needs at least one row and one column")
        width = len(rows[0])
        free = 0
        for r, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(f"row {r} has length {len(row)}, expected {width}")
            for value in row:
                if value != OBSTACLE and not MIN_LEVEL <= value <= MAX_LEVEL:
                    raise ValueError(f"cell value {value} outside {MIN_LEVEL}..{MAX_LEVEL} and not obstacle")
                if value != OBSTACLE:
                    free += 1
        if free == 0:
            raise ValueError("terrain map needs at least one free cell")

    @property
    def height(self) -> int:
        return len(self.cells)

    @property
    def width(self) -> int:
        return len(self.cells[0])

    def in_bounds(self, pos: Position) -> bool:
        return 0 <= pos.row < self.height and 0 <= pos.col < self.width

    def is_free(self, pos: Position) -> bool:
        return self.in_bounds(pos) and self.cells[pos.row][pos.col] != OBSTACLE

    def is_obstacle(self, pos: Position) -> bool:
        return self.in_bounds(pos) and self.cells[pos.row][pos.col] == OBSTACLE

    def level(self, pos: Position) -> int:
        value = self.cells[pos.row][pos.col]
        if value == OBSTACLE:
            raise ValueError(f"cell {tuple(pos)} is an obstacle")
        return value

    def free_positions(self) -> Iterator[Position]:
        for r, row in enumerate(self.cells):
            for c, value in enumerate(row):
                if value != OBSTACLE:
                    yield Position(r, c)

    def first_free(self) -> Position:
        return next(self.free_positions())

    def free_count(self) -> int:
        return sum(1 for _ in self.free_positions())

    @cached_property
    def moves(self) -> dict[Position, dict[Position, float]]:
        """Each free cell's free neighbors in N, E, S, W order, with the step factor to each.

        Built on first use and kept with the map, so planners and the
        simulation share one table per map.
        """
        return {
            pos: {nxt: step_factor(self.level(pos), self.level(nxt)) for nxt in neighbors(self, pos)}
            for pos in self.free_positions()
        }


# Neighbor order is fixed N, E, S, W so planners stay deterministic.
_NEIGHBOR_STEPS = ((-1, 0), (0, 1), (1, 0), (0, -1))


def neighbors(tmap: TerrainMap, pos: Position) -> list[Position]:
    """Free 4-connected neighbors of a cell, in N, E, S, W order."""
    out = []
    for dr, dc in _NEIGHBOR_STEPS:
        candidate = Position(pos.row + dr, pos.col + dc)
        if tmap.is_free(candidate):
            out.append(candidate)
    return out


_SYMBOLS = {str(level): level for level in range(MIN_LEVEL, MAX_LEVEL + 1)}
_SYMBOLS["X"] = OBSTACLE


def load_map(text: str) -> TerrainMap:
    """Parse map text: one character per cell, levels 0-3, X for obstacles."""
    lines = text.rstrip("\n").split("\n")
    if lines == [""]:
        raise RaggedRows("map text is empty")
    width = len(lines[0])
    rows = []
    for r, line in enumerate(lines):
        if len(line) != width:
            raise RaggedRows(f"row {r} has length {len(line)}, expected {width}")
        row = []
        for c, symbol in enumerate(line):
            if symbol not in _SYMBOLS:
                raise BadSymbol(f"bad symbol '{symbol}' at ({r}, {c})", position=Position(r, c))
            row.append(_SYMBOLS[symbol])
        rows.append(tuple(row))
    try:
        return TerrainMap(cells=tuple(rows))
    except ValueError as exc:  # every cell is an obstacle
        raise ParseError(str(exc)) from None


def save_map(tmap: TerrainMap) -> str:
    symbols = {v: k for k, v in _SYMBOLS.items()}
    return "\n".join("".join(symbols[v] for v in row) for row in tmap.cells) + "\n"


@dataclass(frozen=True)
class GenParams:
    """Knobs for seeded map generation.

    Default dimensions keep full coverage affordable within the default
    battery capacity of 100 energy units.
    """

    width: int = 9
    height: int = 7
    obstacle_density: float = 0.15
    max_level: int = MAX_LEVEL


def generate_map(
    width: int,
    height: int,
    obstacle_density: float,
    seed: int,
    *,
    max_level: int = MAX_LEVEL,
) -> TerrainMap:
    """Deterministic seeded terrain: smoothed value noise quantized to levels.

    Obstacles are drawn per cell at the given density and then re-carved
    along connecting paths until all free cells form one 4-connected
    component.
    """
    if width < 1 or height < 1:
        raise ValueError("map dimensions must be at least 1x1")
    if not math.isfinite(obstacle_density) or obstacle_density < 0:
        raise ValueError("obstacle density must be finite and non-negative")
    if obstacle_density >= 1:
        raise Unsatisfiable("obstacle density must stay below 1 to keep a free cell")
    if not 0 <= max_level <= MAX_LEVEL:
        raise ValueError(f"max_level must be within {MIN_LEVEL}..{MAX_LEVEL}")

    scale = 0.35
    raw = [
        [_fbm(c * scale, r * scale, seed, octaves=3) for c in range(width)]
        for r in range(height)
    ]
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
    """Turn obstacles back into free cells until the free set is one component."""
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
            comp = connected_free(cells, Position(r, c))
            seen |= comp
            components.append(comp)
    return components


def connected_free(cells: Sequence[Sequence[int]], start: Position) -> set[Position]:
    """Flood fill: the free cells 4-connected to the free cell start, start included."""
    height, width = len(cells), len(cells[0])
    seen = {start}
    stack = [start]
    while stack:
        row, col = stack.pop()
        for dr, dc in _NEIGHBOR_STEPS:
            nr, nc = row + dr, col + dc
            if 0 <= nr < height and 0 <= nc < width and cells[nr][nc] != OBSTACLE and (nr, nc) not in seen:
                nxt = Position(nr, nc)
                seen.add(nxt)
                stack.append(nxt)
    return seen


# --- deterministic value noise ---------------------------------------------


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


def _value_noise(x: float, y: float, seed: int) -> float:
    ix, iy = int(x // 1), int(y // 1)
    fx, fy = x - ix, y - iy
    v00 = _value_at(ix, iy, seed)
    v10 = _value_at(ix + 1, iy, seed)
    v01 = _value_at(ix, iy + 1, seed)
    v11 = _value_at(ix + 1, iy + 1, seed)
    sx, sy = _smoothstep(fx), _smoothstep(fy)
    return _lerp(_lerp(v00, v10, sx), _lerp(v01, v11, sx), sy)


def _fbm(x: float, y: float, seed: int, octaves: int, persistence: float = 0.5, lacunarity: float = 2.0) -> float:
    amp, freq, total, norm = 1.0, 1.0, 0.0, 0.0
    for octave in range(octaves):
        total += _value_noise(x * freq, y * freq, seed + octave) * amp
        norm += amp
        amp *= persistence
        freq *= lacunarity
    return total / norm
