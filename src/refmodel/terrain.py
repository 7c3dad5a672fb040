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
from typing import Iterator, NamedTuple

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


# step_factor by [from level][to level], for the move table's one-pass build
_LEVEL_FACTORS = tuple(tuple(step_factor(a, b) for b in range(MAX_LEVEL + 1)) for a in range(MAX_LEVEL + 1))


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
        for r, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(f"row {r} has length {len(row)}, expected {width}")
            for value in row:
                if value != OBSTACLE and not MIN_LEVEL <= value <= MAX_LEVEL:
                    raise ValueError(f"cell value {value} outside {MIN_LEVEL}..{MAX_LEVEL} and not obstacle")
        if all(value == OBSTACLE for row in rows for value in row):
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

    def free_positions(self) -> Iterator[Position]:
        for r, row in enumerate(self.cells):
            for c, value in enumerate(row):
                if value != OBSTACLE:
                    yield Position(r, c)

    def first_free(self) -> Position:
        return next(self.free_positions())

    @cached_property
    def moves(self) -> tuple[tuple[tuple[int, float], ...] | None, ...]:
        """The move table, indexed by cell index ``row * width + col``.

        An obstacle's entry is None. A free cell's entry holds its free
        neighbors in N, E, S, W order as ``(index, step factor)`` pairs.
        Built on first use in one pass over the flat grid and kept with the
        map, so planners and the simulation share one table per map.
        """
        width = self.width
        flat = [value for row in self.cells for value in row]
        size = len(flat)
        table = []
        # Bounds go by row and column: row > 0, col + 1 < width, row + 1 < height,
        # col > 0. On a one-column grid i + 1 is the cell below, not a neighbor.
        for i, level in enumerate(flat):
            if level == OBSTACLE:
                table.append(None)
                continue
            factors = _LEVEL_FACTORS[level]
            col = i % width
            entry = []
            if i >= width and (to := flat[i - width]) != OBSTACLE:
                entry.append((i - width, factors[to]))
            if col + 1 < width and (to := flat[i + 1]) != OBSTACLE:
                entry.append((i + 1, factors[to]))
            if i + width < size and (to := flat[i + width]) != OBSTACLE:
                entry.append((i + width, factors[to]))
            if col and (to := flat[i - 1]) != OBSTACLE:
                entry.append((i - 1, factors[to]))
            table.append(tuple(entry))
        return tuple(table)


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

    def __post_init__(self):
        for name in ("width", "height", "max_level"):
            if type(getattr(self, name)) is not int:
                raise TypeError(f"{name} must be an int, not {type(getattr(self, name)).__name__}")
        if type(self.obstacle_density) not in (int, float):
            raise TypeError(f"obstacle_density must be a number, not {type(self.obstacle_density).__name__}")


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

    raw = _fbm_grid(width, height, seed, scale=0.35, octaves=3)
    lo, hi = min(raw), max(raw)
    span = hi - lo
    if max_level == 0 or span <= 0.0:
        levels = [0] * len(raw)
    else:
        levels = [min(max_level, int((value - lo) / span * (max_level + 1))) for value in raw]

    rng = random.Random(seed)
    cells = [OBSTACLE if rng.random() < obstacle_density else level for level in levels]
    if all(value == OBSTACLE for value in cells):
        cells[0] = levels[0]
    _carve_connected(cells, levels, width)
    return TerrainMap(cells=tuple(tuple(cells[r * width : (r + 1) * width]) for r in range(height)))


def _carve_connected(cells: list[int], levels: list[int], width: int):
    """Turn obstacles of the flat grid back into free cells until the free set is one component."""
    components = _free_components(cells, width)
    if len(components) <= 1:
        return
    components.sort(key=lambda comp: (-comp[0], comp[1]))
    main = components[0][1]
    for _, i in components[1:]:
        # from the component's first cell along its column to main's row, then along that row to main
        while i // width != main // width:
            i += width if main > i else -width
            if cells[i] == OBSTACLE:
                cells[i] = levels[i]
        while i != main:
            i += 1 if main > i else -1
            if cells[i] == OBSTACLE:
                cells[i] = levels[i]


def _free_components(cells: list[int], width: int) -> list[tuple[int, int]]:
    """(size, first index) of each 4-connected free component; its first index is its smallest."""
    total = len(cells)
    seen = bytearray(total)
    components = []
    for first, value in enumerate(cells):
        if value == OBSTACLE or seen[first]:
            continue
        seen[first] = 1
        stack, size = [first], 1
        while stack:
            i = stack.pop()
            col = i % width
            # N, E, S, W, bounded by row and column as in TerrainMap.moves; off the grid is outside 0..total
            for j in (i - width, i + 1 if col + 1 < width else -1, i + width, i - 1 if col else -1):
                if 0 <= j < total and not seen[j] and cells[j] != OBSTACLE:
                    seen[j] = 1
                    stack.append(j)
                    size += 1
        components.append((size, first))
    return components


# --- deterministic value noise ---------------------------------------------


def _lattice(x: float) -> tuple[int, float]:
    """The lattice index below coordinate x and the smoothstep weight of x's offset from it."""
    ix = int(x // 1)
    t = x - ix
    return ix, t * t * (3.0 - 2.0 * t)


def _fbm_grid(width: int, height: int, seed: int, scale: float, octaves: int) -> list[float]:
    """Fractal value noise at every cell (c * scale, r * scale), flat in row-major order.

    Each octave hashes each lattice point once, blends lattice rows along x
    once, then blends those along y per cell: the float operations and their
    order per cell are those of a per-point evaluation, so the bits are too.
    The value of lattice point (ix, iy) is a 32-bit hash of ix, iy and the
    octave's seed mapped into [0, 1); its x-term is computed once per octave.
    """
    total = [[0.0] * width for _ in range(height)]
    amp, freq, norm = 1.0, 1.0, 0.0
    for octave in range(octaves):
        cols = [_lattice(c * scale * freq) for c in range(width)]
        rows = [_lattice(r * scale * freq) for r in range(height)]
        xterms = [ix * 0x1F1F1F1F & 0xFFFFFFFF for ix in range(cols[-1][0] + 2)]
        salt = (seed + octave) & 0xFFFFFFFF
        blended = []  # per lattice row, the lattice values blended along x at each column
        for iy in range(rows[-1][0] + 2):
            yterm = (iy * 0x5F356495 ^ salt) & 0xFFFFFFFF
            values = []
            for n in xterms:
                n ^= yterm
                n = (n ^ n >> 13) * 0x85EBCA6B & 0xFFFFFFFF
                values.append((n ^ n >> 16) % 1000003 / 1000003.0)
            blended.append([values[ix] + (values[ix + 1] - values[ix]) * sx for ix, sx in cols])
        for acc, (iy, sy) in zip(total, rows):
            acc[:] = [t + (a + (b - a) * sy) * amp for t, a, b in zip(acc, blended[iy], blended[iy + 1])]
        norm += amp
        amp *= 0.5
        freq *= 2.0
    return [t / norm for acc in total for t in acc]
