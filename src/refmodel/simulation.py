"""Discrete-step battery simulation over planned coverage paths.

The clock is the step index: each step consumes the move's step factor scaled
by the consumption factor, optionally offset by a per-step charging series.
The run halts before the first step that would push the remaining charge
negative.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import chain, repeat
from typing import Sequence

from .core import _record, _wrong_type
from .errors import InvalidPath
from .planners import Path, PlannerRef, check_start, resolve_planner
from .terrain import Position, TerrainMap


@_record
class SimParams:
    """Fixed simulation inputs: battery capacity, consumption scale, charging."""

    capacity: float = 100.0
    consumption_factor: float = 1.0
    charging: tuple[float, ...] = ()

    def __post_init__(self):
        if type(self.capacity) not in (int, float) or type(self.consumption_factor) not in (int, float):
            raise _wrong_type(self, (int, float), "capacity", "consumption_factor")
        if type(self.charging) not in (tuple, list):
            raise _wrong_type(self, (tuple, list), "charging")
        for entry in self.charging:
            if type(entry) not in (int, float):
                raise TypeError(f"SimParams.charging entries must be int or float, not {type(entry).__name__}")
        object.__setattr__(self, "charging", tuple(float(c) for c in self.charging))
        if not (math.isfinite(self.capacity) and self.capacity > 0):
            raise ValueError("capacity must be positive and finite")
        if not (math.isfinite(self.consumption_factor) and self.consumption_factor > 0):
            raise ValueError("consumption_factor must be positive and finite")
        if not all(math.isfinite(c) and c >= 0 for c in self.charging):
            raise ValueError("charging entries must be non-negative and finite")


class Termination(Enum):
    PATH_COMPLETE = "path_complete"
    BATTERY_DEPLETED = "battery_depleted"


@_record
class SimResult:
    """Executed path plus per-step consumption and remaining-charge series."""

    path: Path
    params: SimParams
    consumption: tuple[float, ...]
    remaining: tuple[float, ...]
    total_consumed: float
    steps_completed: int
    terminated: Termination


def power_consumption(path: Path, tmap: TerrainMap, consumption_factor: float = 1.0) -> list[float]:
    """Per-step energy: the step factor of each move scaled by the consumption factor."""
    # A path of positions, or of another width's indices, is mapped to this
    # map's indices once; a position off the map maps to -1. The checks stay
    # for the built-in planners too: a registered planner's path is outside
    # input. A move found in the table ends on a free cell, so one loop checks
    # a free start and then each move; if one fails, the first cell that is not
    # free is reported before the first move that is not 4-adjacent.
    moves, width, height = tmap.moves, tmap.width, tmap.height
    cells = path.cells
    if path.width != width:
        cells = [row * width + col if 0 <= row < height and 0 <= col < width else -1 for row, col in path.positions]
    out = []
    if 0 <= cells[0] < len(moves) and moves[cells[0]] is not None:
        for here, there in zip(cells, cells[1:]):
            for neighbor, factor in moves[here]:
                if neighbor == there:
                    out.append(factor * consumption_factor)
                    break
            else:
                break  # not a 4-adjacent move; reported below, after any cell that is not free
        else:
            return out
    for pos, i in zip(path.positions, cells):
        if not 0 <= i < len(moves) or moves[i] is None:
            raise InvalidPath(f"position {tuple(pos)} is not a free cell")
    # out holds one factor per step before the failing one, so len(out) is its index
    here, there = path.positions[len(out) : len(out) + 2]
    raise InvalidPath(f"{tuple(here)} -> {tuple(there)} is not a 4-adjacent move")


def power_state(
    params: SimParams, consumption: Sequence[float]
) -> tuple[list[float], Termination]:
    """Thread the battery recurrence through a consumption series.

    remaining[t] = remaining[t-1] - consumption[t] + charging[t], starting at
    capacity. Stops before the first step that would go negative.
    """
    remaining: list[float] = []
    charge = params.capacity
    # past its end the charging series adds 0.0
    for consumed, charged in zip(consumption, chain(params.charging, repeat(0.0))):
        candidate = charge - consumed + charged
        if candidate < 0:
            return remaining, Termination.BATTERY_DEPLETED
        remaining.append(candidate)
        charge = candidate
    return remaining, Termination.PATH_COMPLETE


def run(
    tmap: TerrainMap,
    planner: PlannerRef,
    start: Position | None = None,
    params: SimParams | None = None,
) -> SimResult:
    """Plan a coverage path and simulate the battery along it.

    The default start is the first free cell in row-major order. The result
    carries only the executed prefix of the planned path, so all series share
    the length steps_completed.
    """
    params = params or SimParams()
    start = tmap.first_free() if start is None else check_start(start)
    _, plan = resolve_planner(planner)
    path = plan(tmap, start)
    consumption = power_consumption(path, tmap, params.consumption_factor)
    remaining, terminated = power_state(params, consumption)
    completed = len(remaining)
    executed = Path(cells=path.cells[: completed + 1], width=path.width)
    return SimResult(
        path=executed,
        params=params,
        consumption=tuple(consumption[:completed]),
        remaining=tuple(remaining),
        # fsum is order-independent, so equal step multisets tie exactly and
        # comparisons stay stable under consumption-factor scaling
        total_consumed=math.fsum(consumption[:completed]),
        steps_completed=completed,
        terminated=terminated,
    )


def sim_result_to_csv(result: SimResult) -> str:
    """CSV rows `t,row,col,consumption,remaining`; t=0 is the start cell."""
    lines = ["t,row,col,consumption,remaining"]
    series = zip(result.path.positions, (0.0, *result.consumption), (result.params.capacity, *result.remaining))
    for t, (pos, consumed, left) in enumerate(series):
        lines.append(f"{t},{pos.row},{pos.col},{consumed:.6f},{left:.6f}")
    return "\n".join(lines) + "\n"
