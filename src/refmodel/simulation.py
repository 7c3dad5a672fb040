"""Discrete-step battery simulation over planned coverage paths.

The clock is the step index: each step consumes the move's step factor scaled
by the consumption factor, optionally offset by a per-step charging series.
The run halts before the first step that would push the remaining charge
negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from typing import Sequence

from .errors import InvalidPath
from .planners import Path, PlannerRef, resolve_planner
from .terrain import Position, TerrainMap


@dataclass(frozen=True)
class SimParams:
    """Fixed simulation inputs: battery capacity, consumption scale, charging."""

    capacity: float = 100.0
    consumption_factor: float = 1.0
    charging: tuple[float, ...] = ()

    def __post_init__(self):
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


@dataclass(frozen=True)
class SimResult:
    """Executed path plus per-step consumption and remaining-charge series."""

    path: Path
    params: SimParams
    consumption: tuple[float, ...]
    remaining: tuple[float, ...]
    total_consumed: float
    steps_completed: int
    terminated: Termination


def power_consumption(
    path: Path, tmap: TerrainMap, consumption_factor: float = 1.0
) -> list[float]:
    """Per-step energy: the step factor of each move scaled by the consumption factor."""
    # Every position is checked to be a free cell before any move is checked to
    # be 4-adjacent. The check stays for the built-in planners too: it is one
    # pass, and a registered planner's path is outside input.
    moves, width, height = tmap.moves, tmap.width, tmap.height
    cells = []
    for row, col in path.positions:
        if not (0 <= row < height and 0 <= col < width) or moves[i := row * width + col] is None:
            raise InvalidPath(f"position {(row, col)} is not a free cell")
        cells.append(i)
    out = []
    for here, there in zip(cells, cells[1:]):
        for neighbor, factor in moves[here]:
            if neighbor == there:
                out.append(factor * consumption_factor)
                break
        else:
            # out holds one factor per earlier step, so len(out) is this step's index
            here, there = path.positions[len(out) : len(out) + 2]
            raise InvalidPath(f"{tuple(here)} -> {tuple(there)} is not a 4-adjacent move")
    return out


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
    if start is None:
        start = tmap.first_free()
    _, plan = resolve_planner(planner)
    path = plan(tmap, start)
    consumption = power_consumption(path, tmap, params.consumption_factor)
    remaining, terminated = power_state(params, consumption)
    completed = len(remaining)
    executed = Path(start=path.start, steps=path.steps[:completed])
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
    start = result.path.start
    lines.append(f"0,{start.row},{start.col},{0.0:.6f},{result.params.capacity:.6f}")
    for t, pos in enumerate(result.path.steps, start=1):
        lines.append(
            f"{t},{pos.row},{pos.col},{result.consumption[t - 1]:.6f},{result.remaining[t - 1]:.6f}"
        )
    return "\n".join(lines) + "\n"
