"""Side-by-side planner evaluation and configuration ranking.

Compares planners on one map, aggregates over seeded map ensembles, and ranks
the plug-compatible alternatives of an algorithm-block slot by simulated
energy. Runs that deplete the battery before finishing coverage never win
against complete runs; among complete runs the lowest total energy wins and
ties fall to the first planner in enumeration order. All three are reductions
over one core that runs every planner on every map of an arena.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, Union

import refmodel

from .core import BlockKind, Model
from .errors import NoAlternatives, StartBlocked
from .planners import PlannerId, PlannerRef, resolve_planner
from .simulation import SimParams, SimResult, Termination, run
from .terrain import GenParams, Position, TerrainMap, generate_map

if TYPE_CHECKING:
    from .repository import ReferenceRepository

DEFAULT_PLANNERS: tuple[PlannerId, ...] = (PlannerId.EDGE_FOLLOW, PlannerId.TERRAIN_AWARE)


@dataclass(frozen=True)
class ComparisonReport:
    """One simulation per planner on a shared map, plus the winner."""

    map_label: str
    start: Position
    params: SimParams
    runs: tuple[tuple[str, SimResult], ...]
    winner: str


@dataclass(frozen=True)
class PlannerStats:
    planner: str
    mean_total: float
    min_total: float
    max_total: float
    wins: int


@dataclass(frozen=True)
class EnsembleStats:
    """Per-planner aggregates over a seeded family of generated maps."""

    n_maps: int
    seed_start: int
    seed_end: int
    per_planner: tuple[PlannerStats, ...]


@dataclass(frozen=True)
class EnsembleSpec:
    """Arena description for ranking over generated maps instead of one map."""

    gen: GenParams
    n_maps: int
    seed0: int = 0

    def __post_init__(self):
        if self.n_maps < 1:
            raise ValueError("ensemble needs at least one map")


Arena = Union[TerrainMap, EnsembleSpec]
Row = tuple[tuple[str, SimResult], ...]


@dataclass(frozen=True)
class RankedConfiguration:
    """One alternative configuration with its simulated energy score."""

    block_id: str
    planner: str
    score: float
    completed: bool


# The last generated map evaluated and its runs, kept so that ensemble then rank
# over a one-map arena plan that map once: at most one entry, ((GenParams, seed),
# start, params) -> (map, {planner function: SimResult}). A TerrainMap arena is
# never kept. Planners are taken to be deterministic.
_kept: dict = {}


def _keep(key, make) -> tuple[TerrainMap, dict]:
    """The map and runs kept under key; on a miss the kept map is dropped before make() builds the next."""
    kept = _kept.get(key)
    if kept is None:
        _kept.clear()
        kept = _kept[key] = make(), {}
    return kept


def _maps(arena: Arena, start: Position | None, params: SimParams) -> Iterator[tuple[int | None, TerrainMap, dict]]:
    """(seed, map, its kept runs) per arena map: (None, the map, no runs), or each generated map in seed order."""
    if isinstance(arena, TerrainMap):
        yield None, arena, {}
        return
    gen = arena.gen
    for seed in range(arena.seed0, arena.seed0 + arena.n_maps):
        make = partial(generate_map, gen.width, gen.height, gen.obstacle_density, seed, max_level=gen.max_level)
        yield seed, *_keep(((gen, seed), start, params), make)


def _run(kept: dict, tmap: TerrainMap, planner: PlannerRef, start: Position, params: SimParams) -> tuple[str, SimResult]:
    """(name, result) of one planner's run, taken from the map's kept runs when its function ran there."""
    name, plan = resolve_planner(planner)
    if plan not in kept:
        kept[plan] = run(tmap, planner, start=start, params=params)
    return name, kept[plan]


def _rows(
    arena: Arena, planners: Sequence[PlannerRef], params: SimParams | None, start: Position | None
) -> Iterator[tuple[Position, Row]]:
    """Per map, one (name, result) run per planner, all from the same start and params.

    The start defaults to each map's first free cell; a start blocked on a generated
    map fails the run naming that map's seed, for replay. Callers reduce one row at a time.
    """
    params = params or SimParams()
    for seed, tmap, kept in _maps(arena, start, params):
        # Checked after the first map exists, so a generation error is reported first.
        if not planners:
            raise ValueError("compare needs at least one planner")
        origin = tmap.first_free() if start is None else start
        try:
            runs = tuple(_run(kept, tmap, planner, origin, params) for planner in planners)
        except StartBlocked as exc:
            if seed is None:
                raise
            raise StartBlocked(f"{exc} on the map of seed {seed}") from None
        yield origin, runs


def _standing(completed: bool, energy: float, order: int | str) -> tuple:
    """Sort key of the one winner rule: complete before depleted, then lower energy, then order."""
    return (not completed, energy, order)


def _winner(row: Row) -> int:
    """Index of the winning run in a row."""
    return min(
        range(len(row)),
        key=lambda i: _standing(
            row[i][1].terminated is Termination.PATH_COMPLETE, row[i][1].total_consumed, i
        ),
    )


def _tally(
    arena: Arena, planners: Sequence[PlannerRef], params: SimParams | None, start: Position | None
) -> tuple[list[list[float]], list[int], list[bool]]:
    """Per planner, by index: its energy on each map in seed order, its wins, and whether it completed every map."""
    totals: list[list[float]] = [[] for _ in planners]
    wins = [0] * len(planners)
    completed = [True] * len(planners)
    for _, row in _rows(arena, planners, params, start):
        wins[_winner(row)] += 1
        for index, (_, result) in enumerate(row):
            totals[index].append(result.total_consumed)
            completed[index] &= result.terminated is Termination.PATH_COMPLETE
    return totals, wins, completed


def compare(
    tmap: TerrainMap,
    planners: Sequence[PlannerRef] = DEFAULT_PLANNERS,
    start: Position | None = None,
    params: SimParams | None = None,
    map_label: str = "",
) -> ComparisonReport:
    """Run every planner with identical inputs and pick the winner."""
    params = params or SimParams()
    origin, runs = next(_rows(tmap, planners, params, start))
    return ComparisonReport(
        map_label=map_label, start=origin, params=params, runs=runs, winner=runs[_winner(runs)][0]
    )


def ensemble(
    gen: GenParams,
    n_maps: int,
    planners: Sequence[PlannerRef] = DEFAULT_PLANNERS,
    params: SimParams | None = None,
    seed0: int = 0,
    start: Position | None = None,
) -> EnsembleStats:
    """Compare planners on maps generated with seeds seed0 .. seed0+n_maps-1."""
    spec = EnsembleSpec(gen, n_maps, seed0)
    names = [resolve_planner(p)[0] for p in planners]
    totals, wins, _ = _tally(spec, planners, params, start)
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


def rank_configurations(
    model: Model,
    repo: ReferenceRepository,
    slot: str,
    arena: Arena,
    params: SimParams | None = None,
    start: Position | None = None,
) -> list[RankedConfiguration]:
    """Simulate every plug-compatible alternative of the slot and sort by energy.

    An alternative's score is its mean energy over the arena's maps.
    Configurations that fail to finish coverage on any map before battery
    depletion are flagged and ranked after all complete ones; ties break by
    block id.
    """
    if model.block(slot).kind is not BlockKind.ALGORITHM_BLOCK:
        raise NoAlternatives(f"slot '{slot}' is not an algorithm block")
    blocks = refmodel.composition.replacement_blocks(model, repo, slot)
    names = [resolve_planner(block)[0] for block in blocks]
    totals, _, completed = _tally(arena, names, params, start)
    ranked = [
        RankedConfiguration(
            block_id=block.id,
            planner=name,
            score=sum(totals[index]) / len(totals[index]),
            completed=completed[index],
        )
        for index, (block, name) in enumerate(zip(blocks, names))
    ]
    ranked.sort(key=lambda r: _standing(r.completed, r.score, r.block_id))
    return ranked


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def _csv_field(value) -> str:
    """One CSV field, quoted with inner quotes doubled (RFC 4180) if it holds a comma, a quote, CR or LF."""
    text = str(value)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv(header: str, rows: Iterable[tuple]) -> str:
    """CSV text: the header, then one line per row, each line ending in a newline."""
    lines = [header, *(",".join(map(_csv_field, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def _table(title: str, header: str, rows: Iterable[str]) -> str:
    """A text table: title, header, a rule as wide as the header, then one line per row."""
    return "\n".join([title, header, "-" * len(header), *rows]) + "\n"


def _marked(report: ComparisonReport) -> int:
    """Index of the winning run: the first run carrying the winner's name, the one _winner picks."""
    return [name for name, _ in report.runs].index(report.winner)


def comparison_to_csv(report: ComparisonReport) -> str:
    marked = _marked(report)
    return _csv("planner,steps_completed,total_consumed,terminated,winner", (
        (name, result.steps_completed, f"{result.total_consumed:.6f}", result.terminated.value,
         int(i == marked))
        for i, (name, result) in enumerate(report.runs)
    ))


def comparison_to_table(report: ComparisonReport) -> str:
    label = f" on {report.map_label}" if report.map_label else ""
    marked = _marked(report)
    rows = (
        f"{name:<16} {result.steps_completed:>6} {result.total_consumed:>12.6f} "
        f"{result.terminated.value:<18} {'*' if i == marked else ''}"
        for i, (name, result) in enumerate(report.runs)
    )
    title = f"comparison{label} (start {report.start.row},{report.start.col})"
    return _table(title, f"{'planner':<16} {'steps':>6} {'total':>12} {'terminated':<18} winner", rows)


def ensemble_to_csv(stats: EnsembleStats) -> str:
    return _csv("planner,mean_total,min_total,max_total,wins,n_maps", (
        (e.planner, f"{e.mean_total:.6f}", f"{e.min_total:.6f}", f"{e.max_total:.6f}", e.wins, stats.n_maps)
        for e in stats.per_planner
    ))


def ensemble_to_table(stats: EnsembleStats) -> str:
    rows = (
        f"{e.planner:<16} {e.mean_total:>12.6f} {e.min_total:>12.6f} {e.max_total:>12.6f} {e.wins:>6}"
        for e in stats.per_planner
    )
    title = f"ensemble over {stats.n_maps} maps (seeds {stats.seed_start}..{stats.seed_end})"
    return _table(title, f"{'planner':<16} {'mean':>12} {'min':>12} {'max':>12} {'wins':>6}", rows)


def ranking_to_csv(ranked: Sequence[RankedConfiguration]) -> str:
    return _csv("rank,block_id,planner,score,completed", (
        (position, entry.block_id, entry.planner, f"{entry.score:.6f}", int(entry.completed))
        for position, entry in enumerate(ranked, start=1)
    ))


def _escape(text: str) -> str:
    """Text for an SVG text node: &, < and > as entities, and CR as a character reference,
    which an XML parser keeps where it would read a raw CR as LF."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace("\r", "&#13;")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_LEVEL_FILLS = ("#edf3e6", "#cfe0b8", "#a7c286", "#7c9e58")
_OBSTACLE_FILL = "#2b2b2b"


def remaining_chart_svg(report: ComparisonReport) -> str:
    """Line chart of remaining charge against the step counter, one line per planner."""
    width, height = 480, 280
    margin = 40.0
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    max_t = max((result.steps_completed for _, result in report.runs), default=1) or 1
    top = max(
        [report.params.capacity]
        + [max(result.remaining, default=0.0) for _, result in report.runs]
    )
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 8}" text-anchor="middle" font-size="12">step</text>',
        f'<text x="12" y="{height / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 12 {height / 2:.1f})">remaining charge</text>',
    ]
    for index, (name, result) in enumerate(report.runs):
        color = _PALETTE[index % len(_PALETTE)]
        series = (report.params.capacity,) + result.remaining
        points = []
        for t, value in enumerate(series):
            x = margin + plot_w * t / max_t
            y = height - margin - plot_h * value / top
            points.append(f"{x:.2f},{y:.2f}")
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{" ".join(points)}"/>'
        )
        lines.append(
            f'<text x="{width - margin - 4}" y="{margin + 14 * index + 10}" text-anchor="end" '
            f'font-size="11" fill="{color}">{_escape(name)}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def paths_svg(tmap: TerrainMap, report: ComparisonReport) -> str:
    """Grid rendering of the map with each planner's executed path overlaid."""
    cell = 24
    width = tmap.width * cell
    height = tmap.height * cell
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for r in range(tmap.height):
        for c in range(tmap.width):
            value = tmap.cells[r][c]
            fill = _OBSTACLE_FILL if value < 0 else _LEVEL_FILLS[value]
            lines.append(
                f'<rect x="{c * cell}" y="{r * cell}" width="{cell}" height="{cell}" '
                f'fill="{fill}" stroke="#ffffff" stroke-width="1"/>'
            )
    n_runs = len(report.runs)
    for index, (name, result) in enumerate(report.runs):
        color = _PALETTE[index % len(_PALETTE)]
        offset = (index - (n_runs - 1) / 2) * max(2.0, cell / 8)
        points = []
        for pos in result.path.positions:
            x = pos.col * cell + cell / 2 + offset
            y = pos.row * cell + cell / 2 + offset
            points.append(f"{x:.2f},{y:.2f}")
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" opacity="0.8" '
            f'points="{" ".join(points)}"><title>{_escape(name)}</title></polyline>'
        )
    start = report.start
    lines.append(
        f'<circle cx="{start.col * cell + cell / 2:.2f}" cy="{start.row * cell + cell / 2:.2f}" '
        f'r="{cell / 6:.2f}" fill="#111111"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
