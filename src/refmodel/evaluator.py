"""Side-by-side planner evaluation and configuration ranking.

Compares planners on one map, aggregates over seeded map ensembles, and ranks
the plug-compatible alternatives of an algorithm-block slot by simulated
energy. Runs that deplete the battery before finishing coverage never win
against complete runs; among complete runs the lowest total energy wins and
ties fall to the first planner in enumeration order. compare runs its planners
directly; ensemble and rank_configurations reduce one tally of each run's energy
and completion, and the tally of the last generated arena is kept, without its
maps, so evaluating that arena again runs only the planners it has not scored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence, Union

import refmodel

from .core import BlockKind, Model
from .errors import NoAlternatives, StartBlocked
from .planners import PlannerId, PlannerRef, check_start, resolve_planner
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


@dataclass(frozen=True)
class RankedConfiguration:
    """One alternative configuration with its simulated energy score."""

    block_id: str
    planner: str
    score: float
    completed: bool


# The scores of the last generated arena evaluated, kept so that evaluating it again
# plans no map: one entry (one per caller, while callers overlap), (EnsembleSpec,
# start, params) -> {planner function: [(energy, completed) per map in seed order]}.
# Each call reads the entry it looked up, so a caller that replaces it changes no
# other caller's result. No map or SimResult is kept, and a TerrainMap arena is
# never memoised. Planners are taken to be deterministic.
_memo: dict = {}


def _standing(completed: bool, energy: float, order: int | str) -> tuple:
    """Sort key of the one winner rule: complete before depleted, then lower energy, then order."""
    return (not completed, energy, order)


def _score(result: SimResult) -> tuple[float, bool]:
    """A run's (energy, completed) pair, all that the winner rule and the tallies read of it."""
    return result.total_consumed, result.terminated is Termination.PATH_COMPLETE


def _winner(scores: Sequence[tuple[float, bool]]) -> int:
    """Index of the winning (energy, completed) pair."""
    return min(range(len(scores)), key=lambda i: _standing(scores[i][1], scores[i][0], i))


def _tally(
    arena: Arena, planners: Sequence[PlannerRef], params: SimParams | None, start: Position | None
) -> tuple[list[list[float]], list[int], list[bool]]:
    """Per planner, by index: its energy on each map in seed order, its wins, and whether it completed every map.

    Runs start at start, or at each map's first free cell; a start blocked on a generated map names its seed.
    Only the planner functions missing from the arena's memo entry run, and with none missing no map is generated.
    """
    # Checked before the memo lookup, where an equal tuple or float Position would find another call's scores.
    if start is not None:
        check_start(start)
    params = params or SimParams()
    plans = [resolve_planner(planner)[1] for planner in planners]
    if isinstance(arena, TerrainMap):
        scores = {}
        maps = [(None, arena)]
    else:
        key = (arena, start, params)
        scores = _memo.get(key)
        if scores is None:
            _memo.clear()
            scores = _memo[key] = {}
        gen = arena.gen
        # The range is built here, so a float n_maps or seed0 fails before any memoised score is read.
        maps = (
            (seed, generate_map(gen.width, gen.height, gen.obstacle_density, seed, max_level=gen.max_level))
            for seed in range(arena.seed0, arena.seed0 + arena.n_maps)
        )
    missing = {plan: planner for plan, planner in zip(plans, planners) if plan not in scores}
    if missing or not planners:
        found = {plan: [] for plan in missing}
        for seed, tmap in maps:
            # Checked after the first map exists, so a generation error is reported first.
            if not planners:
                raise ValueError("compare needs at least one planner")
            origin = tmap.first_free() if start is None else start
            for plan, planner in missing.items():
                try:
                    result = run(tmap, planner, start=origin, params=params)
                except StartBlocked as exc:
                    if seed is None:
                        raise
                    raise StartBlocked(f"{exc} on the map of seed {seed}") from None
                found[plan].append(_score(result))
        scores.update(found)
    columns = [scores[plan] for plan in plans]
    wins = [0] * len(planners)
    for row in zip(*columns):
        wins[_winner(row)] += 1
    totals = [[energy for energy, _ in column] for column in columns]
    return totals, wins, [all(done for _, done in column) for column in columns]


def compare(
    tmap: TerrainMap,
    planners: Sequence[PlannerRef] = DEFAULT_PLANNERS,
    start: Position | None = None,
    params: SimParams | None = None,
    map_label: str = "",
) -> ComparisonReport:
    """Run every planner with identical inputs and pick the winner."""
    if not planners:
        raise ValueError("compare needs at least one planner")
    params = params or SimParams()
    origin = tmap.first_free() if start is None else start
    runs = tuple(
        (resolve_planner(planner)[0], run(tmap, planner, start=origin, params=params)) for planner in planners
    )
    winner = runs[_winner([_score(result) for _, result in runs])][0]
    return ComparisonReport(map_label=map_label, start=origin, params=params, runs=runs, winner=winner)


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
