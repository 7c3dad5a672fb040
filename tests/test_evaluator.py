import csv
import gc
import io
import sys
import threading
import weakref
from dataclasses import replace
from xml.dom import minidom

import oracles
import pytest

from refmodel import evaluator, planners
from refmodel.errors import DuplicateId, NoAlternatives, StartBlocked
from refmodel.evaluator import (
    DEFAULT_PLANNERS,
    EnsembleSpec,
    compare,
    comparison_to_csv,
    comparison_to_table,
    ensemble,
    ensemble_to_csv,
    ensemble_to_table,
    paths_svg,
    rank_configurations,
    ranking_to_csv,
    remaining_chart_svg,
)
from refmodel.planners import PlannerId, plan_edge_follow, plan_terrain_aware, register_planner, resolve_planner
from refmodel.repository import BlockAsset, add_asset, adopt
from refmodel.simulation import SimParams, Termination, run
from refmodel.terrain import GenParams, Position, generate_map, load_map


class TestCompare:
    def test_reference_map_winner_is_terrain_aware(self, ridge_map):
        report = compare(ridge_map)
        assert report.winner == "terrain_aware"
        totals = {name: result.total_consumed for name, result in report.runs}
        assert totals["terrain_aware"] < totals["edge_follow"]

    def test_flat_map_tie_goes_to_edge_follow(self):
        tmap = load_map("000\n000")
        report = compare(tmap)
        totals = [result.total_consumed for _, result in report.runs]
        assert totals[0] == totals[1]
        assert report.winner == "edge_follow"

    def test_single_planner_wins(self, ridge_map):
        report = compare(ridge_map, [PlannerId.EDGE_FOLLOW])
        assert report.winner == "edge_follow"

    def test_winner_total_is_minimal_among_complete(self, ridge_map):
        report = compare(ridge_map)
        winner_total = dict((n, r.total_consumed) for n, r in report.runs)[report.winner]
        for name, result in report.runs:
            if result.terminated is Termination.PATH_COMPLETE:
                assert winner_total <= result.total_consumed

    def test_depleted_run_cannot_beat_complete_run(self, ridge_map):
        # tiny battery: terrain_aware dies early with low total, edge_follow survives
        report = compare(
            ridge_map,
            [PlannerId.TERRAIN_AWARE, PlannerId.EDGE_FOLLOW],
            params=SimParams(capacity=25.0),
        )
        by_name = dict(report.runs)
        assert by_name["edge_follow"].terminated is Termination.BATTERY_DEPLETED
        assert by_name["terrain_aware"].terminated is Termination.PATH_COMPLETE
        assert report.winner == "terrain_aware"

    def test_winner_invariant_under_factor_scaling(self, ridge_map):
        baseline = compare(ridge_map, params=SimParams(consumption_factor=1.0))
        scaled = compare(ridge_map, params=SimParams(consumption_factor=7.5, capacity=10000.0))
        assert baseline.winner == scaled.winner

    def test_no_planners_rejected(self, ridge_map):
        with pytest.raises(ValueError):
            compare(ridge_map, [])


class TestEnsemble:
    def test_single_map_matches_compare(self):
        gen = GenParams(width=8, height=6, obstacle_density=0.1)
        stats = ensemble(gen, 1, seed0=3)
        report = compare(generate_map(8, 6, 0.1, 3))
        for entry in stats.per_planner:
            run_total = dict(report.runs)[entry.planner].total_consumed
            assert entry.mean_total == entry.min_total == entry.max_total == run_total
            assert entry.wins == (1 if entry.planner == report.winner else 0)

    def test_reproducible_for_fixed_seed(self):
        gen = GenParams(width=10, height=8, obstacle_density=0.2)
        assert ensemble(gen, 5, seed0=7) == ensemble(gen, 5, seed0=7)

    def test_win_counts_sum_to_n_maps(self):
        gen = GenParams(width=9, height=7, obstacle_density=0.15)
        stats = ensemble(gen, 6, seed0=0)
        assert sum(entry.wins for entry in stats.per_planner) == 6

    def test_flat_generator_ties_go_to_edge_follow(self):
        gen = GenParams(width=7, height=5, obstacle_density=0.0, max_level=0)
        stats = ensemble(gen, 4, seed0=0)
        edge, aware = stats.per_planner
        assert (edge.planner, aware.planner) == ("edge_follow", "terrain_aware")
        assert edge.mean_total == aware.mean_total
        assert edge.wins == 4
        assert aware.wins == 0

    def test_needs_at_least_one_map(self):
        with pytest.raises(ValueError):
            ensemble(GenParams(), 0)

    def test_blocked_start_names_the_map_seed(self):
        """A start blocked on one generated map fails the run, naming that map's seed for replay.

        The maps and runs of the failed call leave the next calls unchanged.
        """
        gen = GenParams(obstacle_density=0.5)
        for _ in range(2):
            with pytest.raises(StartBlocked, match=r"^start \(0, 0\) is not a free cell on the map of seed 1$"):
                ensemble(gen, 3, start=Position(0, 0))
            assert ensemble(gen, 3) == oracles.ensemble(gen, 3, DEFAULT_PLANNERS)

    def test_repeated_planner_mean_is_per_run(self):
        gen = GenParams(width=6, height=5)
        single = ensemble(gen, 3, ["edge_follow"], seed0=4).per_planner[0]
        repeated = ensemble(gen, 3, ["edge_follow", "edge_follow"], seed0=4).per_planner
        for stats in repeated:
            assert stats.min_total <= stats.mean_total <= stats.max_total
            assert stats.mean_total == pytest.approx(single.mean_total)
        assert sum(stats.wins for stats in repeated) == 3


class TestRankConfigurations:
    def test_ridge_map_ranks_terrain_aware_first(self, demo_model, demo_repo, ridge_map):
        ranked = rank_configurations(demo_model, demo_repo, "alg.edge_follow", ridge_map)
        assert [entry.block_id for entry in ranked] == ["alg.terrain_aware", "alg.edge_follow"]
        assert ranked[0].score < ranked[1].score
        assert all(entry.completed for entry in ranked)

    def test_singleton_ranking_without_matches(self, demo_model, ridge_map):
        from refmodel.repository import ReferenceRepository

        ranked = rank_configurations(demo_model, ReferenceRepository(), "alg.edge_follow", ridge_map)
        assert len(ranked) == 1
        assert ranked[0].block_id == "alg.edge_follow"

    def test_replacement_already_in_model_rejected(self, demo_model, demo_repo, ridge_map):
        model = adopt(demo_repo, "alg.terrain_aware", demo_model)
        message = "^cannot swap 'alg.edge_follow' for 'alg.terrain_aware': id already present in model$"
        with pytest.raises(DuplicateId, match=message):
            rank_configurations(model, demo_repo, "alg.edge_follow", ridge_map)

    def test_non_algorithm_slot_rejected(self, demo_model, demo_repo, ridge_map):
        with pytest.raises(NoAlternatives):
            rank_configurations(demo_model, demo_repo, "svc.mowing", ridge_map)

    @pytest.mark.parametrize("n_maps", [0, -2])
    def test_empty_ensemble_arena_rejected(self, demo_model, demo_repo, n_maps):
        with pytest.raises(ValueError, match="at least one map"):
            rank_configurations(
                demo_model, demo_repo, "alg.edge_follow", EnsembleSpec(GenParams(), n_maps)
            )

    def test_ensemble_arena(self, demo_model, demo_repo):
        arena = EnsembleSpec(gen=GenParams(width=6, height=5, obstacle_density=0.1), n_maps=3, seed0=2)
        ranked = rank_configurations(demo_model, demo_repo, "alg.edge_follow", arena)
        assert len(ranked) == 2
        assert ranked[0].score <= ranked[1].score

    def test_blocked_start_names_the_map_seed(self, demo_model, demo_repo):
        arena = EnsembleSpec(GenParams(obstacle_density=0.5), n_maps=2, seed0=1)
        with pytest.raises(StartBlocked, match=r"^start \(0, 0\) is not a free cell on the map of seed 1$"):
            rank_configurations(demo_model, demo_repo, "alg.edge_follow", arena, start=Position(0, 0))

    def test_depleted_configuration_ranked_last(self, demo_model, demo_repo, ridge_map):
        ranked = rank_configurations(
            demo_model, demo_repo, "alg.edge_follow", ridge_map, params=SimParams(capacity=25.0)
        )
        assert ranked[0].completed
        assert not ranked[-1].completed
        assert ranked[-1].block_id == "alg.edge_follow"


class TestRendering:
    def test_csv_and_table_deterministic(self, ridge_map):
        report = compare(ridge_map, map_label="reference")
        assert comparison_to_csv(report) == comparison_to_csv(report)
        assert comparison_to_table(report) == comparison_to_table(report)
        csv_text = comparison_to_csv(report)
        assert csv_text.splitlines()[0] == "planner,steps_completed,total_consumed,terminated,winner"
        assert len(csv_text.splitlines()) == 3

    def test_ensemble_renderings(self):
        stats = ensemble(GenParams(width=6, height=5, obstacle_density=0.1), 2, seed0=1)
        csv_text = ensemble_to_csv(stats)
        assert csv_text.splitlines()[0] == "planner,mean_total,min_total,max_total,wins,n_maps"
        assert "edge_follow" in ensemble_to_table(stats)

    def test_ranking_csv(self, demo_model, demo_repo, ridge_map):
        ranked = rank_configurations(demo_model, demo_repo, "alg.edge_follow", ridge_map)
        text = ranking_to_csv(ranked)
        assert text.splitlines()[0] == "rank,block_id,planner,score,completed"
        assert text.splitlines()[1].startswith("1,alg.terrain_aware,terrain_aware,")

    def test_svg_outputs_well_formed(self, ridge_map):
        report = compare(ridge_map)
        chart = remaining_chart_svg(report)
        grid = paths_svg(ridge_map, report)
        for svg in (chart, grid):
            assert svg.startswith("<svg")
            assert svg.rstrip().endswith("</svg>")
        assert chart.count("<polyline") == 2
        assert grid.count("<rect") == ridge_map.width * ridge_map.height


# Planner names and block ids that need quoting in CSV or escaping in SVG.
AWKWARD_NAMES = ("a,b", 'say "hi"', "two\nlines", "cr\rhere", "a<b&c>")


@pytest.fixture()
def awkward_planners(monkeypatch):
    """AWKWARD_NAMES registered as planners, each running edge_follow."""
    for name in AWKWARD_NAMES:
        monkeypatch.setitem(planners._REGISTRY, name, planners.plan_edge_follow)
    return AWKWARD_NAMES


def _csv_rows(text):
    return list(csv.reader(io.StringIO(text, newline="")))


class TestOneWinnerMark:
    REPEATED = ("terrain_aware", "edge_follow", "terrain_aware")

    def test_repeated_planner_marked_once(self, ridge_map):
        report = compare(ridge_map, self.REPEATED)
        assert report.winner == "terrain_aware"
        table_rows = comparison_to_table(report).splitlines()[3:]
        assert [row.endswith(" *") for row in table_rows] == [True, False, False]
        assert [row[-1] for row in _csv_rows(comparison_to_csv(report))[1:]] == ["1", "0", "0"]

    def test_marks_agree_with_ensemble_wins(self):
        gen = GenParams(width=7, height=6, obstacle_density=0.2)
        planner_list = ("edge_follow", "terrain_aware", "edge_follow", "terrain_aware")
        marks = [0] * len(planner_list)
        for seed in range(8):
            report = compare(_generate(gen, seed), planner_list)
            for index, row in enumerate(_csv_rows(comparison_to_csv(report))[1:]):
                marks[index] += int(row[-1])
        stats = ensemble(gen, 8, planner_list)
        assert marks == [entry.wins for entry in stats.per_planner]
        assert sum(marks) == 8


class TestAwkwardNames:
    def test_comparison_csv_quotes_names(self, ridge_map, awkward_planners):
        report = compare(ridge_map, awkward_planners)
        rows = _csv_rows(comparison_to_csv(report))
        assert [len(row) for row in rows] == [5] * (1 + len(awkward_planners))
        assert [row[0] for row in rows[1:]] == list(awkward_planners)

    def test_ensemble_csv_quotes_names(self, awkward_planners):
        stats = ensemble(GenParams(width=6, height=5, obstacle_density=0.1), 2, awkward_planners)
        rows = _csv_rows(ensemble_to_csv(stats))
        assert [len(row) for row in rows] == [6] * (1 + len(awkward_planners))
        assert [row[0] for row in rows[1:]] == list(awkward_planners)

    def test_ranking_csv_quotes_names(self, demo_model, demo_repo, ridge_map, awkward_planners):
        """Both the block id and the planner name are quoted where needed."""
        base = demo_repo.asset("alg.edge_follow").block
        repo = add_asset(demo_repo, BlockAsset(replace(base, id='alg.x,"y"')))
        for index, name in enumerate(awkward_planners):
            parameters = {**base.parameters, "algorithm": name}
            block = replace(base, id=f"alg.x{index},{name}", parameters=parameters)
            repo = add_asset(repo, BlockAsset(block))
        ranked = rank_configurations(demo_model, repo, "alg.edge_follow", ridge_map)
        rows = _csv_rows(ranking_to_csv(ranked))
        assert [len(row) for row in rows] == [5] * (1 + len(ranked))
        assert [(row[1], row[2]) for row in rows[1:]] == [(e.block_id, e.planner) for e in ranked]

    def test_plain_names_stay_unquoted(self, ridge_map):
        assert '"' not in comparison_to_csv(compare(ridge_map))

    def test_svg_escapes_names(self, ridge_map, awkward_planners):
        """Each name parses back unchanged, a CR included (a raw CR would read back as LF)."""
        report = compare(ridge_map, awkward_planners)
        for svg in (remaining_chart_svg(report), paths_svg(ridge_map, report)):
            document = minidom.parseString(svg)
            nodes = [node for tag in ("text", "title") for node in document.getElementsByTagName(tag)]
            texts = [node.firstChild.data for node in nodes]
            assert texts[-len(awkward_planners):] == list(awkward_planners)


SEEDS = range(30)
HILLY = GenParams(width=7, height=6, obstacle_density=0.2)
# No obstacles, so a start override is free on every generated map.
OPEN = GenParams(width=6, height=5, obstacle_density=0.0)
OPEN_START = Position(3, 4)
PLANNER_LISTS = (
    (PlannerId.EDGE_FOLLOW, PlannerId.TERRAIN_AWARE),
    ("terrain_aware", "edge_follow"),
    ("edge_follow", "terrain_aware", "edge_follow"),
)
# At capacity 48 most runs on the 7x6 maps deplete, and on some maps the
# depleted run has spent less than the complete one.
PARAMS = (SimParams(), SimParams(capacity=48.0))


def _generate(gen, seed):
    return generate_map(gen.width, gen.height, gen.obstacle_density, seed, max_level=gen.max_level)


@pytest.fixture()
def sweep_twin_repo(demo_repo):
    """The demo repository plus a second edge_follow block, so two alternatives always tie."""
    twin = replace(demo_repo.asset("alg.edge_follow").block, id="alg.a_sweep")
    return add_asset(demo_repo, BlockAsset(twin))


class TestMatchesReference:
    """The shared evaluation core against the separate loops it replaced (tests/oracles.py)."""

    @pytest.mark.parametrize("params", PARAMS)
    @pytest.mark.parametrize("planners", PLANNER_LISTS)
    def test_compare(self, planners, params):
        overruled = 0
        (other,) = (p for p in PARAMS if p != params)
        for seed in SEEDS:
            tmap = _generate(HILLY, seed)
            label = f"seed={seed}"
            # The same map evaluated with other params first must not lend its runs.
            compare(tmap, planners, params=other)
            report = compare(tmap, planners, params=params, map_label=label)
            assert report == oracles.compare(tmap, planners, params=params, map_label=label)
            totals = [result.total_consumed for _, result in report.runs]
            overruled += dict(report.runs)[report.winner].total_consumed > min(totals)
        # Only at the low capacity does a complete run beat a cheaper depleted one.
        assert (overruled > 0) == (params.capacity < 100)

    @pytest.mark.parametrize("planners", PLANNER_LISTS)
    def test_compare_with_start_override(self, planners):
        for seed in SEEDS:
            tmap = _generate(OPEN, seed)
            assert compare(tmap, planners) == oracles.compare(tmap, planners)
            report = compare(tmap, planners, start=OPEN_START)
            assert report.start == OPEN_START
            assert report == oracles.compare(tmap, planners, start=OPEN_START)

    @pytest.mark.parametrize("params", PARAMS)
    @pytest.mark.parametrize("planners", PLANNER_LISTS)
    def test_ensemble(self, planners, params):
        assert ensemble(HILLY, len(SEEDS), planners, params=params, seed0=4) == oracles.ensemble(
            HILLY, len(SEEDS), planners, params=params, seed0=4
        )
        # The same seed with another max_level is another map.
        flatter = replace(HILLY, max_level=1)
        for seed in SEEDS[:5]:
            assert ensemble(HILLY, 1, planners, params=params, seed0=seed) == oracles.ensemble(
                HILLY, 1, planners, params=params, seed0=seed
            )
            assert ensemble(flatter, 1, planners, params=params, seed0=seed) == oracles.ensemble(
                flatter, 1, planners, params=params, seed0=seed
            )

    def test_ensemble_with_start_override(self):
        planners = PLANNER_LISTS[0]
        assert ensemble(OPEN, len(SEEDS), planners, start=OPEN_START) == oracles.ensemble(
            OPEN, len(SEEDS), planners, start=OPEN_START
        )

    @pytest.mark.parametrize("params", PARAMS)
    def test_rank_over_single_maps(self, demo_model, sweep_twin_repo, params):
        # Each map follows another map of the same shape.
        for seed in SEEDS:
            tmap = _generate(HILLY, seed)
            ranked = rank_configurations(demo_model, sweep_twin_repo, "alg.edge_follow", tmap, params=params)
            assert ranked == oracles.rank_configurations(
                demo_model, sweep_twin_repo, "alg.edge_follow", tmap, params=params
            )

    @pytest.mark.parametrize("params", PARAMS)
    @pytest.mark.parametrize("n_maps", (1, 3, len(SEEDS)))
    def test_rank_over_ensemble(self, demo_model, sweep_twin_repo, params, n_maps):
        arena = EnsembleSpec(HILLY, n_maps, seed0=2)
        ranked = rank_configurations(demo_model, sweep_twin_repo, "alg.edge_follow", arena, params=params)
        assert ranked == oracles.rank_configurations(
            demo_model, sweep_twin_repo, "alg.edge_follow", arena, params=params
        )
        # The two edge_follow blocks tie exactly and break by block id.
        ids = [entry.block_id for entry in ranked]
        assert ids.index("alg.a_sweep") < ids.index("alg.edge_follow")

    def test_reregistered_planner_takes_effect_on_the_next_call(self, demo_model, demo_repo):
        arena = EnsembleSpec(HILLY, 1, seed0=5)
        ensemble(HILLY, 1, seed0=5)
        register_planner("edge_follow", plan_terrain_aware, overwrite=True)
        try:
            assert ensemble(HILLY, 1, seed0=5) == oracles.ensemble(HILLY, 1, DEFAULT_PLANNERS, seed0=5)
            ranked = rank_configurations(demo_model, demo_repo, "alg.edge_follow", arena)
            assert ranked == oracles.rank_configurations(demo_model, demo_repo, "alg.edge_follow", arena)
            assert ranked[0].score == ranked[1].score
        finally:
            register_planner("edge_follow", plan_edge_follow, overwrite=True)

    def test_rank_with_start_override(self, demo_model, sweep_twin_repo):
        for arena in (_generate(OPEN, 9), EnsembleSpec(OPEN, len(SEEDS))):
            assert rank_configurations(
                demo_model, sweep_twin_repo, "alg.edge_follow", arena, start=OPEN_START
            ) == oracles.rank_configurations(
                demo_model, sweep_twin_repo, "alg.edge_follow", arena, start=OPEN_START
            )


@pytest.fixture()
def generated_seeds(monkeypatch):
    """Seeds of the maps the evaluator generates, appended as each is generated."""
    seeds = []
    original = evaluator.generate_map

    def counting(width, height, density, seed, **kwargs):
        seeds.append(seed)
        return original(width, height, density, seed, **kwargs)

    monkeypatch.setattr(evaluator, "generate_map", counting)
    return seeds


def test_rank_generates_each_map_once(demo_model, demo_repo, generated_seeds):
    rank_configurations(demo_model, demo_repo, "alg.edge_follow", EnsembleSpec(HILLY, 4, seed0=7))
    assert generated_seeds == [7, 8, 9, 10]


@pytest.fixture()
def planner_calls():
    """Names of the built-in planners, appended as each is called; the registry is restored afterwards."""
    calls = []

    def counted(name, plan):
        def planner(tmap, start):
            calls.append(name)
            return plan(tmap, start)

        return planner

    originals = [resolve_planner(planner) for planner in DEFAULT_PLANNERS]
    for name, plan in originals:
        register_planner(name, counted(name, plan), overwrite=True)
    try:
        yield calls
    finally:
        for name, plan in originals:
            register_planner(name, plan, overwrite=True)


def test_ensemble_then_rank_plans_each_map_once(demo_model, demo_repo, generated_seeds, planner_calls):
    """The benchmark's evaluate_maps step: rank over the one-map ensemble just evaluated reuses its runs."""
    stats = ensemble(HILLY, 1, seed0=3)
    ranked = rank_configurations(demo_model, demo_repo, "alg.edge_follow", EnsembleSpec(HILLY, 1, 3))
    assert generated_seeds == [3]
    assert sorted(planner_calls) == ["edge_follow", "terrain_aware"]
    means = {entry.planner: entry.mean_total for entry in stats.per_planner}
    assert [entry.score for entry in ranked] == [means[entry.planner] for entry in ranked]


def test_arena_scores_are_reused_at_any_size(demo_model, demo_repo, generated_seeds, planner_calls):
    """Rank over a four-map ensemble just evaluated generates and plans nothing again; another start,
    params or seed0 runs every map again, and a TerrainMap arena is planned on every call."""
    stats = ensemble(HILLY, 4, seed0=3)
    ranked = rank_configurations(demo_model, demo_repo, "alg.edge_follow", EnsembleSpec(HILLY, 4, 3))
    assert generated_seeds == [3, 4, 5, 6]
    assert len(planner_calls) == 8
    means = {entry.planner: entry.mean_total for entry in stats.per_planner}
    assert [entry.score for entry in ranked] == [means[entry.planner] for entry in ranked]
    tmaps = [_generate(HILLY, seed) for seed in range(3, 8)]
    free = next(pos for pos in tmaps[0].free_positions() if all(tmap.is_free(pos) for tmap in tmaps))
    variants = (({"start": free}, [3, 4, 5, 6]), ({"params": PARAMS[1]}, [3, 4, 5, 6]), ({}, [4, 5, 6, 7]))
    for changed, seeds in variants:
        generated_seeds.clear()
        planner_calls.clear()
        stats = ensemble(HILLY, 4, seed0=seeds[0], **changed)
        assert generated_seeds == seeds
        assert len(planner_calls) == 8
        assert stats == oracles.ensemble(HILLY, 4, DEFAULT_PLANNERS, seed0=seeds[0], **changed)
    planner_calls.clear()
    compare(tmaps[0])
    compare(tmaps[0])
    assert len(planner_calls) == 4


def test_ensemble_keeps_at_most_one_map(monkeypatch, demo_model, demo_repo):
    """A map is gone before the map after next is generated, and no generated map or run outlives
    ensemble or rank_configurations; rank over the sixteen maps just evaluated generates none."""
    maps, runs = [], []
    generate, simulate = evaluator.generate_map, evaluator.run

    def generating(*args, **kwargs):
        gc.collect()
        assert all(ref() is None for ref in maps[:-1])
        tmap = generate(*args, **kwargs)
        maps.append(weakref.ref(tmap))
        return tmap

    def running(*args, **kwargs):
        result = simulate(*args, **kwargs)
        runs.append(weakref.ref(result))
        return result

    monkeypatch.setattr(evaluator, "generate_map", generating)
    monkeypatch.setattr(evaluator, "run", running)
    ensemble(HILLY, 16, seed0=3)
    gc.collect()
    assert len(maps) == 16 and len(runs) == 32
    assert all(ref() is None for ref in maps + runs)
    rank_configurations(demo_model, demo_repo, "alg.edge_follow", EnsembleSpec(HILLY, 16, 3))
    assert len(maps) == 16 and len(runs) == 32
    rank_configurations(demo_model, demo_repo, "alg.edge_follow", EnsembleSpec(HILLY, 4, 30))
    gc.collect()
    assert len(maps) == 20 and len(runs) == 40
    assert all(ref() is None for ref in maps + runs)


@pytest.mark.parametrize(
    "good, bad",
    [
        (lambda: ensemble(GenParams(width=8, height=6), 1), lambda: ensemble(GenParams(width=8.0, height=6), 1)),
        (lambda: ensemble(HILLY, 2), lambda: ensemble(HILLY, 2.0)),
        (lambda: ensemble(HILLY, 1, seed0=3), lambda: ensemble(HILLY, 1, seed0=3.0)),
        (lambda: ensemble(OPEN, 1, start=Position(0, 0)), lambda: ensemble(OPEN, 1, start=(0, 0))),
        (lambda: ensemble(OPEN, 1, start=Position(0, 0)), lambda: ensemble(OPEN, 1, start=Position(0.0, 0))),
    ],
    ids=["width", "n_maps", "seed0", "start_tuple", "start_float"],
)
def test_equal_arguments_of_another_type_are_rejected_in_either_order(good, bad):
    """A value equal to an accepted one but of another type never finds the accepted call's memoised scores."""
    with pytest.raises(TypeError):
        bad()
    good()
    with pytest.raises(TypeError):
        bad()


@pytest.mark.parametrize("start", [(1, 1), Position(1.0, 1)], ids=["tuple", "float"])
@pytest.mark.parametrize(
    "call",
    [
        lambda tmap, start, model, repo: compare(tmap, start=start),
        lambda tmap, start, model, repo: run(tmap, "edge_follow", start=start),
        lambda tmap, start, model, repo: plan_edge_follow(tmap, start),
        lambda tmap, start, model, repo: plan_terrain_aware(tmap, start),
        lambda tmap, start, model, repo: ensemble(OPEN, 1, start=start),
        lambda tmap, start, model, repo: rank_configurations(model, repo, "alg.edge_follow", tmap, start=start),
    ],
    ids=["compare", "run", "edge_follow", "terrain_aware", "ensemble", "rank_configurations"],
)
def test_a_start_that_is_not_a_position_of_ints_is_one_type_error_everywhere(
    call, start, ridge_map, demo_model, demo_repo
):
    with pytest.raises(TypeError, match=r"^start must be a Position of ints, not "):
        call(ridge_map, start, demo_model, demo_repo)


def test_concurrent_callers_get_their_own_results():
    """Threads evaluating different arenas at once each get the result of their own arena."""
    arenas = [(HILLY, 0), (OPEN, 0), (HILLY, 1), (replace(HILLY, max_level=1), 0)]
    expected = [oracles.ensemble(gen, 2, DEFAULT_PLANNERS, seed0=seed0) for gen, seed0 in arenas]
    results = [[] for _ in arenas]

    def work(index):
        gen, seed0 = arenas[index]
        for _ in range(5):
            results[index].append(ensemble(gen, 2, seed0=seed0))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(index,)) for index in range(len(arenas))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[stats] * 5 for stats in expected]
