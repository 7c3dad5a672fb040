import random
import statistics

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from genmodels import one_wide_maps, terrain_case
from oracles import flood_fill, min_coverage_energy
from refmodel.core import BlockKind, BuildingBlock, ConcernLayer
from refmodel.errors import StartBlocked, UnknownElement
from refmodel.planners import (
    Path,
    PlannerId,
    plan_edge_follow,
    plan_terrain_aware,
    register_planner,
    resolve_planner,
    select_adaptive,
)
from refmodel.simulation import power_consumption
from refmodel.terrain import Position, generate_map, load_map

PLANNERS = (plan_edge_follow, plan_terrain_aware)


def outcome(planner, tmap, start):
    """The planned path, or the message of the StartBlocked it raised."""
    try:
        return planner(tmap, start)
    except StartBlocked as exc:
        return f"StartBlocked: {exc}"


def relocation_lengths(path):
    """The step count of every move or hop that ends on a newly visited cell."""
    seen = {path.start}
    since = 0
    for pos in path.steps:
        since += 1
        if pos not in seen:
            seen.add(pos)
            yield since
            since = 0


def path_is_valid(tmap, path):
    positions = path.positions
    for pos in positions:
        if not tmap.is_free(pos):
            return False
    return all(
        abs(a.row - b.row) + abs(a.col - b.col) == 1 for a, b in zip(positions, positions[1:])
    )


class TestEdgeFollow:
    def test_single_strip_forced_path(self):
        tmap = load_map("0000")
        path = plan_edge_follow(tmap, Position(0, 0))
        assert path.positions == tuple(Position(0, c) for c in range(4))
        assert path.num_steps == 3

    def test_three_by_three_perfect_sweep(self):
        tmap = load_map("000\n000\n000")
        path = plan_edge_follow(tmap, Position(0, 0))
        assert path.num_steps == 8
        assert path.positions == (
            Position(0, 0), Position(0, 1), Position(0, 2),
            Position(1, 2), Position(1, 1), Position(1, 0),
            Position(2, 0), Position(2, 1), Position(2, 2),
        )

    def test_start_on_obstacle(self):
        tmap = load_map("X0")
        with pytest.raises(StartBlocked):
            plan_edge_follow(tmap, Position(0, 0))

    def test_relocation_around_obstacle(self):
        tmap = load_map("000\n0X0\n000")
        path = plan_edge_follow(tmap, Position(0, 0))
        assert set(path.positions) == flood_fill(tmap, Position(0, 0))


class TestTerrainAware:
    def test_flat_map_costs_equal_steps(self):
        tmap = load_map("1111\n1111")
        path = plan_terrain_aware(tmap, Position(0, 0))
        consumption = power_consumption(path, tmap)
        assert consumption == [1.0] * path.num_steps

    def test_prefers_level_neighbor_over_climb(self):
        # start between a +1 neighbor (east) and a level neighbor (south)
        tmap = load_map("01\n00")
        path = plan_terrain_aware(tmap, Position(0, 0))
        assert path.steps[0] == Position(1, 0)

    def test_prefers_downhill_over_level(self):
        tmap = load_map("10\n11")
        path = plan_terrain_aware(tmap, Position(0, 0))
        assert path.steps[0] == Position(0, 1)

    def test_start_on_obstacle(self):
        tmap = load_map("X0")
        with pytest.raises(StartBlocked):
            plan_terrain_aware(tmap, Position(0, 0))

    def test_relocation_is_minimum_energy(self):
        # after mowing the left flank the planner must climb the ridge once
        tmap = load_map("030\n030")
        path = plan_terrain_aware(tmap, Position(0, 0))
        total = sum(power_consumption(path, tmap))
        assert total >= min_coverage_energy(tmap, Position(0, 0))


class TestCoverageProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 14), st.integers(1, 14))
    def test_visited_equals_reachable(self, seed, width, height):
        tmap = generate_map(width, height, 0.25, seed)
        start = tmap.first_free()
        oracle = flood_fill(tmap, start)
        for planner in PLANNERS:
            path = planner(tmap, start)
            assert set(path.positions) == oracle
            assert path_is_valid(tmap, path)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_deterministic(self, seed):
        tmap = generate_map(10, 8, 0.2, seed)
        start = tmap.first_free()
        for planner in PLANNERS:
            assert planner(tmap, start) == planner(tmap, start)

    def test_tiny_maps_respect_oracle_bound(self):
        fixtures = ["030", "0\n3\n0", "01\n23", "030\n030", "0123", "31\n02\n10"]
        for text in fixtures:
            tmap = load_map(text)
            start = Position(0, 0)
            best = min_coverage_energy(tmap, start)
            for planner in PLANNERS:
                total = sum(power_consumption(planner(tmap, start), tmap))
                assert total >= best - 1e-9


class TestMatchesReference:
    """Both planners plan exactly the paths of the two-loop planners they replaced."""

    @pytest.mark.parametrize(
        "planner, reference",
        [
            (plan_edge_follow, oracles.plan_edge_follow),
            (plan_terrain_aware, oracles.plan_terrain_aware),
        ],
        ids=["edge_follow", "terrain_aware"],
    )
    def test_paths_equal(self, planner, reference):
        blocked = relocated = partial = 0
        for seed in range(240):
            tmap, starts = terrain_case(seed)
            for start in starts:
                expected = outcome(reference, tmap, start)
                assert outcome(planner, tmap, start) == expected, (seed, start)
                if isinstance(expected, str):
                    blocked += 1
                    continue
                visited = len(set(expected.positions))
                relocated += visited <= expected.num_steps
                partial += visited < len(list(tmap.free_positions()))
        # the cases reach blocked starts, relocations and unreachable free cells
        assert min(blocked, relocated, partial) > 20

    @pytest.mark.parametrize(
        "planner, reference",
        [
            (plan_edge_follow, oracles.plan_edge_follow),
            (plan_terrain_aware, oracles.plan_terrain_aware),
        ],
        ids=["edge_follow", "terrain_aware"],
    )
    def test_paths_equal_at_benchmark_scale(self, planner, reference):
        """On 32x32 maps at density 0.2, as the benchmark plans, and one 64x64 map, where relocations are long."""
        maps = [(seed, generate_map(32, 32, 0.2, seed)) for seed in range(5)] + [(7, generate_map(64, 64, 0.3, 7))]
        long_relocations = 0
        for seed, tmap in maps:
            free = list(tmap.free_positions())
            for start in (free[0], random.Random(seed).choice(free)):
                expected = reference(tmap, start)
                assert planner(tmap, start) == expected, (seed, start)
                long_relocations += sum(hops >= 10 for hops in relocation_lengths(expected))
        # the cases reach relocations of 10 hops and more
        assert long_relocations > 100

    def test_ridge_paths_equal(self, ridge_map):
        start = ridge_map.first_free()
        assert plan_edge_follow(ridge_map, start) == oracles.plan_edge_follow(ridge_map, start)
        assert plan_terrain_aware(ridge_map, start) == oracles.plan_terrain_aware(ridge_map, start)


class TestOneWideMaps:
    """On 1xN and Nx1 maps both planners match the reference from every cell, blocked ones included."""

    @pytest.mark.parametrize(
        "planner, reference",
        [
            (plan_edge_follow, oracles.plan_edge_follow),
            (plan_terrain_aware, oracles.plan_terrain_aware),
        ],
        ids=["edge_follow", "terrain_aware"],
    )
    def test_paths_equal_from_every_cell(self, planner, reference):
        for tmap in one_wide_maps():
            for start in (Position(r, c) for r in range(tmap.height) for c in range(tmap.width)):
                assert outcome(planner, tmap, start) == outcome(reference, tmap, start), (tmap.cells, start)


class TestAdaptiveSelection:
    def test_flat_map_picks_edge_follow(self):
        assert select_adaptive(load_map("000\n000")) is PlannerId.EDGE_FOLLOW

    def test_checkerboard_picks_terrain_aware(self):
        tmap = load_map("0303\n3030\n0303")
        levels = [tmap.cells[pos.row][pos.col] for pos in tmap.free_positions()]
        assert statistics.pvariance(levels) == pytest.approx(2.25)
        assert select_adaptive(tmap) is PlannerId.TERRAIN_AWARE

    def test_single_cell_picks_edge_follow(self):
        assert select_adaptive(load_map("2")) is PlannerId.EDGE_FOLLOW

    def test_variance_must_exceed_threshold(self):
        # Free-cell variances 0.25 (equal to DEFAULT_VARIANCE_THRESHOLD) and 1.0.
        assert select_adaptive(load_map("01")) is PlannerId.EDGE_FOLLOW
        assert select_adaptive(load_map("02")) is PlannerId.TERRAIN_AWARE

    def test_variance_of_the_free_cells_in_row_major_order(self):
        """Obstacles are skipped, and the free cells' levels are summed in row-major order."""
        # variance 0.2562, just above the threshold
        hilly = load_map("0X010X1\n1111011\nX011X10\n1110111\n0X11210\n1X10101")
        assert select_adaptive(hilly) is PlannerId.TERRAIN_AWARE
        # Variance exactly 1/4: summed in row-major order it rounds to 0.24999999999999994, and in
        # column-major order to 0.25000000000000006, which would pick terrain_aware.
        assert select_adaptive(load_map("11210\nX1111\n11111\n12X22")) is PlannerId.EDGE_FOLLOW


class TestRegistry:
    def test_resolve_by_id_and_name(self):
        assert resolve_planner(PlannerId.EDGE_FOLLOW)[0] == "edge_follow"
        assert resolve_planner("terrain_aware")[1] is plan_terrain_aware

    def test_resolve_algorithm_block(self):
        block = BuildingBlock(
            "alg.x", "X", ConcernLayer.RESOURCE, BlockKind.ALGORITHM_BLOCK,
            parameters={"algorithm": "edge_follow"},
        )
        name, fn = resolve_planner(block)
        assert (name, fn) == ("edge_follow", plan_edge_follow)

    def test_non_algorithm_block_rejected(self):
        block = BuildingBlock("svc", "S", ConcernLayer.SERVICE, BlockKind.SERVICE)
        with pytest.raises(UnknownElement):
            resolve_planner(block)

    def test_unknown_name_rejected(self):
        with pytest.raises(UnknownElement):
            resolve_planner("antigravity")

    def test_register_custom_planner(self):
        def lazy(tmap, start):
            return plan_edge_follow(tmap, start)

        register_planner("lazy_test_planner", lazy, overwrite=True)
        assert resolve_planner("lazy_test_planner")[1] is lazy

    def test_register_refuses_silent_overwrite(self):
        with pytest.raises(ValueError):
            register_planner("edge_follow", plan_edge_follow)


def test_path_positions_start_with_the_start():
    path = Path(start=Position(0, 0), steps=(Position(0, 1), Position(1, 1)))
    assert path.positions == (Position(0, 0), Position(0, 1), Position(1, 1))
