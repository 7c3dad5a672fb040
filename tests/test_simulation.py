import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from genmodels import terrain_case
from refmodel.errors import InvalidPath, StartBlocked
from refmodel.planners import Path, PlannerId, register_planner, resolve_planner
from refmodel.simulation import (
    SimParams,
    Termination,
    power_consumption,
    power_state,
    run,
    sim_result_to_csv,
)
from refmodel.terrain import OBSTACLE, Position, TerrainMap, generate_map, load_map


def straight_path(length, row=0):
    return Path(start=Position(row, 0), steps=tuple(Position(row, c) for c in range(1, length + 1)))


class TestPowerConsumption:
    def test_flat_steps(self):
        tmap = load_map("0000")
        assert power_consumption(straight_path(3), tmap, 1.0) == [1.0, 1.0, 1.0]

    def test_level_deltas_map_to_factors(self):
        tmap = load_map("0110")
        consumption = power_consumption(straight_path(3), tmap, 1.0)
        assert consumption == [1.9, 1.0, 0.6]
        assert sum(consumption) == pytest.approx(3.5)

    def test_factor_scales_entries(self):
        tmap = load_map("0110")
        assert power_consumption(straight_path(3), tmap, 2.0) == [3.8, 2.0, 1.2]

    def test_path_over_obstacle_rejected(self):
        tmap = load_map("0X00")
        with pytest.raises(InvalidPath):
            power_consumption(straight_path(3), tmap, 1.0)

    def test_non_adjacent_step_rejected(self):
        tmap = load_map("0000")
        jumpy = Path(start=Position(0, 0), steps=(Position(0, 2),))
        with pytest.raises(InvalidPath):
            power_consumption(jumpy, tmap, 1.0)


def consumption_outcome(consume, path, tmap, factor):
    """The consumption series, or the message of the InvalidPath it raised."""
    try:
        return consume(path, tmap, factor)
    except InvalidPath as exc:
        return f"InvalidPath: {exc}"


def broken_paths(rng, tmap, path):
    """Variants of a valid path with one cell replaced, repeated or dropped, or a lone cell anywhere."""
    positions = list(path.positions)
    somewhere = Position(rng.randint(-1, tmap.height), rng.randint(-1, tmap.width))
    i = rng.randrange(len(positions))
    replaced = positions[:i] + [somewhere] + positions[i + 1 :]
    repeated = positions[: i + 1] + positions[i:]
    dropped = positions[:i] + positions[i + 1 :] or [somewhere]
    return [Path(start=p[0], steps=tuple(p[1:])) for p in ([somewhere], replaced, repeated, dropped)]


class TestConsumptionMatchesReference:
    def test_series_and_errors_equal(self):
        """power_consumption returns the same series and raises the same InvalidPath messages as
        the position-by-position check it replaced."""
        rejected = 0
        for seed in range(240):
            rng = random.Random(seed)
            tmap, starts = terrain_case(seed)
            path = oracles.plan_terrain_aware(tmap, starts[2])
            factor = rng.choice((1.0, 0.3, 1.7))
            for candidate in [path] + broken_paths(rng, tmap, path):
                expected = consumption_outcome(oracles.power_consumption, candidate, tmap, factor)
                assert consumption_outcome(power_consumption, candidate, tmap, factor) == expected
                rejected += isinstance(expected, str)
        assert rejected > 200


def bits(outcome):
    """A consumption series as the exact bits of its floats; an InvalidPath message as it is."""
    return outcome if isinstance(outcome, str) else [value.hex() for value in outcome]


def positions_of(planner):
    """A planner handing back the built-in planner's walk built from positions, as a registered planner may."""

    def plan(tmap, start):
        path = planner(tmap, start)
        return Path(start=path.start, steps=path.steps)

    return plan


class TestIndexAndPositionPaths:
    """A built-in planner's path of cell indices and the same walk built from positions are one path
    to equality, hashing, power_consumption and run, also when checked against a map of another width."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 10**4),
        st.sampled_from((1.0, 0.3, 1.7)),
        st.floats(min_value=0.5, max_value=60.0, allow_nan=False),
    )
    @example(903, 1.0, 1.0)  # every free cell of this map is in its last column
    def test_forms_agree(self, seed, factor, capacity):
        tmap, starts = terrain_case(seed)
        # one more column keeps every position free; one column less or another map usually does not
        others = [TerrainMap(cells=tuple(row + (1,) for row in tmap.cells)), terrain_case(seed + 1)[0]]
        narrower = tuple(row[:-1] for row in tmap.cells)
        # a map whose only free cells are in its last column has no narrower map
        if any(value != OBSTACLE for row in narrower for value in row):
            others.append(TerrainMap(cells=narrower))
        params = SimParams(capacity=capacity, consumption_factor=factor)
        for planner in PlannerId:
            name, plan = resolve_planner(planner)
            path = plan(tmap, starts[2])
            positional = Path(start=path.start, steps=path.steps)
            assert path.width == tmap.width and positional.width == 0
            assert positional == path and hash(positional) == hash(path)
            assert bits(power_consumption(positional, tmap, factor)) == bits(power_consumption(path, tmap, factor))
            register_planner(f"positions_of_{name}", positions_of(plan), overwrite=True)
            assert run(tmap, f"positions_of_{name}", starts[2], params) == run(tmap, planner, starts[2], params)
            for other in others:
                expected = consumption_outcome(power_consumption, positional, other, factor)
                assert bits(consumption_outcome(power_consumption, path, other, factor)) == bits(expected)


class TestPowerStateMatchesReference:
    @staticmethod
    def assert_equal(params, consumption):
        remaining, termination = power_state(params, consumption)
        expected, expected_termination = oracles.power_state(params, consumption)
        assert remaining == expected and list(map(repr, remaining)) == list(map(repr, expected))
        assert termination is expected_termination
        return termination

    def test_seeded_series_equal(self):
        """power_state returns the remaining series and termination of the per-step charge lookup
        it replaced, with charging shorter than, as long as, or longer than the series, or empty."""
        terminations = {kind: 0 for kind in Termination}
        for seed in range(400):
            rng = random.Random(seed)
            factor = rng.choice((1.0, 0.3, 1.7))
            consumption = [rng.choice((0.6, 1.0, 1.9)) * factor for _ in range(rng.randint(0, 30))]
            length = rng.choice((0, len(consumption) // 2, len(consumption), len(consumption) + 5))
            charging = tuple(rng.choice((-0.0, 0.0, rng.uniform(0.0, 1.5))) for _ in range(length))
            params = SimParams(capacity=rng.uniform(0.5, 40.0), charging=charging)
            terminations[self.assert_equal(params, consumption)] += 1
        assert min(terminations.values()) > 100

    def test_edge_cases_equal(self):
        consumption = [1.0, 1.0, 0.5]
        # depletion that lands exactly on 0.0 keeps the 0.0 step, then stops
        assert self.assert_equal(SimParams(capacity=2.0), consumption) is Termination.BATTERY_DEPLETED
        assert power_state(SimParams(capacity=2.0), consumption)[0] == [1.0, 0.0]
        for charging in ((), (-0.0,), (-0.0, 0.5), (0.5, -0.0, 0.0), (0.25,) * 5):
            self.assert_equal(SimParams(capacity=2.0, charging=charging), consumption)
        self.assert_equal(SimParams(capacity=2.0, charging=(1.0,)), [])


class TestPowerState:
    def test_simple_drain(self):
        params = SimParams(capacity=10.0)
        remaining, termination = power_state(params, [1.0, 1.0, 1.0])
        assert remaining == [9.0, 8.0, 7.0]
        assert termination is Termination.PATH_COMPLETE

    def test_depletion_stops_before_overdraw(self):
        params = SimParams(capacity=2.0)
        remaining, termination = power_state(params, [1.9, 1.0])
        assert remaining == pytest.approx([0.1])
        assert termination is Termination.BATTERY_DEPLETED

    def test_charging_offsets_consumption(self):
        params = SimParams(capacity=5.0, charging=(1.0, 1.0, 1.0))
        remaining, termination = power_state(params, [1.0, 1.0, 1.0])
        assert remaining == [5.0, 5.0, 5.0]
        assert termination is Termination.PATH_COMPLETE

    def test_charging_shorter_than_path_pads_zero(self):
        params = SimParams(capacity=5.0, charging=(1.0,))
        remaining, _ = power_state(params, [1.0, 1.0])
        assert remaining == [5.0, 4.0]

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            SimParams(capacity=0.0)
        with pytest.raises(ValueError):
            SimParams(consumption_factor=-1.0)
        with pytest.raises(ValueError):
            SimParams(charging=(-0.5,))

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"capacity": True}, "SimParams.capacity must be int or float, not bool"),
            ({"capacity": "100"}, "SimParams.capacity must be int or float, not str"),
            ({"consumption_factor": None}, "SimParams.consumption_factor must be int or float, not NoneType"),
            ({"charging": 5}, "SimParams.charging must be tuple or list, not int"),
            ({"charging": "12"}, "SimParams.charging must be tuple or list, not str"),
            ({"charging": ["1"]}, "SimParams.charging entries must be int or float, not str"),
            ({"charging": (0.5, False)}, "SimParams.charging entries must be int or float, not bool"),
            ({"charging": (0.5, None)}, "SimParams.charging entries must be int or float, not NoneType"),
        ],
    )
    def test_wrong_type_rejected_naming_the_field(self, changes, message):
        with pytest.raises(TypeError) as caught:
            SimParams(**changes)
        assert str(caught.value) == message

    def test_int_values_are_accepted(self):
        params = SimParams(capacity=50, consumption_factor=2, charging=[1, 0.5])
        assert (params.capacity, params.consumption_factor, params.charging) == (50, 2, (1.0, 0.5))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["capacity", "consumption_factor", "charging"])
    def test_non_finite_params_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            SimParams(**{field: (1.0, value) if field == "charging" else value})


class TestRun:
    def test_flat_two_by_two(self):
        tmap = load_map("00\n00")
        result = run(tmap, PlannerId.EDGE_FOLLOW, params=SimParams(capacity=100.0))
        assert result.total_consumed == pytest.approx(3.0)
        assert result.steps_completed == 3
        assert result.terminated is Termination.PATH_COMPLETE

    def test_tiny_capacity_depletes_immediately(self):
        tmap = load_map("00\n00")
        result = run(tmap, PlannerId.EDGE_FOLLOW, params=SimParams(capacity=0.5))
        assert result.terminated is Termination.BATTERY_DEPLETED
        assert result.steps_completed == 0
        assert result.consumption == ()
        assert result.remaining == ()

    def test_deterministic(self):
        tmap = generate_map(9, 7, 0.2, seed=5)
        first = run(tmap, PlannerId.TERRAIN_AWARE)
        second = run(tmap, PlannerId.TERRAIN_AWARE)
        assert first == second

    def test_default_start_is_first_free(self):
        tmap = load_map("X0\n00")
        result = run(tmap, PlannerId.EDGE_FOLLOW)
        assert result.path.start == Position(0, 1)

    def test_blocked_start_propagates(self):
        tmap = load_map("X0")
        with pytest.raises(StartBlocked):
            run(tmap, PlannerId.EDGE_FOLLOW, start=Position(0, 0))

    def test_series_lengths_match_steps_completed(self):
        tmap = load_map("030\n030")
        result = run(tmap, PlannerId.EDGE_FOLLOW, params=SimParams(capacity=3.0))
        assert result.terminated is Termination.BATTERY_DEPLETED
        assert len(result.consumption) == result.steps_completed
        assert len(result.remaining) == result.steps_completed
        assert len(result.path.steps) == result.steps_completed


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.floats(min_value=0.1, max_value=8.0, allow_nan=False),
        st.floats(min_value=20.0, max_value=500.0, allow_nan=False),
    )
    def test_conservation(self, seed, factor, capacity):
        tmap = generate_map(8, 6, 0.2, seed)
        params = SimParams(capacity=capacity, consumption_factor=factor, charging=(0.3, 0.1))
        result = run(tmap, PlannerId.TERRAIN_AWARE, params=params)
        charged = sum(params.charging[:result.steps_completed])
        assert capacity - (result.remaining[-1] if result.remaining else capacity) + charged == (
            pytest.approx(result.total_consumed, abs=1e-9)
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.floats(min_value=0.05, max_value=10.0, allow_nan=False))
    def test_linearity_in_consumption_factor(self, seed, factor):
        tmap = generate_map(7, 5, 0.15, seed)
        ample = 10.0**6  # keep both runs clear of depletion
        base = run(
            tmap, PlannerId.EDGE_FOLLOW, params=SimParams(capacity=ample, consumption_factor=factor)
        )
        doubled = run(
            tmap,
            PlannerId.EDGE_FOLLOW,
            params=SimParams(capacity=ample, consumption_factor=2 * factor),
        )
        assert doubled.total_consumed == pytest.approx(2 * base.total_consumed, rel=1e-12)
        for a, b in zip(base.consumption, doubled.consumption):
            assert b == pytest.approx(2 * a, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_strictly_decreasing_without_charging(self, seed):
        tmap = generate_map(6, 6, 0.1, seed)
        result = run(tmap, PlannerId.EDGE_FOLLOW)
        series = (result.params.capacity,) + result.remaining
        assert all(b < a for a, b in zip(series, series[1:]))


def test_csv_export_shape():
    tmap = load_map("010")
    result = run(tmap, PlannerId.EDGE_FOLLOW, params=SimParams(capacity=10.0))
    text = sim_result_to_csv(result)
    lines = text.strip().split("\n")
    assert lines[0] == "t,row,col,consumption,remaining"
    assert lines[1] == "0,0,0,0.000000,10.000000"
    assert len(lines) == result.steps_completed + 2
