import math
import random

import oracles
import pytest
from hypothesis import given, settings, strategies as st

from genmodels import one_wide_maps, terrain_case
from oracles import flood_fill
from refmodel import terrain
from refmodel.errors import BadSymbol, ParseError, RaggedRows, Unsatisfiable
from refmodel.terrain import (
    OBSTACLE,
    GenParams,
    Position,
    StepClass,
    TerrainMap,
    classify_step,
    generate_map,
    load_map,
    step_factor,
)


def map_text(tmap):
    """The map in load_map's text form: one symbol per cell, X for an obstacle, each row ending in a newline."""
    return "".join("".join("X" if value == OBSTACLE else str(value) for value in row) + "\n" for row in tmap.cells)


class TestClassifyStep:
    def test_uphill_is_high(self):
        assert classify_step(2, 3) is StepClass.HIGH
        assert StepClass.HIGH.factor == 1.9

    def test_level_is_normal(self):
        assert classify_step(1, 1) is StepClass.NORMAL
        assert StepClass.NORMAL.factor == 1.0

    def test_downhill_is_low(self):
        assert classify_step(3, 0) is StepClass.LOW
        assert StepClass.LOW.factor == 0.6

    def test_all_sixteen_pairs(self):
        for a in range(4):
            for b in range(4):
                expected = (
                    StepClass.HIGH if b > a else StepClass.LOW if b < a else StepClass.NORMAL
                )
                assert classify_step(a, b) is expected
                assert step_factor(a, b) in (1.9, 1.0, 0.6)

    def test_antisymmetry(self):
        for a in range(4):
            for b in range(4):
                if a == b:
                    continue
                assert (classify_step(a, b) is StepClass.HIGH) == (
                    classify_step(b, a) is StepClass.LOW
                )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            classify_step(0, 4)


class TestMapText:
    def test_load_small_map(self):
        tmap = load_map("01\n2X")
        assert (tmap.width, tmap.height) == (2, 2)
        assert tmap.cells[0][1] == 1
        assert tmap.cells[1][1] == terrain.OBSTACLE

    def test_ragged_rows(self):
        with pytest.raises(RaggedRows):
            load_map("0\n00")

    def test_bad_symbol_carries_position(self):
        with pytest.raises(BadSymbol) as excinfo:
            load_map("09")
        assert excinfo.value.position == Position(0, 1)
        assert "(0, 1)" in str(excinfo.value)

    def test_round_trip(self):
        text = "0123\nX30X\n1111\n"
        assert map_text(load_map(text)) == text

    def test_round_trip_without_trailing_newline(self):
        assert map_text(load_map("03\n30")) == "03\n30\n"

    def test_all_obstacles_rejected(self):
        with pytest.raises(ParseError, match="at least one free cell"):
            load_map("XX\nXX")


def listed_neighbors(tmap, pos):
    """The free neighbors the move table lists for a cell, as positions in its N, E, S, W order."""
    return [Position(*divmod(index, tmap.width)) for index, _ in tmap.moves[pos.row * tmap.width + pos.col]]


class TestNeighbors:
    """The move table's neighbor lists against hand-written ones, so its index bounds are pinned without the oracle."""

    def test_interior_cell_has_four_in_order(self):
        tmap = load_map("000\n000\n000")
        assert listed_neighbors(tmap, Position(1, 1)) == [
            Position(0, 1),
            Position(1, 2),
            Position(2, 1),
            Position(1, 0),
        ]

    def test_corner_cell(self):
        tmap = load_map("00\n00")
        assert listed_neighbors(tmap, Position(0, 0)) == [Position(0, 1), Position(1, 0)]

    def test_walled_in_cell(self):
        tmap = load_map("XXX\nX0X\nXXX")
        assert listed_neighbors(tmap, Position(1, 1)) == []

    def test_no_wrap_across_rows(self):
        """The cell after a row's last one is never its east neighbor: on one column it is south."""
        assert listed_neighbors(load_map("00\n00"), Position(0, 1)) == [Position(1, 1), Position(0, 0)]
        column = load_map("0\n0\nX\n0")
        assert [listed_neighbors(column, Position(r, 0)) for r in (0, 1, 3)] == [[Position(1, 0)], [Position(0, 0)], []]
        row = load_map("00X0")
        assert [listed_neighbors(row, Position(0, c)) for c in (0, 1, 3)] == [[Position(0, 1)], [Position(0, 0)], []]


class TestGeneration:
    def test_deterministic_per_seed(self):
        assert generate_map(5, 5, 0.0, seed=42) == generate_map(5, 5, 0.0, seed=42)

    def test_different_seeds_differ(self):
        maps = {generate_map(9, 9, 0.2, seed=s).cells for s in range(8)}
        assert len(maps) > 1

    def test_zero_density_has_no_obstacles(self):
        tmap = generate_map(6, 4, 0.0, seed=7)
        assert all(v >= 0 for row in tmap.cells for v in row)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 18), st.integers(1, 18))
    def test_free_cells_form_one_component(self, seed, width, height):
        tmap = generate_map(width, height, 0.3, seed)
        free = set(tmap.free_positions())
        assert flood_fill(tmap, tmap.first_free()) == free

    def test_flat_generation_collapses_levels(self):
        tmap = generate_map(8, 6, 0.1, seed=3, max_level=0)
        assert {tmap.cells[p.row][p.col] for p in tmap.free_positions()} == {0}

    def test_levels_stay_in_range(self):
        tmap = generate_map(15, 15, 0.2, seed=11)
        assert {tmap.cells[p.row][p.col] for p in tmap.free_positions()} <= {0, 1, 2, 3}

    def test_density_one_unsatisfiable(self):
        with pytest.raises(Unsatisfiable):
            generate_map(4, 4, 1.0, seed=0)

    @pytest.mark.parametrize("density", [math.nan, math.inf])
    def test_non_finite_density_rejected(self, density):
        with pytest.raises(ValueError, match="finite"):
            generate_map(4, 4, density, seed=0)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError):
            generate_map(0, 3, 0.1, seed=0)


def test_map_requires_a_free_cell():
    with pytest.raises(ValueError):
        TerrainMap(cells=((-1,),))


def test_map_rejects_out_of_band_levels():
    with pytest.raises(ValueError):
        TerrainMap(cells=((5,),))


class TestGenParams:
    @pytest.mark.parametrize(
        "field, value",
        [("width", 8.0), ("height", True), ("max_level", "3"), ("obstacle_density", False), ("obstacle_density", "0.2")],
    )
    def test_wrong_type_rejected_naming_the_field(self, field, value):
        with pytest.raises(TypeError, match=f"^{field} must be"):
            GenParams(**{field: value})

    def test_int_density_accepted(self):
        assert GenParams(obstacle_density=0).obstacle_density == 0


class TestGenerationMatchesReference:
    """generate_map builds the maps of the per-point noise generator it replaced, cell for cell."""

    @pytest.mark.parametrize(
        "width, height, seeds",
        [
            (1, 1, range(12)),
            (1, 23, range(12)),
            (23, 1, range(12)),
            (32, 32, (0, 3, 41, -7, 2**32 + 5, 10**9)),
            (128, 128, (1, 6)),
        ],
    )
    def test_cells_equal(self, width, height, seeds):
        for seed in seeds:
            density = (0.0, 0.15, 0.3, 0.6)[seed % 4]
            max_level = seed % 4
            expected = oracles.generate_map(width, height, density, seed, max_level=max_level)
            assert generate_map(width, height, density, seed, max_level=max_level) == expected, seed

    def test_noise_field_bit_identical(self):
        rng = random.Random(5)
        for _ in range(40):
            width, height, seed = rng.randint(1, 48), rng.randint(1, 48), rng.randrange(-(2**33), 2**33)
            expected = [oracles.fbm(c * 0.35, r * 0.35, seed, octaves=3) for r in range(height) for c in range(width)]
            assert terrain._fbm_grid(width, height, seed, scale=0.35, octaves=3) == expected


class TestMoveTable:
    def test_equals_table_from_neighbors(self):
        """Each cell's entry is None for an obstacle, else its free neighbors by index in N, E, S, W order."""
        for tmap in [terrain_case(seed)[0] for seed in range(120)] + one_wide_maps():
            assert tmap.moves == oracles.move_table(tmap), tmap.cells
