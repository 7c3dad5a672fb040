"""Acceptance suite: one test per release criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every criterion carries a wall-clock budget that is asserted, not just
documented.
"""

import functools
import random
import tempfile
import time
from pathlib import Path as FilePath

from genmodels import random_model, random_model_and_pattern, random_repository
from oracles import flood_fill, min_coverage_energy
from refmodel import cli
from refmodel.composition import (
    CoverageStatus,
    Pattern,
    Viewpoint,
    apply_pattern,
    capability_coverage,
    extract_view,
    validate_configuration,
)
from refmodel.core import Aspect, BuildingBlock, ConcernLayer, Model, TraceKind
from refmodel.demo import REFERENCE_MAP_TEXT, build_demo_model
from refmodel.errors import InvalidViewpoint, MergeConflict, ParseError, SchemaVersionMismatch
from refmodel.evaluator import compare
from refmodel.planners import plan_edge_follow, plan_terrain_aware
from refmodel.repository import load, load_model, save, save_model
from refmodel.simulation import SimParams, Termination, power_consumption, run
from refmodel.terrain import Position, StepClass, TerrainMap, classify_step, generate_map, load_map

# Regression fixtures for the shipped ridge map, computed at build-out time by
# the implementation itself and cross-checked below against the exhaustive
# coverage-walk oracle on a two-row sub-map.
REFERENCE_EDGE_FOLLOW_TOTAL = 27.0
REFERENCE_TERRAIN_AWARE_TOTAL = 24.4


def criterion(label, budget_seconds):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            started = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {label}: FAIL")
                raise
            elapsed = time.monotonic() - started
            assert elapsed < budget_seconds, (
                f"{label} took {elapsed:.2f}s, budget {budget_seconds}s"
            )
            print(f"[acceptance] {label}: PASS ({elapsed:.2f}s < {budget_seconds}s)")

        return wrapped

    return decorator


@criterion("C1 step-cost classification exact", 1.0)
def test_c1_step_classification():
    for a in range(4):
        for b in range(4):
            cls = classify_step(a, b)
            if b > a:
                assert cls is StepClass.HIGH and cls.factor == 1.9
            elif b < a:
                assert cls is StepClass.LOW and cls.factor == 0.6
            else:
                assert cls is StepClass.NORMAL and cls.factor == 1.0
            assert cls.factor in (1.9, 1.0, 0.6)
    for a in range(4):
        for b in range(4):
            if a != b:
                assert (classify_step(a, b) is StepClass.HIGH) == (
                    classify_step(b, a) is StepClass.LOW
                )


@criterion("C2 ridge-map comparison reproduces pinned totals", 5.0)
def test_c2_reference_map_comparison():
    tmap = load_map(REFERENCE_MAP_TEXT)
    start = Position(0, 0)
    report = compare(tmap, start=start)
    totals = {name: result.total_consumed for name, result in report.runs}
    assert totals["edge_follow"] == REFERENCE_EDGE_FOLLOW_TOTAL
    assert totals["terrain_aware"] == REFERENCE_TERRAIN_AWARE_TOTAL
    assert totals["terrain_aware"] < totals["edge_follow"]
    assert report.winner == "terrain_aware"
    # oracle cross-check on a sub-map small enough for exhaustive search
    sub_map = TerrainMap(cells=tmap.cells[:2])
    assert len(list(sub_map.free_positions())) <= 7
    best = min_coverage_energy(sub_map, start)
    for planner in (plan_edge_follow, plan_terrain_aware):
        total = sum(power_consumption(planner(sub_map, start), sub_map))
        assert total >= best - 1e-9


@criterion("C3 flat-map equivalence of both planners", 10.0)
def test_c3_flat_map_equivalence():
    rng = random.Random(303)
    for _ in range(120):
        width, height = rng.randint(1, 13), rng.randint(1, 13)
        level = rng.randint(0, 3)
        factor = rng.uniform(0.2, 4.0)
        tmap = TerrainMap(tuple(tuple(level for _ in range(width)) for _ in range(height)))
        start = Position(0, 0)
        totals = []
        for planner in (plan_edge_follow, plan_terrain_aware):
            path = planner(tmap, start)
            assert len(set(path.positions)) == width * height
            assert path.num_steps == width * height - 1  # zero-revisit sweep
            consumption = power_consumption(path, tmap, factor)
            assert all(entry == 1.0 * factor for entry in consumption)
            totals.append(sum(consumption))
        assert totals[0] == totals[1]


@criterion("C4 conservation, linearity, and winner scale-invariance", 30.0)
def test_c4_conservation_linearity_scaling():
    rng = random.Random(404)
    for draw in range(200):
        tmap = generate_map(rng.randint(2, 9), rng.randint(2, 8), rng.uniform(0, 0.25), seed=draw)
        capacity = rng.uniform(30.0, 400.0)
        factor = rng.uniform(0.1, 5.0)
        charging = tuple(rng.uniform(0, 0.4) for _ in range(rng.randint(0, 4)))
        params = SimParams(capacity=capacity, consumption_factor=factor, charging=charging)
        result = run(tmap, "terrain_aware", params=params)
        charged = sum(params.charging[:result.steps_completed])
        final = result.remaining[-1] if result.remaining else capacity
        assert abs(capacity - final + charged - result.total_consumed) < 1e-9

        doubled = run(
            tmap,
            "terrain_aware",
            params=SimParams(capacity=capacity, consumption_factor=2 * factor, charging=charging),
        )
        if result.terminated is Termination.PATH_COMPLETE and (
            doubled.terminated is Termination.PATH_COMPLETE
        ):
            assert abs(doubled.total_consumed - 2 * result.total_consumed) <= (
                1e-12 * abs(doubled.total_consumed)
            )

        big = SimParams(capacity=10**9, consumption_factor=factor)
        scaled = SimParams(capacity=10**9, consumption_factor=factor * rng.uniform(1.5, 9.0))
        assert compare(tmap, params=big).winner == compare(tmap, params=scaled).winner


@criterion("C5 coverage soundness against flood-fill oracle", 30.0)
def test_c5_coverage_soundness():
    rng = random.Random(505)
    for draw in range(200):
        width, height = rng.randint(1, 20), rng.randint(1, 20)
        density = rng.uniform(0, 0.3)
        tmap = generate_map(width, height, density, seed=draw)
        start = tmap.first_free()
        oracle = flood_fill(tmap, start)
        for planner in (plan_edge_follow, plan_terrain_aware):
            assert set(planner(tmap, start).positions) == oracle


@criterion("C6 pattern merge monotone, idempotent, conflict-guarded", 10.0)
def test_c6_merge_semantics():
    applied = 0
    for seed in range(110):
        model, pattern, bindings = random_model_and_pattern(seed)
        merged = apply_pattern(model, pattern, bindings)
        assert set(model.blocks) <= set(merged.blocks)
        assert model.connections <= merged.connections
        assert model.traces <= merged.traces
        assert apply_pattern(merged, pattern, bindings) == merged
        applied += 1
    assert applied >= 100

    demo_model = build_demo_model()
    existing = demo_model.block("svc.mowing")
    divergent = BuildingBlock(
        id=existing.id,
        name="Conflicting Mowing",
        layer=existing.layer,
        kind=existing.kind,
        ports=existing.ports,
        origin=existing.origin,
    )
    try:
        apply_pattern(demo_model, Pattern(id="conflict", blocks=(divergent,)))
    except MergeConflict:
        pass
    else:
        raise AssertionError("same-id/different-content merge must raise MergeConflict")


@criterion("C7 demo model traceability end to end", 1.0)
def test_c7_demo_traceability():
    model = build_demo_model()
    assert validate_configuration(model).is_valid
    report = capability_coverage(model)
    assert {entry.capability_id for entry in report.entries} == {
        "cap.recognition",
        "cap.mobility",
        "cap.mowing",
    }
    assert all(entry.status is CoverageStatus.COVERED for entry in report.entries)

    kept = frozenset(
        link
        for link in model.traces
        if not (
            link.kind is TraceKind.EXHIBITS
            and model.block(link.source).layer is ConcernLayer.RESOURCE
        )
    )
    demoted = Model(id=model.id, blocks=model.blocks, connections=model.connections, traces=kept)
    after = capability_coverage(demoted)
    assert all(entry.status is CoverageStatus.PARTIALLY_COVERED for entry in after.entries)


@criterion("C8 viewpoint validity rule", 1.0)
def test_c8_viewpoint_rule():
    model = build_demo_model()
    try:
        extract_view(model, Viewpoint(ConcernLayer.STRATEGIC, Aspect.BEHAVIOR))
    except InvalidViewpoint:
        pass
    else:
        raise AssertionError("(strategic, behavior) must be rejected")
    succeeded = 0
    for subject in ConcernLayer:
        for aspect in Aspect:
            if subject is ConcernLayer.STRATEGIC and aspect is Aspect.BEHAVIOR:
                continue
            view = extract_view(model, Viewpoint(subject, aspect))
            assert set(view.elements) <= set(model.blocks)
            succeeded += 1
    assert succeeded == 15


@criterion("C9 persistence round-trips and positioned parse errors", 10.0)
def test_c9_persistence():
    for seed in range(60):
        repo = random_repository(seed)
        text = save(repo)
        again = load(text)
        assert save(again) == text
        assert again.version == repo.version
    for seed in range(40):
        model = random_model(seed)
        text = save_model(model)
        again = load_model(text)
        assert save_model(again) == text
        assert sorted(again.blocks) == sorted(model.blocks)

    demo_text = save_model(build_demo_model())
    try:
        load_model(demo_text[: len(demo_text) // 3])
    except ParseError as exc:
        assert "line" in str(exc)
    else:
        raise AssertionError("truncated document must raise ParseError")
    try:
        load_model(demo_text.replace('"capability"', '"frobnicator"', 1))
    except ParseError as exc:
        assert "frobnicator" in str(exc) and "$." in str(exc)
    else:
        raise AssertionError("unknown kind token must raise ParseError")
    try:
        load(save(random_repository(1)).replace('"schema_version": 1', '"schema_version": 9'))
    except SchemaVersionMismatch:
        pass
    else:
        raise AssertionError("schema version mismatch must be detected")


@criterion("C10 CLI outputs byte-identical across runs", 30.0)
def test_c10_cli_determinism():
    def one_pass(workdir: FilePath) -> dict:
        outputs = {}

        def invoke(*argv):
            import contextlib
            import io

            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(list(argv))
            assert code == 0, argv
            # "wrote <path>" confirmations necessarily differ per directory
            return "".join(
                line
                for line in buffer.getvalue().splitlines(keepends=True)
                if not line.startswith("wrote ")
            )

        invoke("demo", "--out", str(workdir))
        outputs["compare.stdout"] = invoke(
            "compare",
            "--map", str(workdir / "reference.terrain.txt"),
            "--out", str(workdir),
            "--format", "csv",
        )
        outputs["ensemble.stdout"] = invoke(
            "ensemble", "--n", "20", "--seed", "7", "--out", str(workdir), "--format", "csv"
        )
        outputs["view.dot"] = invoke(
            "view",
            "--subject", "service",
            "--aspect", "structure",
            "--format", "dot",
            "--model", str(workdir / "demo.refmodel.json"),
        )
        outputs["trace.dot"] = invoke(
            "trace", "cap.mowing",
            "--direction", "down",
            "--format", "dot",
            "--model", str(workdir / "demo.refmodel.json"),
        )
        for name in (
            "demo.refrepo.json",
            "demo.refmodel.json",
            "reference.terrain.txt",
            "compare.csv",
            "compare.txt",
            "remaining.svg",
            "paths.svg",
            "ensemble.csv",
        ):
            outputs[name] = (workdir / name).read_bytes()
        return outputs

    with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as second:
        pass_one = one_pass(FilePath(first))
        pass_two = one_pass(FilePath(second))
    assert pass_one.keys() == pass_two.keys()
    for key in pass_one:
        assert pass_one[key] == pass_two[key], f"output '{key}' differs between runs"
