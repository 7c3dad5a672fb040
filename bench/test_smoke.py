"""Quick checks of the benchmark harness at tiny sizes.

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from workloads import CliSession, ComposeFleet, EvaluateMaps, Tally

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "evaluate_maps": lambda expected: EvaluateMaps(1, expected, side=6, maps=2),
    "compose_fleet": lambda expected: ComposeFleet(1, expected, copies=2, alternatives=1),
    "cli_session": lambda expected: CliSession(1, expected, ensemble_maps=2, rank_maps=1),
}


def recorded(name) -> dict[str, str]:
    """Digests of one tiny round, standing in for the recorded ones."""
    workload = TINY[name](None)
    workload.run_round(Tally())
    return workload.produced


def timed(workload, rounds=2) -> tuple[dict, dict]:
    """A timed run's metrics over rounds made in this process."""
    records = []
    for _ in range(rounds):
        tally = Tally()
        workload.run_round(tally)
        records.append({"setup_s": 0.1, **tally.record()})
    return run.summarize(workload, records, 10.0)


def units(entries) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in entries}


@pytest.mark.parametrize("name", TINY)
def test_timed_run_prints_every_end_to_end_metric(name):
    result, meta = timed(TINY[name](recorded(name)))
    assert (result["correct"], result["failed"]) == (True, 0), meta["errors"]
    assert result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == units(BENCHMARK["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert meta["detail"]["failed_ratio"]["value"] == 0.0


@pytest.mark.parametrize("name", TINY)
def test_traced_run_prints_every_per_layer_metric_and_restores(name):
    from refmodel import composition, evaluator, planners

    originals = (evaluator.ensemble, composition.trace, planners.resolve_planner("edge_follow")[1])
    expected = recorded(name)
    result, meta = run.traced_run(lambda: TINY[name](expected), 0.0)
    assert result["correct"], meta["errors"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == units(BENCHMARK["per_layer"])
    assert (evaluator.ensemble, composition.trace, planners.resolve_planner("edge_follow")[1]) == originals


def test_digest_mismatch_is_a_failed_op():
    expected = recorded("evaluate_maps")
    expected["op1"] = "0" * 16
    result, meta = timed(TINY["evaluate_maps"](expected), rounds=1)
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)
    assert meta["detail"]["failed_ratio"]["value"] == 0.5


def test_raised_error_is_a_failed_op(monkeypatch):
    from refmodel import evaluator

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    expected = recorded("evaluate_maps")
    monkeypatch.setattr(evaluator, "ensemble", broken)
    result, meta = timed(TINY["evaluate_maps"](expected), rounds=1)
    assert (result["attempted"], result["failed"]) == (2, 2)
    assert meta["detail"]["failed_ratio"]["value"] == 1.0


def test_nonzero_exit_is_a_failed_op():
    workload = TINY["cli_session"](recorded("cli_session"))
    workload.script.append(("bogus", ["no-such-command"], []))
    tally = Tally()
    workload.run_round(tally)
    assert (tally.attempted, tally.failed, tally.nonzero_exits) == (len(workload.script), 1, 1)


def test_metrics_are_medians_over_rounds():
    def record(setup_s, call_s):
        return {"setup_s": setup_s, "attempted": 3, "failed": 0, "call_s": call_s, "op_s": call_s, "errors": []}

    rounds = [record(0.3, [1.0, 5.0, 3.0]), record(0.1, [2.0, 4.0, 3.0]), record(0.2, [1.5, 6.0, 2.0])]
    workload = TINY["cli_session"](None)
    result, meta = run.summarize(workload, rounds, 10.0)
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert values["round_s"] == 9.0
    assert values["op_ms_p50"] == 3000.0
    assert values["setup_s"] == 0.2
    assert (result["attempted"], meta["rounds"], meta["samples"]["op_ms_p50"]) == (9, 3, 9)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "evaluate_maps"]
        + ["--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
