"""Benchmark entry point: one workload and seed, timed (--trace 0) or traced (--trace 1).

    python3 bench/run.py --workload evaluate_maps --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

A timed run repeats the same round on the seed's inputs, each round in a
fresh process, until the measuring time is up, and reports medians over the
rounds. A traced run alternates untraced and traced rounds in this process.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: every end-to-end metric of a timed run, or every
per-layer metric of a traced run, each with its unit. The line before it
holds the run's metadata: versions, sample counts, the percentile behind
``op_ms_tail``, workload-specific detail metrics and the layer metrics
expected to move each end-to-end metric. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys

import workloads
from tracing import SPAN_NAMES, Tracer, merge_totals
from workloads import BENCH_DIR, ROOT, SRC, CliSession, Tally, clock

CLI_START_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "round_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

CLI_COMMANDS = (
    "help", "demo", "validate", "coverage", "trace", "view",
    "alternatives", "simulate", "compare", "ensemble", "rank",
)  # fmt: skip

# Span names with a self time; demo builds report inclusive time instead.
_SELF_TIMED = tuple(name for name in SPAN_NAMES if not name.startswith("demo."))
_COUNTS = (
    "terrain.generate_map.calls",
    "terrain.cells_generated",
    "planners.plan.calls",
    "planners.path_steps",
    "planners.revisit_steps",
    "simulation.steps_simulated",
    "core.add_trace.calls",
    "composition.trace.calls",
)

PER_LAYER = {
    **{f"{name}.self_s": "s" for name in _SELF_TIMED},
    **{name: "count" for name in _COUNTS},
    "repository.bytes_serialized": "bytes",
    "planners.first_visit_ratio": "ratio",
    "evaluator.generations_per_seed": "calls/seed",
    "demo.build_demo_repository.s": "s",
    "demo.build_demo_model.s": "s",
    "cli.python_start_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.{command}.ms_p50": "ms" for command in CLI_COMMANDS},
    "cli.nonzero_exits": "count",
    "tracing.overhead_ratio": "ratio",
}

_PLANNING = [
    "terrain.generate_map.self_s",
    "terrain.cells_generated",
    "planners.plan_edge_follow.self_s",
    "planners.plan_terrain_aware.self_s",
    "planners.path_steps",
    "planners.revisit_steps",
    "simulation.run.self_s",
    "simulation.power_consumption.self_s",
    "simulation.power_state.self_s",
    "evaluator.ensemble.self_s",
    "evaluator.compare.self_s",
    "evaluator.rank_configurations.self_s",
    "evaluator.generations_per_seed",
]
_WRITES = [
    "core.add_trace.self_s",
    "repository.add_asset.self_s",
    "repository.adopt.self_s",
    "composition.connect.self_s",
]
_QUERIES = [
    "composition.validate_configuration.self_s",
    "composition.capability_coverage.self_s",
    "composition.trace.self_s",
    "composition.trace.calls",
    "composition.extract_view.self_s",
    "composition.export_dot.self_s",
    "composition.enumerate_alternatives.self_s",
]
_PERSISTENCE = [
    "repository.save.self_s",
    "repository.load.self_s",
    "repository.save_model.self_s",
    "repository.load_model.self_s",
    "repository.bytes_serialized",
]
_DEMO = ["demo.build_demo_repository.s", "demo.build_demo_model.s"]
_SHORT_COMMANDS = [f"cli.{c}.ms_p50" for c in CLI_COMMANDS if c not in ("ensemble", "rank")]

# Which layer metrics are expected to move each end-to-end metric, per workload.
MOVERS = {
    "evaluate_maps": {
        "setup_s": _DEMO,
        "round_s": _PLANNING,
        "op_ms_p50": _PLANNING,
        "op_ms_tail": _PLANNING,
        "peak_rss_mb": ["evaluator.generations_per_seed", "terrain.cells_generated"],
    },
    "compose_fleet": {
        "setup_s": _DEMO,
        "round_s": _WRITES + _QUERIES + _PERSISTENCE,
        "op_ms_p50": _WRITES,
        "op_ms_tail": _WRITES,
        "peak_rss_mb": ["repository.bytes_serialized"],
    },
    "cli_session": {
        "setup_s": ["cli.import_ms"],
        "round_s": ["cli.ensemble.ms_p50", "cli.rank.ms_p50", *_PLANNING],
        "op_ms_p50": ["cli.python_start_ms", "cli.import_ms", *_SHORT_COMMANDS],
        "op_ms_tail": _SHORT_COMMANDS + ["terrain.generate_map.self_s"],
        "peak_rss_mb": ["cli.ensemble.ms_p50", "cli.rank.ms_p50"],
    },
}
FAILED_RATIO_MOVERS = ["cli.nonzero_exits"]


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile of the values, p in 0..100."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    k = (len(ordered) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def fresh_round(name: str, seed: int) -> dict:
    """One round in a fresh process, so nothing a round leaves behind reaches the next."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "workloads.py"), name, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{name} round crashed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def repeat_rounds(seconds: float, one_round) -> int:
    """Call one_round() while the next call should end within the time; at least once."""
    start = clock()
    count = 0
    while True:
        begin = clock()
        one_round()
        count += 1
        if clock() - start + (clock() - begin) > seconds:
            return count


def timed_run(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    rounds: list[dict] = []
    repeat_rounds(seconds, lambda: rounds.append(fresh_round(name, seed)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return summarize(workloads.WORKLOADS[name], rounds, peak_rss_mb)


def summarize(workload, rounds: list[dict], peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics of round records (see workloads.one_round) of one input set.

    ``round_s`` is the median over rounds of the time the round's calls took,
    ``op_ms_*`` are percentiles over every op of every round, and ``setup_s``
    is the median set-up of the rounds' fresh processes.
    """
    tally = Tally()
    for record in rounds:
        tally.attempted += record["attempted"]
        tally.failed += record["failed"]
        tally.errors += record["errors"][: 10 - len(tally.errors)]
    op_ms = [s * 1e3 for r in rounds for s in r["op_s"]]
    tail = workload.tail_percentile
    values = {
        "setup_s": median([r["setup_s"] for r in rounds]),
        "round_s": median([sum(r["call_s"]) for r in rounds]),
        "op_ms_p50": median(op_ms),
        "op_ms_tail": percentile(op_ms, tail),
        "peak_rss_mb": peak_rss_mb,
    }
    meta = {
        "samples": {
            "setup_s": len(rounds),
            "round_s": len(rounds),
            "op_ms_p50": len(op_ms),
            "op_ms_tail": len(op_ms),
            "peak_rss_mb": 1,
        },
        "rounds": len(rounds),
        "op_ms_tail_percentile": tail,
        "op_ms_tail_samples_beyond": sum(1 for v in op_ms if v > values["op_ms_tail"]),
        "detail": _detail(workload.name, rounds, tally, values),
        "expected_movers": {**MOVERS[workload.name], "failed_ratio": FAILED_RATIO_MOVERS},
        "errors": tally.errors,
    }
    return _result(tally, values, END_TO_END), meta


def _detail(name: str, rounds: list[dict], tally: Tally, values: dict) -> dict:
    """The workload-specific names for what the end-to-end metrics measure, plus phases."""
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    detail = {"failed_ratio": {"value": ratio, "unit": "ratio"}}
    if name == "evaluate_maps":
        maps = len(rounds[0]["op_s"])
        detail["maps_per_s"] = {"value": maps / values["round_s"], "unit": "1/s"}
    elif name == "compose_fleet":
        for phase in ("build_s", "query_s", "roundtrip_s"):
            detail[phase] = {"value": median([r["series"][phase][0] for r in rounds]), "unit": "s"}
        detail["edit_ms_p50"] = {"value": values["op_ms_p50"], "unit": "ms"}
        detail["edit_ms_tail"] = {"value": values["op_ms_tail"], "unit": "ms"}
    else:
        detail["cmd_ms_p50"] = {"value": values["op_ms_p50"], "unit": "ms"}
        detail["cmd_ms_tail"] = {"value": values["op_ms_tail"], "unit": "ms"}
        detail["session_s"] = {"value": values["round_s"], "unit": "s"}
    return detail


def _result(tally: Tally, values: dict, units: dict) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def traced_run(make_workload, seconds: float) -> tuple[dict, dict]:
    """Pairs of rounds on the same inputs, untraced then traced.

    Self times are seconds per traced round; counts come from the first
    traced round, so they repeat exactly for a seed.
    """
    tracer = Tracer()
    tracer.install()
    try:
        workload = make_workload()
    finally:
        tracer.uninstall()
    setup_totals = tracer.totals()

    plain, traced = Tally(), Tally()
    plain_s: list[float] = []
    traced_s: list[float] = []
    totals: dict[str, dict[str, float]] = {}
    first: dict = {}

    def pair():
        plain_s.append(workload.run_round(plain))
        round_seconds, round_totals, counts, seeds = workload.traced_round(traced, tracer)
        traced_s.append(round_seconds)
        merge_totals(totals, round_totals)
        if not first:
            first.update(counts=counts, seeds=seeds, nonzero_exits=traced.nonzero_exits)

    rounds = repeat_rounds(seconds, pair)
    values = {name: 0 if unit in ("count", "bytes") else 0.0 for name, unit in PER_LAYER.items()}
    for name in _SELF_TIMED:
        if name in totals:
            values[f"{name}.self_s"] = totals[name]["self_s"] / rounds
    for name in ("demo.build_demo_repository", "demo.build_demo_model"):
        if name in setup_totals:
            values[f"{name}.s"] = setup_totals[name]["s"]
        elif name in totals:
            values[f"{name}.s"] = totals[name]["s"] / rounds
    counts = first["counts"]
    for name in (*_COUNTS, "repository.bytes_serialized"):
        values[name] = counts.get(name, 0)
    steps = counts.get("planners.path_steps", 0)
    values["planners.first_visit_ratio"] = counts.get("planners.first_visits", 0) / steps if steps else 0.0
    generated = counts.get("terrain.generate_map.calls", 0)
    values["evaluator.generations_per_seed"] = generated / len(first["seeds"]) if first["seeds"] else 0.0
    values["tracing.overhead_ratio"] = median(traced_s) / median(plain_s) - 1.0
    if isinstance(workload, CliSession):
        values.update(_cli_layer(workload, plain))
        values["cli.nonzero_exits"] = first["nonzero_exits"]

    tally = Tally()
    tally.attempted = plain.attempted + traced.attempted
    tally.failed = plain.failed + traced.failed
    tally.errors = (plain.errors + traced.errors)[:10]
    meta = {
        "rounds_traced": rounds,
        "untraced_round_s": median(plain_s),
        "traced_round_s": median(traced_s),
        "self_time_basis": "seconds per traced round",
        "count_basis": "first traced round",
        "errors": tally.errors,
    }
    return _result(tally, values, PER_LAYER), meta


def _cli_layer(workload, plain: Tally) -> dict:
    values = {}
    for command in CLI_COMMANDS:
        values[f"cli.{command}.ms_p50"] = median(plain.series[f"cli.{command}.ms"])
    start_ms, import_ms = [], []
    for code, out in (("pass", start_ms), ("import refmodel.cli", import_ms)):
        for _ in range(CLI_START_SAMPLES):
            begin = clock()
            subprocess.run([sys.executable, "-c", code], env=workload.env, check=True, timeout=60)
            out.append((clock() - begin) * 1e3)
    values["cli.python_start_ms"] = median(start_ms)
    values["cli.import_ms"] = median(import_ms) - median(start_ms)
    return values


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    if trace:
        cls = workloads.WORKLOADS[name]
        expected = workloads.recorded_digests(name, seed)
        result, meta = traced_run(lambda: cls(seed, expected), seconds)
    else:
        result, meta = timed_run(name, seed, seconds)
    meta.update(
        workload=name,
        seed=seed,
        input_set=workloads.input_set(seed),
        seconds=seconds,
        trace=trace,
        python=platform.python_version(),
        nproc=os.cpu_count(),
        git_sha=git_sha(),
    )
    return result, meta


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed)]
            + ["--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True,
            text=True,
            timeout=600,
        )
        if proc.returncode != 0:
            raise SystemExit(f"{name} failed:\n{proc.stderr}")
        *_, meta_line, result_line = proc.stdout.splitlines()
        result = json.loads(result_line)
        detail = json.loads(meta_line)["meta"].get("detail", {})
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in {**result["metrics"], **detail}.items():
            print(f"  {metric:<44} {entry['value']:>14.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "refmodel" / "__init__.py").is_file():
        print(f"error: no refmodel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.workload == "all":
            print(json.dumps(run_all(args.seed, args.seconds, bool(args.trace))))
            return 0
        result, meta = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        _remove_empty_work_dir()
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0


def _remove_empty_work_dir():
    try:
        workloads.WORK_DIR.rmdir()
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())
