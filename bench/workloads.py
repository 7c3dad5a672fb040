"""The benchmark's three workloads.

A workload builds its inputs from the seed in its constructor; that is the
work ``setup_s`` times. It then runs rounds, each the same closed loop of
calls into refmodel over those inputs, one call at a time. A round records
the latency of every call, in order, and of each call that counts as an op,
the calls attempted and failed, and a digest of every output. Each digest is
checked against the one in ``digests/<workload>.json`` for the seed's input
set, and a mismatch fails the op that produced it.

Refmodel is imported inside the constructors and its functions are looked up
on their modules at call time, so that the traced run's wrappers are seen.

Run as a script, this module sets up one workload in a fresh process, runs
one round and prints the set-up time and the round's record as JSON:

    python bench/workloads.py WORKLOAD SEED
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

from tracing import merge_totals

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
DIGESTS_DIR = BENCH_DIR / "digests"

# Seeds map onto this many input sets; bench/digests/ holds every set's digests.
INPUT_SETS = 16

clock = time.perf_counter


def input_set(seed: int) -> int:
    return seed % INPUT_SETS


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:16]


def recorded_digests(workload: str, seed: int) -> dict[str, str]:
    with open(DIGESTS_DIR / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)[str(input_set(seed))]


class Tally:
    """Calls attempted and failed, call and op latencies, and named per-round times."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.call_s: list[float] = []
        self.op_s: list[float] = []
        self.series: dict[str, list[float]] = defaultdict(list)
        self.nonzero_exits = 0
        self.errors: list[str] = []

    def fail(self, what: str):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)

    def call(self, fn, *args):
        """Call fn once; returns (result or None, seconds). An exception fails the call."""
        self.attempted += 1
        start = clock()
        try:
            result = fn(*args)
        except Exception as exc:  # a failing call is a measured outcome, not a crash
            result = None
            self.fail(f"{getattr(fn, '__name__', fn)}: {exc!r}")
        seconds = clock() - start
        self.call_s.append(seconds)
        return result, seconds

    def record(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "call_s": self.call_s,
            "op_s": self.op_s,
            "series": self.series,
            "nonzero_exits": self.nonzero_exits,
            "errors": self.errors,
        }


class Workload:
    """Shared digest bookkeeping; subclasses define the inputs and one round."""

    name = ""
    # Percentile reported as op_ms_tail: at least ten of the ops a run times
    # (every op of every round) lie beyond it.
    tail_percentile = 90.0

    def __init__(self, expected: dict[str, str] | None):
        self.expected = expected
        self.produced: dict[str, str] = {}

    def check(self, key: str, value: str) -> bool:
        """Record an output digest; False if it differs from the recorded one."""
        self.produced[key] = value
        return self.expected is None or self.expected.get(key) == value

    def run_round(self, tally: Tally) -> float:
        raise NotImplementedError

    def traced_round(self, tally: Tally, tracer) -> tuple[float, dict, dict, set]:
        """One round with the tracer's wrappers installed.

        Returns the round's seconds, span totals, counts and generated map seeds.
        """
        tracer.reset()
        tracer.install()
        try:
            seconds = self.run_round(tally)
        finally:
            tracer.uninstall()
        return seconds, tracer.totals(), dict(tracer.counts), set(tracer.map_seeds)


class EvaluateMaps(Workload):
    """ensemble() then rank_configurations() on each of the seed's 32x32 maps.

    One op evaluates one map: an ensemble of both planners on it, then a
    ranking of the demo model's planner slot over an EnsembleSpec of the same
    map. The seed picks ``maps`` distinct maps; a round evaluates each once.
    """

    name = "evaluate_maps"
    slot = "alg.edge_follow"

    def __init__(self, seed, expected=None, *, side=32, maps=16):
        super().__init__(expected)
        from refmodel import demo, evaluator, simulation, terrain

        self.evaluator = evaluator
        self.repo = demo.build_demo_repository()
        self.model = demo.build_demo_model(self.repo)
        self.gen = terrain.GenParams(width=side, height=side, obstacle_density=0.2)
        # High enough that every run covers its whole map.
        self.params = simulation.SimParams(capacity=1e9)
        self.map_seeds = [input_set(seed) * maps + i for i in range(maps)]

    def run_round(self, tally):
        ev = self.evaluator
        total = 0.0
        for op, map_seed in enumerate(self.map_seeds):

            def evaluate():
                stats = ev.ensemble(self.gen, 1, params=self.params, seed0=map_seed)
                spec = ev.EnsembleSpec(self.gen, 1, map_seed)
                ranked = ev.rank_configurations(self.model, self.repo, self.slot, spec, params=self.params)
                return stats, ranked, ev.ensemble_to_csv(stats), ev.ranking_to_csv(ranked)

            result, seconds = tally.call(evaluate)
            total += seconds
            tally.op_s.append(seconds)
            if result is None:
                continue
            stats, ranked, ensemble_csv, ranking_csv = result
            means = {entry.planner: f"{entry.mean_total:.6f}" for entry in stats.per_planner}
            agrees = all(r.completed and means.get(r.planner) == f"{r.score:.6f}" for r in ranked)
            if not self.check(f"op{op}", digest(ensemble_csv, ranking_csv)):
                tally.fail(f"op {op}: digest mismatch")
            elif not agrees:
                tally.fail(f"op {op}: ranking disagrees with the ensemble")
        return total


class ComposeFleet(Workload):
    """A fleet of renamed copies of the demo model, built, queried and saved.

    Each copy has the demo's 20 blocks, 12 connections and 19 traces, with
    block ids and interface types prefixed by a seeded token, so copies never
    wire into each other and each planner slot has exactly two alternatives.
    """

    name = "compose_fleet"
    tail_percentile = 99.9

    def __init__(self, seed, expected=None, *, copies=100, alternatives=10):
        super().__init__(expected)
        from refmodel import composition, core, demo, repository

        self.composition, self.core, self.repository = composition, core, repository
        template_repo = demo.build_demo_repository()
        template = demo.build_demo_model(template_repo)
        rng = random.Random(input_set(seed))
        prefixes: list[str] = []
        while len(prefixes) < copies:
            token = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(5))
            if token not in prefixes:
                prefixes.append(token)

        def renamed(prefix, block):
            ports = tuple(replace(p, interface_type=f"{prefix}.{p.interface_type}") for p in block.ports)
            return replace(block, id=f"{prefix}.{block.id}", ports=ports)

        def ref(prefix, port_ref):
            return core.PortRef(f"{prefix}.{port_ref.block}", port_ref.port)

        self.copies = [
            (
                [repository.BlockAsset(renamed(p, a.block)) for a in template_repo.block_assets()],
                [f"{p}.{block_id}" for block_id in sorted(template.blocks)],
                [(ref(p, c.source), ref(p, c.target)) for c in template.sorted_connections()],
                [core.TraceLink(t.kind, f"{p}.{t.source}", f"{p}.{t.target}") for t in template.sorted_traces()],
            )
            for p in prefixes
        ]
        self.capabilities = sorted(
            f"{p}.{b.id}" for p in prefixes for b in template.blocks.values() if b.kind is core.BlockKind.CAPABILITY
        )
        self.viewpoints = [
            a.viewpoint for a in template_repo.sorted_assets() if isinstance(a, repository.ViewpointAsset)
        ]
        self.slots = [f"{p}.alg.edge_follow" for p in rng.sample(prefixes, alternatives)]

    def run_round(self, tally):
        comp, core, repo_mod = self.composition, self.core, self.repository
        start = clock()
        repo = repo_mod.ReferenceRepository()
        model = core.Model(id="fleet")
        for assets, block_ids, connections, traces in self.copies:
            for asset in assets:
                result, seconds = tally.call(repo_mod.add_asset, repo, asset)
                tally.op_s.append(seconds)
                repo = result or repo
            for block_id in block_ids:
                result, seconds = tally.call(repo_mod.adopt, repo, block_id, model)
                tally.op_s.append(seconds)
                model = result or model
            for provided, required in connections:
                result, seconds = tally.call(comp.connect, model, provided, required)
                tally.op_s.append(seconds)
                model = result or model
            for link in traces:
                result, seconds = tally.call(core.add_trace, model, link)
                tally.op_s.append(seconds)
                model = result or model
        built = clock()
        report, _ = tally.call(comp.validate_configuration, model)
        coverage, _ = tally.call(comp.capability_coverage, model)
        trees = [tally.call(comp.trace, model, cap, comp.TraceDirection.DOWN)[0] for cap in self.capabilities]
        dots = []
        for viewpoint in self.viewpoints:
            view, _ = tally.call(comp.extract_view, model, viewpoint)
            dots.append(tally.call(comp.export_dot, view)[0] if view else None)
        alternatives = [tally.call(comp.enumerate_alternatives, model, repo, slot)[0] for slot in self.slots]
        queried = clock()
        repo_json, _ = tally.call(repo_mod.save, repo)
        loaded_repo, _ = tally.call(repo_mod.load, repo_json or "")
        model_json, _ = tally.call(repo_mod.save_model, model)
        loaded_model, _ = tally.call(repo_mod.load_model, model_json or "")
        done = clock()
        for name, seconds in (("build_s", built - start), ("query_s", queried - built), ("roundtrip_s", done - queried)):
            tally.series[name].append(seconds)

        # A call that raised has already failed; these check the calls that returned.
        if report is not None and not report.is_valid:
            tally.fail("fleet model does not validate")
        if coverage is not None and any(e.status is not comp.CoverageStatus.COVERED for e in coverage.entries):
            tally.fail("fleet capability not covered")
        if loaded_repo is not None and loaded_repo != repo:
            tally.fail("JSON round trip changed the repository")
        if loaded_model is not None and loaded_model != model:
            tally.fail("JSON round trip changed the model")
        queries = json.dumps(
            [
                report.findings() if report else None,
                [[e.capability_id, e.status.value, e.witnesses] for e in coverage.entries] if coverage else None,
                [tree.node_ids() if tree else None for tree in trees],
                [[sorted(set(m.blocks) ^ set(model.blocks)) for m in alts] if alts else None for alts in alternatives],
            ]
        )
        for key, value in (
            ("queries", digest(queries)),
            ("views.dot", digest(*(d or "" for d in dots))),
            ("repo.json", digest(repo_json or "")),
            ("model.json", digest(model_json or "")),
        ):
            if not self.check(key, value):
                tally.fail(f"digest mismatch: {key}")
        return done - start


class CliSession(Workload):
    """A fixed script of ``refmodel`` subprocesses, one at a time, in a fresh directory."""

    name = "cli_session"

    def __init__(self, seed, expected=None, *, ensemble_maps=200, rank_maps=100):
        super().__init__(expected)
        importlib.import_module("refmodel.cli")
        map_seed = str(input_set(seed) * 1000)
        model = ["--model", "work/demo.refmodel.json"]
        repo = ["--repo", "work/demo.refrepo.json"]
        # (command key, arguments, files the command writes)
        self.script = [
            ("help", ["--help"], []),
            (
                "demo",
                ["demo", "--out", "work"],
                ["work/demo.refrepo.json", "work/demo.refmodel.json", "work/reference.terrain.txt"],
            ),
            ("validate", ["validate", *model], []),
            ("coverage", ["coverage", *model], []),
            ("trace", ["trace", "cap.mowing", "--direction", "down", *model], []),
            ("view", ["view", "--subject", "service", "--aspect", "structure", "--format", "dot", *model], []),
            ("alternatives", ["alternatives", "--slot", "alg.edge_follow", *repo, *model], []),
            (
                "simulate",
                ["simulate", "--map", "work/reference.terrain.txt", "--planner", "terrain_aware", "--format", "csv"],
                [],
            ),
            (
                "compare",
                ["compare", "--map", "work/reference.terrain.txt", "--out", "work/compare"],
                [f"work/compare/{f}" for f in ("compare.csv", "compare.txt", "remaining.svg", "paths.svg")],
            ),
            (
                "ensemble",
                ["ensemble", "--n", str(ensemble_maps), "--seed", map_seed, "--out", "work/ensemble"],
                ["work/ensemble/ensemble.csv"],
            ),
            (
                "rank",
                ["rank", "--slot", "alg.edge_follow", "--n", str(rank_maps), "--seed", map_seed, *repo, *model]
                + ["--out", "work/rank"],
                ["work/rank/rank.csv"],
            ),
        ]
        self.traced = False
        self.span_reports: list[dict] = []
        self.env = {k: v for k, v in os.environ.items() if k != "REFMODEL_HOME"}
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.env["COLUMNS"] = "80"  # argparse wraps --help to the terminal width

    def command(self, key, args):
        if self.traced:
            return [sys.executable, str(BENCH_DIR / "tracing.py"), f"spans-{key}.json", "--", *args]
        return [sys.executable, "-m", "refmodel", *args]

    def run_round(self, tally):
        WORK_DIR.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=WORK_DIR))
        total = 0.0
        try:
            for key, args, written in self.script:
                tally.attempted += 1
                start = clock()
                try:
                    proc = subprocess.run(
                        self.command(key, args), cwd=workdir, env=self.env, capture_output=True, timeout=120
                    )
                except subprocess.TimeoutExpired:
                    proc = None
                seconds = clock() - start
                total += seconds
                tally.call_s.append(seconds)
                tally.op_s.append(seconds)
                if proc is None:
                    tally.fail(f"{key}: timed out")
                    continue
                tally.series[f"cli.{key}.ms"].append(seconds * 1e3)
                problems = []
                if proc.returncode != 0:
                    tally.nonzero_exits += 1
                    problems.append(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-200:]}")
                if not self.check(f"{key}.stdout", digest(proc.stdout)):
                    problems.append("stdout digest mismatch")
                for path in written:
                    target = workdir / path
                    if not self.check(f"{key}:{path}", digest(target.read_bytes()) if target.exists() else "missing"):
                        problems.append(f"{path} digest mismatch")
                if key == "compare":
                    problems += self._ridge_problems(workdir / "work/compare/compare.csv")
                if problems:
                    tally.fail(f"{key}: {'; '.join(problems)}")
                if self.traced and (workdir / f"spans-{key}.json").exists():
                    self.span_reports.append(json.loads((workdir / f"spans-{key}.json").read_text()))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return total

    def traced_round(self, tally, tracer):
        """Each command runs under bench/tracing.py, which reports its spans and counts."""
        self.traced, self.span_reports = True, []
        try:
            seconds = self.run_round(tally)
        finally:
            self.traced = False
        totals, counts, seeds = {}, defaultdict(int), set()
        for report in self.span_reports:
            merge_totals(totals, report["totals"])
            for key, value in report["counts"].items():
                counts[key] += value
            seeds.update(report["map_seeds"])
        return seconds, totals, dict(counts), seeds

    @staticmethod
    def _ridge_problems(csv_path) -> list[str]:
        """The paper's fixed point: the ridge totals 27.0 (sweep) and 24.4 (terrain-aware)."""
        totals = {}
        if csv_path.exists():
            for line in csv_path.read_text().splitlines()[1:]:
                fields = line.split(",")
                totals[fields[0]] = fields[2]
        if totals != {"edge_follow": "27.000000", "terrain_aware": "24.400000"}:
            return [f"ridge totals {totals}"]
        return []


WORKLOADS = {w.name: w for w in (EvaluateMaps, ComposeFleet, CliSession)}


def one_round(name: str, seed: int) -> dict:
    """Set up the workload for the seed, then run one round; returns its record."""
    expected = recorded_digests(name, seed)
    start = clock()
    workload = WORKLOADS[name](seed, expected)
    setup_s = clock() - start
    tally = Tally()
    workload.run_round(tally)
    return {"setup_s": setup_s, **tally.record()}


if __name__ == "__main__":
    _, name, seed = sys.argv
    sys.path.insert(0, str(SRC))
    print(json.dumps(one_round(name, int(seed))))
