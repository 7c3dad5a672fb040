"""Span tracing of refmodel's public layer functions, installed from outside.

The traced run replaces module attributes that hold a public layer function
with a wrapper that records a span (name, start, end, parent) and, for some
functions, deterministic work counts. Planners are wrapped through the public
``register_planner(..., overwrite=True)``. ``Tracer.uninstall`` puts every
original back. Timed (untraced) runs never install anything.

Run as a script, this module executes one ``refmodel`` CLI command with
tracing installed and writes the per-name totals to a JSON file:

    python bench/tracing.py SPANS.json -- demo --out work
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (span name, module, attribute). Every refmodel module attribute bound to the
# same function object is replaced, so calls through re-exports and
# ``from .x import f`` bindings are seen too.
FUNCTIONS = (
    ("terrain.generate_map", "refmodel.terrain", "generate_map"),
    ("simulation.run", "refmodel.simulation", "run"),
    ("simulation.power_consumption", "refmodel.simulation", "power_consumption"),
    ("simulation.power_state", "refmodel.simulation", "power_state"),
    ("evaluator.ensemble", "refmodel.evaluator", "ensemble"),
    ("evaluator.compare", "refmodel.evaluator", "compare"),
    ("evaluator.rank_configurations", "refmodel.evaluator", "rank_configurations"),
    ("core.add_trace", "refmodel.core", "add_trace"),
    ("repository.add_asset", "refmodel.repository", "add_asset"),
    ("repository.adopt", "refmodel.repository", "adopt"),
    ("repository.save", "refmodel.repository", "save"),
    ("repository.load", "refmodel.repository", "load"),
    ("repository.save_model", "refmodel.repository", "save_model"),
    ("repository.load_model", "refmodel.repository", "load_model"),
    ("composition.connect", "refmodel.composition", "connect"),
    ("composition.validate_configuration", "refmodel.composition", "validate_configuration"),
    ("composition.capability_coverage", "refmodel.composition", "capability_coverage"),
    ("composition.trace", "refmodel.composition", "trace"),
    ("composition.extract_view", "refmodel.composition", "extract_view"),
    ("composition.export_dot", "refmodel.composition", "export_dot"),
    # enumerate_alternatives delegates all its work to this function, which
    # rank_configurations and the CLI also call directly.
    ("composition.enumerate_alternatives", "refmodel.composition", "enumerate_alternatives_with_slots"),
    ("demo.build_demo_repository", "refmodel.demo", "build_demo_repository"),
    ("demo.build_demo_model", "refmodel.demo", "build_demo_model"),
)

PLANNERS = (("planners.plan_edge_follow", "edge_follow"), ("planners.plan_terrain_aware", "terrain_aware"))

SPAN_NAMES = tuple(name for name, *_ in FUNCTIONS + PLANNERS)


def _count_generate_map(tracer, args, kwargs, tmap):
    seed = kwargs["seed"] if "seed" in kwargs else args[3]
    tracer.counts["terrain.generate_map.calls"] += 1
    tracer.counts["terrain.cells_generated"] += tmap.width * tmap.height
    tracer.map_seeds.add(seed)


def _count_plan(tracer, args, kwargs, path):
    new_cells = len(set(path.positions)) - 1
    tracer.counts["planners.plan.calls"] += 1
    tracer.counts["planners.path_steps"] += path.num_steps
    tracer.counts["planners.revisit_steps"] += path.num_steps - new_cells
    tracer.counts["planners.first_visits"] += new_cells


def _count_run(tracer, args, kwargs, result):
    tracer.counts["simulation.steps_simulated"] += result.steps_completed


def _count_calls(name):
    def count(tracer, args, kwargs, result):
        tracer.counts[name] += 1

    return count


def _count_bytes(tracer, args, kwargs, text):
    tracer.counts["repository.bytes_serialized"] += len(text.encode("utf-8"))


COUNTERS = {
    "terrain.generate_map": _count_generate_map,
    "planners.plan_edge_follow": _count_plan,
    "planners.plan_terrain_aware": _count_plan,
    "simulation.run": _count_run,
    "core.add_trace": _count_calls("core.add_trace.calls"),
    "composition.trace": _count_calls("composition.trace.calls"),
    "repository.save": _count_bytes,
    "repository.save_model": _count_bytes,
}


def merge_totals(into: dict, part: dict):
    """Add span totals ({name: {"calls", "s", "self_s"}}) from part into into."""
    for name, entry in part.items():
        target = into.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for field, value in entry.items():
            target[field] += value


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.map_seeds: set[int] = set()
        self._stack: list[int] = []
        self._restore: list = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def install(self):
        from refmodel import planners

        targets = [(name, importlib.import_module(module), attr) for name, module, attr in FUNCTIONS]
        modules = [m for n, m in list(sys.modules.items()) if n == "refmodel" or n.startswith("refmodel.")]
        for name, module, attr in targets:
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._restore.append((holder, key, original))
        for name, planner in PLANNERS:
            _, original = planners.resolve_planner(planner)
            planners.register_planner(planner, self.wrap(name, original), overwrite=True)
            self._restore.append((planners.register_planner, planner, original))

    def uninstall(self):
        from refmodel import planners

        for target, key, original in reversed(self._restore):
            if target is planners.register_planner:
                planners.register_planner(key, original, overwrite=True)
            else:
                setattr(target, key, original)
        self._restore.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, and self seconds (minus child spans)."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.map_seeds.clear()


def _main(argv) -> int:
    spans_file, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: tracing.py SPANS.json -- REFMODEL-ARGS...")
    tracer = Tracer()
    import refmodel.cli

    tracer.install()
    try:
        code = refmodel.cli.main(cli_args)
    finally:
        tracer.uninstall()
    report = {
        "totals": tracer.totals(),
        "counts": dict(tracer.counts),
        "map_seeds": sorted(tracer.map_seeds),
    }
    with open(spans_file, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
