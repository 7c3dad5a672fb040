#!/usr/bin/env python3
"""Compare an earlier commit with this checkout in alternating pairs of benchmark runs.

Checks REV out into a temporary `git worktree` and runs the benchmark once
from that worktree and once from this checkout in each pair, REV first in
even pairs (0, 2, ...) and this checkout first in odd ones. Each run is one
`bench/run.py --workload WORKLOAD` of that side's own sources, for the
`run_seconds` of BENCHMARK.json; `--workload all` runs every workload, each
in its own process, as `bench/run.py` does. Prints, for every end-to-end
metric of BENCHMARK.json on every workload run: both sides' medians, REV's
quartiles (`statistics.quantiles`), the ratio of the medians (this checkout
/ REV) and the pairs this checkout won (better by the metric's direction;
ties count for neither side), and a verdict by the rules for paired runs:
`gain` if this checkout won at least 9 in 10 pairs and the medians differ
by more than REV's interquartile range; else `worse` if its median is worse
than REV's by more than the metric's `bound` (a fraction of REV's median);
else `unresolved` if REV's interquartile range is wider than the bound and
not every run of this checkout beats every run of REV; else `within`.
Under that table it prints both sides' median
`attempted` count per workload and their ratio, since a faster side runs
more rounds in the same time, and `peak_rss_mb` of compose_fleet grows with
the round count. The last line is one JSON object with every run's
end-to-end metrics and `attempted` count per workload, in run order.
Exits 1 if a run fails or is not `correct: true`. Each run starts in a
process group of its own, which is killed if this script exits first, a
SIGTERM included; the worktree is removed on every exit.

Usage: python scripts/bench_pairs.py REV [--pairs 10] [--workload all] [--seed 11]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_in_group(command: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """Run command to its end in a new process group, and kill the whole group if this process exits first."""
    with subprocess.Popen(
        command, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            out, err = proc.communicate()
        except BaseException:
            # bench/run.py runs its rounds in child processes, which a kill of proc alone would leave running.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            raise
    return subprocess.CompletedProcess(command, proc.returncode, out, err)


def bench(checkout: Path, workload: str, seconds: float, seed: int) -> dict[str, float] | None:
    """One run: metrics and op counts as `workload.name`; None if it fails or is not correct."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = run_in_group(command, checkout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        return None
    if workload != "all":
        metrics = {f"{workload}.{name}": entry["value"] for name, entry in result["metrics"].items()}
        return {**metrics, f"{workload}.attempted": result["attempted"]}
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    # `--workload all` prints one `name: correct=... attempted=N failed=M` line per workload.
    for line in lines:
        name, found, rest = line.partition(": correct=")
        if found:
            metrics[f"{name}.attempted"] = int(rest.split(" attempted=")[1].split()[0])
    return metrics


def summary(name: str, before: list[float], after: list[float], lower_is_better: bool, bound: float) -> str:
    """One row: both medians, the quartiles of `before`, the ratio of medians, the pairs `after` won and the verdict."""
    q1, _, q3 = statistics.quantiles(before, n=4) if len(before) > 1 else before * 3
    old, new = statistics.median(before), statistics.median(after)
    sign = 1 if lower_is_better else -1  # sign * (a - b) > 0: b reads better than a
    won = sum(sign * (a - b) > 0 for a, b in zip(before, after))
    every_run_better = max(after) < min(before) if lower_is_better else min(after) > max(before)
    if 10 * won >= 9 * len(before) and sign * (old - new) > q3 - q1:
        verdict = "gain"
    elif sign * (new - old) > bound * old:
        verdict = "worse"
    elif q3 - q1 > bound * old and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "within"
    ratio = f"{new / old:.3f}" if old else "n/a"
    return f"{name:<30} {old:>11.5g} {q1:>11.5g} {q3:>11.5g} {new:>11.5g} {ratio:>6} {won:>3}/{len(before)} {verdict}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev", help="the commit to compare with, e.g. the parent of this change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    lower_is_better = {entry["name"]: entry["better"] == "lower" for entry in declared["end_to_end"]}
    bounds = {entry["name"]: entry["bound"] for entry in declared["end_to_end"]}
    keep = {*lower_is_better, "attempted"}
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    worktree = scratch / "rev"
    try:
        try:
            add = ["git", "worktree", "add", "--detach", str(worktree), args.rev]
            subprocess.run(add, cwd=ROOT, capture_output=True, text=True, check=True)
        except subprocess.CalledProcessError as exc:
            print(f"error: cannot check out {args.rev}: {exc.stderr.strip()}", file=sys.stderr)
            return 1
        sides = {args.rev: worktree, "this checkout": ROOT}
        runs: dict[str, list[dict[str, float]]] = {side: [] for side in sides}
        for pair in range(args.pairs):
            for side in list(sides) if pair % 2 == 0 else list(sides)[::-1]:
                metrics = bench(sides[side], args.workload, declared["run_seconds"], args.seed)
                if metrics is None:
                    print(f"error: pair {pair}: the run of {side} failed or is not correct: true", file=sys.stderr)
                    return 1
                runs[side].append({k: v for k, v in metrics.items() if k.rsplit(".", 1)[-1] in keep})
                print(f"pair {pair} {side}: correct", flush=True)
        before, after = runs.values()
        header = f"{'metric':<30} {'rev median':>11} {'rev q1':>11} {'rev q3':>11} {'median':>11} {'ratio':>6}    won"
        print(header + " verdict")
        for name in sorted(name for name in before[0] if not name.endswith(".attempted")):
            rows = [run[name] for run in before], [run[name] for run in after]
            metric = name.rsplit(".", 1)[-1]
            print(summary(name, *rows, lower_is_better[metric], bounds[metric]))
        print(f"{'calls attempted':<30} {'rev median':>11} {'median':>11} {'ratio':>6}")
        for name in sorted(name for name in before[0] if name.endswith(".attempted")):
            old, new = (statistics.median(run[name] for run in side) for side in (before, after))
            print(f"{name:<30} {old:>11.5g} {new:>11.5g} {f'{new / old:.3f}' if old else 'n/a':>6}")
        print(json.dumps(runs))
        return 0
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(worktree)], cwd=ROOT, capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)


if __name__ == "__main__":
    # A plain kill ends the run through SystemExit, so main's `finally` removes the worktree then too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    raise SystemExit(main())
