#!/usr/bin/env python3
"""Compare an earlier commit with this checkout in alternating pairs of benchmark runs.

Each pair runs `bench/run.py --workload WORKLOAD` for BENCHMARK.json's
`run_seconds` once from a temporary `git worktree` of REV and once from a
temporary copy of this checkout's files (those `git ls-files --cached --others
--exclude-standard` lists, so no bytecode cache), REV first in even pairs.
Every run has `PYTHONDONTWRITEBYTECODE=1`: both sides compile their own
modules from source, and the standard library loads from its installed
bytecode, as in a fresh checkout. For each end-to-end metric of each
workload it prints REV's median and quartiles, this checkout's median, their
ratio, the pairs this checkout won (ties count for neither) and a verdict:
`gain` if it won at least 9 in 10 pairs by more than REV's interquartile
range; else `worse` if its median is worse by more than the metric's
`bound`; else `unresolved` if REV's interquartile range is wider than the
bound and not every run of this checkout beats every run of REV; else
`within`. Then both sides' median calls attempted per workload (a faster
side runs more rounds, and compose_fleet's `peak_rss_mb` grows with them),
and a last JSON line with every run's metrics. Exits 1 if a run fails or is
not `correct: true`. Each run has a process group of its own, killed if this
script exits first.

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
PAIRS, SEED = 10, 11
NO_BYTECODE = "PYTHONDONTWRITEBYTECODE=1, each side a fresh copy of its files: refmodel compiles from source"

Run = dict[str, dict]  # metric name -> {"value": ..., "unit": ...}, as bench/run.py reports it


def run_in_group(command: list[str], cwd: Path, env: dict[str, str] | None) -> subprocess.CompletedProcess:
    """Run command to its end in a new process group, and kill the whole group if this process exits first."""
    with subprocess.Popen(
        command, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            out, err = proc.communicate()
        except BaseException:
            # bench/run.py runs its rounds in child processes, which a kill of proc alone would leave running.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            raise
    return subprocess.CompletedProcess(command, proc.returncode, out, err)


def bench(checkout: Path, workload: str, seconds: float, seed: int, env: dict[str, str]) -> Run | None:
    """One run: metrics and op counts as `workload.name`; None if it fails or is not correct."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = run_in_group(command, checkout, env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        return None
    if workload != "all":
        metrics = {f"{workload}.{name}": entry for name, entry in result["metrics"].items()}
        return {**metrics, f"{workload}.attempted": {"value": result["attempted"], "unit": "calls"}}
    metrics = dict(result["metrics"])
    # `--workload all` prints one `name: correct=... attempted=N failed=M` line per workload.
    for line in lines:
        name, found, rest = line.partition(": correct=")
        if found:
            metrics[f"{name}.attempted"] = {"value": int(rest.split(" attempted=")[1].split()[0]), "unit": "calls"}
    return metrics


def copy_checkout(target: Path) -> None:
    """Copy the files of this checkout that git tracks or would track, and so no bytecode cache, to target."""
    listed = ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"]
    names = subprocess.run(listed, cwd=ROOT, capture_output=True, text=True, check=True).stdout.split("\0")
    for name in names:
        if name and (ROOT / name).is_file():  # a tracked file deleted here is listed too
            (target / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, target / name)


def run_pairs(rev: str, workload: str, pairs: int, seed: int) -> tuple[list[Run], list[Run]] | None:
    """REV's runs and this checkout's, in run order; None, after a message, if a run fails or REV has no checkout."""
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    print(f"{pairs} pairs of bench/run.py --workload {workload} --seed {seed} --seconds {seconds}: {NO_BYTECODE}")
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    worktree, checkout = scratch / "rev", scratch / "checkout"
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        try:
            add = ["git", "worktree", "add", "--detach", str(worktree), rev]
            subprocess.run(add, cwd=ROOT, capture_output=True, text=True, check=True)
        except subprocess.CalledProcessError as exc:
            print(f"error: cannot check out {rev}: {exc.stderr.strip()}", file=sys.stderr)
            return None
        copy_checkout(checkout)
        sides = {rev: worktree, "this checkout": checkout}
        runs: dict[str, list[Run]] = {side: [] for side in sides}
        for pair in range(pairs):
            for side in list(sides) if pair % 2 == 0 else list(sides)[::-1]:
                metrics = bench(sides[side], workload, seconds, seed, env)
                if metrics is None:
                    print(f"error: pair {pair}: the run of {side} failed or is not correct: true", file=sys.stderr)
                    return None
                runs[side].append(metrics)
                print(f"pair {pair} {side}: correct", flush=True)
        return runs[rev], runs["this checkout"]
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(worktree)], cwd=ROOT, capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)


def medians(runs: list[Run]) -> Run:
    """Each metric's median over the runs, with its unit."""
    return {name: {"value": statistics.median(run[name]["value"] for run in runs), "unit": entry["unit"]}
            for name, entry in runs[0].items()}  # fmt: skip


def rows(before: list[Run], after: list[Run]) -> dict[str, dict]:
    """Per end-to-end metric of each workload: REV's median and quartiles, the median, ratio, pairs won and verdict."""
    rules = {entry["name"]: entry for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    table = {}
    for name in sorted(name for name in before[0] if name.rsplit(".", 1)[-1] in rules):
        rule = rules[name.rsplit(".", 1)[-1]]
        old_runs, new_runs = [run[name]["value"] for run in before], [run[name]["value"] for run in after]
        q1, _, q3 = statistics.quantiles(old_runs, n=4) if len(old_runs) > 1 else old_runs * 3
        old, new = statistics.median(old_runs), statistics.median(new_runs)
        sign = 1 if rule["better"] == "lower" else -1  # sign * (a - b) > 0: b reads better than a
        won = sum(sign * (a - b) > 0 for a, b in zip(old_runs, new_runs))
        every_run_better = max(new_runs) < min(old_runs) if sign == 1 else min(new_runs) > max(old_runs)
        if 10 * won >= 9 * len(old_runs) and sign * (old - new) > q3 - q1:
            verdict = "gain"
        elif sign * (new - old) > rule["bound"] * old:
            verdict = "worse"
        elif q3 - q1 > rule["bound"] * old and not every_run_better:
            verdict = "unresolved"
        else:
            verdict = "within"
        ratio = new / old if old else None
        table[name] = dict(rev_median=old, rev_q1=q1, rev_q3=q3, median=new, ratio=ratio, won=won, verdict=verdict)
    return table


def report(rev: str, before: list[Run], after: list[Run]) -> None:
    """Print the table of rows, both sides' median calls attempted per workload, and every run as one JSON line."""
    print(f"{'metric':<30} {'rev median':>11} {'rev q1':>11} {'rev q3':>11} {'median':>11} {'ratio':>6}    won verdict")
    for name, row in rows(before, after).items():
        values = (f"{row[key]:>11.5g}" for key in ("rev_median", "rev_q1", "rev_q3", "median"))
        ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.3f}"
        print(f"{name:<30} {' '.join(values)} {ratio:>6} {row['won']:>3}/{len(before)} {row['verdict']}")
    print(f"{'calls attempted':<30} {'rev median':>11} {'median':>11} {'ratio':>6}")
    old, new = medians(before), medians(after)
    for name in sorted(name for name in old if name.endswith(".attempted")):
        ratio = f"{new[name]['value'] / old[name]['value']:.3f}" if old[name]["value"] else "n/a"
        print(f"{name:<30} {old[name]['value']:>11.5g} {new[name]['value']:>11.5g} {ratio:>6}")
    print(json.dumps({rev: before, "this checkout": after}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev", help="the commit to compare with, e.g. the parent of this change")
    parser.add_argument("--pairs", type=int, default=PAIRS)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)

    runs = run_pairs(args.rev, args.workload, args.pairs, args.seed)
    if runs is None:
        return 1
    report(args.rev, *runs)
    return 0


if __name__ == "__main__":
    # A plain kill ends the run through SystemExit, so run_pairs' `finally` removes the worktree then too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    raise SystemExit(main())
