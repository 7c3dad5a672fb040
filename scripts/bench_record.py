#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as BENCH_<PR>.json at the repository root.

Runs `scripts/bench_pairs.py`'s pairs (its pair count, `--workload all`, seed
11) of this checkout against `meta.git_sha` of the latest earlier record that
names a commit, prints their table, and writes `meta`, `metrics` (this
checkout's medians, with units), `baseline` (REV's sha and bench_pairs' row
per end-to-end metric of each workload) and `correct: true`. Writes nothing,
and exits 1, if no earlier record names a commit or a run is not correct.

Usage: python scripts/bench_record.py PR
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

import bench_pairs

ROOT = Path(__file__).resolve().parents[1]


def baseline_record(pr: int) -> tuple[Path, str] | None:
    """The BENCH_<n>.json with the largest n below pr whose meta names a commit, and that commit."""
    found = []
    for path in ROOT.glob("BENCH_*.json"):
        number = path.stem.removeprefix("BENCH_")
        sha = number.isdigit() and json.loads(path.read_text()).get("meta", {}).get("git_sha", "unknown")
        if number.isdigit() and int(number) < pr and sha != "unknown":
            found.append((int(number), path, sha))
    return max(found)[1:] if found else None


def git(*args: str) -> str:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("pr", type=int, help="number of the change being recorded")
    args = parser.parse_args(argv)

    found = baseline_record(args.pr)
    if found is None:
        print(f"error: no BENCH_*.json below {args.pr} names a commit to pair with; nothing written", file=sys.stderr)
        return 1
    earlier, rev = found
    runs = bench_pairs.run_pairs(rev, "all", bench_pairs.PAIRS, bench_pairs.SEED)
    if runs is None:
        print("error: a run failed or is not correct: true; nothing written", file=sys.stderr)
        return 1
    before, after = runs
    bench_pairs.report(rev, before, after)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    medians = bench_pairs.medians(after)
    attempted = {name: medians.pop(name)["value"] for name in list(medians) if name.endswith(".attempted")}
    meta = {
        "pr": args.pr,
        "seed": bench_pairs.SEED,
        "seconds": seconds,
        "command": f"python3 bench/run.py --workload all --seed {bench_pairs.SEED} --seconds {seconds}".split(),
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pairs": len(after),
        "baseline_record": earlier.name,
        "bytecode": bench_pairs.NO_BYTECODE,
        "workloads": attempted,
    }
    baseline = {"git_sha": rev, "rows": bench_pairs.rows(before, after)}
    record = {"meta": meta, "metrics": medians, "baseline": baseline, "correct": True}
    target = ROOT / f"BENCH_{args.pr}.json"
    target.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {target.name}, paired with {earlier.name} ({rev})")
    return 0


if __name__ == "__main__":
    # A plain kill ends the run through SystemExit, so run_pairs' `finally` removes the worktree then too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    raise SystemExit(main())
