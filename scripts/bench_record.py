#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as BENCH_<PR>.json at the repository root.

Runs `bench/run.py --workload all` at workload seed 11 for the benchmark's
declared run length (`run_seconds` in BENCHMARK.json) and writes the run's
metadata and metrics. Every record uses the same seed, so the ratios to an
earlier record compare the same workloads.
Refuses to write, and exits 1, unless the run reports `correct: true`. When
an earlier BENCH_*.json exists, prints each metric's ratio to the latest one
(new / old; below 1 is better for every metric whose unit is a time, a size
or a count), after a line naming both records' commit, Python and CPU count.
Each side is one run, taken at its own time, so the ratios include any drift
of the host's speed between the two runs.

Usage: python scripts/bench_record.py PR
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 11


def previous_record(pr: int) -> Path | None:
    """The BENCH_<n>.json with the largest n below pr, if any."""
    found = []
    for path in ROOT.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match and int(match.group(1)) < pr:
            found.append((int(match.group(1)), path))
    return max(found)[1] if found else None


def git(*args: str) -> str:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def provenance(name: str, meta: dict) -> str:
    """A record's file name with the commit, Python and CPU count it was measured with."""
    facts = ", ".join(f"{key} {meta.get(key, 'unknown')}" for key in ("git_sha", "python", "nproc"))
    return f"{name} ({facts})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("pr", type=int, help="number of the change being recorded")
    args = parser.parse_args(argv)

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    command = [sys.executable, "bench/run.py", "--workload", "all", "--seed", str(SEED), "--seconds", str(seconds)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        print(f"error: bench/run.py exited {proc.returncode}; nothing written", file=sys.stderr)
        return 1
    *summary, result_line = proc.stdout.splitlines()
    print("\n".join(summary))
    result = json.loads(result_line)
    if result.get("correct") is not True:
        print("error: the run is not correct: true; nothing written", file=sys.stderr)
        return 1

    meta = {
        "pr": args.pr,
        "seed": SEED,
        "seconds": seconds,
        "command": ["python3", *command[1:]],
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workloads": [line for line in summary if not line.startswith(" ")],
    }
    record = {"meta": meta, **result}
    target = ROOT / f"BENCH_{args.pr}.json"
    before = previous_record(args.pr)
    target.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {target.name}")

    if before is None:
        print("no earlier BENCH_*.json to compare with")
        return 0
    old_record = json.loads(before.read_text())
    old = old_record["metrics"]
    print(
        f"{provenance(target.name, meta)} vs {provenance(before.name, old_record.get('meta', {}))}: "
        "two single runs, so host drift is not controlled"
    )
    print(f"ratio {target.name} / {before.name}:")
    for name, entry in result["metrics"].items():
        base = old.get(name, {}).get("value")
        ratio = f"{entry['value'] / base:8.3f}" if base else "     n/a"
        print(f"  {name:<56} {ratio}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
