"""Record the output digests the benchmark checks, for every input set.

    python3 bench/record_digests.py [WORKLOAD ...]

Runs one round of each workload per input set, without checking,
and writes the digests to bench/digests/<workload>.json. Re-record only when a change
is meant to alter refmodel's outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys

from workloads import DIGESTS_DIR, INPUT_SETS, SRC, WORKLOADS, Tally


def record(name: str) -> dict[str, dict[str, str]]:
    out = {}
    for input_set in range(INPUT_SETS):
        workload = WORKLOADS[name](input_set, expected=None)
        tally = Tally()
        workload.run_round(tally)
        if tally.failed:
            raise SystemExit(f"{name} input set {input_set}: {tally.errors}")
        out[str(input_set)] = dict(sorted(workload.produced.items()))
        print(f"{name} {input_set}: {len(workload.produced)} digests", file=sys.stderr)
    return out


def main(names) -> int:
    sys.path.insert(0, str(SRC))
    DIGESTS_DIR.mkdir(exist_ok=True)
    for name in names or WORKLOADS:
        digests = record(name)
        (DIGESTS_DIR / f"{name}.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
