#!/usr/bin/env python3
"""Count the source lines of each refmodel module: lines that are neither blank nor comments.

Docstrings count as source. Prints one `COUNT PATH` row per module of
src/refmodel, sorted by path, and a final `COUNT total` row.

Usage: python scripts/sloc.py
"""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "refmodel"


def sloc(path: Path) -> int:
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = sloc(path)
        total += count
        print(f"{count:5d} {path.relative_to(PACKAGE.parents[1])}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
