"""scripts/sloc.py, the source-size count the ROADMAP tracks, run end to end and on one file of each kind of line."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "sloc.py"


def test_module_rows_sum_to_the_total():
    proc = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    *rows, (total, label) = [line.split() for line in proc.stdout.splitlines()]
    modules = sorted(str(path.relative_to(ROOT)) for path in (ROOT / "src" / "refmodel").glob("*.py"))
    assert [path for _, path in rows] == modules
    assert label == "total"
    assert sum(int(count) for count, _ in rows) == int(total)


def test_docstring_lines_count_and_blank_and_comment_lines_do_not(tmp_path):
    spec = importlib.util.spec_from_file_location("sloc", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Summary line.\n\nA docstring line.\n"""\n\n# a comment\n    # an indented comment\n   \nx = 1  # counted\n',
        encoding="utf-8",
    )
    assert module.sloc(source) == 4
