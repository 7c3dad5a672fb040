"""scripts/density_sweep.py, the README's win-rate experiment, run end to end on one map per density."""

import subprocess
import sys
from pathlib import Path

from refmodel.evaluator import ensemble
from refmodel.simulation import SimParams
from refmodel.terrain import GenParams

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "density_sweep.py"


def test_sweep_writes_one_row_per_density_and_planner(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path), "--n", "1"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"wrote {tmp_path / 'density_sweep.csv'}"
    header, *rows = (tmp_path / "density_sweep.csv").read_text(encoding="utf-8").splitlines()
    assert header == "density,planner,mean_total,min_total,max_total,wins,n_maps"
    expected = []
    for density in (0.0, 0.1, 0.2, 0.3):
        stats = ensemble(GenParams(width=14, height=12, obstacle_density=density), 1, params=SimParams(capacity=400.0))
        expected += [
            f"{density},{e.planner},{e.mean_total:.6f},{e.min_total:.6f},{e.max_total:.6f},{e.wins},1"
            for e in stats.per_planner
        ]
    assert len(rows) == 8
    assert rows == expected
