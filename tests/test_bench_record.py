import importlib.util
import json
import os
import platform
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"


@pytest.fixture()
def bench_record(tmp_path, monkeypatch):
    """The script as a module, rooted at an empty tmp_path whose bench run prints a canned result."""
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 40}))
    monkeypatch.setattr(module, "ROOT", tmp_path)
    result = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"w.round_s": {"value": 2.0, "unit": "s"}}}

    def fake_run(command, **kwargs):
        if command[0] == "git":
            raise subprocess.CalledProcessError(128, command)
        assert command[1:] == ["bench/run.py", "--workload", "all", "--seed", "11", "--seconds", "40"]
        return subprocess.CompletedProcess(command, 0, "w: correct=True\n" + json.dumps(result) + "\n", "")

    monkeypatch.setattr(module.subprocess, "run", fake_run)
    return module, result


def test_writes_record_and_ratio_to_previous(bench_record, tmp_path, capsys):
    module, result = bench_record
    (tmp_path / "BENCH_4.json").write_text(json.dumps({"metrics": {"w.round_s": {"value": 4.0, "unit": "s"}}}))
    assert module.main(["6"]) == 0
    record = json.loads((tmp_path / "BENCH_6.json").read_text())
    assert record["metrics"] == result["metrics"] and record["correct"] is True
    assert record["meta"]["seed"] == 11 and record["meta"]["workloads"] == ["w: correct=True"]
    head, ratios = capsys.readouterr().out.split("ratio BENCH_6.json / BENCH_4.json:")
    assert ratios.split() == ["w.round_s", "0.500"]
    assert head.splitlines()[-1] == (
        f"BENCH_6.json (git_sha unknown, python {platform.python_version()}, nproc {os.cpu_count()}) vs "
        "BENCH_4.json (git_sha unknown, python unknown, nproc unknown): "
        "two single runs, so host drift is not controlled"
    )


def test_provenance_names_the_earlier_records_host(bench_record, tmp_path, capsys):
    module, _ = bench_record
    meta = {"git_sha": "abc123", "python": "3.11.7", "nproc": 2}
    (tmp_path / "BENCH_4.json").write_text(json.dumps({"meta": meta, "metrics": {}}))
    assert module.main(["6"]) == 0
    assert "vs BENCH_4.json (git_sha abc123, python 3.11.7, nproc 2): " in capsys.readouterr().out


def test_refuses_to_write_an_incorrect_run(bench_record, tmp_path):
    module, result = bench_record
    result["correct"] = False
    assert module.main(["6"]) == 1
    assert not (tmp_path / "BENCH_6.json").exists()
