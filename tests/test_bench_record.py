import importlib.util
import json
import platform
import subprocess
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
END_TO_END = [
    {"name": "round_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]


def all_workloads(round_s, attempted=4, correct=True):
    """What `bench/run.py --workload all` prints: a summary line per workload, then the combined result."""
    lines, combined = [], {}
    for name, value, calls in (("w", round_s, attempted), ("v", 1.0, 7)):
        lines.append(f"{name}: correct={correct} attempted={calls} failed=0")
        combined[f"{name}.round_s"] = {"value": value, "unit": "s"}
        combined[f"{name}.peak_rss_mb"] = {"value": 40.0, "unit": "MB"}
        combined[f"{name}.cmd_ms_p50"] = {"value": 3.0, "unit": "ms"}
    lines.append(json.dumps({"correct": correct, "attempted": attempted + 7, "failed": 0, "metrics": combined}))
    return "\n".join(lines) + "\n"


@pytest.fixture()
def bench_record(tmp_path, monkeypatch):
    """The script as a module, rooted at tmp_path; git is faked, and bench runs are faked inside run_in_group only."""
    monkeypatch.syspath_prepend(str(SCRIPTS))
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)  # so the script has to set it
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPTS / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    pairs = module.bench_pairs
    declared = {"run_seconds": 40, "end_to_end": END_TO_END}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(declared))
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(pairs, "ROOT", tmp_path)
    log = {"git": [], "runs": []}
    # Each side's outputs in order: the checkout at tmp_path is this change, any other cwd the worktree of REV.
    outputs = {"rev": [], "change": []}

    def fake_run(command, cwd=None, **kwargs):
        # Anything but git started here would be a process outside run_in_group's process group.
        assert command[0] == "git", f"started outside run_in_group: {command}"
        log["git"].append(command[1:])
        out = {"rev-parse": "feedface\n", "status": ""}.get(command[1], "")
        return subprocess.CompletedProcess(command, 0, out, "")

    def no_popen(command, *args, **kwargs):
        pytest.fail(f"started outside run_in_group: {command}")

    def fake_run_in_group(command, cwd, env):
        assert command[1:] == ["bench/run.py", "--workload", "all", "--seed", "11", "--seconds", "40"]
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"
        side = "change" if Path(cwd) == tmp_path else "rev"
        log["runs"].append(side)
        return subprocess.CompletedProcess(command, 0, outputs[side].pop(0), "")

    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.setattr(subprocess, "Popen", no_popen)
    monkeypatch.setattr(pairs, "run_in_group", fake_run_in_group)
    return module, log, outputs


def write_record(path, **meta):
    path.write_text(json.dumps({"meta": meta, "metrics": {}}))


def test_writes_the_paired_baseline_and_this_checkouts_medians(bench_record, tmp_path, capsys):
    module, log, outputs = bench_record
    write_record(tmp_path / "BENCH_3.json", git_sha="0ld")
    write_record(tmp_path / "BENCH_4.json", git_sha="abc123")
    write_record(tmp_path / "BENCH_5.json")  # names no commit, so BENCH_4.json is the baseline
    write_record(tmp_path / "BENCH_9.json", git_sha="later")
    outputs["rev"] = [all_workloads(value) for value in [1.0] * 5 + [1.2] * 5]
    outputs["change"] = [all_workloads(0.8, attempted) for attempted in [5, 6] * 5]
    assert module.main(["6"]) == 0

    # Every bench/run.py went through run_in_group: bench_pairs' 10 pairs, REV first in even pairs.
    assert log["runs"] == ["rev", "change", "change", "rev"] * 5
    assert log["git"][0][:2] == ["worktree", "add"] and log["git"][0][-1] == "abc123"
    record = json.loads((tmp_path / "BENCH_6.json").read_text())
    assert record["correct"] is True and sorted(record) == ["baseline", "correct", "meta", "metrics"]
    assert record["baseline"]["git_sha"] == "abc123"
    # REV's round_s median 1.1 and quartiles 1.0 and 1.2; 0.8 wins 10 of 10 pairs by more than that range.
    rows = record["baseline"]["rows"]
    assert sorted(rows) == ["v.peak_rss_mb", "v.round_s", "w.peak_rss_mb", "w.round_s"]
    assert rows["w.round_s"] == {
        "rev_median": 1.1, "rev_q1": 1.0, "rev_q3": 1.2, "median": 0.8,
        "ratio": pytest.approx(0.8 / 1.1), "won": 10, "verdict": "gain",
    }  # fmt: skip
    assert (rows["v.round_s"]["won"], rows["v.round_s"]["verdict"]) == (0, "within")
    assert record["metrics"] == {
        "w.round_s": {"value": 0.8, "unit": "s"},
        "w.peak_rss_mb": {"value": 40.0, "unit": "MB"},
        "w.cmd_ms_p50": {"value": 3.0, "unit": "ms"},
        "v.round_s": {"value": 1.0, "unit": "s"},
        "v.peak_rss_mb": {"value": 40.0, "unit": "MB"},
        "v.cmd_ms_p50": {"value": 3.0, "unit": "ms"},
    }
    meta = record["meta"]
    assert meta["git_sha"] == "feedface" and meta["git_dirty"] is False
    assert (meta["pairs"], meta["seed"], meta["baseline_record"]) == (10, 11, "BENCH_4.json")
    assert meta["command"] == ["python3", "bench/run.py", "--workload", "all", "--seed", "11", "--seconds", "40"]
    assert meta["bytecode"] == module.bench_pairs.NO_BYTECODE and meta["python"] == platform.python_version()
    assert meta["workloads"] == {"w.attempted": 5.5, "v.attempted": 7}
    out = capsys.readouterr().out
    assert "w.round_s" in out and out.splitlines()[-1] == "wrote BENCH_6.json, paired with BENCH_4.json (abc123)"


def test_refuses_to_write_an_incorrect_run(bench_record, tmp_path, capsys):
    module, log, outputs = bench_record
    write_record(tmp_path / "BENCH_4.json", git_sha="abc123")
    outputs["rev"] = [all_workloads(1.0)] * 10
    outputs["change"] = [all_workloads(1.0)] * 2 + [all_workloads(1.0, correct=False)]
    assert module.main(["6"]) == 1
    assert log["runs"] == ["rev", "change", "change", "rev", "rev", "change"]
    assert log["git"][-2:] == [["worktree", "remove", "--force", log["git"][0][-2]], ["worktree", "prune"]]
    assert not (tmp_path / "BENCH_6.json").exists()
    assert "nothing written" in capsys.readouterr().err


def test_writes_nothing_without_an_earlier_record_that_names_a_commit(bench_record, tmp_path, capsys):
    module, log, outputs = bench_record
    write_record(tmp_path / "BENCH_4.json", git_sha="unknown")
    write_record(tmp_path / "BENCH_6.json", git_sha="abc123")  # not below the number being recorded
    assert module.main(["6"]) == 1
    assert log == {"git": [], "runs": []}
    assert json.loads((tmp_path / "BENCH_6.json").read_text())["meta"] == {"git_sha": "abc123"}
    assert "no BENCH_*.json below 6 names a commit" in capsys.readouterr().err
