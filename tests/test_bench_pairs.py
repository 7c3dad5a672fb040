import importlib.util
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
END_TO_END = [
    {"name": "round_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def bench_pairs(tmp_path, monkeypatch):
    """The script as a module, rooted at tmp_path, whose git and bench runs are faked and logged."""
    module = load_script()
    declared = {"run_seconds": 40, "workloads": [{"name": "w"}, {"name": "v"}], "end_to_end": END_TO_END}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(declared))
    monkeypatch.setattr(module, "ROOT", tmp_path)
    # This checkout holds a bytecode cache that git ignores, so it is not listed; a listed file may be deleted.
    (tmp_path / "bench" / "__pycache__").mkdir(parents=True)
    (tmp_path / "bench" / "run.py").write_text("# the runner\n")
    (tmp_path / "bench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"stale")
    listed = "BENCHMARK.json\0bench/run.py\0deleted.py\0"
    calls, envs, copies = [], [], []
    # Each side's outputs in order: the worktree of REV is named rev, and any other cwd runs this change.
    outputs = {"rev": [], "change": []}

    def fake_git(command, cwd=None, **kwargs):
        assert command[0] == "git"
        if command[1] == "ls-files":
            assert Path(cwd) == tmp_path and "--others" in command and "--exclude-standard" in command
            return subprocess.CompletedProcess(command, 0, listed, "")
        calls.append(command[1:3])
        return subprocess.CompletedProcess(command, 0, "", "")

    def fake_bench(command, cwd, env):
        workload = command[3]
        assert command[1:] == ["bench/run.py", "--workload", workload, "--seed", "11", "--seconds", "40"]
        side = "rev" if Path(cwd).name == "rev" else "change"
        calls.append((side, workload))
        if side == "change":
            copies.append((Path(cwd), sorted(str(f.relative_to(cwd)) for f in Path(cwd).rglob("*") if f.is_file())))
        envs.append(env)
        return subprocess.CompletedProcess(command, 0, outputs[side].pop(0), "")

    monkeypatch.setattr(module.subprocess, "run", fake_git)
    monkeypatch.setattr(module, "run_in_group", fake_bench)
    module.envs, module.copies = envs, copies
    return module, calls, outputs


def metrics(round_s, peak_rss_mb):
    return {
        "round_s": {"value": round_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "cmd_ms_p50": {"value": 1.0, "unit": "ms"},
    }


def one_workload(round_s, peak_rss_mb, correct=True):
    """What `bench/run.py --workload w` prints: a meta line, then the result."""
    result = {"correct": correct, "attempted": 4, "failed": 0, "metrics": metrics(round_s, peak_rss_mb)}
    return '{"meta": {}}\n' + json.dumps(result) + "\n"


def all_workloads(round_s, peak_rss_mb, attempted=4):
    """What `bench/run.py --workload all` prints: a summary per workload, then the combined result."""
    per_workload = {"w": (metrics(round_s, peak_rss_mb), attempted), "v": (metrics(1.0, 20.0), 7)}
    lines, combined = [], {}
    for name, (entries, attempted) in per_workload.items():
        lines.append(f"{name}: correct=True attempted={attempted} failed=0")
        lines += [f"  {metric} {entry['value']} {entry['unit']}" for metric, entry in entries.items()]
        combined.update({f"{name}.{metric}": entry for metric, entry in entries.items()})
        combined[f"{name}.layer.self_s"] = {"value": 0.5, "unit": "s"}
    lines.append(json.dumps({"correct": True, "attempted": 11, "failed": 0, "metrics": combined}))
    return "\n".join(lines) + "\n"


def test_alternates_sides_and_reports_medians_quartiles_ratio_and_wins(bench_pairs, capsys):
    module, calls, outputs = bench_pairs
    outputs["rev"] = [all_workloads(value, 40.0) for value in (2.0, 4.0, 6.0, 8.0)]
    # This checkout runs more calls in three pairs: 5, 6, 5 and 4 against REV's 4, a median of 5.
    outputs["change"] = [all_workloads(value, 40.0, n) for value, n in ((1.0, 5), (5.0, 6), (3.0, 5), (4.0, 4))]
    assert module.main(["abc123", "--pairs", "4"]) == 0
    worktree, runs, remove = calls[0], calls[1:-2], calls[-2:]
    assert worktree == ["worktree", "add"] and remove == [["worktree", "remove"], ["worktree", "prune"]]
    sides = ["rev", "change", "change", "rev", "rev", "change", "change", "rev"]
    assert runs == [(side, "all") for side in sides]
    out = capsys.readouterr().out.splitlines()
    metric_header = next(i for i, line in enumerate(out) if line.startswith("metric"))
    calls_header = next(i for i, line in enumerate(out) if line.startswith("calls attempted"))
    rows = {line.split()[0]: line.split()[1:] for line in out[metric_header + 1 : calls_header]}
    # rev median 5, quartiles 2.5 and 7.5 (exclusive method); change median 3.5, winning pairs 0, 2 and 3.
    # 3 of 4 pairs won is no gain, and REV's quartiles lie 1.0 of its median apart, wider than the 0.25 bound.
    assert rows["w.round_s"] == ["5", "2.5", "7.5", "3.5", "0.700", "3/4", "unresolved"]
    assert rows["w.peak_rss_mb"] == ["40", "40", "40", "40", "1.000", "0/4", "within"]
    assert sorted(rows) == ["v.peak_rss_mb", "v.round_s", "w.peak_rss_mb", "w.round_s"]
    # Under the table: each workload's median calls attempted, REV's then this checkout's, and their ratio.
    attempted = [line.split() for line in out[calls_header + 1 : -1]]
    assert attempted == [["v.attempted", "7", "7", "1.000"], ["w.attempted", "4", "5", "1.250"]]
    recorded = json.loads(out[-1])
    assert [run["w.round_s"]["value"] for run in recorded["this checkout"]] == [1.0, 5.0, 3.0, 4.0]
    assert [run["w.attempted"]["value"] for run in recorded["this checkout"]] == [5, 6, 5, 4]
    # Every metric a run reports is kept with its unit, the per-layer ones included.
    assert {name: entry["value"] for name, entry in recorded["abc123"][0].items()} == {
        "w.round_s": 2.0, "w.peak_rss_mb": 40.0, "w.cmd_ms_p50": 1.0, "w.layer.self_s": 0.5, "w.attempted": 4,
        "v.round_s": 1.0, "v.peak_rss_mb": 20.0, "v.cmd_ms_p50": 1.0, "v.layer.self_s": 0.5, "v.attempted": 7,
    }  # fmt: skip
    assert recorded["abc123"][0]["w.peak_rss_mb"]["unit"] == "MB"


TIGHT = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]  # quartiles 0.985 and 1.01
WIDE = [1.0, 1.0, 1.0, 1.0, 1.0, 1.6, 1.6, 1.6, 1.6, 1.6]  # median 1.3, quartiles 1.0 and 1.6


@pytest.mark.parametrize(
    "rev, change, verdict",
    [
        # Ten of ten pairs won, and the medians 0.2 apart, more than REV's interquartile range of 0.025.
        (TIGHT, [0.8] * 10, "gain"),
        # Nine of ten pairs is still a gain.
        (TIGHT, [0.8] * 9 + [1.2], "gain"),
        # Eight of ten is not, and the medians lie within the bound.
        (TIGHT, [0.8] * 8 + [1.2] * 2, "within"),
        # The median 1.3 is worse than REV's 1.0 by more than the 0.25 bound.
        (TIGHT, [1.3] * 10, "worse"),
        # REV's quartiles lie 0.6 apart, 0.46 of its median; 1.1 beats some of its runs and loses to others.
        (WIDE, [1.1] * 10, "unresolved"),
        # As wide a spread, but every run of the change beats every run of REV, by less than REV's spread.
        (WIDE, [0.99] * 10, "within"),
        (TIGHT, [1.1] * 10, "within"),
    ],
)
def test_verdict(bench_pairs, capsys, rev, change, verdict):
    module, calls, outputs = bench_pairs
    outputs["rev"] = [one_workload(value, 40.0) for value in rev]
    outputs["change"] = [one_workload(value, 40.0) for value in change]
    assert module.main(["abc123", "--workload", "w"]) == 0
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}
    assert rows["metric"][-1] == "verdict"
    assert rows["w.round_s"][-1] == verdict
    assert rows["w.peak_rss_mb"][-1] == "within"


def test_one_workload_is_keyed_by_its_name(bench_pairs, capsys):
    module, calls, outputs = bench_pairs
    outputs["rev"] = [one_workload(2.0, 40.0)]
    outputs["change"] = [one_workload(1.0, 40.0)]
    assert module.main(["abc123", "--workload", "w", "--pairs", "1"]) == 0
    recorded = json.loads(capsys.readouterr().out.splitlines()[-1])
    keyed = {f"w.{name}": entry for name, entry in metrics(1.0, 40.0).items()}
    assert recorded["this checkout"] == [{**keyed, "w.attempted": {"value": 4, "unit": "calls"}}]


def test_every_run_reads_and_writes_no_bytecode_cache(bench_pairs, capsys, monkeypatch, tmp_path):
    module, calls, outputs = bench_pairs
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)  # so the script has to set it
    outputs["rev"] = [one_workload(2.0, 40.0)] * 2
    outputs["change"] = [one_workload(1.0, 40.0)] * 2
    assert module.main(["abc123", "--workload", "w", "--pairs", "2"]) == 0
    assert len(module.envs) == 4 and all(env == module.envs[0] for env in module.envs)
    # Only PYTHONDONTWRITEBYTECODE is set; the rest of the environment is passed on as it is.
    assert module.envs[0] == {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    # This checkout runs from a fresh copy of the files git lists: its bytecode cache is not among them.
    (copy, files), later = module.copies[0], module.copies[1:]
    assert copy != tmp_path and files == ["BENCHMARK.json", "bench/run.py"]
    assert not copy.exists()  # removed with the worktree
    assert later == [(copy, files)]
    header = capsys.readouterr().out.splitlines()[0]
    assert header.endswith(": " + module.NO_BYTECODE) and "PYTHONDONTWRITEBYTECODE=1" in header


def test_exits_one_on_a_run_that_is_not_correct_and_removes_the_worktree(bench_pairs, capsys):
    module, calls, outputs = bench_pairs
    outputs["rev"] = [one_workload(2.0, 40.0)]
    outputs["change"] = [one_workload(1.0, 40.0, correct=False)]
    assert module.main(["abc123", "--workload", "w"]) == 1
    assert calls == [["worktree", "add"], ("rev", "w"), ("change", "w"), ["worktree", "remove"], ["worktree", "prune"]]
    assert "pair 0: the run of this checkout failed or is not correct: true" in capsys.readouterr().err


def test_a_run_is_waited_for_in_a_process_group_of_its_own():
    module = load_script()
    command = [sys.executable, "-c", "import os; print(os.getpgid(0) == os.getpid())"]
    proc = module.run_in_group(command, Path.cwd(), None)
    assert (proc.returncode, proc.stdout) == (0, "True\n")


def test_an_interrupted_run_kills_its_whole_process_group(monkeypatch):
    module = load_script()
    killed = []

    class Interrupted:
        pid = 4321

        def __init__(self, command, **kwargs):
            assert kwargs["start_new_session"] is True

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def communicate(self):
            raise SystemExit(1)  # as the SIGTERM handler raises it

    monkeypatch.setattr(module.subprocess, "Popen", Interrupted)
    monkeypatch.setattr(module.os, "killpg", lambda pgid, sig: killed.append((pgid, sig)))
    with pytest.raises(SystemExit):
        module.run_in_group(["bench/run.py"], Path.cwd(), None)
    assert killed == [(4321, signal.SIGKILL)]
