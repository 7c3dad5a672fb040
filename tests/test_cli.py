import argparse
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import oracles
import pytest

from genmodels import dense_trace_model, performs_chain_model
from refmodel import cli, composition, demo, evaluator, repository, simulation, terrain


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def demo_dir(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "demo", "--out", str(tmp_path))
    assert code == 0
    return tmp_path


class TestDemoWorkflow:
    def test_demo_writes_three_artifacts(self, demo_dir):
        assert (demo_dir / "demo.refrepo.json").exists()
        assert (demo_dir / "demo.refmodel.json").exists()
        assert (demo_dir / "reference.terrain.txt").exists()

    def test_demo_then_coverage_all_covered(self, demo_dir, capsys):
        code, out, _ = run_cli(
            capsys, "coverage", "--model", str(demo_dir / "demo.refmodel.json")
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        assert all(": covered" in line for line in lines)

    def test_validate_clean_model(self, demo_dir, capsys):
        code, out, _ = run_cli(capsys, "validate", "--model", str(demo_dir / "demo.refmodel.json"))
        assert code == 0
        assert "valid" in out

    def test_validate_broken_model_exits_one(self, demo_dir, capsys):
        model_path = demo_dir / "demo.refmodel.json"
        model = repository.load_model(model_path.read_text())
        broken = composition.Model(
            id=model.id,
            blocks=model.blocks,
            connections=frozenset(
                c for c in model.connections if c.target.block != "svc.object_recognition"
            ),
            traces=model.traces,
        )
        model_path.write_text(repository.save_model(broken))
        code, out, _ = run_cli(capsys, "validate", "--model", str(model_path))
        assert code == 1
        assert "unbound required port" in out

    def test_out_of_memory_exits_one_without_a_traceback(self, demo_dir, capsys, monkeypatch):
        def exhausted(model):
            raise MemoryError

        monkeypatch.setattr(composition, "validate_configuration", exhausted)
        code, out, err = run_cli(capsys, "validate", "--model", str(demo_dir / "demo.refmodel.json"))
        assert (code, out, err) == (1, "", "error: out of memory\n")

    def test_trace_text_and_dot(self, demo_dir, capsys):
        model_arg = ("--model", str(demo_dir / "demo.refmodel.json"))
        code, out, _ = run_cli(capsys, "trace", "cap.mowing", "--direction", "down", *model_arg)
        assert code == 0
        assert out.startswith("cap.mowing")
        assert "res.mowing_robot (exhibits)" in out
        code, dot, _ = run_cli(
            capsys, "trace", "cap.mowing", "--direction", "down", "--format", "dot", *model_arg
        )
        assert code == 0
        assert dot.startswith("digraph trace {")

    def test_view_matches_library(self, demo_dir, capsys):
        code, out, _ = run_cli(
            capsys,
            "view",
            "--subject", "service",
            "--aspect", "structure",
            "--format", "dot",
            "--model", str(demo_dir / "demo.refmodel.json"),
        )
        assert code == 0
        model = repository.load_model((demo_dir / "demo.refmodel.json").read_text())
        view = composition.extract_view(
            model,
            composition.Viewpoint(
                composition.ConcernLayer.SERVICE, composition.Aspect.STRUCTURE
            ),
        )
        assert out == composition.export_dot(view)

    def test_alternatives_lists_both_planners(self, demo_dir, capsys):
        code, out, _ = run_cli(
            capsys,
            "alternatives",
            "--slot", "alg.edge_follow",
            "--repo", str(demo_dir / "demo.refrepo.json"),
            "--model", str(demo_dir / "demo.refmodel.json"),
        )
        assert code == 0
        assert out.splitlines() == [
            "0: alg.edge_follow (Edge Follow Planner)",
            "1: alg.terrain_aware (Terrain Aware Planner)",
        ]

    def test_alternatives_rejects_a_replacement_already_in_model(self, demo_dir, capsys):
        repo_arg = ("--repo", str(demo_dir / "demo.refrepo.json"))
        model_arg = ("--model", str(demo_dir / "demo.refmodel.json"))
        assert run_cli(capsys, "model", "adopt", "alg.terrain_aware", *repo_arg, *model_arg)[0] == 0
        assert run_cli(capsys, "alternatives", "--slot", "alg.edge_follow", *repo_arg, *model_arg) == (
            1, "", "error: cannot swap 'alg.edge_follow' for 'alg.terrain_aware': id already present in model\n"
        )

    def test_rank_and_alternatives_build_no_model(
        self, demo_dir, demo_model, demo_repo, ridge_map, capsys, monkeypatch
    ):
        """A ranked configuration holds no model, and neither command swaps a block into one."""
        assert [field.name for field in fields(evaluator.RankedConfiguration)] == [
            "block_id", "planner", "score", "completed"
        ]

        def no_swap(*args):
            raise AssertionError("an alternative model was built")

        monkeypatch.setattr(composition, "_swap_block", no_swap)
        ranked = evaluator.rank_configurations(demo_model, demo_repo, "alg.edge_follow", ridge_map)
        assert ranked == oracles.rank_configurations(demo_model, demo_repo, "alg.edge_follow", ridge_map)
        assert evaluator.ranking_to_csv(ranked) == (
            "rank,block_id,planner,score,completed\n"
            "1,alg.terrain_aware,terrain_aware,24.400000,1\n"
            "2,alg.edge_follow,edge_follow,27.000000,1\n"
        )
        slot = ("--slot", "alg.edge_follow", "--repo", str(demo_dir / "demo.refrepo.json"))
        slot += ("--model", str(demo_dir / "demo.refmodel.json"))
        assert run_cli(capsys, "rank", *slot, "--map", str(demo_dir / "reference.terrain.txt")) == (
            0,
            "1. alg.terrain_aware (terrain_aware) score 24.400000\n"
            "2. alg.edge_follow (edge_follow) score 27.000000\n",
            "",
        )
        assert run_cli(capsys, "alternatives", *slot) == (
            0, "0: alg.edge_follow (Edge Follow Planner)\n1: alg.terrain_aware (Terrain Aware Planner)\n", ""
        )


class TestRepoCommands:
    def test_init_list_add(self, tmp_path, capsys):
        repo_path = tmp_path / "team.refrepo.json"
        code, _, _ = run_cli(capsys, "repo", "init", "--repo", str(repo_path))
        assert code == 0 and repo_path.exists()

        asset_doc = {
            "id": "cap.watering",
            "asset_kind": "block",
            "block": {
                "id": "cap.watering",
                "name": "Watering",
                "layer": "strategic",
                "kind": "capability",
                "ports": [],
                "parameters": {},
                "origin": "reference_asset",
            },
        }
        asset_file = tmp_path / "asset.json"
        asset_file.write_text(json.dumps(asset_doc))
        code, out, _ = run_cli(capsys, "repo", "add", str(asset_file), "--repo", str(repo_path))
        assert code == 0
        assert "cap.watering" in out

        code, out, _ = run_cli(capsys, "repo", "list", "--repo", str(repo_path))
        assert code == 0
        assert out.strip() == "cap.watering"

    def test_init_refuses_overwrite(self, tmp_path, capsys):
        repo_path = tmp_path / "r.refrepo.json"
        run_cli(capsys, "repo", "init", "--repo", str(repo_path))
        code, out, err = run_cli(capsys, "repo", "init", "--repo", str(repo_path))
        assert (code, out, err) == (1, "", f"error: {repo_path} already exists\n")

    def test_env_home_supplies_default_repo(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REFMODEL_HOME", str(tmp_path))
        code, _, _ = run_cli(capsys, "repo", "init")
        assert code == 0
        assert (tmp_path / "default.refrepo.json").exists()

    def test_missing_repo_flag_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.delenv("REFMODEL_HOME", raising=False)
        code, _, err = run_cli(capsys, "repo", "list")
        assert code == 2
        assert "--repo" in err


class TestModelCommands:
    def test_adopt_connect_roundtrip(self, demo_dir, capsys):
        repo_arg = ("--repo", str(demo_dir / "demo.refrepo.json"))
        model_path = demo_dir / "fresh.refmodel.json"
        for asset in ("res.camera", "res.fn.preprocess"):
            code, _, _ = run_cli(
                capsys, "model", "adopt", asset, *repo_arg, "--model", str(model_path)
            )
            assert code == 0
        code, _, _ = run_cli(
            capsys,
            "model", "connect",
            "res.camera:out", "res.fn.preprocess:in_images",
            "--model", str(model_path),
        )
        assert code == 0
        model = repository.load_model(model_path.read_text())
        assert model.id == "fresh"
        assert len(model.connections) == 1

    def test_adapt_with_overrides(self, demo_dir, capsys):
        repo_arg = ("--repo", str(demo_dir / "demo.refrepo.json"))
        model_path = demo_dir / "adapted.refmodel.json"
        code, _, _ = run_cli(
            capsys,
            "model", "adapt", "res.battery",
            "--name", "Long Range Battery",
            "--param", "capacity=250.5",
            *repo_arg, "--model", str(model_path),
        )
        assert code == 0
        block = repository.load_model(model_path.read_text()).block("res.battery")
        assert block.name == "Long Range Battery"
        assert block.parameters["capacity"] == 250.5

    def test_extend_adds_port(self, demo_dir, capsys):
        repo_arg = ("--repo", str(demo_dir / "demo.refrepo.json"))
        model_path = demo_dir / "extended.refmodel.json"
        code, _, _ = run_cli(
            capsys,
            "model", "extend", "res.mowing_robot",
            "--port", "terrainProfileIn:required:TerrainProfile",
            *repo_arg, "--model", str(model_path),
        )
        assert code == 0
        block = repository.load_model(model_path.read_text()).block("res.mowing_robot")
        assert block.find_port("terrainProfileIn") is not None

    def test_apply_pattern_via_cli(self, demo_dir, capsys):
        repo_arg = ("--repo", str(demo_dir / "demo.refrepo.json"))
        model_path = demo_dir / "patterned.refmodel.json"
        pattern = demo.services_pattern()
        for anchor in pattern.anchor_ids():
            code, _, _ = run_cli(
                capsys, "model", "adopt", anchor, *repo_arg, "--model", str(model_path)
            )
            assert code == 0
        binds = []
        for anchor in pattern.anchor_ids():
            binds.extend(["--bind", f"{anchor}={anchor}"])
        code, _, _ = run_cli(
            capsys,
            "model", "apply-pattern", demo.DEMO_PATTERN_ID,
            *binds, *repo_arg, "--model", str(model_path),
        )
        assert code == 0
        model = repository.load_model(model_path.read_text())
        assert "svc.smart_mowing" in model.blocks

    def test_failed_replace_keeps_old_model(self, demo_dir, capsys, monkeypatch):
        """A write that fails at os.replace leaves the old model file byte-identical and no temp file."""
        repo_arg = ("--repo", str(demo_dir / "demo.refrepo.json"))
        model_path = demo_dir / "fresh.refmodel.json"
        run_cli(capsys, "model", "adopt", "res.camera", *repo_arg, "--model", str(model_path))
        before = model_path.read_bytes()
        listing = sorted(demo_dir.iterdir())

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cli.os, "replace", fail)
        code, out, err = run_cli(
            capsys,
            "model", "adapt", "res.battery", "--param", "capacity=5", *repo_arg, "--model", str(model_path),
        )
        assert (code, out, err) == (1, "", "error: disk full\n")
        assert model_path.read_bytes() == before
        assert sorted(demo_dir.iterdir()) == listing

    def test_domain_error_exits_one(self, demo_dir, capsys):
        repo_arg = ("--repo", str(demo_dir / "demo.refrepo.json"))
        model_path = demo_dir / "dup.refmodel.json"
        run_cli(capsys, "model", "adopt", "res.camera", *repo_arg, "--model", str(model_path))
        code, _, err = run_cli(
            capsys, "model", "adopt", "res.camera", *repo_arg, "--model", str(model_path)
        )
        assert code == 1
        assert "error:" in err


class TestEvaluationCommands:
    def test_simulate_csv_matches_library(self, demo_dir, ridge_map, capsys):
        map_path = demo_dir / "reference.terrain.txt"
        code, out, _ = run_cli(
            capsys,
            "simulate", "--map", str(map_path), "--planner", "terrain_aware",
            "--format", "csv",
        )
        assert code == 0
        expected = simulation.sim_result_to_csv(simulation.run(ridge_map, "terrain_aware"))
        assert out == expected

    def test_simulate_adaptive_picks_terrain_aware_on_ridge(self, demo_dir, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--map", str(demo_dir / "reference.terrain.txt"),
            "--planner", "adaptive",
        )
        assert code == 0
        assert "terrain_aware" in out

    def test_compare_csv_matches_library(self, demo_dir, ridge_map, capsys):
        code, out, _ = run_cli(
            capsys,
            "compare", "--map", str(demo_dir / "reference.terrain.txt"), "--format", "csv",
        )
        assert code == 0
        report = evaluator.compare(ridge_map, map_label="reference.terrain.txt")
        assert out == evaluator.comparison_to_csv(report)

    def test_compare_writes_artifacts(self, demo_dir, capsys, tmp_path):
        out_dir = tmp_path / "reports"
        code, _, _ = run_cli(
            capsys,
            "compare", "--map", str(demo_dir / "reference.terrain.txt"),
            "--out", str(out_dir),
        )
        assert code == 0
        for name in ("compare.csv", "compare.txt", "remaining.svg", "paths.svg"):
            assert (out_dir / name).exists()

    def test_ensemble_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "ensemble", "--n", "3", "--seed", "5", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "planner,mean_total,min_total,max_total,wins,n_maps"

    def test_ensemble_blocked_start_names_the_map_seed(self, capsys):
        code, out, err = run_cli(capsys, "ensemble", "--n", "3", "--start", "0,0", "--density", "0.5")
        assert (code, out) == (1, "")
        assert err == "error: start (0, 0) is not a free cell on the map of seed 1\n"

    def test_rank_on_reference_map(self, demo_dir, capsys):
        code, out, _ = run_cli(
            capsys,
            "rank", "--slot", "alg.edge_follow",
            "--map", str(demo_dir / "reference.terrain.txt"),
            "--repo", str(demo_dir / "demo.refrepo.json"),
            "--model", str(demo_dir / "demo.refmodel.json"),
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("1. alg.terrain_aware")
        assert lines[1].startswith("2. alg.edge_follow")


    def test_defaults_match_library(self, demo_dir, ridge_map, capsys):
        """With no optional flag, simulate, compare and ensemble print what the library's defaults give."""
        map_path = demo_dir / "reference.terrain.txt"
        result = simulation.run(ridge_map, "edge_follow")
        assert run_cli(capsys, "simulate", "--map", str(map_path)) == (
            0,
            f"planner edge_follow: {result.steps_completed} step(s), "
            f"total {result.total_consumed:.6f}, {result.terminated.value}\n",
            "",
        )
        report = evaluator.compare(ridge_map, map_label=map_path.name)
        assert run_cli(capsys, "compare", "--map", str(map_path)) == (
            0, evaluator.comparison_to_table(report), ""
        )
        stats = evaluator.ensemble(terrain.GenParams(), 10)
        assert run_cli(capsys, "ensemble") == (0, evaluator.ensemble_to_table(stats), "")


class TestRankArena:
    """rank reads either --map or --n N with the generation flags, never a mix."""

    @pytest.mark.parametrize(
        "arena",
        [
            ("--n", "2", "--map", "no_such.terrain.txt"),
            ("--n", "2", "--map", "{map}"),
            ("--map", "{map}", "--width", "40", "--density", "0.9"),
            ("--map", "{map}", "--seed", "3"),
            ("--map", "{map}", "--width", "4"),
            ("--map", "{map}", "--height", "4"),
            ("--map", "{map}", "--density", "0.2"),
            ("--map", "{map}", "--max-level", "2"),
            ("--n", "0", "--map", "{map}", "--seed", "3"),
            ("--seed", "3",),
        ],
    )
    def test_flag_of_the_other_arena_is_usage_error(self, demo_dir, capsys, arena):
        arena = [arg.format(map=demo_dir / "reference.terrain.txt") for arg in arena]
        code, out, err = run_cli(
            capsys,
            "rank", "--slot", "alg.edge_follow", *arena,
            "--repo", str(demo_dir / "demo.refrepo.json"),
            "--model", str(demo_dir / "demo.refmodel.json"),
        )
        assert (code, out) == (2, "")
        assert err.startswith("usage error:") and "--n" in err

    def test_generated_arena_matches_library(self, demo_dir, capsys):
        repo = repository.load((demo_dir / "demo.refrepo.json").read_text())
        model = repository.load_model((demo_dir / "demo.refmodel.json").read_text())
        spec = evaluator.EnsembleSpec(terrain.GenParams(), 3)
        ranked = evaluator.rank_configurations(model, repo, "alg.edge_follow", spec)
        code, out, _ = run_cli(
            capsys,
            "rank", "--slot", "alg.edge_follow", "--n", "3",
            "--repo", str(demo_dir / "demo.refrepo.json"),
            "--model", str(demo_dir / "demo.refmodel.json"),
        )
        assert code == 0
        assert out == "".join(
            f"{i}. {r.block_id} ({r.planner}) score {r.score:.6f}\n" for i, r in enumerate(ranked, start=1)
        )


def _recording(namespace: argparse.Namespace) -> tuple[argparse.Namespace, set]:
    """A copy of the namespace that adds the name of every attribute read to the returned set."""
    reads = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    return Recorder(**vars(namespace)), reads


# Command lines that together give every option a command declares, with values its handler
# accepts. {dir} holds the demo files {repo}, {model} and {map}; {new} is a model file not yet written.
FULL_LINES = {
    "repo init": [("--repo", "{dir}/team.refrepo.json")],
    "repo add": [("{dir}/asset.json", "--repo", "{repo}")],
    "repo list": [("--repo", "{repo}", "--layer", "resource", "--kind", "function")],
    "model adopt": [("res.camera", "--repo", "{repo}", "--model", "{new}")],
    "model adapt": [
        (
            "res.battery", "--name", "Big Battery", "--param", "capacity=250", "--port-type", "out=Power",
            "--repo", "{repo}", "--model", "{new}",
        )
    ],
    "model extend": [
        (
            "res.mowing_robot", "--port", "tp:required:TerrainProfile", "--param", "reserve=5",
            "--repo", "{repo}", "--model", "{new}",
        )
    ],
    "model connect": [("res.camera:out", "res.fn.preprocess:in_images", "--model", "{new}")],
    "model apply-pattern": [
        (
            demo.DEMO_PATTERN_ID,
            *(
                arg
                for anchor in demo.services_pattern().anchor_ids()
                for arg in ("--bind", f"{anchor}={anchor}")
            ),
            "--force-theirs", "--repo", "{repo}", "--model", "{model}",
        )
    ],
    "validate": [("--model", "{model}")],
    "trace": [("cap.mowing", "--direction", "down", "--format", "dot", "--model", "{model}")],
    "coverage": [("--model", "{model}")],
    "view": [("--subject", "service", "--aspect", "structure", "--format", "dot", "--model", "{model}")],
    "alternatives": [("--slot", "alg.edge_follow", "--repo", "{repo}", "--model", "{model}")],
    "simulate": [
        (
            "--map", "{map}", "--planner", "terrain_aware", "--capacity", "90",
            "--consumption-factor", "1.5", "--start", "0,0", "--format", "csv", "--out", "{dir}/out",
        )
    ],
    "compare": [
        (
            "--map", "{map}", "--planners", "edge_follow", "--capacity", "90",
            "--consumption-factor", "1.5", "--start", "0,0", "--format", "svg", "--out", "{dir}/out",
        )
    ],
    "ensemble": [
        (
            "--n", "2", "--planners", "terrain_aware", "--seed", "4", "--width", "5", "--height", "4",
            "--density", "0", "--max-level", "2", "--capacity", "90", "--consumption-factor", "1.5",
            "--start", "0,0", "--format", "csv", "--out", "{dir}/out",
        )
    ],
    "rank": [
        (
            "--slot", "alg.edge_follow", "--map", "{map}", "--repo", "{repo}", "--model", "{model}",
            "--capacity", "90", "--consumption-factor", "1.5", "--start", "0,0", "--out", "{dir}/out",
        ),
        (
            "--slot", "alg.edge_follow", "--n", "2", "--seed", "4", "--width", "5", "--height", "4",
            "--density", "0", "--max-level", "2", "--repo", "{repo}", "--model", "{model}",
            "--capacity", "90", "--consumption-factor", "1.5", "--start", "0,0", "--out", "{dir}/out",
        ),
    ],
    "demo": [("--out", "{dir}/out")],
}

WATERING_ASSET = {
    "id": "cap.watering",
    "asset_kind": "block",
    "block": {
        "id": "cap.watering",
        "name": "Watering",
        "layer": "strategic",
        "kind": "capability",
        "ports": [],
        "parameters": {},
        "origin": "reference_asset",
    },
}

# Lines run first, so that the command under test finds what it needs.
SETUP_LINES = {
    "model connect": [
        ("model", "adopt", block, "--repo", "{repo}", "--model", "{new}")
        for block in ("res.camera", "res.fn.preprocess")
    ],
}


class TestCommandTable:
    def test_every_command_has_full_lines(self):
        """FULL_LINES covers each row of the command table."""
        assert sorted(FULL_LINES) == sorted(command.words for command in cli.COMMANDS)

    @pytest.mark.parametrize("command", cli.COMMANDS, ids=lambda command: command.words)
    def test_handler_reads_every_declared_option(self, demo_dir, capsys, command):
        """Run with every option it declares, the handler reads each declared dest."""
        (demo_dir / "asset.json").write_text(json.dumps(WATERING_ASSET))
        places = {
            "dir": demo_dir,
            "repo": demo_dir / "demo.refrepo.json",
            "model": demo_dir / "demo.refmodel.json",
            "map": demo_dir / "reference.terrain.txt",
            "new": demo_dir / "new.refmodel.json",
        }
        for line in SETUP_LINES.get(command.words, []):
            assert cli.main([arg.format(**places) for arg in line]) == 0
        parser = cli.build_parser()
        read = set()
        given = set()
        for line in FULL_LINES[command.words]:
            line = [arg.format(**places) for arg in line]
            given |= set(line)
            args = parser.parse_args([*command.words.split(), *line])
            recorder, reads = _recording(args)
            assert command.handler(recorder) == 0
            read |= reads
        declared = set(vars(args)) - {"func", "command", "repo_command", "model_command"}
        for flags, _ in command.options:
            assert flags[0] in given or not flags[0].startswith("-"), flags
        assert declared <= read, sorted(declared - read)

    @pytest.mark.parametrize("command", cli.COMMANDS, ids=lambda command: command.words)
    def test_help_exits_zero(self, capsys, command):
        code, out, _ = run_cli(capsys, *command.words.split(), "-h")
        assert code == 0
        assert out.startswith(f"usage: refmodel {command.words} ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("ensemble", "--n", "2", "--format", "dot"),
            ("ensemble", "--n", "2", "--format", "svg"),
            ("validate", "--model", "{dir}/demo.refmodel.json", "--map", "x"),
            ("demo", "--seed", "3"),
            ("coverage", "--model", "{dir}/demo.refmodel.json", "--format", "csv"),
            (
                "model", "connect", "svc.smart_mowing:out", "op.mowing_node:in_smart_mowing",
                "--model", "{dir}/new.refmodel.json", "--repo", "{dir}/demo.refrepo.json",
            ),
        ],
    )
    def test_flag_the_command_does_not_read_is_usage_error(
        self, demo_dir, tmp_path, capsys, monkeypatch, argv
    ):
        """Such a flag exits 2 before the handler runs: nothing on stdout, no file written."""
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        before = {path: path.read_bytes() for path in demo_dir.rglob("*") if path.is_file()}
        code, out, err = run_cli(capsys, *(arg.format(dir=demo_dir) for arg in argv))
        assert (code, out) == (2, "")
        assert "error:" in err
        assert list(workdir.iterdir()) == []
        assert {path: path.read_bytes() for path in demo_dir.rglob("*") if path.is_file()} == before

    @pytest.mark.parametrize(
        ("argv", "words"),
        [
            (("validate", "--model", "{dir}/demo.refmodel.json", "--map", "x"), "validate"),
            (
                ("model", "connect", "a:b", "c:d", "--model", "{dir}/new.refmodel.json", "--repo", "R"),
                "model connect",
            ),
        ],
    )
    def test_unread_flag_is_reported_with_the_command_usage(self, demo_dir, capsys, argv, words):
        code, out, err = run_cli(capsys, *(arg.format(dir=demo_dir) for arg in argv))
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: refmodel {words} ")
        unread = " ".join(argv[-2:])
        assert err.splitlines()[-1] == f"refmodel {words}: error: unrecognized arguments: {unread}"

    def test_generation_flags_are_the_gen_params_fields(self):
        """One --width/--height/--density/--max-level flag per GenParams field, with the field's name as dest."""
        assert list(cli._GEN_FIELDS) == [field.name for field in fields(terrain.GenParams)]


# Runs one command in a fresh interpreter, then prints the refmodel modules it loaded.
FOOTPRINT = """
import sys
from refmodel import cli
cli.main(sys.argv[1:])
print(*sorted(name for name in sys.modules if name.partition(".")[0] == "refmodel"))
"""
PARSER = {"refmodel", "refmodel.cli", "refmodel.core", "refmodel.errors"}
MODEL_LAYER = PARSER | {"refmodel.composition", "refmodel.repository"}
SIMULATION_LAYERS = PARSER | {"refmodel.terrain", "refmodel.planners", "refmodel.simulation"}
EVALUATION_LAYERS = SIMULATION_LAYERS | {"refmodel.evaluator"}
# The refmodel modules each command loads, by its first word.
FOOTPRINTS = {
    "--help": PARSER,
    "validate": MODEL_LAYER,
    "coverage": MODEL_LAYER,
    "trace": MODEL_LAYER,
    "view": MODEL_LAYER,
    "alternatives": MODEL_LAYER,
    "simulate": SIMULATION_LAYERS,
    "compare": EVALUATION_LAYERS,
    "ensemble": EVALUATION_LAYERS,
    "repo": MODEL_LAYER,
    "model": MODEL_LAYER,
    "rank": EVALUATION_LAYERS | MODEL_LAYER,
    "demo": MODEL_LAYER | {"refmodel.demo"},
}
# The repo and model commands, each run with its line from FULL_LINES.
EDITING_COMMANDS = [command.words for command in cli.COMMANDS if command.words.split()[0] in ("repo", "model")]


@pytest.mark.parametrize(
    "argv",
    [
        ("--help",),
        ("validate", "--model", "{model}"),
        ("coverage", "--model", "{model}"),
        ("trace", "cap.mowing", "--format", "dot", "--model", "{model}"),
        ("view", "--subject", "service", "--aspect", "structure", "--format", "dot", "--model", "{model}"),
        ("alternatives", "--slot", "alg.edge_follow", "--repo", "{repo}", "--model", "{model}"),
        ("simulate", "--map", "{map}", "--planner", "adaptive", "--start", "0,0"),
        ("compare", "--map", "{map}", "--format", "svg"),
        ("ensemble", "--n", "2", "--format", "csv"),
        *((*words.split(), *FULL_LINES[words][0]) for words in EDITING_COMMANDS),
        ("rank", "--map", "{map}", "--slot", "alg.edge_follow", "--repo", "{repo}", "--model", "{model}"),
        ("rank", "--n", "2", "--slot", "alg.edge_follow", "--repo", "{repo}", "--model", "{model}"),
        ("demo", "--out", "{dir}/out"),
    ],
    ids=lambda argv: " ".join(argv[:2]) if argv[0] in ("repo", "model", "rank") else argv[0],
)
def test_command_imports_only_the_layers_it_runs(demo_dir, argv):
    (demo_dir / "asset.json").write_text(json.dumps(WATERING_ASSET))
    places = {
        "dir": demo_dir,
        "model": demo_dir / "demo.refmodel.json",
        "repo": demo_dir / "demo.refrepo.json",
        "map": demo_dir / "reference.terrain.txt",
        "new": demo_dir / "new.refmodel.json",
    }
    for line in SETUP_LINES.get(" ".join(argv[:2]), []):
        assert cli.main([arg.format(**places) for arg in line]) == 0
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, *(arg.format(**places) for arg in argv)],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == sorted(FOOTPRINTS[argv[0]])


class TestTraceCommands:
    def test_trace_matches_reference(self, tmp_path, capsys):
        for seed in range(6):
            model = dense_trace_model(seed)
            path = tmp_path / f"{model.id}.refmodel.json"
            path.write_text(repository.save_model(model))
            for block_id in model.blocks:
                for direction in composition.TraceDirection:
                    tree = oracles.trace(model, block_id, direction)
                    argv = ("trace", block_id, "--direction", direction.value, "--model", str(path))
                    assert run_cli(capsys, *argv) == (0, oracles.trace_text(tree), "")
                    dot = run_cli(capsys, *argv, "--format", "dot")
                    assert dot == (0, oracles.trace_dot(tree), "")

    def test_deep_chain(self, tmp_path, capsys):
        length = 3000
        chain = ["cap", *(f"a{i:04d}" for i in range(length)), "svc", "res"]
        path = tmp_path / "chain.refmodel.json"
        path.write_text(repository.save_model(performs_chain_model(length)))
        code, out, _ = run_cli(capsys, "trace", "cap", "--model", str(path))
        assert code == 0
        lines = out.splitlines()
        assert [line.strip().split(" ")[0] for line in lines] == chain
        assert lines[-1] == "  " * (len(chain) - 1) + "res (implements)"
        code, out, _ = run_cli(capsys, "coverage", "--model", str(path))
        assert (code, out) == (0, f"cap: covered via {' <- '.join(chain)}\n")


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_bad_start_format_is_usage_error(self, demo_dir, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--map", str(demo_dir / "reference.terrain.txt"), "--start", "oops",
        )
        assert code == 2
        assert "row,col" in err

    def test_missing_map_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate")
        assert code == 2
        assert "--map" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("ensemble", "--n", "0"), "at least one map"),
            (("ensemble", "--capacity", "-1", "--n", "1"), "capacity must be positive"),
            (("compare", "--map", "{map}", "--planners", ""), "at least one planner"),
            (("ensemble", "--n", "1", "--width", "0"), "at least 1x1"),
            (("simulate", "--map", "{map}", "--capacity", "nan", "--format", "csv"), "finite"),
            (("simulate", "--map", "{map}", "--capacity", "inf"), "finite"),
            (("simulate", "--map", "{map}", "--consumption-factor", "nan"), "finite"),
            (("simulate", "--map", "{map}", "--consumption-factor", "inf"), "finite"),
            (("ensemble", "--n", "1", "--density", "nan"), "finite"),
            (("ensemble", "--n", "1", "--density", "inf"), "finite"),
            (("model", "adapt", "res.battery", "--param", "capacity=nan", "{repo}", "{model}"), "finite"),
            (("model", "adapt", "res.battery", "--param", "capacity=inf", "{repo}", "{model}"), "finite"),
            (("model", "extend", "res.battery", "--param", "reserve=-inf", "{repo}", "{model}"), "finite"),
            (("ensemble", "--width", "100000", "--height", "100000"), "at most 2000000 cells, not 100000x100000"),
        ],
    )
    def test_library_value_error_is_usage_error(self, demo_dir, capsys, argv, message):
        model = demo_dir / "new.refmodel.json"
        argv = [
            arg.format(
                map=demo_dir / "reference.terrain.txt",
                repo=f"--repo={demo_dir / 'demo.refrepo.json'}",
                model=f"--model={model}",
            )
            for arg in argv
        ]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:")
        assert message in err
        assert not model.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("model", "validate", "--model", "{missing}"),
            ("model", "trace", "cap.mowing", "--model", "{missing}"),
            ("model", "coverage", "--model", "{missing}"),
            ("model", "view", "--subject", "service", "--aspect", "structure", "--model", "{missing}"),
            ("model", "alternatives", "--slot", "alg.edge_follow", "--repo", "{repo}", "--model", "{missing}"),
            (
                "model", "rank", "--slot", "alg.edge_follow", "--n", "1",
                "--repo", "{repo}", "--model", "{missing}",
            ),
            ("map", "simulate", "--map", "{missing}"),
            ("map", "compare", "--map", "{missing}"),
            ("repository", "repo", "list", "--repo", "{missing}"),
            ("asset", "repo", "add", "{missing}", "--repo", "{repo}"),
        ],
    )
    def test_missing_model_file_is_usage_error(self, demo_dir, capsys, argv):
        """Each missing input file (model, map, repository, asset) is named in a usage error."""
        what, *argv = argv
        missing = demo_dir / "typo.json"
        argv = [arg.format(repo=demo_dir / "demo.refrepo.json", missing=missing) for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"usage error: {what} file not found: {missing}\n"
        assert not missing.exists()

    @pytest.mark.parametrize("flag", ["--model", "--map"])
    def test_undecodable_file_is_parse_error(self, tmp_path, capsys, flag):
        path = tmp_path / "binary"
        path.write_bytes(b"\xff\xfe\x00")
        code, out, err = run_cli(capsys, "validate" if flag == "--model" else "simulate", flag, str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode")

    def test_map_without_free_cell_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "blocked.terrain.txt"
        path.write_text("XX\nXX\n")
        code, out, err = run_cli(capsys, "simulate", "--map", str(path))
        assert (code, out, err) == (1, "", "error: terrain map needs at least one free cell\n")

    def test_deeply_nested_model_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "deep.refmodel.json"
        path.write_text("[" * 100000)
        code, out, err = run_cli(capsys, "validate", "--model", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("entry", ["=target", "source=", "source"])
    @pytest.mark.parametrize(
        "command",
        [
            ("model", "adapt", "res.battery", "--port-type"),
            ("model", "apply-pattern", demo.DEMO_PATTERN_ID, "--bind"),
        ],
    )
    def test_name_value_flag_needs_name_and_value(self, demo_dir, capsys, command, entry):
        model_path = demo_dir / "demo.refmodel.json"
        before = model_path.read_bytes()
        code, _, err = run_cli(
            capsys, *command, entry,
            "--repo", str(demo_dir / "demo.refrepo.json"), "--model", str(model_path),
        )
        assert code == 2
        assert f"{command[-1]} expects" in err
        assert model_path.read_bytes() == before


VIEW_TEXT = {
    ("service", "structure"): [
        "view (service, structure): 4 element(s)",
        "  svc.green_area_mobility",
        "  svc.mowing",
        "  svc.object_recognition",
        "  svc.smart_mowing",
        "  svc.green_area_mobility:out -> svc.smart_mowing:in_mobility",
        "  svc.mowing:out -> svc.smart_mowing:in_mowing",
        "  svc.object_recognition:out -> svc.smart_mowing:in_recognition",
    ],
    ("operational", "behavior"): [
        "view (operational, behavior): 4 element(s)",
        "  op.act.move",
        "  op.act.mow",
        "  op.act.recognize",
        "  op.mowing_node",
        "  op.mowing_node -performs-> op.act.move",
        "  op.mowing_node -performs-> op.act.mow",
        "  op.mowing_node -performs-> op.act.recognize",
    ],
}


@pytest.mark.parametrize("subject, aspect", sorted(VIEW_TEXT))
def test_view_text_on_demo_model(demo_dir, capsys, subject, aspect):
    """The text view lists elements, then connections, then trace links."""
    code, out, err = run_cli(
        capsys, "view", "--subject", subject, "--aspect", aspect,
        "--model", str(demo_dir / "demo.refmodel.json"),
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == VIEW_TEXT[subject, aspect]


class TestModelFlags:
    """How the model commands read their NAME=VALUE, port and endpoint arguments."""

    @staticmethod
    def run_model(demo_dir, capsys, *argv, model="new.refmodel.json"):
        model_path = demo_dir / model
        before = model_path.read_bytes() if model_path.exists() else None
        result = run_cli(
            capsys, "model", *argv, "--repo", str(demo_dir / "demo.refrepo.json"), "--model", str(model_path)
        )
        return result, model_path, before

    def test_param_values_are_coerced(self, demo_dir, capsys):
        entries = {"a": "true", "b": "False", "c": "3", "d": "2.5", "e": "text", "f": ""}
        params = [arg for key, value in entries.items() for arg in ("--param", f"{key}={value}")]
        (code, out, _), model_path, _ = self.run_model(demo_dir, capsys, "adapt", "res.battery", *params)
        assert (code, out) == (0, f"adapted 'res.battery' into {model_path}\n")
        parameters = repository.load_model(model_path.read_text()).block("res.battery").parameters
        got = {key: parameters[key] for key in entries}
        assert got == {"a": True, "b": False, "c": 3, "d": 2.5, "e": "text", "f": ""}
        assert [type(value) for value in got.values()] == [bool, bool, int, float, str, str]

    @pytest.mark.parametrize("command", [("adapt", "res.battery"), ("extend", "res.battery")])
    @pytest.mark.parametrize("entry", ["capacity", "=5"])
    def test_param_needs_key_and_equals(self, demo_dir, capsys, command, entry):
        (code, out, err), model_path, _ = self.run_model(demo_dir, capsys, *command, "--param", entry)
        assert (code, out, err) == (2, "", f"usage error: --param expects KEY=VALUE, got '{entry}'\n")
        assert not model_path.exists()

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("extra:required", "--port expects ID:DIRECTION:TYPE, got 'extra:required'"),
            ("extra:required:T:x", "--port expects ID:DIRECTION:TYPE, got 'extra:required:T:x'"),
            ("extra::T", "--port expects ID:DIRECTION:TYPE, got 'extra::T'"),
            ("extra:sideways:T", "--port direction must be provided or required, got 'sideways'"),
        ],
    )
    def test_malformed_port(self, demo_dir, capsys, entry, message):
        (code, out, err), model_path, _ = self.run_model(
            demo_dir, capsys, "extend", "res.battery", "--port", entry
        )
        assert (code, out, err) == (2, "", f"usage error: {message}\n")
        assert not model_path.exists()

    @pytest.mark.parametrize(
        "provided, required, side, bad",
        [
            ("res.camera", "res.fn.preprocess:in_images", "provided", "res.camera"),
            ("res.camera:", "res.fn.preprocess:in_images", "provided", "res.camera:"),
            ("res.camera:out", ":in_images", "required", ":in_images"),
        ],
    )
    def test_malformed_endpoint(self, demo_dir, capsys, provided, required, side, bad):
        model_path = demo_dir / "demo.refmodel.json"
        before = model_path.read_bytes()
        code, out, err = run_cli(capsys, "model", "connect", provided, required, "--model", str(model_path))
        assert (code, out, err) == (2, "", f"usage error: {side} endpoint expects BLOCK:PORT, got '{bad}'\n")
        assert model_path.read_bytes() == before

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("extend", demo.DEMO_PATTERN_ID), f"asset '{demo.DEMO_PATTERN_ID}' is not a block asset"),
            (("extend", "vp.service_structure"), "asset 'vp.service_structure' is not a block asset"),
            (("apply-pattern", "res.camera"), "asset 'res.camera' is not a pattern asset"),
            (("adopt", demo.DEMO_PATTERN_ID), f"asset '{demo.DEMO_PATTERN_ID}' is not a block asset"),
            (("adapt", demo.DEMO_PATTERN_ID), f"asset '{demo.DEMO_PATTERN_ID}' is not a block asset"),
        ],
    )
    def test_asset_of_the_wrong_kind(self, demo_dir, capsys, argv, message):
        (code, out, err), model_path, before = self.run_model(
            demo_dir, capsys, *argv, model="demo.refmodel.json"
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert model_path.read_bytes() == before

    def test_port_type_of_a_missing_port(self, demo_dir, capsys):
        (code, out, err), model_path, _ = self.run_model(
            demo_dir, capsys, "adapt", "res.battery", "--port-type", "nope=Power"
        )
        assert (code, out, err) == (1, "", "error: block 'res.battery' has no port 'nope' to retype\n")
        assert not model_path.exists()


def test_compare_marks_one_winner_among_repeated_planners(demo_dir, capsys):
    map_path = str(demo_dir / "reference.terrain.txt")
    argv = ("compare", "--map", map_path, "--planners", "terrain_aware,edge_follow,terrain_aware")
    _, table, _ = run_cli(capsys, *argv)
    _, csv_text, _ = run_cli(capsys, *argv, "--format", "csv")
    assert [line.endswith(" *") for line in table.splitlines()[3:]] == [True, False, False]
    assert [line[-1] for line in csv_text.splitlines()[1:]] == ["1", "0", "0"]
