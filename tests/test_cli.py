import json

import oracles
import pytest

from genmodels import dense_trace_model, performs_chain_model
from refmodel import cli, composition, demo, evaluator, repository, simulation


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
        code, _, err = run_cli(capsys, "repo", "init", "--repo", str(repo_path))
        assert code == 1
        assert "exists" in err

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
    def test_simulate_csv_matches_library(self, demo_dir, capsys):
        map_path = demo_dir / "reference.terrain.txt"
        code, out, _ = run_cli(
            capsys,
            "simulate", "--map", str(map_path), "--planner", "terrain_aware",
            "--format", "csv",
        )
        assert code == 0
        tmap = demo.reference_map()
        expected = simulation.sim_result_to_csv(simulation.run(tmap, "terrain_aware"))
        assert out == expected

    def test_simulate_adaptive_picks_terrain_aware_on_ridge(self, demo_dir, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--map", str(demo_dir / "reference.terrain.txt"),
            "--planner", "adaptive",
        )
        assert code == 0
        assert "terrain_aware" in out

    def test_compare_csv_matches_library(self, demo_dir, capsys):
        code, out, _ = run_cli(
            capsys,
            "compare", "--map", str(demo_dir / "reference.terrain.txt"), "--format", "csv",
        )
        assert code == 0
        report = evaluator.compare(demo.reference_map(), map_label="reference.terrain.txt")
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
