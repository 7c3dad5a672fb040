"""The package namespace: its public names, loaded on first access, and the README's library example."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import refmodel

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(refmodel.__file__).parents[1]

# The public names of the package, by the submodule that defines them; each submodule's own name is public too.
NAMES = {
    "core": [
        "Aspect", "BlockKind", "BuildingBlock", "ConcernLayer", "Connection", "Model", "Origin", "Port",
        "PortDirection", "PortRef", "TraceKind", "TraceLink", "add_block", "add_trace", "port_compatible",
    ],
    "composition": [
        "CoverageReport", "CoverageStatus", "Pattern", "PatternAnchor", "TraceDirection", "ValidationReport",
        "View", "Viewpoint", "apply_pattern", "capability_coverage", "connect", "enumerate_alternatives",
        "export_dot", "extract_view", "trace", "validate_configuration", "viewpoint_valid",
    ],
    "repository": [
        "Asset", "BlockAsset", "PatternAsset", "ReferenceRepository", "ViewpointAsset", "adapt", "add_asset",
        "adopt", "extend", "list_assets", "load", "load_model", "save", "save_model",
    ],
    "terrain": [
        "GenParams", "Position", "StepClass", "TerrainMap", "classify_step", "generate_map", "load_map",
        "step_factor",
    ],
    "planners": [
        "Path", "PlannerId", "plan_edge_follow", "plan_terrain_aware", "register_planner", "resolve_planner",
        "select_adaptive",
    ],
    "simulation": ["SimParams", "SimResult", "Termination", "power_consumption", "power_state", "run"],
    "evaluator": ["ComparisonReport", "EnsembleSpec", "EnsembleStats", "compare", "ensemble", "rank_configurations"],
    "errors": [],
    "demo": [],
}


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports refmodel from this checkout."""
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_all_lists_the_public_names():
    assert len(refmodel.__all__) == 82
    assert sorted(refmodel.__all__) == sorted([*NAMES, *(name for names in NAMES.values() for name in names)])


@pytest.mark.parametrize("module", NAMES)
def test_each_name_is_its_modules_attribute(module):
    owner = importlib.import_module(f"refmodel.{module}")
    assert getattr(refmodel, module) is owner
    for name in NAMES[module]:
        assert getattr(refmodel, name) is getattr(owner, name), name


def test_import_loads_no_submodule_until_a_name_is_used():
    proc = run_python(
        "import sys, refmodel\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.partition('.')[0] == 'refmodel')\n"
        "print(*loaded())\n"
        "print(refmodel.terrain.generate_map.__module__)\n"
        "print(*loaded())\n"
    )
    assert proc.returncode == 0, proc.stderr
    # terrain loads only what it imports: core, for the record decorator, and errors.
    loaded = "refmodel refmodel.core refmodel.errors refmodel.terrain"
    assert proc.stdout.splitlines() == ["refmodel", "refmodel.terrain", loaded]


def test_demo_loads_on_first_use_in_a_fresh_interpreter():
    proc = run_python("import refmodel\nprint(refmodel.demo.build_demo_model().id)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{refmodel.demo.build_demo_model().id}\n"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from refmodel import *", namespace)
    assert set(refmodel.__all__) <= set(namespace)


def test_dir_covers_the_public_names():
    assert set(refmodel.__all__) <= set(dir(refmodel))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        refmodel.no_such_name


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"^## Library use\n\n```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    assert example, "README has no python block under '## Library use'"
    proc = run_python(example.group(1))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "terrain_aware"
