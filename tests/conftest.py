import sys

import pytest

from refmodel import demo
from refmodel.terrain import load_map


@pytest.fixture()
def demo_repo():
    return demo.build_demo_repository()


@pytest.fixture()
def demo_model():
    return demo.build_demo_model()


@pytest.fixture()
def ridge_map():
    return load_map(demo.REFERENCE_MAP_TEXT)


@pytest.fixture(autouse=True)
def no_memoised_scores():
    """Each test starts with no arena scores memoised by the evaluator, so its results do not depend on test order."""
    evaluator = sys.modules.get("refmodel.evaluator")
    if evaluator is not None:
        evaluator._memo.clear()
