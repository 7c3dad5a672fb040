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
