"""The demo's bytes: the repository and model JSON and the ridge map text are pinned by sha256."""

import hashlib

from refmodel import demo, repository

DEMO_REPOSITORY_SHA256 = "6c9666e7c65df6380fb768a4878bc4151bb89a21cb1a5711a21c3401c04ea320"
DEMO_MODEL_SHA256 = "b8cbaf44a0002cd8faf7abeb15cb43fd426c3c2f8fb78258240e03970ee0020f"
REFERENCE_MAP_SHA256 = "da6b0116233d9858ece83d40a0103d335294968aa93e570b0d69d96c7b6d8fab"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_demo_bytes_are_pinned():
    assert sha256(repository.save(demo.build_demo_repository())) == DEMO_REPOSITORY_SHA256
    assert sha256(repository.save_model(demo.build_demo_model())) == DEMO_MODEL_SHA256
    assert sha256(demo.REFERENCE_MAP_TEXT) == REFERENCE_MAP_SHA256
