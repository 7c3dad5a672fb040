"""The append-only store behind model and repository writes.

Writes append in place on the newest version and copy the prefix of an older
one first, so every version must read exactly as if each write had copied the
whole model, as the copy-on-write writes in oracles.py did.
"""

import random
import time
from dataclasses import replace
from itertools import cycle

import oracles
import pytest

from genmodels import dense_trace_model, performs_chain_model, random_block
from refmodel import composition
from refmodel.composition import (
    TraceDirection,
    capability_coverage,
    connect,
    replacement_blocks,
    trace,
    validate_configuration,
)
from refmodel.core import (
    BlockKind,
    BuildingBlock,
    ConcernLayer,
    Connection,
    Model,
    Origin,
    Port,
    PortDirection,
    PortRef,
    TraceKind,
    TraceLink,
    add_block,
    add_trace,
    trace_pair_permitted,
)
from refmodel.errors import AlreadyBound
from refmodel.repository import BlockAsset, ReferenceRepository, add_asset, adopt, load, load_model, save, save_model

POOL = 14


def outcome(write, *args):
    """The write's result, or the type and message of what it raised."""
    try:
        return write(*args), None
    except Exception as exc:  # every error type the writes raise is compared
        return None, (type(exc), str(exc))


def block_pool(rng):
    """Blocks to write; some ids come twice, with different content."""
    pool = [random_block(rng, f"b{i}") for i in range(POOL)]
    pool += [random_block(rng, f"b{rng.randrange(POOL)}") for _ in range(4)]
    return pool


def random_write(rng, model, pool):
    """A write with arguments drawn so that every outcome occurs: success and each error."""
    ids = sorted(model.blocks) or ["b0"]
    op = rng.choice(("block", "block", "trace", "connect", "connect"))
    if op == "block":
        return "add_block", rng.choice(pool)
    if op == "trace":
        source, target = rng.choice(ids), rng.choice(ids + ["ghost"])
        kinds = list(TraceKind)
        if target in model.blocks and rng.random() < 0.7:
            layers = model.blocks[source].layer, model.blocks[target].layer
            kinds = [kind for kind in TraceKind if trace_pair_permitted(*layers, kind)] or kinds
        return "add_trace", TraceLink(rng.choice(kinds), source, target)
    ports = [(PortRef(b.id, p.id), p) for b in model.sorted_blocks() for p in b.ports]
    required = [(ref, p) for ref, p in ports if p.direction is PortDirection.REQUIRED]
    if not required or rng.random() < 0.1:
        return "connect", PortRef(rng.choice(ids), "p0"), PortRef("ghost", "p0")
    target, port = rng.choice(required)
    wanted = (PortDirection.PROVIDED, port.interface_type)
    feeds = [ref for ref, p in ports if (p.direction, p.interface_type) == wanted]
    if feeds and rng.random() < 0.8:
        return "connect", rng.choice(feeds), target
    return "connect", rng.choice(ports)[0], target


def assert_reads_alike(model, reference, pool, links):
    assert model == reference and reference == model and not model != reference
    assert repr(model.blocks) == repr(reference.blocks)
    assert dict(model.blocks.items()) == dict(reference.blocks.items())
    assert list(model.blocks) == list(reference.blocks)
    for block in pool:
        assert (block.id in model.blocks) == (block.id in reference.blocks)
        assert model.blocks.get(block.id) == reference.blocks.get(block.id)
    for ours, theirs in ((model.connections, reference.connections), (model.traces, reference.traces)):
        assert len(ours) == len(theirs)
        walked = list(ours)
        assert len(walked) == len(set(walked)) == len(ours)
        assert set(walked) == set(theirs)
        assert ours == frozenset(theirs) and frozenset(theirs) == ours
    for link in links:
        assert (link in model.connections) == (link in reference.connections)
        assert (link in model.traces) == (link in reference.traces)
    assert save_model(model) == save_model(reference)


class TestAgainstCopyOnWrite:
    WRITES = {
        "add_block": (add_block, oracles.add_block),
        "add_trace": (add_trace, oracles.add_trace),
        "connect": (connect, oracles.connect),
    }

    @pytest.mark.parametrize("seed", range(40))
    def test_random_writes_to_any_version(self, seed):
        """Each write goes to a random older or the newest version; all versions keep reading alike."""
        rng = random.Random(seed)
        pool = block_pool(rng)
        versions = [(Model(id=f"m{seed}"), Model(id=f"m{seed}"))]
        links = set()
        outcomes = set()
        for _ in range(120):
            index = len(versions) - 1 if rng.random() < 0.5 else rng.randrange(len(versions))
            model, reference = versions[index]
            name, *args = random_write(rng, reference, pool)
            links.update(arg for arg in args if isinstance(arg, (TraceLink, Connection)))
            ours, error = outcome(self.WRITES[name][0], model, *args)
            theirs, expected = outcome(self.WRITES[name][1], reference, *args)
            assert error == expected, (name, args)
            outcomes.add((name, error and error[0].__name__))
            if error is None:
                if name == "connect":
                    links.add(Connection(*args))
                versions.append((ours, theirs))
            model, reference = rng.choice(versions)
            assert_reads_alike(model, reference, pool, links)
        for model, reference in versions:
            assert_reads_alike(model, reference, pool, links)
        if seed == 0:
            assert {error for _, error in outcomes} == {
                None, "AlreadyBound", "DuplicateId", "IllegalTraceKind", "TypeMismatch", "UnknownElement"
            }

    @pytest.mark.parametrize("seed", range(20))
    def test_random_asset_writes_to_any_version(self, seed):
        rng = random.Random(seed)
        pool = [BlockAsset(block) for block in block_pool(rng)]
        versions = [(ReferenceRepository(), ReferenceRepository())]
        for _ in range(60):
            index = len(versions) - 1 if rng.random() < 0.5 else rng.randrange(len(versions))
            repo, reference = versions[index]
            asset = rng.choice(pool)
            ours, error = outcome(add_asset, repo, asset)
            theirs, expected = outcome(oracles.add_asset, reference, asset)
            assert error == expected
            if error is None:
                versions.append((ours, theirs))
        for repo, reference in versions:
            assert repo == reference and reference == repo
            assert (repo.version, len(repo.assets), list(repo.assets)) == (
                reference.version, len(reference.assets), list(reference.assets)
            )
            for asset in pool:
                assert (asset.id in repo.assets) == (asset.id in reference.assets)
                assert repo.assets.get(asset.id) == reference.assets.get(asset.id)
            assert save(repo) == save(reference)


def service(block_id):
    ports = (
        Port("in", PortDirection.REQUIRED, "T", ConcernLayer.SERVICE),
        Port("out", PortDirection.PROVIDED, "T", ConcernLayer.SERVICE),
    )
    return BuildingBlock(block_id, block_id, ConcernLayer.SERVICE, BlockKind.SERVICE, ports)


class TestBranching:
    def test_blocks(self):
        base = add_block(Model(id="m"), service("a"))
        newer = add_block(base, service("b"))
        branch = add_block(base, service("c"))
        newest = add_block(newer, service("d"))
        twig = add_block(branch, service("b"))
        assert list(base.blocks) == ["a"]
        assert list(newer.blocks) == ["a", "b"]
        assert list(newest.blocks) == ["a", "b", "d"]
        assert list(branch.blocks) == ["a", "c"]
        assert list(twig.blocks) == ["a", "c", "b"]
        for model, absent in ((base, "bcd"), (newer, "cd"), (branch, "bd"), (twig, "d")):
            for block_id in absent:
                assert block_id not in model.blocks and model.blocks.get(block_id) is None
                with pytest.raises(KeyError):
                    model.blocks[block_id]

    def test_connections_and_bound_ports(self):
        model = Model(id="m", blocks={bid: service(bid) for bid in "abc"})
        base = connect(model, PortRef("a", "out"), PortRef("b", "in"))
        newer = connect(base, PortRef("b", "out"), PortRef("c", "in"))
        # c:in is bound only in the newer version, so the older one may still bind it.
        branch = connect(base, PortRef("a", "out"), PortRef("c", "in"))
        with pytest.raises(AlreadyBound):
            connect(newer, PortRef("a", "out"), PortRef("c", "in"))
        with pytest.raises(AlreadyBound):
            connect(branch, PortRef("b", "out"), PortRef("c", "in"))
        assert base.connections == {Connection(PortRef("a", "out"), PortRef("b", "in"))}
        assert newer.connections - base.connections == {Connection(PortRef("b", "out"), PortRef("c", "in"))}
        assert branch.connections - base.connections == {Connection(PortRef("a", "out"), PortRef("c", "in"))}
        assert isinstance(newer.connections | branch.connections, frozenset)
        assert isinstance(newer.connections & branch.connections, frozenset)
        assert (newer.connections & branch.connections) == base.connections

    def test_traces(self):
        capability = BuildingBlock("cap", "cap", ConcernLayer.STRATEGIC, BlockKind.CAPABILITY)
        model = add_block(Model(id="m"), capability)
        model = add_block(model, service("s"))
        model = add_block(model, service("t"))
        base = add_trace(model, TraceLink(TraceKind.MAPS_TO, "s", "cap"))
        again = add_trace(base, TraceLink(TraceKind.MAPS_TO, "s", "cap"))
        newer = add_trace(base, TraceLink(TraceKind.MAPS_TO, "t", "cap"))
        assert again.traces == base.traces and len(again.traces) == 1
        branch = add_trace(again, TraceLink(TraceKind.MAPS_TO, "t", "cap"))
        assert branch == newer and branch.traces == newer.traces
        assert len(base.traces) == 1 and TraceLink(TraceKind.MAPS_TO, "t", "cap") not in base.traces

    def test_loop_over_a_version_while_writing_it(self):
        model = Model(id="m", blocks={bid: service(bid) for bid in "ab"})
        for block_id in model.blocks:
            model = add_block(model, service(block_id * 2))
        assert list(model.blocks) == ["a", "b", "aa", "bb"]


class TestTwins:
    """A model built one write at a time equals its bulk-built and JSON-loaded twins."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_writes(self, seed):
        rng = random.Random(seed)
        pool = block_pool(rng)
        model = Model(id=f"m{seed}")
        for _ in range(80):
            name, *args = random_write(rng, model, pool)
            result, _ = outcome(TestAgainstCopyOnWrite.WRITES[name][0], model, *args)
            model = result or model
        self.assert_twins(model)

    @pytest.mark.parametrize("seed", range(10))
    def test_dense_traces(self, seed):
        """Blocks written one at a time, then traces (some dangling or illegal) given in bulk."""
        source = dense_trace_model(seed)
        built = Model(id=source.id)
        for block in source.blocks.values():
            built = add_block(built, block)
        model = Model(id=source.id, blocks=built.blocks, traces=source.traces)
        assert model == source
        self.assert_twins(model)
        for block_id in source.blocks:
            for direction in TraceDirection:
                assert trace(model, block_id, direction) == oracles.trace(source, block_id, direction)

    @staticmethod
    def assert_twins(model):
        bulk = Model(
            id=model.id,
            blocks=dict(model.blocks.items()),
            connections=frozenset(model.connections),
            traces=frozenset(model.traces),
        )
        loaded = load_model(save_model(model))
        for twin in (bulk, loaded):
            assert twin == model and model == twin
            assert save_model(twin) == save_model(model)
            assert validate_configuration(twin) == validate_configuration(model)
            assert capability_coverage(twin) == capability_coverage(model)
        repo = ReferenceRepository()
        for block in model.sorted_blocks():
            repo = add_asset(repo, BlockAsset(replace(block, origin=Origin.REFERENCE_ASSET)))
        assert load(save(repo)) == repo
        assert ReferenceRepository(assets=dict(repo.assets.items()), version=repo.version) == repo


def connect_chain_seconds(length):
    model = Model(id="chain", blocks={f"s{i}": service(f"s{i}") for i in range(length)})
    start = time.perf_counter()
    for i in range(length - 1):
        model = connect(model, PortRef(f"s{i}", "out"), PortRef(f"s{i + 1}", "in"))
    return time.perf_counter() - start


def test_connect_chain_scales_linearly():
    """A write costs amortised O(1): 4x the connects take well under the ~19x of copying per write."""
    short = min(connect_chain_seconds(1000) for _ in range(3))
    long = min(connect_chain_seconds(4000) for _ in range(3))
    assert long <= 8 * short, (long, short)


def older_reads_seconds(writes):
    """Grow a model by `writes` blocks, reading the version before each write right after it."""
    model = Model(id="grow")
    start = time.perf_counter()
    for i in range(writes):
        older, model = model, add_block(model, service(f"s{i}"))
        assert f"s{i}" not in older.blocks and f"s{i // 2}" in model.blocks
    return time.perf_counter() - start


def test_reading_an_older_version_while_the_log_grows_scales_linearly():
    """The position index is built once and kept up by each append, not rebuilt as the log grows."""
    short = min(older_reads_seconds(500) for _ in range(3))
    long = min(older_reads_seconds(4000) for _ in range(3))
    assert long <= 16 * short, (long, short)


def test_steps_run_once_per_model_and_direction(monkeypatch):
    runs = []
    steps = composition._steps

    def counted(model, direction):
        runs.append((model.id, direction))
        return steps(model, direction)

    monkeypatch.setattr(composition, "_steps", counted)
    model = performs_chain_model(40)
    ids = sorted(model.blocks)
    calls = [(ids[i % len(ids)], direction) for i, direction in zip(range(100), cycle(TraceDirection))]
    for block_id, direction in calls:
        assert trace(model, block_id, direction) == oracles.trace(model, block_id, direction)
    assert capability_coverage(model) == oracles.capability_coverage(model)
    assert runs == [("chain", TraceDirection.UP), ("chain", TraceDirection.DOWN)]

    # A write right after the reads: the new version sees its own link, not the old version's cached steps.
    extended = add_trace(model, TraceLink(TraceKind.EXHIBITS, "res", "cap"))
    assert capability_coverage(extended) == oracles.capability_coverage(extended)
    assert trace(extended, "cap", TraceDirection.DOWN) == oracles.trace(extended, "cap", TraceDirection.DOWN)
    assert ("res", TraceKind.EXHIBITS) in composition._cached_steps(extended, TraceDirection.DOWN)["cap"]
    assert trace(model, "cap", TraceDirection.DOWN) == oracles.trace(model, "cap", TraceDirection.DOWN)
    assert len(runs) == 3


def test_adopted_blocks_never_share_parameters_with_the_asset():
    """adopt and replacement_blocks re-origin an asset's block; the parameters are the new block's own copy."""
    repo = ReferenceRepository()
    for block_id in ("alg.a", "alg.b"):
        block = BuildingBlock(
            block_id, block_id, ConcernLayer.RESOURCE, BlockKind.ALGORITHM_BLOCK, parameters={"k": 1}
        )
        repo = add_asset(repo, BlockAsset(block))
    model = adopt(repo, "alg.a", Model(id="m"))
    slot_block, swapped = replacement_blocks(model, repo, "alg.a")
    assert slot_block is model.blocks["alg.a"]
    assert (slot_block.origin, swapped.origin, swapped.id) == (Origin.ADOPTED, Origin.ADOPTED, "alg.b")
    slot_block.parameters["k"] = 2
    swapped.parameters["k"] = 3
    assert [asset.block.parameters for asset in repo.block_assets()] == [{"k": 1}, {"k": 1}]
