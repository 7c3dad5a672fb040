"""Seeded random builders for models, patterns, repositories, and terrain maps.

Deterministic per seed so property tests can replay failures by seed alone.
"""

from __future__ import annotations

import random
from dataclasses import replace

from refmodel.composition import Pattern, PatternAnchor, Viewpoint, viewpoint_valid
from refmodel.core import (
    Aspect,
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
    layer_for_kind,
)
from refmodel.repository import (
    BlockAsset,
    PatternAsset,
    ReferenceRepository,
    ViewpointAsset,
    add_asset,
)
from refmodel.terrain import OBSTACLE, Position, TerrainMap, generate_map, load_map

TOKENS = ["Power", "Drive", "Sense", "Plan", "Cut", "MapData"]


def random_port(rng: random.Random, port_id: str, layer: ConcernLayer) -> Port:
    return Port(
        id=port_id,
        direction=rng.choice([PortDirection.PROVIDED, PortDirection.REQUIRED]),
        interface_type=rng.choice(TOKENS),
        layer=layer,
    )


def random_block(
    rng: random.Random,
    block_id: str,
    kind: BlockKind | None = None,
    origin: Origin = Origin.REFERENCE_ASSET,
) -> BuildingBlock:
    kind = kind or rng.choice(list(BlockKind))
    layer = layer_for_kind(kind)
    ports = tuple(random_port(rng, f"p{i}", layer) for i in range(rng.randint(0, 3)))
    parameters = {}
    for i in range(rng.randint(0, 2)):
        parameters[f"k{i}"] = rng.choice(
            [rng.randint(-50, 50), round(rng.uniform(0, 10), 4), "token", bool(rng.getrandbits(1))]
        )
    return BuildingBlock(
        id=block_id,
        name=f"Block {block_id}",
        layer=layer,
        kind=kind,
        ports=ports,
        parameters=parameters,
        origin=origin,
    )


def random_model(seed: int) -> Model:
    rng = random.Random(seed)
    blocks = {}
    for i in range(rng.randint(1, 8)):
        block = random_block(rng, f"m{i}", origin=rng.choice(list(Origin)))
        blocks[block.id] = block
    provided = [
        PortRef(b.id, p.id)
        for b in blocks.values()
        for p in b.ports
        if p.direction is PortDirection.PROVIDED
    ]
    required = [
        PortRef(b.id, p.id)
        for b in blocks.values()
        for p in b.ports
        if p.direction is PortDirection.REQUIRED
    ]
    connections = set()
    if provided and required:
        for _ in range(rng.randint(0, 4)):
            connections.add(Connection(rng.choice(provided), rng.choice(required)))
    ids = sorted(blocks)
    traces = set()
    for _ in range(rng.randint(0, 5)):
        traces.add(
            TraceLink(rng.choice(list(TraceKind)), rng.choice(ids), rng.choice(ids))
        )
    return Model(
        id=f"gen{seed}", blocks=blocks, connections=frozenset(connections), traces=frozenset(traces)
    )


def dense_trace_model(seed: int) -> Model:
    """Up to 14 blocks and 39 trace links, for checking trace walks; layer legality is ignored.

    Links may form cycles, one is a self-link, one pair of blocks is linked
    by two kinds, and some endpoints are ids that are not blocks of the model.
    """
    rng = random.Random(seed)
    ends = [f"b{n:02d}" for n in rng.sample(range(100), rng.randint(1, 14) + 2)]
    ids = ends[:-2]
    blocks = {
        bid: random_block(rng, bid, kind=BlockKind.CAPABILITY if i == 0 else None)
        for i, bid in enumerate(ids)
    }
    kinds = list(TraceKind)
    traces = {
        TraceLink(rng.choice(kinds), rng.choice(ends), rng.choice(ends))
        for _ in range(rng.randint(0, 36))
    }
    looped = rng.choice(ids)
    traces.add(TraceLink(rng.choice(kinds), looped, looped))
    source, target = rng.choice(ids), rng.choice(ids)
    traces.update(TraceLink(kind, source, target) for kind in rng.sample(kinds, 2))
    return Model(id=f"dense{seed}", blocks=blocks, traces=frozenset(traces))


def performs_chain_model(length: int) -> Model:
    """A legal model whose one capability is covered through a long performs chain.

    cap <-exhibits- a0 <-performs- a1 ... a(length-1) <-implements- svc <-implements- res
    """
    chain = [f"a{i:04d}" for i in range(length)]
    blocks = [
        BuildingBlock("cap", "Capability", ConcernLayer.STRATEGIC, BlockKind.CAPABILITY),
        *(
            BuildingBlock(bid, bid, ConcernLayer.OPERATIONAL, BlockKind.OPERATIONAL_ACTIVITY)
            for bid in chain
        ),
        BuildingBlock("svc", "Service", ConcernLayer.SERVICE, BlockKind.SERVICE),
        BuildingBlock("res", "Function", ConcernLayer.RESOURCE, BlockKind.FUNCTION),
    ]
    traces = {
        TraceLink(TraceKind.EXHIBITS, chain[0], "cap"),
        *(TraceLink(TraceKind.PERFORMS, low, high) for high, low in zip(chain, chain[1:])),
        TraceLink(TraceKind.IMPLEMENTS, "svc", chain[-1]),
        TraceLink(TraceKind.IMPLEMENTS, "res", "svc"),
    }
    return Model(id="chain", blocks={b.id: b for b in blocks}, traces=frozenset(traces))


def random_model_and_pattern(seed: int) -> tuple[Model, Pattern, dict[str, str]]:
    """A model plus a pattern whose anchors all bind into it."""
    rng = random.Random(seed)
    model = random_model(rng.randint(0, 10**6))
    anchor_blocks = rng.sample(sorted(model.blocks), k=rng.randint(0, min(2, len(model.blocks))))
    anchors = tuple(
        PatternAnchor(bid, model.blocks[bid].layer, model.blocks[bid].kind)
        for bid in anchor_blocks
    )
    pattern_blocks = tuple(
        random_block(rng, f"pat{i}", origin=rng.choice(list(Origin)))
        for i in range(rng.randint(0, 4))
    )
    member_ids = [b.id for b in pattern_blocks] + list(anchor_blocks)
    connections = set()
    traces = set()
    if member_ids:
        for _ in range(rng.randint(0, 3)):
            connections.add(
                Connection(
                    PortRef(rng.choice(member_ids), f"p{rng.randint(0, 2)}"),
                    PortRef(rng.choice(member_ids), f"p{rng.randint(0, 2)}"),
                )
            )
        for _ in range(rng.randint(0, 3)):
            traces.add(
                TraceLink(
                    rng.choice(list(TraceKind)),
                    rng.choice(member_ids),
                    rng.choice(member_ids),
                )
            )
    pattern = Pattern(
        id=f"pattern{seed}",
        blocks=pattern_blocks,
        connections=frozenset(connections),
        traces=frozenset(traces),
        anchors=anchors,
    )
    return model, pattern, {bid: bid for bid in anchor_blocks}


def tangled_model(seed: int) -> Model:
    """A random model with dangling, illegal, mismatched and multiply bound links mixed in.

    Connection ends may name a missing block or a missing port of a block, trace
    ends a missing block, and one required port, when there is one, gets up to
    two providers.
    """
    rng = random.Random(seed)
    model = random_model(rng.randint(0, 10**6))
    ids = sorted(model.blocks)
    refs = [PortRef(b.id, p.id) for b in model.sorted_blocks() for p in b.ports]
    ends = refs + [PortRef("ghost", "p0"), PortRef(rng.choice(ids), "p9")]
    connections = set(model.connections)
    connections.update(Connection(rng.choice(ends), rng.choice(ends)) for _ in range(rng.randint(0, 4)))
    provided = [ref for ref in refs if model.port(ref).direction is PortDirection.PROVIDED]
    required = [ref for ref in refs if model.port(ref).direction is PortDirection.REQUIRED]
    if provided and required:
        target = rng.choice(required)
        connections.update(Connection(rng.choice(provided), target) for _ in range(2))
    kinds, names = list(TraceKind), ids + ["ghost"]
    traces = set(model.traces)
    traces.update(
        TraceLink(rng.choice(kinds), rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 3))
    )
    return Model(model.id, model.blocks, frozenset(connections), frozenset(traces))


def pattern_case(seed: int) -> tuple[Model, Pattern, dict[str, str], bool]:
    """A model, a pattern built out of id order, anchor bindings and a force_theirs flag.

    A binding may be left out, name a missing block or a block of another
    kind, or name no anchor at all; the model may hold a pattern block's id
    with other content.
    """
    rng = random.Random(seed)
    model, pattern, bindings = random_model_and_pattern(rng.randint(0, 10**6))
    pattern = Pattern(
        pattern.id,
        tuple(reversed(pattern.blocks)),
        pattern.connections,
        pattern.traces,
        tuple(reversed(pattern.anchors)),
    )
    anchors, roll = pattern.anchor_ids(), rng.random()
    if anchors and roll < 0.15:
        del bindings[rng.choice(anchors)]
    elif anchors and roll < 0.3:
        bindings[rng.choice(anchors)] = "ghost"
    elif anchors and roll < 0.45:
        bindings[rng.choice(anchors)] = rng.choice(sorted(model.blocks))
    elif roll < 0.55:
        bindings["nobody"] = rng.choice(sorted(model.blocks))
    if pattern.blocks and rng.random() < 0.3:
        clash = random_block(rng, rng.choice(pattern.blocks).id)
        model = Model(model.id, {**model.blocks, clash.id: clash}, model.connections, model.traces)
    return model, pattern, bindings, rng.random() < 0.3


def swap_case(seed: int) -> tuple[Model, ReferenceRepository, str]:
    """A tangled model with a wired "slot" block, and a repository of blocks to swap in for it.

    The slot has three ports of one direction and type. The block assets
    carry the slot's ports under other ids, listed in shuffled order; one may
    equal the slot, and one may reuse the id of another block of the model.
    """
    rng = random.Random(seed)
    model = tangled_model(rng.randint(0, 10**6))
    slot = random_block(rng, "slot", origin=Origin.ADOPTED)
    twin = rng.choice(slot.ports) if slot.ports else Port("p0", PortDirection.PROVIDED, "Power", slot.layer)
    twins = tuple(replace(twin, id=f"q{i}") for i in range(2))
    slot = replace(slot, ports=(slot.ports or (twin,)) + twins)
    ids = sorted(model.blocks)
    others = [PortRef(b.id, p.id) for b in model.sorted_blocks() for p in b.ports] or [PortRef("ghost", "p0")]
    connections = {Connection(PortRef("slot", "p9"), rng.choice(others))}
    for port in slot.ports:
        here, there = PortRef("slot", port.id), rng.choice(others)
        provided = port.direction is PortDirection.PROVIDED
        connections.add(Connection(here, there) if provided else Connection(there, here))
    kinds = list(TraceKind)
    traces = {
        TraceLink(rng.choice(kinds), "slot", rng.choice(ids)),
        TraceLink(rng.choice(kinds), rng.choice(ids), "slot"),
    }
    blocks = {**model.blocks, "slot": slot}
    model = Model(model.id, blocks, model.connections | connections, model.traces | traces)
    pool = ["a", "b", "p0", "p1", "p2", "q0", "q1", "z"]
    candidates = ["slot", "alt0", "alt1"]
    if rng.random() < 0.2:
        candidates.append(rng.choice(ids))
    repo = ReferenceRepository()
    for block_id in candidates:
        shuffled = rng.sample(slot.ports, len(slot.ports))
        ports = [replace(port, id=new_id) for port, new_id in zip(shuffled, rng.sample(pool, len(shuffled)))]
        candidate = replace(slot, id=block_id, ports=ports, origin=Origin.REFERENCE_ASSET)
        if block_id == "slot" and rng.random() < 0.3:
            candidate = replace(slot, origin=Origin.REFERENCE_ASSET)
        repo = add_asset(repo, BlockAsset(candidate))
    return model, add_asset(repo, BlockAsset(random_block(rng, "other"))), "slot"


def random_viewpoint(rng: random.Random, name: str) -> Viewpoint:
    while True:
        viewpoint = Viewpoint(
            subject=rng.choice(list(ConcernLayer)), aspect=rng.choice(list(Aspect)), name=name
        )
        if viewpoint_valid(viewpoint):
            return viewpoint


def random_repository(seed: int) -> ReferenceRepository:
    rng = random.Random(seed)
    repo = ReferenceRepository()
    for i in range(rng.randint(1, 6)):
        repo = add_asset(repo, BlockAsset(random_block(rng, f"b{i}")))
    for i in range(rng.randint(0, 2)):
        _, pattern, _ = random_model_and_pattern(rng.randint(0, 10**6))
        pattern_asset = PatternAsset(
            Pattern(
                id=f"pat{i}",
                blocks=pattern.blocks,
                connections=pattern.connections,
                traces=pattern.traces,
                anchors=pattern.anchors,
            )
        )
        repo = add_asset(repo, pattern_asset)
    for i in range(rng.randint(0, 2)):
        repo = add_asset(repo, ViewpointAsset(random_viewpoint(rng, f"vp{i}")))
    return repo


def terrain_case(seed: int) -> tuple[TerrainMap, list[Position]]:
    """A seeded map and four starts to plan from.

    Odd seeds generate the map (one free component), even seeds draw raw cells,
    which often leaves several components. Every tenth seed gives a 1x1 map
    and every fiftieth a 24x24 one; the rest are 1x1 to 16x16. Obstacle
    density is 0 to 0.6 and the highest level is seed % 4. The starts are the
    first and the last free cell, a random free cell, and a random cell that
    may be an obstacle.
    """
    rng = random.Random(seed)
    max_level = seed % 4
    if seed % 10 in (0, 5):
        width = height = 1
    elif seed % 50 == 1:
        width = height = 24
    else:
        width, height = rng.randint(1, 16), rng.randint(1, 16)
    density = rng.choice((0.0, 0.15, 0.3, 0.45, 0.6))
    if seed % 2:
        tmap = generate_map(width, height, density, seed, max_level=max_level)
    else:
        cells = [
            [OBSTACLE if rng.random() < density else rng.randint(0, max_level) for _ in range(width)]
            for _ in range(height)
        ]
        cells[rng.randrange(height)][rng.randrange(width)] = rng.randint(0, max_level)
        tmap = TerrainMap(cells=tuple(map(tuple, cells)))
    free = list(tmap.free_positions())
    anywhere = Position(rng.randrange(height), rng.randrange(width))
    return tmap, [free[0], free[-1], rng.choice(free), anywhere]


def one_wide_maps() -> list[TerrainMap]:
    """1xN and Nx1 maps, open and with obstacles, fixed and seeded.

    On a one-column map cell index i + 1 is the cell below i, not one to its
    east, so these maps catch index arithmetic that forgets the row bounds.
    """
    texts = ["0", "0123", "30X12X0", "X0000X", "0\n1\n2\n3", "3\n2\nX\n1\n0", "X\n0\n0\nX\n2"]
    maps = [load_map(text) for text in texts]
    for seed in range(12):
        rng = random.Random(seed)
        strip = [OBSTACLE if rng.random() < 0.3 else rng.randint(0, 3) for _ in range(rng.randint(2, 24))]
        strip[rng.randrange(len(strip))] = rng.randint(0, 3)
        maps.append(TerrainMap(cells=(tuple(strip),)))
        maps.append(TerrainMap(cells=tuple((value,) for value in strip)))
        maps.append(generate_map(len(strip), 1, 0.3, seed))
        maps.append(generate_map(1, len(strip), 0.3, seed))
    return maps
