import os
import subprocess
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import refmodel
from genmodels import (
    dense_trace_model,
    pattern_case,
    performs_chain_model,
    random_model,
    random_model_and_pattern,
    swap_case,
    tangled_model,
)
from refmodel.composition import (
    CoverageStatus,
    Pattern,
    PatternAnchor,
    TraceDirection,
    Viewpoint,
    apply_pattern,
    capability_coverage,
    connect,
    enumerate_alternatives,
    enumerate_alternatives_with_slots,
    export_dot,
    extract_view,
    replacement_blocks,
    trace,
    validate_configuration,
    viewpoint_valid,
)
from refmodel.core import (
    Aspect,
    BlockKind,
    BuildingBlock,
    ConcernLayer,
    Connection,
    Model,
    Origin,
    PortRef,
    TraceKind,
    TraceLink,
    add_block,
    add_trace,
)
from refmodel.errors import (
    AlreadyBound,
    AnchorKindMismatch,
    AnchorUnbound,
    DuplicateId,
    InvalidViewpoint,
    MergeConflict,
    TypeMismatch,
    UnknownElement,
)
from refmodel.repository import BlockAsset, ReferenceRepository, add_asset


def strip_traces(model, kinds=(TraceKind.EXHIBITS,), source_layer=None):
    keep = set()
    for link in model.traces:
        if link.kind in kinds and (
            source_layer is None or model.block(link.source).layer is source_layer
        ):
            continue
        keep.add(link)
    return Model(id=model.id, blocks=model.blocks, connections=model.connections, traces=keep)


class TestConnect:
    def test_connect_matching_ports(self, demo_model):
        model = strip_connection(demo_model, "res.fn.classify", "svc.object_recognition")
        wired = connect(
            model,
            PortRef("res.fn.classify", "out"),
            PortRef("svc.object_recognition", "in_classified"),
        )
        assert len(wired.connections) == len(demo_model.connections)

    def test_type_mismatch(self, demo_model):
        with pytest.raises(TypeMismatch):
            connect(
                strip_connection(demo_model, "res.fn.classify", "svc.object_recognition"),
                PortRef("res.camera", "out"),
                PortRef("svc.object_recognition", "in_classified"),
            )

    def test_already_bound(self, demo_model):
        with pytest.raises(AlreadyBound):
            connect(
                demo_model,
                PortRef("res.fn.classify", "out"),
                PortRef("svc.object_recognition", "in_classified"),
            )

    def test_unknown_port(self, demo_model):
        with pytest.raises(UnknownElement):
            connect(demo_model, PortRef("res.camera", "nope"), PortRef("svc.mowing", "in_cutting"))


def strip_connection(model, source_block, target_block):
    keep = frozenset(
        c
        for c in model.connections
        if not (c.source.block == source_block and c.target.block == target_block)
    )
    return Model(id=model.id, blocks=model.blocks, connections=keep, traces=model.traces)


class TestApplyPattern:
    def test_service_pattern_merges_services_and_traces(self, demo_repo):
        from refmodel.demo import _reference_blocks, services_pattern
        from refmodel.repository import adopt

        model = Model(id="m")
        for block in _reference_blocks():
            model = adopt(demo_repo, block.id, model)
        pattern = services_pattern()
        merged = apply_pattern(model, pattern, {a: a for a in pattern.anchor_ids()})
        assert "svc.smart_mowing" in merged.blocks
        assert TraceLink(TraceKind.MAPS_TO, "svc.mowing", "cap.mowing") in merged.traces
        assert set(model.blocks) < set(merged.blocks)

    def test_empty_pattern_is_identity(self, demo_model):
        assert apply_pattern(demo_model, Pattern(id="empty")) == demo_model

    def test_reapplication_is_idempotent(self, demo_repo, demo_model):
        from refmodel.demo import services_pattern

        pattern = services_pattern()
        bindings = {a: a for a in pattern.anchor_ids()}
        once = apply_pattern(demo_model, pattern, bindings)
        twice = apply_pattern(once, pattern, bindings)
        assert once == twice == demo_model

    def test_unbound_anchor(self, demo_model):
        pattern = Pattern(
            id="p",
            anchors=(PatternAnchor("cap.mowing", ConcernLayer.STRATEGIC, BlockKind.CAPABILITY),),
        )
        with pytest.raises(AnchorUnbound):
            apply_pattern(demo_model, pattern, {})

    def test_anchor_kind_mismatch(self, demo_model):
        pattern = Pattern(
            id="p",
            anchors=(PatternAnchor("anchor", ConcernLayer.STRATEGIC, BlockKind.CAPABILITY),),
        )
        with pytest.raises(AnchorKindMismatch):
            apply_pattern(demo_model, pattern, {"anchor": "svc.mowing"})

    def test_merge_conflict_on_divergent_content(self, demo_model):
        existing = demo_model.block("svc.mowing")
        divergent = BuildingBlock(
            id="svc.mowing",
            name="Different Mowing",
            layer=existing.layer,
            kind=existing.kind,
            ports=existing.ports,
            origin=existing.origin,
        )
        pattern = Pattern(id="p", blocks=(divergent,))
        with pytest.raises(MergeConflict):
            apply_pattern(demo_model, pattern)
        forced = apply_pattern(demo_model, pattern, force_theirs=True)
        assert forced.block("svc.mowing").name == "Different Mowing"

    def test_errors_name_the_first_anchor_or_block_in_id_order(self, demo_model):
        anchors = [PatternAnchor(a, ConcernLayer.STRATEGIC, BlockKind.CAPABILITY) for a in ("z", "a")]
        with pytest.raises(AnchorUnbound, match="anchor 'a' is unbound"):
            apply_pattern(demo_model, Pattern(id="p", anchors=anchors), {})
        ids = ("svc.mowing", "svc.green_area_mobility")
        divergent = [replace(demo_model.block(block_id), name="Other") for block_id in ids]
        with pytest.raises(MergeConflict, match="block 'svc.green_area_mobility'"):
            apply_pattern(demo_model, Pattern(id="p", blocks=divergent))

    def test_repeated_anchor_is_named_as_such(self):
        anchor = PatternAnchor("cap", ConcernLayer.STRATEGIC, BlockKind.CAPABILITY)
        with pytest.raises(ValueError, match="^pattern 'p': duplicate anchor id 'cap'$"):
            Pattern(id="p", anchors=[anchor, anchor])

    def test_anchor_sharing_a_block_id_clashes(self, demo_model):
        block = demo_model.block("cap.mowing")
        anchor = PatternAnchor(block.id, ConcernLayer.STRATEGIC, BlockKind.CAPABILITY)
        with pytest.raises(ValueError, match="anchor id 'cap.mowing' clashes with a block id"):
            Pattern(id="p", blocks=[block], anchors=[anchor])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_merge_monotone_and_idempotent(self, seed):
        model, pattern, bindings = random_model_and_pattern(seed)
        try:
            once = apply_pattern(model, pattern, bindings)
        except MergeConflict:
            return
        assert set(model.blocks) <= set(once.blocks)
        assert model.connections <= once.connections
        assert model.traces <= once.traces
        assert apply_pattern(once, pattern, bindings) == once


class TestValidate:
    def test_demo_model_valid(self, demo_model):
        report = validate_configuration(demo_model)
        assert report.is_valid
        assert report.findings() == []

    def test_missing_connection_reported_unbound(self, demo_model):
        broken = strip_connection(demo_model, "res.fn.classify", "svc.object_recognition")
        report = validate_configuration(broken)
        assert not report.is_valid
        assert report.unbound_required == ("svc.object_recognition:in_classified ('ObjectClassification')",)

    def test_empty_model_vacuously_valid(self):
        assert validate_configuration(Model(id="m")).is_valid

    def test_double_binding_flagged(self, demo_model):
        doubled = Model(
            id=demo_model.id,
            blocks=demo_model.blocks,
            connections=demo_model.connections
            | {Connection(PortRef("res.camera", "out"), PortRef("svc.object_recognition", "in_classified"))},
            traces=demo_model.traces,
        )
        report = validate_configuration(doubled)
        assert any("in_classified" in finding for finding in report.multiply_bound)

    def test_dangling_connection_flagged(self, demo_model):
        dangling = Model(
            id=demo_model.id,
            blocks=demo_model.blocks,
            connections=demo_model.connections
            | {Connection(PortRef("ghost", "out"), PortRef("svc.mowing", "in_cutting"))},
            traces=demo_model.traces,
        )
        report = validate_configuration(dangling)
        assert any("ghost" in finding for finding in report.dangling)


class TestEnumerateAlternatives:
    def test_two_planner_alternatives(self, demo_model, demo_repo):
        alternatives = enumerate_alternatives(demo_model, demo_repo, "alg.edge_follow")
        assert len(alternatives) == 2
        assert alternatives[0] == demo_model
        assert "alg.terrain_aware" in alternatives[1].blocks
        assert "alg.edge_follow" not in alternatives[1].blocks
        for alternative in alternatives:
            assert validate_configuration(alternative).is_valid

    def test_swap_touches_only_slot(self, demo_model, demo_repo):
        swapped = enumerate_alternatives(demo_model, demo_repo, "alg.edge_follow")[1]
        assert set(demo_model.blocks) - set(swapped.blocks) == {"alg.edge_follow"}
        assert set(swapped.blocks) - set(demo_model.blocks) == {"alg.terrain_aware"}
        changed = {
            c for c in swapped.connections ^ demo_model.connections
        }
        for conn in changed:
            assert "alg.edge_follow" in (conn.source.block, conn.target.block) or (
                "alg.terrain_aware" in (conn.source.block, conn.target.block)
            )

    def test_slot_own_asset_is_element_zero(self, demo_model, demo_repo):
        """The current model leads even when another alternative's id sorts first."""
        swapped = enumerate_alternatives(demo_model, demo_repo, "alg.edge_follow")[1]
        pairs = enumerate_alternatives_with_slots(swapped, demo_repo, "alg.terrain_aware")
        assert [block_id for block_id, _ in pairs] == ["alg.terrain_aware", "alg.edge_follow"]
        assert pairs[0][1] == swapped
        assert pairs[1][1] == demo_model

    @pytest.mark.parametrize(
        "change", [{"name": "Sweep, renamed"}, {"parameters": {"speed": 2}}, {"origin": Origin.ADAPTED}]
    )
    def test_differing_slot_block_with_equal_signature_is_not_current(self, demo_model, demo_repo, change):
        """Swapping the asset in changes the slot block, so that alternative is not the current model."""
        slot = "alg.edge_follow"
        differing = replace(demo_model.blocks[slot], **change)
        model = Model(
            id=demo_model.id,
            blocks={**demo_model.blocks, slot: differing},
            connections=demo_model.connections,
            traces=demo_model.traces,
        )
        pairs = enumerate_alternatives_with_slots(model, demo_repo, slot)
        assert [block_id for block_id, _ in pairs] == ["alg.edge_follow", "alg.terrain_aware"]
        assert pairs[0][1] != model
        assert pairs[0][1] == demo_model

    def test_no_match_returns_current_model(self, demo_model):
        empty_repo = ReferenceRepository()
        assert enumerate_alternatives(demo_model, empty_repo, "alg.edge_follow") == [demo_model]

    def test_unknown_slot(self, demo_model, demo_repo):
        with pytest.raises(UnknownElement):
            enumerate_alternatives(demo_model, demo_repo, "ghost")

    def test_insertion_order_does_not_change_result(self, demo_model, demo_repo):
        reordered = ReferenceRepository()
        for asset in reversed(demo_repo.sorted_assets()):
            if isinstance(asset, BlockAsset):
                reordered = add_asset(reordered, asset)
        assert enumerate_alternatives(demo_model, reordered, "alg.edge_follow") == (
            enumerate_alternatives(demo_model, demo_repo, "alg.edge_follow")
        )


class TestTrace:
    def test_down_from_mowing_capability(self, demo_model):
        tree = trace(demo_model, "cap.mowing", TraceDirection.DOWN)
        reached = set(tree.node_ids())
        assert "svc.mowing" in reached
        assert "res.mowing_robot" in reached

    def test_up_from_leaf_is_singleton(self, demo_model):
        tree = trace(demo_model, "res.camera", TraceDirection.UP)
        assert tree.node_ids() == ["res.camera"]

    def test_unknown_element(self, demo_model):
        with pytest.raises(UnknownElement):
            trace(demo_model, "ghost", TraceDirection.UP)

    def test_nodes_unique_and_deterministic(self, demo_model):
        first = trace(demo_model, "res.mowing_robot", TraceDirection.UP)
        second = trace(demo_model, "res.mowing_robot", TraceDirection.UP)
        ids = first.node_ids()
        assert len(ids) == len(set(ids))
        assert first == second

    def test_up_direction_climbs_layers(self, demo_model):
        tree = trace(demo_model, "res.mowing_robot", TraceDirection.UP)
        assert "cap.mowing" in tree.node_ids()


class TestCoverage:
    def test_demo_all_covered(self, demo_model):
        report = capability_coverage(demo_model)
        assert [e.capability_id for e in report.entries] == [
            "cap.mobility",
            "cap.mowing",
            "cap.recognition",
        ]
        assert all(e.status is CoverageStatus.COVERED for e in report.entries)
        for entry in report.entries:
            assert any(
                demo_model.block(chain[-1]).layer is ConcernLayer.RESOURCE
                for chain in entry.witnesses
            )

    def test_removing_resource_exhibits_demotes(self, demo_model):
        demoted = strip_traces(
            demo_model, kinds=(TraceKind.EXHIBITS,), source_layer=ConcernLayer.RESOURCE
        )
        report = capability_coverage(demoted)
        assert all(e.status is CoverageStatus.PARTIALLY_COVERED for e in report.entries)

    def test_orphan_capability_uncovered(self):
        model = add_block(
            Model(id="m"),
            BuildingBlock("cap.alone", "Alone", ConcernLayer.STRATEGIC, BlockKind.CAPABILITY),
        )
        report = capability_coverage(model)
        assert [(e.capability_id, e.status) for e in report.entries] == [("cap.alone", CoverageStatus.UNCOVERED)]

    def test_adding_links_never_demotes(self, demo_model):
        ranking = {
            CoverageStatus.UNCOVERED: 0,
            CoverageStatus.PARTIALLY_COVERED: 1,
            CoverageStatus.COVERED: 2,
        }
        stripped = strip_traces(
            demo_model, kinds=(TraceKind.EXHIBITS,), source_layer=ConcernLayer.RESOURCE
        )
        before = capability_coverage(stripped)
        grown = stripped
        for link in sorted(demo_model.traces - stripped.traces, key=str):
            grown = add_trace(grown, link)
            after = capability_coverage(grown)
            statuses = {entry.capability_id: entry.status for entry in before.entries}
            for entry in after.entries:
                assert ranking[entry.status] >= ranking[statuses[entry.capability_id]]
            before = after


class TestTraceMatchesReference:
    """The one iterative walk gives what the recursive walks it replaced gave."""

    SEEDS = range(300)

    def test_trees_node_ids_and_dot(self):
        for seed in self.SEEDS:
            model = dense_trace_model(seed)
            for block_id in model.blocks:
                for direction in TraceDirection:
                    tree = trace(model, block_id, direction)
                    assert tree == oracles.trace(model, block_id, direction), (seed, block_id)
                    assert tree.node_ids() == oracles.node_ids(tree), (seed, block_id)
                    assert export_dot(tree) == oracles.trace_dot(tree), (seed, block_id)

    def test_coverage(self):
        for seed in self.SEEDS:
            model = dense_trace_model(seed)
            assert capability_coverage(model) == oracles.capability_coverage(model), seed

    def test_view_dot(self):
        for seed in self.SEEDS:
            for model in (dense_trace_model(seed), random_model(seed)):
                for subject in ConcernLayer:
                    for aspect in Aspect:
                        viewpoint = Viewpoint(subject, aspect)
                        if viewpoint_valid(viewpoint):
                            view = extract_view(model, viewpoint)
                            assert export_dot(view) == oracles.view_dot(view), (seed, viewpoint)

    def test_walk_is_pre_order_with_depths(self, demo_model):
        tree = trace(demo_model, "cap.mowing", TraceDirection.DOWN)
        walked = list(tree.walk())
        assert walked[0] == (0, tree)
        assert [node.block_id for _, node in walked] == oracles.node_ids(tree)
        for (depth, node), (next_depth, _) in zip(walked, walked[1:]):
            assert next_depth <= depth + 1
            if next_depth == depth + 1:
                assert node.children


def outcome(function, *args, **kwargs):
    """The function's result, or the type and message of the error it raised."""
    try:
        return function(*args, **kwargs), None
    except Exception as exc:  # every error type is compared with the reference's
        return None, (type(exc), str(exc))


RULE_SEEDS = range(300)
FINDING_FIELDS = ("unbound_required", "multiply_bound", "type_mismatches", "illegal_traces", "dangling")


class TestRulesMatchReference:
    """Validation, views, pattern merge and block swap against the copies kept in oracles.py."""

    def test_validate(self, demo_model):
        fields, dangling = set(), set()
        for model in [demo_model, *(tangled_model(seed) for seed in RULE_SEEDS)]:
            report = validate_configuration(model)
            assert report == oracles.validate_configuration(model), model.id
            assert report.findings() == oracles.findings(report), model.id
            assert report.is_valid == oracles.is_valid(report), model.id
            fields.update(name for name in FINDING_FIELDS if getattr(report, name))
            dangling.update(finding.split(" '")[0] for finding in report.dangling)
        assert fields == set(FINDING_FIELDS)
        assert dangling == {"connection endpoint block", "connection endpoint port", "trace endpoint block"}

    def test_views_of_every_viewpoint(self, demo_model):
        for model in [demo_model, *(tangled_model(seed) for seed in RULE_SEEDS[:100])]:
            for subject, aspect in product(ConcernLayer, Aspect):
                viewpoint = Viewpoint(subject, aspect)
                expected = outcome(oracles.extract_view, model, viewpoint)
                assert outcome(extract_view, model, viewpoint) == expected, (model.id, viewpoint)

    def test_apply_pattern(self):
        errors = set()
        for seed in RULE_SEEDS:
            model, pattern, bindings, force_theirs = pattern_case(seed)
            args = (model, pattern, bindings)
            got = outcome(apply_pattern, *args, force_theirs=force_theirs)
            assert got == outcome(oracles.apply_pattern, *args, force_theirs=force_theirs), seed
            errors.add(got[1] and got[1][0])
        assert errors == {None, ValueError, AnchorUnbound, AnchorKindMismatch, MergeConflict}

    def test_swaps(self):
        errors = set()
        for seed in RULE_SEEDS:
            model, repo, slot = swap_case(seed)
            pairs, error = outcome(oracles.enumerate_alternatives_with_slots, model, repo, slot)
            assert outcome(enumerate_alternatives_with_slots, model, repo, slot) == (pairs, error), seed
            blocks, block_error = outcome(replacement_blocks, model, repo, slot)
            assert block_error == error, seed
            assert [(block.id, block) for block in blocks or ()] == [(i, m.blocks[i]) for i, m in pairs or ()], seed
            errors.add(error and error[0])
        assert errors == {None, DuplicateId}


# A pattern with several endpoints that are neither blocks nor anchors, built in
# a fresh interpreter so that set iteration order follows PYTHONHASHSEED.
BAD_ENDPOINTS = """
from refmodel.composition import Pattern
from refmodel.core import Connection, PortRef, TraceKind, TraceLink

ghosts = [f"ghost{i}" for i in range(6)]
kinds = [TraceKind.PERFORMS, TraceKind.EXHIBITS, TraceKind.MAPS_TO]
connections = [Connection(PortRef(g, "out"), PortRef(h, "in")) for g, h in zip(ghosts[::-1], ghosts)]
traces = [TraceLink(kinds[i % 3], g, h) for i, (g, h) in enumerate(zip(ghosts, ghosts[::-1]))]
for links in ({"connections": connections, "traces": traces}, {"traces": traces}):
    try:
        Pattern("p", **links)
    except ValueError as exc:
        print(exc)
"""


@pytest.mark.parametrize("hash_seed", ["0", "1", "2", "3"])
def test_bad_pattern_endpoint_does_not_depend_on_hash_seed(hash_seed):
    """The first bad endpoint in connection order, then trace order, is named.

    When the check walked the sets in iteration order, these four hash seeds
    named ghost2/ghost3, ghost3/ghost5, ghost1/ghost1 and ghost5/ghost4.
    """
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(Path(refmodel.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", BAD_ENDPOINTS], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert proc.stdout.splitlines() == [
        "pattern 'p': connection endpoint 'ghost0' is neither a pattern block nor an anchor",
        "pattern 'p': trace endpoint 'ghost1' is neither a pattern block nor an anchor",
    ]


class TestDeepChain:
    """A 3000-long performs chain: deeper than the interpreter's recursion limit."""

    LENGTH = 3000

    def test_trace_coverage_and_dot(self):
        model = performs_chain_model(self.LENGTH)
        chain = ("cap", *(f"a{i:04d}" for i in range(self.LENGTH)), "svc", "res")
        report = capability_coverage(model)
        assert report.entries[0].status is CoverageStatus.COVERED
        assert report.entries[0].witnesses == (chain,)
        down = trace(model, "cap", TraceDirection.DOWN)
        assert down.node_ids() == list(chain)
        assert trace(model, "res", TraceDirection.UP).node_ids() == list(reversed(chain))
        dot = export_dot(down).splitlines()
        assert len(dot) == 2 + len(chain) + len(chain) - 1
        assert dot[-2] == '  "svc" -> "res" [label="implements"];'

    def test_equality_hash_and_repr(self):
        model = performs_chain_model(self.LENGTH)
        first = trace(model, "cap", TraceDirection.DOWN)
        second = trace(model, "cap", TraceDirection.DOWN)
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)
        assert repr(first) == repr(second)
        assert repr(first).startswith("TraceNode(((0, 'cap', None), (1, 'a0000', ")
        assert first != trace(model, "res", TraceDirection.UP)
        assert first != trace(performs_chain_model(self.LENGTH - 1), "cap", TraceDirection.DOWN)


class TestViewpoints:
    def test_strategic_behavior_invalid(self):
        viewpoint = Viewpoint(ConcernLayer.STRATEGIC, Aspect.BEHAVIOR)
        assert not viewpoint_valid(viewpoint)
        with pytest.raises(InvalidViewpoint):
            extract_view(Model(id="m"), viewpoint)

    def test_other_fifteen_combinations_valid(self, demo_model):
        count = 0
        for subject in ConcernLayer:
            for aspect in Aspect:
                if subject is ConcernLayer.STRATEGIC and aspect is Aspect.BEHAVIOR:
                    continue
                view = extract_view(demo_model, Viewpoint(subject, aspect))
                assert set(view.elements) <= set(demo_model.blocks)
                count += 1
        assert count == 15

    def test_service_structure_view(self, demo_model):
        view = extract_view(demo_model, Viewpoint(ConcernLayer.SERVICE, Aspect.STRUCTURE))
        assert view.elements == (
            "svc.green_area_mobility",
            "svc.mowing",
            "svc.object_recognition",
            "svc.smart_mowing",
        )
        assert len(view.connections) == 3
        for conn in view.connections:
            assert conn.source.block in view.elements
            assert conn.target.block in view.elements

    def test_parameters_aspect_selects_parameter_carriers(self, demo_model):
        view = extract_view(demo_model, Viewpoint(ConcernLayer.RESOURCE, Aspect.PARAMETERS))
        assert set(view.elements) == {
            "alg.edge_follow",
            "res.battery",
            "res.mowing_robot",
            "res.propulsion",
        }

    def test_behavior_aspect_selects_performs(self, demo_model):
        view = extract_view(demo_model, Viewpoint(ConcernLayer.OPERATIONAL, Aspect.BEHAVIOR))
        assert all(link.kind is TraceKind.PERFORMS for link in view.traces)
        assert len(view.traces) == 3

    def test_empty_model_view_is_empty(self):
        view = extract_view(Model(id="m"), Viewpoint(ConcernLayer.SERVICE, Aspect.STRUCTURE))
        assert view.elements == ()
        assert view.connections == ()


class TestExportDot:
    def test_singleton_view(self):
        model = add_block(
            Model(id="m"),
            BuildingBlock("svc.x", "X", ConcernLayer.SERVICE, BlockKind.SERVICE),
        )
        dot = export_dot(extract_view(model, Viewpoint(ConcernLayer.SERVICE, Aspect.STRUCTURE)))
        assert dot.startswith("digraph view {")
        assert dot.count('"svc.x"') == 1
        assert "->" not in dot

    def test_demo_service_structure_has_four_nodes(self, demo_model):
        view = extract_view(demo_model, Viewpoint(ConcernLayer.SERVICE, Aspect.STRUCTURE))
        dot = export_dot(view)
        node_lines = [line for line in dot.splitlines() if line.endswith('";')]
        edge_lines = [line for line in dot.splitlines() if '" -> "' in line]
        assert len(node_lines) == 4
        assert len(edge_lines) == 3

    def test_empty_view_has_no_nodes(self):
        dot = export_dot(extract_view(Model(id="m"), Viewpoint(ConcernLayer.SERVICE, Aspect.STRUCTURE)))
        assert dot == "digraph view {\n}\n"

    def test_trace_tree_export(self, demo_model):
        tree = trace(demo_model, "cap.mowing", TraceDirection.DOWN)
        dot = export_dot(tree)
        assert dot.startswith("digraph trace {")
        assert '"cap.mowing" -> "res.mowing_robot" [label="exhibits"];' in dot

    @pytest.mark.parametrize(
        "block_id, quoted", [('a"b', '"a\\"b"'), ("a\\b", '"a\\\\b"'), ('\\"', '"\\\\\\""')]
    )
    def test_ids_are_escaped(self, block_id, quoted):
        model = add_block(
            add_block(
                Model(id="m"),
                BuildingBlock(block_id, "Odd", ConcernLayer.RESOURCE, BlockKind.FUNCTION),
            ),
            BuildingBlock("r", "Plain", ConcernLayer.RESOURCE, BlockKind.FUNCTION),
        )
        model = add_trace(model, TraceLink(TraceKind.PERFORMS, block_id, "r"))
        view = extract_view(model, Viewpoint(ConcernLayer.RESOURCE, Aspect.BEHAVIOR))
        assert export_dot(view).splitlines()[1:4] == [
            f"  {quoted};",
            '  "r";',
            f'  {quoted} -> "r" [label="performs", style=dashed];',
        ]
        tree = trace(model, "r", TraceDirection.DOWN)
        assert export_dot(tree).splitlines()[1:4] == [
            '  "r";',
            f"  {quoted};",
            f'  "r" -> {quoted} [label="performs"];',
        ]

    def test_deterministic(self, demo_model):
        view = extract_view(demo_model, Viewpoint(ConcernLayer.SERVICE, Aspect.STRUCTURE))
        assert export_dot(view) == export_dot(view)
