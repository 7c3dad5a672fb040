import copy
import enum
import pickle

import pytest
from hypothesis import given, strategies as st

from refmodel import demo
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
    add_block,
    add_trace,
    layer_for_kind,
    port_compatible,
    trace_pair_permitted,
)
from refmodel.errors import DuplicateId, IllegalTraceKind, UnknownElement
from refmodel.repository import ReferenceRepository, save, save_model


def block(block_id, kind, **kwargs):
    return BuildingBlock(
        id=block_id, name=block_id, layer=layer_for_kind(kind), kind=kind, **kwargs
    )


def port(port_id, direction, interface, layer=ConcernLayer.SERVICE):
    return Port(id=port_id, direction=direction, interface_type=interface, layer=layer)


class TestBuildingBlock:
    def test_kind_layer_consistency_enforced(self):
        with pytest.raises(ValueError):
            BuildingBlock("x", "x", ConcernLayer.SERVICE, BlockKind.CAPABILITY)

    def test_every_kind_has_exactly_one_layer(self):
        assert {layer_for_kind(kind) for kind in BlockKind} == set(ConcernLayer)

    def test_duplicate_port_ids_rejected(self):
        ports = (
            port("p", PortDirection.PROVIDED, "A"),
            port("p", PortDirection.REQUIRED, "B"),
        )
        with pytest.raises(ValueError, match="duplicate port id"):
            block("svc", BlockKind.SERVICE, ports=ports)

    def test_port_layer_must_match_block_layer(self):
        foreign = port("p", PortDirection.PROVIDED, "A", layer=ConcernLayer.RESOURCE)
        with pytest.raises(ValueError, match="layer"):
            block("svc", BlockKind.SERVICE, ports=(foreign,))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameter_rejected(self, value):
        with pytest.raises(ValueError, match="parameter 'capacity' must be finite"):
            block("svc", BlockKind.SERVICE, parameters={"capacity": value})

    @pytest.mark.parametrize(
        "parameters, named",
        [({"a": [1]}, "parameter 'a'"), ({2: "x"}, "parameter key 2"), ({2: "x", "a": 1}, "parameter key 2")],
    )
    def test_non_scalar_parameter_rejected(self, parameters, named):
        with pytest.raises(ValueError, match=f"block 'svc': {named}"):
            block("svc", BlockKind.SERVICE, parameters=parameters)

    def test_empty_interface_type_rejected(self):
        with pytest.raises(ValueError):
            port("p", PortDirection.PROVIDED, "")


class TestAddBlock:
    def test_add_capability_to_empty_model(self):
        model = add_block(Model(id="m"), block("cap.mowing", BlockKind.CAPABILITY))
        assert len(model.blocks) == 1
        assert model.block("cap.mowing").kind is BlockKind.CAPABILITY

    def test_duplicate_id_rejected(self):
        model = add_block(Model(id="m"), block("cap.mowing", BlockKind.CAPABILITY))
        with pytest.raises(DuplicateId):
            add_block(model, block("cap.mowing", BlockKind.CAPABILITY))

    def test_count_grows_by_one(self):
        model = Model(id="m")
        for i in range(5):
            before = len(model.blocks)
            model = add_block(model, block(f"b{i}", BlockKind.SERVICE))
            assert len(model.blocks) == before + 1

    def test_lookup_returns_equal_block(self):
        original = block(
            "svc", BlockKind.SERVICE, ports=(port("p", PortDirection.PROVIDED, "A"),),
            parameters={"rate": 2.5},
        )
        model = add_block(Model(id="m"), original)
        assert model.block("svc") == original

    def test_original_model_unchanged(self):
        empty = Model(id="m")
        add_block(empty, block("b", BlockKind.SERVICE))
        assert len(empty.blocks) == 0


class TestPortCompatible:
    def test_matching_tokens(self):
        provided = port("a", PortDirection.PROVIDED, "MowingService")
        required = port("b", PortDirection.REQUIRED, "MowingService")
        assert port_compatible(provided, required)

    def test_token_mismatch(self):
        provided = port("a", PortDirection.PROVIDED, "MowingService")
        required = port("b", PortDirection.REQUIRED, "ObjectRecognition")
        assert not port_compatible(provided, required)

    def test_direction_mismatch(self):
        first = port("a", PortDirection.REQUIRED, "X")
        second = port("b", PortDirection.REQUIRED, "X")
        assert not port_compatible(first, second)

    @given(st.text(min_size=1, max_size=8), st.text(min_size=1, max_size=8))
    def test_compatible_implies_equal_tokens(self, token_a, token_b):
        provided = port("a", PortDirection.PROVIDED, token_a)
        required = port("b", PortDirection.REQUIRED, token_b)
        if port_compatible(provided, required):
            assert provided.interface_type == required.interface_type
        else:
            assert token_a != token_b


class TestAddTrace:
    @pytest.fixture()
    def model(self):
        model = Model(id="m")
        for block_id, kind in [
            ("cap", BlockKind.CAPABILITY),
            ("cap2", BlockKind.CAPABILITY),
            ("performer", BlockKind.OPERATIONAL_PERFORMER),
            ("activity", BlockKind.OPERATIONAL_ACTIVITY),
            ("robot", BlockKind.RESOURCE_CONFIGURATION),
        ]:
            model = add_block(model, block(block_id, kind))
        return model

    def test_resource_exhibits_capability(self, model):
        updated = add_trace(model, TraceLink(TraceKind.EXHIBITS, "robot", "cap"))
        assert TraceLink(TraceKind.EXHIBITS, "robot", "cap") in updated.traces

    def test_performer_performs_activity(self, model):
        updated = add_trace(model, TraceLink(TraceKind.PERFORMS, "performer", "activity"))
        assert len(updated.traces) == 1

    def test_capability_to_capability_exhibits_rejected(self, model):
        with pytest.raises(IllegalTraceKind):
            add_trace(model, TraceLink(TraceKind.EXHIBITS, "cap", "cap2"))

    def test_unknown_endpoint_rejected(self, model):
        with pytest.raises(UnknownElement):
            add_trace(model, TraceLink(TraceKind.EXHIBITS, "ghost", "cap"))

    def test_accepted_links_are_all_permitted(self, model):
        model = add_trace(model, TraceLink(TraceKind.EXHIBITS, "robot", "cap"))
        model = add_trace(model, TraceLink(TraceKind.PERFORMS, "performer", "activity"))
        for link in model.traces:
            source = model.block(link.source)
            target = model.block(link.target)
            assert trace_pair_permitted(source.layer, target.layer, link.kind)


def test_model_rejects_mismatched_block_key():
    with pytest.raises(ValueError):
        Model(id="m", blocks={"wrong": block("right", BlockKind.SERVICE)})


def test_block_asset_origin_values():
    assert {o.value for o in Origin} == {"reference_asset", "adopted", "adapted", "extended"}


class TestFieldTypes:
    """A field that a document must hold as a string, token or integer is checked when the value is built."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Model(id=3), "Model.id must be str, not int"),
            (lambda: Model(id=None), "Model.id must be str, not NoneType"),
            (lambda: PortRef(1, "p"), "PortRef.block must be str, not int"),
            (lambda: PortRef("b", b"p"), "PortRef.port must be str, not bytes"),
            (lambda: TraceLink("exhibits", "a", "b"), "TraceLink.kind must be TraceKind, not str"),
            (lambda: TraceLink(BlockKind.SERVICE, "a", "b"), "TraceLink.kind must be TraceKind, not BlockKind"),
            (lambda: TraceLink(TraceKind.EXHIBITS, ("a",), "b"), "TraceLink.source must be str, not tuple"),
            (lambda: TraceLink(TraceKind.EXHIBITS, "a", 2.0), "TraceLink.target must be str, not float"),
            (lambda: Connection(("b", "p"), PortRef("c", "q")), "Connection.source must be PortRef, not tuple"),
            (lambda: Connection(PortRef("b", "p"), "c:q"), "Connection.target must be PortRef, not str"),
            (lambda: ReferenceRepository(version=True), "ReferenceRepository.version must be int, not bool"),
            (lambda: ReferenceRepository(version=1.0), "ReferenceRepository.version must be int, not float"),
            (lambda: ReferenceRepository(version="1"), "ReferenceRepository.version must be int, not str"),
        ],
    )
    def test_wrong_type_rejected_naming_the_field(self, build, message):
        with pytest.raises(TypeError) as caught:
            build()
        assert str(caught.value) == message

    def test_values_of_the_right_types_are_accepted(self):
        ref = PortRef("b", "p")
        assert Connection(ref, ref).target is ref
        assert TraceLink(TraceKind.MAPS_TO, "s", "c").kind is TraceKind.MAPS_TO
        assert Model(id="").id == ""
        assert ReferenceRepository(version=-(10**30)).version == -(10**30)


def test_core_enums_hash_by_identity(monkeypatch):
    """Building and saving the demo hashes no core enum member through the Python-level Enum.__hash__."""
    hashed = []
    enum_hash = enum.Enum.__hash__

    def counting_hash(member):
        hashed.append(member)
        return enum_hash(member)

    monkeypatch.setattr(enum.Enum, "__hash__", counting_hash)
    repo = demo.build_demo_repository()
    save(repo)
    save_model(demo.build_demo_model(repo))
    assert hashed == []
    # Hashing by identity keeps a member's entries: pickle and deepcopy give the member itself back.
    for cls in (ConcernLayer, Aspect, PortDirection, BlockKind, Origin, TraceKind):
        table, members = {member: member.value for member in cls}, frozenset(cls)
        for member in cls:
            for same in (pickle.loads(pickle.dumps(member)), copy.deepcopy(member)):
                assert same is member and hash(same) == hash(member)
                assert table[same] == member.value and same in members
