import copy
import dataclasses
import enum
import inspect
import pickle
from collections.abc import Mapping, Set as AbstractSet

import pytest
from hypothesis import given, strategies as st

from refmodel import composition, core, demo, evaluator, repository, simulation, terrain
from refmodel.composition import PatternAnchor, extract_view
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
from refmodel.evaluator import EnsembleSpec, compare, ensemble, rank_configurations
from refmodel.repository import ReferenceRepository, save, save_model
from refmodel.terrain import GenParams, load_map


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


SVC = ConcernLayer.SERVICE


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
            (lambda: Port(3, PortDirection.PROVIDED, "t", SVC), "Port.id must be str, not int"),
            (lambda: Port("p", "provided", "t", SVC), "Port.direction must be PortDirection, not str"),
            (lambda: Port("p", PortDirection.PROVIDED, None, SVC), "Port.interface_type must be str, not NoneType"),
            (lambda: Port("p", PortDirection.PROVIDED, "t", "service"), "Port.layer must be ConcernLayer, not str"),
            (lambda: BuildingBlock(3, "s", SVC, BlockKind.SERVICE), "BuildingBlock.id must be str, not int"),
            (lambda: BuildingBlock("s", 3, SVC, BlockKind.SERVICE), "BuildingBlock.name must be str, not int"),
            (lambda: BuildingBlock("s", "s", "x", "y"), "BuildingBlock.layer must be ConcernLayer, not str"),
            (lambda: BuildingBlock("s", "s", SVC, "y"), "BuildingBlock.kind must be BlockKind, not str"),
            (
                lambda: BuildingBlock("s", "s", SVC, BlockKind.SERVICE, origin="adopted"),
                "BuildingBlock.origin must be Origin, not str",
            ),
            (lambda: PatternAnchor(3, "x", "y"), "PatternAnchor.id must be str, not int"),
            (lambda: PatternAnchor("a", "x", BlockKind.SERVICE), "PatternAnchor.layer must be ConcernLayer, not str"),
            (lambda: PatternAnchor("a", SVC, "service"), "PatternAnchor.kind must be BlockKind, not str"),
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
        port = Port("p", PortDirection.REQUIRED, "t", SVC)
        assert BuildingBlock("s", "", SVC, BlockKind.SERVICE, (port,), origin=Origin.ADAPTED).ports == (port,)
        assert PatternAnchor("a", SVC, BlockKind.SERVICE).kind is BlockKind.SERVICE


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


# The record classes that keep the methods dataclass(frozen=True) generates, which are faster per call than the
# shared ones: a compose_fleet round of the benchmark hashes them 132 500 times.
GENERATED = ("PortRef", "Connection", "TraceLink")
METHODS = ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__")


def record_classes() -> dict[str, type]:
    """Every dataclass defined in a refmodel module, by name."""
    modules = (core, composition, repository, terrain, simulation, evaluator)
    return {
        name: value
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, type) and dataclasses.is_dataclass(value) and value.__module__ == module.__name__
    }


def test_records_share_written_methods_instead_of_generated_source():
    records = record_classes()
    assert len(records) == 27
    for name, cls in records.items():
        # dataclass compiles the source it writes under the file name "<string>".
        codes = [getattr(inspect.unwrap(getattr(cls, method)), "__code__", None) for method in METHODS]
        generated = [method for method, code in zip(METHODS, codes) if code and code.co_filename == "<string>"]
        assert generated == (list(METHODS) if name in GENERATED else []), name


def demo_records() -> dict[str, object]:
    """One instance of each record class, found in the demo repository and model and one run of each evaluator."""
    repo = demo.build_demo_repository()
    model = demo.build_demo_model(repo)
    tmap = load_map(demo.REFERENCE_MAP_TEXT)
    assert tmap.moves  # kept in the map's __dict__, which == and hash must not read
    spec = EnsembleSpec(GenParams(width=6, height=5), 2, seed0=1)
    views = [extract_view(model, a.viewpoint) for a in repo.sorted_assets() if isinstance(a, repository.ViewpointAsset)]
    roots = [
        repo, model, tmap, spec, compare(tmap), ensemble(spec.gen, spec.n_maps, seed0=spec.seed0),
        composition.validate_configuration(model), composition.capability_coverage(model),
        composition.trace(model, "cap.mowing", composition.TraceDirection.DOWN),
        *rank_configurations(model, repo, "alg.edge_follow", tmap), *views,
    ]  # fmt: skip
    found, stack = {}, roots
    while stack:
        value = stack.pop()
        if dataclasses.is_dataclass(value):
            found.setdefault(type(value).__name__, value)
            stack.extend(getattr(value, f.name) for f in dataclasses.fields(value))
        elif isinstance(value, Mapping):
            stack.extend(value.values())
        elif isinstance(value, (tuple, list, AbstractSet)):
            stack.extend(value)
    return found


def generated_twin(cls: type) -> type:
    """A dataclass(frozen=True) with the fields of cls, and the methods cls defines itself that it needs."""
    own = {
        name: value
        for name, value in vars(cls).items()
        if inspect.isfunction(value) and value.__code__.co_filename == inspect.getfile(cls)
        and value is not vars(core._Shared).get(name) and name != "__post_init__"
    }  # fmt: skip
    specs = [
        (f.name, f.type, dataclasses.field(default=f.default, default_factory=f.default_factory, init=f.init,
                                           repr=f.repr, compare=f.compare))
        for f in dataclasses.fields(cls)
    ]  # fmt: skip
    return dataclasses.make_dataclass(cls.__name__, specs, namespace=own, frozen=True)


def test_records_behave_as_frozen_dataclasses():
    records = demo_records()
    assert sorted(records) == sorted(record_classes())
    for name, obj in records.items():
        cls = type(obj)
        twin_cls = generated_twin(cls)
        values = {f.name: getattr(obj, f.name) for f in dataclasses.fields(cls) if f.init}
        twin = twin_cls(**values)
        assert repr(obj) == repr(twin), name
        assert [f.name for f in dataclasses.fields(obj)] == list(cls.__annotations__), name
        # == needs the same class and equal compared fields; hash agrees with the twin's, or both refuse.
        same = cls(**values)
        assert obj == same and not obj != same, name
        assert obj.__eq__(twin) is NotImplemented, name
        try:
            expected = hash(twin)
        except TypeError:
            with pytest.raises(TypeError):
                hash(obj)
        else:
            assert hash(obj) == expected == hash(same), name
        # Assignment and deletion raise as the twin's do, for a field or any other name.
        for attribute in (dataclasses.fields(cls)[0].name, "other"):
            for change in (lambda o: setattr(o, attribute, None), lambda o: delattr(o, attribute)):
                with pytest.raises(dataclasses.FrozenInstanceError) as caught:
                    change(obj)
                with pytest.raises(dataclasses.FrozenInstanceError) as expected_error:
                    change(twin)
                assert str(caught.value) == str(expected_error.value), name
        compared = [f.name for f in dataclasses.fields(cls) if f.compare]
        mine, theirs = ({key: d[key] for key in compared} for d in map(dataclasses.asdict, (obj, twin)))
        assert mine == theirs, name
        assert dataclasses.replace(obj) == obj, name
        for copied in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert type(copied) is cls and copied == obj and copied.__dict__.keys() == obj.__dict__.keys(), name


def test_replace_runs_the_records_checks():
    records = demo_records()
    with pytest.raises(ValueError, match="port id must be non-empty"):
        dataclasses.replace(records["Port"], id="")
    with pytest.raises(TypeError, match="BuildingBlock.name must be str, not int"):
        dataclasses.replace(records["BuildingBlock"], name=3)
    with pytest.raises(ValueError, match="at least one map"):
        dataclasses.replace(records["EnsembleSpec"], n_maps=0)
    block = records["BuildingBlock"]
    assert dataclasses.replace(block, ports=tuple(reversed(block.ports))).ports == block.ports  # sorted again
    # Model's derived values take their default, init=False, and a new version starts with none.
    model = records["Model"]
    assert dataclasses.replace(model)._derived == {} and dataclasses.replace(model)._derived is not model._derived


@pytest.mark.parametrize(
    "build",
    [
        lambda: Port("p", PortDirection.PROVIDED, "t"),
        lambda: Port("p", PortDirection.PROVIDED, "t", SVC, "extra"),
        lambda: Port("p", PortDirection.PROVIDED, "t", layer=SVC, colour="red"),
        lambda: Port("p", PortDirection.PROVIDED, "t", SVC, id="q"),
        lambda: Model("m", _derived={}),
        lambda: BuildingBlock(id="s", name="s", layer=SVC),
    ],
    ids=["missing", "too_many", "unknown_keyword", "repeated", "init_false", "missing_keyword"],
)
def test_a_wrong_argument_raises_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_defaults_and_factories_are_filled():
    block = BuildingBlock("s", "S", SVC, BlockKind.SERVICE)
    assert (block.ports, block.parameters, block.origin) == ((), {}, Origin.REFERENCE_ASSET)
    assert BuildingBlock("t", "T", SVC, BlockKind.SERVICE).parameters is not block.parameters
    model = Model("m")
    assert (len(model.blocks), len(model.connections), model._derived) == (0, 0, {})
    assert Model("m")._derived is not model._derived
