import json
import sys
from dataclasses import replace

import oracles
import pytest
from hypothesis import given, settings, strategies as st

from genmodels import dense_trace_model, random_model, random_repository
from refmodel import demo
from refmodel.composition import Pattern, Viewpoint
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
from refmodel.errors import (
    DuplicateId,
    DuplicatePortId,
    IllegalOverride,
    ParseError,
    SchemaVersionMismatch,
    UnknownAsset,
    WrongAssetKind,
)
from refmodel.repository import (
    BlockAsset,
    PatternAsset,
    ReferenceRepository,
    ViewpointAsset,
    adapt,
    add_asset,
    adopt,
    extend,
    list_assets,
    load,
    load_asset,
    load_model,
    save,
    save_model,
)
from refmodel.terrain import load_map


def make_block(block_id="svc.mowing", kind=BlockKind.SERVICE, **kwargs):
    from refmodel.core import layer_for_kind

    return BuildingBlock(
        id=block_id, name="Mowing Service", layer=layer_for_kind(kind), kind=kind, **kwargs
    )


class TestAddAsset:
    def test_empty_plus_block_asset(self):
        repo = add_asset(ReferenceRepository(), BlockAsset(make_block()))
        assert len(repo.assets) == 1
        assert repo.version == 1

    def test_duplicate_id(self):
        repo = add_asset(ReferenceRepository(), BlockAsset(make_block()))
        with pytest.raises(DuplicateId):
            add_asset(repo, BlockAsset(make_block()))

    def test_length_grows(self):
        repo = ReferenceRepository()
        for i in range(4):
            repo = add_asset(repo, BlockAsset(make_block(f"b{i}")))
            assert len(list_assets(repo)) == i + 1
            assert repo.version == i + 1

    def test_block_asset_requires_reference_origin(self):
        adopted = make_block(origin=Origin.ADOPTED)
        with pytest.raises(ValueError):
            BlockAsset(adopted)


class TestListAssets:
    def test_layer_filter_selects_capabilities_only(self, demo_repo):
        ids = list_assets(demo_repo, layer=ConcernLayer.STRATEGIC)
        assert ids == ["cap.mobility", "cap.mowing", "cap.recognition"]

    def test_no_filter_returns_all_sorted(self, demo_repo):
        ids = list_assets(demo_repo)
        assert ids == sorted(ids)
        assert len(ids) == len(demo_repo.assets)

    def test_filter_matching_nothing(self, demo_repo):
        assert list_assets(demo_repo, layer=ConcernLayer.STRATEGIC, kind=BlockKind.SERVICE) == []


class TestAdopt:
    def test_adopt_copies_verbatim_with_adopted_origin(self, demo_repo):
        model = adopt(demo_repo, "cap.mowing", Model(id="m"))
        copied = model.block("cap.mowing")
        source = demo_repo.asset("cap.mowing").block
        assert copied.origin is Origin.ADOPTED
        assert copied == replace(source, origin=Origin.ADOPTED)

    def test_unknown_asset(self, demo_repo):
        with pytest.raises(UnknownAsset):
            adopt(demo_repo, "nope", Model(id="m"))

    def test_adopt_twice_duplicate(self, demo_repo):
        model = adopt(demo_repo, "cap.mowing", Model(id="m"))
        with pytest.raises(DuplicateId):
            adopt(demo_repo, "cap.mowing", model)

    def test_wrong_asset_kind(self, demo_repo):
        with pytest.raises(WrongAssetKind):
            adopt(demo_repo, "pat.smart_mowing_services", Model(id="m"))

    def test_repository_asset_not_mutated(self, demo_repo):
        before = demo_repo.asset("cap.mowing").block
        adopt(demo_repo, "cap.mowing", Model(id="m"))
        assert demo_repo.asset("cap.mowing").block == before
        assert before.origin is Origin.REFERENCE_ASSET


# Block parameters a JSON object of scalars cannot hold, with how the error names the key.
NON_SCALAR_PARAMETERS = [
    ({"a": [1]}, "parameter 'a'"),
    ({2: "x"}, "parameter key 2"),
    ({2: "x", "a": 1}, "parameter key 2"),
]


class TestAdapt:
    def test_rename(self, demo_repo):
        model = adapt(demo_repo, "svc.mowing", {"name": "smart mowing service"}, Model(id="m"))
        adapted = model.block("svc.mowing")
        assert adapted.name == "smart mowing service"
        assert adapted.origin is Origin.ADAPTED

    def test_empty_overrides_equal_adopt_except_origin(self, demo_repo):
        adopted = adopt(demo_repo, "svc.mowing", Model(id="a")).block("svc.mowing")
        adapted = adapt(demo_repo, "svc.mowing", {}, Model(id="b")).block("svc.mowing")
        assert adapted == replace(adopted, origin=Origin.ADAPTED)

    def test_layer_change_is_illegal(self, demo_repo):
        with pytest.raises(IllegalOverride):
            adapt(demo_repo, "cap.mowing", {"layer": ConcernLayer.SERVICE}, Model(id="m"))

    def test_kind_change_is_illegal(self, demo_repo):
        with pytest.raises(IllegalOverride):
            adapt(demo_repo, "cap.mowing", {"kind": BlockKind.SERVICE}, Model(id="m"))

    def test_parameter_overrides_merge(self, demo_repo):
        model = adapt(
            demo_repo, "res.battery", {"parameters": {"capacity": 80.0, "chemistry": "LiFePO4"}},
            Model(id="m"),
        )
        parameters = model.block("res.battery").parameters
        assert parameters["capacity"] == 80.0
        assert parameters["chemistry"] == "LiFePO4"

    def test_port_retype(self, demo_repo):
        model = adapt(
            demo_repo, "svc.mowing", {"port_types": {"out": "PremiumMowing"}}, Model(id="m")
        )
        assert model.block("svc.mowing").find_port("out").interface_type == "PremiumMowing"

    @pytest.mark.parametrize("parameters, named", NON_SCALAR_PARAMETERS)
    def test_non_scalar_parameter_rejected(self, demo_repo, parameters, named):
        with pytest.raises(ValueError, match=f"block 'res.battery': {named}"):
            adapt(demo_repo, "res.battery", {"parameters": parameters}, Model(id="m"))


class TestExtend:
    def test_extend_adds_port(self, demo_repo):
        source = demo_repo.asset("res.mowing_robot").block
        extra = Port(
            "terrainProfileIn", PortDirection.REQUIRED, "TerrainProfile", ConcernLayer.RESOURCE
        )
        model = extend(demo_repo, "res.mowing_robot", [extra], {}, Model(id="m"))
        extended = model.block("res.mowing_robot")
        assert len(extended.ports) == len(source.ports) + 1
        assert extended.find_port("terrainProfileIn") == extra
        assert extended.ports[: len(source.ports)] == source.ports
        assert extended.origin is Origin.EXTENDED

    def test_empty_extension_equals_adopt_except_origin(self, demo_repo):
        adopted = adopt(demo_repo, "res.camera", Model(id="a")).block("res.camera")
        extended = extend(demo_repo, "res.camera", [], {}, Model(id="b")).block("res.camera")
        assert extended == replace(adopted, origin=Origin.EXTENDED)

    def test_port_sorting_first_round_trips(self, demo_repo):
        """A port whose id sorts before the existing ones survives save and load unchanged."""
        extra = Port("aaa", PortDirection.PROVIDED, "Extra", ConcernLayer.RESOURCE)
        model = extend(demo_repo, "res.camera", [extra], {}, Model(id="m"))
        assert [p.id for p in model.block("res.camera").ports] == ["aaa", "out"]
        assert load_model(save_model(model)) == model

    def test_clashing_port_id(self, demo_repo):
        clash = Port("out", PortDirection.PROVIDED, "Other", ConcernLayer.RESOURCE)
        with pytest.raises(DuplicatePortId):
            extend(demo_repo, "res.camera", [clash], {}, Model(id="m"))

    def test_clashing_parameter_rejected(self, demo_repo):
        with pytest.raises(IllegalOverride):
            extend(demo_repo, "res.battery", [], {"capacity": 1.0}, Model(id="m"))

    @pytest.mark.parametrize("parameters, named", NON_SCALAR_PARAMETERS)
    def test_non_scalar_parameter_rejected(self, demo_repo, parameters, named):
        with pytest.raises(ValueError, match=f"block 'res.battery': {named}"):
            extend(demo_repo, "res.battery", [], parameters, Model(id="m"))


class TestPersistence:
    def test_demo_repo_round_trip_is_equal(self, demo_repo):
        assert load(save(demo_repo)) == demo_repo

    def test_demo_model_round_trip_is_equal(self, demo_model):
        assert load_model(save_model(demo_model)) == demo_model

    def test_pattern_built_out_of_id_order_round_trips(self):
        pattern = demo.services_pattern()
        reversed_pattern = Pattern(
            pattern.id,
            tuple(reversed(pattern.blocks)),
            pattern.connections,
            pattern.traces,
            tuple(reversed(pattern.anchors)),
        )
        assert reversed_pattern == pattern
        repo = add_asset(ReferenceRepository(), PatternAsset(reversed_pattern))
        assert load(save(repo)) == repo
        (document,) = json.loads(save(repo))["assets"]
        assert load_asset(json.dumps(document)) == PatternAsset(reversed_pattern)

    def test_repeated_anchor_in_a_pattern_document(self):
        repo = add_asset(ReferenceRepository(), PatternAsset(demo.services_pattern()))
        (document,) = json.loads(save(repo))["assets"]
        anchors = document["pattern"]["anchors"]
        anchors.insert(0, anchors[0])
        with pytest.raises(ParseError, match=f"duplicate anchor id '{anchors[0]['id']}'$"):
            load_asset(json.dumps(document))

    def test_version_survives_round_trip(self, demo_repo):
        assert load(save(demo_repo)).version == demo_repo.version

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_generated_round_trip_canonical(self, seed):
        repo = random_repository(seed)
        text = save(repo)
        again = load(text)
        assert save(again) == text
        assert again.version == repo.version
        assert sorted(again.assets) == sorted(repo.assets)

    def test_truncated_document(self, demo_repo):
        text = save(demo_repo)
        with pytest.raises(ParseError, match="line"):
            load(text[: len(text) // 2])

    def test_unknown_kind_token_named(self):
        text = save(add_asset(ReferenceRepository(), BlockAsset(make_block())))
        broken = text.replace('"service"', '"frobnicator"', 1)
        with pytest.raises(ParseError, match="frobnicator"):
            load(broken)

    def test_schema_version_mismatch(self, demo_repo):
        text = save(demo_repo).replace('"schema_version": 1', '"schema_version": 99')
        with pytest.raises(SchemaVersionMismatch):
            load(text)

    @pytest.mark.parametrize("found, shown", [("true", "True"), ("1.0", "1.0")])
    def test_schema_version_equal_to_one_is_not_one(self, found, shown):
        with pytest.raises(SchemaVersionMismatch, match=f"expected 1, found {shown}$"):
            load(f'{{"schema_version": {found}, "version": 0, "assets": []}}')
        with pytest.raises(SchemaVersionMismatch, match=f"expected 1, found {shown}$"):
            load_model(f'{{"schema_version": {found}, "id": "m"}}')

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_json_constants_rejected(self, demo_model, constant):
        text = save_model(demo_model).replace('"capacity": 100.0', f'"capacity": {constant}')
        assert constant in text
        with pytest.raises(ParseError, match=f"{constant} is not a JSON number"):
            load_model(text)
        with pytest.raises(ParseError, match=f"{constant} is not a JSON number"):
            load(f'{{"schema_version": 1, "version": {constant}, "assets": []}}')
        with pytest.raises(ParseError, match=f"{constant} is not a JSON number"):
            load_asset(f'{{"asset_kind": {constant}}}')

    def test_overflowing_parameter_rejected(self, demo_model):
        text = save_model(demo_model).replace('"capacity": 100.0', '"capacity": 1e999')
        with pytest.raises(ParseError, match="parameter 'capacity' must be finite"):
            load_model(text)

    def test_unexpected_field_rejected(self):
        with pytest.raises(ParseError, match="unexpected field"):
            load('{"schema_version": 1, "version": 0, "assets": [], "extra": 1}')

    def test_model_parse_error_names_field(self):
        text = (
            '{"schema_version": 1, "id": "m", "blocks": ['
            '{"id": "b", "name": "b", "layer": "strategic", "kind": "service",'
            ' "ports": [], "parameters": {}, "origin": "adopted"}],'
            ' "connections": [], "traces": []}'
        )
        with pytest.raises(ParseError, match=r"\$\.blocks\[0\]"):
            load_model(text)


# One JSON value of each type: a mutation replaces a value with each of them, which
# also gives a string field an unknown token and an object or array its defaults.
JSON_VALUES = [None, True, 7, 0.5, "zz", [], {}]


def _mutations(node):
    """Every single-point mutation of a JSON value.

    A value is replaced by each JSON type, an object key dropped or an unknown
    key added, an array entry duplicated. A mutation inside an array is tried
    with the mutated entry alone in its array and the other arrays beside it
    left out, so each parse reads little more than the mutated entry.
    """
    yield from JSON_VALUES
    if isinstance(node, dict):
        yield {**node, "zz": 1}
        without_arrays = {key: value for key, value in node.items() if not isinstance(value, list)}
        for key, value in node.items():
            yield {k: v for k, v in node.items() if k != key}
            around = without_arrays if isinstance(value, list) else node
            yield from ({**around, key: changed} for changed in _mutations(value))
    elif isinstance(node, list):
        for entry in node:
            yield [entry, entry]
            yield from ([changed] for changed in _mutations(entry))


def _outcome(load_fn, text):
    try:
        return load_fn(text)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_loads_like_reference(load_fn, reference, documents):
    for doc in documents:
        text = json.dumps(doc)
        assert _outcome(load_fn, text) == _outcome(reference, text), text


SEEDS = range(100)
# Mutating every object of all 100 seeds' documents takes minutes; every twentieth seed
# plus the demo documents already reach every record, field and JSON type.
MUTATED_SEEDS = SEEDS[::20]


class TestMatchesReference:
    """The field tables against the per-record writers and readers they replaced (tests/oracles.py)."""

    def test_saved_bytes(self, demo_repo, demo_model):
        repos = [demo_repo, *(random_repository(seed) for seed in SEEDS)]
        models = [demo_model, *(m(seed) for seed in SEEDS for m in (random_model, dense_trace_model))]
        for repo in repos:
            assert save(repo) == oracles.save(repo)
            assert json.loads(save(repo)) == oracles.repository_to_document(repo)
        for model in models:
            assert save_model(model) == oracles.save_model(model)
            assert json.loads(save_model(model)) == oracles.model_to_document(model)

    def test_mutated_repositories(self, demo_repo):
        for repo in [demo_repo, *(random_repository(seed) for seed in MUTATED_SEEDS)]:
            doc = json.loads(save(repo))
            _assert_loads_like_reference(load, oracles.load, _mutations(doc))
            for asset in doc["assets"]:
                _assert_loads_like_reference(load_asset, oracles.load_asset, _mutations(asset))

    def test_mutated_models(self, demo_model):
        models = [demo_model, *(m(seed) for seed in MUTATED_SEEDS for m in (random_model, dense_trace_model))]
        for model in models:
            _assert_loads_like_reference(load_model, oracles.load_model, _mutations(json.loads(save_model(model))))


def _format_words():
    """Every key and string value of the demo documents: the format's own vocabulary."""
    keys, strings = set(), set()
    stack = [json.loads(save(demo.build_demo_repository())), json.loads(save_model(demo.build_demo_model()))]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            keys.update(node)
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
        elif isinstance(node, str):
            strings.add(node)
    return sorted(keys), sorted(strings)


FORMAT_KEYS, FORMAT_STRINGS = _format_words()
FORMAT_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(FORMAT_STRINGS) | st.just(1),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(FORMAT_KEYS), children, max_size=8),
    max_leaves=30,
)


class TestParseFuzz:
    """Any text, and any JSON built from the format's keys and tokens, loads or raises ParseError."""

    @settings(max_examples=300, deadline=None)
    @given(st.text() | st.text(alphabet="0123X\n[]{}:,\"1 "))
    def test_arbitrary_text(self, text):
        for load_fn in (load, load_model, load_asset, load_map):
            try:
                load_fn(text)
            except ParseError:
                pass

    @settings(max_examples=200, deadline=None)
    @given(FORMAT_JSON)
    def test_format_shaped_json(self, value):
        for doc in (value, {"schema_version": 1, "blocks": value}, {"schema_version": 1, "assets": value}):
            text = json.dumps(doc)
            for load_fn in (load, load_model, load_asset):
                try:
                    load_fn(text)
                except ParseError:
                    pass

    @pytest.mark.parametrize(
        "text", ["[" * 100000, '{"a": ' * 100000, "1" * 5000], ids=["array", "object", "integer"]
    )
    def test_nesting_and_long_numbers(self, text):
        for load_fn in (load, load_model, load_asset):
            with pytest.raises(ParseError):
                load_fn(text)


# Text the writer must escape (controls, quote, backslash) or must pass through as it is
# (DEL, U+2028, an astral character, lone surrogates, a non-ASCII letter).
AWKWARD_CHARACTERS = ["a", "\x00", "\x1f", "\n", "\t", "\r", '"', "\\", "/", "\x7f", "\u2028", "\U0001f600"]
AWKWARD_TEXT = st.text(st.sampled_from([*AWKWARD_CHARACTERS, "\ud800", "\udfff", "é"]), max_size=5)
AWKWARD_ID = AWKWARD_TEXT.filter(bool)
AWKWARD_SCALAR = (
    st.sampled_from([-0.0, 5e-324, 1e16, 1.7976931348623157e308, 10**30, -(2**63), True, False, 0, 1])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.integers()
    | AWKWARD_TEXT
)


@st.composite
def awkward_blocks(draw, origin=None):
    kind = draw(st.sampled_from(list(BlockKind)))
    layer = layer_for_kind(kind)
    port_ids = draw(st.lists(AWKWARD_ID, max_size=3, unique=True))
    directions = st.sampled_from(list(PortDirection))
    return BuildingBlock(
        id=draw(AWKWARD_ID),
        name=draw(AWKWARD_TEXT),
        layer=layer,
        kind=kind,
        ports=[Port(port_id, draw(directions), draw(AWKWARD_ID), layer) for port_id in port_ids],
        parameters=draw(st.dictionaries(AWKWARD_TEXT, AWKWARD_SCALAR, max_size=4)),
        origin=origin or draw(st.sampled_from(list(Origin))),
    )


@st.composite
def awkward_models(draw):
    blocks = draw(st.lists(awkward_blocks(), max_size=4, unique_by=lambda block: block.id))
    refs = st.builds(PortRef, AWKWARD_TEXT, AWKWARD_TEXT)
    links = st.builds(TraceLink, st.sampled_from(list(TraceKind)), AWKWARD_TEXT, AWKWARD_TEXT)
    return Model(
        id=draw(AWKWARD_TEXT),
        blocks={block.id: block for block in blocks},
        connections=draw(st.frozensets(st.builds(Connection, refs, refs), max_size=3)),
        traces=draw(st.frozensets(links, max_size=3)),
    )


@st.composite
def awkward_repositories(draw):
    blocks = st.builds(BlockAsset, awkward_blocks(origin=Origin.REFERENCE_ASSET))
    layers, aspects = st.sampled_from(list(ConcernLayer)), st.sampled_from(list(Aspect))
    viewpoints = st.builds(ViewpointAsset, st.builds(Viewpoint, layers, aspects, AWKWARD_ID))
    pattern_blocks = st.lists(awkward_blocks(), max_size=2, unique_by=lambda block: block.id)
    patterns = st.builds(PatternAsset, st.builds(Pattern, AWKWARD_TEXT, pattern_blocks))
    assets = draw(st.lists(blocks | viewpoints | patterns, max_size=4, unique_by=lambda asset: asset.id))
    version = draw(st.sampled_from([0, 7, 10**30]) | st.integers(min_value=0))
    return ReferenceRepository(assets={asset.id: asset for asset in assets}, version=version)


def awkward_block(text="", **parameters) -> BuildingBlock:
    """A block with `text` as its id, name, port id, interface type and one parameter's key and value, and
    with `parameters`; with no text it has no port, and no parameter beyond `parameters`."""
    ports = [Port(text, PortDirection.PROVIDED, text, ConcernLayer.RESOURCE)] if text else []
    parameters = {text: text, **parameters} if text else parameters
    return BuildingBlock(text or "block", text, ConcernLayer.RESOURCE, BlockKind.FUNCTION, ports, parameters)


# Values a document can hold, each in a block. What it cannot hold (NaN, a non-scalar parameter such as a list or
# an object, a key that is not a string) never reaches the writer, since the block refuses it:
# tests/test_core.py::TestBuildingBlock::test_non_scalar_parameter_rejected and ::test_non_finite_parameter_rejected.
AWKWARD_VALUES = {
    "non_ascii": awkward_block("é\U0001f600"),
    "line_separator": awkward_block("a\u2028b"),
    "lone_surrogate": awkward_block("\ud800 \udfff"),
    "quote_and_backslash": awkward_block('"\\'),
    "huge_ints": awkward_block(huge=10**30, negative=-(2**63), zero=0),
    "negative_zero": awkward_block(zero=-0.0),
    "subnormal": awkward_block(tiny=5e-324),
    "1e16": awkward_block(large=1e16, largest=1.7976931348623157e308),
    "booleans": awkward_block(true=True, false=False),
    "empty": awkward_block(),
}


class TestWriterMatchesJsonDumps:
    """The writer gives the bytes of json.dumps(indent=2, sort_keys=True, ensure_ascii=False)."""

    @settings(max_examples=150, deadline=None)
    @given(awkward_models())
    def test_models(self, model):
        text = save_model(model)
        assert text == oracles.save_model(model)
        assert load_model(text) == model

    @settings(max_examples=150, deadline=None)
    @given(awkward_repositories())
    def test_repositories(self, repo):
        text = save(repo)
        assert text == oracles.save(repo)
        assert load(text) == repo

    @pytest.mark.parametrize("block", AWKWARD_VALUES.values(), ids=AWKWARD_VALUES.keys())
    def test_awkward_values(self, block):
        """A block holding the case's values saves like the oracle in a model, as an asset and in a pattern,
        beside a pattern whose lists are all empty, and reads back equal."""
        model = Model(id=block.name, blocks={block.id: block})
        assets = [BlockAsset(block), PatternAsset(Pattern("with the block", (block,))), PatternAsset(Pattern("none"))]
        repo = ReferenceRepository(assets={asset.id: asset for asset in assets}, version=10**30)
        assert len(repo.assets) == 3
        assert save_model(model) == oracles.save_model(model)
        assert save(repo) == oracles.save(repo)
        assert load_model(save_model(model)) == model
        assert load(save(repo)) == repo

    @pytest.mark.parametrize(
        "value",
        [[], {}, (), [[]], [{}], {"a": []}, None, True, [1, "x", None], [-0.0, 5e-324, 1e16, float("nan")],
         {"é\u2028": "\ud800\U0001f600"}, {2: "b", 1: []}, {None: (1,)}],
    )
    def test_any_json_value(self, value):
        """Any JSON value handed to a block as its parameters is refused by the block, or saved as the oracle
        saves it: no other value reaches the writer."""
        try:
            block = make_block(parameters=value)
        except (TypeError, ValueError):
            return
        model = Model(id="m", blocks={block.id: block})
        repo = add_asset(ReferenceRepository(), BlockAsset(block))
        assert save_model(model) == oracles.save_model(model)
        assert save(repo) == oracles.save(repo)
        assert json.loads(save_model(model))["blocks"][0]["parameters"] == json.loads(json.dumps(dict(value)))

    @pytest.mark.parametrize("value", [{"a": object()}, {(1, 2): 3}], ids=["value", "key"])
    def test_what_json_cannot_write_is_refused(self, value):
        with pytest.raises(TypeError):
            json.dumps(value)
        with pytest.raises(ValueError, match="is a object, not a scalar|parameter key \\(1, 2\\) is not a string"):
            make_block(parameters=value)


def _assert_first_error_like_reference(load_fn, reference, text) -> str:
    """The reader raises a ParseError of the reference reader's type and message; returns the message."""
    error = _outcome(load_fn, text)
    assert isinstance(error, tuple) and issubclass(error[0], ParseError), error
    assert error == _outcome(reference, text)
    return error[1]


def _changed(document, path, changes):
    """A copy of the document with `changes` made to the object at `path` (a list of keys and indexes)."""
    document = json.loads(json.dumps(document))
    target = document
    for step in path:
        target = target[step]
    target.update(changes)
    return json.dumps(document)


class TestFirstError:
    """A record with several faults reports the one the reference reader reports first."""

    @pytest.mark.parametrize(
        "path, changes",
        [
            (["blocks", 0], {"zz": 1, "name": 5}),  # an unknown key and a wrongly typed field
            (["blocks", 0], {"origin": 3, "ports": {}}),  # two typed fields, read in table order
            (["blocks", 0], {"kind": "nope", "id": 4}),
            (["blocks", 0], {"parameters": {"a": [1]}, "layer": 2}),
            (["blocks", 0, "ports", 0], {"layer": None, "direction": "sideways"}),
            (["connections", 0], {"to": {"block": 1}, "from": {"port": []}}),
            (["traces", 0], {"target": 1, "kind": "none"}),
            ([], {"schema_version": True, "id": 3}),  # `true` equals 1 but is no version, so it is the first fault
            ([], {"schema_version": 2, "id": 3}),
            ([], {"schema_version": "1", "blocks": {}}),
        ],
    )
    def test_model_faults(self, demo_model, path, changes):
        text = _changed(json.loads(save_model(demo_model)), path, changes)
        _assert_first_error_like_reference(load_model, oracles.load_model, text)

    @pytest.mark.parametrize(
        "path, changes",
        [
            ([], {"version": True}),
            ([], {"version": True, "schema_version": 1.0}),
            ([], {"version": "1", "schema_version": 0}),
            (["assets", 0], {"zz": 1, "asset_kind": 5}),
            (["assets", 0], {"asset_kind": "block", "id": 5, "block": 5}),
            (["assets", 0], {"asset_kind": "widget", "block": None}),
        ],
    )
    def test_repository_faults(self, demo_repo, path, changes):
        text = _changed(json.loads(save(demo_repo)), path, changes)
        _assert_first_error_like_reference(load, oracles.load, text)

    def test_duplicate_block_before_a_bad_entry(self, demo_model):
        document = json.loads(save_model(demo_model))
        document["blocks"][1:1] = [document["blocks"][0], {"id": 1}]
        message = _assert_first_error_like_reference(load_model, oracles.load_model, json.dumps(document))
        assert message.startswith("$.blocks[1]: duplicate block id")

    def test_duplicate_asset_before_a_bad_entry(self, demo_repo):
        document = json.loads(save(demo_repo))
        document["assets"][1:1] = [document["assets"][0], {"asset_kind": 1}]
        message = _assert_first_error_like_reference(load, oracles.load, json.dumps(document))
        assert message.startswith("$.assets[1]: duplicate asset id")


def _fleet(copies):
    """A repository and a model of `copies` renamed copies of the demo's blocks, wires and traces."""
    template_repo = demo.build_demo_repository()
    template = demo.build_demo_model(template_repo)
    assets, blocks, connections, traces = {}, {}, set(), set()
    for n in range(copies):
        def rename(block_id):
            return f"c{n}.{block_id}"

        for asset in template_repo.block_assets():
            assets[rename(asset.id)] = BlockAsset(replace(asset.block, id=rename(asset.id)))
        for block in template.blocks.values():
            blocks[rename(block.id)] = replace(block, id=rename(block.id))
        for c in template.connections:
            connections.add(Connection(PortRef(rename(c.source.block), c.source.port),
                                       PortRef(rename(c.target.block), c.target.port)))
        traces.update(TraceLink(t.kind, rename(t.source), rename(t.target)) for t in template.traces)
    model = Model(id="fleet", blocks=blocks, connections=frozenset(connections), traces=frozenset(traces))
    return ReferenceRepository(assets=assets), model


def persistence_steps(copies):
    """The Python interpreter events (calls, lines, returns) traced while saving and loading the
    repository and the model of a fleet of `copies` demo copies: counted work, the same on every host."""
    repo, model = _fleet(copies)
    steps = 0

    def count(frame, event, arg):
        nonlocal steps
        steps += 1
        return count

    previous = sys.gettrace()
    sys.settrace(count)
    try:
        loaded_repo, loaded_model = load(save(repo)), load_model(save_model(model))
    finally:
        sys.settrace(previous)
    assert loaded_repo == repo and loaded_model == model
    return steps


def test_persistence_scales_linearly():
    """8x the blocks take well under the 64x of a quadratic writer or reader."""
    short = persistence_steps(10)
    long = persistence_steps(80)
    assert long <= 16 * short, (long, short)
