"""Command-line entry point exposing the toolkit as subcommands.

Every subcommand is a thin adapter over the library: it loads files, calls
one library function, and prints or writes the result. COMMANDS, at the end
of the module, declares each subcommand with the options its handler reads.
Handlers reach the library through the ``refmodel`` namespace, which loads a
module on first use, so a command loads only the layers it runs.
Exit codes: 0 on success, 1 on validation findings, domain errors or running
out of memory, 2 on usage errors, including a flag the subcommand does not take.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path as FilePath
from typing import Callable, NamedTuple

import refmodel

from .core import Aspect, BlockKind, ConcernLayer, Model, Port, PortDirection, PortRef
from .errors import ParseError, RefModelError

_ENV_HOME = "REFMODEL_HOME"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (RefModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except (_UsageError, ValueError) as exc:
        # Commands raise _UsageError for bad flags; library functions raise
        # ValueError for arguments outside their domain.
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of COMMANDS: each command takes exactly the options its row declares."""
    parser = argparse.ArgumentParser(
        prog="refmodel",
        description="Reference-modeling toolkit with an energy-simulation evaluator.",
    )
    subparsers = {(): parser.add_subparsers(dest="command", required=True, parser_class=_Subparser)}
    for command in COMMANDS:
        *group, name = command.words.split()
        group = tuple(group)
        if group not in subparsers:
            group_parser = subparsers[()].add_parser(group[0], help=_GROUP_HELP[group[0]])
            subparsers[group] = group_parser.add_subparsers(dest=f"{group[0]}_command", required=True)
        leaf = subparsers[group].add_parser(name, help=command.help)
        for flags, settings in command.options:
            leaf.add_argument(*flags, **settings)
        leaf.set_defaults(func=command.handler)
    return parser


class _Subparser(argparse.ArgumentParser):
    """A command's parser: an argument it does not take is reported with the command's own usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


# --- shared plumbing --------------------------------------------------------


def _repo_path(args) -> FilePath:
    """The --repo file, else the default repository under $REFMODEL_HOME."""
    if args.repo:
        return FilePath(args.repo)
    home = os.environ.get(_ENV_HOME)
    if not home:
        raise _UsageError(f"--repo is required (or set {_ENV_HOME})")
    return FilePath(home) / f"default{refmodel.repository.REPOSITORY_SUFFIX}"


def _load_repo(args) -> refmodel.repository.ReferenceRepository:
    return refmodel.repository.load(_read(_repo_path(args), "repository"))


def _load_model(args) -> Model:
    return refmodel.repository.load_model(_read(FilePath(args.model), "model"))


def _load_or_new_model(args) -> tuple[Model, FilePath]:
    """The model a ``model ...`` command edits; a missing file starts an empty model."""
    path = FilePath(args.model)
    if path.exists():
        return _load_model(args), path
    stem = path.name
    for suffix in (refmodel.repository.MODEL_SUFFIX, ".json"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
            break
    return Model(id=stem), path


def _write(path: FilePath, text: str):
    """Write text through a sibling temp file and os.replace, so a failed write leaves the old file whole."""
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        temp.write_text(text, encoding="utf-8")
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def _load_map(args) -> refmodel.terrain.TerrainMap:
    if not args.map_file:
        raise _UsageError("--map is required")
    return refmodel.terrain.load_map(_read(FilePath(args.map_file), "map"))


def _read(path: FilePath, what: str) -> str:
    """The text of an input file; a missing file is a usage error, undecodable text a ParseError."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise _UsageError(f"{what} file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _write_out(out: str | None, name: str, text: str):
    """Under --out DIR, write the artifact DIR/name and say so on stdout."""
    if out:
        path = FilePath(out) / name
        _write(path, text)
        print(f"wrote {path}")


def _given(args, *dests: str) -> dict:
    """The flags among dests that were given, by dest; the library supplies the rest's defaults."""
    return {dest: getattr(args, dest) for dest in dests if getattr(args, dest) is not None}


def _sim_params(args) -> refmodel.simulation.SimParams:
    return refmodel.simulation.SimParams(**_given(args, "capacity", "consumption_factor"))


def _position(text: str) -> refmodel.terrain.Position:
    """The --start cell, given as row,col."""
    try:
        row_text, col_text = text.split(",")
        return refmodel.terrain.Position(int(row_text), int(col_text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects row,col, got '{text}'") from None


def _planner_list(text: str) -> list[str]:
    return [piece.strip() for piece in text.split(",") if piece.strip()]


def _name_values(entries, flag: str, metavar: str, scalars: bool = False) -> dict:
    """Repeated NAME=VALUE flags as a dict; with scalars, a value may be empty and is coerced to a scalar."""
    out = {}
    for entry in entries:
        name, sep, value = entry.partition("=")
        if not sep or not name or not (value or scalars):
            raise _UsageError(f"{flag} expects {metavar}, got '{entry}'")
        out[name] = _coerce_scalar(value) if scalars else value
    return out


def _coerce_scalar(text: str):
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_port_ref(text: str, flag: str) -> PortRef:
    block, sep, port = text.rpartition(":")
    if not sep or not block or not port:
        raise _UsageError(f"{flag} expects BLOCK:PORT, got '{text}'")
    return PortRef(block, port)


class _UsageError(Exception):
    pass


# --- repository commands ----------------------------------------------------


def cmd_repo_init(args) -> int:
    path = _repo_path(args)
    if path.exists():
        raise FileExistsError(f"{path} already exists")
    _write(path, refmodel.repository.save(refmodel.repository.ReferenceRepository()))
    print(f"initialized empty repository at {path}")
    return 0


def cmd_repo_add(args) -> int:
    repo = _load_repo(args)
    asset = refmodel.repository.load_asset(_read(FilePath(args.asset_file), "asset"))
    repo = refmodel.repository.add_asset(repo, asset)
    _write(_repo_path(args), refmodel.repository.save(repo))
    print(f"added asset '{asset.id}' (repository version {repo.version})")
    return 0


def cmd_repo_list(args) -> int:
    repo = _load_repo(args)
    layer = ConcernLayer(args.layer) if args.layer else None
    kind = BlockKind(args.kind) if args.kind else None
    for asset_id in refmodel.repository.list_assets(repo, layer=layer, kind=kind):
        print(asset_id)
    return 0


# --- model commands ---------------------------------------------------------


def _save_model(path: FilePath, model: Model, message: str) -> int:
    """The last step of every model command: write the edited model, then say what was done."""
    _write(path, refmodel.repository.save_model(model))
    print(message)
    return 0


def cmd_model_adopt(args) -> int:
    repo = _load_repo(args)
    model, path = _load_or_new_model(args)
    model = refmodel.repository.adopt(repo, args.asset_id, model)
    return _save_model(path, model, f"adopted '{args.asset_id}' into {path}")


def cmd_model_adapt(args) -> int:
    repo = _load_repo(args)
    model, path = _load_or_new_model(args)
    overrides = {
        "name": args.new_name,
        "parameters": _name_values(args.param, "--param", "KEY=VALUE", scalars=True),
        "port_types": _name_values(args.port_type, "--port-type", "PORT=TYPE"),
    }
    overrides = {field: value for field, value in overrides.items() if value}
    model = refmodel.repository.adapt(repo, args.asset_id, overrides, model)
    return _save_model(path, model, f"adapted '{args.asset_id}' into {path}")


def cmd_model_extend(args) -> int:
    repo = _load_repo(args)
    model, path = _load_or_new_model(args)
    layer = refmodel.repository.asset_of_kind(repo, args.asset_id, refmodel.repository.BlockAsset).block.layer
    ports = []
    for entry in args.port:
        pieces = entry.split(":")
        if len(pieces) != 3 or not all(pieces):
            raise _UsageError(f"--port expects ID:DIRECTION:TYPE, got '{entry}'")
        port_id, direction, interface = pieces
        if direction not in (d.value for d in PortDirection):
            raise _UsageError(f"--port direction must be provided or required, got '{direction}'")
        ports.append(Port(port_id, PortDirection(direction), interface, layer))
    params = _name_values(args.param, "--param", "KEY=VALUE", scalars=True)
    model = refmodel.repository.extend(repo, args.asset_id, ports, params, model)
    return _save_model(path, model, f"extended '{args.asset_id}' into {path}")


def cmd_model_connect(args) -> int:
    model, path = _load_or_new_model(args)
    provided = _parse_port_ref(args.provided, "provided endpoint")
    required = _parse_port_ref(args.required, "required endpoint")
    model = refmodel.composition.connect(model, provided, required)
    return _save_model(path, model, f"connected {args.provided} -> {args.required}")


def cmd_model_apply_pattern(args) -> int:
    repo = _load_repo(args)
    model, path = _load_or_new_model(args)
    pattern = refmodel.repository.asset_of_kind(repo, args.pattern_id, refmodel.repository.PatternAsset).pattern
    bindings = _name_values(args.bind, "--bind", "ANCHOR=BLOCK")
    model = refmodel.composition.apply_pattern(model, pattern, bindings, force_theirs=args.force_theirs)
    return _save_model(path, model, f"applied pattern '{args.pattern_id}' into {path}")


# --- analysis commands ------------------------------------------------------


def cmd_validate(args) -> int:
    model = _load_model(args)
    report = refmodel.composition.validate_configuration(model)
    if report.is_valid:
        print(f"model '{model.id}' is valid")
        return 0
    for finding in report.findings():
        print(finding)
    print(f"{len(report.findings())} finding(s)")
    return 1


def _trace_text(tree: refmodel.composition.TraceNode) -> str:
    """One line per node, indented by its depth, with the kind of the link that reached it."""
    return "".join(
        "  " * depth + node.block_id + (f" ({node.link.value})" if node.link else "") + "\n"
        for depth, node in tree.walk()
    )


# What trace prints for each --format; the keys are the flag's choices.
_TRACE_FORMATS = {"text": _trace_text, "dot": lambda graph: refmodel.composition.export_dot(graph)}


def cmd_trace(args) -> int:
    model = _load_model(args)
    direction = refmodel.composition.TraceDirection(args.direction)
    tree = refmodel.composition.trace(model, args.element, direction)
    print(_TRACE_FORMATS[args.format](tree), end="")
    return 0


def cmd_coverage(args) -> int:
    model = _load_model(args)
    report = refmodel.composition.capability_coverage(model)
    for entry in report.entries:
        chain = f" via {' <- '.join(entry.witnesses[0])}" if entry.witnesses else ""
        print(f"{entry.capability_id}: {entry.status.value}{chain}")
    return 0


def _view_text(view: refmodel.composition.View) -> str:
    """A header naming the viewpoint, then one indented line per element, connection and trace."""
    subject, aspect = view.viewpoint.subject.value, view.viewpoint.aspect.value
    lines = [
        f"view ({subject}, {aspect}): {len(view.elements)} element(s)",
        *(f"  {element}" for element in view.elements),
        *(f"  {c.source.block}:{c.source.port} -> {c.target.block}:{c.target.port}" for c in view.connections),
        *(f"  {link.source} -{link.kind.value}-> {link.target}" for link in view.traces),
    ]
    return "\n".join(lines) + "\n"


# What view prints for each --format; the keys are the flag's choices.
_VIEW_FORMATS = {"text": _view_text, "dot": lambda graph: refmodel.composition.export_dot(graph)}


def cmd_view(args) -> int:
    model = _load_model(args)
    viewpoint = refmodel.composition.Viewpoint(ConcernLayer(args.subject), Aspect(args.aspect))
    print(_VIEW_FORMATS[args.format](refmodel.composition.extract_view(model, viewpoint)), end="")
    return 0


def cmd_alternatives(args) -> int:
    repo = _load_repo(args)
    model = _load_model(args)
    for index, block in enumerate(refmodel.composition.replacement_blocks(model, repo, args.slot)):
        print(f"{index}: {block.id} ({block.name})")
    return 0


# --- evaluation commands ----------------------------------------------------


def cmd_simulate(args) -> int:
    tmap = _load_map(args)
    planner = args.planner
    if planner == "adaptive":
        planner = refmodel.planners.select_adaptive(tmap).value
    result = refmodel.simulation.run(tmap, planner, start=args.start, params=_sim_params(args))
    csv_text = refmodel.simulation.sim_result_to_csv(result)
    if args.format == "csv":
        print(csv_text, end="")
    else:
        print(
            f"planner {planner}: {result.steps_completed} step(s), "
            f"total {result.total_consumed:.6f}, {result.terminated.value}"
        )
    _write_out(args.out, "simulate.csv", csv_text)
    return 0


# The evaluator writer compare and ensemble print for each --format; the keys are the flag's choices.
_COMPARE_FORMATS = {"text": "comparison_to_table", "csv": "comparison_to_csv", "svg": "remaining_chart_svg"}
_ENSEMBLE_FORMATS = {"text": "ensemble_to_table", "csv": "ensemble_to_csv"}


def cmd_compare(args) -> int:
    tmap = _load_map(args)
    report = refmodel.evaluator.compare(
        tmap,
        start=args.start,
        params=_sim_params(args),
        map_label=FilePath(args.map_file).name,
        **_given(args, "planners"),
    )
    print(getattr(refmodel.evaluator, _COMPARE_FORMATS[args.format])(report), end="")
    if args.out:
        out = FilePath(args.out)
        artifacts = {
            "compare.csv": refmodel.evaluator.comparison_to_csv(report),
            "compare.txt": refmodel.evaluator.comparison_to_table(report),
            "remaining.svg": refmodel.evaluator.remaining_chart_svg(report),
            "paths.svg": refmodel.evaluator.paths_svg(tmap, report),
        }
        for name, text in artifacts.items():
            _write(out / name, text)
        print(f"wrote {', '.join(artifacts)} to {out}")
    return 0


def cmd_ensemble(args) -> int:
    stats = refmodel.evaluator.ensemble(
        refmodel.terrain.GenParams(**_given(args, *_GEN_FIELDS)),
        args.n,
        params=_sim_params(args),
        start=args.start,
        **_given(args, "planners", "seed0"),
    )
    print(getattr(refmodel.evaluator, _ENSEMBLE_FORMATS[args.format])(stats), end="")
    _write_out(args.out, "ensemble.csv", refmodel.evaluator.ensemble_to_csv(stats))
    return 0


def cmd_rank(args) -> int:
    # --n N (N >= 1) ranks over generated maps, and only then do the generation flags apply.
    generated = args.n is not None and args.n > 0
    gen = _given(args, *_GEN_FIELDS)
    seed = _given(args, "seed0")
    if generated and args.map_file is not None:
        raise _UsageError("rank takes --map or --n, not both")
    if not generated and (gen or seed):
        raise _UsageError("--seed, --width, --height, --density and --max-level need --n N with N >= 1")
    repo = _load_repo(args)
    model = _load_model(args)
    if generated:
        arena = refmodel.evaluator.EnsembleSpec(refmodel.terrain.GenParams(**gen), args.n, **seed)
    else:
        arena = _load_map(args)
    ranked = refmodel.evaluator.rank_configurations(
        model, repo, args.slot, arena, params=_sim_params(args), start=args.start
    )
    for position, entry in enumerate(ranked, start=1):
        flag = "" if entry.completed else " [incomplete coverage]"
        print(f"{position}. {entry.block_id} ({entry.planner}) score {entry.score:.6f}{flag}")
    _write_out(args.out, "rank.csv", refmodel.evaluator.ranking_to_csv(ranked))
    return 0


def cmd_demo(args) -> int:
    repo = refmodel.demo.build_demo_repository()
    model = refmodel.demo.build_demo_model(repo)
    for name, text in (
        (f"demo{refmodel.repository.REPOSITORY_SUFFIX}", refmodel.repository.save(repo)),
        (f"demo{refmodel.repository.MODEL_SUFFIX}", refmodel.repository.save_model(model)),
        ("reference.terrain.txt", refmodel.demo.REFERENCE_MAP_TEXT),
    ):
        _write_out(args.out or ".", name, text)
    return 0


# --- command table ----------------------------------------------------------


class Command(NamedTuple):
    """One subcommand: the words after ``refmodel``, its help, its handler, and the options it reads."""

    words: str
    help: str
    handler: Callable[[argparse.Namespace], int]
    options: tuple


def _opt(*flags: str, **settings) -> tuple:
    """One option, as the arguments of add_argument."""
    return flags, settings


def _format(*choices: str) -> tuple:
    """--format: one of the formats the command prints, text by default."""
    return _opt("--format", choices=list(choices), default="text", help="stdout format")


# Options that several commands read, each stated once. A flag the library has a default
# for defaults to None, so that the library's value applies, and its dest is the library's keyword.
_REPO = _opt("--repo", help="repository file (*.refrepo.json)")
_MODEL = _opt("--model", required=True, help="model file (*.refmodel.json)")
_MAP = _opt("--map", dest="map_file", help="terrain file (*.terrain.txt)")
_OUT = _opt("--out", help="directory for written artifacts")
_SLOT = _opt("--slot", required=True, help="block id to exchange")
_ASSET = _opt("asset_id")
_PARAM = _opt("--param", action="append", default=[], metavar="KEY=VALUE")
_PLANNERS = _opt("--planners", type=_planner_list, help="comma-separated names")
_SEED = _opt("--seed", dest="seed0", type=int, metavar="SEED", help="base seed for generated maps")
_GEN = (
    _opt("--width", type=int),
    _opt("--height", type=int),
    _opt("--density", dest="obstacle_density", type=float, metavar="DENSITY"),
    _opt("--max-level", type=int),
)
# The generation flags' dests, one per GenParams field.
_GEN_FIELDS = tuple(settings.get("dest", flags[0].lstrip("-").replace("-", "_")) for flags, settings in _GEN)
_SIM = (
    _opt("--capacity", type=float, help="battery capacity"),
    _opt("--consumption-factor", type=float, help="per-step consumption scale"),
    _opt("--start", type=_position, help="start cell as row,col (default: first free cell)"),
)
_LAYERS = [layer.value for layer in ConcernLayer]

_GROUP_HELP = {"repo": "manage a reference repository", "model": "compose an application model"}

COMMANDS = (
    Command("repo init", "create an empty repository", cmd_repo_init, (_REPO,)),
    Command("repo add", "add an asset from a JSON file", cmd_repo_add,
            (_opt("asset_file", help="JSON file with one asset document"), _REPO)),
    Command("repo list", "list asset ids", cmd_repo_list,
            (_REPO, _opt("--layer", choices=_LAYERS), _opt("--kind", choices=[k.value for k in BlockKind]))),
    Command("model adopt", "copy a reference block verbatim", cmd_model_adopt, (_ASSET, _REPO, _MODEL)),
    Command("model adapt", "copy a reference block with overrides", cmd_model_adapt,
            (_ASSET, _opt("--name", dest="new_name", help="replacement block name"), _PARAM,
             _opt("--port-type", action="append", default=[], metavar="PORT=TYPE"), _REPO, _MODEL)),
    Command("model extend", "copy a reference block with additions", cmd_model_extend,
            (_ASSET, _opt("--port", action="append", default=[], metavar="ID:DIRECTION:TYPE"), _PARAM,
             _REPO, _MODEL)),
    Command("model connect", "wire a provided port to a required port", cmd_model_connect,
            (_opt("provided", metavar="BLOCK:PORT"), _opt("required", metavar="BLOCK:PORT"), _MODEL)),
    Command("model apply-pattern", "merge a pattern asset into the model", cmd_model_apply_pattern,
            (_opt("pattern_id"), _opt("--bind", action="append", default=[], metavar="ANCHOR=BLOCK"),
             _opt("--force-theirs", action="store_true", help="replace conflicting blocks"), _REPO, _MODEL)),
    Command("validate", "check wiring and trace legality", cmd_validate, (_MODEL,)),
    Command("trace", "follow trace links from an element", cmd_trace,
            (_opt("element"), _opt("--direction", choices=["up", "down"], default="down"), _MODEL,
             _format(*_TRACE_FORMATS))),
    Command("coverage", "capability coverage statuses", cmd_coverage, (_MODEL,)),
    Command("view", "extract a viewpoint-filtered view", cmd_view,
            (_opt("--subject", required=True, choices=_LAYERS),
             _opt("--aspect", required=True, choices=[a.value for a in Aspect]), _MODEL,
             _format(*_VIEW_FORMATS))),
    Command("alternatives", "plug-compatible slot alternatives", cmd_alternatives, (_SLOT, _REPO, _MODEL)),
    Command("simulate", "simulate one planner on a map", cmd_simulate,
            (_MAP, _opt("--planner", default="edge_follow",
                        help="planner name, or 'adaptive' to pick by terrain variance"),
             *_SIM, _format("text", "csv"), _OUT)),
    Command("compare", "compare planners on one map", cmd_compare,
            (_MAP, _PLANNERS, *_SIM, _format(*_COMPARE_FORMATS), _OUT)),
    Command("ensemble", "compare planners over generated maps", cmd_ensemble,
            (_opt("--n", type=int, default=10, help="number of generated maps"), _PLANNERS, _SEED, *_GEN,
             *_SIM, _format(*_ENSEMBLE_FORMATS), _OUT)),
    Command("rank", "rank slot alternatives by simulated energy", cmd_rank,
            (_SLOT, _opt("--n", type=int, help="rank over N generated maps instead of --map"), _MAP, _SEED,
             *_GEN, _REPO, _MODEL, *_SIM, _OUT)),
    Command("demo", "write the example repository, model, and map", cmd_demo, (_OUT,)),
)


if __name__ == "__main__":
    sys.exit(main())
