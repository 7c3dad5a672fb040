"""Command-line entry point exposing the toolkit as subcommands.

Every subcommand is a thin adapter over the library: it loads files, calls
one library function, and prints or writes the result. Exit codes: 0 on
success, 1 on validation findings or domain errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path as FilePath

from . import composition, demo, evaluator, planners, repository, simulation, terrain
from .core import Aspect, BlockKind, ConcernLayer, Model, Port, PortDirection, PortRef
from .errors import ParseError, RefModelError
from .terrain import GenParams, Position

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
    except (_UsageError, ValueError) as exc:
        # Commands raise _UsageError for bad flags; library functions raise
        # ValueError for arguments outside their domain.
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--repo", help="repository file (*.refrepo.json)")
    common.add_argument("--model", help="model file (*.refmodel.json)")
    common.add_argument("--map", dest="map_file", help="terrain file (*.terrain.txt)")
    common.add_argument("--seed", type=int, default=0, help="base seed for generated maps")
    common.add_argument("--capacity", type=float, default=100.0, help="battery capacity")
    common.add_argument(
        "--consumption-factor", type=float, default=1.0, help="per-step consumption scale"
    )
    common.add_argument("--start", help="start cell as row,col (default: first free cell)")
    common.add_argument("--out", help="directory for written artifacts")
    common.add_argument(
        "--format",
        choices=["text", "csv", "dot", "svg"],
        default="text",
        help="stdout format where applicable",
    )

    parser = argparse.ArgumentParser(
        prog="refmodel",
        description="Reference-modeling toolkit with an energy-simulation evaluator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    repo_cmd = sub.add_parser("repo", help="manage a reference repository")
    repo_sub = repo_cmd.add_subparsers(dest="repo_command", required=True)
    p = repo_sub.add_parser("init", parents=[common], help="create an empty repository")
    p.set_defaults(func=cmd_repo_init)
    p = repo_sub.add_parser("add", parents=[common], help="add an asset from a JSON file")
    p.add_argument("asset_file", help="JSON file with one asset document")
    p.set_defaults(func=cmd_repo_add)
    p = repo_sub.add_parser("list", parents=[common], help="list asset ids")
    p.add_argument("--layer", choices=[l.value for l in ConcernLayer])
    p.add_argument("--kind", choices=[k.value for k in BlockKind])
    p.set_defaults(func=cmd_repo_list)

    model_cmd = sub.add_parser("model", help="compose an application model")
    model_sub = model_cmd.add_subparsers(dest="model_command", required=True)
    p = model_sub.add_parser("adopt", parents=[common], help="copy a reference block verbatim")
    p.add_argument("asset_id")
    p.set_defaults(func=cmd_model_adopt)
    p = model_sub.add_parser("adapt", parents=[common], help="copy a reference block with overrides")
    p.add_argument("asset_id")
    p.add_argument("--name", dest="new_name", help="replacement block name")
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--port-type", action="append", default=[], metavar="PORT=TYPE")
    p.set_defaults(func=cmd_model_adapt)
    p = model_sub.add_parser("extend", parents=[common], help="copy a reference block with additions")
    p.add_argument("asset_id")
    p.add_argument("--port", action="append", default=[], metavar="ID:DIRECTION:TYPE")
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    p.set_defaults(func=cmd_model_extend)
    p = model_sub.add_parser("connect", parents=[common], help="wire a provided port to a required port")
    p.add_argument("provided", metavar="BLOCK:PORT")
    p.add_argument("required", metavar="BLOCK:PORT")
    p.set_defaults(func=cmd_model_connect)
    p = model_sub.add_parser("apply-pattern", parents=[common], help="merge a pattern asset into the model")
    p.add_argument("pattern_id")
    p.add_argument("--bind", action="append", default=[], metavar="ANCHOR=BLOCK")
    p.add_argument("--force-theirs", action="store_true", help="replace conflicting blocks")
    p.set_defaults(func=cmd_model_apply_pattern)

    p = sub.add_parser("validate", parents=[common], help="check wiring and trace legality")
    p.set_defaults(func=cmd_validate)
    p = sub.add_parser("trace", parents=[common], help="follow trace links from an element")
    p.add_argument("element")
    p.add_argument("--direction", choices=["up", "down"], default="down")
    p.set_defaults(func=cmd_trace)
    p = sub.add_parser("coverage", parents=[common], help="capability coverage statuses")
    p.set_defaults(func=cmd_coverage)
    p = sub.add_parser("view", parents=[common], help="extract a viewpoint-filtered view")
    p.add_argument("--subject", required=True, choices=[l.value for l in ConcernLayer])
    p.add_argument("--aspect", required=True, choices=[a.value for a in Aspect])
    p.set_defaults(func=cmd_view)
    p = sub.add_parser("alternatives", parents=[common], help="plug-compatible slot alternatives")
    p.add_argument("--slot", required=True, help="block id to exchange")
    p.set_defaults(func=cmd_alternatives)

    p = sub.add_parser("simulate", parents=[common], help="simulate one planner on a map")
    p.add_argument(
        "--planner",
        default="edge_follow",
        help="planner name, or 'adaptive' to pick by terrain variance",
    )
    p.set_defaults(func=cmd_simulate)
    p = sub.add_parser("compare", parents=[common], help="compare planners on one map")
    p.add_argument("--planners", default="edge_follow,terrain_aware", help="comma-separated names")
    p.set_defaults(func=cmd_compare)
    p = sub.add_parser("ensemble", parents=[common], help="compare planners over generated maps")
    p.add_argument("--n", type=int, default=10, help="number of generated maps")
    p.add_argument("--planners", default="edge_follow,terrain_aware", help="comma-separated names")
    _add_gen_options(p)
    p.set_defaults(func=cmd_ensemble)
    p = sub.add_parser("rank", parents=[common], help="rank slot alternatives by simulated energy")
    p.add_argument("--slot", required=True)
    p.add_argument("--n", type=int, default=0, help="rank over N generated maps instead of --map")
    _add_gen_options(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("demo", parents=[common], help="write the example repository, model, and map")
    p.set_defaults(func=cmd_demo)
    return parser


def _add_gen_options(parser: argparse.ArgumentParser):
    """The map-generation flags that _gen_params reads."""
    parser.add_argument("--width", type=int, default=9)
    parser.add_argument("--height", type=int, default=7)
    parser.add_argument("--density", type=float, default=0.15)
    parser.add_argument("--max-level", type=int, default=3)


# --- shared plumbing --------------------------------------------------------


def _repo_path(args) -> FilePath | None:
    if args.repo:
        return FilePath(args.repo)
    home = os.environ.get(_ENV_HOME)
    if home:
        return FilePath(home) / f"default{repository.REPOSITORY_SUFFIX}"
    return None


def _load_repo(args) -> repository.ReferenceRepository:
    path = _repo_path(args)
    if path is None:
        raise _UsageError(f"--repo is required (or set {_ENV_HOME})")
    return repository.load(_read(path, "repository"))


def _model_path(args) -> FilePath:
    if not args.model:
        raise _UsageError("--model is required")
    return FilePath(args.model)


def _load_model(args) -> Model:
    return repository.load_model(_read(_model_path(args), "model"))


def _load_or_new_model(args) -> tuple[Model, FilePath]:
    """The model a ``model ...`` command edits; a missing file starts an empty model."""
    path = _model_path(args)
    if path.exists():
        return _load_model(args), path
    stem = path.name
    for suffix in (repository.MODEL_SUFFIX, ".json"):
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


def _load_map(args) -> terrain.TerrainMap:
    if not args.map_file:
        raise _UsageError("--map is required")
    return terrain.load_map(_read(FilePath(args.map_file), "map"))


def _read(path: FilePath, what: str) -> str:
    """The text of an input file; a missing file is a usage error, undecodable text a ParseError."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise _UsageError(f"{what} file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _gen_params(args) -> GenParams:
    return GenParams(args.width, args.height, args.density, args.max_level)


def _sim_params(args) -> simulation.SimParams:
    return simulation.SimParams(
        capacity=args.capacity, consumption_factor=args.consumption_factor
    )


def _start(args) -> Position | None:
    if not args.start:
        return None
    try:
        row_text, col_text = args.start.split(",")
        return Position(int(row_text), int(col_text))
    except ValueError:
        raise _UsageError(f"--start expects row,col, got '{args.start}'") from None


def _out_dir(args) -> FilePath | None:
    if not args.out:
        return None
    out = FilePath(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_kv(entries, flag) -> dict:
    out = {}
    for entry in entries:
        key, sep, value = entry.partition("=")
        if not sep or not key:
            raise _UsageError(f"{flag} expects KEY=VALUE, got '{entry}'")
        out[key] = _coerce_scalar(value)
    return out


def _name_values(entries, flag: str, metavar: str) -> dict[str, str]:
    """Repeated NAME=VALUE flags as a dict; an empty name or value is a usage error."""
    out = {}
    for entry in entries:
        name, sep, value = entry.partition("=")
        if not sep or not name or not value:
            raise _UsageError(f"{flag} expects {metavar}, got '{entry}'")
        out[name] = value
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
    if path is None:
        raise _UsageError(f"--repo is required (or set {_ENV_HOME})")
    if path.exists():
        print(f"error: {path} already exists", file=sys.stderr)
        return 1
    _write(path, repository.save(repository.ReferenceRepository()))
    print(f"initialized empty repository at {path}")
    return 0


def cmd_repo_add(args) -> int:
    repo = _load_repo(args)
    asset = repository.load_asset(_read(FilePath(args.asset_file), "asset"))
    repo = repository.add_asset(repo, asset)
    _write(_repo_path(args), repository.save(repo))
    print(f"added asset '{asset.id}' (repository version {repo.version})")
    return 0


def cmd_repo_list(args) -> int:
    repo = _load_repo(args)
    layer = ConcernLayer(args.layer) if args.layer else None
    kind = BlockKind(args.kind) if args.kind else None
    for asset_id in repository.list_assets(repo, layer=layer, kind=kind):
        print(asset_id)
    return 0


# --- model commands ---------------------------------------------------------


def cmd_model_adopt(args) -> int:
    repo = _load_repo(args)
    model, path = _load_or_new_model(args)
    model = repository.adopt(repo, args.asset_id, model)
    _write(path, repository.save_model(model))
    print(f"adopted '{args.asset_id}' into {path}")
    return 0


def cmd_model_adapt(args) -> int:
    repo = _load_repo(args)
    model, path = _load_or_new_model(args)
    overrides: dict = {}
    if args.new_name:
        overrides["name"] = args.new_name
    params = _parse_kv(args.param, "--param")
    if params:
        overrides["parameters"] = params
    port_types = _name_values(args.port_type, "--port-type", "PORT=TYPE")
    if port_types:
        overrides["port_types"] = port_types
    model = repository.adapt(repo, args.asset_id, overrides, model)
    _write(path, repository.save_model(model))
    print(f"adapted '{args.asset_id}' into {path}")
    return 0


def cmd_model_extend(args) -> int:
    repo = _load_repo(args)
    model, path = _load_or_new_model(args)
    block = repo.asset(args.asset_id)
    if not isinstance(block, repository.BlockAsset):
        raise repository.WrongAssetKind(f"asset '{args.asset_id}' is not a block asset")
    layer = block.block.layer
    ports = []
    for entry in args.port:
        pieces = entry.split(":")
        if len(pieces) != 3 or not all(pieces):
            raise _UsageError(f"--port expects ID:DIRECTION:TYPE, got '{entry}'")
        port_id, direction, interface = pieces
        if direction not in (d.value for d in PortDirection):
            raise _UsageError(f"--port direction must be provided or required, got '{direction}'")
        ports.append(Port(port_id, PortDirection(direction), interface, layer))
    params = _parse_kv(args.param, "--param")
    model = repository.extend(repo, args.asset_id, ports, params, model)
    _write(path, repository.save_model(model))
    print(f"extended '{args.asset_id}' into {path}")
    return 0


def cmd_model_connect(args) -> int:
    model, path = _load_or_new_model(args)
    provided = _parse_port_ref(args.provided, "provided endpoint")
    required = _parse_port_ref(args.required, "required endpoint")
    model = composition.connect(model, provided, required)
    _write(path, repository.save_model(model))
    print(f"connected {args.provided} -> {args.required}")
    return 0


def cmd_model_apply_pattern(args) -> int:
    repo = _load_repo(args)
    model, path = _load_or_new_model(args)
    asset = repo.asset(args.pattern_id)
    if not isinstance(asset, repository.PatternAsset):
        raise repository.WrongAssetKind(f"asset '{args.pattern_id}' is not a pattern asset")
    bindings = _name_values(args.bind, "--bind", "ANCHOR=BLOCK")
    model = composition.apply_pattern(
        model, asset.pattern, bindings, force_theirs=args.force_theirs
    )
    _write(path, repository.save_model(model))
    print(f"applied pattern '{args.pattern_id}' into {path}")
    return 0


# --- analysis commands ------------------------------------------------------


def cmd_validate(args) -> int:
    model = _load_model(args)
    report = composition.validate_configuration(model)
    if report.is_valid:
        print(f"model '{model.id}' is valid")
        return 0
    for finding in report.findings():
        print(finding)
    print(f"{len(report.findings())} finding(s)")
    return 1


def cmd_trace(args) -> int:
    model = _load_model(args)
    direction = composition.TraceDirection(args.direction)
    tree = composition.trace(model, args.element, direction)
    if args.format == "dot":
        print(composition.export_dot(tree), end="")
        return 0
    for depth, node in tree.walk():
        label = f" ({node.link.value})" if node.link else ""
        print("  " * depth + node.block_id + label)
    return 0


def cmd_coverage(args) -> int:
    model = _load_model(args)
    report = composition.capability_coverage(model)
    for entry in report.entries:
        chain = f" via {' <- '.join(entry.witnesses[0])}" if entry.witnesses else ""
        print(f"{entry.capability_id}: {entry.status.value}{chain}")
    return 0


def cmd_view(args) -> int:
    model = _load_model(args)
    viewpoint = composition.Viewpoint(ConcernLayer(args.subject), Aspect(args.aspect))
    view = composition.extract_view(model, viewpoint)
    if args.format == "dot":
        print(composition.export_dot(view), end="")
        return 0
    print(f"view ({args.subject}, {args.aspect}): {len(view.elements)} element(s)")
    for element in view.elements:
        print(f"  {element}")
    for conn in view.connections:
        print(f"  {conn.source.block}:{conn.source.port} -> {conn.target.block}:{conn.target.port}")
    for link in view.traces:
        print(f"  {link.source} -{link.kind.value}-> {link.target}")
    return 0


def cmd_alternatives(args) -> int:
    repo = _load_repo(args)
    model = _load_model(args)
    pairs = composition.enumerate_alternatives_with_slots(model, repo, args.slot)
    for index, (block_id, alternative) in enumerate(pairs):
        block = alternative.blocks[block_id]
        print(f"{index}: {block_id} ({block.name})")
    return 0


# --- evaluation commands ----------------------------------------------------


def cmd_simulate(args) -> int:
    tmap = _load_map(args)
    planner = args.planner
    if planner == "adaptive":
        planner = planners.select_adaptive(tmap).value
    result = simulation.run(tmap, planner, start=_start(args), params=_sim_params(args))
    csv_text = simulation.sim_result_to_csv(result)
    if args.format == "csv":
        print(csv_text, end="")
    else:
        print(
            f"planner {planner}: {result.steps_completed} step(s), "
            f"total {result.total_consumed:.6f}, {result.terminated.value}"
        )
    out = _out_dir(args)
    if out:
        _write(out / "simulate.csv", csv_text)
        print(f"wrote {out / 'simulate.csv'}")
    return 0


def _planner_list(text: str) -> list[str]:
    return [piece.strip() for piece in text.split(",") if piece.strip()]


def cmd_compare(args) -> int:
    tmap = _load_map(args)
    report = evaluator.compare(
        tmap,
        _planner_list(args.planners),
        start=_start(args),
        params=_sim_params(args),
        map_label=FilePath(args.map_file).name,
    )
    if args.format == "csv":
        print(evaluator.comparison_to_csv(report), end="")
    elif args.format == "svg":
        print(evaluator.remaining_chart_svg(report), end="")
    else:
        print(evaluator.comparison_to_table(report), end="")
    out = _out_dir(args)
    if out:
        _write(out / "compare.csv", evaluator.comparison_to_csv(report))
        _write(out / "compare.txt", evaluator.comparison_to_table(report))
        _write(out / "remaining.svg", evaluator.remaining_chart_svg(report))
        _write(out / "paths.svg", evaluator.paths_svg(tmap, report))
        print(f"wrote compare.csv, compare.txt, remaining.svg, paths.svg to {out}")
    return 0


def cmd_ensemble(args) -> int:
    stats = evaluator.ensemble(
        _gen_params(args),
        args.n,
        _planner_list(args.planners),
        params=_sim_params(args),
        seed0=args.seed,
        start=_start(args),
    )
    if args.format == "csv":
        print(evaluator.ensemble_to_csv(stats), end="")
    else:
        print(evaluator.ensemble_to_table(stats), end="")
    out = _out_dir(args)
    if out:
        _write(out / "ensemble.csv", evaluator.ensemble_to_csv(stats))
        print(f"wrote {out / 'ensemble.csv'}")
    return 0


def cmd_rank(args) -> int:
    repo = _load_repo(args)
    model = _load_model(args)
    if args.n > 0:
        arena = evaluator.EnsembleSpec(gen=_gen_params(args), n_maps=args.n, seed0=args.seed)
    else:
        arena = _load_map(args)
    ranked = evaluator.rank_configurations(
        model, repo, args.slot, arena, params=_sim_params(args), start=_start(args)
    )
    for position, entry in enumerate(ranked, start=1):
        flag = "" if entry.completed else " [incomplete coverage]"
        print(f"{position}. {entry.block_id} ({entry.planner}) score {entry.score:.6f}{flag}")
    out = _out_dir(args)
    if out:
        _write(out / "rank.csv", evaluator.ranking_to_csv(ranked))
        print(f"wrote {out / 'rank.csv'}")
    return 0


def cmd_demo(args) -> int:
    out = _out_dir(args) or FilePath(".")
    repo = demo.build_demo_repository()
    model = demo.build_demo_model(repo)
    repo_path = out / f"demo{repository.REPOSITORY_SUFFIX}"
    model_path = out / f"demo{repository.MODEL_SUFFIX}"
    map_path = out / "reference.terrain.txt"
    _write(repo_path, repository.save(repo))
    _write(model_path, repository.save_model(model))
    _write(map_path, demo.REFERENCE_MAP_TEXT)
    print(f"wrote {repo_path}")
    print(f"wrote {model_path}")
    print(f"wrote {map_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
