"""Command-line surface: planning, simulation, generation, benchmarks.

All subcommands are deterministic given their flags and seeds; timing
columns in benchmark output are the only run-to-run variation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import (
    ComparisonResult,
    GridGraphSpec,
    bench_prune,
    compare_strategies,
    gen_grid_graph,
    prune_report_csv,
)
from .errors import SlamplanError
from .graph import _read_json, load_prior_graph
from .mission import MissionConfig, run_mission
from .planner import STRATEGIES, plan_exploration
from .sim import load_world


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _cmd_plan(args) -> int:
    plan = plan_exploration(load_prior_graph(args.graph), strategy=args.strategy)
    _write(_dump(plan.to_dict()), args.out)
    return 0


def _cmd_simulate(args) -> int:
    graph = load_prior_graph(args.graph)
    world = load_world(args.world)
    config = MissionConfig(
        strategy=args.strategy,
        replanning=not args.no_replanning,
        subpath_optimization=not args.no_subpath,
    )
    log, metrics = run_mission(graph, world, config, args.seed)
    if args.events is not None:
        lines = "".join(
            json.dumps(e, sort_keys=True) + "\n" for e in log.events
        )
        _write(lines, args.events)
    doc = {"seed": args.seed, "strategy": args.strategy,
           "metrics": metrics.to_dict()}
    _write(_dump(doc), args.out)
    return 0


def _cmd_gen_graph(args) -> int:
    spec = GridGraphSpec.from_dict(_read_json(args.spec))
    graph = gen_grid_graph(spec)
    _write(_dump(graph.to_dict()), args.out)
    return 0


def _cmd_bench_prune(args) -> int:
    doc = _read_json(args.input)
    if isinstance(doc, dict) and "vertices" in doc:
        graph = load_prior_graph(doc)
    else:
        graph = gen_grid_graph(GridGraphSpec.from_dict(doc))
    report = bench_prune(graph)
    _write(prune_report_csv([report]), args.out)
    return 0


def _cmd_compare(args) -> int:
    graph = load_prior_graph(args.graph)
    world = load_world(args.world)
    seeds = range(args.seed_start, args.seed_start + args.seeds)
    result: ComparisonResult = compare_strategies(graph, world, seeds)
    _write(result.to_csv(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slamplan",
        description="Exploration planning over prior topo-metric graphs "
                    "with loop-closing detours, plus a graph-world simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="compute an exploration plan for a graph")
    p.add_argument("graph", help="prior graph JSON file")
    p.add_argument("--strategy", choices=STRATEGIES, default="slam_aware")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("simulate", help="execute a mission in a world model")
    p.add_argument("graph")
    p.add_argument("world")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strategy", choices=STRATEGIES, default="slam_aware")
    p.add_argument("--no-replanning", action="store_true")
    p.add_argument("--no-subpath", action="store_true")
    p.add_argument("--events", default=None, help="write event log (JSON lines)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("gen-graph", help="generate a random grid-like graph")
    p.add_argument("spec", help="generator spec JSON file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen_graph)

    p = sub.add_parser("bench-prune", help="pruning benchmark (CSV report)")
    p.add_argument("input", help="generator spec or graph JSON file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bench_prune)

    p = sub.add_parser("compare", help="paired strategy comparison (CSV)")
    p.add_argument("graph")
    p.add_argument("world")
    p.add_argument("--seeds", type=int, required=True)
    p.add_argument("--seed-start", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SlamplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
