"""Instance generation and benchmark harnesses.

Random grid-like graphs: a rectangular lattice loses a fraction of its
vertices and edges (resampled until connected), then vertex positions get
Gaussian jitter.  The pruning benchmark runs the greedy loop selection
twice, with and without candidate filtering, checks the selections agree,
and reports survivor counts and wall-clock times.  The strategy benchmark
scores both strategies on paired seeds and summarizes the error/distance
tradeoff.
"""

from __future__ import annotations

import io
import csv
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import connected_components

from .errors import InputError, MismatchError
from .graph import PriorGraph, _adjacency
from .loops import enumerate_candidates, exact_prune_test, greedy_select
from .mission import MissionConfig, replay_mission, run_mission
from .planner import STRATEGIES, compute_plan
from .sim import WorldModel, _check_seed

_MAX_ATTEMPTS = 100

# Most cells a generated grid may have (100x100 at the default cell): the
# scale graph.MAX_TOTAL_LENGTH is sized for.
_MAX_GRID_CELLS = 10_000

# Range of each grid spec value that has one: (test, wording for errors).
_FRACTION = (lambda x: 0 <= x < 1, "in [0, 1)")
_SPEC_RANGES = {
    "cell": (lambda x: x > 0, "positive"),
    "vertex_removal": _FRACTION,
    "edge_removal": _FRACTION,
    "position_noise_sigma": (lambda x: x >= 0, "non-negative"),
    "seed": (lambda x: isinstance(x, int) and x >= 0, "a non-negative integer"),
}


@dataclass
class GridGraphSpec:
    """Parameters of the random grid-like generator."""

    width: float = 10.0
    height: float = 10.0
    cell: float = 1.0
    vertex_removal: float = 0.05
    edge_removal: float = 0.05
    position_noise_sigma: float = 0.2
    seed: int = 0

    @classmethod
    def from_dict(cls, doc: dict) -> "GridGraphSpec":
        """Build a spec from a parsed JSON object; each value must be a
        finite number in its key's range, or an ``InputError`` names it."""
        if not isinstance(doc, dict):
            raise InputError(f"grid spec must be a JSON object, got {type(doc).__name__}")
        extra = set(doc) - set(cls.__dataclass_fields__)
        if extra:
            raise InputError(f"unknown grid spec keys: {sorted(extra)}")
        for key, value in doc.items():
            try:
                finite = not isinstance(value, bool) and math.isfinite(value)
            except (TypeError, OverflowError):  # not a number, or no float holds it
                finite = False
            if not finite:
                raise InputError(f"grid spec {key!r} must be a finite number, got {value!r}")
            rule = _SPEC_RANGES.get(key)
            if rule and not rule[0](value):
                raise InputError(f"grid spec {key!r} must be {rule[1]}, got {value!r}")
        return cls(**doc)


def gen_grid_graph(spec: GridGraphSpec) -> PriorGraph:
    """Connected jittered lattice; one vertex per cell of the footprint.

    Removal happens on the exact lattice first; positions are perturbed
    only after a connected topology is found, so the jitter never affects
    which removal sets are viable.
    """
    try:
        nx = int(round(spec.width / spec.cell))
        ny = int(round(spec.height / spec.cell))
    except (OverflowError, ValueError):  # an infinite or NaN cell count
        raise InputError(f"grid of {spec.width!r} x {spec.height!r} in cells of "
                         f"{spec.cell!r} has no finite cell count") from None
    if nx < 2 or ny < 2:
        raise InputError(f"grid needs at least 2x2 cells, got {nx}x{ny}")
    if nx * ny > _MAX_GRID_CELLS:
        raise InputError(f"grid of {nx}x{ny} cells is above the "
                         f"{_MAX_GRID_CELLS}-cell limit")
    n = nx * ny
    base_edges = []
    for j in range(ny):
        for i in range(nx):
            vid = j * nx + i
            if i + 1 < nx:
                base_edges.append((vid, vid + 1))
            if j + 1 < ny:
                base_edges.append((vid, vid + nx))
    rng = np.random.default_rng(spec.seed)
    n_vrem = int(round(spec.vertex_removal * n))
    for _ in range(_MAX_ATTEMPTS):
        removed = (
            set(rng.choice(n, size=n_vrem, replace=False).tolist())
            if n_vrem else set()
        )
        edges = [e for e in base_edges if e[0] not in removed and e[1] not in removed]
        n_erem = int(round(spec.edge_removal * len(edges)))
        if n_erem:
            drop = set(rng.choice(len(edges), size=n_erem, replace=False).tolist())
            edges = [e for k, e in enumerate(edges) if k not in drop]
        kept = [v for v in range(n) if v not in removed]
        if kept and _connected(kept, edges):
            break
    else:
        raise InputError(
            f"no connected graph after {_MAX_ATTEMPTS} removal attempts "
            f"(seed {spec.seed})"
        )
    jitter = (
        rng.normal(0.0, spec.position_noise_sigma, size=(len(kept), 2))
        if spec.position_noise_sigma > 0 else np.zeros((len(kept), 2))
    )
    vertices = []
    for k, vid in enumerate(kept):
        i, j = vid % nx, vid // nx
        vertices.append((vid, i * spec.cell + jitter[k, 0], j * spec.cell + jitter[k, 1]))
    return PriorGraph(
        vertices, [(u, v, None, None) for u, v in edges], start=kept[0]
    )


def _connected(kept, edges) -> bool:
    """Whether ``edges``, items that begin with two ids of ``kept``, join it."""
    index = {v: k for k, v in enumerate(kept)}
    ends = [(index[u], index[v]) for u, v, *_ in edges]
    return connected_components(_adjacency(ends, np.ones(len(ends)), len(kept)))[0] == 1


# -- pruning benchmark ---------------------------------------------------


@dataclass
class PruneReport:
    """Survivor counts and runtimes of one pruned-vs-unpruned selection."""

    num_vertices: int
    num_candidates: int
    after_omega_max: int
    after_prop1: int
    ratio: float
    selected: int
    t_prune: float
    t_no_prune: float
    per_iteration: list = field(default_factory=list)

    @property
    def speedup(self) -> float:
        return self.t_no_prune / self.t_prune if self.t_prune > 0 else np.inf


def bench_prune(graph: PriorGraph) -> PruneReport:
    """Run greedy selection twice and verify pruning changes nothing.

    The survivor counts are those of the exact prune test on every
    candidate, solved before the timed runs.  A selection mismatch is
    raised as an error: the filters are meant to be lossless, so
    disagreement is a soundness bug, not a data point.
    """
    base = compute_plan(graph, strategy="tsp_only")
    closure, apg, walk = base.closure, base.apg, base.plan.tsp_walk
    cands = enumerate_candidates(apg, closure)
    within_cap = kept = 0
    if len(cands):
        _, within, keep = exact_prune_test(apg.factor, walk.length, cands)
        within_cap, kept = int(within.sum()), int(keep.sum())
    t0 = time.perf_counter()
    pruned = greedy_select(apg, cands, walk, closure, pruning=True)
    t1 = time.perf_counter()
    plain = greedy_select(apg, cands, walk, closure, pruning=False)
    t2 = time.perf_counter()
    seq_pruned = [(c.i, c.j) for c in pruned.selected]
    seq_plain = [(c.i, c.j) for c in plain.selected]
    if seq_pruned != seq_plain:
        raise MismatchError(
            f"pruned selection {seq_pruned} differs from unpruned {seq_plain}"
        )
    total = len(cands)
    return PruneReport(
        num_vertices=len(graph),
        num_candidates=total,
        after_omega_max=within_cap,
        after_prop1=kept,
        ratio=kept / total if total else 0.0,
        selected=len(pruned.selected),
        t_prune=t1 - t0,
        t_no_prune=t2 - t1,
        per_iteration=list(pruned.trace.per_iteration),
    )


_PRUNE_COLUMNS = [
    "vertices", "candidates", "after_omega_max", "after_prop1", "ratio",
    "selected", "per_iteration", "t_prune_s", "t_no_prune_s", "speedup",
]

# Columns whose values vary run to run; determinism checks ignore them.
TIMING_COLUMNS = ("t_prune_s", "t_no_prune_s", "speedup")


def prune_report_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_PRUNE_COLUMNS)
    for r in reports:
        writer.writerow([
            r.num_vertices,
            r.num_candidates,
            r.after_omega_max,
            r.after_prop1,
            f"{r.ratio:.6f}",
            r.selected,
            "|".join(str(c) for c in r.per_iteration),
            f"{r.t_prune:.4f}",
            f"{r.t_no_prune:.4f}",
            f"{r.speedup:.2f}",
        ])
    return buf.getvalue()


# -- strategy comparison -------------------------------------------------

_COMPARE_COLUMNS = [
    "seed", "strategy", "n_pose", "k", "ape_rmse", "d_total",
    "dopt_predicted", "dopt_fim", "assumption_ok",
]


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@dataclass
class ComparisonResult:
    rows: list
    summary: dict

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_COMPARE_COLUMNS)
        for row in self.rows:
            writer.writerow([_fmt(row[c]) for c in _COMPARE_COLUMNS])
        writer.writerow([])
        for key in sorted(self.summary):
            writer.writerow([key, _fmt(self.summary[key])])
        return buf.getvalue()


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.9g}"
    return x


def _mission_worker(args):
    prior, world, strategy, seed = args
    log, metrics = run_mission(prior, world, MissionConfig(strategy=strategy), seed)
    return log.pose_graph.vertex_of_pose, metrics


def _replay_worker(args):
    return replay_mission(*args)


def compare_strategies(prior: PriorGraph, world: WorldModel, seeds,
                       workers: int | None = None) -> ComparisonResult:
    """Paired runs per seed for each strategy, with summary stats.

    No mission decision reads a measurement, so a strategy executes the
    same route under every seed (see ``mission``).  Each strategy's mission
    therefore runs once, on the first sorted seed, and ``replay_mission``
    scores its route under all other seeds as one batch: the rows are those
    of a full mission per (seed, strategy).  Both phases, one job per
    strategy each, run on one process pool of at most ``workers``
    processes, one per usable core by default, so no batch depends on the
    worker count.  Results merge in (seed, strategy) order, and the first
    error in that order is raised, so neither the report nor the error
    depends on completion order.  A pool of one runs in-process.  Seeds and
    ``workers`` are checked before any mission starts.
    """
    seeds = sorted(_check_seed(s) for s in seeds)
    if len(seeds) < 2 or len(set(seeds)) < len(seeds):
        raise InputError(f"comparison needs at least 2 seeds, all distinct, got {seeds}")
    if workers is None:
        workers = _usable_cores()
    elif isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise InputError(f"workers must be a positive integer, got {workers!r}")
    first, rest = seeds[0], seeds[1:]
    missions = [(prior, world, strategy, first) for strategy in STRATEGIES]

    def both_phases(run):
        decided = list(run(_mission_worker, missions))
        replays = run(_replay_worker, [(route, world, rest, metrics)
                                       for route, metrics in decided])
        return [m for _, m in decided] + [m for by_seed in zip(*replays) for m in by_seed]

    size = min(workers, len(STRATEGIES))  # jobs per phase
    if size > 1:
        with ProcessPoolExecutor(max_workers=size) as pool:
            scored = both_phases(pool.map)
    else:
        scored = both_phases(map)
    for outcome in scored:
        if isinstance(outcome, Exception):
            raise outcome
    jobs = [(seed, strategy) for seed in seeds for strategy in STRATEGIES]
    return _comparison(seeds, zip(jobs, scored))


def _comparison(seeds, scored) -> ComparisonResult:
    """Rows in (seed, strategy) order and summary stats from the
    ((seed, strategy), metrics) pairs of sorted, distinct ``seeds``."""
    rows = []
    by_strategy = {s: {} for s in STRATEGIES}
    for (seed, strategy), metrics in sorted(scored, key=lambda r: r[0]):
        rows.append({
            "seed": seed,
            "strategy": strategy,
            "n_pose": metrics.pose_count,
            "k": metrics.mean_degree,
            "ape_rmse": metrics.ape_rmse,
            "d_total": metrics.total_distance,
            "dopt_predicted": metrics.dopt_predicted,
            "dopt_fim": metrics.dopt_fim,
            "assumption_ok": metrics.assumption_ok,
        })
        by_strategy[strategy][seed] = metrics
    summary = {}
    for strategy in STRATEGIES:
        apes = np.array([by_strategy[strategy][s].ape_rmse for s in seeds])
        dists = np.array([by_strategy[strategy][s].total_distance for s in seeds])
        summary[f"mean_ape_{strategy}"] = float(apes.mean())
        summary[f"std_ape_{strategy}"] = float(apes.std())
        summary[f"mean_distance_{strategy}"] = float(dists.mean())
    improved = sum(
        1 for s in seeds
        if by_strategy["slam_aware"][s].ape_rmse < by_strategy["tsp_only"][s].ape_rmse
    )
    summary["improved_seeds"] = improved
    summary["total_seeds"] = len(seeds)
    base_d = summary["mean_distance_tsp_only"]
    summary["distance_overhead"] = (
        summary["mean_distance_slam_aware"] / base_d - 1.0 if base_d > 0 else 0.0
    )
    summary["assumption_ok_all"] = all(r["assumption_ok"] for r in rows)
    return ComparisonResult(rows, summary)
