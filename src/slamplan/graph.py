"""Prior topo-metric graph: loading, validation and all-pairs shortest paths.

A prior graph describes the coarse structure of an environment: one vertex
per convex region (with a planar position in meters) and one edge per
traversable connection.  Each edge carries a length and a 3x3 SPD
measurement covariance in (m^2, m^2, rad^2); each region carries a
degeneracy matrix of the same shape, updated online during a mission.

Covariances live in two stacked arrays, (V,3,3) per vertex index and
(E,3,3) per edge row, read by index and written in batches through one
validation path.  ``pair_covs`` holds the one rule for the covariance of
a factor between two regions: the mean of their two matrices.  A graph
keeps one counter, ``topology_revision``, which moves only when an
edge is added.  Shortest-path closures depend on topology alone, so they
follow it; covariance writes leave it as it is.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import CovarianceError, DisconnectedError, InputError

# Measurement covariance (diagonal variances) assigned to edges that do not
# specify one.
DEFAULT_SIGMA_DIAG = (0.1, 0.1, 0.001)


def sigma_matrix(diag, what: str = "sigma") -> np.ndarray:
    """Build a diagonal 3x3 covariance from per-axis variances; ``what``
    names the entry in error messages."""
    try:
        d = np.asarray(diag, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"{what} entries must be numbers, got {diag!r}") from None
    if d.shape != (3,):
        raise InputError(f"{what} must have 3 entries, got {d.tolist()}")
    return np.diag(d)


def default_sigma() -> np.ndarray:
    return np.diag(DEFAULT_SIGMA_DIAG)


def check_spd(mat: np.ndarray, what: str) -> np.ndarray:
    """Validate finiteness, symmetry and positive-definiteness; returns the
    matrix."""
    return check_spd_batch(np.asarray(mat, dtype=float)[None], lambda k: what)[0]


def check_spd_batch(mats, what) -> np.ndarray:
    """Validate a (k,3,3) stack of covariances at once; returns it as floats.

    Each matrix must be finite, symmetric within 1e-12 and positive-definite.
    The error names the first failing matrix, ``what(k)`` for row k, and
    gives the first check it fails, in that order.
    """
    mats = np.asarray(mats, dtype=float)
    if mats.shape[1:] != (3, 3):
        raise CovarianceError(f"{what(0)}: covariance must be 3x3, got {mats.shape[1:]}")
    finite = np.isfinite(mats).all(axis=(1, 2))
    symmetric = np.isclose(mats, mats.transpose(0, 2, 1), atol=1e-12).all(axis=(1, 2))
    definite = finite & symmetric
    try:
        np.linalg.cholesky(mats[definite])
    except np.linalg.LinAlgError:
        # The batched factorization does not say which matrix failed.
        for k in np.flatnonzero(definite):
            try:
                np.linalg.cholesky(mats[k])
            except np.linalg.LinAlgError:
                definite[k] = False
    if definite.all():
        return mats
    k = int(np.argmin(definite))
    if not finite[k]:
        reason = "has non-finite entries"
    elif not symmetric[k]:
        reason = "not symmetric"
    else:
        reason = "not positive-definite"
    raise CovarianceError(f"{what(k)}: covariance {reason}")


def _batch(rows, mats, what):
    """Index and matrix arrays of one batched covariance write; their counts
    must match."""
    rows = np.asarray(rows, dtype=np.intp).reshape(-1)
    mats = np.asarray(mats, dtype=float)
    count = len(mats) if mats.ndim else 1
    if count != len(rows):
        raise InputError(f"covariance write: {len(rows)} {what} but {count} matrices")
    return rows, mats


class PriorGraph:
    """Undirected topo-metric graph with positions, lengths and covariances.

    Vertices are identified by user ids (ints or strings); all numeric work
    uses dense indices in insertion order.  ``region_covs`` is the (V,3,3)
    array of region matrices by vertex index; ``edge_covs`` the (E,3,3)
    array of edge covariances in ``edges`` order, whose endpoint indices are
    the rows of the (E,2) ``edge_ends``.  Only ``add_edge`` bumps
    ``topology_revision``, so cached shortest-path closures survive
    covariance writes.
    """

    def __init__(self, vertices, edges, start):
        # vertices: iterable of (id, x, y); edges: (u, v, length|None, cov|None)
        self.ids = []
        self.index = {}
        pos = []
        for vid, x, y in vertices:
            if vid in self.index:
                raise InputError(f"duplicate vertex id {vid!r}")
            try:
                x, y = float(x), float(y)
            except (TypeError, ValueError):
                raise InputError(
                    f"vertex {vid!r} position must be numeric, got ({x!r}, {y!r})"
                ) from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise InputError(f"vertex {vid!r} has non-finite position ({x}, {y})")
            self.index[vid] = len(self.ids)
            self.ids.append(vid)
            pos.append((x, y))
        self.positions = np.asarray(pos, dtype=float).reshape(len(self.ids), 2)

        if start not in self.index:
            raise InputError(f"unknown start vertex {start!r}")
        self.start = start

        self.adjacency = {vid: {} for vid in self.ids}  # id -> {neighbor: length}
        self._edge_row = {}  # frozenset({u,v}) -> row of edges / edge_covs
        self.edges = []
        covs = [self._add_edge_checked(u, v, length, cov) for u, v, length, cov in edges]
        self.edge_covs = np.array(covs, dtype=float).reshape(-1, 3, 3)
        self.edge_ends = np.array(
            [(self.index[u], self.index[v]) for u, v, _ in self.edges], dtype=np.intp
        ).reshape(-1, 2)
        self.region_covs = np.tile(default_sigma(), (len(self.ids), 1, 1))
        self.topology_revision = 0
        self._check_connected()

    # -- construction helpers -------------------------------------------

    def _add_edge_checked(self, u, v, length, cov) -> np.ndarray:
        """Validate one edge and record its topology; returns its covariance
        for the caller to store."""
        for vid in (u, v):
            if vid not in self.index:
                raise InputError(f"edge ({u!r}, {v!r}) references unknown vertex {vid!r}")
        if u == v:
            raise InputError(f"self-loop at vertex {u!r}")
        key = frozenset((u, v))
        if key in self._edge_row:
            raise InputError(f"duplicate edge ({u!r}, {v!r})")
        what = f"edge ({u!r}, {v!r})"
        if length is None:
            length = float(np.linalg.norm(self.position(u) - self.position(v)))
        try:
            length = float(length)
        except (TypeError, ValueError):
            raise InputError(f"{what} length must be a number, got {length!r}") from None
        if not (length > 0 and math.isfinite(length)):
            raise InputError(f"{what} length must be finite and positive, got {length}")
        if cov is None:
            cov = default_sigma()
        else:
            try:
                cov = np.asarray(cov, dtype=float)
            except (TypeError, ValueError):
                raise InputError(f"{what} sigma must hold numbers, got {cov!r}") from None
            if cov.ndim == 1:
                cov = sigma_matrix(cov, f"{what} sigma")
        cov = check_spd(cov, what)
        self.adjacency[u][v] = length
        self.adjacency[v][u] = length
        self._edge_row[key] = len(self.edges)
        self.edges.append((u, v, length))
        return cov

    def _check_connected(self):
        seen = {self.start}
        stack = [self.start]
        while stack:
            for nb in self.adjacency[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != len(self.ids):
            missing = next(v for v in self.ids if v not in seen)
            raise DisconnectedError(
                f"vertex {missing!r} is unreachable from start {self.start!r}"
            )

    # -- queries --------------------------------------------------------

    def __len__(self):
        return len(self.ids)

    def num_edges(self):
        return len(self.edges)

    def position(self, vid) -> np.ndarray:
        return self.positions[self.index[vid]]

    def has_edge(self, u, v) -> bool:
        return v in self.adjacency.get(u, ())

    def edge_length(self, u, v) -> float:
        try:
            return self.adjacency[u][v]
        except KeyError:
            raise InputError(f"no edge ({u!r}, {v!r})") from None

    def edge_row(self, u, v) -> int:
        """Row of the edge (u, v) in ``edges``, ``edge_covs`` and
        ``edge_ends``."""
        try:
            return self._edge_row[frozenset((u, v))]
        except KeyError:
            raise InputError(f"no edge ({u!r}, {v!r})") from None

    def edge_cov(self, u, v) -> np.ndarray:
        return self.edge_covs[self.edge_row(u, v)]

    def pair_covs(self, a, b) -> np.ndarray:
        """Covariances of factors between the regions at vertex indices
        ``a`` and ``b`` (arrays or ints): the mean of each pair's two region
        matrices."""
        return 0.5 * (self.region_covs[a] + self.region_covs[b])

    def neighbors(self, u):
        return self.adjacency[u].keys()

    # -- online updates --------------------------------------------------

    def add_edge(self, u, v, length=None, cov=None):
        cov = self._add_edge_checked(u, v, length, cov)
        self.edge_covs = np.concatenate([self.edge_covs, cov[None]])
        self.edge_ends = np.vstack([self.edge_ends, (self.index[u], self.index[v])])
        self.topology_revision += 1

    def set_region_covs(self, idx, mats):
        """Write the (k,3,3) ``mats`` to the vertex indices ``idx``: all of
        them after one batched validation, or none."""
        idx, mats = _batch(idx, mats, "vertex indices")
        if len(idx):
            self.region_covs[idx] = check_spd_batch(
                mats, lambda k: f"region {self.ids[idx[k]]!r}")

    def set_edge_covs(self, rows, mats):
        """Write the (k,3,3) ``mats`` to the edge rows ``rows``: all of them
        after one batched validation, or none."""
        rows, mats = _batch(rows, mats, "edge rows")
        if len(rows):
            self.edge_covs[rows] = check_spd_batch(
                mats, lambda k: "edge ({!r}, {!r})".format(*self.edges[rows[k]][:2]))

    def set_edge_cov(self, u, v, cov):
        self.set_edge_covs([self.edge_row(u, v)], np.asarray(cov, dtype=float)[None])

    def set_region_cov(self, vid, cov):
        if vid not in self.index:
            raise InputError(f"unknown vertex {vid!r}")
        self.set_region_covs([self.index[vid]], np.asarray(cov, dtype=float)[None])

    def copy(self) -> "PriorGraph":
        g = PriorGraph.__new__(PriorGraph)
        g.ids = list(self.ids)
        g.index = dict(self.index)
        g.positions = self.positions.copy()
        g.start = self.start
        g.adjacency = {v: dict(nbrs) for v, nbrs in self.adjacency.items()}
        g._edge_row = dict(self._edge_row)
        g.edges = list(self.edges)
        g.edge_covs = self.edge_covs.copy()
        g.edge_ends = self.edge_ends.copy()
        g.region_covs = self.region_covs.copy()
        g.topology_revision = self.topology_revision
        return g

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "vertices": [
                {"id": vid, "x": self.positions[i, 0], "y": self.positions[i, 1]}
                for i, vid in enumerate(self.ids)
            ],
            "edges": [
                {
                    "u": u,
                    "v": v,
                    "length": length,
                    "sigma": np.diag(cov).tolist(),
                }
                for (u, v, length), cov in zip(self.edges, self.edge_covs)
            ],
            "start": self.start,
        }


def load_prior_graph(document) -> PriorGraph:
    """Parse a prior-graph document (JSON text, path, or parsed dict).

    Missing edge lengths default to the Euclidean distance between endpoint
    positions; missing edge covariances default to the package-wide default.
    """
    doc = _as_dict(document)
    try:
        raw_vertices = doc["vertices"]
        raw_edges = doc["edges"]
        start = doc["start"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"prior-graph document missing key: {exc}") from None
    for key, raw in (("vertices", raw_vertices), ("edges", raw_edges)):
        if not isinstance(raw, list):
            raise InputError(
                f"prior-graph {key!r} must be a list, got {type(raw).__name__}"
            )

    vertices = []
    for item in raw_vertices:
        try:
            vertices.append((item["id"], item["x"], item["y"]))
        except (KeyError, TypeError):
            raise InputError(f"malformed vertex entry {item!r}") from None
    edges = []
    for item in raw_edges:
        try:
            edges.append((item["u"], item["v"], item.get("length"), item.get("sigma")))
        except (AttributeError, KeyError, TypeError):
            raise InputError(f"malformed edge entry {item!r}") from None
    return PriorGraph(vertices, edges, start)


def _as_dict(document) -> dict:
    if isinstance(document, dict):
        return document
    text = str(document)
    if not text.lstrip().startswith("{"):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {text}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from None


class MetricClosure:
    """All-pairs shortest-path distances with path reconstruction.

    Bound to one topology of a prior graph: ``fresh()`` reports whether an
    edge has been added since this closure was computed.  Covariance writes
    leave it fresh, since they change no length.
    """

    def __init__(self, graph: PriorGraph):
        n = len(graph)
        rows, cols, data = [], [], []
        for u, v, length in graph.edges:
            i, j = graph.index[u], graph.index[v]
            rows += [i, j]
            cols += [j, i]
            data += [length, length]
        weights = csr_matrix((data, (rows, cols)), shape=(n, n))
        dist, pred = dijkstra(weights, directed=False, return_predecessors=True)
        if not np.all(np.isfinite(dist)):
            bad = int(np.argwhere(~np.isfinite(dist))[0, 1])
            raise DisconnectedError(f"vertex {graph.ids[bad]!r} unreachable")
        self.graph = graph
        self.dist_matrix = dist
        self._pred = pred
        self.topology_revision = graph.topology_revision

    def fresh(self) -> bool:
        return self.topology_revision == self.graph.topology_revision

    def dist(self, u, v) -> float:
        g = self.graph
        return float(self.dist_matrix[g.index[u], g.index[v]])

    def path(self, u, v) -> list:
        """Shortest path from u to v as a list of vertex ids (inclusive)."""
        g = self.graph
        i, j = g.index[u], g.index[v]
        if i == j:
            return [u]
        chain = [j]
        while chain[-1] != i:
            p = self._pred[i, chain[-1]]
            if p < 0:
                raise DisconnectedError(f"no path {u!r} -> {v!r}")
            chain.append(int(p))
        return [g.ids[k] for k in reversed(chain)]


def metric_closure(graph: PriorGraph) -> MetricClosure:
    return MetricClosure(graph)
