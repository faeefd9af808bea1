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
import os

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from .errors import CovarianceError, DisconnectedError, InputError, MismatchError

# Measurement covariance (diagonal variances) assigned to edges that do not
# specify one.
DEFAULT_SIGMA_DIAG = (0.1, 0.1, 0.001)

# Largest summed edge length: plan lengths sum at most about V^2 distances,
# each at most this, so they stay finite on graphs of up to 10^4 vertices.
MAX_TOTAL_LENGTH = 1e300


def _floats(value, what: str) -> np.ndarray:
    """``value`` as a float array, or an InputError naming ``what`` if it
    holds anything but numbers."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{what} entries must be numbers, got {value!r}") from None


def sigma_matrix(diag, what: str = "sigma") -> np.ndarray:
    """Build a diagonal 3x3 covariance from per-axis variances; ``what``
    names the entry in error messages."""
    d = _floats(diag, what)
    if d.shape != (3,):
        raise InputError(f"{what} must have 3 entries, got {diag!r}")
    return np.diag(d)


def default_sigma() -> np.ndarray:
    return np.diag(DEFAULT_SIGMA_DIAG)


def entries_close(a, b, atol: float) -> np.ndarray:
    """Entrywise ``np.isclose(a, b, atol=atol)`` without its per-call
    overhead: |a - b| <= atol + 1e-5 * |b| and ``b`` finite.  It differs
    from ``np.isclose`` only where both hold the same infinity, which
    ``np.isclose`` calls close and this does not."""
    with np.errstate(invalid="ignore"):  # inf - inf
        return (np.abs(a - b) <= atol + 1e-5 * np.abs(b)) & np.isfinite(b)


def check_spd(mat: np.ndarray, what: str) -> np.ndarray:
    """Validate finiteness, symmetry and positive-definiteness; returns the
    matrix."""
    return check_spd_batch(np.asarray(mat, dtype=float)[None], lambda k: what)[0]


def check_spd_batch(mats, what) -> np.ndarray:
    """Validate a (k,3,3) stack of covariances at once; returns it as floats.

    Each matrix must be finite, symmetric and positive-definite.  Symmetric
    means ``entries_close(m, m.T, 1e-12)``: each entry lies within
    1e-12 + 1e-5 * |mirror entry| of its mirror, so an off-diagonal pair of
    1.0 and 1.000005 passes.  The error names the first failing matrix,
    ``what(k)`` for row k, and gives the first check it fails, in that
    order.
    """
    mats = np.asarray(mats, dtype=float)
    if mats.shape[1:] != (3, 3):
        raise CovarianceError(f"{what(0)}: covariance must be 3x3, got {mats.shape[1:]}")
    finite = np.isfinite(mats).all(axis=(1, 2))
    symmetric = entries_close(mats, mats.transpose(0, 2, 1), 1e-12).all(axis=(1, 2))
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


def _batch(rows, mats, what, size):
    """Index and matrix arrays of one batched covariance write; their counts
    must match and every index must lie in [0, size)."""
    rows = np.asarray(rows, dtype=np.intp).reshape(-1)
    mats = np.asarray(mats, dtype=float)
    count = len(mats) if mats.ndim else 1
    if count != len(rows):
        raise InputError(f"covariance write: {len(rows)} {what} but {count} matrices")
    outside = (rows < 0) | (rows >= size)
    if outside.any():
        raise InputError(f"covariance write: {what} hold {rows[outside][0]}, "
                         f"outside [0, {size})")
    return rows, mats


def _is_id(vid) -> bool:
    """Whether ``vid`` can be a vertex id: a string or an integer, but not a
    bool, which Python counts as an integer and which equals 0 or 1."""
    return isinstance(vid, (str, int)) and not isinstance(vid, bool)


def _adjacency(ends, weights, n: int) -> csr_matrix:
    """(n, n) sparse matrix of the edges whose vertex indices are the rows
    of the (k, 2) ``ends``, each edge stored in both directions with its
    weight.  Searches on it run directed: an undirected one builds the
    transpose on every call."""
    i, j = np.asarray(ends, dtype=np.intp).reshape(-1, 2).T
    w = np.asarray(weights, dtype=float)
    return csr_matrix((np.r_[w, w], (np.r_[i, j], np.r_[j, i])), shape=(n, n))


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
            if not _is_id(vid):
                raise InputError(f"vertex id {vid!r} must be a string or an integer")
            if vid in self.index:
                raise InputError(f"duplicate vertex id {vid!r}")
            try:
                x, y = float(x), float(y)
            except (TypeError, ValueError, OverflowError):
                raise InputError(
                    f"vertex {vid!r} position must be numeric, got ({x!r}, {y!r})"
                ) from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise InputError(f"vertex {vid!r} has non-finite position ({x}, {y})")
            self.index[vid] = len(self.ids)
            self.ids.append(vid)
            pos.append((x, y))
        self.positions = np.asarray(pos, dtype=float).reshape(len(self.ids), 2)

        if not _is_id(start) or start not in self.index:
            raise InputError(f"unknown start vertex {start!r}")
        self.start = start

        self._edge_row = {}  # frozenset({u,v}) -> row of edges / edge_covs
        self.edges = []
        covs = [self._add_edge_checked(u, v, length, cov) for u, v, length, cov in edges]
        self.edge_covs = np.empty((len(self.edges), 3, 3))
        self.set_edge_covs(range(len(self.edges)), covs)
        total = sum(length for _, _, length in self.edges)
        if total > MAX_TOTAL_LENGTH:
            raise InputError(f"edge lengths sum to {total:g}, above {MAX_TOTAL_LENGTH:g}")
        self.edge_ends = np.array(
            [(self.index[u], self.index[v]) for u, v, _ in self.edges], dtype=np.intp
        ).reshape(-1, 2)
        self.region_covs = np.tile(default_sigma(), (len(self.ids), 1, 1))
        self.topology_revision = 0
        labels = connected_components(
            _adjacency(self.edge_ends, np.ones(len(self.edges)), len(self.ids)))[1]
        outside = np.flatnonzero(labels != labels[self.index[start]])
        if len(outside):
            raise DisconnectedError(f"vertex {self.ids[outside[0]]!r} is unreachable "
                                    f"from start {self.start!r}")

    # -- construction helpers -------------------------------------------

    def _add_edge_checked(self, u, v, length, cov, check=None) -> np.ndarray:
        """Validate one edge and record its topology; returns its 3x3
        covariance, validated by ``check`` if given, for the caller to store."""
        for vid in (u, v):
            if not _is_id(vid) or vid not in self.index:
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
        except (TypeError, ValueError, OverflowError):
            raise InputError(f"{what} length must be a number, got {length!r}") from None
        if not (length > 0 and math.isfinite(length)):
            raise InputError(f"{what} length must be finite and positive, got {length}")
        if cov is None:
            cov = default_sigma()
        else:
            try:
                cov = np.asarray(cov, dtype=float)
            except (TypeError, ValueError, OverflowError):
                raise InputError(f"{what} sigma must hold numbers, got {cov!r}") from None
            if cov.ndim == 1:
                cov = sigma_matrix(cov, f"{what} sigma")
            elif cov.shape != (3, 3):
                raise CovarianceError(f"{what}: covariance must be 3x3, got {cov.shape}")
        if check is not None:
            cov = check(cov, what)
        self._edge_row[key] = len(self.edges)
        self.edges.append((u, v, length))
        return cov

    # -- queries --------------------------------------------------------

    def __len__(self):
        return len(self.ids)

    def position(self, vid) -> np.ndarray:
        return self.positions[self.index[vid]]

    def has_edge(self, u, v) -> bool:
        return frozenset((u, v)) in self._edge_row

    def edge_length(self, u, v) -> float:
        return self.edges[self.edge_row(u, v)][2]

    def edge_row(self, u, v) -> int:
        """Row of the edge (u, v) in ``edges``, ``edge_covs`` and
        ``edge_ends``."""
        try:
            return self._edge_row[frozenset((u, v))]
        except KeyError:
            raise InputError(f"no edge ({u!r}, {v!r})") from None

    def pair_covs(self, a, b) -> np.ndarray:
        """Covariances of factors between the regions at vertex indices
        ``a`` and ``b`` (arrays or ints): the mean of each pair's two region
        matrices."""
        return 0.5 * (self.region_covs[a] + self.region_covs[b])

    # -- online updates --------------------------------------------------

    def add_edge(self, u, v, length=None, cov=None):
        cov = self._add_edge_checked(u, v, length, cov, check_spd)
        self.edge_covs = np.concatenate([self.edge_covs, cov[None]])
        self.edge_ends = np.vstack([self.edge_ends, (self.index[u], self.index[v])])
        self.topology_revision += 1

    def set_region_covs(self, idx, mats):
        """Write the (k,3,3) ``mats`` to the vertex indices ``idx``: all of
        them after one batched validation, or none."""
        idx, mats = _batch(idx, mats, "vertex indices", len(self.ids))
        if len(idx):
            self.region_covs[idx] = check_spd_batch(
                mats, lambda k: f"region {self.ids[idx[k]]!r}")

    def set_edge_covs(self, rows, mats):
        """Write the (k,3,3) ``mats`` to the edge rows ``rows``: all of them
        after one batched validation, or none."""
        rows, mats = _batch(rows, mats, "edge rows", len(self.edges))
        if len(rows):
            self.edge_covs[rows] = check_spd_batch(
                mats, lambda k: "edge ({!r}, {!r})".format(*self.edges[rows[k]][:2]))

    def copy(self) -> "PriorGraph":
        g = PriorGraph.__new__(PriorGraph)
        g.ids = list(self.ids)
        g.index = dict(self.index)
        g.positions = self.positions.copy()
        g.start = self.start
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
                    "sigma": _sigma_entry(cov),
                }
                for (u, v, length), cov in zip(self.edges, self.edge_covs)
            ],
            "start": self.start,
        }


def _sigma_entry(cov: np.ndarray) -> list:
    """A covariance as a document writes it: its diagonal when the matrix is
    diagonal, else the full nested 3x3 list."""
    diag = np.diagonal(cov)
    return (diag if np.array_equal(cov, np.diag(diag)) else cov).tolist()


def load_prior_graph(document) -> PriorGraph:
    """Parse a prior-graph document: a parsed object, or the path of a JSON
    file holding one.

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


def _read_json(path):
    """The JSON value of the UTF-8 file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # bad JSON or UTF-8, or an integer of over 4300 digits
        raise InputError(f"{path}: invalid JSON: {exc}") from None


def _as_dict(document) -> dict:
    if isinstance(document, (str, os.PathLike)):
        document = _read_json(document)
    if not isinstance(document, dict):
        raise InputError(f"document must be a JSON object, got {type(document).__name__}")
    return document


class MetricClosure:
    """All-pairs shortest-path distances with path reconstruction.

    Bound to one topology of a prior graph: ``fresh()`` reports whether an
    edge has been added since this closure was computed.  Covariance writes
    leave it fresh, since they change no length.
    """

    def __init__(self, graph: PriorGraph):
        weights = _adjacency(graph.edge_ends, [e[2] for e in graph.edges], len(graph))
        dist, pred = dijkstra(weights, return_predecessors=True)
        self.graph = graph
        self.dist_matrix = dist
        self._pred = pred
        self.topology_revision = graph.topology_revision

    def fresh(self) -> bool:
        return self.topology_revision == self.graph.topology_revision

    def check_serves(self, graph: PriorGraph) -> None:
        """Raise MismatchError unless this closure is of ``graph`` and fresh."""
        if self.graph is not graph or not self.fresh():
            raise MismatchError("metric closure is stale for this graph")

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
