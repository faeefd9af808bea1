"""Input contract: any JSON document either loads and plans, or fails as a
``SlamplanError``; the CLI exits 0, or 2 with ``error: ...``.  Grid specs
get the same contract through ``slamplan gen-graph``."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from slamplan.cli import main
from slamplan.errors import CovarianceError, SlamplanError
from slamplan.graph import load_prior_graph
from slamplan.planner import compute_plan
from slamplan.sim import load_world

_scalars = (st.none() | st.booleans() | st.integers() | st.just(10**400)
            | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=3))
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=4,
)
_coordinate = st.floats(min_value=-1e3, max_value=1e3)
_length = (st.sampled_from([None, 1.0, 1e154, 1e308])
           | st.floats(min_value=1e-9, max_value=1e3)
           | st.floats(min_value=1e-9, max_value=1e308))
_sigma = st.none() | st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=3,
                              max_size=3)


@st.composite
def prior_documents(draw):
    """Prior-graph documents of at most 6 vertices, lengths up to 1e308,
    with any JSON value in up to two of the id, coordinate, endpoint,
    length, sigma, start, vertices and edges slots."""
    n = draw(st.integers(1, 6))
    ids = [draw(st.sampled_from([k, f"v{k}"])) for k in range(n)]
    vertices = [{"id": v, "x": draw(_coordinate), "y": draw(_coordinate)} for v in ids]
    pairs = [(k, k + 1) for k in range(n - 1)] if draw(st.integers(0, 3)) else []
    if n > 1:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        pairs += draw(st.lists(pair.filter(lambda p: p[0] != p[1]), max_size=3))
    edges = []
    for a, b in pairs:
        edge = {"u": ids[a], "v": ids[b]}
        for key, values in (("length", _length), ("sigma", _sigma)):
            value = draw(values)
            if value is not None:
                edge[key] = value
        edges.append(edge)
    doc = {"vertices": vertices, "edges": edges, "start": ids[0]}
    slots = ([(doc, key) for key in doc]
             + [(v, key) for v in vertices for key in ("id", "x", "y")]
             + [(e, key) for e in edges for key in ("u", "v", "length", "sigma")])
    corrupt = st.lists(st.integers(0, len(slots) - 1), min_size=1, max_size=2)
    for k in draw(corrupt) if draw(st.booleans()) else ():
        container, key = slots[k]
        container[key] = draw(_json)
    return doc


def _mostly(good):
    """``good`` three times in four, else any JSON value."""
    return st.one_of(good, good, good, _json)


_priors = _mostly(prior_documents())


@st.composite
def world_documents(draw):
    """World documents over ``_priors``, with diagonals or any JSON value in
    the degeneracy and loop-closure slots."""
    doc = {"graph": draw(_priors)}
    keys = st.sampled_from(["0", "1", "v0", "v1"]) | st.text(max_size=2)
    for key in ("default_degeneracy", "region_degeneracy", "loop_closure_sigma"):
        if draw(st.booleans()):
            doc[key] = draw(_mostly(_sigma | st.dictionaries(keys, _mostly(_sigma),
                                                              max_size=2)))
    return doc


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "doc.json"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=_priors)
def test_prior_documents_load_and_plan_or_fail_as_slamplan_errors(doc, doc_path):
    try:
        compute_plan(load_prior_graph(doc))
    except SlamplanError:
        pass
    doc_path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["plan", str(doc_path)])
    assert (code, err.getvalue()[:7]) in ((0, ""), (2, "error: "))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=_mostly(world_documents()))
def test_world_documents_load_or_fail_as_slamplan_errors(doc):
    try:
        load_world(doc)
    except SlamplanError:
        pass


def test_a_bad_default_degeneracy_is_named_as_such():
    # Checked once under its own key, not as the first vertex's entry.
    doc = {"graph": {"vertices": [{"id": "a", "x": 0.0, "y": 0.0}], "edges": [],
                     "start": "a"},
           "default_degeneracy": [0.1, -0.1, 0.001]}
    with pytest.raises(CovarianceError,
                       match="^default_degeneracy: covariance not positive-definite$"):
        load_world(doc)


# Grid sizes: small valid values, and extremes that give a cell count that is
# negative, below 2x2, infinite or beyond a float.  Large finite counts are
# left to the subprocess test in test_cli.py, since a generator that built
# them before checking their size would hang here.
_extent = (st.integers(2, 12) | st.floats(2.0, 12.0)
           | st.sampled_from([10**400, -10**400, -1e308, 5e-324, 0, -1]))
_cell = st.floats(0.5, 4.0) | st.sampled_from([10**400, 1e308, 5e-324, 0, -1e-3])
_fraction = st.floats(0.0, 0.5) | st.sampled_from([0.99, 1.0, -0.0, 1e308, 10**400])
_spec_values = {
    "width": _extent,
    "height": _extent,
    "cell": _cell,
    "vertex_removal": _fraction,
    "edge_removal": _fraction,
    "position_noise_sigma": _fraction,
    "seed": st.integers(0, 2**64) | st.sampled_from([-1, 1.5, 10**400]),
}
# JSON values that are not numbers: a number can size a lattice too large
# to build before its size is checked, and the size strategies hold those.
_non_numbers = _json.filter(lambda x: isinstance(x, bool) or not isinstance(x, (int, float)))


@st.composite
def grid_specs(draw):
    """Grid specs with any subset of the keys, each a size drawn above or
    any JSON value that is not a number, now and then an unknown key, or
    any JSON value that is not a number as the whole document."""
    kind = draw(st.sampled_from(["spec"] * 8 + ["unknown key", "not a spec"]))
    if kind == "not a spec":
        return draw(_non_numbers)
    doc = {}
    for key in draw(st.sets(st.sampled_from(sorted(_spec_values)))):
        odd = draw(st.sampled_from([False] * 4 + [True]))
        doc[key] = draw(_non_numbers if odd else _spec_values[key])
    if kind == "unknown key":
        doc[draw(st.text(max_size=2))] = draw(_json)
    return doc


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=grid_specs())
def test_grid_specs_generate_or_fail_as_slamplan_errors(doc, doc_path):
    doc_path.write_text(json.dumps(doc))
    out_path = doc_path.with_name("graph.json")
    out_path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["gen-graph", str(doc_path), "--out", str(out_path)])
    assert (code, err.getvalue()[:7]) in ((0, ""), (2, "error: "))
    assert out_path.exists() == (code == 0)
    if code == 0:
        load_prior_graph(str(out_path))
