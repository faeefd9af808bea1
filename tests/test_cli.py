import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import slamplan
from slamplan.bench import TIMING_COLUMNS
from slamplan.cli import main
from slamplan.errors import InputError
from slamplan.graph import load_prior_graph
from slamplan.sim import load_world


@pytest.fixture()
def graph_file(tmp_path, path3):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(path3.to_dict()))
    return str(path)


@pytest.fixture()
def world_file(tmp_path, path3):
    path = tmp_path / "world.json"
    path.write_text(json.dumps({"graph": path3.to_dict()}))
    return str(path)


def test_plan_on_path_graph(graph_file, capsys):
    assert main(["plan", graph_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["walk"] == ["a", "b", "c"]
    assert doc["actions"] == []
    assert doc["assumption_ok"] is True
    assert doc["d_tsp"] == pytest.approx(2.0)


def test_plan_writes_file(graph_file, tmp_path):
    out = tmp_path / "plan.json"
    assert main(["plan", graph_file, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {
        "walk", "actions", "objective", "base_distance", "d_tsp",
        "assumption_ok",
    }


def test_simulate_document_and_events(graph_file, world_file, tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    code = main([
        "simulate", graph_file, world_file, "--seed", "3",
        "--events", str(events),
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 3
    assert doc["strategy"] == "slam_aware"
    assert {"ape_rmse", "total_distance", "pose_count"} <= set(doc["metrics"])
    lines = [json.loads(ln) for ln in events.read_text().splitlines()]
    assert lines[0]["event"] == "visit"
    assert all("event" in e for e in lines)


def test_simulate_same_seed_identical(graph_file, world_file, capsys):
    main(["simulate", graph_file, world_file, "--seed", "7"])
    first = capsys.readouterr().out
    main(["simulate", graph_file, world_file, "--seed", "7"])
    assert capsys.readouterr().out == first


def test_gen_graph_roundtrip(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"width": 4, "height": 4, "seed": 2}))
    assert main(["gen-graph", str(spec)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {"vertices", "edges", "start"} <= set(doc)
    g = load_prior_graph(doc)
    assert len(g) >= 4


def test_bench_prune_accepts_spec_or_graph(tmp_path, graph_file, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"width": 4, "height": 4, "seed": 1}))
    assert main(["bench-prune", str(spec)]) == 0
    header = capsys.readouterr().out.splitlines()[0].split(",")
    assert header == [
        "vertices", "candidates", "after_omega_max", "after_prop1", "ratio",
        "selected", "per_iteration", "t_prune_s", "t_no_prune_s", "speedup",
    ]

    assert main(["bench-prune", graph_file]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].split(",")[0] == "3"


def _strip_timings(csv_text):
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    keep = [i for i, col in enumerate(header) if col not in TIMING_COLUMNS]
    return "\n".join(
        ",".join(ln.split(",")[i] for i in keep if i < len(ln.split(",")))
        for ln in lines
    )


def test_bench_prune_rerun_identical_excluding_timings(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"width": 5, "height": 5, "seed": 4}))
    main(["bench-prune", str(spec)])
    first = capsys.readouterr().out
    main(["bench-prune", str(spec)])
    second = capsys.readouterr().out
    assert _strip_timings(first) == _strip_timings(second)


def test_compare_csv_and_determinism(graph_file, world_file, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["compare", graph_file, world_file, "--seeds", "2"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header.startswith("seed,strategy,")


def test_missing_file_exit_and_message(capsys):
    code = main(["plan", "/nonexistent/graph.json"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "/nonexistent/graph.json" in err


@pytest.mark.parametrize("command, flag", [
    ("plan", "--out"), ("simulate", "--out"), ("simulate", "--events"), ("gen-graph", "--out"),
])
def test_unwritable_output_exits_with_error(graph_file, world_file, tmp_path, capsys,
                                            command, flag):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"width": 4, "height": 4, "seed": 2}))
    inputs = {"plan": [graph_file], "simulate": [graph_file, world_file],
              "gen-graph": [str(spec)]}[command]
    out = str(tmp_path / "missing" / "out.json")
    assert main([command, *inputs, flag, out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert "No such file or directory" in err


def test_invalid_json_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["plan", str(bad)]) == 2
    assert "bad.json" in capsys.readouterr().err


def test_non_utf8_file_exits_with_error(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_bytes(b'{"width": "\xff"}')
    assert main(["gen-graph", str(spec)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {spec}: invalid JSON: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("content", [b'{"start": "\xff"}', b"{not json"],
                         ids=["non-utf8", "malformed"])
def test_cli_and_loaders_report_a_bad_file_alike(tmp_path, graph_file, capsys, content):
    # one reader serves the loaders and every command, and names the path
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(InputError) as err:
        load_prior_graph(str(path))
    message = str(err.value)
    assert message.startswith(f"{path}: invalid JSON: ")
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        load_world(path)
    for args in (["plan", str(path)], ["simulate", graph_file, str(path)],
                 ["gen-graph", str(path)], ["bench-prune", str(path)]):
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
                    reason="this Python parses integers of any length")
def test_integer_beyond_json_digit_limit_exits_with_error(tmp_path, capsys):
    # Python's int parser refuses more than 4300 digits with a ValueError
    spec = tmp_path / "spec.json"
    spec.write_text('{"width": ' + "1" * 5000 + "}")
    assert main(["gen-graph", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec}: invalid JSON: Exceeds the limit")


@pytest.mark.parametrize("key,value", [("vertices", 5), ("edges", 3)])
def test_plan_non_list_key_exits_with_error(tmp_path, path3, capsys, key, value):
    doc = dict(path3.to_dict(), **{key: value})
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    assert main(["plan", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert repr(key) in err


def test_plan_non_numeric_position_exits_with_error(tmp_path, path3, capsys):
    doc = path3.to_dict()
    doc["vertices"][1]["x"] = "abc"
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    assert main(["plan", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: vertex 'b' position must be numeric")


_TRIANGLE = [{"id": v, "x": float(k), "y": 0.0} for k, v in enumerate("abc")]


@pytest.mark.parametrize("doc, message", [
    ({"vertices": [{"id": [1], "x": 0, "y": 0}], "edges": [], "start": [1]},
     "vertex id [1] must be a string or an integer"),
    ({"vertices": _TRIANGLE, "edges": [{"u": ["a"], "v": "b"}], "start": "a"},
     "edge (['a'], 'b') references unknown vertex ['a']"),
    ([], "document must be a JSON object, got list"),
    ({"vertices": _TRIANGLE, "start": "a",
      "edges": [{"u": u, "v": v, "length": 1e308} for u, v in ("ab", "bc", "ac")]},
     "edge lengths sum to inf, above 1e+300"),
    ({"vertices": [{"id": 1, "x": 0, "y": 0}, {"id": True, "x": 1, "y": 0}],
      "edges": [{"u": 1, "v": True}], "start": 1},
     "vertex id True must be a string or an integer"),
    ({"vertices": [{"id": k, "x": float(k), "y": 0.0} for k in (1, 2, 3)],
      "edges": [{"u": True, "v": 2}, {"u": 2, "v": 3}], "start": 1},
     "edge (True, 2) references unknown vertex True"),
    ({"vertices": [{"id": k, "x": float(k), "y": 0.0} for k in (1, 2, 3)],
      "edges": [{"u": 1, "v": 2}, {"u": 2, "v": 3}], "start": True},
     "unknown start vertex True"),
], ids=["unhashable-id", "unhashable-endpoint", "non-object", "overflowing-lengths",
        "bool-id", "bool-endpoint", "bool-start"])
def test_plan_malformed_document_exits_with_error(tmp_path, capsys, doc, message):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    assert main(["plan", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("world, match", [
    ({"region_degeneracy": [1]}, "'region_degeneracy' must be an object"),
    ({"region_degeneracy": {"b": ["x", 1, 1]}}, "vertex 'b' degeneracy entries"),
], ids=["non-object", "non-numeric"])
def test_simulate_bad_world_exits_with_error(tmp_path, path3, graph_file, capsys,
                                             world, match):
    path = tmp_path / "world.json"
    path.write_text(json.dumps(dict(world, graph=path3.to_dict())))
    assert main(["simulate", graph_file, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert match in err


def test_simulate_prior_edge_absent_from_world_exits_with_error(tmp_path, capsys):
    vertices = [{"id": v, "x": x, "y": 0.0} for v, x in (("a", 0.0), ("b", 10.0), ("c", 1.0))]
    edges = [{"u": "a", "v": "b", "length": 10.0}, {"u": "b", "v": "c", "length": 1.0},
             {"u": "a", "v": "c", "length": 1.0}]
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps({"vertices": vertices, "edges": edges, "start": "a"}))
    world = tmp_path / "world.json"
    world.write_text(json.dumps({"graph": {"vertices": vertices, "edges": edges[:2],
                                           "start": "a"}}))
    assert main(["simulate", str(prior), str(world)]) == 2
    assert capsys.readouterr().err == "error: prior edge ('a', 'c') absent from world\n"


@pytest.mark.parametrize("spoil, message", [
    (lambda order: order + order[1:2], "tour order repeats vertex "),
    (lambda order: order[:-1], "tour order misses vertex "),
    (lambda order: order[1:], "tour order must begin at the start vertex "),
], ids=["repeated", "missing", "no-start"])
def test_simulate_with_a_bad_replan_order_exits_with_error(monkeypatch, capsys, spoil, message):
    # A replan whose remainder order is not the tour's vertex set with the
    # start first fails as an InputError, which the CLI reports with code 2.
    from slamplan.mission import Mission

    remaining = Mission._remaining_order
    monkeypatch.setattr(Mission, "_remaining_order", lambda self: spoil(remaining(self)))
    envs = Path(slamplan.__file__).resolve().parent / "envs"
    assert main(["simulate", str(envs / "env1.json"), str(envs / "env1_world.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message) and err.count("\n") == 1


def test_compare_too_few_seeds(graph_file, world_file, capsys):
    code = main(["compare", graph_file, world_file, "--seeds", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("args", [
    ["simulate", "--seed", "-1"],
    ["compare", "--seeds", "2", "--seed-start", "-3"],
], ids=["simulate", "compare"])
def test_negative_seed_exits_with_error(graph_file, world_file, capsys, args):
    code = main([args[0], graph_file, world_file] + args[1:])
    assert code == 2
    seed = args[-1]
    assert capsys.readouterr().err == (
        f"error: seed must be a non-negative integer, got {seed}\n")


@pytest.mark.parametrize("command", ["gen-graph", "bench-prune"])
@pytest.mark.parametrize("doc, match", [
    ({"cell": 0}, "'cell' must be positive, got 0"),
    ({"width": "a"}, "'width' must be a finite number, got 'a'"),
    ({"height": True}, "'height' must be a finite number, got True"),
    ({"vertex_removal": 2.0}, "'vertex_removal' must be in [0, 1), got 2.0"),
    ({"edge_removal": 1}, "'edge_removal' must be in [0, 1), got 1"),
    ({"seed": -1}, "'seed' must be a non-negative integer, got -1"),
    ({"seed": 1.5}, "'seed' must be a non-negative integer, got 1.5"),
    ({"position_noise_sigma": -1}, "'position_noise_sigma' must be non-negative"),
    ({"width": None}, "'width' must be a finite number, got None"),
    ({"width": float("inf")}, "'width' must be a finite number, got inf"),
    ([1, 2], "grid spec must be a JSON object, got list"),
    (5, "grid spec must be a JSON object, got int"),
    ({"width": 10**400}, "'width' must be a finite number, got 1000"),
    ({"width": 1e308, "cell": 1e-10}, "in cells of 1e-10 has no finite cell count"),
], ids=["zero-cell", "text-width", "bool-height", "removal-above-one",
        "removal-one", "negative-seed", "float-seed", "negative-sigma",
        "null-width", "infinite-width", "list", "number", "huge-int-width",
        "infinite-cell-count"])
def test_bad_grid_spec_exits_with_error(tmp_path, capsys, command, doc, match):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert main([command, str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert match in err



def test_gen_graph_on_huge_grid_exits_with_error_in_seconds(tmp_path):
    # Run apart, with a timeout and a 2 GB address-space cap, so that a
    # generator that builds the lattice before checking its size fails this
    # test quickly instead of hanging the suite or starving the machine.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"width": 1e9, "height": 1e9}))
    src = str(Path(slamplan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    done = subprocess.run([sys.executable, "-m", "slamplan.cli", "gen-graph", str(spec)],
                          capture_output=True, text=True, timeout=60, env=env,
                          preexec_fn=cap_memory)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == ("error: grid of 1000000000x1000000000 cells is above the "
                           "10000-cell limit\n")
