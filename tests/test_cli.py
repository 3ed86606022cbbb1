import contextlib
import io
import json
import math
import os
import random
import runpy
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypercore
import hypercore.cli

from hypercore import Graph, distance_matrix, intercepted_pairs
from hypercore.cli import run_cli
from hypercore.fileio import (
    LabelTable,
    read_edge_list,
    read_family_json,
    read_pairs,
    write_edge_list,
)
from hypercore.generators import cycle_graph, gnp_connected, path_graph, random_tree
from hypercore.graphs import DEFAULT_MATRIX_CAP
from hypercore.quasiconvex import covering_radius
from oracles import ball_members, set_distance
from strategies import connected_graphs
from test_golden import CASES as GOLDEN_CASES, EXIT_CODES, GOLDEN, _run as run_golden


def run_json(capsys, argv):
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out) if captured.out.strip() else None, captured.err


def write_graph(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    write_edge_list(g, LabelTable([f"v{i}" for i in range(g.n)]), path)
    return path


def test_generate_and_roundtrip(tmp_path, capsys):
    out = tmp_path / "tree.txt"
    code, rep, err = run_json(
        capsys,
        ["--seed", "9", "generate", "--kind", "tree", "--n", "20", "--edges-out", str(out)],
    )
    assert code == 0
    assert rep["schema"] == "hypercore-report/1"
    assert rep["prng"] == "python-random-mt19937"
    assert rep["n"] == 20 and rep["m"] == 19
    g, table = read_edge_list(out)
    assert g.n == 20 and g.is_tree()
    # round-trip: the labeled edge set survives write + re-read exactly
    out2 = tmp_path / "tree2.txt"
    write_edge_list(g, table, out2)
    g2, table2 = read_edge_list(out2)
    labeled = {frozenset((table.label_of(u), table.label_of(v))) for u, v in g.edges()}
    labeled2 = {frozenset((table2.label_of(u), table2.label_of(v))) for u, v in g2.edges()}
    assert labeled == labeled2


@pytest.mark.parametrize(
    "flags, kind, name",
    [
        (["--kind", "path", "--n", "3", "--p", "nan"], "path", "p"),
        (["--kind", "tree", "--n", "5", "--rows", "2"], "tree", "rows"),
        (["--kind", "grid", "--rows", "2", "--n", "4"], "grid", "n"),
    ],
)
def test_generate_refuses_a_parameter_its_kind_does_not_read(tmp_path, capsys, flags, kind, name):
    out = tmp_path / "g.txt"
    assert run_cli(["generate", *flags, "--edges-out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: generator {kind!r} takes no parameter {name}\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--kind", "cycle", "--n", "2"], "cycle needs n >= 3, got 2"),
        (["--kind", "tree", "--n", "1"], "tree needs n >= 2, got 1"),
        (["--kind", "gnp_connected", "--n", "1", "--p", "0.5"], "gnp needs n >= 2, got 1"),
        (["--kind", "gnp_connected", "--n", "10", "--p", "0"], "gnp needs 0 < p <= 1, got 0.0"),
        (["--kind", "gnp_connected", "--n", "10", "--p", "1.5"], "gnp needs 0 < p <= 1, got 1.5"),
    ],
)
def test_generate_refuses_a_size_or_probability_out_of_range(tmp_path, capsys, flags, message):
    out = tmp_path / "g.txt"
    assert run_cli(["generate", *flags, "--edges-out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == "" and not out.exists()


def test_hyperbolicity_report(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(6))
    code, rep, err = run_json(capsys, ["hyperbolicity", "--edges", str(path)])
    assert code == 0
    assert rep["delta"] == {"value": 0.0, "doubled": 0}
    assert rep["exact"] is True and "delta_upper" not in rep
    assert rep["diameter"] == 5 and rep["radius"] == 3
    assert rep["interval_thinness"] == 0
    assert "delta" in err  # human-readable summary emitted


def test_hyperbolicity_checks_its_witness(tmp_path, capsys, monkeypatch):
    # C4 has delta 1, and the quadruple (v0, v0, v0, v0) has defect 0
    path = write_graph(tmp_path, cycle_graph(4))
    code, want, err = run_json(capsys, ["hyperbolicity", "--edges", str(path)])
    assert (code, want["delta"]["value"], len(err.splitlines())) == (0, 1.0, 1)
    report = hypercore.hyperbolicity.hyperbolicity_report

    def wrong_witness(g, dm):
        (delta, _, upper), thinness = report(g, dm)
        return (delta, (0, 0, 0, 0), upper), thinness

    monkeypatch.setattr(hypercore.hyperbolicity, "hyperbolicity_report", wrong_witness)
    code, rep, err = run_json(capsys, ["hyperbolicity", "--edges", str(path)])
    assert code == 2
    assert rep == {**want, "witness": ["v0"] * 4}
    assert err.splitlines()[1:] == ["error: check failed: witness"]


def test_core_and_traffic(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(10))
    code, rep, err = run_json(capsys, ["core", "--edges", str(path), "--profile", "all"])
    assert code == 0
    assert rep["center"] == "v4" and rep["radius"] == 0
    assert rep["intercepted_pairs"] == 29 and rep["total_pairs"] == 45

    code, rep, err = run_json(
        capsys,
        ["traffic", "--edges", str(path), "--demand", "uniform", "--set", "v4,v5"],
    )
    assert code == 0
    assert rep["demand_pairs"] == 90
    num, den = rep["mu"]["rational"].split("/")
    assert int(den) >= 1 and int(num) > 0


@pytest.mark.parametrize("alpha", ["-1", "0", "-1/2"])
def test_core_nonpositive_alpha_exits_1(tmp_path, capsys, alpha):
    path = write_graph(tmp_path, path_graph(10))
    # a fraction such as -1/2 reads the same after a space as after '='
    for value in (["--alpha", alpha], [f"--alpha={alpha}"]):
        assert run_cli(["core", "--edges", str(path), *value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: alpha must be positive, got {alpha}\n"


def test_module_entry_point_without_subcommand_exits_1(capsys, monkeypatch):
    usage = hypercore.cli._build_parser().format_usage()
    src = str(Path(hypercore.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "hypercore.cli"], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 1
    assert proc.stderr == usage
    # the console script's entry point, in process
    monkeypatch.setattr(sys, "argv", ["hypercore"])
    with pytest.raises(SystemExit) as exit_:
        hypercore.cli.main()
    assert exit_.value.code == 1
    assert capsys.readouterr().err == usage
    # the module's own `if __name__ == "__main__"` line, in process; runpy
    # runs a fresh copy of the module, and warns when one is loaded already
    monkeypatch.delitem(sys.modules, "hypercore.cli")
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("hypercore.cli", run_name="__main__")
    assert exit_.value.code == 1
    assert capsys.readouterr().err == usage


def test_traffic_refuses_a_tree_above_max_n(tmp_path, capsys):
    # a tree's load reads no matrix, but --max-n still bounds the input
    path = write_graph(tmp_path, path_graph(10))
    argv = ["traffic", "--edges", str(path), "--demand", "uniform", "--set", "v4"]
    assert run_cli(["--max-n", "9", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: graph has 10 vertices, above the all-pairs cap --max-n 9\n"
    )
    code, rep, err = run_json(capsys, ["--max-n", "10", *argv])
    assert code == 0
    # the ordered pairs within v0..v3 and within v5..v9 miss v4: 90 - 4*3 - 5*4
    assert rep["mu"]["rational"] == "58/1"


def test_traffic_refuses_a_non_tree_above_max_n(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(10))
    argv = ["traffic", "--edges", str(path), "--demand", "uniform", "--set", "v4"]
    assert run_cli(["--max-n", "9", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: graph has 10 vertices, above the all-pairs cap --max-n 9\n"
    )


@pytest.mark.parametrize("g", [path_graph(10), cycle_graph(10)], ids=["tree", "cycle"])
def test_core_refuses_a_graph_above_max_n(tmp_path, capsys, g):
    # a tree's core reads no matrix, but --max-n still bounds the input
    path = write_graph(tmp_path, g)
    argv = ["core", "--edges", str(path), "--profile", "all"]
    assert run_cli(["--max-n", "9", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: graph has 10 vertices, above the all-pairs cap --max-n 9\n"
    )
    code, rep, err = run_json(capsys, ["--max-n", "10", *argv])
    assert code == 0
    assert rep["total_pairs"] == 45


def test_core_on_a_tree_builds_no_matrix(tmp_path, capsys, monkeypatch):
    g = random_tree(1000, 7)
    path = write_graph(tmp_path, g)
    argv = ["core", "--edges", str(path), "--profile", "all"]
    code, expected, _ = run_json(capsys, argv)
    assert code == 0

    def refuse(*args, **kwargs):
        raise AssertionError("core on a tree built a distance matrix")

    patched = set()
    for name, mod in list(sys.modules.items()):
        if name == "hypercore" or name.startswith("hypercore."):
            for attr in ("_tree_distances", "distance_matrix", "multi_source_distances"):
                if hasattr(mod, attr):
                    monkeypatch.setattr(mod, attr, refuse)
                    patched.add(name)
    # modules load on first use: the one that runs `core` must be among those patched
    assert {"hypercore.congestion", "hypercore.graphs", "hypercore.cli"} <= patched
    code, rep, err = run_json(capsys, argv)
    assert (code, err) == (0, "")
    assert rep == expected
    monkeypatch.undo()
    # the report itself, checked against the matrix
    dm = distance_matrix(g)
    assert rep["radius"] == 0
    assert rep["median_vertex"] == f"v{int(dm.d.sum(axis=0).argmin())}"
    center = int(rep["center"][1:])
    pairs = [(x, y) for x in range(g.n) for y in range(x + 1, g.n)]
    assert rep["intercepted_pairs"] == int(intercepted_pairs(g, dm, center, 0, pairs).sum())


def test_traffic_with_demand_file(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(4))
    dem = tmp_path / "demand.txt"
    dem.write_text("v0 v2\n# comment\nv1 v3\n", encoding="utf-8")
    code, rep, err = run_json(
        capsys, ["traffic", "--edges", str(path), "--demand", str(dem), "--set", "v1"]
    )
    assert code == 0
    # (v0,v2): one of two geodesics passes v1 -> 1/2; (v1,v3): endpoint -> 1
    assert rep["mu"]["rational"] == "3/2"


def test_beamcore_cli(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(9))
    code, rep, err = run_json(capsys, ["beamcore", "--edges", str(path)])
    assert code == 0
    assert rep["midpoint"] == "v4"
    assert rep["radius"] == 0
    assert rep["all_beams_intercepted"] is True
    assert rep["structural"]["diam_rad_holds"] is True


def test_beamcore_forced_delta_failure_exits_2(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(6))
    code, rep, err = run_json(capsys, ["beamcore", "--edges", str(path), "--delta", "0"])
    assert code == 2
    assert rep["all_beams_intercepted"] is False
    # C6 at delta 0: diameter 3 < 2 * radius 3 - 1, and every vertex is central,
    # some 3 > 4 * delta + 1 from the midpoint
    assert rep["structural"]["diam_rad_holds"] is False
    assert rep["structural"]["close_to_center_holds"] is False
    assert err.splitlines() == [
        "error: check failed: all_beams_intercepted",
        "error: check failed: structural.diam_rad_holds",
        "error: check failed: structural.close_to_center_holds",
    ]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_beamcore_structural_block_matches_networkx(data):
    if data.draw(st.booleans()):
        g = data.draw(connected_graphs(max_n=12, min_n=2))
    else:
        g = random_tree(data.draw(st.integers(2, 30)), data.draw(st.integers(0, 99)))
    delta = data.draw(st.sampled_from(["0", "1/2", "1", "2"]))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["beamcore", "--edges", str(write_graph(Path(tmp), g)), "--delta", delta]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
    if code == 1:
        # a --delta below the graph's constant may exhaust the furthest-vertex search
        assert err.getvalue().startswith(
            "error: furthest-vertex iteration did not stabilize within "
        ), err.getvalue()
        return
    rep = json.loads(out.getvalue())
    nxg = nx.Graph((f"v{u}", f"v{v}") for u, v in g.edges())
    diameter, radius, center = nx.diameter(nxg), nx.radius(nxg), nx.center(nxg)
    d = Fraction(delta)
    to_mid = nx.single_source_shortest_path_length(nxg, rep["midpoint"])
    far = max(to_mid[c] for c in center)
    structural = rep["structural"]
    assert sorted(structural.pop("center")) == sorted(center)
    assert structural == {
        "diameter": diameter,
        "radius": radius,
        "diam_rad_holds": diameter >= 2 * radius - 2 * d - 1,
        "max_center_distance": far,
        "close_to_center_holds": far <= 4 * d + 1,
    }
    claims = {
        "all_beams_intercepted": rep["all_beams_intercepted"],
        "structural.diam_rad_holds": structural["diam_rad_holds"],
        "structural.close_to_center_holds": structural["close_to_center_holds"],
    }
    failed = [name for name, holds in claims.items() if not holds]
    assert code == (2 if failed else 0)
    assert err.getvalue().splitlines() == [f"error: check failed: {name}" for name in failed]


def test_helly_and_hitpack_cli(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(6))
    fam = tmp_path / "fam.json"
    fam.write_text(
        json.dumps(
            [
                {"name": "a", "vertices": ["v0", "v1", "v2"]},
                {"name": "b", "vertices": ["v2", "v3"]},
                {"name": "c", "vertices": ["v0", "v2", "v4"]},
            ]
        ),
        encoding="utf-8",
    )
    code, rep, err = run_json(capsys, ["helly", "--edges", str(path), "--family", str(fam)])
    assert code == 0
    assert rep["all_hit"] is True

    code, rep, err = run_json(capsys, ["hitpack", "--edges", str(path), "--family", str(fam)])
    assert code == 0
    assert len(rep["hitting_set"]) == len(rep["packing"])
    assert rep["certificates"] == {"hitting": True, "packing": True}


def _assert_hitpack_radii(report):
    """hit_radius is floor(covering_radius(r, epsilon, delta)) and pack_gap
    is r, from the report's own r, epsilon and delta fields."""
    r, delta = report["r"], Fraction(report["delta"]["value"])
    assert 2 * delta == report["delta"]["doubled"]
    assert report["hit_radius"] == math.floor(covering_radius(r, report["epsilon"], delta))
    assert report["pack_gap"] == r


@pytest.mark.parametrize("name", [name for name in GOLDEN_CASES if name.startswith("hitpack_")])
def test_hitpack_golden_radii_come_from_the_report(name, tmp_path):
    out = tmp_path / "report.json"
    argv = [a.format(g=GOLDEN) for a in GOLDEN_CASES[name]]
    assert run_cli(["--out", str(out), *argv]) == 0
    _assert_hitpack_radii(json.loads(out.read_text(encoding="utf-8")))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hitpack_radii_come_from_the_report(data):
    n, seed = data.draw(st.integers(2, 12)), data.draw(st.integers(0, 99))
    g = random_tree(n, seed) if data.draw(st.booleans()) else gnp_connected(n, 0.3, seed)
    label = st.integers(0, n - 1).map(lambda v: f"v{v}")
    family = data.draw(st.lists(st.lists(label, min_size=1, max_size=4), min_size=1, max_size=5))
    r = data.draw(st.integers(0, 3))
    delta = data.draw(st.one_of(st.none(), st.integers(0, 4).map(lambda k: str(Fraction(k, 2)))))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        fam, out = tmp / "fam.json", tmp / "report.json"
        fam.write_text(json.dumps([{"vertices": vs} for vs in family]), encoding="utf-8")
        argv = ["hitpack", "--edges", str(write_graph(tmp, g)), "--family", str(fam)]
        argv += ["--r", str(r)] + (["--delta", delta] if delta is not None else [])
        assert run_cli(["--out", str(out), *argv]) in (0, 2)  # 2: a given delta too small
        _assert_hitpack_radii(json.loads(out.read_text(encoding="utf-8")))


def test_helly_gaps_are_ball_to_set_distances(tmp_path, capsys, monkeypatch):
    # a ball at v0 whatever the family, so that gaps above 0 are reported too
    from hypercore import quasiconvex

    sets = [["v0", "v1"], ["v5"], ["v3", "v7"], ["v6", "v8"]]
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps([{"vertices": s} for s in sets]), encoding="utf-8")
    for g in (cycle_graph(10), random_tree(12, 5)):
        path = write_graph(tmp_path, g)
        dm = distance_matrix(g)
        for radius in (0, 1, 2):
            monkeypatch.setattr(quasiconvex, "helly_center", lambda *a, **k: 0)
            monkeypatch.setattr(quasiconvex, "covering_radius", lambda *a, r=radius: r)
            code, rep, err = run_json(capsys, ["helly", "--edges", str(path), "--family", str(fam)])
            members = ball_members(dm, 0, radius)
            gaps = [set_distance(dm, members, [int(v[1:]) for v in s]) for s in sets]
            assert rep["set_gaps"] == gaps and max(gaps) > 0
            assert code == 2
            assert err == "error: check failed: all_hit\n"


def _family_entries(command, sets, names):
    """Family-file entries for ``command``: ``sets`` holds each entry's
    labels, or for kappa its parts' labels; a name of None is left out."""
    key = "parts" if command == "kappa" else "vertices"
    entries = [{key: vs} for vs in sets]
    for entry, name in zip(entries, names):
        if name is not None:
            entry["name"] = name
    return entries


@pytest.mark.parametrize("command", ["helly", "hitpack", "kappa"])
def test_label_order_and_repeats_change_no_report(tmp_path, capsys, command):
    # each set (kappa: each part) in increasing id without repeats, then with
    # its labels shuffled and some repeated: the same bytes and exit code
    rng = random.Random(command)
    parts = 2 if command == "kappa" else 1
    graphs = [random_tree(12, 3), cycle_graph(9), gnp_connected(12, 0.3, 4), path_graph(10)]
    codes = set()
    for i in range(8):
        g = graphs[i % len(graphs)]
        path = write_graph(tmp_path, g)
        fam = tmp_path / "fam.json"
        sets = [sorted(rng.sample(range(g.n), rng.randint(1, 4))) for _ in range(4 * parts)]
        mixed = [rng.sample(vs, len(vs)) + rng.choices(vs, k=rng.randint(1, 3)) for vs in sets]
        argv = [command, "--edges", str(path), "--family", str(fam), "--r", str(i % 3 + 2)]
        argv += ["--delta", "0"] if i % 2 else []
        outputs = []
        for family in (sets, mixed):
            labels = [[f"v{v}" for v in vs] for vs in family]
            if command == "kappa":  # two parts a member
                labels = [labels[j : j + parts] for j in range(0, len(labels), parts)]
            entries = _family_entries(command, labels, [None] * len(labels))
            fam.write_text(json.dumps(entries), encoding="utf-8")
            code = run_cli(argv)
            outputs.append((code, *capsys.readouterr()))
        assert outputs[0] == outputs[1]
        codes.add(outputs[0][0])
    assert codes - {1}, "every run was refused"


@pytest.mark.parametrize(
    "command, noun", [("helly", "set"), ("hitpack", "set"), ("kappa", "member")]
)
@pytest.mark.parametrize(
    "names, repeat",
    [
        (["a", "b", "a"], ("a", 0, 2)),  # a plain repeat
        ([None, "{noun}[0]"], ("{noun}[0]", 0, 1)),  # a name given as an earlier default
        (["{noun}[2]", "b", None], ("{noun}[2]", 0, 2)),  # a default given earlier as a name
    ],
)
def test_repeated_family_names_are_refused(tmp_path, capsys, command, noun, names, repeat):
    # a report names its packed sets, so a name must pick one entry
    argv = _delta_command_argv(tmp_path, command, 8)
    fam = tmp_path / "fam.json"
    names = [None if name is None else name.format(noun=noun) for name in names]
    sets = [["v0"], ["v4"], ["v8"]][: len(names)]
    sets = [[vs] for vs in sets] if command == "kappa" else sets
    fam.write_text(json.dumps(_family_entries(command, sets, names)), encoding="utf-8")
    code, rep, err = run_json(capsys, argv)
    name, first, again = repeat
    assert (code, rep) == (1, None)
    assert err == (
        f"error: {fam}: entries {first} and {again} have the same name "
        f"{name.format(noun=noun)!r}\n"
    )


def test_kappa_cli(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(12))
    fam = tmp_path / "kfam.json"
    fam.write_text(
        json.dumps(
            [
                {"name": "m0", "parts": [["v0", "v1"], ["v6", "v7"]]},
                {"name": "m1", "parts": [["v3"], ["v9", "v10"]]},
            ]
        ),
        encoding="utf-8",
    )
    code, rep, err = run_json(
        capsys, ["kappa", "--edges", str(path), "--family", str(fam), "--r", "0"]
    )
    assert code == 0
    assert rep["kappa"] == 2
    assert rep["lp_optima"]["gap_zero"] is True
    assert all(rep["certificates"].values())


def test_kappa_refuses_r_below_epsilon_plus_two_delta(tmp_path, capsys):
    # the part {v0, v3} of the 6-cycle has defect 1: each of its two
    # geodesics passes two vertices at distance 1 from it
    path = write_graph(tmp_path, cycle_graph(6))
    fam = tmp_path / "kfam.json"
    fam.write_text(json.dumps([{"name": "m", "parts": [["v0", "v3"]]}]), encoding="utf-8")
    argv = ["kappa", "--edges", str(path), "--family", str(fam), "--delta", "1/2"]
    code, rep, err = run_json(capsys, [*argv, "--r", "1"])
    assert (code, rep) == (1, None)
    assert err == "error: r=1 violates the hypothesis r >= epsilon + 2*delta = 2\n"
    code, rep, err = run_json(capsys, [*argv, "--r", "2"])
    assert code == 0
    assert (rep["epsilon"], rep["r_star"], rep["r_prime"]) == (1, 4, 6)


def test_kappa_failed_certificate_names_its_field(tmp_path, capsys):
    # four times the four-point constant is no thin-triangle constant on a
    # clique (README Notes): on K6 at delta 0 the hitting set misses a member
    path = write_graph(tmp_path, Graph(6, [(a, b) for a in range(6) for b in range(a + 1, 6)]))
    fam = tmp_path / "kfam.json"
    fam.write_text(
        json.dumps([{"name": "a", "parts": [["v1", "v2"]]}, {"name": "b", "parts": [["v2"]]}]),
        encoding="utf-8",
    )
    argv = ["kappa", "--edges", str(path), "--family", str(fam), "--r", "0", "--delta", "0"]
    code, rep, err = run_json(capsys, argv)
    assert code == 2
    assert rep["certificates"] == {"hitting": False, "packing": True, "size_bound": True}
    assert err == "error: check failed: certificates.hitting\n"


def test_multicore_cli(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(12))
    com = tmp_path / "pairs.txt"
    com.write_text("v0 v3\nv8 v11\n", encoding="utf-8")
    code, rep, err = run_json(
        capsys, ["multicore", "--edges", str(path), "--commodity", str(com), "--radius", "0"]
    )
    assert code == 0
    assert rep["covered"] is True
    assert rep["size"] == 2


@pytest.mark.parametrize("command, flag", [("traffic", "--demand"), ("multicore", "--commodity")])
def test_pair_with_equal_endpoints_names_its_line(tmp_path, capsys, command, flag):
    path = write_graph(tmp_path, path_graph(6))
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("v0 v3\n# comment\nv2 v2\n", encoding="utf-8")
    argv = [command, "--edges", str(path), flag, str(pairs)]
    argv += ["--set", "v1"] if command == "traffic" else ["--radius", "0"]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == f"error: {pairs}:3: pair with equal endpoints 'v2'\n"


def _delta_command_argv(tmp_path, command, radius=0, graph=None):
    """argv for one delta-using subcommand on ``graph``, by default the
    9-vertex path; ``radius`` is the kappa --r and the multicore --radius."""
    path = write_graph(tmp_path, path_graph(9) if graph is None else graph)
    fam = tmp_path / "fam.json"
    if command == "kappa":
        fam.write_text(json.dumps([{"name": "m", "parts": [["v0"], ["v8"]]}]), encoding="utf-8")
        return [command, "--edges", str(path), "--family", str(fam), "--r", str(radius)]
    if command == "multicore":
        com = tmp_path / "pairs.txt"
        com.write_text("v0 v3\nv5 v8\n", encoding="utf-8")
        return [command, "--edges", str(path), "--commodity", str(com), "--radius", str(radius)]
    if command == "beamcore":
        return [command, "--edges", str(path)]
    fam.write_text(
        json.dumps([{"name": "a", "vertices": ["v2", "v3"]}, {"name": "b", "vertices": ["v3"]}]),
        encoding="utf-8",
    )
    return [command, "--edges", str(path), "--family", str(fam)]


DELTA_COMMANDS = ["multicore", "beamcore", "helly", "hitpack", "kappa"]

# the 9-vertex path with a 4-cycle v0 v1 v2 v9 at one end
CYCLE_TAIL = Graph(10, [*path_graph(9).edges(), (0, 9), (2, 9)])


@pytest.mark.parametrize("command", DELTA_COMMANDS)
def test_delta_four_point_reported_last(tmp_path, capsys, command):
    argv = _delta_command_argv(tmp_path, command)
    code, rep, err = run_json(capsys, argv)
    assert code == 0
    assert list(rep)[-1] == "delta_four_point"
    assert rep["delta_four_point"] == {"value": 0.0, "doubled": 0}
    assert rep["delta"] == {"value": 0.0, "doubled": 0}
    code, rep, err = run_json(capsys, [*argv, "--delta", "0"])
    assert code == 0
    assert "delta_four_point" not in rep and "delta_exact" not in rep


@pytest.mark.parametrize("command", DELTA_COMMANDS)
def test_negative_delta_is_an_input_error(tmp_path, capsys, command):
    radius = {"multicore": 8, "kappa": 8}.get(command, 0)
    for delta in ("-1", "-1/2"):
        for value in (["--delta", delta], [f"--delta={delta}"]):
            code, rep, err = run_json(
                capsys, [*_delta_command_argv(tmp_path, command, radius), *value]
            )
            assert (code, rep) == (1, None)
            assert err == f"error: --delta {delta} is negative: a thin-triangle constant is >= 0\n"


@pytest.mark.parametrize("command", DELTA_COMMANDS)
def test_delta_without_a_float_is_an_input_error(tmp_path, capsys, command):
    radius = {"multicore": 8, "kappa": 8}.get(command, 0)
    argv = [*_delta_command_argv(tmp_path, command, radius), "--delta", "1e400"]
    code, rep, err = run_json(capsys, argv)
    assert (code, rep) == (1, None)
    assert err == "error: --delta 1e400 is too large for a float\n"


@pytest.mark.parametrize(
    "command, extra",
    [
        ("multicore", []),
        ("kappa", []),
        ("helly", ["--r", str(10**9), "--delta", str(10**9)]),
        ("beamcore", ["--delta", str(10**9)]),
    ],
)
def test_radius_or_delta_far_above_every_distance(tmp_path, capsys, command, extra):
    # 10**9 is out of range of the distance type, so it may be compared with
    # distances but never added to or subtracted from a distance array
    argv = _delta_command_argv(tmp_path, command, 10**9, CYCLE_TAIL)
    code, rep, err = run_json(capsys, [*argv, *extra])
    assert code == 0


def test_max_n_default_is_the_matrix_cap():
    args = hypercore.cli._build_parser().parse_args(["hyperbolicity", "--edges", "g.txt"])
    assert args.max_n == DEFAULT_MATRIX_CAP


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_max_n_below_one_is_an_input_error(tmp_path, capsys, cap):
    path = write_graph(tmp_path, path_graph(4))
    code, rep, err = run_json(capsys, ["--max-n", cap, "hyperbolicity", "--edges", str(path)])
    assert (code, rep) == (1, None)
    assert err == f"error: argument --max-n: must be at least 1, got {cap}\n"
    code, rep, err = run_json(capsys, ["--max-n", "4", "hyperbolicity", "--edges", str(path)])
    assert code == 0


NOT_STRING = "a label that is not a string: "


@pytest.mark.parametrize(
    "command, entry, bad",
    [
        ("helly", {"name": "a", "vertices": ["v1", ["v0"]]}, NOT_STRING + "['v0']"),
        ("hitpack", {"name": "a", "vertices": [{"v": 0}]}, NOT_STRING + "{'v': 0}"),
        ("kappa", {"name": "m", "parts": [["v1"], [["v0"]]]}, NOT_STRING + "['v0']"),
        ("helly", {"name": "a", "vertices": [0]}, NOT_STRING + "0"),
        ("hitpack", {"name": ["a"], "vertices": ["v0"]}, "a name that is not a string"),
        ("kappa", {"name": {"n": 1}, "parts": [["v0"]]}, "a name that is not a string"),
    ],
)
def test_family_labels_and_names_must_be_strings(tmp_path, capsys, command, entry, bad):
    argv = _delta_command_argv(tmp_path, command, 8)
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps([entry]), encoding="utf-8")
    code, rep, err = run_json(capsys, argv)
    assert (code, rep) == (1, None)
    assert err == f"error: {fam}: entry 0 has {bad}\n"


@pytest.mark.parametrize("command", DELTA_COMMANDS)
def test_sampled_delta_certifies_from_half_diameter(tmp_path, capsys, monkeypatch, command):
    # the 9-vertex path with a 4-cycle v0 v1 v2 v9 at one end: with no
    # budget the four-point scan stops before its first row, so the bracket
    # is [0, 1], its upper end half the diameter of the cycle block (not of
    # the graph, 8), and the certified constant is 4 * 1; the radii meet
    # multicore's r >= 8*delta and kappa's r >= eps + 2*delta
    monkeypatch.setattr(hypercore.hyperbolicity, "FOUR_POINT_BUDGET", 0)
    radius = {"multicore": 32, "kappa": 8}.get(command, 0)
    code, rep, err = run_json(capsys, _delta_command_argv(tmp_path, command, radius, CYCLE_TAIL))
    assert code == 0
    assert list(rep)[-2:] == ["delta_four_point", "delta_exact"]
    assert rep["delta_exact"] is False
    assert rep["delta_four_point"] == {"value": 0.0, "doubled": 0}
    assert rep["delta"] == {"value": 4.0, "doubled": 8}


def test_hyperbolicity_reports_bracket(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(hypercore.hyperbolicity, "FOUR_POINT_BUDGET", 0)
    path = write_graph(tmp_path, CYCLE_TAIL)
    code, rep, err = run_json(capsys, ["hyperbolicity", "--edges", str(path)])
    assert code == 0
    assert list(rep)[6:9] == ["delta", "exact", "delta_upper"]
    assert rep["delta"] == {"value": 0.0, "doubled": 0}
    assert rep["exact"] is False
    assert rep["delta_upper"] == {"value": 1.0, "doubled": 2}
    assert rep["interval_thinness"] == 2
    assert "delta in [0, 1]" in err


def test_out_flag_writes_file(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(4))
    target = tmp_path / "rep.json"
    code = run_cli(["--out", str(target), "hyperbolicity", "--edges", str(path)])
    assert code == 0
    rep = json.loads(target.read_text(encoding="utf-8"))
    assert rep["command"] == "hyperbolicity"
    assert capsys.readouterr().out == ""


def test_unwritable_out_exits_1(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(4))
    for target in (tmp_path / "missing" / "rep.json", tmp_path):
        assert run_cli(["--out", str(target), "core", "--edges", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno ") and f"'{target}'" in captured.err


def test_byte_order_mark_is_ignored(tmp_path):
    golden = Path(__file__).parent / "golden"
    names = ("tree40.txt", "profile.txt", "pairs.txt", "family.json", "kappa.json")
    inputs = {name: (golden / name).read_bytes() for name in names}
    inputs["triangle.txt"] = b"a b\nb c\nc a\n"
    for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        (tmp_path / name).mkdir()
        for inp, data in inputs.items():
            (tmp_path / name / inp).write_bytes(bom + data)
    family = ["--edges", "{d}/tree40.txt", "--family"]
    cases = [
        ["hyperbolicity", "--edges", "{d}/triangle.txt"],
        ["core", "--edges", "{d}/tree40.txt", "--profile", "{d}/profile.txt"],
        ["traffic", "--edges", "{d}/tree40.txt", "--demand", "{d}/pairs.txt", "--set", "3,6"],
        ["helly", *family, "{d}/family.json", "--r", "3", "--delta", "0"],
        ["kappa", *family, "{d}/kappa.json", "--r", "1", "--delta", "0"],
    ]
    for i, case in enumerate(cases):
        reports = []
        for name in ("plain", "bom"):
            out = tmp_path / f"{name}{i}.json"
            argv = [arg.replace("{d}", str(tmp_path / name)) for arg in case]
            assert run_cli(["--out", str(out), *argv]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
    triangle = json.loads((tmp_path / "bom0.json").read_text(encoding="utf-8"))
    assert (triangle["n"], triangle["m"], triangle["diameter"]) == (3, 3, 1)


def test_input_errors_exit_1(tmp_path, capsys):
    assert run_cli(["hyperbolicity", "--edges", str(tmp_path / "missing.txt")]) == 1
    assert run_cli(["--bogus-flag"]) == 1
    assert run_cli([]) == 1
    bad = tmp_path / "bad.txt"
    bad.write_text("a b c\n", encoding="utf-8")
    assert run_cli(["hyperbolicity", "--edges", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "error" in err
    edges = str(write_graph(tmp_path, path_graph(4)))
    for argv in (
        ["core", "--edges", edges, "--alpha", "1/0"],
        ["beamcore", "--edges", edges, "--delta", "1/0"],
    ):
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == "error: '1/0' has a zero denominator\n"
    # the report's "doubled" field needs a half-integer
    for delta in ("1/3", "0.25"):
        assert run_cli(["beamcore", "--edges", edges, "--delta", delta]) == 1
        assert capsys.readouterr().err == f"error: {delta!r} is not an integer or half-integer\n"
    # a flag with no value before the next flag keeps argparse's message
    for command, flag in (("core", "--alpha"), ("beamcore", "--delta")):
        assert run_cli([command, flag, "--edges", edges]) == 1
        assert capsys.readouterr().err == f"error: argument {flag}: expected one argument\n"


def test_file_format_errors(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no edges"):
        read_edge_list(empty)
    with pytest.raises(ValueError, match="no pairs"):
        read_pairs(empty)
    triple = tmp_path / "triple.txt"
    triple.write_text("a b\nx y z\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2:"):
        read_pairs(triple)
    fam = tmp_path / "fam.json"
    fam.write_text("[]", encoding="utf-8")
    with pytest.raises(ValueError, match="nonempty"):
        read_family_json(fam)
    fam.write_text(json.dumps([{"name": "a", "vertices": []}]), encoding="utf-8")
    with pytest.raises(ValueError, match="no vertices"):
        read_family_json(fam)


def test_duplicate_edge_reported_by_line_and_label(tmp_path, capsys):
    path = tmp_path / "dup.txt"
    path.write_text("a b\n# comment\nb c\n\nb a\n", encoding="utf-8")
    assert run_cli(["hyperbolicity", "--edges", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}:5: duplicate edge 'b' 'a', first on line 1\n"


def test_unknown_label_errors(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(4))
    code = run_cli(["traffic", "--edges", str(path), "--set", "nope"])
    assert code == 1
    assert capsys.readouterr().err == "error: unknown vertex label 'nope'\n"
    with pytest.raises(ValueError, match="^duplicate labels in table$"):
        LabelTable(["a", "b", "a"])


def test_a_deeply_nested_family_exits_1(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    fam.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    edges = write_graph(tmp_path, path_graph(4))
    assert run_cli(["helly", "--edges", str(edges), "--family", str(fam)]) == 1
    assert capsys.readouterr().err == f"error: {fam}: JSON nested too deeply\n"


# Consecutive commands on one edge-list file share its parse and matrix
# (``cli._last_read``).


def test_consecutive_commands_on_one_file_build_one_matrix(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(g, **kwargs):
        calls.append(g.n)
        return distance_matrix(g, **kwargs)

    monkeypatch.setattr(hypercore.cli, "distance_matrix", counted)
    helly = _delta_command_argv(tmp_path, "helly")
    runs = [helly, ["hitpack", *helly[1:]], ["core", *helly[1:3]], ["beamcore", *helly[1:3]]]
    shared = [run_json(capsys, argv) for argv in runs]
    assert calls == [9]
    for argv, result in zip(runs, shared):  # each the same as on its own
        monkeypatch.setattr(hypercore.cli, "_last_read", None)
        assert run_json(capsys, argv) == result
    assert calls == [9] * 4


def test_a_rewritten_file_is_parsed_anew(tmp_path, capsys):
    path, fresh = tmp_path / "g.txt", tmp_path / "fresh.txt"
    before, after = "a b\nb c\nc d\n", "a b\nb c\nb d\n"  # a path, then a star
    path.write_text(before, encoding="utf-8")
    fresh.write_text(after, encoding="utf-8")
    _, old, _ = run_json(capsys, ["hyperbolicity", "--edges", str(path)])
    stat = path.stat()
    path.write_text(after, encoding="utf-8")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
    _, new, _ = run_json(capsys, ["hyperbolicity", "--edges", str(path)])
    assert new == run_json(capsys, ["hyperbolicity", "--edges", str(fresh)])[1]
    assert (old["diameter"], new["diameter"]) == (3, 2)


def test_a_file_that_fails_to_parse_leaves_no_entry(tmp_path, capsys, monkeypatch):
    parsed = []

    def counted(path, text):
        parsed.append(path)
        return parse(path, text)

    parse = hypercore.cli._parse_edge_list
    monkeypatch.setattr(hypercore.cli, "_parse_edge_list", counted)
    good, bad = str(write_graph(tmp_path, path_graph(5))), str(tmp_path / "bad.txt")
    Path(bad).write_text("a b\nb b\n", encoding="utf-8")
    first = run_json(capsys, ["beamcore", "--edges", good, "--delta", "0"])
    assert run_cli(["beamcore", "--edges", bad, "--delta", "0"]) == 1
    assert capsys.readouterr().err == f"error: {bad}:2: self-loop at 'b'\n"
    assert hypercore.cli._last_read is None
    assert run_json(capsys, ["beamcore", "--edges", good, "--delta", "0"]) == first
    assert parsed == [good, bad, good]


@pytest.mark.parametrize("command", ["core", "beamcore"])
def test_max_n_refuses_a_graph_already_read(tmp_path, capsys, command):
    edges = str(write_graph(tmp_path, path_graph(10)))
    argv = [command, "--edges", edges, *(["--delta", "0"] if command == "beamcore" else [])]
    code, expected, _ = run_json(capsys, argv)
    assert hypercore.cli._last_read[:2] == (edges, Path(edges).read_text(encoding="utf-8"))
    assert run_cli(["--max-n", "9", *argv]) == 1
    assert capsys.readouterr().err == (
        "error: graph has 10 vertices, above the all-pairs cap --max-n 9\n"
    )
    assert run_json(capsys, ["--max-n", "10", *argv]) == (code, expected, "")


def test_goldens_repeat_and_reverse_in_one_process(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    codes = json.loads(EXIT_CODES.read_text(encoding="utf-8"))
    names = list(GOLDEN_CASES)
    for order in (names, names, names[::-1]):
        for name in order:
            expected = (codes[name], (GOLDEN / f"{name}.json").read_bytes())
            assert run_golden(name, tmp_path) == expected, name


def test_threads_share_the_last_read_file(tmp_path, monkeypatch):
    # more threads than cores, switching often, each alternating between two
    # files: a mixed entry would give one a report of the other's graph.  A
    # slow matrix lets other threads replace the entry while it is built.
    def slow(g, **kwargs):
        time.sleep(0.001)
        return distance_matrix(g, **kwargs)

    monkeypatch.setattr(hypercore.cli, "distance_matrix", slow)
    runs = []
    for i, g in enumerate([path_graph(12), random_tree(15, 3)]):
        edges = str(write_graph(tmp_path, g, f"g{i}.txt"))
        runs += [["core", "--edges", edges], ["beamcore", "--edges", edges, "--delta", "0"]]
    expected = []
    for argv in runs:
        out = tmp_path / "expected.json"
        expected.append((run_cli(["--out", str(out), *argv]), out.read_bytes()))
    failures = []

    def worker(k):
        out = tmp_path / f"thread{k}.json"
        for i in range(40):
            j = (i + k) % len(runs)
            try:
                if (run_cli(["--out", str(out), *runs[j]]), out.read_bytes()) != expected[j]:
                    failures.append((k, i))
            except Exception as exc:  # a matrix of the other graph can index out of range
                failures.append((k, i, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
