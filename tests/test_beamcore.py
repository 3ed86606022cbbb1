import json
import math
from fractions import Fraction

from hypercore import (
    Graph,
    beam_pairs,
    distance_matrix,
    four_point_delta,
    intercepted_pairs,
    thin_delta_bound,
    total_beam_core,
)
from hypercore.check import balls_intercept
from hypercore.cli import run_cli
from hypercore.fileio import LabelTable, write_edge_list
from hypercore.generators import cycle_graph, gnp_connected, grid_graph, path_graph, random_tree
from oracles import beams_pairwise_close


def test_beam_pairs_path():
    dm = distance_matrix(path_graph(5))
    assert beam_pairs(dm).tolist() == [[0, 4], [1, 4], [2, 0], [2, 4], [3, 0], [4, 0]]


def test_beam_pairs_complete_and_star():
    k4 = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert len(beam_pairs(distance_matrix(k4))) == 12  # every ordered pair
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    pairs = beam_pairs(distance_matrix(star))
    assert {(0, 1), (0, 2), (0, 3)} <= set(map(tuple, pairs.tolist()))


def intercepts_every_beam(g, dm, midpoint, radius):
    """The claim the ``beamcore`` command checks on a ``total_beam_core``
    result: its one ball intercepts every beam pair."""
    return balls_intercept(g, dm, [midpoint], radius, beam_pairs(dm))


def test_total_beam_core_path9():
    g = path_graph(9)
    dm = distance_matrix(g)
    (u, v), midpoint, radius = total_beam_core(g, dm, Fraction(0))
    assert midpoint == 4
    assert radius == 0
    assert intercepts_every_beam(g, dm, midpoint, radius)
    assert abs(int(dm.d[u, midpoint]) - int(dm.d[v, midpoint])) <= 1


def test_total_beam_core_trees():
    for seed in range(5):
        g = random_tree(22, seed + 30)
        dm = distance_matrix(g)
        _, midpoint, radius = total_beam_core(g, dm, Fraction(0))
        assert radius == 0
        assert intercepts_every_beam(g, dm, midpoint, radius)


def test_total_beam_core_random_graphs_thin_delta():
    for seed in (1, 4, 6):
        g = gnp_connected(30, 0.12, seed)
        dm = distance_matrix(g)
        delta = thin_delta_bound(four_point_delta(g, dm)[0])
        _, midpoint, radius = total_beam_core(g, dm, delta)
        assert radius == math.floor(delta * 2)
        assert intercepts_every_beam(g, dm, midpoint, radius)
        assert intercepted_pairs(g, dm, midpoint, radius, beam_pairs(dm)).all()


def test_beams_pairwise_close():
    dm = distance_matrix(random_tree(16, 2))
    rep = beams_pairwise_close(dm, Fraction(0))
    assert rep.max_distance == 0 and rep.within_bound
    # K_4: disjoint edges are beams at distance 1, and the vertex-measured
    # four-point constant is 0, so the derived bound cannot cover them
    k4 = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    k4_rep = beams_pairwise_close(distance_matrix(k4), Fraction(0))
    assert k4_rep.max_distance == 1
    assert not k4_rep.within_bound
    g = cycle_graph(6)
    dm6 = distance_matrix(g)
    delta = thin_delta_bound(four_point_delta(g, dm6)[0])
    rep = beams_pairwise_close(dm6, delta)
    assert rep.bound == math.floor(delta * 2)
    assert rep.within_bound


def test_beams_pairwise_close_random():
    for seed in (2, 7):
        g = gnp_connected(18, 0.2, seed)
        dm = distance_matrix(g)
        delta = thin_delta_bound(four_point_delta(g, dm)[0])
        assert beams_pairwise_close(dm, delta).within_bound


def beamcore_structural(tmp_path, capsys, g, delta):
    """Run the ``beamcore`` command at ``delta``; return its exit code and
    the structural block of its report."""
    path = tmp_path / "g.txt"
    write_edge_list(g, LabelTable([f"v{i}" for i in range(g.n)]), path)
    code = run_cli(["beamcore", "--edges", str(path), "--delta", str(delta)])
    return code, json.loads(capsys.readouterr().out)["structural"]


def test_structural_checks_tree(tmp_path, capsys):
    code, rep = beamcore_structural(tmp_path, capsys, random_tree(25, 8), Fraction(0))
    assert code == 0
    assert rep["diameter"] >= 2 * rep["radius"] - 1
    assert rep["diam_rad_holds"]
    assert rep["max_center_distance"] <= 1
    assert rep["close_to_center_holds"]


def test_structural_checks_cycle4(tmp_path, capsys):
    g = cycle_graph(4)
    delta = thin_delta_bound(four_point_delta(g, distance_matrix(g))[0])  # 4 * 1
    code, rep = beamcore_structural(tmp_path, capsys, g, delta)
    assert code == 0
    assert (rep["diameter"], rep["radius"]) == (2, 2)
    assert rep["diam_rad_holds"] and rep["close_to_center_holds"]


def test_structural_checks_random(tmp_path, capsys):
    for seed in (3, 9, 15):
        g = gnp_connected(24, 0.15, seed)
        delta = thin_delta_bound(four_point_delta(g, distance_matrix(g))[0])
        code, rep = beamcore_structural(tmp_path, capsys, g, delta)
        assert code == 0
        assert rep["diam_rad_holds"] and rep["close_to_center_holds"]


def test_grid_beam_core():
    g = grid_graph(4, 4)
    dm = distance_matrix(g)
    delta = thin_delta_bound(four_point_delta(g, dm)[0])
    _, midpoint, radius = total_beam_core(g, dm, delta)
    assert intercepts_every_beam(g, dm, midpoint, radius)
