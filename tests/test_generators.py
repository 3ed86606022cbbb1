import pytest

from hypercore import GeneratorSpec, distance_matrix, generate
from hypercore.generators import (
    cycle_graph,
    gnp_connected,
    grid_graph,
    path_graph,
    random_tree,
    star_path_graph,
    star_path_hub,
)
from oracles import validate_metric


def test_path_cycle_grid_shapes():
    g = generate(GeneratorSpec(kind="path", n=5))
    assert (g.n, g.m) == (5, 4)
    assert int(distance_matrix(g).d.max()) == 4
    assert cycle_graph(6).m == 6
    grid = generate(GeneratorSpec(kind="grid", rows=2, cols=3))
    assert (grid.n, grid.m) == (6, 7)
    square = generate(GeneratorSpec(kind="grid", rows=3))
    assert square.n == 9


def test_star_path_structure():
    g = generate(GeneratorSpec(kind="star_path_Tn", n=25))
    assert g.n == 25
    hub = star_path_hub(25)
    assert hub == 14
    assert len(g.adjacency[hub]) == 1 + 10  # path neighbor + 10 leaves
    assert all(g.adjacency[leaf] == [hub] for leaf in range(15, 25))
    assert g.is_tree()


def test_star_path_rejects_bad_n():
    with pytest.raises(ValueError, match="perfect square"):
        star_path_graph(24)
    with pytest.raises(ValueError, match="3\\*sqrt"):
        star_path_graph(4)


def test_tree_generator_deterministic_and_valid():
    a = random_tree(30, 7)
    b = random_tree(30, 7)
    c = random_tree(30, 8)
    assert list(a.edges()) == list(b.edges())
    assert list(a.edges()) != list(c.edges())
    assert a.is_tree()
    validate_metric(distance_matrix(a), a)


def test_gnp_deterministic_connected():
    a = gnp_connected(30, 0.15, 7)
    b = gnp_connected(30, 0.15, 7)
    assert list(a.edges()) == list(b.edges())
    validate_metric(distance_matrix(a), a)
    with pytest.raises(ValueError, match="within 1000 attempts"):
        gnp_connected(40, 0.001, 0)


def test_generator_outputs_satisfy_metric_invariants():
    specs = [
        GeneratorSpec(kind="tree", n=14, seed=3),
        GeneratorSpec(kind="cycle", n=9),
        GeneratorSpec(kind="grid", rows=3, cols=5),
        GeneratorSpec(kind="star_path_Tn", n=16),
        GeneratorSpec(kind="gnp_connected", n=15, p=0.3, seed=5),
    ]
    for spec in specs:
        g = generate(spec)
        validate_metric(distance_matrix(g), g)


def test_generate_errors():
    with pytest.raises(ValueError, match="unknown generator"):
        generate(GeneratorSpec(kind="torus", n=5))
    with pytest.raises(ValueError, match="needs parameter"):
        generate(GeneratorSpec(kind="path"))
    with pytest.raises(ValueError, match="needs p"):
        generate(GeneratorSpec(kind="gnp_connected", n=10))
    with pytest.raises(ValueError):
        path_graph(1)
    with pytest.raises(ValueError):
        grid_graph(1, 1)
