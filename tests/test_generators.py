import re

import pytest

from hypercore import distance_matrix, generate
from hypercore.generators import (
    cycle_graph,
    gnp_connected,
    grid_graph,
    path_graph,
    random_tree,
    star_path_graph,
)
from oracles import neighbours, star_path_hub, validate_metric


def test_path_cycle_grid_shapes():
    g = generate("path", n=5)
    assert (g.n, g.m) == (5, 4)
    assert int(distance_matrix(g).d.max()) == 4
    assert cycle_graph(6).m == 6
    grid = generate("grid", rows=2, cols=3)
    assert (grid.n, grid.m) == (6, 7)
    square = generate("grid", rows=3)
    assert square.n == 9


def test_star_path_structure():
    g = generate("star_path_Tn", n=25)
    assert g.n == 25
    hub = star_path_hub(25)
    assert hub == 14
    assert len(neighbours(g, hub)) == 1 + 10  # path neighbor + 10 leaves
    assert all(neighbours(g, leaf) == [hub] for leaf in range(15, 25))
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
        ("tree", {"n": 14, "seed": 3}),
        ("cycle", {"n": 9}),
        ("grid", {"rows": 3, "cols": 5}),
        ("star_path_Tn", {"n": 16}),
        ("gnp_connected", {"n": 15, "p": 0.3, "seed": 5}),
    ]
    for kind, params in specs:
        g = generate(kind, **params)
        validate_metric(distance_matrix(g), g)


@pytest.mark.parametrize(
    "spec, name",
    [
        ({"kind": "path", "n": 3, "p": float("nan")}, "p"),
        ({"kind": "tree", "n": 5, "rows": 2}, "rows"),
        ({"kind": "grid", "rows": 2, "n": 4}, "n"),
        ({"kind": "grid", "rows": 2, "cols": 3, "p": 0.5}, "p"),
        ({"kind": "gnp_connected", "n": 10, "p": 0.5, "cols": 2}, "cols"),
        ({"kind": "star_path_Tn", "n": 16, "cols": 4}, "cols"),
        ({"kind": "cycle", "n": 5, "rows": 1}, "rows"),
    ],
)
def test_a_parameter_the_kind_does_not_read_is_refused(spec, name):
    kind = spec["kind"]
    with pytest.raises(ValueError, match=f"^generator {kind!r} takes no parameter {name}$"):
        generate(**spec)


def test_the_seed_is_never_refused():
    # the seed is a global flag recorded in every report, read or not
    assert generate("path", n=3, seed=4).n == 3


def test_generate_errors():
    with pytest.raises(ValueError, match="unknown generator"):
        generate("torus", n=5)
    with pytest.raises(ValueError, match="needs parameter"):
        generate("path")
    with pytest.raises(ValueError, match="needs p"):
        generate("gnp_connected", n=10)
    with pytest.raises(ValueError):
        path_graph(1)
    with pytest.raises(ValueError):
        grid_graph(1, 1)
    for build, message in (
        (lambda: cycle_graph(2), "cycle needs n >= 3, got 2"),
        (lambda: random_tree(1, 0), "tree needs n >= 2, got 1"),
        (lambda: gnp_connected(1, 0.5, 0), "gnp needs n >= 2, got 1"),
        (lambda: gnp_connected(10, 0, 0), "gnp needs 0 < p <= 1, got 0"),
        (lambda: gnp_connected(10, 1.5, 0), "gnp needs 0 < p <= 1, got 1.5"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()
