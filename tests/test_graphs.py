import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercore import (
    Ball,
    Graph,
    ball_members,
    descend_geodesic,
    distance_matrix,
    gromov_product,
    intercepted_pairs,
    interval,
    multi_source_distances,
    set_distance,
)
from hypercore.generators import cycle_graph, grid_graph, path_graph, random_tree, star_path_graph
from hypercore.graphs import _tree_distances, tree_walk
from hypercore.hyperbolicity import four_point_defect
from hypercore.quasiconvex import check_hit_pack
from oracles import (
    bfs_distances,
    distances_avoiding,
    naive_intercepts,
    naive_interval,
    validate_metric,
)
from strategies import connected_graphs, glued_blocks


def star_k13():
    return Graph(4, [(0, 1), (0, 2), (0, 3)])


def bfs_row(g, source):
    return multi_source_distances(g, [source])[0].tolist()


def test_bfs_path_and_identity():
    g = path_graph(3)
    assert bfs_row(g, 0) == [0, 1, 2]
    assert bfs_row(g, 1)[1] == 0


def test_bfs_cycle6():
    g = cycle_graph(6)
    assert bfs_row(g, 0) == [0, 1, 2, 3, 2, 1]


def test_bfs_source_range():
    g = path_graph(3)
    with pytest.raises(ValueError):
        bfs_row(g, 3)
    with pytest.raises(ValueError):
        bfs_row(g, -1)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError, match="^graph is disconnected: vertex 2 unreachable from 0$"):
        Graph(3, [(0, 1)])


def test_first_bad_edge_in_input_order_decides_the_message():
    cases = [
        ([(0, 1), (1, 2), (2, 1), (0, 3)], "duplicate edge (1,2)"),
        ([(0, 1), (0, 3), (1, 2), (2, 1)], "edge (0,3) out of range for n=3"),
        ([(0, 1), (1, 0), (2, 2)], "duplicate edge (0,1)"),
        ([(1, 1), (0, 1), (1, 0)], "self-loop at vertex 1"),
        # repeats in two rows: the later-listed pair repeats first
        ([(0, 2), (1, 2), (2, 1), (2, 0)], "duplicate edge (1,2)"),
        # a repeat wins over disconnection
        ([(0, 1), (1, 0)], "duplicate edge (0,1)"),
    ]
    for edges, message in cases:
        with pytest.raises(ValueError) as err:
            Graph(3, iter(edges))
        assert str(err.value) == message
    # rows that end and start at the same neighbour hold no repeat
    assert Graph(3, [(0, 2), (1, 2)]).m == 2


def test_distance_matrix_single_edge_and_star():
    dm = distance_matrix(Graph(2, [(0, 1)]))
    assert dm.d.tolist() == [[0, 1], [1, 0]]
    dm = distance_matrix(star_k13())
    for leaf in (1, 2, 3):
        assert dm.dist(0, leaf) == 1
    assert dm.dist(1, 2) == dm.dist(2, 3) == 2


def test_distance_matrix_grid_corner():
    dm = distance_matrix(grid_graph(3, 3))
    assert dm.dist(0, 8) == 4


def test_distance_matrix_cap_and_disconnected():
    with pytest.raises(ValueError, match="cap"):
        distance_matrix(path_graph(5), cap=4)
    with pytest.raises(ValueError, match="^graph is disconnected: vertex 2 unreachable from 0$"):
        Graph(3, [(0, 1)])


def test_distance_matrix_invariants_on_generated():
    for g in (random_tree(17, 5), cycle_graph(9), grid_graph(3, 4), star_path_graph(16)):
        validate_metric(distance_matrix(g), g)


def test_interval_examples():
    dm = distance_matrix(path_graph(4))
    assert interval(dm, 0, 0) == [0]
    assert interval(dm, 0, 3) == [0, 1, 2, 3]
    dm4 = distance_matrix(cycle_graph(4))
    assert interval(dm4, 0, 2) == [0, 1, 2, 3]


def test_ball_members():
    dm = distance_matrix(path_graph(5))
    assert ball_members(dm, Ball(2, 0)) == [2]
    assert ball_members(dm, Ball(2, 1)) == [1, 2, 3]
    dm_star = distance_matrix(star_k13())
    assert ball_members(dm_star, Ball(0, 1)) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        Ball(0, -1)


def test_gromov_product_cases():
    g = path_graph(3)  # w=0, y=1, z=2 collinear
    dm = distance_matrix(g)
    assert gromov_product(dm, 1, 2, 0) == 1
    assert gromov_product(dm, 1, 1, 0) == dm.dist(1, 0)
    dm4 = distance_matrix(cycle_graph(4))
    assert gromov_product(dm4, 1, 3, 0) == 0


def test_gromov_product_symmetry_and_bound():
    rng = random.Random(2)
    g = random_tree(12, 9)
    dm = distance_matrix(g)
    for _ in range(50):
        y, z, w = (rng.randrange(12) for _ in range(3))
        p = gromov_product(dm, y, z, w)
        assert p == gromov_product(dm, z, y, w)
        assert p >= 0
        assert p <= min(dm.dist(y, w), dm.dist(z, w))


def test_set_distance():
    dm = distance_matrix(path_graph(4))
    assert set_distance(dm, [0, 1], [1, 2]) == 0
    assert set_distance(dm, [0], [3]) == 3
    dm6 = distance_matrix(cycle_graph(6))
    assert set_distance(dm6, [0, 1], [3, 4]) == 2
    with pytest.raises(ValueError):
        set_distance(dm, [], [0])


def test_intercepts_pair_examples():
    g = path_graph(5)
    dm = distance_matrix(g)
    assert intercepted_pairs(g, dm, Ball(2, 0), [(0, 4)])[0]
    g4 = cycle_graph(4)
    dm4 = distance_matrix(g4)
    assert not intercepted_pairs(g4, dm4, Ball(1, 0), [(0, 2)])[0]
    # endpoint inside the ball counts as intercepted by convention
    assert intercepted_pairs(g4, dm4, Ball(1, 1), [(0, 2)])[0]
    assert intercepted_pairs(g, dm, Ball(0, 0), [(0, 4)])[0]


def test_interval_and_interception_match_enumeration():
    rng = random.Random(7)
    graphs = [
        random_tree(10, 3),
        cycle_graph(8),
        grid_graph(3, 4),
        Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]),
    ]
    for g in graphs:
        dm = distance_matrix(g)
        for u in range(g.n):
            for v in range(u, g.n):
                assert interval(dm, u, v) == naive_interval(g, dm, u, v)
        for _ in range(30):
            x, y = rng.randrange(g.n), rng.randrange(g.n)
            if x == y:
                continue
            b = Ball(rng.randrange(g.n), rng.randrange(3))
            assert intercepted_pairs(g, dm, b, [(x, y)])[0] == naive_intercepts(
                g, dm, ball_members(dm, b), x, y
            )


def test_out_of_range_vertex_ids_rejected():
    dm = distance_matrix(path_graph(5))
    with pytest.raises(ValueError, match="out of range"):
        set_distance(dm, [-1], [0])
    with pytest.raises(ValueError, match="out of range"):
        set_distance(dm, [0], [5])


@pytest.mark.parametrize(
    "call",
    [
        lambda dm: check_hit_pack(dm, [[4]], [-1], 0, [0], 0),
        lambda dm: check_hit_pack(dm, [[4], [5]], [0], 4, [0], 0),
        lambda dm: four_point_defect(dm, (-1, 0, 1, 2)),
        lambda dm: four_point_defect(dm, (0, 1, 2, 5)),
    ],
    ids=["hitting", "members", "quad-neg", "quad-big"],
)
def test_ids_that_would_wrap_are_rejected(call):
    with pytest.raises(ValueError, match="out of range"):
        call(distance_matrix(path_graph(5)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(connected_graphs(), glued_blocks()))
def test_stored_csr_reproduces_adjacency(g):
    assert g.indptr.dtype == g.indices.dtype == np.intp
    assert len(g.indptr) == g.n + 1 and g.indptr[-1] == len(g.indices) == 2 * g.m
    rows = [g.indices[g.indptr[v] : g.indptr[v + 1]].tolist() for v in range(g.n)]
    assert rows == g.adjacency
    for a in (g.indptr, g.indices):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[:1] = 0


def test_descend_geodesic_is_shortest_and_deterministic():
    g = grid_graph(4, 4)
    dm = distance_matrix(g)
    path = descend_geodesic(g, dm, 0, 15)
    assert len(path) - 1 == dm.dist(0, 15)
    assert path == descend_geodesic(g, dm, 0, 15)
    for a, b in zip(path, path[1:]):
        assert b in g.adjacency[a]


# Sizes around the 64-source word boundary and the int8/int16 switch at 128.
WORD_SIZES = [1, 2, 63, 64, 65, 128, 129]


def seeded_graph(n, seed, extra):
    """Random spanning tree plus up to ``extra`` random chords."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(extra if n > 1 else 0):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph(n, sorted(edges))


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.sampled_from(WORD_SIZES), st.integers(1, 40)),
    st.integers(0, 2**32),
    st.integers(0, 60),
)
@example(1, 0, 0)
@example(64, 1, 10)
@example(65, 2, 0)
@example(129, 3, 30)
def test_distance_matrix_rows_match_bfs(n, seed, extra):
    g = seeded_graph(n, seed, extra)
    d = distance_matrix(g).d
    assert d.dtype == np.int64
    assert d.shape == (n, n)
    for v in range(n):
        assert d[v].tolist() == bfs_distances(g, v)


def test_distance_matrix_word_sizes_on_paths_and_cycles():
    # paths reach the largest layer count a size allows; distance_matrix
    # fills a path by the tree path, so the kernel's word sizes (int8 up to
    # 128 vertices, int16 above) are checked on the kernel directly
    for n in WORD_SIZES[2:]:
        for g in (path_graph(n), cycle_graph(n)):
            want = [bfs_distances(g, v) for v in range(n)]
            assert distance_matrix(g).d.tolist() == want
            assert multi_source_distances(g, range(n)).tolist() == want


def assert_tree_path_matches_kernel(g):
    d = _tree_distances(g)
    want = multi_source_distances(g, range(g.n))
    assert d.dtype == np.int64 and d.flags.c_contiguous
    assert np.array_equal(d, want)
    assert np.array_equal(distance_matrix(g).d, want)


@settings(max_examples=200, deadline=None)
@given(connected_graphs(max_n=40, tree=True))
@example(Graph(1, []))
@example(Graph(2, [(0, 1)]))
def test_tree_distances_match_kernel(g):
    assert_tree_path_matches_kernel(g)


def long_tree(n, seed):
    """Vertex v hangs off one of the 8 before it, so the diameter is about n / 4."""
    rng = random.Random(seed)
    return Graph(n, [(rng.randint(max(0, v - 8), v - 1), v) for v in range(1, n)])


def test_tree_distances_deep_wide_and_large():
    star = Graph(2000, [(0, v) for v in range(1, 2000)])  # one wide layer
    leaf_root = Graph(600, [(v, 599) for v in range(599)])  # root is a leaf
    tiny = (Graph(1, []), Graph(2, [(0, 1)]))
    long = [long_tree(n, n) for n in (150, 173, 201, 250)]
    for g in (*tiny, path_graph(300), star, leaf_root, random_tree(1100, 4), *long):
        assert_tree_path_matches_kernel(g)


@settings(max_examples=100, deadline=None)
@given(connected_graphs(max_n=30, tree=True))
def test_tree_walk_is_a_preorder_from_0(g):
    parent, depth, order = tree_walk(g)
    assert order[0] == 0 and sorted(order) == list(range(g.n))
    assert depth == bfs_distances(g, 0)
    for v in order[1:]:
        assert v in g.adjacency[parent[v]]
    at = {v: i for i, v in enumerate(order)}
    for v in range(g.n):
        subtree = set()
        for u in range(g.n):
            w = u
            while w != -1 and w != v:
                w = parent[w]
            if w == v:
                subtree.add(u)
        assert set(order[at[v] : at[v] + len(subtree)]) == subtree


def test_tree_walk_refuses_other_graphs():
    with pytest.raises(ValueError, match="needs a tree"):
        tree_walk(cycle_graph(4))


def test_distance_matrix_several_source_blocks():
    # a tree takes the tree path in distance_matrix, so the kernel's source
    # blocks (512 sources each) are checked on the kernel directly
    g = random_tree(1100, 8)
    d = distance_matrix(g).d
    kernel = multi_source_distances(g, range(1100))
    for v in list(range(0, 1100, 97)) + [511, 512, 513, 1023, 1024, 1099]:
        want = bfs_distances(g, v)
        assert d[v].tolist() == want
        assert kernel[v].tolist() == want


@st.composite
def masked_instances(draw):
    g = draw(connected_graphs(max_n=20))
    flags = draw(st.lists(st.sampled_from("sdk"), min_size=g.n, max_size=g.n))
    deleted = [v for v in range(g.n) if flags[v] == "d"]
    sources = [v for v in range(g.n) if flags[v] == "s"]
    sources += draw(st.lists(st.sampled_from(sources), max_size=3)) if sources else []
    return g, draw(st.permutations(sources)), deleted


@settings(max_examples=200, deadline=None)
@given(masked_instances())
def test_masked_kernel_matches_distances_avoiding(case):
    g, sources, deleted = case
    got = multi_source_distances(g, sources, deleted)
    assert got.shape == (len(sources), g.n)
    for row, s in zip(got.tolist(), sources):
        assert row == distances_avoiding(g, deleted, s)


def test_masked_kernel_unreachable_and_errors():
    g = path_graph(6)
    got = multi_source_distances(g, [0, 5, 1], [3])
    assert got.tolist() == [
        [0, 1, 2, -1, -1, -1],
        [-1, -1, -1, -1, 1, 0],
        [1, 0, 1, -1, -1, -1],
    ]
    assert multi_source_distances(Graph(1, []), [0]).tolist() == [[0]]
    assert multi_source_distances(g, []).shape == (0, 6)
    with pytest.raises(ValueError, match="blocked"):
        multi_source_distances(g, [2], [2])
    with pytest.raises(ValueError, match="out of range"):
        multi_source_distances(g, [6])
    with pytest.raises(ValueError, match="out of range"):
        multi_source_distances(g, [0], [-1])


def first_unreachable(n, edges):
    """Smallest vertex with no path from 0, by the oracle BFS on a bare
    adjacency list, or None when every vertex is reachable."""
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    row = bfs_distances(SimpleNamespace(n=n, adjacency=adjacency), 0)
    return row.index(-1) if -1 in row else None


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 70), st.integers(0, 2**32), st.integers(0, 40))
@example(4, 0, 0).via("isolated last vertex")
@example(65, 1, 0).via("isolated vertex past the first word")
def test_disconnected_graph_message_unchanged(n, seed, edge_count):
    rng = random.Random(seed)
    pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(edge_count)} if n > 1 else set()
    if n > 1 and edge_count == 0:
        pairs = {(v, v + 1) for v in range(n - 2)}  # a path and an isolated last vertex
    k = first_unreachable(n, pairs)
    if k is None:
        g = Graph(n, sorted(pairs))
        assert distance_matrix(g).d.tolist() == [bfs_distances(g, v) for v in range(n)]
    else:
        with pytest.raises(ValueError) as err:
            Graph(n, sorted(pairs))
        assert str(err.value) == f"graph is disconnected: vertex {k} unreachable from 0"


def test_disconnected_isolated_vertices_messages():
    cases = [
        (4, [(0, 1), (1, 2)], 3),
        (4, [(0, 1), (2, 3)], 2),
        (3, [(1, 2)], 1),
        (2, [], 1),
        # n - 1 edges, yet a cycle plus isolated vertices: not a tree
        (4, [(0, 1), (1, 2), (0, 2)], 3),
        (4, [(1, 2), (2, 3), (1, 3)], 1),
        (6, [(0, 5), (1, 2), (2, 3), (3, 4), (1, 4)], 1),
    ]
    for n, edges, k in cases:
        with pytest.raises(ValueError, match=f"^graph is disconnected: vertex {k} unreachable from 0$"):
            Graph(n, edges)


@st.composite
def interception_instances(draw, tree=False):
    g = draw(connected_graphs(min_n=2, max_n=12, tree=tree))
    vertex = st.integers(0, g.n - 1)
    ball = Ball(draw(vertex), draw(st.integers(0, 3)))
    pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=12))
    return g, ball, pairs


@settings(max_examples=200, deadline=None)
@given(interception_instances())
def test_interception_matches_geodesic_enumeration(case):
    g, ball, pairs = case
    dm = distance_matrix(g)
    members = ball_members(dm, ball)
    batch = intercepted_pairs(g, dm, ball, pairs).tolist()
    for (x, y), got in zip(pairs, batch):
        want = naive_intercepts(g, dm, members, x, y)
        assert intercepted_pairs(g, dm, ball, [(x, y)])[0] == got == want


@settings(max_examples=200, deadline=None)
@given(interception_instances(tree=True))
@example((path_graph(5), Ball(2, 0), [(0, 4), (2, 2), (1, 1), (2, 4), (3, 4), (4, 3)]))
@example((star_k13(), Ball(1, 0), [(1, 2), (2, 3), (1, 1), (3, 3)]))
def test_tree_interception_is_the_gromov_product_test(case):
    g, ball, pairs = case
    dm = distance_matrix(g)
    members = ball_members(dm, ball)
    got = intercepted_pairs(g, dm, ball, pairs)
    assert got.dtype == bool
    assert got.tolist() == [naive_intercepts(g, dm, members, x, y) for x, y in pairs]


def test_many_pairs_skip_the_interval_mask():
    # a few pairs and every ordered pair, both against the oracle: the
    # batch answers do not depend on how many pairs share the call
    g = grid_graph(6, 8)
    dm = distance_matrix(g)
    every = [(x, y) for x in range(g.n) for y in range(g.n)]
    few = [(0, 47), (7, 40), (12, 15), (3, 3), (1, 46), (47, 0)]
    for ball in (Ball(20, 0), Ball(0, 1), Ball(27, 1), Ball(22, 2)):
        members = ball_members(dm, ball)
        for pairs in (every, few):
            got = intercepted_pairs(g, dm, ball, pairs).tolist()
            assert got == [naive_intercepts(g, dm, members, x, y) for x, y in pairs]
