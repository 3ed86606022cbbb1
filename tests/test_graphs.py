import random
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercore import (
    Graph,
    distance_matrix,
    intercepted_pairs,
    interval,
    multi_source_distances,
)
from hypercore.check import check_hit_pack, four_point_defect
from hypercore.generators import cycle_graph, grid_graph, path_graph, random_tree, star_path_graph
from hypercore.graphs import (
    DistanceMatrix,
    DuplicateEdgeError,
    _descend,
    _distance_dtype,
    _fold_rows,
    _min_rows,
    _set_block,
    _tree_distances,
    tree_walk,
)
from oracles import (
    ball_members,
    bfs_distances,
    distances_avoiding,
    naive_intercepts,
    naive_interval,
    neighbours,
    set_distance,
    validate_metric,
)
from strategies import connected_graphs


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
        assert dm.d[0, leaf] == 1
    assert dm.d[1, 2] == dm.d[2, 3] == 2


def test_distance_matrix_grid_corner():
    dm = distance_matrix(grid_graph(3, 3))
    assert dm.d[0, 8] == 4


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
    assert ball_members(dm, 2, 0) == [2]
    assert ball_members(dm, 2, 1) == [1, 2, 3]
    dm_star = distance_matrix(star_k13())
    assert ball_members(dm_star, 0, 1) == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="^ball radius must be nonnegative, got -1$"):
        intercepted_pairs(path_graph(5), dm, 0, -1, [(0, 4)])
    with pytest.raises(ValueError, match="^pairs contain a vertex out of range for n=5$"):
        intercepted_pairs(path_graph(5), dm, 0, 1, [(0, 4), (1, 5)])


def test_set_distance():
    dm = distance_matrix(path_graph(4))
    assert set_distance(dm, [0, 1], [1, 2]) == 0
    assert set_distance(dm, [0], [3]) == 3
    dm6 = distance_matrix(cycle_graph(6))
    assert set_distance(dm6, [0, 1], [3, 4]) == 2
    with pytest.raises(ValueError):
        set_distance(dm, [], [0])


@settings(max_examples=200, deadline=None)
@given(connected_graphs(), st.data())
def test_set_distance_is_the_least_pair_distance(g, data):
    dm = distance_matrix(g)
    vertices = st.lists(st.integers(0, g.n - 1), min_size=1, max_size=6)
    X, Y = data.draw(vertices), data.draw(vertices)
    assert set_distance(dm, X, Y) == min(dm.d[x, y] for x in X for y in Y)


def test_intercepted_pairs_examples():
    g = path_graph(5)
    dm = distance_matrix(g)
    assert intercepted_pairs(g, dm, 2, 0, [(0, 4)])[0]
    g4 = cycle_graph(4)
    dm4 = distance_matrix(g4)
    assert not intercepted_pairs(g4, dm4, 1, 0, [(0, 2)])[0]
    # endpoint inside the ball counts as intercepted by convention
    assert intercepted_pairs(g4, dm4, 1, 1, [(0, 2)])[0]
    assert intercepted_pairs(g, dm, 0, 0, [(0, 4)])[0]


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
            c, r = rng.randrange(g.n), rng.randrange(3)
            assert intercepted_pairs(g, dm, c, r, [(x, y)])[0] == naive_intercepts(
                g, dm, ball_members(dm, c, r), x, y
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


@st.composite
def edge_lists(draw, max_n=30):
    """(n, edges) of a connected simple graph: a random spanning tree plus
    random chords, each edge in either orientation, in any order."""
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if n > 2:
        chord = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])
        edges |= set(draw(st.lists(chord, max_size=2 * n)))
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in sorted(edges)]
    return n, draw(st.permutations(edges))


@settings(max_examples=200, deadline=None)
@given(edge_lists())
def test_csr_rows_are_the_sorted_input_neighbours(case):
    n, edges = case
    g = Graph(n, edges)
    want = [[] for _ in range(n)]
    for u, v in edges:
        want[u].append(v)
        want[v].append(u)
    assert g.indptr.dtype == g.indices.dtype == np.intp
    assert len(g.indptr) == n + 1 and g.indptr[-1] == len(g.indices) == 2 * g.m == 2 * len(edges)
    rows = [g.indices[g.indptr[v] : g.indptr[v + 1]].tolist() for v in range(n)]
    assert rows == [sorted(nbrs) for nbrs in want]
    # write_edge_list and the benchmark's inputs keep this order
    assert list(g.edges()) == sorted((min(e), max(e)) for e in edges)
    for a in (g.indptr, g.indices):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[:1] = 0


def unpack_error(edge):
    """The error Python gives for unpacking ``edge`` into two names."""
    try:
        _, _ = edge
    except (TypeError, ValueError) as exc:
        return exc


@pytest.mark.parametrize(
    "n, edges, error, message",
    [
        (3, [(0, 1), (1, 2.0)], TypeError, None),
        (3, [(0, 1), (0.5, 2)], TypeError, None),
        (3, [(0, 1), ("1", 2)], TypeError, None),
        (3, [(0, 1), (1, 2**70)], ValueError, f"edge (1,{2**70}) out of range for n=3"),
        (3, [(0, 1), (-1, 2)], ValueError, "edge (-1,2) out of range for n=3"),
        (3, [(0, 1), (1, 2, 0)], ValueError, str(unpack_error((1, 2, 0)))),
        (3, [(0, 1), (2,)], ValueError, str(unpack_error((2,)))),
        (3, [(0, 1), (2, 2)], ValueError, "self-loop at vertex 2"),
        (3, [(0, 1), (1, 2), (0, 1)], DuplicateEdgeError, "duplicate edge (0,1)"),
        (3, [(0, 1), (1, 2), (2, 1)], DuplicateEdgeError, "duplicate edge (1,2)"),
        # a repeat listed before a fault decides the message, a float does not
        (3, [(0, 1), (1, 0), (1, 7)], DuplicateEdgeError, "duplicate edge (0,1)"),
        (3, [(0, 1), (1, 0), (1, 2.0)], TypeError, None),
        (4, [(0, 1), (2, 3)], ValueError, "graph is disconnected: vertex 2 unreachable from 0"),
        (0, [], ValueError, "graph needs at least one vertex, got n=0"),
    ],
    ids=[
        "float", "half", "string", "huge", "negative", "triple", "single", "self-loop",
        "repeat", "reversed-repeat", "repeat-then-range", "repeat-then-float",
        "disconnected", "no-vertex",
    ],
)
def test_malformed_edge_lists_are_refused(n, edges, error, message):
    # no id is converted: a float or a string is refused, never truncated
    # or parsed, and an id past the machine integers is out of range
    with pytest.raises(Exception) as err:
        Graph(n, edges)
    assert type(err.value) is error
    if message is not None:
        assert str(err.value) == message


@pytest.mark.parametrize(
    "n, edges",
    [
        (4, [(0, 1), (2, 1), (3, 2)]),
        (3, [(0, 1), (1, 3)]),
        (3, [(0, 1), (-1, 2)]),
        (3, [(0, 1), (2, 2)]),
        (3, [(0, 1), (1, 2), (2, 1)]),
        (4, [(0, 1), (2, 3)]),
        (1, []),
    ],
    ids=["graph", "range", "negative", "self-loop", "repeat", "disconnected", "no-edge"],
)
@pytest.mark.parametrize("dtype", [np.intp, np.int16, np.uint64, float, str])
def test_an_edge_array_reads_as_its_list(n, edges, dtype):
    # an integer array is taken whole: the same graph or the same error as
    # the list of its pairs; a float or string array is refused as such
    if dtype is np.uint64 and any(min(e) < 0 for e in edges):
        edges = [(u % 2**64, v % 2**64) for u, v in edges]  # past the machine integers
    array = np.array(edges, dtype=dtype).reshape(-1, 2)

    def outcome(edges):
        try:
            g = Graph(n, edges)
        except (TypeError, ValueError) as exc:
            return type(exc), str(exc)
        return g.m, g.indptr.tolist(), g.indices.tolist(), g._walk

    if array.dtype.kind in "iu" or not edges:
        assert outcome(array) == outcome(edges)
    else:
        assert outcome(array)[0] is TypeError


def test_descend_walks_the_smallest_id_geodesic():
    g = grid_graph(4, 4)
    dm = distance_matrix(g)
    path = [_descend(g, dm, 0, 15, k) for k in range(int(dm.d[0, 15]) + 1)]
    assert path == [0, 1, 2, 3, 7, 11, 15]  # the smallest-id nearer neighbour at each step
    for a, b in zip(path, path[1:]):
        assert b in neighbours(g, a)
    c6 = cycle_graph(6)
    assert _descend(c6, distance_matrix(c6), 3, 0, 1) == 2  # 2 and 4 are both 2 from 0
    assert _descend(g, dm, 5, 5, 0) == 5


# Sizes around the 64-source word boundaries of the kernel's bitsets.
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
    assert d.dtype == np.int16  # the distance type below 16,384 vertices
    assert d.shape == (n, n)
    for v in range(n):
        assert d[v].tolist() == bfs_distances(g, v)


def test_distance_matrix_word_sizes_on_paths_and_cycles():
    # paths reach the largest layer count a size allows, so every bit plane
    # of the kernel's counts is set; distance_matrix fills a path by the tree
    # path, so the kernel is checked directly
    for n in WORD_SIZES[2:]:
        for g in (path_graph(n), cycle_graph(n)):
            want = [bfs_distances(g, v) for v in range(n)]
            assert distance_matrix(g).d.tolist() == want
            assert multi_source_distances(g, range(n)).tolist() == want


@pytest.mark.parametrize("n, dtype", [(16383, np.int16), (16384, np.int32)])
def test_distance_dtype_switches_at_16384_vertices(n, dtype):
    assert _distance_dtype(n) == dtype
    assert 2 * (n - 1) <= np.iinfo(dtype).max  # a sum of two distances fits
    star = Graph(n, [(0, v) for v in range(1, n)])
    assert multi_source_distances(star, [1]).dtype == dtype
    assert DistanceMatrix([[0, 1], [1, 0]]).d.dtype == np.int16


def test_distance_matrix_is_stored_c_contiguous():
    # so d.ravel() is a view, and a paired read is one take on it
    d = distance_matrix(grid_graph(3, 4)).d
    for other in (np.asfortranarray(d), d[::-1, ::-1][::-1, ::-1], d.astype(np.int64)):
        dm = DistanceMatrix(other)
        assert dm.d.flags.c_contiguous and dm.d.dtype == np.int16
        assert dm.d.tolist() == d.tolist()


def test_distance_matrix_is_read_only_and_leaves_its_input_writeable():
    with pytest.raises(ValueError, match="read-only"):
        distance_matrix(grid_graph(3, 4)).d[0, 1] = 5
    for given in (np.array([[0, 1], [1, 0]], dtype=np.int16), [[0, 1], [1, 0]], np.eye(2)):
        dm = DistanceMatrix(given)
        with pytest.raises(ValueError, match="read-only"):
            dm.d[0, 1] = 5
        if isinstance(given, np.ndarray):
            assert given.flags.writeable
            given[0, 0] = 0


def assert_tree_path_matches_kernel(g):
    d = _tree_distances(g)
    want = multi_source_distances(g, range(g.n))
    assert d.dtype == want.dtype == np.int16 and d.flags.c_contiguous
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
        assert v in neighbours(g, parent[v])
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


def test_tree_walk_is_kept_from_the_constructor():
    g = random_tree(60, 5)
    walk = tree_walk(g)
    assert all(type(lists) is list for lists in walk)
    g.indptr = g.indices = None  # a second traversal would fail here
    assert all(again is kept for again, kept in zip(tree_walk(g), walk))


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
    ball = (draw(vertex), draw(st.integers(0, 3)))
    pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=12))
    return g, ball, pairs


@settings(max_examples=200, deadline=None)
@given(interception_instances())
def test_interception_matches_geodesic_enumeration(case):
    g, ball, pairs = case
    dm = distance_matrix(g)
    members = ball_members(dm, *ball)
    batch = intercepted_pairs(g, dm, *ball, pairs).tolist()
    for (x, y), got in zip(pairs, batch):
        want = naive_intercepts(g, dm, members, x, y)
        assert intercepted_pairs(g, dm, *ball, [(x, y)])[0] == got == want


@settings(max_examples=200, deadline=None)
@given(interception_instances(tree=True))
@example((path_graph(5), (2, 0), [(0, 4), (2, 2), (1, 1), (2, 4), (3, 4), (4, 3)]))
@example((star_k13(), (1, 0), [(1, 2), (2, 3), (1, 1), (3, 3)]))
def test_tree_interception_is_the_gromov_product_test(case):
    g, ball, pairs = case
    dm = distance_matrix(g)
    members = ball_members(dm, *ball)
    got = intercepted_pairs(g, dm, *ball, pairs)
    assert got.dtype == bool
    assert got.tolist() == [naive_intercepts(g, dm, members, x, y) for x, y in pairs]


def test_many_pairs_skip_the_interval_mask():
    # a few pairs and every ordered pair, both against the oracle: the
    # batch answers do not depend on how many pairs share the call
    g = grid_graph(6, 8)
    dm = distance_matrix(g)
    every = [(x, y) for x in range(g.n) for y in range(g.n)]
    few = [(0, 47), (7, 40), (12, 15), (3, 3), (1, 46), (47, 0)]
    for ball in ((20, 0), (0, 1), (27, 1), (22, 2)):
        members = ball_members(dm, *ball)
        for pairs in (every, few):
            got = intercepted_pairs(g, dm, *ball, pairs).tolist()
            assert got == [naive_intercepts(g, dm, members, x, y) for x, y in pairs]


@st.composite
def ragged_groups(draw):
    """Rows of an int16 or int64 array, and groups of row numbers (repeats
    allowed) in non-increasing size."""
    dtype = draw(st.sampled_from([np.int16, np.int64]))
    info = np.iinfo(dtype)
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    values = st.lists(st.integers(int(info.min), int(info.max)), min_size=cols, max_size=cols)
    a = np.array(draw(st.lists(values, min_size=rows, max_size=rows)), dtype=dtype)
    sizes = sorted(draw(st.lists(st.integers(1, 6), min_size=1, max_size=10)), reverse=True)
    return a, [draw(st.lists(st.integers(0, rows - 1), min_size=k, max_size=k)) for k in sizes]


@settings(max_examples=200, deadline=None)
@given(ragged_groups())
@example((np.arange(12, dtype=np.int16).reshape(3, 4), [[2], [0], [1], [2]]))  # singletons
@example((-np.arange(12, dtype=np.int64).reshape(3, 4), [[2, 0, 1, 1]]))  # one group
@example((np.eye(3, dtype=np.int16), [[0, 1, 2], [2, 1, 0], [1, 2], [0, 2], [1]]))  # ties
def test_fold_rows_reduces_each_group(case):
    a, groups = case
    sizes = np.array([len(grp) for grp in groups])
    flat = np.array([v for grp in groups for v in grp], dtype=np.intp)
    first = np.cumsum(sizes) - sizes
    for ufunc in (np.minimum, np.maximum):
        out = _fold_rows(ufunc, a, flat, first, sizes)
        assert out.dtype == a.dtype
        assert out.tolist() == [ufunc.reduce(a[grp], axis=0).tolist() for grp in groups]


@st.composite
def set_families(draw):
    """A graph and a family of vertex lists with repeated members: of mixed
    sizes, all of one size, all singletons, or no set at all."""
    g = draw(connected_graphs(max_n=10))
    kind = draw(st.sampled_from(["ragged", "equal", "singletons", "empty"]))
    if kind == "empty":
        return g, []
    sizes = {
        "ragged": st.integers(1, g.n + 2),
        "equal": st.just(draw(st.integers(1, 4))),
        "singletons": st.just(1),
    }[kind]
    vertex = st.integers(0, g.n - 1)
    lists = st.builds(lambda k, vs: vs[:k], sizes, st.lists(vertex, min_size=g.n + 2))
    return g, draw(st.lists(lists, min_size=1, max_size=8))


@settings(max_examples=200, deadline=None)
@given(set_families())
@example((path_graph(3), []))
@example((path_graph(4), [[3], [0], [2, 2], [1, 3, 0], [0]]))
def test_set_rows_equal_set_loops(case):
    g, sets = case
    dm = distance_matrix(g)
    want = [dm.d[S].min(axis=0).tolist() for S in sets]
    assert _min_rows(dm.d, sets).tolist() == want
    row = dm.d[g.n - 1]
    assert _min_rows(row, sets).tolist() == [int(row[S].min()) for S in sets]
    near, gaps = _set_block(dm, sets)
    assert near.shape == (len(sets), g.n) and near.dtype == dm.d.dtype
    assert near.tolist() == want
    assert gaps.shape == (len(sets), len(sets))
    assert gaps.tolist() == [[int(dm.d[np.ix_(S, T)].min()) for T in sets] for S in sets]


@pytest.mark.parametrize(
    "sets, msg",
    [
        ([[5, -3], [], [9]], "cannot take the distance to an empty set"),
        ([[1, 9], [-2, 0], [4]], "set contains vertex -2, out of range for n=4"),
        ([[3, 7], [2], [5]], "set contains vertex 5, out of range for n=4"),
    ],
)
def test_set_rows_refuse_an_empty_set_then_the_smallest_bad_vertex(sets, msg):
    dm = distance_matrix(path_graph(4))
    for rows in (
        lambda: _min_rows(dm.d, sets),
        lambda: _min_rows(dm.d[0], sets),
        lambda: _set_block(dm, sets),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            rows()
