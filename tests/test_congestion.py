import itertools
import random
import tracemalloc
from fractions import Fraction
from math import comb, log

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercore import (
    Graph,
    distance_matrix,
    intercepted_pairs,
    median_vertex,
    min_core,
    multi_source_distances,
    traffic_load,
)
from hypercore import congestion
from hypercore.congestion import _geodesic_dag, _tree_profile_pass
from hypercore.generators import cycle_graph, gnp_connected, grid_graph, path_graph, random_tree
from conftest import path_count
from oracles import (
    _intercepted_count,
    centroid_vertex,
    all_geodesics,
    bfs_distances,
    escape_histogram,
    geodesic_dag,
    histogram_min_core,
    naive_traffic_load,
    radius_scan_min_core,
)
from strategies import connected_graphs, glued_blocks

ALPHAS = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1)]


def test_path_counts_examples():
    tree = random_tree(12, 4)
    dm = distance_matrix(tree)
    for s in range(12):
        for t in range(12):
            assert path_count(tree, s, t) == 1
    g4 = cycle_graph(4)
    assert path_count(g4, 0, 2) == 2
    g23 = grid_graph(2, 3)
    assert path_count(g23, 0, 5) == 3


def test_path_counts_symmetric_and_match_enumeration():
    g = gnp_connected(11, 0.3, 8)
    dm = distance_matrix(g)
    for s in range(g.n):
        for t in range(g.n):
            c = path_count(g, s, t)
            assert c == path_count(g, t, s)
            assert c == len(all_geodesics(g, dm, s, t))


def test_traffic_load_examples():
    g = path_graph(5)
    assert traffic_load(g, [(0, 4)], [0]) == 1
    assert traffic_load(g, [(0, 4)], [2]) == 1
    g4 = cycle_graph(4)
    assert traffic_load(g4, [(0, 2)], [1]) == Fraction(1, 2)


def test_traffic_load_monotone_and_total():
    g = gnp_connected(12, 0.3, 2)
    rng = random.Random(3)
    small = sorted(rng.sample(range(g.n), 3))
    larger = sorted(set(small) | {rng.randrange(g.n)})
    assert traffic_load(g, None, small) <= traffic_load(g, None, larger)
    assert traffic_load(g, None, range(g.n)) == g.n * (g.n - 1)


def test_traffic_load_matches_enumeration():
    g = gnp_connected(10, 0.3, 14)
    dm = distance_matrix(g)
    pairs = list(itertools.permutations(range(g.n), 2))
    for S in ([0], [3, 7], [1, 2, 8]):
        assert traffic_load(g, None, S) == naive_traffic_load(g, dm, pairs, S)


def test_uniform_demand_is_every_ordered_pair():
    for g in (path_graph(2), cycle_graph(7)):
        pairs = list(itertools.permutations(range(g.n), 2))
        for S in ([0], [1]):
            assert traffic_load(g, None, S) == traffic_load(g, pairs, S)
    assert traffic_load(Graph(1, []), None, [0]) == 0
    g = grid_graph(3, 4)
    pairs = list(itertools.permutations(range(g.n), 2))
    for S in ([0], [5, 6], [0, 11]):
        assert traffic_load(g, None, S) == traffic_load(g, pairs, S)


def test_demand_validation():
    for g in (random_tree(9, 3), gnp_connected(9, 0.4, 3)):
        with pytest.raises(ValueError, match=r"^demand pair \(1,1\) has equal endpoints$"):
            traffic_load(g, [(1, 2), (1, 1)], [4])
        for bad in ((-1, 0), (0, 9), (12, 3)):
            message = rf"^demand pair \({bad[0]},{bad[1]}\) out of range for n=9$"
            with pytest.raises(ValueError, match=message):
                traffic_load(g, [(1, 2), bad], [4])


def test_min_core_star():
    star = Graph(5, [(0, i) for i in range(1, 5)])
    res = min_core(star, range(5))
    assert res.center == 0
    assert res.radius == 0
    assert res.intercepted_pairs == res.total_pairs == 10


def test_min_core_trees_radius_zero():
    for seed in range(5):
        g = random_tree(20, seed + 50)
        assert min_core(g, range(g.n)).radius == 0


def test_min_core_trees_arbitrary_profile():
    rng = random.Random(17)
    for seed in range(4):
        g = random_tree(24, seed + 80)
        X = sorted(rng.sample(range(24), rng.randint(2, 12)))
        res = min_core(g, X)
        assert res.radius == 0
        assert res.intercepted_pairs >= -(-len(X) * len(X) // 4)


def test_min_core_path10():
    g = path_graph(10)
    res = min_core(g, range(10))
    # pairs through vertex 4: C(10,2) - C(4,2) - C(5,2) = 29, best at rho=0
    assert res.radius == 0
    assert res.center == 4
    assert res.intercepted_pairs == 29
    assert res.intercepted_pairs >= 25
    assert res.total_pairs == 45
    assert res.median == 4  # vertices 4 and 5 tie on distance sum 25; smallest id


def test_min_core_count_is_recheckable_via_intercepted_pairs():
    g = gnp_connected(12, 0.3, 21)
    dm = distance_matrix(g)
    X = list(range(g.n))
    res = min_core(g, X)
    pairs = [(x, y) for i, x in enumerate(X) for y in X[i + 1 :]]
    recount = int(intercepted_pairs(g, dm, res.center, res.radius, pairs).sum())
    assert recount == res.intercepted_pairs


def test_min_core_respects_alpha_and_errors():
    g = path_graph(6)
    res = min_core(g, range(6), Fraction(1, 3))
    assert res.intercepted_pairs >= -(-36 // 6)
    with pytest.raises(ValueError):
        min_core(g, [0])
    with pytest.raises(ValueError, match="exceeds"):
        min_core(g, range(6), Fraction(99, 100))


def test_min_core_refuses_float_alpha():
    # a float would make the threshold inexact; an int stays exact
    g = path_graph(6)
    with pytest.raises(TypeError, match="^alpha must be an int or a Fraction, got float$"):
        min_core(g, range(6), 0.5)
    with pytest.raises(ValueError, match=r"^threshold alpha\*\|X\|\^2/2 = 18 exceeds"):
        min_core(g, range(6), 1)
    assert min_core(g, range(6), Fraction(1, 2)).intercepted_pairs >= 9


def test_tree_fast_path_matches_generic_counts():
    for seed in (1, 9):
        g = random_tree(16, seed)
        dm = distance_matrix(g)
        rng = random.Random(seed)
        X = sorted(rng.sample(range(16), 9))
        counts, sums = _tree_profile_pass(g, X)
        total = len(X) * (len(X) - 1) // 2
        for v in range(g.n):
            generic = _intercepted_count(g, dm, frozenset([v]), X, total)
            assert generic == counts[v]
            assert sum(int(dm.d[v, x]) for x in X) == sums[v]


def test_median_and_centroid_examples():
    dm = distance_matrix(path_graph(5))
    assert median_vertex(dm, [0, 4]) == 0  # everything on the geodesic ties; smallest id
    assert centroid_vertex(dm, [0, 4]) == 2
    assert centroid_vertex(dm, [3]) == 3
    star = Graph(5, [(0, i) for i in range(1, 5)])
    assert median_vertex(distance_matrix(star), [1, 2, 3, 4]) == 0


def test_median_matches_bruteforce():
    g = random_tree(18, 13)
    dm = distance_matrix(g)
    rng = random.Random(1)
    X = sorted(rng.sample(range(18), 7))
    brute = min(range(18), key=lambda v: (sum(int(dm.d[v, x]) for x in X), v))
    assert median_vertex(dm, X) == brute
    brute2 = min(range(18), key=lambda v: (sum(int(dm.d[v, x]) ** 2 for x in X), v))
    assert centroid_vertex(dm, X) == brute2


def test_centroid_squares_without_overflow():
    # squares of distances up to 399 leave int16: a bare int16 square gives 36
    assert centroid_vertex(distance_matrix(path_graph(400)), range(400)) == 199


def test_median_and_centroid_on_a_long_path():
    # on the path 0..n-1 both sums are symmetric about (k - 1) / 2 for the
    # profile 0..k-1 and smallest there, so the smaller middle vertex wins
    dm = distance_matrix(path_graph(2000))
    for k in (2000, 1500, 7):
        assert median_vertex(dm, range(k)) == (k - 1) // 2
        assert centroid_vertex(dm, range(k)) == (k - 1) // 2


def test_median_and_centroid_over_several_row_chunks():
    # 2**16 // 1100 = 59 profile rows a chunk, so 300 rows take six chunks
    g = grid_graph(25, 44)
    dm = distance_matrix(g)
    X = sorted(random.Random(2).sample(range(g.n), 300))
    cols = dm.d[:, X]
    assert median_vertex(dm, X) == int(cols.sum(axis=1).argmin())
    assert centroid_vertex(dm, X) == int((cols * cols).sum(axis=1).argmin())


@settings(max_examples=200, deadline=None)
@given(connected_graphs(max_n=10), st.data())
def test_path_counts_match_enumeration_on_random_graphs(g, data):
    dm = distance_matrix(g)
    s = data.draw(st.integers(0, g.n - 1))
    for t in range(g.n):
        assert path_count(g, s, t) == len(all_geodesics(g, dm, s, t))


@st.composite
def dag_instances(draw):
    """A graph, the distance rows of a random set of sources and a random
    stopping distance per source, -1 (no heads) included."""
    g = draw(
        st.one_of(
            connected_graphs(),
            glued_blocks(),
            st.builds(cycle_graph, st.integers(3, 16)),
            st.builds(grid_graph, st.integers(2, 4), st.integers(2, 5)),
        )
    )
    xs = draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n, unique=True))
    dx = multi_source_distances(g, xs)
    last = draw(st.lists(st.integers(-1, int(dx.max())), min_size=len(xs), max_size=len(xs)))
    return g, dx, np.array(last)


@settings(max_examples=300, deadline=None)
@given(dag_instances())
def test_geodesic_dag_matches_the_vertex_by_vertex_dag(case):
    g, dx, last = case
    preds, starts, vertices, degree, bounds = _geodesic_dag(g, dx, last)
    dag = geodesic_dag(g, dx, last.tolist())
    layer = dx.ravel()
    heads = sorted(dag, key=lambda h: (layer[h], -len(dag[h]), h))
    assert vertices.tolist() == heads
    assert degree.tolist() == [len(dag[h]) for h in heads]
    top = int(last.max())
    assert bounds.tolist() == [sum(layer[h] < k for h in heads) for k in range(1, top + 2)]
    for h, s, k in zip(heads, starts.tolist(), degree.tolist()):
        assert sorted(preds[s : s + k].tolist()) == dag[h]


def _alphas(nX):
    """The ALPHAS within reach of nX profile vertices, and the largest
    alpha there is, (nX - 1) / nX, whose threshold is every pair."""
    top = Fraction(nX - 1, nX)
    return [a for a in ALPHAS if a < top] + [top]


@st.composite
def core_instances(draw):
    g = draw(
        st.one_of(
            connected_graphs(min_n=2),
            connected_graphs(min_n=2, tree=True),
            glued_blocks(),
            st.builds(cycle_graph, st.integers(3, 16)),
            st.builds(grid_graph, st.integers(2, 4), st.integers(2, 5)),
        )
    )
    everyone = st.just(list(range(g.n)))
    X = draw(st.one_of(everyone, st.lists(st.integers(0, g.n - 1), min_size=2, unique=True)))
    return g, X, draw(st.sampled_from(_alphas(len(X))))


def _third(n, seed):
    return sorted(random.Random(seed).sample(range(n), n // 3))


# partial profiles of cycles whose median reaches the threshold at least two
# radii above the answer (median radius in the comment), so the search
# passes below its first window
BELOW_THE_MEDIAN = [
    (cycle_graph(12), _third(12, 3), Fraction(1, 3)),  # r* = 0, median 2
    (cycle_graph(22), _third(22, 1), Fraction(2, 3)),  # r* = 3, median 6
    (cycle_graph(29), _third(29, 1), Fraction(2, 3)),  # r* = 4, median 7
    (cycle_graph(33), _third(33, 3), Fraction(2, 3)),  # r* = 6, median 9
]


def _median_radius(g, dm, X, alpha):
    need = alpha * len(X) ** 2 / 2
    curve = np.cumsum(escape_histogram(g, dm, X), axis=1)
    median = radius_scan_min_core(g, dm, X, alpha).median
    return int(np.argmax(curve[median] >= -(-need.numerator // need.denominator)))


def _counting_passes(mp):
    """Record the window of radii of each ``_window_pass`` call."""
    windows = []
    real = congestion._window_pass

    def recorded(*args):
        windows.append(args[4])
        return real(*args)

    mp.setattr(congestion, "_window_pass", recorded)
    return windows


@settings(max_examples=300, deadline=None)
@given(core_instances())
@example((path_graph(9), list(range(9)), Fraction(8, 9)))
@example((cycle_graph(7), [0, 3], Fraction(1, 2)))
def test_min_core_matches_radius_scan(case):
    g, X, alpha = case
    dm = distance_matrix(g)
    res = min_core(g, X, alpha)
    assert res == radius_scan_min_core(g, dm, X, alpha)
    assert res == histogram_min_core(g, dm, X, alpha)


# _BLOCK_ELEMS = k n^e as (k, e).  2n: one source per pass, and a few rows
# per chunk, so the heads of a BFS layer are folded in several chunks, the
# target rows are counted in several chunks and the ball-deleted counts of
# the bisection take one source per call; k n^2: passes over k sources
# whose DAGs stop at different depths, a short last pass, and several
# windows of radii, each building its blocks anew
BLOCK_ELEMS = [(2, 1), (1, 2), (2, 2), (3, 2)]
GNP30 = gnp_connected(30, 0.3, 4)


@settings(max_examples=150, deadline=None)
@given(core_instances(), st.sampled_from(BLOCK_ELEMS))
@example((GNP30, list(range(30)), Fraction(1, 2)), (2, 1))
@example((GNP30, list(range(30)), Fraction(3, 4)), (2, 1))
@example((GNP30, [0, 3, 4, 9, 17, 22, 29], Fraction(1, 2)), (2, 1))
@example((GNP30, [0, 3, 4, 9, 17, 22, 29], Fraction(3, 4)), (2, 1))
@example((GNP30, [5, 21], Fraction(1, 2)), (2, 1))
@example((GNP30, list(range(30)), Fraction(1, 2)), (1, 2))
@example((GNP30, [0, 3, 4, 9, 17, 22, 29], Fraction(3, 4)), (2, 2))
@example((GNP30, [5, 21], Fraction(1, 2)), (3, 2))
def test_min_core_in_small_blocks(case, elems):
    g, X, alpha = case
    k, e = elems
    dm = distance_matrix(g)
    expected = histogram_min_core(g, dm, X, alpha)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(congestion, "_BLOCK_ELEMS", k * g.n**e)
        assert min_core(g, X, alpha) == expected
    assert expected == radius_scan_min_core(g, dm, X, alpha)


@pytest.mark.parametrize("case", BELOW_THE_MEDIAN, ids=lambda c: f"cycle{c[0].n}")
def test_min_core_below_the_median_radius(case):
    g, X, alpha = case
    dm = distance_matrix(g)
    expected = histogram_min_core(g, dm, X, alpha)
    assert expected == radius_scan_min_core(g, dm, X, alpha)
    assert _median_radius(g, dm, X, alpha) >= expected.radius + 2
    for k, e in BLOCK_ELEMS[:3]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(congestion, "_BLOCK_ELEMS", k * g.n**e)
            windows = _counting_passes(mp)
            assert min_core(g, X, alpha) == expected
        assert len(windows) >= 2  # the first window {median - 1, median} passes


def test_min_core_far_below_the_containment_bound():
    # two 8-cliques joined by a 40-edge path, the profile both cliques and
    # the path's middle vertex 27: that vertex cuts every pair of the two
    # cliques, so r* = 0, but its ball holds enough of the profile to pass
    # only from radius 21 on, more than one window of 8 radii over the one
    # block of sources
    edges = [(a, b) for a in range(8) for b in range(a + 1, 8)]
    edges += [(a + 47, b + 47) for a, b in edges]
    edges += [(v, v + 1) for v in range(7, 47)]
    g = Graph(55, edges)
    dm = distance_matrix(g)
    X = [*range(8), 27, *range(47, 55)]
    expected = histogram_min_core(g, dm, X)
    assert expected == radius_scan_min_core(g, dm, X)
    assert (expected.center, expected.radius, expected.median) == (27, 0, 27)
    with pytest.MonkeyPatch.context() as mp:
        windows = _counting_passes(mp)
        assert min_core(g, X) == expected
    assert [(w[0], w[-1]) for w in windows] == [(14, 21), (0, 13)]


def test_min_core_full_profile_memory_stays_small():
    # int16 escape radii for a block of sources took 2n bytes a row, and
    # their histogram's intp rows 8n; one bit per center and radius keeps
    # the peak under 3 MB at n = 300
    n = 300
    g = gnp_connected(n, 2 * log(n) / n, 1)
    tracemalloc.start()
    try:
        res = min_core(g, range(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res == histogram_min_core(g, distance_matrix(g), range(n))
    assert peak < 3_000_000


def test_min_core_cycle_ties_to_smallest_center():
    # by symmetry every center of a cycle has the same count at every radius
    for n in (9, 10):
        g = cycle_graph(n)
        dm = distance_matrix(g)
        res = min_core(g, range(n))
        assert res.center == 0
        assert res == radius_scan_min_core(g, dm, range(n))


def test_min_core_tree_past_radius_zero():
    # alpha = 3/4 is out of reach at radius 0, so the threshold search runs on a tree
    for seed in (2, 5):
        g = random_tree(40, seed)
        dm = distance_matrix(g)
        alpha = Fraction(3, 4)
        counts, _ = _tree_profile_pass(g, list(range(g.n)))
        assert max(counts) < alpha * g.n * g.n / 2
        res = min_core(g, range(g.n), alpha)
        assert res.radius > 0
        assert res == radius_scan_min_core(g, dm, range(g.n), alpha)


@pytest.mark.parametrize("g", [grid_graph(8, 10), cycle_graph(60)], ids=["grid8x10", "cycle60"])
def test_min_core_benchmark_sized_full_profile(g):
    dm = distance_matrix(g)
    assert min_core(g, range(g.n)) == radius_scan_min_core(g, dm, range(g.n))


def test_traffic_load_in_small_blocks(monkeypatch):
    # 8m elements: one source per block; 16m and 24m: blocks of two and
    # three sources whose DAGs stop at different depths, and a short last
    # block
    for g in (gnp_connected(30, 0.3, 4), grid_graph(4, 5)):
        dm = distance_matrix(g)
        n = g.n
        uniform = list(itertools.permutations(range(n), 2))
        demand = [(s, (7 * s + 3) % n) for s in range(0, n, 2) if (7 * s + 3) % n != s]
        demand += demand[:5] + [(n - 1, 0), (n - 1, 0)]
        for S in ([3], [0, 7, 11]):
            want = [naive_traffic_load(g, dm, pairs, S) for pairs in (uniform, demand)]
            for per_block in (1, 2, 3):
                monkeypatch.setattr(congestion, "_BLOCK_ELEMS", 4 * per_block * len(g.indices))
                assert [traffic_load(g, None, S), traffic_load(g, demand, S)] == want


def test_counts_past_int64_on_a_grid():
    # C(68, 34) > 2^63 monotone paths cross the 35 x 35 grid, so an int64
    # count wraps unless the counts are promoted to Python ints in time; the
    # share of those paths through cell (i, j) is
    # C(i + j, i) * C(68 - i - j, 34 - i) / C(68, 34)
    g = grid_graph(35, 35)
    total = comb(68, 34)
    assert total > 2**63
    assert path_count(g, 0, 1224) == path_count(g, 1224, 0) == total
    for i, j in ((17, 17), (1, 0), (10, 30), (34, 0), (33, 34)):
        share = Fraction(comb(i + j, i) * comb(68 - i - j, 34 - i), total)
        assert traffic_load(g, [(0, 1224)], [35 * i + j]) == share


@st.composite
def traffic_instances(draw):
    g = draw(connected_graphs(min_n=2, max_n=10, tree=draw(st.booleans())))
    vertex = st.integers(0, g.n - 1)
    pairs = draw(
        st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]), min_size=1, max_size=20)
    )
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=5))  # repeated pairs
    # a vertex farthest from 0 is inside no geodesic from 0, so g minus it stays connected
    dist = bfs_distances(g, 0)
    farthest = max(range(g.n), key=lambda v: (dist[v], v))
    S = draw(
        st.one_of(
            st.lists(vertex, min_size=1, unique=True),
            st.just(list(range(g.n))),
            st.just([farthest]),
        )
    )
    return g, tuple(pairs), S


def _all_pairs(n):
    return tuple(itertools.permutations(range(n), 2))


# tree components of T - S: the root in S with three children below it, a
# path cut at every other vertex, and one vertex left outside S
ROOT_SPLIT = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (2, 6)])


@settings(max_examples=200, deadline=None)
@given(traffic_instances())
@example((ROOT_SPLIT, _all_pairs(7) + ((4, 1), (5, 6)), [0]))
@example((path_graph(8), _all_pairs(8), [1, 3, 5, 7]))
@example((random_tree(9, 3), _all_pairs(9), [v for v in range(9) if v != 4]))
def test_traffic_load_matches_enumeration_on_random_graphs(case):
    g, pairs, S = case
    dm = distance_matrix(g)
    mu = traffic_load(g, pairs, S)
    assert type(mu) is Fraction
    assert mu == naive_traffic_load(g, dm, pairs, S)
    mu = traffic_load(g, None, S)
    assert type(mu) is Fraction
    assert mu == naive_traffic_load(g, dm, list(itertools.permutations(range(g.n), 2)), S)


def test_traffic_load_grid_many_denominators():
    g = grid_graph(5, 6)
    dm = distance_matrix(g)
    pairs = list(itertools.permutations(range(g.n), 2))
    counts = {path_count(g, s, t) for s, t in pairs}
    assert len(counts) >= 10
    for S in ([14], [0, 29], [7, 15, 22]):
        assert traffic_load(g, None, S) == naive_traffic_load(g, dm, pairs, S)
