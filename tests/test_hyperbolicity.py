import math
import random
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercore import (
    FourPointResult,
    Graph,
    biconnected_blocks,
    distance_matrix,
    eccentricity_profile,
    four_point_defect,
    four_point_delta,
    hyperbolicity_report,
    mutually_distant_pair,
    thin_delta_bound,
)
from hypercore import hyperbolicity
from hypercore.generators import (
    cycle_graph,
    gnp_connected,
    grid_graph,
    path_graph,
    random_tree,
    star_path_graph,
)
from oracles import (
    broadcast_defects,
    budgeted_four_point,
    far_apart_pairs_by_vertex,
    furthest_set,
    naive_four_point_delta_doubled,
    naive_interval_thinness,
    neighbours,
    thinness_scan_by_pair,
)
from strategies import connected_graphs, glued_blocks


def test_trees_are_zero_hyperbolic():
    for seed in range(5):
        g = random_tree(14, seed)
        assert four_point_delta(g, distance_matrix(g)).delta == 0


def test_cycle4_delta_one():
    g = cycle_graph(4)
    res = four_point_delta(g, distance_matrix(g))
    assert res.delta == 1
    assert res.exact


def test_grid_3x3_delta_matches_bruteforce():
    g = grid_graph(3, 3)
    dm = distance_matrix(g)
    res = four_point_delta(g, dm)
    assert 2 * res.delta == naive_four_point_delta_doubled(dm) == 4
    assert res.delta == 2


def test_delta_matches_bruteforce_on_random_graphs():
    for seed in (1, 2, 3):
        g = gnp_connected(12, 0.3, seed)
        dm = distance_matrix(g)
        assert 2 * four_point_delta(g, dm).delta == naive_four_point_delta_doubled(dm)


def test_witness_reproduces_delta():
    for g in (cycle_graph(7), grid_graph(3, 4), gnp_connected(15, 0.25, 11)):
        dm = distance_matrix(g)
        res = four_point_delta(g, dm)
        assert four_point_defect(dm, res.witness) == res.delta


def test_delta_invariant_under_relabeling():
    rng = random.Random(0)
    g = gnp_connected(13, 0.3, 5)
    dm = distance_matrix(g)
    perm = list(range(g.n))
    rng.shuffle(perm)
    relabeled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    want = four_point_delta(g, dm).delta
    assert four_point_delta(relabeled, distance_matrix(relabeled)).delta == want


def thinness(g, dm):
    return hyperbolicity_report(g, dm)[1]


def test_interval_thinness_values():
    for g, want in ((random_tree(12, 2), 0), (cycle_graph(4), 2), (cycle_graph(6), 2)):
        assert thinness(g, distance_matrix(g)) == want


def test_thinness_at_most_twice_delta():
    for g in (cycle_graph(5), grid_graph(3, 3), gnp_connected(14, 0.3, 3), random_tree(15, 1)):
        dm = distance_matrix(g)
        assert thinness(g, dm) <= (four_point_delta(g, dm).delta * 2)


def test_eccentricity_profile_examples():
    prof = eccentricity_profile(distance_matrix(path_graph(5)))
    assert (prof.radius, prof.diameter, prof.center) == (2, 4, (2,))
    k4 = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    prof = eccentricity_profile(distance_matrix(k4))
    assert prof.radius == prof.diameter == 1
    assert prof.center == (0, 1, 2, 3)


def test_eccentricity_profile_star_path_25():
    # path 0..14 with 10 leaves on vertex 14: the diametral path has length
    # 15, so the center sits at its middle, not at the junction
    dm = distance_matrix(star_path_graph(25))
    prof = eccentricity_profile(dm)
    assert prof.diameter == 15
    assert prof.radius == 8
    assert prof.center == (7, 8)
    assert dm.d[14].max() == 14


def test_furthest_set_examples():
    dm = distance_matrix(path_graph(5))
    assert furthest_set(dm, 0) == [4]
    assert furthest_set(dm, 2) == [0, 4]
    dm4 = distance_matrix(cycle_graph(4))
    assert furthest_set(dm4, 0) == [2]
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert furthest_set(distance_matrix(star), 0) == [1, 2, 3]


def test_mutually_distant_pair_path_and_tree():
    assert mutually_distant_pair(distance_matrix(path_graph(5)), Fraction(0)) == (0, 4)
    for seed in range(4):
        g = random_tree(20, seed)
        dm = distance_matrix(g)
        u, v = mutually_distant_pair(dm, Fraction(0))
        assert dm.d[u, v] == dm.d.max()  # double BFS finds tree diameter


def test_mutually_distant_pair_contract_on_random_graph():
    g = gnp_connected(30, 0.15, 7)
    dm = distance_matrix(g)
    delta = four_point_delta(g, dm).delta
    u, v = mutually_distant_pair(dm, delta)
    assert v in furthest_set(dm, u)
    assert u in furthest_set(dm, v)
    assert int(dm.d[u, v]) >= int(dm.d.max()) - (delta * 2)


def test_mutually_distant_pair_cap_error():
    # this instance needs a third improvement round, which delta=0 forbids;
    # the true constant admits it
    g = gnp_connected(25, 0.1, 1)
    dm = distance_matrix(g)
    with pytest.raises(ValueError, match="stabilize"):
        mutually_distant_pair(dm, Fraction(0))
    u, v = mutually_distant_pair(dm, four_point_delta(g, dm).delta)
    assert v in furthest_set(dm, u) and u in furthest_set(dm, v)


def test_single_vertex_graph():
    g = Graph(1, [])
    dm = distance_matrix(g)
    assert four_point_delta(g, dm).delta == 0
    assert mutually_distant_pair(dm, Fraction(0)) == (0, 0)


def test_thin_delta_bound():
    assert thin_delta_bound(Fraction(3, 2)) == 6


def test_report_bundles_consistently():
    g = cycle_graph(6)
    dm = distance_matrix(g)
    rep, nu = hyperbolicity_report(g, dm)
    prof = eccentricity_profile(dm)
    assert rep.delta == 1
    assert nu == 2
    assert prof.diameter == 3 and prof.radius == 3
    assert four_point_defect(dm, rep.witness) == rep.delta
    assert nu <= rep.delta * 2


def naive_far_apart_pairs(g, dm):
    d = dm.d
    return [
        (a, b)
        for a in range(g.n)
        for b in range(a + 1, g.n)
        if all(d[w, b] <= d[a, b] for w in neighbours(g, a))
        and all(d[w, a] <= d[a, b] for w in neighbours(g, b))
    ]


def whole_graph_pairs(dm):
    """The scans' far-apart pairs of the whole graph, as one block."""
    return hyperbolicity._FarApart(dm.d, int(dm.d.max()))


def far_apart_pairs(dm):
    """The whole graph's far-apart pairs in scan order, every layer built."""
    pairs = whole_graph_pairs(dm)
    pairs.reach(0, len(pairs.dist) + 1, -1)
    return pairs.pairs


def check_far_apart_pairs(g, dm):
    got = far_apart_pairs(dm)
    assert got.dtype == np.int32
    pairs = got.tolist()
    assert pairs == far_apart_pairs_by_vertex(dm).tolist()
    assert sorted(map(tuple, pairs)) == naive_far_apart_pairs(g, dm)
    dists = [int(dm.d[a, b]) for a, b in pairs]
    assert dists == sorted(dists, reverse=True)


@settings(max_examples=300, deadline=None)
@given(st.one_of(connected_graphs(), glued_blocks()))
def test_far_apart_scans_match_oracles(g):
    dm = distance_matrix(g)
    check_far_apart_pairs(g, dm)
    res = four_point_delta(g, dm)
    assert res.exact
    assert 2 * res.delta == naive_four_point_delta_doubled(dm)
    assert four_point_defect(dm, res.witness) == res.delta
    if res.delta == 0:
        assert res.witness == (0, 0, 0, 0)
    rep, nu = hyperbolicity_report(g, dm)
    thin = naive_interval_thinness(dm)
    assert (rep.delta, rep.exact, nu) == (res.delta, True, thin)
    assert four_point_defect(dm, rep.witness) == rep.delta


def test_pruned_scan_matches_bruteforce_beyond_one_block():
    # over 64 far-apart pairs each, so the decreasing-distance stop is
    # taken between blocks rather than after one block covering every pair
    for seed in range(6):
        g = gnp_connected(30, 1.5 * math.log(30) / 30, seed)
        dm = distance_matrix(g)
        assert len(far_apart_pairs(dm)) > 64
        res = four_point_delta(g, dm)
        assert 2 * res.delta == naive_four_point_delta_doubled(dm)
        assert four_point_defect(dm, res.witness) == res.delta


def test_far_apart_single_vertex_and_edge():
    for g, want in ((Graph(1, []), []), (Graph(2, [(0, 1)]), [[0, 1]])):
        dm = distance_matrix(g)
        got = far_apart_pairs(dm)
        assert got.shape == (len(want), 2) and got.tolist() == want
        assert four_point_delta(g, dm) == FourPointResult(Fraction(0), (0, 0, 0, 0), Fraction(0))
        assert thinness(g, dm) == 0


def test_far_apart_complete_graphs():
    for n in range(2, 12):
        g = Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])
        dm = distance_matrix(g)
        assert len(far_apart_pairs(dm)) == n * (n - 1) // 2
        assert four_point_delta(g, dm).delta == 0
        assert thinness(g, dm) == 0


def test_far_apart_stars():
    for leaves in range(2, 9):
        g = Graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])
        dm = distance_matrix(g)
        want = [[a, b] for a in range(1, leaves + 1) for b in range(a + 1, leaves + 1)]
        assert far_apart_pairs(dm).tolist() == want
        assert four_point_delta(g, dm).delta == 0
        assert thinness(g, dm) == 0


def test_far_apart_grids():
    for rows, cols in ((1, 5), (2, 2), (2, 5), (3, 3), (3, 4), (4, 4)):
        g = grid_graph(rows, cols)
        dm = distance_matrix(g)
        check_far_apart_pairs(g, dm)
        res = four_point_delta(g, dm)
        assert 2 * res.delta == naive_four_point_delta_doubled(dm)
        assert four_point_defect(dm, res.witness) == res.delta
        assert thinness(g, dm) == naive_interval_thinness(dm)


def test_far_apart_beyond_one_neighbour_chunk():
    # vertex 0 has 70 neighbours and only the last, 70, is farther from 71,
    # so the mask must fold every neighbour slot of the widest vertex
    edges = [(0, v) for v in range(1, 71)] + [(v, 71) for v in range(1, 70)]
    g = Graph(72, edges)
    dm = distance_matrix(g)
    check_far_apart_pairs(g, dm)
    assert [0, 71] not in far_apart_pairs(dm).tolist()


@settings(max_examples=100, deadline=None)
@given(st.one_of(glued_blocks(), connected_graphs()))
def test_blocks_match_networkx(g):
    want = nx.Graph(list(g.edges()))
    want.add_nodes_from(range(g.n))
    expected = sorted(sorted(c) for c in nx.biconnected_components(want))
    assert sorted(blk.tolist() for blk in biconnected_blocks(g)) == expected


@settings(max_examples=200, deadline=None)
@given(st.one_of(connected_graphs(), glued_blocks()))
def test_block_arcs_are_the_unit_entries(g):
    # _lower_layers reads a block's arcs as the unit entries of its
    # submatrix, in row-major order: check them against the arcs of g with
    # both ends in the block, relabelled by position, for the whole graph,
    # every block and the scanned blocks as the scans see them
    dm = distance_matrix(g)
    scanned = [blk for blk, _, _ in hyperbolicity._scanned_blocks(g, dm)]
    for blk in (np.arange(g.n), *biconnected_blocks(g), *scanned):
        at = {v: i for i, v in enumerate(blk.tolist())}
        want = [(at[a], at[b]) for a in at for b in neighbours(g, a) if b in at]
        heads, tails = np.nonzero(dm.d[np.ix_(blk, blk)] == 1)
        assert list(zip(heads.tolist(), tails.tolist())) == want


def test_large_tree_is_exact_at_default_cap():
    g = random_tree(1000, 3)
    rep, nu = hyperbolicity_report(g, distance_matrix(g))
    assert rep.exact and rep.delta == 0 and nu == 0
    assert rep.witness == (0, 0, 0, 0)


def test_budget_bounds_unscanned_blocks_by_diameter(monkeypatch):
    # an 8-cycle with a 30-vertex path hanging off vertex 0: n = 38 and
    # diam 34, and the only block that is scanned is the cycle, diam 4
    g = Graph(38, [*cycle_graph(8).edges(), (0, 8), *((v, v + 1) for v in range(8, 37))])
    dm = distance_matrix(g)
    exact = four_point_delta(g, dm)
    assert exact.exact and 2 * exact.delta == naive_four_point_delta_doubled(dm) == 4
    monkeypatch.setattr(hyperbolicity, "FOUR_POINT_BUDGET", 0)
    bracket = four_point_delta(g, dm)
    assert (bracket.delta, bracket.witness, bracket.upper) == (0, (0, 0, 0, 0), 2)
    assert not bracket.exact
    rep, nu = hyperbolicity_report(g, dm)
    assert not rep.exact and (rep.delta, rep.upper) == (bracket.delta, bracket.upper)
    assert nu == naive_interval_thinness(dm)
    # an 8-cycle glued at vertex 0 of a 30-vertex G(n,p) block, both of
    # diameter 4: the budget covers the first 64 rows of the G(n,p) block,
    # which find doubled defect 2 and stop at a row of distance 3, so only
    # the cycle's diameter bounds its doubled defect, 4
    base = gnp_connected(30, 1.5 * math.log(30) / 30, 0)
    g = Graph(37, [*base.edges(), (0, 30), *((v, v + 1) for v in range(30, 36)), (36, 0)])
    dm = distance_matrix(g)
    monkeypatch.setattr(hyperbolicity, "FOUR_POINT_BUDGET", 64 * 64)
    bracket = four_point_delta(g, dm)
    assert (2 * bracket.delta, 2 * bracket.upper) == (2, 4)
    assert naive_four_point_delta_doubled(dm) == 4


@settings(max_examples=300, deadline=None)
@given(st.one_of(connected_graphs(), glued_blocks()), st.integers(0, 5000))
def test_budgeted_bracket_holds(g, budget):
    dm = distance_matrix(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hyperbolicity, "FOUR_POINT_BUDGET", budget)
        res = four_point_delta(g, dm)
        rep, nu = hyperbolicity_report(g, dm)
    assert 2 * res.delta <= naive_four_point_delta_doubled(dm) <= 2 * res.upper
    assert four_point_defect(dm, res.witness) == res.delta
    assert res.exact == (res.delta == res.upper)
    assert (rep.delta, rep.witness, rep.upper) == (res.delta, res.witness, res.upper)
    assert nu == naive_interval_thinness(dm)


def test_sparse_random_graph_is_exact_at_default_budget():
    n = 2000
    g = gnp_connected(n, 2 * math.log(n) / n, 1)
    rep, _ = hyperbolicity_report(g, distance_matrix(g))
    assert rep.exact


def gnp_half(max_n=40):
    return st.builds(gnp_connected, st.integers(4, max_n), st.just(0.5), st.integers(0, 10**6))


@settings(max_examples=200, deadline=None)
@given(st.one_of(connected_graphs(), glued_blocks(), gnp_half()))
def test_far_apart_layers_match_oracles(g):
    # the exact list, order included, and the diameter layer then the lower
    # layers, as the scans build them
    dm = distance_matrix(g)
    check_far_apart_pairs(g, dm)
    want = far_apart_pairs_by_vertex(dm)
    diam = int(dm.d.max())
    dist = dm.d[want[:, 0], want[:, 1]]
    pairs = hyperbolicity._FarApart(dm.d, diam)
    assert pairs.pairs.tolist() == want[dist == diam].tolist()
    lower, lower_dist = hyperbolicity._lower_layers(dm.d, diam)
    assert lower.tolist() == want[dist < diam].tolist()
    assert lower_dist.tolist() == dm.d[lower[:, 0], lower[:, 1]].tolist()
    assert lower_dist.dtype == dm.d.dtype
    pairs.reach(0, len(pairs.dist) + 1, -1)
    assert pairs.pairs.tolist() == want.tolist()
    assert pairs.dist.tolist() == dist.tolist()


@settings(max_examples=200, deadline=None)
@given(st.one_of(connected_graphs(), glued_blocks(), gnp_half()), st.sampled_from([0, 1, 2]))
def test_thinness_scan_matches_pair_by_pair(g, nu):
    dm = distance_matrix(g)
    want = thinness_scan_by_pair(dm, far_apart_pairs_by_vertex(dm), nu)
    pairs = whole_graph_pairs(dm)
    assert hyperbolicity._thinness_scan(dm, pairs, nu, pairs.diam) == want
    for blk, sub, diam in hyperbolicity._scanned_blocks(g, dm):
        want = thinness_scan_by_pair(sub, far_apart_pairs_by_vertex(sub), nu)
        pairs = hyperbolicity._FarApart(sub.d, diam)
        assert hyperbolicity._thinness_scan(sub, pairs, nu, diam) == want


def test_thinness_batches_past_the_stop_and_chunk_their_mates(monkeypatch):
    # at 2**14 elements the batches grow to 273 pairs past the stop; at 64
    # a batch is one pair, whose layer mates go in several gathers
    for g in (gnp_connected(60, 0.1, 3), grid_graph(6, 10), gnp_connected(60, 0.5, 2)):
        dm = distance_matrix(g)
        want = thinness_scan_by_pair(dm, far_apart_pairs_by_vertex(dm), 0)
        for elems in (2**14, 64):
            monkeypatch.setattr(hyperbolicity, "_BLOCK_ELEMS", elems)
            pairs = whole_graph_pairs(dm)
            assert hyperbolicity._thinness_scan(dm, pairs, 0, pairs.diam) == want
            assert thinness(g, dm) == naive_interval_thinness(dm) == want


@settings(max_examples=200, deadline=None)
@given(st.one_of(connected_graphs(min_n=2), glued_blocks(), gnp_half()), st.data())
def test_defects_match_the_broadcast_formula(g, data):
    # a random list of far-apart pairs against random row and column
    # slices, a one-row slice and the whole list
    dm = distance_matrix(g)
    want = far_apart_pairs_by_vertex(dm)
    order = data.draw(st.permutations(range(len(want))))
    pairs = want[order[: data.draw(st.integers(1, len(want)))]]
    a, b = pairs[:, 0], pairs[:, 1]
    dist = dm.d[a, b]
    m = len(pairs)
    lo, c0 = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
    hi, c1 = data.draw(st.integers(lo + 1, m)), data.draw(st.integers(c0 + 1, m))
    d32, dist32 = dm.d.astype(np.int32), dist.astype(np.int32)
    for rows, cols in ((slice(lo, hi), slice(c0, c1)), (slice(lo, lo + 1), slice(0, m))):
        got = hyperbolicity._defects(dm.d, a, b, dist, rows, cols)
        assert got.dtype == dm.d.dtype
        assert got.tolist() == broadcast_defects(d32, a, b, dist32, rows, cols).tolist()
    whole = slice(0, m)
    got = hyperbolicity._defects(dm.d, a, b, dist, whole, whole)
    assert (got == got.T).all()
    assert got.tolist() == broadcast_defects(d32, a, b, dist32, whole, whole).tolist()


BUDGETS = st.one_of(st.sampled_from([0, 1, 7, 64 * 64]), st.integers(0, 5000))
# grids with two chords: the 8 x 3 one's diameter rows reach the diameter,
# and a budget of 100 covers them but not the first row block over the
# whole list; the 7 x 3 one's reach one less, which a lower pair earlier
# in that block ties, so the witness is the lower pair's
CHORDED_GRIDS = (
    Graph(24, [*grid_graph(8, 3).edges(), (17, 2), (23, 2)]),
    Graph(21, [*grid_graph(7, 3).edges(), (3, 11), (2, 16)]),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(connected_graphs(), glued_blocks(), gnp_half()), BUDGETS)
@example(CHORDED_GRIDS[0], 100)
@example(CHORDED_GRIDS[1], 4096)
def test_budget_matches_a_scan_over_complete_lists(g, budget):
    dm = distance_matrix(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hyperbolicity, "FOUR_POINT_BUDGET", budget)
        res = four_point_delta(g, dm)
        rep, _ = hyperbolicity_report(g, dm)
    want = budgeted_four_point(g, dm, budget)
    assert (2 * res.delta, res.witness, 2 * res.upper) == want
    assert (2 * rep.delta, rep.witness, 2 * rep.upper) == want


@settings(max_examples=300, deadline=None)
@given(st.one_of(connected_graphs(), glued_blocks()), BUDGETS)
def test_report_thinness_stops_at_the_doubled_upper_end(g, budget):
    # a layer quadruple (u, v, x, y) has doubled defect d(x, y), so the
    # thinness is at most the doubled upper end, even when the budget runs out
    dm = distance_matrix(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hyperbolicity, "FOUR_POINT_BUDGET", budget)
        rep, nu = hyperbolicity_report(g, dm)
    assert nu == naive_interval_thinness(dm)
    assert nu <= 2 * rep.upper


@settings(max_examples=100, deadline=None)
@given(glued_blocks(), BUDGETS)
@example(cycle_graph(9), 2**26)
@example(grid_graph(4, 5), 2**26)
@example(grid_graph(4, 5), 7)
def test_four_point_delta_scans_no_thinness(g, budget):
    # thinness is off in four_point_delta alone: the CLI's thin-triangle
    # bound needs only the bracket, and the thinness scan has no budget

    def no_thinness(dm, pairs, nu, cap):
        raise AssertionError("thinness scanned")

    dm = distance_matrix(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hyperbolicity, "FOUR_POINT_BUDGET", budget)
        rep, _ = hyperbolicity_report(g, dm)
        mp.setattr(hyperbolicity, "_thinness_scan", no_thinness)
        res = four_point_delta(g, dm)
    assert res == FourPointResult(rep.delta, rep.witness, rep.upper)


def test_budget_matches_complete_lists_past_the_top_layer(monkeypatch):
    # diameter layers of 43 to 9985 pairs; a budget of t * t covers the 43
    # diameter rows of the sparse graph but not its first 64-row block,
    # which counts the lower layers
    n = 120
    sparse = gnp_connected(n, 2 * math.log(n) / n, 1)
    # the 4k + 2 cycle's and the 9 x 14 grid's diameter rows stay below
    # the diameter, so their trials fail and the block is compared again
    graphs = (gnp_connected(200, 0.5, 1), cycle_graph(200), cycle_graph(201), cycle_graph(202))
    for g in (*graphs, grid_graph(9, 14), sparse):
        dm = distance_matrix(g)
        t = len(whole_graph_pairs(dm).pairs)
        for budget in (0, 1, 7, t * t, 64 * 64 - 1, 64 * 64, 10**5, 2**26):
            monkeypatch.setattr(hyperbolicity, "FOUR_POINT_BUDGET", budget)
            res = four_point_delta(g, dm)
            want = budgeted_four_point(g, dm, budget)
            assert (2 * res.delta, res.witness, 2 * res.upper) == want


def test_scans_that_stop_in_the_diameter_layer_build_no_lower_layers(monkeypatch):
    # the doubled delta and the thinness both reach the diameter inside the
    # diameter layer, so neither scan goes past it

    def no_lower_layers(d, diam):
        raise AssertionError("lower layers built")

    n = 20
    kmm = Graph(2 * n, [(a, n + b) for a in range(n) for b in range(n)])
    graphs = (gnp_connected(200, 0.5, 1), cycle_graph(200), cycle_graph(40), kmm)
    want = [hyperbolicity_report(g, distance_matrix(g)) for g in graphs]
    monkeypatch.setattr(hyperbolicity, "_lower_layers", no_lower_layers)
    for g, rep in zip(graphs, want):
        dm = distance_matrix(g)
        assert hyperbolicity_report(g, dm) == rep
        assert four_point_delta(g, dm) == rep[0]


def test_tree_skips_the_block_split(monkeypatch):
    g = random_tree(1000, 3)
    dm = distance_matrix(g)
    want = hyperbolicity_report(g, dm)

    def no_split(g):
        raise AssertionError("block split")

    monkeypatch.setattr(hyperbolicity, "biconnected_blocks", no_split)
    assert hyperbolicity._scanned_blocks(g, dm) == []
    assert hyperbolicity_report(g, dm) == want
    assert four_point_delta(g, dm) == FourPointResult(Fraction(0), (0, 0, 0, 0), Fraction(0))
