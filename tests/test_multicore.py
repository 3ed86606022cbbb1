import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercore import (
    distance_matrix,
    four_point_delta,
    intercepted_pairs,
    interval,
    interval_family,
    multicore_construct,
    set_epsilons,
    thin_delta_bound,
)
from hypercore.check import balls_intercept
from hypercore.generators import cycle_graph, gnp_connected, path_graph, random_tree
from oracles import brute_pi, brute_sigma, brute_tau, inflate_family
from strategies import connected_graphs


def construct(g, dm, pairs, r, delta):
    """The centers ``multicore_construct`` returns, and the claim that the
    ``multicore`` command checks on them: their radius-r balls intercept
    every demand pair (``check.balls_intercept``)."""
    centers, _ = multicore_construct(g, dm, pairs, r, delta)
    return centers, balls_intercept(g, dm, centers, r, pairs)


def test_commodity_validation():
    for g in (path_graph(6), cycle_graph(6)):
        dm = distance_matrix(g)
        with pytest.raises(ValueError, match=r"^demand pair \(2,2\) has equal endpoints$"):
            multicore_construct(g, dm, [(0, 3), (2, 2)], 0, Fraction(0))
        for bad in ((-1, 0), (0, 6), (9, 3)):
            message = rf"^demand pair \({bad[0]},{bad[1]}\) out of range for n=6$"
            with pytest.raises(ValueError, match=message):
                multicore_construct(g, dm, [(0, 3), bad], 0, Fraction(0))


def test_interval_family_examples():
    tree = random_tree(12, 7)
    dm = distance_matrix(tree)
    # tree intervals are geodesics
    assert set_epsilons(dm, interval_family(dm, [(0, 5), (2, 9)])) == [0, 0]
    dm4 = distance_matrix(cycle_graph(4))
    assert interval_family(dm4, [(0, 2)]) == [[0, 1, 2, 3]]
    fam_dup = interval_family(dm4, [(0, 2), (0, 2)])
    assert len(fam_dup) == 2  # duplicates retained
    with pytest.raises(ValueError):
        interval_family(dm4, [])


@st.composite
def graphs_with_pairs(draw):
    """A connected graph or a tree and demand pairs among which some repeat
    and some are reversed."""
    g = draw(connected_graphs(max_n=12, min_n=2, tree=draw(st.booleans())))
    vertex = st.integers(0, g.n - 1)
    pair = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, min_size=1, max_size=8))
    extra = draw(st.lists(st.sampled_from(pairs), max_size=4))
    pairs += [draw(st.sampled_from([(x, y), (y, x)])) for x, y in extra]
    return g, draw(st.permutations(pairs))


def _assert_interval_sets(dm, pairs):
    assert interval_family(dm, pairs) == [interval(dm, x, y) for x, y in pairs]


@settings(max_examples=150, deadline=None)
@given(graphs_with_pairs())
def test_interval_family_sets_are_the_pair_intervals(case):
    g, pairs = case
    _assert_interval_sets(distance_matrix(g), pairs)


def test_interval_family_spans_row_blocks():
    # 2**16 // 300 = 218 pairs a row block: 500 pairs take three
    g = gnp_connected(300, 0.02, 4)
    rng = random.Random(2)
    pairs = [tuple(rng.sample(range(300), 2)) for _ in range(500)]
    _assert_interval_sets(distance_matrix(g), pairs)


def test_multicore_measures_no_interval(monkeypatch):
    # the construction reads only the hitting set, so no interval's
    # quasiconvexity is measured: a measurement here would raise
    cases = []
    for g in (random_tree(40, 3), gnp_connected(40, 0.08, 6)):
        rng = random.Random(g.n)
        pairs = [tuple(rng.sample(range(g.n), 2)) for _ in range(12)]
        cases.append((g, distance_matrix(g), pairs, 1, Fraction(0)))
    want = [construct(*case) for case in cases]
    assert [len(centers) for centers, _ in want] == [2, 2]

    def refuse(*args):
        raise AssertionError("an interval was measured")

    monkeypatch.setattr("hypercore.quasiconvex._set_epsilons", refuse)
    got = [construct(*case) for case in cases]
    assert got == want


def test_multicore_single_pair_and_far_pairs():
    g = path_graph(15)
    dm = distance_matrix(g)
    centers, covered = construct(g, dm, [(2, 9)], 0, Fraction(0))
    assert len(centers) == 1 and covered
    far = [(0, 1), (6, 7), (12, 13)]
    centers, covered = construct(g, dm, far, 1, Fraction(0))
    assert len(centers) == 3 and covered


def test_multicore_tree_matches_brute_sigma():
    for seed in (2, 5, 11):
        g = random_tree(12, seed)
        dm = distance_matrix(g)
        rng = random.Random(seed)
        pairs = []
        while len(pairs) < 5:
            a, b = rng.randrange(12), rng.randrange(12)
            if a != b:
                pairs.append((a, b))
        for r in (0, 1):
            centers, covered = construct(g, dm, pairs, r, Fraction(0))
            assert covered
            sigma = brute_sigma(g, dm, pairs, r, len(pairs))
            assert len(centers) == sigma  # delta=0 collapses the chain


def test_multicore_every_pair_intercepted_nontree():
    g = gnp_connected(14, 0.3, 9)
    dm = distance_matrix(g)
    delta = thin_delta_bound(four_point_delta(g, dm)[0])
    rng = random.Random(0)
    pairs = [(rng.randrange(14), rng.randrange(14)) for _ in range(4)]
    pairs = [(a, b) for a, b in pairs if a != b] or [(0, 1)]
    r = math.floor(delta * 8)
    centers, covered = construct(g, dm, pairs, r, delta)
    assert covered
    hit = [intercepted_pairs(g, dm, c, r, pairs) for c in centers]
    assert np.any(hit, axis=0).all()


def test_multicore_rejects_small_radius():
    g = cycle_graph(8)
    dm = distance_matrix(g)
    delta = thin_delta_bound(four_point_delta(g, dm)[0])
    with pytest.raises(ValueError, match="8\\*delta"):
        multicore_construct(g, dm, [(0, 4)], 1, delta)


def test_brute_sigma_examples():
    g = path_graph(9)
    dm = distance_matrix(g)
    one = [(0, 8), (1, 7)]
    assert brute_sigma(g, dm, one, 0, 2) == 1  # vertex 4 cuts both
    far = [(0, 1), (4, 5), (7, 8)]
    assert brute_sigma(g, dm, far, 0, 3) == 3
    assert brute_sigma(g, dm, far, 0, 2) is None  # budget overflow signal


def test_brute_tau_and_pi():
    assert brute_tau(5, [[0, 1], [1, 2], [3]]) == 2
    assert brute_tau(4, [[0], [1], [2], [3]], k_max=3) is None
    assert brute_pi([[0, 1], [1, 2], [3]]) == 2
    assert brute_pi([[0], [0, 1], [0, 2]]) == 1


def test_inequality_chain_small_trees():
    # the full chain with brute-force values on delta=0 instances
    for seed in (3, 8):
        g = random_tree(11, seed)
        dm = distance_matrix(g)
        delta = thin_delta_bound(four_point_delta(g, dm)[0])
        assert delta == 0
        rng = random.Random(seed)
        pairs = []
        while len(pairs) < 4:
            a, b = rng.randrange(11), rng.randrange(11)
            if a != b:
                pairs.append((a, b))
        diam = int(dm.d.max())
        kmax = len(pairs)
        for r in range(0, diam + 1):
            infl_r = inflate_family(dm, pairs, r)
            pi_r = brute_pi(infl_r)
            tau_r = brute_tau(g.n, infl_r, kmax)
            sigma_r = brute_sigma(g, dm, pairs, r, kmax)
            assert pi_r <= tau_r <= sigma_r <= tau_r  # delta=0: chain collapses
            assert pi_r == sigma_r
