"""The report checks in ``hypercore.check`` against plain loops and path
enumeration, and against mutated claims."""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercore import check, distance_matrix
from hypercore.check import balls_intercept, check_hit_pack, set_gaps
from hypercore.generators import cycle_graph, path_graph
from oracles import balls_intercept_by_paths, set_gaps_by_loops
from strategies import connected_graphs, glued_blocks


@st.composite
def claims(draw):
    """A graph, 1-3 centers, a family of vertex sets and a list of pairs."""
    g = draw(
        st.one_of(connected_graphs(max_n=10), connected_graphs(max_n=10, tree=True), glued_blocks())
    )
    vertex = st.integers(0, g.n - 1)
    centers = draw(st.lists(vertex, min_size=1, max_size=3, unique=True))
    sets = draw(st.lists(st.lists(vertex, min_size=1, max_size=4), min_size=1, max_size=4))
    pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=6))
    return g, centers, sets, pairs


@settings(max_examples=200, deadline=None)
@given(claims(), st.integers(0, 3))
def test_set_gaps_equal_plain_loops(case, radius):
    g, centers, sets, _ = case
    dm = distance_matrix(g)
    gaps = set_gaps(dm, centers, radius, sets)
    assert gaps == set_gaps_by_loops(dm, centers, radius, sets)
    assert all(type(gap) is int for gap in gaps)


@settings(max_examples=200, deadline=None)
@given(claims(), st.integers(0, 3))
def test_balls_intercept_equals_path_enumeration(case, radius):
    g, centers, _, pairs = case
    dm = distance_matrix(g)
    want = balls_intercept_by_paths(g, dm, centers, radius, pairs)
    assert balls_intercept(g, dm, centers, radius, pairs) is want


@settings(max_examples=200, deadline=None)
@given(claims(), st.data())
def test_mutants_fail_exactly_when_the_oracle_says_so(case, data):
    g, centers, sets, pairs = case
    dm = distance_matrix(g)
    # the least radii at which the claims hold, so that one less fails them
    hit_r = max(set_gaps_by_loops(dm, centers, 0, sets))
    cover_r = next(
        r for r in itertools.count() if balls_intercept_by_paths(g, dm, centers, r, pairs)
    )
    i = data.draw(st.integers(0, len(centers) - 1))
    moved = data.draw(st.integers(0, g.n - 1))
    mutants = [
        centers,
        centers[:i] + centers[i + 1 :],  # a center dropped
        centers[:i] + [moved] + centers[i + 1 :],  # a center moved
    ]
    for cs in mutants:
        for r in (hit_r, hit_r - 1):
            if r < 0:
                continue
            want = not any(set_gaps_by_loops(dm, cs, r, sets))
            assert (not any(set_gaps(dm, cs, r, sets))) is want
            assert check_hit_pack(dm, sets, cs, r, [], 0) == (want, True)
        for r in (cover_r, cover_r - 1):
            if r < 0:
                continue
            want = balls_intercept_by_paths(g, dm, cs, r, pairs)
            assert balls_intercept(g, dm, cs, r, pairs) is want
    assert not any(set_gaps(dm, centers, hit_r, sets))
    assert balls_intercept(g, dm, centers, cover_r, pairs)
    if hit_r:
        assert any(set_gaps(dm, centers, hit_r - 1, sets))
    if cover_r:
        assert not balls_intercept(g, dm, centers, cover_r - 1, pairs)


def test_no_center_is_infinitely_far():
    dm = distance_matrix(path_graph(4))
    assert set_gaps(dm, [], 10**6, [[0], [1, 2]]) == [math.inf, math.inf]
    assert set_gaps(dm, [], 0, []) == []
    assert check_hit_pack(dm, [[3]], [], 10**6, [], 0) == (False, True)


def test_balls_intercept_stops_once_every_pair_is_intercepted(monkeypatch):
    g = cycle_graph(8)
    dm = distance_matrix(g)
    calls = []
    real = check.intercepted_pairs

    def counted(g, dm, center, radius, pairs):
        calls.append(len(pairs))
        return real(g, dm, center, radius, pairs)

    monkeypatch.setattr(check, "intercepted_pairs", counted)
    # B(0, 1) holds 1, so it intercepts (1, 7) and (1, 2); B(4, 1) holds 3 and 5
    assert balls_intercept(g, dm, [0, 4, 2], 1, [(1, 7), (3, 5), (1, 2)])
    assert calls == [3, 1]
    calls.clear()
    # B(2, 0) and B(6, 0) each meet one of the two geodesics of (0, 4)
    assert not balls_intercept(g, dm, [2, 6], 0, np.array([(0, 4), (1, 3)]))
    assert calls == [2, 1]
