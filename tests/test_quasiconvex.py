import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercore import (
    check_hit_pack,
    covering_radius,
    distance_matrix,
    four_point_delta,
    greedy_hit_pack,
    helly_center,
    hyperbolicity_report,
    interval,
    is_interval_like,
    project_toward,
    set_epsilons,
    thin_delta_bound,
)
import hypercore as hc
from hypercore.generators import cycle_graph, gnp_connected, path_graph, random_tree
from hypercore.quasiconvex import geodesic_covering_radius
from oracles import (
    ball_members,
    check_hit_pack_by_sets,
    epsilon_by_pairs,
    greedy_hit_pack_by_sets,
    helly_balls_check,
    naive_interval,
    set_distance,
)
from strategies import connected_graphs, glued_blocks


def test_measure_epsilon_examples():
    tree = random_tree(15, 3)
    dm = distance_matrix(tree)
    sub = interval(dm, 0, 9)  # a path in the tree: convex
    assert set_epsilons(dm, [sub]) == [0]
    dm4 = distance_matrix(cycle_graph(4))
    assert set_epsilons(dm4, [[0, 2]]) == [1]
    with pytest.raises(ValueError):
        set_epsilons(dm4, [[]])


def test_intervals_are_thinness_quasiconvex():
    rng = random.Random(5)
    for g in (gnp_connected(16, 0.25, 2), cycle_graph(9)):
        dm = distance_matrix(g)
        nu = hyperbolicity_report(g, dm)[1]
        for _ in range(12):
            u, v = rng.randrange(g.n), rng.randrange(g.n)
            assert set_epsilons(dm, [interval(dm, u, v)])[0] <= nu


def test_project_toward():
    g = path_graph(7)
    dm = distance_matrix(g)
    assert project_toward(g, dm, 6, [0, 1], 0) == 1
    assert project_toward(g, dm, 6, [0, 1], 2) == 3
    assert project_toward(g, dm, 3, [0, 3, 5], 4) == 3  # z inside Q
    assert project_toward(g, dm, 6, [0], 99) == 6  # walk caps at z
    with pytest.raises(ValueError, match="^negative projection offset -1$"):
        project_toward(g, dm, 6, [0, 1], -1)


@pytest.mark.parametrize("z", [6, -1])
@pytest.mark.parametrize(
    "solve",
    [
        lambda g, dm, sets, z: helly_center(g, dm, sets, 1, z=z),
        lambda g, dm, sets, z: greedy_hit_pack(g, dm, sets, 1, z=z),
    ],
    ids=["helly_center", "greedy_hit_pack"],
)
def test_base_vertex_out_of_range_is_refused(solve, z):
    g = path_graph(6)
    dm = distance_matrix(g)
    with pytest.raises(ValueError, match=f"^base vertex contains vertex {z}, out of range for n=6$"):
        solve(g, dm, [[0, 1], [2]], z)


def test_covering_radius_formula():
    assert covering_radius(0, 2, Fraction(1)) == 9  # max(2*2+5, 0+2+3)
    assert covering_radius(4, 0, Fraction(0)) == 4
    assert covering_radius(0, 0, Fraction(1, 2)) == Fraction(5, 2)


@pytest.mark.parametrize(
    "r, delta, want",
    [
        # 2*delta at r = 0, else max(r + 3*delta, 4*delta)
        (0, 0, 0), (1, 0, 1), (3, 0, 3),
        (0, Fraction(1, 2), 1), (1, Fraction(1, 2), Fraction(5, 2)),
        (3, Fraction(1, 2), Fraction(9, 2)),
        (0, Fraction(3, 2), 3), (1, Fraction(3, 2), 6), (3, Fraction(3, 2), Fraction(15, 2)),
    ],
)
def test_geodesic_covering_radius_formula(r, delta, want):
    got = geodesic_covering_radius(r, delta)
    assert got == want
    assert isinstance(got, (int, Fraction))


# every public entry that takes a four-point or thin-triangle constant, on
# arguments that are valid but for the constant
_G = path_graph(6)
_DM = distance_matrix(_G)
_CONSTANT_TAKERS = {
    "thin_delta_bound": lambda delta: hc.thin_delta_bound(delta),
    "covering_radius": lambda delta: hc.covering_radius(0, 0, delta),
    "geodesic_covering_radius": lambda delta: geodesic_covering_radius(1, delta),
    "multicore_construct": lambda delta: hc.multicore_construct(_G, _DM, [(0, 5)], 8, delta),
    "total_beam_core": lambda delta: hc.total_beam_core(_G, _DM, delta),
    "mutually_distant_pair": lambda delta: hc.mutually_distant_pair(_DM, delta),
    "kappa_hit_pack": lambda delta: hc.kappa_hit_pack(_G, _DM, [[[0, 1]], [[2, 3]]], 2, delta),
}


@pytest.mark.parametrize("name", list(_CONSTANT_TAKERS))
def test_a_float_constant_is_refused(name):
    call = _CONSTANT_TAKERS[name]
    call(Fraction(1, 2))  # the same call with an exact constant runs
    with pytest.raises(TypeError, match=r"^delta4? must be an int or a Fraction, got float$"):
        call(0.5)


def _tree_ball_family(dm, tree, hub, picks):
    # balls of a tree are subtrees; radius reaches the hub so they all meet it
    return [[u for u in range(dm.n) if dm.d[u, v] <= dm.d[v, hub]] for v in picks]


def test_helly_center_subtrees_of_tree():
    tree = random_tree(20, 11)
    dm = distance_matrix(tree)
    sets = _tree_ball_family(dm, tree, hub=4, picks=[0, 7, 13, 19])
    epsilons = set_epsilons(dm, sets)
    assert epsilons == [0] * 4
    assert math.floor(covering_radius(0, max(epsilons), Fraction(0))) == 0  # the ball's radius
    center = helly_center(tree, dm, sets, 0)
    for s in sets:
        assert set_distance(dm, [center], s) == 0


def test_helly_center_cycle_intervals():
    g = cycle_graph(6)
    dm = distance_matrix(g)
    delta = thin_delta_bound(four_point_delta(g, dm).delta)
    sets = [interval(dm, 0, x) for x in (2, 3, 4)]  # all contain vertex 0
    radius = math.floor(covering_radius(0, max(set_epsilons(dm, sets)), delta))
    members = ball_members(dm, helly_center(g, dm, sets, 0), radius)
    for s in sets:
        assert set_distance(dm, members, s) == 0


def test_helly_center_single_set():
    g = path_graph(6)
    dm = distance_matrix(g)
    center = helly_center(g, dm, [[5, 4]], 0)
    assert set_distance(dm, [center], [4, 5]) == 0


def test_helly_center_rejects_far_family():
    g = path_graph(9)
    dm = distance_matrix(g)
    with pytest.raises(ValueError, match="left.*right"):
        helly_center(g, dm, [[0], [8]], 1, names=["left", "right"])
    with pytest.raises(ValueError, match="^family must contain at least one set$"):
        helly_center(g, dm, [], 1)


def test_family_passes_reject_unmeasured_bad_sets():
    # sets that set_epsilons never saw: -6 would wrap to vertex 0 and pass
    g = path_graph(6)
    dm = distance_matrix(g)
    fam = [[4, 5], [-6]]
    empty = [[4, 5], []]
    for bad, msg in (
        (fam, "set contains vertex -6, out of range for n=6"),
        (empty, "cannot take the distance to an empty set"),
    ):
        with pytest.raises(ValueError, match=f"^{msg}$"):
            helly_center(g, dm, bad, 3)
        with pytest.raises(ValueError, match=f"^{msg}$"):
            greedy_hit_pack(g, dm, bad, 3)
    with pytest.raises(ValueError, match="^cannot take the distance to an empty set$"):
        check_hit_pack(dm, [[4, 5], []], [4], 1, [0], 0)


def test_greedy_hit_pack_far_singletons():
    tree = path_graph(15)
    dm = distance_matrix(tree)
    sets = [[0], [5], [10], [14]]
    hp = greedy_hit_pack(tree, dm, sets, 1)
    assert len(hp.hitting_set) == len(hp.packing) == 4
    # each pick is hit one step toward z = 0, and the packing is 2-apart
    assert check_hit_pack(dm, sets, hp.hitting_set, 1, hp.packing, 1) == (True, True)


def test_greedy_hit_pack_intersecting_collapses():
    g = cycle_graph(6)
    dm = distance_matrix(g)
    hp = greedy_hit_pack(g, dm, [interval(dm, 0, 3), interval(dm, 1, 4), interval(dm, 2, 5)], 0)
    assert len(hp.hitting_set) == len(hp.packing) == 1


def test_greedy_hit_pack_random_certificates():
    rng = random.Random(9)
    g = gnp_connected(30, 0.12, 4)
    dm = distance_matrix(g)
    delta = thin_delta_bound(four_point_delta(g, dm).delta)
    sets = []
    for _ in range(10):
        a, b = rng.randrange(30), rng.randrange(30)
        sets.append(interval(dm, a, b))
    epsilon = max(set_epsilons(dm, sets))
    for r in (0, 1, 2):
        hp = greedy_hit_pack(g, dm, sets, r)
        assert len(hp.hitting_set) == len(hp.packing)
        radius = math.floor(covering_radius(r, epsilon, delta))
        for s in sets:
            assert min(set_distance(dm, [t], s) for t in hp.hitting_set) <= radius
        for i, a in enumerate(hp.packing):
            for b in hp.packing[i + 1 :]:
                assert set_distance(dm, sets[a], sets[b]) > 2 * r


def test_greedy_hit_pack_many_sets_stays_linear():
    # one set per demand pair, as the multi-core passes it, with far more
    # sets than vertices: no S x S block may be built, however few rounds
    n = 60
    g = gnp_connected(n, 0.08, 5)
    dm = distance_matrix(g)
    rng = random.Random(11)
    sets = [interval(dm, rng.randrange(n), rng.randrange(n)) for _ in range(50 * n)]
    s = len(sets)
    for r in (0, 1, 2):
        tracemalloc.start()
        try:
            hp = greedy_hit_pack(g, dm, sets, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hp == greedy_hit_pack_by_sets(g, dm, sets, r)
        assert peak < s * s // 4  # an S x S int16 block alone takes 2 * s * s bytes


def test_helly_balls_check_tree_and_cycle():
    tree = random_tree(18, 6)
    dm = distance_matrix(tree)
    balls = [(v, int(dm.d[v, 3])) for v in (0, 8, 12, 17)]  # all meet vertex 3
    assert helly_balls_check(dm, balls, Fraction(0)) is not None
    dm4 = distance_matrix(cycle_graph(4))
    got = helly_balls_check(dm4, [(0, 1), (1, 1), (2, 1)], Fraction(0))
    assert got == 1  # vertex 1 lies in all three already


def test_helly_balls_check_random_with_thin_inflation():
    rng = random.Random(12)
    checked = 0
    for seed in range(8):
        g = gnp_connected(18, 0.2, seed + 40)
        dm = distance_matrix(g)
        delta = thin_delta_bound(four_point_delta(g, dm).delta)
        balls = [(rng.randrange(18), rng.randrange(0, 3)) for _ in range(5)]
        ok = all(
            dm.d[a, b] <= ra + rb
            for i, (a, ra) in enumerate(balls)
            for b, rb in balls[i + 1 :]
        )
        if not ok:
            continue
        checked += 1
        assert helly_balls_check(dm, balls, delta) is not None
    assert checked >= 2


def test_helly_balls_check_rejects_disjoint():
    dm = distance_matrix(path_graph(8))
    with pytest.raises(ValueError, match="do not intersect"):
        helly_balls_check(dm, [(0, 1), (7, 1)], Fraction(0))


@settings(max_examples=200, deadline=None)
@given(st.one_of(connected_graphs(), glued_blocks()), st.data())
def test_interval_likeness_matches_the_naive_code(g, data):
    # random sets and intervals; the diametral pair is the first farthest
    # one in row-major order over the sorted members
    dm = distance_matrix(g)
    vertex = st.integers(0, g.n - 1)
    S = data.draw(
        st.one_of(
            st.lists(vertex, min_size=1, max_size=6),
            st.tuples(vertex, vertex).map(lambda p: naive_interval(g, dm, *p)),
        )
    )
    ms = sorted(set(S))
    u, v = max(((x, y) for x in ms for y in ms), key=lambda p: dm.d[p])
    assert is_interval_like(dm, S) == (ms == naive_interval(g, dm, u, v))


def test_is_interval_like():
    dm = distance_matrix(cycle_graph(6))
    assert is_interval_like(dm, interval(dm, 0, 3))
    assert is_interval_like(dm, [2])
    assert not is_interval_like(dm, [0, 3])  # interval of (0,3) is all of C_6


@pytest.mark.parametrize(
    "members, msg",
    [
        ([9], "set contains vertex 9, out of range for n=4"),
        ([], "an empty set is not interval-like"),
        ([1, 7], "set contains vertex 7, out of range for n=4"),
        ([-1, 1], "set contains vertex -1, out of range for n=4"),
    ],
)
def test_is_interval_like_refuses_bad_sets(members, msg):
    dm = distance_matrix(path_graph(4))
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        is_interval_like(dm, members)


def test_qset_measures_epsilon_itself():
    dm = distance_matrix(cycle_graph(4))
    assert set_epsilons(dm, [[2, 0, 2]]) == set_epsilons(dm, [[0, 2]]) == [1]


def test_check_hit_pack_radius_boundaries():
    dm = distance_matrix(path_graph(5))
    members = [(0,), (2, 3), (4,)]
    # vertex 2 reaches members 0 and 2 at distance exactly 2
    assert check_hit_pack(dm, members, [2], 2, [], 0) == (True, True)
    assert check_hit_pack(dm, members, [2], 1, [], 0) == (False, True)
    assert check_hit_pack(dm, members, [0], 2, [], 0) == (False, True)
    # members 0 and 1 are 2 apart: packed at gap 0, not at gap 1
    assert check_hit_pack(dm, members, [0, 3], 1, [0, 1], 0) == (True, True)
    assert check_hit_pack(dm, members, [0, 3], 1, [0, 1], 1) == (True, False)
    assert check_hit_pack(dm, members, [0, 3], 1, [0, 2], 1) == (True, True)


def test_check_hit_pack_rejects_packing_indices_out_of_range():
    dm = distance_matrix(path_graph(5))
    members = [[0], [4]]
    assert check_hit_pack(dm, members, [0, 4], 0, [0, 1], 1) == (True, True)
    # -1 would wrap to member 1 and certify a packing that was never given
    for bad in (-1, 2):
        with pytest.raises(ValueError, match=f"^packing index {bad} out of range for 2 members$"):
            check_hit_pack(dm, members, [0, 4], 0, [0, bad], 1)


def test_family_errors_in_input_order():
    # each set is checked in turn, its range before its emptiness
    dm = distance_matrix(path_graph(4))
    with pytest.raises(ValueError, match="^cannot measure quasiconvexity of an empty set$"):
        set_epsilons(dm, [[0, 1], [], [9]])
    with pytest.raises(ValueError, match="^set contains vertex 9, out of range for n=4$"):
        set_epsilons(dm, [[0, 1], [9], []])


def test_check_hit_pack_catches_mutants():
    g = path_graph(12)
    dm = distance_matrix(g)
    members = [[0], [4], [8, 9]]
    hp = greedy_hit_pack(g, dm, members, 1)
    assert (hp.hitting_set, hp.packing) == ((7, 3, 0), (2, 1, 0))
    assert math.floor(covering_radius(1, max(set_epsilons(dm, members)), Fraction(0))) == 1
    assert check_hit_pack(dm, members, hp.hitting_set, 1, hp.packing, 1) == (True, True)
    # [0] and [4] are 4 apart: packed at gap 1, within 2*gap at gap 2
    assert check_hit_pack(dm, members, hp.hitting_set, 1, (0, 1), 2) == (True, False)
    # a repeated packing index is a member at distance 0 from itself
    assert check_hit_pack(dm, members, hp.hitting_set, 1, (2, 2), 1) == (True, False)
    # without vertex 0, member [0] lies 3 from the hitting set, beyond radius 1
    assert check_hit_pack(dm, members, (7, 3), 1, hp.packing, 1) == (False, True)
    with pytest.raises(ValueError, match="^packing index 3 out of range for 3 members$"):
        check_hit_pack(dm, members, hp.hitting_set, 1, (0, 3), 1)


@st.composite
def graphs_and_families(draw):
    """A graph and a family of vertex lists mixing singletons, lists with
    repeated vertices, the whole vertex set and repeats of earlier sets."""
    g = draw(
        st.one_of(connected_graphs(max_n=12), connected_graphs(max_n=12, tree=True), glued_blocks())
    )
    vertex = st.integers(0, g.n - 1)
    sets: list[list[int]] = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["single", "list", "all", "repeat"]))
        if kind == "single":
            sets.append([draw(vertex)])
        elif kind == "all":
            sets.append(list(range(g.n)))
        elif kind == "repeat" and sets:
            sets.append(draw(st.sampled_from(sets)))
        else:
            sets.append(draw(st.lists(vertex, min_size=1, max_size=g.n + 2)))
    return g, sets


@settings(max_examples=200, deadline=None)
@given(graphs_and_families())
def test_family_epsilons_equal_pair_loop(case):
    g, sets = case
    dm = distance_matrix(g)
    want = [epsilon_by_pairs(dm, s) for s in sets]
    assert set_epsilons(dm, sets) == want
    assert [set_epsilons(dm, [s])[0] for s in sets] == want


@settings(max_examples=200, deadline=None)
@given(graphs_and_families(), st.data())
def test_greedy_and_check_hit_pack_equal_set_loops(case, data):
    g, sets = case
    dm = distance_matrix(g)
    r = data.draw(st.integers(0, 3))
    delta = Fraction(data.draw(st.integers(0, 4)), 2)
    z = data.draw(st.integers(0, g.n - 1))
    hp = greedy_hit_pack(g, dm, sets, r, z=z)  # unsorted lists with repeats, as drawn
    assert hp == greedy_hit_pack_by_sets(g, dm, sets, r, z=z)
    radius = math.floor(covering_radius(r, max(set_epsilons(dm, sets)), delta))
    args = (dm, sets, hp.hitting_set, radius, hp.packing, r)
    hit_ok, pack_ok = check_hit_pack(*args)
    assert (hit_ok, pack_ok) == check_hit_pack_by_sets(*args)
    assert pack_ok  # greedy drops every set within 2r of a pick; hit_ok needs a sound delta
    # arbitrary certificates, repeated packing indices included
    hitting = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=4))
    packing = data.draw(st.lists(st.integers(0, len(sets) - 1), max_size=len(sets) + 1))
    args = (dm, sets, hitting, data.draw(st.integers(0, 4)), packing, r)
    assert check_hit_pack(*args) == check_hit_pack_by_sets(*args)


@settings(max_examples=200, deadline=None)
@given(graphs_and_families(), st.data())
def test_helly_center_is_the_first_greedy_hit(case, data):
    g, sets = case
    dm = distance_matrix(g)
    r = data.draw(st.integers(0, 4))
    z = data.draw(st.integers(0, g.n - 1))
    far = [
        (i, j, gap)
        for i in range(len(sets))
        for j in range(i + 1, len(sets))
        if (gap := set_distance(dm, sets[i], sets[j])) > 2 * r
    ]
    if far:
        i, j, gap = far[0]
        msg = (
            f"set[{i}] and set[{j}] are {gap} apart, more than 2r = {2 * r}: "
            "family is not pairwise 2r-close"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            helly_center(g, dm, sets, r, z=z)
    else:
        h = greedy_hit_pack_by_sets(g, dm, sets, r, z=z)
        assert helly_center(g, dm, sets, r, z=z) == h.hitting_set[0]
