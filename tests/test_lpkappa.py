import random
import re
from fractions import Fraction as F
from math import ceil, floor, lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercore import (
    check_hit_pack,
    covering_radius,
    distance_matrix,
    four_point_delta,
    greedy_hit_pack,
    interval,
    kappa_hit_pack,
    round_packing,
    set_epsilons,
    solve_lp,
    thin_delta_bound,
)
from hypercore import lpkappa
from hypercore.generators import gnp_connected, path_graph, random_tree
from hypercore.graphs import _min_rows
from hypercore.lpkappa import (
    _gamma_index,
    _round_support,
    _unit_lp,
    _witness_incidence,
    _witness_vertices,
)
from oracles import (
    fraction_tableau_solve_lp,
    full_hitting_lp,
    full_packing_lp,
    set_distance,
    witness_vertices_by_sets,
)
from strategies import connected_graphs


def member(*vertex_sets):
    """A family member: the list of its parts."""
    return [list(vs) for vs in vertex_sets]


def union(parts):
    return sorted({v for part in parts for v in part})


def family_epsilon(dm, fam):
    return max(set_epsilons(dm, [part for parts in fam for part in parts]))


def member_distances(dm, fam):
    """d(v, member union) for every member and vertex, as ``kappa_hit_pack`` reads it."""
    return _min_rows(dm.d, [union(parts) for parts in fam])


def radii(dm, fam, r, delta):
    """(r_star, r_prime) as the ``kappa`` command takes them from the
    family's epsilon and delta."""
    eps = family_epsilon(dm, fam)
    r_star = floor(covering_radius(r, eps, delta))
    return r_star, floor(r_star + eps + delta * 3)


def certificates(dm, fam, res, r, r_prime):
    """The three claims the ``kappa`` command checks on a ``kappa_hit_pack``
    result at radius r: the hitting set reaches every member within
    r_prime, the packing is pairwise more than 2r apart, and |T| <=
    2*kappa^2*|P|."""
    hitting, packing = res[:2]
    unions = [union(parts) for parts in fam]
    hit_ok, pack_ok = check_hit_pack(dm, unions, hitting, r_prime, packing, r)
    kappa = max(map(len, fam))
    return hit_ok, pack_ok, len(hitting) <= 2 * kappa**2 * len(packing)


def gamma_sets(dm, fam, r):
    """The Gamma incidence at radius r that ``kappa_hit_pack`` rounds with."""
    return _gamma_index(member_distances(dm, fam), r)


def packing_lp(fam, dm, r):
    """The witness packing LP at radius r that ``kappa_hit_pack`` solves."""
    return _unit_lp(_witness_incidence(member_distances(dm, fam), r)[1].T)


def test_gamma_far_and_shared():
    g = path_graph(9)
    dm = distance_matrix(g)
    fam = [member([0]), member([8])]
    gi = gamma_sets(dm, fam, 0)
    assert gi == (frozenset({0}), frozenset({1}))
    fam2 = [member([0, 4]), member([4, 8])]
    gi2 = gamma_sets(dm, fam2, 0)
    assert gi2 == (frozenset({0, 1}), frozenset({0, 1}))


def test_gamma_structural_properties():
    rng = random.Random(3)
    g = gnp_connected(18, 0.2, 5)
    dm = distance_matrix(g)
    fam = [
        member(interval(dm, rng.randrange(18), rng.randrange(18)))
        for _ in range(6)
    ]
    gi = gamma_sets(dm, fam, 1)
    for i in range(6):
        assert i in gi[i]
        for j in gi[i]:
            assert i in gi[j]
    near = [
        {v for v in range(18) if set_distance(dm, [v], union(parts)) <= 1} for parts in fam
    ]
    for i in range(6):
        for j in range(6):
            assert (j in gi[i]) == bool(near[i] & near[j])


def test_packing_lp_extremes():
    g = path_graph(12)
    dm = distance_matrix(g)
    far = [member([0]), member([5]), member([11])]
    assert solve_lp(packing_lp(far, dm, 0))[1] == 3
    near = [member([4]), member([5]), member([4, 5])]
    # vertex 4 or 5 is within 1 of all three
    assert solve_lp(packing_lp(near, dm, 1))[1] <= 1


def test_hitting_lp_extremes():
    g = path_graph(12)
    dm = distance_matrix(g)
    single = [member([3, 4])]
    status, _, optimum = fraction_tableau_solve_lp(full_hitting_lp(single, dm, 0))
    assert status == "optimal" and optimum == 1
    far = [member([0]), member([5]), member([11])]
    assert fraction_tableau_solve_lp(full_hitting_lp(far, dm, 1))[2] == 3


def test_lp_duality_zero_gap():
    rng = random.Random(8)
    g = gnp_connected(20, 0.2, 9)
    dm = distance_matrix(g)
    fam = [
        member(interval(dm, rng.randrange(20), rng.randrange(20)), [rng.randrange(20)])
        for _ in range(5)
    ]
    for r in (0, 1, 2):
        packing_optimum = solve_lp(packing_lp(fam, dm, r))[1]
        status, _, hitting_optimum = fraction_tableau_solve_lp(full_hitting_lp(fam, dm, r))
        assert status == "optimal"
        assert packing_optimum == hitting_optimum  # exact strong duality


def test_round_packing_trivial_cases():
    g = path_graph(12)
    dm = distance_matrix(g)
    far = [member([0]), member([5]), member([11])]
    gi = gamma_sets(dm, far, 0)
    assert round_packing([F(1)] * 3, gi, 1) == [0, 1, 2]
    near = [member([4]), member([4, 5]), member([5])]
    gi2 = gamma_sets(dm, near, 1)
    assert round_packing([F(1, 3)] * 3, gi2, 1) == [0]


def test_round_packing_refuses_an_infeasible_x():
    # the three members are pairwise within the gamma radius, so each Gamma
    # neighbourhood carries mass 3 > 2*kappa = 2
    dm = distance_matrix(path_graph(12))
    gamma = gamma_sets(dm, [member([4]), member([4, 5]), member([5])], 1)
    assert all(len(nbhd) == 3 for nbhd in gamma)
    message = (
        "no member with Gamma mass <= 2*kappa: input was not a feasible "
        "fractional packing (or the family's epsilon/delta were mismeasured)"
    )
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        round_packing([F(1)] * 3, gamma, 1)


def test_round_hitting_kappa1_reduces_to_greedy():
    g = gnp_connected(16, 0.25, 2)
    dm = distance_matrix(g)
    rng = random.Random(4)
    parts = [interval(dm, rng.randrange(16), rng.randrange(16)) for _ in range(5)]
    fam = [member(p) for p in parts]
    # the cover 1/16 on every vertex, as integer weights over one denominator
    got = _round_support(range(16), [1] * 16, fam, dm, g, 1, 0)
    assert got == greedy_hit_pack(g, dm, parts, 1)[0]


def test_kappa_hit_pack_single_member():
    g = path_graph(10)
    dm = distance_matrix(g)
    fam = [member([2, 3], [7])]
    res = kappa_hit_pack(g, dm, fam, 0, 0)
    assert len(res[0]) == len(res[1]) == 1
    assert certificates(dm, fam, res, 0, 0) == (True, True, True)


def test_kappa1_tree_subtrees_pack_cover_bound():
    # kappa=1, delta=0, eps=0: subtree families of a tree, |T| <= 2|P|
    for seed in (0, 5):
        g = random_tree(20, seed + 60)
        dm = distance_matrix(g)
        rng = random.Random(seed)
        fam = [
            member(interval(dm, rng.randrange(20), rng.randrange(20)))
            for _ in range(6)
        ]
        assert family_epsilon(dm, fam) == 0  # so r_star = r_prime = 0
        hitting, packing, _, _ = res = kappa_hit_pack(g, dm, fam, 0, 0)
        assert certificates(dm, fam, res, 0, 0) == (True, True, True)
        assert len(hitting) <= 2 * len(packing)


def test_kappa_hit_pack_tree_unions_of_subtrees():
    # kappa=2 unions of subtrees of a tree: the certified bound |T| <= 2k^2|P|
    for seed in (1, 6, 9):
        g = random_tree(24, seed)
        dm = distance_matrix(g)
        rng = random.Random(seed)
        fam = []
        for _ in range(6):
            parts = [
                interval(dm, rng.randrange(24), rng.randrange(24)),
                interval(dm, rng.randrange(24), rng.randrange(24)),
            ]
            fam.append(member(*parts))
        assert family_epsilon(dm, fam) == 0  # so r_star = r_prime = 0
        hitting, packing, packing_optimum, hitting_optimum = res = kappa_hit_pack(
            g, dm, fam, 0, 0
        )
        assert certificates(dm, fam, res, 0, 0) == (True, True, True)
        assert len(hitting) <= 8 * len(packing)
        assert packing_optimum == hitting_optimum


def test_kappa_hit_pack_random_graph():
    g = gnp_connected(25, 0.15, 12)
    dm = distance_matrix(g)
    delta = thin_delta_bound(four_point_delta(g, dm)[0])
    rng = random.Random(7)
    fam = []
    for _ in range(5):
        parts = [
            interval(dm, rng.randrange(25), rng.randrange(25)) for _ in range(rng.randint(1, 3))
        ]
        fam.append(member(*parts))
    eps = family_epsilon(dm, fam)
    r = eps + floor(delta * 2) + 1
    r_star, r_prime = radii(dm, fam, r, delta)
    hitting, packing, packing_optimum, hitting_optimum = res = kappa_hit_pack(
        g, dm, fam, r, r_star
    )
    assert certificates(dm, fam, res, r, r_prime) == (True, True, True)
    assert packing_optimum == hitting_optimum
    kappa = max(map(len, fam))
    assert len(hitting) <= 2 * kappa * kappa * len(packing)


def test_kappa_hit_pack_preconditions():
    g = path_graph(8)
    dm = distance_matrix(g)
    fam = [member([0, 1])]
    with pytest.raises(ValueError, match="^empty family$"):
        kappa_hit_pack(g, dm, [], 0, 0)
    with pytest.raises(ValueError, match="^a member needs at least one part$"):
        kappa_hit_pack(g, dm, [member([0]), member()], 0, 0)
    with pytest.raises(ValueError, match="^a part needs at least one vertex$"):
        kappa_hit_pack(g, dm, [member([0], [])], 0, 0)
    with pytest.raises(ValueError, match="^set contains vertex 8, out of range for n=8$"):
        kappa_hit_pack(g, dm, [member([0], [8])], 0, 0)
    # the command's r >= eps + 2*delta keeps a negative radius from the
    # Gamma incidence, which refuses one itself
    with pytest.raises(ValueError, match="^negative gamma radius -1$"):
        gamma_sets(dm, fam, -1)


def test_witness_vertices_rule():
    # member sets per vertex: {}, {0,1}, {0,1}, {0}, {1,2}, {2}, {}
    near = np.array(
        [
            [0, 1, 1, 1, 0, 0, 0],
            [0, 1, 1, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 1, 0],
        ],
        dtype=bool,
    )
    # empty sets (0, 6) dropped, duplicate 2 loses to 1, strict subsets 3, 5 dropped
    assert _witness_vertices(near) == [1, 4]
    assert _witness_vertices(near[:, ::-1]) == [2, 4]  # duplicates keep the smallest id
    assert _witness_vertices(np.zeros((2, 3), dtype=bool)) == []


def _columns(m, *sets):
    """The m-member incidence whose vertex v has member set sets[v]."""
    near = np.zeros((m, len(sets)), dtype=bool)
    for v, s in enumerate(sets):
        near[sorted(s), v] = True
    return near


@st.composite
def incidences(draw):
    """A members x vertices incidence with 1-130 members, so that a
    vertex's packed key takes 1 to 17 bytes, whose columns mix empty sets,
    repeats of a few drawn sets, subsets of those and free sets."""
    m = draw(st.integers(1, 130))
    mask = st.integers(0, 2**m - 1)
    pool = draw(st.lists(mask, min_size=1, max_size=5))
    column = st.one_of(
        st.just(0),
        st.sampled_from(pool),
        st.tuples(st.sampled_from(pool), mask).map(lambda t: t[0] & t[1]),
        mask,
    )
    cols = draw(st.lists(column, min_size=1, max_size=24))
    return np.array([[c >> i & 1 for c in cols] for i in range(m)], dtype=bool)


@settings(max_examples=200, deadline=None)
@given(incidences())
@example(np.ones((130, 3), dtype=bool))
@example(_columns(129, {127, 128}, {128}, {127}, set(), {127, 128}))  # 17-byte keys
def test_witness_vertices_match_set_oracle(near):
    assert _witness_vertices(near) == witness_vertices_by_sets(near.tolist())


def test_packing_lp_rows_are_witnesses():
    dm = distance_matrix(path_graph(7))
    fam = [member([1, 2, 3]), member([1, 2], [4]), member([4, 5])]
    # at radius 0 the member sets of vertices 0..6 are {}, {0, 1}, {0, 1},
    # {0}, {1, 2}, {2}, {}: empty, duplicate and dominated rows
    lp = packing_lp(fam, dm, 0)
    assert lp.num_rows == 2 and lp.num_vars == 3
    assert sorted(lp.triplets) == [(0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 2, 1)]
    full = full_packing_lp(fam, dm, 0)
    assert solve_lp(lp)[1] == solve_lp(full)[1] == 2


def test_hitting_lp_columns_are_witnesses():
    g = path_graph(12)
    dm = distance_matrix(g)
    far = [member([0]), member([5]), member([11])]
    # at radius 1 the maximal vertex sets are those of 0, 4 and 10; the
    # hitting LP's columns are the columns of the members x witnesses
    # incidence, the transpose of the packing LP over them
    witnesses, incidence = _witness_incidence(member_distances(dm, far), 1)
    assert witnesses == [0, 4, 10]
    assert np.array_equal(incidence, np.eye(3, dtype=bool))


@st.composite
def kappa_families(draw):
    g = draw(connected_graphs(max_n=10, min_n=2, tree=draw(st.booleans())))
    vertex = st.integers(0, g.n - 1)
    kappa = draw(st.integers(1, 3))
    members = draw(
        st.lists(
            st.lists(st.lists(vertex, min_size=1, max_size=3), min_size=1, max_size=kappa),
            min_size=1,
            max_size=4,
        )
    )
    return g, members, draw(st.integers(0, 2))


@settings(max_examples=150, deadline=None)
@given(kappa_families())
def test_witness_lps_match_full_lps(case):
    g, members, radius = case
    dm = distance_matrix(g)
    fam = [member(*parts) for parts in members]

    def optima(r):
        pack = solve_lp(packing_lp(fam, dm, r))[1]
        hit = fraction_tableau_solve_lp(full_hitting_lp(fam, dm, r))[2]
        assert pack == solve_lp(full_packing_lp(fam, dm, r))[1] == hit
        return pack, hit

    optima(radius)
    delta = thin_delta_bound(four_point_delta(g, dm)[0])
    eps = family_epsilon(dm, fam)
    r = eps + ceil(delta * 2) + radius
    r_star, r_prime = radii(dm, fam, r, delta)
    res = kappa_hit_pack(g, dm, fam, r, r_star)
    # the hitting optimum is read off the packing duals; optima() solves the
    # every-vertex hitting LP itself on the Fraction tableau of tests/oracles.py
    assert res[2:] == optima(r_star)
    if g.is_tree():
        # four times the four-point constant certifies thin triangles on
        # trees, but not on graphs with cliques (README Notes): on K6 the
        # members {1, 2} and {2} at r = 0 get the hitting set {1}
        assert certificates(dm, fam, res, r, r_prime) == (True, True, True)


def test_kappa_hitting_mass_lands_on_witness_vertices():
    # the unique hitting optimum puts weight 1 on vertex 20, the only
    # witness; rounding must then represent m0 by its part at 20, not at 0
    g = path_graph(21)
    dm = distance_matrix(g)
    fam = [member([0], [20]), member([20])]
    res = kappa_hit_pack(g, dm, fam, 0, 0)
    assert res[3] == 1
    assert res[0] == (20,)
    assert certificates(dm, fam, res, 0, 0) == (True, True, True)


@pytest.mark.parametrize("z", [12, -1])
def test_kappa_hit_pack_checks_base_vertex_before_solving(monkeypatch, z):
    g = path_graph(12)
    dm = distance_matrix(g)
    fam = [member([0]), member([5]), member([11])]

    def unreachable(inst):
        raise AssertionError("solve_lp ran before the base vertex was checked")

    monkeypatch.setattr(lpkappa, "solve_lp", unreachable)
    with pytest.raises(ValueError, match=f"^base vertex contains vertex {z}, out of range for n=12$"):
        kappa_hit_pack(g, dm, fam, 0, 0, z=z)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda y: (y[0] + 1,) + y[1:],  # more than the packing optimum
        lambda y: (F(0), y[1] + y[0]) + y[2:],  # same value, member 0 uncovered
        lambda y: (-y[0], y[1] + 2 * y[0]) + y[2:],  # same value, a negative entry
    ],
)
def test_kappa_hit_pack_rejects_bad_duals(monkeypatch, corrupt):
    g = path_graph(12)
    dm = distance_matrix(g)
    fam = [member([0]), member([5]), member([11])]
    solve = lpkappa.solve_lp
    assert kappa_hit_pack(g, dm, fam, 0, 0)[3] == 3

    def corrupted(inst):
        values, objective, duals = solve(inst)
        return values, objective, corrupt(duals)

    monkeypatch.setattr(lpkappa, "solve_lp", corrupted)
    with pytest.raises(RuntimeError, match="duals"):
        kappa_hit_pack(g, dm, fam, 0, 0)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("mutate", ["lower", "negate"])
def test_integer_dual_check_catches_one_changed_dual(monkeypatch, mutate, k):
    # at radius 0 the witnesses 0, 4 and 8 carry the member sets {0, 1},
    # {1, 2} and {0, 2}: the packing optimum is 3/2 and every dual is 1/2
    g = path_graph(9)
    dm = distance_matrix(g)
    fam = [member([0], [8]), member([0], [4]), member([4], [8])]
    assert kappa_hit_pack(g, dm, fam, 0, 0)[3] == F(3, 2)
    solve = lpkappa.solve_lp

    def mutated(inst):
        values, objective, duals = solve(inst)
        duals = list(duals)
        scale = lcm(*(y.denominator for y in duals))
        assert scale == 2
        duals[k] = duals[k] - F(1, scale) if mutate == "lower" else -duals[k]
        return values, objective, tuple(duals)

    monkeypatch.setattr(lpkappa, "solve_lp", mutated)
    with pytest.raises(RuntimeError, match="duals"):
        kappa_hit_pack(g, dm, fam, 0, 0)


def test_integer_dual_check_refuses_a_negative_dual(monkeypatch):
    # at radius 0 the witnesses 0, 4, 8 and 12 carry {0, 1}, {2, 3}, {0, 2}
    # and {1, 3}: each member lies in one of the first two and one of the
    # last two, so adding t * (1, 1, -1, -1) to the duals keeps every cover
    # and the sum; only h >= 0 refuses them
    g = path_graph(13)
    dm = distance_matrix(g)
    fam = [member([a], [b]) for a in (0, 4) for b in (8, 12)]
    assert kappa_hit_pack(g, dm, fam, 0, 0)[3] == 2
    solve = lpkappa.solve_lp

    def shifted(inst):
        values, objective, duals = solve(inst)
        t = max(duals) + 1
        return values, objective, tuple(y + s * t for y, s in zip(duals, (1, 1, -1, -1)))

    monkeypatch.setattr(lpkappa, "solve_lp", shifted)
    with pytest.raises(RuntimeError, match="duals"):
        kappa_hit_pack(g, dm, fam, 0, 0)
