"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 9 checks that the centroid of the star-plus-path family is not
its core.  With a path on 3*sqrt(n) vertices whose end vertex is the hub of a
star with n - 3*sqrt(n) leaves, the path vertex t hops from the hub has
squared-distance sum (n - 3*sqrt(n))(t+1)^2 + sum_{i<3*sqrt(n)} (i - t)^2,
minimized at t = 7/2 + 3/(2*sqrt(n)), so the centroid is the path vertex 4
hops from the hub for every n >= 9.  At n = 100, 400, 900 the test checks that
the core is the radius-0 ball at the hub, that the centroid is that path
vertex, and that the centroid's ball one hop short of that offset intercepts
fewer than ceil(n^2/4) pairs.  The centroid thus needs radius 4 to do what the
hub does at radius 0, with delta = 0.  Offsets and pair counts come from the
closed form above, not from the program.
"""

import itertools
import math
import random
import time

from hypercore import (
    beam_pairs,
    check_hit_pack,
    covering_radius,
    distance_matrix,
    eccentricity_profile,
    four_point_delta,
    greedy_hit_pack,
    helly_center,
    intercepted_pairs,
    interval,
    kappa_hit_pack,
    min_core,
    set_epsilons,
    total_beam_core,
    traffic_load,
)
from hypercore.check import balls_intercept
from hypercore.generators import (
    cycle_graph,
    gnp_connected,
    random_tree,
    star_path_graph,
)
from conftest import acceptance_line, path_count
from oracles import (
    all_geodesics,
    ball_members,
    brute_pi,
    brute_sigma,
    brute_tau,
    centroid_vertex,
    inflate_family,
    naive_intercepts,
    naive_interval,
    naive_traffic_load,
    set_distance,
    star_path_hub,
)

CORE_TIME_BUDGET_S = 300.0


def ceil_quarter_square(n: int) -> int:
    return -(-n * n // 4)


def random_interval_sets(dm, rng, count, max_tries=50):
    n = dm.n
    sets = []
    for _ in range(count):
        a, b = rng.randrange(n), rng.randrange(n)
        sets.append(interval(dm, a, b))
    return sets


def intersecting_interval_sets(dm, rng, count):
    """Intervals that all contain a common hub vertex, hence pairwise meet."""
    n = dm.n
    hub = rng.randrange(n)
    sets = []
    while len(sets) < count:
        a = rng.randrange(n)
        b = rng.randrange(n)
        iv = interval(dm, a, b)
        if hub in iv:
            sets.append(iv)
        else:
            sets.append(interval(dm, hub, a))
    return sets


def test_criterion_1_core_bound(corpus):
    start = time.time()
    failures = []
    for item in corpus:
        res = item.full_profile_core()
        bound = math.floor(item.delta4 * 4)
        need = ceil_quarter_square(item.g.n)
        if res.radius > bound:
            failures.append(f"{item.name}: rho={res.radius} > {bound}")
        if res.intercepted_pairs < need:
            failures.append(f"{item.name}: pairs={res.intercepted_pairs} < {need}")
        if item.kind == "tree" and res.radius != 0:
            failures.append(f"{item.name}: tree core radius {res.radius}")
    elapsed = time.time() - start
    ok = not failures and elapsed < CORE_TIME_BUDGET_S
    acceptance_line(1, ok, f"200 graphs, {elapsed:.1f}s, {len(failures)} failures")
    assert not failures, failures[:5]
    assert elapsed < CORE_TIME_BUDGET_S


def test_criterion_2_helly_quasiconvex(corpus):
    eligible = [it for it in corpus if 3 <= it.g.n <= 40]
    rng = random.Random(202)
    failures = []
    built = 0
    i = 0
    while built < 100:
        item = eligible[i % len(eligible)]
        i += 1
        sets = intersecting_interval_sets(item.dm, rng, rng.randint(3, 6))
        built += 1
        center = helly_center(item.g, item.dm, sets, 0)
        epsilon = max(set_epsilons(item.dm, sets))
        radius = math.floor(covering_radius(0, epsilon, item.thin_delta))
        members = ball_members(item.dm, center, radius)
        for s in sets:
            if set_distance(item.dm, members, s) != 0:
                failures.append(f"{item.name}: ball misses a member")
    ok = not failures
    acceptance_line(2, ok, f"{built} families, {len(failures)} misses")
    assert not failures, failures[:5]


def test_criterion_3_hitting_packing_equality(corpus):
    eligible = [it for it in corpus if 3 <= it.g.n <= 40]
    rng = random.Random(303)
    failures = []
    built = 0
    i = 0
    while built < 100:
        item = eligible[i % len(eligible)]
        i += 1
        sets = random_interval_sets(item.dm, rng, rng.randint(3, 7))
        epsilon = max(set_epsilons(item.dm, sets))
        built += 1
        hp = greedy_hit_pack(item.g, item.dm, sets, 0)
        expected_radius = math.floor(2 * epsilon + item.thin_delta * 5)
        if len(hp.hitting_set) != len(hp.packing):
            failures.append(f"{item.name}: |T| != |P|")
        for s in sets:
            if min(set_distance(item.dm, [t], s) for t in hp.hitting_set) > expected_radius:
                failures.append(f"{item.name}: unhit member")
        for a_idx, a in enumerate(hp.packing):
            for b in hp.packing[a_idx + 1 :]:
                if set_distance(item.dm, sets[a], sets[b]) == 0:
                    failures.append(f"{item.name}: packing not disjoint")
    ok = not failures
    acceptance_line(3, ok, f"{built} families, {len(failures)} violations")
    assert not failures, failures[:5]


def test_criterion_4_multicore_chain():
    rng = random.Random(404)
    instances = []
    for seed in range(20):
        instances.append(random_tree(rng.randint(6, 12), 4040 + seed))
    for n in (4, 5, 6, 7, 8):
        instances.append(cycle_graph(n))
    for seed in range(5):
        instances.append(gnp_connected(rng.randint(8, 12), 0.3, 4400 + seed))
    assert len(instances) == 30
    violations = []
    exercised = 0
    for g in instances:
        dm = distance_matrix(g)
        thin = four_point_delta(g, dm).delta * 4
        pairs = []
        want = rng.randint(3, 6)
        while len(pairs) < want:
            a, b = rng.randrange(g.n), rng.randrange(g.n)
            if a != b:
                pairs.append((a, b))
        diam = int(dm.d.max())
        kmax = len(pairs)
        for r in range(math.floor(thin * 8), diam + 1):
            exercised += 1
            r_d = max(math.floor(r - thin), 0)
            r_5d = max(math.floor(r - thin * 5), 0)
            pi_r = brute_pi(inflate_family(dm, pairs, r))
            tau_r = brute_tau(g.n, inflate_family(dm, pairs, r), kmax)
            sigma_r = brute_sigma(g, dm, pairs, r, kmax)
            tau_rd = brute_tau(g.n, inflate_family(dm, pairs, r_d), kmax)
            pi_r5d = brute_pi(inflate_family(dm, pairs, r_5d))
            sigma_r5d = brute_sigma(g, dm, pairs, r_5d, kmax)
            chain = [pi_r, tau_r, sigma_r, tau_rd, pi_r5d, sigma_r5d]
            if any(v is None for v in chain) or not all(
                chain[i] <= chain[i + 1] for i in range(5)
            ):
                violations.append(f"n={g.n} r={r}: {chain}")
    ok = not violations and exercised >= 30
    acceptance_line(4, ok, f"30 instances, {exercised} radii checked, {len(violations)} violations")
    assert exercised >= 30
    assert not violations, violations[:5]


def test_criterion_5_total_beam_core(corpus):
    failures = []
    for item in corpus:
        bc = total_beam_core(item.g, item.dm, item.thin_delta)
        if bc.radius != math.floor(item.thin_delta * 2):
            failures.append(f"{item.name}: radius {bc.radius}")
        if not balls_intercept(item.g, item.dm, [bc.midpoint], bc.radius, beam_pairs(item.dm)):
            failures.append(f"{item.name}: beam escaped")
        if item.kind == "tree" and bc.radius != 0:
            failures.append(f"{item.name}: tree beam radius {bc.radius}")
    ok = not failures
    acceptance_line(5, ok, f"200 graphs, {len(failures)} failures")
    assert not failures, failures[:5]


def test_criterion_6_structural_inequalities(corpus):
    failures = []
    for item in corpus:
        mid = total_beam_core(item.g, item.dm, item.thin_delta).midpoint
        prof = eccentricity_profile(item.dm)
        if not prof.diameter >= 2 * prof.radius - item.thin_delta * 2 - 1:
            failures.append(f"{item.name}: diam/rad")
        far = max(int(item.dm.d[mid, c]) for c in prof.center)
        if not far <= item.thin_delta * 4 + 1:
            failures.append(f"{item.name}: center distance {far}")
    ok = not failures
    acceptance_line(6, ok, f"200 graphs, {len(failures)} violations")
    assert not failures, failures[:5]


def test_criterion_7_kappa_lp_guarantee(corpus):
    eligible = [it for it in corpus if 6 <= it.g.n <= 40]
    rng = random.Random(707)
    failures = []
    for i in range(50):
        item = eligible[i % len(eligible)]
        kappa = 1 + i % 3
        fam = []
        for _ in range(rng.randint(3, 6)):
            parts = [
                interval(item.dm, rng.randrange(item.g.n), rng.randrange(item.g.n))
                for _ in range(rng.randint(1, kappa))
            ]
            fam.append(parts)
        eps = max(set_epsilons(item.dm, [part for parts in fam for part in parts]))
        r = eps + math.floor(item.thin_delta * 2) + i % 3
        res = kappa_hit_pack(item.g, item.dm, fam, r, item.thin_delta)
        k = res.kappa
        unions = [sorted({v for part in parts for v in part}) for parts in fam]
        hit_ok, pack_ok = check_hit_pack(
            item.dm, unions, res.hitting_set, res.r_prime, res.packing, r
        )
        if not hit_ok:
            failures.append(f"{item.name}: hitting cert")
        if not pack_ok:
            failures.append(f"{item.name}: packing cert")
        if len(res.hitting_set) > 2 * k * k * len(res.packing):
            failures.append(f"{item.name}: size bound")
        if res.packing_optimum != res.hitting_optimum:
            failures.append(f"{item.name}: duality gap nonzero")
    ok = not failures
    acceptance_line(7, ok, f"50 instances, {len(failures)} failures")
    assert not failures, failures[:5]


def test_criterion_8_traffic_consistency(corpus):
    sample = corpus[::4][:50]
    assert len(sample) == 50
    failures = []
    for item in sample:
        res = item.full_profile_core()
        n = item.g.n
        if res.intercepted_pairs < ceil_quarter_square(n):
            failures.append(f"{item.name}: pair count")
            continue
        members = ball_members(item.dm, res.center, res.radius)
        mu = traffic_load(item.g, None, members)
        if n <= 12:
            pairs = list(itertools.permutations(range(n), 2))
            oracle = naive_traffic_load(item.g, item.dm, pairs, members)
            if mu != oracle:
                failures.append(f"{item.name}: mu {mu} != oracle {oracle}")
        if not 0 <= mu <= n * (n - 1):
            failures.append(f"{item.name}: mu out of range")
    ok = not failures
    acceptance_line(8, ok, f"50 graphs, {len(failures)} failures")
    assert not failures, failures[:5]


def star_path_centroid_offset(n: int) -> int:
    """Hops from the hub to the centroid of star_path_graph(n), from the closed form.

    With k = sqrt(n), the path vertex t hops from the hub has squared-distance
    sum (n - 3k)(t+1)^2 + sum_{i<3k} (i - t)^2, a quadratic in t whose real
    minimizer is 7/2 + 3/(2k).  Returns its exact integer argmin over the path.
    """
    k = math.isqrt(n)
    leaves = n - 3 * k

    def squared_sum(t: int) -> int:
        return leaves * (t + 1) ** 2 + sum((i - t) ** 2 for i in range(3 * k))

    return min(range(3 * k), key=squared_sum)


def star_path_intercepted(n: int, t: int, r: int) -> int:
    """Pairs of star_path_graph(n) intercepted by the radius-r ball around the
    path vertex t hops from the hub, counted on the tree in closed form.

    The ball covers path offsets t-r..t+r.  Every geodesic from a leaf passes
    through or ends at the hub (offset 0), and a leaf is in the ball only if
    the hub is, so each leaf counts as sitting at offset 0.  A pair escapes
    iff both of its offsets lie on the same side of the ball.
    """
    k = math.isqrt(n)
    leaves = n - 3 * k
    hub_side = t - r + leaves if r < t else 0
    far_side = max(0, 3 * k - 1 - (t + r))
    return math.comb(n, 2) - math.comb(hub_side, 2) - math.comb(far_side, 2)


def test_criterion_9_centroid_divergence():
    distances = []
    radii = []
    short_counts = []
    failures = []
    for n in (100, 400, 900):
        g = star_path_graph(n)
        dm = distance_matrix(g)
        hub = star_path_hub(n)
        need = ceil_quarter_square(n)
        core = min_core(g, range(n))
        centroid = centroid_vertex(dm, range(n))
        t = star_path_centroid_offset(n)
        radii.append(core.radius)
        distances.append(int(dm.d[centroid, core.center]))
        short_counts.append(star_path_intercepted(n, t, t - 1))
        if core.center != hub:
            failures.append(f"n={n}: core center {core.center} != hub {hub}")
        if core.intercepted_pairs != star_path_intercepted(n, 0, 0):
            failures.append(f"n={n}: hub core intercepts {core.intercepted_pairs}")
        if centroid != hub - t:
            failures.append(f"n={n}: centroid {centroid} != path vertex {hub - t}")
        if short_counts[-1] >= need:
            failures.append(f"n={n}: radius {t - 1} centroid ball is a core")
        if star_path_intercepted(n, t, t) < need:
            failures.append(f"n={n}: radius {t} centroid ball is not a core")
    # Cross-check the closed form against interception over all pairs at n = 100.
    n = 100
    g = star_path_graph(n)
    dm = distance_matrix(g)
    t = star_path_centroid_offset(n)
    centroid = star_path_hub(n) - t
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    for r, want in ((t - 1, 2234), (t, 4740)):
        got = int(intercepted_pairs(g, dm, centroid, r, pairs).sum())
        closed = star_path_intercepted(n, t, r)
        if not got == closed == want:
            failures.append(
                f"n=100 r={r}: {got} by intercepted_pairs, {closed} closed form, "
                f"{want} expected"
            )
    ok = not failures and all(r == 0 for r in radii)
    acceptance_line(
        9,
        ok,
        f"core radii {radii}, centroid-to-core distances {distances}, "
        f"pairs intercepted one hop short of the centroid {short_counts}; "
        f"exact centroid offset is 7/2 + 3/(2*sqrt(n))",
    )
    assert all(r == 0 for r in radii)
    assert not failures, failures


def test_criterion_10_oracle_equivalence(corpus):
    small = [it for it in corpus if it.g.n <= 12]
    assert len(small) >= 20
    rng = random.Random(1010)
    failures = []
    for item in small:
        g, dm = item.g, item.dm
        for u in range(g.n):
            for v in range(u, g.n):
                if interval(dm, u, v) != naive_interval(g, dm, u, v):
                    failures.append(f"{item.name}: interval({u},{v})")
                if path_count(g, u, v) != len(all_geodesics(g, dm, u, v)) and u != v:
                    failures.append(f"{item.name}: count({u},{v})")
        for _ in range(20):
            x, y = rng.randrange(g.n), rng.randrange(g.n)
            if x == y:
                continue
            c, r = rng.randrange(g.n), rng.randrange(3)
            got = intercepted_pairs(g, dm, c, r, [(x, y)])[0]
            want = naive_intercepts(g, dm, ball_members(dm, c, r), x, y)
            if got != want:
                failures.append(f"{item.name}: intercepts(B({c},{r}),{x},{y})")
    ok = not failures
    acceptance_line(10, ok, f"{len(small)} graphs n<=12, {len(failures)} mismatches")
    assert not failures, failures[:5]
