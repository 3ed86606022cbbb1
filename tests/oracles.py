"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive (exhaustive path enumeration, plain
O(n^4) loops, polytope vertex enumeration) and shares no code path with the
implementations it checks.  The checks of the paper's statements
(``brute_sigma``, ``brute_tau``, ``brute_pi``, ``helly_balls_check``,
``beams_pairwise_close``) read intervals and interceptions from the package:
they test the theorems built on those, which the package does not compute.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple
from fractions import Fraction
from itertools import chain, combinations

import numpy as np

from hypercore import LPInstance
from hypercore.graphs import (
    _check_vertex,
    _min_rows,
    check_vertices,
    intercepted_pairs,
    interval,
    row_chunks,
)


def neighbours(g, v) -> list[int]:
    """The neighbours of v in increasing order: a row of a ``Graph``'s CSR,
    or of the ``adjacency`` lists of a stand-in that carries them (the
    benchmark's checker passes one)."""
    if hasattr(g, "adjacency"):
        return g.adjacency[v]
    return g.indices[g.indptr[v] : g.indptr[v + 1]].tolist()


def distances_avoiding(g, blocked, source):
    """One-source BFS hop distances in g with the ``blocked`` vertices
    deleted; -1 marks unreachable and blocked vertices.  The reference for
    the bit-parallel kernel ``multi_source_distances``."""
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} out of range for n={g.n}")
    blocked = set(blocked)
    if source in blocked:
        raise ValueError(f"source {source} is a blocked vertex")
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in neighbours(g, u):
            if dist[w] < 0 and w not in blocked:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def bfs_distances(g, source):
    """One-source BFS hop distances; -1 marks unreachable vertices."""
    return distances_avoiding(g, (), source)


def validate_metric(dm, g=None) -> None:
    """Raise if any metric invariant of ``dm`` fails: square, zero diagonal,
    symmetric, distinct vertices at least 1 apart, the triangle inequality,
    and, given g, rows 1-Lipschitz along every edge.  O(n^3)."""
    d = dm.d
    n = dm.n
    if d.shape != (n, n):
        raise ValueError("distance matrix is not square")
    if (d.diagonal() != 0).any():
        raise ValueError("nonzero diagonal entry")
    if (d != d.T).any():
        raise ValueError("asymmetric distances")
    off = d[~np.eye(n, dtype=bool)]
    if n > 1 and (off < 1).any():
        raise ValueError("distinct vertices at distance < 1")
    for k in range(n):
        if (d > d[:, k : k + 1] + d[k : k + 1, :]).any():
            raise ValueError(f"triangle inequality fails through vertex {k}")
    if g is not None:
        for u, v in g.edges():
            if (np.abs(d[:, u] - d[:, v]) > 1).any():
                raise ValueError(f"edge ({u},{v}) violates 1-Lipschitz rows")


def all_geodesics(g, dm, s, t):
    """Every geodesic vertex path from s to t, by DFS on the layered DAG."""
    d = dm.d
    out = []

    def extend(path):
        cur = path[-1]
        if cur == t:
            out.append(tuple(path))
            return
        step = int(d[cur, t]) - 1
        for w in neighbours(g, cur):
            if d[w, t] == step:
                extend(path + [w])

    extend([s])
    return out


def naive_four_point_delta_doubled(dm) -> int:
    """Largest (top sum - second sum) over distinct vertex quadruples.

    Quadruples with repeated vertices never exceed distinct ones, so
    iterating 4-subsets is exhaustive.
    """
    n = dm.n
    d = dm.d
    best = 0
    for u, v, x, y in combinations(range(n), 4):
        sums = sorted(
            (
                int(d[u, v]) + int(d[x, y]),
                int(d[u, x]) + int(d[v, y]),
                int(d[u, y]) + int(d[v, x]),
            )
        )
        best = max(best, sums[2] - sums[1])
    return best


def naive_interval_thinness(dm) -> int:
    """Largest d(x,y) over x,y in I(u,v) with d(u,x) = d(u,y), over all u<v."""
    n = dm.n
    d = dm.d
    best = 0
    for u in range(n):
        for v in range(u + 1, n):
            duv = int(d[u, v])
            between = [x for x in range(n) if int(d[u, x]) + int(d[x, v]) == duv]
            for x in between:
                for y in between:
                    if d[u, x] == d[u, y]:
                        best = max(best, int(d[x, y]))
    return best


def furthest_set(dm, x) -> list[int]:
    """P(x): all vertices at maximum distance from x."""
    check_vertices(dm.n, [x], "vertex")
    row = dm.d[x]
    return np.flatnonzero(row == row.max()).tolist()


def far_apart_pairs_by_vertex(dm) -> np.ndarray:
    """Reference for ``hyperbolicity._lower_layers`` / ``_FarApart``: the
    local mask one vertex at a time (its neighbour rows 64 at a time), the
    pairs 64 rows at a time, then one stable sort by decreasing distance."""
    d = dm.d
    n = dm.n
    # local[a, b]: no neighbour of a is farther from b
    local = np.ones((n, n), dtype=bool)
    for a in range(n):
        nbrs = np.flatnonzero(d[a] == 1)
        for s in range(0, len(nbrs), 64):
            local[a] &= (d[nbrs[s : s + 64]] <= d[a]).all(axis=0)
    heads, tails = [], []
    for s in range(0, n, 64):
        # rows s..s+63: keep b > a where both ends are local maxima
        block = np.triu(local[s : s + 64] & local[:, s : s + 64].T, s + 1)
        h, t = np.nonzero(block)
        heads.append((h + s).astype(np.int32))
        tails.append(t.astype(np.int32))
    heads, tails = np.concatenate(heads), np.concatenate(tails)
    order = np.argsort(-d[heads, tails], kind="stable")
    return np.stack([heads[order], tails[order]], axis=1)


def thinness_scan_by_pair(dm, pairs, nu) -> int:
    """Reference for ``_thinness_scan``: one pair of the complete far-apart
    list at a time, from a thinness ``nu`` already found, stopping at the
    first pair at distance <= nu."""
    d = dm.d
    for u, v in pairs.tolist():
        duv = d[u, v]
        if duv <= nu:
            return nu
        du = d[u]
        iv = np.flatnonzero(du + d[v] == duv)
        ranks = du[iv]
        order = np.argsort(ranks)
        iv, ranks = iv[order], ranks[order]
        # pair each member with every member of its layer: member p's
        # partners are the size[p] entries of iv from its layer's first index
        size = np.bincount(ranks)[ranks]
        first = np.searchsorted(ranks, ranks)
        ends = np.cumsum(size)
        partner = np.arange(int(ends[-1])) - np.repeat(ends - size - first, size)
        nu = max(nu, int(d[np.repeat(iv, size), iv[partner]].max()))
    return nu


def budgeted_four_point(g, dm, budget) -> tuple[int, tuple[int, int, int, int], int]:
    """Reference for ``four_point_delta`` under a budget: the scan in row
    blocks over each scanned block's complete far-apart list, as (doubled
    delta, witness, doubled upper).  Row blocks i..j-1 cost (j - i) * j; the
    scan stops before a block that would pass the budget, and the bound is
    then the distance of its first row or the next block's diameter.  The
    blocks come from the package's ``_scanned_blocks``, since the budget and
    the witness depend on the order of blocks of equal diameter."""
    from hypercore.hyperbolicity import _scanned_blocks

    best, quad, rest = 0, (0, 0, 0, 0), 0
    for blk, sub, diam in _scanned_blocks(g, dm):
        if rest:
            rest = max(rest, diam)
            break
        if diam <= best:
            break
        d = sub.d.astype(np.int32)
        pairs = far_apart_pairs_by_vertex(sub)
        a, b = pairs[:, 0], pairs[:, 1]
        dist = d[a, b]
        i = 0
        while i < len(dist) and dist[i] > best:
            j = min(len(dist), i + max(1, min(64, 2**14 // (i + 1))))
            if (j - i) * j > budget:
                rest = int(dist[i])
                break
            budget -= (j - i) * j
            diff = broadcast_defects(d, a, b, dist, slice(i, j), slice(0, j))
            flat = int(diff.argmax())
            if diff.flat[flat] > best:
                r, k = divmod(flat, j)
                best = int(diff.flat[flat])
                quad = tuple(int(blk[x]) for x in (a[i + r], b[i + r], a[k], b[k]))
            i = j
    return best, quad, max(best, rest)


def broadcast_defects(d, a, b, dist, rows, cols):
    """Doubled defects D_p + D_q - max(S2, S3) of the pairs p = (a[p], b[p])
    in ``rows`` against q in ``cols``, with distances dist, as a (rows x
    cols) block of broadcast 2-D fancy indexes into d."""
    ar, br, ac, bc = a[rows, None], b[rows, None], a[None, cols], b[None, cols]
    diff = dist[rows, None] + dist[None, cols]
    diff -= np.maximum(d[ar, ac] + d[br, bc], d[ar, bc] + d[br, ac])
    return diff


def naive_interval(g, dm, u, v):
    verts = set()
    for path in all_geodesics(g, dm, u, v):
        verts.update(path)
    return sorted(verts)


def star_path_hub(n) -> int:
    """Vertex id of the star center in ``generators.star_path_graph(n)``:
    the last of the path's 3*sqrt(n) vertices."""
    return 3 * math.isqrt(n) - 1


def ball_members(dm, center, radius) -> list[int]:
    """The vertices of the ball B(center, radius), in increasing id."""
    _check_vertex(dm.n, center, "ball center")
    return np.flatnonzero(dm.d[center] <= radius).tolist()


def set_distance(dm, X, Y) -> int:
    """min d(x,y) over x in X, y in Y; 0 iff the sets intersect."""
    xs = check_vertices(dm.n, X, "X")
    ys = check_vertices(dm.n, Y, "Y")
    if not xs or not ys:
        raise ValueError("set_distance needs two nonempty vertex sets")
    return int(dm.d.take(xs, axis=0).take(ys, axis=1).min())


def centroid_vertex(dm, X) -> int:
    """Vertex minimizing the squared-distance sum, smallest id on ties."""
    profile = check_vertices(dm.n, X, "profile")
    if not profile:
        raise ValueError("centroid of an empty profile")
    rows = (dm.d[profile[c]] for c in row_chunks(len(profile), dm.n))
    # a square leaves the distance type, so it is taken in int64
    sums = sum(np.square(r, dtype=np.int64).sum(axis=0) for r in rows)
    return int(sums.argmin())


def naive_intercepts(g, dm, members, x, y) -> bool:
    inside = set(members)
    return all(inside & set(path) for path in all_geodesics(g, dm, x, y))


def set_gaps_by_loops(dm, centers, radius, members) -> list:
    """``check.set_gaps`` one center, set and vertex at a time: max(d(c, s)
    - radius, 0) at the nearest c and s, infinite with no center."""
    gaps = []
    for S in members:
        near = min((int(dm.d[c, s]) for c in centers for s in S), default=math.inf)
        gaps.append(max(near - radius, 0))
    return gaps


def balls_intercept_by_paths(g, dm, centers, radius, pairs) -> bool:
    """``check.balls_intercept`` by path enumeration: every pair has one
    ball B(c, radius) that meets each of its geodesics."""
    balls = [[v for v in range(dm.n) if dm.d[c, v] <= radius] for c in centers]
    return all(any(naive_intercepts(g, dm, ball, x, y) for ball in balls) for x, y in pairs)


def epsilon_by_pairs(dm, C) -> int:
    """The pair loop for ``set_epsilons``: the largest d(z, C) over the
    interval of each pair x < y of C, one pair at a time."""
    members = check_vertices(dm.n, C, "set")
    if not members:
        raise ValueError("cannot measure quasiconvexity of an empty set")
    d = dm.d
    to_c = d[:, members].min(axis=1)
    eps = 0
    for i, x in enumerate(members):
        dx = d[x]
        for y in members[i + 1 :]:
            on_interval = dx + d[y] == d[x, y]
            val = int(to_c[on_interval].max())
            if val > eps:
                eps = val
    return eps


def greedy_hit_pack_by_sets(g, dm, sets, r, *, z=0):
    """``greedy_hit_pack`` one set at a time, as a (hitting, packing) pair of
    tuples: each round recomputes the pick's distance row, tests every
    remaining set against it, and walks its own projection toward z."""
    if r < 0:
        raise ValueError(f"negative packing gap {r}")
    d = dm.d
    members = [list(s) for s in sets]
    dists = [int(d[z, ms].min()) for ms in members]
    remaining = list(range(len(sets)))
    hitting: list[int] = []
    packing: list[int] = []
    while remaining:
        pick = max(remaining, key=lambda i: (dists[i], -i))
        c = min(members[pick], key=lambda q: (int(d[z, q]), q))  # nearest, smallest id
        for _ in range(min(r, dists[pick])):
            c = min(w for w in neighbours(g, c) if d[z, w] == d[z, c] - 1)
        hitting.append(c)
        packing.append(pick)
        near = d[members[pick]].min(axis=0)  # distance of every vertex to the pick
        remaining = [j for j in remaining if j != pick and int(near[members[j]].min()) > 2 * r]
    return tuple(hitting), tuple(packing)


def check_hit_pack_by_sets(dm, members, hitting, hit_radius, packing, pack_gap):
    """``check_hit_pack`` one member and one packed pair at a time."""
    check_vertices(dm.n, hitting, "hitting set")
    check_vertices(dm.n, chain.from_iterable(members), "members")
    for a in packing:
        if not (0 <= a < len(members)):
            raise ValueError(f"packing index {a} out of range for {len(members)} members")
    d = dm.d
    rows = d[list(hitting)]
    hit_ok = all(int(rows[:, list(ms)].min()) <= hit_radius for ms in members)
    pack_ok = True
    for i, a in enumerate(packing[:-1]):
        near = d[list(members[a])].min(axis=0)  # distance of every vertex to member a
        if any(int(near[list(members[b])].min()) <= 2 * pack_gap for b in packing[i + 1 :]):
            pack_ok = False
            break
    return hit_ok, pack_ok


def helly_balls_check(dm, balls, delta):
    """Common vertex of the delta-inflated balls, each a (center, radius)
    pair, of a pairwise intersecting collection, or None if no such vertex
    exists.

    Pairwise intersection of the input balls is a precondition and is
    verified; the inflation applied is ceil(delta).
    """
    if not balls:
        raise ValueError("empty ball collection")
    check_vertices(dm.n, [c for c, _ in balls], "ball centers")
    d = dm.d
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            (ci, ri), (cj, rj) = balls[i], balls[j]
            if int(d[ci, cj]) > ri + rj:
                raise ValueError(
                    f"balls {i} and {j} do not intersect (d={int(d[ci, cj])} > {ri}+{rj})"
                )
    inflate = math.ceil(delta)
    ok = np.ones(dm.n, dtype=bool)
    for c, radius in balls:
        ok &= d[c] <= radius + inflate
    hits = np.flatnonzero(ok)
    return int(hits[0]) if len(hits) else None


# a namedtuple, not a dataclass: perfbench loads this file without entering
# it in sys.modules, which a dataclass's string annotations would need
BeamSeparationReport = namedtuple("BeamSeparationReport", "max_distance bound within_bound")


def beams_pairwise_close(dm, delta) -> BeamSeparationReport:
    """Maximum distance between intervals of distinct beam pairs, compared to
    the 2*delta closeness bound.

    The interval of a beam pair contains every beam geodesic between its
    endpoints, so the interval-to-interval distance lower-bounds the
    geodesic-to-geodesic one; the bound holds for it a fortiori.
    """
    # imported here, so that loading the oracles loads no beam code
    from hypercore.beamcore import beam_pairs

    seen = set()
    intervals = []
    for x, y in beam_pairs(dm).tolist():
        key = frozenset((x, y))
        if key not in seen:
            seen.add(key)
            intervals.append(interval(dm, x, y))
    # the largest entry of the intervals' set-to-set distances, taken a run
    # of rows at a time so that no block grows with the square of their number
    worst = 0  # the diagonal is 0
    for rows in row_chunks(len(intervals), dm.n):
        near = _min_rows(dm.d, intervals[rows])
        worst = max(worst, int(_min_rows(near.T, intervals).max()))
    bound = math.floor(delta * 2)
    return BeamSeparationReport(max_distance=worst, bound=bound, within_bound=worst <= bound)


def _interception_masks(g, dm, pairs, r) -> list[int]:
    """Per-vertex bitmask of demand pairs intercepted by a radius-r ball."""
    masks = []
    for v in range(g.n):
        hit = intercepted_pairs(g, dm, v, r, pairs)
        masks.append(sum(1 << i for i in np.flatnonzero(hit).tolist()))
    return masks


def _smallest_cover(masks, bits, k_max):
    """Smallest k <= k_max such that the OR of some k masks has all ``bits``
    low bits set, or None.  Exhaustive over the nonzero masks."""
    full = (1 << bits) - 1
    candidates = [m for m in masks if m]
    for k in range(1, k_max + 1):
        for combo in combinations(candidates, k):
            acc = 0
            for m in combo:
                acc |= m
            if acc == full:
                return k
    return None


def brute_sigma(g, dm, pairs, r, k_max):
    """Exact smallest number of radius-r balls intercepting all demand pairs,
    or None when every size up to k_max fails.  Exhaustive; oracle scale only."""
    if not pairs:
        raise ValueError("commodity graph has no demand pairs")
    return _smallest_cover(_interception_masks(g, dm, pairs, r), len(pairs), k_max)


def brute_tau(n, vertex_sets, k_max=None):
    """Exact hitting number of a family of vertex sets by exhaustive search."""
    sets = [frozenset(s) for s in vertex_sets]
    if any(not s for s in sets):
        raise ValueError("cannot hit an empty set")
    hit_mask = [0] * n
    for i, s in enumerate(sets):
        for v in s:
            hit_mask[v] |= 1 << i
    return _smallest_cover(hit_mask, len(sets), len(sets) if k_max is None else k_max)


def brute_pi(vertex_sets) -> int:
    """Exact packing number: largest subfamily of pairwise disjoint sets."""
    sets = [frozenset(s) for s in vertex_sets]
    m = len(sets)
    best = 0
    for mask in range(1, 1 << m):
        chosen = [sets[i] for i in range(m) if mask >> i & 1]
        if len(chosen) > best and all(a.isdisjoint(b) for a, b in combinations(chosen, 2)):
            best = len(chosen)
    return best


def inflate_family(dm, pairs, r) -> list[list[int]]:
    """r-inflations N_r(I(x, y)) of the demand intervals, as plain vertex
    lists: every vertex within r of some interval member."""
    d = dm.d.tolist()
    out = []
    for x, y in pairs:
        members = interval(dm, x, y)
        out.append([v for v in range(dm.n) if any(d[v][u] <= r for u in members)])
    return out


def naive_traffic_load(g, dm, pairs, S) -> Fraction:
    inside = set(S)
    total = Fraction(0)
    for s, t in pairs:
        paths = all_geodesics(g, dm, s, t)
        hit = sum(1 for p in paths if inside & set(p))
        total += Fraction(hit, len(paths))
    return total


def _intercepted_count(g, dm, ball_vertices, X, bail_above):
    """Pairs of X intercepted by the given ball vertex set, or None once the
    count provably falls below the caller's threshold."""
    outside = [x for x in X if x not in ball_vertices]
    nX = len(X)
    total = nX * (nX - 1) // 2
    missed = 0
    d = dm.d
    pos = {x: i for i, x in enumerate(outside)}
    for x in outside:
        dist = distances_avoiding(g, ball_vertices, x)
        px = pos[x]
        for y in outside:
            if pos[y] > px and dist[y] == d[x, y]:
                missed += 1
        if missed > bail_above:
            return None
    return total - missed


def radius_scan_min_core(g, dm, X, alpha=Fraction(1, 2)):
    """Reference min_core: scan radii upward and, at each radius, count
    every center's intercepted pairs by deleting its ball and re-running BFS
    from each profile vertex.  The first radius at which a center reaches
    ceil(alpha * |X|^2 / 2) wins; ties prefer the largest count, then the
    smallest center id.  The median is the vertex with the smallest distance
    sum to the profile, summed vertex by vertex, smallest id on ties.
    Returns (center, radius, count, median), as ``min_core`` does."""
    profile = sorted(set(X))
    nX = len(profile)
    total = nX * (nX - 1) // 2
    need = alpha * nX * nX / 2
    threshold = -(-need.numerator // need.denominator)
    bail_above = total - threshold
    d = dm.d
    median = min(range(g.n), key=lambda v: (sum(int(d[v, x]) for x in profile), v))
    for rho in range(int(d.max()) + 1):
        counts = [
            _intercepted_count(
                g, dm, frozenset(np.flatnonzero(d[v] <= rho).tolist()), profile, bail_above
            )
            for v in range(g.n)
        ]
        best = None
        for v, cnt in enumerate(counts):
            if cnt is not None and cnt >= threshold:
                if best is None or cnt > counts[best]:
                    best = v
        if best is not None:
            return best, rho, counts[best], median
    raise AssertionError("no ball up to the diameter met the threshold")


def geodesic_dag(g, dx, last):
    """The geodesic DAGs of the sources whose distance rows are dx, each
    stopping at distance last[i], vertex by vertex: {i*n + v: sorted
    predecessor rows} over the v with 1 <= dx[i][v] <= last[i], the
    predecessors of v being its neighbours u (a CSR row) with dx[i][u] =
    dx[i][v] - 1.  The reference for ``congestion._geodesic_dag``."""
    n = g.n
    dag = {}
    for i, row in enumerate(np.asarray(dx).tolist()):
        for v in range(n):
            if 1 <= row[v] <= last[i]:
                dag[i * n + v] = [i * n + u for u in neighbours(g, v) if row[u] == row[v] - 1]
    return dag


def escape_histogram(g, dm, X):
    """H[c, r] = number of profile pairs whose escape radius from c is r.

    esc_c(x, y), the largest over (x,y)-geodesics of the closest approach to
    c, is at most rho exactly when B(c, rho) intercepts the pair.  For each
    profile vertex x but the last, one pass over its geodesic DAG
    (``geodesic_dag``, stopping at its farthest later profile vertex) in
    order of distance from x gives esc_c(x, v) for every vertex v and
    center c: the source row is d[x], and each later row is min(d[v],
    elementwise max of its predecessor rows).  The rows of the later
    profile vertices go into the histogram.  This is the every-radius count
    that ``min_core`` replaced with its threshold search, kept as that
    search's reference."""
    profile = sorted(set(X))
    n, d = g.n, dm.d
    width = int(d.max()) + 1
    hist = np.zeros((n, width), dtype=np.int64)
    esc = np.empty((n, n), dtype=np.int64)
    for i, x in enumerate(profile[:-1]):
        targets = profile[i + 1 :]
        dag = geodesic_dag(g, d[[x]], [int(d[x, targets].max())])
        esc[x] = d[x]
        for v in sorted(dag, key=lambda v: d[x, v]):
            esc[v] = np.minimum(d[v], esc[dag[v]].max(axis=0))
        for y in targets:
            hist[np.arange(n), esc[y]] += 1
    return hist


def histogram_min_core(g, dm, X, alpha=Fraction(1, 2)):
    """``min_core`` read off ``escape_histogram``: its cumulative sum gives
    every center's count at every radius, the first radius at which some
    center reaches ceil(alpha * |X|^2 / 2) wins, ties prefer the largest
    count, then the smallest center id, and the median is the smallest id
    of least distance sum.  Returns (center, radius, count, median)."""
    profile = sorted(set(X))
    nX = len(profile)
    need = alpha * nX * nX / 2
    threshold = -(-need.numerator // need.denominator)
    curve = np.cumsum(escape_histogram(g, dm, profile), axis=1)
    rho = int(np.argmax(curve.max(axis=0) >= threshold))
    best = int(np.argmax(curve[:, rho]))
    median = int(dm.d[profile].sum(axis=0, dtype=np.int64).argmin())
    return best, rho, int(curve[best, rho]), median


class GeneralLP(
    namedtuple("GeneralLP", "direction num_vars num_rows objective triplets senses rhs")
):
    """max or min of objective . x subject to rows of (coeffs, sense, rhs),
    x >= 0, with the constraint matrix in sparse triplets (row, col, value)
    that accumulate.  ``LPInstance`` poses only the packing LP max 1.x
    subject to A x <= 1; this form also holds the min / >= hitting LPs, and
    the LP oracles below read it.  (A named tuple, not a dataclass: the
    bench loads this file by path, outside ``sys.modules``.)"""

    __slots__ = ()

    @classmethod
    def packing(cls, inst):
        """The packing LP of an ``LPInstance``, in this form."""
        ones = (Fraction(1),)
        return cls(
            "max",
            inst.num_vars,
            inst.num_rows,
            ones * inst.num_vars,
            inst.triplets,
            ("<=",) * inst.num_rows,
            ones * inst.num_rows,
        )

    def dense_rows(self):
        rows = [[0] * self.num_vars for _ in range(self.num_rows)]
        for r, c, val in self.triplets:
            rows[r][c] += val
        return rows


def _fraction_rows(inst):
    """The instance's dense rows as ``Fraction``s (its coefficients may be
    ints), so that every division below is exact."""
    return [[Fraction(a) for a in row] for row in inst.dense_rows()]


def _solve_square(A, b):
    """Gaussian elimination over Fractions; None when singular."""
    n = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        pv = M[col][col]
        M[col] = [a / pv for a in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * c for a, c in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def lp_optimum_by_vertex_enumeration(inst):
    """Exact optimum of a tiny LP by enumerating basic feasible points.

    Treats x >= 0 as additional hyperplanes; feasible polytopes of the
    instances under test are bounded, so the optimum sits at a vertex.
    """
    n = inst.num_vars
    rows = _fraction_rows(inst)
    planes = [(row, rhs) for row, rhs in zip(rows, inst.rhs)]
    for j in range(n):
        axis = [Fraction(0)] * n
        axis[j] = Fraction(1)
        planes.append((axis, Fraction(0)))
    best = None
    for combo in combinations(range(len(planes)), n):
        A = [planes[i][0] for i in combo]
        b = [planes[i][1] for i in combo]
        x = _solve_square([row[:] for row in A], b)
        if x is None or any(v < 0 for v in x):
            continue
        feasible = True
        for row, rhs, sense in zip(rows, inst.rhs, inst.senses):
            val = sum(a * v for a, v in zip(row, x))
            if sense == "<=" and val > rhs:
                feasible = False
            elif sense == ">=" and val < rhs:
                feasible = False
            elif sense == "=" and val != rhs:
                feasible = False
            if not feasible:
                break
        if not feasible:
            continue
        obj = sum(c * v for c, v in zip(inst.objective, x))
        if best is None:
            best = obj
        elif inst.direction == "max":
            best = max(best, obj)
        else:
            best = min(best, obj)
    return best


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _fraction_pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [a / piv for a in tableau[row]]
    prow = tableau[row]
    for r in range(len(tableau)):
        if r != row and tableau[r][col] != 0:
            f = tableau[r][col]
            tableau[r] = [a - f * b for a, b in zip(tableau[r], prow)]
    basis[row] = col


def _fraction_price_out(tableau, basis, costs):
    """Reduced-cost row and current objective for the given basis."""
    cbar = list(costs)
    z = _ZERO
    for r, bv in enumerate(basis):
        cb = costs[bv]
        if cb != 0:
            row = tableau[r]
            for j in range(len(cbar)):
                cbar[j] -= cb * row[j]
            z += cb * row[-1]
    return cbar, z


def _fraction_run(tableau, basis, costs, allowed):
    """Maximize costs . x with Bland's rule; returns (status, objective)."""
    cbar, z = _fraction_price_out(tableau, basis, costs)
    while True:
        enter = -1
        for j in allowed:
            if cbar[j] > 0:
                enter = j
                break
        if enter < 0:
            return "optimal", z
        leave = -1
        best_ratio = None
        for r, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = r
        if leave < 0:
            return "unbounded", None
        factor = cbar[enter]
        _fraction_pivot(tableau, basis, leave, enter)
        prow = tableau[leave]
        for j in range(len(cbar)):
            cbar[j] -= factor * prow[j]
        z += factor * prow[-1]


def fraction_tableau_solve_lp(inst):
    """(status, values, objective) by the plain two-phase simplex on a
    Fraction tableau: divide the pivot row, eliminate, Bland's rule.  The
    integer tableau of ``solve_lp`` must take the same pivots."""
    n = inst.num_vars
    m = inst.num_rows
    rows = _fraction_rows(inst)
    rhs = [Fraction(b) for b in inst.rhs]
    senses = list(inst.senses)
    for r in range(m):
        if rhs[r] < 0:
            rows[r] = [-a for a in rows[r]]
            rhs[r] = -rhs[r]
            senses[r] = {"<=": ">=", ">=": "<=", "=": "="}[senses[r]]

    # column layout: structural | slack/surplus | artificial | rhs
    slack_of = {}
    art_of = {}
    col = n
    for r, s in enumerate(senses):
        if s in ("<=", ">="):
            slack_of[r] = col
            col += 1
    for r, s in enumerate(senses):
        if s == ">=" or s == "=":
            art_of[r] = col
            col += 1
    width = col

    tableau = []
    basis = []
    for r in range(m):
        row = rows[r] + [_ZERO] * (width - n) + [rhs[r]]
        if senses[r] == "<=":
            row[slack_of[r]] = _ONE
            basis.append(slack_of[r])
        elif senses[r] == ">=":
            row[slack_of[r]] = -_ONE
            row[art_of[r]] = _ONE
            basis.append(art_of[r])
        else:
            row[art_of[r]] = _ONE
            basis.append(art_of[r])
        tableau.append(row)

    sign = _ONE if inst.direction == "max" else -_ONE
    structural = [sign * Fraction(c) for c in inst.objective]

    if art_of:
        phase1 = [_ZERO] * width
        for c in art_of.values():
            phase1[c] = -_ONE
        status, z1 = _fraction_run(tableau, basis, phase1, range(width))
        if status != "optimal" or z1 != 0:
            return "infeasible", (), None
        artificial_cols = set(art_of.values())
        # drive leftover artificials out of the basis; drop redundant rows
        r = 0
        while r < len(tableau):
            if basis[r] in artificial_cols:
                pivot_col = next(
                    (j for j in range(width) if j not in artificial_cols and tableau[r][j] != 0),
                    None,
                )
                if pivot_col is None:
                    del tableau[r]
                    del basis[r]
                    continue
                _fraction_pivot(tableau, basis, r, pivot_col)
            r += 1
        allowed = [j for j in range(width) if j not in artificial_cols]
    else:
        allowed = list(range(width))

    phase2 = structural + [_ZERO] * (width - n)
    status, z = _fraction_run(tableau, basis, phase2, allowed)
    if status != "optimal":
        return status, (), None
    values = [_ZERO] * n
    for r, bv in enumerate(basis):
        if bv < n:
            values[bv] = tableau[r][-1]
    return "optimal", tuple(values), sign * z


def witness_vertices_by_sets(near) -> list[int]:
    """The witness rule on Python sets: the vertices v whose member set
    {i : near[i][v]} is nonempty and strictly inside no other vertex's
    set, one vertex (the smallest id) per distinct set, in increasing id."""
    sets = [frozenset(i for i, row in enumerate(near) if row[v]) for v in range(len(near[0]))]
    first = {}
    for v, s in enumerate(sets):
        if s and not any(s < other for other in sets):
            first.setdefault(s, v)
    return sorted(first.values())


def full_packing_lp(family, dm, r):
    """The kappa packing LP with one <= 1 row per vertex, empty and
    dominated rows included: max sum x_i, and for each vertex, sum of x_i
    over the members (lists of parts) whose union lies within r of it <= 1."""
    triplets = [
        (v, i, 1)
        for v in range(dm.n)
        for i, parts in enumerate(family)
        if min(int(dm.d[v, u]) for part in parts for u in part) <= r
    ]
    return LPInstance(len(family), dm.n, tuple(triplets))


def full_hitting_lp(family, dm, r):
    """The kappa hitting LP with one column per vertex: min sum y_v, and for
    each member (a list of parts), sum of y_v over vertices within r of its
    union >= 1."""
    one = Fraction(1)
    n = dm.n
    triplets = [
        (i, v, one)
        for i, parts in enumerate(family)
        for v in range(n)
        if min(int(dm.d[v, u]) for part in parts for u in part) <= r
    ]
    return GeneralLP(
        direction="min",
        num_vars=n,
        num_rows=len(family),
        objective=(one,) * n,
        triplets=tuple(triplets),
        senses=(">=",) * len(family),
        rhs=(one,) * len(family),
    )

