"""Minimum-radius traffic cores, exact geodesic counting, traffic load of a
vertex set under a demand profile, and the median vertex.

Geodesic counts are int64, promoted to Python ints where they could
overflow, and traffic fractions are exact rationals, so none of the
congestion certificates depend on float tolerances.  Results are plain
values: ``min_core`` returns the tuple (center, radius, count, median),
``traffic_load`` a ``Fraction`` and ``median_vertex`` one vertex id.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import isqrt

import numpy as np

from .graphs import (
    _BLOCK_ELEMS,
    DistanceMatrix,
    Graph,
    _fold_rows,
    check_pairs,
    check_rational,
    check_vertices,
    distance_matrix,
    multi_source_distances,
    row_chunks,
    tree_walk,
)

HALF = Fraction(1, 2)


def _geodesic_dag(g: Graph, dx: np.ndarray, last: np.ndarray) -> tuple[np.ndarray, ...]:
    """The geodesic DAGs of k sources with distance rows dx, each stopping
    at distance last[i], as one disjoint DAG on the rows i*n + v: its arcs
    (preds, starts, vertices, degree, bounds) grouped by head row, heads by
    layer and then by falling in-degree, so that head vertices[h] has the
    degree[h] predecessor rows preds[starts[h]:], the heads at distance l
    are bounds[l - 1]:bounds[l], and a layer is one ``graphs._fold_rows``.

    Each arc u -> w is listed under its head w, in CSR order (a row of the
    CSR is a head and its tails), so the flat true positions of the k x 2m
    arc mask come grouped by head row i*n + w and preds stays in that order:
    only the head rows are sorted.  The order of a head's predecessors is
    immaterial to the folds (AND, max and exact integer add).  The rows of
    dx are distances in a connected graph, with no -1, and the arc
    temporaries hold k x 2m entries."""
    n = g.n
    deg = np.diff(g.indptr)
    head, tail = np.repeat(np.arange(n), deg), g.indices
    # d - 1 at the heads within reach, and -2, which no distance equals, past it
    below = np.where(dx <= last[:, None], dx - 1, -2)
    dag = np.repeat(below, deg, axis=1) == dx.take(tail, axis=1)
    # flat positions, split by source at the row starts: no 2-D nonzero or
    # division, each several times slower on this mask
    arc = np.flatnonzero(dag)
    del dag  # free the mask before the arc arrays
    cuts = np.searchsorted(arc, np.arange(len(dx) + 1) * len(tail))
    src = np.repeat(np.arange(len(dx)), np.diff(cuts))
    arc -= src * len(tail)
    src *= n
    preds = src + tail[arc]
    src += head[arc]  # the head row of every arc, nondecreasing
    indeg = np.bincount(src, minlength=dx.size)
    rows = np.flatnonzero(indeg)
    indeg = indeg[rows]
    first = np.cumsum(indeg) - indeg
    # the rows by (layer, -indegree) as one key; a stable sort keeps them in
    # increasing order within a key, and on keys below 2^16 it is a radix sort
    layer = dx.ravel()[rows]
    top = int(indeg.max(initial=0))
    key = np.multiply(layer, top + 1, dtype=np.int64)
    key += top - indeg
    order = np.argsort(key.astype(np.min_scalar_type(int(key.max(initial=0)))), kind="stable")
    bounds = np.searchsorted(layer[order], np.arange(1, int(last.max()) + 2))
    return preds, first[order], rows[order], indeg[order], bounds


def _path_counts(g: Graph, dx: np.ndarray, last: np.ndarray, blocked: np.ndarray) -> np.ndarray:
    """Row i*n + v: the geodesics from source i (dx[i] its distance row,
    the source outside ``blocked``) to v within last[i], and those meeting
    no vertex of the mask ``blocked``, from one ``graphs._fold_rows`` with
    np.add per layer of ``_geodesic_dag``.  The counts stay int64 while
    every count a layer sums is below 2^62 / (its largest in-degree), so
    no sum wraps; before the first layer where one might, the array
    becomes Python ints (dtype object), which the same fold adds exactly."""
    preds, starts, vertices, degree, bounds = _geodesic_dag(g, dx, last)
    counts = np.zeros((dx.size, 2), dtype=np.int64)
    counts[dx.ravel() == 0] = 1  # each source, the one vertex at distance 0 in its row
    peak = 1
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        if counts.dtype != object and peak >= 2**62 // int(degree[lo]):
            counts = counts.astype(object)
        layer = _fold_rows(np.add, counts, preds, starts[lo:hi], degree[lo:hi])
        layer[blocked[vertices[lo:hi] % g.n], 1] = 0
        counts[vertices[lo:hi]] = layer
        peak = layer[:, 0].max()
    return counts


def traffic_load(g: Graph, demand: Sequence[tuple[int, int]] | None, S: Sequence[int]) -> Fraction:
    """mu(S): summed fraction of each demand pair's geodesics that meet S.

    demand is a sequence of unit-rate (s, t) id pairs, a repeated pair
    counted as often as it appears, or None for the uniform demand: all
    n(n-1) ordered pairs, never listed.  Routing spreads each pair's unit
    of traffic uniformly over all of its geodesics, so a pair contributes
    1 - (geodesics of the same length avoiding S) / (all geodesics); pairs
    with an endpoint in S contribute exactly 1.  A pair with equal
    endpoints or an id outside 0..n-1 raises ValueError (``check_pairs``).

    On a tree each pair has one geodesic, which meets S unless both
    endpoints lie in one component of T - S.  One O(n) pass down the
    ``tree_walk`` preorder labels and sizes those components; the uniform
    demand has mu = n(n-1) - sum |C|(|C|-1) over the components C, and an
    explicit demand is one count over its pairs (repeats counted).

    On other graphs the sources outside S go in blocks of
    k = max(1, _BLOCK_ELEMS // 8m), so the k x 2m arc temporaries stay
    bounded.  Per block one ``multi_source_distances`` call gives their
    rows, a k x n weight counts each source's targets outside S (the
    uniform demand counts t > s twice: (t, s) has the same geodesics), and
    ``_path_counts`` counts all and S-avoiding geodesics up to each
    source's farthest target.  Every pair counts as a whole unit, less
    each avoided share sigma_avoid/sigma_all, summed as an exact int
    numerator per distinct denominator sigma_all, so a Fraction is built
    once per denominator.  No float is involved, so the result is exact.
    """
    inside = frozenset(check_vertices(g.n, S, "S"))
    if not inside:
        raise ValueError("traffic_load needs a nonempty vertex set")
    n = g.n
    if demand is not None:
        demand = check_pairs(n, demand)
    if g.is_tree():
        parent, _, order = tree_walk(g)
        label = [n] * n  # n marks the vertices of S
        sizes: list[int] = []
        for v in order:
            if v not in inside:
                c = label[parent[v]] if v else n
                if c == n:  # the root, or a parent in S: a new component
                    c = len(sizes)
                    sizes.append(0)
                label[v] = c
                sizes[c] += 1
        if demand is None:
            return Fraction(n * (n - 1) - sum(c * (c - 1) for c in sizes))
        return Fraction(sum(1 for s, t in demand if label[s] == n or label[s] != label[t]))
    outside = np.bincount(list(inside), minlength=n) == 0
    if demand is None:
        sources = np.flatnonzero(outside)
    else:
        pairs = np.array(demand, dtype=np.intp).reshape(-1, 2)
        pairs = pairs[outside[pairs].all(axis=1)]
        sources, row = np.unique(pairs[:, 0], return_inverse=True)
        key = np.sort(row * n + pairs[:, 1])
    nb = max(1, _BLOCK_ELEMS // (4 * len(g.indices)))
    avoided: dict[int, int] = {}  # sigma_all -> summed sigma_avoid
    for b0 in range(0, len(sources), nb):
        xs = sources[b0 : b0 + nb]
        k = len(xs)
        if demand is None:
            weight = 2 * (outside & (np.arange(n) > xs[:, None]))
        else:
            lo, hi = np.searchsorted(key, [b0 * n, (b0 + k) * n])
            weight = np.bincount(key[lo:hi] - b0 * n, minlength=k * n).reshape(k, n)
        dx = multi_source_distances(g, xs)
        counts = _path_counts(g, dx, np.where(weight > 0, dx, -1).max(axis=1), ~outside)
        hit = np.flatnonzero((weight.ravel() > 0) & (counts[:, 1] > 0))
        # equal counts sort together by their int64 residue mod a prime, and
        # a pair is repeated as often as its weight counts it
        hit = hit[np.argsort((counts[hit, 0] % (2**61 - 1)).astype(np.int64))]
        hit = np.repeat(hit, weight.ravel()[hit])
        den = counts[hit, 0]
        first = np.flatnonzero(den != np.r_[0, den[:-1]])
        shares = np.add.reduceat(counts[hit, 1].astype(object), first)
        for d, share in zip(den[first].tolist(), shares.tolist()):
            avoided[d] = avoided.get(d, 0) + share
        del counts, den  # free this block's counts before the next block's arcs
    total = n * (n - 1) if demand is None else len(demand)
    return Fraction(total) - sum(Fraction(share, d) for d, share in avoided.items())


def _tree_profile_pass(g: Graph, profile: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Radius-0 interception counts and profile distance sums of every
    vertex of a tree, from one ``tree_walk`` (geodesics in trees are unique).

    sub[v] counts the profile vertices in the subtree of v.  Removing v
    splits the tree into the subtrees of its children w and the part above
    v, so v intercepts total - sum C(sub[w], 2) - C(|X| - sub[v], 2) pairs.
    The distance sum of the root is the profile's summed depth; moving from
    a parent to its child v brings sub[v] profile vertices one step nearer
    and the other |X| - sub[v] one step farther, so
    S(v) = S(parent v) + |X| - 2*sub[v], filled in preorder.
    """
    n = g.n
    parent, depth, order = tree_walk(g)
    sub = [0] * n
    for x in profile:
        sub[x] = 1
    for u in reversed(order[1:]):
        sub[parent[u]] += sub[u]
    nX = len(profile)
    sums = [0] * n
    sums[0] = sum(depth[x] for x in profile)
    for v in order[1:]:
        sums[v] = sums[parent[v]] + nX - 2 * sub[v]
    size = np.array(sub, dtype=np.int64)
    pairs = size * (size - 1) // 2
    up = nX - size
    missed = up * (up - 1) // 2
    # vertex 0 is the root, so vertices 1..n-1 are the children of their parents
    np.add.at(missed, np.array(parent[1:], dtype=np.intp), pairs[1:])
    return nX * (nX - 1) // 2 - missed, np.array(sums, dtype=np.int64)


_BYTE_LANES = np.uint64(0x0101010101010101)  # bit 0 of each byte of a word


def _column_counts(words: np.ndarray) -> np.ndarray:
    """Column sums of a bit matrix held as rows of uint64 words, bit b of
    byte i of a row being column 8i + b.  For each bit position b,
    (words >> b) & 0x0101..01 leaves that bit of every byte in its own byte
    lane; summing up to 255 such rows as uint64 adds every lane without a
    carry into the next, and the lanes are then added up as int64."""
    out = np.zeros((8 * words.shape[1], 8), dtype=np.int64)
    groups = np.arange(0, len(words), 255)
    lanes = np.empty_like(words)
    for b in range(8):
        np.right_shift(words, b, out=lanes)
        lanes &= _BYTE_LANES
        out[:, b] = np.add.reduceat(lanes, groups, axis=0).view(np.uint8).sum(axis=0)
    return out.ravel()


def _ball_bits(d: np.ndarray, radii: list[int], cols: np.ndarray) -> np.ndarray:
    """The ball table of a window of radii over the centers ``cols``: row v
    holds, for each radii[r], the bits d(v, c) <= radii[r] of the centers c
    = cols[i] at bit i of a run of B = ceil(|cols| / 8) bytes starting at
    byte r*B (bit i is bit i % 8 of byte i // 8), and is padded to whole
    uint64 words."""
    n, R, B = len(d), len(radii), -(-len(cols) // 8)
    table = np.zeros((n, -(-R * B // 8) * 8), dtype=np.uint8)
    rho = np.array(radii, dtype=d.dtype)[:, None]
    for rows in row_chunks(n, 8 * R * B):
        near = d[rows].take(cols, axis=1)
        bits = np.zeros((len(near), R, 8 * B), dtype=bool)
        np.less_equal(near[:, None, :], rho, out=bits[:, :, : len(cols)])
        table[rows, : R * B] = np.packbits(bits.reshape(len(near), -1), axis=1, bitorder="little")
    return table.view(np.uint64)


def _ball_count(g: Graph, d: np.ndarray, prof: np.ndarray, center: int, rho: int) -> int:
    """Profile pairs intercepted by B(center, rho): all of them but those
    whose two ends lie outside the ball at the same distance once the ball
    is deleted, from ``multi_source_distances`` calls of up to
    _BLOCK_ELEMS // 4n profile sources, so each call's distance rows and
    their compared copies stay within a few _BLOCK_ELEMS bytes."""
    inside = d[center] <= rho
    out = prof[~inside[prof]]
    deleted = np.flatnonzero(inside).tolist()
    step = max(1, _BLOCK_ELEMS // (4 * g.n))
    kept = 0  # ordered pairs of out, each vertex with itself too, still at their distance
    for lo in range(0, len(out), step):
        xs = out[lo : lo + step]
        dist = multi_source_distances(g, xs.tolist(), deleted)
        kept += np.count_nonzero(dist.take(out, axis=1) == d[xs].take(out, axis=1))
    nX = len(prof)
    return nX * (nX - 1) // 2 - (kept - len(out)) // 2


def _interception_bits(
    g: Graph, xs: np.ndarray, table: np.ndarray, dag: tuple[np.ndarray, ...], bits: np.ndarray
) -> None:
    """Fill bits[i*n + v] with the centers whose window balls intercept
    (xs[i], v), for every v of the block's geodesic DAG ``dag``
    (``_geodesic_dag``): the source row is its own ball row, and each later
    row is the AND of its predecessor rows, one ``graphs._fold_rows`` per
    layer in chunks of heads, ORed with its ball row."""
    n = g.n
    preds, starts, vertices, degree, bounds = dag
    bits[np.arange(len(xs)) * n + xs] = table.take(xs, axis=0)
    rows = max(1, _BLOCK_ELEMS // (8 * table.shape[1]))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        for g0 in range(lo, hi, rows):
            g1 = min(g0 + rows, hi)
            layer = _fold_rows(np.bitwise_and, bits, preds, starts[g0:g1], degree[g0:g1])
            vs = vertices[g0:g1]
            layer |= table.take(vs % n, axis=0)
            bits[vs] = layer


def _block_dag(g: Graph, d: np.ndarray, prof: np.ndarray, i0: int, k: int) -> tuple:
    """``_geodesic_dag`` of profile sources i0..i0+k-1, each stopping at its
    farthest later profile vertex, and the mask later[i, j] = (j > i0 + i)
    of each source's targets."""
    dx = d[prof[i0 : i0 + k]]
    later = np.arange(len(prof)) > np.arange(i0, i0 + k)[:, None]
    return _geodesic_dag(g, dx, np.where(later, dx.take(prof, axis=1), -1).max(axis=1)), later


def _window_pass(
    g: Graph,
    d: np.ndarray,
    prof: np.ndarray,
    threshold: int,
    radii: list[int],
    nb: int,
    cached: tuple | None,
) -> tuple[int, tuple[int, int, int] | None]:
    """One pass over the profile sources for a window of radii, with the
    pruning of ``min_core``.  Returns the largest radius of the window shown
    to fail (-1 if none) and (radius, center, count) at the smallest radius
    shown to pass (None if none).  The sources go in blocks of nb, and
    ``cached`` is the one block of every source (``_block_dag``) or None.
    cnt[r, i] counts the pairs that B(cols[i], radii[r]) intercepts, and
    alive[r, i] says whether that center can still pass and win there."""
    n, nX = g.n, len(prof)
    remaining = nX * (nX - 1) // 2
    cols = np.arange(n)
    cnt = np.zeros((len(radii), n), dtype=np.int64)
    alive = np.ones((len(radii), n), dtype=bool)
    table = _ball_bits(d, radii, cols)
    failed, buf, i0 = -1, None, 0
    while radii and i0 < nX - 1:
        words, run = table.shape[1], 8 * -(-len(cols) // 8)
        k = min(nX - 1 - i0, nb)
        dag, later = cached or _block_dag(g, d, prof, i0, k)
        if buf is None or buf.shape[1] != words or len(buf) < k * n:
            buf = np.empty((k * n, words), dtype=np.uint64)
        _interception_bits(g, prof[i0 : i0 + k], table, dag, buf)
        targets = (np.arange(k)[:, None] * n + prof)[later]
        step = max(1, _BLOCK_ELEMS // (8 * words))
        for j in range(0, len(targets), step):
            got = _column_counts(buf.take(targets[j : j + step], axis=0))
            cnt += got[: len(radii) * run].reshape(len(radii), run)[:, : len(cols)]
        remaining -= len(targets)
        i0 += k
        # a center drops out of a radius once it can reach neither the
        # threshold nor the leader there
        lead = np.where(alive, cnt, -1).max(axis=1)
        alive &= cnt + remaining >= np.maximum(lead, threshold)[:, None]
        # a radius left without centers fails, and so does every smaller one;
        # a radius whose leader has reached the threshold passes, and no
        # larger one is needed
        empty = np.flatnonzero(~alive.any(axis=1))
        lo = int(empty[-1]) + 1 if len(empty) else 0
        if lo:
            failed = radii[lo - 1]
        passing = np.flatnonzero(lead >= threshold)
        hi = int(passing[0]) + 1 if len(passing) else len(radii)
        live = alive[lo:hi].any(axis=0)
        if lo or hi < len(radii) or 4 * -(-int(live.sum()) // 8) <= 3 * -(-len(cols) // 8):
            # fewer radii, or live centers that fit three quarters of the
            # bytes the table gives each radius: rebuild it narrower
            radii, cnt, alive = radii[lo:hi], cnt[lo:hi, live], alive[lo:hi, live]
            cols = cols[live]
            if radii and i0 < nX - 1:
                table = _ball_bits(d, radii, cols)
    if not radii:
        return failed, None
    # after the last block only the leaders of each radius are alive, and
    # the first of them has the smallest id
    best = int(np.argmax(alive[0]))
    return failed, (radii[0], int(cols[best]), int(cnt[0, best]))


def _threshold_search(
    g: Graph, d: np.ndarray, profile: list[int], threshold: int, median: int
) -> tuple[int, int, int]:
    """(radius, center, count) of ``min_core``: the least radius at which a
    ball intercepts ``threshold`` profile pairs, its best center and count."""
    n = g.n
    prof = np.asarray(profile, dtype=np.intp)
    nX = len(prof)
    # the most profile vertices whose pairs among themselves may all be missed
    outside = (1 + isqrt(1 + 8 * (nX * (nX - 1) // 2 - threshold))) // 2
    hi = int(np.partition(d[median, prof], nX - outside - 1)[nX - outside - 1])
    nb = max(1, _BLOCK_ELEMS // (n * n))
    if nb >= nX - 1:
        # one block: a pass over its cached DAG costs less than the
        # ball-deleted counts of a bisection, so a wide window starts at hi
        cached, width = _block_dag(g, d, prof, 0, nX - 1), 8
    else:
        # every pass rebuilds the DAGs: lower hi first, then pass 2 radii
        cached, width = None, 2
        lo = -1
        while hi - lo > 1:  # the median's own radius, by bisection
            mid = (lo + hi) // 2
            if _ball_count(g, d, prof, median, mid) >= threshold:
                hi = mid
            else:
                lo = mid
    lo, found = -1, None
    while found is None or found[0] - lo > 1:
        top = hi if found is None else found[0] - 1
        radii = list(range(max(lo + 1, top - width + 1), top + 1))
        failed, passed = _window_pass(g, d, prof, threshold, radii, nb, cached)
        lo, found = max(lo, failed), passed or found
        width = min(2 * width, 16)
    return found


def min_core(g: Graph, X: Sequence[int], alpha: Fraction = HALF) -> tuple[int, int, int, int]:
    """Minimum-radius ball intercepting at least alpha * |X|^2 / 2 pairs,
    and the profile median (``median_vertex``), as (center, radius, count,
    median): the ball B(center, radius) intercepts count of the C(|X|, 2)
    pairs of the profile's distinct vertices.

    B(c, rho) intercepts a pair when it meets every geodesic of the pair (a
    pair with an endpoint in the ball counts as intercepted).  count_c(rho),
    the profile pairs that B(c, rho) intercepts, never decreases as rho
    grows, since B(c, rho) is inside B(c, rho + 1).  So the answer radius is
    r* = min{rho : max_c count_c(rho) >= threshold}, and the counts at
    r* - 1 (all below the threshold) and at r* (the winner) decide it; no
    other radius needs a count.  Ties at r* prefer the largest count, then
    the smallest center id.  alpha is an int or a Fraction, so the
    threshold ceil(alpha * |X|^2 / 2) is exact; a float is refused.

    Counting at one radius rho.  Every (x,v)-geodesic with v != x is an
    (x,u)-geodesic followed by the arc u -> v for a predecessor u of v in
    the geodesic DAG of x, and each such concatenation is a geodesic.  So
    B(c, rho) intercepts (x, v) iff d(v, c) <= rho, or it intercepts (x, u)
    for every predecessor u; and it intercepts (x, x) iff d(x, c) <= rho.
    As a bitset over the centers, I(x, v) = ball(v) | AND of I(x, u) over
    the predecessors, where ball(v) holds the bits d(v, c) <= rho
    (``_ball_bits``).  One pass over the BFS layers of x fills every row,
    one ``graphs._fold_rows`` with np.bitwise_and per layer
    (``_interception_bits``), and count_c(rho) is the sum of bit c over the
    rows of the targets y > x in the profile order (``_column_counts``).  A
    row holds ceil(n/8) bytes per radius, against 2n bytes for an int16
    escape radius, and the radii of a window sit side by side in one row,
    so one pass counts them all.  Blocks of up to _BLOCK_ELEMS // n^2
    sources share their passes (``_window_pass``).

    The search (``_threshold_search``).  The least ball B(m, hi), m the
    median, that misses at most j profile vertices, j the largest with
    C(j, 2) <= |X|(|X| - 1)/2 - threshold, passes: every pair with an end
    inside is intercepted.
    When one block holds every source, its geodesic DAG is built once and
    the first window is the 8 radii up to hi: a pass over the cached DAG
    costs less than the bisection below.  Otherwise every pass rebuilds the
    DAGs, so hi is first lowered to the median's own radius by bisection,
    each step one count of B(m, rho) with the ball deleted
    (``_ball_count``), and the first window is {hi - 1, hi}.  Within a pass,
    after each block, with R pairs not yet counted, a center drops out of
    radius rho once count_c + R is below the threshold or below the leader's
    count at rho: it can then neither pass nor win at rho, and every center
    that could still tie keeps an exact count.  A radius left with no center
    fails, and by monotonicity so does every smaller one; a radius whose
    leader has reached the threshold passes, and every larger one is
    dropped, since r* is no larger.  The rows are rebuilt narrower when a
    radius goes or the live centers fit in three quarters of the bytes each
    radius has.  If the window's smallest radius passes and the radius below
    it is not known to fail, the next window, twice as wide up to 16 radii,
    ends just below it.  The search stops at a passing radius r whose r - 1
    fails (or r = 0), and after the last block the centers left at r are
    exactly its leaders.

    The paper proves that when geodesic triangles are delta-thin, some ball
    B(m, 4 delta) intercepts at least half of the total flow between the
    pairs of X, the flow of a pair spread over its geodesics.  This count
    is of whole pairs, and the delta4 of ``thin_delta_bound`` (4 * delta4)
    is the four-point constant, not that delta.  Acceptance criterion 1
    checks on its corpus that, for the full profile and alpha = 1/2, the
    core reaches ceil(|X|^2/4) pairs within radius 4 * delta4.

    On trees, radius 0 is checked first from subtree profile sizes in
    O(n + |X|), and the same pass gives every vertex's profile distance sum
    (``_tree_profile_pass``).  It succeeds whenever alpha <= 1/2 (a profile
    centroid of a tree intercepts at least |X|^2/4 pairs) and saves the
    search, whose layer count grows with the depth of the tree, and the distance
    matrix.  When radius 0 misses the threshold, and on every other graph,
    the matrix is built (with no cap: bounding n is the caller's choice),
    the search runs and the median is read off the same matrix.
    """
    check_rational(alpha, "alpha")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    profile = check_vertices(g.n, X, "profile")
    nX = len(profile)
    if nX < 2:
        raise ValueError(f"profile needs at least two vertices, got {nX}")
    total = nX * (nX - 1) // 2
    need = Fraction(alpha) * nX * nX / 2
    if need > total:
        raise ValueError(
            f"threshold alpha*|X|^2/2 = {need} exceeds the {total} available pairs"
        )
    threshold = -(-need.numerator // need.denominator)  # ceil, exact
    if g.is_tree():
        counts, sums = _tree_profile_pass(g, profile)
        best = int(counts.argmax())
        if counts[best] >= threshold:
            return best, 0, int(counts[best]), int(sums.argmin())
    dm = distance_matrix(g, cap=g.n)
    median = median_vertex(dm, profile)
    rho, best, count = _threshold_search(g, dm.d, profile, threshold, median)
    return best, rho, count, median


def median_vertex(dm: DistanceMatrix, X: Sequence[int]) -> int:
    """Vertex minimizing the distance sum to the profile, smallest id on ties."""
    profile = check_vertices(dm.n, X, "profile")
    if not profile:
        raise ValueError("median of an empty profile")
    # d is symmetric, so the profile's rows give the sums; they are gathered
    # in row chunks, not as one |X| x n copy, and summed in the platform integer
    sums = sum(dm.d[profile[c]].sum(axis=0) for c in row_chunks(len(profile), dm.n))
    return int(sums.argmin())
