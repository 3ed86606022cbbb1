"""Minimum-radius traffic cores, exact geodesic counting, traffic load of a
vertex set under a demand profile, and median/centroid vertices.

Geodesic counts are int64, promoted to Python ints where they could
overflow, and traffic fractions are exact rationals, so none of the
congestion certificates depend on float tolerances.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .graphs import (
    _BLOCK_ELEMS,
    DistanceMatrix,
    Graph,
    _fold_rows,
    check_pairs,
    check_vertices,
    distance_matrix,
    multi_source_distances,
    row_chunks,
    tree_walk,
)

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class CoreResult:
    """Best interception ball found for a profile, and the profile median."""

    center: int
    radius: int
    intercepted_pairs: int
    total_pairs: int
    median: int


def _geodesic_dag(g: Graph, dx: np.ndarray, last: np.ndarray) -> tuple[np.ndarray, ...]:
    """The geodesic DAGs of k sources with distance rows dx, each stopping
    at distance last[i], as one disjoint DAG on the rows i*n + v: its arcs
    (preds, starts, vertices, degree, bounds) grouped by head row, heads by
    layer and then by falling in-degree, so that head vertices[h] has the
    degree[h] predecessor rows preds[starts[h]:], the heads at distance l
    are bounds[l - 1]:bounds[l], and a layer is one ``graphs._fold_rows``.
    The arc temporaries hold k x 2m entries."""
    n = g.n
    # every arc u -> w of the symmetric adjacency
    tail, head = np.repeat(np.arange(n), np.diff(g.indptr)), g.indices
    dh = dx[:, head]
    dag = dx[:, tail] + 1 == dh
    dag &= dh <= last[:, None]
    src, arc = np.nonzero(dag)
    layer = dh[src, arc]
    src *= n
    heads = src + head[arc]
    preds = src + tail[arc]
    del dh, dag, src, arc  # free the arc temporaries before the next ones
    indeg = np.bincount(heads, minlength=dx.size)
    # sort key (layer, -indegree, head row) as one int64, built in place
    key = np.multiply(layer, int(indeg.max()) + 1, dtype=np.int64)
    key -= indeg[heads]
    key *= dx.size
    key += heads
    order = np.argsort(key)
    del key
    preds, heads, layer = preds[order], heads[order], layer[order]
    del order
    starts = np.flatnonzero(np.diff(heads, prepend=-1))
    vertices = heads[starts]
    bounds = np.searchsorted(layer[starts], np.arange(1, int(last.max()) + 2))
    return preds, starts, vertices, indeg[vertices], bounds


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


def geodesic_count(g: Graph, s: int, t: int) -> int:
    """Number of distinct (s,t)-geodesics, exact."""
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise ValueError(f"pair ({s},{t}) out of range for n={g.n}")
    dx = multi_source_distances(g, [s])
    return int(_path_counts(g, dx, dx[:, t], np.zeros(g.n, dtype=bool))[t, 0])


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


def _escape_histogram(g: Graph, dm: DistanceMatrix, profile: list[int]) -> np.ndarray:
    """H[c, r] = number of profile pairs whose escape radius from c is r.

    The profile's sources (every vertex but the last) go in blocks of
    nb = max(1, _BLOCK_ELEMS // n^2).  The geodesic DAGs of one block's
    sources (``_geodesic_dag``) form one disjoint DAG on the rows i*n + v
    of esc, where esc[i*n + v, c] holds esc_c(x_i, v) for the block's i-th
    source x_i.  Source x_i's DAG stops at its farthest later profile
    vertex, and the BFS layers run to the deepest of these, each once for
    the whole block: the elementwise max over a layer's predecessor rows
    is one ``graphs._fold_rows`` with np.maximum.  Heads go in chunks of
    _BLOCK_ELEMS // n rows; the target rows go into the histogram at most
    n at a time, since bincount widens them to intp.  The arrays kept
    across blocks are esc, nb*n x n in the matrix's distance type, which
    never exceeds max(n^2, _BLOCK_ELEMS) entries, and the histogram,
    n x (diameter + 1) in int64.
    """
    n = g.n
    d = dm.d
    diameter = int(d.max())
    width = diameter + 1
    cols = np.arange(n, dtype=np.intp) * width
    hist = np.zeros(n * width, dtype=np.int64)
    rows = max(1, _BLOCK_ELEMS // n)
    profile_arr = np.asarray(profile, dtype=np.intp)
    nsources = len(profile) - 1
    nb = min(max(1, rows // n), nsources)
    esc = np.empty((nb * n, n), dtype=d.dtype)
    chunk = min(n, rows)
    for i0 in range(0, nsources, nb):
        xs = profile_arr[i0 : i0 + nb]
        k = len(xs)
        offset = np.arange(k)[:, None] * n
        dx = d[xs]
        # later[i, j]: profile[j] is a target of source i0 + i
        later = np.arange(len(profile)) > np.arange(i0, i0 + k)[:, None]
        last = np.where(later, dx[:, profile_arr], -1).max(axis=1)
        preds, starts, vertices, degree, bounds = _geodesic_dag(g, dx, last)
        esc[offset[:, 0] + xs] = dx
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            for g0 in range(lo, hi, rows):
                g1 = min(g0 + rows, hi)
                best = _fold_rows(np.maximum, esc, preds, starts[g0:g1], degree[g0:g1])
                vs = vertices[g0:g1]
                np.minimum(best, d[vs % n], out=best)
                esc[vs] = best
        targets = (offset + profile_arr)[later]
        for j in range(0, len(targets), chunk):
            block = esc[targets[j : j + chunk]].astype(np.intp)
            block += cols
            hist += np.bincount(block.ravel(), minlength=n * width)
    return hist.reshape(n, width)


def min_core(g: Graph, X: Sequence[int], alpha: Fraction = HALF) -> CoreResult:
    """Minimum-radius ball intercepting at least alpha * |X|^2 / 2 pairs,
    and the profile median (``median_vertex``).

    The escape radius esc_c(x,y) is the maximum, over all (x,y)-geodesics P,
    of min over w in P of d(c,w): the ball B(c,rho) meets every geodesic of
    the pair iff esc_c(x,y) <= rho (a pair with an endpoint in the ball
    counts as intercepted).  For each profile source x one pass over the
    BFS layers of x computes esc_c(x,v) for every vertex v and every center
    c at once: E[x] = d[x], and each later vertex v takes
    min(d[v], elementwise max of E[u] over its DAG predecessors u), so the
    whole computation costs O(|X|*m*n).  Blocks of up to
    _BLOCK_ELEMS // n^2 sources share their passes, so the numpy calls per
    layer are paid once per block, not once per source (see
    _escape_histogram).
    Adding the rows of the targets y > x to a per-center histogram of
    escape radii and taking its cumulative sum gives every center's count
    at every radius.  The first radius at which some center reaches the
    threshold wins; ties prefer the largest count, then the smallest center
    id.  For alpha = 1/2 the threshold is the ceil(|X|^2/4) pair count that
    the core existence bound guarantees within radius 4*delta4.  alpha is an
    int or a Fraction, so the threshold is exact; a float is refused.

    On trees, radius 0 is checked first from subtree profile sizes in
    O(n + |X|), and the same pass gives every vertex's profile distance sum
    (``_tree_profile_pass``).  It succeeds whenever alpha <= 1/2 (a profile
    centroid of a tree intercepts at least |X|^2/4 pairs) and saves the DP,
    whose layer count grows with the depth of the tree, and the distance
    matrix.  When radius 0 misses the threshold, and on every other graph,
    the matrix is built (with no cap: bounding n is the caller's choice),
    the DP runs and the median is read off the same matrix.
    """
    if not isinstance(alpha, Rational):
        raise TypeError(f"alpha must be an int or a Fraction, got {type(alpha).__name__}")
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
            return CoreResult(best, 0, int(counts[best]), total, int(sums.argmin()))
    dm = distance_matrix(g, cap=g.n)
    curve = np.cumsum(_escape_histogram(g, dm, profile), axis=1)
    peak = curve.max(axis=0)
    rho = int(np.argmax(peak >= threshold))
    best = int(np.argmax(curve[:, rho]))
    return CoreResult(best, rho, int(curve[best, rho]), total, median_vertex(dm, profile))


def median_vertex(dm: DistanceMatrix, X: Sequence[int]) -> int:
    """Vertex minimizing the distance sum to the profile, smallest id on ties."""
    profile = check_vertices(dm.n, X, "profile")
    if not profile:
        raise ValueError("median of an empty profile")
    # d is symmetric, so the profile's rows give the sums; they are gathered
    # in row chunks, not as one |X| x n copy, and summed in the platform integer
    sums = sum(dm.d[profile[c]].sum(axis=0) for c in row_chunks(len(profile), dm.n))
    return int(sums.argmin())


def centroid_vertex(dm: DistanceMatrix, X: Sequence[int]) -> int:
    """Vertex minimizing the squared-distance sum, smallest id on ties."""
    profile = check_vertices(dm.n, X, "profile")
    if not profile:
        raise ValueError("centroid of an empty profile")
    rows = (dm.d[profile[c]] for c in row_chunks(len(profile), dm.n))
    # a square leaves the distance type, so it is taken in int64
    sums = sum(np.square(r, dtype=np.int64).sum(axis=0) for r in rows)
    return int(sums.argmin())
