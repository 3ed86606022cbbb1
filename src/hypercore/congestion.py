"""Minimum-radius traffic cores, exact geodesic counting, traffic load of a
vertex set under a demand profile, and median/centroid vertices.

Geodesic counts use arbitrary-precision integers and traffic fractions use
exact rationals, so none of the congestion certificates depend on float
tolerances.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction

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


def _by_source(
    n: int, demand: Sequence[tuple[int, int]] | None
) -> Iterator[tuple[int, list[int]]]:
    """(source, its targets) per distinct source, in order of first
    appearance; a target repeats as often as its pair does.  The uniform
    demand (None) yields each source with every other vertex, one source at
    a time, so its n(n-1) pairs are never listed."""
    if demand is None:
        for s in range(n):
            yield s, [*range(s), *range(s + 1, n)]
        return
    groups: dict[int, list[int]] = {}
    for s, t in demand:
        groups.setdefault(s, []).append(t)
    yield from groups.items()


def _geodesic_counts(
    g: Graph, source: int, dist: list[int], last: int, blocked: frozenset[int] = frozenset()
) -> tuple[list[int], list[int]]:
    """Exact geodesic counts from source to every vertex within distance last.

    dist holds the distances from source (-1 where unreachable).  One
    breadth-first pass over the layered geodesic DAG counts for each vertex
    all of its geodesics from source and those that meet no vertex of
    blocked; a vertex is final once every vertex of the layer before it has
    passed its counts on.
    """
    sigma = [0] * g.n
    avoid = [0] * g.n
    sigma[source] = 1
    avoid[source] = int(source not in blocked)
    adj = g.adjacency
    order = [source]
    for v in order:
        dw = dist[v] + 1
        if dw > last:
            break
        sv, av = sigma[v], avoid[v]
        for w in adj[v]:
            if dist[w] == dw:
                if not sigma[w]:
                    order.append(w)
                sigma[w] += sv
                if av and w not in blocked:
                    avoid[w] += av
    return sigma, avoid


def geodesic_count(g: Graph, s: int, t: int) -> int:
    """Number of distinct (s,t)-geodesics, exact."""
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise ValueError(f"pair ({s},{t}) out of range for n={g.n}")
    dist = multi_source_distances(g, [s])[0].tolist()
    return _geodesic_counts(g, s, dist, dist[t])[0][t]


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

    On other graphs, one ``multi_source_distances`` call gives the
    distance rows of the demand sources outside S that have a target
    outside S.  Per such source, one pass over its geodesic DAG (up to the
    farthest target) counts both the geodesics to every target and those
    avoiding S; a target that no geodesic of that length reaches without
    meeting S has avoiding count 0.  Every pair counts as a whole unit,
    less each avoided share sigma_avoid/sigma_all, summed as an int
    numerator keyed by its denominator sigma_all, so a Fraction is built
    only once per distinct denominator, at the end.  Counts are big ints
    throughout and no float is involved, so the result is exact.
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
    sources = [
        s
        for s, targets in _by_source(n, demand)
        if s not in inside and not inside.issuperset(targets)
    ]
    row_of = {s: i for i, s in enumerate(sources)}
    rows = multi_source_distances(g, sources)
    avoided: dict[int, int] = {}  # sigma_all -> summed sigma_avoid
    for s, targets in _by_source(n, demand):
        if s not in row_of:
            continue
        outside_targets = [t for t in targets if t not in inside]
        dist = rows[row_of[s]].tolist()
        last = max(dist[t] for t in outside_targets)
        sigma, sigma_avoid = _geodesic_counts(g, s, dist, last, inside)
        for t in outside_targets:
            if sigma_avoid[t]:
                den = sigma[t]
                avoided[den] = avoided.get(den, 0) + sigma_avoid[t]
    total = n * (n - 1) if demand is None else len(demand)
    return Fraction(total) - sum(
        (Fraction(num, den) for den, num in avoided.items()), Fraction(0)
    )


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
    sources form one disjoint DAG on the rows i*n + v of esc, where
    esc[i*n + v, c] holds esc_c(x_i, v) for the block's i-th source x_i.
    Source x_i's DAG stops at its farthest later profile vertex, and the
    BFS layers run to the deepest of these, each once for the whole block.
    Within a layer the heads are ordered by falling in-degree, so the
    elementwise max over their predecessor rows is one ``graphs._fold_rows``
    with np.maximum.  Heads go in chunks of _BLOCK_ELEMS // n rows; the
    target rows go into the histogram at most n at a time, since bincount
    widens them to intp.  The arrays kept across blocks are esc, nb*n x n
    in the matrix's distance type, which never exceeds max(n^2, _BLOCK_ELEMS)
    entries, and the histogram, n x (diameter + 1) in int64.
    """
    n = g.n
    d = dm.d
    diameter = int(d.max())
    # every arc u -> w of the symmetric adjacency
    tail, head = np.repeat(np.arange(n), np.diff(g.indptr)), g.indices
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
        # DAG arcs u -> w with dx[w] = dx[u] + 1 <= last, per source; the
        # block's arcs grouped by head row, heads by layer and, within a
        # layer, by falling in-degree
        dh = dx[:, head]
        dag = dx[:, tail] + 1 == dh
        dag &= dh <= last[:, None]
        src, arc = np.nonzero(dag)
        layer = dh[src, arc]
        src *= n
        heads = src + head[arc]
        preds = src + tail[arc]
        del dh, dag, src, arc  # free the arc temporaries before the next ones
        indeg = np.bincount(heads, minlength=k * n)
        top = int(indeg.max())
        # sort key (layer, -indegree, head row) as one int64, built in place
        key = np.multiply(layer, top + 1, dtype=np.int64)
        key -= indeg[heads]
        key *= k * n
        key += heads
        order = np.argsort(key)
        del key
        preds, heads, layer = preds[order], heads[order], layer[order]
        del order
        starts = np.flatnonzero(np.r_[True, heads[1:] != heads[:-1]])
        vertices = heads[starts]
        degree = indeg[vertices]
        depth = int(last.max())
        bounds = np.searchsorted(layer[starts], np.arange(1, depth + 2))
        del heads, layer, indeg
        esc[offset[:, 0] + xs] = dx
        for step in range(depth):
            for g0 in range(int(bounds[step]), int(bounds[step + 1]), rows):
                g1 = min(g0 + rows, int(bounds[step + 1]))
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
    the core existence bound guarantees within radius 4*delta4.

    On trees, radius 0 is checked first from subtree profile sizes in
    O(n + |X|), and the same pass gives every vertex's profile distance sum
    (``_tree_profile_pass``).  It succeeds whenever alpha <= 1/2 (a profile
    centroid of a tree intercepts at least |X|^2/4 pairs) and saves the DP,
    whose layer count grows with the depth of the tree, and the distance
    matrix.  When radius 0 misses the threshold, and on every other graph,
    the matrix is built (with no cap: bounding n is the caller's choice),
    the DP runs and the median is read off the same matrix.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    profile = check_vertices(g.n, X, "profile")
    nX = len(profile)
    if nX < 2:
        raise ValueError(f"profile needs at least two vertices, got {nX}")
    total = nX * (nX - 1) // 2
    need = alpha * nX * nX / 2
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
