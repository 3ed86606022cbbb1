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

from .graphs import DistanceMatrix, Graph, bfs_distances, check_vertices

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class CoreResult:
    """Best interception ball found for a profile."""

    center: int
    radius: int
    intercepted_pairs: int
    total_pairs: int


class TrafficDemand:
    """Unit-rate source/target pairs; routing spreads each pair's unit of
    traffic uniformly over all of its geodesics.

    ``TrafficDemand(pairs)`` keeps an explicit pair list.  The uniform demand
    on n vertices stands for all n(n-1) ordered pairs without listing them;
    ``pairs`` builds that list only when asked for.
    """

    __slots__ = ("_pairs", "_uniform_n")

    def __init__(self, pairs: Sequence[tuple[int, int]]):
        for s, t in pairs:
            if s == t:
                raise ValueError(f"demand pair ({s},{t}) has equal endpoints")
        self._pairs = tuple(pairs)
        self._uniform_n = None

    @classmethod
    def uniform(cls, n: int) -> "TrafficDemand":
        """All ordered pairs (s, t) with s != t."""
        demand = cls(())
        demand._uniform_n = n
        return demand

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        n = self._uniform_n
        if n is None:
            return self._pairs
        return tuple((s, t) for s in range(n) for t in range(n) if s != t)

    def __len__(self) -> int:
        n = self._uniform_n
        return len(self._pairs) if n is None else n * (n - 1)

    def by_source(self) -> Iterator[tuple[int, list[int]]]:
        """(source, its targets) per distinct source, in order of first
        appearance; a target repeats as often as its pair does."""
        n = self._uniform_n
        if n is None:
            groups: dict[int, list[int]] = {}
            for s, t in self._pairs:
                groups.setdefault(s, []).append(t)
            yield from groups.items()
        elif n > 1:
            for s in range(n):
                yield s, [*range(s), *range(s + 1, n)]


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
    dist = bfs_distances(g, s)
    return _geodesic_counts(g, s, dist, dist[t])[0][t]


def traffic_load(
    g: Graph, dm: DistanceMatrix, demand: TrafficDemand, S: Sequence[int]
) -> Fraction:
    """mu(S): summed fraction of each demand pair's geodesics that meet S.

    A pair contributes 1 - (geodesics of the same length avoiding S) /
    (all geodesics); pairs with an endpoint in S contribute exactly 1.

    Per demand source, one pass over its geodesic DAG (read from dm, up to
    the farthest target) counts both the geodesics to every target and
    those avoiding S; a target that no geodesic of that length reaches
    without meeting S has avoiding count 0.  The pairs' whole units are
    summed as one int, and each avoided share sigma_avoid/sigma_all as an
    int numerator keyed by its denominator sigma_all, so a Fraction is
    built only once per distinct denominator, at the end.  Counts are big
    ints throughout and no float is involved, so the result is exact.
    """
    inside = frozenset(check_vertices(g.n, S, "S"))
    if not inside:
        raise ValueError("traffic_load needs a nonempty vertex set")
    whole = 0
    avoided: dict[int, int] = {}  # sigma_all -> summed sigma_avoid
    for s, targets in demand.by_source():
        whole += len(targets)
        if s in inside:
            continue
        outside_targets = [t for t in targets if t not in inside]
        if not outside_targets:
            continue
        dist = dm.d[s].tolist()
        last = max(dist[t] for t in outside_targets)
        sigma, sigma_avoid = _geodesic_counts(g, s, dist, last, inside)
        for t in outside_targets:
            if sigma_avoid[t]:
                den = sigma[t]
                avoided[den] = avoided.get(den, 0) + sigma_avoid[t]
    return Fraction(whole) - sum(
        (Fraction(num, den) for den, num in avoided.items()), Fraction(0)
    )


def _tree_intercepted_counts(g: Graph, X: Sequence[int]) -> list[int]:
    """Radius-0 interception counts for every center of a tree, via subtree
    profile sizes (geodesics in trees are unique)."""
    n = g.n
    in_x = [0] * n
    for x in X:
        in_x[x] = 1
    parent = [-1] * n
    order = [0]
    seen = [False] * n
    seen[0] = True
    for u in order:
        for w in g.adjacency[u]:
            if not seen[w]:
                seen[w] = True
                parent[w] = u
                order.append(w)
    sub = in_x[:]
    for u in reversed(order):
        if parent[u] >= 0:
            sub[parent[u]] += sub[u]
    nX = len(X)
    total = nX * (nX - 1) // 2
    counts = [0] * n
    for v in range(n):
        comp_sizes = [sub[w] for w in g.adjacency[v] if parent[w] == v]
        comp_sizes.append(nX - sub[v])
        missed = sum(c * (c - 1) // 2 for c in comp_sizes)
        counts[v] = total - missed
    return counts


# Elements per block of gathered rows (predecessor or target rows of the
# escape-radius matrix): bounds the per-source temporaries whatever the
# layer widths, instead of one n x n block at n = 2000.
_BLOCK_ELEMS = 1 << 20


def _escape_histogram(g: Graph, dm: DistanceMatrix, profile: list[int]) -> np.ndarray:
    """H[c, r] = number of profile pairs whose escape radius from c is r.

    esc[v, c] holds esc_c(x, v) for the current source x; the arrays kept
    across sources are n x n in int16 and n x (diameter + 1) in int64.
    """
    n = g.n
    d = dm.d
    diameter = int(d.max())
    dtype = np.int16 if diameter < np.iinfo(np.int16).max else np.int32
    dc = d.astype(dtype)
    # every arc u -> w of the symmetric adjacency
    tail = np.repeat(np.arange(n), [len(a) for a in g.adjacency])
    head = np.fromiter((w for a in g.adjacency for w in a), dtype=np.intp, count=len(tail))
    width = diameter + 1
    cols = np.arange(n, dtype=np.intp) * width
    hist = np.zeros(n * width, dtype=np.int64)
    esc = np.empty((n, n), dtype=dtype)
    rows = max(1, _BLOCK_ELEMS // n)
    profile_arr = np.asarray(profile, dtype=np.intp)
    for i, x in enumerate(profile[:-1]):
        dx = d[x]
        targets = profile_arr[i + 1 :]
        last = int(dx[targets].max())
        # DAG arcs u -> w with dx[w] = dx[u] + 1, grouped by head, heads by layer
        dag = (dx[tail] + 1 == dx[head]) & (dx[head] <= last)
        preds, heads = tail[dag], head[dag]
        order = np.argsort(dx[heads] * n + heads, kind="stable")
        preds, heads = preds[order], heads[order]
        starts = np.flatnonzero(np.r_[True, heads[1:] != heads[:-1]])
        vertices = heads[starts]
        bounds = np.searchsorted(dx[vertices], np.arange(1, last + 2))
        starts = np.r_[starts, len(heads)]
        esc[x] = dc[x]
        for k in range(last):
            g0, g1 = int(bounds[k]), int(bounds[k + 1])
            while g0 < g1:
                # heads g0..g1-1 whose predecessor rows fit in one block
                lo = starts[g0]
                cut = int(np.searchsorted(starts, lo + rows, side="right")) - 1
                cut = min(max(cut, g0 + 1), g1)
                best = np.maximum.reduceat(esc[preds[lo : starts[cut]]], starts[g0:cut] - lo)
                vs = vertices[g0:cut]
                np.minimum(best, dc[vs], out=best)
                esc[vs] = best
                g0 = cut
        for j in range(0, len(targets), rows):
            block = esc[targets[j : j + rows]].astype(np.intp)
            block += cols
            hist += np.bincount(block.ravel(), minlength=n * width)
    return hist.reshape(n, width)


def min_core(
    g: Graph, dm: DistanceMatrix, X: Sequence[int], alpha: Fraction = HALF
) -> CoreResult:
    """Minimum-radius ball intercepting at least alpha * |X|^2 / 2 pairs.

    The escape radius esc_c(x,y) is the maximum, over all (x,y)-geodesics P,
    of min over w in P of d(c,w): the ball B(c,rho) meets every geodesic of
    the pair iff esc_c(x,y) <= rho (a pair with an endpoint in the ball
    counts as intercepted).  For each profile source x one pass over the
    BFS layers of x computes esc_c(x,v) for every vertex v and every center
    c at once: E[x] = d[x], and each later vertex v takes
    min(d[v], elementwise max of E[u] over its DAG predecessors u), one
    numpy reduction per layer, so the whole computation costs O(|X|*m*n).
    Adding the rows of the targets y > x to a per-center histogram of
    escape radii and taking its cumulative sum gives every center's count
    at every radius.  The first radius at which some center reaches the
    threshold wins; ties prefer the largest count, then the smallest center
    id.  For alpha = 1/2 the threshold is the ceil(|X|^2/4) pair count that
    the core existence bound guarantees within radius 4*delta4.

    On trees, radius 0 is checked first from subtree profile sizes in
    O(n + |X|).  It succeeds whenever alpha <= 1/2 (a profile centroid of a
    tree intercepts at least |X|^2/4 pairs) and saves the DP, whose layer
    count grows with the depth of the tree: three orders of magnitude on a
    1000-vertex random tree.  When radius 0 misses the threshold, the DP
    runs as on any other graph.
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
        counts = _tree_intercepted_counts(g, profile)
        best = max(range(g.n), key=lambda v: (counts[v], -v))
        if counts[best] >= threshold:
            return CoreResult(
                center=best, radius=0, intercepted_pairs=counts[best], total_pairs=total
            )
    curve = np.cumsum(_escape_histogram(g, dm, profile), axis=1)
    peak = curve.max(axis=0)
    rho = int(np.argmax(peak >= threshold))
    best = int(np.argmax(curve[:, rho]))
    return CoreResult(
        center=best, radius=rho, intercepted_pairs=int(curve[best, rho]), total_pairs=total
    )


def median_vertex(dm: DistanceMatrix, X: Sequence[int]) -> int:
    """Vertex minimizing the distance sum to the profile, smallest id on ties."""
    profile = check_vertices(dm.n, X, "profile")
    if not profile:
        raise ValueError("median of an empty profile")
    return int(dm.d[:, profile].sum(axis=1).argmin())


def centroid_vertex(dm: DistanceMatrix, X: Sequence[int]) -> int:
    """Vertex minimizing the squared-distance sum, smallest id on ties."""
    profile = check_vertices(dm.n, X, "profile")
    if not profile:
        raise ValueError("centroid of an empty profile")
    cols = dm.d[:, profile]
    return int((cols * cols).sum(axis=1).argmin())
