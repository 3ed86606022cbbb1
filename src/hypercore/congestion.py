"""Minimum-radius traffic cores, exact geodesic counting, traffic load of a
vertex set under a demand profile, and median/centroid vertices.

Geodesic counts use arbitrary-precision integers and traffic fractions use
exact rationals, so none of the congestion certificates depend on float
tolerances.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import DistanceMatrix, Graph, check_vertices

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class CoreResult:
    """Best interception ball found for a profile."""

    center: int
    radius: int
    intercepted_pairs: int
    total_pairs: int


@dataclass(frozen=True)
class TrafficDemand:
    """Unit-rate source/target pairs; routing spreads each pair's unit of
    traffic uniformly over all of its geodesics."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for s, t in self.pairs:
            if s == t:
                raise ValueError(f"demand pair ({s},{t}) has equal endpoints")

    @classmethod
    def uniform(cls, n: int) -> "TrafficDemand":
        """All ordered pairs (s, t) with s != t."""
        return cls(tuple((s, t) for s in range(n) for t in range(n) if s != t))


def _bfs_counts(g: Graph, source: int, blocked: frozenset[int] | None = None):
    """Distances and geodesic counts from source, optionally avoiding a set."""
    dist = [-1] * g.n
    sigma = [0] * g.n
    dist[source] = 0
    sigma[source] = 1
    queue = deque([source])
    adj = g.adjacency
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        su = sigma[u]
        for w in adj[u]:
            if blocked is not None and w in blocked:
                continue
            if dist[w] < 0:
                dist[w] = du
                queue.append(w)
            if dist[w] == du:
                sigma[w] += su
    return dist, sigma


def geodesic_count(g: Graph, s: int, t: int) -> int:
    """Number of distinct (s,t)-geodesics, exact."""
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise ValueError(f"pair ({s},{t}) out of range for n={g.n}")
    return _bfs_counts(g, s)[1][t]


def traffic_load(
    g: Graph, dm: DistanceMatrix, demand: TrafficDemand, S: Sequence[int]
) -> Fraction:
    """mu(S): summed fraction of each demand pair's geodesics that meet S.

    A pair contributes 1 - (geodesics of the same length avoiding S) /
    (all geodesics); pairs with an endpoint in S contribute exactly 1.
    """
    inside = frozenset(check_vertices(g.n, S, "S"))
    if not inside:
        raise ValueError("traffic_load needs a nonempty vertex set")
    by_source: dict[int, list[int]] = {}
    for s, t in demand.pairs:
        by_source.setdefault(s, []).append(t)
    total = Fraction(0)
    for s, targets in by_source.items():
        if s in inside:
            total += len(targets)
            continue
        outside_targets = [t for t in targets if t not in inside]
        total += len(targets) - len(outside_targets)
        if not outside_targets:
            continue
        _, sigma_all = _bfs_counts(g, s)
        dist_avoid, sigma_avoid = _bfs_counts(g, s, inside)
        for t in outside_targets:
            if dist_avoid[t] == dm.dist(s, t):
                total += 1 - Fraction(sigma_avoid[t], sigma_all[t])
            else:
                total += 1
    return total


def _intercepted_count(
    g: Graph, dm: DistanceMatrix, ball_vertices: frozenset[int], X: Sequence[int], bail_above: int
) -> int | None:
    """Pairs of X intercepted by the given ball vertex set, or None once the
    count provably falls below the caller's threshold."""
    outside = [x for x in X if x not in ball_vertices]
    nX = len(X)
    total = nX * (nX - 1) // 2
    missed = 0
    d = dm.d
    pos = {x: i for i, x in enumerate(outside)}
    for x in outside:
        dist = [-1] * g.n
        dist[x] = 0
        queue = deque([x])
        adj = g.adjacency
        while queue:
            u = queue.popleft()
            du = dist[u] + 1
            for w in adj[u]:
                if dist[w] < 0 and w not in ball_vertices:
                    dist[w] = du
                    queue.append(w)
        px = pos[x]
        for y in outside:
            if pos[y] > px and dist[y] == d[x, y]:
                missed += 1
        if missed > bail_above:
            return None
    return total - missed


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


def min_core(
    g: Graph, dm: DistanceMatrix, X: Sequence[int], alpha: Fraction = HALF
) -> CoreResult:
    """Minimum-radius ball intercepting at least alpha * |X|^2 / 2 pairs.

    Scans radii upward; at each radius every center's interception count is
    evaluated by deleting the ball and comparing pair distances.  The first
    radius at which a center reaches the threshold wins; ties prefer the
    largest count, then the smallest center id.  For alpha = 1/2 the
    threshold is the ceil(|X|^2/4) pair count that the core existence bound
    guarantees within radius 4*delta4.
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
    bail_above = total - threshold
    diameter = int(dm.d.max())
    is_tree = g.is_tree()
    for rho in range(diameter + 1):
        if rho == 0 and is_tree:
            counts: list[int | None] = list(_tree_intercepted_counts(g, profile))
        else:
            d = dm.d
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
            return CoreResult(
                center=best,
                radius=rho,
                intercepted_pairs=counts[best],
                total_pairs=total,
            )
    raise RuntimeError("no ball up to the diameter met the threshold")  # unreachable


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
