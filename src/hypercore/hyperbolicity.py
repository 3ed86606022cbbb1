"""Four-point hyperbolicity, interval thinness, eccentricity machinery, and
the iterated-BFS search for a mutually distant vertex pair.

The four-point constant is measured exactly up to a configurable size, by a
scan over far-apart vertex pairs in decreasing-distance order (Cohen, Coudert
and Lancin, *On computing the Gromov hyperbolicity*, ACM JEA 2015).
Statements proved for graphs whose geodesic triangles are d-thin are
asserted downstream with the substitution d := 4 * delta4, which is always
valid; the measured delta4 itself is reported alongside.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .graphs import DistanceMatrix, Graph, bfs_distances
from .halfint import HalfInt

FOUR_POINT_EXACT_CAP = 400


@dataclass(frozen=True)
class FourPointResult:
    delta: HalfInt
    witness: tuple[int, int, int, int]
    exact: bool


@dataclass(frozen=True)
class EccentricityProfile:
    ecc: tuple[int, ...]
    diameter: int
    radius: int
    center: tuple[int, ...]


@dataclass(frozen=True)
class HyperbolicityReport:
    delta: HalfInt
    witness: tuple[int, int, int, int]
    exact: bool
    interval_thinness: int
    diameter: int
    radius: int
    center: tuple[int, ...]


def four_point_defect(dm: DistanceMatrix, quad: tuple[int, int, int, int]) -> HalfInt:
    """Half the gap between the two largest distance sums of one quadruple."""
    u, v, x, y = quad
    d = dm.d
    sums = sorted(
        (
            int(d[u, v]) + int(d[x, y]),
            int(d[u, x]) + int(d[v, y]),
            int(d[u, y]) + int(d[v, x]),
        )
    )
    return HalfInt.from_doubled(sums[2] - sums[1])


def far_apart_pairs(dm: DistanceMatrix) -> np.ndarray:
    """Every pair (a, b), a < b, such that no neighbour of a is farther from b
    and no neighbour of b is farther from a, as an (m, 2) int32 array sorted
    by decreasing d(a, b), ties in row-major order.

    Adjacency is read from the matrix as d == 1.  A one-vertex graph has no
    pairs.  Scratch beyond the result is one n x n boolean mask, 64 rows of
    n at a time, and the sort's few entries per pair.
    """
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
    del local
    key = d[heads, tails]
    np.negative(key, out=key)
    order = np.argsort(key, kind="stable")
    del key
    return np.stack([heads[order], tails[order]], axis=1)


def four_point_delta(
    dm: DistanceMatrix,
    *,
    exact_cap: int = FOUR_POINT_EXACT_CAP,
    samples: int = 200_000,
    seed: int = 0,
) -> FourPointResult:
    """Smallest delta such that, over every vertex quadruple, the two largest
    of the three pairwise distance sums differ by at most 2*delta.

    Up to ``exact_cap`` vertices the result is exact, with a maximizing
    witness quadruple ((0, 0, 0, 0) when delta is 0).  The scan pairs up
    far-apart pairs only (``far_apart_pairs``), taken in decreasing
    distance, and evaluates each pair p against every earlier pair q as
    D_p + D_q - max(S2, S3) in int32 (Cohen, Coudert and Lancin, ACM JEA
    2015).  Both reductions are exact:

    - Some maximizer has both pairs of its largest-sum pairing far-apart:
      moving a to a farther neighbour raises S1 by exactly 1 and S2, S3 by
      at most 1, so the defect does not drop.
    - A quadruple's doubled defect is at most the distance of the later
      (shorter) pair of its largest-sum pairing, because S2 + S3 is at least
      twice the longer one by the triangle inequality; so the scan stops
      once D_p <= the best doubled defect found.

    Above the cap a seeded random sample of quadruples is evaluated instead
    and the result is a lower bound, flagged by ``exact=False``.
    """
    n = dm.n
    if n <= exact_cap:
        return _four_point_scan(dm, far_apart_pairs(dm))

    rng = random.Random(seed)
    best = 0
    best_quad = (0, 0, 0, 0)
    for _ in range(samples):
        quad = (
            rng.randrange(n),
            rng.randrange(n),
            rng.randrange(n),
            rng.randrange(n),
        )
        val = four_point_defect(dm, quad).doubled
        if val > best:
            best = val
            best_quad = quad
    return FourPointResult(HalfInt.from_doubled(best), best_quad, False)


def _four_point_scan(dm: DistanceMatrix, pairs: np.ndarray) -> FourPointResult:
    """The exact scan of ``four_point_delta`` over the given far-apart pairs."""
    d = dm.d.astype(np.int32)
    a, b = pairs[:, 0], pairs[:, 1]
    dist = d[a, b]
    best = 0
    best_quad = (0, 0, 0, 0)
    i = 0
    while i < len(dist) and int(dist[i]) > best:
        # rows i..j-1 against pairs 0..j-1, about 2**14 elements a block
        j = min(len(dist), i + max(1, min(64, 2**14 // (i + 1))))
        ar, br = a[i:j, None], b[i:j, None]
        ac, bc = a[None, :j], b[None, :j]
        s2 = d[ar, ac]
        s2 += d[br, bc]
        s3 = d[ar, bc]
        s3 += d[br, ac]
        np.maximum(s2, s3, out=s2)
        diff = dist[i:j, None] + dist[None, :j]
        diff -= s2
        flat = int(diff.argmax())
        val = int(diff.flat[flat])
        if val > best:
            r, k = divmod(flat, j)
            best = val
            best_quad = (int(a[i + r]), int(b[i + r]), int(a[k]), int(b[k]))
        i = j
    return FourPointResult(HalfInt.from_doubled(best), best_quad, True)


def thin_delta_bound(delta4: HalfInt) -> HalfInt:
    """Thin-triangle constant certified by a four-point constant.

    Geodesic triangles of a graph with four-point constant d are 4d-thin, so
    every bound stated for thin triangles is asserted with this value.
    """
    return delta4 * 4


def interval_thinness(dm: DistanceMatrix) -> int:
    """Largest d(x,y) over x,y in I(u,v) equidistant from u, over all u,v.

    Only far-apart pairs (u, v) are visited (``far_apart_pairs``), in
    decreasing distance, as in the four-point scan of Cohen, Coudert and
    Lancin (ACM JEA 2015).  Both reductions are exact:

    - If v has a neighbour v' farther from u, then I(u,v) is contained in
      I(u,v') with the same distance layers from u; symmetrically for u,
      since equidistance from u within I(u,v) is equidistance from v.
    - x, y at distance r from u in I(u,v) have d(x,y) <= 2 * min(r,
      d(u,v) - r) <= d(u,v), so the scan stops once d(u,v) <= the best
      value found.
    """
    return _thinness_scan(dm, far_apart_pairs(dm))


def _thinness_scan(dm: DistanceMatrix, pairs: np.ndarray) -> int:
    """The scan of ``interval_thinness`` over the given far-apart pairs."""
    d = dm.d
    nu = 0
    # a chunk at a time: a Python list of every pair would outweigh d itself
    for start in range(0, len(pairs), 4096):
        for u, v in pairs[start : start + 4096].tolist():
            if d[u, v] <= nu:
                return nu
            du = d[u]
            iv = np.flatnonzero(du + d[v] == d[u, v])
            ranks = du[iv]
            for r in np.unique(ranks):
                grp = iv[ranks == r]
                if len(grp) >= 2:
                    spread = int(d[np.ix_(grp, grp)].max())
                    if spread > nu:
                        nu = spread
    return nu


def eccentricity_profile(dm: DistanceMatrix) -> EccentricityProfile:
    ecc = dm.eccentricities()
    radius = int(ecc.min())
    return EccentricityProfile(
        ecc=tuple(int(e) for e in ecc),
        diameter=int(ecc.max()),
        radius=radius,
        center=tuple(np.flatnonzero(ecc == radius).tolist()),
    )


def furthest_set(dm: DistanceMatrix, x: int) -> list[int]:
    """P(x): all vertices at maximum distance from x."""
    row = dm.d[x]
    return np.flatnonzero(row == row.max()).tolist()


def mutually_distant_pair(g: Graph, delta: HalfInt) -> tuple[int, int]:
    """A pair u, v with u in P(v) and v in P(u), by iterated furthest-vertex
    BFS from vertex 0.

    Each round replaces the current vertex by its smallest-id furthest
    vertex; the pair distance strictly increases on every failed check, so
    with ``delta`` an upper bound on the four-point constant the loop needs
    at most floor(2*delta) + 2 rounds.  The budget is capped at n as a
    safety net; exhausting it means delta was underestimated.
    """
    budget = (2 * delta).floor() + 2
    budget = max(2, min(budget, g.n))
    prev = 0
    row = bfs_distances(g, prev)
    ecc = max(row)
    cur = row.index(ecc)
    steps = 1
    while True:
        row = bfs_distances(g, cur)
        ecc = max(row)
        if row[prev] == ecc:
            return (prev, cur)
        steps += 1
        if steps > budget:
            raise ValueError(
                f"furthest-vertex iteration did not stabilize within {budget} rounds; "
                f"is delta={delta} an underestimate of the four-point constant?"
            )
        prev, cur = cur, row.index(ecc)


def hyperbolicity_report(
    dm: DistanceMatrix,
    *,
    exact_cap: int = FOUR_POINT_EXACT_CAP,
    samples: int = 200_000,
    seed: int = 0,
) -> HyperbolicityReport:
    """Bundle the four-point scan with thinness and eccentricity data.

    The far-apart pair list is built once and shared by both scans.
    """
    pairs = far_apart_pairs(dm)
    if dm.n <= exact_cap:
        fp = _four_point_scan(dm, pairs)
    else:
        fp = four_point_delta(dm, exact_cap=exact_cap, samples=samples, seed=seed)
    prof = eccentricity_profile(dm)
    return HyperbolicityReport(
        delta=fp.delta,
        witness=fp.witness,
        exact=fp.exact,
        interval_thinness=_thinness_scan(dm, pairs),
        diameter=prof.diameter,
        radius=prof.radius,
        center=prof.center,
    )
