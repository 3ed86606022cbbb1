"""Four-point hyperbolicity, interval thinness, eccentricity machinery, and
the iterated furthest-vertex search for a mutually distant vertex pair.

The four-point constant is measured by a scan over far-apart vertex pairs in
decreasing-distance order (Cohen, Coudert and Lancin, *On computing the
Gromov hyperbolicity*, ACM JEA 2015) under a fixed work budget,
``FOUR_POINT_BUDGET`` pair comparisons per call.  The scan's stop rule bounds
every quadruple it has not reached, so wherever the budget runs out the
result is a certified bracket [delta, upper], exact when the two meet.
Statements proved for graphs whose geodesic triangles are d-thin are
asserted downstream with the substitution d := 4 * upper, and the measured
delta4 itself is reported alongside.  The substitution is not valid on
every graph.  C5 has delta4 = 1/2, but the two geodesics from a vertex to
the midpoint of the opposite edge form a bigon that is only 5/2-thin, more
than 4 * delta4 = 2.  A non-tree block graph (every block a clique, one of
them of three or more vertices, K3 the smallest) has delta4 = 0, but its
geodesic triangles are not 0-thin, so a certificate asserted with d = 0
can fail its check (``hypercore beamcore`` on K3 without --delta exits 2).
ROADMAP item 1 is the constant that is sound on every graph.

Both scans run block by block over the biconnected components, which is
exact (the same paper states the reduction for the four-point constant):

- A block B is convex in G: a geodesic between two vertices of B that left
  B would have to leave and re-enter through the same cut vertex.  So B is
  isometric in G, its distances are the submatrix of G's, and intervals
  between vertices of B are the same in B and in G.
- Every quadruple's defect is at most the largest defect of a quadruple
  inside one block, and every layer {x in I(u,v) : d(u,x) = r} of an
  interval of G is a layer of one block's interval: all (u,v)-geodesics
  pass through the same cut vertices at the same distances from u, so the
  layer lies in the interval, inside one block, between the two cut
  vertices (or u, or v) that bracket distance r.
- Hence delta(G) and the interval thinness of G are the maxima over the
  blocks.  A block with at most three vertices, or a complete one, has
  delta 0 and thinness 0 and is never scanned; a tree is not even split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import _BLOCK_ELEMS, DistanceMatrix, Graph, _fold_rows, check_rational

# pair comparisons one four-point measurement may spend, summed over blocks
FOUR_POINT_BUDGET = 2**26


@dataclass(frozen=True)
class FourPointResult:
    """delta is the lower end of the bracket, reached by the witness
    quadruple; upper bounds the four-point constant from above."""

    delta: Fraction
    witness: tuple[int, int, int, int]
    upper: Fraction

    @property
    def exact(self) -> bool:
        return self.delta == self.upper


@dataclass(frozen=True)
class EccentricityProfile:
    diameter: int
    radius: int
    center: tuple[int, ...]


def _lower_layers(d: np.ndarray, diam: int) -> tuple[np.ndarray, np.ndarray]:
    """The far-apart pairs closer than diam of the graph or block whose
    distances are d, in the scan order of ``_FarApart``, and their
    distances.  A block is isometric (module docstring), so its arcs are the
    unit entries of d.  local[a, b] (no neighbour of a is farther from b)
    compares row a with the elementwise max of a's neighbour rows, one
    ``graphs._fold_rows`` over the vertices by falling degree, about
    _BLOCK_ELEMS // n at a time."""
    n = len(d)
    if diam < 2:
        return np.empty((0, 2), dtype=np.int32), np.empty(0, dtype=d.dtype)
    heads, tails = np.divmod(np.flatnonzero(d == 1), n)
    deg = np.bincount(heads, minlength=n)
    by_degree = np.argsort(-deg, kind="stable")
    local = np.empty((n, n), dtype=bool)
    for vs in np.array_split(by_degree, max(1, n * n // _BLOCK_ELEMS)):
        far = _fold_rows(np.maximum, d, tails, np.searchsorted(heads, vs), deg[vs])
        local[vs] = far <= d[vs]
    local &= local.T & (d < diam)
    pairs = _upper_pairs(local)
    dist = d.ravel().take(pairs[:, 0].astype(np.intp) * n + pairs[:, 1])
    order = np.argsort(-dist, kind="stable")
    return pairs[order], dist[order]


def _upper_pairs(mask: np.ndarray) -> np.ndarray:
    """Row-major (m, 2) int32 array of the (a, b), a < b, where a square mask holds."""
    heads, tails = np.divmod(np.flatnonzero(mask), len(mask))
    keep = heads < tails
    return np.stack([heads[keep], tails[keep]], axis=1).astype(np.int32)


class _FarApart:
    """A block's far-apart pairs in scan order and their distances, shared
    by both scans.

    A pair (a, b), a < b, is far-apart when no neighbour of a is farther
    from b and no neighbour of b is farther from a.  The scan order is by
    decreasing d(a, b), ties row-major, and ``pairs`` is an (m, 2) int32
    array: the diameter layer, all far-apart since no vertex is farther,
    then ``_lower_layers`` once a scan needs them."""

    def __init__(self, d: np.ndarray, diam: int):
        self.d, self.diam, self.whole = d, diam, False
        self.pairs = _upper_pairs(d == diam)
        self.dist = np.full(len(self.pairs), diam, dtype=d.dtype)

    def reach(self, i: int, j: int, best: int) -> None:
        """Build the lower layers if rows i..j-1 pass the built ones and a scan
        at ``best`` goes on at row i (past them only if best < diam - 1)."""
        built = len(self.dist)
        goes_on = self.dist[i] > best if i < built else best < self.diam - 1
        if self.whole or j <= built or not goes_on:
            return
        lower, dist = _lower_layers(self.d, self.diam)
        self.pairs = np.concatenate([self.pairs, lower])
        self.dist = np.concatenate([self.dist, dist])
        self.whole = True


def biconnected_blocks(g: Graph) -> list[np.ndarray]:
    """Vertex sets of the biconnected components (blocks) of g, each a sorted
    int64 array, by an iterative Hopcroft-Tarjan depth-first search over the
    graph's CSR adjacency in O(n + m).  Every edge lies in exactly one block,
    so a bridge is a two-vertex block and a one-vertex graph has none; the
    cut vertices are those in more than one block."""
    n = g.n
    starts, tails = g.indptr.tolist(), memoryview(g.indices)  # an item of tails is an int
    disc = [0] + [-1] * (n - 1)  # g is connected, so one search from 0 reaches all
    low = [0] * n
    at = [0] * n  # position of each vertex on the open stack
    blocks = []
    clock = 1
    open_ = [0]  # visited vertices whose last block is not closed yet
    path = [0]
    cursor = [starts[0]]  # next adjacency slot of each path vertex
    while path:
        v = path[-1]
        i = cursor[-1]
        if i < starts[v + 1]:
            cursor[-1] = i + 1
            w = tails[i]
            if disc[w] < 0:
                disc[w] = low[w] = clock
                clock += 1
                at[w] = len(open_)
                open_.append(w)
                path.append(w)
                cursor.append(starts[w])
            elif disc[w] < low[v]:
                low[v] = disc[w]
            continue
        path.pop()
        cursor.pop()
        if not path:
            break
        p = path[-1]
        if low[v] < low[p]:
            low[p] = low[v]
        if low[v] >= disc[p]:
            # nothing below v reaches above p: p and v's open subtree form
            # one block
            blocks.append(np.sort(np.array(open_[at[v] :] + [p], dtype=np.int64)))
            del open_[at[v] :]
    return blocks


def _scanned_blocks(g: Graph, dm: DistanceMatrix) -> list[tuple[np.ndarray, DistanceMatrix, int]]:
    """(vertices, distances, diameter) of every block with at least four
    vertices that is not complete, by decreasing diameter.

    The other blocks have delta 0 and thinness 0.  A block is isometric in
    G, so its distances are a submatrix of G's (G's own matrix when the
    block is all of G).
    """
    out = []
    for blk in [] if g.is_tree() else biconnected_blocks(g):  # a tree's blocks are its edges
        if len(blk) < 4:
            continue
        sub = dm if len(blk) == dm.n else DistanceMatrix(dm.d.take(blk, axis=0).take(blk, axis=1))
        diam = int(sub.d.max())
        if diam > 1:
            out.append((blk, sub, diam))
    out.sort(key=lambda item: -item[2])
    return out


def _block_scans(
    g: Graph, dm: DistanceMatrix, *, thinness: bool = True
) -> tuple[FourPointResult, int]:
    """Four-point bracket (witness in G's ids) and exact interval thinness,
    as maxima over ``_scanned_blocks``; thinness can be left out, and then
    reads 0.

    Each block's scans start from the best values so far, so their stop
    rules skip a block whose diameter cannot raise them; in decreasing
    diameter the loop ends at the first block that can raise neither.  Both
    scans share the block's lazily built ``_FarApart`` pairs.  The four-point
    scans share one budget of ``FOUR_POINT_BUDGET`` comparisons; when it
    runs out, the unscanned rest of that block is bounded by the distance
    of its first unscanned row, and every later block by its diameter, of
    which the next block's is the largest.

    A block's thinness scan stops once nu reaches max(best, rest), the
    doubled upper end so far.  Take x, y in the layer at distance r from u
    of I(u, v), with D = d(u, v): then d(u, x) = d(u, y) = r and d(v, x) =
    d(v, y) = D - r, so the quadruple (u, v, x, y) has S2 = S3 = D and S1 =
    D + d(x, y), and its doubled defect is d(x, y).  So the block's thinness
    is at most its doubled four-point constant, which its own scan (or, once
    the budget ran out, ``rest``) bounds by max(best, rest).
    """
    best, quad, nu = 0, (0, 0, 0, 0), 0
    rest = 0  # doubled-defect bound on what the budget left unscanned, or 0
    budget = FOUR_POINT_BUDGET
    for blk, sub, diam in _scanned_blocks(g, dm):
        if rest:
            rest = max(rest, diam)
        if (rest or diam <= best) and not (thinness and diam > nu):
            break
        pairs = _FarApart(sub.d, diam)
        if not rest:
            val, q, budget, rest = _four_point_scan(sub, pairs, best, budget)
            if val > best:
                best, quad = val, tuple(int(blk[x]) for x in q)
        if thinness:
            nu = _thinness_scan(sub, pairs, nu, max(best, rest))
    return FourPointResult(Fraction(best, 2), quad, Fraction(max(best, rest), 2)), nu


def four_point_delta(g: Graph, dm: DistanceMatrix) -> FourPointResult:
    """Bracket on the smallest delta such that, over every vertex quadruple,
    the two largest of the three pairwise distance sums differ by at most
    2*delta.

    The constant is the maximum over the biconnected blocks (module
    docstring), and only blocks with at least four vertices that are not
    complete are scanned, in decreasing diameter.  The lower end ``delta``
    comes with a quadruple reaching it in G's ids ((0, 0, 0, 0) when it is
    0).  Within a block the scan pairs up far-apart pairs only
    (``_FarApart``), taken in decreasing distance, and evaluates each
    pair p against every earlier pair q as D_p + D_q - max(S2, S3), in the
    matrix's distance type (Cohen, Coudert and Lancin, ACM JEA 2015).  Both
    reductions are exact:

    - Some maximizer has both pairs of its largest-sum pairing far-apart:
      moving a to a farther neighbour raises S1 by exactly 1 and S2, S3 by
      at most 1, so the defect does not drop.
    - A quadruple's doubled defect is at most the distance of the later
      (shorter) pair of its largest-sum pairing, because S2 + S3 is at least
      twice the longer one by the triangle inequality; so a scan stops
      once D_p <= the best doubled defect found, in its own block or an
      earlier one.

    The scans of one call spend at most ``FOUR_POINT_BUDGET`` pair
    comparisons, counted as (j - i) * j for a block of rows i..j-1.  If the
    next block of rows would exceed it, the scan stops before row i, and by
    the same two facts every quadruple not yet compared has doubled defect
    at most max(D_i, the diameter of the next block).  ``upper`` is that
    bound or the lower end, whichever is larger, and ``exact`` holds when
    the two ends meet, as they do whenever the scan finishes; a tree of
    any size needs no scan and is exact.
    """
    return _block_scans(g, dm, thinness=False)[0]


def _four_point_scan(
    dm: DistanceMatrix, pairs: _FarApart, best: int, budget: int
) -> tuple[int, tuple[int, int, int, int], int, int]:
    """The scan of ``four_point_delta`` over a block's far-apart pairs,
    started from a doubled defect ``best`` already found and spending at
    most ``budget`` comparisons.

    Returns the largest doubled defect and a quadruple reaching it (``best``
    and (0, 0, 0, 0) when no quadruple beats it), the budget left, and 0 if
    the scan finished, else the distance of the first row it did not scan.
    """
    best_quad = (0, 0, 0, 0)
    i = 0
    while True:
        # rows i..j-1 against pairs 0..j-1, about 2**14 elements a block; j
        # counts the whole list, so a block past the built rows needs them
        # all.  A block that fits the budget whatever the list's length tries
        # its built rows first: if they reach the diameter, no lower pair
        # (defect below it) ties and nothing later raises best, so the lower
        # layers stay unbuilt and the block's charge is never needed.  A
        # trial that falls short builds them, and the block is compared again
        step = max(1, min(64, 2**14 // (i + 1)))
        trial = not pairs.whole and i < len(pairs.dist) < i + step <= budget // step
        if not trial:
            pairs.reach(i, i + step, best)
        a, b, dist = pairs.pairs[:, 0], pairs.pairs[:, 1], pairs.dist
        if i >= len(dist) or int(dist[i]) <= best:
            return best, best_quad, budget, 0
        j = min(i + step, len(dist))
        if (j - i) * j > budget:
            return best, best_quad, budget, int(dist[i])
        budget -= 0 if trial else (j - i) * j
        diff = _defects(dm.d, a, b, dist, slice(i, j), slice(0, j))
        flat = int(diff.argmax())  # the row-major first maximum
        val = int(diff.flat[flat])
        if trial and val < pairs.diam:
            pairs.reach(i, i + step, best)
            continue
        if val > best:
            r, k = divmod(flat, j)
            best = val
            best_quad = (int(a[i + r]), int(b[i + r]), int(a[k]), int(b[k]))
        i = j


def _defects(
    d: np.ndarray, a: np.ndarray, b: np.ndarray, dist: np.ndarray, rows: slice, cols: slice
) -> np.ndarray:
    """Doubled defects D_p + D_q - max(S2, S3) of the far-apart pairs
    p = (a[p], b[p]) in ``rows`` against q in ``cols``, in the distance
    type, as a (rows x cols) block: the distance rows of the ``rows`` pairs'
    ends are gathered once, and their columns read by ``take``."""
    da, db = d.take(a[rows], axis=0), d.take(b[rows], axis=0)
    ac, bc = a[cols], b[cols]
    s2 = da.take(ac, axis=1)
    s2 += db.take(bc, axis=1)
    s3 = da.take(bc, axis=1)
    s3 += db.take(ac, axis=1)
    np.maximum(s2, s3, out=s2)
    diff = dist[rows, None] + dist[None, cols]
    diff -= s2
    return diff


def thin_delta_bound(delta4: Fraction) -> Fraction:
    """The thin-triangle constant 4 * delta4 that every bound stated for
    thin triangles is asserted with.

    It is not a thinness proved for every graph: on C5 delta4 is 1/2 while
    a geodesic bigon is 5/2-thin, and on a non-tree block graph (a clique
    of three or more vertices as a block) delta4 is 0 while the geodesic
    triangles are not 0-thin.  A certificate asserted with it can fail its
    check (module docstring; ROADMAP item 1).
    """
    check_rational(delta4, "delta4")
    return delta4 * 4


def _thinness_scan(dm: DistanceMatrix, pairs: _FarApart, nu: int, cap: int) -> int:
    """The interval thinness of a block, the largest d(x,y) over x,y in
    I(u,v) equidistant from u, over all u,v, scanned from a thinness ``nu``
    already found.  Each such layer of an interval of G lies in one block's
    interval (module docstring), so the thinness of G is the maximum over
    the blocks.  Only far-apart pairs (u, v) are visited
    (``_FarApart``), in decreasing distance, as in the four-point scan
    of Cohen, Coudert and Lancin (ACM JEA 2015).  Both reductions are exact:

    - If v has a neighbour v' farther from u, then I(u,v) is contained in
      I(u,v') with the same distance layers from u; symmetrically for u,
      since equidistance from u within I(u,v) is equidistance from v.
    - x, y at distance r from u in I(u,v) have d(x,y) <= 2 * min(r,
      d(u,v) - r) <= d(u,v), so the scan stops once d(u,v) <= nu, the best
      value found in this block or an earlier one.

    The pairs go in batches of 4, 16, ... up to _BLOCK_ELEMS // n: one
    np.flatnonzero marks a batch's intervals, one sort groups their members
    by (pair, layer), and each group's widest distance counts.  A batched
    pair past the stop cannot raise nu, and the scan returns as soon as nu
    reaches ``cap``, a known upper bound on the block's thinness (the
    doubled four-point upper end in ``_block_scans``)."""
    width = pairs.diam + 1
    i, rows = 0, 4
    while nu < cap:
        pairs.reach(i, i + 1, nu)
        stop = len(pairs.dist) - int(np.searchsorted(pairs.dist[::-1], nu, "right"))
        if i >= stop:
            return nu
        e = min(i + rows, stop)
        du = dm.d.take(pairs.pairs[i:e, 0], axis=0)
        between = du + dm.d.take(pairs.pairs[i:e, 1], axis=0) == pairs.dist[i:e, None]
        p, x = np.divmod(np.flatnonzero(between), dm.n)
        key = p * width + du[p, x]
        order = np.argsort(key)
        key, x = key[order], x[order]
        # member t's mates are the size[t] entries of x from first[t],
        # gathered for up to _BLOCK_ELEMS mates (or one member's) at once
        first = np.searchsorted(key, key)
        size = np.searchsorted(key, key, "right") - first
        ends = np.cumsum(size)
        start = ends - size
        lo = 0
        while lo < len(x) and nu < cap:
            hi = max(lo + 1, int(np.searchsorted(ends, start[lo] + _BLOCK_ELEMS, "right")))
            sz = size[lo:hi]
            mate = np.arange(start[lo], ends[hi - 1]) - np.repeat(start[lo:hi] - first[lo:hi], sz)
            at = np.repeat(x[lo:hi] * dm.n, sz) + x[mate]
            nu = max(nu, int(dm.d.ravel().take(at).max()))
            lo = hi
        i, rows = e, min(4 * rows, max(1, _BLOCK_ELEMS // dm.n))
    return nu


def eccentricity_profile(dm: DistanceMatrix) -> EccentricityProfile:
    ecc = dm.d.max(axis=1)
    radius = int(ecc.min())
    return EccentricityProfile(
        diameter=int(ecc.max()),
        radius=radius,
        center=tuple(np.flatnonzero(ecc == radius).tolist()),
    )


def mutually_distant_pair(dm: DistanceMatrix, delta: Fraction) -> tuple[int, int]:
    """A pair u, v, each at maximum distance from the other, by iterated
    furthest-vertex search from vertex 0 over the rows of the distance matrix.

    Each round replaces the current vertex by its smallest-id furthest
    vertex; the pair distance strictly increases on every failed check, so
    with ``delta`` an upper bound on the four-point constant the loop needs
    at most floor(2*delta) + 2 rounds.  The budget is capped at n as a
    safety net; exhausting it means delta was underestimated.
    """
    check_rational(delta, "delta")
    d = dm.d
    budget = math.floor(2 * delta) + 2
    budget = max(2, min(budget, dm.n))
    prev = 0
    cur = int(d[prev].argmax())  # argmax takes the first, smallest-id maximum
    steps = 1
    while True:
        row = d[cur]
        nxt = int(row.argmax())
        if row[prev] == row[nxt]:
            return (prev, cur)
        steps += 1
        if steps > budget:
            raise ValueError(
                f"furthest-vertex iteration did not stabilize within {budget} rounds; "
                f"is delta={delta} an underestimate of the four-point constant?"
            )
        prev, cur = cur, nxt


def hyperbolicity_report(g: Graph, dm: DistanceMatrix) -> tuple[FourPointResult, int]:
    """The four-point bracket and the interval thinness, the largest d(x,y)
    over x,y in I(u,v) equidistant from u, over all u,v (``_thinness_scan``).

    Both scans run block by block over the same blocks, sharing each
    block's far-apart pair list.  The four-point constant is bracketed
    under the budget as in ``four_point_delta``; the thinness is always
    exact.
    """
    return _block_scans(g, dm)
