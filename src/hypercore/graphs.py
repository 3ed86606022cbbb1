"""Graph substrate: adjacency, component labels, BFS, all-pairs distances,
intervals, balls, Gromov products, set distances, and the ball interception
test.

Graphs and distance matrices are immutable after construction and safe to
share across threads; every operation here is a pure function of them.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .halfint import HalfInt

DEFAULT_MATRIX_CAP = 2000
# Sources per bit-parallel BFS pass: its scratch is about five bytes per
# vertex and source besides the result, 5 MB at n = 2000.
_SOURCE_BLOCK = 512


class Graph:
    """Undirected connected simple graph on dense vertex ids 0..n-1."""

    __slots__ = ("n", "m", "adjacency", "indptr", "indices")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={n}")
        adjacency: list[list[int]] = [[] for _ in range(n)]
        edges = list(edges)
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise _first_bad_edge(n, edges)
            adjacency[u].append(v)
            adjacency[v].append(u)
        for nbrs in adjacency:
            nbrs.sort()
        # read-only CSR of the lists: the neighbours of v are indices[indptr[v]:indptr[v + 1]]
        indptr = np.cumsum([0, *map(len, adjacency)], dtype=np.intp)
        indices = np.fromiter(chain.from_iterable(adjacency), dtype=np.intp, count=2 * len(edges))
        # a repeated edge shows as equal neighbours side by side in a sorted row
        keys = np.repeat(np.arange(n, dtype=np.intp) * n, np.diff(indptr)) + indices
        if (keys[1:] == keys[:-1]).any():
            raise _first_bad_edge(n, edges)
        self.n = n
        self.m = len(edges)
        self.adjacency = adjacency
        label, sizes = components_without(self)
        if len(sizes) > 1:
            # component 1 starts at the first vertex outside 0's component
            raise ValueError(
                f"graph is disconnected: vertex {label.index(1)} unreachable from 0"
            )
        self.indptr, self.indices = indptr, indices
        indptr.flags.writeable = indices.flags.writeable = False

    def edges(self) -> Iterator[tuple[int, int]]:
        return ((u, v) for u, nbrs in enumerate(self.adjacency) for v in nbrs if u < v)

    def is_tree(self) -> bool:
        return self.m == self.n - 1

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class DuplicateEdgeError(ValueError):
    """A repeated edge; ``positions`` are the input indices of both copies."""

    def __init__(self, u: int, v: int, positions: tuple[int, int]):
        super().__init__(f"duplicate edge ({u},{v})")
        self.positions = positions


def _first_bad_edge(n: int, edges: Sequence[tuple[int, int]]) -> ValueError:
    """The error for the first edge, in input order, that is out of range, a
    self-loop or a repeat of an earlier edge."""
    seen: dict[tuple[int, int], int] = {}
    for i, (u, v) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            return ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            return ValueError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        first = seen.setdefault(key, i)
        if first != i:
            return DuplicateEdgeError(*key, (first, i))


@dataclass(frozen=True)
class Ball:
    """Closed ball B(center, radius) = all vertices within the radius."""

    center: int
    radius: int

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError(f"ball radius must be nonnegative, got {self.radius}")


class DistanceMatrix:
    """All-pairs hop distances, materialized as an n x n integer array."""

    __slots__ = ("d",)

    def __init__(self, d: np.ndarray):
        self.d = np.asarray(d, dtype=np.int64)

    @property
    def n(self) -> int:
        return self.d.shape[0]

    def dist(self, u: int, v: int) -> int:
        return int(self.d[u, v])

    def eccentricities(self) -> np.ndarray:
        return self.d.max(axis=1)


def _check_vertex(n: int, v: int, name: str = "vertex") -> None:
    if not (0 <= v < n):
        raise ValueError(f"{name} {v} out of range for n={n}")


def check_vertices(n: int, vs: Iterable[int], name: str = "vertex set") -> list[int]:
    """Validate and normalize a vertex collection (sorted, deduplicated).

    Guards the public operations that index numpy arrays with caller-supplied
    ids, where a negative id would silently wrap instead of failing.
    """
    out = sorted(set(vs))
    for v in out:
        if not (0 <= v < n):
            raise ValueError(f"{name} contains vertex {v}, out of range for n={n}")
    return out


def check_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Validate demand pairs (s, t): s != t, both in 0..n-1.  Returns them
    as a list in input order, repeats kept."""
    out = []
    for s, t in pairs:
        if s == t:
            raise ValueError(f"demand pair ({s},{t}) has equal endpoints")
        if not (0 <= s < n and 0 <= t < n):
            raise ValueError(f"demand pair ({s},{t}) out of range for n={n}")
        out.append((s, t))
    return out


def row_chunks(count: int, n: int) -> Iterator[slice]:
    """Consecutive slices of range(count), each short enough that its rows
    of an n-column array hold about 2**16 elements, so a gather such as
    d[rows[chunk]] stays small however many rows there are.  Its users are
    ``congestion.median_vertex``, ``congestion.centroid_vertex`` and the
    interval blocks of ``quasiconvex._set_epsilons``."""
    step = max(1, 2**16 // n)
    return (slice(lo, lo + step) for lo in range(0, count, step))


def components_without(g: Graph, removed: Iterable[int] = ()) -> tuple[list[int], list[int]]:
    """Component labels of g - removed, and the size of each component.

    Components are numbered in order of their smallest vertex.  A removed
    vertex gets the label n, which no component has.
    """
    n = g.n
    adj = g.adjacency
    label = [-1] * n
    for v in removed:
        label[v] = n
    sizes = []
    for root in range(n):
        if label[root] != -1:
            continue
        c = len(sizes)
        label[root] = c
        comp = [root]
        for u in comp:
            for w in adj[u]:
                if label[w] == -1:
                    label[w] = c
                    comp.append(w)
        sizes.append(len(comp))
    return label, sizes


def multi_source_distances(
    g: Graph, sources: Sequence[int], deleted: Iterable[int] = ()
) -> np.ndarray:
    """Hop distances from each of ``sources`` in g with the ``deleted``
    vertices removed, as a (len(sources), n) int64 array whose row i is the
    distance row of sources[i].  -1 marks a vertex that is unreachable or
    deleted; a source must not be deleted.

    A bit-parallel multi-source BFS (Then et al., VLDB 2014; Akiba, Iwata
    and Yoshida, SIGMOD 2013): every vertex holds a bitset over up to
    _SOURCE_BLOCK sources, and one BFS layer for all of them is an OR of
    the neighbours' frontier bitsets, masked by the bits not yet seen.  The
    distances are kept bit-sliced: the vertices a layer reaches are ORed
    into the bit planes of that layer's number, and the planes are unpacked
    once, into a small integer block that is copied into the int64 result
    one block of sources at a time.
    """
    n = g.n
    sources = [int(s) for s in sources]
    for s in sources:
        _check_vertex(n, s, "source")
    gone = check_vertices(n, deleted, "deleted set")
    blocked = set(gone).intersection(sources)
    if blocked:
        raise ValueError(f"source {min(blocked)} is a blocked vertex")
    # the CSR plus a sentinel index n naming an always-empty frontier row that
    # ends the last vertex's segment; g is connected, so no other is empty
    starts, indices = g.indptr[:-1], np.append(g.indices, n)
    # the layer count of any vertex stays below n
    acc_type = np.int8 if n <= 128 else np.int16 if n <= 32768 else np.int32
    out = np.empty((len(sources), n), dtype=np.int64)
    for lo in range(0, len(sources), _SOURCE_BLOCK):
        block = sources[lo : lo + _SOURCE_BLOCK]
        bits = np.zeros((n, -(-len(block) // 64) * 64), dtype=np.uint8)
        bits[block, np.arange(len(block))] = 1
        start = np.packbits(bits, axis=1, bitorder="little").view("<u8")
        front = np.zeros((n + 1, start.shape[1]), dtype="<u8")
        front[:n] = start
        # deleted rows count as seen, so no layer ever enters them
        unseen = ~start
        unseen[gone] = 0
        # planes[j] holds bit j of the distance of every vertex reached
        planes: list[np.ndarray] = []
        depth = 0
        while True:
            gathered = np.take(front, indices, axis=0)
            layer = np.bitwise_or.reduceat(gathered, starts, axis=0, out=front[:n])
            layer &= unseen
            if not layer.any():
                break
            unseen ^= layer
            depth += 1
            if depth.bit_length() > len(planes):
                planes.append(np.zeros_like(layer))
            for j, plane in enumerate(planes):
                if depth >> j & 1:
                    plane |= layer
        acc = np.zeros(bits.shape, dtype=acc_type)
        for j, plane in enumerate(planes):
            acc += np.unpackbits(plane.view(np.uint8), axis=1, bitorder="little").astype(acc_type) << j
        unseen[gone] = ~np.uint64(0)  # a deleted row is unreached
        acc[np.unpackbits(unseen.view(np.uint8), axis=1, bitorder="little").view(bool)] = -1
        out[lo : lo + len(block)] = acc[:, : len(block)].T
    return out


def check_matrix_cap(n: int, cap: int) -> None:
    """Refuse an all-pairs matrix above ``cap`` vertices rather than
    allocating n^2 integers silently."""
    if n > cap:
        raise ValueError(
            f"graph has {n} vertices, above the all-pairs cap of {cap}; "
            f"pass cap= explicitly to materialize the matrix anyway"
        )


def distance_matrix(g: Graph, *, cap: int = DEFAULT_MATRIX_CAP) -> DistanceMatrix:
    """All-pairs hop distances.  Refuses graphs above ``cap`` vertices
    (``check_matrix_cap``).

    A tree is filled from one prefix count over its preorder
    (``_tree_distances``); any other graph gets one bit-parallel BFS from
    every vertex (``multi_source_distances``)."""
    check_matrix_cap(g.n, cap)
    d = _tree_distances(g) if g.is_tree() else multi_source_distances(g, range(g.n))
    return DistanceMatrix(d)


def tree_walk(g: Graph) -> tuple[list[int], list[int], list[int]]:
    """Parent (-1 at the root), depth and depth-first preorder of a tree
    rooted at vertex 0.  A parent precedes its children in the preorder,
    and the subtree of each vertex is the run of the preorder that starts
    at the vertex."""
    if not g.is_tree():
        raise ValueError(f"tree_walk needs a tree, got {g!r}")
    adj = g.adjacency
    parent = [-1] * g.n
    depth = [0] * g.n
    order: list[int] = []
    stack = [0]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                depth[w] = depth[v] + 1
                stack.append(w)
    return parent, depth, order


def _tree_distances(g: Graph) -> np.ndarray:
    """All-pairs distances of a tree, as a C-contiguous int64 array, from
    d(u, v) = depth u + depth v - 2 * depth lca(u, v), with no loop over
    vertices or layers.

    Work in ``tree_walk``'s preorder positions.  The subtree of position s
    is the run s..last[s] of the preorder, with last[s] = s + size - 1, so
    the ancestors-or-self of position i are the s <= i with last[s] >= i,
    one per depth 0..depth i.  For i <= j, s is an ancestor-or-self of
    both positions exactly when its run contains i and j, that is, when
    s <= i and last[s] >= j.  So the prefix count along row j of
    the mask [last[s] >= j], T[j, i] = #{s <= i : last[s] >= j}, is
    depth(lca) + 1 wherever i <= j.  For i <= j, T[i, j] >= T[j, i], since
    it counts more starts (up to j) under a weaker condition (last >= i),
    so min(T, T^T) holds depth(lca) + 1 everywhere, and with p the depths
    in preorder, d = p_i + p_j - 2T + 2.  Two ``take`` calls by the
    preorder number tin then put rows and columns back in vertex order.

    Every count and sum stays within 2n in absolute value (T <= n and the
    depths are below n), so int16 holds them while 2n < 2^15, and int32
    above, as the BFS kernel picks its accumulator.  The count runs along
    the contiguous axis, and each n x n intermediate is freed once the next
    is built, so at most one small-int array lives beside the int64 result
    (about 40 MB at the default cap).
    """
    n = g.n
    parent, depth, order = tree_walk(g)
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    acc_type = np.int16 if 2 * n < 2**15 else np.int32
    pos = np.arange(n)
    last = pos + np.array(size)[order] - 1
    inside = last >= pos[:, None]
    t = np.cumsum(inside, axis=1, dtype=acc_type)
    del inside
    t = np.minimum(t, t.T)
    t *= -2
    p = np.array(depth, dtype=acc_type)[order] + 1
    t += p[:, None]
    t += p
    tin = np.empty(n, dtype=np.intp)
    tin[order] = pos
    t = t.take(tin, axis=0)
    t = t.take(tin, axis=1)
    return t.astype(np.int64)


def interval(dm: DistanceMatrix, u: int, v: int) -> list[int]:
    """All vertices metrically between u and v: d(u,x)+d(x,v) = d(u,v)."""
    _check_vertex(dm.n, u, "u")
    _check_vertex(dm.n, v, "v")
    d = dm.d
    return np.flatnonzero(d[u] + d[v] == d[u, v]).tolist()


def ball_members(dm: DistanceMatrix, b: Ball) -> list[int]:
    _check_vertex(dm.n, b.center, "ball center")
    return np.flatnonzero(dm.d[b.center] <= b.radius).tolist()


def gromov_product(dm: DistanceMatrix, y: int, z: int, w: int) -> HalfInt:
    """(y|z)_w = (d(y,w) + d(z,w) - d(y,z)) / 2, exactly."""
    for name, x in (("y", y), ("z", z), ("w", w)):
        _check_vertex(dm.n, x, name)
    d = dm.d
    return HalfInt.from_doubled(int(d[y, w]) + int(d[z, w]) - int(d[y, z]))


def set_distance(dm: DistanceMatrix, X: Sequence[int], Y: Sequence[int]) -> int:
    """min d(x,y) over x in X, y in Y; 0 iff the sets intersect."""
    xs = check_vertices(dm.n, X, "X")
    ys = check_vertices(dm.n, Y, "Y")
    if not xs or not ys:
        raise ValueError("set_distance needs two nonempty vertex sets")
    return int(dm.d[np.ix_(xs, ys)].min())


def _padded(sets: Sequence[Sequence[int]], n: int) -> np.ndarray:
    """The vertex lists ``sets`` as the rows of one index array, each padded
    to the largest size by repeating its first member, so that a min over a
    row of a gathered array is the min over the set.  An empty set, or a
    vertex outside 0..n-1, raises, where a negative one would wrap."""
    if not all(map(len, sets)):
        raise ValueError("cannot take the distance to an empty set")
    sizes = np.fromiter(map(len, sets), dtype=np.intp, count=len(sets))
    flat = np.fromiter(chain.from_iterable(sets), dtype=np.intp, count=int(sizes.sum()))
    if len(flat) and (flat.min() < 0 or flat.max() >= n):
        bad = min(v for v in flat.tolist() if not 0 <= v < n)
        raise ValueError(f"set contains vertex {bad}, out of range for n={n}")
    starts = np.cumsum(sizes) - sizes
    cols = np.arange(sizes.max(initial=1))
    return flat[starts[:, None] + np.where(cols < sizes[:, None], cols, 0)]


def _by_size(sets: Sequence[Sequence[int]], n: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The ``_padded`` rows largest first: (order, idx, live) with idx =
    _padded(sets, n)[order], ``order`` sorting by decreasing size (ties in
    any order), and live[c] the number of rows with more than c members,
    so column c of the first live[c] rows holds no padding."""
    sizes = np.fromiter(map(len, sets), dtype=np.intp, count=len(sets))
    order = np.argsort(-sizes)
    idx = _padded(sets, n)[order]
    live = (np.arange(idx.shape[1]) < sizes[:, None]).sum(axis=0).tolist()
    return order, idx, live


def _padded_min(a: np.ndarray, idx: np.ndarray, live: Sequence[int]) -> np.ndarray:
    """Row k is the elementwise minimum of the rows a[v] over the members v
    of row k of a ``_by_size`` layout: one gather per member position, and
    column c updates only the first live[c] rows."""
    block = a[idx[:, 0]]
    for c, m in enumerate(live[1:], 1):
        np.minimum(block[:m], a[idx[:m, c]], out=block[:m])
    return block


def _min_rows(a: np.ndarray, sets: Sequence[Sequence[int]]) -> np.ndarray:
    """Row i is the elementwise minimum of the rows a[v], v in sets[i]; with
    ``a = dm.d`` entry (i, v) is d(v, sets[i]).  Sets are checked as by
    ``_padded``, with n = len(a)."""
    if not len(sets):
        return np.empty((0, a.shape[1]), dtype=a.dtype)
    order, idx, live = _by_size(sets, len(a))
    out = np.empty((len(sets), a.shape[1]), dtype=a.dtype)
    out[order] = _padded_min(a, idx, live)
    return out


def _set_block(
    dm: DistanceMatrix, sets: Sequence[Sequence[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """(near, gaps) of a family of vertex lists, checked as by ``_padded``:
    near[i, v] = d(v, sets[i]) as an S x n block, and gaps[i, j] =
    d(sets[i], sets[j]) = min of near[i] over sets[j], as an S x S block."""
    near = _min_rows(dm.d, sets)
    return near, _min_rows(near.T, sets)


def intercepted_pairs(
    g: Graph, dm: DistanceMatrix, b: Ball, pairs: Sequence[tuple[int, int]]
) -> np.ndarray:
    """For each pair (x, y), whether every (x,y)-geodesic meets the ball, as
    a boolean array.  A pair with x or y inside the ball counts as
    intercepted: the degenerate geodesic endpoint is trivially hit.

    On a tree each pair has one geodesic, and the Gromov product (x|y)_c is
    its distance from the center c, so the answer is one exact integer
    test, d(c,x) + d(c,y) - d(x,y) <= 2r, with no BFS.

    On other graphs, one ``multi_source_distances`` call from the distinct
    first endpoints, or the second ones if they are fewer, tests whether
    each pair's distance strictly increases (or x and y fall apart) once
    the ball is deleted.
    """
    p = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    if p.size and (p.min() < 0 or p.max() >= g.n):
        raise ValueError(f"pairs contain a vertex out of range for n={g.n}")
    _check_vertex(dm.n, b.center, "ball center")
    d = dm.d
    xs, ys = p[:, 0], p[:, 1]
    if g.is_tree():
        return d[b.center, xs] + d[b.center, ys] - d[xs, ys] <= 2 * b.radius
    inside = d[b.center] <= b.radius
    hit = inside[xs] | inside[ys]
    rest = np.flatnonzero(~hit)
    if rest.size:
        xs, ys = xs[rest], ys[rest]
        row = np.zeros((2, g.n), dtype=np.intp)
        row[0, xs] = 1
        row[1, ys] = 1
        if row[1].sum() < row[0].sum():
            xs, ys, row = ys, xs, row[1]  # geodesics reversed are geodesics
        else:
            row = row[0]
        sources = np.flatnonzero(row)
        row[sources] = np.arange(len(sources))
        dist = multi_source_distances(g, sources.tolist(), np.flatnonzero(inside).tolist())
        hit[rest] = dist[row[xs], ys] != d[xs, ys]
    return hit


def descend_geodesic(g: Graph, dm: DistanceMatrix, start: int, goal: int) -> list[int]:
    """One concrete geodesic from start to goal.

    Greedy descent on the distance-to-goal field, taking the smallest-id
    neighbor at every step, so the result is deterministic.
    """
    _check_vertex(g.n, start, "start")
    _check_vertex(g.n, goal, "goal")
    return list(_descent(g, dm, start, goal))


def _descent(g: Graph, dm: DistanceMatrix, start: int, goal: int) -> Iterator[int]:
    """The vertices of ``descend_geodesic``, lazily, so a caller that needs
    only the first steps does not walk the rest."""
    to_goal = dm.d[:, goal].tolist()
    cur = start
    yield cur
    while cur != goal:
        target = to_goal[cur] - 1
        cur = min(w for w in g.adjacency[cur] if to_goal[w] == target)
        yield cur
