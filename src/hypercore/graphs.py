"""Graph substrate: CSR adjacency, the rooted walk of a tree, BFS, all-pairs
distances, intervals, the row folds over vertex sets, and the ball
interception test.

Graphs and distance matrices are immutable after construction and safe to
share across threads; every operation here is a pure function of them.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from numbers import Rational

import numpy as np

DEFAULT_MATRIX_CAP = 2000
# Elements in one block of gathered distance rows or arc temporaries:
# ``min_core``'s _BLOCK_ELEMS // n^2 sources per pass, whose interception
# bits take at most _BLOCK_ELEMS / 8 bytes per radius, and the bytes of the
# rows it folds or counts at once; ``traffic_load``'s k x 2m arc entries
# (congestion); one gather of the far-apart mask or batch of the thinness
# scan (hyperbolicity).  Bounds the temporaries whatever the layer widths,
# instead of one n x n block at n = 2000.
_BLOCK_ELEMS = 1 << 20
# Sources per bit-parallel BFS pass: its scratch is about five bytes per
# vertex and source besides the result, 5 MB at n = 2000.
_SOURCE_BLOCK = 512


class Graph:
    """Undirected connected simple graph on dense vertex ids 0..n-1, stored as
    its CSR (compressed sparse rows) adjacency: the neighbours of v are
    indices[indptr[v]:indptr[v + 1]] in increasing order; both are read-only intp."""

    __slots__ = ("n", "m", "indptr", "indices", "_walk")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={n}")
        if (
            isinstance(edges, np.ndarray)
            and edges.dtype.kind in "iu"
            and np.can_cast(edges.dtype, np.intp)
            and edges.shape[1:] == (2,)
        ):  # an (m, 2) integer array, such as ``fileio.read_edge_list`` builds
            ends = edges.astype(np.intp, copy=False)
            pairs = True
        else:
            edges = list(edges)
            try:  # an id passes operator.index: a float or a string is refused, not converted
                pairs = max(map(len, edges), default=2) == 2
                ids = map(operator.index, chain.from_iterable(edges))
                ends = np.fromiter(ids, np.intp, 2 * len(edges)).reshape(-1, 2)
            except (TypeError, ValueError, OverflowError):  # no integer, too large, or too few
                pairs = False
        if not pairs or ends.min(initial=0) < 0 or ends.max(initial=0) >= n:
            raise _first_bad_edge(n, edges)
        # the keys u * n + v of both arcs of every edge, sorted: row u is the
        # run of keys in [u * n, (u + 1) * n), in increasing v, and a repeat
        # or a self-loop shows as two equal keys side by side
        keys = (ends * n + ends[:, ::-1]).ravel()
        keys.sort()
        if (keys[1:] == keys[:-1]).any():
            raise _first_bad_edge(n, edges)
        indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        keys %= n
        indptr.flags.writeable = keys.flags.writeable = False
        self.n, self.m, self.indptr, self.indices = n, len(edges), indptr, keys
        # a depth-first walk from 0 checks connectivity, reading no row once
        # every vertex is reached; a tree keeps it for ``tree_walk``, since a
        # vertex's unreached neighbours are its children
        starts, rows = indptr.tolist(), memoryview(keys)  # a slice of rows yields ints
        parent, depth = [-1] * n, [0] + [-1] * (n - 1)
        order: list[int] = []
        stack = [0]
        unreached = n - 1
        while unreached and stack:
            v = stack.pop()
            order.append(v)
            for w in rows[starts[v] : starts[v + 1]]:
                if depth[w] < 0:
                    parent[w] = v
                    depth[w] = depth[v] + 1
                    stack.append(w)
                    unreached -= 1
        if unreached:
            raise ValueError(f"graph is disconnected: vertex {depth.index(-1)} unreachable from 0")
        self._walk = (parent, depth, order + stack[::-1]) if self.is_tree() else None

    def edges(self) -> Iterator[tuple[int, int]]:
        """Every edge once as (u, v), u < v, in increasing (u, v)."""
        heads = np.repeat(np.arange(self.n), np.diff(self.indptr))
        upper = heads < self.indices
        return zip(heads[upper].tolist(), self.indices[upper].tolist())

    def is_tree(self) -> bool:
        return self.m == self.n - 1

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class DuplicateEdgeError(ValueError):
    """A repeated edge; ``positions`` are the input indices of both copies."""

    def __init__(self, u: int, v: int, positions: tuple[int, int]):
        super().__init__(f"duplicate edge ({u},{v})")
        self.positions = positions


def _first_bad_edge(n: int, edges: Sequence[tuple[int, int]]) -> Exception:
    """The error for the first edge, in input order, that is out of range, a
    self-loop or a repeat of an earlier edge; an edge that is no pair of
    integers raises at once, unless a range or self-loop fault comes first."""
    seen: dict[tuple[int, int], int] = {}
    repeat = None
    for i, (u, v) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            return repeat or ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            return repeat or ValueError(f"self-loop at vertex {u}")
        operator.index(u), operator.index(v)
        key = (u, v) if u < v else (v, u)
        first = seen.setdefault(key, i)
        if repeat is None and first != i:
            repeat = DuplicateEdgeError(*key, (first, i))
    return repeat or TypeError("every edge must be a pair with a length")


def _distance_dtype(n: int) -> type[np.signedinteger]:
    """The type of every distance array on n vertices, int16 while 2n < 2^15,
    int32 above: it holds every sum or difference of two distances (< n)."""
    return np.int16 if 2 * n < 2**15 else np.int32


class DistanceMatrix:
    """All-pairs hop distances as a C-contiguous n x n array of the distance
    type (``_distance_dtype``): int16 below 16,384 vertices, int32 above.
    Contiguous, so ``d.ravel()`` is a view and a paired read d[xs, ys] is
    one ``d.ravel().take(xs * n + ys)``."""

    __slots__ = ("d",)

    def __init__(self, d: np.ndarray):
        self.d = np.ascontiguousarray(d, dtype=_distance_dtype(len(d)))

    @property
    def n(self) -> int:
        return self.d.shape[0]


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


def check_rational(x, name: str) -> None:
    """Refuse an inexact constant: only an int or a Fraction keeps formulas exact."""
    if not isinstance(x, Rational):
        raise TypeError(f"{name} must be an int or a Fraction, got {type(x).__name__}")


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
    ``congestion.median_vertex``, the ball table of ``congestion.min_core``,
    ``multicore.interval_family``, the interval blocks of
    ``quasiconvex._set_epsilons`` and the test oracle ``centroid_vertex``
    (``tests/oracles.py``)."""
    step = max(1, 2**16 // n)
    return (slice(lo, lo + step) for lo in range(0, count, step))


def multi_source_distances(
    g: Graph, sources: Sequence[int], deleted: Iterable[int] = ()
) -> np.ndarray:
    """Hop distances from each of ``sources`` in g with the ``deleted``
    vertices removed, as a (len(sources), n) array of the distance type
    whose row i is the distance row of sources[i].  -1 marks a vertex that
    is unreachable or deleted; a source must not be deleted.

    A bit-parallel multi-source BFS (Then et al., VLDB 2014; Akiba, Iwata
    and Yoshida, SIGMOD 2013): every vertex holds a bitset over up to
    _SOURCE_BLOCK sources, and one BFS layer for all of them is an OR of
    the neighbours' frontier bitsets, masked by the bits not yet seen.  The
    distances are kept bit-sliced: the vertices a layer reaches are ORed
    into the bit planes of that layer's number, and the planes are unpacked
    once, into a block of the distance type that is copied, transposed,
    into the result one block of sources at a time.
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
    acc_type = _distance_dtype(n)
    out = np.empty((len(sources), n), dtype=acc_type)
    for lo in range(0, len(sources), _SOURCE_BLOCK):
        block = sources[lo : lo + _SOURCE_BLOCK]
        front = np.zeros((n + 1, -(-len(block) // 64)), dtype="<u8")
        # source i is bit i % 64 of word i // 64, ORed in: a source listed
        # twice keeps both its bits
        i = np.arange(len(block), dtype=np.uint64)
        np.bitwise_or.at(front, (block, i // 64), np.uint64(1) << i % 64)
        # deleted rows count as seen, so no layer ever enters them
        unseen = ~front[:n]
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
        acc = np.zeros((n, 64 * front.shape[1]), dtype=acc_type)
        for j, plane in enumerate(planes):
            acc += np.unpackbits(plane.view(np.uint8), axis=1, bitorder="little").astype(acc_type) << j
        unseen[gone] = ~np.uint64(0)  # a deleted row is unreached
        acc[np.unpackbits(unseen.view(np.uint8), axis=1, bitorder="little").view(bool)] = -1
        out[lo : lo + len(block)] = acc[:, : len(block)].T
    return out


def distance_matrix(g: Graph, *, cap: int = DEFAULT_MATRIX_CAP) -> DistanceMatrix:
    """All-pairs hop distances.  Refuses graphs above ``cap`` vertices
    rather than allocating n^2 integers silently.

    A tree is filled from one prefix count over its preorder
    (``_tree_distances``); any other graph gets one bit-parallel BFS from
    every vertex (``multi_source_distances``)."""
    if g.n > cap:
        raise ValueError(
            f"graph has {g.n} vertices, above the all-pairs cap of {cap}; "
            f"pass cap= explicitly to materialize the matrix anyway"
        )
    d = _tree_distances(g) if g.is_tree() else multi_source_distances(g, range(g.n))
    return DistanceMatrix(d)


def tree_walk(g: Graph) -> tuple[list[int], list[int], list[int]]:
    """Parent (-1 at the root), depth and depth-first preorder of a tree
    rooted at vertex 0.  A parent precedes its children in the preorder,
    and the subtree of each vertex is the run of the preorder that starts
    at the vertex.  They are the lists of the constructor's connectivity
    walk, so nothing is traversed here; they belong to the graph and are
    read-only."""
    if not g.is_tree():
        raise ValueError(f"tree_walk needs a tree, got {g!r}")
    return g._walk


def _tree_distances(g: Graph) -> np.ndarray:
    """All-pairs distances of a tree, as a C-contiguous array of the
    distance type (``_distance_dtype``), with no loop over vertices or
    layers, from d(u, v) = depth u + depth v - 2 * depth lca(u, v).

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
    depths are below n), so the count in the distance type is the result.
    It runs along the contiguous axis, and each n x n intermediate is freed
    once the next is built (about 20 MB at the default cap).
    """
    n = g.n
    parent, depth, order = tree_walk(g)
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    pos = np.arange(n)
    last = pos + np.array(size)[order] - 1
    inside = last >= pos[:, None]
    t = np.cumsum(inside, axis=1, dtype=_distance_dtype(n))
    del inside
    t = np.minimum(t, t.T)
    t *= -2
    p = np.array(depth, dtype=t.dtype)[order] + 1
    t += p[:, None]
    t += p
    tin = np.empty(n, dtype=np.intp)
    tin[order] = pos
    t = t.take(tin, axis=0)
    return t.take(tin, axis=1)


def interval(dm: DistanceMatrix, u: int, v: int) -> list[int]:
    """All vertices metrically between u and v: d(u,x)+d(x,v) = d(u,v)."""
    _check_vertex(dm.n, u, "u")
    _check_vertex(dm.n, v, "v")
    d = dm.d
    return np.flatnonzero(d[u] + d[v] == d[u, v]).tolist()


def _layout(sets: Sequence[Sequence[int]], n: int) -> tuple[np.ndarray, ...]:
    """A family of vertex lists laid out for ``_fold_rows``, unpadded:
    (order, flat, first, sizes), with ``flat`` every member in input order,
    ``order`` sorting the sets by decreasing size (ties in any order), and
    set order[k]'s members flat[first[k] : first[k] + sizes[k]].  An empty
    set raises, and then the smallest vertex outside 0..n-1, where a
    negative one would wrap."""
    if not all(map(len, sets)):
        raise ValueError("cannot take the distance to an empty set")
    sizes = np.fromiter(map(len, sets), dtype=np.intp, count=len(sets))
    flat = np.fromiter(chain.from_iterable(sets), dtype=np.intp, count=int(sizes.sum()))
    if len(flat) and (flat.min() < 0 or flat.max() >= n):
        bad = min(v for v in flat.tolist() if not 0 <= v < n)
        raise ValueError(f"set contains vertex {bad}, out of range for n={n}")
    order = np.argsort(-sizes)
    first = np.cumsum(sizes) - sizes
    return order, flat, first[order], sizes[order]


def _longer(sizes: np.ndarray) -> list[int]:
    """c[j] = the number of groups longer than j, j < max(sizes), for group
    sizes in non-increasing order: those groups are the first c[j]."""
    return np.searchsorted(-sizes, -np.arange(sizes.max(initial=0)), "left").tolist()


def _fold_rows(
    ufunc: np.ufunc, a: np.ndarray, flat: np.ndarray, first: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """Row k is ``ufunc`` folded over the rows a[flat[first[k] + j]], j <
    sizes[k], of nonempty groups in non-increasing size (``_layout``); a
    row may be a scalar (a 1-D ``a``) and of any dtype, object too.  Slot j
    is one gather and one binary ``ufunc`` call over whole rows, for the
    leading groups longer than j (``_longer``).  ``ufunc.reduceat`` over
    the same gathered rows gives the same result, but it gathers every row
    at once and runs one short inner loop per group and column, down the
    group, which is tens of times slower on distance rows."""
    out = a.take(flat[first], axis=0)
    for j, c in enumerate(_longer(sizes)[1:], 1):
        ufunc(out[:c], a.take(flat[first[:c] + j], axis=0), out=out[:c])
    return out


def _min_rows(a: np.ndarray, sets: Sequence[Sequence[int]]) -> np.ndarray:
    """Row i is the elementwise minimum of the rows a[v], v in sets[i]; with
    ``a = dm.d`` entry (i, v) is d(v, sets[i]), and with a 1-D ``a`` entry
    i is min a[sets[i]].  One ``_layout`` with n = len(a), one fold."""
    order, *rows = _layout(sets, len(a))
    return _fold_rows(np.minimum, a, *rows)[np.argsort(order)]


def _set_block(
    dm: DistanceMatrix, sets: Sequence[Sequence[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """(near, gaps) of a family of vertex lists, checked by ``_layout``:
    near[i, v] = d(v, sets[i]) as an S x n block, and gaps[i, j] =
    d(sets[i], sets[j]) = min of near[i] over sets[j], as an S x S block:
    one layout, folded over the rows of d and then of near.T, copied."""
    order, *rows = _layout(sets, dm.n)
    back = np.argsort(order)
    near = _fold_rows(np.minimum, dm.d, *rows)[back]
    return near, _fold_rows(np.minimum, np.ascontiguousarray(near.T), *rows)[back]


def intercepted_pairs(
    g: Graph, dm: DistanceMatrix, center: int, radius: int, pairs: Sequence[tuple[int, int]]
) -> np.ndarray:
    """For each pair (x, y), whether every (x,y)-geodesic meets the closed
    ball B(center, radius), as a boolean array.  A pair with x or y inside
    the ball counts as intercepted: the degenerate geodesic endpoint is
    trivially hit.  A negative radius is refused.

    On a tree each pair has one geodesic, and the Gromov product (x|y)_c is
    its distance from the center c, so the answer is one exact integer
    test, d(c,x) + d(c,y) - d(x,y) <= 2r, with no BFS.

    On other graphs, one ``multi_source_distances`` call from the distinct
    first endpoints, or the second ones if they are fewer, tests whether
    each pair's distance strictly increases (or x and y fall apart) once
    the ball is deleted.
    """
    if radius < 0:
        raise ValueError(f"ball radius must be nonnegative, got {radius}")
    p = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    if p.size and (p.min() < 0 or p.max() >= g.n):
        raise ValueError(f"pairs contain a vertex out of range for n={g.n}")
    _check_vertex(dm.n, center, "ball center")
    d = dm.d
    xs, ys = p[:, 0], p[:, 1]
    if g.is_tree():
        return d[center, xs] + d[center, ys] - d.ravel().take(xs * dm.n + ys) <= 2 * radius
    inside = d[center] <= radius
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
        hit[rest] = dist.ravel().take(row[xs] * g.n + ys) != d.ravel().take(xs * dm.n + ys)
    return hit


def _descent(g: Graph, dm: DistanceMatrix, start: int, goal: int) -> Iterator[int]:
    """One concrete geodesic from start to goal, lazily, so a caller that
    needs only the first steps does not walk the rest.

    Greedy descent on the distance-to-goal field, taking the smallest-id
    neighbor at every step, so the result is deterministic.
    """
    to_goal, rows = dm.d[goal].tolist(), memoryview(g.indices)  # d is symmetric
    cur = start
    yield cur
    while cur != goal:
        target = to_goal[cur] - 1
        row = rows[g.indptr[cur] : g.indptr[cur + 1]]
        cur = next(w for w in row if to_goal[w] == target)  # rows increase
        yield cur
