"""Quasiconvexity measurement and the Helly-type machinery built on it:
the greedy primal-dual hitting/packing construction, and the common-ball
center of a 2r-close family, which is its first round.  Every center is
placed one way: the base vertex projected at offset r onto the farthest
remaining set, along the smallest-id descent of ``graphs._descend``.

A family is a list of vertex-id lists, in any order and with repeats.
Its quasiconvexity defects are measured from the distance matrix by
``set_epsilons``, never trusted from input.  ``helly_center`` and
``greedy_hit_pack`` read neither a defect nor a thin-triangle constant:
the caller takes the radius from ``covering_radius``, exactly, with the
constant an int or Fraction (usually 4x the measured four-point
constant), and floors it to an integer only when a concrete ball is built.
Results are plain values: ``greedy_hit_pack`` returns the pair (hitting,
packing) of tuples, and ``helly_center`` its first hit, one vertex id.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

import numpy as np

from .graphs import (
    DistanceMatrix,
    Graph,
    _descend,
    _fold_rows,
    _layout,
    _longer,
    _set_block,
    check_rational,
    check_vertices,
    interval,
    row_chunks,
)


def set_epsilons(dm: DistanceMatrix, vertex_sets: Sequence[Sequence[int]]) -> list[int]:
    """The quasiconvexity defect of each vertex set, from one ``_set_epsilons``
    pass.  Each set is checked in input order, its range before its
    emptiness, so the first bad one raises.

    A set C's defect is the least eps such that every geodesic between
    members of C stays within distance eps of C.  Every geodesic between x
    and y lies in the interval I(x, y), and every interval vertex lies on
    one, so eps is the largest d(z, C) over z in the union of the intervals
    I(x, y), x < y in C, and 0 for a singleton.  The order and repeats of a
    set's vertices change nothing.
    """
    sets = []
    for C in vertex_sets:
        members = check_vertices(dm.n, C, "set")
        if not members:
            raise ValueError("cannot measure quasiconvexity of an empty set")
        sets.append(members)
    return _set_epsilons(dm, sets)


def _set_epsilons(dm: DistanceMatrix, sets: Sequence[Sequence[int]]) -> list[int]:
    """eps of every set of a family of nonempty, in-range vertex lists.

    eps(S) = max{d(z, S) : z in I(x, y), x < y in S}, and 0 for a singleton,
    where z lies in I(x, y) iff d(x, z) + d(z, y) = d(x, y): the union of
    the pairwise intervals, over the pairs of the pair loop
    (``tests/oracles.py``), so the values are the same.

    The sets are laid out largest first and unpadded (``graphs._layout``).
    For each member position b, the m sets with more than b members come
    first: their member b is flat[first[:m] + b] and their earlier members
    are flat[first[:m, None] + arange(b)].  They test the pairs (a, b),
    a < b, at once: a (sets x a x n) block of d(x, .) + d(y, .) compared
    with d(x, y) and OR-ed over a into the set's union mask.  A block holds
    at most 2**16 elements (``graphs.row_chunks``): whole sets while b*n
    fits, otherwise one set and a run of its earlier members.
    The matrix's distance type holds a sum of two distances, so the sums
    are formed in place (int16 below 16,384 vertices: a block takes 128 KB).
    """
    d, n = dm.d, dm.n
    order, flat, first, sizes = _layout(sets, n)
    near = _fold_rows(np.minimum, d, flat, first, sizes)  # d(v, S), layout order
    between = np.zeros(near.shape, dtype=bool)  # union of the set's intervals
    for b, m in enumerate(_longer(sizes)[1:], 1):
        # the sets with more than b members: earlier members x, member b as y
        xs, ys, mask = flat[first[:m, None] + np.arange(b)], flat[first[:m] + b], between[:m]
        y_rows = d.take(ys, axis=0)[:, None, :]
        for s in row_chunks(m, b * n):
            for a in row_chunks(b, n * (s.stop - s.start)):
                x = xs[s, a]
                block = d.take(x, axis=0)
                block += y_rows[s]
                mask[s] |= (block == d[x, ys[s, None]][:, :, None]).any(axis=1)
    eps = np.empty(len(sets), dtype=np.int64)
    eps[order] = np.where(between, near, 0).max(axis=1)
    return eps.tolist()


def covering_radius(r: int, epsilon: int, delta: Fraction) -> Fraction:
    """max(2*eps + 5*delta, r + eps + 3*delta), exactly."""
    check_rational(delta, "delta")
    return max(2 * epsilon + delta * 5, r + epsilon + delta * 3)


def helly_center(
    g: Graph,
    dm: DistanceMatrix,
    sets: Sequence[Sequence[int]],
    r: int,
    *,
    z: int = 0,
    names: Sequence[str] | None = None,
) -> int:
    """The center of a single ball meeting every set of a pairwise 2r-close
    family: the base vertex z projected onto the farthest set at offset r,
    which is ``greedy_hit_pack``'s one round on such a family.

    With eps the sets' quasiconvexity defect and delta a sound thin-triangle
    constant, the ball of radius floor(covering_radius(r, eps, delta))
    around it meets every set; this pass reads neither.  Pairwise
    2r-closeness is checked up front, and a refusal names the sets by
    ``names``, ``set[i]`` when not given.
    """
    if r < 0:
        raise ValueError(f"negative closeness radius {r}")
    if not sets:
        raise ValueError("family must contain at least one set")
    check_vertices(dm.n, [z], "base vertex")
    _, gaps = _set_block(dm, sets)
    far = np.flatnonzero(np.triu(gaps > 2 * r, 1))  # the first pair i < j in row order
    if len(far):
        i, j = divmod(int(far[0]), len(gaps))
        name_i, name_j = (names[i], names[j]) if names is not None else (f"set[{i}]", f"set[{j}]")
        raise ValueError(
            f"{name_i} and {name_j} are {int(gaps[i, j])} apart, "
            f"more than 2r = {2 * r}: family is not pairwise 2r-close"
        )
    return greedy_hit_pack(g, dm, sets, r, z=z)[0][0]


def greedy_hit_pack(
    g: Graph,
    dm: DistanceMatrix,
    sets: Sequence[Sequence[int]],
    r: int,
    *,
    z: int = 0,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Primal-dual greedy over vertex sets at gap r: one hitting vertex and
    one packed set per round, returned as (hitting, packing) tuples.

    Rounds pick the remaining set farthest from z (smallest index on ties),
    project z onto it at offset r, then discard every remaining set within
    2r of the pick.  The projection starts at the pick's smallest-id member
    nearest z and walks min(r, d(z, pick)) hops toward z (``_descend``), so
    it stops at z when r reaches past it.  Discarded sets lie within the
    covering radius of the projection point (``covering_radius``), so the
    hitting set and the packing come out the same size.
    The sets indexed by the packing are pairwise more than 2r apart.  Every
    set lies within floor(covering_radius(r, eps, delta)) of the hitting
    set, for eps the sets' quasiconvexity defect and delta a sound
    thin-triangle constant; the pass itself reads neither.  d(z, S) and each
    pick's row d(pick, S) are one ``reduceat`` each over one
    ``graphs._layout``: linear in the total set size.
    """
    if r < 0:
        raise ValueError(f"negative packing gap {r}")
    check_vertices(dm.n, [z], "base vertex")
    d = dm.d
    _, flat, first, _ = _layout(sets, dm.n)
    starts = np.sort(first)  # flat holds the nonempty sets in input order
    to_z = d[z, flat]
    dists = np.minimum.reduceat(to_z, starts).tolist()  # d(z, S) per set
    remaining = list(range(len(sets)))
    hitting: list[int] = []
    packing: list[int] = []
    while remaining:
        pick = max(remaining, key=lambda i: (dists[i], -i))
        span = slice(starts[pick], starts[pick] + len(sets[pick]))
        members = flat[span]
        nearest = int(members[to_z[span] == dists[pick]].min())
        hitting.append(_descend(g, dm, nearest, z, min(r, dists[pick])))
        packing.append(pick)
        near = d.take(members, axis=0).min(axis=0)  # d(v, pick) for every v
        apart = (np.minimum.reduceat(near[flat], starts) > 2 * r).tolist()  # the pick is at 0
        remaining = [j for j in remaining if apart[j]]
    return tuple(hitting), tuple(packing)


def is_interval_like(dm: DistanceMatrix, members: Sequence[int]) -> bool:
    """True when the set equals the interval of its own diametral pair.

    Such sets behave like geodesics in the covering bounds; callers report
    the tighter geodesic constants for them without asserting those.
    """
    ms = check_vertices(dm.n, members, "set")
    if not ms:
        raise ValueError("an empty set is not interval-like")
    sub = dm.d.take(ms, axis=0).take(ms, axis=1)
    flat = int(sub.argmax())
    u, v = ms[flat // len(ms)], ms[flat % len(ms)]
    return ms == interval(dm, u, v)


def geodesic_covering_radius(r: int, delta: Fraction) -> Fraction:
    """Tighter covering radius applicable when all members are geodesic-like:
    2*delta for intersecting families, max(r + 3*delta, 4*delta) otherwise."""
    check_rational(delta, "delta")
    if r == 0:
        return delta * 2
    return max(r + delta * 3, delta * 4)
