"""Seeded synthetic graph generators: paths, cycles, grids, random trees,
connected G(n,p), and the star-plus-path family whose centroid sits
7/2 + 3/(2*sqrt(n)) (rounded: 4) hops from a radius-0 traffic core at the hub.

Everything is deterministic given the seed; reports record the PRNG
identifier ("python-random-mt19937") for reproducibility.
"""

from __future__ import annotations

import math
import random

from .graphs import Graph

PRNG_ID = "python-random-mt19937"

# each kind and the parameters it reads; the seed is global, so not listed
KINDS = {
    "tree": ("n",), "path": ("n",), "cycle": ("n",),
    "grid": ("rows", "cols"), "star_path_Tn": ("n",), "gnp_connected": ("n", "p"),
}


def path_graph(n: int) -> Graph:
    if n < 2:
        raise ValueError(f"path needs n >= 2, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def grid_graph(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError(f"grid needs at least two vertices, got {rows}x{cols}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def random_tree(n: int, seed: int) -> Graph:
    """Random recursive tree: vertex i attaches to a uniform earlier vertex."""
    if n < 2:
        raise ValueError(f"tree needs n >= 2, got {n}")
    rng = random.Random(seed)
    return Graph(n, [(rng.randrange(i), i) for i in range(1, n)])


def star_path_graph(n: int) -> Graph:
    """Path on 3*sqrt(n) vertices plus a star of n - 3*sqrt(n) leaves centered
    at the path's end vertex.  Requires n to be a perfect square with
    sqrt(n) >= 3 so the leaf count is nonnegative."""
    k = math.isqrt(n)
    if k * k != n:
        raise ValueError(f"star_path_Tn needs a perfect square, got n={n}")
    path_len = 3 * k
    if path_len > n:
        raise ValueError(f"star_path_Tn needs n >= 3*sqrt(n), got n={n}")
    edges = [(i, i + 1) for i in range(path_len - 1)]
    hub = path_len - 1
    edges += [(hub, leaf) for leaf in range(path_len, n)]
    return Graph(n, edges)


def gnp_connected(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n,p), resampled until connected."""
    if n < 2:
        raise ValueError(f"gnp needs n >= 2, got {n}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"gnp needs 0 < p <= 1, got {p}")
    rng = random.Random(seed)
    for _ in range(1000):
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        try:
            return Graph(n, edges)
        except ValueError:
            pass  # the edges are in range and distinct, so the sample is disconnected
    raise ValueError(f"no connected G({n},{p}) sample within 1000 attempts; raise p")


def generate(
    kind: str, *, n: int | None = None, p: float | None = None, rows: int | None = None,
    cols: int | None = None, seed: int = 0,
) -> Graph:
    """Dispatch on the kind, refusing a parameter it does not read."""
    if kind not in KINDS:
        raise ValueError(f"unknown generator kind {kind!r}; known: {', '.join(KINDS)}")
    for name, value in (("n", n), ("p", p), ("rows", rows), ("cols", cols)):
        if value is not None and name not in KINDS[kind]:
            raise ValueError(f"generator {kind!r} takes no parameter {name}")
    if kind == "path":
        return path_graph(_need(n, "n", kind))
    if kind == "cycle":
        return cycle_graph(_need(n, "n", kind))
    if kind == "grid":
        rows = _need(rows, "rows", kind)
        return grid_graph(rows, cols if cols is not None else rows)
    if kind == "tree":
        return random_tree(_need(n, "n", kind), seed)
    if kind == "star_path_Tn":
        return star_path_graph(_need(n, "n", kind))
    if p is None:  # gnp_connected, the one kind left
        raise ValueError("gnp_connected needs p")
    return gnp_connected(_need(n, "n", kind), p, seed)


def _need(value, name, kind):
    if value is None:
        raise ValueError(f"generator {kind!r} needs parameter {name}")
    return value
