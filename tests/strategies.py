"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from hypercore import Graph


@st.composite
def connected_graphs(draw, max_n=14, min_n=1, tree=False):
    """A random spanning tree plus random extra edges (none when ``tree``)."""
    n = draw(st.integers(min_n, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    if others and not tree:
        edges |= set(draw(st.lists(st.sampled_from(others), unique=True)))
    return Graph(n, sorted(edges))


def _block_edges(draw, kind):
    """(vertex count, edges) of one small block-like piece."""
    if kind == "clique":
        k = draw(st.integers(2, 5))
        return k, [(a, b) for a in range(k) for b in range(a + 1, k)]
    if kind == "cycle":
        k = draw(st.integers(3, 7))
        return k, [(i, (i + 1) % k) for i in range(k)]
    if kind == "grid":
        rows, cols = draw(st.integers(2, 3)), draw(st.integers(2, 3))
        edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
        edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
        return rows * cols, edges
    g = draw(connected_graphs(max_n=6, min_n=2))
    return g.n, list(g.edges())


@st.composite
def glued_blocks(draw):
    """Cliques, cycles, small grids and connected G(k,p) pieces, each glued
    at one of its vertices onto a vertex of the graph built so far, so the
    glue points are cut vertices."""
    n, edges = 1, []
    for _ in range(draw(st.integers(1, 4))):
        k, piece = _block_edges(draw, draw(st.sampled_from(["clique", "cycle", "grid", "gnp"])))
        at = draw(st.integers(0, n - 1))
        ids = [at, *range(n, n + k - 1)]
        edges += [(ids[a], ids[b]) for a, b in piece]
        n += k - 1
    return Graph(n, edges)
