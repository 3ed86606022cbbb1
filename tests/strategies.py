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
