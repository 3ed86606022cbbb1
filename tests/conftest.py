from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hypercore import (
    CoreResult,
    DistanceMatrix,
    Graph,
    distance_matrix,
    four_point_delta,
    min_core,
    multi_source_distances,
)
from hypercore import congestion
from hypercore.generators import cycle_graph, gnp_connected, grid_graph, random_tree

MASTER_SEED = 20260809


@dataclass
class CorpusGraph:
    name: str
    kind: str
    g: Graph
    dm: DistanceMatrix
    delta4: Fraction
    _core: CoreResult | None = field(default=None, repr=False)

    @property
    def thin_delta(self) -> Fraction:
        return self.delta4 * 4

    def full_profile_core(self) -> CoreResult:
        if self._core is None:
            self._core = min_core(self.g, range(self.g.n))
        return self._core


def _corpus_graphs() -> list[tuple[str, str, Graph]]:
    items: list[tuple[str, str, Graph]] = []
    for i in range(60):
        n = 2 + round(i * 58 / 59)
        items.append((f"tree-n{n}-s{i}", "tree", random_tree(n, MASTER_SEED + i)))
    for n in range(4, 21):
        items.append((f"cycle-C{n}", "cycle", cycle_graph(n)))
    for rows in range(2, 7):
        for cols in range(rows, 7):
            items.append((f"grid-{rows}x{cols}", "grid", grid_graph(rows, cols)))
    gnp_sizes = [8, 12, 16, 20, 25, 30, 35, 40, 45, 50, 55, 60]
    factors = [1.2, 1.8, 2.5]
    i = 0
    while len(items) < 200:
        n = gnp_sizes[i % len(gnp_sizes)]
        p = min(0.95, factors[i % len(factors)] * math.log(n) / n)
        items.append(
            (f"gnp-n{n}-{i}", "gnp", gnp_connected(n, p, MASTER_SEED + 7000 + i))
        )
        i += 1
    assert len(items) == 200
    return items


@pytest.fixture(scope="session")
def corpus() -> list[CorpusGraph]:
    out = []
    for name, kind, g in _corpus_graphs():
        dm = distance_matrix(g)
        out.append(
            CorpusGraph(name=name, kind=kind, g=g, dm=dm, delta4=four_point_delta(g, dm).delta)
        )
    return out


def acceptance_line(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def path_count(g: Graph, s: int, t: int) -> int:
    """The number of (s,t)-geodesics as the package counts them for
    ``traffic_load``: ``congestion._path_counts`` from s up to d(s, t),
    with no vertex blocked."""
    dx = multi_source_distances(g, [s])
    return int(congestion._path_counts(g, dx, dx[:, t], np.zeros(g.n, dtype=bool))[t, 0])
