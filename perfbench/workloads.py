"""Seeded inputs and job lists for the three workloads.

Every input is generated from the workload seed and written as a file; the
program sees only those files.  Graph sizes are fixed per workload, so the
seed changes the structure of the inputs but not how big they are.

Edge lists are written so that the label of a vertex is its rank in
first-appearance order.  The CLI maps labels to ids in that order, so the
program's vertex id equals ``int(label)`` and id-based tie-breaks can be
checked from the labels alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from hypercore.generators import cycle_graph, gnp_connected, grid_graph, random_tree

WORKLOADS = ("delta_scan", "core_traffic", "certify")


@dataclass
class BenchGraph:
    """Undirected graph as the benchmark generated it, labels 0..n-1."""

    name: str
    n: int
    edges: list[tuple[int, int]]
    adj: list[list[int]] = field(default_factory=list)
    path: str = ""

    def __post_init__(self):
        self.adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            self.adj[u].append(v)
            self.adj[v].append(u)
        for nbrs in self.adj:
            nbrs.sort()

    @property
    def is_tree(self) -> bool:
        return len(self.edges) == self.n - 1


@dataclass
class Job:
    """One CLI call: ``run_cli(["--out", <report>, *argv])``."""

    id: str
    command: str
    argv: list[str]
    graph: str
    data: dict = field(default_factory=dict)
    oracle: bool = False


@dataclass
class Corpus:
    workload: str
    seed: int
    graphs: dict[str, BenchGraph]
    jobs: list[Job]


def sub_seed(seed: int, name: str) -> int:
    """Independent 64-bit seed for one input, derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _relabel(n: int, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    rank: dict[int, int] = {}
    for u, v in edges:
        for w in (u, v):
            if w not in rank:
                rank[w] = len(rank)
    if len(rank) != n:
        raise ValueError("edge list leaves a vertex isolated")
    return [(rank[u], rank[v]) for u, v in edges]


def _make_graph(name: str, edges: list[tuple[int, int]], n: int) -> BenchGraph:
    return BenchGraph(name=name, n=n, edges=_relabel(n, edges))


def _library_graph(name: str, family: str, seed: int, **size) -> BenchGraph:
    if family == "tree":
        g = random_tree(size["n"], sub_seed(seed, name))
    elif family == "gnp":
        n = size["n"]
        g = gnp_connected(n, 2 * math.log(n) / n, sub_seed(seed, name))
    elif family == "grid":
        g = grid_graph(size["rows"], size["cols"])
    elif family == "cycle":
        g = cycle_graph(size["n"])
    else:
        raise ValueError(f"unknown family {family!r}")
    return _make_graph(name, list(g.edges()), g.n)


def long_tree(name: str, seed: int, n: int, reach: int = 8) -> BenchGraph:
    """Vertex i attaches to one of the ``reach`` vertices before it, which
    gives a diameter of roughly n/4."""
    rng = random.Random(sub_seed(seed, name))
    edges = [(rng.randrange(max(0, i - reach), i), i) for i in range(1, n)]
    return _make_graph(name, edges, n)


def bfs(adj: list[list[int]], source: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            du = dist[u] + 1
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = du
                    nxt.append(w)
        frontier = nxt
    return dist


def tree_path(adj: list[list[int]], a: int, b: int) -> list[int]:
    """The unique a-b path of a tree."""
    dist = bfs(adj, b)
    path = [a]
    while path[-1] != b:
        cur = path[-1]
        path.append(min(w for w in adj[cur] if dist[w] == dist[cur] - 1))
    return path


def _walk(adj, rng: random.Random, start: int, steps: int) -> int:
    cur = start
    for _ in range(steps):
        cur = rng.choice(adj[cur])
    return cur


def _short_path(g: BenchGraph, rng: random.Random, steps: int, near=None) -> list[int]:
    a = rng.choice(near) if near else rng.randrange(g.n)
    b = _walk(g.adj, rng, a, steps)
    return tree_path(g.adj, a, b)


# -- inputs per job kind ------------------------------------------------------
#
# Each input function gets the graph, a generator seeded for this job and a
# path stem for the files it writes, and returns the CLI arguments plus
# whatever the output checks need to know about the inputs.


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _pairs_text(pairs) -> str:
    return "".join(f"{a} {b}\n" for a, b in pairs)


def _hyperbolicity(g, rng, stem):
    return ["hyperbolicity", "--edges", g.path], {}


def _core_all(g, rng, stem):
    return ["core", "--edges", g.path, "--profile", "all"], {"profile": list(range(g.n))}


def _core_third(g, rng, stem):
    profile = sorted(rng.sample(range(g.n), g.n // 3))
    path = _write(stem.with_suffix(".profile"), " ".join(map(str, profile)) + "\n")
    return ["core", "--edges", g.path, "--profile", path], {"profile": profile}


def _traffic_set(rng, g) -> list[int]:
    return sorted(rng.sample(range(g.n), 3))


def _traffic_uniform(g, rng, stem):
    subset = _traffic_set(rng, g)
    argv = ["traffic", "--edges", g.path, "--demand", "uniform",
            "--set", ",".join(map(str, subset))]
    return argv, {"set": subset, "pairs": None}


def _traffic_sparse(g, rng, stem):
    subset = _traffic_set(rng, g)
    pairs = []
    while len(pairs) < min(200, 2 * g.n):
        s, t = rng.randrange(g.n), rng.randrange(g.n)
        if s != t:
            pairs.append((s, t))
    path = _write(stem.with_suffix(".demand"), _pairs_text(pairs))
    argv = ["traffic", "--edges", g.path, "--demand", path,
            "--set", ",".join(map(str, subset))]
    return argv, {"set": subset, "pairs": pairs}


# Certificate jobs run on trees with --delta 0: trees are 0-hyperbolic, so 0
# is the exact constant and every certificate must pass.
DELTA0 = ["--delta", "0"]


def _multicore(g, rng, stem):
    """Demand pairs are endpoints of 6-step walks, so they are local."""
    pairs = []
    while len(pairs) < g.n // 5:
        a = rng.randrange(g.n)
        b = _walk(g.adj, rng, a, 6)
        if a != b:
            pairs.append((a, b))
    path = _write(stem.with_suffix(".commodity"), _pairs_text(pairs))
    return ["multicore", "--edges", g.path, "--commodity", path, "--radius", "2",
            *DELTA0], {}


def _beamcore(g, rng, stem):
    return ["beamcore", "--edges", g.path, *DELTA0], {}


def _family_json(prefix: str, sets) -> str:
    return json.dumps(
        [{"name": f"{prefix}{i}", "vertices": [str(v) for v in s]} for i, s in enumerate(sets)]
    )


def _helly(g, rng, stem):
    """Short paths around one hub, so the family is pairwise close; r is half
    the largest pairwise gap, rounded up."""
    dist_hub = bfs(g.adj, rng.randrange(g.n))
    near = [v for v in range(g.n) if dist_hub[v] <= 4]
    sets = [_short_path(g, rng, 3, near) for _ in range(8)]
    dist = {v: bfs(g.adj, v) for s in sets for v in s}
    gap = max(
        min(dist[a][b] for a in s for b in t) for i, s in enumerate(sets) for t in sets[i + 1 :]
    )
    path = _write(stem.with_suffix(".helly.json"), _family_json("H", sets))
    return ["helly", "--edges", g.path, "--family", path, "--r", str((gap + 1) // 2),
            *DELTA0], {}


def _hitpack(g, rng, stem):
    sets = [_short_path(g, rng, 4) for _ in range(g.n // 8)]
    path = _write(stem.with_suffix(".hitpack.json"), _family_json("P", sets))
    return ["hitpack", "--edges", g.path, "--family", path, "--r", "2", *DELTA0], {}


def _spine(g: BenchGraph) -> list[int]:
    """A longest path of the tree, from a double sweep of BFS."""
    d0 = bfs(g.adj, 0)
    a = d0.index(max(d0))
    da = bfs(g.adj, a)
    return tree_path(g.adj, a, da.index(max(da)))


def _kappa(g, rng, stem, members: int, r: int):
    """Members sit at even steps along the tree's longest path, so that each
    overlaps its neighbours by about the same amount whatever the seed; each
    is the union of two short walks' paths from next to its anchor."""
    spine = _spine(g)
    step = (len(spine) - 1) / max(1, members - 1)
    family = []
    for i in range(members):
        at = min(len(spine) - 1, max(0, round(i * step) + rng.randint(-1, 1)))
        parts = [tree_path(g.adj, spine[at], _walk(g.adj, rng, spine[at], 3)) for _ in range(2)]
        family.append({"name": f"K{i}", "parts": [[str(v) for v in p] for p in parts]})
    path = _write(stem.with_suffix(".kappa.json"), json.dumps(family))
    argv = ["kappa", "--edges", g.path, "--family", path, "--r", str(r), *DELTA0]
    return argv, {"family": family}


def _kappa_scaled(g, rng, stem):
    return _kappa(g, rng, stem, members=12, r=2)


def _kappa_small(g, rng, stem):
    # Small enough for the vertex-enumeration LP oracle.
    return _kappa(g, rng, stem, members=3, r=1)


KINDS = {
    "hyperbolicity": _hyperbolicity,
    "core-all": _core_all,
    "core-third": _core_third,
    "traffic-uniform": _traffic_uniform,
    "traffic-sparse": _traffic_sparse,
    "multicore": _multicore,
    "beamcore": _beamcore,
    "helly": _helly,
    "hitpack": _hitpack,
    "kappa": _kappa_scaled,
    "kappa-small": _kappa_small,
}

# -- workloads -----------------------------------------------------------------
#
# Per workload: the graphs (name, family, size) and the jobs (kind, graph).
# The smallest graph of each workload gets the oracle cross-checks.

_CERTIFY_KINDS = ("multicore", "beamcore", "helly", "hitpack", "kappa")
_CORE_GRIDS = ((6, 8), (7, 9), (8, 10), (9, 11))

_CERTIFY_TREES = (150, 165, 180, 195, 210, 225, 240, 250)
_SIZES = (30, 40, 50, 60, 70, 80, 90)

SPECS = {
    "delta_scan": (
        [(f"tree{n}", "tree", {"n": n}) for n in _SIZES]
        + [(f"gnp{n}", "gnp", {"n": n}) for n in _SIZES]
        + [(f"grid{n // 10}x10", "grid", {"rows": n // 10, "cols": 10}) for n in _SIZES]
        + [(f"cycle{n}", "cycle", {"n": n}) for n in _SIZES]
        + [("gnp18", "gnp", {"n": 18})],
        None,
    ),
    "core_traffic": (
        [(f"gnp{n}", "gnp", {"n": n}) for n in (50, 60, 70, 80, 90, 100)]
        + [(f"grid{r}x{c}", "grid", {"rows": r, "cols": c}) for r, c in _CORE_GRIDS]
        + [(f"cycle{n}", "cycle", {"n": n}) for n in (40, 50, 60, 70, 80)]
        + [(f"tree{n}", "tree", {"n": n}) for n in (500, 1000, 1200)]
        + [("gnp16", "gnp", {"n": 16})],
        [("core-all", f"gnp{n}") for n in (50, 70, 90)]
        + [("core-third", f"gnp{n}") for n in (60, 80, 100)]
        + [("core-all", "grid6x8"), ("core-third", "grid7x9")]
        + [("core-all", "grid8x10"), ("core-third", "grid9x11")]
        + [("core-all", f"cycle{n}") for n in (40, 60)]
        + [("core-third", f"cycle{n}") for n in (50, 70, 80)]
        + [("core-all", "tree1000"), ("core-third", "tree1200")]
        + [("traffic-uniform", "tree500")]
        + [("traffic-sparse", f"tree{n}") for n in (1000, 1200)]
        + [("traffic-uniform", f"gnp{n}") for n in (50, 60)]
        + [("traffic-sparse", f"gnp{n}") for n in (70, 80, 90, 100)]
        + [("core-all", "gnp16"), ("traffic-sparse", "gnp16")],
    ),
    "certify": (
        [(f"long{n}", "long_tree", {"n": n}) for n in _CERTIFY_TREES]
        + [("long10", "long_tree", {"n": 10})],
        [(kind, f"long{n}") for n in _CERTIFY_TREES for kind in (*_CERTIFY_KINDS, "kappa")]
        + [("kappa-small", "long10")],
    ),
}


def _build_graph(name, family, size, seed) -> BenchGraph:
    if family == "long_tree":
        return long_tree(name, seed, size["n"])
    return _library_graph(name, family, seed, **size)


def build_corpus(workload: str, seed: int, workdir: Path) -> Corpus:
    """Generate every input file of ``workload`` into ``workdir``."""
    graph_specs, job_specs = SPECS[workload]
    workdir.mkdir(parents=True, exist_ok=True)
    graphs = {}
    for name, family, size in graph_specs:
        g = _build_graph(name, family, size, seed)
        g.path = _write(workdir / f"{name}.edges", _pairs_text(g.edges))
        graphs[name] = g
    if job_specs is None:
        job_specs = [("hyperbolicity", name) for name in graphs]
    smallest = min(graphs.values(), key=lambda g: g.n).name
    jobs = []
    for index, (kind, gname) in enumerate(job_specs):
        g = graphs[gname]
        job_id = f"{kind}/{gname}#{index}"
        rng = random.Random(sub_seed(seed, job_id))
        argv, data = KINDS[kind](g, rng, workdir / f"job{index:03d}")
        jobs.append(Job(id=job_id, command=argv[0], argv=argv, graph=gname, data=data,
                        oracle=gname == smallest))
    return Corpus(workload=workload, seed=seed, graphs=graphs, jobs=jobs)
