"""Output checks for every job report.

Each check recomputes what it can from the benchmark's own graph, with code
that shares nothing with the program: a separate four-point scan and
interval-thinness pass, an exact interception count for every candidate
core center, tree formulas for traffic, and direct ball/path tests for the
certificates.  On the smallest graph of each workload the brute-force
oracles in ``tests/oracles.py`` are consulted as well.  Where the stored
expected values (made from the seed commit by ``make_expected.py``) hold an
entry for the job, the pinned fields must also match them exactly.
"""

from __future__ import annotations

import importlib.util
import json
import math
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from scipy.optimize import linprog

from workloads import BenchGraph, Job, bfs, tree_path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"


def load_oracles(root: Path):
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("hypercore_test_oracles", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def load_expected(workload: str, seed: int) -> dict | None:
    """Pinned fields per job id for this seed, or None when none are stored."""
    if not EXPECTED_PATH.is_file():
        return None
    data = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    return data["seeds"].get(str(seed), {}).get(workload)


def pinned_fields(command: str, report: dict) -> dict:
    """The report fields whose exact values are pinned by the seed commit."""
    if command == "hyperbolicity":
        return {"delta2": report["delta"]["doubled"], "interval_thinness": report["interval_thinness"]}
    if command == "core":
        keys = ("center", "radius", "intercepted_pairs")
        return {k: report[k] for k in keys}
    if command == "traffic":
        return {"mu": report["mu"]["rational"]}
    if command == "kappa":
        return {"packing": report["lp_optima"]["packing"], "hitting": report["lp_optima"]["hitting"]}
    return {}


# -- independent computations ------------------------------------------------


def apsp(g: BenchGraph) -> np.ndarray:
    return np.array([bfs(g.adj, s) for s in range(g.n)], dtype=np.int64)


def adjacency_matrix(g: BenchGraph) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=np.float32)
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    return a


def distances_avoiding(a: np.ndarray, sources: np.ndarray, keep: np.ndarray, limit: int):
    """Hop distances from ``sources`` inside the subgraph of kept vertices,
    explored up to ``limit`` hops; -1 where not reached.  One boolean
    frontier expansion per hop for all sources at once."""
    sub = a * keep[None, :]
    dist = np.full((len(sources), a.shape[0]), -1, dtype=np.int64)
    frontier = np.zeros_like(dist, dtype=bool)
    frontier[np.arange(len(sources)), sources] = True
    dist[frontier] = 0
    reached = frontier.copy()
    for level in range(1, limit + 1):
        frontier = ((frontier.astype(np.float32) @ sub) > 0) & ~reached
        if not frontier.any():
            break
        dist[frontier] = level
        reached |= frontier
    return dist


def four_point_doubled(d: np.ndarray) -> int:
    """Largest gap between the two largest pair sums over u<v<x,y."""
    n = len(d)
    best = 0
    for u in range(n - 3):
        du = d[u]
        for v in range(u + 1, n - 2):
            dv = d[v]
            rest = slice(v + 1, n)
            s1 = d[u, v] + d[rest, rest]
            s2 = du[rest, None] + dv[None, rest]
            s3 = dv[rest, None] + du[None, rest]
            top = np.maximum(s1, np.maximum(s2, s3))
            low = np.minimum(s1, np.minimum(s2, s3))
            gap = int((2 * top + low - s1 - s2 - s3).max())
            best = max(best, gap)
    return best


def defect_doubled(d: np.ndarray, quad) -> int:
    u, v, x, y = quad
    sums = sorted((d[u, v] + d[x, y], d[u, x] + d[v, y], d[u, y] + d[v, x]))
    return int(sums[2] - sums[1])


def interval_thinness(d: np.ndarray) -> int:
    """Largest d(x, y) over x, y in one interval I(u, v) at equal distance
    from u.  x, y share an interval from u exactly when some v has both on
    its u-geodesics, which one matrix product per u decides."""
    best = 0
    for u in range(len(d)):
        du = d[u]
        member = (du[None, :] + d == du[:, None]).astype(np.float32)  # [v, x]
        together = (member.T @ member) > 0
        same_level = du[:, None] == du[None, :]
        mask = together & same_level
        if mask.any():
            best = max(best, int(d[mask].max()))
    return best


def core_counts(g: BenchGraph, d: np.ndarray, a: np.ndarray, profile, rho: int) -> np.ndarray:
    """Exact count of profile pairs intercepted by B(c, rho), for every c."""
    X = np.array(sorted(set(profile)))
    total = len(X) * (len(X) - 1) // 2
    if rho == 0 and g.is_tree:
        return _tree_counts(g, X, total)
    upper = np.triu(np.ones((len(X), len(X)), dtype=bool), 1)
    far = int(d[np.ix_(X, X)].max())
    counts = np.empty(g.n, dtype=np.int64)
    for c in range(g.n):
        keep = d[c] > rho
        out = keep[X]
        xs = X[out]
        dist = distances_avoiding(a, xs, keep, far)[:, xs]
        missed = (dist == d[np.ix_(xs, xs)]) & upper[np.ix_(out, out)]
        counts[c] = total - int(missed.sum())
    return counts


def _tree_counts(g: BenchGraph, X: np.ndarray, total: int) -> np.ndarray:
    """Radius 0 in a tree: a pair is missed when both ends lie in one
    component of T - c."""
    n = g.n
    order, parent = [0], [-1] * n
    for u in order:
        for w in g.adj[u]:
            if w != parent[u]:
                parent[w] = u
                order.append(w)
    inside = [0] * n
    for x in X:
        inside[int(x)] = 1
    below = inside[:]
    for u in reversed(order[1:]):
        below[parent[u]] += below[u]
    nx = len(X)
    counts = np.empty(n, dtype=np.int64)
    for c in range(n):
        parts = [below[w] for w in g.adj[c] if parent[w] == c] + [nx - below[c]]
        counts[c] = total - sum(k * (k - 1) // 2 for k in parts)
    return counts


def tree_traffic(g: BenchGraph, subset, pairs) -> int:
    """Traffic load in a tree: geodesics are unique, so a pair counts 1 when
    its path meets the set, which happens unless both ends fall in one
    component of T - S."""
    inside = set(subset)
    comp = [-1] * g.n
    sizes = []
    for s in range(g.n):
        if s in inside or comp[s] >= 0:
            continue
        comp[s] = len(sizes)
        stack, size = [s], 0
        while stack:
            u = stack.pop()
            size += 1
            for w in g.adj[u]:
                if w not in inside and comp[w] < 0:
                    comp[w] = comp[s]
                    stack.append(w)
        sizes.append(size)
    if pairs is None:
        return g.n * (g.n - 1) - sum(k * (k - 1) for k in sizes)
    return sum(1 for s, t in pairs if comp[s] < 0 or comp[t] < 0 or comp[s] != comp[t])


class _LP:
    """Dense LP in the shape ``lp_optimum_by_vertex_enumeration`` expects."""

    def __init__(self, direction, rows, senses, rhs):
        self.direction = direction
        self.rows = rows
        self.num_vars = len(rows[0])
        self.objective = [Fraction(1)] * self.num_vars
        self.senses = senses
        self.rhs = rhs

    def dense_rows(self):
        return [row[:] for row in self.rows]


# -- per-command checks -------------------------------------------------------


class Checker:
    """Validates reports of one corpus; distance data is computed once per graph."""

    def __init__(self, corpus, oracles, expected: dict | None):
        self.corpus = corpus
        self.oracles = oracles
        self.expected = expected
        self._d: dict[str, np.ndarray] = {}
        self._a: dict[str, np.ndarray] = {}

    def dist(self, name: str) -> np.ndarray:
        if name not in self._d:
            self._d[name] = apsp(self.corpus.graphs[name])
        return self._d[name]

    def adjacency(self, name: str) -> np.ndarray:
        if name not in self._a:
            self._a[name] = adjacency_matrix(self.corpus.graphs[name])
        return self._a[name]

    def check(self, job: Job, code: int, report: dict | None) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        if report is None:
            return ["no report written"]
        errors = []
        if report.get("command") != job.command:
            errors.append(f"report command {report.get('command')!r}")
            return errors
        errors += getattr(self, "_" + job.command)(job, report)
        got = pinned_fields(job.command, report)
        if self.expected is not None and got:
            want = self.expected.get(job.id)
            if want is None:
                errors.append("no pinned entry for this job: regenerate expected.json")
            elif got != want:
                errors.append(f"pinned fields {got} != {want}")
        return errors

    def _hyperbolicity(self, job, rep):
        g = self.corpus.graphs[job.graph]
        d = self.dist(job.graph)
        errors = []
        got = rep["delta"]["doubled"]
        want = four_point_doubled(d)
        if got != want:
            errors.append(f"2*delta {got} != {want}")
        witness = [int(v) for v in rep["witness"]]
        if defect_doubled(d, witness) != got:
            errors.append(f"witness {witness} has defect {defect_doubled(d, witness)}/2")
        if rep["exact"] is not True:
            errors.append("delta not exact")
        thin = interval_thinness(d)
        if rep["interval_thinness"] != thin:
            errors.append(f"interval thinness {rep['interval_thinness']} != {thin}")
        ecc = d.max(axis=1)
        center = [str(v) for v in np.flatnonzero(ecc == ecc.min())]
        if (rep["diameter"], rep["radius"], rep["center"]) != (int(ecc.max()), int(ecc.min()), center):
            errors.append("diameter, radius or center differ")
        if job.oracle:
            naive = self.oracles.naive_four_point_delta_doubled(SimpleNamespace(n=g.n, d=d))
            if naive != got:
                errors.append(f"oracle 2*delta {naive} != {got}")
        return errors

    def _core(self, job, rep):
        g = self.corpus.graphs[job.graph]
        d = self.dist(job.graph)
        profile = sorted(set(job.data["profile"]))
        nx = len(profile)
        threshold = math.ceil(Fraction(nx * nx, 4))
        rho = rep["radius"]
        errors = []
        if g.is_tree and rho != 0:
            # On a tree the profile's weighted centroid alone intercepts at
            # least ceil(|X|^2/4) pairs, so the core always has radius 0.
            return [f"tree core has radius {rho}, not 0"]
        a = None if g.is_tree else self.adjacency(job.graph)
        counts = core_counts(g, d, a, profile, rho)
        top = int(counts.max())
        if top < threshold:
            errors.append(f"no center reaches {threshold} pairs at radius {rho}")
        else:
            best = int(np.flatnonzero(counts == top)[0])
            if (int(rep["center"]), rep["intercepted_pairs"]) != (best, top):
                errors.append(
                    f"core {rep['center']}/{rep['intercepted_pairs']} != {best}/{top}"
                )
        if rho > 0:
            below = core_counts(g, d, a, profile, rho - 1)
            if below.max() >= threshold:
                errors.append(f"radius {rho - 1} already reaches the threshold")
        if rep["total_pairs"] != nx * (nx - 1) // 2:
            errors.append("total_pairs")
        median = int(d[:, profile].sum(axis=1).argmin())
        if rep["median_vertex"] != str(median):
            errors.append(f"median vertex {rep['median_vertex']} != {median}")
        return errors

    def _traffic(self, job, rep):
        g = self.corpus.graphs[job.graph]
        subset, pairs = job.data["set"], job.data["pairs"]
        if g.is_tree:
            want = Fraction(tree_traffic(g, subset, pairs))
        else:
            if pairs is None:
                pairs = [(s, t) for s in range(g.n) for t in range(g.n) if s != t]
            want = self.oracles.naive_traffic_load(
                SimpleNamespace(adjacency=g.adj), SimpleNamespace(d=self.dist(job.graph)),
                pairs, subset,
            )
        got = rep["mu"]["rational"]
        if got != f"{want.numerator}/{want.denominator}":
            return [f"mu {got} != {want}"]
        return []

    def _ball_dist(self, name: str, center: int) -> list[int]:
        return bfs(self.corpus.graphs[name].adj, center)

    def _multicore(self, job, rep):
        g = self.corpus.graphs[job.graph]
        errors = [] if rep["covered"] is True else ["covered is false"]
        # In a tree a pair is intercepted by B(c, r) iff its path meets it.
        rows = [self._ball_dist(job.graph, int(c)) for c in rep["centers"]]
        commodity = Path(job.argv[job.argv.index("--commodity") + 1])
        for line in commodity.read_text(encoding="utf-8").splitlines():
            x, y = map(int, line.split())
            path = tree_path(g.adj, x, y)
            if not any(min(row[w] for w in path) <= rep["radius"] for row in rows):
                errors.append(f"pair {x} {y} not intercepted")
                break
        return errors

    def _beamcore(self, job, rep):
        flags = (
            rep["all_beams_intercepted"],
            rep["structural"]["diam_rad_holds"],
            rep["structural"]["close_to_center_holds"],
        )
        return [] if all(f is True for f in flags) else [f"beamcore flags {flags}"]

    def _family(self, job) -> list[dict]:
        path = Path(job.argv[job.argv.index("--family") + 1])
        return json.loads(path.read_text(encoding="utf-8"))

    def _helly(self, job, rep):
        errors = [] if rep["all_hit"] is True else ["all_hit is false"]
        row = self._ball_dist(job.graph, int(rep["ball"]["center"]))
        for entry in self._family(job):
            if min(row[int(v)] for v in entry["vertices"]) > rep["ball"]["radius"]:
                errors.append(f"ball misses {entry['name']}")
        return errors

    def _hitpack(self, job, rep):
        certs = rep["certificates"]
        errors = [] if certs["hitting"] is True and certs["packing"] is True else [f"{certs}"]
        if len(rep["hitting_set"]) != len(rep["packing"]):
            errors.append("hitting set and packing differ in size")
        rows = [self._ball_dist(job.graph, int(t)) for t in rep["hitting_set"]]
        for entry in self._family(job):
            if min(row[int(v)] for row in rows for v in entry["vertices"]) > rep["hit_radius"]:
                errors.append(f"hitting set misses {entry['name']}")
        return errors

    def _kappa(self, job, rep):
        errors = []
        if not all(v is True for v in rep["certificates"].values()):
            errors.append(f"certificates {rep['certificates']}")
        lp = rep["lp_optima"]
        if lp["gap_zero"] is not True or lp["packing"] != lp["hitting"]:
            errors.append(f"LP optima {lp}")
        pack, hit = self._kappa_highs(job, rep["r_star"])
        if not (math.isclose(Fraction(lp["packing"]), pack, rel_tol=1e-7)
                and math.isclose(Fraction(lp["hitting"]), hit, rel_tol=1e-7)):
            errors.append(f"HiGHS LP optima {pack}, {hit} != {lp}")
        if job.oracle:
            want = self._kappa_oracle(job, rep["r_star"])
            if Fraction(lp["packing"]) != want or Fraction(lp["hitting"]) != want:
                errors.append(f"oracle LP optimum {want} != {lp}")
        return errors

    def _near(self, job, r_star: int) -> np.ndarray:
        """Members x vertices: whether the vertex is within r_star of the member."""
        d = self.dist(job.graph)
        unions = [sorted({int(v) for part in m["parts"] for v in part}) for m in job.data["family"]]
        return np.stack([d[:, u].min(axis=1) <= r_star for u in unions])

    def _kappa_highs(self, job, r_star: int) -> tuple[float, float]:
        """Both fractional LPs at r_star, solved in floating point by HiGHS:
        the packing LP puts weight on members, at most 1 near each vertex;
        the hitting LP puts weight on vertices, at least 1 near each member."""
        near = self._near(job, r_star).astype(float)
        m, n = near.shape
        pack = linprog(-np.ones(m), A_ub=near.T, b_ub=np.ones(n), method="highs")
        hit = linprog(np.ones(n), A_ub=-near, b_ub=-np.ones(m), method="highs")
        if pack.status != 0 or hit.status != 0:
            raise AssertionError(f"HiGHS failed: {pack.message}; {hit.message}")
        return -pack.fun, hit.fun

    def _kappa_oracle(self, job, r_star: int) -> Fraction:
        """Both fractional LPs at r_star, solved by vertex enumeration."""
        near = self._near(job, r_star)
        m, n = near.shape
        one, zero = Fraction(1), Fraction(0)
        packing = _LP("max", [[one if near[i, v] else zero for i in range(m)] for v in range(n)],
                      ["<="] * n, [one] * n)
        hitting = _LP("min", [[one if near[i, v] else zero for v in range(n)] for i in range(m)],
                      [">="] * m, [one] * m)
        pack = self.oracles.lp_optimum_by_vertex_enumeration(packing)
        hit = self.oracles.lp_optimum_by_vertex_enumeration(hitting)
        if pack != hit:
            raise AssertionError(f"oracle LP optima disagree: {pack} != {hit}")
        return pack

