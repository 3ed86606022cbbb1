"""hypercore benchmark: seeded lists of CLI jobs, run in one process.

    python3 perfbench/run.py --workload delta_scan --seed 1 --seconds 30 --trace 0

Each job is one in-process ``hypercore.cli.run_cli([...])`` call on input
files generated from ``--seed``, with its report written by ``--out`` into a
work directory inside the checkout.  One client runs the whole job list in a
closed loop, round after round.  The number of rounds depends on
``--seconds`` only (one per ``ROUND_S``, at least one), never on how fast
the program is, so every commit is timed on the same number of samples.

Each job time is scaled by a reference kernel timed next to it (see
``Reference``).  ``run_s`` is the median over rounds of a round's summed
job times.  A job's latency is its median time over the rounds;
``job_p50_s`` is the median of the job latencies and ``job_tail_s`` their
highest percentile with at least ten jobs beyond it.  The same three
figures unscaled are printed on the ``#`` line before the result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

# One single-threaded process: keep BLAS pools at one thread before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7  # set-up is timed this many times and the median kept
# Seconds of --seconds per round: a round of any workload took 4.5-7 s at
# the seed commit on a 2-core Xeon, so a 30-second run times five rounds.
ROUND_S = 6.0
REFERENCE_EVERY = 4  # jobs between two reference samples
# The reference kernel's time when the host runs at full speed (its fastest
# samples on a 2-core Xeon): scaled times read as seconds at that speed.
REFERENCE_S = 0.0095


END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}

# Functions whose self time / call count is reported per layer.
SELF_S = (
    "graphs.distance_matrix",
    "graphs.distances_avoiding",
    "graphs.intercepts_pair",
    "hyperbolicity.four_point_delta",
    "hyperbolicity.interval_thinness",
    "hyperbolicity.mutually_distant_pair",
    "congestion.min_core",
    "congestion.traffic_load",
    "congestion.median_vertex",
    "quasiconvex.measure_epsilon",
    "quasiconvex.greedy_hit_pack",
    "quasiconvex.helly_center",
    "multicore.multicore_construct",
    "beamcore.total_beam_core",
    "beamcore.structural_checks",
    "lpkappa.kappa_hit_pack",
    "lpkappa.gamma_sets",
    "simplex.solve_lp",
    "cli.run_cli",
)
CALLS = (
    "graphs.bfs_distances",
    "graphs.distances_avoiding",
    "graphs.intercepts_pair",
    "hyperbolicity.four_point_delta",
    "congestion.min_core",
    "quasiconvex.measure_epsilon",
    "simplex.solve_lp",
)
LP_COUNTERS = ("simplex.lp_rows", "simplex.lp_cols", "simplex.lp_nonzeros")


class Reference:
    """Fixed work that uses no program code, timed between jobs.

    On the 2-core host this was built on, the same code runs up to 1.8x
    slower for spells of seconds to minutes, CPU time as much as wall time,
    and unscaled times spread over ten runs by more than the benchmark's
    bounds.  Dividing a job's time by the mean of the kernel times taken
    just before and just after its block of REFERENCE_EVERY jobs gives its
    time at the host's speed of that moment.  The kernel is pure-Python BFS
    and exact rational sums, the interpreter-bound mix the program's layers
    run; the garbage collector is off while it runs, so that a large heap
    kept by the program does not slow it.
    """

    def __init__(self):
        from workloads import bfs, long_tree

        tree = long_tree("reference", 0, 300)

        def kernel():
            for s in range(0, tree.n, 3):
                bfs(tree.adj, s)
            total = Fraction(0)
            for i in range(1, 3000):
                total += Fraction(i % 11, i % 13 + 1)

        self._kernel = kernel

    def sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._kernel()
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()


def tail_percentile(jobs: int) -> int:
    """Highest whole percentile with at least ten jobs beyond it (50 at least)."""
    return max(50, math.floor(100 - 1000 / jobs))


def per_layer_units(layers) -> dict[str, str]:
    units = {f"{name}.self_s": "s" for name in SELF_S}
    units["fileio.self_s"] = "s"
    units.update({f"{name}.calls": "count" for name in CALLS})
    units.update({name: "count" for name in LP_COUNTERS})
    units.update({f"{layer}.share": "ratio" for layer in layers})
    units["trace_overhead_frac"] = "ratio"
    return units


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    """Import hypercore from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "hypercore" / "__init__.py").is_file():
        raise SystemExit(f"error: no hypercore sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import hypercore
    import hypercore.cli

    if Path(hypercore.__file__).resolve().parent != (src / "hypercore").resolve():
        raise SystemExit(f"error: imported hypercore from {hypercore.__file__}")
    return hypercore.cli


class Runner:
    def __init__(self, cli, corpus, outdir: Path, reference: Reference):
        self.cli = cli
        self.reference = reference
        self.corpus = corpus
        self.outs = [outdir / f"{i}.json" for i in range(len(corpus.jobs))]
        self.first: list[bytes | None] | None = None
        self.rounds = 0
        self.failed_runs = [0] * len(corpus.jobs)
        self.codes: list[int] = []
        # Per round, each job's scaled and unscaled wall time; untraced
        # rounds under False.
        self.times: dict[bool, list[list[float]]] = {False: [], True: []}
        self.raw: dict[bool, list[list[float]]] = {False: [], True: []}
        self.errors: dict[str, str] = {}

    def round(self, recorder=None) -> None:
        """Run every job once."""
        clock = time.perf_counter
        codes, times, refs = [], [], []
        for i, (job, out) in enumerate(zip(self.corpus.jobs, self.outs)):
            if i % REFERENCE_EVERY == 0:
                refs.append(self.reference.sample())
            if recorder is not None:
                recorder.job = job.id
            t0 = clock()
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    code = self.cli.run_cli(["--out", str(out), *job.argv])
            except Exception:  # a crashing job is a failed job; the run goes on
                code = -1
                self.errors.setdefault(job.id, traceback.format_exc(limit=-1).strip())
            times.append(clock() - t0)
            codes.append(code)
        refs.append(self.reference.sample())
        self._record(codes)
        traced = recorder is not None
        scale = [REFERENCE_S / statistics.fmean(refs[b : b + 2]) for b in range(len(refs) - 1)]
        self.raw[traced].append(times)
        self.times[traced].append([t * scale[i // REFERENCE_EVERY] for i, t in enumerate(times)])

    def _record(self, codes):
        reports = [out.read_bytes() if out.is_file() else None for out in self.outs]
        for out in self.outs:
            out.unlink(missing_ok=True)
        self.rounds += 1
        if self.first is None:
            self.first = reports
            self.codes = codes
        for i, (code, rep) in enumerate(zip(codes, reports)):
            if code != self.codes[i] or rep != self.first[i]:
                self.failed_runs[i] += 1


def rounds_for(seconds: float) -> int:
    return max(1, round(seconds / ROUND_S))


def _measure(runner, rounds, recorder=None) -> list[dict[str, float]]:
    """Untraced: ``rounds`` rounds.  Traced: half as many cycles, rounded
    up, of one untraced and one traced round in alternating order; returns
    the layer metrics of each traced round."""
    if recorder is None:
        for _ in range(rounds):
            runner.round()
        return []
    layer_rounds = []
    for cycle in range(math.ceil(rounds / 2)):
        for traced in (False, True) if cycle % 2 == 0 else (True, False):
            if not traced:
                runner.round()
                continue
            recorder.clear()
            recorder.install()
            try:
                runner.round(recorder)
            finally:
                recorder.uninstall()
            layer_rounds.append(_layer_metrics(recorder))
    return layer_rounds


def _is_program_module(name: str) -> bool:
    return name == "workloads" or name == "hypercore" or name.startswith("hypercore.")


def _fresh_import() -> float:
    """Seconds to import hypercore.cli and the input generator anew, with
    numpy already loaded.  The modules in use are put back afterwards, so
    the timed jobs and the span wrappers see a single copy of each."""
    saved = {k: v for k, v in sys.modules.items() if _is_program_module(k)}
    for k in saved:
        del sys.modules[k]
    try:
        t0 = time.perf_counter()
        importlib.import_module("hypercore.cli")
        importlib.import_module("workloads")
        return time.perf_counter() - t0
    finally:
        for k in [k for k in sys.modules if _is_program_module(k)]:
            del sys.modules[k]
        sys.modules.update(saved)


def _setup(reference, workload, seed, workdir):
    """Time set-up SETUP_REPEATS times: a fresh import of the program, then
    one generation of every input file, each scaled like a job by the
    reference times around it.  Returns the median scaled set-up time, the
    unscaled medians of both parts and the corpus."""
    import workloads

    setup_s, import_s, gen_s = [], [], []
    for k in range(SETUP_REPEATS):
        r0 = reference.sample()
        t_import = _fresh_import()
        r1 = reference.sample()
        t0 = time.perf_counter()
        corpus = workloads.build_corpus(workload, seed, workdir / f"inputs{k}")
        t_gen = time.perf_counter() - t0
        r2 = reference.sample()
        setup_s.append(REFERENCE_S * (2 * t_import / (r0 + r1) + 2 * t_gen / (r1 + r2)))
        import_s.append(t_import)
        gen_s.append(t_gen)
    return (statistics.median(setup_s), statistics.median(import_s), statistics.median(gen_s),
            corpus)


def _layer_metrics(recorder) -> dict[str, float]:
    from spans import LAYERS, summarize

    s = summarize(recorder.spans)
    calls, self_s = s["calls"], s["self_s"]
    out = {f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_S}
    out["fileio.self_s"] = sum(v for k, v in self_s.items() if k.startswith("fileio.read_"))
    out.update({f"{name}.calls": calls.get(name, 0) for name in CALLS})
    out.update({name: recorder.counters.get(name, 0) for name in LP_COUNTERS})
    job_total = s["total_s"].get("cli.run_cli", 0.0)
    for layer in LAYERS:
        own = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
        out[f"{layer}.share"] = own / job_total if job_total else 0.0
    return out


def _latencies(rounds, pct) -> tuple[float, float, float]:
    """run_s, job_p50_s and job_tail_s from each round's job times."""
    job_s = [statistics.median(col) for col in zip(*rounds)]
    return (
        statistics.median(sum(t) for t in rounds),
        statistics.median(job_s),
        statistics.quantiles(job_s, n=100, method="inclusive")[pct - 1],
    )


def _check(runner, corpus) -> int:
    """Validate the first round's reports; returns the number of failed job runs.
    A job fails in every round when its first report is wrong, and in each
    later round whose exit code or report differs from the first."""
    from checks import Checker, load_expected, load_oracles

    checker = Checker(corpus, load_oracles(ROOT), load_expected(corpus.workload, corpus.seed))
    failed = 0
    for i, job in enumerate(corpus.jobs):
        raw = runner.first[i]
        try:
            problems = checker.check(job, runner.codes[i], json.loads(raw) if raw else None)
        except Exception as exc:  # a malformed report is a failed job, not a crash
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            detail = runner.errors.get(job.id, "").replace("\n", " | ")
            print(f"# FAIL {job.id}: {'; '.join(problems)} {detail}".rstrip())
        failed += runner.rounds if problems else runner.failed_runs[i]
    return failed


def main(argv=None) -> int:
    args = _parse(argv)
    cli = _import_program()
    import workloads
    from spans import LAYERS, Recorder

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workroot = ROOT / ".perfbench_work"
    workdir = workroot / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        reference = Reference()
        setup_s, import_s, gen_s, corpus = _setup(reference, args.workload, args.seed, workdir)
        outdir = workdir / "reports"
        outdir.mkdir()
        runner = Runner(cli, corpus, outdir, reference)

        recorder = Recorder() if args.trace else None
        layer_rounds = _measure(runner, rounds_for(args.seconds), recorder)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed = _check(runner, corpus)
        if recorder is not None:
            spans_dir = ROOT / ".perfbench_out"
            spans_dir.mkdir(exist_ok=True)
            recorder.write(spans_dir / f"spans-{args.workload}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workroot.rmdir()

    attempted = runner.rounds * len(corpus.jobs)
    pct = tail_percentile(len(corpus.jobs))
    untraced = runner.times[False]
    run_s, job_p50_s, job_tail_s = _latencies(untraced, pct)
    if args.trace:
        units = per_layer_units(LAYERS)
        values = {k: statistics.median(r[k] for r in layer_rounds)
                  for k in units if k != "trace_overhead_frac"}
        traced_s = statistics.median(sum(t) for t in runner.times[True])
        values["trace_overhead_frac"] = traced_s / run_s - 1
    else:
        units = END_TO_END_UNITS
        values = {
            "setup_s": setup_s,
            "run_s": run_s,
            "job_p50_s": job_p50_s,
            "job_tail_s": job_tail_s,
            "peak_rss_mb": peak_rss_mb,
        }
    raw = _latencies(runner.raw[False], pct)
    print(
        f"# workload={args.workload} seed={args.seed} "
        f"rounds={len(untraced)}+{len(runner.times[True])} jobs={len(corpus.jobs)} tail=p{pct} "
        f"raw_import_s={import_s:.4g} raw_gen_s={gen_s:.4g} "
        f"raw_run_s={raw[0]:.4g} raw_p50_s={raw[1]:.4g} raw_tail_s={raw[2]:.4g} "
        f"fail_frac={failed / attempted:.6g}"
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
