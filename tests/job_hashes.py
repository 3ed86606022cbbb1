"""One sha256 per benchmark job and per ``generate`` run, to show that two
checkouts behave alike.

For each workload and seed, builds the corpus with
``perfbench/workloads.build_corpus`` and runs every job in process through
``hypercore.cli.run_cli``, as the benchmark does.  A job's hash covers its
``--out`` report bytes, its stdout, its stderr and its exit code.  Inputs
and reports go to a temporary directory, under relative paths, so the
hashes do not depend on where it is; nothing is written under the checkout.

No benchmark workload runs ``generate``, so the ``generate`` entry runs a
fixed list of its own (``generate_runs``): every kind of
``generators.KINDS`` at two parameter sets and two seeds, each kind with
one parameter it does not read, and the size and probability refusals.  A
run's hash covers its edge file, its stdout, its stderr and its exit code;
``--seeds`` does not change the list.

Usage, one process per checkout (each imports its own ``src/hypercore``):

    python tests/job_hashes.py ROOT [--seeds 1 2 3] [--workloads delta_scan ... generate]

prints ``workload seed job-id exit-code sha256`` lines; diff the output of
two checkouts to compare them job by job.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
import types
from pathlib import Path

WORKLOADS = ("delta_scan", "core_traffic", "certify", "generate")

# two parameter sets per generator kind, as ``generate`` flags
GENERATE_PARAMS = {
    "tree": (["--n", "12"], ["--n", "40"]),
    "path": (["--n", "2"], ["--n", "9"]),
    "cycle": (["--n", "3"], ["--n", "10"]),
    "grid": (["--rows", "3"], ["--rows", "2", "--cols", "5"]),
    "star_path_Tn": (["--n", "9"], ["--n", "25"]),
    "gnp_connected": (["--n", "12", "--p", "0.3"], ["--n", "20", "--p", "0.2"]),
}
GENERATE_SEEDS = (1, 2)
# a value for each parameter, for the one a kind does not read
UNREAD = {"n": "4", "p": "0.5", "rows": "2", "cols": "3"}
# sizes and probabilities the generators refuse
GENERATE_REFUSALS = (
    ["--kind", "cycle", "--n", "2"],
    ["--kind", "tree", "--n", "1"],
    ["--kind", "gnp_connected", "--n", "1", "--p", "0.5"],
    ["--kind", "gnp_connected", "--n", "10", "--p", "0"],
    ["--kind", "gnp_connected", "--n", "10", "--p", "1.5"],
)


def _import_cli(root: Path):
    """``hypercore.cli`` from ``root/src``; refuses a copy imported from elsewhere."""
    src = (root / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import hypercore.cli

    if Path(hypercore.__file__).resolve().parent != src / "hypercore":
        raise RuntimeError(f"hypercore was imported from {hypercore.__file__}, not {src}")
    return hypercore.cli


def _load_workloads(root: Path) -> types.ModuleType:
    # executed from its source text, so no bytecode is written into perfbench/;
    # entered in sys.modules, which its dataclasses need
    path = root / "perfbench" / "workloads.py"
    mod = types.ModuleType("hypercore_bench_workloads")
    mod.__file__ = str(path)
    sys.modules[mod.__name__] = mod
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), mod.__dict__)
    return mod


def _digest(parts: list[bytes]) -> str:
    digest = hashlib.sha256()
    for part in parts:  # length-prefixed, so no two splits collide
        digest.update(len(part).to_bytes(8, "big") + part)
    return digest.hexdigest()


def _run(cli, argv: list[str], out: Path) -> tuple[int, str]:
    """Exit code and digest of one in-process run: the bytes of ``out`` (then
    removed), stdout, stderr and the exit code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run_cli(argv)
    parts = [
        out.read_bytes() if out.is_file() else b"",
        stdout.getvalue().encode(),
        stderr.getvalue().encode(),
        str(code).encode(),
    ]
    out.unlink(missing_ok=True)
    return code, _digest(parts)


def generate_runs(kinds) -> list[tuple[int, str, list[str]]]:
    """(seed, run id, ``generate`` flags) of the fixed ``generate`` list, for
    the kinds of ``generators.KINDS`` (kind -> the parameters it reads)."""
    if set(kinds) != set(GENERATE_PARAMS):
        raise RuntimeError(f"generator kinds {sorted(kinds)} differ from the list's")
    runs = []
    for kind, reads in kinds.items():
        for flags in GENERATE_PARAMS[kind]:
            for seed in GENERATE_SEEDS:
                runs.append((seed, ["--kind", kind, *flags]))
        unread = next(name for name in UNREAD if name not in reads)
        runs.append((1, ["--kind", kind, *GENERATE_PARAMS[kind][0], f"--{unread}", UNREAD[unread]]))
    runs += [(1, flags) for flags in GENERATE_REFUSALS]
    # run id: the kind, then its flags, such as tree:n=12,p=0.5
    return [
        (seed, f"{flags[1]}:" + ",".join(f"{k[2:]}={v}" for k, v in zip(flags[2::2], flags[3::2])), flags)
        for seed, flags in runs
    ]


def generate_hashes(root: Path) -> list[tuple[int, str, int, str]]:
    """(seed, run id, exit code, sha256 hex) for every run of the ``generate`` list."""
    cli = _import_cli(root)
    from hypercore.generators import KINDS

    out = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for seed, run_id, flags in generate_runs(KINDS):
                argv = ["--seed", str(seed), "generate", *flags, "--edges-out", "g.txt"]
                code, digest = _run(cli, argv, Path("g.txt"))
                out.append((seed, run_id, code, digest))
        finally:
            os.chdir(cwd)
    return out


def job_hashes(root: Path, workload: str, seed: int) -> list[tuple[str, int, str]]:
    """(job id, exit code, sha256 hex) for every job of one workload and seed."""
    cli = _import_cli(root)
    workloads = _load_workloads(root)
    out = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            corpus = workloads.build_corpus(workload, seed, Path("inputs"))
            for job in corpus.jobs:
                code, digest = _run(cli, ["--out", "report.json", *job.argv], Path("report.json"))
                out.append((job.id, code, digest))
        finally:
            os.chdir(cwd)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("root", type=Path, help="checkout root, holding src/ and perfbench/")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = p.parse_args(argv)
    for workload in args.workloads:
        if workload == "generate":
            for seed, run_id, code, digest in generate_hashes(args.root):
                print(workload, seed, run_id, code, digest)
            continue
        for seed in args.seeds:
            for job_id, code, digest in job_hashes(args.root, workload, seed):
                print(workload, seed, job_id, code, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
