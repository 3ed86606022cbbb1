"""One sha256 per benchmark job, to show that two checkouts behave alike.

For each workload and seed, builds the corpus with
``perfbench/workloads.build_corpus`` and runs every job in process through
``hypercore.cli.run_cli``, as the benchmark does.  A job's hash covers its
``--out`` report bytes, its stdout, its stderr and its exit code.  Inputs
and reports go to a temporary directory, under relative paths, so the
hashes do not depend on where it is; nothing is written under the checkout.

Usage, one process per checkout (each imports its own ``src/hypercore``):

    python tests/job_hashes.py ROOT [--seeds 1 2 3] [--workloads delta_scan ...]

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

WORKLOADS = ("delta_scan", "core_traffic", "certify")


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
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.run_cli(["--out", "report.json", *job.argv])
                report = Path("report.json")
                parts = [
                    report.read_bytes() if report.is_file() else b"",
                    stdout.getvalue().encode(),
                    stderr.getvalue().encode(),
                    str(code).encode(),
                ]
                report.unlink(missing_ok=True)
                digest = hashlib.sha256()
                for part in parts:  # length-prefixed, so no two splits collide
                    digest.update(len(part).to_bytes(8, "big") + part)
                out.append((job.id, code, digest.hexdigest()))
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
        for seed in args.seeds:
            for job_id, code, digest in job_hashes(args.root, workload, seed):
                print(workload, seed, job_id, code, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
