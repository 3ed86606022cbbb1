"""Pin the outputs of the current program for a range of seeds.

    python3 perfbench/make_expected.py --seeds 0-15

Runs every job of every workload once per seed (untimed) and stores the
pinned fields of each report (see ``checks.pinned_fields``) in
``perfbench/expected.json``.  A report that fails the independent checks is
not pinned; the script stops instead.  Run it on the commit whose outputs
should be the reference.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=_seed_range, required=True, help="e.g. 0-15")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import hypercore.cli as cli
    from checks import EXPECTED_PATH, Checker, load_oracles, pinned_fields
    from workloads import WORKLOADS, build_corpus

    oracles = load_oracles(ROOT)
    data = {"seeds": {}}
    if EXPECTED_PATH.is_file():
        data = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    workdir = ROOT / ".perfbench_work" / "expected"
    try:
        for seed in args.seeds:
            per_workload = {}
            for workload in WORKLOADS:
                shutil.rmtree(workdir, ignore_errors=True)
                corpus = build_corpus(workload, seed, workdir)
                checker = Checker(corpus, oracles, None)
                pinned = {}
                for job in corpus.jobs:
                    out = workdir / "report.json"
                    with contextlib.redirect_stderr(io.StringIO()):
                        code = cli.run_cli(["--out", str(out), *job.argv])
                    report = json.loads(out.read_text(encoding="utf-8")) if code == 0 else None
                    problems = checker.check(job, code, report)
                    if problems:
                        print(f"seed {seed} {job.id}: {'; '.join(problems)}", file=sys.stderr)
                        return 1
                    fields = pinned_fields(job.command, report)
                    if fields:
                        pinned[job.id] = fields
                per_workload[workload] = pinned
            data["seeds"][str(seed)] = per_workload
            print(f"seed {seed}: pinned", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    EXPECTED_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
