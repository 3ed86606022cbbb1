"""One-round pass of the benchmark on its full job lists: every metric
named in BENCHMARK.json is emitted, and every job's output passes its
checks, including the pinned values of expected.json (seed 7 is pinned)."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_one_round_emits_every_metric(workload, trace):
    result, info = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, info
    assert result["attempted"] >= 1
    assert float(re.search(r"fail_frac=(\S+)", info).group(1)) == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_exits_nonzero_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, there is nothing to measure."""
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    for f in BENCH.glob("*.py"):
        (bare / "perfbench" / f.name).write_text(f.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
