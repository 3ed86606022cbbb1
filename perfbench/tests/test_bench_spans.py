"""Self-tests for the span recorder: self-time subtraction and rebinding of
functions that several modules import by name."""

from __future__ import annotations

import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from spans import Recorder, self_times, summarize  # noqa: E402


def test_self_time_subtracts_children_at_every_depth():
    spans = [
        ("cli.run", 0.0, 10.0, -1, "j"),
        ("core.a", 1.0, 4.0, 0, "j"),
        ("core.leaf", 2.0, 3.0, 1, "j"),
        ("core.b", 5.0, 9.0, 0, "j"),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    s = summarize(spans)
    assert s["calls"] == {"cli.run": 1, "core.a": 1, "core.leaf": 1, "core.b": 1}
    assert sum(s["self_s"].values()) == pytest.approx(10.0)
    assert s["total_s"]["cli.run"] == pytest.approx(10.0)


def test_overlapping_children_are_counted_once():
    spans = [
        ("p", 0.0, 10.0, -1, None),
        ("c", 1.0, 6.0, 0, None),
        ("c", 4.0, 8.0, 0, None),
        ("c", 9.0, 12.0, 0, None),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


CORE_SRC = '''
import time

def leaf():
    time.sleep(0.002)
    return 1

def outer():
    return leaf() + leaf()

class Demand:
    @classmethod
    def make(cls):
        return leaf()
'''

CLI_SRC = '''
from fakepkg.core import leaf, outer, Demand

def run():
    return leaf() + outer() + Demand.make()
'''


@pytest.fixture()
def fakepkg():
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    sys.modules["fakepkg"] = pkg
    core = types.ModuleType("fakepkg.core")
    sys.modules["fakepkg.core"] = core
    exec(CORE_SRC, core.__dict__)
    cli = types.ModuleType("fakepkg.cli")
    sys.modules["fakepkg.cli"] = cli
    exec(CLI_SRC, cli.__dict__)
    yield core, cli
    for name in ("fakepkg.cli", "fakepkg.core", "fakepkg"):
        sys.modules.pop(name, None)


def test_function_reached_through_two_bindings(fakepkg):
    core, cli = fakepkg
    original = core.leaf
    original_make = vars(core.Demand)["make"]
    rec = Recorder()
    rec.install(package="fakepkg", layers=("core", "cli"))
    try:
        assert cli.leaf is core.leaf is not original
        rec.job = "job-1"
        t0 = time.perf_counter()
        assert cli.run() == 4
        wall = time.perf_counter() - t0
    finally:
        rec.uninstall()
    assert core.leaf is original and cli.leaf is original
    assert vars(core.Demand)["make"] is original_make

    names = [s[0] for s in rec.spans]
    assert names.count("core.leaf") == 4  # via cli's binding, twice via outer, via make
    assert names.count("cli.run") == names.count("core.outer") == 1
    assert names.count("core.Demand.make") == 1
    assert {s[4] for s in rec.spans} == {"job-1"}
    root = names.index("cli.run")
    by_parent = {names[i]: names[s[3]] for i, s in enumerate(rec.spans) if s[3] >= 0}
    assert by_parent["core.outer"] == "cli.run"
    assert by_parent["core.Demand.make"] == "cli.run"

    s = summarize(rec.spans)
    assert s["total_s"]["cli.run"] <= wall
    assert sum(s["self_s"].values()) == pytest.approx(s["total_s"]["cli.run"], rel=1e-9)
    assert s["self_s"]["core.leaf"] >= 4 * 0.002
    assert s["self_s"]["core.outer"] < s["total_s"]["core.outer"]
    assert rec.spans[root][3] == -1


def test_real_program_bindings_share_one_wrapper():
    import hypercore.cli
    import hypercore.hyperbolicity

    original = hypercore.hyperbolicity.four_point_delta
    rec = Recorder()
    rec.install()
    try:
        wrapped = hypercore.hyperbolicity.four_point_delta
        assert wrapped is not original
        assert hypercore.cli.four_point_delta is wrapped
        assert hypercore.four_point_delta is wrapped
    finally:
        rec.uninstall()
    assert hypercore.cli.four_point_delta is original
    assert hypercore.hyperbolicity.four_point_delta is original
