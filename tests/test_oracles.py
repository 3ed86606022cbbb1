"""``tests/oracles.py`` loads the way the benchmark's checker loads it."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import hypercore

ORACLES = Path(__file__).resolve().with_name("oracles.py")

# Run in a fresh interpreter: loads the oracles as the benchmark's checker
# does, runs the greedy oracle on a 6-cycle, then prints its result and the
# hypercore modules that loading and running pulled in.
PROBE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("hypercore_test_oracles", sys.argv[1])
oracles = importlib.util.module_from_spec(spec)
spec.loader.exec_module(oracles)
from hypercore.graphs import distance_matrix
from hypercore.generators import cycle_graph
g = cycle_graph(6)
result = oracles.greedy_hit_pack_by_sets(g, distance_matrix(g), [[3], [4, 2], [0]], 1)
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "hypercore")
print(json.dumps([result, loaded]))
"""


def test_oracles_load_as_a_module_outside_sys_modules():
    # perfbench/checks.load_oracles executes the file under this name without
    # entering it in sys.modules, where a dataclass cannot be built
    spec = importlib.util.spec_from_file_location("hypercore_test_oracles", ORACLES)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert "hypercore_test_oracles" not in sys.modules
    for name in (
        "lp_optimum_by_vertex_enumeration",
        "naive_four_point_delta_doubled",
        "naive_traffic_load",
    ):
        assert callable(getattr(mod, name)), name


def test_loading_the_oracles_loads_none_of_the_code_they_check():
    # the oracles share no code with the builders and checkers they test:
    # loading them, or running the greedy oracle, imports no family, kappa
    # or checker module
    src = str(Path(hypercore.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(ORACLES)],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    result, loaded = json.loads(proc.stdout)
    # z = 0: the set {3} first, hit 1 step toward 0 at 2, which drops {4, 2}
    # within 2; then {0}, hit at 0
    assert result == [[2, 0], [0, 2]]
    assert "hypercore.graphs" in loaded
    assert not set(loaded) & {"hypercore.lpkappa", "hypercore.quasiconvex", "hypercore.check"}
