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
# does, then prints the hypercore modules that loading pulled in.
PROBE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("hypercore_test_oracles", sys.argv[1])
spec.loader.exec_module(importlib.util.module_from_spec(spec))
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "hypercore")))
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
    # loading them imports no family, kappa or checker module
    src = str(Path(hypercore.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(ORACLES)],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "hypercore.graphs" in loaded
    assert not loaded & {"hypercore.lpkappa", "hypercore.quasiconvex", "hypercore.check"}
