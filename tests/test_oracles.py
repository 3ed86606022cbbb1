"""``tests/oracles.py`` loads the way the benchmark's checker loads it."""

import importlib.util
import sys
from pathlib import Path

ORACLES = Path(__file__).resolve().with_name("oracles.py")


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
