"""The package namespace loads a submodule on first use of one of its names,
and the CLI loads only the modules of the command it runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypercore
import hypercore.cli

EXPORTS = {
    "beamcore": ["BeamCoreResult", "beam_pairs", "total_beam_core"],
    "check": ["check_hit_pack", "four_point_defect"],
    "congestion": ["CoreResult", "median_vertex", "min_core", "traffic_load"],
    "generators": ["generate"],
    "graphs": [
        "DistanceMatrix", "Graph", "distance_matrix", "intercepted_pairs", "interval",
        "multi_source_distances",
    ],
    "hyperbolicity": [
        "EccentricityProfile", "FourPointResult", "biconnected_blocks", "eccentricity_profile",
        "four_point_delta", "hyperbolicity_report", "mutually_distant_pair", "thin_delta_bound",
    ],
    "lpkappa": ["KappaHitPackResult", "kappa_hit_pack", "round_packing"],
    "multicore": ["interval_family", "multicore_construct"],
    "quasiconvex": [
        "HitPackResult", "covering_radius", "greedy_hit_pack", "helly_center", "is_interval_like",
        "project_toward", "set_epsilons",
    ],
    "simplex": ["LPInstance", "LPSolution", "solve_lp"],
}

STARTUP = {
    "hypercore", "hypercore.cli", "hypercore.fileio", "hypercore.generators",
    "hypercore.graphs",
}

# Run in a fresh interpreter: prints the hypercore modules loaded by
# `import hypercore.cli`, then those loaded after one hyperbolicity command,
# which checks its witness with `hypercore.check`.
PROBE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "hypercore" or m.startswith("hypercore."))
import hypercore.cli
print(json.dumps(loaded()))
code = hypercore.cli.run_cli(["--out", sys.argv[2], "hyperbolicity", "--edges", sys.argv[1]])
print(json.dumps([code, loaded()]))
"""


def test_all_lists_the_exported_names():
    assert hypercore.__all__ == [name for names in EXPORTS.values() for name in names]
    assert len(hypercore.__all__) == 39


def test_each_name_is_the_object_of_its_submodule():
    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"hypercore.{module}")
        for name in names:
            assert getattr(hypercore, name) is getattr(mod, name), name
            assert name in dir(hypercore)


def test_star_import_and_submodule_import():
    namespace = {}
    exec("from hypercore import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(hypercore.__all__)
    from hypercore import congestion

    assert congestion is sys.modules["hypercore.congestion"]
    assert namespace["min_core"] is congestion.min_core


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        hypercore.no_such_name
    assert not hasattr(hypercore, "check_vertices")  # public in graphs, not exported
    with pytest.raises(ImportError):
        exec("from hypercore import no_such_name", {})
    with pytest.raises(AttributeError):
        hypercore.cli.no_such_name


def test_a_name_follows_a_rebinding_in_its_submodule(monkeypatch):
    from hypercore import hyperbolicity

    def fake(*args):
        raise AssertionError

    monkeypatch.setattr(hyperbolicity, "four_point_delta", fake)
    assert hypercore.four_point_delta is fake
    assert hypercore.cli.four_point_delta is fake
    monkeypatch.undo()
    assert hypercore.four_point_delta is hyperbolicity.four_point_delta is not fake


def run_fresh(code, *args):
    """Run ``code`` in a fresh interpreter that imports this package's
    sources; returns its stdout lines, each read as JSON."""
    src = str(Path(hypercore.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return list(map(json.loads, proc.stdout.splitlines()))


def test_cli_start_up_loads_only_what_every_command_needs(tmp_path):
    edges = tmp_path / "g.txt"
    edges.write_text("a b\nb c\nc a\n", encoding="utf-8")
    out = tmp_path / "report.json"
    at_start, after_run = run_fresh(PROBE, edges, out)
    assert set(at_start) == STARTUP
    code, modules = after_run
    assert code == 0
    assert set(modules) == STARTUP | {"hypercore.hyperbolicity", "hypercore.check"}
    assert json.loads(out.read_text(encoding="utf-8"))["diameter"] == 1


def test_the_checks_load_only_the_graph_substrate():
    # the checks share no code with the builders: no analysis module loads
    probe = (
        "import json, sys\n"
        "import hypercore.check\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'hypercore')))\n"
    )
    assert run_fresh(probe) == [["hypercore", "hypercore.check", "hypercore.graphs"]]


@pytest.mark.parametrize("module", ["lpkappa", "multicore", "beamcore"])
def test_the_builders_load_no_checks(module):
    # a builder returns its witness and the command checks it: no builder
    # imports the checks
    probe = (
        "import importlib, json, sys\n"
        "importlib.import_module(sys.argv[1])\n"
        "print(json.dumps('hypercore.check' in sys.modules))\n"
    )
    assert run_fresh(probe, f"hypercore.{module}") == [False]
