"""Golden reports: every subcommand on two committed graphs, compared byte
for byte.

The graphs are ``golden/tree40.txt``, a random 40-vertex tree, and
``golden/gnp30.txt``, a connected G(30, 2 ln n / n); each is also the
golden edge list of the ``generate`` case that writes it.  The profile,
pair, family and kappa-family files beside them are hand-written.  Each
delta-using subcommand runs once with ``--delta`` and once with the
measured four-point constant.  ``golden/<case>.json`` holds the exact
``--out`` bytes of a case and ``golden/exit_codes.json`` its exit code.

After a deliberate report change, rewrite every golden file with
``PYTHONPATH=src python tests/test_golden.py`` and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path

import pytest

from hypercore.cli import run_cli

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"
GRAPHS = {"tree": "tree40.txt", "gnp": "gnp30.txt"}


def _cases() -> dict[str, list[str]]:
    """Case name -> argv, with ``{g}`` standing for the golden directory."""
    p = str(2 * math.log(30) / 30)
    cases = {
        "generate_tree": [
            *("--seed", "1", "generate", "--kind", "tree", "--n", "40"),
            *("--edges-out", GRAPHS["tree"]),
        ],
        "generate_gnp": [
            *("--seed", "1", "generate", "--kind", "gnp_connected", "--n", "30", "--p", p),
            *("--edges-out", GRAPHS["gnp"]),
        ],
    }
    for name, graph in GRAPHS.items():
        edges = ["--edges", f"{{g}}/{graph}"]
        cases[f"hyperbolicity_{name}"] = ["hyperbolicity", *edges]
        cases[f"core_{name}"] = ["core", *edges]
        cases[f"core_profile_{name}"] = [
            *("core", *edges, "--profile", "{g}/profile.txt", "--alpha", "3/4")
        ]
        cases[f"traffic_{name}"] = ["traffic", *edges, "--set", "0,3"]
        cases[f"traffic_pairs_{name}"] = [
            *("traffic", *edges, "--demand", "{g}/pairs.txt", "--set", "3,6")
        ]
        # per delta-using subcommand: its inputs, then the flags of the run
        # with the measured constant and of the run with --delta.  The
        # measured runs certify with 4 on the G(n,p), so they need
        # multicore's r >= 8*delta and kappa's r >= eps + 2*delta; beamcore
        # with --delta 0 on the G(n,p) is the exit-2 case.
        given_delta, kappa_r = {"tree": ("0", "1"), "gnp": ("1/2", "2")}[name]
        delta = ["--delta", given_delta]
        family = ["--family", "{g}/family.json"]
        certified = {
            "multicore": (
                ["--commodity", "{g}/pairs.txt"], ["--radius", "32"], ["--radius", "4", *delta]
            ),
            "beamcore": ([], [], ["--delta", "0"]),
            "helly": (family, ["--r", "3"], ["--r", "3", *delta]),
            "hitpack": (family, ["--r", "1"], ["--r", "1", *delta]),
            "kappa": (["--family", "{g}/kappa.json"], ["--r", "9"], ["--r", kappa_r, *delta]),
        }
        for command, (inputs, measured, given) in certified.items():
            cases[f"{command}_{name}"] = [command, *edges, *inputs, *measured]
            cases[f"{command}_delta_{name}"] = [command, *edges, *inputs, *given]
    return cases


CASES = _cases()


def _run(name: str, workdir: Path) -> tuple[int, bytes]:
    """Run one case with ``workdir`` as the current directory; returns its
    exit code and its report bytes (empty when it wrote none)."""
    argv = [a.format(g=GOLDEN) for a in CASES[name]]
    out = workdir / "report.json"
    code = run_cli(["--out", str(out), *argv])
    return code, out.read_bytes() if out.exists() else b""


@pytest.mark.parametrize("name", list(CASES))
def test_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, report = _run(name, tmp_path)
    assert report == (GOLDEN / f"{name}.json").read_bytes()
    assert code == json.loads(EXIT_CODES.read_text(encoding="utf-8"))[name]
    if name.startswith("generate_"):
        graph = GRAPHS[name.removeprefix("generate_")]
        assert (tmp_path / graph).read_bytes() == (GOLDEN / graph).read_bytes()


def _rewrite() -> None:
    """Rerun every case and overwrite its golden files.  The generate cases
    go first, so the other cases read the graphs they wrote."""
    codes = {}
    cwd = os.getcwd()
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                codes[name], report = _run(name, Path(tmp))
                if name.startswith("generate_"):
                    graph = GRAPHS[name.removeprefix("generate_")]
                    (GOLDEN / graph).write_bytes(Path(graph).read_bytes())
            finally:
                os.chdir(cwd)
        (GOLDEN / f"{name}.json").write_bytes(report)
    EXIT_CODES.write_text(json.dumps(codes, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _rewrite()
