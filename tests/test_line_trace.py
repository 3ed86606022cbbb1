"""``line_trace.py`` runs one test file under its tracer and lists the
package lines that the file never ran."""

import re
import subprocess
import sys
from pathlib import Path

from line_trace import code_lines

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hypercore"


def test_line_trace_of_the_readme_test(tmp_path):
    script, tests = ROOT / "tests" / "line_trace.py", ROOT / "tests" / "test_readme.py"
    proc = subprocess.run(
        [sys.executable, str(script), str(ROOT), str(tests), "-q"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    listed: dict[str, list[int]] = {}
    for row in proc.stdout.splitlines():
        module, line, text = re.fullmatch(r"src/hypercore/(\w+)\.py:(\d+): (.*)", row).groups()
        source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8").splitlines()
        assert source[int(line) - 1].strip() == text
        listed.setdefault(module, []).append(int(line))
    assert proc.stderr.splitlines()[-1] == (
        f"{len(proc.stdout.splitlines())} lines of src/hypercore never ran; pytest exit code 0"
    )
    # the quick start runs every line of beamcore, and never imports the CLI
    assert "beamcore" not in listed
    cli = PACKAGE / "cli.py"
    code = compile(cli.read_text(encoding="utf-8"), str(cli), "exec")
    assert listed["cli"] == sorted(code_lines(code))
