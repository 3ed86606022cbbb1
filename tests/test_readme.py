"""The README's "Library quick start" block runs as shown, so an export it
uses cannot be removed or renamed without the README following; nor can
the count of exported names that it states drift."""

import re
from pathlib import Path

import hypercore

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.S)
    assert block, "no python block opens the 'Library quick start' section"
    namespace = {}
    exec(compile(block.group(1), "README.md (Library quick start)", "exec"), namespace)
    assert namespace["all_beams"] is True


def test_stated_export_count_matches_all():
    stated = re.findall(r"one of its (\d+)\s+names", README.read_text(encoding="utf-8"))
    assert stated == [str(len(hypercore.__all__))]
