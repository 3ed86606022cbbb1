"""Print each line of ``src/hypercore`` that the tier-1 suite never runs.

Runs pytest in this process under ``sys.settrace`` (and
``threading.settrace``, for any thread a test starts) and compares the lines
that ran with the lines the compiler gives code to: the union of
``co_lines()`` over every code object of each module.  It uses the standard
library only, since ``coverage`` is not a dependency.  A test that runs the
package in a subprocess is not traced, so a line that only such a test
reaches is listed too.

Usage:

    python tests/line_trace.py ROOT [PYTEST_ARGS ...]

ROOT is the checkout whose ``src/hypercore`` is imported and traced.
pytest runs in ROOT with PYTEST_ARGS, so with none it runs the tier-1 suite
(about two minutes under the tracer on a 2-core Xeon).  It writes no
bytecode and no pytest cache.  Prints
``src/hypercore/<module>.py:<line>: <source>`` for every line that never
ran, then a count and pytest's exit code on stderr, and exits with that
code.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import threading
from pathlib import Path
from types import CodeType

_UNSEEN = object()


def code_lines(code: CodeType) -> set[int]:
    """The lines that ``code`` and every code object nested in it give code
    to; line 0, a module's entry instruction, is no source line."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= code_lines(const)
    return lines


class LineTracer:
    """A global trace function that records the lines run in ``files``
    (resolved paths) and traces no other frame."""

    def __init__(self, files: list[Path]):
        self.ran: dict[str, set[int]] = {str(f): set() for f in files}
        self._by_name: dict[str, set[int] | None] = {}

    def __call__(self, frame, event, arg):
        name = frame.f_code.co_filename
        ran = self._by_name.get(name, _UNSEEN)
        if ran is _UNSEEN:
            ran = self._by_name[name] = self.ran.get(os.path.realpath(name))
        if ran is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return local

        return local


def trace_suite(root: Path, pytest_args: list[str]) -> tuple[int, dict[Path, list[int]]]:
    """pytest's exit code, run in ``root``, and, per module of
    ``root/src/hypercore``, the sorted lines that never ran."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    sys.dont_write_bytecode = True
    files = sorted((src / "hypercore").glob("*.py"))
    tracer = LineTracer(files)
    import pytest

    cwd = os.getcwd()
    os.chdir(root)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:  # pytest reports on stderr, so stdout holds only the listing
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(["-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
        os.chdir(cwd)
    package = sys.modules.get("hypercore")
    if package is not None and Path(package.__file__).resolve().parent != src / "hypercore":
        raise RuntimeError(f"hypercore was imported from {package.__file__}, not {src}")
    missed = {}
    for path in files:
        code_obj = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        missed[path] = sorted(code_lines(code_obj) - tracer.ran[str(path)])
    return int(code), missed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("root", type=Path, help="checkout whose src/hypercore is traced")
    p.add_argument("pytest_args", nargs=argparse.REMAINDER, help="passed to pytest")
    args = p.parse_args(argv)
    root = args.root.resolve()
    code, missed = trace_suite(root, args.pytest_args)
    total = 0
    for path, lines in missed.items():
        source = path.read_text(encoding="utf-8").splitlines()
        rel = path.relative_to(root / "src").as_posix()
        for line in lines:
            print(f"src/{rel}:{line}: {source[line - 1].strip()}")
        total += len(lines)
    print(f"{total} lines of src/hypercore never ran; pytest exit code {code}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
