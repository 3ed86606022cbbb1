"""File formats: edge lists, vertex profiles, demand/commodity pair lists,
and the JSON family formats.  Labels are arbitrary tokens, remapped to dense
0-based ids in first-appearance order; the label table travels with every
report so outputs can be mapped back.
"""

from __future__ import annotations

import json
import operator
import re
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .graphs import DuplicateEdgeError, Graph


class LabelTable:
    """Bijection between input labels and dense vertex ids."""

    def __init__(self, labels: list[str]):
        self.labels = labels
        self.index = {lab: i for i, lab in enumerate(labels)}
        if len(self.index) != len(labels):
            raise ValueError("duplicate labels in table")

    def id_of(self, label: str) -> int:
        try:
            return self.index[label]
        except KeyError:
            raise ValueError(f"unknown vertex label {label!r}") from None

    def ids_of(self, labels) -> list[int]:
        return [self.id_of(x) for x in labels]

    def label_of(self, v: int) -> str:
        return self.labels[v]

    def labels_of(self, ids) -> list[str]:
        return [self.labels[v] for v in ids]


# The start of a line that is not two labels between spaces and tabs, the
# first of them no '#' comment.  In a text without one, every line is a
# record and ``str.split`` gives the labels two by two: ``\s`` and
# ``str.split`` take the same characters for whitespace, so no label holds
# one, and a line break of ``str.splitlines`` other than '\n' (such as '\r'
# or '\x85') is whitespace that fails its line.  The text is searched for
# such a line, not matched whole: a match of every line in one pattern keeps
# backtracking state per line, 0.37 GB for a million lines.
_NOT_TWO_LABELS = re.compile(r"^(?![ \t]*[^\s#]\S*[ \t]+\S+[ \t]*$)", re.MULTILINE)


def _read_text(path: str | Path) -> str:
    """The text of a file.  A leading byte-order mark is dropped
    (``utf-8-sig``), so it never joins a label or breaks a JSON document."""
    return Path(path).read_text(encoding="utf-8-sig")


def _two_label_tokens(text: str) -> list[str] | None:
    """The labels of a text in which every line, the last one with or
    without its '\\n', holds exactly two labels and no comment, in order, so
    line i holds tokens 2i and 2i + 1; None for any other text, the empty
    text and blank or comment lines included."""
    if _NOT_TWO_LABELS.search(text, 0, len(text) - text.endswith("\n")):
        return None
    return text.split()


def _records(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, whitespace-separated fields) of every line that is
    neither blank nor a '#' comment."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        fields = raw.split()
        if fields and not fields[0].startswith("#"):
            yield lineno, fields


def _label_lines(path: str | Path, text: str, what: str, same: str) -> tuple[list[str], list[int]]:
    """The labels of the text of ``path``, read line by line, two per record,
    and the line of each record.  A record that is not two labels, or is two
    equal ones (``same`` names the fault), and a text without one (``what``
    names the records) raise the error message, with its line."""
    labels: list[str] = []
    lines: list[int] = []
    for lineno, fields in _records(text):
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected two labels, got {len(fields)}")
        if fields[0] == fields[1]:
            raise ValueError(f"{path}:{lineno}: {same} {fields[0]!r}")
        labels += fields
        lines.append(lineno)
    if not lines:
        raise ValueError(f"{path}: no {what} found")
    return labels, lines


def read_edge_list(path: str | Path) -> tuple[Graph, LabelTable]:
    """One edge per line, two whitespace-separated labels; '#' starts a comment.

    A text of two labels on every line (``_two_label_tokens``) is split
    once; any other text is read line by line (``_label_lines``).  Either
    way the labels are numbered in first-appearance order by
    ``dict.fromkeys`` and ``Graph`` is built once, from one integer id
    array.  When it refuses a split text, the text is read line by line
    only to name the faulty line: a self-loop first, then a repeat from
    the positions ``Graph`` reports."""
    text = _read_text(path)
    tokens, lines = _two_label_tokens(text), None
    if tokens is None:
        tokens, lines = _label_lines(path, text, "edges", "self-loop at")
    table = LabelTable(list(dict.fromkeys(tokens)))
    ids = np.fromiter(map(table.index.__getitem__, tokens), np.intp, len(tokens))
    try:
        return Graph(len(table.labels), ids.reshape(-1, 2)), table
    except ValueError as exc:
        if lines is None:
            lines = _label_lines(path, text, "edges", "self-loop at")[1]
        if not isinstance(exc, DuplicateEdgeError):
            raise ValueError(f"{path}: {exc}") from None
        first, repeat = exc.positions
        a, b = tokens[2 * repeat : 2 * repeat + 2]
        raise ValueError(
            f"{path}:{lines[repeat]}: duplicate edge {a!r} {b!r}, first on line {lines[first]}"
        ) from None


def write_edge_list(g: Graph, table: LabelTable, path: str | Path) -> None:
    lines = [f"{table.label_of(u)} {table.label_of(v)}" for u, v in g.edges()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_tokens(path: str | Path) -> list[str]:
    """Whitespace-separated tokens, '#' comments allowed: used for profiles."""
    return [token for _, fields in _records(_read_text(path)) for token in fields]


def read_pairs(path: str | Path) -> list[tuple[str, str]]:
    """One labeled pair of distinct labels per line: demand and commodity
    files.  A text of two labels on every line (``_two_label_tokens``)
    without a pair of equal labels is split once; any other text is read
    line by line (``_label_lines``), which raises the error message."""
    text = _read_text(path)
    tokens = _two_label_tokens(text)
    if tokens is None or any(map(operator.eq, tokens[::2], tokens[1::2])):
        tokens = _label_lines(path, text, "pairs", "pair with equal endpoints")[0]
    return list(zip(tokens[::2], tokens[1::2]))


def _read_family(path: str | Path, key: str, noun: str, labels_of) -> list[dict]:
    """The entries of a JSON family file: a nonempty list of objects, each
    with a nonempty list under ``key``, whose labels ``labels_of(path, i,
    value)`` checks and returns, and an optional name, ``noun[i]`` when not
    given.  The name and every label must be strings: a list or object
    label would otherwise fail as an unhashable key.  Names must be unique
    once the defaults are filled in, so that a report's name is one entry."""
    data = json.loads(_read_text(path))
    if not isinstance(data, list) or not data:
        raise ValueError(f"{path}: expected a nonempty JSON list of {noun}s")
    first: dict[str, int] = {}  # the entry of each name so far
    for i, entry in enumerate(data):
        if not isinstance(entry, dict) or key not in entry:
            raise ValueError(f"{path}: entry {i} must be an object with {key!r}")
        if not isinstance(entry[key], list) or not entry[key]:
            raise ValueError(f"{path}: entry {i} has no {key}")
        labels = labels_of(path, i, entry[key])
        if not isinstance(entry.get("name", ""), str):
            raise ValueError(f"{path}: entry {i} has a name that is not a string")
        for label in labels:
            if not isinstance(label, str):
                raise ValueError(f"{path}: entry {i} has a label that is not a string: {label!r}")
        name = entry.setdefault("name", f"{noun}[{i}]")
        if name in first:
            raise ValueError(f"{path}: entries {first[name]} and {i} have the same name {name!r}")
        first[name] = i
    return data


def read_family_json(path: str | Path) -> list[dict]:
    """[{"name": str, "vertices": [labels]}, ...]; epsilon is never read."""
    return _read_family(path, "vertices", "set", lambda path, i, vertices: vertices)


def _part_labels(path: str | Path, i: int, parts: list) -> list:
    for j, part in enumerate(parts):
        if not isinstance(part, list) or not part:
            raise ValueError(f"{path}: entry {i} part {j} is empty")
    return [label for part in parts for label in part]


def read_kappa_family_json(path: str | Path) -> list[dict]:
    """[{"name": str, "parts": [[labels], ...]}, ...]."""
    return _read_family(path, "parts", "member", _part_labels)
