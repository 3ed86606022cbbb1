"""File formats: edge lists, vertex profiles, demand/commodity pair lists,
and the JSON family formats.  Labels are arbitrary tokens, remapped to dense
0-based ids in first-appearance order; the label table travels with every
report so outputs can be mapped back.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from pathlib import Path

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

    def __len__(self):
        return len(self.labels)


def _records(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """(line number, whitespace-separated fields) of every line that is
    neither blank nor a '#' comment.  A leading byte-order mark is dropped
    (``utf-8-sig``), as by both JSON readers, so it never joins a label."""
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), 1):
        fields = raw.split()
        if fields and not fields[0].startswith("#"):
            yield lineno, fields


def read_edge_list(path: str | Path) -> tuple[Graph, LabelTable]:
    """One edge per line, two whitespace-separated labels; '#' starts a comment."""
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    lines: list[int] = []  # the line of each edge
    for lineno, fields in _records(path):
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected two labels, got {len(fields)}")
        a, b = fields
        if a == b:
            raise ValueError(f"{path}:{lineno}: self-loop at {a!r}")
        edges.append((index.setdefault(a, len(index)), index.setdefault(b, len(index))))
        lines.append(lineno)
    if not index:
        raise ValueError(f"{path}: no edges found")
    labels = list(index)
    try:
        g = Graph(len(labels), edges)
    except DuplicateEdgeError as exc:
        first, repeat = exc.positions
        a, b = (labels[v] for v in edges[repeat])
        raise ValueError(
            f"{path}:{lines[repeat]}: duplicate edge {a!r} {b!r}, first on line {lines[first]}"
        ) from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return g, LabelTable(labels)


def write_edge_list(g: Graph, table: LabelTable, path: str | Path) -> None:
    lines = [f"{table.label_of(u)} {table.label_of(v)}" for u, v in g.edges()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_tokens(path: str | Path) -> list[str]:
    """Whitespace-separated tokens, '#' comments allowed: used for profiles."""
    return [token for _, fields in _records(path) for token in fields]


def read_pairs(path: str | Path) -> list[tuple[str, str]]:
    """One labeled pair of distinct labels per line: demand and commodity files."""
    pairs: list[tuple[str, str]] = []
    for lineno, fields in _records(path):
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected two labels, got {len(fields)}")
        if fields[0] == fields[1]:
            raise ValueError(f"{path}:{lineno}: pair with equal endpoints {fields[0]!r}")
        pairs.append((fields[0], fields[1]))
    if not pairs:
        raise ValueError(f"{path}: no pairs found")
    return pairs


def _check_strings(path: str | Path, i: int, entry: dict, labels: list) -> None:
    """Raise unless the entry's name, if given, and every label are strings:
    a list or object label would otherwise fail as an unhashable key."""
    if not isinstance(entry.get("name", ""), str):
        raise ValueError(f"{path}: entry {i} has a name that is not a string")
    for label in labels:
        if not isinstance(label, str):
            raise ValueError(f"{path}: entry {i} has a label that is not a string: {label!r}")


def read_family_json(path: str | Path) -> list[dict]:
    """[{"name": str, "vertices": [labels]}, ...]; epsilon is never read."""
    data = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    if not isinstance(data, list) or not data:
        raise ValueError(f"{path}: expected a nonempty JSON list of sets")
    for i, entry in enumerate(data):
        if not isinstance(entry, dict) or "vertices" not in entry:
            raise ValueError(f"{path}: entry {i} must be an object with 'vertices'")
        if not isinstance(entry["vertices"], list) or not entry["vertices"]:
            raise ValueError(f"{path}: entry {i} has no vertices")
        _check_strings(path, i, entry, entry["vertices"])
        entry.setdefault("name", f"set[{i}]")
    return data


def read_kappa_family_json(path: str | Path) -> list[dict]:
    """[{"name": str, "parts": [[labels], ...]}, ...]."""
    data = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    if not isinstance(data, list) or not data:
        raise ValueError(f"{path}: expected a nonempty JSON list of members")
    for i, entry in enumerate(data):
        if not isinstance(entry, dict) or "parts" not in entry:
            raise ValueError(f"{path}: entry {i} must be an object with 'parts'")
        parts = entry["parts"]
        if not isinstance(parts, list) or not parts:
            raise ValueError(f"{path}: entry {i} has no parts")
        for j, part in enumerate(parts):
            if not isinstance(part, list) or not part:
                raise ValueError(f"{path}: entry {i} part {j} is empty")
        _check_strings(path, i, entry, [label for part in parts for label in part])
        entry.setdefault("name", f"member[{i}]")
    return data
