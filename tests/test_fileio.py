"""The whole-file readers of edge and pair lists against themselves on
the line-by-line path, which they take for every other text and every
error; and every message and default name of the two JSON family
readers."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercore import fileio
from hypercore.fileio import (
    _read_text,
    _two_label_tokens,
    read_edge_list,
    read_family_json,
    read_kappa_family_json,
    read_pairs,
)

SEPARATORS = [" ", "\t", "\n", "\r", "\x0b", "\x1c", "\x85", "\xa0", "\u2028"]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fileio") / "input.txt"


@st.composite
def label_texts(draw):
    """An optional byte-order mark, then lines of two short labels padded
    and separated by spaces and tabs, each ended by '\\n' but perhaps the
    last, with up to two insertions of a separator, a '#' or a label
    anywhere."""
    label = st.sampled_from(["a", "b", "c", "d", "ab", "#a"])
    blank, gap = st.text(" \t", max_size=2), st.text(" \t", min_size=1, max_size=2)
    text = ""
    for _ in range(draw(st.integers(0, 6))):
        text += draw(blank) + draw(label) + draw(gap) + draw(label) + draw(blank)
        text += "\n"
    if draw(st.booleans()):
        text = text[:-1]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(SEPARATORS + ["#", "a"])) + text[at:]
    return draw(st.sampled_from(["", "\ufeff"])) + text


def edge_outcome(read, path):
    """The CSR, tree walk and labels read from ``path``, or the error text."""
    try:
        g, table = read(path)
    except ValueError as exc:
        return str(exc)
    return g.indptr.tolist(), g.indices.tolist(), g._walk, table.labels


def pair_outcome(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return str(exc)


def check_readers(path, text):
    path.write_bytes(text.encode("utf-8"))
    edges, pairs = edge_outcome(read_edge_list, path), pair_outcome(read_pairs, path)
    with pytest.MonkeyPatch.context() as mp:  # every text read line by line
        mp.setattr(fileio, "_two_label_tokens", lambda text: None)
        assert edge_outcome(read_edge_list, path) == edges
        assert pair_outcome(read_pairs, path) == pairs


@settings(max_examples=400, deadline=None)
@given(label_texts())
@example("a b\nb c\n")
@example("a b\n\rb c")
@example("a b\x85b c\n")
@example("a\xa0b\nb c\n")
def test_whole_file_readers_match_the_line_readers(scratch, text):
    check_readers(scratch, text)


SELF_LOOP = "{path}:2: self-loop at 'b'"
EQUAL_C = "{path}:3: pair with equal endpoints 'c'"


@pytest.mark.parametrize(
    "text, fast, outcome",
    [
        ("a b\nb c", True, (["a", "b", "c"], [("a", "b"), ("b", "c")])),
        ("a b\r\nb c\r\n", True, (["a", "b", "c"], [("a", "b"), ("b", "c")])),
        (" a\tb \n\tb  c\t\n", True, (["a", "b", "c"], [("a", "b"), ("b", "c")])),
        ("a #b\nc #b\n", True, (["a", "#b", "c"], [("a", "#b"), ("c", "#b")])),
        ("\ufeffa b\nb c\n", True, (["a", "b", "c"], [("a", "b"), ("b", "c")])),
        ("# edges\na b\nb c\n", False, (["a", "b", "c"], [("a", "b"), ("b", "c")])),
        ("a b\n\nb c\n", False, (["a", "b", "c"], [("a", "b"), ("b", "c")])),
        ("a b # note\n", False, "{path}:1: expected two labels, got 4"),
        ("a b\nb b\n", True, (SELF_LOOP, "{path}:2: pair with equal endpoints 'b'")),
        ("a b\nb c\nb a\n", True, ("{path}:3: duplicate edge 'b' 'a', first on line 1", None)),
        ("a b\nc d\n", True, ("{path}: graph is disconnected: vertex 2 unreachable from 0", None)),
        ("a b\nb a\nc c\n", True, ("{path}:3: self-loop at 'c'", EQUAL_C)),
        ("# c\na b\nb c\nb a\n", False, ("{path}:4: duplicate edge 'b' 'a', first on line 2", None)),
        ("# c\na b\nc d\n", False, ("{path}: graph is disconnected: vertex 2 unreachable from 0", None)),
        ("\ufeff", False, ("{path}: no edges found", "{path}: no pairs found")),
    ],
    ids=[
        "no-final-newline", "crlf", "tabs-and-padding", "label-starting-with-hash", "bom",
        "comment-line", "blank-line", "trailing-comment", "self-loop", "duplicate-edge",
        "disconnected", "self-loop-after-a-repeat", "commented-duplicate-edge",
        "commented-disconnected", "only-a-bom",
    ],
)
def test_reader_cases(scratch, text, fast, outcome):
    scratch.write_bytes(text.encode("utf-8"))
    assert (_two_label_tokens(_read_text(scratch)) is not None) is fast
    check_readers(scratch, text)
    if isinstance(outcome, str):
        outcome = (outcome, outcome)
    edges, pairs = outcome
    if isinstance(edges, str):
        with pytest.raises(ValueError) as err:
            read_edge_list(scratch)
        assert str(err.value) == edges.format(path=scratch)
    else:
        assert read_edge_list(scratch)[1].labels == edges
    if isinstance(pairs, str):
        with pytest.raises(ValueError) as err:
            read_pairs(scratch)
        assert str(err.value) == pairs.format(path=scratch)
    elif pairs is not None:
        assert read_pairs(scratch) == pairs


NOT_A_STRING = "{path}: entry 1 has a label that is not a string: "


@pytest.mark.parametrize(
    "read, data, outcome",
    [
        (read_family_json, [], "{path}: expected a nonempty JSON list of sets"),
        (read_family_json, {"a": ["x"]}, "{path}: expected a nonempty JSON list of sets"),
        (read_family_json, [["x"]], "{path}: entry 0 must be an object with 'vertices'"),
        (
            read_family_json,
            [{"vertices": ["x"]}, {"parts": [["x"]]}],
            "{path}: entry 1 must be an object with 'vertices'",
        ),
        (read_family_json, [{"vertices": []}], "{path}: entry 0 has no vertices"),
        (read_family_json, [{"vertices": "x"}], "{path}: entry 0 has no vertices"),
        (
            read_family_json,
            [{"vertices": ["x"]}, {"name": 1, "vertices": ["x"]}],
            "{path}: entry 1 has a name that is not a string",
        ),
        (
            read_family_json,
            [{"vertices": ["x"]}, {"vertices": ["x", 2]}],
            NOT_A_STRING + "2",
        ),
        (
            read_family_json,
            [{"name": "a", "vertices": ["x"]}, {"vertices": ["y", "x"]}],
            [{"name": "a", "vertices": ["x"]}, {"vertices": ["y", "x"], "name": "set[1]"}],
        ),
        (read_kappa_family_json, [], "{path}: expected a nonempty JSON list of members"),
        (read_kappa_family_json, "x", "{path}: expected a nonempty JSON list of members"),
        (read_kappa_family_json, [None], "{path}: entry 0 must be an object with 'parts'"),
        (
            read_kappa_family_json,
            [{"parts": [["x"]]}, {"vertices": ["x"]}],
            "{path}: entry 1 must be an object with 'parts'",
        ),
        (read_kappa_family_json, [{"parts": []}], "{path}: entry 0 has no parts"),
        (read_kappa_family_json, [{"parts": {"x": 1}}], "{path}: entry 0 has no parts"),
        (read_kappa_family_json, [{"parts": [["x"], []]}], "{path}: entry 0 part 1 is empty"),
        (read_kappa_family_json, [{"parts": [["x"], "y"]}], "{path}: entry 0 part 1 is empty"),
        (
            read_kappa_family_json,
            [{"parts": [["x"]]}, {"name": ["m"], "parts": [["x"]]}],
            "{path}: entry 1 has a name that is not a string",
        ),
        (
            read_kappa_family_json,
            [{"parts": [["x"]]}, {"parts": [["x"], ["y", None]]}],
            NOT_A_STRING + "None",
        ),
        (
            read_kappa_family_json,
            [{"parts": [["x"], ["y"]]}, {"name": "b", "parts": [["y"]]}],
            [{"parts": [["x"], ["y"]], "name": "member[0]"}, {"name": "b", "parts": [["y"]]}],
        ),
        (
            read_family_json,
            [{"name": "set[1]", "vertices": ["x"]}, {"vertices": ["y"]}],
            "{path}: entries 0 and 1 have the same name 'set[1]'",
        ),
        (
            read_kappa_family_json,
            [{"name": "a", "parts": [["x"]]}, {"parts": [["y"]]}, {"name": "a", "parts": [["x"]]}],
            "{path}: entries 0 and 2 have the same name 'a'",
        ),
    ],
)
def test_family_reader_cases(scratch, read, data, outcome):
    scratch.write_text(json.dumps(data), encoding="utf-8")
    if isinstance(outcome, str):
        with pytest.raises(ValueError) as err:
            read(scratch)
        assert str(err.value) == outcome.format(path=scratch)
    else:
        assert read(scratch) == outcome


@pytest.mark.parametrize("read", [read_family_json, read_kappa_family_json])
def test_a_deeply_nested_family_is_a_value_error(scratch, read):
    # the decoder recurses once per level, so this raised RecursionError
    scratch.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read(scratch)
    assert str(err.value) == f"{scratch}: JSON nested too deeply"
