"""Fuzzing `bound` with mutated counts documents.

Every mutant of a valid document must either replay to the unmodified
report (the mutation touched a field `bound` does not read) or be refused
with exit 2: no traceback, no other exit code and no rate.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from qkdbound.cli import EXIT_CONFIG, EXIT_OK, main

#: Negating these gives another valid document with a different bound:
#: delta is a signed systematic phase deviation.
SIGNED = {("source", "delta")}

#: Replacements no field accepts: other JSON types, or a string naming nothing.
RETYPES = [None, True, "text", [], {}, ["a", "b"], {"k": 1}]

#: A JSON integer no float can hold.
HUGE = 10 ** 400


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def paths(node, prefix=()):
    """Every key path in the document, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def parent_of(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@pytest.fixture(scope="module")
def original(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    path = root / "counts.json"
    assert main(["simulate", "--n", "10000", "--lc", "1", "--epsilon-u",
                 "1e-6", "--out", str(path)]) == EXIT_OK
    code, report, _ = run(["bound", str(path)])
    assert code == EXIT_OK and "rate:" in report
    return root, json.loads(path.read_text()), report


def mutate(doc, path, kind, pick):
    """Apply one mutation in place; a no-op when it does not apply here."""
    parent, key = parent_of(doc, path), path[-1]
    value = parent[key]
    if kind == "drop":
        del parent[key]
    elif kind == "retype":
        parent[key] = RETYPES[pick % len(RETYPES)]
    elif kind == "nan":
        parent[key] = math.nan
    elif kind == "negate" and type(value) in (int, float) \
            and path not in SIGNED:
        parent[key] = -value
    elif kind == "huge" and type(value) in (int, float):
        parent[key] = HUGE
    elif kind == "relength" and isinstance(value, list) and value:
        if pick % 2:
            value.append(json.loads(json.dumps(value[-1])))
        else:
            value.pop()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutants_replay_or_exit_2(original, data):
    # one mutation per mutant: two can cancel into a valid, different
    # document (drop a pair's second count, then copy the first)
    root, doc, report = original
    mutant = json.loads(json.dumps(doc))
    path = data.draw(st.sampled_from(list(paths(mutant))), label="path")
    kind = data.draw(st.sampled_from(
        ["drop", "retype", "nan", "negate", "huge", "relength"]),
        label="kind")
    mutate(mutant, path, kind, data.draw(st.integers(0, 99), label="pick"))
    path = root / "mutant.json"
    path.write_text(json.dumps(mutant))
    code, out, err = run(["bound", str(path)])
    assert "Traceback" not in err
    if code == EXIT_OK:
        assert out == report
    else:
        assert code == EXIT_CONFIG, err
        assert out == "" and "rate:" not in out
