"""The count column of ``evaluate_with_inputs`` against scalar bounds.

One array pass bounds the run total (entry 0) and every tag. Each entry
must be, bit for bit, what its own counts give through ``from_counts`` and
``phase_error_bound``: the total's what the summed counts of ``from_tags``
give, each tag's what a loop over the tags gives, including q estimates
clamped at 1, counts beyond 2^53 and a tag with an empty sifted key.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from qkdbound.bounds import (
    EmptySiftedKey,
    ObservedStatistics,
    TagCounts,
    bound_inputs_from_source,
    evaluate_with_inputs,
    key_rate,
    per_tag_bounds,
    phase_error_bound,
)
from qkdbound.cli import EXIT_OK, main
from qkdbound.source import PROTOCOLS, ProtocolProbs, SourceSpec

#: Counts this large leave int64 and the exact float integers behind.
SCALE = 10 ** 25


@st.composite
def tagged_runs(draw, min_tags=1):
    """(protocol, per-tag counts) of a run; a q estimate may exceed 1."""
    proto = draw(st.sampled_from(PROTOCOLS), label="protocol")
    probs = ProtocolProbs.uniform(proto.settings)
    scale = draw(st.sampled_from([1, SCALE]), label="scale")
    tags = []
    for w in range(draw(st.integers(min_tags, 10), label="tags")):
        n_w = draw(st.integers(1, 10 ** 7))

        def count(expected):
            # up to 1.5 times the expected count, so q = count / expected
            # clamps to 1 in a third of the draws
            return int(draw(st.floats(0.0, 1.5)) * expected) * scale

        n_x = {j: (count(n_w * probs.p_j[j] * probs.p_xb),
                   count(n_w * probs.p_j[j] * probs.p_xb))
               for j in proto.settings}
        n_det_z = draw(st.integers(1, n_w)) * scale
        n_err_z = draw(st.integers(0, n_det_z // scale)) * scale
        tags.append(TagCounts(w=w, n_w=n_w * scale, n_x=n_x,
                              n_det_z=n_det_z, n_err_z=n_err_z))
    return proto, probs, tags


def inputs(proto, data):
    spec = SourceSpec(delta=data.draw(st.floats(0.0, 0.1), label="delta"),
                      Delta=data.draw(st.floats(0.0, 0.05), label="Delta"),
                      epsilon_u=data.draw(st.floats(0.0, 1e-3), label="eps"))
    return bound_inputs_from_source(spec, proto.name)


def tag_loop(tags, probs, c_upper, pvir, eps):
    """The reference: one scalar ``from_counts`` + bound per tag."""
    return [phase_error_bound(
        ObservedStatistics.from_counts(n=t.n_w, n_x=t.n_x,
                                       n_det_z=t.n_det_z,
                                       n_err_z=t.n_err_z, probs=probs),
        probs, c_upper, pvir, eps) for t in tags]


@settings(max_examples=100, deadline=None)
@given(run=tagged_runs(), data=st.data())
def test_column_equals_tag_loop(run, data):
    proto, probs, tags = run
    c_upper, pvir, eps = inputs(proto, data)
    stats = ObservedStatistics.from_tags(sum(t.n_w for t in tags), tags,
                                         probs)
    column = per_tag_bounds(stats, probs, c_upper, pvir, eps)
    assert all(type(e) is float for e in column)
    assert [e.hex() for e in column] == \
        [e.hex() for e in tag_loop(tags, probs, c_upper, pvir, eps)]


@settings(max_examples=30, deadline=None)
@given(run=tagged_runs(min_tags=2), data=st.data())
def test_one_empty_tag_raises(run, data):
    proto, probs, tags = run
    dead = data.draw(st.integers(0, len(tags) - 1), label="dead tag")
    tags[dead] = TagCounts(w=dead, n_w=tags[dead].n_w, n_x=tags[dead].n_x,
                           n_det_z=0, n_err_z=0)
    c_upper, pvir, eps = inputs(proto, data)
    stats = ObservedStatistics.from_tags(sum(t.n_w for t in tags), tags,
                                         probs)
    with pytest.raises(EmptySiftedKey):
        tag_loop(tags, probs, c_upper, pvir, eps)
    with pytest.raises(EmptySiftedKey):
        per_tag_bounds(stats, probs, c_upper, pvir, eps)


@settings(max_examples=100, deadline=None)
@given(run=tagged_runs(), data=st.data())
def test_total_entry_equals_scalar_path(run, data):
    proto, probs, tags = run
    c_upper, pvir, eps = bound_inputs = inputs(proto, data)
    stats = ObservedStatistics.from_tags(sum(t.n_w for t in tags), tags,
                                         probs)
    want = key_rate(stats.y_z,
                    phase_error_bound(stats, probs, c_upper, pvir, eps),
                    stats.e_bit, 1.16,
                    e_ph_u_per_tag=tag_loop(tags, probs, c_upper, pvir, eps))
    got = evaluate_with_inputs(stats, probs, bound_inputs, 1.16)
    for field in ("y_z", "e_bit", "e_ph_u", "rate"):
        assert getattr(got, field).hex() == getattr(want, field).hex()
    assert [e.hex() for e in got.e_ph_u_per_tag] == \
        [e.hex() for e in want.e_ph_u_per_tag]

    dead = data.draw(st.integers(0, len(tags) - 1), label="dead tag")
    tags[dead] = TagCounts(w=dead, n_w=tags[dead].n_w, n_x=tags[dead].n_x,
                           n_det_z=0, n_err_z=0)
    stats = ObservedStatistics.from_tags(sum(t.n_w for t in tags), tags,
                                         probs)
    with pytest.raises(EmptySiftedKey):
        evaluate_with_inputs(stats, probs, bound_inputs, 1.16)


def test_scaled_document_reports_the_same(tmp_path):
    path = tmp_path / "counts.json"
    assert main(["simulate", "--loss-db", "3", "--pd", "1e-3", "--n",
                 "200000", "--seed", "5", "--lc", "3", "--epsilon-u", "1e-5",
                 "--out", str(path)]) == EXIT_OK
    doc = json.loads(path.read_text())
    doc["n"] *= SCALE
    for t in doc["per_tag"]:
        for key in ("n_w", "n_det_z", "n_err_z"):
            t[key] *= SCALE
        t["n_x"] = {j: [c * SCALE for c in pair]
                    for j, pair in t["n_x"].items()}
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps(doc))
    reports = []
    for counts in (path, scaled):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["bound", str(counts)]) == EXIT_OK
        reports.append(out.getvalue())
    assert "e_ph_u[tag 3]" in reports[0]
    assert reports[1] == reports[0]
