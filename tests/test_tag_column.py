"""The count column of ``column_bounds`` against scalar bounds.

One array pass bounds the run total (entry 0) and every tag. Each entry
must be, bit for bit, what its own counts give through ``from_counts`` and
``phase_error_bound``: the total's what the summed counts of ``from_tags``
give, each tag's what a loop over the tags gives, including q estimates
clamped at 1, counts beyond 2^53 and a tag with an empty sifted key. Only
``bound`` prints the tags' bounds, so a finite sweep row is bounded from its
run total alone, even when one of its tags has an empty sifted key.
"""

import contextlib
import dataclasses
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from qkdbound.bounds import (
    EmptySiftedKey,
    ObservedStatistics,
    TagCounts,
    bound_inputs_from_source,
    column_bounds,
    evaluate_with_inputs,
    per_tag_bounds,
    phase_error_bound,
)
from qkdbound.cli import EXIT_COMPUTE, EXIT_OK, main
from qkdbound.simulator import ChannelColumn, RunConfig, simulate_finite
from qkdbound.source import PROTOCOLS, ProtocolProbs, SourceSpec

#: Counts this large leave int64 and the exact float integers behind.
SCALE = 10 ** 25


@st.composite
def tagged_runs(draw, min_tags=1):
    """(protocol, per-tag counts) of a run some protocol could produce: the
    X-basis and sifted counts of a tag never exceed its n_w. One X cell per
    tag is drawn above its expected count, so its q estimate exceeds 1 and
    clamps whenever the tag has the room."""
    proto = draw(st.sampled_from(PROTOCOLS), label="protocol")
    probs = ProtocolProbs.uniform(proto.settings)
    scale = draw(st.sampled_from([1, SCALE]), label="scale")
    cells = [(j, gamma) for j in proto.settings for gamma in (0, 1)]
    tags = []
    for w in range(draw(st.integers(min_tags, 10), label="tags")):
        n_w = draw(st.integers(1, 10 ** 7))
        hot = draw(st.sampled_from(cells), label="cell above expected")
        # one round is kept back for the sifted key
        room = n_w - 1
        x = {}
        for cell in [hot] + [c for c in cells if c != hot]:
            expected = n_w * probs.p_j[cell[0]] * probs.p_xb
            if cell == hot:
                # up to 1.5 times the expected count, and above it
                wanted = int(draw(st.floats(1.0, 1.5)) * expected) + 1
            else:
                wanted = int(draw(st.floats(0.0, 1.0)) * expected)
            x[cell] = min(wanted, room)
            room -= x[cell]
        n_x = {j: (x[j, 0] * scale, x[j, 1] * scale) for j in proto.settings}
        n_det_z = draw(st.integers(1, room + 1)) * scale
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
    total, *per_tag = column_bounds(stats, probs, c_upper, pvir, eps)
    assert total.hex() == \
        phase_error_bound(stats, probs, c_upper, pvir, eps).hex()
    assert [e.hex() for e in per_tag] == \
        [e.hex() for e in tag_loop(tags, probs, c_upper, pvir, eps)]

    dead = data.draw(st.integers(0, len(tags) - 1), label="dead tag")
    tags[dead] = TagCounts(w=dead, n_w=tags[dead].n_w, n_x=tags[dead].n_x,
                           n_det_z=0, n_err_z=0)
    stats = ObservedStatistics.from_tags(sum(t.n_w for t in tags), tags,
                                         probs)
    with pytest.raises(EmptySiftedKey):
        column_bounds(stats, probs, c_upper, pvir, eps)
    if len(tags) > 1:
        # every other tag has a sifted key, so the run total has one too;
        # its report is that of the same totals without tags
        got, want = (evaluate_with_inputs(s, probs, bound_inputs, 1.16)
                     for s in (stats, dataclasses.replace(stats)))
        assert [x.hex() for x in dataclasses.astuple(got)] == \
            [x.hex() for x in dataclasses.astuple(want)]


#: A finite run with l_c = 9 whose total has 3 sifted rounds, and the
#: sifted rounds of each of its tags
EMPTY_TAG_RUN = ["--n", "300", "--lc", "9", "--seed", "3"]
SIFTED_PER_TAG = [0, 0, 1, 0, 0, 1, 0, 0, 1, 0]


def test_sweep_row_with_an_empty_tag_is_bounded_from_its_total(tmp_path,
                                                                capsys):
    # used to refuse the whole sweep with exit 4
    assert main(["sweep", "--mode", "finite", "--loss-start", "10",
                 "--loss-end", "10"] + EMPTY_TAG_RUN) == EXIT_OK
    rows = [ln for ln in capsys.readouterr().out.splitlines()
            if not ln.startswith("#")]
    assert len(rows) == 2
    spec = SourceSpec(delta=0.063, Delta=0.03, correlation_length=9)
    probs = ProtocolProbs.uniform(PROTOCOLS[0].settings)
    ch = ChannelColumn.of_losses([10.0], p_d=1e-8, f=1.16).channels[0]
    stats = simulate_finite(RunConfig(n=300, seed=3, l_c=9, protocol="bb84",
                                      probs=probs), spec, ch)
    assert [t.n_det_z for t in stats.per_tag] == SIFTED_PER_TAG
    report = evaluate_with_inputs(
        stats, probs, bound_inputs_from_source(spec, "bb84"), 1.16)
    assert rows[1].split(",")[6:] == [
        f"{x:.8e}" for x in (report.y_z, report.e_bit, report.e_ph_u,
                             report.rate)]

    # bound prints every tag's bound, and tag 0 has none
    path = tmp_path / "counts.json"
    assert main(["simulate", "--loss-db", "10", "--out", str(path)]
                + EMPTY_TAG_RUN) == EXIT_OK
    doc = json.loads(path.read_text())
    assert [t["n_det_z"] for t in doc["per_tag"]] == SIFTED_PER_TAG
    capsys.readouterr()
    assert main(["bound", str(path)]) == EXIT_COMPUTE
    assert capsys.readouterr().err == \
        "computation error: no detected Z-basis rounds\n"


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
