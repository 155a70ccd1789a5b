"""One coefficient pass for several protocols equals one call per protocol.

``coeffs._coeff_bounds`` takes a sequence of protocols. Each keeps its own
rule (corner rules in-sector, the grid outside), the grid rows of all
protocols share one scan of all their X-reference boxes, each box once with
the union of its forms, and each row's bounds are found once per (row, X
reference, rule): a corner rule the protocols share, row 0 over 0X, runs
once. Every bound must be, by ``float.hex``, what the single-protocol
functions give, called one protocol after another; where one of those calls
raises SingularSystem, the pass must raise the message of the first call
that does.
"""

import itertools

import pytest

from qkdbound import coeffs
from qkdbound.coeffs import (
    SingularSystem,
    coeff_bounds_bb84,
    coeff_bounds_three_state,
)
from qkdbound.source import PROTOCOLS, PhaseRanges, SourceSpec
from test_coeff_grid import _seeded_boxes

BOUNDS = {"bb84": coeff_bounds_bb84, "three_state": coeff_bounds_three_state}
ORDERS = list(itertools.permutations(PROTOCOLS))


def _hex(c):
    return {(alpha, j): v.hex() for alpha, row in c.items()
            for j, v in row.items()}


def sequential(protos, ranges):
    """Each protocol's bounds from its own call, or the first call's pole."""
    out = []
    for proto in protos:
        try:
            out.append(_hex(BOUNDS[proto.name](ranges).c))
        except SingularSystem as exc:
            return str(exc)
    return out


def shared(protos, ranges):
    """The one pass's bounds, or its pole's message."""
    try:
        sets = coeffs._coeff_bounds(protos, ranges)
    except SingularSystem as exc:
        return str(exc)
    assert [c.protocol for c in sets] == [proto.name for proto in protos]
    return [_hex(c.c) for c in sets]


def _source(delta, cap_delta):
    return PhaseRanges.from_source(SourceSpec(delta=delta, Delta=cap_delta))


#: row 1 of bb84 next to a pole, blocks the values rule out: the box of
#: test_coeff_grid.py's test_pole_in_blocks_the_values_rule_out_raises_in_both
_ROW_1_POLE = {"0Z": -0.3821853071792574, "1Z": 3.28, "0X": 1.9, "1X": 5.901}
#: theta_0Z = theta_0X + 2 pi, a pole of both rows over 0X: c_{1,0Z} and
#: c_{1,X} meet it on the 81-point grid, c_{0,0X} only on the 321-point
#: one. bb84 raises c_{0,0X}'s (its 1X box is clear) and three-state
#: c_{1,0Z}'s: each the first pole in row order, row 1 first, then the
#: forms of 0Z, 1Z and X
_LATE_POLE = ({"0Z": 5.8386629417141815, "1Z": 6.079233870138798,
               "0X": -0.4445223654754047, "1X": 4.8912643398607765},
              {"0Z": 5.838662942714182, "1Z": 6.079233870138798,
               "0X": -0.44452236447540466, "1X": 4.892264339860777})
POLE_BOXES = [
    _seeded_boxes()[-1],  # theta_0Z = theta_1Z on the grid: a pole of row 1
    PhaseRanges(lo=_ROW_1_POLE,
                hi=dict(_ROW_1_POLE, **{"0Z": -0.382185307178599})),
    PhaseRanges(*_LATE_POLE),
]


def _x_ranges(ranges):
    """The X range of each X reference, by setting."""
    return {j: (ranges.lo[j], ranges.hi[j]) for j in ("0X", "1X")}


def _scans_and_rules(monkeypatch):
    """Record each _grid_maxima call, as the list of its boxes (X range,
    form names), and each corner rule run."""
    calls = []

    def grid_maxima(boxes, *zs, _original=coeffs._grid_maxima):
        calls.append([(rx, [f.__name__ for f in forms])
                      for rx, forms in boxes.items()])
        return _original(boxes, *zs)

    monkeypatch.setattr(coeffs, "_grid_maxima", grid_maxima)
    for key, rule in coeffs._CORNER_RULES.items():
        def counted(*box, _key=key, _rule=rule):
            calls.append(_key)
            return _rule(*box)

        monkeypatch.setitem(coeffs._CORNER_RULES, key, counted)
    return calls


@pytest.mark.parametrize("protos", ORDERS,
                         ids=lambda o: "-".join(p.name for p in o))
def test_seeded_boxes_equal_sequential_calls(protos):
    outcomes = []
    for ranges in _seeded_boxes():
        want = sequential(protos, ranges)
        assert shared(protos, ranges) == want, ranges
        outcomes.append(want)
    # one box, the last, holds a pole
    assert [isinstance(w, str) for w in outcomes] == [False] * 29 + [True]


@pytest.mark.parametrize("ranges", POLE_BOXES,
                         ids=["diagonal", "row_1", "late_row_0"])
@pytest.mark.parametrize("protos", ORDERS,
                         ids=lambda o: "-".join(p.name for p in o))
def test_pole_boxes_raise_the_first_sequential_message(protos, ranges):
    want = sequential(protos, ranges)
    assert isinstance(want, str)
    assert shared(protos, ranges) == want


@pytest.mark.parametrize("delta, cap_delta", [
    (0.0, 0.0), (0.063, 0.03), (-0.08, 0.05), (0.3, 0.01)])
@pytest.mark.parametrize("protos", ORDERS,
                         ids=lambda o: "-".join(p.name for p in o))
def test_in_sector_sources_equal_sequential_calls(protos, delta, cap_delta):
    ranges = _source(delta, cap_delta)
    assert ranges.in_analytic_sectors()
    assert shared(protos, ranges) == sequential(protos, ranges)


@pytest.mark.parametrize("protos", ORDERS,
                         ids=lambda o: "-".join(p.name for p in o))
def test_mixed_source_keeps_each_protocols_rule(monkeypatch, protos):
    # delta = 0.4 takes 1X past its sector: bb84 takes the grid and
    # three-state its corner rules. At Delta = 0.03 they give row 0 over 0X
    # the same bits, so the rules run are checked as well as the values; at
    # Delta = 1e-10 bb84's grid c_{0,0X} is one ulp above the corner rule's,
    # so a row read under the other protocol's rule changes the values too
    sources = [_source(0.4, cap_delta) for cap_delta in (0.03, 1e-10)]
    wants = [sequential(protos, ranges) for ranges in sources]
    calls = _scans_and_rules(monkeypatch)
    for ranges, want in zip(sources, wants):
        calls.clear()
        assert shared(protos, ranges) == want
        # bb84's two boxes in one scan, each with its own row's forms
        x = _x_ranges(ranges)
        assert sorted(calls, key=str) == [(0, "0X"), (1, "0X"), [
            (x["1X"], ["_c1_0z", "_c1_1z", "_c1_x"]),
            (x["0X"], ["_c0_0z", "_c0_1z", "_c0_0x"])]]


@pytest.mark.parametrize("protos", ORDERS,
                         ids=lambda o: "-".join(p.name for p in o))
def test_in_sector_pass_runs_each_corner_rule_once(monkeypatch, protos):
    # both protocols decompose row 0 over 0X: one run of its rule serves both
    calls = _scans_and_rules(monkeypatch)
    coeffs._coeff_bounds(protos, _source(0.063, 0.03))
    assert sorted(calls) == [(0, "0X"), (1, "0X"), (1, "1X")]


def test_both_out_of_sector_scan_each_box_once(monkeypatch):
    # three-state's 0X box joins bb84's, and both boxes share one scan: 9
    # (box, form) pairs, not 12, and one scan, not 2 or 3
    calls = _scans_and_rules(monkeypatch)
    ranges = _source(0.6, 0.03)
    coeffs._coeff_bounds(PROTOCOLS, ranges)
    x = _x_ranges(ranges)
    assert calls == [[(x["1X"], ["_c1_0z", "_c1_1z", "_c1_x"]),
                      (x["0X"], ["_c0_0z", "_c0_1z", "_c0_0x",
                                 "_c1_0z", "_c1_1z", "_c1_x"])]]


@pytest.mark.parametrize("protos", ORDERS,
                         ids=lambda o: "-".join(p.name for p in o))
def test_boxes_of_unequal_x_blocks_equal_sequential_calls(monkeypatch, protos):
    # delta = 0.6, Delta = 3e-16: the 1X range is one phase, one block on its
    # X axis, while 0X is 4.4e-16 wide, six blocks on the 81-point grid;
    # each box is scanned over its own blocks. Five-block slabs cut every
    # level into slabs of one row of blocks
    ranges = _source(0.6, 3e-16)
    assert ranges.lo["1X"] == ranges.hi["1X"] and ranges.lo["0X"] < ranges.hi["0X"]
    want = sequential(protos, ranges)
    assert shared(protos, ranges) == want
    monkeypatch.setattr(coeffs, "_SLAB_BLOCKS", 5)
    assert shared(protos, ranges) == want
