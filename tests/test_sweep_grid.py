"""The grouped sweep equals the scalar pipeline per (source, loss), bit for bit.

``sweep`` makes one ``simulate_asymptotic`` call per (protocol, delta) and
one bound pass per (protocol, delta, Delta): the sources' epsilon_eff form a
(k, 1) column that broadcasts against the loss axis. Every value must equal
``simulate_asymptotic`` + ``evaluate_point`` run on that source and loss
alone, also where G+ saturates (epsilon_u up to 0.9) and where the rate
clamps to 0. The CSV rows are formatted by hand and must stay byte-equal to
what ``csv.writer``, the dialect the goldens were recorded with, writes.
"""

import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qkdbound import cli
from qkdbound.bounds import (
    bound_inputs_from_source,
    evaluate_point,
    phase_error_bound,
)
from qkdbound.gmath import CLAMP_TOL
from qkdbound.simulator import ChannelColumn, simulate_asymptotic
from qkdbound.source import Protocol, ProtocolProbs, SourceSpec

F = 1.16

#: R clamps to 0 at this loss for every p_d drawn: dark counts dominate
DARK_LOSS = 100.0

PROTOCOLS = st.sampled_from(["bb84", "three_state"])
EPSILONS = st.one_of(st.just(0.0), st.floats(1e-8, 1e-2), st.floats(0.01, 0.9))


def bits(values):
    return [float(v).hex() for v in values]


@st.composite
def source_lists(draw):
    """2-6 in-sector sources drawn from small pools of delta, Delta and
    epsilon_u, so that they both share and differ in each."""
    deltas = draw(st.lists(st.floats(-0.3, 0.3), min_size=1, max_size=2))
    caps = draw(st.lists(st.floats(0.0, 0.05), min_size=1, max_size=2))
    epsilons = draw(st.lists(EPSILONS, min_size=1, max_size=3))
    return draw(st.lists(st.builds(
        SourceSpec, delta=st.sampled_from(deltas), Delta=st.sampled_from(caps),
        epsilon_u=st.sampled_from(epsilons),
        correlation_length=st.integers(0, 3)), min_size=2, max_size=6))


def sweep_grid(protocol, specs, losses, p_d):
    """The grouped sweep's values, each checked against its scalar point."""
    probs = ProtocolProbs.uniform(Protocol.named(protocol).settings)
    column = ChannelColumn.of_losses(losses, p_d=p_d, f=F)
    values = cli._sweep_values({"mode": "asymptotic", "f": F}, protocol,
                               specs, column, first_seed=0)
    grid = [list(v) for v in values]
    for spec, rows in zip(specs, grid):
        assert len(rows) == len(losses)
        for ch, row in zip(column.channels, rows):
            point = simulate_asymptotic(spec, probs, ch, protocol=protocol)
            r = evaluate_point(point, probs, spec, protocol, F)
            assert bits(row) == bits([r.y_z, r.e_bit, r.e_ph_u, r.rate])
    return np.array(grid)


@settings(max_examples=40, deadline=None)
@given(protocol=PROTOCOLS, specs=source_lists(),
       losses=st.lists(st.floats(0.0, 80.0), min_size=1, max_size=3),
       p_d=st.floats(1e-9, 1e-5))
@example(protocol="three_state",
         specs=[SourceSpec(delta=0.063, Delta=0.03, epsilon_u=eps,
                           correlation_length=lc)
                for eps, lc in ((0.0, 0), (1e-3, 2), (0.9, 0))]
         + [SourceSpec(delta=-0.1, Delta=0.0, epsilon_u=1e-3)],
         losses=[0.0, 30.0], p_d=1e-8)
def test_grouped_sweep_equals_pointwise(protocol, specs, losses, p_d):
    sweep_grid(protocol, specs, losses + [DARK_LOSS], p_d)


@pytest.mark.parametrize("protocol", ["bb84", "three_state"])
def test_grouped_sweep_reaches_saturation_and_zero_rate(protocol):
    # the property test only covers those edges if the draws reach them
    specs = [SourceSpec(epsilon_u=eps) for eps in (0.0, 1e-3, 0.9)]
    grid = sweep_grid(protocol, specs, [0.0, 10.0, DARK_LOSS], 1e-8)
    e_ph, rate = grid[..., 2], grid[..., 3]
    assert np.all(e_ph[2] == 1.0) and np.all(rate[2] == 0.0)
    assert np.all(rate[:2, :2] > 0.0) and np.all(rate[:, 2] == 0.0)


@settings(max_examples=40, deadline=None)
@given(protocol=PROTOCOLS, delta=st.floats(-0.3, 0.3),
       cap=st.floats(0.0, 0.05),
       eps=st.lists(st.floats(-CLAMP_TOL, 1.0 + CLAMP_TOL) | EPSILONS,
                    min_size=1, max_size=5),
       losses=st.lists(st.floats(0.0, 80.0), min_size=1, max_size=3),
       beyond=st.floats(1.0 + 2 * CLAMP_TOL, 10.0) | st.just(float("nan")))
def test_epsilon_column_equals_scalar_calls(protocol, delta, cap, eps, losses,
                                            beyond):
    spec = SourceSpec(delta=delta, Delta=cap)
    probs = ProtocolProbs.uniform(Protocol.named(protocol).settings)
    stats = simulate_asymptotic(spec, probs,
                                ChannelColumn.of_losses(losses + [DARK_LOSS]),
                                protocol=protocol)
    c_upper, pvir, _ = bound_inputs_from_source(spec, protocol)
    column = phase_error_bound(stats, probs, c_upper, pvir,
                               np.array(eps)[:, None])
    assert column.shape == (len(eps), len(losses) + 1)
    for row, e in zip(column, eps):
        assert bits(row) == bits(phase_error_bound(stats, probs, c_upper,
                                                   pvir, e))
    with pytest.raises(ValueError):
        phase_error_bound(stats, probs, c_upper, pvir,
                          np.array(eps + [beyond])[:, None])


#: every float a sweep row holds, of any magnitude, subnormals included
FLOATS = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def sweep_cells(draw):
    """(losses, sources, values): values[k][i] holds source k at loss i."""
    losses = draw(st.lists(FLOATS, min_size=1, max_size=4))
    sources = draw(st.lists(st.tuples(FLOATS, FLOATS, FLOATS, st.integers()),
                            min_size=1, max_size=4))
    values = [draw(st.lists(st.tuples(*[FLOATS] * 4), min_size=len(losses),
                            max_size=len(losses))) for _ in sources]
    return losses, sources, values


@settings(max_examples=100, deadline=None)
@given(protocol=PROTOCOLS, cells=sweep_cells())
@example(protocol="bb84", cells=(
    [0.0, -0.0, 5e-324],
    [(1e-6, -0.063, 2.2250738585072014e-308, 0), (0.9, -1e300, 1e-320, 7)],
    [[(5e-324, -1e300, 0.0, 1.0)] * 3, [(1e-310, -0.0, 0.5, 1e-9)] * 3]))
def test_sweep_rows_match_csv_writer(protocol, cells):
    losses, sources, values = cells
    out = io.StringIO()
    writer = csv.writer(out)
    for i, loss in enumerate(losses):
        for source, v in zip(sources, values):
            writer.writerow([protocol, loss, *source]
                            + [cli._sci(x) for x in v[i]])
    assert cli._sweep_rows(protocol, losses, sources, values) \
        == out.getvalue()
