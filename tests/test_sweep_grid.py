"""The grouped sweep equals the scalar pipeline per (source, loss), bit for bit.

``sweep`` makes one ``simulate_asymptotic`` call per delta, shared by every
protocol, and computes c^U and pbar_vir once per (delta, Delta) for all
protocols, each grid box scanned once for the union of its forms. Then
comes one bound pass per (delta, Delta) for all protocols: their tables,
widened to bb84's settings, are stacked on a leading protocol axis, and the
sources' epsilon_eff form a (k, 1) column that broadcasts against the loss
axis. Every value must equal ``simulate_asymptotic`` + ``evaluate_point``
run on that protocol, source and loss alone, also where G+ saturates
(epsilon_u up to 0.9) and where the rate clamps to 0. The CSV rows are
formatted by hand, a column of cells per call of one formatter and each
Y_Z and e_bit cell once per (delta, loss), and must stay byte-equal to
what ``csv.writer``, the dialect the goldens were recorded with, writes of
``{:.8e}`` cells.
"""

import contextlib
import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qkdbound import cli
from qkdbound.bounds import (
    bound_inputs_from_source,
    evaluate_point,
    key_rate,
    phase_error_bound,
    stacked_bound_inputs,
)
from qkdbound.gmath import CLAMP_TOL
from qkdbound.simulator import ChannelColumn, simulate_asymptotic
from qkdbound.source import (
    BB84,
    PROTOCOLS as TABLE,
    Protocol,
    ProtocolProbs,
    SourceSpec,
)

F = 1.16

#: R clamps to 0 at this loss for every p_d drawn: dark counts dominate
DARK_LOSS = 100.0

PROTOCOLS = st.sampled_from(["bb84", "three_state"])
#: the protocol lists a sweep runs: ``--protocol`` bb84, three-state or both
PROTOCOL_LISTS = st.sampled_from([["bb84"], ["three_state"],
                                  ["bb84", "three_state"]])
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


def sweep_grid(protocols, specs, losses, p_d):
    """The grouped sweep's values, each checked against its scalar point."""
    column = ChannelColumn.of_losses(losses, p_d=p_d, f=F)
    stats, values = cli._sweep_values({"mode": "asymptotic", "f": F},
                                      protocols, specs, column)
    grid = []
    for protocol, by_source in zip(protocols, values):
        probs = ProtocolProbs.uniform(Protocol.named(protocol).settings)
        grid.append([])
        for spec, (g, e_ph, rate) in zip(specs, by_source):
            rows = list(zip(*stats[g], e_ph, rate))
            assert len(rows) == len(losses)
            for ch, row in zip(column.channels, rows):
                point = simulate_asymptotic(spec, probs, ch, protocol=protocol)
                r = evaluate_point(point, probs, spec, protocol, F)
                assert bits(row) == bits([r.y_z, r.e_bit, r.e_ph_u, r.rate])
            grid[-1].append(rows)
    return np.array(grid)


@settings(max_examples=40, deadline=None)
@given(protocols=PROTOCOL_LISTS, specs=source_lists(),
       losses=st.lists(st.floats(0.0, 80.0), min_size=1, max_size=3),
       p_d=st.floats(1e-9, 1e-5))
@example(protocols=["bb84", "three_state"],
         specs=[SourceSpec(delta=0.063, Delta=0.03, epsilon_u=eps,
                           correlation_length=lc)
                for eps, lc in ((0.0, 0), (1e-3, 2), (0.9, 0))]
         + [SourceSpec(delta=-0.1, Delta=0.0, epsilon_u=1e-3)],
         losses=[0.0, 30.0], p_d=1e-8)
def test_grouped_sweep_equals_pointwise(protocols, specs, losses, p_d):
    sweep_grid(protocols, specs, losses + [DARK_LOSS], p_d)


@pytest.mark.parametrize("protocol", ["bb84", "three_state"])
def test_grouped_sweep_reaches_saturation_and_zero_rate(protocol):
    # the property test only covers those edges if the draws reach them
    specs = [SourceSpec(epsilon_u=eps) for eps in (0.0, 1e-3, 0.9)]
    grid = sweep_grid([protocol], specs, [0.0, 10.0, DARK_LOSS], 1e-8)[0]
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


@settings(max_examples=40, deadline=None)
@given(delta=st.floats(-0.3, 0.3) | st.floats(0.35, 0.7),
       cap=st.floats(0.0, 0.05),
       eps=st.lists(EPSILONS, min_size=1, max_size=4),
       losses=st.lists(st.floats(0.0, 80.0), min_size=1, max_size=3),
       p_d=st.floats(1e-9, 1e-5), one_loss=st.booleans())
@example(delta=0.063, cap=0.03, eps=[0.0, 1e-3, 0.9], losses=[0.0, 30.0],
         p_d=1e-8, one_loss=False)
def test_stacked_table_equals_each_protocol_alone(delta, cap, eps, losses, p_d,
                                                  one_loss):
    # bb84's table and three-state's, widened by a zero 1X column, bound bb84
    # statistics in one call as each protocol's own table bounds its own
    spec = SourceSpec(delta=delta, Delta=cap)
    channel = (ChannelColumn.of_losses(losses + [DARK_LOSS], p_d=p_d).channels[0]
               if one_loss else
               ChannelColumn.of_losses(losses + [DARK_LOSS], p_d=p_d))
    names = [p.name for p in TABLE]
    shared = simulate_asymptotic(spec, ProtocolProbs.uniform(), channel)
    c_upper, pvir, _ = stacked_bound_inputs(spec, names)
    assert c_upper.settings == BB84.settings
    assert c_upper.table.shape == (len(names), 2, len(BB84.settings))
    for e in (eps[0], np.array(eps)[:, None]):
        grid = phase_error_bound(shared, ProtocolProbs.uniform(), c_upper,
                                 pvir, e)
        rates = key_rate(shared.y_z, grid, shared.e_bit, F).rate
        for n, protocol in enumerate(names):
            probs = ProtocolProbs.uniform(Protocol.named(protocol).settings)
            own = simulate_asymptotic(spec, probs, channel, protocol=protocol)
            c_own, pvir_own, _ = bound_inputs_from_source(spec, protocol)
            alone = phase_error_bound(own, probs, c_own, pvir_own, e)
            assert np.shape(grid[n]) == np.shape(alone)
            assert bits(np.ravel(grid[n])) == bits(np.ravel(alone))
            assert bits(np.ravel(rates[n])) == bits(np.ravel(
                key_rate(own.y_z, alone, own.e_bit, F).rate))
            if not one_loss:
                # dark counts dominate at DARK_LOSS: R = 0 in every row
                assert np.all(rates[n][..., -1] == 0.0)


#: every float a sweep row holds, of any magnitude, subnormals included
FLOATS = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def sweep_cells(draw):
    """(protocols, losses, sources, stats, values) in ``cli._sweep_rows``'s
    layout: stats[g] is a (Y_Z, e_bit) pair of lists over the losses and
    values[n][k] = (g, e_ph_u list, rate list) of protocol n, source k."""
    protocols = draw(st.lists(PROTOCOLS, min_size=1, max_size=2))
    losses = draw(st.lists(FLOATS, min_size=1, max_size=4))
    column = st.lists(FLOATS, min_size=len(losses), max_size=len(losses))
    sources = draw(st.lists(st.tuples(FLOATS, FLOATS, FLOATS, st.integers()),
                            min_size=1, max_size=4))
    stats = draw(st.lists(st.tuples(column, column), min_size=1, max_size=3))
    values = [[draw(st.tuples(st.integers(0, len(stats) - 1), column, column))
               for _ in sources] for _ in protocols]
    return protocols, losses, sources, stats, values


@settings(max_examples=100, deadline=None)
@given(cells=sweep_cells())
@example(cells=(
    ["bb84", "three_state"], [0.0, -0.0, 5e-324],
    [(1e-6, -0.063, 2.2250738585072014e-308, 0), (0.9, -1e300, 1e-320, 7)],
    [([5e-324] * 3, [-1e300] * 3), ([1e-310] * 3, [-0.0] * 3)],
    [[(0, [0.0] * 3, [1.0] * 3), (1, [0.5] * 3, [1e-9] * 3)],
     [(1, [float("nan")] * 3, [-0.0] * 3), (1, [float("inf")] * 3,
                                            [-float("inf")] * 3)]]))
def test_sweep_rows_match_csv_writer(cells):
    protocols, losses, sources, stats, values = cells
    out = io.StringIO()
    writer = csv.writer(out)
    for protocol, by_source in zip(protocols, values):
        for i, loss in enumerate(losses):
            for source, (g, e_ph, rate) in zip(sources, by_source):
                y_z, e_bit = stats[g]
                writer.writerow([protocol, loss, *source] + [
                    f"{x:.8e}" for x in (y_z[i], e_bit[i], e_ph[i], rate[i])])
    assert cli._sweep_rows(protocols, losses, sources, stats, values) \
        == out.getvalue()


def test_every_protocol_settings_are_bb84_settings():
    # the sweep computes one set of statistics per delta with bb84's
    # settings and hands it to every protocol
    for proto in TABLE:
        assert set(proto.settings) <= set(BB84.settings)


#: the line that ends a sweep CSV's header
CSV_HEADER = "protocol,loss_db,epsilon_u,delta,Delta,l_c,Y_Z,e_bit,e_ph_u,rate\r\n"


def sweep_csv(argv):
    """The CSV ``cli.main`` writes to stdout for ``sweep`` + ``argv``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["sweep"] + argv) == cli.EXIT_OK
    return out.getvalue()


def number_list(draw, flag, values):
    """``flag=v1[,v2]``, one argument even for a negative first value."""
    drawn = draw(st.lists(values, min_size=1, max_size=2))
    return f"{flag}={','.join(map(repr, drawn))}"


@st.composite
def sweep_argvs(draw):
    """A small in-sector sweep's flags, its losses ending at DARK_LOSS.

    A finite run's cost does not depend on --n; 10^12 rounds leave a
    nonempty sifted key in every tag even at DARK_LOSS."""
    step = draw(st.floats(20.0, 50.0))
    argv = ["--loss-start", repr(DARK_LOSS - draw(st.integers(0, 2)) * step),
            "--loss-end", repr(DARK_LOSS), "--loss-step", repr(step),
            number_list(draw, "--delta", st.floats(-0.3, 0.3)),
            number_list(draw, "--cap-delta", st.floats(0.0, 0.05)),
            number_list(draw, "--epsilon-u", EPSILONS),
            number_list(draw, "--lc", st.integers(0, 3)),
            "--pd", repr(draw(st.floats(1e-9, 1e-5)))]
    if draw(st.booleans()):
        argv += ["--mode", "finite", "--n", str(10 ** 12),
                 "--seed", str(draw(st.integers(0, 1000)))]
    return argv


@settings(max_examples=25, deadline=None)
@given(argv=sweep_argvs())
# delta = 0.4, beyond the draws: bb84 takes the grid (1X leaves its sector)
# and three-state its corner rules, from one shared coefficient pass
@example(argv=["--delta", "0.4", "--cap-delta", "0.03", "--loss-end", "20",
               "--loss-step", "10"])
# in sector, four (delta, Delta) groups: three-state's table gains a zero 1X
# column that must add exactly +0.0, under G+ saturation (epsilon_u = 0.9)
# and R = 0 (100 dB)
@example(argv=["--loss-start", "0", "--loss-end", "100", "--loss-step", "5",
               "--epsilon-u", "0,1e-5,0.9", "--delta", "0.05,0.08",
               "--cap-delta", "0.02,0.03", "--lc", "0,2"])
def test_both_protocols_equal_each_alone(argv):
    # the statistics are shared across protocols: each protocol's rows must
    # be those of its own run; a finite row's seed is --seed + its row index
    both = sweep_csv(argv + ["--protocol", "both"])
    bb84 = sweep_csv(argv + ["--protocol", "bb84"])
    rows = bb84.split(CSV_HEADER)[1].count("\r\n")
    if "finite" in argv:
        seed = argv.index("--seed") + 1
        argv = argv[:seed] + [str(int(argv[seed]) + rows)] + argv[seed + 1:]
    three = sweep_csv(argv + ["--protocol", "three-state"])
    assert both == bb84 + three.split(CSV_HEADER)[1]
