"""Command-line harness: parameter sweeps, simulation runs and counts-file bounding.

Subcommands:
  sweep     evaluate key rates over a (protocol, loss, imperfection) grid -> CSV
  simulate  run the seeded Monte Carlo protocol -> versioned counts document
  bound     apply the bound pipeline to a counts document -> report

Configuration precedence is command line > config file (JSON) > defaults;
defaults follow the standard benchmark parameters (delta=0.063, Delta=0.03,
p_d=1e-8, f=1.16). Both JSON inputs, config file and counts document, are
read by ``_load_json``; the counts document's sections are the constructor
fields of the records they hold. Exit codes: 0 success, 2 configuration
error (malformed or too deeply nested JSON included), 3 I/O error,
4 computation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .bounds import (
    EmptySiftedKey,
    ObservedStatistics,
    TagCounts,
    bound_inputs_from_source,
    column_bounds,
    evaluate_with_inputs,
    key_rate,
)
from .coeffs import SingularSystem
from .simulator import (
    CHANNEL_MODEL_ID,
    ChannelColumn,
    ChannelParams,
    RunConfig,
    simulate_asymptotic,
    simulate_finite,
)
from .source import BB84, PROTOCOLS, Protocol, ProtocolProbs, SourceSpec

COUNTS_SCHEMA = "qkdbound-counts/2"
#: Schemas ``bound`` reads: /1 only adds two fields that it never read
READ_SCHEMAS = ("qkdbound-counts/1", COUNTS_SCHEMA)
RNG_ID = "numpy-default-rng-pcg64-multinomial-v2"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_COMPUTE = 4

#: the most rows (losses x sources x protocols) one sweep may compute
MAX_SWEEP_ROWS = 1_000_000


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


class IoError(OSError):
    """Input/output failure with a user-supplied path."""


# ---------------------------------------------------------------------------
# Configuration plumbing.

class _Field(NamedTuple):
    """One configuration field: its flag, config-file key and default."""

    name: str
    #: JSON kind of the value, or of each entry of a list: str, int or float
    kind: type
    #: a list default makes a list field, comma-separated on the command line
    default: object
    commands: Tuple[str, ...] = ("sweep", "simulate")
    choices: Optional[Tuple[str, ...]] = None
    help: Optional[str] = None

    @property
    def listed(self) -> bool:
        return isinstance(self.default, list)


_FIELDS = (
    _Field("loss_start", float, 0.0, ("sweep",)),
    _Field("loss_end", float, 60.0, ("sweep",)),
    _Field("loss_step", float, 5.0, ("sweep",)),
    _Field("loss_db", float, 20.0, ("simulate",)),
    _Field("protocol", str, "bb84", choices=tuple(
        p.name.replace("_", "-") for p in PROTOCOLS) + ("both",)),
    _Field("epsilon_u", float, [0.0],
           help="comma-separated list of side-channel weights"),
    _Field("delta", float, [0.063],
           help="systematic phase deviation(s), radians"),
    _Field("cap_delta", float, [0.03],
           help="phase fluctuation half-width(s) Delta, radians"),
    _Field("lc", int, [0], help="correlation length(s)"),
    _Field("pd", float, 1e-8, help="dark-count probability"),
    _Field("f", float, 1.16, help="error-correction efficiency"),
    _Field("mode", str, "asymptotic", choices=("asymptotic", "finite")),
    _Field("n", int, 1_000_000, help="rounds per finite run"),
    _Field("seed", int, 1, help="RNG seed (finite mode)"),
)

_KIND_NAMES = {str: "a string", int: "an integer", float: "a number"}


def _is_kind(kind: type, value) -> bool:
    """Whether a JSON value is of ``kind``; a bool is never a number."""
    if kind is float:
        # an int beyond the float range cannot become a float
        return type(value) is float or (type(value) is int and
                                        abs(value) <= sys.float_info.max)
    return type(value) is kind


def _float_list(text: str) -> List[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _int_list(text: str) -> List[int]:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _load_json(path: str, what: str):
    """The JSON value in the file at ``path``, the one reader of both inputs.

    An unreadable file is an IoError (exit 3); a file that is not JSON, or
    nests too deep for the parser, is a ConfigError (exit 2).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{what} {path}: nested too deeply") from exc


def _resolve(args: argparse.Namespace) -> Dict:
    """Merge CLI flags over config-file values over defaults; check each."""
    path = getattr(args, "config", None)
    cfg = {} if path is None else _load_json(path, "config file")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path}: top level must be an object")
    unknown = set(cfg) - {fld.name for fld in _FIELDS}
    if unknown:
        raise ConfigError(f"config file {path}: unknown fields {sorted(unknown)}")
    file_fields = set(cfg)
    for fld in _FIELDS:
        value = getattr(args, fld.name, None)
        if value is None:
            value = cfg.get(fld.name, fld.default)
        values = value if fld.listed and isinstance(value, list) else [value]
        if not values:
            raise ConfigError(f"{fld.name} list must be nonempty")
        for v in values:
            if not _is_kind(fld.kind, v):
                raise ConfigError(f"{fld.name} = {v!r} is not "
                                  f"{_KIND_NAMES[fld.kind]}")
            if fld.choices and v not in fld.choices:
                raise ConfigError(f"unknown {fld.name} {v!r}")
        if fld.kind is float:
            values = [float(v) for v in values]
        cfg[fld.name] = values if fld.listed else values[0]
    for fld in _FIELDS:
        if fld.name in file_fields and args.command not in fld.commands:
            raise ConfigError(f"config file field {fld.name} is not read by "
                              f"{args.command}")
    for key in ("loss_start", "loss_end", "loss_step"):
        if not math.isfinite(cfg[key]):
            raise ConfigError(f"--{key.replace('_', '-')} = {cfg[key]!r} "
                              f"is not finite")
    if cfg["loss_step"] <= 0:
        raise ConfigError("loss step must be positive")
    if cfg["loss_end"] < cfg["loss_start"]:
        raise ConfigError("empty loss grid: end before start")
    return cfg


def _loss_grid(cfg: Dict, rows_per_loss: int) -> List[float]:
    start, step = cfg["loss_start"], cfg["loss_step"]
    # built by index, with an inclusive endpoint and float-noise slack of
    # half a step, so a step lost to rounding cannot stall the grid
    span = (cfg["loss_end"] - start) / step
    if not math.isfinite(span):
        raise ConfigError("loss grid bounds must be finite")
    last = math.floor(span + 0.5)
    rows = (last + 1) * rows_per_loss
    if rows > MAX_SWEEP_ROWS:
        raise ConfigError(f"sweep of {rows} rows exceeds the limit of "
                          f"{MAX_SWEEP_ROWS} rows")
    grid = [round(start + i * step, 12) for i in range(last + 1)]
    for a, b in zip(grid, grid[1:]):
        if b <= a:
            raise ConfigError(f"loss step {step!r} does not advance the loss "
                              f"at float precision near {a!r}")
    return grid


def _protocols(cfg: Dict) -> List[str]:
    if cfg["protocol"] == "both":
        return [p.name for p in PROTOCOLS]
    return [cfg["protocol"].replace("-", "_")]


def _emit(path: Optional[str], text: str) -> None:
    """Write the whole output at once, to stdout for no path or "-"."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _sci(x: float) -> str:
    return f"{x:.8e}"


# ---------------------------------------------------------------------------
# sweep

def _sweep_rows(protocols: Sequence[str], losses: Sequence[float],
                sources: Sequence[Tuple], stats, values) -> str:
    """All protocols' CSV rows, each protocol's loss-major, as ``csv.writer``
    writes them: each cell as ``str``, then (Y_Z, e_bit, e_ph_u, rate) as
    ``{:.8e}``, each row ended by "\r\n". ``stats[g]`` is a (Y_Z, e_bit)
    pair of lists over the losses, ``values[n][k]`` (g, e_ph_u list, rate
    list) of protocol n and source k. Each loss, source and (g, loss) cell
    is formatted once."""
    loss_cells = list(map(str, losses))
    source_cells = [",".join(map(str, source)) for source in sources]
    stat_cells = [[f"{y:.8e},{e:.8e}" for y, e in zip(*pair)]
                  for pair in stats]
    rows = []
    for protocol, by_source in zip(protocols, values):
        columns = [zip(stat_cells[g], e_ph, rate)
                   for g, e_ph, rate in by_source]
        rows += [f"{protocol},{loss},{c},{s},{p:.8e},{r:.8e}\r\n"
                 for loss, at_loss in zip(loss_cells, zip(*columns))
                 for c, (s, p, r) in zip(source_cells, at_loss)]
    return "".join(rows)


def _sweep_values(cfg: Dict, protocols: Sequence[str],
                  specs: List[SourceSpec], column: ChannelColumn) -> Tuple:
    """(stats, values) of every protocol and source, as ``_sweep_rows``
    takes them. The statistics depend on delta only, c^U and pbar_vir on
    (protocol, delta, Delta) only. So asymptotic mode makes one
    ``simulate_asymptotic`` call per delta for all protocols, and one bound
    pass per (protocol, delta, Delta), the sources' epsilon_eff a column
    against the loss axis. Finite mode makes one seeded run per row, seeded
    with ``--seed`` plus the row's index, (n * losses + i) * sources + k.
    """
    groups: Dict[float, Dict[float, List[int]]] = {}
    for k, spec in enumerate(specs):
        groups.setdefault(spec.delta, {}).setdefault(spec.Delta, []).append(k)
    probs = [ProtocolProbs.uniform(Protocol.named(p).settings)
             for p in protocols]
    stats: List = []
    values: List = [[None] * len(specs) for _ in protocols]
    finite = cfg["mode"] == "finite"
    for delta, by_cap in groups.items():
        if not finite:
            # every protocol's settings are among bb84's, and a setting's
            # statistics come out the same whichever protocol asks for them
            shared = simulate_asymptotic(SourceSpec(delta=delta),
                                         ProtocolProbs.uniform(), column,
                                         protocol=BB84.name)
            stats.append((shared.y_z.tolist(), shared.e_bit.tolist()))
        for ks in by_cap.values():
            eps = [specs[k].effective_epsilon() for k in ks]
            for n, protocol in enumerate(protocols):
                inputs = bound_inputs_from_source(specs[ks[0]], protocol)[:2]
                if not finite:
                    # e_ph_u and R come out as arrays of sources x losses
                    report = evaluate_with_inputs(
                        shared, probs[n], inputs + (np.array(eps)[:, None],),
                        cfg["f"])
                    for k, e_ph, rate in zip(ks, report.e_ph_u.tolist(),
                                             report.rate.tolist()):
                        values[n][k] = (len(stats) - 1, e_ph, rate)
                    continue
                for k, e in zip(ks, eps):
                    r = []
                    for i, ch in enumerate(column.channels):
                        row = (n * len(column.channels) + i) * len(specs) + k
                        run = RunConfig(n=cfg["n"], seed=cfg["seed"] + row,
                                        l_c=specs[k].correlation_length,
                                        protocol=protocol, probs=probs[n])
                        r.append(evaluate_with_inputs(
                            simulate_finite(run, specs[k], ch), probs[n],
                            inputs + (e,), cfg["f"]))
                    stats.append(([x.y_z for x in r], [x.e_bit for x in r]))
                    values[n][k] = (len(stats) - 1, [x.e_ph_u for x in r],
                                    [x.rate for x in r])
    return stats, values


def cmd_sweep(args: argparse.Namespace) -> int:
    """The sweep CSV, from one ``_sweep_values`` pass for all protocols."""
    cfg = _resolve(args)
    protocols = _protocols(cfg)
    axes = [cfg[key] for key in ("epsilon_u", "delta", "cap_delta", "lc")]
    # counted before any grid or source list is built
    losses = _loss_grid(cfg, len(protocols) * math.prod(map(len, axes)))
    column = ChannelColumn.of_losses(losses, p_d=cfg["pd"], f=cfg["f"])
    sources = list(itertools.product(*axes))
    specs = [SourceSpec(delta=delta, Delta=cap, epsilon_u=eps,
                        correlation_length=lc)
             for eps, delta, cap, lc in sources]
    out = [f"# qkdbound {__version__} sweep\n",
           f"# channel_model: {CHANNEL_MODEL_ID}\n",
           f"# mode: {cfg['mode']}\n"]
    if cfg["mode"] == "finite":
        out.append(f"# n: {cfg['n']} base_seed: {cfg['seed']} rng: {RNG_ID}\n")
    out += [f"# pd: {cfg['pd']!r} f: {cfg['f']!r}\n",
            "protocol,loss_db,epsilon_u,delta,Delta,l_c,"
            "Y_Z,e_bit,e_ph_u,rate\r\n",
            _sweep_rows(protocols, losses, sources,
                        *_sweep_values(cfg, protocols, specs, column))]
    _emit(args.out, "".join(out))
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate

def _fields(record) -> Dict:
    """A record's constructor fields by name: one counts document section."""
    return {fld.name: getattr(record, fld.name)
            for fld in dataclasses.fields(record) if fld.init}


def _counts_document(cfg: Dict, protocol: str, spec: SourceSpec,
                     ch: ChannelParams, probs: ProtocolProbs,
                     stats: ObservedStatistics) -> Dict:
    return {
        "schema": COUNTS_SCHEMA,
        "generator": RNG_ID,
        "channel_model": CHANNEL_MODEL_ID,
        "protocol": protocol,
        "mode": "finite",
        "n": stats.n,
        "seed": cfg["seed"],
        "l_c": cfg["lc"][0],
        "probs": _fields(probs),
        "source": _fields(spec),
        "channel": _fields(ch),
        # JSON writes each n_x pair, a tuple, as a list
        "per_tag": [_fields(t) for t in stats.per_tag],
    }


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    if cfg["protocol"] == "both":
        raise ConfigError("simulate needs a single protocol, not 'both'")
    for fld in _FIELDS:
        if fld.listed and len(cfg[fld.name]) > 1:
            raise ConfigError(f"simulate takes one {fld.name} value: "
                              f"{cfg[fld.name]}")
    protocol = _protocols(cfg)[0]
    probs = ProtocolProbs.uniform(Protocol.named(protocol).settings)
    lc = cfg["lc"][0]
    spec = SourceSpec(delta=cfg["delta"][0], Delta=cfg["cap_delta"][0],
                      epsilon_u=cfg["epsilon_u"][0], correlation_length=lc)
    ch = ChannelParams(loss_db=cfg["loss_db"], p_d=cfg["pd"], f=cfg["f"])
    run = RunConfig(n=cfg["n"], seed=cfg["seed"], l_c=lc,
                    protocol=protocol, probs=probs)
    stats = simulate_finite(run, spec, ch)
    doc = _counts_document(cfg, protocol, spec, ch, probs, stats)
    _emit(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bound

def _read(section, key, kind: type = object):
    """``section[key]`` of a counts document, or ConfigError; the value must
    be a finite number (float), an integer count (int) or any JSON value, of
    a JSON kind only: the records it goes into check what it means."""
    try:
        value = section[key]
    except (KeyError, IndexError, TypeError):
        raise ConfigError(f"counts document missing field {key!r}") from None
    if kind is object or (_is_kind(kind, value) and
                          abs(value) <= sys.float_info.max):
        return value
    raise ConfigError(f"field {key!r} = {value!r} is not " + {
        float: "a finite number", int: "an integer count"}[kind])


def _settings_map(value, proto: Protocol, what: str) -> Dict:
    # a value that is not a JSON object names no setting
    proto.require(value if isinstance(value, dict) else (), what)
    return value


def _tag_counts(block, proto: Protocol) -> TagCounts:
    """One tag block of a counts document as a ``TagCounts``, which checks
    its counts; here only their JSON kinds and settings are checked."""
    n_x = {}
    for j, pair in _settings_map(_read(block, "n_x"), proto, "n_x").items():
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"n_x[{j!r}] = {pair!r} is not a pair of counts")
        n_x[j] = (_read(pair, 0, int), _read(pair, 1, int))
    return TagCounts(w=_read(block, "w", int), n_w=_read(block, "n_w", int),
                     n_x=n_x, n_det_z=_read(block, "n_det_z", int),
                     n_err_z=_read(block, "n_err_z", int))


def load_counts(path: str) -> Tuple[Dict, ObservedStatistics, ProtocolProbs]:
    """Read a counts document (by ``_load_json``, as a config file is) and
    rebuild the statistics, checking only the document's rules: schema,
    protocol and l_c + 1 tag blocks. ``TagCounts`` checks each tag's counts,
    ``ObservedStatistics.from_tags`` the tag list."""
    doc = _load_json(path, "counts file")
    if _read(doc, "schema") not in READ_SCHEMAS:
        raise ConfigError(f"unsupported schema {doc['schema']!r}")
    proto = Protocol.named(_read(doc, "protocol"))
    p = _read(doc, "probs")
    p_j = _settings_map(_read(p, "p_j"), proto, "probs.p_j")
    probs = ProtocolProbs(p_zb=_read(p, "p_zb", float),
                          p_j={j: _read(p_j, j, float) for j in p_j})
    tags = _read(doc, "per_tag")
    if not isinstance(tags, list):
        raise ConfigError("per_tag must be a list of tag blocks")
    per_tag = [_tag_counts(t, proto) for t in tags]
    n, l_c = _read(doc, "n", int), _read(doc, "l_c", int)
    if len(per_tag) != l_c + 1:
        raise ConfigError(f"l_c = {l_c} needs {l_c + 1} tag blocks, "
                          f"found {len(per_tag)}")
    return doc, ObservedStatistics.from_tags(n, per_tag, probs), probs


def cmd_bound(args: argparse.Namespace) -> int:
    doc, stats, probs = load_counts(args.counts)
    src = _read(doc, "source")
    spec = SourceSpec(delta=_read(src, "delta", float),
                      Delta=_read(src, "Delta", float),
                      epsilon_u=_read(src, "epsilon_u", float),
                      correlation_length=_read(src, "correlation_length", int))
    if spec.correlation_length != doc["l_c"]:  # it sets epsilon_eff
        raise ConfigError(f"l_c = {doc['l_c']} differs from source."
                          f"correlation_length = {spec.correlation_length}")
    protocol = doc["protocol"]
    f = _read(_read(doc, "channel"), "f", float)
    # one pass bounds the run total (entry 0) and every tag
    e_ph, *per_tag = column_bounds(stats, probs,
                                   *bound_inputs_from_source(spec, protocol))
    report = key_rate(stats.y_z, e_ph, stats.e_bit, f)
    lines = [
        f"protocol: {protocol}",
        f"Y_Z:    {_sci(report.y_z)}",
        f"e_bit:  {_sci(report.e_bit)}",
        f"e_ph_u: {_sci(report.e_ph_u)}",
        f"rate:   {_sci(report.rate)}",
    ] + [f"e_ph_u[tag {w}]: {_sci(e)}" for w, e in enumerate(per_tag)]
    _emit(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing / entry point

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process from ``_FIELDS``."""
    parser = argparse.ArgumentParser(
        prog="qkdbound",
        description="Secret-key-rate lower bounds for qubit QKD with "
                    "imperfect sources")
    sub = parser.add_subparsers(dest="command", required=True)
    out_help = "output path (default stdout)"
    for command, text in (("sweep", "key rates over a parameter grid (CSV)"),
                          ("simulate", "seeded protocol run (counts document)")):
        p = sub.add_parser(command, help=text)
        for fld in _FIELDS:
            if command in fld.commands:
                parse = ({float: _float_list, int: _int_list}[fld.kind]
                         if fld.listed else fld.kind)
                p.add_argument("--" + fld.name.replace("_", "-"), type=parse,
                               choices=fld.choices, help=fld.help)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help=out_help)
    p = sub.add_parser("bound", help="bound a counts document")
    p.add_argument("counts", help="counts document (JSON)")
    p.add_argument("--out", help=out_help)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so a replaced cmd_* is honoured
    command = {"sweep": cmd_sweep, "simulate": cmd_simulate,
               "bound": cmd_bound}[args.command]
    try:
        return command(args)
    except ValueError as exc:
        if isinstance(exc, (SingularSystem, EmptySiftedKey)):
            print(f"computation error: {exc}", file=sys.stderr)
            return EXIT_COMPUTE
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ArithmeticError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"computation error: out of memory{detail}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
