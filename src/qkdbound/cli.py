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
    evaluate_point,
    evaluate_with_inputs,
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
from .source import PROTOCOLS, Protocol, ProtocolProbs, SourceSpec

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


class SchemaError(ConfigError):
    """Counts document does not match the expected schema."""


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


def _load_json(path: str, what: str, error: type):
    """The JSON value in the file at ``path``, the one reader of both inputs.

    An unreadable file is an IoError (exit 3); a file that is not JSON, or
    nests too deep for the parser, is ``error``, a ConfigError (exit 2).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path} line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise error(f"{what} {path}: nested too deeply") from exc


def _resolve(args: argparse.Namespace) -> Dict:
    """Merge CLI flags over config-file values over defaults; check each."""
    path = getattr(args, "config", None)
    cfg = {} if path is None else _load_json(path, "config file", ConfigError)
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

def _sweep_rows(protocol: str, losses: Sequence[float],
                sources: Sequence[Tuple], values) -> str:
    """One protocol's CSV rows in loss-major order, as ``csv.writer`` writes
    them: each cell as ``str``, then (Y_Z, e_bit, e_ph_u, rate) as ``{:.8e}``,
    each row ended by "\r\n". ``values[k]`` holds those four values of
    source k at every loss; each source's cells are formatted once."""
    cells = [",".join(map(str, source)) for source in sources]
    return "".join([f"{protocol},{loss},{c},{y:.8e},{e:.8e},{p:.8e},{r:.8e}\r\n"
                    for loss, at_loss in zip(losses, zip(*values))
                    for c, (y, e, p, r) in zip(cells, at_loss)])


def _sweep_values(cfg: Dict, protocol: str, specs: List[SourceSpec],
                  column: ChannelColumn, first_seed: int) -> List:
    """Per source, (Y_Z, e_bit, e_ph_u, rate) at every loss of ``column``.

    The statistics depend on delta only, c^U and pbar_vir on (protocol,
    delta, Delta) only. So asymptotic mode makes one ``simulate_asymptotic``
    call per delta and one bound pass per (delta, Delta), with the sources'
    epsilon_eff as a column against the loss axis. Finite mode makes one
    seeded run per (source k, loss i), with seed first_seed + i * sources + k.
    """
    groups: Dict[Tuple[float, float], List[int]] = {}
    for k, spec in enumerate(specs):
        groups.setdefault((spec.delta, spec.Delta), []).append(k)
    probs = ProtocolProbs.uniform(Protocol.named(protocol).settings)
    values: List = [None] * len(specs)
    stats = {}
    for (delta, _), ks in groups.items():
        inputs = bound_inputs_from_source(specs[ks[0]], protocol)[:2]
        if cfg["mode"] == "finite":
            for k in ks:
                spec = specs[k]
                own = inputs + (spec.effective_epsilon(),)
                values[k] = []
                for i, ch in enumerate(column.channels):
                    run = RunConfig(n=cfg["n"],
                                    seed=first_seed + i * len(specs) + k,
                                    l_c=spec.correlation_length,
                                    protocol=protocol, probs=probs)
                    r = evaluate_with_inputs(simulate_finite(run, spec, ch),
                                             probs, own, cfg["f"])
                    values[k].append((r.y_z, r.e_bit, r.e_ph_u, r.rate))
            continue
        if delta not in stats:
            stats[delta] = simulate_asymptotic(specs[ks[0]], probs, column,
                                               protocol=protocol)
        # e_ph_u and R come out as arrays of sources x losses
        eps = np.array([[specs[k].effective_epsilon()] for k in ks])
        report = evaluate_with_inputs(stats[delta], probs, inputs + (eps,),
                                      cfg["f"])
        y_z, e_bit = report.y_z.tolist(), report.e_bit.tolist()
        for k, e_ph, rate in zip(ks, report.e_ph_u.tolist(),
                                 report.rate.tolist()):
            values[k] = zip(y_z, e_bit, e_ph, rate)
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
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
            "Y_Z,e_bit,e_ph_u,rate\r\n"]
    for n, protocol in enumerate(protocols):
        # a finite row's seed is the base seed plus its CSV row index
        first_seed = cfg["seed"] + n * len(losses) * len(specs)
        values = _sweep_values(cfg, protocol, specs, column, first_seed)
        out.append(_sweep_rows(protocol, losses, sources, values))
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
    """``section[key]`` of a JSON document, or SchemaError; the value must be
    a finite number (float), an integer count (int) or any JSON value. A
    number of either kind must be one a float holds."""
    try:
        value = section[key]
    except (KeyError, IndexError, TypeError):
        raise SchemaError(f"counts document missing field {key!r}") from None
    if kind is object or (_is_kind(kind, value) and
                          abs(value) <= sys.float_info.max):
        return value
    raise SchemaError(f"field {key!r} = {value!r} is not " + {
        float: "a finite number", int: "an integer count"}[kind])


def _settings_map(value, proto: Protocol, what: str) -> Dict:
    # a value that is not a JSON object names no setting
    proto.require(value if isinstance(value, dict) else (), what)
    return value


def _tag_counts(w: int, block, proto: Protocol) -> TagCounts:
    """Tag block ``w`` of a counts document, refused unless some run's tag
    w could count it."""
    n_x = {}
    for j, pair in _settings_map(_read(block, "n_x"), proto, "n_x").items():
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"n_x[{j!r}] = {pair!r} is not a pair of counts")
        n_x[j] = (_read(pair, 0, int), _read(pair, 1, int))
    t = TagCounts(w=_read(block, "w", int), n_w=_read(block, "n_w", int),
                  n_x=n_x, n_det_z=_read(block, "n_det_z", int),
                  n_err_z=_read(block, "n_err_z", int))
    if t.w != w:
        raise SchemaError(f"tag block {w} has w = {t.w}")
    x = [v for pair in n_x.values() for v in pair]
    if min(x + [t.n_w, t.n_det_z, t.n_err_z]) < 0:
        raise SchemaError(f"tag {w}: negative count")
    if t.n_w == 0:
        raise SchemaError(f"tag {w}: no rounds (n_w = 0)")
    if t.n_err_z > t.n_det_z:
        raise SchemaError(f"tag {w}: n_err_z = {t.n_err_z} exceeds "
                          f"n_det_z = {t.n_det_z}")
    if sum(x) + t.n_det_z > t.n_w:
        raise SchemaError(f"tag {w}: X-basis and sifted counts exceed "
                          f"n_w = {t.n_w}")
    return t


def load_counts(path: str) -> Tuple[Dict, ObservedStatistics, ProtocolProbs]:
    """Read and check a counts document (by ``_load_json``, as a config file
    is); rebuild the statistics. Each tag block is checked as it is read;
    ``ObservedStatistics.from_tags`` checks that the tag sizes sum to n.
    Counts stay Python ints of any size a float holds."""
    doc = _load_json(path, "counts file", SchemaError)
    if _read(doc, "schema") not in READ_SCHEMAS:
        raise SchemaError(f"unsupported schema {doc['schema']!r}")
    proto = Protocol.named(_read(doc, "protocol"))
    p = _read(doc, "probs")
    p_j = _settings_map(_read(p, "p_j"), proto, "probs.p_j")
    probs = ProtocolProbs(p_zb=_read(p, "p_zb", float),
                          p_j={j: _read(p_j, j, float) for j in p_j})
    tags = _read(doc, "per_tag")
    if not isinstance(tags, list):
        raise SchemaError("per_tag must be a list of tag blocks")
    per_tag = [_tag_counts(w, t, proto) for w, t in enumerate(tags)]
    n, l_c = _read(doc, "n", int), _read(doc, "l_c", int)
    if not per_tag:
        raise SchemaError("counts document has no tag blocks")
    if len(per_tag) != l_c + 1:
        raise SchemaError(f"l_c = {l_c} needs {l_c + 1} tag blocks, "
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
        raise SchemaError(f"l_c = {doc['l_c']} differs from source."
                          f"correlation_length = {spec.correlation_length}")
    protocol = doc["protocol"]
    f = _read(_read(doc, "channel"), "f", float)
    report = evaluate_point(stats, probs, spec, protocol, f)
    lines = [
        f"protocol: {protocol}",
        f"Y_Z:    {_sci(report.y_z)}",
        f"e_bit:  {_sci(report.e_bit)}",
        f"e_ph_u: {_sci(report.e_ph_u)}",
        f"rate:   {_sci(report.rate)}",
    ]
    if report.e_ph_u_per_tag is not None:
        for w, e in enumerate(report.e_ph_u_per_tag):
            lines.append(f"e_ph_u[tag {w}]: {_sci(e)}")
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
