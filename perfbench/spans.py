"""Span tracer that wraps qkdbound's public functions from outside ``src/``.

The modules import each other with ``from .x import y``, so a function is
patched under every module global that refers to it, not only where it is
defined; intra-module calls go through the same globals and are caught too.
Public methods of the package's classes (and ``__post_init__``, where the
input validation lives) are patched on the class. A span's time counts for
the layer of the module that defines the function. A private helper is
wrapped only when another module refers to it, so that its time counts for
its own layer wherever it is called from; other private helpers count as
self time of their caller, in the same layer. Every loaded submodule of the
package is a layer; the metrics name six of them.

Each span records its name, start, end, parent span and op id in flat
arrays that stay in memory until ``SpanTable`` reduces them after the traced
phase; self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import resource
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional

import numpy as np

LAYERS = ("gmath", "source", "coeffs", "bounds", "simulator", "cli")

#: spans whose call arguments the per-layer metrics need
_COEFF_BOUNDS = ("coeffs.coeff_bounds_bb84", "coeffs.coeff_bounds_three_state")
_SIMULATE_FINITE = "simulator.simulate_finite"


def _rss_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize()


class RssPeak:
    """Resident set size at entry and its highest value seen in the body.

    A second thread samples it every millisecond while the body runs, so the
    peak is the body's own, not the process's lifetime ``ru_maxrss``.
    """

    def __enter__(self) -> "RssPeak":
        self.start = self.peak = _rss_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _sample(self) -> None:
        while not self._stop.wait(0.001):
            self.peak = max(self.peak, _rss_bytes())

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, _rss_bytes())


class Tracer:
    """Records spans of calls into the qkdbound modules while installed."""

    def __init__(self, modules: Dict[str, object]):
        self.modules = modules
        #: the six named layers first, then any other submodule
        self.layers = list(LAYERS) + [m for m in modules if m not in LAYERS]
        self.names: List[str] = []
        self.layer: List[str] = []
        self.op_id = -1
        self.span_op = array("i")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.notes: Dict[int, object] = {}
        self._stack: List[int] = []
        self._patches = []  # (owner, attribute, original, replacement)
        self._discover()

    # -- wrapping ---------------------------------------------------------

    def _discover(self) -> None:
        layer_of = {mod.__name__: layer for layer, mod in self.modules.items()}
        wrapped = {}
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{name}", layer)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not issubclass(obj, BaseException)):
                    self._discover_methods(obj, layer)
        for mod in self.modules.values():
            for obj in vars(mod).values():
                if (inspect.isfunction(obj) and obj not in wrapped
                        and obj.__module__ in layer_of
                        and obj.__module__ != mod.__name__):
                    layer = layer_of[obj.__module__]
                    wrapped[obj] = self._wrap(obj, f"{layer}.{obj.__name__}",
                                              layer)
        for mod in self.modules.values():
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.append((mod, name, obj, wrapped[obj]))

    def _discover_methods(self, cls, layer: str) -> None:
        for attr, val in vars(cls).items():
            if attr.startswith("_") and attr != "__post_init__":
                continue
            span = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(val, (classmethod, staticmethod)):
                new = type(val)(self._wrap(val.__func__, span, layer))
            elif inspect.isfunction(val):
                new = self._wrap(val, span, layer)
            else:
                continue
            self._patches.append((cls, attr, val, new))

    def _wrap(self, fn: Callable, span: str, layer: str) -> Callable:
        sid = len(self.names)
        self.names.append(span)
        self.layer.append(layer)
        perf = time.perf_counter
        stack, notes = self._stack, self.notes
        ops, names, parents = self.span_op, self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        tracer = self

        def open_span() -> int:
            i = len(starts)
            ops.append(tracer.op_id)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf())
            return i

        if span in _COEFF_BOUNDS:
            def wrapper(*args, **kwargs):
                i = open_span()
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[i] = perf()
                    stack.pop()
                    notes[i] = args[0] if args else kwargs["ranges"]
        elif span == _SIMULATE_FINITE:
            def wrapper(*args, **kwargs):
                cfg = args[0] if args else kwargs["cfg"]
                with RssPeak() as rss:
                    i = open_span()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        ends[i] = perf()
                        stack.pop()
                        notes[i] = (cfg.n, rss)
        else:
            def wrapper(*args, **kwargs):
                i = open_span()
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[i] = perf()
                    stack.pop()
        return functools.wraps(fn)(wrapper)

    def install(self, op_id: int) -> None:
        """Patch every wrapper in; spans until ``uninstall`` get ``op_id``."""
        self.op_id = op_id
        self._stack.clear()
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Restore every original."""
        for owner, attr, old, _ in self._patches:
            setattr(owner, attr, old)


class SpanTable:
    """Per-span durations and self times of the given ops, as numpy arrays."""

    def __init__(self, tracer: Tracer, op_ids: List[int]):
        self.tracer = tracer
        self.op_ids = np.asarray(op_ids, dtype=np.int32)
        op = np.frombuffer(tracer.span_op, dtype=np.int32)
        name = np.frombuffer(tracer.span_name, dtype=np.int32)
        parent = np.frombuffer(tracer.span_parent, dtype=np.int32)
        dur = (np.frombuffer(tracer.span_end, dtype=np.float64)
               - np.frombuffer(tracer.span_start, dtype=np.float64))
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=len(dur))
        self.keep = np.isin(op, self.op_ids)
        self.op, self.name, self.dur = op, name, dur
        self.self_time = dur - child
        self.layer_index = np.array(
            [tracer.layers.index(layer) for layer in tracer.layer],
            dtype=np.int32)

    def sid(self, span: str) -> int:
        return self.tracer.names.index(span)

    def mask(self, *spans: str):
        return self.keep & np.isin(self.name, [self.sid(s) for s in spans])

    def calls(self, *spans: str) -> int:
        return int(self.mask(*spans).sum())

    def durations(self, *spans: str):
        return self.dur[self.mask(*spans)]

    def indices(self, *spans: str):
        return np.nonzero(self.mask(*spans))[0]

    def layer_self_by_op(self):
        """Array [op, layer] of self time in seconds (op ids ascending,
        layers as in ``Tracer.layers``)."""
        out = np.zeros((len(self.op_ids), len(self.tracer.layers)))
        rows = np.searchsorted(self.op_ids, self.op[self.keep])
        layers = self.layer_index[self.name[self.keep]]
        np.add.at(out, (rows, layers), self.self_time[self.keep])
        return out

    def note(self, index: int) -> Optional[object]:
        return self.tracer.notes.get(int(index))
