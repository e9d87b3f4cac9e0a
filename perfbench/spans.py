"""Span tracing of relaycap's layers from outside the package.

``Tracer.installed()`` wraps the public functions of ``mimo``, ``network``,
``rates`` and ``cli`` at every place they are bound (a function imported
into another module is a second binding, and a call through it would
otherwise go unrecorded), and restores the originals on exit.  Each call
records a span: name, start, end, parent span and thread, plus counts
computed from its arguments and result (matrices, computed flops and bytes).
Spans stay in memory until ``write`` at the end of the run.

A span's self time is its duration minus the durations of its direct child
spans.  Parents are tracked per thread; a span started on a worker thread
has no parent.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import logging
import math
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    thread: int
    counts: dict | None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


# ---- counts computed at each boundary ---------------------------------------

def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _logdet_counts(result, args, kwargs) -> dict:
    """Per batch of m x n complex matrices, with d = min(m, n), k = max(m, n):
    flops = 8 d^2 k (Gram) + 8 d^3 / 3 (complex Cholesky, d > 1) + d (logs);
    bytes = 16 m n (input) + 32 d^2 (Gram and factor) + 8 (output).
    Computed from shapes, not measured."""
    shape = getattr(_arg(args, kwargs, 0, "channels"), "shape", ())
    snr = _arg(args, kwargs, 1, "snr")
    matrices = math.prod(shape[:-2]) if len(shape) >= 2 else 0
    m, n = shape[-2:] if len(shape) >= 2 else (0, 0)
    if m == 0 or n == 0 or snr == 0:
        return {"matrices": matrices, "flops": 0, "bytes": 0}
    d, k = min(m, n), max(m, n)
    flops = 8 * d * d * k + (8 * d**3 / 3 if d > 1 else 0) + d
    nbytes = 16 * m * n + 32 * d * d + 8
    return {"matrices": matrices, "flops": matrices * flops, "bytes": matrices * nbytes}


def _pool_counts(result, args, kwargs) -> dict:
    return {"draws": result.num_samples}


def _table_counts(result, args, kwargs) -> dict:
    per_draw = result.per_draw
    return {"per_draw_bytes": 0 if per_draw is None else per_draw.nbytes}


def _dp_counts(result, args, kwargs) -> dict:
    params = _arg(args, kwargs, 0, "params")
    return {"edges": params.num_hops * (params.relays_per_layer + 1) ** 2}


def _cut_draws_counts(result, args, kwargs) -> dict:
    """Per hop: read one per-draw column and read-modify-write the
    accumulator (24 N bytes); plus the zeroed accumulator and the penalty
    subtraction (24 N).  Computed, not measured."""
    params = _arg(args, kwargs, 1, "params")
    return {"bytes": 24 * len(result) * (params.num_hops + 1)}


def _targets():
    """(owner, attribute, span name, counts) for every traced function."""
    from relaycap import cli, mimo, network, rates

    return [
        (mimo, "gram_logdet", "mimo.logdet", _logdet_counts),
        (mimo.SamplePool, "build", "mimo.pool", _pool_counts),
        (mimo.CapacityTable, "from_pool", "mimo.table", _table_counts),
        (mimo.TableCache, "at", "mimo.table_lookup", None),
        (network, "min_cut_dp", "network.dp", _dp_counts),
        (network, "cut_value", "network.cut_value", None),
        (network, "cut_profile_draws", "network.cut_draws", _cut_draws_counts),
        (rates, "rate_report", "rates.rate_report", None),
        (rates, "gap_trend", "rates.gap_trend", None),
        (rates, "nnc_lower_bound", "rates.nnc", None),
        (cli, "main", "cli", None),
    ]


class _CountingHandler(logging.Handler):
    def __init__(self, prefix: str):
        super().__init__(logging.DEBUG)
        self.prefix = prefix
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if str(record.msg).startswith(self.prefix):
            self.count += 1


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.bindings: dict[str, list[str]] = {}
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, counts=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter_ns()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                c = counts(result, args, kwargs) if ok and counts else None
                tracer.spans.append(
                    Span(sid, parent, name, start, end, threading.get_ident(),
                         c if ok else {"error": 1})
                )
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of the traced functions; restore on exit."""
        undo = []
        levels = {}
        handlers = [
            ("relaycap.mimo", _CountingHandler("Cholesky of I + snr*Gram failed"),
             "mimo.logdet.jitter_retries"),
            ("relaycap.rates", _CountingHandler("achievable rate clamped"),
             "rates.clamped"),
        ]
        try:
            for owner, attr, name, counts in _targets():
                if isinstance(owner, type):
                    raw = vars(owner)[attr]
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    wrapped = self.wrap(name, fn, counts)
                    setattr(owner, attr, classmethod(wrapped)
                            if isinstance(raw, classmethod) else wrapped)
                    undo.append((owner, attr, raw))
                    self.bindings[name] = [f"{owner.__module__}.{owner.__name__}.{attr}"]
                    continue
                fn = getattr(owner, attr)
                wrapped = self.wrap(name, fn, counts)
                sites = []
                for modname, mod in list(sys.modules.items()):
                    if modname != "relaycap" and not modname.startswith("relaycap."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)
                            undo.append((mod, key, fn))
                            sites.append(f"{modname}.{key}")
                self.bindings[name] = sorted(sites)
            for logger_name, handler, _ in handlers:
                lg = logging.getLogger(logger_name)
                levels[logger_name] = lg.level
                lg.setLevel(logging.DEBUG)
                lg.addHandler(handler)
            yield self
        finally:
            for logger_name, handler, counter in handlers:
                lg = logging.getLogger(logger_name)
                lg.removeHandler(handler)
                if logger_name in levels:
                    lg.setLevel(levels[logger_name])
                self.counters[counter] += handler.count
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans = []
        self.counters = defaultdict(float)

    def write(self, path, spans: list[Span], meta: dict) -> None:
        """One JSON header line, then one line per span:
        [id, parent, name, start_ns, end_ns, thread, counts]."""
        with open(path, "w") as fh:
            json.dump({"meta": meta, "bindings": self.bindings}, fh)
            fh.write("\n")
            for s in spans:
                fh.write(json.dumps([s.id, s.parent, s.name, s.start_ns, s.end_ns,
                                     s.thread, s.counts]) + "\n")


# ---- per-layer metrics -------------------------------------------------------

#: Layer of each span name; a layer's self time is the sum over its spans.
LAYERS = ("mimo", "network", "rates", "cli")


def layer_metrics(spans: list[Span], counters: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (seconds, counts, ratios)."""
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] += s.duration_ns
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    count: dict[str, float] = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        busy[s.name] += s.duration_ns * 1e-9
        own[s.name] += (s.duration_ns - child_ns[s.id]) * 1e-9
        for k, v in (s.counts or {}).items():
            count[f"{s.name}.{k}"] += v
    table_ids = {s.parent for s in spans if s.name == "mimo.table"}
    hits = sum(1 for s in spans if s.name == "mimo.table_lookup" and s.id not in table_ids)
    lookups = calls["mimo.table_lookup"]
    m = {
        "mimo.pool.calls": calls["mimo.pool"],
        "mimo.pool.draws": count["mimo.pool.draws"],
        "mimo.pool.busy_s": busy["mimo.pool"],
        "mimo.logdet.calls": calls["mimo.logdet"],
        "mimo.logdet.matrices": count["mimo.logdet.matrices"],
        "mimo.logdet.busy_s": busy["mimo.logdet"],
        "mimo.logdet.matrices_per_s": (
            count["mimo.logdet.matrices"] / busy["mimo.logdet"] if busy["mimo.logdet"] else 0.0
        ),
        "mimo.logdet.flops_computed": count["mimo.logdet.flops"],
        "mimo.logdet.bytes_computed": count["mimo.logdet.bytes"],
        "mimo.logdet.jitter_retries": counters.get("mimo.logdet.jitter_retries", 0),
        "mimo.table.builds": calls["mimo.table"],
        "mimo.table.self_s": own["mimo.table"],
        "mimo.table.lookups": lookups,
        "mimo.table.hit_ratio": hits / lookups if lookups else 0.0,
        "mimo.table.per_draw_mb": count["mimo.table.per_draw_bytes"] / 2**20,
        "network.dp.calls": calls["network.dp"],
        "network.dp.busy_s": busy["network.dp"],
        "network.dp.edges_computed": count["network.dp.edges"],
        "network.cut_value.calls": calls["network.cut_value"],
        "network.cut_value.self_s": own["network.cut_value"],
        "network.cut_draws.calls": calls["network.cut_draws"],
        "network.cut_draws.busy_s": busy["network.cut_draws"],
        "network.cut_draws.bytes_computed": count["network.cut_draws.bytes"],
        "rates.rate_report.calls": calls["rates.rate_report"],
        "rates.rate_report.self_s": own["rates.rate_report"],
        "rates.gap_trend.calls": calls["rates.gap_trend"],
        "rates.gap_trend.self_s": own["rates.gap_trend"],
        "rates.nnc.calls": calls["rates.nnc"],
        "rates.nnc.self_s": own["rates.nnc"],
        "rates.clamped": counters.get("rates.clamped", 0),
        "cli.calls": calls["cli"],
        "cli.self_s": own["cli"],
        "cli.bytes_out": counters.get("cli.bytes_out", 0),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        layer_self = sum(v for k, v in own.items() if k.split(".")[0] == layer)
        m[f"{layer}.share"] = layer_self / wall_s if wall_s > 0 else 0.0
    return m
