"""Span tracing for the benchmark's traced runs.

The benchmark never edits the program: a traced run replaces each
layer's public entry points with a thin wrapper that records one span
(name, start, end, parent, info) per call.  The replacement is made at
every import site -- the defining module, every ``repro`` module that
imported the function by name (``repro.sweep.engine.simulate_trace_stack``,
``repro.experiments.figures.app_timing``, ...) and, for methods, the
class -- so calls are caught whichever spelling the caller used.

Spans are kept in memory, one list per thread, and reduced once at the
end of a pass into the per-layer ledger (:func:`layer_metrics`).  A
span's *self time* is its duration minus the time its child spans
cover; each span's self time belongs to exactly one layer, so the
layers' self times plus ``unaccounted_s`` add up to ``wall_s``.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Info = Optional[Callable[[tuple, dict, Any], Any]]


def _n_out(args, kwargs, out):
    return len(out)


def _digest_arg(args, kwargs, out):
    payload = args[0] if args else kwargs.get("payload")
    return payload.get("digest") if isinstance(payload, dict) else None


def _found(args, kwargs, out):
    return out is not None and out is not False


def _n_arg(index: int) -> Info:
    def info(args, kwargs, out):
        return len(args[index])
    return info


def _n_points(args, kwargs, out):
    return len(out.points)


def _n_specs(args, kwargs, out):
    return len(args[0].specs)


def _artifact_name(args, kwargs):
    return "experiments." + str(args[0] if args else kwargs.get("name"))


#: Every wrapped entry point: (span name, owner, attribute, info).  The
#: layer is the span name up to its first dot.  ``owner`` is a module,
#: or ``module:Class`` for a method.  A callable span name is computed
#: from the call's arguments (one span name per artefact).
TARGETS: Tuple[Tuple[Any, str, str, Info], ...] = (
    ("emu.execute", "repro.kernels.base", "execute", None),
    ("emu.execute_batch", "repro.kernels.base", "execute_batch", _n_out),
    ("trace.columns", "repro.isa.trace:TraceBuilder", "columns", None),
    ("trace.encode", "repro.sweep.store", "trace_to_payload", None),
    ("trace.decode", "repro.sweep.store", "trace_from_payload", _digest_arg),
    ("store.peek", "repro.sweep.store:ResultStore", "peek", _found),
    ("store.load", "repro.sweep.store:ResultStore", "load", _found),
    ("store.save", "repro.sweep.store:ResultStore", "save", None),
    ("store.contains", "repro.sweep.store:ResultStore", "__contains__", _found),
    ("sweep.sweep", "repro.sweep.engine", "sweep", _n_points),
    ("sweep.compute_points", "repro.sweep.engine", "compute_points", None),
    ("sweep.run_point", "repro.sweep.engine", "run_point", None),
    ("sweep.lookup_point", "repro.sweep.engine", "lookup_point", None),
    ("sweep.retime_stack", "repro.sweep.engine", "retime_stack", _n_arg(1)),
    ("sweep.point_key", "repro.sweep.engine", "point_key", None),
    ("sweep.trace_key", "repro.sweep.engine", "trace_key", None),
    ("sweep.simulate_kernel", "repro.timing.simulator", "simulate_kernel", None),
    ("timing.stack", "repro.timing.simulator", "simulate_trace_stack", _n_arg(1)),
    ("timing.simulate_trace", "repro.timing.simulator", "simulate_trace", None),
    ("timing.batch", "repro.timing.batch:BatchCoreModel", "run", _n_specs),
    ("timing.scalar", "repro.timing.core:CoreModel", "run", None),
    ("timing.warm", "repro.timing.caches:MemoryHierarchy", "warm", None),
    ("apps.profile", "repro.apps.runner", "run_app_profile", None),
    ("apps.scalar_ipc", "repro.apps.appmodel", "scalar_ipc", None),
    ("apps.scalar_trace", "repro.apps.appmodel", "make_scalar_trace", None),
    ("apps.compose", "repro.apps.appmodel", "app_timing", None),
    ("apps.compose", "repro.apps.appmodel", "app_instruction_counts", None),
    (_artifact_name, "repro.experiments.artifacts", "artifact_json", None),
)

#: Layers in ledger order (the rows of the Fig. 6-style table).
LAYERS = ("emu", "trace", "store", "sweep", "timing", "apps", "experiments")

# A span record: [name, start, end, parent index, info].
Span = List[Any]


class Tracer:
    """Installs span wrappers and collects spans per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[List[Span]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _state(self) -> Tuple[List[Span], List[int]]:
        state = getattr(self._local, "state", None)
        if state is None:
            spans: List[Span] = []
            with self._lock:
                self._threads.append(spans)
            state = self._local.state = (spans, [])
        return state

    def _wrap(self, name: Any, fn: Callable, info: Info) -> Callable:
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer._state()
            label = name(args, kwargs) if callable(name) else name
            record = [label, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if info is not None:
                record[4] = info(args, kwargs, out)
            return out

        # lru_cache'd entry points keep their cache controls, which the
        # program's clear_memory_caches() calls through the module name.
        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def reset(self) -> None:
        """Drop every recorded span (the wrappers stay installed)."""
        with self._lock:
            for spans in self._threads:
                spans.clear()

    def spans(self) -> List[List[Span]]:
        """Recorded spans, one list per thread."""
        with self._lock:
            return [list(spans) for spans in self._threads]

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at its definition and at its import sites."""
        if self._patches:
            return
        for name, owner, attr, info in TARGETS:
            module_name, _, class_name = owner.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                cls = getattr(module, class_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(name, original, info))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, info)
            for site in list(sys.modules.values()):
                if not getattr(site, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._patch(site, key, wrapper)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every original entry point."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# Reduction: spans -> per-layer ledger.
# ---------------------------------------------------------------------------


def _self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _has_ancestor(spans: Sequence[Span], index: int, prefix: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0].startswith(prefix):
            return True
        parent = spans[parent][3]
    return False


def _nested_in_same(spans: Sequence[Span], index: int, layer: str) -> bool:
    parent = spans[index][3]
    return parent >= 0 and spans[parent][0].split(".", 1)[0] == layer


def layer_metrics(
    threads: Sequence[Sequence[Span]],
    wall: float,
    window: Optional[Tuple[float, float]] = None,
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass lasting ``wall`` seconds.

    Every span's self time goes to its layer's total; the named metrics
    break those totals down.  ``unaccounted_s`` is ``wall`` minus the
    self time of every span, i.e. time spent outside any wrapped entry
    point.  With ``window``, only spans starting inside it count (a
    server's spans from before and after the measured script drop out).
    """
    m: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        m[key] = m.get(key, 0.0) + value

    layer_self = {layer: 0.0 for layer in LAYERS}
    decoded = set()
    stack_points = 0
    scalar_in_stack = 0
    for spans in threads:
        own = _self_times(spans)
        for i, span in enumerate(spans):
            name, start, end, _parent, info = span
            if window is not None and not window[0] <= start < window[1]:
                continue
            layer = name.split(".", 1)[0]
            self_s = own[i]
            layer_self[layer] = layer_self.get(layer, 0.0) + self_s
            if name == "emu.execute":
                add("emu.calls", 1)
                if _has_ancestor(spans, i, "emu.execute_batch"):
                    add("emu.batch_fallbacks", 1)
                else:
                    add("emu.traces", 1)
            elif name == "emu.execute_batch":
                add("emu.batch_calls", 1)
                add("emu.traces", info or 0)
            elif name == "trace.columns":
                add("trace.columns_s", self_s)
            elif name == "trace.encode":
                add("trace.encode_s", self_s)
                add("trace.encode_calls", 1)
            elif name == "trace.decode":
                add("trace.decode_s", self_s)
                add("trace.decode_calls", 1)
                decoded.add(info)
            elif layer == "store":
                if name == "store.save":
                    add("store.write_calls", 1)
                    add("store.write_s", self_s)
                    continue
                add("store.read_s", self_s)
                # A load reads through peek: count the outer read once.
                if not _nested_in_same(spans, i, "store"):
                    add("store.read_calls", 1)
                    add("store.read_hits", 1 if info else 0)
            elif layer == "sweep":
                if name in ("sweep.point_key", "sweep.trace_key"):
                    add("sweep.key_calls", 1)
                    add("sweep.key_s", self_s)
                elif name in ("sweep.sweep", "sweep.retime_stack"):
                    add("sweep.points", info or 0)
                elif name == "sweep.run_point":
                    add("sweep.points", 1)
            elif name == "timing.stack":
                add("timing.stack_calls", 1)
                stack_points += info or 0
            elif name == "timing.batch":
                add("timing.batch_calls", 1)
                add("timing.batch_points", info or 0)
                add("timing.batch_s", self_s)
            elif name == "timing.scalar":
                add("timing.scalar_calls", 1)
                add("timing.scalar_s", self_s)
                if _has_ancestor(spans, i, "timing.stack"):
                    scalar_in_stack += 1
            elif name == "apps.profile":
                add("apps.codec_s", self_s)
            elif name == "apps.scalar_trace":
                add("apps.scalar_trace_calls", 1)
                add("apps.scalar_trace_s", self_s)
            elif name == "apps.scalar_ipc":
                add("apps.scalar_ipc_s", self_s)
            elif name == "apps.compose":
                add("apps.compose_s", self_s)
            elif layer == "experiments":
                add(name + "_s", end - start)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    reads = m.get("store.read_calls", 0.0)
    m["store.hit_ratio"] = m.pop("store.read_hits", 0.0) / reads if reads else 0.0
    # Decodes per trace written; where none is written (a warm store),
    # per distinct trace read.
    written = m.get("trace.encode_calls", 0.0) or len(decoded - {None})
    m["trace.decodes_per_trace"] = (
        m.get("trace.decode_calls", 0.0) / written if written else 0.0
    )
    m["timing.scalar_fallback_ratio"] = (
        scalar_in_stack / stack_points if stack_points else 0.0
    )
    m["unaccounted_s"] = wall - sum(layer_self.values())
    m["wall_s"] = wall
    return m


def mean_metrics(samples: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per-key mean over several passes' ledgers."""
    keys = sorted({k for s in samples for k in s})
    return {k: statistics.fmean(s.get(k, 0.0) for s in samples) for k in keys}


def layer_table(ledger: Dict[str, float]) -> str:
    """Self seconds per layer, normalised to ``wall_s`` = 100 (cf. Fig. 6)."""
    wall = ledger["wall_s"] or 1.0
    rows = [(layer, ledger.get(f"{layer}.self_s", 0.0)) for layer in LAYERS]
    rows.append(("unaccounted", ledger["unaccounted_s"]))
    lines = [f"  {'layer':<12} {'self_s':>9} {'of wall=100':>12}"]
    for layer, seconds in rows:
        share = 100.0 * seconds / wall
        bar = "#" * max(0, min(50, int(round(share / 2))))
        lines.append(f"  {layer:<12} {seconds:9.3f} {share:12.1f}  {bar}")
    lines.append(f"  {'wall':<12} {wall:9.3f} {100.0:12.1f}")
    return "\n".join(lines)
