"""Per-layer tracing from outside the program.

The tracer replaces module attributes through which callers reach each
layer's public functions with wrappers, and puts the originals back on
``uninstall``.  Span wrappers record a span (query id, parent, name, start,
duration, self time) and read sizes off the returned objects; counting
wrappers only count calls.  Self time is a span's duration minus the part of
it covered by child spans.  Spans stay in memory and are written out at the
end of the run.  Nothing here waits on a queue or a lock, so there is no
wait-time metric.

A target that no longer exists (a later change may delete the function)
makes its metric absent; the run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple


def _decorate_sizes(d, acc: Counter, _span: str) -> None:
    """Sum of decorated row sizes (a TOP row counts 1) and of output family
    sizes (a TOP output counts 1; bit outputs count 0)."""
    acc["decorations.rows"] += sum(len(r) if isinstance(r, frozenset) else 1
                                   for r in d.transitions.values())
    acc["decorations.output_masks"] += sum(
        1 if o.is_top() else len(o.value) if isinstance(o.value, frozenset) else 0
        for o in d.outputs)


def _naive_sizes(result, acc: Counter, _span: str) -> None:
    equal, payload = result
    if equal:  # an unequal verdict returns a word, not the pairs explored
        acc["moore.naive_pairs"] += len(payload)


def _reachable_sizes(m, acc: Counter, _span: str) -> None:
    acc["moore.reachable_states"] += m.n_states


def _hkc_sizes(rep, acc: Counter, _span: str) -> None:
    processed, related = rep.pairs_processed, len(rep.relation)
    acc["hkc.pairs_processed"] += processed
    acc["hkc.relation_size"] += related
    # every processed pair is pruned, related, or (once) the failing pair
    acc["hkc.pruned"] += processed - related - (0 if rep.equal else 1)


def _reversal_sizes(m, acc: Counter, span: str) -> None:
    key = "brzozowski.pass1_states" if span == "brzozowski.pass1" else "brzozowski.min_states"
    acc[key] += m.n_states


def _reversal_span(args, kwargs) -> str:
    stage = kwargs.get("stage", args[2] if len(args) > 2 else "")
    return "brzozowski.pass1" if "1" in str(stage) else "brzozowski.pass2"


#: span name -> (module attributes to wrap, size reader, metrics it gives)
SPANS: Dict[str, Tuple[Tuple[str, ...], Optional[Callable], Tuple[str, ...]]] = {
    "lts.parse": (("cli.parse_lts", "cli.parse_gps"), None, ("lts.parse_ms",)),
    "decorations.decorate": (("cli.decorate",), _decorate_sizes,
                             ("decorations.decorate_ms", "decorations.rows",
                              "decorations.output_masks")),
    "moore.naive": (("cli.naive_bisim",), _naive_sizes,
                    ("moore.naive_ms", "moore.naive_pairs")),
    "moore.reachable": (("moore.reachable_machine",), _reachable_sizes,
                        ("moore.reachable_ms", "moore.reachable_states")),
    "hkc.check": (("cli.hkc_check", "hkc.hkc_check"), _hkc_sizes,
                  ("hkc.check_ms", "hkc.pairs_processed", "hkc.relation_size",
                   "hkc.prune_ratio")),
    # the stage argument splits this span into brzozowski.pass1 / pass2
    "brzozowski.reversal": (("brzozowski.explicit_reversal",), _reversal_sizes,
                            ("brzozowski.pass1_ms", "brzozowski.pass1_states",
                             "brzozowski.pass2_ms", "brzozowski.min_states")),
    "brzozowski.iso": (("brzozowski.moore_isomorphic",), None, ("brzozowski.iso_ms",)),
    "gps.equiv": (("cli.gps_equiv",), None, ("gps.equiv_ms",)),
}

#: counter metric name -> module attributes whose calls it counts
COUNTERS: Dict[str, Tuple[str, ...]] = {
    "lts.weak_successors_calls": ("lts.weak_successors", "decorations.weak_successors"),
    "lts.tau_closure_calls": ("lts.tau_closure",),
    "lts.divergent_states_calls": ("lts.divergent_states", "decorations.divergent_states"),
    "decorations.join_outputs_calls": ("decorations.join_outputs", "moore.join_outputs",
                                       "brzozowski.join_outputs"),
    "decorations.compact_output_calls": ("brzozowski.compact_output",),
    "moore.det_step_calls": ("moore.det_step", "hkc.det_step"),
    "moore.det_output_calls": ("moore.det_output", "hkc.det_output"),
    "hkc.saturate_calls": ("hkc.saturate",),
    "gps.det_step_calls": ("gps.gps_det_step",),
    "gps.det_output_calls": ("gps.gps_det_output",),
}

#: per-layer metric -> (unit, better); the order is the report order
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "cli.self_ms": ("ms", "lower"),
    "cli.errors": ("count", "lower"),
    "lts.parse_ms": ("ms", "lower"),
    "lts.weak_successors_calls": ("count", "lower"),
    "lts.tau_closure_calls": ("count", "lower"),
    "lts.divergent_states_calls": ("count", "lower"),
    "decorations.decorate_ms": ("ms", "lower"),
    "decorations.rows": ("count", "lower"),
    "decorations.output_masks": ("count", "lower"),
    "decorations.join_outputs_calls": ("count", "lower"),
    "decorations.compact_output_calls": ("count", "lower"),
    "moore.naive_ms": ("ms", "lower"),
    "moore.naive_pairs": ("count", "lower"),
    "moore.reachable_ms": ("ms", "lower"),
    "moore.reachable_states": ("count", "lower"),
    "moore.det_step_calls": ("count", "lower"),
    "moore.det_output_calls": ("count", "lower"),
    "hkc.check_ms": ("ms", "lower"),
    "hkc.pairs_processed": ("count", "lower"),
    "hkc.relation_size": ("count", "lower"),
    "hkc.prune_ratio": ("ratio", "higher"),
    "hkc.saturate_calls": ("count", "lower"),
    "brzozowski.pass1_ms": ("ms", "lower"),
    "brzozowski.pass1_states": ("count", "lower"),
    "brzozowski.pass2_ms": ("ms", "lower"),
    "brzozowski.min_states": ("count", "lower"),
    "brzozowski.iso_ms": ("ms", "lower"),
    "gps.equiv_ms": ("ms", "lower"),
    "gps.det_step_calls": ("count", "lower"),
    "gps.det_output_calls": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class Tracer:
    """Spans and counters for one traced pass at a time."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []  # (qid, id, parent, name, start_ns, dur_ns, self_ns)
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: set = set()
        self._stack: List[list] = []  # [span id, start_ns, child_ns]
        self._next_id = 0
        self._patches: List[tuple] = []
        self._qid: Optional[str] = None

    # -- spans -------------------------------------------------------------

    def _open(self) -> None:
        self._stack.append([self._next_id, time.perf_counter_ns(), 0])
        self._next_id += 1

    def _close(self, name: str) -> None:
        sid, start, child = self._stack.pop()
        dur = time.perf_counter_ns() - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        self.spans.append((self._qid, sid, parent[0] if parent else None,
                           name, start, dur, dur - child))
        self.self_ns[name] += dur - child

    def query(self, qid: str, call: Callable[[], int]) -> int:
        """Run one request under a root ``cli`` span."""
        self._qid = qid
        self._open()
        try:
            return call()
        finally:
            self._close("cli")

    def _span_wrapper(self, name: str, fn: Callable, sizes: Optional[Callable],
                      metrics: Sequence[str]):
        tracer = self
        size_metrics = [m for m in metrics if not m.endswith("_ms")]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = _reversal_span(args, kwargs) if name == "brzozowski.reversal" else name
            tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if sizes is not None:
                try:
                    sizes(result, tracer.counts, span)
                except (AttributeError, TypeError, ValueError):
                    tracer.absent.update(size_metrics)  # the result changed shape
            return result
        return wrapper

    def _count_wrapper(self, name: str, fn: Callable):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def _resolve(self, targets: Sequence[str]):
        found = []
        for t in targets:
            mod_name, attr = t.split(".")
            try:
                mod = importlib.import_module(f"semcheck.{mod_name}")
            except ImportError:
                return None
            if not callable(getattr(mod, attr, None)):
                return None
            found.append((mod, attr))
        return found

    def install(self) -> None:
        for name, (targets, sizes, metrics) in SPANS.items():
            found = self._resolve(targets)
            if found is None:
                self.absent.update(metrics)
                continue
            for mod, attr in found:
                self._patch(mod, attr, self._span_wrapper(name, getattr(mod, attr), sizes,
                                                         metrics))
        for name, targets in COUNTERS.items():
            found = self._resolve(targets)
            if found is None:
                self.absent.add(name)
                continue
            for mod, attr in found:
                self._patch(mod, attr, self._count_wrapper(name, getattr(mod, attr)))

    def _patch(self, mod, attr: str, value) -> None:
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    # -- results -----------------------------------------------------------

    def take_pass(self) -> Dict[str, float]:
        """Per-layer values of the pass just traced; resets the pass state."""
        ms = {_self_ms(k): v / 1e6 for k, v in self.self_ns.items()}
        out: Dict[str, float] = {}
        for metric, (unit, _) in PER_LAYER.items():
            if metric in self.absent or metric in ("cli.errors", "trace.overhead_frac"):
                continue
            if metric == "hkc.prune_ratio":
                processed = self.counts["hkc.pairs_processed"]
                out[metric] = self.counts["hkc.pruned"] / processed if processed else 0.0
            elif unit == "ms":
                out[metric] = ms.get(metric, 0.0)
            else:
                out[metric] = self.counts[metric]
        self.self_ns.clear()
        self.counts.clear()
        return out

    def write_spans(self, path) -> None:
        keys = ("qid", "id", "parent", "name", "start_ns", "dur_ns", "self_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def _self_ms(span: str) -> str:
    """The self-time metric of a span as recorded (reversals as pass1/pass2)."""
    return "cli.self_ms" if span == "cli" else f"{span}_ms"
