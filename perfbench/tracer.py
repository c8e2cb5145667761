"""Per-layer spans, recorded from outside the program.

:class:`Tracer` replaces a layer's public function or method with a
wrapper that times each call and puts the original back on
:meth:`Tracer.restore`.  Synchronous spans nest on a per-thread stack,
so a layer's *self* time is its inclusive time minus the time of the
wrapped calls made inside it.  Spans are aggregated in memory per layer
(calls, inclusive seconds, self seconds, plus free-form counters) and
written out once, when the run ends.

Only layer boundaries are wrapped, never the hot inner helpers
(no per-``find`` union-find spans), which keeps the overhead small;
the traced run reports it as ``trace.overhead``.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time


class LayerStats:
    __slots__ = ("calls", "incl", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0


class Tracer:
    """Install wrappers, aggregate spans, undo the patches."""

    def __init__(self) -> None:
        self.layers: dict[str, LayerStats] = {}
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr: str, wrapper) -> None:
        # Every wrapped attribute is defined on the owner itself (a
        # module function or a method of that very class).
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped function back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, owner, attr: str, layer: str, on_return=None) -> None:
        """Time every call of ``owner.attr`` as a nested span of ``layer``.

        ``on_return(tracer, args, result)`` runs after the call, outside
        the timed interval, to update counters.
        """
        fn = getattr(owner, attr)
        stats = self.layers.setdefault(layer, LayerStats())
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats.calls += 1
                stats.incl += dt
                stats.self_s += dt - frame[0]
            if on_return is not None:
                on_return(self, args, result)
            return result

        self._patch(owner, attr, wrapper)

    def async_span(self, owner, attr: str, layer: str) -> None:
        """Time a coroutine method from first step to return.

        Asynchronous spans do not nest on the stack: the interval
        includes every await, so their self time equals their
        inclusive time.
        """
        fn = getattr(owner, attr)
        assert inspect.iscoroutinefunction(fn), f"{attr} is not async"
        stats = self.layers.setdefault(layer, LayerStats())
        perf = time.perf_counter

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return await fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stats.calls += 1
                stats.incl += dt
                stats.self_s += dt

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        fn = getattr(owner, attr)
        self.counters.setdefault(counter, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[counter] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def peak(self, counter: str, value: float) -> None:
        if value > self.counters.get(counter, float("-inf")):
            self.counters[counter] = value

    # ------------------------------------------------------------- reports

    def self_seconds(self, layer: str) -> float:
        stats = self.layers.get(layer)
        return stats.self_s if stats is not None else 0.0

    def calls(self, layer: str) -> int:
        stats = self.layers.get(layer)
        return stats.calls if stats is not None else 0

    def table(self, wall_s: float) -> dict:
        """Every layer's calls, inclusive and self time, share of run."""
        return {
            "wall_s": wall_s,
            "layers": {
                name: {
                    "calls": s.calls,
                    "incl_s": s.incl,
                    "self_s": s.self_s,
                    "share_of_run": s.self_s / wall_s if wall_s > 0 else 0.0,
                }
                for name, s in sorted(self.layers.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }


# ----------------------------------------------------------- layer sets


def _count_augmented(tracer: Tracer, args, result) -> None:
    tracer.add("admit.augmented", len(result) if isinstance(result, list) else 1)


def install_admit(tracer: Tracer) -> None:
    """Admission: augment, and inside it template match and locate."""
    from repro.core.syslogplus import Augmenter
    from repro.locations.extract import LocationExtractor
    from repro.templates.compiled import CompiledTemplateSet

    tracer.span(Augmenter, "augment", "admit.augment", _count_augmented)
    tracer.span(Augmenter, "augment_all", "admit.augment", _count_augmented)
    tracer.span(CompiledTemplateSet, "match_words", "admit.match")
    tracer.span(LocationExtractor, "extract", "admit.locate")


def _note_open(tracer: Tracer, args, result) -> None:
    tracer.peak("stream.open_max", args[0].n_open_messages)


def install_stream(tracer: Tracer) -> None:
    """Stream pushes, shard steps, finalize scoring, sweep counting."""
    from repro.core.priority import Prioritizer
    from repro.core.stream import DigestStream, ShardState

    tracer.span(DigestStream, "push_many", "stream.push", _note_open)
    tracer.span(DigestStream, "push", "stream.push", _note_open)
    tracer.span(DigestStream, "close", "stream.close")
    tracer.span(ShardState, "step", "shard.step")
    tracer.span(Prioritizer, "score", "finalize.score")
    # Every finalize sweep, and close(), flushes the stream's metrics.
    tracer.count(DigestStream, "record_metrics", "stream.metric_flushes")


def install_batch(tracer: Tracer) -> None:
    """Batch grouping engine and its three passes."""
    from repro.core import grouping

    tracer.span(grouping.GroupingEngine, "group", "batch.group")
    tracer.span(grouping, "temporal_edges", "batch.temporal")
    tracer.span(grouping, "rule_edges", "batch.rule")
    tracer.span(grouping, "cross_router_edges", "batch.cross")


def _note_checkpoint(tracer: Tracer, args, result) -> None:
    import os

    tracer.add("checkpoint.bytes", os.path.getsize(args[0]))


def install_serve(tracer: Tracer) -> None:
    """Parent-side serve layers: tail, parse, ingest, durable writes,
    RPC and HTTP.  Layers inside a process-placed worker run in another
    interpreter and are not reached from here."""
    from repro.serve import tenant
    from repro.serve.http import HttpApi
    from repro.serve.journal import EventJournal
    from repro.serve.placement import WorkerClient
    from repro.syslog import ingest
    from repro.syslog.tail import TailSet

    tracer.span(TailSet, "poll", "tail.poll")
    tracer.span(ingest, "parse_line", "parse.line")
    tracer.span(ingest.MultiSourceIngest, "push_line", "ingest.push_line")
    tracer.span(tenant, "write_checkpoint", "checkpoint.write", _note_checkpoint)
    tracer.span(EventJournal, "append", "journal.append")
    tracer.span(EventJournal, "sync", "journal.sync")
    tracer.async_span(WorkerClient, "request", "rpc.request")
    tracer.async_span(HttpApi, "_dispatch", "http.handler")
