"""Runtime span tracing of the layers, patched in from the benchmark only.

:class:`Tracer` replaces the public entry points of each layer with thin
wrappers while it is installed (``with tracer:``) and restores them on
exit; nothing under ``src/`` changes.  Every wrapped call becomes one span
``(id, name, start, end, parent, event)`` kept in memory, where *event* is
the engine's id of the event being handled when the span opened (``None``
outside ``ReactiveEngine.handle_event``).  A layer's *self* time is its
span's duration minus the durations of its child spans.

Spans are recorded and aggregated per ``(phase, name)``: the driver sets
:attr:`Tracer.phase` to ``"setup"`` around set-up and to ``"run"`` around
the traced saturating phase, and to ``None`` elsewhere, where spans still
nest (their time is subtracted from their parents' self time) but are
neither recorded nor aggregated.
"""

from __future__ import annotations

import json
import os
import time

import repro.api
import repro.core.conditions
import repro.core.engine
import repro.events.incremental
import repro.events.naive
import repro.events.tree
import repro.ingest.wire
import repro.store
import repro.store.backend
import repro.store.wal
from repro.api import ReactiveNode
from repro.core.engine import ReactiveEngine
from repro.events.incremental import IncrementalEvaluator
from repro.events.naive import NaiveEvaluator
from repro.events.tree import TreeEvaluator
from repro.ingest.admission import IngestGateway
from repro.ingest.transport import LoopbackClient
from repro.store.backend import DurableResourceStore
from repro.store.wal import WalBackend
from repro.updates.transactions import Transaction
from repro.web.node import Simulation

_EVALUATORS = (IncrementalEvaluator, NaiveEvaluator, TreeEvaluator)
_MATCHER_SITES = (repro.events.incremental, repro.events.naive,
                  repro.events.tree)

#: (owner, attribute, span name, what to accumulate besides time)
_PLAIN = [
    (LoopbackClient, "send", "ingest.send", None),
    (IngestGateway, "offer_payload", "ingest.offer", None),
    (repro.ingest.wire, "parse_data", "terms.parse", None),
    (repro.api, "parse_program", "lang.parse", None),
    (ReactiveNode, "install", "core.install", None),
    (ReactiveNode, "raise_local", "web.raise_local", None),
    (Simulation, "run_until", "web.drive", None),
    (Simulation, "run", "web.drive", None),
    (ReactiveEngine, "handle_event", "core.handle", None),
    (repro.core.conditions, "evaluate", "core.condition", None),
    (repro.core.conditions, "match", "terms.query_match", None),
    (ReactiveEngine, "execute", "core.action", None),
    (repro.core.engine, "insert_child", "updates.apply", None),
    (repro.core.engine, "replace_terms", "updates.apply", None),
    (repro.core.engine, "delete_terms", "updates.apply", None),
    (Transaction, "commit", "updates.commit", None),
    (Transaction, "rollback", "updates.rollback", None),
    (repro.store.backend, "parse_data", "terms.parse", None),
    (repro.store.wal, "parse_data", "terms.parse", None),
    (DurableResourceStore, "checkpoint", "store.checkpoint", "snapshot"),
    (WalBackend, "append_commit", "store.commit", "wal"),
    (repro.store, "open_store", "store.recover", None),
] + [(cls, "on_event", "events.on_event", "answers") for cls in _EVALUATORS] \
  + [(cls, "advance_time", "events.advance", "answers") for cls in _EVALUATORS]


class Stat:
    """Aggregate of one span name in one phase."""

    __slots__ = ("count", "total", "self", "extra")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self = 0.0
        self.extra = 0  # hits, answers or bytes, depending on the span


class Tracer:
    """Installs the layer wrappers and records spans (see module doc)."""

    def __init__(self) -> None:
        self.phase: "str | None" = None
        self.spans: list = []
        self.stats: "dict[tuple[str, str], Stat]" = {}
        self.top_level: "dict[str, float]" = {}  # phase -> root span time
        self._stack: list = []  # open frames: [span id, child time]
        self._event = None
        self._next_id = 0
        self._saved: list = []

    # -- installation ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for owner, attr, name, extra in _PLAIN:
            self._patch(owner, attr, self._wrap(name, vars(owner)[attr], extra))
        for module in _MATCHER_SITES:
            for attr in ("compile_pattern", "compile_matches"):
                if attr in vars(module):
                    self._patch(module, attr, self._matcher_factory(
                        vars(module)[attr]))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _matcher_factory(self, compile_fn):
        wrap = self._wrap

        def compile_traced(query):
            return wrap("terms.event_match", compile_fn(query), "hits")

        return compile_traced

    # -- spans -----------------------------------------------------------------

    def _wrap(self, name: str, fn, extra: "str | None"):
        tracer = self
        stack = self._stack
        perf = time.perf_counter
        handle = name == "core.handle"

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            saved_event = tracer._event
            if handle:
                tracer._event = args[1].id
            size_before = tracer._file_size(extra, args)
            result = None
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer._record(span_id, name, start, end, parent,
                               duration - frame[1], extra, result, args,
                               size_before)
                tracer._event = saved_event

        return traced

    @staticmethod
    def _file_size(extra: "str | None", args) -> int:
        if extra == "wal":
            return os.path.getsize(args[0].wal_path)
        return 0

    def _record(self, span_id, name, start, end, parent, self_time, extra,
                result, args, size_before) -> None:
        if self.phase is None:
            return
        self.spans.append((span_id, name, start, end, parent, self._event,
                           self.phase))
        if parent is None:
            self.top_level[self.phase] = (self.top_level.get(self.phase, 0.0)
                                          + end - start)
        key = (self.phase, name)
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        stat.count += 1
        stat.total += end - start
        stat.self += self_time
        if extra == "hits":
            stat.extra += bool(result)
        elif extra == "answers" and result is not None:
            stat.extra += len(result)
        elif extra == "wal":
            stat.extra += os.path.getsize(args[0].wal_path) - size_before
        elif extra == "snapshot":
            stat.extra += os.path.getsize(args[0].backend.snapshot_path)

    # -- results --------------------------------------------------------------

    def stat(self, phase: str, *names: str) -> Stat:
        """The aggregate of *names* (summed) in *phase*; zeros if absent."""
        out = Stat()
        for name in names:
            stat = self.stats.get((phase, name))
            if stat is not None:
                out.count += stat.count
                out.total += stat.total
                out.self += stat.self
                out.extra += stat.extra
        return out

    def self_total(self, phase: str) -> float:
        return sum(stat.self for (p, _n), stat in self.stats.items()
                   if p == phase)

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, event, phase in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "event": event, "phase": phase,
                }) + "\n")
