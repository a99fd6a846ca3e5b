"""In-memory span recorder installed from outside the program.

The benchmark's traced pass wraps each layer's public calls with
:meth:`Tracer.wrap`; nothing under ``src/`` is edited.  A span is
``[name_id, start, end, parent, note]``: ``parent`` is the index of the span
that was open when this one started (-1 for a root), ``note`` is whatever the
optional ``note(owner, args, result)`` callback returned (a request id, a
step outcome, a byte count).  Everything runs on one thread with no ``await``
inside a wrapped call, so a plain stack gives the parent.

No numpy and no ``repro`` import: the self-test loads this file on its own.
"""

from __future__ import annotations

import json
import time

NAME, START, END, PARENT, NOTE = range(5)


class Tracer:
    """Record spans around wrapped calls; undo the wrapping afterwards."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object, bool]] = []

    def name_id(self, name: str) -> int:
        """Small integer standing for ``name`` in the span records."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, note=None, owner=None):
        """Return ``fn`` wrapped so every call records one span called ``name``."""
        nid = self.name_id(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans = self.spans
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(owner, args, result)
            return result

        return traced

    def install(self, owner, attr: str, name: str, note=None) -> None:
        """Rebind ``owner.attr`` (an instance method or a module global) to a traced wrapper."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, self.wrap(name, original, note, owner))

    def restore(self) -> None:
        """Undo every :meth:`install`, newest first."""
        while self._undo:
            owner, attr, original, was_own = self._undo.pop()
            if was_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start an empty list."""
        if self._stack:
            raise RuntimeError("take() called while a traced call is still open")
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part covered by its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def write_chrome_trace(spans: list[list], names: list[str], path) -> None:
    """Write the spans as Chrome-trace JSON (open in chrome://tracing or Perfetto)."""
    origin = spans[0][START] if spans else 0.0
    events = []
    for s in spans:
        event = {
            "name": names[s[NAME]],
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": round((s[START] - origin) * 1e6, 1),
            "dur": round((s[END] - s[START]) * 1e6, 1),
        }
        if isinstance(s[NOTE], (str, int)):
            event["args"] = {"note": s[NOTE]}
        events.append(event)
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


# -- what gets wrapped -----------------------------------------------------------


def _kv_bytes(owner, args, result) -> int:
    """K and V bytes handed to a decode kernel, computed from the argument shapes."""
    return args[1].nbytes + args[2].nbytes


def _gathered_bytes(owner, args, result) -> int:
    """Bytes of the K and V arrays a gather returned."""
    return result[0].nbytes + result[1].nbytes


def _first_len(owner, args, result) -> int:
    return len(args[0])


def _step_note(serving, args, outcome) -> tuple:
    """``(outcome, work left, KV pages allocated, KV tokens stored)`` after a step."""
    backend = serving.backend
    pages = backend.engine.cache.dense_cache.allocator.num_allocated
    return outcome, serving.has_work, pages, backend.kv_tokens_in_use()


#: ``(layer, attribute, span name, note)``.  A layer is an instance the
#: benchmark built, or the module whose namespace holds an imported kernel.
#: Calls one layer makes to itself (``PagedKVCache.append`` under
#: ``DualPagedKVCache.append``) stay unwrapped: the outer span has them.
PLAN = (
    ("frontend", "submit", "frontend.submit", lambda o, a, r: a[0].request_id),
    ("serving", "step", "serving.step", _step_note),
    ("serving_module", "sample_token", "serving.sample", None),
    ("scheduler", "schedule_prefill", "scheduler.schedule_prefill", None),
    ("scheduler", "decode_batch", "scheduler.decode_batch", None),
    ("scheduler", "preempt_for_pressure", "scheduler.preempt_for_pressure", None),
    ("scheduler", "retire_finished", "scheduler.retire_finished", None),
    ("draft", "propose", "spec.propose", lambda o, a, r: len(r)),
    ("backend", "prefill", "backend.prefill", None),
    ("backend", "decode_batch", "backend.decode", None),
    ("backend", "decode_speculative", "backend.spec_verify", None),
    ("backend", "decode_speculative_batch", "backend.spec_verify", None),
    ("backend", "commit_speculative", "backend.spec_commit", None),
    ("backend", "release", "backend.release", None),
    ("engine", "prefill", "engine.prefill", lambda o, a, r: len(a[1])),
    ("engine", "decode_batch", "engine.decode_batch", _first_len),
    ("engine", "decode_speculative", "engine.decode_spec_batch", None),
    ("engine", "decode_speculative_batch", "engine.decode_spec_batch", _first_len),
    ("engine", "commit_speculative", "engine.commit_spec", None),
    ("engine", "fork_sequence", "engine.fork", None),
    ("engine", "release", "engine.release", None),
    ("engine_module", "prefill_sparse_attention", "attn.prefill", None),
    ("engine_module", "decode_batched_attention", "attn.decode", _kv_bytes),
    ("engine_module", "decode_group_attention", "attn.decode", _kv_bytes),
    ("selector", "lookup", "selector.lookup", None),
    ("selector", "select", "selector.select", None),
    ("cache", "append_batch", "kv.append", None),
    ("cache", "append", "kv.append", None),
    ("cache", "get_dense", "kv.get_dense", None),
    ("cache", "dense_key_stats", "kv.key_stats", None),
    ("cache", "fork_sequence", "kv.fork", None),
    ("cache", "remove_sequence", "kv.release", None),
    ("dense_cache", "gather_selected_batch", "kv.gather_selected", _gathered_bytes),
    ("dense_cache", "gather_pages", "kv.gather_selected", _gathered_bytes),
    ("dense_cache", "selected_token_count", "kv.selected_count", None),
)


def instrument(tracer: Tracer, layers: dict) -> None:
    """Install every :data:`PLAN` row whose layer is in ``layers``.

    ``ServingEngine`` caches the backend's speculative entry points when it is
    constructed, so the backend and draft source are instrumented before the
    front end is built, and the front end afterwards.
    """
    for layer, attr, name, note in PLAN:
        if layer in layers:
            tracer.install(layers[layer], attr, name, note)
