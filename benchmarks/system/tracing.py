"""Outside-in layer tracing for the system benchmark.

Each layer is timed by wrapping its public callables from outside the
program: :func:`install` swaps the attributes named in :data:`TARGETS`
for timing wrappers and returns an :class:`Installation` whose
:meth:`~Installation.restore` puts the original objects back.  Nothing
under ``src/`` knows about this module; the wrappers only ever exist in a
benchmark process (``workloads.py`` with ``--trace 1``) or in the daemon
``serve.py`` starts.

Every wrapped call is a *frame* on a per-thread stack.  On exit the frame
adds its count, inclusive time and self time (inclusive minus the time
of nested frames) to its stat key, so one layer's self time never
includes another layer's.  Coarse frames (a cell, a graph build, a
``sim.run``, an HTTP request, a queue call) also record a *span* with a
name, start, end, parent span and the id of the operation it belongs to;
high-frequency frames (``CongestPolicy.check``, protocol steps,
``deliver``, ``on_probe``) keep only count and time.  Spans stay in
memory until :func:`chrome_trace` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

_clock = time.perf_counter

#: ``(module, attribute path, stat key, span name or None)``.  The
#: attribute path is ``name`` for a module-level function or
#: ``Class.method`` for a method; a span name marks a coarse boundary.
TARGETS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    # Graph generators as GRAPH_FAMILIES' lambdas look them up.
    ("repro.orchestrator.registry", "ring_graph", "graphs.build", "graph build"),
    ("repro.orchestrator.registry", "path_graph", "graphs.build", "graph build"),
    ("repro.orchestrator.registry", "star_graph", "graphs.build", "graph build"),
    ("repro.orchestrator.registry", "complete_graph", "graphs.build", "graph build"),
    ("repro.orchestrator.registry", "grid_graph", "graphs.build", "graph build"),
    (
        "repro.orchestrator.registry",
        "random_connected_graph",
        "graphs.build",
        "graph build",
    ),
    (
        "repro.orchestrator.registry",
        "random_geometric_graph",
        "graphs.build",
        "graph build",
    ),
    (
        "repro.core.runner",
        "require_sleeping_model_inputs",
        "graphs.validate",
        "validate",
    ),
    ("repro.core.runner", "check_local_mst_outputs", "graphs.validate", "validate"),
    ("repro.core.runner", "mst_weight_set", "graphs.validate", "validate"),
    ("repro.sim.engine", "SleepingSimulator.__init__", "", None),
    ("repro.sim.engine", "SleepingSimulator.run", "sim.engine.run", "sim.run"),
    ("repro.sim.congest", "CongestPolicy.check", "sim.congest.check", None),
    ("repro.sim.transport", "DuplicateChannel.deliver", "sim.transport.deliver", None),
    ("repro.invariants.monitors", "MonitorSet.on_probe", "invariants.probe", None),
    (
        "repro.invariants.monitors",
        "MonitorSet.on_span_close",
        "invariants.span_close",
        None,
    ),
    ("repro.invariants.monitors", "MonitorSet.finalize", "invariants.finalize", None),
    (
        "repro.core.array_ops",
        "run_randomized_mst_array",
        "core.array_ops.run",
        "array run",
    ),
    ("repro.sim.array_engine", "ArrayGraph.__init__", "sim.array_engine.graph", None),
    *(
        (
            "repro.sim.array_engine",
            f"BlockAccountant.{name}",
            "sim.array_engine.accounting",
            None,
        )
        for name in (
            "charge_awake",
            "charge_side_exchange",
            "charge_up_messages",
            "charge_down_messages",
            "check_limits",
            "finalize",
        )
    ),
    ("repro.orchestrator.pool", "execute_job", "orchestrator.jobs.execute", "execute_job"),
    ("repro.orchestrator.cache", "ResultCache.get", "orchestrator.cache.get", None),
    ("repro.orchestrator.cache", "ResultCache.put", "orchestrator.cache.put", None),
    ("repro.orchestrator.store", "RunStore.append", "orchestrator.store.append", None),
    ("repro.orchestrator.store", "RunStore.load", "orchestrator.store.load", None),
    ("repro.orchestrator.store", "RunRecord.from_dict", "orchestrator.store.decode", None),
    ("repro.service.queue", "JobQueue.submit", "service.queue.submit", "queue.submit"),
    ("repro.service.queue", "Job.snapshot", "service.queue.snapshot", None),
    ("repro.service.queue", "run_jobs", "service.queue.run", "run_jobs"),
    ("repro.telemetry.flight", "FlightRecorder.record", "telemetry.flight.record", None),
    ("repro.service.server", "ServiceHandler.do_GET", "service.server.get", "http GET"),
    ("repro.service.server", "ServiceHandler.do_POST", "service.server.post", "http POST"),
    ("repro.service.client", "ServiceClient.submit", "service.client.submit", "submit"),
    ("repro.service.client", "ServiceClient.poll", "service.client.poll", None),
    ("repro.service.client", "ServiceClient.fetch", "service.client.fetch", "fetch"),
)

#: Stat key of the benchmark's own operation frames (a cell, a request,
#: a ``run_jobs`` pass).  Their self time is what no named layer covers.
OP_KEY = "bench.op"

#: Every per-layer metric with its unit, in report order.  ``/op``
#: values are divided by the operations the traced phase completed (a
#: cell, a service request, or a batch record, per workload).  Layers a
#: workload never reaches report 0.
PER_LAYER: Dict[str, str] = {
    "graphs.build_s": "s/op",
    "graphs.build_share": "frac",
    "graphs.validate_s": "s/op",
    "core.protocol_steps": "count/op",
    "core.protocol_s": "s/op",
    "sim.engine.run_s": "s/op",
    "sim.engine.self_s": "s/op",
    "sim.engine.rounds": "count/op",
    "sim.engine.messages": "count/op",
    "sim.congest.check_calls": "count/op",
    "sim.congest.check_s": "s/op",
    "sim.congest.distinct_frac": "frac",
    "sim.transport.deliver_calls": "count/op",
    "sim.transport.deliver_s": "s/op",
    "invariants.probe_calls": "count/op",
    "invariants.probe_s": "s/op",
    "invariants.span_close_s": "s/op",
    "invariants.finalize_s": "s/op",
    "invariants.checks": "count/op",
    "core.array_ops.run_s": "s/op",
    "sim.array_engine.graph_s": "s/op",
    "sim.array_engine.accounting_s": "s/op",
    "orchestrator.jobs.execute_s": "s/op",
    "orchestrator.jobs.self_s": "s/op",
    "orchestrator.pool.busy_frac": "frac",
    "orchestrator.pool.first_result_s": "s",
    "orchestrator.pool.retried": "count/op",
    "orchestrator.pool.crashed": "count/op",
    "orchestrator.pool.cold_cells_per_s": "1/s",
    "orchestrator.cache.get_calls": "count/op",
    "orchestrator.cache.get_s": "s/op",
    "orchestrator.cache.put_calls": "count/op",
    "orchestrator.cache.put_s": "s/op",
    "orchestrator.cache.hit_ratio": "frac",
    "orchestrator.store.append_calls": "count/op",
    "orchestrator.store.append_s": "s/op",
    "orchestrator.store.load_s": "s/op",
    "orchestrator.store.decode_s": "s/op",
    "orchestrator.store.skipped_lines": "count",
    "orchestrator.store.replay_cells_per_s": "1/s",
    "service.server.post_jobs_s": "s/op",
    "service.server.get_job_s": "s/op",
    "service.server.get_result_s": "s/op",
    "service.server.http_overhead_s": "s/op",
    "service.queue.submit_s": "s/op",
    "service.queue.wait_s": "s/op",
    "service.queue.run_s": "s/op",
    "service.queue.snapshot_s": "s/op",
    "service.queue.jobs_held": "count",
    "service.queue.coalesced_drift_frac": "frac",
    "service.client.polls_per_cold": "count",
    "service.client.unfinished_poll_frac": "frac",
    "service.client.cold_p50_ms": "ms",
    "service.client.cold_p95_ms": "ms",
    "service.client.cached_p50_ms": "ms",
    "service.client.cached_p95_ms": "ms",
    "service.client.coalesced_p50_ms": "ms",
    "service.client.coalesced_p95_ms": "ms",
    "telemetry.flight.record_calls": "count/op",
    "telemetry.flight.record_s": "s/op",
    "tracing.overhead_frac": "frac",
    "tracing.unattributed_frac": "frac",
}

#: Per-layer values derived from wrapper stats: metric -> (stat key,
#: field), where field 0 is the call count, 1 inclusive and 2 self time.
_FROM_STATS: Dict[str, Tuple[str, int]] = {
    "graphs.build_s": ("graphs.build", 2),
    "graphs.validate_s": ("graphs.validate", 2),
    "core.protocol_steps": ("core.protocol", 0),
    "core.protocol_s": ("core.protocol", 2),
    "sim.engine.run_s": ("sim.engine.run", 1),
    "sim.engine.self_s": ("sim.engine.run", 2),
    "sim.congest.check_calls": ("sim.congest.check", 0),
    "sim.congest.check_s": ("sim.congest.check", 2),
    "sim.transport.deliver_calls": ("sim.transport.deliver", 0),
    "sim.transport.deliver_s": ("sim.transport.deliver", 2),
    "invariants.probe_calls": ("invariants.probe", 0),
    "invariants.probe_s": ("invariants.probe", 2),
    "invariants.span_close_s": ("invariants.span_close", 2),
    "invariants.finalize_s": ("invariants.finalize", 2),
    "core.array_ops.run_s": ("core.array_ops.run", 2),
    "sim.array_engine.graph_s": ("sim.array_engine.graph", 2),
    "sim.array_engine.accounting_s": ("sim.array_engine.accounting", 2),
    "orchestrator.jobs.execute_s": ("orchestrator.jobs.execute", 1),
    "orchestrator.jobs.self_s": ("orchestrator.jobs.execute", 2),
    "orchestrator.cache.get_calls": ("orchestrator.cache.get", 0),
    "orchestrator.cache.get_s": ("orchestrator.cache.get", 2),
    "orchestrator.cache.put_calls": ("orchestrator.cache.put", 0),
    "orchestrator.cache.put_s": ("orchestrator.cache.put", 2),
    "orchestrator.store.append_calls": ("orchestrator.store.append", 0),
    "orchestrator.store.append_s": ("orchestrator.store.append", 2),
    "orchestrator.store.load_s": ("orchestrator.store.load", 2),
    "orchestrator.store.decode_s": ("orchestrator.store.decode", 2),
    "service.queue.submit_s": ("service.queue.submit", 2),
    "service.queue.run_s": ("service.queue.run", 1),
    "service.queue.snapshot_s": ("service.queue.snapshot", 2),
    "telemetry.flight.record_calls": ("telemetry.flight.record", 0),
    "telemetry.flight.record_s": ("telemetry.flight.record", 2),
}

class _ThreadState:
    """One thread's frame stack, stats, spans and payload-distinct sets."""

    __slots__ = ("stack", "span_stack", "stats", "spans", "seen", "distinct", "op")

    def __init__(self) -> None:
        #: Open frames as ``[child_seconds]`` cells.
        self.stack: List[List[float]] = []
        self.span_stack: List[int] = []
        #: stat key -> [calls, inclusive seconds, self seconds]
        self.stats: Dict[str, List[float]] = {}
        #: (name, start, end, span id, parent id, op id, thread ident)
        self.spans: List[Tuple[str, float, float, int, Optional[int], Any, int]] = []
        #: id(CongestPolicy) -> distinct (shape, payload) keys seen so far.
        self.seen: Dict[int, set] = {}
        self.distinct = 0
        self.op: Any = None


class Tracer:
    """Frame stacks and stats for every thread of one process.

    ``op_id`` names the operation a span belongs to; when it is absent or
    returns ``None`` the span takes the thread's ``state().op``, which
    :meth:`op` sets.  The traced daemon passes
    ``repro.telemetry.current_trace_id`` so spans carry the request's
    ``X-Trace-Id``.
    """

    def __init__(self, op_id: Optional[Callable[[], Any]] = None) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._op_id = op_id

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def _enter(self, state: _ThreadState, span: Optional[str]) -> List[float]:
        frame = [0.0]
        state.stack.append(frame)
        if span is not None:
            state.span_stack.append(next(self._ids))
        return frame

    def _exit(
        self,
        state: _ThreadState,
        key: str,
        frame: List[float],
        span: Optional[str],
        start: float,
        end: float,
    ) -> None:
        state.stack.pop()
        elapsed = end - start
        stat = state.stats.get(key)
        if stat is None:
            stat = state.stats[key] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += elapsed - frame[0]
        if state.stack:
            state.stack[-1][0] += elapsed
        if span is not None:
            span_id = state.span_stack.pop()
            parent = state.span_stack[-1] if state.span_stack else None
            op = (self._op_id() if self._op_id is not None else None) or state.op
            state.spans.append(
                (span, start, end, span_id, parent, op, threading.get_ident())
            )

    def wrap(self, key: str, fn: Callable, span: Optional[str] = None) -> Callable:
        """Return ``fn`` timed under ``key`` (and recorded as ``span``)."""
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            state = self.state()
            frame = enter(state, span)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(state, key, frame, span, start, _clock())

        return timed

    @contextmanager
    def op(self, span: str, op_id: Any) -> Iterator[None]:
        """Frame one benchmark operation (a cell, request or pass)."""
        state = self.state()
        state.op = op_id
        frame = self._enter(state, span)
        start = _clock()
        try:
            yield
        finally:
            self._exit(state, OP_KEY, frame, span, start, _clock())

    def note_payload(self, policy: Any, payload: Any) -> None:
        """Remember a CONGEST payload's ``(shape, value)`` for one policy."""
        seen = self.state().seen.setdefault(id(policy), set())
        if payload.__class__ is tuple:
            shape: Any = tuple([value.__class__ for value in payload])
        else:
            shape = payload.__class__
        try:
            seen.add((shape, payload))
        except TypeError:
            seen.add((shape, repr(payload)))

    def close_policy(self, policy: Any) -> None:
        state = self.state()
        seen = state.seen.pop(id(policy), None)
        if seen:
            state.distinct += len(seen)

    def dump(self) -> Dict[str, Any]:
        """Merged stats and spans of every thread, as plain JSON types."""
        stats: Dict[str, List[float]] = {}
        spans: List[List[Any]] = []
        distinct = 0
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, (calls, total, own) in list(state.stats.items()):
                merged = stats.setdefault(key, [0, 0.0, 0.0])
                merged[0] += calls
                merged[1] += total
                merged[2] += own
            spans.extend(list(span) for span in list(state.spans))
            distinct += state.distinct
        return {"stats": stats, "spans": spans, "distinct": distinct}


class Installation:
    """Wrappers put in place by :func:`install`; :meth:`restore` undoes them."""

    def __init__(self) -> None:
        self._patches: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def resolve(module: str, path: str) -> Tuple[Any, str]:
    """``(owner, attribute name)`` for a :data:`TARGETS` entry."""
    owner: Any = importlib.import_module(module)
    *classes, name = path.split(".")
    for class_name in classes:
        owner = getattr(owner, class_name)
    return owner, name


def current_objects() -> Dict[str, Any]:
    """The objects the :data:`TARGETS` attributes hold right now."""
    objects = {}
    for module, path, _key, _span in TARGETS:
        owner, name = resolve(module, path)
        objects[f"{module}:{path}"] = owner.__dict__[name]
    return objects


class _TimedProtocol:
    """Generator proxy timing each protocol step (``__next__``/``send``)."""

    __slots__ = ("_generator", "_step")

    def __init__(self, generator: Any, step: Callable) -> None:
        self._generator = generator
        self._step = step

    def __iter__(self) -> "_TimedProtocol":
        return self

    def __next__(self) -> Any:
        return self._step(self._generator.__next__)

    def send(self, value: Any) -> Any:
        return self._step(self._generator.send, value)

    def close(self) -> None:
        self._generator.close()

    def throw(self, *args: Any) -> Any:
        return self._generator.throw(*args)


def _call(function: Callable, *args: Any) -> Any:
    return function(*args)


def install(tracer: Tracer, only: Optional[Sequence[str]] = None) -> Installation:
    """Wrap the :data:`TARGETS` callables; returns the undo handle.

    ``only`` limits the wrappers to the named modules (the service
    client process wraps only ``repro.service.client``, so its own
    result checking is not charged to the daemon's layers).
    """
    installation = Installation()
    step = tracer.wrap("core.protocol", _call)
    for module, path, key, span in TARGETS:
        if only is not None and module not in only:
            continue
        owner, name = resolve(module, path)
        original = owner.__dict__[name]
        if path == "SleepingSimulator.__init__":
            replacement = _protocol_proxy_init(original, step)
        elif path == "SleepingSimulator.run":
            replacement = _run_closing_policy(tracer, tracer.wrap(key, original, span))
        elif path == "CongestPolicy.check":
            replacement = _check_noting_payload(tracer, tracer.wrap(key, original))
        elif isinstance(original, classmethod):
            replacement = classmethod(tracer.wrap(key, original.__func__, span))
        else:
            replacement = tracer.wrap(key, original, span)
        installation.patch(owner, name, replacement)
    return installation


def _protocol_proxy_init(original: Callable, step: Callable) -> Callable:
    @functools.wraps(original)
    def __init__(self: Any, graph: Any, protocol_factory: Any, **kwargs: Any) -> None:
        def factory(context: Any) -> _TimedProtocol:
            return _TimedProtocol(protocol_factory(context), step)

        original(self, graph, factory, **kwargs)

    return __init__


def _run_closing_policy(tracer: Tracer, timed_run: Callable) -> Callable:
    @functools.wraps(timed_run)
    def run(self: Any) -> Any:
        try:
            return timed_run(self)
        finally:
            tracer.close_policy(self.congest)

    return run


def _check_noting_payload(tracer: Tracer, timed_check: Callable) -> Callable:
    @functools.wraps(timed_check)
    def check(self: Any, payload: Any) -> int:
        tracer.note_payload(self, payload)
        return timed_check(self, payload)

    return check


def merge_dumps(dumps: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine :meth:`Tracer.dump` payloads of several processes."""
    stats: Dict[str, List[float]] = {}
    distinct = 0
    for dump in dumps:
        for key, values in dump["stats"].items():
            merged = stats.setdefault(key, [0, 0.0, 0.0])
            for index in range(3):
                merged[index] += values[index]
        distinct += dump["distinct"]
    return {"stats": stats, "distinct": distinct}


def layer_metrics(
    stats: Dict[str, List[float]],
    distinct: int,
    ops: int,
    extras: Dict[str, float],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value from wrapper stats plus ``extras``.

    ``extras`` carries what the workload measured itself (record sums,
    pool timestamps, service counters, client latencies, overhead);
    anything neither source provides reads 0.
    """
    per_op = 1.0 / max(1, ops)
    values = {name: 0.0 for name in PER_LAYER}
    for name, (key, field) in _FROM_STATS.items():
        stat = stats.get(key)
        if stat is not None:
            values[name] = stat[field] * per_op
    op_stat = stats.get(OP_KEY, [0, 0.0, 0.0])
    if op_stat[1] > 0:
        values["graphs.build_share"] = stats.get("graphs.build", [0, 0.0, 0.0])[2] / op_stat[1]
        values["tracing.unattributed_frac"] = op_stat[2] / op_stat[1]
    checks = stats.get("sim.congest.check", [0])[0]
    if checks:
        values["sim.congest.distinct_frac"] = distinct / checks
    for name, value in extras.items():
        if name not in PER_LAYER:
            raise KeyError(f"unknown per-layer metric {name!r}")
        values[name] = value
    return values


def chrome_trace(
    processes: Sequence[Tuple[str, Sequence[Sequence[Any]]]],
    metadata: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Trace Event Format payload from per-process span lists.

    ``processes`` is ``[(label, spans), ...]`` with spans as recorded by
    :meth:`Tracer.dump`.  Span times are ``perf_counter`` readings, one
    clock for every process on the machine, so all processes share the
    earliest span start as time zero.
    """
    starts = [span[1] for _, spans in processes for span in spans]
    origin = min(starts) if starts else 0.0
    head: List[Dict[str, Any]] = []
    body: List[Dict[str, Any]] = []
    for pid, (label, spans) in enumerate(processes, start=1):
        head.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
        threads: Dict[int, int] = {}
        for name, start, end, span_id, parent, op, ident in spans:
            tid = threads.setdefault(ident, len(threads) + 1)
            body.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": round((start - origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": pid,
                    "tid": tid,
                    "args": {"span": span_id, "parent": parent, "op": op},
                }
            )
    body.sort(key=lambda event: (event["ts"], -event["dur"]))
    return {
        "traceEvents": head + body,
        "displayTimeUnit": "ms",
        "metadata": dict(metadata or {}, tsUnit="us"),
    }
