"""Sleeping-model synchronous CONGEST simulator.

Public surface:

* :class:`~repro.sim.engine.SleepingSimulator` / :func:`~repro.sim.engine.simulate`
  — run protocols over a graph.
* :class:`~repro.sim.node.Awake`, :class:`~repro.sim.node.NodeContext`
  — the protocol-side API.
* :class:`~repro.sim.metrics.Metrics` — awake/round/message accounting.
* :class:`~repro.sim.tracing.EventTrace`, :class:`~repro.sim.tracing.KnowledgeTracker`
  — optional observers.
* :mod:`repro.sim.congest` — CONGEST message-size policy.
* :mod:`repro.sim.capabilities` — the engine selector
  :func:`~repro.sim.capabilities.resolve_engine`, the array engine's
  capability tables and their one check,
  :func:`~repro.sim.capabilities.require`; numpy-free.
* :mod:`repro.sim.array_engine` — substrate of the vectorized numpy
  backend (``engine="array"``): CSR graph view and block-level metric
  accounting.  Not imported here, so ``import repro.sim`` never loads
  numpy.
* :mod:`repro.sim.transport` — pluggable channel models and seeded fault
  injection (:class:`~repro.sim.transport.PerfectChannel`,
  :class:`~repro.sim.transport.DropChannel`, ...).
"""

from .capabilities import ENGINES, resolve_engine
from .congest import CongestPolicy, congest_budget_bits, payload_bits
from .engine import SimulationResult, SleepingSimulator, simulate
from .errors import (
    CongestViolation,
    NodeCrashed,
    ProtocolViolation,
    SimulationError,
    SimulationLimitExceeded,
    UnsupportedFeatureError,
)
from .metrics import Metrics, NodeMetrics
from .node import Awake, Inbox, NodeContext, Protocol, ProtocolFactory
from .replay import LoadedRun, load_trace, save_trace
from .tracing import EventTrace, KnowledgeTracker, TraceEvent
from .transport import (
    ChannelModel,
    CompositeChannel,
    CrashSchedule,
    DelayChannel,
    DropChannel,
    DuplicateChannel,
    Outcome,
    PerfectChannel,
    parse_channel_spec,
    validate_channel_spec,
)

__all__ = [
    "Awake",
    "ChannelModel",
    "CompositeChannel",
    "CongestPolicy",
    "CongestViolation",
    "CrashSchedule",
    "DelayChannel",
    "DropChannel",
    "DuplicateChannel",
    "ENGINES",
    "EventTrace",
    "Inbox",
    "KnowledgeTracker",
    "LoadedRun",
    "Metrics",
    "NodeContext",
    "NodeCrashed",
    "NodeMetrics",
    "Outcome",
    "PerfectChannel",
    "Protocol",
    "ProtocolFactory",
    "ProtocolViolation",
    "SimulationError",
    "SimulationLimitExceeded",
    "SimulationResult",
    "SleepingSimulator",
    "TraceEvent",
    "UnsupportedFeatureError",
    "congest_budget_bits",
    "payload_bits",
    "load_trace",
    "resolve_engine",
    "parse_channel_spec",
    "save_trace",
    "simulate",
    "validate_channel_spec",
]
