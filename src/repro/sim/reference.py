"""A deliberately naive reference engine for differential testing.

Everything in this repository rests on :class:`~repro.sim.engine.
SleepingSimulator`'s sparse execution being semantically identical to the
obvious round-by-round interpretation of the sleeping model.  This module
*is* that obvious interpretation: iterate every round ``1, 2, 3, ...``,
wake whoever scheduled this round, exchange messages among the awake,
resume.  No heap, no skipping, no observers — a few dozen lines one can
check by eye.

It is exponentially slower on sparse schedules (it visits every round), so
it is only used by the differential tests in
``tests/sim/test_reference_engine.py``, which assert that both engines
produce identical results, rounds, awake counts, and message statistics on
randomly generated protocols.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Any, Dict, List, Optional, Tuple

from .node import Awake, NodeContext, prime_protocol, run_protocol_step


@dataclass
class ReferenceResult:
    """The comparable subset of a simulation outcome."""

    node_results: Dict[int, Any]
    rounds: int
    awake_rounds: Dict[int, int]
    messages_delivered: int
    messages_lost: int


@dataclass
class _Pending:
    protocol: Any
    action: Optional[Awake]
    finished: bool = False
    result: Any = None


def simulate_dense(
    graph: Any,
    protocol_factory: Any,
    seed: int = 0,
    max_rounds: int = 100_000,
) -> ReferenceResult:
    """Run protocols on a :class:`repro.graphs.WeightedGraph` by visiting
    every round explicitly."""
    node_ids = graph.node_ids
    adjacency = {node: graph.ports_of(node) for node in node_ids}

    states: Dict[int, _Pending] = {}
    for node_id in node_ids:
        context = NodeContext(
            node_id=node_id,
            n=graph.n,
            max_id=graph.max_id,
            ports=tuple(sorted(adjacency[node_id])),
            port_weights={
                port: entry[2] for port, entry in adjacency[node_id].items()
            },
            rng=Random(f"{seed}/{node_id}"),
        )
        protocol = protocol_factory(context)
        finished, value = prime_protocol(protocol)
        if finished:
            states[node_id] = _Pending(protocol, None, True, value)
        else:
            states[node_id] = _Pending(protocol, value)

    awake_counts = {node: 0 for node in node_ids}
    delivered = lost = 0
    last_round = 0

    for current_round in range(1, max_rounds + 1):
        if all(state.finished for state in states.values()):
            break
        awake = [
            node
            for node, state in states.items()
            if not state.finished and state.action.round == current_round
        ]
        if not awake:
            continue
        last_round = current_round

        # Transmit.
        inboxes: Dict[int, Dict[int, Any]] = {node: {} for node in awake}
        awake_set = set(awake)
        for node in awake:
            for port, payload in dict(states[node].action.sends).items():
                neighbour, neighbour_port, _ = adjacency[node][port]
                if neighbour in awake_set:
                    inboxes[neighbour][neighbour_port] = payload
                    delivered += 1
                else:
                    lost += 1

        # Resume.
        for node in awake:
            awake_counts[node] += 1
            finished, value = run_protocol_step(
                states[node].protocol, inboxes[node]
            )
            if finished:
                states[node] = _Pending(states[node].protocol, None, True, value)
            else:
                states[node] = _Pending(states[node].protocol, value)
    else:
        unfinished = [n for n, s in states.items() if not s.finished]
        if unfinished:
            raise RuntimeError(
                f"reference engine hit max_rounds with nodes {unfinished[:5]} alive"
            )

    return ReferenceResult(
        node_results={node: state.result for node, state in states.items()},
        rounds=last_round,
        awake_rounds=awake_counts,
        messages_delivered=delivered,
        messages_lost=lost,
    )
