"""Experiment drivers: the producers of the EXPERIMENTS.md sections that are not grids.

Table 1 and its Theorem 4 product column are grids: they come from the
committed campaign ``examples/campaigns/table1.toml`` and its report
``CAMPAIGN_table1.json``, whose records and fits carry every row.
Every other section has exactly one producer: a driver here (Lemma 8 rides
on ``fig1``, the Pipelined-GHS column on ``baseline_gap``).  Each driver
runs at the fixed parameters behind the EXPERIMENTS.md numbers and returns
plain JSON data — string keys, lists, ints, booleans, floats rounded to 4
digits — with no timings, so the whole document is byte-stable.
``repro experiments`` prints it; the committed ``EXPERIMENTS.json`` is that
output::

    python -m repro.cli experiments > EXPERIMENTS.json
    python -m repro.cli experiments --only lemma1
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.baselines import (
    run_flooding_broadcast,
    run_pipelined_ghs,
    run_traditional_ghs,
)
from repro.core import (
    NOTHING,
    block_span,
    randomized_phase_count,
    run_deterministic_mst,
    run_randomized_mst,
)
from repro.core.coloring import STAGE_BLOCKS, fast_awake_coloring
from repro.core.harness import FLDTPlan, run_procedure
from repro.core.toolbox import fragment_broadcast, transmit_adjacent, upcast_min
from repro.graphs import (
    adversarial_moe_chain,
    path_graph,
    random_connected_graph,
    random_tree,
    ring_graph,
)
from repro.lower_bounds import (
    GrcTopology,
    awake_bound_from_congestion,
    certify_ring_run,
    congestion_lower_bound_bits,
    cut_crossing_bits,
    dsd_marked_edges,
    middle_cut,
    random_sd_instance,
    row_cut_bits,
    run_dsd_flooding,
    solve_sd_via_mst,
    theorem3_ring,
    theorem4_regime,
)

from .ablation import boruvka_merge_structure, worst_merge_diameter
from .complexity import fit_scaling
from .energy import EnergyModel
from .walkthrough import run_merging_walkthrough


def _round(value: float) -> float:
    return round(value, 4)


def _fit(ns: Sequence[float], ys: Sequence[float], model: str) -> Dict[str, Any]:
    """A :func:`fit_scaling` result as plain data (``ScalingFit`` minus ratios)."""
    fit = fit_scaling(ns, ys, model)
    return {
        "model": model,
        "constant": _round(fit.constant),
        "ratio_spread": _round(fit.ratio_spread),
    }


def experiment_theorem2() -> Dict[str, Any]:
    """T1-D: Theorem 2's N-dependence — fix n, grow the ID range N."""
    rows = []
    for factor in (1, 4, 16):
        graph = ring_graph(16, seed=7, id_range=None if factor == 1 else factor * 16)
        metrics = run_deterministic_mst(graph, verify=True).metrics
        rows.append(
            {
                "N": graph.max_id,
                "max_awake": metrics.max_awake,
                "rounds": metrics.rounds,
                "rounds_per_N": _round(metrics.rounds / graph.max_id),
            }
        )
    return {"n": 16, "rows": rows}


def experiment_theorem3() -> Dict[str, Any]:
    """T1-LB1: ring instances, knowledge growth, awake optimality."""
    rows: List[Dict[str, Any]] = []
    for n in (4, 8, 16, 32, 64):
        instance = theorem3_ring(n, seed=n)
        result = run_randomized_mst(
            instance.graph, seed=1, track_knowledge=True, verify=True
        )
        certificate = certify_ring_run(instance, result.simulation)
        rows.append(
            {
                "ring_size": instance.ring_size,
                "separation": instance.separation,
                "required_awake": certificate.required_awake,
                "observed_awake": certificate.observed_awake,
                "max_awake": result.metrics.max_awake,
                "growth_factor": _round(certificate.observed_growth),
                "holds": certificate.holds,
            }
        )
    return {
        "rows": rows,
        "awake_fit": _fit(
            [row["ring_size"] for row in rows],
            [row["max_awake"] for row in rows],
            "log",
        ),
    }


def experiment_fig1_reduction() -> Dict[str, Any]:
    """FIG1 + LEMMA8: G_rc, the SD → DSD → CSS → MST chain, cut congestion."""
    r, c = theorem4_regime(360)
    topology = GrcTopology(r, c)
    graph, _ = topology.to_weighted_graph()
    outcomes = [
        solve_sd_via_mst(
            topology,
            random_sd_instance(topology.r - 1, seed=seed, force_disjoint=seed % 2 == 0),
        )
        for seed in range(8)
    ]
    # One distributed run (an intersecting instance) with congestion
    # accounting on the internal tree nodes I and across the R_j cuts.
    instance = random_sd_instance(topology.r - 1, seed=99, force_disjoint=False)
    marked_graph, threshold = topology.to_weighted_graph(
        dsd_marked_edges(topology, instance)
    )
    distributed = run_randomized_mst(marked_graph, seed=0, verify=True, trace=True)
    trace = distributed.simulation.trace
    middle_bits = cut_crossing_bits(trace, middle_cut(topology))
    return {
        "structure": {
            "r": r,
            "c": c,
            "n": topology.n,
            "x_size": topology.x_size,
            "edges": len(topology.edges),
            "diameter": graph.diameter(),
            "diameter_bound": topology.diameter_upper_bound(),
            "c_over_log_n": _round(c / math.log2(topology.n)),
        },
        "oracle_instances": len(outcomes),
        "oracle_correct": sum(outcome.correct for outcome in outcomes),
        "css_matches_sd": all(
            outcome.css_connected == outcome.truth_disjoint for outcome in outcomes
        ),
        "distributed_awake": distributed.metrics.max_awake,
        "distributed_rounds": distributed.metrics.rounds,
        "heavy_edge_in_mst": any(w > threshold for w in distributed.mst_weights),
        "internal_tree_bits": congestion_lower_bound_bits(
            distributed.simulation, topology.internal_nodes
        ),
        "lemma8": {
            "cut_bits": [
                {"j": j, "bits": row_cut_bits(trace, topology, j)}
                for j in (2, c // 4, c // 2, 3 * c // 4)
            ],
            "middle_cut_bits": middle_bits,
            "implied_awake": awake_bound_from_congestion(
                middle_bits,
                len(topology.internal_nodes) or 1,
                4,
                distributed.metrics.max_message_bits or 1,
            ),
        },
    }


def experiment_observation1() -> Dict[str, Any]:
    """OBS1: direct DSD on G_rc (r = 4) completes in O(D) rounds."""
    rows = []
    for c in (16, 32, 64, 128):
        topology = GrcTopology(4, c)
        graph, _ = topology.to_weighted_graph()
        result = run_dsd_flooding(topology, random_sd_instance(topology.r - 1, seed=c))
        rows.append(
            {
                "c": c,
                "n": topology.n,
                "diameter": graph.diameter(),
                "completion_rounds": result.completion_rounds,
                "relay_rounds": result.rounds,
                "correct": result.correct,
            }
        )
    return {"r": 4, "rows": rows}


def experiment_fig2_5() -> Dict[str, Any]:
    """FIG2-5: the merging walk-through (asserts all figure invariants)."""
    walkthrough = run_merging_walkthrough()

    def label(snapshot):
        return {"fragment": snapshot.fragment_id, "level": snapshot.level}

    return {
        "u_tails": walkthrough.u_tails,
        "u_heads": walkthrough.u_heads,
        "nodes": [
            {
                "node": node,
                "before": label(walkthrough.before[node]),
                "after": label(walkthrough.after[node]),
            }
            for node in sorted(walkthrough.before)
        ],
    }


def _broadcast(ctx, ldt, clock, value):
    result = yield from fragment_broadcast(
        ctx, ldt, clock.take(), 42 if ldt.is_root else NOTHING
    )
    return result


def _upcast(ctx, ldt, clock, value):
    result = yield from upcast_min(ctx, ldt, clock.take(), ctx.node_id)
    return result


def _adjacent(ctx, ldt, clock, value):
    inbox = yield from transmit_adjacent(
        ctx, ldt, clock.take(), ctx.broadcast(ctx.node_id)
    )
    return len(inbox)


def experiment_toolbox() -> Dict[str, Any]:
    """TOOLBOX: Observations 2-4 — O(1) awake inside one 2n+2 block."""
    rows = []
    for name, procedure, structure in (
        ("Fragment-Broadcast", _broadcast, "tree"),
        ("Upcast-Min", _upcast, "tree"),
        ("Transmit-Adjacent", _adjacent, "singletons"),
    ):
        for n in (8, 32, 128, 512):
            graph = path_graph(n, seed=1) if n <= 32 else random_tree(n, seed=1)
            if structure == "tree":
                plan = FLDTPlan.single_tree(graph, graph.node_ids[0])
            else:
                plan = FLDTPlan.singletons(graph)
            metrics = run_procedure(
                graph, plan, procedure, refresh_neighbors=False
            ).simulation.metrics
            rows.append(
                {
                    "procedure": name,
                    "n": n,
                    "max_awake": metrics.max_awake,
                    "rounds": metrics.rounds,
                    "block_span": block_span(n),
                }
            )
    return {"rows": rows}


def experiment_ablation_coin() -> Dict[str, Any]:
    """ABL-COIN: merge-component diameters with vs without coin pruning."""
    n = 256
    chain = adversarial_moe_chain(n, seed=3)
    random_graph = random_connected_graph(n, extra_edge_prob=0.05, seed=3)
    rows = {}
    for name, graph in (("moe_chain", chain), ("random", random_graph)):
        unrestricted = boruvka_merge_structure(graph, restricted=False, seed=1)
        restricted = boruvka_merge_structure(graph, restricted=True, seed=1)
        rows[name] = {
            "unrestricted_worst_diameter": worst_merge_diameter(unrestricted),
            "restricted_worst_diameter": worst_merge_diameter(restricted),
            "unrestricted_phases": len(unrestricted),
            "restricted_phases": len(restricted),
        }
    return {"n": n, **rows}


def experiment_ablation_coloring() -> Dict[str, Any]:
    """ABL-COLOR: Fast-Awake-Coloring — awake flat, rounds linear in N."""
    n = 16
    rows = []
    for factor in (1, 4, 16, 64):
        graph = ring_graph(n, seed=3, id_range=None if factor == 1 else factor * n)

        def procedure(ctx, ldt, clock, value, graph=graph):
            outcome = yield from fast_awake_coloring(
                ctx, ldt, clock, set(graph.neighbors(ctx.node_id)), set(ctx.ports)
            )
            return outcome

        run = run_procedure(
            graph, FLDTPlan.singletons(graph), procedure, refresh_neighbors=False
        )
        colors = {node: run.returns[node][0] for node in graph.node_ids}
        metrics = run.simulation.metrics
        rows.append(
            {
                "N": graph.max_id,
                "max_awake": metrics.max_awake,
                "rounds": metrics.rounds,
                "budget": STAGE_BLOCKS * graph.max_id * block_span(n),
                "proper": all(colors[e.u] != colors[e.v] for e in graph.edges()),
            }
        )
    return {"n": n, "rows": rows}


def experiment_baseline_gap() -> Dict[str, Any]:
    """BASE: sleeping vs traditional vs Pipelined-GHS awake, plus flooding Θ(D)."""
    rows = []
    for n in (32, 64, 128, 256):
        graph = ring_graph(n, seed=n)
        sleeping = run_randomized_mst(graph, seed=0)
        traditional = run_traditional_ghs(graph, seed=0)
        pipelined = run_pipelined_ghs(graph)
        flooding = run_flooding_broadcast(graph)
        rows.append(
            {
                "n": n,
                "sleeping_awake": sleeping.metrics.max_awake,
                "traditional_awake": traditional.metrics.max_awake,
                "pipelined_awake": pipelined.metrics.max_awake,
                "pipelined_mst_matches": pipelined.mst_weights == sleeping.mst_weights,
                "gap": _round(
                    traditional.metrics.max_awake / max(1, sleeping.metrics.max_awake)
                ),
                "flooding_awake": flooding.metrics.max_awake,
                "diameter": n // 2,
            }
        )
    return {"rows": rows}


def experiment_energy() -> Dict[str, Any]:
    """ENERGY: battery-lifetime implications of the awake gap."""
    n = 128
    graph = random_connected_graph(n, extra_edge_prob=0.08, seed=5)
    model = EnergyModel()
    sleeping = run_randomized_mst(graph, seed=0).metrics
    traditional = run_traditional_ghs(graph, seed=0).metrics
    return {
        "n": n,
        "sleeping_worst_energy_mj": _round(model.max_node_energy(sleeping)),
        "traditional_worst_energy_mj": _round(model.max_node_energy(traditional)),
        "sleeping_runs_per_battery": _round(model.executions_per_battery(sleeping)),
        "traditional_runs_per_battery": _round(
            model.executions_per_battery(traditional)
        ),
    }


def experiment_lemma1() -> Dict[str, Any]:
    """LEMMA1 + Lemma 2: per-phase contraction >= 4/3; fixed budget exact."""
    from .randomized_stats import contraction_statistics, fixed_mode_success_rate

    n = 128
    contraction = {}
    for name, graph in (
        ("random", random_connected_graph(n, 0.1, seed=n)),
        ("ring", ring_graph(n, seed=n)),
        ("moe_chain", adversarial_moe_chain(n, seed=n)),
    ):
        stats = contraction_statistics(graph, seeds=range(20))
        contraction[name] = {
            "mean_ratio": _round(stats.mean_ratio),
            "geometric_mean_ratio": _round(stats.geometric_mean_ratio),
            "worst_phase_count": max(stats.phases),
        }
    success = fixed_mode_success_rate(
        random_connected_graph(32, 0.15, seed=7), seeds=range(5)
    )
    return {
        "n": n,
        "seeds": 20,
        "phase_budget": randomized_phase_count(n),
        "contraction": contraction,
        "fixed_mode": {
            "n": 32,
            "runs": success.runs,
            "exact": success.successes,
            "max_awake": success.max_awake,
        },
    }


def experiment_corollary1() -> Dict[str, Any]:
    """COR1: log*-coloring — rounds flat in N, small awake factor."""
    n = 16
    rows = []
    for factor in (1, 4, 16, 64):
        graph = ring_graph(n, seed=5, id_range=None if factor == 1 else factor * n)
        fast = run_deterministic_mst(graph, coloring="fast-awake", verify=True)
        star = run_deterministic_mst(graph, coloring="log-star", verify=True)
        rows.append(
            {
                "N": graph.max_id,
                "fast_awake": fast.metrics.max_awake,
                "fast_rounds": fast.metrics.rounds,
                "logstar_awake": star.metrics.max_awake,
                "logstar_rounds": star.metrics.rounds,
            }
        )
    return {"n": n, "rows": rows}


def experiment_messages() -> Dict[str, Any]:
    """MSG: Randomized-MST sends O(m) messages per phase and loses none."""
    rows = []
    for n in (32, 64, 128, 256):
        graph = random_connected_graph(n, 0.1, seed=n)
        result = run_randomized_mst(graph, seed=0, verify=True)
        messages = result.metrics.messages_delivered
        rows.append(
            {
                "n": n,
                "m": graph.m,
                "phases": result.phases,
                "messages": messages,
                "messages_per_edge_phase": _round(messages / (graph.m * result.phases)),
                "bits": result.metrics.total_bits,
                "lost": result.metrics.messages_lost,
            }
        )
    return {"rows": rows}


def experiment_node_averaged() -> Dict[str, Any]:
    """NODE-AVG: node-averaged awake tracks the worst case, both Θ(log n)."""
    sizes = (16, 32, 64, 128)
    rows = []
    randomized_means = []
    for n in sizes:
        graph = random_connected_graph(n, 0.1, seed=n)
        randomized = run_randomized_mst(graph, seed=0, verify=True).metrics
        deterministic = run_deterministic_mst(graph, verify=True).metrics
        randomized_means.append(randomized.mean_awake)
        rows.append(
            {
                "n": n,
                "randomized_mean": _round(randomized.mean_awake),
                "randomized_max": randomized.max_awake,
                "deterministic_mean": _round(deterministic.mean_awake),
                "deterministic_max": deterministic.max_awake,
            }
        )
    return {
        "rows": rows,
        "randomized_mean_fit": _fit(sizes, randomized_means, "log"),
    }


ALL_EXPERIMENTS = {
    "ablation_coin": experiment_ablation_coin,
    "ablation_coloring": experiment_ablation_coloring,
    "baseline_gap": experiment_baseline_gap,
    "corollary1": experiment_corollary1,
    "energy": experiment_energy,
    "fig1": experiment_fig1_reduction,
    "fig2_5": experiment_fig2_5,
    "lemma1": experiment_lemma1,
    "messages": experiment_messages,
    "node_averaged": experiment_node_averaged,
    "observation1": experiment_observation1,
    "theorem2": experiment_theorem2,
    "theorem3": experiment_theorem3,
    "toolbox": experiment_toolbox,
}


def build_experiments(only: Optional[Iterable[str]] = None) -> Dict[str, Any]:
    """Run the chosen drivers (all by default): the ``EXPERIMENTS.json`` document."""
    return {name: ALL_EXPERIMENTS[name]() for name in (only or ALL_EXPERIMENTS)}
