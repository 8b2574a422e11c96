"""Pure checkers behind the runtime invariant monitors.

Each function inspects one *probe group* — the per-node state snapshots
that every node emitted at the same probe point of the same phase (see
``ctx.probe`` in :mod:`repro.sim.node` and the probe calls in
:mod:`repro.core.mst_randomized` / :mod:`repro.core.mst_deterministic`) —
and returns the list of :class:`~repro.invariants.report.Violation` it
finds.  They hold no state and never touch the simulation, so unit tests
can drive them directly with deliberately corrupted snapshots.

Snapshot shapes (all values are plain ints/tuples so snapshots serialize):

``phase_end`` (both MST algorithms, end of every phase)
    ``{"phase", "fragment", "level", "parent_port", "children_ports",
    "tree_weights"}``
``merge_decision`` (randomized, after the validity broadcast)
    ``{"phase", "fragment", "coin", "moe", "merging", "owner", "valid",
    "target"}``
``moe_sparsify`` (deterministic, after the NBR-INFO broadcast)
    ``{"phase", "fragment", "nbr_info", "selected"}``
``coloring`` (deterministic, after the 5-coloring subroutine)
    ``{"phase", "fragment", "color", "nbr_colors", "nbr_fragments"}``
``mis_decided`` (Sleeping-MIS, once per node at its in/out decision;
deliberately phase-free so the group completes when all ``n`` decide)
    ``{"in_mis", "decided_phase", "degree"}``
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.coloring import PALETTE
from repro.core.ldt import LDTState, check_fldt
from repro.core.moe import DIR_IN, DIR_OUT, MAX_VALID_INCOMING
from repro.core.mst_randomized import HEADS, TAILS

from .report import Violation, snapshot_states

#: Awake-round budgets per Transmission-Schedule block span (Theorem 1 /
#: Lemma 7: every block costs O(1) awake rounds per node).  The constants
#: are the *structural* worst cases of the toolbox procedures — e.g. an
#: up-cast wakes a node at most twice (receive from children, send to
#: parent) — with the composite spans (``block:select_moes`` spans two
#: blocks, ``block:coloring`` spans the whole 5N- or log*-stage coloring
#: schedule) getting correspondingly larger constants.  Empirical maxima
#: across the test grids sit well below these (see tests/invariants).
BLOCK_AWAKE_BUDGETS: Dict[str, int] = {
    "block:neighbor_refresh": 2,
    "block:upcast_moe": 2,
    "block:broadcast_coin": 2,
    "block:broadcast_moe": 2,
    "block:transmit_adjacent": 2,
    "block:announce_moe": 2,
    "block:upcast_valid": 2,
    "block:broadcast_valid": 2,
    "block:select_moes": 4,
    "block:moe_verdicts": 2,
    "block:upcast_nbr_info": 2,
    "block:broadcast_nbr_info": 2,
    "block:refresh_after_merge": 2,
    "block:merge_announce": 2,
    "block:merge_up": 2,
    "block:merge_down": 2,
    # Composite coloring span: Fast-Awake-Coloring runs 5 stages x (up to
    # 9 awake rounds: sA 2 + sB 2 + neighbor_awareness 5); the log-star
    # variant's Cole-Vishkin iterations + interlude + relabel stages stay
    # under the same roof for any feasible N.
    "block:coloring": 96,
    # Sleeping-MIS: each phase is one contend + one announce block, a
    # single transmit_adjacent awake round apiece.
    "block:mis_contend": 2,
    "block:mis_announce": 2,
}

#: Budget for block spans not named above (single toolbox procedures).
DEFAULT_BLOCK_AWAKE_BUDGET = 4


def _disagreement(
    name: str,
    lemma: str,
    point: str,
    phase: Optional[int],
    fragment: int,
    key: str,
    members: Dict[int, Any],
) -> Violation:
    values = {node: state.get(key) for node, state in members.items()}
    return Violation(
        invariant=name,
        lemma=lemma,
        message=(
            f"members of fragment {fragment} disagree on {key!r} at "
            f"{point}: {sorted(set(map(repr, values.values())))}"
        ),
        phase=phase,
        snapshot=snapshot_states(members),
    )


def group_by_fragment(
    snapshots: Dict[int, Dict[str, Any]]
) -> Dict[int, Dict[int, Dict[str, Any]]]:
    """Group a probe group's per-node snapshots by claimed fragment ID."""
    fragments: Dict[int, Dict[int, Dict[str, Any]]] = {}
    for node, state in snapshots.items():
        fragments.setdefault(state["fragment"], {})[node] = state
    return fragments


# ----------------------------------------------------------------------
# fldt-wellformed (Section 2.1)
# ----------------------------------------------------------------------

def check_fldt_wellformed(
    graph: Any, phase: Optional[int], snapshots: Dict[int, Dict[str, Any]]
) -> List[Violation]:
    """The per-node states form a valid FLDT (unique roots, symmetric
    parent/child pointers, exact levels, connected fragments)."""
    states = {
        node: LDTState(
            node_id=node,
            fragment_id=state["fragment"],
            level=state["level"],
            parent_port=state["parent_port"],
            children_ports=set(state["children_ports"]),
        )
        for node, state in snapshots.items()
    }
    try:
        check_fldt(graph, states)
    except AssertionError as error:
        return [
            Violation(
                invariant="fldt-wellformed",
                lemma="Section 2.1 (FLDT structure)",
                message=str(error),
                phase=phase,
                snapshot=snapshot_states(snapshots),
            )
        ]
    return []


# ----------------------------------------------------------------------
# mst-subforest (cut property; Lemma 2 context)
# ----------------------------------------------------------------------

def check_mst_subforest(
    reference_weights: Iterable[int],
    phase: Optional[int],
    snapshots: Dict[int, Dict[str, Any]],
) -> List[Violation]:
    """Every tree edge held at a phase boundary belongs to the real MST.

    This is the invariant whose breach *is* silent corruption: a faulted
    run that keeps passing it cannot terminate with a wrong tree.
    """
    reference = set(reference_weights)
    violations: List[Violation] = []
    for node in sorted(snapshots):
        state = snapshots[node]
        foreign = sorted(set(state["tree_weights"]) - reference)
        if foreign:
            violations.append(
                Violation(
                    invariant="mst-subforest",
                    lemma="Lemma 2 (merges along MOEs keep a subforest of the MST)",
                    message=(
                        f"node {node} holds tree edge weights {foreign[:10]} "
                        f"that are not in the MST"
                    ),
                    phase=phase,
                    node=node,
                    snapshot=snapshot_states(snapshots, nodes=(node,)),
                )
            )
    return violations


# ----------------------------------------------------------------------
# star-merge (Section 2.2, the coin-flip validity restriction)
# ----------------------------------------------------------------------

def check_star_merge(
    phase: Optional[int], snapshots: Dict[int, Dict[str, Any]]
) -> List[Violation]:
    """Merge components are stars: tails fragments around one heads fragment.

    Per fragment: members agree on (coin, moe, merging); at most one
    member owns the fragment MOE (weights are distinct) and a positive MOE
    has exactly one owner; a merging fragment flipped tails, its owner saw
    a valid MOE, and its target fragment flipped heads and is itself not
    merging; heads fragments never merge.
    """
    name, lemma = "star-merge", "Section 2.2 (tails->heads merge stars)"
    violations: List[Violation] = []
    fragments = group_by_fragment(snapshots)
    for fragment in sorted(fragments):
        members = fragments[fragment]
        for key in ("coin", "moe", "merging"):
            if len({repr(state.get(key)) for state in members.values()}) > 1:
                violations.append(
                    _disagreement(
                        name, lemma, "merge_decision", phase, fragment, key, members
                    )
                )
        sample = next(iter(members.values()))
        owners = sorted(
            node for node, state in members.items() if state.get("owner")
        )
        if len(owners) > 1:
            violations.append(
                Violation(
                    invariant=name,
                    lemma=lemma,
                    message=(
                        f"fragment {fragment} has {len(owners)} MOE owners "
                        f"{owners[:10]} (weights are distinct: at most one)"
                    ),
                    phase=phase,
                    snapshot=snapshot_states(members, nodes=tuple(owners)),
                )
            )
        if sample.get("moe") and not owners:
            violations.append(
                Violation(
                    invariant=name,
                    lemma=lemma,
                    message=(
                        f"fragment {fragment} announced MOE weight "
                        f"{sample['moe']} but no member owns that edge"
                    ),
                    phase=phase,
                    snapshot=snapshot_states(members),
                )
            )
        if not sample.get("merging"):
            continue
        # The fragment claims it merges this phase.
        if sample.get("coin") != TAILS:
            violations.append(
                Violation(
                    invariant=name,
                    lemma=lemma,
                    message=(
                        f"fragment {fragment} merges but flipped "
                        f"{sample.get('coin')!r} (only tails fragments merge)"
                    ),
                    phase=phase,
                    snapshot=snapshot_states(members),
                )
            )
        owner_states = [members[node] for node in owners]
        if owner_states and owner_states[0].get("valid") != 1:
            violations.append(
                Violation(
                    invariant=name,
                    lemma=lemma,
                    message=(
                        f"fragment {fragment} merges but its MOE owner "
                        f"saw valid={owner_states[0].get('valid')!r}"
                    ),
                    phase=phase,
                    node=owners[0],
                    snapshot=snapshot_states(members, nodes=tuple(owners)),
                )
            )
        target = owner_states[0].get("target") if owner_states else None
        if target is not None:
            target_members = fragments.get(target)
            if target_members is None:
                violations.append(
                    Violation(
                        invariant=name,
                        lemma=lemma,
                        message=(
                            f"fragment {fragment} merges into fragment "
                            f"{target}, which no node claims to be in"
                        ),
                        phase=phase,
                        snapshot=snapshot_states(members),
                    )
                )
            else:
                target_sample = next(iter(target_members.values()))
                if target_sample.get("coin") != HEADS:
                    violations.append(
                        Violation(
                            invariant=name,
                            lemma=lemma,
                            message=(
                                f"fragment {fragment} merges into fragment "
                                f"{target}, which flipped "
                                f"{target_sample.get('coin')!r} (must be heads)"
                            ),
                            phase=phase,
                            snapshot=snapshot_states(
                                {**members, **target_members}
                            ),
                        )
                    )
                if target_sample.get("merging"):
                    violations.append(
                        Violation(
                            invariant=name,
                            lemma=lemma,
                            message=(
                                f"merge target fragment {target} is itself "
                                f"merging: the component is not a star"
                            ),
                            phase=phase,
                            snapshot=snapshot_states(target_members),
                        )
                    )
    return violations


# ----------------------------------------------------------------------
# moe-sparsification (Section 2.3, step (i): token selection)
# ----------------------------------------------------------------------

def check_moe_sparsification(
    phase: Optional[int], snapshots: Dict[int, Dict[str, Any]]
) -> List[Violation]:
    """NBR-INFO keeps <=3 valid incoming MOEs (and <=1 outgoing, <=4 total),
    members agree on it, selections match it, and it is symmetric across
    fragments (A keeps an outgoing edge to B iff B selected it)."""
    name = "moe-sparsification"
    lemma = "Section 2.3 step (i) (<=3 valid incoming MOEs; supergraph degree <=4)"
    violations: List[Violation] = []
    fragments = group_by_fragment(snapshots)
    info_of: Dict[int, Tuple[Tuple[int, int, int], ...]] = {}
    for fragment in sorted(fragments):
        members = fragments[fragment]
        if len({repr(state.get("nbr_info")) for state in members.values()}) > 1:
            violations.append(
                _disagreement(
                    name, lemma, "moe_sparsify", phase, fragment, "nbr_info", members
                )
            )
            continue
        info = tuple(next(iter(members.values())).get("nbr_info") or ())
        info_of[fragment] = info
        incoming = [entry for entry in info if entry[2] == DIR_IN]
        outgoing = [entry for entry in info if entry[2] == DIR_OUT]
        if len(incoming) > MAX_VALID_INCOMING:
            violations.append(
                Violation(
                    invariant=name,
                    lemma=lemma,
                    message=(
                        f"fragment {fragment} kept {len(incoming)} incoming "
                        f"MOEs (limit {MAX_VALID_INCOMING}): {incoming}"
                    ),
                    phase=phase,
                    snapshot=snapshot_states(members),
                )
            )
        if len(outgoing) > 1:
            violations.append(
                Violation(
                    invariant=name,
                    lemma=lemma,
                    message=(
                        f"fragment {fragment} kept {len(outgoing)} outgoing "
                        f"MOEs (a fragment has one MOE): {outgoing}"
                    ),
                    phase=phase,
                    snapshot=snapshot_states(members),
                )
            )
        selected_pairs = sorted(
            pair for state in members.values() for pair in state.get("selected", ())
        )
        incoming_pairs = sorted((entry[0], entry[1]) for entry in incoming)
        if selected_pairs != incoming_pairs:
            violations.append(
                Violation(
                    invariant=name,
                    lemma=lemma,
                    message=(
                        f"fragment {fragment}: selected incoming MOEs "
                        f"{selected_pairs} do not match NBR-INFO incoming "
                        f"entries {incoming_pairs}"
                    ),
                    phase=phase,
                    snapshot=snapshot_states(members),
                )
            )
    for fragment in sorted(info_of):
        for nbr_fragment, weight, direction in info_of[fragment]:
            if direction != DIR_OUT:
                continue
            mirrored = info_of.get(nbr_fragment, ())
            if (fragment, weight, DIR_IN) not in mirrored:
                violations.append(
                    Violation(
                        invariant=name,
                        lemma=lemma,
                        message=(
                            f"fragment {fragment} kept outgoing MOE "
                            f"(weight {weight}) to fragment {nbr_fragment}, "
                            f"but the target did not select it"
                        ),
                        phase=phase,
                        snapshot=snapshot_states(fragments.get(nbr_fragment, {})),
                    )
                )
    return violations


# ----------------------------------------------------------------------
# coloring-legal (Section 2.3, Lemma 4)
# ----------------------------------------------------------------------

def check_coloring_legal(
    phase: Optional[int], snapshots: Dict[int, Dict[str, Any]]
) -> List[Violation]:
    """The fragment supergraph G' is legally 5-colored: every color is in
    the palette, fragment members agree, G'-adjacent fragments differ, and
    each fragment's view of its neighbours' colors matches their own."""
    name, lemma = "coloring-legal", "Lemma 4 (legal 5-coloring of G')"
    violations: List[Violation] = []
    fragments = group_by_fragment(snapshots)
    color_of: Dict[int, int] = {}
    for fragment in sorted(fragments):
        members = fragments[fragment]
        if len({state.get("color") for state in members.values()}) > 1:
            violations.append(
                _disagreement(
                    name, lemma, "coloring", phase, fragment, "color", members
                )
            )
            continue
        color = next(iter(members.values())).get("color")
        color_of[fragment] = color
        if color not in PALETTE:
            violations.append(
                Violation(
                    invariant=name,
                    lemma=lemma,
                    message=(
                        f"fragment {fragment} holds color {color!r}, outside "
                        f"the 5-color palette {tuple(PALETTE)}"
                    ),
                    phase=phase,
                    snapshot=snapshot_states(members),
                )
            )
    for fragment in sorted(fragments):
        members = fragments[fragment]
        sample = next(iter(members.values()))
        own_color = color_of.get(fragment)
        for nbr_fragment, claimed in sample.get("nbr_colors", ()):
            actual = color_of.get(nbr_fragment)
            if actual is not None and claimed != actual:
                violations.append(
                    Violation(
                        invariant=name,
                        lemma=lemma,
                        message=(
                            f"fragment {fragment} believes neighbour "
                            f"{nbr_fragment} has color {claimed}, but it "
                            f"has color {actual}"
                        ),
                        phase=phase,
                        snapshot=snapshot_states(members),
                    )
                )
            if claimed == own_color:
                violations.append(
                    Violation(
                        invariant=name,
                        lemma=lemma,
                        message=(
                            f"G' edge between fragments {fragment} and "
                            f"{nbr_fragment} is monochromatic (color "
                            f"{own_color})"
                        ),
                        phase=phase,
                        snapshot=snapshot_states(members),
                    )
                )
    return violations


# ----------------------------------------------------------------------
# block-awake-budget (Theorem 1 / Lemma 7: O(1) awake per block)
# ----------------------------------------------------------------------

def check_block_awake(
    record: Any, budgets: Optional[Dict[str, int]] = None
) -> List[Violation]:
    """One closed block span stays within its awake-round budget.

    ``record`` is a :class:`repro.obs.SpanRecord`; non-block spans are
    ignored.
    """
    path = record.path
    if not path:
        return []
    block = path[-1]
    if not block.startswith("block:"):
        return []
    table = budgets if budgets is not None else BLOCK_AWAKE_BUDGETS
    budget = table.get(block, DEFAULT_BLOCK_AWAKE_BUDGET)
    if record.awake <= budget:
        return []
    phase: Optional[int] = None
    for part in reversed(path[:-1]):
        if part.startswith("phase:"):
            phase = int(part.split(":", 1)[1])
            break
    return [
        Violation(
            invariant="block-awake-budget",
            lemma="Theorem 1 / Lemma 7 (O(1) awake rounds per block)",
            message=(
                f"node {record.node} spent {record.awake} awake rounds in "
                f"{block} (budget {budget})"
            ),
            phase=phase,
            block=block,
            node=record.node,
            snapshot={record.node: record.to_dict()},
        )
    ]


# ----------------------------------------------------------------------
# congest-bit-budget (Section 1.1, CONGEST model)
# ----------------------------------------------------------------------

def check_congest_budget(metrics: Any, budget: int) -> List[Violation]:
    """No message ever exceeded the O(log n)-bit CONGEST budget."""
    violations: List[Violation] = []
    if metrics.congest_violations:
        violations.append(
            Violation(
                invariant="congest-bit-budget",
                lemma="Section 1.1 (CONGEST: O(log n)-bit messages)",
                message=(
                    f"{metrics.congest_violations} message(s) exceeded the "
                    f"CONGEST budget of {budget} bits"
                ),
            )
        )
    elif metrics.max_message_bits > budget:
        violations.append(
            Violation(
                invariant="congest-bit-budget",
                lemma="Section 1.1 (CONGEST: O(log n)-bit messages)",
                message=(
                    f"largest message was {metrics.max_message_bits} bits, "
                    f"over the budget of {budget} bits"
                ),
            )
        )
    return violations


# ----------------------------------------------------------------------
# mis-independence / mis-no-uncovered-node (arXiv 2204.08359)
# ----------------------------------------------------------------------

def check_mis_independence(
    graph: Any, phase: Optional[int], snapshots: Dict[int, Dict[str, Any]]
) -> List[Violation]:
    """No two adjacent nodes both decided *in* (independence).

    Reads the graph's edge columns, in the order ``edges()`` lists them,
    so a monitored cell builds no ``Edge`` objects.
    """
    if graph is None:
        return []
    in_mis = {
        node for node, state in snapshots.items() if state.get("in_mis")
    }
    violations: List[Violation] = []
    columns = graph.edge_columns
    for u, v in zip(columns.u, columns.v):
        if u in in_mis and v in in_mis:
            violations.append(
                Violation(
                    invariant="mis-independence",
                    lemma="MIS independence (arXiv 2204.08359, Lemma 1)",
                    message=(
                        f"adjacent nodes {u} and {v} both "
                        f"decided to join the MIS"
                    ),
                    phase=phase,
                    snapshot=snapshot_states(
                        {node: snapshots[node] for node in (u, v)}
                    ),
                )
            )
    return violations


def check_mis_maximality(
    graph: Any, phase: Optional[int], snapshots: Dict[int, Dict[str, Any]]
) -> List[Violation]:
    """Every *out* node has an *in* neighbour (no uncovered node)."""
    if graph is None or not hasattr(graph, "neighbors"):
        return []
    in_mis = {
        node for node, state in snapshots.items() if state.get("in_mis")
    }
    violations: List[Violation] = []
    for node, state in sorted(snapshots.items()):
        if state.get("in_mis"):
            continue
        if not any(nbr in in_mis for nbr in graph.neighbors(node)):
            violations.append(
                Violation(
                    invariant="mis-no-uncovered-node",
                    lemma="MIS maximality (arXiv 2204.08359, Lemma 2)",
                    message=(
                        f"node {node} decided out of the MIS but none of "
                        f"its neighbours joined"
                    ),
                    phase=phase,
                    node=node,
                    snapshot=snapshot_states({node: state}),
                )
            )
    return violations
