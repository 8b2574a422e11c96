"""``Merging-Fragments`` — re-rooting and absorbing tails fragments.

Implements the three-block procedure of Section 2.2 (illustrated by the
paper's Figures 2–5): a *tails* fragment ``T`` with a merge edge
``(u_T, u_H)`` into a *heads* fragment ``H`` re-roots itself at ``u_T``,
adopts ``H``'s fragment ID, and recomputes every member's level as its
distance from ``H``'s root — all in ``O(1)`` awake rounds per node.

Block 1 — ``Transmit-Adjacent``:
    every node announces ``(fragment ID, level, merging?)``; ``u_T`` marks
    the merge port, so ``u_H`` learns it gains a child, and ``u_T`` learns
    ``H``'s fragment ID and ``u_H``'s level (hence its own new level).

Block 2 — first ``Transmission-Schedule`` instance (up pass in the *old*
    tree): the path from ``u_T`` to ``T``'s old root adopts
    ``NEW-LEVEL-NUM`` / ``NEW-FRAGMENT-ID`` hop by hop, reversing its parent
    pointers.

Block 3 — second instance (down pass in the old tree): all remaining nodes
    adopt the new values from their (unchanged) parents.

The paper's prose for the down pass says a node updates "if its
NEW-LEVEL-NUM is non-empty and it receives a non-empty value"; taken
literally that would re-update path nodes (whose values are already final)
and never update off-path nodes (whose values are empty).  We implement the
evidently intended rule — update exactly the nodes whose value is still
empty — which reproduces Figures 3–5 exactly.

Only nodes of a *merging* fragment take blocks 2–3 (the fragment learned
whether it merges in step (i)); everybody else skips them on its clock and
sleeps through them, keeping the per-phase awake cost at ``O(1)``.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.sim import Awake, NodeContext

from .ldt import LDTState
from .schedule import BlockClock
from .toolbox import transmit_adjacent

#: Number of blocks one Merging-Fragments instance consumes.
MERGE_BLOCKS = 3


def merging_fragments(
    ctx: NodeContext,
    ldt: LDTState,
    clock: BlockClock,
    merge_port: Optional[int] = None,
    fragment_merging: bool = False,
):
    """Run one ``Merging-Fragments`` instance; mutates ``ldt`` in place.

    Parameters
    ----------
    merge_port:
        Set only at ``u_T`` — the port of the merge edge along which this
        node's fragment is absorbed.  Implies ``fragment_merging``.
    fragment_merging:
        True at every node whose fragment merges away this instance (tails
        fragments).  Nodes of surviving fragments leave it False and skip
        the re-orientation blocks entirely.
    """
    if merge_port is not None and not fragment_merging:
        raise ValueError("merge_port given but fragment_merging is False")

    block_ta = clock.take()
    if fragment_merging:
        block_up = clock.take()
        block_down = clock.take()
    else:
        # Surviving fragments sleep through the re-orientation blocks;
        # skipping them keeps every clock aligned.
        clock.skip(2)

    # ------------------------------------------------------------------
    # Block 1: announce (fragment, level, merging?) to all neighbours.
    # ------------------------------------------------------------------
    # One payload object for every staying port and one for merge_port,
    # so the engine sizes each once.
    announcements = dict.fromkeys(ctx.ports, (ldt.fragment_id, ldt.level, 0))
    if merge_port is not None:
        announcements[merge_port] = (ldt.fragment_id, ldt.level, 1)
    with ctx.span("block:merge_announce"):
        inbox = yield from transmit_adjacent(ctx, ldt, block_ta, announcements)

    pending_children: Set[int] = set()
    neighbor_fragment = ldt.neighbor_fragment
    neighbor_level = ldt.neighbor_level
    for port, (fragment, level, merging) in inbox.items():
        neighbor_fragment[port] = fragment
        neighbor_level[port] = level
        if merging:
            pending_children.add(port)

    if merge_port is not None and pending_children:
        # Merge edges always point from a merging fragment into a surviving
        # one, so a node can never simultaneously leave and gain a subtree.
        raise RuntimeError(
            f"node {ctx.node_id} both merges away (port {merge_port}) and "
            f"receives merges on ports {sorted(pending_children)}"
        )

    new_level: Optional[int] = None
    new_fragment: Optional[int] = None
    new_parent_port: Optional[int] = None
    if merge_port is not None:
        if merge_port not in ldt.neighbor_fragment:
            raise RuntimeError(
                f"node {ctx.node_id}: no announcement heard on merge port "
                f"{merge_port}"
            )
        new_fragment = ldt.neighbor_fragment[merge_port]
        new_level = ldt.neighbor_level[merge_port] + 1
        new_parent_port = merge_port

    old_level = ldt.level
    old_parent = ldt.parent_port
    old_children = set(ldt.children_ports)

    if fragment_merging:
        # --------------------------------------------------------------
        # Block 2: up pass — re-level and reverse the u_T -> old-root path.
        # --------------------------------------------------------------
        with ctx.span("block:merge_up"):
            if old_children:
                up_inbox = yield Awake(block_up.up_receive(old_level))
                for port in old_children:
                    if port in up_inbox:
                        received_level, received_fragment = up_inbox[port]
                        if new_level is not None:
                            raise RuntimeError(
                                f"node {ctx.node_id} on two merge paths at once"
                            )
                        new_level = received_level + 1
                        new_fragment = received_fragment
                        new_parent_port = port
            if old_parent is not None:
                sends = {}
                if new_level is not None:
                    sends[old_parent] = (new_level, new_fragment)
                yield Awake(block_up.up_send(old_level), sends)

        # --------------------------------------------------------------
        # Block 3: down pass — all remaining nodes adopt from their parent.
        # --------------------------------------------------------------
        with ctx.span("block:merge_down"):
            if old_parent is not None:
                down_inbox = yield Awake(block_down.down_receive(old_level))
                if new_level is None and old_parent in down_inbox:
                    received_level, received_fragment = down_inbox[old_parent]
                    new_level = received_level + 1
                    new_fragment = received_fragment
                    # Off-path: parent and children pointers are unchanged.
            if old_children:
                sends = {}
                if new_level is not None:
                    sends = dict.fromkeys(old_children, (new_level, new_fragment))
                yield Awake(block_down.down_send(old_level), sends)

        if new_level is None:
            raise RuntimeError(
                f"node {ctx.node_id}: fragment_merging was set but no new "
                "fragment values arrived — the fragment had no merge edge"
            )

    # ------------------------------------------------------------------
    # Commit: apply NEW-FRAGMENT-ID / NEW-LEVEL-NUM and re-orientation,
    # then absorb incoming subtrees announced in block 1.
    # ------------------------------------------------------------------
    if new_level is not None:
        ldt.level = new_level
        ldt.fragment_id = new_fragment
        if new_parent_port is not None:
            if merge_port is not None:
                # u_T: all old tree neighbours become children.
                children = set(old_children)
                if old_parent is not None:
                    children.add(old_parent)
            else:
                # Path node: the path child becomes the parent; the old
                # parent (if any) and remaining children become children.
                children = old_children - {new_parent_port}
                if old_parent is not None:
                    children.add(old_parent)
            ldt.parent_port = new_parent_port
            ldt.children_ports = children
    ldt.children_ports |= pending_children
