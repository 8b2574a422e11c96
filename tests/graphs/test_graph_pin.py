"""Graph construction, pinned byte for byte.

Every registry family is built at two sizes and two seeds, plus one
graph with a sparse ID range.  The SHA-256 of three views of each graph
is pinned:

* ``ports``: the node IDs, ``max_id`` and every node's ``ports_of``
  table in its iteration order;
* ``edges``: ``edges()`` in its order, as ``(weight, u, v)``;
* ``arrays``: the :class:`~repro.sim.array_engine.ArrayGraph` CSR
  arrays ``indptr``, ``src``, ``dst``, ``port``, ``weight`` and ``rev``.

The simulator numbers ports, steps nodes and walks the CSR from exactly
these tables, so any change to how a graph is stored shows here before
it reaches a record.

The hypothesis tests keep the original per-edge ``WeightedGraph``
construction loop and the original per-node ``ArrayGraph`` loop as
references (:func:`reference_build`, :func:`reference_arrays`) and
compare them with the library on random edge lists, rejections
included: the same message for the same first bad edge.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Edge, WeightedGraph
from repro.orchestrator import GRAPH_FAMILIES

ARRAY_FIELDS = ("indptr", "src", "dst", "port", "weight", "rev")

#: (family, n, seed, id_range) -> (ports, edges, arrays) digests.
PINNED: Dict[Tuple[str, int, int, object], Tuple[str, str, str]] = {
    ("complete", 12, 0, None): (
        "37f4efb83b7a211dc5135657773d0a9a082605807e30792c22e9de60a8a51174",
        "b1d2c152d563429ff831a70b20ff1189f606d3eae03e849f1eb0dc316c5d12a4",
        "887e09f562ecced28a4da5190b37a13d4ca9858d0373d3aae06d1c61b277f8df",
    ),
    ("complete", 12, 1, None): (
        "c24dafe9ae3e50c13f81038523ca70b9bc3bc48ca4728392a310b43c482ef1e5",
        "dfee5e14229874d413d7af6b022c68295227e73da74ff50e44aae0e08d2f050e",
        "3ae8c6c8c81274d82323afad6939b5ae799e99e7042b6fd276caae3a0c91ac16",
    ),
    ("complete", 80, 0, None): (
        "1e5575d08412dec28887480c4acded6a12959e68d3a06401ab23bab22e86a647",
        "a01361825d56332e2752b3bb7d3b86f1327110079bc81bca02f402e49e720c77",
        "356d6e60bad632b07ce0f68837c6eb71cae8329e13ccb041702585ee3e88077d",
    ),
    ("complete", 80, 1, None): (
        "ca20e9145d0722b5303defab501fbc3d08fcd43ffa4205a0be15bd13721a90ed",
        "da66b917ba94d27d695defb46c544c3fee522bb5dee3f0b7b457f91586948e77",
        "43134aa9cc72c527e0a6a17addbaeee9ccff1b6d693bd6cc020e3a9c55523402",
    ),
    ("geometric", 12, 0, None): (
        "9eddc89c45de1c1e1df1c374fd93db9799e38ffd0475bc7b7978b24fdd806594",
        "c4c7cd88a6b531cc1e7acc72e04e1c16cbd70c89d721cd1fc30384034ec9e0c4",
        "6d92e2d46a74f0d7fa9ade43fdcc3810bde141dcc0f7fd8d80c99025eda82a5d",
    ),
    ("geometric", 12, 1, None): (
        "8885d65f1270f5d5db7ee94033677e50a55821b6e7e603e4641702a50fca1999",
        "01461ed00cfe8ca6e35d03c870d7cadec97e8eac5c426b04fbd5bcace89fddd0",
        "be1df6badcb386768ee324472606de12fe04977b267c7a5bd6743182711f9037",
    ),
    ("geometric", 80, 0, None): (
        "4bafb6545179fa110936944f102a959a85df0ca82223ea4f993819a3db81e0d4",
        "831b65c2cfaf108798e8ceaf2b70aba3e3882ddd766542f59505639f0edcd923",
        "dbf405c0262c84bbfadc2ec8f5b678fcebd7f0737d7665cadff9845d15f88ca5",
    ),
    ("geometric", 80, 1, None): (
        "31135e91ffdc75f1d8d8252fa6ac2189a8654cb861ae601d010c28bb76a87f32",
        "614d8877e53ced0308207f7a4a48e839cb91d223ce6d9edb930ed6f364d15687",
        "f7a7956fa579deea4bed66d38ffec880542da59978cf3f93db5cc3ed763d6cab",
    ),
    ("gnp", 12, 0, None): (
        "aaaf067b22bbfcbc423d870193aa7945de7b3bf885ef9c3ebf1f28f1f42be638",
        "be9d02b3b408304aa4f05ee51409ab7bd2491733bc49bffbec9eda15b33fd254",
        "097f7c5f02c58b460ddf3a38a88d5a46a6245c0201759129a1ee19a2cbb99d68",
    ),
    ("gnp", 12, 1, None): (
        "1914c7ca6c92b2a72ebab46b7b910f97326b8c516a3481eb59381412cf28bfa6",
        "a3305ed3ae86ac59e3b52ffefeb5c942a3364a4ceda855f833f9e8b04286cad0",
        "ec853dc658992d2c926797c29fd295b4b56fea9b4805e1341f0ecb8db62ba8ac",
    ),
    ("gnp", 80, 0, None): (
        "fda4a1d4847ad99c51b9766afbfbcaa25b647a5cf73f9bf35bb0e243243a25d1",
        "af5ee17d52d6f22165aebe664f6549a7cb0c533a81f499186e5732901b4dd4a9",
        "55b365cc1f34d07d90e8b8052708c319ae14679e12a3eeb9db59f200193ba0bd",
    ),
    ("gnp", 80, 1, None): (
        "9a8395c29132125b856ef9879ead88fe8159caf31c67a0520034a229e0b30fe4",
        "5cf216af7cac22321de33340c591b5f30313bc2c1a32a46950fcbb685d2268fe",
        "9894bcb3edac50b1bfaa496099b5491919de686e57b99cbbd309a21f317f42f1",
    ),
    ("grid", 12, 0, None): (
        "1702cd892ec9250b6daf595ebbe15f48a8c9751f771b355cd66f0961d8f92ed6",
        "761bfc85fe18ccdf4b20a59bb2e7b4a0ff948ba434534e7e6901547a3f65c9cd",
        "d88b7b16ae6217216692a28e95350d15d28821acc8b05a3fbc5e7df713c395cd",
    ),
    ("grid", 12, 1, None): (
        "84098d3132e01196d2b682831751eaa9e3d701efd8a747a68d8a06a6f45ec88a",
        "ae929f8c9705350631cfc9587ad3b73c782170053e2a8c4f1d4f713c06673f69",
        "74a86c7c97fadaed5189eb54894633c669442f87bdd10262413a61ca0fe18269",
    ),
    ("grid", 80, 0, None): (
        "9ca5a6a3cb1631bb5709ea14ab9a834c78d3f2a9416bde3f36be884476fddee8",
        "eea469f7d4ce32459e23021b7e7738665affe64ceb8014c3a26b6d6c119343f4",
        "abafa37fd91b70c7ec27abf0cb20f6f05eaa2b58b4039d78afb004b0e8d79887",
    ),
    ("grid", 80, 1, None): (
        "f3ef71676844f33085ec422c2c921f27b492c6d3f88e2803078213c33a6329a3",
        "cf36f4a4bb7598c470645160638be6cd71741518e6d6ee66f5e0de26ca8a1923",
        "a3b5d0ac63cd808168f17c25355d74e35523446de5d60988ceecdbd12f330856",
    ),
    ("path", 12, 0, None): (
        "dd90ddf019627008e37765666c2b79439d70849a24a9e9b312b4616c35c8be65",
        "ce6eec8d00511ba952765c0be6284efee00e048789192e0f1400d77c2b733405",
        "0f0f4b492bf4ba28480aaa0b3be031db85e7b29e2aa9365ff211e28292328e72",
    ),
    ("path", 12, 1, None): (
        "82bbf0d046a7156b044839f5dc8b172602e565b3cd254ed64af23ef65d9c7871",
        "62753376787dfc19b6ce5240a37622306dbf6857a41f806c37f7c49483ce033a",
        "78f3ac6b1f3aee0ec07d38013e04810602e70d18bc2965e60bf4f95b53fa5898",
    ),
    ("path", 80, 0, None): (
        "a3570768470fb30280da64a490e3598040382abbe822b78e603ee3365933dd4c",
        "3eb52c391ac5c37942658ec03eea47d27ae35f70937201753d81e507d200836e",
        "227132cf5be49772f4bfe71616c600b65b0751517c8ae852b06e8b59e989f024",
    ),
    ("path", 80, 1, None): (
        "69df86e7b87a2d5a974294f62e367acab669c5bcdcfcfa93494e7ef18289ff39",
        "11e3568f8ca52ec9ab695e3a65162f232df4611831a5c10f72f980486c6bd03d",
        "3c48f49e9b59ac04df93ed424ba79e10914aa01a1392a563a40f1af3a63bb1ff",
    ),
    ("ring", 12, 0, None): (
        "c0c24326fa49dd3f1773c92c7ae3008e012f07de8a432c0ede71614a9de4ad26",
        "388d45fadaa2e10a06d7bf99ce05cf6708cbef1217dc53d98e501e4375454da0",
        "82b40ea9b276db31df58949bef5f2789d87bcbc3489c2526c941cffe37ac52f1",
    ),
    ("ring", 12, 1, None): (
        "33b16a7f947c6605d0210a4c406de09063571dffbf7c80c33fd2b1629a4fbb4d",
        "bac0cb8b74d5a1173b79ecb648eb00a3f62fe2a405688f9661d963d0787d2806",
        "32fac02ba063847e51c92cdbfdb27e54b41a3b97246d501ce04c66231bfb2aef",
    ),
    ("ring", 80, 0, None): (
        "70bed42d112da6ab331947662b42cace3464d187cbe43ae7b1ef72908d9b0fbb",
        "3f4f389194f6fc5d9fc2a00d93b7987a9f34c6560e79c019457b485b00a855ea",
        "13c0c0168bed5573e16fab716c13e0affdea89b0543adc7d5afec0d8b52e508d",
    ),
    ("ring", 80, 1, None): (
        "56a63ba8eedaf256cef6546b3bb6d2caa4ef8a706d437b84eb290d39b6ffdd21",
        "a1daeb73dacee18c0e73d2aac93404b710d722f7db3b407737776924902b1091",
        "c08181605764180e5d55cc3edb9a8e346927f05ff1484fd8da1e46eb7136c3e5",
    ),
    ("star", 12, 0, None): (
        "cda50c342d9ef60d4030aa0399566f1f2e2db0198431fc83ff12518db631f8c3",
        "bcb5eaed38173145dd2a60e877c4e2aaaf9ca1569408601b5629d8cc76311457",
        "9d5ed44e66df5eb67ad00b0ecfedfe00aa295e52a53150fe87d7c7da96bd116e",
    ),
    ("star", 12, 1, None): (
        "75a3b57bbe015a4667a3a77926310122fa5c5f4778a7c244dab29890bbfd56f3",
        "7dc569903b6510e5ed8876b1553e57d93c069c126a11dce843a62762f95c627f",
        "5826e41d672b83243eb1483b39505a6d9ba15666ff73a701b758c01c62f62891",
    ),
    ("star", 80, 0, None): (
        "ddcb5c9ec00becb6286f89d1068a8a0086ba6f01e885b17ce2d7052482db453c",
        "92dabf1815c8a0ec0cc61a953ad57fab2858c5969bae56d77774483d95441062",
        "e1dc56c101d9b736f163a1e255eb07db447a5dee963f94746f856885192a6346",
    ),
    ("star", 80, 1, None): (
        "96192d317c78e30166d091630217e289162e422a6b82e7b00dc62499c1a36b1c",
        "7d2a85276f45b2dd28a1b08f292978fc3699d9e4b4a819e7b1979377ef973ba8",
        "e8e129191e1498e23615b9fda8246231ef4cde0319edbc224e80adfb34dc26d6",
    ),
    ("gnp", 32, 3, 200): (
        "ce46a025ddb2b230360db7526a8e42c0accaa2372ea70acace2b1a53f4349b75",
        "5332c936011694df00082f2e31b0c32bd43c726cae73227ea54f60d8e2695a56",
        "d76c7023a0c9bfefa8c75ccd176d80105c49e92373f0f2697225bbd82efcea5c",
    ),
}


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest()


def ports_view(graph) -> dict:
    return {
        "ids": graph.node_ids,
        "max_id": graph.max_id,
        "ports": [
            [node, [[port, *entry] for port, entry in graph.ports_of(node).items()]]
            for node in graph.node_ids
        ],
    }


def edges_view(graph) -> List[List[int]]:
    return [[edge.weight, edge.u, edge.v] for edge in graph.edges()]


def arrays_view(graph) -> Dict[str, List[int]]:
    from repro.sim.array_engine import ArrayGraph

    array_graph = ArrayGraph(graph)
    return {name: getattr(array_graph, name).tolist() for name in ARRAY_FIELDS}


def pinned_graph(config):
    family, n, seed, id_range = config
    return GRAPH_FAMILIES[family](n, seed, id_range)


CONFIGS = sorted(PINNED, key=str)


@pytest.mark.parametrize("config", CONFIGS, ids=str)
def test_ports_and_edges_are_pinned(config):
    graph = pinned_graph(config)
    ports_digest, edges_digest, _ = PINNED[config]
    assert digest(ports_view(graph)) == ports_digest
    assert digest(edges_view(graph)) == edges_digest
    for edge in graph.edges():
        assert graph.edge_by_weight(edge.weight) == edge


@pytest.mark.parametrize("config", CONFIGS, ids=str)
def test_array_graph_is_pinned(config):
    pytest.importorskip("numpy")
    assert digest(arrays_view(pinned_graph(config))) == PINNED[config][2]


def test_every_family_is_pinned():
    assert {config[0] for config in PINNED} == set(GRAPH_FAMILIES)


# ----------------------------------------------------------------------
# References: the original construction loops, kept verbatim in spirit.
# ----------------------------------------------------------------------


def reference_build(node_ids, edges, max_id=None):
    """The original ``WeightedGraph.__init__``: returns
    ``(node_ids, max_id, edges, ports)`` or raises its ``ValueError``."""
    ids = sorted(set(int(x) for x in node_ids))
    if not ids:
        raise ValueError("graph must have at least one node")
    if ids[0] < 1:
        raise ValueError("node IDs must be positive integers")
    id_set = set(ids)
    kept: List[Edge] = []
    seen_pairs: Set[Tuple[int, int]] = set()
    seen_weights: Set[int] = set()
    for u, v, weight in edges:
        edge = Edge.make(int(u), int(v), int(weight))
        if edge.u not in id_set or edge.v not in id_set:
            raise ValueError(f"edge {edge} references unknown node")
        if edge.endpoints in seen_pairs:
            raise ValueError(f"duplicate edge between {edge.u} and {edge.v}")
        if edge.weight in seen_weights:
            raise ValueError(
                f"duplicate edge weight {edge.weight}; the paper assumes "
                "distinct weights (unique MST)"
            )
        if edge.weight < 1:
            raise ValueError("edge weights must be positive integers")
        seen_pairs.add(edge.endpoints)
        seen_weights.add(edge.weight)
        kept.append(edge)
    declared_max = max(ids)
    if max_id is not None and max_id < declared_max:
        raise ValueError(f"max_id={max_id} < largest node ID {declared_max}")
    ports: Dict[int, Dict[int, Tuple[int, int, int]]] = {node: {} for node in ids}
    next_port = {node: 0 for node in ids}
    for edge in kept:
        pu, pv = next_port[edge.u], next_port[edge.v]
        next_port[edge.u] += 1
        next_port[edge.v] += 1
        ports[edge.u][pu] = (edge.v, pv, edge.weight)
        ports[edge.v][pv] = (edge.u, pu, edge.weight)
    return ids, (max_id if max_id is not None else declared_max), kept, ports


def reference_arrays(ids, ports) -> Dict[str, List[int]]:
    """The original ``ArrayGraph.__init__`` loop over sorted port tables."""
    index_of = {node_id: idx for idx, node_id in enumerate(ids)}
    indptr = [0]
    src: List[int] = []
    port: List[int] = []
    dst: List[int] = []
    dst_port: List[int] = []
    weight: List[int] = []
    for idx, node_id in enumerate(ids):
        table = ports[node_id]
        for p in sorted(table):
            nbr, nbr_port, w = table[p]
            src.append(idx)
            port.append(p)
            dst.append(index_of[nbr])
            dst_port.append(nbr_port)
            weight.append(w)
        indptr.append(len(src))
    where = {(s, p): e for e, (s, p) in enumerate(zip(src, port))}
    rev = [where[(d, q)] for d, q in zip(dst, dst_port)]
    return {
        "indptr": indptr,
        "src": src,
        "dst": dst,
        "port": port,
        "weight": weight,
        "rev": rev,
    }


def outcome(build):
    """``("ok", value)`` or ``("error", message)`` of a ``ValueError``."""
    try:
        return "ok", build()
    except ValueError as error:
        return "error", str(error)


@st.composite
def valid_graphs(draw, min_nodes=1, min_edges=0):
    """Node IDs and a valid edge list over them, both orientations."""
    ids = draw(st.sets(st.integers(1, 60), min_size=min_nodes, max_size=14))
    ordered = sorted(ids)
    pairs = [(a, b) for i, a in enumerate(ordered) for b in ordered[i + 1:]]
    chosen = (
        draw(st.lists(st.sampled_from(pairs), min_size=min_edges, unique=True))
        if pairs
        else []
    )
    weights = draw(
        st.lists(
            st.integers(1, 500),
            min_size=len(chosen),
            max_size=len(chosen),
            unique=True,
        )
    )
    edges = []
    for (a, b), weight in zip(chosen, weights):
        flip = draw(st.booleans())
        edges.append((b, a, weight) if flip else (a, b, weight))
    return ordered, edges


BAD_KINDS = ("self-loop", "unknown", "pair", "weight", "nonpositive")


def bad_edge(draw, kind, ids, edges):
    """One edge that ``WeightedGraph`` must reject, of the given kind.

    ``ids`` has at least two nodes and ``edges`` at least one edge.
    """
    node = draw(st.sampled_from(ids))
    fresh_weight = 10_000 + draw(st.integers(0, 999))
    if kind == "self-loop":
        return (node, node, fresh_weight)
    if kind == "unknown":
        outside = draw(st.integers(61, 80))
        if draw(st.booleans()):
            return (outside, node, fresh_weight)
        return (node, outside, fresh_weight)
    taken = {(min(u, v), max(u, v)) for u, v, _ in edges}
    free = [
        (a, b)
        for a in ids
        for b in ids
        if a < b and (a, b) not in taken
    ] or [(node, 61)]
    if kind == "nonpositive":
        a, b = draw(st.sampled_from(free))
        return (a, b, draw(st.integers(-3, 0)))
    u, v, weight = draw(st.sampled_from(edges))
    if kind == "pair":
        return (v, u, fresh_weight)
    a, b = draw(st.sampled_from(free))
    return (a, b, weight)


@st.composite
def edge_lists_with_rejections(draw):
    """A valid graph with one or two bad edges spliced in."""
    ids, edges = draw(valid_graphs(min_nodes=2, min_edges=1))
    edges = list(edges)
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(BAD_KINDS))
        edge = bad_edge(draw, kind, ids, edges)
        edges.insert(draw(st.integers(0, len(edges))), edge)
    return ids, edges


def assert_matches_reference(ids, edges, max_id=None):
    expected = outcome(lambda: reference_build(ids, edges, max_id))
    actual = outcome(lambda: WeightedGraph(ids, edges, max_id=max_id))
    if expected[0] == "error":
        assert actual == expected
        return None
    assert actual[0] == "ok", actual
    ref_ids, ref_max, ref_edges, ref_ports = expected[1]
    graph = actual[1]
    assert graph.node_ids == ref_ids
    assert graph.max_id == ref_max
    assert graph.edges() == ref_edges
    assert [graph.edge_by_weight(e.weight) for e in ref_edges] == ref_edges
    for node in ref_ids:
        assert list(graph.ports_of(node).items()) == list(ref_ports[node].items())
    assert graph.m == len(ref_edges)
    assert graph.max_weight == max((e.weight for e in ref_edges), default=1)
    assert graph.total_weight() == sum(e.weight for e in ref_edges)
    assert graph.edge_weights() == {e.weight for e in ref_edges}
    pairs = {e.endpoints for e in ref_edges}
    for a in ref_ids:
        for b in ref_ids:
            assert graph.has_edge(a, b) == ((min(a, b), max(a, b)) in pairs)
    return ref_ids, ref_ports, graph


@settings(max_examples=150, deadline=None)
@given(valid_graphs(), st.integers(0, 3))
def test_valid_edge_lists_match_reference(case, extra_range):
    ids, edges = case
    max_id = max(ids) + extra_range if extra_range else None
    assert_matches_reference(ids, edges, max_id)


@settings(max_examples=200, deadline=None)
@given(edge_lists_with_rejections())
def test_rejections_match_reference(case):
    ids, edges = case
    assert_matches_reference(ids, edges)


@pytest.mark.parametrize(
    "ids, edges, max_id",
    [
        ([], [], None),
        ([0, 1], [(0, 1, 5)], None),
        ([-2, 3], [], None),
        ([1, 9], [(1, 9, 3)], 5),
        ([1, 2], [(1, 1, 0)], None),
        ([1, 2], [(2, 2, 5), (1, 3, 5)], None),
        ([1, 2, 3], [(1, 3, 5), (3, 1, 5)], None),
    ],
)
def test_node_level_rejections_match_reference(ids, edges, max_id):
    assert_matches_reference(ids, edges, max_id)


@settings(max_examples=150, deadline=None)
@given(valid_graphs())
def test_array_graph_matches_reference_loop(case):
    pytest.importorskip("numpy")
    ids, edges = case
    ref_ids, ref_ports, graph = assert_matches_reference(ids, edges)
    assert arrays_view(graph) == reference_arrays(ref_ids, ref_ports)
