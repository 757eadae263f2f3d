import gc
import random

import pytest

from conftest import random_realizable_spec, recover_terms
from recur import archgraph
from recur.archgraph import (
    BLOCK,
    IDENTITY,
    INPUT,
    JUNCTION,
    MAPPED,
    OUTPUT,
    TAP,
    ArchGraph,
    Edge,
    Node,
    build_graph,
    count_paths,
    direct_propagation_check,
    export,
    structural_equal,
)
from recur.builtins import BUILTIN_NAMES, builtin_spec
from recur.errors import SizeError, UnrealizableError
from recur.expansion import derivative, value_equivalence_report
from recur.parser import parse

RESNET = builtin_spec("resnet")
CHAIN = builtin_spec("chain")
NEWARCH = builtin_spec("newarch")
EQ22 = builtin_spec("eq22")


def _kinds(g):
    out = {}
    for n in g.nodes:
        out[n.kind] = out.get(n.kind, 0) + 1
    return out


def _by_source(pairs):
    """Aggregate (source, polynomial) pairs; a source may appear twice."""
    acc = {}
    for source, poly in pairs:
        acc[source] = acc.get(source, poly.zero()) + poly
    return {s: p for s, p in acc.items() if not p.is_zero()}


def test_resnet_depth_two_shape():
    g = build_graph(RESNET, 2)
    kinds = _kinds(g)
    assert kinds[BLOCK] == 2
    assert kinds[JUNCTION] == 2
    nodes = {n.id: n for n in g.nodes}
    shortcuts = [
        e
        for e in g.edges
        if e.label == IDENTITY and nodes[e.dst].kind == JUNCTION
    ]
    assert len(shortcuts) == 2


def test_newarch_junction_inputs():
    g = build_graph(NEWARCH, 3)
    junction3 = g.state_node(3)
    incoming = g.in_edges(junction3)
    nodes = {n.id: n for n in g.nodes}
    by_source_kind = sorted((nodes[e.src].kind, e.sign, e.label) for e in incoming)
    assert by_source_kind == [
        (BLOCK, 1, MAPPED),          # block 3's own path
        (JUNCTION, 1, IDENTITY),     # identity from X[2]
        (TAP, -1, MAPPED),           # minus block 2's pre-junction output
    ]


def test_eq22_identity_edges_only_from_input():
    g = build_graph(EQ22, 3)
    nodes = {n.id: n for n in g.nodes}
    for i in (2, 3):
        junction = g.state_node(i)
        identity_sources = [
            e.src
            for e in g.in_edges(junction)
            if e.label == IDENTITY and nodes[e.src].kind != BLOCK
        ]
        assert identity_sources == ["input"]


def test_propagation_reports():
    assert direct_propagation_check(build_graph(NEWARCH, 5)).all_direct
    assert direct_propagation_check(build_graph(RESNET, 5)).all_direct

    rep = direct_propagation_check(build_graph(EQ22, 5))
    assert not any(e.has_direct_identity for e in rep.entries)
    assert all(e.cross_layer_sources == (0,) for e in rep.entries)

    rep_chain = direct_propagation_check(build_graph(CHAIN, 5))
    assert not any(e.has_direct_identity for e in rep_chain.entries)
    assert all(e.cross_layer_sources == () for e in rep_chain.entries)


def test_taps_have_no_own_parameters():
    g = build_graph(NEWARCH, 4)
    nodes = {n.id: n for n in g.nodes}
    for n in g.nodes:
        if n.kind != TAP:
            continue
        feeds = g.in_edges(n.id)
        assert len(feeds) == 1
        assert nodes[feeds[0].src].kind == BLOCK
        assert nodes[feeds[0].src].block == n.block


def test_blocks_have_single_data_edge():
    for name in ("chain", "resnet", "newarch", "eq22", "appendix-ex1", "appendix-ex2"):
        g = build_graph(builtin_spec(name), 5)
        for n in g.nodes:
            if n.kind == BLOCK:
                assert len(g.in_edges(n.id)) == 1


def relabel_nodes(g: ArchGraph, mapping: dict[str, str]) -> ArchGraph:
    """Copy of g with node ids renamed; structure and labels unchanged."""
    def rename(nid: str) -> str:
        return mapping.get(nid, nid)

    return ArchGraph(
        name=g.name,
        depth=g.depth,
        nodes=tuple(Node(rename(n.id), n.kind, n.block) for n in g.nodes),
        edges=tuple(Edge(rename(e.src), rename(e.dst), e.sign, e.label) for e in g.edges),
        state_ids=tuple((i, rename(nid)) for i, nid in g.state_ids),
    )


def test_structural_equal_invariant_under_relabeling():
    g = build_graph(NEWARCH, 4)
    rng = random.Random(5)
    names = [f"node{k}" for k in range(len(g.nodes))]
    rng.shuffle(names)
    mapping = {n.id: names[k] for k, n in enumerate(g.nodes)}
    assert structural_equal(g, relabel_nodes(g, mapping))


def test_newarch_vs_eq22_not_isomorphic_but_value_equivalent():
    assert value_equivalence_report(NEWARCH, EQ22, 4).passed
    assert not structural_equal(build_graph(NEWARCH, 4), build_graph(EQ22, 4))


def test_resnet_vs_newarch_not_isomorphic():
    ga = build_graph(RESNET, 3)
    gb = build_graph(NEWARCH, 3)
    assert len(ga.edges) != len(gb.edges)  # edge-count oracle
    assert not structural_equal(ga, gb)


def test_isomorphism_has_no_size_cap():
    g = build_graph(NEWARCH, 1000)
    assert len(g.nodes) == 3001
    assert structural_equal(g, _shuffled(g, random.Random(5)))
    assert not structural_equal(g, _with_sign_flipped(g, len(g.edges) // 2))


# W[i-1] meets the absolute W[1] at X[2] and cancels there, so X[2] gets
# fewer edges than the rule's coefficients alone would give; the 50 parallel
# edges make the budget's up-front floor nearly tight.
CANCELLING = parse(
    "X[i] = 50*X[i-1] + (W[i-1] - W[1])*X[i-2]; X[1] = X[0]; X[0] = input",
    name="cancelling",
)


def _budget_cases():
    rng = random.Random(2024)
    specs = [builtin_spec(name) for name in BUILTIN_NAMES] + [CANCELLING]
    specs += [random_realizable_spec(rng) for _ in range(20)]
    return [(spec, L) for spec in specs for L in (1, 2, 3, 4, 7)]


def test_graph_budget_admits_a_graph_of_exactly_its_size(monkeypatch):
    for spec, L in _budget_cases():
        g = build_graph(spec, L)
        items = len(g.nodes) + len(g.edges)
        monkeypatch.setattr(archgraph, "MAX_GRAPH_ITEMS", items)
        assert build_graph(spec, L) == g
        monkeypatch.setattr(archgraph, "MAX_GRAPH_ITEMS", items - 1)
        with pytest.raises(SizeError):
            build_graph(spec, L)
        monkeypatch.undo()


def test_graph_budget_fails_before_materializing():
    huge = parse("X[i] = 1000000000*X[i-1]; X[0] = input", name="huge")
    for L in (1, 2):
        with pytest.raises(SizeError):
            build_graph(huge, L)
    with pytest.raises(SizeError):
        build_graph(builtin_spec("appendix-ex2"), 1_000_000)


def test_unrealizable_degree_two_coefficient():
    spec = parse("X[i] = W[i]*W[i]*X[i-1]; X[0] = input")
    with pytest.raises(UnrealizableError):
        build_graph(spec, 3)
    spec = parse("X[0] = input; X[1] = W[1]*X[0]; X[i] = -2*W[i]*W[i-1]*X[i-1]")
    with pytest.raises(UnrealizableError) as info:
        build_graph(spec, 3)
    assert str(info.value).startswith(
        "coefficient term -2*W[2]*W[1] on X[1] in X[2] has degree 2;"
    )


def test_path_count_matches_unroll_census():
    for L in range(1, 9):
        g = build_graph(RESNET, L)
        assert count_paths(g) == 2**L
        total_terms = len(derivative(RESNET, L, 0))
        assert count_paths(g) == total_terms


def test_recover_terms_round_trip_builtins():
    for name in ("chain", "resnet", "newarch", "eq22", "appendix-ex1", "appendix-ex2"):
        spec = builtin_spec(name)
        recovered = recover_terms(build_graph(spec, 6))
        for i in range(1, 7):
            assert _by_source(recovered[i]) == _by_source(spec.instantiate_terms(i)), (name, i)


def test_recover_terms_round_trip_random():
    rng = random.Random(4242)
    for _ in range(40):
        spec = random_realizable_spec(rng)
        L = rng.randint(max(2, spec.first_rule_index), 7)
        recovered = recover_terms(build_graph(spec, L))
        for i in range(1, L + 1):
            assert _by_source(recovered[i]) == _by_source(spec.instantiate_terms(i))


def test_export_dot_conventions():
    g = build_graph(NEWARCH, 2)
    dot = export(g, "dot")
    assert dot.startswith('digraph "newarch"')
    assert "shape=box" in dot
    assert "shape=circle" in dot
    assert "style=dashed" in dot  # the minus tap edge


def test_export_dot_resnet_depth_one():
    dot = export(build_graph(RESNET, 1), "dot")
    assert dot.count("shape=box") == 1
    assert '"input" -> "junction1";' in dot  # the shortcut


def test_export_json_schema():
    import json

    g = build_graph(NEWARCH, 2)
    payload = json.loads(export(g, "json"))
    assert set(payload) == {"name", "depth", "nodes", "edges"}
    assert all(set(n) == {"id", "kind", "block"} for n in payload["nodes"])
    assert all(set(e) == {"from", "to", "sign", "label"} for e in payload["edges"])
    assert {e["sign"] for e in payload["edges"]} <= {1, -1}


def _json_dumps_export(g: ArchGraph) -> str:
    """The JSON export built the plain way: a dict per node and per edge."""
    import json

    payload = {
        "name": g.name,
        "depth": g.depth,
        "nodes": [{"id": n.id, "kind": n.kind, "block": n.block} for n in g.nodes],
        "edges": [
            {"from": e.src, "to": e.dst, "sign": e.sign, "label": e.label} for e in g.edges
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


# A name with a quote, a backslash and a non-ASCII letter; ids that need
# escapes too; parallel negative edges and a tap.
ESCAPED = ArchGraph(
    name='say "hi" \\ café',
    depth=1,
    nodes=(
        Node("input", INPUT),
        Node('b"1', BLOCK, 1),
        Node("tap\\1", TAP, 1),
        Node("jé1", JUNCTION),
        Node("output", OUTPUT),
    ),
    edges=(
        Edge("input", 'b"1', 1, IDENTITY),
        Edge('b"1', "tap\\1", 1, MAPPED),
        Edge("tap\\1", "jé1", -1, MAPPED),
        Edge("input", "jé1", -1, IDENTITY),
        Edge("input", "jé1", -1, IDENTITY),
        Edge("jé1", "output", 1, IDENTITY),
    ),
    state_ids=((0, "input"), (1, "jé1")),
)


EXPORTED = {
    **{
        f"{name} L={L}": build_graph(builtin_spec(name), L)
        for name in BUILTIN_NAMES
        for L in (1, 2, 7)
    },
    "escaped": ESCAPED,
}


@pytest.mark.parametrize("g", EXPORTED.values(), ids=EXPORTED)
def test_export_json_equals_json_dumps(g):
    assert export(g, "json") == _json_dumps_export(g)


def test_export_deterministic():
    a = export(build_graph(NEWARCH, 4), "dot")
    b = export(build_graph(builtin_spec("newarch"), 4), "dot")
    assert a == b
    ja = export(build_graph(EQ22, 5), "json")
    jb = export(build_graph(builtin_spec("eq22"), 5), "json")
    assert ja == jb


def test_parallel_identity_edges_for_integer_coefficients():
    spec = parse("X[i] = 2*X[i-1] + W[i]*X[i-1]; X[0] = input")
    g = build_graph(spec, 2)
    junction2 = g.state_node(2)
    identities = [
        e for e in g.in_edges(junction2) if e.label == IDENTITY
    ]
    assert len(identities) == 2
    recovered = recover_terms(g)
    assert _by_source(recovered[2]) == _by_source(spec.instantiate_terms(2))


def _tiny(nodes, edges):
    return ArchGraph(
        name="tiny",
        depth=1,
        nodes=tuple(nodes),
        edges=tuple(Edge(s, d, 1, IDENTITY) for s, d in edges),
        state_ids=((0, "input"),),
    )


IN, OUT = Node("input", INPUT), Node("output", OUTPUT)
I2, O2 = Node("input2", INPUT), Node("output2", OUTPUT)
J1, J2 = Node("j1", JUNCTION), Node("j2", JUNCTION)
WIRED = [("input", "j1"), ("j1", "output")]


@pytest.mark.parametrize(
    "nodes, edges, message",
    [
        ([IN, J1, J2, OUT], [*WIRED, ("j1", "j2"), ("j2", "j1")], "cycle"),
        ([IN, J1, J1, OUT], WIRED, "duplicate"),
        ([IN, J1, OUT], [*WIRED, ("j1", "nowhere")], "unknown"),
        ([IN, J1, OUT], [*WIRED, ("ghost", "j1")], "unknown"),
        ([J1, OUT], [("j1", "output")], "one input"),
        ([IN, I2, J1, OUT], [*WIRED, ("input2", "j1")], "one input"),
        ([IN, J1], [("input", "j1")], "one output"),
        ([IN, J1, OUT, O2], [*WIRED, ("j1", "output2")], "one output"),
    ],
)
def test_constructor_rejects_malformed_graphs(nodes, edges, message):
    with pytest.raises(ValueError) as err:
        _tiny(nodes, edges)
    assert str(err.value) == CONSTRUCTOR_ERRORS[message].format(*edges[-1])


# Each constructor check's whole text, by the word its cases above are named
# with; an unknown endpoint is named by the last edge of its case.
CONSTRUCTOR_ERRORS = {
    "cycle": "graph contains a cycle",
    "duplicate": "duplicate node ids",
    "unknown": "edge {}->{} references unknown nodes",
    "one input": "graph must have exactly one input node",
    "one output": "graph must have exactly one output node",
}


def test_node_lookup_and_edge_order():
    g = build_graph(NEWARCH, 6)
    for i, node_id in g.state_ids:
        assert g.state_node(i) == node_id and g.node_state(node_id) == i
    assert g.node_state("output") is None
    with pytest.raises(KeyError):
        g.state_node(7)
    for n in g.nodes:
        assert g.in_edges(n.id) == [e for e in g.edges if e.dst == n.id]
    # Edges from a shuffled edge tuple come back in that tuple's order.
    edges = list(g.edges)
    random.Random(3).shuffle(edges)
    shuffled = ArchGraph(g.name, g.depth, g.nodes, tuple(edges), g.state_ids)
    for n in g.nodes:
        assert shuffled.in_edges(n.id) == [e for e in edges if e.dst == n.id]
    # Callers get their own lists.
    g.in_edges("output").clear()
    assert len(g.in_edges("output")) == 1


# ---------------------------------------------------------------------------
# structural_equal against networkx VF2 (Cordella et al. 2004)
# ---------------------------------------------------------------------------


def _nx_isomorphic(ga: ArchGraph, gb: ArchGraph) -> bool:
    """DiGraphMatcher verdict; parallel edges become one edge labelled with
    the sorted multiset of their (sign, label)."""
    nx = pytest.importorskip("networkx")

    def digraph(g):
        out = nx.DiGraph()
        for n in g.nodes:
            out.add_node(n.id, label=(n.kind, n.block))
        parallel = {}
        for e in g.edges:
            parallel.setdefault((e.src, e.dst), []).append((e.sign, e.label))
        for (src, dst), labels in parallel.items():
            out.add_edge(src, dst, labels=sorted(labels))
        return out

    return nx.algorithms.isomorphism.DiGraphMatcher(
        digraph(ga),
        digraph(gb),
        node_match=lambda x, y: x["label"] == y["label"],
        edge_match=lambda x, y: x["labels"] == y["labels"],
    ).is_isomorphic()


def _shuffled(g: ArchGraph, rng: random.Random) -> ArchGraph:
    """Isomorphic copy with new node ids and shuffled node and edge order."""
    names = [f"v{k}" for k in range(len(g.nodes))]
    rng.shuffle(names)
    ids = {n.id: names[k] for k, n in enumerate(g.nodes)}
    nodes = [Node(ids[n.id], n.kind, n.block) for n in g.nodes]
    edges = [Edge(ids[e.src], ids[e.dst], e.sign, e.label) for e in g.edges]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    state_ids = tuple((i, ids[nid]) for i, nid in g.state_ids)
    return ArchGraph(g.name, g.depth, tuple(nodes), tuple(edges), state_ids)


def _with_sign_flipped(g: ArchGraph, k: int) -> ArchGraph:
    edges = list(g.edges)
    e = edges[k]
    edges[k] = Edge(e.src, e.dst, -e.sign, e.label)
    return ArchGraph(g.name, g.depth, g.nodes, tuple(edges), g.state_ids)


def _dag(labels, edges) -> ArchGraph:
    """input, the inner nodes labelled (kind, block), then output; edges are
    (i, j, sign, label) between positions, input 0 and output len(labels)+1."""
    nodes = [Node("input", INPUT)]
    nodes += [Node(f"n{k}", kind, block) for k, (kind, block) in enumerate(labels, 1)]
    nodes.append(Node("output", OUTPUT))
    return ArchGraph(
        name="dag",
        depth=1,
        nodes=tuple(nodes),
        edges=tuple(Edge(nodes[i].id, nodes[j].id, s, lab) for i, j, s, lab in edges),
        state_ids=((0, "input"),),
    )


def _bipartite(pairs, n: int = 4) -> ArchGraph:
    """input -> a1..an -> b1..bn -> output, all unlabelled junctions, with
    the a->b edges given as (a, b) in 1..n."""
    edges = [(0, a, 1, IDENTITY) for a in range(1, n + 1)]
    edges += [(a, n + b, 1, MAPPED) for a, b in pairs]
    edges += [(n + b, 2 * n + 1, 1, IDENTITY) for b in range(1, n + 1)]
    return _dag([(JUNCTION, None)] * (2 * n), edges)


# One 8-cycle against two 4-cycles: every a and every b has the same
# neighbourhood counts, so refinement alone leaves them in one colour each.
CYCLE = [(a, b) for a in range(1, 5) for b in (a, a % 4 + 1)]
SQUARES = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (3, 4), (4, 3), (4, 4)]
EIGHT_CYCLE = _bipartite(CYCLE)
TWO_SQUARES = _bipartite(SQUARES)
# Both side by side: one colour still holds the a's of the cycle and of the
# squares, which no automorphism exchanges, so the search must try more
# than one candidate.
BOTH = _bipartite(CYCLE + [(a + 4, b + 4) for a, b in SQUARES], n=8)
# Every label distinct, so the colouring is discrete before any refinement.
LABELLED = _dag(
    [(BLOCK, 1), (TAP, 1)],
    [(0, 1, 1, IDENTITY), (1, 2, 1, MAPPED), (1, 3, 1, MAPPED), (2, 3, -1, MAPPED)],
)


@pytest.mark.parametrize(
    "ga, gb, expected",
    [
        (EIGHT_CYCLE, _shuffled(EIGHT_CYCLE, random.Random(8)), True),
        (TWO_SQUARES, _shuffled(TWO_SQUARES, random.Random(4)), True),
        (EIGHT_CYCLE, TWO_SQUARES, False),
        *[(BOTH, _shuffled(BOTH, random.Random(seed)), True) for seed in range(4)],
        (LABELLED, _shuffled(LABELLED, random.Random(1)), True),
        (LABELLED, _with_sign_flipped(LABELLED, 3), False),
        (LABELLED, _with_sign_flipped(LABELLED, 0), False),
    ],
)
def test_structural_equal_hand_built(ga, gb, expected):
    assert structural_equal(ga, gb) is expected
    assert structural_equal(gb, ga) is expected
    assert _nx_isomorphic(ga, gb) is expected


# Depths that give 200 nodes, or 199 for the formulas with taps.
AT_THE_CAP = [
    ("chain", 99),
    ("resnet", 99),
    ("eq22", 99),
    ("newarch", 66),
    ("appendix-ex2", 66),
]


@pytest.mark.parametrize("name, L", AT_THE_CAP)
def test_structural_equal_builtins_at_the_cap(name, L):
    g = build_graph(builtin_spec(name), L)
    assert len(g.nodes) <= 200
    rng = random.Random(name)
    assert structural_equal(g, _shuffled(g, rng))
    flipped = _with_sign_flipped(g, rng.randrange(len(g.edges)))
    assert not structural_equal(g, _shuffled(flipped, rng))


def test_structural_equal_matches_networkx_on_drawn_dags():
    hypothesis = pytest.importorskip("hypothesis")
    pytest.importorskip("networkx")
    st = hypothesis.strategies
    # Unlabelled junctions are common and twins copy a node's whole wiring,
    # so many colourings stay coarse and the search has to individualize.
    label = st.one_of(
        st.just((JUNCTION, None)),
        st.tuples(st.sampled_from([BLOCK, TAP]), st.integers(1, 2)),
    )
    # Signs and labels past the ones build_graph makes: edge kinds are coded
    # from the graphs at hand, not from a fixed table.
    edge_type = st.tuples(
        st.sampled_from([1, -1, 2, -2]), st.sampled_from([IDENTITY, MAPPED, "gated"])
    )

    @st.composite
    def dags(draw):
        labels = draw(st.lists(label, min_size=1, max_size=6))
        last = len(labels) + 1
        position = st.integers(0, last)
        pairs = draw(st.lists(st.tuples(position, position), max_size=14))
        edges = [(min(p), max(p), *draw(edge_type)) for p in pairs if p[0] != p[1]]
        for k in draw(st.lists(st.integers(1, len(labels)), max_size=3)):
            # The twin of inner node k sits just before the output.
            labels.append(labels[k - 1])
            twin = len(labels)
            edges = [(i, j + 1 if j == twin else j, s, lab) for i, j, s, lab in edges]
            edges += [(i, twin, s, lab) for i, j, s, lab in edges if j == k]
            edges += [(twin, j, s, lab) for i, j, s, lab in edges if i == k]
        return _dag(labels, edges)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(dags(), dags(), st.integers(0, 2**32), st.data())
    def check(g, other, seed, data):
        rng = random.Random(seed)
        copy = _shuffled(g, rng)
        assert structural_equal(g, copy)
        assert _nx_isomorphic(g, copy)
        pairs = [(g, other)]
        if g.edges:
            k = data.draw(st.integers(0, len(g.edges) - 1))
            pairs.append((g, _shuffled(_with_sign_flipped(g, k), rng)))
        for ga, gb in pairs:
            assert structural_equal(ga, gb) == _nx_isomorphic(ga, gb)

    check()


def test_structural_equal_leaves_no_reference_cycles():
    g = build_graph(NEWARCH, 20)
    copy = _shuffled(g, random.Random(20))
    structural_equal(EIGHT_CYCLE, EIGHT_CYCLE)  # warm any lazy state
    gc.collect()
    gc.disable()
    try:
        assert structural_equal(g, copy)
        assert structural_equal(EIGHT_CYCLE, _shuffled(EIGHT_CYCLE, random.Random(2)))
        assert gc.collect() == 0
    finally:
        gc.enable()
