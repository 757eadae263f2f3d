import random

import pytest

from conftest import random_realizable_spec
from recur.archgraph import (
    BLOCK,
    IDENTITY,
    JUNCTION,
    MAPPED,
    TAP,
    ArchGraph,
    Edge,
    Node,
    build_graph,
    count_paths,
    direct_propagation_check,
    export,
    recover_terms,
    structural_equal,
)
from recur.builtins import builtin_spec
from recur.errors import SizeError, UnrealizableError
from recur.expansion import unroll, value_equivalence
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
    shortcuts = [
        e
        for e in g.edges
        if e.label == IDENTITY and g.node(e.dst).kind == JUNCTION
    ]
    assert len(shortcuts) == 2


def test_newarch_junction_inputs():
    g = build_graph(NEWARCH, 3)
    junction3 = g.state_node(3)
    incoming = g.in_edges(junction3)
    by_source_kind = sorted((g.node(e.src).kind, e.sign, e.label) for e in incoming)
    assert by_source_kind == [
        (BLOCK, 1, MAPPED),          # block 3's own path
        (JUNCTION, 1, IDENTITY),     # identity from X[2]
        (TAP, -1, MAPPED),           # minus block 2's pre-junction output
    ]


def test_eq22_identity_edges_only_from_input():
    g = build_graph(EQ22, 3)
    for i in (2, 3):
        junction = g.state_node(i)
        identity_sources = [
            e.src
            for e in g.in_edges(junction)
            if e.label == IDENTITY and g.node(e.src).kind != BLOCK
        ]
        assert identity_sources == ["input"]


def test_propagation_reports():
    assert direct_propagation_check(build_graph(NEWARCH, 5)).all_direct
    assert direct_propagation_check(build_graph(RESNET, 5)).all_direct

    rep = direct_propagation_check(build_graph(EQ22, 5))
    assert not rep.any_direct
    assert all(e.cross_layer_sources == (0,) for e in rep.entries)

    rep_chain = direct_propagation_check(build_graph(CHAIN, 5))
    assert not rep_chain.any_direct
    assert all(e.cross_layer_sources == () for e in rep_chain.entries)


def test_taps_have_no_own_parameters():
    g = build_graph(NEWARCH, 4)
    for n in g.nodes:
        if n.kind != TAP:
            continue
        feeds = g.in_edges(n.id)
        assert len(feeds) == 1
        assert g.node(feeds[0].src).kind == BLOCK
        assert g.node(feeds[0].src).block == n.block


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
    assert value_equivalence(NEWARCH, EQ22, 4)
    assert not structural_equal(build_graph(NEWARCH, 4), build_graph(EQ22, 4))


def test_resnet_vs_newarch_not_isomorphic():
    ga = build_graph(RESNET, 3)
    gb = build_graph(NEWARCH, 3)
    assert len(ga.edges) != len(gb.edges)  # edge-count oracle
    assert not structural_equal(ga, gb)


def test_size_cap():
    g = build_graph(RESNET, 3)
    with pytest.raises(SizeError):
        structural_equal(g, g, size_cap=5)


def test_unrealizable_degree_two_coefficient():
    spec = parse("X[i] = W[i]*W[i]*X[i-1]; X[0] = input")
    with pytest.raises(UnrealizableError):
        build_graph(spec, 3)


def test_path_count_matches_unroll_census():
    for L in range(1, 9):
        g = build_graph(RESNET, L)
        assert count_paths(g) == 2**L
        total_terms = len(unroll(RESNET, L).component(0))
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
