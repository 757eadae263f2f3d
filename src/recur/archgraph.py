"""Compilation of recursion formulas into architecture graphs.

The graph is a labeled DAG with five node kinds:

  input      the free state X[0]
  block      the mapping W[i]; exactly one incoming data edge
  junction   the signed adder forming state X[i]
  tap        re-exposes block i's pre-junction output for reuse downstream
  output     the network output, fed by the last junction

Wiring rules, per additive term of each state's coefficient polynomials:

  c           constant coefficient on X[s]: |c| parallel identity edges
              from the node of X[s] into the junction, signed by c.
  c*W[i]      where i is the state being defined: the block path; block i
              reads the node of X[s] and feeds the junction.
  c*W[k]      with k < i and s == k-1: reuse of block k's existing output
              through tap k (no second set of parameters).
  c*W[k]      otherwise: a fresh mapped edge straight into the junction
              (the block identity is not represented).
  degree >= 2 coefficients have no single-block realization and raise
              UnrealizableError.

Subtraction is a sign on an edge, not a node kind.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import accumulate, repeat
from operator import add
from typing import NamedTuple

from .algebra import Records, block_product, json_text, signed_sum
from .errors import SizeError, UnrealizableError
from .parser import ArchitectureSpec

INPUT = "input"
BLOCK = "block"
JUNCTION = "junction"
TAP = "tap"
OUTPUT = "output"

IDENTITY = "identity"
MAPPED = "mapped"

# Nodes plus edges that build_graph may materialize.
MAX_GRAPH_ITEMS = 1 << 20


class Node(NamedTuple):
    id: str
    kind: str
    block: int | None = None


class Edge(NamedTuple):
    src: str
    dst: str
    sign: int
    label: str


class ArchGraph:
    """A compiled architecture.

    ``state_ids`` maps each state index to the node carrying that state's
    value (0 to the input node, i >= 1 to the junction of block i); it is
    construction metadata and is not part of the exported schema.
    """

    def __init__(
        self,
        name: str,
        depth: int,
        nodes: tuple[Node, ...],
        edges: tuple[Edge, ...],
        state_ids: tuple[tuple[int, str], ...],
    ) -> None:
        self.name = name
        self.depth = depth
        self.nodes = nodes
        self.edges = edges
        self.state_ids = state_ids
        ids = [n.id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")
        known = set(ids)
        for e in edges:
            if e.src not in known or e.dst not in known:
                raise ValueError(f"edge {e.src}->{e.dst} references unknown nodes")
        if sum(1 for n in nodes if n.kind == INPUT) != 1:
            raise ValueError("graph must have exactly one input node")
        if sum(1 for n in nodes if n.kind == OUTPUT) != 1:
            raise ValueError("graph must have exactly one output node")
        _toposort(self)  # raises on cycles

    def _fields(self) -> tuple:
        return self.name, self.depth, self.nodes, self.edges, self.state_ids

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArchGraph):
            return NotImplemented
        return self._fields() == other._fields()

    # The lookup indexes are built on first use and kept in the instance
    # __dict__, where cached_property stores them.  They are not built at
    # construction: graphs that are only compared or exported would carry
    # them for nothing.

    @cached_property
    def _nodes_by_id(self) -> dict[str, Node]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def _edges_into(self) -> dict[str, list[Edge]]:
        """The in-edges of every node, in ``edges`` order."""
        ins: dict[str, list[Edge]] = {n.id: [] for n in self.nodes}
        for e in self.edges:
            ins[e.dst].append(e)
        return ins

    @cached_property
    def _states(self) -> tuple[dict[int, str], dict[str, int]]:
        """(state index -> node id, node id -> state index)."""
        return dict(self.state_ids), {node_id: i for i, node_id in self.state_ids}

    def node(self, node_id: str) -> Node:
        return self._nodes_by_id[node_id]

    def state_node(self, index: int) -> str:
        return self._states[0][index]

    def node_state(self, node_id: str) -> int | None:
        """The index of the state that node carries, or None."""
        return self._states[1].get(node_id)

    def in_edges(self, node_id: str) -> list[Edge]:
        return list(self._edges_into.get(node_id, ()))


def _toposort(g: ArchGraph) -> tuple[list[str], dict[str, list[str]]]:
    """Node ids in an order where every edge runs forward (Kahn's
    algorithm, first in first out), and each node's successors, one per
    edge."""
    indegree = dict.fromkeys([n.id for n in g.nodes], 0)
    successors: dict[str, list[str]] = {nid: [] for nid in indegree}
    for src, dst, _, _ in g.edges:
        indegree[dst] += 1
        successors[src].append(dst)
    order = [nid for nid, d in indegree.items() if not d]
    for nid in order:  # grows as nodes become ready
        for dst in successors[nid]:
            indegree[dst] -= 1
            if not indegree[dst]:
                order.append(dst)
    if len(order) != len(g.nodes):
        raise ValueError("graph contains a cycle")
    return order, successors


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _item_floor(spec: ArchitectureSpec, L: int) -> int:
    """Fewest nodes plus edges build_graph(spec, L) can make.

    The input, the output with its edge and one junction per state, plus one
    edge per unit of |c| in each rule coefficient for every state from
    X[2 * first_rule_index] on: from there no relative W atom can meet an
    absolute one, so no coefficient term cancels.
    """
    weight = sum(abs(c) for t in spec.rule.terms for c in t.coeff.terms.values())
    return 3 + L + max(0, L + 1 - 2 * spec.first_rule_index) * weight


def build_graph(spec: ArchitectureSpec, L: int) -> ArchGraph:
    """Compile the spec at depth L into its architecture graph.

    Raises SizeError when the graph would hold more than MAX_GRAPH_ITEMS
    nodes plus edges: up front when the spec's rule alone says so, else
    before the edges of the term that would pass the budget.
    """
    if L < 1:
        raise ValueError(f"depth must be >= 1, got {L}")
    floor = _item_floor(spec, L)
    if floor > MAX_GRAPH_ITEMS:
        try:
            need = str(floor)
        except ValueError:  # past the interpreter's digit limit
            need = f"a {floor.bit_length()}-bit number of"
        raise SizeError(
            f"graph {spec.name!r} at depth {L} needs at least {need} nodes"
            f" plus edges, budget is {MAX_GRAPH_ITEMS}"
        )
    nodes: list[Node] = [Node("input", INPUT)]
    edges: list[Edge] = []
    state_ids = ["input"]  # state index -> the node carrying it
    block_input: dict[int, int] = {}  # block index -> state index it reads
    taps: set[int] = set()

    for i in range(1, L + 1):
        junction = f"junction{i}"
        nodes.append(Node(junction, JUNCTION))
        state_ids.append(junction)

        for source, coeff in spec.instantiate_terms(i):
            source_node = state_ids[source]
            # Edges follow canonical order, which one term has without sorting.
            items = coeff.items()
            if len(items) > 1:
                items = zip(*coeff.canonical_columns())
            for word, c in items:
                if len(word) >= 2:
                    term = signed_sum([(c, block_product(word))])
                    raise UnrealizableError(
                        f"coefficient term {term} on X[{source}] in X[{i}] has"
                        f" degree {len(word)}; no single-block wiring exists"
                    )
                # The term's |c| parallel edges leave ``origin``: a mapped
                # edge keeps the data path unless a block or a tap that shares
                # its parameters realizes it.
                origin, label = source_node, MAPPED
                if not word:
                    label = IDENTITY
                elif (k := ord(word)) == i:
                    block = f"block{i}"
                    if i not in block_input:
                        nodes.append(Node(block, BLOCK, i))
                        block_input[i] = source
                        edges.append(Edge(source_node, block, 1, IDENTITY))
                    if block_input[i] == source:
                        origin = block
                elif k < i and source == k - 1 and block_input.get(k) == source:
                    origin = f"tap{k}"
                    if k not in taps:
                        taps.add(k)
                        nodes.append(Node(origin, TAP, k))
                        edges.append(Edge(f"block{k}", origin, 1, MAPPED))
                copies = abs(c)
                # The output node and its edge come last.
                if len(nodes) + len(edges) + copies + 2 > MAX_GRAPH_ITEMS:
                    raise SizeError(
                        f"graph {spec.name!r} at depth {L} passes {MAX_GRAPH_ITEMS}"
                        f" nodes plus edges at X[{i}]"
                    )
                edge = Edge(origin, junction, 1 if c > 0 else -1, label)
                if copies == 1:
                    edges.append(edge)
                else:
                    edges.extend([edge] * copies)

    nodes.append(Node("output", OUTPUT))
    edges.append(Edge(state_ids[L], "output", 1, IDENTITY))
    return ArchGraph(
        name=spec.name,
        depth=L,
        nodes=tuple(nodes),
        edges=tuple(edges),
        state_ids=tuple(enumerate(state_ids)),
    )


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


class PairReport(NamedTuple):
    """Identity-edge connectivity between states i-1 and i."""

    prev: int
    cur: int
    has_direct_identity: bool
    cross_layer_sources: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "pair": [self.prev, self.cur],
            "has_direct_identity": self.has_direct_identity,
            "cross_layer_sources": list(self.cross_layer_sources),
        }


class StructuralReport(NamedTuple):
    """direct_propagation_check output for every consecutive block pair."""

    graph: str
    entries: tuple[PairReport, ...] = ()

    @property
    def all_direct(self) -> bool:
        return all(e.has_direct_identity for e in self.entries)

    def to_dict(self) -> dict:
        return {"graph": self.graph, "pairs": [e.to_dict() for e in self.entries]}


def direct_propagation_check(g: ArchGraph) -> StructuralReport:
    """Report which consecutive states are joined by an identity edge.

    For each pair (i-1, i) with 2 <= i <= depth: has_direct_identity is
    true when the state node of X[i-1] feeds junction i through an identity
    edge; cross_layer_sources lists the other states with identity edges
    into junction i (for the substituted recursion this is just the input).
    """
    entries = []
    for i in range(2, g.depth + 1):
        sources = [
            s
            for e in g.in_edges(g.state_node(i))
            if e.label == IDENTITY and (s := g.node_state(e.src)) is not None
        ]
        entries.append(
            PairReport(
                prev=i - 1,
                cur=i,
                has_direct_identity=(i - 1) in sources,
                cross_layer_sources=tuple(sorted(set(s for s in sources if s != i - 1))),
            )
        )
    return StructuralReport(graph=g.name, entries=tuple(entries))


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------


def _pair_codes(firsts: tuple, seconds: tuple, key=lambda y: y) -> tuple[list, int]:
    """Code each pair (x, y) of ``zip(firsts[g], seconds[g])``, for both
    graphs g = 0, 1, as x's rank among the distinct x of both graphs times
    the number of ranks of y, plus the rank of key(y) among the distinct
    key(y) of both; so codes are equal and ordered as the pairs (x, key(y))
    are.  Returns the two code lists and the number of codes."""
    xs = sorted(set(firsts[0]).union(firsts[1]))
    ys = set(seconds[0]).union(seconds[1])
    ranks = {k: r for r, k in enumerate(sorted(set(map(key, ys))))}
    y_code = {y: ranks[key(y)] for y in ys}
    x_code = {x: r * len(ranks) for r, x in enumerate(xs)}
    codes = [
        list(map(add, map(x_code.__getitem__, x), map(y_code.__getitem__, y)))
        for x, y in zip(firsts, seconds)
    ]
    return codes, len(xs) * len(ranks)


# Colour refinement with individualization (McKay & Piperno 2014, "Practical
# graph isomorphism, II").  Nodes are numbered by position and colours are
# ints, first the code of each node's (kind, block).  Both graphs are
# refined together: a node's next colour is the rank of (its colour, the
# sorted codes of its edges) in one key map shared by the two graphs, so
# equal colours mean the same thing on both sides.  Each edge, parallel ones
# included, enters at each end as colour of the far end * 2K + kind, where
# kind is the code of its (sign, label) among the K codes of both graphs,
# plus K at the head end.  Refinement only splits colours; it stops once a
# round adds none or every colour is a single node.  An isomorphism maps
# every node to a node of its own colour, so the search individualizes one
# node of the smallest shared colour class against each candidate in the
# other graph until the colouring is discrete, and then checks the one
# colour-preserving bijection against every edge: it holds when every node
# has the same edge codes as its image (refinement stops as soon as the
# colouring is discrete, before any round has compared the edges against
# it).


class _Wiring(NamedTuple):
    """A graph's edges over node positions, each entered once at each end:
    per node position, the slice of its entries; per entry, the position of
    its far end and its kind, plus K at the head end (an in-edge)."""

    far: list[int]
    kinds: list[int]
    slices: list[slice]
    width: int  # 2K


def _wiring(ids: tuple, srcs: tuple, dsts: tuple, kinds: list[int], k: int) -> _Wiring:
    """The wiring of the edges srcs[e] -> dsts[e] of kind kinds[e] < k
    between the nodes ``ids``."""
    index = dict(zip(ids, range(len(ids))))
    src = list(map(index.__getitem__, srcs))
    dst = list(map(index.__getitem__, dsts))
    near, far = src + dst, dst + src
    kinds = kinds + list(map(add, kinds, repeat(k)))
    order = sorted(range(len(near)), key=near.__getitem__)
    counts = Counter(near)
    bounds = [0, *accumulate(map(counts.get, range(len(ids)), repeat(0)))]
    return _Wiring(
        list(map(far.__getitem__, order)),
        list(map(kinds.__getitem__, order)),
        list(map(slice, bounds, bounds[1:])),
        2 * k,
    )


def _keys(colours: list[int], wiring: _Wiring) -> list[tuple]:
    """Per node position, its colour and the sorted codes of its entries."""
    far, kinds, slices, width = wiring
    scaled = [c * width for c in colours]
    codes = list(map(add, map(scaled.__getitem__, far), kinds))
    return list(zip(colours, map(tuple, map(sorted, map(codes.__getitem__, slices)))))


def _refine(
    ca: list[int], cb: list[int], a: _Wiring, b: _Wiring
) -> tuple[list[int], list[int]] | None:
    """Refine (ca, cb) until stable or discrete; None once histograms differ."""
    count = len(set(ca))
    while count < len(ca):
        ka = _keys(ca, a)
        kb = _keys(cb, b)
        rank = {key: c for c, key in enumerate(sorted(set(ka).union(kb)))}
        ca = list(map(rank.__getitem__, ka))
        cb = list(map(rank.__getitem__, kb))
        if sorted(ca) != sorted(cb):
            return None
        if len(rank) == count:
            break
        count = len(rank)
    return ca, cb


def _search(ca: list[int], cb: list[int], a: _Wiring, b: _Wiring) -> bool:
    refined = _refine(ca, cb, a, b)
    if refined is None:
        return False
    ca, cb = refined
    sizes = Counter(ca)
    if len(sizes) == len(ca):
        return sorted(_keys(ca, a)) == sorted(_keys(cb, b))
    cell = min((size, c) for c, size in sizes.items() if size > 1)[1]
    v = ca.index(cell)
    fresh = len(sizes)
    for w in [w for w, c in enumerate(cb) if c == cell]:
        ca2, cb2 = ca[:], cb[:]
        ca2[v] = cb2[w] = fresh
        if _search(ca2, cb2, a, b):
            return True
    return False


def structural_equal(ga: ArchGraph, gb: ArchGraph) -> bool:
    """Labeled-DAG isomorphism respecting node kinds, block indices and
    signed/labeled edges (including multi-edges)."""
    if len(ga.nodes) != len(gb.nodes) or len(ga.edges) != len(gb.edges):
        return False
    (ids_a, kinds_a, blocks_a), (ids_b, kinds_b, blocks_b) = zip(*ga.nodes), zip(*gb.nodes)
    (ca, cb), _ = _pair_codes(
        (kinds_a, kinds_b), (blocks_a, blocks_b), key=lambda b: -1 if b is None else b
    )
    if sorted(ca) != sorted(cb):
        return False
    # (srcs, dsts, signs, labels) of each graph
    ea, eb = (tuple(zip(*g.edges)) or ((),) * 4 for g in (ga, gb))
    (ka, kb), k = _pair_codes((ea[2], eb[2]), (ea[3], eb[3]))
    return _search(ca, cb, _wiring(ids_a, *ea[:2], ka, k), _wiring(ids_b, *eb[:2], kb, k))


def count_paths(g: ArchGraph) -> int:
    """Number of distinct directed input-to-output paths (multi-edges count)."""
    order, successors = _toposort(g)
    paths = dict.fromkeys(order, 0)
    paths[g.state_node(0)] = 1
    for nid in order:
        if paths[nid]:
            for dst in successors[nid]:
                paths[dst] += paths[nid]
    (output,) = [n.id for n in g.nodes if n.kind == OUTPUT]
    return paths[output]


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

_DOT_SHAPES = {
    INPUT: "ellipse",
    BLOCK: "box",
    JUNCTION: "circle",
    TAP: "diamond",
    OUTPUT: "ellipse",
}


def _dot_label(n: Node) -> str:
    if n.kind == BLOCK:
        return f"W[{n.block}]"
    if n.kind == TAP:
        return f"tap W[{n.block}]"
    if n.kind == JUNCTION:
        return "+"
    if n.kind == INPUT:
        return "X[0]"
    return "out"


def export(g: ArchGraph, fmt: str = "dot") -> str:
    """Deterministic DOT or JSON text for the graph.

    DOT renders block nodes as boxes, junctions as circles, and draws
    negative edges dashed.
    """
    if fmt == "json":
        payload = {
            "name": g.name,
            "depth": g.depth,
            "nodes": Records(("id", "kind", "block"), g.nodes),
            "edges": Records(("from", "to", "sign", "label"), g.edges),
        }
        return json_text(payload)
    if fmt != "dot":
        raise ValueError(f"unknown export format {fmt!r}; use 'dot' or 'json'")
    lines = [f'digraph "{g.name}" {{', "  rankdir=LR;"]
    for n in g.nodes:
        lines.append(
            f'  "{n.id}" [shape={_DOT_SHAPES[n.kind]} label="{_dot_label(n)}"];'
        )
    for e in g.edges:
        attrs = []
        if e.sign < 0:
            attrs.append('style=dashed label="-"')
        lines.append(
            f'  "{e.src}" -> "{e.dst}"' + (f" [{' '.join(attrs)}]" if attrs else "") + ";"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
