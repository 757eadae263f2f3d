"""The four workloads: their seeded inputs, operations and checks.

Each round is ordered by the seed.  The seed changes spellings, depths
inside a fixed cost class, matrix seeds, graph node ids and the random
realizable formulas, never the amount of work in a round.  Each round is
built so that its median operation sits inside a group of operations of
one cost class (marked "median group" below): then ``op_ms.p50`` follows
that group instead of jumping between two unlike operations.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import checks as C
import formulas as F
from harness import Op, Workload

J = ["--format", "json"]
GOLDEN = Path(__file__).resolve().parent / "golden.json"


def _write(work: Path, name: str, text: str) -> Path:
    path = work / name
    path.write_text(text, encoding="utf-8")
    return path


def _fixed(argv: list[str]):
    return lambda r: argv


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _check_rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}/{label}")


# ---------------------------------------------------------------------------
# paths: algebra and expansion at full size
# ---------------------------------------------------------------------------

LARGE_DEPTH = 15
MID_SPAN = 13  # census resnet at L - j = 13: 8,192 terms


def paths(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    large_a = _write(work, "large_a.rf", F.spell(F.LARGE, rng))
    text_b = F.spell(F.LARGE, rng)
    while text_b == large_a.read_text():
        text_b = F.spell(F.LARGE, rng)
    large_b = _write(work, "large_b.rf", text_b)
    ops: list[Op] = []

    def census(name, L, j=0, check=None):
        argv = ["census", "--builtin", name, "-L", str(L), "--wrt", str(j)]
        argv += (["--check", check] if check else []) + J
        f = F.BUILTINS[name]
        ops.append(
            Op(
                f"census {name} L={L} j={j}",
                lambda o, r, ctx: C.census_counts(C.load(o.out), L, j, f, check),
                argv=_fixed(argv),
            )
        )

    def expand(name, L):
        label = f"expand {name} L={L}"
        ops.append(
            Op(
                label,
                lambda o, r, ctx: C.expand_terms(
                    C.load(o.out), L, F.BUILTINS[name], _check_rng(seed, label)
                ),
                argv=_fixed(["expand", "--builtin", name, "-L", str(L)] + J),
            )
        )

    def chain_identity(name, L, expect):
        label = f"chain-identity {name} L={L}"
        ops.append(
            Op(
                label,
                lambda o, r, ctx: C.chain_identity(
                    C.load(o.out), L, F.BUILTINS[name], _check_rng(seed, label)
                ),
                argv=_fixed(["chain-identity", "--builtin", name, "-L", str(L)] + J),
                expect=expect,
            )
        )

    # Large: one derivative holding 2^17 = 131,072 live terms, the 3.6 MB
    # expand, the two-spelling equivalence and the Fibonacci-growth censuses.
    census("resnet", 17, 0, "binomial")
    expand("resnet", 14)
    ops.append(
        Op(
            f"equiv two spellings of large L={LARGE_DEPTH}",
            lambda o, r, ctx: C.value_equivalent(C.load(o.out), LARGE_DEPTH),
            argv=_fixed(["equiv", str(large_a), str(large_b), "-L", str(LARGE_DEPTH)] + J),
        )
    )
    census("appendix-ex1", 20)
    census("appendix-ex2", 20)
    # Median group: three resnet censuses of one size at seeded depths.
    for L in rng.sample(range(MID_SPAN, 25), 3):
        census("resnet", L, L - MID_SPAN, "binomial")
    # Small: L+1-term newarch work and the chain-rule identities.
    census("newarch", 24, 0, "single-path")
    census("newarch", 22, 0, "widest")
    expand("newarch", 24)
    chain_identity("newarch", 20, 0)
    chain_identity("resnet", 12, 1)  # the identity fails for resnet: exit 1
    rng.shuffle(ops)
    return Workload("paths", ops, [large_a, large_b])


# ---------------------------------------------------------------------------
# verify: numeric Jacobian checks
# ---------------------------------------------------------------------------

VERIFY_SEEDS = 3

# (formula, read from a file, L, d, tanh); the list is in cost order.
VERIFY_OPS = (
    ("newarch", True, 12, 16, False),
    ("chain", False, 12, 8, True),
    ("resnet", False, 12, 16, True),
    # median group
    ("resnet", False, 10, 4, False),
    ("resnet", False, 10, 8, False),
    ("resnet", False, 10, 16, False),
    ("resnet", False, 12, 8, False),
    ("appendix-ex2", True, 14, 8, False),
    ("appendix-ex2", True, 14, 16, False),
)


def _deep_verify(name: str, spec_arg: str, L: int, d: int, seed: int) -> None:
    """eval_polynomial(derivative(spec, L, j)) on the instantiated matrices
    against the closed-form product or the formula's own recurrence."""
    from recur.builtins import builtin_spec
    from recur.expansion import derivative
    from recur.numeric import eval_polynomial, instantiate
    from recur.parser import parse_file

    spec = builtin_spec(name) if spec_arg == name else parse_file(spec_arg)
    net = instantiate(spec, L, d, seed)
    got = {j: eval_polynomial(derivative(spec, L, j), net) for j in range(L + 1)}
    C.jacobians_match(got, F.BUILTINS[name], net.matrices, L)


def _verify_op(rng, name, spec_arg, L, d, tanh, seeds=VERIFY_SEEDS) -> Op:
    base = rng.randrange(1_000_000)
    extra = ["--activation", "tanh"] if tanh else []

    def argv(r):
        return (
            ["verify", spec_arg, "-L", str(L), "-d", str(d)]
            + ["--seeds", str(seeds), "--seed", str(base + r * seeds)]
            + extra
            + J
        )

    def check(o, r, ctx):
        first = base + r * seeds
        C.verify_report(C.load(o.out), name, L, d, range(first, first + seeds), tanh)
        if r == 0:
            _deep_verify(name, spec_arg, L, d, first)

    label = f"verify {name} L={L} d={d}" + (" tanh" if tanh else "")
    return Op(label, check, argv=argv, varies=True)


def verify(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    files = {
        name: _write(work, f"{name}.rf", F.spell(F.BUILTINS[name], rng))
        for name in ("newarch", "appendix-ex2")
    }
    ops = [
        _verify_op(rng, name, str(files[name]) if from_file else name, L, d, tanh)
        for name, from_file, L, d, tanh in VERIFY_OPS
    ]
    rng.shuffle(ops)
    return Workload("verify", ops, list(files.values()), probe="matrix")


# ---------------------------------------------------------------------------
# graphs: compilation, export and isomorphism up to the size cap
# ---------------------------------------------------------------------------

GRAPH_DEPTH = 66  # newarch: 3*66 + 1 = 199 nodes, under SIZE_CAP = 200
RANDOM_DEPTH = 60  # random realizable formulas: 181 nodes


def shuffled_copy(g, rng: random.Random, flip_edge: int | None = None):
    """The same graph with fresh node ids and shuffled node and edge order;
    with ``flip_edge`` the sign of that edge is flipped as well."""
    from recur.archgraph import ArchGraph, Edge, Node

    ids = [n.id for n in g.nodes]
    fresh = [f"v{k}" for k in range(len(ids))]
    rng.shuffle(fresh)
    m = dict(zip(ids, fresh))
    nodes = [Node(m[n.id], n.kind, n.block) for n in g.nodes]
    edges = [
        Edge(m[e.src], m[e.dst], -e.sign if k == flip_edge else e.sign, e.label)
        for k, e in enumerate(g.edges)
    ]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return ArchGraph(
        name=g.name,
        depth=g.depth,
        nodes=tuple(nodes),
        edges=tuple(edges),
        state_ids=tuple((i, m[nid]) for i, nid in g.state_ids),
    )


def graphs(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    respelled = {
        name: _write(work, f"{name}.rf", F.spell(F.BUILTINS[name], rng))
        for name in ("newarch", "eq22")
    }
    rand = {tag: F.random_realizable(rng, f"random-{tag}") for tag in ("a", "b")}
    rand_files = {
        tag: _write(work, f"random-{tag}.rf", F.spell(f, rng)) for tag, f in rand.items()
    }
    golden = _golden()
    G, R = GRAPH_DEPTH, RANDOM_DEPTH
    pairs: dict = {}

    def prepare():
        from recur.archgraph import build_graph
        from recur.builtins import builtin_spec
        from recur.parser import parse_file

        shuffle_rng = random.Random(f"{seed}/shuffle")
        for name, path in respelled.items():
            builtin = build_graph(builtin_spec(name), G)
            pairs[name] = (builtin, shuffled_copy(builtin, shuffle_rng))
            pairs[f"{name} respelled"] = (builtin, build_graph(parse_file(path), G))
        g = build_graph(builtin_spec("appendix-ex2"), G)
        pairs["appendix-ex2"] = (g, shuffled_copy(g, shuffle_rng))
        pairs["newarch eq22"] = (pairs["newarch"][0], pairs["eq22"][0])
        for tag, path in rand_files.items():
            g = build_graph(parse_file(path), R)
            pairs[tag] = (g, shuffled_copy(g, shuffle_rng))
            flip = shuffle_rng.randrange(len(g.edges))
            pairs[f"{tag} flipped"] = (g, shuffled_copy(g, shuffle_rng, flip_edge=flip))

    def cli_op(label, argv, check, expect=0):
        return Op(label, check, argv=_fixed(argv), expect=expect)

    def iso_op(keys, want):
        def call(r):
            import recur.archgraph

            return " ".join(str(recur.archgraph.structural_equal(*pairs[k])) for k in keys)

        def check(o, r, ctx):
            C.require(o.out == " ".join([str(want)] * len(keys)), f"structural_equal {o.out}")
            for k in keys:
                C.structural_verdict(want, *pairs[k])

        return Op(f"structural_equal {' + '.join(keys)}", check, call=call)

    def equiv_op(a, b, key, iso):
        def check(o, r, ctx):
            C.structural_equiv(C.load(o.out), G, value_equal=True, iso=iso)
            C.structural_verdict(iso, *pairs[key])

        argv = ["equiv", a, b, "-L", str(G), "--structural"] + J
        return cli_op(f"equiv {key} L={G} structural", argv, check, 0 if iso else 1)

    def count_paths_call(r):
        import recur.archgraph
        from recur.builtins import builtin_spec

        g = recur.archgraph.build_graph(builtin_spec("resnet"), G)
        return str(recur.archgraph.count_paths(g))

    def dot_check(o, r, ctx):
        C.require(C.digest(o.out) == golden[f"dot newarch {G}"]["sha256"], "DOT bytes")
        C.dot_matches_json(o.out, C.load(ctx[f"graph newarch L={G} json"].out))

    ops = [
        # Small: exports, propagation reports, path counting.
        cli_op(
            f"graph newarch L={G} json",
            ["graph", "--builtin", "newarch", "-L", str(G), "--format", "json"],
            lambda o, r, ctx: C.graph_value(
                C.load(o.out), F.BUILTINS["newarch"], G, _check_rng(seed, "newarch")
            ),
        ),
        cli_op(
            f"graph newarch L={G} dot",
            ["graph", "--builtin", "newarch", "-L", str(G), "--format", "dot"],
            dot_check,
        ),
        cli_op(
            f"graph random-a L={R} json",
            ["graph", str(rand_files["a"]), "-L", str(R), "--format", "json"],
            lambda o, r, ctx: C.graph_value(
                C.load(o.out), rand["a"], R, _check_rng(seed, "random-a")
            ),
        ),
        cli_op(
            "propagation newarch L=24",
            ["graph", "--builtin", "newarch", "-L", "24", "--propagation"] + J,
            lambda o, r, ctx: C.propagation(C.load(o.out), 24, direct=True),
        ),
        cli_op(
            "propagation eq22 L=24",
            ["graph", "--builtin", "eq22", "-L", "24", "--propagation"] + J,
            lambda o, r, ctx: C.propagation(C.load(o.out), 24, direct=False),
        ),
        Op(
            f"count_paths resnet L={G}",
            lambda o, r, ctx: C.require(o.out == str(2**G), f"count_paths {o.out}"),
            call=count_paths_call,
        ),
        # Median group: both random graphs against a copy with one sign
        # flipped, and built-in graphs at the cap against shuffled copies.
        iso_op(["a flipped", "b flipped"], False),
        iso_op(["newarch"], True),
        iso_op(["eq22"], True),
        iso_op(["appendix-ex2"], True),
        # Large: isomorphic random pairs and equiv --structural at the cap.
        iso_op(["a"], True),
        iso_op(["b"], True),
        equiv_op("newarch", "eq22", "newarch eq22", iso=False),
        equiv_op("newarch", str(respelled["newarch"]), "newarch respelled", iso=True),
        equiv_op("eq22", str(respelled["eq22"]), "eq22 respelled", iso=True),
    ]
    rng.shuffle(ops)
    files = [*respelled.values(), *rand_files.values()]
    return Workload("graphs", ops, files, prepare=prepare, env={"RECUR_DEPTH_CAP": str(G)})


# ---------------------------------------------------------------------------
# cli: fresh `python -m recur.cli` processes
# ---------------------------------------------------------------------------


def random_table(rng: random.Random, k: int = 8, n: int = 3) -> str:
    """Accuracies whose rankings do not agree on every dataset (Friedman's
    tau_F is undefined when they do)."""
    while True:
        rows = [[round(rng.uniform(60, 99), 2) for _ in range(n)] for _ in range(k)]
        orders = {tuple(sorted(range(k), key=lambda i: rows[i][j])) for j in range(n)}
        if len(orders) > 1:
            break
    lines = ["method," + ",".join(f"D{j + 1}" for j in range(n))]
    lines += [f"M{i + 1}," + ",".join(f"{v:.2f}" for v in row) for i, row in enumerate(rows)]
    return "\n".join(lines) + "\n"


def cli(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    spelled = _write(work, "newarch.rf", F.spell(F.BUILTINS["newarch"], rng, var="i"))
    table = _write(work, "table.csv", random_table(rng))
    malformed = _write(work, "malformed.rf", "X[i] = (1 + W[i]*X[i-1]\nX[0] = input\n")
    golden = _golden()
    data = Path(__file__).resolve().parent.parent / "src" / "recur" / "data"
    verify_seed = rng.randrange(1_000_000)

    def stats_check(csv_path):
        return lambda o, r, ctx: C.friedman_nemenyi(
            C.load(o.out), Path(csv_path).read_text(encoding="utf-8"), 0.05
        )

    def verify_check(o, r, ctx):
        C.verify_report(C.load(o.out), "newarch", 6, 4, [verify_seed, verify_seed + 1], False)
        _deep_verify("newarch", "newarch", 6, 4, verify_seed)

    ops = [
        Op(
            "parse respelled newarch",
            lambda o, r, ctx: C.canonical(
                C.load(o.out), golden["canonical newarch"], "newarch"
            ),
            argv=_fixed(["parse", str(spelled)] + J),
        ),
        Op(
            "census resnet L=10",
            lambda o, r, ctx: C.census_counts(
                C.load(o.out), 10, 0, F.BUILTINS["resnet"], "binomial"
            ),
            argv=_fixed(["census", "--builtin", "resnet", "-L", "10", "--check", "binomial"] + J),
        ),
        Op(
            "graph newarch L=6 dot",
            lambda o, r, ctx: C.require(
                C.digest(o.out) == golden["dot newarch 6"]["sha256"], "DOT bytes changed"
            ),
            argv=_fixed(["graph", "--builtin", "newarch", "-L", "6", "--format", "dot"]),
        ),
        Op(
            "verify newarch L=6",
            verify_check,
            argv=_fixed(
                ["verify", "--builtin", "newarch", "-L", "6", "-d", "4", "--seeds", "2"]
                + ["--seed", str(verify_seed)]
                + J
            ),
        ),
        Op("stats table1", stats_check(data / "table1.csv"), argv=_fixed(["stats", "table1"] + J)),
        # Fails today: Q_TABLE covers k <= 10 and table2 has 16 methods.
        Op("stats table2", stats_check(data / "table2.csv"), argv=_fixed(["stats", "table2"] + J)),
        Op("stats seeded table", stats_check(table), argv=_fixed(["stats", str(table)] + J)),
        Op(
            "parse malformed",
            lambda o, r, ctx: C.usage_error(o.code, o.err),
            argv=_fixed(["parse", str(malformed)]),
            expect=2,
        ),
        Op(
            "equiv newarch eq22 structural",
            lambda o, r, ctx: C.structural_equiv(C.load(o.out), 6, True, False),
            argv=_fixed(["equiv", "newarch", "eq22", "--structural"] + J),
            expect=1,
        ),
    ]
    rng.shuffle(ops)
    return Workload("cli", ops, [spelled, table], fresh_process=True)


WORKLOADS = {"paths": paths, "verify": verify, "graphs": graphs, "cli": cli}


def regenerate_golden() -> dict:
    """Stored copies that nothing independent can recompute: DOT bytes and
    the canonical rendering.  Taken from the program as it is now."""
    from recur.archgraph import build_graph, export
    from recur.builtins import builtin_spec
    from recur.parser import render

    out: dict = {}
    for name, L in (("newarch", GRAPH_DEPTH), ("newarch", 6)):
        text = export(build_graph(builtin_spec(name), L), "dot")
        out[f"dot {name} {L}"] = {"sha256": C.digest(text), "bytes": len(text.encode())}
    out["canonical newarch"] = render(builtin_spec("newarch"))
    return out
