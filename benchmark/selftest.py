"""Self-test of the output checks: each must accept the program's answer
and reject a wrong one.  Run with ``python3 benchmark/run.py --self-test``.

The wrong answers are the kinds of fault a change to the program could
bring: a reversed factor order, a wrong count, a non-isomorphic pair
called isomorphic, a flipped sign in the wiring, a flipped verdict, a
wrong statistic.
"""

from __future__ import annotations

import copy
import io
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import checks as C
import formulas as F
import workloads as W


def _main_json(argv: list[str]):
    import recur.cli

    out = io.StringIO()
    with redirect_stdout(out):
        recur.cli.main(argv)
    return json.loads(out.getvalue())


def _reverse_terms(payload):
    bad = copy.deepcopy(payload)
    for t in bad["components"][0]["terms"]:
        t["factors"].reverse()
    return bad


def _bump_count(payload, length):
    bad = copy.deepcopy(payload)
    bad["census"][str(length)]["count"] += 1
    return bad


def _flip_edge_sign(payload, label):
    bad = copy.deepcopy(payload)
    edge = next(e for e in bad["edges"] if e["label"] == label and e["from"].startswith("tap"))
    edge["sign"] = -edge["sign"]
    return bad


def _flip_verdict(payload, m):
    bad = copy.deepcopy(payload)
    bad["results"][m - 2]["holds"] = not bad["results"][m - 2]["holds"]
    return bad


def _scale_cd(payload, factor):
    bad = copy.deepcopy(payload)
    bad["nemenyi"]["cd"] *= factor
    return bad


def cases():
    """(name, check on the right answer, check on a wrong answer)."""
    from recur.archgraph import build_graph
    from recur.builtins import builtin_spec
    from recur.expansion import derivative
    from recur.numeric import eval_polynomial, instantiate

    rng = lambda: random.Random(7)  # noqa: E731
    resnet, newarch = F.BUILTINS["resnet"], F.BUILTINS["newarch"]

    census = _main_json(["census", "--builtin", "resnet", "-L", "9", "--check", "binomial", "--format", "json"])
    yield (
        "census: a wrong count",
        lambda: C.census_counts(census, 9, 0, resnet, "binomial"),
        lambda: C.census_counts(_bump_count(census, 4), 9, 0, resnet, "binomial"),
    )
    ex1 = _main_json(["census", "--builtin", "appendix-ex1", "-L", "12", "--format", "json"])
    yield (
        "census: a wrong Fibonacci-growth count",
        lambda: C.census_counts(ex1, 12, 0, F.BUILTINS["appendix-ex1"], None),
        lambda: C.census_counts(_bump_count(ex1, 5), 12, 0, F.BUILTINS["appendix-ex1"], None),
    )
    for name, f in (("resnet", resnet), ("newarch", newarch)):
        exp = _main_json(["expand", "--builtin", name, "-L", "8", "--format", "json"])
        yield (
            f"expand {name}: reversed factor order",
            lambda exp=exp, f=f: C.expand_terms(exp, 8, f, rng()),
            lambda exp=exp, f=f: C.expand_terms(_reverse_terms(exp), 8, f, rng()),
        )
    chain = _main_json(["chain-identity", "--builtin", "newarch", "-L", "8", "--format", "json"])
    yield (
        "chain-identity: a flipped verdict",
        lambda: C.chain_identity(chain, 8, newarch, rng()),
        lambda: C.chain_identity(_flip_verdict(chain, 5), 8, newarch, rng()),
    )

    spec, L, d = builtin_spec("resnet"), 7, 4
    net = instantiate(spec, L, d, 11)
    right = {j: eval_polynomial(derivative(spec, L, j), net) for j in range(L + 1)}
    wrong = {j: eval_polynomial(_reversed(derivative(spec, L, j)), net) for j in range(L + 1)}
    yield (
        "verify: reversed factor order against the closed-form product",
        lambda: C.jacobians_match(right, resnet, net.matrices, L),
        lambda: C.jacobians_match(wrong, resnet, net.matrices, L),
    )

    graph = _main_json(["graph", "--builtin", "newarch", "-L", "9", "--format", "json"])
    yield (
        "graph: a flipped sign in the wiring",
        lambda: C.graph_value(graph, newarch, 9, rng()),
        lambda: C.graph_value(_flip_edge_sign(graph, "mapped"), newarch, 9, rng()),
    )
    prop = _main_json(["graph", "--builtin", "eq22", "-L", "9", "--propagation", "--format", "json"])
    yield (
        "propagation: eq22 reported as all-direct",
        lambda: C.propagation(prop, 9, direct=False),
        lambda: C.propagation(prop, 9, direct=True),
    )

    g = build_graph(builtin_spec("newarch"), 30)
    same = W.shuffled_copy(g, random.Random(1))
    flipped = W.shuffled_copy(g, random.Random(1), flip_edge=17)
    yield (
        "structural_equal: a non-isomorphic pair called isomorphic",
        lambda: (C.structural_verdict(True, g, same), C.structural_verdict(False, g, flipped)),
        lambda: C.structural_verdict(True, g, flipped),
    )
    eq22 = build_graph(builtin_spec("eq22"), 30)
    yield (
        "structural_equal: newarch and eq22 called isomorphic",
        lambda: C.structural_verdict(False, g, eq22),
        lambda: C.structural_verdict(True, g, eq22),
    )

    csv_text = (Path(C.__file__).resolve().parent.parent / "src/recur/data/table1.csv").read_text()
    stats = _main_json(["stats", "table1", "--format", "json"])
    yield (
        "stats: a critical difference off by 1%",
        lambda: C.friedman_nemenyi(stats, csv_text, 0.05),
        lambda: C.friedman_nemenyi(_scale_cd(stats, 1.01), csv_text, 0.05),
    )
    table = W.random_table(random.Random(3))
    yield (
        "stats: a table's statistics checked against another table",
        lambda: C.friedman_nemenyi(stats, csv_text, 0.05),
        lambda: C.friedman_nemenyi(stats, table, 0.05),
    )


def _reversed(poly):
    from recur.algebra import PathPolynomial

    return PathPolynomial({f[::-1]: c for f, c in poly.coefficients.items()})


def main() -> int:
    failures = 0
    for name, right, wrong in cases():
        try:
            right()
        except C.CheckError as exc:
            print(f"FAIL {name}: the right answer was rejected ({exc})")
            failures += 1
            continue
        try:
            wrong()
        except C.CheckError as exc:
            print(f"ok   {name}: rejected ({exc})")
        else:
            print(f"FAIL {name}: the wrong answer was accepted")
            failures += 1
    print("self-test " + ("passed" if not failures else f"failed: {failures}"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
