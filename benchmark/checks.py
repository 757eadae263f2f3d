"""Checks of the program's outputs against computations made apart from it.

Every check raises ``CheckError`` on a wrong answer.  The references are
the benchmark's own: binomial coefficients and path-count recurrences,
the formulas' recurrences evaluated with random 2x2 matrices over Z_p
(noncommutative, so a reversed factor order shows), closed-form matrix
products, networkx isomorphism and scipy's studentized range.  The self
test (``selftest.py``) feeds each check a wrong answer and expects it to
be rejected.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import re

import formulas as F


class CheckError(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Path polynomials
# ---------------------------------------------------------------------------


def census_counts(payload: dict, L: int, j: int, f: F.Formula, check: str | None):
    """Census counts must be the paths the benchmark counts itself; resnet's
    must also be binomial."""
    require(payload["depth"] == L and payload["wrt"] == j, "census: wrong depth/wrt")
    got = {int(k): (v["count"], v["weight"]) for k, v in payload["census"].items()}
    if f.name == "newarch":
        want = {k: 1 for k in range(L - j + 1)}
    else:
        want = F.path_counts(f, L, j)
    if f.name == "resnet":
        require(want == {k: math.comb(L - j, k) for k in range(L - j + 1)}, "path DP")
    require(set(got) == set(want), f"census lengths {sorted(got)} != {sorted(want)}")
    for k, n in want.items():
        require(got[k] == (n, n), f"census length {k}: {got[k]} != ({n}, {n})")
    if check is None:
        require(payload["check"] is None, "census: unexpected check report")
    else:
        report = payload["check"]
        require(report["check"] == check and report["pass"] is True, "census check")
        require(report["violations"] == [], "census: violations on a passing check")


def expand_terms(payload: dict, L: int, f: F.Formula, rng: random.Random) -> None:
    """X[L] over X[0], evaluated with random 2x2 matrices mod p, must equal the
    formula's own recurrence; newarch must be exactly W[L]...W[L-k+1] per k."""
    require(payload["depth"] == L, "expand: wrong depth")
    comps = payload["components"]
    require([c["state"] for c in comps] == [0], "expand: components other than X[0]")
    terms = [(t["coeff"], t["factors"]) for t in comps[0]["terms"]]
    blocks = F.random_blocks(rng, L)
    require(
        F.poly_matrix(terms, blocks) == F.derivative_matrix(f, L, 0, blocks),
        "expand: terms do not evaluate to the recurrence's value mod p",
    )
    if f.name == "newarch":
        want = [(1, list(range(L, L - k, -1))) for k in range(L + 1)]
        require(terms == want, "expand: newarch terms are not W[L]...W[L-k+1]")


def value_equivalent(reports: list, L: int) -> None:
    require(len(reports) == 1, "equiv: expected one report")
    r = reports[0]
    require(r["check"] == "value-equivalence" and r["depth"] == L, "equiv: report kind")
    require(r["pass"] is True and r["violations"] == [], "equiv: spellings differ")


def chain_identity(payload: dict, L: int, f: F.Formula, rng: random.Random) -> None:
    """Each m's verdict must match dX[m]/dX[m-2] == dX[m]/dX[m-1]*(1+W[m-1])
    - W[m-1], decided with random matrices mod p."""
    blocks = F.random_blocks(rng, L)
    want = []
    for m in range(2, L + 1):
        w = blocks[m - 1]
        lhs = F.derivative_matrix(f, m, m - 2, blocks)
        step = F.derivative_matrix(f, m, m - 1, blocks)
        rhs = F.madd(F.mmul(step, F.madd(F.I2, w)), w, -1)
        want.append({"m": m, "holds": lhs == rhs})
    require(payload["results"] == want, "chain-identity: verdicts differ")
    require(payload["pass"] is all(x["holds"] for x in want), "chain-identity: pass")


# ---------------------------------------------------------------------------
# Jacobians
# ---------------------------------------------------------------------------


def verify_report(payload: dict, name: str, L: int, d: int, seeds, tanh: bool) -> None:
    """The sweep covers every j and seed once, and every check passed."""
    wrts = range(L) if tanh else range(L + 1)
    want = sorted((s, j) for s in seeds for j in wrts)
    checks = payload["checks"]
    require(sorted((c["seed"], c["j"]) for c in checks) == want, "verify: sweep")
    for c in checks:
        require(c["spec"] == name and c["L"] == L and c["d"] == d, "verify: fields")
        require(c["activation"] == ("tanh" if tanh else None), "verify: activation")
        require(c["pass"] is True and 0 <= c["error"] <= c["tol"], "verify: failed")
    require(payload["pass"] is True, "verify: overall pass")


def reference_jacobian(f: F.Formula, mats, L: int, j: int):
    """dX[L]/dX[j] on the matrices: the closed-form products for chain and
    resnet, the formula's own recurrence otherwise."""
    import numpy as np

    d = mats[0].shape[0]
    eye = np.eye(d)
    if f.name in ("chain", "resnet"):
        out = eye
        for i in range(L, j, -1):
            out = out @ (mats[i - 1] if f.name == "chain" else eye + mats[i - 1])
        return out
    sens = {j: eye}
    for i in range(j + 1, L + 1):
        acc = np.zeros((d, d))
        for source, summands in f.terms(i):
            if source in sens:
                co = np.zeros((d, d))
                for c, ws in summands:
                    m = eye
                    for w in ws:
                        m = m @ mats[w - 1]
                    co += c * m
                acc += co @ sens[source]
        sens[i] = acc
    return sens[L]


def jacobians_match(evaluated: dict, f: F.Formula, mats, L: int) -> None:
    """``evaluated[j]`` is the program's eval_polynomial(derivative(L, j))."""
    import numpy as np

    for j, got in evaluated.items():
        ref = reference_jacobian(f, mats, L, j)
        err = np.linalg.norm(got - ref) / max(np.linalg.norm(ref), 1e-300)
        require(err <= 1e-9, f"eval_polynomial of dX[{L}]/dX[{j}] off by {err:.2e}")


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


def graph_value(payload: dict, f: F.Formula, L: int, rng: random.Random) -> None:
    """Evaluate the exported wiring with random 2x2 matrices mod p: blocks
    apply their W, taps pass a block's output on, edges carry signs.  The
    output must equal the formula's X[L] over X[0]."""
    require(payload["depth"] == L, "graph: wrong depth")
    nodes = {n["id"]: n for n in payload["nodes"]}
    incoming: dict[str, list] = {nid: [] for nid in nodes}
    for e in payload["edges"]:
        incoming[e["to"]].append(e)
    blocks = F.random_blocks(rng, L)
    values: dict[str, tuple] = {}

    def value(nid: str) -> tuple:
        if nid in values:
            return values[nid]
        node = nodes[nid]
        if node["kind"] == "input":
            out = F.I2
        else:
            out = F.Z2
            for e in incoming[nid]:
                src_kind = nodes[e["from"]]["kind"]
                require(
                    e["label"] == "identity" or src_kind in ("block", "tap"),
                    f"graph: mapped edge {e['from']}->{nid} has no block",
                )
                out = F.madd(out, value(e["from"]), e["sign"])
            if node["kind"] == "block":
                out = F.mmul(blocks[node["block"]], out)
        values[nid] = out
        return out

    (output,) = [nid for nid, n in nodes.items() if n["kind"] == "output"]
    require(value(output) == F.derivative_matrix(f, L, 0, blocks), "graph: wiring value")


_DOT_EDGE = re.compile(r'^  "([^"]+)" -> "([^"]+)"( \[style=dashed label="-"\])?;$')


def dot_matches_json(dot: str, payload: dict) -> None:
    """The DOT export draws exactly the JSON export's signed edges."""
    edges = []
    for line in dot.splitlines():
        m = _DOT_EDGE.match(line)
        if m:
            edges.append((m.group(1), m.group(2), -1 if m.group(3) else 1))
    want = [(e["from"], e["to"], e["sign"]) for e in payload["edges"]]
    require(sorted(edges) == sorted(want), "dot: edges differ from the JSON export")
    require(dot.count("[shape=") == len(payload["nodes"]), "dot: node count")


def propagation(payload: dict, L: int, direct: bool) -> None:
    """newarch joins every X[i-1] to X[i] by an identity edge; eq22 joins
    none and feeds every junction from the input instead."""
    pairs = payload["pairs"]
    require([p["pair"] for p in pairs] == [[i - 1, i] for i in range(2, L + 1)], "pairs")
    for p in pairs:
        require(p["has_direct_identity"] is direct, f"propagation of {p['pair']}")
        require(p["cross_layer_sources"] == ([] if direct else [0]), "cross sources")


def nx_isomorphic(ga, gb) -> bool:
    """networkx DiGraph isomorphism; multi-edges become one edge labelled
    with the sorted (sign, label) list, nodes carry (kind, block).  Nodes
    with a block index are added first: VF2 matches in insertion order, and
    starting from the uniquely labelled nodes keeps it from trying every
    junction against every other (eq22 at depth 66 otherwise takes ~50 s)."""
    import networkx as nx
    from networkx.algorithms.isomorphism import categorical_edge_match
    from networkx.algorithms.isomorphism import categorical_node_match

    def to_nx(g):
        out = nx.DiGraph()
        for n in sorted(g.nodes, key=lambda n: (n.block is None, n.block or 0, n.kind)):
            out.add_node(n.id, label=(n.kind, n.block))
        labels: dict = {}
        for e in g.edges:
            labels.setdefault((e.src, e.dst), []).append((e.sign, e.label))
        for (u, v), ls in labels.items():
            out.add_edge(u, v, labels=tuple(sorted(ls)))
        return out

    return nx.is_isomorphic(
        to_nx(ga),
        to_nx(gb),
        node_match=categorical_node_match("label", None),
        edge_match=categorical_edge_match("labels", None),
    )


def structural_verdict(claimed: bool, ga, gb) -> None:
    require(claimed == nx_isomorphic(ga, gb), "structural_equal disagrees with networkx")


def structural_equiv(reports: list, L: int, value_equal: bool, iso: bool) -> None:
    require([r["check"] for r in reports] == ["value-equivalence", "structural-equality"], "kinds")
    require(all(r["depth"] == L for r in reports), "equiv: depth")
    require(reports[0]["pass"] is value_equal, "equiv: value verdict")
    require(reports[1]["pass"] is iso, "equiv: structural verdict")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def friedman_nemenyi(payload: dict, csv_text: str, alpha: float) -> None:
    """tau_chi2, tau_F and CD recomputed from the CSV, with q from scipy's
    studentized range at df=inf."""
    import numpy as np
    from scipy.stats import rankdata, studentized_range

    rows = [r for r in csv.reader(csv_text.splitlines()) if r][1:]
    acc = np.array([[float(x) for x in r[1:]] for r in rows])
    k, n = acc.shape
    ranks = np.column_stack([rankdata(-acc[:, j]) for j in range(n)])
    mean = ranks.mean(axis=1)
    chi2 = 12 * n / (k * (k + 1)) * (np.sum(mean**2) - k * (k + 1) ** 2 / 4)
    tau_f = (n - 1) * chi2 / (n * (k - 1) - chi2)
    q = studentized_range.ppf(1 - alpha, k, np.inf) / math.sqrt(2)
    cd = q * math.sqrt(k * (k + 1) / (6 * n))
    fr, nem = payload["friedman"], payload["nemenyi"]
    require(np.allclose(payload["ranks"]["mean_ranks"], mean, rtol=1e-12), "mean ranks")
    require(math.isclose(fr["tau_chi2"], chi2, rel_tol=1e-9), "tau_chi2")
    require(math.isclose(fr["tau_f"], tau_f, rel_tol=1e-9), "tau_F")
    require((fr["df1"], fr["df2"]) == (k - 1, (k - 1) * (n - 1)), "Friedman df")
    # The shipped q values are rounded to three decimals.
    require(math.isclose(nem["q_alpha"], q, rel_tol=2e-4), f"q {nem['q_alpha']} != {q:.4f}")
    require(math.isclose(nem["cd"], cd, rel_tol=2e-4), f"CD {nem['cd']} != {cd:.4f}")
    for a in range(k):
        for b in range(k):
            want = abs(mean[a] - mean[b]) <= nem["cd"]
            require(nem["overlap"][a][b] == want, "Nemenyi overlap")


def canonical(payload: dict, golden_text: str, name: str) -> None:
    require(payload["name"] == name, "parse: spec name is not the file stem")
    require(payload["canonical"] == golden_text, "parse: canonical form changed")


def usage_error(code: int, err: str) -> None:
    require(code == 2, f"malformed input: exit {code}, expected 2")
    require(err.startswith("error: ") and "Traceback" not in err, "malformed: message")


def load(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None
