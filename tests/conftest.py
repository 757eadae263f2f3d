"""Shared helpers: random spec generators with reproducible seeds, the
graph-to-terms oracle, and a fresh interpreter for checks that depend on
what a process has imported."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

from recur.algebra import PathPolynomial
from recur.archgraph import BLOCK, IDENTITY, INPUT, JUNCTION, TAP, ArchGraph
from recur.parser import (
    ArchitectureSpec,
    BaseCase,
    CoefficientExpr,
    RecursionRule,
    RuleTerm,
    parse,
    render,
)

INDEX_VARS = ("i", "q", "n", "m")
SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_env() -> dict[str, str]:
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``,
    for a new interpreter that must import this ``recur``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with this checkout's ``src`` first on
    the path; return its stdout, failing on a non-zero exit."""
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=fresh_env()
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _random_abs_coeff(rng: random.Random, max_index: int) -> CoefficientExpr:
    """Random nonzero coefficient over absolute W[1..max_index] atoms."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        n_atoms = rng.randint(0, 1) if max_index >= 1 else 0
        atoms = tuple(("abs", rng.randint(1, max_index)) for _ in range(n_atoms))
        terms[atoms] = terms.get(atoms, 0) + rng.choice((-2, -1, 1, 2))
    expr = CoefficientExpr(terms)
    return expr if not expr.is_zero() else CoefficientExpr({(): 1})


def _random_rel_coeff(
    rng: random.Random, max_offset: int, max_degree: int = 2
) -> CoefficientExpr:
    """Random nonzero coefficient over relative W[v-c] atoms, c <= max_offset."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        degree = rng.randint(0, max_degree)
        atoms = tuple(("rel", rng.randint(0, max_offset)) for _ in range(degree))
        terms[atoms] = terms.get(atoms, 0) + rng.choice((-2, -1, 1, 2))
    expr = CoefficientExpr(terms)
    return expr if not expr.is_zero() else CoefficientExpr({(): 1})


def random_affine_spec(rng: random.Random, max_lag_cap: int = 3) -> ArchitectureSpec:
    """A random valid spec with lags up to max_lag_cap.

    Coefficients may have degree up to 2, so these specs exercise the
    algebra and the parser but not necessarily the graph compiler.
    """
    max_lag = rng.randint(1, max_lag_cap)
    base_cases = [BaseCase(0, is_input=True)]
    for j in range(1, max_lag):
        sources = list(range(j))
        rng.shuffle(sources)
        pairs = tuple(
            (src, _random_abs_coeff(rng, j))
            for src in sorted(sources[: rng.randint(1, j)])
        )
        base_cases.append(BaseCase(index=j, terms=pairs))
    i_min = max_lag

    lags = [lag for lag in range(1, max_lag + 1) if rng.random() < 0.7]
    if not lags:
        lags = [rng.randint(1, max_lag)]
    terms = [
        RuleTerm(coeff=_random_rel_coeff(rng, i_min - 1), lag=lag) for lag in lags
    ]
    if rng.random() < 0.3:
        terms.append(
            RuleTerm(coeff=_random_abs_coeff(rng, i_min), source=rng.randrange(i_min))
        )
    drawn = ArchitectureSpec(
        rule=RecursionRule(index_var=rng.choice(INDEX_VARS), terms=tuple(terms)),
        base_cases=tuple(base_cases),
    )
    return parse(render(drawn), name="random")


def random_realizable_spec(rng: random.Random, max_lag_cap: int = 3) -> ArchitectureSpec:
    """A random spec the graph compiler can wire without fresh mapped edges.

    Every state's own block reads its lag-1 predecessor, and deeper lags
    reuse existing block outputs (the tap pattern) or identity edges, so
    recover_terms(build_graph(spec, L)) reproduces the coefficients.
    """
    max_lag = rng.randint(1, max_lag_cap)
    base_cases = [BaseCase(0, is_input=True)]
    for j in range(1, max_lag):
        coeff = CoefficientExpr(
            {(): rng.choice((0, 1, 1)), (("abs", j),): rng.choice((-1, 1))}
        )
        base_cases.append(BaseCase(index=j, terms=((j - 1, coeff),)))
    i_min = max_lag

    identity = rng.choice((0, 1, 1))
    own_block = rng.choice((-1, 1))
    terms = [
        RuleTerm(
            coeff=CoefficientExpr({(): identity, (("rel", 0),): own_block}), lag=1
        )
    ]
    for lag in range(2, max_lag + 1):
        if rng.random() < 0.6:
            # a + b*W[v-(lag-1)]: the W factor taps block (i-lag+1),
            # which reads X[i-lag], the term's own source.
            a = rng.choice((-1, 0, 1))
            b = rng.choice((-1, 0, 1))
            if a == 0 and b == 0:
                a = 1
            terms.append(
                RuleTerm(
                    coeff=CoefficientExpr({(): a, (("rel", lag - 1),): b}), lag=lag
                )
            )
    if rng.random() < 0.3:
        terms.append(
            RuleTerm(
                coeff=CoefficientExpr({(): rng.choice((-1, 1))}),
                source=rng.randrange(i_min),
            )
        )
    drawn = ArchitectureSpec(
        rule=RecursionRule(index_var=rng.choice(INDEX_VARS), terms=tuple(terms)),
        base_cases=tuple(base_cases),
    )
    return parse(render(drawn), name="random-realizable")


def recover_terms(g: ArchGraph) -> dict[int, list[tuple[int, PathPolynomial]]]:
    """Re-derive each state's affine dependencies from the wiring.

    The inverse of build_graph for graphs whose mapped edges all run
    through block or tap nodes; a bare mapped edge has no recoverable
    block index and raises ValueError.
    """
    block_input: dict[int, int] = {}
    for n in g.nodes:
        if n.kind != BLOCK:
            continue
        feeds = [s for e in g.in_edges(n.id) if (s := g.node_state(e.src)) is not None]
        if len(feeds) != 1:
            raise ValueError(f"block node {n.id} must have exactly one data edge")
        block_input[n.block] = feeds[0]

    out: dict[int, list[tuple[int, PathPolynomial]]] = {}
    for i in range(1, g.depth + 1):
        acc: dict[int, dict[tuple[int, ...], int]] = {}
        for e in g.in_edges(g.state_node(i)):
            src_node = g.node(e.src)
            if src_node.kind in (INPUT, JUNCTION):
                if e.label != IDENTITY:
                    raise ValueError(
                        f"mapped edge {e.src}->{e.dst} carries no block index"
                    )
                source = g.node_state(e.src)
                key: tuple[int, ...] = ()
            elif src_node.kind in (BLOCK, TAP):
                source = block_input[src_node.block]
                key = (src_node.block,)
            else:
                raise ValueError(f"unexpected edge source kind {src_node.kind}")
            slot = acc.setdefault(source, {})
            slot[key] = slot.get(key, 0) + e.sign
        out[i] = [
            (source, PathPolynomial(terms))
            for source, terms in sorted(acc.items())
            if any(terms.values())
        ]
    return out
