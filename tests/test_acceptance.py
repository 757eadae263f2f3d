"""Acceptance suite: one test per criterion, one printed line per outcome.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import random
import time
from math import comb, sqrt
from statistics import NormalDist

import pytest

from conftest import derivative_bruteforce, random_affine_spec
from recur.algebra import PathPolynomial, census, poly_add, poly_mul
from recur.archgraph import build_graph, direct_propagation_check, export, structural_equal
from recur.builtins import builtin_spec
from recur.errors import DegenerateError
from recur.expansion import (
    check_structure,
    derivative,
    value_equivalence_report,
    verify_chain_identity,
)
from recur.numeric import finite_diff_check, instantiate, check_derivative
from recur.parser import parse, render
from recur.stats import AccuracyTable, fixture_table, friedman, nemenyi, rank

ALL_BUILTINS = ("chain", "resnet", "newarch", "eq22", "appendix-ex1", "appendix-ex2")


class _Criterion:
    """Collects failures, prints the verdict line, then asserts."""

    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget_s = budget_s
        self.failures: list[str] = []
        self.started = time.perf_counter()

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)

    def finish(self) -> None:
        elapsed = time.perf_counter() - self.started
        verdict = "PASS" if not self.failures else "FAIL"
        print(
            f"ACCEPTANCE {self.number} ({self.label}): {verdict}"
            f" [{elapsed:.3f}s / {self.budget_s:g}s]"
        )
        assert not self.failures, "; ".join(self.failures[:10])
        assert elapsed < self.budget_s, (
            f"criterion {self.number} took {elapsed:.2f}s, budget {self.budget_s}s"
        )


def test_criterion_1_figure2_identity():
    crit = _Criterion(1, "two-block shortcut expansion", 1.0)  # op itself < 1 ms
    start = time.perf_counter()
    product = poly_mul(
        poly_add(PathPolynomial.one(), PathPolynomial.block(2)),
        poly_add(PathPolynomial.one(), PathPolynomial.block(1)),
    )
    op_elapsed = time.perf_counter() - start
    crit.expect(
        product.coefficients == {(): 1, (2,): 1, (1,): 1, (2, 1): 1},
        f"expansion was {product}",
    )
    crit.expect(
        all(c == 1 for c in product.coefficients.values()), "coefficients not all +1"
    )
    crit.expect(op_elapsed < 1e-3, f"expansion took {op_elapsed * 1e3:.3f} ms")
    crit.finish()


def test_criterion_2_resnet_binomial_counts():
    crit = _Criterion(2, "ResNet binomial path counts, L <= 12", 5.0)
    spec = builtin_spec("resnet")
    for L in range(1, 13):
        for j in range(0, L + 1):
            counts = {k: b.count for k, b in census(derivative(spec, L, j)).items()}
            expected = {k: comb(L - j, k) for k in range(0, L - j + 1)}
            crit.expect(
                counts == expected, f"L={L} j={j}: {counts} != binomial {expected}"
            )
    crit.finish()


def test_criterion_3_newarch_laws():
    crit = _Criterion(3, "single path per length, widest, prefix nesting", 1.0)
    spec = builtin_spec("newarch")
    for L in range(1, 13):
        for j in range(0, L + 1):
            poly = derivative(spec, L, j)
            single = check_structure(poly, "single-path", L, j)
            widest = check_structure(poly, "widest", L, j)
            crit.expect(single.passed, f"L={L} j={j}: not single-path")
            crit.expect(widest.passed, f"L={L} j={j}: not widest")
        poly = derivative(spec, L, 0)
        by_length = {len(f): f for f, _ in poly.canonical_items()}
        for k in range(1, L + 1):
            crit.expect(
                by_length[k][: k - 1] == by_length[k - 1],
                f"L={L}: length-{k} path does not extend length-{k - 1}",
            )
    crit.finish()


def test_criterion_4_oracle_equivalence_on_random_specs():
    crit = _Criterion(4, "derivative == brute force on 200 random specs", 30.0)
    rng = random.Random(20230841)
    for trial in range(200):
        spec = random_affine_spec(rng, max_lag_cap=3)
        L = rng.randint(max(1, spec.first_rule_index), 8)
        for j in range(0, L + 1):
            fast = derivative(spec, L, j)
            slow = derivative_bruteforce(spec, L, j)
            crit.expect(
                fast == slow,
                f"trial {trial}, L={L}, j={j}: {render(spec)!r} disagrees",
            )
    crit.finish()


def test_criterion_5_value_vs_structure_dichotomy():
    crit = _Criterion(5, "value-equivalent but structurally different", 1.0)
    newarch = builtin_spec("newarch")
    eq22 = builtin_spec("eq22")
    crit.expect(
        value_equivalence_report(newarch, eq22, 6).passed, "unrolls differ at L=6"
    )
    crit.expect(
        not structural_equal(build_graph(newarch, 6), build_graph(eq22, 6)),
        "graphs unexpectedly isomorphic",
    )
    rep_new = direct_propagation_check(build_graph(newarch, 6))
    rep_eq22 = direct_propagation_check(build_graph(eq22, 6))
    crit.expect(
        all(e.has_direct_identity for e in rep_new.entries),
        "newarch pair without direct identity",
    )
    crit.expect(
        all(not e.has_direct_identity for e in rep_eq22.entries),
        "eq22 pair with direct identity",
    )
    crit.finish()


def test_criterion_6_chain_rule_identity():
    crit = _Criterion(6, "two-step chain-rule identity, m = 2..12", 1.0)
    spec = builtin_spec("newarch")
    for m in range(2, 13):
        crit.expect(verify_chain_identity(spec, m), f"identity fails at m={m}")
    crit.finish()


def test_criterion_7_numeric_jacobians():
    crit = _Criterion(7, "polynomial vs exact Jacobians and tanh FD", 10.0)
    dims = (1, 2, 4, 8)
    depths = (1, 2, 3, 4, 5, 6)
    seeds = range(20)
    for name in ALL_BUILTINS:
        spec = builtin_spec(name)
        for L in depths:
            polys = {j: derivative(spec, L, j) for j in range(0, L + 1)}
            for d in dims:
                for seed in seeds:
                    net = instantiate(spec, L, d, seed=seed)
                    for j, poly in polys.items():
                        res = check_derivative(net, poly, j, tol=1e-10)
                        crit.expect(
                            res.passed,
                            f"{name} L={L} d={d} seed={seed} j={j}:"
                            f" error {res.error:.2e} > 1e-10",
                        )
    for name in ("chain", "resnet"):
        spec = builtin_spec(name)
        for seed in range(5):
            net = instantiate(spec, 4, 4, seed=seed, activation="tanh")
            for j in range(0, 4):
                res = finite_diff_check(net, j, epsilon=1e-5, tol=1e-4)
                crit.expect(
                    res.passed,
                    f"{name} tanh seed={seed} j={j}: error {res.error:.2e} > 1e-4",
                )
    crit.finish()


def test_criterion_8_statistics():
    crit = _Criterion(8, "CD values, worked Friedman example, fixture ranks", 1.0)

    table1 = fixture_table("table1")
    nem = nemenyi(rank(table1), 0.05)  # k=8, N=3
    # q(0.95; 8, inf) / sqrt(2) from scipy.stats.studentized_range.
    crit.expect(abs(nem.cd - 2 * 3.030878449614413) <= 1e-12, f"CD(8,3) = {nem.cd}")
    crit.expect(abs(nem.q_alpha - 3.030878449614413) <= 1e-12, f"q(8) = {nem.q_alpha}")

    two = AccuracyTable(
        methods=("A", "B"),
        datasets=("d0", "d1", "d2"),
        values=((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)),
    )
    nem2 = nemenyi(rank(two), 0.05)  # k=2, N=3
    crit.expect(
        abs(nem2.cd - NormalDist().inv_cdf(0.975) * sqrt(1 / 3)) <= 1e-12,
        f"CD(2,3) = {nem2.cd}",
    )

    worked = AccuracyTable(
        methods=("A", "B", "C"),
        datasets=("d1", "d2"),
        values=((3.0, 2.0), (2.0, 3.0), (1.0, 1.0)),
    )
    result = friedman(rank(worked))
    crit.expect(result.tau_chi2 == 3.0, f"tau_chi2 = {result.tau_chi2}")
    crit.expect(result.tau_f == 3.0, f"tau_F = {result.tau_f}")

    perfect = AccuracyTable(
        methods=("A", "B", "C"),
        datasets=("d1", "d2"),
        values=((3.0, 3.0), (2.0, 2.0), (1.0, 1.0)),
    )
    try:
        friedman(rank(perfect))
        crit.expect(False, "perfect agreement did not raise DegenerateError")
    except DegenerateError:
        pass

    means = dict(zip(table1.methods, rank(table1).mean_ranks))
    for baseline in ("ResNet34", "ResNet50", "ResNet101"):
        crit.expect(
            means[baseline + "s"] < means[baseline],
            f"{baseline}s rank {means[baseline + 's']}"
            f" not better than {means[baseline]}",
        )
    crit.finish()


def test_criterion_9_round_trips():
    crit = _Criterion(9, "parser round trip and export determinism", 5.0)
    rng = random.Random(424242)
    for trial in range(100):
        spec = random_affine_spec(rng)
        crit.expect(
            parse(render(spec), name=spec.name) == spec,
            f"round trip failed on trial {trial}: {render(spec)!r}",
        )
    for name in ALL_BUILTINS:
        spec = builtin_spec(name)
        graph = build_graph(spec, 5)
        for fmt in ("dot", "json"):
            first = export(graph, fmt)
            second = export(build_graph(builtin_spec(name), 5), fmt)
            crit.expect(
                first == second, f"{name} {fmt} export not byte-identical"
            )
        payload = json.loads(export(graph, "json"))
        crit.expect(
            set(payload) == {"name", "depth", "nodes", "edges"},
            f"{name} JSON schema keys {sorted(payload)}",
        )
    crit.finish()
