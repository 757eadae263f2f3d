import random
from math import comb

import pytest

from conftest import derivative_bruteforce, random_affine_spec
from recur.algebra import PathPolynomial, census, poly_add, poly_mul
from recur.builtins import builtin_spec
from recur.errors import DepthError
from recur.expansion import (
    check_structure,
    derivative,
    derivatives,
    unroll,
    value_equivalence_report,
    verify_chain_identity,
)
from recur.parser import parse, render

RESNET = builtin_spec("resnet")
CHAIN = builtin_spec("chain")
NEWARCH = builtin_spec("newarch")
EQ22 = builtin_spec("eq22")


def test_unroll_resnet_depth_two():
    expansion = unroll(RESNET, 2)
    assert set(expansion.components) == {0}
    assert expansion.components[0].coefficients == {
        (): 1,
        (2,): 1,
        (1,): 1,
        (2, 1): 1,
    }


def test_unroll_chain_single_term():
    expansion = unroll(CHAIN, 3)
    assert expansion.components[0].coefficients == {(3, 2, 1): 1}


def test_unroll_newarch_base():
    expansion = unroll(NEWARCH, 1)
    assert expansion.components[0].coefficients == {(): 1, (1,): 1}


def test_unroll_newarch_telescopes_to_single_paths():
    # X_L = 1 + W_L + W_L W_{L-1} + ... + W_L...W_1, one term per length.
    for L in range(1, 8):
        poly = unroll(NEWARCH, L).components[0]
        assert {k: b.count for k, b in census(poly).items()} == {
            k: 1 for k in range(L + 1)
        }


def test_unroll_of_a_state_that_cancels_to_zero():
    # derivative(spec, 5, 0) of this drawn formula is exactly zero.
    spec = random_affine_spec(random.Random(5370))
    assert derivative(spec, 5, 0).is_zero()
    expansion = unroll(spec, 5)
    assert expansion.components == {}
    assert str(expansion) == "0"


def test_derivative_resnet_counts():
    poly = derivative(RESNET, 3, 0)
    assert len(poly) == 8
    assert {k: b.count for k, b in census(poly).items()} == {0: 1, 1: 3, 2: 3, 3: 1}


def test_derivative_newarch_single_paths():
    poly = derivative(NEWARCH, 4, 1)
    assert poly.coefficients == {
        (): 1,
        (4,): 1,
        (4, 3): 1,
        (4, 3, 2): 1,
    }


def test_derivative_drops_each_state_once_pushed():
    # appendix-ex2 at L = 20: 17,711 terms.  Keeping every pushed state to
    # the end peaked at 2.16 times what the result holds, dropping each
    # once pushed at 1.54 times.  ``derivatives`` yields a state before it
    # pushes it on; yielding it after, while ``derivative`` still holds the
    # state before, peaked at 1.78 times.
    import tracemalloc

    spec = builtin_spec("appendix-ex2")
    derivative(spec, 20, 0)  # instantiates the spec's terms
    tracemalloc.start()
    try:
        poly = derivative(spec, 20, 0)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(poly) == 17711
    assert peak <= 1.7 * held, (held, peak)


def test_derivative_at_final_state_is_identity():
    for spec in (RESNET, CHAIN, NEWARCH, EQ22):
        for L in (1, 3, 5):
            assert derivative(spec, L, L) == PathPolynomial.one()


def test_derivative_chain_is_single_product():
    assert derivative(CHAIN, 5, 2).coefficients == {(5, 4, 3): 1}
    assert derivative_bruteforce(CHAIN, 5, 2).coefficients == {(5, 4, 3): 1}


def test_bruteforce_matches_backward_on_builtins():
    for name in ("chain", "resnet", "newarch", "eq22", "appendix-ex1", "appendix-ex2"):
        spec = builtin_spec(name)
        for L in range(1, 9):
            for j in range(0, L + 1):
                assert derivative(spec, L, j) == derivative_bruteforce(spec, L, j), (
                    name,
                    L,
                    j,
                )


def test_bruteforce_matches_backward_on_random_specs():
    rng = random.Random(777)
    for _ in range(60):
        spec = random_affine_spec(rng)
        L = rng.randint(max(1, spec.first_rule_index), 8)
        for j in range(0, L + 1):
            assert derivative(spec, L, j) == derivative_bruteforce(spec, L, j)


def _one_pass_and_per_j(spec, L, stop):
    one_pass = [(i, list(p.items())) for i, p in derivatives(spec, L, stop)]
    per_j = [(i, list(derivative(spec, L, i).items())) for i in range(L, stop - 1, -1)]
    return one_pass, per_j


def test_one_pass_equals_per_j_derivative_on_builtins():
    # Items and insertion order: verify sums its floats in that order.
    for name in ("chain", "resnet", "newarch", "eq22", "appendix-ex1", "appendix-ex2"):
        spec = builtin_spec(name)
        for L in (1, 2, 5, 9, 12):
            for stop in range(0, L + 1):
                one_pass, per_j = _one_pass_and_per_j(spec, L, stop)
                assert one_pass == per_j, (name, L, stop)


def test_one_pass_equals_per_j_derivative_on_random_specs():
    rng = random.Random(4242)
    for _ in range(60):
        spec = random_affine_spec(rng)
        L = rng.randint(max(1, spec.first_rule_index), 8)
        for stop in range(0, L + 1):
            one_pass, per_j = _one_pass_and_per_j(spec, L, stop)
            assert one_pass == per_j, (render(spec), L, stop)


@pytest.mark.parametrize("stop", [-1, 5])
def test_one_pass_rejects_a_stop_out_of_range(stop):
    with pytest.raises(ValueError, match="wrt index must be in"):
        next(derivatives(RESNET, 4, stop))


def test_depth_cap():
    with pytest.raises(DepthError):
        unroll(RESNET, 25)
    with pytest.raises(DepthError):
        derivative(RESNET, 30, 0)
    # The cap is configurable.
    longest = max(map(len, derivative(CHAIN, 25, 0, depth_cap=30).coefficients))
    assert longest == 25


@pytest.mark.parametrize("route", [derivative, derivative_bruteforce])
@pytest.mark.parametrize("wrt", [-1, 5])
def test_wrt_out_of_range_rejected(route, wrt):
    with pytest.raises(ValueError):
        route(RESNET, 4, wrt)


def test_check_binomial_passes_for_resnet():
    report = check_structure(derivative(RESNET, 4, 0), "binomial", 4, 0, "resnet")
    assert report.passed
    assert report.to_dict()["pass"] is True
    counts = census(derivative(RESNET, 4, 0))
    assert [counts[k].count for k in range(5)] == [comb(4, k) for k in range(5)]


def test_check_single_path_and_widest_for_newarch():
    poly = derivative(NEWARCH, 6, 1)
    assert check_structure(poly, "single-path", 6, 1).passed
    assert check_structure(poly, "widest", 6, 1).passed


def test_binomial_check_fails_for_newarch():
    poly = derivative(NEWARCH, 6, 1)  # i = 5
    report = check_structure(poly, "binomial", 6, 1, "newarch")
    assert not report.passed
    at_two = [v for v in report.violations if v.length == 2]
    assert at_two and at_two[0].expected == comb(5, 2) == 10
    assert at_two[0].actual == 1


def test_widest_check_fails_for_resnet():
    poly = derivative(RESNET, 4, 0)
    report = check_structure(poly, "widest", 4, 0)
    assert not report.passed


def test_widest_violations_list_each_signed_term():
    spec = parse(
        "X[0] = input; X[1] = (1 + W[1])*X[0];"
        " X[i] = (1 - 2*W[i])*X[i-1] + W[i-1]*X[i-2]"
    )
    report = check_structure(derivative(spec, 3, 0), "widest", 3, 0)
    assert [(v.length, v.expected, v.actual) for v in report.violations] == [
        (1, "W[3]", "-2*W[3] + -W[2] + 2*W[1]"),
        (2, "W[3]*W[2]", "4*W[3]*W[2] + -4*W[3]*W[1] + -W[2]*W[1]"),
    ]


def test_newarch_prefix_nesting():
    # Each longer path extends the previous one on the right.
    for L in range(2, 10):
        poly = derivative(NEWARCH, L, 0)
        by_length = {len(f): f for f, _ in poly.canonical_items()}
        for k in range(1, L + 1):
            assert by_length[k][: k - 1] == by_length[k - 1]


def test_value_equivalence_newarch_eq22():
    report = value_equivalence_report(NEWARCH, EQ22, 6)
    assert report.passed and not report.violations


def test_value_equivalence_negative_and_reflexive():
    report = value_equivalence_report(RESNET, CHAIN, 2)
    assert not report.passed and report.violations
    for spec in (RESNET, CHAIN, NEWARCH, EQ22):
        assert value_equivalence_report(spec, spec, 5).passed


def test_chain_identity_for_newarch():
    assert verify_chain_identity(NEWARCH, 2)
    assert verify_chain_identity(NEWARCH, 4)
    # Both sides at m=4 equal 1 + W4 + W4W3.
    lhs = derivative(NEWARCH, 4, 2)
    assert lhs.coefficients == {(): 1, (4,): 1, (4, 3): 1}


def test_chain_identity_fails_for_resnet():
    assert not verify_chain_identity(RESNET, 2)
    assert not verify_chain_identity(RESNET, 5)


def test_chain_identity_expansion_oracle():
    # Expand the right-hand side by hand with poly_mul and compare.
    for m in (2, 3, 5, 8):
        one_plus = poly_add(PathPolynomial.one(), PathPolynomial.block(m - 1))
        rhs = poly_add(
            poly_mul(derivative(NEWARCH, m, m - 1), one_plus),
            -PathPolynomial.block(m - 1),
        )
        assert rhs == derivative(NEWARCH, m, m - 2)
        assert verify_chain_identity(NEWARCH, m)
