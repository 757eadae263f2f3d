import random
from math import comb

import pytest

from conftest import derivative_bruteforce, random_affine_spec
from recur.algebra import PathPolynomial, census, poly_add, poly_mul, render_poly
from recur.builtins import builtin_spec
from recur import expansion
from recur.errors import SizeError
from recur.expansion import (
    check_structure,
    derivative,
    derivative_census,
    derivatives,
    one_budget,
    unroll,
    value_equivalence_report,
    verify_chain_identity,
)
from recur.parser import ArchitectureSpec, parse, render

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


def _census_routes_agree(spec, L, j):
    routed, full = derivative_census(spec, L, j), census(derivative(spec, L, j))
    assert list(routed.items()) == list(full.items()), (render(spec), L, j)


def test_derivative_census_equals_census_of_derivative_on_builtins():
    for name in ("chain", "resnet", "newarch", "eq22", "appendix-ex1", "appendix-ex2"):
        spec = builtin_spec(name)
        for L in range(1, 13):
            for j in range(0, L + 1):
                _census_routes_agree(spec, L, j)


@pytest.mark.parametrize("max_lag_cap", [1, 3])
def test_derivative_census_equals_census_of_derivative_on_random_specs(max_lag_cap):
    rng = random.Random(2800 + max_lag_cap)
    for _ in range(80):
        spec = random_affine_spec(rng, max_lag_cap)
        L = rng.randint(max(1, spec.first_rule_index), 8)
        for j in range(0, L + 1):
            _census_routes_agree(spec, L, j)


def test_derivative_census_sums_a_last_push_that_repeats_words():
    # One push lands on X[0], but W[1]^a * W[1] and W[1]^(a-1) * W[1]*W[1]
    # are one word: (W[1] + W[1]^2)^3 has one word of each length 3..6.
    spec = parse("X[0] = input\nX[i] = (W[1] + W[1]*W[1])*X[i-1]\n")
    assert derivative_census(spec, 3, 0) == {
        3: (1, 1), 4: (1, 3), 5: (1, 3), 6: (1, 1)
    }
    # (p*W[i]) * W[i-1] = p * (W[i]*W[i-1]), both p and p*W[i] pushed by X[i+1].
    shifted = parse(
        "X[0] = input\nX[1] = (1 + W[1])*X[0]\n"
        "X[i] = (1 + W[i])*(1 + W[i-1])*X[i-1]\n"
    )
    for spec in (spec, shifted):
        for L in range(1, 7):
            for j in range(0, L + 1):
                _census_routes_agree(spec, L, j)


def _products(monkeypatch):
    """The list each poly_mul of the expansion loop appends to."""
    products = []

    def counted(a, b):
        products.append(len(a) * len(b))
        return poly_mul(a, b)

    monkeypatch.setattr(expansion, "poly_mul", counted)
    return products


def _built(monkeypatch, spec, L, j):
    """The products derivative_census(spec, L, j) builds."""
    products = _products(monkeypatch)
    derivative_census(spec, L, j)
    return len(products)


def test_derivative_census_builds_no_product_into_a_carried_state(monkeypatch):
    carried = [RESNET, CHAIN, EQ22]
    carried += map(builtin_spec, ("appendix-ex1", "appendix-ex2"))
    for L in range(1, 11):
        for j in range(0, L + 1):
            for spec in carried:
                assert _built(monkeypatch, spec, L, j) == 0, (spec.name, L, j)
        assert _built(monkeypatch, NEWARCH, L, L - 1) == 0, L
    products = _products(monkeypatch)
    derivative(RESNET, 10, 0)
    assert products == [2 * 2**k for k in range(10)]
    assert derivative_census(RESNET, 10, 0) == census(
        derivative_bruteforce(RESNET, 10, 0)
    )


def _census_matches_bruteforce(spec, L, j):
    assert derivative_census(spec, L, j) == census(
        derivative_bruteforce(spec, L, j)
    ), (render(spec), L, j)


# resnet's rule over base cases whose push into X[1] repeats words: X[3]
# reuses W[2], so d X[L]/d X[2] * (1 + W[2]) holds w*W[2] twice.
STRETCH = parse(
    "X[0] = input\nX[1] = (1 + W[1])*X[0]\nX[2] = (1 + W[2])*X[1]\n"
    "X[3] = (1 + W[2])*X[2]\nX[i] = (1 + W[i])*X[i-1]\n"
)


def test_derivative_census_of_a_built_stretch():
    for L in range(1, 9):
        for j in range(0, L + 1):
            _census_matches_bruteforce(STRETCH, L, j)
    # (1 + W[2])*(1 + W[2]) = 1 + 2*W[2] + W[2]*W[2]: one word of length 1
    assert derivative_census(STRETCH, 3, 1) == {0: (1, 1), 1: (1, 2), 2: (1, 1)}


def test_derivative_census_carries_a_shared_prefix_whose_next_block_is_new(
    monkeypatch,
):
    # W[i] and W[i]*W[i] into X[i-1]: every path on from X[i-1] starts with
    # a block below i, so W[i] followed by one never spells W[i]*W[i]
    # followed by another.
    spec = parse("X[0] = input\nX[i] = (W[i] + W[i]*W[i])*X[i-1]\n")
    for L in range(1, 9):
        for j in range(0, L + 1):
            assert _built(monkeypatch, spec, L, j) == 0, (L, j)
            _census_matches_bruteforce(spec, L, j)


@pytest.mark.parametrize(
    "text",
    [
        # two empty words: the identity's coefficient in X[L-2] adds up
        "X[0] = input\nX[1] = X[0]\nX[i] = X[i-1] + X[i-2]\n",
        # an absolute block that repeats: 1 then W[1] is W[1] then 1
        "X[0] = input\nX[i] = (1 + W[1])*X[i-1]\n",
        # a shared prefix whose next block repeats: W[i] then W[i-1] into
        # X[i-2] is W[i]*W[i-1] into X[i-2]
        "X[0] = input\nX[1] = W[1]*X[0]\nX[i] = W[i]*X[i-1] + W[i]*W[i-1]*X[i-2]\n",
    ],
    ids=["empty-words", "absolute-block", "shared-prefix"],
)
def test_derivative_census_builds_a_formula_whose_words_may_repeat(
    monkeypatch, text
):
    spec = parse(text)
    for L in range(1, 9):
        for j in range(0, L + 1):
            _census_matches_bruteforce(spec, L, j)
    assert _built(monkeypatch, spec, 8, 0) > 0


@pytest.mark.parametrize("max_lag_cap", [1, 2, 3, 4])
def test_derivative_census_matches_bruteforce_on_random_specs(
    monkeypatch, max_lag_cap
):
    # Both routes run: some (L, j) are counted with no product, some built.
    rng = random.Random(3000 + max_lag_cap)
    routes = set()
    for _ in range(40):
        spec = random_affine_spec(rng, max_lag_cap)
        L = rng.randint(max(1, spec.first_rule_index), 8)
        for j in range(0, L + 1):
            _census_matches_bruteforce(spec, L, j)
            if j < L - 1:
                routes.add(_built(monkeypatch, spec, L, j) > 0)
    assert routes == {False, True}


@pytest.mark.parametrize("spec", [RESNET, CHAIN], ids=["resnet", "chain"])
def test_derivative_census_stops_where_derivative_does(monkeypatch, spec):
    # Each state's running total at L = 10: the 10 steps up front, then the
    # push from X[10-k], 2^k or 1 terms of 1 + (k + 1) + 1 cells, times the
    # 2 or 1 terms of its coefficient.
    terms = 2 if spec is RESNET else 1
    charged = {11: 10 * expansion.STEP_CELLS}
    for k in range(10):
        charged[10 - k] = charged[11 - k] + terms ** (k + 1) * (k + 3)
    for state, total in charged.items():
        monkeypatch.setattr(expansion, "EXPANSION_BUDGET", total - 1)
        errors = []
        for route in (derivative, derivative_census):
            with pytest.raises(SizeError) as info:
                route(spec, 10, 0)
            errors.append(str(info.value))
        where = f"at X[{state}]" if state <= 10 else "down to X[0]"
        assert errors[0] == errors[1] == (
            f"expanding X[10] {where} charges {total} cells,"
            f" past the expansion budget of {total - 1}"
        )
    monkeypatch.setattr(expansion, "EXPANSION_BUDGET", charged[1])
    assert derivative_census(spec, 10, 0) == census(derivative(spec, 10, 0))


@pytest.mark.parametrize("max_lag_cap", [1, 3])
def test_derivative_census_stops_where_derivative_does_on_random_specs(
    monkeypatch, max_lag_cap
):
    # Budgets just above the steps' charge: about a third of the passes stop
    # part way.
    rng = random.Random(2900 + max_lag_cap)
    stopped = 0
    for _ in range(80):
        spec = random_affine_spec(rng, max_lag_cap)
        L = rng.randint(max(1, spec.first_rule_index), 8)
        j = rng.randint(0, L)
        budget = (L - j) * expansion.STEP_CELLS + rng.randint(0, 40)
        monkeypatch.setattr(expansion, "EXPANSION_BUDGET", budget)
        try:
            full = census(derivative(spec, L, j))
        except SizeError as error:
            stopped += 1
            with pytest.raises(SizeError) as info:
                derivative_census(spec, L, j)
            assert str(info.value) == str(error), (render(spec), L, j)
        else:
            assert derivative_census(spec, L, j) == full, (render(spec), L, j)
    assert stopped >= 20


# Specs with zero states: X[L-2], where two pushes cancel, and for L >= 3
# X[2], pushed once by W[i-1] - W[2], which vanishes at i = 3.
ZEROS = [
    parse("X[0] = input\nX[1] = X[0]\nX[i] = X[i-1] - X[i-2]\n"),
    parse(
        "X[0] = input\nX[1] = (1 + W[1])*X[0]\nX[2] = (1 + W[2])*X[1]\n"
        "X[i] = (W[i-1] - W[2])*X[i-1] + X[i-2] + X[i-3]\n"
    ),
]


@pytest.mark.parametrize("spec", ZEROS, ids=["cancel", "vanish"])
def test_derivative_census_stops_where_derivative_does_past_zero_states(
    monkeypatch, spec
):
    # Each budget from the steps' charge up to the first that passes.
    for L in range(3, 7):
        for j in range(0, L + 1):
            budget = (L - j) * expansion.STEP_CELLS
            while True:
                monkeypatch.setattr(expansion, "EXPANSION_BUDGET", budget)
                try:
                    full = census(derivative(spec, L, j))
                except SizeError as error:
                    with pytest.raises(SizeError) as info:
                        derivative_census(spec, L, j)
                    assert str(info.value) == str(error), (L, j, budget)
                    budget += 1
                    continue
                assert derivative_census(spec, L, j) == full, (L, j, budget)
                break


def test_derivative_census_instantiates_only_the_states_it_pops(monkeypatch):
    # chain at L = 60000 passes the budget at X[57622]: the census
    # instantiates none of the other 57,622 states.
    calls = []
    instantiate = ArchitectureSpec.instantiate_terms
    monkeypatch.setattr(
        ArchitectureSpec,
        "instantiate_terms",
        lambda spec, i: calls.append(i) or instantiate(spec, i),
    )
    with pytest.raises(SizeError, match=r"^expanding X\[60000\] at X\[57622\] "):
        derivative_census(CHAIN, 60000, 0)
    assert calls == list(range(60000, 57621, -1))


@pytest.mark.parametrize("stop", [-1, 5])
def test_one_pass_rejects_a_stop_out_of_range(stop):
    with pytest.raises(ValueError, match="wrt index must be in"):
        next(derivatives(RESNET, 4, stop))


def test_budget_stops_at_the_state_its_charges_predict(monkeypatch):
    # resnet at L = 10: STEP_CELLS for each of the 10 steps up front, then
    # the push from X[10-k] builds 2 * 2^k terms of 1 + (k + 1) + 1 * 1
    # cells: words of k + 1 factors, and coefficients of one 64-bit word
    # (bounded by (k + 1) * 2^k) times those of 1 + W[i].
    charged = {11: 10 * expansion.STEP_CELLS}
    for k in range(10):
        charged[10 - k] = charged[11 - k] + 2 * 2**k * (k + 3)
    full = derivative(RESNET, 10, 0)
    monkeypatch.setattr(expansion, "EXPANSION_BUDGET", charged[1])
    assert derivative(RESNET, 10, 0) == full
    for state in (1, 4, 10):
        monkeypatch.setattr(expansion, "EXPANSION_BUDGET", charged[state] - 1)
        with pytest.raises(SizeError) as info:
            derivative(RESNET, 10, 0)
        assert str(info.value) == (
            f"expanding X[10] at X[{state}] charges {charged[state]} cells,"
            f" past the expansion budget of {charged[state] - 1}"
        )
    monkeypatch.setattr(expansion, "EXPANSION_BUDGET", charged[11] - 1)
    with pytest.raises(SizeError, match=r"^expanding X\[10\] down to X\[0\] charges"):
        next(derivatives(RESNET, 10, 0))


def test_budget_prices_word_length_and_coefficient_size(monkeypatch):
    # One term a state in all three.  X[i] = X[i-1] charges 1 + 1 cells a
    # push, so the budget below holds its 50 steps exactly.  chain's push
    # from X[50-k] charges 1 + (k + 1) + 1: past the budget at k = 11.  A
    # 40-digit (133-bit) coefficient c charges 1 + 3 * (the 64-bit words of
    # 133k + (k + 1).bit_length() bits) for c^k * c: 4, 10, 16, 22, 28, 34,
    # past the budget at k = 5.
    monkeypatch.setattr(expansion, "EXPANSION_BUDGET", 50 * expansion.STEP_CELLS + 100)
    copy = parse("X[0] = input\nX[i] = X[i-1]\n")
    long = parse("X[0] = input\nX[i] = " + "9" * 40 + "*X[i-1]\n")
    assert len(derivative(copy, 50, 0)) == 1
    for spec, state in ((CHAIN, 39), (long, 45)):
        with pytest.raises(SizeError, match=rf"^expanding X\[50\] at X\[{state}\] "):
            derivative(spec, 50, 0)


def test_one_budget_charges_a_sweep_of_passes_together(monkeypatch):
    # Each newarch pass charges 2 steps, then 3 cells for each of the 3
    # terms pushed from X[m], and 4 for each of the 2 * 2 from X[m-1].
    per_pass = 2 * expansion.STEP_CELLS + 9 + 16
    budget = 3 * per_pass + 2 * expansion.STEP_CELLS + 5
    monkeypatch.setattr(expansion, "EXPANSION_BUDGET", budget)
    shared = one_budget(8)
    assert all(verify_chain_identity(NEWARCH, m, shared) for m in (2, 3, 4))
    with pytest.raises(SizeError) as info:
        verify_chain_identity(NEWARCH, 5, shared)
    assert str(info.value) == (
        f"expanding X[5] at X[5] charges {budget + 1} cells,"
        f" past the expansion budget of {budget}"
    )
    assert verify_chain_identity(NEWARCH, 5)  # alone, each pass fits
    with pytest.raises(SizeError, match="^a sweep of 9 steps charges"):
        one_budget(9)


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
        (1, "W[3]", "-2*W[3] - W[2] + 2*W[1]"),
        (2, "W[3]*W[2]", "4*W[3]*W[2] - 4*W[3]*W[1] - W[2]*W[1]"),
    ]


def test_widest_violation_text_is_the_sum_expand_writes():
    # One sum renderer: a failing length reads as its terms would in
    # expand's output, "- W[1]" after a term, not "+ -W[1]".
    spec = parse("X[i] = (1 - W[i])*X[i-1]; X[0] = input")
    poly = derivative(spec, 2, 0)
    assert render_poly(poly) == "1 - W[2] - W[1] + W[2]*W[1]"
    report = check_structure(poly, "widest", 2, 0)
    assert [(v.length, v.expected, v.actual) for v in report.violations] == [
        (1, "W[2]", "-W[2] - W[1]"),
    ]


def test_newarch_prefix_nesting():
    # Each longer path extends the previous one on the right.
    for L in range(2, 10):
        poly = derivative(NEWARCH, L, 0)
        by_length = {len(f): f for f in poly.canonical_columns()[0]}
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
