import itertools
import os.path
import random

import numpy as np
import pytest

from conftest import random_affine_spec
from recur import numeric
from recur.algebra import PathPolynomial
from recur.builtins import builtin_spec
from recur.errors import SizeError
from recur.expansion import derivative
from recur.parser import parse, render
from recur.numeric import (
    MAX_MATRIX_ENTRIES,
    ConcreteNet,
    check_derivatives,
    eval_polynomial,
    finite_diff_check,
    forward,
    instantiate,
    jacobian_exact,
)

RESNET = builtin_spec("resnet")
CHAIN = builtin_spec("chain")
NEWARCH = builtin_spec("newarch")

ALL_BUILTINS = ("chain", "resnet", "newarch", "eq22", "appendix-ex1", "appendix-ex2")
BUILTIN_SPECS = [builtin_spec(name) for name in ALL_BUILTINS]


def _scalar_net(spec, *values):
    return ConcreteNet(
        spec=spec, matrices=tuple(np.array([[v]], dtype=float) for v in values)
    )


def test_instantiate_is_deterministic():
    a = instantiate(RESNET, 3, 4, seed=7)
    b = instantiate(RESNET, 3, 4, seed=7)
    for ma, mb in zip(a.matrices, b.matrices):
        assert np.array_equal(ma, mb)
    c = instantiate(RESNET, 3, 4, seed=8)
    assert not np.array_equal(a.matrices[0], c.matrices[0])


def test_instantiate_draws_one_read_only_stack():
    net = instantiate(NEWARCH, 5, 3, seed=9)
    rng = np.random.default_rng(9)
    for m in net.matrices:  # the same doubles as one draw per block
        assert np.array_equal(m, rng.uniform(-0.5, 0.5, size=(3, 3)) / np.sqrt(3))
        assert np.shares_memory(m, net.stack)
    with pytest.raises(ValueError):
        net.matrices[0][0, 0] = 1.0


def test_concrete_net_copies_arrays_its_caller_can_write():
    mine = np.full((2, 3, 3), 0.25)
    view = mine.view()
    view.flags.writeable = False
    for given in (mine, view, list(mine)):
        net = ConcreteNet(spec=CHAIN, matrices=given)
        with pytest.raises(ValueError):
            net.stack[0, 0, 0] = 1.0
        mine[0, 0, 0] = 7.0  # the caller's array changes, the net's does not
        assert net.matrix(1)[0, 0] == 0.25
        assert not np.shares_memory(net.stack, mine)
        mine[0, 0, 0] = 0.25


def test_instantiate_range_scaled_by_sqrt_dim():
    net = instantiate(CHAIN, 2, 1, seed=0)
    for m in net.matrices:
        assert -0.5 <= m[0, 0] <= 0.5
    net4 = instantiate(CHAIN, 5, 4, seed=0)
    bound = 0.5 / 2.0  # 0.5 / sqrt(4)
    for m in net4.matrices:
        assert np.all(np.abs(m) <= bound)


@pytest.mark.parametrize("L, d", [(1, 1_000_000), (2, 4097), (MAX_MATRIX_ENTRIES, 2)])
def test_instantiate_rejects_oversized_nets_before_allocating(L, d):
    with pytest.raises(SizeError):
        instantiate(CHAIN, L, d)


def test_instantiate_stacks_each_seeds_own_doubles():
    seeds = (7, 8, 2**64 + 9)
    net = instantiate(RESNET, 3, 4, seed=list(seeds))
    assert net.stack.shape == (3, 3, 4, 4) and net.matrix(1).shape == (3, 4, 4)
    assert (net.seed, net.depth, net.dim) == (seeds, 3, 4)
    for s, seed in enumerate(seeds):
        assert np.array_equal(net.stack[:, s], instantiate(RESNET, 3, 4, seed).stack)
    with pytest.raises(ValueError):
        net.stack[0, 0, 0, 0] = 1.0


def test_instantiate_bounds_the_whole_stack_before_allocating():
    # One seed fits, 33 of them do not (34,603,008 entries).
    instantiate(CHAIN, 1, 1024, seed=[0])
    with pytest.raises(SizeError, match=r"^33 seeds \* L \* d \* d = 34603008 "):
        instantiate(CHAIN, 1, 1024, seed=range(33))
    with pytest.raises(SizeError, match=r"^L \* d \* d = 1000000000000 matrix"):
        instantiate(CHAIN, 1, 1_000_000, seed=[0])


def test_empty_nets_are_rejected_at_the_constructor():
    with pytest.raises(ValueError, match="one seed or more"):
        instantiate(RESNET, 3, 2, seed=[])
    with pytest.raises(ValueError, match="at least one block"):
        ConcreteNet(RESNET, [])
    with pytest.raises(ValueError, match="at least one block"):
        ConcreteNet(RESNET, np.zeros((0, 2, 2)))
    with pytest.raises(ValueError, match="d >= 1"):
        ConcreteNet(RESNET, np.zeros((2, 0, 0)))
    with pytest.raises(ValueError, match="d >= 1"):
        ConcreteNet(RESNET, np.zeros((2, 3, 0, 0)))


def test_activation_guard():
    # The tanh recursion runs one seed: forward and the finite-difference
    # checks refuse a stacked net before they read its seeds.
    for name in ALL_BUILTINS:
        stacked = instantiate(builtin_spec(name), 3, 4, seed=[7, 8])
        with pytest.raises(ValueError, match="one seed"):
            forward(stacked, np.zeros(4))
        with pytest.raises(ValueError, match="one seed"):
            finite_diff_check(stacked, 0)
        with pytest.raises(ValueError, match="one seed"):
            numeric.finite_diff_checks(stacked, [0, 1], x0=np.zeros(4))


def test_forward_runs_on_any_one_seed_net():
    trace = forward(_scalar_net(RESNET, 0.5, 0.25), np.array([1.0]))
    assert trace.preactivations[0][0] == 1.5
    for name in ALL_BUILTINS:
        net = instantiate(builtin_spec(name), 4, 3, seed=7)
        assert len(forward(net, np.ones(3)).states) == 4
        assert all(r.passed for r in numeric.finite_diff_checks(net, range(4)))


def test_jacobian_exact_runs_on_the_net_finite_diff_used():
    for name in ALL_BUILTINS:
        spec = builtin_spec(name)
        net = instantiate(spec, 4, 3, seed=7)
        numeric.finite_diff_checks(net, range(4))
        for j in range(5):
            fresh = instantiate(spec, 4, 3, seed=7)
            assert np.array_equal(jacobian_exact(net, j), jacobian_exact(fresh, j))
            assert check_derivatives(net, {j: derivative(spec, 4, j)})[0].passed


def test_forward_scalar_resnet():
    trace = forward(_scalar_net(RESNET, 0.5, 0.25, 0.125), np.array([1.0]))
    x, expected = 1.0, []
    for m in (0.5, 0.25, 0.125):
        expected.append(x + m * x)
        x = np.tanh(expected[-1])
    assert [z[0] for z in trace.preactivations] == expected
    assert trace.states[2][0] == x


def test_forward_scalar_chain():
    trace = forward(_scalar_net(CHAIN, 2.0, 3.0), np.array([1.0]))
    assert [z[0] for z in trace.preactivations] == [2.0, 3.0 * np.tanh(2.0)]
    assert trace.states[1][0] == np.tanh(3.0 * np.tanh(2.0))


def test_jacobian_exact_at_final_state_is_identity():
    net = instantiate(NEWARCH, 4, 3, seed=11)
    assert np.array_equal(jacobian_exact(net, 4), np.eye(3))


def test_jacobian_exact_scalar_oracle():
    net = _scalar_net(RESNET, 0.5, 0.25, 0.125)
    assert jacobian_exact(net, 0)[0, 0] == 2.109375


def test_jacobian_exact_evaluates_each_coefficient_once_per_net(monkeypatch):
    calls = []

    def counting(poly, net):
        calls.append(poly)
        return eval_polynomial(poly, net)

    monkeypatch.setattr(numeric, "eval_polynomial", counting)
    for name in ALL_BUILTINS:
        spec = builtin_spec(name)
        net = instantiate(spec, 6, 3, seed=2)
        del calls[:]
        got = [jacobian_exact(net, j) for j in range(0, 7)]
        assert len(calls) == sum(len(spec.instantiate_terms(i)) for i in range(1, 7))
        for j in range(0, 7):
            fresh = instantiate(spec, 6, 3, seed=2)
            assert np.array_equal(got[j], jacobian_exact(fresh, j)), (name, j)


# Base cases X[1..6] each depend on every earlier state: 21 coefficients,
# against one a state for the rule.
WIDE_BASES = parse(
    "X[i] = W[i]*X[i-1]\nX[0] = input\n"
    + "".join(
        f"X[{k}] = " + " + ".join(f"X[{s}]" for s in range(k)) + "\n"
        for k in range(1, 7)
    ),
    name="wide-bases",
)


@pytest.mark.parametrize("spec", [NEWARCH, WIDE_BASES], ids=["newarch", "wide-bases"])
def test_jacobian_exact_keeps_coefficients_within_the_matrix_budget(
    monkeypatch, spec
):
    L, d = 7, 3
    groups = {2: 1, (2, 5, 6): 3}  # seeds -> S
    expected = {
        seeds: [jacobian_exact(instantiate(spec, L, d, seed=seeds), j) for j in range(L + 1)]
        for seeds in groups
    }
    # Room for the net alone keeps nothing; room for L more matrices (one per
    # seed each) keeps at most L coefficients, whatever the number of terms a
    # state has.
    for seeds, S in groups.items():
        for budget, room in ((S * L * d * d, 0), (2 * S * L * d * d, L)):
            monkeypatch.setattr(numeric, "MAX_MATRIX_ENTRIES", budget)
            net = instantiate(spec, L, d, seed=seeds)
            for j in range(L, -1, -1):
                got = jacobian_exact(net, j)
                assert np.array_equal(got, expected[seeds][j]), (seeds, budget, j)
                assert sum(map(len, net._coefficients.values())) <= room


def test_eval_polynomial_identity():
    net = instantiate(CHAIN, 3, 4, seed=2)
    assert np.array_equal(eval_polynomial(PathPolynomial.one(), net), np.eye(4))


def test_eval_polynomial_order_sensitive():
    net = instantiate(CHAIN, 2, 3, seed=3)
    w21 = eval_polynomial(PathPolynomial({(2, 1): 1}), net)
    w12 = eval_polynomial(PathPolynomial({(1, 2): 1}), net)
    assert np.allclose(w21, net.matrix(2) @ net.matrix(1))
    assert not np.allclose(w21, w12)


def test_eval_polynomial_index_error():
    net = instantiate(CHAIN, 2, 2, seed=0)
    with pytest.raises(IndexError):
        eval_polynomial(PathPolynomial({(3,): 1}), net)
    # the bad index comes after a prefix that is already computed
    with pytest.raises(IndexError):
        eval_polynomial(PathPolynomial({(2,): 1, (2, 3): 1}), net)


@pytest.mark.parametrize("d", [2, 23, 91])
def test_eval_polynomial_index_error_after_a_deeper_net(d):
    # 64 terms: one chunk at d = 2 and two at d = 23, term by term at d = 91;
    # what evaluates on a depth-3 net raises on a depth-2 net.
    short = [f for k in (1, 2, 3, 4, 5) for f in itertools.product((2, 1), repeat=k)]
    poly = PathPolynomial({f: 1 for f in short + [(2, 3), (3, 1)]})
    eval_polynomial(poly, instantiate(CHAIN, 3, d, seed=0))
    with pytest.raises(IndexError, match=r"^block index 3 outside \[1, 2\]$"):
        eval_polynomial(poly, instantiate(CHAIN, 2, d, seed=0))


def test_eval_polynomial_memory_does_not_grow_with_terms(monkeypatch):
    import tracemalloc

    def peak(name, L, seed, d=16, sweep=False):
        # The schedule is made first and handed over, so the peak is the
        # evaluation's own; test_schedule_memory_stays_bounded_on_many_terms
        # bounds the schedule's.
        spec = builtin_spec(name)
        polys = [derivative(spec, L, j) for j in range(L + 1 if sweep else 1)]
        net = instantiate(spec, L, d, seed=seed)
        schedule = numeric._schedule(polys, numeric.CHUNK_ENTRIES // net.stack[0].size)
        monkeypatch.setattr(numeric, "_schedule", lambda *args: schedule)
        tracemalloc.start()
        try:
            numeric.eval_polynomials(polys, net)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            monkeypatch.undo()

    budget = numeric.CHUNK_ENTRIES * 8  # bytes
    # One seed, and stacks of 3 and 16 seeds (16 x 4 x 4: 128-term chunks):
    # a step holds CHUNK_ENTRIES entries over the whole stack.  A sweep adds
    # one running total per polynomial and seed, and each of its chunks may
    # hold one more term per polynomial.
    for seed, d in ((1, 16), ([1, 2, 3], 16), (list(range(16)), 4)):
        for sweep, L in ((False, 16), (True, 14)):
            totals = (L + 1) * 16 * d * d * 8 if sweep else 0
            small = peak("resnet", 8, seed, d, sweep)  # 256 terms, 511 in the sweep
            large = peak("resnet", L, seed, d, sweep)  # 65,536, 32,767 in the sweep
            assert large <= min(2 * small, 10 * budget) + totals, (seed, sweep, small, large)
            # Long terms that share few prefixes make several products each.
            assert peak("appendix-ex2", 14, seed, d, sweep) <= 10 * budget + totals, seed


def test_eval_term_by_term_memory_does_not_grow_with_terms():
    import tracemalloc

    def peak(L, seed, sweep):
        polys = [derivative(RESNET, L, j) for j in range(L + 1 if sweep else 1)]
        net = instantiate(RESNET, L, 16, seed=seed)
        tracemalloc.start()
        try:
            numeric._eval_term_by_term(polys, net)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 256 and 65,536 terms: only the L prefix products grow, not a copy of
    # the terms (2.66 MB at L = 16), for one seed or a stack of them; a
    # sweep (511 and 32,767 terms) adds one total per polynomial.
    for seed in (1, [1, 2, 3]):
        for sweep, L in ((False, 16), (True, 14)):
            small, large = peak(8, seed, sweep), peak(L, seed, sweep)
            assert large <= 4 * small, (seed, sweep, small, large)


def _term_by_term_scaling_every_term(polys, net):
    """_eval_term_by_term with every term multiplied by its float
    coefficient, 1 included, and a fresh identity for each identity term."""
    totals, previous, prefix = [], "", []
    for poly in polys:
        total = np.zeros(net.stack.shape[1:])
        for word, coeff in poly.items():
            shared = 0
            for a, b in zip(previous, word):
                if a != b:
                    break
                shared += 1
            del prefix[shared:]
            for code in word[shared:]:
                block = net.matrix(ord(code))
                prefix.append(prefix[-1] @ block if prefix else block)
            previous = word
            total += float(coeff) * (prefix[-1] if prefix else np.eye(net.dim))
        totals.append(total)
    return totals


def test_eval_term_by_term_skips_unit_coefficients_bit_for_bit():
    # 1.0 * x is x: skipping the multiply for a unit coefficient, and
    # sharing one identity, leaves every bit in place.
    coefficients = set()
    for spec, L in _specs_for_stacking():
        polys = [derivative(spec, L, j) for j in range(L + 1)]
        coefficients.update(c for poly in polys for c in poly.coefficients.values())
        for d in (1, 3):
            for seeds in (4, [4, 5, 6]):
                net = instantiate(spec, L, d, seed=seeds)
                got = numeric._eval_term_by_term(polys, net)
                want = _term_by_term_scaling_every_term(polys, net)
                for j, (a, b) in enumerate(zip(got, want)):
                    assert a.tobytes() == b.tobytes(), (render(spec), L, d, seeds, j)
    assert 1 in coefficients and len(coefficients) > 1


# 126 words of up to six factors over W[1] and W[2].
SHORT_WORDS = [f for k in range(1, 7) for f in itertools.product((2, 1), repeat=k)]


@pytest.mark.parametrize("d", [2, 91])
def test_eval_polynomial_rejects_coefficients_past_float64(d):
    # 126 terms: one chunk at d = 2, term by term at d = 91; in a sweep the
    # coefficient may be in any polynomial.
    poly = PathPolynomial({**{f: 1 for f in SHORT_WORDS}, (1, 1, 2): 10**400})
    net = instantiate(CHAIN, 2, d, seed=0)
    with pytest.raises(SizeError, match="float64"):
        eval_polynomial(poly, net)
    fine = PathPolynomial({f: 1 for f in SHORT_WORDS})
    with pytest.raises(SizeError, match="float64"):
        numeric.eval_polynomials([fine, poly, fine], net)


@pytest.mark.parametrize("d", [2, 91])
def test_eval_polynomials_raise_the_first_index_error_in_polynomial_order(d):
    # In sweep order W[4] of the second polynomial's first term comes before
    # W[3] of the first polynomial's last term; the first polynomial's
    # error is the one raised, as if each were evaluated in turn.
    net = instantiate(CHAIN, 2, d, seed=0)
    first = PathPolynomial({**{f: 1 for f in SHORT_WORDS}, (2, 3): 1})
    second = PathPolynomial({(4, 1): 1, **{f: 1 for f in SHORT_WORDS}})
    with pytest.raises(IndexError, match=r"^block index 3 outside \[1, 2\]$"):
        numeric.eval_polynomials([first, second], net)
    with pytest.raises(IndexError, match=r"^block index 4 outside \[1, 2\]$"):
        numeric.eval_polynomials([second, first], net)


def _naive_eval(poly, net):
    """Reference: each term's product from scratch, summed in insertion order."""
    total = np.zeros((net.dim, net.dim))
    for factors, coeff in poly.coefficients.items():
        if factors:
            product = net.matrix(factors[0])
            for index in factors[1:]:
                product = product @ net.matrix(index)
        else:
            product = np.eye(net.dim)
        total += coeff * product
    return total


def test_eval_polynomial_matches_naive_on_drawn_terms():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # Few indices and short sequences, so shared prefixes, repeated indices
    # and the identity term are all common.  Extensions add chains of terms
    # that each extend the one before, as poly_mul builds them; half the
    # draws then shuffle the key order.
    factors = st.lists(st.integers(1, 3), max_size=4).map(tuple)
    coeffs = st.integers(-3, 3).filter(bool)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        st.lists(factors, max_size=8),
        st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=3), max_size=3),
        st.integers(1, 3),
        st.integers(0, 2**32),
        st.data(),
    )
    def check(bases, extensions, d, seed, data):
        keys = []
        for base, tail in zip(bases, extensions + [[]] * len(bases)):
            keys += [base + tuple(tail[:k]) for k in range(len(tail) + 1)]
        keys = list(dict.fromkeys(keys))
        if data.draw(st.booleans()):
            keys = data.draw(st.permutations(keys))
        poly = PathPolynomial({f: data.draw(coeffs) for f in keys})
        net = instantiate(CHAIN, 3, d, seed=seed)
        assert np.array_equal(eval_polynomial(poly, net), _naive_eval(poly, net))

    check()


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_eval_polynomial_matches_naive_on_derivatives(name):
    # d = 1 sums scalars; a chunk holds 32 terms at d = 16 and 15 at d = 23,
    # and d = 91 goes term by term.
    spec = builtin_spec(name)
    polys = [derivative(spec, 8, j) for j in range(0, 9)]
    for d in (1, 2, 3, 16, 23, 91):
        net = instantiate(spec, 8, d, seed=4)
        for poly in polys:
            assert np.array_equal(eval_polynomial(poly, net), _naive_eval(poly, net))


@pytest.mark.parametrize("name, L", [("resnet", 12), ("appendix-ex2", 14)])
def test_eval_polynomial_matches_naive_over_many_chunks(name, L):
    # At d = 16 and three seeds a chunk holds 42 terms: resnet at L = 12 has
    # 4,096 terms that share long prefixes, appendix-ex2 at L = 14 987 long
    # terms that share few, and their sweeps 8,191 and 1,973.
    spec = builtin_spec(name)
    polys = [derivative(spec, L, j) for j in range(L + 1)]
    poly = polys[0]
    assert len(poly) > 10 * numeric.CHUNK_ENTRIES // (3 * 16**2)
    for d in (8, 16):
        nets = [instantiate(spec, L, d, seed=seed) for seed in (11, 12, 13)]
        assert np.array_equal(eval_polynomial(poly, nets[0]), _naive_eval(poly, nets[0]))
        stacked = instantiate(spec, L, d, seed=[11, 12, 13])
        got = eval_polynomial(poly, stacked)
        for s, net in enumerate(nets):
            assert np.array_equal(got[s], _naive_eval(poly, net)), s
        for j, got in enumerate(numeric.eval_polynomials(polys, stacked)):
            for s, net in enumerate(nets):
                assert np.array_equal(got[s], _naive_eval(polys[j], net)), (d, j, s)


def _chains(draws):
    """Keys of chains of extensions, as poly_mul builds them, each drawn
    as (base, extension)."""
    keys = []
    for base, tail in draws:
        keys += [base + tuple(tail[:k]) for k in range(len(tail) + 1)]
    return list(dict.fromkeys(keys))


def test_eval_polynomial_matches_naive_in_small_chunks(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    monkeypatch.setattr(numeric, "MIN_CHUNK_TERMS", 1)
    monkeypatch.setattr(numeric, "MIN_SWEEP_TERMS", 1)
    # Sweeps of one to four polynomials of chains of extensions, which
    # share words, cut into chunks of 1 to 5 terms and 1 to 4 new products
    # a term: chunk boundaries fall inside shared prefixes.
    factors = st.lists(st.integers(1, 3), max_size=5).map(tuple)
    chains = st.lists(
        st.tuples(factors, st.lists(st.integers(1, 3), max_size=4)), max_size=10
    )

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        st.lists(chains, min_size=1, max_size=4),
        st.integers(1, 3),
        st.integers(1, 5),
        st.integers(1, 4),
        st.integers(0, 2**32),
        st.data(),
    )
    def check(sweep, d, chunk, nodes, seed, data):
        polys = []
        for draws in sweep:
            keys = _chains(draws)
            if data.draw(st.booleans()):
                keys = data.draw(st.permutations(keys))
            coeffs = st.integers(-3, 3).filter(bool)
            polys.append(PathPolynomial({f: data.draw(coeffs) for f in keys}))
        monkeypatch.setattr(numeric, "CHUNK_ENTRIES", chunk * d * d)
        monkeypatch.setattr(numeric, "NODES_PER_TERM", nodes)
        net = instantiate(CHAIN, 3, d, seed=seed)
        got = numeric.eval_polynomials(polys, net)
        assert len(got) == len(polys)
        for poly, matrix in zip(polys, got):
            assert np.array_equal(matrix, _naive_eval(poly, net))

    check()


@pytest.mark.parametrize(
    "name, L, batched",
    [("newarch", 24, False), ("eq22", 24, False), ("appendix-ex1", 7, True),
     ("resnet", 5, True)],
)
def test_chains_go_term_by_term(monkeypatch, name, L, batched):
    # Every word of newarch's and eq22's sweeps is a prefix of the longest:
    # their trie is one chain, one product a level, so the terms go one by
    # one, whatever their number.  appendix-ex1's and resnet's tries branch.
    monkeypatch.setattr(numeric, "MIN_SWEEP_TERMS", 1)
    spec = builtin_spec(name)
    polys = [derivative(spec, L, j) for j in range(L + 1)]
    net = instantiate(spec, L, 16, seed=2)
    calls = []
    one_by_one = numeric._eval_term_by_term
    monkeypatch.setattr(
        numeric, "_eval_term_by_term", lambda *args: calls.append(1) or one_by_one(*args)
    )
    got = numeric.eval_polynomials(polys, net)
    for poly, matrix in zip(polys, got):
        assert np.array_equal(matrix, _naive_eval(poly, net))
    assert calls == ([] if batched else [1])


def _sweep(polys, size):
    """(polynomial, word) of each term in sweep order: for each of the K
    slices, the terms [k*n/K, (k+1)*n/K) of every polynomial in turn, K the
    fewest chunks of size terms that hold them all."""
    K = -(-sum(map(len, polys)) // size)
    words = [list(poly.keys()) for poly in polys]
    return [
        (p, k, word)
        for k in range(K)
        for p, these in enumerate(words)
        for word in these[k * len(these) // K : (k + 1) * len(these) // K]
    ]


def _chunk_terms(polys, schedule, size):
    """The (polynomial, slice, word) terms of each chunk of ``schedule``."""
    terms, start = _sweep(polys, size), 0
    for count, _, _ in schedule.chunks:
        yield terms[start : start + count]
        start += count


def _prefixes(words):
    return {word[:k] for word in words for k in range(1, len(word) + 1)}


def test_schedule_lays_out_one_full_prefix_trie_per_chunk(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # Sweeps of chains of extensions in drawn key orders, cut into chunks of
    # 1 to 9 terms and 1 to 4 products a term, laid out in groups of one
    # slice or of all of them.
    factors = st.lists(st.integers(1, 4), max_size=5).map(tuple)
    chains = st.lists(
        st.tuples(factors, st.lists(st.integers(1, 4), max_size=4)),
        min_size=1,
        max_size=10,
    )

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        st.lists(chains, min_size=1, max_size=4),
        st.integers(1, 9),
        st.integers(1, 4),
        st.sampled_from([1, numeric.GROUP_CELLS]),
        st.data(),
    )
    def check(sweep, size, nodes, cells, data):
        polys = []
        for draws in sweep:
            keys = _chains(draws)
            if data.draw(st.booleans()):
                keys = data.draw(st.permutations(keys))
            polys.append(PathPolynomial({f: 1 for f in keys}))
        monkeypatch.setattr(numeric, "NODES_PER_TERM", nodes)
        monkeypatch.setattr(numeric, "GROUP_CELLS", cells)
        schedule = numeric._schedule(polys, size)
        steps, pieces = iter(schedule.steps), iter(schedule.pieces)
        for terms, (count, levels, owned) in zip(
            _chunk_terms(polys, schedule, size), schedule.chunks
        ):
            # The cut: a chunk is a slice, at most size terms and one more
            # per polynomial, or a part of one; it holds at most nodes *
            # size products, unless it is one term.
            words = [word for _, _, word in terms]
            assert len({k for _, k, _ in terms}) == 1
            assert count <= size + len(polys)
            assert count == 1 or len(_prefixes(words)) <= nodes * size
            made = [next(steps) for _ in range(levels)]
            assert [level for level, _ in made] == list(range(levels))
            assert sum(nodes for _, nodes in made) == len(_prefixes(words))
            # The pieces: the runs of one polynomial's terms.
            runs = [(p, len(list(run))) for p, run in itertools.groupby(t[0] for t in terms)]
            assert [next(pieces) for _ in range(owned)] == runs
        assert next(steps, None) is None and next(pieces, None) is None
        assert sum(count for count, _, _ in schedule.chunks) == sum(map(len, polys))

    check()


def test_schedule_shares_prefixes_across_a_chunk():
    # appendix-ex2's terms share their prefixes with terms further back and
    # with terms of the other polynomials of its sweep: at d = 16 the
    # sweep's chunks make 5,891 products, against 7,161 when each
    # polynomial has chunks of its own.
    spec = builtin_spec("appendix-ex2")
    size = numeric.CHUNK_ENTRIES // 16**2
    polys = [derivative(spec, 14, j) for j in range(15)]
    schedule = numeric._schedule(polys, size)
    assert len(schedule.parents) == sum(
        len(_prefixes([word for _, _, word in terms]))
        for terms in _chunk_terms(polys, schedule, size)
    )
    assert schedule.rows <= 1 + numeric.NODES_PER_TERM * size
    alone = sum(len(numeric._schedule([poly], size).parents) for poly in polys)
    assert len(schedule.parents) < 6_000 < 7_000 < alone


def test_schedule_memory_stays_bounded_on_many_terms():
    # 65,536 terms in chunks of 512 (d = 4): the schedule keeps about 2.2 MB
    # and building it peaks near 5 MB, the words and one group's
    # temporaries included.
    import tracemalloc

    poly = derivative(RESNET, 16, 0)
    tracemalloc.start()
    try:
        numeric._schedule([poly], numeric.CHUNK_ENTRIES // 4**2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17_000_000, peak


def test_eval_polynomial_adds_scalars_in_term_order(monkeypatch):
    # In term order each 1.0 rounds away against 2**53; numpy sums a
    # contiguous axis pairwise, which keeps them.
    calls = []
    one_by_one = numeric._eval_term_by_term
    monkeypatch.setattr(
        numeric, "_eval_term_by_term", lambda *args: calls.append(1) or one_by_one(*args)
    )
    values = (2.0**53,) + (1.0,) * 15
    net = _scalar_net(CHAIN, *values)
    poly = PathPolynomial({(i,): 1 for i in range(1, len(values) + 1)})
    pairwise = np.add.reduce(np.array((0.0,) + values).reshape(-1, 1, 1), axis=0)
    assert pairwise[0, 0] != 2.0**53
    # Each polynomial's terms add up in its own insertion order, not in
    # sorted order: 2**53 first loses every 1.0, 2**53 last keeps them.
    last = PathPolynomial({(i,): 1 for i in range(len(values), 0, -1)})
    for sweep in (1, numeric.MIN_SWEEP_TERMS):  # chunked, then term by term
        monkeypatch.setattr(numeric, "MIN_SWEEP_TERMS", sweep)
        assert eval_polynomial(poly, net)[0, 0] == 2.0**53 == _naive_eval(poly, net)[0, 0]
        first, low = numeric.eval_polynomials([poly, last], net)
        assert first[0, 0] == 2.0**53 and low[0, 0] == 2.0**53 + 16
    assert calls == [1, 1]


def _specs_for_stacking():
    rng = random.Random(2024)
    drawn = [random_affine_spec(rng) for _ in range(12)]
    return [(builtin_spec(name), 8) for name in ALL_BUILTINS] + [
        (spec, rng.randint(max(1, spec.first_rule_index), 7)) for spec in drawn
    ]


@pytest.mark.parametrize("d", [1, 2, 4, 30])
def test_stacked_net_is_bit_identical_to_each_seed_alone(monkeypatch, d):
    # d = 1 sums through the pad entry; d = 30 at three seeds (12-term
    # chunks) goes term by term, as do newarch's chains at every width.
    one_by_one, calls, paths = numeric._eval_term_by_term, [], []
    monkeypatch.setattr(
        numeric, "_eval_term_by_term", lambda *args: calls.append(1) or one_by_one(*args)
    )
    seeds = [3, 4, 5]
    for spec, L in _specs_for_stacking():
        stacked = instantiate(spec, L, d, seed=seeds)
        alone = [instantiate(spec, L, d, seed=seed) for seed in seeds]
        for j in range(L + 1):
            poly = derivative(spec, L, j)
            del calls[:]
            got = eval_polynomial(poly, stacked)
            paths.append(bool(calls))  # term by term, or chunked
            assert got.shape == (3, d, d)
            exact = jacobian_exact(stacked, j)
            size = jacobian_exact(stacked, j, magnitude=True)
            for s, net in enumerate(alone):
                where = (spec.name, L, j, seeds[s])
                assert np.array_equal(got[s], eval_polynomial(poly, net)), where
                assert np.array_equal(exact[s], jacobian_exact(net, j)), where
                one = jacobian_exact(net, j, magnitude=True)
                assert np.array_equal(size[s], one), where
            assert check_derivatives(stacked, {j: poly}) == [
                check_derivatives(net, {j: poly})[0] for net in alone
            ]
    assert all(paths) if d == 30 else (True in paths and False in paths)


@pytest.mark.parametrize("d", [1, 2, 4, 16])
def test_eval_polynomials_match_naive_on_every_sweep(monkeypatch, d):
    # Every builtin and twelve drawn specs, each sweep over every j: resnet's
    # polynomials share most of their words, newarch's and eq22's sweeps
    # are chains, and random_affine_spec(random.Random(5370)) has a zero
    # dX[5]/dX[0].  d = 1 at one seed sums through the pad entry.  Small
    # sweeps also run chunked, with MIN_SWEEP_TERMS at 1.
    one_by_one, calls, paths = numeric._eval_term_by_term, [], set()
    monkeypatch.setattr(
        numeric, "_eval_term_by_term", lambda *args: calls.append(1) or one_by_one(*args)
    )
    cases = _specs_for_stacking() + [(random_affine_spec(random.Random(5370)), 5)]
    for sweep in (numeric.MIN_SWEEP_TERMS, 1):
        monkeypatch.setattr(numeric, "MIN_SWEEP_TERMS", sweep)
        for spec, L in cases:
            polys = [derivative(spec, L, j) for j in range(L + 1)]
            for seeds in (4, [4, 5, 6]):
                net = instantiate(spec, L, d, seed=seeds)
                each = [seeds] if isinstance(seeds, int) else seeds
                alone = [instantiate(spec, L, d, seed=s) for s in each]
                del calls[:]
                got = numeric.eval_polynomials(polys, net)
                paths.add(bool(calls))
                for j, (poly, matrix) in enumerate(zip(polys, got)):
                    assert matrix.shape == net.stack.shape[1:]
                    for s, one in enumerate(alone):
                        where = (spec.name, L, j, s)
                        seed = matrix if net.stack.ndim == 3 else matrix[s]
                        assert np.array_equal(seed, _naive_eval(poly, one)), where
                # One flat list in (seed, j) order: each seed's results are
                # those of its own net.
                checks = numeric.check_derivatives(net, dict(enumerate(polys)))
                assert checks == [
                    check_derivatives(one, {j: p})[0]
                    for one in alone
                    for j, p in enumerate(polys)
                ]
    assert paths == {False, True}


def test_stacked_zero_polynomial_is_measured_per_seed():
    # random_affine_spec(random.Random(5370)): dX[5]/dX[0] cancels to zero.
    spec = random_affine_spec(random.Random(5370))
    poly = derivative(spec, 5, 0)
    assert poly.is_zero()
    stacked = instantiate(spec, 5, 3, seed=[0, 1])
    results = check_derivatives(stacked, {0: poly})
    assert results == [
        check_derivatives(instantiate(spec, 5, 3, seed=seed), {0: poly})[0]
        for seed in (0, 1)
    ]
    assert [r.seed for r in results] == [0, 1] and all(r.passed for r in results)


@pytest.mark.parametrize("d", [2, 91])
def test_stacked_net_raises_what_each_seed_raises(d):
    # 127 and 129 terms: one chunk at d = 2, term by term at d = 91.
    terms = SHORT_WORDS
    net = instantiate(CHAIN, 2, d, seed=[0, 1, 2])
    big = PathPolynomial({**{f: 1 for f in terms}, (1, 1, 2): 10**400, (2,) * 7: 1})
    with pytest.raises(SizeError, match="float64"):
        eval_polynomial(big, net)
    # The first block out of range, in term order, raises.
    wide = PathPolynomial({f: 1 for f in terms + [(2, 3), (4, 1), (3, 1)]})
    with pytest.raises(IndexError, match=r"^block index 3 outside \[1, 2\]$"):
        eval_polynomial(wide, net)


def test_derivative_matches_exact_jacobian():
    for name in ALL_BUILTINS:
        spec = builtin_spec(name)
        for seed in range(3):
            net = instantiate(spec, 5, 4, seed=seed)
            for j in range(0, 6):
                res = check_derivatives(net, {j: derivative(spec, 5, j)})[0]
                assert res.passed, (name, seed, j, res.error)


def test_newarch_polynomial_matches_exact_to_1e12():
    for seed in range(5):
        net = instantiate(NEWARCH, 5, 4, seed=seed)
        for j in range(0, 6):
            res = check_derivatives(net, {j: derivative(NEWARCH, 5, j)}, 1e-12)[0]
            assert res.passed, (seed, j, res.error)


def test_scalar_dimension_degenerates_to_arithmetic():
    for name in ALL_BUILTINS:
        spec = builtin_spec(name)
        net = instantiate(spec, 4, 1, seed=9)
        for j in range(0, 5):
            assert check_derivatives(net, {j: derivative(spec, 4, j)})[0].passed


def test_transposed_factors_break_equality():
    # Negative control: reversing a multi-factor term must fail for d > 1.
    net = instantiate(CHAIN, 3, 4, seed=5)
    wrong = PathPolynomial({(1, 2, 3): 1})  # true answer is W3*W2*W1
    res = check_derivatives(net, {0: wrong})[0]
    assert not res.passed


def _activated_product_jacobian(net, trace, j):
    """The product formula of dX[L]/dX[j]: the last one the chain from L
    down to j makes."""
    for _, product in numeric._activated_products(net, trace, j):
        pass
    return product


def test_finite_diff_resnet():
    net = instantiate(RESNET, 4, 4, seed=7)
    res = finite_diff_check(net, 0, epsilon=1e-5)
    assert res.error <= 1e-4
    assert res.passed


def test_finite_diff_chain_all_states():
    net = instantiate(CHAIN, 3, 3, seed=7)
    for j in range(0, 3):
        res = finite_diff_check(net, j, epsilon=1e-5)
        assert res.error <= 1e-4, (j, res.error)


def test_finite_diff_zero_matrices_formula_is_gprime_product():
    d, L = 2, 2
    zeros = tuple(np.zeros((d, d)) for _ in range(L))
    net = ConcreteNet(spec=RESNET, matrices=zeros, seed=0)
    x0 = np.array([0.05, -0.08])
    res = finite_diff_check(net, 0, epsilon=1e-5, x0=x0)
    assert res.error <= 1e-10
    # The product formula collapses to the product of g' diagonals.
    trace = forward(net, x0)
    z1, z2 = trace.preactivations
    expected = np.diag(1 - np.tanh(z2) ** 2) @ np.diag(1 - np.tanh(z1) ** 2)
    got = _activated_product_jacobian(net, trace, 0)
    assert np.allclose(got, expected, rtol=1e-13, atol=0)


def test_chain_product_formula_is_explicit_gprime_chain():
    net = instantiate(CHAIN, 3, 3, seed=7)
    x0 = np.array([0.3, -0.2, 0.1])
    trace = forward(net, x0)
    z1, z2, z3 = trace.preactivations
    expected = (
        np.diag(1 - np.tanh(z3) ** 2) @ net.matrix(3)
        @ np.diag(1 - np.tanh(z2) ** 2) @ net.matrix(2)
        @ np.diag(1 - np.tanh(z1) ** 2) @ net.matrix(1)
    )
    got = _activated_product_jacobian(net, trace, 0)
    assert np.allclose(got, expected, rtol=1e-13, atol=0)


@pytest.mark.parametrize("spec", [CHAIN, RESNET], ids=["chain", "resnet"])
def test_product_formula_scales_rows_as_the_diagonal_product_does(spec):
    def with_diagonals(net, trace, j):
        product = np.eye(net.dim)
        for i in range(net.depth, j, -1):
            gprime = np.diag(1.0 - np.tanh(trace.preactivations[i - 1]) ** 2)
            inner = net.matrix(i) if spec is CHAIN else np.eye(net.dim) + net.matrix(i)
            product = product @ (gprime @ inner)
        return product

    for d in (1, 2, 3, 16, 33):
        for L in (1, 3, 6):
            for seed in range(2):
                net = instantiate(spec, L, d, seed=seed)
                x0 = np.random.default_rng((seed, 1)).uniform(-0.5, 0.5, size=d)
                trace = forward(net, x0)
                for j in range(L):
                    got = _activated_product_jacobian(net, trace, j)
                    want = with_diagonals(net, trace, j)
                    assert got.tobytes() == want.tobytes(), (d, L, seed, j)


def _tail(net, below, j, start):
    """X[L] from X[j] = ``start``, one (d,) state at a time: each state the
    sum, over its pushes in order, of c * (the word's blocks applied right to
    left) * X[s], then tanh; a state below j is ``below[s]``."""
    states = dict(enumerate(below[:j]))
    states[j] = start
    for i in range(j + 1, net.depth + 1):
        z = None
        for s, poly in net.spec.instantiate_terms(i):
            for word, c in poly.items():
                v = states[s]
                for code in reversed(word):
                    v = net.matrix(ord(code)) @ v
                v = float(c) * v
                z = v if z is None else z + v
        states[i] = np.tanh(z)
    return states[net.depth]


def _finite_diff_error_by_column(net, j, epsilon, x0):
    """finite_diff_check's error, rerunning the tail once per +- column."""
    from recur.numeric import relative_error

    x0 = np.asarray(x0, dtype=float)
    trace = forward(net, x0)
    below = (x0, *trace.states)
    d = net.dim
    numeric = np.zeros((d, d))
    for k in range(d):
        bump = np.zeros(d)
        bump[k] = epsilon
        plus, minus = (_tail(net, below, j, below[j] + b) for b in (bump, -bump))
        numeric[:, k] = (plus - minus) / (2 * epsilon)
    return relative_error(numeric, _activated_product_jacobian(net, trace, j))


@pytest.mark.parametrize("spec", BUILTIN_SPECS, ids=ALL_BUILTINS)
@pytest.mark.parametrize("d", [1, 3, 16])
def test_finite_diff_matches_a_column_by_column_reference(spec, d):
    L = 5
    for seed in (0, 3):
        net = instantiate(spec, L, d, seed=seed)
        rng = np.random.default_rng((seed, 1))
        x0 = rng.uniform(-0.5, 0.5, size=d)  # the start finite_diff_check draws
        for j in range(L):
            res = finite_diff_check(net, j)
            assert res.error == _finite_diff_error_by_column(net, j, 1e-5, x0), j
            res = finite_diff_check(net, j, epsilon=1e-3, x0=x0)
            assert res.error == _finite_diff_error_by_column(net, j, 1e-3, x0), j
        # A list start is read as a float array, at j = 0 as well.
        listed = [0.25 * (-1) ** k for k in range(d)]
        res = finite_diff_check(net, 0, x0=listed)
        assert res.error == _finite_diff_error_by_column(net, 0, 1e-5, listed)


@pytest.mark.parametrize("width", [1, 3])
def test_finite_diff_in_blocks_of_columns_matches_the_reference(monkeypatch, width):
    d, L = 16, 4  # at width 3 the last block holds one column
    monkeypatch.setattr(numeric, "CHUNK_ENTRIES", 2 * d * width)
    x0 = np.random.default_rng((5, 1)).uniform(-0.5, 0.5, size=d)
    for spec in BUILTIN_SPECS:
        net = instantiate(spec, L, d, seed=5)
        for j in range(L):
            res = finite_diff_check(net, j)
            assert res.error == _finite_diff_error_by_column(net, j, 1e-5, x0), j


def _peak(run):
    """The tracemalloc peak of ``run()``, in bytes."""
    import tracemalloc

    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_finite_diff_memory_does_not_grow_with_the_perturbed_starts():
    # The perturbed starts go through in blocks of columns, so the product
    # formula's d x d matrices set the peak; one (2d, d, 1) stack of starts
    # would add about 5 d**2 floats, 40 MB at d = 1000.
    d = 1000
    net = instantiate(RESNET, 1, d, seed=0)
    x0 = np.full(d, 0.25)
    formula = _peak(lambda: _activated_product_jacobian(net, forward(net, x0), 0))
    check = _peak(lambda: finite_diff_check(net, 0, x0=x0))
    assert check <= formula + 4 * numeric.CHUNK_ENTRIES * 8, (formula, check)


def test_finite_diff_rerun_holds_only_the_states_a_later_push_reads():
    # appendix-ex1 reads X[i-1] and X[i-2], so a rerun from X[0] holds two
    # (2d, d, 1) stacks of perturbed states however deep the net is; all of
    # them at L = 40 would add 38 * 2 * d**2 floats, 2.4 MB at d = 64.
    d = 64
    spec = builtin_spec("appendix-ex1")
    peaks = []
    for L in (4, 40):
        net = instantiate(spec, L, d, seed=0)
        peaks.append(_peak(lambda: finite_diff_check(net, 0)))
    assert peaks[1] <= peaks[0] + 4 * d * d * 8, peaks


def _forward_mode_jacobian(net, trace, j):
    """dX[L]/dX[j] the other way round: from J[j] = I, J[i] = diag(g'(z_i))
    * (the sum of C * J[s] over the pushes into X[i]), J[s] = 0 below j."""
    d = net.dim
    jacobians = {j: np.eye(d)}
    for i in range(j + 1, net.depth + 1):
        total = np.zeros((d, d))
        for s, poly in net.spec.instantiate_terms(i):
            if s >= j:
                total += _naive_eval(poly, net) @ jacobians[s]
        gprime = 1.0 - np.tanh(trace.preactivations[i - 1]) ** 2
        jacobians[i] = gprime[:, None] * total
    return jacobians[net.depth]


def test_backward_pass_matches_forward_mode_on_every_formula():
    # The oracle for formulas whose central differences saturate: at L = 6,
    # d = 1, random_affine_spec seed 31 (X[q] = -4*X[q-1]) reads 0.14.
    from recur.numeric import relative_error

    specs = [*BUILTIN_SPECS, *(random_affine_spec(random.Random(k)) for k in range(60))]
    for n, spec in enumerate(specs):
        for L in range(1, 7):
            for d in (1, 4):
                net = instantiate(spec, L, d, seed=n)
                x0 = np.random.default_rng((n, 1)).uniform(-0.5, 0.5, size=d)
                trace = forward(net, x0)
                for j, backward in numeric._activated_products(net, trace):
                    want = _forward_mode_jacobian(net, trace, j)
                    error = relative_error(backward, want)
                    assert error <= 1e-12, (n, render(spec), L, d, j, error)


def test_backward_pass_at_unit_gprime_is_jacobian_exact():
    # With every pre-activation 0, g' = 1 and the backward pass is the
    # linear Jacobian, which jacobian_exact propagates forward.
    from recur.numeric import ForwardTrace, relative_error

    specs = [*BUILTIN_SPECS, *(random_affine_spec(random.Random(k)) for k in range(20))]
    for n, spec in enumerate(specs):
        for L, d in ((1, 1), (4, 3), (6, 4)):
            net = instantiate(spec, L, d, seed=n)
            zeros = tuple(np.zeros(d) for _ in range(L))
            trace = ForwardTrace(states=zeros, preactivations=zeros)
            for j, backward in numeric._activated_products(net, trace):
                error = relative_error(backward, jacobian_exact(net, j))
                assert error <= 1e-12, (n, render(spec), L, d, j, error)


def test_finite_diff_passes_at_zero_where_x_l_does_not_read_x_j():
    # X[L] reads X[L-2], X[L-4], ...: the rerun from X[L-1] ends in a state
    # with no perturbed axis, and the backward pass has nothing to push.
    spec = parse("X[i] = W[i]*X[i-2]; X[1] = W[1]*X[0]; X[0] = input")
    L = 6
    for d in (1, 4):
        net = instantiate(spec, L, d, seed=3)
        trace = forward(net, np.full(d, 0.25))
        products = dict(numeric._activated_products(net, trace))
        for j in range(L):
            res = finite_diff_check(net, j)
            if (L - j) % 2:
                assert not products[j].any()
                assert (res.error, res.passed) == (0.0, True), j
            else:
                assert products[j].any() and res.passed, j


def test_finite_diff_passes_at_zero_past_a_coefficient_that_cancels():
    # W[i-1] - W[2] cancels at X[3], which is tanh(0) = 0 whatever X[2] is.
    spec = parse(
        "X[i] = (W[i-1] - W[2])*X[i-1]; X[2] = W[2]*X[1]; X[1] = W[1]*X[0];"
        " X[0] = input"
    )
    net = instantiate(spec, 5, 3, seed=1)
    trace = forward(net, np.full(3, 0.25))
    assert not trace.preactivations[2].any() and not trace.states[2].any()
    products = dict(numeric._activated_products(net, trace))
    for j in range(5):
        res = finite_diff_check(net, j)
        assert res.passed and (res.error == 0.0) == (j < 3), j
        assert products[j].any() == (j >= 3), j


@pytest.mark.parametrize("spec", BUILTIN_SPECS, ids=ALL_BUILTINS)
@pytest.mark.parametrize("d", [1, 3, 16])
def test_finite_diff_checks_match_one_check_per_index(spec, d):
    # One forward pass and one product chain serve every j, in any order.
    L = 6
    for seed in (0, 3):
        net = instantiate(spec, L, d, seed=seed)
        for wrts in (range(L), [3, 0, 5], [2]):
            alone = [finite_diff_check(net, j, epsilon=1e-4) for j in wrts]
            assert numeric.finite_diff_checks(net, wrts, epsilon=1e-4) == alone


def test_finite_diff_checks_raise_for_the_first_index_in_order():
    net = instantiate(RESNET, 3, 2, seed=0)
    with pytest.raises(ValueError, match=r"spacing of X\[2\]"):
        numeric.finite_diff_checks(net, [2, 0], epsilon=1e-300)
    with pytest.raises(ValueError, match=r"got 3$"):
        numeric.finite_diff_checks(net, [1, 3, 4])


def test_finite_diff_requires_a_valid_epsilon():
    net = instantiate(RESNET, 3, 2, seed=0)
    with pytest.raises(ValueError):
        finite_diff_check(net, 0, epsilon=0.5)


@pytest.mark.parametrize("j", [0, 2])
def test_finite_diff_rejects_a_bump_that_rounds_back_to_its_start(j):
    net = instantiate(RESNET, 3, 2, seed=0)
    with pytest.raises(ValueError, match=rf"spacing of X\[{j}\]"):
        finite_diff_check(net, j, epsilon=1e-300)
    # A bump that stays apart from a zero coordinate is fine.
    assert finite_diff_check(net, j, epsilon=1e-5, x0=np.zeros(2)).passed


def test_check_result_serialization():
    net = instantiate(RESNET, 3, 2, seed=4)
    res = check_derivatives(net, {1: derivative(RESNET, 3, 1)})[0]
    payload = res.to_dict()
    assert payload["pass"] is True
    assert set(payload) == {
        "spec", "L", "j", "d", "seed", "activation", "error", "tol", "pass",
    }
