import json
import random
import sys

import pytest

from recur import algebra
from recur.algebra import (
    PathPolynomial,
    PathSum,
    PathTerms,
    block_product,
    census,
    json_parts,
    json_text,
    poly_add,
    poly_mul,
    poly_neg,
    render_parts,
    render_poly,
    signed_sum,
)
from recur.errors import SizeError

ONE = PathPolynomial.one()
ZERO = PathPolynomial.zero()


def W(i):
    return PathPolynomial.block(i)


def indices(word):
    """The block indices of a stored word."""
    return tuple(map(ord, word))


def test_add_cancellation():
    # (1 + W2) + (W1 - 1) = W2 + W1
    a = poly_add(ONE, W(2))
    b = poly_add(W(1), -ONE)
    assert poly_add(a, b) == poly_add(W(2), W(1))


def test_add_identity():
    p = poly_add(ONE, W(3))
    assert poly_add(p, ZERO) == p


def test_add_collects_coefficients():
    w21 = poly_mul(W(2), W(1))
    doubled = poly_add(w21, w21)
    assert doubled.coefficient((2, 1)) == 2
    assert len(doubled) == 1


def test_mul_two_block_shortcut_expansion():
    product = poly_mul(poly_add(ONE, W(2)), poly_add(ONE, W(1)))
    assert product.coefficients == {(): 1, (2,): 1, (1,): 1, (2, 1): 1}


def test_mul_identity():
    p = poly_add(poly_add(ONE, W(2)), poly_mul(W(3), W(1)))
    assert poly_mul(p, ONE) == p
    assert poly_mul(ONE, p) == p


def test_mul_is_noncommutative():
    assert poly_mul(W(1), W(2)) != poly_mul(W(2), W(1))
    assert poly_mul(W(1), W(2)).coefficient((1, 2)) == 1
    assert poly_mul(W(2), W(1)).coefficient((2, 1)) == 1


def test_census_of_shortcut_expansion():
    product = poly_mul(poly_add(ONE, W(2)), poly_add(ONE, W(1)))
    assert {k: b.count for k, b in census(product).items()} == {0: 1, 1: 2, 2: 1}


def test_census_zero_polynomial():
    assert census(ZERO) == {}


def test_census_single_path_chain():
    # 1 + W4 + W4W3 + W4W3W2
    p = ONE
    p = poly_add(p, W(4))
    p = poly_add(p, poly_mul(W(4), W(3)))
    p = poly_add(p, poly_mul(poly_mul(W(4), W(3)), W(2)))
    assert {k: b.count for k, b in census(p).items()} == {0: 1, 1: 1, 2: 1, 3: 1}


def test_census_weight_tracks_abs_coeff():
    p = PathPolynomial({(2, 1): -3, (3, 1): 1, (): 2})
    c = census(p)
    assert c[2].count == 2
    assert c[2].weight == 4
    assert c[0].weight == 2


def _random_poly(rng, max_index=4, max_terms=4, max_len=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        length = rng.randint(0, max_len)
        factors = tuple(rng.randint(1, max_index) for _ in range(length))
        terms[factors] = rng.randint(-3, 3)
    return PathPolynomial(terms)


def test_ring_axioms_on_random_polynomials():
    rng = random.Random(20240517)
    for _ in range(200):
        a = _random_poly(rng)
        b = _random_poly(rng)
        c = _random_poly(rng)
        assert poly_add(a, b) == poly_add(b, a)
        assert poly_add(poly_add(a, b), c) == poly_add(a, poly_add(b, c))
        assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))
        assert poly_mul(a, poly_add(b, c)) == poly_add(poly_mul(a, b), poly_mul(a, c))
        assert poly_mul(poly_add(a, b), c) == poly_add(poly_mul(a, c), poly_mul(b, c))
        # The operators are the functions.
        assert a - b == poly_add(a, poly_neg(b)) and (a - b) + b == a
        assert a * b == poly_mul(a, b) and -a == poly_neg(a)


def _max_length(p):
    return max(map(len, p.coefficients), default=0)


def test_mul_max_length_adds():
    rng = random.Random(99)
    for _ in range(100):
        a = _random_poly(rng)
        b = _random_poly(rng)
        p = poly_mul(a, b)
        if not a.is_zero() and not b.is_zero() and not p.is_zero():
            assert _max_length(p) <= _max_length(a) + _max_length(b)
        # Without cancellation the bound is attained; check a clean case.
    a = poly_add(ONE, poly_mul(W(2), W(2)))
    b = poly_add(W(1), ONE)
    assert _max_length(poly_mul(a, b)) == _max_length(a) + _max_length(b)


def test_normalization_idempotent():
    p = PathPolynomial({(1,): 2, (2,): 0, (): -1})
    again = PathPolynomial(p.coefficients)
    assert p == again
    assert p.coefficient((2,)) == 0


def test_constructor_rejects_bad_indices():
    with pytest.raises(ValueError):
        PathPolynomial({(0,): 1})


def test_words_hold_every_code_point_and_no_index_past_the_last():
    # Surrogate code points are indices like any other: order, text, round trip.
    raw = {(0xDFFF,): 1, (0xD800, 0xD7FF): -2, (0xE000,): 3, (0x10FFFF,): 1}
    p = PathPolynomial(raw)
    assert p.coefficients == raw
    assert p.coefficient((0xD800, 0xD7FF)) == -2
    assert [indices(w) for w in p.canonical_columns()[0]] == [
        (0x10FFFF,), (0xE000,), (0xDFFF,), (0xD800, 0xD7FF),
    ]
    assert render_poly(p) == (
        "W[1114111] + 3*W[57344] + W[57343] - 2*W[55296]*W[55295]"
    )
    for index in (0x110000, 1 << 80):
        with pytest.raises(SizeError, match=f"block index {index} is past 1114111"):
            PathPolynomial.block(index)
        assert p.coefficient((index,)) == 0


def test_terms_iterate_in_canonical_order():
    p = PathPolynomial({(1,): 1, (2, 1): 1, (): 1, (2,): 1})
    assert [indices(w) for w in p.canonical_columns()[0]] == [(), (2,), (1,), (2, 1)]


def test_render():
    p = PathPolynomial({(): 1, (2,): 1, (1,): 1, (2, 1): 1})
    assert render_poly(p) == "1 + W[2] + W[1] + W[2]*W[1]"
    assert render_poly(ZERO) == "0"
    assert render_poly(PathPolynomial({(3,): -1, (): 2})) == "2 - W[3]"
    assert render_poly(PathPolynomial({(2, 1): 2})) == "2*W[2]*W[1]"
    assert render_poly(PathPolynomial({(1,): -1})) == "-W[1]"
    mixed = PathPolynomial({(): -3, (2, 1): -1, (2,): 2, (1,): 1})
    assert render_poly(mixed) == "-3 + 2*W[2] + W[1] - W[2]*W[1]"
    # One term alone, as the widest and degree messages write each term.
    for coeff, word, text in [
        (1, "\x03\x02", "W[3]*W[2]"),
        (-1, "\x03", "-W[3]"),
        (2, "", "2"),
        (-2, "\x03", "-2*W[3]"),
        (-2, "", "-2"),
    ]:
        assert signed_sum([(coeff, block_product(word))]) == text


def test_repr_shows_the_stored_words():
    p = PathPolynomial({(2, 1): -3, (): 1})
    assert repr(p) == "PathPolynomial({(2, 1): -3, (): 1})"
    assert eval(repr(p)) == p
    assert repr(ZERO) == "PathPolynomial({})"


def test_polynomials_are_hashable_and_equal_by_value():
    a = poly_add(ONE, W(2))
    b = poly_add(W(2), ONE)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


# -- differential checks against a naive reference ---------------------------


def _hypothesis():
    """The hypothesis module and a strategy for raw term dicts (may hold zeros)."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    factors = st.lists(st.integers(1, 3), max_size=3).map(tuple)
    return hypothesis, st.dictionaries(factors, st.integers(-3, 3), max_size=6)


# The loops poly_add, poly_mul and census ran before their bulk forms.


def _reference_add(a, b):
    out = dict(a.items())
    for word, coeff in b.items():
        total = out.get(word, 0) + coeff
        if total:
            out[word] = total
        else:
            out.pop(word, None)
    return out


def _reference_mul(a, b):
    out = {}
    for fa, ca in a.items():
        for fb, cb in b.items():
            key = fa + fb
            out[key] = out.get(key, 0) + ca * cb
    return {w: c for w, c in out.items() if c}


def _reference_census(p):
    counts, weights = {}, {}
    for word, coeff in p.items():
        k = len(word)
        counts[k] = counts.get(k, 0) + 1
        weights[k] = weights.get(k, 0) + abs(coeff)
    return {k: (counts[k], weights[k]) for k in sorted(counts)}


def test_operations_match_naive_reference():
    hypothesis, terms = _hypothesis()
    st = hypothesis.strategies
    # Every prefix of a drawn word is a term too, the empty word included,
    # so products share prefixes and, over three indices, repeat words.
    prefixed = terms.map(
        lambda raw: {**{f[:k]: 1 for f in raw for k in range(len(f))}, **raw}
    )

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(prefixed, prefixed, st.data())
    def check(raw_a, raw_b, data):
        a = PathPolynomial(raw_a)
        # Negate part of a into b so that sums cancel term by term.
        cancel = data.draw(st.sets(st.sampled_from(sorted(raw_a) or [()])))
        b = PathPolynomial({**raw_b, **{f: -a.coefficient(f) for f in cancel}})
        signs = PathPolynomial({f: 1 if c > 0 else -1 for f, c in raw_b.items() if c})
        # In insertion order, not just as equal dicts.
        for p, q in ((a, b), (b, a), (a, a), (a, signs), (a, poly_neg(a))):
            assert list(poly_add(p, q).items()) == list(_reference_add(p, q).items())
            assert list(poly_mul(p, q).items()) == list(_reference_mul(p, q).items())
        for p in (a, b, signs, poly_mul(a, b), poly_mul(signs, signs)):
            assert list(census(p).items()) == list(_reference_census(p).items())
        negated = PathPolynomial({f: -c for f, c in raw_a.items()})
        assert list(poly_neg(a).items()) == list(negated.items())
        assert poly_add(a, poly_neg(a)).is_zero()

    check()


@pytest.mark.parametrize("shape", ["longer-left", "equal", "longer-right"])
def test_mul_keeps_a_outer_b_inner_order(shape):
    # A shorter right operand is built one slice per right term; the items
    # and their order must match the a-outer, b-inner loops.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # 15 words over two indices: products repeat often.
    words = st.lists(st.integers(1, 2), max_size=3).map(tuple)

    def poly(n):
        coeffs = st.sampled_from((-2, -1, 1, 2))
        terms = st.dictionaries(words, coeffs, min_size=n, max_size=n)
        return terms.map(PathPolynomial)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.integers(0, 5), st.integers(1, 4), st.data())
    def check(n, gap, data):
        na, nb = {
            "longer-left": (n + gap, n), "equal": (n, n), "longer-right": (n, n + gap)
        }[shape]
        a, b = data.draw(poly(na)), data.draw(poly(nb))
        assert list(poly_mul(a, b).items()) == list(_reference_mul(a, b).items())

    check()


def test_mul_drops_cancelled_terms():
    # (1 + W1)*(W1 - 1) = W1*W1 - 1: the two W1 products cancel.
    product = poly_mul(poly_add(ONE, W(1)), poly_add(W(1), -ONE))
    assert product.coefficients == {(): -1, (1, 1): 1}
    # The same with a longer left operand, built one slice per right term:
    # W1*W1 still follows the constant, as the a-outer loop places it.
    product = poly_mul(poly_add(poly_add(ONE, W(1)), W(2)), poly_add(W(1), -ONE))
    assert list(product.coefficients.items()) == [
        ((), -1), ((1, 1), 1), ((2, 1), 1), ((2,), -1)
    ]


def test_add_zero_is_identity_and_isolated():
    hypothesis, terms = _hypothesis()

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(terms)
    def check(raw):
        p = PathPolynomial(raw)
        expected = PathPolynomial(raw)
        left, right = poly_add(ZERO, p), poly_add(p, ZERO)
        assert left == p and right == p
        leaked = p.coefficients
        leaked[(3, 3, 3, 3)] = 7
        for factors in list(leaked)[:-1]:
            leaked[factors] += 1
        assert p == expected and left == expected and right == expected

    check()


def test_constructor_rejects_index_below_one():
    hypothesis, _ = _hypothesis()
    st = hypothesis.strategies

    @hypothesis.given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=4).filter(
            lambda f: min(f) < 1
        ),
        st.integers(-3, 3),
    )
    def check(factors, coeff):
        with pytest.raises(ValueError):
            PathPolynomial({tuple(factors): coeff})

    check()
    with pytest.raises(ValueError):
        PathPolynomial({(0,): 1})


def test_keys_and_items_are_views_in_insertion_order():
    raw = {(2,): 1, (): -1, (1, 2): 3}
    p = PathPolynomial(raw)
    assert list(map(indices, p.keys())) == list(raw)
    assert [(indices(w), c) for w, c in p.items()] == list(raw.items())
    assert p.keys() | {"\x05"} == {"\x02", "", "\x01\x02", "\x05"}


def _old_canonical_key(factors):
    # The per-term key the canonical order was defined by: ascending length,
    # then descending indices within a length.
    return (len(factors), tuple(-i for i in factors))


def _canonical_items(p):
    """The (word, coeff) pairs of ``p`` in canonical order."""
    return list(zip(*p.canonical_columns()))


def test_canonical_order_matches_the_per_term_key():
    hypothesis, _ = _hypothesis()
    st = hypothesis.strategies
    # Two-digit indices, so a numeric and a text order would differ.
    factors = st.lists(st.integers(1, 12), max_size=5).map(tuple)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        st.dictionaries(factors, st.integers(-3, 3).filter(bool), max_size=12)
    )
    def check(raw):
        # Every prefix of a drawn key is a term too, so many keys share one.
        raw = {**{f[:k]: 1 for f in raw for k in range(len(f))}, **raw}
        p = PathPolynomial(raw)
        expected = [(f, raw[f]) for f in sorted(raw, key=_old_canonical_key)]
        assert [(indices(w), c) for w, c in _canonical_items(p)] == expected

    check()


def test_canonical_columns_are_the_canonical_pairs_unzipped():
    # Products of random polynomials: runs of equal coefficients, words
    # that share prefixes, coefficients past 64 bits and the identity term.
    rng = random.Random(11)

    def draw():
        raw = {
            tuple(rng.randint(1, 12) for _ in range(rng.randint(0, 4))):
            rng.choice([1, 1, -1, 2, -3, 10**25])
            for _ in range(rng.randint(0, 9))
        }
        return PathPolynomial(raw)

    for _ in range(300):
        p = poly_mul(draw(), draw()) if rng.random() < 0.5 else draw()
        pairs = sorted(p.items(), key=lambda t: _old_canonical_key(indices(t[0])))
        words, coeffs = p.canonical_columns()
        assert type(words) is list and type(coeffs) is list
        assert (words, coeffs) == ([w for w, _ in pairs], [c for _, c in pairs])


def test_json_text_matches_json_dumps():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # Any code point, lone surrogates and control characters included.
    text = st.text(st.characters(exclude_categories=()), max_size=8)
    scalars = (
        text
        | st.integers(-(10**80), 10**80)
        | st.floats()
        | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e-300])
        | st.booleans()
        | st.none()
    )
    values = st.recursive(
        scalars,
        lambda inner: (
            st.lists(inner, max_size=4)
            | st.lists(inner, max_size=4).map(tuple)
            | st.dictionaries(text, inner, max_size=4)
        ),
        max_leaves=24,
    )

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(values)
    def check(value):
        assert json_text(value) == json.dumps(value, indent=2) + "\n"

    check()


def _terms_payload(pairs):
    """The dicts and lists a PathTerms of ``pairs`` stands for."""
    return [{"coeff": c, "factors": list(map(ord, w))} for w, c in pairs]


def test_json_text_writes_path_terms_as_their_dicts():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    index = (
        st.integers(1, 127)
        | st.integers(128, 0xD7FF)
        | st.integers(0xD800, 0xDFFF)  # lone surrogates
        | st.integers(0x10000, 0x10FFFF)
    )
    word = st.lists(index, max_size=5).map(lambda f: "".join(map(chr, f)))
    coeff = (
        st.sampled_from([1, -1])
        | st.integers(-(10**6), 10**6).filter(bool)
        | st.integers(10**300, 10**1000)
        | st.integers(-(10**1000), -(10**300))
    )
    # Distinct words, as a polynomial's; the identity term is the empty word.
    pairs = st.dictionaries(word, coeff, max_size=6).map(lambda d: list(d.items()))
    # Each level puts the value first, between siblings or last in a dict
    # or a list; expand's payload nests the terms three levels deep.
    level = st.tuples(st.sampled_from([list, dict]), st.integers(0, 2))

    def wrap(value, levels):
        for kind, place in levels:
            members = [7, "s", {"k": [None]}]
            members.insert(place, value)
            value = members if kind is list else dict(zip("abcd", members))
        return value

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(pairs, st.lists(level, max_size=3))
    def check(pairs, levels):
        text = json_text(wrap(PathTerms(*zip(*pairs)), levels))
        expected = json.dumps(wrap(_terms_payload(pairs), levels), indent=2)
        assert text == expected + "\n"

    check()
    assert json_text({"terms": PathTerms()}) == '{\n  "terms": []\n}\n'


def test_json_text_path_terms_past_the_digit_limit_raise_size_error():
    big = 10 ** (sys.get_int_max_str_digits() + 1)
    terms = PathTerms(["", "\x02", "\x02\x01"], [1, -big, 3])
    with pytest.raises(SizeError, match=f"^an integer of {big.bit_length()} bits"):
        json_text({"components": [{"state": 0, "terms": terms}]})


@pytest.mark.parametrize("key", [1, 1.5, True, None, (1,)])
def test_json_text_rejects_keys_that_are_not_str(key):
    with pytest.raises(TypeError):
        json_text({"outer": [{"a": 1, key: 2}]})


@pytest.mark.parametrize("value", [{1, 2}, object(), b"bytes"])
def test_json_text_rejects_values_json_cannot_write(value):
    with pytest.raises(TypeError):
        json_text({"a": [value]})


# -- the block writers: render_parts and the PathTerms list -------------------


def _product(word):
    """The product text of a word, written factor by factor."""
    return "*".join(f"W[{i}]" for i in map(ord, word))


def test_block_writers_match_the_term_by_term_texts(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    index = (
        st.integers(1, 12)
        | st.integers(0xD800, 0xDFFF)  # lone surrogates
        | st.just(0x10FFFF)
        | st.integers(1, 0x10FFFF)
    )
    words = st.lists(index, max_size=4).map(tuple)
    # Runs of one coefficient, signs that change, and magnitudes of 1 to
    # 31 digits.
    coeffs = (
        st.sampled_from([1, -1])
        | st.integers(-3, 3).filter(bool)
        | st.integers(-(10**30), 10**30).filter(bool)
    )
    polys = st.dictionaries(words, coeffs, max_size=12).map(PathPolynomial)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(polys, st.booleans())
    def check(p, with_identity):
        if with_identity:
            p = poly_add(p, PathPolynomial.one())
        items = _canonical_items(p)
        text = signed_sum((c, _product(w)) for w, c in items)
        assert signed_sum((c, block_product(w)) for w, c in items) == text
        payload = {"polynomial": text or "0", "terms": _terms_payload(items)}
        expected = json.dumps({"components": [payload]}, indent=2) + "\n"
        # Blocks of 1, 2 and 3 terms end at every position; each cap starts
        # from empty tables, so its first codec pass misses in them.
        for cap in (1, 2, 3, algebra.BLOCK_TERMS):
            monkeypatch.setattr(algebra, "BLOCK_TERMS", cap)
            monkeypatch.setattr(algebra, "_TABLES", {})
            parts = render_parts(*p.canonical_columns())
            assert "".join(parts) == (text if items else "")
            assert render_poly(p) == text
            if cap == 1:
                assert len(parts) == len(items)
            columns = p.canonical_columns()
            payload = {"polynomial": PathSum(*columns), "terms": PathTerms(*columns)}
            assert json_text({"components": [payload]}) == expected
            monkeypatch.undo()

    check()


def test_sum_writer_takes_terms_in_any_order(monkeypatch):
    # The identity term first, last, alone or between others, in blocks
    # that it starts, ends or sits inside.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    word = st.lists(st.integers(1, 0x10FFFF), max_size=3).map(
        lambda f: "".join(map(chr, f))
    )
    coeff = st.integers(-(10**20), 10**20).filter(bool)
    pairs = st.dictionaries(word, coeff, max_size=8).map(lambda d: list(d.items()))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(pairs)
    def check(pairs):
        text = signed_sum((c, _product(w)) for w, c in pairs)
        terms = PathSum(*zip(*pairs))
        for cap in (1, 2, 3, algebra.BLOCK_TERMS):
            monkeypatch.setattr(algebra, "BLOCK_TERMS", cap)
            assert "".join(render_parts(*terms)) == (text if pairs else "")
            assert json_text(terms) == f'"{text}"\n'
            monkeypatch.undo()

    check()


def test_a_table_miss_is_filled_and_is_never_the_digit_limit(monkeypatch):
    # The codec reports a missing code point with UnicodeEncodeError, a
    # ValueError as the digit limit's is: it must never read as that.
    monkeypatch.setattr(algebra, "_TABLES", {})
    p = PathPolynomial({(0x10FFFF, 0xD800): 1, (): 1, (3,): -1})
    items = _canonical_items(p)
    assert render_poly(p) == "1 - W[3] + W[1114111]*W[55296]"
    expected = json.dumps({"terms": _terms_payload(items)}, indent=2) + "\n"
    assert "".join(json_parts({"terms": PathTerms(*p.canonical_columns())})) == expected
    assert algebra._TABLES  # filled on the misses
    # Past the digit limit, the error names the first such coefficient in
    # canonical order, with fresh tables too.
    big = 10 ** (sys.get_int_max_str_digits() + 1)
    for first, second in ((big, -7 * big), (-7 * big, big)):
        monkeypatch.setattr(algebra, "_TABLES", {})
        p = PathPolynomial({(): 1, (2,): first, (1,): second, (0x10FFFF,): 1})
        with pytest.raises(SizeError) as err:
            render_poly(p)
        assert str(err.value) == (
            f"an integer of {first.bit_length()} bits has more than"
            f" {sys.get_int_max_str_digits()} decimal digits, too many to write"
        )
