import random
from itertools import accumulate

import pytest

from conftest import random_affine_spec
from recur import parser
from recur.algebra import _word
from recur.builtins import BUILTIN_NAMES, builtin_spec
from recur.errors import (
    FormulaSyntaxError,
    NonAffineError,
    NonCausalError,
    RangeError,
    SizeError,
)
from recur.parser import (
    MAX_NESTING,
    PARSE_BUDGET,
    TEXT_CELLS,
    ArchitectureSpec,
    CoefficientExpr,
    parse,
    render,
    tokenize,
)


def test_parse_resnet_distributed_form():
    spec = parse("X[i] = X[i-1] + W[i]*X[i-1]; X[0] = input")
    assert len(spec.rule.terms) == 1
    term = spec.rule.terms[0]
    assert term.lag == 1
    assert term.coeff == CoefficientExpr({(): 1, (("rel", 0),): 1})


def test_distribution_matches_factored_form():
    factored = parse("X[i] = (1+W[i])*X[i-1]; X[0] = input")
    distributed = parse("X[i] = X[i-1] + W[i]*X[i-1]; X[0] = input")
    assert factored == distributed


def test_parse_new_architecture():
    spec = parse(
        "X[i] = (1+W[i])*X[i-1] - W[i-1]*X[i-2];"
        " X[1] = (1+W[1])*X[0]; X[0] = input"
    )
    lag1, lag2 = spec.rule.terms
    assert lag1.lag == 1
    assert lag1.coeff == CoefficientExpr({(): 1, (("rel", 0),): 1})
    assert lag2.lag == 2
    assert lag2.coeff == CoefficientExpr({(("rel", 1),): -1})
    base = spec.base_case(1)
    assert base.terms == ((0, CoefficientExpr({(): 1, (("abs", 1),): 1})),)


def test_parse_matches_appendix_ex1_builtin():
    spec = parse(
        "X[i] = W[i]*X[i-1] + X[i-2]; X[1] = (1+W[1])*X[0]; X[0] = input"
    )
    assert spec.same_recursion(builtin_spec("appendix-ex1"))


def test_parse_eq22_absolute_source():
    spec = parse("X[q] = W[q]*X[q-1] + X[0]; X[1] = (1+W[1])*X[0]; X[0] = input")
    rel = [t for t in spec.rule.terms if t.lag is not None]
    absolute = [t for t in spec.rule.terms if t.source is not None]
    assert len(rel) == 1 and len(absolute) == 1
    assert absolute[0].source == 0
    assert absolute[0].coeff == CoefficientExpr({(): 1})


def test_forward_reference_is_non_causal():
    with pytest.raises(NonCausalError) as err:
        parse("X[i] = W[i]*X[i+1]; X[0] = input")
    assert err.value.position is not None


def test_self_reference_is_non_causal():
    with pytest.raises(NonCausalError):
        parse("X[i] = W[i]*X[i]; X[0] = input")


def test_gated_product_rejected_as_non_affine():
    with pytest.raises(NonAffineError):
        parse("X[i] = X[i-1]*X[i-1]; X[0] = input")


def test_term_without_state_rejected():
    with pytest.raises(NonAffineError):
        parse("X[i] = W[i]*X[i-1] + W[i]; X[0] = input")


def test_state_must_be_rightmost():
    with pytest.raises(NonAffineError):
        parse("X[i] = W[i]*X[i-1]*W[i-1]; X[0] = input")


def test_w_index_above_lhs_rejected():
    with pytest.raises(RangeError):
        parse("X[i] = W[i+1]*X[i-1]; X[0] = input")


def test_w_offset_below_one_at_first_rule_state():
    # Rule starts at X[1] (only X[0] declared), so W[i-1] hits W[0] there.
    with pytest.raises(RangeError):
        parse("X[i] = W[i-1]*X[i-1]; X[0] = input")


def test_lag_two_needs_base_case():
    with pytest.raises(RangeError):
        parse("X[i] = W[i]*X[i-2]; X[0] = input")


def test_missing_input_declaration():
    with pytest.raises(FormulaSyntaxError):
        parse("X[i] = W[i]*X[i-1]")


def test_duplicate_statements_rejected():
    with pytest.raises(FormulaSyntaxError):
        parse("X[i] = W[i]*X[i-1]; X[i] = X[i-1]; X[0] = input")


def test_syntax_error_carries_position():
    text = "X[i] = W[i!*X[i-1]; X[0] = input"
    with pytest.raises(FormulaSyntaxError) as err:
        parse(text)
    assert err.value.position == text.index("!")


def test_all_parse_errors_carry_positions():
    bad_inputs = [
        "X[i] = W[i]*X[i+1]; X[0] = input",          # non-causal
        "X[i] = X[i-1]*X[i-1]; X[0] = input",        # non-affine
        "X[i] = W[i+2]*X[i-1]; X[0] = input",        # range
        "X[i] = W[i] ** X[i-1]; X[0] = input",       # syntax
        "X[i] = W[0]*X[i-1]; X[0] = input",          # W index below 1
    ]
    for text_in in bad_inputs:
        with pytest.raises(
            (NonCausalError, NonAffineError, RangeError, FormulaSyntaxError)
        ) as err:
            parse(text_in)
        assert isinstance(err.value.position, int), text_in
        assert 0 <= err.value.position < len(text_in), text_in


@pytest.mark.parametrize(
    "text, message, at",
    [
        (
            "X[0] = input; X[0] = X[0]; X[i] = X[i-1]",
            "X[0] is the free input and cannot be defined",
            "X[0] = X[0]",
        ),
        (
            "X[0] = input; X[1] = X[0]; X[1] = W[1]*X[0]; X[i] = X[i-1]",
            "duplicate definition of X[1]",
            "X[1] = W[1]",
        ),
        (
            "X[0] = input; X[i] = W[i]*X[i-1] - W[i]*X[i-1]",
            "the rule right-hand side cancels to zero",
            "X[i] =",
        ),
        (
            "X[0] = input; X[1] = 2*X[0] - X[0] - X[0]; X[i] = X[i-1]",
            "base case X[1] cancels to zero",
            "X[1] =",
        ),
        # make_atom rejects a relative index in a base case at the index
        (
            "X[0] = input; X[1] = X[i-1]; X[i] = X[i-1]",
            "relative indices are not allowed in base cases",
            "i-1]; X[i]",
        ),
        (
            "X[0] = input\nX[i] = W[i]*X[i-1] X[i-2]\n",
            "expected end of statement, found 'X'",
            "X[i-2]",
        ),
        (
            "X[0] = input\nX[i-1] = W[i]*X[i-2]\n",
            "the rule left-hand side must be a bare X[var]",
            "i-1] =",
        ),
        (
            "X[0] = input\nX[1] = input\nX[i] = X[i-1]\n",
            "only X[0] may be declared as the input",
            "input\nX[i]",
        ),
        (
            "X[0] = input\nX[i] = input*X[i-1]\n",
            "'input' may only stand alone in 'X[0] = input'",
            "input*",
        ),
        ("X[0] = input\nX[i] W[i]*X[i-1]\n", "expected '=', found 'W'", "W[i]"),
        (
            "X[0] = input\nX[i] = W[*]*X[i-1]\n",
            "expected an index, found '*'",
            "*]",
        ),
        (
            "X[0] = input\nX[i] = W[j]*X[i-1]\n",
            "unknown index variable 'j' (rule variable is 'i')",
            "j]",
        ),
    ],
)
def test_statement_errors_pin_message_and_position(text, message, at):
    with pytest.raises(FormulaSyntaxError) as err:
        parse(text)
    assert err.value.message == message
    assert err.value.position == text.index(at)


@pytest.mark.parametrize(
    "text, error, message, at",
    [
        # a gap, at the first base case past it
        (
            "X[0] = input\nX[2] = X[0]\nX[i] = X[i-1]\n",
            FormulaSyntaxError,
            "base cases must cover a contiguous range starting at X[0]",
            "X[2]",
        ),
        # the rule's checks at its first state, at the index of the atom
        (
            "X[0] = input\nX[i] = X[i-2]\n",
            RangeError,
            "rule references X[i-2], which is negative at the first rule state X[1]",
            "i-2]",
        ),
        (  # two occurrences: the first
            "X[0] = input\nX[i] = X[i-2] + W[i]*X[i-2]\n",
            RangeError,
            "rule references X[i-2], which is negative at the first rule state X[1]",
            "i-2]",
        ),
        (
            "X[0] = input\nX[i] = X[i-1] + X[1]\n",
            NonCausalError,
            "rule references X[1], which the rule itself defines"
            " (first rule state is X[1])",
            "1]\n",
        ),
        (
            "X[0] = input\nX[i] = W[i-1]*X[i-1]\n",
            RangeError,
            "W[i-1] falls below W[1] at the first rule state X[1]",
            "i-1]*",
        ),
        (
            "X[0] = input\nX[i] = W[2]*X[i-1]\n",
            RangeError,
            "W[2] outside [1, 1] for the first rule state X[1]",
            "2]",
        ),
        # the rule before the base cases that set its first state
        (
            "X[i] = W[i]*X[i-1] + W[3]*X[i-2]; X[1] = W[1]*X[0]; X[0] = input",
            RangeError,
            "W[3] outside [1, 2] for the first rule state X[2]",
            "3]",
        ),
    ],
)
def test_whole_spec_errors_pin_class_message_and_position(text, error, message, at):
    with pytest.raises(error) as err:
        parse(text)
    assert type(err.value) is error
    assert err.value.message == message
    assert err.value.position == text.index(at)


@pytest.mark.parametrize(
    "text",
    [
        "X[i] = X[i-1] + W[7]*X[i-1] - W[7]*X[i-1]; X[0] = input",
        "X[i] = X[i-1] + X[i-2] - X[i-2]; X[0] = input",
        "X[i] = X[i-1] + X[3] - X[3]; X[0] = input",
    ],
)
def test_whole_spec_checks_skip_atoms_that_cancel(text):
    assert render(parse(text)) == "X[i] = X[i-1]\nX[0] = input\n"


def test_unicode_minus_accepted():
    spec = parse("X[i] = (1+W[i])*X[i-1] − W[i-1]*X[i-2];"
                 " X[1] = (1+W[1])*X[0]; X[0] = input")
    assert spec.same_recursion(builtin_spec("newarch"))


def test_comments_and_blank_lines():
    spec = parse(
        """
        # shortcut recursion
        X[i] = (1 + W[i])*X[i-1]   # the rule
        X[0] = input
        """
    )
    assert spec.same_recursion(builtin_spec("resnet"))


def test_highway_style_gate_not_expressible():
    # The closest affine-grammar rendering of a gate multiplies states.
    with pytest.raises(NonAffineError):
        parse("X[i] = W[i]*X[i-1]*X[i-1] + X[i-1]; X[0] = input")


def test_render_resnet_canonical():
    assert render(builtin_spec("resnet")) == "X[i] = (1 + W[i])*X[i-1]\nX[0] = input\n"


def test_render_newarch_canonical():
    assert render(builtin_spec("newarch")) == (
        "X[i] = (1 + W[i])*X[i-1] - W[i-1]*X[i-2]\n"
        "X[1] = (1 + W[1])*X[0]\n"
        "X[0] = input\n"
    )


def test_render_collected_coefficient_reparses():
    spec = parse("X[i] = X[i-1] + X[i-1] + X[i-1]; X[0] = input")
    text = render(spec)
    assert text == "X[i] = 3*X[i-1]\nX[0] = input\n"
    assert parse(text) == spec


def test_render_leading_negative_reparses():
    cases = [
        (
            "X[i] = 0 - W[i]*X[i-1] + X[i-2]; X[1] = W[1]*X[0]; X[0] = input",
            "X[i] = -W[i]*X[i-1] + X[i-2]\nX[1] = W[1]*X[0]\nX[0] = input\n",
        ),
        # A constant 2*X, a scaled 3*W*X and a negative scaled base case.
        (
            "X[i] = -W[i]*X[i-1] + 2*X[i-2] + 3*W[i-1]*X[0];"
            " X[1] = -2*W[1]*X[0]; X[0] = input",
            "X[i] = -W[i]*X[i-1] + 2*X[i-2] + 3*W[i-1]*X[0]\n"
            "X[1] = -2*W[1]*X[0]\nX[0] = input\n",
        ),
        # Parenthesized multi-term coefficients and a bare negative base case.
        (
            "X[i] = (1 - 2*W[i])*X[i-1] - (W[i] + W[i-1])*X[i-2];"
            " X[1] = -X[0]; X[0] = input",
            "X[i] = (1 - 2*W[i])*X[i-1] + (-W[i] - W[i-1])*X[i-2]\n"
            "X[1] = -X[0]\nX[0] = input\n",
        ),
    ]
    for source, expected in cases:
        spec = parse(source)
        text = render(spec)
        assert text == expected
        assert parse(text) == spec


def test_roundtrip_on_builtins():
    # Specs compare and hash by value, down to their coefficients.
    for name in BUILTIN_NAMES:
        spec = builtin_spec(name)
        again = parse(render(spec), name=name)
        assert again == spec and hash(again) == hash(spec)


def test_coefficient_repr_shows_its_terms():
    coeff = builtin_spec("resnet").rule.terms[0].coeff
    assert repr(coeff) == "CoefficientExpr({(): 1, (('rel', 0),): 1})"


def test_roundtrip_on_random_specs():
    rng = random.Random(1234)
    for _ in range(100):
        spec = random_affine_spec(rng)
        assert parse(render(spec), name=spec.name) == spec


def test_instantiate_terms_for_rule_and_base():
    spec = builtin_spec("newarch")
    deps3 = dict(spec.instantiate_terms(3))
    assert set(deps3) == {1, 2}
    assert deps3[2].coefficients == {(): 1, (3,): 1}
    assert deps3[1].coefficients == {(2,): -1}
    deps1 = dict(spec.instantiate_terms(1))
    assert deps1[0].coefficients == {(): 1, (1,): 1}
    assert spec.instantiate_terms(0) == []


# Relative and absolute atoms that meet: W[i-1] and W[2] cancel at i = 3,
# and from i = 4 on the three words are distinct.
ABSMIX = (
    "X[0] = input\nX[1] = W[1]*X[0]\nX[2] = W[2]*X[1]\n"
    "X[i] = (W[i-1] - W[2] + W[i])*X[i-1]\n"
)


def _instantiate_oracle(coeff, at_index):
    """CoefficientExpr.instantiate atom by atom, as (word, coeff) pairs."""
    out = {}
    for atoms, c in coeff.terms.items():
        word = _word([at_index - v if kind == "rel" else v for kind, v in atoms])
        out[word] = out.get(word, 0) + c
    return [(w, c) for w, c in out.items() if c]


def _terms_oracle(spec, i):
    base = spec.base_case(i)
    if base is not None:
        return [(src, _instantiate_oracle(c, None)) for src, c in base.terms]
    return [
        (i - t.lag if t.lag is not None else t.source, _instantiate_oracle(t.coeff, i))
        for t in spec.rule.terms
    ]


def test_instantiate_terms_matches_the_atom_by_atom_oracle():
    rng = random.Random(34)
    specs = [builtin_spec(name) for name in BUILTIN_NAMES]
    specs += [random_affine_spec(rng) for _ in range(60)]
    specs.append(parse(ABSMIX))
    for spec in specs:
        for i in range(13):
            got = [(src, list(p.items())) for src, p in spec.instantiate_terms(i)]
            assert got == (_terms_oracle(spec, i) if i else []), (render(spec), i)
    absmix = parse(ABSMIX)
    assert [list(p.items()) for _, p in absmix.instantiate_terms(3)] == [[("\3", 1)]]
    assert [list(p.items()) for _, p in absmix.instantiate_terms(4)] == [
        [("\3", 1), ("\2", -1), ("\4", 1)]
    ]


@pytest.mark.parametrize(
    "coeff",
    [
        CoefficientExpr({(("rel", 0),): 1}),
        CoefficientExpr({(): 2, (("rel", 0), ("rel", 1)): 1}),
    ],
)
def test_instantiate_past_the_last_code_point_names_the_largest_index(coeff):
    with pytest.raises(SizeError) as err:
        coeff.instantiate(1114112)
    assert str(err.value) == (
        "block index 1114112 is past 1114111, the largest a path word can hold"
    )


def test_base_case_valid_ranges():
    with pytest.raises(RangeError):
        parse("X[i] = W[i]*X[i-1]; X[1] = W[2]*X[0]; X[0] = input")
    with pytest.raises(NonCausalError):
        parse("X[i] = W[i]*X[i-1]; X[1] = W[1]*X[1]; X[0] = input")


def test_equality_sees_the_name_and_same_recursion_does_not():
    a = parse("X[i] = W[i]*X[i-1]; X[0] = input", name="a")
    b = parse("X[i] = W[i]*X[i-1]; X[0] = input", name="b")
    assert a != b
    assert a.same_recursion(b)
    assert a == parse("X[i] = W[i]*X[i-1]; X[0] = input", name="a")


def test_same_recursion_ignores_variable_name():
    a = parse("X[i] = W[i]*X[i-1]; X[0] = input")
    b = parse("X[n] = W[n]*X[n-1]; X[0] = input")
    assert a != b
    assert a.same_recursion(b)


def test_deep_nesting_is_a_syntax_error():
    inner = "W[i]*X[i-1]"
    ok = "X[i] = " + "(" * MAX_NESTING + inner + ")" * MAX_NESTING + "; X[0] = input"
    assert parse(ok).same_recursion(parse(f"X[i] = {inner}; X[0] = input"))
    depth = MAX_NESTING + 1
    text = "X[i] = " + "(" * depth + inner + ")" * depth + "; X[0] = input"
    with pytest.raises(FormulaSyntaxError) as info:
        parse(text)
    assert info.value.position == text.index("(") + MAX_NESTING


# A rule with a two-word literal, and the (position, cells) of each charge
# parsing it makes, in order: 16 cells a character of the text; 1 for each
# term a sum appends, at its sign or first token; and at each star, for
# every term it builds, 1 + its atoms + the product of its coefficients'
# 64-bit words (20 nines take 2).
EDGE = "X[0] = input; X[i] = (1 + W[i])*" + "9" * 20 + "*X[i-1] - X[i-1]"
_FIRST, _STAR = EDGE.index("(1"), EDGE.index("*")
EDGE_CHARGES = [
    ("text", len(EDGE) - 1, TEXT_CELLS * len(EDGE)),
    ("sum", _FIRST + 1, 1),  # 1
    ("sum", _FIRST + 3, 1),  # + W[i]
    ("star", _STAR, 2 * 1 + 1 * 1 + 2 * 0 + 2 * 2),  # (1 + W[i]) times 9...9
    ("star", EDGE.index("*", _STAR + 1), 2 * 1 + 1 * 1 + 2 * 1 + 4 * 1),  # times X[i-1]
    ("sum", _FIRST, 2),  # the product's two terms
    ("sum", EDGE.index(" - ") + 1, 1),  # - X[i-1]
]
EDGE_SPENT = list(accumulate(cells for _, _, cells in EDGE_CHARGES))


def assert_edge_charges_stop(monkeypatch, kind):
    """Each charge of kind fails EDGE at its position under a budget one
    cell short of what parsing has spent once it is made."""
    for (what, position, _), spent in zip(EDGE_CHARGES, EDGE_SPENT):
        if what != kind:
            continue
        monkeypatch.setattr(parser, "PARSE_BUDGET", spent - 1)
        with pytest.raises(SizeError) as info:
            parse(EDGE)
        assert info.value.position == position
        assert info.value.message == (
            f"parsing charges {spent} cells, past the parse budget of {spent - 1}"
        )


def test_product_past_the_term_cap_fails_at_its_star(monkeypatch):
    # n factors of (1 + W[i]) distribute into 2^n terms.
    def product(n):
        return "X[i] = " + "*".join(["(1 + W[i])"] * n) + "*X[i-1]; X[0] = input"

    # The budget holds the 2^16 distributed terms, which collect into
    # binomial coefficients, and stops a 17th factor at the 16th star.
    assert sum(parse(product(16)).rule.terms[0].coeff.terms.values()) == 1 << 16
    over = product(17)
    with pytest.raises(SizeError) as info:
        parse(over)
    assert info.value.position == 182
    assert info.value.position == [k for k, ch in enumerate(over) if ch == "*"][15]
    assert info.value.message.endswith(f"parse budget of {PARSE_BUDGET}")
    assert_edge_charges_stop(monkeypatch, "star")


def test_sum_past_the_term_cap_fails_at_its_sign(monkeypatch):
    # The whole of EDGE's charges parse; one cell fewer stops the last sign.
    monkeypatch.setattr(parser, "PARSE_BUDGET", EDGE_SPENT[-1])
    assert parse(EDGE).rule.terms[0].coeff.render("i") == (
        "99999999999999999998 + 99999999999999999999*W[i]"
    )
    assert_edge_charges_stop(monkeypatch, "sum")


def test_terms_held_across_a_text_keep_to_the_cap(monkeypatch):
    # The text charge lands on the character that passes the budget.
    assert_edge_charges_stop(monkeypatch, "text")
    monkeypatch.setattr(parser, "PARSE_BUDGET", TEXT_CELLS * 10 - 1)
    with pytest.raises(SizeError) as info:
        parse(EDGE)
    assert info.value.position == 9

    # One counter runs across the text: each statement W[1]*X[k-1] charges
    # 4 cells at its star and 1 for its term, on top of what the statements
    # before it spent, and the rule X[i-1] charges 1.
    statements = [f"X[{k}] = W[1]*X[{k - 1}]" for k in range(1, 5)]
    text = "\n".join(statements + ["X[0] = input", "X[i] = X[i-1]"])
    text_cells = TEXT_CELLS * len(text)
    monkeypatch.setattr(parser, "PARSE_BUDGET", text_cells + 4 * 5 + 1)
    assert parse(text).base_case(4) is not None
    for k, statement in enumerate(statements):
        monkeypatch.setattr(parser, "PARSE_BUDGET", text_cells + 5 * k + 3)
        with pytest.raises(SizeError) as info:
            parse(text)
        assert info.value.position == text.index(statement) + statement.index("*")


@pytest.mark.parametrize(
    "text, tokens",
    [
        ("a\u00b2", [("NAME", "a\u00b2", 0)]),  # a superscript two inside a name
        ("\u0663", [("INT", "\u0663", 0)]),  # an Arabic-Indic three
        ("12ab", [("INT", "12", 0), ("NAME", "ab", 2)]),
        (
            "W[i\u22121]",  # a unicode minus
            [
                ("NAME", "W", 0), ("LBRACK", "[", 1), ("NAME", "i", 2),
                ("MINUS", "-", 3), ("INT", "1", 4), ("RBRACK", "]", 5),
            ],
        ),
        ("#x\n;", [("SEP", "\n", 2), ("SEP", ";", 3)]),
        ("\r\t ", []),
    ],
)
def test_tokens_of_tricky_characters(text, tokens):
    assert tokenize(text) == [*tokens, ("EOF", "", len(text))]


@pytest.mark.parametrize(
    "text, message, at",
    [
        ("\u00b2", "unexpected character '\u00b2'", 0),  # superscript two
        ("\u00bd", "unexpected character '\u00bd'", 0),  # vulgar fraction one half
        ("\u2177", "unexpected character '\u2177'", 0),  # small roman numeral eight
        ("\f", "unexpected character '\\x0c'", 0),
        ("i\u0301", "unexpected character '\u0301'", 1),  # a combining acute
        ("9" * 4301, "integer literal of 4301 digits is too long", 0),
    ],
)
def test_tokenizer_rejects_tricky_characters(text, message, at):
    with pytest.raises(FormulaSyntaxError) as info:
        tokenize(text)
    assert (info.value.message, info.value.position) == (message, at)


def test_any_text_parses_or_raises_recur_error_with_a_position():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from recur.errors import RecurError

    # Statements over drawn indices and factors, so that most draws reach
    # the index and literal conversions, then any text at all.
    long = "9" * 4301
    index = st.sampled_from(
        ["i", "i-1", "i-2", "i+1", "q", "0", "1", "2", "", "²", "i-²", "٣", long]
    )
    atom = st.builds("{}[{}]".format, st.sampled_from("XWY"), index)
    factor = atom | st.sampled_from(["1", "-2", "²", "(1 + W[i])", "input", long])
    term = st.lists(factor, min_size=1, max_size=2).map("*".join)
    expr = st.lists(term, min_size=1, max_size=2).map(" - ".join)
    statement = st.builds("{} = {}".format, atom, expr)
    noise = st.text(st.characters(codec=None), max_size=40)
    texts = st.lists(statement, max_size=3).map("; ".join) | noise

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(texts)
    def check(text):
        try:
            assert isinstance(parse(text), ArchitectureSpec)
        except RecurError as exc:
            assert exc.position is not None and 0 <= exc.position <= len(text), exc

    check()
