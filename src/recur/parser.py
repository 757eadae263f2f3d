"""Parser and renderer for the recursion-formula DSL.

Grammar (whitespace-insensitive; one statement per line or ';'; a "#"
starts a comment that runs to end of line; files use extension ".rf"):

    statement := "X[" idx "]" "=" expr  |  "X[0] = input"
    expr      := ["+"|"-"] term (("+"|"-") term)*
    term      := factor ("*" factor)*
    factor    := integer | "W[" idx "]" | "X[" idx "]" | "(" expr ")"
    idx       := identifier (("+"|"-") integer)? | integer

Two liberties beyond the minimal grammar: any integer literal is accepted
where "1" would be (so collected coefficients such as "2*X[i-1]" can be
re-read), and a unary sign is accepted before the first term of an
expression.  Both keep parse(render(spec)) an identity.

A statement whose left-hand index is an identifier defines the recursion
rule; integer left-hand indices define base cases; "X[0] = input" declares
the free input state.  The parser distributes parenthesized sums, collects
the per-source coefficient polynomials, and rejects anything that is not
affine in the X symbols (exactly one X factor per distributed term, in
rightmost position).
"""

from __future__ import annotations

import re
from typing import Iterator, Mapping, NamedTuple

from .algebra import PathPolynomial, Word, _word, signed_sum
from .errors import (
    Budget,
    FormulaSyntaxError,
    NonAffineError,
    NonCausalError,
    RangeError,
)

# A coefficient atom: ("rel", c) denotes W[v-c] for the rule variable v,
# ("abs", k) denotes W[k].
WAtom = tuple[str, int]
WKey = tuple[WAtom, ...]

REL = "rel"
ABS = "abs"

# Deepest parenthesis nesting the recursive-descent parser accepts; each
# level costs three Python stack frames.
MAX_NESTING = 100

# The cells one parse may charge, in the unit of expansion.EXPANSION_BUDGET,
# each before what it prices is built: TEXT_CELLS a character of the text,
# before it is tokenized; for each term a product distributes into, 1 + its
# atoms + the product of its two coefficients' 64-bit word counts; and 1 for
# each term a sum appends.
PARSE_BUDGET = 1 << 21
TEXT_CELLS = 16


def _atom_sort_key(atom: WAtom) -> tuple[int, int]:
    # Relative atoms by ascending offset (descending block index), then
    # absolute atoms by descending index.
    kind, value = atom
    return (0, value) if kind == REL else (1, -value)


def _coeff_term_key(atoms: WKey) -> tuple:
    return (len(atoms), tuple(_atom_sort_key(a) for a in atoms))


class CoefficientExpr:
    """Integer polynomial in W symbols, independent of the X states.

    Its instantiation plan holds, for each term in order, its coefficient
    and each atom as (multiplier of the state index, offset): W[v-c] is
    (1, -c) and W[k] is (0, k).
    """

    __slots__ = ("_terms", "_plan")

    def __init__(self, terms: Mapping[WKey, int] | None = None):
        normalized: dict[WKey, int] = {}
        if terms:
            for atoms, coeff in terms.items():
                if coeff:
                    normalized[tuple(atoms)] = coeff
        self._terms = normalized
        self._plan = tuple(
            (coeff, tuple((1, -v) if kind == REL else (0, v) for kind, v in atoms))
            for atoms, coeff in normalized.items()
        )

    @property
    def terms(self) -> dict[WKey, int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def atoms(self) -> Iterator[WAtom]:
        for key in self._terms:
            yield from key

    def instantiate(self, at_index: int) -> PathPolynomial:
        """Resolve atoms to concrete block indices for the state X[at_index].

        ``parse`` keeps every resolved index >= 1.  Each term's word is
        written into the dict as it stands; only when two words collide are
        the coefficients added up, in term order, and zeros swept out.
        """
        i, plan = at_index, self._plan
        out: dict[Word, int] = {}
        try:
            for coeff, atoms in plan:
                word = ""
                for m, o in atoms:
                    word += chr(m * i + o)
                out[word] = coeff
        except (ValueError, OverflowError):
            _word([m * i + o for m, o in atoms])  # raises SizeError
        if len(out) < len(plan):
            out = dict.fromkeys(out, 0)
            for coeff, atoms in plan:
                out["".join([chr(m * i + o) for m, o in atoms])] += coeff
            out = {w: c for w, c in out.items() if c}
        return PathPolynomial._trusted(out)

    def render(self, var: str) -> str:
        """Canonical text, e.g. "1 + W[i]" or "-W[i-1]"."""
        return signed_sum(
            (self._terms[atoms], "*".join(_render_watom(a, var) for a in atoms))
            for atoms in sorted(self._terms, key=_coeff_term_key)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoefficientExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"CoefficientExpr({self._terms!r})"


def _render_watom(atom: WAtom, var: str) -> str:
    kind, value = atom
    if kind == ABS:
        return f"W[{value}]"
    if value == 0:
        return f"W[{var}]"
    return f"W[{var}-{value}]"


# Each spec class is a plain NamedTuple, immutable and compared and hashed
# by value (builtin_spec hands one instance to every caller).  Only parse
# checks a spec; it also puts the fields in their canonical order.


class RuleTerm(NamedTuple):
    """One summand of the recursion rule: coeff * X[source].

    Exactly one of ``lag`` (relative source X[v-lag], lag >= 1) and
    ``source`` (absolute source X[source]) is set.
    """

    coeff: CoefficientExpr
    lag: int | None = None
    source: int | None = None


class RecursionRule(NamedTuple):
    """The uniform recursion X[v] = sum of coeff * X[earlier]: relative
    terms by lag, then absolute terms by source."""

    index_var: str
    terms: tuple[RuleTerm, ...]

    @property
    def max_lag(self) -> int:
        return max((t.lag for t in self.terms if t.lag is not None), default=0)


class BaseCase(NamedTuple):
    """An explicitly defined low state, with its (source, coefficient) pairs
    by source, or the free-input declaration."""

    index: int
    terms: tuple[tuple[int, CoefficientExpr], ...] = ()
    is_input: bool = False


class ArchitectureSpec(NamedTuple):
    """A recursion rule with its base cases, X[0], X[1], ... in order.

    ``name`` is presentation metadata: :func:`render` does not emit it, but
    ``==`` compares it.
    """

    rule: RecursionRule
    base_cases: tuple[BaseCase, ...]
    name: str = "spec"

    @property
    def first_rule_index(self) -> int:
        """Smallest state index computed by the rule."""
        return self.base_cases[-1].index + 1

    def base_case(self, index: int) -> BaseCase | None:
        return self.base_cases[index] if 0 <= index < len(self.base_cases) else None

    def instantiate_terms(self, i: int) -> list[tuple[int, PathPolynomial]]:
        """Dependencies of state i as (source index, coefficient polynomial)."""
        if i < 1:
            return []
        base = self.base_case(i)
        if base is not None:
            return [(src, coeff.instantiate(i)) for src, coeff in base.terms]
        return [
            (i - t.lag if t.lag is not None else t.source, t.coeff.instantiate(i))
            for t in self.rule.terms
        ]

    def same_recursion(self, other: "ArchitectureSpec") -> bool:
        """Equality of rule terms and base cases, ignoring the name and the
        index-variable name."""
        return (
            self.rule.terms == other.rule.terms
            and self.base_cases == other.base_cases
        )


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------


class Token(NamedTuple):
    kind: str
    value: str
    pos: int


_SYMBOLS = {
    "[": ("LBRACK", "["),
    "]": ("RBRACK", "]"),
    "(": ("LPAREN", "("),
    ")": ("RPAREN", ")"),
    "+": ("PLUS", "+"),
    "-": ("MINUS", "-"),
    "−": ("MINUS", "-"),  # unicode minus, read as '-'
    "*": ("STAR", "*"),
    "=": ("EQUALS", "="),
}

# Blanks and comments match no group.  \d is exactly str.isdecimal, the
# digits int() accepts, and \w is exactly str.isalnum plus "_".
_TOKEN = re.compile(
    r"[ \t\r]+|#[^\n]*|(?P<SEP>[\n;])|(?P<INT>\d+)|(?P<NAME>\w+)"
    r"|(?P<SYM>[][()+\-*=\u2212])"
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos, n = 0, len(text)
    while pos < n:
        ch, m = text[pos], _TOKEN.match(text, pos)
        if not m or m.lastgroup == "NAME" and not (ch.isalpha() or ch == "_"):
            raise FormulaSyntaxError(f"unexpected character {ch!r}", position=pos)
        kind, value = m.lastgroup, m.group()
        if kind == "INT":
            try:
                int(value)
            except ValueError:  # past CPython's limit on digits
                raise FormulaSyntaxError(
                    f"integer literal of {len(value)} digits is too long", position=pos
                ) from None
        elif kind == "SYM":
            kind, value = _SYMBOLS[value]
        if kind:
            tokens.append(Token(kind, value, pos))
        pos = m.end()
    tokens.append(Token("EOF", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _WorkAtom(NamedTuple):
    sym: str  # "W" or "X"
    mode: str  # REL or ABS
    value: int
    pos: int


_Term = tuple[int, tuple[_WorkAtom, ...]]

# (position, rule variable or base-case index, terms or None for X[0] = input)
_Statement = tuple[int, "str | int", "list[_Term] | None"]


class _Parser:
    def __init__(self, text: str):
        self.budget = Budget("parse", PARSE_BUDGET)
        cells = len(text) * TEXT_CELLS
        self.budget.charge("parsing", cells, PARSE_BUDGET // TEXT_CELLS)
        self.tokens = tokenize(text)
        self.i = 0
        self.nesting = 0
        # Set per statement: the rule's index variable, or the base-case index.
        self.context_var: str | None = None
        self.context_base: int | None = None

    # -- token plumbing -------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "EOF":
            self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise FormulaSyntaxError(
                f"expected {what}, found {tok.value or 'end of input'!r}",
                position=tok.pos,
            )
        return self.advance()

    # -- statements ------------------------------------------------------

    def parse_statements(self) -> list[_Statement]:
        statements = []
        while True:
            while self.peek().kind == "SEP":
                self.advance()
            if self.peek().kind == "EOF":
                return statements
            statements.append(self.parse_statement())
            tok = self.peek()
            if tok.kind not in ("SEP", "EOF"):
                raise FormulaSyntaxError(
                    f"expected end of statement, found {tok.value!r}",
                    position=tok.pos,
                )

    def parse_statement(self) -> _Statement:
        start = self.peek()
        name = self.expect("NAME", "'X['")
        if name.value != "X":
            raise FormulaSyntaxError(
                f"statements define X states, found {name.value!r}", position=name.pos
            )
        var, value, pos = self.parse_index()
        self.expect("EQUALS", "'='")
        self.context_var = var
        self.context_base = None if var else value
        if var:
            if value != 0:
                raise FormulaSyntaxError(
                    "the rule left-hand side must be a bare X[var]", position=pos
                )
            return start.pos, var, self.parse_expr()
        tok = self.peek()
        if tok.kind == "NAME" and tok.value == "input":
            self.advance()
            if value != 0:
                raise FormulaSyntaxError(
                    "only X[0] may be declared as the input", position=tok.pos
                )
            return start.pos, 0, None
        if value == 0:
            raise FormulaSyntaxError(
                "X[0] is the free input and cannot be defined", position=start.pos
            )
        return start.pos, value, self.parse_expr()

    def parse_index(self) -> tuple[str | None, int, int]:
        """Read "[v-c]" as (v, c, position) and "[k]" as (None, k, position)."""
        self.expect("LBRACK", "'['")
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            var, value = None, int(tok.value)
        elif tok.kind == "NAME":
            self.advance()
            var, value = tok.value, 0
            nxt = self.peek()
            if nxt.kind in ("PLUS", "MINUS"):
                self.advance()
                num = self.expect("INT", "an integer offset")
                value = int(num.value) if nxt.kind == "MINUS" else -int(num.value)
        else:
            raise FormulaSyntaxError(
                f"expected an index, found {tok.value or 'end of input'!r}",
                position=tok.pos,
            )
        self.expect("RBRACK", "']'")
        return var, value, tok.pos

    # -- expressions -------------------------------------------------------

    def parse_expr(self) -> list[_Term]:
        terms: list[_Term] = []
        op = self.peek()  # an optional unary sign, then the sign of each term
        if op.kind in ("PLUS", "MINUS"):
            self.advance()
        while True:
            product = self.parse_product()
            self.budget.charge("parsing", len(product), op.pos)
            terms += [(-c, a) for c, a in product] if op.kind == "MINUS" else product
            op = self.peek()
            if op.kind not in ("PLUS", "MINUS"):
                return terms
            self.advance()

    def parse_product(self) -> list[_Term]:
        value = self.parse_factor()
        while self.peek().kind == "STAR":
            star = self.advance()
            rhs = self.parse_factor()
            (n, atoms, words), (m, rhs_atoms, rhs_words) = map(_sizes, (value, rhs))
            cells = n * m + atoms * m + n * rhs_atoms + words * rhs_words
            self.budget.charge("parsing", cells, star.pos)
            value = [(ca * cb, aa + ab) for ca, aa in value for cb, ab in rhs]
        return value

    def parse_factor(self) -> list[_Term]:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return [(int(tok.value), ())]
        if tok.kind == "LPAREN":
            if self.nesting == MAX_NESTING:
                raise FormulaSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}", position=tok.pos
                )
            self.advance()
            self.nesting += 1
            inner = self.parse_expr()
            self.expect("RPAREN", "')'")
            self.nesting -= 1
            return inner
        if tok.kind == "NAME" and tok.value in ("W", "X"):
            self.advance()
            return [(1, (self.make_atom(tok.value, *self.parse_index()),))]
        if tok.kind == "NAME" and tok.value == "input":
            raise FormulaSyntaxError(
                "'input' may only stand alone in 'X[0] = input'", position=tok.pos
            )
        raise FormulaSyntaxError(
            f"expected a factor, found {tok.value or 'end of input'!r}",
            position=tok.pos,
        )

    def make_atom(self, sym: str, var: str | None, value: int, pos: int) -> _WorkAtom:
        if var:
            if self.context_var is None:
                raise FormulaSyntaxError(
                    "relative indices are not allowed in base cases", position=pos
                )
            if var != self.context_var:
                raise FormulaSyntaxError(
                    f"unknown index variable {var!r} (rule variable is"
                    f" {self.context_var!r})",
                    position=pos,
                )
            if sym == "X" and value < 1:
                raise NonCausalError(
                    "X reference must be strictly earlier than the defined state",
                    position=pos,
                )
            if sym == "W" and value < 0:
                raise RangeError(
                    "W index exceeds the defined state index", position=pos
                )
            return _WorkAtom(sym, REL, value, pos)
        base = self.context_base
        if sym == "W" and value < 1:
            raise RangeError("W indices start at 1", position=pos)
        if sym == "W" and base is not None and value > base:
            raise RangeError(f"W[{value}] outside [1, {base}]", position=pos)
        if sym == "X" and base is not None and value >= base:
            raise NonCausalError(
                f"X[{value}] is not earlier than X[{base}]", position=pos
            )
        return _WorkAtom(sym, ABS, value, pos)


def _sizes(terms: list[_Term]) -> tuple[int, int, int]:
    """Terms, atoms and coefficient words (64 bits each) in terms."""
    return (
        len(terms),
        sum(len(atoms) for _, atoms in terms),
        sum((c.bit_length() + 63) >> 6 for c, _ in terms),
    )


def _classify(terms: list[_Term], stmt_pos: int):
    """Split distributed terms into lag -> and absolute source ->
    CoefficientExpr dicts, leaving out each coefficient that cancels."""
    rel: dict[int, dict[WKey, int]] = {}
    absolute: dict[int, dict[WKey, int]] = {}
    for coeff, atoms in terms:
        if coeff == 0:
            continue
        x_positions = [k for k, a in enumerate(atoms) if a.sym == "X"]
        if len(x_positions) != 1:
            raise NonAffineError(
                f"each term needs exactly one X factor, found {len(x_positions)}",
                position=atoms[0].pos if atoms else stmt_pos,
            )
        if x_positions[0] != len(atoms) - 1:
            raise NonAffineError(
                "the X factor must be the rightmost factor of its term",
                position=atoms[x_positions[0]].pos,
            )
        x = atoms[-1]
        key: WKey = tuple((a.mode, a.value) for a in atoms[:-1])
        bucket = rel if x.mode == REL else absolute
        slot = bucket.setdefault(x.value, {})
        slot[key] = slot.get(key, 0) + coeff
    return tuple(
        {s: e for s, c in bucket.items() if not (e := CoefficientExpr(c)).is_zero()}
        for bucket in (rel, absolute)
    )


def _first_at(terms: list[_Term], atom: tuple[str, str, int]) -> int:
    """Position of the index of the first (sym, mode, value) atom in terms."""
    return min(a.pos for _, atoms in terms for a in atoms if a[:3] == atom)


def parse(text: str, *, name: str = "spec") -> ArchitectureSpec:
    """Parse DSL text into an ArchitectureSpec, the one checked way to build
    one: each error carries the position of its atom or statement.

    ``name`` is metadata the DSL itself does not carry.
    """
    rule: RecursionRule | None = None
    distributed: list[_Term] = []  # the rule's terms as read, for positions
    # base-case index -> (statement position, base case)
    base_cases: dict[int, tuple[int, BaseCase]] = {}
    for pos, lhs, terms in _Parser(text).parse_statements():
        if isinstance(lhs, str):
            if rule is not None:
                raise FormulaSyntaxError(
                    "only one recursion rule per spec", position=pos
                )
            rel, absolute = _classify(terms, pos)
            rule_terms = [RuleTerm(e, lag=lag) for lag, e in sorted(rel.items())]
            rule_terms += [RuleTerm(e, source=s) for s, e in sorted(absolute.items())]
            if not rule_terms:
                raise FormulaSyntaxError(
                    "the rule right-hand side cancels to zero", position=pos
                )
            rule, distributed = RecursionRule(lhs, tuple(rule_terms)), terms
            continue
        if lhs in base_cases:
            raise FormulaSyntaxError(
                f"duplicate definition of X[{lhs}]", position=pos
            )
        if terms is None:
            base_cases[0] = pos, BaseCase(0, is_input=True)
            continue
        # make_atom has already rejected every relative index here.
        _, absolute = _classify(terms, pos)
        if not absolute:
            raise FormulaSyntaxError(
                f"base case X[{lhs}] cancels to zero", position=pos
            )
        base_cases[lhs] = pos, BaseCase(lhs, tuple(sorted(absolute.items())))

    if rule is None:
        raise FormulaSyntaxError("no recursion rule found", position=0)
    if 0 not in base_cases:
        raise FormulaSyntaxError("missing 'X[0] = input' declaration", position=0)
    for rank, index in enumerate(sorted(base_cases)):
        if index != rank:
            raise FormulaSyntaxError(
                "base cases must cover a contiguous range starting at X[0]",
                position=base_cases[index][0],
            )

    # The rule at its first state, on the atoms that survive cancellation.
    i_min, var = len(base_cases), rule.index_var
    if rule.max_lag > i_min:
        raise RangeError(
            f"rule references X[{var}-{rule.max_lag}], which is"
            f" negative at the first rule state X[{i_min}]",
            position=_first_at(distributed, ("X", REL, rule.max_lag)),
        )
    for term in rule.terms:
        if term.source is not None and term.source >= i_min:
            raise NonCausalError(
                f"rule references X[{term.source}], which the rule itself"
                f" defines (first rule state is X[{i_min}])",
                position=_first_at(distributed, ("X", ABS, term.source)),
            )
        # make_atom keeps relative offsets >= 0 and absolute indices >= 1.
        for kind, value in term.coeff.atoms():
            if kind == REL and value > i_min - 1:
                raise RangeError(
                    f"W[{var}-{value}] falls below W[1] at the first rule"
                    f" state X[{i_min}]",
                    position=_first_at(distributed, ("W", REL, value)),
                )
            if kind == ABS and value > i_min:
                raise RangeError(
                    f"W[{value}] outside [1, {i_min}] for the first rule"
                    f" state X[{i_min}]",
                    position=_first_at(distributed, ("W", ABS, value)),
                )
    return ArchitectureSpec(
        rule, tuple(base_cases[k][1] for k in range(i_min)), name
    )


def parse_file(path) -> ArchitectureSpec:
    """Parse a .rf file, which may open with a UTF-8 byte order mark; the
    spec is named after the file stem."""
    from pathlib import Path

    p = Path(path)
    return parse(p.read_text(encoding="utf-8-sig"), name=p.stem)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _summand(coeff: CoefficientExpr, xref: str, var: str) -> tuple[int, str]:
    """(sign-carrying coefficient, body) of one coeff*X summand."""
    items = coeff.terms
    if len(items) == 1:
        ((atoms, value),) = items.items()
        return value, "*".join([*(_render_watom(a, var) for a in atoms), xref])
    return 1, f"({coeff.render(var)})*{xref}"


def render(spec: ArchitectureSpec) -> str:
    """Canonical DSL text, which parse reads back as spec within PARSE_BUDGET."""
    var = spec.rule.index_var
    rule = signed_sum(
        _summand(t.coeff, f"X[{var}-{t.lag}]" if t.lag else f"X[{t.source}]", var)
        for t in spec.rule.terms
    )
    lines = [f"X[{var}] = {rule}"]
    for base in reversed(spec.base_cases):
        if base.is_input:
            lines.append("X[0] = input")
        else:
            body = signed_sum(_summand(c, f"X[{s}]", var) for s, c in base.terms)
            lines.append(f"X[{base.index}] = {body}")
    return "\n".join(lines) + "\n"
