"""Derivative expansion of recursion formulas.

``derivatives`` runs the backward recurrence, the one expansion route:
starting from the identity at the final state, each state's polynomial is
pushed to the states it depends on, multiplying its dependency coefficient
on the right (deeper blocks stay on the left).  A state's polynomial is
complete when the loop reaches it, so one pass yields d X[L]/d X[i] for
every i from L down.  ``derivative`` reads one j off that pass, and
``unroll`` reads j = 0: ``parse`` makes X[0] the only free input, so X[L]
is its derivative times X[0].

Each pass charges a ``Budget`` (``errors.py``), in cells, for the product
terms it is about to build, their word lengths and coefficient sizes, and
for each step; past its limit, EXPANSION_BUDGET cells, it raises SizeError
before building them.  Each pass has a budget of its own, except that
``chain-identity`` hands one from ``one_budget`` to every pass of its
sweep.  Nothing caps the depth itself.

``derivative_census`` runs the same loop, ``_pass``, but carries each
state as a census, a map from length to (count, weight), in place of its
polynomial: the bin-by-bin sum of its pushers' censuses convolved with
their coefficients'.  That is the census only when no word takes two paths,
so at each state it pops the pass checks the words of its pushes
(``_unique``, which holds the argument), and at the first that fails it
falls back to ``derivative``.  The check passes for chain, resnet, eq22 and
the appendix formulas at every j, which then build no product; each push
is charged to the budget as the product would be.

The test suite keeps an independent forward oracle (``tests/conftest.py``)
that unrolls the recursion with the queried state held free; for affine
formulas the two must agree exactly.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from math import comb
from typing import NamedTuple

from .algebra import (
    CensusBin, PathPolynomial, _too_long, _word, block_product, census, poly_add,
    poly_mul, signed_sum,
)
from .builtins import CHECK_KINDS
from .errors import Budget
from .parser import REL, ArchitectureSpec

# The cells one expansion, or a sweep of them, may charge, priced in
# ``_pass``, and the fixed charge of each of its steps.
EXPANSION_BUDGET = 1 << 25
STEP_CELLS = 1 << 9


def one_budget(steps: int) -> Budget:
    """A fresh budget for the passes of a sweep, ``steps`` steps or more in
    all: SizeError first if the steps alone pass it."""
    budget = Budget("expansion", EXPANSION_BUDGET)
    budget.charge(f"a sweep of {steps} steps", steps * STEP_CELLS)
    budget.spent = 0  # each pass charges its own steps
    return budget


def derivatives(
    spec: ArchitectureSpec, L: int, stop: int = 0
) -> Iterator[tuple[int, PathPolynomial]]:
    """Yield (i, d X[L]/d X[i]) for i = L down to ``stop``, in one pass.

    W symbols are treated as constants: a coefficient like W[i-1] carries
    no derivative of its own, it is the block Jacobian itself.  The
    polynomial at i does not depend on ``stop``, in items or in their order.
    """
    return _pass(spec, L, stop)


def _pass(
    spec: ArchitectureSpec,
    L: int,
    stop: int,
    counting: bool = False,
    budget: Budget | None = None,
) -> Iterator[tuple[int, PathPolynomial | dict | None]]:
    """The expansion loop: yield (i, d X[L]/d X[i]) for i = L down to
    ``stop``.  When ``counting``, each state is yielded as its census, the
    bin-by-bin sum of its pushes' convolutions, and no product is built:
    [count, weight] lists by length, and CensusBins at ``stop``.  At the
    first state ``_unique`` cannot clear, the pass yields (stop, None) and
    ends.

    The pass charges ``budget``, a fresh expansion budget by default:
    STEP_CELLS for each of the L - stop steps up front, then, before each
    push, ``_prices`` cells for each term of its product times each term of
    its coefficient; a census's terms are its count.  It keeps the running
    total itself and writes it to ``budget`` when it ends, so a pass that
    falls back or is abandoned charges a shared budget nothing.
    """
    if L < 1:
        raise ValueError(f"depth must be >= 1, got {L}")
    if not 0 <= stop <= L:
        raise ValueError(f"wrt index must be in [0, {L}], got {stop}")
    if budget is None:
        budget = Budget("expansion", EXPANSION_BUDGET)
    # The running total: once it is past the limit, charging the budget
    # the difference raises.
    spent, limit = budget.spent + (L - stop) * STEP_CELLS, budget.limit
    if spent > limit:
        budget.charge(f"expanding X[{L}] down to X[{stop}]", spent - budget.spent)
    price = _prices(spec)
    top = _tops(spec, stop) if counting else None
    # The polynomials (or censuses) pushed so far, by state; states below
    # stop take none.  A state's polynomial leaves f when the loop reaches
    # it and is yielded before it is pushed on, so a caller that drops it
    # keeps none to the end.
    zero = {} if counting else PathPolynomial.zero()
    f: dict[int, PathPolynomial | dict[int, list[int]]] = {
        L: {0: [1, 1]} if counting else PathPolynomial.one()
    }
    for i in range(L, stop, -1):
        pushed = f.pop(i, zero)
        yield i, pushed
        terms = sum(b[0] for b in pushed.values()) if counting else len(pushed)
        if not terms:
            continue
        cells = terms * price(L - i)
        pushes = spec.instantiate_terms(i)
        if counting and not _unique(pushes, stop, top):
            yield stop, None
            return
        for source, coeff in pushes:
            if source >= stop:
                spent += cells * len(coeff)
                if spent > limit:
                    budget.charge(f"expanding X[{L}] at X[{i}]", spent - budget.spent)
                if counting:
                    _convolve(pushed, coeff, f.setdefault(source, {}))
                else:
                    f[source] = poly_add(f.get(source, zero), poly_mul(pushed, coeff))
    budget.spent = spent
    last = f.pop(stop, zero)
    yield stop, _bins(last) if counting else last


def _prices(spec: ArchitectureSpec) -> Callable[[int], int]:
    """The cells a push from X[L-k] is charged for each term of its product:
    1 + the word length + the product of the coefficients' 64-bit word
    counts, each bounded from the spec.

    Each state's coefficients have words of at most ``longest`` factors and
    |coefficients| that sum to at most ``weight``.  A push takes an index
    down by 1 or more, so the words at X[L-k] have at most k * longest
    factors and each |coefficient| there is below (k + 1) * weight^k.
    """
    states = [[t.coeff for t in spec.rule.terms]]
    states += [[c for _, c in base.terms] for base in spec.base_cases]
    longest = max(len(atoms) for s in states for c in s for atoms in c.terms)
    weight = max(sum(abs(v) for c in s for v in c.terms.values()) for s in states)
    grow, words = (weight - 1).bit_length(), (weight.bit_length() + 63) >> 6

    def price(k: int) -> int:
        bits = k * grow + (k + 1).bit_length()
        return 1 + (k + 1) * longest + ((bits + 63) >> 6) * words

    return price


def _tops(spec: ArchitectureSpec, j: int) -> Callable[[int], int]:
    """top(t): a bound on the blocks of the coefficients of the states in
    (j, t], 0 when there are none.

    A rule state X[s] holds blocks s - v for its relative offsets v, largest
    at s = t; every other block is an absolute atom of the rule or of a
    base case.  Nothing is sized by the depth.
    """
    first = spec.first_rule_index
    atoms = [a for t in spec.rule.terms for a in t.coeff.atoms()]
    atoms += [a for b in spec.base_cases for _, c in b.terms for a in c.atoms()]
    low = min((v for kind, v in atoms if kind == REL), default=None)
    fixed = max((v for kind, v in atoms if kind != REL), default=0)

    def top(t: int) -> int:
        if t <= j:
            return 0
        return fixed if t < first or low is None else max(fixed, t - low)

    return top


def _unique(
    pushes: list[tuple[int, PathPolynomial]], j: int, top: Callable[[int], int]
) -> bool:
    """Whether the pushes of one state into X[j] and above, one move a word
    of each coefficient, let no word of d X[L]/d X[t], t >= j, take two
    paths, given that the states above passed.  Two moves (u1, t1), (u2, t2)
    with |u1| <= |u2| pass when neither word is a prefix of the other, or
    when u1 is a proper prefix of u2 and the block u2[|u1|] is past
    top(t1).

    By induction on the state where two paths part.  Say two paths from
    X[L] to X[t] spell one word and first part at X[s], by moves (u1, t1)
    and (u2, t2), |u1| <= |u2|: the words before X[s] are the same, so
    u1 r1 = u2 r2, where r1 and r2 are the words of the rest of each path.
    If neither of u1, u2 is a prefix of the other, the two sides differ
    within them; if u1 = u2, this test has failed.  Else u1 is a proper
    prefix of u2, r1 is not empty, and its first block, u2[|u1|], belongs
    to a coefficient of a state in (t, t1], within (j, t1]: it is at most
    top(t1), and this test has failed too.  So once every state the pass
    pops has passed, each word has one path, its coefficient is the
    product of its moves' coefficients, and the census is the sum over
    paths that the pass counts.
    """
    targets: dict[str, int] = {}
    for s, c in pushes:
        if s >= j:
            for w in c.keys():
                if w in targets:
                    return False
                targets[w] = s
    # Each word looks up its prefixes of the lengths that some word has: at
    # most one lookup for each block of the words, not one for each pair.
    lengths = sorted({len(w) for w in targets})
    for u2 in targets:
        for k in lengths:
            if k >= len(u2):
                break
            t1 = targets.get(u2[:k])
            if t1 is not None and ord(u2[k]) <= top(t1):
                return False
    return True


def _convolve(
    a: dict[int, list[int]], coeff: PathPolynomial, into: dict[int, list[int]]
) -> None:
    """Add to ``into``, a census as [count, weight] lists, the census of the
    product of a polynomial with census ``a`` and ``coeff``, whose words each
    have one path: lengths add, counts and weights multiply."""
    for word, c in coeff.items():
        m, c = len(word), abs(c)
        for k, (count, weight) in a.items():
            n = into.setdefault(k + m, [0, 0])
            n[0] += count
            n[1] += weight * c


def _bins(counts: dict[int, list[int]]) -> dict[int, CensusBin]:
    """A census kept as [count, weight] lists, as CensusBins by length."""
    return {k: CensusBin(*counts[k]) for k in sorted(counts)}


def derivative(spec: ArchitectureSpec, L: int, j: int) -> PathPolynomial:
    """Derivative of X[L] with respect to X[j]: the last of ``derivatives``."""
    for _, poly in derivatives(spec, L, j):
        pass
    return poly


def derivative_census(
    spec: ArchitectureSpec, L: int, j: int
) -> dict[int, CensusBin]:
    """census(derivative(spec, L, j)), counted state by state with no
    product built while ``_unique`` clears each state the pass pops, as it
    does for chain, resnet, eq22 and the appendix formulas; else the census
    of ``derivative``.  Both routes charge each push to the budget alike, so
    both stop at the same state with the same error.
    """
    for _, last in _pass(spec, L, j, counting=True):
        if last is None:
            return census(derivative(spec, L, j))
    return last


class StateExpansion:
    """X[L] over the free input: ``components`` maps 0 to the polynomial of
    X[0], and is empty when that polynomial is zero."""

    __slots__ = ("components",)

    def __init__(self, poly: PathPolynomial):
        self.components = {0: poly} if poly else {}


def unroll(spec: ArchitectureSpec, L: int) -> StateExpansion:
    """Express X[L] over the free input X[0], substituting all base cases.

    This is ``derivative(spec, L, 0)``; it stays as a function of its own
    because the benchmark's per-layer tracer wraps it by name and reads
    ``components`` (the ``expansion.unroll_*`` metrics).
    """
    return StateExpansion(derivative(spec, L, 0))


# ---------------------------------------------------------------------------
# Structure checks
# ---------------------------------------------------------------------------


class Violation(NamedTuple):
    length: int
    expected: object
    actual: object

    def to_dict(self) -> dict:
        return {"length": self.length, "expected": self.expected, "actual": self.actual}


class StructureReport(NamedTuple):
    """Outcome of one structural claim about a derivative polynomial."""

    spec: str
    depth: int
    wrt: int | None
    check: str
    passed: bool
    violations: tuple[Violation, ...] = ()

    def to_dict(self) -> dict:
        return {
            "spec": self.spec,
            "depth": self.depth,
            "wrt": self.wrt,
            "check": self.check,
            "pass": self.passed,
            "violations": [v.to_dict() for v in self.violations],
        }


def check_structure(
    poly: PathPolynomial | None,
    kind: str,
    L: int,
    j: int,
    spec_name: str = "",
    histogram: dict[int, CensusBin] | None = None,
) -> StructureReport:
    """Check a path-structure claim about derivative(spec, L, j).

    Violations are data, not errors: the report lists each failed length
    with the expected and observed values.  ``histogram`` is census(poly),
    for a caller that has it already; given it, ``poly`` is read only by
    the widest check and may be None for the others.

    kind="binomial":    the count of length-k paths is C(L-j, k).
    kind="single-path": exactly one path per length 0..L-j.
    kind="widest":      the unique length-k path uses the k deepest blocks
                        W[L]*W[L-1]*...*W[L-k+1].
    """
    if kind not in CHECK_KINDS:
        raise ValueError(f"unknown check kind {kind!r}; choose from {CHECK_KINDS}")
    i = L - j
    if i < 0:
        raise ValueError(f"wrt index {j} exceeds depth {L}")
    violations: list[Violation] = []

    if kind == "widest":
        by_length: dict[int, list] = {}
        for word, coeff in zip(*poly.canonical_columns()):
            by_length.setdefault(len(word), []).append((word, coeff))

        def text(terms: list) -> str:
            return " + ".join(signed_sum([(c, block_product(w))]) for w, c in terms)

        widest = _word(range(L, j, -1))  # W[L]*W[L-1]*...*W[j+1]
        for k in range(0, i + 1):
            expected = widest[:k]
            terms = by_length.get(k, [])
            if len(terms) != 1 or terms[0][0] != expected:
                violations.append(
                    Violation(k, block_product(expected) or "1", text(terms) or "absent")
                )
        for k in sorted(by_length):
            if k > i:
                violations.append(Violation(k, "absent", text(by_length[k])))
    else:
        if histogram is None:
            histogram = census(poly)
        counts = {k: b.count for k, b in histogram.items()}
        for k in range(0, i + 1):
            expected = comb(i, k) if kind == "binomial" else 1
            actual = counts.get(k, 0)
            if actual != expected:
                violations.append(Violation(k, expected, actual))
        for k in sorted(counts):
            if k > i:
                violations.append(Violation(k, 0, counts[k]))

    return StructureReport(
        spec=spec_name,
        depth=L,
        wrt=j,
        check=kind,
        passed=not violations,
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# Equivalence and identities
# ---------------------------------------------------------------------------


def value_equivalence_report(
    spec_a: ArchitectureSpec,
    spec_b: ArchitectureSpec,
    L: int,
) -> StructureReport:
    """Term-by-term comparison of the two unrolled expansions."""
    pa = derivative(spec_a, L, 0)
    pb = derivative(spec_b, L, 0)
    violations: list[Violation] = []
    ta, tb = (dict(pa.items()), dict(pb.items())) if pa != pb else ({}, {})
    try:
        for word in sorted(ta.keys() | tb.keys(), key=lambda w: (len(w), w)):
            ca = ta.get(word, 0)
            cb = tb.get(word, 0)
            if ca != cb:
                term = block_product(word) or "1"
                violations.append(
                    Violation(len(word), f"{ca}*{term} (X[0])", f"{cb}*{term}")
                )
    except ValueError:  # str() of an int past the interpreter's digit limit
        raise _too_long(max(abs(ca), abs(cb))) from None
    return StructureReport(
        spec=f"{spec_a.name} vs {spec_b.name}",
        depth=L,
        wrt=None,
        check="value-equivalence",
        passed=not violations,
        violations=tuple(violations),
    )


def verify_chain_identity(
    spec: ArchitectureSpec, m: int, budget: Budget | None = None
) -> bool:
    """Check d X[m]/d X[m-2] == d X[m]/d X[m-1] * (1 + W[m-1]) - W[m-1].

    This is the two-step chain-rule consistency condition satisfied by the
    two-lag architecture; it fails for plain shortcut recursions.  The pass
    charges ``budget``, which a sweep of m shares (``one_budget``).
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    d = dict(_pass(spec, m, m - 2, budget=budget))
    one_plus_w = poly_add(PathPolynomial.one(), PathPolynomial.block(m - 1))
    rhs = poly_add(poly_mul(d[m - 1], one_plus_w), -PathPolynomial.block(m - 1))
    return d[m - 2] == rhs
