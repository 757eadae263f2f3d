"""Derivative expansion of recursion formulas.

``derivatives`` runs the backward recurrence, the one expansion route:
starting from the identity at the final state, each state's polynomial is
pushed to the states it depends on, multiplying its dependency coefficient
on the right (deeper blocks stay on the left).  A state's polynomial is
complete when the loop reaches it, so one pass yields d X[L]/d X[i] for
every i from L down.  ``derivative`` reads one j off that pass, and
``unroll`` reads j = 0: ``parse`` makes X[0] the only free input, so X[L]
is its derivative times X[0].

Each pass is charged, in cells, for the product terms it is about to
build, their word lengths and coefficient sizes, and for each step; past
EXPANSION_BUDGET cells it raises SizeError before building them.  Nothing
caps the depth itself.

``derivative_census`` runs the same loop, ``_pass``, but carries a state
as a census, a map from length to (count, weight), in place of its
polynomial when the spec shows that one push alone reaches it, that the
push's product cannot repeat a word, and that each state it pushes into
is carried too (``_carried``).  Its census is then the length convolution
of its pusher's census with the coefficient's, and the product it stands
for is charged to the budget but never built: resnet and chain build none
at any j.  ``_carried`` holds only the L - j states from X[j] up, and its
sweep stops at the state where the pass is bound to exceed the budget.

The test suite keeps an independent forward oracle (``tests/conftest.py``)
that unrolls the recursion with the queried state held free; for affine
formulas the two must agree exactly.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from math import comb
from typing import NamedTuple

from .algebra import (
    CensusBin, PathPolynomial, _too_long, _word, block_product, census, poly_add,
    poly_mul, signed_sum,
)
from .errors import SizeError
from .parser import REL, ArchitectureSpec, CoefficientExpr

# The cells one expansion may charge, priced in ``_pass``, and the
# fixed charge of each of its steps.
EXPANSION_BUDGET = 1 << 25
STEP_CELLS = 1 << 9
# The cells charged so far while ``one_budget`` spans several expansions.
_SHARED: ContextVar[list[int] | None] = ContextVar("_SHARED", default=None)


@contextmanager
def one_budget(steps: int) -> Iterator[None]:
    """Charge the expansions run to their end in the block, ``steps`` steps
    or more in all, to one budget: SizeError first if the steps alone pass
    it."""
    if steps * STEP_CELLS > EXPANSION_BUDGET:
        raise _over_budget(f"a sweep of {steps} steps", steps * STEP_CELLS)
    token = _SHARED.set([0])
    try:
        yield
    finally:
        _SHARED.reset(token)


def _over_budget(what: str, spent: int) -> SizeError:
    return SizeError(
        f"{what} charges {spent} cells, past the expansion budget of"
        f" {EXPANSION_BUDGET}"
    )


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
    spec: ArchitectureSpec, L: int, stop: int, counting: bool = False
) -> Iterator[tuple[int, PathPolynomial | dict[int, CensusBin]]]:
    """The expansion loop: yield (i, d X[L]/d X[i]) for i = L down to
    ``stop``.  When ``counting``, each state ``_carried`` names is yielded
    as its census, the convolution of its one push's, and no product into
    it is built.

    The budget takes STEP_CELLS for each of the L - stop steps up front,
    then, before each push, ``_prices`` cells for each term of its product
    times each term of its coefficient; a carried state's terms are its
    census's count.
    """
    if L < 1:
        raise ValueError(f"depth must be >= 1, got {L}")
    if not 0 <= stop <= L:
        raise ValueError(f"wrt index must be in [0, {L}], got {stop}")
    shared = _SHARED.get()
    spent = (L - stop) * STEP_CELLS + (shared[0] if shared else 0)
    if spent > EXPANSION_BUDGET:
        raise _over_budget(f"expanding X[{L}] down to X[{stop}]", spent)
    price = _prices(spec)
    carry = _carried(spec, L, stop, spent, price) if counting else None
    # The polynomials (or censuses) pushed so far, by state; states below
    # stop take none.  A state's polynomial leaves f when the loop reaches
    # it and is yielded before it is pushed on, so a caller that drops it
    # keeps none to the end.
    zero = PathPolynomial.zero()
    f: dict[int, PathPolynomial | dict[int, CensusBin]] = {L: PathPolynomial.one()}
    for i in range(L, stop, -1):
        counted = counting and carry[i - stop]
        pushed = f.pop(i, {} if counted else zero)
        yield i, pushed
        terms = sum(b.count for b in pushed.values()) if counted else len(pushed)
        if not terms:
            continue
        cells = terms * price(L - i)
        for source, coeff in spec.instantiate_terms(i):
            if source >= stop:
                spent += cells * len(coeff)
                if spent > EXPANSION_BUDGET:
                    raise _over_budget(f"expanding X[{L}] at X[{i}]", spent)
                if counting and carry[source - stop]:  # lengths add, counts multiply
                    f[source] = _convolve(
                        pushed if counted else census(pushed), census(coeff)
                    )
                else:
                    f[source] = poly_add(f.get(source, zero), poly_mul(pushed, coeff))
    if shared:
        shared[0] = spent
    yield stop, f.pop(stop, {} if counting and carry[0] else zero)


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


def _carried(
    spec: ArchitectureSpec, L: int, j: int, spent: int, price: Callable[[int], int]
) -> bytearray:
    """Which states X[j..L-1] the pass can carry as a census in place of
    their polynomial, by index - j.  A state is carried when

    (a) exactly one push reaches it from the states X[L] reaches;
    (b) that push's product, from X[i] with coefficient c, cannot repeat a
        word: a word of d X[L]/d X[i] followed by one of c is a different
        word for each pair when c's words all have one length, or when no
        block of c occurs in a coefficient of the states X[L] reaches above
        X[i], where the first words come from;
    (c) each state it pushes into at or above X[j] is carried too.

    Read from the spec's lags, sources and atoms alone, in one sweep down
    the states and one up: nothing is instantiated ahead of the pass.  The
    sweep down charges, from ``spent`` on, what the pass must charge at
    least, and stops at the state where that passes the budget: the pass
    raises SizeError there or above, and the states below are marked
    carried, as if the sweep ended there.
    """

    def term(lag: int | None, source: int | None, coeff: CoefficientExpr):
        atoms = list(coeff.atoms())
        lengths = [len(word) for word in coeff.terms]
        return (
            lag, source,
            [v for kind, v in atoms if kind == REL],  # W[i-v]
            [v for kind, v in atoms if kind != REL],  # W[v]
            len(set(lengths)) == 1,
            # the words alone at their length: no block index cancels them
            sum(lengths.count(m) == 1 for m in set(lengths)),
        )

    rule = [term(t.lag, t.source, t.coeff) for t in spec.rule.terms]
    base = [[term(None, s, c) for s, c in b.terms] for b in spec.base_cases]
    first = spec.first_rule_index
    n = L - j + 1
    # By index - j: whether a push reaches the state, the first that does,
    # whether the state is built (pushed twice, by a push that may repeat a
    # word, or pushing into a built state), and whether its polynomial is
    # nonzero for sure: pushed once, from such a state, by a coefficient
    # that cannot cancel, since the free algebra has no zero divisors.
    reached, built, whole = bytearray(n), bytearray(n), bytearray(n)
    pusher = [0] * n
    held: set[int] = set()  # the blocks of the coefficients so far
    reached[n - 1] = whole[n - 1] = 1
    low = 0
    for i in range(L, j, -1):
        if not reached[i - j]:
            continue
        terms = rule if i >= first else base[i]
        unit = price(L - i) if whole[i - j] else 0
        for lag, source, rel, absolute, one, lone in terms:
            d = (source if lag is None else i - lag) - j
            if d < 0:
                continue
            spent += unit * lone
            if reached[d]:  # each pusher of a state pushed twice is built
                built[d] = built[i - j] = built[pusher[d] - j] = 1
                whole[d] = 0
            else:
                reached[d], pusher[d], whole[d] = 1, i, unit > 0 and lone > 0
                built[d] = not one and (
                    any(i - v in held for v in rel) or not held.isdisjoint(absolute)
                )
        if spent > EXPANSION_BUDGET:
            low = i - j
            break
        for _, _, rel, absolute, _, _ in terms:
            for v in rel:
                held.add(i - v)
            held.update(absolute)
    # A state pushes below itself, so it is marked built before the loop
    # reaches it.
    carried = bytearray(b"\1" * low + bytes(n - low))
    for d in range(low, n - 1):
        if built[d]:
            built[pusher[d] - j] = 1
        elif reached[d]:
            carried[d] = 1
    return carried


def _convolve(
    a: dict[int, CensusBin], b: dict[int, CensusBin]
) -> dict[int, CensusBin]:
    """The census of a product of polynomials with censuses a and b that
    repeats no word: lengths add, counts and weights multiply."""
    bins: dict[int, list[int]] = {}
    for k, p in a.items():
        for m, c in b.items():
            n = bins.setdefault(k + m, [0, 0])
            n[0] += p.count * c.count
            n[1] += p.weight * c.weight
    return {n: CensusBin(*bins[n]) for n in sorted(bins)}


def derivative(spec: ArchitectureSpec, L: int, j: int) -> PathPolynomial:
    """Derivative of X[L] with respect to X[j]: the last of ``derivatives``."""
    for _, poly in derivatives(spec, L, j):
        pass
    return poly


def derivative_census(
    spec: ArchitectureSpec, L: int, j: int
) -> dict[int, CensusBin]:
    """census(derivative(spec, L, j)), building no product into a state the
    pass can count instead (``_carried``): for resnet and chain at every j,
    none at all.  Each push is charged to the budget as ``derivative``
    charges it, so both stop at the same state with the same error.
    """
    for _, last in _pass(spec, L, j, counting=True):
        pass
    return last if isinstance(last, dict) else census(last)


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

CHECK_KINDS = ("binomial", "single-path", "widest")


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
        for word, coeff in poly.canonical_items():
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


def verify_chain_identity(spec: ArchitectureSpec, m: int) -> bool:
    """Check d X[m]/d X[m-2] == d X[m]/d X[m-1] * (1 + W[m-1]) - W[m-1].

    This is the two-step chain-rule consistency condition satisfied by the
    two-lag architecture; it fails for plain shortcut recursions.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    d = dict(derivatives(spec, m, m - 2))
    one_plus_w = poly_add(PathPolynomial.one(), PathPolynomial.block(m - 1))
    rhs = poly_add(poly_mul(d[m - 1], one_plus_w), -PathPolynomial.block(m - 1))
    return d[m - 2] == rhs
