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

The loop itself, ``_pass``, leaves the last push into X[j] unbuilt, and
``derivatives`` builds it.  ``derivative_census`` counts it instead: when
that push is the only one and its product cannot repeat a word, as for
resnet at every j, the census of d X[L]/d X[j] is the length convolution
of the pushed polynomial's census with the coefficient's, so the largest
product of the pass is charged to the budget but never built.

The test suite keeps an independent forward oracle (``tests/conftest.py``)
that unrolls the recursion with the queried state held free; for affine
formulas the two must agree exactly.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from math import comb
from typing import NamedTuple

from .algebra import (
    CensusBin, PathPolynomial, _too_long, _word, block_product, census, poly_add,
    poly_mul, signed_sum,
)
from .errors import SizeError
from .parser import REL, ArchitectureSpec

# The cells one expansion may charge, priced in ``_pass``, and the
# fixed charge of each of its steps.
EXPANSION_BUDGET = 1 << 25
STEP_CELLS = 1 << 9
# The cells charged so far while ``one_budget`` spans several expansions.
_SHARED: ContextVar[list[int] | None] = ContextVar("_SHARED", default=None)
# A push whose product is not built yet: (i, d X[L]/d X[i], coefficient).
Push = tuple[int, PathPolynomial, PathPolynomial]


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
    pending: list[Push] = []
    for i, poly in _pass(spec, L, stop, pending):
        yield i, _settle(poly, pending) if i == stop else poly


def _pass(
    spec: ArchitectureSpec, L: int, stop: int, pending: list[Push]
) -> Iterator[tuple[int, PathPolynomial]]:
    """The expansion loop: yield (i, d X[L]/d X[i]) for i = L down to
    ``stop``, but leave the latest push into X[stop] out of the polynomial
    yielded at ``stop``: that push, (i, d X[L]/d X[i], coefficient), is
    charged and waits in ``pending``, its product not built.

    The budget takes STEP_CELLS for each of the L - stop steps up front,
    then, before each push, 1 + the word length + the product of the
    coefficients' 64-bit word counts for each term of its product.
    """
    if L < 1:
        raise ValueError(f"depth must be >= 1, got {L}")
    if not 0 <= stop <= L:
        raise ValueError(f"wrt index must be in [0, {L}], got {stop}")
    shared = _SHARED.get()
    spent = (L - stop) * STEP_CELLS + (shared[0] if shared else 0)
    if spent > EXPANSION_BUDGET:
        raise _over_budget(f"expanding X[{L}] down to X[{stop}]", spent)
    # Each state's coefficients have words of at most longest factors and
    # |coefficients| that sum to at most weight.  A push takes an index down
    # by 1 or more, so the words at X[L-k] have at most k * longest factors
    # and each |coefficient| there is below (k + 1) * weight^k.
    states = [[t.coeff for t in spec.rule.terms]]
    states += [[c for _, c in base.terms] for base in spec.base_cases]
    longest = max(len(atoms) for s in states for c in s for atoms in c.terms)
    weight = max(sum(abs(v) for c in s for v in c.terms.values()) for s in states)
    grow, words = (weight - 1).bit_length(), (weight.bit_length() + 63) >> 6
    # The polynomials pushed so far, by state; states below stop take none.
    # A state's polynomial leaves f when the loop reaches it and is yielded
    # before it is pushed on, so a caller that drops it keeps none to the end.
    zero = PathPolynomial.zero()
    f: dict[int, PathPolynomial] = {L: PathPolynomial.one()}
    for i in range(L, stop, -1):
        pushed = f.pop(i, zero)
        yield i, pushed
        if not pushed:
            continue
        k = L - i
        bits = k * grow + (k + 1).bit_length()
        cells = len(pushed) * (1 + (k + 1) * longest + ((bits + 63) >> 6) * words)
        for source, coeff in spec.instantiate_terms(i):
            if source >= stop:
                spent += cells * len(coeff)
                if spent > EXPANSION_BUDGET:
                    raise _over_budget(f"expanding X[{L}] at X[{i}]", spent)
                if source == stop:  # the latest push waits, the one before is built
                    f[stop] = _settle(f.get(stop, zero), pending)
                    pending.append((i, pushed, coeff))
                    continue
                f[source] = poly_add(f.get(source, zero), poly_mul(pushed, coeff))
    if shared:
        shared[0] = spent
    yield stop, f.pop(stop, zero)


def _settle(poly: PathPolynomial, pending: list[Push]) -> PathPolynomial:
    """``poly`` plus the product of the push waiting in ``pending``, if any."""
    if not pending:
        return poly
    _, pushed, coeff = pending.pop()
    return poly_add(poly, poly_mul(pushed, coeff))


def derivative(spec: ArchitectureSpec, L: int, j: int) -> PathPolynomial:
    """Derivative of X[L] with respect to X[j]: the last of ``derivatives``."""
    for _, poly in derivatives(spec, L, j):
        pass
    return poly


def derivative_census(
    spec: ArchitectureSpec, L: int, j: int
) -> dict[int, CensusBin]:
    """census(derivative(spec, L, j)), without the last product where it
    cannot repeat a word.

    When the last push into X[j], from X[i] with coefficient c, is the only
    one (or those before it cancel), and a word of d X[L]/d X[i] followed
    by a word of c is a different word for each pair, the census is the
    convolution of census(d X[L]/d X[i]) with census(c): lengths add,
    counts and weights multiply, and no coefficient cancels.  Each pair
    gives its own word when c's words all have one length, or when no
    block of c can occur in a coefficient of X[i+1..L] (``_may_hold``).
    Any other pass sums its pushes into X[j] as ``derivative`` does.  The
    last push is charged to the budget either way.
    """
    pending: list[Push] = []
    for _, poly in _pass(spec, L, j, pending):
        pass
    if pending and not poly:
        i, pushed, coeff = pending[0]
        words = coeff.keys()
        if len(set(map(len, words))) == 1 or not _may_hold(
            spec, i + 1, L, {ord(b) for word in words for b in word}
        ):
            factors = census(coeff)
            bins: dict[int, list[int]] = {}
            for k, p in census(pushed).items():
                for m, c in factors.items():
                    n = bins.setdefault(k + m, [0, 0])
                    n[0] += p.count * c.count
                    n[1] += p.weight * c.weight
            return {n: CensusBin(*bins[n]) for n in sorted(bins)}
    return census(_settle(poly, pending))


def _may_hold(spec: ArchitectureSpec, lo: int, hi: int, blocks: set[int]) -> bool:
    """Whether a coefficient of a state in lo..hi may hold one of ``blocks``,
    read from the spec's atoms: a superset of the blocks the states' words
    hold.  Base cases hold absolute atoms only; the rule's relative atom
    W[v-c] is W[b] at the rule state b + c.
    """
    rule_states = range(max(lo, spec.first_rule_index), hi + 1)
    atoms = {
        a for base in spec.base_cases[lo : hi + 1] for _, c in base.terms
        for a in c.atoms()
    }
    if rule_states:
        atoms.update(a for t in spec.rule.terms for a in t.coeff.atoms())
    return any(
        (b + v in rule_states) if kind == REL else b == v
        for kind, v in atoms
        for b in blocks
    )


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
