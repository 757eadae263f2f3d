"""Derivative expansion of recursion formulas.

``derivatives`` runs the backward recurrence, the one expansion route:
starting from the identity at the final state, each state's polynomial is
pushed to the states it depends on, multiplying its dependency coefficient
on the right (deeper blocks stay on the left).  A state's polynomial is
complete when the loop reaches it, so one pass yields d X[L]/d X[i] for
every i from L down.  ``derivative`` reads one j off that pass, and
``unroll`` reads j = 0: ``parse`` makes X[0] the only free input, so X[L]
is its derivative times X[0].

The test suite keeps an independent forward oracle (``tests/conftest.py``)
that unrolls the recursion with the queried state held free; for affine
formulas the two must agree exactly.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import comb
from typing import NamedTuple

from .algebra import (
    CensusBin, PathPolynomial, _too_long, _word, block_product, census, poly_add,
    poly_mul, signed_sum,
)
from .errors import DepthError
from .parser import ArchitectureSpec

DEFAULT_DEPTH_CAP = 24


def check_depth(L: int, depth_cap: int) -> None:
    """Reject a depth below 1 or above the expansion cap."""
    if L < 1:
        raise ValueError(f"depth must be >= 1, got {L}")
    if L > depth_cap:
        raise DepthError(
            f"depth {L} exceeds the expansion cap {depth_cap};"
            " raise the cap explicitly if you mean it"
        )


def derivatives(
    spec: ArchitectureSpec, L: int, stop: int = 0, depth_cap: int = DEFAULT_DEPTH_CAP
) -> Iterator[tuple[int, PathPolynomial]]:
    """Yield (i, d X[L]/d X[i]) for i = L down to ``stop``, in one pass.

    W symbols are treated as constants: a coefficient like W[i-1] carries
    no derivative of its own, it is the block Jacobian itself.  The
    polynomial at i does not depend on ``stop``, in items or in their order.
    """
    check_depth(L, depth_cap)
    if not 0 <= stop <= L:
        raise ValueError(f"wrt index must be in [0, {L}], got {stop}")
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
        for source, coeff in spec.instantiate_terms(i):
            if source >= stop:
                f[source] = poly_add(f.get(source, zero), poly_mul(pushed, coeff))
    yield stop, f.pop(stop, zero)


def derivative(
    spec: ArchitectureSpec, L: int, j: int, depth_cap: int = DEFAULT_DEPTH_CAP
) -> PathPolynomial:
    """Derivative of X[L] with respect to X[j]: the last of ``derivatives``."""
    for _, poly in derivatives(spec, L, j, depth_cap):
        pass
    return poly


class StateExpansion:
    """X[L] over the free input: ``components`` maps 0 to the polynomial of
    X[0], and is empty when that polynomial is zero."""

    __slots__ = ("components",)

    def __init__(self, poly: PathPolynomial):
        self.components = {0: poly} if poly else {}

    def __str__(self) -> str:
        return f"({self.components[0]})*X[0]" if self.components else "0"


def unroll(
    spec: ArchitectureSpec, L: int, depth_cap: int = DEFAULT_DEPTH_CAP
) -> StateExpansion:
    """Express X[L] over the free input X[0], substituting all base cases.

    This is ``derivative(spec, L, 0)``; it stays as a function of its own
    because the benchmark's per-layer tracer wraps it by name and reads
    ``components`` (the ``expansion.unroll_*`` metrics).
    """
    return StateExpansion(derivative(spec, L, 0, depth_cap))


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
    poly: PathPolynomial,
    kind: str,
    L: int,
    j: int,
    spec_name: str = "",
    histogram: dict[int, CensusBin] | None = None,
) -> StructureReport:
    """Check a path-structure claim about derivative(spec, L, j).

    Violations are data, not errors: the report lists each failed length
    with the expected and observed values.  ``histogram`` is census(poly),
    for a caller that has it already.

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
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> StructureReport:
    """Term-by-term comparison of the two unrolled expansions."""
    pa = derivative(spec_a, L, 0, depth_cap)
    pb = derivative(spec_b, L, 0, depth_cap)
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
    spec: ArchitectureSpec, m: int, depth_cap: int = DEFAULT_DEPTH_CAP
) -> bool:
    """Check d X[m]/d X[m-2] == d X[m]/d X[m-1] * (1 + W[m-1]) - W[m-1].

    This is the two-step chain-rule consistency condition satisfied by the
    two-lag architecture; it fails for plain shortcut recursions.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    d = dict(derivatives(spec, m, m - 2, depth_cap))
    one_plus_w = poly_add(PathPolynomial.one(), PathPolynomial.block(m - 1))
    rhs = poly_add(poly_mul(d[m - 1], one_plus_w), -PathPolynomial.block(m - 1))
    return d[m - 2] == rhs
