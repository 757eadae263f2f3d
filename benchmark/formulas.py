"""The benchmark's own model of recursion formulas.

Nothing here imports ``recur``.  A ``Formula`` is written down directly
from the paper's recursions and is used three ways: to spell DSL text
for the program to parse (in many equivalent spellings, chosen by the
seed), to evaluate states with concrete matrices as an independent
reference, and to count propagation paths.

A coefficient is a tuple of ``(c, ws)`` summands, meaning c * W[w1]*W[w2]...
In rule terms a W entry is an offset (W[i - w]); in base cases it is an
absolute block index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Coeff = tuple[tuple[int, tuple[int, ...]], ...]

LAG = "lag"
ABS = "abs"


@dataclass(frozen=True)
class Formula:
    name: str
    # (LAG, k, coeff) is coeff * X[i-k]; (ABS, s, coeff) is coeff * X[s].
    rule: tuple[tuple[str, int, Coeff], ...]
    # (index, ((source, coeff), ...)) for X[1..]; X[0] is the free input.
    bases: tuple[tuple[int, tuple[tuple[int, Coeff], ...]], ...] = ()

    def terms(self, i: int) -> list[tuple[int, list[tuple[int, list[int]]]]]:
        """Dependencies of X[i]: (source, [(c, [block indices]), ...])."""
        for index, pairs in self.bases:
            if index == i:
                return [(src, [(c, list(ws)) for c, ws in co]) for src, co in pairs]
        out = []
        for kind, value, co in self.rule:
            source = i - value if kind == LAG else value
            out.append((source, [(c, [i - w for w in ws]) for c, ws in co]))
        return out


_X1 = ((1, ((0, ((1, ()), (1, (1,)))),)),)

BUILTINS = {
    "chain": Formula("chain", ((LAG, 1, ((1, (0,)),)),)),
    "resnet": Formula("resnet", ((LAG, 1, ((1, ()), (1, (0,)))),)),
    "newarch": Formula(
        "newarch", ((LAG, 1, ((1, ()), (1, (0,)))), (LAG, 2, ((-1, (1,)),))), _X1
    ),
    "eq22": Formula("eq22", ((LAG, 1, ((1, (0,)),)), (ABS, 0, ((1, ()),))), _X1),
    "appendix-ex1": Formula(
        "appendix-ex1", ((LAG, 1, ((1, (0,)),)), (LAG, 2, ((1, ()),))), _X1
    ),
    "appendix-ex2": Formula(
        "appendix-ex2", ((LAG, 1, ((1, (0,)),)), (LAG, 2, ((1, (1,)),))), _X1
    ),
}

# Three lags, so its path count grows like a tribonacci sequence; used for
# the two-spelling value-equivalence operation.
LARGE = Formula(
    "large",
    (
        (LAG, 1, ((1, ()), (1, (0,)))),
        (LAG, 2, ((1, ()), (-1, (1,)))),
        (LAG, 3, ((1, (2,)),)),
    ),
    (
        (1, ((0, ((1, ()), (1, (1,)))),)),
        (2, ((1, ((1, ()), (1, (2,)))), (0, ((1, ()),)))),
    ),
)

INDEX_VARS = ("i", "n", "q", "m")


# ---------------------------------------------------------------------------
# Spelling
# ---------------------------------------------------------------------------


def _w(var: str | None, w: int) -> str:
    if var is None:
        return f"W[{w}]"
    return f"W[{var}]" if w == 0 else f"W[{var}-{w}]"


def _product(c: int, ws, var, x: str | None) -> tuple[int, str]:
    """Sign and unsigned text of c * W... * x."""
    factors = [] if abs(c) == 1 else [str(abs(c))]
    factors += [_w(var, w) for w in ws]
    if x is not None:
        factors.append(x)
    return (1 if c > 0 else -1), "*".join(factors) or "1"


def _join(signed: list[tuple[int, str]]) -> str:
    text = ""
    for pos, (sign, body) in enumerate(signed):
        if pos == 0:
            text = body if sign > 0 else f"-{body}"
        else:
            text += (" + " if sign > 0 else " - ") + body
    return text


def _spell_sum(pairs, var, rng: random.Random) -> str:
    """Right-hand side for [(x text, coeff)], factored or distributed at random."""
    summands: list[tuple[int, str]] = []
    for x, co in pairs:
        items = list(co)
        rng.shuffle(items)
        if len(items) > 1 and rng.random() < 0.5:
            inner = _join([_product(c, ws, var, None) for c, ws in items])
            summands.append((1, f"({inner})*{x}"))
        else:
            summands.extend(_product(c, ws, var, x) for c, ws in items)
    rng.shuffle(summands)
    return _join(summands)


def spell(f: Formula, rng: random.Random, var: str | None = None) -> str:
    """One of many DSL spellings of ``f``; all parse to the same spec."""
    var = var or rng.choice(INDEX_VARS)
    rule = [
        (f"X[{var}-{value}]" if kind == LAG else f"X[{value}]", co)
        for kind, value, co in f.rule
    ]
    lines = [f"X[{var}] = {_spell_sum(rule, var, rng)}"]
    for index, pairs in f.bases:
        rhs = _spell_sum([(f"X[{src}]", co) for src, co in pairs], None, rng)
        lines.append(f"X[{index}] = {rhs}")
    lines.append("X[0] = input")
    head, rest = lines[0], lines[1:]
    rng.shuffle(rest)
    sep = rng.choice(("\n", "\n\n", "; "))
    comment = f"# {f.name}, spelled from seed\n" if rng.random() < 0.5 else ""
    return comment + sep.join([head, *rest]) + "\n"


# ---------------------------------------------------------------------------
# Evaluation with 2x2 matrices over Z_p (noncommutative, so factor order
# matters)
# ---------------------------------------------------------------------------

P = 2_147_483_647
I2 = (1, 0, 0, 1)
Z2 = (0, 0, 0, 0)


def mmul(a, b):
    return (
        (a[0] * b[0] + a[1] * b[2]) % P,
        (a[0] * b[1] + a[1] * b[3]) % P,
        (a[2] * b[0] + a[3] * b[2]) % P,
        (a[2] * b[1] + a[3] * b[3]) % P,
    )


def madd(a, b, c: int = 1):
    return tuple((x + c * y) % P for x, y in zip(a, b))


def random_blocks(rng: random.Random, L: int) -> dict[int, tuple]:
    return {i: tuple(rng.randrange(P) for _ in range(4)) for i in range(1, L + 1)}


def coeff_matrix(summands, blocks) -> tuple:
    total = Z2
    for c, ws in summands:
        m = I2
        for w in ws:
            m = mmul(m, blocks[w])
        total = madd(total, m, c)
    return total


def derivative_matrix(f: Formula, L: int, j: int, blocks) -> tuple:
    """dX[L]/dX[j] with every W[b] replaced by blocks[b], by the forward
    sensitivity recurrence (states below j held fixed)."""
    sens = {j: I2}
    for i in range(j + 1, L + 1):
        acc = Z2
        for source, summands in f.terms(i):
            if source in sens:
                acc = madd(acc, mmul(coeff_matrix(summands, blocks), sens[source]))
        sens[i] = acc
    return sens[L]


def poly_matrix(terms, blocks) -> tuple:
    """Value of [(coeff, [factors...]), ...]; leftmost factor multiplies first.
    Products of shared prefixes are computed once."""
    cache: dict[tuple, tuple] = {(): I2}

    def value(key: tuple) -> tuple:
        m = cache.get(key)
        if m is None:
            m = cache[key] = mmul(value(key[:-1]), blocks[key[-1]])
        return m

    total = Z2
    for c, factors in terms:
        total = madd(total, value(tuple(factors)), c)
    return total


# ---------------------------------------------------------------------------
# Path counts
# ---------------------------------------------------------------------------


def path_counts(f: Formula, L: int, j: int) -> dict[int, int]:
    """Number of X[L]-to-X[j] propagation paths by their count of W factors,
    each summand of a coefficient being one edge."""
    counts: dict[int, dict[int, int]] = {j: {0: 1}}
    for i in range(j + 1, L + 1):
        acc: dict[int, int] = {}
        for source, summands in f.terms(i):
            for k, n in counts.get(source, {}).items():
                for c, ws in summands:
                    acc[k + len(ws)] = acc.get(k + len(ws), 0) + abs(c) * n
        counts[i] = acc
    return dict(sorted(counts[L].items()))


# ---------------------------------------------------------------------------
# Random realizable formulas (the graph compiler wires them without fresh
# mapped edges, so each has an exact graph)
# ---------------------------------------------------------------------------


def random_realizable(rng: random.Random, name: str) -> Formula:
    """Three lags whose W factors at lags 2 and 3 reuse block outputs
    through taps.  Only the signs are drawn, so every draw has 3L+1 nodes
    and the same edges at depth L, and costs about as much as another."""

    def sign() -> int:
        return rng.choice((-1, 1))

    rule = tuple(
        (LAG, lag, ((1 if lag == 1 else sign(), ()), (sign(), (lag - 1,))))
        for lag in (1, 2, 3)
    )
    bases = tuple((j, ((j - 1, ((1, ()), (sign(), (j,)))),)) for j in (1, 2))
    return Formula(name, rule, bases)
