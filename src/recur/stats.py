"""Rank-based significance analysis for accuracy tables.

Given a methods x datasets table of accuracies, each dataset column is
ranked from good to bad (rank 1 is best, ties share averaged ranks).  The
Friedman statistic

    tau_chi2 = 12N / (k(k+1)) * (sum_i r_i^2 - k(k+1)^2 / 4)
    tau_F    = (N-1) tau_chi2 / (N(k-1) - tau_chi2)

tests whether the k methods perform identically over the N datasets, with
tau_F following an F distribution with (k-1, (k-1)(N-1)) degrees of
freedom.  The Nemenyi post-hoc threshold on mean-rank differences is

    CD = q_alpha * sqrt(k(k+1) / (6N))

with q_alpha = q(1 - alpha; k, df=inf) / sqrt(2), computed from the
studentized range of k normals (Demsar 2006, JMLR 7).  Two methods differ
significantly when their mean ranks differ by strictly more than CD;
equivalently their r_i +- CD/2 intervals do not overlap.

Ranks are halves of integers, so all statistics are computed in exact
rational arithmetic and only converted to float in the results.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DegenerateError, RangeError


class _AccuracyTable(NamedTuple):
    methods: tuple[str, ...]
    datasets: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]  # values[method][dataset]


class AccuracyTable(_AccuracyTable):
    """k methods x N datasets of accuracy percentages."""

    __slots__ = ()

    def __new__(
        cls,
        methods: tuple[str, ...],
        datasets: tuple[str, ...],
        values: tuple[tuple[float, ...], ...],
    ) -> "AccuracyTable":
        k, n = len(methods), len(datasets)
        if k < 2:
            raise ValueError(f"need at least 2 methods, got {k}")
        if n < 1:
            raise ValueError("need at least 1 dataset")
        if len(set(methods)) != k:
            raise ValueError("duplicate method names")
        if len(set(datasets)) != n:
            raise ValueError("duplicate dataset names")
        if len(values) != k or any(len(row) != n for row in values):
            raise ValueError(f"values must be {k}x{n}")
        for row in values:
            for v in row:
                if not math.isfinite(v):
                    raise ValueError("accuracies must be finite")
        return tuple.__new__(cls, (methods, datasets, values))

    @property
    def k(self) -> int:
        return len(self.methods)

    @property
    def n(self) -> int:
        return len(self.datasets)

    def column(self, j: int) -> tuple[float, ...]:
        return tuple(row[j] for row in self.values)

    @classmethod
    def from_csv(cls, text: str) -> "AccuracyTable":
        """Parse "method,<dataset>,..." CSV with one method per row."""
        rows = [row for row in csv.reader(io.StringIO(text)) if row]
        if not rows:
            raise ValueError("empty CSV")
        header = [cell.strip() for cell in rows[0]]
        if not header or header[0].lower() != "method":
            raise ValueError('CSV header must start with "method"')
        datasets = tuple(header[1:])
        methods = []
        values = []
        for row in rows[1:]:
            cells = [cell.strip() for cell in row]
            if len(cells) != len(header):
                raise ValueError(f"row {cells[0]!r} has {len(cells)} cells,"
                                 f" expected {len(header)}")
            methods.append(cells[0])
            values.append(tuple(float(c) for c in cells[1:]))
        return cls(methods=tuple(methods), datasets=datasets, values=tuple(values))


def load_table(path) -> AccuracyTable:
    from pathlib import Path

    return AccuracyTable.from_csv(Path(path).read_text(encoding="utf-8-sig"))


def fixture_table(name: str) -> AccuracyTable:
    """Load one of the shipped accuracy fixtures ("table1" or "table2")."""
    from importlib.resources import files

    resource = files("recur.data").joinpath(f"{name}.csv")
    return AccuracyTable.from_csv(resource.read_text(encoding="utf-8"))


class RankMatrix(NamedTuple):
    """Per-dataset ranks (1 = best) and per-method mean ranks.

    Every rank is a half-integer, so the float representation is exact.
    """

    methods: tuple[str, ...]
    datasets: tuple[str, ...]
    ranks: tuple[tuple[float, ...], ...]  # ranks[method][dataset]
    mean_ranks: tuple[float, ...]

    @property
    def k(self) -> int:
        return len(self.methods)

    @property
    def n(self) -> int:
        return len(self.datasets)

    def to_dict(self) -> dict:
        return {
            "methods": list(self.methods),
            "datasets": list(self.datasets),
            "ranks": [list(row) for row in self.ranks],
            "mean_ranks": list(self.mean_ranks),
        }


def _rank_column(values: tuple[float, ...]) -> list[Fraction]:
    """Ranks from good to bad with ties averaged; column sums to k(k+1)/2."""
    order = sorted(range(len(values)), key=lambda i: -values[i])
    ranks: list[Fraction] = [Fraction(0)] * len(values)
    pos = 0
    while pos < len(order):
        tie_end = pos
        while (
            tie_end + 1 < len(order)
            and values[order[tie_end + 1]] == values[order[pos]]
        ):
            tie_end += 1
        # Positions pos+1 .. tie_end+1 (1-based) share the averaged rank.
        shared = Fraction((pos + 1) + (tie_end + 1), 2)
        for idx in order[pos : tie_end + 1]:
            ranks[idx] = shared
        pos = tie_end + 1
    return ranks


def rank(table: AccuracyTable) -> RankMatrix:
    """Rank each dataset column; higher accuracy gets the lower rank."""
    columns = [_rank_column(table.column(j)) for j in range(table.n)]
    ranks = tuple(
        tuple(float(columns[j][i]) for j in range(table.n)) for i in range(table.k)
    )
    means = tuple(
        float(sum(columns[j][i] for j in range(table.n)) / table.n)
        for i in range(table.k)
    )
    return RankMatrix(
        methods=table.methods, datasets=table.datasets, ranks=ranks, mean_ranks=means
    )


class FriedmanResult(NamedTuple):
    tau_chi2: float
    tau_f: float
    df1: int
    df2: int
    p_value: float | None

    def to_dict(self) -> dict:
        return {
            "tau_chi2": self.tau_chi2,
            "tau_f": self.tau_f,
            "df1": self.df1,
            "df2": self.df2,
            "p_value": self.p_value,
        }


def friedman(ranks: RankMatrix) -> FriedmanResult:
    """Friedman statistics from a rank matrix; exact until the final float.

    Raises DegenerateError at perfect agreement, where tau_chi2 reaches its
    maximum N(k-1) and tau_F divides by zero.
    """
    k, n = ranks.k, ranks.n
    mean_exact = [
        sum(Fraction(ranks.ranks[i][j]) for j in range(n)) / n for i in range(k)
    ]
    centering = Fraction(k * (k + 1) ** 2, 4)
    tau_chi2 = Fraction(12 * n, k * (k + 1)) * (
        sum(r * r for r in mean_exact) - centering
    )
    denom = n * (k - 1) - tau_chi2
    if denom == 0:
        raise DegenerateError(
            "tau_chi2 equals N(k-1): the rankings agree perfectly on every"
            " dataset and tau_F is undefined"
        )
    tau_f = (n - 1) * tau_chi2 / denom
    df1 = k - 1
    df2 = (k - 1) * (n - 1)
    p_value = f_distribution_sf(float(tau_f), df1, df2) if df2 >= 1 else None
    return FriedmanResult(
        tau_chi2=float(tau_chi2),
        tau_f=float(tau_f),
        df1=df1,
        df2=df2,
        p_value=p_value,
    )


class NemenyiResult(NamedTuple):
    alpha: float
    q_alpha: float
    cd: float
    methods: tuple[str, ...]
    mean_ranks: tuple[float, ...]
    intervals: tuple[tuple[float, float], ...]  # r_i -+ CD/2
    overlap: tuple[tuple[bool, ...], ...]  # True unless |r_a - r_b| > CD

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "q_alpha": self.q_alpha,
            "cd": self.cd,
            "methods": list(self.methods),
            "mean_ranks": list(self.mean_ranks),
            "intervals": [list(iv) for iv in self.intervals],
            "overlap": [list(row) for row in self.overlap],
        }


def _normal_pdf(x: float) -> float:
    return math.exp(-x * x / 2) / math.sqrt(2 * math.pi)


def _normal_cdf(x: float) -> float:
    return math.erfc(-x / math.sqrt(2)) / 2


# Smallest alpha nemenyi_q solves for.
MIN_ALPHA = 1e-10


def nemenyi_q(k: int, alpha: float) -> float:
    """q(1 - alpha; k, df=inf) / sqrt(2): the Nemenyi q_alpha for k methods.

    The range R of k independent standard normals has
    P(R <= q) = k * integral of phi(z) (Phi(z+q) - Phi(z))^(k-1) dz.
    Simpson's rule with 240 intervals on [-8.5, 8.5] gives it and its
    q-derivative, and Newton steps solve P(R <= q) = 1 - alpha, bisecting
    whenever a step would leave the bracket.  The integral is good to about
    1e-15 absolute, so q is good to about 1e-12 for alpha >= 1e-4 and loses
    digits as alpha shrinks below that: about 1e-7 relative at MIN_ALPHA,
    more below it, and none left near 1e-16, where 1 - alpha rounds to 1.
    An alpha below MIN_ALPHA raises RangeError.
    """
    if not 0 < alpha < 1:  # NaN fails too
        raise RangeError(f"alpha must be in (0, 1), got {alpha}")
    if alpha < MIN_ALPHA:
        raise RangeError(
            f"alpha {alpha} is below {MIN_ALPHA:g}, where q is no longer resolved"
        )
    n, h = 240, 17 / 240
    grid = []  # (node z, Simpson weight * phi(z), Phi(z))
    for i in range(n + 1):
        z = -8.5 + i * h
        weight = h / 3 * (1 if i in (0, n) else 4 if i % 2 else 2)
        grid.append((z, weight * _normal_pdf(z), _normal_cdf(z)))
    lo, hi, q = 0.0, 64.0, 4.0  # P(R <= 64) is 1 in double precision
    for _ in range(100):
        p = dp = 0.0
        for z, w, c in grid:
            d = _normal_cdf(z + q) - c
            t = w * d ** (k - 2)
            p += t * d
            dp += t * _normal_pdf(z + q)
        f = k * p - (1 - alpha)
        if f < 0:
            lo = q
        else:
            hi = q
        step = q - f / (k * (k - 1) * dp) if dp else math.nan
        if abs(step - q) <= 1e-14 * q:
            q = step
            break
        q = step if lo < step < hi else (lo + hi) / 2
    return q / math.sqrt(2)


def nemenyi(ranks: RankMatrix, alpha: float = 0.05) -> NemenyiResult:
    """Critical difference and pairwise overlap at the given alpha."""
    k, n = ranks.k, ranks.n
    q = nemenyi_q(k, alpha)
    cd = q * math.sqrt(k * (k + 1) / (6 * n))
    means = ranks.mean_ranks
    intervals = tuple((r - cd / 2, r + cd / 2) for r in means)
    overlap = tuple(
        tuple(abs(means[a] - means[b]) <= cd for b in range(k)) for a in range(k)
    )
    return NemenyiResult(
        alpha=alpha,
        q_alpha=q,
        cd=cd,
        methods=ranks.methods,
        mean_ranks=means,
        intervals=intervals,
        overlap=overlap,
    )


class FriedmanGraphData(NamedTuple):
    """Plot-ready mean ranks with intervals, best (lowest) rank first."""

    cd: float
    entries: tuple[tuple[str, float, float, float], ...]  # (method, mean, lo, hi)
    overlap: tuple[tuple[bool, ...], ...]  # aligned with the sorted entries

    def to_dict(self) -> dict:
        return {
            "cd": self.cd,
            "entries": [
                {"method": m, "mean_rank": mean, "lo": lo, "hi": hi}
                for m, mean, lo, hi in self.entries
            ],
            "overlap": [list(row) for row in self.overlap],
        }


def friedman_graph_data(ranks: RankMatrix, nem: NemenyiResult) -> FriedmanGraphData:
    """Assemble the per-method intervals and overlap matrix for plotting."""
    order = sorted(range(ranks.k), key=lambda i: (ranks.mean_ranks[i], ranks.methods[i]))
    entries = tuple(
        (
            ranks.methods[i],
            ranks.mean_ranks[i],
            nem.intervals[i][0],
            nem.intervals[i][1],
        )
        for i in order
    )
    overlap = tuple(tuple(nem.overlap[a][b] for b in order) for a in order)
    return FriedmanGraphData(cd=nem.cd, entries=entries, overlap=overlap)


# ---------------------------------------------------------------------------
# F-distribution upper tail via the regularized incomplete beta function
# ---------------------------------------------------------------------------


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz's method)."""
    max_iter = 300
    eps = 3e-16
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def betainc(a: float, b: float, x: float, xc: float | None = None) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0.

    ``xc`` is 1 - x, for a caller that can form it without cancellation:
    near x = 1 the difference 1.0 - x keeps few of its digits.
    """
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if xc is None:
        xc = 1.0 - x
    if x <= 0.0:
        return 0.0
    if xc <= 0.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(xc)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, xc) / b


def f_distribution_sf(x: float, df1: int, df2: int) -> float:
    """Upper tail P(F > x) for the F distribution with df1, df2 degrees."""
    if df1 < 1 or df2 < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if x <= 0.0:
        return 1.0
    u = df1 * x
    # 1 - y for y = df2 / (df2 + u): 1.0 - y loses digits only as y nears 1.
    xc = u / (df2 + u) if u < df2 else None
    return betainc(df2 / 2.0, df1 / 2.0, df2 / (df2 + u), xc)
