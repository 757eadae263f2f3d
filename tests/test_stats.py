import math
import random
from fractions import Fraction
from importlib.resources import files
from statistics import NormalDist

import pytest

from recur.cli import main
from recur.errors import DegenerateError, RangeError
from recur.stats import (
    MIN_ALPHA,
    AccuracyTable,
    betainc,
    f_distribution_sf,
    fixture_table,
    friedman,
    friedman_graph_data,
    load_table,
    nemenyi,
    nemenyi_q,
    rank,
)


def _table(methods, datasets, values):
    return AccuracyTable(
        methods=tuple(methods),
        datasets=tuple(datasets),
        values=tuple(tuple(float(v) for v in row) for row in values),
    )


WORKED = _table(
    ["A", "B", "C"], ["d1", "d2"], [[3.0, 2.0], [2.0, 3.0], [1.0, 1.0]]
)


def test_rank_two_methods():
    t = _table(["ResNet18", "ResNet18s"], ["CIFAR10"], [[94.32], [94.70]])
    rk = rank(t)
    assert rk.ranks == ((2.0,), (1.0,))


def test_rank_full_tie_averages():
    t = _table(["a", "b", "c", "d"], ["x"], [[90.0], [90.0], [90.0], [90.0]])
    rk = rank(t)
    assert rk.ranks == ((2.5,), (2.5,), (2.5,), (2.5,))


def test_rank_partial_ties():
    t = _table(["a", "b", "c"], ["x"], [[91.0], [93.0], [91.0]])
    rk = rank(t)
    assert rk.ranks == ((2.5,), (1.0,), (2.5,))


def test_rank_column_sums_conserved():
    rng = random.Random(31337)
    for _ in range(100):
        k = rng.randint(2, 6)
        n = rng.randint(1, 5)
        values = [
            [round(rng.uniform(60, 99), rng.choice((0, 1))) for _ in range(n)]
            for _ in range(k)
        ]
        rk = rank(_table([f"m{i}" for i in range(k)], [f"d{j}" for j in range(n)], values))
        for j in range(n):
            col = sum(Fraction(rk.ranks[i][j]) for i in range(k))
            assert col == Fraction(k * (k + 1), 2)


def test_friedman_worked_example_exact():
    result = friedman(rank(WORKED))
    assert result.tau_chi2 == 3.0
    assert result.tau_f == 3.0
    assert result.df1 == 2
    assert result.df2 == 2
    assert result.p_value == pytest.approx(0.25, abs=1e-9)


def test_friedman_degenerate_on_perfect_agreement():
    t = _table(["A", "B", "C"], ["d1", "d2"], [[3.0, 3.0], [2.0, 2.0], [1.0, 1.0]])
    with pytest.raises(DegenerateError):
        friedman(rank(t))


def test_friedman_permutation_invariance():
    rng = random.Random(11)
    base = _table(
        ["m0", "m1", "m2", "m3"],
        ["d0", "d1", "d2"],
        [[rng.uniform(60, 99) for _ in range(3)] for _ in range(4)],
    )
    reference = friedman(rank(base))
    order = [2, 0, 3, 1]
    permuted = _table(
        [base.methods[i] for i in order],
        base.datasets,
        [base.values[i] for i in order],
    )
    permuted_ranks = rank(permuted)
    assert friedman(permuted_ranks).tau_chi2 == reference.tau_chi2
    original_ranks = rank(base)
    for new_pos, old_pos in enumerate(order):
        assert permuted_ranks.ranks[new_pos] == original_ranks.ranks[old_pos]


def test_mean_rank_monotone_in_accuracy():
    rng = random.Random(23)
    for _ in range(50):
        values = [[rng.uniform(60, 99) for _ in range(3)] for _ in range(4)]
        t = _table(["m0", "m1", "m2", "m3"], ["d0", "d1", "d2"], values)
        before = rank(t).mean_ranks[0]
        bumped = [list(row) for row in values]
        bumped[0][rng.randrange(3)] += rng.uniform(0.01, 5.0)
        after = rank(
            _table(["m0", "m1", "m2", "m3"], ["d0", "d1", "d2"], bumped)
        ).mean_ranks[0]
        assert after <= before


def _friedman_bruteforce(table: AccuracyTable):
    """Independent route: rank sums and the classical equivalent formula

    chi2 = 12 / (N k (k+1)) * sum_i R_i^2 - 3 N (k+1), exact rationals.
    """
    k, n = table.k, table.n
    rank_sums = [Fraction(0)] * k
    for j in range(n):
        col = table.column(j)
        for i in range(k):
            better = sum(1 for v in col if v > col[i])
            equal = sum(1 for v in col if v == col[i])
            # rank = better + (equal + 1) / 2 averaged over the tie group
            rank_sums[i] += better + Fraction(equal + 1, 2)
    chi2 = Fraction(12, n * k * (k + 1)) * sum(r * r for r in rank_sums) - 3 * n * (
        k + 1
    )
    denom = n * (k - 1) - chi2
    tau_f = None if denom == 0 else (n - 1) * chi2 / denom
    return chi2, tau_f


def test_friedman_matches_bruteforce_on_random_tables():
    rng = random.Random(987654)
    for _ in range(100):
        k = rng.randint(2, 6)
        n = rng.randint(1, 5)
        values = [
            [round(rng.uniform(60, 99), rng.choice((0, 1, 2))) for _ in range(n)]
            for _ in range(k)
        ]
        table = _table([f"m{i}" for i in range(k)], [f"d{j}" for j in range(n)], values)
        chi2, tau_f = _friedman_bruteforce(table)
        if tau_f is None:
            with pytest.raises(DegenerateError):
                friedman(rank(table))
            continue
        result = friedman(rank(table))
        assert result.tau_chi2 == pytest.approx(float(chi2), abs=1e-12)
        assert result.tau_f == pytest.approx(float(tau_f), abs=1e-12)


def test_nemenyi_critical_differences():
    # q(0.95; 8, inf) / sqrt(2) from scipy.stats.studentized_range.
    t1 = fixture_table("table1")
    nem = nemenyi(rank(t1), 0.05)
    assert nem.q_alpha == pytest.approx(3.030878449614413, abs=1e-12)
    assert nem.cd == pytest.approx(2 * 3.030878449614413, abs=1e-12)

    # For k = 2, q / sqrt(2) is the two-sided normal quantile.
    t = _table(["A", "B"], ["d0", "d1", "d2"], [[1, 2, 3], [4, 5, 6]])
    nem2 = nemenyi(rank(t), 0.05)
    z = NormalDist().inv_cdf(0.975)
    assert nem2.cd == pytest.approx(z * math.sqrt(1 / 3), abs=1e-12)


def test_nemenyi_alpha_ten_percent():
    # q(0.90; 3, inf) / sqrt(2) from scipy.stats.studentized_range.
    t = _table(["A", "B", "C"], ["d"], [[1], [2], [3]])
    nem = nemenyi(rank(t), 0.10)
    assert nem.q_alpha == pytest.approx(2.0522927304967755, abs=1e-12)


def test_nemenyi_range_errors():
    # Any k >= 2 and any alpha in (0, 1) is valid; only alpha outside fails.
    t = _table(
        [f"m{i}" for i in range(11)], ["d"], [[float(i)] for i in range(11)]
    )
    assert nemenyi(rank(t), 0.05).q_alpha > 3.164  # past the old k=10 entry
    small = _table(["A", "B"], ["d"], [[1.0], [2.0]])
    z = NormalDist().inv_cdf(1 - 0.03 / 2)
    assert nemenyi(rank(small), 0.03).q_alpha == pytest.approx(z, abs=1e-12)
    for alpha in (0.0, 1.0, math.nan):
        with pytest.raises(RangeError):
            nemenyi(rank(small), alpha)


def test_interval_width_equals_cd():
    nem = nemenyi(rank(WORKED), 0.05)
    for lo, hi in nem.intervals:
        assert hi - lo == pytest.approx(nem.cd, abs=1e-12)


def test_overlap_boundary_is_inclusive():
    # A distance of exactly CD is not significant (strict inequality).
    from recur.stats import RankMatrix

    cd = nemenyi_q(2, 0.05) * math.sqrt(2 * 3 / (6 * 6))  # k=2, N=6
    at_boundary = RankMatrix(
        methods=("A", "B"),
        datasets=tuple(f"d{j}" for j in range(6)),
        ranks=((1.0,) * 6, (2.0,) * 6),
        mean_ranks=(cd, 2 * cd),  # 2*cd - cd is exactly cd in floats
    )
    nem = nemenyi(at_boundary, 0.05)
    assert nem.cd == pytest.approx(cd, abs=1e-15)
    assert nem.overlap[0][1]
    # Strictly beyond CD flips to significant.
    beyond = RankMatrix(
        methods=("A", "B"),
        datasets=at_boundary.datasets,
        ranks=at_boundary.ranks,
        mean_ranks=(cd, cd + cd * (1 + 1e-9)),
    )
    assert not nemenyi(beyond, 0.05).overlap[0][1]


def test_equal_mean_ranks_always_overlap():
    t = _table(["A", "B", "C"], ["d0", "d1"], [[2, 1], [1, 2], [0, 0]])
    nem = nemenyi(rank(t), 0.05)
    assert nem.mean_ranks[0] == nem.mean_ranks[1]
    assert nem.overlap[0][1]


def test_graph_data_sorted_by_mean_rank():
    t1 = fixture_table("table1")
    ranks = rank(t1)
    data = friedman_graph_data(ranks, nemenyi(ranks, 0.05))
    means = [entry[1] for entry in data.entries]
    assert means == sorted(means)
    assert data.entries[0][0] == "ResNet50s"
    # Overlap matrix is aligned with the sorted entries and symmetric.
    k = len(data.entries)
    for a in range(k):
        assert data.overlap[a][a] is True
        for b in range(k):
            assert data.overlap[a][b] == data.overlap[b][a]


def test_fixture_table1_s_variants_rank_better():
    ranks = rank(fixture_table("table1"))
    means = dict(zip(ranks.methods, ranks.mean_ranks))
    for baseline in ("ResNet34", "ResNet50", "ResNet101"):
        assert means[baseline + "s"] < means[baseline]


def test_fixture_table1_resnet50s_best_on_cifar():
    full = fixture_table("table1")
    cifar = ("CIFAR10", "CIFAR100")
    columns = [full.datasets.index(name) for name in cifar]
    table = AccuracyTable(
        methods=full.methods,
        datasets=cifar,
        values=tuple(tuple(row[j] for j in columns) for row in full.values),
    )
    ranks = rank(table)
    means = dict(zip(ranks.methods, ranks.mean_ranks))
    assert min(means, key=means.get) == "ResNet50s"
    assert means["ResNet50s"] == 1.0


def test_fixture_table2_shape():
    t2 = fixture_table("table2")
    assert t2.k == 16
    assert t2.n == 2
    assert t2.values[t2.methods.index("Res2NeXt4s")] == (96.09, 82.49)


def test_duplicate_names_rejected(capsys, tmp_path):
    with pytest.raises(ValueError, match="duplicate method names"):
        AccuracyTable.from_csv("method,a,b\nres,91,92\nres,92,93\n")
    with pytest.raises(ValueError, match="duplicate dataset names"):
        AccuracyTable.from_csv("method,a,a\nres,91,92\nres2,92,93\n")
    f = tmp_path / "dup.csv"
    f.write_text("method,a,a\nres,91,92\nres2,92,93\n")
    assert main(["stats", str(f)]) == 2
    assert "duplicate dataset names" in capsys.readouterr().err


def test_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        AccuracyTable.from_csv("name,acc\nres,91\nres2,92\n")


def test_csv_with_a_byte_order_mark_reads_as_without(capsys, tmp_path):
    # Spreadsheets' "CSV UTF-8" export starts the file with U+FEFF.
    text = files("recur.data").joinpath("table1.csv").read_text(encoding="utf-8")
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_table(marked) == load_table(plain) == fixture_table("table1")
    runs = []
    for path in (plain, marked):
        code = main(["stats", str(path), "--format", "json"])
        runs.append((code, *capsys.readouterr()))
    assert runs[0] == runs[1] and runs[0][0] == 0


def test_betainc_against_closed_forms():
    # I_x(1, 1) = x; I_x(1, b) = 1 - (1-x)^b; symmetry I_x(a,b) = 1 - I_{1-x}(b,a).
    for x in (0.1, 0.25, 0.5, 0.9):
        assert betainc(1.0, 1.0, x) == pytest.approx(x, abs=1e-14)
        assert betainc(1.0, 3.0, x) == pytest.approx(1 - (1 - x) ** 3, abs=1e-13)
        assert betainc(2.5, 1.5, x) == pytest.approx(
            1 - betainc(1.5, 2.5, 1 - x), abs=1e-13
        )
    assert betainc(4.0, 2.0, 0.0) == 0.0
    assert betainc(4.0, 2.0, 1.0) == 1.0


def test_f_distribution_tail():
    assert f_distribution_sf(3.0, 2, 2) == pytest.approx(0.25, abs=1e-12)
    # F(1,1): P(F > x) = 1 - 2/pi * atan(sqrt(x)), also where 1 / (1 + x)
    # rounds to 1.
    for x in (0.5, 1.0, 4.0, 1e-15, 6.1e-17):
        expected = 1 - 2 / math.pi * math.atan(math.sqrt(x))
        assert f_distribution_sf(x, 1, 1) == pytest.approx(expected, abs=1e-12)
    assert f_distribution_sf(0.0, 3, 7) == 1.0


def test_q_table_matches_studentized_range():
    # nemenyi_q(k, alpha) is q(1 - alpha; k, df=inf) / sqrt(2).
    studentized_range = pytest.importorskip("scipy.stats").studentized_range
    for alpha in (0.01, 0.05, 0.1, 0.2, 0.5):
        for k in range(2, 51):
            exact = studentized_range.ppf(1 - alpha, k, math.inf) / math.sqrt(2)
            assert nemenyi_q(k, alpha) == pytest.approx(exact, abs=1e-9), (alpha, k)
    # The printed table this replaced, rounded to 3 places, for k = 2..10.
    old_table = {
        0.05: (1.960, 2.343, 2.569, 2.728, 2.850, 2.949, 3.031, 3.102, 3.164),
        0.10: (1.645, 2.052, 2.291, 2.459, 2.589, 2.693, 2.780, 2.855, 2.920),
    }
    for alpha, row in old_table.items():
        for k, q in enumerate(row, start=2):
            assert nemenyi_q(k, alpha) == pytest.approx(q, abs=0.0011), (alpha, k)


def test_nemenyi_q_holds_to_scipy_down_to_the_smallest_alpha():
    studentized_range = pytest.importorskip("scipy.stats").studentized_range
    for k in range(2, 51):
        exact = studentized_range.isf(MIN_ALPHA, k, math.inf) / math.sqrt(2)
        assert nemenyi_q(k, MIN_ALPHA) == pytest.approx(exact, rel=1e-6), k
    for alpha in (MIN_ALPHA / 10, 1e-17):
        with pytest.raises(RangeError, match="below 1e-10"):
            nemenyi_q(2, alpha)


def test_f_tail_and_betainc_match_scipy():
    # Degrees of freedom as friedman forms them from k methods and N datasets.
    hypothesis = pytest.importorskip("hypothesis")
    mpmath = pytest.importorskip("mpmath")
    st = hypothesis.strategies

    def exact_betainc(a, b, y):
        # I_y(a, b) in 40 digits.  scipy's betainc is no oracle near y = 1:
        # at a = b = 1/2 and y = 1 - 2^-53 it is 2.8e-9 off, where the
        # closed form 2/pi * asin(sqrt(y)) and recur agree.
        with mpmath.workdps(40):
            return float(mpmath.betainc(a, b, 0, y, regularized=True))

    def exact_sf(x, df1, df2):
        # P(F > x) in 40 digits.  scipy's F tail forms df2 / (df2 + df1 x)
        # in float64, which near x = 0 keeps few digits of the tail's
        # distance from 1 (at k = n = 2 and x = 6.1e-17 it is 4.5e-9 off),
        # and below about 1e-250 it drifts by up to 7%.
        with mpmath.workdps(40):
            y = mpmath.mpf(df2) / (df2 + df1 * mpmath.mpf(x))
            return exact_betainc(mpmath.mpf(df2) / 2, mpmath.mpf(df1) / 2, y)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        st.integers(2, 60),
        st.integers(2, 60),
        st.floats(0, 1e5),
        st.floats(0, 1),
    )
    def check(k, n, x, y):
        df1, df2 = k - 1, (k - 1) * (n - 1)
        assert f_distribution_sf(x, df1, df2) == pytest.approx(
            exact_sf(x, df1, df2), rel=1e-9, abs=1e-250
        )
        assert betainc(df2 / 2, df1 / 2, y) == pytest.approx(
            exact_betainc(df2 / 2, df1 / 2, y), rel=1e-9, abs=1e-12
        )

    check()
