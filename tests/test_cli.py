import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import random
import re
import sys
import time
import warnings

import pytest

from conftest import fresh_env, random_affine_spec, run_fresh
import recur.cli
from recur import __version__, numeric
from recur.algebra import signed_sum
from recur.builtins import BUILTIN_NAMES, CHECK_KINDS
from recur.cli import build_arg_parser, main
from recur.parser import render

NEWARCH_TEXT = (
    "X[i] = (1 + W[i])*X[i-1] - W[i-1]*X[i-2]\n"
    "X[1] = (1 + W[1])*X[0]\n"
    "X[0] = input\n"
)
EQ22_TEXT = "X[q] = W[q]*X[q-1] + X[0]\nX[1] = (1 + W[1])*X[0]\nX[0] = input\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_census_binomial_example(capsys):
    code, out, _ = run(
        capsys, "census", "--builtin", "resnet",
        "--depth", "5", "--wrt", "0", "--check", "binomial",
    )
    assert code == 0
    assert "census {0: 1, 1: 5, 2: 10, 3: 10, 4: 5, 5: 1}" in out
    assert "PASS" in out


def test_census_check_failure_exits_one(capsys):
    code, out, _ = run(
        capsys, "census", "--builtin", "newarch",
        "--depth", "5", "--wrt", "0", "--check", "binomial",
    )
    assert code == 1
    assert "FAIL" in out


def test_equiv_files(tmp_path, capsys):
    a = tmp_path / "newarch.rf"
    b = tmp_path / "eq22.rf"
    a.write_text(NEWARCH_TEXT)
    b.write_text(EQ22_TEXT)
    code, out, _ = run(capsys, "equiv", str(a), str(b), "--depth", "6")
    assert code == 0
    assert "equivalent" in out
    code, out, _ = run(capsys, "equiv", str(a), str(b), "--depth", "6", "--structural")
    assert code == 1
    assert "NOT isomorphic" in out


def test_equiv_builtin_names(capsys):
    code, out, _ = run(capsys, "equiv", "resnet", "chain", "--depth", "2")
    assert code == 1
    assert "NOT equivalent" in out


def test_stats_fixture_cd(capsys):
    code, out, _ = run(capsys, "stats", "table1", "--alpha", "0.05")
    assert code == 0
    assert "CD = 6.06176 (alpha = 0.05, q = 3.03088)" in out


def test_directories_do_not_hide_builtin_or_fixture_names(
    tmp_path, monkeypatch, capsys
):
    (tmp_path / "resnet").mkdir()
    (tmp_path / "table1").mkdir()
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "equiv", "resnet", "newarch", "-L", "3")
    assert (code, err) == (1, "") and "NOT equivalent" in out
    code, out, err = run(capsys, "verify", "resnet")
    assert (code, err) == (0, "") and out.endswith("7 checks, 7 passed\n")
    code, out, err = run(capsys, "stats", "table1")
    assert (code, err) == (0, "") and out.startswith("methods: ")


def test_stats_graph_json(tmp_path, capsys):
    out_file = tmp_path / "graph.json"
    code, _, _ = run(
        capsys, "stats", "table1", "--alpha", "0.05", "--graph-json", str(out_file)
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["cd"] == pytest.approx(2 * 3.030878449614413, abs=1e-12)
    assert payload["entries"][0]["method"] == "ResNet50s"


def test_stats_json_format(capsys):
    code, out, _ = run(capsys, "stats", "table1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["friedman"]["df1"] == 7
    assert payload["nemenyi"]["cd"] == pytest.approx(2 * 3.030878449614413, abs=1e-12)


def test_parse_prints_canonical_form(tmp_path, capsys):
    f = tmp_path / "messy.rf"
    f.write_text("X[i]=X[i-1]+W[i]*X[i-1];X[0]=input")
    code, out, _ = run(capsys, "parse", str(f))
    assert code == 0
    assert out == "X[i] = (1 + W[i])*X[i-1]\nX[0] = input\n"


def test_parse_reads_a_file_behind_a_byte_order_mark(tmp_path, capsys):
    text = "X[0] = input\nX[i] = W[i]*X[i-1]\n"
    (tmp_path / "plain.rf").write_bytes(text.encode())
    (tmp_path / "bom.rf").write_bytes(b"\xef\xbb\xbf" + text.encode())
    plain = run(capsys, "parse", str(tmp_path / "plain.rf"))
    assert plain == (0, "X[i] = W[i]*X[i-1]\nX[0] = input\n", "")
    assert run(capsys, "parse", str(tmp_path / "bom.rf")) == plain


def test_parse_error_exits_two_with_position(tmp_path, capsys):
    f = tmp_path / "bad.rf"
    f.write_text("X[i] = W[i!*X[i-1]\nX[0] = input\n")
    code, out, err = run(capsys, "parse", str(f))
    assert code == 2
    assert "position" in err


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "parse", "no-such-file.rf")
    assert code == 2
    assert "error:" in err


def test_expand_text_and_json(capsys):
    code, out, _ = run(capsys, "expand", "--builtin", "chain", "--depth", "3")
    assert code == 0
    assert "W[3]*W[2]*W[1]" in out
    code, out, _ = run(
        capsys, "expand", "--builtin", "chain", "--depth", "3", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["components"][0]["terms"] == [{"coeff": 1, "factors": [3, 2, 1]}]


@pytest.mark.parametrize(
    "spec, depth",
    [("resnet", "8"), ("resnet", "9"), ("mixed.rf", "9")],
    ids=["resnet-256-terms", "resnet-512-terms", "mixed"],
)
def test_expand_json_is_json_dumps_of_itself(tmp_path, capsys, spec, depth):
    # 256 and 512 terms fill one and two whole blocks; mixed.rf's terms have
    # coefficients other than 1 of both signs, and an identity term.
    if spec.endswith(".rf"):
        path = tmp_path / spec
        path.write_text("X[0] = input\nX[i] = (2 - 3*W[i])*X[i-1]\n")
        argv = [str(path)]
    else:
        argv = ["--builtin", spec]
    code, out, _ = run(capsys, "expand", *argv, "-L", depth, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2) + "\n"
    for component in payload["components"]:
        terms = component["terms"]
        assert len(terms) == 2 ** int(depth)
        assert component["polynomial"] == signed_sum(
            (t["coeff"], "*".join(f"W[{i}]" for i in t["factors"])) for t in terms
        )


def test_graph_dot_and_json(capsys):
    code, out, _ = run(capsys, "graph", "--builtin", "resnet", "--depth", "2")
    assert code == 0
    assert out.startswith('digraph "resnet"')
    code, out, _ = run(
        capsys, "graph", "--builtin", "resnet", "--depth", "2", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["depth"] == 2


def test_graph_propagation_report(capsys):
    code, out, _ = run(
        capsys, "graph", "--builtin", "eq22", "--depth", "4",
        "--propagation", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert all(not p["has_direct_identity"] for p in payload["pairs"])
    assert all(p["cross_layer_sources"] == [0] for p in payload["pairs"])


@pytest.mark.parametrize(
    "name, expected",
    [
        ("newarch", [
            "graph: newarch  depth: 4",
            "  X[1] -> X[2]: direct identity yes",
            "  X[2] -> X[3]: direct identity yes",
            "  X[3] -> X[4]: direct identity yes",
            "all pairs direct: yes",
        ]),
        ("eq22", [
            "graph: eq22  depth: 4",
            "  X[1] -> X[2]: direct identity no; cross-layer identity from [0]",
            "  X[2] -> X[3]: direct identity no; cross-layer identity from [0]",
            "  X[3] -> X[4]: direct identity no; cross-layer identity from [0]",
            "all pairs direct: no",
        ]),
    ],
)
def test_graph_propagation_text(capsys, name, expected):
    code, out, err = run(
        capsys, "graph", "--builtin", name, "-L", "4", "--propagation",
        "--format", "text",
    )
    assert (code, err) == (0, "")
    assert out == "\n".join(expected) + "\n"


def test_verify_affine(capsys):
    code, out, _ = run(
        capsys, "verify", "--builtin", "newarch",
        "--depth", "4", "--dim", "3", "--seeds", "2",
    )
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_output_is_the_same_when_seeds_split_into_groups(
    monkeypatch, capsys, fmt
):
    argv = ["verify", "--builtin", "appendix-ex2", "-L", "6", "-d", "4",
            "--seeds", "5", "--seed", "9", "--format", fmt]
    whole = run(capsys, *argv)
    groups = []
    stacked = numeric.instantiate
    monkeypatch.setattr(
        numeric, "instantiate", lambda *a: groups.append(a[3]) or stacked(*a)
    )
    # Room for two seeds at (L + 7) * d * d = 208, the net and a running
    # total for each of the 7 j: groups of 2, 2 and 1.
    monkeypatch.setattr(numeric, "MAX_MATRIX_ENTRIES", 2 * 208)
    assert run(capsys, *argv) == whole
    assert whole[0] == 0 and whole[2] == ""
    assert list(map(list, groups)) == [[9, 10], [11, 12], [13]]


def test_verify_rejects_an_epsilon_below_the_spacing_of_x(capsys):
    # X[j] +- 1e-300 rounds back to X[j], so every difference would read 0.
    code, out, err = run(
        capsys, "verify", "--builtin", "resnet", "-L", "2", "-d", "2",
        "--activation", "tanh", "--eps", "1e-300",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: epsilon 1e-300 is below the spacing of X[0]")


def test_verify_tanh(capsys):
    code, out, _ = run(
        capsys, "verify", "--builtin", "resnet",
        "--depth", "4", "--dim", "4", "--activation", "tanh",
    )
    assert code == 0


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_verify_rejects_seed_count_below_one(capsys, seeds):
    code, out, err = run(capsys, "verify", "--builtin", "newarch", "--seeds", seeds)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--seeds" in err


@pytest.mark.parametrize(
    "tol", [["--tol", "nan"], ["--tol", "-1"], ["--tol", "inf"],
            ["--fd-tol", "nan"], ["--fd-tol", "-1"]],
)
def test_verify_rejects_meaningless_tolerance_before_any_work(capsys, tol):
    # -L 30 is over the depth cap: reaching derivative() would say so instead.
    code, out, err = run(capsys, "verify", "--builtin", "resnet", "-L", "30", *tol)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {tol[0]} must be finite")


def _run_drawn(argv):
    """Run drawn argv through main: it exits 0, 1 or 2 without raising or
    warning, and prints only an error line when it exits 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error:"), argv
    else:
        assert out.getvalue() and not err.getvalue(), argv


def test_drawn_verify_argv_exits_zero_one_or_two_without_raising():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # Each value comes from its full range or, as often, from its valid
    # part, so that most draws get past the argument checks.
    def value(valid, full):
        return st.one_of(valid, full)

    tolerances = value(
        st.sampled_from(["0", "1e-300", "1e-10", "1e-4", "1"]),
        st.sampled_from(["1e-10", "-1", "nan", "inf", "-inf"]),
    )

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        L = data.draw(value(st.integers(1, 9), st.integers(-2, 9)), label="L")
        name = st.sampled_from(("chain", "resnet") + BUILTIN_NAMES)
        argv = [
            "verify",
            "--builtin", data.draw(name, label="builtin"),
            f"--depth={L}",
            f"--dim={data.draw(value(st.integers(1, 5), st.integers(-1, 5)))}",
            f"--seeds={data.draw(value(st.integers(1, 3), st.integers(-1, 3)))}",
            f"--tol={data.draw(tolerances, label='tol')}",
            f"--fd-tol={data.draw(tolerances, label='fd-tol')}",
        ]
        wrt = data.draw(
            st.none() | value(st.integers(0, max(L - 1, 0)), st.integers(-2, L + 2)),
            label="wrt",
        )
        if wrt is not None:
            argv.append(f"--wrt={wrt}")
        if data.draw(st.booleans(), label="tanh"):
            argv += ["--activation", "tanh"]
        if data.draw(st.booleans(), label="json"):
            argv += ["--format", "json"]
        _run_drawn(argv)

    check()


def test_verify_passes_on_drawn_formula_files(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    path = tmp_path / "drawn.rf"

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.integers(0, 2**32), st.integers(1, 7))
    def check(seed, L):
        path.write_text(render(random_affine_spec(random.Random(seed))))
        argv = ["verify", str(path), "-L", str(L), "-d", "3", "--seeds", "2",
                "--format", "json"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        report = json.loads(out.getvalue())
        assert code == 0 and report["pass"], argv
        assert len(report["checks"]) == 2 * (L + 1)
        assert all(r["pass"] for r in report["checks"]), argv

    check()


def test_verify_passes_a_derivative_that_cancels_to_zero(tmp_path, capsys):
    # random_affine_spec(random.Random(5370)).  dX[5]/dX[0] cancels to the
    # zero polynomial, while the basis propagation leaves a rounding residue
    # of about 4e-16, which has no relative error to measure against.
    f = tmp_path / "cancel.rf"
    f.write_text(
        "X[0] = input\n"
        "X[1] = 3*X[0]\n"
        "X[2] = (-2*W[2] - 2*W[1])*X[0] - W[1]*X[1]\n"
        "X[n] = -X[n-1] + X[n-3] + 2*X[0]\n"
    )
    code, out, _ = run(capsys, "census", str(f), "-L", "5", "--format", "json")
    assert (code, json.loads(out)["census"]) == (0, {})
    assert run(capsys, "expand", str(f), "-L", "5") == (0, "X[5] = 0\n", "")
    argv = ["verify", str(f), "-L", "5", "-d", "3", "--seeds", "2", "--format", "json"]
    code, out, err = run(capsys, *argv)
    checks = json.loads(out)["checks"]
    assert (code, err, len(checks)) == (0, "", 12)
    assert all(c["pass"] and c["error"] < 1e-15 for c in checks), checks


# Formula and table files for the drawn argv of every command: two valid
# formulas, one with no graph, one that fails the widest check, one past
# float64, one with a bad literal, and tables with ties, NaN and a short row.
DRAWN_FILES = {
    "newarch.rf": NEWARCH_TEXT,
    "eq22.rf": EQ22_TEXT,
    "deg2.rf": "X[0] = input; X[1] = W[1]*X[0]; X[i] = -2*W[i]*W[i-1]*X[i-1]\n",
    "wide.rf": (
        "X[0] = input; X[1] = (1 + W[1])*X[0];"
        " X[i] = (1 - 2*W[i])*X[i-1] + W[i-1]*X[i-2]\n"
    ),
    "big.rf": "X[0] = input\nX[i] = 1" + "0" * 200 + "*X[i-1]\n",
    "bad.rf": "X[0] = input\nX[i] = W[i]*X[i-\u00b2]\n",
    "ties.csv": "method,a,b,c\nA,1,2,3\nB,1,2,3\nC,3,1,nan\n",
    "short.csv": "method,a,b\nA,1\n",
}


def test_drawn_argv_of_every_command_exits_zero_one_or_two(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    for name, text in DRAWN_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    paths = [str(tmp_path / name) for name in DRAWN_FILES]
    formulas = tuple(p for p in paths if p.endswith(".rf"))
    spec = st.sampled_from(BUILTIN_NAMES + formulas)
    depth = st.integers(-1, 7).map(lambda L: f"--depth={L}")

    def spec_args(data):
        if data.draw(st.booleans(), label="--builtin"):
            return ["--builtin", data.draw(st.sampled_from(BUILTIN_NAMES))]
        return [data.draw(spec, label="spec")]

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        commands = ("parse", "expand", "census", "equiv", "graph", "chain-identity")
        command = data.draw(st.sampled_from(commands + ("stats", "verify")))
        fmt = st.sampled_from(["text", "json"])
        if command == "equiv":
            argv = [command, data.draw(spec), data.draw(spec), data.draw(depth)]
            if data.draw(st.booleans(), label="--structural"):
                argv.append("--structural")
        elif command == "stats":
            tables = ("table1", "table2", *(p for p in paths if p.endswith(".csv")))
            alpha = st.sampled_from(["0.05", "0.1", "0.2", "nan", "-1"])
            table = data.draw(st.sampled_from(tables), label="table")
            argv = [command, table, "--alpha", data.draw(alpha, label="alpha")]
        else:
            argv = [command, *spec_args(data)]
            if command != "parse":
                argv.append(data.draw(depth))
            if command == "census":
                argv.append(f"--wrt={data.draw(st.integers(-1, 8))}")
                kind = data.draw(st.sampled_from((None, *CHECK_KINDS)))
                if kind:
                    argv += ["--check", kind]
            elif command == "graph":
                fmt = st.sampled_from(["dot", "json", "text"])
                if data.draw(st.booleans(), label="--propagation"):
                    argv.append("--propagation")
            elif command == "verify":
                argv.append(f"--dim={data.draw(st.integers(1, 3))}")
        argv += ["--format", data.draw(fmt, label="format")]
        _run_drawn(argv)

    check()


def test_deep_nesting_exits_two_without_traceback(tmp_path, capsys):
    f = tmp_path / "deep.rf"
    nested = "(" * 1000 + "W[i]*X[i-1]" + ")" * 1000
    f.write_text(f"X[i] = {nested}\nX[0] = input\n")
    code, out, err = run(capsys, "parse", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "source, depth",
    [
        (None, "1000000"),  # appendix-ex2: about 9 GB if it were built
        ("X[i] = 1000000000*X[i-1]\nX[0] = input\n", "1"),
        ("X[i] = 1000000000*X[i-1]\nX[0] = input\n", "2"),
        ("X[i] = 200000*X[i-1]\nX[0] = input\n", "6"),
    ],
)
def test_graph_over_budget_exits_two_at_once(tmp_path, capsys, source, depth):
    if source is None:
        spec = ["--builtin", "appendix-ex2"]
    else:
        f = tmp_path / "wide.rf"
        f.write_text(source)
        spec = [str(f)]
    start = time.perf_counter()
    code, out, err = run(capsys, "graph", *spec, "-L", depth, "--format", "json")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: graph ") and "nodes plus edges" in err


def test_verify_coefficient_past_float64_exits_two(tmp_path, capsys):
    f = tmp_path / "big.rf"
    f.write_text("X[0] = input\nX[i] = 1" + "0" * 200 + "*X[i-1]\n")
    # At L = 3 the derivative's coefficient is 10^600.
    for seeds in ("1", "3"):  # one net, then one stack of three seeds
        code, out, err = run(capsys, "verify", str(f), "-L", "3", "--seeds", seeds)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "float64" in err
    # At L = 1 every coefficient, 10^200 at most, is a float64. Its square
    # is not, so the error norms must scale before they square.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "verify", str(f), "-L", "1")
    assert (code, err) == (0, "") and out.endswith("2 checks, 2 passed\n")
    errors = [float(e) for e in re.findall(r" error=(\S+) ", out)]
    assert len(errors) == 2 and all(math.isfinite(e) for e in errors)


BIG_RULE = "X[0] = input\nX[i] = 1" + "0" * 200 + "*X[i-1]\n"
# Each literal has 4,300 digits, the most int() reads; their product has more.
NINES_RULE = "X[0] = input\nX[i] = " + "*".join(["9" * 4300] * 2) + "*X[i-1]\n"
NINES = int("9" * 4300) ** 2


@pytest.mark.parametrize(
    "text, argv, bits",
    [
        # At L = 22 the one coefficient is 10^4400, past 4,300 digits.
        (BIG_RULE, ["expand", "-L", "22"], (10**4400).bit_length()),
        (
            BIG_RULE,
            ["expand", "-L", "22", "--format", "json"],
            (10**4400).bit_length(),
        ),
        # The census weight at L = 22 is that coefficient too.
        (BIG_RULE, ["census", "-L", "22", "--format", "json"], (10**4400).bit_length()),
        # render writes the product of the two literals.
        (NINES_RULE, ["parse"], NINES.bit_length()),
        # The report writes X[2]'s coefficient, NINES^2, against resnet's 1.
        (NINES_RULE, ["equiv", "resnet", "-L", "2"], (NINES**2).bit_length()),
    ],
    ids=["expand", "expand-json", "census", "parse", "equiv"],
)
def test_coefficient_past_the_digit_limit_exits_two(
    tmp_path, capsys, text, argv, bits
):
    f = tmp_path / "big.rf"
    f.write_text(text)
    code, out, err = run(capsys, argv[0], str(f), *argv[1:])
    assert (code, out) == (2, "")
    assert err == (
        f"error: an integer of {bits} bits has more than"
        f" {sys.get_int_max_str_digits()} decimal digits, too many to write\n"
    )


def test_coefficient_past_the_digit_limit_leaves_out_file_as_it_was(
    tmp_path, capsys
):
    f = tmp_path / "big.rf"
    f.write_text(BIG_RULE)
    target = tmp_path / "out.json"
    target.write_bytes(b"old text\n")
    code, out, err = run(
        capsys, "expand", str(f), "-L", "22", "--format", "json", "--out", str(target)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: an integer of ")
    assert target.read_bytes() == b"old text\n"


@pytest.mark.parametrize(
    "extra",
    [
        ["--format", "dot"],
        ["--format", "json"],
        ["--format", "text"],
        ["--propagation"],
        ["--propagation", "--format", "json"],
    ],
)
def test_graph_floor_past_the_digit_limit_exits_two(tmp_path, capsys, extra):
    f = tmp_path / "nines.rf"
    f.write_text(NINES_RULE)
    code, out, err = run(capsys, "graph", str(f), "-L", "2", *extra)
    assert (code, out) == (2, "")
    # The floor, NINES edges at X[2] plus five items, is written as its size.
    assert err == (
        f"error: graph 'nines' at depth 2 needs at least a"
        f" {(NINES + 5).bit_length()}-bit number of nodes plus edges,"
        " budget is 1048576\n"
    )


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_verify_tanh_passes_for_every_builtin(capsys, name):
    code, out, err = run(
        capsys, "verify", "--builtin", name, "-L", "6", "--activation", "tanh",
        "--seeds", "3",
    )
    assert (code, err) == (0, "")
    assert out.endswith("\n18 checks, 18 passed\n")


def test_verify_tanh_on_a_file_with_a_lag_two_and_an_absolute_source(capsys, tmp_path):
    f = tmp_path / "mixed.rf"
    f.write_text("X[0] = input\nX[1] = W[1]*X[0]\nX[i] = W[i]*X[i-1] - X[i-2] + X[0]\n")
    code, out, err = run(capsys, "verify", str(f), "-L", "6", "--activation", "tanh")
    assert (code, err) == (0, "")
    assert out.endswith("\n6 checks, 6 passed\n")


def test_verify_tanh_central_difference_floor_is_a_failed_check(capsys):
    # eq22's dX[12]/dX[1] at d = 1 is small beside X[12], so the rounding of
    # X[12] alone puts the central difference past the default --fd-tol.
    code, out, err = run(
        capsys, "verify", "--builtin", "eq22", "-L", "12", "-d", "1",
        "--activation", "tanh", "--seeds", "3",
    )
    assert (code, err) == (1, "")
    failed = "eq22 L=12 j=1 d=1 seed=2 activation=tanh error=3.039e-04 tol=1e-04 FAIL"
    assert f"\n{failed}\n" in out


def test_chain_identity_command(capsys):
    code, out, _ = run(capsys, "chain-identity", "--builtin", "newarch", "--depth", "12")
    assert code == 0
    assert "PASS" in out
    code, out, _ = run(capsys, "chain-identity", "--builtin", "resnet", "--depth", "4")
    assert code == 1


@pytest.mark.parametrize("depth", ["1", "0", "-3"])
def test_chain_identity_rejects_depth_below_two(capsys, depth):
    code, out, err = run(capsys, "chain-identity", "--builtin", "resnet", "-L", depth)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_chain_identity_rejects_a_sweep_past_the_budget_before_it_starts(
    monkeypatch, capsys, tmp_path
):
    calls = []
    monkeypatch.setattr(
        "recur.expansion.verify_chain_identity", lambda *a: calls.append(a) or True
    )
    # No block, so only the two steps a pass charges per m stop the sweep.
    copy = tmp_path / "copy.rf"
    copy.write_text(COPY_TEXT)
    code, out, err = run(capsys, "chain-identity", str(copy), "-L", "1000000000")
    assert (code, out) == (2, "")
    assert err == (
        "error: a sweep of 1999999998 steps charges 1023999998976 cells,"
        " past the expansion budget of 33554432\n"
    )
    # The top state's block index comes first.
    code, out, err = run(
        capsys, "chain-identity", "--builtin", "newarch", "-L", "1114112"
    )
    assert (code, out) == (2, "")
    assert "block index 1114112 is past 1114111" in err
    assert calls == []


COPY_TEXT = "X[0] = input; X[i] = X[i-1]\n"
# Fresh processes, since ru_maxrss only grows: each command must stop on
# its budget within these bounds, however deep its -L or long its text.
BUDGET_FILES = {
    "copy.rf": COPY_TEXT,
    # 256 terms a coefficient: 2^24 terms at -L 10
    "factors8.rf": (
        "X[0] = input\n"
        + "".join(f"X[{k}] = X[{k - 1}]\n" for k in range(1, 8))
        + "X[i] = (1 + W[i])*"
        + "*".join(f"(1 + W[i-{k}])" for k in range(1, 8))
        + "*X[i-1]\n"
    ),
    # 64 terms a coefficient from the rule's first state on
    "factors6.rf": (
        "X[0] = input\n"
        + "".join(f"X[{k}] = X[{k - 1}]\n" for k in range(1, 6))
        + "X[i] = (1 + W[i])*"
        + "*".join(f"(1 + W[i-{k}])" for k in range(1, 6))
        + "*X[i-1]\n"
    ),
    # 2^14 words of 14 blocks, none a prefix of another: the census's
    # check that no word takes two paths must stay linear in them
    "prefixfree14.rf": (
        "X[0] = input\nX[1] = X[0]\nX[i] = "
        + "(W[i] + W[i-1])*" * 14
        + "X[i-1]\n"
    ),
    # one term, one code point, and a coefficient of 28,567 bits
    "nines.rf": "X[0] = input\nX[i] = " + "*".join(["9" * 4300] * 2) + "*X[i-1]\n",
    # products that pass the parse budget at a star: long words, wide integers
    "w5000.rf": "X[0] = input\nX[i] = " + "W[i]*" * 5000 + "X[i-1]\n",
    "nines20.rf": "X[0] = input\nX[i] = " + "*".join(["9" * 4000] * 20) + "*X[i-1]\n",
    # texts that pass it before they are tokenized: 200 KB, 0.8 MB and 1.8 MB
    "w40000.rf": "X[0] = input\nX[i] = " + "W[i]*" * 40000 + "X[i-1]\n",
    "nines200.rf": "X[0] = input\nX[i] = " + "*".join(["9" * 4000] * 200) + "*X[i-1]\n",
    "sum200000.rf": "X[0] = input\nX[i] = " + " + ".join(["X[i-1]"] * 200000) + "\n",
}
EXPANSION_BUDGET_ERROR = (
    "error: expanding X[", " past the expansion budget of 33554432\n"
)


def parse_budget_error(position):
    return (
        "error: parsing charges ",
        f" past the parse budget of 2097152 (at position {position})\n",
    )


OVER_BUDGET = [
    (("expand", "--builtin", "resnet", "-L", "24"), EXPANSION_BUDGET_ERROR),
    (("expand", "factors8.rf", "-L", "10"), EXPANSION_BUDGET_ERROR),
    (("census", "--builtin", "chain", "-L", "100000"), EXPANSION_BUDGET_ERROR),
    # past the budget at the 2,379th of 60,000 steps
    (
        ("census", "--builtin", "chain", "-L", "60000"),
        (
            "error: expanding X[60000] at X[57622] charges 33555768 cells,",
            EXPANSION_BUDGET_ERROR[1],
        ),
    ),
    (("census", "nines.rf", "-L", "200"), EXPANSION_BUDGET_ERROR),
    (
        ("census", "prefixfree14.rf", "-L", "3"),
        (
            "error: expanding X[3] at X[2] charges 8053327360 cells,",
            EXPANSION_BUDGET_ERROR[1],
        ),
    ),
    (("expand", "copy.rf", "-L", "1000000000"), EXPANSION_BUDGET_ERROR),
    # m = 576 alone fits; the total the sweep's passes share does not
    (
        ("chain-identity", "factors6.rf", "-L", "3000"),
        (
            "error: expanding X[576] at X[575] charges 33568216 cells,",
            EXPANSION_BUDGET_ERROR[1],
        ),
    ),
    # checks j = 0, 1 and 2 for each seed, counted before the seeds are drawn
    (
        ("verify", "--builtin", "resnet", "-L", "2", "-d", "1", "--seeds", str(10**12)),
        (
            "error: 1000000000000 seeds x 3 checks a seed are more than",
            " the check budget of 1048576\n",
        ),
    ),
    # at the 1,839th star and the 6th; then at the 131,073rd character
    (("parse", "w5000.rf"), parse_budget_error(9214)),
    (("parse", "nines20.rf"), parse_budget_error(24025)),
    *((("parse", name), parse_budget_error(131072))
      for name in ("w40000.rf", "nines200.rf", "sum200000.rf")),
]
# The command runs one process further down: a process spawned from pytest
# starts its ru_maxrss at pytest's own peak.
FRESH_RUN = """
import json, resource, subprocess, sys, time
start = time.perf_counter()
done = subprocess.run([sys.executable, *ARGV], capture_output=True, text=True)
seconds = time.perf_counter() - start
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(json.dumps([done.returncode, done.stdout[:100], done.stderr, seconds, peak_mb]))
"""


def run_python_fresh(argv):
    """(exit code, stdout head, stderr, seconds, peak MB) of ``python argv``."""
    return json.loads(run_fresh(FRESH_RUN.replace("ARGV", repr(list(argv)))))


def run_cli_fresh(argv):
    """(exit code, stdout head, stderr, seconds, peak MB) of ``recur argv``."""
    return run_python_fresh(["-m", "recur.cli", *argv])


# A process that holds the 2^17 terms of resnet's d X[17]/d X[0] and
# writes nothing: the baseline of the output tests below.  ``census`` no
# longer holds that polynomial, since it builds no product for resnet.
HOLD_RESNET_17 = [
    "-c",
    "from recur.builtins import builtin_spec\n"
    "from recur.expansion import derivative\n"
    "poly = derivative(builtin_spec('resnet'), 17, 0)\n",
]


@pytest.mark.parametrize(
    "argv, error", OVER_BUDGET, ids=[" ".join(a[1:]) for a, _ in OVER_BUDGET]
)
def test_over_budget_exits_two_in_time_and_memory(tmp_path, argv, error):
    for name in set(argv) & BUDGET_FILES.keys():
        (tmp_path / name).write_text(BUDGET_FILES[name])
    argv = [str(tmp_path / a) if a in BUDGET_FILES else a for a in argv]
    code, out, err, seconds, peak_mb = run_cli_fresh(argv)
    assert (code, out) == (2, "")
    assert err.startswith(error[0]) and "Traceback" not in err
    assert err.endswith(error[1])
    assert seconds < 2.0
    assert peak_mb < 150


@pytest.mark.parametrize(
    "argv, baseline",
    [
        # 2^17 terms, one piece per 256, against a process holding that
        # polynomial
        (
            ["expand", "--builtin", "resnet", "-L", "17", "--format", "json"],
            HOLD_RESNET_17,
        ),
        # 200,007 nodes and edges, one piece each, against the DOT text
        (
            ["graph", "wide.rf", "-L", "2", "--format", "json"],
            ["graph", "wide.rf", "-L", "2", "--format", "dot"],
        ),
    ],
    ids=["expand", "graph"],
)
def test_json_output_peak_memory_stays_within_three_times_baseline(
    tmp_path, argv, baseline
):
    wide = tmp_path / "wide.rf"
    wide.write_text("X[0] = input\nX[i] = 100000*X[i-1]\n")
    peaks = []
    for command in (argv, baseline):
        run = run_python_fresh if command is HOLD_RESNET_17 else run_cli_fresh
        code, _, _, _, peak_mb = run(
            [str(wide) if a == "wide.rf" else a for a in command]
        )
        assert code == 0
        peaks.append(peak_mb)
    assert peaks[0] <= 3 * peaks[1]


def test_text_output_peak_memory_stays_within_1_4_times_baseline():
    # 2^17 terms written as pieces of 256 terms each, against a process
    # holding that polynomial: 42.5 against 33.6 MB (1.27 times) on a 2-CPU
    # Linux machine with Python 3.11; 53.2 MB with the text joined from one
    # piece per term.
    peaks = []
    for run, argv in (
        (run_cli_fresh, ["expand", "--builtin", "resnet", "-L", "17"]),
        (run_python_fresh, HOLD_RESNET_17),
    ):
        code, _, _, _, peak_mb = run(argv)
        assert code == 0
        peaks.append(peak_mb)
    assert peaks[0] <= 1.4 * peaks[1]


def test_census_peak_memory_stays_within_1_2_times_parse():
    # resnet's d X[19]/d X[0] has 2^19 terms; the census counts them by
    # convolution and builds none: 16.7 MB, as for parse, on a 2-CPU Linux
    # machine with Python 3.11, against 54.6 MB when it built all but the
    # last product.
    peaks = []
    for argv in (
        ["census", "--builtin", "resnet", "-L", "19", "--format", "json"],
        ["parse", "resnet"],
    ):
        code, _, _, _, peak_mb = run_cli_fresh(argv)
        assert code == 0
        peaks.append(peak_mb)
    assert peaks[0] <= 1.2 * peaks[1]


@pytest.mark.parametrize(
    "wrt, expected",
    [
        (
            10**12,
            (0, "spec: chain  depth: 1000000000000  wrt: 1000000000000\n"
             "census {0: 1}\n", ""),
        ),
        (
            10**12 - 1,
            (2, "", "error: block index 1000000000000 is past 1114111, the"
             " largest a path word can hold\n"),
        ),
    ],
)
def test_census_at_a_huge_depth_takes_memory_by_its_steps(wrt, expected):
    # The census reads the L - j states from X[j] up, so at L = 10^12 it
    # takes no more memory than parse.
    code, out, err, _, peak_mb = run_cli_fresh(
        ["census", "--builtin", "chain", "-L", str(10**12), "-j", str(wrt)]
    )
    assert (code, out, err) == expected
    assert peak_mb <= 1.2 * run_cli_fresh(["parse", "chain"])[4]


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "--builtin", "newarch", "-L", "200"),
        ("census", "--builtin", "newarch", "-L", "200", "--check", "single-path"),
        ("census", "--builtin", "eq22", "-L", "200", "--check", "single-path"),
        ("census", "--builtin", "eq22", "-L", "1000", "--check", "single-path"),
        ("chain-identity", "--builtin", "newarch", "-L", "200"),
    ],
    ids=lambda a: " ".join(a[1:]),
)
def test_deep_single_path_formulas_fit_the_budget(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    if argv[0] == "expand":
        assert out.count(" + ") == 200  # 201 terms, one per length
    elif argv[0] == "census":
        assert "check single-path: PASS" in out


def test_census_charges_the_last_push_it_does_not_build(capsys):
    # resnet's last push, from X[1] into X[0], goes to the budget though
    # the census counts its product without building it.
    code, out, err = run(
        capsys, "census", "--builtin", "resnet", "-L", "19", "--check", "binomial"
    )
    assert (code, err) == (0, "")
    assert "check binomial: PASS" in out
    code, out, err = run(capsys, "census", "--builtin", "resnet", "-L", "20")
    assert (code, out) == (2, "")
    assert err == (
        "error: expanding X[20] at X[1] charges 44050430 cells,"
        " past the expansion budget of 33554432\n"
    )


def test_stats_alpha_below_the_smallest_exits_two(capsys):
    code, out, err = run(capsys, "stats", "table1", "--alpha", "1e-11")
    assert (code, out) == (2, "")
    assert "alpha 1e-11 is below 1e-10" in err


def test_block_indices_in_the_surrogate_range_render_and_evaluate(capsys):
    # W[55296..57343] are the surrogate code points 0xD800..0xDFFF in a word.
    code, out, _ = run(
        capsys, "census", "--builtin", "chain", "-L", "55300", "-j", "55299"
    )
    assert code == 0 and "census {1: 1}" in out
    code, out, _ = run(
        capsys, "census", "--builtin", "resnet", "-L", "55300", "-j", "55294",
        "--check", "widest", "--format", "json",
    )
    assert code == 1
    violations = json.loads(out)["check"]["violations"]
    assert [v["length"] for v in violations] == [1, 2, 3, 4, 5]
    assert violations[0]["actual"] == " + ".join(
        f"W[{i}]" for i in range(55300, 55294, -1)
    )
    assert violations[-1]["expected"] == "*".join(
        f"W[{i}]" for i in range(55300, 55295, -1)
    )
    # 32 terms go through the chunked schedule, 8 term by term.
    for j in ("55295", "55297"):
        code, out, _ = run(
            capsys, "verify", "--builtin", "resnet", "-L", "55300", "-j", j,
            "-d", "2",
        )
        assert code == 0 and out.endswith("1 checks, 1 passed\n")


def test_block_index_past_the_last_code_point_exits_two(capsys):
    code, out, err = run(
        capsys, "census", "--builtin", "chain", "-L", "1114112", "-j", "1114111"
    )
    assert (code, out) == (2, "")
    assert "block index 1114112 is past 1114111" in err


def test_byte_identical_output(capsys):
    args = ("census", "--builtin", "resnet", "--depth", "6", "--wrt", "1",
            "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# sha256 of stdout, pinned from a known-good build: a change in term order,
# zero dropping or rendering shows here, not only in the benchmark.
PINNED_STDOUT = [
    (("expand", "--builtin", "resnet", "-L", "10", "--format", "json"), 0,
     "a891b6bc0fca108324f90558a1a318ef1e5b95f2488417a03b5d98cf900b8649"),
    (("census", "--builtin", "appendix-ex2", "-L", "14", "--check", "binomial",
      "--format", "json"), 1,
     "fd3adad9260099c9564026e085748a0dfe066f2b8352ac3bfdbcacd4f0824697"),
    (("equiv", "newarch", "eq22", "-L", "8", "--format", "json"), 0,
     "3c9664075f3358a1bd8f1fd26dfa20f7e6d0cb2583ae79aa2556423a4e5c9192"),
]


@pytest.mark.parametrize(
    "argv,code,digest", PINNED_STDOUT, ids=["expand", "census", "equiv"]
)
def test_stdout_matches_pinned_digest(capsys, argv, code, digest):
    got_code, out, _ = run(capsys, *argv)
    assert got_code == code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# One command per subcommand, on builtins; census and equiv fail their checks
# (exit 1).
OUT_COMMANDS = [
    ("parse", "--builtin", "newarch", "--format", "json"),
    ("expand", "--builtin", "resnet", "-L", "3"),
    ("census", "--builtin", "newarch", "-L", "5", "--check", "binomial"),
    ("equiv", "newarch", "eq22", "-L", "6", "--structural"),
    ("graph", "--builtin", "newarch", "-L", "4", "--format", "dot"),
    ("verify", "--builtin", "resnet", "-L", "3", "-d", "2", "--format", "json"),
    ("chain-identity", "--builtin", "newarch", "-L", "4"),
    ("stats", "table1"),
]


@pytest.mark.parametrize("argv", OUT_COMMANDS, ids=[a[0] for a in OUT_COMMANDS])
def test_out_writes_exactly_what_stdout_shows(tmp_path, capsys, argv):
    code, out, _ = run(capsys, *argv)
    target = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(target))[:2] == (code, "")
    assert target.read_bytes() == out.encode("utf-8")


def test_byte_identical_across_processes(tmp_path):
    import subprocess

    args = [sys.executable, "-m", "recur.cli", "graph", "--builtin", "newarch",
            "--depth", "4", "--format", "json"]
    env = fresh_env()
    first = subprocess.run(args, capture_output=True, check=True, env=env)
    second = subprocess.run(args, capture_output=True, check=True, env=env)
    assert first.stdout == second.stdout


def test_help_exits_zero(capsys):
    for sub in ("parse", "expand", "census", "equiv", "graph", "verify",
                "chain-identity", "stats"):
        code, out, _ = run(capsys, sub, "--help")
        assert code == 0
        assert "usage" in out.lower()


def test_usage_error_exits_two(capsys):
    code, _, _ = run(capsys, "census", "--builtin", "not-a-builtin")
    assert code == 2


def test_invalid_values_exit_two(capsys):
    code, _, err = run(capsys, "expand", "--builtin", "resnet", "--depth", "0")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "census", "--builtin", "resnet",
                       "--depth", "3", "--wrt", "9")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "verify", "--builtin", "resnet", "--dim", "0")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "verify", "--builtin", "chain",
                       "-L", "1", "--dim", "1000000")
    assert code == 2 and "error:" in err


# Run forward and then reversed, each pass on one new parser that main
# reuses: each command must give the same (code, stdout, stderr) both
# times, so nothing a call leaves on the parser (a flag's value, a chosen
# subcommand, an error) can reach a later call.
REUSE_COMMANDS = [
    ("parse", "--builtin", "newarch", "--format", "json"),
    ("expand", "--builtin", "resnet", "-L", "3"),
    ("census", "--builtin", "resnet", "-L", "4", "--check", "binomial"),
    ("census", "--builtin", "resnet", "-L", "4"),
    ("equiv", "newarch", "eq22", "-L", "5", "--structural"),
    ("equiv", "newarch", "eq22", "-L", "5"),
    ("graph", "--builtin", "newarch", "-L", "3", "--propagation"),
    ("graph", "--builtin", "newarch", "-L", "3"),
    ("verify", "--builtin", "resnet", "-L", "3", "-d", "2", "--wrt", "2"),
    ("verify", "--builtin", "resnet", "-L", "3", "-d", "2"),
    ("chain-identity", "--builtin", "newarch", "-L", "4", "--format", "json"),
    ("chain-identity", "--builtin", "newarch", "-L", "4"),
    ("stats", "table1", "--alpha", "0.1"),
    ("stats", "table1"),
    ("census", "--builtin", "not-a-builtin"),
    ("verify", "--help"),
    ("--help",),
    ("--version",),
    ("expand", "--builtin", "newarch", "-L", "4", "--out", "OUT"),
    ("expand", "--builtin", "newarch", "-L", "4"),
]


def test_parser_reuse_leaks_nothing_between_calls(monkeypatch, tmp_path, capsys):
    import recur.cli

    target = str(tmp_path / "out.txt")
    commands = [[target if a == "OUT" else a for a in argv] for argv in REUSE_COMMANDS]

    def one_pass(order):
        monkeypatch.setattr(recur.cli, "_arg_parser", functools.cache(build_arg_parser))
        return [run(capsys, *argv) for argv in order]

    forward = one_pass(commands)
    backward = one_pass(commands[::-1])[::-1]
    for argv, there, back in zip(commands, forward, backward):
        assert there == back, argv
    codes = [code for code, _, _ in forward]
    assert codes == [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0]
    assert forward[-2][1:] == ("", "")
    assert (tmp_path / "out.txt").read_text(encoding="utf-8") == forward[-1][1]
    assert forward[-3][1] == f"recur {__version__}\n"


def _command_parsers(parser):
    """The parser itself under (), then each subcommand's under its name."""
    (subs,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {(): parser, **{(name,): p for name, p in subs.choices.items()}}


def test_help_wraps_to_columns_at_each_call(monkeypatch, capsys):
    for argv in _command_parsers(build_arg_parser()):
        helps = []
        for columns in ("60", "150"):
            monkeypatch.setenv("COLUMNS", columns)
            code, out, err = run(capsys, *argv, "--help")
            assert (code, err) == (0, ""), argv
            assert out == _command_parsers(build_arg_parser())[argv].format_help()
            helps.append(out)
        assert helps[0] != helps[1], argv
        assert max(map(len, helps[0].splitlines())) <= 60, helps[0]
