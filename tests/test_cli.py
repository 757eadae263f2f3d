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

from conftest import fresh_env, random_affine_spec
from recur import __version__
from recur.builtins import BUILTIN_NAMES
from recur.cli import build_arg_parser, main
from recur.expansion import CHECK_KINDS
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
    code, out, err = run(capsys, "verify", str(f), "-L", "3")
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


def test_verify_tanh_rejected_for_newarch(capsys):
    code, _, err = run(
        capsys, "verify", "--builtin", "newarch", "--activation", "tanh"
    )
    assert code == 2
    assert "tanh" in err


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


def test_chain_identity_rejects_depth_over_cap_before_sweep(monkeypatch, capsys):
    code, out, err = run(capsys, "chain-identity", "--builtin", "newarch", "-L", "30")
    assert code == 2
    assert out == ""
    assert err == (
        "error: depth 30 exceeds the expansion cap 24;"
        " raise the cap explicitly if you mean it\n"
    )
    calls = []
    monkeypatch.setattr(
        "recur.cli.verify_chain_identity", lambda *a: calls.append(a) or True
    )
    assert run(capsys, "chain-identity", "--builtin", "newarch", "-L", "25")[0] == 2
    assert calls == []


def test_depth_cap_env(monkeypatch, capsys):
    monkeypatch.setenv("RECUR_DEPTH_CAP", "4")
    code, _, err = run(capsys, "expand", "--builtin", "resnet", "--depth", "6")
    assert code == 2
    assert "cap" in err
    monkeypatch.setenv("RECUR_DEPTH_CAP", "30")
    code, _, _ = run(capsys, "expand", "--builtin", "resnet", "--depth", "6")
    assert code == 0


def test_stats_alpha_below_the_smallest_exits_two(capsys):
    code, out, err = run(capsys, "stats", "table1", "--alpha", "1e-11")
    assert (code, out) == (2, "")
    assert "alpha 1e-11 is below 1e-10" in err


def test_block_indices_in_the_surrogate_range_render_and_evaluate(
    monkeypatch, capsys
):
    # W[55296..57343] are the surrogate code points 0xD800..0xDFFF in a word.
    monkeypatch.setenv("RECUR_DEPTH_CAP", "60000")
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


def test_block_index_past_the_last_code_point_exits_two(monkeypatch, capsys):
    monkeypatch.setenv("RECUR_DEPTH_CAP", "1114112")
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
