"""Digest the output of a fixed matrix of recur CLI commands.

Runs each command in-process through ``recur.cli.main`` and prints one line
per command, ``<sha256>  <argv>``, where the digest covers the exit code,
stdout and stderr, then a ``total`` line over all of them.  Two checkouts
give the same lines exactly when every command behaves the same byte for
byte, so a change that should not alter output is checked with::

    python3 tools/output_digest.py > after.txt
    python3 tools/output_digest.py --root ../parent > before.txt
    diff before.txt after.txt

``--root`` names the checkout whose ``src/recur`` is imported (default:
the one holding this script).  A command argument that names one of
``FILES`` is run on that formula, written to a temporary directory;
leading ``NAME=value`` words set environment variables for that command
alone; an exception that escapes ``main`` is digested by its type name in
place of the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

BUILTINS = ("chain", "resnet", "newarch", "eq22", "appendix-ex1", "appendix-ex2")
FORMATS = ("text", "json")
_IN = "X[0] = input\n"
_RULE = "X[i] = X[i-1]\n"
# One formula for each error that parsing text can raise, besides the
# superscript, long and product17 files below, and three that parse.
PARSE_ERRORS = {
    # _Parser: syntax
    "expect.rf": _IN + "X[i] W[i]*X[i-1]\n",
    "end.rf": _IN + "X[i] = W[i]*X[i-1] X[i-2]\n",
    "not-x.rf": _IN + "Y[i] = W[i]*X[i-1]\n",
    "lhs-offset.rf": _IN + "X[i-1] = W[i]*X[i-2]\n",
    "input-1.rf": _IN + "X[1] = input\n" + _RULE,
    "define-0.rf": _IN + "X[0] = X[0]\n" + _RULE,
    "index.rf": _IN + "X[i] = W[*]*X[i-1]\n",
    "nesting.rf": _IN + "X[i] = " + "(" * 101 + "W[i]*X[i-1]" + ")" * 101 + "\n",
    "input-factor.rf": _IN + "X[i] = input*X[i-1]\n",
    "factor.rf": _IN + "X[i] = W[i]*\n",
    # three products of 15 factors: each under the cap, their sum over it
    "sum15.rf": (
        _IN + "X[i] = " + " + ".join(["*".join(["(1 + W[i])"] * 15) + "*X[i-1]"] * 3)
        + "\n"
    ),
    # _Parser.make_atom: index context, causality and W ranges
    "rel-base.rf": _IN + "X[1] = X[i-1]\n" + _RULE,
    "unknown-var.rf": _IN + "X[i] = W[j]*X[i-1]\n",
    "x-self.rf": _IN + "X[i] = X[i]\n",
    "w-ahead.rf": _IN + "X[i] = W[i+1]*X[i-1]\n",
    "w-0.rf": _IN + "X[i] = W[0]*X[i-1]\n",
    "w-base.rf": _IN + "X[1] = W[2]*X[0]\n" + _RULE,
    "x-base.rf": _IN + "X[1] = X[1]\n" + _RULE,
    # _classify: affinity
    "no-x.rf": _IN + "X[i] = W[i]\n",
    "x-left.rf": _IN + "X[i] = X[i-1]*W[i]\n",
    # parse: statements
    "two-rules.rf": _IN + _RULE + "X[i] = W[i]*X[i-1]\n",
    "rule-zero.rf": _IN + "X[i] = X[i-1] - X[i-1]\n",
    "duplicate.rf": _IN + "X[1] = X[0]\nX[1] = W[1]*X[0]\n" + _RULE,
    "base-zero.rf": _IN + "X[1] = X[0] - X[0]\n" + _RULE,
    "no-rule.rf": _IN,
    "no-input.rf": "X[i] = W[i]*X[i-1]\n",
    # parse: base cases without a gap, then the rule at its first state
    "gap.rf": _IN + "X[2] = X[0]\n" + _RULE,
    "max-lag.rf": _IN + "X[i] = X[i-2]\n",
    "rule-source.rf": _IN + "X[i] = X[i-1] + X[1]\n",
    "w-rel-low.rf": _IN + "X[i] = W[i-1]*X[i-1]\n",
    "w-abs-high.rf": _IN + "X[i] = W[2]*X[i-1]\n",
    "rule-first.rf": "X[i] = W[i]*X[i-1] + W[3]*X[i-2]\nX[1] = W[1]*X[0]\n" + _IN,
    # ... and three that parse, since the atom each would reject cancels
    "cancel-w.rf": _IN + "X[i] = X[i-1] + W[7]*X[i-1] - W[7]*X[i-1]\n",
    "cancel-lag.rf": _IN + "X[i] = X[i-1] + X[i-2] - X[i-2]\n",
    "cancel-source.rf": _IN + "X[i] = X[i-1] + X[3] - X[3]\n",
}
FILES = {
    # derivative coefficients pass the float64 range from L = 2 on
    "overflow.rf": "X[0] = input\nX[i] = 1" + "0" * 200 + "*X[i-1]\n",
    # a degree-2 coefficient term, which has no graph
    "deg2.rf": "X[0] = input; X[1] = W[1]*X[0]; X[i] = -2*W[i]*W[i-1]*X[i-1]\n",
    # signed multi-term coefficients, which fail the widest check
    "wide.rf": (
        "X[0] = input; X[1] = (1 + W[1])*X[0];"
        " X[i] = (1 - 2*W[i])*X[i-1] + W[i-1]*X[i-2]\n"
    ),
    # a superscript two, which str.isdigit accepts and int() does not
    "superscript.rf": "X[0] = input\nX[i] = W[i]*X[i-\u00b2]\n",
    # an integer literal past CPython's 4,300-digit conversion limit
    "long.rf": "X[0] = input\nX[i] = 1" + "0" * 5000 + "*X[i-1]\n",
    # two literals within that limit whose product, which render writes, is not
    "nines.rf": "X[0] = input\nX[i] = " + "*".join(["9" * 4300] * 2) + "*X[i-1]\n",
    # a product that distributes into 2^17 terms, past the parser's cap
    "product17.rf": (
        "X[0] = input\nX[i] = " + "*".join(["(1 + W[i])"] * 17) + "*X[i-1]\n"
    ),
    # sums nested 8 deep and four statements, each part at the cap
    "nested16.rf": (
        "X[0] = input\nX[i] = "
        + " + (".join(["*".join(["(1 + W[i])"] * 16) + "*X[i-1]"] * 9)
        + ")" * 8 + "\n"
    ),
    "statements16.rf": "X[0] = input\nX[i] = X[i-1]\n" + "".join(
        f"X[{k}] = " + "*".join(["(1 + W[1])"] * 16) + f"*X[{k - 1}]\n"
        for k in range(1, 5)
    ),
    **PARSE_ERRORS,
}


def commands() -> list[list[str]]:
    cmds: list[list[str]] = []
    for name in BUILTINS:
        for fmt in FORMATS:
            spec = ["--builtin", name, "--format", fmt]
            cmds.append(["parse", *spec])
            for L in (1, 3, 6):
                cmds.append(["expand", *spec, "-L", str(L)])
            for j in range(0, 7):
                cmds.append(["census", *spec, "-L", "6", "-j", str(j)])
                for check in ("binomial", "single-path", "widest"):
                    cmds.append(
                        ["census", *spec, "-L", "6", "-j", str(j), "--check", check]
                    )
            cmds.append(["chain-identity", *spec, "-L", "8"])
            for L in (1, 3, 8, 12):
                for d in (1, 4, 8, 16)[: 4 if L >= 8 else 3]:
                    cmds.append(
                        ["verify", *spec, "-L", str(L), "-d", str(d), "--seeds", "2"]
                    )
            cmds.append(
                ["verify", *spec, "-L", "6", "--activation", "tanh", "--seeds", "2"]
            )
            for other in BUILTINS:
                cmds.append(
                    ["equiv", name, other, "-L", "6", "--structural", "--format", fmt]
                )
        # L=66: newarch's graph has 199 nodes, the graphs workload's size.
        for L in (5, 66):
            for fmt in ("dot", "json", "text"):
                for extra in ([], ["--propagation"]):
                    graph = ["graph", "--builtin", name, "-L", str(L)]
                    cmds.append([*graph, "--format", fmt, *extra])
    cmds += [
        ["expand", "--builtin", "resnet", "-L", "10", "--format", "json"],
        # the full-size expand and censuses of the paths workload
        ["expand", "--builtin", "resnet", "-L", "14", "--format", "json"],
        [
            "census", "--builtin", "resnet", "-L", "17", "--check", "binomial",
            "--format", "json",
        ],
        *(
            ["census", "--builtin", name, "-L", "20", "--format", "json"]
            for name in ("appendix-ex1", "appendix-ex2")
        ),
        # shapes whose terms the backward and forward expansion routes build
        # in different insertion orders: the output must not show which ran
        ["expand", "--builtin", "appendix-ex2", "-L", "12", "--format", "json"],
        ["equiv", "appendix-ex1", "appendix-ex2", "-L", "10"],
        ["equiv", "appendix-ex1", "appendix-ex2", "-L", "10", "--format", "json"],
        ["chain-identity", "--builtin", "appendix-ex1", "-L", "16"],
        # the verify workload's widest shapes, then a width with 14-term
        # chunks and one verified term by term
        *(
            ["verify", "--builtin", "appendix-ex2", "-L", "14", "-d", d, "--seeds", "2"]
            + fmt
            for d in ("8", "16")
            for fmt in ([], ["--format", "json"])
        ),
        *(
            ["verify", "--builtin", "newarch", "-L", "8", "-d", d, "--format", "json"]
            for d in ("24", "28")
        ),
        # chunks of 512 terms over 987 and 2,584 long terms that share
        # little with the term before them
        *(
            ["verify", "--builtin", name, "-L", L, "-d", "4", "--seeds", "2",
             "--format", "json"]
            for name, L in (("appendix-ex1", "14"), ("appendix-ex2", "16"))
        ),
        ["stats", "table1"],
        ["stats", "table1", "--format", "json"],
        ["stats", "table1", "--alpha", "0.01"],
        ["stats", "table2"],
        ["stats", "table2", "--format", "json"],
        # error paths: exit 2 with a message on stderr
        ["stats", "table1", "--alpha", "1"],
        ["stats", "table1", "--alpha", "nan"],
        ["chain-identity", "--builtin", "newarch", "-L", "30"],
        ["chain-identity", "--builtin", "resnet", "-L", "1"],
        ["verify", "--builtin", "newarch", "--seeds", "0"],
        ["verify", "--builtin", "resnet", "--dim", "0"],
        ["verify", "--builtin", "resnet", "-L", "30", "--dim", "0"],
        ["verify", "--builtin", "resnet", "-L", "-1", "--dim", "0"],
        ["verify", "--builtin", "newarch", "--activation", "tanh"],
        ["verify", "--builtin", "resnet", "--tol", "nan"],
        ["verify", "--builtin", "resnet", "--tol", "-1"],
        ["verify", "--builtin", "resnet", "--tol", "inf"],
        ["verify", "--builtin", "resnet", "--activation", "tanh", "--fd-tol", "nan"],
        ["verify", "--builtin", "chain", "-L", "1", "-d", "1000000"],
        ["graph", "--builtin", "appendix-ex2", "-L", "1000000"],
        ["expand", "--builtin", "resnet", "-L", "0"],
        ["expand", "--builtin", "resnet", "-L", "30"],
        ["census", "--builtin", "resnet", "-L", "4", "-j", "9"],
        ["equiv", "resnet", "no-such-spec"],
        ["parse", "no-such-file.rf"],
        ["parse"],
        ["census", "--builtin", "not-a-builtin"],
        ["verify", "overflow.rf", "-L", "3"],
        # the widest and degree texts, state lookups on a long graph, the
        # norms at the float64 edge and literals that int() rejects
        ["graph", "deg2.rf", "-L", "3"],
        ["census", "wide.rf", "-L", "3", "--check", "widest"],
        ["census", "wide.rf", "-L", "3", "--check", "widest", "--format", "json"],
        ["graph", "--builtin", "appendix-ex2", "-L", "5000", "--propagation"],
        ["verify", "overflow.rf", "-L", "1"],
        ["parse", "superscript.rf"],
        ["parse", "long.rf"],
        # coefficients past the 4,300-digit limit of int-to-text conversion
        ["expand", "overflow.rf", "-L", "22"],
        ["census", "overflow.rf", "-L", "22", "--format", "json"],
        ["parse", "nines.rf"],
        # a graph floor and equivalence coefficients past that limit
        *(
            ["graph", "nines.rf", "-L", "2", "--format", fmt, *extra]
            for fmt in ("dot", "json", "text")
            for extra in ([], ["--propagation"])
        ),
        ["equiv", "nines.rf", "resnet", "-L", "2"],
        ["equiv", "nines.rf", "resnet", "-L", "2", "--format", "json"],
        ["parse", "product17.rf"],
        *(["parse", name] for name in PARSE_ERRORS),
        ["parse", "nested16.rf"],
        ["parse", "statements16.rf"],
        ["stats", "table1", "--alpha", "1e-11"],
        # expanded terms with negative, non-unit and multi-digit coefficients,
        # one of 601 digits, and block indices of 128 and above
        ["expand", "wide.rf", "-L", "8", "--format", "json"],
        ["expand", "overflow.rf", "-L", "3", "--format", "json"],
        ["RECUR_DEPTH_CAP=130", "expand", "--builtin", "newarch", "-L", "129",
         "--format", "json"],
        # block indices in the surrogate range, then one past the last code point
        *(
            ["RECUR_DEPTH_CAP=60000", *argv]
            for argv in (
                ["census", "--builtin", "newarch", "-L", "55300", "-j", "55294",
                 "--check", "widest", "--format", "json"],
                ["verify", "--builtin", "resnet", "-L", "55300", "-j", "55295",
                 "-d", "2", "--format", "json"],
                ["verify", "--builtin", "resnet", "-L", "55300", "-j", "55297",
                 "-d", "2", "--format", "json"],
            )
        ),
        ["RECUR_DEPTH_CAP=1114112", "census", "--builtin", "chain", "-L",
         "1114112", "-j", "1114111"],
    ]
    return cmds


def run(main, argv: list[str]) -> str:
    env = {}
    while "=" in argv[0]:
        name, value = argv.pop(0).split("=", 1)
        env[name] = value
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            with mock.patch.dict(os.environ, env):
                code = main(argv)
        except Exception as exc:
            code = type(exc).__name__
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=str(Path(__file__).resolve().parent.parent),
        help="checkout whose src/recur is run",
    )
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.root) / "src"))
    from recur.cli import main as recur_main

    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as work:
        for name, text in FILES.items():
            Path(work, name).write_text(text, encoding="utf-8")
        for argv in commands():
            paths = [str(Path(work, a)) if a in FILES else a for a in argv]
            digest = run(recur_main, paths)
            total.update(digest.encode("ascii"))
            print(f"{digest}  {' '.join(argv)}")
    print(f"{total.hexdigest()}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
