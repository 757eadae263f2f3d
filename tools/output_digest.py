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
the one holding this script).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

BUILTINS = ("chain", "resnet", "newarch", "eq22", "appendix-ex1", "appendix-ex2")
FORMATS = ("text", "json")


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
        # L=66 reaches the 200-node isomorphism cap.
        for L in (5, 66):
            for fmt in ("dot", "json", "text"):
                for extra in ([], ["--propagation"]):
                    graph = ["graph", "--builtin", name, "-L", str(L)]
                    cmds.append([*graph, "--format", fmt, *extra])
    cmds += [
        ["expand", "--builtin", "resnet", "-L", "10", "--format", "json"],
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
        ["stats", "table1"],
        ["stats", "table1", "--format", "json"],
        # error paths: exit 2 with a message on stderr
        ["stats", "table2"],
        ["chain-identity", "--builtin", "newarch", "-L", "30"],
        ["chain-identity", "--builtin", "resnet", "-L", "1"],
        ["verify", "--builtin", "newarch", "--seeds", "0"],
        ["verify", "--builtin", "resnet", "--dim", "0"],
        ["verify", "--builtin", "resnet", "-L", "30", "--dim", "0"],
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
    ]
    return cmds


def run(main, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
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
    for argv in commands():
        digest = run(recur_main, argv)
        total.update(digest.encode("ascii"))
        print(f"{digest}  {' '.join(argv)}")
    print(f"{total.hexdigest()}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
