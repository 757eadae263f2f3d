"""Command-line interface.

Exit codes: 0 when the command and all requested checks succeed, 1 when a
requested property or check fails, 2 for usage, parse and I/O errors.
Text output is for humans; JSON output is the stable surface.

``import recur.cli`` runs ``errors`` alone and registers the other modules,
each to run on its first attribute read, so a fresh process runs only the
modules its command reads: only ``verify`` runs ``numeric``.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from importlib.util import LazyLoader, find_spec, module_from_spec
from pathlib import Path

from . import __version__
from .errors import RecurError, SizeError


def _lazy(name: str):
    """The sibling module ``name``, registered in ``sys.modules`` and as an
    attribute of the package, that runs on its first attribute read."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = find_spec(fullname)
        spec.loader = LazyLoader(spec.loader)
        module = module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# Registered at import, so the benchmark's tracer finds each in sys.modules.
algebra, parser, builtins, expansion, archgraph, numeric, stats = map(
    _lazy, "algebra parser builtins expansion archgraph numeric stats".split()
)

FIXTURE_NAMES = ("table1", "table2")
# Checks one verify run may make, seeds x checks a seed: about 200 MB of JSON.
MAX_VERIFY_CHECKS = 2**20


def _resolve_spec(args) -> parser.ArchitectureSpec:
    if getattr(args, "builtin", None):
        return builtins.builtin_spec(args.builtin)
    path = getattr(args, "spec", None)
    if path is None:
        raise RecurError("provide a spec file or --builtin NAME")
    return _load_spec_arg(path)


def _names_file(token: str) -> bool:
    """Whether ``token`` is a path to something other than a directory."""
    path = Path(token)
    return path.exists() and not path.is_dir()


def _load_spec_arg(token: str) -> parser.ArchitectureSpec:
    """A spec argument is a file path, or a builtin name if no such file."""
    if _names_file(token):
        return parser.parse_file(token)
    if token in builtins.BUILTIN_NAMES:
        return builtins.builtin_spec(token)
    raise RecurError(f"no file {token!r} and no builtin of that name")


def _emit(parts: list[str], args) -> None:
    """Write ``parts`` to the ``--out`` file, or else to stdout.  Commands
    build the whole list first, so an error leaves both untouched."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.writelines(parts)
    else:
        sys.stdout.writelines(parts)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_parse(args) -> int:
    spec = _resolve_spec(args)
    canonical = parser.render(spec)
    if args.format == "json":
        payload = {
            "name": spec.name,
            "index_var": spec.rule.index_var,
            "first_rule_index": spec.first_rule_index,
            "canonical": canonical,
        }
        _emit(algebra.json_parts(payload), args)
    else:
        _emit([canonical], args)
    return 0


def _component_json(j: int, poly: algebra.PathPolynomial) -> dict:
    terms = poly.canonical_items()  # sorted once, for both the text and the list
    return {
        "state": j,
        "polynomial": algebra.PathSum(terms),
        "terms": algebra.PathTerms(terms),
    }


def cmd_expand(args) -> int:
    spec = _resolve_spec(args)
    expanded = expansion.unroll(spec, args.depth)
    if args.format == "json":
        payload = {
            "spec": spec.name,
            "depth": args.depth,
            "components": [
                _component_json(j, poly) for j, poly in expanded.components.items()
            ],
        }
        _emit(algebra.json_parts(payload), args)
    else:
        poly = expanded.components.get(0)
        if poly:
            text = ["(", *algebra.render_parts(poly.canonical_items()), ")*X[0]\n"]
        else:
            text = ["0\n"]
        _emit([f"X[{args.depth}] = ", *text], args)
    return 0


def cmd_census(args) -> int:
    spec = _resolve_spec(args)
    poly = None
    if args.check == "widest":  # the one check that reads the words
        poly = expansion.derivative(spec, args.depth, args.wrt)
        histogram = algebra.census(poly)
    else:
        histogram = expansion.derivative_census(spec, args.depth, args.wrt)
    report = None
    if args.check:
        report = expansion.check_structure(
            poly, args.check, args.depth, args.wrt, spec.name, histogram
        )

    if args.format == "json":
        payload = {
            "spec": spec.name,
            "depth": args.depth,
            "wrt": args.wrt,
            "census": {
                str(k): {"count": b.count, "weight": b.weight}
                for k, b in histogram.items()
            },
            "check": report.to_dict() if report else None,
        }
        _emit(algebra.json_parts(payload), args)
    else:
        lines = [f"spec: {spec.name}  depth: {args.depth}  wrt: {args.wrt}"]
        body = ", ".join(f"{k}: {b.count}" for k, b in histogram.items())
        lines.append(f"census {{{body}}}")
        if report:
            lines.append(f"check {args.check}: {'PASS' if report.passed else 'FAIL'}")
            for v in report.violations:
                lines.append(
                    f"  length {v.length}: expected {v.expected}, got {v.actual}"
                )
        _emit(["\n".join(lines), "\n"], args)
    if report and not report.passed:
        return 1
    return 0


def cmd_equiv(args) -> int:
    spec_a = _load_spec_arg(args.spec_a)
    spec_b = _load_spec_arg(args.spec_b)
    report = expansion.value_equivalence_report(spec_a, spec_b, args.depth)
    reports = [report.to_dict()]
    failed = not report.passed
    lines = [
        f"value equivalence at depth {args.depth}:"
        f" {'equivalent' if report.passed else 'NOT equivalent'}"
    ]
    for v in report.violations[:10]:
        lines.append(f"  length {v.length}: {v.expected} vs {v.actual}")

    if args.structural:
        iso = archgraph.structural_equal(
            archgraph.build_graph(spec_a, args.depth),
            archgraph.build_graph(spec_b, args.depth),
        )
        structural = expansion.StructureReport(
            report.spec, args.depth, None, "structural-equality", iso
        )
        reports.append(structural.to_dict())
        lines.append(f"structural equality: {'isomorphic' if iso else 'NOT isomorphic'}")
        failed = failed or not iso

    if args.format == "json":
        _emit(algebra.json_parts(reports), args)
    else:
        _emit(["\n".join(lines), "\n"], args)
    return 1 if failed else 0


def cmd_graph(args) -> int:
    spec = _resolve_spec(args)
    graph = archgraph.build_graph(spec, args.depth)
    if args.propagation:
        report = archgraph.direct_propagation_check(graph)
        if args.format == "json":
            _emit(algebra.json_parts(report.to_dict()), args)
        else:
            lines = [f"graph: {graph.name}  depth: {graph.depth}"]
            for entry in report.entries:
                cross = (
                    f"; cross-layer identity from {list(entry.cross_layer_sources)}"
                    if entry.cross_layer_sources
                    else ""
                )
                lines.append(
                    f"  X[{entry.prev}] -> X[{entry.cur}]:"
                    f" direct identity {'yes' if entry.has_direct_identity else 'no'}"
                    + cross
                )
            lines.append(f"all pairs direct: {'yes' if report.all_direct else 'no'}")
            _emit(["\n".join(lines), "\n"], args)
        return 0
    fmt = "json" if args.format == "json" else "dot"
    _emit([archgraph.export(graph, fmt)], args)
    return 0


def cmd_verify(args) -> int:
    spec = _resolve_spec(args)
    L, d = args.depth, args.dim
    if args.seeds < 1:
        raise RecurError(f"--seeds must be >= 1, got {args.seeds}")
    for flag, tol in (("--tol", args.tol), ("--fd-tol", args.fd_tol)):
        if not (math.isfinite(tol) and tol >= 0):
            raise RecurError(f"{flag} must be finite and >= 0, got {tol}")
    tanh = args.activation == "tanh"
    if args.wrt is not None:
        wrts = range(args.wrt, args.wrt + 1)
    else:  # tanh checks every j < L, the linear check every j <= L
        wrts = range(0, L if tanh else L + 1)
    if args.seeds * len(wrts) > MAX_VERIFY_CHECKS:
        raise SizeError(
            f"{args.seeds} seeds x {len(wrts)} checks a seed are more than"
            f" the check budget of {MAX_VERIFY_CHECKS}"
        )
    seeds = range(args.seed, args.seed + args.seeds)
    results = []
    if tanh:
        for seed in seeds:
            net = numeric.instantiate(spec, L, d, seed, activation="tanh")
            results += numeric.finite_diff_checks(
                net, wrts, epsilon=args.eps, tol=args.fd_tol
            )
    else:
        # Each group of seeds is one stacked net that, with one running total
        # per j, stays within the matrix cap.  The first is drawn before the
        # expansion, so a bad dimension or size is named before it runs.
        group = max(1, numeric.MAX_MATRIX_ENTRIES // max(1, (L + len(wrts)) * d * d))
        net = numeric.instantiate(spec, L, d, seeds[:group])
        # one backward pass from L gives every j down to the lowest
        polys = {
            j: p for j, p in expansion.derivatives(spec, L, wrts.start) if j in wrts
        }
        for start in range(0, len(seeds), group):
            if start:
                net = numeric.instantiate(spec, L, d, seeds[start : start + group])
            checks = numeric.check_derivatives(
                net, {j: polys[j] for j in wrts}, tol=args.tol
            )
            for per_seed in zip(*checks):
                results += per_seed

    all_pass = all(r.passed for r in results)
    if args.format == "json":
        payload = {"checks": [r.to_dict() for r in results], "pass": all_pass}
        _emit(algebra.json_parts(payload), args)
    else:
        lines = []
        for r in results:
            lines.append(
                f"{r.spec} L={r.L} j={r.j} d={r.d} seed={r.seed}"
                f" activation={r.activation or 'none'}"
                f" error={r.error:.3e} tol={r.tol:.0e}"
                f" {'ok' if r.passed else 'FAIL'}"
            )
        lines.append(
            f"{len(results)} checks, {sum(r.passed for r in results)} passed"
        )
        _emit(["\n".join(lines), "\n"], args)
    return 0 if all_pass else 1


def cmd_chain_identity(args) -> int:
    spec = _resolve_spec(args)
    if args.depth < 2:
        raise RecurError(f"--depth must be >= 2, got {args.depth}")
    # A block index past the last code point, then each m's two steps.
    spec.instantiate_terms(args.depth)
    sweep = range(2, args.depth + 1)
    with expansion.one_budget(2 * len(sweep)):
        outcomes = {m: expansion.verify_chain_identity(spec, m) for m in sweep}
    all_pass = all(outcomes.values())
    if args.format == "json":
        payload = {
            "spec": spec.name,
            "results": [{"m": m, "holds": ok} for m, ok in outcomes.items()],
            "pass": all_pass,
        }
        _emit(algebra.json_parts(payload), args)
    else:
        lines = [
            f"m={m}: {'holds' if ok else 'FAILS'}" for m, ok in outcomes.items()
        ]
        lines.append(f"chain-rule identity: {'PASS' if all_pass else 'FAIL'}")
        _emit(["\n".join(lines), "\n"], args)
    return 0 if all_pass else 1


def cmd_stats(args) -> int:
    token = args.table
    if _names_file(token):
        table = stats.load_table(token)
    elif token in FIXTURE_NAMES:
        table = stats.fixture_table(token)
    else:
        raise RecurError(f"no file {token!r} and no fixture of that name")

    ranks = stats.rank(table)
    fried = stats.friedman(ranks)
    nem = stats.nemenyi(ranks, args.alpha)
    graph_data = stats.friedman_graph_data(ranks, nem)

    if args.graph_json:
        Path(args.graph_json).write_text(
            algebra.json_text(graph_data.to_dict()), encoding="utf-8"
        )

    if args.format == "json":
        payload = {
            "ranks": ranks.to_dict(),
            "friedman": fried.to_dict(),
            "nemenyi": nem.to_dict(),
            "graph": graph_data.to_dict(),
        }
        _emit(algebra.json_parts(payload), args)
    else:
        lines = [f"methods: {ranks.k}  datasets: {ranks.n}"]
        for method, mean, lo, hi in graph_data.entries:
            lines.append(f"  {method}: mean rank {mean:.4g}  [{lo:.4g}, {hi:.4g}]")
        lines.append(
            f"tau_chi2 = {fried.tau_chi2:.6g}  tau_F = {fried.tau_f:.6g}"
            f"  df = ({fried.df1}, {fried.df2})"
        )
        if fried.p_value is not None:
            lines.append(f"p = {fried.p_value:.6g}")
        lines.append(f"CD = {nem.cd:.6g} (alpha = {args.alpha}, q = {nem.q_alpha:.6g})")
        significant = [
            f"{nem.methods[a]} vs {nem.methods[b]}"
            for a in range(ranks.k)
            for b in range(a + 1, ranks.k)
            if not nem.overlap[a][b]
        ]
        if significant:
            lines.append("significantly different: " + "; ".join(significant))
        else:
            lines.append("no significantly different pairs")
        _emit(["\n".join(lines), "\n"], args)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_spec_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("spec", nargs="?", help="path to a .rf formula file")
    sub.add_argument(
        "--builtin",
        choices=builtins.BUILTIN_NAMES,
        metavar="NAME",
        help="use a named built-in formula instead of a file: "
        + ", ".join(builtins.BUILTIN_NAMES),
    )


def _add_common(sub: argparse.ArgumentParser, fmt_choices=("text", "json")) -> None:
    sub.add_argument("--format", choices=fmt_choices, default=fmt_choices[0])
    sub.add_argument("--out", help="write output to this file instead of stdout")


def build_arg_parser() -> argparse.ArgumentParser:
    """A new parser for recur's command line.

    ``main`` builds one on its first call and reuses it for every later call
    in the process (``_arg_parser``): parsing leaves no state on it, and
    argparse makes a new formatter, sized by ``COLUMNS`` at that moment,
    whenever it prints help, usage or an error.  Each subcommand's default
    ``func`` is its ``cmd_*`` function as defined at import; those read each
    function off its home module when they run, so patching the home
    module's attribute (``recur.expansion.verify_chain_identity``, say)
    takes effect, while patching a ``cmd_*`` function itself does not.
    Building it runs ``builtins`` alone, for ``BUILTIN_NAMES`` and
    ``CHECK_KINDS``.
    """
    top = argparse.ArgumentParser(
        prog="recur",
        description="recursion-formula architecture toolkit",
    )
    top.add_argument("--version", action="version", version=f"recur {__version__}")
    subs = top.add_subparsers(dest="command", metavar="COMMAND", required=True)

    p = subs.add_parser("parse", help="parse a formula and print its canonical form")
    _add_spec_arguments(p)
    _add_common(p)
    p.set_defaults(func=cmd_parse)

    p = subs.add_parser("expand", help="unroll X[L] over the free input states")
    _add_spec_arguments(p)
    p.add_argument("--depth", "-L", type=int, default=6)
    _add_common(p)
    p.set_defaults(func=cmd_expand)

    p = subs.add_parser("census", help="path histogram of a derivative polynomial")
    _add_spec_arguments(p)
    p.add_argument("--depth", "-L", type=int, default=6)
    p.add_argument("--wrt", "-j", type=int, default=0, help="source state index")
    p.add_argument(
        "--check",
        choices=builtins.CHECK_KINDS,
        help="also check a structural claim (exit 1 on violation)",
    )
    _add_common(p)
    p.set_defaults(func=cmd_census)

    p = subs.add_parser("equiv", help="compare two formulas by value and structure")
    p.add_argument("spec_a", help="file path or builtin name")
    p.add_argument("spec_b", help="file path or builtin name")
    p.add_argument("--depth", "-L", type=int, default=6)
    p.add_argument(
        "--structural",
        action="store_true",
        help="also require graph isomorphism for exit 0",
    )
    _add_common(p)
    p.set_defaults(func=cmd_equiv)

    p = subs.add_parser("graph", help="compile a formula into an architecture graph")
    _add_spec_arguments(p)
    p.add_argument("--depth", "-L", type=int, default=6)
    p.add_argument(
        "--propagation",
        action="store_true",
        help="report identity-edge connectivity instead of exporting",
    )
    _add_common(p, fmt_choices=("dot", "json", "text"))
    p.set_defaults(func=cmd_graph)

    p = subs.add_parser("verify", help="check symbolic derivatives against Jacobians")
    _add_spec_arguments(p)
    p.add_argument("--depth", "-L", type=int, default=6)
    p.add_argument("--wrt", "-j", type=int, default=None, help="default: every state")
    p.add_argument("--dim", "-d", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=1, help="number of seeds to sweep")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument(
        "--activation",
        choices=("none", "tanh"),
        default="none",
        help="tanh switches to the finite-difference check",
    )
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--fd-tol", type=float, default=1e-4)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser(
        "chain-identity", help="verify the two-step chain-rule identity"
    )
    _add_spec_arguments(p)
    p.add_argument("--depth", "-L", type=int, default=6, help="check m = 2..depth")
    _add_common(p)
    p.set_defaults(func=cmd_chain_identity)

    p = subs.add_parser("stats", help="Friedman and Nemenyi analysis of a CSV table")
    p.add_argument("table", help="CSV path, or fixture name (table1, table2)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--graph-json", help="write Friedman-graph data to this file")
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    return top


_arg_parser = functools.cache(build_arg_parser)


def main(argv=None) -> int:
    try:
        args = _arg_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.func(args)
    except (RecurError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
