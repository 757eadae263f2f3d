"""Per-layer tracing of ``recur`` from outside the program.

The modules import names directly (``from .algebra import poly_mul``), so
wrapping a function means replacing it under every name that refers to it
in every ``recur`` module.  Each wrapper records calls and self time (its
span minus the spans of traced functions it called), read from the
speed-corrected clock, plus a size counter for some layers.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict

# (metric, unit) in the order the traced run prints them.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("parser.instantiate_terms_ms", "ms"),
    ("parser.instantiate_terms_calls", "count"),
    ("parser.parse_ms", "ms"),
    ("parser.parse_calls", "count"),
    ("parser.render_ms", "ms"),
    ("algebra.poly_mul_ms", "ms"),
    ("algebra.poly_mul_calls", "count"),
    ("algebra.poly_add_ms", "ms"),
    ("algebra.poly_add_calls", "count"),
    ("algebra.terms_out", "count"),
    ("algebra.census_ms", "ms"),
    ("expansion.derivative_ms", "ms"),
    ("expansion.derivative_calls", "count"),
    ("expansion.derivative_terms", "count"),
    ("expansion.unroll_ms", "ms"),
    ("expansion.unroll_terms", "count"),
    ("expansion.check_structure_ms", "ms"),
    ("expansion.value_equivalence_report_ms", "ms"),
    ("expansion.verify_chain_identity_ms", "ms"),
    ("archgraph.build_graph_ms", "ms"),
    ("archgraph.build_graph_calls", "count"),
    ("archgraph.graph_nodes", "count"),
    ("archgraph.graph_edges", "count"),
    ("archgraph.structural_equal_ms", "ms"),
    ("archgraph.structural_equal_calls", "count"),
    ("archgraph.direct_propagation_check_ms", "ms"),
    ("archgraph.count_paths_ms", "ms"),
    ("archgraph.export_ms", "ms"),
    ("archgraph.export_bytes", "bytes"),
    ("numeric.eval_polynomial_ms", "ms"),
    ("numeric.eval_polynomial_calls", "count"),
    ("numeric.eval_polynomial_terms", "count"),
    ("numeric.jacobian_exact_ms", "ms"),
    ("numeric.instantiate_ms", "ms"),
    ("numeric.forward_ms", "ms"),
    ("numeric.finite_diff_check_ms", "ms"),
    ("stats.rank_ms", "ms"),
    ("stats.friedman_ms", "ms"),
    ("stats.nemenyi_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main_ms", "ms"),
    ("cli.main_calls", "count"),
    ("cli.stdout_bytes", "bytes"),
)


def _poly_terms(totals, args, result):
    totals["algebra.terms_out"] += len(result)


def _derivative_terms(totals, args, result):
    totals["expansion.derivative_terms"] += len(result)


def _unroll_terms(totals, args, result):
    totals["expansion.unroll_terms"] += sum(len(p) for p in result.components.values())


def _graph_size(totals, args, result):
    totals["archgraph.graph_nodes"] += len(result.nodes)
    totals["archgraph.graph_edges"] += len(result.edges)


def _export_bytes(totals, args, result):
    totals["archgraph.export_bytes"] += len(result.encode())


def _eval_terms(totals, args, result):
    totals["numeric.eval_polynomial_terms"] += len(args[0])


# (module, attribute, class or None, metric prefix, size counter)
TARGETS = (
    ("recur.parser", "instantiate_terms", "ArchitectureSpec", "parser.instantiate_terms", None),
    ("recur.parser", "parse", None, "parser.parse", None),
    ("recur.parser", "render", None, "parser.render", None),
    ("recur.algebra", "poly_mul", None, "algebra.poly_mul", _poly_terms),
    ("recur.algebra", "poly_add", None, "algebra.poly_add", _poly_terms),
    ("recur.algebra", "census", None, "algebra.census", None),
    ("recur.expansion", "derivative", None, "expansion.derivative", _derivative_terms),
    ("recur.expansion", "unroll", None, "expansion.unroll", _unroll_terms),
    ("recur.expansion", "check_structure", None, "expansion.check_structure", None),
    (
        "recur.expansion",
        "value_equivalence_report",
        None,
        "expansion.value_equivalence_report",
        None,
    ),
    ("recur.expansion", "verify_chain_identity", None, "expansion.verify_chain_identity", None),
    ("recur.archgraph", "build_graph", None, "archgraph.build_graph", _graph_size),
    ("recur.archgraph", "structural_equal", None, "archgraph.structural_equal", None),
    (
        "recur.archgraph",
        "direct_propagation_check",
        None,
        "archgraph.direct_propagation_check",
        None,
    ),
    ("recur.archgraph", "count_paths", None, "archgraph.count_paths", None),
    ("recur.archgraph", "export", None, "archgraph.export", _export_bytes),
    ("recur.numeric", "eval_polynomial", None, "numeric.eval_polynomial", _eval_terms),
    ("recur.numeric", "jacobian_exact", None, "numeric.jacobian_exact", None),
    ("recur.numeric", "instantiate", None, "numeric.instantiate", None),
    ("recur.numeric", "forward", None, "numeric.forward", None),
    ("recur.numeric", "finite_diff_check", None, "numeric.finite_diff_check", None),
    ("recur.stats", "rank", None, "stats.rank", None),
    ("recur.stats", "friedman", None, "stats.friedman", None),
    ("recur.stats", "nemenyi", None, "stats.nemenyi", None),
    ("recur.cli", "main", None, "cli.main", None),
)


class Tracer:
    """Records spans only while ``active`` is true."""

    def __init__(self, clock):
        self.clock = clock
        self.totals: dict[str, float] = defaultdict(float)
        self.active = False
        self._children: list[float] = []

    def _wrap(self, fn, prefix: str, counter):
        now = self.clock.now
        totals = self.totals
        children = self._children

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = now()
            children.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = now() - start
                inner = children.pop()
                totals[prefix + "_ms"] += (elapsed - inner) * 1e3
                totals[prefix + "_calls"] += 1
                if children:
                    children[-1] += elapsed
            if counter is not None:
                counter(totals, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target under every name that refers to it."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "recur" or name.startswith("recur."))
        ]
        for module_name, attr, cls_name, prefix, counter in TARGETS:
            owner = sys.modules[module_name]
            if cls_name is not None:
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self._wrap(getattr(cls, attr), prefix, counter))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, prefix, counter)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)

    def merge(self, other: dict[str, float]) -> None:
        for name, value in other.items():
            self.totals[name] += value

    def per_round(self, rounds: int) -> dict[str, dict]:
        return {
            name: {"value": round(self.totals.get(name, 0.0) / rounds, 6), "unit": unit}
            for name, unit in PER_LAYER
        }
