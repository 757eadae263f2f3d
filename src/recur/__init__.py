"""Recursion-formula toolkit.

Layered architectures as recursion formulas: parse them, expand output
derivatives into propagation-path polynomials, compile them into
architecture graphs, verify the symbolic algebra against exact Jacobians
of small matrix networks, and run rank-based significance analysis on
accuracy tables.

Each public name lives in one submodule, which ``import recur`` leaves
unloaded until the name is first read (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_HOMES = {
    "CensusBin": "algebra",
    "PathPolynomial": "algebra",
    "census": "algebra",
    "poly_add": "algebra",
    "poly_mul": "algebra",
    "render_poly": "algebra",
    "ArchGraph": "archgraph",
    "StructuralReport": "archgraph",
    "build_graph": "archgraph",
    "count_paths": "archgraph",
    "direct_propagation_check": "archgraph",
    "export": "archgraph",
    "structural_equal": "archgraph",
    "BUILTIN_NAMES": "builtins",
    "builtin_spec": "builtins",
    "ActivationError": "errors",
    "DegenerateError": "errors",
    "FormulaSyntaxError": "errors",
    "NonAffineError": "errors",
    "NonCausalError": "errors",
    "RangeError": "errors",
    "RecurError": "errors",
    "SizeError": "errors",
    "UnrealizableError": "errors",
    "StateExpansion": "expansion",
    "StructureReport": "expansion",
    "check_structure": "expansion",
    "derivative": "expansion",
    "derivatives": "expansion",
    "unroll": "expansion",
    "value_equivalence_report": "expansion",
    "verify_chain_identity": "expansion",
    "ConcreteNet": "numeric",
    "JacobianCheckResult": "numeric",
    "eval_polynomial": "numeric",
    "finite_diff_check": "numeric",
    "forward": "numeric",
    "instantiate": "numeric",
    "jacobian_exact": "numeric",
    "ArchitectureSpec": "parser",
    "BaseCase": "parser",
    "CoefficientExpr": "parser",
    "RecursionRule": "parser",
    "RuleTerm": "parser",
    "parse": "parser",
    "parse_file": "parser",
    "render": "parser",
    "AccuracyTable": "stats",
    "FriedmanGraphData": "stats",
    "FriedmanResult": "stats",
    "NemenyiResult": "stats",
    "RankMatrix": "stats",
    "betainc": "stats",
    "f_distribution_sf": "stats",
    "fixture_table": "stats",
    "friedman": "stats",
    "friedman_graph_data": "stats",
    "load_table": "stats",
    "nemenyi": "stats",
    "rank": "stats",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{home}", __name__), name)
