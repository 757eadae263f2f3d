"""Named formulas used throughout the toolkit and the CLI.

Each entry is DSL source text for one recursion formula:

  chain         plain layer-by-layer network (activations dropped)
  resnet        shortcut recursion, coefficient 1 + W[i]
  newarch       two-lag recursion with a subtracted reuse of block i-1
  eq22          the same values as newarch after substituting X[1], but
                wired so only the input crosses layers
  appendix-ex1  mapping of the previous state plus the state before it
  appendix-ex2  mappings of the two previous states, reusing block i-1

``CHECK_KINDS`` names the claims ``census --check`` tests.  The CLI's
argument parser reads it and ``BUILTIN_NAMES``, so this module reads nothing
of ``parser`` until ``builtin_spec`` runs.
"""

from __future__ import annotations

from functools import cache

from . import parser

BUILTIN_SOURCES: dict[str, str] = {
    "chain": "X[i] = W[i]*X[i-1]\nX[0] = input\n",
    "resnet": "X[i] = (1 + W[i])*X[i-1]\nX[0] = input\n",
    "newarch": (
        "X[i] = (1 + W[i])*X[i-1] - W[i-1]*X[i-2]\n"
        "X[1] = (1 + W[1])*X[0]\n"
        "X[0] = input\n"
    ),
    "eq22": (
        "X[q] = W[q]*X[q-1] + X[0]\n"
        "X[1] = (1 + W[1])*X[0]\n"
        "X[0] = input\n"
    ),
    "appendix-ex1": (
        "X[i] = W[i]*X[i-1] + X[i-2]\n"
        "X[1] = (1 + W[1])*X[0]\n"
        "X[0] = input\n"
    ),
    "appendix-ex2": (
        "X[i] = W[i]*X[i-1] + W[i-1]*X[i-2]\n"
        "X[1] = (1 + W[1])*X[0]\n"
        "X[0] = input\n"
    ),
}

BUILTIN_NAMES = tuple(BUILTIN_SOURCES)

# The kinds expansion.check_structure takes.
CHECK_KINDS = ("binomial", "single-path", "widest")


@cache
def builtin_spec(name: str) -> parser.ArchitectureSpec:
    """Return the named built-in spec; KeyError for unknown names.

    Each name is parsed once; specs are frozen, so callers share it.
    """
    try:
        source = BUILTIN_SOURCES[name]
    except KeyError:
        raise KeyError(
            f"unknown builtin {name!r}; choose from {', '.join(BUILTIN_NAMES)}"
        ) from None
    return parser.parse(source, name=name)
