"""Exception types shared across the toolkit.

Parse-time errors carry a character position into the source text so the
CLI can point at the offending token.
"""

from __future__ import annotations


class RecurError(Exception):
    """Base class for all toolkit errors.

    ``position`` is a 0-based character offset into the input text when the
    error originates from parsing, else None.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.message = message
        self.position = position

    def __str__(self) -> str:
        if self.position is not None:
            return f"{self.message} (at position {self.position})"
        return self.message


class FormulaSyntaxError(RecurError):
    """Input does not conform to the formula grammar."""


class NonAffineError(RecurError):
    """A distributed term has zero or more than one X factor.

    This is how gated recursions (products of state-dependent factors) are
    rejected: their terms are not of the form coefficient * X.
    """


class NonCausalError(RecurError):
    """A state refers to itself or to a later state."""


class RangeError(RecurError):
    """An index is outside its admissible range.

    Raised for W indices outside [1, lhs] and X indices below 0 in formulas,
    and for a Nemenyi alpha outside [1e-10, 1) in the ranking statistics.
    """


class UnrealizableError(RecurError):
    """A coefficient polynomial has no single-block wiring realization."""


class SizeError(RecurError):
    """Input too large: a parse or an expansion past its Budget, a block
    index past the last code point, a graph past the node-plus-edge budget
    of build_graph, a matrix net to instantiate, a path coefficient to
    evaluate as a float64, or an integer with too many digits to write."""


class Budget:
    """Cells charged so far against the limit of one ``kind``: 2^21 for a
    parse (parser.PARSE_BUDGET), 2^25 for an expansion or a sweep of them
    (expansion.EXPANSION_BUDGET).  A cell is a character of the text, or an
    atom or 64-bit coefficient word of a term about to be built."""

    __slots__ = ("kind", "limit", "spent")

    def __init__(self, kind: str, limit: int):
        self.kind, self.limit, self.spent = kind, limit, 0

    def charge(self, what: str, cells: int, position: int | None = None) -> None:
        """Add ``cells``: SizeError, naming ``what``, once past the limit."""
        self.spent += cells
        if self.spent > self.limit:
            raise SizeError(
                f"{what} charges {self.spent} cells, past the {self.kind} budget"
                f" of {self.limit}",
                position,
            )


class DegenerateError(RecurError):
    """Statistic undefined for the given input (division by zero)."""
