r"""Exact noncommutative polynomial algebra over block symbols.

A path polynomial is a finite integer combination of ordered products of
block symbols W[i].  Each product is stored as a word: a str with one code
point per block index, chr(i), leftmost first, where the leftmost factor is
the block applied last (the one closest to the network output):

  1 + W[3] + W[3]*W[2]   ->   {"": 1, "\x03": 1, "\x03\x02": 1}

The empty word is the identity term "1".  The zero polynomial stores no
terms.  Coefficients are plain Python ints, so equality checks are exact;
multiplication concatenates words and never reorders them.  Code points
compare as the indices do, and a str caches its hash, so words sort and
hash like index tuples at a fraction of the cost.  Indices in the surrogate
range are code points like any other: encode a word with "surrogatepass".
The constructors and ``coefficient``/``coefficients`` speak int sequences;
``keys``, ``items`` and ``canonical_items`` hand out words.

Canonical term order (used for rendering and iteration) is ascending word
length, then lexicographically descending indices, which puts "1" first
and deeper blocks before shallower ones within a length.

``json_text`` is the one writer of recur's indented JSON output.  Its one
value type of its own, ``PathTerms``, holds (word, coeff) pairs and is
written as the list of ``{"coeff", "factors"}`` dicts they stand for,
without building those dicts.
"""

from __future__ import annotations

import sys
from collections import Counter
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, ItemsView, KeysView, Mapping, NamedTuple, Sequence

from .errors import SizeError

# One code point per block index, leftmost factor first.
Word = str


def _word(factors: Sequence[int]) -> Word:
    """The word of a factor sequence; SizeError for an index past a code point."""
    try:
        return "".join(map(chr, factors))
    except (ValueError, OverflowError):
        raise SizeError(
            f"block index {max(factors)} is past {sys.maxunicode}, the largest"
            " a path word can hold"
        ) from None


class _IntTexts(dict):
    """Map from int i to prefix + str(i) + suffix, filled on first use.

    Keyed by code point, it is a str.translate table.
    """

    __slots__ = ("_prefix", "_suffix")

    def __init__(self, prefix: str, suffix: str = "") -> None:
        self._prefix, self._suffix = prefix, suffix

    def __missing__(self, i: int) -> str:
        text = self[i] = f"{self._prefix}{i}{self._suffix}"
        return text


_BLOCK_TEXTS = _IntTexts("W[", "]*")


def block_product(word: Word) -> str:
    """The product text "W[3]*W[2]"; empty for the identity term."""
    return word.translate(_BLOCK_TEXTS)[:-1]


def signed_sum(terms: Iterable[tuple[int, str]]) -> str:
    """Text of a sum of (coeff, body) terms, e.g. "2 - W[3] + 3*W[2]*W[1]".

    An empty body stands for the constant 1; the empty sum is "0".
    """
    parts: list[str] = []
    try:
        for coeff, body in terms:
            mag = abs(coeff)
            text = str(mag) if not body else (body if mag == 1 else f"{mag}*{body}")
            if parts:
                parts.append(("- " if coeff < 0 else "+ ") + text)
            else:
                parts.append(f"-{text}" if coeff < 0 else text)
    except ValueError:  # str() of an int past the interpreter's digit limit
        raise _too_long(coeff) from None
    return " ".join(parts) or "0"


def _too_long(value: int) -> SizeError:
    return SizeError(
        f"an integer of {value.bit_length()} bits has more than"
        f" {sys.get_int_max_str_digits()} decimal digits, too many to write"
    )


class PathTerms(tuple):
    """(word, coeff) pairs, which ``json_text`` writes as the list
    ``[{"coeff": coeff, "factors": list(map(ord, word))}, ...]``."""

    __slots__ = ()


def json_text(payload) -> str:
    """``json.dumps(payload, indent=2) + "\n"``, built with C-speed joins.

    Covers what recur emits: dicts with str keys, lists, tuples, str, int,
    float (NaN and infinities as json writes them), bool, None and
    PathTerms, written as the dicts and lists they stand for.  Any other
    value, or a non-str key, raises TypeError.  json itself falls back to
    its pure-Python encoder whenever ``indent`` is set.  An int past the
    interpreter's digit limit raises SizeError.
    """
    try:
        return _json_value(payload, "\n", "\n")
    except ValueError:  # str() of an int past the interpreter's digit limit
        raise _too_long(_largest_int(payload)) from None


def _largest_int(value) -> int:
    """The largest |int| anywhere in a JSON payload (0 if none)."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return max(map(_largest_int, value), default=0)
    return abs(value) if isinstance(value, int) else 0


_INFINITY = float("inf")
_int_text = int.__repr__


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _terms_json(terms: PathTerms, newline: str, tail: str) -> str:
    """The text of a PathTerms list, then ``tail``.

    Each factors list is one translate of its word, through a table that
    writes ",<newline and indent>i" for code point i; the text up to the
    factors is made once per distinct coefficient, and the list is one
    join.
    """
    if not terms:
        return "[]" + tail
    inner = newline + "  "
    key = inner + "  "
    table = _IntTexts("," + key + "  ")
    heads = _IntTexts("{" + key + '"coeff": ', "," + key + '"factors": [')
    close = key + "]" + inner + "}"
    empty = "]" + inner + "}"
    parts = [  # [1:] drops the comma before the first factor
        heads[c] + (w.translate(table)[1:] + close if w else empty)
        for w, c in terms
    ]
    parts[0] = "[" + inner + parts[0]
    parts[-1] += newline + "]" + tail
    return ("," + inner).join(parts)


def _json_value(value, newline: str, tail: str = "") -> str:
    """The text of ``value``, then ``tail``.

    A container is one join of its members' texts, its brackets and
    ``tail`` folded into the first and last member, so each nesting level
    copies the text below it once.  Members that are exact str or int, the
    bulk of a payload, are written inline.  _json_str raises TypeError for a
    key that is no str.
    """
    if isinstance(value, dict):
        if not value:
            return "{}" + tail
        inner = newline + "  "
        parts = [
            _json_str(k) + ": " + (
                _json_str(v) if type(v) is str
                else _int_text(v) if type(v) is int
                else _json_value(v, inner)
            )
            for k, v in value.items()
        ]
        parts[0] = "{" + inner + parts[0]
        parts[-1] += newline + "}" + tail
        return ("," + inner).join(parts)
    if type(value) is PathTerms:
        return _terms_json(value, newline, tail)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]" + tail
        inner = newline + "  "
        parts = [
            _json_str(v) if type(v) is str
            else _int_text(v) if type(v) is int
            else _json_value(v, inner)
            for v in value
        ]
        parts[0] = "[" + inner + parts[0]
        parts[-1] += newline + "]" + tail
        return ("," + inner).join(parts)
    if isinstance(value, str):
        text = _json_str(value)
    elif value is None:
        text = "null"
    elif value is True:
        text = "true"
    elif value is False:
        text = "false"
    elif isinstance(value, int):
        text = _int_text(value)
    elif isinstance(value, float):
        text = _json_float(value)
    else:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable"
        )
    return text + tail


class PathPolynomial:
    """Immutable integer-weighted sum of ordered block-symbol products."""

    # _schedule: numeric.eval_polynomial's evaluation schedule for these
    # terms, unset until the first evaluation.
    __slots__ = ("_terms", "_schedule")

    def __init__(self, terms: Mapping[Iterable[int], int] | None = None):
        normalized: dict[Word, int] = {}
        if terms:
            for factors, coeff in terms.items():
                key = tuple(factors)
                if min(key, default=1) < 1:
                    raise ValueError(f"block index must be >= 1 in {key}")
                word = _word(key)
                if coeff:
                    normalized[word] = coeff
        object.__setattr__(self, "_terms", normalized)

    # -- constructors -------------------------------------------------

    @classmethod
    def _trusted(cls, terms: dict[Word, int]) -> "PathPolynomial":
        """Adopt a dict already known to hold valid keys and nonzero coefficients.

        For results built from valid operands: no per-key checks and no copy,
        so the caller hands ``terms`` over and must not change it afterwards.
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "_terms", terms)
        return poly

    @classmethod
    def zero(cls) -> "PathPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "PathPolynomial":
        return cls({(): 1})

    @classmethod
    def block(cls, index: int) -> "PathPolynomial":
        """The polynomial consisting of the single symbol W[index]."""
        return cls({(index,): 1})

    # -- inspection ---------------------------------------------------

    @property
    def coefficients(self) -> dict[tuple[int, ...], int]:
        """The factor-sequence -> coefficient map, as index tuples."""
        return {tuple(map(ord, w)): c for w, c in self._terms.items()}

    def keys(self) -> KeysView[Word]:
        """Read-only view of the words, in insertion order."""
        return self._terms.keys()

    def items(self) -> ItemsView[Word, int]:
        """Read-only view of the (word, coeff) pairs, in insertion order."""
        return self._terms.items()

    def coefficient(self, factors: Iterable[int]) -> int:
        try:
            return self._terms.get("".join(map(chr, factors)), 0)
        except (ValueError, OverflowError):  # no code point, so no such term
            return 0

    def canonical_items(self) -> list[tuple[Word, int]]:
        """The (word, coeff) pairs in canonical order.

        Keys are distinct, so sorting them descending and then, stably, by
        length gives the canonical order from two C-level sorts.
        """
        terms = self._terms
        return [(f, terms[f]) for f in sorted(sorted(terms, reverse=True), key=len)]

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "PathPolynomial") -> "PathPolynomial":
        return poly_add(self, other)

    def __sub__(self, other: "PathPolynomial") -> "PathPolynomial":
        return poly_add(self, poly_neg(other))

    def __neg__(self) -> "PathPolynomial":
        return poly_neg(self)

    def __mul__(self, other: "PathPolynomial") -> "PathPolynomial":
        return poly_mul(self, other)

    def __repr__(self) -> str:
        return f"PathPolynomial({self._terms!r})"

    def __str__(self) -> str:
        return render_poly(self)


def poly_add(a: PathPolynomial, b: PathPolynomial) -> PathPolynomial:
    """Coefficient-wise sum; zero coefficients are dropped.

    Polynomials are immutable, so a zero operand returns the other one as is.
    """
    if not a._terms:
        return b
    if not b._terms:
        return a
    if a._terms.keys().isdisjoint(b._terms.keys()):
        return PathPolynomial._trusted({**a._terms, **b._terms})
    out = dict(a._terms)
    for factors, coeff in b._terms.items():
        total = out.get(factors, 0) + coeff
        if total:
            out[factors] = total
        else:
            out.pop(factors, None)
    return PathPolynomial._trusted(out)


def poly_neg(a: PathPolynomial) -> PathPolynomial:
    return PathPolynomial._trusted({f: -c for f, c in a._terms.items()})


def poly_mul(a: PathPolynomial, b: PathPolynomial) -> PathPolynomial:
    """Distributive noncommutative product.

    Words concatenate as (word of a) + (word of b): the left operand is the
    later stage, so its blocks end up closer to the output.  Coefficients
    multiply; those that cancel to zero are dropped.  The products are
    ordered a-outer, b-inner, and a word that repeats keeps its first place.
    The longer operand's loop runs innermost: when b is the shorter, each of
    its terms fills every m-th slot with one slice, m being len(b).
    """
    ta, tb = a._terms, b._terms
    m = len(tb)
    if m < len(ta):
        n = len(ta) * m
        keys, coeffs = [None] * n, [None] * n
        for k, (fb, cb) in enumerate(tb.items()):
            keys[k::m] = [fa + fb for fa in ta]
            coeffs[k::m] = [ca * cb for ca in ta.values()]
    else:
        keys = [fa + fb for fa in ta for fb in tb]
        coeffs = [ca * cb for ca in ta.values() for cb in tb.values()]
    out = dict(zip(keys, coeffs))
    if len(out) != len(keys):  # a word repeats: accumulate in order
        out = {}
        for key, coeff in zip(keys, coeffs):
            out[key] = out.get(key, 0) + coeff
        if 0 in out.values():
            out = {f: c for f, c in out.items() if c}
    return PathPolynomial._trusted(out)


class CensusBin(NamedTuple):
    """Count of distinct terms of one length and their total |coeff| weight."""

    count: int
    weight: int


def census(p: PathPolynomial) -> dict[int, CensusBin]:
    """Group terms by factor-sequence length.

    Returns a map length -> (number of distinct terms, sum of |coeff|),
    with lengths in ascending order.  The zero polynomial yields {}.
    """
    terms = p._terms
    counts = Counter(map(len, terms))
    weights = counts
    if not {1, -1}.issuperset(terms.values()):
        weights = {}
        for word, coeff in terms.items():
            k = len(word)
            weights[k] = weights.get(k, 0) + abs(coeff)
    return {k: CensusBin(counts[k], weights[k]) for k in sorted(counts)}


def render_poly(p: PathPolynomial) -> str:
    """Canonical text form: terms joined by " + "/" - ", identity as "1"."""
    return signed_sum((c, block_product(w)) for w, c in p.canonical_items())
