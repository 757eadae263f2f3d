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
``keys``, ``items`` and ``canonical_columns`` hand out words.

Canonical term order (used for rendering) is ascending word length, then
lexicographically descending indices, which puts "1" first and deeper
blocks before shallower ones within a length.  ``canonical_columns`` gives
it as two columns, the words and their coefficients.

``render_parts`` writes a sum of terms, and ``json_parts`` is the one
writer of recur's indented JSON output, with ``json_text`` the join of its
pieces.  ``PathSum`` and ``PathTerms`` hold the two columns and are written
as the string of their sum and as the list of ``{"coeff", "factors"}``
dicts; ``Records`` rows are written as the dicts they stand for.  None of
those dicts is built.  A block of up to ``BLOCK_TERMS`` terms is a slice of
each column: its words, joined by NUL (no index is 0), go through one
``codecs.charmap_encode`` pass, then one ``%`` (the sum) or one split and
one join (the list) put each coefficient's text, made once, in place.
"""

from __future__ import annotations

import sys
from codecs import charmap_encode
from collections import Counter
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii as _json_str
from operator import add
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


# The most terms (or Records rows) one block of output holds, whose joined
# words, bytes and text are transient copies.  At 128, 256 and 512, resnet's
# expand took 19.9, 20.2 and 20.5 ms in JSON and 11.3, 11.4 and 11.1 ms in
# text at L=14 (in-process, best of 150) and peaked at 61.8, 61.2 and 61.7 MB
# in JSON and 34.7, 34.8 and 35.0 MB in text at L=17 (fresh process), on a
# 2-CPU x86-64 Linux machine with Python 3.11: no size wins on both.
BLOCK_TERMS = 256

# (prefix, suffix) -> the charmap table that _int_texts writes with.
_TABLES: dict[tuple[str, str], dict[int, bytes]] = {}


def _int_texts(text: str, prefix: str, suffix: str = "") -> bytes:
    """``text`` in ASCII bytes, each code point i > 0 written as
    prefix + str(i) + suffix and NUL kept as NUL, in one codec pass.

    The table of (prefix, suffix) keeps each code point it has written.
    The codec raises UnicodeEncodeError for one it lacks; that is a
    ValueError, as the digit limit's error is, so it stops here, where the
    table is filled for the text and the pass runs again.
    """
    table = _TABLES.setdefault((prefix, suffix), {0: b"\0"})
    try:
        return charmap_encode(text, "strict", table)[0]
    except UnicodeEncodeError:
        table.update(
            (i, f"{prefix}{i}{suffix}".encode()) for i in map(ord, set(text))
            if i not in table
        )
        return charmap_encode(text, "strict", table)[0]


def block_product(word: Word) -> str:
    """The product text "W[3]*W[2]"; empty for the identity term."""
    return _int_texts(word, "*W[", "]")[1:].decode("ascii")


def render_parts(words: Sequence[Word], coeffs: Sequence[int]) -> list[str]:
    """The text of the sum of the terms, distinct ``words`` and their
    ``coeffs``, one piece per block of up to BLOCK_TERMS terms:
    ``signed_sum(zip(coeffs, map(block_product, words)))``, but no piece
    for the empty sum.

    A block's words, a NUL in front of each, go through one codec pass
    that writes "*W[i]" for code point i.  Each NUL and the "*" after it
    become "%s", where one ``%`` puts the term's sign and coefficient, made
    once per distinct coefficient.  The identity term's NUL, with no "*"
    after it, becomes "%s" for its sign and magnitude.
    """
    parts: list[str] = []
    heads: dict[int, bytes] = {}  # coeff -> b" + 2*", b" - ", ...
    for k in range(0, len(words), BLOCK_TERMS):
        ws, cs = words[k : k + BLOCK_TERMS], coeffs[k : k + BLOCK_TERMS]
        for c in dict.fromkeys(cs):  # in order: the error names the first
            if c not in heads:
                try:
                    mag = str(abs(c))
                except ValueError:  # past the interpreter's digit limit
                    raise _too_long(c) from None
                head = "" if mag == "1" else mag + "*"
                heads[c] = ((" - " if c < 0 else " + ") + head).encode()
        text = _int_texts("\0" + "\0".join(ws), "*W[", "]").replace(b"\0*", b"%s")
        args = tuple(map(heads.__getitem__, cs))
        if b"\0" in text:  # the identity term
            i = ws.index("")
            text = text.replace(b"\0", b"%s")
            identity = heads[cs[i]][:3] + str(abs(cs[i])).encode()
            args = (*args[:i], identity, *args[i + 1 :])
        parts.append((text % args).decode("ascii"))
    if parts:  # the first term: "2*W[1]" or "-2*W[1]", not " + "/" - "
        parts[0] = ("-" if parts[0][1] == "-" else "") + parts[0][3:]
    return parts


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


class PathSum(NamedTuple):
    """Terms as columns, distinct words and their coefficients, which
    ``json_parts`` writes as the string of their sum, ``render_parts``'
    pieces, which need no escapes."""

    words: Sequence[Word] = ()
    coeffs: Sequence[int] = ()


class PathTerms(NamedTuple):
    """Terms as columns, distinct words and their coefficients, which
    ``json_parts`` writes as the list ``[{"coeff": c, "factors":
    list(map(ord, w))} for w, c in zip(words, coeffs)]``."""

    words: Sequence[Word] = ()
    coeffs: Sequence[int] = ()


class Records(NamedTuple):
    """Rows of one record type, which ``json_parts`` writes as the list
    ``[dict(zip(keys, row)) for row in rows]`` without building those
    dicts.  ``keys`` is not empty, each row has one value per key, and each
    value is a str, an int, a float, a bool or None."""

    keys: tuple[str, ...]
    rows: Sequence[tuple]


def json_text(payload) -> str:
    """``json.dumps(payload, indent=2) + "\n"``: the join of ``json_parts``."""
    return "".join(json_parts(payload))


def json_parts(payload) -> list[str]:
    """The text of ``json.dumps(payload, indent=2) + "\n"``, in pieces.

    Covers what recur emits: dicts with str keys, lists, tuples, str, int,
    float (NaN and infinities as json writes them), bool, None, PathSum,
    written as the string of its sum, and PathTerms and Records, written
    as the dicts and lists they stand for.  Any other value, or a non-str
    key, raises TypeError.  json itself falls back to its pure-Python
    encoder whenever ``indent`` is set.  An int past the interpreter's
    digit limit raises SizeError.

    One walk appends the pieces to one list, in order, and no container's
    text is copied into its parent's, so ``writelines`` or a join copies
    each character once, or twice in a container of scalars only.
    """
    parts: list[str] = []
    try:
        _json_walk(payload, "\n", parts)
    except ValueError:  # str() of an int past the interpreter's digit limit
        raise _too_long(_largest_int(payload)) from None
    parts.append("\n")
    return parts


def _largest_int(value) -> int:
    """The largest |int| anywhere in a JSON payload (0 if none)."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return max(map(_largest_int, value), default=0)
    return abs(value) if isinstance(value, int) else 0


_int_text = int.__repr__
_CONSTANTS = {None: "null", True: "true", False: "false"}
_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_scalar(value) -> str:
    if isinstance(value, str):
        return _json_str(value)
    if value is None or value is True or value is False:
        return _CONSTANTS[value]
    if isinstance(value, int):
        return _int_text(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOAT_NAMES.get(text, text)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_walk(value, newline: str, parts: list[str], head: str = "") -> None:
    """Append the pieces of ``value``, indented for ``newline`` and with
    ``head`` in front, to ``parts``.

    Each member goes in with its separator and key in front, in one piece
    when it is not a container.  A container of scalars only ends as one
    join of its pieces: a piece costs a str header and a list slot, some
    60 bytes, more than most scalars' text.  _json_str raises TypeError
    for a key that is no str.
    """
    if type(value) is PathTerms:
        return _terms_walk(value, newline, parts, head)
    if type(value) is Records:
        return _records_walk(value, newline, parts, head)
    if type(value) is PathSum:
        text = render_parts(*value) or ["0"]
        text[0] = head + '"' + text[0]
        text[-1] += '"'
        return parts.extend(text)
    is_dict = isinstance(value, dict)
    if not is_dict and not isinstance(value, (list, tuple)):
        return parts.append(head + _json_scalar(value))
    if not value:
        return parts.append(head + ("{}" if is_dict else "[]"))
    inner = newline + "  "
    sep, comma = head + ("{" if is_dict else "[") + inner, "," + inner
    first, leaf = len(parts), True
    for k, v in value.items() if is_dict else enumerate(value):
        key = f"{sep}{_json_str(k)}: " if is_dict else sep
        if type(v) is str:
            parts.append(key + _json_str(v))
        elif type(v) is int:
            parts.append(key + _int_text(v))
        elif isinstance(v, (dict, list, tuple)):
            leaf = False
            _json_walk(v, inner, parts, key)
        else:
            parts.append(key + _json_scalar(v))
        sep = comma
    parts.append(newline + ("}" if is_dict else "]"))
    if leaf:
        parts[first:] = ["".join(parts[first:])]


def _records_walk(records: Records, newline: str, parts: list[str], head: str) -> None:
    """Append a Records list, ``head`` in front, to ``parts``, one piece per
    block of up to BLOCK_TERMS records, the join of their texts: each the
    join of its key texts, its value texts and its close.

    Within the columns of str only, or of int and None only, equal values
    have equal texts, so each distinct value's text is made once.
    """
    keys, rows = records
    if not rows:
        return parts.append(head + "[]")
    inner = newline + "  "
    texts: dict = {}  # value -> its text, for every column that memoizes
    pieces = []
    opening = f",{inner}{{"  # the list opens where the first comma goes
    for k, column in zip(keys, zip(*rows)):
        pieces.append(repeat(f"{opening}{inner}  {_json_str(k)}: ", len(rows)))
        opening = ","
        kinds = set(map(type, column))
        if kinds == {str} or kinds <= {int, type(None)}:
            new = set(column).difference(texts)
            texts.update(zip(new, map(_json_str if str in kinds else _json_scalar, new)))
            pieces.append(map(texts.__getitem__, column))
        else:
            pieces.append(map(_json_scalar, column))
    pieces.append(repeat(inner + "}", len(rows)))
    texts_by_record = map("".join, zip(*pieces))
    first = len(parts)
    for _ in range(0, len(rows), BLOCK_TERMS):
        parts.append("".join(islice(texts_by_record, BLOCK_TERMS)))
    parts[first] = head + "[" + parts[first][1:]
    parts.append(newline + "]")


def _terms_walk(terms: PathTerms, newline: str, parts: list[str], head: str) -> None:
    """Append a PathTerms list, ``head`` in front, to ``parts``, one piece
    per block of up to BLOCK_TERMS terms.

    A term is its opening, up to "[", made once per distinct coefficient,
    then its factors: a block's words, joined by NUL, go through one codec
    pass that writes ",<newline and indent>i" for code point i, one split
    at each NUL and the comma after it, and one join with the close between
    terms.  The identity term has no factors, so no comma follows its NUL,
    which stays on the factors before it, and its close loses its indent.
    """
    words, coeffs = terms
    if not words:
        return parts.append(head + "[]")
    inner = newline + "  "
    key = inner + "  "
    close = (key + "]" + inner + "}").encode()
    empty = b"[" + key.encode() + b"]"  # the identity term's factors, closed
    opens: dict[int, bytes] = {}  # coeff -> b',\n  {\n    "coeff": 2, ... ['
    first = len(parts)
    for k in range(0, len(words), BLOCK_TERMS):
        ws, cs = words[k : k + BLOCK_TERMS], coeffs[k : k + BLOCK_TERMS]
        for c in set(cs).difference(opens):
            coeff = _int_text(c)
            opens[c] = f',{inner}{{{key}"coeff": {coeff},{key}"factors": ['.encode()
        factors = _int_texts("\0".join(ws), "," + key + "  ").split(b"\0,")
        factors[0] = factors[0][1:]
        identity = not ws[0]
        if len(factors) < len(ws):  # the identity term, after the first
            i = ws.index("")
            factors[i - 1 : i] = factors[i - 1][:-1], b""
            identity = True
        factors[-1] += close
        text = close.join(map(add, map(opens.__getitem__, cs), factors))
        if identity:
            text = text.replace(empty, b"[]")
        parts.append(text.decode("ascii"))
    parts[first] = head + "[" + parts[first][1:]  # the list opens where a comma goes
    parts.append(newline + "]")


class PathPolynomial:
    """Immutable integer-weighted sum of ordered block-symbol products."""

    __slots__ = ("_terms",)

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
        self._terms = normalized

    # -- constructors -------------------------------------------------

    @classmethod
    def _trusted(cls, terms: dict[Word, int]) -> "PathPolynomial":
        """Adopt a dict already known to hold valid keys and nonzero coefficients.

        For results built from valid operands: no per-key checks and no copy,
        so the caller hands ``terms`` over and must not change it afterwards.
        """
        poly = object.__new__(cls)
        poly._terms = terms
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

    def canonical_columns(self) -> tuple[list[Word], list[int]]:
        """The words in canonical order and their coefficients, as two lists.

        Words are distinct, so sorting them descending and then, stably, by
        length gives the canonical order from two C-level sorts.
        """
        terms = self._terms
        words = sorted(sorted(terms, reverse=True), key=len)
        return words, list(map(terms.__getitem__, words))

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
        return f"PathPolynomial({self.coefficients!r})"

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
            # The identity word and a unit coefficient copy a's own.
            keys[k::m] = [fa + fb for fa in ta] if fb else ta
            coeffs[k::m] = [ca * cb for ca in ta.values()] if cb != 1 else ta.values()
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
    return "".join(render_parts(*p.canonical_columns())) or "0"
