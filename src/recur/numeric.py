"""Matrix instantiation of recursion formulas and Jacobian checks.

Blocks become random d x d matrices, so every symbolic path polynomial can
be evaluated numerically and compared against two independent references:
an exact Jacobian obtained by propagating basis vectors through the affine
recursion, and a central-difference Jacobian for the activated built-in
chains.  tanh is the activation (smooth, so central differences behave).

A net drawn for one seed holds its blocks as an (L, d, d) stack.  A net
drawn for a group of S seeds holds them as one (L, S, d, d) stack, the
seed axis after the depth axis, and eval_polynomial and jacobian_exact then
return one (S, d, d) array: each numpy step runs once for every seed, and
each seed's matrices carry the same bits as a net of its own.
CHUNK_ENTRIES bounds one batched step over the whole stack, and
MAX_MATRIX_ENTRIES the whole stack with what jacobian_exact keeps beside it.

verify checks dX[L]/dX[j] for every j of a sweep at once.
eval_polynomials evaluates the path polynomials of a sweep together, over
one schedule, so that a word several of them hold is one product a chunk
(check_derivatives compares them all), and finite_diff_checks runs one
forward pass and one chain of product formulas for every j.  The
one-polynomial and one-j functions are their one-member cases.

Each function imports numpy in its body, so importing this module (as
``recur`` and ``recur.cli`` do) leaves numpy unloaded until the first
numeric call: the symbolic commands start without it.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import itemgetter
from typing import Mapping, NamedTuple, Sequence

from .algebra import PathPolynomial
from .builtins import activated_kind
from .errors import ActivationError, SizeError
from .parser import ArchitectureSpec

# S * L * d * d float64 entries instantiate may allocate: 256 MB.
MAX_MATRIX_ENTRIES = 1 << 25


class ConcreteNet:
    """One matrix realization of a spec at a fixed depth and width, for one
    seed or for a group of them.

    ``matrices`` may be given as d x d (or S x d x d) arrays or as one
    (L, d, d) (or (L, S, d, d)) array.  The net keeps them as one read-only
    float64 ``stack``, and ``matrices`` holds views of its rows.  Such an
    array is copied unless it is read-only and owns its data, as
    ``instantiate`` hands it over, so a caller cannot change the blocks
    behind the net's back.  A stacked net's ``seed`` is the tuple of its
    seeds; it takes no activation.
    """

    __slots__ = ("spec", "matrices", "activation", "seed", "stack", "_coefficients")

    def __init__(
        self,
        spec: ArchitectureSpec,
        matrices,
        activation: str | None = None,
        seed: int | tuple[int, ...] | None = None,
    ) -> None:
        import numpy as np

        shape = np.shape(matrices[0])
        if (
            len(shape) not in (2, 3)
            or shape[-1] != shape[-2]
            or any(np.shape(m) != shape for m in matrices)
        ):
            raise ValueError("all block matrices must share one square shape")
        stack = np.asarray(matrices, dtype=float)
        if stack is matrices and (stack.flags.writeable or stack.base is not None):
            stack = stack.copy()
        if not np.all(np.isfinite(stack)):
            raise ValueError("block matrices must be finite")
        stack.flags.writeable = False
        if activation is not None:
            if activation != "tanh":
                raise ValueError(f"unsupported activation {activation!r}")
            if stack.ndim == 4:
                raise ValueError("an activated net takes one seed")
            if activated_kind(spec) is None:
                raise ActivationError(
                    "tanh is only defined for the built-in chain and resnet"
                    " recursions"
                )
        self.spec = spec
        self.stack = stack
        self.matrices = tuple(stack)  # matrices[i-1] realizes W[i]
        self.activation = activation
        self.seed = seed
        # i -> instantiate_terms(i) with the coefficients evaluated, filled by
        # jacobian_exact: the blocks are read-only, so these never go stale.
        self._coefficients = {}

    @property
    def depth(self) -> int:
        return len(self.matrices)

    @property
    def dim(self) -> int:
        return self.stack.shape[-1]

    def matrix(self, index: int) -> np.ndarray:
        """The matrix realizing W[index] (1-based), one per seed if stacked."""
        if not 1 <= index <= self.depth:
            raise IndexError(f"block index {index} outside [1, {self.depth}]")
        return self.matrices[index - 1]


def instantiate(
    spec: ArchitectureSpec,
    L: int,
    d: int,
    seed: int | Sequence[int] = 0,
    activation: str | None = None,
) -> ConcreteNet:
    """Draw block matrices i.i.d. uniform on [-0.5, 0.5], scaled by 1/sqrt(d).

    Deterministic for a given seed; the scaling keeps products of (1 + W)
    factors well conditioned at the depths used for verification.  A
    sequence of S seeds draws an (L, S, d, d) net whose seed s holds the
    doubles the net of seed s alone holds.  Raises SizeError, before
    allocating, when S * L * d * d exceeds MAX_MATRIX_ENTRIES.
    """
    import numpy as np

    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if L < 1:
        raise ValueError(f"depth must be >= 1, got {L}")
    single = isinstance(seed, int)
    seeds = (seed,) if single else tuple(seed)
    S = len(seeds)
    if S * L * d * d > MAX_MATRIX_ENTRIES:
        count = "L * d * d" if S == 1 else f"{S} seeds * L * d * d"
        raise SizeError(
            f"{count} = {S * L * d * d} matrix entries, cap is {MAX_MATRIX_ENTRIES}"
        )
    stack = np.empty((L, d, d) if single else (L, S, d, d))
    for s, each in enumerate(seeds):
        # One draw of L * d * d values gives the same doubles as L draws of d * d.
        rng = np.random.default_rng(each % (1 << 64))
        stack.reshape(L, S, d, d)[:, s] = rng.uniform(-0.5, 0.5, size=(L, d, d))
    stack /= np.sqrt(d)
    stack.flags.writeable = False
    seed = seed if single else seeds
    return ConcreteNet(spec, stack, activation, seed)


class ForwardTrace(NamedTuple):
    """States X[1..L] of one tanh forward pass and their pre-activations."""

    states: tuple[np.ndarray, ...]
    preactivations: tuple[np.ndarray, ...]

    def state(self, i: int) -> np.ndarray:
        if not 1 <= i <= len(self.states):
            raise IndexError(f"state index {i} outside [1, {len(self.states)}]")
        return self.states[i - 1]


def _layers(net: ConcreteNet, start: np.ndarray, j: int = 0):
    """Yield (pre-activation, state) of X[j+1..L] from X[j] = ``start``,
    one (d,) state or n of them stacked as (n, d, 1): numpy runs the same
    matrix-vector product on each stacked column, so each gets the same bits."""
    import numpy as np

    resnet = activated_kind(net.spec) == "resnet"
    current = start
    for block in net.matrices[j:]:
        z = block @ current
        if resnet:
            z += current
        current = np.tanh(z)
        yield z, current


def forward(net: ConcreteNet, x0: np.ndarray) -> ForwardTrace:
    """Run the tanh-activated chain or resnet with W[i] v = M[i] v.

    The activation is applied after the junction sum, and the pre-activation
    vectors are recorded for later g' capture.
    """
    import numpy as np

    if net.activation != "tanh":
        raise ActivationError("forward requires a tanh-activated net")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (net.dim,):
        raise ValueError(f"x0 must have shape ({net.dim},), got {x0.shape}")
    preacts, states = zip(*_layers(net, x0))
    return ForwardTrace(states=states, preactivations=preacts)


# eval_polynomials cuts the terms of a sweep into chunks (see _Schedule) of
# CHUNK_ENTRIES // (S * d**2) terms on average, S the net's seeds, and at
# most one more per polynomial, each making at most NODES_PER_TERM times
# that many products: one batched step holds about CHUNK_ENTRIES float64
# entries (256 KB) over the whole stack.  Its working memory stays a small
# multiple of that, plus one matrix per seed and factor of the longest term
# and one running total per seed and polynomial, whatever the number of
# terms or seeds.  On verify's linear sweep at 3 seeds (every j, d = 4..16),
# 2**15 entries a step took 150 ms against 242 ms for 2**13 per seed.
# Batching pays from about MIN_CHUNK_TERMS terms a chunk: the term-by-term
# loop runs each product once for every seed too, and 24 against 12 took
# the same sweep at d = 24..32 from 48 to 40 ms, d = 4..16 unchanged; with
# S * d**2 > 1365 the terms go one by one, and no schedule is made.  A
# schedule costs about 0.2 ms however few its terms, so a sweep of fewer
# than MIN_SWEEP_TERMS terms goes one by one too: appendix-ex1's at L = 6
# (41 terms, d = 4) took 0.17 ms so against 0.30 batched, at L = 8 (109
# terms) 0.47 against 0.33.  Each batched matmul costs a fixed amount, one
# per level of each chunk, so a sweep whose words are all prefixes of one
# word, a trie of one product a level (newarch's and eq22's), goes one by
# one as well: newarch's at L = 12, d = 16 took 0.45 ms so against 0.69.
CHUNK_ENTRIES = 1 << 15
NODES_PER_TERM = 4
MIN_CHUNK_TERMS = 24
MIN_SWEEP_TERMS = 64
# _schedule lays the slices out in groups of about GROUP_CELLS code points
# (terms x (1 + longest term)), or of one slice where that is more, so its
# temporaries do not grow with the number of terms.
GROUP_CELLS = 1 << 14


class _Schedule(NamedTuple):
    """How eval_polynomials computes the terms of a sweep, chunk by chunk.

    The terms go in sweep order: for k < K, slice k of every polynomial in
    turn, where slice k of a polynomial of n terms is its terms [k*n/K,
    (k+1)*n/K) and K = ceil(all terms / size).  Slice k of one polynomial
    covers about the share of its terms that slice k of the next one does,
    and verify's sweeps share most of their words there: dX[L]/dX[j-1] of
    resnet holds every word of dX[L]/dX[j], each in about the same place.
    A chunk is one slice; a chunk whose trie would make more than
    NODES_PER_TERM * size products is halved, in sweep order, until it
    makes no more or holds one term.

    Each chunk is the prefix trie of its terms: one product (a node) per
    distinct non-empty prefix, which extends the node of the prefix one
    factor shorter, so a term reuses every prefix product it shares with
    any term of its chunk, of any polynomial.  Row 0 of the product buffer
    holds the identity and the rows after it a chunk's nodes, level by level
    (level = factors - 1), so that one batched matmul computes a level.  A
    piece is a run of one polynomial's terms within a chunk: each is added
    to that polynomial's running total in one ordered sum.
    """

    size: int  # most terms in a chunk
    rows: int  # rows of the product buffer
    top: int  # largest block index
    chunks: list[tuple[int, int, int]]  # (terms, levels, pieces)
    steps: list[tuple[int, int]]  # per level of each chunk: (level, nodes)
    pieces: list[tuple[int, int]]  # per piece of each chunk: (polynomial, terms)
    parents: np.ndarray  # per node: row of the node it extends
    blocks: np.ndarray  # per node: stack index of its last factor
    ends: np.ndarray  # per term, in sweep order: row of its product
    coeffs: np.ndarray  # per term, in sweep order: float64 coefficient, (n, 1)


def _codes(words: list[str], lengths: np.ndarray) -> np.ndarray:
    """``words`` as the rows of one big-endian uint32 array, so that rows
    compare as bytes in the order the words compare: column 0 is left for a
    sort key, then come each word's block indices, padded with 0 (which no
    block index takes) to the longest word, and to one column at least."""
    import numpy as np

    width = int(lengths.max(initial=1))
    text = "".join(words).encode("utf-32-be", "surrogatepass")
    codes = np.zeros((len(words), 1 + width), ">u4")
    codes[:, 1:][np.arange(width) < lengths[:, None]] = np.frombuffer(text, ">u4")
    return codes


def _shared(codes: np.ndarray) -> np.ndarray:
    """Per row of ``codes`` after the first, the length of the prefix its
    word shares with the word of the row before it, or -1 where the two rows
    differ in column 0.  A row equal to the one before it shares all its
    columns but the first, at least its whole word."""
    import numpy as np

    native = codes.view(np.uint32)  # the same bytes: equal where codes are
    differ = native[1:] != native[:-1]
    return np.where(differ.any(axis=1), differ.argmax(axis=1), differ.shape[1]) - 1


def _tries(codes: np.ndarray, sizes: np.ndarray):
    """Lay out the prefix trie of each chunk of ``codes``' rows, chunks of
    ``sizes`` rows in turn: the rows sorted by chunk and then by code point
    (``rank``, the rows in that order), which level each row makes a node at
    (``new``), and the nodes each chunk makes at each level (``counts``)."""
    import numpy as np

    codes[:, 0] = np.repeat(np.arange(len(sizes)), sizes)
    # Sorted by chunk and then by code point, each term shares its longest
    # prefix within its chunk with the term before it; the first term of a
    # chunk shares -1.
    rank = np.argsort(codes.view(f"V{codes.itemsize * codes.shape[1]}").ravel())
    ranked = codes[rank]
    shared = np.zeros(len(codes), np.int32)
    shared[1:] = _shared(ranked)
    new = (ranked[:, 1:] != 0) & (np.arange(codes.shape[1] - 1) >= shared[:, None])
    # made[k, l]: how many nodes the terms up to k make at level l; upto:
    # that many at the end of each chunk; counts: each chunk's own.
    made = np.cumsum(new, axis=0, dtype=np.int32)
    upto = made[np.cumsum(sizes) - 1]
    counts = np.diff(upto, axis=0, prepend=0)
    return rank, ranked, new, made, upto, counts


def _schedule(polys: Sequence[PathPolynomial], size: int) -> _Schedule:
    """Put the terms of ``polys`` in sweep order, cut them into chunks and
    lay out each chunk's trie."""
    import numpy as np

    counts = np.fromiter(map(len, polys), np.intp, len(polys))
    n = int(counts.sum())
    # Term t of polynomial p, of n_p terms, is in slice ceil((t+1) K / n_p) - 1:
    # key, that slice plus one, times the polynomials, plus p, orders the
    # terms by slice, then polynomial.
    poly = np.repeat(np.arange(len(polys)), counts)
    own = counts[poly]
    key = np.arange(1, n + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    key *= -(-n // size)
    key += own - 1
    key //= own
    key *= len(polys)
    key += poly
    order = np.argsort(key, kind="stable")
    key = key[order] // len(polys)
    poly = poly[order]
    del own
    words = np.fromiter(chain.from_iterable(p.keys() for p in polys), object, n)[order]
    lengths = np.fromiter(map(len, words), np.intp, n)
    edges = np.append(np.flatnonzero(np.diff(key, prepend=-1)), n)  # of slices
    # Slices are laid out in groups of about GROUP_CELLS code points.
    step = max(1, GROUP_CELLS // (1 + int(lengths.max(initial=0))))
    chunks: list[tuple[int, int, int]] = []
    steps: list[tuple[int, int]] = []
    pieces: list[tuple[int, int]] = []
    layouts = [np.empty((2, 0), np.intp)]  # per group: its nodes' parents, blocks
    ends = np.empty(n, np.intp)
    most = 0  # most nodes in a chunk
    low = 0
    while low < n:
        high = int(edges[min(len(edges) - 1, np.searchsorted(edges, low + step))])
        codes = _codes(words[low:high], lengths[low:high])
        cuts = edges[(edges >= low) & (edges <= high)] - low
        while True:
            sizes = np.diff(cuts)
            rank, ranked, new, made, upto, counts = _tries(codes, sizes)
            nodes = counts.sum(axis=1)
            over = (nodes > NODES_PER_TERM * size) & (sizes > 1)
            if not over.any():
                break
            # A chunk of too many products is halved, in sweep order.
            cuts = np.union1d(cuts, cuts[:-1][over] + sizes[over] // 2)
        # A piece starts with each chunk and wherever the polynomial changes.
        owner = poly[low:high]
        first = np.ones(high - low, bool)
        first[1:] = owner[1:] != owner[:-1]
        first[cuts[:-1]] = True
        starts = np.flatnonzero(first)
        owned = np.diff(np.searchsorted(starts, cuts))
        pieces += zip(owner[starts].tolist(), np.diff(starts, append=high - low).tolist())
        # prefix[k, l + 1] is the row of the last node made at level l up to
        # term k, in its chunk's buffer: that of term k's prefix of l + 1
        # factors.  prefix[k, 0] is the identity's row.
        prefix = np.zeros(ranked.shape, np.int32)
        offsets = np.cumsum(counts, axis=1) - upto
        prefix[:, 1:] = made + np.repeat(offsets, sizes, axis=0)
        # Each new node's index among the group's nodes, chunk by chunk.
        at = np.repeat(np.cumsum(nodes) - nodes - 1, sizes)[:, None]
        at = (at + prefix[:, 1:])[new]
        layout = np.empty((2, len(at)), np.intp)
        layout[0, at] = prefix[:, :-1][new]
        layout[1, at] = ranked[:, 1:][new]
        layouts.append(layout)
        ends[low + rank] = prefix[np.arange(high - low), lengths[low + rank]]
        for terms, level_counts, parts in zip(
            sizes.tolist(), counts.tolist(), owned.tolist()
        ):
            levels = len(level_counts) - level_counts.count(0)
            chunks.append((terms, levels, parts))
            steps.extend(zip(range(levels), level_counts))
        most = max(most, int(nodes.max()))
        low = high

    parents, blocks = np.concatenate(layouts, axis=1)
    blocks -= 1  # stack indices
    items = chain.from_iterable(p.items() for p in polys)
    try:
        coeffs = np.fromiter(map(itemgetter(1), items), float, n)
    except OverflowError:
        items = chain.from_iterable(p.items() for p in polys)
        coeffs = np.array([_coefficient(coeff) for _, coeff in items])
    return _Schedule(
        max(terms for terms, _, _ in chunks),
        1 + most,
        int(blocks.max(initial=-1)) + 1,
        chunks,
        steps,
        pieces,
        parents,
        blocks,
        ends,
        coeffs[order].reshape(-1, 1),
    )


def _coefficient(coeff: int) -> float:
    """``coeff`` as a float64; SizeError when it is past the float64 range."""
    try:
        return float(coeff)
    except OverflowError:
        raise SizeError(
            f"a path coefficient of {coeff.bit_length()} bits is past the float64"
            " range; verify needs every coefficient as a float64"
        ) from None


def eval_polynomials(
    polys: Sequence[PathPolynomial], net: ConcreteNet
) -> list[np.ndarray]:
    """Evaluate each path polynomial of a sweep as a d x d matrix, or as one
    per seed, (S, d, d), on a stacked net.

    Factors multiply in listed order (leftmost factor leftmost in the
    product); the identity term contributes the identity matrix.

    The terms of all the polynomials are cut into chunks (see _Schedule).
    A chunk costs one batched matmul per prefix length and one ordered sum
    per piece into its polynomial's running total, each over every seed of
    the net.  Every product is the same left-to-right chain and each sum
    runs in its polynomial's term order, so each result is bit-identical to
    evaluating that polynomial's terms one by one, for one seed at a time.
    That is how small sweeps, nets too wide for MIN_CHUNK_TERMS terms a
    chunk and sweeps whose trie is one chain go (see CHUNK_ENTRIES).  A
    block past the net's depth raises the first IndexError in (polynomial,
    term) order, and a coefficient past the float64 range SizeError.
    """
    import numpy as np

    shape = net.stack.shape[1:]
    d = net.dim
    # The same loop serves both shapes: a one-seed net is a stack of S = 1.
    stack = net.stack.reshape(net.depth, -1, d, d)
    m = stack[0].size
    size = CHUNK_ENTRIES // m
    few = sum(map(len, polys)) < MIN_SWEEP_TERMS
    if size < MIN_CHUNK_TERMS or few or _one_chain(polys):
        return _eval_term_by_term(polys, net)
    schedule = _schedule(polys, size)
    if schedule.top > net.depth:  # the loop raises in (polynomial, term) order
        return _eval_term_by_term(polys, net)
    parents, blocks, ends, coeffs = (
        schedule.parents, schedule.blocks, schedule.ends, schedule.coeffs
    )
    products = np.empty((schedule.rows, *stack.shape[1:]))
    products[0] = np.eye(d)
    flat = products.reshape(schedule.rows, m)
    # Each row holds one term's weighted product and a zero pad entry,
    # which keeps the inner loop of add.reduce off axis 0, so it adds the
    # rows in order even at S * d * d = 1, where numpy would otherwise sum a
    # contiguous axis pairwise.  A piece's sum starts from its running
    # total, copied into the row before the piece's first term.
    weighted = np.zeros((schedule.size + 1, m + 1))
    totals = np.zeros((len(polys), m + 1))
    steps, pieces = iter(schedule.steps), iter(schedule.pieces)
    node = end = 0
    for terms, levels, owned in schedule.chunks:
        row = 1
        for _ in range(levels):
            level, count = next(steps)
            factors = stack[blocks[node : node + count]]  # each node's last one
            if level:
                np.matmul(
                    products[parents[node : node + count]],
                    factors,
                    out=products[row : row + count],
                )
            else:
                products[row : row + count] = factors
            node += count
            row += count
        np.multiply(
            coeffs[end : end + terms],
            flat[ends[end : end + terms]],
            out=weighted[1 : terms + 1, :m],
        )
        end += terms
        row = 1
        for _ in range(owned):
            p, count = next(pieces)
            weighted[row - 1] = totals[p]
            np.add.reduce(weighted[row - 1 : row + count], axis=0, out=totals[p])
            row += count
    return [total[:m].reshape(shape) for total in totals]


def eval_polynomial(poly: PathPolynomial, net: ConcreteNet) -> np.ndarray:
    """eval_polynomials of the one polynomial ``poly``: a d x d matrix, or
    one per seed, (S, d, d), on a stacked net."""
    return eval_polynomials([poly], net)[0]


def _one_chain(polys: Sequence[PathPolynomial]) -> bool:
    """Whether every word of ``polys`` is a prefix of one of them, so that
    their trie is one chain of one product a level."""
    longest = ""
    for poly in polys:
        for word in poly.keys():
            if not longest.startswith(word):
                if not word.startswith(longest):
                    return False
                longest = word
    return True


def _eval_term_by_term(
    polys: Sequence[PathPolynomial], net: ConcreteNet
) -> list[np.ndarray]:
    """eval_polynomials one term at a time, in (polynomial, term) order,
    each reusing the prefix products it shares with the term before it."""
    import numpy as np

    d = net.dim
    totals = []
    previous = ""
    prefix: list[np.ndarray] = []  # prefix[k]: product of previous[: k + 1]
    for poly in polys:
        total = np.zeros(net.stack.shape[1:])
        for word, coeff in poly.items():
            shared = 0
            for a, b in zip(previous, word):
                if a != b:
                    break
                shared += 1
            del prefix[shared:]
            for code in word[shared:]:
                block = net.matrix(ord(code))
                prefix.append(prefix[-1] @ block if prefix else block)
            previous = word
            total += _coefficient(coeff) * (prefix[-1] if prefix else np.eye(d))
        totals.append(total)
    return totals


def jacobian_exact(
    net: ConcreteNet, j: int, *, magnitude: bool = False
) -> np.ndarray:
    """Exact Jacobian dX[L]/dX[j] by propagating basis vectors, one per
    seed, (S, d, d), on a stacked net.

    Works directly on the affine recursion and never touches the path
    polynomials, so it is an independent reference for eval_polynomial.
    The evaluated coefficients of each state stay on ``net`` while they fit
    beside it in MAX_MATRIX_ENTRIES, so a sweep over every j evaluates them
    once; a state whose coefficients do not fit evaluates them one at a time.

    With ``magnitude``, the same propagation runs on |W| for every block and
    |c| for every integer coefficient: entrywise, the result bounds each
    product and partial sum that makes the Jacobian, so it sizes the
    Jacobian's rounding error.
    """
    import numpy as np

    if net.activation is not None:
        raise ActivationError("jacobian_exact requires an unactivated net")
    L, shape = net.depth, net.stack.shape[1:]
    if not 0 <= j <= L:
        raise ValueError(f"wrt index must be in [0, {L}], got {j}")
    eye = np.broadcast_to(np.eye(net.dim), shape).copy()
    if j == L:
        return eye
    if magnitude:  # a net of its own, so its memo holds only |c| terms
        net = ConcreteNet(net.spec, np.abs(net.stack))
    sensitivities: dict[int, np.ndarray] = {j: eye}
    evaluated = net._coefficients
    # Matrices (one per seed each) the memo may still take: the net and the
    # kept coefficients stay within MAX_MATRIX_ENTRIES, the bound
    # instantiate puts on the net.
    room = MAX_MATRIX_ENTRIES // eye.size - L - sum(map(len, evaluated.values()))
    for i in range(j + 1, L + 1):
        terms = evaluated.get(i)
        kept = terms is not None
        if not kept:
            terms = net.spec.instantiate_terms(i)
            if magnitude:
                terms = [
                    (s, PathPolynomial._trusted({w: abs(c) for w, c in p.items()}))
                    for s, p in terms
                ]
            if len(terms) <= room:
                terms = [(source, eval_polynomial(coeff, net)) for source, coeff in terms]
                evaluated[i], kept = terms, True
                room -= len(terms)
        acc = np.zeros(shape)
        for source, coeff in terms:
            if source in sensitivities:
                matrix = coeff if kept else eval_polynomial(coeff, net)
                acc = acc + matrix @ sensitivities[source]
        sensitivities[i] = acc
    return sensitivities[L]


class JacobianCheckResult(NamedTuple):
    """Relative Frobenius error of one Jacobian comparison."""

    spec: str
    L: int
    j: int
    d: int
    seed: int | None
    activation: str | None
    error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.error <= self.tol

    def to_dict(self) -> dict:
        return {
            "spec": self.spec,
            "L": self.L,
            "j": self.j,
            "d": self.d,
            "seed": self.seed,
            "activation": self.activation,
            "error": self.error,
            "tol": self.tol,
            "pass": self.passed,
        }


def relative_error(
    observed: np.ndarray, reference: np.ndarray, size: np.ndarray | None = None
) -> float:
    """||observed - reference|| / ||size|| (Frobenius), or the plain norm of
    the difference when ``size`` is zero; ``size`` defaults to the reference.

    Both are first scaled by the power of two of their largest entry, so no
    square leaves the float64 range; the scaling is exact.
    """
    import numpy as np

    diff = observed - reference
    if size is None:
        size = reference
    largest = max(float(np.abs(diff).max()), float(np.abs(size).max()))
    scale = math.ldexp(1.0, -math.frexp(largest)[1])
    norm = float(np.linalg.norm(size * scale))
    if norm == 0.0:
        return float(np.linalg.norm(diff * scale)) / scale
    return float(np.linalg.norm(diff * scale)) / norm


def check_derivatives(
    net: ConcreteNet, polys: Mapping[int, PathPolynomial], tol: float = 1e-10
) -> list[JacobianCheckResult | tuple[JacobianCheckResult, ...]]:
    """Compare each polynomial ``polys[j]`` against the basis-propagation
    Jacobian of X[j], in the order of ``polys``: one result per j, or one
    per seed, in seed order, on a stacked net.  eval_polynomials evaluates
    the polynomials together.

    A zero polynomial has no relative error: the reference, which rounding
    may leave a few ulps off zero, is measured against the magnitude of the
    propagation that made it.
    """
    d = net.dim
    stacked = net.stack.ndim == 4
    S = net.stack.shape[1] if stacked else 1
    seeds = net.seed if stacked and net.seed else [net.seed] * S
    checks = []
    observed = eval_polynomials(list(polys.values()), net)
    for (j, poly), matrix in zip(polys.items(), observed):
        reference = jacobian_exact(net, j).reshape(-1, d, d)
        sizes = [None] * S
        if not poly:
            sizes = jacobian_exact(net, j, magnitude=True).reshape(-1, d, d)
        results = tuple(
            JacobianCheckResult(
                spec=net.spec.name,
                L=net.depth,
                j=j,
                d=d,
                seed=seed,
                activation=None,
                error=relative_error(*errors),
                tol=tol,
            )
            for seed, *errors in zip(seeds, matrix.reshape(-1, d, d), reference, sizes)
        )
        checks.append(results if stacked else results[0])
    return checks


def _activated_products(net: ConcreteNet, trace: ForwardTrace, stop: int = 0):
    """Yield (j, the activated product formula of dX[L]/dX[j]) for j = L - 1
    down to ``stop``, each extending the one before by one factor.

    chain:  diag(g'(z_L)) M_L * ... * diag(g'(z_{j+1})) M_{j+1}
    resnet: the same with (I + M_i) in place of M_i.

    Each diag(g') scales the rows of the factor after it, which gives the
    same bits as the d x d product with the diagonal matrix.
    """
    import numpy as np

    chain = activated_kind(net.spec) == "chain"
    product = np.eye(net.dim)
    for i in range(net.depth, stop, -1):
        gprime = 1.0 - np.tanh(trace.preactivations[i - 1]) ** 2
        inner = net.matrix(i)
        if not chain:
            inner = np.eye(net.dim) + inner
        product = product @ (gprime[:, None] * inner)
        del inner  # one d x d matrix less held while the caller works
        yield i - 1, product


def finite_diff_checks(
    net: ConcreteNet,
    wrts: Sequence[int],
    epsilon: float = 1e-5,
    x0: np.ndarray | None = None,
    tol: float = 1e-4,
) -> list[JacobianCheckResult]:
    """Central-difference Jacobian vs the activated product formula, one
    result for each j of ``wrts``, in that order.

    Only defined for tanh-activated built-in chains (lag-1 recursions), so
    perturbing X[j] and rerunning the tail of the recursion is well posed.
    One forward pass serves every j, and each product formula extends the
    one for the j after it, which gives the bits of a product of its own.
    """
    import numpy as np

    if net.activation != "tanh":
        raise ActivationError("finite_diff_check requires a tanh-activated net")
    if not 0.0 < epsilon <= 1e-2:
        raise ValueError(f"epsilon must be in (0, 1e-2], got {epsilon}")
    L, d = net.depth, net.dim
    for j in wrts:
        if not 0 <= j < L:
            raise ValueError(f"wrt index must be in [0, {L - 1}], got {j}")
    if x0 is None:
        rng = np.random.default_rng(((net.seed or 0) % (1 << 64), 1))
        x0 = rng.uniform(-0.5, 0.5, size=d)
    x0 = np.asarray(x0, dtype=float)

    trace = forward(net, x0)
    bases = {j: x0 if j == 0 else trace.state(j) for j in wrts}
    for j, base in bases.items():
        if np.any(base + epsilon == base) or np.any(base - epsilon == base):
            raise ValueError(
                f"epsilon {epsilon:g} is below the spacing of X[{j}]: a bumped"
                " coordinate rounds back to its start"
            )
    # Column k of the Jacobian starts from X[j] +- epsilon * e_k.  The
    # columns go through the remaining layers in blocks of n: rows r and
    # n + r of a block's stack are the starts of its r-th column, and only
    # the last layer's stack is kept.  A stack holds at most CHUNK_ENTRIES
    # entries, so every d <= 128 is one block.
    width = max(1, CHUNK_ENTRIES // (2 * d))
    errors = {}
    for j, formula in _activated_products(net, trace, min(bases, default=L)):
        if j not in bases:
            continue
        numeric = np.empty((d, d))
        for k in range(0, d, width):
            n = min(width, d - k)
            bumps = epsilon * np.eye(n, d, k)
            starts = np.concatenate([bases[j] + bumps, bases[j] - bumps])[:, :, None]
            for _, ends in _layers(net, starts, j):
                pass
            numeric[:, k : k + n] = ((ends[:n, :, 0] - ends[n:, :, 0]) / (2 * epsilon)).T
        errors[j] = relative_error(numeric, formula)
    return [
        JacobianCheckResult(
            spec=net.spec.name,
            L=L,
            j=j,
            d=d,
            seed=net.seed,
            activation="tanh",
            error=errors[j],
            tol=tol,
        )
        for j in wrts
    ]


def finite_diff_check(
    net: ConcreteNet,
    j: int,
    epsilon: float = 1e-5,
    x0: np.ndarray | None = None,
    tol: float = 1e-4,
) -> JacobianCheckResult:
    """finite_diff_checks of the one index ``j``."""
    return finite_diff_checks(net, [j], epsilon, x0, tol)[0]
