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

Each function imports numpy in its body, so importing this module (as
``recur`` and ``recur.cli`` do) leaves numpy unloaded until the first
numeric call: the symbolic commands start without it.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import NamedTuple, Sequence

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


# eval_polynomial batches its matmuls over chunks of at most CHUNK_ENTRIES
# // (S * d**2) consecutive terms and NODES_PER_TERM times as many products,
# S the net's seeds: one batched step holds at most CHUNK_ENTRIES float64
# entries (256 KB) over the whole stack.  Its working memory stays a small
# multiple of that, plus one matrix per seed and factor of the longest term,
# whatever the number of terms or seeds.  The products of a chunk are
# counted as if each term shared only the prefix of the term before it; the
# chunk's prefix trie never holds more.  On verify's linear sweep at 3 seeds
# (every j, d = 4..16), 2**15 entries a step took 150 ms against 242 ms for
# 2**13 per seed.  Batching pays from about MIN_CHUNK_TERMS terms a chunk:
# the term-by-term loop runs each product once for every seed too, and 24
# against 12 took the same sweep at d = 24..32 from 48 to 40 ms, d = 4..16
# unchanged.  With fewer terms (small polynomials, S * d**2 > 1365) the
# terms go one by one, and no schedule is made.  Each batched matmul costs a
# fixed amount, one per level of each chunk, so a schedule pays only when
# its levels hold at least MIN_NODES_PER_LEVEL products on average.  Chains
# such as newarch's, each term extending the one before, make one product a
# level and go one by one: at L = 24, d = 16 (25 terms) 0.165 ms batched
# against 0.130 term by term, while appendix-ex1's 34 terms at L = 7 make
# 4.7 a level and take 0.134 ms batched against 0.335.
CHUNK_ENTRIES = 1 << 15
NODES_PER_TERM = 4
MIN_CHUNK_TERMS = 24
MIN_NODES_PER_LEVEL = 2
# _schedule reads the terms in groups of about GROUP_CELLS code points
# (terms x (1 + longest term)), or of one chunk where that is more, so its
# temporaries do not grow with the number of terms.
GROUP_CELLS = 1 << 14


class _Schedule(NamedTuple):
    """How eval_polynomial computes one polynomial's terms, chunk by chunk.

    Each chunk is the prefix trie of its terms: one product (a node) per
    distinct non-empty prefix, which extends the node of the prefix one
    factor shorter, so a term reuses every prefix product it shares with
    any term of its chunk.  Row 0 of the product buffer holds the identity
    and the rows after it a chunk's nodes, level by level (level = factors
    - 1), so that one batched matmul computes a level.
    """

    size: int  # most terms in a chunk
    rows: int  # rows of the product buffer
    top: int  # largest block index
    chunks: list[tuple[int, int]]  # (terms, levels)
    steps: list[tuple[int, int]]  # per level of each chunk: (level, nodes)
    parents: np.ndarray  # per node: row of the node it extends
    blocks: np.ndarray  # per node: stack index of its last factor
    ends: np.ndarray  # per term: row of its product
    coeffs: np.ndarray  # per term: float64 coefficient, shape (1, 1, 1)


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
    differ in column 0.  No two rows are equal."""
    return (codes[1:] != codes[:-1]).argmax(axis=1) - 1


def _schedule(poly: PathPolynomial, size: int) -> _Schedule:
    """Cut ``poly``'s terms into chunks and lay out each chunk's trie."""
    import numpy as np

    words = list(poly.keys())
    n = len(words)
    lengths = np.fromiter(map(len, words), np.intp, n)
    # Terms are read in groups that start a chunk and hold at least one
    # whole chunk; the chunks that end in a group are laid out together.
    step = max(size + 1, GROUP_CELLS // (1 + int(lengths.max(initial=0))))
    chunks: list[tuple[int, int]] = []
    steps: list[tuple[int, int]] = []
    layouts = [np.empty((2, 0), np.intp)]  # per group: its nodes' parents, blocks
    ends = np.empty(n, np.intp)
    most = 0  # most nodes in a chunk
    low = 0
    while low < n:
        high = min(n, low + step)
        codes = _codes(words[low:high], lengths[low:high])
        # A chunk from term a takes the terms after it while it holds at
        # most size terms and NODES_PER_TERM * size products: all of a's,
        # and those each later term adds to the term before it.
        added = lengths[low:high].copy()
        added[1:] -= _shared(codes)
        total = np.cumsum(added)
        stop = np.searchsorted(
            total, total + (NODES_PER_TERM * size - lengths[low:high]), "right"
        )
        cuts = [0]
        while cuts[-1] < high - low:
            a = cuts[-1]
            b = max(a + 1, min(int(stop[a]), a + size))
            if b == high - low and high < n:
                break  # the chunk may go on past the group
            cuts.append(b)
        high = low + cuts[-1]
        sizes = np.diff(cuts)
        codes = codes[: high - low]
        codes[:, 0] = np.repeat(np.arange(len(sizes)), sizes)
        # Sorted by chunk and then by code point, each term shares its
        # longest prefix within its chunk with the term before it; the
        # first term of a chunk shares -1.
        order = np.argsort(codes.view(f"V{codes.itemsize * codes.shape[1]}").ravel())
        codes = codes[order]
        shared = np.zeros(high - low, np.intp)
        shared[1:] = _shared(codes)
        new = (codes[:, 1:] != 0) & (np.arange(codes.shape[1] - 1) >= shared[:, None])
        # made[k, l]: how many nodes the terms up to k make at level l;
        # upto: that many at the end of each chunk; counts: each chunk's own.
        made = np.cumsum(new, axis=0)
        upto = made[np.cumsum(sizes) - 1]
        counts = np.diff(upto, axis=0, prepend=0)
        # prefix[k, l + 1] is the row of the last node made at level l up to
        # term k, in its chunk's buffer: that of term k's prefix of l + 1
        # factors.  prefix[k, 0] is the identity's row.
        prefix = np.zeros(codes.shape, np.intp)
        offsets = np.cumsum(counts, axis=1) - upto
        prefix[:, 1:] = made + np.repeat(offsets, sizes, axis=0)
        per_chunk = counts.sum(axis=1)
        # Each new node's index among the group's nodes, chunk by chunk.
        at = np.repeat(np.cumsum(per_chunk) - per_chunk - 1, sizes)[:, None]
        at = (at + prefix[:, 1:])[new]
        layout = np.empty((2, len(at)), np.intp)
        layout[0, at] = prefix[:, :-1][new]
        layout[1, at] = codes[:, 1:][new]
        layouts.append(layout)
        ends[low + order] = prefix[np.arange(high - low), lengths[low + order]]
        for terms, level_counts in zip(sizes.tolist(), counts.tolist()):
            levels = len(level_counts) - level_counts.count(0)
            chunks.append((terms, levels))
            steps.extend(zip(range(levels), level_counts))
        most = max(most, int(per_chunk.max()))
        low = high

    parents, blocks = np.concatenate(layouts, axis=1)
    blocks -= 1  # stack indices
    try:
        coeffs = np.fromiter(map(itemgetter(1), poly.items()), float, n)
    except OverflowError:
        coeffs = np.array([_coefficient(coeff) for _, coeff in poly.items()])
    return _Schedule(
        size,
        1 + most,
        int(blocks.max(initial=-1)) + 1,
        chunks,
        steps,
        parents,
        blocks,
        ends,
        coeffs.reshape(-1, 1, 1, 1),
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


def eval_polynomial(poly: PathPolynomial, net: ConcreteNet) -> np.ndarray:
    """Evaluate a path polynomial as a d x d matrix, or as one per seed,
    (S, d, d), on a stacked net.

    Factors multiply in listed order (leftmost factor leftmost in the
    product); the identity term contributes the identity matrix.

    Terms are cut, in insertion order, into chunks (see _Schedule).  A
    chunk costs one batched matmul per prefix length and one ordered sum
    into the running total, each over every seed of the net.  Every product
    is the same left-to-right chain and the sum runs in term order, so the
    result is bit-identical to evaluating the terms one by one, for one
    seed at a time, as is done when a chunk would hold fewer than
    MIN_CHUNK_TERMS terms, or the schedule's levels fewer than
    MIN_NODES_PER_LEVEL products on average.  The schedule depends only on
    the terms and the chunk size, so it is kept on ``poly`` and reused.
    """
    import numpy as np

    shape = net.stack.shape[1:]
    d = net.dim
    # The same loop serves both shapes: a one-seed net is a stack of S = 1.
    stack = net.stack.reshape(net.depth, -1, d, d)
    size = CHUNK_ENTRIES // stack[0].size
    if min(size, len(poly)) < MIN_CHUNK_TERMS:
        return _eval_term_by_term(poly, net)
    schedule = getattr(poly, "_schedule", None)
    if schedule is not None:
        top = schedule.top
    else:
        top = ord(max(map(max, filter(None, poly.keys())), default="\0"))
    if top > net.depth:
        # The first block out of range, in term order, raises IndexError.
        for word in poly.keys():
            for code in word:
                net.matrix(ord(code))
    if schedule is None or schedule.size != size:
        schedule = poly._schedule = _schedule(poly, size)
    if len(schedule.parents) < MIN_NODES_PER_LEVEL * len(schedule.steps):
        return _eval_term_by_term(poly, net)
    parents, blocks, ends, coeffs = (
        schedule.parents, schedule.blocks, schedule.ends, schedule.coeffs
    )
    products = np.empty((schedule.rows, *stack.shape[1:]))
    products[0] = np.eye(d)
    # Row 0 holds the running total.  The zero pad column keeps the inner
    # loop of add.reduce off axis 0, so it adds the rows in order even at
    # d = 1, where numpy would otherwise sum a contiguous axis pairwise.
    weighted = np.zeros((min(size, len(poly)) + 1, len(stack[0]), d, d + 1))
    steps = iter(schedule.steps)
    node = end = 0
    for terms, levels in schedule.chunks:
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
            products[ends[end : end + terms]],
            out=weighted[1 : terms + 1, ..., :d],
        )
        end += terms
        weighted[0] = np.add.reduce(weighted[: terms + 1], axis=0)
    return weighted[0, ..., :d].reshape(shape).copy()


def _eval_term_by_term(poly: PathPolynomial, net: ConcreteNet) -> np.ndarray:
    """eval_polynomial one term at a time, each reusing the prefix products
    it shares with the term before it."""
    import numpy as np

    d = net.dim
    total = np.zeros(net.stack.shape[1:])
    previous = ""
    prefix: list[np.ndarray] = []  # prefix[k]: product of previous[: k + 1]
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
    return total


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


def check_derivative(
    net: ConcreteNet, poly: PathPolynomial, j: int, tol: float = 1e-10
) -> JacobianCheckResult | tuple[JacobianCheckResult, ...]:
    """Compare eval_polynomial(poly) against the basis-propagation Jacobian:
    one result, or one per seed, in seed order, on a stacked net.

    A zero polynomial has no relative error: the reference, which rounding
    may leave a few ulps off zero, is measured against the magnitude of the
    propagation that made it.
    """
    d = net.dim
    observed = eval_polynomial(poly, net).reshape(-1, d, d)
    reference = jacobian_exact(net, j).reshape(-1, d, d)
    sizes = [None] * len(observed)
    if not poly:
        sizes = jacobian_exact(net, j, magnitude=True).reshape(-1, d, d)
    stacked = net.stack.ndim == 4
    seeds = net.seed if stacked and net.seed else [net.seed] * len(observed)
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
        for seed, *errors in zip(seeds, observed, reference, sizes)
    )
    return results if stacked else results[0]


def _activated_product_jacobian(
    net: ConcreteNet, trace: ForwardTrace, j: int
) -> np.ndarray:
    """The activated chain/resnet product formula with captured g' factors.

    chain:  diag(g'(z_L)) M_L * ... * diag(g'(z_{j+1})) M_{j+1}
    resnet: the same with (I + M_i) in place of M_i.

    Each diag(g') scales the rows of the factor after it, which gives the
    same bits as the d x d product with the diagonal matrix.
    """
    import numpy as np

    kind = activated_kind(net.spec)
    d = net.dim
    eye = np.eye(d)
    product = np.eye(d)
    for i in range(net.depth, j, -1):
        z = trace.preactivations[i - 1]
        gprime = 1.0 - np.tanh(z) ** 2
        inner = net.matrix(i) if kind == "chain" else eye + net.matrix(i)
        product = product @ (gprime[:, None] * inner)
    return product


def finite_diff_check(
    net: ConcreteNet,
    j: int,
    epsilon: float = 1e-5,
    x0: np.ndarray | None = None,
    tol: float = 1e-4,
) -> JacobianCheckResult:
    """Central-difference Jacobian vs the activated product formula.

    Only defined for tanh-activated built-in chains (lag-1 recursions), so
    perturbing X[j] and rerunning the tail of the recursion is well posed.
    """
    import numpy as np

    if net.activation != "tanh":
        raise ActivationError("finite_diff_check requires a tanh-activated net")
    if not 0.0 < epsilon <= 1e-2:
        raise ValueError(f"epsilon must be in (0, 1e-2], got {epsilon}")
    L, d = net.depth, net.dim
    if not 0 <= j < L:
        raise ValueError(f"wrt index must be in [0, {L - 1}], got {j}")
    if x0 is None:
        rng = np.random.default_rng(((net.seed or 0) % (1 << 64), 1))
        x0 = rng.uniform(-0.5, 0.5, size=d)
    x0 = np.asarray(x0, dtype=float)

    trace = forward(net, x0)
    formula = _activated_product_jacobian(net, trace, j)

    # Column k of the Jacobian starts from X[j] +- epsilon * e_k.  The
    # columns go through the remaining layers in blocks of n: rows r and
    # n + r of a block's stack are the starts of its r-th column, and only
    # the last layer's stack is kept.  A stack holds at most CHUNK_ENTRIES
    # entries, so every d <= 128 is one block.
    base = x0 if j == 0 else trace.state(j)
    if np.any(base + epsilon == base) or np.any(base - epsilon == base):
        raise ValueError(
            f"epsilon {epsilon:g} is below the spacing of X[{j}]: a bumped"
            " coordinate rounds back to its start"
        )
    numeric = np.empty((d, d))
    width = max(1, CHUNK_ENTRIES // (2 * d))
    for k in range(0, d, width):
        n = min(width, d - k)
        bumps = epsilon * np.eye(n, d, k)
        starts = np.concatenate([base + bumps, base - bumps])[:, :, None]
        for _, ends in _layers(net, starts, j):
            pass
        numeric[:, k : k + n] = ((ends[:n, :, 0] - ends[n:, :, 0]) / (2 * epsilon)).T

    return JacobianCheckResult(
        spec=net.spec.name,
        L=L,
        j=j,
        d=d,
        seed=net.seed,
        activation="tanh",
        error=relative_error(numeric, formula),
        tol=tol,
    )
