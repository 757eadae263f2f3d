"""Matrix instantiation of recursion formulas and Jacobian checks.

Blocks become random d x d matrices, so every symbolic path polynomial can
be evaluated numerically and compared against two independent references:
an exact Jacobian obtained by propagating basis vectors through the affine
recursion, and a central-difference Jacobian for the activated built-in
chains.  tanh is the activation (smooth, so central differences behave).

Each function imports numpy in its body, so importing this module (as
``recur`` and ``recur.cli`` do) leaves numpy unloaded until the first
numeric call: the symbolic commands start without it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Factors, PathPolynomial
from .builtins import activated_kind
from .errors import ActivationError, SizeError
from .parser import ArchitectureSpec

# L * d * d float64 entries instantiate may allocate: 256 MB.
MAX_MATRIX_ENTRIES = 1 << 25


@dataclass(frozen=True)
class ConcreteNet:
    """One matrix realization of a spec at a fixed depth and width."""

    spec: ArchitectureSpec
    matrices: tuple[np.ndarray, ...]  # matrices[i-1] realizes W[i]
    activation: str | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        import numpy as np

        d = self.matrices[0].shape[0]
        for m in self.matrices:
            if m.shape != (d, d):
                raise ValueError("all block matrices must share one square shape")
            if not np.all(np.isfinite(m)):
                raise ValueError("block matrices must be finite")
        if self.activation is not None:
            if self.activation != "tanh":
                raise ValueError(f"unsupported activation {self.activation!r}")
            if activated_kind(self.spec) is None:
                raise ActivationError(
                    "tanh is only defined for the built-in chain and resnet"
                    " recursions"
                )

    @property
    def depth(self) -> int:
        return len(self.matrices)

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]

    def matrix(self, index: int) -> np.ndarray:
        """The matrix realizing W[index] (1-based)."""
        if not 1 <= index <= self.depth:
            raise IndexError(f"block index {index} outside [1, {self.depth}]")
        return self.matrices[index - 1]


def instantiate(
    spec: ArchitectureSpec,
    L: int,
    d: int,
    seed: int = 0,
    activation: str | None = None,
) -> ConcreteNet:
    """Draw block matrices i.i.d. uniform on [-0.5, 0.5], scaled by 1/sqrt(d).

    Deterministic for a given seed; the scaling keeps products of (1 + W)
    factors well conditioned at the depths used for verification.  Raises
    SizeError, before allocating, when L * d * d exceeds MAX_MATRIX_ENTRIES.
    """
    import numpy as np

    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if L < 1:
        raise ValueError(f"depth must be >= 1, got {L}")
    if L * d * d > MAX_MATRIX_ENTRIES:
        raise SizeError(
            f"L * d * d = {L * d * d} matrix entries, cap is {MAX_MATRIX_ENTRIES}"
        )
    rng = np.random.default_rng(seed % (1 << 64))
    matrices = tuple(
        rng.uniform(-0.5, 0.5, size=(d, d)) / np.sqrt(d) for _ in range(L)
    )
    return ConcreteNet(spec=spec, matrices=matrices, activation=activation, seed=seed)


@dataclass(frozen=True)
class ForwardTrace:
    """States X[1..L] of one tanh forward pass and their pre-activations."""

    states: tuple[np.ndarray, ...]
    preactivations: tuple[np.ndarray, ...]

    def state(self, i: int) -> np.ndarray:
        if not 1 <= i <= len(self.states):
            raise IndexError(f"state index {i} outside [1, {len(self.states)}]")
        return self.states[i - 1]


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
    kind = activated_kind(net.spec)
    states: list[np.ndarray] = []
    preacts: list[np.ndarray] = []
    current = x0
    for i in range(1, net.depth + 1):
        z = net.matrix(i) @ current
        if kind == "resnet":
            z = current + z
        current = np.tanh(z)
        preacts.append(z)
        states.append(current)
    return ForwardTrace(states=tuple(states), preactivations=tuple(preacts))


def eval_polynomial(poly: PathPolynomial, net: ConcreteNet) -> np.ndarray:
    """Evaluate a path polynomial as a d x d matrix.

    Factors multiply in listed order (leftmost factor leftmost in the
    product); the identity term contributes the identity matrix.

    Terms are visited in insertion order, and each reuses the products of
    the prefix it shares with the term before it: ``poly_mul`` appends new
    factors right after their prefix term, so most terms cost one matmul.
    Every product is the same left-to-right chain and the sum runs in the
    same order as term-by-term evaluation, so the result is bit-identical
    to it; the extra memory is one matrix per factor of the longest term.
    """
    import numpy as np

    d = net.dim
    total = np.zeros((d, d))
    previous: Factors = ()
    prefix: list[np.ndarray] = []  # prefix[k]: product of previous[: k + 1]
    for factors, coeff in poly.coefficients.items():
        shared = 0
        for a, b in zip(previous, factors):
            if a != b:
                break
            shared += 1
        del prefix[shared:]
        for index in factors[shared:]:
            block = net.matrix(index)
            prefix.append(prefix[-1] @ block if prefix else block)
        previous = factors
        total += coeff * (prefix[-1] if prefix else np.eye(d))
    return total


def jacobian_exact(net: ConcreteNet, j: int) -> np.ndarray:
    """Exact Jacobian dX[L]/dX[j] by propagating basis vectors.

    Works directly on the affine recursion and never touches the path
    polynomials, so it is an independent reference for eval_polynomial.
    """
    import numpy as np

    if net.activation is not None:
        raise ActivationError("jacobian_exact requires an unactivated net")
    L, d = net.depth, net.dim
    if not 0 <= j <= L:
        raise ValueError(f"wrt index must be in [0, {L}], got {j}")
    if j == L:
        return np.eye(d)
    sensitivities: dict[int, np.ndarray] = {j: np.eye(d)}
    for i in range(j + 1, L + 1):
        acc = np.zeros((d, d))
        for source, coeff in net.spec.instantiate_terms(i):
            if source in sensitivities:
                acc = acc + eval_polynomial(coeff, net) @ sensitivities[source]
        sensitivities[i] = acc
    return sensitivities[L]


@dataclass(frozen=True)
class JacobianCheckResult:
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


def relative_error(observed: np.ndarray, reference: np.ndarray) -> float:
    import numpy as np

    scale = np.linalg.norm(reference)
    if scale == 0.0:
        return float(np.linalg.norm(observed - reference))
    return float(np.linalg.norm(observed - reference) / scale)


def check_derivative(
    net: ConcreteNet, poly: PathPolynomial, j: int, tol: float = 1e-10
) -> JacobianCheckResult:
    """Compare eval_polynomial(poly) against the basis-propagation Jacobian."""
    observed = eval_polynomial(poly, net)
    reference = jacobian_exact(net, j)
    return JacobianCheckResult(
        spec=net.spec.name,
        L=net.depth,
        j=j,
        d=net.dim,
        seed=net.seed,
        activation=None,
        error=relative_error(observed, reference),
        tol=tol,
    )


def _activated_product_jacobian(
    net: ConcreteNet, trace: ForwardTrace, j: int
) -> np.ndarray:
    """The activated chain/resnet product formula with captured g' factors.

    chain:  diag(g'(z_L)) M_L * ... * diag(g'(z_{j+1})) M_{j+1}
    resnet: the same with (I + M_i) in place of M_i.
    """
    import numpy as np

    kind = activated_kind(net.spec)
    d = net.dim
    eye = np.eye(d)
    product = np.eye(d)
    for i in range(net.depth, j, -1):
        z = trace.preactivations[i - 1]
        gprime = np.diag(1.0 - np.tanh(z) ** 2)
        inner = net.matrix(i) if kind == "chain" else eye + net.matrix(i)
        product = product @ (gprime @ inner)
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

    trace = forward(net, x0)
    formula = _activated_product_jacobian(net, trace, j)

    kind = activated_kind(net.spec)
    base = x0 if j == 0 else trace.state(j)

    def tail(start: np.ndarray) -> np.ndarray:
        current = start
        for i in range(j + 1, L + 1):
            z = net.matrix(i) @ current
            if kind == "resnet":
                z = current + z
            current = np.tanh(z)
        return current

    numeric = np.zeros((d, d))
    for k in range(d):
        bump = np.zeros(d)
        bump[k] = epsilon
        numeric[:, k] = (tail(base + bump) - tail(base - bump)) / (2 * epsilon)

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
