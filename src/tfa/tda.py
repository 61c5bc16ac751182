"""Training-data attribution scores.

One kernel, attribution_scores, scores an (N, p) matrix G of training-loss
gradients against the test-loss gradient g, oriented so positive = helpful:

    grad-cos     G_i g / (||G_i|| ||g||)
    grad-effect  epsilon G_i g / ||G_i||^2
    influence    G_i u, where u = (H + lam I)^-1 g: one single-vector solve per g
    relatif      G_i u / ||V_i||, where V = (H + lam I)^-1 G'

grad_cos and grad_effect score one train/test pair as a one-row call of
the kernel; grad_effect keeps the loss-change sign (negative = helpful), the
test-loss change that its step predicts. One degenerate rule holds
throughout: a gradient of norm at most DEGENERATE_NORM has no direction.
rank_training_set skips such training rows with a warning; anywhere else it
is an error. rank_training_set keeps g, G's row norms, u and V's norms in the
model's store.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .models import Dataset, LabeledExample, Model, ParamVector

HESSIAN_METHODS = ("influence", "relatif")  # the methods that solve against a DampedHessian
METHODS = ("grad-cos", "grad-effect", *HESSIAN_METHODS)

DEGENERATE_NORM = 1e-12
DENSE_HESSIAN_MAX_PARAMS = 20_000  # H holds p*p doubles (3.2 GB at the cap), DampedHessian's eigh about 5p*p (16 GB)


class DegenerateGradientError(ValueError):
    """A loss gradient is numerically zero, so direction is undefined."""

    def __init__(self, side: str, norm: float):
        self.side = side
        self.norm = norm
        super().__init__(
            f"{side} gradient norm {norm:.3e} is below {DEGENERATE_NORM:.0e}; "
            "its direction is undefined"
        )


class InsufficientDampingError(RuntimeError):
    """H + lam I is not positive definite at the requested damping."""

    def __init__(self, lam: float, smallest_eigenvalue: float):
        self.lam = lam
        self.smallest_eigenvalue = smallest_eigenvalue
        super().__init__(
            f"H + {lam:.3e} I is not positive definite "
            f"(smallest eigenvalue {smallest_eigenvalue:.3e}); increase damping"
        )


def query_gradient(model: Model, params: ParamVector, z_test: LabeledExample) -> np.ndarray:
    """Parameter gradient of the test example's loss at its own label, read-only.

    The model keeps the last one for these params and z_test objects, so
    rankings and saliency maps of one test example compute it, and check its
    norm, once. A degenerate one raises DegenerateGradientError("test", ...).
    """
    def build():
        g = model.param_grad(params, z_test)
        _checked_norm(g, "test")
        return g
    return model._keep("query", build, params, z_test)


@dataclass(eq=False)
class DampedHessian:
    """Dense symmetric Hessian of the mean training loss, trusted not to change.

    H = Q diag(w) Q' is taken once, at first use, by one eigendecomposition,
    and answers everything: lambda_min is w[0], H + lam I is positive
    definite exactly when w[0] + lam > 0, and a solve at any damping is
    Q (Q'v / (w + lam)), so a new damping costs no new factorization.
    Damping is chosen per solve, damping() when none is given.
    """

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray_chkfinite(self.matrix, dtype=np.float64)  # a NaN or inf passes the asymmetry check
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("Hessian must be square")
        bands = (self.matrix[r : r + 64] - self.matrix[:, r : r + 64].T for r in range(0, self.dim, 64))
        asym = max((np.abs(band).max() for band in bands), default=0.0)  # in row bands: no p x p temporary
        if asym > 1e-8:
            raise ValueError(f"Hessian asymmetry {asym:.3e} too large")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def default_damping(self) -> float:
        """1e-3 * trace(H) / p; a scale-aware floor for the solves."""
        return 1e-3 * float(np.trace(self.matrix)) / self.dim

    @cached_property
    def _eigh(self) -> tuple:
        """(w, Q): H's eigenvalues in ascending order and its orthonormal eigenvectors."""
        return np.linalg.eigh(self.matrix)

    @property
    def lambda_min(self) -> float:
        """Smallest eigenvalue of H."""
        return float(self._eigh[0][0])

    def damping(self) -> float:
        """default_damping() plus 1.1 |lambda_min| when H is indefinite.

        A model that is not at a minimum has an indefinite Hessian; damping
        past its most negative eigenvalue keeps H + lam I positive definite,
        with smallest eigenvalue at least 0.099 |lambda_min|. On a positive
        definite H this is default_damping() exactly.
        """
        return self.default_damping() + max(0.0, -1.1 * self.lambda_min)

    def solve(self, v: np.ndarray, lam: float | None = None) -> np.ndarray:
        """(H + lam I)^-1 v = Q (Q'v / (w + lam)) for v of shape (p,) or (p, k), lam defaulting to damping().

        Raises InsufficientDampingError if H + lam I is not positive definite.
        """
        Q, shifted = self._damped(lam)
        return Q @ ((Q.T @ np.asarray_chkfinite(v)).T / shifted).T

    def response_norms(self, G: np.ndarray, lam: float | None = None) -> np.ndarray:
        """||(H + lam I)^-1 G_i|| for each row of G: the row norms of G Q / (w + lam), Q being orthogonal."""
        Q, shifted = self._damped(lam)
        return np.linalg.norm(np.asarray_chkfinite(G) @ Q / shifted, axis=1)

    def _damped(self, lam: float | None) -> tuple:
        """(Q, w + lam); ValueError for a non-finite lam, InsufficientDampingError unless w[0] + lam > 0."""
        lam = self.damping() if lam is None else float(lam)
        if not np.isfinite(lam):
            raise ValueError(f"damping must be finite, got {lam}")
        w, Q = self._eigh
        if not w[0] + lam > 0:
            raise InsufficientDampingError(lam, float(w[0] + lam))
        return Q, w + lam


def dense_hessian(model: Model, params: ParamVector, dataset: Dataset) -> DampedHessian:
    """Hessian of the mean loss over the dataset, column by column.

    The forward and the first backward are recorded once, the backward up to
    the forward's reads of theta: one take per parameter slice, in order, or
    ValueError. Column j, entry k of slice s, is the gradient of slice s's
    gradient entry k, swept back only to the reads of slices s, s+1, ... and
    truncated away after it (+ 0.0 turns -0.0 into 0.0, as a scatter into
    theta would). Rows of earlier slices are mirrored from their columns and
    diagonal blocks averaged with their transposes: the bytes of flat-gradient
    columns on a fresh graph each, assembled the same way.
    """
    p = model.num_params
    if p > DENSE_HESSIAN_MAX_PARAMS:
        raise ValueError(f"{p} parameters exceeds the dense-Hessian cap {DENSE_HESSIAN_MAX_PARAMS}: the "
                         f"Hessian's eigendecomposition would hold about 5p*p doubles, {40 * p * p / 1e9:.0f} GB")
    if len(dataset) == 0:
        raise ValueError("Hessian of an empty dataset is undefined")
    graph = ad.Graph()
    theta = graph.leaf(params.data)
    loss = model.record_batch_loss(theta, graph.constant(dataset.X), dataset.y)
    reads = [n for n in graph.nodes if theta in n.parents]
    indices = [n.parents[1].value.ravel() for n in reads if n.kind == "take"]
    if len(indices) < len(reads) or not np.array_equal(np.concatenate(indices), np.arange(p)):
        raise ValueError("the forward must read theta through one take per parameter slice, in order")
    slice_grads = ad.backward(loss, reads)
    mark = len(graph.nodes)
    H = np.empty((p, p))
    b = 0
    for s, (g, columns) in enumerate(zip(slice_grads, indices)):
        a, b = b, b + columns.size
        for k, j in enumerate(columns):
            H[a:, j] = np.concatenate([c.value.ravel() for c in ad.backward(ad.take(g, np.array([k])), reads[s:])]) + 0.0
            graph.truncate(mark)
        H[:a, a:b] = H[a:b, :a].T
        H[a:b, a:b] = (H[a:b, a:b] + H[a:b, a:b].T) / 2.0
    return DampedHessian(H)


def _checked_norm(g: np.ndarray, side: str):
    n = np.linalg.norm(g, axis=-1)
    if np.any(n <= DEGENERATE_NORM):
        raise DegenerateGradientError(side, float(np.min(n)))
    return n


def attribution_scores(
    G: np.ndarray,
    g_test: np.ndarray,
    method: str = "grad-cos",
    *,
    epsilon: float = 1e-3,
    hessian: DampedHessian | None = None,
    lam: float | None = None,
) -> np.ndarray:
    """Oriented scores (positive = helpful) of each gradient row of G (N, p) against g_test."""
    _check_method(method, epsilon, hessian)
    test_norm, norms = _checked_norm(g_test, "test"), _checked_norm(G, "train")
    u = hessian.solve(g_test, lam) if method in HESSIAN_METHODS else g_test
    response = hessian.response_norms(G, lam) if method == "relatif" else None
    return _scores(G, norms, test_norm, u, response, method, epsilon)


def _check_method(method, epsilon, hessian) -> None:
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if method in HESSIAN_METHODS and hessian is None:
        raise ValueError(f"{method} needs a precomputed dense Hessian")
    if not 0 < epsilon < np.inf:
        raise ValueError("epsilon must be positive and finite")


def _scores(G, norms, test_norm, u, response, method, epsilon) -> np.ndarray:
    """The kernel, given G's row norms, g_test's norm, u (g_test itself unless solved) and V's row norms."""
    dots = np.einsum("ij,j->i", G, u)  # unlike a BLAS matvec, equal rows score equal
    if method == "grad-cos":
        return dots / (norms * test_norm)
    if method == "grad-effect":
        return epsilon * dots / norms**2
    return dots / response if method == "relatif" else dots


def grad_cos(model: Model, params: ParamVector, z_train: LabeledExample, z_test: LabeledExample) -> float:
    """Cosine of the train/test loss-gradient pair; in [-1, 1]."""
    g_test = query_gradient(model, params, z_test)
    g_train = model.param_grad(params, z_train)
    return float(attribution_scores(g_train[None, :], g_test, "grad-cos")[0])


def grad_effect(
    model: Model,
    params: ParamVector,
    z_train: LabeledExample,
    z_test: LabeledExample,
    epsilon: float = 1e-3,
) -> float:
    """Predicted test-loss change from one step of size epsilon on z_train.

    The step is theta -> theta - epsilon g_train / ||g_train||^2, i.e. a step
    that reduces the training example's loss by about epsilon. Negative
    output means the test loss is predicted to drop.
    """
    _check_method("grad-effect", epsilon, None)  # before either gradient
    g_test = query_gradient(model, params, z_test)
    g_train = model.param_grad(params, z_train)
    return -float(attribution_scores(g_train[None, :], g_test, "grad-effect", epsilon=epsilon)[0])


class AttributionRecord(NamedTuple):
    train_index: int
    method: str
    score: float


@dataclass
class RankingResult:
    """Records sorted most-helpful-first, plus indices skipped as degenerate."""

    records: list
    skipped: list

    def helpful(self, r: int) -> list:
        if r < 0:  # a negative r would slice from the other end
            raise ValueError(f"r must be non-negative, got {r}")
        return self.records[:r]

    def harmful(self, r: int) -> list:
        return RankingResult(self.records[::-1], self.skipped).helpful(r)


def rank_training_set(
    model: Model,
    params: ParamVector,
    dataset: Dataset,
    z_test: LabeledExample,
    method: str = "grad-cos",
    *,
    epsilon: float = 1e-3,
    hessian: DampedHessian | None = None,
    lam: float | None = None,
) -> RankingResult:
    """Score every training example against one test example and sort.

    Scores are attribution_scores of the matrix of training gradients, so
    positive = helpful for every method. The model keeps that matrix, its
    row norms, the test gradient, u and V's norms for the objects they came
    from: a repeat with the same params, dataset, z_test and hessian computes
    none again.
    Sorting is by descending score, ties broken by ascending train index.
    Degenerate training gradients are skipped with a warning.
    """
    _check_method(method, epsilon, hessian)
    g_test = query_gradient(model, params, z_test)
    test_norm = np.linalg.norm(g_test, axis=-1) if method == "grad-cos" else None  # checked at its build
    G = model.param_grads(params, dataset)
    norms = model._keep("grad_norms", lambda: np.linalg.norm(G, axis=1), params, dataset)
    keep = norms > DEGENERATE_NORM
    skipped = np.flatnonzero(~keep).tolist()
    if skipped:
        message = f"skipped {len(skipped)} training examples with degenerate gradients"
        warnings.warn(message, RuntimeWarning, stacklevel=2)
        G, norms = G[keep], norms[keep]
    kept = lambda slot, build, source: model._keep(slot, build, params, source, hessian, value=lam)
    u = kept("solve", lambda: hessian.solve(g_test, lam), z_test) if method in HESSIAN_METHODS else g_test
    response = kept("norms", lambda: hessian.response_norms(G, lam), dataset) if method == "relatif" else None
    scores = _scores(G, norms, test_norm, u, response, method, epsilon)
    index = np.flatnonzero(keep)
    order = np.lexsort((index, -scores))  # descending score, then ascending index
    pairs = zip(index[order].tolist(), scores[order].tolist())
    record = tuple.__new__  # AttributionRecord's own __new__ adds a Python call per record
    return RankingResult([record(AttributionRecord, (i, method, s)) for i, s in pairs], skipped)
