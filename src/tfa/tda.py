"""Training-data attribution scores.

One kernel, attribution_scores, scores an (N, p) matrix G of training-loss
gradients against the test-loss gradient g, oriented so positive = helpful:

    grad-cos     G_i g / (||G_i|| ||g||)
    grad-effect  epsilon G_i g / ||G_i||^2
    influence    G_i u, where u = (H + lam I)^-1 g: one single-vector solve per query
    relatif      G_i u / ||V_i||, where V = (H + lam I)^-1 G', its norms kept per (G, lam)

The pair scorers are one-row calls of the kernel; grad_effect,
influence_function and relatif keep the loss-change sign (negative =
helpful). One degenerate rule holds throughout: a gradient of norm at most
DEGENERATE_NORM has no direction. rank_training_set skips such training
rows with a warning; anywhere else it is an error.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from . import autodiff as ad
from .models import Dataset, LabeledExample, Model, ParamVector

METHODS = ("grad-cos", "grad-effect", "influence", "relatif")

DEGENERATE_NORM = 1e-12


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


def query_gradient(
    model: Model,
    params: ParamVector,
    z_test: LabeledExample,
    kind: str = "cross-entropy",
) -> np.ndarray:
    """Parameter gradient of the test example's loss at its own label, read-only.

    The model keeps the last one, keyed like Model.param_grads, so rankings
    and saliency maps for one test image compute it once.
    """
    build = lambda: model.param_grad(params, z_test, kind)
    return model._keep("query", build, kind, params.data, z_test.x, z_test.y)


@dataclass
class DampedHessian:
    """Dense symmetric Hessian of the mean training loss.

    Damping is chosen per solve, damping() when none is given; the Cholesky
    factorization of H + lam I is kept for the last damping only, as are the
    last response_norms. lambda_min, the smallest eigenvalue, is computed on
    first use only, since a solve at a given damping does not need it.
    """

    matrix: np.ndarray
    _factor: tuple | None = field(default=None, repr=False)  # (lam, Cholesky factor)
    _norms: tuple | None = field(default=None, repr=False)  # (weakref to G, lam, norms)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("Hessian must be square")
        asym = np.abs(self.matrix - self.matrix.T).max() if self.matrix.size else 0.0
        if asym > 1e-8:
            raise ValueError(f"Hessian asymmetry {asym:.3e} too large")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def default_damping(self) -> float:
        """1e-3 * trace(H) / p; a scale-aware floor for the solves."""
        return 1e-3 * float(np.trace(self.matrix)) / self.dim

    @cached_property
    def lambda_min(self) -> float:
        """Smallest eigenvalue of H."""
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def damping(self) -> float:
        """default_damping() plus 1.1 |lambda_min| when H is indefinite.

        A model that is not at a minimum has an indefinite Hessian; damping
        past its most negative eigenvalue keeps H + lam I positive definite,
        with smallest eigenvalue at least 0.099 |lambda_min|. On a positive
        definite H this is default_damping() exactly.
        """
        return self.default_damping() + max(0.0, -1.1 * self.lambda_min)

    def solve(self, v: np.ndarray, lam: float | None = None) -> np.ndarray:
        """(H + lam I)^-1 v by Cholesky, lam defaulting to damping().

        Raises InsufficientDampingError if H + lam I is not positive definite.
        """
        lam = self.damping() if lam is None else float(lam)
        if self._factor is None or self._factor[0] != lam:
            try:
                self._factor = (lam, cho_factor(self.matrix + lam * np.eye(self.dim)))
            except LinAlgError:
                raise InsufficientDampingError(lam, self.lambda_min + lam) from None
        return cho_solve(self._factor[1], v)

    def response_norms(self, G: np.ndarray, lam: float | None = None) -> np.ndarray:
        """||(H + lam I)^-1 G_i|| for each row of G, by one N-column solve.

        Kept, with G held weakly, for the next call with the same lam and the
        same G if G is read-only and owns its data, as Model.param_grads's is.
        """
        kept = self._norms
        if kept is not None and kept[0]() is G and kept[1] == lam:
            return kept[2]
        norms = np.linalg.norm(self.solve(G.T, lam).T, axis=1)
        if G.base is None and not G.flags.writeable:
            self._norms = (weakref.ref(G), lam, norms)
        return norms


def dense_hessian(
    model: Model,
    params: ParamVector,
    dataset: Dataset,
    kind: str = "cross-entropy",
    max_params: int = 20_000,
) -> DampedHessian:
    """Hessian of the mean loss over the dataset, column by column.

    The forward pass and the first backward are recorded once. Column j is
    then the gradient of (gradient of the mean loss)_j, a second sweep on
    that shared graph, which is truncated back to the first backward after
    each column, so only one column's sweep is held at a time. The columns
    are bitwise equal to sweeps on a fresh graph each. The result is
    symmetrized; the raw asymmetry is a few ulps of roundoff.
    """
    p = model.num_params
    if p > max_params:
        raise ValueError(f"{p} parameters exceeds the dense-Hessian cap {max_params}")
    if len(dataset) == 0:
        raise ValueError("Hessian of an empty dataset is undefined")
    graph = ad.Graph()
    theta = graph.leaf(params.data)
    loss = model.record_batch_loss(theta, graph.constant(dataset.X), dataset.y, kind)
    (g,) = ad.backward(loss, [theta])
    mark = len(graph.nodes)
    H = np.empty((p, p))
    for j in range(p):
        H[:, j] = ad.grad(ad.take(g, np.array([j])), theta)
        graph.truncate(mark)
    return DampedHessian((H + H.T) / 2.0)


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
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if method in ("influence", "relatif") and hessian is None:
        raise ValueError(f"{method} needs a precomputed dense Hessian")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    test_norm = _checked_norm(g_test, "test")
    norms = _checked_norm(G, "train")
    u = hessian.solve(g_test, lam) if method in ("influence", "relatif") else g_test
    dots = np.einsum("ij,j->i", G, u)  # unlike a BLAS matvec, equal rows score equal
    if method == "grad-cos":
        return dots / (norms * test_norm)
    if method == "grad-effect":
        return epsilon * dots / norms**2
    return dots / hessian.response_norms(G, lam) if method == "relatif" else dots


def _loss_change(g_train: np.ndarray, g_test: np.ndarray, method: str, **kwargs) -> float:
    """One pair's score on the loss-change convention: negative = helpful."""
    return -float(attribution_scores(np.asarray(g_train)[None, :], g_test, method, **kwargs)[0])


def grad_cos(
    model: Model,
    params: ParamVector,
    z_train: LabeledExample,
    z_test: LabeledExample,
    kind: str = "cross-entropy",
) -> float:
    """Cosine of the train/test loss-gradient pair; in [-1, 1]."""
    g_test = query_gradient(model, params, z_test, kind)
    g_train = model.param_grad(params, z_train, kind)
    return float(attribution_scores(g_train[None, :], g_test, "grad-cos")[0])


def grad_effect(
    model: Model,
    params: ParamVector,
    z_train: LabeledExample,
    z_test: LabeledExample,
    epsilon: float = 1e-3,
    kind: str = "cross-entropy",
) -> float:
    """Predicted test-loss change from one step of size epsilon on z_train.

    The step is theta -> theta - epsilon g_train / ||g_train||^2, i.e. a step
    that reduces the training example's loss by about epsilon. Negative
    output means the test loss is predicted to drop.
    """
    g_test = query_gradient(model, params, z_test, kind)
    g_train = model.param_grad(params, z_train, kind)
    return _loss_change(g_train, g_test, "grad-effect", epsilon=epsilon)


def influence_function(
    hessian: DampedHessian,
    g_train: np.ndarray,
    g_test: np.ndarray,
    lam: float | None = None,
) -> float:
    """-g_test' (H + lam I)^-1 g_train.

    This is the first-order change in test loss per unit of upweighting of
    the training example: negative output = helpful example.
    """
    return _loss_change(g_train, g_test, "influence", hessian=hessian, lam=lam)


def relatif(
    hessian: DampedHessian,
    g_train: np.ndarray,
    g_test: np.ndarray,
    lam: float | None = None,
) -> float:
    """Influence normalized by the parameter-space response to the example.

    Dividing by ||(H + lam I)^-1 g_train|| removes the advantage of
    large-gradient (typically high-loss or outlier) training examples.
    """
    return _loss_change(g_train, g_test, "relatif", hessian=hessian, lam=lam)


@dataclass(frozen=True)
class AttributionRecord:
    train_index: int
    test_index: int
    method: str
    score: float


@dataclass
class RankingResult:
    """Records sorted most-helpful-first, plus indices skipped as degenerate."""

    records: list
    skipped: list

    def helpful(self, r: int) -> list:
        return self.records[:r]

    def harmful(self, r: int) -> list:
        return list(reversed(self.records[-r:] if r else []))


def rank_training_set(
    model: Model,
    params: ParamVector,
    dataset: Dataset,
    z_test: LabeledExample,
    method: str = "grad-cos",
    *,
    test_index: int = -1,
    epsilon: float = 1e-3,
    hessian: DampedHessian | None = None,
    lam: float | None = None,
    kind: str = "cross-entropy",
) -> RankingResult:
    """Score every training example against one test example and sort.

    Scores come from one attribution_scores call on the matrix of training
    gradients, so positive = helpful for every method. That matrix comes from
    model.param_grads and the test gradient from query_gradient, and the
    model keeps both: a repeat at the same parameters computes at most the
    test gradient. Sorting is by descending score, ties broken by ascending
    train index. Degenerate training gradients are skipped with a warning.
    """
    g_test = query_gradient(model, params, z_test, kind)
    G = model.param_grads(params, dataset, kind)
    keep = np.linalg.norm(G, axis=1) > DEGENERATE_NORM
    skipped = np.flatnonzero(~keep).tolist()
    if skipped:
        message = f"skipped {len(skipped)} training examples with degenerate gradients"
        warnings.warn(message, RuntimeWarning, stacklevel=2)
        G = G[keep]
    scores = attribution_scores(G, g_test, method, epsilon=epsilon, hessian=hessian, lam=lam)
    pairs = zip(np.flatnonzero(keep).tolist(), scores.tolist())
    records = [AttributionRecord(i, test_index, method, s) for i, s in pairs]
    records.sort(key=lambda r: (-r.score, r.train_index))
    return RankingResult(records, skipped)
