"""Closed-form ridge regression with a per-example decomposition.

Ridge admits an exact rewrite of any prediction as a sum of training-example
contributions: with A = (X'X + lam I)^-1, the prediction at x* is

    x*' w  =  sum_i alpha_i y_i,      alpha_i = x*' A x_i,

and each alpha_i further splits over input features as

    beta_{i,k} = x_{ik} (A x*)_k,     sum_k beta_{i,k} = alpha_i.

These exact quantities are the ground truth that the gradient-based
attribution methods are checked against. Every solve is one numpy call on
the normal matrix X'X + lam I, sharing no code with the influence solves
it checks; the inverse is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RidgeProblem:
    X: np.ndarray  # (n, d)
    y: np.ndarray  # (n,)
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "X", np.asarray_chkfinite(self.X, dtype=np.float64))
        object.__setattr__(self, "y", np.asarray_chkfinite(self.y, dtype=np.float64))
        if self.X.ndim != 2 or self.y.ndim != 1 or len(self.X) != len(self.y):
            raise ValueError("X must be (n, d) with matching y of length n")
        if not 0.0 < self.lam < np.inf:
            raise ValueError("ridge penalty must be positive and finite")

    def normal(self) -> np.ndarray:
        """X'X + lam I; ValueError if that matrix is not finite, as when X'X overflows."""
        with np.errstate(over="ignore", invalid="ignore"):  # reported by the check below
            normal = self.X.T @ self.X + self.lam * np.eye(self.X.shape[1])
        if not np.isfinite(normal).all():
            raise ValueError("the normal matrix X'X + lam I is not finite; scale X or lam down")
        return normal


def ridge_fit(problem: RidgeProblem) -> np.ndarray:
    """Exact minimizer of ||Xw - y||^2 + lam ||w||^2."""
    return np.linalg.solve(problem.normal(), problem.X.T @ problem.y)


def representer_coefficients(problem: RidgeProblem, x_test: np.ndarray) -> np.ndarray:
    """alpha_i = x_test' (X'X + lam I)^-1 x_i, one per training example.

    The prediction identity x_test' w = sum_i alpha_i y_i holds exactly.
    """
    v = np.linalg.solve(problem.normal(), np.asarray_chkfinite(x_test, dtype=np.float64))
    return problem.X @ v


def feature_contributions(problem: RidgeProblem, x_test: np.ndarray) -> np.ndarray:
    """beta matrix (n, d): how each feature of each training example moves
    the prediction at x_test. Rows sum to the representer coefficients."""
    v = np.linalg.solve(problem.normal(), np.asarray_chkfinite(x_test, dtype=np.float64))
    return problem.X * v[None, :]


def leave_one_out_delta(problem: RidgeProblem, i: int, x_test: np.ndarray, y_test: float) -> float:
    """Exact change in squared test error when example i is removed.

    Positive means the refit (without i) predicts worse at the test point,
    i.e. example i was helping.
    """
    n = len(problem.y)
    if not 0 <= i < n:
        raise IndexError(f"example index {i} out of range for {n} examples")
    x_test = np.asarray(x_test, dtype=np.float64)
    keep = np.arange(n) != i
    reduced = RidgeProblem(problem.X[keep], problem.y[keep], problem.lam)
    err_with = (float(x_test @ ridge_fit(problem)) - y_test) ** 2
    err_without = (float(x_test @ ridge_fit(reduced)) - y_test) ** 2
    return err_without - err_with


@dataclass(frozen=True)
class ToySetup:
    """Planted two-feature problem with a known exact decomposition.

    The first len(axis_coords) examples sit on the first axis at
    (coord, 0) with target equal to the coordinate; one last example sits at
    (0, c) with target c. For a test point (0, t), only the last example can
    contribute: the axes decouple, so every axis example gets alpha exactly
    zero and the prediction is t c^2 / (c^2 + lam).
    """

    axis_coords: tuple = (1.0, 1.0, 1.0, 1.0)
    c: float = 2.0
    lam: float = 1.0

    def problem(self) -> RidgeProblem:
        coords = np.asarray(self.axis_coords, dtype=np.float64)
        X = np.zeros((len(coords) + 1, 2))
        X[:-1, 0] = coords
        X[-1, 1] = self.c
        y = np.append(coords, self.c)
        return RidgeProblem(X, y, self.lam)

    def test_point(self, t: float) -> np.ndarray:
        return np.array([0.0, t])
