"""Central finite differences, the reference the gradient checks compare against."""

import numpy as np


def finite_diff_gradient(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, elementwise in x."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    flat = out.ravel()
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump.ravel()[i] = step
        flat[i] = (f(x + bump) - f(x - bump)) / (2.0 * step)
    return out
