"""Dense-grid reference: the best rank-M approximation of fully observed curves.

For fully observed noise-free curves, the optimal approximating orthonormal
functions are the leading eigenfunctions of K(s,t) = (1/n) sum_i x_i(s)x_i(t).
By Eckart-Young they are also the leading right singular vectors of the
quadrature-weighted curves, so ``grid_eigenfunctions(curve_set, M)`` takes
one thin SVD of them and never forms the covariance matrix. It is the
ground-truth oracle against the sparse fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import _freeze
from .core import DataValidationError, FecModel, LongitudinalDataset


@dataclass(frozen=True)
class DenseCurveSet:
    """n curves fully observed on a common equally spaced grid."""

    grid: np.ndarray
    curves: np.ndarray  # (n, Q)

    def __post_init__(self):
        grid, curves = self.grid, self.curves
        if grid.ndim != 1 or len(grid) < 2:
            raise ValueError("grid must be 1-D with at least two points")
        steps = np.diff(grid)
        if np.any(steps <= 0):
            raise ValueError("grid must be strictly increasing")
        h = (grid[-1] - grid[0]) / (len(grid) - 1)
        if not np.allclose(steps, h, rtol=1e-8, atol=1e-12 * max(1.0, abs(h))):
            raise ValueError("grid must be equally spaced")
        if curves.ndim != 2 or curves.shape[1] != len(grid):
            raise ValueError(f"curves must be (n, {len(grid)}), got {curves.shape}")
        _freeze(self, "grid", "curves")


def trapezoid_weights(grid) -> np.ndarray:
    """Trapezoid quadrature weights: h everywhere, h/2 at the endpoints."""
    grid = np.asarray(grid, dtype=float)
    h = (grid[-1] - grid[0]) / (len(grid) - 1)
    w = np.full(len(grid), h)
    w[0] = w[-1] = h / 2.0
    return w


def grid_eigenfunctions(curve_set: DenseCurveSet, n_components: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading eigenfunctions of the curves' uncentered covariance operator.

    With trapezoid weights w, the right singular vectors V of
    X diag(sqrt(w)) / sqrt(n) map back to functions V / sqrt(w), so that
    sum_p w_p psi(t_p)^2 = 1, and the squared singular values are the
    eigenvalues. Returns (values, eigenvalues) with values of shape (Q, M),
    eigenvalues descending.
    """
    X = curve_set.curves
    n, Q = X.shape
    if not 1 <= n_components <= min(n, Q):
        raise ValueError(f"cannot extract {n_components} eigenfunctions from {n} curves on a {Q}-point grid")
    sw = np.sqrt(trapezoid_weights(curve_set.grid))
    _, s, vt = np.linalg.svd(X * sw / np.sqrt(n), full_matrices=False)
    return vt[:n_components].T / sw[:, None], s[:n_components] ** 2


def sign_aligned_imse(f_hat, f_ref, grid) -> float:
    """min over signs of the trapezoid integral of (f_hat -+ f_ref)^2."""
    f_hat = np.asarray(f_hat, dtype=float)
    f_ref = np.asarray(f_ref, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if f_hat.shape != f_ref.shape or f_hat.shape != grid.shape:
        raise ValueError("functions and grid must share one shape")
    same = np.trapezoid((f_hat - f_ref) ** 2, grid)
    flip = np.trapezoid((f_hat + f_ref) ** 2, grid)
    return float(min(same, flip))


def compare_to_soap(model: FecModel, oracle_values, grid) -> np.ndarray:
    """Per-component sign-aligned IMSE between fitted and oracle components."""
    grid = np.asarray(grid, dtype=float)
    oracle_values = np.asarray(oracle_values, dtype=float)
    if oracle_values.ndim != 2 or oracle_values.shape[0] != len(grid):
        raise ValueError("oracle values must be (len(grid), M)")
    fitted = model.component_values(grid)
    n_cmp = min(fitted.shape[1], oracle_values.shape[1])
    return np.array(
        [sign_aligned_imse(fitted[:, m], oracle_values[:, m], grid) for m in range(n_cmp)]
    )


def dense_curves(dataset: LongitudinalDataset) -> DenseCurveSet:
    """The curves of a validated dataset whose subjects share one grid.

    Rows are ordered by subject as in the dataset; every subject must be
    observed on the first subject's grid (to 1e-12), which must be strictly
    increasing and equally spaced. The check compares every subject of the
    grid's length in one array comparison.
    """
    subjects = dataset.subjects
    grid = subjects[0].t
    on_grid = np.array([s.n_obs == len(grid) for s in subjects])
    times = np.vstack([s.t for s, same in zip(subjects, on_grid) if same])
    on_grid[on_grid] = np.isclose(times, grid, rtol=0, atol=1e-12).all(axis=1)
    if not on_grid.all():
        raise DataValidationError(f"subject {subjects[int(np.argmin(on_grid))].id} is not observed on the common grid")
    return DenseCurveSet(grid=grid, curves=np.vstack([s.y for s in subjects]))
