"""Clamped B-spline basis with exact Gram and curvature-penalty matrices."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.interpolate import BSpline


def _freeze(obj, *names) -> None:
    """Store a read-only copy (same memory layout) of each writeable named
    array of a frozen dataclass, so no later edit of the caller's array
    reaches it; a read-only array, even a view of writeable memory, is kept."""
    for name in names:
        arr = getattr(obj, name)
        if arr.flags.writeable:
            arr = arr.copy(order="K")
            arr.setflags(write=False)
            object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class BasisSystem:
    """B-spline basis on an interval.

    Attributes
    ----------
    domain : tuple of float
        Interval (lo, hi) on which the basis lives.
    order : int
        Spline order k (polynomial degree k - 1); 4 means cubic.
    interior_knots : np.ndarray
        Strictly increasing knots inside the open interval.
    knots : np.ndarray
        Full clamped knot vector (boundary knots repeated ``order`` times).
    size : int
        Number of basis functions L = len(interior_knots) + order.
    gram : np.ndarray
        L x L matrix of pairwise basis inner products, integrated exactly.
    penalty : np.ndarray
        L x L matrix of pairwise second-derivative inner products.
    """

    domain: tuple[float, float]
    order: int
    interior_knots: np.ndarray = field(repr=False)
    knots: np.ndarray = field(repr=False)
    size: int
    gram: np.ndarray = field(repr=False)
    penalty: np.ndarray = field(repr=False)

    def __post_init__(self):
        _freeze(self, "interior_knots", "knots", "gram", "penalty")

    @property
    def degree(self) -> int:
        return self.order - 1

    @cached_property
    def _spline(self) -> BSpline:
        """Every basis function as one spline with identity coefficients,
        built on first use and kept in the instance ``__dict__``, so it is
        not a field: equality, ``asdict`` and the model file ignore it."""
        return BSpline(self.knots, np.eye(self.size), self.degree)


def default_basis_size(n_obs_total: int, order: int = 4) -> int:
    """Default number of basis functions: min(20, ceil(n/10) + 4), at least ``order``."""
    return max(order, min(20, int(np.ceil(n_obs_total / 10)) + 4))


def quantile_interior_knots(times, n_interior: int, domain: tuple[float, float]) -> np.ndarray:
    """Interior knots at quantiles of the observed times, for very uneven designs."""
    times = np.asarray(times, dtype=float)
    if n_interior == 0:
        return np.empty(0)
    qs = np.linspace(0.0, 1.0, n_interior + 2)[1:-1]
    knots = np.quantile(times, qs)
    lo, hi = domain
    knots = np.clip(knots, lo, hi)
    if np.any(np.diff(knots) <= 0) or knots[0] <= lo or knots[-1] >= hi:
        raise ValueError(
            "quantile knot placement produced non-increasing or boundary knots; "
            "use fewer knots or equal spacing"
        )
    return knots


def make_bspline_basis(
    domain: tuple[float, float],
    size: int,
    order: int = 4,
    interior_knots=None,
) -> BasisSystem:
    """Build a clamped B-spline basis with exact Gram and penalty matrices.

    Parameters
    ----------
    domain : tuple of float
        Interval (lo, hi), lo < hi.
    size : int
        Number of basis functions L; requires L >= order.
    order : int
        Spline order (4 = cubic). Must be >= 2.
    interior_knots : array-like, optional
        Explicit interior knots (len = L - order). Defaults to equal spacing.

    Both matrices are assembled by Gauss-Legendre quadrature per knot span
    with ``order`` nodes, which is exact for the piecewise-polynomial
    integrands.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not np.isfinite(lo) or not np.isfinite(hi) or lo >= hi:
        raise ValueError(f"invalid domain ({lo}, {hi})")
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    if size < order:
        raise ValueError(f"basis size {size} is smaller than order {order}")

    n_interior = size - order
    if interior_knots is None:
        interior = np.linspace(lo, hi, n_interior + 2)[1:-1]
    else:
        interior = np.asarray(interior_knots, dtype=float)
        if interior.shape != (n_interior,):
            raise ValueError(f"expected {n_interior} interior knots, got {interior.shape}")
        if np.any(interior <= lo) or np.any(interior >= hi) or np.any(np.diff(interior) <= 0):
            raise ValueError("interior knots must be strictly increasing inside the open domain")
    knots = np.concatenate([np.full(order, lo), interior, np.full(order, hi)])

    gram, penalty = _gram_and_penalty(knots, order, lo, hi, interior, size)
    return BasisSystem(
        domain=(lo, hi),
        order=int(order),  # Python ints, as the model file holds them
        interior_knots=interior,
        knots=knots,
        size=int(size),
        gram=gram,
        penalty=penalty,
    )


def _panel_rule(breaks, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights, ``n_nodes`` per panel between ``breaks``."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    half = np.diff(breaks) / 2.0
    mid = (breaks[:-1] + breaks[1:]) / 2.0
    return (mid[:, None] + half[:, None] * nodes[None, :]).ravel(), (half[:, None] * weights[None, :]).ravel()


def _gram_and_penalty(knots, order, lo, hi, interior, size):
    x, w = _panel_rule(np.concatenate([[lo], interior, [hi]]), order)
    spline = BSpline(knots, np.eye(size), order - 1)
    values = spline(x)
    gram = values.T @ (w[:, None] * values)
    gram = (gram + gram.T) / 2.0

    if order >= 3:
        d2 = spline.derivative(2)(x)
        penalty = d2.T @ (w[:, None] * d2)
        penalty = (penalty + penalty.T) / 2.0
    else:
        # order-2 splines are piecewise linear: a.e. zero curvature
        penalty = np.zeros((size, size))
    return gram, penalty


def eval_basis_matrix(basis: BasisSystem, times) -> np.ndarray:
    """Evaluate all basis functions at the given times, as the basis's one
    dense spline with identity coefficients; rows sum to 1."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    lo, hi = basis.domain
    # written so that a NaN minimum or maximum fails it
    if times.size and not (lo <= times.min() and times.max() <= hi):
        raise ValueError(f"evaluation times must be finite, none outside domain [{lo}, {hi}]")
    return basis._spline(times)

