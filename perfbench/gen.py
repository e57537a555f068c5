"""Seeded inputs for the benchmark, made without ``soapfda.sim``.

Every generator returns the observation rows together with the generating
truth (scores and component functions), so the checks can compare a fit with
the curves it should recover. The same (seed, stream) pair always gives the
same inputs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import BSpline

DOMAIN = (0.0, 1.0)


@dataclass(frozen=True)
class Truth:
    """Generating scores (n x 2) and the orthonormal component pair."""

    scores: np.ndarray
    funcs: tuple[Callable, Callable]

    def curves(self, t) -> np.ndarray:
        """Noise-free curves at times t, shape (n, len(t))."""
        t = np.asarray(t, dtype=float)
        return np.outer(self.scores[:, 0], self.funcs[0](t)) + np.outer(
            self.scores[:, 1], self.funcs[1](t)
        )


@dataclass(frozen=True)
class Sample:
    rows: list[tuple[str, float, float]]
    truth: Truth
    ids: list[str]


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for one input stream of one benchmark seed."""
    return np.random.default_rng([int(seed), int(stream)])


def cosine_pair() -> tuple[Callable, Callable]:
    """sqrt(2) cos(pi t), sqrt(2) cos(2 pi t): orthonormal on [0, 1]."""
    amp = np.sqrt(2.0)
    return (
        lambda t: amp * np.cos(np.pi * np.asarray(t, dtype=float)),
        lambda t: amp * np.cos(2.0 * np.pi * np.asarray(t, dtype=float)),
    )


def sparse_sample(
    rng: np.random.Generator,
    n: int,
    prefix: str = "s",
    ni_range: tuple[int, int] = (1, 5),
    score_sd: tuple[float, float] = (30.0, 10.0),
    noise_sd: float = 2.0,
) -> Sample:
    """The paper's default design: n_i uniform on ni_range, uniform times on
    [0, 1], Gaussian scores with SDs score_sd, Gaussian noise with SD noise_sd.

    Subject ids are zero-padded, so sorting them (as the program does) keeps
    generation order.
    """
    funcs = cosine_pair()
    scores = rng.normal(size=(n, 2)) * np.asarray(score_sd)
    width = len(str(n))
    rows, ids = [], []
    for i in range(n):
        n_i = int(rng.integers(ni_range[0], ni_range[1] + 1))
        t = np.sort(rng.uniform(*DOMAIN, size=n_i))
        y = scores[i, 0] * funcs[0](t) + scores[i, 1] * funcs[1](t) + rng.normal(0.0, noise_sd, n_i)
        sid = f"{prefix}{i:0{width}d}"
        ids.append(sid)
        rows.extend((sid, float(a), float(b)) for a, b in zip(t, y))
    return Sample(rows=rows, truth=Truth(scores=scores, funcs=funcs), ids=ids)


def clamped_knots(size: int, order: int) -> np.ndarray:
    """Clamped, equally spaced knot vector on [0, 1] for `size` B-splines."""
    interior = np.linspace(*DOMAIN, size - order + 2)[1:-1]
    return np.concatenate([np.full(order, DOMAIN[0]), interior, np.full(order, DOMAIN[1])])


def in_span_pair(rng: np.random.Generator, size: int, order: int = 4) -> np.ndarray:
    """Two L2-orthonormal splines in the span of the equal-knot basis.

    Returns their coefficients (size x 2). Orthonormality is imposed with a
    Gram matrix integrated here by Gauss-Legendre quadrature on each knot
    span, not with the program's basis module.
    """
    knots = clamped_knots(size, order)
    breaks = np.unique(knots)
    x, w = np.polynomial.legendre.leggauss(order + 1)
    half = np.diff(breaks) / 2.0
    mid = (breaks[:-1] + breaks[1:]) / 2.0
    pts = (mid[:, None] + half[:, None] * x).ravel()
    wts = (half[:, None] * w).ravel()
    values = BSpline(knots, np.eye(size), order - 1)(pts)  # (points, size)
    gram = values.T @ (wts[:, None] * values)
    raw = rng.normal(size=(size, 2))
    chol = np.linalg.cholesky(raw.T @ gram @ raw)
    return raw @ np.linalg.inv(chol).T


def dense_sample(
    rng: np.random.Generator,
    n: int,
    grid: np.ndarray,
    size: int,
    order: int = 4,
    score_sd: tuple[float, float] = (5.0, 2.0),
) -> Sample:
    """Noise-free curves from an in-span orthonormal pair, all on one grid."""
    coef = in_span_pair(rng, size, order)
    spline = BSpline(clamped_knots(size, order), coef, order - 1)
    funcs = (lambda t: spline(t)[..., 0], lambda t: spline(t)[..., 1])
    scores = rng.normal(size=(n, 2)) * np.asarray(score_sd)
    truth = Truth(scores=scores, funcs=funcs)
    X = truth.curves(grid)
    width = len(str(n))
    ids = [f"d{i:0{width}d}" for i in range(n)]
    rows = [(sid, float(t), float(v)) for sid, row in zip(ids, X) for t, v in zip(grid, row)]
    return Sample(rows=rows, truth=truth, ids=ids)


def split(sample: Sample, n: int) -> tuple[Sample, Sample]:
    """The first n subjects of a sample and the rest, each with its truth."""
    parts = []
    for ids, scores in ((sample.ids[:n], sample.truth.scores[:n]), (sample.ids[n:], sample.truth.scores[n:])):
        keep = set(ids)
        rows = [r for r in sample.rows if r[0] in keep]
        parts.append(Sample(rows=rows, truth=Truth(scores=scores, funcs=sample.truth.funcs), ids=list(ids)))
    return parts[0], parts[1]


def write_csv(path, rows) -> None:
    """Long-format CSV with header subject_id,t,y and round-trip floats."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "t", "y"])
        for sid, t, y in rows:
            writer.writerow([sid, repr(t), repr(y)])
