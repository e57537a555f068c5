"""Score projection for new subjects, trajectory reconstruction, and the
held-out-last-observation evaluation protocol."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import FecModel, LongitudinalDataset, Subject
from .solver import _rows, _solve_scores, _subject_systems


@dataclass(frozen=True)
class TrajectoryEstimate:
    """Reconstructed trajectory: values = component_values(grid) @ scores."""

    subject_id: str
    grid: np.ndarray
    values: np.ndarray
    scores: np.ndarray


@dataclass(frozen=True)
class MspeReport:
    """Held-out-last-observation results across eligible test subjects."""

    mspe_mean: float
    mspe_median: float
    n_eligible: int
    n_excluded: int
    per_subject: tuple[tuple[str, float], ...]

    def to_dict(self) -> dict:
        return {
            "mspe_mean": self.mspe_mean,
            "mspe_median": self.mspe_median,
            "n_eligible": self.n_eligible,
            "n_excluded": self.n_excluded,
            "per_subject": [{"subject_id": sid, "sq_error": e} for sid, e in self.per_subject],
        }


def _project(subjects: Sequence[Subject], model: FecModel, stacklevel: int = 3, rows=None) -> np.ndarray:
    """Scores of every subject, (len(subjects), M).

    The rows come from ``_rows``, checked as the fit's are, and the systems
    from ``_subject_systems``, as the fit's final refit does, so a subject's
    scores do not depend on which subjects share the call. ``rows`` (B, y,
    sizes), basis values at checked times, stand in for the subjects' own.
    ``stacklevel`` is that of the vanishing-subject warning: 3 points at the
    caller of a public function that calls this one directly.
    """
    if rows is None:
        t, y, sizes = _rows(subjects, model.basis)
        rows = model.basis._spline(t), y, sizes
    gram, rhs = _subject_systems(*rows, model.coef)
    # a vanishing subject's Gram matrix is zero, so only a zero entry calls for the scan
    if not gram.all():
        for i in np.flatnonzero(~gram.any(axis=(1, 2))):
            warnings.warn(
                f"subject {subjects[i].id}: all components vanish at its observation times; "
                "returning zero scores",
                stacklevel=stacklevel,
            )
    return _solve_scores(gram, rhs)[0]


def project_scores(subject: Subject, model: FecModel) -> np.ndarray:
    """Least-squares scores for a subject from its observations.

    Uses the fitting score step's truncated minimum-norm kernel, so
    projecting a training subject reproduces its fitted scores exactly. If
    every component is zero at all of the subject's times there is nothing
    to project onto: the scores are zero and a warning is issued. A
    non-finite time or value, or a time outside the basis domain, raises a
    ValueError that names the subject.
    """
    return _project([subject], model)[0]


def _grid_values(model: FecModel, grid: np.ndarray) -> np.ndarray:
    """``model.component_values(grid)``, evaluated once for a run of calls
    on equal grids.

    The model keeps its last grid's key and values as one tuple in its
    ``__dict__``, so a reader never pairs one grid's key with another's
    values. The key is the float64 grid's shape and bytes, not its
    identity, so a grid edited in place is evaluated again; it holds the
    coefficients' bytes too, since the model's ``coef`` is a read-only view
    of an array its caller may still edit.
    """
    key = (grid.shape, grid.tobytes(), model.coef.tobytes())
    memo = model.__dict__.get("_grid_values")
    if memo is None or memo[0] != key:
        memo = (key, model.component_values(grid))
        object.__setattr__(model, "_grid_values", memo)
    return memo[1]


def _trajectories(subjects: Sequence[Subject], model: FecModel, grid) -> list[TrajectoryEstimate]:
    grid = np.asarray(grid, dtype=float)
    phi = _grid_values(model, grid)
    if not subjects:
        return []
    scores = _project(subjects, model, stacklevel=4)
    return [
        TrajectoryEstimate(subject_id=s.id, grid=grid, values=phi @ a, scores=a)
        for s, a in zip(subjects, scores)
    ]


def predict_trajectories(subjects: Sequence[Subject], model: FecModel, grid) -> list[TrajectoryEstimate]:
    """Project every subject's scores and reconstruct it on the grid.

    Scores are projected in batches (see ``project_scores``) and the
    components are evaluated on the grid once for all subjects, and not
    again while the model's next calls use an equal grid.
    """
    return _trajectories(subjects, model, grid)


def predict_trajectory(subject: Subject, model: FecModel, grid) -> TrajectoryEstimate:
    """Project a subject's scores and reconstruct it on the grid.

    Repeated calls with one model and an equal grid evaluate the grid once.
    """
    return _trajectories([subject], model, grid)[0]


def default_grid(domain: tuple[float, float], size: int = 101) -> np.ndarray:
    if size < 1:
        raise ValueError(f"grid size must be >= 1, got {size}")
    return np.linspace(domain[0], domain[1], size)


def holdout_last_mspe_model(model: FecModel, test: LongitudinalDataset) -> MspeReport:
    """Apply the held-out-last protocol to test subjects under a fitted model.

    For each subject with at least two observations, the final observation
    (largest time; exact ties resolve to the later input row) is removed,
    scores are projected from the remainder, and the squared error of the
    prediction at the dropped time is recorded. Single-observation subjects
    are excluded and counted.
    """
    eligible = [s for s in test.subjects if s.n_obs >= 2]
    n_excluded = test.n_subjects - len(eligible)
    if not eligible:
        raise ValueError("no eligible test subjects (all have a single observation)")
    t, y, sizes = _rows(eligible, model.basis)
    last, kept = np.cumsum(sizes) - 1, len(y) - len(sizes)
    # one basis evaluation, kept rows first, so both parts are views of it
    B = model.basis._spline(np.concatenate([np.delete(t, last), t[last]]))
    scores = _project(eligible, model, rows=(B[:kept], np.delete(y, last), sizes - 1))
    pred = np.einsum("im,im->i", B[kept:] @ model.coef, scores)
    sq = (pred - y[last]) ** 2
    errors = [(s.id, float(e)) for s, e in zip(eligible, sq)]
    return MspeReport(
        mspe_mean=float(sq.mean()),
        mspe_median=float(np.median(sq)),
        n_eligible=len(errors),
        n_excluded=n_excluded,
        per_subject=tuple(errors),
    )
