"""Score projection for new subjects, trajectory reconstruction, and the
held-out-last-observation evaluation protocol."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import FecModel, LongitudinalDataset, Subject
from .solver import _solve_scores, _stack, _subject_systems


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


def _project(subjects: Sequence[Subject], model: FecModel) -> np.ndarray:
    """Scores of every subject, (len(subjects), M).

    The rows come from ``_stack``, as the fit's do, and the systems from
    ``_subject_systems``, as the fit's final refit does, so a subject's
    scores do not depend on which subjects share the call.
    """
    gram, rhs = _subject_systems(*_stack(subjects, model.basis), model.coef)
    for i in np.flatnonzero(~gram.any(axis=(1, 2))):
        warnings.warn(
            f"subject {subjects[i].id}: all components vanish at its observation times; "
            "returning zero scores",
            stacklevel=3,
        )
    return _solve_scores(gram, rhs)[0]


def project_scores(subject: Subject, model: FecModel) -> np.ndarray:
    """Least-squares scores for a subject from its observations.

    Uses the fitting score step's truncated minimum-norm kernel, so
    projecting a training subject reproduces its fitted scores exactly. If
    every component is zero at all of the subject's times there is nothing
    to project onto: the scores are zero and a warning is issued.
    """
    return _project([subject], model)[0]


def predict_trajectories(subjects: Sequence[Subject], model: FecModel, grid) -> list[TrajectoryEstimate]:
    """Project every subject's scores and reconstruct it on the grid.

    Scores are projected in batches (see ``project_scores``) and the
    components are evaluated on the grid once for all subjects.
    """
    grid = np.asarray(grid, dtype=float)
    phi = model.component_values(grid)
    if not subjects:
        return []
    scores = _project(subjects, model)
    return [
        TrajectoryEstimate(subject_id=s.id, grid=grid, values=phi @ a, scores=a)
        for s, a in zip(subjects, scores)
    ]


def predict_trajectory(subject: Subject, model: FecModel, grid) -> TrajectoryEstimate:
    """Project a subject's scores and reconstruct it on the grid."""
    return predict_trajectories([subject], model, grid)[0]


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
    kept = [Subject(id=s.id, t=s.t[:-1], y=s.y[:-1]) for s in eligible]
    scores = _project(kept, model)
    pred = np.einsum("im,im->i", model.component_values([s.t[-1] for s in eligible]), scores)
    sq = (pred - np.array([s.y[-1] for s in eligible])) ** 2
    errors = [(s.id, float(e)) for s, e in zip(eligible, sq)]
    return MspeReport(
        mspe_mean=float(sq.mean()),
        mspe_median=float(np.median(sq)),
        n_eligible=len(errors),
        n_excluded=n_excluded,
        per_subject=tuple(errors),
    )
