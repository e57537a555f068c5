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
    sizes) from ``_rows`` stand in for the subjects' own.
    ``stacklevel`` is that of the vanishing-subject warning: 3 points at the
    caller of a public function that calls this one directly.
    """
    if rows is None:
        rows = _rows(subjects, model.basis)[1:]
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
    identity, so a grid edited in place is evaluated again. The model owns
    its coefficients (see ``basis._freeze``), so they need no key.
    """
    key = (grid.shape, grid.tobytes())
    memo = model.__dict__.get("_grid_values")
    if memo is None or memo[0] != key:
        memo = (key, model.component_values(grid))
        object.__setattr__(model, "_grid_values", memo)
    return memo[1]


def _trajectories(subjects: Sequence[Subject], model: FecModel, grid, rows=None) -> list[TrajectoryEstimate]:
    """``predict_trajectories``; ``rows`` (B, y, sizes) as in ``_project``."""
    grid = np.asarray(grid, dtype=float)
    phi = _grid_values(model, grid)
    if not subjects:
        return []
    scores = _project(subjects, model, stacklevel=4, rows=rows)
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
    (its last row, which is its largest time; exact ties resolve to the
    later input row) is removed, scores are projected from the remainder,
    and the squared error of the prediction at the dropped time is
    recorded. Single-observation subjects are excluded and counted. An
    eligible subject whose times are not ascending, which only a subject
    built by hand can be, raises a ValueError that names it.
    """
    return _holdout_last(model, test.subjects)


def _holdout_last(model: FecModel, subjects: Sequence[Subject], rows=None) -> MspeReport:
    """``holdout_last_mspe_model`` on ``subjects``. ``rows`` (t, B, y, sizes)
    from ``_rows`` on all of them stand in for the eligible subjects'
    own, so a caller that has them needs no second basis evaluation; a
    subject's rows and so its error are the same either way."""
    eligible = [s for s in subjects if s.n_obs >= 2]
    n_excluded = len(subjects) - len(eligible)
    if not eligible:
        raise ValueError("no eligible test subjects (all have a single observation)")
    if rows is None:
        t, B, y, sizes = _rows(eligible, model.basis)
    else:
        t, B, y, sizes = rows
        if n_excluded:
            keep = sizes >= 2
            mask = np.repeat(keep, sizes)
            t, B, y, sizes = t[mask], B[mask], y[mask], sizes[keep]
    last = np.cumsum(sizes) - 1
    falls = np.diff(t) < 0
    falls[last[:-1]] = False  # the step from one subject's last row to the next one's first
    if falls.any():
        i = np.searchsorted(last, np.argmax(falls))
        raise ValueError(f"subject {eligible[i].id}: times must be in ascending order for held-out-last")
    kept_rows = np.delete(B, last, axis=0), np.delete(y, last), sizes - 1
    scores = _project(eligible, model, stacklevel=4, rows=kept_rows)
    pred = np.einsum("im,im->i", B[last] @ model.coef, scores)
    sq = (pred - y[last]) ** 2
    errors = [(s.id, float(e)) for s, e in zip(eligible, sq)]
    return MspeReport(
        mspe_mean=float(sq.mean()),
        mspe_median=float(np.median(sq)),
        n_eligible=len(errors),
        n_excluded=n_excluded,
        per_subject=tuple(errors),
    )
