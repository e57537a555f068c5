"""Single-step and single-component entry points into the solver, for tests.

Each wrapper builds a fresh ``_Workspace`` and runs one of the solver's own
update rules, so a test can check one step in isolation.
"""

import numpy as np

from soapfda.basis import BasisSystem
from soapfda.core import FitReport, LongitudinalDataset
from soapfda.solver import _psi_update, _reduction, _score_system, _Workspace, fit_soap


def psi_step_first(dataset: LongitudinalDataset, scores, basis: BasisSystem) -> np.ndarray:
    """Unpenalized update of a single component from its score vector.

    Solves the weighted least squares over basis coefficients and scales the
    result to unit G-norm. Raises ``SingularStepError`` when the design is
    degenerate (all scores zero, or no observation overlaps the basis).
    """
    scores = np.asarray(scores, dtype=float).reshape(-1, 1)
    ws = _Workspace.from_dataset(dataset, basis)
    if scores.shape[0] != ws.n:
        raise ValueError("score vector length does not match subject count")
    coef = np.zeros((basis.size, 1))
    beta, _, _ = _psi_update(ws, _score_system(ws, coef)[0], scores, 0, 0.0, _reduction(basis, coef, 0, 0.0))
    return beta


def psi_step_orthogonal(
    dataset: LongitudinalDataset,
    scores,
    basis: BasisSystem,
    fixed_coefs,
    gamma: float = 0.0,
) -> np.ndarray:
    """Update the last-scored component subject to orthogonality with fixed ones.

    ``scores`` has one column per fixed component plus a final column for the
    target; ``fixed_coefs`` is L x (m-1) and must be G-orthonormal. The
    equality constraints are eliminated by parametrizing over the
    G-orthogonal complement of the fixed components, after which the reduced
    problem is solved and scaled to unit norm (penalized exactly when
    gamma > 0).
    """
    scores = np.asarray(scores, dtype=float)
    fixed = np.asarray(fixed_coefs, dtype=float)
    if fixed.ndim == 1:
        fixed = fixed[:, None]
    if fixed.size:
        err = np.max(np.abs(fixed.T @ basis.gram @ fixed - np.eye(fixed.shape[1])))
        if err > 1e-6:
            raise ValueError(f"fixed components are not G-orthonormal (error {err:.2e})")
    k = fixed.shape[1] if fixed.size else 0
    if scores.ndim != 2 or scores.shape[1] != k + 1:
        raise ValueError(f"scores must have {k + 1} columns (fixed components plus target)")
    ws = _Workspace.from_dataset(dataset, basis)
    coef = np.column_stack([fixed, np.zeros(basis.size)]) if k else np.zeros((basis.size, 1))
    SC = _score_system(ws, coef)[0]
    beta, _, _ = _psi_update(ws, SC, scores, k, gamma, _reduction(basis, coef, k, gamma))
    return beta


def fit_first_fec(
    dataset: LongitudinalDataset,
    basis: BasisSystem,
    gamma: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, FitReport]:
    """Fit the leading component only; returns (coef vector, score column, report)."""
    model = fit_soap(dataset, basis, 1, [gamma])
    return model.coef[:, 0], model.scores[:, 0], model.report
