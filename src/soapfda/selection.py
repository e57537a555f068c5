"""Smoothing-parameter selection by leave-one-curve-out CV and AIC over M."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import BasisSystem
from .core import _MAX_ORTHONORMALITY_ERROR, FecModel, LongitudinalDataset, _orthonormality_error
from .solver import SingularStepError, _check_component_count, _check_gamma, _extract_stage, _model_loss
from .solver import _solve_scores, _stage_inits, _StagePath, _subject_systems, _Workspace

DEFAULT_GAMMA_GRID = (0.0, 1e-2, 1.0, 1e2, 1e4, 1e8)


@dataclass(frozen=True)
class CvResult:
    """Cross-validation curve over candidate smoothing parameters.

    ``cv_errors[k]`` is CV(candidate_gammas[k]); failed candidates hold inf.
    ``chosen`` attains the minimum, with ties broken toward the larger
    (smoother) gamma.
    """

    candidate_gammas: tuple[float, ...]
    cv_errors: tuple[float, ...]
    chosen: float


@dataclass(frozen=True)
class AicResult:
    """AIC table over candidate component counts.

    ``aic[k] = N*log(sigma2[k]) + N + 2*n*M_k`` exactly; candidates with
    zero residual variance are flagged in ``invalid`` (aic stored as nan)
    and excluded from the argmin. Ties prefer the smaller M.
    """

    candidate_m: tuple[int, ...]
    sigma2: tuple[float, ...]
    aic: tuple[float, ...]
    chosen: int
    invalid: tuple[int, ...] = ()


def sigma2_hat(dataset: LongitudinalDataset, model: FecModel) -> float:
    """Average squared residual: (1/n) sum_i (1/n_i) ||y_i - yhat_i||^2."""
    return _model_loss(dataset, model)[1]


def aic_values(n_obs_total: int, n_subjects: int, candidate_m, sigma2s) -> list[float]:
    """AIC(M) = N*log(sigma2_M) + N + 2*n*M; nan where sigma2 is zero."""
    out = []
    for m, s2 in zip(candidate_m, sigma2s, strict=True):
        if s2 <= 0:
            out.append(math.nan)
        else:
            out.append(n_obs_total * math.log(s2) + n_obs_total + 2 * n_subjects * m)
    return out


def select_component_count(candidate_m, aic: Sequence[float]) -> int:
    """Argmin of the AIC table, skipping nan and +inf entries; ties prefer smaller M."""
    kept = [(val, m) for m, val in zip(candidate_m, aic, strict=True) if val < math.inf]
    if not kept:
        raise ValueError("every candidate was excluded (zero residual variance)")
    return min(kept)[1]


def aic(dataset: LongitudinalDataset, fits: Sequence[FecModel]) -> AicResult:
    """Score fitted models with different component counts by AIC."""
    if not fits:
        raise ValueError("need at least one fitted model")
    n = dataset.n_subjects
    N = dataset.n_obs_total
    candidate_m = tuple(model.n_components for model in fits)
    sigma2 = tuple(sigma2_hat(dataset, model) for model in fits)
    values = aic_values(N, n, candidate_m, sigma2)
    invalid = tuple(m for m, v in zip(candidate_m, values) if math.isnan(v))
    chosen = select_component_count(candidate_m, values)
    return AicResult(
        candidate_m=candidate_m,
        sigma2=sigma2,
        aic=tuple(values),
        chosen=chosen,
        invalid=invalid,
    )


def loco_cv_gamma(
    dataset: LongitudinalDataset,
    basis: BasisSystem,
    component: int,
    fixed_coefs,
    candidates: Sequence[float],
    max_folds: int | None = None,
    fold_seed: int = 0,
) -> CvResult:
    """Select the smoothing parameter for one component by leave-one-curve-out CV.

    For each candidate gamma and each held-out subject, component
    ``component`` is refit on the remaining subjects (earlier components
    fixed; every candidate extracts it from the fold's one set of stage
    starts, formed from the residuals under them), the held-out
    subject's scores are recovered by per-curve least squares on all
    ``component`` functions, and the squared prediction errors accumulate
    into CV(gamma). The starts always exist; a fold whose training fit fails
    marks that candidate invalid (inf); if every candidate fails, raises.

    ``max_folds`` optionally evaluates only a seeded random subset of at
    least one fold (useful for large n; the default is the exact procedure).
    The dataset needs at least 2 subjects. Before any fold runs, a
    ValueError rejects a ``component`` outside [1, L] and a ``fixed_coefs``
    that is not a finite (L, component - 1) matrix with G-orthonormal
    columns (to the 1e-8 a loaded model is held to).
    """
    if len(candidates) == 0:
        raise ValueError("need at least one candidate gamma")
    for g in candidates:
        _check_gamma(g, "candidate gamma")
    if max_folds is not None and max_folds < 1:
        raise ValueError(f"max_folds must be >= 1, got {max_folds}")
    if dataset.n_subjects < 2:
        raise ValueError(f"leave-one-curve-out CV needs at least 2 subjects, got {dataset.n_subjects}")
    _check_component_count(component, basis.size, "component")
    fixed = np.asarray(fixed_coefs, dtype=float) if fixed_coefs is not None else np.zeros((basis.size, 0))
    if fixed.ndim == 1:
        fixed = fixed[:, None]
    if fixed.shape != (basis.size, component - 1):
        raise ValueError(f"fixed_coefs has shape {fixed.shape}, expected ({basis.size}, {component - 1})")
    if not np.all(np.isfinite(fixed)):
        raise ValueError("fixed_coefs has non-finite entries")
    err = _orthonormality_error(fixed, basis.gram)
    if err > _MAX_ORTHONORMALITY_ERROR:
        raise ValueError(
            f"fixed_coefs is not G-orthonormal: error {err:.3g} exceeds {_MAX_ORTHONORMALITY_ERROR:g}"
        )

    parent = _Workspace.from_dataset(dataset, basis)
    # the fixed components' scores by the final refit's kernel; it is
    # batch-independent, so fold i's are these with row i deleted
    scores = _solve_scores(*_subject_systems(parent.B, parent.y, parent.sizes, fixed))[0]
    folds = list(range(parent.n))
    if max_folds is not None and max_folds < len(folds):
        rng = np.random.default_rng(fold_seed)
        folds = sorted(rng.choice(len(folds), size=max_folds, replace=False).tolist())

    # folds outside, candidates inside: each fold's workspace, held-out rows, fixed
    # scores (the parent's less row i) and stage starts are formed once, and the
    # workspace is dropped before the next is built. Each candidate sums its
    # errors in fold order; one whose fold fit fails (inf) runs no later fold.
    errors = [0.0] * len(candidates)
    for i in folds:
        fold, rows = parent.drop_subject(i), parent.rows(i)
        B, y, rest = parent.B[rows], parent.y[rows], np.delete(scores, i, axis=0)
        starts = _stage_inits(fold, fixed, rest)
        for k, gamma in enumerate(candidates):
            if math.isinf(errors[k]):
                continue
            gammas = np.concatenate([np.zeros(fixed.shape[1]), [gamma]])
            try:
                coef = _extract_stage(fold, fixed, rest, gammas, starts).coef
            except SingularStepError:
                errors[k] = math.inf
                continue
            # (1/n_i) sum_j (yhat - y)^2 of held-out subject i
            alpha = _solve_scores(*_subject_systems(B, y, [len(y)], coef))[0][0]
            resid = y - B @ coef @ alpha
            errors[k] += float(resid @ resid) / len(y)
        del fold

    if all(math.isinf(e) for e in errors):
        raise SingularStepError("every candidate gamma failed during cross-validation")
    # the least error; a tie goes to the larger gamma, then to the earlier candidate
    best = min(range(len(candidates)), key=lambda k: (errors[k], -candidates[k]))
    return CvResult(
        candidate_gammas=tuple(float(g) for g in candidates),
        cv_errors=tuple(errors),
        chosen=float(candidates[best]),
    )


def select_gammas_sequential(
    dataset: LongitudinalDataset,
    basis: BasisSystem,
    n_components: int,
    candidates: Sequence[float] = DEFAULT_GAMMA_GRID,
) -> tuple[list[float], list[CvResult], list[FecModel]]:
    """Pick gamma for each component in turn, fixing earlier components.

    Every stage runs exact LOCO-CV. Once gamma_m is chosen, the fit's stage
    path extracts component m with it, once, from the state after stage
    m - 1, and finishes the m-component model: bitwise ``fit_soap`` with
    gamma_1..gamma_m. Component m + 1's CV holds that model's components
    fixed. Returns the selected gammas, the per-component CV tables and the
    fitted models (m components in models[m - 1]).
    """
    _check_component_count(n_components, basis.size)
    path = _StagePath(_Workspace.from_dataset(dataset, basis))
    chosen, tables, models = [], [], []
    for m in range(1, n_components + 1):
        result = loco_cv_gamma(dataset, basis, m, models[-1].coef if models else None, candidates)
        chosen.append(result.chosen)
        tables.append(result)
        path.extend(result.chosen)
        models.append(path.finish())
    return chosen, tables, models
