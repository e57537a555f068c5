"""Alternating estimation of orthonormal empirical components from sparse curves.

The fit minimizes

    (1/n) sum_i (1/n_i) sum_j [y_ij - sum_m a_im psi_m(t_ij)]^2
        + sum_m gamma_m * int psi_m''(t)^2 dt

over per-subject scores a_im and components psi_m = coef_m' b(t), subject to
the components being orthonormal in L2. Components are extracted one at a
time (each holding the earlier ones fixed), then jointly refined in sweeps;
every score update is an exact per-subject least squares and every component
update is an exact minimization over its feasible set, so the recorded
objective trace is non-increasing.
"""

from __future__ import annotations

import math
from functools import cache, cached_property
from typing import NamedTuple, Sequence

import numpy as np
from scipy import linalg as sla

from .basis import BasisSystem, eval_basis_matrix
from .core import FecModel, FitReport, LongitudinalDataset, Subject

# absolute singular-value floor for per-subject score designs: components are
# unit-norm functions, so their values are O(1) and a direction a subject sees
# below this level carries no usable information about it. Without the floor,
# subjects whose few observation times make the component values nearly
# collinear receive arbitrarily large scores and then dominate the component
# update through their squared-score weights.
SCORE_SINGULAR_FLOOR = 0.2
# rank tolerance for normal-equation component solves
_NORMAL_RANK_TOL = 1e-12
# accepted relative uphill movement attributable to floating point
_UPHILL_TOL = 1e-12
# secular equation: Newton stops at |f| <= 2 eps or on a step without
# progress, well before this safety cap
_EPS = float(np.finfo(float).eps)
_SECULAR_MAX_ITERS = 100
# cycle caps of the one alternation loop, per extraction stage and for the
# refinement sweeps (M >= 2), and its relative-change stopping tolerance
_MAX_INNER_ITERS = 200
_MAX_OUTER_SWEEPS = 20
_REL_TOL = 1e-7
# the two factorizations every component update makes, called without the
# scipy.linalg wrappers' per-call overhead
_gelsy, _gelsy_lwork, _sygvd = sla.get_lapack_funcs(("gelsy", "gelsy_lwork", "sygvd"), dtype=np.float64)


class SingularStepError(RuntimeError):
    """A least-squares step had no usable solution; the message names the cause."""


class PenalizedStepResult(NamedTuple):
    """``score_scale`` is the G-norm of the unscaled solution at gamma 0
    (multiplying the paired score column by it keeps the fitted values), and
    1.0 for gamma > 0, where the constrained solution is used as is."""

    beta: np.ndarray
    multiplier: float
    fallback: bool
    score_scale: float


# ---------------------------------------------------------------------------
# Workspace: the rows of one (dataset, basis) pair and what the fit derives
# from them, shared across iterations and CV folds.
# ---------------------------------------------------------------------------


def _stack(subjects: Sequence[Subject], basis: BasisSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The basis at every observation time B (N, L), the values y (N,) and
    the subject sizes, rows stored one subject after another."""
    B = eval_basis_matrix(basis, np.concatenate([s.t for s in subjects]))
    return B, np.concatenate([s.y for s in subjects]), np.array([s.n_obs for s in subjects])


class _Workspace:
    """The fit's state: the basis, the rows ``B`` and ``y`` stored one
    subject after another with the given ``sizes``, their ``offsets`` and
    the weights w_i = 1/(n n_i), per subject (``w``) and per row (``w2``)."""

    def __init__(self, basis: BasisSystem, B: np.ndarray, y: np.ndarray, sizes: np.ndarray):
        self.basis, self.B, self.y, self.sizes = basis, B, y, sizes
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        self.w = 1.0 / (len(sizes) * sizes)
        self.w2 = np.repeat(self.w, sizes)

    @classmethod
    def from_dataset(cls, dataset: LongitudinalDataset, basis: BasisSystem) -> "_Workspace":
        if tuple(dataset.domain) != tuple(basis.domain):
            raise ValueError(
                f"basis domain {basis.domain} does not match dataset domain {dataset.domain}"
            )
        for s in dataset.subjects:
            if s.n_obs == 0:
                raise ValueError(f"subject {s.id} has no observations")
        return cls(basis, *_stack(dataset.subjects, basis))

    @property
    def n(self) -> int:
        return len(self.sizes)

    def rows(self, i: int) -> slice:
        return slice(self.offsets[i], self.offsets[i + 1])

    @cached_property
    def stats(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-subject sufficient statistics (S, T): S_i = B_i'B_i, (n, L, L),
        and T_i = B_i'y_i, (n, L); built on first use by ``_subject_systems``.

        With the weights ``w`` they hold all the score and component steps
        use of the rows, so those steps cost O(n L^2 M) whatever the number
        of observations per subject; only the exact objective reads the rows.
        """
        return _subject_systems(self.B, self.y, self.sizes)

    @cached_property
    def ridge_coefs(self) -> np.ndarray:
        """Per-subject basis coefficients from a small ridge fit, the init's
        input: (S_i + lam I) c_i = T_i, one batched solve on the statistics."""
        S, T = self.stats
        lam = 1e-6 * np.trace(self.basis.gram)
        eye = lam * np.eye(self.basis.size)
        return sla.solve(S + eye, T[..., None], assume_a="pos")[..., 0]

    def drop_subject(self, i: int) -> "_Workspace":
        """Fold workspace with subject i removed: its rows deleted from the
        parent's, and row i deleted from the parent's statistics and ridge fits."""
        rows = self.rows(i)
        fold = _Workspace(
            self.basis, np.delete(self.B, rows, axis=0), np.delete(self.y, rows), np.delete(self.sizes, i)
        )
        fold.stats = tuple(np.delete(a, i, axis=0) for a in self.stats)
        fold.ridge_coefs = np.delete(self.ridge_coefs, i, axis=0)
        return fold


@cache
def _gelsy_work(n: int, cond: float) -> int:
    work, info = _gelsy_lwork(n, n, 1, cond)
    if info != 0:
        raise sla.LinAlgError(f"gelsy workspace query failed: info {info}")
    return int(work)


def _minnorm_lstsq(a: np.ndarray, b: np.ndarray, cond: float) -> np.ndarray:
    """Minimum-norm solution of the square system a x = b (b a vector) by
    LAPACK ``gelsy``: bitwise ``sla.lstsq(a, b, cond=cond,
    lapack_driver="gelsy", check_finite=False)``."""
    n = a.shape[0]
    _, sol, _, _, info = _gelsy(a, b, np.zeros((n, 1), dtype=np.int32), cond, _gelsy_work(n, cond))
    if info != 0:
        raise sla.LinAlgError(f"gelsy failed: info {info}")
    return sol


def _subject_systems(X, y, sizes, coef=None) -> tuple[np.ndarray, np.ndarray]:
    """Each subject's Gram matrix D_i'D_i (n, q, q) and right-hand side
    D_i'y_i (n, q), in subject order.

    ``X`` (N, p) and ``y`` (N,) hold rows stored one subject after another
    with the given ``sizes``; D_i is X_i, or X_i C with ``coef`` C (p, q).
    Subjects of equal size are stacked, so each size group costs one
    (k, n_i, q) product and a subject's systems do not depend on which
    subjects share the call. The fit's statistics S_i, T_i and every
    row-formed score solve come from here.
    """
    sizes = np.asarray(sizes)
    q = X.shape[1] if coef is None else coef.shape[1]
    gram, rhs = np.empty((len(sizes), q, q)), np.empty((len(sizes), q))
    starts = np.cumsum(sizes) - sizes
    for size in np.unique(sizes):
        idx = np.flatnonzero(sizes == size)
        rows = starts[idx, None] + np.arange(size)
        D = X[rows] if coef is None else X[rows] @ coef
        Dt = D.transpose(0, 2, 1)
        gram[idx] = np.matmul(Dt, D)
        rhs[idx] = np.matmul(Dt, y[rows][..., None])[..., 0]
    return gram, rhs


def _eigh(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues (k, M) and orthonormal eigenvectors (k, M, M) of
    a stack of symmetric positive-semidefinite matrices.

    At M = 2 they come in closed form, vectorised over the stack: numpy's
    ``eigh`` calls LAPACK once per matrix, and at this size that call costs
    far more than the arithmetic. With G = [[a, b], [b, c]], the larger
    eigenvalue is (a + c + hypot(a - c, 2b)) / 2 and, as in LAPACK's
    ``dlaev2``, the smaller is (ac - b^2) over the larger, which avoids
    cancelling the larger against the trace. The larger eigenvector is
    (cos t, sin t) with t = atan2(2b, a - c) / 2. At M = 1 the eigenvalue is
    G itself and the eigenvector 1. Every other M calls ``np.linalg.eigh``.
    """
    if gram.shape[-1] == 1:
        # what LAPACK returns for N = 1, bit for bit
        return gram[..., 0].copy(), np.ones_like(gram)
    if gram.shape[-1] != 2:
        return np.linalg.eigh(gram)
    a, b, c = gram[:, 0, 0], gram[:, 0, 1], gram[:, 1, 1]
    diff, b2 = a - c, b + b
    w = np.zeros((len(gram), 2))
    big = w[:, 1]
    np.multiply(0.5, a + c + np.hypot(diff, b2), out=big)
    # a zero matrix keeps both eigenvalues at zero
    np.divide(a * c - b * b, big, out=w[:, 0], where=big > 0)
    t = 0.5 * np.arctan2(b2, diff)
    # columns (-sin t, cos t) and (cos t, sin t)
    v = np.empty((len(gram), 2, 2))
    v[:, 1, 0] = np.cos(t, out=v[:, 0, 1])
    np.negative(np.sin(t, out=v[:, 1, 1]), out=v[:, 0, 0])
    return w, v


def _solve_scores(gram, rhs, prev: np.ndarray | None = None) -> tuple[np.ndarray, int, int]:
    """Minimum-norm least-squares scores on a truncated Gram spectrum.

    ``gram`` (k, M, M) and ``rhs`` (k, M) hold each subject's psi_i'psi_i and
    psi_i'y_i, where psi_i is its component values at its observation times.
    Returns (scores (k, M), n_truncated, n_kept): n_truncated counts the
    subjects whose solve kept fewer than M directions, n_kept those the guard
    gave their previous scores.

    The Gram matrices are decomposed together by ``_eigh``. An eigenvalue
    w_j is kept when it clears the squared floor (w_j > SCORE_SINGULAR_FLOOR^2):
    the rule "keep a singular value of the value matrix above the floor". The
    rule depends only on the component values, never on y, so score
    estimation stays exactly linear and scale-equivariant in the data. Every
    subject is solved on its own slice, so its scores do not depend on which
    subjects share the stack.

    With ``prev`` (k, M) given, a subject keeps its previous scores b when
    those fit it at least as well under the current components as the fresh
    scores a: ||y - psi a||^2 > ||y - psi b||^2 exactly when
    (a - b)'(G(a + b) - 2r) > 0, which needs no rows. The truncation subspace
    can change between iterations as components rotate, and this guard is
    what keeps the recorded objective trace non-increasing.
    """
    w, v = _eigh(gram)
    keep = w > SCORE_SINGULAR_FLOOR**2
    inv = np.zeros_like(w)
    np.divide(1.0, w, out=inv, where=keep)
    vy = np.einsum("km,kmj->kj", rhs, v)
    sol = np.einsum("kmj,kj->km", v, inv * vy)
    # eigenvalues ascend, so a subject is truncated exactly when its smallest is cut
    n_truncated = len(w) - int(np.count_nonzero(keep[:, 0]))
    if prev is None:
        return sol, n_truncated, 0
    grow = np.einsum("kmj,kj->km", gram, sol + prev) - 2.0 * rhs
    worse = np.einsum("km,km->k", sol - prev, grow) > 0
    sol[worse] = prev[worse]
    return sol, n_truncated, int(np.count_nonzero(worse))


def _score_system(ws: _Workspace, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S_i C (n, L, M), for the component update that follows, and the score
    step's Gram matrices C'S_iC (n, M, M) and right-hand sides C'T_i (n, M).
    Being 2-D products over all subjects, they are not batch-independent;
    prediction forms its systems with ``_subject_systems`` instead."""
    S, T = ws.stats
    n, L, _ = S.shape
    M = coef.shape[1]
    SC = (S.reshape(n * L, L) @ coef).reshape(n, L, M)
    gram = (SC.transpose(0, 2, 1).reshape(n * M, L) @ coef).reshape(n, M, M)
    return SC, gram, T @ coef


def _row_base(ws: _Workspace, P: np.ndarray, scores) -> float:
    """Residual part of the objective, on the rows, from the component
    values P = B C (N, M) at the observation times."""
    resid = ws.y - np.einsum("nm,nm->n", np.repeat(scores, ws.sizes, axis=0), P)
    return float(ws.w2 @ (resid * resid))


def _penalty(ws: _Workspace, c: np.ndarray, gamma) -> float:
    return float(gamma) * float(c @ ws.basis.penalty @ c)


def _loss(ws: _Workspace, coef, scores, gammas) -> tuple[float, float]:
    """Full objective and its residual part for the current state."""
    base = _row_base(ws, ws.B @ coef, scores)
    return base + sum(_penalty(ws, coef[:, k], gammas[k]) for k in range(coef.shape[1])), base


# ---------------------------------------------------------------------------
# Public step operations.
# ---------------------------------------------------------------------------


def objective(dataset: LongitudinalDataset, model: FecModel) -> float:
    """Observed loss of the model on the dataset, including roughness penalties."""
    ws = _Workspace.from_dataset(dataset, model.basis)
    if model.scores.shape[0] != ws.n:
        raise ValueError("model scores do not match the dataset's subject count")
    full, _ = _loss(ws, model.coef, model.scores, model.gammas)
    return full


def score_step(dataset: LongitudinalDataset, fec_values: Sequence[np.ndarray]) -> np.ndarray:
    """Per-subject least-squares scores given component values at observation times.

    ``fec_values[i]`` holds the n_i x M matrix of component values at subject
    i's times. Rank-deficient or underdetermined systems (n_i < M, collinear
    columns) get the minimum-norm solution on the truncated spectrum.
    """
    if len(fec_values) != dataset.n_subjects:
        raise ValueError("need one value matrix per subject")
    values = [np.atleast_2d(np.asarray(v, dtype=float)) for v in fec_values]
    m_cols = {v.shape[1] for v in values}
    if len(m_cols) != 1:
        raise ValueError(f"inconsistent component counts across subjects: {sorted(m_cols)}")
    for vals, subject in zip(values, dataset.subjects):
        if vals.shape[0] != subject.n_obs:
            raise ValueError(f"subject {subject.id}: {vals.shape[0]} rows for {subject.n_obs} observations")
    y = np.concatenate([s.y for s in dataset.subjects])
    sizes = [s.n_obs for s in dataset.subjects]
    return _solve_scores(*_subject_systems(np.concatenate(values), y, sizes))[0]


def _update_system(ws: _Workspace, SC, scores, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Normal matrix and right-hand side for updating component m, from the
    statistics and SC = S_i C: sum_i w_i a_im^2 S_i and
    sum_i w_i a_im (T_i - S_i C a~_i), where a~_i is subject i's scores with
    entry m set to zero.
    """
    S, T = ws.stats
    n, L, _ = S.shape
    alpha = scores[:, m]
    wa = ws.w * alpha
    ata = ((wa * alpha) @ S.reshape(n, L * L)).reshape(L, L)
    others = scores.copy()
    others[:, m] = 0.0
    resid = T - np.matmul(SC, others[..., None])[..., 0]
    return (ata + ata.T) / 2.0, wa @ resid


def _null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of a, by the rank rule of
    ``scipy.linalg.null_space``."""
    _, s, vh = np.linalg.svd(a)
    tol = np.amax(s, initial=0.0) * _EPS * max(a.shape)
    return vh[np.count_nonzero(s > tol) :].T


def _normalized_unconstrained(ata, rhs, gram) -> tuple[np.ndarray, float]:
    """Minimum-norm solve of the normal equations, scaled to unit G-norm.

    Returns (beta, s) with s the norm of the unscaled solution: rescaling
    the corresponding score column by s preserves the fitted values exactly,
    which is what makes this step monotone in the unpenalized objective.
    """
    btilde = _minnorm_lstsq(ata, rhs, cond=_NORMAL_RANK_TOL)
    nrm2 = float(btilde @ gram @ btilde)
    if not (nrm2 > 0 and np.isfinite(nrm2)):
        raise SingularStepError(
            "component update is identically zero "
            "(all scores zero, or observations do not span the basis support)"
        )
    s = math.sqrt(nrm2)
    return btilde / s, s


def _generalized_eigh(H, gram) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and G-orthonormal eigenvectors of H v = mu G v
    by LAPACK ``sygvd``: bitwise ``sla.eigh(H, gram)``, with its checks (a
    ValueError on non-finite input, a LinAlgError when the factorization
    fails)."""
    if not (np.isfinite(H).all() and np.isfinite(gram).all()):
        raise ValueError("array must not contain infs or NaNs")
    mu, V, info = _sygvd(H, gram, itype=1, jobz="V", uplo="L")
    if info > H.shape[0]:
        raise sla.LinAlgError(f"the leading minor of order {info - H.shape[0]} of G is not positive definite")
    if info != 0:
        raise sla.LinAlgError(f"sygvd failed: info {info}")
    return mu, V


def _solve_norm_constrained(H, rhs, gram) -> tuple[np.ndarray, float, bool]:
    """Global minimizer of b'Hb - 2 rhs'b subject to b' gram b = 1.

    The generalized eigenproblem H v = mu * gram * v decouples the
    stationarity system (H - lam*gram) b = rhs into z_j = d_j / (mu_j - lam)
    with d = V'rhs. The objective-minimal stationary point has lam <= mu_1;
    in the shift delta = mu_1 - lam >= 0 the coordinates are
    z(delta) = d / (gap + delta) with gap = mu - mu_1, and the root of
    f(delta) = 1/||z(delta)|| - 1 lies in [max(0, max_j(|d_j| - gap_j)), ||d||].
    f is increasing and concave there (Reinsch 1967; Moré & Sorensen 1983),
    so Newton from the lower end climbs to the root in a few steps; a step
    that leaves the bracket is replaced by bisection.
    Returns (beta, lam, fallback); fallback=True marks the hard case (no
    root with delta > 0: rhs has no weight on the lowest eigenspace and the
    pole-free norm at delta = 0 is at most 1), where a scaled ridge solution
    is returned instead.
    """
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        raise SingularStepError("zero right-hand side in norm-constrained component step")
    mu, V = _generalized_eigh(H, gram)
    d = V.T @ rhs
    # directions with zero rhs component contribute nothing, even at a pole
    nz = d != 0.0
    d, gap, V = d[nz], (mu - mu[0])[nz], V[:, nz]
    lo = float(np.max(np.abs(d) - gap, initial=0.0))
    hi = float(np.linalg.norm(d))
    if lo == 0.0 and float(np.sum((d / gap) ** 2)) <= 1.0:
        return _ridge_fallback(H, rhs, gram)
    delta = lo
    for _ in range(_SECULAR_MAX_ITERS):
        z = d / (gap + delta)
        nrm = math.sqrt(float(z @ z))
        f = 1.0 / nrm - 1.0
        if abs(f) <= 2.0 * _EPS:
            break
        if f < 0.0:
            lo = delta
        else:
            hi = delta
        step = delta - f * nrm**3 / float(z @ (z / (gap + delta)))
        if not lo <= step <= hi:
            step = 0.5 * (lo + hi)
        if step == delta:
            break
        delta = step
    beta = V @ (d / (gap + delta))
    return beta / math.sqrt(float(beta @ gram @ beta)), float(mu[0] - delta), False


def _ridge_fallback(H, rhs, gram) -> tuple[np.ndarray, float, bool]:
    L = H.shape[0]
    eps = 1e-10 * max(float(np.trace(H)) / L, 1.0)
    try:
        beta = sla.solve(H + eps * np.eye(L), rhs, assume_a="sym")
    except sla.LinAlgError:
        beta = _minnorm_lstsq(H + eps * np.eye(L), rhs, cond=_NORMAL_RANK_TOL)
    nrm2 = float(beta @ gram @ beta)
    if not (nrm2 > 0 and np.isfinite(nrm2)):
        raise SingularStepError("norm-constrained step degenerate even under ridge fallback")
    return beta / math.sqrt(nrm2), math.nan, True


def _check_gamma(g, what: str = "gamma") -> None:
    if not (math.isfinite(g) and g >= 0):
        raise ValueError(f"{what} {float(g)!r} must be finite and >= 0")


def _check_component_count(m, size: int, what: str = "n_components") -> None:
    if not 1 <= m <= size:
        raise ValueError(f"{what} {m} must be in [1, {size}] for a basis of size {size}")


def psi_step_penalized(normal_matrix, rhs, gram, penalty, gamma: float) -> PenalizedStepResult:
    """Solve the (possibly penalized) norm-constrained component update.

    This is the component step of the fit. With gamma == 0 it returns the
    unconstrained minimizer scaled to unit G-norm (the scaling is absorbed
    by the paired score column through ``score_scale``, so the norm
    constraint costs nothing). With gamma > 0 the penalty breaks that scale
    invariance and the constrained problem is solved exactly through its
    secular equation; in its hard case (no root left of the lowest
    eigenvalue), a G-normalized ridge solution is returned with
    ``fallback=True``.
    """
    _check_gamma(gamma)
    normal_matrix = np.asarray(normal_matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if gamma == 0:
        beta, s = _normalized_unconstrained(normal_matrix, rhs, gram)
        return PenalizedStepResult(beta, 0.0, False, s)
    beta, lam, fb = _solve_norm_constrained(normal_matrix + gamma * penalty, rhs, gram)
    return PenalizedStepResult(beta, lam, fb, 1.0)


def kkt_residual(normal_matrix, rhs, gram, penalty, gamma, beta, multiplier) -> float:
    """Norm of the stationarity residual (H - lam*G) beta - rhs."""
    H = np.asarray(normal_matrix) + gamma * np.asarray(penalty)
    return float(np.linalg.norm(H @ beta - multiplier * (gram @ beta) - rhs))


def _reduction(basis: BasisSystem, coef, m: int, gamma: float):
    """Null-space reduction of component m's update: (Z, Z'GZ, Z'PZ), with Z
    an orthonormal basis of the null space of C'G over every column of
    ``coef`` but m. Z'PZ is None at gamma 0, where nothing reads it; with no
    other column, Z is None and G and P are returned as they are."""
    others = np.delete(coef, m, axis=1)
    if not others.shape[1]:
        return None, basis.gram, basis.penalty
    Z = _null_space(others.T @ basis.gram)
    return Z, Z.T @ basis.gram @ Z, (Z.T @ basis.penalty @ Z if gamma > 0 else None)


def _psi_update(ws: _Workspace, SC, scores, m: int, gamma: float, reduction):
    """Update component m with all other columns fixed.

    The normal equations come from the workspace statistics and SC = S_i C
    (``_update_system``). The new coefficient vector is constrained to be
    G-orthogonal to every other component through ``reduction`` (from
    ``_reduction``) and has exact unit G-norm; the reduced problem is solved
    by ``psi_step_penalized``. Returns (beta, score_scale, fallback).
    """
    # relative, not exact zero: a column left only with rounding noise of
    # the score kernel has nothing to fit
    if np.max(np.abs(scores[:, m])) <= 64 * _EPS * np.max(np.abs(scores)):
        raise SingularStepError(f"all scores for component {m + 1} are zero")
    ata, rhs = _update_system(ws, SC, scores, m)
    Z, gram_r, penalty_r = reduction
    if Z is not None:
        ata, rhs = Z.T @ ata @ Z, Z.T @ rhs
    beta, _, fallback, s = psi_step_penalized(ata, rhs, gram_r, penalty_r, gamma)
    if Z is not None:
        beta = Z @ beta
    beta = beta / math.sqrt(float(beta @ ws.basis.gram @ beta))
    return beta, s, fallback


# ---------------------------------------------------------------------------
# Full fits.
# ---------------------------------------------------------------------------


def _orthonormal_against(v: np.ndarray, fixed: np.ndarray, gram: np.ndarray) -> np.ndarray | None:
    """G-normalize v after projecting out the fixed components; None if degenerate."""
    u = v.copy()
    for _ in range(2):  # repeated Gram-Schmidt for numerical orthogonality
        if fixed.shape[1]:
            u -= fixed @ (fixed.T @ (gram @ u))
    nrm2 = float(u @ gram @ u)
    if nrm2 > 1e-16 * max(1.0, float(v @ gram @ v)):
        return u / math.sqrt(nrm2)
    return None


def _stage_inits(ws: _Workspace, fixed: np.ndarray) -> list[np.ndarray]:
    """Deterministic starting vectors for one component stage.

    The alternation is a local method, so each extraction is started from
    the first usable leading ridge-SVD direction and from the first usable
    basis function (dropped when parallel to the first start), and the best
    final objective wins. A direction is usable when it keeps a G-norm after
    projecting out the fixed components.
    """
    gram = ws.basis.gram
    _, _, vt = np.linalg.svd(ws.ridge_coefs, full_matrices=False)
    inits: list[np.ndarray] = []
    for family in (vt, np.eye(ws.basis.size)):
        for v in family:
            u = _orthonormal_against(v, fixed, gram)
            if u is None:
                continue
            if not any(abs(float(u @ gram @ w)) > 1.0 - 1e-8 for w in inits):
                inits.append(u)
            break
    if not inits:
        raise SingularStepError("no usable initial direction orthogonal to fixed components")
    return inits


def _extract_stage(ws: _Workspace, coef, scores, gammas):
    """Append and fit one more component from each start of ``_stage_inits``.

    ``coef`` holds the already-fitted components (kept fixed as constraints
    during this stage); the run with the lowest final objective wins.
    Returns (coef, scores, converged, cycles, n_fallbacks, n_guard_kept,
    trace_segment).
    """
    m = coef.shape[1]
    best = None
    last_error: SingularStepError | None = None
    for beta0 in _stage_inits(ws, coef):
        segment: list[float] = []
        try:
            result = _alternate(
                ws,
                np.column_stack([coef, beta0]),
                np.column_stack([scores, np.zeros(ws.n)]),
                [m],
                gammas,
                segment,
                _MAX_INNER_ITERS,
            )
        except SingularStepError as exc:
            last_error = exc
            continue
        final = segment[-1]  # _alternate appends before it can return
        if best is None or final < best[0]:
            best = (final, result, segment)
    if best is None:  # _stage_inits returns at least one start, so every one failed
        raise last_error
    _, (coef, scores, conv, ends, fb, kept), segment = best
    return coef, scores, conv, len(ends), fb, kept, segment


def _alternate(ws, coef, scores, active, gammas, trace, cap):
    """Alternate guarded score steps with updates of the components in ``active``.

    A cycle runs, for each m in ``active``, a joint score step (its objective
    is appended to ``trace``) and then an update of component m with its
    score column rescaled. An update is accepted unless it raises the
    objective by more than floating-point noise (_UPHILL_TOL relative); an
    accepted update's objective is appended too, a rejected one leaves the
    state unchanged. The loop has converged when a cycle accepts no update
    (a stall at the numerical floor) or ends within _REL_TOL relative of
    the previous cycle's end (for the first cycle, of the objective ``trace``
    ends with on entry, if any); it stops unconverged after ``cap`` cycles.

    Both steps work on the workspace statistics, and the score step hands
    its S_i C to the update that follows it. The objective stays exact
    and on the rows: the component values P = B C and the per-component
    penalties are kept across the loop, and an update evaluates only its
    new column. Returns (coef, scores, converged, cycle_ends, n_fallbacks,
    n_guard_kept), where ``cycle_ends`` holds the objective at the end of
    every cycle and ``n_guard_kept`` counts the (score step, subject) pairs
    in which the guard kept the previous scores.
    """
    P = ws.B @ coef
    pens = [_penalty(ws, coef[:, k], gammas[k]) for k in range(coef.shape[1])]
    # with one active component the others never change, so one null-space
    # reduction serves every update (an extraction stage)
    held = _reduction(ws.basis, coef, active[0], gammas[active[0]]) if len(active) == 1 else None
    prev = trace[-1] if trace else None
    ends: list[float] = []
    n_fb = n_kept = 0
    for it in range(cap):
        accepted = False
        for m in active:
            SC, gram, rhs = _score_system(ws, coef)
            scores, _, kept = _solve_scores(gram, rhs, prev=scores)
            n_kept += kept
            current = _row_base(ws, P, scores) + sum(pens)
            trace.append(current)
            try:
                reduction = held if held is not None else _reduction(ws.basis, coef, m, gammas[m])
                beta, s, fallback = _psi_update(ws, SC, scores, m, gammas[m], reduction)
            except SingularStepError as exc:
                raise SingularStepError(f"component {m + 1}, iteration {it + 1}: {exc}") from exc
            n_fb += int(fallback)
            new_coef = coef.copy()
            new_coef[:, m] = beta
            new_scores = scores.copy()
            new_scores[:, m] = scores[:, m] * s
            new_P = P.copy()
            new_P[:, m] = ws.B @ beta
            new_pens = pens.copy()
            new_pens[m] = _penalty(ws, beta, gammas[m])
            full = _row_base(ws, new_P, new_scores) + sum(new_pens)
            if full <= current + _UPHILL_TOL * max(1.0, current):
                coef, scores, P, pens = new_coef, new_scores, new_P, new_pens
                trace.append(full)
                accepted = True
        end = trace[-1]
        ends.append(end)
        if not accepted or (prev is not None and abs(prev - end) <= _REL_TOL * max(1.0, abs(prev))):
            return coef, scores, True, ends, n_fb, n_kept
        prev = end
    return coef, scores, False, ends, n_fb, n_kept


def _fix_signs(ws: _Workspace, coef: np.ndarray) -> np.ndarray:
    """Flip each component so its integral (or midpoint value) is nonnegative."""
    q = ws.basis.gram @ np.ones(ws.basis.size)
    mid = eval_basis_matrix(ws.basis, [(ws.basis.domain[0] + ws.basis.domain[1]) / 2.0])[0]
    out = coef.copy()
    for m in range(coef.shape[1]):
        integral = float(coef[:, m] @ q)
        pivot = integral if abs(integral) > 1e-12 else float(coef[:, m] @ mid)
        if pivot < 0:
            out[:, m] = -out[:, m]
    return out


def fit_soap(
    dataset: LongitudinalDataset,
    basis: BasisSystem,
    n_components: int,
    gammas,
) -> FecModel:
    """Fit M orthonormal components and per-subject scores to sparse curves.

    Components are extracted sequentially: component m is alternated to
    convergence with components 1..m-1 fixed (and is constrained orthogonal
    to them), from two deterministic starts (the leading ridge-SVD direction
    and the first basis function), keeping the better run. With M >= 2,
    refinement sweeps then re-optimize each component in turn against all
    the others. Stages and sweeps run the same alternation: a joint score
    refit before every component update. Each stops when a cycle (a sweep)
    changes the objective by at most 1e-7 relative or accepts no update, or
    at its cap of 200 cycles per stage and 20 sweeps; ``report.converged``
    is false if a cap was hit, and ``report.stage_capped`` and
    ``report.sweeps_capped`` say which. ``report.stage_cycles`` counts each
    stage's cycles and ``report.n_sweeps`` the sweeps; ``report.final_objective`` is
    the objective of the returned model.

    ``gammas`` is a scalar or a length-M sequence of roughness penalty
    weights, each finite and >= 0. The returned model has G-orthonormal coefficient columns, a
    sign convention of nonnegative component integrals, scores from a final
    joint refit, and ``noise_var`` set to the mean squared residual.
    """
    _check_component_count(n_components, basis.size)
    gam = np.asarray(gammas, dtype=float)
    if gam.ndim == 0:
        gam = np.full(n_components, float(gam))
    if gam.shape != (n_components,):
        raise ValueError(f"expected {n_components} gamma values, got shape {gam.shape}")
    for g in gam:
        _check_gamma(g)

    ws = _Workspace.from_dataset(dataset, basis)
    coef = np.zeros((basis.size, 0))
    scores = np.zeros((ws.n, 0))
    trace: list[float] = []
    stage_offsets: list[int] = []
    stage_cycles: list[int] = []
    stage_capped: list[bool] = []
    n_fb = n_kept = 0

    for m in range(n_components):
        stage_offsets.append(len(trace))
        coef, scores, conv, cycles, fb, kept, segment = _extract_stage(
            ws, coef, scores, gam[: m + 1]
        )
        trace.extend(segment)
        stage_capped.append(not conv)
        stage_cycles.append(cycles)
        n_fb += fb
        n_kept += kept

    sweep_objectives: list[float] = []
    sweeps_capped = False
    if n_components > 1:
        coef, scores, refined, sweep_objectives, fb, kept = _alternate(
            ws, coef, scores, range(n_components), gam, trace, _MAX_OUTER_SWEEPS
        )
        sweeps_capped = not refined
        n_fb += fb
        n_kept += kept

    # Finalize with pure projections: the returned scores are the unguarded
    # output of the score kernel that `predict.project_scores` also uses, not
    # the guarded iterates, so fitting and prediction agree bitwise on
    # training data.
    coef = _fix_signs(ws, coef)
    scores, n_truncated, _ = _solve_scores(*_subject_systems(ws.B, ws.y, ws.sizes, coef))
    full, base = _loss(ws, coef, scores, gam)

    report = FitReport(
        loss_trace=tuple(trace),
        converged=not (any(stage_capped) or sweeps_capped),
        n_sweeps=len(sweep_objectives),
        stage_cycles=tuple(stage_cycles),
        sweep_objectives=tuple(sweep_objectives),
        stage_offsets=tuple(stage_offsets),
        n_fallbacks=n_fb,
        n_truncated=n_truncated,
        n_guard_kept=n_kept,
        final_objective=full,
        stage_capped=tuple(stage_capped),
        sweeps_capped=sweeps_capped,
    )
    return FecModel(
        basis=basis,
        coef=coef,
        scores=scores,
        gammas=gam,
        noise_var=base,
        report=report,
    )
