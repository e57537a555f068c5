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
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np
from scipy import linalg as sla

from .basis import BasisSystem
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
    1.0 for gamma > 0, where the constrained solution is used as is.
    ``fallback`` marks a hard-case step, solved exactly in closed form."""

    beta: np.ndarray
    multiplier: float
    fallback: bool
    score_scale: float


# ---------------------------------------------------------------------------
# Workspace: the rows of one (dataset, basis) pair and what the fit derives
# from them, shared across iterations and CV folds.
# ---------------------------------------------------------------------------


def _rows(subjects: Sequence[Subject], basis: BasisSystem | None = None) -> tuple[np.ndarray, ...]:
    """Every observation time t (N,), the values y (N,) and the subject
    sizes, rows stored one subject after another; one subject's rows are
    its own arrays. The one row check rejects by name the first subject with
    a non-finite time or value, or with a time outside ``basis``'s domain."""
    sizes = np.array([s.n_obs for s in subjects])
    if len(subjects) == 1:
        t, y = subjects[0].t, subjects[0].y
    else:
        t, y = np.concatenate([s.t for s in subjects]), np.concatenate([s.y for s in subjects])
    lo, hi = basis.domain if basis is not None else (-math.inf, math.inf)
    # a NaN or an infinity makes t'y non-finite; finite data that overflow it pass the scan
    if not (np.isfinite(t @ y) and (not t.size or lo <= t.min() and t.max() <= hi)):
        for s in subjects:
            if not (np.isfinite(s.t).all() and np.isfinite(s.y).all()):
                raise ValueError(f"subject {s.id}: times and values must be finite")
            if not ((lo <= s.t) & (s.t <= hi)).all():
                raise ValueError(f"subject {s.id}: a time lies outside domain [{lo}, {hi}]")
    return t, y, sizes


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
            raise ValueError(f"basis domain {basis.domain} does not match dataset domain {dataset.domain}")
        for s in dataset.subjects:
            if s.n_obs == 0:
                raise ValueError(f"subject {s.id} has no observations")
        t, y, sizes = _rows(dataset.subjects, basis)
        return cls(basis, basis._spline(t), y, sizes)

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
        of observations per subject; the objective and stage starts read rows.
        """
        return _subject_systems(self.B, self.y, self.sizes)

    def drop_subject(self, i: int) -> "_Workspace":
        """Fold workspace with subject i removed: its rows deleted from the
        parent's, and row i deleted from the parent's statistics."""
        rows = self.rows(i)
        fold = _Workspace(
            self.basis, np.delete(self.B, rows, axis=0), np.delete(self.y, rows), np.delete(self.sizes, i)
        )
        fold.stats = tuple(np.delete(a, i, axis=0) for a in self.stats)
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
    subjects share the call. When every subject has the same size (one
    subject, a balanced design, equal-length dense curves) the rows already
    form that stack, and ``X`` is reshaped to it without grouping or
    gathering; the stack's bytes, and so the products, are the same. The
    fit's statistics S_i, T_i and every row-formed score solve come from here.
    """
    sizes = np.asarray(sizes)

    def systems(D, ys):
        if coef is not None:
            D = D @ coef
        Dt = D.transpose(0, 2, 1)
        return np.matmul(Dt, D), np.matmul(Dt, ys[..., None])[..., 0]

    k = len(sizes)
    if k and (k == 1 or (sizes == sizes[0]).all()):
        return systems(X.reshape(k, sizes[0], X.shape[1]), y.reshape(k, sizes[0]))
    q = X.shape[1] if coef is None else coef.shape[1]
    gram, rhs = np.empty((k, q, q)), np.empty((k, q))
    starts = np.cumsum(sizes) - sizes
    for size in np.unique(sizes):
        idx = np.flatnonzero(sizes == size)
        rows = starts[idx, None] + np.arange(size)
        gram[idx], rhs[idx] = systems(X[rows], y[rows])
    return gram, rhs


def _eigh2(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascending eigenvalues (k, 2) of a stack of symmetric positive-semidefinite
    2 x 2 matrices, and the cosine and sine (k,) of the angle t of their
    eigenvectors: (-sin t, cos t) for the smaller eigenvalue and (cos t, sin t)
    for the larger.

    They come in closed form, vectorised over the stack: numpy's ``eigh``
    calls LAPACK once per matrix, and at this size that call costs far more
    than the arithmetic. With G = [[a, b], [b, c]], the larger eigenvalue is
    (a + c + hypot(a - c, 2b)) / 2 and, as in LAPACK's ``dlaev2``, the
    smaller is (ac - b^2) over the larger, which avoids cancelling the
    larger against the trace; t = atan2(2b, a - c) / 2.
    """
    a, b, c = gram[:, 0, 0], gram[:, 0, 1], gram[:, 1, 1]
    diff, b2 = a - c, b + b
    w = np.zeros((len(gram), 2))
    big = w[:, 1]
    np.multiply(0.5, a + c + np.hypot(diff, b2), out=big)
    # a zero matrix keeps both eigenvalues at zero
    np.divide(a * c - b * b, big, out=w[:, 0], where=big > 0)
    t = 0.5 * np.arctan2(b2, diff)
    return w, np.cos(t), np.sin(t)


def _solve_scores(gram, rhs, prev: np.ndarray | None = None) -> tuple[np.ndarray, int, int]:
    """Minimum-norm least-squares scores on a truncated Gram spectrum.

    ``gram`` (k, M, M) and ``rhs`` (k, M) hold each subject's psi_i'psi_i and
    psi_i'y_i, where psi_i is its component values at its observation times.
    Returns (scores (k, M), n_truncated, n_kept): n_truncated counts the
    subjects whose solve kept fewer than M directions, n_kept those the guard
    gave their previous scores.

    With eigenvalues w_j and eigenvectors V of G, the scores are
    V diag(1/w_j) V'r over the kept eigenvalues. An eigenvalue is kept when
    it clears the squared floor (w_j > SCORE_SINGULAR_FLOOR^2): the rule
    "keep a singular value of the value matrix above the floor". The rule
    depends only on the component values, never on y, so score estimation
    stays exactly linear and scale-equivariant in the data. Every subject is
    solved on its own slice, so its scores do not depend on which subjects
    share the stack. At M = 1 the eigenvalue is G itself and the eigenvector
    1; at M = 2 the eigensystem comes from ``_eigh2``; other M call
    ``np.linalg.eigh``.

    With ``prev`` (k, M) given, a subject keeps its previous scores b when
    those fit it at least as well under the current components as the fresh
    scores a: ||y - psi a||^2 > ||y - psi b||^2 exactly when
    (a - b)'(G(a + b) - 2r) > 0, which needs no rows. The truncation subspace
    can change between iterations as components rotate, and this guard is
    what keeps the recorded objective trace non-increasing.
    """
    M = gram.shape[-1]
    if M == 1:
        w = gram[:, :, 0]
    elif M == 2:
        w, cos, sin = _eigh2(gram)
    else:
        w, v = np.linalg.eigh(gram)
    floor = SCORE_SINGULAR_FLOOR**2
    keep = w > floor
    # 1/w_j where kept and 0 elsewhere (a cut eigenvalue divides 0 by the floor)
    inv = keep / np.fmax(w, floor)
    # At M <= 2 the products with V here, and with G in the guard, are
    # written out: each entry is one product or the sum of two, which any
    # summation order rounds alike. At M > 2 einsum keeps its own order.
    # Adding 0.0 turns -0.0 into +0.0, as einsum's sums from +0.0 do.
    if M == 1:
        sol = inv * rhs
    elif M == 2:
        r0, r1 = rhs[:, 0], rhs[:, 1]
        x0 = inv[:, 0] * (r1 * cos - r0 * sin)
        x1 = inv[:, 1] * (r0 * cos + r1 * sin)
        sol = np.empty(rhs.shape)
        np.subtract(cos * x1, sin * x0, out=sol[:, 0])
        np.add(cos * x0, sin * x1, out=sol[:, 1])
    else:
        sol = np.einsum("kmj,kj->km", v, inv * np.einsum("km,kmj->kj", rhs, v))
    sol += 0.0
    # eigenvalues ascend, so a subject is truncated exactly when its smallest is cut
    n_truncated = keep[:, :1].size - int(np.count_nonzero(keep[:, :1]))
    if prev is None:
        return sol, n_truncated, 0
    if M == 1:
        worse = ((sol - prev) * (w * (sol + prev) - 2.0 * rhs))[:, 0] > 0
    elif M == 2:
        x0, x1 = sol[:, 0] + prev[:, 0], sol[:, 1] + prev[:, 1]
        grow = np.empty(rhs.shape)
        np.add(gram[:, 0, 0] * x0, gram[:, 0, 1] * x1, out=grow[:, 0])
        np.add(gram[:, 1, 0] * x0, gram[:, 1, 1] * x1, out=grow[:, 1])
        grow -= 2.0 * rhs
        step = (sol - prev) * grow
        worse = step[:, 0] + step[:, 1] > 0
    else:
        grow = np.einsum("kmj,kj->km", gram, sol + prev) - 2.0 * rhs
        worse = np.einsum("km,km->k", sol - prev, grow) > 0
    return np.where(worse[:, None], prev, sol), n_truncated, int(np.count_nonzero(worse))


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


def _row_base(ws: _Workspace, R: np.ndarray, P: np.ndarray) -> float:
    """Residual part of the objective, on the rows, from the scores R (N, M)
    repeated to every row of their subject and the component values
    P = B C (N, M) at the observation times."""
    if P.shape[1] in (1, 2):
        # one product or the sum of two per row, as einsum forms them
        fit = R[:, 0] * P[:, 0]
        if P.shape[1] == 2:
            fit += R[:, 1] * P[:, 1]
    else:
        fit = np.einsum("nm,nm->n", R, P)
    resid = ws.y - fit
    return float(ws.w2 @ (resid * resid))


def _penalty(ws: _Workspace, c: np.ndarray, gamma) -> float:
    return float(gamma) * float(c @ ws.basis.penalty @ c)


def _loss(ws: _Workspace, coef, scores, gammas) -> tuple[float, float]:
    """Full objective and its residual part for the current state."""
    base = _row_base(ws, np.repeat(scores, ws.sizes, axis=0), ws.B @ coef)
    return base + sum(_penalty(ws, coef[:, k], gammas[k]) for k in range(coef.shape[1])), base


# ---------------------------------------------------------------------------
# Public step operations.
# ---------------------------------------------------------------------------


def _model_loss(dataset: LongitudinalDataset, model: FecModel) -> tuple[float, float]:
    """``_loss`` of the model's components, scores and gammas on the dataset's rows."""
    ws = _Workspace.from_dataset(dataset, model.basis)
    if model.scores.shape[0] != ws.n:
        raise ValueError("model scores do not match the dataset's subject count")
    return _loss(ws, model.coef, model.scores, model.gammas)


def objective(dataset: LongitudinalDataset, model: FecModel) -> float:
    """Observed loss of the model on the dataset, including roughness penalties."""
    return _model_loss(dataset, model)[0]


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
    if 0 in m_cols:
        raise ValueError("value matrices have 0 columns; need at least one component")
    for vals, subject in zip(values, dataset.subjects):
        if vals.shape[0] != subject.n_obs:
            raise ValueError(f"subject {subject.id}: {vals.shape[0]} rows for {subject.n_obs} observations")
    _, y, sizes = _rows(dataset.subjects)
    return _solve_scores(*_subject_systems(np.concatenate(values), y, sizes))[0]


def _update_system(ws: _Workspace, SC, scores, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Normal matrix and right-hand side for updating component m, from the
    statistics and SC = S_i C: sum_i w_i a_im^2 S_i and
    sum_i w_i a_im (T_i - S_i C a~_i), where a~_i is subject i's scores with
    entry m set to zero.
    """
    S, T = ws.stats
    n, L, M = SC.shape
    alpha = scores[:, m]
    wa = ws.w * alpha
    ata = ((wa * alpha) @ S.reshape(n, L * L)).reshape(L, L)
    if M <= 2:
        # with at most one other column, S_i C a~_i is one product per entry:
        # the batched product with entry m zeroed gives the same bits
        resid = T if M == 1 else T - SC[:, :, 1 - m] * scores[:, 1 - m, None]
    else:
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
    Returns (beta, lam, hard). hard=True marks the hard case, with no root at
    delta > 0: rhs has no weight on the lowest eigenspace and ||d / gap|| <= 1.
    There lam = mu_1 and beta = V (d / gap) + sqrt(1 - ||d / gap||^2) v_1,
    with v_1 the lowest eigenvector.
    """
    # ||rhs||^2 as np.linalg.norm forms it, so underflow counts as zero too
    if float(rhs @ rhs) == 0.0:
        raise SingularStepError("zero right-hand side in norm-constrained component step")
    mu, V = _generalized_eigh(H, gram)
    d = V.T @ rhs
    v1 = V[:, 0]
    # directions with zero rhs component contribute nothing, even at a pole
    nz = d != 0.0
    d, gap, V = d[nz], (mu - mu[0])[nz], V[:, nz]
    lo = float((np.abs(d) - gap).max(initial=0.0))
    hi = math.sqrt(float(d @ d))
    # lo == 0 leaves no nonzero d_j on the lowest eigenspace, so gap > 0
    pole_free = float(np.sum((d / gap) ** 2)) if lo == 0.0 else math.inf
    if pole_free <= 1.0:
        beta = V @ (d / gap) + math.sqrt(1.0 - pole_free) * v1
        return beta / math.sqrt(float(beta @ gram @ beta)), float(mu[0]), True
    delta = lo
    for _ in range(_SECULAR_MAX_ITERS):
        shifted = gap + delta
        z = d / shifted
        nrm = math.sqrt(float(z @ z))
        f = 1.0 / nrm - 1.0
        if abs(f) <= 2.0 * _EPS:
            break
        if f < 0.0:
            lo = delta
        else:
            hi = delta
        step = delta - f * nrm**3 / float(z @ (z / shifted))
        if not lo <= step <= hi:
            step = 0.5 * (lo + hi)
        if step == delta:
            break
        delta = step
    beta = V @ (d / (gap + delta))
    return beta / math.sqrt(float(beta @ gram @ beta)), float(mu[0] - delta), False


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
    secular equation. Its hard case (no root left of the lowest
    eigenvalue) is solved exactly too, in closed form, and flagged with
    ``fallback=True``; the multiplier is then the lowest eigenvalue.
    """
    _check_gamma(gamma)
    normal_matrix = np.asarray(normal_matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if gamma == 0:
        beta, s = _normalized_unconstrained(normal_matrix, rhs, gram)
        return PenalizedStepResult(beta, 0.0, False, s)
    beta, lam, fb = _solve_norm_constrained(normal_matrix + gamma * penalty, rhs, gram)
    return PenalizedStepResult(beta, lam, fb, 1.0)


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
    magnitude = np.abs(scores)
    if magnitude[:, m].max() <= 64 * _EPS * magnitude.max():
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
        u -= fixed @ (fixed.T @ (gram @ u))
    nrm2 = float(u @ gram @ u)
    if nrm2 > 1e-16 * max(1.0, float(v @ gram @ v)):
        return u / math.sqrt(nrm2)
    return None


def _stage_inits(ws: _Workspace, fixed: np.ndarray, scores: np.ndarray) -> list[np.ndarray]:
    """Deterministic starting vectors for one component stage.

    The alternation is a local method, so each extraction is started from
    the first usable leading moment direction and from the first usable
    basis function (dropped when parallel to the first start), and the best
    final objective wins. A direction is usable when it keeps a G-norm after
    projecting out the fixed components. The moment directions are the
    G-eigenvectors, largest first, of K = sum_i v_i sum_{j != k} r_ij r_ik
    b(t_ij) b(t_ik)', v_i = 1/(n_i (n_i - 1)) (0 for n_i = 1), with r the
    residuals under the fixed components and their ``scores``: the raw
    covariance of Yao, Mueller & Wang (2005) without its noisy diagonal.
    Some moment direction is always usable: projecting the m - 1 < L fixed
    G-orthonormal columns out of all L directions leaves squared G-norms
    summing to L - m + 1 >= 1.
    """
    gram = ws.basis.gram
    r = ws.y - np.einsum("nm,nm->n", np.repeat(scores, ws.sizes, axis=0), ws.B @ fixed)
    R = np.add.reduceat(ws.B * r[:, None], ws.offsets[:-1], axis=0)  # B_i'r_i
    pw = np.where(ws.sizes > 1, 1.0 / np.maximum(ws.sizes * (ws.sizes - 1), 1), 0.0)
    K = (R.T * pw) @ R - (ws.B.T * (np.repeat(pw, ws.sizes) * r * r)) @ ws.B
    _, V = _generalized_eigh((K + K.T) / 2.0, gram)
    inits: list[np.ndarray] = []
    for family in (V[:, ::-1].T, np.eye(ws.basis.size)):
        for v in family:
            u = _orthonormal_against(v, fixed, gram)
            if u is None:
                continue
            if not any(abs(float(u @ gram @ w)) > 1.0 - 1e-8 for w in inits):
                inits.append(u)
            break
    return inits


class _Run(NamedTuple):
    """One ``_alternate`` run: its final ``coef`` and ``scores``, whether it
    converged, the objectives it recorded (``trace``) and those at the end
    of each cycle (``ends``), its hard-case steps (``n_fallbacks``) and the
    (score step, subject) pairs in which the guard kept the previous scores
    (``n_guard_kept``)."""

    coef: np.ndarray
    scores: np.ndarray
    converged: bool
    trace: list[float]
    ends: list[float]
    n_fallbacks: int
    n_guard_kept: int


def _extract_stage(ws: _Workspace, coef, scores, gammas, starts) -> _Run:
    """Append one more component and fit it from each of ``starts`` (at least one).

    ``coef`` holds the already-fitted components (kept fixed as constraints
    during this stage); the run with the lowest final objective wins. If
    every start fails, the last start's error is raised.
    """
    m = coef.shape[1]
    best = last_error = None
    for beta0 in starts:
        try:
            run = _alternate(
                ws,
                np.column_stack([coef, beta0]),
                np.column_stack([scores, np.zeros(ws.n)]),
                [m],
                gammas,
                _MAX_INNER_ITERS,
            )
        except SingularStepError as exc:
            last_error = exc
            continue
        # _alternate records at least one objective before it can return
        if best is None or run.trace[-1] < best.trace[-1]:
            best = run
    if best is None:
        raise last_error
    return best


def _alternate(ws, coef, scores, active, gammas, cap, prev=None) -> _Run:
    """Alternate guarded score steps with updates of the components in ``active``.

    A cycle runs, for each m in ``active``, a joint score step (its objective
    is recorded in the trace) and then an update of component m with its
    score column rescaled. An update is accepted unless it raises the
    objective by more than floating-point noise (_UPHILL_TOL relative); an
    accepted update's objective is recorded too, a rejected one leaves the
    state unchanged. The loop has converged when a cycle accepts no update
    (a stall at the numerical floor) or ends within _REL_TOL relative of
    the previous cycle's end (for the first cycle, of ``prev``, if given);
    it stops unconverged after ``cap`` cycles.

    Both steps work on the workspace statistics. The score step forms S_i C,
    C'S_iC and C'T_i in three matrix products, solves every subject's scores
    and repeats them to the rows (R); the update that follows reuses its
    S_i C. The objective stays exact and on the rows, from R and the
    component values P = B C, which are kept across the loop with the
    per-component penalties. An update writes only its column of R, P, the
    penalties and, once accepted, ``coef`` and the scores, in place; a
    rejected one puts P and its penalty back. Neither the caller's ``coef``
    nor its ``scores`` is modified.
    """
    # The shortcuts in this loop and its helpers give every fit the bits of
    # the plain batched forms, under three conditions the code does not show:
    # - every product keeps its shape: a matrix-vector product S @ c or
    #   B @ c rounds differently from the same column of S @ C or B @ C;
    # - the penalties are summed as base + (pen_1 + ... + pen_M), each from
    #   the strided column coef[:, k] or the fresh update: a contiguous copy
    #   of a column rounds differently in c @ P @ c;
    # - each component update runs the public ``psi_step_penalized``, so the
    #   fit takes the step that callers and tests take.
    coef = coef.copy()
    P = ws.B @ coef
    pens = [_penalty(ws, coef[:, k], gammas[k]) for k in range(coef.shape[1])]
    # with one active component the others never change, so one null-space
    # reduction serves every update (an extraction stage)
    held = _reduction(ws.basis, coef, active[0], gammas[active[0]]) if len(active) == 1 else None
    trace: list[float] = []
    ends: list[float] = []
    n_fb = n_kept = 0
    for it in range(cap):
        accepted = False
        for m in active:
            SC, gram, rhs = _score_system(ws, coef)
            scores, _, kept = _solve_scores(gram, rhs, prev=scores)
            n_kept += kept
            R = np.repeat(scores, ws.sizes, axis=0)
            current = _row_base(ws, R, P) + sum(pens)
            trace.append(current)
            try:
                reduction = held if held is not None else _reduction(ws.basis, coef, m, gammas[m])
                beta, s, fallback = _psi_update(ws, SC, scores, m, gammas[m], reduction)
            except SingularStepError as exc:
                raise SingularStepError(f"component {m + 1}, iteration {it + 1}: {exc}") from exc
            n_fb += int(fallback)
            # the next score step forms R again, so only P and the penalty
            # need putting back if the update is rejected
            kept_p, kept_pen = P[:, m].copy(), pens[m]
            R[:, m] *= s
            P[:, m] = ws.B @ beta
            pens[m] = _penalty(ws, beta, gammas[m])
            full = _row_base(ws, R, P) + sum(pens)
            if full <= current + _UPHILL_TOL * max(1.0, current):
                coef[:, m] = beta
                scores[:, m] *= s
                trace.append(full)
                accepted = True
            else:
                P[:, m], pens[m] = kept_p, kept_pen
        end = trace[-1]
        ends.append(end)
        if not accepted or (prev is not None and abs(prev - end) <= _REL_TOL * max(1.0, abs(prev))):
            return _Run(coef, scores, True, trace, ends, n_fb, n_kept)
        prev = end
    return _Run(coef, scores, False, trace, ends, n_fb, n_kept)


def _fix_signs(ws: _Workspace, coef: np.ndarray) -> np.ndarray:
    """Flip each component so its integral (or midpoint value) is nonnegative."""
    q = ws.basis.gram @ np.ones(ws.basis.size)
    mid = ws.basis._spline([(ws.basis.domain[0] + ws.basis.domain[1]) / 2.0])[0]
    out = coef.copy()
    for m in range(coef.shape[1]):
        integral = float(coef[:, m] @ q)
        pivot = integral if abs(integral) > 1e-12 else float(coef[:, m] @ mid)
        if pivot < 0:
            out[:, m] = -out[:, m]
    return out


class _StagePath:
    """The fit's extraction stages on one workspace, each run once.

    ``extend`` extracts the next component from the state after the stages
    so far. ``finish`` returns the model of the components extracted so far,
    bitwise ``fit_soap`` with their gammas, and leaves the path as it was, so
    the models of a grid of component counts share their stages.
    """

    def __init__(self, ws: _Workspace):
        self.ws = ws
        self.gammas = np.zeros(0)
        self.stages: list[_Run] = []

    def extend(self, gamma) -> None:
        """Extract the next component, with roughness weight ``gamma``."""
        ws, self.gammas = self.ws, np.append(self.gammas, gamma)
        coef, scores = self.stages[-1][:2] if self.stages else (np.zeros((ws.basis.size, 0)), np.zeros((ws.n, 0)))
        self.stages.append(_extract_stage(ws, coef, scores, self.gammas, _stage_inits(ws, coef, scores)))

    def finish(self) -> FecModel:
        """Sweeps (M >= 2) from the stage state, ``_fix_signs``, the final
        refit and the report; the sweeps copy what they change."""
        ws, gam, stages = self.ws, self.gammas, self.stages
        trace = [f for run in stages for f in run.trace]
        coef, runs, sweeps = stages[-1].coef, stages, None
        if len(gam) > 1:
            sweeps = _alternate(ws, coef, stages[-1].scores, range(len(gam)), gam, _MAX_OUTER_SWEEPS, trace[-1])
            coef, trace, runs = sweeps.coef, trace + sweeps.trace, stages + [sweeps]
        sweep_ends = tuple(sweeps.ends) if sweeps else ()
        # Finalize with pure projections: the returned scores are the unguarded
        # output of the score kernel that `predict.project_scores` also uses, not
        # the guarded iterates, so fitting and prediction agree bitwise on
        # training data.
        coef = _fix_signs(ws, coef)
        scores, n_truncated, _ = _solve_scores(*_subject_systems(ws.B, ws.y, ws.sizes, coef))
        full, base = _loss(ws, coef, scores, gam)
        report = FitReport(
            loss_trace=tuple(trace),
            converged=all(run.converged for run in runs),
            n_sweeps=len(sweep_ends),
            stage_cycles=tuple(len(run.ends) for run in stages),
            sweep_objectives=sweep_ends,
            stage_offsets=tuple(accumulate((len(run.trace) for run in stages[:-1]), initial=0)),
            n_fallbacks=sum(run.n_fallbacks for run in runs),
            n_truncated=n_truncated,
            n_guard_kept=sum(run.n_guard_kept for run in runs),
            final_objective=full,
            stage_capped=tuple(not run.converged for run in stages),
            sweeps_capped=sweeps is not None and not sweeps.converged,
        )
        return FecModel(basis=ws.basis, coef=coef, scores=scores, gammas=gam, noise_var=base, report=report)


def _fit_models(
    dataset: LongitudinalDataset, basis: BasisSystem, counts: Sequence[int], gammas
) -> list[FecModel]:
    """``fit_soap(dataset, basis, m, gammas[:m])`` for each m in the
    ascending ``counts``, bitwise, from one ``_StagePath``: each stage is
    extracted once, and the m-component model finishes the path after its
    stage m. ``gammas`` is a scalar or one weight per component up to the
    largest count."""
    n_components = counts[-1]
    _check_component_count(n_components, basis.size)
    gam = np.asarray(gammas, dtype=float)
    if gam.ndim == 0:
        gam = np.full(n_components, float(gam))
    if gam.shape != (n_components,):
        raise ValueError(f"expected {n_components} gamma values, got shape {gam.shape}")
    for g in gam:
        _check_gamma(g)

    path = _StagePath(_Workspace.from_dataset(dataset, basis))
    models = []
    for m in range(1, n_components + 1):
        path.extend(gam[m - 1])
        if m in counts:
            models.append(path.finish())
    return models


def fit_soap(
    dataset: LongitudinalDataset,
    basis: BasisSystem,
    n_components: int,
    gammas,
) -> FecModel:
    """Fit M orthonormal components and per-subject scores to sparse curves.

    Components are extracted sequentially, each stage once: component m is
    alternated to convergence with components 1..m-1 fixed (and is
    constrained orthogonal to them), from the two deterministic starts of
    ``_stage_inits`` (a moment direction and a basis function), keeping the
    better run. With M >= 2, refinement sweeps then re-optimize each
    component in turn against all the others. So the first m stages of an
    M-component fit are the m-component fit's, and the CLI's AIC grid and
    ``select_gammas_sequential`` finish their models from one run of stages.
    Stages and sweeps run the same alternation: a joint score
    refit before every component update. Each stops when a cycle (a sweep)
    changes the objective by at most 1e-7 relative or accepts no update, or
    at its cap of 200 cycles per stage and 20 sweeps; ``report.converged``
    is false if a cap was hit, and ``report.stage_capped`` and
    ``report.sweeps_capped`` say which. ``report.stage_cycles`` counts each
    stage's cycles and ``report.n_sweeps`` the sweeps; ``report.final_objective`` is
    the objective of the returned model.

    ``gammas`` is a scalar or a length-M sequence of roughness penalty
    weights, each finite and >= 0. The returned model has G-orthonormal
    coefficient columns, a sign convention of nonnegative component
    integrals, scores from a final joint refit, and ``noise_var`` set to the
    mean squared residual. Before any step, a ValueError names a subject with no
    observations, a non-finite time or value, or a time outside the domain.
    """
    return _fit_models(dataset, basis, [n_components], gammas)[0]
