"""Checks of soapfda's outputs against computations made here.

Nothing in this module calls soapfda. Components are evaluated with
``scipy.interpolate.BSpline`` from the model's knots and coefficients,
integrals use Gauss-Legendre quadrature on each knot span, the dense-grid
reference is an eigendecomposition of the quadrature-weighted uncentered
covariance, and sigma^2 and AIC are recomputed from each fit's coefficients
and scores. Every check raises ``CheckFailed`` with the quantity it measured.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BSpline

ORTHONORMAL_TOL = 1e-8
OBJECTIVE_TOL = 1e-10
DESCENT_TOL = 1e-12
KKT_TOL = 1e-8
RECONSTRUCTION_TOL = 1e-10
ORACLE_IMSE_TOL = 1e-4


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Observations and fitted components, held in the benchmark's own form.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Observations:
    """Subjects in ascending id order, each with times sorted ascending."""

    ids: list[str]
    t: list[np.ndarray]
    y: list[np.ndarray]

    @classmethod
    def from_rows(cls, rows) -> "Observations":
        grouped: dict[str, list[tuple[float, float]]] = {}
        for sid, t, y in rows:
            grouped.setdefault(str(sid), []).append((float(t), float(y)))
        ids = sorted(grouped)
        ts, ys = [], []
        for sid in ids:
            pairs = np.array(grouped[sid])
            order = np.argsort(pairs[:, 0], kind="stable")
            ts.append(pairs[order, 0])
            ys.append(pairs[order, 1])
        return cls(ids=ids, t=ts, y=ys)

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def n_obs(self) -> int:
        return sum(len(t) for t in self.t)

    def stacked(self):
        """(times, values, subject index, weight 1/(n n_i)) over all rows."""
        sizes = np.array([len(t) for t in self.t])
        subj = np.repeat(np.arange(self.n), sizes)
        return np.concatenate(self.t), np.concatenate(self.y), subj, 1.0 / (self.n * sizes[subj])


@dataclass(frozen=True)
class Components:
    """Spline components psi_m = sum_l coef[l, m] B_l with their scores."""

    knots: np.ndarray
    order: int
    coef: np.ndarray  # (L, M)
    scores: np.ndarray  # (n, M)
    gammas: np.ndarray
    noise_var: float

    @classmethod
    def from_model(cls, model) -> "Components":
        return cls(
            knots=np.asarray(model.basis.knots, dtype=float),
            order=int(model.basis.order),
            coef=np.array(model.coef, dtype=float),
            scores=np.array(model.scores, dtype=float),
            gammas=np.array(model.gammas, dtype=float),
            noise_var=float(model.noise_var),
        )

    @classmethod
    def from_json(cls, path) -> "Components":
        """Read a saved model document directly, without the program's loader."""
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        b = doc["basis"]
        order = int(b["order"])
        lo, hi = float(b["domain"][0]), float(b["domain"][1])
        knots = np.concatenate([np.full(order, lo), np.asarray(b["interior_knots"], float), np.full(order, hi)])
        L, M = int(doc["l"]), int(doc["m"])
        return cls(
            knots=knots,
            order=order,
            coef=np.asarray(doc["coef"], dtype=float).reshape((L, M), order="F"),
            scores=np.asarray(doc["scores"], dtype=float).reshape(-1, M),
            gammas=np.asarray(doc["gammas"], dtype=float),
            noise_var=float(doc["noise_var"]),
        )

    @property
    def size(self) -> int:
        return self.coef.shape[0]

    def spline(self, coef=None) -> BSpline:
        return BSpline(self.knots, self.coef if coef is None else coef, self.order - 1)

    def values(self, t) -> np.ndarray:
        """Component values, shape (len(t), M)."""
        return self.spline()(np.asarray(t, dtype=float))

    def basis_values(self, t) -> np.ndarray:
        """Every B-spline at t, shape (len(t), L)."""
        return self.spline(np.eye(self.size))(np.asarray(t, dtype=float))

    def quadrature(self, per_span: int | None = None):
        """Gauss-Legendre nodes and weights, ``per_span`` on every knot span."""
        k = per_span or self.order + 1
        breaks = np.unique(self.knots)
        x, w = np.polynomial.legendre.leggauss(k)
        half = np.diff(breaks) / 2.0
        mid = (breaks[:-1] + breaks[1:]) / 2.0
        return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()

    def gram(self) -> np.ndarray:
        x, w = self.quadrature()
        B = self.basis_values(x)
        return B.T @ (w[:, None] * B)

    def penalty(self) -> np.ndarray:
        x, w = self.quadrature()
        D = self.spline(np.eye(self.size)).derivative(2)(x)
        return D.T @ (w[:, None] * D)


# ---------------------------------------------------------------------------
# Fit checks.
# ---------------------------------------------------------------------------


def check_orthonormal(c: Components) -> float:
    """Components are L2-orthonormal by this module's quadrature."""
    x, w = c.quadrature()
    V = c.values(x)
    err = float(np.max(np.abs(V.T @ (w[:, None] * V) - np.eye(c.coef.shape[1]))))
    require(err <= ORTHONORMAL_TOL, f"orthonormality error {err:.3e} > {ORTHONORMAL_TOL:g}")
    return err


def residual_term(c: Components, obs: Observations) -> float:
    """(1/n) sum_i (1/n_i) sum_j (y_ij - sum_m a_im psi_m(t_ij))^2."""
    t, y, subj, w = obs.stacked()
    resid = y - np.sum(c.values(t) * c.scores[subj], axis=1)
    return float(w @ (resid * resid))


def penalty_terms(c: Components) -> np.ndarray:
    """gamma_m * integral of psi_m''(t)^2, by quadrature of the derivative."""
    x, w = c.quadrature()
    d2 = c.spline().derivative(2)(x)
    return c.gammas * (w @ (d2 * d2))


def own_objective(c: Components, obs: Observations) -> float:
    return residual_term(c, obs) + float(np.sum(penalty_terms(c)))


def penalty_rounding(c: Components, penalty: np.ndarray) -> float:
    """Rounding-error bound of the penalty terms gamma_m c_m' P c_m.

    At gamma = 1e8 a nearly linear component has c' P c close to zero by
    cancellation, and gamma times the rounding error of the quadratic form
    can exceed 1e-10 of the objective. The bound is the usual one for a
    quadratic form, a small multiple of eps * |c|' |P| |c|.
    """
    a = np.abs(c.coef)
    return float(sum(g * 64 * np.finfo(float).eps * (a[:, m] @ np.abs(penalty) @ a[:, m]) for m, g in enumerate(c.gammas)))


def check_objective(c: Components, obs: Observations, penalty: np.ndarray, reported: float | None = None) -> float:
    """The recomputed objective equals ``reported``, by default noise_var plus
    the model's own penalties gamma_m c_m' P c_m, to OBJECTIVE_TOL relative to
    max(1, objective) (the program's own scale for objective changes) plus
    the penalty rounding bound."""
    mine = own_objective(c, obs)
    if reported is None:
        reported = c.noise_var + sum(float(g) * float(c.coef[:, m] @ penalty @ c.coef[:, m]) for m, g in enumerate(c.gammas))
    gap = abs(mine - reported)
    tol = OBJECTIVE_TOL * max(1.0, abs(mine)) + penalty_rounding(c, penalty)
    require(gap <= tol, f"objective {reported!r} vs recomputed {mine!r} (gap {gap:.3e} > {tol:.3e})")
    return mine


def check_descent(loss_trace, stage_offsets, penalized: bool) -> float:
    """Loss trace is non-increasing; with a penalty, within each stage (the
    last stage runs through the refinement sweeps)."""
    trace = np.asarray(loss_trace, dtype=float)
    require(trace.size > 0 and bool(np.all(np.isfinite(trace))), "loss trace empty or not finite")
    bounds = list(stage_offsets) + [len(trace)] if penalized else [0, len(trace)]
    worst = 0.0
    for a, b in zip(bounds[:-1], bounds[1:]):
        seg = trace[a:b]
        if len(seg) > 1:
            worst = max(worst, float(np.max(np.diff(seg) / np.maximum(1.0, seg[:-1]))))
    require(worst <= DESCENT_TOL, f"loss trace rises by {worst:.3e} relative > {DESCENT_TOL:g}")
    return worst


def normal_equations(c: Components, obs: Observations, m: int = 0):
    """Normal matrix and right-hand side of the update of component m with
    the scores and the other components held at the fitted state."""
    t, y, subj, w = obs.stacked()
    B = c.basis_values(t)
    s = c.scores[subj]
    others = np.sum(np.delete(c.values(t) * s, m, axis=1), axis=1)
    alpha = s[:, m]
    A = B.T @ ((w * alpha * alpha)[:, None] * B)
    return (A + A.T) / 2.0, B.T @ (w * alpha * (y - others))


def check_kkt(H, rhs, G, beta, multiplier) -> float:
    """Stationarity (H - lambda G) beta = rhs and unit G-norm of the step."""
    require(math.isfinite(multiplier), "penalized step fell back (no multiplier)")
    kkt = float(np.linalg.norm(H @ beta - multiplier * (G @ beta) - rhs) / np.linalg.norm(rhs))
    require(kkt <= KKT_TOL, f"KKT residual {kkt:.3e} > {KKT_TOL:g} relative")
    norm_err = abs(float(beta @ G @ beta) - 1.0)
    require(norm_err <= ORTHONORMAL_TOL, f"penalized step G-norm off by {norm_err:.3e}")
    return kkt


def check_scores(c: Components, scores) -> float:
    scores = np.asarray(scores, dtype=float)
    require(scores.shape == c.scores.shape, f"scores shape {scores.shape} vs {c.scores.shape}")
    gap = float(np.max(np.abs(scores - c.scores))) / max(1.0, float(np.max(np.abs(c.scores))))
    require(gap <= 1e-8, f"projected scores differ from the fitted scores by {gap:.3e}")
    return gap


def check_reconstruction(c: Components, scores, grid, values) -> float:
    """Reconstructed curves equal sum_m a_m psi_m(grid) evaluated here."""
    mine = np.asarray(scores, dtype=float) @ c.values(grid).T
    values = np.asarray(values, dtype=float)
    require(mine.shape == values.shape, f"reconstruction shape {values.shape} vs {mine.shape}")
    gap = float(np.max(np.abs(mine - values))) / max(1.0, float(np.max(np.abs(mine))))
    require(gap <= RECONSTRUCTION_TOL, f"reconstruction differs by {gap:.3e} > {RECONSTRUCTION_TOL:g}")
    return gap


def component_imse(c: Components, func, m: int = 0) -> float:
    """Sign-aligned integrated squared error of component m against func."""
    x, w = c.quadrature()
    psi, ref = c.values(x)[:, m], func(x)
    return float(min(w @ (psi - ref) ** 2, w @ (psi + ref) ** 2))


def impe(c: Components, scores, truth) -> float:
    """Mean integrated squared error of reconstructed curves (one row of
    scores per generating subject) against the generating curves."""
    x, w = c.quadrature()
    mine = np.asarray(scores, dtype=float) @ c.values(x).T
    err = (mine - truth.curves(x)) ** 2
    return float(np.mean(err @ w))


# ---------------------------------------------------------------------------
# Selection checks and the CLI's output files.
# ---------------------------------------------------------------------------


def check_cv(candidates, cv_errors, chosen) -> float:
    """The chosen gamma is the argmin of the CV table, ties to the larger
    gamma. Returns the CV error at the chosen gamma."""
    require(any(math.isfinite(e) for e in cv_errors), "every CV error is infinite")
    best = 0
    for j in range(1, len(candidates)):
        if cv_errors[j] < cv_errors[best] or (cv_errors[j] == cv_errors[best] and candidates[j] > candidates[best]):
            best = j
    require(chosen == candidates[best], f"chose gamma {chosen}, CV argmin is {candidates[best]}")
    return cv_errors[best]


def sigma2(c: Components, obs: Observations) -> float:
    """Average squared residual (1/n) sum_i (1/n_i) ||y_i - yhat_i||^2."""
    require(c.scores.shape[0] == obs.n, f"model has {c.scores.shape[0]} subjects, data {obs.n}")
    return residual_term(c, obs)


def check_aic(candidate_m, sigma2s, aics, chosen, fits, obs: Observations) -> None:
    """Each sigma^2 is recomputed here from its fit, each AIC entry is
    N log sigma^2 + N + 2 n M, and the chosen M is the argmin (ties to the
    smaller M)."""
    N, n = obs.n_obs, obs.n
    for m, s2, aic, c in zip(candidate_m, sigma2s, aics, fits, strict=True):
        own = sigma2(c, obs)
        require(rel_gap(s2, own) <= OBJECTIVE_TOL, f"sigma2 for M={m}: {s2!r} vs recomputed {own!r}")
        want = N * math.log(own) + N + 2 * n * m
        require(rel_gap(aic, want) <= OBJECTIVE_TOL, f"AIC for M={m}: {aic!r} vs {want!r}")
    best = min(zip(aics, candidate_m))[1]
    require(chosen == best, f"chosen M {chosen} but AIC argmin is {best}")


def read_table(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    return rows[0], rows[1:]


def check_trajectory_files(c: Components, scores_csv, curves_csv) -> tuple[list[str], np.ndarray]:
    """scores.csv and a trajectory CSV (subject_id, t, x_hat) written by the
    CLI agree with this module's evaluation. Returns (ids, scores)."""
    _, srows = read_table(scores_csv)
    ids = [r[0] for r in srows]
    scores = np.array([[float(v) for v in r[1:]] for r in srows])
    _, crows = read_table(curves_csv)
    by_id: dict[str, list[tuple[float, float]]] = {}
    for sid, t, v in crows:
        by_id.setdefault(sid, []).append((float(t), float(v)))
    require(sorted(by_id) == sorted(ids), "trajectory subjects differ from score subjects")
    grid = np.array([t for t, _ in by_id[ids[0]]])
    values = np.array([[v for _, v in by_id[sid]] for sid in ids])
    check_reconstruction(c, scores, grid, values)
    return ids, scores


# ---------------------------------------------------------------------------
# Dense-grid reference.
# ---------------------------------------------------------------------------


def trapezoid(grid) -> np.ndarray:
    w = np.empty(len(grid))
    w[1:-1] = (grid[2:] - grid[:-2]) / 2.0
    w[0] = (grid[1] - grid[0]) / 2.0
    w[-1] = (grid[-1] - grid[-2]) / 2.0
    return w


def eigenfunctions(curves, grid, m: int):
    """Leading eigenfunctions (grid values, unit trapezoid norm) and
    eigenvalues of the uncentered sample covariance operator."""
    X = np.asarray(curves, dtype=float)
    sw = np.sqrt(trapezoid(grid))
    Y = X * sw / math.sqrt(X.shape[0])
    vals, vecs = np.linalg.eigh(Y.T @ Y)
    order = np.argsort(vals)[::-1][:m]
    return vecs[:, order] / sw[:, None], vals[order]


def check_oracle(c: Components, curves, grid, reported: dict) -> np.ndarray:
    """Fitted components match the reference eigenfunctions (sign-aligned
    IMSE), and the eigenvalues and IMSEs that oracle-check reports agree."""
    m = c.coef.shape[1]
    funcs, vals = eigenfunctions(curves, grid, m)
    w = trapezoid(grid)
    fitted = c.values(grid)
    imse = np.array(
        [min(w @ (fitted[:, k] - funcs[:, k]) ** 2, w @ (fitted[:, k] + funcs[:, k]) ** 2) for k in range(m)]
    )
    require(bool(np.all(imse <= ORACLE_IMSE_TOL)), f"IMSE against own eigenfunctions {imse.tolist()}")
    got_vals = np.asarray(reported["eigenvalues"], dtype=float)
    require(got_vals.shape == vals.shape, f"{got_vals.size} eigenvalues reported, {vals.size} expected")
    gap = float(np.max(np.abs(got_vals - vals) / vals))
    require(gap <= 1e-8, f"reported eigenvalues differ from own by {gap:.3e} relative")
    got_imse = np.asarray(reported["imse_per_component"], dtype=float)
    require(
        got_imse.shape == imse.shape and bool(np.all(got_imse <= ORACLE_IMSE_TOL)),
        f"reported IMSE {got_imse.tolist()} above {ORACLE_IMSE_TOL:g}",
    )
    return imse
