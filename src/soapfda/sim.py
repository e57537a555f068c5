"""Synthetic sparse-curve generation, the IMPE metric and replicated studies.

Curves are rank-2: X_i(t) = a_i1 psi_1(t) + a_i2 psi_2(t) with an
orthonormal pair psi_1, psi_2, subject counts and sampling laws chosen to
mimic sparse longitudinal designs (few observations per subject at uniform
random times, Gaussian measurement noise).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .basis import _panel_rule, default_basis_size, make_bspline_basis
from .core import LongitudinalDataset, _read_text, dataset_from_columns
from .oracle import compare_to_soap
from .predict import default_grid, predict_trajectories
from .solver import fit_soap


def cosine_pair(domain: tuple[float, float]) -> tuple[Callable, Callable]:
    """Default orthonormal pair on the domain: scaled cos(pi u), cos(2 pi u)."""
    lo, hi = domain
    width = hi - lo
    amp = np.sqrt(2.0 / width)

    def f1(t):
        u = (np.asarray(t, dtype=float) - lo) / width
        return amp * np.cos(np.pi * u)

    def f2(t):
        u = (np.asarray(t, dtype=float) - lo) / width
        return amp * np.cos(2.0 * np.pi * u)

    return f1, f2


def check_orthonormal(f1, f2, domain, tol: float = 1e-10) -> None:
    """Verify <f1,f1> = <f2,f2> = 1 and <f1,f2> = 0 by composite quadrature.

    256 Gauss-Legendre panels resolve smooth pairs exactly and piecewise
    polynomials (spline-representable pairs) to well below the tolerance.
    """
    lo, hi = domain
    pts, wts = _panel_rule(np.linspace(lo, hi, 257), 12)
    v1 = np.asarray(f1(pts), dtype=float)
    v2 = np.asarray(f2(pts), dtype=float)
    worst = max(
        abs(float(wts @ (v1 * v1)) - 1.0),
        abs(float(wts @ (v2 * v2)) - 1.0),
        abs(float(wts @ (v1 * v2))),
    )
    if not worst <= tol:  # a NaN error fails too
        raise ValueError(f"component pair is not orthonormal (error {worst:.2e} > {tol:g})")


@dataclass(frozen=True)
class SimulationConfig:
    """Generator settings.

    ``score_scales`` are the Gaussian standard deviations per component (set
    ``normal_scale_is_sd=False`` to read them as variances instead);
    ``gamma_rates`` are the rate parameters of the centered-Gamma score law.
    ``components`` may supply any orthonormal pair; the default is the
    cosine pair above. An invalid setting raises a ValueError naming it.
    """

    n_train: int = 300
    n_test: int = 300
    score_dist: str = "gaussian"  # gaussian | gamma_centered
    score_scales: tuple[float, float] = (30.0, 10.0)
    gamma_rates: tuple[float, float] = (0.03, 0.1)
    normal_scale_is_sd: bool = True
    noise_sd: float = 2.0
    ni_range: tuple[int, int] = (1, 5)
    domain: tuple[float, float] = (0.0, 1.0)
    seed: int = 0
    components: tuple[Callable, Callable] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.score_dist not in ("gaussian", "gamma_centered"):
            raise ValueError(f"unknown score_dist {self.score_dist!r}")
        for name in ("n_train", "n_test"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("score_scales", "gamma_rates"):
            if not all(math.isfinite(v) and v > 0 for v in getattr(self, name)):
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not (math.isfinite(self.noise_sd) and self.noise_sd >= 0):
            raise ValueError(f"noise_sd must be finite and >= 0, got {self.noise_sd}")
        lo, hi = self.ni_range
        if lo < 1 or hi < lo:
            raise ValueError(f"invalid ni_range {self.ni_range}")
        if not (all(math.isfinite(v) for v in self.domain) and self.domain[0] < self.domain[1]):
            raise ValueError(f"domain must be finite with lo < hi, got {self.domain}")

    def component_pair(self) -> tuple[Callable, Callable]:
        pair = self.components if self.components is not None else cosine_pair(self.domain)
        check_orthonormal(pair[0], pair[1], self.domain)
        return pair


@dataclass(frozen=True)
class TrueCurves:
    """Noise-free generating curves: scores plus the component pair."""

    scores: np.ndarray  # (n, 2)
    f1: Callable
    f2: Callable

    def curves_matrix(self, grid) -> np.ndarray:
        return np.outer(self.scores[:, 0], self.f1(grid)) + np.outer(self.scores[:, 1], self.f2(grid))


def gen_scores(config: SimulationConfig, n: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Draw the n x 2 score matrix under the configured law.

    Gaussian scores are independent N(0, s_m^2) with s_m from
    ``score_scales``; centered-Gamma scores are Gamma(shape 1, rate r_m)
    draws minus their sample column mean (so each column sums to zero
    exactly).
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if config.score_dist == "gaussian":
        sds = np.asarray(config.score_scales, dtype=float)
        if not config.normal_scale_is_sd:
            sds = np.sqrt(sds)
        return rng.normal(0.0, 1.0, size=(n, 2)) * sds[None, :]
    raw = np.column_stack(
        [rng.gamma(shape=1.0, scale=1.0 / rate, size=n) for rate in config.gamma_rates]
    )
    return raw - raw.mean(axis=0, keepdims=True)


def gen_sparse_dataset(
    config: SimulationConfig,
    n: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[LongitudinalDataset, np.ndarray, TrueCurves]:
    """Generate one sparse noisy dataset plus the generating truth.

    Per subject: n_i uniform on ``ni_range``, times uniform on the domain
    (sorted), y = X(t) + Normal(0, noise_sd^2). Returns (dataset, scores,
    truth handle); subject ids are zero-padded so dataset order matches
    generation order.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if n is None:
        n = config.n_train
    f1, f2 = config.component_pair()
    scores = gen_scores(config, n, rng)
    lo, hi = config.domain
    ni_lo, ni_hi = config.ni_range
    width = len(str(max(n, 1)))
    # the empty first arrays make n = 0 empty columns, which dataset_from_columns rejects
    ids, ts, ys = [], [np.empty(0)], [np.empty(0)]
    for i in range(n):
        n_i = int(rng.integers(ni_lo, ni_hi + 1))
        t = np.sort(rng.uniform(lo, hi, size=n_i))
        x = scores[i, 0] * f1(t) + scores[i, 1] * f2(t)
        y = x + rng.normal(0.0, config.noise_sd, size=n_i) if config.noise_sd > 0 else x
        ids += [f"s{i:0{width}d}"] * n_i
        ts.append(t)
        ys.append(y)
    dataset = dataset_from_columns(ids, np.concatenate(ts), np.concatenate(ys), config.domain)
    return dataset, scores, TrueCurves(scores=scores, f1=f1, f2=f2)


def draw_replication(
    config: SimulationConfig, rep: int
) -> tuple[LongitudinalDataset, LongitudinalDataset, TrueCurves]:
    """Training and test sets of replication ``rep`` of a study.

    Both are drawn, training set first, from the substream seeded with the
    config seed plus ``rep``. Returns (train, test, truth of the test set).
    """
    rng = np.random.default_rng(config.seed + rep)
    train, _, _ = gen_sparse_dataset(config, config.n_train, rng)
    test, _, truth = gen_sparse_dataset(config, config.n_test, rng)
    return train, test, truth


def impe(predicted: np.ndarray, true_curves: np.ndarray, grid) -> float:
    """Mean over subjects of the trapezoid integral of (xhat - x)^2."""
    predicted = np.asarray(predicted, dtype=float)
    true_curves = np.asarray(true_curves, dtype=float)
    if predicted.shape != true_curves.shape:
        raise ValueError(f"shape mismatch: {predicted.shape} vs {true_curves.shape}")
    grid = np.asarray(grid, dtype=float)
    if predicted.shape[1] != len(grid):
        raise ValueError("curves do not match the grid length")
    per_subject = np.trapezoid((predicted - true_curves) ** 2, grid, axis=1)
    return float(per_subject.mean())


@dataclass(frozen=True)
class MetricStats:
    mean: float
    sd: float
    median: float
    minimum: float
    maximum: float

    @classmethod
    def from_values(cls, values) -> "MetricStats":
        v = np.asarray(values, dtype=float)
        return cls(
            mean=float(v.mean()),
            sd=float(v.std(ddof=1)) if len(v) > 1 else 0.0,
            median=float(np.median(v)),
            minimum=float(v.min()),
            maximum=float(v.max()),
        )

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "sd": self.sd,
            "median": self.median,
            "min": self.minimum,
            "max": self.maximum,
        }


@dataclass(frozen=True)
class StudySummary:
    n_reps: int
    n_failed: int
    failed_reps: tuple[int, ...]
    impe: MetricStats
    imse_components: tuple[MetricStats, ...]
    per_rep: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "n_reps": self.n_reps,
            "n_failed": self.n_failed,
            "failed_reps": list(self.failed_reps),
            "impe": self.impe.to_dict(),
            "imse": [s.to_dict() for s in self.imse_components],
        }


def run_replication_study(
    config: SimulationConfig,
    n_reps: int,
    n_components: int = 2,
    gammas=1e-3,
    basis_size: int | None = None,
    order: int = 4,
    grid_size: int = 101,
) -> StudySummary:
    """Repeatedly generate train/test data, fit, predict, and aggregate errors.

    Each replication draws its data with ``draw_replication``, from its own
    substream, so the study is reproducible and replications are
    independent. Per replication we record IMPE of the predicted test
    trajectories and the sign-aligned IMSE of each fitted component against
    the generating pair; failed replications are excluded and counted. If
    every replication fails, raises a RuntimeError carrying the first
    failure.
    """
    if n_reps < 1:
        raise ValueError("need at least one replication")
    grid = default_grid(config.domain, grid_size)
    f1, f2 = config.component_pair()
    true_values = np.column_stack([f1(grid), f2(grid)])

    def one_rep(rep: int) -> dict:
        train, test, truth_test = draw_replication(config, rep)
        L = basis_size if basis_size is not None else default_basis_size(train.n_obs_total, order)
        basis = make_bspline_basis(config.domain, L, order)
        model = fit_soap(train, basis, n_components, gammas)
        predicted = np.vstack([t.values for t in predict_trajectories(test.subjects, model, grid)])
        truth = truth_test.curves_matrix(grid)
        record = {"rep": rep, "impe": impe(predicted, truth, grid)}
        for m, imse in enumerate(compare_to_soap(model, true_values, grid)):
            record[f"imse_{m + 1}"] = float(imse)
        return record

    per_rep, failed, first_error = [], [], None
    for rep in range(n_reps):
        try:
            per_rep.append(one_rep(rep))
        except Exception as exc:  # noqa: BLE001 - a failed replication is data, not a crash
            failed.append(rep)
            first_error = first_error or exc

    if not per_rep:
        raise RuntimeError(f"all {n_reps} replications failed; the first with {first_error!r}")
    return StudySummary(
        n_reps=n_reps,
        n_failed=len(failed),
        failed_reps=tuple(failed),
        impe=MetricStats.from_values([r["impe"] for r in per_rep]),
        imse_components=tuple(
            MetricStats.from_values([r[f"imse_{m + 1}"] for r in per_rep])
            for m in range(min(n_components, 2))
        ),
        per_rep=tuple(per_rep),
    )


# ---------------------------------------------------------------------------
# Plain-text key=value config files for the CLI.
# ---------------------------------------------------------------------------

_BOOLEANS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _parse_bool(text: str) -> bool:
    if text.lower() not in _BOOLEANS:
        raise ValueError(f"expected one of {'/'.join(_BOOLEANS)}, got {text!r}")
    return _BOOLEANS[text.lower()]


# file key -> (SimulationConfig field, position within a pair field or None, parser)
_CONFIG_KEYS = {
    "n_train": ("n_train", None, int),
    "n_test": ("n_test", None, int),
    "score_dist": ("score_dist", None, str),
    "score_scale_1": ("score_scales", 0, float),
    "score_scale_2": ("score_scales", 1, float),
    "gamma_rate_1": ("gamma_rates", 0, float),
    "gamma_rate_2": ("gamma_rates", 1, float),
    "normal_scale_is_sd": ("normal_scale_is_sd", None, _parse_bool),
    "noise_sd": ("noise_sd", None, float),
    "ni_min": ("ni_range", 0, int),
    "ni_max": ("ni_range", 1, int),
    "domain_lo": ("domain", 0, float),
    "domain_hi": ("domain", 1, float),
    "seed": ("seed", None, int),
}


def parse_config_file(path) -> SimulationConfig:
    """Read a key=value config file ('#' starts a comment) into a SimulationConfig.

    Keys not in the file keep their defaults. An unknown or repeated key, a
    value its parser rejects and an invalid setting raise a ValueError that
    names the file; all but the last also name the line and the key. A file
    that is not UTF-8 text raises one naming the file and the line.
    """
    config = SimulationConfig()
    updates: dict[str, object] = {}
    seen: dict[str, int] = {}
    # universal newlines, so lines are numbered as file iteration numbers them
    with io.StringIO(_read_text(path, f"{path}:"), newline=None) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in seen:
                raise ValueError(f"{path}:{lineno}: key {key!r} repeats line {seen[key]}")
            seen[key] = lineno
            name, pos, parse = _CONFIG_KEYS[key]
            try:
                value = parse(text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: key {key!r}: {exc}") from None
            if pos is not None:
                pair = list(updates.get(name, getattr(config, name)))
                pair[pos] = value
                value = tuple(pair)
            updates[name] = value
    try:
        return replace(config, **updates)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
