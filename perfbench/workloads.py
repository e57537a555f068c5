"""The benchmark workloads.

A workload makes its inputs from the seed when it is built. Its set-up hands
them to the program (the calls timed as set-up). A round makes the timed
calls into the program, the same operations on the same inputs in every
round, and a check compares the round's outputs with ``checks``. A round
reports the scaled time (see ``Clock``) of its solve operations (the fits or
the command that the workload exists to time), of its predict operations
and of all its timed calls, and counts every operation it attempted and
every one that failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
from scipy import linalg as sla

import checks
import gen
from soapfda import cli, core, predict, selection, solver
from soapfda import basis as sbasis

GRID = np.linspace(0.0, 1.0, 101)
# gamma of the penalized-step probe, so the secular solve runs on every workload
PROBE_GAMMA = 1e-3


class Clock:
    """Times calls and scales each time to a reference machine speed.

    The shared machines this runs on change speed by up to 1.7x for tens of
    seconds at a time (other tenants), which moves every timing together.
    So each timed call is bracketed by a short fixed calibration kernel
    (nothing from soapfda; see ``calibrate``), and the call's
    time is scaled by REF_S / (mean calibration time around it): the time
    the call would take where the kernel takes REF_S seconds. Raw times are
    kept as well.
    """

    REF_S = 0.009

    def __init__(self):
        rng = np.random.default_rng(0)
        m = rng.random((20, 20))
        self._a, self._b = m @ m.T + 20.0 * np.eye(20), np.eye(20) + 0.01 * (m + m.T)
        self._x, self._c, self._t = rng.random((900, 20)), rng.random((20, 2)), rng.random((100, 4, 2))
        self._last = (0.0, -math.inf)  # (calibration seconds, when it ended)

    def calibrate(self) -> float:
        """The kernel mixes what a fit does: batched tiny SVDs, a tall
        matrix product, a generalized symmetric eigenproblem, Python loops."""
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(40):
            sv = np.linalg.svd(self._t, compute_uv=False)
            w = sla.eigh(self._a, self._b, eigvals_only=True)
            acc += float(sv[0, 0] + (self._x @ self._c)[0, 0] + w[0])
            for j in range(200):
                acc += j * 0.5
        end = time.perf_counter()
        self._last = (end - t0, end)
        return end - t0

    def timed(self, fn, *args, **kwargs):
        """(result, raw seconds, scaled seconds) of one call."""
        before, when = self._last
        if time.perf_counter() - when > 1e-3:
            before = self.calibrate()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        after = self.calibrate()
        return out, raw, raw * self.REF_S / ((before + after) / 2.0)


@dataclass
class Round:
    """Scaled times of the round's solve and predict operations and of all
    its timed calls, the operation counts, and the outputs to check."""

    solve_s: list[float] = field(default_factory=list)
    predict_s: list[float] = field(default_factory=list)
    raw_s: float = 0.0
    scaled_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)

    def add(self, timing, into: list[float] | None = None):
        """Count one timed call; `into` is solve_s or predict_s when the call
        is one of those operations."""
        out, raw, scaled = timing
        self.raw_s += raw
        self.scaled_s += scaled
        if into is not None:
            into.append(scaled)
        return out


@dataclass
class Quality:
    """Quality figures of every checked fit or dataset, and the timings of
    the solver probes run by the checks."""

    fit_objective: list[float] = field(default_factory=list)
    impe: list[float] = field(default_factory=list)
    component_imse: list[float] = field(default_factory=list)
    cv_error: list[float] = field(default_factory=list)
    # per round: fits whose component 1 misses the IMSE ceiling
    imse_misses: list[int] = field(default_factory=list)
    probes: dict[str, list[float]] = field(default_factory=dict)

    def probe(self, name: str, seconds: float) -> None:
        self.probes.setdefault(name, []).append(seconds)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def run_cli(argv: list[str]) -> bool:
    """One CLI command in this process; its stdout and stderr are kept out of
    the benchmark's output unless it fails."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    if status != 0:
        print(f"command {argv[0]} exited {status}: {out.getvalue()}{err.getvalue()}", file=sys.stderr)
    return status == 0


def check_fit(model, data, obs: checks.Observations, q: Quality) -> checks.Components:
    """Every hard check that applies to a fitted model, plus the solver probes."""
    c = checks.Components.from_model(model)
    checks.check_orthonormal(c)
    q.fit_objective.append(checks.check_objective(c, obs, model.basis.penalty))
    r = model.report
    checks.check_descent(r.loss_trace, r.stage_offsets, bool(np.any(c.gammas > 0)))

    A, rhs = checks.normal_equations(c, obs)
    G, P = c.gram(), c.penalty()
    step, dt = timed(solver.psi_step_penalized, A, rhs, G, P, PROBE_GAMMA)
    q.probe("psi_step_penalized", dt)
    checks.check_kkt(A + PROBE_GAMMA * P, rhs, G, step.beta, step.multiplier)

    values = [c.values(t) for t in obs.t]
    scores, dt = timed(solver.score_step, data, values)
    q.probe("score_step", dt)
    checks.check_scores(c, scores)

    value, dt = timed(solver.objective, data, model)
    q.probe("objective", dt)
    checks.check_objective(c, obs, model.basis.penalty, reported=value)
    return c


def near_truth(c: checks.Components, func, ceiling: float, q: Quality) -> bool:
    """Whether component 1 is within the IMSE ceiling of the generating
    function. A miss is a poor fit, not a broken output: it is counted, and
    does not fail the run's checks."""
    imse = checks.component_imse(c, func)
    q.component_imse.append(imse)
    return imse <= ceiling


def predict_all(data, model) -> list:
    """Reconstruct every subject of a dataset on GRID under one model."""
    return [predict.predict_trajectory(s, model, GRID) for s in data.subjects]


def check_predictions(c: checks.Components, estimates, sample: gen.Sample, q: Quality) -> None:
    scores = np.array([e.scores for e in estimates])
    values = np.array([e.values for e in estimates])
    checks.require(bool(np.all(np.isfinite(values))), "non-finite reconstruction")
    checks.check_reconstruction(c, scores, GRID, values)
    q.impe.append(checks.impe(c, scores, sample.truth))


HOLDOUT_CHECKED = 50


def check_holdout(c: checks.Components, model, test, mspe) -> None:
    """Held-out-last counts, its mean, and the first HOLDOUT_CHECKED errors
    recomputed with this module's evaluation. `mspe` has the fields of
    predict.HoldoutMSPE (per_subject as (id, error) pairs)."""
    singles = sum(s.n_obs < 2 for s in test.subjects)
    checks.require(
        mspe.n_eligible == test.n_subjects - singles and mspe.n_excluded == singles,
        f"held-out-last counted {mspe.n_eligible} eligible, {mspe.n_excluded} excluded",
    )
    errs = np.array([e for _, e in mspe.per_subject])
    checks.require(bool(np.all(np.isfinite(errs) & (errs >= 0))), "held-out errors not finite")
    checks.require(checks.rel_gap(mspe.mspe_mean, float(errs.mean())) <= 1e-12, "mspe_mean is not the mean")
    # the first subjects again: project without the last observation, predict it here
    eligible = [s for s in test.subjects if s.n_obs >= 2][:HOLDOUT_CHECKED]
    for s, (sid, err) in zip(eligible, mspe.per_subject):
        kept = core.Subject(id=s.id, t=s.t[:-1].copy(), y=s.y[:-1].copy())
        pred = float(c.values(s.t[-1:])[0] @ predict.project_scores(kept, model))
        checks.require(sid == s.id, f"held-out order: {sid} vs {s.id}")
        own = (pred - s.y[-1]) ** 2
        checks.require(abs(err - own) <= 1e-8 * max(1.0, err), f"held-out error of {sid}: {err!r} vs {own!r}")


# ---------------------------------------------------------------------------
# sparse-fit: the paper's default design: fits, prediction and selection.
# ---------------------------------------------------------------------------


class SparseFit:
    """The paper's default design, n = 300 per dataset.

    Canaries (inputs fixed, whatever the seed): stream [7, 0] fitted at
    gamma = 0 and 1e-3, and streams [1, 0] and [3, 2] at gamma = 0, on which
    fit_soap ends at a bad stationary point. A canary fit fails when it
    reports converged=False or misses the IMSE ceiling; its inputs are fixed,
    so it fails in every run or in none.

    Seeded: DATASETS datasets, each fitted at gamma = 0 and 1e-3. Whether a
    seeded fit converges or lands near the truth depends on its data, so
    those outcomes are counted in solver.unconverged and
    quality.imse_misses instead of `failed`. Each gamma = 1e-3 model
    predicts its dataset's 300 held-out subjects and runs them through
    held-out-last.

    Selection runs on the canary dataset [7, 0]: LOCO-CV over CV_GRID on
    CV_FOLDS folds drawn from the seed, and AIC over an M = 1 fit and the
    canary's gamma = 1e-3 fit. The M = 1 fit has fixed inputs, so it is
    judged as a canary fit. All the fold fits of a CV call share one
    dataset, so on seeded data its cost would move round_s from seed to seed.
    """

    name = "sparse-fit"
    N = 300
    CANARIES = (((7, 0), (0.0, 1e-3)), ((1, 0), (0.0,)), ((3, 2), (0.0,)))
    DATASETS = 3
    GAMMAS = (0.0, 1e-3)
    GAMMA = 1e-3
    L = 20
    IMSE_CEILING = 0.1
    CV_GRID = (0.0, 1e2, 1e4, 1e8)
    CV_FOLDS = 3

    def __init__(self, seed: int, workdir: str):
        """Makes the inputs; set-up hands them to the program."""
        self.seed = seed
        self.fits = []  # (sample, gamma, canary)
        for stream, gammas in self.CANARIES:
            sample = gen.sparse_sample(gen.rng_for(*stream), self.N)
            self.fits += [(sample, g, True) for g in gammas]
        self.tests = []
        for k in range(self.DATASETS):
            rng = gen.rng_for(seed, k)
            train, test = gen.sparse_sample(rng, self.N), gen.sparse_sample(rng, self.N, prefix="h")
            self.fits += [(train, g, False) for g in self.GAMMAS]
            self.tests.append(test)
        # the fit whose dataset and model selection uses: canary [7, 0] at GAMMA
        self.select = next(i for i, (_, g, canary) in enumerate(self.fits) if canary and g == self.GAMMA)

    def setup(self):
        datasets = {}
        for sample, _, _ in self.fits:
            if id(sample) not in datasets:
                datasets[id(sample)] = core.validate_dataset(sample.rows, gen.DOMAIN)
        return {
            "basis": sbasis.make_bspline_basis(gen.DOMAIN, self.L, 4),
            "fits": [(s, datasets[id(s)], g, canary) for s, g, canary in self.fits],
            "tests": [(t, core.validate_dataset(t.rows, gen.DOMAIN)) for t in self.tests],
        }

    def round(self, st, clock: Clock) -> Round:
        out = Round()
        basis = st["basis"]
        models = []
        for _, data, g, _ in st["fits"]:
            models.append(out.add(clock.timed(solver.fit_soap, data, basis, 2, g), out.solve_s))
            out.attempted += 1
        predicting = [m for m, (_, _, g, canary) in zip(models, st["fits"]) if g == self.GAMMA and not canary]
        preds, holdouts = [], []
        for model, (_, test) in zip(predicting, st["tests"], strict=True):
            preds.append(out.add(clock.timed(predict_all, test, model), out.predict_s))
            holdouts.append(out.add(clock.timed(predict.holdout_last_mspe_model, model, test), out.predict_s))
            out.attempted += test.n_subjects + 1

        data = st["fits"][self.select][1]
        cv = out.add(clock.timed(
            selection.loco_cv_gamma, data, basis, 1, None, self.CV_GRID, max_folds=self.CV_FOLDS, fold_seed=self.seed
        ))
        single = out.add(clock.timed(solver.fit_soap, data, basis, 1, self.GAMMA))
        aic = out.add(clock.timed(selection.aic, data, [single, models[self.select]]))
        out.attempted += 3
        out.outputs = (models, predicting, preds, holdouts, cv, single, aic)
        return out

    def check(self, st, out: Round, q: Quality) -> None:
        """Hard checks on every output; canary fits that did not converge or
        missed the IMSE ceiling are added to out.failed."""
        models, predicting, preds, holdouts, cv, single, aic = out.outputs
        fitted, misses = {}, 0
        for (sample, data, _, canary), model in zip(st["fits"], models):
            obs = checks.Observations.from_rows(sample.rows)
            c = fitted[id(model)] = check_fit(model, data, obs, q)
            near = near_truth(c, sample.truth.funcs[0], self.IMSE_CEILING, q)
            misses += int(not near)
            out.failed += int(canary and not (near and model.report.converged))
        for model, estimates, mspe, (test, test_data) in zip(predicting, preds, holdouts, st["tests"]):
            check_predictions(fitted[id(model)], estimates, test, q)
            check_holdout(fitted[id(model)], model, test_data, mspe)

        sample, data, _, _ = st["fits"][self.select]
        obs = checks.Observations.from_rows(sample.rows)
        q.cv_error.append(checks.check_cv(cv.candidate_gammas, cv.cv_errors, cv.chosen))
        one = check_fit(single, data, obs, q)
        near = near_truth(one, sample.truth.funcs[0], self.IMSE_CEILING, q)
        misses += int(not near)
        # the M = 1 fit is on the canary's fixed inputs, so it is judged as a canary
        out.failed += int(not (near and single.report.converged))
        q.imse_misses.append(misses)
        checks.check_aic(aic.candidate_m, aic.sigma2, aic.aic, aic.chosen, [one, fitted[id(models[self.select])]], obs)


# ---------------------------------------------------------------------------
# dense-oracle: fit, predict and oracle-check on noise-free in-span curves.
# ---------------------------------------------------------------------------


class DenseOracle:
    """DATASETS seeded sets of N + HELD noise-free curves on a Q-point grid,
    from an orthonormal pair inside the span of an L-function cubic basis.
    For each set, via cli.main: the fit command on the first N curves,
    predict --holdout-last on the other HELD with the fitted model, and
    oracle-check on the first N."""

    name = "dense-oracle"
    N = 50
    HELD = 50
    Q = 401
    L = 10
    DATASETS = 2

    def __init__(self, seed: int, workdir: str):
        """Makes the inputs and writes their CSVs; set-up hands them to the program."""
        self.grid = np.linspace(0.0, 1.0, self.Q)
        self.sets = []
        for k in range(self.DATASETS):
            sample = gen.dense_sample(gen.rng_for(seed, k), self.N + self.HELD, self.grid, self.L)
            train, held = gen.split(sample, self.N)
            paths = {key: os.path.join(workdir, f"dense{key}{k}") for key in ("", "held", "fit", "pred", "oracle")}
            gen.write_csv(paths[""] + ".csv", train.rows)
            gen.write_csv(paths["held"] + ".csv", held.rows)
            self.sets.append((train, held, paths))

    def setup(self):
        return {
            "sets": [
                (train, core.validate_dataset(train.rows, gen.DOMAIN), held,
                 core.validate_dataset(held.rows, gen.DOMAIN), p)
                for train, held, p in self.sets
            ]
        }

    def round(self, st, clock: Clock) -> Round:
        out = Round()
        common = ["--m", "2", "--basis-size", str(self.L)]
        for *_, p in st["sets"]:
            commands = (
                (["fit", "--input", p[""] + ".csv", "--output-dir", p["fit"], "--domain", "0,1"] + common, None),
                (["predict", "--input", p["held"] + ".csv", "--model", os.path.join(p["fit"], "model.json"),
                  "--output-dir", p["pred"], "--holdout-last"], out.predict_s),
                (["oracle-check", "--input", p[""] + ".csv", "--output-dir", p["oracle"]] + common, out.solve_s),
            )
            ok = [out.add(clock.timed(run_cli, argv), into) for argv, into in commands]
            out.attempted += len(ok)
            out.failed += ok.count(False)
            out.outputs.append(ok)
        return out

    def check(self, st, out: Round, q: Quality) -> None:
        for (train, data, held, held_data, p), ok in zip(st["sets"], out.outputs):
            model_path = os.path.join(p["fit"], "model.json")
            if ok[0]:
                saved = checks.Components.from_json(model_path)
                obs = checks.Observations.from_rows(train.rows)
                check_fit(core.load_model(model_path), data, obs, q)
                _, scores = checks.check_trajectory_files(
                    saved, os.path.join(p["fit"], "scores.csv"), os.path.join(p["fit"], "fitted.csv")
                )
                q.impe.append(checks.impe(saved, scores, train.truth))
            if ok[0] and ok[1]:
                _, scores = checks.check_trajectory_files(
                    saved, os.path.join(p["pred"], "scores.csv"), os.path.join(p["pred"], "predictions.csv")
                )
                q.impe.append(checks.impe(saved, scores, held.truth))
                with open(os.path.join(p["pred"], "mspe.json"), encoding="utf-8") as fh:
                    mspe = json.load(fh)
                mspe["per_subject"] = [(e["subject_id"], e["sq_error"]) for e in mspe["per_subject"]]
                check_holdout(saved, core.load_model(model_path), held_data, SimpleNamespace(**mspe))
            if ok[0] and ok[2]:
                with open(os.path.join(p["oracle"], "oracle_check.json"), encoding="utf-8") as fh:
                    reported = json.load(fh)
                imse = checks.check_oracle(saved, train.truth.curves(self.grid), self.grid, reported)
                q.component_imse.append(float(imse[0]))


WORKLOADS = {w.name: w for w in (SparseFit, DenseOracle)}
