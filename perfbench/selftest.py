#!/usr/bin/env python3
"""Shows that every checker in ``checks`` rejects a corrupted output.

    python3 perfbench/selftest.py

Each case first runs the checker on a genuine soapfda output (it must pass),
then on a copy with one deliberate fault (it must raise CheckFailed). Exits
non-zero if any checker accepts a corrupted output or rejects a genuine one.
"""

from __future__ import annotations

import copy
import csv
import json
import os
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from soapfda import basis, core, predict, selection, solver  # noqa: E402

RESULTS: list[tuple[str, bool, str]] = []


def case(name: str, genuine, corrupted) -> None:
    """genuine() must pass and corrupted() must raise CheckFailed."""
    try:
        genuine()
    except checks.CheckFailed as exc:
        RESULTS.append((name, False, f"rejected the genuine output: {exc}"))
        return
    try:
        corrupted()
    except checks.CheckFailed as exc:
        RESULTS.append((name, True, str(exc)))
    else:
        RESULTS.append((name, False, "accepted the corrupted output"))


def with_fields(c: checks.Components, **fields) -> checks.Components:
    d = {k: getattr(c, k) for k in ("knots", "order", "coef", "scores", "gammas", "noise_var")}
    d.update(fields)
    return checks.Components(**d)


def fit_cases() -> None:
    sample = gen.sparse_sample(gen.rng_for(0, 0), 100)
    data = core.validate_dataset(sample.rows, gen.DOMAIN)
    model = solver.fit_soap(data, basis.make_bspline_basis(gen.DOMAIN, 12, 4), 2, 1e-3)
    c = checks.Components.from_model(model)
    obs = checks.Observations.from_rows(sample.rows)
    P = model.basis.penalty

    bent = c.coef.copy()
    bent[:, 0] *= 1.0 + 1e-6
    case("orthonormality", lambda: checks.check_orthonormal(c), lambda: checks.check_orthonormal(with_fields(c, coef=bent)))
    case(
        "objective",
        lambda: checks.check_objective(c, obs, P),
        lambda: checks.check_objective(with_fields(c, noise_var=c.noise_var * (1 + 1e-8)), obs, P),
    )
    trace = list(model.report.loss_trace)
    # a 1e-9 rise inside the refinement sweeps, after every stage offset
    uphill = trace[:-2] + [trace[-3] * (1 + 1e-9)] + trace[-2:]
    offsets = model.report.stage_offsets
    case(
        "monotone descent",
        lambda: checks.check_descent(trace, offsets, True),
        lambda: checks.check_descent(uphill, offsets, True),
    )

    A, rhs = checks.normal_equations(c, obs)
    G, Pm = c.gram(), c.penalty()
    step = solver.psi_step_penalized(A, rhs, G, Pm, workloads.PROBE_GAMMA)
    H = A + workloads.PROBE_GAMMA * Pm
    off = step.beta + 1e-6 * np.linalg.norm(step.beta) * np.eye(len(step.beta))[0]
    case(
        "KKT residual",
        lambda: checks.check_kkt(H, rhs, G, step.beta, step.multiplier),
        lambda: checks.check_kkt(H, rhs, G, off, step.multiplier),
    )
    scores = solver.score_step(data, [c.values(t) for t in obs.t])
    case("projected scores", lambda: checks.check_scores(c, scores), lambda: checks.check_scores(c, scores * (1 + 1e-6)))

    grid = workloads.GRID
    est = workloads.predict_all(data, model)
    a = np.array([e.scores for e in est])
    v = np.array([e.values for e in est])
    nudged = v.copy()
    nudged[3, 7] += 1e-6
    case(
        "reconstruction",
        lambda: checks.check_reconstruction(c, a, grid, v),
        lambda: checks.check_reconstruction(c, a, grid, nudged),
    )
    swapped = with_fields(c, coef=c.coef[:, ::-1].copy())
    f1 = sample.truth.funcs[0]
    q = workloads.Quality()
    case(
        "component IMSE ceiling",
        lambda: checks.require(workloads.near_truth(c, f1, 0.1, q), "genuine fit above the ceiling"),
        lambda: checks.require(workloads.near_truth(swapped, f1, 0.1, q), "swapped fit above the ceiling"),
    )
    mspe = predict.holdout_last_mspe_model(model, data)
    entries = list(mspe.per_subject)
    entries[2] = (entries[2][0], entries[2][1] * (1 + 1e-6) + 1e-6)
    shifted = SimpleNamespace(
        n_eligible=mspe.n_eligible,
        n_excluded=mspe.n_excluded,
        per_subject=entries,
        mspe_mean=float(np.mean([e for _, e in entries])),
    )
    case(
        "held-out-last errors",
        lambda: workloads.check_holdout(c, model, data, mspe),
        lambda: workloads.check_holdout(c, model, data, shifted),
    )


def selection_cases() -> None:
    sample = gen.sparse_sample(gen.rng_for(0, 1), 60)
    data = core.validate_dataset(sample.rows, gen.DOMAIN)
    b = basis.make_bspline_basis(gen.DOMAIN, 8, 4)
    cv = selection.loco_cv_gamma(data, b, 1, None, [0.0, 1e4], max_folds=4, fold_seed=0)
    other = next(g for g in cv.candidate_gammas if g != cv.chosen)
    case(
        "CV argmin",
        lambda: checks.check_cv(cv.candidate_gammas, cv.cv_errors, cv.chosen),
        lambda: checks.check_cv(cv.candidate_gammas, cv.cv_errors, other),
    )

    models = [solver.fit_soap(data, b, m, 1e-3) for m in (1, 2)]
    res = selection.aic(data, models)
    fits = [checks.Components.from_model(m) for m in models]
    obs = checks.Observations.from_rows(sample.rows)
    wrong_m = next(m for m in res.candidate_m if m != res.chosen)
    case(
        "AIC chosen M",
        lambda: checks.check_aic(res.candidate_m, res.sigma2, res.aic, res.chosen, fits, obs),
        lambda: checks.check_aic(res.candidate_m, res.sigma2, res.aic, wrong_m, fits, obs),
    )
    shifted = [s2 * (1 + 1e-6) for s2 in res.sigma2]
    consistent = [obs.n_obs * np.log(s2) + obs.n_obs + 2 * obs.n * m for s2, m in zip(shifted, res.candidate_m)]
    case(
        "AIC sigma2",
        lambda: checks.check_aic(res.candidate_m, res.sigma2, res.aic, res.chosen, fits, obs),
        lambda: checks.check_aic(res.candidate_m, shifted, consistent, res.chosen, fits, obs),
    )


def command_cases(work: Path) -> None:
    grid = np.linspace(0.0, 1.0, 201)
    dense = gen.dense_sample(gen.rng_for(0, 2), 20, grid, 8)
    gen.write_csv(work / "dense.csv", dense.rows)
    common = ["--m", "2", "--basis-size", "8"]
    if not (
        workloads.run_cli(["fit", "--input", str(work / "dense.csv"), "--output-dir", str(work / "dfit")] + common)
        and workloads.run_cli(["oracle-check", "--input", str(work / "dense.csv"), "--output-dir", str(work / "dor")] + common)
    ):
        raise RuntimeError("a soapfda command failed")
    saved = checks.Components.from_json(work / "dfit" / "model.json")

    fitted = work / "dfit" / "fitted.csv"
    with open(fitted, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[5][2] = repr(float(rows[5][2]) + 1e-6)
    broken = work / "fitted_broken.csv"
    with open(broken, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    scores_csv = work / "dfit" / "scores.csv"
    case(
        "trajectory files",
        lambda: checks.check_trajectory_files(saved, scores_csv, fitted),
        lambda: checks.check_trajectory_files(saved, scores_csv, broken),
    )

    reported = json.loads((work / "dor" / "oracle_check.json").read_text())
    curves = dense.truth.curves(grid)
    bad_vals = copy.deepcopy(reported)
    bad_vals["eigenvalues"][1] *= 1 + 1e-6
    case(
        "oracle eigenvalues",
        lambda: checks.check_oracle(saved, curves, grid, reported),
        lambda: checks.check_oracle(saved, curves, grid, bad_vals),
    )
    rotated = saved.coef @ np.array([[np.cos(0.05), -np.sin(0.05)], [np.sin(0.05), np.cos(0.05)]])
    case(
        "oracle IMSE",
        lambda: checks.check_oracle(saved, curves, grid, reported),
        lambda: checks.check_oracle(with_fields(saved, coef=rotated), curves, grid, reported),
    )


def main() -> int:
    work = ROOT / ".perfbench_out" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        fit_cases()
        selection_cases()
        command_cases(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, ok, detail in RESULTS:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    bad = [name for name, ok, _ in RESULTS if not ok]
    print(f"{len(RESULTS) - len(bad)}/{len(RESULTS)} checkers reject their corrupted output")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
