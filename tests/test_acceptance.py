"""Acceptance gate: one test per release criterion, each printing a verdict line.

Slow criteria (5-7) run replicated simulation studies and dominate the suite's
runtime; every tolerance and seed here is pinned, so reruns are deterministic.
"""

import json
import os
import time

import numpy as np
import pytest

from soapfda import (
    SimulationConfig,
    aic,
    fit_soap,
    gen_sparse_dataset,
    make_bspline_basis,
    psi_step_penalized,
    run_replication_study,
    select_component_count,
    sigma2_hat,
    validate_dataset,
)
from soapfda.basis import default_basis_size, eval_basis_matrix
from soapfda.cli import main as cli_main
from soapfda.core import FecModel, dataset_to_rows, write_long_csv
from soapfda.oracle import (
    DenseCurveSet,
    compare_to_soap,
    grid_eigenfunctions,
    sign_aligned_imse,
)
from soapfda.predict import default_grid, predict_trajectory
from soapfda.sim import cosine_pair, gen_scores, impe
from soapfda.solver import _fit_models

from conftest import orthonormal_pair_in_span

# golden value of criterion 7 (seed 4242, candidates M in {1,2,3}, gamma 1e-3,
# n = 300, 20 replications), measured with the moment-direction stage starts
AIC_GOLDEN_RATE = 1.00

STUDY_GAMMA = 1e-3  # default smoothing for the replicated studies


def verdict(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


class TestCriterion1:
    def test_theorem1_oracle_equivalence(self):
        start = time.time()
        basis = make_bspline_basis((0.0, 1.0), 8, 4)
        rng = np.random.default_rng(42)
        c1, c2 = orthonormal_pair_in_span(basis, rng)
        grid = np.linspace(0, 1, 401)
        B = eval_basis_matrix(basis, grid)
        scores = rng.normal(size=(50, 2)) * [5.0, 2.0]
        X = np.outer(scores[:, 0], B @ c1) + np.outer(scores[:, 1], B @ c2)
        rows = [
            (f"s{i:03d}", float(grid[j]), float(X[i, j]))
            for i in range(50)
            for j in range(401)
        ]
        ds = validate_dataset(rows, (0.0, 1.0))
        model = fit_soap(ds, basis, 2, 0.0)
        oracle_vals, eigvals = grid_eigenfunctions(DenseCurveSet(grid=grid.copy(), curves=X.copy()), 2)
        imses = compare_to_soap(model, oracle_vals, grid)
        elapsed = time.time() - start
        ok = (
            bool(np.all(imses < 1e-4))
            and bool(np.all(np.diff(eigvals) <= 0))
            and model.orthonormality_error() <= 1e-8
            and elapsed < 30.0
        )
        verdict(
            1,
            ok,
            f"sign-aligned IMSE vs grid eigenfunctions = {imses.round(10).tolist()} "
            f"(< 1e-4), eigenvalues descending, {elapsed:.1f}s < 30s",
        )


class TestCriterion2:
    def test_monotone_descent_on_random_sparse_instances(self):
        start = time.time()
        worst_uphill = 0.0
        worst_sweep = 0.0
        for k in range(50):
            cfg = SimulationConfig(seed=900 + k, n_train=100)
            rng = np.random.default_rng(cfg.seed)
            ds, _, _ = gen_sparse_dataset(cfg, 100, rng)
            basis = make_bspline_basis(cfg.domain, default_basis_size(ds.n_obs_total), 4)
            gamma = 0.0 if k % 2 == 0 else float(10 ** np.random.default_rng(k).uniform(-4, -1))
            model = fit_soap(ds, basis, 2, gamma)
            trace = np.array(model.report.loss_trace)
            if gamma == 0.0:
                # unpenalized objective: non-increasing at every recorded step
                rel = np.diff(trace) / np.maximum(1.0, trace[:-1])
                worst_uphill = max(worst_uphill, float(rel.max(initial=0.0)))
            else:
                # penalized objective: non-increasing within each stage and
                # across refinement sweeps (a new component's penalty enters
                # the objective at stage boundaries)
                offsets = list(model.report.stage_offsets) + [len(trace)]
                for a, b in zip(offsets[:-1], offsets[1:]):
                    seg = trace[a:b]
                    if len(seg) > 1:
                        rel = np.diff(seg) / np.maximum(1.0, seg[:-1])
                        worst_uphill = max(worst_uphill, float(rel.max(initial=0.0)))
                sweeps = np.array(model.report.sweep_objectives)
                if len(sweeps) > 1:
                    rel = np.diff(sweeps) / np.maximum(1.0, sweeps[:-1])
                    worst_sweep = max(worst_sweep, float(rel.max(initial=0.0)))
        elapsed = time.time() - start
        ok = worst_uphill <= 1e-12 and worst_sweep <= 1e-12 and elapsed < 60.0
        verdict(
            2,
            ok,
            f"50 sparse instances: worst relative uphill {worst_uphill:.2e} per step, "
            f"{worst_sweep:.2e} per sweep (tol 1e-12), {elapsed:.0f}s < 60s",
        )


class TestCriterion3:
    def test_orthonormality_across_fit_regimes(self):
        worst = 0.0
        # sparse gamma=0, sparse gamma>0, dense, and a 3-component fit
        for seed, m, gamma, ni in ((1, 2, 0.0, (1, 5)), (2, 2, 1e-2, (1, 5)),
                                   (3, 2, 0.0, (30, 40)), (4, 3, 1e-3, (2, 8))):
            cfg = SimulationConfig(seed=seed, n_train=60, ni_range=ni)
            rng = np.random.default_rng(seed)
            ds, _, _ = gen_sparse_dataset(cfg, 60, rng)
            basis = make_bspline_basis(cfg.domain, default_basis_size(ds.n_obs_total), 4)
            model = fit_soap(ds, basis, m, gamma)
            worst = max(worst, model.orthonormality_error())
        ok = worst <= 1e-8
        verdict(3, ok, f"max |coef' G coef - I| = {worst:.2e} <= 1e-8 across fit regimes")


class TestCriterion4:
    def grid_search_minimum(self, H, rhs, G, rng):
        """Dense sampling of the constraint ellipsoid plus multi-scale zoom."""
        L = H.shape[0]
        R = np.linalg.cholesky(G).T
        Rinv = np.linalg.inv(R)

        def project(points):
            u = points @ R.T
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            return u @ Rinv.T

        def objective(points):
            return np.einsum("ij,jk,ik->i", points, H, points) - 2.0 * points @ rhs

        pts = project(rng.standard_normal((200_000, L)))
        best = pts[np.argmin(objective(pts))]
        for it in range(40):
            radius = 0.5 ** (it / 4)
            cloud = project(best[None, :] + radius * rng.standard_normal((4000, L)) @ Rinv.T)
            vals = objective(cloud)
            j = int(np.argmin(vals))
            if vals[j] < objective(best[None, :])[0]:
                best = cloud[j]
        return float(objective(best[None, :])[0])

    def test_penalized_step_matches_grid_search(self):
        rng = np.random.default_rng(7)
        worst_gap = 0.0
        worst_kkt = 0.0
        for _ in range(20):
            A = rng.normal(size=(40, 6))
            y = rng.normal(size=40)
            ata, rhs = A.T @ A, A.T @ y
            Gh = rng.normal(size=(6, 6))
            G = Gh @ Gh.T + 6 * np.eye(6)
            Ph = rng.normal(size=(6, 4))
            P = Ph @ Ph.T
            gamma = float(10 ** rng.uniform(-2, 1))
            res = psi_step_penalized(ata, rhs, G, P, gamma)
            H = ata + gamma * P
            obj = float(res.beta @ H @ res.beta - 2 * rhs @ res.beta)
            gap = abs(obj - self.grid_search_minimum(H, rhs, G, rng))
            worst_gap = max(worst_gap, gap)
            rel_kkt = np.linalg.norm(H @ res.beta - res.multiplier * (G @ res.beta) - rhs) / np.linalg.norm(rhs)
            worst_kkt = max(worst_kkt, rel_kkt)
        ok = worst_gap <= 1e-4 and worst_kkt <= 1e-8
        verdict(
            4,
            ok,
            f"20 random L=6 instances: worst |objective gap| vs ellipsoid grid search "
            f"{worst_gap:.2e} <= 1e-4, worst KKT residual {worst_kkt:.2e} <= 1e-8 rel",
        )


class TestCriterion5:
    def test_simulation_stability_across_score_laws(self):
        start = time.time()
        stats = {}
        for dist in ("gaussian", "gamma_centered"):
            cfg = SimulationConfig(seed=12345, score_dist=dist)
            stats[dist] = run_replication_study(cfg, n_reps=20, n_components=2, gammas=STUDY_GAMMA)
        elapsed = time.time() - start

        ratios = {d: s.impe.maximum / s.impe.median for d, s in stats.items()}
        cross = []
        for m in range(2):
            g = stats["gaussian"].imse_components[m]
            ng = stats["gamma_centered"].imse_components[m]
            cross += [ng.mean / g.mean, ng.median / g.median]
        ok = (
            all(r <= 10.0 for r in ratios.values())
            and all(0.5 <= c <= 2.0 for c in cross)
            and all(s.n_failed == 0 for s in stats.values())
            and elapsed < 600.0
        )
        verdict(
            5,
            ok,
            f"IMPE max/median: gaussian {ratios['gaussian']:.2f}, "
            f"gamma {ratios['gamma_centered']:.2f} (<= 10); IMSE cross-law ratios "
            f"{[round(c, 2) for c in cross]} within [0.5, 2]; {elapsed:.0f}s < 600s",
        )


class TestCriterion6:
    def test_empirical_consistency_in_n(self):
        start = time.time()
        grid = np.linspace(0, 1, 101)
        medians = []
        for n in (100, 300, 900):
            vals = []
            for rep in range(20):
                cfg = SimulationConfig(seed=777, n_train=n)
                rng = np.random.default_rng(cfg.seed + rep)
                ds, _, truth = gen_sparse_dataset(cfg, n, rng)
                basis = make_bspline_basis(cfg.domain, default_basis_size(ds.n_obs_total), 4)
                model = fit_soap(ds, basis, 2, STUDY_GAMMA)
                vals.append(sign_aligned_imse(model.component_values(grid)[:, 0], truth.f1(grid), grid))
            medians.append(float(np.median(vals)))
        elapsed = time.time() - start
        ok = medians[0] >= medians[1] >= medians[2] and elapsed < 900.0
        verdict(
            6,
            ok,
            f"median IMSE(psi_1) over 20 reps at n in (100, 300, 900): "
            f"{[round(v, 6) for v in medians]} non-increasing; {elapsed:.0f}s < 900s",
        )


class TestCriterion7:
    def test_aic_recovers_rank(self):
        hits = 0
        for rep in range(20):
            cfg = SimulationConfig(seed=4242)
            rng = np.random.default_rng(cfg.seed + rep)
            ds, _, _ = gen_sparse_dataset(cfg, 300, rng)
            basis = make_bspline_basis(cfg.domain, default_basis_size(ds.n_obs_total), 4)
            # fit_soap for M = 1, 2, 3, bitwise, from one run of extraction stages
            fits = _fit_models(ds, basis, (1, 2, 3), STUDY_GAMMA)
            hits += aic(ds, fits).chosen == 2
        rate = hits / 20
        ok = rate >= 0.70 and rate == AIC_GOLDEN_RATE
        verdict(
            7,
            ok,
            f"AIC selected M=2 in {rate:.0%} of 20 replications "
            f"(>= 70%, golden value {AIC_GOLDEN_RATE:.0%})",
        )


class TestCriterion8:
    def test_formula_exactness(self, rng):
        # published AIC row reproduces its argmin M = 3
        published = (8493.44, 7632.86, 7626.01, 7720.19, 7913.83, 8059.46)
        chosen = select_component_count((1, 2, 3, 4, 5, 6), published)

        # sigma2_hat vs an independent double loop on a random instance
        basis = make_bspline_basis((0.0, 1.0), 8, 4)
        cfg = SimulationConfig(seed=88, noise_sd=1.0)
        ds, _, _ = gen_sparse_dataset(cfg, 30, np.random.default_rng(88))
        c1, c2 = orthonormal_pair_in_span(basis, rng)
        model = FecModel(
            basis=basis,
            coef=np.column_stack([c1, c2]),
            scores=rng.normal(size=(30, 2)),
            gammas=np.zeros(2),
            noise_var=0.0,
        )
        total = 0.0
        for i, s in enumerate(ds.subjects):
            inner = 0.0
            for t, y in zip(s.t, s.y):
                fit = float(
                    eval_basis_matrix(basis, [t])[0] @ model.coef @ model.scores[i]
                )
                inner += (y - fit) ** 2
            total += inner / s.n_obs
        sigma2_err = abs(sigma2_hat(ds, model) - total / ds.n_subjects)

        # impe / imse vs naive loops
        grid = np.linspace(0, 1, 31)
        a = rng.normal(size=(7, 31))
        b = rng.normal(size=(7, 31))
        impe_naive = np.mean([np.trapezoid((a[i] - b[i]) ** 2, grid) for i in range(7)])
        impe_err = abs(impe(a, b, grid) - impe_naive)
        f, g = rng.normal(size=31), rng.normal(size=31)
        imse_naive = min(
            np.trapezoid((f - g) ** 2, grid), np.trapezoid((f + g) ** 2, grid)
        )
        imse_err = abs(sign_aligned_imse(f, g, grid) - imse_naive)

        ok = chosen == 3 and sigma2_err <= 1e-12 and impe_err <= 1e-12 and imse_err <= 1e-12
        verdict(
            8,
            ok,
            f"published AIC row argmin = {chosen} (expect 3); oracle gaps: "
            f"sigma2 {sigma2_err:.1e}, impe {impe_err:.1e}, imse {imse_err:.1e} (<= 1e-12)",
        )


class TestCriterion9:
    def generate_degenerate(self, seed, n=150):
        cfg = SimulationConfig(seed=seed)
        rng = np.random.default_rng(seed)
        f1, f2 = cosine_pair(cfg.domain)
        scores = gen_scores(cfg, n, rng)
        rows = []
        for i in range(n):
            kind = rng.integers(0, 3)
            if kind == 0:
                t = rng.uniform(0, 1, size=1)  # single observation
            elif kind == 1:
                center = rng.uniform(0.3, 0.7)  # clustered middle observations
                t = np.clip(
                    np.sort(
                        np.concatenate(
                            [rng.uniform(0, 1, size=2), center + rng.uniform(-5e-3, 5e-3, size=3)]
                        )
                    ),
                    0.0,
                    1.0,
                )
            else:
                t = np.sort(rng.uniform(0, 1, size=int(rng.integers(2, 6))))
            x = scores[i, 0] * f1(t) + scores[i, 1] * f2(t)
            y = x + rng.normal(0, cfg.noise_sd, size=len(t))
            rows += [(f"s{i:04d}", float(a), float(b)) for a, b in zip(t, y)]
        return validate_dataset(rows, (0.0, 1.0)), scores, f1, f2

    def test_degenerate_inputs_fit_and_predict_finitely(self):
        grid = default_grid((0.0, 1.0), 101)
        impes = []
        for seed in range(8):
            ds, scores, f1, f2 = self.generate_degenerate(seed)
            basis = make_bspline_basis((0.0, 1.0), default_basis_size(ds.n_obs_total), 4)
            model = fit_soap(ds, basis, 2, STUDY_GAMMA)
            assert model.orthonormality_error() <= 1e-8
            preds = np.vstack([predict_trajectory(s, model, grid).values for s in ds.subjects])
            assert np.all(np.isfinite(preds))
            truth = np.outer(scores[:, 0], f1(grid)) + np.outer(scores[:, 1], f2(grid))
            impes.append(impe(preds, truth, grid))
        impes = np.array(impes)
        ratio = float(impes.max() / np.median(impes))
        ok = bool(np.all(np.isfinite(impes))) and ratio <= 10.0
        verdict(
            9,
            ok,
            f"8 degenerate datasets (n_i=1 subjects, clustered times): all predictions "
            f"finite, IMPE max/median {ratio:.2f} <= 10",
        )


class TestCriterion10:
    def run_twice(self, args, tmp_path, tag):
        outs = []
        for run in ("x", "y"):
            out = tmp_path / f"{tag}_{run}"
            status = cli_main(args + ["--output-dir", str(out)])
            assert status == 0
            tree = {}
            for name in sorted(os.listdir(out)):
                tree[name] = (out / name).read_bytes()
            outs.append(tree)
        return outs[0] == outs[1]

    def test_every_subcommand_is_deterministic(self, tmp_path):
        cfg = SimulationConfig(seed=55, n_train=40, ni_range=(3, 8), noise_sd=1.0)
        ds, _, _ = gen_sparse_dataset(cfg, 40, np.random.default_rng(55))
        train_csv = tmp_path / "train.csv"
        write_long_csv(train_csv, dataset_to_rows(ds))

        dense_cfg = SimulationConfig(seed=56, n_train=20, ni_range=(60, 60), noise_sd=0.0)
        dense, _, _ = gen_sparse_dataset(dense_cfg, 20, np.random.default_rng(56))
        dense_csv = tmp_path / "dense.csv"
        # common grid: rebuild on an exact shared grid
        grid = np.linspace(0, 1, 101)
        f1, f2 = cosine_pair((0.0, 1.0))
        scores = gen_scores(dense_cfg, 20)
        rows = [
            (f"d{i:02d}", float(t), float(scores[i, 0] * f1(t) + scores[i, 1] * f2(t)))
            for i in range(20)
            for t in grid
        ]
        write_long_csv(dense_csv, rows)

        sim_cfg = tmp_path / "sim.cfg"
        sim_cfg.write_text("n_train = 20\nn_test = 20\nseed = 3\nni_min = 3\nni_max = 6\n")

        results = {
            "fit": self.run_twice(
                ["fit", "--input", str(train_csv), "--domain", "0,1", "--m", "2",
                 "--gamma", "0.001"],
                tmp_path, "fit",
            ),
        }
        model_path = tmp_path / "fit_x" / "model.json"
        results["predict"] = self.run_twice(
            ["predict", "--input", str(train_csv), "--model", str(model_path),
             "--holdout-last"],
            tmp_path, "pred",
        )
        results["simulate"] = self.run_twice(
            ["simulate", "--config", str(sim_cfg), "--reps", "2", "--basis-size", "6"],
            tmp_path, "sim",
        )
        results["oracle-check"] = self.run_twice(
            ["oracle-check", "--input", str(dense_csv), "--m", "2", "--basis-size", "8"],
            tmp_path, "oc",
        )
        ok = all(results.values())
        verdict(10, ok, f"byte-identical reruns per subcommand: {results}")
