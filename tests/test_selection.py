import math

import numpy as np
import pytest

from soapfda import (
    FecModel,
    SingularStepError,
    aic,
    aic_values,
    fit_soap,
    loco_cv_gamma,
    make_bspline_basis,
    select_component_count,
    select_gammas_sequential,
    sigma2_hat,
    validate_dataset,
)
from soapfda import selection, solver
from soapfda.cli import main
from soapfda.core import dataset_to_rows, write_long_csv
from soapfda.basis import eval_basis_matrix
from soapfda.selection import DEFAULT_GAMMA_GRID
from soapfda.sim import SimulationConfig, gen_sparse_dataset

from conftest import dense_rank2_dataset, orthonormal_pair_in_span

# AIC row reported for the CD4 fit, component counts 1..6; argmin is M = 3
PUBLISHED_AIC_ROW = (8493.44, 7632.86, 7626.01, 7720.19, 7913.83, 8059.46)


def small_dataset(seed=1, n=25):
    cfg = SimulationConfig(seed=seed, noise_sd=1.0)
    rng = np.random.default_rng(seed)
    ds, _, _ = gen_sparse_dataset(cfg, n, rng)
    return ds


class TestSigma2Hat:
    def test_perfect_fit_zero(self, cubic_basis, rng):
        c1, c2 = orthonormal_pair_in_span(cubic_basis, rng)
        scores = rng.normal(size=(8, 2))
        grid = np.linspace(0, 1, 12)
        ds, _ = dense_rank2_dataset(cubic_basis, 8, grid, scores, (c1, c2))
        model = FecModel(
            basis=cubic_basis,
            coef=np.column_stack([c1, c2]),
            scores=scores,
            gammas=np.zeros(2),
            noise_var=0.0,
        )
        assert sigma2_hat(ds, model) < 1e-24

    def test_zero_model_baseline(self, cubic_basis):
        ds = small_dataset(2)
        model = FecModel(
            basis=cubic_basis,
            coef=np.eye(cubic_basis.size)[:, :1],
            scores=np.zeros((ds.n_subjects, 1)),
            gammas=np.zeros(1),
            noise_var=0.0,
        )
        expected = np.mean([np.mean(s.y**2) for s in ds.subjects])
        assert abs(sigma2_hat(ds, model) - expected) <= 1e-12 * expected

    def test_matches_naive_loop(self, cubic_basis, rng):
        ds = small_dataset(3)
        c1, c2 = orthonormal_pair_in_span(cubic_basis, rng)
        model = FecModel(
            basis=cubic_basis,
            coef=np.column_stack([c1, c2]),
            scores=rng.normal(size=(ds.n_subjects, 2)),
            gammas=np.zeros(2),
            noise_var=0.0,
        )
        total = 0.0
        for i, s in enumerate(ds.subjects):
            inner = 0.0
            for t, y in zip(s.t, s.y):
                psi = eval_basis_matrix(cubic_basis, [t])[0] @ model.coef
                inner += (y - psi @ model.scores[i]) ** 2
            total += inner / s.n_obs
        expected = total / ds.n_subjects
        assert abs(sigma2_hat(ds, model) - expected) <= 1e-12 * max(1.0, expected)


    def test_subject_count_mismatch_rejected(self, cubic_basis):
        ds = small_dataset(n=10)
        model = FecModel(cubic_basis, np.eye(8)[:, :1], np.zeros((9, 1)), np.zeros(1), 0.0)
        with pytest.raises(ValueError, match="model scores do not match the dataset's subject count"):
            sigma2_hat(ds, model)


class TestAic:
    def test_published_row_selects_three(self):
        assert select_component_count((1, 2, 3, 4, 5, 6), PUBLISHED_AIC_ROW) == 3

    def test_trivial_formula_case(self):
        # N = 10, n = 5, M = 1, sigma2 = 1 -> 10*log(1) + 10 + 2*5*1 = 20
        assert aic_values(10, 5, [1], [1.0]) == [20.0]

    def test_formula_exact_on_random_inputs(self, rng):
        for _ in range(50):
            N = int(rng.integers(5, 500))
            n = int(rng.integers(2, 100))
            m = int(rng.integers(1, 9))
            s2 = float(rng.uniform(0.01, 50.0))
            (got,) = aic_values(N, n, [m], [s2])
            assert got == N * math.log(s2) + N + 2 * n * m

    def test_penalty_gap_grows_with_n(self):
        # holding sigma2 fixed, the gap between consecutive M grows in n
        gaps = []
        for n in (10, 100, 1000):
            a = aic_values(50, n, [1, 2], [1.0, 1.0])
            gaps.append(a[1] - a[0])
        assert gaps[0] < gaps[1] < gaps[2]

    def test_zero_sigma2_excluded(self):
        vals = aic_values(10, 5, [1, 2], [0.5, 0.0])
        assert math.isnan(vals[1])
        assert select_component_count([1, 2], vals) == 1
        with pytest.raises(ValueError, match="excluded"):
            select_component_count([1], [math.nan])

    def test_infinite_entry_excluded(self):
        assert select_component_count([1, 2, 3], [math.inf, 7.0, math.nan]) == 2
        with pytest.raises(ValueError, match="excluded"):
            select_component_count([1, 2], [math.inf, math.nan])

    def test_tie_prefers_smaller_m(self):
        assert select_component_count([3, 1, 2], [5.0, 5.0, 5.0]) == 1

    def test_no_fits_rejected(self):
        with pytest.raises(ValueError, match="need at least one fitted model"):
            aic(small_dataset(n=10), [])

    def test_aic_on_fits(self):
        ds = small_dataset(4, n=40)
        basis = make_bspline_basis((0.0, 1.0), 6, 4)
        fits = [fit_soap(ds, basis, m, 1e-3) for m in (1, 2)]
        res = aic(ds, fits)
        assert res.candidate_m == (1, 2)
        N, n = ds.n_obs_total, ds.n_subjects
        for k, m in enumerate(res.candidate_m):
            expected = N * math.log(res.sigma2[k]) + N + 2 * n * m
            assert res.aic[k] == expected
        assert res.chosen in (1, 2)
        assert res.invalid == ()


# subject a is all zeros, so the fold that holds out b has nothing to fit
ALL_FOLDS_FAIL_ROWS = [
    ("a", 0.1, 0.0), ("a", 0.5, 0.0), ("a", 0.9, 0.0),
    ("b", 0.2, 1.0), ("b", 0.6, 2.0), ("b", 0.8, 1.5),
]


class TestLocoCv:
    def test_every_candidate_failing_raises(self):
        ds = validate_dataset(ALL_FOLDS_FAIL_ROWS, domain=(0.0, 1.0))
        basis = make_bspline_basis(ds.domain, 5)
        with pytest.raises(SingularStepError, match="every candidate gamma failed"):
            loco_cv_gamma(ds, basis, 1, None, [0.0, 1e2])

    def test_singleton_candidate(self):
        ds = small_dataset(5)
        basis = make_bspline_basis((0.0, 1.0), 6, 4)
        res = loco_cv_gamma(ds, basis, 1, None, [1e-2])
        assert res.chosen == 1e-2
        assert len(res.cv_errors) == 1 and np.isfinite(res.cv_errors[0])

    def test_curvy_component_prefers_no_smoothing(self, rng):
        # noise-free data from a curvy in-span component: gamma = 0
        # reconstructs it exactly, a huge gamma flattens it away
        basis = make_bspline_basis((0.0, 1.0), 8, 4)
        c1, _ = orthonormal_pair_in_span(basis, rng)
        grid = np.linspace(0, 1, 7)
        alpha = rng.normal(0.0, 3.0, size=30)
        vals = np.outer(alpha, eval_basis_matrix(basis, grid) @ c1)
        rows = [
            (f"s{i:02d}", float(grid[j]), float(vals[i, j]))
            for i in range(30)
            for j in range(len(grid))
        ]
        ds = validate_dataset(rows, (0.0, 1.0))
        res = loco_cv_gamma(ds, basis, 1, None, [0.0, 1e8])
        assert res.chosen == 0.0
        assert res.cv_errors[0] < 1e-10
        assert res.cv_errors[1] > res.cv_errors[0]

    def test_paper_grid_accepted_in_order(self):
        ds = small_dataset(6, n=15)
        basis = make_bspline_basis((0.0, 1.0), 6, 4)
        grid = [0.0, 1e2, 1e4, 1e8]
        res = loco_cv_gamma(ds, basis, 1, None, grid, max_folds=6)
        assert list(res.candidate_gammas) == grid
        assert res.chosen in grid

    def test_fold_definition_order_invariant(self):
        ds = small_dataset(7, n=12)
        basis = make_bspline_basis((0.0, 1.0), 6, 4)
        res1 = loco_cv_gamma(ds, basis, 1, None, [0.0, 1e-2])
        # same subjects presented in reversed row order
        rows = [(s.id, float(t), float(v)) for s in reversed(ds.subjects) for t, v in zip(s.t, s.y)]
        ds2 = validate_dataset(rows, ds.domain)
        res2 = loco_cv_gamma(ds2, basis, 1, None, [0.0, 1e-2])
        assert res1.cv_errors == res2.cv_errors
        assert res1.chosen == res2.chosen

    def test_one_fold_workspace_per_held_out_subject(self, monkeypatch):
        """Folds run outside and candidates inside: each held-out subject's
        fold workspace is built once. A candidate whose fold fit fails is inf
        and runs none of its later folds; the others sum every fold."""
        ds = small_dataset(6, n=8)
        basis = make_bspline_basis((0.0, 1.0), 6, 4)
        grid = [0.0, 1e-2, 1e2]
        plain = loco_cv_gamma(ds, basis, 1, None, grid)
        built, calls = [], []
        drop, extract = solver._Workspace.drop_subject, selection._extract_stage

        def counted_drop(ws, i):
            built.append(i)
            return drop(ws, i)

        def failing(fold, fixed, scores, gammas, starts):
            gamma, i = gammas[-1], built[-1]  # the fold is the last one built
            calls.append((gamma, i))
            if (gamma, i) == (1e-2, 3):
                raise SingularStepError("forced")
            return extract(fold, fixed, scores, gammas, starts)

        monkeypatch.setattr(solver._Workspace, "drop_subject", counted_drop)
        monkeypatch.setattr(selection, "_extract_stage", failing)
        res = loco_cv_gamma(ds, basis, 1, None, grid)
        assert built == list(range(8))
        for gamma, folds in zip(grid, (range(8), range(4), range(8))):
            assert [i for g, i in calls if g == gamma] == list(folds)
        assert res.cv_errors == (plain.cv_errors[0], math.inf, plain.cv_errors[2])

    # Pinned CV errors (float hex) of a fixed small case. The fold fits run
    # the solver's start set and alternation, so a change to either shows
    # here. Like DEFAULT_TRACES in test_solver.py, the values are bitwise for
    # one BLAS build (OpenBLAS 0.3.31, x86-64); another build may round
    # differently and need a re-pin after checking the values are close.
    PINNED_CV_ERRORS = ("0x1.66cfe180e7b39p+9", "0x1.6a4246ee1eddep+9", "0x1.61765a2905417p+9")

    def test_cv_errors_pinned(self):
        cfg = SimulationConfig(seed=3)
        ds, _, _ = gen_sparse_dataset(cfg, 40)
        res = loco_cv_gamma(ds, make_bspline_basis(cfg.domain, 8, 4), 1, None, (0.0, 1e-2, 1e2), max_folds=5)
        got = tuple(e.hex() for e in res.cv_errors)
        assert got == self.PINNED_CV_ERRORS, f"computed {got!r}"
        assert res.chosen == 1e2

    def test_empty_candidates_rejected(self):
        ds = small_dataset(9, n=8)
        basis = make_bspline_basis((0.0, 1.0), 6, 4)
        with pytest.raises(ValueError, match="candidate"):
            loco_cv_gamma(ds, basis, 1, None, [])

    @pytest.mark.parametrize("bad", [-1e-3, math.nan, math.inf])
    def test_negative_or_nonfinite_candidate_rejected(self, bad):
        ds = small_dataset(9, n=8)
        basis = make_bspline_basis((0.0, 1.0), 6, 4)
        with pytest.raises(ValueError, match=f"candidate gamma {bad!r}"):
            loco_cv_gamma(ds, basis, 1, None, [0.0, bad])

    def test_max_folds_below_one_rejected(self):
        ds = small_dataset(9, n=30)
        basis = make_bspline_basis((0.0, 1.0), 6, 4)
        with pytest.raises(ValueError, match="max_folds must be >= 1, got 0"):
            loco_cv_gamma(ds, basis, 1, None, [0.0, 1e2, 1e8], max_folds=0)

    def test_single_subject_rejected(self):
        ds = validate_dataset([("a", 0.2, 1.0), ("a", 0.5, 2.0), ("a", 0.8, 1.5)], (0.0, 1.0))
        basis = make_bspline_basis((0.0, 1.0), 6, 4)
        with pytest.raises(ValueError, match="needs at least 2 subjects, got 1"):
            loco_cv_gamma(ds, basis, 1, None, [0.0, 1e2])

    @pytest.mark.parametrize(
        "component, fixed, match",
        [
            (2, 3.0 * np.eye(8)[:, :1], "fixed_coefs is not G-orthonormal"),
            (2, np.zeros((8, 1)), "fixed_coefs is not G-orthonormal"),
            (2, np.full((8, 1), math.nan), "fixed_coefs has non-finite entries"),
            (2, np.ones((5, 1)), r"fixed_coefs has shape \(5, 1\), expected \(8, 1\)"),
            (9, np.eye(8), r"component 9 must be in \[1, 8\]"),
        ],
    )
    def test_bad_fixed_coefs_rejected_before_any_fold(self, component, fixed, match, monkeypatch):
        ds = small_dataset(n=25)
        basis = make_bspline_basis((0.0, 1.0), 8, 4)
        # a fold that ran would raise TypeError, not ValueError
        monkeypatch.setattr(selection, "_stage_inits", None)
        with pytest.raises(ValueError, match=match):
            loco_cv_gamma(ds, basis, component, fixed, [0.0, 1e2])

    @pytest.mark.parametrize("n_components", [0, 7])
    def test_sequential_selection_rejects_component_count(self, n_components):
        ds = small_dataset(10, n=15)
        basis = make_bspline_basis((0.0, 1.0), 6, 4)
        with pytest.raises(ValueError, match=f"n_components {n_components} must be in \\[1, 6\\]"):
            select_gammas_sequential(ds, basis, n_components, candidates=[0.0])

    def test_sequential_selection_returns_tables(self):
        ds = small_dataset(10, n=15)
        basis = make_bspline_basis((0.0, 1.0), 6, 4)
        gammas, tables, _ = select_gammas_sequential(ds, basis, 2, candidates=[0.0, 1e-2])
        assert len(gammas) == 2 and len(tables) == 2
        for g, tab in zip(gammas, tables):
            assert g == tab.chosen

    def test_sequential_selection_holds_the_fitted_model_fixed(self, monkeypatch):
        ds = small_dataset(10, n=15)
        basis = make_bspline_basis((0.0, 1.0), 6, 4)
        received = []
        cv = selection.loco_cv_gamma

        def recorded(dataset, basis, component, fixed_coefs, candidates):
            received.append(fixed_coefs)
            return cv(dataset, basis, component, fixed_coefs, candidates)

        monkeypatch.setattr(selection, "loco_cv_gamma", recorded)
        gammas, _, models = select_gammas_sequential(ds, basis, 3, candidates=[0.0, 1e-2])
        assert received[0] is None and len(received) == len(models) == 3
        # a plain M grid (fit --m-grid 1..4) finishes its models from one stage path too
        grid_gammas = [1e-2] * 4
        grid = solver._fit_models(ds, basis, [1, 2, 3, 4], 1e-2)
        for path_models, path_gammas in ((models, gammas), (grid, grid_gammas)):
            for m, model in enumerate(path_models, start=1):
                fresh = fit_soap(ds, basis, m, path_gammas[:m])
                assert model.coef.tobytes() == fresh.coef.tobytes()
                assert model.scores.tobytes() == fresh.scores.tobytes()
                assert model.gammas.tobytes() == fresh.gammas.tobytes()
                assert (model.noise_var, model.report) == (fresh.noise_var, fresh.report)
        for m, model in enumerate(models[:2], start=1):
            # component m + 1's CV holds this fit's components fixed
            assert np.asarray(received[m]).tobytes() == model.coef.tobytes()

    def test_fold_stage_starts_from_the_fixed_components_residuals(self, monkeypatch):
        ds = small_dataset(11, n=20)
        basis = make_bspline_basis((0.0, 1.0), 6, 4)
        fixed = fit_soap(ds, basis, 1, 1e-2).coef
        parent = solver._Workspace.from_dataset(ds, basis)
        scores = solver._solve_scores(*solver._subject_systems(parent.B, parent.y, parent.sizes, fixed))[0]
        grid = (0.0, 1e2)
        drop, extract, built, runs = solver._Workspace.drop_subject, selection._extract_stage, [], []

        def counted_drop(ws, i):
            built.append(i)
            return drop(ws, i)

        def recorded(fold, fixed, scores, gammas, starts):
            runs.append((scores, starts))
            return extract(fold, fixed, scores, gammas, starts)

        monkeypatch.setattr(solver._Workspace, "drop_subject", counted_drop)
        monkeypatch.setattr(selection, "_extract_stage", recorded)
        res = loco_cv_gamma(ds, basis, 2, fixed, grid, max_folds=3)
        monkeypatch.undo()
        assert len(built) == 3
        expected = [0.0] * len(grid)
        for f, i in enumerate(built):
            fold = parent.drop_subject(i)
            start = np.delete(scores, i, axis=0)
            # the kernel is batch-independent: these are the fold's own scores
            own = solver._solve_scores(*solver._subject_systems(fold.B, fold.y, fold.sizes, fixed))[0]
            assert start.tobytes() == own.tobytes()
            inits = solver._stage_inits(fold, fixed, start)
            for k, gamma in enumerate(grid):
                # folds outside, candidates inside: every candidate of fold i
                # starts from its fixed scores and one set of starts
                passed, starts = runs[len(grid) * f + k]
                assert passed.tobytes() == start.tobytes()
                assert [u.tobytes() for u in starts] == [u.tobytes() for u in inits]
                coef = solver._extract_stage(fold, fixed, start, np.array([0.0, gamma]), inits)[0]
                B, y = parent.B[parent.rows(i)], parent.y[parent.rows(i)]
                alpha = solver._solve_scores(*solver._subject_systems(B, y, [len(y)], coef))[0][0]
                resid = y - B @ coef @ alpha
                expected[k] += float(resid @ resid) / len(y)
        assert res.cv_errors == tuple(expected)

    def test_one_fixed_column_as_a_vector(self):
        ds = small_dataset(11, n=20)
        basis = make_bspline_basis((0.0, 1.0), 6, 4)
        fixed = fit_soap(ds, basis, 1, 1e-2).coef
        as_vector = loco_cv_gamma(ds, basis, 2, fixed[:, 0], (0.0, 1e2), max_folds=3)
        assert as_vector == loco_cv_gamma(ds, basis, 2, fixed, (0.0, 1e2), max_folds=3)

    def test_fold_starts_are_formed_once_per_fold(self, monkeypatch):
        """Every candidate gamma of a fold extracts from the same starts, so
        5 folds over 3 candidates form them 5 times, not 15; the pinned CV
        errors do not move."""
        cfg = SimulationConfig(seed=3)
        ds, _, _ = gen_sparse_dataset(cfg, 40)
        inits, calls = solver._stage_inits, []

        def counted(ws, fixed, scores):
            calls.append(ws.n)
            return inits(ws, fixed, scores)

        monkeypatch.setattr(solver, "_stage_inits", counted)
        monkeypatch.setattr(selection, "_stage_inits", counted, raising=False)
        res = loco_cv_gamma(ds, make_bspline_basis(cfg.domain, 8, 4), 1, None, (0.0, 1e-2, 1e2), max_folds=5)
        assert calls == [39] * 5
        got = tuple(e.hex() for e in res.cv_errors)
        assert got == self.PINNED_CV_ERRORS, f"computed {got!r}"

    @pytest.mark.parametrize(
        "flags, n_finished",
        [
            ("--m-grid 1..3 --gamma-grid 1e-2", 3),
            ("--m-grid 1..3 --gamma 1e-2", 3),
            ("--m 3 --gamma 1e-2", 1),
            ("--m-grid 2..3 --gamma 1e-2", 2),
        ],
        ids=["m-grid-gamma-grid", "m-grid", "m", "m-grid-from-2"],
    )
    def test_fit_m_grid_extracts_only_the_selection_fits(self, flags, n_finished, tmp_path, monkeypatch):
        ds = small_dataset(10, n=15)
        path = tmp_path / "data.csv"
        write_long_csv(path, dataset_to_rows(ds))
        full_data_stages = []
        finished = []
        extract, fix_signs = solver._extract_stage, solver._fix_signs

        def counted(ws, coef, scores, gammas, starts):
            if ws.n == ds.n_subjects:  # a CV fold holds one subject fewer
                full_data_stages.append(coef.shape[1] + 1)
            return extract(ws, coef, scores, gammas, starts)

        def finishing(ws, coef):
            finished.append(coef.shape[1])
            return fix_signs(ws, coef)

        monkeypatch.setattr(solver, "_extract_stage", counted)
        monkeypatch.setattr(selection, "_extract_stage", counted)
        monkeypatch.setattr(solver, "_fix_signs", finishing)
        argv = ["fit", "--input", str(path), "--output-dir", str(tmp_path / "out"), "--domain", "0,1"]
        argv += ["--basis-size", "6", *flags.split()]
        assert main(argv) == 0
        # each stage is extracted once, and only the reported models are finished
        assert full_data_stages == [1, 2, 3]
        assert finished == [1, 2, 3][3 - n_finished :]

    def test_default_grid_is_superset_of_paper_grid(self):
        assert {0.0, 1e2, 1e4, 1e8} <= set(DEFAULT_GAMMA_GRID)
