import warnings

import numpy as np
import pytest

import soapfda.basis
from soapfda import (
    FecModel,
    LongitudinalDataset,
    Subject,
    fit_soap,
    holdout_last_mspe_model,
    make_bspline_basis,
    predict_trajectories,
    predict_trajectory,
    project_scores,
    score_step,
    validate_dataset,
)
from soapfda.basis import eval_basis_matrix
from soapfda.sim import SimulationConfig, gen_sparse_dataset

from conftest import dense_rank2_dataset, orthonormal_pair_in_span


def make_model(basis, rng, n=12):
    c1, c2 = orthonormal_pair_in_span(basis, rng)
    scores = rng.normal(size=(n, 2)) * [3.0, 1.5]
    return (
        FecModel(
            basis=basis,
            coef=np.column_stack([c1, c2]),
            scores=scores,
            gammas=np.zeros(2),
            noise_var=0.0,
        ),
        scores,
    )


def vanishing_at_right_end(model):
    """The model with every component zero at the right end of the domain."""
    coef = model.coef.copy()
    coef[-1, :] = 0.0  # components at the right endpoint depend only on the last entry
    return FecModel(
        basis=model.basis,
        coef=coef / np.sqrt(np.diag(coef.T @ model.basis.gram @ coef)),
        scores=model.scores,
        gammas=model.gammas,
        noise_var=0.0,
    )


class TestProjectScores:
    def test_exact_recovery(self, cubic_basis, rng):
        model, scores = make_model(cubic_basis, rng)
        t = np.linspace(0.05, 0.95, 7)
        for i in range(5):
            y = model.component_values(t) @ scores[i]
            subject = Subject(id=f"s{i}", t=t.copy(), y=y)
            np.testing.assert_allclose(project_scores(subject, model), scores[i], atol=1e-10)

    def test_single_observation_minimum_norm(self, cubic_basis, rng):
        model, _ = make_model(cubic_basis, rng)
        t = np.array([0.37])
        subject = Subject(id="s", t=t, y=np.array([2.5]))
        row = model.component_values(t)
        expected = np.linalg.pinv(row) @ subject.y
        np.testing.assert_allclose(project_scores(subject, model), expected, atol=1e-12)

    def test_linear_in_data(self, cubic_basis, rng):
        model, _ = make_model(cubic_basis, rng)
        t = np.linspace(0.1, 0.9, 5)
        y = rng.normal(size=5)
        s1 = project_scores(Subject(id="a", t=t.copy(), y=y), model)
        s3 = project_scores(Subject(id="a", t=t.copy(), y=3.0 * y), model)
        np.testing.assert_allclose(s3, 3.0 * s1, rtol=1e-12)

    def test_vanishing_components_warn_and_zero(self, cubic_basis, rng):
        model0 = vanishing_at_right_end(make_model(cubic_basis, rng)[0])
        subject = Subject(id="s", t=np.array([1.0]), y=np.array([5.0]))
        with pytest.warns(UserWarning, match="vanish"):
            got = project_scores(subject, model0)
        np.testing.assert_array_equal(got, np.zeros(2))

    def test_no_observations_warn_and_zero(self, cubic_basis, rng):
        model, _ = make_model(cubic_basis, rng)
        subject = Subject(id="empty", t=np.array([]), y=np.array([]))
        with pytest.warns(UserWarning, match="subject empty: all components vanish"):
            got = project_scores(subject, model)
        np.testing.assert_array_equal(got, np.zeros(2))

    def test_vanishing_subject_warning_points_at_the_caller(self, cubic_basis, rng):
        model, _ = make_model(cubic_basis, rng)
        subject = Subject(id="empty", t=np.array([]), y=np.array([]))
        grid = np.linspace(0, 1, 5)
        with pytest.warns(UserWarning, match="subject empty") as record:
            project_scores(subject, model)
        assert record[0].filename == __file__
        with pytest.warns(UserWarning, match="subject empty") as record:
            predict_trajectories([subject], model, grid)
        assert record[0].filename == __file__
        with pytest.warns(UserWarning, match="subject empty") as record:
            predict_trajectory(subject, model, grid)
        assert record[0].filename == __file__

    @pytest.mark.parametrize(
        "t, y",
        [([0.2, np.nan], [1.0, 2.0]), ([0.2, 0.4], [1.0, np.nan]), ([0.2, 0.4], [np.inf, 2.0]), ([-np.inf, 0.4], [1.0, 2.0])],
    )
    def test_non_finite_subject_rejected_by_name(self, cubic_basis, rng, t, y):
        model, _ = make_model(cubic_basis, rng)
        bad = Subject(id="x", t=np.array(t), y=np.array(y))
        good = Subject(id="ok", t=np.array([0.3, 0.6]), y=np.array([1.0, 2.0]))
        grid = np.linspace(0, 1, 11)
        for call in (
            lambda: project_scores(bad, model),
            lambda: predict_trajectory(bad, model, grid),
            lambda: predict_trajectories([good, bad, good], model, grid),
        ):
            with pytest.raises(ValueError, match="subject x: times and values must be finite"):
                call()

    def test_finite_data_overflowing_the_check_pass(self, cubic_basis, rng):
        # t'y overflows, but every time and value is finite
        model, _ = make_model(cubic_basis, rng)
        subject = Subject(id="big", t=np.array([0.9, 1.0]), y=np.array([1.7e308, 1.7e308]))
        with np.errstate(all="ignore"):
            project_scores(subject, model)


class TestBatchedProjection:
    def test_alone_equals_row_of_mixed_size_batch(self, cubic_basis, rng):
        # at a realistic batch size: a kernel whose rounding depends on how
        # many subjects share a call (as a 2-D B @ coef does under OpenBLAS)
        # passes on a handful of subjects and fails here
        grid = np.linspace(0, 1, 11)
        sizes = list(rng.integers(1, 7, size=300)) + [401]
        subjects = [
            Subject(id=f"s{i}", t=np.sort(rng.uniform(0, 1, n_i)), y=rng.normal(size=n_i))
            for i, n_i in enumerate(sizes)
        ]
        subjects.append(Subject(id="tied", t=np.array([0.5, 0.5, 0.5]), y=np.array([1.0, 2.0, 0.5])))
        for m in (1, 2, 3):
            coef = rng.normal(size=(cubic_basis.size, m))
            coef = coef @ np.linalg.inv(np.linalg.cholesky(coef.T @ cubic_basis.gram @ coef)).T
            model = FecModel(
                basis=cubic_basis, coef=coef, scores=np.zeros((1, m)), gammas=np.zeros(m), noise_var=0.0
            )
            batch = predict_trajectories(subjects, model, grid)
            for subject, traj in zip(subjects, batch):
                assert traj.subject_id == subject.id
                np.testing.assert_array_equal(project_scores(subject, model), traj.scores)
                np.testing.assert_array_equal(predict_trajectory(subject, model, grid).values, traj.values)

    def test_no_subjects_no_trajectories(self, cubic_basis, rng):
        model, _ = make_model(cubic_basis, rng)
        assert predict_trajectories([], model, np.linspace(0, 1, 11)) == []

    @pytest.mark.parametrize("gamma", [0.0, 1e-3])
    def test_fit_scores_equal_projection_bitwise(self, gamma):
        cfg = SimulationConfig(seed=11, noise_sd=1.0)
        ds, _, _ = gen_sparse_dataset(cfg, 60, np.random.default_rng(11))
        model = fit_soap(ds, make_bspline_basis(cfg.domain, 8, 4), 2, gamma)
        for i, subject in enumerate(ds.subjects):
            np.testing.assert_array_equal(project_scores(subject, model), model.scores[i])

    @pytest.mark.parametrize("gamma", [0.0, 1e-3])
    def test_score_step_equals_projection_bitwise(self, gamma):
        cfg = SimulationConfig(seed=11, noise_sd=1.0)
        ds, _, _ = gen_sparse_dataset(cfg, 60, np.random.default_rng(11))
        model = fit_soap(ds, make_bspline_basis(cfg.domain, 8, 4), 2, gamma)
        scores = score_step(ds, [eval_basis_matrix(model.basis, s.t) @ model.coef for s in ds.subjects])
        for subject, a in zip(ds.subjects, scores):
            np.testing.assert_array_equal(a, project_scores(subject, model))

    def test_holdout_matches_per_subject_loop(self, cubic_basis, rng):
        model = vanishing_at_right_end(make_model(cubic_basis, rng)[0])
        rows = [("vanish", 1.0, 3.0), ("vanish", 1.0, 4.0), ("lonely", 0.3, 1.0)]
        for i, n_i in enumerate([2, 5, 3, 2, 4, 3]):
            t = np.sort(rng.uniform(0, 1, n_i))
            rows += [(f"s{i}", float(a), float(b)) for a, b in zip(t, rng.normal(size=n_i))]
        ds = validate_dataset(rows, (0.0, 1.0))

        with warnings.catch_warnings(record=True) as got_warnings:
            warnings.simplefilter("always")
            report = holdout_last_mspe_model(model, ds)
        expected = []
        with warnings.catch_warnings(record=True) as ref_warnings:
            warnings.simplefilter("always")
            for s in ds.subjects:
                if s.n_obs < 2:
                    continue
                kept = Subject(id=s.id, t=s.t[:-1].copy(), y=s.y[:-1].copy())
                pred = float((model.component_values(s.t[-1:]) @ project_scores(kept, model))[0])
                expected.append((s.id, (pred - float(s.y[-1])) ** 2))

        assert [sid for sid, _ in report.per_subject] == [sid for sid, _ in expected]
        for (_, err), (_, ref) in zip(report.per_subject, expected):
            assert abs(err - ref) <= 1e-12 * max(1.0, ref)
        assert (report.n_eligible, report.n_excluded) == (len(expected), 1)
        assert abs(report.mspe_mean - np.mean([e for _, e in expected])) <= 1e-12 * report.mspe_mean
        messages = [str(w.message) for w in got_warnings]
        assert messages == [str(w.message) for w in ref_warnings]
        assert len(messages) == 1 and "subject vanish" in messages[0]


class TestRepeatedGrid:
    def test_one_spline_per_basis_over_repeated_predictions(self, cubic_basis, rng, monkeypatch):
        model, _ = make_model(cubic_basis, rng)
        grid = np.linspace(0, 1, 101)
        t = np.array([0.2, 0.5, 0.7])
        built = []
        spline = soapfda.basis.BSpline

        def counting(*args, **kwargs):
            built.append(args)
            return spline(*args, **kwargs)

        monkeypatch.setattr(soapfda.basis, "BSpline", counting)
        for i in range(50):
            predict_trajectory(Subject(id=f"s{i}", t=t, y=rng.normal(size=3)), model, grid)
        assert len(built) <= 1

    def test_one_subject_makes_no_size_groups(self, cubic_basis, rng, monkeypatch):
        # one subject's rows are its system's stack: no np.unique grouping;
        # the first call builds the basis's spline, which may use it
        model, _ = make_model(cubic_basis, rng)
        grid = np.linspace(0, 1, 101)
        t = np.array([0.2, 0.5, 0.7])
        predict_trajectory(Subject(id="first", t=t, y=rng.normal(size=3)), model, grid)
        calls = []
        unique = np.unique

        def counting(*args, **kwargs):
            calls.append(args)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting)
        for i in range(50):
            predict_trajectory(Subject(id=f"s{i}", t=t, y=rng.normal(size=3)), model, grid)
        assert calls == []

    def test_every_grid_change_is_evaluated_again(self, cubic_basis, rng):
        model_a, _ = make_model(cubic_basis, rng)
        model_b, _ = make_model(cubic_basis, rng)
        subject = Subject(id="s", t=np.array([0.1, 0.4, 0.8]), y=np.array([1.0, -2.0, 0.5]))

        def check(model, grid):
            traj = predict_trajectory(subject, model, grid)
            fresh = eval_basis_matrix(model.basis, grid) @ model.coef
            assert traj.values.tobytes() == (fresh @ traj.scores).tobytes()

        first = np.linspace(0, 1, 101)
        check(model_a, first)
        check(model_a, np.linspace(0, 1, 33))
        check(model_a, first)
        first[3] += 0.01
        check(model_a, first)
        check(model_a, first.tolist())
        check(model_a, first.copy())
        for model in (model_b, model_a, model_b):
            check(model, first)
        coef = model_a.coef.copy()
        own = FecModel(basis=cubic_basis, coef=coef, scores=model_a.scores, gammas=np.zeros(2), noise_var=0.0)
        check(own, first)
        before = predict_trajectory(subject, own, first)
        coef[:, 0] *= -1.0  # the model owns a copy, so this edit reaches neither it nor its memo
        check(own, first)
        after = predict_trajectory(subject, own, first)
        assert (after.scores.tobytes(), after.values.tobytes()) == (before.scores.tobytes(), before.values.tobytes())

    def test_values_are_fresh_arrays(self, cubic_basis, rng):
        model, _ = make_model(cubic_basis, rng)
        subject = Subject(id="s", t=np.array([0.3, 0.6]), y=np.array([1.0, 2.0]))
        grid = np.linspace(0, 1, 11)
        first = predict_trajectory(subject, model, grid)
        expected = first.values.copy()
        first.values[:] = 0.0
        np.testing.assert_array_equal(predict_trajectory(subject, model, grid).values, expected)


class TestReconstruct:
    def test_zero_scores_zero_curve(self, cubic_basis, rng):
        model, _ = make_model(cubic_basis, rng)
        grid = np.linspace(0, 1, 21)
        values = model.component_values(grid) @ np.zeros(2)
        np.testing.assert_array_equal(values, np.zeros(21))

    def test_unit_score_returns_component(self, cubic_basis, rng):
        model, _ = make_model(cubic_basis, rng)
        grid = np.linspace(0, 1, 21)
        values = model.component_values(grid) @ np.array([1.0, 0.0])
        np.testing.assert_allclose(values, model.component_values(grid)[:, 0], atol=1e-14)

    def test_model_generated_subject_roundtrip(self, cubic_basis, rng):
        model, scores = make_model(cubic_basis, rng)
        grid = np.linspace(0, 1, 33)
        t = np.linspace(0.1, 0.9, 6)
        y = model.component_values(t) @ scores[0]
        traj = predict_trajectory(Subject(id="a", t=t.copy(), y=y), model, grid)
        truth = model.component_values(grid) @ scores[0]
        np.testing.assert_allclose(traj.values, truth, atol=1e-8)

    def test_out_of_domain_grid_rejected(self, cubic_basis, rng):
        model, _ = make_model(cubic_basis, rng)
        with pytest.raises(ValueError, match="outside domain"):
            model.component_values([0.5, 1.5]) @ np.zeros(2)

    @pytest.mark.parametrize("grid", [[np.nan], [0.1, np.nan, 0.9]])
    def test_nan_grid_rejected(self, cubic_basis, rng, grid):
        model, _ = make_model(cubic_basis, rng)
        subject = Subject(id="s", t=np.array([0.3, 0.6]), y=np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="must be finite"):
            model.component_values(grid)
        with pytest.raises(ValueError, match="must be finite"):
            predict_trajectory(subject, model, grid)

    def test_projection_idempotent(self, cubic_basis, rng):
        model, _ = make_model(cubic_basis, rng)
        t = np.linspace(0.05, 0.95, 8)
        y = rng.normal(size=8)
        s1 = project_scores(Subject(id="a", t=t.copy(), y=y), model)
        values = model.component_values(t) @ s1
        s2 = project_scores(Subject(id="a", t=t.copy(), y=values), model)
        np.testing.assert_allclose(s2, s1, atol=1e-10)


class TestHoldoutLast:
    def test_model_generated_noise_free(self, cubic_basis, rng):
        c1, c2 = orthonormal_pair_in_span(cubic_basis, rng)
        scores = rng.normal(size=(30, 2)) * [4.0, 2.0]
        grid = np.linspace(0, 1, 15)
        train, _ = dense_rank2_dataset(cubic_basis, 30, grid, scores, (c1, c2))
        report = holdout_last_mspe_model(fit_soap(train, cubic_basis, 2, 0.0), train)
        assert report.mspe_mean < 1e-8
        assert report.n_eligible == 30
        assert report.n_excluded == 0

    def test_single_observation_subjects_excluded(self, cubic_basis, rng):
        model, _ = make_model(cubic_basis, rng)
        rows = [("lonely", 0.4, 1.0)] + [
            ("full", float(t), float(v))
            for t, v in zip(np.linspace(0.1, 0.9, 5), rng.normal(size=5))
        ]
        ds = validate_dataset(rows, (0.0, 1.0))
        report = holdout_last_mspe_model(model, ds)
        assert report.n_excluded == 1
        assert report.n_eligible == 1
        assert report.per_subject[0][0] == "full"

    @pytest.mark.parametrize(
        "t, y", [([0.1, 0.5], [1.0, np.nan]), ([0.1, np.nan], [1.0, 2.0])], ids=["nan-value", "nan-time"]
    )
    def test_non_finite_held_out_observation_rejected_by_name(self, cubic_basis, rng, t, y):
        model, _ = make_model(cubic_basis, rng)
        bad = Subject(id="a", t=np.array(t), y=np.array(y))
        good = Subject(id="b", t=np.array([0.2, 0.4, 0.6]), y=np.array([1.0, 2.0, 0.5]))
        ds = LongitudinalDataset((0.0, 1.0), (good, bad))
        with pytest.raises(ValueError, match="subject a: times and values must be finite"):
            holdout_last_mspe_model(model, ds)

    def test_subject_with_unsorted_times_rejected_by_name(self, cubic_basis, rng):
        # the last row is held out as the last time, so unsorted times would
        # hold out some other observation
        model, _ = make_model(cubic_basis, rng)
        good = Subject(id="a", t=np.array([0.1, 0.5, 0.9]), y=np.array([1.0, 2.0, 0.5]))
        bad = Subject(id="b", t=np.array([0.9, 0.1, 0.5]), y=np.array([0.5, 1.0, 2.0]))
        tied = Subject(id="c", t=np.array([0.2, 0.2, 0.3]), y=np.array([1.0, 2.0, 0.5]))
        holdout_last_mspe_model(model, LongitudinalDataset((0.0, 1.0), (good, tied, good)))
        for subjects in ((bad,), (good, bad), (good, tied, bad, good)):
            with pytest.raises(ValueError, match="subject b: times must be in ascending order"):
                holdout_last_mspe_model(model, LongitudinalDataset((0.0, 1.0), subjects))

    def test_all_single_observation_errors(self, cubic_basis, rng):
        model, _ = make_model(cubic_basis, rng)
        ds = validate_dataset([("a", 0.4, 1.0), ("b", 0.6, 2.0)], (0.0, 1.0))
        with pytest.raises(ValueError, match="eligible"):
            holdout_last_mspe_model(model, ds)

    def test_order_invariance(self, cubic_basis, rng):
        model, _ = make_model(cubic_basis, rng)
        rows = [
            (f"s{i}", float(t), float(v))
            for i in range(6)
            for t, v in zip(np.sort(rng.uniform(0, 1, 4)), rng.normal(size=4))
        ]
        ds1 = validate_dataset(rows, (0.0, 1.0))
        ds2 = validate_dataset(rows[::-1], (0.0, 1.0))
        r1 = holdout_last_mspe_model(model, ds1)
        r2 = holdout_last_mspe_model(model, ds2)
        assert r1.mspe_mean == r2.mspe_mean
        assert sorted(r1.per_subject) == sorted(r2.per_subject)
        # relabeling subject ids does not change the errors either
        relabeled = validate_dataset([(f"x{sid}", t, v) for sid, t, v in rows], (0.0, 1.0))
        r3 = holdout_last_mspe_model(model, relabeled)
        assert r3.mspe_mean == r1.mspe_mean

    def test_mspe_scales_with_noise_variance(self):
        # constant curves: the dropped-point error tracks the noise variance
        mspes = {}
        basis = make_bspline_basis((0.0, 1.0), 5, 4)
        for sd in (1.0, 0.1, 0.01):
            rng = np.random.default_rng(99)
            rows = []
            for i in range(60):
                t = np.linspace(0.05, 0.95, 8)
                y = 5.0 + rng.normal(0, sd, size=8)
                rows += [(f"s{i:02d}", float(a), float(b)) for a, b in zip(t, y)]
            ds = validate_dataset(rows, (0.0, 1.0))
            mspes[sd] = holdout_last_mspe_model(fit_soap(ds, basis, 1, 0.0), ds).mspe_mean
        assert 0.001 < mspes[0.1] / mspes[1.0] < 0.1
        assert 0.001 < mspes[0.01] / mspes[0.1] < 0.1

    def test_last_means_largest_time(self, cubic_basis, rng):
        model, scores = make_model(cubic_basis, rng)
        # exact data for subject 0 except at its largest time
        t = np.array([0.2, 0.8, 0.5])
        ds = validate_dataset(
            [("a", float(a), float(v)) for a, v in zip(t, model.component_values(t) @ scores[0])]
            + [("a", 0.9, 1e3)],
            (0.0, 1.0),
        )
        report = holdout_last_mspe_model(model, ds)
        # the held-out point is t=0.9 whose value is wildly wrong: big error,
        # while the retained points still identify the true scores
        assert report.per_subject[0][1] > 1e4
