import dataclasses

import numpy as np
import pytest
from scipy.stats import chisquare

from soapfda import (
    SimulationConfig,
    gen_scores,
    gen_sparse_dataset,
    impe,
    run_replication_study,
    validate_dataset,
)
from soapfda.oracle import sign_aligned_imse, trapezoid_weights
from soapfda.sim import check_orthonormal, cosine_pair, parse_config_file


class TestScores:
    def test_gamma_centered_exact_zero_mean(self):
        cfg = SimulationConfig(score_dist="gamma_centered", seed=7)
        scores = gen_scores(cfg, 500)
        np.testing.assert_allclose(scores.mean(axis=0), 0.0, atol=1e-12)

    def test_gamma_sds_match_rates(self):
        # Gamma(1, rate r) has SD 1/r: rates (0.03, 0.1) -> SDs (33.3, 10)
        cfg = SimulationConfig(score_dist="gamma_centered", seed=11)
        scores = gen_scores(cfg, 100_000)
        sds = scores.std(axis=0, ddof=1)
        assert abs(sds[0] - 100.0 / 3.0) < 0.03 * (100.0 / 3.0)
        assert abs(sds[1] - 10.0) < 0.03 * 10.0

    def test_gaussian_deterministic(self):
        cfg = SimulationConfig(seed=5)
        np.testing.assert_array_equal(gen_scores(cfg, 50), gen_scores(cfg, 50))

    def test_gaussian_scale_interpretation(self):
        sd_read = SimulationConfig(seed=5, score_scales=(9.0, 4.0))
        var_read = dataclasses.replace(sd_read, normal_scale_is_sd=False)
        s_sd = gen_scores(sd_read, 200_000)
        s_var = gen_scores(var_read, 200_000)
        assert abs(s_sd.std(axis=0)[0] - 9.0) < 0.1
        assert abs(s_var.std(axis=0)[0] - 3.0) < 0.05


class TestGeneration:
    def test_noise_free_values_exact(self):
        cfg = SimulationConfig(seed=3, noise_sd=0.0)
        ds, scores, truth = gen_sparse_dataset(cfg, 40)
        for i, s in enumerate(ds.subjects):
            np.testing.assert_allclose(s.y, truth.curves_matrix(s.t)[i], atol=1e-12)

    def test_subject_count(self):
        cfg = SimulationConfig(seed=3)
        ds, scores, _ = gen_sparse_dataset(cfg, 300)
        assert ds.n_subjects == 300
        assert scores.shape == (300, 2)

    def test_ni_law_uniform(self):
        cfg = SimulationConfig(seed=17)
        ds, _, _ = gen_sparse_dataset(cfg, 10_000)
        counts = np.bincount([s.n_obs for s in ds.subjects], minlength=6)[1:6]
        assert chisquare(counts).pvalue > 0.01

    def test_all_generated_data_validates(self):
        cfg = SimulationConfig(seed=23)
        ds, _, _ = gen_sparse_dataset(cfg, 200)
        for s in ds.subjects:
            assert np.all((cfg.domain[0] <= s.t) & (s.t <= cfg.domain[1]))
            assert np.all(np.isfinite(s.y))
            assert np.all(np.diff(s.t) >= 0)

    def test_default_pair_orthonormal(self):
        f1, f2 = cosine_pair((0.0, 1.0))
        check_orthonormal(f1, f2, (0.0, 1.0))
        f1, f2 = cosine_pair((0.0, 6.0))
        check_orthonormal(f1, f2, (0.0, 6.0))

    def test_bad_custom_pair_rejected(self):
        cfg = SimulationConfig(components=(np.cos, np.sin))  # not unit norm on [0,1]
        with pytest.raises(ValueError, match="orthonormal"):
            cfg.component_pair()

    def test_nan_pair_rejected(self):
        nan = lambda t: np.full_like(np.asarray(t, dtype=float), np.nan)
        with pytest.raises(ValueError, match="not orthonormal"):
            check_orthonormal(nan, nan, (0.0, 1.0))


class TestMetrics:
    def test_impe_zero_on_exact(self, rng):
        grid = np.linspace(0, 2, 31)
        curves = rng.normal(size=(5, 31))
        assert impe(curves, curves, grid) == 0.0

    def test_impe_constant_offset(self):
        grid = np.linspace(0, 2, 2001)
        truth = np.zeros((4, 2001))
        pred = truth + 3.0
        assert abs(impe(pred, truth, grid) - 9.0 * 2.0) < 1e-9

    def test_impe_matches_naive_loop(self, rng):
        grid = np.linspace(0, 1, 17)
        a = rng.normal(size=(6, 17))
        b = rng.normal(size=(6, 17))
        naive = np.mean([np.trapezoid((a[i] - b[i]) ** 2, grid) for i in range(6)])
        assert abs(impe(a, b, grid) - naive) <= 1e-12 * max(1.0, naive)

    def test_impe_count_mismatch(self, rng):
        grid = np.linspace(0, 1, 5)
        with pytest.raises(ValueError, match="mismatch"):
            impe(np.zeros((3, 5)), np.zeros((4, 5)), grid)

    def test_impe_grid_length_mismatch(self):
        with pytest.raises(ValueError, match="curves do not match the grid length"):
            impe(np.zeros((3, 5)), np.zeros((3, 5)), np.linspace(0, 1, 4))

    def test_imse_zero_and_sign_aligned(self):
        grid = np.linspace(0, 1, 101)
        f = np.sin(2 * np.pi * grid)
        assert sign_aligned_imse(f, f, grid) == 0.0
        assert sign_aligned_imse(-f, f, grid) == 0.0

    def test_imse_perturbation(self):
        grid = np.linspace(0, 1, 4001)
        w = trapezoid_weights(grid)
        f = np.sqrt(2.0) * np.cos(np.pi * grid)
        eta = np.sqrt(2.0) * np.cos(4 * np.pi * grid)
        eta /= np.sqrt(w @ eta**2)
        eps = 0.01
        got = sign_aligned_imse(f + eps * eta, f, grid)
        assert abs(got - eps**2) < 0.02 * eps**2


def spline_representable_pair(basis_size=10):
    """Orthonormal component callables lying exactly in the fitting span."""
    from soapfda import make_bspline_basis
    from soapfda.basis import eval_basis_matrix

    basis = make_bspline_basis((0.0, 1.0), basis_size, 4)
    G = basis.gram
    rng = np.random.default_rng(2718)
    c1 = rng.normal(size=basis_size)
    c1 /= np.sqrt(c1 @ G @ c1)
    c2 = rng.normal(size=basis_size)
    c2 -= (c1 @ G @ c2) * c1
    c2 /= np.sqrt(c2 @ G @ c2)
    return (
        lambda t: eval_basis_matrix(basis, np.atleast_1d(t)) @ c1,
        lambda t: eval_basis_matrix(basis, np.atleast_1d(t)) @ c2,
    )


class TestReplicationStudy:
    def test_dense_noise_free_recovers_exactly(self):
        # Exact regime: generating pair inside the fitting span, no noise.
        # With noise 0 the loss is flat across rotations of the fitted pair,
        # so the fit returns the SAMPLE eigenbasis, which deviates from the
        # generating pair by an angle ~ sqrt(l1*l2/n)/(l1-l2); widely
        # separated score scales make that deviation negligible.
        cfg = SimulationConfig(
            seed=31,
            n_train=25,
            n_test=25,
            noise_sd=0.0,
            ni_range=(50, 50),
            score_scales=(30.0, 0.1),
            components=spline_representable_pair(10),
        )
        summary = run_replication_study(cfg, n_reps=1, n_components=2, gammas=0.0, basis_size=10)
        assert summary.impe.maximum < 1e-6
        for stats in summary.imse_components:
            assert stats.maximum < 1e-6

    def test_deterministic_given_seed(self):
        cfg = SimulationConfig(seed=41, n_train=30, n_test=30)
        s1 = run_replication_study(cfg, n_reps=2, basis_size=8)
        s2 = run_replication_study(cfg, n_reps=2, basis_size=8)
        assert s1.to_dict() == s2.to_dict()

    def test_summary_has_five_statistics(self):
        cfg = SimulationConfig(seed=43, n_train=20, n_test=20)
        summary = run_replication_study(cfg, n_reps=2, basis_size=8)
        for block in [summary.impe.to_dict()] + [s.to_dict() for s in summary.imse_components]:
            assert set(block) == {"mean", "sd", "median", "min", "max"}
        assert summary.n_reps == 2 and summary.n_failed == 0

    def test_zero_replications_rejected(self):
        with pytest.raises(ValueError, match="need at least one replication"):
            run_replication_study(SimulationConfig(), n_reps=0)

    def test_all_failed_study_names_the_first_failure(self):
        cfg = SimulationConfig(seed=43, n_train=10, n_test=10)
        with pytest.raises(RuntimeError, match="all 2 replications failed.*must be finite"):
            run_replication_study(cfg, n_reps=2, gammas=float("nan"), basis_size=8)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        text = """
        # study setup
        n_train = 120
        n_test = 80
        score_dist = gamma_centered
        score_scale_1 = 25.0
        gamma_rate_2 = 0.2
        noise_sd = 1.5
        ni_min = 2
        ni_max = 6
        domain_lo = 0.0
        domain_hi = 2.0
        seed = 99
        """
        path = tmp_path / "sim.cfg"
        path.write_text(text)
        cfg = parse_config_file(path)
        assert cfg.n_train == 120 and cfg.n_test == 80
        assert cfg.score_dist == "gamma_centered"
        assert cfg.score_scales == (25.0, 10.0)
        assert cfg.gamma_rates == (0.03, 0.2)
        assert cfg.noise_sd == 1.5
        assert cfg.ni_range == (2, 6)
        assert cfg.domain == (0.0, 2.0)
        assert cfg.seed == 99

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("seed = 1\n# a comment\nn_train 40\n")
        with pytest.raises(ValueError, match=r"sim\.cfg:3: expected key=value, got 'n_train 40'"):
            parse_config_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("nonsense = 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_file(path)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("true", True), ("TRUE", True), ("yes", True), ("1", True),
            ("false", False), ("no", False), ("0", False),
        ],
    )
    def test_booleans(self, tmp_path, text, expected):
        path = tmp_path / "sim.cfg"
        path.write_text(f"normal_scale_is_sd = {text}\n")
        assert parse_config_file(path).normal_scale_is_sd is expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("seed = 1\nnormal_scale_is_sd = maybe\n", r"sim\.cfg:2: key 'normal_scale_is_sd'.*'maybe'"),
            ("score_scale_1 = 2\n\nscore_scale_1 = 3\n", r"sim\.cfg:3: key 'score_scale_1' repeats line 1"),
            ("n_train = abc\n", r"sim\.cfg:1: key 'n_train'.*'abc'"),
            # a setting out of range is found after parsing, so no line
            ("n_test = 0\n", r"sim\.cfg: n_test must be >= 1, got 0"),
            ("domain_hi = inf\n", r"sim\.cfg: domain must be finite with lo < hi, got \(0\.0, inf\)"),
        ],
    )
    def test_errors_name_file_and_key(self, tmp_path, text, expected):
        path = tmp_path / "sim.cfg"
        path.write_text(text)
        with pytest.raises(ValueError, match=expected):
            parse_config_file(path)

    def test_invalid_config_values_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(ni_range=(0, 5))
        with pytest.raises(ValueError):
            SimulationConfig(noise_sd=-1.0)
        with pytest.raises(ValueError):
            SimulationConfig(score_dist="lognormal")
        for kwargs in (
            {"n_train": 0},
            {"n_test": -3},
            {"noise_sd": float("nan")},
            {"noise_sd": float("inf")},
            {"score_scales": (float("inf"), 1.0)},
            {"gamma_rates": (0.1, float("nan"))},
            {"domain": (float("nan"), 1.0)},
            {"domain": (0.0, float("inf"))},
            {"domain": (1.0, 0.0)},
        ):
            (name,) = kwargs
            with pytest.raises(ValueError, match=name):
                SimulationConfig(**kwargs)
