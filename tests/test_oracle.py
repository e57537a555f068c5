import numpy as np
import pytest

from soapfda import (
    DenseCurveSet,
    compare_to_soap,
    FecModel,
    grid_eigenfunctions,
    make_bspline_basis,
    sign_aligned_imse,
)
from soapfda.core import DataValidationError, validate_dataset
from soapfda.oracle import dense_curves, trapezoid_weights

from conftest import orthonormal_pair_in_span


def unit_cosine(grid):
    f = np.sqrt(2.0) * np.cos(np.pi * grid)
    w = trapezoid_weights(grid)
    return f / np.sqrt(w @ f**2)


def covariance_eigh(curves, grid, n_components):
    """The reference: eigenpairs of the quadrature-weighted Q x Q uncentered
    covariance from a full ``eigh``, descending, mapped back to functions."""
    sw = np.sqrt(trapezoid_weights(grid))
    K = curves.T @ curves / len(curves)
    A = sw[:, None] * K * sw[None, :]
    vals, vecs = np.linalg.eigh((A + A.T) / 2.0)
    order = np.argsort(vals)[::-1][:n_components]
    return vecs[:, order] / sw[:, None], vals[order]


def orthonormal_cosines(grid):
    """cos(pi t) and cos(2 pi t), orthonormalised under the trapezoid rule."""
    w = trapezoid_weights(grid)
    f1 = unit_cosine(grid)
    f2 = np.sqrt(2.0) * np.cos(2 * np.pi * grid)
    f2 = f2 - (w @ (f1 * f2)) * f1
    return f1, f2 / np.sqrt(w @ f2**2)


class TestDenseCurveSet:
    def test_grid_validation(self):
        with pytest.raises(ValueError, match="equally spaced"):
            DenseCurveSet(grid=np.array([0.0, 0.5, 0.6]), curves=np.zeros((1, 3)))
        with pytest.raises(ValueError, match="increasing"):
            DenseCurveSet(grid=np.array([0.0, 0.0, 0.1]), curves=np.zeros((1, 3)))
        with pytest.raises(ValueError, match="grid must be 1-D with at least two points"):
            DenseCurveSet(grid=np.array([0.5]), curves=np.zeros((1, 1)))

    def test_curve_shape_validation(self):
        grid = np.linspace(0.0, 1.0, 3)
        for curves in (np.zeros((2, 4)), np.zeros(3)):
            with pytest.raises(ValueError, match=r"curves must be \(n, 3\), got"):
                DenseCurveSet(grid=grid, curves=curves)

    def test_sign_aligned_imse_shape_mismatch_rejected(self):
        grid = np.linspace(0.0, 1.0, 5)
        for f_hat, f_ref in ((np.zeros(4), np.zeros(5)), (np.zeros(4), np.zeros(4))):
            with pytest.raises(ValueError, match="functions and grid must share one shape"):
                sign_aligned_imse(f_hat, f_ref, grid)

    def test_caller_arrays_stay_writeable(self):
        grid, curves = np.linspace(0.0, 1.0, 3), np.ones((2, 3))
        curve_set = DenseCurveSet(grid=grid, curves=curves)
        for given, stored in ((grid, curve_set.grid), (curves, curve_set.curves)):
            assert given.flags.writeable
            assert not stored.flags.writeable
            np.testing.assert_array_equal(stored, given)
        grid[1], curves[:] = 0.9, 0.0  # the curve set owns copies
        assert curve_set.grid.tolist() == [0.0, 0.5, 1.0] and curve_set.curves.tolist() == [[1.0] * 3] * 2


class TestGridEigenfunctions:
    @pytest.mark.parametrize(
        "n, Q, M, rank_two",
        [(12, 101, 12, False), (3, 51, 3, False), (500, 41, 41, False), (50, 401, 4, True)],
        ids=["12x101", "3x51", "500x41", "rank2-50x401"],
    )
    def test_matches_covariance_eigh(self, rng, n, Q, M, rank_two):
        grid = np.linspace(0, 1, Q)
        if rank_two:
            curves = (rng.normal(size=(n, 2)) * [5.0, 1.5]) @ np.vstack(orthonormal_cosines(grid))
        else:
            curves = rng.normal(size=(n, Q))
        funcs, vals = grid_eigenfunctions(DenseCurveSet(grid=grid, curves=curves), M)
        ref_funcs, ref_vals = covariance_eigh(curves, grid, M)
        assert funcs.shape == (Q, M) and vals.shape == (M,)
        assert np.max(np.abs(vals - ref_vals)) <= 1e-12 * ref_vals[0]
        nonzero = ref_vals > 1e-12 * ref_vals[0]
        assert nonzero.sum() == (2 if rank_two else M)
        for m in np.flatnonzero(nonzero):
            assert sign_aligned_imse(funcs[:, m], ref_funcs[:, m], grid) < 1e-18

    def test_rank_one_recovery(self, rng):
        grid = np.linspace(0, 1, 201)
        psi = unit_cosine(grid)
        scores = rng.normal(0.0, 2.0, size=40)
        cs = DenseCurveSet(grid=grid, curves=np.outer(scores, psi))
        funcs, vals = grid_eigenfunctions(cs, 1)
        assert sign_aligned_imse(funcs[:, 0], psi, grid) < 1e-20
        assert abs(vals[0] - np.mean(scores**2)) < 1e-10

    def test_eigenvalues_nonnegative_descending(self, rng):
        grid = np.linspace(0, 1, 101)
        cs = DenseCurveSet(grid=grid, curves=rng.normal(size=(12, 101)))
        _, vals = grid_eigenfunctions(cs, 6)
        assert np.all(vals >= -1e-12)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_quadrature_orthonormal(self, rng):
        grid = np.linspace(0, 1, 151)
        cs = DenseCurveSet(grid=grid, curves=rng.normal(size=(20, 151)))
        funcs, _ = grid_eigenfunctions(cs, 4)
        w = trapezoid_weights(grid)
        gram = funcs.T @ (w[:, None] * funcs)
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-8

    def test_rank_two_forward_construction(self, rng):
        grid = np.linspace(0, 1, 401)
        f1, f2 = orthonormal_cosines(grid)
        # make the sample second-moment matrix of the scores exactly diagonal
        # so the sample eigenfunctions ARE the generating pair
        scores = rng.normal(size=(300, 2))
        scores[:, 1] -= scores[:, 0] * (scores[:, 0] @ scores[:, 1]) / (scores[:, 0] @ scores[:, 0])
        scores[:, 0] *= 5.0 / scores[:, 0].std()
        scores[:, 1] *= 1.5 / scores[:, 1].std()
        curves = np.outer(scores[:, 0], f1) + np.outer(scores[:, 1], f2)
        funcs, _ = grid_eigenfunctions(DenseCurveSet(grid=grid, curves=curves), 2)
        for m, truth in enumerate((f1, f2)):
            err = min(np.max(np.abs(funcs[:, m] - truth)), np.max(np.abs(funcs[:, m] + truth)))
            assert err < 1e-3

    def test_too_many_components_rejected(self):
        cs = DenseCurveSet(grid=np.linspace(0, 1, 5), curves=np.eye(8, 5))
        with pytest.raises(ValueError, match="cannot extract 6 eigenfunctions from 8 curves on a 5-point grid"):
            grid_eigenfunctions(cs, 6)

    @pytest.mark.parametrize("M", [4, 0, -1])
    def test_component_count_outside_one_to_n_rejected(self, M):
        cs = DenseCurveSet(grid=np.linspace(0, 1, 5), curves=np.eye(3, 5))
        with pytest.raises(ValueError, match=f"cannot extract {M} eigenfunctions from 3 curves on a 5-point grid"):
            grid_eigenfunctions(cs, M)


class TestCompareToSoap:
    def make_model(self, rng):
        basis = make_bspline_basis((0.0, 1.0), 8, 4)
        c1, c2 = orthonormal_pair_in_span(basis, rng)
        return FecModel(
            basis=basis,
            coef=np.column_stack([c1, c2]),
            scores=np.zeros((3, 2)),
            gammas=np.zeros(2),
            noise_var=0.0,
        )

    def test_identical_functions_zero(self, rng):
        model = self.make_model(rng)
        grid = np.linspace(0, 1, 101)
        vals = model.component_values(grid)
        np.testing.assert_allclose(compare_to_soap(model, vals, grid), 0.0, atol=1e-24)

    def test_sign_flip_zero(self, rng):
        model = self.make_model(rng)
        grid = np.linspace(0, 1, 101)
        vals = -model.component_values(grid)
        np.testing.assert_allclose(compare_to_soap(model, vals, grid), 0.0, atol=1e-24)

    def test_small_perturbation_scales_quadratically(self, rng):
        model = self.make_model(rng)
        grid = np.linspace(0, 1, 2001)
        w = trapezoid_weights(grid)
        vals = model.component_values(grid).copy()
        eta = np.sin(3 * np.pi * grid)
        eta /= np.sqrt(w @ eta**2)
        eps = 1e-3
        vals[:, 0] += eps * eta
        imse = compare_to_soap(model, vals, grid)
        assert abs(imse[0] - eps**2) < 0.05 * eps**2
        assert imse[1] < 1e-20

    def test_grid_mismatch_rejected(self, rng):
        model = self.make_model(rng)
        with pytest.raises(ValueError, match=r"\(len\(grid\), M\)"):
            compare_to_soap(model, np.zeros((7, 2)), np.linspace(0, 1, 9))


class TestDenseCsvAssembly:
    def test_round_trip(self, rng):
        grid = np.linspace(0, 1, 6)
        curves = rng.normal(size=(3, 6))
        rows = [
            (f"s{i}", float(t), float(v))
            for i in range(3)
            for t, v in zip(grid, curves[i])
        ]
        cs = dense_curves(validate_dataset(rows))
        np.testing.assert_allclose(cs.grid, grid)
        np.testing.assert_allclose(cs.curves, curves)

    def test_shuffled_rows_off_zero_grid_exact(self, rng):
        grid = np.linspace(-1.0, 2.5, 8)
        curves = rng.normal(size=(4, 8))
        rows = [(f"s{i}", float(t), float(v)) for i in range(4) for t, v in zip(grid, curves[i])]
        cs = dense_curves(validate_dataset([rows[k] for k in rng.permutation(len(rows))], (-1.0, 2.5)))
        np.testing.assert_array_equal(cs.grid, grid)
        np.testing.assert_array_equal(cs.curves, curves)

    @pytest.mark.parametrize(
        "bad",
        [{}, {"s2": "shift"}, {"s1": "short", "s3": "shift"}, {"s1": "shift", "s2": "short"}, {"s3": "tiny"}],
        ids=["none", "shift", "short-first", "shift-first", "within-tolerance"],
    )
    def test_first_off_grid_subject_named(self, rng, bad):
        """The one array comparison names the first subject in dataset order
        that is too short or more than 1e-12 off the grid, as a subject by
        subject check does."""
        grid = np.linspace(0.0, 1.0, 9)
        times = {f"s{i}": grid.copy() for i in range(5)}
        for sid, how in bad.items():
            times[sid] = {"shift": grid + 2e-12 * (grid > 0.5), "short": grid[:-1], "tiny": grid + 5e-13}[how]
        rows = [(sid, float(x), float(rng.normal())) for sid, t in times.items() for x in np.clip(t, 0.0, 1.0)]
        ds = validate_dataset(rows, (0.0, 1.0))
        first = ds.subjects[0].t
        off = [
            s.id for s in ds.subjects[1:] if s.n_obs != len(first) or not np.allclose(s.t, first, rtol=0, atol=1e-12)
        ]
        if off:
            with pytest.raises(DataValidationError, match=f"^subject {off[0]} is not observed on the common grid$"):
                dense_curves(ds)
        else:
            assert dense_curves(ds).curves.shape == (5, 9)

    def test_mismatched_grid_rejected(self):
        rows = [("a", 0.0, 1.0), ("a", 0.5, 1.0), ("a", 1.0, 1.0), ("b", 0.0, 2.0), ("b", 0.4, 2.0), ("b", 1.0, 2.0)]
        with pytest.raises(DataValidationError, match="common grid"):
            dense_curves(validate_dataset(rows))
