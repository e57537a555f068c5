import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import BSpline

from soapfda import (
    FecModel,
    Subject,
    eval_basis_matrix,
    load_model,
    make_bspline_basis,
    predict_trajectory,
    quantile_interior_knots,
    save_model,
)
from soapfda.basis import BasisSystem, default_basis_size
from soapfda.core import model_to_dict


def bernstein_mass_matrix():
    # closed form: G_ij = C(3,i) C(3,j) * (i+j)! (6-i-j)! / 7!
    out = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            out[i, j] = (
                math.comb(3, i)
                * math.comb(3, j)
                * math.factorial(i + j)
                * math.factorial(6 - i - j)
                / math.factorial(7)
            )
    return out


class TestConstruction:
    def test_bernstein_gram(self):
        basis = make_bspline_basis((0.0, 1.0), 4, 4)
        assert basis.interior_knots.size == 0
        np.testing.assert_allclose(basis.gram, bernstein_mass_matrix(), rtol=0, atol=1e-15)
        assert abs(basis.gram[0, 0] - 1.0 / 7.0) < 1e-15

    def test_gram_positive_definite(self):
        basis = make_bspline_basis((0.0, 1.0), 20, 4)
        eigs = np.linalg.eigvalsh(basis.gram)
        assert eigs[0] > 1e-10 * np.trace(basis.gram) / basis.size

    def test_penalty_psd_with_null_dim_two(self):
        basis = make_bspline_basis((0.0, 1.0), 10, 4)
        eigs = np.linalg.eigvalsh(basis.penalty)
        scale = np.abs(eigs).max()
        assert eigs[0] > -1e-12 * scale
        assert np.sum(eigs < 1e-10 * scale) == 2  # linear functions

    def test_penalty_kills_linear_functions(self):
        basis = make_bspline_basis((0.0, 1.0), 10, 4)
        ts = np.linspace(0, 1, 57)
        A = eval_basis_matrix(basis, ts)
        coef, *_ = np.linalg.lstsq(A, 2.0 + 3.0 * ts, rcond=None)
        resid = basis.penalty @ coef
        assert np.max(np.abs(resid)) < 1e-9 * np.abs(basis.penalty).max()

    def test_size_below_order_rejected(self):
        with pytest.raises(ValueError, match="smaller than order"):
            make_bspline_basis((0.0, 1.0), 3, 4)

    def test_bad_interior_knots_rejected(self):
        with pytest.raises(ValueError):
            make_bspline_basis((0.0, 1.0), 6, 4, interior_knots=[0.6, 0.3])
        with pytest.raises(ValueError):
            make_bspline_basis((0.0, 1.0), 6, 4, interior_knots=[0.0, 0.5])

    def test_caller_knots_stay_writeable(self):
        knots = np.array([0.3, 0.6])
        basis = make_bspline_basis((0.0, 1.0), 6, 4, interior_knots=knots)
        assert knots.flags.writeable
        assert not basis.interior_knots.flags.writeable
        np.testing.assert_array_equal(basis.interior_knots, knots)
        gram = basis.gram.copy()
        own = BasisSystem(basis.domain, 4, knots, basis.knots, 6, gram, basis.penalty)
        knots[0], gram[:] = 0.5, 0.0  # both bases own copies
        assert basis.interior_knots.tolist() == own.interior_knots.tolist() == [0.3, 0.6]
        np.testing.assert_array_equal(own.gram, basis.gram)

    def test_default_size_rule(self):
        assert default_basis_size(1700) == 20
        assert default_basis_size(30) == 7
        assert default_basis_size(1) == 5
        assert default_basis_size(1, order=6) == 6

    @pytest.mark.parametrize(
        "domain, size, order, match",
        [
            ((1.0, 1.0), 6, 4, r"invalid domain \(1.0, 1.0\)"),
            ((0.0, math.inf), 6, 4, r"invalid domain \(0.0, inf\)"),
            ((0.0, 1.0), 6, 1, "order must be >= 2, got 1"),
            ((0.0, 1.0), 3, 4, "basis size 3 is smaller than order 4"),
        ],
        ids=["empty-domain", "infinite-domain", "order-1", "size-below-order"],
    )
    def test_bad_construction_rejected(self, domain, size, order, match):
        with pytest.raises(ValueError, match=match):
            make_bspline_basis(domain, size, order)

    def test_wrong_interior_knot_count_rejected(self):
        with pytest.raises(ValueError, match=r"expected 2 interior knots, got \(3,\)"):
            make_bspline_basis((0.0, 1.0), 6, 4, interior_knots=[0.25, 0.5, 0.75])

    def test_quantile_knots_zero_count(self):
        knots = quantile_interior_knots([0.1, 0.5, 0.9], 0, (0.0, 1.0))
        assert knots.shape == (0,)
        assert make_bspline_basis((0.0, 1.0), 4, 4, interior_knots=knots).size == 4

    def test_quantile_knots_from_tied_times_rejected(self):
        # every time at 0.5: the quantiles coincide
        with pytest.raises(ValueError, match="non-increasing or boundary knots"):
            quantile_interior_knots(np.full(20, 0.5), 3, (0.0, 1.0))

    def test_quantile_knots(self):
        rng = np.random.default_rng(0)
        times = rng.uniform(0, 1, size=500)
        knots = quantile_interior_knots(times, 4, (0.0, 1.0))
        assert knots.shape == (4,)
        assert np.all(np.diff(knots) > 0)
        assert knots[0] > 0 and knots[-1] < 1


class TestEvaluation:
    def test_partition_of_unity(self):
        basis = make_bspline_basis((0.0, 2.5), 9, 4)
        ts = np.linspace(0, 2.5, 201)
        rows = eval_basis_matrix(basis, ts)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(rows >= 0)

    def test_endpoints(self):
        basis = make_bspline_basis((0.0, 1.0), 7, 4)
        left = eval_basis_matrix(basis, [0.0])[0]
        right = eval_basis_matrix(basis, [1.0])[0]
        np.testing.assert_allclose(left, np.eye(7)[0], atol=1e-15)
        np.testing.assert_allclose(right, np.eye(7)[6], atol=1e-15)

    def test_out_of_domain_rejected(self):
        basis = make_bspline_basis((0.0, 1.0), 6, 4)
        with pytest.raises(ValueError, match="outside domain"):
            eval_basis_matrix(basis, [1.5])

    @pytest.mark.parametrize("times", [[np.nan], [np.nan, 0.5], [0.2, np.nan, 0.7], [0.5, np.nan]])
    def test_nan_times_rejected(self, times):
        basis = make_bspline_basis((0.0, 1.0), 6, 4)
        with pytest.raises(ValueError, match="must be finite"):
            eval_basis_matrix(basis, times)

    @pytest.mark.parametrize(
        "size, order, domain",
        [(20, 4, (0.0, 1.0)), (10, 4, (0.0, 1.0)), (7, 3, (-1.0, 2.5)), (12, 5, (0.25, 2.5)), (5, 2, (0.0, 3.0))],
    )
    def test_matches_scipy_without_extrapolation(self, size, order, domain):
        # both ends, every knot, the last float below the right end, and a
        # uniform sample: bitwise scipy's extrapolate=False design matrix
        basis = make_bspline_basis(domain, size, order)
        lo, hi = domain
        rng = np.random.default_rng(size)
        ts = np.concatenate([[lo, hi, np.nextafter(hi, lo)], basis.knots, rng.uniform(lo, hi, 20_000)])
        ref = BSpline.design_matrix(ts, basis.knots, basis.degree, extrapolate=False).toarray()
        np.testing.assert_array_equal(eval_basis_matrix(basis, ts), ref)

    def test_local_support(self):
        # at most `order` basis functions are nonzero at any point
        basis = make_bspline_basis((0.0, 1.0), 12, 4)
        rows = eval_basis_matrix(basis, np.linspace(0, 1, 97))
        assert np.max((rows != 0).sum(axis=1)) <= basis.order

    def test_eval_function_zero_and_unity(self):
        basis = make_bspline_basis((0.0, 1.0), 6, 4)
        grid = np.linspace(0, 1, 31)
        np.testing.assert_array_equal(eval_basis_matrix(basis, grid) @ np.zeros(6), np.zeros(31))
        np.testing.assert_allclose(eval_basis_matrix(basis, grid) @ np.ones(6), 1.0, atol=1e-12)

    def test_polynomial_reproduction(self):
        basis = make_bspline_basis((0.0, 1.0), 9, 4)
        ts = np.linspace(0, 1, 50)
        A = eval_basis_matrix(basis, ts)
        coef, *_ = np.linalg.lstsq(A, ts, rcond=None)
        fine = np.linspace(0, 1, 333)
        np.testing.assert_allclose(eval_basis_matrix(basis, fine) @ coef, fine, atol=1e-12)


class TestQuadratureIdentities:
    def piecewise_quad(self, basis, func):
        breaks = np.concatenate([[basis.domain[0]], basis.interior_knots, [basis.domain[1]]])
        return sum(
            quad(func, a, b, limit=200)[0] for a, b in zip(breaks[:-1], breaks[1:])
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gram_matches_quadrature(self, seed):
        basis = make_bspline_basis((0.0, 1.0), 10, 4)
        c = np.random.default_rng(seed).normal(size=10)
        spline = BSpline(basis.knots, c, basis.degree)
        exact = self.piecewise_quad(basis, lambda t: spline(t) ** 2)
        assert abs(c @ basis.gram @ c - exact) < 1e-8 * abs(exact)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_penalty_matches_quadrature(self, seed):
        basis = make_bspline_basis((0.0, 1.0), 10, 4)
        c = np.random.default_rng(seed).normal(size=10)
        d2 = BSpline(basis.knots, c, basis.degree).derivative(2)
        exact = self.piecewise_quad(basis, lambda t: d2(t) ** 2)
        assert abs(c @ basis.penalty @ c - exact) < 1e-6 * abs(exact)

    def test_unit_gram_norm_is_unit_integral(self, rng):
        basis = make_bspline_basis((0.0, 1.0), 8, 4)
        c = rng.normal(size=8)
        c = c / np.sqrt(c @ basis.gram @ c)
        grid = np.linspace(0, 1, 4001)
        integral = np.trapezoid((eval_basis_matrix(basis, grid) @ c) ** 2, grid)
        assert abs(integral - 1.0) < 1e-6

    def test_basis_integrals_match_unity(self):
        basis = make_bspline_basis((0.0, 1.0), 8, 4)
        assert abs((basis.gram @ np.ones(basis.size)).sum() - 1.0) < 1e-12


class TestOrderTwo:
    def test_linear_splines_have_zero_penalty(self):
        basis = make_bspline_basis((0.0, 1.0), 5, 2)
        assert np.all(basis.penalty == 0)
        ts = np.linspace(0, 1, 41)
        np.testing.assert_allclose(eval_basis_matrix(basis, ts).sum(axis=1), 1.0, atol=1e-12)


def model_on(basis):
    coef = np.linalg.cholesky(np.linalg.inv(basis.gram))[:, :2]  # G-orthonormal columns
    return FecModel(basis=basis, coef=coef, scores=np.ones((3, 2)), gammas=np.zeros(2), noise_var=0.0)


def check_times(basis):
    """Both domain ends, every knot and 101 grid points."""
    lo, hi = basis.domain
    return np.concatenate([[lo, hi], basis.knots, np.linspace(lo, hi, 101)])


class TestCachedSpline:
    def test_matches_a_fresh_identity_spline(self, tmp_path):
        made = make_bspline_basis((0.0, 2.0), 9, 4)
        uneven = make_bspline_basis((-1.0, 1.5), 7, 3, interior_knots=[-0.9, 0.3, 0.35, 1.2])
        by_hand = BasisSystem(
            domain=uneven.domain,
            order=uneven.order,
            interior_knots=uneven.interior_knots.copy(),
            knots=uneven.knots.copy(),
            size=uneven.size,
            gram=uneven.gram.copy(),
            penalty=uneven.penalty.copy(),
        )
        save_model(model_on(make_bspline_basis((0.5, 3.0), 12, 5)), tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json").basis
        for basis in (made, by_hand, loaded):
            ts = check_times(basis)
            ref = BSpline(basis.knots, np.eye(basis.size), basis.degree)(ts)
            for _ in range(2):  # the first call builds the spline, the second reuses it
                assert eval_basis_matrix(basis, ts).tobytes() == ref.tobytes()

    def test_used_basis_and_model_copy_and_save_alike(self):
        basis = make_bspline_basis((0.0, 1.0), 8, 4)
        model = model_on(basis)
        grid = np.linspace(0.0, 1.0, 101)
        subject = Subject(id="s", t=np.array([0.2, 0.5, 0.9]), y=np.array([1.0, -1.0, 2.0]))
        doc = model_to_dict(model)
        values = predict_trajectory(subject, model, grid).values
        rows = eval_basis_matrix(basis, check_times(basis))
        assert model_to_dict(model) == doc

        def pickled(obj):
            return pickle.loads(pickle.dumps(obj))

        for clone in (pickled, copy.deepcopy, dataclasses.replace):
            assert eval_basis_matrix(clone(basis), check_times(basis)).tobytes() == rows.tobytes()
            again = clone(model)
            assert predict_trajectory(subject, again, grid).values.tobytes() == values.tobytes()
            assert model_to_dict(again) == doc
        flipped = dataclasses.replace(model, coef=-model.coef)
        traj = predict_trajectory(subject, flipped, grid)
        fresh = eval_basis_matrix(basis, grid) @ flipped.coef
        assert traj.values.tobytes() == (fresh @ traj.scores).tobytes()
