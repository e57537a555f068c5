import hashlib
import math

import numpy as np
import pytest
from scipy import linalg as sla

from soapfda import (
    FecModel,
    LongitudinalDataset,
    SingularStepError,
    Subject,
    fit_soap,
    holdout_last_mspe_model,
    loco_cv_gamma,
    make_bspline_basis,
    objective,
    predict_trajectories,
    predict_trajectory,
    project_scores,
    psi_step_penalized,
    quantile_interior_knots,
    score_step,
    select_gammas_sequential,
    sigma2_hat,
    validate_dataset,
)
from soapfda.basis import eval_basis_matrix
from soapfda.oracle import grid_eigenfunctions, sign_aligned_imse, DenseCurveSet
from soapfda.predict import default_grid
from soapfda.sim import SimulationConfig, draw_replication, gen_sparse_dataset
from soapfda import solver
from soapfda.solver import SCORE_SINGULAR_FLOOR, _solve_scores, _subject_systems

from conftest import dense_rank2_dataset, orthonormal_pair_in_span
from solver_steps import fit_first_fec, psi_step_first, psi_step_orthogonal


def naive_objective(dataset, model):
    """Independent double-loop evaluation of the observed loss."""
    total = 0.0
    for i, s in enumerate(dataset.subjects):
        inner = 0.0
        for t, y in zip(s.t, s.y):
            fit = 0.0
            for m in range(model.n_components):
                fit += model.scores[i, m] * float(
                    (eval_basis_matrix(model.basis, [t]) @ model.coef[:, m])[0]
                )
            inner += (y - fit) ** 2
        total += inner / s.n_obs
    total /= dataset.n_subjects
    for m in range(model.n_components):
        total += model.gammas[m] * float(
            model.coef[:, m] @ model.basis.penalty @ model.coef[:, m]
        )
    return total


def sparse_instance(seed, n=30, basis_size=8):
    cfg = SimulationConfig(seed=seed, noise_sd=1.0)
    rng = np.random.default_rng(seed)
    ds, _, _ = gen_sparse_dataset(cfg, n, rng)
    return ds, make_bspline_basis(cfg.domain, basis_size, 4)


class TestObjective:
    def test_exact_model_gives_zero(self, cubic_basis, rng):
        c1, c2 = orthonormal_pair_in_span(cubic_basis, rng)
        scores = rng.normal(size=(10, 2)) * [3.0, 1.0]
        grid = np.linspace(0, 1, 25)
        ds, _ = dense_rank2_dataset(cubic_basis, 10, grid, scores, (c1, c2))
        model = FecModel(
            basis=cubic_basis,
            coef=np.column_stack([c1, c2]),
            scores=scores,
            gammas=np.zeros(2),
            noise_var=0.0,
        )
        assert objective(ds, model) < 1e-24

    def test_zero_scores_give_mean_square(self, cubic_basis, rng):
        ds, basis = sparse_instance(11)
        model = FecModel(
            basis=basis,
            coef=np.eye(basis.size)[:, :1],
            scores=np.zeros((ds.n_subjects, 1)),
            gammas=np.zeros(1),
            noise_var=0.0,
        )
        expected = np.mean([np.mean(s.y**2) for s in ds.subjects])
        assert abs(objective(ds, model) - expected) < 1e-12 * max(1.0, expected)

    def test_matches_naive_double_loop(self, rng):
        ds, basis = sparse_instance(12)
        c1, c2 = orthonormal_pair_in_span(basis, rng)
        model = FecModel(
            basis=basis,
            coef=np.column_stack([c1, c2]),
            scores=rng.normal(size=(ds.n_subjects, 2)),
            gammas=np.array([0.3, 0.01]),
            noise_var=0.0,
        )
        assert abs(objective(ds, model) - naive_objective(ds, model)) < 1e-10

    def test_subject_count_mismatch_rejected(self):
        ds, basis = sparse_instance(12)
        model = FecModel(basis, np.eye(basis.size)[:, :1], np.zeros((ds.n_subjects - 1, 1)), np.zeros(1), 0.0)
        with pytest.raises(ValueError, match="model scores do not match the dataset's subject count"):
            objective(ds, model)


class TestScoreStep:
    def test_projection_onto_first_coordinate(self):
        ds = validate_dataset([("a", 0.1, 3.0), ("a", 0.9, 7.0)], (0.0, 1.0))
        scores = score_step(ds, [np.array([[1.0], [0.0]])])
        np.testing.assert_allclose(scores, [[3.0]], atol=1e-14)

    def test_exact_recovery(self, cubic_basis, rng):
        c1, c2 = orthonormal_pair_in_span(cubic_basis, rng)
        grid = np.linspace(0, 1, 9)
        truth = rng.normal(size=(6, 2)) * [4.0, 2.0]
        ds, _ = dense_rank2_dataset(cubic_basis, 6, grid, truth, (c1, c2))
        B = eval_basis_matrix(cubic_basis, grid)
        vals = [B @ np.column_stack([c1, c2]) for _ in range(6)]
        got = score_step(ds, vals)
        np.testing.assert_allclose(got, truth, atol=1e-10)

    def test_single_observation_minimum_norm(self):
        # one observation, two components: pseudo-inverse solution is
        # proportional to the design row
        ds = validate_dataset([("a", 0.5, 2.0)], (0.0, 1.0))
        row = np.array([[0.8, 0.6]])
        got = score_step(ds, [row])[0]
        expected = row[0] * 2.0 / (row[0] @ row[0])  # pinv of a 1x2 system
        np.testing.assert_allclose(got, expected, atol=1e-14)
        np.testing.assert_allclose(got, np.linalg.pinv(row) @ np.array([2.0]), atol=1e-14)

    def test_degenerate_design_truncated_to_zero(self):
        # all component values far below the unit-norm component scale
        ds = validate_dataset([("a", 0.5, 2.0)], (0.0, 1.0))
        got = score_step(ds, [np.array([[1e-6, 1e-7]])])
        np.testing.assert_array_equal(got, [[0.0, 0.0]])

    def test_inconsistent_columns_rejected(self):
        ds = validate_dataset([("a", 0.5, 2.0), ("b", 0.5, 2.0)], (0.0, 1.0))
        with pytest.raises(ValueError, match="inconsistent"):
            score_step(ds, [np.ones((1, 2)), np.ones((1, 3))])

    def test_one_value_matrix_per_subject_required(self):
        ds = validate_dataset([("a", 0.5, 2.0), ("b", 0.5, 2.0)], (0.0, 1.0))
        with pytest.raises(ValueError, match="need one value matrix per subject"):
            score_step(ds, [np.ones((1, 2))])

    def test_row_count_mismatch_rejected(self):
        ds = validate_dataset([("a", 0.2, 1.0), ("a", 0.5, 2.0), ("b", 0.5, 2.0)], (0.0, 1.0))
        with pytest.raises(ValueError, match="subject a: 1 rows for 2 observations"):
            score_step(ds, [np.ones((1, 2)), np.ones((1, 2))])

    def test_zero_columns_rejected(self):
        ds = validate_dataset([("a", 0.5, 2.0), ("a", 0.7, 1.0), ("b", 0.5, 2.0)], (0.0, 1.0))
        with pytest.raises(ValueError, match="value matrices have 0 columns"):
            score_step(ds, [np.zeros((s.n_obs, 0)) for s in ds.subjects])


def svd_reference_scores(psi, y, prev=None):
    """One subject's scores by truncated minimum-norm least squares on the SVD
    of its value matrix, keeping s_j > SCORE_SINGULAR_FLOOR, then the
    residual guard against ``prev``.
    Returns (scores, directions kept)."""
    u, s, vt = np.linalg.svd(psi, full_matrices=False)
    keep = s > SCORE_SINGULAR_FLOOR
    sol = vt[keep].T @ ((u[:, keep].T @ y) / s[keep])
    if prev is not None:
        r_new, r_old = y - psi @ sol, y - psi @ prev
        if r_new @ r_new > r_old @ r_old:
            sol = prev
    return sol, int(keep.sum())


class TestScoreKernel:
    def mixed_stack(self, m, rng):
        """Value matrices: every size 1-5 (so n_i = 1 and n_i < M), repeated
        times, singular values straddling the floor, a vanishing subject.
        At M = 2 also the shapes the closed-form eigensystem branches on:
        orthogonal columns with the larger norm first and second, equal-norm
        orthogonal columns (a repeated eigenvalue), a rank-one matrix, and a
        large direction beside a small one on either side of the floor."""
        psis = [rng.normal(size=(n_i, m)) * 2.0 for n_i in (1, 2, 3, 4, 5) for _ in range(4)]
        psis.append(np.repeat(rng.normal(size=(1, m)), 3, axis=0))
        if m == 2:
            q, _ = np.linalg.qr(rng.normal(size=(4, 2)))
            psis += [q * [3.0, 0.7], q * [0.7, 3.0], q * 1.5]
            psis.append(np.outer(rng.normal(size=3), rng.normal(size=2)))
        spectra = [(0.21,), (0.19,)] if m == 1 else [(1.3,) * (m - 2) + (0.21, 0.19)]
        if m == 2:
            spectra = [(40.0, 0.21), (40.0, 0.19)] + spectra
        for spectrum in spectra:
            u, _ = np.linalg.qr(rng.normal(size=(m + 2, m)))
            v, _ = np.linalg.qr(rng.normal(size=(m, m)))
            psis.append(u @ np.diag(spectrum) @ v.T)
        psis.append(np.zeros((3, m)))
        return psis, [rng.normal(size=len(p)) * 5.0 for p in psis]

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("guarded", [False, True])
    def test_matches_svd_reference(self, m, guarded, rng):
        psis, ys = self.mixed_stack(m, rng)
        prev = None
        if guarded:
            prev = rng.normal(size=(len(psis), m)) * 3.0
            # untruncated, the subject with singular value 0.19 fits better
            prev[-2] = np.linalg.pinv(psis[-2]) @ ys[-2]
            gram = np.stack([p.T @ p for p in psis])
            rhs = np.stack([p.T @ y for p, y in zip(psis, ys)])
            got, n_truncated, _ = _solve_scores(gram, rhs, prev)
        else:
            systems = _subject_systems(np.concatenate(psis), np.concatenate(ys), [len(p) for p in psis])
            got, n_truncated, _ = _solve_scores(*systems)
        ranks = []
        for i, (psi, y) in enumerate(zip(psis, ys)):
            ref, rank = svd_reference_scores(psi, y, None if prev is None else prev[i])
            np.testing.assert_allclose(got[i], ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())
            alone = _solve_scores(*_subject_systems(psi, y, [len(y)]))[1]
            assert alone == int(rank < m)
            ranks.append(rank)
        assert n_truncated == sum(r < m for r in ranks)
        assert ranks[-2] == m - 1
        if guarded:
            np.testing.assert_array_equal(got[-2], prev[-2])
        assert ranks[-1] == 0
        np.testing.assert_array_equal(got[-1], np.zeros(m))

    def test_closed_form_eigensystem(self, rng):
        """At M = 2 the kernel's eigensystem, the eigenvalues and the vectors
        (-sin t, cos t) and (cos t, sin t), matches ``np.linalg.eigh`` to
        8 eps max|G| per matrix, on random Gram matrices of every size and
        scale and on the mixed stack's special shapes."""
        psis = self.mixed_stack(2, rng)[0]
        psis += [rng.normal(size=(n_i, 2)) * 10.0**e for n_i in (1, 2, 3, 6) for e in range(-4, 5)]
        gram = np.stack([p.T @ p for p in psis])
        w, cos, sin = solver._eigh2(gram)
        v = np.stack([np.stack([-sin, cos], axis=1), np.stack([cos, sin], axis=1)], axis=1)
        tol = 8 * np.finfo(float).eps * np.abs(gram).max(axis=(1, 2))
        assert np.all(np.diff(w, axis=1) >= 0)
        assert np.all(np.abs(w - np.linalg.eigh(gram)[0]) <= tol[:, None])
        rebuilt = np.einsum("kij,kj,klj->kil", v, w, v)
        assert np.all(np.abs(rebuilt - gram) <= tol[:, None, None])
        gap = np.einsum("kji,kjl->kil", v, v) - np.eye(2)
        assert np.abs(gap).max() <= 8 * np.finfo(float).eps


    @pytest.mark.parametrize("m", [1, 2])
    def test_written_out_products_match_einsum(self, m, rng):
        """At M <= 2 the kernel writes out its products with V and with G;
        they give the bits of the einsum forms used at M > 2, signed zeros
        included, with and without the guard."""
        psis, ys = self.mixed_stack(m, rng)
        gram = np.stack([p.T @ p for p in psis])
        rhs = np.stack([p.T @ y for p, y in zip(psis, ys)])
        rhs[:-3:3] *= -0.0  # zero right-hand sides of both signs
        rhs[1:-3:3] = np.where(rhs[1:-3:3] > 0, 0.0, rhs[1:-3:3])
        if m == 1:
            w, v = gram[:, :, 0], np.ones_like(gram)
        else:
            w, cos, sin = solver._eigh2(gram)
            v = np.stack([np.stack([-sin, cos], axis=1), np.stack([cos, sin], axis=1)], axis=1)
        inv = np.zeros_like(w)
        np.divide(1.0, w, out=inv, where=w > SCORE_SINGULAR_FLOOR**2)
        ref = np.einsum("kmj,kj->km", v, inv * np.einsum("km,kmj->kj", rhs, v))
        assert _solve_scores(gram, rhs)[0].tobytes() == ref.tobytes()
        prev = rng.normal(size=ref.shape) * 3.0
        prev[::4] = ref[::4]  # ties keep the fresh scores
        # untruncated, the subject with singular value 0.19 fits better
        prev[-2] = np.linalg.pinv(gram[-2]) @ rhs[-2]
        grow = np.einsum("kmj,kj->km", gram, ref + prev) - 2.0 * rhs
        worse = np.einsum("km,km->k", ref - prev, grow) > 0
        ref[worse] = prev[worse]
        got, _, n_kept = _solve_scores(gram, rhs, prev)
        assert got.tobytes() == ref.tobytes() and n_kept == np.count_nonzero(worse) > 0

def row_score_system(ws, coef):
    """Score-step Gram matrices and right-hand sides formed from the rows."""
    psis = [ws.B[ws.rows(i)] @ coef for i in range(ws.n)]
    ys = [ws.y[ws.rows(i)] for i in range(ws.n)]
    return np.stack([p.T @ p for p in psis]), np.stack([p.T @ y for p, y in zip(psis, ys)])


def row_update_system(ws, scores, coef, m):
    """Normal matrix and rhs of component m's update, formed from the rows:
    design rows w_ij a_im b(t_ij) with w_ij = 1/sqrt(n n_i), target w_ij times
    the residual after every other component's contribution."""
    L = ws.basis.size
    ata, rhs = np.zeros((L, L)), np.zeros(L)
    for i in range(ws.n):
        B, y = ws.B[ws.rows(i)], ws.y[ws.rows(i)]
        others = scores[i].copy()
        others[m] = 0.0
        resid = y - B @ (coef @ others)
        wa = scores[i, m] / (ws.n * len(y))
        ata += wa * scores[i, m] * (B.T @ B)
        rhs += wa * (B.T @ resid)
    return ata, rhs


def assert_rel_close(got, ref, rel):
    assert np.abs(got - ref).max() <= rel * np.abs(ref).max()


# every (order, L, knot placement) the band tests cover; L = order has no
# interior knot, so its two placements give one basis
BAND_BASES = [
    (order, size, knots)
    for order in (2, 3, 4, 5)
    for size in sorted({order, 8, 20, 40})
    for knots in ("equal", "quantile")
]


def subject_products(ws):
    """Each subject's S_i = B_i'B_i (n, L, L), formed from its own rows."""
    return np.stack([ws.B[ws.rows(i)].T @ ws.B[ws.rows(i)] for i in range(ws.n)])


class TestStatistics:
    def mixed_dataset(self, rng):
        """Sizes 1-6 with tied times (times on a 9-point lattice) and one
        401-point subject, whose times cluster towards 0."""
        lattice = np.linspace(0.0, 1.0, 9)
        rows = []
        for i in range(30):
            for t in rng.choice(lattice, size=1 + i % 6):
                rows.append((f"s{i:02d}", float(t), float(rng.normal() * 3.0)))
        for t in np.linspace(0.0, 1.0, 401) ** 2:
            rows.append(("dense", float(t), float(np.sin(6.0 * t) + rng.normal())))
        return validate_dataset(rows, (0.0, 1.0))

    def workspace(self, ds, size=8, order=4, knots="equal"):
        """The workspace of ``ds`` on ``size`` B-splines of ``order``. Quantile
        knots sit at quantiles of the dense subject's times: the tied lattice
        times of the others could make two knots equal."""
        interior = None
        if knots == "quantile":
            dense = next(s for s in ds.subjects if s.id == "dense")
            interior = quantile_interior_knots(dense.t, size - order, ds.domain)
        return solver._Workspace.from_dataset(ds, make_bspline_basis(ds.domain, size, order, interior))

    def mixed_workspace(self, rng):
        """The workspace of ``mixed_dataset``, L = 8."""
        return self.workspace(self.mixed_dataset(rng))

    @pytest.mark.parametrize("order, size, knots", BAND_BASES)
    def test_band_matches_subject_products(self, order, size, knots, rng):
        """Each subject's B_i'B_i is exactly zero outside the order-wide
        band, and the band holds its entries to 1e-14 relative."""
        ws = self.workspace(self.mixed_dataset(rng), size, order, knots)
        S = subject_products(ws)
        assert not S[:, np.abs(np.subtract.outer(np.arange(size), np.arange(size))) >= order].any()
        band = ws.stats[0]
        assert band.shape == (ws.n, order, size)
        ref = np.zeros(band.shape)
        for d in range(order):
            ref[:, d, : size - d] = np.diagonal(S, d, axis1=1, axis2=2)
        assert (np.abs(band - ref).max(axis=(1, 2)) <= 1e-14 * np.abs(ref).max(axis=(1, 2))).all()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_systems_match_row_reference(self, m, rng):
        ds = self.mixed_dataset(rng)
        assert {1, 2, 3, 4, 5, 6, 401} == {s.n_obs for s in ds.subjects}
        assert any(len(np.unique(s.t)) < s.n_obs for s in ds.subjects)
        for order, size, knots in BAND_BASES:
            ws = self.workspace(ds, size, order, knots)
            coef = rng.normal(size=(size, m))
            gram, rhs = solver._score_system(ws, coef)
            gram_ref, rhs_ref = row_score_system(ws, coef)
            assert_rel_close(gram, gram_ref, 1e-12)
            assert_rel_close(rhs, rhs_ref, 1e-12)
            scores = rng.normal(size=(ws.n, m)) * 2.0
            for k in range(m):
                ata, nrhs = solver._update_system(ws, coef, scores, k)
                ata_ref, nrhs_ref = row_update_system(ws, scores, coef, k)
                assert_rel_close(ata, ata_ref, 1e-12)
                assert_rel_close(nrhs, nrhs_ref, 1e-12)

    @pytest.mark.parametrize("m", [1, 2])
    def test_written_out_sums_match_batched_forms(self, m, rng):
        """At M <= 2 the row objective writes out its one or two products
        per entry and gives the bits of einsum's form. The score step's Gram
        matrices are the band times Q written out entry by entry, and exactly
        symmetric; the normal matrix is exactly the weighted band sums placed
        at (j, j + d) and (j + d, j), and zero outside the band."""
        ws = self.mixed_workspace(rng)
        band, T = ws.stats
        n, order, L = band.shape
        coef = rng.normal(size=(L, m))
        scores = rng.normal(size=(n, m)) * 2.0
        scores[::5] = 0.0
        R, P = np.repeat(scores, ws.sizes, axis=0), ws.B @ coef
        resid = ws.y - np.einsum("nm,nm->n", R, P)
        assert solver._row_base(ws, R, P) == float(ws.w2 @ (resid * resid))
        Q = np.zeros((order, L, m, m))
        for d in range(order):
            for j in range(L - d):
                for a in range(m):
                    for b in range(m):
                        Q[d, j, a, b] = coef[j, a] * coef[j + d, b]
                        if d:
                            Q[d, j, a, b] += coef[j + d, a] * coef[j, b]
        gram, rhs = solver._score_system(ws, coef)
        assert gram.tobytes() == (band.reshape(n, -1) @ Q.reshape(-1, m * m)).reshape(n, m, m).tobytes()
        assert gram.tobytes() == gram.transpose(0, 2, 1).tobytes()
        assert rhs.tobytes() == (T @ coef).tobytes()
        for k in range(m):
            wa = ws.w * scores[:, k]
            W = ((wa[:, None] * scores).T @ band.reshape(n, -1)).reshape(m, order, L)
            ata, nrhs = solver._update_system(ws, coef, scores, k)
            ref = np.zeros((m, L, L))
            for d in range(order):
                for j in range(L - d):
                    ref[:, j, j + d] = ref[:, j + d, j] = W[:, d, j]
            assert ata.tobytes() == ref[k].tobytes()
            others = wa @ T if m == 1 else wa @ T - ref[1 - k] @ coef[:, 1 - k]
            assert nrhs.tobytes() == others.tobytes()

    @pytest.mark.parametrize("m", [None, 1, 2, 3])
    def test_subject_systems_alone_equal_mixed_stack(self, m, rng):
        """One call on every subject (sizes 1-6, 401, tied times and an empty
        subject) gives each subject the bits of its one-subject call, with
        and without coef, and the row products D_i'D_i and D_i'y_i."""
        ws = self.mixed_workspace(rng)
        sizes = np.insert(ws.sizes, 5, 0)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        coef = None if m is None else rng.normal(size=(ws.basis.size, m))
        gram, rhs = _subject_systems(ws.B, ws.y, sizes, coef)
        designs, ys = [], []
        for i, n_i in enumerate(sizes):
            rows = slice(offsets[i], offsets[i + 1])
            alone = _subject_systems(ws.B[rows], ws.y[rows], [n_i], coef)
            np.testing.assert_array_equal(alone[0][0], gram[i])
            np.testing.assert_array_equal(alone[1][0], rhs[i])
            designs.append(ws.B[rows] if coef is None else ws.B[rows] @ coef)
            ys.append(ws.y[rows])
        assert_rel_close(gram, np.stack([d.T @ d for d in designs]), 1e-12)
        assert_rel_close(rhs, np.stack([d.T @ y for d, y in zip(designs, ys)]), 1e-12)
        assert not gram[5].any() and not rhs[5].any()

    @staticmethod
    def grouped_systems(X, y, sizes, coef):
        """The size-group gather: each size's rows fancy-indexed into a
        (k, n_i, p) stack. A reference for the equal-size reshape."""
        q = X.shape[1] if coef is None else coef.shape[1]
        gram, rhs = np.empty((len(sizes), q, q)), np.empty((len(sizes), q))
        starts = np.cumsum(sizes) - sizes
        for size in np.unique(sizes):
            idx = np.flatnonzero(sizes == size)
            rows = starts[idx, None] + np.arange(size)
            D = X[rows] if coef is None else X[rows] @ coef
            Dt = D.transpose(0, 2, 1)
            gram[idx] = np.matmul(Dt, D)
            rhs[idx] = np.matmul(Dt, y[rows][..., None])[..., 0]
        return gram, rhs

    @pytest.mark.parametrize("m", [None, 1, 2, 3])
    @pytest.mark.parametrize("k, n_i", [(300, 1), (6, 401), (4, 0), (0, 3)])
    def test_subject_systems_equal_size_stack(self, m, k, n_i, rng):
        """Subjects of one size (every n_i = 1, every n_i = 401, every subject
        empty, no subjects) get the bits of their one-subject calls and of
        the size-group gather, with and without coef."""
        basis = make_bspline_basis((0.0, 1.0), 8, 4)
        X = eval_basis_matrix(basis, rng.uniform(0.0, 1.0, k * n_i))
        y = rng.normal(size=k * n_i) * 3.0
        sizes = np.full(k, n_i)
        coef = None if m is None else rng.normal(size=(basis.size, m))
        q = basis.size if m is None else m
        gram, rhs = _subject_systems(X, y, sizes, coef)
        assert gram.shape == (k, q, q) and rhs.shape == (k, q)
        ref_gram, ref_rhs = self.grouped_systems(X, y, sizes, coef)
        np.testing.assert_array_equal(gram, ref_gram)
        np.testing.assert_array_equal(rhs, ref_rhs)
        for i in range(k):
            rows = slice(i * n_i, (i + 1) * n_i)
            alone = _subject_systems(X[rows], y[rows], [n_i], coef)
            np.testing.assert_array_equal(alone[0][0], gram[i])
            np.testing.assert_array_equal(alone[1][0], rhs[i])
        if n_i == 0:
            assert not gram.any() and not rhs.any()

    def test_stats_chunked_within_size_groups_match_one_chunk(self, rng, monkeypatch):
        """Chunks of one subject, or of two, within each size group give the
        band and T of one chunk per group, bitwise."""
        ds = self.mixed_dataset(rng)
        whole = self.workspace(ds).stats
        for floats in (1, 2 * 8 * 8):
            monkeypatch.setattr(solver, "_CHUNK_FLOATS", floats)
            chunked = self.workspace(ds).stats
            assert all(a.tobytes() == b.tobytes() for a, b in zip(chunked, whole))

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("order", [2, 4])
    def test_band_product_matches_shifted_rows_bitwise(self, m, order, rng):
        """Q equals, bit for bit, the outer products of coef with its rows
        shifted in by slices, zero rows past the edge multiplied in, so even
        the signs of its zeros match."""
        L = 9
        coef = rng.normal(size=(L, m))
        coef[-2:] = -np.abs(coef[-2:])
        coef[3] = 0.0
        shifted = np.zeros((order, L, m))
        for d in range(order):
            shifted[d, : L - d] = coef[d:]
        outer = coef[None, :, :, None] * shifted[:, :, None, :]
        ref = outer + outer.swapaxes(2, 3)
        ref[0] = outer[0]
        assert np.signbit(ref[ref == 0]).any()
        assert solver._band_product(coef, order).tobytes() == ref.reshape(order * L, m * m).tobytes()

    def test_drop_subject_matches_fresh_workspace(self, rng):
        """A fold equals, bitwise, the workspace built afresh from the dataset
        without the subject: rows, sizes, weights and statistics."""
        ds = self.mixed_dataset(rng)
        ws = self.workspace(ds)
        band, T = ws.stats
        assert band.size == ws.n * ws.basis.order * ws.basis.size
        kept = band.copy()
        for i in (0, 7, ws.n - 1):
            fold = ws.drop_subject(i)
            rest = LongitudinalDataset(ds.domain, ds.subjects[:i] + ds.subjects[i + 1 :])
            fresh = self.workspace(rest)
            for name in ("B", "y", "sizes", "w", "w2"):
                np.testing.assert_array_equal(getattr(fold, name), getattr(fresh, name))
            for got, ref in zip(fold.stats, fresh.stats):
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        assert ws.stats[0] is band and ws.stats[1] is T
        assert band.tobytes() == kept.tobytes()

    def test_noise_free_dense_trace_reaches_zero(self):
        # criterion 1's data: the exact row loss must not go negative or
        # stall above rounding level, as a Gram-form loss would
        basis = make_bspline_basis((0.0, 1.0), 8, 4)
        rng = np.random.default_rng(42)
        c1, c2 = orthonormal_pair_in_span(basis, rng)
        grid = np.linspace(0, 1, 401)
        scores = rng.normal(size=(50, 2)) * [5.0, 2.0]
        ds, _ = dense_rank2_dataset(basis, 50, grid, scores, (c1, c2))
        trace = np.array(fit_soap(ds, basis, 2, 0.0).report.loss_trace)
        assert np.all(trace >= 0.0)
        assert trace[-1] <= 1e-20


class TestPsiStepFirst:
    def rank1_dense(self, basis, rng, n=25, q=60):
        c1, _ = orthonormal_pair_in_span(basis, rng)
        grid = np.linspace(0, 1, q)
        alpha = rng.normal(2.0, 1.0, size=n)
        vals = np.outer(alpha, eval_basis_matrix(basis, grid) @ c1)
        rows = [
            (f"s{i:02d}", float(grid[j]), float(vals[i, j]))
            for i in range(n)
            for j in range(q)
        ]
        return validate_dataset(rows, (0.0, 1.0)), c1, alpha

    def test_recovers_rank1_component(self, cubic_basis, rng):
        ds, c1, alpha = self.rank1_dense(cubic_basis, rng)
        beta = psi_step_first(ds, alpha, cubic_basis)
        grid = np.linspace(0, 1, 301)
        truth = eval_basis_matrix(cubic_basis, grid) @ c1
        got = eval_basis_matrix(cubic_basis, grid) @ beta
        err = min(np.max(np.abs(got - truth)), np.max(np.abs(got + truth)))
        assert err < 1e-6

    def test_unit_gram_norm(self, cubic_basis, rng):
        ds, _, alpha = self.rank1_dense(cubic_basis, rng)
        beta = psi_step_first(ds, alpha, cubic_basis)
        assert abs(beta @ cubic_basis.gram @ beta - 1.0) <= 1e-12

    def test_step_plus_score_refit_descends(self, rng):
        ds, basis = sparse_instance(21)
        c1, _ = orthonormal_pair_in_span(basis, rng)
        scores0 = score_step(ds, [eval_basis_matrix(basis, s.t) @ c1[:, None] for s in ds.subjects])
        model0 = FecModel(
            basis=basis, coef=c1[:, None], scores=scores0, gammas=np.zeros(1), noise_var=0.0
        )
        before = objective(ds, model0)
        beta = psi_step_first(ds, scores0[:, 0], basis)
        scores1 = score_step(ds, [eval_basis_matrix(basis, s.t) @ beta[:, None] for s in ds.subjects])
        model1 = FecModel(
            basis=basis, coef=beta[:, None], scores=scores1, gammas=np.zeros(1), noise_var=0.0
        )
        assert objective(ds, model1) <= before * (1 + 1e-12)

    def test_all_zero_scores_rejected(self, cubic_basis):
        ds = validate_dataset([("a", 0.2, 1.0), ("b", 0.8, 2.0)], (0.0, 1.0))
        with pytest.raises(SingularStepError, match="zero"):
            psi_step_first(ds, np.zeros(2), cubic_basis)


class TestPsiStepOrthogonal:
    def test_recovers_second_eigenfunction(self, cubic_basis, rng):
        c1, c2 = orthonormal_pair_in_span(cubic_basis, rng)
        grid = np.linspace(0, 1, 401)
        truth = rng.normal(size=(40, 2)) * [6.0, 2.0]
        ds, X = dense_rank2_dataset(cubic_basis, 40, grid, truth, (c1, c2))
        # oracle eigenfunctions of the uncentered covariance
        oracle_vals, _ = grid_eigenfunctions(DenseCurveSet(grid=grid.copy(), curves=X.copy()), 2)
        # project data onto oracle component 1 to fix it, then solve for 2
        B = eval_basis_matrix(cubic_basis, grid)
        f1, *_ = np.linalg.lstsq(B, oracle_vals[:, 0], rcond=None)
        f1 /= np.sqrt(f1 @ cubic_basis.gram @ f1)
        scores = score_step(
            ds, [eval_basis_matrix(cubic_basis, s.t) @ np.column_stack([f1, c2 * 0 + 1e-3]) for s in ds.subjects]
        )
        beta2 = psi_step_orthogonal(ds, scores, cubic_basis, f1[:, None], gamma=0.0)
        got = eval_basis_matrix(cubic_basis, grid) @ beta2
        assert sign_aligned_imse(got, oracle_vals[:, 1], grid) < 1e-4

    def test_hard_orthogonality(self, cubic_basis, rng):
        ds, basis = sparse_instance(31)
        c1, c2 = orthonormal_pair_in_span(basis, rng)
        fixed = np.column_stack([c1])
        scores = rng.normal(size=(ds.n_subjects, 2))
        beta = psi_step_orthogonal(ds, scores, basis, fixed, gamma=0.0)
        assert abs(beta @ basis.gram @ c1) <= 1e-10
        assert abs(beta @ basis.gram @ beta - 1.0) <= 1e-12

    def test_empty_constraint_set_matches_first_step(self, rng):
        ds, basis = sparse_instance(32)
        alpha = np.random.default_rng(1).normal(size=(ds.n_subjects,))
        via_orth = psi_step_orthogonal(ds, alpha[:, None], basis, np.zeros((basis.size, 0)), 0.0)
        via_first = psi_step_first(ds, alpha, basis)
        np.testing.assert_allclose(via_orth, via_first, atol=1e-13)

    def test_non_orthonormal_fixed_rejected(self, cubic_basis, rng):
        ds, basis = sparse_instance(33)
        bad = 2.0 * np.ones((basis.size, 1))  # G-norm 4, not 1
        with pytest.raises(ValueError, match="orthonormal"):
            psi_step_orthogonal(ds, np.ones((ds.n_subjects, 2)), basis, bad, 0.0)


class TestPsiStepPenalized:
    def normal_system(self, basis, rng, rows=60):
        A = rng.normal(size=(rows, basis.size))
        y = rng.normal(size=rows)
        return A.T @ A, A.T @ y

    def test_gamma_zero_is_normalized_unconstrained(self, cubic_basis, rng):
        ata, rhs = self.normal_system(cubic_basis, rng)
        res = psi_step_penalized(ata, rhs, cubic_basis.gram, cubic_basis.penalty, 0.0)
        direct = np.linalg.solve(ata, rhs)
        direct /= np.sqrt(direct @ cubic_basis.gram @ direct)
        np.testing.assert_allclose(res.beta, direct, atol=1e-9)
        assert res.multiplier == 0.0 and not res.fallback
        # rescaled by score_scale, the unit-norm step solves the normal equations
        resid = ata @ (res.score_scale * res.beta) - rhs
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(rhs)

    def test_huge_gamma_flattens_to_line(self, cubic_basis, rng):
        ata, rhs = self.normal_system(cubic_basis, rng)
        res = psi_step_penalized(ata, rhs, cubic_basis.gram, cubic_basis.penalty, 1e12)
        assert res.beta @ cubic_basis.penalty @ res.beta < 1e-9
        grid = np.linspace(0, 1, 51)
        vals = eval_basis_matrix(cubic_basis, grid) @ res.beta
        second_diff = np.diff(vals, 2)
        assert np.max(np.abs(second_diff)) < 1e-6 * np.max(np.abs(vals))

    def test_kkt_residual(self, cubic_basis, rng):
        for _ in range(5):
            ata, rhs = self.normal_system(cubic_basis, rng)
            gamma = float(10 ** rng.uniform(-3, 1))
            res = psi_step_penalized(ata, rhs, cubic_basis.gram, cubic_basis.penalty, gamma)
            H = ata + gamma * cubic_basis.penalty
            resid = np.linalg.norm(H @ res.beta - res.multiplier * (cubic_basis.gram @ res.beta) - rhs)
            assert resid <= 1e-8 * np.linalg.norm(rhs)
            assert res.score_scale == 1.0
            assert abs(res.beta @ cubic_basis.gram @ res.beta - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "gamma, match",
        [
            (0.0, "component update is identically zero"),
            (1e-3, "zero right-hand side in norm-constrained component step"),
        ],
    )
    def test_zero_rhs_rejected(self, cubic_basis, rng, gamma, match):
        ata, _ = self.normal_system(cubic_basis, rng)
        with pytest.raises(SingularStepError, match=match):
            psi_step_penalized(ata, np.zeros(cubic_basis.size), cubic_basis.gram, cubic_basis.penalty, gamma)

    def test_hard_case_falls_back_with_flag(self):
        H = np.diag([1.0, 2.0, 3.0])
        rhs = np.array([0.0, 0.1, 0.1])  # constraint function stays below 1
        res = psi_step_penalized(H - np.eye(3), rhs, np.eye(3), np.eye(3), 1.0)
        assert res.fallback
        assert abs(res.beta @ res.beta - 1.0) <= 1e-12
        # the hard case is solved exactly: lam = mu_1 and, with z = d / gap on
        # the other directions, beta = z + sqrt(1 - ||z||^2) v_1, whose
        # objective is sum_j (mu_j z_j^2 - 2 d_j z_j) + mu_1 (1 - ||z||^2)
        cases = [
            (H, rhs, np.eye(3), 0.985),
            # a repeated lowest eigenvalue
            (np.diag([1.0, 1.0, 3.0]), np.array([0.0, 0.0, 0.5]), np.eye(3), 0.875),
            # a non-identity G: mu = (1, 2, 3) with v_1 = e_1 / sqrt(2)
            (np.diag([2.0, 2.0, 3.0]), rhs, np.diag([2.0, 1.0, 1.0]), 0.985),
        ]
        for H, rhs, G, optimum in cases:
            res = psi_step_penalized(H - np.eye(3), rhs, G, np.eye(3), 1.0)
            assert res.fallback
            assert abs(res.beta @ G @ res.beta - 1.0) <= 1e-12
            assert res.multiplier == sla.eigh(H, G)[0][0]
            resid = np.linalg.norm(H @ res.beta - res.multiplier * (G @ res.beta) - rhs)
            assert resid <= 1e-12 * np.linalg.norm(rhs)
            assert abs(res.beta @ H @ res.beta - 2.0 * rhs @ res.beta - optimum) <= 1e-12

    @pytest.mark.parametrize("d1", [1e-6, 1e-9, 1e-12, 1e-30])
    def test_near_hard_case_solved_exactly(self, d1):
        # rhs nearly orthogonal to the lowest eigenvector: the root sits within
        # about d1 of the pole at mu_1 = 6, yet the step is an exact solution
        ata, rhs, eye = np.diag([5.0, 6.0, 7.0]), np.array([d1, 0.5, 0.0]), np.eye(3)
        res = psi_step_penalized(ata, rhs, eye, eye, 1.0)
        assert not res.fallback
        assert np.all(np.isfinite(res.beta))
        assert abs(res.beta @ res.beta - 1.0) <= 1e-12
        resid = np.linalg.norm((ata + eye) @ res.beta - res.multiplier * (eye @ res.beta) - rhs)
        assert resid <= 1e-12 * np.linalg.norm(rhs)

    def test_repeated_lowest_eigenvalue(self):
        # rhs lies in a two-dimensional lowest eigenspace; the root is at
        # delta = ||d|| = 0.5, whatever basis of that space eigh returns
        H, rhs = np.diag([1.0, 1.0, 3.0]), [0.0, 0.5, 0.0]
        res = psi_step_penalized(H, rhs, np.eye(3), np.zeros((3, 3)), 1.0)
        assert not res.fallback
        assert abs(res.multiplier - 0.5) <= 1e-12
        np.testing.assert_allclose(np.abs(res.beta), [0.0, 1.0, 0.0], atol=1e-12)

    def test_root_without_pole(self):
        # no rhs weight on the lowest eigenvector, but the other directions
        # alone have norm 2 at delta = 0, so the root exists at lam = -1
        H, rhs = np.diag([0.0, 1.0, 2.0]), [0.0, 2.0, 0.0]
        res = psi_step_penalized(H, rhs, np.eye(3), np.zeros((3, 3)), 1.0)
        assert not res.fallback
        assert abs(res.multiplier + 1.0) <= 1e-12
        np.testing.assert_allclose(np.abs(res.beta), [0.0, 1.0, 0.0], atol=1e-12)

    def test_negative_gamma_rejected(self, cubic_basis):
        with pytest.raises(ValueError, match=">= 0"):
            psi_step_penalized(np.eye(8), np.ones(8), cubic_basis.gram, cubic_basis.penalty, -1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"gamma {bad!r} must be finite and >= 0"):
                psi_step_penalized(np.eye(8), np.ones(8), cubic_basis.gram, cubic_basis.penalty, bad)


class TestDirectLapack:
    """The component update calls LAPACK ``gelsy`` and ``sygvd`` directly;
    the results are bitwise those of the scipy.linalg wrappers it replaced,
    on random and rank-deficient systems of every size and scale."""

    def systems(self, rng):
        """(A, B, rhs): A symmetric positive semidefinite, B positive
        definite, at sizes 1, 5, 19 and 20 and scales 1e-8 to 1e8; each A
        again with a zeroed row and column."""
        for n in (1, 5, 19, 20):
            for scale in (1e-8, 1.0, 1e8):
                X, Y = rng.normal(size=(n + 3, n)), rng.normal(size=(2 * n + 3, n))
                A, B, rhs = scale * (X.T @ X), Y.T @ Y / n, scale * rng.normal(size=n)
                yield A, B, rhs
                A = A.copy()
                A[n // 2, :] = A[:, n // 2] = 0.0
                yield A, B, rhs

    def test_minnorm_lstsq_is_scipy_gelsy(self, rng):
        for A, _, rhs in self.systems(rng):
            ref = sla.lstsq(A, rhs, cond=1e-12, lapack_driver="gelsy", check_finite=False)[0]
            np.testing.assert_array_equal(solver._minnorm_lstsq(A, rhs, 1e-12), ref)

    def test_generalized_eigh_is_scipy_eigh(self, rng):
        for A, B, _ in self.systems(rng):
            for H in (A, A - np.trace(A) / len(A) * B):  # semidefinite and indefinite
                for got, ref in zip(solver._generalized_eigh(H, B), sla.eigh(H, B)):
                    np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_normal_matrix_rejected(self, bad):
        H = np.eye(3)
        H[1, 2] = H[2, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            psi_step_penalized(H, np.ones(3), np.eye(3), np.eye(3), 1.0)

    @pytest.mark.parametrize("gram", [np.diag([1.0, -1.0, 1.0]), np.diag([1.0, 1.0, 0.0])])
    def test_gram_not_positive_definite_rejected(self, gram):
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            psi_step_penalized(np.eye(3), np.ones(3), gram, np.eye(3), 1.0)


class TestFitFirstFec:
    def test_rank1_dense_fast_convergence(self, cubic_basis, rng):
        c1, _ = orthonormal_pair_in_span(cubic_basis, rng)
        grid = np.linspace(0, 1, 80)
        alpha = rng.normal(0.0, 3.0, size=30)
        vals = np.outer(alpha, eval_basis_matrix(cubic_basis, grid) @ c1)
        rows = [
            (f"s{i:02d}", float(grid[j]), float(vals[i, j]))
            for i in range(30)
            for j in range(80)
        ]
        ds = validate_dataset(rows, (0.0, 1.0))
        beta, scores, report = fit_first_fec(ds, cubic_basis, 0.0)
        assert report.converged
        assert report.stage_cycles[0] <= 3
        fine = np.linspace(0, 1, 801)
        imse = sign_aligned_imse(
            eval_basis_matrix(cubic_basis, fine) @ beta, eval_basis_matrix(cubic_basis, fine) @ c1, fine
        )
        assert imse < 1e-8

    def test_trace_non_increasing(self):
        ds, basis = sparse_instance(41)
        _, _, report = fit_first_fec(ds, basis, 0.0)
        trace = np.array(report.loss_trace)
        assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, trace[:-1]))

    def test_two_default_fits_bitwise_equal(self):
        ds, basis = sparse_instance(42)
        b1, s1, r1 = fit_first_fec(ds, basis, 0.0)
        b2, s2, r2 = fit_first_fec(ds, basis, 0.0)
        np.testing.assert_array_equal(b1, b2)
        np.testing.assert_array_equal(s1, s2)
        assert r1.loss_trace == r2.loss_trace


def naive_moment_matrix(ds, basis, fixed, scores):
    """K = sum_i v_i sum_{j != k} r_ij r_ik b(t_ij) b(t_ik)' by a double loop
    over the pairs, with v_i = 1/(n_i (n_i - 1)) and r_ij the residual under
    the fixed components."""
    K = np.zeros((basis.size, basis.size))
    for i, s in enumerate(ds.subjects):
        b = [eval_basis_matrix(basis, [t])[0] for t in s.t]
        r = [y - float(bj @ fixed @ scores[i]) for bj, y in zip(b, s.y)]
        for j in range(s.n_obs):
            for k in range(s.n_obs):
                if j != k:
                    K += r[j] * r[k] * np.outer(b[j], b[k]) / (s.n_obs * (s.n_obs - 1))
    return K


class TestStageInits:
    def test_moment_start_matches_double_loop(self, rng):
        """The first start of a stage is the leading G-eigenvector of the
        residuals' off-diagonal second moments, G-orthonormalized against
        the fixed components: stage 1 (r = y) and a stage 2 with a given
        fixed column and given scores."""
        cfg = SimulationConfig(seed=7)
        ds, _, _ = gen_sparse_dataset(cfg, 25)
        assert any(s.n_obs == 1 for s in ds.subjects)
        basis = make_bspline_basis(cfg.domain, 8, 4)
        ws = solver._Workspace.from_dataset(ds, basis)
        G = basis.gram
        c1, _ = orthonormal_pair_in_span(basis, rng)
        for fixed, scores in (
            (np.zeros((8, 0)), np.zeros((25, 0))),
            (c1[:, None], rng.normal(size=(25, 1)) * 10.0),
        ):
            _, V = sla.eigh(naive_moment_matrix(ds, basis, fixed, scores), G)
            ref = V[:, -1] - fixed @ (fixed.T @ G @ V[:, -1])
            ref /= math.sqrt(ref @ G @ ref)
            got = solver._stage_inits(ws, fixed, scores)[0]
            sign = 1.0 if got @ G @ ref > 0 else -1.0
            np.testing.assert_allclose(got, sign * ref, rtol=0, atol=1e-12)

    def test_starts_exist_when_the_leading_direction_is_fixed(self):
        """With the leading moment direction v_1 fixed (zero scores leave the
        residuals, and so the moment directions, unchanged), v_1 has no
        G-norm left and the next direction starts the stage."""
        cfg = SimulationConfig(seed=7)
        ds, _, _ = gen_sparse_dataset(cfg, 25)
        basis = make_bspline_basis(cfg.domain, 8, 4)
        ws = solver._Workspace.from_dataset(ds, basis)
        G = basis.gram
        fixed = solver._stage_inits(ws, np.zeros((8, 0)), np.zeros((25, 0)))[0][:, None]
        starts = solver._stage_inits(ws, fixed, np.zeros((25, 1)))
        assert starts
        for u in starts:
            assert abs(float(fixed[:, 0] @ G @ u)) <= 1e-12
            assert abs(float(u @ G @ u) - 1.0) <= 1e-12

    @pytest.mark.parametrize("rep", [18, 24])
    def test_default_design_gamma_zero_basin(self, rep):
        """Replications whose gamma-0 fits once settled in a poor basin (psi_2
        IMSE above 1, noise_var 7 and 21 against about 1.3 elsewhere)."""
        cfg = SimulationConfig(seed=100)
        train, _, _ = draw_replication(cfg, rep)
        model = fit_soap(train, make_bspline_basis(cfg.domain, 20, 4), 2, 0.0)
        grid = default_grid(cfg.domain, 101)
        _, f2 = cfg.component_pair()
        assert sign_aligned_imse(model.component_values(grid)[:, 1], f2(grid), grid) <= 0.03
        assert model.noise_var <= 2.0


class TestFitSoap:
    def test_truncation_count_matches_final_spectra(self):
        ds, basis = sparse_instance(52, n=60)
        model = fit_soap(ds, basis, 2, 1e-3)
        ranks = [svd_reference_scores(model.component_values(s.t), s.y)[1] for s in ds.subjects]
        assert model.report.n_truncated == sum(r < 2 for r in ranks) > 0

    def test_final_objective_is_the_returned_models(self):
        ds, basis = sparse_instance(57, n=60)
        model = fit_soap(ds, basis, 2, 1e-3)
        full = objective(ds, model)
        assert abs(model.report.final_objective - full) <= 1e-12 * full

    @pytest.mark.parametrize("gamma", [0.0, 1e-3])
    def test_stall_when_every_update_is_rejected(self, gamma, monkeypatch):
        # with a negative uphill tolerance no update is accepted, so each
        # stage and the sweeps stop after their first cycle as converged
        monkeypatch.setattr(solver, "_UPHILL_TOL", -1.0)
        cfg = SimulationConfig(seed=3, n_train=60)
        ds, _, _ = gen_sparse_dataset(cfg)
        basis = make_bspline_basis(cfg.domain, 10, 4)
        for m, length in ((1, 1), (2, 4)):
            report = fit_soap(ds, basis, m, gamma).report
            assert report.converged
            assert len(report.loss_trace) == length
            assert report.stage_cycles == (1,) * m
            assert report.n_sweeps == m - 1

    def test_m1_reduces_to_fit_first_fec(self):
        ds, basis = sparse_instance(51)
        model = fit_soap(ds, basis, 1, [0.0])
        beta, scores, report = fit_first_fec(ds, basis, 0.0)
        np.testing.assert_array_equal(model.coef[:, 0], beta)
        np.testing.assert_array_equal(model.scores[:, 0], scores)
        assert model.report.loss_trace == report.loss_trace

    # loss_trace of the default simulation (n = 300, L = 20, M = 2) as
    # (length, converged, n_sweeps, sha256 of the float64 trace), recorded
    # with numpy 2.4 on OpenBLAS 0.3.31 (x86-64). Any change to the score or
    # component arithmetic that moves one iterate by one ulp changes the
    # digest; another BLAS build may round differently and need a new record.
    DEFAULT_TRACES = {
        0.0: (520, False, 20, "350b2c6f34ac489d6da9747778e1f655518923d414832ccff3d90a9fee0bf720"),
        1e-3: (212, False, 20, "4d4acbd4646b30bd1c8cb78a261e570ba3e011881f4637491ce6afbf9ebb0ff7"),
    }

    @pytest.mark.parametrize("gamma", [0.0, 1e-3])
    def test_default_simulation_trace_bitwise(self, gamma):
        cfg = SimulationConfig(seed=3)
        ds, _, _ = gen_sparse_dataset(cfg)
        report = fit_soap(ds, make_bspline_basis(cfg.domain, 20, 4), 2, gamma).report
        trace = np.array(report.loss_trace)
        got = (len(trace), report.converged, report.n_sweeps, hashlib.sha256(trace.tobytes()).hexdigest())
        assert got == self.DEFAULT_TRACES[gamma], f"computed {got!r}, final objective {trace[-1].hex()}"

    # the same simulation with one component, the path of every first stage
    # and LOCO-CV fold: (trace length, converged, stage_cycles, sha256 of the
    # trace, sha256 of the scores' bytes, which tells +0.0 from -0.0)
    ONE_COMPONENT_FITS = {
        0.0: (
            50, True, (25,),
            "142746959b401cab741d3e274db22559a6e1ddfe29d4a912264c9d82035f78bd",
            "f656f064a2f50dfadda817ea5b70b2cf279a4ff53dcbbea0a03af28ce796055b",
        ),
        1e-3: (
            58, True, (29,),
            "5656f9daac081004aedef9062f0187b113b88f89ad7732642a53384e13b7ed10",
            "cb934c691787ea81b21537de75975c5498511263286f52b04d4ba6372f6cb25b",
        ),
    }

    @pytest.mark.parametrize("gamma", [0.0, 1e-3])
    def test_one_component_fit_bitwise(self, gamma):
        cfg = SimulationConfig(seed=3)
        ds, _, _ = gen_sparse_dataset(cfg)
        model = fit_soap(ds, make_bspline_basis(cfg.domain, 20, 4), 1, gamma)
        trace = np.array(model.report.loss_trace)
        got = (
            len(trace), model.report.converged, model.report.stage_cycles,
            hashlib.sha256(trace.tobytes()).hexdigest(), hashlib.sha256(model.scores.tobytes()).hexdigest(),
        )
        assert got == self.ONE_COMPONENT_FITS[gamma], f"computed {got!r}, final objective {trace[-1].hex()}"

    # L = 20 cubic basis, M = 3, gamma = 1e-3: (trace length, converged,
    # sweeps, stage_cycles, sha256 of the trace); the stage reduction with two
    # fixed columns and the score kernel's eigh branch
    THREE_COMPONENT_TRACE = (
        412, False, 20, (29, 37, 80), "ba3876531b2e5fea4c4cb2e305f25844272ac0f964df13c7084e9a73f6672211"
    )

    def test_three_component_trace_bitwise(self):
        cfg = SimulationConfig(seed=3)
        ds, _, _ = gen_sparse_dataset(cfg)
        report = fit_soap(ds, make_bspline_basis(cfg.domain, 20, 4), 3, 1e-3).report
        trace = np.array(report.loss_trace)
        got = (
            len(trace), report.converged, report.n_sweeps, report.stage_cycles,
            hashlib.sha256(trace.tobytes()).hexdigest(),
        )
        assert got == self.THREE_COMPONENT_TRACE, f"computed {got!r}, final objective {trace[-1].hex()}"

    # the balanced design SimulationConfig(seed=3, ni_range=(3, 3)), L = 20,
    # M = 2, whose statistics and final refit form every subject's system in
    # one equal-size stack: sha256 of the coef, the scores and the loss
    # trace, recorded with numpy 2.4 on OpenBLAS 0.3.31 (x86-64)
    BALANCED_FITS = {
        0.0: (
            "f71236ec92603285f94ae69b7f04ade94a52ce22627fee99ca059086546e6205",
            "e6358cb2e1f03358720727db960033c1e6806631602a7dc2ef3c3122446413ed",
            "e25ebbcaaa4fbf32b73ee914295bfb4d22af5040b197da41eed96aa8d5e7aabf",
        ),
        1e-3: (
            "b0846ede01c5f267fbc66c3c7738afd7d81b7bb16c1d092f434bbdb3f33aa94a",
            "50da57dd3652f86176ad005efa56ecb2b9498825d50d9fecedb966185b078ff6",
            "3a5bd6155863485d021da4af9e1e1e770198a97144dc86da24fdca2b162a9db0",
        ),
    }

    @pytest.mark.parametrize("gamma", [0.0, 1e-3])
    def test_balanced_design_fit_bitwise(self, gamma):
        cfg = SimulationConfig(seed=3, ni_range=(3, 3))
        ds, _, _ = gen_sparse_dataset(cfg)
        assert {s.n_obs for s in ds.subjects} == {3}
        model = fit_soap(ds, make_bspline_basis(cfg.domain, 20, 4), 2, gamma)
        got = tuple(
            hashlib.sha256(np.asarray(a, dtype=float).tobytes()).hexdigest()
            for a in (model.coef, model.scores, model.report.loss_trace)
        )
        assert got == self.BALANCED_FITS[gamma], f"computed {got!r}"

    def test_capped_loops_reported(self):
        cfg = SimulationConfig(seed=3)
        ds, _, _ = gen_sparse_dataset(cfg)
        report = fit_soap(ds, make_bspline_basis(cfg.domain, 20, 4), 2, 0.0).report
        assert report.stage_capped == (False, False)
        assert report.sweeps_capped is True
        assert report.converged is False

    def test_guard_kept_count_reported(self):
        cfg = SimulationConfig(seed=3)
        ds, _, _ = gen_sparse_dataset(cfg)
        report = fit_soap(ds, make_bspline_basis(cfg.domain, 20, 4), 2, 0.0).report
        assert report.n_guard_kept > 0

    @pytest.mark.parametrize("gamma", [0.0, 1e-3])
    def test_component_updates_run_the_public_step(self, gamma, monkeypatch):
        cfg = SimulationConfig(seed=3)
        ds, _, _ = gen_sparse_dataset(cfg)
        basis = make_bspline_basis(cfg.domain, 20, 4)
        plain = fit_soap(ds, basis, 2, gamma)
        calls = []
        step = solver.psi_step_penalized

        def counted(*args, **kwargs):
            calls.append(args[-1])
            return step(*args, **kwargs)

        monkeypatch.setattr(solver, "psi_step_penalized", counted)
        wrapped = fit_soap(ds, basis, 2, gamma)
        assert len(calls) >= 1 and set(calls) == {gamma}
        assert wrapped.report.loss_trace == plain.report.loss_trace
        np.testing.assert_array_equal(wrapped.coef, plain.coef)

    def test_rank2_dense_matches_oracle(self, cubic_basis, rng):
        # quadrature-vs-uniform weighting differences shrink like h^2, so the
        # tight tolerance here needs a finer grid than the oracle default
        c1, c2 = orthonormal_pair_in_span(cubic_basis, rng)
        grid = np.linspace(0, 1, 1601)
        truth = rng.normal(size=(40, 2)) * [5.0, 2.0]
        ds, X = dense_rank2_dataset(cubic_basis, 40, grid, truth, (c1, c2))
        model = fit_soap(ds, cubic_basis, 2, 0.0)
        oracle_vals, eigvals = grid_eigenfunctions(DenseCurveSet(grid=grid.copy(), curves=X.copy()), 2)
        fitted = model.component_values(grid)
        for m in range(2):
            assert sign_aligned_imse(fitted[:, m], oracle_vals[:, m], grid) < 1e-6

    def test_orthonormality_after_fit(self):
        ds, basis = sparse_instance(52)
        model = fit_soap(ds, basis, 2, [1e-3, 1e-3])
        assert model.orthonormality_error() <= 1e-8

    def test_sweep_objectives_non_increasing(self):
        ds, basis = sparse_instance(53)
        model = fit_soap(ds, basis, 2, [1e-3, 1e-3])
        sw = np.array(model.report.sweep_objectives)
        if len(sw) > 1:
            assert np.all(np.diff(sw) <= 1e-12 * np.maximum(1.0, sw[:-1]))

    def test_gamma_zero_full_trace_monotone(self):
        ds, basis = sparse_instance(54)
        model = fit_soap(ds, basis, 2, 0.0)
        trace = np.array(model.report.loss_trace)
        assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, trace[:-1]))

    def test_gamma_positive_stage_segments_monotone(self):
        ds, basis = sparse_instance(55)
        model = fit_soap(ds, basis, 2, [1e-2, 1e-2])
        trace = np.array(model.report.loss_trace)
        offsets = list(model.report.stage_offsets) + [len(trace)]
        for a, b in zip(offsets[:-1], offsets[1:]):
            seg = trace[a:b]
            assert np.all(np.diff(seg) <= 1e-12 * np.maximum(1.0, seg[:-1]))

    def test_scale_equivariance(self):
        ds, basis = sparse_instance(56)
        model = fit_soap(ds, basis, 2, 0.0)
        scaled_rows = [(s.id, float(t), 10.0 * float(v)) for s in ds.subjects for t, v in zip(s.t, s.y)]
        ds10 = validate_dataset(scaled_rows, ds.domain)
        model10 = fit_soap(ds10, basis, 2, 0.0)
        for m in range(2):
            sign = 1.0 if np.dot(model10.coef[:, m], model.coef[:, m]) >= 0 else -1.0
            np.testing.assert_allclose(model10.coef[:, m], sign * model.coef[:, m], atol=1e-8)
            np.testing.assert_allclose(
                model10.scores[:, m], sign * 10.0 * model.scores[:, m], rtol=1e-6, atol=1e-8
            )

    def test_noise_var_is_mean_squared_residual(self):
        ds, basis = sparse_instance(57)
        model = fit_soap(ds, basis, 2, [1e-3, 1e-3])
        resid = 0.0
        for i, s in enumerate(ds.subjects):
            fitted = model.component_values(s.t) @ model.scores[i]
            resid += float(np.mean((s.y - fitted) ** 2))
        assert abs(model.noise_var - resid / ds.n_subjects) < 1e-12

    def test_domain_mismatch_rejected(self):
        ds, _ = sparse_instance(58)
        other = make_bspline_basis((0.0, 2.0), 8, 4)
        with pytest.raises(ValueError, match="domain"):
            fit_soap(ds, other, 1, 0.0)

    def test_gamma_shape_checked(self):
        ds, basis = sparse_instance(59)
        with pytest.raises(ValueError, match="gamma"):
            fit_soap(ds, basis, 2, [0.1])
        with pytest.raises(ValueError, match=">= 0"):
            fit_soap(ds, basis, 1, [-0.1])
        for gammas, bad in ((math.nan, "nan"), (math.inf, "inf"), ([0.1, -math.inf], "-inf")):
            with pytest.raises(ValueError, match=f"gamma {bad} must be finite and >= 0"):
                fit_soap(ds, basis, 2, gammas)



def with_subject(subject):
    """A sparse instance with ``subject`` inserted at index 4, and a
    one-component model with a score per subject."""
    ds, basis = sparse_instance(60, n=10)
    ds = LongitudinalDataset(ds.domain, ds.subjects[:4] + (subject,) + ds.subjects[4:])
    model = FecModel(basis, np.eye(basis.size)[:, :1], np.zeros((ds.n_subjects, 1)), np.zeros(1), 0.0)
    return ds, basis, model


# every entry point that takes observation rows, called as (dataset, basis,
# model); the fit side first, which also rejects a subject without rows
FIT_CALLS = {
    "fit_soap": lambda ds, basis, model: fit_soap(ds, basis, 1, 0.0),
    "objective": lambda ds, basis, model: objective(ds, model),
    "sigma2_hat": lambda ds, basis, model: sigma2_hat(ds, model),
    "loco_cv_gamma": lambda ds, basis, model: loco_cv_gamma(ds, basis, 1, None, [0.0]),
    "select_gammas_sequential": lambda ds, basis, model: select_gammas_sequential(ds, basis, 1, [0.0]),
}
ROW_CALLS = {
    **FIT_CALLS,
    "score_step": lambda ds, basis, model: score_step(ds, [np.ones((s.n_obs, 1)) for s in ds.subjects]),
    "project_scores": lambda ds, basis, model: project_scores(ds.subjects[4], model),
    "predict_trajectory": lambda ds, basis, model: predict_trajectory(ds.subjects[4], model, default_grid(ds.domain)),
    "predict_trajectories": lambda ds, basis, model: predict_trajectories(ds.subjects, model, default_grid(ds.domain)),
    "holdout_last_mspe_model": lambda ds, basis, model: holdout_last_mspe_model(model, ds),
}
# (t, y, the error) of a three-observation subject with one bad row, on the domain [0, 1]
BAD_ROWS = {
    "nan-value": ([0.2, 0.5, 0.8], [1.0, np.nan, 0.5], "times and values must be finite"),
    "inf-value": ([0.2, 0.5, 0.8], [1.0, np.inf, 0.5], "times and values must be finite"),
    "nan-time": ([0.2, np.nan, 0.8], [1.0, 2.0, 0.5], "times and values must be finite"),
    "time-outside-domain": ([0.2, 0.5, 1.5], [1.0, 2.0, 0.5], r"a time lies outside domain \[0.0, 1.0\]"),
}


class TestDegenerateInputs:
    def test_single_subject_single_observation(self):
        basis = make_bspline_basis((0.0, 1.0), 5, 4)
        ds = validate_dataset([("a", 0.5, 3.0)], (0.0, 1.0))
        model = fit_soap(ds, basis, 1, 0.0)
        assert model.noise_var < 1e-20
        assert model.orthonormality_error() <= 1e-12

    def test_second_component_with_nothing_left_errors(self):
        # a single perfectly-fit subject leaves zero residual: the second
        # component's scores are identically zero and the step refuses
        basis = make_bspline_basis((0.0, 1.0), 5, 4)
        ds = validate_dataset(
            [("a", t, float(np.sin(t))) for t in (0.1, 0.4, 0.7, 0.9)], (0.0, 1.0)
        )
        with pytest.raises(SingularStepError, match="component 2.*zero"):
            fit_soap(ds, basis, 2, 0.0)

    def test_all_zero_responses_error_names_cause(self):
        basis = make_bspline_basis((0.0, 1.0), 5, 4)
        ds = validate_dataset([("a", 0.2, 0.0), ("b", 0.8, 0.0)], (0.0, 1.0))
        with pytest.raises(SingularStepError, match="iteration 1.*zero"):
            fit_first_fec(ds, basis, 0.0)

    def test_duplicate_times_handled(self):
        basis = make_bspline_basis((0.0, 1.0), 5, 4)
        ds = validate_dataset(
            [("a", 0.5, 1.0), ("a", 0.5, 2.0), ("a", 0.9, 1.5),
             ("b", 0.3, 1.0), ("b", 0.6, 0.5)],
            (0.0, 1.0),
        )
        model = fit_soap(ds, basis, 1, 1e-3)
        assert model.report.converged

    def test_extreme_data_scale(self):
        basis = make_bspline_basis((0.0, 1.0), 5, 4)
        rng = np.random.default_rng(0)
        rows = [
            (f"s{i}", float(t), float(1e8 * np.cos(np.pi * t) + 1e6 * rng.normal()))
            for i in range(20)
            for t in np.linspace(0.05, 0.95, 5)
        ]
        model = fit_soap(validate_dataset(rows, (0.0, 1.0)), basis, 2, 0.0)
        assert model.orthonormality_error() <= 1e-8
        assert np.all(np.isfinite(model.scores))

    @pytest.mark.parametrize("call", list(FIT_CALLS))
    def test_empty_subject_named(self, call):
        """A hand-built dataset with a subject that has no observations is
        rejected by name before any step divides by its size."""
        ds, basis, model = with_subject(Subject("zz", np.empty(0), np.empty(0)))
        with pytest.raises(ValueError, match="subject zz has no observations"):
            FIT_CALLS[call](ds, basis, model)

    @pytest.mark.parametrize("call", [*FIT_CALLS, "score_step"])
    def test_no_subjects_named(self, call):
        """A hand-built dataset without subjects is rejected by name where
        the rows are formed; LOCO-CV names its own minimum first."""
        basis = make_bspline_basis((0.0, 1.0), 8, 4)
        ds = LongitudinalDataset((0.0, 1.0), ())
        model = FecModel(basis, np.eye(basis.size)[:, :1], np.zeros((0, 1)), np.zeros(1), 0.0)
        message = "needs at least 2 subjects, got 0" if call == "loco_cv_gamma" else "^dataset has no subjects$"
        with pytest.raises(ValueError, match=message):
            ROW_CALLS[call](ds, basis, model)

    @pytest.mark.parametrize(
        "call, row", [(c, r) for c in ROW_CALLS for r in BAD_ROWS if c != "score_step" or r.endswith("-value")]
    )
    def test_bad_row_named(self, call, row):
        """A non-finite time or value, or a time outside the domain, is
        rejected with the subject's name by every entry point, before any
        step computes with it (an overflow there would raise a
        RuntimeWarning). ``score_step`` reads no times, so it gets the two
        value cases."""
        t, y, message = BAD_ROWS[row]
        ds, basis, model = with_subject(Subject("zz", np.array(t), np.array(y)))
        with pytest.raises(ValueError, match=f"subject zz: {message}"):
            ROW_CALLS[call](ds, basis, model)
