"""Feature-space solvers against independent minimizers and planted models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from robustmv import (
    CmvConfig,
    MultiViewFeatureSet,
    cauchymv_fit,
    cemv_fit,
    cmv_fit,
    instance_weight_profile,
    l2mv_fit,
    normalize_views,
)
from robustmv import features
from robustmv.datagen import NoiseSpec, corrupt_instances, gen_planted_multiview
from robustmv.losses import correntropy_kernel
from robustmv.trace import NumericalError
from robustmv.features import (
    cemv_objective,
    cemv_sigmas,
    cemv_update_a,
    cemv_update_w,
    cemv_update_x,
    cmv_objective,
    cmv_update_a,
    cmv_update_w,
    cmv_update_x,
)


def _random_fs(rng, view_dims, n):
    return MultiViewFeatureSet([rng.standard_normal((dv, n)) for dv in view_dims])


class TestNormalizeViews:
    def test_fixed_point(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((4, 10))
        z /= np.sqrt(np.sum(z * z) / 10)  # mean squared column norm = 1
        out = normalize_views(MultiViewFeatureSet([z]))
        np.testing.assert_allclose(out.views[0], z, rtol=1e-12)

    def test_hand_computed_scale(self):
        # Single column (2, 0): scale is ||z||^2 / 1 = 4.
        out = normalize_views(MultiViewFeatureSet([np.array([[2.0], [0.0]])]))
        np.testing.assert_allclose(out.views[0], [[0.5], [0.0]])

    def test_all_zero_view_rejected(self):
        with pytest.raises(ValueError, match="all zeros"):
            normalize_views(MultiViewFeatureSet([np.zeros((3, 5))]))

    def test_overflowing_scale_rejected(self):
        # The squared norm of a 1e200 entry overflows; no warning, one error.
        z = np.ones((3, 5))
        z[0, 0] = 1e200
        with pytest.raises(NumericalError, match="overflows"):
            normalize_views(MultiViewFeatureSet([z]))


class TestFeatureSetValidation:
    def test_instance_count_mismatch(self):
        with pytest.raises(ValueError, match="instance count"):
            MultiViewFeatureSet([np.zeros((2, 3)), np.zeros((2, 4))])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            MultiViewFeatureSet([np.array([[np.nan, 0.0]])])


class TestCmvUpdateA:
    def test_perfect_reconstruction(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 6))
        w = [rng.standard_normal((5, 3))]
        fs = MultiViewFeatureSet([w[0] @ x])
        a = cmv_update_a(fs, x, w, sigma=0.7)
        np.testing.assert_allclose(a, -1.0)

    def test_direct_formula(self):
        # residual norm^2 = 2 at sigma = 1 gives -exp(-1).
        fs = MultiViewFeatureSet([np.array([[1.0], [1.0]])])
        x = np.zeros((2, 1))
        w = [np.eye(2)]
        a = cmv_update_a(fs, x, w, sigma=1.0)
        np.testing.assert_allclose(a, -np.exp(-1.0), rtol=1e-12)

    def test_limit_behavior_and_range(self):
        sigma = 0.3
        fs = MultiViewFeatureSet([np.array([[np.sqrt(100.0) * sigma], [0.0]])])
        a = cmv_update_a(fs, np.zeros((2, 1)), [np.eye(2)], sigma)
        assert -1e-6 < a[0, 0] < 0


class TestSharedKernelWeights:
    """The A-updates are minus the shared correntropy kernel of the residual."""

    @staticmethod
    def _case(seed, log_scale, view_dims=(4, 2), n=7, d=2):
        # Residuals spread over many kernel sizes, far enough out that some
        # kernels underflow to the weight floor.
        rng = np.random.default_rng(seed)
        fs = MultiViewFeatureSet(
            [rng.standard_normal((dv, n)) * 10.0**log_scale for dv in view_dims]
        )
        x = rng.standard_normal((d, n))
        w = [rng.standard_normal((dv, d)) for dv in view_dims]
        return fs, x, w, [z - wv @ x for z, wv in zip(fs.views, w)]

    @staticmethod
    def _check(a, e, sigma):
        a = np.asarray(a)
        assert np.all(a >= -1.0) and np.all(a < 0.0)
        kern = correntropy_kernel(e, sigma)
        np.testing.assert_allclose(-a, np.maximum(kern, np.finfo(float).tiny), rtol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-2.0, 2.0), st.floats(0.05, 5.0))
    def test_cmv_weights(self, seed, log_scale, sigma):
        fs, x, w, res = self._case(seed, log_scale)
        a = cmv_update_a(fs, x, w, sigma)
        for v, r in enumerate(res):
            self._check(a[v], np.linalg.norm(r, axis=0), sigma)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-2.0, 2.0), st.floats(0.05, 5.0))
    def test_cemv_weights(self, seed, log_scale, sigma):
        fs, x, w, res = self._case(seed, log_scale)
        sigmas = [sigma, 2.0 * sigma]
        for av, r, s in zip(cemv_update_a(fs, x, w, sigmas), res, sigmas):
            self._check(av, r, s)


class TestCmvUpdateX:
    def test_identity_map_recovery(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((4, 7))
        fs = MultiViewFeatureSet([z])
        a = -np.ones((1, 7))
        x = cmv_update_x(fs, [np.eye(4)], a, c2=1e-9)
        assert np.max(np.linalg.norm(x - z, axis=0)) <= 1e-6

    def test_zero_data_gives_zero(self):
        fs = MultiViewFeatureSet([np.zeros((3, 4)), np.zeros((5, 4))])
        rng = np.random.default_rng(3)
        w = [rng.standard_normal((3, 2)), rng.standard_normal((5, 2))]
        x = cmv_update_x(fs, w, -np.ones((2, 4)), c2=0.1)
        np.testing.assert_allclose(x, 0.0)

    def test_matches_numerical_minimizer(self):
        rng = np.random.default_rng(4)
        fs = _random_fs(rng, [4, 4], 1)
        w = [rng.standard_normal((4, 3)) for _ in range(2)]
        a = -rng.uniform(0.1, 1.0, size=(2, 1))
        c2 = 0.05
        x = cmv_update_x(fs, w, a, c2)

        def objective(xv):
            r = sum(
                -a[v, 0] * np.sum((fs.views[v][:, 0] - w[v] @ xv) ** 2)
                for v in range(2)
            )
            return r + c2 * np.sum(xv**2)

        res = minimize(objective, np.zeros(3), method="BFGS", tol=1e-14)
        np.testing.assert_allclose(x[:, 0], res.x, rtol=1e-5, atol=1e-8)


class TestCmvUpdateW:
    def test_zero_latent_gives_zero_maps(self):
        rng = np.random.default_rng(5)
        fs = _random_fs(rng, [3], 5)
        w = cmv_update_w(fs, np.zeros((2, 5)), -np.ones((1, 5)), c1=0.1)
        np.testing.assert_allclose(w[0], 0.0)

    def test_plant_and_recover(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 20))
        w_true = rng.standard_normal((5, 3))
        fs = MultiViewFeatureSet([w_true @ x])
        w = cmv_update_w(fs, x, -np.ones((1, 20)), c1=1e-9)
        np.testing.assert_allclose(w[0], w_true, rtol=1e-5, atol=1e-7)

    def test_matches_numerical_minimizer(self):
        rng = np.random.default_rng(7)
        fs = _random_fs(rng, [4], 3)
        x = rng.standard_normal((2, 3))
        a = -rng.uniform(0.2, 1.0, size=(1, 3))
        c1 = 0.3
        w = cmv_update_w(fs, x, a, c1)

        def objective(wflat):
            wm = wflat.reshape(4, 2)
            r = np.sum(-a[0] * np.sum((fs.views[0] - wm @ x) ** 2, axis=0))
            return r + c1 * np.sum(wm**2)

        res = minimize(objective, np.zeros(8), method="BFGS", tol=1e-14)
        np.testing.assert_allclose(w[0].ravel(), res.x, rtol=1e-5, atol=1e-8)


class TestCmvObjective:
    def test_equals_plain_correntropy_form_at_optimal_weights(self):
        rng = np.random.default_rng(8)
        fs = _random_fs(rng, [4, 3], 6)
        cfg = CmvConfig(latent_dim=2, sigma=0.8, c1=0.2, c2=0.1)
        x = rng.standard_normal((2, 6))
        w = [rng.standard_normal((dv, 2)) for dv in (4, 3)]
        a = cmv_update_a(fs, x, w, cfg.sigma)
        res2 = np.stack(
            [np.sum((fs.views[v] - w[v] @ x) ** 2, axis=0) for v in range(2)]
        )
        two_s2 = 2 * cfg.sigma**2
        r2 = (
            np.sum(np.exp(-res2 / two_s2))
            - (cfg.c1 * sum(np.sum(m * m) for m in w) + cfg.c2 * np.sum(x * x)) / two_s2
        )
        assert cmv_objective(fs, x, w, a, cfg) == pytest.approx(r2, abs=1e-10)

    def test_zero_everything(self):
        fs = MultiViewFeatureSet([np.zeros((3, 4)), np.zeros((2, 4))])
        cfg = CmvConfig(latent_dim=2, sigma=1.0)
        val = cmv_objective(
            fs, np.zeros((2, 4)), [np.zeros((3, 2)), np.zeros((2, 2))],
            -np.ones((2, 4)), cfg,
        )
        assert val == pytest.approx(2 * 4)  # M*N, no penalties, -g(-1) = 1

    def test_bounded_by_mn(self):
        rng = np.random.default_rng(9)
        fs = _random_fs(rng, [3, 5], 7)
        cfg = CmvConfig(latent_dim=2, sigma=0.6)
        for _ in range(20):
            x = rng.standard_normal((2, 7))
            w = [rng.standard_normal((dv, 2)) for dv in (3, 5)]
            a = -rng.uniform(1e-3, 1.0, size=(2, 7))
            assert cmv_objective(fs, x, w, a, cfg) <= 2 * 7 + 1e-12


class TestCmvFit:
    def test_planted_recovery(self):
        fs, _, _ = gen_planted_multiview(30, 3, [6, 5], seed=10)
        fs = normalize_views(fs)
        cfg = CmvConfig(latent_dim=3, sigma=1.0, c1=1e-6, c2=1e-6, max_outer=30)
        model = cmv_fit(fs, cfg)
        res = [
            np.mean(np.linalg.norm(fs.views[v] - model.W[v] @ model.X, axis=0))
            for v in range(2)
        ]
        assert max(res) <= 1e-3

    def test_monotone_bounded_trace(self):
        rng = np.random.default_rng(11)
        fs = normalize_views(_random_fs(rng, [5, 4], 20))
        cfg = CmvConfig(latent_dim=2, sigma=0.5, max_outer=15)
        model = cmv_fit(fs, cfg)
        obj = np.array(model.trace.objective)
        assert np.all(np.diff(obj) >= -1e-10)
        assert np.all(obj <= 2 * 20 + 1e-12)
        assert model.trace.iterations_run == len(obj)

    def test_weight_range(self):
        rng = np.random.default_rng(12)
        fs = normalize_views(_random_fs(rng, [4, 4], 12))
        model = cmv_fit(fs, CmvConfig(latent_dim=2, max_outer=5))
        assert np.all(model.A >= -1.0)
        assert np.all(model.A < 0.0)

    def test_identical_views_match_single_view_double_weight(self):
        rng = np.random.default_rng(13)
        z = rng.standard_normal((4, 9))
        z /= np.sum(z * z) / 9
        both = MultiViewFeatureSet([z, z.copy()])
        single = MultiViewFeatureSet([z])
        cfg2 = CmvConfig(latent_dim=2, sigma=0.7, c1=0.1, c2=0.1, max_outer=6, rel_tol=0.0)
        cfg1 = CmvConfig(latent_dim=2, sigma=0.7, c1=0.1, c2=0.05, max_outer=6, rel_tol=0.0)
        m2 = cmv_fit(both, cfg2)
        m1 = cmv_fit(single, cfg1)
        np.testing.assert_allclose(m2.X, m1.X, atol=1e-8)
        np.testing.assert_allclose(m2.A[0], m2.A[1], atol=1e-12)

    def test_noisy_instances_get_smaller_weights(self):
        from robustmv.datagen import gen_labeled_multiview

        # Generator output is already normalized; corruption lands on top so
        # the noisy values keep their true scale relative to the kernel.
        _, fs = gen_labeled_multiview(classes=5, per_class=16, seed=14)
        spec = NoiseSpec(kind="instance_replacement", fraction=0.25, seed=14)
        noisy_fs, noisy_idx = corrupt_instances(fs, 0, spec)
        model = cmv_fit(noisy_fs, CmvConfig(latent_dim=6, sigma=0.5, max_outer=20))
        mags = instance_weight_profile(model)[0]
        clean = np.setdiff1d(np.arange(fs.n_instances), noisy_idx)
        assert mags[clean].mean() > mags[noisy_idx].mean()

    def test_collapsed_fit_is_not_converged(self):
        # The uci-noise-2 view1 baseline at seed 0, magnitude 3, fraction
        # 0.25: every residual is far beyond sigma, every weight underflows
        # and X ends exactly zero, which is a degenerate fit, not a converged one.
        from robustmv.datagen import corrupt_pixels, gen_labeled_multiview
        from robustmv.recipes import fit_feature_method

        _, fs = gen_labeled_multiview(
            classes=10, per_class=20, view_dims=(64, 8), latent_dim=8, scatter=0.8, seed=0
        )
        spec = NoiseSpec(kind="pixel_replacement", fraction=0.25, magnitude=3.0, seed=31000)
        noisy, _ = corrupt_pixels(fs, 0, spec)
        cfg = CmvConfig(latent_dim=10, sigma=0.5, c1=1e-3, c2=1e-3, max_outer=25, max_inner=3)
        model = fit_feature_method("view1", noisy, cfg)
        assert not np.any(model.X)
        assert model.trace.reason == "latent matrix collapsed to zero"
        assert not model.trace.converged
        assert model.trace.iterations_run == len(model.trace.objective) == 2

    def test_latent_dim_must_be_small(self):
        fs = MultiViewFeatureSet([np.ones((3, 4))])
        with pytest.raises(ValueError, match="latent_dim"):
            cmv_fit(fs, CmvConfig(latent_dim=4))

    def test_permuting_instances_permutes_latents(self):
        rng = np.random.default_rng(15)
        fs = normalize_views(_random_fs(rng, [4, 3], 10))
        perm = rng.permutation(10)
        fs_perm = MultiViewFeatureSet([z[:, perm] for z in fs.views])
        cfg = CmvConfig(latent_dim=2, max_outer=3, rel_tol=0.0)
        m = cmv_fit(fs, cfg)
        mp = cmv_fit(fs_perm, cfg)
        np.testing.assert_allclose(mp.X, m.X[:, perm], atol=1e-8)
        for w, wp in zip(m.W, mp.W):
            np.testing.assert_allclose(wp, w, atol=1e-8)


class TestCemv:
    def test_perfect_reconstruction_weights(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 5))
        w = [rng.standard_normal((4, 2))]
        fs = MultiViewFeatureSet([w[0] @ x])
        a = cemv_update_a(fs, x, w, [0.3])
        np.testing.assert_allclose(a[0], -1.0)

    def test_corrupted_entry_downweighted(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, 5))
        w = [rng.standard_normal((4, 2))]
        z = w[0] @ x
        z[2, 3] += 5.0
        fs = MultiViewFeatureSet([z])
        a = cemv_update_a(fs, x, w, [0.5])
        assert abs(a[0][2, 3]) < np.abs(np.delete(a[0][:, 3], 2)).min()

    def test_x_update_matches_numerical_minimizer(self):
        rng = np.random.default_rng(18)
        fs = _random_fs(rng, [4, 2], 1)
        w = [rng.standard_normal((4, 3)), rng.standard_normal((2, 3))]
        a = [-rng.uniform(0.1, 1.0, size=(4, 1)), -rng.uniform(0.1, 1.0, size=(2, 1))]
        c2 = 0.07
        x = cemv_update_x(fs, w, a, c2)

        def objective(xv):
            total = 0.0
            for v, dv in enumerate((4, 2)):
                r = fs.views[v][:, 0] - w[v] @ xv
                total += np.sum(-a[v][:, 0] * r * r) / dv
            return total + c2 * np.sum(xv**2)

        res = minimize(objective, np.zeros(3), method="BFGS", tol=1e-14)
        np.testing.assert_allclose(x[:, 0], res.x, rtol=1e-5, atol=1e-8)

    def test_w_update_matches_numerical_minimizer(self):
        rng = np.random.default_rng(19)
        fs = _random_fs(rng, [3], 4)
        x = rng.standard_normal((2, 4))
        a = [-rng.uniform(0.1, 1.0, size=(3, 4))]
        c1 = 0.2
        w = cemv_update_w(fs, x, a, c1)

        j = 1  # any row; rows are independent

        def objective(wrow):
            r = fs.views[0][j] - wrow @ x
            return np.sum(-a[0][j] * r * r) + c1 * np.sum(wrow**2)

        res = minimize(objective, np.zeros(2), method="BFGS", tol=1e-14)
        np.testing.assert_allclose(w[0][j], res.x, rtol=1e-5, atol=1e-8)

    def test_scalar_views_degrade_to_cmv(self):
        # With every d_v = 1 the entrywise updates coincide with the
        # per-instance ones.  A 1-D latent keeps the alternation free of the
        # rotation gauge, so the two identical computations stay together for
        # a full run; with d >= 2 rounding noise drifts along the gauge orbit,
        # so the d=2 check runs short.
        rng = np.random.default_rng(20)
        x1 = rng.standard_normal((1, 8))
        fs1 = normalize_views(
            MultiViewFeatureSet([rng.standard_normal((1, 1)) @ x1 for _ in range(4)])
        )
        cfg1 = CmvConfig(latent_dim=1, sigma=1.0, c1=1e-2, c2=1e-2, max_outer=10, rel_tol=0.0)
        np.testing.assert_allclose(cemv_fit(fs1, cfg1).X, cmv_fit(fs1, cfg1).X, atol=1e-8)

        x2 = rng.standard_normal((2, 8))
        fs2 = normalize_views(
            MultiViewFeatureSet([rng.standard_normal((1, 2)) @ x2 for _ in range(4)])
        )
        cfg2 = CmvConfig(
            latent_dim=2, sigma=1.0, c1=1e-2, c2=1e-2, max_outer=2, max_inner=1, rel_tol=0.0
        )
        np.testing.assert_allclose(cemv_fit(fs2, cfg2).X, cmv_fit(fs2, cfg2).X, atol=1e-8)

    def test_planted_recovery(self):
        fs, _, _ = gen_planted_multiview(25, 3, [5, 4], seed=21)
        fs = normalize_views(fs)
        cfg = CmvConfig(latent_dim=3, sigma=1.0, c1=1e-6, c2=1e-6, max_outer=30)
        model = cemv_fit(fs, cfg)
        res = [
            np.mean(np.abs(fs.views[v] - model.W[v] @ model.X)) for v in range(2)
        ]
        assert max(res) <= 1e-3

    def test_monotone_bounded_trace(self):
        rng = np.random.default_rng(22)
        fs = normalize_views(_random_fs(rng, [4, 6], 15))
        cfg = CmvConfig(latent_dim=2, sigma=0.5, max_outer=12)
        model = cemv_fit(fs, cfg)
        obj = np.array(model.trace.objective)
        assert np.all(np.diff(obj) >= -1e-10)
        assert np.all(obj <= 2 * 15 + 1e-12)

    def test_noisy_pixels_get_smaller_weights(self):
        from robustmv.datagen import NoiseSpec, corrupt_pixels, gen_labeled_multiview

        _, fs = gen_labeled_multiview(classes=5, per_class=12, view_dims=(24, 12), seed=29)
        spec = NoiseSpec(kind="pixel_replacement", fraction=0.5, magnitude=3.0, seed=29)
        noisy, mask = corrupt_pixels(fs, 0, spec)
        model = cemv_fit(noisy, CmvConfig(latent_dim=6, sigma=0.5, max_outer=15, seed=29))
        mags = np.abs(np.asarray(model.A[0]))
        assert mags[mask].mean() < mags[~mask].mean()

    def test_objective_consistent_with_update_blocks(self):
        # One full sweep from a random state must not decrease the surrogate.
        rng = np.random.default_rng(23)
        fs = normalize_views(_random_fs(rng, [3, 5], 9))
        cfg = CmvConfig(latent_dim=2, sigma=0.4, c1=0.05, c2=0.05)
        sigmas = cemv_sigmas(fs, cfg)
        x = rng.standard_normal((2, 9))
        w = [rng.standard_normal((dv, 2)) for dv in (3, 5)]
        a = cemv_update_a(fs, x, w, sigmas)
        before = cemv_objective(fs, x, w, a, cfg)
        x2 = cemv_update_x(fs, w, a, cfg.c2)
        mid = cemv_objective(fs, x2, w, a, cfg)
        w2 = cemv_update_w(fs, x2, a, cfg.c1)
        after = cemv_objective(fs, x2, w2, a, cfg)
        assert before <= mid + 1e-10
        assert mid <= after + 1e-10


class TestBaselines:
    def test_l2mv_weights_are_exactly_minus_one(self):
        rng = np.random.default_rng(24)
        fs = normalize_views(_random_fs(rng, [3, 4], 10))
        model = l2mv_fit(fs, CmvConfig(latent_dim=2, max_outer=5))
        assert np.all(model.A == -1.0)

    def test_l2mv_equals_cmv_at_huge_sigma(self):
        fs, _, _ = gen_planted_multiview(8, 2, [4, 3], seed=25)
        fs = normalize_views(fs)
        base = CmvConfig(latent_dim=2, sigma=1e6, c1=0.1, c2=0.1, max_outer=3, rel_tol=0.0)
        m_cmv = cmv_fit(fs, base)
        m_l2 = l2mv_fit(fs, base)
        assert np.max(np.abs(m_cmv.X - m_l2.X)) <= 1e-6

    def test_l2mv_objective_non_increasing(self):
        rng = np.random.default_rng(26)
        fs = normalize_views(_random_fs(rng, [5, 2], 12))
        model = l2mv_fit(fs, CmvConfig(latent_dim=2, max_outer=10))
        assert np.all(np.diff(model.trace.objective) <= 1e-10)

    def test_cauchy_weight_formula(self):
        rng = np.random.default_rng(27)
        c = 0.8
        z = np.zeros((2, 1))
        z[0, 0] = c  # residual^2 = c^2 against x = 0
        fs = MultiViewFeatureSet([z])
        cfg = CmvConfig(latent_dim=2, sigma=c)
        from robustmv.features import _cauchy_update_a

        a = _cauchy_update_a(fs, np.zeros((2, 1)), [np.eye(2)], cfg)
        np.testing.assert_allclose(a, -0.5, rtol=1e-12)

    def test_cauchy_weights_near_correntropy_for_small_residuals(self):
        # 2 sigma^2 = c^2 matches the kernels' quadratic terms.
        c = 1.0
        sigma = c / np.sqrt(2.0)
        res = np.linspace(0, 0.1 * c, 20)
        w_cauchy = 1.0 / (1.0 + (res / c) ** 2)
        w_corr = np.exp(-(res**2) / (2 * sigma**2))
        assert np.all(np.abs(w_cauchy - w_corr) <= (res / c) ** 4 + 1e-15)

    def test_cauchy_objective_non_increasing(self):
        rng = np.random.default_rng(28)
        fs = normalize_views(_random_fs(rng, [4, 4], 10))
        model = cauchymv_fit(fs, CmvConfig(latent_dim=2, sigma=0.5, max_outer=10))
        assert np.all(np.diff(model.trace.objective) <= 1e-10)

    def test_l2mv_accuracy_suffers_under_instance_noise(self):
        # Replacing a quarter of view-1 instances hurts the least-squares
        # baseline more than the bounded-loss solver, in the median.
        from robustmv.datagen import NoiseSpec, corrupt_instances, gen_labeled_multiview
        from robustmv.evaluation import knn_classify, seeded_split

        diffs = {"cmv": [], "l2mv": []}
        for seed in range(10):
            labels, fs = gen_labeled_multiview(
                classes=8, per_class=15, view_dims=(32, 16), latent_dim=6, seed=seed
            )
            spec = NoiseSpec(kind="instance_replacement", fraction=0.25, seed=seed + 31)
            noisy, _ = corrupt_instances(fs, 0, spec)
            split = seeded_split(labels, 0.5, seed=seed)
            cfg = CmvConfig(latent_dim=8, sigma=0.5, max_outer=15, max_inner=3, seed=seed)
            for name, fit in (("cmv", cmv_fit), ("l2mv", l2mv_fit)):
                model = fit(noisy, cfg)
                _, acc = knn_classify(split, features=model.X.T, k=1)
                diffs[name].append(acc)
        assert np.median(diffs["l2mv"]) <= np.median(diffs["cmv"])


def _loop_cmv_x(fs, W, a, c2):
    p = -a
    X = np.empty((W[0].shape[1], fs.n_instances))
    for i in range(fs.n_instances):
        lhs = c2 * np.eye(X.shape[0])
        rhs = np.zeros(X.shape[0])
        for v, (wv, zv) in enumerate(zip(W, fs.views)):
            lhs += p[v, i] * wv.T @ wv
            rhs += p[v, i] * wv.T @ zv[:, i]
        X[:, i] = np.linalg.solve(lhs, rhs)
    return X


def _loop_cemv_x(fs, W, a, c2):
    X = np.empty((W[0].shape[1], fs.n_instances))
    for i in range(fs.n_instances):
        lhs = c2 * np.eye(X.shape[0])
        rhs = np.zeros(X.shape[0])
        for wv, av, zv in zip(W, a, fs.views):
            p = -av[:, i] / wv.shape[0]
            lhs += wv.T @ (p[:, None] * wv)
            rhs += wv.T @ (p * zv[:, i])
        X[:, i] = np.linalg.solve(lhs, rhs)
    return X


def _loop_cmv_w(fs, X, a, c1):
    W = []
    for v, zv in enumerate(fs.views):
        p = -a[v]
        lhs = (X * p) @ X.T + c1 * np.eye(X.shape[0])
        W.append(np.linalg.solve(lhs, X @ (p * zv).T).T)
    return W


def _loop_cemv_w(fs, X, a, c1):
    W = []
    for av, zv in zip(a, fs.views):
        rows = []
        for j in range(zv.shape[0]):
            p = -av[j]
            lhs = (X * p) @ X.T + c1 * np.eye(X.shape[0])
            rows.append(np.linalg.solve(lhs, X @ (p * zv[j])))
        W.append(np.array(rows))
    return W


def _rel_err(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def _ridge_problem(seed, view_dims, n, d):
    rng = np.random.default_rng(seed)
    fs = _random_fs(rng, view_dims, n)
    W = [rng.standard_normal((dv, d)) for dv in view_dims]
    X = rng.standard_normal((d, n))
    # U[0, 1) - 1 lies in [-1, 0), the range of every solver weight.
    a_inst = rng.uniform(0.0, 1.0, size=(len(view_dims), n)) - 1.0
    a_entry = [rng.uniform(0.0, 1.0, size=(dv, n)) - 1.0 for dv in view_dims]
    return fs, W, X, a_inst, a_entry


class TestBatchedRidge:
    """The stacked solves against a per-instance / per-row reference loop."""

    @pytest.mark.parametrize(
        "view_dims,n,d",
        [
            ([7, 3], 60, 4),  # uneven views
            ([5], 6, 5),  # single view, latent_dim = N - 1
            ([1, 3], 8, 2),  # d_v = 1
            ([1], 5, 4),  # single scalar view, latent_dim = N - 1
            ([3, 7], 60, 4),  # wider view second: the first view's columns are padded
            ([2, 9, 5], 40, 3),  # three views, three widths in one W-stack
        ],
    )
    def test_matches_reference_loop(self, view_dims, n, d):
        fs, W, X, a_inst, a_entry = _ridge_problem(40, view_dims, n, d)
        c1, c2 = 1e-3, 1e-3
        assert _rel_err(cmv_update_x(fs, W, a_inst, c2), _loop_cmv_x(fs, W, a_inst, c2)) <= 1e-12
        assert (
            _rel_err(cemv_update_x(fs, W, a_entry, c2), _loop_cemv_x(fs, W, a_entry, c2))
            <= 1e-12
        )
        for got, ref in (
            (cmv_update_w(fs, X, a_inst, c1), _loop_cmv_w(fs, X, a_inst, c1)),
            (cemv_update_w(fs, X, a_entry, c1), _loop_cemv_w(fs, X, a_entry, c1)),
        ):
            for gv, rv in zip(got, ref):
                assert gv.shape == rv.shape
                assert _rel_err(gv, rv) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_weight_raises(self, bad):
        fs, W, X, a_inst, a_entry = _ridge_problem(41, [7, 3], 50, 4)
        a_inst[1, 17] = bad
        a_entry[0][2, 17] = bad
        # Zeros where the bad weights sit: inf * 0 is NaN in any product formed
        # before the weights are checked.
        for z in fs.views:
            z[:, 17] = 0.0
        X[:, 17] = 0.0
        with pytest.raises(NumericalError):
            cmv_update_x(fs, W, a_inst, 1e-3)
        with pytest.raises(NumericalError):
            cmv_update_w(fs, X, a_inst, 1e-3)
        with pytest.raises(NumericalError):
            cemv_update_x(fs, W, a_entry, 1e-3)
        with pytest.raises(NumericalError):
            cemv_update_w(fs, X, a_entry, 1e-3)

    def test_indefinite_system_fails_loudly(self):
        # Positive weights make the ridge systems indefinite; the batched
        # Cholesky must refuse them rather than return a solution.
        fs, W, X, a_inst, a_entry = _ridge_problem(42, [7, 3], 50, 4)
        with pytest.raises(np.linalg.LinAlgError):
            cmv_update_x(fs, W, -10.0 * a_inst, 1e-3)
        with pytest.raises(np.linalg.LinAlgError):
            cmv_update_w(fs, X, -10.0 * a_inst, 1e-3)
        with pytest.raises(np.linalg.LinAlgError):
            cemv_update_w(fs, X, [-10.0 * av for av in a_entry], 1e-3)

    def test_one_cho_factor_per_stack(self, monkeypatch):
        # Every stack is factored once, through the module's ``cho_factor``, so
        # wrapping that name counts the feature path's factorizations.
        shapes = []

        def counted(lhs):
            shapes.append(lhs.shape)
            return np.linalg.cholesky(lhs)

        monkeypatch.setattr(features, "cho_factor", counted)
        fs, W, X, a_inst, a_entry = _ridge_problem(44, [7, 3], 50, 4)
        cmv_update_x(fs, W, a_inst, 1e-3)
        cemv_update_w(fs, X, a_entry, 1e-3)
        # One x-stack, then one W-stack holding both views' systems.
        assert shapes == [(50, 4, 4), (10, 4, 4)]
        cmv_update_w(fs, X, a_inst, 1e-3)
        assert shapes[-1] == (2, 4, 4)
        lhs = np.stack([np.eye(3), -np.eye(3)])
        with pytest.raises(np.linalg.LinAlgError):
            features._solve_spd_stack(lhs, np.ones((2, 3, 1)))
        assert len(shapes) == 4

    def test_fit_factor_count_independent_of_views(self, monkeypatch):
        # The initial x-update, then one x- and one W-stack per inner
        # iteration: 1 + 2 * max_outer * max_inner stacks for any view count.
        calls = []

        def counted(lhs):
            calls.append(lhs.shape)
            return np.linalg.cholesky(lhs)

        monkeypatch.setattr(features, "cho_factor", counted)
        fs = normalize_views(_random_fs(np.random.default_rng(48), [4, 6, 2], 30))
        model = cmv_fit(fs, CmvConfig(latent_dim=3, max_outer=2, max_inner=1, rel_tol=0.0))
        assert len(model.trace.objective) == 2
        assert len(calls) == 1 + 2 * 2
        assert calls[2] == (3, 3, 3)  # the first W-stack: one system per view

    @pytest.mark.parametrize(
        "n,d,m",
        [
            (400, 10, 1),  # x-update of a desk-scale fit
            (1, 10, 64),  # W-update, instance weights: one system, d_v columns
            (64, 10, 1),  # W-update, entry weights: one system per map row
            (30, 1, 1),  # d = 1
            (12, 11, 1),  # x-update at latent_dim = N - 1
            (1, 11, 5),  # W-update at latent_dim = N - 1
        ],
    )
    def test_solve_matches_lu(self, n, d, m):
        rng = np.random.default_rng(45)
        g = rng.standard_normal((n, d, d + 2))
        lhs = g @ g.transpose(0, 2, 1) + 1e-3 * np.eye(d)
        rhs = rng.standard_normal((n, d, m))
        got = features._solve_spd_stack(lhs, rhs)
        assert got.shape == (n, d, m)
        assert _rel_err(got, np.linalg.solve(lhs, rhs)) <= 1e-12

    def test_padded_columns_solve_to_zero(self):
        # A W-stack pads narrower views' right-hand sides with zero columns;
        # substitution keeps them exactly zero, so slicing them off loses nothing.
        rng = np.random.default_rng(49)
        n, d, m = 2, 10, 64
        g = rng.standard_normal((n, d, d + 2))
        lhs = g @ g.transpose(0, 2, 1) + 1e-3 * np.eye(d)
        rhs = rng.standard_normal((n, d, m))
        rhs[..., 32:] = 0.0
        got = features._solve_spd_stack(lhs, rhs)
        assert np.all(got[..., 32:] == 0.0)
        assert _rel_err(got[..., :32], np.linalg.solve(lhs, rhs[..., :32])) <= 1e-12

    def test_solve_backward_stable_when_ill_conditioned(self):
        # Rank-3 Grams of norm about 1e8 plus c = 1e-3: condition near 1e11,
        # so no two solvers agree to 1e-12, but each system's residual must be
        # at rounding level relative to ||lhs|| ||x||.
        rng = np.random.default_rng(46)
        n, d, m = 50, 10, 3
        g = 1e4 * rng.standard_normal((n, d, 3)) / np.sqrt(3 * d)
        lhs = g @ g.transpose(0, 2, 1) + 1e-3 * np.eye(d)
        rhs = rng.standard_normal((n, d, m))
        x = features._solve_spd_stack(lhs, rhs)
        norm_lhs = np.linalg.norm(lhs, ord=2, axis=(1, 2))
        assert np.median(norm_lhs) > 1e7 and np.linalg.cond(lhs).min() > 1e9
        residual = np.linalg.norm(lhs @ x - rhs, axis=1)  # (n, m), one per system
        assert np.all(residual <= 1e-12 * norm_lhs[:, None] * np.linalg.norm(x, axis=1))

    @pytest.mark.parametrize("fit", [cmv_fit, cemv_fit, l2mv_fit, cauchymv_fit])
    def test_fits_run_without_lu(self, fit, monkeypatch):
        # The Cholesky factor solves every system; no LU solve is left.
        def no_lu(*args, **kwargs):
            raise AssertionError("np.linalg.solve called on the feature path")

        monkeypatch.setattr(np.linalg, "solve", no_lu)
        fs = normalize_views(_random_fs(np.random.default_rng(47), [5, 3], 30))
        model = fit(fs, CmvConfig(latent_dim=3, max_outer=3, max_inner=2))
        assert np.all(np.isfinite(model.X))

    @pytest.mark.parametrize("fit", [cmv_fit, cemv_fit, l2mv_fit, cauchymv_fit])
    @pytest.mark.parametrize("view_dims", [[1], [4], [1, 3]])
    def test_degenerate_fits_run(self, fit, view_dims):
        rng = np.random.default_rng(43)
        fs = normalize_views(_random_fs(rng, view_dims, 6))
        model = fit(fs, CmvConfig(latent_dim=5, max_outer=4))  # latent_dim = N - 1
        assert model.X.shape == (5, 6)
        assert all(np.all(np.isfinite(wv)) for wv in model.W)
        assert np.all(np.isfinite(model.X))
