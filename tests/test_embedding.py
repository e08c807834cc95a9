"""Embedding solvers against planted configurations and finite differences."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustmv import (
    DissimilarityViews,
    EmbedConfig,
    b_to_d,
    cmds,
    cmvree_gradient,
    double_center,
    f0_objective,
    f_objective,
    hadamard_combine,
    median_kernel_size,
    mvree_subgradient,
    psd_project,
    ree_fit,
)
from robustmv.losses import correntropy_kernel


def _sq_dists(points):
    diff = points[:, None, :] - points[None, :, :]
    return np.sum(diff * diff, axis=2)


def _random_views(rng, n, m=2, scale=3.0):
    deltas = []
    for _ in range(m):
        pts = rng.uniform(0, scale, size=(n, 3))
        d = _sq_dists(pts)
        deltas.append(d)
    return DissimilarityViews(deltas)


def _pair_objective_l1(views, b):
    # Independent evaluation over unordered pairs; D rebuilt from scratch.
    n = b.shape[0]
    total = 0.0
    for delta in views.deltas:
        for i in range(n):
            for j in range(i + 1, n):
                d_ij = b[i, i] + b[j, j] - b[i, j] - b[j, i]
                total += abs(delta[i, j] - d_ij)
    return total


def _pair_objective_corr(views, b, sigma, alpha):
    n = b.shape[0]
    lam = 1.0 / (2.0 * sigma**alpha)
    total = 0.0
    for delta in views.deltas:
        for i in range(n):
            for j in range(i + 1, n):
                d_ij = b[i, i] + b[j, j] - b[i, j] - b[j, i]
                total += np.exp(-lam * abs(delta[i, j] - d_ij) ** alpha)
    return total


def _recipe_runs(loss):
    """A point-set and a cluster-retrieval instance at the recipes' settings."""
    from robustmv.datagen import gen_cluster_retrieval_views, gen_point_set_views

    _, points = gen_point_set_views(
        seed=3, box=4.5, view1_points=(0, 1, 2, 3), view2_points=(23, 24),
        magnitude=10.0, noise_on="squared",
    )
    _, raw = gen_cluster_retrieval_views(
        classes=9, per_class=11, corrupt_per_view=10, magnitude=10.0, seed=3
    )
    clusters = DissimilarityViews([d / median_kernel_size(raw) for d in raw.deltas])
    corr = loss == "correntropy"
    return [
        (points, EmbedConfig(
            target_dim=2, sigma=3.0, step=0.1 if corr else 0.05, max_iter=500
        )),
        (clusters, EmbedConfig(
            target_dim=8, sigma=median_kernel_size(clusters), step=0.01 if corr else 0.02,
            max_iter=400,
        )),
    ]


def _eigh_clip(b):
    # Reference projection: full eigendecomposition, negatives clipped.
    w, v = np.linalg.eigh(b)
    out = (v * np.maximum(w, 0.0)) @ v.T
    return (out + out.T) / 2.0


def _fd_gradient(fun, b, h=1e-6):
    g = np.zeros_like(b)
    for i in range(b.shape[0]):
        for j in range(b.shape[1]):
            bp, bm = b.copy(), b.copy()
            bp[i, j] += h
            bm[i, j] -= h
            g[i, j] = (fun(bp) - fun(bm)) / (2 * h)
    return g


class TestGramDistance:
    def test_zero_and_identity(self):
        np.testing.assert_allclose(b_to_d(np.zeros((3, 3))), 0.0)
        np.testing.assert_allclose(b_to_d(np.eye(2)), [[0.0, 2.0], [2.0, 0.0]])

    def test_matches_pairwise_distances(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10, 3))
        d = b_to_d(x @ x.T)
        np.testing.assert_allclose(d, _sq_dists(x), atol=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            b_to_d(np.array([[0.0, 1.0], [2.0, 0.0]]))


class TestDoubleCenter:
    def test_zero(self):
        np.testing.assert_allclose(double_center(np.zeros((4, 4))), 0.0)

    def test_recovers_gram_of_centered_points(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 3))
        x -= x.mean(axis=0)
        b0 = double_center(_sq_dists(x))
        np.testing.assert_allclose(b0, x @ x.T, atol=1e-10)

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(3)
        d = _sq_dists(rng.uniform(0, 5, size=(6, 2)))
        b0 = double_center(d)
        np.testing.assert_allclose(b0.sum(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(b0.sum(axis=1), 0.0, atol=1e-10)


class TestCmds:
    def test_exact_on_squared_edm(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((20, 3))
        delta = _sq_dists(x)
        res = cmds(delta, 3)
        np.testing.assert_allclose(b_to_d(res.gram), delta, atol=1e-8)
        np.testing.assert_allclose(_sq_dists(res.configuration), delta, atol=1e-8)

    def test_single_point(self):
        res = cmds(np.zeros((1, 1)), 1)
        np.testing.assert_allclose(res.configuration, 0.0)

    def test_full_dimension_returns_everything(self):
        # At target_dim = N the configuration holds every column and rebuilds the Gram.
        rng = np.random.default_rng(5)
        delta = _sq_dists(rng.standard_normal((5, 2)))
        res = cmds(delta, 5)
        assert res.configuration.shape == (5, 5)
        np.testing.assert_allclose(res.configuration @ res.configuration.T, res.gram, atol=1e-12)


class TestPsdProject:
    def test_psd_input_unchanged(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((6, 3))
        b = x @ x.T
        np.testing.assert_allclose(psd_project(b), b, atol=1e-10)

    def test_eigen_clipping(self):
        np.testing.assert_allclose(
            psd_project(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]), atol=1e-12
        )

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        b = rng.standard_normal((5, 5))
        b = (b + b.T) / 2
        once = psd_project(b)
        np.testing.assert_allclose(psd_project(once), once, atol=1e-10)

    def test_negative_definite_projects_to_zero(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 6))
        out = psd_project(-(x @ x.T) - np.eye(6))
        assert out.shape == (6, 6)
        assert np.array_equal(out, np.zeros((6, 6)))

    def test_rank_deficient_matches_full_reconstruction(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((30, 4))
        y = rng.standard_normal((30, 3))
        b = x @ x.T - y @ y.T  # 4 positive, 3 negative, 23 zero eigenvalues
        full = _eigh_clip(b)
        out = psd_project(b)
        assert np.linalg.norm(out - full) <= 1e-12 * np.linalg.norm(full)
        assert np.array_equal(out, out.T)

    def test_symmetry_tolerance_unchanged(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((5, 2))
        b = x @ x.T
        for eps, ok in ((1e-11, True), (1e-9, False)):
            skewed = b.copy()
            skewed[0, 1] += eps
            for fn in (b_to_d, psd_project):
                if ok:
                    assert np.all(np.isfinite(fn(skewed)))
                else:
                    with pytest.raises(ValueError, match="symmetric"):
                        fn(skewed)

    def test_positive_definite_input_skips_eigh(self, monkeypatch):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((6, 6))
        b = x @ x.T + np.eye(6)
        b = (b + b.T) / 2.0

        def refuse(*args, **kwargs):
            raise AssertionError("eigh called on a positive definite input")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        assert np.array_equal(psd_project(b), b)

    def test_semidefinite_input_matches_eigh_reference(self):
        # Singular PSD sits on the certificate's boundary: Cholesky may pass
        # or fail on rounding, and either exit must give the same projection.
        rng = np.random.default_rng(13)
        x = rng.standard_normal((6, 3))
        b = x @ x.T  # rank 3 of 6
        b = (b + b.T) / 2.0
        ref = _eigh_clip(b)
        assert np.linalg.norm(psd_project(b) - ref) <= 1e-12 * np.linalg.norm(ref)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        kind=st.sampled_from(["definite", "singular", "indefinite"]),
        exponent=st.integers(-100, 100),
    )
    def test_projection_property_across_scales(self, seed, n, kind, exponent):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, n))
        if kind == "definite":
            base = x @ x.T + 0.1 * np.eye(n)
        elif kind == "singular":
            y = x[:, : max(n // 2, 1)]
            base = y @ y.T if n > 1 else np.zeros((1, 1))
        else:
            base = x + x.T
        base = (base + base.T) / 2.0
        b = base * 10.0**exponent
        out = psd_project(b)
        assert np.array_equal(out, out.T)
        w = np.linalg.eigvalsh(out)
        assert w[0] >= -1e-12 * abs(w[-1])
        assert np.linalg.norm(out - _eigh_clip(b)) <= 1e-10 * np.linalg.norm(b)

    def test_non_finite_input_takes_the_eigh_path(self):
        # The Cholesky factor of this matrix holds an inf, which does not
        # certify anything; the eigendecomposition's all-NaN result stands.
        b = np.eye(4)
        b[0, 0] = np.inf
        assert np.all(np.isnan(psd_project(b)))

    def test_nearest_among_random_candidates(self):
        rng = np.random.default_rng(8)
        b = rng.standard_normal((6, 6))
        b = (b + b.T) / 2
        proj = psd_project(b)
        ref = np.linalg.norm(proj - b)
        for _ in range(100):
            r = rng.standard_normal((6, 6)) * rng.uniform(0.2, 2.0)
            cand = r @ r.T
            assert ref <= np.linalg.norm(cand - b) + 1e-12


class TestSubgradient:
    def test_zero_residual(self):
        rng = np.random.default_rng(9)
        views = _random_views(rng, 6, m=1)
        g = mvree_subgradient(views, views.deltas[0])
        np.testing.assert_allclose(g, 0.0)

    def test_hand_case(self):
        views = DissimilarityViews([np.array([[0.0, 1.0], [1.0, 0.0]])])
        d = np.array([[0.0, 2.0], [2.0, 0.0]])
        g = mvree_subgradient(views, d)
        np.testing.assert_allclose(g, [[1.0, -1.0], [-1.0, 1.0]])

    def test_matches_fd_away_from_ties(self):
        rng = np.random.default_rng(11)
        views = _random_views(rng, 5)
        x = rng.standard_normal((5, 3))
        b = x @ x.T
        # keep clear of sign boundaries
        assert all(np.abs(delta - b_to_d(b))[~np.eye(5, dtype=bool)].min() > 1e-3
                   for delta in views.deltas)
        g = mvree_subgradient(views, b_to_d(b))
        fd = _fd_gradient(lambda bb: _pair_objective_l1(views, bb), b)
        np.testing.assert_allclose(g, fd, atol=1e-6)


class TestCorrentropyGradient:
    def test_zero_residual(self):
        rng = np.random.default_rng(12)
        views = _random_views(rng, 6, m=1)
        g = cmvree_gradient(views, views.deltas[0], sigma=2.0)
        np.testing.assert_allclose(g, 0.0)

    @pytest.mark.parametrize("alpha", [2.0, 1.5])
    def test_matches_fd(self, alpha):
        rng = np.random.default_rng(13)
        views = _random_views(rng, 5)
        x = rng.standard_normal((5, 3))
        b = x @ x.T
        sigma = 2.5
        g = cmvree_gradient(views, b_to_d(b), sigma, alpha)
        fd = _fd_gradient(lambda bb: _pair_objective_corr(views, bb, sigma, alpha), b)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_flat_kernel_limit_is_l2_gradient(self):
        rng = np.random.default_rng(14)
        views = _random_views(rng, 6)
        d = _sq_dists(rng.uniform(0, 3, size=(6, 3)))
        sigma = 1e4
        g = cmvree_gradient(views, d, sigma)
        resid = sum(d - delta for delta in views.deltas)
        expected = resid.copy()
        np.fill_diagonal(expected, -resid.sum(axis=1))
        np.testing.assert_allclose(sigma**2 * g, expected, rtol=1e-4, atol=1e-8)


class TestObjectives:
    def test_values_at_fit(self):
        rng = np.random.default_rng(15)
        views = _random_views(rng, 4, m=1)
        d = views.deltas[0]
        assert f0_objective(views, d) == 0.0
        assert f_objective(views, d, sigma=1.0) == pytest.approx(16.0)

    def test_hand_case_counts_pairs_twice(self):
        views = DissimilarityViews([np.array([[0.0, 1.0], [1.0, 0.0]])])
        d = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert f0_objective(views, d) == pytest.approx(2.0)

    def test_f_bounded_by_weight_mass(self):
        rng = np.random.default_rng(16)
        views = _random_views(rng, 6)
        # Every entry weighs 1: the weights are read-only unit broadcasts.
        for w in views.weights:
            assert not w.flags.writeable
            np.testing.assert_array_equal(w, np.ones((6, 6)))
        mass = sum(np.sum(w) for w in views.weights)
        for _ in range(10):
            d = _sq_dists(rng.uniform(0, 4, size=(6, 2)))
            assert f_objective(views, d, sigma=1.7) <= mass + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1.5, 2.0]),
        st.floats(0.1, 10.0),
    )
    def test_f_is_sum_of_shared_kernel(self, seed, alpha, sigma):
        rng = np.random.default_rng(seed)
        views = _random_views(rng, 5)
        d = _sq_dists(rng.uniform(0, 3, size=(5, 2)))
        got = f_objective(views, d, sigma, alpha)
        shared = sum(
            np.sum(correntropy_kernel(delta - d, sigma, alpha)) for delta in views.deltas
        )
        direct = sum(
            np.sum(np.exp(-np.abs(delta - d) ** alpha / (2.0 * sigma**alpha)))
            for delta in views.deltas
        )
        assert got == shared
        assert got == pytest.approx(direct, rel=1e-12)

    def test_f_decreases_moving_away(self):
        rng = np.random.default_rng(17)
        views = _random_views(rng, 4, m=1)
        d = views.deltas[0].copy()
        base = f_objective(views, d, sigma=2.0)
        d2 = d.copy()
        d2[0, 1] += 1.0
        d2[1, 0] += 1.0
        assert f_objective(views, d2, sigma=2.0) < base


class TestReeFit:
    def test_fixed_point_on_exact_edm(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((8, 3))
        delta = _sq_dists(x)
        views = DissimilarityViews([delta, delta.copy()])
        moves = []
        start = [None]

        def watch(it, b, obj):
            if start[0] is None:
                start[0] = b.copy()
            moves.append(np.max(np.abs(b - start[0])))

        cfg = EmbedConfig(target_dim=3, sigma=2.0, step=1e-3, max_iter=20)
        ree_fit(views, cfg, loss="correntropy", callback=watch)
        assert max(moves) <= 1e-8

        # The L1 solver sees float-level residuals at the warm start, so its
        # subgradient oscillates at step-size scale around the optimum; with
        # the annealed schedule it stays within a sliver of the exact answer.
        res = ree_fit(views, EmbedConfig(target_dim=3, step=0.05, max_iter=200), loss="l1")
        rel = np.max(np.abs(b_to_d(res.gram) - delta)) / np.max(delta)
        assert rel <= 1e-2

    def test_psd_after_every_iteration(self):
        rng = np.random.default_rng(19)
        views = _random_views(rng, 10)
        ratios = []

        def watch(it, b, obj):
            w = np.linalg.eigvalsh(b)
            ratios.append(w[0] / max(w[-1], 1e-30))

        cfg = EmbedConfig(target_dim=2, sigma=3.0, step=0.1, max_iter=60)
        ree_fit(views, cfg, loss="correntropy", callback=watch)
        cfg_l1 = EmbedConfig(target_dim=2, step=0.05, max_iter=60)
        ree_fit(views, cfg_l1, loss="l1", callback=watch)
        assert min(ratios) >= -1e-8

    def test_trace_has_one_entry_per_iteration(self):
        rng = np.random.default_rng(20)
        views = _random_views(rng, 6)
        res = ree_fit(views, EmbedConfig(target_dim=2, step=0.05, max_iter=17), loss="l1")
        assert res.trace.iterations_run == 17
        assert len(res.trace.objective) == 17

    def test_l1_objective_decreases_overall(self):
        rng = np.random.default_rng(21)
        views = _random_views(rng, 12)
        noisy = [d.copy() for d in views.deltas]
        noisy[0][0, 1] = noisy[0][1, 0] = noisy[0][0, 1] + 5.0
        views = DissimilarityViews(noisy)
        res = ree_fit(views, EmbedConfig(target_dim=3, step=0.05, max_iter=150), loss="l1")
        obj = res.trace.objective
        assert obj[-1] < obj[0]

    def test_correntropy_trace_quasi_monotone_at_small_step(self):
        from robustmv.datagen import gen_point_set_views

        _, views = gen_point_set_views(seed=22)
        cfg = EmbedConfig(target_dim=2, sigma=3.0, step=0.01, max_iter=200)
        res = ree_fit(views, cfg, loss="correntropy")
        obj = np.asarray(res.trace.objective)
        diffs = np.diff(obj[10:])
        slack = 1e-6 * np.maximum(1.0, np.abs(obj[10:-1]))
        assert np.all(diffs >= -slack)

    def test_correntropy_trace_non_decreasing_at_recipe_steps(self):
        for views, cfg in _recipe_runs("correntropy"):
            obj = np.asarray(ree_fit(views, cfg, loss="correntropy").trace.objective)
            assert len(obj) > 0
            slack = 1e-9 * np.maximum(1.0, np.abs(obj[:-1]))
            assert np.all(np.diff(obj) >= -slack)

    @pytest.mark.parametrize("loss", ["l1", "correntropy"])
    def test_iterates_exactly_symmetric_psd_and_repeatable(self, loss):
        # psd_project and b_to_d test exact symmetry before their tolerance;
        # the iterates must therefore be exactly symmetric, not nearly.
        for views, cfg in _recipe_runs(loss):
            runs = []
            for _ in range(2):
                digests = []

                def watch(it, b, obj):
                    assert np.array_equal(b, b.T)
                    w = np.linalg.eigvalsh(b)
                    assert w[0] / max(w[-1], 1e-30) >= -1e-8  # the c05 floor
                    digests.append(hashlib.sha256(b.tobytes()).hexdigest())

                res = ree_fit(views, cfg, loss=loss, callback=watch)
                assert digests
                runs.append((digests, res.gram.tobytes(), res.trace.objective))
            assert runs[0] == runs[1]

    def test_correntropy_stops_when_no_step_ascends(self):
        # At step 1e12 every trial down to the backtracking floor overshoots
        # and lowers the score; at step 0.01 the same views take a step.
        views = _random_views(np.random.default_rng(31), 6)
        cfg = EmbedConfig(target_dim=2, sigma=1.0, step=1e12, max_iter=10)
        res = ree_fit(views, cfg, loss="correntropy")
        assert res.trace.reason == "no ascent step"
        assert res.trace.converged
        assert res.trace.iterations_run == 0
        ok = ree_fit(views, EmbedConfig(target_dim=2, sigma=1.0, step=0.01, max_iter=10))
        assert ok.trace.reason == "score change below tolerance"
        assert ok.trace.iterations_run == 1

    def test_correntropy_stops_when_a_step_gains_nothing(self):
        # The first trial at step 1e12 ties the start score exactly: the tie
        # is accepted, so the trace never decreases, and the gain of 0 stops
        # the run on the tolerance rule.
        views = _random_views(np.random.default_rng(29), 6)
        cfg = EmbedConfig(target_dim=2, sigma=1.0, step=1e12, max_iter=10)
        scores = []
        res = ree_fit(views, cfg, loss="correntropy", callback=lambda it, b, obj: scores.append(obj))
        assert res.trace.reason == "score change below tolerance"
        assert res.trace.converged
        assert res.trace.objective == scores == [pytest.approx(30.915932014805378, rel=1e-12)]

    def test_correntropy_stops_on_tolerance_at_cluster_desk_scale(self):
        from robustmv.datagen import gen_cluster_retrieval_views

        _, raw = gen_cluster_retrieval_views(
            classes=9, per_class=11, corrupt_per_view=10, magnitude=10.0, seed=0
        )
        views = DissimilarityViews([d / median_kernel_size(raw) for d in raw.deltas])
        cfg = EmbedConfig(target_dim=8, sigma=median_kernel_size(views), step=0.01, max_iter=400)
        ratios = []

        def watch(it, b, obj):
            w = np.linalg.eigvalsh(b)
            ratios.append(w[0] / max(w[-1], 1e-30))

        res = ree_fit(views, cfg, loss="correntropy", callback=watch)
        assert res.trace.reason == "score change below tolerance"
        assert res.trace.converged
        assert 0 < res.trace.iterations_run < 100  # of the 200 ascent iterations
        assert np.all(np.diff(res.trace.objective) >= 0)
        assert len(ratios) == res.trace.iterations_run
        assert min(ratios) >= -1e-8  # the c05 floor

    def test_correntropy_trials_are_bb2_steps(self, monkeypatch):
        # Every psd_project input of ascent iteration k is B + t G at the last
        # accepted iterate B and its gradient G.  Iteration 1 tries cfg.step;
        # later ones try BB2, <s, -y> / <y, y> with s and y the change of B
        # and G over the last accepted step (twice that step when <s, -y> is
        # not positive), then halve the trial until the score does not drop.
        from robustmv import embedding

        views = _random_views(np.random.default_rng(38), 8)
        noisy = [d.copy() for d in views.deltas]
        noisy[0][0, 1] = noisy[0][1, 0] = noisy[0][0, 1] + 6.0
        views = DissimilarityViews(noisy)
        cfg = EmbedConfig(target_dim=2, sigma=3.0, step=0.05, max_iter=40)
        calls = []

        def spy(b):
            out = real(b)
            calls.append((b.copy(), out))
            return out

        real = embedding.psd_project
        monkeypatch.setattr(embedding, "psd_project", spy)
        accepted = []
        ree_fit(views, cfg, loss="correntropy", callback=lambda it, b, obj: accepted.append(b))
        monkeypatch.undo()

        n_warm = cfg.max_iter // 2
        start, l1_end = calls[0][1], calls[n_warm][1]
        score = lambda b: f_objective(views, b_to_d(b), cfg.sigma)
        iterates = [l1_end if score(l1_end) > score(start) else start] + accepted
        grads = [cmvree_gradient(views, b_to_d(b), cfg.sigma) for b in iterates]
        trials = {}  # ascent iteration -> its psd_project inputs, in call order
        it = 1
        for x, out in calls[n_warm + 1:]:
            trials.setdefault(it, []).append(x)
            it += it < len(iterates) and out is iterates[it]
        bb2 = []
        for it, xs in trials.items():
            b, g = iterates[it - 1], grads[it - 1]
            if it == 1:
                first = cfg.step
            else:
                s, y = b - iterates[it - 2], g - grads[it - 2]
                sy = -np.vdot(s, y)
                first = sy / np.vdot(y, y) if sy > 0 else 2.0 * step
                bb2 += [it] if sy > 0 else []
            for halvings, x in enumerate(xs):
                step = first / 2.0**halvings
                np.testing.assert_allclose(
                    x, b + step * g, rtol=0, atol=1e-12 * step * np.abs(g).max()
                )
        assert {2, 3} <= set(bb2)
        assert max(len(xs) for xs in trials.values()) > 1  # a halving is checked too

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(23)
        views = _random_views(rng, 7)
        perm = rng.permutation(7)
        permuted = DissimilarityViews([d[np.ix_(perm, perm)] for d in views.deltas])
        cfg = EmbedConfig(target_dim=2, sigma=2.0, step=0.05, max_iter=40)
        b1 = ree_fit(views, cfg, loss="correntropy").gram
        b2 = ree_fit(permuted, cfg, loss="correntropy").gram
        np.testing.assert_allclose(b2, b1[np.ix_(perm, perm)], atol=1e-8)

    def test_validation(self):
        rng = np.random.default_rng(24)
        views = _random_views(rng, 5)
        with pytest.raises(ValueError, match="loss"):
            ree_fit(views, EmbedConfig(target_dim=2), loss="huber")
        with pytest.raises(ValueError, match="target_dim"):
            ree_fit(views, EmbedConfig(target_dim=9), loss="l1")


class TestExtractConfiguration:
    def test_planted_rank_two(self):
        rng = np.random.default_rng(25)
        x = rng.standard_normal((9, 2))
        x -= x.mean(axis=0)
        b = x @ x.T
        res = cmds(b_to_d(b), 2)
        x2 = res.configuration
        np.testing.assert_allclose(_sq_dists(x2), b_to_d(b), atol=1e-8)

    def test_column_norms_non_increasing(self):
        rng = np.random.default_rng(26)
        delta = _sq_dists(rng.standard_normal((8, 4)))
        res = cmds(delta, 8)
        norms = np.linalg.norm(res.configuration, axis=0)
        assert np.all(np.diff(norms) <= 1e-10)


class TestHadamard:
    def test_identity_on_equal_views(self):
        rng = np.random.default_rng(28)
        d = _sq_dists(rng.standard_normal((5, 2)))
        np.testing.assert_allclose(hadamard_combine(d, d), d, rtol=1e-12)

    def test_zero_propagates_and_geometric_mean(self):
        a = np.array([[0.0, 4.0], [4.0, 0.0]])
        b = np.array([[0.0, 9.0], [9.0, 0.0]])
        out = hadamard_combine(a, b)
        np.testing.assert_allclose(out, [[0.0, 6.0], [6.0, 0.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            hadamard_combine(np.zeros((2, 2)), np.zeros((3, 3)))


class TestMedianKernel:
    def test_pooled_median(self):
        d1 = np.array([[0.0, 2.0], [2.0, 0.0]])
        d2 = np.array([[0.0, 4.0], [4.0, 0.0]])
        views = DissimilarityViews([d1, d2])
        assert median_kernel_size(views) == pytest.approx(3.0)

    @pytest.mark.parametrize("n,m", [(3, 1), (4, 1), (5, 2), (6, 1), (6, 2), (7, 3)])
    @pytest.mark.parametrize("integer", [False, True], ids=["uniform", "ties"])
    def test_upper_triangle_matches_full_off_diagonal(self, n, m, integer):
        # Pooled pair counts m * n(n-1)/2 of 3, 6, 20, 15, 30 and 63: odd
        # and even.  The former formula pooled every off-diagonal entry.
        rng = np.random.default_rng(10 * n + m)
        deltas = []
        for _ in range(m):
            a = rng.integers(1, 4, size=(n, n)) if integer else rng.uniform(0.1, 9.0, (n, n))
            d = np.triu(a.astype(float), 1)
            deltas.append(d + d.T)
        views = DissimilarityViews(deltas)
        off = ~np.eye(n, dtype=bool)
        want = float(np.median(np.concatenate([d[off] for d in deltas])))
        assert median_kernel_size(views) == want

    def test_views_validation(self):
        with pytest.raises(ValueError, match="diagonal"):
            DissimilarityViews([np.eye(3)])
        with pytest.raises(ValueError, match="negative"):
            DissimilarityViews([np.array([[0.0, -1.0], [-1.0, 0.0]])])
        # NaN != NaN, so finiteness is checked before symmetry.
        with pytest.raises(ValueError, match="^view 0 contains non-finite values$"):
            DissimilarityViews([np.array([[0.0, np.nan], [np.nan, 0.0]])])

    def test_one_point_is_rejected(self):
        # One point has no off-diagonal entry; np.median of nothing is NaN.
        with pytest.raises(ValueError, match="needs at least two points, got 1"):
            median_kernel_size(DissimilarityViews([np.zeros((1, 1))]))
