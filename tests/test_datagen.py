"""Generators: determinism, noise protocols, moment matching."""

import tracemalloc

import numpy as np
import pytest

from robustmv import datagen
from robustmv import (
    NoiseSpec,
    corrupt_instances,
    corrupt_pixels,
    gen_cluster_retrieval_views,
    gen_labeled_multiview,
    gen_planted_multiview,
    gen_point_set_views,
    retrieval_topk,
)


def _sq_dists(points):
    diff = points[:, None, :] - points[None, :, :]
    return np.sum(diff * diff, axis=2)


def _broadcast_noisy_view(dist, points, magnitude, rng, noise_on):
    # The generators' former one-shot formula, frozen as the reference: an
    # N x N noise matrix and a new N x N array for every step.
    n = dist.shape[0]
    base = dist if noise_on == "raw" else dist**2
    mask = np.zeros((n, n), dtype=bool)
    mask[list(points), :] = True
    mask[:, list(points)] = True
    np.fill_diagonal(mask, False)
    mask = np.triu(mask)
    eps = np.zeros_like(base)
    eps[mask] = magnitude * rng.choice([-1.0, 1.0], size=int(mask.sum()))
    noisy = np.triu(base + eps, 1)
    noisy = np.maximum(noisy + noisy.T, 0.0)
    return noisy**2 if noise_on == "raw" else noisy


def _broadcast_cluster_views(classes, per_class, n_views, corrupt_per_view, seed):
    rng = np.random.default_rng(seed)
    n = classes * per_class
    labels = np.repeat(np.arange(classes), per_class)
    pts = 12.0 * np.eye(classes)[labels] + rng.standard_normal((n, classes))
    dist = np.sqrt(_sq_dists(pts))
    order = rng.permutation(n)
    return [
        _broadcast_noisy_view(
            dist, order[v * corrupt_per_view : (v + 1) * corrupt_per_view], 10.0, rng, "raw"
        )
        for v in range(n_views)
    ]


def _broadcast_point_set_views(seed, noise_on):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 4.0, size=(25, 2))
    dist = np.sqrt(_sq_dists(points))
    return [
        _broadcast_noisy_view(dist, subset, 10.0, rng, noise_on)
        for subset in ((0, 1, 2, 3), (23, 24))
    ]


class TestPlantedMultiview:
    def test_deterministic(self):
        a = gen_planted_multiview(10, 3, [5, 4], seed=7)
        b = gen_planted_multiview(10, 3, [5, 4], seed=7)
        for za, zb in zip(a[0].views, b[0].views):
            assert np.array_equal(za, zb)

    def test_zero_residual_under_truth(self):
        fs, w_true, x_true = gen_planted_multiview(12, 2, [4, 3, 6], seed=8)
        for z, w in zip(fs.views, w_true):
            np.testing.assert_allclose(z, w @ x_true, atol=1e-14)

    def test_degenerate_dims_rejected(self):
        with pytest.raises(ValueError, match="latent_dim"):
            gen_planted_multiview(5, 5, [6], seed=0)
        with pytest.raises(ValueError, match="view dimension"):
            gen_planted_multiview(9, 5, [3], seed=0)


class TestNoiseSpec:
    def test_validation(self):
        for kind in ("gaussian", "distance_salt_pepper"):
            with pytest.raises(ValueError, match="unknown noise kind"):
                NoiseSpec(kind=kind, fraction=0.5)
        with pytest.raises(TypeError, match="fraction"):
            NoiseSpec(kind="instance_replacement")
        with pytest.raises(ValueError, match="fraction"):
            NoiseSpec(kind="instance_replacement", fraction=1.5)
        with pytest.raises(ValueError, match="magnitude"):
            NoiseSpec(kind="pixel_replacement", fraction=0.5, magnitude=-1.0)


class TestCorruptInstances:
    def test_fraction_zero_is_identity(self):
        fs, _, _ = gen_planted_multiview(20, 3, [6, 5], seed=9)
        out, idx = corrupt_instances(
            fs, 0, NoiseSpec(kind="instance_replacement", fraction=0.0, seed=1)
        )
        assert idx.size == 0
        for za, zb in zip(out.views, fs.views):
            assert np.array_equal(za, zb)

    def test_moment_matching_statistics(self):
        # Full replacement: min/max exact, mean within 2%, over many seeds.
        fs, _, _ = gen_planted_multiview(200, 4, [30], seed=10)
        z = fs.views[0]
        mean_errors = []
        for seed in range(50):
            out, _ = corrupt_instances(
                fs, 0, NoiseSpec(kind="instance_replacement", fraction=1.0, seed=seed)
            )
            zc = out.views[0]
            assert zc.min() == z.min()
            assert zc.max() == z.max()
            mean_errors.append(abs(zc.mean() - z.mean()) / (z.max() - z.min()))
        assert np.mean(mean_errors) < 0.02

    def test_grid_fractions_affect_expected_counts(self):
        fs, _, _ = gen_planted_multiview(400, 4, [10], seed=11)
        for frac in (0.125, 0.25, 0.5):
            _, idx = corrupt_instances(
                fs, 0, NoiseSpec(kind="instance_replacement", fraction=frac, seed=3)
            )
            assert idx.size == int(round(frac * 400))

    def test_tiny_fraction_warns_instead_of_failing(self):
        fs, _, _ = gen_planted_multiview(8, 2, [4], seed=30)
        with pytest.warns(UserWarning, match="zero instances"):
            out, idx = corrupt_instances(
                fs, 0, NoiseSpec(kind="instance_replacement", fraction=0.01, seed=1)
            )
        assert idx.size == 0
        assert np.array_equal(out.views[0], fs.views[0])

    def test_other_views_untouched(self):
        fs, _, _ = gen_planted_multiview(30, 3, [6, 5], seed=12)
        out, _ = corrupt_instances(
            fs, 0, NoiseSpec(kind="instance_replacement", fraction=0.5, seed=4)
        )
        assert np.array_equal(out.views[1], fs.views[1])


class TestCorruptPixels:
    def test_sixty_of_240(self):
        fs, _, _ = gen_planted_multiview(10, 3, [240], seed=13)
        _, mask = corrupt_pixels(
            fs, 0, NoiseSpec(kind="pixel_replacement", fraction=0.25, seed=5)
        )
        np.testing.assert_array_equal(mask.sum(axis=0), 60)

    def test_magnitude_changes_amplitude_not_positions(self):
        fs, _, _ = gen_planted_multiview(15, 3, [20], seed=14)
        spec1 = NoiseSpec(kind="pixel_replacement", fraction=0.5, magnitude=1.0, seed=6)
        spec3 = NoiseSpec(kind="pixel_replacement", fraction=0.5, magnitude=3.0, seed=6)
        out1, mask1 = corrupt_pixels(fs, 0, spec1)
        out3, mask3 = corrupt_pixels(fs, 0, spec3)
        assert np.array_equal(mask1, mask3)
        z = fs.views[0]
        dev1 = out1.views[0][mask1] - z.mean()
        dev3 = out3.views[0][mask3] - z.mean()
        np.testing.assert_allclose(dev3, 3.0 * dev1, rtol=1e-12)

    def test_grid(self):
        fs, _, _ = gen_planted_multiview(8, 2, [40], seed=15)
        for frac in (0.0, 0.25, 0.5, 0.75):
            _, mask = corrupt_pixels(
                fs, 0, NoiseSpec(kind="pixel_replacement", fraction=frac, seed=7)
            )
            np.testing.assert_array_equal(mask.sum(axis=0), int(round(frac * 40)))


class TestPointSetViews:
    def test_uncorrupted_entries_are_true_distances(self):
        points, views = gen_point_set_views(seed=16)
        true_sq = _sq_dists(points)
        touched = np.zeros((25, 25), dtype=bool)
        for p in (0, 1, 2, 3, 23, 24):
            touched[p, :] = touched[:, p] = True
        clean = ~touched
        for delta in views.deltas:
            np.testing.assert_allclose(delta[clean], true_sq[clean], atol=1e-12)
        np.testing.assert_allclose(views.deltas[0][clean], views.deltas[1][clean])

    def test_corruption_magnitude_on_raw_distances(self):
        points, views = gen_point_set_views(seed=17)
        dist = np.sqrt(_sq_dists(points))
        mask1 = np.zeros((25, 25), dtype=bool)
        for p in (0, 1, 2, 3):
            mask1[p, :] = mask1[:, p] = True
        np.fill_diagonal(mask1, False)
        raw = np.sqrt(views.deltas[0])
        up = np.isclose(raw[mask1], dist[mask1] + 10.0)
        down = np.isclose(raw[mask1], np.maximum(dist[mask1] - 10.0, 0.0))
        assert np.all(up | down)
        assert up.any() and down.any()

    def test_noise_on_squared_mode(self):
        points, views = gen_point_set_views(seed=18, noise_on="squared")
        true_sq = _sq_dists(points)
        mask2 = np.zeros((25, 25), dtype=bool)
        for p in (23, 24):
            mask2[p, :] = mask2[:, p] = True
        np.fill_diagonal(mask2, False)
        dev = views.deltas[1][mask2] - true_sq[mask2]
        clamped = views.deltas[1][mask2] == 0.0
        assert np.all(np.isclose(np.abs(dev), 10.0) | clamped)

    def test_deterministic_and_valid(self):
        p1, v1 = gen_point_set_views(seed=19)
        p2, v2 = gen_point_set_views(seed=19)
        assert np.array_equal(p1, p2)
        for a, b in zip(v1.deltas, v2.deltas):
            assert np.array_equal(a, b)


class TestClusterRetrievalViews:
    def test_zero_noise_perfect_retrieval_each_view(self):
        labels, views = gen_cluster_retrieval_views(
            classes=5, per_class=8, corrupt_per_view=0, seed=20
        )
        for delta in views.deltas:
            score = retrieval_topk(labels, distances=delta, k=7)
            assert score.total == 5 * 8 * 7

    def test_deterministic(self):
        a = gen_cluster_retrieval_views(4, 6, corrupt_per_view=3, seed=21)
        b = gen_cluster_retrieval_views(4, 6, corrupt_per_view=3, seed=21)
        assert np.array_equal(a[0], b[0])
        for da, db in zip(a[1].deltas, b[1].deltas):
            assert np.array_equal(da, db)

    def test_corruption_hurts_single_view(self):
        labels, views = gen_cluster_retrieval_views(
            classes=5, per_class=8, corrupt_per_view=6, magnitude=10.0, seed=22
        )
        for delta in views.deltas:
            score = retrieval_topk(labels, distances=delta, k=7)
            assert score.total < 5 * 8 * 7

    def test_size_validation(self):
        with pytest.raises(ValueError, match="disjoint"):
            gen_cluster_retrieval_views(2, 3, corrupt_per_view=4, seed=0)


class TestBlockedDistances:
    """Row-block, in-place distance views equal the one-shot broadcast formula."""

    # N = 6, 32, 64, 65 and 99 against row blocks of 1, 7 and the default:
    # sizes that are and are not multiples of the block, and 2 or 3 views.
    @pytest.mark.parametrize("block", [1, 7, None])
    @pytest.mark.parametrize(
        "classes,per_class,n_views",
        [(3, 2, 2), (4, 8, 3), (8, 8, 2), (5, 13, 3), (9, 11, 2)],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_cluster_views_match_broadcast(
        self, monkeypatch, block, classes, per_class, n_views, seed
    ):
        if block is not None:
            monkeypatch.setattr(datagen, "_DISTANCE_BLOCK_ROWS", block)
        _, views = gen_cluster_retrieval_views(
            classes, per_class, n_views=n_views, corrupt_per_view=2, seed=seed
        )
        want = _broadcast_cluster_views(classes, per_class, n_views, 2, seed)
        assert len(views.deltas) == len(want)
        for got, ref in zip(views.deltas, want):
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("noise_on", ["raw", "squared"])
    @pytest.mark.parametrize("seed", range(5))
    def test_point_set_views_match_broadcast(self, monkeypatch, noise_on, seed):
        monkeypatch.setattr(datagen, "_DISTANCE_BLOCK_ROWS", 7)
        _, views = gen_point_set_views(seed=seed, box=4.0, noise_on=noise_on)
        for got, ref in zip(views.deltas, _broadcast_point_set_views(seed, noise_on)):
            np.testing.assert_array_equal(got, ref)

    def test_peak_memory_is_quadratic(self):
        # Two N x N float matrices are live at the end, the two views; the
        # last is built in the distances' own buffer, so the peak reads about
        # 2.3 N^2 floats and a copy for every view (3.3) breaks the bound.
        # The one-shot broadcast needed two N x N x classes stacks, 160 MB here.
        n = 1000
        tracemalloc.start()
        try:
            gen_cluster_retrieval_views(10, 100, corrupt_per_view=100, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.6 * n * n * 8

    def test_mirror_allocates_no_second_matrix(self):
        # The view is built in the given buffer, so no N x N float is
        # allocated (about 0.04 N^2 floats at the peak).  Mirroring with
        # ``noisy += noisy.T`` added a full N x N temporary (8 MB here).
        n = 1000
        dist = np.sqrt(_sq_dists(np.random.default_rng(0).uniform(0.0, 5.0, size=(n, 2))))
        tracemalloc.start()
        try:
            datagen._noisy_distance_view(dist, range(10), 10.0, np.random.default_rng(1), "raw")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * n * n * 8

    def test_noise_builds_no_pair_masks(self):
        # Nothing quadratic is allocated: the view is built in the given
        # buffer, and the three N x N bool masks of the corrupted pairs
        # (3 MB here) would read 0.38 N^2 floats.
        n = 1000
        dist = np.sqrt(_sq_dists(np.random.default_rng(0).uniform(0.0, 5.0, size=(n, 2))))
        tracemalloc.start()
        try:
            datagen._noisy_distance_view(dist, range(10), 10.0, np.random.default_rng(1), "raw")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * n * n * 8


class TestLabeledMultiview:
    def test_unit_scale_fixed_point(self):
        from robustmv import normalize_views

        _, fs = gen_labeled_multiview(classes=4, per_class=10, seed=23)
        for z in fs.views:
            assert np.sum(z * z) / fs.n_instances == pytest.approx(1.0)
        normalized = normalize_views(fs)
        for za, zb in zip(normalized.views, fs.views):
            np.testing.assert_allclose(za, zb, rtol=1e-12)

    def test_clean_data_classifies_well(self):
        from robustmv import knn_classify, seeded_split

        labels, fs = gen_labeled_multiview(classes=6, per_class=20, seed=24)
        split = seeded_split(labels, 0.5, seed=24)
        _, acc = knn_classify(split, features=np.concatenate(fs.views).T)
        assert acc >= 0.95

    def test_deterministic(self):
        a = gen_labeled_multiview(seed=25)
        b = gen_labeled_multiview(seed=25)
        assert np.array_equal(a[0], b[0])
        for za, zb in zip(a[1].views, b[1].views):
            assert np.array_equal(za, zb)
