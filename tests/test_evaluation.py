"""Evaluators: kNN, retrieval, Procrustes alignment, confusion counts."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustmv import (
    LabeledSplit,
    confusion_matrix,
    knn_classify,
    procrustes_align,
    procrustes_rmse,
    retrieval_topk,
    seeded_split,
)
from robustmv.evaluation import _nearest, _sq_dists


def _block_distances(labels):
    # 0 within class, 1 across.
    labels = np.asarray(labels)
    d = (labels[:, None] != labels[None, :]).astype(float)
    np.fill_diagonal(d, 0.0)
    return d


class TestSplit:
    def test_stratified_and_disjoint(self):
        labels = np.repeat([0, 1, 2], 10)
        split = seeded_split(labels, 0.3, seed=0)
        assert np.intersect1d(split.train_idx, split.test_idx).size == 0
        for c in range(3):
            assert np.sum(labels[split.train_idx] == c) == 3

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            LabeledSplit(np.arange(4), [0, 1], [1, 2])


class TestKnn:
    def test_exact_match_wins(self):
        feats = np.array([[0.0], [1.0], [5.0]])
        labels = np.array([0, 1, 2])
        split = LabeledSplit(labels, [0, 1], [2])
        preds, _ = knn_classify(split, features=np.vstack([feats[[0, 1]], feats[[0]]])[[0, 1, 2]])
        # test instance coincides with train instance 0
        assert preds[0] == 0

    def test_two_class_one_dimensional(self):
        feats = np.array([[0.0], [10.0], [3.0]])
        labels = np.array([0, 1, 0])  # true label of the query is irrelevant
        split = LabeledSplit(labels, [0, 1], [2])
        preds, _ = knn_classify(split, features=feats, k=1)
        assert preds[0] == 0

    def test_block_matrix_is_perfect_for_any_split(self):
        labels = np.repeat(np.arange(4), 6)
        d = _block_distances(labels)
        for seed in range(3):
            split = seeded_split(labels, 0.4, seed=seed)
            _, acc = knn_classify(split, distances=d, k=1)
            assert acc == 1.0

    def test_majority_vote_with_distance_tiebreak(self):
        # k=2, one neighbour from each class at different distances: the
        # closer class wins the tie.
        feats = np.array([[0.0], [2.0], [0.9]])
        labels = np.array([0, 1, 9])
        split = LabeledSplit(labels, [0, 1], [2])
        preds, _ = knn_classify(split, features=feats, k=2)
        assert preds[0] == 0

    def test_empty_train_rejected(self):
        split = LabeledSplit(np.array([0, 1]), [], [0, 1])
        with pytest.raises(ValueError, match="train"):
            knn_classify(split, features=np.zeros((2, 1)))


class TestRetrieval:
    def test_singletons_score_zero(self):
        labels = np.arange(5)
        d = _block_distances(labels)
        score = retrieval_topk(labels, distances=d, k=1)
        assert score.total == 0

    def test_ideal_block_matrix_max_score(self):
        labels = np.repeat(np.arange(9), 11)
        d = _block_distances(labels)
        score = retrieval_topk(labels, distances=d, k=10)
        assert score.total == 990

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(1)
        labels = np.repeat(np.arange(3), 5)
        pts = rng.standard_normal((15, 2)) + 4.0 * labels[:, None]
        diff = pts[:, None, :] - pts[None, :, :]
        d = np.sqrt(np.sum(diff * diff, axis=2))
        shifted = d + 5.0
        np.fill_diagonal(shifted, 0.0)
        s1 = retrieval_topk(labels, distances=d, k=4)
        s2 = retrieval_topk(labels, distances=shifted, k=4)
        np.testing.assert_array_equal(s1.per_query, s2.per_query)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        labels = np.repeat(np.arange(3), 4)
        pts = rng.standard_normal((12, 2)) + 3.0 * labels[:, None]
        diff = pts[:, None, :] - pts[None, :, :]
        d = np.sum(diff * diff, axis=2)
        s1 = retrieval_topk(labels, distances=d, k=3)
        s2 = retrieval_topk(labels, distances=np.sqrt(d), k=3)
        np.testing.assert_array_equal(s1.per_query, s2.per_query)

    def test_total_bounded(self):
        labels = np.repeat(np.arange(3), 4)
        d = _block_distances(labels)
        score = retrieval_topk(labels, distances=d, k=5)
        assert score.total <= labels.size * 5


def _knn_loop(split, dist, k):
    # Per-query reference: one stable argsort per test row, np.unique votes,
    # totals summed with np.sum over the class's neighbours in neighbour order.
    labels = split.labels
    kk = min(k, split.train_idx.size)
    preds = np.empty(split.test_idx.size, dtype=labels.dtype)
    for t, i in enumerate(split.test_idx):
        cand = dist[i, split.train_idx]
        order = np.argsort(cand, kind="stable")[:kk]
        nn_labels = labels[split.train_idx[order]]
        nn_dists = cand[order]
        classes, votes = np.unique(nn_labels, return_counts=True)
        best = classes[votes == votes.max()]
        if best.size > 1:
            totals = [nn_dists[nn_labels == c].sum() for c in best]
            best = best[np.flatnonzero(totals == np.min(totals))]
        preds[t] = np.min(best)
    return preds


def _inf_diagonal(dist):
    # The matrix every instance is ranked against: no instance is its own neighbour.
    ref = np.array(dist, dtype=float)
    np.fill_diagonal(ref, np.inf)
    return ref


def _retrieval_loop(labels, dist, k):
    tops = [np.argsort(row, kind="stable")[:k] for row in _inf_diagonal(dist)]
    return np.array([np.sum(labels[top] == lab) for top, lab in zip(tops, labels)])


class TestBatchedAgainstLoop:
    """The one-call evaluators agree exactly with a per-query loop."""

    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize("seed", range(4))
    def test_knn_integer_ties(self, k, seed):
        rng = np.random.default_rng(seed)
        n = 60
        labels = rng.integers(0, 5, size=n) * 3 + 2
        dist = rng.integers(0, 4, size=(n, n)).astype(float)
        split = seeded_split(labels, 0.5, seed=seed)
        preds, acc = knn_classify(split, distances=dist, k=k)
        want = _knn_loop(split, dist, k)
        np.testing.assert_array_equal(preds, want)
        assert preds.dtype == want.dtype
        assert acc == float(np.mean(want == labels[split.test_idx]))

    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize("seed", range(4))
    def test_knn_float_ties_decided_by_rounding(self, k, seed):
        # Cells drawn from values whose exact sums often coincide while
        # their float sums do not: 0.1 + 0.2 + 0.3 != 0.3 + 0.3 in floats.
        rng = np.random.default_rng(100 + seed)
        n = 60
        labels = rng.integers(0, 4, size=n)
        dist = rng.choice([0.0, 0.1, 0.2, 0.3, 0.4, 0.6, 0.7], size=(n, n))
        split = seeded_split(labels, 0.5, seed=seed)
        preds, _ = knn_classify(split, distances=dist, k=k)
        np.testing.assert_array_equal(preds, _knn_loop(split, dist, k))

    def test_knn_totals_summed_in_neighbour_order(self):
        # Class 1 holds 0.1, 0.2, 0.3 (sum 0.6000000000000001 in neighbour
        # order), class 4 holds 0.0, 0.3, 0.3 (sum 0.6); three votes each.
        # Summed in any other order class 1's total is 0.6 and would win
        # on the class id.
        train = np.array([0.1, 0.2, 0.3, 0.0, 0.3, 0.3])
        labels = np.array([1, 1, 1, 4, 4, 4, 7])
        dist = np.zeros((7, 7))
        dist[6, :6] = train
        split = LabeledSplit(labels, np.arange(6), [6])
        preds, _ = knn_classify(split, distances=dist, k=6)
        assert preds.tolist() == [4] == _knn_loop(split, dist, 6).tolist()

    def test_knn_features_path_and_large_k(self):
        rng = np.random.default_rng(7)
        labels = np.repeat(np.arange(3), 9)
        pts = np.round(rng.standard_normal((27, 2)) * 2.0)
        split = seeded_split(labels, 0.5, seed=1)
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sum(diff * diff, axis=2)  # exact: integer coordinates
        for k in (1, 3, 10, 100):
            preds, _ = knn_classify(split, features=pts, k=k)
            np.testing.assert_array_equal(preds, _knn_loop(split, dist, k))

    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("integer", [False, True], ids=["gaussian", "tie-heavy"])
    def test_knn_feature_block_matches_full_matrix(self, k, seed, integer):
        # Only the test x train block is computed from features; the full
        # matrix, ranked through the distances path, is the reference.
        rng = np.random.default_rng(300 + seed)
        n = 120
        labels = rng.integers(0, 5, size=n)
        if integer:
            pts = rng.integers(0, 3, size=(n, 3)).astype(float)
        else:
            pts = rng.standard_normal((n, 16))
        sq = np.sum(pts * pts, axis=1)
        full = np.maximum(sq[:, None] + sq[None, :] - 2.0 * pts @ pts.T, 0.0)
        split = seeded_split(labels, 0.5, seed=seed)
        preds, acc = knn_classify(split, features=pts, k=k)
        want, want_acc = knn_classify(split, distances=full, k=k)
        np.testing.assert_array_equal(preds, want)
        assert acc == want_acc

    @pytest.mark.parametrize("m, n, dims", [(200, 150, 7), (64, 30, 3), (129, 129, 16), (1, 5, 2)])
    def test_sq_dists_match_one_shot_formula(self, m, n, dims):
        # Formed in the product's buffer one 64-row block at a time (the
        # last block ragged), the squared distances equal the one-shot
        # formula bit for bit, clipped self-distances included.
        rng = np.random.default_rng(m + n)
        rows, cols = rng.standard_normal((m, dims)), rng.standard_normal((n, dims))
        for a, b in ((rows, cols), (rows, rows)):
            sr, sc = np.sum(a * a, axis=1), np.sum(b * b, axis=1)
            want = np.maximum((sr[:, None] + sc[None, :]) - (2.0 * a) @ b.T, 0.0)
            assert _sq_dists(a, b).tobytes() == want.tobytes()

    def test_knn_features_peak_memory_is_one_block(self):
        # One test x train block is live (8 MB here): the product's buffer,
        # in which the squared distances are formed, plus row-block
        # temporaries.  The full N x N matrix alone would be 32 MB, and a
        # second block takes the peak past the bound of 1.5 blocks.
        rng = np.random.default_rng(5)
        labels = np.repeat(np.arange(10), 200)
        pts = rng.standard_normal((2000, 64))
        split = seeded_split(labels, 0.5, seed=0)
        tracemalloc.start()
        try:
            knn_classify(split, features=pts, k=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * split.test_idx.size * split.train_idx.size * 8

    def test_knn_nan_in_tied_vote_rejected(self):
        labels = np.array([0, 1, 2])
        dist = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, np.nan], [1.0, np.nan, 0.0]])
        split = LabeledSplit(labels, [0, 1], [2])
        with pytest.raises(ValueError):
            _knn_loop(split, dist, 2)
        with pytest.raises(ValueError, match="NaN"):
            knn_classify(split, distances=dist, k=2)
        # Without a vote tie the NaN neighbour is harmless, as in the loop.
        preds, _ = knn_classify(split, distances=dist, k=1)
        np.testing.assert_array_equal(preds, _knn_loop(split, dist, 1))

    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize("seed", range(4))
    def test_retrieval_integer_ties(self, k, seed):
        rng = np.random.default_rng(200 + seed)
        n = 50
        labels = rng.integers(0, 4, size=n)
        dist = rng.integers(0, 3, size=(n, n)).astype(float)
        dist[rng.random((n, n)) < 0.05] = np.inf
        dist[rng.random((n, n)) < 0.02] = np.nan
        score = retrieval_topk(labels, distances=dist, k=k)
        np.testing.assert_array_equal(score.per_query, _retrieval_loop(labels, dist, k))

    def test_evaluators_leave_distances_untouched(self):
        # Retrieval ranks the caller's matrix where it lies, over several
        # 64-row steps; neither evaluator writes into it, so its diagonal
        # stays 0 and never becomes inf.
        labels = np.repeat(np.arange(3), 50)
        d = _block_distances(labels) + np.random.default_rng(4).random((150, 150))
        d += d.T
        np.fill_diagonal(d, 0.0)
        before = d.copy()
        retrieval_topk(labels, distances=d, k=3)
        knn_classify(seeded_split(labels, 0.5, seed=0), distances=d, k=3)
        np.testing.assert_array_equal(d, before)


@st.composite
def _tie_heavy(draw, cells):
    # Labels from three classes, a split with both sides non-empty, and an
    # n x n matrix whose cells are drawn from ``cells``.
    n = draw(st.integers(2, 8))
    labels = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    in_train = np.array(draw(
        st.lists(st.booleans(), min_size=n, max_size=n).filter(lambda b: any(b) and not all(b))
    ))
    split = LabeledSplit(labels, np.flatnonzero(in_train), np.flatnonzero(~in_train))
    matrix = np.array(draw(st.lists(st.sampled_from(cells), min_size=n * n, max_size=n * n)))
    return split, matrix.reshape(n, n)


class TestRankingRules:
    """Ties, ``inf`` and NaN, for every k up to the limit, on tiny matrices.

    Both evaluators rank through one route; these pin what it must keep.
    """

    @settings(max_examples=300, deadline=None)
    @given(case=_tie_heavy([0.0, 1.0, 2.0, np.inf, np.nan]))
    def test_distances_match_per_query_loops(self, case):
        split, dist = case
        for k in range(1, split.train_idx.size + 2):  # one past: k is capped
            try:
                want = _knn_loop(split, dist, k)
            except ValueError:  # the loop met a NaN total in a tied vote
                with pytest.raises(ValueError, match="NaN"):
                    knn_classify(split, distances=dist, k=k)
                continue
            preds, _ = knn_classify(split, distances=dist, k=k)
            np.testing.assert_array_equal(preds, want)
        labels = split.labels
        for k in range(1, labels.size):
            score = retrieval_topk(labels, distances=dist, k=k)
            np.testing.assert_array_equal(score.per_query, _retrieval_loop(labels, dist, k))

    @settings(max_examples=200, deadline=None)
    @given(case=_tie_heavy([0.0, 1.0, 2.0]))
    def test_points_match_the_full_matrix(self, case):
        # Small integer coordinates make every squared distance exact, so the
        # points paths must rank exactly as the full matrix does.
        split, grid = case
        points = grid[:, :2]
        full = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2)
        for k in range(1, split.train_idx.size + 2):
            preds, _ = knn_classify(split, features=points, k=k)
            np.testing.assert_array_equal(preds, knn_classify(split, distances=full, k=k)[0])
            np.testing.assert_array_equal(preds, _knn_loop(split, full, k))
        labels = split.labels
        for k in range(1, labels.size):
            score = retrieval_topk(labels, configuration=points, k=k)
            np.testing.assert_array_equal(
                score.per_query, retrieval_topk(labels, distances=full, k=k).per_query
            )


def _scale_matrix(n, ties):
    # Random cells (one decimal when ``ties``) with scattered inf and NaN
    # cells, a row with 5 finite entries among NaN and a row with 3 among inf.
    rng = np.random.default_rng(42 + ties)
    m = rng.random((n, n))
    if ties:
        m = np.round(m, 1)
    m[rng.random((n, n)) < 0.03] = np.inf
    m[rng.random((n, n)) < 0.03] = np.nan
    m[7] = np.nan
    m[7, rng.choice(n, 5, replace=False)] = 0.5
    m[8] = np.inf
    m[8, rng.choice(n, 3, replace=False)] = 0.5
    return m


class TestSelectionAtScale:
    """Partial selection against a full stable sort on 600 x 600 blocks."""

    @pytest.mark.parametrize("ties", [False, True], ids=["random", "one-decimal"])
    def test_retrieval_block_matches_stable_argsort(self, ties):
        dist = _scale_matrix(600, ties)
        ref = _inf_diagonal(dist)
        for k in (1, 10, 598, 599, 600):
            _, order = _nearest(600, k, distances=dist)
            np.testing.assert_array_equal(order, np.argsort(ref, kind="stable")[:, :k])

    @pytest.mark.parametrize("ties", [False, True], ids=["random", "one-decimal"])
    def test_knn_block_matches_stable_argsort(self, ties):
        # A 1200 x 1200 matrix whose test x train block is 600 x 600.
        full = _scale_matrix(1200, ties)
        perm = np.random.default_rng(3).permutation(1200)
        test, train = np.sort(perm[:600]), np.sort(perm[600:])
        for k in (1, 10, 598, 599, 600):
            block, order = _nearest(1200, k, test, train, distances=full)
            np.testing.assert_array_equal(order, np.argsort(block, kind="stable")[:, :k])

    def test_tied_block_matches_stable_argsort(self):
        # Rows of one repeated value, where every entry ties the k-th: only
        # the first k - (strictly smaller) tied entries stay candidates.
        # Row 3 is all NaN, row 4 all inf, row 5 holds 4 finite entries among
        # NaN, row 6 holds 2 among inf, and row 7 mixes 2.5, inf and NaN.
        dist = np.full((300, 300), 2.5)
        dist[3] = np.nan
        dist[4] = np.inf
        dist[5] = np.nan
        dist[5, [250, 40, 41, 7]] = 2.5
        dist[6] = np.inf
        dist[6, [90, 12]] = 1.0
        dist[7, ::3] = np.inf
        dist[7, 1::3] = np.nan
        dist[:20, 200:] = 1.0
        ref = _inf_diagonal(dist)
        for k in (1, 10):
            _, order = _nearest(300, k, distances=dist)
            np.testing.assert_array_equal(order, np.argsort(ref, kind="stable")[:, :k])
            _, order = _nearest(300, k, np.arange(150), np.arange(150, 300), distances=dist)
            np.testing.assert_array_equal(
                order, np.argsort(dist[:150, 150:], kind="stable")[:, :k]
            )

    @pytest.mark.parametrize("fill", ["random", "all-tied"])
    def test_retrieval_peak_memory(self, fill):
        # The caller's matrix is ranked where it lies: only a few row blocks
        # are live (a step's row copy, partition and masks), even when every
        # distance ties, about 0.2 N^2 floats.  A copy of the matrix, or a
        # full N x N index array, would take the peak past the bound.
        n = 1000
        labels = np.repeat(np.arange(10), n // 10)
        rng = np.random.default_rng(9)
        dist = rng.random((n, n)) if fill == "random" else np.ones((n, n))
        tracemalloc.start()
        try:
            retrieval_topk(labels, distances=dist, k=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * n * n * 8


class TestIntegerK:
    """k must be an integer: integral floats and numpy integers pass."""

    def _scores(self, k):
        labels = np.repeat([0, 1, 2], 4)
        dist = _block_distances(labels) + np.arange(12.0)[None, :] / 100.0
        split = seeded_split(labels, 0.5, seed=0)
        return (
            knn_classify(split, distances=dist, k=k)[0].tolist(),
            retrieval_topk(labels, distances=dist, k=k).per_query.tolist(),
        )

    @pytest.mark.parametrize("k", [2.5, True], ids=["fraction", "bool"])
    @pytest.mark.parametrize("evaluator", ["knn", "retrieval"])
    def test_non_integer_rejected(self, k, evaluator):
        labels = np.repeat([0, 1, 2], 4)
        dist = _block_distances(labels)
        with pytest.raises(ValueError, match="^k must be an integer"):
            if evaluator == "knn":
                knn_classify(seeded_split(labels, 0.5, seed=0), distances=dist, k=k)
            else:
                retrieval_topk(labels, distances=dist, k=k)

    @pytest.mark.parametrize("k", [np.int64(3), 3.0], ids=["int64", "integral-float"])
    def test_integral_values_accepted(self, k):
        assert self._scores(k) == self._scores(3)


class TestSizeChecks:
    def test_knn_distances_must_match_labels(self):
        split = seeded_split(np.repeat([0, 1], 4), 0.5, seed=0)
        for shape in ((9, 9), (7, 7), (8, 9)):
            with pytest.raises(ValueError, match="one row per label"):
                knn_classify(split, distances=np.zeros(shape))

    def test_knn_features_must_match_labels(self):
        split = seeded_split(np.repeat([0, 1], 4), 0.5, seed=0)
        with pytest.raises(ValueError, match="one per label"):
            knn_classify(split, features=np.zeros((9, 2)))

    def test_knn_empty_test_set_rejected(self):
        split = seeded_split(np.arange(5), 0.5, seed=0)
        assert split.test_idx.size == 0
        with pytest.raises(ValueError, match="empty test set"):
            knn_classify(split, distances=np.zeros((5, 5)))

    def test_exactly_one_distance_source(self):
        labels = np.repeat([0, 1], 4)
        split = seeded_split(labels, 0.5, seed=0)
        points, dist = np.zeros((8, 2)), np.zeros((8, 8))
        for given in ({}, {"features": points, "distances": dist}):
            with pytest.raises(ValueError, match="^give exactly one of features or distances$"):
                knn_classify(split, **given)
        message = "^give exactly one of distances or configuration$"
        for given in ({}, {"configuration": points, "distances": dist}):
            with pytest.raises(ValueError, match=message):
                retrieval_topk(labels, k=2, **given)

    def test_retrieval_sizes_must_match_labels(self):
        labels = np.repeat([0, 1], 4)
        with pytest.raises(ValueError, match="one row per label"):
            retrieval_topk(labels, distances=np.zeros((9, 9)), k=2)
        with pytest.raises(ValueError, match="one per label"):
            retrieval_topk(labels, configuration=np.zeros((7, 2)), k=2)


class TestProcrustes:
    def test_rotation_translation_removed(self):
        rng = np.random.default_rng(3)
        ref = rng.standard_normal((12, 2))
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        est = ref @ rot.T + np.array([3.0, -1.5])
        assert procrustes_rmse(est, ref) <= 1e-8

    def test_reflection_removed(self):
        rng = np.random.default_rng(4)
        ref = rng.standard_normal((10, 2))
        est = ref @ np.diag([-1.0, 1.0])
        assert procrustes_rmse(est, ref) <= 1e-8

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(5)
        ref = rng.standard_normal((7, 2))
        est = ref + 0.3 * rng.standard_normal((7, 2))

        best = np.inf
        ref_c = ref - ref.mean(axis=0)
        est_c = est - est.mean(axis=0)
        for theta in np.linspace(0, 2 * np.pi, 20001):
            c, s = np.cos(theta), np.sin(theta)
            for refl in (1.0, -1.0):
                rot = np.array([[c, -s], [s, c]]) @ np.diag([refl, 1.0])
                err = est_c @ rot - ref_c
                best = min(best, np.sqrt(np.mean(np.sum(err * err, axis=1))))
        assert procrustes_rmse(est, ref) == pytest.approx(best, abs=1e-6)

    def test_subset_rmse(self):
        rng = np.random.default_rng(6)
        ref = rng.standard_normal((9, 2))
        est = ref.copy()
        est[0] += [1.0, 0.0]
        full = procrustes_rmse(est, ref)
        on_subset = procrustes_rmse(est, ref, subset=[1, 2, 3])
        assert on_subset < full

    @pytest.mark.parametrize("subset", [[], [-1], [9], [0, 9]])
    def test_subset_outside_rows_rejected(self, subset):
        ref = np.random.default_rng(9).standard_normal((9, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"subset must hold row indices in \[0, 9\)"):
                procrustes_rmse(ref + 0.1, ref, subset=subset)

    def test_degenerate_reference_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            procrustes_rmse(np.zeros((4, 2)), np.ones((4, 2)))

    def test_alignment_invariance_under_orthogonal_maps(self):
        rng = np.random.default_rng(7)
        ref = rng.standard_normal((8, 3))
        est = ref + 0.1 * rng.standard_normal((8, 3))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        r1 = procrustes_rmse(est, ref)
        r2 = procrustes_rmse(est @ q + 2.0, ref)
        assert r1 == pytest.approx(r2, abs=1e-10)

    def test_align_returns_point_set(self):
        rng = np.random.default_rng(8)
        ref = rng.standard_normal((5, 2))
        aligned = procrustes_align(ref @ np.diag([-1, 1]) + 1.0, ref)
        np.testing.assert_allclose(aligned, ref, atol=1e-10)


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        labels = np.array([0, 0, 1, 2, 2, 2])
        classes, mat = confusion_matrix(labels, labels)
        np.testing.assert_array_equal(classes, [0, 1, 2])
        np.testing.assert_array_equal(mat, np.diag([2, 1, 3]))

    def test_single_predicted_class(self):
        labels = np.array([0, 1, 2])
        preds = np.array([1, 1, 1])
        _, mat = confusion_matrix(preds, labels)
        np.testing.assert_array_equal(mat[:, 1], [1, 1, 1])
        assert mat.sum() == 3

    def test_row_sums_are_class_counts(self):
        rng = np.random.default_rng(9)
        labels = rng.integers(0, 4, size=30)
        preds = rng.integers(0, 4, size=30)
        classes, mat = confusion_matrix(preds, labels)
        for i, c in enumerate(classes):
            assert mat[i].sum() == np.sum(labels == c)

    def test_given_classes_cover_absent_labels(self):
        classes, mat = confusion_matrix(
            np.array([0, 1]), np.array([1, 1]), classes=np.array([2, 0, 1])
        )
        np.testing.assert_array_equal(classes, [0, 1, 2])
        np.testing.assert_array_equal(mat, [[0, 0, 0], [1, 1, 0], [0, 0, 0]])

    def test_unknown_prediction_rejected(self):
        with pytest.raises(ValueError, match="known class"):
            confusion_matrix(np.array([0, 7]), np.array([0, 1]))

    def test_label_outside_given_classes_rejected(self):
        with pytest.raises(ValueError, match="^label 5 is not among the given classes$"):
            confusion_matrix([0], [5], classes=[0, 1])
