"""Downstream evaluation: kNN classification, top-k retrieval, Procrustes
alignment error and confusion matrices.

All evaluators are pure and deterministic; distance ties are broken by
original index order.  The kNN and retrieval evaluators check that the
distances or points have one row per label, and sort every query in one
``np.argsort`` call rather than one query at a time.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LabeledSplit",
    "RetrievalScore",
    "seeded_split",
    "knn_classify",
    "retrieval_topk",
    "procrustes_align",
    "procrustes_rmse",
    "confusion_matrix",
]


@dataclass
class LabeledSplit:
    """Class labels plus disjoint train/test index sets."""

    labels: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        self.train_idx = np.asarray(self.train_idx, dtype=int)
        self.test_idx = np.asarray(self.test_idx, dtype=int)
        n = self.labels.shape[0]
        for name, idx in (("train", self.train_idx), ("test", self.test_idx)):
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise ValueError(f"{name} indices out of range")
            if np.unique(idx).size != idx.size:
                raise ValueError(f"{name} indices contain duplicates")
        if np.intersect1d(self.train_idx, self.test_idx).size:
            raise ValueError("train and test indices overlap")


@dataclass
class RetrievalScore:
    """Per-query correct-neighbour counts and their total."""

    per_query: np.ndarray
    k: int

    def __post_init__(self):
        self.per_query = np.asarray(self.per_query, dtype=int)

    @property
    def total(self) -> int:
        return int(self.per_query.sum())


def seeded_split(labels, train_fraction=0.5, seed=0) -> LabeledSplit:
    """Stratified random split with at least one training item per class."""
    labels = np.asarray(labels)
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    train = []
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        k = max(1, int(round(train_fraction * members.size)))
        train.append(rng.choice(members, size=min(k, members.size), replace=False))
    train_idx = np.sort(np.concatenate(train))
    test_idx = np.setdiff1d(np.arange(labels.shape[0]), train_idx)
    return LabeledSplit(labels, train_idx, test_idx)


def _sq_dists(rows, cols):
    # Squared distances between the rows of ``rows`` and the rows of ``cols``.
    d = np.sum(rows * rows, axis=1)[:, None] + np.sum(cols * cols, axis=1)[None, :]
    d -= 2.0 * rows @ cols.T
    return np.maximum(d, 0.0, out=d)


def knn_classify(split: LabeledSplit, features=None, distances=None, k=1):
    """k-nearest-neighbour vote over the training set.

    Give either ``features`` (rows = instances) or a full ``distances``
    matrix, one row per label.  From features only the test x train block
    of squared distances is computed.  Neighbours are the k smallest distances,
    ties going to the lower training position.  The most votes win; vote
    ties go to the class with the smallest total distance among the k
    neighbours (summed in neighbour order), then to the smallest class id.
    All test rows are sorted in one call.  Returns ``(predictions,
    accuracy)`` over the test indices.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if (features is None) == (distances is None):
        raise ValueError("give exactly one of features or distances")
    if split.train_idx.size == 0:
        raise ValueError("empty training set")
    if split.test_idx.size == 0:
        raise ValueError("empty test set: no instance left to classify")
    labels = split.labels
    n = labels.shape[0]
    train, test = split.train_idx, split.test_idx
    if features is not None:
        points = _points(n, features, "features")
        block = _sq_dists(points[test], points[train])
    else:
        block = _distances(n, distances)[np.ix_(test, train)]
    kk = min(k, train.size)
    order = np.argsort(block, axis=1, kind="stable")[:, :kk]
    classes, train_class = np.unique(labels[train], return_inverse=True)
    nn_class = train_class[order]
    nn_dist = np.take_along_axis(block, order, axis=1)
    rows = np.arange(test.size)
    votes = np.zeros((test.size, classes.size), dtype=int)
    totals = np.zeros((test.size, classes.size))
    for j in range(kk):
        votes[rows, nn_class[:, j]] += 1
        totals[rows, nn_class[:, j]] += nn_dist[:, j]
    best = votes == votes.max(axis=1, keepdims=True)
    tied = best.sum(axis=1) > 1
    smallest = np.where(best, totals, np.inf).min(axis=1, keepdims=True)
    best &= ~tied[:, None] | (totals == smallest)
    if not best.any(axis=1).all():
        raise ValueError("a tied kNN vote has a NaN distance total")
    preds = classes[np.argmax(best, axis=1)]
    accuracy = float(np.mean(preds == labels[test]))
    return preds, accuracy


def retrieval_topk(labels, distances=None, configuration=None, k=10) -> RetrievalScore:
    """Count same-class items among each query's k nearest (self excluded).

    Give either a full ``distances`` matrix or a ``configuration`` (rows =
    instances), one row per label.  Distance ties go to the lower index; all
    queries are sorted in one call.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k={k} out of range for N={n}")
    if (distances is None) == (configuration is None):
        raise ValueError("give exactly one of distances or configuration")
    if configuration is not None:
        points = _points(n, configuration, "configuration")
        dist = _sq_dists(points, points)
    else:
        dist = _distances(n, distances).copy()
    np.fill_diagonal(dist, np.inf)
    top = np.argsort(dist, axis=1, kind="stable")[:, :k]
    counts = np.sum(labels[top] == labels[:, None], axis=1)
    return RetrievalScore(per_query=counts, k=k)


def _points(n, points, points_name):
    # ``points`` as a float array with n rows, one per label.
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] != n:
        raise ValueError(
            f"{points_name} has shape {points.shape}, expected {n} rows, one per label"
        )
    return points


def _distances(n, distances):
    # ``distances`` as a float n x n array, one row per label.
    dist = np.asarray(distances, dtype=float)
    if dist.shape != (n, n):
        raise ValueError(
            f"distances have shape {dist.shape}, expected ({n}, {n}), one row per label"
        )
    return dist


def procrustes_align(estimate, reference):
    """Best orthogonal-plus-translation map of ``estimate`` onto ``reference``.

    Reflections are allowed and there is no scaling.  Returns the aligned
    copy of ``estimate``.
    """
    est = np.asarray(estimate, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if est.shape != ref.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {ref.shape}")
    ref_c = ref - ref.mean(axis=0)
    if not np.any(ref_c):
        raise ValueError("degenerate reference: all points identical")
    est_c = est - est.mean(axis=0)
    u, _, vt = np.linalg.svd(est_c.T @ ref_c)
    rot = u @ vt
    return est_c @ rot + ref.mean(axis=0)


def procrustes_rmse(estimate, reference, subset=None) -> float:
    """RMSE over ``subset`` rows after aligning on all rows.

    ``subset`` holds at least one row index, each in ``[0, N)``.
    """
    aligned = procrustes_align(estimate, reference)
    ref = np.asarray(reference, dtype=float)
    err = aligned - ref
    if subset is not None:
        rows = np.asarray(subset, dtype=int).ravel()
        if rows.size == 0 or rows.min() < 0 or rows.max() >= len(err):
            raise ValueError(f"subset must hold row indices in [0, {len(err)}), got {subset}")
        err = err[rows]
    return float(np.sqrt(np.mean(np.sum(err * err, axis=1))))


def confusion_matrix(predictions, labels, classes=None):
    """Counts with rows = true class, columns = predicted class.

    Classes are the sorted unique values of ``classes`` when given (they
    must include every true label), else of the true labels; predictions
    outside that set are rejected.  Returns ``(classes, matrix)``.
    """
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels differ in length")
    classes = np.unique(labels if classes is None else classes)
    index = {c: i for i, c in enumerate(classes)}
    mat = np.zeros((classes.size, classes.size), dtype=int)
    for pred, true in zip(predictions, labels):
        if pred not in index:
            raise ValueError(f"prediction {pred!r} is not a known class")
        mat[index[true], index[pred]] += 1
    return classes, mat
