"""Downstream evaluation: kNN classification, top-k retrieval, Procrustes
alignment error and confusion matrices.

All evaluators are pure and deterministic.  kNN and retrieval share one
neighbour search, ``_nearest``: it checks that exactly one distance source
is given with one row per label, builds the distance block (a full matrix
from the caller is read where it lies, never copied whole or changed) and
selects each query's k nearest without sorting the whole row:
``np.partition`` finds the k-th smallest distance, the entries below it and
the first entries tied with it make up k candidates, and one stable
``np.lexsort`` orders them, so distance ties go to the lower index and NaN
ranks after ``inf``.
"""

from dataclasses import dataclass

import numpy as np

from .losses import check_integer
from .trace import NumericalError

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

# Query rows ranked per step: a step's masks hold _RANK_BLOCK_ROWS x columns
# entries, and its candidate lists exactly _RANK_BLOCK_ROWS x k.
_RANK_BLOCK_ROWS = 64


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
    # Squared distances between the rows of ``rows`` and the rows of ``cols``:
    # elementwise ``max((|r|^2 + |c|^2) - 2 r.c, 0)``, formed in the buffer of
    # the product ``(2 rows) @ cols.T`` one row block at a time, so no second
    # rows x cols matrix is ever live.
    sr = np.sum(rows * rows, axis=1)
    sc = np.sum(cols * cols, axis=1)
    d = (2.0 * rows) @ cols.T
    for start in range(0, d.shape[0], _RANK_BLOCK_ROWS):
        part = d[start:start + _RANK_BLOCK_ROWS]
        np.subtract(sr[start:start + _RANK_BLOCK_ROWS, None] + sc, part, out=part)
        np.maximum(part, 0.0, out=part)
    return d


def _nearest(n, k, rows=None, cols=None, **source):
    """The distance block and the k nearest columns of each of its rows.

    ``source`` holds two keywords, ``distances`` (a full matrix) and the
    points (rows = instances), in the order the error message names them;
    exactly one is given, with one row per label.  The block is ``rows`` x
    ``cols``; from points only that block is computed.  Without ``rows`` and
    ``cols`` it is every instance against every other, and a given matrix is
    the block itself, neither copied nor changed: each ranking step copies
    its own rows and sets their diagonal cells to ``inf`` so that no
    instance is its own neighbour.

    k is capped at the column count.  The block is ranked
    ``_RANK_BLOCK_ROWS`` rows at a time, so the ranking's working set stays
    small even when every distance ties.  ``np.partition`` finds each row's
    k-th smallest value (NaN sorts last, and NaN entries tie a NaN k-th
    value).  Every entry below it is a candidate, and so are the entries
    tied with it, in column order, until the row holds k; a step whose rows
    hold more ties than that pays for one running count.  The candidates,
    listed by ``np.nonzero`` in column order, are ordered by one stable
    ``np.lexsort``: the first k of a full stable ``np.argsort``, with ties
    to the lower column and NaN after ``inf``.  Returns ``(block, order)``
    with ``order`` holding k column positions per row.
    """
    given = [(name, value) for name, value in source.items() if value is not None]
    if len(given) != 1:
        raise ValueError(f"give exactly one of {' or '.join(source)}")
    [(name, value)] = given
    value = np.asarray(value, dtype=float)
    if name == "distances":
        if value.shape != (n, n):
            raise ValueError(
                f"distances have shape {value.shape}, expected ({n}, {n}), one row per label"
            )
        block = value if rows is None else value[np.ix_(rows, cols)]
    else:
        if value.ndim != 2 or value.shape[0] != n:
            raise ValueError(f"{name} has shape {value.shape}, expected {n} rows, one per label")
        block = _sq_dists(value, value) if rows is None else _sq_dists(value[rows], value[cols])
    k = min(k, block.shape[1])
    order = np.empty((block.shape[0], k), dtype=np.intp)
    for start in range(0, block.shape[0], _RANK_BLOCK_ROWS):
        part = block[start:start + _RANK_BLOCK_ROWS]
        if rows is None:
            part = part.copy()
            np.fill_diagonal(part[:, start:], np.inf)
        kth = np.partition(part, k - 1, axis=1)[:, k - 1:k]
        cand = (part <= kth) | np.isnan(kth)
        counts = cand.sum(axis=1, keepdims=True)
        if np.any(counts > k):
            # Keep only the first (k - strictly smaller) entries tied at the k-th.
            tied = (part == kth) | (np.isnan(part) & np.isnan(kth))
            room = k - counts + tied.sum(axis=1, keepdims=True)
            cand &= ~tied | (np.cumsum(tied, axis=1, dtype=np.int32) <= room)
        row, col = np.nonzero(cand)
        ranked = col[np.lexsort((part[row, col], row))]
        order[start:start + _RANK_BLOCK_ROWS] = ranked.reshape(-1, k)
    return block, order


def knn_classify(split: LabeledSplit, features=None, distances=None, k=1):
    """k-nearest-neighbour vote over the training set.

    Give either ``features`` (rows = instances) or a full ``distances``
    matrix, one row per label.  From features only the test x train block
    of squared distances is computed.  ``k`` is a positive integer (an
    integral float counts), capped at the training-set size.  Neighbours
    are the k smallest distances, ranked by the same route as
    ``retrieval_topk``: ties go to the lower training position and NaN
    ranks last.  The most votes win; vote ties go to the class with the
    smallest total distance among the k neighbours (summed in neighbour
    order), then to the smallest class id.  A vote tie whose totals hold a
    NaN is rejected.  Returns ``(predictions, accuracy)`` over the test
    indices.
    """
    k = check_integer(k, "k")
    if k < 1:
        raise ValueError("k must be >= 1")
    if split.train_idx.size == 0:
        raise ValueError("empty training set")
    if split.test_idx.size == 0:
        raise ValueError("empty test set: no instance left to classify")
    labels, train, test = split.labels, split.train_idx, split.test_idx
    block, order = _nearest(len(labels), k, test, train, features=features, distances=distances)
    classes, train_class = np.unique(labels[train], return_inverse=True)
    nn_class = train_class[order]
    nn_dist = np.take_along_axis(block, order, axis=1)
    rows = np.arange(test.size)
    votes = np.zeros((test.size, classes.size), dtype=int)
    totals = np.zeros((test.size, classes.size))
    for j in range(order.shape[1]):
        votes[rows, nn_class[:, j]] += 1
        totals[rows, nn_class[:, j]] += nn_dist[:, j]
    best = votes == votes.max(axis=1, keepdims=True)
    tied = best.sum(axis=1) > 1
    smallest = np.where(best, totals, np.inf).min(axis=1, keepdims=True)
    best &= ~tied[:, None] | (totals == smallest)
    if not best.any(axis=1).all():
        raise ValueError("a tied kNN vote has a NaN distance total")
    preds = classes[np.argmax(best, axis=1)]
    return preds, float(np.mean(preds == labels[test]))


def retrieval_topk(labels, distances=None, configuration=None, k=10) -> RetrievalScore:
    """Count same-class items among each query's k nearest (self excluded).

    Give either a full ``distances`` matrix or a ``configuration`` (rows =
    instances), one row per label.  ``k`` is an integer in ``[1, N)`` (an
    integral float counts).  Queries are ranked by the same route as
    ``knn_classify``: ties go to the lower index and NaN ranks last.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    k = check_integer(k, "k")
    if not 1 <= k < n:
        raise ValueError(f"k={k} out of range for N={n}")
    _, top = _nearest(n, k, distances=distances, configuration=configuration)
    counts = np.sum(labels[top] == labels[:, None], axis=1)
    return RetrievalScore(per_query=counts)


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

    ``subset`` holds at least one row index, each in ``[0, N)``.  An RMSE
    that overflows (points near 1e300, say) raises ``NumericalError``.
    """
    with np.errstate(all="ignore"):  # a non-finite RMSE is reported below
        err = procrustes_align(estimate, reference) - np.asarray(reference, dtype=float)
        if subset is not None:
            rows = np.asarray(subset, dtype=int).ravel()
            if rows.size == 0 or rows.min() < 0 or rows.max() >= len(err):
                raise ValueError(f"subset must hold row indices in [0, {len(err)}), got {subset}")
            err = err[rows]
        rmse = float(np.sqrt(np.mean(np.sum(err * err, axis=1))))
    if not np.isfinite(rmse):
        raise NumericalError(f"Procrustes RMSE is not finite ({rmse})")
    return rmse


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
            raise ValueError(f"prediction {pred} is not a known class")
        if true not in index:
            raise ValueError(f"label {true} is not among the given classes")
        mat[index[true], index[pred]] += 1
    return classes, mat
