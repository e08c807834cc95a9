"""Deterministic synthetic-data generators.

Everything here is a pure function of its parameters and a seed: planted
low-rank multi-view instances for recovery oracles, the salt-and-pepper
corruption protocols used by the noise experiments, a 25-point 2-D
reconstruction instance with complementary per-view distance corruption,
and class-structured stand-ins for the labeled feature / retrieval-fusion
experiments.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .embedding import DissimilarityViews
from .features import MultiViewFeatureSet
from .losses import check_integer

__all__ = [
    "NoiseSpec",
    "gen_planted_multiview",
    "corrupt_instances",
    "corrupt_pixels",
    "gen_point_set_views",
    "gen_cluster_retrieval_views",
    "gen_labeled_multiview",
]

_NOISE_KINDS = ("instance_replacement", "pixel_replacement")
# Rows of a distance matrix filled or mirrored per block: the block's
# difference stack is _DISTANCE_BLOCK_ROWS x N x d floats.
_DISTANCE_BLOCK_ROWS = 32
_CLUSTER_SEPARATION = 12.0  # each class centroid's distance from the origin
_OBSERVATION_NOISE = 0.01  # labeled-view noise, relative to the view's RMS signal


@dataclass
class NoiseSpec:
    """What to corrupt and how strongly.

    ``fraction``, in [0, 1], is the share of instances or pixels drawn, from
    ``seed``, as the affected subset.  ``magnitude`` scales the salt/pepper
    amplitude around the clean mean (1.0 reproduces the clean min/max
    exactly).  ``seed`` must be an integer, and ``fraction`` and
    ``magnitude`` reject booleans.
    """

    kind: str
    fraction: float
    magnitude: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        for name in ("fraction", "magnitude"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, not a bool")
        self.seed = check_integer(self.seed, "seed")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if self.magnitude < 0:
            raise ValueError("magnitude must be >= 0")


def _pick_indices(spec, total, rng, what):
    count = int(round(spec.fraction * total))
    if spec.fraction > 0 and count == 0:
        warnings.warn(f"fraction {spec.fraction} selects zero {what}", stacklevel=3)
    return rng.choice(total, size=count, replace=False)


def _salt_pepper_levels(clean, magnitude):
    # Two-level replacement values whose min/max equal the clean extremes
    # (scaled by `magnitude` around the clean mean) and whose expected value
    # equals the clean mean regardless of magnitude.
    lo, hi, mean = float(clean.min()), float(clean.max()), float(clean.mean())
    if hi == lo:
        raise ValueError("clean data is constant; salt-and-pepper levels undefined")
    p_salt = (mean - lo) / (hi - lo)
    salt = mean + magnitude * (hi - mean)
    pepper = mean + magnitude * (lo - mean)
    return pepper, salt, p_salt


def gen_planted_multiview(n_instances, latent_dim, view_dims, seed=0):
    """Exactly low-rank multi-view data z_v = W*_v @ X*.

    There is one view per entry of ``view_dims``.  Returns ``(feature_set,
    true_maps, true_latents)``.  Requires ``1 <= latent_dim < n_instances``
    and ``latent_dim <= min(view_dims)`` so the planted model is
    identifiable in recovery tests.
    """
    if latent_dim < 1:
        raise ValueError("latent_dim must be >= 1")
    if latent_dim >= n_instances:
        raise ValueError(
            f"latent_dim must be < n_instances ({latent_dim} >= {n_instances})"
        )
    if latent_dim > min(view_dims):
        raise ValueError("latent_dim must not exceed any view dimension")
    rng = np.random.default_rng(seed)
    x_true = rng.standard_normal((latent_dim, n_instances))
    w_true = [
        rng.standard_normal((dv, latent_dim)) / np.sqrt(latent_dim) for dv in view_dims
    ]
    fs = MultiViewFeatureSet([w @ x_true for w in w_true])
    return fs, w_true, x_true


def corrupt_instances(fs, view_index, spec: NoiseSpec):
    """Replace whole columns of one view with moment-matched salt and pepper.

    Levels are the clean columns' global min/max and the salt probability is
    chosen so the expected value matches the clean mean; other views are
    untouched.  Returns ``(corrupted_set, affected_indices)``.
    """
    if spec.kind != "instance_replacement":
        raise ValueError(f"expected instance_replacement, got {spec.kind!r}")
    if not 0 <= view_index < fs.n_views:
        raise ValueError(f"view index {view_index} out of range")
    rng = np.random.default_rng(spec.seed)
    n = fs.n_instances
    idx = _pick_indices(spec, n, rng, "instances")
    views = [z.copy() for z in fs.views]
    if idx.size:
        z = views[view_index]
        clean_mask = np.ones(n, dtype=bool)
        clean_mask[idx] = False
        clean = z[:, clean_mask] if clean_mask.any() else z
        pepper, salt, p_salt = _salt_pepper_levels(clean, spec.magnitude)
        draws = rng.random((z.shape[0], idx.size))
        z[:, idx] = np.where(draws < p_salt, salt, pepper)
    return MultiViewFeatureSet(views), np.sort(idx)


def corrupt_pixels(fs, view_index, spec: NoiseSpec):
    """Replace a subset of feature entries of every instance in one view.

    Positions are drawn per instance; the magnitude multiplier scales the
    salt/pepper amplitude without changing positions or the salt/pepper
    pattern for a fixed seed.  Returns ``(corrupted_set, affected_mask)``
    with the mask shaped like the view.
    """
    if spec.kind != "pixel_replacement":
        raise ValueError(f"expected pixel_replacement, got {spec.kind!r}")
    if not 0 <= view_index < fs.n_views:
        raise ValueError(f"view index {view_index} out of range")
    rng = np.random.default_rng(spec.seed)
    views = [z.copy() for z in fs.views]
    z = views[view_index]
    dv, n = z.shape
    pepper, salt, p_salt = _salt_pepper_levels(z, spec.magnitude)
    mask = np.zeros((dv, n), dtype=bool)
    for i in range(n):
        rows = _pick_indices(spec, dv, rng, "pixels")
        mask[rows, i] = True
    draws = rng.random(int(mask.sum()))
    z[mask] = np.where(draws < p_salt, salt, pepper)
    return MultiViewFeatureSet(views), mask


def _pairwise_distances(points):
    """Euclidean distances between the rows of ``points``, one row block at a time.

    Each block's ``(rows, N, d)`` differences are summed over the same
    contiguous last axis as a one-shot ``(N, N, d)`` broadcast would sum
    them, so the matrix is bit-identical to that formula while the scratch
    space stays O(N * d) instead of O(N^2 * d).
    """
    n = points.shape[0]
    dist = np.empty((n, n))
    for start in range(0, n, _DISTANCE_BLOCK_ROWS):
        rows = slice(start, start + _DISTANCE_BLOCK_ROWS)
        diff = points[rows, None, :] - points[None, :, :]
        np.sqrt(np.sum(diff * diff, axis=2), out=dist[rows])
    return dist


def _noisy_distance_view(noisy, points, magnitude, rng, noise_on):
    """Add +-magnitude to every distance touching the given points, in place.

    Noise is drawn for i < j and mirrored; values are clamped at zero.  With
    ``noise_on="raw"`` the corruption hits the plain distances which are then
    squared; ``"squared"`` squares the matrix first and corrupts that.  Every
    step works in the buffer ``noisy``, which is returned as the view, so a
    caller that still needs the distances passes a copy.
    """
    n = noisy.shape[0]
    if noise_on == "squared":
        np.square(noisy, out=noisy)
    bad = np.zeros(n, dtype=bool)
    bad[np.asarray(points, dtype=int)] = True
    k = int(bad.sum())
    # One sign per pair i < j touching a corrupted point, in row-major order.
    signs = magnitude * rng.choice([-1.0, 1.0], size=k * (n - 1) - k * (k - 1) // 2)
    cols = np.arange(n)
    used = 0
    # One row block at a time: add the block's signs to its strict upper
    # triangle, then mirror the upper triangle onto the block's lower part.
    # No step masks or copies the whole matrix.
    for i in range(0, n, _DISTANCE_BLOCK_ROWS):
        block = slice(i, i + _DISTANCE_BLOCK_ROWS)
        hit = (bad[block, None] | bad) & (cols > cols[block, None])
        count = int(hit.sum())
        noisy[block][hit] += signs[used : used + count]
        used += count
        upper = np.triu(noisy[block, block], 1)
        noisy[block, block] = upper + upper.T
        noisy[block, :i] = noisy[:i, block].T
    np.maximum(noisy, 0.0, out=noisy)
    if noise_on == "raw":
        np.square(noisy, out=noisy)
    return noisy


def gen_point_set_views(
    seed=0,
    n_points=25,
    box=4.0,
    magnitude=10.0,
    view1_points=(0, 1, 2, 3),
    view2_points=(23, 24),
    noise_on="raw",
):
    """2-D reconstruction instance with complementary distance corruption.

    The ``n_points`` points are a seeded uniform draw in a square of side
    ``box``.  View 1 corrupts every distance touching ``view1_points`` with
    +-``magnitude`` salt-and-pepper noise, view 2 does the same for
    ``view2_points``; matrices are clamped at zero, symmetrized and squared
    (see ``noise_on``).  Returns ``(points, views)``.
    """
    if noise_on not in ("raw", "squared"):
        raise ValueError(f"noise_on must be 'raw' or 'squared', got {noise_on!r}")
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, box, size=(n_points, 2))
    for p in (*view1_points, *view2_points):
        if not 0 <= p < n_points:
            raise ValueError(f"corrupted point index {p} out of range")
    dist = _pairwise_distances(points)
    d1 = _noisy_distance_view(dist.copy(), view1_points, magnitude, rng, noise_on)
    d2 = _noisy_distance_view(dist, view2_points, magnitude, rng, noise_on)
    return points, DissimilarityViews([d1, d2])


def gen_cluster_retrieval_views(
    classes,
    per_class,
    n_views=2,
    corrupt_per_view=10,
    magnitude=10.0,
    seed=0,
):
    """Class-structured dissimilarity views with complementary corruption.

    Points are unit normal draws around class centroids that sit 12 out on
    one coordinate axis each, so with zero noise retrieval of the
    ``per_class - 1`` nearest neighbours is perfect on any single view.
    Each view then corrupts all distances touching its own disjoint subset
    of ``corrupt_per_view`` instances, so no single view is sufficient but
    the ensemble is.  Returns ``(labels, views)``.
    """
    if classes < 2 or per_class < 2:
        raise ValueError("need at least 2 classes and 2 instances per class")
    n = classes * per_class
    if n_views * corrupt_per_view > n:
        raise ValueError("disjoint corruption subsets exceed instance count")
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(classes), per_class)
    centroids = _CLUSTER_SEPARATION * np.eye(classes)
    pts = centroids[labels] + rng.standard_normal((n, classes))
    dist = _pairwise_distances(pts)
    order = rng.permutation(n)
    deltas = []
    for v in range(n_views):
        subset = order[v * corrupt_per_view : (v + 1) * corrupt_per_view]
        # Later views still read ``dist``; the last one is built in its buffer.
        buf = dist if v == n_views - 1 else dist.copy()
        deltas.append(_noisy_distance_view(buf, subset, magnitude, rng, "raw"))
    return labels, DissimilarityViews(deltas)


def gen_labeled_multiview(
    classes=10,
    per_class=40,
    view_dims=(64, 32),
    latent_dim=8,
    scatter=0.25,
    seed=0,
):
    """Class-structured multi-view features for classification experiments.

    Latent vectors sit around ``classes`` random centroids in
    ``latent_dim`` dimensions; each view observes them through its own
    random linear map plus Gaussian noise (1% of the view's RMS signal, for
    every view), then gets rescaled to unit mean squared column norm (a
    fixed point of view normalization).
    Returns ``(labels, feature_set)``.
    """
    if classes < 2 or per_class < 1:
        raise ValueError("need at least 2 classes and 1 instance per class")
    if latent_dim < 1:
        raise ValueError("latent_dim must be >= 1")
    rng = np.random.default_rng(seed)
    n = classes * per_class
    labels = np.repeat(np.arange(classes), per_class)
    centroids = rng.standard_normal((classes, latent_dim))
    latents = centroids[labels] + scatter * rng.standard_normal((n, latent_dim))
    views = []
    for dv in view_dims:
        w = rng.standard_normal((dv, latent_dim)) / np.sqrt(latent_dim)
        z = w @ latents.T
        z += _OBSERVATION_NOISE * np.sqrt(np.mean(z * z)) * rng.standard_normal((dv, n))
        z /= np.sqrt(np.sum(z * z) / n)  # unit mean squared column norm
        views.append(z)
    return labels, MultiViewFeatureSet(views)
