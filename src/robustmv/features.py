"""Alternating solvers for feature-based multi-view learning.

Four solvers share one alternation skeleton: a latent matrix ``X`` (one
column per instance) and per-view linear maps ``W`` are fit so that every
view ``Z_v`` is approximately ``W_v @ X``.  They differ only in how the
auxiliary weights ``A`` are refreshed in the outer loop:

* ``cmv_fit``      -- correntropy loss, one weight per (view, instance);
* ``cemv_fit``     -- correntropy loss, one weight per (view, entry);
* ``l2mv_fit``     -- plain least squares, weights frozen at -1;
* ``cauchymv_fit`` -- Cauchy loss via iteratively reweighted least squares.

Weights are kept negative (minus a correntropy kernel or Cauchy IRLS
weight from :mod:`robustmv.losses`) so that the half-quadratic surrogate
traced by the correntropy solvers is maximized; the inner x/W updates are
weighted ridge solves in the equivalent positive-weight form.  All four
solvers share one x-core and one W-core.  A view's positive weights have
shape ``(r_v, N)``: one row (``r_v = 1``) for an instance weight, one row
per feature (``r_v = d_v``) for entry weights.  The rows of ``W_v`` that
share a weight row are grouped, so every update is one stack of SPD systems
solved together: ``(N, d, d)`` for the x-update and ``(sum_v r_v, d, d)``,
every view's systems at once, for the W-update.  Each stack is factored
once: its batched Cholesky factor is the definiteness check and, by forward
and back substitution, the solve.
"""

import math
from dataclasses import dataclass

import numpy as np

from .losses import (
    CauchyScale,
    cauchy_loss,
    cauchy_weight,
    check_integer,
    check_kernel_size,
    correntropy_kernel,
)
from .trace import NumericalError, SolverTrace

__all__ = [
    "MultiViewFeatureSet",
    "CmvConfig",
    "IntactSpaceModel",
    "normalize_views",
    "cmv_update_a",
    "cmv_update_x",
    "cmv_update_w",
    "cmv_objective",
    "cmv_fit",
    "cemv_sigmas",
    "cemv_update_a",
    "cemv_update_x",
    "cemv_update_w",
    "cemv_objective",
    "cemv_fit",
    "l2mv_fit",
    "cauchymv_fit",
    "instance_weight_profile",
]


@dataclass
class MultiViewFeatureSet:
    """M feature matrices over N shared instances.

    ``views[v]`` has shape ``(d_v, N)``; column ``i`` is the feature vector
    of instance ``i`` in view ``v``.
    """

    views: list

    def __post_init__(self):
        if not self.views:
            raise ValueError("at least one view is required")
        self.views = [np.asarray(v, dtype=float) for v in self.views]
        for v, z in enumerate(self.views):
            if z.ndim != 2:
                raise ValueError(f"view {v} must be a 2-D matrix, got shape {z.shape}")
            if z.shape[0] < 1 or z.shape[1] < 1:
                raise ValueError(f"view {v} has empty shape {z.shape}")
            if not np.all(np.isfinite(z)):
                raise ValueError(f"view {v} contains non-finite values")
        counts = {z.shape[1] for z in self.views}
        if len(counts) != 1:
            raise ValueError(f"views disagree on instance count: {sorted(counts)}")

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def n_instances(self) -> int:
        return self.views[0].shape[1]

    @property
    def view_dims(self) -> list:
        return [z.shape[0] for z in self.views]


@dataclass
class CmvConfig:
    """Configuration shared by all feature-space solvers.

    ``c1``/``c2`` are the ridge coefficients appearing verbatim in the
    closed-form W/x updates.  ``sigma`` doubles as the Cauchy scale for
    ``cauchymv_fit``; ``cemv_fit`` uses ``sigma / sqrt(d_v)`` for view v.
    ``sigma`` must lie in the range ``losses.check_kernel_size`` accepts,
    and integer fields pass ``losses.check_integer``: booleans, strings and
    non-integral numbers are rejected.
    """

    latent_dim: int
    sigma: float = 0.5
    c1: float = 1e-3
    c2: float = 1e-3
    max_outer: int = 50
    max_inner: int = 5
    rel_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        for name in ("latent_dim", "max_outer", "max_inner", "seed"):
            setattr(self, name, check_integer(getattr(self, name), name))
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        check_kernel_size(self.sigma)
        if not (0 < self.c1 < np.inf and 0 < self.c2 < np.inf):
            raise ValueError("c1 and c2 must be finite and > 0")
        if self.max_outer < 1 or self.max_inner < 1:
            raise ValueError("iteration caps must be >= 1")
        if not 0 <= self.rel_tol < np.inf:
            raise ValueError("rel_tol must be finite and >= 0")


@dataclass
class IntactSpaceModel:
    """Fitted latent representation.

    ``X`` is ``(d, N)`` with one latent column per instance, ``W`` the list
    of per-view maps ``(d_v, d)``.  ``A`` holds the auxiliary weights: an
    ``(M, N)`` array for the instance-weighted solvers, or one ``(d_v, N)``
    array per view for the entrywise solver.  All weights lie in ``[-1, 0)``
    (exactly -1 for ``l2mv_fit``).
    """

    X: np.ndarray
    W: list
    A: object
    trace: SolverTrace


def normalize_views(fs: MultiViewFeatureSet) -> MultiViewFeatureSet:
    """Divide each view by its mean squared column norm.

    The scale is ``sum_i ||z_i||^2 / N``; a view whose scale is already 1 is
    a fixed point, otherwise re-running changes the scale again (the rule is
    intentionally not idempotent).  An all-zero view is rejected, and a view
    whose scale overflows raises ``NumericalError``.
    """
    out = []
    for v, z in enumerate(fs.views):
        with np.errstate(over="ignore"):  # an overflow is rejected below
            scale = np.sum(z * z) / z.shape[1]
        if scale == 0.0:
            raise ValueError(f"view {v} is all zeros; cannot normalize")
        if not np.isfinite(scale):
            raise NumericalError(f"view {v}: mean squared column norm overflows")
        out.append(z / scale)
    return MultiViewFeatureSet(out)


def cho_factor(lhs):
    """Batched lower Cholesky factor of a stack of SPD matrices.

    Raises ``LinAlgError`` when a matrix of the stack is not positive
    definite.  This is the only factorization of the feature solvers, one
    per stack, so a profiler that wraps this name counts all of them.
    """
    return np.linalg.cholesky(lhs)


def _solve_spd_stack(lhs, rhs):
    """Solve ``lhs[k] @ x[k] = rhs[k]`` for a ``(n, d, d)`` stack of SPD systems.

    ``rhs`` is ``(n, d, m)``.  The stack is factored once: the batched
    Cholesky factor ``L`` is the definiteness check (a system that is not
    positive definite raises ``LinAlgError`` instead of being solved) and
    then solves by forward substitution on ``L`` and back substitution on
    ``L.T``.  Each of the ``2 d`` steps covers the whole stack and every
    right-hand-side column.
    """
    if not np.all(np.isfinite(lhs)):
        raise NumericalError("linear system overflowed to non-finite values")
    L = cho_factor(lhs)
    x = np.array(rhs, dtype=float)
    d = L.shape[-1]
    for i in range(d):  # L y = rhs
        x[:, i] -= (L[:, i, None, :i] @ x[:, :i])[:, 0]
        x[:, i] /= L[:, i, i, None]
    for i in reversed(range(d)):  # L.T x = y
        x[:, i] -= (L[:, None, i + 1 :, i] @ x[:, i + 1 :])[:, 0]
        x[:, i] /= L[:, i, i, None]
    return x


def _weighted_sum(p, mats):
    """``out[n] = sum_j p[j, n] * mats[j]`` for ``p`` ``(J, N)`` and ``mats`` ``(J, d, d)``.

    Same sum as ``einsum("jn,jde->nde")``, but as one BLAS matmul.
    """
    d = mats.shape[-1]
    return (p.T @ mats.reshape(len(mats), d * d)).reshape(-1, d, d)


def _residuals(fs, X, W):
    return [fs.views[v] - W[v] @ X for v in range(fs.n_views)]


def _res2(fs, X, W):
    # Squared residual norm of every (view, instance) pair, shape (M, N).
    return np.stack([np.sum(r * r, axis=0) for r in _residuals(fs, X, W)])


def _hq_weight(e, sigma):
    # Minus the correntropy kernel, floored to stay negative where it underflows.
    return -np.maximum(correntropy_kernel(e, sigma), np.finfo(float).tiny)


def _g(a):
    # Convex HQ potential evaluated on negative weights.
    return -a * np.log(-a) + a


def _check_weights(P):
    # Before any product: an infinite weight times a zero entry is NaN.
    if not all(np.isfinite(pv).all() for pv in P):
        raise NumericalError("non-finite weights")


def _ridge_x(fs, W, P, c2):
    """Latent update: one weighted ridge system per instance, solved as a stack.

    ``P[v]`` is ``(r_v, N)``; weight row ``k`` covers the ``k``-th block of
    ``d_v / r_v`` rows of ``W_v``, whose Gram is one ``(d, d)`` matrix.
    """
    _check_weights(P)
    d = W[0].shape[1]
    grams = []
    for wv, pv in zip(W, P):
        g = wv.reshape(len(pv), -1, d)
        grams.append(g.transpose(0, 2, 1) @ g)  # (r_v, d, d)
    lhs = _weighted_sum(np.concatenate(P), np.concatenate(grams)) + c2 * np.eye(d)
    rhs = sum((pv * zv).T @ wv for wv, pv, zv in zip(W, P, fs.views))  # (N, d)
    return _solve_spd_stack(lhs, rhs[:, :, None])[..., 0].T


def _ridge_w(fs, X, P, c1):
    """Map update: ridge regression of each view's rows onto ``X`` under weights ``P``.

    The ``d_v / r_v`` rows of ``W_v`` that share weight row ``k`` of
    ``P[v]`` (shape ``(r_v, N)``) share one ``(d, d)`` system.  Every view's
    systems form one ``(sum_v r_v, d, d)`` stack, solved together; each
    right-hand side is zero-padded to the widest, ``max_v d_v / r_v``
    columns, and padded columns solve to exactly zero.
    """
    _check_weights(P)
    d = X.shape[0]
    # Instance i contributes P[v][k, i] * outer(x_i, x_i) to system k of view v.
    outers = np.einsum("in,jn->nij", X, X)
    lhs = _weighted_sum(np.concatenate(P).T, outers) + c1 * np.eye(d)
    starts = np.cumsum([0] + [len(pv) for pv in P])
    cols = [zv.shape[0] // len(pv) for pv, zv in zip(P, fs.views)]
    rhs = np.zeros((len(lhs), d, max(cols)))
    for pv, zv, s, c in zip(P, fs.views, starts, cols):
        rhs[s : s + len(pv), :, :c] = ((pv * zv) @ X.T).reshape(len(pv), c, d).transpose(0, 2, 1)
    sol = _solve_spd_stack(lhs, rhs)
    return [
        sol[s : s + len(pv), :, :c].transpose(0, 2, 1).reshape(zv.shape[0], d)
        for pv, zv, s, c in zip(P, fs.views, starts, cols)
    ]


# ---------------------------------------------------------------------------
# instance-weighted solvers (C-MV family)
# ---------------------------------------------------------------------------


def cmv_update_a(fs, X, W, sigma):
    """Per-instance weights a[v, i] = -exp(-||z_i^v - W_v x_i||^2 / 2 sigma^2)."""
    return _hq_weight(np.sqrt(_res2(fs, X, W)), sigma)


def cmv_update_x(fs, W, a, c2):
    """Closed-form latent update given maps and instance weights.

    Solves, independently per instance, the ridge problem
    ``min_x sum_v p_v ||z_i^v - W_v x||^2 + c2 ||x||^2`` with ``p = -a > 0``.
    """
    return _ridge_x(fs, W, -np.asarray(a)[:, None], c2)


def cmv_update_w(fs, X, a, c1):
    """Closed-form map update: ridge regression of each view onto X."""
    return _ridge_w(fs, X, -np.asarray(a)[:, None], c1)


def _penalty(W, X, c1, c2, view_balance=None):
    wpen = 0.0
    for v, wv in enumerate(W):
        term = np.sum(wv * wv)
        if view_balance is not None:
            term /= view_balance[v]
        wpen += term
    return c1 * wpen + c2 * np.sum(X * X)


def cmv_objective(fs, X, W, A, cfg: CmvConfig) -> float:
    """Half-quadratic surrogate maximized by the C-MV alternation.

    With ``b = res^2 / (2 sigma^2)`` this is
    ``sum(b*A - g(A)) - (c1*||W||^2 + c2*||X||^2) / (2 sigma^2)``,
    which every block update (A, X, W) increases and which is bounded above
    by M*N.
    """
    A = np.asarray(A)
    if not np.all(A < 0):
        raise ValueError("auxiliary weights must be strictly negative")
    two_s2 = 2.0 * cfg.sigma * cfg.sigma
    hq = np.sum(_res2(fs, X, W) / two_s2 * A - _g(A))
    return float(hq - _penalty(W, X, cfg.c1, cfg.c2) / two_s2)


def _l2_objective(fs, X, W, A, cfg):
    res2 = sum(np.sum(r * r) for r in _residuals(fs, X, W))
    return float(res2 + _penalty(W, X, cfg.c1, cfg.c2))


def _cauchy_objective(fs, X, W, A, cfg):
    loss = np.sum(cauchy_loss(np.sqrt(_res2(fs, X, W)), CauchyScale(cfg.sigma)))
    return float(loss + _penalty(W, X, cfg.c1, cfg.c2) / (cfg.sigma * cfg.sigma))


def _init_maps(fs, cfg):
    # Keyed on (seed, view dim) so views of equal dimension start from the
    # same map; identical views then behave symmetrically from the start.
    scale = 1.0 / math.sqrt(cfg.latent_dim)
    return [
        np.random.default_rng((cfg.seed, dv)).standard_normal((dv, cfg.latent_dim))
        * scale
        for dv in fs.view_dims
    ]


def _alternate(fs, cfg, solver, update_a, update_x, update_w, objective, unit_a):
    """Shared double loop: refresh A, then alternate x/W updates.

    An overflow, invalid operation or division by zero anywhere in the fit
    (a squared residual past the float range, say) raises ``NumericalError``
    instead of a warning, naming ``solver``.  The check changes no value a
    fit computes.
    """
    if cfg.latent_dim >= fs.n_instances:
        raise ValueError(
            f"latent_dim must be < instance count ({cfg.latent_dim} >= {fs.n_instances})"
        )
    trace = SolverTrace()
    prev = None
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            W = _init_maps(fs, cfg)
            X = update_x(fs, W, unit_a, cfg.c2)
            for _ in range(cfg.max_outer):
                A = update_a(fs, X, W, cfg)
                for _ in range(cfg.max_inner):
                    X = update_x(fs, W, A, cfg.c2)
                    W = update_w(fs, X, A, cfg.c1)
                obj = objective(fs, X, W, A, cfg)
                if not np.isfinite(obj):
                    raise NumericalError(f"{solver}: non-finite objective {obj}")
                trace.record(obj)
                if not np.any(X):
                    # A zero latent matrix is a degenerate fit, not a converged one.
                    trace.finish(False, "latent matrix collapsed to zero")
                    break
                if prev is not None and abs(obj - prev) <= cfg.rel_tol * max(1.0, abs(prev)):
                    trace.finish(True, "objective change below rel_tol")
                    break
                prev = obj
            else:
                trace.finish(False, "max_outer reached")
    except FloatingPointError as exc:
        raise NumericalError(f"{solver}: {exc}") from None
    return IntactSpaceModel(X=X, W=W, A=A, trace=trace)


def _unit_instance_weights(fs):
    return -np.ones((fs.n_views, fs.n_instances))


def _instance_fit(fs, cfg, solver, update_a, objective):
    # The instance-weighted solvers differ only in the A-refresh and objective.
    unit = _unit_instance_weights(fs)
    return _alternate(fs, cfg, solver, update_a, cmv_update_x, cmv_update_w, objective, unit)


def cmv_fit(fs: MultiViewFeatureSet, cfg: CmvConfig) -> IntactSpaceModel:
    """Correntropy multi-view fit with per-instance weighting.

    Expects normalized views (see :func:`normalize_views`).  The recorded
    objective is :func:`cmv_objective`; it is non-decreasing across outer
    iterations and bounded by ``M * N``.
    """
    return _instance_fit(
        fs, cfg, "cmv", lambda fs_, X, W, c: cmv_update_a(fs_, X, W, c.sigma), cmv_objective
    )


def l2mv_fit(fs: MultiViewFeatureSet, cfg: CmvConfig) -> IntactSpaceModel:
    """Least-squares baseline: the same alternation with A frozen at -1."""
    return _instance_fit(
        fs, cfg, "l2mv", lambda fs_, X, W, c: _unit_instance_weights(fs_), _l2_objective
    )


def _cauchy_update_a(fs, X, W, cfg):
    # IRLS weight of log(1 + res^2/c^2); cfg.sigma plays the role of c.
    return -cauchy_weight(np.sqrt(_res2(fs, X, W)), CauchyScale(cfg.sigma))


def cauchymv_fit(fs: MultiViewFeatureSet, cfg: CmvConfig) -> IntactSpaceModel:
    """Cauchy-loss baseline solved by iteratively reweighted least squares."""
    return _instance_fit(fs, cfg, "cauchymv", _cauchy_update_a, _cauchy_objective)


# ---------------------------------------------------------------------------
# entrywise solver (Ce-MV)
# ---------------------------------------------------------------------------


def cemv_sigmas(fs, cfg):
    """Per-view kernel sizes sigma / sqrt(d_v)."""
    return [cfg.sigma / math.sqrt(dv) for dv in fs.view_dims]


def cemv_update_a(fs, X, W, sigmas):
    """Entrywise weights a[v][j, i] = -exp(-(z_ji^v - W_j^v x_i)^2 / 2 sigma_v^2)."""
    return [_hq_weight(r, s) for r, s in zip(_residuals(fs, X, W), sigmas)]


def cemv_update_x(fs, W, a, c2):
    """Latent update with entrywise weights and 1/d_v view balancing."""
    return _ridge_x(fs, W, [-np.asarray(av) / dv for av, dv in zip(a, fs.view_dims)], c2)


def cemv_update_w(fs, X, a, c1):
    """Map update with one weighted ridge system per map row, solved as a stack.

    No view balancing enters here.
    """
    return _ridge_w(fs, X, [-np.asarray(av) for av in a], c1)


def cemv_objective(fs, X, W, A, cfg: CmvConfig) -> float:
    """Half-quadratic surrogate maximized by the Ce-MV alternation.

    Each view's HQ sum (with ``b = res^2 / (2 sigma_v^2)``) is weighted by
    ``sigma_v^2 / (d_v * max_w sigma_w^2)``; that weighting is exactly what
    makes the closed-form updates above blockwise-exact ascent steps when
    kernel sizes differ per view, and it keeps the total bounded by M*N.
    """
    sigmas = cemv_sigmas(fs, cfg)
    s2 = [s * s for s in sigmas]
    t = 1.0 / (2.0 * max(s2))
    hq = 0.0
    for v, r in enumerate(_residuals(fs, X, W)):
        av = np.asarray(A[v])
        if not np.all(av < 0):
            raise ValueError("auxiliary weights must be strictly negative")
        b = (r * r) / (2.0 * s2[v])
        kappa = 2.0 * s2[v] * t / fs.view_dims[v]
        hq += kappa * np.sum(b * av - _g(av))
    pen = _penalty(W, X, cfg.c1, cfg.c2, view_balance=fs.view_dims)
    return float(hq - t * pen)


def cemv_fit(fs: MultiViewFeatureSet, cfg: CmvConfig) -> IntactSpaceModel:
    """Entrywise correntropy multi-view fit.

    Weights individual feature entries rather than whole instances, so a few
    corrupted coordinates cannot drag down an otherwise clean instance.
    """
    sigmas = cemv_sigmas(fs, cfg)
    unit = [-np.ones((dv, fs.n_instances)) for dv in fs.view_dims]
    return _alternate(
        fs,
        cfg,
        "cemv",
        lambda fs_, X, W, c: cemv_update_a(fs_, X, W, sigmas),
        cemv_update_x,
        cemv_update_w,
        cemv_objective,
        unit,
    )


def instance_weight_profile(model: IntactSpaceModel) -> np.ndarray:
    """Weight magnitudes per (view, instance), in [0, 1].

    For the entrywise solver this is the per-instance mean of the entry
    weights, which is the quantity worth plotting against noise labels.
    """
    if isinstance(model.A, np.ndarray):
        return np.abs(model.A)
    return np.stack([np.abs(av).mean(axis=0) for av in model.A])
