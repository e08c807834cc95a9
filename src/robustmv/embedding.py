"""Dissimilarity-matrix solvers.

Given one or more symmetric nonnegative dissimilarity matrices, these
solvers look for a Gram matrix ``B`` on the positive semidefinite cone whose
induced squared-distance matrix ``D`` (``D_ij = B_ii + B_jj - B_ij - B_ji``)
agrees with the views.  Classical MDS does it in closed form for a single
view; the iterative solvers trade the quadratic fit for an L1 cost
(subgradient steps) or a bounded correntropy score (L1 warm start, then
spectral projected gradient ascent: Barzilai-Borwein trial steps, monotone
backtracking and a score-change stop), each step followed by projection
back onto the PSD cone.  The projection eigendecomposes only inputs that
one Cholesky factorization fails to certify positive definite; a certified
input is its own projection.  The correntropy kernel and its derivative
come from :mod:`robustmv.losses`.  Coordinates come out of the final
eigendecomposition, ordered by descending eigenvalue.

Entry convention: matrices hold *squared* dissimilarities throughout, every
entry of every view counts equally, and objectives/gradients sum over
ordered index pairs exactly the way the formulas below state, so a
symmetric pair contributes twice to the reported objective while the
gradient treats it once.
"""

from dataclasses import dataclass, field

import numpy as np

from .losses import check_integer, check_kernel_size, correntropy_derivative, correntropy_kernel
from .trace import NumericalError, SolverTrace

__all__ = [
    "DissimilarityViews",
    "EmbedConfig",
    "EmbeddingResult",
    "b_to_d",
    "double_center",
    "cmds",
    "psd_project",
    "mvree_subgradient",
    "cmvree_gradient",
    "f0_objective",
    "f_objective",
    "ree_fit",
    "hadamard_combine",
    "median_kernel_size",
]

_MIN_STEP_SCALE = 2.0**-20  # backtracking floor of correntropy ascent, relative to cfg.step
_SCORE_RTOL = 1e-6  # correntropy ascent stops once a step gains at most this share of |score|


def _check_square_symmetric(m, name, atol=0.0):
    """``m`` as a float array; raise unless it is square and symmetric.

    Exact equality is tested first and the entrywise ``atol`` tolerance only
    when that fails.  The solver iterates are exactly symmetric by
    construction, so inside ``ree_fit`` the check costs one comparison; the
    verdict is the same as the tolerance test's alone for every input (NaN
    fails both, symmetric infinities pass both).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.array_equal(m, m.T) and not (
        atol > 0 and np.allclose(m, m.T, atol=atol, rtol=0.0)
    ):
        raise ValueError(f"{name} must be symmetric")
    return m


@dataclass
class DissimilarityViews:
    """M symmetric nonnegative N x N matrices with zero diagonal.

    Entries must be finite, and every view must have the same size.  Every
    entry of every view counts equally in the solvers' costs.
    """

    deltas: list

    def __post_init__(self):
        if not self.deltas:
            raise ValueError("at least one view is required")
        checked = []
        for v, m in enumerate(self.deltas):
            m = np.asarray(m, dtype=float)
            # Finiteness first, so a NaN is not reported as an asymmetry.
            if not np.all(np.isfinite(m)):
                raise ValueError(f"view {v} contains non-finite values")
            m = _check_square_symmetric(m, f"view {v}")
            if np.any(m < 0):
                raise ValueError(f"view {v} has negative entries")
            if np.any(np.diag(m) != 0):
                raise ValueError(f"view {v} must have a zero diagonal")
            checked.append(m)
        sizes = {m.shape[0] for m in checked}
        if len(sizes) != 1:
            raise ValueError(f"views disagree on size: {sorted(sizes)}")
        self.deltas = checked

    @property
    def weights(self) -> list:
        """The REE model's unit entry weights ``W_ij``: a read-only 1.0 per view."""
        return [np.broadcast_to(1.0, m.shape) for m in self.deltas]

    @property
    def n_views(self) -> int:
        return len(self.deltas)

    @property
    def n_points(self) -> int:
        return self.deltas[0].shape[0]


@dataclass
class EmbedConfig:
    """Settings for the iterative embedding solvers.

    ``sigma=None`` selects the median of all pooled off-diagonal
    dissimilarities at fit time.  ``step`` sets both step rules of
    ``ree_fit``: ``step / sqrt(k)`` at L1 iteration k, and ``step`` as the
    trial step of the first correntropy ascent iteration (later trials are
    Barzilai-Borwein steps) and the scale of its backtracking floor.  A
    given ``sigma`` must lie in the range ``losses.check_kernel_size``
    accepts for ``alpha``, and integer fields pass ``losses.check_integer``:
    booleans, strings and non-integral numbers are rejected.
    """

    target_dim: int = 2
    sigma: float = None
    alpha: float = 2.0
    step: float = 0.1
    max_iter: int = 500
    seed: int = 0

    def __post_init__(self):
        for name in ("target_dim", "max_iter", "seed"):
            setattr(self, name, check_integer(getattr(self, name), name))
        if self.target_dim < 1:
            raise ValueError("target_dim must be >= 1")
        if not 0 < self.alpha < np.inf:
            raise ValueError("alpha must be finite and > 0")
        if self.sigma is not None:
            check_kernel_size(self.sigma, self.alpha)
        if not 0 < self.step < np.inf:
            raise ValueError("step must be finite and > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class EmbeddingResult:
    """Final configuration of an embedding run.

    ``configuration`` is the ``N x target_dim`` working configuration: the
    leading columns of ``U * sqrt(clipped eigenvalues)``, ordered by
    descending eigenvalue.  ``eigenvalues`` holds all N of them, unclipped,
    in that order, and ``gram`` is the clipped Gram matrix they rebuild.
    """

    configuration: np.ndarray
    eigenvalues: np.ndarray
    gram: np.ndarray
    trace: SolverTrace = field(default_factory=SolverTrace)


def b_to_d(b) -> np.ndarray:
    """Squared-distance matrix induced by a Gram matrix.

    ``D_ij = B_ii + B_jj - B_ij - B_ji``; symmetric with a zero diagonal.
    """
    b = _check_square_symmetric(b, "B", atol=1e-10)
    diag = np.diag(b)
    d = diag[:, None] + diag[None, :] - b - b.T
    np.fill_diagonal(d, 0.0)
    return d


def double_center(delta) -> np.ndarray:
    """-1/2 * H @ delta @ H with H the centering matrix; row/col sums vanish."""
    delta = _check_square_symmetric(delta, "delta", atol=1e-10)
    row = delta.mean(axis=1, keepdims=True)
    col = delta.mean(axis=0, keepdims=True)
    grand = delta.mean()
    return -0.5 * (delta - row - col + grand)


def psd_project(b) -> np.ndarray:
    """Frobenius-nearest PSD matrix: eigendecompose and clip negatives.

    A positive definite input is its own projection.  One Cholesky
    factorization, about a tenth of the eigendecomposition's cost, certifies
    that: when it succeeds with a finite factor the symmetrized input is
    returned as it is (for an exactly symmetric input, the input bit for
    bit).  Otherwise the input is eigendecomposed and rebuilt from its
    positive eigenpairs only, so the product costs N x N x r for r positive
    eigenvalues rather than N^3; a matrix with none projects to zero.
    """
    b = _check_square_symmetric(b, "B", atol=1e-10)
    try:
        factor = np.linalg.cholesky(b)
    except np.linalg.LinAlgError:
        pass
    else:
        if np.all(np.isfinite(factor)):
            return (b + b.T) / 2.0
    w, v = np.linalg.eigh(b)
    # eigh sorts ascending, so the positive eigenpairs are the tail.
    k = np.searchsorted(w, 0.0, side="right")
    vp = v[:, k:]
    out = (vp * w[k:]) @ vp.T
    return (out + out.T) / 2.0


def _configuration_from_gram(b, target_dim, trace):
    w, v = np.linalg.eigh(b)
    order = np.argsort(-w, kind="stable")  # descending, ties by original index
    w, v = w[order], v[:, order]
    wpos = np.maximum(w, 0.0)
    gram = (v * wpos) @ v.T
    gram = (gram + gram.T) / 2.0
    configuration = v[:, :target_dim] * np.sqrt(wpos[:target_dim])
    return EmbeddingResult(configuration=configuration, eigenvalues=w, gram=gram, trace=trace)


def cmds(delta, target_dim: int) -> EmbeddingResult:
    """Classical MDS: double-center, eigendecompose, clip, read coordinates.

    Embedding an exact squared Euclidean distance matrix reproduces it.
    """
    delta = np.asarray(delta, dtype=float)
    if not 1 <= target_dim <= delta.shape[0]:
        raise ValueError(f"target_dim {target_dim} out of range")
    b0 = double_center(delta)
    trace = SolverTrace()
    trace.finish(True, "closed form")
    return _configuration_from_gram(b0, target_dim, trace)


def median_kernel_size(views: DissimilarityViews) -> float:
    """Median of the pooled off-diagonal entries of all views.

    Views are exactly symmetric, so the off-diagonal holds every strict
    upper-triangle entry twice; pooling the upper triangle alone leaves the
    median unchanged (the doubled list's middle pair is the single list's
    middle pair, or its middle value twice).  One point has no off-diagonal
    entry, so it is a ``ValueError``.
    """
    if views.n_points < 2:
        raise ValueError(f"median kernel size needs at least two points, got {views.n_points}")
    upper = ~np.tri(views.n_points, dtype=bool)
    pooled = np.concatenate([m[upper] for m in views.deltas])
    med = float(np.median(pooled))
    if med <= 0:
        raise ValueError("median off-diagonal dissimilarity is not positive")
    return med


def _gram_gradient(views, d, slope):
    """Gradient in ``B`` of a cost whose slope in ``D_ij`` is ``slope(D_ij - delta_ij)``.

    The D-to-B chain rule of every embedding cost: with ``t = sum_v
    slope(D - delta_v)`` the gradient is ``-t`` off the diagonal and the row
    sums of ``t`` on it.
    """
    d = np.asarray(d, dtype=float)
    t = np.zeros_like(d)
    for delta in views.deltas:
        t += slope(d - delta)
    g = -t
    np.fill_diagonal(g, t.sum(axis=1))
    return g


def mvree_subgradient(views: DissimilarityViews, d) -> np.ndarray:
    """Subgradient of the multi-view L1 cost with respect to the Gram matrix.

    Off-diagonal: ``-sum_v sign(D_ij - delta_ij)``; diagonal:
    ``sum_v sum_k sign(D_ik - delta_ik)``.  ``sign(0)`` is 0, a valid
    subgradient choice at ties.
    """
    return _gram_gradient(views, d, np.sign)


def cmvree_gradient(views: DissimilarityViews, d, sigma: float, alpha: float = 2.0):
    """Gradient of the correntropy score with respect to the Gram matrix.

    For ``alpha = 2`` the off-diagonal entry is
    ``sum_v exp(-(delta_ij - D_ij)^2 / 2 sigma^2) * (D_ij - delta_ij) / sigma^2``
    and the diagonal entry is the row sum with the opposite error sign; a
    general shape exponent replaces the Gaussian kernel by
    ``exp(-|e|^alpha / (2 sigma^alpha))`` with the matching chain rule.
    The kernel's derivative is odd in the error, so its slope in ``D`` at
    ``e = delta - D`` is the derivative itself at ``D - delta``.
    """
    return _gram_gradient(views, d, lambda e: correntropy_derivative(e, sigma, alpha))


def f0_objective(views: DissimilarityViews, d) -> float:
    """Total L1 discrepancy, summed over the full matrix."""
    d = np.asarray(d, dtype=float)
    return float(sum(np.sum(np.abs(delta - d)) for delta in views.deltas))


def f_objective(views: DissimilarityViews, d, sigma: float, alpha: float = 2.0) -> float:
    """Total correntropy score, summed over the full matrix.

    Bounded above by the entry count ``M * N^2``.
    """
    d = np.asarray(d, dtype=float)
    total = 0.0
    for delta in views.deltas:
        total += np.sum(correntropy_kernel(delta - d, sigma, alpha))
    return float(total)


def ree_fit(
    views: DissimilarityViews,
    cfg: EmbedConfig,
    loss: str = "correntropy",
    callback=None,
) -> EmbeddingResult:
    """Iterative robust Euclidean embedding of one or more views.

    ``loss="l1"`` takes ``max_iter`` subgradient descent steps on the L1
    cost, step k being ``cfg.step / sqrt(k)``, starting from the PSD
    projection of the double-centered view average.  A single-view L1 run
    is the plain robust-embedding baseline.

    ``loss="correntropy"`` maximizes the bounded correntropy score within the
    same ``max_iter`` budget, in two phases:

    1. *Warm start.*  The first ``max_iter // 2`` iterations are L1
       subgradient steps, exactly as for ``loss="l1"``, from the
       view-average start.  Ascent then starts from whichever of the
       view-average start and the L1 end point has the higher score.
    2. *Ascent.*  The remaining iterations are spectral projected gradient
       ascent steps (Birgin, Martinez & Raydan 2000).  The first iteration
       tries ``cfg.step``; later ones try the Barzilai-Borwein step BB2,
       ``<s, -y> / <y, y>`` with ``s`` and ``y`` the change of ``B`` and of
       the score gradient over the last accepted step, or twice that step
       when ``<s, -y> <= 0``.  The trial is halved, for this iteration only,
       while the step overflows or the projected candidate would lower the
       score; a rejected candidate is never accepted, so the recorded scores
       never decrease.
       The run stops with reason "no ascent step" when the trial falls below
       ``cfg.step * _MIN_STEP_SCALE``, and with "score change below
       tolerance" once an accepted step gains at most ``_SCORE_RTOL`` times
       the absolute score; both count as converged.

    Every iterate ends with a projection onto the PSD cone.  The trace
    records the loss at each accepted iterate (for the correntropy loss:
    the ascent iterations only), and ``callback(iteration, B, objective)``,
    when given, observes those same iterates, numbered from 1.
    """
    if loss not in ("correntropy", "l1"):
        raise ValueError(f"unknown loss {loss!r}")
    n = views.n_points
    if not 1 <= cfg.target_dim <= n:
        raise ValueError(f"target_dim {cfg.target_dim} out of range for N={n}")

    mean_delta = sum(views.deltas) / views.n_views
    b = psd_project(double_center(mean_delta))
    d = b_to_d(b)
    trace = SolverTrace()
    if loss == "l1":
        b, _ = _l1_descent(views, b, d, cfg.step, cfg.max_iter, trace, callback)
        trace.finish(False, "max_iter reached")
        return _configuration_from_gram(b, cfg.target_dim, trace)

    sigma = median_kernel_size(views) if cfg.sigma is None else cfg.sigma

    def score(d):
        return f_objective(views, d, sigma, cfg.alpha)

    obj = score(d)
    n_warm = cfg.max_iter // 2
    b_l1, d_l1 = _l1_descent(views, b, d, cfg.step, n_warm)
    obj_l1 = score(d_l1)
    if obj_l1 > obj:
        b, d, obj = b_l1, d_l1, obj_l1
    _check_finite(obj, loss, 0)

    step = cfg.step
    reason = "max_iter reached"
    for it in range(1, cfg.max_iter - n_warm + 1):
        grad = cmvree_gradient(views, d, sigma, cfg.alpha)
        if it > 1:
            # BB2 for the minimization of -score: <s, -y> / <y, y>.
            s = b - prev_b
            y = np.subtract(grad, prev_grad, out=prev_grad)
            sy, yy = -np.vdot(s, y), np.vdot(y, y)
            del s, y, prev_b, prev_grad
            with np.errstate(all="ignore"):  # yy can underflow to 0
                bb = sy / yy
            step = bb if sy > 0 and np.isfinite(bb) else 2.0 * step
        while step >= cfg.step * _MIN_STEP_SCALE:
            with np.errstate(over="ignore"):  # an overflowing trial is rejected
                trial = b + step * grad
            if np.all(np.isfinite(trial)):
                cand = psd_project(trial)
                d_cand = b_to_d(cand)
                obj_cand = score(d_cand)
                _check_finite(obj_cand, loss, it)
                if obj_cand >= obj:
                    break
            step /= 2.0
        else:
            reason = "no ascent step"
            break
        gain = obj_cand - obj
        prev_b, prev_grad = b, grad
        b, d, obj = cand, d_cand, obj_cand
        trace.record(obj)
        if callback is not None:
            callback(it, b, obj)
        if gain <= _SCORE_RTOL * abs(obj):
            reason = "score change below tolerance"
            break
    trace.finish(reason != "max_iter reached", reason)
    return _configuration_from_gram(b, cfg.target_dim, trace)


def _l1_descent(views, b, d, step, iters, trace=None, callback=None):
    """``iters`` projected subgradient steps on the multi-view L1 cost.

    ``d`` is ``b_to_d(b)`` and step i (from 1) is ``step / sqrt(i)``.  Given
    a ``trace``, the cost of every iterate is recorded there and passed to
    ``callback``.  Returns the final Gram matrix and its distances.
    """
    for it in range(1, iters + 1):
        b = psd_project(b - (step / np.sqrt(it)) * mvree_subgradient(views, d))
        d = b_to_d(b)
        if trace is not None:
            obj = f0_objective(views, d)
            _check_finite(obj, "l1", it)
            trace.record(obj)
            if callback is not None:
                callback(it, b, obj)
    return b, d


def _check_finite(obj, loss, it):
    if not np.isfinite(obj):
        raise NumericalError(f"ree_fit({loss}): non-finite objective at iter {it}")


def hadamard_combine(delta_a, delta_b) -> np.ndarray:
    """Entrywise geometric mean sqrt(delta_a * delta_b) of two views."""
    a = np.asarray(delta_a, dtype=float)
    b = np.asarray(delta_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return np.sqrt(a * b)
