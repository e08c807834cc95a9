"""Loss and kernel functions: the one definition every solver uses.

The central object is the generalized Gaussian density ``g(e) = gamma *
exp(-lam * |e|**alpha)`` with shape ``alpha`` and bandwidth ``beta``
(``GgdParams``).  Its induced loss ``g(0) - g(e)`` (``gc_loss``) is bounded,
which is what makes the multi-view solvers in this package robust to gross
outliers.  The solvers use the density unnormalized, as the correntropy
kernel ``exp(-|e|**alpha / (2 sigma**alpha))`` (``alpha = 2`` for the
feature solvers, ``EmbedConfig.alpha`` for the embedding solvers), together
with its derivative.  The Cauchy loss and its
IRLS weight, used by the Cauchy baseline, live here as well.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GgdParams",
    "CauchyScale",
    "gc_loss",
    "cauchy_loss",
    "cauchy_weight",
    "correntropy_kernel",
    "correntropy_derivative",
    "check_kernel_size",
    "check_integer",
]

# 2 * sigma**alpha, the kernel's denominator, must be a finite normal float.
_SCALE_MIN = float(np.finfo(float).tiny)
_SCALE_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class GgdParams:
    """Shape/bandwidth parameters of the generalized Gaussian density.

    ``alpha`` is the shape exponent (2 recovers a Gaussian kernel with
    ``sigma = beta / sqrt(2)``), ``beta`` the bandwidth in the units of the
    error being compared.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not self.beta > 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")

    @property
    def lam(self) -> float:
        """Kernel decay rate 1 / beta**alpha."""
        return 1.0 / self.beta**self.alpha

    @property
    def gamma(self) -> float:
        """Normalizing constant alpha / (2 * beta * Gamma(1/alpha))."""
        return self.alpha / (2.0 * self.beta * math.gamma(1.0 / self.alpha))


@dataclass(frozen=True)
class CauchyScale:
    """Scale of the Cauchy loss log(1 + e**2 / c**2)."""

    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"c must be > 0, got {self.c}")


def _abs_pow(e, alpha):
    # |e|**alpha as a power: exp(alpha*log|e|) was up to 1e-12 off, relative,
    # at alpha 3.  e == 0 is short-circuited to 0 so that a negative exponent
    # (alpha - 1 < 0 in the derivative) never sees 0.
    out = np.zeros_like(e)
    nz = e != 0
    out[nz] = np.abs(e[nz]) ** alpha
    return out


def _exponent(e, lam, alpha):
    # -lam * |e|**alpha in one new array; alpha == 2, the solvers' hot path,
    # skips the power.  An exponent that overflows is -inf, whose kernel
    # exp(-inf) is exactly 0.
    with np.errstate(over="ignore"):
        if alpha == 2.0:
            out = np.multiply(-lam, e, out=np.empty_like(e))
            out *= e
        else:
            out = _abs_pow(e, alpha)
            out *= -lam
    return out


def _maybe_scalar(x, arr):
    return float(arr) if np.isscalar(x) or np.ndim(x) == 0 else arr


def gc_loss(e, p: GgdParams):
    """Bounded loss gamma * (1 - exp(-lam * |e|**alpha)) = g(0) - g(e).

    Zero iff ``e == 0``, monotone nondecreasing in ``|e|``, bounded above by
    ``p.gamma``.
    """
    e = np.asarray(e, dtype=float)
    val = p.gamma * (-np.expm1(_exponent(e, p.lam, p.alpha)))
    return _maybe_scalar(e, val)


def cauchy_loss(e, s: CauchyScale):
    """Cauchy loss log(1 + e**2 / c**2); unbounded, zero iff ``e == 0``."""
    e = np.asarray(e, dtype=float)
    val = np.log1p((e / s.c) ** 2)
    return _maybe_scalar(e, val)


def cauchy_weight(e, s: CauchyScale):
    """IRLS weight 1 / (1 + e**2 / c**2) of the Cauchy loss, in (0, 1]."""
    e = np.asarray(e, dtype=float)
    val = 1.0 / (1.0 + (e / s.c) ** 2)
    return _maybe_scalar(e, val)


def correntropy_kernel(e, sigma: float, alpha: float = 2.0):
    """Unnormalized correntropy kernel exp(-|e|**alpha / (2 * sigma**alpha)).

    ``alpha = 2`` is the Gaussian kernel exp(-e**2 / (2 * sigma**2)).  This
    is the form all solver objectives and weights use; the density's
    normalizing constant ``GgdParams.gamma`` is deliberately left out.
    """
    check_kernel_size(sigma, alpha)
    e = np.asarray(e, dtype=float)
    val = _exponent(e, 1.0 / (2.0 * sigma**alpha), alpha)
    np.exp(val, out=val)
    return _maybe_scalar(e, val)


def correntropy_derivative(e, sigma: float, alpha: float = 2.0):
    """Derivative of :func:`correntropy_kernel` with respect to ``e``.

    ``-alpha * |e|**(alpha - 1) * sign(e) * kernel / (2 * sigma**alpha)``,
    which is ``-e * kernel / sigma**2`` for ``alpha = 2``.  Where the kernel
    is 0 the derivative is 0, however large the error.
    """
    e = np.asarray(e, dtype=float)
    kern = correntropy_kernel(e, sigma, alpha)
    # An error whose kernel is 0 is taken as 0, so its power or quotient
    # cannot overflow into an inf that meets the kernel's 0 as nan.  The
    # arrays below are this function's own, so each product is formed in
    # place.
    e = np.where(kern != 0.0, e, 0.0)
    if alpha == 2.0:
        val = e
        val /= -(sigma * sigma)
    else:
        lam = 1.0 / (2.0 * sigma**alpha)
        val = _abs_pow(e, alpha - 1.0)
        val *= -lam * alpha
        val *= np.sign(e, out=e)
    val *= kern
    return _maybe_scalar(kern, val)


def check_kernel_size(sigma, alpha=2.0):
    """Reject a kernel size whose ``2 * sigma**alpha`` is not a finite normal float.

    Outside that range the kernel's exponent divides by zero or overflows.
    For ``alpha = 2`` the usable sizes are about 1.05e-154 to 9.48e153.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if not sigma > 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    try:
        scale = 2.0 * float(sigma) ** float(alpha)
    except OverflowError:
        scale = math.inf
    if not _SCALE_MIN <= scale <= _SCALE_MAX:
        low, high = ((bound / 2.0) ** (1.0 / alpha) for bound in (_SCALE_MIN, _SCALE_MAX))
        raise ValueError(
            f"sigma={sigma} is out of range for alpha={alpha}: "
            f"use a size between {low:.3g} and {high:.3g}"
        )


def check_integer(value, name):
    """``value`` as an int; bools, strings and non-integral numbers raise ``ValueError``."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)
