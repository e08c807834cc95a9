"""Identities and bounds of the scalar loss functions."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from robustmv import CauchyScale, GgdParams, cauchy_loss, correntropy_kernel, gc_loss
from robustmv.losses import cauchy_weight, correntropy_derivative


class TestGgd:
    def test_gamma_normalizes_the_density(self):
        # The density gamma * exp(-lam * |e|**alpha) integrates to 1.
        for alpha, beta in [(2.0, 1.0), (1.0, 0.5), (3.5, 2.0)]:
            p = GgdParams(alpha, beta)
            grid = np.linspace(-60 * beta, 60 * beta, 600_001)
            density = p.gamma * np.exp(-p.lam * np.abs(grid) ** p.alpha)
            assert np.sum(density) * (grid[1] - grid[0]) == pytest.approx(1.0, rel=1e-6)

    def test_gaussian_special_case(self):
        # alpha=2, beta=sqrt(2) is the standard Gaussian kernel.
        p = GgdParams(2.0, math.sqrt(2.0))
        assert p.lam == pytest.approx(0.5, rel=1e-15)
        assert p.gamma == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            GgdParams(0.0, 1.0)
        with pytest.raises(ValueError):
            GgdParams(2.0, -1.0)


class TestGcLoss:
    def test_zero_error_zero_loss(self):
        assert gc_loss(0.0, GgdParams(2.0, 1.0)) == 0.0

    def test_direct_formula(self):
        # alpha=2, beta=1 gives lam=1.
        p = GgdParams(2.0, 1.0)
        assert gc_loss(1.0, p) == pytest.approx(p.gamma * (1.0 - math.exp(-1.0)), rel=1e-12)

    def test_bounded_by_gamma(self):
        p = GgdParams(2.0, 3.0)
        assert gc_loss(1e6 * p.beta, p) == pytest.approx(p.gamma, abs=1e-6 * p.gamma)
        grid = np.linspace(-50, 50, 501)
        assert np.all(gc_loss(grid, p) < p.gamma + 1e-15)

    @given(st.floats(-100, 100, allow_nan=False))
    def test_equals_ggd_gap(self, e):
        p = GgdParams(1.7, 1.1)
        gap = p.gamma * (1.0 - math.exp(-p.lam * abs(e) ** p.alpha))
        assert gc_loss(e, p) == pytest.approx(gap, abs=1e-12)

    @given(st.floats(-1e6, 1e6, allow_nan=False))
    def test_even_symmetry(self, e):
        p = GgdParams(1.5, 2.0)
        assert gc_loss(e, p) == gc_loss(-e, p)

    def test_monotone_in_abs_error(self):
        p = GgdParams(1.5, 1.0)
        grid = np.linspace(0, 20, 400)
        vals = gc_loss(grid, p)
        assert np.all(np.diff(vals) >= 0)

    def test_matches_correntropy_loss_for_alpha_two(self):
        # alpha=2 with sigma^2 = beta^2/2 is the correntropy loss up to gamma.
        beta = 1.8
        p = GgdParams(2.0, beta)
        sigma = beta / math.sqrt(2.0)
        grid = np.linspace(-4, 4, 81)
        expected = p.gamma * (1.0 - correntropy_kernel(grid, sigma))
        np.testing.assert_allclose(gc_loss(grid, p), expected, rtol=1e-12)


class TestCauchyLoss:
    def test_zero_and_symmetry_point(self):
        s = CauchyScale(2.0)
        assert cauchy_loss(0.0, s) == 0.0
        assert cauchy_loss(2.0, s) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_unbounded(self):
        s = CauchyScale(1.5)
        assert cauchy_loss(s.c * 1e6, s) > 25.0

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            CauchyScale(0.0)

    def test_taylor_agreement_with_correntropy(self):
        # With lam = 1/c^2 the first two Taylor terms coincide, so the gap is
        # sixth order in e/c.
        c = 2.0
        s = CauchyScale(c)
        for e in np.linspace(-0.1 * c, 0.1 * c, 41):
            gap = abs(cauchy_loss(e, s) - (1.0 - math.exp(-(e / c) ** 2)))
            assert gap <= abs(e / c) ** 6 + 1e-15

    def test_sixth_order_taylor_band(self):
        c = 1.3
        s = CauchyScale(c)
        grid = np.linspace(-0.05 * c, 0.05 * c, 101)
        gap = np.abs(cauchy_loss(grid, s) - (1.0 - np.exp(-((grid / c) ** 2))))
        assert np.all(gap <= 2.0 * np.abs(grid / c) ** 6 + 1e-16)


class TestCorrentropyKernel:
    @given(st.floats(-1e3, 1e3, allow_nan=False), st.floats(1e-3, 1e3))
    def test_alpha_two_is_gaussian(self, e, sigma):
        # Both sides round the exponent e^2 / (2 sigma^2) differently, and exp
        # scales that rounding by the exponent; inside |e| <= sigma*sqrt(2)
        # (exponent <= 1) the bound is a plain 1e-15 relative.
        expo = e * e / (2.0 * sigma * sigma)
        ref = math.exp(-expo)
        got = correntropy_kernel(e, sigma)
        assert abs(got - ref) <= 1e-15 * max(1.0, expo) * ref

    @given(st.floats(-50, 50, allow_nan=False), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    @example(e=18.39198198494215, alpha=3.0)  # exp(3 log|e|) was 1.02e-12 off here
    def test_general_shape(self, e, alpha):
        sigma = 1.7
        ref = math.exp(-abs(e) ** alpha / (2.0 * sigma**alpha))
        assert correntropy_kernel(e, sigma, alpha) == pytest.approx(ref, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_overflowing_exponent_gives_zero_kernel(self, alpha):
        # |e|**alpha / (2 sigma**alpha) overflows to inf: the kernel is exactly
        # 0, without the overflow warning the suite turns into an error.
        errors = np.array([1e200, -1e300, 1.0])
        kernel = correntropy_kernel(errors, 1.0, alpha)
        assert kernel[0] == kernel[1] == 0.0 and kernel[2] > 0.0

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_derivative_matches_finite_differences(self, alpha):
        sigma, h = 0.8, 1e-6
        grid = np.linspace(-3.0, 3.0, 61) + 0.013  # clear of the kink at e = 0
        fd = (correntropy_kernel(grid + h, sigma, alpha)
              - correntropy_kernel(grid - h, sigma, alpha)) / (2 * h)
        np.testing.assert_allclose(
            correntropy_derivative(grid, sigma, alpha), fd, rtol=1e-6, atol=1e-9
        )

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("sigma", [1.0, 1e-5])
    def test_derivative_is_zero_where_kernel_is_zero(self, alpha, sigma):
        # The power and the quotient would overflow at these errors; the
        # kernel's 0 wins, without a warning, and positive-kernel entries keep
        # the closed form (bit for bit at alpha 2).
        errors = np.array([1e200, -1e300, 1e308, 0.5 * sigma, -1.5 * sigma])
        kernel = correntropy_kernel(errors, sigma, alpha)
        got = correntropy_derivative(errors, sigma, alpha)
        assert np.array_equal(got[:3], np.zeros(3)) and np.all(kernel[3:] > 0.0)
        if alpha == 2.0:
            assert np.array_equal(got[3:], (errors[3:] / -(sigma * sigma)) * kernel[3:])
        else:
            ref = (-alpha * np.abs(errors[3:]) ** (alpha - 1.0) * np.sign(errors[3:])
                   * kernel[3:] / (2.0 * sigma**alpha))
            np.testing.assert_allclose(got[3:], ref, rtol=1e-14)
        assert correntropy_derivative(1e200, 1.0, 3.0) == 0.0
        assert correntropy_derivative(1e308, 1e-5, 2.0) == 0.0

    def test_derivative_is_zero_at_zero(self):
        assert correntropy_derivative(0.0, 1.0) == 0.0
        assert correntropy_derivative(0.0, 1.0, 1.5) == 0.0

    def test_invalid_kernel_size(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="sigma"):
                correntropy_kernel(1.0, bad)
            with pytest.raises(ValueError, match="sigma"):
                correntropy_derivative(1.0, bad)
        with pytest.raises(ValueError, match="alpha"):
            correntropy_kernel(1.0, 1.0, 0.0)


class TestCauchyWeight:
    @given(st.floats(-1e3, 1e3, allow_nan=False), st.floats(1e-2, 1e2))
    def test_irls_weight_is_loss_slope_over_e(self, e, c):
        # d/de log(1 + e^2/c^2) = 2e/c^2 * w(e): the IRLS weight of the loss.
        s = CauchyScale(c)
        w = cauchy_weight(e, s)
        assert 0.0 < w <= 1.0
        assert w == pytest.approx(1.0 / (1.0 + (e / c) ** 2), rel=1e-15)
        h = 1e-6 * max(c, abs(e))
        slope = (cauchy_loss(e + h, s) - cauchy_loss(e - h, s)) / (2 * h)
        assert slope == pytest.approx(2.0 * e / c**2 * w, rel=1e-5, abs=1e-9 / c)
