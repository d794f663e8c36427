"""Bit budgeting and the uniform midrise quantizer."""
import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

import distdetect as dd


class TestCapacityBits:
    def test_zero_power_zero_bits(self):
        assert dd.capacity_bits(0.0, 2.0, 0.3) == 0.0

    def test_hand_value_half_log2_11(self):
        assert_allclose(dd.capacity_bits(1.0, 1.0, 0.1), 1.72971580931865, rtol=1e-12)

    def test_hand_value_one_bit(self):
        # p * h^2/zeta = 3 -> half log2(4) = 1
        assert_allclose(dd.capacity_bits(0.3, 1.0, 0.1), 1.0, rtol=1e-12)

    def test_increasing_and_concave_in_power(self):
        p = np.linspace(0.0, 20.0, 200)
        bits = np.array([dd.capacity_bits(v, 1.0, 0.1) for v in p])
        d1 = np.diff(bits)
        assert np.all(d1 > 0)
        assert np.all(np.diff(d1) < 1e-12)


class TestQuantNoiseVar:
    def test_zero_power_floor(self):
        assert_allclose(dd.quant_noise_var(0.0, 1.0, 0.1, 3.0), 3.0, rtol=1e-12)

    def test_hand_value(self):
        assert_allclose(dd.quant_noise_var(1.0, 1.0, 0.1, 3.0), 9.0 / 33.0, rtol=1e-12)

    def test_vanishes_at_high_power(self):
        u = 3.0
        assert dd.quant_noise_var(100.0, 1.0, 0.1, u) < u * u / 3000.0

    @given(st.floats(0.0, 50.0), st.floats(0.01, 50.0))
    def test_strictly_decreasing_in_power(self, p, dp):
        lo = dd.quant_noise_var(p + dp, 1.0, 0.1, 3.0)
        hi = dd.quant_noise_var(p, 1.0, 0.1, 3.0)
        assert lo < hi

    def test_integer_bit_consistency(self):
        # choose p so the capacity is exactly L bits, then the noise
        # variance must be U^2 / (3 * 4^L)
        u, g = 3.0, 10.0
        for L in (1, 2, 3, 6):
            p = (4.0 ** L - 1.0) / g
            assert_allclose(dd.capacity_bits(p, 1.0, 0.1), L, rtol=1e-12)
            assert_allclose(dd.quant_noise_var(p, 1.0, 0.1, u),
                            u * u / (3.0 * 4.0 ** L), rtol=1e-12)


class TestQuantSpec:
    @given(st.floats(0.0, 100.0))
    def test_bit_floor_bracket(self, p):
        spec = dd.specs_for_allocation(p, 1.0, 0.1, 3.0)
        assert spec.bits_int <= spec.bits_real < spec.bits_int + 1
        assert spec.censored == (p == 0.0)

    def test_censored_spec_has_full_noise_var(self):
        spec = dd.specs_for_allocation(0.0, 1.0, 0.1, 3.0)
        assert spec.censored and spec.bits_int == 0
        assert_allclose(spec.noise_var, 3.0)

    def test_specs_for_allocation_vectorizes(self):
        p = np.array([0.0, 0.5, 1.0])
        h = np.ones(3)
        zeta = np.full(3, 0.1)
        spec = dd.specs_for_allocation(p, h, zeta, 3.0)
        assert spec.censored.tolist() == [True, False, False]
        assert spec.bits_int.tolist() == [0, 1, 1]  # capacity 0.5*log2(6) = 1.29 bits at p=0.5


class TestQuantizeStatistic:
    def test_two_level_lower_midpoint(self):
        spec = dd.specs_for_allocation(0.5, 1.0, 0.1, 3.0)  # one whole bit
        assert dd.quantize_array(0.0, spec.bits_int, 3.0) == 1.5

    def test_clipping_saturates(self):
        spec = dd.specs_for_allocation(0.5, 1.0, 0.1, 3.0)
        assert dd.quantize_array(2 * 3.0 + 5.0, spec.bits_int, 3.0) == dd.quantize_array(
            2 * 3.0, spec.bits_int, 3.0)

    def test_censored_spec_rejected(self):
        spec = dd.specs_for_allocation(0.0, 1.0, 0.1, 3.0)
        assert spec.censored
        with pytest.raises(ValueError):
            dd.quantize_array(1.0, spec.bits_int, 3.0)

    @given(st.floats(-5.0, 15.0), st.integers(1, 10))
    def test_cell_error_bound(self, t, bits):
        u = 3.0
        q = dd.quantize_array(np.array([t]), bits, u)[0]
        clipped = min(max(t, 0.0), 2 * u)
        assert abs(q - clipped) <= u / 2 ** bits + 1e-12
        assert 0.0 <= q <= 2 * u

    def test_scalar_and_array_paths_agree(self):
        spec = dd.specs_for_allocation(2.0, 1.0, 0.1, 3.0)
        t = np.linspace(0, 6, 23)
        arr = dd.quantize_array(t, spec.bits_int, 3.0)
        scalars = [float(dd.quantize_array(float(v), spec.bits_int, 3.0)) for v in t]
        assert_allclose(arr, scalars)

    def test_quantization_noise_variance_oracle(self):
        u, bits = 3.0, 4
        rng = np.random.default_rng(13)
        t = rng.uniform(0.0, 2 * u, size=200_000)
        err = dd.quantize_array(t, bits, u) - t
        expected = (2 * u / 2 ** bits) ** 2 / 12.0
        assert abs(float(np.var(err)) / expected - 1.0) < 0.05


class TestQuantizeCentered:
    def test_maps_into_signed_range(self):
        u = 3.0
        t = np.linspace(-2 * u, 2 * u, 41)
        q = dd.quantize_array(t, 3, u, -u)
        assert np.all(q >= -u) and np.all(q <= u)

    def test_error_bound_inside_range(self):
        u = 2.0
        rng = np.random.default_rng(1)
        t = rng.uniform(-u, u, size=1000)
        q = dd.quantize_array(t, 5, u, -u)
        assert np.max(np.abs(q - t)) <= u / 2 ** 5 + 1e-12


class TestNanRefused:
    """Each positivity guard refuses NaN, which compares False with everything."""

    @pytest.mark.parametrize("call, message", [
        (lambda: dd.capacity_bits(float("nan"), 1.0, 1.0), "power must be nonnegative"),
        (lambda: dd.capacity_bits([1.0, float("nan")], 1.0, 1.0), "power must be nonnegative"),
        (lambda: dd.capacity_bits(1.0, float("nan"), 1.0), "h and zeta must be positive"),
        (lambda: dd.capacity_bits(1.0, [1.0, float("nan")], 1.0), "h and zeta must be positive"),
        (lambda: dd.capacity_bits(1.0, 1.0, float("nan")), "h and zeta must be positive"),
        (lambda: dd.quant_noise_var(float("nan"), 1.0, 1.0, 3.0), "power must be nonnegative"),
        (lambda: dd.quant_noise_var(1.0, 1.0, 1.0, float("nan")), "U must be positive"),
        (lambda: dd.quantize_array(np.ones(3), 2, float("nan")), "U must be positive"),
    ], ids=["capacity_bits_p", "capacity_bits_p_array", "capacity_bits_h", "capacity_bits_h_array",
            "capacity_bits_zeta", "quant_noise_var_p", "quant_noise_var_u", "quantize_array_u"])
    def test_nan_refused(self, call, message):
        with np.errstate(all="raise"), pytest.raises(ValueError, match=message):
            call()
