import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfft.quantization import (
    MAX_BITS,
    SQNR_CAP_DB,
    QuantizerSpec,
    apply_quantizer,
    quantize_mantissa,
    quantize_uniform,
    relative_error,
    snr_db,
    theory_variance_mantissa,
    theory_variance_uniform,
)


class TestQuantizerSpec:
    def test_uniform_step(self):
        assert QuantizerSpec("uniform", 2, 1.0).step == 0.5
        assert QuantizerSpec("uniform", 8, 1.0).step == 2.0 ** -7

    def test_mantissa_step(self):
        assert QuantizerSpec("mantissa", 3).step == 0.125

    @pytest.mark.parametrize("bad", [
        dict(mode="nearest", bits=8),
        dict(mode="uniform", bits=0),
        dict(mode="uniform", bits=53),
        dict(mode="mantissa", bits=-1),
        dict(mode="uniform", bits=8, x_max=0.0),
        dict(mode="uniform", bits=8, x_max=-2.0),
        # no quantizer is None, not a mode; a mantissa quantizer is scale-free
        dict(mode="off", bits=8),
        dict(mode="mantissa", bits=8, x_max=2.0),
        dict(mode="uniform", bits=8),
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            QuantizerSpec(**bad)


class TestUniformQuantizer:
    SPEC = QuantizerSpec("uniform", 2, 1.0)  # q = 0.5

    def test_zero_band(self):
        assert quantize_uniform(0.2, self.SPEC) == 0.0

    def test_rounds_to_nearest_level(self):
        assert quantize_uniform(0.3, self.SPEC) == 0.5

    def test_clamps_at_full_scale(self):
        assert quantize_uniform(5.0, self.SPEC) == 1.0
        assert quantize_uniform(-5.0, self.SPEC) == -1.0

    def test_half_step_boundary_ties_to_zero(self):
        # 0.25/0.5 = 0.5 exactly: half-to-even keeps the output at zero
        assert quantize_uniform(0.25, self.SPEC) == 0.0
        assert quantize_uniform(-0.25, self.SPEC) == 0.0

    def test_zero_band_is_exact(self):
        rng = np.random.default_rng(0)
        q = self.SPEC.step
        x = rng.uniform(-q / 2, q / 2, 10_000)
        out = quantize_uniform(x, self.SPEC)
        assert np.all(out == 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        spec = QuantizerSpec("uniform", 5, 1.0)
        x = rng.uniform(-2, 2, 5000)
        once = quantize_uniform(x, spec)
        assert np.array_equal(quantize_uniform(once, spec), once)

    def test_monotone(self):
        rng = np.random.default_rng(2)
        spec = QuantizerSpec("uniform", 4, 1.0)
        x = np.sort(rng.uniform(-2, 2, 5000))
        out = quantize_uniform(x, spec)
        assert np.all(np.diff(out) >= 0)

    def test_unsaturated_error_bounded_by_half_step(self):
        rng = np.random.default_rng(3)
        spec = QuantizerSpec("uniform", 6, 1.0)
        x = rng.uniform(-1, 1, 20_000)
        err = np.abs(x - quantize_uniform(x, spec))
        assert np.max(err) <= spec.step / 2

    def test_rejects_wrong_mode(self):
        with pytest.raises(ValueError):
            quantize_uniform(0.1, QuantizerSpec("mantissa", 4))

    @pytest.mark.parametrize("bits", [4, 8, 12])
    def test_variance_matches_closed_form(self, bits):
        rng = np.random.default_rng(40 + bits)
        spec = QuantizerSpec("uniform", bits, 1.0)
        x = rng.uniform(-1, 1, 200_000)
        err = x - quantize_uniform(x, spec)
        theory = theory_variance_uniform(spec)
        assert abs(err.var() - theory) / theory < 0.05


class TestMantissaQuantizer:
    def test_zero_passes_through(self):
        assert quantize_mantissa(0.0, QuantizerSpec("mantissa", 4)) == 0.0

    def test_exact_half_is_fixed_point(self):
        for bits in (1, 3, 8, 23):
            assert quantize_mantissa(0.5, QuantizerSpec("mantissa", bits)) == 0.5

    def test_tie_rounds_half_to_even(self):
        # 0.6875 / 0.125 = 5.5, an exact tie; even neighbor is 6 -> 0.75
        assert quantize_mantissa(0.6875, QuantizerSpec("mantissa", 3)) == 0.75

    def test_powers_of_two_are_fixed_points(self):
        spec = QuantizerSpec("mantissa", 5)
        for e in (-7, -1, 0, 3, 20):
            assert quantize_mantissa(2.0**e, spec) == 2.0**e

    def test_sign_symmetry(self):
        rng = np.random.default_rng(4)
        spec = QuantizerSpec("mantissa", 6)
        x = rng.uniform(0.01, 100.0, 10_000)
        assert np.array_equal(quantize_mantissa(-x, spec), -quantize_mantissa(x, spec))

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        spec = QuantizerSpec("mantissa", 4)
        x = rng.uniform(-50, 50, 10_000)
        once = quantize_mantissa(x, spec)
        assert np.array_equal(quantize_mantissa(once, spec), once)

    def test_relative_error_bounded_by_step(self):
        rng = np.random.default_rng(6)
        spec = QuantizerSpec("mantissa", 5)
        x = rng.uniform(0.001, 1000.0, 20_000)
        eps = np.abs(relative_error(x, quantize_mantissa(x, spec)))
        assert np.max(eps) <= spec.step

    def test_rejects_wrong_mode(self):
        with pytest.raises(ValueError):
            quantize_mantissa(0.1, QuantizerSpec("uniform", 4, 1.0))

    @pytest.mark.parametrize("bits", [4, 6])
    def test_relative_variance_matches_closed_form(self, bits):
        rng = np.random.default_rng(60 + bits)
        spec = QuantizerSpec("mantissa", bits)
        mant = rng.uniform(0.5, 1.0, 200_000)
        eps = relative_error(mant, quantize_mantissa(mant, spec))
        theory = theory_variance_mantissa(spec)
        assert abs(eps.var() - theory) / theory < 0.05


class TestErrorOps:
    def test_relative_error_values(self):
        assert relative_error(0.5, 0.5) == 0.0
        assert relative_error(0.6875, 0.75) == pytest.approx(1.0 / 11.0, rel=1e-12)

    def test_relative_error_rejects_zero(self):
        with pytest.raises(ValueError):
            relative_error(0.0, 0.1)
        with pytest.raises(ValueError):
            relative_error(np.array([0.5, 0.0]), np.array([0.5, 0.0]))


class TestTheory:
    def test_uniform_closed_form(self):
        assert theory_variance_uniform(QuantizerSpec("uniform", 2, 1.0)) == pytest.approx(
            0.020833333333333332, rel=1e-14
        )
        assert theory_variance_uniform(QuantizerSpec("uniform", 8, 1.0)) == pytest.approx(
            5.086263020833333e-06, rel=1e-14
        )

    def test_mantissa_closed_form_matches_quadrature(self):
        # frozen from a one-off scipy.integrate.dblquad evaluation of the
        # double integral of (a/M)^2 over a in [-q/2,q/2], M in [1/2,1]
        assert theory_variance_mantissa(QuantizerSpec("mantissa", 3)) == pytest.approx(
            0.0026041666666666665, rel=1e-14
        )
        assert theory_variance_mantissa(QuantizerSpec("mantissa", 1)) == pytest.approx(
            0.041666666666666664, rel=1e-14
        )

    def test_mantissa_is_twice_uniform_at_equal_step(self):
        uniform = QuantizerSpec("uniform", 4, 1.0)
        mantissa = QuantizerSpec("mantissa", 3)  # same step 0.125
        assert uniform.step == mantissa.step
        ratio = theory_variance_mantissa(mantissa) / theory_variance_uniform(uniform)
        assert ratio == pytest.approx(2.0, rel=1e-14)

    def test_vanishes_as_step_shrinks(self):
        assert theory_variance_uniform(QuantizerSpec("uniform", 52, 1.0)) < 1e-30
        assert theory_variance_mantissa(QuantizerSpec("mantissa", 52)) < 1e-30

    def test_mode_mismatch(self):
        with pytest.raises(ValueError):
            theory_variance_uniform(QuantizerSpec("mantissa", 4))
        with pytest.raises(ValueError):
            theory_variance_mantissa(QuantizerSpec("uniform", 4, 1.0))


class TestSnrDb:
    def test_two_decades_is_20db(self):
        assert snr_db(1.0, 0.01) == pytest.approx(20.0, abs=1e-12)

    def test_equal_variances_is_0db(self):
        assert snr_db(0.3, 0.3) == 0.0

    def test_8_bit_uniform_budget(self):
        noise = theory_variance_uniform(QuantizerSpec("uniform", 8, 1.0))
        assert snr_db(1.0, noise) == pytest.approx(52.93601185343362, rel=1e-12)

    def test_caps_zero_and_rejects_negative(self):
        assert snr_db(0.0, 1.0) == -SQNR_CAP_DB
        assert snr_db(1.0, 0.0) == SQNR_CAP_DB
        assert snr_db(0.0, 0.0) == SQNR_CAP_DB
        assert snr_db(1.0, 1e-31) == SQNR_CAP_DB
        assert snr_db(1e-300, 1e300) == -SQNR_CAP_DB
        for variances in [(1.0, -1.0), (-1.0, 1.0), (math.nan, 1.0), (1.0, math.nan)]:
            with pytest.raises(ValueError):
                snr_db(*variances)


class TestApplyQuantizer:
    def test_complex_components_quantized_independently(self):
        spec = QuantizerSpec("uniform", 2, 1.0)
        out, saturated = apply_quantizer(np.array([0.2 + 0.3j]), spec)
        assert out[0] == 0.0 + 0.5j
        assert saturated == 0

    def test_counts_saturations(self):
        spec = QuantizerSpec("uniform", 2, 1.0)
        out, saturated = apply_quantizer(np.array([5.0 - 9.0j, 0.1 + 0.1j]), spec)
        assert out[0] == 1.0 - 1.0j
        assert saturated == 2

    def test_at_full_scale_no_saturation(self):
        spec = QuantizerSpec("uniform", 4, 1.0)
        out, saturated = apply_quantizer(np.array([1.0, -1.0]), spec)
        assert out.tolist() == [1.0, -1.0]
        assert saturated == 0

    def test_mantissa_never_saturates(self):
        spec = QuantizerSpec("mantissa", 4)
        _, saturated = apply_quantizer(np.array([1e12 + 1e-12j]), spec)
        assert saturated == 0


FINITE = st.floats(allow_nan=False, allow_infinity=False)
BITS = st.integers(1, MAX_BITS)
FULL_SCALES = st.floats(2.0**-100, 2.0**100)


class TestQuantizerProperties:
    @settings(max_examples=300, deadline=None)
    @given(x=st.lists(FINITE, min_size=1, max_size=16), bits=BITS, x_max=FULL_SCALES)
    def test_uniform_idempotent(self, x, bits, x_max):
        spec = QuantizerSpec("uniform", bits, x_max)
        with np.errstate(over="ignore"):  # |x| / q past the double range clamps to full scale
            once = quantize_uniform(np.array(x), spec)
            assert quantize_uniform(once, spec).tobytes() == once.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(x=st.lists(FINITE, min_size=1, max_size=16), bits=BITS)
    def test_mantissa_idempotent(self, x, bits):
        spec = QuantizerSpec("mantissa", bits)
        with np.errstate(over="ignore"):  # rounding up past the largest double gives inf
            once = quantize_mantissa(np.array(x), spec)
            assert quantize_mantissa(once, spec).tobytes() == once.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), bits=BITS, exponent=st.integers(-100, 100))
    def test_uniform_error_within_half_step_at_power_of_two_full_scale(self, data, bits, exponent):
        # x / q and q * level are exact, so the bound holds with no rounding allowance
        x_max = 2.0**exponent
        spec = QuantizerSpec("uniform", bits, x_max)
        x = np.array(data.draw(st.lists(st.floats(-x_max, x_max), min_size=1, max_size=16)))
        assert np.all(np.abs(x - quantize_uniform(x, spec)) <= spec.step / 2)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), bits=BITS, x_max=FULL_SCALES)
    def test_uniform_error_within_half_step(self, data, bits, x_max):
        # x / q, q * level and the difference each round once, which can add
        # up to about 3 * x_max * 2**-53 (0.5096 q at bits 51, x_max 1.2438e30)
        spec = QuantizerSpec("uniform", bits, x_max)
        x = np.array(data.draw(st.lists(st.floats(-x_max, x_max), min_size=1, max_size=16)))
        assert np.all(np.abs(x - quantize_uniform(x, spec)) <= spec.step / 2 + x_max * 2.0**-51)
