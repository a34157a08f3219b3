import dataclasses
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfft.analysis import quantizer_characterization
from qfft.config import stage_ladder
from qfft.quantization import (
    MAX_BITS,
    MODES,
    SQNR_CAP_DB,
    QuantizerSpec,
    apply_quantizer,
    relative_error,
    snr_db,
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

    @pytest.mark.parametrize(
        "args, message",
        [
            (("uniform", 8.5, 1.0), "bits: expected an integer, got 8.5"),
            (("mantissa", 8.5), "bits: expected an integer, got 8.5"),
            (("uniform", np.float64(8.0), 1.0), "bits: expected an integer, got np.float64(8.0)"),
            (("uniform", True, 1.0), "bits: expected an integer, got True"),
            (("mantissa", np.True_), "bits: expected an integer, got np.True_"),
            (("uniform", "8", 1.0), "bits: expected an integer, got '8'"),
            (("uniform", None, 1.0), "bits: expected an integer, got None"),
            (("uniform", 8, True), "x_max: expected a number or None, got True"),
            (("uniform", 8, "1"), "x_max: expected a number or None, got '1'"),
        ],
        ids=[
            "fractional-bits", "fractional-mantissa-bits", "float-bits", "bool-bits", "numpy-bool-bits",
            "string-bits", "no-bits", "bool-full-scale", "string-full-scale",
        ],
    )
    def test_rejects_bits_and_full_scales_of_the_wrong_type(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            QuantizerSpec(*args)

    def test_a_numpy_integer_bit_count_is_kept_as_an_int(self):
        spec = QuantizerSpec("uniform", np.int64(8), 1.0)
        assert type(spec.bits) is int
        assert spec == QuantizerSpec("uniform", 8, 1.0)
        assert hash(spec) == hash(QuantizerSpec("uniform", 8, 1.0))
        assert dataclasses.asdict(spec) == {"mode": "uniform", "bits": 8, "x_max": 1.0}

    def test_named_is_the_one_full_scale_rule(self):
        # a missing x_max is the automatic full scale where the mode reads one; a given one goes to the spec
        assert QuantizerSpec.named("uniform", 8) == QuantizerSpec("uniform", 8, 1.0)
        assert QuantizerSpec.named("uniform", 8, automatic=3.0).x_max == 3.0
        assert QuantizerSpec.named("uniform", 8, 2.0, automatic=3.0).x_max == 2.0
        assert QuantizerSpec.named("mantissa", 8, automatic=3.0) == QuantizerSpec("mantissa", 8)
        with pytest.raises(ValueError, match="^x_max: a mantissa quantizer is scale-free"):
            QuantizerSpec.named("mantissa", 8, 2.0)

    def test_a_float32_full_scale_gives_a_double_step_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = QuantizerSpec("uniform", 8, np.float32(0.5))
        assert type(spec.step) is float and spec.step == 2.0 ** -8

    @pytest.mark.parametrize(
        "x_max, bits",
        [(math.inf, 8), (1e308, 1), (1e-320, 8)],
        ids=["infinite-full-scale", "overflowing-step", "subnormal-step"],
    )
    def test_rejects_a_uniform_step_that_is_not_positive_normal(self, x_max, bits):
        message = re.escape(f"x_max: full scale {x_max!r} at {bits} bits gives the step")
        with pytest.raises(ValueError, match=f"^{message} .* not a positive normal number$"):
            QuantizerSpec("uniform", bits, x_max)

    @settings(max_examples=300, deadline=None)
    @given(
        mode=st.sampled_from(["uniform", "mantissa", "off", ""]),
        bits=st.integers(-2, MAX_BITS + 8),
        x_max=st.none() | st.floats(),
    )
    def test_an_error_opens_with_the_first_field_it_rejects(self, mode, bits, x_max):
        # a config prefixes the document path to that field: quantizer.per_stage[i].bits, ...
        try:
            QuantizerSpec(mode, bits, x_max)
        except ValueError as exc:
            message = str(exc)
        else:
            return
        field = "mode" if mode not in MODES else "bits" if not 1 <= bits <= MAX_BITS else "x_max"
        assert message.startswith(f"{field}: ")

    def test_an_integer_full_scale_past_the_double_range_is_rejected(self):
        # float(10**400) raises OverflowError; the step it gives is infinite
        with pytest.raises(ValueError, match=r"^x_max: full scale 10+ at 8 bits gives the step inf, which is not"):
            QuantizerSpec("uniform", 8, 10**400)
        with pytest.raises(ValueError, match="^x_max: "):
            quantizer_characterization("uniform", 6, 8, 10_000, x_max=10**400)

    def test_accepts_the_smallest_normal_step(self):
        x_max = sys.float_info.min * 2.0**51
        assert QuantizerSpec("uniform", 52, x_max).step == sys.float_info.min
        with pytest.raises(ValueError, match="not a positive normal"):
            # its step is the largest subnormal double
            QuantizerSpec("uniform", 52, math.nextafter(sys.float_info.min, 0.0) * 2.0**51)


class TestUniformQuantizer:
    SPEC = QuantizerSpec("uniform", 2, 1.0)  # q = 0.5

    def test_zero_band(self):
        assert apply_quantizer(0.2, self.SPEC)[0] == 0.0

    def test_rounds_to_nearest_level(self):
        assert apply_quantizer(0.3, self.SPEC)[0] == 0.5

    def test_clamps_at_full_scale(self):
        assert apply_quantizer(5.0, self.SPEC)[0] == 1.0
        assert apply_quantizer(-5.0, self.SPEC)[0] == -1.0

    def test_half_step_boundary_ties_to_zero(self):
        # 0.25/0.5 = 0.5 exactly: half-to-even keeps the output at zero
        assert apply_quantizer(0.25, self.SPEC)[0] == 0.0
        assert apply_quantizer(-0.25, self.SPEC)[0] == 0.0

    def test_zero_band_is_exact(self):
        rng = np.random.default_rng(0)
        q = self.SPEC.step
        x = rng.uniform(-q / 2, q / 2, 10_000)
        out = apply_quantizer(x, self.SPEC)[0]
        assert np.all(out == 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        spec = QuantizerSpec("uniform", 5, 1.0)
        x = rng.uniform(-2, 2, 5000)
        once = apply_quantizer(x, spec)[0]
        assert np.array_equal(apply_quantizer(once, spec)[0], once)

    def test_monotone(self):
        rng = np.random.default_rng(2)
        spec = QuantizerSpec("uniform", 4, 1.0)
        x = np.sort(rng.uniform(-2, 2, 5000))
        out = apply_quantizer(x, spec)[0]
        assert np.all(np.diff(out) >= 0)

    def test_unsaturated_error_bounded_by_half_step(self):
        rng = np.random.default_rng(3)
        spec = QuantizerSpec("uniform", 6, 1.0)
        x = rng.uniform(-1, 1, 20_000)
        err = np.abs(x - apply_quantizer(x, spec)[0])
        assert np.max(err) <= spec.step / 2

    @pytest.mark.parametrize("bits", [4, 8, 12])
    def test_variance_matches_closed_form(self, bits):
        rng = np.random.default_rng(40 + bits)
        spec = QuantizerSpec("uniform", bits, 1.0)
        x = rng.uniform(-1, 1, 200_000)
        err = x - apply_quantizer(x, spec)[0]
        theory = spec.theory_variance
        assert abs(err.var() - theory) / theory < 0.05


class TestMantissaQuantizer:
    def test_zero_passes_through(self):
        assert apply_quantizer(0.0, QuantizerSpec("mantissa", 4))[0] == 0.0

    def test_exact_half_is_fixed_point(self):
        for bits in (1, 3, 8, 23):
            assert apply_quantizer(0.5, QuantizerSpec("mantissa", bits))[0] == 0.5

    def test_tie_rounds_half_to_even(self):
        # 0.6875 / 0.125 = 5.5, an exact tie; even neighbor is 6 -> 0.75
        assert apply_quantizer(0.6875, QuantizerSpec("mantissa", 3))[0] == 0.75

    def test_powers_of_two_are_fixed_points(self):
        spec = QuantizerSpec("mantissa", 5)
        for e in (-7, -1, 0, 3, 20):
            assert apply_quantizer(2.0**e, spec)[0] == 2.0**e

    def test_sign_symmetry(self):
        rng = np.random.default_rng(4)
        spec = QuantizerSpec("mantissa", 6)
        x = rng.uniform(0.01, 100.0, 10_000)
        assert np.array_equal(apply_quantizer(-x, spec)[0], -apply_quantizer(x, spec)[0])

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        spec = QuantizerSpec("mantissa", 4)
        x = rng.uniform(-50, 50, 10_000)
        once = apply_quantizer(x, spec)[0]
        assert np.array_equal(apply_quantizer(once, spec)[0], once)

    def test_relative_error_bounded_by_step(self):
        rng = np.random.default_rng(6)
        spec = QuantizerSpec("mantissa", 5)
        x = rng.uniform(0.001, 1000.0, 20_000)
        eps = np.abs(relative_error(x, apply_quantizer(x, spec)[0]))
        assert np.max(eps) <= spec.step

    @pytest.mark.parametrize("bits", [4, 6])
    def test_relative_variance_matches_closed_form(self, bits):
        rng = np.random.default_rng(60 + bits)
        spec = QuantizerSpec("mantissa", bits)
        mant = rng.uniform(0.5, 1.0, 200_000)
        eps = relative_error(mant, apply_quantizer(mant, spec)[0])
        theory = spec.theory_variance
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
        assert QuantizerSpec("uniform", 2, 1.0).theory_variance == pytest.approx(
            0.020833333333333332, rel=1e-14
        )
        assert QuantizerSpec("uniform", 8, 1.0).theory_variance == pytest.approx(
            5.086263020833333e-06, rel=1e-14
        )

    def test_mantissa_closed_form_matches_quadrature(self):
        # frozen from a one-off scipy.integrate.dblquad evaluation of the
        # double integral of (a/M)^2 over a in [-q/2,q/2], M in [1/2,1]
        assert QuantizerSpec("mantissa", 3).theory_variance == pytest.approx(
            0.0026041666666666665, rel=1e-14
        )
        assert QuantizerSpec("mantissa", 1).theory_variance == pytest.approx(
            0.041666666666666664, rel=1e-14
        )

    def test_mantissa_is_twice_uniform_at_equal_step(self):
        uniform = QuantizerSpec("uniform", 4, 1.0)
        mantissa = QuantizerSpec("mantissa", 3)  # same step 0.125
        assert uniform.step == mantissa.step
        ratio = mantissa.theory_variance / uniform.theory_variance
        assert ratio == pytest.approx(2.0, rel=1e-14)

    def test_vanishes_as_step_shrinks(self):
        assert QuantizerSpec("uniform", 52, 1.0).theory_variance < 1e-30
        assert QuantizerSpec("mantissa", 52).theory_variance < 1e-30

    def test_finite_wherever_the_closed_form_is(self):
        # q = 1.34e154 is past sqrt(max double), so q * q overflows, but q^2/12 = 1.5e307 does not
        assert QuantizerSpec("uniform", 6, 4.3e155).theory_variance == 1.5047200520833334e307
        assert QuantizerSpec("uniform", 6, 1.49e156).theory_variance == math.inf
        # wherever q * q / 12 is normal, its bits are kept
        rng = np.random.default_rng(12)
        for exponent, bits in zip(rng.integers(-400, 400, 2000), rng.integers(1, 53, 2000)):
            spec = QuantizerSpec("uniform", bits, math.ldexp(rng.uniform(0.5, 1.0), int(exponent)))
            assert spec.theory_variance == spec.step * spec.step / 12.0


class TestSnrDb:
    def test_two_decades_is_20db(self):
        assert snr_db(1.0, 0.01) == pytest.approx(20.0, abs=1e-12)

    def test_equal_variances_is_0db(self):
        assert snr_db(0.3, 0.3) == 0.0

    def test_8_bit_uniform_budget(self):
        noise = QuantizerSpec("uniform", 8, 1.0).theory_variance
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
            once = apply_quantizer(np.array(x), spec)[0]
            assert apply_quantizer(once, spec)[0].tobytes() == once.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(x=st.lists(FINITE, min_size=1, max_size=16), bits=BITS)
    def test_mantissa_idempotent(self, x, bits):
        spec = QuantizerSpec("mantissa", bits)
        with np.errstate(over="ignore"):  # rounding up past the largest double gives inf
            once = apply_quantizer(np.array(x), spec)[0]
            assert apply_quantizer(once, spec)[0].tobytes() == once.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), bits=BITS, exponent=st.integers(-100, 100))
    def test_uniform_error_within_half_step_at_power_of_two_full_scale(self, data, bits, exponent):
        # x / q and q * level are exact, so the bound holds with no rounding allowance
        x_max = 2.0**exponent
        spec = QuantizerSpec("uniform", bits, x_max)
        x = np.array(data.draw(st.lists(st.floats(-x_max, x_max), min_size=1, max_size=16)))
        assert np.all(np.abs(x - apply_quantizer(x, spec)[0]) <= spec.step / 2)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), bits=BITS, x_max=FULL_SCALES)
    def test_uniform_error_within_half_step(self, data, bits, x_max):
        # x / q, q * level and the difference each round once, which can add
        # up to about 3 * x_max * 2**-53 (0.5096 q at bits 51, x_max 1.2438e30)
        spec = QuantizerSpec("uniform", bits, x_max)
        x = np.array(data.draw(st.lists(st.floats(-x_max, x_max), min_size=1, max_size=16)))
        assert np.all(np.abs(x - apply_quantizer(x, spec)[0]) <= spec.step / 2 + x_max * 2.0**-51)


class TestScaleRule:
    # k in 2**+-400 keeps every step (at least 2**-151 * 2**-400) and quantized level a normal double
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), bits=BITS, x_max=FULL_SCALES, k=st.integers(-400, 400))
    def test_a_uniform_spec_scales_with_the_data(self, data, bits, x_max, k):
        spec = QuantizerSpec("uniform", bits, x_max)
        x = np.array(data.draw(st.lists(st.floats(-4 * x_max, 4 * x_max), min_size=1, max_size=16)))
        scaled = spec.scaled(k)
        assert scaled == QuantizerSpec("uniform", bits, x_max * 2.0**k)
        qx, saturated = apply_quantizer(x, spec)
        scaled_qx, scaled_saturated = apply_quantizer(x * 2.0**k, scaled)
        assert scaled_qx.tobytes() == (qx * 2.0**k).tobytes()
        assert scaled_saturated == saturated

    @settings(max_examples=300, deadline=None)
    @given(
        x=st.lists(st.floats(2.0**-600, 2.0**600).flatmap(lambda m: st.sampled_from((m, -m))), min_size=1, max_size=16),
        bits=BITS,
        k=st.integers(-400, 400),
    )
    def test_a_mantissa_spec_is_scale_free(self, x, bits, k):
        spec = QuantizerSpec("mantissa", bits)
        assert spec.scaled(k) is spec
        x = np.array(x)
        assert apply_quantizer(x * 2.0**k, spec)[0].tobytes() == (apply_quantizer(x, spec)[0] * 2.0**k).tobytes()

    def test_the_error_is_absolute_with_a_full_scale_and_relative_without(self):
        x, qx = np.array([0.3, -1.5]), np.array([0.25, -1.0])
        assert QuantizerSpec("uniform", 3, 2.0).error(x, qx).tobytes() == (x - qx).tobytes()
        assert QuantizerSpec("mantissa", 3).error(x, qx).tobytes() == relative_error(x, qx).tobytes()

    @pytest.mark.parametrize("x_max", [2.0, 1.5, math.sqrt(2.0), 0.05, 2.0**-300])
    def test_the_stage_ladder_doubles_a_full_scale_each_stage(self, x_max):
        for log2n in range(1, 17):
            assert stage_ladder(QuantizerSpec("uniform", 8, x_max), 2**log2n) == tuple(
                QuantizerSpec("uniform", 8, x_max * 2.0 ** (s + 1)) for s in range(log2n)
            )

    def test_the_stage_ladder_repeats_a_mantissa_spec(self):
        for log2n in range(1, 17):
            assert stage_ladder(QuantizerSpec("mantissa", 5), 2**log2n) == tuple(
                QuantizerSpec("mantissa", 5) for _ in range(log2n)
            )
