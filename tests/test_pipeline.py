import itertools
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfft import stage_ladder
from qfft.config import ExperimentConfig
from qfft.core import DIRECTIONS, MAX_SIZE, dft_naive, fft_reference, num_stages
from qfft.pipeline import Pipeline, PipelineConfig, processing_cost
from qfft.quantization import QuantizerSpec, apply_quantizer
from qfft.signals import generate_signal


def random_signal(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)


class TestConfig:
    def test_empty_stage_list_fills_with_off(self):
        cfg = PipelineConfig(n=16)
        assert cfg.stage_quantizers == (None,) * 4

    def test_wrong_stage_count_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(n=16, stage_quantizers=(None,) * 3)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(n=12)

    def test_invalid_direction_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(n=16, direction="backwards")

    def test_1024_point_has_ten_stages(self):
        assert PipelineConfig(n=1024).stages == 10

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(stage_quantizers=("x",) * 3), "stage_quantizers[0]: expected a QuantizerSpec or None, got 'x'"),
            (dict(stage_quantizers=(None, None, 8)), "stage_quantizers[2]: expected a QuantizerSpec or None, got 8"),
            (dict(twiddle_quantizer="uniform"), "twiddle_quantizer: expected a QuantizerSpec or None, got 'uniform'"),
        ],
        ids=["string-stage", "integer-stage", "string-rom"],
    )
    def test_an_entry_that_is_not_a_quantizer_is_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PipelineConfig(n=8, **kwargs)

    @pytest.mark.parametrize("direction", ["fft", "ifft"])
    def test_a_numpy_integer_size_runs_like_the_int(self, direction):
        assert num_stages(np.int64(8)) == 3
        x = random_signal(8, seed=4)
        specs = stage_ladder(QuantizerSpec("uniform", 6, 2.0), 8)
        rom = QuantizerSpec("uniform", 5, 1.0)
        runs = [
            Pipeline(PipelineConfig(n=size, direction=direction, stage_quantizers=specs, twiddle_quantizer=rom)).run(x)
            for size in (8, np.int64(8))
        ]
        assert runs[0].output.tobytes() == runs[1].output.tobytes()
        assert runs[0].saturation_total == runs[1].saturation_total


class TestBuild:
    # the last stage's row is the half table in (log2 n - 1)-bit-reversed order
    def test_two_point_pipeline(self):
        pipeline = Pipeline(PipelineConfig(n=2))
        assert pipeline.stages == 1
        assert pipeline.stage_twiddles[-1].tolist() == [1.0 + 0.0j]

    def test_ifft_conjugates_twiddles(self):
        fwd = Pipeline(PipelineConfig(n=8)).stage_twiddles[-1]
        inv = Pipeline(PipelineConfig(n=8, direction="ifft")).stage_twiddles[-1]
        assert np.array_equal(inv, np.conj(fwd))

    def test_twiddle_rom_quantized_once_at_build(self):
        spec = QuantizerSpec("uniform", 8, 1.0)  # q = 2^-7
        row = Pipeline(PipelineConfig(n=8, twiddle_quantizer=spec)).stage_twiddles[-1]
        # w[1] sits at 2-bit-reversed index 2; sqrt(2)/2 = 0.70710678...
        # rounds to 91 * 2^-7 on both components
        assert row[2] == 0.7109375 - 0.7109375j
        scaled = row.view(np.float64) * 2.0**7
        assert np.array_equal(scaled, np.rint(scaled))

    def test_twiddles_are_read_only(self):
        pipeline = Pipeline(PipelineConfig(n=8))
        with pytest.raises(ValueError):
            pipeline.stage_twiddles[-1][0] = 0.0


class TestBypass:
    @pytest.mark.parametrize("n", [2, 8, 64, 512])
    def test_forward_bit_exact(self, n):
        x = random_signal(n, seed=n)
        trace = Pipeline(PipelineConfig(n=n)).run(x)
        assert trace.output.tobytes() == fft_reference(x, "fft").tobytes()

    @pytest.mark.parametrize("n", [2, 64, 512])
    def test_inverse_bit_exact(self, n):
        x = random_signal(n, seed=2 * n + 1)
        trace = Pipeline(PipelineConfig(n=n, direction="ifft")).run(x)
        assert trace.output.tobytes() == fft_reference(x, "ifft").tobytes()

    def test_round_trip_1024(self):
        x = random_signal(1024, seed=77)
        fwd = Pipeline(PipelineConfig(n=1024)).run(x).output
        back = Pipeline(PipelineConfig(n=1024, direction="ifft")).run(fwd).output
        assert np.max(np.abs(back - x)) < 1e-12

    def test_matches_oracle(self):
        x = random_signal(64, seed=13)
        trace = Pipeline(PipelineConfig(n=64)).run(x)
        assert np.max(np.abs(trace.output - dft_naive(x))) < 1e-9 * 64


def fixed_point_stages(pipeline, x):
    """Per stage, whether the hook finds its output a fixed point of that stage's quantizer."""
    fixed = []

    def check(stage, data):
        requantized, _ = apply_quantizer(data, pipeline.config.stage_quantizers[stage])
        fixed.append(np.array_equal(requantized, data))

    pipeline.run(x, after_stage=check)
    return fixed


class TestRun:
    def test_counters_match_processing_cost(self):
        for n in (2, 8, 64, 1024):
            trace = Pipeline(PipelineConfig(n=n)).run(random_signal(n, seed=n))
            assert (trace.multiplies, trace.additions) == processing_cost(n)

    def test_stage_outputs_are_quantizer_fixed_points(self):
        n = 128
        pipeline = Pipeline(PipelineConfig(n=n, stage_quantizers=stage_ladder(QuantizerSpec("uniform", 6, 2.0), n)))
        assert fixed_point_stages(pipeline, random_signal(n, seed=17)) == [True] * 7

    def test_mantissa_stage_outputs_are_fixed_points(self):
        n = 64
        pipeline = Pipeline(PipelineConfig(n=n, stage_quantizers=stage_ladder(QuantizerSpec("mantissa", 5), n)))
        assert fixed_point_stages(pipeline, random_signal(n, seed=18)) == [True] * 6

    def test_saturation_counted(self):
        n = 4
        spec = QuantizerSpec("uniform", 3, 0.5)
        pipeline = Pipeline(PipelineConfig(n=n, stage_quantizers=(spec, None)))
        trace = pipeline.run(np.array([0.9, 0.0, 0.0, -0.9], dtype=complex))
        # bit-reversed to [0.9, 0, 0, -0.9]; stage 1 gives [0.9, 0.9, -0.9, 0.9],
        # four real parts past 0.5
        assert trace.saturation_total == 4

    def test_unquantized_run_reports_no_saturation(self):
        trace = Pipeline(PipelineConfig(n=32)).run(random_signal(32, seed=3))
        assert trace.saturation_total == 0

    def test_ifft_prescales_input(self):
        n = 16
        spectrum = np.zeros(n, dtype=complex)
        spectrum[0] = n
        trace = Pipeline(PipelineConfig(n=n, direction="ifft")).run(spectrum)
        # 1/N scales the input to the unit impulse, whose transform is exactly all ones
        assert np.array_equal(trace.output, np.ones(n))

    def test_length_mismatch_rejected(self):
        pipeline = Pipeline(PipelineConfig(n=16))
        with pytest.raises(ValueError):
            pipeline.run(np.ones(8, dtype=complex))

    def test_non_finite_input_rejected(self):
        # the check reads the float64 view, so it must see either part of any entry
        pipeline = Pipeline(PipelineConfig(n=4))
        for bad, part in itertools.product([np.nan, np.inf, -np.inf], ["real", "imag"]):
            x = np.zeros(4, dtype=complex)
            getattr(x, part)[2] = bad
            with pytest.raises(ValueError, match="^input contains non-finite components$"):
                pipeline.run(x)

    def test_parallel_runs_share_one_pipeline(self):
        n = 128
        pipeline = Pipeline(
            PipelineConfig(n=n, stage_quantizers=stage_ladder(QuantizerSpec("uniform", 8, 2.0), n))
        )
        signals = [random_signal(n, seed=100 + i) for i in range(8)]
        serial = [pipeline.run(x).output for x in signals]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda x: pipeline.run(x).output, signals))
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)


def test_largest_supported_size_round_trips():
    n = 1 << 16
    x = random_signal(n, seed=65536)
    spectrum = Pipeline(PipelineConfig(n=n)).run(x)
    assert spectrum.multiplies == (n // 2) * 16
    back = Pipeline(PipelineConfig(n=n, direction="ifft")).run(spectrum.output)
    assert np.max(np.abs(back.output - x)) < 1e-12 * n


class TestProcessingCost:
    def test_known_values(self):
        assert processing_cost(8) == (12, 24)
        assert processing_cost(2) == (1, 2)
        assert processing_cost(1024) == (5120, 10240)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            processing_cost(12)


class TestQuantizedDegradation:
    def test_sqnr_does_not_degrade_with_more_bits(self):
        # fixed input, uniform ladder: each extra bit may only help
        n = 256
        x = random_signal(n, seed=55)
        reference = fft_reference(x)
        ref_var = np.concatenate([reference.real, reference.imag]).var()
        sqnr = []
        for bits in range(6, 15):
            specs = stage_ladder(QuantizerSpec("uniform", bits, np.sqrt(2.0)), n)
            trace = Pipeline(PipelineConfig(n=n, stage_quantizers=specs)).run(x)
            err = reference - trace.output
            err_var = np.concatenate([err.real, err.imag]).var()
            sqnr.append(10 * np.log10(ref_var / err_var))
        for lo, hi in zip(sqnr, sqnr[1:]):
            assert hi >= lo - 0.5


def test_stage_spec_ladders():
    specs = stage_ladder(QuantizerSpec("uniform", 8, 1.5), 16)
    assert [s.x_max for s in specs] == [3.0, 6.0, 12.0, 24.0]
    assert all(s.mode == "uniform" and s.bits == 8 for s in specs)
    specs = stage_ladder(QuantizerSpec("mantissa", 7), 16)
    assert len(specs) == 4
    assert all(s.mode == "mantissa" and s.bits == 7 for s in specs)


# Exact symmetries of every pipeline a config builds: its quantizers are odd and
# componentwise, its clip symmetric and its twiddles conjugated exactly, so
# negating, rotating or conjugating the input does the same to the output, bit
# for bit in value. Only the sign of a zero may differ, as x + (-x) = +0.0.


def unsigned_zeros(a):
    """The bytes of ``a`` with every -0.0 read as +0.0."""
    return (a + 0.0).tobytes()


def rotated(z):
    """j * z, exactly: each component (re, im) becomes (-im, re)."""
    out = np.empty_like(z)
    out.real, out.imag = -z.imag, z.real
    return out


@st.composite
def config_fields(draw, modes, sizes):
    """``ExperimentConfig`` fields: a size, a direction, a stage quantizer of ``modes`` and a ROM on or off."""
    mode = draw(st.sampled_from(modes))
    fields = {
        "n": draw(st.sampled_from(sizes)),
        "direction": draw(st.sampled_from(DIRECTIONS)),
        "quantizer_mode": mode,
        "twiddle_enabled": draw(st.booleans()),
        "twiddle_bits": draw(st.integers(3, 14)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }
    if mode != "off":
        fields["quantizer_bits"] = draw(st.integers(2, 24))
    if mode == "uniform":
        # automatic, or a full scale below the unit-scale signal's bound, which saturates
        fields["quantizer_x_max"] = draw(st.sampled_from([None, 0.3]))
    return fields


# one case at the largest size, which the drawn sizes do not reach
LARGEST = {
    "n": MAX_SIZE,
    "direction": "ifft",
    "quantizer_mode": "uniform",
    "quantizer_bits": 12,
    "twiddle_enabled": True,
    "twiddle_bits": 10,
    "seed": 5,
}


@settings(max_examples=150, deadline=None)
@given(fields=config_fields(("uniform", "mantissa", "off"), [1 << m for m in range(1, 11)]))
@example(fields={**LARGEST, "quantizer_x_max": 0.3})
def test_a_run_commutes_with_negation_and_rotation(fields):
    cfg = ExperimentConfig(**fields)
    pipeline = Pipeline(cfg.pipeline_config())
    x = generate_signal(cfg.signal_spec(), cfg.seed)
    trace = pipeline.run(x)
    for image in (np.negative, rotated):
        imaged = pipeline.run(image(x))
        assert unsigned_zeros(imaged.output) == unsigned_zeros(image(trace.output)), image.__name__
        assert imaged.saturation_total == trace.saturation_total


@settings(max_examples=120, deadline=None)
@given(fields=config_fields(("uniform", "mantissa"), [1 << m for m in range(1, 13)]))
@example(fields=LARGEST)
def test_an_inverse_run_is_the_conjugated_forward_run_over_n(fields):
    # the inverse's ladder sees its 1/N pre-scale: P_ifft(x) = conj(P_fft(conj(x))) / N
    forward = ExperimentConfig(**{**fields, "direction": "fft"})
    inverse = ExperimentConfig(**{**fields, "direction": "ifft"})
    x = generate_signal(forward.signal_spec(), forward.seed)
    expected = np.conj(Pipeline(forward.pipeline_config()).run(np.conj(x)).output) / forward.n
    assert unsigned_zeros(Pipeline(inverse.pipeline_config()).run(x).output) == unsigned_zeros(expected)
