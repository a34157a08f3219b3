from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qfft.core import dft_naive, fft_reference
from qfft.pipeline import (
    PipelineConfig,
    build_pipeline,
    mantissa_stage_specs,
    processing_cost,
    run,
    uniform_stage_specs,
)
from qfft.quantization import QuantizerSpec, apply_quantizer


def random_signal(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)


class TestConfig:
    def test_empty_stage_list_fills_with_off(self):
        cfg = PipelineConfig(n=16)
        assert len(cfg.stage_quantizers) == 4
        assert all(s.mode == "off" for s in cfg.stage_quantizers)

    def test_wrong_stage_count_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(n=16, stage_quantizers=(QuantizerSpec("off"),) * 3)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(n=12)

    def test_invalid_direction_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(n=16, direction="backwards")

    def test_1024_point_has_ten_stages(self):
        assert PipelineConfig(n=1024).stages == 10


class TestBuild:
    def test_two_point_pipeline(self):
        pipeline = build_pipeline(PipelineConfig(n=2))
        assert pipeline.stages == 1
        assert pipeline.twiddles.tolist() == [1.0 + 0.0j]

    def test_ifft_conjugates_twiddles(self):
        fwd = build_pipeline(PipelineConfig(n=8)).twiddles
        inv = build_pipeline(PipelineConfig(n=8, direction="ifft")).twiddles
        assert np.array_equal(inv, np.conj(fwd))

    def test_twiddle_rom_quantized_once_at_build(self):
        spec = QuantizerSpec("uniform", 8, 1.0)  # q = 2^-7
        pipeline = build_pipeline(PipelineConfig(n=8, twiddle_quantizer=spec))
        # sqrt(2)/2 = 0.70710678... rounds to 91 * 2^-7 on both components
        assert pipeline.twiddles[1] == 0.7109375 - 0.7109375j
        scaled = pipeline.twiddles.view(np.float64) * 2.0**7
        assert np.array_equal(scaled, np.rint(scaled))

    def test_twiddles_are_read_only(self):
        pipeline = build_pipeline(PipelineConfig(n=8))
        with pytest.raises(ValueError):
            pipeline.twiddles[0] = 0.0


class TestBypass:
    @pytest.mark.parametrize("n", [2, 8, 64, 512])
    def test_forward_bit_exact(self, n):
        x = random_signal(n, seed=n)
        trace = build_pipeline(PipelineConfig(n=n)).run(x)
        assert trace.output.tobytes() == fft_reference(x, "forward").tobytes()

    @pytest.mark.parametrize("n", [2, 64, 512])
    def test_inverse_bit_exact(self, n):
        x = random_signal(n, seed=2 * n + 1)
        trace = build_pipeline(PipelineConfig(n=n, direction="ifft")).run(x)
        assert trace.output.tobytes() == fft_reference(x, "inverse").tobytes()

    def test_round_trip_1024(self):
        x = random_signal(1024, seed=77)
        fwd = build_pipeline(PipelineConfig(n=1024)).run(x).output
        back = build_pipeline(PipelineConfig(n=1024, direction="ifft")).run(fwd).output
        assert np.max(np.abs(back - x)) < 1e-12

    def test_matches_oracle(self):
        x = random_signal(64, seed=13)
        trace = build_pipeline(PipelineConfig(n=64)).run(x)
        assert np.max(np.abs(trace.output - dft_naive(x))) < 1e-9 * 64


class TestRun:
    def test_trace_shape(self):
        n = 64
        pipeline = build_pipeline(PipelineConfig(n=n))
        trace = pipeline.run(random_signal(n, seed=1), keep_stages=True)
        assert len(trace.stage_outputs) == 6
        assert all(s.size == n for s in trace.stage_outputs)
        assert trace.input.size == n
        assert np.array_equal(trace.output, trace.stage_outputs[-1])

    def test_counters_match_processing_cost(self):
        for n in (2, 8, 64, 1024):
            trace = build_pipeline(PipelineConfig(n=n)).run(random_signal(n, seed=n))
            assert (trace.multiplies, trace.additions) == processing_cost(n)

    def test_stage_outputs_are_quantizer_fixed_points(self):
        n = 128
        specs = uniform_stage_specs(n, 6, 2.0)
        pipeline = build_pipeline(PipelineConfig(n=n, stage_quantizers=specs))
        trace = pipeline.run(random_signal(n, seed=17), keep_stages=True)
        for stage_out, spec in zip(trace.stage_outputs, specs):
            requantized, _ = apply_quantizer(stage_out, spec)
            assert np.array_equal(requantized, stage_out)

    def test_mantissa_stage_outputs_are_fixed_points(self):
        n = 64
        specs = mantissa_stage_specs(n, 5)
        pipeline = build_pipeline(PipelineConfig(n=n, stage_quantizers=specs))
        trace = pipeline.run(random_signal(n, seed=18), keep_stages=True)
        for stage_out, spec in zip(trace.stage_outputs, specs):
            requantized, _ = apply_quantizer(stage_out, spec)
            assert np.array_equal(requantized, stage_out)

    def test_input_quantizer_applied_before_stages(self):
        n = 4
        spec = QuantizerSpec("uniform", 2, 1.0)  # q = 0.5
        pipeline = build_pipeline(PipelineConfig(n=n, input_quantizer=spec))
        trace = pipeline.run(np.array([0.2, 0.3, -0.2, 0.85], dtype=complex), keep_stages=True)
        # quantized to [0, 0.5, 0, 1], then bit-reversed with perm [0, 2, 1, 3]
        assert trace.input.real.tolist() == [0.0, 0.0, 0.5, 1.0]

    def test_saturation_counted(self):
        n = 4
        spec = QuantizerSpec("uniform", 3, 0.5)
        pipeline = build_pipeline(PipelineConfig(n=n, input_quantizer=spec))
        trace = pipeline.run(np.array([0.9, 0.0, 0.0, -0.9], dtype=complex))
        assert trace.saturation_total == 2

    def test_unquantized_run_reports_no_saturation(self):
        trace = build_pipeline(PipelineConfig(n=32)).run(random_signal(32, seed=3))
        assert trace.saturation_total == 0

    def test_ifft_prescales_input(self):
        n = 16
        spectrum = np.zeros(n, dtype=complex)
        spectrum[0] = n
        trace = build_pipeline(PipelineConfig(n=n, direction="ifft")).run(spectrum, keep_stages=True)
        assert np.allclose(trace.output, np.ones(n), atol=1e-14)
        # the recorded input already carries the 1/N scaling
        assert trace.input[0] == 1.0

    def test_length_mismatch_rejected(self):
        pipeline = build_pipeline(PipelineConfig(n=16))
        with pytest.raises(ValueError):
            pipeline.run(np.ones(8, dtype=complex))

    def test_non_finite_input_rejected(self):
        pipeline = build_pipeline(PipelineConfig(n=4))
        with pytest.raises(ValueError):
            pipeline.run(np.array([np.nan, 0, 0, 0], dtype=complex))

    def test_function_form_matches_method(self):
        pipeline = build_pipeline(PipelineConfig(n=8))
        x = random_signal(8, seed=5)
        assert np.array_equal(run(pipeline, x).output, pipeline.run(x).output)

    def test_parallel_runs_share_one_pipeline(self):
        n = 128
        pipeline = build_pipeline(
            PipelineConfig(n=n, stage_quantizers=uniform_stage_specs(n, 8, 2.0))
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
    spectrum = build_pipeline(PipelineConfig(n=n)).run(x)
    assert spectrum.multiplies == (n // 2) * 16
    back = build_pipeline(PipelineConfig(n=n, direction="ifft")).run(spectrum.output)
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
            specs = uniform_stage_specs(n, bits, np.sqrt(2.0))
            trace = build_pipeline(PipelineConfig(n=n, stage_quantizers=specs)).run(x)
            err = reference - trace.output
            err_var = np.concatenate([err.real, err.imag]).var()
            sqnr.append(10 * np.log10(ref_var / err_var))
        for lo, hi in zip(sqnr, sqnr[1:]):
            assert hi >= lo - 0.5


def test_stage_spec_ladders():
    specs = uniform_stage_specs(16, 8, 1.5)
    assert [s.x_max for s in specs] == [3.0, 6.0, 12.0, 24.0]
    assert all(s.mode == "uniform" and s.bits == 8 for s in specs)
    specs = mantissa_stage_specs(16, 7)
    assert len(specs) == 4
    assert all(s.mode == "mantissa" and s.bits == 7 for s in specs)
