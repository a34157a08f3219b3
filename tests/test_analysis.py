import itertools
import math

import numpy as np
import pytest

from qfft.analysis import (
    CharacterizationRow,
    _moments,
    compare,
    quantizer_characterization,
    run_sweep,
)
from qfft.config import ConfigError, ExperimentConfig, parse_config
from qfft.core import fft_reference
from qfft import uniform_stage_specs
from qfft.pipeline import Pipeline, PipelineConfig
from qfft.quantization import SQNR_CAP_DB, QuantizerSpec
from qfft.signals import generate_signal


def random_signal(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)


class TestCompare:
    def test_tiny_vectors_compare_like_unit_vectors(self):
        ref = random_signal(64, seed=2)
        out = ref + 1e-4 * random_signal(64, seed=3)
        _, percent, sqnr = compare(ref, out)
        error, tiny_percent, tiny_sqnr = compare(ref * 2.0**-530, out * 2.0**-530)
        assert (tiny_percent, tiny_sqnr) == (percent, sqnr)
        assert error.tobytes() == ((ref - out) * 2.0**-530).tobytes()

    def test_perfect_match(self):
        x = random_signal(16, seed=1)
        error, percent, sqnr = compare(x, x)
        assert np.all(error == 0.0)
        assert percent == 0.0
        assert sqnr == SQNR_CAP_DB

    def test_half_amplitude_is_50_percent(self):
        reference = np.array([2, 0, 0, 0], dtype=complex)
        test = np.array([1, 0, 0, 0], dtype=complex)
        _, percent, _ = compare(reference, test)
        assert percent == pytest.approx(50.0, rel=1e-12)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            compare(np.zeros(4, dtype=complex), np.ones(4, dtype=complex))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compare(np.ones(4, dtype=complex), np.ones(8, dtype=complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    @pytest.mark.parametrize("name", ["reference", "test"])
    def test_non_finite_component_rejected(self, name, bad):
        vectors = {"reference": np.ones(4, dtype=complex), "test": np.ones(4, dtype=complex)}
        vectors[name][2] = bad
        with pytest.raises(ValueError, match=f"^{name} contains non-finite components$"):
            compare(**vectors)

    def test_agrees_with_independent_recomputation(self):
        # quantized 1024-point run at b=8 checked against a from-scratch
        # evaluation of the same definitions
        n = 1024
        x = random_signal(n, seed=88)
        reference = fft_reference(x)
        specs = uniform_stage_specs(n, 8, math.sqrt(2.0))
        test = Pipeline(PipelineConfig(n=n, stage_quantizers=specs)).run(x).output

        error, percent, sqnr = compare(reference, test)

        diff = reference - test
        assert np.array_equal(error, diff)
        percent_direct = 100.0 * math.sqrt(
            float(np.sum(np.abs(diff) ** 2)) / float(np.sum(np.abs(reference) ** 2))
        )
        assert percent == pytest.approx(percent_direct, rel=1e-12)
        pooled_ref = np.concatenate([reference.real, reference.imag])
        pooled_err = np.concatenate([diff.real, diff.imag])
        sqnr_direct = 10.0 * math.log10(pooled_ref.var() / pooled_err.var())
        assert sqnr == pytest.approx(sqnr_direct, rel=1e-12)

    @pytest.mark.parametrize(
        "amplitude",
        [1.0, 2.0**-530, 1e-300, 2.0**-1015, 3.7, 2.0**300],
        ids=["unit", "tiny", "1e-300", "2**-1015", "3.7", "2**300"],
    )
    @pytest.mark.parametrize("mode", ["uniform", "mantissa"])
    @pytest.mark.parametrize("n", [2, 1024, 65536])
    def test_equals_a_one_trial_sweep_row(self, n, mode, amplitude):
        # bit for bit: compare and run_sweep share one statistics path, on the unit-scale run
        for seed in range(4):
            cfg = ExperimentConfig(
                n=n,
                direction=("fft", "ifft")[seed % 2],
                twiddle_enabled=seed >= 2,
                bits_lo=9,
                bits_hi=9,
                trials=1,
                seed=seed,
                quantizer_mode=mode,
                signal_amplitude=amplitude,
            )
            (row,) = run_sweep(cfg)
            (trial_seed,) = np.random.SeedSequence(seed).spawn(1)
            x = generate_signal(cfg.signal_spec(), trial_seed)
            output = Pipeline(cfg.pipeline_config(9)).run(x).output
            _, percent, sqnr = compare(fft_reference(x, cfg.direction), output)
            assert (percent, sqnr) == (row.percent_error, row.sqnr_db)


class TestSweepSpec:
    """The sweep a config specifies: its ``sweep`` section and quantizer mode."""

    def test_rejects_bad_bit_range(self):
        # bits_lo > bits_hi is in test_config's constraint cases
        with pytest.raises(ConfigError, match=r"sweep: need 1 <= bits_lo"):
            parse_config('{"sweep": {"bits_lo": 0, "bits_hi": 4}}')
        with pytest.raises(ConfigError, match=r"sweep: need 1 <= bits_lo"):
            parse_config('{"sweep": {"bits_lo": 4, "bits_hi": 25}}')
        assert parse_config('{"sweep": {"bits_lo": 24, "bits_hi": 24}}').bits_hi == 24

    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigError, match=r"quantizer\.mode"):
            run_sweep(ExperimentConfig(n=16, bits_lo=4, bits_hi=8, quantizer_mode="off"))


class TestMoments:
    # a unit-scale run's components stay below 2**418, whose squares numpy's var() keeps finite
    @pytest.mark.parametrize("scale", [1.0, 2.0**-530, 2.0**400], ids=["unscaled", "tiny", "huge"])
    @pytest.mark.parametrize("seed", range(8))
    def test_in_place_moments_keep_the_bits_of_mean_and_var(self, seed, scale):
        # _moments overwrites its buffer instead of letting var() copy it;
        # the mean and variance must still be numpy's, bit for bit
        rng = np.random.default_rng(seed)
        vectors, n = int(rng.integers(1, 9)), 1 << int(rng.integers(1, 15))
        pooled = scale * rng.uniform(-1, 1, (2, vectors, n)) + scale * rng.uniform(-1e-3, 1e-3)
        kept = pooled.copy()
        mean, variance, _ = _moments(pooled)
        assert mean.hex() == float(np.mean(kept)).hex()
        assert variance.hex() == float(np.var(kept)).hex()


class TestRunSweep:
    def sweep(self, **kw):
        args = dict(n=256, bits_lo=6, bits_hi=14, signal_amplitude=1.0, trials=5, seed=0)
        args.update(kw)
        return run_sweep(ExperimentConfig(**args))

    @pytest.mark.parametrize("mode", ["uniform", "mantissa"])
    def test_tiny_signal_rows_match_the_unit_amplitude_rows(self, mode):
        # every run is at unit scale: amplitude a runs the rows of a * 2**-e, and
        # reports them scaled back by 2**e (4**e for the variances)
        for amplitude, direction, rom in itertools.product(
            [2.0**-530, 1e-300, 2.0**-1015, 3.7, 2.0**300], ["fft", "ifft"], [False, True]
        ):
            e = ExperimentConfig(signal_amplitude=amplitude).scale_exponent
            scaled, unit = (
                self.sweep(
                    n=64, trials=2, bits_lo=10, bits_hi=10, quantizer_mode=mode, direction=direction,
                    twiddle_enabled=rom, signal_amplitude=a,
                )[0]
                for a in (amplitude, math.ldexp(amplitude, -e))
            )
            assert (scaled.percent_error, scaled.sqnr_db) == (unit.percent_error, unit.sqnr_db)
            assert (scaled.error_mean, scaled.error_std) == (math.ldexp(unit.error_mean, e), math.ldexp(unit.error_std, e))
            assert scaled.error_variance == math.ldexp(unit.error_variance, 2 * e)
            theory = math.ldexp(unit.theory_variance, 2 * e) if mode == "uniform" else unit.theory_variance
            assert scaled.theory_variance == theory

    def test_one_row_per_bit(self):
        rows = self.sweep()
        assert [r.bits for r in rows] == list(range(6, 15))

    def test_variance_nonincreasing(self):
        rows = self.sweep()
        variances = [r.error_variance for r in rows]
        for lo, hi in zip(variances, variances[1:]):
            assert hi <= lo * 1.02

    def test_deterministic(self):
        assert self.sweep() == self.sweep()
        single_a = self.sweep(bits_lo=8, bits_hi=8, trials=1, seed=123)
        single_b = self.sweep(bits_lo=8, bits_hi=8, trials=1, seed=123)
        assert single_a == single_b

    def test_seed_changes_results(self):
        assert self.sweep(trials=2) != self.sweep(trials=2, seed=999)

    def test_theory_column_is_exact(self):
        base = math.sqrt(2.0)  # magnitude bound of unit random signal
        for row in self.sweep():
            expected = QuantizerSpec("uniform", row.bits, base).theory_variance
            assert row.theory_variance == expected
        for row in self.sweep(quantizer_mode="mantissa", bits_lo=6, bits_hi=8):
            expected = QuantizerSpec("mantissa", row.bits).theory_variance
            assert row.theory_variance == expected

    def test_std_variance_consistency(self):
        for row in self.sweep():
            assert math.isclose(row.error_std**2, row.error_variance, rel_tol=1e-12)

    def test_row_sanity(self):
        for row in self.sweep():
            assert row.percent_error >= 0.0
            assert 0.0 <= row.saturation_rate <= 1.0
            assert row.sqnr_db <= SQNR_CAP_DB

    def test_default_ladder_never_saturates(self):
        for row in self.sweep():
            assert row.saturation_rate == 0.0

    @pytest.mark.parametrize("rom, saturations", [(False, 0), (True, 1)])
    def test_a_twiddle_rom_can_saturate_the_ladder(self, rom, saturations):
        # a rounded twiddle can have |W_q| > 1, and a bin-centred sinusoid
        # reaches the last stage's full scale exactly, so the ROM pushes it past
        cfg = ExperimentConfig(
            n=64, signal_kind="sinusoid", signal_bin=1, quantizer_bits=12, twiddle_enabled=rom, twiddle_bits=10
        )
        trace = Pipeline(cfg.pipeline_config()).run(generate_signal(cfg.signal_spec(), cfg.seed))
        assert trace.saturation_total == saturations

    def test_ifft_direction_runs(self):
        rows = self.sweep(direction="ifft", bits_lo=8, bits_hi=10, trials=2)
        assert len(rows) == 3
        assert all(r.error_variance > 0 for r in rows)

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"quantizer_x_max": 1e200, "signal_amplitude": 1e150}, "quantizer.x_max"),
            ({"signal_amplitude": 1e200}, "signal.amplitude"),
            ({"signal_kind": "multitone", "signal_bins": (1, 2), "signal_amplitudes": (1e200, 1e200)}, "signal.amplitudes"),
        ],
        ids=["x_max", "amplitude", "amplitudes"],
    )
    def test_a_theory_column_past_the_double_range_is_a_config_error(self, change, field):
        # the unit-scale column is finite; scaled back by 4**e it is not
        with pytest.raises(ConfigError, match=rf"^{field}: the reported value .* past the double range$"):
            self.sweep(n=64, bits_lo=6, bits_hi=7, trials=1, **change)

    @pytest.mark.parametrize("x_max", [1e155, 4.2e155, 4.3e155, 1e156, 1.48e156, 1.49e156])
    def test_the_theory_column_check_is_exact(self, x_max):
        # q^2/12 at 6 bits first overflows between 1.48e156 and 1.49e156; the column
        # is the full scale's own theory variance, bit for bit, where that is finite
        theory = QuantizerSpec("uniform", 6, x_max).theory_variance
        cfg = ExperimentConfig(n=64, bits_lo=6, bits_hi=6, trials=1, quantizer_x_max=x_max, signal_amplitude=1e150)
        assert cfg.scale_exponent == 498
        if math.isfinite(theory):
            assert run_sweep(cfg)[0].theory_variance == theory
        else:
            with pytest.raises(ConfigError, match=r"^quantizer\.x_max: "):
                run_sweep(cfg)

    def test_an_error_variance_past_the_double_range_is_a_config_error(self):
        with pytest.raises(ConfigError, match=r"^signal\.amplitude: the reported value .* past the double range$"):
            self.sweep(n=64, bits_lo=6, bits_hi=7, trials=1, quantizer_mode="mantissa", signal_amplitude=1e160)
        # the largest amplitude decade that runs: an error variance of 1.36e300
        rows = self.sweep(n=64, bits_lo=6, bits_hi=7, trials=1, signal_amplitude=1e150)
        assert all(math.isfinite(value) for row in rows for value in vars(row).values())
        assert rows[0].error_variance > 1e300

    def test_mantissa_flattens_no_later_than_uniform(self):
        uniform = self.sweep()
        mantissa = self.sweep(quantizer_mode="mantissa")

        def plateau(rows):
            variances = [r.error_variance for r in rows]
            threshold = 0.05 * max(variances)
            for i in range(len(rows) - 1):
                if abs(variances[i + 1] - variances[i]) < threshold:
                    return rows[i].bits
            return rows[-1].bits

        assert plateau(mantissa) <= plateau(uniform)


class TestCharacterization:
    def test_uniform_matches_theory(self):
        rows = quantizer_characterization("uniform", 8, 8, 100_000, seed=5)
        (row,) = rows
        assert row.bits == 8
        assert abs(row.empirical_variance - row.theory_variance) / row.theory_variance < 0.05
        assert row.theory_variance == QuantizerSpec("uniform", 8, 1.0).theory_variance

    def test_mantissa_matches_theory(self):
        rows = quantizer_characterization("mantissa", 6, 6, 100_000, seed=6)
        (row,) = rows
        assert abs(row.empirical_variance - row.theory_variance) / row.theory_variance < 0.05
        assert row.theory_variance == QuantizerSpec("mantissa", 6).theory_variance

    def test_single_bit_edge_case(self):
        for mode in ("uniform", "mantissa"):
            (row,) = quantizer_characterization(mode, 1, 1, 10_000, seed=7)
            assert isinstance(row, CharacterizationRow)
            assert math.isfinite(row.empirical_variance)
            assert row.empirical_variance > 0

    def test_deterministic(self):
        a = quantizer_characterization("uniform", 4, 6, 10_000, seed=8)
        b = quantizer_characterization("uniform", 4, 6, 10_000, seed=8)
        assert a == b

    def test_rejects_small_sample_count(self):
        with pytest.raises(ValueError):
            quantizer_characterization("uniform", 4, 6, 9_999)

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError, match="need 1 <= bits_lo <= bits_hi"):
            quantizer_characterization("uniform", 0, 3, 10_000)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            quantizer_characterization("off", 4, 6, 10_000)
