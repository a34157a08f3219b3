import math

import numpy as np
import pytest

from qfft.analysis import (
    SQNR_CAP_DB,
    CharacterizationRow,
    compare,
    quantizer_characterization,
    run_sweep,
)
from qfft.config import ConfigError, ExperimentConfig, parse_config
from qfft.core import fft_reference
from qfft import uniform_stage_specs
from qfft.pipeline import Pipeline, PipelineConfig
from qfft.quantization import QuantizerSpec, theory_variance_mantissa, theory_variance_uniform


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


class TestRunSweep:
    def sweep(self, **kw):
        args = dict(n=256, bits_lo=6, bits_hi=14, signal_amplitude=1.0, trials=5, seed=0)
        args.update(kw)
        return run_sweep(ExperimentConfig(**args))

    @pytest.mark.parametrize("mode", ["uniform", "mantissa"])
    def test_tiny_signal_rows_match_the_unit_amplitude_rows(self, mode):
        # every operation scales exactly by a power of two, so only the
        # underflow of squared error components could tell the rows apart
        unit, tiny = (
            self.sweep(n=64, trials=2, bits_lo=10, bits_hi=10, quantizer_mode=mode, signal_amplitude=a)[0]
            for a in (1.0, 2.0**-530)
        )
        assert tiny.percent_error == unit.percent_error
        assert tiny.sqnr_db == unit.sqnr_db
        assert tiny.error_std == math.ldexp(unit.error_std, -530)

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
            expected = theory_variance_uniform(QuantizerSpec("uniform", row.bits, base))
            assert row.theory_variance == expected
        for row in self.sweep(quantizer_mode="mantissa", bits_lo=6, bits_hi=8):
            expected = theory_variance_mantissa(QuantizerSpec("mantissa", row.bits))
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

    def test_ifft_direction_runs(self):
        rows = self.sweep(direction="ifft", bits_lo=8, bits_hi=10, trials=2)
        assert len(rows) == 3
        assert all(r.error_variance > 0 for r in rows)

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
        assert row.theory_variance == theory_variance_uniform(QuantizerSpec("uniform", 8, 1.0))

    def test_mantissa_matches_theory(self):
        rows = quantizer_characterization("mantissa", 6, 6, 100_000, seed=6)
        (row,) = rows
        assert abs(row.empirical_variance - row.theory_variance) / row.theory_variance < 0.05
        assert row.theory_variance == theory_variance_mantissa(QuantizerSpec("mantissa", 6))

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

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            quantizer_characterization("off", 4, 6, 10_000)
