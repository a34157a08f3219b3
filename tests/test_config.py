import json
import sys

import pytest

from qfft.config import ConfigError, ExperimentConfig, parse_config, serialize_config
from qfft.quantization import QuantizerSpec

FULL_SWEEP_CONFIG = """
{
  "n": 256,
  "direction": "ifft",
  "quantizer": {"mode": "mantissa", "bits": 10, "x_max": 2.5},
  "twiddle_quantization": {"enabled": true, "bits": 12},
  "signal": {"kind": "multitone", "bins": [3, 17], "amplitudes": [1.0, 0.5]},
  "sweep": {"bits_lo": 5, "bits_hi": 12, "trials": 7},
  "seed": 99,
  "out": "report.csv",
  "format": "json"
}
"""


class TestParsing:
    def test_empty_document_gives_defaults(self):
        cfg = parse_config("{}")
        assert cfg == ExperimentConfig()
        assert cfg.n == 1024
        assert cfg.direction == "fft"
        assert cfg.format == "csv"

    def test_minimal_config_fills_defaults(self):
        cfg = parse_config('{"n": 1024, "quantizer": {"mode": "uniform", "bits": 8}}')
        assert cfg.n == 1024
        assert cfg.quantizer_mode == "uniform"
        assert cfg.quantizer_bits == 8
        assert cfg.bits_lo == 6 and cfg.bits_hi == 14 and cfg.trials == 20
        assert cfg.seed == 0

    def test_full_document(self):
        cfg = parse_config(FULL_SWEEP_CONFIG)
        assert cfg.direction == "ifft"
        assert cfg.quantizer_mode == "mantissa"
        assert cfg.twiddle_enabled and cfg.twiddle_bits == 12
        assert cfg.signal_bins == (3, 17)
        assert cfg.signal_amplitudes == (1.0, 0.5)
        assert cfg.trials == 7
        assert cfg.out == "report.csv"

    def test_non_power_of_two_names_the_constraint(self):
        with pytest.raises(ConfigError, match="power of two"):
            parse_config('{"n": 1000}')

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="window"):
            parse_config('{"window": "hann"}')

    def test_unknown_nested_key_has_path(self):
        with pytest.raises(ConfigError, match=r"quantizer\.dither"):
            parse_config('{"quantizer": {"dither": true}}')

    def test_type_mismatch_diagnostics(self):
        with pytest.raises(ConfigError, match="n"):
            parse_config('{"n": "big"}')
        with pytest.raises(ConfigError, match=r"quantizer\.bits"):
            parse_config('{"quantizer": {"bits": 8.5}}')
        with pytest.raises(ConfigError, match=r"twiddle_quantization\.enabled"):
            parse_config('{"twiddle_quantization": {"enabled": "yes"}}')

    def test_invalid_json_reports_location(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config("{not json}")

    def test_constraint_violations(self):
        with pytest.raises(ConfigError, match=r"quantizer\.bits"):
            parse_config('{"quantizer": {"bits": 99}}')
        with pytest.raises(ConfigError, match="bits_lo"):
            parse_config('{"sweep": {"bits_lo": 9, "bits_hi": 3}}')
        with pytest.raises(ConfigError, match="trials"):
            parse_config('{"sweep": {"trials": 0}}')
        with pytest.raises(ConfigError, match="bin"):
            parse_config('{"n": 16, "signal": {"kind": "sinusoid", "bin": 16}}')
        with pytest.raises(ConfigError, match="format"):
            parse_config('{"format": "xml"}')

    def test_per_stage_list(self):
        text = json.dumps(
            {
                "n": 4,
                "quantizer": {
                    "per_stage": [
                        {"mode": "uniform", "bits": 6, "x_max": 2.0},
                        {"mode": "off"},
                    ]
                },
            }
        )
        cfg = parse_config(text)
        assert cfg.per_stage == (QuantizerSpec("uniform", 6, 2.0), QuantizerSpec("off"))

    def test_per_stage_wrong_count(self):
        with pytest.raises(ConfigError, match="per_stage"):
            parse_config('{"n": 8, "quantizer": {"per_stage": [{"mode": "off"}]}}')

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"signal": {"amplitude": 1e400}}', r"signal\.amplitude"),
            ('{"signal": {"amplitude": Infinity}}', r"signal\.amplitude"),
            ('{"signal": {"amplitude": NaN}}', r"signal\.amplitude"),
            ('{"signal": {"amplitude": 1' + "0" * 400 + "}}", r"signal\.amplitude"),
            ('{"quantizer": {"x_max": -Infinity}}', r"quantizer\.x_max"),
            (
                '{"signal": {"kind": "multitone", "bins": [1, 2], "amplitudes": [1.0, NaN]}}',
                r"signal\.amplitudes\[1\]",
            ),
            (
                '{"n": 4, "quantizer": {"per_stage": [{"x_max": Infinity}, {"mode": "off"}]}}',
                r"quantizer\.per_stage\[0\]\.x_max",
            ),
        ],
        ids=["1e400", "Infinity", "NaN", "huge-integer", "x_max", "amplitudes", "per_stage"],
    )
    def test_non_finite_numbers_rejected(self, text, field):
        with pytest.raises(ConfigError, match=field + ": must be a finite number"):
            parse_config(text)

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"quantizer": {"mode": "uniform", "bits": 8, "x_max": 1e308}}', r"quantizer\.x_max"),
            ('{"quantizer": {"mode": "mantissa"}, "signal": {"amplitude": 1e307}}', r"signal\.amplitude"),
            (
                '{"signal": {"kind": "multitone", "bins": [1, 2], "amplitudes": [1e308, 1e308]}}',
                r"signal\.amplitudes",
            ),
        ],
        ids=["x_max", "amplitude", "amplitudes"],
    )
    def test_full_scale_with_overflowing_ladder_step_rejected(self, text, field):
        with pytest.raises(ConfigError, match=field + ": full scale .* overflows"):
            parse_config(text)

    def test_largest_full_scale_with_finite_ladder_step_accepted(self):
        # n = 1024: the check bounds 2 * x_max * 2**11
        x_max = sys.float_info.max / 2**12
        cfg = parse_config(json.dumps({"quantizer": {"x_max": x_max}}))
        assert cfg.quantizer_x_max == x_max
        with pytest.raises(ConfigError, match=r"quantizer\.x_max"):
            parse_config(json.dumps({"quantizer": {"x_max": 2 * x_max}}))


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "{}",
            '{"n": 64, "quantizer": {"mode": "mantissa", "bits": 5}}',
            FULL_SWEEP_CONFIG,
        ],
    )
    def test_parse_serialize_parse_is_identity(self, text):
        once = parse_config(text)
        twice = parse_config(serialize_config(once))
        assert once == twice
        assert serialize_config(once) == serialize_config(twice)


class TestDerivedObjects:
    def test_signal_spec(self):
        cfg = parse_config('{"n": 32, "signal": {"kind": "sinusoid", "bin": 5}}')
        spec = cfg.signal_spec()
        assert spec.kind == "sinusoid" and spec.n == 32 and spec.bin == 5

    def test_pipeline_config_uses_doubling_ladder(self):
        cfg = parse_config('{"n": 16, "quantizer": {"mode": "uniform", "bits": 8, "x_max": 1.0}}')
        pc = cfg.pipeline_config()
        assert [s.x_max for s in pc.stage_quantizers] == [2.0, 4.0, 8.0, 16.0]

    def test_pipeline_config_off_mode(self):
        cfg = parse_config('{"n": 16, "quantizer": {"mode": "off"}}')
        assert all(s.mode == "off" for s in cfg.pipeline_config().stage_quantizers)

    def test_twiddle_quantizer_only_when_enabled(self):
        assert parse_config("{}").twiddle_quantizer() is None
        cfg = parse_config('{"twiddle_quantization": {"enabled": true, "bits": 9}}')
        spec = cfg.twiddle_quantizer()
        assert spec == QuantizerSpec("uniform", 9, 1.0)

    def test_sweep_spec(self):
        cfg = parse_config(
            '{"n": 64, "sweep": {"bits_lo": 4, "bits_hi": 9, "trials": 3}, "seed": 7}'
        )
        sweep = cfg.sweep_spec()
        assert (sweep.bits_lo, sweep.bits_hi, sweep.trials, sweep.seed) == (4, 9, 3, 7)
        assert sweep.n == 64
