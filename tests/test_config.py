import dataclasses
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfft import config, quantization
from qfft.analysis import run_sweep, run_transform
from qfft.config import ConfigError, ExperimentConfig, parse_config
from qfft.quantization import QuantizerSpec

FULL_SWEEP_CONFIG = """
{
  "n": 256,
  "direction": "ifft",
  "quantizer": {"mode": "mantissa", "bits": 10},
  "twiddle_quantization": {"enabled": true, "bits": 12},
  "signal": {"kind": "multitone", "bins": [3, 17], "amplitudes": [1.0, 0.5]},
  "sweep": {"bits_lo": 5, "bits_hi": 12, "trials": 7},
  "seed": 99,
  "out": "report.csv",
  "format": "json"
}
"""


def serialize(cfg):
    """The JSON document of a config's effective values."""
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True)


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

    @pytest.mark.parametrize(
        "text",
        ['{"n": ' + "1" * 5000 + "}", "[" * 100_000 + "]" * 100_000],
        ids=["integer-past-digit-limit", "nesting-past-recursion-limit"],
    )
    def test_valid_json_the_decoder_cannot_read(self, text):
        with pytest.raises(ConfigError, match="unreadable JSON"):
            parse_config(text)

    @pytest.mark.parametrize("kind", ["impulse", "sinusoid", "multitone"])
    def test_amplitude_needs_a_random_signal(self, kind):
        # no other kind reads amplitude, so its header leaves it out
        signal = {"kind": kind, "bins": [1]} if kind == "multitone" else {"kind": kind}
        with pytest.raises(ConfigError, match=r"^signal\.amplitude: only a random signal has amplitude"):
            parse_config(json.dumps({"signal": {**signal, "amplitude": 5.0}}))
        assert "amplitude" not in parse_config(json.dumps({"signal": signal})).to_dict()["signal"]

    @pytest.mark.parametrize(
        "signal, field",
        [
            ({"kind": "random", "bins": [1, 2], "amplitudes": [1.0]}, "bins"),
            ({"kind": "sinusoid", "amplitudes": [2.0]}, "amplitudes"),
            ({"amplitudes": []}, "amplitudes"),
        ],
    )
    def test_multitone_fields_need_a_multitone_signal(self, signal, field):
        with pytest.raises(ConfigError, match=rf"signal\.{field}: only a multitone signal"):
            parse_config(json.dumps({"signal": signal}))

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
        assert cfg.per_stage == (QuantizerSpec("uniform", 6, 2.0), None)

    @pytest.mark.parametrize(
        "entry, field",
        [
            ({"mode": "off", "bits": "abc", "x_max": [1]}, "bits"),
            ({"mode": "off", "bits": 8, "x_max": [1]}, "x_max"),
            ({"mode": "off", "bits": True}, "bits"),
            ({"mode": "off", "x_max": None}, "x_max"),
        ],
        ids=["bits-string", "x_max-list", "bits-bool", "x_max-null"],
    )
    def test_off_per_stage_entry_checks_its_keys(self, entry, field):
        text = json.dumps({"n": 4, "quantizer": {"per_stage": [entry, {"mode": "off"}]}})
        with pytest.raises(ConfigError, match=rf"quantizer\.per_stage\[0\]\.{field}: expected"):
            parse_config(text)

    def test_off_per_stage_entry_ignores_well_formed_keys(self):
        # well-formed bits and x_max on an off entry parse and are dropped
        entry = {"mode": "off", "bits": 0, "x_max": 1.0}
        cfg = parse_config(json.dumps({"n": 2, "quantizer": {"per_stage": [entry]}}))
        assert cfg.per_stage == (None,)

    @pytest.mark.parametrize(
        "n, trials, ok",
        [(65536, 256, True), (65536, 257, False), (1024, 16384, True), (1024, 16385, False), (2, 10**30, False)],
    )
    def test_sweep_trials_times_n_bounded(self, n, trials, ok):
        text = json.dumps({"n": n, "sweep": {"trials": trials}})
        if ok:
            assert parse_config(text).trials == trials
        else:
            with pytest.raises(ConfigError, match=r"sweep\.trials: trials \* n must be at most 16777216"):
                parse_config(text)

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

    RATIO = r"full scale .* must be positive and within 2\*\*\+-400 of the signal's magnitude bound"
    BOUND = r"the signal's magnitude bound is past the double range$"

    @pytest.mark.parametrize(
        "text, field, reason",
        [
            ('{"quantizer": {"mode": "uniform", "bits": 8, "x_max": 1e308}}', r"quantizer\.x_max", RATIO),
            ('{"quantizer": {"mode": "mantissa"}, "signal": {"amplitude": 1.3e308}}', r"signal\.amplitude", BOUND),
            (
                '{"signal": {"kind": "multitone", "bins": [1, 2], "amplitudes": [1e308, 1e308]}}',
                r"signal\.amplitudes",
                BOUND,
            ),
            # sqrt(2) * 1.7e308 overflows to inf, with no warning (an error in this suite) on the way
            ('{"signal": {"amplitude": 1.7e308}}', r"signal\.amplitude", BOUND),
        ],
        ids=["x_max", "amplitude", "amplitudes", "amplitude-near-double-max"],
    )
    def test_full_scale_with_overflowing_ladder_step_rejected(self, text, field, reason):
        # only a signal bound past the double range, or a full scale too far from it, is rejected
        with pytest.raises(ConfigError, match=f"^{field}: {reason}"):
            parse_config(text)

    @pytest.mark.parametrize(
        "quantizer, runs",
        [
            ({}, True),
            ({"x_max": 1.0}, False),
            ({"mode": "off"}, True),
            ({"mode": "mantissa"}, True),
            ({"per_stage": [{"mode": "mantissa"}] * 16}, True),
        ],
        ids=["uniform-ladder", "uniform-explicit-x_max", "off", "mantissa", "per_stage"],
    )
    def test_an_overflowing_full_scale_names_what_bounds_the_run(self, quantizer, runs):
        # every run is at unit scale and reports an output below its bound 1.4142135623730953e+303 * 2**16
        # = 9.3e307; only a full scale 2**1006 below the signal's bound is rejected, and named
        doc = {"n": 65536, "quantizer": quantizer, "signal": {"amplitude": 1e303}}
        if not runs:
            with pytest.raises(ConfigError, match=rf"^quantizer\.x_max: {self.RATIO} 1\.4142135623730953e\+303$"):
                parse_config(json.dumps(doc))
            return
        output = run_transform(parse_config(json.dumps(doc))).output
        peak = float(np.abs(output.view(np.float64)).max())
        assert 1e305 < peak <= 1.4142135623730953e303 * 2**16

    @pytest.mark.parametrize(
        "text, field, reason",
        [
            ('{"quantizer": {"x_max": 1e-320, "bits": 52}}', r"quantizer\.x_max", RATIO),
            ('{"quantizer": {"x_max": 1e-300, "bits": 52}}', r"quantizer\.x_max", RATIO),
            (
                '{"n": 4, "quantizer": {"per_stage": [{"mode": "off"}, {"x_max": 1e-320, "bits": 52}]}}',
                r"quantizer\.per_stage\[1\]\.x_max",
                "full scale .* not a positive normal number",
            ),
            (
                '{"n": 4, "quantizer": {"per_stage": [{"x_max": 1.7e308, "bits": 8}, {"mode": "off"}]}}',
                r"quantizer\.per_stage\[0\]\.x_max",
                "full scale .* not a positive normal number",
            ),
        ],
        ids=["x_max-zero-step", "x_max-subnormal-step", "per_stage", "per_stage-infinite-step"],
    )
    def test_full_scale_with_non_normal_ladder_step_rejected(self, text, field, reason):
        # a per-stage spec judges its own step at the given scale; the top-level x_max is held to the ratio
        with pytest.raises(ConfigError, match=f"^{field}: {reason}"):
            parse_config(text)

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"n": 64, "quantizer": {"x_max": 1e-300}, "signal": {"amplitude": 1e300}}, r"quantizer\.x_max"),
            ({"quantizer": {"x_max": 1e200}}, r"quantizer\.x_max"),
            ({"n": 2, "quantizer": {"per_stage": [{"x_max": 2.0**-401, "bits": 8}]}}, r"quantizer\.per_stage\[0\]\.x_max"),
        ],
        ids=["far-below-the-signal", "far-above-the-signal", "per_stage"],
    )
    def test_a_full_scale_outside_the_ratio_is_rejected(self, doc, field):
        # at real scale x / q overflows in the first case, and every component rounds to 0 in the second
        with pytest.raises(ConfigError, match=f"^{field}: {self.RATIO}"):
            parse_config(json.dumps(doc))

    def test_smallest_full_scale_with_normal_ladder_step_accepted(self):
        # the unit signal's bound is in [1, 2): a full scale of 2**-400 is the smallest accepted,
        # and its finest ladder step 2**-451 is normal
        x_max = 2.0**-400
        cfg = parse_config(json.dumps({"quantizer": {"x_max": x_max, "bits": 52}}))
        assert cfg.quantizer_x_max == x_max and cfg.pipeline_config().stage_quantizers[0].step == 2.0**-450
        smaller = math.nextafter(x_max, 0.0)
        with pytest.raises(ConfigError, match=r"^quantizer\.x_max: full scale .* within 2\*\*\+-400"):
            parse_config(json.dumps({"quantizer": {"x_max": smaller, "bits": 52}}))
        # mantissa stages have no full scale, and each uniform per-stage entry is held to the same ratio
        with pytest.raises(ConfigError, match=r"^quantizer\.x_max: a mantissa quantizer is scale-free"):
            parse_config(json.dumps({"quantizer": {"mode": "mantissa", "x_max": smaller}}))
        per_stage = [{"x_max": x_max, "bits": 51}, {"mode": "mantissa"}]
        assert parse_config(json.dumps({"n": 4, "quantizer": {"per_stage": per_stage}}))
        per_stage[0]["x_max"] = smaller
        with pytest.raises(ConfigError, match=r"^quantizer\.per_stage\[0\]\.x_max: full scale .* within"):
            parse_config(json.dumps({"n": 4, "quantizer": {"per_stage": per_stage}}))

    def test_largest_full_scale_with_finite_ladder_step_accepted(self):
        # the largest full scale accepted for the unit signal is just below 2**401; its deepest
        # ladder step at n = 65536 is below 2**418
        x_max = math.nextafter(2.0**401, 0.0)
        cfg = parse_config(json.dumps({"n": 65536, "quantizer": {"x_max": x_max, "bits": 1}}))
        assert cfg.quantizer_x_max == x_max and cfg.pipeline_config().stage_quantizers[-1].step < 2.0**418
        with pytest.raises(ConfigError, match=r"^quantizer\.x_max"):
            parse_config(json.dumps({"quantizer": {"x_max": 2.0**401}}))


class TestOneBoundary:
    """A config built in Python or by ``dataclasses.replace`` passes the checks a parsed one does."""

    @pytest.mark.parametrize(
        "fields, path",
        [
            ({"trials": 0}, r"sweep\.trials"),
            ({"bits_lo": 9, "bits_hi": 3}, "sweep"),
            ({"n": 1000}, "n"),
            ({"n": 16.0}, "n"),
            ({"signal_kind": "sine"}, r"signal\.kind"),
            ({"trials": 2**15}, r"sweep\.trials"),
        ],
        ids=["no-trials", "empty-bit-range", "n-not-power-of-two", "n-float", "unknown-kind", "past-sample-cap"],
    )
    def test_python_construction_names_the_path(self, fields, path):
        with pytest.raises(ConfigError, match=rf"^{path}: "):
            ExperimentConfig(**fields)

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"quantizer": {"mode": "mantissa", "x_max": 5.0}}, r"quantizer\.x_max"),
            (
                {"n": 4, "quantizer": {"per_stage": [{"mode": "off"}, {"mode": "mantissa", "x_max": 1.0}]}},
                r"quantizer\.per_stage\[1\]\.x_max",
            ),
            (
                {"n": 2, "quantizer": {"per_stage": [{"mode": "mantissa", "x_max": None}]}},
                r"quantizer\.per_stage\[0\]\.x_max",
            ),
        ],
        ids=["x_max", "per_stage", "per_stage-null"],
    )
    def test_a_mantissa_full_scale_is_rejected(self, doc, path):
        # no mantissa quantizer reads x_max, so a header must not echo one
        with pytest.raises(ConfigError, match=rf"^{path}: a mantissa quantizer is scale-free"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("mode", quantization.MODES)
    @settings(max_examples=25, deadline=None)
    @given(x_max=st.floats(1e-100, 1e100))
    def test_a_full_scale_is_read_exactly_where_the_mode_is_not_scale_free(self, mode, x_max):
        top = {"quantizer": {"mode": mode, "x_max": x_max}}
        stage = {"n": 2, "quantizer": {"per_stage": [{"mode": mode, "x_max": x_max}]}}
        if mode not in quantization.SCALE_FREE:
            assert parse_config(json.dumps(top)).quantizer_x_max == x_max
            assert parse_config(json.dumps(stage)).per_stage[0].x_max == x_max
            return
        with pytest.raises(ValueError) as raised:
            QuantizerSpec(mode, 8, 1.0)
        reason = re.escape(str(raised.value).partition(": ")[2])
        # any given value, a negative, zero, null or out-of-range one included, meets the spec's message
        for value in (x_max, -x_max, 0.0, 1e-320, 1e308):
            top["quantizer"]["x_max"] = stage["quantizer"]["per_stage"][0]["x_max"] = value
            with pytest.raises(ConfigError, match=rf"^quantizer\.x_max: {reason}$"):
                parse_config(json.dumps(top))
            with pytest.raises(ConfigError, match=rf"^quantizer\.per_stage\[0\]\.x_max: {reason}$"):
                parse_config(json.dumps(stage))
        stage["quantizer"]["per_stage"][0]["x_max"] = None
        with pytest.raises(ConfigError, match=rf"^quantizer\.per_stage\[0\]\.x_max: {reason}$"):
            parse_config(json.dumps(stage))

    def test_an_integer_stage_full_scale_is_echoed_as_a_float(self):
        # equal configs echo equal headers: a spec keeps its full scale as a float, as a parsed one is
        built = ExperimentConfig(n=2, per_stage=(QuantizerSpec("uniform", 8, 2),))
        parsed = parse_config(json.dumps({"n": 2, "quantizer": {"per_stage": [{"bits": 8, "x_max": 2}]}}))
        assert built == parsed
        assert json.dumps(built.to_dict()) == json.dumps(parsed.to_dict())
        assert built.to_dict()["quantizer"]["per_stage"] == [{"mode": "uniform", "bits": 8, "x_max": 2.0}]

    def test_a_numpy_stage_full_scale_is_echoed_as_json(self):
        cfg = ExperimentConfig(n=2, per_stage=(QuantizerSpec("uniform", 8, np.float32(1.5)),))
        assert type(cfg.per_stage[0].x_max) is float
        expected = ExperimentConfig(n=2, per_stage=(QuantizerSpec("uniform", 8, 1.5),))
        assert json.dumps(cfg.to_dict()) == json.dumps(expected.to_dict())

    def test_a_built_mantissa_stage_with_a_full_scale_is_rejected(self):
        with pytest.raises(ValueError, match="^x_max: a mantissa quantizer is scale-free"):
            QuantizerSpec("mantissa", 8, 5.0)
        with pytest.raises(ConfigError, match=r"^quantizer\.x_max: a mantissa"):
            ExperimentConfig(quantizer_mode="mantissa", quantizer_x_max=5.0)

    @pytest.mark.parametrize("key, value", [("bits", 0), ("bits", 60), ("x_max", 0), ("x_max", -1)])
    def test_a_stage_spec_error_names_its_key(self, key, value):
        # QuantizerSpec judges the entry; the config names the key it rejects
        stages = [{"mode": "off"}, {"mode": "uniform", key: value}]
        with pytest.raises(ConfigError, match=rf"^quantizer\.per_stage\[1\]\.{key}: "):
            parse_config(json.dumps({"n": 4, "quantizer": {"per_stage": stages}}))

    def test_rejection_paths_name_their_field(self):
        with pytest.raises(ConfigError) as raised:
            parse_config(json.dumps({"signal": {"kind": "multitone", "bins": 3}}))
        assert str(raised.value) == "signal.bins: expected a list, got 3"
        with pytest.raises(ConfigError, match=r"^quantizer\.per_stage\[0\]: expected a QuantizerSpec or None"):
            ExperimentConfig(n=2, per_stage=("uniform",))
        with pytest.raises(ConfigError) as raised:
            parse_config(json.dumps({"n": 2, "quantizer": {"per_stage": [{"bitz": 8}]}}))
        assert str(raised.value) == "quantizer.per_stage[0].bitz: unknown key (allowed: mode, bits, x_max)"
        with pytest.raises(ConfigError, match=r"^quantizer\.x_max: a mantissa quantizer is scale-free"):
            config.parse_characterization(json.dumps({"quantizer": {"mode": "mantissa", "x_max": 2.0}}))

    def test_a_characterization_of_mode_off_is_rejected(self):
        # "off" has no bits to sweep, so qfft quantizer could not run the config
        with pytest.raises(ConfigError, match=r"^quantizer\.mode: "):
            config.parse_characterization('{"quantizer": {"mode": "off"}}')

    def test_an_automatic_full_scale_names_the_signal(self):
        # all-zero amplitudes give the uniform ladder a zero input full scale
        doc = {"signal": {"kind": "multitone", "bins": [1, 2], "amplitudes": [0, 0]}}
        with pytest.raises(ConfigError, match=r"^signal\.amplitudes: a uniform quantizer needs a positive full scale"):
            parse_config(json.dumps(doc))

    def test_a_null_stage_full_scale_is_rejected(self):
        # a null quantizer.x_max means automatic, but a stage has no automatic full scale
        stages = [{"mode": "uniform", "bits": 6, "x_max": None}, {"mode": "mantissa", "bits": 5}]
        with pytest.raises(ConfigError, match=r"^quantizer\.per_stage\[0\]\.x_max: expected a number, got None"):
            parse_config(json.dumps({"n": 4, "quantizer": {"per_stage": stages}}))
        del stages[0]["x_max"]
        cfg = parse_config(json.dumps({"n": 4, "quantizer": {"per_stage": stages}}))
        assert cfg.per_stage[0] == QuantizerSpec("uniform", 6, 1.0)

    def test_a_mantissa_stage_echoes_no_full_scale(self):
        cfg = ExperimentConfig(n=4, per_stage=(QuantizerSpec("mantissa", 8), QuantizerSpec("uniform", 6, 2.0)))
        assert cfg.to_dict()["quantizer"]["per_stage"] == [
            {"mode": "mantissa", "bits": 8},
            {"mode": "uniform", "bits": 6, "x_max": 2.0},
        ]

    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("mode", "mantissa", "quantizer_mode"),
            ("bits", 3, "quantizer_bits"),
            ("x_max", 1000.0, "quantizer_x_max"),
        ],
    )
    def test_per_stage_leaves_no_top_level_quantizer_field_unread(self, key, value, field):
        # per_stage sets every stage, so no run reads the top-level quantizer fields
        stages = [{"mode": "uniform", "bits": 6, "x_max": 2.0}, {"mode": "mantissa", "bits": 5}]
        message = rf"^quantizer\.{key}: quantizer\.per_stage sets every stage's quantizer, so {key} is not"
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps({"n": 4, "quantizer": {key: value, "per_stage": stages}}))
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(n=4, per_stage=(QuantizerSpec("mantissa", 5),) * 2, **{field: value})

    @pytest.mark.parametrize("key, value, field", [("bits", 3, "quantizer_bits"), ("x_max", 5.0, "quantizer_x_max")])
    def test_off_mode_leaves_bits_and_x_max_unread(self, key, value, field):
        message = rf'^quantizer\.{key}: quantizer\.mode "off" quantizes no stage, so {key} is not read; remove it$'
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps({"n": 4, "quantizer": {"mode": "off", key: value}}))
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(n=4, quantizer_mode="off", **{field: value})

    def test_off_mode_checks_no_ladder_step(self):
        # all-zero amplitudes give the uniform ladder a zero full scale, but "off" builds no ladder
        signal = {"kind": "multitone", "bins": [1, 2], "amplitudes": [0, 0]}
        cfg = parse_config(json.dumps({"n": 8, "quantizer": {"mode": "off"}, "signal": signal}))
        assert cfg.pipeline_config().stage_quantizers == (None,) * 3
        assert cfg.to_dict()["quantizer"] == {"mode": "off"}
        with pytest.raises(ConfigError, match=r"^signal\.amplitudes: a uniform quantizer needs a positive full scale"):
            parse_config(json.dumps({"n": 8, "quantizer": {"mode": "uniform"}, "signal": signal}))

    def test_per_stage_echoes_only_itself(self):
        # a top-level value equal to its default is no value a run could read
        stages = [{"mode": "mantissa", "bits": 5}] * 2
        doc = {"n": 4, "quantizer": {"mode": "uniform", "bits": 8, "per_stage": stages}}
        assert parse_config(json.dumps(doc)).to_dict()["quantizer"] == {"per_stage": stages}

    def test_per_stage_skips_the_checks_of_a_ladder_it_does_not_build(self):
        # all-zero amplitudes give the default uniform ladder a zero full scale
        signal = {"kind": "multitone", "bins": [1, 2], "amplitudes": [0, 0]}
        with pytest.raises(ConfigError, match=r"^signal\.amplitudes: a uniform quantizer needs a positive full scale"):
            parse_config(json.dumps({"n": 4, "signal": signal}))
        stages = [{"mode": "mantissa", "bits": 5}] * 2
        cfg = parse_config(json.dumps({"n": 4, "signal": signal, "quantizer": {"per_stage": stages}}))
        assert cfg.pipeline_config().stage_quantizers == (QuantizerSpec("mantissa", 5),) * 2

    @pytest.mark.parametrize("amplitude", [1e-323, 2.0**-1074], ids=["1e-323", "smallest-subnormal"])
    def test_a_subnormal_amplitude_runs_the_unit_ladder(self, amplitude):
        # a power of two 2**k runs the processor and signal of amplitude 1, and reports scaled back by 2**k
        cfg = parse_config(json.dumps({"n": 8, "signal": {"amplitude": amplitude}}))
        unit = ExperimentConfig(n=8)
        assert (cfg.signal_spec(), cfg.pipeline_config()) == (unit.signal_spec(), unit.pipeline_config())
        assert cfg.scale_exponent == math.frexp(amplitude)[1] - 1

    def test_replace_checks_again(self):
        with pytest.raises(ConfigError, match=r"^seed: must be >= 0, got -1$"):
            dataclasses.replace(ExperimentConfig(), seed=-1)

    def test_python_values_take_their_document_kinds(self):
        # lists become tuples and integer numbers floats, as when parsed
        built = ExperimentConfig(
            n=64, quantizer_x_max=2, signal_kind="multitone", signal_bins=[3, 5], signal_amplitudes=[1, 0.5]
        )
        doc = {"n": 64, "quantizer": {"x_max": 2}, "signal": {"kind": "multitone", "bins": [3, 5], "amplitudes": [1, 0.5]}}
        assert built == parse_config(json.dumps(doc))
        assert built.signal_amplitudes == (1.0, 0.5) and isinstance(built.quantizer_x_max, float)

    @pytest.mark.parametrize(
        "signal, message",
        [
            ({"amplitude": -1}, "signal.amplitude: the uniform bound must be positive, got -1.0"),
            ({"kind": "sinusoid", "bin": 5000}, "signal.bin: must be in [0, 1024), got 5000"),
            ({"kind": "multitone", "bins": [1, 2], "amplitudes": [1]}, "signal.amplitudes: must match bins one-to-one"),
            ({"kind": "multitone"}, "signal.bins: a multitone needs at least one bin"),
        ],
        ids=["amplitude", "bin", "amplitudes", "bins"],
    )
    def test_signal_errors_name_their_field(self, signal, message):
        with pytest.raises(ConfigError) as raised:
            parse_config(json.dumps({"signal": signal}))
        assert str(raised.value) == message

    def test_unknown_keys_list_the_declared_keys(self):
        with pytest.raises(ConfigError) as raised:
            parse_config('{"window": "hann"}')
        allowed = "n, direction, quantizer, twiddle_quantization, signal, sweep, seed, out, format"
        assert str(raised.value) == f"window: unknown key (allowed: {allowed})"
        with pytest.raises(ConfigError) as raised:
            parse_config('{"signal": {"phase": 0}}')
        assert str(raised.value) == "signal.phase: unknown key (allowed: kind, bin, amplitude, bins, amplitudes)"

    def test_module_docstring_schema_names_every_declared_path(self):
        schema = config.__doc__
        body = re.sub(r"#.*", "", schema[schema.index("{") + 1 : schema.rindex("}")])
        sections, paths = [], []
        for key, opens, closes in re.findall(r'"(\w+)":\s*(\{)?|(\})', body):
            if closes:
                sections.pop()
            elif opens:
                sections.append(key)
            else:
                paths.append(".".join([*sections, key]))
        assert paths == [f.metadata["path"] for f in dataclasses.fields(ExperimentConfig)]


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
        twice = parse_config(serialize(once))
        assert once == twice
        assert serialize(once) == serialize(twice)


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
        assert cfg.pipeline_config().stage_quantizers == (None,) * 4

    def test_twiddle_quantizer_only_when_enabled(self):
        assert parse_config("{}").pipeline_config().twiddle_quantizer is None
        cfg = parse_config('{"twiddle_quantization": {"enabled": true, "bits": 9}}')
        assert cfg.pipeline_config().twiddle_quantizer == QuantizerSpec("uniform", 9, 1.0)

    def test_sweep_spec(self):
        cfg = parse_config(
            '{"n": 64, "sweep": {"bits_lo": 4, "bits_hi": 9, "trials": 3}, "seed": 7}'
        )
        assert (cfg.bits_lo, cfg.bits_hi, cfg.trials, cfg.seed, cfg.n) == (4, 9, 3, 7, 64)
        assert [row.bits for row in run_sweep(cfg)] == list(range(4, 10))


# Config documents for the property tests below: any subset of the schema's
# keys, with values near the valid ranges (so that many documents parse),
# and with ``junk`` any value may also be any JSON value at all.
FLOATS = st.floats(-4.0, 4.0) | st.floats()
BITS = st.integers(1, 52) | st.integers(-1, 60)
MODES = st.sampled_from(["off", "uniform", "mantissa"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _object(fields: dict, junk: bool):
    if junk:
        fields = {key: value | JSON_VALUES for key, value in fields.items()}
    return st.fixed_dictionaries({}, optional=fields)


def config_documents(junk: bool = False):
    def for_stages(m):
        stage = _object({"mode": MODES, "bits": BITS, "x_max": st.none() | FLOATS}, junk)
        quantizer = {
            "mode": MODES,
            "bits": BITS,
            "x_max": st.none() | FLOATS,
            "per_stage": st.lists(stage, min_size=m, max_size=m) | st.lists(stage, max_size=3),
        }
        signal = {
            "kind": st.sampled_from(["impulse", "sinusoid", "multitone", "random"]),
            "bin": st.integers(-1, 64),
            "amplitude": FLOATS,
            "bins": st.lists(st.integers(-1, 64), max_size=3),
            "amplitudes": st.lists(FLOATS, max_size=3),
        }
        sweep = {
            "bits_lo": st.integers(0, 25),
            "bits_hi": st.integers(0, 25),
            "trials": st.integers(0, 30) | st.integers(0, 2**80),
        }
        return _object(
            {
                "n": st.just(1 << m) | st.integers(-2, 1 << 17),
                "direction": st.sampled_from(["fft", "ifft"]),
                "quantizer": _object(quantizer, junk),
                "twiddle_quantization": _object({"enabled": st.booleans(), "bits": BITS}, junk),
                "signal": _object(signal, junk),
                "sweep": _object(sweep, junk),
                "seed": st.integers(-1, 2**64),
                "out": st.none() | st.text(max_size=6),
                "format": st.sampled_from(["csv", "json"]),
            },
            junk,
        )

    return st.integers(1, 7).flatmap(for_stages).map(json.dumps)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(text=st.text() | JSON_VALUES.map(json.dumps) | config_documents(junk=True))
    def test_any_document_raises_only_config_error(self, text):
        try:
            parse_config(text)
        except ConfigError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(text=config_documents())
    def test_serialize_then_parse_gives_back_the_config(self, text):
        try:
            cfg = parse_config(text)
        except ConfigError:
            return
        assert parse_config(serialize(cfg)) == cfg
