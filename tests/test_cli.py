import gc
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qfft
from qfft import analysis, cli, core, report
from qfft.cli import main
from qfft.config import parse_config
from qfft.pipeline import Pipeline
from qfft.signals import generate_signal

SWEEP_CONFIG = {
    "n": 64,
    "quantizer": {"mode": "uniform", "bits": 8},
    "signal": {"kind": "random", "amplitude": 1.0},
    "sweep": {"bits_lo": 6, "bits_hi": 8, "trials": 2},
    "seed": 5,
}


@pytest.fixture
def sweep_config(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(SWEEP_CONFIG))
    return path


def test_sweep_writes_csv(tmp_path, sweep_config):
    out = tmp_path / "report.csv"
    assert main(["sweep", "--config", str(sweep_config), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    data = [line for line in lines if not line.startswith("#")]
    assert data[0].startswith("bits,")
    assert len(data) == 4  # header + bits 6..8
    assert any(line.startswith("# config: ") for line in lines)
    assert any(line.startswith("# seed: 5") for line in lines)
    assert any("note" in line and "q^2/6" in line for line in lines)


def test_sweep_is_byte_stable(tmp_path, sweep_config):
    out = tmp_path / "report.csv"
    assert main(["sweep", "--config", str(sweep_config), "--out", str(out)]) == 0
    first = out.read_bytes()
    assert main(["sweep", "--config", str(sweep_config), "--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_seed_flag_overrides_config(tmp_path, sweep_config):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(sweep_config), "--out", str(a)]) == 0
    assert main(["sweep", "--config", str(sweep_config), "--seed", "6", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()
    assert "# seed: 6" in b.read_text()


def test_format_flag_switches_to_json(tmp_path, sweep_config):
    out = tmp_path / "report.json"
    code = main(
        ["sweep", "--config", str(sweep_config), "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert [row["bits"] for row in payload["rows"]] == [6, 7, 8]
    assert payload["config"]["n"] == 64


def _sweep_rows(tmp_path, doc) -> list[str]:
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "report.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    return [line for line in out.read_text().splitlines() if not line.startswith("#")][1:]


SMALL_SWEEP = {"n": 64, "sweep": {"trials": 2}}


@pytest.mark.parametrize(
    "change",
    [{"twiddle_quantization": {"enabled": True, "bits": 3}}, {"quantizer": {"x_max": 0.01}}],
    ids=["twiddle-rom", "x_max"],
)
def test_sweep_runs_the_configured_processor(tmp_path, change):
    assert _sweep_rows(tmp_path, {**SMALL_SWEEP, **change}) != _sweep_rows(tmp_path, SMALL_SWEEP)


@pytest.mark.parametrize(
    "doc",
    [
        {
            "n": 64,
            "quantizer": {"x_max": 0.3},
            "twiddle_quantization": {"enabled": True, "bits": 5},
            "sweep": {"bits_lo": 4, "bits_hi": 7, "trials": 2},
            "seed": 11,
        },
        {
            "n": 32,
            "direction": "ifft",
            "quantizer": {"mode": "mantissa"},
            "twiddle_quantization": {"enabled": True, "bits": 6},
            "signal": {"kind": "multitone", "bins": [1, 5], "amplitudes": [1.0, 0.25]},
            "sweep": {"bits_lo": 3, "bits_hi": 5, "trials": 3},
        },
    ],
    ids=["uniform-rom-x_max", "mantissa-ifft-multitone"],
)
def test_sweep_rows_equal_a_hand_run_of_the_config_pipeline(tmp_path, doc):
    rows = _sweep_rows(tmp_path, doc)
    cfg = parse_config(json.dumps(doc))
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    signals = [generate_signal(cfg.signal_spec(), s) for s in seeds]
    references = np.array([core.fft_reference(x, cfg.direction) for x in signals])
    assert len(rows) == cfg.bits_hi - cfg.bits_lo + 1
    for bits, row in zip(range(cfg.bits_lo, cfg.bits_hi + 1), rows):
        pipeline = Pipeline(cfg.pipeline_config(bits))
        traces = [pipeline.run(x) for x in signals]
        error = references - np.array([t.output for t in traces])
        pooled = np.concatenate([error.real.ravel(), error.imag.ravel()])
        ref_pooled = np.concatenate([references.real.ravel(), references.imag.ravel()])
        components = cfg.trials * 2 * cfg.n * core.num_stages(cfg.n)
        expected = [
            pooled.mean(),
            pooled.std(),
            pooled.var(),
            100.0 * math.sqrt(np.sum(np.abs(error) ** 2) / np.sum(np.abs(references) ** 2)),
            10.0 * math.log10(ref_pooled.var() / pooled.var()),
            sum(t.saturation_total for t in traces) / components,
        ]
        values = [float(v) for v in row.split(",")]
        assert values[0] == bits
        assert values[1:6] + values[7:] == pytest.approx(expected, rel=1e-10, abs=1e-300)


CANCELLING_TONES = {"kind": "multitone", "bins": [1, 1], "amplitudes": [1.0, -1.0]}


@pytest.mark.parametrize(
    "change, field",
    [
        ({"quantizer": {"per_stage": [{"bits": 6}] * 6}}, r"quantizer\.per_stage"),
        ({"quantizer": {"mode": "off"}}, r"quantizer\.mode"),
        (
            {
                "quantizer": {"mode": "mantissa"},
                "signal": {"kind": "multitone", "bins": [3], "amplitudes": [0.0]},
            },
            r"signal\.amplitudes",
        ),
        ({"quantizer": {"mode": "uniform"}, "signal": CANCELLING_TONES}, r"signal\.amplitudes"),
        ({"quantizer": {"mode": "mantissa"}, "signal": CANCELLING_TONES}, r"signal\.amplitudes"),
    ],
    ids=["per_stage", "off", "mantissa-zero-tone", "uniform-cancelling", "mantissa-cancelling"],
)
def test_sweep_the_config_cannot_describe_is_a_config_error(tmp_path, capsys, change, field):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({**SMALL_SWEEP, **change}))
    assert main(["sweep", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.match("config error: " + field + ": ", captured.err)
    # the same config still describes a transform
    assert main(["fft", "--config", str(config), "--out", str(tmp_path / "fft.csv")]) == 0


def test_fft_impulse_spectrum_to_stdout(tmp_path, capsys):
    config = tmp_path / "fft.json"
    config.write_text(json.dumps({"n": 4, "quantizer": {"mode": "off"}, "signal": {"kind": "impulse"}}))
    assert main(["fft", "--config", str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    data = [line for line in lines if not line.startswith("#")]
    assert data[0] == "index,real,imag"
    for i, line in enumerate(data[1:]):
        index, real, imag = line.split(",")
        assert int(index) == i
        assert float(real) == pytest.approx(1.0, abs=1e-12)
        assert float(imag) == pytest.approx(0.0, abs=1e-12)


def test_fft_csv_rows_across_chunks(tmp_path):
    # 8192 rows span two formatting chunks; each row as an f-string over numpy scalars
    doc = {"n": 8192, "quantizer": {"bits": 6}, "twiddle_quantization": {"enabled": True, "bits": 7}}
    config = tmp_path / "fft.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "vector.csv"
    assert main(["fft", "--config", str(config), "--seed", "3", "--out", str(out)]) == 0
    cfg = parse_config(json.dumps({**doc, "seed": 3}))
    output = Pipeline(cfg.pipeline_config()).run(generate_signal(cfg.signal_spec(), 3)).output
    expected = [f"{i},{v.real:.12e},{v.imag:.12e}" for i, v in enumerate(output)]
    text = out.read_text()
    assert text.endswith("\n")
    assert text.splitlines()[-len(expected) - 1 :] == ["index,real,imag", *expected]


# ±0.0 print differently; subnormals and the extremes have 3-digit exponents
EDGE_VALUES = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-100, -1.7976931348623157e308, 1e100, 0.1]
POOL_VALUES = st.sampled_from(EDGE_VALUES) | st.floats(allow_nan=False, allow_infinity=False)
# lengths on and around chunk edges; 10001 and up put 9999 and 10000 in one chunk
LENGTHS = st.sampled_from([1, 2, 4095, 4096, 4097, 10001, 12289]) | st.integers(1, 9000)


def _first_difference(got: str, want: str):
    """(line number, got, wanted) at the first line where two texts differ, else None.

    Keeps a failure report short where a diff of two long texts would take minutes.
    """
    lines = itertools.zip_longest(got.splitlines(True), want.splitlines(True))
    return next(((i, g, w) for i, (g, w) in enumerate(lines) if g != w), None)


def _finite_components(rng, count):
    values = rng.integers(0, 2**64, size=count, dtype=np.uint64).view(np.float64)
    values[~np.isfinite(values)] = -0.0
    return values


@settings(max_examples=40, deadline=None)
@given(
    pool=st.lists(POOL_VALUES, min_size=1, max_size=8),
    length=LENGTHS,
    layout=st.sampled_from(["pooled", "wide", "pooled-then-wide", "wide-then-pooled"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(pool=EDGE_VALUES, length=10001, layout="pooled", seed=0)
@example(pool=EDGE_VALUES, length=4097, layout="wide-then-pooled", seed=1)
def test_rows_equal_the_per_row_format(pool, length, layout, seed):
    # pooled chunks take the distinct-value table, wide random bit patterns the bulk %-format
    rng = np.random.default_rng(seed)
    pooled = np.array(pool)[rng.integers(0, len(pool), 2 * length)]
    wide = _finite_components(rng, 2 * length)
    split = 2 * (length // 2)
    components = {
        "pooled": pooled,
        "wide": wide,
        "pooled-then-wide": np.concatenate([pooled[:split], wide[split:]]),
        "wide-then-pooled": np.concatenate([wide[:split], pooled[split:]]),
    }[layout]
    output = components.view(np.complex128)
    rows = output.tolist()
    csv = "".join(report._rows(output, report.CSV_ROW, "%.12e"))
    expected = "".join("%d,%.12e,%.12e\n" % (i, v.real, v.imag) for i, v in enumerate(rows))
    assert _first_difference(csv, expected) is None
    elements = [{"index": i, "real": v.real, "imag": v.imag} for i, v in enumerate(rows)]
    text = '{\n  "output": [' + "".join(report._rows(output, report.JSON_ROW, "%r"))[1:] + "\n  ]\n}"
    assert _first_difference(text, json.dumps({"output": elements}, indent=2)) is None


def test_fft_json_bytes_equal_per_scalar_rows(tmp_path):
    doc = {
        "n": 8192,
        "quantizer": {"bits": 6},
        "twiddle_quantization": {"enabled": True, "bits": 7},
        "format": "json",
    }
    config = tmp_path / "fft.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "vector.json"
    assert main(["fft", "--config", str(config), "--seed", "3", "--out", str(out)]) == 0
    cfg = parse_config(json.dumps({**doc, "seed": 3}))
    trace = Pipeline(cfg.pipeline_config()).run(generate_signal(cfg.signal_spec(), 3))
    header = cfg.to_dict()
    header.pop("out")
    payload = {
        "config": header,
        "notes": list(qfft.report.STANDARD_NOTES),
        "saturation_total": trace.saturation_total,
        "output": [
            {"index": i, "real": float(v.real), "imag": float(v.imag)} for i, v in enumerate(trace.output)
        ],
    }
    assert out.read_text() == json.dumps(payload, indent=2) + "\n"


def test_fft_header_echoes_an_off_stage_as_parsed(tmp_path, capsys):
    config = tmp_path / "fft.json"
    config.write_text(json.dumps({"n": 2, "quantizer": {"per_stage": [{"mode": "off", "bits": 7, "x_max": 3.0}]}}))
    assert main(["fft", "--config", str(config)]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert json.loads(header.removeprefix("# config: "))["quantizer"]["per_stage"] == [{"mode": "off"}]


def test_fft_of_an_off_config_reads_no_ladder(tmp_path, capsys):
    # uniform mode rejects this amplitude: its finest ladder step would be subnormal
    config = tmp_path / "fft.json"
    config.write_text(json.dumps({"n": 8, "quantizer": {"mode": "off"}, "signal": {"amplitude": 1e-323}}))
    assert main(["fft", "--config", str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[0].removeprefix("# config: "))["quantizer"] == {"mode": "off"}
    rows = [line for line in lines if not line.startswith("#")][1:]
    assert len(rows) == 8
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(",")[1:])


def test_fft_json_output(tmp_path):
    config = tmp_path / "fft.json"
    config.write_text(json.dumps({"n": 4, "quantizer": {"mode": "off"}, "signal": {"kind": "impulse"}}))
    out = tmp_path / "vector.json"
    assert main(["fft", "--config", str(config), "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["output"]) == 4
    assert payload["saturation_total"] == 0


# a multitone through a twiddle ROM and one stage of each mode
SMALL_FFT = {
    "n": 64,
    "direction": "ifft",
    "quantizer": {
        "per_stage": [
            {"mode": "uniform", "bits": 10, "x_max": 4.0},
            {"mode": "off"},
            {"mode": "mantissa", "bits": 8},
            {"mode": "uniform", "bits": 12, "x_max": 16.0},
            {"mode": "mantissa", "bits": 6},
            {"mode": "uniform", "bits": 9, "x_max": 64.0},
        ]
    },
    "twiddle_quantization": {"enabled": True, "bits": 10},
    "signal": {"kind": "multitone", "bins": [3, 17, 40], "amplitudes": [1.0, 0.5, 0.25]},
    "seed": 5,
}

MANTISSA_64K = {"n": 65536, "quantizer": {"mode": "mantissa", "bits": 12}, "twiddle_quantization": {"enabled": True, "bits": 10}}


@pytest.mark.parametrize(
    "argv, doc, digest",
    [
        (["sweep", "--seed", "3", "--format", "json"], {}, "2cec53731b9d50ffba217d6ab4bb37a1f6e3c1293635b42c117b5e44f2e8fe5b"),
        (["quantizer", "--seed", "7"], {}, "26d61d2b3c98c7f0af4fe951d71a8a0a4aa750d21e12493be66bf2e99d84c113"),
        (
            ["quantizer", "--seed", "7"],
            {"quantizer": {"mode": "mantissa"}},
            "0edf1d8a8cc38533a2e34896b0702cbece156f7e0b62ad00d152530c6b6cfad3",
        ),
        (["fft", "--format", "json"], SMALL_FFT, "832d441d16fedf992917f821be84de5cf9e2bac7efc473ee6e1b6dd8c303af3e"),
        (
            ["sweep", "--seed", "3"],
            {
                "n": 256,
                "direction": "ifft",
                "quantizer": {"mode": "mantissa"},
                "twiddle_quantization": {"enabled": True, "bits": 6},
                "sweep": {"bits_lo": 6, "bits_hi": 9, "trials": 3},
            },
            "f4efc63e117f50a3ae9dd7a05593ab8c2256a879f6b546f63352dac2f7fdcc0a",
        ),
        # mantissa runs at the largest size, both directions, whose stages round with the split
        (
            ["fft", "--seed", "1806"],
            MANTISSA_64K,
            "36d289d94328c51006bfa30a2874a7097b5724b13d24e5c34df9a99fe658b185",
        ),
        (
            ["fft", "--seed", "1806"],
            {**MANTISSA_64K, "direction": "ifft"},
            "92e1bd7b77b408e1cb2d9a3633e80d6a2a9ab45d5f2ecbd978a16054db83afc1",
        ),
    ],
    ids=[
        "sweep-json",
        "quantizer-csv",
        "quantizer-csv-mantissa",
        "fft-json-per-stage",
        "sweep-csv-ifft-rom",
        "fft-csv-mantissa-64k",
        "fft-csv-mantissa-64k-ifft",
    ],
)
def test_report_bytes_are_pinned(tmp_path, capsys, argv, doc, digest):
    # sha256 of reports no benchmark golden covers; a JSON report's "config"
    # object is not key-sorted, so these also pin the field order of to_dict.
    # A sweep at n <= 1024 and an fft at any size do not depend on the BLAS
    # thread count, and the mantissa fft bytes are those of numpy's baseline
    # complex multiply loop too.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main([*argv, "--config", str(config)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_quantizer_subcommand(tmp_path, capsys):
    config = tmp_path / "q.json"
    config.write_text(json.dumps({"quantizer": {"mode": "uniform"}, "sweep": {"bits_lo": 6, "bits_hi": 7}}))
    assert main(["quantizer", "--config", str(config), "--samples", "20000"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert lines[0] == "bits,empirical_variance,theory_variance"
    assert len(lines) == 3


@pytest.mark.parametrize(
    "quantizer, echoed",
    [
        ({"mode": "uniform"}, {"mode": "uniform", "x_max": 1.0}),
        ({"mode": "uniform", "x_max": 2.0}, {"mode": "uniform", "x_max": 2.0}),
        ({"mode": "mantissa"}, {"mode": "mantissa"}),
    ],
    ids=["uniform-automatic", "uniform", "mantissa"],
)
def test_quantizer_header_echoes_only_what_the_command_reads(tmp_path, capsys, quantizer, echoed):
    # a null or absent x_max is the unit full scale; --samples reaches the rows and the header
    doc = {"quantizer": quantizer, "sweep": {"bits_lo": 6, "bits_hi": 7}}
    config = tmp_path / "q.json"
    config.write_text(json.dumps(doc))
    assert main(["quantizer", "--config", str(config), "--samples", "20000", "--seed", "7"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert json.loads(header.removeprefix("# config: ")) == {
        "quantizer": echoed,
        "sweep": {"bits_lo": 6, "bits_hi": 7},
        "samples": 20000,
        "seed": 7,
        "format": "csv",
    }


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"n": 65536, "sweep": {"trials": 300}}, "n"),
        ({"direction": "ifft"}, "direction"),
        ({"sweep": {"trials": 20}}, "sweep.trials"),
        ({"quantizer": {"bits": 9}}, "quantizer.bits"),
        ({"signal": {"kind": "impulse"}}, "signal.kind"),
        ({"signal": {"amplitude": 0.5}}, "signal.amplitude"),
        ({"twiddle_quantization": {"bits": 8}}, "twiddle_quantization.bits"),
    ],
    ids=["n-and-trials", "direction", "trials", "bits", "signal-kind", "signal-amplitude", "twiddle"],
)
def test_quantizer_refuses_what_it_does_not_read(tmp_path, capsys, doc, field):
    # the characterization runs no transform: a key it does not read is named, even at its
    # default value, before any relation of the transform's (the trials * n cap) is checked
    config = tmp_path / "q.json"
    config.write_text(json.dumps(doc))
    assert main(["quantizer", "--config", str(config), "--samples", "20000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {field}: qfft quantizer runs no transform and does not read it; remove it\n"


@pytest.mark.parametrize("x_max, ok", [(1e140, True), (1e150, True), (1e156, True), (1e157, False), (1e306, False)])
def test_quantizer_full_scale_keeps_every_row_finite(tmp_path, capsys, x_max, ok):
    # the rows run at unit scale; at 6 bits the variances, about (2 * x_max / 64)**2 / 12,
    # are scaled back and stay finite up to an x_max of about 1.48e156
    config = tmp_path / "q.json"
    config.write_text(json.dumps({"quantizer": {"x_max": x_max}, "sweep": {"bits_lo": 6, "bits_hi": 7}}))
    assert main(["quantizer", "--config", str(config), "--samples", "20000"]) == (0 if ok else 1)
    captured = capsys.readouterr()
    if ok:
        rows = [line.split(",") for line in captured.out.splitlines()[-2:]]
        assert all(math.isfinite(float(value)) for row in rows for value in row)
    else:
        assert re.fullmatch(r"config error: quantizer\.x_max: the reported value .* past the double range\n", captured.err)


@pytest.mark.parametrize("samples", [9_999, 2**24 + 1, 2_000_000_000, 10**14], ids=["low", "high", "2e9", "1e14"])
def test_quantizer_samples_are_checked_before_any_draw(capsys, samples):
    # 1e14 samples would ask numpy for 728 TiB, 2e9 for 14.9 GiB
    assert main(["quantizer", "--samples", str(samples)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: --samples: must be in [10000, 16777216], got {samples}\n"


@pytest.mark.parametrize(
    "quantizer, field",
    [({"mode": "off"}, r"quantizer\.mode"), ({"per_stage": [{"bits": 6}] * 10}, r"quantizer\.per_stage")],
    ids=["off", "per_stage"],
)
def test_quantizer_subcommand_rejects_what_qfft_sweep_rejects(tmp_path, capsys, quantizer, field):
    # one check for both: there is no quantizer mode whose bits to sweep
    config = tmp_path / "q.json"
    config.write_text(json.dumps({"quantizer": quantizer}))
    errors = []
    for argv in (["quantizer", "--samples", "20000"], ["sweep"]):
        assert main([*argv, "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert re.match("config error: " + field + ": ", errors[0])


def test_fft_with_mantissa_stages_needs_no_uniform_ladder(tmp_path, capsys):
    # the default uniform ladder's finest step at this amplitude would be subnormal
    stages = [{"mode": "mantissa", "bits": 5}] * 2
    config = tmp_path / "fft.json"
    config.write_text(json.dumps({"n": 4, "signal": {"amplitude": 1e-305}, "quantizer": {"per_stage": stages}}))
    assert main(["fft", "--config", str(config)]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert json.loads(header.removeprefix("# config: "))["quantizer"] == {"per_stage": stages}


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_selftest_fails_on_a_failed_check_and_not_on_a_report(monkeypatch, capsys):
    # the checks yield numpy bools; a report line yields None
    checks = [("check", np.bool_(False), ""), ("report", None, "detail"), ("other", np.bool_(True), "")]
    monkeypatch.setattr(cli, "_selftest_checks", lambda seed: iter(checks))
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "selftest check: FAIL\nselftest report: INFO (detail)\nselftest other: PASS\n" in out
    assert out.endswith("selftest: 1 check(s) failed\n")


def test_bad_config_is_diagnosed(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text('{"n": 1000}')
    assert main(["sweep", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "power of two" in err


def test_non_finite_amplitude_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text('{"signal": {"amplitude": 1e400}}')
    assert main(["fft", "--config", str(config)]) == 1
    assert capsys.readouterr().err.startswith("config error: signal.amplitude: must be a finite number")


def test_overflowing_x_max_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text('{"quantizer": {"mode": "uniform", "bits": 8, "x_max": 1e308}}')
    assert main(["fft", "--config", str(config)]) == 1
    assert capsys.readouterr().err.startswith("config error: quantizer.x_max: full scale")


def test_underflowing_x_max_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text('{"quantizer": {"x_max": 1e-320, "bits": 52}}')
    assert main(["fft", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: quantizer.x_max: full scale")
    assert captured.out == ""


def test_unknown_key_is_diagnosed(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text('{"quantiser": {}}')
    assert main(["sweep", "--config", str(config)]) == 1
    assert "quantiser" in capsys.readouterr().err


def test_missing_config_file(capsys):
    assert main(["sweep", "--config", "/nonexistent/config.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_negative_seed_flag_is_diagnosed(capsys):
    assert main(["selftest", "--seed", "-3"]) == 1
    assert "seed" in capsys.readouterr().err


def test_selftest_takes_a_seed_and_no_config(tmp_path, capsys):
    # the checks read the seed alone, so a document for them is refused, not ignored
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(SWEEP_CONFIG))
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--config", str(config)])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err
    assert main(["selftest", "--seed", "5"]) == 0
    assert capsys.readouterr().out.endswith("selftest: all checks passed\n")


def test_subcommand_required():
    with pytest.raises(SystemExit):
        main([])


def _child_env() -> dict:
    # the child imports the same qfft as this test, installed or not
    src = str(Path(qfft.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _run_in_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "qfft.cli", *argv], capture_output=True, text=True, env=_child_env()
    )


def test_a_closed_pipe_ends_the_command_quietly(tmp_path):
    # the reader takes 100 bytes of a 3 MB report and goes away, as ``| head -c 100`` does
    config = tmp_path / "fft.json"
    config.write_text(json.dumps({"n": 65536, "quantizer": {"mode": "off"}}))
    argv = [sys.executable, "-m", "qfft.cli", "fft", "--config", str(config)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env()) as child:
        assert len(child.stdout.read(100)) == 100
        child.stdout.close()
        err = child.stderr.read()
    assert child.returncode == 1
    assert err == b""


def test_console_entry_point_runs():
    result = _run_in_child(["selftest"])
    assert result.returncode == 0
    assert "all checks passed" in result.stdout


def _numpy_cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return {}
    return __cpu_features__


# numpy's baseline complex128 multiply rounds each product; its X86_V3 and X86_V4 loops fuse
BASELINE_MULTIPLY = {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}


@pytest.mark.skipif(not _numpy_cpu_features().get("X86_V3"), reason="numpy reports no X86_V3 on this host")
@pytest.mark.parametrize("env, loop", [({}, "fused"), (BASELINE_MULTIPLY, "separately rounded")])
def test_selftest_reports_the_complex_multiply_loop(env, loop):
    child_env = {key: value for key, value in _child_env().items() if key != "NPY_DISABLE_CPU_FEATURES"}
    result = subprocess.run(
        [sys.executable, "-m", "qfft.cli", "selftest"], capture_output=True, text=True, env={**child_env, **env}
    )
    assert result.returncode == 0
    assert f"selftest complex multiply loop: INFO ({loop})\n" in result.stdout


def test_parser_shared_across_calls_keeps_no_flag(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(SMALL_SWEEP))
    first = ["sweep", "--config", str(config), "--seed", "5", "--format", "json"]
    assert main([*first, "--out", str(tmp_path / "first.json")]) == 0
    assert main(["sweep", "--config", str(config)]) == 0
    second = capsys.readouterr().out
    fresh = _run_in_child(["sweep", "--config", str(config)])
    assert fresh.returncode == 0
    assert second == fresh.stdout
    assert "# seed: 0" in second


FFT_WITH_ROM = {"n": 1024, "twiddle_quantization": {"enabled": True, "bits": 10}, "seed": 3}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("doc, status", [(FFT_WITH_ROM, 0), ({"n": 1000}, 1)], ids=["ok", "bad-config"])
def test_main_leaves_the_callers_collector_as_it_found_it(tmp_path, capsys, enabled, doc, status):
    config = tmp_path / "fft.json"
    config.write_text(json.dumps(doc))
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        assert main(["fft", "--config", str(config)]) == status
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_fresh_process_writes_the_bytes_main_writes(tmp_path, capsys, fmt):
    # the process entry runs without the collector; the report must not change
    config = tmp_path / "fft.json"
    config.write_text(json.dumps(FFT_WITH_ROM))
    argv = ["fft", "--config", str(config), "--format", fmt]
    assert main(argv) == 0
    fresh = _run_in_child(argv)
    assert (fresh.returncode, fresh.stderr) == (0, "")
    assert fresh.stdout == capsys.readouterr().out


def test_a_fresh_process_reports_a_bad_config(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text('{"n": 1000}')
    fresh = _run_in_child(["fft", "--config", str(config)])
    assert (fresh.returncode, fresh.stdout) == (1, "")
    assert fresh.stderr.startswith("config error: n: ")


def test_an_overflowing_amplitude_is_a_config_error_under_warnings_as_errors(tmp_path):
    # sqrt(2) * 1.7e308 overflows to inf: one config error line, and no warning's traceback
    config = tmp_path / "amp.json"
    config.write_text(json.dumps({"signal": {"amplitude": 1.7e308}}))
    argv = [sys.executable, "-W", "error", "-m", "qfft.cli", "fft", "--config", str(config)]
    result = subprocess.run(argv, capture_output=True, text=True, env=_child_env())
    assert (result.returncode, result.stdout) == (1, "")
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: signal.amplitude: ")


SWEEP_ONE_TRIAL = {"n": 64, "sweep": {"bits_lo": 6, "bits_hi": 7, "trials": 1}}


@pytest.mark.parametrize(
    "change, field",
    [
        ({"signal": {"amplitude": 1e200}}, "signal.amplitude"),
        ({"quantizer": {"mode": "mantissa"}, "signal": {"amplitude": 1e160}}, "signal.amplitude"),
        ({"quantizer": {"mode": "uniform", "x_max": 1e200}}, "quantizer.x_max"),
    ],
    ids=["uniform-amplitude", "mantissa-amplitude", "uniform-x_max"],
)
def test_a_sweep_whose_variances_overflow_is_a_config_error(tmp_path, change, field):
    # scaled back, the error variance and theory column of the amplitudes are past the double range;
    # x_max 1e200 is 2**664 times the unit signal's bound, past the ratio a config accepts
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({**SWEEP_ONE_TRIAL, **change}))
    argv = [sys.executable, "-W", "error", "-m", "qfft.cli", "sweep", "--config", str(config)]
    result = subprocess.run(argv, capture_output=True, text=True, env=_child_env())
    assert (result.returncode, result.stdout) == (1, "")
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error: {field}: "), lines


@pytest.mark.parametrize("command", ["fft", "sweep"])
def test_a_full_scale_far_below_the_signal_is_a_config_error(tmp_path, command):
    # at real scale, x / q for this pair overflows inside the uniform quantizer
    config = tmp_path / "ratio.json"
    config.write_text(json.dumps({**SWEEP_ONE_TRIAL, "quantizer": {"x_max": 1e-300}, "signal": {"amplitude": 1e300}}))
    argv = [sys.executable, "-W", "error", "-m", "qfft.cli", command, "--config", str(config)]
    result = subprocess.run(argv, capture_output=True, text=True, env=_child_env())
    assert (result.returncode, result.stdout) == (1, "")
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: quantizer.x_max: full scale 1e-300 must be"), lines


@pytest.mark.parametrize("k", [-1020, -530, -1, 3, 700, 1016])
@pytest.mark.parametrize("direction, rom", [("fft", False), ("ifft", True)])
def test_fft_output_scales_with_a_power_of_two_amplitude(tmp_path, capsys, k, direction, rom):
    # the run is at unit scale, so amplitude 2**k reports 2**k times the bits of amplitude 1
    outputs = []
    for amplitude in (1.0, 2.0**k):
        doc = {"n": 64, "direction": direction, "signal": {"amplitude": amplitude}, "format": "json"}
        doc["twiddle_quantization"] = {"enabled": rom, "bits": 10}
        config = tmp_path / "fft.json"
        config.write_text(json.dumps(doc))
        assert main(["fft", "--config", str(config)]) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    unit, scaled = outputs
    assert scaled["saturation_total"] == unit["saturation_total"]
    for name in ("real", "imag"):
        values = np.array([row[name] for row in unit["output"]])
        assert np.ldexp(values, k).tobytes() == np.array([row[name] for row in scaled["output"]]).tobytes()


def test_a_sweep_at_the_edge_of_the_double_range_writes_finite_rows(tmp_path, capsys):
    # its error variance is 1.36e300
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({**SWEEP_ONE_TRIAL, "signal": {"amplitude": 1e150}}))
    assert main(["sweep", "--config", str(config), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["bits"] for row in rows] == [6, 7]
    assert all(math.isfinite(value) for row in rows for value in row.values())
    assert rows[0]["error_variance"] > 1e299


def test_a_sweep_with_subnormal_moments_writes_the_rows_run_sweep_returns(tmp_path, capsys):
    # amplitude 2**-501: the one butterfly multiplies by W = 1, so every host computes
    # the same row, whose variance is subnormal and so not the square of its std to 1e-12
    document = {"n": 2, "sweep": {"bits_lo": 17, "bits_hi": 17, "trials": 1}, "signal": {"amplitude": 2.0**-501}}
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(document))
    assert main(["sweep", "--config", str(config), "--seed", "205"]) == 0
    cfg = parse_config(json.dumps({**document, "seed": 205}))
    (row,) = rows = analysis.run_sweep(cfg)
    assert capsys.readouterr().out == report.emit_report(rows, "csv", cfg.to_dict())
    assert row.bits == 17 and 0 < row.error_variance < sys.float_info.min
    assert not math.isclose(row.error_std**2, row.error_variance, rel_tol=1e-12)


def test_the_process_entry_drops_the_collector_and_still_runs_exit_handlers():
    # what ``python -m qfft.cli selftest`` runs; the handler prints after sys.exit
    code = (
        "import atexit, gc, runpy;"
        "atexit.register(lambda: print('collector', gc.isenabled(), gc.get_freeze_count() > 0));"
        "runpy.run_module('qfft.cli', run_name='__main__')"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, "selftest"], capture_output=True, text=True, env=_child_env()
    )
    assert result.returncode == 0
    assert result.stdout.endswith("selftest: all checks passed\ncollector False True\n")


def test_the_console_script_is_the_process_entry():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
    assert scripts == 'qfft = "qfft.cli:console_main"'
