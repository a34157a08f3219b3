import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfft
from qfft.cli import main

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


def test_fft_json_output(tmp_path):
    config = tmp_path / "fft.json"
    config.write_text(json.dumps({"n": 4, "quantizer": {"mode": "off"}, "signal": {"kind": "impulse"}}))
    out = tmp_path / "vector.json"
    assert main(["fft", "--config", str(config), "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["output"]) == 4
    assert payload["saturation_total"] == 0


def test_quantizer_subcommand(tmp_path, capsys):
    config = tmp_path / "q.json"
    config.write_text(json.dumps({"quantizer": {"mode": "uniform", "bits": 8}, "sweep": {"bits_lo": 6, "bits_hi": 7}}))
    assert main(["quantizer", "--config", str(config), "--samples", "20000"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert lines[0] == "bits,empirical_variance,theory_variance"
    assert len(lines) == 3


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


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


def test_subcommand_required():
    with pytest.raises(SystemExit):
        main([])


def test_console_entry_point_runs():
    # the child imports the same qfft as this test, installed or not
    src = str(Path(qfft.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-m", "qfft.cli", "selftest"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert "all checks passed" in result.stdout
