"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one pass/fail
line per criterion. The whole suite finishes in well under a minute.
"""

import json

import numpy as np
import pytest

from qfft.analysis import quantizer_characterization, run_sweep
from qfft.cli import main as cli_main
from qfft.config import ExperimentConfig
from qfft.core import dft_naive
from qfft.pipeline import Pipeline, PipelineConfig, processing_cost
from qfft.quantization import (
    QuantizerSpec,
    quantize_uniform,
    theory_variance_mantissa,
    theory_variance_uniform,
)


def _report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {criterion}: {status}{suffix}")
    assert passed, f"{criterion} failed {suffix}"


def random_signal(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)


@pytest.fixture(scope="module")
def uniform_sweep():
    return run_sweep(
        ExperimentConfig(
            n=1024,
            bits_lo=6,
            bits_hi=14,
            signal_kind="random",
            signal_amplitude=1.0,
            quantizer_mode="uniform",
            trials=20,
            seed=0,
        )
    )


@pytest.fixture(scope="module")
def mantissa_sweep():
    return run_sweep(
        ExperimentConfig(
            n=1024,
            bits_lo=6,
            bits_hi=14,
            signal_kind="random",
            signal_amplitude=1.0,
            quantizer_mode="mantissa",
            trials=20,
            seed=0,
        )
    )


def test_criterion_01_oracle_equivalence():
    worst_ratio = 0.0
    for n in (2, 4, 8, 64, 1024):
        x = random_signal(n, seed=1000 + n)
        trace = Pipeline(PipelineConfig(n=n)).run(x)
        worst = float(np.max(np.abs(trace.output - dft_naive(x))))
        worst_ratio = max(worst_ratio, worst / (1e-9 * n))
        if worst >= 1e-9 * n:
            _report("1 oracle equivalence", False, f"n={n} max abs error {worst:.3e}")
    _report("1 oracle equivalence", True, f"worst error at {worst_ratio:.2e} of budget")


def test_criterion_02_round_trip():
    worst_ratio = 0.0
    for n in (2, 16, 256, 1024):
        x = random_signal(n, seed=2000 + n)
        spectrum = Pipeline(PipelineConfig(n=n)).run(x).output
        back = Pipeline(PipelineConfig(n=n, direction="ifft")).run(spectrum).output
        worst = float(np.max(np.abs(back - x)))
        worst_ratio = max(worst_ratio, worst / (1e-12 * n))
        if worst >= 1e-12 * n:
            _report("2 round trip", False, f"n={n} max abs error {worst:.3e}")
    _report("2 round trip", True, f"worst error at {worst_ratio:.2e} of budget")


def test_criterion_03_energy_conservation():
    worst = 0.0
    for n in (4, 64, 1024):
        x = random_signal(n, seed=3000 + n)
        spectrum = Pipeline(PipelineConfig(n=n)).run(x).output
        lhs = float(np.sum(np.abs(x) ** 2))
        rhs = float(np.sum(np.abs(spectrum) ** 2)) / n
        worst = max(worst, abs(lhs - rhs) / lhs)
    _report("3 energy conservation", worst < 1e-10, f"worst relative discrepancy {worst:.3e}")


def test_criterion_04_operation_counts():
    observed = {}
    for n in (2, 8, 1024):
        trace = Pipeline(PipelineConfig(n=n)).run(random_signal(n, seed=n))
        observed[n] = (trace.multiplies, trace.additions)
        if observed[n] != processing_cost(n):
            _report("4 operation counts", False, f"n={n}: {observed[n]}")
    ok = observed[1024] == (5120, 10240)
    _report("4 operation counts", ok, f"n=1024 counted {observed[1024]}")


def test_criterion_05_uniform_quantizer_theory():
    worst = 0.0
    for bits in (4, 6, 8, 10, 12):
        (row,) = quantizer_characterization("uniform", bits, bits, 1_000_000, seed=50 + bits)
        deviation = abs(row.empirical_variance - row.theory_variance) / row.theory_variance
        worst = max(worst, deviation)
        if deviation >= 0.05:
            _report("5 uniform quantizer theory", False, f"b={bits} off by {deviation:.2%}")
    _report("5 uniform quantizer theory", worst < 0.05, f"worst deviation {worst:.2%}")


def test_criterion_06_mantissa_quantizer_theory():
    worst = 0.0
    for bits in (4, 6, 8):
        (row,) = quantizer_characterization("mantissa", bits, bits, 1_000_000, seed=60 + bits)
        deviation = abs(row.empirical_variance - row.theory_variance) / row.theory_variance
        worst = max(worst, deviation)
        mantissa = theory_variance_mantissa(QuantizerSpec("mantissa", bits))
        uniform_same_step = theory_variance_uniform(
            QuantizerSpec("uniform", bits + 1, 1.0)  # same step q = 2^-bits
        )
        print(
            f"  b={bits}: mantissa q^2/6 = {mantissa:.6e}, uniform q^2/12 at equal step = "
            f"{uniform_same_step:.6e}, ratio = {mantissa / uniform_same_step:.3f}"
            " (twice, not half)"
        )
        if deviation >= 0.05:
            _report("6 mantissa quantizer theory", False, f"b={bits} off by {deviation:.2%}")
    _report("6 mantissa quantizer theory", worst < 0.05, f"worst deviation {worst:.2%}")


def test_criterion_07_sqnr_slope_and_monotone_variance(uniform_sweep):
    bits = np.array([row.bits for row in uniform_sweep], dtype=float)
    sqnr = np.array([row.sqnr_db for row in uniform_sweep])
    slope = float(np.polyfit(bits, sqnr, 1)[0])
    slope_ok = 5.0 <= slope <= 7.0

    variances = [row.error_variance for row in uniform_sweep]
    monotone_ok = all(hi <= lo * 1.02 for lo, hi in zip(variances, variances[1:]))

    _report(
        "7 sqnr slope and monotone variance",
        slope_ok and monotone_ok,
        f"slope {slope:.3f} dB/bit, variance nonincreasing: {monotone_ok}",
    )


def test_criterion_08_stability_ordering(uniform_sweep, mantissa_sweep):
    def plateau_bits(rows):
        # first bit count whose step to the next changes the variance by
        # less than 5% of the curve's own maximum
        variances = [row.error_variance for row in rows]
        threshold = 0.05 * max(variances)
        for i in range(len(rows) - 1):
            if abs(variances[i + 1] - variances[i]) < threshold:
                return rows[i].bits
        return rows[-1].bits

    mantissa_at = plateau_bits(mantissa_sweep)
    uniform_at = plateau_bits(uniform_sweep)
    _report(
        "8 stability ordering",
        mantissa_at <= uniform_at,
        f"mantissa plateau at b={mantissa_at}, uniform at b={uniform_at}",
    )


def test_criterion_09_mid_tread_zero():
    spec = QuantizerSpec("uniform", 6, 1.0)
    q = spec.step
    rng = np.random.default_rng(9)
    x = rng.uniform(-q / 2, q / 2, 10_000)
    out = quantize_uniform(x, spec)
    zeros = int(np.count_nonzero(out == 0.0))
    _report("9 mid-tread zero", zeros == x.size, f"{zeros}/{x.size} map to exactly 0")


def test_criterion_10_deterministic_csv(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(
        json.dumps(
            {
                "n": 256,
                "quantizer": {"mode": "uniform", "bits": 8},
                "signal": {"kind": "random", "amplitude": 1.0},
                "sweep": {"bits_lo": 6, "bits_hi": 10, "trials": 5},
                "seed": 7,
            }
        )
    )
    out = tmp_path / "report.csv"
    assert cli_main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    first = out.read_bytes()
    assert cli_main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    identical = out.read_bytes() == first
    _report("10 deterministic csv", identical, f"{len(first)} bytes, identical across runs")
