"""Experiment engine: quantized pipeline vs ideal reference across bit sweeps.

Produces the error / dispersion / SQNR curves as a function of bit
resolution, plus pure quantizer Monte-Carlo characterizations that check
the closed-form variances without any FFT in the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .config import MAX_SWEEP_BITS, ConfigError, ExperimentConfig
from .pipeline import Pipeline
from .quantization import (
    SQNR_CAP_DB,  # noqa: F401  (importable from here as well)
    QuantizerSpec,
    quantize_mantissa,
    quantize_uniform,
    relative_error,
    snr_db,
    theory_variance_mantissa,
    theory_variance_uniform,
)
from .signals import generate_signal

SWEEP_MODES = ("uniform", "mantissa")


@dataclass(frozen=True)
class ErrorReport:
    """One sweep row: error dispersion, percentage error and SQNR at one bit count."""

    bits: int
    error_mean: float
    error_std: float
    error_variance: float
    percent_error: float
    sqnr_db: float
    theory_variance: float
    saturation_rate: float


@dataclass(frozen=True)
class CharacterizationRow:
    """Pure quantizer Monte-Carlo result at one bit count."""

    bits: int
    empirical_variance: float
    theory_variance: float


def _pooled_components(vectors: list[np.ndarray]) -> np.ndarray:
    """Real and imaginary parts of all vectors as one flat real sample set."""
    stacked = np.concatenate(vectors)
    return np.concatenate([stacked.real, stacked.imag])


def compare(reference, test) -> tuple[np.ndarray, float, float]:
    """Error vector, percentage error and SQNR of a test run against a reference.

    percent_error = 100 * ||reference - test|| / ||reference||; SQNR pools
    the real and imaginary parts of both vectors into real sample sets and
    takes 10*log10 of their variance ratio, capped at 300 dB so a perfect
    match stays numeric.
    """
    ref = np.asarray(reference, dtype=np.complex128)
    out = np.asarray(test, dtype=np.complex128)
    if ref.shape != out.shape:
        raise ValueError(f"length mismatch: {ref.shape} vs {out.shape}")
    error = ref - out
    ref_norm = float(np.linalg.norm(ref))
    if ref_norm == 0.0:
        raise ValueError("percent error is undefined for an all-zero reference")
    percent = 100.0 * float(np.linalg.norm(error)) / ref_norm
    sqnr = snr_db(float(_pooled_components([ref]).var()), float(_pooled_components([error]).var()))
    return error, percent, sqnr


def _row_theory(mode: str, bits: int, base_x_max: float) -> float:
    """Theory column: closed form of a single quantizer at the row's bits.

    Uniform rows use the input-stage full scale of the doubling ladder as
    the reference quantizer; mantissa rows are scale-free.
    """
    if mode == "uniform":
        return theory_variance_uniform(QuantizerSpec("uniform", bits, base_x_max))
    return theory_variance_mantissa(QuantizerSpec("mantissa", bits))


def run_sweep(cfg: ExperimentConfig) -> list[ErrorReport]:
    """Sweep the per-stage bit resolution and report one error row per bit count.

    The row for each bit count from ``cfg.bits_lo`` to ``cfg.bits_hi``
    runs ``Pipeline(cfg.pipeline_config(bits))``, the processor ``qfft fft``
    runs, with the configured stage quantizers, full scale and twiddle ROM.
    Each row runs ``cfg.trials`` signals; the same trial signals (derived
    from ``cfg.seed``) are reused across rows so adjacent rows differ only
    in resolution. Deterministic for a fixed config.

    Raises ``ConfigError`` for a config whose bits a sweep cannot vary
    (``quantizer.per_stage`` fixes them, mode ``off`` has none) or whose
    reference outputs have zero energy (a multitone whose tones cancel).
    """
    if cfg.per_stage is not None:
        raise ConfigError(
            "quantizer.per_stage: fixes the bits of every stage, so a sweep cannot vary them"
        )
    if cfg.quantizer_mode == "off":
        raise ConfigError('quantizer.mode: "off" has no bits to sweep; use "uniform" or "mantissa"')
    base_x_max = cfg.base_x_max()
    stages = core.num_stages(cfg.n)

    trial_seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    signal = cfg.signal_spec()
    signals = [generate_signal(signal, s) for s in trial_seeds]
    references = [core.fft_reference(x, cfg.direction) for x in signals]
    ref_variance = float(_pooled_components(references).var())
    ref_energy = float(sum(np.linalg.norm(r) ** 2 for r in references))
    if ref_energy == 0.0:
        field = "signal.amplitudes" if cfg.signal_kind == "multitone" else "signal.amplitude"
        raise ConfigError(f"{field}: the reference outputs have zero energy; percent error undefined")

    # one row's pooled error components: every trial's real parts, then
    # every trial's imaginary parts, in trial order (as _pooled_components)
    err_components = np.empty(2 * cfg.trials * cfg.n)
    real_parts = err_components[: cfg.trials * cfg.n].reshape(cfg.trials, cfg.n)
    imag_parts = err_components[cfg.trials * cfg.n :].reshape(cfg.trials, cfg.n)
    # one trial's error, rewritten in place by every trial
    error = np.empty(cfg.n, dtype=np.complex128)
    error_re, error_im = error.real, error.imag
    rows = []
    for bits in range(cfg.bits_lo, cfg.bits_hi + 1):
        pipeline = Pipeline(cfg.pipeline_config(bits))
        err_energy = 0.0
        saturations = 0
        for trial, (x, ref) in enumerate(zip(signals, references)):
            trace = pipeline.run(x)
            np.subtract(ref, trace.output, out=error)
            real_parts[trial] = error_re
            imag_parts[trial] = error_im
            # the body of np.linalg.norm(error) ** 2, with its bits
            err_energy += float(np.sqrt(error_re.dot(error_re) + error_im.dot(error_im)) ** 2)
            saturations += trace.saturation_total
        variance = float(err_components.var())
        rows.append(
            ErrorReport(
                bits=bits,
                error_mean=float(err_components.mean()),
                error_std=math.sqrt(variance),
                error_variance=variance,
                percent_error=100.0 * math.sqrt(err_energy / ref_energy),
                sqnr_db=snr_db(ref_variance, variance),
                theory_variance=_row_theory(cfg.quantizer_mode, bits, base_x_max),
                saturation_rate=saturations / (cfg.trials * 2 * cfg.n * stages),
            )
        )
    return rows


def quantizer_characterization(
    mode: str,
    bits_lo: int,
    bits_hi: int,
    sample_count: int,
    seed: int = 0,
    x_max: float = 1.0,
) -> list[CharacterizationRow]:
    """Pure quantizer Monte-Carlo, no FFT: empirical vs closed-form variance.

    Uniform mode draws x ~ Uniform[-x_max, x_max] and measures the
    absolute error variance against q^2/12. Mantissa mode draws the
    fraction uniform on [1/2, 1) with random sign and exponent and
    measures the relative-error variance against q^2/6.
    """
    if mode not in SWEEP_MODES:
        raise ValueError(f"mode must be one of {SWEEP_MODES}, got {mode!r}")
    if not 1 <= bits_lo <= bits_hi <= MAX_SWEEP_BITS:
        raise ValueError(f"need 1 <= bits_lo <= bits_hi <= {MAX_SWEEP_BITS}")
    if sample_count < 10_000:
        raise ValueError(f"sample_count must be >= 10000, got {sample_count}")

    rng = np.random.default_rng(seed)
    rows = []
    for bits in range(bits_lo, bits_hi + 1):
        if mode == "uniform":
            spec = QuantizerSpec("uniform", bits, x_max)
            x = rng.uniform(-x_max, x_max, sample_count)
            err = x - quantize_uniform(x, spec)
            rows.append(
                CharacterizationRow(bits, float(err.var()), theory_variance_uniform(spec))
            )
        else:
            spec = QuantizerSpec("mantissa", bits)
            mant = rng.uniform(0.5, 1.0, sample_count)
            sign = rng.integers(0, 2, sample_count) * 2.0 - 1.0
            exponent = rng.integers(-8, 9, sample_count)
            x = np.ldexp(sign * mant, exponent)
            err = relative_error(x, quantize_mantissa(x, spec))
            rows.append(
                CharacterizationRow(bits, float(err.var()), theory_variance_mantissa(spec))
            )
    return rows
