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


# Peak exponents e (largest magnitude in [2**(e-1), 2**e)) for which sums
# of squares of up to 2**25 components cannot overflow, and every square
# that can reach a result's last bit (within 2**-100 of the peak's) is a
# normal number.
_UNSCALED_EXPONENTS = range(-400, 401)


def _normalize(values: np.ndarray) -> int:
    """Scale ``values`` in place by a power of two when squaring them could under- or overflow.

    ``values`` is a C-contiguous float64 or complex128 array. Returns the
    exponent e of the scale applied (original = values * 2**e): 0 when the
    largest component magnitude has its exponent in ``_UNSCALED_EXPONENTS``,
    else the one that puts it in [1/2, 1). Scaling by a power of two is
    exact, so second moments taken on the scaled values and scaled back by
    4**e keep the bits the unscaled ones have inside that range, and keep
    their value where the unscaled squares would underflow.
    """
    components = values.reshape(-1).view(np.float64)
    if not components.size:
        return 0
    exponent = math.frexp(max(float(components.max()), -float(components.min())))[1]
    if exponent in _UNSCALED_EXPONENTS:
        return 0
    np.ldexp(components, -exponent, out=components)
    return exponent


def _energy(vector: np.ndarray) -> float:
    """||vector||**2: the body of ``np.linalg.norm(vector) ** 2``, with its bits."""
    re, im = vector.real, vector.imag
    return float(np.sqrt(re.dot(re) + im.dot(im)) ** 2)


def _total_energy(vectors) -> float:
    """``_energy`` summed over ``vectors`` in order."""
    total = 0.0
    for v in vectors:
        total += _energy(v)
    return total


def _reference_moments(references: list[np.ndarray]) -> tuple[int, float, float]:
    """Exponent e of ``_normalize``, then variance and energy of the references scaled by 2**-e.

    The variance pools every component as ``_pooled_components`` does.
    """
    pooled = _pooled_components(references)
    exponent = _normalize(pooled)
    if exponent:
        references = [np.ldexp(r.view(np.float64), -exponent).view(np.complex128) for r in references]
    return exponent, float(pooled.var()), _total_energy(references)


def compare(reference, test) -> tuple[np.ndarray, float, float]:
    """Error vector, percentage error and SQNR of a test run against a reference.

    percent_error = 100 * ||reference - test|| / ||reference||; SQNR pools
    the real and imaginary parts of both vectors into real sample sets and
    takes 10*log10 of their variance ratio, capped at 300 dB so a perfect
    match stays numeric. Both are taken on copies scaled by a power of two
    where needed (see ``_normalize``), so they do not depend on the scale
    of the inputs.
    """
    ref = np.array(reference, dtype=np.complex128)
    out = np.asarray(test, dtype=np.complex128)
    if ref.shape != out.shape:
        raise ValueError(f"length mismatch: {ref.shape} vs {out.shape}")
    error = ref - out
    scaled_error = error.copy()
    shift = _normalize(scaled_error) - _normalize(ref)
    ref_norm = float(np.linalg.norm(ref))
    if ref_norm == 0.0:
        raise ValueError("percent error is undefined for an all-zero reference")
    percent = math.ldexp(100.0 * float(np.linalg.norm(scaled_error)) / ref_norm, shift)
    sqnr = snr_db(
        float(_pooled_components([ref]).var()),
        math.ldexp(float(_pooled_components([scaled_error]).var()), 2 * shift),
    )
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
    # every second moment below is taken on values scaled by a power of two
    # where their squares could underflow or overflow (see _normalize), so
    # a tiny signal gets the rows of a unit one
    ref_exponent, ref_variance, ref_energy = _reference_moments(references)
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
    rows = []
    for bits in range(cfg.bits_lo, cfg.bits_hi + 1):
        pipeline = Pipeline(cfg.pipeline_config(bits))
        err_energy = 0.0
        saturations = 0
        for trial, (x, ref) in enumerate(zip(signals, references)):
            trace = pipeline.run(x)
            np.subtract(ref, trace.output, out=error)
            real_parts[trial] = error.real
            imag_parts[trial] = error.imag
            err_energy += _energy(error)
            saturations += trace.saturation_total
        exponent = _normalize(err_components)
        if exponent:
            scaled = np.empty((cfg.trials, cfg.n), dtype=np.complex128)
            scaled.real, scaled.imag = real_parts, imag_parts
            err_energy = _total_energy(scaled)
        shift = exponent - ref_exponent
        scaled_variance = float(err_components.var())
        variance = math.ldexp(scaled_variance, 2 * exponent)
        rows.append(
            ErrorReport(
                bits=bits,
                error_mean=math.ldexp(float(err_components.mean()), exponent),
                error_std=math.ldexp(math.sqrt(scaled_variance), exponent),
                error_variance=variance,
                percent_error=100.0 * math.sqrt(math.ldexp(err_energy / ref_energy, 2 * shift)),
                sqnr_db=snr_db(ref_variance, math.ldexp(scaled_variance, 2 * shift)),
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
