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
from .config import MAX_SWEEP_BITS, ConfigError, ExperimentConfig, scale_back, unit_exponent
from .pipeline import Pipeline
from .quantization import QuantizerSpec, apply_quantizer, relative_error, snr_db
from .signals import generate_signal


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


# fewest Monte-Carlo samples per row of a quantizer characterization
MIN_CHARACTERIZATION_SAMPLES = 10_000

def _moments(pooled: np.ndarray) -> tuple[float, float, float]:
    """Mean, variance and energy of the vectors in ``pooled``.

    ``pooled`` is a C-contiguous float64 (2, vectors, n) array: every
    vector's real parts, then every vector's imaginary parts, which the
    mean and variance pool as one real sample set, at unit scale. It is
    overwritten. The mean and variance are the pairwise sums of ``mean()``
    and ``var()`` with their bits, the variance taken in place instead of
    on ``var()``'s copy. The energy is the sum over the vectors, in order,
    of ``np.linalg.norm(vector) ** 2`` with its bits: each vector is
    rebuilt in one complex n-vector and its squares summed on the stride-2
    ``real`` and ``imag`` views, as ``norm`` sums them.
    """
    components = pooled.reshape(-1)
    mean = np.add.reduce(components) / components.size
    scratch = np.empty(pooled.shape[-1], dtype=np.complex128)
    re, im = scratch.real, scratch.imag
    energy = 0.0
    for real_parts, imag_parts in zip(*pooled):
        re[:], im[:] = real_parts, imag_parts
        energy += float(np.sqrt(re.dot(re) + im.dot(im)) ** 2)
    components -= mean
    components *= components
    variance = np.add.reduce(components) / components.size
    return float(mean), float(variance), energy


def _percent_and_sqnr(reference: tuple, error: tuple) -> tuple[float, float]:
    """Percent error and SQNR from the ``_moments`` of the references and of their errors.

    percent_error = 100 * sqrt(error energy / reference energy); SQNR is
    10*log10 of the reference variance over the error variance, capped by
    ``snr_db``.
    """
    _, ref_variance, ref_energy = reference
    _, variance, energy = error
    return 100.0 * math.sqrt(energy / ref_energy), snr_db(ref_variance, variance)


def compare(reference, test) -> tuple[np.ndarray, float, float]:
    """Error vector, percentage error and SQNR of a test run against a reference.

    percent_error = 100 * ||reference - test|| / ||reference||; SQNR pools
    the real and imaginary parts of both vectors into real sample sets and
    takes 10*log10 of their variance ratio, capped at 300 dB so a perfect
    match stays numeric. Vectors whose largest component is in
    [2**-401, 2**400), as a unit-scale run's are, give the row of a
    one-trial sweep bit for bit; others are first scaled by one exact
    power of two that puts it in [1/2, 1).
    """
    ref = np.asarray(reference, dtype=np.complex128)
    out = np.asarray(test, dtype=np.complex128)
    if ref.shape != out.shape:
        raise ValueError(f"length mismatch: {ref.shape} vs {out.shape}")
    for name, vec in (("reference", ref), ("test", out)):
        if not np.isfinite(vec).all():
            raise ValueError(f"{name} contains non-finite components")
    if not ref.any():
        raise ValueError("percent error is undefined for an all-zero reference")
    error = ref - out
    parts = np.stack((ref.real, ref.imag, error.real, error.imag)).reshape(4, 1, -1)
    exponent = math.frexp(max(parts.max(), -parts.min()))[1]
    if not -400 <= exponent <= 400:
        np.ldexp(parts, -exponent, out=parts)
    percent, sqnr = _percent_and_sqnr(_moments(parts[:2]), _moments(parts[2:]))
    return error, percent, sqnr


def run_sweep(cfg: ExperimentConfig) -> list[ErrorReport]:
    """Sweep the per-stage bit resolution and report one error row per bit count.

    The row for each bit count from ``cfg.bits_lo`` to ``cfg.bits_hi``
    runs ``Pipeline(cfg.pipeline_config(bits))``, the processor ``qfft fft``
    runs, with the configured stage quantizers, full scale and twiddle ROM,
    at unit scale, and reports each row through ``scale_back``. Each row
    runs ``cfg.trials`` signals; the same trial signals (derived from
    ``cfg.seed``) are reused across rows so adjacent rows differ only in
    resolution. Deterministic for a fixed config.

    Raises ``ConfigError`` for a config whose bits a sweep cannot vary
    (``ExperimentConfig.swept_mode``), whose reference outputs have zero
    energy (a multitone whose tones cancel), or where a reported value
    scaled back is past the double range.
    """
    cfg.swept_mode()
    stages = core.num_stages(cfg.n)

    trial_seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    signal = cfg.signal_spec()
    signals = [generate_signal(signal, s) for s in trial_seeds]
    # the references and one row's errors as _moments takes them: every
    # trial's real parts, then every trial's imaginary parts
    references = np.empty((2, cfg.trials, cfg.n))
    for trial, x in enumerate(signals):
        ref = core.fft_reference(x, cfg.direction)
        references[0, trial], references[1, trial] = ref.real, ref.imag
    # neither the last reference nor, below, the last trace output stays
    # alive while _moments holds its scratch vector
    del ref
    # _moments overwrites its input, so the references are measured in the errors buffer
    errors = references.copy()
    reference_moments = _moments(errors)
    if reference_moments[2] == 0.0:
        raise ConfigError(f"{cfg.amplitude_path}: the reference outputs have zero energy; percent error undefined")
    e, path = cfg.scale_exponent, cfg.amplitude_path

    rows = []
    for bits in range(cfg.bits_lo, cfg.bits_hi + 1):
        theory = cfg.input_quantizer(bits).theory_variance
        if cfg.quantizer_mode == "uniform":  # a mantissa theory variance is relative
            theory = scale_back(theory, 2 * e, "quantizer.x_max" if cfg.quantizer_x_max is not None else path)
        pipeline = Pipeline(cfg.pipeline_config(bits))
        saturations = 0
        for trial, x in enumerate(signals):
            trace = pipeline.run(x)
            np.subtract(references[0, trial], trace.output.real, out=errors[0, trial])
            np.subtract(references[1, trial], trace.output.imag, out=errors[1, trial])
            saturations += trace.saturation_total
        del trace
        error_moments = _moments(errors)
        mean, variance, _ = error_moments
        percent, sqnr = _percent_and_sqnr(reference_moments, error_moments)
        rows.append(
            ErrorReport(
                bits=bits,
                error_mean=scale_back(mean, e, path),
                error_std=scale_back(math.sqrt(variance), e, path),
                error_variance=scale_back(variance, 2 * e, path),
                percent_error=percent,
                sqnr_db=sqnr,
                theory_variance=theory,
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
    absolute error variance against q^2/12, at unit scale (x_max * 2**-e
    in [1, 2)): both are reported times 4**e by ``scale_back``. Mantissa
    mode draws the fraction uniform on [1/2, 1) with random sign and
    exponent and measures the relative-error variance against q^2/6.
    """
    if not 1 <= bits_lo <= bits_hi <= MAX_SWEEP_BITS:
        raise ValueError(f"need 1 <= bits_lo <= bits_hi <= {MAX_SWEEP_BITS}")
    if sample_count < MIN_CHARACTERIZATION_SAMPLES:
        raise ValueError(f"sample_count must be >= {MIN_CHARACTERIZATION_SAMPLES}, got {sample_count}")

    # the finest step, judged at the given full scale
    QuantizerSpec(mode, bits_hi, x_max if mode == "uniform" else None)
    exponent = unit_exponent(x_max) if mode == "uniform" else 0
    rng = np.random.default_rng(seed)
    rows = []
    for bits in range(bits_lo, bits_hi + 1):
        spec = QuantizerSpec(mode, bits, math.ldexp(x_max, -exponent) if mode == "uniform" else None)
        if mode == "uniform":
            x = rng.uniform(-spec.x_max, spec.x_max, sample_count)
        else:
            # drawn in place: fraction, then sign and exponent, freed before quantizing
            x = rng.uniform(0.5, 1.0, sample_count)
            sign = rng.integers(0, 2, sample_count) * 2.0 - 1.0
            exponents = rng.integers(-8, 9, sample_count)
            x *= sign
            np.ldexp(x, exponents, out=x)
            del sign, exponents
        qx = apply_quantizer(x, spec)[0]
        err = x - qx if mode == "uniform" else relative_error(x, qx)
        # at most three sample arrays are alive at once: var() copies err, and
        # err is gone before the next row draws
        del x, qx
        variances = (float(err.var()), spec.theory_variance)
        rows.append(CharacterizationRow(bits, *(scale_back(v, 2 * exponent, "quantizer.x_max") for v in variances)))
        del err
    return rows
