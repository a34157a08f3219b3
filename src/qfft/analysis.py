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

# Peak exponents e (largest magnitude in [2**(e-1), 2**e)) for which sums
# of squares of up to 2**25 components cannot overflow, and every square
# that can reach a result's last bit (within 2**-100 of the peak's) is a
# normal number.
_UNSCALED_EXPONENTS = range(-400, 401)


def _moments(pooled: np.ndarray) -> tuple[int, float, float, float]:
    """Exponent e, then mean, variance and energy of the vectors in ``pooled`` scaled by 2**-e.

    ``pooled`` is a C-contiguous float64 (2, vectors, n) array: every
    vector's real parts, then every vector's imaginary parts, which the
    mean and variance pool as one real sample set. It is overwritten.
    e is 0 when the largest component magnitude has its exponent in
    ``_UNSCALED_EXPONENTS``, else the one that puts it in [1/2, 1), and
    then ``pooled`` is scaled in place before it is measured. Scaling by
    a power of two is exact, so moments scaled back by 2**e (4**e for
    second moments) keep the bits the unscaled ones have inside that
    range, and keep their value where unscaled squares would underflow
    or overflow. The mean and variance are the pairwise sums of
    ``mean()`` and ``var()`` with their bits, the variance taken in place
    instead of on ``var()``'s copy. The energy is the sum over the
    vectors, in order, of ``np.linalg.norm(vector) ** 2`` with its bits:
    each vector is rebuilt in one complex n-vector and its squares summed
    on the stride-2 ``real`` and ``imag`` views, as ``norm`` sums them.
    """
    components = pooled.reshape(-1)
    exponent = math.frexp(max(float(components.max()), -float(components.min())))[1]
    if exponent in _UNSCALED_EXPONENTS:
        exponent = 0
    else:
        np.ldexp(components, -exponent, out=components)
    mean = np.add.reduce(components) / components.size
    scratch = np.empty(pooled.shape[-1], dtype=np.complex128)
    re, im = scratch.real, scratch.imag
    energy = 0.0
    for real_parts, imag_parts in zip(*components.reshape(pooled.shape)):
        re[:], im[:] = real_parts, imag_parts
        energy += float(np.sqrt(re.dot(re) + im.dot(im)) ** 2)
    components -= mean
    components *= components
    variance = np.add.reduce(components) / components.size
    return exponent, float(mean), float(variance), energy


def _percent_and_sqnr(reference: tuple, error: tuple) -> tuple[float, float]:
    """Percent error and SQNR from the ``_moments`` of the references and of their errors.

    percent_error = 100 * sqrt(error energy / reference energy); SQNR is
    10*log10 of the reference variance over the error variance, capped by
    ``snr_db``.
    """
    ref_exponent, _, ref_variance, ref_energy = reference
    exponent, _, variance, energy = error
    shift = 2 * (exponent - ref_exponent)
    percent = 100.0 * math.sqrt(math.ldexp(energy / ref_energy, shift))
    return percent, snr_db(ref_variance, math.ldexp(variance, shift))


def compare(reference, test) -> tuple[np.ndarray, float, float]:
    """Error vector, percentage error and SQNR of a test run against a reference.

    percent_error = 100 * ||reference - test|| / ||reference||; SQNR pools
    the real and imaginary parts of both vectors into real sample sets and
    takes 10*log10 of their variance ratio, capped at 300 dB so a perfect
    match stays numeric. Both come from the helpers of ``run_sweep``, so
    they equal the row of a one-trial sweep bit for bit and do not depend
    on the scale of the inputs.
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
    moments = [_moments(np.stack((v.real, v.imag)).reshape(2, 1, -1)) for v in (ref, error)]
    percent, sqnr = _percent_and_sqnr(*moments)
    return error, percent, sqnr


def run_sweep(cfg: ExperimentConfig) -> list[ErrorReport]:
    """Sweep the per-stage bit resolution and report one error row per bit count.

    The row for each bit count from ``cfg.bits_lo`` to ``cfg.bits_hi``
    runs ``Pipeline(cfg.pipeline_config(bits))``, the processor ``qfft fft``
    runs, with the configured stage quantizers, full scale and twiddle ROM.
    Each row runs ``cfg.trials`` signals; the same trial signals (derived
    from ``cfg.seed``) are reused across rows so adjacent rows differ only
    in resolution. Deterministic for a fixed config.

    Raises ``ConfigError`` for a config whose bits a sweep cannot vary or
    whose theory column overflows (``ExperimentConfig.swept_mode``), whose
    reference outputs have zero energy (a multitone whose tones cancel),
    or whose signal is so large that a row's error variance is past the
    double range.
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
    if reference_moments[3] == 0.0:
        raise ConfigError(f"{cfg.amplitude_path}: the reference outputs have zero energy; percent error undefined")

    rows = []
    for bits in range(cfg.bits_lo, cfg.bits_hi + 1):
        pipeline = Pipeline(cfg.pipeline_config(bits))
        saturations = 0
        for trial, x in enumerate(signals):
            trace = pipeline.run(x)
            np.subtract(references[0, trial], trace.output.real, out=errors[0, trial])
            np.subtract(references[1, trial], trace.output.imag, out=errors[1, trial])
            saturations += trace.saturation_total
        del trace
        error_moments = _moments(errors)
        exponent, mean, variance = error_moments[:3]
        # the errors scale with the signal; their std and mean stay below the largest of them
        try:
            error_variance = math.ldexp(variance, 2 * exponent)
        except OverflowError:
            raise ConfigError(
                f"{cfg.amplitude_path}: the error variance of the row at {bits} bits is past the double range"
            ) from None
        percent, sqnr = _percent_and_sqnr(reference_moments, error_moments)
        rows.append(
            ErrorReport(
                bits=bits,
                error_mean=math.ldexp(mean, exponent),
                error_std=math.ldexp(math.sqrt(variance), exponent),
                error_variance=error_variance,
                percent_error=percent,
                sqnr_db=sqnr,
                theory_variance=cfg.input_quantizer(bits).theory_variance,
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
    if not 1 <= bits_lo <= bits_hi <= MAX_SWEEP_BITS:
        raise ValueError(f"need 1 <= bits_lo <= bits_hi <= {MAX_SWEEP_BITS}")
    if sample_count < MIN_CHARACTERIZATION_SAMPLES:
        raise ValueError(f"sample_count must be >= {MIN_CHARACTERIZATION_SAMPLES}, got {sample_count}")

    rng = np.random.default_rng(seed)
    rows = []
    for bits in range(bits_lo, bits_hi + 1):
        spec = QuantizerSpec(mode, bits, x_max if mode == "uniform" else None)
        if mode == "uniform":
            x = rng.uniform(-x_max, x_max, sample_count)
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
        rows.append(CharacterizationRow(bits, float(err.var()), spec.theory_variance))
        del err
    return rows
