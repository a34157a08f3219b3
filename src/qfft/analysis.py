"""Experiment engine: the runs the ``qfft`` subcommands report.

``run_transform`` is one transform as ``qfft fft`` reports it, and
``run_sweep`` the error / dispersion / SQNR rows against the ideal
reference as a function of bit resolution. Both run at unit scale and
scale back only what they report. ``quantizer_characterization`` checks
the closed-form variances by Monte-Carlo, without any FFT in the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .config import MAX_SWEEP_BITS, ConfigError, ExperimentConfig, scale_back, unit_exponent
from .pipeline import Pipeline, RunTrace
from .quantization import QuantizerSpec, apply_quantizer, snr_db
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

def _moments(pooled: np.ndarray) -> tuple[float, float]:
    """Mean and variance of the vectors in ``pooled``.

    ``pooled`` is a C-contiguous float64 (2, vectors, n) array: every
    vector's real parts, then every vector's imaginary parts, which the
    mean and variance pool as one real sample set, at unit scale. It is
    overwritten. They are the pairwise sums of ``mean()`` and ``var()``
    with their bits, the variance taken in place instead of on ``var()``'s
    copy.
    """
    components = pooled.reshape(-1)
    mean = np.add.reduce(components) / components.size
    components -= mean
    components *= components
    variance = np.add.reduce(components) / components.size
    return float(mean), float(variance)


def _energy(vector: np.ndarray) -> float:
    """``np.linalg.norm(vector) ** 2`` of a complex vector, with its bits.

    The squares are summed on the stride-2 ``real`` and ``imag`` views, as
    ``norm`` sums them, with no copy. The one place the package takes a BLAS
    ``dot``, whose sums may depend on the BLAS build and thread count.
    """
    re, im = vector.real, vector.imag
    return float(np.sqrt(re.dot(re) + im.dot(im)) ** 2)


def _percent_and_sqnr(variances, energies) -> tuple[float, float]:
    """Percent error and SQNR from the (reference, error) variances and energies.

    percent_error = 100 * sqrt(error energy / reference energy); SQNR is
    10*log10 of the reference variance over the error variance, capped by
    ``snr_db``.
    """
    return 100.0 * math.sqrt(energies[1] / energies[0]), snr_db(*variances)


def compare(reference, test) -> tuple[np.ndarray, float, float]:
    """Error vector, percentage error and SQNR of a test run against a reference.

    percent_error = 100 * ||reference - test|| / ||reference||; SQNR pools
    the real and imaginary parts of both vectors into real sample sets and
    takes 10*log10 of their variance ratio, capped at 300 dB so a perfect
    match stays numeric. Vectors whose largest component is in
    [2**-401, 2**400), as a unit-scale run's are, give the row of a
    one-trial sweep bit for bit; others are first scaled by one exact
    power of two that puts it in [1/2, 1). Finite vectors whose difference
    is past the double range raise ``ValueError``.
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
    try:
        with np.errstate(over="raise"):
            error = ref - out
    except FloatingPointError:
        raise ValueError("reference - test is past the double range; the error vector cannot hold it") from None
    vectors = np.stack((ref, error))
    components = vectors.view(np.float64)
    exponent = math.frexp(max(components.max(), -components.min()))[1]
    if not -400 <= exponent <= 400:
        np.ldexp(components, -exponent, out=components)
    # each vector's real parts, then its imaginary parts, as _moments takes them
    planes = components.reshape(2, -1, 2).transpose(0, 2, 1)[:, :, None].copy()
    percent, sqnr = _percent_and_sqnr([_moments(p)[1] for p in planes], [_energy(v) for v in vectors])
    return error, percent, sqnr


def run_transform(cfg: ExperimentConfig) -> RunTrace:
    """One transform as ``qfft fft`` reports it: output, saturations and operation counts.

    Runs ``Pipeline(cfg.pipeline_config())`` on ``generate_signal(cfg.signal_spec(), cfg.seed)``,
    both at unit scale, and scales the output back by 2**``cfg.scale_exponent`` in place. Raises
    ``ConfigError`` at ``cfg.amplitude_path`` where the output scaled back is past the double range.
    The run consumes the signal it generated (``overwrite_x``), so it holds the signal and one
    working vector, and once it returns no vector beside the output.
    """
    trace = Pipeline(cfg.pipeline_config()).run(generate_signal(cfg.signal_spec(), cfg.seed), overwrite_x=True)
    components = trace.output.view(np.float64)
    scale_back(float(max(components.max(), -components.min())), cfg.scale_exponent, cfg.amplitude_path)
    np.ldexp(components, cfg.scale_exponent, out=components)
    return trace


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
    references = [core.fft_reference(x, cfg.direction) for x in signals]
    # the references' and then one row's errors' components as _moments takes
    # them: every trial's real parts, then every trial's imaginary parts
    planes = np.empty((2, cfg.trials, cfg.n))
    reference_energy = 0.0  # summed in trial order, as a row's error energy is
    for trial, ref in enumerate(references):
        planes[:, trial] = ref.view(np.float64).reshape(-1, 2).T
        reference_energy += _energy(ref)
    if reference_energy == 0.0:
        raise ConfigError(f"{cfg.amplitude_path}: the reference outputs have zero energy; percent error undefined")
    reference_variance = _moments(planes)[1]
    e, path = cfg.scale_exponent, cfg.amplitude_path

    rows = []
    for bits in range(cfg.bits_lo, cfg.bits_hi + 1):
        spec = cfg.input_quantizer(bits)
        theory = spec.theory_variance
        if spec.x_max is not None:  # a scale-free theory variance is relative
            theory = scale_back(theory, 2 * e, "quantizer.x_max" if cfg.quantizer_x_max is not None else path)
        pipeline = Pipeline(cfg.pipeline_config(bits))
        saturations = 0
        energy = 0.0
        for trial, (x, ref) in enumerate(zip(signals, references)):
            trace = pipeline.run(x)
            # the run's own output becomes the trial's error
            error = np.subtract(ref, trace.output, trace.output)
            energy += _energy(error)
            planes[:, trial] = error.view(np.float64).reshape(-1, 2).T
            saturations += trace.saturation_total
        # freed before the next row's first run allocates its working vector, which
        # then takes these heap pages instead of faulting in pages trimmed off the heap
        del trace, error
        mean, variance = _moments(planes)
        percent, sqnr = _percent_and_sqnr((reference_variance, variance), (reference_energy, energy))
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
    x_max: float | None = None,
) -> list[CharacterizationRow]:
    """Pure quantizer Monte-Carlo, no FFT: empirical vs closed-form variance.

    Each row's spec is ``QuantizerSpec.named(mode, bits, x_max)``. Uniform
    mode draws x ~ Uniform[-x_max, x_max] and measures the absolute error
    variance against q^2/12 at unit scale (x_max * 2**-e in [1, 2)), both
    reported times 4**e by ``scale_back``. Mantissa mode draws the fraction
    on [1/2, 1) with random sign and exponent, relative error vs q^2/6.
    """
    if not 1 <= bits_lo <= bits_hi <= MAX_SWEEP_BITS:
        raise ValueError(f"need 1 <= bits_lo <= bits_hi <= {MAX_SWEEP_BITS}")
    if sample_count < MIN_CHARACTERIZATION_SAMPLES:
        raise ValueError(f"sample_count must be >= {MIN_CHARACTERIZATION_SAMPLES}, got {sample_count}")

    # the finest step, judged at the given full scale; every row runs at unit scale
    finest = QuantizerSpec.named(mode, bits_hi, x_max)
    exponent = unit_exponent(finest.x_max) if finest.x_max is not None else 0
    rng = np.random.default_rng(seed)
    rows = []
    for bits in range(bits_lo, bits_hi + 1):
        spec = QuantizerSpec(mode, bits, finest.scaled(-exponent).x_max)
        if spec.x_max is not None:
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
        err = spec.error(x, qx)
        # at most three sample arrays are alive at once: var() copies err, and
        # err is gone before the next row draws
        del x, qx
        variances = (float(err.var()), spec.theory_variance)
        rows.append(CharacterizationRow(bits, *(scale_back(v, 2 * exponent, "quantizer.x_max") for v in variances)))
        del err
    return rows
