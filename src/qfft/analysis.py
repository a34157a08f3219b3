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
from .pipeline import Pipeline, PipelineConfig, mantissa_stage_specs, uniform_stage_specs
from .quantization import (
    QuantizerSpec,
    quantize_mantissa,
    quantize_uniform,
    relative_error,
    theory_variance_mantissa,
    theory_variance_uniform,
)
from .signals import SignalSpec, generate_signal, magnitude_bound

SWEEP_MODES = ("uniform", "mantissa")
MAX_SWEEP_BITS = 24
SQNR_CAP_DB = 300.0


@dataclass(frozen=True)
class SweepSpec:
    """One bit-resolution sweep: which pipeline, which signal, how many trials."""

    n: int
    bits_lo: int
    bits_hi: int
    signal: SignalSpec
    direction: str = "fft"
    quantizer_mode: str = "uniform"
    trials: int = 1
    seed: int = 0

    def __post_init__(self):
        core.validate_size(self.n)
        if self.direction not in ("fft", "ifft"):
            raise ValueError(f"direction must be 'fft' or 'ifft', got {self.direction!r}")
        if self.quantizer_mode not in SWEEP_MODES:
            raise ValueError(f"quantizer_mode must be one of {SWEEP_MODES}, got {self.quantizer_mode!r}")
        if not 1 <= self.bits_lo <= self.bits_hi <= MAX_SWEEP_BITS:
            raise ValueError(
                f"need 1 <= bits_lo <= bits_hi <= {MAX_SWEEP_BITS}, got {self.bits_lo}..{self.bits_hi}"
            )
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.signal.n != self.n:
            raise ValueError(f"signal length {self.signal.n} does not match sweep n {self.n}")


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


def _capped_sqnr_db(signal_variance: float, noise_variance: float) -> float:
    if noise_variance == 0.0 or signal_variance / noise_variance > 10.0 ** (SQNR_CAP_DB / 10.0):
        return SQNR_CAP_DB
    if signal_variance == 0.0:
        return -SQNR_CAP_DB
    return 10.0 * math.log10(signal_variance / noise_variance)


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
    sqnr = _capped_sqnr_db(
        float(_pooled_components([ref]).var()), float(_pooled_components([error]).var())
    )
    return error, percent, sqnr


def _stage_specs_for(mode: str, n: int, bits: int, base_x_max: float) -> tuple[QuantizerSpec, ...]:
    if mode == "uniform":
        return uniform_stage_specs(n, bits, base_x_max)
    return mantissa_stage_specs(n, bits)


def _row_theory(mode: str, bits: int, base_x_max: float) -> float:
    """Theory column: closed form of a single quantizer at the row's bits.

    Uniform rows use the input-stage full scale of the doubling ladder as
    the reference quantizer; mantissa rows are scale-free.
    """
    if mode == "uniform":
        return theory_variance_uniform(QuantizerSpec("uniform", bits, base_x_max))
    return theory_variance_mantissa(QuantizerSpec("mantissa", bits))


def run_sweep(spec: SweepSpec) -> list[ErrorReport]:
    """Sweep the per-stage bit resolution and report one error row per bit count.

    Every stage of the pipeline is configured with the row's bit count in
    the sweep's quantizer mode. Each row runs ``trials`` random signals;
    the same trial signals (derived from the sweep seed) are reused across
    rows so adjacent rows differ only in resolution. Deterministic for a
    fixed spec.
    """
    direction = "forward" if spec.direction == "fft" else "inverse"
    base_x_max = magnitude_bound(spec.signal)
    stages = core.num_stages(spec.n)

    trial_seeds = np.random.SeedSequence(spec.seed).spawn(spec.trials)
    signals = [generate_signal(spec.signal, s) for s in trial_seeds]
    references = [core.fft_reference(x, direction) for x in signals]
    ref_variance = float(_pooled_components(references).var())
    ref_energy = float(sum(np.linalg.norm(r) ** 2 for r in references))
    if ref_energy == 0.0:
        raise ValueError("sweep reference outputs are all zero; percent error undefined")

    components_per_run = 2 * spec.n * stages
    # one row's pooled error components: every trial's real parts, then
    # every trial's imaginary parts, in trial order (as _pooled_components)
    err_components = np.empty(2 * spec.trials * spec.n)
    real_parts = err_components[: spec.trials * spec.n].reshape(spec.trials, spec.n)
    imag_parts = err_components[spec.trials * spec.n :].reshape(spec.trials, spec.n)
    rows = []
    for bits in range(spec.bits_lo, spec.bits_hi + 1):
        config = PipelineConfig(
            n=spec.n,
            direction=spec.direction,
            stage_quantizers=_stage_specs_for(spec.quantizer_mode, spec.n, bits, base_x_max),
        )
        pipeline = Pipeline(config)
        err_energy = 0.0
        saturations = 0
        for trial, (x, ref) in enumerate(zip(signals, references)):
            trace = pipeline.run(x)
            error = ref - trace.output
            real_parts[trial] = error.real
            imag_parts[trial] = error.imag
            err_energy += float(np.linalg.norm(error) ** 2)
            saturations += trace.saturation_total
        variance = float(err_components.var())
        rows.append(
            ErrorReport(
                bits=bits,
                error_mean=float(err_components.mean()),
                error_std=math.sqrt(variance),
                error_variance=variance,
                percent_error=100.0 * math.sqrt(err_energy / ref_energy),
                sqnr_db=_capped_sqnr_db(ref_variance, variance),
                theory_variance=_row_theory(spec.quantizer_mode, bits, base_x_max),
                saturation_rate=saturations / (spec.trials * components_per_run),
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
