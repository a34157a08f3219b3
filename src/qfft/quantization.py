"""Static quantizer models and their noise statistics.

Two quantizers: a mid-tread uniform staircase on [-x_max, x_max] and a
floating-point mantissa quantizer that rounds only the normalized
fraction M in [1/2, 1). Rounding is half-to-even in both, which keeps the
empirical error mean near zero. Closed-form error variances:
q^2/12 for the uniform staircase and q^2/6 for the mantissa relative
error (the latter is twice, not half, the uniform value at equal step).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MODES = ("off", "uniform", "mantissa")
MAX_BITS = 52  # double-precision mantissa width


@dataclass(frozen=True)
class QuantizerSpec:
    """Quantizer configuration: mode, bit count and full scale.

    The step follows from the bits: uniform mode quantizes [-x_max, x_max]
    into 2**bits intervals (q = 2 * x_max * 2**-bits), mantissa mode grids
    the normalized fraction with q = 2**-bits.
    """

    mode: str
    bits: int = 0
    x_max: float = 1.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode != "off" and not 1 <= self.bits <= MAX_BITS:
            raise ValueError(f"bits must be in 1..{MAX_BITS}, got {self.bits}")
        if self.mode == "uniform" and not self.x_max > 0:
            raise ValueError(f"x_max must be positive, got {self.x_max}")

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    @property
    def step(self) -> float:
        if self.mode == "uniform":
            return 2.0 * self.x_max * 2.0 ** -self.bits
        if self.mode == "mantissa":
            return 2.0 ** -self.bits
        raise ValueError("step is undefined for mode 'off'")


OFF = QuantizerSpec("off")


@dataclass(frozen=True)
class QuantizationStats:
    """Population statistics of a quantization-error sample."""

    error_mean: float
    error_std: float
    error_variance: float
    sample_count: int
    saturation_count: int = 0

    def __post_init__(self):
        if self.saturation_count > self.sample_count:
            raise ValueError("saturation_count cannot exceed sample_count")


def quantize_uniform(x, spec: QuantizerSpec):
    """Mid-tread staircase Q(x) = q * round(x / q), clamped to [-x_max, x_max].

    Ties round half-to-even, so |x| <= q/2 maps to exactly 0. Accepts a
    scalar or an ndarray of reals.
    """
    if spec.mode != "uniform":
        raise ValueError(f"spec mode must be 'uniform', got {spec.mode!r}")
    return _quantize_reals(x, spec)


def quantize_mantissa(x, spec: QuantizerSpec):
    """Round only the normalized fraction of x onto a grid of step 2**-bits.

    x is split as sign * 2**e * M with M in [1/2, 1); M is rounded
    half-to-even to the nearest multiple of q and the value reassembled.
    Zero passes through and exact powers of two are fixed points.
    """
    if spec.mode != "mantissa":
        raise ValueError(f"spec mode must be 'mantissa', got {spec.mode!r}")
    return _quantize_reals(x, spec)


def _quantize_reals(x, spec: QuantizerSpec):
    arr = np.asarray(x, dtype=np.float64)
    out = np.empty_like(arr)
    _quantize_into(arr, spec, out)
    return out if arr.ndim else float(out)


def _quantize_into(x: np.ndarray, spec: QuantizerSpec, out: np.ndarray) -> int:
    """Quantize the float64 array ``x`` into ``out`` (which may be ``x``).

    Returns the number of components the uniform clamp changed. The one
    kernel behind every quantizer entry point.
    """
    q = spec.step
    if spec.mode == "uniform":
        np.divide(x, q, out=out)
        np.rint(out, out=out)
        np.multiply(out, q, out=out)
        saturated = int(np.count_nonzero(np.abs(out) > spec.x_max))
        if saturated:
            np.clip(out, -spec.x_max, spec.x_max, out=out)
        return saturated
    exp = np.empty(x.shape, dtype=np.intc)
    np.frexp(x, out=(out, exp))
    np.divide(out, q, out=out)
    np.rint(out, out=out)
    np.multiply(out, q, out=out)
    np.ldexp(out, exp, out=out)
    return 0


def quantization_error(x, qx):
    """Absolute quantization error x - Q(x)."""
    return x - qx


def relative_error(x, qx):
    """Relative quantization error (Q(x) - x) / x; undefined at x = 0."""
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr == 0.0):
        raise ValueError("relative error is undefined at x = 0; skip zero samples")
    out = (np.asarray(qx, dtype=np.float64) - arr) / arr
    return out if arr.ndim else float(out)


def theory_variance_uniform(spec: QuantizerSpec) -> float:
    """Closed-form error variance q^2/12 of the mid-tread staircase.

    Equals (1/3) * x_max**2 * 2**(-2*bits) by construction of the step.
    """
    if spec.mode != "uniform":
        raise ValueError(f"spec mode must be 'uniform', got {spec.mode!r}")
    q = spec.step
    return q * q / 12.0


def theory_variance_mantissa(spec: QuantizerSpec) -> float:
    """Closed-form relative-error variance q^2/6 of the mantissa quantizer.

    Value of the double integral of (a/M)^2 with a uniform on [-q/2, q/2]
    and M uniform on [1/2, 1): twice the uniform-staircase q^2/12 at equal
    step, not half of it.
    """
    if spec.mode != "mantissa":
        raise ValueError(f"spec mode must be 'mantissa', got {spec.mode!r}")
    q = spec.step
    return q * q / 6.0


def snr_db(signal_variance: float, noise_variance: float) -> float:
    """Signal-to-noise ratio 10*log10(signal_variance / noise_variance) in dB."""
    if not signal_variance > 0:
        raise ValueError(f"signal variance must be positive, got {signal_variance}")
    if not noise_variance > 0:
        raise ValueError(f"noise variance must be positive, got {noise_variance}")
    return 10.0 * math.log10(signal_variance / noise_variance)


def empirical_stats(errors, saturation_count: int = 0) -> QuantizationStats:
    """Population mean, standard deviation and variance of an error sample."""
    arr = np.asarray(errors, dtype=np.float64)
    if arr.size < 2:
        raise ValueError(f"need at least 2 samples, got {arr.size}")
    variance = float(arr.var())
    return QuantizationStats(
        error_mean=float(arr.mean()),
        error_std=math.sqrt(variance),
        error_variance=variance,
        sample_count=int(arr.size),
        saturation_count=saturation_count,
    )


def combine_stats(a: QuantizationStats, b: QuantizationStats) -> QuantizationStats:
    """Count-weighted merge of two disjoint-shard statistics."""
    n = a.sample_count + b.sample_count
    mean = (a.sample_count * a.error_mean + b.sample_count * b.error_mean) / n
    second = (
        a.sample_count * (a.error_variance + a.error_mean**2)
        + b.sample_count * (b.error_variance + b.error_mean**2)
    ) / n
    variance = max(second - mean**2, 0.0)
    return QuantizationStats(
        error_mean=mean,
        error_std=math.sqrt(variance),
        error_variance=variance,
        sample_count=n,
        saturation_count=a.saturation_count + b.saturation_count,
    )


def apply_quantizer(values, spec: QuantizerSpec, out=None) -> tuple[np.ndarray, int]:
    """Quantize an array componentwise and count saturations.

    Complex arrays are quantized on real and imaginary parts separately,
    through a float64 view of the interleaved components. Returns the
    quantized array and the number of components the uniform clamp
    actually changed (always 0 for off/mantissa). As with numpy ufuncs,
    ``out`` receives the result when given and may be ``values`` itself;
    it must be a C-contiguous array of the input's shape and float64 or
    complex128 dtype. Mode "off" without ``out`` returns the input array
    untouched.
    """
    if spec.mode == "off" and out is None:
        return values, 0
    dtype = np.complex128 if np.iscomplexobj(values) else np.float64
    src = np.asarray(values, dtype=dtype, order="C")
    if out is None:
        out = np.empty_like(src)
    elif out.shape != src.shape or out.dtype != dtype or not out.flags.c_contiguous:
        raise ValueError(
            f"out must be a C-contiguous {np.dtype(dtype)} array of shape {src.shape}"
        )
    if spec.mode == "off":
        np.copyto(out, src)
        return out, 0
    return out, _quantize_into(_components(src), spec, _components(out))


def _components(a: np.ndarray) -> np.ndarray:
    """Flat float64 view of a C-contiguous array; complex entries as (re, im) pairs."""
    return a.reshape(-1).view(np.float64)
