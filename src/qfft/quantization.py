"""Static quantizer models and their noise statistics.

Two quantizers: a mid-tread uniform staircase on [-x_max, x_max] and a
floating-point mantissa quantizer that rounds only the normalized
fraction M in [1/2, 1). Rounding is half-to-even in both, which keeps the
empirical error mean near zero. ``SCALE_FREE`` declares once which modes
read no full scale. A ``QuantizerSpec`` names the mode and
carries its closed-form error variance, ``theory_variance``: q^2/12 for
the uniform staircase and q^2/6 for the mantissa relative error, whose
``error`` it measures, and its scale rule: ``scaled(k)`` quantizes data
times 2**k. ``apply_quantizer`` is the one way to quantize, for either
mode: into a new array or, after a pipeline stage, in place.

The uniform kernel looks for saturation with ``argmax``/``argmin`` and
counts only when one of those levels lies past x_max or is NaN. On 2,048
floats (one N=1024 stage) that probe takes 2.0 us against 4.5 us for
``np.maximum.reduce`` plus ``np.minimum.reduce``, most of which is fixed
per-call cost; on 131,072 floats (N=65536) it takes 46.6 against
40.9 us, about 0.1 ms over the 16 stages of a transform, so one probe
serves every size. With it, ``QuantizerSpec.step`` computed once per
spec and no reshape of a 1-D vector, an in-place ``apply_quantizer`` on
2,048 components takes 9.2 us instead of 12.3, and a uniform
``Pipeline.run`` 0.84x the time at N=1024 (168 against 199 us) and 1.00x
at N=65536 (about 8 ms). Medians of 15 alternating rounds in one process
(ratios taken per round), on one pinned CPU of a 2-vCPU Xeon, numpy 2.4.6.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import asdict, dataclass

import numpy as np

MODES = ("uniform", "mantissa")
# the modes that quantize each value relative to its own exponent and read no full scale
SCALE_FREE = frozenset({"mantissa"})
MAX_BITS = 52  # double-precision mantissa width
SQNR_CAP_DB = 300.0
_FLOAT64 = np.dtype(np.float64)
_KERNEL_DTYPES = (_FLOAT64, np.dtype(np.complex128))


@dataclass(frozen=True)
class QuantizerSpec:
    """One working quantizer: mode, bit count and, for uniform mode only, full scale.

    The step follows from the bits: uniform mode quantizes [-x_max, x_max]
    into 2**bits intervals (q = 2 * x_max * 2**-bits), mantissa mode grids
    the normalized fraction with q = 2**-bits and is scale-free, so its
    x_max is None; a uniform step must be a positive normal number. Where
    there is no quantizer (a stage or the twiddle ROM of a
    ``PipelineConfig``), the spec is None. ``bits`` is a Python or numpy
    integer, kept as an ``int``, and ``x_max`` a real number or None, kept as
    a ``float``; neither may be a ``bool``. A ``ValueError`` opens with the
    field it rejects (``bits: ...``), to which a config prefixes its path.
    """

    mode: str
    bits: int
    x_max: float | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode: must be one of {', '.join(MODES)}; got {self.mode!r}")
        if isinstance(self.bits, bool) or not isinstance(self.bits, numbers.Integral):
            raise ValueError(f"bits: expected an integer, got {self.bits!r}")
        # a numpy integer is kept as an int, so equality, hash and ``asdict`` match
        object.__setattr__(self, "bits", int(self.bits))
        if not 1 <= self.bits <= MAX_BITS:
            raise ValueError(f"bits: must be in 1..{MAX_BITS}, got {self.bits}")
        if self.x_max is not None and (isinstance(self.x_max, bool) or not isinstance(self.x_max, numbers.Real)):
            raise ValueError(f"x_max: expected a number or None, got {self.x_max!r}")
        if self.mode in SCALE_FREE:
            if self.x_max is not None:
                raise ValueError(f"x_max: a {self.mode} quantizer is scale-free and reads no full scale; remove it")
        elif self.x_max is None or not self.x_max > 0:
            raise ValueError(f"x_max: a {self.mode} quantizer needs a positive full scale, got {self.x_max}")
        elif not sys.float_info.min <= self.step <= sys.float_info.max:
            raise ValueError(
                f"x_max: full scale {self.x_max!r} at {self.bits} bits gives the step {self.step!r}, "
                "which is not a positive normal number"
            )
        else:  # a numpy or integer full scale is kept as a float, so every header echoes it as one
            object.__setattr__(self, "x_max", float(self.x_max))

    @classmethod
    def named(cls, mode: str, bits: int, x_max=None, automatic: float = 1.0) -> QuantizerSpec:
        """The one rule for a full scale: a given ``x_max`` (a scale-free mode rejects it), else ``automatic`` if read."""
        return cls(mode, bits, automatic if x_max is None and mode not in SCALE_FREE else x_max)

    @functools.cached_property
    def step(self) -> float:
        # computed on first read and kept in the instance ``__dict__``, which
        # equality, hash, repr and ``asdict`` never look at
        if self.mode == "uniform":
            try:
                x_max = float(self.x_max)
            except OverflowError:
                # an integer past the double range: an infinite step, which construction rejects
                x_max = math.inf
            return 2.0 * x_max * 2.0 ** -self.bits
        return 2.0 ** -self.bits

    @property
    def theory_variance(self) -> float:
        """Closed-form error variance: q^2/12 absolute for uniform, q^2/6 relative for mantissa.

        q^2/6 is the mean of (a/M)^2 over a uniform on [-q/2, q/2] and M
        uniform on [1/2, 1): twice the uniform value at equal step. With
        q = m * 2**k, m in [1/2, 1), it is (m * m / 12) * 2**k * 2**k: the
        bits of q * q / 12 wherever that is normal, rounded once where it is
        subnormal, finite wherever q^2/12 is, and inf past the double range.
        """
        m, k = math.frexp(self.step)
        scale = 2.0**k  # a valid step is below 2**1023
        return m * m / (12.0 if self.mode == "uniform" else 6.0) * scale * scale

    def scaled(self, exponent: int) -> QuantizerSpec:
        """The same quantizer for data times 2**exponent: the full scale scaled, or a scale-free spec itself."""
        return self if self.x_max is None else QuantizerSpec(self.mode, self.bits, math.ldexp(self.x_max, exponent))

    def echoed(self) -> dict:
        """The set fields, which a report echoes: mode, bits and, where the mode reads one, x_max."""
        return {k: v for k, v in asdict(self).items() if v is not None}

    def error(self, x, qx):
        """The error whose variance ``theory_variance`` gives: x - qx with a full scale, else relative."""
        return x - qx if self.x_max is not None else relative_error(x, qx)


def _quantize_into(x: np.ndarray, spec: QuantizerSpec, out: np.ndarray) -> int:
    """Quantize the float64 array ``x`` into ``out`` (which may be ``x``).

    Returns the number of components the uniform clamp changed. The one
    quantizer kernel; ``apply_quantizer`` is its only caller.

    Uniform: divide by q, round, multiply by q. A probe checks that the
    levels at ``argmax`` and ``argmin`` lie within +-x_max; only when one
    does not are the magnitudes counted and the levels clipped, so a call
    that does not saturate builds no |level| temporary and the count stays
    exact. A NaN is both the ``argmax`` and the ``argmin`` of an array
    holding one and fails both checks, so such an array takes the count
    and clip too: the NaN is not counted and stays NaN, the levels past
    full scale are counted and clipped.
    Mantissa: the fraction M from ``frexp`` is scaled by 2**bits instead of
    divided by q = 2**-bits, and the exponent of the final ``ldexp`` absorbs
    the multiply by q; scaling by a power of two is exact here, so the bits
    equal those of frexp, /q, rint, *q, ldexp.
    """
    if spec.mode == "uniform":
        q = spec.step
        np.divide(x, q, out=out)
        np.rint(out, out=out)
        np.multiply(out, q, out=out)
        # the probe of the module docstring; ``item`` takes the flat index
        # for any shape, 0-d included
        x_max = spec.x_max
        if not out.size or (out.item(out.argmax()) <= x_max and out.item(out.argmin()) >= -x_max):
            return 0
        saturated = int(np.count_nonzero(np.abs(out) > x_max))
        np.clip(out, -x_max, x_max, out=out)
        return saturated
    exp = np.empty(x.shape, dtype=np.intc)
    np.frexp(x, out=(out, exp))
    np.multiply(out, 2.0**spec.bits, out=out)
    np.rint(out, out=out)
    np.subtract(exp, spec.bits, out=exp)
    np.ldexp(out, exp, out=out)
    return 0


def relative_error(x, qx):
    """Relative quantization error (Q(x) - x) / x; undefined at x = 0."""
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr == 0.0):
        raise ValueError("relative error is undefined at x = 0; skip zero samples")
    out = (np.asarray(qx, dtype=np.float64) - arr) / arr
    return out if arr.ndim else float(out)


def snr_db(signal_variance: float, noise_variance: float) -> float:
    """Signal-to-noise ratio 10*log10(signal_variance / noise_variance) in dB.

    Capped at +-``SQNR_CAP_DB`` so that a perfect match stays numeric: a zero
    noise variance, or a ratio above 10**30, gives +SQNR_CAP_DB, and a ratio
    below 10**-30 (a zero signal variance among them) gives -SQNR_CAP_DB.
    Negative or NaN variances raise ``ValueError``.
    """
    if not signal_variance >= 0:
        raise ValueError(f"signal variance must be nonnegative, got {signal_variance}")
    if not noise_variance >= 0:
        raise ValueError(f"noise variance must be nonnegative, got {noise_variance}")
    if noise_variance == 0.0 or signal_variance / noise_variance > 10.0 ** (SQNR_CAP_DB / 10.0):
        return SQNR_CAP_DB
    if signal_variance / noise_variance < 10.0 ** (-SQNR_CAP_DB / 10.0):
        return -SQNR_CAP_DB
    return 10.0 * math.log10(signal_variance / noise_variance)


def apply_quantizer(values, spec: QuantizerSpec, out=None) -> tuple[np.ndarray, int]:
    """Quantize componentwise with ``spec`` and count saturations.

    Uniform: Q(x) = q * round(x / q) clamped to [-x_max, x_max], ties
    half-to-even, so |x| <= q/2 maps to exactly 0. Inside full scale the
    error is at most q/2 when x_max is a power of two, else
    q/2 + 3 * x_max * 2**-53 (x / q and q * level each round once). A NaN
    stays NaN and leaves the clamp of the other values as it is.
    Mantissa: x = sign * 2**e * M with M in [1/2, 1), and M is rounded
    half-to-even onto the grid of step q; zero and powers of two are fixed.

    Complex values are quantized on real and imaginary parts separately,
    through a float64 view of the interleaved components. Returns the
    quantized array and the number of components the uniform clamp
    actually changed (always 0 for mantissa). ``spec`` is a working
    quantizer; a stage without one does not call this. Two call forms:
    without ``out``, a scalar (giving a 0-d array), list or array gives a
    new float64 or complex128 array; with ``out=values``, a C-contiguous
    float64 or complex128 array is quantized in place, with one component
    view and no copy. Any other ``out`` raises ``ValueError``.
    """
    if out is not None and not (out is values and out.dtype in _KERNEL_DTYPES and out.flags.c_contiguous):
        raise ValueError("out must be the input itself, a C-contiguous float64 or complex128 array")
    if out is None:
        src = np.asarray(values, dtype=np.complex128 if np.iscomplexobj(values) else np.float64, order="C")
        out = np.empty_like(src)
        return out, _quantize_into(_components(src), spec, _components(out))
    components = _components(out)
    return out, _quantize_into(components, spec, components)


def _components(a: np.ndarray) -> np.ndarray:
    """Flat float64 view of a C-contiguous array; complex entries as (re, im) pairs."""
    return (a if a.ndim == 1 else a.reshape(-1)).view(_FLOAT64)
