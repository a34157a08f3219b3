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

The uniform kernel probes for saturation only where it cannot rule it
out (Welch, IEEE Trans. AU-17, 1969, bounds a statically scaled FFT's
growth the same way). Its in-place form takes a bound B on every
|component| before rounding. A level is q * rint(x / q) and x_max is
q * 2**(bits - 1) exactly, so while B + q/2 <= x_max no level can pass
x_max; the kernel then skips the probe and returns B + q/2, widened by
``BOUND_SLACK``, as the bound after it. Elsewhere it probes: it looks at
the levels at ``argmax`` and ``argmin`` and counts and clips only when one
of them lies past x_max or is NaN, and the next bound is the probe's
exact max |level|, or x_max once it clipped. A NaN or infinite bound
never proves headroom. On 2,048 floats (one N=1024 stage) the probe takes
2.0 us against 4.5 us for ``np.maximum.reduce`` plus
``np.minimum.reduce``. ``core.staged_transform`` carries the bound from
the input through every stage, so the default sweep ladder (N=1024,
b=6..14, random input, no twiddle ROM) probes 2 of its 10 stages and the
fft-cli ladder (N=65536 with a 10-bit ROM) 3 of 16; a bin-centred
sinusoid, whose growth is coherent, still probes every stage. A uniform
``Pipeline.run`` on that sweep ladder at b=10 takes 0.86x the time it
took when every stage probed (85.7 against 100.0 us, the input check
included): the median of 12 alternating processes, each the best of 9
timeit rounds, on one pinned CPU of a 2-vCPU Xeon, numpy 2.4.6.

Most of what is left at N=1024 is fixed per-call cost, so the stage loop
pays only for what computes. It builds each working vector's float64
component view once per run and hands that 1-D view to
``apply_quantizer``, whose in-place entry takes it as it is, with no
dtype scan and no view. The uniform kernel divides and multiplies by the
step as a 0-d float64 array cached on the spec, which numpy takes about
0.14 us faster per ufunc call than a Python float, and every kernel
ufunc takes ``out`` by position, which numpy parses faster than a
keyword. Ten such calls, one N=1024 ladder's, take 46.5 us instead of
54.8, and a uniform ``Pipeline.run`` at N=1024 takes 0.91x the time (93.5
against 103.2 us). Medians of 5 alternating processes, each the best of
9 timeit rounds, on the same CPU and numpy.

The mantissa kernel rounds with Veltkamp's split (Dekker, Numer. Math.
18, 1971) wherever it may. With sigma = 2**(53 - bits) + 1, g = sigma * x
and then g - (g - x) is x rounded half-to-even to ``bits`` significant
bits: the bytes of the frexp formula, subnormals, zeros of both signs,
ties and NaN included, as long as sigma * x is finite and each float64
multiply and subtract is rounded on its own (``qfft selftest`` checks
both on the running build). That is three ufunc passes and no
temporary, where the formula takes five and an int32 exponent array
(512 KiB at N=65536); the passes go a ``SPLIT_BLOCK`` at a time, which
keeps each block of x and g in cache between them. The in-place form
splits where it is given a ``scratch`` vector for g, which the stage
loop takes from its idle working vector, and its bound proves sigma * x
finite; the fresh-array form, and an in-place call without scratch or
whose bound proves nothing, run the formula, which stays the oracle the
split is tested against. The carried bound proves the split on all 48
mantissa stage calls of a sweep-64k op (N=65536, ifft, b=10..12), whose
``op_ms_p50`` took 0.86x the time it took with the formula (18.02
against 21.06 ms, the medians of ten alternating 25 s pairs, faster in
all ten; one pinned CPU of a 2-vCPU Xeon, numpy 2.4.6).
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
# A magnitude bound computed in floating point is widened by this factor, and
# where it may be subnormal by this floor, at each product and sum, so that it
# stays above the exact bound of the arithmetic it follows: a rounding moves a
# normal result by at most 2**-53 of it and a subnormal one by at most 2**-1075,
# and a stage rounds a handful of times.
BOUND_SLACK = 1.0 + 2.0**-40
BOUND_FLOOR = 2.0**-1070
# The mantissa split makes its three passes a block of this many components at
# a time, so that a block of x and of g (512 KiB each) stays in a core's 2 MiB
# L2 cache between them, where a whole N=65536 vector and its g fill it. On one
# CPU of a 2-vCPU Xeon, numpy 2.4.6, sweep-64k's op_ms_p50 took 0.94x the time
# of whole-vector passes (6 of 6 8 s pairs); blocks of 2**13 to 2**15 did no better.
SPLIT_BLOCK = 1 << 16


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

    @functools.cached_property
    def _step_operand(self) -> np.ndarray:
        # the step as the uniform kernel's ufunc operand: a read-only 0-d float64
        # array, which numpy takes without converting a Python float on every call
        return _operand(self.step)

    @functools.cached_property
    def _split_operand(self) -> np.ndarray:
        # Veltkamp's splitter 2**(53 - bits) + 1, the mantissa kernel's operand in the same form
        return _operand(2.0 ** (53 - self.bits) + 1.0)

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


def _operand(value: float) -> np.ndarray:
    operand = np.array(value)
    operand.flags.writeable = False
    return operand


def _quantize_in_place(x: np.ndarray, spec: QuantizerSpec, bound: float, scratch=None) -> tuple[int, float]:
    """Quantize in place the float64 vector ``x``, whose every |component| but a NaN is at most ``bound``.

    Returns the number of components the uniform clamp changed and such a
    bound on the quantized vector. The one quantizer kernel;
    ``apply_quantizer`` is its only caller.

    Uniform: divide by q, round, multiply by q. Where the headroom test of
    the module docstring fails, ``_saturation_probe`` counts and clips. It
    reads no ``scratch``.
    Mantissa, where ``scratch`` is given and ``bound`` proves sigma * x
    finite (bound * sigma * ``BOUND_SLACK`` <= the largest double), the
    split of the module docstring: g = sigma * x into ``scratch``, then
    x = g - (g - x), three ufunc calls a ``SPLIT_BLOCK`` of components at
    a time and no temporary. Elsewhere the frexp formula: the fraction M
    from ``frexp`` is scaled by 2**bits instead of divided by q = 2**-bits,
    and the exponent of the final ``ldexp`` absorbs the multiply by q;
    scaling by a power of two is exact here, so the bits equal those of
    frexp, /q, rint, *q, ldexp. Both give the same bits. A rounded fraction
    is at most |M| (1 + 2**-bits), as |M| >= 1/2, and a subnormal result
    rounds once more.
    """
    if spec.mode == "uniform":
        q = spec._step_operand
        np.divide(x, q, x)
        np.rint(x, x)
        np.multiply(x, q, x)
        # a NaN or infinite bound fails this test, so such data is always probed
        reach = (bound + 0.5 * spec.step) * BOUND_SLACK
        if reach <= spec.x_max:
            return 0, reach
        return _saturation_probe(x, spec.x_max)
    next_bound = bound * (1.0 + 2.0**-spec.bits) * BOUND_SLACK + BOUND_FLOOR
    if scratch is not None:
        splitter = spec._split_operand
        if scratch.dtype is not _FLOAT64 or scratch.shape != x.shape or np.may_share_memory(scratch, x):
            raise ValueError("scratch must be a float64 vector of the input's shape that shares no memory with it")
        # a NaN or infinite bound fails this test, as does one past which sigma * x may overflow
        if bound * splitter.item() * BOUND_SLACK <= sys.float_info.max:
            for start in range(0, x.size, SPLIT_BLOCK):
                part, g = x[start : start + SPLIT_BLOCK], scratch[start : start + SPLIT_BLOCK]
                np.multiply(part, splitter, g)
                np.subtract(g, part, part)
                np.subtract(g, part, part)
            return 0, next_bound
    exp = np.empty(x.shape, dtype=np.intc)
    np.frexp(x, x, exp)
    np.multiply(x, 2.0**spec.bits, x)
    np.rint(x, x)
    np.subtract(exp, spec.bits, exp)
    np.ldexp(x, exp, x)
    return 0, next_bound


def _saturation_probe(x: np.ndarray, x_max: float) -> tuple[int, float]:
    """Count the levels of ``x`` past +-x_max and clip them; return the count and a bound on |level| after.

    The levels at ``argmax`` and ``argmin`` are checked first, so a vector
    that does not saturate builds no |level| temporary, and its bound is
    their exact max |level|; any other vector is bounded by x_max once
    clipped. A NaN is both the ``argmax`` and the ``argmin`` of a vector
    holding one and fails both checks, so such a vector is counted and
    clipped too: the NaN is not counted and stays NaN.
    """
    if not x.size:
        return 0, 0.0
    hi, lo = x.item(x.argmax()), x.item(x.argmin())
    if hi <= x_max and lo >= -x_max:
        return 0, max(hi, -lo)
    saturated = int(np.count_nonzero(np.abs(x) > x_max))
    np.clip(x, -x_max, x_max, out=x)
    return saturated, x_max


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


def apply_quantizer(values, spec: QuantizerSpec, out=None, bound: float = math.inf, scratch=None) -> tuple:
    """Quantize componentwise with ``spec`` and count saturations.

    Uniform: Q(x) = q * round(x / q) clamped to [-x_max, x_max], ties
    half-to-even, so |x| <= q/2 maps to exactly 0. Inside full scale the
    error is at most q/2 when x_max is a power of two, else
    q/2 + 3 * x_max * 2**-53 (x / q and q * level each round once). A NaN
    stays NaN and leaves the clamp of the other values as it is.
    Mantissa: x = sign * 2**e * M with M in [1/2, 1), and M is rounded
    half-to-even onto the grid of step q; zero and powers of two are fixed.

    Complex values are quantized on real and imaginary parts separately,
    through a float64 view of the interleaved components. The saturations
    are the components the uniform clamp actually changed (always 0 for
    mantissa). ``spec`` is a working quantizer; a stage without one does
    not call this. Two call forms:

    - without ``out``, a scalar (giving a 0-d array), list or array gives a
      new float64 or complex128 array, returned with the saturations. This
      form reads no ``bound`` and always probes for saturation;
    - with ``out=values``, a 1-D C-contiguous float64 vector, such as
      ``complex_vector.view(np.float64)`` that the stage loop builds once
      per run, is quantized in place as it is, and the call returns
      ``(out, saturations, next_bound)``. Precondition: ``bound`` holds,
      that is, every |component| of ``values`` that is not NaN is at most
      it (the default, infinity, always holds). Where it proves that no
      uniform level can pass x_max, the saturation probe is skipped, and
      the count and bytes are right only because the bound holds.
      ``next_bound`` holds for the quantized vector in the same sense:
      where the uniform probe ran, the exact max |level|, or x_max if it
      clipped; else ``bound`` plus q/2 for uniform, or times 1 + 2**-bits
      for mantissa, widened by ``BOUND_SLACK`` and ``BOUND_FLOOR``.
      ``scratch``, when given, is a float64 vector of ``values``' shape
      that shares no memory with it (else ``ValueError``), such as the
      stage loop's idle working vector; its contents are never read, and
      a mantissa spec may overwrite them. Where it is given and ``bound``
      proves sigma * x finite for sigma = 2**(53 - bits) + 1, a mantissa
      spec rounds with Veltkamp's split through it. Without it, or with a
      bound that proves nothing (infinity, NaN, or one times sigma past the
      double range), the frexp formula runs, which gives the same bits.
      A uniform spec reads no scratch.

    Any other ``out`` raises ``ValueError``.
    """
    if out is None:
        out = np.array(values, dtype=np.complex128 if np.iscomplexobj(values) else np.float64, order="C")
        return out, _quantize_in_place(out.reshape(-1).view(_FLOAT64), spec, math.inf)[0]
    if not (out is values and out.dtype is _FLOAT64 and out.ndim == 1 and out.flags.c_contiguous):
        raise ValueError("out must be the input itself, a 1-D C-contiguous float64 vector")
    saturated, bound = _quantize_in_place(out, spec, bound, scratch)
    return out, saturated, bound
