"""Full-precision DFT/FFT/IFFT machinery.

Holds the direct-summation DFT used as the golden oracle, the twiddle
table, bit-reversal, the radix-2 butterfly and the staged
decimation-in-time transform. The staged kernel here is shared with the
quantized pipeline so that a pipeline with all quantizers disabled is
bit-identical to ``fft_reference``.

``twiddle_table`` and ``bit_reversal_indices`` are built once per size
and cached; the arrays they return are shared and read-only, so a caller
that needs a modified table (conjugated, quantized) derives a new array
from it, and an in-place write raises ``ValueError``.
"""

from __future__ import annotations

import functools

import numpy as np

MIN_SIZE = 2
MAX_SIZE = 1 << 16

DIRECTIONS = ("forward", "inverse")


def validate_size(n: int) -> None:
    """Reject transform sizes that are not a power of two in [2, 2**16]."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"transform size must be an integer, got {n!r}")
    if n < MIN_SIZE or n > MAX_SIZE or n & (n - 1):
        raise ValueError(
            f"transform size must be a power of two in [{MIN_SIZE}, {MAX_SIZE}], got {n}"
        )


def num_stages(n: int) -> int:
    """log2(n): number of butterfly stages for an n-point transform."""
    validate_size(n)
    return n.bit_length() - 1


def as_signal(x) -> np.ndarray:
    """Coerce to a 1-d complex128 vector with a valid power-of-two length."""
    vec = np.asarray(x, dtype=np.complex128)
    if vec.ndim != 1:
        raise ValueError(f"signal must be one-dimensional, got shape {vec.shape}")
    validate_size(vec.size)
    return vec


def dft_naive(x) -> np.ndarray:
    """Direct O(N^2) evaluation of X[k] = sum_n x[n] e^(-2j pi k n / N).

    No recursive decomposition: every output bin is an explicit inner
    product against the complex exponentials. This is the reference the
    fast transform and the pipeline are checked against.

    Parameters
    ----------
    x : array_like
        complex input vector, power-of-two length

    Returns
    -------
    numpy.ndarray
        spectrum of the same length
    """
    vec = as_signal(x)
    n = vec.size
    idx = np.arange(n, dtype=np.int64)  # k*n products exceed 32 bits at large N
    out = np.empty(n, dtype=np.complex128)
    # evaluate in row blocks so the phase matrix stays at O(block * n) memory
    block = max(1, min(n, (1 << 21) // n))
    for start in range(0, n, block):
        k = idx[start:start + block, None]
        phases = np.exp((-2j * np.pi / n) * ((k * idx) % n))
        out[start:start + block] = phases @ vec
    return out


# At most 16 sizes are valid, so the caches below stay small without a bound;
# typed keys keep a float such as 4.0 from hitting the entry of 4 and
# skipping validation.
@functools.lru_cache(maxsize=None, typed=True)
def twiddle_table(n: int) -> np.ndarray:
    """Half-circle twiddle factors w[k] = e^(-2j pi k / n) for k in [0, n/2).

    Each entry is computed from the sine/cosine of its exact rational
    angle at full double precision (no recurrence drift). Cached per size;
    the returned array is shared and read-only.
    """
    validate_size(n)
    ang = (2.0 * np.pi / n) * np.arange(n // 2)
    table = np.cos(ang) - 1j * np.sin(ang)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=None, typed=True)
def bit_reversal_indices(n: int) -> np.ndarray:
    """Permutation p with p[i] = bit-reversal of i over log2(n) bits.

    Built by doubling: the permutation over m+1 bits is the m-bit one
    shifted left, followed by the same with the low bit set. Cached per
    size; the returned ``intp`` array is shared and read-only.
    """
    perm = np.zeros(1, dtype=np.intp)
    for _ in range(num_stages(n)):
        perm = np.concatenate((perm << 1, (perm << 1) | 1))
    perm.setflags(write=False)
    return perm


def bit_reverse_permute(x) -> np.ndarray:
    """Reorder x so entry i comes from the bit-reversed index of i.

    Involution: applying it twice restores the input.
    """
    vec = as_signal(x)
    return vec[bit_reversal_indices(vec.size)]


def butterfly(a: complex, b: complex, w: complex) -> tuple[complex, complex]:
    """Radix-2 butterfly: (a + w*b, a - w*b).

    One complex multiply and two complex additions.
    """
    t = w * b
    return a + t, a - t


def dit_stage(data: np.ndarray, twiddles: np.ndarray, stage: int) -> tuple[int, int]:
    """Apply one stage of the decimation-in-time flow graph in place.

    ``data`` must be in bit-reversed order before stage 0. Stage ``stage``
    (0-based) works on blocks of span 2**(stage+1), pairing entry j with
    entry j + span/2 and multiplying the lower leg by the stage twiddle
    w[j * n / span]. All n/2 butterflies of the stage are performed.

    Returns
    -------
    (int, int)
        complex multiplies and complex additions actually performed
    """
    n = data.size
    span = 2 << stage
    half = span >> 1
    blocks = data.reshape(n // span, span)
    w = twiddles[:: n // span][:half]
    t = w * blocks[:, half:]
    np.subtract(blocks[:, :half], t, out=blocks[:, half:])
    blocks[:, :half] += t
    return t.size, 2 * t.size


def fft_reference(x, direction: str = "forward") -> np.ndarray:
    """Radix-2 DIT transform over log2(N) butterfly stages.

    Forward matches ``dft_naive`` up to floating round-off. Inverse uses
    conjugated twiddles and pre-scales the input by 1/N before the stages,
    so ``fft_reference(fft_reference(x), "inverse")`` recovers x.

    Parameters
    ----------
    x : array_like
        complex input vector, power-of-two length
    direction : str
        "forward" or "inverse"
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    vec = as_signal(x)
    n = vec.size
    table = twiddle_table(n)
    if direction == "inverse":
        vec = vec * (1.0 / n)
        table = np.conj(table)
    data = bit_reverse_permute(vec)
    for stage in range(num_stages(n)):
        dit_stage(data, table, stage)
    return data
