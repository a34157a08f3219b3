"""Full-precision DFT/FFT/IFFT machinery.

Holds the direct-summation DFT used as the golden oracle, the twiddle
table, bit-reversal and the staged decimation-in-time transform.
``DIRECTIONS`` is the one direction vocabulary of the package.

``twiddle_table`` and ``bit_reversal_indices`` are built once per size,
``direction_twiddles`` once per size and direction, and cached; the
arrays they return are shared and read-only, so a caller
that needs a modified table (conjugated, quantized) derives a new array
from it, and an in-place write raises ``ValueError``.

``staged_transform`` is the one stage loop of the package: ``fft_reference``
and ``Pipeline.run`` both run it, the pipeline with its stage quantizers
as the ``after_stage`` hook, so a pipeline with all quantizers disabled is
bit-identical to ``fft_reference`` by construction. Its stages run in one
of two geometries, chosen from the size alone:

- Constant geometry (Pease, JACM 15(2), 1968), for n up to
  ``CONSTANT_GEOMETRY_MAX``. Every stage reads a = X[:n/2] and
  b = X[n/2:], writes a + W_s*b to Y[0::2] and a - W_s*b to Y[1::2], and
  swaps X and Y: three 1-D ufunc calls on flat vectors. The input enters
  in natural order; before stage s, X[k] = D_s[bitrev_S(k >> s) +
  bitrev_s(k mod 2**s)], where D_s is the in-place vector below,
  S = log2(n) and bitrev_m reverses m bits, so the output is
  X_S[bit_reversal_indices(n)]. W_s[k] = w_br[k mod 2**s], with w_br the
  stage's half table in (S-1)-bit-reversed order; ``stage_twiddles``
  tiles all stages into one read-only (S, n/2) array.
- In place, above it. The input is bit-reversed once, and each stage
  pairs the two halves of its blocks in the (blocks, span) view of one
  vector. A stage of short blocks (span 2 to 16) with at least 64 blocks
  per butterfly column runs column by column, the other stages broadcast
  a contiguous copy of their twiddles over the rows.

Every path computes the same t = w*b, a + t and a - t on the same
operands, so the output bits do not depend on the path taken. Constant
geometry over in place, medians of 15 alternating pairs on one pinned CPU
of a 2-vCPU Xeon (4 MiB L2), numpy 2.4.6: ``Pipeline.run`` (mantissa ifft /
uniform fft) 0.77 / 0.78 at N=256, 0.76 / 0.78 at 1024, 0.77 / 0.79 at
8192, 0.87 / 0.83 at 16384, 0.96 / 0.92 at 32768 and 1.01 / 1.00 at
65536; ``fft_reference`` 0.54, 0.55, 0.57, 0.62, 0.76 and 0.97. At N=65536
the tiles would take 8 MiB for no gain, so that size stays in place.
"""

from __future__ import annotations

import functools

import numpy as np

MIN_SIZE = 2
MAX_SIZE = 1 << 16

DIRECTIONS = ("fft", "ifft")


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


# Transforms of at most CONSTANT_GEOMETRY_MAX points run in constant
# geometry, larger ones in place; see the module docstring for the timings.
CONSTANT_GEOMETRY_MAX = 1 << 15

# An in-place stage with half-span below COLUMN_MAX_HALF and at least
# COLUMN_ROWS_PER_HALF blocks per half-span column runs column by column:
# one long strided ufunc call per column instead of broadcasting over many
# short rows. Only N=65536 runs in place; there stages 0-3 take the column
# path. Per stage on one pinned CPU, broadcast -> column: stage 0 128 ->
# 123 us, stage 1 944 -> 172, stage 2 653 -> 221, stage 3 465 -> 263; at
# stage 5 (half-span 32) the column loop loses, 440 vs 368 us.
COLUMN_MAX_HALF = 16
COLUMN_ROWS_PER_HALF = 64


def stage_twiddles(table: np.ndarray) -> np.ndarray:
    """Twiddle operand of ``staged_transform`` for the half-circle table ``table``.

    Above the crossover that is ``table`` itself. At or below it, row s of
    a read-only (stages, n/2) array holds the constant-geometry twiddles
    W_s[k] = w_br[k mod 2**s], where w_br is ``table`` (conjugated or
    ROM-quantized as it is) in (log2(n) - 1)-bit-reversed order.
    """
    half = table.size
    n = 2 * half
    if n > CONSTANT_GEOMETRY_MAX:
        return table
    # for m < n/2 the log2(n)-bit reversal of m is even, and half of it
    # is the (log2(n) - 1)-bit reversal
    w_br = table[bit_reversal_indices(n)[:half] >> 1]
    masks = (1 << np.arange(num_stages(n)))[:, None] - 1
    tiles = w_br[np.arange(half) & masks]
    tiles.setflags(write=False)
    return tiles


def dit_stage(
    data: np.ndarray, twiddles: np.ndarray, stage: int, out: np.ndarray | None = None
) -> tuple[int, int]:
    """Apply one stage of the decimation-in-time flow graph.

    Without ``out`` the stage runs in place on ``data``, which must be in
    bit-reversed order before stage 0, and ``twiddles`` is the half-circle
    table. Stage ``stage`` (0-based) works on blocks of span 2**(stage+1),
    pairing entry j with entry j + span/2 and multiplying the lower leg by
    the stage twiddle w[j * n / span]. A stage of many short blocks
    (half-span below ``COLUMN_MAX_HALF``, at least
    ``COLUMN_ROWS_PER_HALF * half`` blocks) loops over the half-span
    columns of the (blocks, span) view, one long strided call per column
    with its twiddle as a scalar. Other stages copy their 2**stage
    twiddles from the table into a contiguous vector (the last stage's
    slice already is one) and broadcast it over the rows.

    With ``out`` the stage runs in constant geometry: ``twiddles`` is the
    (stages, n/2) array from ``stage_twiddles``, a = data[:n/2] and
    b = data[n/2:] pair entry by entry, and a + t and a - t (t = W_s*b)
    land in out[0::2] and out[1::2]. Every path computes the same t = w*b,
    a + t and a - t on the same operands, so the bits do not depend on it.
    All n/2 butterflies of the stage are performed.

    Returns
    -------
    (int, int)
        complex multiplies and complex additions actually performed
    """
    n = data.size
    if out is not None:
        a = data[: n >> 1]
        t = np.multiply(twiddles[stage], data[n >> 1 :], out=out[1::2])
        np.add(a, t, out=out[0::2])
        np.subtract(a, t, out=t)
        return n // 2, n
    span = 2 << stage
    half = span >> 1
    rows = n // span
    w = twiddles[: rows * half : rows]
    blocks = data.reshape(rows, span)
    if half < COLUMN_MAX_HALF and rows >= COLUMN_ROWS_PER_HALF * half:
        columns = blocks.T
        for j in range(half):
            top, bottom = columns[j], columns[j + half]
            t = w[j] * bottom
            np.subtract(top, t, out=bottom)
            top += t
        return n // 2, n
    if rows > 1:
        w = w.copy()
    top, bottom = blocks[:, :half], blocks[:, half:]
    t = w * bottom
    np.subtract(top, t, out=bottom)
    top += t
    return n // 2, n


def staged_transform(x: np.ndarray, twiddles: np.ndarray, scale: float | None = None, after_stage=None):
    """Run all log2(n) butterfly stages over the natural-order vector ``x``.

    The one stage loop behind ``fft_reference`` and ``Pipeline.run``.
    ``twiddles`` comes from ``stage_twiddles``; ``scale``, when given,
    multiplies every component before stage 0 (an inverse transform's
    1/N); ``x`` is left alone. ``after_stage(stage, data)``, when given,
    runs after each stage's butterflies on the working vector, which it
    may change in place. The vector's order follows the geometry, so a
    hook that is not componentwise reorders a copy with ``in_place_order``.

    Returns
    -------
    (numpy.ndarray, int, int)
        the natural-order output, complex multiplies and complex additions
    """
    n = x.size
    constant = n <= CONSTANT_GEOMETRY_MAX
    if constant:
        # stage s writes buffers[s & 1], so stage 0 may read buffers[1]
        buffers = (np.empty_like(x), np.empty_like(x))
        data = x if scale is None else np.multiply(x, scale, out=buffers[1])
    else:
        buffers = (None, None)
        data = x[bit_reversal_indices(n)]
        if scale is not None:
            data *= scale
    multiplies = additions = 0
    for stage in range(num_stages(n)):
        out = buffers[stage & 1]
        muls, adds = dit_stage(data, twiddles, stage, out=out)
        multiplies += muls
        additions += adds
        if out is not None:
            data = out
        if after_stage is not None:
            after_stage(stage, data)
    if constant:
        data = data[bit_reversal_indices(n)]
    return data, multiplies, additions


def in_place_order(data: np.ndarray, stages_done: int) -> np.ndarray:
    """Copy of ``staged_transform``'s working vector in the in-place order.

    ``data`` is the working vector after ``stages_done`` stages. In
    constant geometry, entry k of it is entry
    bitrev_S(k >> s) + bitrev_s(k mod 2**s) of the in-place vector
    (s = ``stages_done``, S = log2(n), bitrev_m reverses m bits), so it is
    scattered there; in place it is copied.
    """
    n = data.size
    if n > CONSTANT_GEOMETRY_MAX:
        return data.copy()
    perm = bit_reversal_indices(n)
    k = np.arange(n)
    s = stages_done
    order = np.empty_like(data)
    order[perm[k >> s] + (perm[k & ((1 << s) - 1)] >> (num_stages(n) - s))] = data
    return order


@functools.lru_cache(maxsize=None, typed=True)
def direction_twiddles(n: int, direction: str) -> tuple[np.ndarray, np.ndarray]:
    """Half-circle table of ``direction`` (conjugated for ifft) and its ``stage_twiddles``.

    The twiddles of ``fft_reference`` and of every pipeline without a
    twiddle ROM. Cached per size and direction; both arrays are shared and
    read-only.
    """
    table = twiddle_table(n)
    if direction == "ifft":
        table = np.conj(table)
        table.setflags(write=False)
    return table, stage_twiddles(table)


def fft_reference(x, direction: str = "fft") -> np.ndarray:
    """Radix-2 DIT transform over log2(N) butterfly stages.

    Forward matches ``dft_naive`` up to floating round-off. Inverse uses
    conjugated twiddles and pre-scales the input by 1/N before the stages,
    so ``fft_reference(fft_reference(x), "ifft")`` recovers x.

    Parameters
    ----------
    x : array_like
        complex input vector, power-of-two length
    direction : str
        "fft" or "ifft"
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    vec = as_signal(x)
    n = vec.size
    if direction == "ifft":
        # a fresh scaled vector rather than ``scale``: on sweep-64k that
        # measured 1-2 ms per op faster, from fewer page faults in the
        # large allocations that follow
        vec = vec * (1.0 / n)
    return staged_transform(vec, direction_twiddles(n, direction)[1])[0]
