"""Full-precision DFT/FFT/IFFT machinery.

Holds the direct-summation DFT used as the golden oracle, the twiddle
table, bit-reversal and the staged decimation-in-time transform.
``DIRECTIONS`` is the one direction vocabulary of the package.

``twiddle_table`` and ``bit_reversal_indices`` are built once per size,
``direction_table`` and ``direction_twiddles`` once per size and
direction, and cached; the arrays they return are shared and read-only,
so a caller that needs a modified table (conjugated, quantized) derives a
new array from it, and an in-place write raises ``ValueError``.

``staged_transform`` is the one stage loop of the package: ``fft_reference``
and ``Pipeline.run`` both run it, the pipeline with its stage quantizers
as the ``after_stage`` hook, so a pipeline with all quantizers disabled is
bit-identical to ``fft_reference`` by construction. Every stage runs in
constant geometry (Pease, JACM 15(2), 1968): it reads a = X[:n/2] and
b = X[n/2:], writes a + W_s*b to Y[0::2] and a - W_s*b to Y[1::2], and
swaps X and Y, three ufunc calls on flat vectors. The input enters in
natural order; before stage s, X[k] = D_s[bitrev_S(k >> s) +
bitrev_s(k mod 2**s)], where D_s is the vector of the in-place transform
(bit-reversed input, butterflies at distance 2**s), S = log2(n) and
bitrev_m reverses m bits, so the output is X_S[bit_reversal_indices(n)].

W_s[k] = w_br[k mod 2**s], with w_br the half table in (S-1)-bit-reversed
order, repeats with period 2**s. ``stage_twiddles`` keeps it tiled to
L_s = max(2**s, min(n/2, ``TILE``)) entries, and a stage with L_s < n/2
multiplies b in rows of L_s. Up to N=2048 every row holds n/2 entries; at
N=65536 the rows take 672 KiB (w_br and ten 16 KiB tiles) where full tiles
would take 8 MiB.
"""

from __future__ import annotations

import functools
import threading

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


# Longest tile of a stage's twiddle row, so a transform holds at most ten
# 16 KiB tiles besides w_br. Up to N=2048 every row is full length; above
# it the stages that multiply b in rows pay numpy's 2-D set-up, a few us a
# call. Against full tiles, Pipeline.run (mantissa ifft / uniform fft) took
# 1.07 / 1.08 the time at N=4096, 1.01 / 1.02 at 16384 and 0.97 / 0.99 at
# 32768 (medians of 15 alternating rounds on one pinned CPU of a 2-vCPU
# Xeon, numpy 2.4.6); at N=65536 full tiles would take 8 MiB.
TILE = 1024


def stage_twiddles(table: np.ndarray) -> tuple[np.ndarray, ...]:
    """Twiddle rows of ``staged_transform`` for the half-circle table ``table``.

    Row s holds the constant-geometry twiddles W_s[k] = w_br[k mod 2**s]
    for k < max(2**s, min(n/2, ``TILE``)), where w_br is ``table``
    (conjugated or ROM-quantized as it is) in (log2(n) - 1)-bit-reversed
    order. A row of one period is a view of w_br, not a copy. Every row is
    read-only.
    """
    half = table.size
    n = 2 * half
    # for m < n/2 the log2(n)-bit reversal of m is even, and half of it
    # is the (log2(n) - 1)-bit reversal
    w_br = table[bit_reversal_indices(n)[:half] >> 1]
    w_br.setflags(write=False)
    length = min(half, TILE)
    rows = []
    for stage in range(num_stages(n)):
        row = w_br[: 1 << stage]
        if row.size < length:
            row = np.tile(row, length >> stage)
            row.setflags(write=False)
        rows.append(row)
    return tuple(rows)


def dit_stage(data: np.ndarray, row: np.ndarray, stage: int, out: np.ndarray) -> tuple[int, int]:
    """Apply stage ``stage`` (0-based) of the constant-geometry flow graph.

    ``row`` is row ``stage`` of ``stage_twiddles``. a = data[:n/2] and
    b = data[n/2:] pair entry by entry, and a + t and a - t (t = W_s*b)
    land in out[0::2] and out[1::2]. A row shorter than n/2 multiplies b
    in rows of its length. The twiddle is the first operand of the
    product, as in the tests' strided kernel: numpy's complex multiply
    can round w*b and b*w differently. All n/2 butterflies of the stage
    are performed.

    Returns
    -------
    (int, int)
        complex multiplies and complex additions actually performed
    """
    half = data.size >> 1
    a = data[:half]
    t = out[1::2]
    if row.size < half:
        np.multiply(row, data[half:].reshape(-1, row.size), out=t.reshape(-1, row.size))
    else:
        # a full row stays 1-D: the two reshapes cost about 1.9 us per call
        # on one CPU of a 2-vCPU Xeon, numpy 2.4.6, near half of an N=1024 stage
        np.multiply(row, data[half:], out=t)
    np.add(a, t, out=out[0::2])
    np.subtract(a, t, out=t)
    return half, 2 * half


# One n-point working vector per thread outlives each ``staged_transform``.
# With two fresh ping-pong buffers per call, glibc trims them back to the
# kernel between calls at N=65536: a one-trial, three-row mantissa sweep
# there took 3,040 page faults instead of 480, about a third of its time.
_spare = threading.local()


def staged_transform(x: np.ndarray, twiddles: tuple, scale: float | None = None, after_stage=None):
    """Run all log2(n) butterfly stages over the natural-order vector ``x``.

    The one stage loop behind ``fft_reference`` and ``Pipeline.run``.
    ``twiddles`` comes from ``stage_twiddles``; ``scale``, when given,
    multiplies every component before stage 0 (an inverse transform's
    1/N); ``x`` is left alone. ``after_stage(stage, data)``, when given,
    runs after each stage's butterflies on the working vector, which it
    may change in place. That vector is in constant-geometry order, so a
    hook that is not componentwise reorders a copy with ``in_place_order``.
    The hook must not keep ``data`` past the call: the buffer the last
    stage writes becomes the thread's spare, and a later transform on the
    same thread writes over it.

    Returns
    -------
    (numpy.ndarray, int, int)
        the natural-order output (a new array), complex multiplies and
        complex additions
    """
    # the spare is taken out of its slot, so a nested call from the hook
    # finds the slot empty and allocates its own
    spare, _spare.vector = getattr(_spare, "vector", None), None
    if spare is None or spare.shape != x.shape or spare.dtype != x.dtype:
        spare = np.empty_like(x)
    # stage s writes buffers[s & 1], so stage 0 may read buffers[1]
    buffers = (spare, np.empty_like(x))
    data = x if scale is None else np.multiply(x, scale, out=buffers[1])
    multiplies = additions = 0
    for stage, row in enumerate(twiddles):
        out = buffers[stage & 1]
        muls, adds = dit_stage(data, row, stage, out)
        multiplies += muls
        additions += adds
        data = out
        if after_stage is not None:
            after_stage(stage, data)
    # gather into the buffer the last stage did not write; mode "clip"
    # writes ``out`` directly, where the default "raise" fills a temporary
    # copy first
    free = buffers[len(twiddles) & 1]
    output = np.take(data, bit_reversal_indices(x.size), out=free, mode="clip")
    _spare.vector = data
    return output, multiplies, additions


def in_place_order(data: np.ndarray, stages_done: int) -> np.ndarray:
    """Copy of ``staged_transform``'s working vector in the in-place order.

    ``data`` is the working vector after ``stages_done`` stages. Entry k of
    it is entry bitrev_S(k >> s) + bitrev_s(k mod 2**s) of the in-place
    vector (s = ``stages_done``, S = log2(n), bitrev_m reverses m bits), so
    it is scattered there.
    """
    n = data.size
    perm = bit_reversal_indices(n)
    k = np.arange(n)
    s = stages_done
    order = np.empty_like(data)
    order[perm[k >> s] + (perm[k & ((1 << s) - 1)] >> (num_stages(n) - s))] = data
    return order


@functools.lru_cache(maxsize=None, typed=True)
def direction_table(n: int, direction: str) -> np.ndarray:
    """Half-circle table of ``direction``: ``twiddle_table(n)``, conjugated for ifft.

    The table a twiddle ROM quantizes. Cached per size and direction; the
    array is shared and read-only.
    """
    table = twiddle_table(n)
    if direction == "ifft":
        table = np.conj(table)
        table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=None, typed=True)
def direction_twiddles(n: int, direction: str) -> tuple[np.ndarray, ...]:
    """``stage_twiddles`` of ``direction_table(n, direction)``.

    The twiddles of ``fft_reference`` and of every pipeline without a
    twiddle ROM. Cached per size and direction; the rows are shared and
    read-only.
    """
    return stage_twiddles(direction_table(n, direction))


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
    scale = 1.0 / n if direction == "ifft" else None
    return staged_transform(vec, direction_twiddles(n, direction), scale)[0]
