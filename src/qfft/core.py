"""Full-precision DFT/FFT/IFFT machinery.

Holds the direct-summation DFT used as the golden oracle, the twiddle
table, bit-reversal and the staged decimation-in-time transform.
``DIRECTIONS`` is the one direction vocabulary of the package, and
``validate_direction`` its one check.

``twiddle_table`` returns a new, writable half table on every call, which
a caller may quantize in place (a twiddle ROM); the ``direction_twiddles``
rows, built once per size and direction, are the one cached twiddle
artifact, and ``bit_reversal_indices`` is built once per size. The cached
arrays are shared and read-only: an in-place write raises ``ValueError``.
Both table builds allocate little beside the array they return, so a
fresh process at N=65536 peaks near its working set.

``staged_transform`` is the one stage loop of the package: ``fft_reference``
and ``Pipeline.run`` both run it, the pipeline with one quantizer spec (or
None) per stage, so a pipeline with all quantizers disabled is
bit-identical to ``fft_reference`` by construction. Every stage runs in
constant geometry (Pease, JACM 15(2), 1968): it reads a = X[:n/2] and
b = X[n/2:], writes a + W_s*b to Y[0::2] and a - W_s*b to Y[1::2], and
swaps X and Y, three ufunc calls on flat vectors. The input enters in
natural order; before stage s, X[k] = D_s[bitrev_S(k >> s) +
bitrev_s(k mod 2**s)], where D_s is the vector of the in-place transform
(bit-reversed input, butterflies at distance 2**s), S = log2(n) and
bitrev_m reverses m bits, so the output is X_S[bit_reversal_indices(n)].
A run takes two such working vectors and keeps one as the thread's spare for
the next; a consumed run (``overwrite_x``) works in its input instead, so it
allocates at most one and keeps no spare.

W_s[k] = w_br[k mod 2**s], with w_br the half table in (S-1)-bit-reversed
order, repeats with period 2**s. ``stage_twiddles`` keeps it tiled to
L_s = max(2**s, min(n/2, ``TILE``)) entries, and a stage with L_s < n/2
multiplies b in rows of L_s. Up to N=2048 every row holds n/2 entries; at
N=65536 the rows take 672 KiB (w_br and ten 16 KiB tiles) where full tiles
would take 8 MiB.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from . import quantization

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


def validate_direction(direction: str) -> None:
    """Reject a direction outside ``DIRECTIONS``: the one direction error of the package."""
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")


def num_stages(n: int) -> int:
    """log2(n): number of butterfly stages for an n-point transform."""
    validate_size(n)
    return int(n).bit_length() - 1


def prescale_exponent(n: int, direction: str) -> int:
    """The k of the 2**k that ``staged_transform`` scales an n-point input by: -log2(n) for "ifft", 0 for "fft"."""
    validate_direction(direction)
    return -num_stages(n) if direction == "ifft" else 0


def as_signal(x) -> np.ndarray:
    """Coerce to a 1-d C-contiguous complex128 vector with a valid power-of-two length.

    A vector that already is one comes back as itself; any other input, a
    strided view included, comes back as a new array.
    """
    vec = np.asarray(x, dtype=np.complex128)
    if vec.ndim != 1:
        raise ValueError(f"signal must be one-dimensional, got shape {vec.shape}")
    validate_size(vec.size)
    return np.ascontiguousarray(vec)


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


def twiddle_table(n: int) -> np.ndarray:
    """Half-circle twiddle factors w[k] = e^(-2j pi k / n) for k in [0, n/2).

    Each entry is computed from the sine/cosine of its exact rational
    angle at full double precision (no recurrence drift). Not cached: each
    call returns a new, writable array, which no run keeps once its stage
    rows are built.
    """
    validate_size(n)
    ang = (2.0 * np.pi / n) * np.arange(n // 2)
    table = np.empty(n // 2, dtype=np.complex128)
    # cos and sin run on contiguous float64 arrays, whose bits no strided
    # SIMD path can change; 0.0 - sin keeps the +0.0 at k=0 that
    # cos - 1j*sin gives, where a negation would give -0.0
    table.real = np.cos(ang)
    table.imag = np.sin(ang)
    np.subtract(0.0, table.imag, out=table.imag)
    return table


# At most 16 sizes are valid, so the caches below stay small without a bound;
# typed keys keep a float such as 4.0 from hitting the entry of 4 and
# skipping validation.
@functools.lru_cache(maxsize=None, typed=True)
def bit_reversal_indices(n: int) -> np.ndarray:
    """Permutation p with p[i] = bit-reversal of i over log2(n) bits.

    Built by doubling inside the result: the permutation of 2m entries is
    the one of m entries shifted left, followed by the same with the low
    bit set, so p[m:2m] = (p[:m] << 1) | 1, then p[:m] <<= 1. Cached per
    size; the returned ``intp`` array is shared and read-only, an array over
    a read-only ``memoryview`` of the table, so neither a write through its
    ``base`` nor a writeable flag set back reaches the table. Only the
    output gather of ``staged_transform`` reads the writable table itself,
    as that memoryview's ``obj``.
    """
    stages = num_stages(n)
    perm = np.zeros(n, dtype=np.intp)
    for s in range(stages):
        head, tail = perm[: 1 << s], perm[1 << s : 2 << s]
        np.left_shift(head, 1, out=tail)
        tail |= 1
        head <<= 1
    return np.frombuffer(memoryview(perm).toreadonly(), dtype=np.intp)


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


def stage_twiddles(table: np.ndarray, direction: str) -> tuple[np.ndarray, ...]:
    """Twiddle rows of ``staged_transform`` in ``direction``; the one place a twiddle is conjugated.

    ``table`` is the forward half table ``twiddle_table(n)``, or one that
    a twiddle ROM quantized in place; it is read, not kept. Row s holds
    W_s[k] = w_br[k mod 2**s] for k < max(2**s, min(n/2, ``TILE``)), where
    w_br is ``table`` in (log2(n) - 1)-bit-reversed order, conjugated for
    ifft: an inverse reads the forward ROM conjugated, which every
    quantizer (odd, keeping -0.0) commutes with. A row of one period is a
    view of w_br, not a copy. Every row is read-only.
    """
    validate_direction(direction)
    half = table.size
    n = 2 * half
    # for m < n/2 the log2(n)-bit reversal of m is even, and half of it
    # is the (log2(n) - 1)-bit reversal
    w_br = table[bit_reversal_indices(n)[:half] >> 1]
    if direction == "ifft":
        np.conj(w_br, out=w_br)
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


def stage_growth(rows: tuple[np.ndarray, ...]) -> tuple[float, ...]:
    """Per stage of the ``stage_twiddles`` rows ``rows``, a factor no component's magnitude grows by.

    A butterfly output a +- W*b has components of magnitude at most
    B + |W| |b| <= B (1 + sqrt(2) |W|) when every component of a and b is at
    most B (Welch, IEEE Trans. AU-17, 1969). Stage s's factor is
    1 + sqrt(2) max|W_s| over its own row, so a twiddle ROM with |W_q| > 1
    grows its bound more, times ``quantization.BOUND_SLACK`` for the
    stage's roundings. Row s repeats w_br[:2**s] and the last row is w_br
    itself, so row s's maximum is row s - 1's or that of the entries
    w_br[2**(s-1):2**s] it adds. They are read a tile at a time and
    squared from their parts, within the slack: a temporary of |w_br|
    and the first complex ``np.abs`` each raised the sweep-64k peak RSS
    by 0.1 to 0.3 MB.
    """
    w_br = rows[-1]
    growth, peak = [], 0.0  # the largest |w|**2 so far
    for stage in range(len(rows)):
        end = 1 << stage
        for start in range(end >> 1, end, TILE):
            block = w_br[start : min(end, start + TILE)]
            peak = max(peak, float((block.real * block.real + block.imag * block.imag).max()))
        growth.append((1.0 + math.sqrt(2.0 * peak)) * quantization.BOUND_SLACK)
    return tuple(growth)


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
    # ``out`` goes by position, which numpy parses faster than a keyword
    if row.size < half:
        np.multiply(row, data[half:].reshape(-1, row.size), t.reshape(-1, row.size))
    else:
        # a full row stays 1-D: the two reshapes cost about 1.9 us per call
        # on one CPU of a 2-vCPU Xeon, numpy 2.4.6, near half of an N=1024 stage
        np.multiply(row, data[half:], t)
    np.add(a, t, out[0::2])
    np.subtract(a, t, t)
    return half, 2 * half


# One n-point working vector per thread outlives each ``staged_transform``
# that leaves its input alone. With two fresh ping-pong buffers per call,
# glibc trims them back to the kernel between calls at N=65536: a one-trial,
# three-row mantissa sweep there took 3,040 page faults instead of 480, about
# a third of its time.
_spare = threading.local()


def staged_transform(
    x: np.ndarray,
    twiddles: tuple,
    direction: str = "fft",
    quantizers=(),
    after_stage=None,
    overwrite_x: bool = False,
    bound: float = math.inf,
    growth=(),
):
    """Run all log2(n) butterfly stages over the natural-order vector ``x``.

    The one stage loop behind ``fft_reference`` and ``Pipeline.run``.
    ``twiddles`` comes from ``stage_twiddles`` in ``direction``, a name in
    ``DIRECTIONS`` (else ``ValueError``), and an "ifft" multiplies every
    component by 1/N (2**``prescale_exponent``) before stage 0, the one
    place that pre-scale is taken.
    ``quantizers`` is empty or holds one ``QuantizerSpec`` or None per
    stage; a spec quantizes every component of its stage's output in place,
    through the float64 view of the working vector that the run builds
    once, and the loop sums their saturations. The quantizer is
    componentwise, so the working vector's order does not change its bits.

    ``bound`` is an upper bound on every |component| of ``x``, and
    ``growth`` is empty or ``stage_growth(twiddles)``. The loop carries the
    bound through the stages: pre-scaled with ``x``, times stage s's growth
    (plus ``quantization.BOUND_FLOOR``) after its butterflies, then as each
    quantizer returns it. A uniform quantizer skips its saturation probe
    where the bound proves that no level reaches past x_max, so the
    output bytes and saturations do not depend on ``bound`` as long as it
    holds; a bound that does not hold can hide a saturation. The default,
    infinity, or an empty ``growth`` probes every uniform stage.

    ``x`` is a complex128 vector, such as ``as_signal`` returns; any other
    dtype raises ``ValueError`` before the run takes the thread's spare.
    ``x`` is left alone, and the run takes two working vectors: the
    thread's spare, if it has one of x's shape, and a fresh one.
    The buffer the last stage writes becomes the thread's spare. With
    ``overwrite_x`` and a C-contiguous, writable ``x``, the run
    consumes ``x`` instead: it is the second working vector (an "ifft"
    pre-scales it in place), its contents afterwards are undefined, the
    output may be ``x`` itself, and the run keeps no spare, so it allocates
    at most one vector and holds none once it returns. Any other ``x`` is
    left alone as without ``overwrite_x``. The output bytes, saturations
    and ``after_stage`` views are the same either way.

    ``after_stage(stage, data)``, when given, runs after each stage's
    quantizer (or butterflies, if it has none), in stage order. ``data``
    is a read-only view of the working vector in constant-geometry order.
    The hook must not keep it past the call: a later stage overwrites it,
    and so may a later transform on the same thread.

    Returns
    -------
    (numpy.ndarray, int, int, int)
        the natural-order output, saturations, complex multiplies and
        complex additions
    """
    exponent = prescale_exponent(x.size, direction)
    if x.dtype != np.complex128:
        raise ValueError(f"x must be a complex128 vector, got dtype {x.dtype}")
    consumed = overwrite_x and x.flags.c_contiguous and x.flags.writeable
    # the spare is taken out of its slot, so a nested call from the hook
    # finds the slot empty and allocates its own
    spare, _spare.vector = getattr(_spare, "vector", None), None
    if spare is None or spare.shape != x.shape:
        spare = np.empty_like(x)
    # stage s writes buffers[s & 1], so stage 0 may read buffers[1]
    buffers = (spare, x if consumed else np.empty_like(x))
    # each buffer's float64 components, which a stage quantizer rounds in place, viewed once per run
    parts = (spare.view(np.float64), buffers[1].view(np.float64))
    data = np.multiply(x, 2.0**exponent, buffers[1]) if exponent else x
    # rounding is monotone, so |x| * 2**k rounds to at most the bound's image
    bound = math.ldexp(bound, exponent)
    floor = quantization.BOUND_FLOOR
    stages = len(twiddles)
    saturations = multiplies = additions = 0
    for stage, (row, spec, factor) in enumerate(
        zip(twiddles, quantizers or (None,) * stages, growth or (math.inf,) * stages, strict=True)
    ):
        out = buffers[stage & 1]
        muls, adds = dit_stage(data, row, stage, out)
        multiplies += muls
        additions += adds
        data = out
        bound = bound * factor + floor
        if spec is not None:
            # looked up on the module at each call, so a wrapper installed there sees it;
            # out and bound go by position, which a call parses faster than keywords
            part = parts[stage & 1]
            _, saturated, bound = quantization.apply_quantizer(part, spec, part, bound)
            saturations += saturated
        if after_stage is not None:
            view = data.view()
            view.flags.writeable = False
            after_stage(stage, view)
    # gather into the buffer the last stage did not write; mode "clip"
    # writes ``out`` directly, where the default "raise" fills a temporary
    # copy first. take also copies a read-only index on every call, so
    # the gather reads the writable table behind the cached permutation
    free = buffers[stages & 1]
    output = data.take(bit_reversal_indices(x.size).base.obj, 0, free, "clip")
    if not consumed:
        _spare.vector = data
    return output, saturations, multiplies, additions


@functools.lru_cache(maxsize=None, typed=True)
def direction_twiddles(n: int, direction: str) -> tuple[np.ndarray, ...]:
    """``stage_twiddles(twiddle_table(n), direction)``.

    The twiddles of ``fft_reference`` and of every pipeline without a
    twiddle ROM, and the one cached twiddle artifact: cached per size and
    direction, the rows are shared and read-only.
    """
    return stage_twiddles(twiddle_table(n), direction)


@functools.lru_cache(maxsize=None, typed=True)
def direction_growth(n: int, direction: str) -> tuple[float, ...]:
    """``stage_growth(direction_twiddles(n, direction))``, cached beside the rows it reads."""
    return stage_growth(direction_twiddles(n, direction))


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
    validate_direction(direction)  # here, as direction_twiddles' cache cannot hash every name
    vec = as_signal(x)
    return staged_transform(vec, direction_twiddles(vec.size, direction), direction)[0]
