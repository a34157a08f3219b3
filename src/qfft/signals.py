"""Test-signal generation for transform and sweep experiments.

A ``SignalSpec`` carries its own kind rules: ``READERS`` names the one kind
that reads each kind-specific key, ``SCALE_KEYS`` the key that carries a
kind's scale, and ``SignalSpec.scaled(k)`` is the same signal times 2**k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import core

KINDS = ("impulse", "sinusoid", "multitone", "random")
# the one kind that reads each kind-specific key
READERS = {"amplitude": "random", "bins": "multitone", "amplitudes": "multitone"}
# the key that carries each kind's scale; an impulse and a sinusoid have unit magnitude and none
SCALE_KEYS = {"multitone": "amplitudes", "random": "amplitude"}


@dataclass(frozen=True)
class SignalSpec:
    """What to feed the processor.

    kind-specific parameters: ``bin`` for sinusoid, ``bins``/``amplitudes``
    for multitone, ``amplitude`` as the uniform bound for random. A
    ``ValueError`` message opens with the name of the field it rejects.
    """

    kind: str
    n: int
    bin: int = 0
    bins: tuple[int, ...] = ()
    amplitudes: tuple[float, ...] = ()
    amplitude: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind: must be one of {KINDS}, got {self.kind!r}")
        core.validate_size(self.n)
        if self.kind == "sinusoid" and not 0 <= self.bin < self.n:
            raise ValueError(f"bin: must be in [0, {self.n}), got {self.bin}")
        if self.kind == "multitone":
            if not self.bins:
                raise ValueError("bins: a multitone needs at least one bin")
            if any(not 0 <= b < self.n for b in self.bins):
                raise ValueError(f"bins: must be in [0, {self.n}), got {self.bins}")
            amps = tuple(self.amplitudes) or tuple(1.0 for _ in self.bins)
            if len(amps) != len(self.bins):
                raise ValueError("amplitudes: must match bins one-to-one")
            object.__setattr__(self, "amplitudes", amps)
        if self.kind == "random" and not self.amplitude > 0:
            raise ValueError(f"amplitude: the uniform bound must be positive, got {self.amplitude}")

    def scaled(self, exponent: int) -> SignalSpec:
        """The same signal times 2**exponent: the values of its ``SCALE_KEYS`` key times 2**exponent, exact
        where they stay normal. A kind with no scale key is only itself, at exponent 0; else ``ValueError``."""
        if not exponent:
            return self
        key = SCALE_KEYS.get(self.kind)
        if key is None:
            raise ValueError(f"kind: a {self.kind} has unit magnitude, which does not scale")
        value = getattr(self, key)
        if isinstance(value, tuple):
            return replace(self, **{key: tuple(math.ldexp(v, exponent) for v in value)})
        return replace(self, **{key: math.ldexp(value, exponent)})


def generate_signal(spec: SignalSpec, seed=0) -> np.ndarray:
    """Build the signal vector; ``seed`` feeds a PCG64 generator for kind=random."""
    n = spec.n
    if spec.kind == "impulse":
        out = np.zeros(n, dtype=np.complex128)
        out[0] = 1.0
        return out
    if spec.kind == "sinusoid":
        return np.exp((2j * np.pi * spec.bin / n) * np.arange(n))
    if spec.kind == "multitone":
        idx = np.arange(n)
        out = np.zeros(n, dtype=np.complex128)
        for k, amp in zip(spec.bins, spec.amplitudes):
            out += amp * np.exp((2j * np.pi * k / n) * idx)
        return out
    rng = np.random.default_rng(seed)
    out = np.empty(n, dtype=np.complex128)
    out.real = rng.uniform(-spec.amplitude, spec.amplitude, n)
    out.imag = rng.uniform(-spec.amplitude, spec.amplitude, n)
    return out


def magnitude_bound(spec: SignalSpec) -> float:
    """Worst-case complex magnitude of any sample of the signal.

    Used as the input-stage full scale of the default uniform quantizer
    ladder: with exact twiddles, stage s intermediates are bounded by
    2**(s+1) times this, so the doubling ladder never saturates without a
    twiddle ROM. A rounded twiddle can have |W_q| > 1, so with a ROM a
    signal that reaches full scale, such as a bin-centred sinusoid, can
    saturate.
    """
    if spec.kind in ("impulse", "sinusoid"):
        return 1.0
    if spec.kind == "multitone":
        return float(sum(abs(a) for a in spec.amplitudes))
    # Python floats: an amplitude near the double maximum gives inf, not a numpy overflow warning
    return math.sqrt(2.0) * float(spec.amplitude)
