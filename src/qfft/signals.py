"""Test-signal generation for transform and sweep experiments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core

KINDS = ("impulse", "sinusoid", "multitone", "random")


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


def generate_signal(spec: SignalSpec, seed=0) -> np.ndarray:
    """Build the signal vector; ``seed`` feeds a PCG64 generator for kind=random."""
    n = spec.n
    idx = np.arange(n)
    if spec.kind == "impulse":
        out = np.zeros(n, dtype=np.complex128)
        out[0] = 1.0
        return out
    if spec.kind == "sinusoid":
        return np.exp((2j * np.pi * spec.bin / n) * idx)
    if spec.kind == "multitone":
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
    ladder: stage s intermediates are bounded by 2**(s+1) times this, so
    the doubling ladder never saturates.
    """
    if spec.kind in ("impulse", "sinusoid"):
        return 1.0
    if spec.kind == "multitone":
        return float(sum(abs(a) for a in spec.amplitudes))
    return float(np.sqrt(2.0) * spec.amplitude)
