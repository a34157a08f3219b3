"""Statically quantized staged FFT/IFFT processor model.

The processor is modeled functionally, stage by stage: log2(N) butterfly
stages (``core.staged_transform``), each followed by a statically
configured per-stage quantizer applied to every real and imaginary
component. Twiddle factors can be quantized once at build time (static
ROM). Two controls mirror the hardware: the transform direction
(fft/ifft) and the twiddle-quantization enable. With no quantizer at
all the output is bit-identical to ``core.fft_reference``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .quantization import QuantizerSpec, apply_quantizer


@dataclass(frozen=True)
class PipelineConfig:
    """Static configuration of the staged processor.

    ``stage_quantizers`` must hold one entry per stage (log2(n) of them):
    a spec, or None for a stage with no quantizer; an empty tuple means
    no stage quantizes. ``twiddle_quantizer`` None disables twiddle
    quantization; the ROM quantizes the forward table, and an ifft reads
    it conjugated. An entry of either that is neither a spec nor None
    raises ``ValueError`` naming it. The input is not quantized: the
    processor quantizes only after each butterfly stage.
    """

    n: int
    direction: str = "fft"
    stage_quantizers: tuple[QuantizerSpec | None, ...] = ()
    twiddle_quantizer: QuantizerSpec | None = None

    def __post_init__(self):
        core.validate_size(self.n)
        core.validate_direction(self.direction)
        stages = core.num_stages(self.n)
        specs = tuple(self.stage_quantizers)
        if not specs:
            specs = (None,) * stages
        if len(specs) != stages:
            raise ValueError(
                f"stage_quantizers must hold exactly log2(n) = {stages} specs, got {len(specs)}"
            )
        named = [(f"stage_quantizers[{i}]", spec) for i, spec in enumerate(specs)]
        for name, spec in [*named, ("twiddle_quantizer", self.twiddle_quantizer)]:
            if spec is not None and not isinstance(spec, QuantizerSpec):
                raise ValueError(f"{name}: expected a QuantizerSpec or None, got {spec!r}")
        object.__setattr__(self, "stage_quantizers", specs)

    @property
    def stages(self) -> int:
        return core.num_stages(self.n)


@dataclass
class RunTrace:
    """One run's output, saturations, and complex multiplies/additions actually performed."""

    output: np.ndarray
    saturation_total: int
    multiplies: int
    additions: int


class Pipeline:
    """Built processor: immutable after construction, shareable across threads."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.n = config.n
        self.stages = config.stages
        tq = config.twiddle_quantizer
        if tq is not None:
            # a fresh table quantized in place, which the rows copy and do not keep;
            # no saturation count: the ROM a config builds has x_max = 1 >= |w|
            rom = core.twiddle_table(config.n).view(np.float64)
            apply_quantizer(rom, tq, out=rom)
            self.stage_twiddles = core.stage_twiddles(rom.view(np.complex128), config.direction)
            self.stage_growth = core.stage_growth(self.stage_twiddles)
        else:
            # without a ROM the rows and their growth are the shared cached ones
            self.stage_twiddles = core.direction_twiddles(config.n, config.direction)
            self.stage_growth = core.direction_growth(config.n, config.direction)

    def run(self, x, after_stage=None, overwrite_x=False) -> RunTrace:
        """Push one vector through the staged processor.

        Order of operations: inverse runs pre-scale the input by 1/N; then
        each stage performs its n/2 butterflies and quantizes every
        component of the stage output; the output comes back in natural
        order. The input is left alone, unless ``overwrite_x`` is true and
        ``x`` is a C-contiguous, writable complex128 vector: then the run
        works in ``x``, whose contents afterwards are undefined and which
        may be the output itself, and allocates one working vector instead
        of two (``core.staged_transform``). ``after_stage(stage, data)`` is
        ``core.staged_transform``'s hook: after each stage's quantizer, a
        read-only view of the working vector it must not keep.

        A NaN or infinite component raises ``ValueError``. The check reads
        the largest and smallest component, which bound the input for
        ``core.staged_transform``'s saturation probes.
        """
        vec = core.as_signal(x)
        if vec.size != self.n:
            raise ValueError(f"expected length {self.n}, got {vec.size}")
        components = vec.view(np.float64)
        hi, lo = components.item(components.argmax()), components.item(components.argmin())
        # a NaN is both the argmax and the argmin of an array holding one, and fails both tests
        if not (hi < math.inf and lo > -math.inf):
            raise ValueError("input contains non-finite components")
        config = self.config
        return RunTrace(
            *core.staged_transform(
                vec,
                self.stage_twiddles,
                config.direction,
                config.stage_quantizers,
                after_stage,
                overwrite_x,
                bound=max(hi, -lo),
                growth=self.stage_growth,
            )
        )


def processing_cost(n: int) -> tuple[int, int]:
    """Butterfly arithmetic of a full n-point transform.

    (n/2 * log2(n) complex multiplies, n * log2(n) complex additions);
    the counters in ``RunTrace`` match these exactly.
    """
    stages = core.num_stages(n)
    return (n // 2) * stages, n * stages

