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
    quantization. The input is not quantized: the processor quantizes
    only after each butterfly stage.
    """

    n: int
    direction: str = "fft"
    stage_quantizers: tuple[QuantizerSpec | None, ...] = ()
    twiddle_quantizer: QuantizerSpec | None = None

    def __post_init__(self):
        core.validate_size(self.n)
        if self.direction not in core.DIRECTIONS:
            raise ValueError(f"direction must be one of {core.DIRECTIONS}, got {self.direction!r}")
        stages = core.num_stages(self.n)
        specs = tuple(self.stage_quantizers)
        if not specs:
            specs = (None,) * stages
        if len(specs) != stages:
            raise ValueError(
                f"stage_quantizers must hold exactly log2(n) = {stages} specs, got {len(specs)}"
            )
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
        table = core.direction_table(config.n, config.direction)
        tq = config.twiddle_quantizer
        if tq is not None:
            # no saturation count: the ROM a config builds has x_max = 1 >= |w|
            table = apply_quantizer(table, tq)[0]
            table.setflags(write=False)
            self.stage_twiddles = core.stage_twiddles(table)
        else:
            # without a ROM the rows are the shared cached ones of fft_reference
            self.stage_twiddles = core.direction_twiddles(config.n, config.direction)
        self.twiddles = table

    def run(self, x, after_stage=None) -> RunTrace:
        """Push one vector through the staged processor.

        Order of operations: inverse runs pre-scale the input by 1/N; then
        each stage performs its n/2 butterflies and quantizes every
        component of the stage output; the output comes back in natural
        order. The input is left alone.

        ``after_stage(stage, data)``, when given, runs after each stage's
        quantizer (or butterflies, if it has none), in stage order. ``data``
        is a read-only view of the working vector in constant geometry
        (``core.in_place_order`` reorders a copy); a later stage overwrites it.
        """
        vec = core.as_signal(x)
        if vec.size != self.n:
            raise ValueError(f"expected length {self.n}, got {vec.size}")
        if not np.isfinite(vec.view(np.float64)).all():
            raise ValueError("input contains non-finite components")
        scale = 1.0 / self.n if self.config.direction == "ifft" else None

        specs = self.config.stage_quantizers
        saturations = 0

        def quantize(stage: int, data: np.ndarray) -> None:
            nonlocal saturations
            spec = specs[stage]
            # the quantizer is componentwise, so the working vector's
            # constant-geometry order does not change its bits
            if spec is not None:
                saturations += apply_quantizer(data, spec, out=data)[1]
            if after_stage is not None:
                view = data.view()
                view.flags.writeable = False
                after_stage(stage, view)

        output, multiplies, additions = core.staged_transform(vec, self.stage_twiddles, scale, quantize)
        return RunTrace(output, saturations, multiplies, additions)


def processing_cost(n: int) -> tuple[int, int]:
    """Butterfly arithmetic of a full n-point transform.

    (n/2 * log2(n) complex multiplies, n * log2(n) complex additions);
    the counters in ``RunTrace`` match these exactly.
    """
    stages = core.num_stages(n)
    return (n // 2) * stages, n * stages

