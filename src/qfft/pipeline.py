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

from dataclasses import dataclass, field

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
    """Result and per-stage observability of one pipeline run.

    ``output`` is the transform result and the counters record the
    saturations and the complex multiplies/additions the butterfly kernel
    actually performed. Stage snapshots are opt-in: only a run with
    ``keep_stages=True`` fills ``input`` (the vector entering stage 1,
    after inverse 1/N scaling and bit-reversal) and
    ``stage_outputs`` (one copy per stage, taken after that stage's
    quantizer, the last equal to ``output``). Otherwise ``input`` is None
    and ``stage_outputs`` is empty. The snapshots are in the order of the
    in-place transform, not of the constant-geometry stages that computed
    them: bit-reversed input, then each stage's butterfly pairs at
    distance 2**stage.
    """

    input: np.ndarray | None
    stage_outputs: list[np.ndarray] = field(repr=False)
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

    def run(self, x, keep_stages: bool = False) -> RunTrace:
        """Push one vector through the staged processor.

        Order of operations: inverse runs pre-scale the input by 1/N; then
        each stage performs its n/2 butterflies and quantizes every
        component of the stage output; the output comes back in natural
        order. The input is left alone. ``keep_stages=True`` also copies
        the stage-1 input and every stage output into the trace; sweeps
        and single transforms read only ``output``, so by default the
        copies are skipped.
        """
        vec = core.as_signal(x)
        if vec.size != self.n:
            raise ValueError(f"expected length {self.n}, got {vec.size}")
        if not np.isfinite(vec.view(np.float64)).all():
            raise ValueError("input contains non-finite components")
        scale = 1.0 / self.n if self.config.direction == "ifft" else None

        specs = self.config.stage_quantizers
        saturations = 0
        stage_outputs: list[np.ndarray] = []

        def after_stage(stage: int, data: np.ndarray) -> None:
            nonlocal saturations
            spec = specs[stage]
            # the quantizer is componentwise, so the working vector's
            # constant-geometry order does not change its bits
            if spec is not None:
                saturations += apply_quantizer(data, spec, out=data)[1]
            if keep_stages:
                stage_outputs.append(core.in_place_order(data, stage + 1))

        output, multiplies, additions = core.staged_transform(vec, self.stage_twiddles, scale, after_stage)
        trace_input = None
        if keep_stages:
            trace_input = core.bit_reverse_permute(vec)
            if scale is not None:
                trace_input *= scale
        return RunTrace(
            input=trace_input,
            stage_outputs=stage_outputs,
            output=output,
            saturation_total=saturations,
            multiplies=multiplies,
            additions=additions,
        )


def processing_cost(n: int) -> tuple[int, int]:
    """Butterfly arithmetic of a full n-point transform.

    (n/2 * log2(n) complex multiplies, n * log2(n) complex additions);
    the counters in ``RunTrace`` match these exactly.
    """
    stages = core.num_stages(n)
    return (n // 2) * stages, n * stages

