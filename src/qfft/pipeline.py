"""Statically quantized staged FFT/IFFT processor model.

The processor is modeled functionally, stage by stage: log2(N) butterfly
stages over bit-reversed input, each followed by a statically configured
per-stage quantizer applied to every real and imaginary component.
Twiddle factors can be quantized once at build time (static ROM). Two
controls mirror the hardware: the transform direction (fft/ifft) and the
twiddle-quantization enable. With every quantizer off the output is
bit-identical to ``core.fft_reference``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import core
from .quantization import QuantizerSpec, apply_quantizer

DIRECTIONS = ("fft", "ifft")


@dataclass(frozen=True)
class PipelineConfig:
    """Static configuration of the staged processor.

    ``stage_quantizers`` must hold one spec per stage (log2(n) of them);
    an empty tuple is filled with all-off specs. ``twiddle_quantizer``
    None disables twiddle quantization; ``input_quantizer`` None leaves
    the input stage unquantized (the per-stage list covers the butterfly
    stages only, the input stage is separate).
    """

    n: int
    direction: str = "fft"
    stage_quantizers: tuple[QuantizerSpec, ...] = ()
    twiddle_quantizer: QuantizerSpec | None = None
    input_quantizer: QuantizerSpec | None = None

    def __post_init__(self):
        core.validate_size(self.n)
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        stages = core.num_stages(self.n)
        specs = tuple(self.stage_quantizers)
        if not specs:
            specs = tuple(QuantizerSpec("off") for _ in range(stages))
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
    after inverse 1/N scaling, input quantization and bit-reversal) and
    ``stage_outputs`` (one copy per stage, taken after that stage's
    quantizer, the last equal to ``output``). Otherwise ``input`` is None
    and ``stage_outputs`` is empty.
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
        table = core.twiddle_table(config.n)
        if config.direction == "ifft":
            table = np.conj(table)
        self.twiddle_saturations = 0
        tq = config.twiddle_quantizer
        if tq is not None and tq.enabled:
            table, self.twiddle_saturations = apply_quantizer(table, tq)
        table.setflags(write=False)
        self.twiddles = table

    def run(self, x, keep_stages: bool = False) -> RunTrace:
        """Push one vector through the staged processor.

        Order of operations: inverse runs pre-scale the input by 1/N;
        the optional input quantizer is applied componentwise; the vector
        is bit-reversed; then each stage performs its n/2 butterflies and
        quantizes every component of the stage output. All of it works in
        place on one fresh vector, which becomes ``output``.
        ``keep_stages=True`` also copies the stage-1 input and every stage
        output into the trace; sweeps and single transforms read only
        ``output``, so by default the copies are skipped.
        """
        vec = core.as_signal(x)
        if vec.size != self.n:
            raise ValueError(f"expected length {self.n}, got {vec.size}")
        if not np.all(np.isfinite(vec.view(np.float64))):
            raise ValueError("input contains non-finite components")

        # scaling and quantizing are componentwise, so they commute with
        # the permutation and can run in place on its fresh output
        data = core.bit_reverse_permute(vec)
        saturations = 0
        if self.config.direction == "ifft":
            data *= 1.0 / self.n
        iq = self.config.input_quantizer
        if iq is not None and iq.enabled:
            saturations += apply_quantizer(data, iq, out=data)[1]

        trace_input = data.copy() if keep_stages else None
        multiplies = 0
        additions = 0
        stage_outputs: list[np.ndarray] = []
        for stage in range(self.stages):
            muls, adds = core.dit_stage(data, self.twiddles, stage)
            multiplies += muls
            additions += adds
            spec = self.config.stage_quantizers[stage]
            if spec.enabled:
                saturations += apply_quantizer(data, spec, out=data)[1]
            if keep_stages:
                stage_outputs.append(data.copy())
        return RunTrace(
            input=trace_input,
            stage_outputs=stage_outputs,
            output=data,
            saturation_total=saturations,
            multiplies=multiplies,
            additions=additions,
        )


def build_pipeline(config: PipelineConfig) -> Pipeline:
    """Precompute the (optionally quantized) twiddle ROM and return the processor."""
    return Pipeline(config)


def run(pipeline: Pipeline, x) -> RunTrace:
    """Function form of ``Pipeline.run``."""
    return pipeline.run(x)


def processing_cost(n: int) -> tuple[int, int]:
    """Butterfly arithmetic of a full n-point transform.

    (n/2 * log2(n) complex multiplies, n * log2(n) complex additions);
    the counters in ``RunTrace`` match these exactly.
    """
    stages = core.num_stages(n)
    return (n // 2) * stages, n * stages


def uniform_stage_specs(n: int, bits: int, input_x_max: float) -> tuple[QuantizerSpec, ...]:
    """Per-stage uniform quantizers with full scale doubling each stage.

    Stage s gets x_max = input_x_max * 2**(s+1), tracking the worst-case
    factor-2 magnitude growth per butterfly stage so saturation does not
    drown the staircase noise.
    """
    stages = core.num_stages(n)
    return tuple(
        QuantizerSpec("uniform", bits, input_x_max * 2.0 ** (s + 1)) for s in range(stages)
    )


def mantissa_stage_specs(n: int, bits: int) -> tuple[QuantizerSpec, ...]:
    """Per-stage mantissa quantizers (scale-free, no full-scale ladder needed)."""
    stages = core.num_stages(n)
    return tuple(QuantizerSpec("mantissa", bits) for _ in range(stages))
