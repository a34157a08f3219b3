#!/usr/bin/env python3
"""Driving the statically quantized pipeline and reading its trace.

Builds a 10-stage 1024-point processor, runs it against the ideal
reference, and shows what per-stage quantization and twiddle-ROM
quantization each cost in SQNR, and through an ``after_stage`` hook how
much of each stage's full scale the signal uses.
"""

import numpy as np

from qfft import (
    Pipeline,
    PipelineConfig,
    QuantizerSpec,
    SignalSpec,
    compare,
    fft_reference,
    generate_signal,
    stage_ladder,
)

signal = generate_signal(SignalSpec("random", 1024, amplitude=1.0), seed=3)
reference = fft_reference(signal)

print("== unquantized pipeline is the reference, bit for bit ==")
idle = Pipeline(PipelineConfig(n=1024))
trace = idle.run(signal)
print(f"  stages: {idle.stages}")
print(f"  output identical to fft_reference: {trace.output.tobytes() == reference.tobytes()}")
print(f"  counters: {trace.multiplies} multiplies, {trace.additions} additions")

print("\n== per-stage uniform quantization (full scale doubles per stage) ==")
for bits in (6, 8, 10, 12):
    specs = stage_ladder(QuantizerSpec("uniform", bits, np.sqrt(2.0)), 1024)
    pipeline = Pipeline(PipelineConfig(n=1024, stage_quantizers=specs))
    trace = pipeline.run(signal)
    _, percent, sqnr = compare(reference, trace.output)
    print(
        f"  b={bits:2d}: percent error {percent:8.4f}%  SQNR {sqnr:7.2f} dB  "
        f"saturations {trace.saturation_total}"
    )

print("\n== an after_stage hook sees every stage, after its quantizer ==")
specs = stage_ladder(QuantizerSpec("uniform", 8, np.sqrt(2.0)), 1024)


def show_headroom(stage, data):
    # data is a read-only view of the working vector: measure it, copy nothing.
    # The quantizer clips each real and imaginary part at the full scale.
    peak = np.max(np.abs(data.view(np.float64)))
    full_scale = specs[stage].x_max
    print(f"  stage {stage + 1:2d}: peak |component| {peak:8.3f} of full scale {full_scale:7.1f} ({peak / full_scale:5.1%})")


Pipeline(PipelineConfig(n=1024, stage_quantizers=specs)).run(signal, after_stage=show_headroom)

print("\n== twiddle-ROM quantization alone ==")
for bits in (4, 6, 8, 10):
    config = PipelineConfig(n=1024, twiddle_quantizer=QuantizerSpec("uniform", bits, 1.0))
    trace = Pipeline(config).run(signal)
    _, percent, sqnr = compare(reference, trace.output)
    print(f"  twiddles at b={bits:2d}: percent error {percent:8.4f}%  SQNR {sqnr:7.2f} dB")

print("\n== inverse mode recovers the input through the same hardware ==")
inverse = Pipeline(PipelineConfig(n=1024, direction="ifft"))
back = inverse.run(reference).output
print(f"  max |ifft(fft(x)) - x| = {np.max(np.abs(back - signal)):.3e}")
