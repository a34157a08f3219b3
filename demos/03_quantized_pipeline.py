#!/usr/bin/env python3
"""Driving the statically quantized pipeline and reading its trace.

Builds a 10-stage 1024-point processor, runs it against the ideal
reference, and shows what per-stage quantization and twiddle-ROM
quantization each cost in SQNR.
"""

import numpy as np

from qfft import (
    PipelineConfig,
    QuantizerSpec,
    SignalSpec,
    build_pipeline,
    compare,
    fft_reference,
    generate_signal,
    uniform_stage_specs,
)

signal = generate_signal(SignalSpec("random", 1024, amplitude=1.0), seed=3)
reference = fft_reference(signal)

print("== unquantized pipeline is the reference, bit for bit ==")
idle = build_pipeline(PipelineConfig(n=1024))
trace = idle.run(signal)
print(f"  stages: {idle.stages}")
print(f"  output identical to fft_reference: {trace.output.tobytes() == reference.tobytes()}")
print(f"  counters: {trace.multiplies} multiplies, {trace.additions} additions")

print("\n== per-stage uniform quantization (full scale doubles per stage) ==")
for bits in (6, 8, 10, 12):
    specs = uniform_stage_specs(1024, bits, np.sqrt(2.0))
    pipeline = build_pipeline(PipelineConfig(n=1024, stage_quantizers=specs))
    trace = pipeline.run(signal)
    _, percent, sqnr = compare(reference, trace.output)
    print(
        f"  b={bits:2d}: percent error {percent:8.4f}%  SQNR {sqnr:7.2f} dB  "
        f"saturations {trace.saturation_total}"
    )

print("\n== a run with keep_stages=True exposes every stage ==")
specs = uniform_stage_specs(1024, 8, np.sqrt(2.0))
trace = build_pipeline(PipelineConfig(n=1024, stage_quantizers=specs)).run(signal, keep_stages=True)
for s, (stage_out, spec) in enumerate(zip(trace.stage_outputs, specs), start=1):
    peak = np.max(np.abs(stage_out))
    print(f"  stage {s:2d}: peak magnitude {peak:9.3f}  (full scale {spec.x_max:7.1f})")

print("\n== twiddle-ROM quantization alone ==")
for bits in (4, 6, 8, 10):
    config = PipelineConfig(n=1024, twiddle_quantizer=QuantizerSpec("uniform", bits, 1.0))
    trace = build_pipeline(config).run(signal)
    _, percent, sqnr = compare(reference, trace.output)
    print(f"  twiddles at b={bits:2d}: percent error {percent:8.4f}%  SQNR {sqnr:7.2f} dB")

print("\n== inverse mode recovers the input through the same hardware ==")
inverse = build_pipeline(PipelineConfig(n=1024, direction="ifft"))
back = inverse.run(reference).output
print(f"  max |ifft(fft(x)) - x| = {np.max(np.abs(back - signal)):.3e}")
