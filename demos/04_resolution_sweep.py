#!/usr/bin/env python3
"""Bit-resolution sweeps: the error-versus-bits experiment.

Sweeps the per-stage resolution of the 1024-point processor in both
quantizer modes, prints the dispersion table, and writes the plot-ready
CSV that the `qfft sweep` subcommand would emit (into a temporary
directory, whose first rows it prints).
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from qfft import ExperimentConfig, emit_report, report, run_sweep

# the same description of a run that `qfft sweep` parses from its config file
uniform = ExperimentConfig(
    n=1024, quantizer_mode="uniform", bits_lo=6, bits_hi=14, trials=20, seed=0
)

print("== uniform per-stage quantization, b = 6..14, 20 trials ==")
uniform_rows = run_sweep(uniform)
print("  bits   error variance   percent error   SQNR (dB)")
for row in uniform_rows:
    print(
        f"  {row.bits:4d}   {row.error_variance:14.6e}   {row.percent_error:12.4f}%   {row.sqnr_db:9.3f}"
    )
slope = (uniform_rows[-1].sqnr_db - uniform_rows[0].sqnr_db) / (
    uniform_rows[-1].bits - uniform_rows[0].bits
)
print(f"  SQNR gains ~{slope:.2f} dB per added bit (one bit quarters the error variance)")

print("\n== mantissa per-stage quantization on the same signals ==")
mantissa_rows = run_sweep(replace(uniform, quantizer_mode="mantissa"))
print("  bits   error variance   percent error   SQNR (dB)")
for row in mantissa_rows:
    print(
        f"  {row.bits:4d}   {row.error_variance:14.6e}   {row.percent_error:12.4f}%   {row.sqnr_db:9.3f}"
    )
print("  the mantissa curve sits lower and settles at fewer bits than the uniform one")

# a temporary directory, so running the demo leaves the working tree as it was
with tempfile.TemporaryDirectory() as tmp:
    destination = Path(tmp) / "sweep_uniform_1024.csv"
    report.write([emit_report(uniform_rows, config=uniform.to_dict())], str(destination))
    rows = [line for line in destination.read_text().splitlines() if not line.startswith("#")]
print(f"\nwrote {len(rows) - 1} rows as `qfft sweep --out ...` would; its header and first two rows:")
for line in rows[:3]:
    print(f"  {line}")
