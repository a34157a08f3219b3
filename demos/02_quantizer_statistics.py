#!/usr/bin/env python3
"""The two quantizer models and their noise statistics.

Shows the mid-tread staircase (zero band, clamping), the mantissa
quantizer's relative-error behavior, and Monte-Carlo variance against
the closed forms q^2/12 (uniform) and q^2/6 (mantissa relative error).
Both modes quantize through ``apply_quantizer``, and a spec's
``theory_variance`` is its closed form. Note the factor two between them at equal step: the mantissa variance is
twice the uniform one, with the payoff that the error scales with the
signal instead of the full scale.
"""

from qfft import QuantizerSpec, apply_quantizer, quantizer_characterization, relative_error, snr_db

print("== mid-tread staircase, 2 bits on [-1, 1] (q = 0.5) ==")
spec = QuantizerSpec("uniform", 2, 1.0)
for x in (0.2, 0.25, 0.3, 0.74, 0.76, 5.0):
    print(f"  Q({x:5.2f}) = {apply_quantizer(x, spec)[0]:5.2f}")
print("  inputs inside +-q/2 collapse to the zero level; |x| > x_max clamps")

print("\n== mantissa quantizer, 3 bits on the fraction ==")
mspec = QuantizerSpec("mantissa", 3)
for x in (0.5, 0.6875, 1.0, 3.14159, 100.0):
    qx = apply_quantizer(x, mspec)[0]
    print(f"  Q({x:9.5f}) = {qx:9.5f}   relative error {relative_error(x, qx):+.5f}")
print("  powers of two pass through untouched; the error is relative, not absolute")

print("\n== Monte-Carlo vs closed form ==")
for mode, closed_form in (("uniform", "q^2/12"), ("mantissa", "q^2/6 ")):
    for row in quantizer_characterization(mode, 4, 10, 500_000, seed=2):
        print(
            f"  {mode:8s} b={row.bits:2d}: measured {row.empirical_variance:.3e}  "
            f"{closed_form} = {row.theory_variance:.3e}"
        )

print("\n== the quantization noise budget in dB ==")
for bits in (8, 12, 16):
    noise = QuantizerSpec("uniform", bits, 1.0).theory_variance
    print(f"  unit-variance signal, {bits}-bit uniform: SNR = {snr_db(1.0, noise):.2f} dB")
