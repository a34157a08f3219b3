#!/usr/bin/env python3
"""Walkthrough of the full-precision transform machinery.

The staged radix-2 transform is checked against the direct-summation DFT
(the golden oracle), round-tripped through the inverse, and its butterfly
arithmetic counted.
"""

import numpy as np

from qfft import bit_reverse_permute, dft_naive, fft_reference, processing_cost, twiddle_table

rng = np.random.default_rng(1)

print("== twiddle factors ==")
table = twiddle_table(8)
for k, w in enumerate(table):
    print(f"  w[{k}] = e^(-2j pi {k}/8) = {w:.6f}")
print(f"  all unit modulus: {np.allclose(np.abs(table), 1.0, atol=1e-12)}")

print("\n== bit-reversed input ordering ==")
order = bit_reverse_permute(np.arange(8, dtype=complex)).real.astype(int)
print(f"  n=8 index order: {order.tolist()}")

print("\n== staged transform vs direct summation ==")
for n in (4, 64, 1024):
    x = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    worst = np.max(np.abs(fft_reference(x) - dft_naive(x)))
    print(f"  n={n:5d}: max |fast - direct| = {worst:.3e}")

print("\n== round trip through the inverse ==")
x = rng.uniform(-1, 1, 1024) + 1j * rng.uniform(-1, 1, 1024)
back = fft_reference(fft_reference(x), "ifft")
print(f"  max |ifft(fft(x)) - x| = {np.max(np.abs(back - x)):.3e}")

print("\n== energy conservation ==")
spectrum = fft_reference(x)
lhs = np.sum(np.abs(x) ** 2)
rhs = np.sum(np.abs(spectrum) ** 2) / x.size
print(f"  sum|x|^2 = {lhs:.12f}")
print(f"  sum|X|^2 / N = {rhs:.12f}")

print("\n== butterfly arithmetic ==")
for n in (8, 1024):
    muls, adds = processing_cost(n)
    print(f"  n={n:5d}: {muls} complex multiplies, {adds} complex additions")
