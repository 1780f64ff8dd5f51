#!/usr/bin/env python3
"""Complete exponential sums and the square-root cancellation they exhibit.

The complete sum of 1/X over a prime period is exactly -1; Kloosterman
sums K(a, 1; p) of aX + 1/X are real and sit below 2 sqrt(p).  One FFT of
the phases of 1/X gives K(a, 1; p) for every a at once (twisted_spectrum,
in floats); complete_sum gives each one exactly.  check_weil reports the
observed ratio against sqrt(q (q, f')).
"""

import math

from autoexp import (add_linear, check_weil, complete_sum, parse_rational_function,
                     twisted_spectrum)
from autoexp.presets import primes_upto

inv_x = parse_rational_function("1/X")
print("complete sums of 1/X (exact rational values):")
for p in (7, 101, 499):
    print(f"  q={p:4d}: {complete_sum(inv_x, p).exact_rational()}")

p = 101
spectrum = twisted_spectrum(inv_x, p)
print(f"\nKloosterman sums aX + 1/X at p = {p}, all {p - 1} from one spectrum:")
for a in (1, 2, 3, 50):
    exact = complex(complete_sum(add_linear(inv_x, a), p))
    assert abs(spectrum[a] - exact) < 1e-9, (a, spectrum[a], exact)
    print(f"  a={a:3d}: S = {spectrum[a].real:+.6f}   (complete_sum: {exact.real:+.6f})")
worst = max(range(1, p), key=lambda a: abs(spectrum[a]))
print(f"  max |S| = {abs(spectrum[worst]):.4f} at a = {worst}   "
      f"(2 sqrt p = {2 * math.sqrt(p):.4f}); "
      f"max |Im S| = {max(abs(spectrum[1:].imag)):.1e}")

print("\ncheck_weil ratios |S| / sqrt(q (q, f')):")
for fs in ("1/X", "(X^2+1)/X", "(X^3+2)/(X+1)"):
    f = parse_rational_function(fs)
    rows = [check_weil(f, p) for p in primes_upto(199) if p > 3]
    worst = max(rows, key=lambda r: r.ratio)
    print(f"  f = {fs:14s}: max ratio {worst.ratio:.3f} at q = {worst.q}")
