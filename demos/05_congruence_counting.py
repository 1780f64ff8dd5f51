#!/usr/bin/env python3
"""Counting solutions of 1/n1 + 1/n2 + 1/n3 = m mod q over the evil numbers.

Per-coordinate residue histograms convolve (a float FFT whose rounding is
certified exact, big-integer Kronecker packing where it is not) into the
full solution count; the count approaches |S|^3/q as q grows, and
the brute-force oracle confirms the convolution where it is feasible.
"""

from autoexp import (brute_force_count, count_solutions,
                     parse_rational_function, thue_morse_even, value_histogram)

tm = thue_morse_even()
inv_x = parse_rational_function("1/X")

h = value_histogram(tm, inv_x, 101)
print(f"histogram of 1/n mod 101 over evil n: support {h.support_size}, "
      f"first counts {h.counts[:10]}")

fs = [inv_x, inv_x, inv_x]
print("\nN(q) vs the main term |S|^3/q at m = 1:")
for q in (101, 1009, 10007):
    res = count_solutions(fs, tm, q, 1)
    print(f"  q={q:5d}: N = {res.n_solutions:>9d}   main = "
          f"{float(res.main_term):>12.2f}   rel err = {res.rel_error:+.6f}")

brute = brute_force_count(fs, tm, 101, 1)
print(f"\nbrute force at q=101: {brute} (must equal N above)")
