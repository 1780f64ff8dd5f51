#!/usr/bin/env python3
"""Digit cocycles, carry failures, and the exact correlation decomposition.

The Thue-Morse sign is the weight product of a one-state transducer;
truncating high digits rarely changes two-point products (the counts decay
geometrically in the kept-digit margin rho).  decompose_weyl replays the
regrouping of a weighted sum into two-point correlation sums S_5 and checks
every regrouping identity in exact phase arithmetic.
"""

from fractions import Fraction

from autoexp import (FractionPhase, carry_violation_count, decompose_weyl,
                     parse_rational_function, thue_morse_transducer,
                     vdc_inequality_check)

import numpy as np

tr = thue_morse_transducer()
print("carry-property violations (lam=10, alpha=3, shift r=0):")
for rho in range(2, 7):
    print(f"  rho={rho}: {carry_violation_count(tr, 10, 3, rho, 0):4d} "
          f"of 1024 blocks")

print("\nvan der Corput inequality on random unit scalars:")
rng = np.random.default_rng(0)
z = np.exp(2j * np.pi * rng.random(200))
chk = vdc_inequality_check(z, R=8.0, k=2)
print(f"  lhs = {chk.lhs:.2f}  rhs = {chk.rhs:.2f}  slack = {chk.slack:.2f}")

print("\nexact stage decomposition, g = phase of 1/n mod 1009, x = 20000:")
tau = lambda sigma, state: (sigma + 1) * Fraction(1, 2)  # evil indicator
rep = decompose_weyl(tr, tau, FractionPhase(parse_rational_function("1/X"), 1009),
                     0, 20000, 1, 1)
print(f"  |S_0| = {rep.s0_abs:.4f}")
print(f"  identities: S0<-S1 {rep.identity_s0}, S1<-S2 {rep.identity_s1}, "
      f"S3<-S2 {rep.identity_s3}, S4<-S5 {rep.identity_s4}")
print(f"  sync failures: {rep.sync_failures}, carry failures per shift: "
      f"{rep.carry_failures}")
print(f"  correlation comparator = {rep.comparator:.2f} "
      f"(exceeds |S_0|: {rep.comparator_exceeds})")
