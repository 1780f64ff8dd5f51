#!/usr/bin/env python3
"""The exponential of a rational fraction modulo q.

The value attached to f(n) mod q is assembled from prime-power local
factors (zero at poles) and recombined by CRT; every phase is an exact
fraction.  The demo checks the local/direct agreement on a composite
modulus and shows the derived machinery: derivatives, shifted differences,
the quadratic-reduction prime set, and the squarefree cofactor.
"""

from fractions import Fraction

from autoexp import (eval_phase, factorize, parse_rational_function,
                     phase_fraction, reduces_to_quadratic_poly, shift_scale,
                     squarefree_cofactor)

f = parse_rational_function("1/X")
print("f = 1/X")
print("  phase at n=2 mod 5  :", phase_fraction(f, 5, 2), "(inverse of 2 is 3)")
print("  phase at n=5 mod 5  :", phase_fraction(f, 5, 5), "(pole -> zero value)")
print("  phase at n=2 mod 15 :", phase_fraction(f, 15, 2))

print("  15 factors as       :", factorize(15))
direct = Fraction(pow(2, -1, 15), 15)
print("  direct formula      :", direct, "- same fraction, by CRT")

print("\nsymbolic machinery:")
print("  f'                  :", f.derivative())
print("  f(X+3) - f(X)       :", shift_scale(f, 0, 1, 3))
sq = parse_rational_function("X^2")
print("  X^2 reduces to a quadratic mod every p:",
      all(reduces_to_quadratic_poly(sq, p) for p in (3, 5, 7, 11)))
print("  squarefree cofactor of 1/X at q=12, base 2:",
      squarefree_cofactor(f, 12, 2), "(2 divides the base and 2^2 || 12)")

print("\nunit-modulus values are exact objects:")
z = eval_phase(f, 15, 2)
print("  e(8/15) =", complex(z), " |.| =", abs(z))
