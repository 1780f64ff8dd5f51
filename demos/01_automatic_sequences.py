#!/usr/bin/env python3
"""Automatic sequences as digit automata.

Builds the standard machines (Thue-Morse parity, Rudin-Shapiro, the
'contains 11' indicator), evaluates them, inspects their component
structure and synchronizing words, and round-trips the text format.
"""

import numpy as np

from autoexp import (Dfao, block_11, find_synchronizing_word, rudin_shapiro,
                     strongly_connected_components, thue_morse_even)

tm = thue_morse_even()
print("Thue-Morse-even indicator (1 iff even binary digit sum):")
print("  n       :", list(range(16)))
print("  a_n     :", [int(complex(tm.evaluate(n)).real) for n in range(16)])

rs = rudin_shapiro()
print("\nRudin-Shapiro (+-1 by the number of '11' blocks):")
print("  a_n     :", [int(complex(rs.evaluate(n)).real) for n in range(16)])

b11 = block_11()
print("\n'contains 11' automaton:")
dec = strongly_connected_components(b11)
for i, comp in enumerate(dec.components):
    tag = "final" if dec.is_final[i] else "transient"
    print(f"  component {comp}: {tag}")
word = find_synchronizing_word(b11)
print(f"  synchronizing word: {''.join(map(str, word))}")
print(f"  Thue-Morse is a permutation automaton -> "
      f"{find_synchronizing_word(tm)} (no synchronizing word)")

print("\nText format round trip:")
text = b11.to_text()
print("  " + "\n  ".join(text.splitlines()[:4]) + "\n  ...")
again = Dfao.from_text(text)
assert np.array_equal(again.transitions, b11.transitions)
print("  parsed back identically.")
