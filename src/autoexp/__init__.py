"""Automatic sequences against rational-fraction exponential phases.

Exact DFAO machinery, the prime-power/CRT phase convention for rational
fractions mod q, complete and incomplete exponential sums, van der Corput
differencing with carry/synchronization counters, and congruence solution
counting -- everything computable at desk scale, with exact identities where
the mathematics is exact.
"""

from .automata import (BlockDecomposition, ComponentDecomposition, Dfao,
                       base_digits, block_11, block_decompose_sum,
                       builtin_sequences, constant_one, digit_sum_mod,
                       find_synchronizing_word, rudin_shapiro,
                       strongly_connected_components, sync_failure_count,
                       sync_failure_counts, thue_morse_even)
from .budget import BudgetError, enumeration_budget
from .congruence import (CongruenceCount, SolutionTable, ValueHistogram,
                         brute_force_count, convolve, count_solutions,
                         cyclic_convolve, solution_table, value_histogram)
from .exact import Cyclotomic
from .expsums import (IntervalProgression, SweepReport, check_gcd_lemma,
                      check_quadratic_geometric, check_weil, complete_sum,
                      correlation_sum, difference_sum, pv_range_scan,
                      twisted_spectrum, weighted_sum)
from .modring import (FractionPhase, IntPoly, PhaseValues, RationalFunction,
                      add_linear, eval_phase, factorize, is_well_defined,
                      mod_inverse, parse_rational_function, phase_fraction,
                      phase_values, rational_gcd, reduces_to_quadratic_poly,
                      shift_scale, squarefree_cofactor)
from .presets import RunConfig, preset
from .vandercorput import (ScalarTransducer, WeylReport, carry_violation_count,
                           carry_violation_counts, decompose_weyl,
                           digit_sum_transducer, eta_fit, thue_morse_transducer,
                           vdc_inequality_check)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
