"""Exact universal Schur / Hall-Littlewood functions over formal group laws.

A desk-scale computer-algebra library for the coefficient rings of
complex-oriented cohomology theories: truncated exact-rational series,
the universal formal group law in logarithm form, the universal
(factorial) Schur S/P/Q, Hall-Littlewood, Damon-type and
Kempf-Laksov-type families, Gysin pushforward symmetrizers, residue and
Segre-window expansions, and degeneracy-locus classes, together with
independent classical oracles and named verification suites.
"""

from .ring import (RingContext, Series, Permutation, RingError,
                   ContextMismatch, NotAUnit, RemainderError,
                   TruncationError, BudgetError, series_sum)
from .fgl import FormalGroupLaw
from .schur import (Partition, SymmetrizerSpec, NotInvariant, coset_reps,
                    subgroup_elements, symmetrize, symmetrizer_deg_bound,
                    factorial_power,
                    double_factorial_power, bracket_monomial, rho,
                    partitions_up_to, universal_schur_s, universal_schur_p,
                    universal_schur_q, universal_hall_littlewood,
                    new_universal_schur, new_universal_schur_one_row,
                    universal_schur_kl)
from .gysin import (LaurentWindow, WindowExhausted, VerifiedClass,
                    pushforward_full_flag, pushforward_partial_flag,
                    pushforward_between_flags, grassmannian_pushforward,
                    projective_residue, segre_series, required_weight_cap,
                    thom_porteous_class, kempf_laksov_class,
                    darondeau_pragacz_pushforward)
from . import oracles
from .suites import SUITES, run_suite, VerificationReport, series_match

__version__ = "0.1.0"
