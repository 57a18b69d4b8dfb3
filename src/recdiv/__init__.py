"""Empirical study of prime divisors of integer linear recurrence sequences."""

from .arith import FactoredInteger, factor_integer, is_prime, mult_order, sieve_primes
from .charpoly import PolyProfile, analyze_poly, discriminant, expected_pattern_density
from .detect import (
    DetectPolicy,
    PrimeRow,
    StructuralContext,
    build_context,
    structural_detect,
)
from .fppoly import FactorPattern, fp_root, pattern
from .orderstats import index_histogram
from .recurrence import RecurrenceSpec, has_zero_bruteforce, term_mod
from .sweep import (
    SweepConfig,
    run_sweep,
    summarize,
    write_csv,
    write_json,
)

__version__ = "0.1.0"
