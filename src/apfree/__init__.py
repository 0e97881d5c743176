"""Exact counting and growth analysis of 3AP-free permutations.

A permutation of {1, ..., n} is 3AP-free when no three positions
i < j < k carry values forming an arithmetic progression. This package
counts such permutations exactly, realizes the doubling constructions
that combine small ones into large ones, and certifies growth-rate
inequalities with arbitrary-precision integer arithmetic, including the
cross-exponentiation certificates that separate subsequence limits.
"""

from .counting import (count_dp, count_oracle, count_pruned, count_verified,
                       free_permutations, theta)
from .dataio import (BFileEntry, IngestResult, emit_figure_data, ingest_bfile,
                     load_table, parse_bfile, save_table)
from .doubling import EVEN_BLOCK_FIRST, ODD_BLOCK_FIRST, double, double_odd
from .errors import (ApfreeError, ConflictError, ConstructionViolation,
                     InputNot3APFree, LengthMismatch, NotAPermutation,
                     OracleRangeExceeded, ParseError, ValueUnavailable)
from .growth import (CheckReport, GrowthBound, SeparationCertificate,
                     certificate_text, check_global_bounds, check_halving,
                     check_sandwich, global_theta_bounds, limit_bracket,
                     monotone_report, separate, subsequence_point)
from .perm import (APWitness, Permutation, complement, find_3ap, format_oneline,
                   is_3ap_free, parse_oneline, reverse, validate)
from .roots import DecimalRoot, decimal_nth_root, nth_root_floor
from .table import (PROVENANCE_BUILTIN, PROVENANCE_COMPUTED,
                    PROVENANCE_INGESTED, ThetaEntry, ThetaTable)

__version__ = "0.1.0"
