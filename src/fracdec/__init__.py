"""Error correction for MDS array codes from a fraction of each column.

An (n, k) MDS array code with l symbols per column can correct
floor((n - k/alpha) / 2) column errors while downloading only an alpha
fraction of the received word — strictly more than the floor((alpha*n - k)/2)
achieved by reading alpha*n whole columns. This package provides two
constructions realizing the optimal radius (a trace-projection Reed-Solomon
scheme and a folded prefix scheme), the exact radius formulas with their
converse witnesses, brute-force oracles, and a deterministic simulation
harness with a CLI.
"""

__version__ = "0.1.0"

from .arraycode import (DownloadBundle, ErrorPattern, apply_error_pattern,
                        difference_pattern)
from .bounds import (CollisionWitness, FigureRow, MinInfoResult, RadiusReport,
                     emit_figure, figure_csv, find_download_collision,
                     list_capacity, min_info_check, radius_naive,
                     radius_optimal, radius_report)
from .budget import DEFAULT_BUDGET, check_budget, enumeration_budget
from .errors import BudgetExceeded, DecodeFailure, InconsistentErasures
from .fields import (ExtField, PrimeField, TraceDualBasis, default_modulus,
                     dual_basis, is_prime, poly_is_irreducible,
                     polynomial_basis, prime_factors)
from .frs_scheme import (FrsConfig, bundle_columns, flatten_columns,
                         frs_decode_trial, frs_download_all,
                         frs_download_prefix, frs_encode, frs_full_pipeline,
                         frs_list_decode_bruteforce, frs_make_config,
                         is_primitive_root, smallest_prime_above,
                         smallest_primitive_root)
from .harness import (ExperimentReport, ExperimentSpec, NaiveComparison,
                      SplitMix64, WeightStats, compare_naive, random_message,
                      report_to_dict, report_to_json, run_trial, simulate,
                      trial_stream)
from .rationals import as_fraction
from .rs import (RsCode, nearest_codeword_bruteforce, rs_decode_unique,
                 rs_encode, rs_erasure_decode)
from .trace_scheme import (TsConfig, ts_decode_message, ts_download,
                           ts_download_all, ts_encode, ts_full_pipeline,
                           ts_make_config, ts_project_polys)
