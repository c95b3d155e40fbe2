"""Error correction for MDS array codes from a fraction of each column.

An (n, k) MDS array code with l symbols per column can correct
floor((n - k/alpha) / 2) column errors while downloading only an alpha
fraction of the received word — strictly more than the floor((alpha*n - k)/2)
achieved by reading alpha*n whole columns. This package provides two
constructions realizing the optimal radius (a trace-projection Reed-Solomon
scheme and a folded prefix scheme), the exact radius formulas with their
converse witnesses, brute-force oracles, and a deterministic simulation
harness with a CLI.

The names below and the submodules load on first access (PEP 562), so
`import fracdec` loads no submodule and a caller pays only for the modules
it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "arraycode": ("DownloadBundle", "ErrorPattern", "apply_error_pattern",
                  "difference_pattern"),
    "bounds": ("CollisionWitness", "FigureRow", "MinInfoResult",
               "RadiusReport", "emit_figure", "figure_csv",
               "find_download_collision", "list_capacity", "min_info_check",
               "radius_naive", "radius_optimal", "radius_report"),
    "budget": ("DEFAULT_BUDGET", "check_budget", "enumeration_budget"),
    "errors": ("BudgetExceeded", "DecodeFailure"),
    "fields": ("ExtField", "PrimeField", "TraceDualBasis", "default_modulus",
               "dual_basis", "is_prime", "poly_is_irreducible",
               "polynomial_basis", "prime_factors"),
    "frs_scheme": ("FrsConfig", "bundle_columns", "flatten_columns",
                   "frs_full_pipeline", "frs_list_decode_bruteforce",
                   "frs_make_config", "is_primitive_root",
                   "smallest_prime_above", "smallest_primitive_root"),
    "harness": ("ExperimentReport", "ExperimentSpec", "NaiveComparison",
                "SplitMix64", "WeightStats", "compare_naive",
                "random_message", "report_to_dict", "report_to_json",
                "run_trial", "simulate", "trial_stream"),
    "rationals": ("as_fraction",),
    "rs": ("RsCode", "nearest_codeword_bruteforce"),
    "trace_scheme": ("TsConfig", "ts_full_pipeline", "ts_make_config"),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "polyring", "records",
                                      "serialization"}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__),
                        name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
