"""Start-up guards: the package root loads each submodule on first use.

Each load check runs in a fresh interpreter and reads `sys.modules`, so a
test that imported a module earlier in this process cannot hide an eager
import.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracdec

SRC = Path(__file__).resolve().parent.parent / "src"

# Every name the package root exports, by the submodule that defines it.
ROOT_NAMES = {
    "arraycode": ("DownloadBundle", "ErrorPattern", "apply_error_pattern",
                  "difference_pattern"),
    "bounds": ("CollisionWitness", "FigureRow", "MinInfoResult",
               "RadiusReport", "emit_figure", "figure_csv",
               "find_download_collision", "list_capacity", "min_info_check",
               "radius_naive", "radius_optimal", "radius_report"),
    "budget": ("DEFAULT_BUDGET", "check_budget", "enumeration_budget"),
    "errors": ("BudgetExceeded", "DecodeFailure", "InconsistentErasures"),
    "fields": ("ExtField", "PrimeField", "TraceDualBasis", "default_modulus",
               "dual_basis", "is_prime", "poly_is_irreducible",
               "polynomial_basis", "prime_factors"),
    "frs_scheme": ("FrsConfig", "bundle_columns", "flatten_columns",
                   "frs_decode_trial", "frs_download_all",
                   "frs_download_prefix", "frs_encode", "frs_full_pipeline",
                   "frs_list_decode_bruteforce", "frs_make_config",
                   "is_primitive_root", "smallest_prime_above",
                   "smallest_primitive_root"),
    "harness": ("ExperimentReport", "ExperimentSpec", "NaiveComparison",
                "SplitMix64", "WeightStats", "compare_naive",
                "random_message", "report_to_dict", "report_to_json",
                "run_trial", "simulate", "trial_stream"),
    "rationals": ("as_fraction",),
    "rs": ("RsCode", "nearest_codeword_bruteforce", "rs_decode_unique",
           "rs_encode", "rs_erasure_decode"),
    "trace_scheme": ("TsConfig", "ts_decode_message", "ts_download",
                     "ts_download_all", "ts_encode", "ts_full_pipeline",
                     "ts_make_config", "ts_project_polys"),
}


def loaded_by(code):
    """The names of the modules a fresh interpreter loads while it runs
    `code`."""
    probe = ("import sys\nbefore = set(sys.modules)\n" + code +
             "\nprint(*sorted(set(sys.modules) - before))\n")
    path = os.pathsep.join(filter(None, (str(SRC),
                                         os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=path), check=True)
    return set(out.stdout.split())


def fracdec_modules(loaded):
    """The package and its submodules among `loaded`, by short name."""
    return {name.removeprefix("fracdec.") for name in loaded
            if name == "fracdec" or name.startswith("fracdec.")}


def test_import_loads_no_submodule():
    loaded = loaded_by("import fracdec")
    assert fracdec_modules(loaded) == {"fracdec"}
    assert "dataclasses" not in loaded


@pytest.mark.parametrize("build, modules", [
    ("fracdec.ts_make_config(31, 30, 4, 4, 2)",
     {"errors", "budget", "polyring", "fields", "rs", "arraycode",
      "trace_scheme"}),
    ("fracdec.frs_make_config(12, 3, 4, Fraction(1, 2))",
     {"errors", "budget", "polyring", "fields", "rs", "arraycode",
      "rationals", "frs_scheme"}),
], ids=["trace", "folded"])
def test_config_build_loads_only_its_scheme(build, modules):
    loaded = loaded_by("from fractions import Fraction\nimport fracdec\n"
                       + build)
    assert fracdec_modules(loaded) == modules | {"fracdec"}
    assert "json" not in loaded


def test_cli_loads_both_schemes_but_not_bounds():
    loaded = fracdec_modules(loaded_by("import fracdec.cli"))
    assert {"cli", "harness", "serialization", "trace_scheme",
            "frs_scheme"} <= loaded
    assert "bounds" not in loaded


def test_bare_import_lists_every_name_and_resolves_a_submodule():
    loaded = loaded_by(
        "import fracdec\n"
        "assert {*fracdec.__all__, 'rs', 'cli'} <= set(dir(fracdec))\n"
        "assert fracdec.rs.__name__ == 'fracdec.rs'")
    assert fracdec_modules(loaded) == {"fracdec", "rs", "budget", "errors",
                                       "fields", "polyring"}


def test_root_exports_each_name_from_its_submodule():
    names = {name for group in ROOT_NAMES.values() for name in group}
    assert len(names) == 70
    assert sorted(fracdec.__all__) == sorted(names)
    listed = dir(fracdec)
    for module, group in ROOT_NAMES.items():
        home = importlib.import_module(f"fracdec.{module}")
        assert module in listed
        for name in group:
            assert getattr(fracdec, name) is getattr(home, name), name
            assert name in listed
    star = {}
    exec("from fracdec import *", star)
    assert names <= set(star)


def test_unknown_root_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        fracdec.nope
    assert not hasattr(fracdec, "nope")
