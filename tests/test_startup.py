"""Start-up guards: the package root loads each submodule on first use,
and each CLI command loads only what it runs.

Each load check runs in a fresh interpreter and reads `sys.modules`, so a
test that imported a module earlier in this process cannot hide an eager
import.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracdec
from fracdec.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Every name the package root exports, by the submodule that defines it.
ROOT_NAMES = {
    "arraycode": ("DownloadBundle", "ErrorPattern", "apply_error_pattern",
                  "difference_pattern"),
    "bounds": ("CollisionWitness", "FigureRow", "MinInfoResult",
               "RadiusReport", "emit_figure", "figure_csv",
               "find_download_collision", "list_capacity",
               "list_decode_bruteforce", "min_info_check",
               "nearest_codeword_bruteforce", "radius_naive",
               "radius_optimal", "radius_report"),
    "budget": ("DEFAULT_BUDGET", "check_budget", "enumeration_budget"),
    "errors": ("BudgetExceeded", "DecodeFailure"),
    "fields": ("ExtField", "TraceDualBasis", "default_modulus", "dual_basis",
               "poly_is_irreducible", "polynomial_basis"),
    "frs_scheme": ("FrsConfig", "flatten_columns", "frs_full_pipeline",
                   "frs_make_config", "is_primitive_root",
                   "smallest_prime_above", "smallest_primitive_root"),
    "harness": ("ExperimentReport", "ExperimentSpec", "NaiveComparison",
                "WeightStats", "compare_naive", "report_to_dict",
                "report_to_json", "run_trial", "simulate"),
    "primefield": ("PrimeField", "is_prime", "prime_factors"),
    "rationals": ("as_fraction",),
    "rs": ("RsCode",),
    "trace_scheme": ("TsConfig", "ts_full_pipeline", "ts_make_config"),
    "trials": ("SplitMix64", "random_message", "trial_stream"),
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


# What building a config of each scheme loads, the package root aside.
# The folded scheme computes over GF(p) alone, so it loads no extension
# field code (`fields`, `polyring`) and no `budget`.
SCHEME_MODULES = {
    "ts": {"errors", "primefield", "polyring", "fields", "records", "rs",
           "arraycode", "trace_scheme"},
    "frs": {"errors", "primefield", "records", "rs", "arraycode",
            "rationals", "frs_scheme"},
}
NOT_FOLDED = {"fields", "polyring", "budget"}


@pytest.mark.parametrize("build, scheme", [
    ("fracdec.ts_make_config(31, 30, 4, 4, 2)", "ts"),
    ("fracdec.frs_make_config(12, 3, 4, Fraction(1, 2))", "frs"),
], ids=["trace", "folded"])
def test_config_build_loads_only_its_scheme(build, scheme):
    loaded = loaded_by("from fractions import Fraction\nimport fracdec\n"
                       + build)
    assert fracdec_modules(loaded) == SCHEME_MODULES[scheme] | {"fracdec"}
    if scheme == "frs":
        assert len(fracdec_modules(loaded)) == 8
        assert fracdec_modules(loaded) & NOT_FOLDED == set()
    assert "json" not in loaded
    assert "dataclasses" not in loaded


CLI_CONFIGS = {"ts": ROOT / "configs" / "ts-q13-n12-k4.json",
               "frs": ROOT / "configs" / "frs-p37-n8-k3.json"}
MESSAGES = {"ts": [5, 0, 11, 2], "frs": list(range(12))}
STAGES = ("encode", "corrupt", "download", "decode")
# What each command loads beyond the CLI and its config's scheme: the
# seeded draws for `corrupt`, and the harness with them for `simulate`
# (whose exhaustive sweep checks the enumeration budget) and
# `compare-naive` (which computes the naive radius without `bounds`).
COMMAND_MODULES = {"encode": set(), "corrupt": {"trials"},
                   "download": set(), "decode": set(),
                   "simulate": {"harness", "trials", "budget"},
                   "compare-naive": {"harness", "trials"}}


@pytest.fixture(scope="module")
def stage_files(tmp_path_factory):
    """Per scheme, the input file of each stage command, made in-process,
    and a path for the commands' output."""
    files = {}
    for scheme, config in CLI_CONFIGS.items():
        folder = tmp_path_factory.mktemp(scheme)
        paths = {part: str(folder / f"{part}.json")
                 for part in ("message", "word", "bad", "down", "out")}
        Path(paths["message"]).write_text(json.dumps(
            {"format": 1, "scheme": scheme, "message": MESSAGES[scheme]}))
        for argv in (["encode", "--message", paths["message"],
                      "--out", paths["word"]],
                     ["corrupt", "--in", paths["word"], "--weight", "1",
                      "--out", paths["bad"]],
                     ["download", "--in", paths["bad"],
                      "--out", paths["down"]]):
            assert main([scheme, argv[0], "--config", str(config),
                         *argv[1:]]) == 0
        files[scheme] = paths
    return files


def command_argv(scheme, command, paths):
    config = ("--config", str(CLI_CONFIGS[scheme]))
    inputs = {"encode": ("--message", paths["message"]),
              "corrupt": ("--in", paths["word"], "--weight", "1"),
              "download": ("--in", paths["bad"]),
              "decode": ("--in", paths["down"]),
              "simulate": ("--weights", "0,1", "--trials-per-weight", "2"),
              "compare-naive": ("--t", "1")}[command]
    head = [scheme, command] if command in STAGES else [command]
    return [*head, *config, *inputs, "--out", paths["out"]]


@pytest.mark.parametrize("command", [*STAGES, "simulate", "compare-naive"])
@pytest.mark.parametrize("scheme", ["ts", "frs"])
def test_cli_command_loads_only_what_it_runs(scheme, command, stage_files):
    """A command loads the scheme its config names and, of the draws, the
    harness and the budget, only what it calls; a folded command loads no
    extension field code and no stage command the budget; no command
    loads `dataclasses`, and a trace-scheme stage builds no Fraction, so
    loads no `fractions`."""
    argv = command_argv(scheme, command, stage_files[scheme])
    loaded = loaded_by("from fracdec.cli import main\n"
                       f"assert main({argv!r}) == 0")
    modules = fracdec_modules(loaded)
    assert modules == ({"fracdec", "cli", "serialization"}
                       | SCHEME_MODULES[scheme] | COMMAND_MODULES[command])
    if scheme == "frs":
        assert modules & {"fields", "polyring"} == set()
    if command in STAGES:
        assert "budget" not in modules
    assert "bounds" not in modules
    assert "dataclasses" not in loaded
    if scheme == "ts" and command in STAGES:
        assert "fractions" not in loaded


# What `bounds` and `figure` load, the package root included: the radius
# formulas and their witnesses, and no scheme, field or code table.
BOUNDS_MODULES = {"fracdec", "cli", "serialization", "bounds", "records",
                  "budget", "errors", "rationals"}


@pytest.mark.parametrize("argv", [
    ["bounds", "--n", "12", "--k", "4", "--alpha", "1/2"],
    ["figure", "--rate", "1/3", "--steps", "5"],
], ids=["bounds", "figure"])
def test_bounds_and_figure_load_no_scheme(argv, tmp_path):
    """`bounds` imports `arraycode`, the base of both configs, which loads
    `rs` (and with it `primefield`), only inside the collision search, so
    the radius formulas load no code table."""
    argv = [*argv, "--out", str(tmp_path / "out")]
    loaded = loaded_by("from fracdec.cli import main\n"
                       f"assert main({argv!r}) == 0")
    assert fracdec_modules(loaded) == BOUNDS_MODULES
    assert "dataclasses" not in loaded


def test_bare_import_lists_every_name_and_resolves_a_submodule():
    loaded = loaded_by(
        "import fracdec\n"
        "assert {*fracdec.__all__, 'rs', 'cli'} <= set(dir(fracdec))\n"
        "assert fracdec.rs.__name__ == 'fracdec.rs'")
    assert fracdec_modules(loaded) == {"fracdec", "rs", "errors",
                                       "primefield", "records"}


def test_root_exports_each_name_from_its_submodule():
    names = {name for group in ROOT_NAMES.values() for name in group}
    assert len(names) == 56
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
