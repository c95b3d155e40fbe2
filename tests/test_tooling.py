"""Source hygiene checks on the package modules (and, for unused imports,
the tests and demos), run with the test suite."""

import ast
import importlib.util
import inspect
from fractions import Fraction
from pathlib import Path

import pytest

from fracdec import fields
from fracdec.frs_scheme import FrsConfig
from fracdec.trace_scheme import TsConfig

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fracdec"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source):
    """Names a module binds by import but never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names
                            if alias.name != "*")
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_import_check_flags_unread_names():
    source = ("import os\nimport os.path as osp\nimport json\n"
              "from .polyring import degree, normalize as norm\n"
              "from . import fields\n"
              "def f(x):\n    return json.dumps(norm(x)), fields.q\n")
    assert unused_imports(source) == ["degree", "os", "osp"]


@pytest.mark.parametrize(
    "path", MODULES + sorted((ROOT / "tests").glob("*.py"))
    + sorted((ROOT / "demos").glob("*.py")),
    ids=lambda path: path.stem if path.parent == SRC
    else f"{path.parent.name}.{path.stem}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source):
    """The top-level names of the modules a source imports, anywhere in
    it, relative imports aside."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_imported_modules_reads_every_import():
    source = ("import os.path, json\nfrom typing import Any\n"
              "from . import fields\nfrom .rs import RsCode\n"
              "def f():\n    import dataclasses\n")
    assert imported_modules(source) == {"os", "json", "typing",
                                        "dataclasses"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_module_imports_dataclasses_or_typing(path):
    """Creating a dataclass, and importing `dataclasses` or `typing`,
    costs every fresh process start-up time (each CLI command is one):
    records derive from `records.Record` instead."""
    imported = imported_modules(path.read_text(encoding="utf-8"))
    assert imported & {"dataclasses", "typing"} == set()


def package_imports(source):
    """The package modules a source imports relatively, anywhere in it."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module] if node.module
                         else (alias.name for alias in node.names))
    return names


def test_only_the_oracles_and_the_sweep_import_the_budget():
    """Brute force lives in the budget-gated oracles, all in `bounds`, and
    in the harness's exhaustive sweep, which the CLI serves: no other
    module, the decoding kernel `rs` above all, imports the budget."""
    assert package_imports("from .budget import check_budget\n"
                           "def f():\n    from . import rs, fields\n"
                           "import json\n") == {"budget", "rs", "fields"}
    assert {path.stem for path in MODULES if "budget" in package_imports(
        path.read_text(encoding="utf-8"))} == {"bounds", "harness", "cli"}


def unread_functions(sources, wanted):
    """Module-level functions `name` of a module for which
    `wanted(module, name)` holds, as "module.name", that no module of
    `sources` (name -> source) reads, sorted."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined.extend((module, node.name) for node in tree.body
                       if isinstance(node, ast.FunctionDef)
                       and wanted(module, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in read)


def stranded_privates(sources):
    """Module-level `_private` functions that no module of `sources` reads."""
    return unread_functions(sources, lambda module, name: (
        name.startswith("_") and not name.startswith("__")))


def test_stranded_private_check_flags_unread_functions():
    sources = {"a": "def _used():\n    pass\ndef _dead():\n    pass\n"
                    "def __dunder__():\n    pass\n"
                    "class C:\n    def _method(self):\n        pass\n",
               "b": "from .a import _used\nx = _used()\n"
                    "def _helper():\n    pass\nmodule.a._helper\n"}
    assert stranded_privates(sources) == ["a._dead"]


def library_sources():
    return {path.stem: path.read_text(encoding="utf-8") for path in MODULES}


def test_no_stranded_private_functions():
    assert stranded_privates(library_sources()) == []


def test_every_polyring_function_has_a_library_caller():
    """polyring is the kernel the library computes with: a function only
    the tests call is dead code there, and belongs in tests/oracles.py."""
    assert unread_functions(library_sources(),
                            lambda module, name: module == "polyring") == []
    sources = {"polyring": "def used():\n    pass\ndef dead():\n    pass\n",
               "rs": "from .polyring import used\nused()\n"}
    assert unread_functions(sources,
                            lambda module, name: module == "polyring") == [
        "polyring.dead"]


# The public module-level functions no library module calls, each with
# what calls it instead.
UNCALLED_PUBLIC = {
    "trace_scheme.ts_full_pipeline": "bench/ imports it by name and its "
                                     "tracer wraps it",
    "frs_scheme.frs_full_pipeline": "bench/ imports it by name and its "
                                    "tracer wraps it",
    "bounds.min_info_check": "the paper's information-count condition, "
                             "which acceptance criterion 8 checks",
}


def test_every_public_function_has_a_library_caller():
    """A public function that no library module calls is a second path
    for a job the library does another way, kept only for the tests, so
    it belongs in tests/oracles.py or nowhere: every public module-level
    function of the package has a library caller, apart from the few in
    UNCALLED_PUBLIC, and each of those still has none."""
    assert unread_functions(library_sources(), lambda module, name: (
        not name.startswith("_"))) == sorted(UNCALLED_PUBLIC)


def traced_field_methods(source):
    """The FIELD_METHODS table of the benchmark tracer, read from its source
    without importing it."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "FIELD_METHODS"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no FIELD_METHODS assignment")


def test_traced_field_methods_are_defined():
    """bench/tracer.py wraps these methods through each class's own
    __dict__, so deleting or inheriting one breaks `bench/run.py --trace 1`."""
    methods = traced_field_methods(
        (ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    assert methods
    for cls_name, names in methods.items():
        own = vars(getattr(fields, cls_name))
        assert [name for name in names if name not in own] == []


def test_code_tables_are_applied_only_in_rs():
    """Evaluation and interpolation at a code's fixed points, and every
    product with a packed map, go through rs: no other module reads a
    PackedMap's packed `columns` or digit `width`, or the packed decoder's
    fields (`decode_width`, `decode_master` and its tables `decode_folds`
    and `decode_inverses`), or imports rs's packer and
    unpacker, so none unpacks a map by hand; an RsCode's `interpolation`
    and the trace and folded configs' maps are read only
    as the first argument of rs.packed_product, as one of the two maps
    rs.packed_sum adds (its first and third) or as the map
    rs.decode_words applies (its sixth), and the code's map also by
    rs.interpolation_map, which spreads it out; frs_scheme imports nothing
    from polyring, and outside fields and polyring no module imports more
    of polyring than normalize, so none evaluates or interpolates a
    polynomial but through rs."""
    maps = ("encode_map", "interpolation_map", "download_map",
            "transmit_map", "decode_map", "interpolation")
    map_args = {"packed_product": (0,), "packed_sum": (0, 2),
                "decode_words": (5,)}
    readers, imported, loose = set(), set(), []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        applied = {id(node.args[i]) for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name)
                   for i in map_args.get(node.func.id, ())
                   if i < len(node.args)}
        applied |= {id(node) for fn in tree.body
                    if getattr(fn, "name", "") == "interpolation_map"
                    and path.stem == "rs" for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in (
                    "columns", "width", "decode_width", "decode_master",
                    "decode_folds", "decode_inverses"):
                readers.add(path.stem)
            elif isinstance(node, ast.Attribute) and node.attr in maps:
                if id(node) not in applied:
                    loose.append(f"{path.stem}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module in (
                    "polyring", "rs"):
                imported.update((node.module, path.stem, alias.name)
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module is None:
                imported.update((alias.name, path.stem, "*")
                                for alias in node.names)
    assert readers == {"rs"}
    assert loose == []
    assert {name for module, _, name in imported
            if module == "rs" and name.startswith("_")} == set()
    assert {name for module, stem, name in imported
            if (module, stem) == ("polyring", "frs_scheme")} == set()
    assert {name for module, stem, name in imported
            if module == "polyring" and stem not in ("fields", "polyring")
            } <= {"normalize"}


def test_traced_pipelines_run():
    """`bench/run.py --trace 1` wraps the library from outside through
    bench/tracer.py. Installing it, then building a config of each scheme,
    running one op of each through its full pipeline and decoding the op's
    bundle with cfg.decode, catches a name it reads having been removed or
    renamed: a build is one `*_make_config` span, an op one
    `*_full_pipeline` span that decodes its served symbols in one
    `rs.decode_words` span, and so does a decode, with no
    `rs.decode_columns` span."""
    from fracdec import frs_scheme, trace_scheme
    from fracdec.arraycode import ErrorPattern

    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    pattern = ErrorPattern(support=(1,), values=((1, 2, 3, 4),))
    tracer = tracer_module.Tracer()

    def traced(call, *args):
        """call(*args), as one op, and the spans it made by name."""
        before = dict(tracer.stats.calls)
        result = call(*args)
        tracer.end_op()
        return result, {name: count - before.get(name, 0)
                        for name, count in tracer.stats.calls.items()}

    tracer.install()
    try:
        ts_cfg, ts_build = traced(trace_scheme.ts_make_config, 13, 12, 4, 4, 2)
        frs_cfg, frs_build = traced(frs_scheme.frs_make_config, 8, 3, 4,
                                    Fraction(3, 4))
        (ts_decoded, ts_bundle), ts_op = traced(
            trace_scheme.ts_full_pipeline, ts_cfg, (1, 2, 3, 4), pattern)
        (frs_decoded, frs_bundle), frs_op = traced(
            frs_scheme.frs_full_pipeline, frs_cfg, tuple(range(12)), pattern)
        (ts_again, ts_fixed), ts_decode = traced(ts_cfg.decode,
                                                 ts_bundle.per_column)
        (frs_again, frs_fixed), frs_decode = traced(frs_cfg.decode,
                                                    frs_bundle.per_column)
    finally:
        tracer.uninstall()
    assert ts_decoded == ts_again == (1, 2, 3, 4)
    assert frs_decoded == frs_again == tuple(range(12))
    assert ts_fixed == frs_fixed == {1}
    assert tracer.stats.ops == 6
    assert ts_build["trace_scheme.ts_make_config"] == 1
    assert ts_build["fields.dual_basis"] == ts_build[
        "fields.default_modulus"] == 1
    assert frs_build["frs_scheme.frs_make_config"] == 1
    for op, scheme in ((ts_op, "trace_scheme.ts"), (frs_op, "frs_scheme.frs")):
        assert op[f"{scheme}_full_pipeline"] == op["rs.decode_words"] == 1
        assert op.get("rs.decode_columns", 0) == 0
    for decode in (ts_decode, frs_decode):
        assert decode["rs.decode_words"] == 1
        assert decode.get("rs.decode_columns", 0) == 0


SCHEME_NAMES = ("ts", "frs")
# Where scheme names may be compared: the file formats, and the CLI's
# parser and the one command that only the folded scheme has.
NAMING_ALLOWED = {"serialization": None,
                  "cli": {"build_parser", "cmd_oracle_list"}}


def scheme_name_comparisons(module, source):
    """"module:line" of each comparison of anything with "ts" or "frs"
    (a constant, or one in a tuple, list or set literal) outside the
    places NAMING_ALLOWED lists, in source order."""
    allowed = NAMING_ALLOWED.get(module, set())
    if allowed is None:
        return []
    found = []

    def names_a_scheme(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(map(names_a_scheme, node.elts))
        return isinstance(node, ast.Constant) and node.value in SCHEME_NAMES

    def visit(node, inside):
        if isinstance(node, ast.FunctionDef) and inside is None:
            inside = node.name
        if isinstance(node, ast.Compare) and inside not in allowed and any(
                map(names_a_scheme, [node.left, *node.comparators])):
            found.append(f"{module}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), None)
    return found


def test_scheme_name_check_flags_comparisons():
    source = ("def build_parser(a):\n    return a == 'ts'\n"
              "def f(cfg):\n    if cfg.scheme == 'ts':\n        pass\n"
              "    return 'frs' != cfg.scheme or cfg.kind in ('x', 'frs')\n"
              "scheme = 'ts'\nprint('ts', cfg.scheme == 'other')\n")
    assert scheme_name_comparisons("cli", source) == [
        "cli:4", "cli:6", "cli:6"]
    assert scheme_name_comparisons("harness", source) == [
        "harness:2", "harness:4", "harness:6", "harness:6"]
    assert scheme_name_comparisons("serialization", source) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_only_the_file_formats_and_the_parser_compare_scheme_names(path):
    """The harness and the CLI commands run either scheme through the
    interface both configs share, so no other module tells the schemes
    apart by name."""
    assert scheme_name_comparisons(
        path.stem, path.read_text(encoding="utf-8")) == []


SCHEME_INTERFACE = ("encode", "download", "decode", "pipeline", "codewords",
                    "download_fn", "column_code", "symbol_field",
                    "message_space")


# The stages written once, in arraycode.ArrayConfig, for both schemes.
SHARED_STAGES = ("encode", "download", "decode", "pipeline", "codewords")
# Every public module-level function of each scheme module: the config
# builder, the pipeline under the name the benchmark imports, and helpers
# that run no stage.
SCHEME_FUNCTIONS = {
    "trace_scheme": {"ts_make_config", "ts_full_pipeline"},
    "frs_scheme": {"frs_make_config", "frs_full_pipeline", "flatten_columns",
                   "is_primitive_root", "smallest_prime_above",
                   "smallest_primitive_root"},
}


def test_both_configs_expose_one_interface():
    """TsConfig and FrsConfig have every method of the scheme interface
    with equal signatures (parameter names, kinds and defaults), and its
    properties as properties. The stages are one function each, shared by
    both configs, and neither scheme module defines another public
    module-level function, so no per-scheme stage comes back beside
    them."""
    for name in SCHEME_INTERFACE:
        ts, frs = getattr(TsConfig, name), getattr(FrsConfig, name)
        if isinstance(ts, property) or isinstance(frs, property):
            assert isinstance(ts, property) and isinstance(frs, property), name
        else:
            assert inspect.signature(ts) == inspect.signature(frs), name
    for name in SHARED_STAGES:
        assert getattr(TsConfig, name) is getattr(FrsConfig, name), name
    for module, allowed in SCHEME_FUNCTIONS.items():
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        assert {node.name for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and not node.name.startswith("_")} == allowed, module
