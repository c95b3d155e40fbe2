"""Source hygiene checks on the package modules (and, for unused imports,
the tests and demos), run with the test suite."""

import ast
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from fracdec import fields

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
    product with a packed map, go through rs: no other module reads an
    RsCode's packed `powers` or `lagrange`, a PackedMap's packed `columns`,
    or the digit `width` of either, or the packed decoder's `decode_width`
    and `decode_master`, or imports rs's packer and unpacker,
    so none unpacks a table by hand; the trace and folded configs' maps
    are read only as the first argument of rs.packed_product; frs_scheme
    imports nothing from polyring, and trace_scheme does not import
    polyring's interpolate."""
    maps = ("encode_map", "download_map", "decode_map")
    readers, imported, loose = set(), set(), []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        applied = {id(node.args[0]) for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and node.args
                   and isinstance(node.func, ast.Name)
                   and node.func.id == "packed_product"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in (
                    "powers", "lagrange", "columns", "width", "decode_width",
                    "decode_master"):
                readers.add(path.stem)
            elif isinstance(node, ast.Attribute) and node.attr in maps:
                if id(node) not in applied:
                    loose.append(f"{path.stem}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module in (
                    "polyring", "rs"):
                imported.update((node.module, path.stem, alias.name)
                                for alias in node.names)
    assert readers == {"rs"}
    assert loose == []
    assert {name for module, _, name in imported
            if module == "rs" and name.startswith("_")} == set()
    assert {name for module, stem, name in imported
            if (module, stem) == ("polyring", "frs_scheme")} == set()
    assert ("polyring", "trace_scheme", "interpolate") not in imported


def test_traced_pipelines_run():
    """`bench/run.py --trace 1` wraps the library from outside through
    bench/tracer.py; installing it and running one op of each scheme
    catches a name it reads having been removed or renamed."""
    from fracdec.arraycode import ErrorPattern
    from fracdec.frs_scheme import frs_full_pipeline, frs_make_config
    from fracdec.trace_scheme import ts_full_pipeline, ts_make_config

    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    ts_cfg = ts_make_config(13, 12, 4, 4, 2)
    frs_cfg = frs_make_config(8, 3, 4, Fraction(3, 4))
    pattern = ErrorPattern(support=(1,), values=((1, 2, 3, 4),))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        ts_decoded, _ = ts_full_pipeline(ts_cfg, (1, 2, 3, 4), pattern)
        tracer.end_op()
        frs_decoded, _ = frs_full_pipeline(frs_cfg, tuple(range(12)), pattern)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert ts_decoded == (1, 2, 3, 4) and frs_decoded == tuple(range(12))
    assert tracer.stats.ops == 2
    assert tracer.stats.calls["trace_scheme.ts_decode_message"] == 1
    assert tracer.stats.calls["frs_scheme.frs_decode_trial"] == 1
