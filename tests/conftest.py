"""Shared pytest plumbing for the acceptance suite.

Each acceptance test records exactly one PASS/FAIL line through the
`criterion` fixture; the lines are echoed in a summary section after the
run so the verdict per criterion is visible without -s.
"""

import importlib
import inspect
import pkgutil
import sys

import pytest

import fracdec
from fracdec import polyring, rs
from fracdec.fields import ExtField
from fracdec.primefield import PrimeField

_criterion_lines = []

# Every arithmetic method of the two field classes. The library computes
# on integers mod q; these methods are the reference the tests read.
FIELD_ARITHMETIC = {
    PrimeField: ("add", "sub", "neg", "mul", "inv", "div", "pow"),
    ExtField: ("add", "sub", "neg", "mul", "inv", "div", "pow", "frobenius",
               "trace"),
}


def _call_watcher(monkeypatch, home):
    """watch(*names) starts counting calls to the named functions of the
    module `home`, or to every function it defines when no name is given,
    from every fracdec module and returns the list each call appends its
    function's name to.

    Every fracdec module is imported before the patch: one first imported
    while the patch is in place would bind the counting function and keep
    it after the test."""

    def watch(*names):
        for module in pkgutil.iter_modules(fracdec.__path__, "fracdec."):
            importlib.import_module(module.name)
        calls = []
        for fn in names or [name for name, value in vars(home).items()
                            if inspect.isfunction(value)
                            and value.__module__ == home.__name__]:
            original = getattr(home, fn)

            def counting(*args, _fn=fn, _original=original, **kwargs):
                calls.append(_fn)
                return _original(*args, **kwargs)

            for name, module in list(sys.modules.items()):
                if (name == "fracdec" or name.startswith("fracdec.")) and \
                        getattr(module, fn, None) is original:
                    monkeypatch.setattr(module, fn, counting)
        return calls

    return watch


@pytest.fixture
def polyring_calls(monkeypatch):
    """Count calls to `polyring` functions; see `_call_watcher`."""
    return _call_watcher(monkeypatch, polyring)


@pytest.fixture
def rs_calls(monkeypatch):
    """Count calls to `rs` functions; see `_call_watcher`."""
    return _call_watcher(monkeypatch, rs)


@pytest.fixture
def rs_codes_built(monkeypatch):
    """Count RsCode constructions, through its __init__, where every
    table of a code is built: returns the list each one appends its
    points to."""
    built = []
    original = rs.RsCode.__init__

    def counting(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self.omega)

    monkeypatch.setattr(rs.RsCode, "__init__", counting)
    return built


@pytest.fixture
def field_method_calls(monkeypatch):
    """Count calls to every arithmetic method of PrimeField and ExtField:
    returns the list each call appends "Class.method" to."""
    calls = []
    for cls, methods in FIELD_ARITHMETIC.items():
        for method in methods:
            def counting(self, *args, _name=f"{cls.__name__}.{method}",
                         _original=getattr(cls, method)):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(cls, method, counting)
    return calls


@pytest.fixture
def criterion():
    """Record one acceptance-criterion outcome, then assert it."""

    def record(number, passed, detail):
        line = f"CRITERION {number} {'PASS' if passed else 'FAIL'}: {detail}"
        _criterion_lines.append(line)
        print(line)
        assert passed, line

    return record


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_criterion_lines):
            terminalreporter.write_line(line)
