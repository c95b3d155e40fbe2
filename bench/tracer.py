"""Span tracing of fracdec from outside the package.

`Tracer.install` wraps the public functions of every measured layer (the
modules named in LAYERS) and re-binds each wrapper in every fracdec module
namespace that holds the original, so calls between modules are traced too.
Each wrapped call records a span: name, start, duration, parent span and
whether it raised DecodeFailure. Methods of the field classes run tens of
thousands of times per op, so they are not kept as spans; they are
aggregated per (method, parent span) as a call count and a self time.

Spans live in memory for the op that made them. `end_op` folds them into a
`Stats` object (per-name counts and inclusive times, per-layer self times)
and keeps the raw spans of the first few ops for the trace file. A layer's
self time is a span's duration minus the time its child spans and field
calls cover, so the self times of all spans in an op add up to the op's
root span.
"""

import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("fields", "polyring", "rs", "arraycode", "trace_scheme",
          "frs_scheme", "harness", "serialization", "cli")

# Field methods aggregated rather than kept as spans. `check` and
# `elements` are left alone: they are validation and iteration helpers
# called from inside the methods below.
FIELD_METHODS = {
    "PrimeField": ("add", "sub", "neg", "mul", "inv", "div", "pow"),
    "ExtField": ("add", "sub", "neg", "mul", "inv", "div", "pow", "to_vec",
                 "from_vec", "frobenius", "trace"),
    "TraceDualBasis": ("project", "reconstruct"),
}

KEEP_RAW_OPS = 3         # raw spans are kept for this many ops ...
KEEP_RAW_SPANS = 2000    # ... and at most this many spans of each

# File reads and writes; write_text under dump_json is already covered.
_IO_SPANS = ("serialization.load_json", "serialization.dump_json",
             "serialization.write_text")


class Stats:
    """Folded trace data; plain dicts so it can cross a process boundary."""

    def __init__(self):
        self.ops = 0
        self.layer_self = {}      # layer -> seconds
        self.calls = {}           # span name -> count
        self.incl = {}            # span name -> inclusive seconds
        self.failures = {}        # span name -> DecodeFailure count
        self.field_calls = {}     # "Class.method" -> count
        self.field_by_parent = {}  # "Class.method <- span" -> [count, self s]
        self.derived = {"stream_decode": 0.0, "frs_decode_interpolations": 0,
                        "simulate_trials": 0, "io": 0.0}
        self.raw = []             # raw spans of the first KEEP_RAW_OPS ops

    def to_dict(self):
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data):
        out = cls()
        vars(out).update(data)
        return out

    def merge(self, other):
        self.ops += other.ops
        for mine, theirs in ((self.layer_self, other.layer_self),
                             (self.calls, other.calls),
                             (self.incl, other.incl),
                             (self.failures, other.failures),
                             (self.field_calls, other.field_calls),
                             (self.derived, other.derived)):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value
        for key, (count, self_s) in other.field_by_parent.items():
            acc = self.field_by_parent.setdefault(key, [0, 0.0])
            acc[0] += count
            acc[1] += self_s
        self.raw.extend(other.raw[:max(0, KEEP_RAW_OPS - len(self.raw))])


class Tracer:
    """Installs wrappers into fracdec and records spans for one op at a time."""

    def __init__(self):
        self.stats = Stats()
        self._spans = []      # [name, start, duration, parent, self, failed]
        self._fields = {}     # (method, parent index) -> [count, self s]
        self._parents = [-1]  # index of the open span, -1 outside any span
        self._child = [0.0]   # time covered by children of each open frame
        self._restore = []

    # -- installation -------------------------------------------------

    def install(self):
        from fracdec.errors import DecodeFailure

        for layer in LAYERS:
            importlib.import_module("fracdec." + layer)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and
                   (name == "fracdec" or name.startswith("fracdec."))]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules["fracdec." + layer]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__
                        and not inspect.isgeneratorfunction(fn)):
                    wrappers[id(fn)] = self._span_wrapper(
                        f"{layer}.{name}", fn, DecodeFailure)
        for module in modules:
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, name, value))
                    setattr(module, name, wrapper)
        fields = sys.modules["fracdec.fields"]
        for cls_name, methods in FIELD_METHODS.items():
            cls = getattr(fields, cls_name)
            for method in methods:
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method,
                        self._field_wrapper(f"{cls_name}.{method}", original))

    def uninstall(self):
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def _span_wrapper(self, name, fn, failure_type):
        spans, parents, child = self._spans, self._parents, self._child

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, parents[-1], 0.0, False]
            parents.append(len(spans))
            spans.append(rec)
            child.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except failure_type:
                rec[5] = True
                raise
            finally:
                duration = perf_counter() - start
                covered = child.pop()
                parents.pop()
                child[-1] += duration
                rec[1] = start
                rec[2] = duration
                rec[4] = duration - covered

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _field_wrapper(self, name, fn):
        fields, parents, child = self._fields, self._parents, self._child

        def traced(*args):
            child.append(0.0)
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                duration = perf_counter() - start
                covered = child.pop()
                child[-1] += duration
                key = (name, parents[-1])
                acc = fields.get(key)
                if acc is None:
                    fields[key] = [1, duration - covered]
                else:
                    acc[0] += 1
                    acc[1] += duration - covered

        traced.__wrapped__ = fn
        return traced

    # -- recording ----------------------------------------------------

    def root(self, name, fn):
        """`fn` wrapped in a span of the benchmark's own, named `name`."""
        from fracdec.errors import DecodeFailure
        return self._span_wrapper(name, fn, DecodeFailure)

    def end_op(self, stats=None):
        """Fold the spans recorded since the last call into `stats`."""
        stats = self.stats if stats is None else stats
        spans, fields = self._spans, self._fields
        stats.ops += 1
        layer_self, calls, incl = stats.layer_self, stats.calls, stats.incl
        derived = stats.derived
        in_frs_decode = []
        for name, _start, duration, parent, self_s, failed in spans:
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + self_s
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + duration
            if failed:
                stats.failures[name] = stats.failures.get(name, 0) + 1
            parent_name = spans[parent][0] if parent >= 0 else None
            inside = parent >= 0 and (
                in_frs_decode[parent]
                or parent_name == "frs_scheme.frs_decode_trial")
            in_frs_decode.append(inside)
            if (name == "rs.rs_decode_unique"
                    and parent_name == "trace_scheme.ts_decode_message"):
                derived["stream_decode"] += duration
            elif name == "polyring.interpolate" and inside:
                derived["frs_decode_interpolations"] += 1
            elif (name == "harness.run_trial"
                  and parent_name == "harness.simulate"):
                derived["simulate_trials"] += 1
            elif name in _IO_SPANS and parent_name != "serialization.dump_json":
                derived["io"] += duration
        for (method, parent), (count, self_s) in fields.items():
            layer_self["fields"] = layer_self.get("fields", 0.0) + self_s
            stats.field_calls[method] = stats.field_calls.get(method, 0) + count
            parent_name = spans[parent][0] if parent >= 0 else "-"
            acc = stats.field_by_parent.setdefault(f"{method} <- {parent_name}",
                                                   [0, 0.0])
            acc[0] += count
            acc[1] += self_s
        if len(stats.raw) < KEEP_RAW_OPS:
            stats.raw.append([list(s) for s in spans[:KEEP_RAW_SPANS]])
        spans.clear()
        fields.clear()


def _per(total, count):
    return total / count if count else 0.0


def layer_metrics(stats, setup, op_s, extra):
    """Per-layer metric values from folded trace data.

    stats: spans of the traced ops; setup: spans of config construction done
    outside the ops (empty for the CLI, where every command builds its own);
    op_s: summed wall time of the traced ops; extra: values measured outside
    the spans (first-round counts, process start, overhead ratio).
    """
    ops = stats.ops
    both = Stats()
    both.merge(stats)
    both.merge(setup)

    def per_op_ms(seconds):
        return 1e3 * _per(seconds, ops)

    def calls_per_op(name):
        return _per(stats.calls.get(name, 0), ops)

    def incl_ms(name):
        return per_op_ms(stats.incl.get(name, 0.0))

    def per_call_s(name):
        return _per(both.incl.get(name, 0.0), both.calls.get(name, 0))

    def field_calls(cls_name):
        return _per(sum(count for method, count in stats.field_calls.items()
                        if method.startswith(cls_name + ".")), ops)

    derived = stats.derived
    frs_decodes = stats.calls.get("frs_scheme.frs_decode_trial", 0)
    frs_accepted = frs_decodes - stats.failures.get(
        "frs_scheme.frs_decode_trial", 0)
    frs_interp = derived["frs_decode_interpolations"]
    values = {f"{layer}.self_ms": per_op_ms(stats.layer_self.get(layer, 0.0))
              for layer in LAYERS}
    values.update({
        "fields.prime_calls": field_calls("PrimeField"),
        "fields.ext_calls": field_calls("ExtField"),
        "fields.default_modulus_s": per_call_s("fields.default_modulus"),
        "fields.dual_basis_s": per_call_s("fields.dual_basis"),
        "polyring.interpolate_calls": calls_per_op("polyring.interpolate"),
        "polyring.interpolate_incl_ms": incl_ms("polyring.interpolate"),
        "polyring.poly_eval_calls": calls_per_op("polyring.poly_eval"),
        "polyring.poly_divmod_calls": calls_per_op("polyring.poly_divmod"),
        "rs.decode_unique_calls": calls_per_op("rs.rs_decode_unique"),
        "rs.decode_unique_incl_ms": incl_ms("rs.rs_decode_unique"),
        "arraycode.apply_error_pattern_incl_ms": incl_ms(
            "arraycode.apply_error_pattern"),
        "trace_scheme.config_s": per_call_s("trace_scheme.ts_make_config"),
        "trace_scheme.encode_incl_ms": incl_ms("trace_scheme.ts_encode"),
        "trace_scheme.download_incl_ms": incl_ms(
            "trace_scheme.ts_download_all"),
        "trace_scheme.stream_decode_ms": per_op_ms(derived["stream_decode"]),
        "trace_scheme.peel_ms": (incl_ms("trace_scheme.ts_decode_message")
                                 - per_op_ms(derived["stream_decode"])),
        "frs_scheme.encode_incl_ms": incl_ms("frs_scheme.frs_encode"),
        "frs_scheme.decode_incl_ms": incl_ms("frs_scheme.frs_decode_trial"),
        "frs_scheme.interpolations_per_decode": _per(frs_interp, frs_decodes),
        "frs_scheme.accept_ratio": _per(frs_accepted, frs_interp),
        "harness.simulate_ms_per_trial": 1e3 * _per(
            stats.incl.get("harness.simulate", 0.0),
            derived["simulate_trials"]),
        "harness.compare_naive_incl_ms": incl_ms("harness.compare_naive"),
        "serialization.config_from_dict_incl_ms": incl_ms(
            "serialization.config_from_dict"),
        "serialization.io_ms": per_op_ms(derived["io"]),
        "trace.op_ms": per_op_ms(op_s),
    })
    values.update(extra)
    return values
