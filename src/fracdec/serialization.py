"""JSON file formats for configs, codewords, downloads, and messages.

Every file carries "format": 1, an integer. Field elements are canonical
integers. Config files may omit defaultable fields (omega, A, modulus,
zeta for the trace scheme); files written by this module are always fully
explicit so a run can be reproduced without knowing the defaults.

Importing this module loads no scheme: reading a config imports the one
module of the scheme it names, and a config is written by its `scheme`.
"""

import json
import sys

FORMAT = 1


class FormatError(ValueError):
    """A file failed structural validation before any math ran."""


def _require(cond, message):
    if not cond:
        raise FormatError(message)


def _check_format(data, what):
    _require(isinstance(data, dict), f"{what} must be a JSON object")
    version = data.get("format", FORMAT)
    _require(_is_int(version) and version == FORMAT,
             f"{what} has format {version!r}, this build reads format {FORMAT}")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _int_list(value, what):
    _require(isinstance(value, list) and all(_is_int(v) for v in value),
             f"{what} must be a list of integers")
    return [int(v) for v in value]


def config_to_dict(cfg):
    scheme = getattr(cfg, "scheme", None)
    if scheme == "ts":
        return {
            "format": FORMAT,
            "scheme": "ts",
            "q": cfg.base.q,
            "n": cfg.n,
            "k": cfg.k,
            "l": cfg.l,
            "m": cfg.m,
            "omega": list(cfg.omega),
            "A": [list(s) for s in cfg.subsets],
            "modulus": list(cfg.ext.modulus),
            "zeta": list(cfg.basis.zeta),
        }
    if scheme == "frs":
        return {
            "format": FORMAT,
            "scheme": "frs",
            "p": cfg.field.q,
            "gamma": cfg.gamma,
            "n": cfg.n,
            "k": cfg.k,
            "l": cfg.l,
            "alpha": str(cfg.alpha),
        }
    raise TypeError(f"unsupported config type {type(cfg).__name__}")


def config_from_dict(data):
    _check_format(data, "config file")
    scheme = data.get("scheme")
    _require(scheme in ("ts", "frs"),
             f"config scheme must be 'ts' or 'frs', got {scheme!r}")
    if scheme == "ts":
        for key in ("q", "n", "k", "l", "m"):
            _require(_is_int(data.get(key)),
                     f"ts config needs integer field {key!r}")
        omega = data.get("omega")
        subsets = data.get("A")
        _require(subsets is None or isinstance(subsets, list),
                 "ts config field 'A' must be a list of integer lists")
        modulus = data.get("modulus")
        zeta = data.get("zeta")
        from .trace_scheme import ts_make_config
        return ts_make_config(
            data["q"], data["n"], data["k"], data["l"], data["m"],
            omega=None if omega is None else _int_list(omega, "omega"),
            subsets=None if subsets is None else
            tuple(_int_list(s, "A entry") for s in subsets),
            modulus=None if modulus is None else _int_list(modulus, "modulus"),
            zeta=None if zeta is None else _int_list(zeta, "zeta"),
        )
    for key in ("n", "k", "l"):
        _require(_is_int(data.get(key)),
                 f"frs config needs integer field {key!r}")
    for key in ("p", "gamma"):
        _require(data.get(key) is None or _is_int(data[key]),
                 f"frs config field {key!r} must be an integer")
    _require("alpha" in data, "frs config needs field 'alpha'")
    from .frs_scheme import frs_make_config
    from .rationals import as_fraction
    try:
        alpha = as_fraction(data["alpha"])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad alpha value: {exc}") from exc
    return frs_make_config(data["n"], data["k"], data["l"], alpha,
                           p=data.get("p"), gamma=data.get("gamma"))


def codeword_to_dict(scheme, columns):
    return {
        "format": FORMAT,
        "scheme": scheme,
        "columns": [list(c) for c in columns],
    }


def codeword_from_dict(data, expected_scheme=None):
    _check_format(data, "codeword file")
    scheme = data.get("scheme")
    if expected_scheme is not None:
        _require(scheme == expected_scheme,
                 f"codeword file is for scheme {scheme!r}, expected "
                 f"{expected_scheme!r}")
    columns = data.get("columns")
    _require(isinstance(columns, list) and columns,
             "codeword file needs a nonempty 'columns' list")
    return tuple(tuple(_int_list(c, "column")) for c in columns)


def bundle_to_dict(bundle):
    return {
        "format": FORMAT,
        "perColumn": [list(c) for c in bundle.per_column],
        "downloaded": bundle.downloaded,
        "accessed": bundle.accessed,
    }


def bundle_from_dict(data):
    _check_format(data, "download file")
    per_column = data.get("perColumn", data.get("columns"))
    _require(isinstance(per_column, list) and per_column,
             "download file needs a nonempty 'perColumn' (or 'columns') list")
    columns = tuple(tuple(_int_list(c, "download column")) for c in per_column)
    total = sum(len(c) for c in columns)
    from .arraycode import DownloadBundle
    return DownloadBundle(
        per_column=columns,
        downloaded=data.get("downloaded", total),
        accessed=data.get("accessed", total),
    )


def message_to_dict(scheme, message):
    return {
        "format": FORMAT,
        "scheme": scheme,
        "message": list(message),
    }


def message_from_dict(data):
    _check_format(data, "message file")
    return tuple(_int_list(data.get("message"), "message"))


def load_json(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_json(path, data):
    write_text(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def write_text(path, text):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
