"""File-format tests: round trips, defaults, and structural rejection."""

import io
from pathlib import Path

import pytest

from fracdec.arraycode import DownloadBundle
from fracdec.frs_scheme import frs_make_config
from fracdec.serialization import (FormatError, bundle_from_dict,
                                   bundle_to_dict, codeword_from_dict,
                                   codeword_to_dict, config_from_dict,
                                   config_to_dict, dump_json, load_json,
                                   message_from_dict, message_to_dict,
                                   write_text)
from fracdec.trace_scheme import ts_make_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_shipped_configs_round_trip():
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert len(paths) == 5
    for path in paths:
        cfg = config_from_dict(load_json(str(path)))
        echoed = config_from_dict(config_to_dict(cfg))
        assert echoed == cfg


def test_ts_config_defaults_fill_in():
    minimal = {"scheme": "ts", "q": 13, "n": 12, "k": 4, "l": 4, "m": 2}
    cfg = config_from_dict(minimal)
    assert cfg == ts_make_config(13, 12, 4, 4, 2)
    full = config_to_dict(cfg)
    for key in ("omega", "A", "modulus", "zeta"):
        assert key in full           # written files are always explicit
    assert full["omega"] == list(range(12))
    assert full["A"] == [[0, 1], [2, 3]]


def test_frs_config_defaults_fill_in():
    minimal = {"scheme": "frs", "n": 8, "k": 3, "l": 4, "alpha": "3/4"}
    cfg = config_from_dict(minimal)
    assert cfg.field.q == 37 and cfg.gamma == 2
    full = config_to_dict(cfg)
    assert full["p"] == 37 and full["gamma"] == 2 and full["alpha"] == "3/4"


def test_config_structural_rejection():
    with pytest.raises(FormatError):
        config_from_dict([])
    with pytest.raises(FormatError):
        config_from_dict({"format": 2, "scheme": "ts"})
    with pytest.raises(FormatError):
        config_from_dict({"scheme": "rs"})
    with pytest.raises(FormatError):
        config_from_dict({"scheme": "ts", "q": "13", "n": 12, "k": 4,
                          "l": 4, "m": 2})
    with pytest.raises(FormatError):
        config_from_dict({"scheme": "frs", "n": 8, "k": 3, "l": 4})
    with pytest.raises(FormatError):
        config_from_dict({"scheme": "frs", "n": 8, "k": 3, "l": 4,
                          "alpha": 0.75})
    with pytest.raises(FormatError, match="bad alpha value: '1/0' has a zero"):
        config_from_dict({"scheme": "frs", "n": 8, "k": 3, "l": 4,
                          "alpha": "1/0"})
    for subsets in (5, "ab", {"0": [0, 1]}):
        with pytest.raises(FormatError, match="'A' must be a list"):
            config_from_dict(dict(TS_MINIMAL, A=subsets))
    # m is read, not overridden by the number of subsets A
    with pytest.raises(ValueError, match="m = 2 needs 2 subsets A, got 1"):
        config_from_dict({"scheme": "ts", "q": 13, "n": 12, "k": 2, "l": 4,
                          "m": 2, "A": [[0, 1]]})


TS_MINIMAL = {"scheme": "ts", "q": 13, "n": 12, "k": 4, "l": 4, "m": 2}
FRS_FULL = {"scheme": "frs", "p": 37, "gamma": 2, "n": 8, "k": 3, "l": 4,
            "alpha": "3/4"}


@pytest.mark.parametrize("base, key, value", [
    *((TS_MINIMAL, key, value) for key in ("q", "n", "k", "l", "m")
      for value in (True, 4.0)),
    *((FRS_FULL, key, value) for key in ("p", "gamma", "n", "k", "l")
      for value in (True, 2.0)),
    (FRS_FULL, "p", 37.0),
    (TS_MINIMAL, "q", 13.0),
])
def test_config_rejects_non_integer_scalars(base, key, value):
    """Floats and bools stop at the boundary with the field named, not deep
    inside the math (p = 37.0 used to fail in pow(), k = true read as 1)."""
    with pytest.raises(FormatError, match=repr(key)):
        config_from_dict(dict(base, **{key: value}))


def test_codeword_round_trip_and_scheme_check():
    cfg = ts_make_config(5, 4, 2, 2, 2)
    word = cfg.encode((3, 1))
    data = codeword_to_dict("ts", word)
    assert codeword_from_dict(data, "ts") == word
    assert codeword_from_dict(data) == word
    with pytest.raises(FormatError):
        codeword_from_dict(data, "frs")
    with pytest.raises(FormatError):
        codeword_from_dict({"scheme": "ts", "columns": []})
    with pytest.raises(FormatError):
        codeword_from_dict({"scheme": "ts", "columns": [[True, 0]]})


def test_bundle_round_trip_and_aliases():
    bundle = DownloadBundle(per_column=((1, 2), (3, 4)), downloaded=4,
                            accessed=8)
    data = bundle_to_dict("ts", bundle)
    assert data["perColumn"] == [[1, 2], [3, 4]]
    assert data["scheme"] == "ts"
    assert bundle_from_dict(data) == bundle
    assert bundle_from_dict(data, "ts") == bundle
    for other in ({**data, "scheme": "frs"}, {"perColumn": [[1, 2]]}):
        with pytest.raises(FormatError, match="download file is for scheme"):
            bundle_from_dict(other, "ts")
    # readers accept the codeword-style key and default the accounting
    alias = {"columns": [[1, 2], [3, 4]]}
    got = bundle_from_dict(alias)
    assert got.per_column == ((1, 2), (3, 4))
    assert got.downloaded == got.accessed == 4
    with pytest.raises(FormatError):
        bundle_from_dict({"perColumn": []})
    zero = bundle_from_dict(dict(alias, downloaded=0, accessed=0))
    assert zero.downloaded == zero.accessed == 0


@pytest.mark.parametrize("key", ("downloaded", "accessed"))
@pytest.mark.parametrize("value", ("lots", True, False, -1, 2.0, None, [4]),
                         ids=repr)
def test_bundle_counts_must_be_nonnegative_integers(key, value):
    with pytest.raises(FormatError, match="must be nonnegative integers"):
        bundle_from_dict({"perColumn": [[1, 2], [3, 4]], key: value})


def test_message_round_trip():
    data = message_to_dict("frs", (1, 2, 3))
    assert data == {"format": 1, "scheme": "frs", "message": [1, 2, 3]}
    assert message_from_dict(data) == (1, 2, 3)
    assert message_from_dict(data, "frs") == (1, 2, 3)
    for other in ({**data, "scheme": "ts"}, {"format": 1, "message": [1]}):
        with pytest.raises(FormatError, match="message file is for scheme"):
            message_from_dict(other, "frs")
    with pytest.raises(FormatError):
        message_from_dict({"format": 1})
    with pytest.raises(FormatError):
        message_from_dict({"message": [1, None]})


def test_file_io_round_trip(tmp_path):
    path = str(tmp_path / "blob.json")
    dump_json(path, {"b": 2, "a": 1})
    text = Path(path).read_text(encoding="utf-8")
    assert text == '{\n  "a": 1,\n  "b": 2\n}\n'   # sorted, trailing newline
    assert load_json(path) == {"a": 1, "b": 2}
    write_text(str(tmp_path / "t.txt"), "hello\n")
    assert (tmp_path / "t.txt").read_text() == "hello\n"


def test_stdin_stdout_dash(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"x": 5}'))
    assert load_json("-") == {"x": 5}
    write_text("-", "streamed\n")
    assert capsys.readouterr().out == "streamed\n"


def test_encode_decode_through_files(tmp_path):
    """A full artifact chain survives the disk: config -> encode -> json ->
    reload -> identical columns."""
    cfg = config_from_dict(load_json(str(CONFIG_DIR / "frs-p37-n8-k3.json")))
    assert cfg == frs_make_config(8, 3, 4, "3/4")
    msg = tuple(range(12))
    word = cfg.encode(msg)
    path = str(tmp_path / "word.json")
    dump_json(path, codeword_to_dict("frs", word))
    assert codeword_from_dict(load_json(path), "frs") == word
