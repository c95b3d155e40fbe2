"""Command-line tests, run in-process through main(argv).

Exit code contract: 0 success, 1 decode failure, 2 usage/config/format
errors (including budget refusals).
"""

import json
import re
import time
from pathlib import Path

import pytest

from fracdec.cli import build_parser, main
from fracdec.serialization import load_json

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
TS_REF = str(CONFIG_DIR / "ts-q13-n12-k4.json")
TS_SMALL = str(CONFIG_DIR / "ts-q17-n10-k4.json")
TS_TINY = str(CONFIG_DIR / "ts-q5-n4-k2.json")
FRS_REF = str(CONFIG_DIR / "frs-p37-n8-k3.json")
FRS_TINY = str(CONFIG_DIR / "frs-p19-n6-k1.json")


def write_message(tmp_path, scheme, message, name="msg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(
        {"format": 1, "scheme": scheme, "message": list(message)}))
    return str(path)


def test_ts_pipeline_round_trip(tmp_path):
    msg = write_message(tmp_path, "ts", (5, 0, 11, 2))
    word, bad, down, out = (str(tmp_path / n) for n in
                            ("w.json", "c.json", "d.json", "m.json"))
    assert main(["ts", "encode", "--config", TS_REF, "--message", msg,
                 "--out", word]) == 0
    assert main(["ts", "corrupt", "--config", TS_REF, "--in", word,
                 "--positions", "2,7", "--out", bad]) == 0
    clean = load_json(word)["columns"]
    dirty = load_json(bad)["columns"]
    assert [i for i in range(12) if clean[i] != dirty[i]] == [2, 7]
    assert main(["ts", "download", "--config", TS_REF, "--in", bad,
                 "--out", down]) == 0
    bundle = load_json(down)
    assert bundle["downloaded"] == 24 and bundle["accessed"] == 48
    assert all(len(c) == 2 for c in bundle["perColumn"])
    assert main(["ts", "decode", "--config", TS_REF, "--in", down,
                 "--out", out]) == 0
    assert load_json(out)["message"] == [5, 0, 11, 2]
    assert load_json(out)["correctedColumns"] == [2, 7]


def test_frs_pipeline_round_trip(tmp_path):
    msg = write_message(tmp_path, "frs", tuple(range(12)))
    word, bad, down, out = (str(tmp_path / n) for n in
                            ("w.json", "c.json", "d.json", "m.json"))
    assert main(["frs", "encode", "--config", FRS_REF, "--message", msg,
                 "--out", word]) == 0
    assert main(["frs", "corrupt", "--config", FRS_REF, "--in", word,
                 "--weight", "2", "--seed", "3", "--out", bad]) == 0
    assert main(["frs", "download", "--config", FRS_REF, "--in", bad,
                 "--out", down]) == 0
    bundle = load_json(down)
    assert bundle["downloaded"] == bundle["accessed"] == 24
    assert all(len(c) == 3 for c in bundle["perColumn"])
    assert main(["frs", "decode", "--config", FRS_REF, "--in", down,
                 "--out", out]) == 0
    decoded = load_json(out)
    assert decoded["message"] == list(range(12))
    clean = load_json(word)["columns"]
    dirty = load_json(bad)["columns"]
    prefix_hit = [i for i in range(8) if clean[i][:3] != dirty[i][:3]]
    assert decoded["correctedColumns"] == prefix_hit


def test_corrupt_is_deterministic(tmp_path):
    msg = write_message(tmp_path, "ts", (1, 2, 3, 4))
    word = str(tmp_path / "w.json")
    main(["ts", "encode", "--config", TS_REF, "--message", msg, "--out", word])
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for out in (a, b):
        assert main(["ts", "corrupt", "--config", TS_REF, "--in", word,
                     "--weight", "2", "--seed", "9", "--out", out]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_corrupt_argument_exclusivity(tmp_path):
    msg = write_message(tmp_path, "ts", (1, 2, 3, 4))
    word = str(tmp_path / "w.json")
    main(["ts", "encode", "--config", TS_REF, "--message", msg, "--out", word])
    base = ["ts", "corrupt", "--config", TS_REF, "--in", word,
            "--out", str(tmp_path / "c.json")]
    assert main(base) == 2                                     # neither
    assert main(base + ["--positions", "1", "--weight", "1"]) == 2   # both
    assert main(base + ["--positions", "1,1"]) == 2            # repeat
    assert main(base + ["--positions", "12"]) == 2             # out of range
    assert main(base + ["--weight", "13"]) == 2
    assert main(base + ["--positions", "1,x"]) == 2


@pytest.mark.parametrize("scheme, config, message", [
    ("ts", TS_REF, (5, 0, 11, 2)),
    ("frs", FRS_REF, tuple(range(12))),
], ids=["ts", "frs"])
def test_decode_failure_exits_one(tmp_path, capsys, scheme, config, message):
    msg = write_message(tmp_path, scheme, message)
    word, bad, down, out = (tmp_path / n for n in
                            ("w.json", "c.json", "d.json", "m.json"))
    main([scheme, "encode", "--config", config, "--message", msg,
          "--out", str(word)])
    main([scheme, "corrupt", "--config", config, "--in", str(word),
          "--weight", "4", "--seed", "0", "--out", str(bad)])
    main([scheme, "download", "--config", config, "--in", str(bad),
          "--out", str(down)])
    assert main([scheme, "decode", "--config", config, "--in", str(down),
                 "--out", str(out)]) == 1
    assert "decode failure" in capsys.readouterr().err
    assert not out.exists()


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(dict(data, format=1)))
    return str(path)


# One symbol equal to the field size, planted where no arithmetic touches it:
# in a column the corruption misses, or in a download the oracle only
# compares. Column 3 of ts-q5-n4-k2 holds a 5 over GF(5); frs-p19-n6-k1
# holds a 19 over GF(19).
@pytest.mark.parametrize("argv, infile", [
    (["ts", "corrupt", "--config", TS_TINY, "--positions", "0", "--in"],
     ("codeword", {"scheme": "ts",
                   "columns": [[0, 0], [0, 0], [0, 0], [5, 0]]})),
    (["frs", "corrupt", "--config", FRS_TINY, "--positions", "0", "--in"],
     ("codeword", {"scheme": "frs",
                   "columns": [[0, 0, 0]] * 5 + [[19, 0, 0]]})),
    (["frs", "download", "--config", FRS_TINY, "--in"],
     ("codeword", {"scheme": "frs",
                   "columns": [[0, 0, 0]] * 5 + [[19, 0, 0]]})),
    (["oracle", "list", "--config", FRS_TINY, "--radius", "1", "--word"],
     ("download", {"scheme": "frs", "perColumn": [[0]] * 5 + [[19]]})),
], ids=["ts-corrupt", "frs-corrupt", "frs-download", "oracle-list"])
def test_out_of_field_symbol_exits_two(tmp_path, capsys, argv, infile):
    name, data = infile
    out = tmp_path / "out.json"
    assert main(argv + [write_json(tmp_path, name + ".json", data),
                        "--out", str(out)]) == 2
    assert "not a canonical element" in capsys.readouterr().err
    assert not out.exists()


ZERO_ALPHA_FRS = {"scheme": "frs", "n": 8, "k": 3, "l": 4, "alpha": "1/0"}


@pytest.mark.parametrize("argv, config", [
    (["bounds", "--n", "5", "--k", "2", "--alpha", "1/0"], None),
    (["figure", "--rate", "1/0"], None),
    (["simulate", "--weights", "0", "--config"], ZERO_ALPHA_FRS),
    (["frs", "encode", "--message", "msg.json", "--config"], ZERO_ALPHA_FRS),
], ids=["bounds", "figure", "simulate", "frs-encode"])
def test_zero_denominator_exits_two(tmp_path, capsys, monkeypatch, argv,
                                    config):
    """A zero denominator is a usage error (exit 2, one line, no artifact),
    not a ZeroDivisionError inside the formulas."""
    monkeypatch.chdir(tmp_path)
    if config is not None:
        argv = argv + [write_json(tmp_path, "cfg.json", config)]
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'1/0' has a zero denominator" in err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, config", [
    (["bounds", "--n", "12", "--k", "4", "--alpha", "1e-20000000"], None),
    (["simulate", "--weights", "0", "--config"],
     dict(ZERO_ALPHA_FRS, alpha="1e-2000000")),
], ids=["bounds", "simulate"])
def test_huge_decimal_exponent_exits_two(tmp_path, capsys, monkeypatch, argv,
                                         config):
    """An alpha whose decimal exponent passes 4300 in magnitude is a usage
    error, refused in one line well under a second; Fraction alone spent
    over a second expanding such a string, and longer on `bounds`."""
    monkeypatch.chdir(tmp_path)
    if config is not None:
        argv = argv + [write_json(tmp_path, "cfg.json", config)]
    out = tmp_path / "out.json"
    start = time.perf_counter()
    assert main(argv + ["--out", str(out)]) == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert "decimal exponent of magnitude above 4300" in err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert not out.exists()


LONG_DIGITS = "1/" + "1" * 5000
TINY_DECIMAL = "0." + "0" * 4000 + "1"


@pytest.mark.parametrize("argv, config, says", [
    (["bounds", "--n", "12", "--k", "4", "--alpha", LONG_DIGITS], None,
     "has more than 4300 digits"),
    (["bounds", "--n", "12", "--k", "4", "--alpha", "1e" + "9" * 5000], None,
     "decimal exponent of magnitude above 4300"),
    (["bounds", "--n", "12", "--k", "4", "--alpha", TINY_DECIMAL], None,
     "alpha = 1/<4002 digits> must lie in [k/n, 1]"),
    (["bounds", "--n", "12", "--k", "4", "--alpha", "1e4300"], None,
     "alpha = <4301 digits> must lie in [k/n, 1]"),
    (["figure", "--rate", "1e4300"], None, "got <4301 digits>"),
    (["simulate", "--weights", "0", "--config"],
     dict(ZERO_ALPHA_FRS, alpha=TINY_DECIMAL, p=37, gamma=2),
     "alpha*l = 1/<4001 digits> must be an integer"),
], ids=["bounds-digits", "bounds-exponent", "bounds-tiny", "bounds-huge",
        "figure-huge", "simulate-tiny"])
def test_long_rationals_exit_two_in_one_short_line(tmp_path, capsys,
                                                   monkeypatch, argv, config,
                                                   says):
    """A rational of thousands of digits is a usage error in our own words:
    past 4300 digits it is refused where it is read, not with CPython's
    int-limit text, and a shorter one that fails a range check is named by
    its digit count, not printed (str() of an int raises past 4300 digits
    anyway). Each refusal is one line under 200 characters, in under half
    a second."""
    monkeypatch.chdir(tmp_path)
    if config is not None:
        argv = argv + [write_json(tmp_path, "cfg.json", config)]
    out = tmp_path / "out.json"
    start = time.perf_counter()
    assert main(argv + ["--out", str(out)]) == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert says in err and "integer string conversion" not in err
    assert len(err.splitlines()) == 1 and len(err) < 200
    assert not out.exists()


def test_figure_steps_are_capped(tmp_path, capsys):
    """`figure` builds every row in memory, so --steps past the cap is a
    usage error before any row is built; the cap itself still runs."""
    out = tmp_path / "fig.csv"
    start = time.perf_counter()
    assert main(["figure", "--rate", "1/3", "--steps", "100000000",
                 "--out", str(out)]) == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err == "error: at most 10000 sweep points (--steps), got 100000000\n"
    assert not out.exists()
    assert main(["figure", "--rate", "1/3", "--steps", "10000",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 10001


def test_subset_count_must_match_m(tmp_path, capsys):
    """A trace config with fewer subsets A than m used to load with m
    silently lowered to len(A)."""
    config = write_json(tmp_path, "ts.json", {
        "scheme": "ts", "q": 13, "n": 12, "k": 2, "l": 4, "m": 2,
        "A": [[0, 1]]})
    out = tmp_path / "cmp.json"
    assert main(["compare-naive", "--config", config, "--t", "2",
                 "--out", str(out)]) == 2
    assert "m = 2 needs 2 subsets A, got 1" in capsys.readouterr().err
    assert not out.exists()


def test_subsets_must_be_a_list(tmp_path, capsys):
    """"A": 5 used to fail inside the config builder with "'int' object is
    not iterable"; it stops at the boundary with the field named."""
    config = write_json(tmp_path, "ts.json", {
        "scheme": "ts", "q": 13, "n": 12, "k": 4, "l": 4, "m": 2, "A": 5})
    out = tmp_path / "cmp.json"
    assert main(["compare-naive", "--config", config, "--t", "2",
                 "--out", str(out)]) == 2
    assert ("ts config field 'A' must be a list of integer lists"
            in capsys.readouterr().err)
    assert not out.exists()


def test_bounds_command(tmp_path):
    out = str(tmp_path / "b.json")
    assert main(["bounds", "--n", "12", "--k", "4", "--alpha", "1/2",
                 "--out", out]) == 0
    data = load_json(out)
    assert data["naive"] == 1 and data["optimal"] == 2
    assert data["rate"] == "1/3"
    assert data["naiveNormalized"] == "1/12"
    assert data["optimalNormalized"] == "1/6"
    assert data["listCapacity"] == "1/3"
    assert main(["bounds", "--n", "12", "--k", "4", "--alpha", "1/4",
                 "--out", out]) == 2      # below the rate
    assert main(["bounds", "--n", "12", "--k", "4", "--alpha", "3/2",
                 "--out", out]) == 2      # above the whole word
    assert main(["bounds", "--n", "12", "--k", "4", "--alpha", "0.5001x",
                 "--out", out]) == 2


def test_figure_command(tmp_path):
    out = str(tmp_path / "f.csv")
    assert main(["figure", "--rate", "2/5", "--steps", "5",
                 "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines == [
        "alpha,naive_normalized,optimal_normalized",
        "0.400000,0.000000,0.000000",
        "0.550000,0.075000,0.136364",
        "0.700000,0.150000,0.214286",
        "0.850000,0.225000,0.264706",
        "1.000000,0.300000,0.300000",
    ]
    assert main(["figure", "--rate", "1", "--out", out]) == 2


def test_figure_stdout_default(capsys):
    assert main(["figure", "--rate", "1/2", "--steps", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "alpha,naive_normalized,optimal_normalized"
    assert out.splitlines()[-1] == "1.000000,0.250000,0.250000"


def test_simulate_command_byte_identical(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    argv = ["simulate", "--config", TS_TINY, "--weights", "0,1",
            "--trials-per-weight", "2", "--seed", "7"]
    assert main(argv + ["--out", a]) == 0
    assert main(argv + ["--out", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()
    report = load_json(a)
    assert report["scheme"] == "ts" and report["radius"] == 1
    weights = {row["weight"]: row for row in report["perWeight"]}
    assert weights[0]["trials"] == 2          # C(4,0) * 2
    assert weights[1]["trials"] == 8          # C(4,1) * 2
    assert all(row["successes"] == row["trials"]
               for row in report["perWeight"])


def test_simulate_repeated_weight_exits_two(tmp_path, capsys):
    """A weight listed twice is a usage error, like a repeated --positions
    column: exit 2, one error line, no report."""
    out = tmp_path / "r.json"
    assert main(["simulate", "--config", TS_TINY, "--weights", "1,1",
                 "--trials-per-weight", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: weights must not repeat\n"
    assert not out.exists()


def test_simulate_sampled_mode(tmp_path):
    out = str(tmp_path / "r.json")
    assert main(["simulate", "--config", FRS_REF, "--weights", "2,3",
                 "--trials-per-weight", "5", "--seed", "1",
                 "--mode", "sampled", "--out", out]) == 0
    report = load_json(out)
    rows = {row["weight"]: row for row in report["perWeight"]}
    assert rows[2]["successes"] == 5
    assert rows[3]["successes"] < 5
    assert rows[3]["detectedFailures"] + rows[3]["silentFailures"] \
        + rows[3]["successes"] == 5


def test_compare_naive_command(tmp_path):
    out = str(tmp_path / "cmp.json")
    for cfg in (TS_REF, FRS_REF):
        assert main(["compare-naive", "--config", cfg, "--t", "2",
                     "--out", out]) == 0
        data = load_json(out)
        assert data["separated"] is True
        assert data["downloadedNaive"] == data["downloadedFractional"]
        assert data["naiveOutcome"] in ("failed", "miscorrected")
        assert data["fractionalOutcome"] == "recovered"
    assert main(["compare-naive", "--config", TS_REF, "--t", "9",
                 "--out", out]) == 2


@pytest.mark.parametrize("seed, code", [(-1, 2), (2 ** 64, 2),
                                        (2 ** 64 - 1, 0)],
                         ids=["minus-one", "two-to-the-64", "top"])
def test_seed_must_fit_64_bits(tmp_path, capsys, seed, code):
    """corrupt, simulate and compare-naive take one seed range, [0, 2^64):
    the trial streams read 64 bits, so -1 would replay 2^64 - 1 and 2^64
    would replay 0. A seed outside it exits 2 and writes nothing."""
    msg = write_message(tmp_path, "ts", (1, 2, 3, 4))
    word, out = str(tmp_path / "w.json"), tmp_path / "out.json"
    assert main(["ts", "encode", "--config", TS_REF, "--message", msg,
                 "--out", word]) == 0
    for argv in (["ts", "corrupt", "--config", TS_REF, "--in", word,
                  "--weight", "2"],
                 ["simulate", "--config", TS_TINY, "--weights", "0,1",
                  "--trials-per-weight", "1"],
                 ["compare-naive", "--config", TS_REF, "--t", "2"]):
        assert main(argv + ["--seed", str(seed), "--out", str(out)]) == code
        assert out.exists() == (code == 0)
        expected = "" if code == 0 else (
            f"error: seed must be an integer in [0, 2**64), got {seed}\n")
        assert capsys.readouterr().err == expected
        out.unlink(missing_ok=True)


def test_download_counts_must_be_nonnegative_integers(tmp_path, capsys):
    msg = write_message(tmp_path, "ts", (1, 2, 3, 4))
    word, down, out = (str(tmp_path / n) for n in
                       ("w.json", "d.json", "m.json"))
    main(["ts", "encode", "--config", TS_REF, "--message", msg, "--out", word])
    main(["ts", "download", "--config", TS_REF, "--in", word, "--out", down])
    bundle = load_json(down)
    for counts in ({"downloaded": "lots", "accessed": True},
                   {"downloaded": -1}, {"accessed": 48.0}):
        bad = write_json(tmp_path, "bad.json", {**bundle, **counts})
        assert main(["ts", "decode", "--config", TS_REF, "--in", bad,
                     "--out", out]) == 2
        assert "must be nonnegative integers" in capsys.readouterr().err
        assert not Path(out).exists()
    del bundle["downloaded"], bundle["accessed"]
    absent = write_json(tmp_path, "absent.json", bundle)
    assert main(["ts", "decode", "--config", TS_REF, "--in", absent,
                 "--out", out]) == 0
    assert load_json(out)["message"] == [1, 2, 3, 4]


def test_encode_refuses_a_message_for_the_other_scheme(tmp_path, capsys):
    msg = write_message(tmp_path, "frs", (1, 2, 3, 4))
    out = tmp_path / "w.json"
    assert main(["ts", "encode", "--config", TS_REF, "--message", msg,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: message file is for scheme 'frs', expected 'ts'\n")
    assert not out.exists()


@pytest.mark.parametrize("producer, consumer", [
    (("frs", FRS_TINY, (3, 14, 9)), ["ts", "decode", "--config", "ts.json"]),
    (("ts", TS_TINY, (7, 12)), ["frs", "decode", "--config", FRS_TINY]),
    (("ts", TS_TINY, (7, 12)),
     ["oracle", "list", "--config", FRS_TINY, "--radius", "1"]),
], ids=["frs-to-ts-decode", "ts-to-frs-decode", "ts-to-oracle-list"])
def test_download_file_for_the_other_scheme_exits_two(tmp_path, capsys,
                                                      monkeypatch, producer,
                                                      consumer):
    """A download file names its scheme, and the commands that read one
    refuse the other scheme's. Without that, a frs-p19-n6-k1 download (6
    columns of 1 symbol) fits the decoder of the trace config
    q=19, n=6, k=1, l=3, m=1, which ran and reported a decode failure."""
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path, "ts.json",
               {"scheme": "ts", "q": 19, "n": 6, "k": 1, "l": 3, "m": 1})
    scheme, config, message = producer
    msg = write_message(tmp_path, scheme, message)
    word, down = str(tmp_path / "w.json"), str(tmp_path / "d.json")
    assert main([scheme, "encode", "--config", config, "--message", msg,
                 "--out", word]) == 0
    assert main([scheme, "download", "--config", config, "--in", word,
                 "--out", down]) == 0
    assert load_json(down)["scheme"] == scheme
    out = tmp_path / "out.json"
    flag = "--word" if consumer[0] == "oracle" else "--in"
    assert main(consumer + [flag, down, "--out", str(out)]) == 2
    other = "ts" if scheme == "frs" else "frs"
    assert capsys.readouterr().err == (
        f"error: download file is for scheme {scheme!r}, expected {other!r}\n")
    assert not out.exists()


def test_oracle_nearest(tmp_path):
    out = str(tmp_path / "n.json")
    assert main(["oracle", "nearest", "--q", "5", "--k", "1",
                 "--received", "1,1,2", "--radius", "1", "--out", out]) == 0
    data = load_json(out)
    assert data["matches"] == [{"message": [1], "distance": 1}]
    assert main(["oracle", "nearest", "--q", "5", "--k", "1",
                 "--received", "1,1,2", "--radius", "0", "--out", out]) == 0
    assert load_json(out)["matches"] == []


def test_oracle_negative_radius_exits_two(tmp_path, capsys):
    msg = write_message(tmp_path, "frs", (3, 14, 9))
    word, down = str(tmp_path / "w.json"), str(tmp_path / "d.json")
    assert main(["frs", "encode", "--config", FRS_TINY, "--message", msg,
                 "--out", word]) == 0
    assert main(["frs", "download", "--config", FRS_TINY, "--in", word,
                 "--out", down]) == 0
    out = tmp_path / "o.json"
    assert main(["oracle", "nearest", "--q", "13", "--k", "2",
                 "--received", "1,2,3", "--radius", "-1",
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert main(["oracle", "list", "--config", FRS_TINY, "--word", down,
                 "--radius", "-1", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.count("radius must be") == 2


def test_oracle_collision(tmp_path, capsys):
    assert main(["oracle", "collision", "--help"]) == 0
    assert ("0..m for a trace config, 0..l for a folded one"
            in " ".join(capsys.readouterr().out.split()))
    out = str(tmp_path / "w.json")
    assert main(["oracle", "collision", "--config", TS_TINY, "--t", "1",
                 "--out", out]) == 0
    assert load_json(out)["witness"] is None      # radius 1 is achievable
    assert main(["oracle", "collision", "--config", TS_TINY, "--t", "1",
                 "--download-count", "1", "--out", out]) == 0
    wit = load_json(out)["witness"]
    assert wit is not None
    assert len(wit["agreeColumns"]) == 2
    assert wit["wordA"] != wit["wordB"]
    assert len(wit["patternA"]["support"]) <= 1
    assert len(wit["patternB"]["support"]) <= 1


@pytest.mark.parametrize("config, count, message", [
    (TS_TINY, "3", "0..2, the m symbols a column serves, got 3"),
    (FRS_TINY, "4", "0..3, the l symbols a column stores, got 4"),
    (FRS_TINY, "-1", "0..3, the l symbols a column stores, got -1"),
], ids=["ts", "frs", "frs-negative"])
def test_oracle_collision_download_count_out_of_range_exits_two(
        tmp_path, capsys, config, count, message):
    """Each scheme's count has its own range, and the error names the
    count and that range: one stderr line, exit 2, no output file."""
    out = tmp_path / "w.json"
    assert main(["oracle", "collision", "--config", config, "--t", "1",
                 "--download-count", count, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: download count must lie in {message}\n")
    assert not out.exists()


def test_oracle_list(tmp_path):
    msg = write_message(tmp_path, "frs", (3, 14, 9))
    word, down, out = (str(tmp_path / n) for n in
                       ("w.json", "d.json", "l.json"))
    assert main(["frs", "encode", "--config", FRS_TINY, "--message", msg,
                 "--out", word]) == 0
    assert main(["frs", "download", "--config", FRS_TINY, "--in", word,
                 "--out", down]) == 0
    assert main(["oracle", "list", "--config", FRS_TINY, "--word", down,
                 "--radius", "1", "--out", out]) == 0
    assert load_json(out)["messages"] == [[3, 14, 9]]
    # list oracle is frs-only
    assert main(["oracle", "list", "--config", TS_TINY, "--word", down,
                 "--radius", "1", "--out", out]) == 2


def test_usage_and_format_errors(tmp_path, capsys):
    assert main(["no-such-command"]) == 2
    assert main(["--help"]) == 0
    assert main(["ts", "decode", "--config", "/nonexistent.json",
                 "--in", "/nonexistent.json"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["ts", "decode", "--config", str(bad), "--in", str(bad)]) == 2
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({"format": 2, "scheme": "ts"}))
    assert main(["ts", "decode", "--config", str(stale),
                 "--in", str(stale)]) == 2
    capsys.readouterr()
    msg = write_message(tmp_path, "frs", tuple(range(12)))
    assert main(["frs", "encode", "--config", TS_REF, "--message", msg,
                 "--out", str(tmp_path / "w.json")]) == 2   # scheme mismatch
    assert capsys.readouterr().err == (
        "error: config file is for scheme 'ts', expected 'frs'\n")
    msg = write_message(tmp_path, "ts", (1,), name="ts-msg.json")
    assert main(["ts", "encode", "--config", FRS_TINY, "--message", msg,
                 "--out", str(tmp_path / "w.json")]) == 2
    assert capsys.readouterr().err == (
        "error: config file is for scheme 'frs', expected 'ts'\n")
    assert not (tmp_path / "w.json").exists()


COMMANDS = ("bounds", "figure", "ts", "frs", "simulate", "compare-naive",
            "oracle")
# Every command path, with arguments that satisfy its required options.
REQUIRED = {
    ("bounds",): ("--n", "12", "--k", "4", "--alpha", "1/2"),
    ("figure",): ("--rate", "1/3"),
    **{(scheme, stage): ("--config", "c.json", flag, "f.json")
       for scheme in ("ts", "frs")
       for stage, flag in (("encode", "--message"), ("corrupt", "--in"),
                           ("download", "--in"), ("decode", "--in"))},
    ("simulate",): ("--config", "c.json", "--weights", "0"),
    ("compare-naive",): ("--config", "c.json", "--t", "0"),
    ("oracle", "nearest"): ("--q", "5", "--k", "1", "--received", "0",
                            "--radius", "0"),
    ("oracle", "collision"): ("--config", "c.json", "--t", "0"),
    ("oracle", "list"): ("--config", "c.json", "--word", "w.json",
                         "--radius", "0"),
}


def listed_commands(parser):
    """The commands the top-level help lists, in order."""
    return re.findall(r"^ {4}(\S+)", parser.format_help(), re.MULTILINE)


def parsed(parser, argv, capsys):
    """(exit code, stdout, stderr) of a parse that exits, as for help or
    a usage error."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        parser.parse_args(argv)
    out = capsys.readouterr()
    return info.value.code, out.out, out.err


@pytest.mark.parametrize("path", sorted(REQUIRED), ids=" ".join)
@pytest.mark.parametrize("case", ["help", "unknown option", "missing required"])
def test_one_branch_parser_reads_as_the_whole_parser(path, case, capsys):
    """`main` builds only the branch its first argument names. For every
    command path, its help, an unknown option and a missing required
    argument give the same stdout, stderr and exit code from that branch
    alone as from the whole parser, and through `main`."""
    argv = {"help": [*path, "--help"],
            "unknown option": [*path, *REQUIRED[path], "--bogus"],
            "missing required": [*path, *REQUIRED[path][:-2]]}[case]
    whole = parsed(build_parser(), argv, capsys)
    branch = parsed(build_parser(path[0]), argv, capsys)
    assert branch == whole
    assert whole[0] == (0 if case == "help" else 2)
    assert whole[1 if case == "help" else 2]
    assert main(argv) == whole[0]
    assert capsys.readouterr()[:] == whole[1:]
    assert listed_commands(build_parser(path[0])) == [path[0]]


@pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"]],
                         ids=["bare", "help", "bogus"])
def test_parser_without_a_command_lists_every_command(argv, capsys):
    """With no command, `--help` or an unknown command, `main` builds the
    whole parser: the help lists every command, and an unknown command's
    error names every choice."""
    assert listed_commands(build_parser()) == list(COMMANDS)
    code, out, err = parsed(build_parser(), argv, capsys)
    assert main(argv) == (0 if code == 0 else 2)
    assert capsys.readouterr()[:] == (out, err)
    if argv:
        text = out if code == 0 else err
        quote = "" if code == 0 else "'"
        assert [name for name in COMMANDS
                if f"{quote}{name}{quote}" not in text] == []
    else:
        assert err.endswith("error: the following arguments are required: "
                            "command\n")


def test_large_prime_field_config_runs(tmp_path, capsys):
    """Primality is decided by Miller-Rabin, so a config over GF(2^61 - 1)
    builds and encodes, and `oracle nearest` over it reaches its budget
    check; a field size at or above the test's exact range exits 2 rather
    than run an unproven test."""
    q = 2 ** 61 - 1
    config = write_json(tmp_path, "ts.json", {
        "format": 1, "scheme": "ts", "q": q, "n": 7, "k": 2, "l": 2, "m": 1})
    msg = write_message(tmp_path, "ts", (5, q * q - 1))
    out = tmp_path / "w.json"
    assert main(["ts", "encode", "--config", config, "--message", msg,
                 "--out", str(out)]) == 0
    assert len(load_json(out)["columns"]) == 7
    assert main(["oracle", "nearest", "--q", str(q), "--k", "1",
                 "--received", "3,3,4", "--radius", "1",
                 "--out", str(tmp_path / "n.json")]) == 2
    assert "budget" in capsys.readouterr().err
    huge = write_json(tmp_path, "huge.json", {
        "format": 1, "scheme": "ts", "q": 2 ** 89 - 1, "n": 7, "k": 2,
        "l": 2, "m": 1})
    assert main(["ts", "encode", "--config", huge, "--message", msg,
                 "--out", str(tmp_path / "h.json")]) == 2
    assert "primality is decided only below" in capsys.readouterr().err


def test_float_field_size_exits_two(tmp_path, capsys):
    config = write_json(tmp_path, "frs.json", dict(
        load_json(FRS_REF), p=37.0))
    msg = write_message(tmp_path, "frs", tuple(range(12)))
    out = tmp_path / "w.json"
    assert main(["frs", "encode", "--config", config, "--message", msg,
                 "--out", str(out)]) == 2
    assert ("frs config field 'p' must be an integer"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("version", [True, 1.0, "1"],
                         ids=["true", "float", "string"])
def test_format_must_be_the_integer_one(tmp_path, capsys, version):
    config = tmp_path / "ts.json"
    config.write_text(json.dumps(dict(load_json(TS_TINY), format=version)))
    out = tmp_path / "r.json"
    assert main(["simulate", "--config", str(config), "--weights", "0",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: config file has format {version!r}, this build reads "
        "format 1\n")
    assert not out.exists()


def test_budget_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FRACDEC_BUDGET", "2")
    assert main(["oracle", "nearest", "--q", "5", "--k", "2",
                 "--received", "1,2,3,4", "--radius", "1",
                 "--out", str(tmp_path / "n.json")]) == 2
    assert "budget" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("kind", ["config", "message", "codeword",
                                  "download"])
def test_deeply_nested_json_exits_two(tmp_path, capsys, kind):
    """A file too deeply nested for the JSON parser is a format error of
    that file: exit 2 and one error line, not a RecursionError."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    msg = write_message(tmp_path, "ts", (1, 2, 3, 4))
    argv = {
        "config": ["ts", "encode", "--config", str(deep), "--message", msg],
        "message": ["ts", "encode", "--config", TS_REF, "--message",
                    str(deep)],
        "codeword": ["ts", "download", "--config", TS_REF, "--in", str(deep)],
        "download": ["ts", "decode", "--config", TS_REF, "--in", str(deep)],
    }[kind]
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {deep} nests JSON too deeply to read\n")
    assert not out.exists()


def test_trace_config_beyond_q_exits_two(tmp_path, capsys):
    """n far beyond q is refused before the default points are built."""
    config = write_json(tmp_path, "cfg.json", {
        "scheme": "ts", "q": 5, "n": 10 ** 18, "k": 2, "l": 2, "m": 2})
    msg = write_message(tmp_path, "ts", (1, 2))
    assert main(["ts", "encode", "--config", config, "--message", msg,
                 "--out", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err == (
        "error: n = 1000000000000000000 distinct base-field evaluation "
        "points need q >= n, but q = 5\n")
