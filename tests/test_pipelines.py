"""Each full pipeline against the staged chain of the public stage functions.

`cfg.pipeline`, that is `ts_full_pipeline` or `frs_full_pipeline`, checks
only the message and the error pattern and then runs the stage cores on
one flat word. The staged chain of the config's methods,
decode(download(apply_error_pattern(encode(m), p))), checks at every
stage. Both must give the same message and an equal bundle, or both raise
DecodeFailure, at every error weight; on malformed input both must raise
the same exception with the same message.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from fracdec.arraycode import ErrorPattern, apply_error_pattern
from fracdec.errors import DecodeFailure
from fracdec.frs_scheme import frs_make_config
from fracdec.harness import random_error_pattern, random_message, trial_stream
from fracdec.serialization import config_from_dict, load_json
from fracdec.trace_scheme import ts_make_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = {path.stem: (lambda path=path: config_from_dict(load_json(str(path))))
           for path in sorted(CONFIG_DIR.glob("*.json"))}
# the two configs bench/run.py times
CONFIGS["ts-wide"] = lambda: ts_make_config(31, 30, 4, 4, 2)
CONFIGS["frs-wide"] = lambda: frs_make_config(12, 3, 4, Fraction(1, 2))
TRIALS_PER_WEIGHT = 3


def full(cfg, message, pattern):
    return cfg.pipeline(message, pattern)


def staged(cfg, message, pattern):
    bundle = cfg.download(apply_error_pattern(
        cfg.symbol_field, cfg.encode(message), pattern))
    return cfg.decode(bundle.per_column)[0], bundle


def outcome(pipeline, cfg, message, pattern):
    """("ok", (message, bundle)), or the type and text of what it raised."""
    try:
        return "ok", pipeline(cfg, message, pattern)
    except (DecodeFailure, ValueError, TypeError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", CONFIGS)
def test_full_pipeline_matches_the_staged_chain(name):
    cfg = CONFIGS[name]()
    failures = 0
    for weight in range(cfg.n + 1):
        for trial in range(TRIALS_PER_WEIGHT):
            stream = trial_stream(21, weight, trial)
            message = random_message(cfg, stream)
            pattern = random_error_pattern(cfg, stream, weight)
            want = outcome(staged, cfg, message, pattern)
            assert outcome(full, cfg, message, pattern) == want
            assert want[0] in ("ok", DecodeFailure)
            if weight <= cfg.radius:
                assert want[0] == "ok" and want[1][0] == message
            failures += want[0] is DecodeFailure
    # the weights past the radius do reach the failure path
    assert failures > 0


def malformed_inputs(cfg):
    """(case, message, pattern, first) with one fault, first None, or two
    faults, first naming the one-fault case whose error must win."""
    stream = trial_stream(22, 1, 0)
    message = random_message(cfg, stream)
    n, l = cfg.n, cfg.l
    q, (order, _) = cfg.symbol_field.q, cfg.message_space
    ones = (1,) * l
    good = ErrorPattern(support=(0,), values=(ones,))
    beyond = ErrorPattern(support=(n,), values=(ones,))
    bad_symbol = (q,) + (0,) * (l - 1)
    return [
        ("message too long", message + (0,), good, None),
        ("message too short", message[:-1], good, None),
        ("message symbol equal to the order", (order,) + message[1:], good,
         None),
        ("float message symbol", (float(message[0]),) + message[1:], good,
         None),
        ("bool message symbol", (True,) + message[1:], good, None),
        ("pattern column at n", message, beyond, None),
        ("pattern column beyond n", message,
         ErrorPattern(support=(n + 5,), values=(ones,)), None),
        ("offset too long", message,
         ErrorPattern(support=(0,), values=(ones + (1,),)), None),
        ("offset too short", message,
         ErrorPattern(support=(0,), values=((1,) * (l - 1),)), None),
        ("offset symbol equal to q", message,
         ErrorPattern(support=(0,), values=(bad_symbol,)), None),
        ("float offset symbol", message,
         ErrorPattern(support=(0,), values=((1.0,) + ones[1:],)), None),
        ("bad message, then a column at n", (order,) + message[1:], beyond,
         "message symbol equal to the order"),
        ("bad offset symbol, then a column at n", message,
         ErrorPattern(support=(0, n), values=(bad_symbol, ones)),
         "offset symbol equal to q"),
        ("long offset, then a bad offset symbol", message,
         ErrorPattern(support=(0, 1), values=(ones + (1,), bad_symbol)),
         "offset too long"),
    ]


@pytest.mark.parametrize("name", CONFIGS)
def test_full_pipeline_refuses_what_the_staged_chain_refuses(name):
    cfg = CONFIGS[name]()
    seen = {}
    for case, message, pattern, first in malformed_inputs(cfg):
        want = outcome(staged, cfg, message, pattern)
        assert want[0] is ValueError, case
        assert outcome(full, cfg, message, pattern) == want, case
        assert want == seen.get(first, want), case
        seen[case] = want
