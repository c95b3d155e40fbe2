"""Value semantics of the package's frozen records.

Each record compares, hashes and prints by its fields, in order, and is
equal only to records of its own class; the fields it derives stay out of
all three. Setting or deleting any attribute raises AttributeError. The
reprs are pinned as literal strings, so a record's printed form cannot
drift.
"""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from fracdec.arraycode import DownloadBundle, ErrorPattern
from fracdec.bounds import (CollisionWitness, FigureRow, MinInfoResult,
                            RadiusReport, emit_figure, min_info_check,
                            radius_report)
from fracdec.fields import ExtField, TraceDualBasis, dual_basis
from fracdec.frs_scheme import FrsConfig, frs_make_config
from fracdec.harness import (ExperimentReport, ExperimentSpec,
                             NaiveComparison, WeightStats, compare_naive,
                             simulate)
from fracdec.primefield import PrimeField
from fracdec.rs import RsCode
from fracdec.trace_scheme import TsConfig, ts_make_config


def ts_tiny():
    return ts_make_config(5, 4, 2, 2, 1)


def frs_tiny():
    return frs_make_config(6, 1, 3, Fraction(1, 3), p=19)


def spec():
    return ExperimentSpec(config=ts_tiny(), weights=[0, 1],
                          trials_per_weight=1, seed=7)


def pattern():
    return ErrorPattern(support=[1, 3], values=[[1, 0], [0, 2]])


TS_REPR = ("TsConfig(ext=GF(5^2), k=2, omega=(0, 1, 2, 3), "
           "subsets=((0, 1),), basis=TraceDualBasis(ext=GF(5^2), "
           "zeta=(1, 5), nu=(17, 8)))")
SPEC_REPR = (f"ExperimentSpec(config={TS_REPR}, weights=(0, 1), "
             "trials_per_weight=1, seed=7, support_mode='exhaustive')")


def missing(cls, names):
    """The TypeError a call without the last of `names` raises."""
    return (TypeError, f"{cls}.__init__() missing 1 required positional "
                       f"argument: '{names[-1]}'")


# The derived slots that arraycode.ArrayConfig, the base of both configs,
# declares and reads.
LAYOUT = ("served_code", "g", "served_per_column", "message_field",
          "message_length", "downloaded_per_word", "accessed_per_word",
          "radius", "encode_map", "interpolation_map", "download_map",
          "served_download_map", "transmit_map", "decode_map")
# name: (build, pinned repr, derived fields, (bad call, error, message))
RECORDS = {
    "ErrorPattern": (
        pattern,
        "ErrorPattern(support=(1, 3), values=((1, 0), (0, 2)))",
        (),
        (lambda: ErrorPattern(support=(1,), values=((0, 0),)),
         ValueError, "offset for column 1 is all zero")),
    "DownloadBundle": (
        lambda: DownloadBundle(per_column=[[1, 2], [3, 4]], downloaded=4,
                               accessed=8),
        "DownloadBundle(per_column=((1, 2), (3, 4)), downloaded=4, "
        "accessed=8)",
        (),
        (lambda: DownloadBundle(((1,),), 1),
         *missing("DownloadBundle", ["accessed"]))),
    "RsCode": (
        lambda: RsCode(PrimeField(5), 2, [0, 1, 2, 3]),
        "RsCode(field=GF(5), k=2, omega=(0, 1, 2, 3))",
        ("interpolation", "decode_width", "decode_master", "decode_folds",
         "decode_inverses"),
        (lambda: RsCode(PrimeField(5), 5, [0, 1, 2, 3]),
         ValueError, "need 1 <= k <= n, got k=5, n=4")),
    "TraceDualBasis": (
        lambda: dual_basis(ExtField(PrimeField(3), 2)),
        "TraceDualBasis(ext=GF(3^2), zeta=(1, 3), nu=(2, 3))",
        ("_proj", "_recon"),
        (lambda: TraceDualBasis(ext=ExtField(PrimeField(3), 2), zeta=(1, 2)),
         ValueError, "given elements are linearly dependent over the base "
                     "field (singular trace projection matrix)")),
    "TsConfig": (
        ts_tiny, TS_REPR,
        ("annihilators", "place_values", "n", "l", *LAYOUT),
        (lambda: ts_make_config(5, 4, 2, 2, 2, subsets=((0,), (0,))),
         ValueError, "annihilator subsets must be pairwise disjoint with "
                     "distinct elements")),
    "FrsConfig": (
        frs_tiny,
        "FrsConfig(field=GF(19), gamma=2, n=6, k=1, l=3, "
        "alpha=Fraction(1, 3))",
        ("alpha_l", "punctured_dim", "points", *LAYOUT),
        (lambda: frs_make_config(6, 1, 3, Fraction(1, 2), p=19),
         ValueError, "alpha*l = 3/2 must be an integer")),
    "ExperimentSpec": (
        spec, SPEC_REPR, (),
        (lambda: ExperimentSpec(config=ts_tiny(), weights=[5],
                                trials_per_weight=1, seed=0),
         ValueError, "weight 5 outside 0..4")),
    "WeightStats": (
        lambda: WeightStats(weight=1, trials=4, successes=3,
                            detected_failures=1, silent_failures=0),
        "WeightStats(weight=1, trials=4, successes=3, detected_failures=1, "
        "silent_failures=0)",
        (),
        (lambda: WeightStats(1, 4, 3, 1),
         *missing("WeightStats", ["silent_failures"]))),
    "ExperimentReport": (
        lambda: simulate(spec()),
        f"ExperimentReport(spec={SPEC_REPR}, per_weight=(WeightStats("
        "weight=0, trials=1, successes=1, detected_failures=0, "
        "silent_failures=0), WeightStats(weight=1, trials=4, successes=0, "
        "detected_failures=0, silent_failures=4)), downloaded_per_trial=4, "
        "accessed_per_trial=8, download_budget=4)",
        (),
        (lambda: ExperimentReport(spec(), (), 4, 8),
         *missing("ExperimentReport", ["download_budget"]))),
    "NaiveComparison": (
        lambda: compare_naive(frs_tiny(), 1, seed=3),
        "NaiveComparison(scheme='frs', t=1, naive_radius=0, "
        "fractional_radius=1, read_columns=(0, 1), message=(8, 10, 9), "
        "pattern=ErrorPattern(support=(0,), values=((1, 7, 12),)), "
        "naive_outcome='failed', fractional_outcome='recovered', "
        "separated=True, downloaded_naive=6, downloaded_fractional=6, "
        "note='')",
        (),
        (lambda: NaiveComparison(*range(12)),
         *missing("NaiveComparison", ["note"]))),
    "RadiusReport": (
        lambda: radius_report(8, 3, "1/2"),
        "RadiusReport(n=8, k=3, alpha=Fraction(1, 2), rate=Fraction(3, 8), "
        "naive=0, optimal=1, naive_normalized=Fraction(1, 16), "
        "optimal_normalized=Fraction(1, 8), list_capacity=Fraction(1, 4))",
        (),
        (lambda: RadiusReport(*range(8)),
         *missing("RadiusReport", ["list_capacity"]))),
    "MinInfoResult": (
        lambda: min_info_check(["1/2", "1/2", "1", "0"], 1, 1),
        "MinInfoResult(passed=False, min_total=Fraction(1, 2), "
        "witness=(0, 3))",
        (),
        (lambda: MinInfoResult(False, 0),
         *missing("MinInfoResult", ["witness"]))),
    "CollisionWitness": (
        lambda: CollisionWitness(
            word_a=((0, 1), (2, 3)), word_b=((0, 1), (4, 3)),
            pattern_a=ErrorPattern(support=(1,), values=((2, 0),)),
            pattern_b=ErrorPattern(support=(), values=()),
            agree_columns=(0,)),
        "CollisionWitness(word_a=((0, 1), (2, 3)), word_b=((0, 1), (4, 3)), "
        "pattern_a=ErrorPattern(support=(1,), values=((2, 0),)), "
        "pattern_b=ErrorPattern(support=(), values=()), agree_columns=(0,))",
        (),
        (lambda: CollisionWitness((), (), None, None),
         *missing("CollisionWitness", ["agree_columns"]))),
    "FigureRow": (
        lambda: emit_figure("1/2", 3)[1],
        "FigureRow(alpha=Fraction(3, 4), naive_normalized=Fraction(1, 8), "
        "optimal_normalized=Fraction(1, 6))",
        (),
        (lambda: FigureRow(1, 2),
         *missing("FigureRow", ["optimal_normalized"]))),
}


def test_every_record_is_listed():
    assert len(RECORDS) == 14


@pytest.mark.parametrize("name", RECORDS)
def test_record_semantics(name):
    build, text, derived, (bad, error, message) = RECORDS[name]
    record, twin = build(), build()
    cls = type(record)
    assert cls.__name__ == name and repr(record) == text
    assert {slot for owner in cls.__mro__
            for slot in getattr(owner, "__slots__", ())} == {*cls._fields,
                                                             *derived}
    assert record is not twin
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record

    # a record of another class with the same fields prints the same but
    # is never equal
    other = copy.copy(record)
    object.__setattr__(other, "__class__",
                       type(name, (cls,), {"__slots__": ()}))
    assert repr(other) == text
    assert record != other and other != record and not record == other

    for field in derived:
        changed = copy.copy(twin)
        object.__setattr__(changed, field, None)
        assert changed == record and hash(changed) == hash(record)
        assert repr(changed) == text
    for field in cls._fields:
        changed = copy.copy(twin)
        object.__setattr__(changed, field, object())
        assert changed != record

    for field in (*cls._fields, *derived, "unknown"):
        with pytest.raises(AttributeError,
                           match=f"cannot assign to field '{field}'"):
            setattr(record, field, 1)
        with pytest.raises(AttributeError,
                           match=f"cannot delete field '{field}'"):
            delattr(record, field)
    assert repr(record) == text and record == twin

    with pytest.raises(error, match=re.escape(message)):
        bad()


def test_configs_name_their_scheme():
    assert (TsConfig.scheme, FrsConfig.scheme) == ("ts", "frs")
    assert (ts_tiny().scheme, frs_tiny().scheme) == ("ts", "frs")
