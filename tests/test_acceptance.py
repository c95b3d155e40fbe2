"""Acceptance suite: one test per shipped criterion, one summary line each.

Every test drives public entry points only and checks exact values; the
random parts run on fixed seeds so a failure here reproduces verbatim.
"""

import itertools
from fractions import Fraction

from fracdec.arraycode import apply_error_pattern
from fracdec.bounds import (emit_figure, find_download_collision,
                            list_decode_bruteforce, min_info_check,
                            nearest_codeword_bruteforce, radius_optimal)
from fracdec.cli import main
from fracdec.errors import DecodeFailure
from fracdec.fields import ExtField, default_modulus, dual_basis
from fracdec.frs_scheme import (FrsConfig, frs_full_pipeline,
                                frs_make_config, smallest_primitive_root)
from fracdec.harness import compare_naive, run_trial
from fracdec.polyring import normalize, poly_divmod, poly_mul
from fracdec.primefield import PrimeField
from fracdec.rs import RsCode, decode_columns
from fracdec.trace_scheme import TsConfig, ts_full_pipeline, ts_make_config
from fracdec.trials import random_error_pattern, random_message, trial_stream
from oracles import (poly_add, poly_eval, poly_pow, poly_sub, rs_evaluate,
                     ts_project_polys)

SEED = 2026


def ts_reference():
    return ts_make_config(13, 12, 4, 4, 2)


def frs_reference():
    return frs_make_config(8, 3, 4, Fraction(3, 4))


def test_criterion_1_trace_scheme_optimal_radius(criterion):
    cfg = ts_reference()
    assert cfg.radius == 2
    trials = failures = 0
    index = 0
    for support in itertools.combinations(range(cfg.n), 2):
        for _ in range(10):
            stream = trial_stream(SEED, 2, index)
            index += 1
            message = random_message(cfg, stream)
            pattern = random_error_pattern(cfg, stream, 2, support=support)
            try:
                decoded, bundle = ts_full_pipeline(cfg, message, pattern)
                good = decoded == message and bundle.downloaded == 24
            except DecodeFailure:
                good = False
            trials += 1
            failures += not good
    criterion(1, trials == 660 and failures == 0,
              f"trace scheme (q=13, n=12, k=4, l=4, m=2) decoded "
              f"{trials - failures}/{trials} weight-2 patterns over all 66 "
              f"supports, downloading 24 of 48 stored symbols per trial")


def test_criterion_2_folded_scheme_optimal_radius(criterion):
    cfg = frs_reference()
    assert cfg.radius == 2
    trials = failures = 0
    index = 0
    for support in itertools.combinations(range(cfg.n), 2):
        for _ in range(10):
            stream = trial_stream(SEED, 2, index)
            index += 1
            message = random_message(cfg, stream)
            pattern = random_error_pattern(cfg, stream, 2, support=support)
            try:
                decoded, bundle = frs_full_pipeline(cfg, message, pattern)
                good = (decoded == message and bundle.downloaded == 24
                        and all(len(c) == 3 for c in bundle.per_column))
            except DecodeFailure:
                good = False
            trials += 1
            failures += not good
    criterion(2, trials == 280 and failures == 0,
              f"folded scheme (p=37, n=8, k=3, l=4, alpha=3/4) decoded "
              f"{trials - failures}/{trials} weight-2 patterns over all 28 "
              f"supports, serving 3 of 4 symbols per column")


def _first_non_success(cfg, weight, cap=1000):
    for index in range(cap):
        stream = trial_stream(SEED, weight, index)
        message = random_message(cfg, stream)
        pattern = random_error_pattern(cfg, stream, weight)
        outcome, _ = run_trial(cfg, message, pattern)
        if outcome != "success":
            return index
    return None


def test_criterion_3_radius_sharpness(criterion):
    ts_hit = _first_non_success(ts_reference(), 3)
    frs_hit = _first_non_success(frs_reference(), 3)

    tiny = ts_make_config(5, 4, 2, 2, 2)
    words = [word for _, word in tiny.codewords()]
    full = tiny.download_fn()
    none_at_full = find_download_collision(tiny.base, words, full, 1) is None
    half = tiny.download_fn(1)
    witness = find_download_collision(tiny.base, words, half, 1)
    witness_ok = witness is not None
    if witness_ok:
        ca = apply_error_pattern(tiny.base, witness.word_a, witness.pattern_a)
        cb = apply_error_pattern(tiny.base, witness.word_b, witness.pattern_b)
        witness_ok = (witness.word_a != witness.word_b
                      and witness.pattern_a.weight <= 1
                      and witness.pattern_b.weight <= 1
                      and half(ca) == half(cb))
    criterion(3, ts_hit is not None and frs_hit is not None
              and none_at_full and witness_ok,
              f"weight-(radius+1) decode breaks at sampled trial {ts_hit} "
              f"(trace) / {frs_hit} (folded); halving the per-column download "
              f"on the tiny instance yields an explicit collision pair at "
              f"t=1 while the full download has none")


def test_criterion_4_separation_from_naive_reading(criterion):
    results = [compare_naive(ts_reference(), 2),
               compare_naive(frs_reference(), 2)]
    ok = all(r.separated
             and r.naive_outcome in ("failed", "miscorrected")
             and r.fractional_outcome == "recovered"
             and r.downloaded_naive == r.downloaded_fractional == 24
             for r in results)
    criterion(4, ok,
              f"weight-2 pattern inside the read columns: naive reader "
              f"{results[0].naive_outcome} (trace) / {results[1].naive_outcome} "
              f"(folded), fractional reader recovered both at the same "
              f"24-symbol download")


def test_criterion_5_figure_reproduction(criterion, tmp_path):
    out = tmp_path / "figure.csv"
    cli_ok = main(["figure", "--rate", "0.4", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    csv_ok = (lines[0] == "alpha,naive_normalized,optimal_normalized"
              and lines[1] == "0.400000,0.000000,0.000000"
              and lines[-1] == "1.000000,0.300000,0.300000"
              and len(lines) == 62)

    rows = emit_figure(Fraction(2, 5), steps=61)
    exact_ok = (rows[0].alpha == Fraction(2, 5)
                and rows[0].naive_normalized == 0
                and rows[0].optimal_normalized == 0
                and rows[-1].alpha == 1
                and rows[-1].naive_normalized == Fraction(3, 10)
                and rows[-1].optimal_normalized == Fraction(3, 10))
    dominance_ok = all(r.optimal_normalized >= r.naive_normalized for r in rows)
    ratio_ok = all(r.optimal_normalized / r.naive_normalized == 1 / r.alpha
                   for r in rows if r.naive_normalized > 0)
    criterion(5, cli_ok and csv_ok and exact_ok and dominance_ok and ratio_ok,
              "figure --rate 0.4: endpoints (0.4, 0, 0) and (1, 0.3, 0.3), "
              "optimal >= naive at all 61 grid points, unfloored ratio "
              "exactly 1/alpha wherever the naive curve is positive")


def test_criterion_6_oracle_equivalence(criterion):
    field = PrimeField(13)
    stream = trial_stream(SEED, 6, 0)
    cases = 10_000
    disagreements = 0
    for _ in range(cases):
        n = 2 + stream.below(5)
        k = 1 + stream.below(min(2, n))
        code = RsCode(field, k, tuple(range(n)))
        message = normalize(tuple(stream.below(13) for _ in range(k)))
        word = list(rs_evaluate(code, message))
        weight = stream.below(code.radius + 1)
        support = stream.sample(n, weight)
        for i in support:
            word[i] = field.add(word[i], 1 + stream.below(12))
        try:
            (decoded,), positions = decode_columns(
                code, [(s,) for s in word], code.radius)
            hits = nearest_codeword_bruteforce(code, word, code.radius)
            agree = (len(hits) == 1
                     and hits[0] == (decoded, len(positions))
                     and decoded == message
                     and positions == frozenset(support))
        except DecodeFailure:
            agree = False
        disagreements += not agree

    tiny = frs_make_config(6, 1, 3, Fraction(1, 3), p=19, gamma=2)
    frs_checked = frs_disagreements = 0
    for weight in (0, 1):
        for rep in range(2):
            stream = trial_stream(SEED, 60 + weight, rep)
            message = random_message(tiny, stream)
            pattern = random_error_pattern(tiny, stream, weight)
            word = apply_error_pattern(tiny.field, tiny.encode(message),
                                       pattern)
            grid = tiny.download(word).per_column
            decoded, _ = tiny.decode(grid)
            hits = list_decode_bruteforce(tiny, grid, tiny.radius)
            frs_checked += 1
            frs_disagreements += not (decoded == message and hits == [message])

    criterion(6, disagreements == 0 and frs_disagreements == 0,
              f"unique decoder matched the brute-force nearest-codeword "
              f"oracle on {cases - disagreements}/{cases} sampled RS cases "
              f"(GF(13), n<=6, k<=2); folded decoder matched the exhaustive "
              f"list oracle on {frs_checked}/{frs_checked} tiny folded cases")


def _trace_identity_errors(cfg, messages):
    base, l, m = cfg.base, cfg.l, cfg.m
    errors = 0
    for message in messages:
        served = cfg.download(cfg.encode(message)).per_column
        hs = ts_project_polys(cfg, message)
        streams = []
        for j in range(m):
            pj = cfg.annihilators[j]
            g = poly_mul(base, hs[l - m + j], poly_pow(base, pj, l - m))
            for u in range(l - m):
                g = poly_add(base, g,
                             poly_mul(base, hs[u], poly_pow(base, pj, u)))
            streams.append(g)
            for i, w in enumerate(cfg.omega):
                if served[i][j] != poly_eval(base, g, w):
                    errors += 1
        for s in range(l - m):
            for j in range(m):
                for w in cfg.subsets[j]:
                    if poly_eval(base, streams[j], w) != \
                            poly_eval(base, hs[s], w):
                        errors += 1
            for j in range(m):
                quot, rem = poly_divmod(
                    base, poly_sub(base, streams[j], hs[s]),
                    cfg.annihilators[j])
                if rem != ():
                    errors += 1
                streams[j] = quot
    return errors


def test_criterion_7_algebraic_identities(criterion):
    algebra_errors = 0
    for q, l in ((2, 2), (2, 3), (3, 2)):
        ext = ExtField(PrimeField(q), l)
        elements = list(ext.elements())
        image = set()
        for beta in elements:
            image.add(ext.trace(beta))
            for gamma in elements:
                for a in range(q):
                    lhs = ext.trace(ext.add(ext.mul(a, beta), gamma))
                    rhs = (a * ext.trace(beta) + ext.trace(gamma)) % q
                    if lhs != rhs:
                        algebra_errors += 1
        if image != set(range(q)):
            algebra_errors += 1
        basis = dual_basis(ext)
        for i, nu in enumerate(basis.nu):
            for j, zeta in enumerate(basis.zeta):
                want = 1 if i == j else 0
                if ext.trace(ext.mul(nu, zeta)) != want:
                    algebra_errors += 1

    scheme_errors = 0
    configs = (ts_reference(), ts_make_config(17, 10, 4, 4, 2),
               ts_make_config(5, 4, 2, 2, 2))
    per_config = 100
    for cfg in configs:
        stream = trial_stream(SEED, 7, cfg.base.q)
        messages = [random_message(cfg, stream) for _ in range(per_config)]
        scheme_errors += _trace_identity_errors(cfg, messages)

    criterion(7, algebra_errors == 0 and scheme_errors == 0,
              f"trace linearity/surjectivity and dual-basis delta exhaustive "
              f"on GF(4), GF(8), GF(9); download and peeling identities hold "
              f"for {per_config} random messages on each of "
              f"{len(configs)} trace configs")


def test_criterion_8_bound_formula_consistency(criterion):
    base29 = PrimeField(29)
    mismatches = flip_failures = trace_points = 0
    for l in (2, 3, 4):
        ext = ExtField(base29, l, default_modulus(base29, l))
        basis = dual_basis(ext)
        for m in range(1, l + 1):
            alpha = Fraction(m, l)
            for k in range(m, 24 * m // l + 1, m):
                start = l * k // m
                for n in range(start, 25):
                    size = k // m
                    subsets = tuple(tuple(range(j * size, (j + 1) * size))
                                    for j in range(m))
                    cfg = TsConfig(ext=ext, k=k, omega=tuple(range(n)),
                                   subsets=subsets, basis=basis)
                    trace_points += 1
                    if cfg.radius != radius_optimal(n, k, alpha):
                        mismatches += 1
                    flip_failures += not _min_info_flips(n, k, alpha,
                                                         cfg.radius)

    field97 = PrimeField(97)
    gamma97 = smallest_primitive_root(97)
    folded_points = 0
    for l in (2, 3, 4):
        for a in range(1, l + 1):
            alpha = Fraction(a, l)
            for k in range(1, 25):
                if (k / alpha).denominator != 1 or k / alpha > 24:
                    continue
                for n in range(int(k / alpha), 25):
                    cfg = FrsConfig(field=field97, gamma=gamma97, n=n, k=k,
                                    l=l, alpha=alpha)
                    folded_points += 1
                    if cfg.radius != radius_optimal(n, k, alpha):
                        mismatches += 1
                    flip_failures += not _min_info_flips(n, k, alpha,
                                                         cfg.radius)

    criterion(8, mismatches == 0 and flip_failures == 0
              and trace_points > 500 and folded_points > 500,
              f"scheme radii equal the bound formula on {trace_points} trace "
              f"and {folded_points} folded parameter points (n <= 24); the "
              f"information-count check flips from pass to fail exactly "
              f"after the radius at every point")


def _min_info_flips(n, k, alpha, radius):
    at_radius = min_info_check([alpha] * n, radius, k)
    if not at_radius.passed:
        return False
    if 2 * (radius + 1) > n:
        return True        # one more error leaves no trustworthy majority
    return not min_info_check([alpha] * n, radius + 1, k).passed
