"""Command-line entry point.

Commands: bounds, figure, ts/frs encode|corrupt|download|decode, simulate,
compare-naive, oracle nearest|collision|list. All artifacts are JSON (or
CSV for figure); "-" means stdin/stdout. Exit codes: 0 success, 1 decode
failure, 2 usage/config/format errors. FRACDEC_BUDGET caps brute-force
enumeration sizes.

Each command imports what it runs when it runs: a stage command loads
only the scheme its config names, `corrupt` adds the seeded draws of
`trials`, `simulate` and `compare-naive` add `harness`, and `bounds`,
which holds every brute-force search, loads only for `bounds`, `figure`
and the three oracles. `main` builds only the parser branch its first
argument names, and the whole parser when that names no command, so help
and usage errors read the same. A command runs a scheme through its
config's methods; only the parser and the file formats name the schemes.
"""

import argparse
import json
import sys

from . import serialization as ser
from .errors import BudgetExceeded, DecodeFailure


def _ints_arg(text, what):
    if text.strip() == "":
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, "
                         f"got {text!r}") from None


def cmd_bounds(args):
    from .bounds import radius_report
    from .rationals import as_fraction
    report = radius_report(args.n, args.k, as_fraction(args.alpha))
    ser.dump_json(args.out, {
        "format": 1,
        "n": report.n,
        "k": report.k,
        "alpha": str(report.alpha),
        "rate": str(report.rate),
        "naive": report.naive,
        "optimal": report.optimal,
        "naiveNormalized": str(report.naive_normalized),
        "optimalNormalized": str(report.optimal_normalized),
        "listCapacity": str(report.list_capacity),
    })
    return 0


def cmd_figure(args):
    from .bounds import emit_figure, figure_csv
    from .rationals import as_fraction
    rows = emit_figure(as_fraction(args.rate), args.steps)
    ser.write_text(args.out, figure_csv(rows))
    return 0


def cmd_encode(args):
    cfg = ser.config_from_dict(ser.load_json(args.config), args.scheme)
    message = ser.message_from_dict(ser.load_json(args.message), args.scheme)
    columns = cfg.encode(message)
    ser.dump_json(args.out, ser.codeword_to_dict(args.scheme, columns))
    return 0


def cmd_corrupt(args):
    from .arraycode import apply_error_pattern
    from .trials import check_seed, random_error_pattern, trial_stream
    check_seed(args.seed)
    cfg = ser.config_from_dict(ser.load_json(args.config), args.scheme)
    columns = ser.codeword_from_dict(ser.load_json(args.infile), args.scheme)
    if len(columns) != cfg.n or any(len(c) != cfg.l for c in columns):
        raise ValueError(f"codeword must be {cfg.n} columns of {cfg.l} symbols")
    if (args.positions is None) == (args.weight is None):
        raise ValueError("corrupt needs exactly one of --positions or --weight")
    if args.positions is not None:
        support = tuple(sorted(_ints_arg(args.positions, "--positions")))
        if len(set(support)) != len(support):
            raise ValueError("--positions must not repeat columns")
        for i in support:
            if not 0 <= i < cfg.n:
                raise ValueError(f"position {i} outside 0..{cfg.n - 1}")
        weight = len(support)
    else:
        weight, support = args.weight, None
        if not 0 <= weight <= cfg.n:
            raise ValueError(f"--weight must be in 0..{cfg.n}")
    pattern = random_error_pattern(cfg, trial_stream(args.seed, weight, 0),
                                   weight, support)
    corrupted = apply_error_pattern(cfg.symbol_field, columns, pattern)
    ser.dump_json(args.out, ser.codeword_to_dict(args.scheme, corrupted))
    return 0


def cmd_download(args):
    cfg = ser.config_from_dict(ser.load_json(args.config), args.scheme)
    columns = ser.codeword_from_dict(ser.load_json(args.infile), args.scheme)
    bundle = cfg.download(columns)
    ser.dump_json(args.out, ser.bundle_to_dict(args.scheme, bundle))
    return 0


def cmd_decode(args):
    cfg = ser.config_from_dict(ser.load_json(args.config), args.scheme)
    bundle = ser.bundle_from_dict(ser.load_json(args.infile), args.scheme)
    message, corrected = cfg.decode(bundle.per_column)
    out = ser.message_to_dict(args.scheme, message)
    out["correctedColumns"] = sorted(corrected)
    ser.dump_json(args.out, out)
    return 0


def cmd_simulate(args):
    from .harness import ExperimentSpec, report_to_json, simulate
    cfg = ser.config_from_dict(ser.load_json(args.config))
    spec = ExperimentSpec(
        config=cfg,
        weights=_ints_arg(args.weights, "--weights"),
        trials_per_weight=args.trials_per_weight,
        seed=args.seed,
        support_mode=args.mode,
    )
    report = simulate(spec)
    ser.write_text(args.out, report_to_json(report))
    return 0


def cmd_compare_naive(args):
    from .harness import compare_naive, comparison_to_dict
    cfg = ser.config_from_dict(ser.load_json(args.config))
    result = compare_naive(cfg, args.t, seed=args.seed)
    ser.dump_json(args.out, comparison_to_dict(result))
    return 0


def cmd_oracle_nearest(args):
    from .bounds import nearest_codeword_bruteforce
    from .primefield import PrimeField
    from .rs import RsCode
    field = PrimeField(args.q)
    received = _ints_arg(args.received, "--received")
    n = len(received)
    omega = (_ints_arg(args.omega, "--omega") if args.omega is not None
             else tuple(range(n)))
    code = RsCode(field, args.k, omega)
    hits = nearest_codeword_bruteforce(code, received, args.radius)
    ser.dump_json(args.out, {
        "format": 1,
        "radius": args.radius,
        "matches": [{"message": list(h), "distance": d} for h, d in hits],
    })
    return 0


def cmd_oracle_collision(args):
    from .bounds import find_download_collision
    from .budget import check_budget
    cfg = ser.config_from_dict(ser.load_json(args.config))
    download = cfg.download_fn(args.download_count)
    order, length = cfg.message_space
    check_budget(order ** length, "codeword enumeration for collision search")
    codewords = [word for _, word in cfg.codewords()]
    witness = find_download_collision(cfg.symbol_field, codewords, download,
                                      args.t)
    if witness is None:
        ser.dump_json(args.out, {"format": 1, "t": args.t, "witness": None})
        return 0
    ser.dump_json(args.out, {
        "format": 1,
        "t": args.t,
        "witness": {
            "wordA": [list(c) for c in witness.word_a],
            "wordB": [list(c) for c in witness.word_b],
            "patternA": _pattern_dict(witness.pattern_a),
            "patternB": _pattern_dict(witness.pattern_b),
            "agreeColumns": list(witness.agree_columns),
        },
    })
    return 0


def _pattern_dict(pattern):
    return {"support": list(pattern.support),
            "values": [list(v) for v in pattern.values]}


def cmd_oracle_list(args):
    from .bounds import list_decode_bruteforce
    cfg = ser.config_from_dict(ser.load_json(args.config), "frs")
    bundle = ser.bundle_from_dict(ser.load_json(args.word), "frs")
    hits = list_decode_bruteforce(cfg, bundle.per_column, args.radius)
    ser.dump_json(args.out, {
        "format": 1,
        "radius": args.radius,
        "messages": [list(h) for h in hits],
    })
    return 0


def _add_out(parser, default="-"):
    parser.add_argument("--out", default=default,
                        help=f"output path (default {default!r})")


def _add_bounds(sub, name):
    p = sub.add_parser(name, help="radius formulas for one (n, k, alpha)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", required=True,
                   help="download fraction, e.g. 1/2 or 0.5 (exact string)")
    _add_out(p)
    p.set_defaults(func=cmd_bounds)


def _add_figure(sub, name):
    p = sub.add_parser(name,
                       help="CSV sweep of naive vs optimal normalized radii")
    p.add_argument("--rate", required=True, help="code rate R in (0,1)")
    p.add_argument("--steps", type=int, default=61)
    _add_out(p)
    p.set_defaults(func=cmd_figure)


def _add_stages(sub, scheme):
    sp = sub.add_parser(scheme, help=f"{scheme} pipeline stages")
    stages = sp.add_subparsers(dest="stage", required=True, metavar="stage")

    q = stages.add_parser("encode", help="message file -> codeword file")
    q.add_argument("--config", required=True)
    q.add_argument("--message", required=True)
    _add_out(q)
    q.set_defaults(func=cmd_encode, scheme=scheme)

    q = stages.add_parser("corrupt",
                          help="add column errors to a codeword file")
    q.add_argument("--config", required=True)
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--positions",
                   help="comma-separated column indices to corrupt")
    q.add_argument("--weight", type=int,
                   help="number of random columns to corrupt")
    q.add_argument("--seed", type=int, default=0)
    _add_out(q)
    q.set_defaults(func=cmd_corrupt, scheme=scheme)

    q = stages.add_parser("download", help="codeword file -> download file")
    q.add_argument("--config", required=True)
    q.add_argument("--in", dest="infile", required=True)
    _add_out(q)
    q.set_defaults(func=cmd_download, scheme=scheme)

    q = stages.add_parser("decode", help="download file -> message file")
    q.add_argument("--config", required=True)
    q.add_argument("--in", dest="infile", required=True)
    _add_out(q)
    q.set_defaults(func=cmd_decode, scheme=scheme)


def _add_simulate(sub, name):
    p = sub.add_parser(name,
                       help="deterministic error-weight sweep with a report")
    p.add_argument("--config", required=True)
    p.add_argument("--weights", required=True,
                   help="comma-separated column-error weights, e.g. 0,1,2")
    p.add_argument("--trials-per-weight", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("exhaustive", "sampled"),
                   default="exhaustive")
    _add_out(p)
    p.set_defaults(func=cmd_simulate)


def _add_compare_naive(sub, name):
    p = sub.add_parser(name,
                       help="whole-column reading vs fractional reading on "
                            "one crafted pattern")
    p.add_argument("--config", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_out(p)
    p.set_defaults(func=cmd_compare_naive)


def _add_oracle(sub, name):
    p = sub.add_parser(name, help="brute-force reference searches")
    osub = p.add_subparsers(dest="oracle", required=True, metavar="kind")

    q = osub.add_parser("nearest",
                        help="all codewords within a radius of a received word")
    q.add_argument("--q", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--received", required=True,
                   help="comma-separated received symbols")
    q.add_argument("--omega", help="comma-separated evaluation points "
                                   "(default 0..n-1)")
    q.add_argument("--radius", type=int, required=True)
    _add_out(q)
    q.set_defaults(func=cmd_oracle_nearest)

    q = osub.add_parser("collision",
                        help="two codewords indistinguishable at radius t")
    q.add_argument("--config", required=True)
    q.add_argument("--t", type=int, required=True)
    q.add_argument("--download-count", type=int, default=None,
                   help="per-column downloaded symbols: 0..m for a trace "
                        "config, 0..l for a folded one (default: the "
                        "scheme's own count, m or alpha*l; smaller models a "
                        "tighter budget)")
    _add_out(q)
    q.set_defaults(func=cmd_oracle_collision)

    q = osub.add_parser("list",
                        help="all messages within a radius of a downloaded word")
    q.add_argument("--config", required=True)
    q.add_argument("--word", required=True, help="download file path")
    q.add_argument("--radius", type=int, required=True)
    _add_out(q)
    q.set_defaults(func=cmd_oracle_list)


# Each command's parser branch, in the order the help lists them.
_BRANCHES = {"bounds": _add_bounds, "figure": _add_figure,
             "ts": _add_stages, "frs": _add_stages,
             "simulate": _add_simulate, "compare-naive": _add_compare_naive,
             "oracle": _add_oracle}


def build_parser(command=None):
    """The `fracdec` parser: every command's branch, or only `command`'s.
    A branch's help, usage and errors are the same either way, since each
    subparser's text is its own and the top usage names no command."""
    top = argparse.ArgumentParser(
        prog="fracdec",
        description="Error correction for MDS array codes from a fraction "
                    "of each received column.")
    sub = top.add_subparsers(dest="command", required=True, metavar="command")
    for name, add in _BRANCHES.items():
        if command in (None, name):
            add(sub, name)
    return top


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # a process runs one command, so it builds only that command's branch;
    # help and bad commands take the whole parser, which lists them all
    parser = build_parser(argv[0] if argv and argv[0] in _BRANCHES else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except DecodeFailure as exc:
        print(f"decode failure: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
