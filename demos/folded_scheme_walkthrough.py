"""
Prefix downloads from a folded Reed-Solomon code
================================================

Columns hold l consecutive evaluations of one low-degree polynomial at
powers of a primitive element. Asking each column for just its first
alpha*l entries leaves a punctured code that is still MDS; flattened, it
is a Reed-Solomon code, so one Euclid decode of the prefixes recovers the
message while reading nothing outside them:
downloaded symbols equal accessed symbols, there is no access overhead.
"""

from fractions import Fraction

from fracdec.arraycode import ErrorPattern, apply_error_pattern
from fracdec.bounds import radius_naive
from fracdec.frs_scheme import frs_make_config

cfg = frs_make_config(8, 3, 4, Fraction(3, 4))
print(f"p={cfg.field.q} gamma={cfg.gamma} n={cfg.n} k={cfg.k} l={cfg.l} "
      f"alpha={cfg.alpha}")
print(f"radius {cfg.radius} from 3-of-4 prefixes (naive reading of "
      f"{cfg.alpha * cfg.n} whole columns would give radius "
      f"{radius_naive(cfg.n, cfg.k, cfg.alpha)})")

message = tuple(range(1, 13))            # 12 coefficients, degree < kl
stored = cfg.encode(message)
print("\ncolumn 2 holds", stored[2], "at points", cfg.column_points(2))

pattern = ErrorPattern(support=(1, 6),
                       values=((5, 0, 0, 0), (1, 2, 3, 4)))
received = apply_error_pattern(cfg.symbol_field, stored, pattern)

bundle = cfg.download(received)
print(f"downloaded = accessed = {bundle.downloaded} symbols")

decoded, corrected = cfg.decode(bundle.per_column)
print("decoded message:", decoded)
print("columns the decoder corrected:", sorted(corrected))
assert decoded == message

# corruption that never enters a served prefix is invisible by design
tail_only = ErrorPattern(support=(0, 3, 5), values=(((0, 0, 0, 9),) * 3))
received = apply_error_pattern(cfg.symbol_field, stored, tail_only)
decoded, corrected = cfg.decode(cfg.download(received).per_column)
assert decoded == message and not corrected
print("\ntail-only corruption in 3 columns: decode unaffected, "
      "nothing corrected")
