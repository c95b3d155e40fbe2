"""
Decoding two column errors from half of every column
====================================================

The trace scheme stores each Reed-Solomon symbol as its l trace
coordinates over the base field. Every column is read in full locally,
but only m = alpha*l combined symbols per column cross the wire; those
combinations are themselves codewords of a longer base-field RS code, so
they can be error-corrected and then peeled apart layer by layer.
"""

from fracdec.arraycode import ErrorPattern, apply_error_pattern
from fracdec.bounds import radius_naive
from fracdec.trace_scheme import ts_make_config

# the reference instance: (12, 4) over GF(13^4), download fraction 1/2
cfg = ts_make_config(13, 12, 4, 4, 2)
print(f"n={cfg.n} k={cfg.k} l={cfg.l} m={cfg.m}  alpha={cfg.alpha}")
print(f"classical radius {(cfg.n - cfg.k) // 2}, naive half-download "
      f"radius {radius_naive(cfg.n, cfg.k, cfg.alpha)}, "
      f"this scheme's radius {cfg.radius}")

message = (11_000, 7, 28_000, 1234)      # four symbols of GF(13^4)
stored = cfg.encode(message)
print(f"\nstored array: {cfg.n} columns of {cfg.l} base-field symbols")
print("column 0:", stored[0], " column 5:", stored[5])

# knock out two whole columns; the pattern adds nonzero offsets
pattern = ErrorPattern(support=(3, 9),
                       values=((1, 2, 3, 4), (12, 12, 12, 12)))
received = apply_error_pattern(cfg.symbol_field, stored, pattern)

bundle = cfg.download(received)
print(f"\ndownloaded {bundle.downloaded} symbols "
      f"({cfg.m} per column), accessed {bundle.accessed}")

decoded, corrected = cfg.decode(bundle.per_column)
print("decoded message:", decoded)
print("corrected columns:", tuple(sorted(corrected)))
assert decoded == message and corrected == {3, 9}
print("matches the original despite columns 3 and 9 being corrupted")
