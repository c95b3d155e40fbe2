"""
Why the radius formula is sharp
===============================

floor((n - k/alpha) / 2) is not just what the schemes here achieve, it is
the ceiling for any scheme at download fraction alpha. The proof is a
collision: above that radius there exist two codewords and two small error
patterns whose downloads agree on every column, so no decoder, however
clever, can tell them apart. This script finds such a pair by exhaustive
search on an instance small enough to enumerate.
"""

from fracdec.bounds import find_download_collision
from fracdec.trace_scheme import ts_make_config

# (4, 2) over GF(25), full columns: radius floor((4-2)/2) = 1
cfg = ts_make_config(5, 4, 2, 2, 2)
words = [word for _, word in cfg.codewords()]
print(f"enumerated all {len(words)} codewords of the (4, 2) instance")

full = cfg.download_fn()                    # both symbols of each column
witness = find_download_collision(cfg.base, words, full, 1)
print("full download, t=1:", "no collision (radius 1 is real)"
      if witness is None else "collision?!")
assert witness is None

# halve the download: one symbol per column, alpha = 1/2 = rate, so the
# optimal radius drops to floor((4 - 4)/2) = 0 and t=1 must be impossible
half = cfg.download_fn(1)
witness = find_download_collision(cfg.base, words, half, 1)
assert witness is not None
print("\nhalf download, t=1: collision found")
print("  word A:", witness.word_a)
print("  word B:", witness.word_b)
print("  corrupt A at", witness.pattern_a.support,
      "by", witness.pattern_a.values)
print("  corrupt B at", witness.pattern_b.support,
      "by", witness.pattern_b.values)
print("  downloads already agree on columns", witness.agree_columns)

# check the trap with our own hands: one download of each corrupted word
from fracdec.arraycode import apply_error_pattern

ca = apply_error_pattern(cfg.base, witness.word_a, witness.pattern_a)
cb = apply_error_pattern(cfg.base, witness.word_b, witness.pattern_b)
assert half(ca) == half(cb)
print("\nevery downloaded symbol is identical for the two corrupted words;"
      "\nany decoder answering one of them is wrong on the other")
