"""The yardstick: fixed work that never touches fracdec, timed right before
and right after every measured op, so that the machine's speed cancels out
of the benchmark's timings.

On a shared host the same pure-Python loop runs up to 2x slower for
stretches from a fraction of a second to minutes, and CPU time slows as
much as wall time. An op's time divided by the mean of the yardsticks on
either side of it barely moves when the machine slows, but it still grows
when fracdec's own code gets slower. The benchmark reports that ratio
times the yardstick's NOMINAL time, so timings keep their units: they read
as seconds on a machine where the yardstick takes exactly its nominal time.
The nominal times below are fixed constants, never re-measured, so that
every commit is scaled the same way.

Two kinds:
- in-process (`measure_inprocess`), for ops that are calls in the
  benchmark's own process and for set-up probes;
- a fresh interpreter running CHILD_CODE, timed from spawn to reap like a
  CLI command. Starting a process (exec, loading modules, first-touch page
  faults) slows down on a busy host differently from the arithmetic, so
  CLI commands are scaled by both kinds at once: by the geometric mean of
  their two nominal-to-measured ratios.
"""

import inspect
from dataclasses import dataclass
from time import perf_counter


def yardstick(loops):
    """Small-integer modular arithmetic through calls and tuples, the kind
    of work fracdec's field classes do."""
    p = 1000003

    def mul(a, b):
        return a * b % p

    acc = (1, 2, 3, 4)
    for i in range(loops):
        acc = tuple(mul(x, i + 7) + 1 for x in acc)
    return acc


LOOPS = 1500
NOMINAL_S = 0.002              # `yardstick(LOOPS)` in-process
CHILD_LOOPS = 5000
CHILD_NOMINAL_S = 0.07         # a fresh interpreter running CHILD_CODE

SOURCE = inspect.getsource(yardstick)

# The modules the CLI imports from the standard library, then the loop.
CHILD_CODE = ("import argparse, dataclasses, fractions, itertools, json\n"
              f"{SOURCE}\nyardstick({CHILD_LOOPS})\n")


def measure_inprocess():
    start = perf_counter()
    yardstick(LOOPS)
    return perf_counter() - start


@dataclass(frozen=True)
class Yardstick:
    """One or more fixed works, timed one after the other next to an op."""

    measures: tuple      # each runs its fixed work once; returns seconds
    nominal_s: tuple     # each one's nominal seconds

    def measure(self):
        return tuple(measure() for measure in self.measures)

    def scale(self, before, after):
        """Factor that turns an op's measured seconds into nominal seconds,
        from the yardsticks timed just before and just after it: the
        geometric mean, over the works, of nominal / mean(before, after)."""
        product = 1.0
        for nominal, b, a in zip(self.nominal_s, before, after):
            product *= nominal / ((b + a) / 2)
        return product ** (1 / len(self.nominal_s))


def inprocess():
    return Yardstick((measure_inprocess,), (NOMINAL_S,))
