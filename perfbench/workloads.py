"""The benchmark's workloads and the seeded ops they issue.

An op is one ``foxhom`` CLI invocation with ``--format json`` (and
``--jobs 1`` where the subcommand takes ``--jobs``).  A workload is a list of
strata, each a small set of interchangeable ops of similar cost, ordered by
cost.  One pass issues one op from every stratum, serially, in a seeded
order.  Across the passes of a run each stratum rotates through its members
from a seeded offset, so every member is used about equally often and the
cost of a pass barely depends on the seed.

The three level workloads have seven strata, so the pooled op latencies put
the median inside the fourth stratum and the 90th percentile inside the
seventh.  Those two strata hold a single op each, so the seed cannot move
either quantile from one level to another.  Passes are kept near a second
or two so a run holds ten or more of them: timings on a shared host drift
by tens of percent over seconds, and only many samples per run tame that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def rhs(n):
    return ("rhs-sweep", "--n", str(n), "--format", "json", "--jobs", "1")


def sakuma(n):
    return ("sakuma", "cover-job", "--n", str(n), "--format", "json")


def cover(n):
    return ("cover", "cover-job", "--n", str(n), "--format", "json")


def branched(n):
    return ("branched", "delta_L", "--n", str(n), "--k", "all", "--format", "json", "--jobs", "1")


VERIFY = ("verify-paper", "--format", "json")


@dataclass(frozen=True)
class Workload:
    name: str
    strata: tuple

    def candidates(self):
        """Every op a pass of this workload can issue."""
        return sorted({op for stratum in self.strata for op in stratum})

    def passes(self, seed):
        """Endless seeded passes, each a list of argv tuples."""
        rng = random.Random(f"{self.name}:{seed}")
        offsets = [rng.randrange(len(s)) for s in self.strata]
        p = 0
        while True:
            ops = [s[(o + p) % len(s)] for s, o in zip(self.strata, offsets)]
            rng.shuffle(ops)
            yield ops
            p += 1


def _levels(make, *levels):
    return tuple(make(n) for n in levels)


# what each workload stands for is said once, in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "filled-covers",
            (
                _levels(rhs, 3, 5, 7, 9),
                _levels(rhs, 11, 13),
                _levels(rhs, 17, 19),
                _levels(rhs, 23),
                _levels(rhs, 25, 27),
                _levels(rhs, 29, 31),
                _levels(rhs, 37),
            ),
        ),
        Workload(
            "transfer-modules",
            (
                _levels(cover, 9, 11),
                _levels(sakuma, 9, 11),
                _levels(cover, 15, 17),
                _levels(sakuma, 17),
                _levels(cover, 25, 27),
                _levels(sakuma, 21, 23),
                _levels(sakuma, 27),
            ),
        ),
        Workload(
            "branched-grid",
            (
                _levels(branched, 5, 7),
                _levels(branched, 11, 13),
                _levels(branched, 17, 19),
                _levels(branched, 31),
                _levels(branched, 41, 43),
                _levels(branched, 59, 61),
                _levels(branched, 79),
            ),
        ),
        Workload(
            "paper-verify",
            ((VERIFY,),) * 3,
        ),
    )
}
