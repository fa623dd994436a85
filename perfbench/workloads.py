"""Workload definitions and seeded input generators for the benchmark.

Every workload runs the same six stages (serial census, census with two
workers, sidecar replay, ``proj_classes``, a cold ``classify`` stream and
CLI cold starts) on its own inputs, so every end-to-end metric exists on
every workload while each workload loads a different layer:

* ``wide-n3`` never reaches the recursive rules, so it loads the tuple
  arithmetic, certificate hashing, rendering, replay and ``proj``;
* ``deep-n5`` spends nearly all of its time in the recursive search and
  its memo, and exposes the census pool's contiguous chunking;
* ``classify-cold`` classifies every tuple of a seeded stream with a fresh
  memo, which loads the length-4 permutation scan, ``divisors`` on large
  smooth entries and multi-word kernel inputs.

Every stage but classify-cold's stream takes about a second or less, so
a run can spread many samples of each stage over its whole length (see
``run.measure``).  The
census universes are fixed, so their files can be checked against
digests recorded in ``digests.json``.  The seed orders each workload's
classify sample and, on ``classify-cold``, draws the stream itself.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: The known open case: it must be part of every classify-cold stream
#: and must stay UNKNOWN.
OPEN_CASE = (2, 3, 3, 4)

#: Entries of classify-cold tuples are capped: trial division in
#: ``divisors`` runs to the square root of an entry, and an uncapped
#: 4e17 entry takes tens of seconds, which is hostile input rather than
#: timing traffic.
ENTRY_CAP = 10**8

#: Seed of the reference classify-cold stream whose verdicts are pinned in
#: ``digests.json``.  The timed stream is drawn from the run's own seed and
#: its verdicts are not pinned: only its certificates' replay and the
#: open case are checked there.
REFERENCE_SEED = 0
REFERENCE_COUNT = 300

#: Every classify-cold stream is a seeded sample of a pool this many
#: times its length, drawn once from ``POOL_SEED`` (see
#: ``classify_cold_stream``).
POOL_FACTOR = 4 / 3
POOL_SEED = 20260

SMOOTH_PRIMES = (2, 3, 5, 7, 11, 13)
SMALL_ENTRIES = (2, 16)
LARGE_SHARE = 0.3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    length: int
    max_exponent: int
    #: Number of tuples in the cold classify stream.
    stream_count: int
    #: Tuples given to ``python -m brieskorn classify`` one at a time.
    cli_tuples: tuple[tuple[int, ...], ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide-n3",
            why="n=3 census over 1..30: arithmetic rules, certificate ids, rendering, "
            "replay and proj_classes, with no recursive search",
            length=3,
            max_exponent=30,
            # The whole universe: each tuple takes tens of microseconds,
            # so fewer would measure too little time per sample.
            stream_count=4960,
            cli_tuples=((2, 3, 7), (4, 6, 9), (5, 5, 5)),
        ),
        Workload(
            name="deep-n5",
            why="n=5 census over 1..5: recursive search and its memo, and the "
            "fork pool's contiguous chunking with two workers",
            length=5,
            max_exponent=5,
            # The whole universe, so that the seed changes only the order.
            stream_count=126,
            cli_tuples=((2, 3, 3, 4, 5), (3, 3, 3, 3, 3), (3, 4, 5, 6, 7)),
        ),
        Workload(
            name="classify-cold",
            why="seeded stream of length-4 tuples, each classified with a cold memo: "
            "permutation scan, divisors of large smooth entries, CLI cold start",
            length=4,
            max_exponent=10,
            # Long enough that the seed moves the stream's time little
            # (see ``classify_cold_stream``).
            stream_count=3000,
            cli_tuples=(OPEN_CASE, (2, 3, 5, 12), (3, 4, 4, 8)),
        ),
    )
}


def universe(workload: Workload) -> list[tuple[int, ...]]:
    """The census universe: non-decreasing tuples, lexicographic order."""
    from itertools import combinations_with_replacement

    values = range(1, workload.max_exponent + 1)
    return list(combinations_with_replacement(values, workload.length))


def smooth_numbers(cap: int = ENTRY_CAP) -> list[int]:
    """All positive integers up to ``cap`` with no prime factor outside
    ``SMOOTH_PRIMES``, ascending."""
    found = [1]
    for p in SMOOTH_PRIMES:
        grown = []
        for value in found:
            while value <= cap:
                grown.append(value)
                value *= p
        found = grown
    return sorted(found)


def draw_tuples(rng: random.Random, count: int, cap: int) -> list[tuple[int, ...]]:
    """``count`` independent length-4 tuples.

    Entries are drawn from ``SMALL_ENTRIES``; in about ``LARGE_SHARE`` of
    the tuples one entry is replaced by a 13-smooth number above them and
    at most ``cap``.  Tuples keep their drawn order (not sorted).
    """
    low, high = SMALL_ENTRIES
    large = [v for v in smooth_numbers(cap) if v > high]
    tuples = []
    for _ in range(count):
        entries = [rng.randint(low, high) for _ in range(4)]
        if rng.random() < LARGE_SHARE:
            entries[rng.randrange(4)] = rng.choice(large)
        tuples.append(tuple(entries))
    return tuples


def classify_cold_stream(seed: int, count: int, *, cap: int = ENTRY_CAP) -> list[tuple[int, ...]]:
    """Seeded stream of ``count`` length-4 tuples for cold classification.

    The stream is a seeded sample, without repeats and in seeded order, of
    a pool of ``POOL_FACTOR * count`` tuples from ``draw_tuples``, plus
    :data:`OPEN_CASE` at a seeded position.  The pool is the same for
    every seed.  About 8% of the tuples exhaust the search budget and
    take 98% of the time, and a stream of independent draws would hold
    a number of them that varies with the seed by 1/sqrt(0.08 * count):
    6% in 3000 tuples.  A sample of three quarters of a fixed pool halves
    that (the variance of such a sample's total is a quarter of that of
    independent draws).
    """
    if count < 1:
        raise ValueError("a stream needs at least one tuple")
    pool = draw_tuples(random.Random(POOL_SEED), math.ceil((count - 1) * POOL_FACTOR), cap)
    rng = random.Random(seed)
    stream = rng.sample(pool, count - 1)
    stream.insert(rng.randrange(count), OPEN_CASE)
    return stream


def classify_stream(workload: Workload, seed: int) -> list[tuple[int, ...]]:
    """The tuples the classify stage sends to ``classify`` one by one.

    On the census workloads this is an evenly spaced sample of the
    universe in seeded order; on ``classify-cold`` it is the seeded
    stream itself.
    """
    if workload.name == "classify-cold":
        return classify_cold_stream(seed, workload.stream_count)
    members = universe(workload)
    step = len(members) / workload.stream_count
    sample = [members[int(k * step)] for k in range(workload.stream_count)]
    random.Random(seed).shuffle(sample)
    return sample
