"""The arithmetic kernel: the coordinate gcds and the lcm-critical indices
of a tuple, exact for arbitrary integers.

:func:`invariant_core` is the one kernel pass; :mod:`brieskorn.tuples`
derives every other omit-one invariant from it or from its own gcd pass.
The pass takes O(n) steps that each pair a running lcm with one entry,
so a tuple of thousands of large coprime entries costs a fraction of a
second.  Nothing here is cached: a search node keeps its kernel result
in its own :class:`~brieskorn.tuples.Facts` record, and a DESCEND
witness child's record takes its parent's result with no pass of its
own (the witness-record rule in :mod:`brieskorn.engine`).
"""

from __future__ import annotations

from math import gcd, lcm


def active_backend() -> str:
    """The kernel in use: always ``"python"``, the exact passes here."""
    return "python"


def invariant_core(entries):
    """``(coordinate_gcds, lcm_critical)`` of a tuple of positive ints
    (length >= 2), exact for arbitrary integers.

    ``coordinate_gcds[i]`` is c_i = gcd(a_i, O_i), with O_i the lcm of the
    entries other than a_i, and ``lcm_critical`` holds, ascending, the
    1-based indices i with c_i != a_i: the lcm-critical ones.

    Write P_i and S_i for the lcms of the entries before and after a_i.
    Since gcd distributes over lcm, c_i = lcm(gcd(a_i, P_i), gcd(a_i, S_i)).
    So one pass each way, in which every big-integer step pairs a running
    lcm with one entry, gives both parts: O(n) such steps, where joining
    prefix and suffix lcms would take n big x big lcms.
    """
    n = len(entries)
    before = []  # gcd(a_i, P_i)
    running = 1
    for value in entries:
        g = gcd(value, running)
        before.append(g)
        running = running // g * value
    floors = [0] * n
    critical = []  # descending until reversed
    running = 1
    for i in range(n - 1, -1, -1):
        value = entries[i]
        g = gcd(value, running)
        floor = floors[i] = lcm(before[i], g)
        if floor != value:
            critical.append(i + 1)
        running = running // g * value
    critical.reverse()
    return tuple(floors), tuple(critical)
