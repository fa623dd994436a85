"""The arithmetic kernel: the omit-one gcd/lcm data of a tuple.

Two entry points, both exact for arbitrary integers:

* :func:`invariant_core` is the search's kernel.  It returns only what
  the rules read, ``(coordinate_gcds, lcm_critical_mask)``, from one lcm
  pass each way;
* :func:`invariant_bundle` returns all seven omit-one parts, for the
  invariant report and the omit-one lcm and gcd functions: that lean
  pass plus the total lcm and one gcd pass each way.

Both passes take O(n) steps that each pair a running lcm (or gcd) with
one entry, so a tuple of thousands of large coprime entries costs a
fraction of a second.  Nothing here is cached: a search node keeps its
kernel result in its own :class:`~brieskorn.tuples.Facts` record.
"""

from __future__ import annotations

from math import gcd, lcm


def active_backend() -> str:
    """The kernel in use: always ``"python"``, the exact passes here."""
    return "python"


def invariant_core(entries):
    """``(coordinate_gcds, lcm_critical_mask)`` of a tuple of positive ints
    (length >= 2), exact for arbitrary integers.

    ``coordinate_gcds[i]`` is c_i = gcd(a_i, O_i), with O_i the lcm of the
    entries other than a_i, and bit ``i`` of the mask (0-based here;
    callers translate to the 1-based index sets used everywhere else) is
    set exactly when c_i != a_i, i.e. when i is lcm-critical.

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
    running = 1
    mask = 0
    for i in range(n - 1, -1, -1):
        value = entries[i]
        g = gcd(value, running)
        floor = floors[i] = lcm(before[i], g)
        if floor != value:
            mask |= 1 << i
        running = running // g * value
    return tuple(floors), mask


# The bundle calls the lean pass by this name, not through the module
# attribute, so a wrapper on ``invariant_core`` counts the search's passes only.
_lean_pass = invariant_core


def invariant_bundle(entries):
    """All omit-one gcd/lcm data for a tuple of positive ints (length >= 2).

    Returns ``(total_lcm, total_gcd, omitted_lcms, omitted_gcds,
    coordinate_gcds, lcm_critical_mask, gcd_critical_mask)``; parts 4 and
    5 (0-based) come from :func:`invariant_core`.  Since L =
    lcm(a_i, O_i) = a_i * O_i / c_i, the lcm of the others is
    O_i = (L // a_i) * c_i.  The gcds take one more pass each way.
    """
    floors, lcm_mask = _lean_pass(entries)
    total_lcm = lcm(*entries)
    n = len(entries)
    before = []  # gcd of the entries before a_i
    total_gcd = 0
    for value in entries:
        before.append(total_gcd)
        total_gcd = gcd(total_gcd, value)
    omitted_gcds = [0] * n
    after = 0
    gcd_mask = 0
    for i in range(n - 1, -1, -1):
        value = entries[i]
        other = omitted_gcds[i] = gcd(before[i], after)
        if value % other:
            gcd_mask |= 1 << i
        after = gcd(after, value)
    return (
        total_lcm,
        total_gcd,
        tuple([total_lcm // value * floor for value, floor in zip(entries, floors)]),
        tuple(omitted_gcds),
        floors,
        lcm_mask,
        gcd_mask,
    )
