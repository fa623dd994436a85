"""The arithmetic kernel: the omit-one gcd/lcm bundle of a tuple.

:func:`exact_invariant_core` computes the bundle with arbitrary-precision
integers in O(n) steps that each pair a running lcm with one entry, so
a tuple of thousands of large coprime entries costs a fraction of a
second (see its docstring).  When the compiled extension ``_speedups`` is built, its
64-bit kernel serves machine-size tuples (length <= 64, every entry and
intermediate lcm below 2**64) and raises OverflowError outside that
window, where the exact kernel answers instead; results are identical
either way.  Nothing but the presence of the extension picks the path.
"""

from __future__ import annotations

from math import gcd, lcm

try:
    from . import _speedups
except ImportError:  # installed without the extension
    _speedups = None


def exact_invariant_core(entries):
    """All omit-one gcd/lcm data for a tuple of positive ints (length >= 2).

    Returns ``(total_lcm, total_gcd, omitted_lcms, omitted_gcds,
    coordinate_gcds, lcm_critical_mask, gcd_critical_mask)``.  Bit ``i``
    of a mask refers to coordinate ``i`` (0-based here; callers translate
    to the 1-based index sets used everywhere else).  The compiled kernel
    must return identical values for identical input.

    Write O_i for the lcm of the entries other than a_i, and P_i and S_i
    for the lcms of the entries before and after it.  Since gcd
    distributes over lcm, the coordinate gcd c_i = gcd(a_i, O_i) is
    lcm(gcd(a_i, P_i), gcd(a_i, S_i)); since L = lcm(a_i, O_i) =
    a_i * O_i / c_i, O_i = (L // a_i) * c_i; and i is lcm-critical exactly
    when c_i != a_i.  So one pass each way, in which every big-integer
    step pairs a running lcm with one entry, gives the whole bundle: O(n)
    such steps, where joining prefix and suffix lcms would take n big x
    big lcms.
    """
    n = len(entries)
    before = []  # gcd(a_i, P_i)
    before_gcd = []  # gcd of the entries before a_i
    total_lcm, total_gcd = 1, 0
    for value in entries:
        g = gcd(value, total_lcm)
        before.append(g)
        before_gcd.append(total_gcd)
        total_lcm = total_lcm // g * value
        total_gcd = gcd(total_gcd, value)
    floors = [0] * n
    omitted_gcds = [0] * n
    after_lcm, after_gcd = 1, 0
    lcm_mask = gcd_mask = 0
    for i in range(n - 1, -1, -1):
        value = entries[i]
        g = gcd(value, after_lcm)
        floor = floors[i] = lcm(before[i], g)
        other_gcd = omitted_gcds[i] = gcd(before_gcd[i], after_gcd)
        if floor != value:
            lcm_mask |= 1 << i
        if value % other_gcd:
            gcd_mask |= 1 << i
        after_lcm = after_lcm // g * value
        after_gcd = gcd(after_gcd, value)
    return (
        total_lcm,
        total_gcd,
        tuple([total_lcm // value * floor for value, floor in zip(entries, floors)]),
        tuple(omitted_gcds),
        tuple(floors),
        lcm_mask,
        gcd_mask,
    )


def active_backend() -> str:
    """``"c"`` when the compiled kernel is built, else ``"python"``."""
    return "python" if _speedups is None else "c"


def invariant_core(entries):
    """Omit-one gcd/lcm bundle for a tuple; exact for arbitrary integers."""
    if _speedups is not None:
        try:
            return _speedups.invariant_core(entries)
        except OverflowError:
            pass
    return exact_invariant_core(entries)
