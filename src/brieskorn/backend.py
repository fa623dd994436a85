"""The arithmetic kernel: the omit-one gcd/lcm bundle of a tuple.

:func:`exact_invariant_core` computes the bundle with arbitrary-precision
integers.  When the compiled extension ``_speedups`` is built, its
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
    """
    n = len(entries)
    prefix_lcm = [1] * (n + 1)
    prefix_gcd = [0] * (n + 1)
    for i, value in enumerate(entries):
        prefix_lcm[i + 1] = lcm(prefix_lcm[i], value)
        prefix_gcd[i + 1] = gcd(prefix_gcd[i], value)
    suffix_lcm = [1] * (n + 1)
    suffix_gcd = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_lcm[i] = lcm(entries[i], suffix_lcm[i + 1])
        suffix_gcd[i] = gcd(entries[i], suffix_gcd[i + 1])
    omitted_lcms = []
    omitted_gcds = []
    coordinate_gcds = []
    lcm_mask = 0
    gcd_mask = 0
    for i, value in enumerate(entries):
        other_lcm = lcm(prefix_lcm[i], suffix_lcm[i + 1])
        other_gcd = gcd(prefix_gcd[i], suffix_gcd[i + 1])
        omitted_lcms.append(other_lcm)
        omitted_gcds.append(other_gcd)
        coordinate_gcds.append(gcd(value, other_lcm))
        if other_lcm % value:
            lcm_mask |= 1 << i
        if value % other_gcd:
            gcd_mask |= 1 << i
    return (
        prefix_lcm[n],
        prefix_gcd[n],
        tuple(omitted_lcms),
        tuple(omitted_gcds),
        tuple(coordinate_gcds),
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
