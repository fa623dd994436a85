"""Exact arithmetic on exponent tuples.

Every derived invariant of a tuple S = (a_1, ..., a_n) used by the
classifier lives here: gcd/lcm aggregates and their omit-one variants,
the critical index sets and their sizes (type and cotype), the
coordinate-wise divisor order, lcm drop factors, and exact reciprocal
sums.  Index sets and ``index`` arguments are 1-based, matching reports
and certificates.  All arithmetic is exact (ints and Fractions, never
floats).  Each helper runs only the pass it reads: the coordinate gcds,
the lcm-critical set and the omit-one lcms (L / a_i) * c_i come from the
kernel pass :func:`invariant_core`, and the gcds and the gcd-critical set
from one gcd pass each way (:func:`_gcd_pass`).
Both passes give their critical indices as an ascending tuple, and the
public helpers give them as frozensets.  Neither pass is cached: a search
node keeps its kernel result in its :class:`Facts` record (a DESCEND
witness child's record takes its parent's), and
:func:`invariant_report` reads one such record plus one gcd pass.

Terminology used throughout:

* an index i is *lcm-critical* when a_i does not divide the lcm of the
  other entries, i.e. removing it strictly lowers the lcm; the number of
  lcm-critical indices is the *cotype* of the tuple;
* an index i is *gcd-critical* when the gcd of the other entries does
  not divide a_i, i.e. removing it strictly raises the gcd; the number
  of gcd-critical indices is the *type*;
* the *degree tuple* of S is (L/a_1, ..., L/a_n) with L = lcm(S): the
  generator degrees of the standard grading of the associated ring.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heappop, heappush
from math import gcd, isqrt, lcm, prod
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import InputError

if TYPE_CHECKING:
    from fractions import Fraction

Exponents = tuple[int, ...]
IndexSet = frozenset[int]


def as_exponents(values: Sequence[int] | Iterable[int], *, minimum_length: int = 2) -> Exponents:
    """Validate and normalize a sequence of exponents to a plain tuple.

    Classification entry points require at least three entries; invariant
    computations accept two (subtuples of classified tuples may be that
    short).
    """
    try:
        entries = tuple(values)
    except TypeError:
        raise InputError(f"exponents must be a sequence of integers, got {values!r}") from None
    if len(entries) < minimum_length:
        raise InputError(
            f"need at least {minimum_length} exponents, got {len(entries)}: {entries!r}"
        )
    for value in entries:
        if not isinstance(value, int) or isinstance(value, bool):
            raise InputError(f"exponents must be integers, got {value!r}")
        if value < 1:
            raise InputError(f"exponents must be >= 1, got {value}")
    return entries


def _check_index(entries: Exponents, index: int) -> None:
    if not 1 <= index <= len(entries):
        raise InputError(f"index {index} out of range for a tuple of length {len(entries)}")


def _check_index_set(entries: Exponents, indices: Iterable[int]) -> tuple[int, ...]:
    out = sorted(set(indices))
    for index in out:
        _check_index(entries, index)
    return tuple(out)


def _stable(critical: tuple[int, ...], n: int) -> IndexSet:
    """The indices 1..n outside ``critical``."""
    return frozenset(range(1, n + 1)).difference(critical)


def lcm_gcd(entries: Exponents) -> tuple[int, int]:
    """(lcm, gcd) of the entries."""
    return lcm(*entries), gcd(*entries)


def subtuple(entries: Exponents, removed: Iterable[int]) -> Exponents:
    """Entries with the 1-based indices in ``removed`` omitted, order kept.

    Removing every index is rejected; removing nothing returns the tuple
    unchanged.
    """
    gone = set(_check_index_set(entries, removed))
    if len(gone) == len(entries):
        raise InputError("cannot remove every index from a tuple")
    return tuple(value for i, value in enumerate(entries, start=1) if i not in gone)


def omit(entries: Exponents, index: int) -> Exponents:
    """Entries with the single 1-based ``index`` omitted."""
    _check_index(entries, index)
    return entries[: index - 1] + entries[index:]


def normalization(entries: Exponents) -> Exponents:
    """Entries divided by their gcd; the result has gcd 1."""
    g = gcd(*entries)
    return tuple(value // g for value in entries)


def degrees(entries: Exponents) -> Exponents:
    """The degree tuple (L/a_1, ..., L/a_n) with L = lcm of the entries.

    Always has gcd 1, and applying it twice yields the normalization of
    the input.
    """
    total = lcm(*entries)
    return tuple(total // value for value in entries)


def _gcd_pass(entries: Exponents) -> tuple[int, Exponents, tuple[int, ...]]:
    """``(total_gcd, omitted_gcds, gcd_critical)`` of a tuple of positive
    ints (length >= 2), from one gcd pass each way: the gcd of the others
    is that of the entries before and after a_i, and ``gcd_critical``
    holds, ascending, the 1-based indices i where it does not divide a_i."""
    n = len(entries)
    before = []  # gcd of the entries before a_i
    total_gcd = 0
    for value in entries:
        before.append(total_gcd)
        total_gcd = gcd(total_gcd, value)
    omitted = [0] * n
    critical = []  # descending until reversed
    after = 0
    for i in range(n - 1, -1, -1):
        value = entries[i]
        other = omitted[i] = gcd(before[i], after)
        if value % other:
            critical.append(i + 1)
        after = gcd(after, value)
    critical.reverse()
    return total_gcd, tuple(omitted), tuple(critical)


def active_backend() -> str:
    """The kernel in use, recorded with every benchmark run: ``"python"``."""
    return "python"


def invariant_core(entries: Exponents) -> tuple[Exponents, tuple[int, ...]]:
    """``(coordinate_gcds, lcm_critical)`` of a tuple of positive ints
    (length >= 2), exact for arbitrary integers: the kernel pass.

    ``coordinate_gcds[i]`` is c_i = gcd(a_i, O_i), with O_i the lcm of the
    entries other than a_i, and ``lcm_critical`` holds, ascending, the
    1-based indices i with c_i != a_i: the lcm-critical ones.

    Write P_i and S_i for the lcms of the entries before and after a_i.
    Since gcd distributes over lcm, c_i = lcm(gcd(a_i, P_i), gcd(a_i, S_i)).
    So one pass each way, in which every big-integer step pairs a running
    lcm with one entry, gives both parts: O(n) such steps, where joining
    prefix and suffix lcms would take n big x big lcms.  A tuple of
    thousands of large coprime entries costs a fraction of a second.
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


def omitted_lcms(entries: Exponents) -> Exponents:
    """lcm of all entries except the i-th, for each i.  Since L =
    lcm(a_i, O_i) = a_i * O_i / c_i, with c_i the coordinate gcd, the lcm
    of the others is O_i = (L // a_i) * c_i."""
    total, floors = lcm(*entries), invariant_core(entries)[0]
    return tuple([total // value * floor for value, floor in zip(entries, floors)])


def omitted_gcds(entries: Exponents) -> Exponents:
    """gcd of all entries except the i-th, for each i."""
    return _gcd_pass(entries)[1]


def lcm_critical_indices(entries: Exponents) -> IndexSet:
    """Indices whose removal strictly lowers the lcm (a_i does not divide
    the lcm of the others)."""
    return frozenset(invariant_core(entries)[1])


def lcm_stable_indices(entries: Exponents) -> IndexSet:
    """Complement of :func:`lcm_critical_indices`: a_i divides the lcm of
    the others."""
    return _stable(invariant_core(entries)[1], len(entries))


def gcd_critical_indices(entries: Exponents) -> IndexSet:
    """Indices whose removal strictly raises the gcd (the gcd of the
    others does not divide a_i)."""
    return frozenset(_gcd_pass(entries)[2])


def cotype_sets(entries: Exponents) -> tuple[IndexSet, IndexSet, int]:
    """(lcm-critical set, its complement, cotype)."""
    critical = invariant_core(entries)[1]
    return frozenset(critical), _stable(critical, len(entries)), len(critical)


def type_set(entries: Exponents) -> tuple[IndexSet, int]:
    """(gcd-critical set, type)."""
    critical = gcd_critical_indices(entries)
    return critical, len(critical)


def cotype(entries: Exponents) -> int:
    return len(invariant_core(entries)[1])


def type_size(entries: Exponents) -> int:
    return len(_gcd_pass(entries)[2])


def coordinate_gcd(entries: Exponents, index: int) -> int:
    """gcd(a_i, lcm of the other entries): the floor of coordinate ``index``
    in the divisor order."""
    _check_index(entries, index)
    return gcd(entries[index - 1], lcm(*entries[: index - 1], *entries[index:]))


def coordinate_gcds(entries: Exponents) -> Exponents:
    return invariant_core(entries)[0]


def leq_at(smaller: Exponents, larger: Exponents, index: int) -> bool:
    """Coordinate-``index`` divisor order.

    True when both tuples agree outside ``index`` and, writing g for the
    coordinate gcd of the larger tuple at ``index``, g divides the
    smaller entry, which divides the larger entry.
    """
    if len(smaller) != len(larger):
        raise InputError(
            f"tuples must have equal length, got {len(smaller)} and {len(larger)}"
        )
    _check_index(smaller, index)
    if omit(smaller, index) != omit(larger, index):
        return False
    a_small = smaller[index - 1]
    a_large = larger[index - 1]
    g = coordinate_gcd(larger, index)
    return a_small % g == 0 and a_large % a_small == 0


def lt_at(smaller: Exponents, larger: Exponents, index: int) -> bool:
    """Strict variant of :func:`leq_at`."""
    return smaller != larger and leq_at(smaller, larger, index)


def _drop(entries: Exponents, floors: Exponents, chosen: Iterable[int]) -> int:
    return prod([entries[index - 1] // floors[index - 1] for index in chosen])


def lcm_drop(entries: Exponents, indices: Iterable[int]) -> int:
    """lcm of the entries divided by the gcd of the omit-one lcms over
    ``indices``; 1 for the empty set.

    Always a positive integer, and equal to 1 exactly when ``indices``
    avoids every lcm-critical index.

    It is the product of a_i / c_i over ``indices``, with c_i the
    coordinate gcd and O_i the lcm of the others.  For a prime p whose
    highest power among the entries is p^M, when a single a_i reaches p^M,
    L / O_i and a_i / c_i both hold p^(M - s), p^s the highest power among
    the others; otherwise neither holds p.  So the factors a_i / c_i are
    pairwise coprime, and L over the gcd of the O_i is their product.
    """
    chosen = _check_index_set(entries, indices)
    if not chosen:
        return 1
    return _drop(entries, invariant_core(entries)[0], chosen)


def in_tn(entries: Exponents) -> bool:
    """Every entry >= 2 with at most one entry equal to 2: the necessary
    condition for rigidity."""
    return min(entries) >= 2 and entries.count(2) <= 1


class Facts:
    """What the rules' side conditions read about one tuple, computed once
    per search node.  A census row reuses the record of its root node: the
    census builds it, passes it to the search and reads the row's cotype,
    T_n membership and reciprocal sum from it.  ``invariants`` builds one
    for the report and the kernel bound to share.

    ``entries``, ``n``, ``in_tn``, ``lcm`` (L) and ``sigma`` (the sum of
    L/a_i) are set on construction.  The lcm-critical indices ``critical``,
    ascending, and the coordinate gcds ``floors`` are ``kernel``, the
    ``(floors, critical)`` pair, when one is given: a DESCEND witness child
    takes it from its parent (the witness-record rule in
    :mod:`brieskorn.engine`).  Otherwise they come from one kernel pass
    (:func:`invariant_core`), run on the first read of either and kept in
    the record, not in any process-wide cache.  No
    length-3 search node reads them, so classifying a length-3 tuple runs
    no kernel pass.
    """

    __slots__ = ("entries", "n", "in_tn", "lcm", "sigma", "_kernel")

    def __init__(self, entries: Exponents, kernel: tuple[Exponents, tuple[int, ...]] | None = None):
        self.entries = entries
        self.n = len(entries)
        self.in_tn = in_tn(entries)
        self.lcm = total = lcm(*entries)
        # one quotient L/a_i, nearly as large as L, is held at a time
        self.sigma = sum(map(total.__floordiv__, entries))
        self._kernel = kernel

    def _run_kernel(self) -> tuple[Exponents, tuple[int, ...]]:
        kernel = self._kernel = invariant_core(self.entries)
        return kernel

    @property
    def critical(self) -> tuple[int, ...]:
        return (self._kernel or self._run_kernel())[1]

    @property
    def floors(self) -> Exponents:
        return (self._kernel or self._run_kernel())[0]


def _facts_of(entries: Exponents, facts: Facts | None) -> Facts:
    """``facts`` if it is the record of ``entries`` (else InputError), or a new one."""
    if facts is None:
        return Facts(entries)
    if facts.entries != entries:
        raise InputError(f"facts of {facts.entries} given for the tuple {entries}")
    return facts


def reciprocal_sum(entries: Exponents, indices: Iterable[int] | None = None) -> Fraction:
    """Exact sum of 1/a_i over ``indices`` (all indices when omitted), as
    sum(L/a_i)/L with L the lcm of the chosen entries; 0 for the empty set."""
    from fractions import Fraction

    if indices is None:
        chosen: Sequence[int] = entries
    else:
        chosen = [entries[i - 1] for i in _check_index_set(entries, indices)]
    total = lcm(*chosen)
    return Fraction(sum(total // value for value in chosen), total)


def _primes_below(limit: int) -> tuple[int, ...]:
    """The primes below ``limit`` (at least 2), by the sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 2)
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return tuple(p for p, flag in enumerate(sieve) if flag)


# Primes below 2**10, tried by trial division before Pollard-Brent rho.
# A cofactor with no prime factor below 2**10 is prime when it is below
# 2**20.
_SMALL_PRIMES = _primes_below(1 << 10)
_TRIAL_LIMIT = 1 << 20

# Miller-Rabin to these bases is exact below 3,317,044,064,679,887,385,961,981
# (J. Sorenson and J. Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 86, 2017).  Above it a composite passing every base
# would be kept as a prime factor, so some of its divisors would be
# missed; every divisor returned would still divide the value.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin for an odd ``n`` with no prime factor below 2**10."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper factor of an odd composite ``n``: Pollard rho with Brent's
    cycle detection and batched gcds (R. P. Brent, "An improved Monte
    Carlo factorization algorithm", BIT 20, 1980).  Deterministic: the
    polynomials x^2 + c are tried for c = 1, 2, ... from x = 2."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = gcd(abs(x - saved), n)
        if g != n:
            return g


def _trial_division(value: int) -> tuple[list[tuple[int, int]], int]:
    """(prime, exponent) pairs of the primes below 2**10 that divide
    ``value``, by ascending prime, and the cofactor they leave.  A cofactor
    of 2**20 or more has no prime factor below 2**10: trial division stops
    early only once p * p exceeds what is left."""
    found = []
    for p in _SMALL_PRIMES:
        if p * p > value:
            break
        if not value % p:
            exponent = 0
            while not value % p:
                value //= p
                exponent += 1
            found.append((p, exponent))
    return found, value


def _cofactor_factorization(value: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs, by ascending prime, of a cofactor that
    :func:`_trial_division` left."""
    found: dict[int, int] = {}
    pending = [value] if value > 1 else []
    while pending:
        n = pending.pop()
        if n < _TRIAL_LIMIT or _is_prime(n):
            found[n] = found.get(n, 0) + 1
        else:
            factor = _rho(n)
            pending += (factor, n // factor)
    return sorted(found.items())


def _smallest_divisors(factors: list[tuple[int, int]], limit: int | None) -> tuple[int, ...]:
    """The divisors of the product of the (prime, exponent) pairs
    ``factors`` (by ascending prime), ascending, popped from a heap; only
    the ``limit`` smallest unless ``limit`` is None."""
    # Each divisor d > 1 is pushed once, from d / p with p its largest
    # prime factor, and d / p < d, so the heap pops them in ascending order.
    # An item is (divisor, index of its largest prime, that prime's exponent).
    smallest = [1]
    heap = [(p, i, 1) for i, (p, _) in enumerate(factors)]
    while heap and (limit is None or len(smallest) < limit):
        d, i, k = heappop(heap)
        smallest.append(d)
        if k < factors[i][1]:
            heappush(heap, (d * factors[i][0], i, k + 1))
        for j in range(i + 1, len(factors)):
            heappush(heap, (d * factors[j][0], j, 1))
    return tuple(smallest)


# typed: a float or bool argument never shares a key with an int, so it
# reaches the checks below, and an exception is never cached
@lru_cache(maxsize=1 << 10, typed=True)
def divisors(value: int, limit: int | None = None) -> tuple[int, ...]:
    """The positive divisors of ``value``, ascending, from its
    factorization; only the ``limit`` smallest when a positive ``limit``
    is given, found without listing the rest."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise InputError(f"divisors are defined for positive integers, got {value!r}")
    if limit is not None and (not isinstance(limit, int) or isinstance(limit, bool)):
        raise InputError(f"the divisor limit must be an integer, got {limit!r}")
    if limit is not None and limit < 1:
        raise InputError(f"the divisor limit must be positive, got {limit}")
    factors, cofactor = _trial_division(value)
    if limit is not None and cofactor >= _TRIAL_LIMIT:
        # Every divisor that a prime factor of the cofactor divides exceeds
        # 2**10.  So when the trial-divided part has ``limit`` divisors below
        # 2**10, they are the smallest of ``value``, and the cofactor is not
        # factored: rho's time grows with the square root of its
        # second-largest prime factor.
        smallest = _smallest_divisors(factors, limit)
        if len(smallest) == limit and smallest[-1] < 1 << 10:
            return smallest
    return _smallest_divisors(factors + _cofactor_factorization(cofactor), limit)


def apply_permutation(entries: Exponents, permutation: Sequence[int]) -> Exponents:
    """Reorder entries so that slot k holds entry ``permutation[k]`` (1-based)."""
    if sorted(permutation) != list(range(1, len(entries) + 1)):
        raise InputError(f"not a permutation of 1..{len(entries)}: {tuple(permutation)!r}")
    return tuple(entries[p - 1] for p in permutation)


def identity_permutation(length: int) -> tuple[int, ...]:
    return tuple(range(1, length + 1))


class InvariantReport(NamedTuple):
    """Every derived arithmetic invariant of one exponent tuple."""

    exponents: Exponents
    total_lcm: int
    total_gcd: int
    normalization: Exponents
    degrees: Exponents
    type: int
    cotype: int
    gcd_critical: IndexSet
    lcm_critical: IndexSet
    lcm_stable: IndexSet
    coordinate_gcds: Exponents
    in_tn: bool
    critical_lcm_drop: int
    reciprocal_sum: Fraction

    @property
    def length(self) -> int:
        return len(self.exponents)

    def to_dict(self) -> dict:
        """JSON-ready mapping; rationals rendered exactly, sets sorted."""
        return {
            "tuple": list(self.exponents),
            "lcm": self.total_lcm,
            "gcd": self.total_gcd,
            "normalization": list(self.normalization),
            "degrees": list(self.degrees),
            "type": self.type,
            "cotype": self.cotype,
            "gcd_critical": sorted(self.gcd_critical),
            "lcm_critical": sorted(self.lcm_critical),
            "lcm_stable": sorted(self.lcm_stable),
            "coordinate_gcds": list(self.coordinate_gcds),
            "in_Tn": self.in_tn,
            "critical_lcm_drop": self.critical_lcm_drop,
            "reciprocal_sum": str(self.reciprocal_sum),
        }


def invariant_report(values: Sequence[int] | Iterable[int], *, facts: Facts | None = None) -> InvariantReport:
    """Every derived invariant of a tuple (length >= 2), from its
    :class:`Facts` record (L, sigma, T_n membership, the lcm-critical
    indices and the coordinate gcds) and one gcd pass.  ``facts``, when
    given, is that record; otherwise the report builds it."""
    from fractions import Fraction

    entries = as_exponents(values, minimum_length=2)
    facts = _facts_of(entries, facts)
    total_gcd, _, gcd_critical = _gcd_pass(entries)
    total_lcm, lcm_critical, coord = facts.lcm, facts.critical, facts.floors
    return InvariantReport(
        exponents=entries,
        total_lcm=total_lcm,
        total_gcd=total_gcd,
        normalization=tuple(v // total_gcd for v in entries),
        degrees=tuple(total_lcm // v for v in entries),
        type=len(gcd_critical),
        cotype=len(lcm_critical),
        gcd_critical=frozenset(gcd_critical),
        lcm_critical=frozenset(lcm_critical),
        lcm_stable=_stable(lcm_critical, facts.n),
        coordinate_gcds=coord,
        in_tn=facts.in_tn,
        critical_lcm_drop=_drop(entries, coord, lcm_critical),
        reciprocal_sum=Fraction(facts.sigma, total_lcm),
    )
