"""Tuple invariants: frozen examples plus structural properties.

Expected values in the frozen tests were computed independently (by
factorization or the naive one-line definition) before being asserted.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brieskorn as bk
from brieskorn import tuples as tp
from brieskorn.errors import InputError

exponent_tuples = st.lists(st.integers(1, 500), min_size=2, max_size=7).map(tuple)


def naive_lcm_critical(entries):
    out = set()
    for i in range(1, len(entries) + 1):
        rest = entries[: i - 1] + entries[i:]
        if lcm(*rest) % entries[i - 1]:
            out.add(i)
    return frozenset(out)


def naive_gcd_critical(entries):
    out = set()
    for i in range(1, len(entries) + 1):
        rest = entries[: i - 1] + entries[i:]
        if entries[i - 1] % gcd(*rest):
            out.add(i)
    return frozenset(out)


class TestAggregates:
    def test_lcm_gcd_examples(self):
        assert tp.lcm_gcd((2, 3, 3, 4)) == (12, 1)
        assert tp.lcm_gcd((5, 5, 5)) == (5, 5)
        assert tp.lcm_gcd((10, 3, 3, 4)) == (60, 1)

    def test_normalization(self):
        assert tp.normalization((6, 10, 14)) == (3, 5, 7)
        assert tp.normalization((3, 5, 7)) == (3, 5, 7)
        assert tp.normalization((4, 8, 12, 16)) == (1, 2, 3, 4)

    def test_degrees(self):
        assert tp.degrees((2, 3, 3, 4)) == (6, 4, 4, 3)
        assert tp.degrees((7, 7, 7, 7, 7)) == (1, 1, 1, 1, 1)
        assert tp.degrees((10, 3, 3, 4)) == (6, 20, 20, 15)

    def test_omitted_aggregates(self):
        assert tp.omitted_lcms((2, 3, 3, 4)) == (12, 12, 12, 6)
        assert tp.omitted_gcds((6, 4, 4, 3)) == (1, 1, 1, 2)


class TestSubtuples:
    def test_subtuple_examples(self):
        assert tp.subtuple((2, 5, 7, 3, 3, 3), {1, 2}) == (7, 3, 3, 3)
        assert tp.subtuple((2, 3, 3, 4), set()) == (2, 3, 3, 4)
        assert tp.subtuple((10, 3, 3, 4), {4}) == (10, 3, 3)
        assert tp.omit((10, 3, 3, 4), 1) == (3, 3, 4)

    @pytest.mark.parametrize("kind", [tuple, list])
    def test_omit_returns_a_tuple(self, kind):
        assert tp.omit(kind((2, 3, 4)), 1) == (3, 4) == tp.subtuple(kind((2, 3, 4)), [1])
        assert type(tp.omit(kind((2, 3, 4)), 2)) is tuple

    def test_subtuple_rejects_full_removal(self):
        with pytest.raises(InputError):
            tp.subtuple((2, 3, 4), {1, 2, 3})

    def test_subtuple_rejects_bad_indices(self):
        with pytest.raises(InputError):
            tp.subtuple((2, 3, 4), {0})
        with pytest.raises(InputError):
            tp.omit((2, 3, 4), 4)


class TestCriticalSets:
    def test_lcm_critical_examples(self):
        critical, stable, size = tp.cotype_sets((2, 3, 3, 4))
        assert critical == frozenset({4})
        assert stable == frozenset({1, 2, 3})
        assert size == 1
        assert tp.cotype_sets((10, 3, 3, 4))[0] == frozenset({1, 4})
        assert tp.cotype_sets((6, 6, 6, 6))[2] == 0

    def test_gcd_critical_examples(self):
        critical, size = tp.type_set((6, 4, 4, 3))
        assert critical == frozenset({4})
        assert size == 1
        assert tp.type_set((1, 1, 1))[1] == 0

    def test_duality_on_the_open_tuple(self):
        entries = (2, 3, 3, 4)
        assert tp.type_size(tp.degrees(entries)) == tp.cotype(entries) == 1

    def test_every_index_critical(self):
        # pairwise coprime-ish entries: nothing divides the lcm of the rest
        assert tp.cotype((7, 5, 6, 8)) == 4
        assert tp.lcm_stable_indices((7, 5, 6, 8)) == frozenset()


class TestCoordinateGcd:
    def test_examples(self):
        assert tp.coordinate_gcd((2, 3, 3, 4), 4) == 2
        assert tp.coordinate_gcd((9, 9, 9, 9), 2) == 9
        assert tp.coordinate_gcd((3, 6, 15, 21), 4) == 3
        assert tp.coordinate_gcds((10, 3, 3, 4)) == (2, 3, 3, 2)

    def test_index_validation(self):
        with pytest.raises(InputError):
            tp.coordinate_gcd((2, 3, 4), 0)
        with pytest.raises(InputError):
            tp.coordinate_gcd((2, 3, 4), 5)


class TestDivisorOrder:
    def test_divisor_chain_examples(self):
        assert tp.leq_at((2, 3, 3, 2), (2, 3, 3, 4), 4)
        assert tp.leq_at((2, 3, 3, 4), (10, 3, 3, 4), 1)
        assert tp.lt_at((2, 3, 3, 2), (2, 3, 3, 4), 4)

    def test_reflexive_never_strict(self):
        for entries in ((2, 3, 3, 4), (5, 5, 5), (1, 2, 3, 4, 5)):
            for i in range(1, len(entries) + 1):
                assert tp.leq_at(entries, entries, i)
                assert not tp.lt_at(entries, entries, i)

    def test_needs_matching_rest(self):
        assert not tp.leq_at((2, 3, 3, 2), (2, 3, 5, 4), 4)

    def test_floor_must_divide(self):
        # coordinate gcd of the larger tuple is 6, which does not divide 2
        assert tp.coordinate_gcd((3, 4, 6), 3) == 6
        assert not tp.leq_at((3, 4, 2), (3, 4, 6), 3)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            tp.leq_at((2, 3, 4), (2, 3, 4, 5), 1)

    @pytest.mark.parametrize("smaller_kind, larger_kind", [(tuple, list), (list, tuple), (list, list)])
    def test_lists_compare_by_value(self, smaller_kind, larger_kind):
        def both(smaller, larger):
            return smaller_kind(smaller), larger_kind(larger)

        assert tp.leq_at(*both((2, 3, 4), (2, 3, 8)), 3)
        assert tp.lt_at(*both((2, 3, 4), (2, 3, 8)), 3)
        assert tp.leq_at(*both((2, 3, 3, 4), (10, 3, 3, 4)), 1)
        assert tp.leq_at(*both((2, 3, 4), (2, 3, 4)), 3)
        assert not tp.lt_at(*both((2, 3, 4), (2, 3, 4)), 3)
        assert not tp.leq_at(*both((2, 3, 3, 2), (2, 3, 5, 4)), 4)
        assert not tp.leq_at(*both((3, 4, 2), (3, 4, 6)), 3)


class TestLcmDrop:
    def test_empty_set_is_one(self):
        assert tp.lcm_drop((9, 14, 25), set()) == 1

    def test_two_critical_indices_value(self):
        # lcm 60, gcd(lcm(3,3,4), lcm(10,3,3)) = gcd(12, 30) = 6
        assert tp.lcm_drop((10, 3, 3, 4), {1, 4}) == 10

    def test_one_iff_avoids_critical(self):
        entries = (10, 3, 3, 4)
        critical = tp.lcm_critical_indices(entries)
        for subset in ({2}, {3}, {2, 3}):
            assert tp.lcm_drop(entries, subset) == 1
            assert not (subset & critical)
        for subset in ({1}, {4}, {1, 2}, {1, 4}):
            assert tp.lcm_drop(entries, subset) > 1
            assert subset & critical

    def test_rejects_bad_indices(self):
        with pytest.raises(InputError):
            tp.lcm_drop((2, 3, 4), {5})


class TestCandidateSet:
    def test_examples(self):
        assert tp.in_tn((2, 3, 3, 4))
        assert not tp.in_tn((2, 3, 3, 2))
        assert not tp.in_tn((1, 5, 5))
        assert tp.in_tn((3, 3, 3))


class TestReciprocalSum:
    def test_full_sums(self):
        assert tp.reciprocal_sum((3, 3, 3)) == 1
        assert tp.reciprocal_sum((4, 4, 4, 4)) == 1
        assert tp.reciprocal_sum((7, 5, 6, 8)) == Fraction(533, 840)

    def test_subset_sum(self):
        assert tp.reciprocal_sum((7, 5, 6, 8), {2, 3, 4}) == Fraction(59, 120)
        assert tp.reciprocal_sum((7, 5, 6, 8), set()) == 0

    def test_stable_sum_of_open_tuple(self):
        entries = (2, 3, 3, 4)
        assert tp.reciprocal_sum(entries, tp.lcm_stable_indices(entries)) == Fraction(7, 6)


class TestValidation:
    def test_rejects_short(self):
        with pytest.raises(InputError):
            tp.as_exponents((5,), minimum_length=2)
        with pytest.raises(InputError):
            tp.as_exponents((2, 3), minimum_length=3)

    def test_rejects_a_non_sequence(self):
        with pytest.raises(InputError) as excinfo:
            tp.as_exponents(5)
        assert str(excinfo.value) == "exponents must be a sequence of integers, got 5"

    def test_rejects_nonpositive_and_nonint(self):
        for bad in ((2, 0, 3), (2, -1, 3), (2, 3.5, 4), (2, "3", 4), (True, 2, 3)):
            with pytest.raises(InputError):
                tp.as_exponents(bad)

    def test_two_entry_tuples_allowed_for_invariants(self):
        assert tp.as_exponents((2, 3)) == (2, 3)
        assert tp.cotype((2, 3)) == 2  # neither divides the other
        assert tp.cotype((2, 4)) == 1  # 2 divides 4


class TestReport:
    def test_report_fields(self):
        report = tp.invariant_report((10, 3, 3, 4))
        assert report.total_lcm == 60
        assert report.total_gcd == 1
        assert report.degrees == (6, 20, 20, 15)
        assert report.cotype == 2
        assert report.lcm_critical == frozenset({1, 4})
        assert report.critical_lcm_drop == 10
        assert report.reciprocal_sum == Fraction(61, 60)
        assert report.in_tn
        payload = report.to_dict()
        assert payload["reciprocal_sum"] == "61/60"
        assert payload["lcm_critical"] == [1, 4]
        assert report.length == 4

    def test_report_matches_naive_sets(self):
        for entries in ((2, 3, 3, 4), (10, 3, 3, 4), (7, 5, 6, 8), (6, 10, 15), (2, 2, 2)):
            report = tp.invariant_report(entries)
            assert report.lcm_critical == naive_lcm_critical(entries)
            assert report.gcd_critical == naive_gcd_critical(entries)


class TestDivisors:
    def test_examples(self):
        assert tp.divisors(1) == (1,)
        assert tp.divisors(12) == (1, 2, 3, 4, 6, 12)
        assert tp.divisors(49) == (1, 7, 49)
        # the sieved table of trial-division primes is the primes below 2^10
        assert tp._SMALL_PRIMES == tuple(
            p for p in range(2, 1 << 10) if all(p % q for q in range(2, isqrt(p) + 1))
        )

    def test_rho_redoes_a_batch_that_overshot(self):
        # 1031 * 1039: the gcd of one of Brent's batches is the whole number,
        # so rho takes the batch again one step at a time
        assert tp._rho(1071209) in (1031, 1039)
        assert tp.divisors(1071209) == (1, 1031, 1039, 1071209)

    def test_smallest_divisors(self):
        assert tp.divisors(12, 4) == (1, 2, 3, 4)
        assert tp.divisors(12, 7) == (1, 2, 3, 4, 6, 12)
        assert tp.divisors(2**60, 3) == (1, 2, 4)
        assert tp.divisors(400000000000000012, 5) == (1, 2, 4, 100000000000000003, 200000000000000006)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            tp.divisors(0)
        with pytest.raises(InputError):
            tp.divisors(12, 0)

    @pytest.mark.parametrize("args", [(10.0,), (12, 4.0), (True,), (12, True), ("12",), (None,)])
    def test_rejects_non_integers(self, args):
        with pytest.raises(InputError):
            tp.divisors(*args)

    def test_a_float_call_leaves_the_cache_clean(self):
        # DESCEND at index 4 of (2, 3, 3, 20) asks for divisors(10, 33), and
        # 10.0 == 10 hashes alike: a float call used to be cached under that
        # key, and the classification then raised TypeError
        tp.divisors.cache_clear()
        with pytest.raises(InputError):
            tp.divisors(10.0, 33)
        assert bk.classify((2, 3, 3, 20)).status is bk.Status.UNKNOWN
        assert tp.divisors(10, 33) == (1, 2, 5, 10)
        with pytest.raises(InputError):  # a cached int key does not serve it
            tp.divisors(10.0, 33)


    def test_smooth_divisors_skip_rho(self, monkeypatch):
        # p and q are the primes just above 2^50: rho on p * q would take
        # seconds.  Every prime factor rho could find exceeds 2^10, and the
        # 33 smallest divisors of the smooth part are all below 2^10 (the
        # largest is 486), so they are the 33 smallest of the value.
        p, q = 2**50 + 55, 2**50 + 99
        value = 2**10 * 3**6 * p * q

        def no_rho(n):
            raise AssertionError(f"rho ran on {n}")

        tp.divisors.cache_clear()
        monkeypatch.setattr(tp, "_rho", no_rho)
        smallest = tp.divisors(value, 33)
        assert smallest == tuple(sorted(d for d in trial_divisors(2**10 * 3**6) if d <= 486))
        assert len(smallest) == 33

    @pytest.mark.parametrize("smooth,limit", [
        (2**10 * 3**6, None),  # uncapped
        (4, 33),  # the smooth part has 3 divisors
        (2**10 * 3**6, 41),  # it has 40 below 2^10
    ])
    def test_divisors_past_the_smooth_part_run_rho(self, monkeypatch, smooth, limit):
        p, q = 2**31 - 1, 2**31 + 11
        rho, factored = tp._rho, []

        def counted(n):
            factored.append(n)
            return rho(n)

        tp.divisors.cache_clear()
        monkeypatch.setattr(tp, "_rho", counted)
        expected = sorted(d * e for d in trial_divisors(smooth) for e in (1, p, q, p * q))
        assert tp.divisors(smooth * p * q, limit) == tuple(expected[:limit])
        assert factored == [p * q]


def trial_divisors(value):
    """Every divisor of ``value``, by trial division up to its square root."""
    small = [d for d in range(1, isqrt(value) + 1) if value % d == 0]
    return sorted({*small, *(value // d for d in small)})


# Primes beyond trial division: the Mersenne primes 2^31 - 1 and 2^61 - 1
# with their prime neighbours 2^31 - 99, 2^31 + 11, 2^61 - 31 and 2^61 + 15.
PRIMES_NEAR_2_31 = (2**31 - 99, 2**31 - 1, 2**31 + 11)
PRIMES_NEAR_2_61 = (2**61 - 31, 2**61 - 1, 2**61 + 15)


@st.composite
def factored_values(draw):
    """(value, its divisors ascending): a value up to 10^6 whose divisors
    trial division finds, times a power of 2 and up to three large primes
    (at most one near 2^61, so that rho finds the others quickly).  Each
    prime factor p multiplies the divisor set D into D | pD."""
    small = draw(st.integers(1, 10**6))
    twos = draw(st.integers(0, 70))
    large = draw(st.lists(st.sampled_from(PRIMES_NEAR_2_31), max_size=2))
    large += draw(st.lists(st.sampled_from(PRIMES_NEAR_2_61), max_size=1))
    value = small
    found = set(trial_divisors(small))
    for p in [2] * twos + large:
        value *= p
        found |= {d * p for d in found}
    return value, tuple(sorted(found))


def divisor_examples(test):
    """Pin 1 (no prime factor), the prime power 2^20 and 30030 =
    2*3*5*7*11*13 (64 divisors) at limits below, at and past the count."""
    for value in (1, 2**20, 30030):
        for limit in (1, 33, 64, 65, None):
            test = example((value, tuple(trial_divisors(value))), limit)(test)
    return test


@divisor_examples
@settings(max_examples=150, deadline=None)
@given(factored_values(), st.integers(1, 40))
def test_divisors_match_trial_division(case, limit):
    value, expected = case
    assert tp.divisors(value) == expected
    assert tp.divisors(value, limit) == expected[:limit]


class TestPermutations:
    def test_apply(self):
        assert tp.apply_permutation((10, 3, 3, 4), (2, 3, 4, 1)) == (3, 3, 4, 10)
        assert tp.apply_permutation((5, 6), (1, 2)) == (5, 6)

    def test_rejects_non_permutation(self):
        with pytest.raises(InputError):
            tp.apply_permutation((5, 6, 7), (1, 1, 2))

    @pytest.mark.parametrize("length", [0, 1, 3, 4, 15, 16, 40])
    def test_identity(self, length):
        identity = tp.identity_permutation(length)
        assert identity == tuple(range(1, length + 1))
        # one shared tuple per length below 16, the search's and replay's
        assert (identity is tp.identity_permutation(length)) is (length < 16)


# Index arguments take the integer rule of the certificate parser: an int,
# and never a bool, which equals the index it stands for.
INDEX_CALLS = {
    "omit": lambda index: tp.omit((2, 3, 4), index),
    "coordinate_gcd": lambda index: tp.coordinate_gcd((2, 3, 4), index),
    "leq_at": lambda index: tp.leq_at((2, 3, 4), (2, 3, 8), index),
    "lt_at": lambda index: tp.lt_at((2, 3, 4), (2, 3, 8), index),
    "subtuple": lambda index: tp.subtuple((2, 3, 4), [index]),
    "lcm_drop": lambda index: tp.lcm_drop((2, 3, 4), [index]),
    "reciprocal_sum": lambda index: tp.reciprocal_sum((2, 3, 4), [index]),
}


@pytest.mark.parametrize("call", sorted(INDEX_CALLS))
@pytest.mark.parametrize("index", [True, False, 1.0, 3.0, "1", None])
def test_an_index_must_be_an_integer(call, index):
    with pytest.raises(InputError) as excinfo:
        INDEX_CALLS[call](index)
    assert str(excinfo.value) == f"index must be an integer, got {index!r}"


@pytest.mark.parametrize("call", sorted(INDEX_CALLS))
def test_an_index_out_of_range_keeps_its_message(call):
    with pytest.raises(InputError) as excinfo:
        INDEX_CALLS[call](4)
    assert str(excinfo.value) == "index 4 out of range for a tuple of length 3"


def test_index_sets_check_types_before_merging_equal_indices():
    # {True, 1} is {True}: the type test comes before the set is taken
    for indices in ([1, True], (True, 1), [2, 1.0]):
        with pytest.raises(InputError, match="^index must be an integer, got "):
            tp.subtuple((2, 3, 4), indices)
    assert tp.subtuple((2, 3, 4), [3, 1, 3]) == (3,)
    with pytest.raises(InputError) as excinfo:
        tp.lcm_drop((2, 3, 4), 5)
    assert str(excinfo.value) == "indices must be a collection of integers, got 5"


@settings(max_examples=300, deadline=None)
@given(exponent_tuples)
def test_degree_tuple_laws(entries):
    bar = tp.degrees(entries)
    assert tp.lcm_gcd(bar)[1] == 1
    assert tp.degrees(bar) == tp.normalization(entries)
    assert tp.gcd_critical_indices(bar) == tp.lcm_critical_indices(entries)
    assert tp.lcm_critical_indices(bar) == tp.gcd_critical_indices(entries)
    assert tp.type_size(bar) == tp.cotype(entries)
    assert tp.cotype(bar) == tp.type_size(entries)


@settings(max_examples=300, deadline=None)
@given(exponent_tuples)
def test_critical_sets_match_naive_definition(entries):
    assert tp.lcm_critical_indices(entries) == naive_lcm_critical(entries)
    assert tp.gcd_critical_indices(entries) == naive_gcd_critical(entries)


@settings(max_examples=200, deadline=None)
@given(exponent_tuples, st.data())
def test_lcm_drop_divides_on_supersets(entries, data):
    indices = list(range(1, len(entries) + 1))
    larger = frozenset(data.draw(st.sets(st.sampled_from(indices))))
    smaller = frozenset(data.draw(st.sets(st.sampled_from(sorted(larger))))) if larger else frozenset()
    drop_larger = tp.lcm_drop(entries, larger)
    drop_smaller = tp.lcm_drop(entries, smaller)
    assert drop_larger % drop_smaller == 0
    assert (drop_larger == 1) == (not (larger & tp.lcm_critical_indices(entries)))


@settings(max_examples=300, deadline=None)
@given(exponent_tuples, st.data())
def test_lcm_drop_and_coordinate_gcd_match_their_definitions(entries, data):
    n = len(entries)
    others = [lcm(*entries[:i], *entries[i + 1 :]) for i in range(n)]
    chosen = data.draw(st.sets(st.integers(1, n)))
    expected = lcm(*entries) // gcd(*[others[i - 1] for i in chosen]) if chosen else 1
    assert tp.lcm_drop(entries, chosen) == expected
    for index in range(1, n + 1):
        assert tp.coordinate_gcd(entries, index) == gcd(entries[index - 1], others[index - 1])


@settings(max_examples=200, deadline=None)
@given(exponent_tuples, st.data())
def test_order_witness_characterization(entries, data):
    # an index is lcm-critical exactly when something sits strictly below it
    index = data.draw(st.integers(1, len(entries)))
    value = entries[index - 1]
    floor = tp.coordinate_gcd(entries, index)
    witnesses = [
        d for d in tp.divisors(value) if d != value and d % floor == 0
    ]
    critical = index in tp.lcm_critical_indices(entries)
    assert critical == bool(witnesses)
    for witness in witnesses:
        below = entries[: index - 1] + (witness,) + entries[index:]
        assert tp.lt_at(below, entries, index)


@settings(max_examples=200, deadline=None)
@given(exponent_tuples, st.integers(1, 6), st.integers(1, 6))
def test_order_transitive_and_gcd_stable(entries, k1, k2):
    index = 1
    middle = (entries[0] * k1,) + entries[1:]
    top = (entries[0] * k1 * k2,) + entries[1:]
    if tp.leq_at(entries, middle, index) and tp.leq_at(middle, top, index):
        assert tp.leq_at(entries, top, index)
    if tp.leq_at(entries, middle, index):
        assert tp.coordinate_gcd(entries, index) == tp.coordinate_gcd(middle, index)


@settings(max_examples=300, deadline=None)
@given(exponent_tuples, st.data())
def test_reciprocal_sum_matches_fraction_oracle(entries, data):
    indices = data.draw(st.sets(st.integers(1, len(entries))))
    assert tp.reciprocal_sum(entries) == sum(Fraction(1, a) for a in entries)
    assert tp.reciprocal_sum(entries, indices) == sum(
        (Fraction(1, entries[i - 1]) for i in indices), Fraction(0)
    )
    assert tp.reciprocal_sum(entries, set()) == 0
