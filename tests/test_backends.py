"""The exact kernel passes against their definition: the omit-one lcms
and gcds computed over the other entries."""

from math import gcd, lcm

from hypothesis import example, given, settings
from hypothesis import strategies as st

from brieskorn import active_backend, backend
from brieskorn import tuples as tp


def test_the_exact_passes_are_the_only_kernel():
    # perfbench records this name with every run
    assert active_backend() == "python"


def omit_one_core(entries):
    """The seven omit-one parts straight from their definition: the lcm and
    gcd, each omit-one lcm and gcd computed over the other entries, the
    coordinate gcds and both critical masks."""
    others = [entries[:i] + entries[i + 1 :] for i in range(len(entries))]
    omitted_lcms = tuple(lcm(*rest) for rest in others)
    omitted_gcds = tuple(gcd(*rest) for rest in others)
    return (
        lcm(*entries),
        gcd(*entries),
        omitted_lcms,
        omitted_gcds,
        tuple(gcd(value, other) for value, other in zip(entries, omitted_lcms)),
        sum(1 << i for i, (value, other) in enumerate(zip(entries, omitted_lcms)) if other % value),
        sum(1 << i for i, (value, other) in enumerate(zip(entries, omitted_gcds)) if value % other),
    )


# Fixed inputs besides the drawn ones: a small tuple, then three that a
# 64-bit kernel could not hold (an entry of 2**70, the first 16 primes,
# whose lcm exceeds 64 bits, and a tuple of length 80).
FIXED_TUPLES = [
    (2, 3, 4),
    (2**70, 3, 5),
    (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53),
    tuple([10**6 - 1, 10**6 - 3] * 40),
]


def with_fixed_tuples(test):
    for entries in FIXED_TUPLES:
        test = example(entries)(test)
    return test


kernel_entries = st.one_of(
    st.integers(1, 99),
    st.builds(lambda k, e: k << e, st.integers(1, 99), st.integers(0, 70)),
    st.integers(1, 10**12),
    st.integers(2**64, 2**80),
)


@settings(max_examples=400, deadline=None)
@with_fixed_tuples
@given(st.lists(kernel_entries, min_size=2, max_size=9).map(tuple))
def test_exact_kernel_matches_the_omit_one_definition(entries):
    report = tp.invariant_report(entries)

    def mask(indices):
        return sum(1 << (i - 1) for i in indices)

    assert (
        report.total_lcm,
        report.total_gcd,
        tp.omitted_lcms(entries),
        tp.omitted_gcds(entries),
        report.coordinate_gcds,
        mask(report.lcm_critical),
        mask(report.gcd_critical),
    ) == omit_one_core(entries)


@settings(max_examples=400, deadline=None)
@with_fixed_tuples
@given(st.lists(kernel_entries, min_size=2, max_size=9).map(tuple))
def test_lean_kernel_matches_its_definition(entries):
    # c_i = gcd(a_i, lcm of the others), and the 1-based index i is listed,
    # ascending, exactly when c_i != a_i
    floors, critical = backend.invariant_core(entries)
    others = [lcm(*entries[:i], *entries[i + 1 :]) for i in range(len(entries))]
    assert floors == tuple(gcd(value, other) for value, other in zip(entries, others))
    assert critical == tuple(i for i, (value, floor) in enumerate(zip(entries, floors), 1) if floor != value)
