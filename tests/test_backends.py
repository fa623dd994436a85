"""The exact pure-Python kernel against its definition, and the compiled
kernel against the exact one."""

import random
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brieskorn import backend

HAS_COMPILED = backend.active_backend() == "c"


def random_tuples(seed, count, max_value):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 9)
        yield tuple(rng.randint(1, max_value) for _ in range(n))


@pytest.mark.skipif(not HAS_COMPILED, reason="compiled kernel not built")
def test_backends_agree_on_machine_size_tuples():
    from brieskorn import _speedups

    fast_path = 0
    for entries in random_tuples(seed=20260811, count=800, max_value=10**6):
        expected = backend.exact_invariant_core(entries)
        try:
            assert _speedups.invariant_core(entries) == expected
            fast_path += 1
        except OverflowError:
            # legitimately outside the 64-bit window; the dispatcher must
            # still produce the exact answer via the fallback
            assert backend.invariant_core(entries) == expected
    assert fast_path > 100  # the fast path must actually be exercised


@pytest.mark.skipif(not HAS_COMPILED, reason="compiled kernel not built")
def test_compiled_raises_outside_fast_path():
    from brieskorn import _speedups

    with pytest.raises(OverflowError):
        _speedups.invariant_core((2**70, 3, 5))
    # lcm of the first 16 primes exceeds 64 bits
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    with pytest.raises(OverflowError):
        _speedups.invariant_core(primes)
    with pytest.raises(OverflowError):
        _speedups.invariant_core(tuple([3] * 65))


def test_dispatch_falls_back_exactly():
    cases = [
        (2, 3, 4),
        (2**70, 3, 5),
        (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53),
        tuple([10**6 - 1, 10**6 - 3] * 40),  # length 80 > fast-path window
    ]
    for entries in cases:
        assert backend.invariant_core(entries) == backend.exact_invariant_core(entries)


def test_classifier_results_identical_across_backends(monkeypatch):
    # classification goes through the dispatcher, so spot-check end to end;
    # the exact kernel is forced by patching the attribute tuples._core calls
    from brieskorn import Budget, KnowledgeBase, classify
    from brieskorn import tuples as tp

    samples = [(2, 3, 3, 2), (2, 3, 3, 4), (10, 3, 3, 4), (2, 5, 7, 3, 3, 3), (8, 8, 8, 8)]

    def statuses():
        tp._core.cache_clear()
        return [classify(s, KnowledgeBase(Budget())).status for s in samples]

    dispatched = statuses()
    monkeypatch.setattr(backend, "invariant_core", backend.exact_invariant_core)
    try:
        assert statuses() == dispatched
    finally:
        tp._core.cache_clear()


def omit_one_core(entries):
    """The bundle straight from its definition: each omit-one lcm and gcd
    computed over the other entries."""
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


kernel_entries = st.one_of(
    st.integers(1, 99),
    st.builds(lambda k, e: k << e, st.integers(1, 99), st.integers(0, 70)),
    st.integers(1, 10**12),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(kernel_entries, min_size=2, max_size=9).map(tuple))
def test_exact_kernel_matches_the_omit_one_definition(entries):
    assert backend.exact_invariant_core(entries) == omit_one_core(entries)
