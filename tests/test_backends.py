"""The exact pure-Python kernels against their definition, the compiled
kernel against the exact ones, and the dispatch between them."""

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
        expected = backend.exact_invariant_bundle(entries)
        try:
            assert _speedups.invariant_core(entries) == expected
            fast_path += 1
        except OverflowError:
            # legitimately outside the 64-bit window; the dispatcher must
            # still produce the exact answer via the fallback
            assert backend.invariant_bundle(entries) == expected
        assert backend.invariant_core(entries) == expected[4:6]
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
        assert backend.invariant_bundle(entries) == backend.exact_invariant_bundle(entries)


def test_classifier_results_identical_across_backends(monkeypatch):
    # classification goes through the dispatchers, so spot-check end to end;
    # the exact kernels are forced by patching both attributes tuples calls
    from brieskorn import Budget, KnowledgeBase, classify, invariant_report

    samples = [(2, 3, 3, 2), (2, 3, 3, 4), (10, 3, 3, 4), (2, 5, 7, 3, 3, 3), (8, 8, 8, 8)]

    def results():
        return [(classify(s, KnowledgeBase(Budget())).status, invariant_report(s)) for s in samples]

    dispatched = results()
    exact_calls = []

    def exact(kernel):
        def run(entries):
            exact_calls.append(kernel)
            return kernel(entries)

        return run

    monkeypatch.setattr(backend, "invariant_core", exact(backend.exact_invariant_core))
    monkeypatch.setattr(backend, "invariant_bundle", exact(backend.exact_invariant_bundle))
    assert results() == dispatched
    assert set(exact_calls) == {backend.exact_invariant_core, backend.exact_invariant_bundle}


class FakeSpeedups:
    """A stand-in for the compiled extension: returns a fixed bundle, or
    raises OverflowError as the real one does outside its 64-bit window."""

    def __init__(self, bundle=None):
        self.bundle = bundle
        self.calls = 0

    def invariant_core(self, entries):
        self.calls += 1
        if self.bundle is None:
            raise OverflowError("outside the fast path")
        return self.bundle


def test_lean_dispatch_slices_the_compiled_bundle(monkeypatch):
    bundle = ("L", "G", ("O1", "O2"), ("g1", "g2"), ("c1", "c2"), "lcm mask", "gcd mask")
    fake = FakeSpeedups(bundle)
    monkeypatch.setattr(backend, "_speedups", fake)
    assert backend.active_backend() == "c"
    assert backend.invariant_core((6, 10)) == (("c1", "c2"), "lcm mask")
    assert backend.invariant_bundle((6, 10)) == bundle
    assert fake.calls == 2


def test_dispatch_falls_back_to_the_exact_pass_on_overflow(monkeypatch):
    fake = FakeSpeedups()
    monkeypatch.setattr(backend, "_speedups", fake)
    entries = (2**70, 6, 10)
    assert backend.invariant_core(entries) == backend.exact_invariant_core(entries)
    assert backend.invariant_bundle(entries) == backend.exact_invariant_bundle(entries)
    assert fake.calls == 2


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
    st.integers(2**64, 2**80),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(kernel_entries, min_size=2, max_size=9).map(tuple))
def test_exact_kernel_matches_the_omit_one_definition(entries):
    assert backend.exact_invariant_bundle(entries) == omit_one_core(entries)


@settings(max_examples=400, deadline=None)
@given(st.lists(kernel_entries, min_size=2, max_size=9).map(tuple))
def test_lean_kernel_matches_its_definition(entries):
    # c_i = gcd(a_i, lcm of the others), and bit i is set exactly when
    # c_i != a_i; the same two parts as the bundle's
    floors, mask = backend.invariant_core(entries)
    others = [lcm(*entries[:i], *entries[i + 1 :]) for i in range(len(entries))]
    assert floors == tuple(gcd(value, other) for value, other in zip(entries, others))
    assert mask == sum(1 << i for i, (value, floor) in enumerate(zip(entries, floors)) if floor != value)
    assert (floors, mask) == backend.exact_invariant_core(entries)
    assert (floors, mask) == backend.invariant_bundle(entries)[4:6]
