"""Rule catalogue and classifier behavior."""

import gc
import inspect
import random
import sys
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brieskorn as bk
from brieskorn import engine
from brieskorn import tuples as tp
from brieskorn.certificates import LEAF_RULES, RuleId, Status, recursive_subsets
from brieskorn.engine import RULE_PRIORITY, _decide
from brieskorn.errors import InputError, SoundnessError


class TestCandidateRule:
    def test_fires_on_two_twos(self):
        cert = bk.rule_not_in_tn((2, 3, 3, 2))
        assert cert is not None and cert.status is Status.NON_RIGID
        assert cert.rule is RuleId.NOT_IN_TN

    def test_fires_on_a_one(self):
        assert bk.rule_not_in_tn((1, 9, 9, 9)).status is Status.NON_RIGID

    def test_silent_inside_candidate_set(self):
        assert bk.rule_not_in_tn((3, 3, 3, 3)) is None


class TestThreeEntryRule:
    def test_stable_when_sum_at_most_one(self):
        cert = bk.rule_n3((2, 3, 7))
        assert cert.rule is RuleId.N3_STABLE and cert.status is Status.STABLY_RIGID
        assert bk.rule_n3((2, 3, 6)).status is Status.STABLY_RIGID  # sum exactly 1

    def test_rigid_when_sum_exceeds_one(self):
        cert = bk.rule_n3((2, 3, 5))
        assert cert.rule is RuleId.N3_T3 and cert.status is Status.RIGID

    def test_non_rigid_outside_candidate_set(self):
        assert bk.rule_n3((2, 2, 5)).status is Status.NON_RIGID

    def test_only_three_entries(self):
        assert bk.rule_n3((2, 3, 5, 7)) is None


class TestLowSumRule:
    def test_boundary_fires(self):
        cert = bk.rule_low_sum((8, 8, 8, 8))  # sum 1/2 == 1/2
        assert cert.rule is RuleId.LOW_SUM and cert.status is Status.STABLY_RIGID

    def test_above_boundary_silent(self):
        assert bk.rule_low_sum((4, 4, 4, 4)) is None
        assert bk.rule_low_sum((12, 12, 12, 12, 12, 12)) is None  # 1/2 > 1/4


class TestCollectionRule:
    def test_coprime_case(self):
        from math import gcd

        cert = bk.rule_collection((3, 4, 9, 5))
        assert cert.rule is RuleId.N4_COPRIME and cert.status is Status.RIGID
        a, b, c, d = tp.apply_permutation(cert.exponents, cert.permutation)
        assert gcd(a * b * c, d) == 1

    def test_three_threes_case(self):
        cert = bk.rule_collection((3, 3, 3, 3))
        assert cert.rule is RuleId.N4_THREE_THREES
        cert = bk.rule_collection((6, 3, 3, 3))
        assert cert.rule is RuleId.N4_THREE_THREES
        assert tp.apply_permutation(cert.exponents, cert.permutation)[:3] == (3, 3, 3)

    def test_even_gcd_case(self):
        # permuted to (2, 6, 9, 8): 6 even, gcd(6,9)=3, gcd(8, lcm(6,9)=18)=2
        cert = bk.rule_collection((6, 2, 9, 8))
        assert cert.rule is RuleId.N4_EVEN_GCD and cert.status is Status.RIGID
        a, b, c, d = tp.apply_permutation(cert.exponents, cert.permutation)
        assert a == 2 and b % 2 == 0

    def test_high_cotype_case(self):
        cert = bk.rule_collection((10, 3, 3, 4))
        assert cert.rule is RuleId.COTYPE_GE_2_N4

    def test_open_tuple_silent(self):
        assert bk.rule_collection((2, 3, 3, 4)) is None

    def test_requires_candidate_set(self):
        assert bk.rule_collection((2, 3, 3, 2)) is None

    def test_scan_matches_apply_permutation_oracle(self):
        # The scan pairs each permutation with itertools.permutations of the
        # entries; the oracle is the original scan that rebuilt every
        # permuted tuple through tp.apply_permutation, with its own copy of
        # the three length-4 side conditions as the reference.
        from math import gcd

        def coprime(p):
            return gcd(p[0] * p[1] * p[2], p[3]) == 1

        def three_threes(p):
            return p[0] == p[1] == p[2] == 3

        def even_gcd(p):
            a, b, c, d = p
            return (
                a == 2
                and min(b, c, d) >= 3
                and b % 2 == 0
                and gcd(b, c) >= 3
                and gcd(d, b * c // gcd(b, c)) == 2
            )

        perms = tuple(permutations((1, 2, 3, 4)))
        cases = (
            (RuleId.N4_COPRIME, coprime),
            (RuleId.N4_THREE_THREES, three_threes),
            (RuleId.N4_EVEN_GCD, even_gcd),
        )

        def oracle(entries):
            if not tp.in_tn(entries):
                return None
            for rule_id, case in cases:
                for permutation in perms:
                    if case(tp.apply_permutation(entries, permutation)):
                        return rule_id, permutation
            if tp.cotype(entries) >= 2:
                return RuleId.COTYPE_GE_2_N4, (1, 2, 3, 4)
            return None

        for entries in product(range(1, 10), repeat=4):
            cert = bk.rule_collection(entries)
            got = None if cert is None else (cert.rule, cert.permutation)
            assert got == oracle(entries), entries


class TestEqualExponentsRule:
    def test_fires_between_length_and_low_sum(self):
        for a in (4, 5, 6, 7):
            cert = bk.rule_equal_exponents((a, a, a, a))
            assert cert.rule is RuleId.EQUAL_EXPONENTS and cert.status is Status.RIGID
        assert bk.rule_equal_exponents((5, 5, 5, 5, 5)).status is Status.RIGID

    def test_silent_below_length(self):
        assert bk.rule_equal_exponents((3, 3, 3, 3)) is None

    def test_silent_on_unequal(self):
        assert bk.rule_equal_exponents((4, 4, 4, 8)) is None


class TestStableSumRule:
    def test_fires_when_every_index_critical(self):
        cert = bk.rule_i_sum((7, 5, 6, 8))  # empty stable set, sum 0 < 1/2
        assert cert.rule is RuleId.I_SUM and cert.status is Status.RIGID

    def test_silent_on_open_tuple(self):
        assert bk.rule_i_sum((2, 3, 3, 4)) is None  # stable sum 7/6

    def test_strict_inequality_required(self):
        # stable set {1,2,3} sums to exactly 1/2
        entries = (5, 10, 5, 20)
        assert tp.reciprocal_sum(entries, tp.lcm_stable_indices(entries)) == Fraction(1, 2)
        assert bk.rule_i_sum(entries) is None


class TestHighCotypeRule:
    def test_fires_at_length_five(self):
        entries = (5, 10, 15, 20, 25)
        assert tp.cotype(entries) == 3
        cert = bk.rule_cotype_high(entries)
        assert cert.rule is RuleId.COTYPE_GE_NMINUS2 and cert.status is Status.RIGID

    def test_fires_at_length_four(self):
        # subsumed by the length-4 catalogue inside classify, but the
        # standalone rule applies on its own
        cert = bk.rule_cotype_high((10, 3, 3, 4))
        assert cert is not None and cert.status is Status.RIGID

    def test_silent_below_threshold(self):
        assert bk.rule_cotype_high((2, 5, 7, 3, 3, 3)) is None  # cotype 3 < 4
        assert bk.rule_cotype_high((9, 9, 9, 9)) is None  # cotype 0


class TestRecursiveRule:
    def test_worked_example(self):
        cert = bk.rule_recursive_subtuples((2, 5, 7, 3, 3, 3))
        assert cert is not None and cert.status is Status.RIGID
        assert [child.exponents for child in cert.children] == [
            (7, 3, 3, 3),
            (5, 3, 3, 3),
            (2, 3, 3, 3),
        ]
        assert cert.witness.subsets == ((1, 2), (1, 3), (2, 3))

    def test_degenerate_single_critical_index_never_fires(self):
        entries = (2, 3, 3, 8)
        assert len(tp.lcm_critical_indices(entries)) == 1
        assert bk.rule_recursive_subtuples(entries) is None

    def test_triple_threes_family(self):
        cert = bk.rule_recursive_subtuples((4, 7, 3, 3, 3))
        assert cert is not None
        assert [child.exponents for child in cert.children] == [(7, 3, 3, 3), (4, 3, 3, 3)]


class TestDescendRule:
    def test_multiple_gcd_chain(self):
        cert = bk.rule_descend((3, 6, 15, 21))
        assert cert is not None and cert.status is Status.RIGID
        assert tp.lt_at(cert.witness.exponents, (3, 6, 15, 21), cert.witness.index)

    def test_descends_to_equal_exponents(self):
        cert = bk.rule_descend((5, 10, 15, 20, 25))
        assert cert is not None and cert.status is Status.RIGID

    def test_silent_without_critical_indices(self):
        assert bk.rule_descend((4, 4, 4, 4)) is None


class TestClassify:
    def test_mixed_status_trio(self):
        assert bk.classify((2, 3, 3, 2)).status is Status.NON_RIGID
        assert bk.classify((10, 3, 3, 4)).status is Status.RIGID
        assert bk.classify((2, 3, 3, 4)).status is Status.UNKNOWN

    def test_unknown_has_no_certificate(self):
        outcome = bk.classify((2, 3, 3, 4))
        assert outcome.certificate is None
        assert outcome.budget_hit  # it has lcm-critical indices to search

    def test_priority_collection_before_descend(self):
        assert bk.classify((3, 6, 15, 21)).certificate.rule is RuleId.COTYPE_GE_2_N4

    def test_descend_decides_when_arithmetic_rules_fail(self):
        assert bk.classify((4, 4, 4, 12)).certificate.rule is RuleId.DESCEND
        assert bk.classify((4, 4, 4, 24)).certificate.rule is RuleId.DESCEND

    def test_rejects_bad_input(self):
        for bad in ((2, 3), (2, 3, 0), (2, 3, -4), ()):
            with pytest.raises(InputError):
                bk.classify(bad)

    def test_permutation_invariance_explicit(self):
        for entries in ((2, 3, 3, 4), (10, 3, 3, 4), (2, 3, 3, 2), (4, 4, 4, 12)):
            expected = bk.classify(entries).status
            for perm in permutations(entries):
                assert bk.classify(perm).status is expected

    def test_memo_reuse_and_reordered_certificates(self):
        kb = bk.KnowledgeBase()
        first = bk.classify((10, 3, 3, 4), kb)
        again = bk.classify((10, 3, 3, 4), kb)
        assert again == first and again.certificate is first.certificate
        reordered = bk.classify((3, 3, 4, 10), kb)
        assert reordered.status is first.status
        assert reordered.certificate.exponents == (3, 3, 4, 10)

    def test_budget_monotone(self):
        samples = [
            (2, 3, 3, 2), (2, 3, 3, 4), (10, 3, 3, 4), (4, 4, 4, 12),
            (4, 4, 4, 24), (2, 5, 7, 3, 3, 3), (8, 8, 8, 8), (2, 4, 4, 4),
        ]
        decided = {}
        for depth in range(0, 7):
            kb = bk.KnowledgeBase(bk.Budget(max_depth=depth))
            for entries in samples:
                status = bk.classify(entries, kb).status
                if entries in decided:
                    assert status is decided[entries]
                elif status is not Status.UNKNOWN:
                    decided[entries] = status

    def test_non_rigid_only_from_candidate_test(self):
        for entries in ((1, 1, 1), (2, 2, 2), (1, 2, 3, 4), (2, 3, 3, 2)):
            cert = bk.classify(entries).certificate
            assert cert.status is Status.NON_RIGID
            assert cert.rule is RuleId.NOT_IN_TN

    def test_rule_priority_constant_is_complete(self):
        # every rule is in the cascade, in this firing order
        assert set(RULE_PRIORITY) == set(RuleId)
        assert RULE_PRIORITY == (
            RuleId.NOT_IN_TN,
            RuleId.N3_T3,
            RuleId.N3_STABLE,
            RuleId.LOW_SUM,
            RuleId.N4_COPRIME,
            RuleId.N4_THREE_THREES,
            RuleId.N4_EVEN_GCD,
            RuleId.COTYPE_GE_2_N4,
            RuleId.EQUAL_EXPONENTS,
            RuleId.COTYPE_GE_NMINUS2,
            RuleId.I_SUM,
            RuleId.RECURSIVE_SUBTUPLES,
            RuleId.DESCEND,
        )


class TestKernelDegreeBound:
    def test_decided_critical_pair(self):
        bound = bk.kernel_degree_bound((10, 3, 3, 4))
        assert bound.value == 10
        assert bound.rigid_critical == frozenset({1, 4})
        assert not bound.is_partial

    def test_empty_critical_set(self):
        bound = bk.kernel_degree_bound((4, 4, 4, 4))
        assert bound.value == 1 and not bound.is_partial

    def test_partial_when_subtuple_open(self):
        bound = bk.kernel_degree_bound((2, 3, 3, 4, 8))
        assert bound.value == 1
        assert bound.undecided == frozenset({5})
        assert bound.is_partial

    def test_open_tuple_still_gets_a_bound(self):
        # every critical removal of (2,3,3,4) leaves a rigid 3-tuple, so the
        # bound is exact even though the tuple itself is undecided
        bound = bk.kernel_degree_bound((2, 3, 3, 4))
        assert bound.value == 2
        assert bound.rigid_critical == frozenset({4})
        assert not bound.is_partial

    def test_candidate_four_tuples_have_nontrivial_bound(self):
        # positive cotype inside the candidate set forces a drop factor > 1
        for entries in ((10, 3, 3, 4), (2, 3, 3, 4), (3, 4, 4, 9)):
            assert tp.in_tn(entries) and tp.cotype(entries) > 0
            assert tp.lcm_drop(entries, tp.lcm_critical_indices(entries)) > 1

    def test_requires_length_four(self):
        with pytest.raises(InputError):
            bk.kernel_degree_bound((2, 3, 7))


status_tuples = st.lists(st.integers(1, 30), min_size=3, max_size=5).map(tuple)


@settings(max_examples=60, deadline=None)
@given(status_tuples, st.randoms())
def test_classify_permutation_invariance_property(entries, rng):
    shuffled = list(entries)
    rng.shuffle(shuffled)
    budget = bk.Budget(max_depth=2)
    a = bk.classify(entries, bk.KnowledgeBase(budget)).status
    b = bk.classify(tuple(shuffled), bk.KnowledgeBase(budget)).status
    assert a is b


@settings(max_examples=60, deadline=None)
@given(status_tuples)
def test_every_decided_certificate_replays(entries):
    outcome = bk.classify(entries, bk.KnowledgeBase(bk.Budget(max_depth=3)))
    if outcome.certificate is not None:
        assert bk.replay(outcome.certificate)


# --- the memo's tables ---------------------------------------------------------


def verdict(outcome):
    certificate = outcome.certificate
    return outcome.status, outcome.budget_hit, None if certificate is None else bk.certificate_id(certificate)


def cold(entries, depth):
    return verdict(bk.classify(entries, bk.KnowledgeBase(bk.Budget(max_depth=depth))))


def entry_verdict(entry):
    """The verdict of a search's (certificate, height) pair, as
    ``_classify_valid`` reads it."""
    certificate, height = entry
    if certificate is None:
        return Status.UNKNOWN, height != 0, None
    return certificate.status, False, bk.certificate_id(certificate)


# Entries rich in shared divisors, so that the searches recurse, get cut,
# and meet the same canonical tuples in other orders and at other depths.
# Verdicts that change with the depth are rare among such tuples (20 of
# the 3,003 sorted length-5 ones), so some are drawn directly: each of
# these is UNKNOWN at depth 1 and RIGID from depth 2.  Tuples with a
# large smooth entry search deep and come back UNKNOWN, so their entries
# answer lower depths too.
DEPTH_SENSITIVE = ((3, 4, 4, 4, 8), (3, 5, 5, 5, 10), (4, 4, 4, 5, 8), (4, 4, 4, 9, 16))
LARGE_SMOOTH = ((6, 3, 10, 7647185), (3, 12, 44957696, 2))
memo_tuples = st.one_of(
    st.lists(st.sampled_from((2, 3, 4, 5, 6, 8, 9, 12, 16, 24, 36)), min_size=4, max_size=5).map(tuple),
    st.sampled_from(DEPTH_SENSITIVE),
    st.sampled_from(LARGE_SMOOTH),
)


@st.composite
def mixed_depth_queries(draw):
    pool = draw(st.lists(memo_tuples, min_size=1, max_size=4))
    query = st.tuples(st.sampled_from(pool).flatmap(st.permutations).map(tuple), st.integers(0, 6))
    return draw(st.lists(query, min_size=1, max_size=12))


@settings(max_examples=150, deadline=None)
@given(mixed_depth_queries())
def test_warm_memo_at_mixed_depths_answers_as_cold(queries):
    kb = bk.KnowledgeBase()
    for entries, depth in queries:
        assert entry_verdict(_decide(entries, depth, kb)) == cold(entries, depth), (entries, depth)


def test_uncut_verdicts_hold_at_every_greater_depth():
    universe = list(bk.enumerate_universe(bk.CensusSpec(length=4, max_exponent=10)))
    universe += list(bk.enumerate_universe(bk.CensusSpec(length=5, max_exponent=8)))
    heights = set()
    for depth in range(0, 4):
        for entries in universe:
            outcome = _decide(entries, depth, bk.KnowledgeBase(bk.Budget(max_depth=depth)))
            height = outcome[1]
            heights.add(height)
            if height is None:
                continue
            assert height <= depth
            for deeper in range(depth + 1, 7):
                assert cold(entries, deeper) == entry_verdict(outcome), (entries, depth, deeper)
    # both tables and recursive heights occur, so the check is not vacuous
    assert {None, 0, 1, 2} <= heights


@pytest.mark.parametrize("top", [6, 7])
def test_unknown_entry_answers_every_lower_depth_as_cut(monkeypatch, top):
    # (6,3,10,7647185) is UNKNOWN, cut at depth 6 and uncut of height 7 at depth 7
    entries = (6, 3, 10, 7647185)
    expected = [cold(entries, depth) for depth in range(top)]
    kb = bk.KnowledgeBase()
    assert _decide(entries, top, kb)[1] == (None if top == 6 else 7)

    def no_search(*args):
        raise AssertionError("searched a tuple the memo holds")

    monkeypatch.setattr(engine, "_first_leaf", no_search)
    for depth in range(top):
        outcome = _decide(entries, depth, kb)
        assert outcome[1] is None
        assert entry_verdict(outcome) == expected[depth]


@pytest.mark.parametrize("depth", range(4))
def test_budget_hit_is_having_a_critical_index(depth):
    # _classify_valid reads budget_hit from the search height; here it is
    # checked against its definition, through one memo per depth
    kb = bk.KnowledgeBase(bk.Budget(max_depth=depth))
    seen = set()
    for n in (4, 5):
        for entries in combinations_with_replacement(range(1, 11), n):
            outcome = bk.classify(entries, kb)
            expected = outcome.status is Status.UNKNOWN and bool(tp.Facts(entries).critical)
            assert outcome.budget_hit is expected, (entries, depth)
            if outcome.status is Status.UNKNOWN:
                seen.add(expected)
    assert seen == {False, True}


# UNKNOWN tuples and the number of sorted tuples a classify call searches.
# The two of length 5 pin the memo's lower-depth rule (the cut UNKNOWN
# table, and a lower depth answered from an uncut UNKNOWN entry), which no
# benchmark workload reaches: without it they took 489,892 and 402,992
# searches.  A witness at k > 1 of a node with one critical index is
# scored in its parent's loop (the k = 1 lemma), not searched: the two of
# length 4 searched 33 before, and the two of length 5 693 and 627.
SEARCHED_ONCE = {
    (3, 12, 44957696, 2): 2,
    (7, 11468800, 2, 8): 2,
    (428750, 82368, 4, 12, 2): 662,
    (5, 147875, 577368, 10, 5): 565,
}


@pytest.mark.parametrize("entries", SEARCHED_ONCE)
def test_each_sorted_tuple_is_searched_once_per_call(monkeypatch, entries):
    searched = []
    first_leaf = engine._first_leaf

    def recording(facts, rules):
        searched.append(tuple(sorted(facts.entries)))
        return first_leaf(facts, rules)

    monkeypatch.setattr(engine, "_first_leaf", recording)
    assert bk.classify(entries).status is Status.UNKNOWN
    assert len(searched) == len(set(searched)) == SEARCHED_ONCE[entries]


def test_len_counts_entries_in_every_table():
    kb = bk.KnowledgeBase()
    stored = []
    store = kb.store

    def recording(canonical, depth, entry):
        stored.append((canonical, depth, Status.UNKNOWN if entry[0] is None else entry[0].status, entry[1]))
        store(canonical, depth, entry)

    kb.store = recording
    # searches that the depth limit cuts, with uncut searches below them;
    # searched again deeper, each cut UNKNOWN tuple is stored at a second
    # depth but held once
    entries = (6, 3, 10, 7647185)
    assert _decide(entries, 3, kb)[0] is None  # UNKNOWN
    assert _decide(entries, 5, kb)[0] is None
    saturated = {canonical for canonical, _, _, height in stored if height is not None}
    cut_unknown = [canonical for canonical, _, status, height in stored
                   if height is None and status is Status.UNKNOWN]
    assert saturated and len(set(cut_unknown)) < len(cut_unknown)
    assert len(stored) == len(saturated) + len(cut_unknown)  # no cut search decided
    assert len(kb) == len(saturated) + len(set(cut_unknown))
    # a cut search that decides is not held, so a revisit searches it
    # again; none occurs in the census universes, so one is stored directly
    rigid = bk.classify((2, 3, 4, 5))
    assert rigid.status is Status.RIGID and (2, 3, 4, 5) not in saturated | set(cut_unknown)
    kb.store((2, 3, 4, 5), 1, (rigid.certificate, None))
    assert kb.lookup((2, 3, 4, 5), 1) is None
    assert len(kb) == len(saturated) + len(set(cut_unknown))
    # its status is still registered against a contradictory one
    with pytest.raises(SoundnessError, match="contradictory statuses"):
        kb.store((2, 3, 4, 5), 2, (bk.rule_not_in_tn((2, 2, 3, 3)), None))


# --- DESCEND's sibling rule ----------------------------------------------------
#
# The search as it was before a witness child took its siblings' verdicts
# from its parent's loop: every witness at every critical index is asked
# of the memo.  The leaf cascade is the engine's own (its permuted rules
# are checked against the tuple predicates below).


def reference_decide(entries, depth, kb):
    canonical = tuple(sorted(entries))
    entry = kb.lookup(canonical, depth)
    if entry is not None:
        cached = entry[0]
        if cached is None or cached.exponents == entries:
            return entry
    searched = reference_run_cascade(tp.Facts(entries), depth, kb)
    if entry is None:
        kb.store(canonical, depth, searched)
    return searched


def reference_run_cascade(facts, depth, kb):
    certificate = engine._first_leaf(facts, LEAF_RULES)
    height = 0
    if certificate is None:
        if not facts.critical:
            return None, 0
        if depth <= 0:
            return None, None
        heights = []
        certificate = reference_subtuples(facts, depth, kb, heights) or reference_descend(
            facts, depth, kb, heights
        )
        height = None if None in heights else max(heights, default=-1) + 1
        if certificate is None:
            return None, height
    return certificate, height


def reference_subtuples(facts, depth, kb, heights):
    subsets = recursive_subsets(facts)
    if not subsets:
        return None
    children = []
    for subset in subsets:
        child, height = reference_decide(tp.subtuple(facts.entries, subset), depth - 1, kb)
        heights.append(height)
        if child is None or not child.status.implies_rigid:
            return None
        children.append(child)
    return bk.Certificate(
        RuleId.RECURSIVE_SUBTUPLES, facts.entries, Status.RIGID,
        tp.identity_permutation(facts.n), bk.Witness(subsets=subsets), tuple(children),
    )


def reference_descend(facts, depth, kb, heights):
    entries, floors = facts.entries, facts.floors
    for index in facts.critical:
        floor = floors[index - 1]
        for k in tp.divisors(entries[index - 1] // floor, kb.budget.max_divisor_witnesses + 1)[:-1]:
            witness_tuple = entries[: index - 1] + (floor * k,) + entries[index:]
            child, height = reference_decide(witness_tuple, depth - 1, kb)
            heights.append(height)
            if child is not None and child.status.implies_rigid:
                return bk.Certificate(
                    RuleId.DESCEND, entries, Status.RIGID, tp.identity_permutation(facts.n),
                    bk.Witness(index=index, exponents=witness_tuple), (child,),
                )
    return None


def memo_tables(kb):
    return [list(table.items()) for table in (kb._saturated, kb._unknown, kb._decided)]


@st.composite
def smooth_searches(draw):
    # Small entries sharing factors with one large smooth entry, so that
    # DESCEND walks long witness lists and its children meet their siblings.
    small = st.sampled_from((2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16))
    others = draw(st.lists(small, min_size=3, max_size=5))
    powers = draw(st.tuples(*(st.integers(0, top) for top in (14, 8, 5, 3, 2))))
    large = 2**powers[0] * 3**powers[1] * 5**powers[2] * 7**powers[3] * 11**powers[4]
    entries = draw(st.permutations(others + [max(large, 17)]))
    return tuple(entries), draw(st.integers(0, 8)), draw(st.sampled_from((1, 2, 5, 32)))


@settings(max_examples=200, deadline=None)
@given(smooth_searches())
def test_sibling_rule_matches_the_search_that_asks_the_memo(search):
    entries, depth, cap = search
    budget = bk.Budget(max_depth=depth, max_divisor_witnesses=cap)
    kb, reference_kb = bk.KnowledgeBase(budget), bk.KnowledgeBase(budget)
    for tuple_ in (entries, entries[::-1]):  # the second through a warm memo
        got = _decide(tuple_, depth, kb)
        assert got == reference_decide(tuple_, depth, reference_kb), tuple_
        assert memo_tables(kb) == memo_tables(reference_kb), tuple_


def count_calls(monkeypatch, owner, name):
    """The argument tuples of every call of ``owner.name`` from now on."""
    calls = []
    function = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def count_lookups(monkeypatch):
    return count_calls(monkeypatch, bk.KnowledgeBase, "lookup")


BIG_SMOOTH = 2**20 * 3**12 * 5**8 * 7**6 * 11**4 * 13**3


@pytest.mark.parametrize(
    "entries,cap,calls",
    [
        ((7, 11468800, 2, 8), 32, 33),  # 332 when every sibling was asked again
        ((6, 3, 10, 7647185), 32, 14),  # 71
        ((7, BIG_SMOOTH, 2, 8), 4096, 4097),  # 253,503
    ],
)
def test_descend_asks_the_memo_once_per_witness(monkeypatch, entries, cap, calls):
    asked = count_lookups(monkeypatch)
    outcome = bk.classify(entries, bk.KnowledgeBase(bk.Budget(max_divisor_witnesses=cap)))
    assert outcome.status is Status.UNKNOWN and outcome.budget_hit
    assert len(asked) == calls


# --- the witness-record rule ---------------------------------------------------
#
# A DESCEND witness child takes its parent's kernel result, and when its
# parent failed every leaf rule it walks only engine._WITNESS_LEAF_RULES
# (module docstring of engine).  Both lemmas are checked on the first 64
# witnesses f * k of each critical index, against a fresh kernel pass and
# the full cascade.


def witness_children(entries, floors, critical):
    """(index, k, child) for each critical index and each of its first 64
    witnesses."""
    for index in critical:
        floor = floors[index - 1]
        quotient = entries[index - 1] // floor
        for k in tp.divisors(quotient, 64):
            if k < quotient:
                yield index, k, entries[: index - 1] + (floor * k,) + entries[index:]


@settings(max_examples=200, deadline=None)
@given(smooth_searches())
def test_a_witness_child_has_its_parents_kernel_result(search):
    entries = search[0]
    floors, critical = tp.invariant_core(entries)
    for index, k, child in witness_children(entries, floors, critical):
        expected = tuple(j for j in critical if j != index) if k == 1 else critical
        assert tp.invariant_core(child) == (floors, expected), (entries, child)


@settings(max_examples=200, deadline=None)
@given(smooth_searches())
# the witness 4 of the parent's 12 satisfies EQUAL_EXPONENTS
@example(((4, 4, 4, 12), 0, 1))
# the witness 2 of the parent's 4 meets another 2: NOT_IN_TN decides it
@example(((2, 3, 3, 4), 0, 1))
def test_a_witness_child_of_a_failed_cascade_walks_only_the_witness_rules(search):
    entries = search[0]
    facts = tp.Facts(entries)
    if engine._first_leaf(facts, LEAF_RULES) is not None:
        return  # DESCEND never runs on this tuple
    for index, k, child in witness_children(entries, facts.floors, facts.critical):
        kernel = facts.floors, tuple(j for j in facts.critical if j != index or k > 1)
        pruned = engine._first_leaf(tp.Facts(child, kernel), engine._WITNESS_LEAF_RULES)
        assert pruned == engine._first_leaf(tp.Facts(child), LEAF_RULES), (entries, child)


def test_witness_children_run_no_kernel_pass(monkeypatch):
    # 13 witness children, every one a memo miss, and no kernel pass but
    # the root's (14 before witness children took their parent's result);
    # only the root and the witness at k = 1 are searched (the other 12
    # are scored in the root's loop, by the k = 1 lemma), and each record
    # still holds its own tuple's kernel result
    passes, searched = [], []
    kernel, first_leaf = tp.invariant_core, engine._first_leaf

    def counted_kernel(entries):
        passes.append(entries)
        return kernel(entries)

    def counted_leaf(facts, rules):
        searched.append(facts)
        return first_leaf(facts, rules)

    monkeypatch.setattr(tp, "invariant_core", counted_kernel)
    monkeypatch.setattr(engine, "_first_leaf", counted_leaf)
    assert bk.classify((6, 3, 10, 7647185)).status is Status.UNKNOWN
    assert len(searched) == 2 and passes == [(6, 3, 10, 7647185)]
    for facts in searched:
        assert (facts.floors, facts.critical) == kernel(facts.entries), facts.entries


# --- the leaf-witness lemma ----------------------------------------------------
#
# A witness child of a node whose cascade failed is a leaf of the search
# when its one critical index is the one it was reached at: neither
# recursive rule can act on it, and its height has a closed form (module
# docstring of engine).  Every length-4 witness child of a failed cascade
# is such a leaf, so a length-4 verdict is the same at every depth of 1 or
# more.


def smooth_up_to(cap, primes=(2, 3, 5, 7, 11, 13)):
    values = [1]
    for p in primes:
        values = [value * p**e for value in values for e in range(cap.bit_length()) if value * p**e <= cap]
    return sorted(values)


def pool_like_tuples(seed, count):
    """Length-4 tuples with entries 2..16, about 30% of them with one entry
    replaced by a 13-smooth number above 16 and up to 10**8."""
    rng = random.Random(seed)
    large = [value for value in smooth_up_to(10**8) if value > 16]
    drawn = []
    for _ in range(count):
        entries = [rng.randint(2, 16) for _ in range(4)]
        if rng.random() < 0.3:
            entries[rng.randrange(4)] = rng.choice(large)
        drawn.append(tuple(entries))
    return drawn


def test_a_length_4_verdict_is_the_same_at_every_depth_from_one():
    # status, budget_hit and certificate id
    seen = set()
    for entries in pool_like_tuples(2026, 300):
        verdicts = {cold(entries, depth) for depth in (1, 2, 6, 12)}
        assert len(verdicts) == 1, (entries, verdicts)
        seen.add(verdicts.pop()[0])
    assert {Status.UNKNOWN, Status.RIGID, Status.NON_RIGID} <= seen


def test_a_witness_whose_one_critical_index_is_inherited_enters_no_recursive_rule(monkeypatch):
    # the root and its 32 witnesses are asked of the memo, but only the
    # root and the witness at k = 1 are search nodes (the other 31 are
    # scored in the root's loop, by the k = 1 lemma), and only the root
    # runs a recursive rule or builds a Facts record
    decided = count_calls(monkeypatch, engine, "_decide")
    descended = count_calls(monkeypatch, engine, "_descend")
    recursed = count_calls(monkeypatch, engine, "_recursive_subtuples")
    built = count_calls(monkeypatch, tp.Facts, "__init__")
    asked = count_lookups(monkeypatch)
    assert bk.classify((7, 11468800, 2, 8)).status is Status.UNKNOWN
    assert (len(decided), len(descended), len(recursed), len(built), len(asked)) == (2, 1, 1, 1, 33)


# --- the k = 1 lemma -------------------------------------------------------------
#
# When a node's full cascade fails and it has one critical index, DESCEND
# can fire only at its witness at k = 1, so the engine scores the others
# in the node's own loop (module docstring of engine).


@settings(max_examples=200, deadline=None)
@given(smooth_searches())
# the witness 4 of the parent's 12 satisfies EQUAL_EXPONENTS
@example(((4, 4, 4, 12), 6, 32))
# 31 witnesses at k > 1, every one UNKNOWN
@example(((7, 11468800, 2, 8), 6, 32))
# critical indices 4 and 5: the witnesses at k > 1 keep both and are
# searched; scored in the loop, they would make the search's height 2,
# not 3
@example(((2, 3, 3, 4, 121), 6, 32))
def test_descend_on_a_node_with_one_critical_index_fires_only_at_k_1(search):
    entries, depth, cap = search
    budget = bk.Budget(max_depth=depth, max_divisor_witnesses=cap)
    kb, reference_kb = bk.KnowledgeBase(budget), bk.KnowledgeBase(budget)
    # the engine, which scores the witnesses at k > 1, answers as the
    # search that searches every witness
    assert _decide(entries, depth, kb) == reference_decide(entries, depth, reference_kb)
    assert memo_tables(kb) == memo_tables(reference_kb)
    # every node that search met, its witnesses walked in DESCEND's order
    for node in [*reference_kb._saturated, *reference_kb._unknown]:
        facts = tp.Facts(node)
        if len(facts.critical) != 1 or engine._first_leaf(facts, LEAF_RULES) is not None:
            continue
        for _, k, witness_tuple in witness_children(node, facts.floors, facts.critical):
            child = reference_decide(witness_tuple, depth, reference_kb)[0]
            if child is not None and child.status.implies_rigid:
                assert k == 1, (node, witness_tuple)
                break


@pytest.mark.parametrize("length,top", [(4, 24), (5, 10)])
def test_every_length_4_descend_certificate_fires_at_the_floor(length, top):
    fired = 0
    nodes = [row.certificate for row in bk.run_census(bk.CensusSpec(length=length, max_exponent=top)).rows]
    while nodes:
        node = nodes.pop()
        if node is None:
            continue
        nodes.extend(node.children)
        if node.rule is RuleId.DESCEND and len(node.exponents) == 4:
            index = node.witness.index
            assert node.witness.exponents[index - 1] == tp.invariant_core(node.exponents)[0][index - 1]
            fired += 1
    assert fired


def test_a_rigid_memo_entry_for_a_scored_witness_is_a_soundness_error():
    # (7, 112, 2, 8) is the witness at k = 2 of the 11468800 = 56 * 204800
    # in (7, 11468800, 2, 8), whose one critical index is 2
    kb = bk.KnowledgeBase()
    forged = bk.Certificate(RuleId.EQUAL_EXPONENTS, (7, 112, 2, 8), Status.RIGID, (1, 2, 3, 4))
    kb.store((2, 7, 8, 112), 5, (forged, 0))
    with pytest.raises(SoundnessError, match="k = 1 lemma"):
        bk.classify((7, 11468800, 2, 8), kb)


@settings(max_examples=200, deadline=None)
@given(smooth_searches())
@example(((7, 11468800, 2, 8), 6, 32))
@example(((3, 4, 4, 4, 8), 6, 32))
def test_no_node_whose_critical_indices_are_inherited_enters_a_recursive_rule(search):
    entries, depth, cap = search
    inherited = []  # the inherited tuple of each open _decide call
    decide, descend, subtuples = engine._decide, engine._descend, engine._recursive_subtuples

    def deciding(entries, depth, kb, facts=None, parent=engine._NO_PARENT):
        if parent[2] is engine._WITNESS_LEAF_RULES:  # a witness child of a failed cascade
            assert type(facts) is engine._WitnessFacts, entries
        inherited.append(parent)
        try:
            return decide(entries, depth, kb, facts, parent)
        finally:
            inherited.pop()

    def entering(rule):
        def recursive_rule(facts, *args):
            assert facts.critical != (inherited[-1][0],), facts.entries
            return rule(facts, *args)
        return recursive_rule

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_decide", deciding)
        patch.setattr(engine, "_descend", entering(descend))
        patch.setattr(engine, "_recursive_subtuples", entering(subtuples))
        bk.classify(entries, bk.KnowledgeBase(bk.Budget(max_depth=depth, max_divisor_witnesses=cap)))


@pytest.mark.parametrize("entries", [(2, 3, 4, 8), (2, 3, 5, 8)])
def test_rule_descend_walks_every_leaf_rule_on_its_witnesses(entries):
    # its tuple's cascade never ran, so its witnesses take the general
    # path; N4_COPRIME, which the pruned cascade leaves out, decides them
    certificate = bk.rule_descend(entries)
    assert certificate.rule is RuleId.DESCEND
    assert [child.rule for child in certificate.children] == [RuleId.N4_COPRIME]
    assert certificate.children[0].exponents == entries[:3] + (4,)


def test_an_unbounded_search_stacks_at_most_17_engine_frames():
    # two frames per level of recursion (_decide, and the rule that reached
    # the node), classify at the top, and the memo's lookup at the bottom
    depth = deepest = 0

    def profile(frame, event, arg):
        nonlocal depth, deepest
        if frame.f_code.co_filename == engine.__file__:
            if event == "call":
                depth += 1
                deepest = max(deepest, depth)
            elif event == "return":
                depth -= 1

    kb = bk.KnowledgeBase(bk.Budget(max_depth=10**6))
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        outcome = bk.classify((191102976000, 127545840, 6, 8, 824633720832, 4), kb)
    finally:
        sys.setprofile(previous)
    assert outcome.status is Status.UNKNOWN and outcome.budget_hit
    assert 0 < deepest <= 17


# --- one Facts record per search node ------------------------------------------
#
# The leaf rules' side conditions as they were written on plain tuples,
# before they read a Facts record: the cotype and the lcm-stable indices
# come from the omit-one definition, and each permuted rule is scanned
# over all 24 permutations in lexicographic order.


def _excess(entries, factor, indices=None):
    total = lcm(*entries)
    chosen = range(len(entries)) if indices is None else (i - 1 for i in indices)
    return factor * sum(total // entries[i] for i in chosen) - total


def _in_tn(entries):
    return min(entries) >= 2 and entries.count(2) <= 1


def _critical(entries):
    return [i for i in range(1, len(entries) + 1)
            if lcm(*entries[: i - 1], *entries[i:]) % entries[i - 1]]


def _stable(entries):
    return [i for i in range(1, len(entries) + 1) if i not in _critical(entries)]


def _even_gcd(p):
    a, b, c, d = p
    return a == 2 and min(b, c, d) >= 3 and b % 2 == 0 and gcd(b, c) >= 3 and gcd(d, lcm(b, c)) == 2


REFERENCE_LEAVES = (
    (RuleId.NOT_IN_TN, Status.NON_RIGID, False, lambda e: not _in_tn(e)),
    (RuleId.N3_T3, Status.RIGID, False, lambda e: len(e) == 3 and _in_tn(e) and _excess(e, 1) > 0),
    (RuleId.N3_STABLE, Status.STABLY_RIGID, False,
     lambda e: len(e) == 3 and _in_tn(e) and _excess(e, 1) <= 0),
    (RuleId.LOW_SUM, Status.STABLY_RIGID, False, lambda e: _excess(e, len(e) - 2) <= 0),
    (RuleId.N4_COPRIME, Status.RIGID, True, lambda p: gcd(p[0] * p[1] * p[2], p[3]) == 1),
    (RuleId.N4_THREE_THREES, Status.RIGID, True, lambda p: p[0] == p[1] == p[2] == 3),
    (RuleId.N4_EVEN_GCD, Status.RIGID, True, _even_gcd),
    (RuleId.COTYPE_GE_2_N4, Status.RIGID, False,
     lambda e: len(e) == 4 and _in_tn(e) and len(_critical(e)) >= 2),
    (RuleId.EQUAL_EXPONENTS, Status.RIGID, False,
     lambda e: len(e) >= 4 and len(set(e)) == 1 and e[0] >= len(e)),
    (RuleId.COTYPE_GE_NMINUS2, Status.RIGID, False,
     lambda e: len(e) >= 4 and _in_tn(e) and len(_critical(e)) >= len(e) - 2),
    (RuleId.I_SUM, Status.RIGID, False, lambda e: _excess(e, len(e) - 2, _stable(e)) < 0),
)


def reference_first_leaf(entries):
    identity = tuple(range(1, len(entries) + 1))
    for rule, status, permuted, holds in REFERENCE_LEAVES:
        if not permuted:
            if holds(entries):
                return rule, status, identity
        elif len(entries) == 4 and _in_tn(entries):
            for permutation in permutations((1, 2, 3, 4)):
                if holds(tuple(entries[i - 1] for i in permutation)):
                    return rule, status, permutation
    return None


@st.composite
def leaf_tuples(draw):
    # a small pool of values, so that 1s, 2s and repeated entries are common
    value = st.one_of(st.sampled_from((1, 2, 3, 4, 6, 8, 12)), st.integers(1, 10**6))
    pool = draw(st.lists(value, min_size=1, max_size=6))
    return tuple(draw(st.lists(st.sampled_from(pool), min_size=3, max_size=6)))


@settings(max_examples=400, deadline=None)
@given(leaf_tuples())
# three 3s, with the fourth entry in each slot
@example((6, 3, 3, 3))
@example((3, 6, 3, 3))
@example((3, 3, 6, 3))
@example((3, 3, 3, 6))
# every even entry's coordinate gcd is 2, but no two share a factor >= 3
@example((2, 4, 10, 6))
# the coordinate gcd of 4 is 2, and every other entry is odd
@example((9, 4, 3, 2))
# three even entries, none of them but the 2 with coordinate gcd 2
@example((7, 56 * 5, 2, 8))
def test_first_leaf_matches_the_tuple_predicates(entries):
    certificate = engine._first_leaf(tp.Facts(entries), LEAF_RULES)
    found = None if certificate is None else (certificate.rule, certificate.status, certificate.permutation)
    assert found == reference_first_leaf(entries)


def test_classifying_a_length_3_tuple_runs_no_kernel_pass(monkeypatch):
    # The length-3 rules need no kernel value, so neither the lean pass
    # nor the gcd pass runs; a counter on each shows it.
    passes = []

    def counted(kernel):
        def count(entries):
            passes.append(entries)
            return kernel(entries)

        return count

    for name in ("invariant_core", "_gcd_pass"):
        monkeypatch.setattr(tp, name, counted(getattr(tp, name)))
    assert tp.cotype((4, 6, 9)) == 2 and passes == [(4, 6, 9)]  # the counters see each pass
    assert tp.type_size((4, 6, 9)) == 2 and passes == [(4, 6, 9)] * 2
    passes.clear()
    for entries in ((1009, 1013, 1019), (2, 3, 1021), (1, 1031, 1033), (2, 2, 1039), (3, 3, 1049)):
        bk.classify(entries)
        assert passes == [], entries


def test_implies_rigid_per_status():
    assert {status: status.implies_rigid for status in Status} == {
        Status.NON_RIGID: False,
        Status.RIGID: True,
        Status.STABLY_RIGID: True,
        Status.UNKNOWN: False,
    }


def test_entry_points_search_the_memo_they_are_given():
    # An empty KnowledgeBase has length 0, so it is falsy: each entry
    # point must still use it, with its budget, not a default one.
    kb = bk.KnowledgeBase(bk.Budget(max_depth=1))
    assert bk.rule_recursive_subtuples((2, 5, 7, 3, 3, 3), kb) is not None and len(kb) > 0
    kb = bk.KnowledgeBase(bk.Budget(max_depth=1))
    assert bk.rule_descend((4, 4, 4, 12), kb) is not None and len(kb) > 0
    kb = bk.KnowledgeBase(bk.Budget(max_depth=1))
    bk.kernel_degree_bound((10, 3, 3, 4), kb)
    assert len(kb) > 0
    assert bk.KnowledgeBase().budget is bk.KnowledgeBase().budget == bk.Budget()


def big_omega(value):
    """The number of prime factors of ``value``, counted with multiplicity."""
    count, p = 0, 2
    while p * p <= value:
        while value % p == 0:
            value //= p
            count += 1
        p += 1
    return count + (value > 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 48), min_size=3, max_size=5))
def test_a_search_at_the_potential_depth_is_never_cut(entries):
    # Each recursive step shortens the tuple or replaces an entry by a
    # proper divisor, so n + sum(Omega(a_i)) falls at each step, and stays
    # at least 3 (module docstring of engine).
    entries = tuple(entries)
    potential = len(entries) + sum(big_omega(value) for value in entries)
    outcome, height = _decide(entries, potential, bk.KnowledgeBase())
    assert height is not None, (entries, outcome)
    assert height <= potential - 3


def test_classify_takes_the_facts_of_its_own_tuple_only():
    # the private entry the census and the CLI hand their record to
    facts = tp.Facts((4, 4, 4, 12))
    assert engine._classify_valid((4, 4, 4, 12), bk.KnowledgeBase(), facts) == bk.classify((4, 4, 4, 12))


def test_report_and_bound_take_the_facts_of_their_own_tuple_only():
    # the private entries that share the CLI's one record
    facts = tp.Facts((2, 3, 3, 4, 5))
    assert tp._invariant_report((2, 3, 3, 4, 5), facts) == bk.invariant_report((2, 3, 3, 4, 5))
    bound = engine._kernel_bound((2, 3, 3, 4, 5), bk.KnowledgeBase(), facts)
    assert bound == bk.kernel_degree_bound((2, 3, 3, 4, 5))


def test_no_public_function_takes_a_facts_record():
    for function in (bk.classify, bk.invariant_report, bk.kernel_degree_bound):
        assert "facts" not in inspect.signature(function).parameters, function.__name__


@pytest.mark.parametrize("entries", [(7, 11468800, 2, 8), (12, 18, 8, 9, 5, 7, 11, 13), tuple(range(2, 12))])
def test_facts_critical_indices_are_the_omit_one_definition(entries):
    facts = tp.Facts(entries)
    assert facts.critical == tuple(_critical(entries))


class TestCollectorPaused:
    """``proj_classes`` and ``run_census`` pause the cyclic collector and
    leave it as the caller had it, also when they raise; they build no
    reference cycles, so a collection right after finds nothing."""

    BULK = {
        "proj": lambda n, top: bk.proj_classes(
            bk.census.enumerate_universe(bk.CensusSpec(length=n, max_exponent=top))
        ),
        "census-w1": lambda n, top: bk.run_census(bk.CensusSpec(length=n, max_exponent=top)),
        "census-w2": lambda n, top: bk.run_census(bk.CensusSpec(length=n, max_exponent=top), workers=2),
    }

    @pytest.fixture
    def collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("call", sorted(BULK))
    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored(self, collector, call, enabled):
        (gc.enable if enabled else gc.disable)()
        self.BULK[call](3, 8)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("call", sorted(BULK))
    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored_when_the_call_raises(self, collector, monkeypatch, call, enabled):
        decide, calls = engine._decide, []

        def failing(*args):
            calls.append(args[0])
            if len(calls) == 50:
                raise RuntimeError("search failed")
            return decide(*args)

        monkeypatch.setattr(engine, "_decide", failing)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError, match="search failed"):
            self.BULK[call](3, 8)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("call", sorted(BULK))
    @pytest.mark.parametrize("n, top", [(3, 30), (4, 10), (5, 5)])
    def test_no_cycles_are_left(self, call, n, top):
        gc.collect()
        self.BULK[call](n, top)
        assert gc.collect() == 0
