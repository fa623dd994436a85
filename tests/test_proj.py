"""Projective-cone isomorphism classes over finite universes."""

import hashlib
import json
import time
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brieskorn as bk
from brieskorn import tuples as tp
from brieskorn.certificates import Status
from brieskorn.census import CensusSpec, enumerate_universe
from brieskorn.errors import InputError
from brieskorn.proj import ProjEdge, _mixed, classes_to_json

CHAIN_UNIVERSE = [(2, 3, 3, 2), (2, 3, 3, 4), (10, 3, 3, 4)]


class TestEdges:
    def test_chain_edges(self):
        edges = bk.proj_edges(CHAIN_UNIVERSE)
        by_pair = {(e.source, e.target): e for e in edges}
        assert set(by_pair) == {
            ((2, 3, 3, 2), (2, 3, 3, 4)),
            ((2, 3, 3, 4), (10, 3, 3, 4)),
        }
        assert by_pair[(2, 3, 3, 2), (2, 3, 3, 4)].veronese_index == 2
        assert by_pair[(2, 3, 3, 4), (10, 3, 3, 4)].veronese_index == 5

    def test_edges_satisfy_the_divisor_order(self):
        for edge in bk.proj_edges(CHAIN_UNIVERSE):
            aligned = tp.apply_permutation(edge.target, edge.alignment)
            assert tp.lt_at(edge.source, aligned, edge.index)
            assert (
                aligned[edge.index - 1]
                == edge.veronese_index * edge.source[edge.index - 1]
            )

    def test_singleton_universe_has_no_edges(self):
        assert bk.proj_edges([(2, 3, 3, 4)]) == []

    def test_permutation_equal_members_never_connect(self):
        assert bk.proj_edges([(1, 2, 3), (2, 1, 3)]) == []

    def test_no_relation_between_equal_tuples_of_different_value(self):
        assert bk.proj_edges([(3, 3, 3, 3), (5, 5, 5, 5)]) == []

    def test_antisymmetric_over_a_block_universe(self):
        universe = list(enumerate_universe(CensusSpec(length=4, max_exponent=6)))
        pairs = {(e.source, e.target) for e in bk.proj_edges(universe)}
        assert all((t, s) not in pairs for s, t in pairs)

    def test_mixed_lengths_rejected(self):
        with pytest.raises(InputError):
            bk.proj_edges([(2, 3, 4), (2, 3, 4, 5)])

    def test_cost_does_not_grow_with_the_entries(self):
        # Walking the multiples of 3 up to 6*10**12 would not return.
        start = time.perf_counter()
        edges = bk.proj_edges([(1, 2, 3 * 10**12), (1, 2, 6 * 10**12), (1, 2, 3)])
        assert time.perf_counter() - start < 1.0
        assert [edge.to_dict() for edge in edges] == [{
            "from": [1, 2, 3 * 10**12],
            "to": [1, 2, 6 * 10**12],
            "index": 3,
            "veronese_index": 2,
            "alignment": [1, 2, 3],
        }]


def greedy_alignment(source, target, p: int, q: int) -> tuple[int, ...]:
    """Reference: the permutation of ``target`` matching ``source`` outside
    position ``p`` (0-based), sending ``p`` to ``target[q]``, with each
    entry of ``source`` taking the first unused equal entry of ``target``."""
    used = [False] * len(target)
    used[q] = True
    perm = []
    for j, value in enumerate(source):
        if j == p:
            perm.append(q + 1)
            continue
        for u, candidate in enumerate(target):
            if not used[u] and candidate == value:
                used[u] = True
                perm.append(u + 1)
                break
    return tuple(perm)


def naive_edges(universe) -> list[ProjEdge]:
    """Reference: try every ordered pair of (member, position) slots that
    share a sorted remainder, keeping the smallest (index, alignment)."""
    members = sorted({tuple(member) for member in universe})
    by_rest = {}
    for member in members:
        for p in range(len(member)):
            rest = tuple(sorted(member[:p] + member[p + 1 :]))
            by_rest.setdefault(rest, []).append((member, p))
    found = {}
    for rest, slots in sorted(by_rest.items()):
        for source, p in slots:
            for target, q in slots:
                small, large = source[p], target[q]
                if sorted(source) == sorted(target):
                    continue
                if large % small or large == small:
                    continue
                rest_lcm = tp.omitted_lcms(target)[q]
                if small % gcd(large, rest_lcm):
                    continue
                pair = (source, target)
                edge = ProjEdge(
                    source=source,
                    target=target,
                    index=p + 1,
                    veronese_index=large // small,
                    alignment=greedy_alignment(source, target, p, q),
                )
                kept = found.get(pair)
                if kept is None or (edge.index, edge.alignment) < (kept.index, kept.alignment):
                    found[pair] = edge
    return [found[pair] for pair in sorted(found)]


# Few distinct values, so that remainders repeat and entries divide one
# another; entry 1 and entries above 10**12 included.
ENTRIES = st.sampled_from([1, 2, 3, 4, 6, 8, 12, 3 * 10**12, 6 * 10**12, 12 * 10**12])


@st.composite
def universes(draw):
    length = draw(st.integers(3, 5))
    return draw(st.lists(st.lists(ENTRIES, min_size=length, max_size=length), max_size=24))


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(universes())
    def test_matches_the_slot_pair_search(self, universe):
        expected = [edge.to_dict() for edge in naive_edges(universe)]
        assert [edge.to_dict() for edge in bk.proj_edges(universe)] == expected

    @pytest.mark.parametrize(
        "length, top, digest",
        [
            (4, 16, "ab526396b48e166d0539890f36c484c272db8998f43c9a4e1785472ad3e54c1e"),
            (5, 6, "360d787ce3366b267371ec67fa083ff42baa6ced0ad5cdc3e9aed435126aa517"),
        ],
    )
    def test_classes_output_is_pinned(self, length, top, digest):
        universe = list(enumerate_universe(CensusSpec(length=length, max_exponent=top)))
        text = json.dumps([c.to_dict() for c in bk.proj_classes(universe)], sort_keys=True)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


class TestClasses:
    def test_chain_class_is_mixed(self):
        classes = bk.proj_classes(CHAIN_UNIVERSE)
        assert len(classes) == 1
        cls = classes[0]
        assert set(cls.members) == set(CHAIN_UNIVERSE)
        statuses = dict(cls.statuses)
        assert statuses[(2, 3, 3, 2)] is Status.NON_RIGID
        assert statuses[(2, 3, 3, 4)] is Status.UNKNOWN
        assert statuses[(10, 3, 3, 4)] is Status.RIGID
        assert cls.mixed
        assert cls.relative_to_universe

    def test_unrelated_tuples_form_two_classes(self):
        classes = bk.proj_classes([(3, 3, 3, 3), (5, 5, 5, 5)])
        assert len(classes) == 2
        assert all(len(cls.members) == 1 for cls in classes)
        assert all(not cls.mixed for cls in classes)

    def test_empty_universe(self):
        assert bk.proj_classes([]) == []

    def test_unknown_alongside_others_is_mixed(self):
        classes = bk.proj_classes([(2, 3, 3, 4), (10, 3, 3, 4)])
        assert len(classes) == 1
        assert classes[0].mixed

    def test_uniform_rigid_class_is_not_mixed(self):
        # (4,4,4,4) -> (4,4,4,8) -> ... all rigid along the divisor chain
        classes = bk.proj_classes([(4, 4, 4, 4), (4, 4, 4, 8)])
        assert len(classes) == 1
        assert not classes[0].mixed

    @pytest.mark.parametrize(
        "statuses", [set(chosen) for size in range(1, 5) for chosen in combinations(Status, size)], ids=str
    )
    def test_mixed_is_more_than_one_kind_of_verdict(self, statuses):
        # rigid and stably rigid are one kind; NON_RIGID and UNKNOWN are
        # each their own
        rigid = Status.RIGID in statuses or Status.STABLY_RIGID in statuses
        expected = (rigid and Status.NON_RIGID in statuses) or (Status.UNKNOWN in statuses and len(statuses) > 1)
        assert _mixed(statuses) is expected

    def test_to_dict_shape(self):
        payload = bk.proj_classes(CHAIN_UNIVERSE)[0].to_dict()
        assert set(payload) == {"members", "edges", "statuses", "mixed", "relative_to_universe"}
        assert payload["mixed"] is True
        assert {"from", "to", "index", "veronese_index", "alignment"} == set(payload["edges"][0])

    def test_classes_search_the_memo_they_are_given(self):
        # an empty KnowledgeBase is falsy, and its budget must still apply
        kb = bk.KnowledgeBase(bk.Budget(max_depth=0))
        statuses = dict(bk.proj_classes([(2, 5, 7, 3, 3, 3)], kb)[0].statuses)
        assert statuses[(2, 5, 7, 3, 3, 3)] is Status.UNKNOWN and len(kb) > 0


class TestStructuredText:
    """``classes_to_json`` writes, without the json module's pure-Python
    encoder, the text json.dumps gives with sorted keys and indent 2."""

    @pytest.mark.parametrize("length, top", [(3, 12), (4, 8)])
    def test_matches_json_dumps(self, length, top):
        classes = bk.proj_classes(list(enumerate_universe(CensusSpec(length=length, max_exponent=top))))
        expected = json.dumps([cls.to_dict() for cls in classes], sort_keys=True, indent=2)
        assert classes_to_json(classes) == expected

    def test_no_classes(self):
        assert classes_to_json([]) == json.dumps([], sort_keys=True, indent=2) == "[]"
