"""Isomorphism classes of projective cones inside a finite tuple universe.

Whenever one tuple sits below another in the coordinate divisor order,
the smaller ring embeds as a Veronese subring of the larger one and the
two projective cones are isomorphic.  This module finds all such edges
inside a user-supplied universe (up to coordinate permutation, with the
aligning permutation recorded), takes connected components, and
annotates every member with its classification status.  Classes are
relative to the universe: no tuples outside it are searched for
connecting chains.

Edges are found by grouping (member, position) slots by the sorted
remainder ``rest`` and then by entry value.  Every member of a group is
``rest`` plus one value, so two slots of a group name the same multiset
exactly when their values are equal, and the lcm of a target's other
entries is ``lcm(*rest)`` throughout the group.  The cost is one pass
per slot, plus the pairs of distinct values present in each group, plus
one edge for each member pair of a value pair that passes the divisor
test.  No step depends on the size of an entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from . import tuples as tp
from .certificates import Status
from .engine import KnowledgeBase, classify
from .errors import InputError
from .tuples import Exponents


@dataclass(frozen=True)
class ProjEdge:
    """One Veronese embedding step between two universe members.

    ``alignment`` permutes ``target`` so that it agrees with ``source``
    everywhere except at ``index`` (1-based in ``source``), where the
    aligned entry is ``veronese_index`` times the source entry.
    """

    source: Exponents
    target: Exponents
    index: int
    veronese_index: int
    alignment: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "from": list(self.source),
            "to": list(self.target),
            "index": self.index,
            "veronese_index": self.veronese_index,
            "alignment": list(self.alignment),
        }


@dataclass(frozen=True)
class ProjClass:
    """A connected component of the (undirected) edge graph."""

    members: tuple[Exponents, ...]
    edges: tuple[ProjEdge, ...]
    statuses: tuple[tuple[Exponents, Status], ...]
    mixed: bool
    relative_to_universe: bool = True

    def status_of(self, member) -> Status:
        lookup = dict(self.statuses)
        return lookup[tuple(member)]

    def to_dict(self) -> dict:
        return {
            "members": [list(member) for member in self.members],
            "edges": [edge.to_dict() for edge in self.edges],
            "statuses": [
                {"tuple": list(member), "status": status.value}
                for member, status in self.statuses
            ],
            "mixed": self.mixed,
            "relative_to_universe": self.relative_to_universe,
        }


def _validate_universe(universe) -> list[Exponents]:
    members = sorted({tp.as_exponents(member, minimum_length=3) for member in universe})
    lengths = {len(member) for member in members}
    if len(lengths) > 1:
        raise InputError(f"universe mixes tuple lengths {sorted(lengths)}")
    return members


def _alignment(source: Exponents, target: Exponents, p: int, q: int) -> tuple[int, ...]:
    """Permutation of ``target`` matching ``source`` outside position ``p``
    (0-based here), sending position ``p`` to ``target[q]``."""
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


def proj_edges(universe) -> list[ProjEdge]:
    """All divisor-order edges between distinct universe members, up to
    coordinate permutation.

    Members equal as multisets are never connected (the step would be the
    identity embedding), which keeps the edge relation antisymmetric.
    One edge is emitted per ordered pair, chosen at the lexicographically
    smallest removal positions.

    Slots (member, position) are grouped by the sorted remainder ``rest``
    and then by entry value.  Inside one group two slots name the same
    multiset exactly when their values are equal, and the lcm of a
    target's other entries is ``lcm(*rest)``.  So the search makes one
    pass per slot, then tests each pair of distinct values present in a
    group (``small < large``, ``large % small == 0`` and ``small %
    gcd(large, lcm(*rest)) == 0``), and builds edges only for the
    members of the value pairs that pass.
    """
    return _edges(_validate_universe(universe))


def _edges(members: list[Exponents]) -> list[ProjEdge]:
    # Two members are comparable only when they agree, as multisets, off
    # one position, so an ordered pair lies in exactly one group and one
    # pair of values.  A member's slots of equal value share their
    # remainder, so each member enters a value bucket once.
    groups: dict[tuple[int, ...], dict[int, list[Exponents]]] = {}
    for member in members:
        for p, value in enumerate(member):
            if member.index(value) == p:
                rest = tuple(sorted(member[:p] + member[p + 1 :]))
                groups.setdefault(rest, {}).setdefault(value, []).append(member)
    found: dict[tuple[Exponents, Exponents], ProjEdge] = {}
    for rest, buckets in groups.items():
        rest_lcm = lcm(*rest)
        values = sorted(buckets)
        for i, small in enumerate(values):
            for large in values[i + 1 :]:
                if large % small or small % gcd(large, rest_lcm):
                    continue
                # The test fails when ``large`` divides ``rest_lcm``, so a
                # target holds ``large`` once; the smallest index wins.
                step = large // small
                for source in buckets[small]:
                    p = source.index(small)
                    for target in buckets[large]:
                        alignment = _alignment(source, target, p, target.index(large))
                        found[source, target] = ProjEdge(source, target, p + 1, step, alignment)
    return [found[pair] for pair in sorted(found)]


class _DisjointSets:
    def __init__(self, items):
        self._parent = {item: item for item in items}

    def find(self, item):
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[max(ra, rb)] = min(ra, rb)


def _mixed(statuses: set[Status]) -> bool:
    has_rigid = Status.RIGID in statuses or Status.STABLY_RIGID in statuses
    if Status.NON_RIGID in statuses and has_rigid:
        return True
    return Status.UNKNOWN in statuses and len(statuses) > 1


def proj_classes(universe, kb: KnowledgeBase | None = None) -> list[ProjClass]:
    """Connected components of the edge graph, each member annotated with
    its classification status and the class flagged when statuses mix."""
    members = _validate_universe(universe)
    edges = _edges(members)
    kb = kb or KnowledgeBase()
    sets = _DisjointSets(members)
    for edge in edges:
        sets.union(edge.source, edge.target)
    grouped: dict[Exponents, list[Exponents]] = {}
    for member in members:
        grouped.setdefault(sets.find(member), []).append(member)
    # Both ends of an edge share a root, so one pass buckets every edge
    # into its component while keeping the edge list's order.
    grouped_edges: dict[Exponents, list[ProjEdge]] = {}
    for edge in edges:
        grouped_edges.setdefault(sets.find(edge.source), []).append(edge)
    classes = []
    for root in sorted(grouped):
        component = tuple(sorted(grouped[root]))
        component_edges = tuple(grouped_edges.get(root, ()))
        statuses = tuple(
            (member, classify(member, kb).status) for member in component
        )
        classes.append(
            ProjClass(
                members=component,
                edges=component_edges,
                statuses=statuses,
                mixed=_mixed({status for _, status in statuses}),
            )
        )
    return classes
