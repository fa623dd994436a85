"""Isomorphism classes of projective cones inside a finite tuple universe.

Whenever one tuple sits below another in the coordinate divisor order,
the smaller ring embeds as a Veronese subring of the larger one and the
two projective cones are isomorphic.  This module finds all such edges
inside a user-supplied universe (up to coordinate permutation, with the
aligning permutation recorded), takes connected components, and
annotates every member with its classification status.  Classes are
relative to the universe: no tuples outside it are searched for
connecting chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

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
    """
    members = _validate_universe(universe)
    # Group (member, position) by the sorted remainder: two members can
    # only be comparable when they agree, as multisets, off one position.
    by_rest: dict[tuple[int, ...], list[tuple[Exponents, int]]] = {}
    for member in members:
        for p in range(len(member)):
            rest = tuple(sorted(member[:p] + member[p + 1 :]))
            by_rest.setdefault(rest, []).append((member, p))
    found: dict[tuple[Exponents, Exponents], ProjEdge] = {}
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
                    alignment=_alignment(source, target, p, q),
                )
                kept = found.get(pair)
                if kept is None or (edge.index, edge.alignment) < (kept.index, kept.alignment):
                    found[pair] = edge
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
    edges = proj_edges(members)
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
