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

A slot enters its bucket with two tables, built once per (stable
argsort, position p), so once per p in a non-decreasing universe: the
rank of each position among the others in stable value order, p ranked
last, and the positions (1-based) in that order.  An edge's alignment is
the target's positions indexed by the source's ranks, one O(n) step that
sends the i-th copy of a value to its i-th copy.  Components come from a
union-find over a dict where the smaller root wins, so each class's root
is its least member, found once per member in ascending order.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple

from . import tuples as tp
from .certificates import Status, _wrap
from .engine import KnowledgeBase, _classify_valid, _collector_paused, _memo
from .engine import classify  # noqa: F401  (not called here; perfbench's tracer wraps proj.classify)
from .errors import InputError
from .tuples import Exponents


class ProjEdge(NamedTuple):
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


class ProjClass(NamedTuple):
    """A connected component of the (undirected) edge graph."""

    members: tuple[Exponents, ...]
    edges: tuple[ProjEdge, ...]
    statuses: tuple[tuple[Exponents, Status], ...]
    mixed: bool
    relative_to_universe: bool = True

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


def classes_to_json(classes) -> str:
    """The text json.dumps([c.to_dict() for c in classes], sort_keys=True,
    indent=2) gives, written directly in sorted key order: with an indent,
    CPython's json falls back to its pure-Python encoder, which took twice
    as long as finding the classes on n=3 max 60."""

    def ints(values, pad: str) -> str:
        return _wrap([str(v) for v in values], "[]", pad, "  ")

    def edge(e: ProjEdge) -> str:
        return _wrap([
            '"alignment": ' + ints(e.alignment, "        "),
            '"from": ' + ints(e.source, "        "),
            f'"index": {e.index}',
            '"to": ' + ints(e.target, "        "),
            f'"veronese_index": {e.veronese_index}',
        ], "{}", "      ", "  ")

    def status(member: Exponents, value: Status) -> str:
        fields = [f'"status": "{value.value}"', '"tuple": ' + ints(member, "        ")]
        return _wrap(fields, "{}", "      ", "  ")

    def one(cls: ProjClass) -> str:
        return _wrap([
            '"edges": ' + _wrap([edge(e) for e in cls.edges], "[]", "    ", "  "),
            '"members": ' + _wrap([ints(m, "      ") for m in cls.members], "[]", "    ", "  "),
            f'"mixed": {"true" if cls.mixed else "false"}',
            f'"relative_to_universe": {"true" if cls.relative_to_universe else "false"}',
            '"statuses": ' + _wrap([status(*pair) for pair in cls.statuses], "[]", "    ", "  "),
        ], "{}", "  ", "  ")

    return _wrap([one(cls) for cls in classes], "[]", "", "  ")


def _validate_universe(universe) -> list[Exponents]:
    try:
        universe = iter(universe)
    except TypeError:
        raise InputError(f"universe must be a collection of tuples, got {universe!r}") from None
    members = sorted({tp.as_exponents(member, minimum_length=3) for member in universe})
    lengths = {len(member) for member in members}
    if len(lengths) > 1:
        raise InputError(f"universe mixes tuple lengths {sorted(lengths)}")
    return members


def proj_edges(universe) -> list[ProjEdge]:
    """All divisor-order edges between distinct universe members, up to
    coordinate permutation.

    Members equal as multisets are never connected (the step would be the
    identity embedding), which keeps the edge relation antisymmetric.
    One edge is emitted per ordered pair, chosen at the lexicographically
    smallest removal positions.  The search is described in the module
    docstring: a value pair of a group passes when ``small < large``,
    ``large % small == 0`` and ``small % gcd(large, lcm(*rest)) == 0``.
    """
    return _edges(_validate_universe(universe))


def _edges(members: list[Exponents]) -> list[ProjEdge]:
    # Two members are comparable only when they agree, as multisets, off
    # one position, so an ordered pair lies in exactly one group and one
    # pair of values.  A member's slots of equal value share their
    # remainder, so each member enters a value bucket once.
    tables: dict[tuple[tuple[int, ...], int], tuple] = {}
    groups: dict[tuple[int, ...], dict[int, list]] = {}
    for member in members:
        positions = range(len(member))
        order = tuple(sorted(positions, key=member.__getitem__))
        for p, value in enumerate(member):
            if member.index(value) == p:
                table = tables.get((order, p))
                if table is None:
                    kept = tuple(i for i in order if i != p)
                    ranked = kept + (p,)
                    table = kept, tuple(map(ranked.index, positions)), tuple(i + 1 for i in ranked)
                    tables[order, p] = table
                rest = tuple(map(member.__getitem__, table[0]))
                groups.setdefault(rest, {}).setdefault(value, []).append((member, table))
    edges: list[ProjEdge] = []
    for rest, buckets in groups.items():
        rest_lcm = lcm(*rest)
        values = sorted(buckets)
        for i, small in enumerate(values):
            for large in values[i + 1 :]:
                if large % small or small % gcd(large, rest_lcm):
                    continue
                # The test fails when ``large`` divides ``rest_lcm``, so a
                # target holds ``large`` once, where the source's p (ranked
                # last) is sent.
                step = large // small
                for source, (_, rank, slots) in buckets[small]:
                    for target, (_, _, target_slots) in buckets[large]:
                        # tuple.__new__ skips the named tuple's __new__
                        alignment = tuple(map(target_slots.__getitem__, rank))
                        edges.append(tuple.__new__(ProjEdge, (source, target, slots[-1], step, alignment)))
    edges.sort()  # each ordered pair is found once, so no tie reaches the rest
    return edges


def _mixed(statuses: set[Status]) -> bool:
    return len({Status.RIGID if status.implies_rigid else status for status in statuses}) > 1


def proj_classes(universe, kb: KnowledgeBase | None = None) -> list[ProjClass]:
    """Connected components of the edge graph, each member annotated with
    its classification status and the class flagged when statuses mix.

    The call builds no reference cycles, so it pauses the cyclic garbage
    collector, a process-wide state, and leaves it as the caller had it,
    also when the call raises."""
    kb = _memo(kb)
    with _collector_paused():
        members = _validate_universe(universe)
        edges = _edges(members)
        # The smaller root wins, so a parent is less than its child.
        parent: dict[Exponents, Exponents] = {}
        for a, b, _, _, _ in edges:
            while a in parent:
                a = parent[a]
            while b in parent:
                b = parent[b]
            if a != b:
                parent[max(a, b)] = min(a, b)
        # In ascending order each parent's root is known before its
        # children's, and classes and their members come out sorted.
        root: dict[Exponents, Exponents] = {}
        grouped: dict[Exponents, list[Exponents]] = {}
        for member in members:
            top = root[member] = root[parent[member]] if member in parent else member
            grouped.setdefault(top, []).append(member)
        # Both ends of an edge share a root, so one pass buckets every edge
        # into its component while keeping the edge list's order.
        grouped_edges: dict[Exponents, list[ProjEdge]] = {}
        for edge in edges:
            grouped_edges.setdefault(root[edge[0]], []).append(edge)
        classes = []
        for top, component in grouped.items():
            statuses = tuple((member, _classify_valid(member, kb).status) for member in component)
            classes.append(
                ProjClass(
                    members=tuple(component),
                    edges=tuple(grouped_edges.get(top, ())),
                    statuses=statuses,
                    mixed=_mixed({status for _, status in statuses}),
                )
            )
        return classes
