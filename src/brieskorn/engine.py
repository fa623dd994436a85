"""Rigidity classifier for exponent tuples.

A fixed catalogue of arithmetic rules is tried in a fixed priority order.
The cheap purely-arithmetic rules run first: the cascade walks the
leaf-rule table :data:`~brieskorn.certificates.LEAF_RULES`, whose
predicates replay also evaluates.  Then come the recursive search rules
(subtuple recursion and descending along the coordinate divisor order).
The search is budgeted (recursion depth and divisor witnesses per
coordinate) and memoized on the sorted tuple together with the remaining
depth, which makes every answer a pure function of the tuple and the
budget: warm and cold caches, any call order, and any number of census
workers all produce identical results.

``UNKNOWN`` is a first-class answer, not an error: it means no
implemented criterion decides the tuple within the budget.  Known open
cases (such as (2,3,3,4)) must stay UNKNOWN.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import tuples as tp
from .certificates import (
    LEAF_RULES,
    Certificate,
    LeafRule,
    RuleId,
    Status,
    Witness,
    permutable,
    recursive_subsets,
)
from .errors import InputError, SoundnessError
from .tuples import Exponents

#: Firing order of the rule catalogue (first match wins).
RULE_PRIORITY = tuple(leaf.rule for leaf in LEAF_RULES) + (RuleId.RECURSIVE_SUBTUPLES, RuleId.DESCEND)

_PERMS4 = tuple(itertools.permutations((1, 2, 3, 4)))


@dataclass(frozen=True)
class Budget:
    """Search limits for the recursive rules."""

    max_depth: int = 6
    max_divisor_witnesses: int = 32

    def __post_init__(self):
        if self.max_depth < 0 or self.max_divisor_witnesses < 1:
            raise InputError(f"invalid budget {self!r}")


@dataclass(frozen=True)
class Classification:
    """Outcome of classifying one tuple.

    ``certificate`` is None exactly when the status is UNKNOWN.
    ``budget_hit`` is set on an UNKNOWN answer exactly when the tuple has
    an lcm-critical index, i.e. when the recursive rules had candidates
    to try; it does not record whether a budget cap actually cut them.
    """

    status: Status
    certificate: Certificate | None
    budget_hit: bool = False


class KnowledgeBase:
    """Memo table keyed by (sorted tuple, remaining depth), plus budget.

    Sorting the key is valid because the defining polynomial is symmetric
    in the (variable, exponent) pairs, so every status is invariant under
    permuting coordinates.  Keying by remaining depth keeps the memoized
    answer equal to the cold-cache answer at the same depth, which is
    what makes census output independent of worker count and call order.
    Entries are never overwritten, so a stronger status is never
    downgraded.  All writers compute identical values for a key, so
    concurrent use is last-write-wins on identical data.
    """

    def __init__(self, budget: Budget | None = None):
        self.budget = budget or Budget()
        self._memo: dict[tuple[Exponents, int], Classification] = {}
        self._decided: dict[Exponents, bool] = {}  # canonical -> implies_rigid

    def __len__(self) -> int:
        return len(self._memo)

    def lookup(self, key: tuple[Exponents, int]) -> Classification | None:
        return self._memo.get(key)

    def store(self, key: tuple[Exponents, int], result: Classification) -> None:
        if result.status is not Status.UNKNOWN:
            self._register(key[0], result.status)
        self._memo.setdefault(key, result)

    def _register(self, canonical: Exponents, status: Status) -> None:
        rigid = status.implies_rigid
        known = self._decided.setdefault(canonical, rigid)
        if known != rigid:
            raise SoundnessError(
                f"contradictory statuses derived for {canonical}: "
                f"{'rigid' if known else 'non-rigid'} and {status.value}"
            )


def classify(exponents, kb: KnowledgeBase | None = None) -> Classification:
    """Classify a tuple (length >= 3, positive entries).

    Deterministic: rules fire in :data:`RULE_PRIORITY` order and the
    first match wins; UNKNOWN is returned when nothing fires within the
    budget.
    """
    entries = tp.as_exponents(exponents, minimum_length=3)
    if kb is None:
        kb = KnowledgeBase()
    return _decide(entries, kb.budget.max_depth, kb)


def _decide(entries: Exponents, depth: int, kb: KnowledgeBase) -> Classification:
    key = (tuple(sorted(entries)), depth)
    cached = kb.lookup(key)
    if cached is not None:
        if cached.certificate is None or cached.certificate.exponents == entries:
            return cached
        # Same canonical tuple, different coordinate order: rebuild the
        # certificate for this order (children resolve via the memo) so
        # that certificates always root at the tuple as classified.
        result = _run_cascade(entries, depth, kb)
        if result.status is not cached.status:  # pragma: no cover - permutation invariance
            raise SoundnessError(
                f"status for {entries} changed under reordering: "
                f"{cached.status.value} vs {result.status.value}"
            )
        return result
    result = _run_cascade(entries, depth, kb)
    kb.store(key, result)
    return result


def _run_cascade(entries: Exponents, depth: int, kb: KnowledgeBase) -> Classification:
    certificate = _first_leaf(entries, LEAF_RULES)
    if certificate is None and depth > 0:
        certificate = _recursive_subtuples(entries, depth, kb) or _descend(entries, depth, kb)
    if certificate is None:
        return Classification(Status.UNKNOWN, None, _recursion_available(entries))
    _assert_sound(entries, certificate)
    return Classification(certificate.status, certificate)


def _assert_sound(entries: Exponents, certificate: Certificate) -> None:
    # Mutual exclusion of the two status families: a non-rigid verdict can
    # only come from the candidate-set test, and every rigid-family rule
    # implies membership in the candidate set.
    if certificate.status is Status.NON_RIGID:
        if certificate.rule is not RuleId.NOT_IN_TN:
            raise SoundnessError(
                f"rule {certificate.rule.value} may not derive NON_RIGID for {entries}"
            )
    elif not tp.in_tn(entries):
        raise SoundnessError(
            f"rule {certificate.rule.value} derived a rigid status for {entries}, "
            "which fails the necessary candidate condition"
        )


def _recursion_available(entries: Exponents) -> bool:
    # The recursive rules act on lcm-critical coordinates, so they have
    # candidates exactly when one exists.
    return bool(tp.lcm_critical_indices(entries))


def _identity(entries: Exponents) -> tuple[int, ...]:
    return tp.identity_permutation(len(entries))


def _replace(entries: Exponents, index: int, value: int) -> Exponents:
    return entries[: index - 1] + (value,) + entries[index:]


# --- non-recursive rules ----------------------------------------------------


def _first_leaf(entries: Exponents, rules: tuple[LeafRule, ...]) -> Certificate | None:
    """First rule in ``rules`` whose side condition holds.  A permuted rule
    is tried, after the :func:`permutable` gate, under every coordinate
    permutation in ``_PERMS4`` order, and the firing one is recorded."""
    gate = permutable(entries)
    for leaf in rules:
        if not leaf.permuted:
            if leaf.holds(entries):
                return Certificate(leaf.rule, entries, leaf.status, _identity(entries))
        elif gate:
            for permutation, permuted in zip(_PERMS4, itertools.permutations(entries)):
                if leaf.holds(permuted):
                    return Certificate(leaf.rule, entries, leaf.status, permutation)
    return None


# --- recursive rules --------------------------------------------------------


def _recursive_subtuples(entries: Exponents, depth: int, kb: KnowledgeBase) -> Certificate | None:
    """Fires when every removal in :func:`recursive_subsets` leaves a rigid
    subtuple."""
    subsets = recursive_subsets(entries)
    if not subsets:
        return None
    children = []
    for subset in subsets:
        result = _decide(tp.subtuple(entries, subset), depth - 1, kb)
        if not result.status.implies_rigid:
            return None
        children.append(result.certificate)
    return Certificate(
        RuleId.RECURSIVE_SUBTUPLES,
        entries,
        Status.RIGID,
        _identity(entries),
        Witness(subsets=subsets),
        tuple(children),
    )


def _descend(entries: Exponents, depth: int, kb: KnowledgeBase) -> Certificate | None:
    """Replaces one critical coordinate by a smaller compatible divisor and
    inherits rigidity from below (one-directional, so only RIGID comes
    back up)."""
    for index in sorted(tp.lcm_critical_indices(entries)):
        value = entries[index - 1]
        floor = tp.coordinate_gcd(entries, index)
        candidates = [d for d in tp.divisors(value) if d != value and d % floor == 0]
        for smaller in candidates[: kb.budget.max_divisor_witnesses]:
            witness_tuple = _replace(entries, index, smaller)
            result = _decide(witness_tuple, depth - 1, kb)
            if result.status.implies_rigid:
                return Certificate(
                    RuleId.DESCEND,
                    entries,
                    Status.RIGID,
                    _identity(entries),
                    Witness(index=index, exponents=witness_tuple),
                    (result.certificate,),
                )
    return None


# --- public standalone rule entry points ------------------------------------


def _leaf_rule(exponents, *rule_ids: RuleId) -> Certificate | None:
    rules = tuple(leaf for leaf in LEAF_RULES if leaf.rule in rule_ids)
    return _first_leaf(tp.as_exponents(exponents, minimum_length=3), rules)


def rule_not_in_tn(exponents) -> Certificate | None:
    return _leaf_rule(exponents, RuleId.NOT_IN_TN)


def rule_n3(exponents) -> Certificate | None:
    """N3_T3 or N3_STABLE, or NOT_IN_TN for a length-3 tuple outside T_n;
    None for other lengths."""
    entries = tp.as_exponents(exponents, minimum_length=3)
    if len(entries) != 3:
        return None
    return _leaf_rule(entries, RuleId.NOT_IN_TN, RuleId.N3_T3, RuleId.N3_STABLE)


def rule_low_sum(exponents) -> Certificate | None:
    return _leaf_rule(exponents, RuleId.LOW_SUM)


def rule_collection(exponents) -> Certificate | None:
    """The length-4 catalogue: the three permuted cases, then COTYPE_GE_2_N4."""
    return _leaf_rule(
        exponents, RuleId.N4_COPRIME, RuleId.N4_THREE_THREES, RuleId.N4_EVEN_GCD, RuleId.COTYPE_GE_2_N4
    )


def rule_equal_exponents(exponents) -> Certificate | None:
    return _leaf_rule(exponents, RuleId.EQUAL_EXPONENTS)


def rule_i_sum(exponents) -> Certificate | None:
    return _leaf_rule(exponents, RuleId.I_SUM)


def rule_cotype_high(exponents) -> Certificate | None:
    return _leaf_rule(exponents, RuleId.COTYPE_GE_NMINUS2)


def rule_recursive_subtuples(exponents, kb: KnowledgeBase | None = None) -> Certificate | None:
    entries = tp.as_exponents(exponents, minimum_length=3)
    kb = kb or KnowledgeBase()
    return _recursive_subtuples(entries, kb.budget.max_depth, kb)


def rule_descend(exponents, kb: KnowledgeBase | None = None) -> Certificate | None:
    entries = tp.as_exponents(exponents, minimum_length=3)
    kb = kb or KnowledgeBase()
    return _descend(entries, kb.budget.max_depth, kb)


# --- derived reporting -------------------------------------------------------


@dataclass(frozen=True)
class KernelBound:
    """Divisor bound on degrees inside kernels of homogeneous derivations.

    ``value`` is the lcm drop over the critical indices whose removal
    leaves a provably rigid subtuple.  When ``undecided`` is nonempty the
    true bound is a multiple of ``value`` (some subtuples stayed
    UNKNOWN, so they could not be counted).
    """

    value: int
    rigid_critical: frozenset[int]
    undecided: frozenset[int]

    @property
    def is_partial(self) -> bool:
        return bool(self.undecided)


def kernel_degree_bound(exponents, kb: KnowledgeBase | None = None) -> KernelBound:
    """Compute the bound for a tuple of length >= 4 by classifying every
    omit-one subtuple at a critical index."""
    entries = tp.as_exponents(exponents, minimum_length=4)
    kb = kb or KnowledgeBase()
    rigid = set()
    undecided = set()
    for index in sorted(tp.lcm_critical_indices(entries)):
        result = _decide(tp.omit(entries, index), kb.budget.max_depth, kb)
        if result.status.implies_rigid:
            rigid.add(index)
        elif result.status is Status.UNKNOWN:
            undecided.add(index)
    return KernelBound(
        value=tp.lcm_drop(entries, rigid),
        rigid_critical=frozenset(rigid),
        undecided=frozenset(undecided),
    )
