"""Rigidity classifier for exponent tuples.

A fixed catalogue of arithmetic rules is tried in a fixed priority order.
The cheap purely-arithmetic rules run first: the cascade walks the
leaf-rule table :data:`~brieskorn.certificates.LEAF_RULES`, whose
predicates replay also evaluates.  Then come the recursive search rules
(subtuple recursion and descending along the coordinate divisor order).
Each search node builds one :class:`~brieskorn.tuples.Facts` record that
the leaf rules, the soundness check and both recursive rules share; the
root node takes the caller's record when :func:`classify` is given one,
so a census row and its search read the same record, and a DESCEND
witness child's record takes its parent's kernel result (below).
The search is budgeted (recursion depth and divisor witnesses per
coordinate) and every answer is a pure function of the tuple and the
budget: warm and cold caches, any call order, and any number of census
workers all produce identical results.

The memo is keyed on the sorted tuple.  A search is *cut* when some
node it explored (itself or through a memo hit) sat at depth 0 with no
leaf rule firing while it still had lcm-critical indices, i.e. the depth
limit stopped the recursive rules.  Every candidate list is independent
of the depth: the leaf rules, :func:`~brieskorn.certificates.recursive_subsets`
and DESCEND's capped witnesses.  So a search at a greater depth tries the
same candidates as one at a smaller depth, and a rigid verdict at some
depth stays rigid at every greater one.  Two depth rules follow:

* an uncut search of height h (the height of its explored tree, 0 when
  a leaf rule decided it) explores the same tree at every depth >= h, so
  its answer and certificate are stored once with h and serve every such
  depth;
* an UNKNOWN answer at depth d is UNKNOWN at every depth d' <= d, and
  the search there is cut (were it uncut at d', it would be the same
  uncut search at d).  So one UNKNOWN entry per sorted tuple, with the
  greatest depth it is known at, answers every lower depth as cut.

A cut search that decides is not held: a revisit searches it again,
and its children come from the memo.  This is the transposition-table
rule of recording the depth an entry was searched to (T. A. Marsland,
"A Review of Game-Tree Pruning", ICCA Journal 9(1), 1986), applied to an
exact search, so no answer depends on which table served it.

DESCEND's witnesses at a critical index i of a tuple at depth D are
f * k, with f = gcd(a_i, O_i) the floor of i, O_i the lcm of the other
entries, and k running over the smallest divisors of a_i / f in
ascending order.  A witness child reached at f * k answers index i from
its parent's loop instead of asking the memo again (the *sibling rule*):

* its floor at i is again f: gcd(a_i / f, O_i / f) = 1 and k divides
  a_i / f, so gcd(f * k, O_i) = f;
* so its witnesses at i are f * k' for the proper divisors k' of k
  (fewer than the cap), which are exactly the parent's earlier witnesses
  that divide k, in the same coordinate order;
* the parent found each of them non-rigid at depth D - 1, so each is
  non-rigid at D - 2, and the memo serves it there with the height h it
  had at D - 1 when h <= D - 2, and as cut (None) otherwise: an uncut
  height is at most the depth, so h = D - 1 is cut at D - 2.

So the child's loop at i would record those heights and move on, and
the parent hands it their greatest instead (D - 1 standing for a cut
one).  The parent keeps, for each k, the greatest over k and its
divisors, so a child's fold is the greatest over k / p for the primes p
dividing k: a few steps per witness, not one per earlier sibling.  No
answer, certificate, cut bit or memo entry changes; the skipped
lookups would all have been hits.

A witness child C, the parent P with a_i replaced by w = f * k, needs no
kernel pass of its own (the *witness-record rule*): C has exactly P's
coordinate gcds.  Prime by prime, with m the largest exponent of p among
the entries other than a_i: if v_p(a_i) <= m, p does not divide a_i / f,
so v_p(w) = v_p(a_i); otherwise v_p(w) >= v_p(f) = m.  Either way no
min(v_p(a_j), max of v_p over the other entries) changes, for any index
j.  So C's lcm-critical indices are P's, less i exactly when k = 1
(w = f), and C's record is built from P's floors and that tuple, only
once the memo has missed on C.

When the search reaches C from P's cascade, every leaf rule has failed on
P, and C's cascade walks only :data:`_WITNESS_LEAF_RULES`: NOT_IN_TN and
EQUAL_EXPONENTS, in ``LEAF_RULES`` order.  P failed NOT_IN_TN, so it is
in T_n, and N3_T3 or N3_STABLE holds on every length-3 tuple in T_n, so
n >= 4.  The other nine rules cannot newly hold on C:

* N3_T3 and N3_STABLE: C has P's length n >= 4;
* LOW_SUM: w < a_i, so C's reciprocal sum exceeds P's, which exceeds
  1/(n-2);
* N4_COPRIME: gcd(a*b*c, d) = 1 exactly when d's coordinate gcd is 1;
  for n = 4 P passed the rule's gate, so no coordinate gcd of P is 1,
  and C has P's;
* COTYPE_GE_2_N4 and COTYPE_GE_NMINUS2: P is in T_n with n >= 4, so its
  cotype is below both bounds, and C's cotype is at most P's;
* I_SUM: i is critical in P, so C's lcm-stable indices include P's with
  the same entries there, and C's stable reciprocal sum is at least P's,
  which is at least 1/(n-2);
* N4_THREE_THREES (n = 4): P has no three 3s, so C's three 3s force
  w = 3 and P = {3, 3, x, a_i} with 3 | a_i.  P's cotype is at most 1,
  so x is not critical and divides a_i.  Then f = gcd(a_i, lcm(3, x)) =
  lcm(3, x), and f divides w = 3, so x is 1 (P is outside T_n) or 3 (P
  has three 3s);
* N4_EVEN_GCD (n = 4), under the permutation that C satisfies: if w is
  in slot a, then w = 2 and slot d's floor is 2 in C, so also in P.  So
  d >= 3 is critical in P besides i, and COTYPE_GE_2_N4 held on P.  If
  w is in slot b, c or d, P meets every clause under the same
  permutation: a_i > w >= 3, a_i is even when w is, w | a_i so the gcds
  can only grow, and the last clause is slot d's floor, which P and C
  share.

A pruned cascade that fails is a full one that fails, so the rule holds
on C's own witness children.  :func:`rule_descend` never ran its tuple's
cascade, so its witness children walk every leaf rule, and take only the
kernel result.  Replay checks every node in full.

The recursion is bounded by the tuple itself.  Each recursive step either
shortens the tuple (RECURSIVE_SUBTUPLES removes at least one entry and
keeps at least three) or replaces an entry by a proper divisor (DESCEND).
So the potential n + sum(Omega(a_i)), with Omega(a) the number of prime
factors of a counted with multiplicity, strictly falls at each step and
never drops below 3.  A search at that depth is therefore never cut, and
its height is at most n + sum(Omega(a_i)) - 3.

``UNKNOWN`` is a first-class answer, not an error: it means no
implemented criterion decides the tuple within the budget.  Known open
cases (such as (2,3,3,4)) must stay UNKNOWN.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from operator import itemgetter
from typing import NamedTuple

from . import tuples as tp
from .certificates import (
    LEAF_RULES,
    PERMS4,
    Certificate,
    LeafRule,
    RuleId,
    Status,
    Witness,
    _ints,
    permutable,
    recursive_subsets,
)
from .errors import InputError, SoundnessError
from .tuples import Exponents, Facts

#: Firing order of the rule catalogue (first match wins).
RULE_PRIORITY = tuple(leaf.rule for leaf in LEAF_RULES) + (RuleId.RECURSIVE_SUBTUPLES, RuleId.DESCEND)

#: The leaf rules a DESCEND witness child can satisfy when its parent has
#: failed every leaf rule (the witness-record rule in the module docstring).
_WITNESS_LEAF_RULES = tuple(
    leaf
    for leaf in LEAF_RULES
    if leaf.rule in (RuleId.NOT_IN_TN, RuleId.EQUAL_EXPONENTS)
)

# What a search node that no DESCEND parent reached inherits (see _descend):
# no index (indices start at 1), no kernel result, and every leaf rule.
_NO_PARENT = (0, -1, None, LEAF_RULES)

# Reorders a length-4 tuple by a permutation, as tp.apply_permutation does.
_REORDER = {permutation: itemgetter(*(i - 1 for i in permutation)) for permutation in PERMS4}


def _require_int(what: str, value) -> None:
    """InputError naming ``what`` unless ``value`` is an int and not a bool,
    the type rule of the certificate parser."""
    if not _ints((value,)):
        raise InputError(f"{what} must be an integer, got {value!r}")


class _Record:
    """Base of the records that validate their fields on construction.

    A subclass names its fields in ``__slots__``, in the order of its
    ``__init__`` parameters, and sets each once through ``_set``; it
    checks the type of each field before its value, ``_check_ints`` for
    the integer ones, so that a wrong type is an InputError naming the
    field.  The record is then immutable, equal to a record of its own type with equal
    fields (never to a plain tuple), hashed as the tuple of its fields,
    shown as ``Name(field=value, ...)``, and pickled through its
    constructor, so an unpickled record is validated again.
    """

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def _check_ints(self, *names: str) -> None:
        for name in names:
            _require_int(f"{type(self).__name__}.{name}", getattr(self, name))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Budget(_Record):
    """Search limits for the recursive rules."""

    __slots__ = ("max_depth", "max_divisor_witnesses")

    def __init__(self, max_depth: int = 6, max_divisor_witnesses: int = 32):
        self._set(max_depth=max_depth, max_divisor_witnesses=max_divisor_witnesses)
        self._check_ints(*self.__slots__)
        if max_depth < 0 or max_divisor_witnesses < 1:
            raise InputError(f"invalid budget {self!r}")


class Classification(NamedTuple):
    """Outcome of classifying one tuple.

    ``certificate`` is None exactly when the status is UNKNOWN.
    ``budget_hit`` is set on an UNKNOWN answer exactly when the tuple has
    an lcm-critical index, i.e. when the recursive rules had candidates
    to try; it does not record whether a budget cap actually cut them.
    """

    status: Status
    certificate: Certificate | None
    budget_hit: bool = False


#: The budget of every KnowledgeBase built without one (a Budget is
#: immutable, so one instance serves them all).
_DEFAULT_BUDGET = Budget()

#: A memo entry: an answer and the height of the search that found it,
#: None when that search was cut.
Entry = tuple[Classification, "int | None"]


class KnowledgeBase:
    """Two memo tables keyed by the sorted tuple, plus budget.

    Sorting the key is valid because the defining polynomial is symmetric
    in the (variable, exponent) pairs, so every status is invariant under
    permuting coordinates.  By the depth rules in the module docstring a
    memoized answer equals the cold-cache answer at the requested depth,
    which makes census output independent of worker count and call order.
    A cut search that decides is not held, only checked against
    contradictory statuses.  A decided entry is never overwritten, and
    all writers compute identical values for a key.
    """

    def __init__(self, budget: Budget | None = None):
        if budget is None:
            budget = _DEFAULT_BUDGET
        elif not isinstance(budget, Budget):
            raise InputError(f"KnowledgeBase.budget must be a Budget, got {budget!r}")
        self.budget = budget
        self._saturated: dict[Exponents, Entry] = {}  # canonical -> (answer, height)
        self._unknown: dict[Exponents, tuple[Entry, int]] = {}  # canonical -> ((answer, None), depth)
        self._decided: dict[Exponents, bool] = {}  # canonical -> implies_rigid

    def __len__(self) -> int:
        return len(self._saturated) + len(self._unknown)

    def lookup(self, canonical: Exponents, depth: int) -> Entry | None:
        entry = self._saturated.get(canonical)
        if entry is not None:
            if entry[1] <= depth:
                return entry
            if entry[0].status is Status.UNKNOWN:
                return entry[0], None
        unknown = self._unknown.get(canonical)
        if unknown is not None and depth <= unknown[1]:
            return unknown[0]
        return None

    def store(self, canonical: Exponents, depth: int, entry: Entry) -> None:
        result, height = entry
        if result.status is not Status.UNKNOWN:
            self._register(canonical, result.status)
        if height is not None:
            self._saturated.setdefault(canonical, entry)
        elif result.status is Status.UNKNOWN:
            # stored after a lookup missed, so depth exceeds any depth held
            self._unknown[canonical] = entry, depth

    def _register(self, canonical: Exponents, status: Status) -> None:
        rigid = status.implies_rigid
        known = self._decided.setdefault(canonical, rigid)
        if known != rigid:
            raise SoundnessError(
                f"contradictory statuses derived for {canonical}: "
                f"{'rigid' if known else 'non-rigid'} and {status.value}"
            )


def classify(exponents, kb: KnowledgeBase | None = None, *, facts: Facts | None = None) -> Classification:
    """Classify a tuple (length >= 3, positive entries).

    Deterministic: rules fire in :data:`RULE_PRIORITY` order and the
    first match wins; UNKNOWN is returned when nothing fires within the
    budget.  ``facts``, when given, is the tuple's
    :class:`~brieskorn.tuples.Facts` record, which the root search node
    then reads instead of building its own (a census row reads it too).
    """
    entries = tp.as_exponents(exponents, minimum_length=3)
    if facts is not None:
        tp._facts_of(entries, facts)  # a check: on a memo hit no record is needed
    return _classify_valid(entries, KnowledgeBase() if kb is None else kb, facts)


def _classify_valid(entries: Exponents, kb: KnowledgeBase, facts: Facts | None = None) -> Classification:
    """:func:`classify` without its checks, for ``entries`` already validated
    (by the census spec or ``proj_classes``) and their own ``facts``."""
    return _decide(entries, kb.budget.max_depth, kb, facts)[0]


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, process state, for the ``with``
    block; then restore the caller's setting, also when the block raises."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        (gc.enable if enabled else gc.disable)()


def _decide(
    entries: Exponents,
    depth: int,
    kb: KnowledgeBase,
    facts: Facts | None = None,
    inherited: tuple = _NO_PARENT,
) -> Entry:
    canonical = tuple(sorted(entries))
    entry = kb.lookup(canonical, depth)
    if entry is not None:
        cached = entry[0]
        if cached.certificate is None or cached.certificate.exponents == entries:
            return entry
    # A miss is searched.  So is a hit on the same canonical tuple in another
    # coordinate order: its certificate is rebuilt for this order (children
    # resolve via the memo), so that certificates always root at the tuple
    # as classified.
    searched = _run_cascade(Facts(entries, inherited[2]) if facts is None else facts, depth, kb, inherited)
    if entry is None:
        kb.store(canonical, depth, searched)
    elif searched[0].status is not cached.status:  # pragma: no cover - permutation invariance
        raise SoundnessError(
            f"status for {entries} changed under reordering: "
            f"{cached.status.value} vs {searched[0].status.value}"
        )
    return searched


def _run_cascade(facts: Facts, depth: int, kb: KnowledgeBase, inherited: tuple) -> Entry:
    certificate = _first_leaf(facts, inherited[3])
    height: int | None = 0
    if certificate is None:
        if not facts.critical:  # the recursive rules act on lcm-critical indices
            return Classification(Status.UNKNOWN, None, False), 0
        if depth <= 0:  # the depth limit cuts the search here
            return Classification(Status.UNKNOWN, None, True), None
        heights: list[int | None] = []
        certificate = _recursive_subtuples(facts, depth, kb, heights) or _descend(
            facts, depth, kb, heights, inherited, _WITNESS_LEAF_RULES
        )
        height = None if None in heights else max(heights, default=-1) + 1
        if certificate is None:
            return Classification(Status.UNKNOWN, None, True), height
    _assert_sound(facts, certificate)
    return Classification(certificate.status, certificate), height


def _assert_sound(facts: Facts, certificate: Certificate) -> None:
    # Mutual exclusion of the two status families: a non-rigid verdict can
    # only come from the candidate-set test, and every rigid-family rule
    # implies membership in the candidate set.
    if certificate.status is Status.NON_RIGID:
        if certificate.rule is not RuleId.NOT_IN_TN:
            raise SoundnessError(
                f"rule {certificate.rule.value} may not derive NON_RIGID for {facts.entries}"
            )
    elif not facts.in_tn:
        raise SoundnessError(
            f"rule {certificate.rule.value} derived a rigid status for {facts.entries}, "
            "which fails the necessary candidate condition"
        )


# --- non-recursive rules ----------------------------------------------------


def _first_leaf(facts: Facts, rules: tuple[LeafRule, ...]) -> Certificate | None:
    """First rule in ``rules`` whose side condition holds.  A permuted rule
    is tried, after the :func:`permutable` gate, under each of its
    candidate permutations in turn, and the first that satisfies it is
    recorded: the first in ``PERMS4`` order, as a scan of all 24 would
    find."""
    entries = facts.entries
    gate = permutable(facts)
    for leaf in rules:
        if leaf.candidates is None:
            if leaf.holds(facts):
                return Certificate(leaf.rule, entries, leaf.status, tp.identity_permutation(facts.n))
        elif gate:
            for permutation in leaf.candidates(facts):
                if leaf.holds(_REORDER[permutation](entries)):
                    return Certificate(leaf.rule, entries, leaf.status, permutation)
    return None


# --- recursive rules --------------------------------------------------------


def _recursive_subtuples(
    facts: Facts, depth: int, kb: KnowledgeBase, heights: list[int | None]
) -> Certificate | None:
    """Fires when every removal in :func:`recursive_subsets` leaves a rigid
    subtuple.  The search height of each child visited goes to ``heights``."""
    subsets = recursive_subsets(facts)
    if not subsets:
        return None
    entries = facts.entries
    children = []
    for subset in subsets:
        result, height = _decide(tp.subtuple(entries, subset), depth - 1, kb)
        heights.append(height)
        if not result.status.implies_rigid:
            return None
        children.append(result.certificate)
    return Certificate(
        RuleId.RECURSIVE_SUBTUPLES,
        entries,
        Status.RIGID,
        tp.identity_permutation(facts.n),
        Witness(subsets=subsets),
        tuple(children),
    )


def _descend(
    facts: Facts,
    depth: int,
    kb: KnowledgeBase,
    heights: list[int | None],
    inherited: tuple = _NO_PARENT,
    child_rules: tuple[LeafRule, ...] = LEAF_RULES,
) -> Certificate | None:
    """Replaces one critical coordinate by a smaller compatible divisor and
    inherits rigidity from below (one-directional, so only RIGID comes
    back up).  The search height of each witness visited goes to ``heights``.

    ``inherited`` is what a witness child gets: the index it was reached at,
    the greatest height of its siblings as its parent folded them (the
    sibling rule in the module docstring), the child's ``(floors,
    critical)`` and the leaf rules its cascade walks (the witness-record
    rule).  That index's witnesses are not visited again; their folded
    height goes to ``heights`` instead.  ``child_rules`` are the leaf rules
    this node's witness children walk: all of them unless this node's own
    cascade failed."""
    entries, floors, critical = facts.entries, facts.floors, facts.critical
    kept = floors, critical
    cap = kb.budget.max_divisor_witnesses
    for position, index in enumerate(critical):
        if inherited[0] == index:
            height = inherited[1]
            heights.append(height if height < depth else None)
            continue
        value = entries[index - 1]
        floor = floors[index - 1]
        # The children's kernel results (the witness-record rule): index is
        # critical in each but the one at floor itself.
        dropped = floors, critical[:position] + critical[position + 1 :]
        # The witnesses are the proper divisors of the entry that floor
        # divides, the smallest max_divisor_witnesses of them: floor times
        # each divisor of value // floor but the last.  They come in
        # ascending order, so the divisors of each k come before it, and
        # a k that no prime seen so far divides is itself a prime.
        # folded[k] is the greatest height found at depth - 1 among the
        # witnesses floor * k' with k' dividing k, depth - 1 standing for a
        # cut one; a child reached at k inherits the greatest folded[k // p]
        # over the primes p dividing k (the sibling rule).
        folded: dict[int, int] = {}
        primes: list[int] = []
        for k in tp.divisors(value // floor, cap + 1)[:-1]:
            below = [folded[k // p] for p in primes if not k % p]
            if not below and k > 1:
                primes.append(k)
                below.append(folded[1])
            siblings = max(below, default=-1)
            witness_tuple = entries[: index - 1] + (floor * k,) + entries[index:]
            result, height = _decide(
                witness_tuple, depth - 1, kb, None, (index, siblings, kept if k > 1 else dropped, child_rules)
            )
            heights.append(height)
            if result.status.implies_rigid:
                return Certificate(
                    RuleId.DESCEND,
                    entries,
                    Status.RIGID,
                    tp.identity_permutation(facts.n),
                    Witness(index=index, exponents=witness_tuple),
                    (result.certificate,),
                )
            folded[k] = max(siblings, depth - 1 if height is None else height)
    return None


# --- public standalone rule entry points ------------------------------------


def _leaf_rule(exponents, *rule_ids: RuleId) -> Certificate | None:
    rules = tuple(leaf for leaf in LEAF_RULES if leaf.rule in rule_ids)
    return _first_leaf(Facts(tp.as_exponents(exponents, minimum_length=3)), rules)


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
    facts = Facts(tp.as_exponents(exponents, minimum_length=3))
    kb = KnowledgeBase() if kb is None else kb
    return _recursive_subtuples(facts, kb.budget.max_depth, kb, [])


def rule_descend(exponents, kb: KnowledgeBase | None = None) -> Certificate | None:
    """DESCEND on its own.  Its witness children walk every leaf rule: the
    tuple's own cascade never ran, so the pruned cascade of the search does
    not apply.  Pruned, (2, 3, 4, 8) and (2, 3, 5, 8) would lose their
    certificates, whose children (2, 3, 4, 4) and (2, 3, 5, 4) N4_COPRIME
    decides.  The children still take the tuple's kernel result."""
    facts = Facts(tp.as_exponents(exponents, minimum_length=3))
    kb = KnowledgeBase() if kb is None else kb
    return _descend(facts, kb.budget.max_depth, kb, [])


# --- derived reporting -------------------------------------------------------


class KernelBound(NamedTuple):
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


def kernel_degree_bound(
    exponents, kb: KnowledgeBase | None = None, *, facts: Facts | None = None
) -> KernelBound:
    """Compute the bound for a tuple of length >= 4 by classifying every
    omit-one subtuple at a critical index.  ``facts``, when given, is the
    tuple's :class:`~brieskorn.tuples.Facts` record."""
    entries = tp.as_exponents(exponents, minimum_length=4)
    kb = KnowledgeBase() if kb is None else kb
    facts = tp._facts_of(entries, facts)
    rigid = set()
    undecided = set()
    for index in facts.critical:
        result = _decide(tp.omit(entries, index), kb.budget.max_depth, kb)[0]
        if result.status.implies_rigid:
            rigid.add(index)
        elif result.status is Status.UNKNOWN:
            undecided.add(index)
    return KernelBound(
        value=tp._drop(entries, facts.floors, rigid),
        rigid_critical=frozenset(rigid),
        undecided=frozenset(undecided),
    )
