"""Rigidity classifier for exponent tuples.

A fixed catalogue of arithmetic rules is tried in a fixed priority order.
The cheap purely-arithmetic rules run first: the cascade walks the
leaf-rule table :data:`~brieskorn.certificates.LEAF_RULES`, whose
predicates replay also evaluates.  Then come the recursive search rules
(subtuple recursion and descending along the coordinate divisor order).
One function, :func:`_decide`, runs every search node: the memo lookup,
the leaf cascade, both recursive rules, the soundness checks and the
store, so each level of recursion takes two stack frames, it and the
recursive rule that reached the node.
Each search node reads one record that the leaf rules, the soundness
check and both recursive rules share.  A node is handed its record or
builds a :class:`~brieskorn.tuples.Facts` record from the tuple: a census
row hands its record to the root node, so the row and its search read the
same record, and DESCEND hands each witness child a record built with the
parent's kernel result (below).
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
  its certificate (None for UNKNOWN) is stored once with h and serves
  every such depth;
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
(w = f), and P hands C a record built from P's floors and that tuple.

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
on C's own witness children.  Only those nine rules read L or sigma, so
C reads a light :class:`_WitnessFacts` record: its entries, n, T_n
membership and P's kernel result.  :func:`rule_descend` never ran its
tuple's cascade, so its witness children walk every leaf rule, and take
a full record built with the kernel result.  Replay checks every node in
full.

A witness child C of a node P, reached at index i, whose own cascade
fails and whose lcm-critical indices are exactly (i), is a leaf of the
search (the *leaf-witness lemma*).  RECURSIVE_SUBTUPLES removes subsets
of size min(#critical - 1, n - 3) of the critical indices, so it needs
two, and C's DESCEND tries only i, which the sibling rule answers from
P's fold.  So C is UNKNOWN, and its height has a closed form: with s
the folded sibling height (s >= 0, as the fold holds the witness at
k = 1) and D - 1 the depth of C, s + 1 when s < D - 1, and cut when not.
By the witness-record rule C's critical indices are P's when k > 1, so
the lemma holds at every length on the witnesses of a P with one
critical index, when P's cascade failed.  No such witness at k > 1 is
rigid (the *k = 1 lemma*): the pruned cascade makes C rigid only through
EQUAL_EXPONENTS, so every other entry equals w, O_i = w, and f =
gcd(a_i, w) = w, as w divides a_i; so k = 1.  Both lemmas live in
:func:`_descend`, which scores each such witness at k > 1 in its own
loop, with no record, cascade or :func:`_decide` call: NON_RIGID
(NOT_IN_TN) outside T_n, else UNKNOWN at the closed-form height.  It asks
the memo and stores the entry as a search node would, and a hit that
disagrees raises SoundnessError, so the memo is the same.  Only the
witness at k = 1, which has no critical index left, is searched.  A
witness of :func:`rule_descend` that meets the leaf-witness lemma takes
the general path, whose DESCEND reads the fold at i: the same height.
A length-4 P whose cascade failed always has exactly one critical index:
it is in T_n, its cotype is at most 1 since COTYPE_GE_2_N4 failed, and
the recursive rules run only on a node with a critical index.  So a
length-4 DESCEND searches one witness per index, and as leaf rules run
before the depth test, a length-4 answer is the same at every depth of 1
or more; only the heights depend on it.  On perfbench's seed-7
classify-cold stream (3,000 length-4 tuples, a cold memo each) the
search makes 7,036 memo lookups and 7,036 stores; 3,790 of them are
witnesses scored in the loop, so :func:`_decide` runs 3,246 times, and
246 nodes enter a recursive rule.

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
    permutable,
    recursive_subsets,
)
from .errors import InputError, SoundnessError
from .tuples import Exponents, Facts, _ints

#: Firing order of the rule catalogue (first match wins).
RULE_PRIORITY = tuple(leaf.rule for leaf in LEAF_RULES) + (RuleId.RECURSIVE_SUBTUPLES, RuleId.DESCEND)

#: The leaf rules a DESCEND witness child can satisfy when its parent has
#: failed every leaf rule (the witness-record rule in the module docstring).
_WITNESS_LEAF_RULES = tuple(
    leaf
    for leaf in LEAF_RULES
    if leaf.rule in (RuleId.NOT_IN_TN, RuleId.EQUAL_EXPONENTS)
)


class _WitnessFacts(NamedTuple):
    """The record of a DESCEND witness child of a node whose cascade failed,
    at any length: what its pruned cascade, both recursive rules and the
    soundness check read, with its parent's kernel result (the
    witness-record rule) and no L, sigma or kernel pass."""

    entries: Exponents
    n: int
    in_tn: bool
    floors: Exponents
    critical: tuple[int, ...]


# What a search node that no DESCEND parent reached inherits (see _descend):
# no index (indices start at 1), and every leaf rule.
_NO_PARENT = (0, -1, LEAF_RULES)

# Reorders a length-4 tuple by a permutation, as tp.apply_permutation does.
_REORDER = {permutation: itemgetter(*(i - 1 for i in permutation)) for permutation in PERMS4}


def _require_int(what: str, value) -> None:
    """InputError naming ``what`` unless ``value`` is an int and not a bool,
    the type rule of the certificate parser."""
    if not _ints((value,)):
        raise InputError(f"{what} must be an integer, got {value!r}")


def _require_type(what: str, value, kind: type) -> None:
    """InputError naming ``what`` unless ``value`` is a ``kind``."""
    if not isinstance(value, kind):
        raise InputError(f"{what} must be a {kind.__name__}, got {value!r}")


class _BudgetFields(NamedTuple):
    max_depth: int
    max_divisor_witnesses: int


class Budget(_BudgetFields):
    """Search limits for the recursive rules.  The constructor checks the
    type of each field, then the ranges, and ``_make`` (so ``_replace``) and
    ``__reduce__`` (so ``copy`` and unpickling) build through it."""

    __slots__ = ()

    def __new__(cls, max_depth: int = 6, max_divisor_witnesses: int = 32):
        _require_int("Budget.max_depth", max_depth)
        _require_int("Budget.max_divisor_witnesses", max_divisor_witnesses)
        self = super().__new__(cls, max_depth, max_divisor_witnesses)
        if max_depth < 0 or max_divisor_witnesses < 1:
            raise InputError(f"invalid budget {self!r}")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


class Classification(NamedTuple):
    """Outcome of classifying one tuple, built once per call.

    ``certificate`` is None exactly when the status is UNKNOWN.
    ``budget_hit`` is set on an UNKNOWN answer whose search height is not
    0: exactly when the tuple has an lcm-critical index, so the recursive
    rules had candidates (a budget cap need not have cut them).  Without
    one the search stops at height 0.  With one it is cut (height None) or
    reaches DESCEND at each critical index i, adding a height: a_i / f >= 2
    puts f * 1 among the witnesses, and an inherited index adds a folded
    sibling height >= 0.  A memo hit returns its stored height, or None.
    """

    status: Status
    certificate: Certificate | None
    budget_hit: bool = False


#: The budget of every KnowledgeBase built without one (a Budget is
#: immutable, so one instance serves them all).
_DEFAULT_BUDGET = Budget()

#: A memo entry: the certificate of an answer, None for UNKNOWN, and the
#: height of the search that found it, None when that search was cut.
Entry = tuple["Certificate | None", "int | None"]


class KnowledgeBase:
    """Memo tables of (certificate, height) entries by sorted tuple, plus budget.

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
        _require_type("KnowledgeBase.budget", budget, Budget)
        self.budget = budget
        self._saturated: dict[Exponents, Entry] = {}  # canonical -> (certificate, height)
        self._unknown: dict[Exponents, int] = {}  # canonical -> depth of a cut UNKNOWN
        self._decided: dict[Exponents, bool] = {}  # canonical -> implies_rigid

    def __len__(self) -> int:
        return len(self._saturated) + len(self._unknown)

    def lookup(self, canonical: Exponents, depth: int) -> Entry | None:
        entry = self._saturated.get(canonical)
        if entry is not None:
            if entry[1] <= depth:
                return entry
            if entry[0] is None:
                return None, None
        if depth <= self._unknown.get(canonical, -1):
            return None, None
        return None

    def store(self, canonical: Exponents, depth: int, entry: Entry) -> None:
        certificate, height = entry
        if certificate is not None:
            self._register(canonical, certificate.status)
        if height is not None:
            self._saturated.setdefault(canonical, entry)
        elif certificate is None:
            # stored after a lookup missed, so depth exceeds any depth held
            self._unknown[canonical] = depth

    def _register(self, canonical: Exponents, status: Status) -> None:
        rigid = status.implies_rigid
        known = self._decided.setdefault(canonical, rigid)
        if known != rigid:
            raise SoundnessError(
                f"contradictory statuses derived for {canonical}: "
                f"{'rigid' if known else 'non-rigid'} and {status.value}"
            )


def _memo(kb: KnowledgeBase | None) -> KnowledgeBase:
    """The ``kb`` argument of a public entry point: a fresh memo with the
    default budget when it is None, else a KnowledgeBase (else InputError)."""
    if kb is None:
        return KnowledgeBase()
    _require_type("kb", kb, KnowledgeBase)
    return kb


def classify(exponents, kb: KnowledgeBase | None = None) -> Classification:
    """Classify a tuple (length >= 3, positive entries).

    Deterministic: rules fire in :data:`RULE_PRIORITY` order and the
    first match wins; UNKNOWN is returned when nothing fires within the
    budget.
    """
    entries = tp.as_exponents(exponents, minimum_length=3)
    kb = _memo(kb)
    return _verdict(_decide(entries, kb.budget.max_depth, kb))


def _classify_valid(entries: Exponents, kb: KnowledgeBase, facts: Facts | None = None) -> Classification:
    """:func:`classify` without its checks, for ``entries`` already validated
    (by the census spec, ``proj_classes`` or the CLI).  ``facts``, when
    given, is the record of ``entries`` that the root search node reads
    (a census row, or the CLI's CSV row, reads it too)."""
    return _verdict(_decide(entries, kb.budget.max_depth, kb, facts))


def _verdict(entry: Entry) -> Classification:
    """The classification of a root search node's (certificate, height)
    entry, built after the search returns, so that :func:`classify` stacks
    no frame of its own between it and the root node."""
    certificate, height = entry
    if certificate is None:
        return Classification(Status.UNKNOWN, None, height != 0)
    return Classification(certificate.status, certificate)


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
    facts: Facts | _WitnessFacts | None = None,
    inherited: tuple = _NO_PARENT,
) -> Entry:
    canonical = tuple(sorted(entries))
    entry = kb.lookup(canonical, depth)
    if entry is not None:
        # A hit on the same sorted tuple in another coordinate order is
        # searched again: its certificate is rebuilt for this order (children
        # resolve via the memo), so that certificates always root at the
        # tuple as classified.
        cached = entry[0]
        if cached is None or cached.exponents == entries:
            return entry
    facts = Facts(entries) if facts is None else facts
    certificate = _first_leaf(facts, inherited[2])
    height: int | None = 0
    if certificate is None and facts.critical:  # the recursive rules act on lcm-critical indices
        height = None  # cut here by the depth limit, or below by a cut child
        if depth > 0:
            heights: list[int | None] = []
            certificate = _recursive_subtuples(facts, depth, kb, heights) or _descend(
                facts, depth, kb, heights, inherited, _WITNESS_LEAF_RULES
            )
            if None not in heights:
                height = max(heights, default=-1) + 1
    if certificate is not None:
        # Mutual exclusion of the two status families: a non-rigid verdict
        # can only come from the candidate-set test, and every rigid-family
        # rule implies membership in the candidate set.
        if certificate.status is Status.NON_RIGID:
            if certificate.rule is not RuleId.NOT_IN_TN:
                raise SoundnessError(f"rule {certificate.rule.value} may not derive NON_RIGID for {entries}")
        elif not facts.in_tn:
            raise SoundnessError(
                f"rule {certificate.rule.value} derived a rigid status for {entries}, "
                "which fails the necessary candidate condition"
            )
    found = certificate, height
    if entry is None:
        kb.store(canonical, depth, found)
    elif certificate is None or certificate.status is not entry[0].status:  # pragma: no cover - permutation invariance
        raise SoundnessError(f"status for {entries} changed under reordering from {entry[0].status.value}")
    return found


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
    facts: Facts | _WitnessFacts, depth: int, kb: KnowledgeBase, heights: list[int | None]
) -> Certificate | None:
    """Fires when every removal in :func:`recursive_subsets` leaves a rigid
    subtuple.  The search height of each child visited goes to ``heights``."""
    subsets = recursive_subsets(facts)
    if not subsets:
        return None
    entries = facts.entries
    children = []
    for subset in subsets:
        child, height = _decide(tp.subtuple(entries, subset), depth - 1, kb)
        heights.append(height)
        if child is None or not child.status.implies_rigid:
            return None
        children.append(child)
    return Certificate(
        RuleId.RECURSIVE_SUBTUPLES,
        entries,
        Status.RIGID,
        tp.identity_permutation(facts.n),
        Witness(subsets=subsets),
        tuple(children),
    )


def _descend(
    facts: Facts | _WitnessFacts,
    depth: int,
    kb: KnowledgeBase,
    heights: list[int | None],
    inherited: tuple = _NO_PARENT,
    child_rules: tuple[LeafRule, ...] = LEAF_RULES,
) -> Certificate | None:
    """Replaces one critical coordinate by a smaller compatible divisor and
    inherits rigidity from below (one-directional, so only RIGID comes
    back up).  The search height of each witness visited goes to ``heights``.

    Each witness child is handed its record, built with its kernel result
    (the witness-record rule in the module docstring), and ``inherited``:
    the index it was reached at, the greatest height of its siblings as
    this node folded them (the sibling rule) and the leaf rules its cascade
    walks.  A node's own ``inherited`` index is not visited again; the
    folded height of its witnesses goes to ``heights`` instead.
    ``child_rules`` are the leaf rules this node's witness children walk:
    all of them, on a full record, unless this node's own cascade failed;
    then the pruned cascade, on a :class:`_WitnessFacts` record, and with
    one critical index only the witness at k = 1 is searched: the others
    are scored here (the k = 1 lemma)."""
    entries, floors, critical = facts.entries, facts.floors, facts.critical
    kept = floors, critical
    cap = kb.budget.max_divisor_witnesses
    light = child_rules is _WITNESS_LEAF_RULES
    leaves = light and len(critical) == 1  # every witness but k = 1 is a leaf
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
            if leaves and k > 1:
                # the k = 1 lemma: a leaf, scored here with a search node's memo traffic
                canonical = tuple(sorted(witness_tuple))
                in_tn = tp.in_tn(witness_tuple)
                entry = kb.lookup(canonical, depth - 1)
                if entry is None:
                    if in_tn:
                        entry = None, siblings + 1 if siblings < depth - 1 else None
                    else:
                        permutation = tp.identity_permutation(facts.n)
                        entry = Certificate(RuleId.NOT_IN_TN, witness_tuple, Status.NON_RIGID, permutation), 0
                    kb.store(canonical, depth - 1, entry)
                elif (entry[0] is None) is not in_tn or not in_tn and entry[0].status.implies_rigid:
                    raise SoundnessError(f"memo entry {entry} for {witness_tuple} contradicts the k = 1 lemma")
                child, height = entry
            else:
                kernel = kept if k > 1 else dropped
                if light:
                    record = _WitnessFacts(witness_tuple, facts.n, tp.in_tn(witness_tuple), *kernel)
                else:
                    record = Facts(witness_tuple, kernel)
                child, height = _decide(witness_tuple, depth - 1, kb, record, (index, siblings, child_rules))
            heights.append(height)
            if child is not None and child.status.implies_rigid:
                return Certificate(
                    RuleId.DESCEND,
                    entries,
                    Status.RIGID,
                    tp.identity_permutation(facts.n),
                    Witness(index=index, exponents=witness_tuple),
                    (child,),
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
    kb = _memo(kb)
    return _recursive_subtuples(facts, kb.budget.max_depth, kb, [])


def rule_descend(exponents, kb: KnowledgeBase | None = None) -> Certificate | None:
    """DESCEND on its own.  Its witness children walk every leaf rule: the
    tuple's own cascade never ran, so the pruned cascade of the search does
    not apply.  Pruned, (2, 3, 4, 8) and (2, 3, 5, 8) would lose their
    certificates, whose children (2, 3, 4, 4) and (2, 3, 5, 4) N4_COPRIME
    decides.  The children still take the tuple's kernel result."""
    facts = Facts(tp.as_exponents(exponents, minimum_length=3))
    kb = _memo(kb)
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


def kernel_degree_bound(exponents, kb: KnowledgeBase | None = None) -> KernelBound:
    """Compute the bound for a tuple of length >= 4 by classifying every
    omit-one subtuple at a critical index."""
    entries = tp.as_exponents(exponents, minimum_length=4)
    return _kernel_bound(entries, _memo(kb), Facts(entries))


def _kernel_bound(entries: Exponents, kb: KnowledgeBase, facts: Facts) -> KernelBound:
    """:func:`kernel_degree_bound` without its checks, for validated
    ``entries`` of length >= 4 and their record ``facts``, which the CLI
    shares with the invariant report."""
    rigid = set()
    undecided = set()
    for index in facts.critical:
        certificate = _decide(tp.omit(entries, index), kb.budget.max_depth, kb)[0]
        if certificate is None:
            undecided.add(index)
        elif certificate.status.implies_rigid:
            rigid.add(index)
    return KernelBound(
        value=tp._drop(entries, facts.floors, rigid),
        rigid_critical=frozenset(rigid),
        undecided=frozenset(undecided),
    )
