"""Statuses, rule identifiers, certificate trees, and their replay.

A certificate records, for one classified tuple, which rule fired, the
coordinate permutation the rule was applied under, the witnesses it
used, and sub-certificates for recursive rules.  Replay re-verifies the
arithmetic side condition of every node from scratch, independently of
any memo the classifier used to find the proof.

The side condition of every leaf (non-recursive) rule is declared once,
in :data:`LEAF_RULES`, in integer form; the classifier's cascade walks
that table and replay evaluates the same predicate, so search and replay
cannot disagree about a leaf.  A symmetric rule reads the tuple's
:class:`~brieskorn.tuples.Facts` record, a permuted one the reordered
tuple; the recursive rules share :func:`recursive_subsets`, which reads
the record too.  Records are never written out: replay builds each
node's record again from the tuple on the wire.

Wire format (lossless round trip, stable field names).  The canonical
text comes from one direct renderer in one layout, indented as in the
census sidecar, with keys in sorted order.  The compact text that
:func:`certificate_id` hashes is that text with its whitespace removed,
since no key, rule or status name holds whitespace.  Tests pin both
byte for byte to ``json.dumps(to_dict(), sort_keys=True, ...)``::

    Certificate := {
      "rule":        <RuleId name>,
      "tuple":       [int, ...],            # exponents as classified
      "permutation": [int, ...],            # 1-based; slot k holds entry permutation[k]
      "witness":     Witness | null,
      "children":    [Certificate, ...],
      "status":      <Status name>
    }
    Witness := {
      "index":   int,                       # coordinate the rule acted on
      "tuple":   [int, ...],                # witness tuple
      "subsets": [[int, ...], ...]          # removed index sets, one per child
    }                                       # (absent keys mean "not used")

The parser takes exactly these keys, so a parsed certificate renders back
to the text it was read from: a node has all six, a witness a subset of
its three with no null value, and any other key or a null witness value
raises :class:`CertificateError`, as does a tree nested more than
:data:`MAX_NESTING` levels deep, or too deeply for the JSON decoder.
Every ``int`` above is a plain integer: an ``int`` and never a ``bool``,
which Python counts as one and which would render as ``True``.  Replay
applies the same rule (:func:`~brieskorn.tuples._ints`) to the entries,
the permutation and every witness value, so a certificate built in
memory that replays renders to text that parses back.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
from functools import lru_cache
from math import gcd, lcm
from typing import Any, Callable, Iterable, NamedTuple

from . import tuples as tp
from .errors import CertificateError, InputError
from .tuples import _IDENTITY, Exponents, Facts, _ints


class Status(enum.Enum):
    NON_RIGID = "NON_RIGID"
    RIGID = "RIGID"
    STABLY_RIGID = "STABLY_RIGID"
    UNKNOWN = "UNKNOWN"

    # Members are singletons compared by identity, so the identity hash
    # keeps equality and skips Enum.__hash__, a Python-level call.
    __hash__ = object.__hash__

    def __init__(self, value: str):
        #: Stable rigidity counts as rigidity (a plain attribute: read at every search node).
        self.implies_rigid = value in ("RIGID", "STABLY_RIGID")


class RuleId(enum.Enum):
    NOT_IN_TN = "NOT_IN_TN"
    N3_T3 = "N3_T3"
    N3_STABLE = "N3_STABLE"
    LOW_SUM = "LOW_SUM"
    N4_COPRIME = "N4_COPRIME"
    N4_THREE_THREES = "N4_THREE_THREES"
    N4_EVEN_GCD = "N4_EVEN_GCD"
    COTYPE_GE_2_N4 = "COTYPE_GE_2_N4"
    EQUAL_EXPONENTS = "EQUAL_EXPONENTS"
    I_SUM = "I_SUM"
    COTYPE_GE_NMINUS2 = "COTYPE_GE_NMINUS2"
    RECURSIVE_SUBTUPLES = "RECURSIVE_SUBTUPLES"
    DESCEND = "DESCEND"

    __hash__ = object.__hash__  # as for Status


class Witness(NamedTuple):
    """What a recursive rule acted on (a field left None is not used)."""

    index: int | None = None
    exponents: Exponents | None = None
    subsets: tuple[tuple[int, ...], ...] | None = None

    def to_dict(self) -> dict:
        out: dict[str, Any] = {}
        if self.index is not None:
            out["index"] = self.index
        if self.exponents is not None:
            out["tuple"] = list(self.exponents)
        if self.subsets is not None:
            out["subsets"] = [list(subset) for subset in self.subsets]
        return out


class Certificate(NamedTuple):
    """One node of a certificate tree: the rule that fired on ``exponents``
    under ``permutation``, its witness and its sub-certificates."""

    rule: RuleId
    exponents: Exponents
    status: Status
    permutation: tuple[int, ...]
    witness: Witness | None = None
    children: tuple["Certificate", ...] = ()

    def to_dict(self) -> dict:
        return {
            "rule": self.rule.value,
            "tuple": list(self.exponents),
            "permutation": list(self.permutation),
            "witness": None if self.witness is None else self.witness.to_dict(),
            "children": [child.to_dict() for child in self.children],
            "status": self.status.value,
        }


def _wrap(items: list[str], brackets: str, pad: str, step: str) -> str:
    """A JSON array or object of rendered ``items``, laid out as json.dumps does."""
    if not items:
        return brackets
    inner = "\n" + pad + step
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + pad + brackets[1]


def _render(node: Certificate, step: str, pad: str = "") -> str:
    """The text json.dumps(node.to_dict(), sort_keys=True, indent=len(step))
    gives, with the whole object nested at ``pad``.  Keys are written in
    sorted order; entries are ints, so ``str`` is their JSON.  A leaf (no
    witness, no children) is written as its cached frame around its
    entries.  The cache is keyed by the permutation, and a bool equals the
    int it stands for, so only a permutation of plain ints takes it."""
    if node.witness is None and not node.children and node.exponents and _ints(node.permutation):
        head, tail = _leaf_frame(node.rule, node.status, tuple(node.permutation), step, pad)
        return head + (",\n" + pad + 2 * step).join(map(str, node.exponents)) + tail
    return _render_fields(node, step, pad)


@lru_cache(maxsize=1 << 10)
def _leaf_frame(
    rule: RuleId, status: Status, permutation: tuple[int, ...], step: str, pad: str
) -> tuple[str, str]:
    """The text of a leaf node before and after its entries.  Only they vary
    between the leaves of one rule, status, permutation and layout; the
    frame is cut from a leaf rendered with a placeholder entry, a character
    that no other part of the text holds."""
    placeholder = Certificate(rule, ("\0",), status, permutation)
    head, tail = _render_fields(placeholder, step, pad).split("\0")
    return head, tail


def _render_fields(node: Certificate, step: str, pad: str) -> str:
    """:func:`_render`, written field by field."""
    inner, deeper = pad + step, pad + 2 * step

    def ints(values: Iterable[int], at: str) -> str:
        return _wrap([str(v) for v in values], "[]", at, step)

    witness = node.witness
    if witness is None:
        witness_text = "null"
    else:
        fields = []
        if witness.index is not None:
            fields.append(f'"index": {witness.index}')
        if witness.subsets is not None:
            subsets = [ints(subset, deeper + step) for subset in witness.subsets]
            fields.append('"subsets": ' + _wrap(subsets, "[]", deeper, step))
        if witness.exponents is not None:
            fields.append('"tuple": ' + ints(witness.exponents, deeper))
        witness_text = _wrap(fields, "{}", inner, step)
    children = [_render(child, step, deeper) for child in node.children]
    return _wrap(
        [
            '"children": ' + _wrap(children, "[]", inner, step),
            '"permutation": ' + ints(node.permutation, inner),
            f'"rule": "{node.rule.value}"',
            f'"status": "{node.status.value}"',
            '"tuple": ' + ints(node.exponents, inner),
            '"witness": ' + witness_text,
        ],
        "{}",
        pad,
        step,
    )


def certificate_to_json(certificate: Certificate, *, indent: int | None = None) -> str:
    """Canonical text form; compact with sorted keys unless ``indent`` given.

    The compact text is the indented text with its whitespace removed: no
    key, rule or status name holds whitespace."""
    _need_node(certificate, "root")
    if indent is not None and not _ints((indent,)):
        raise InputError(f"indent must be an integer or None, got {indent!r}")
    text = _render(certificate, " " * (indent or 0))
    return text if indent is not None else "".join(text.split())


def certificate_id(certificate: Certificate, text: str | None = None) -> str:
    """Stable content-derived identifier (used to key census sidecar files):
    a hash of the compact text.  ``text``, when given, is an indented
    rendering of ``certificate`` that the caller already holds."""
    _need_node(certificate, "root")
    if text is not None and not isinstance(text, str):
        raise InputError(f"text must be a str or None, got {type(text).__name__}")
    compact = certificate_to_json(certificate) if text is None else "".join(text.split())
    return hashlib.sha256(compact.encode("utf-8")).hexdigest()[:12]


def _int_list(raw: Any, what: str, path: str) -> tuple[int, ...]:
    if not isinstance(raw, list) or not _ints(raw):
        raise CertificateError(f"{what} must be a list of integers, got {raw!r}", path)
    return tuple(raw)


_NODE_KEYS = frozenset({"rule", "tuple", "permutation", "witness", "children", "status"})
_WITNESS_KEYS = frozenset({"index", "tuple", "subsets"})


#: The deepest nesting the parser accepts: children at most this many
#: levels below the root.  The recursive renderer and replay take two or
#: three stack frames per level, so every tree the parser accepts renders
#: back and replays within the interpreter's default recursion limit.
MAX_NESTING = 200


def certificate_from_dict(raw: Any, path: str = "root") -> Certificate:
    """Parse one node and its children; the key sets must be exact, and
    the tree at most :data:`MAX_NESTING` levels deep."""
    try:
        return _node_from_dict(raw, path, MAX_NESTING)
    except RecursionError:
        raise CertificateError("certificate nested too deeply", path) from None


# Wire names to members, and each member to itself, as RuleId(...) and
# Status(...) take them.
_RULES = {key: rule for rule in RuleId for key in (rule.value, rule)}
_STATUSES = {key: status for status in Status for key in (status.value, status)}


def _node_from_dict(raw: Any, path: str, levels: int) -> Certificate:
    """One node, whose children may nest ``levels`` more levels; deeper
    nesting raises RecursionError, as the interpreter's stack would."""
    if not isinstance(raw, dict):
        raise CertificateError(f"certificate node must be an object, got {type(raw).__name__}", path)
    if raw.keys() != _NODE_KEYS:
        missing = _NODE_KEYS - raw.keys()
        if missing:
            raise CertificateError(f"missing fields: {sorted(missing)}", path)
        raise CertificateError(f"unknown fields: {sorted(raw.keys() - _NODE_KEYS, key=str)}", path)
    try:  # an unhashable name raises TypeError
        rule = _RULES[raw["rule"]]
    except (KeyError, TypeError):
        raise CertificateError(f"unknown rule {raw['rule']!r}", path) from None
    try:
        status = _STATUSES[raw["status"]]
    except (KeyError, TypeError):
        raise CertificateError(f"unknown status {raw['status']!r}", path) from None
    exponents = _int_list(raw["tuple"], "tuple", path)
    permutation = _int_list(raw["permutation"], "permutation", path)
    witness = None
    if raw["witness"] is not None:
        w = raw["witness"]
        if not isinstance(w, dict):
            raise CertificateError("witness must be an object or null", path)
        if not w.keys() <= _WITNESS_KEYS:
            unknown = sorted(w.keys() - _WITNESS_KEYS, key=str)
            raise CertificateError(f"unknown witness fields: {unknown}", path)
        # An unused field is absent; a present one must hold a value, since
        # a null would parse as absent and not render back.
        subsets = None
        if "subsets" in w:
            if not isinstance(w["subsets"], list):
                raise CertificateError("witness subsets must be a list of lists", path)
            subsets = tuple([_int_list(part, "witness subset", path) for part in w["subsets"]])
        index = w.get("index")
        if "index" in w and not _ints((index,)):
            raise CertificateError("witness index must be an integer", path)
        witness = Witness(
            index=index,
            exponents=_int_list(w["tuple"], "witness tuple", path) if "tuple" in w else None,
            subsets=subsets,
        )
    children = raw["children"]
    if not isinstance(children, list):
        raise CertificateError("children must be a list", path)
    nodes = ()
    if children:
        if not levels:
            raise RecursionError
        nodes = tuple([
            _node_from_dict(child, f"{path}.children[{k}]", levels - 1) for k, child in enumerate(children)
        ])
    # tuple.__new__ skips the named tuple's __new__, a Python-level call
    return tuple.__new__(Certificate, (rule, exponents, status, permutation, witness, nodes))


def certificate_from_json(text: str) -> Certificate:
    import json

    if not isinstance(text, (str, bytes, bytearray)):
        raise CertificateError(f"certificate text must be a str, bytes or bytearray, got {type(text).__name__}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise CertificateError("certificate nested too deeply") from None
    return certificate_from_dict(raw)


# --- leaf rules -----------------------------------------------------------
#
# Each non-recursive rule's side condition is declared once, here; the
# classifier's cascade and replay both evaluate it.  Reciprocal sums are
# compared in integer form: with L = lcm(S), sum(1/a_i) <= 1/k becomes
# k * sum(L/a_i) <= L.


def _even_gcd(p: Exponents) -> bool:
    a, b, c, d = p
    return a == 2 and min(b, c, d) >= 3 and b % 2 == 0 and gcd(b, c) >= 3 and gcd(d, lcm(b, c)) == 2


def permutable(facts: Facts) -> bool:
    """The gate of the permuted rules: length 4 and in T_n."""
    return facts.n == 4 and facts.in_tn


#: The permutations of four slots in lexicographic order, the order in
#: which the classifier tries a permuted rule: it records the first under
#: which the rule holds.
PERMS4 = tuple(itertools.permutations((1, 2, 3, 4)))

# For each entry, the first permutation that puts it in slot 4.
_LAST_SLOT = tuple(sorted(next(p for p in PERMS4 if p[3] == k) for k in range(1, 5)))
# For each entry, the six permutations that put it in slot 1.
_FIRST_SLOT = {k: tuple(p for p in PERMS4 if p[0] == k) for k in range(1, 5)}


def _by_last_slot(facts: Facts) -> tuple[tuple[int, ...], ...]:
    """Candidates of a condition that depends only on the entry in slot 4."""
    return _LAST_SLOT


def _three_threes(facts: Facts) -> tuple[tuple[int, ...], ...]:
    """Candidates of a = b = c = 3: none unless three entries are 3."""
    return _LAST_SLOT if facts.entries.count(3) >= 3 else ()


def _even_gcd_slots(facts: Facts) -> tuple[tuple[int, ...], ...]:
    """Candidates of :func:`_even_gcd`: the single 2 in slot 1, and in slot 4
    an entry whose coordinate gcd is 2.  With a = 2 and b even,
    gcd(d, lcm(b, c)) = gcd(d, lcm(a, b, c)), the coordinate gcd of d."""
    entries = facts.entries
    if 2 not in entries:
        return ()
    floors = facts.floors
    return tuple([p for p in _FIRST_SLOT[entries.index(2) + 1] if floors[p[3] - 1] == 2])


class LeafRule(NamedTuple):
    """A non-recursive rule.

    ``holds`` is its side condition.  A permuted rule (one with
    ``candidates``) applies only to tuples that pass :func:`permutable`,
    and ``holds`` reads the tuple reordered by the certificate's
    permutation.  Every other rule's condition is symmetric, and ``holds``
    reads the tuple's :class:`~brieskorn.tuples.Facts`, built once per
    search node.  ``candidates(facts)`` reads that record too and lists,
    in :data:`PERMS4` order, the permutations that can satisfy ``holds``
    (for ``N4_EVEN_GCD`` it reads the coordinate gcds), so the first of
    them that does is the first in :data:`PERMS4` that does; the search
    tries only these, and evaluates ``holds`` on each in turn, while
    replay evaluates ``holds`` under whatever permutation a certificate
    records.  ``condition`` states the side condition for replay error
    messages.
    """

    rule: RuleId
    status: Status
    candidates: Callable[[Facts], tuple[tuple[int, ...], ...]] | None
    holds: Callable[[Any], bool]
    condition: str


#: The leaf rules in firing order (first match wins).
LEAF_RULES = (
    LeafRule(RuleId.NOT_IN_TN, Status.NON_RIGID, None,
             lambda f: not f.in_tn,
             "not in T_n: some entry is 1, or two entries are 2"),
    LeafRule(RuleId.N3_T3, Status.RIGID, None,
             lambda f: f.n == 3 and f.in_tn and f.sigma > f.lcm,
             "length 3, in T_n, reciprocal sum > 1"),
    LeafRule(RuleId.N3_STABLE, Status.STABLY_RIGID, None,
             lambda f: f.n == 3 and f.in_tn and f.sigma <= f.lcm,
             "length 3, in T_n, reciprocal sum <= 1"),
    LeafRule(RuleId.LOW_SUM, Status.STABLY_RIGID, None,
             lambda f: (f.n - 2) * f.sigma <= f.lcm,
             "reciprocal sum <= 1/(n-2)"),
    LeafRule(RuleId.N4_COPRIME, Status.RIGID, _by_last_slot,
             lambda p: gcd(p[0] * p[1] * p[2], p[3]) == 1,
             "gcd(a*b*c, d) = 1"),
    LeafRule(RuleId.N4_THREE_THREES, Status.RIGID, _three_threes,
             lambda p: p[0] == p[1] == p[2] == 3,
             "a = b = c = 3"),
    LeafRule(RuleId.N4_EVEN_GCD, Status.RIGID, _even_gcd_slots,
             _even_gcd,
             "a = 2, b, c, d >= 3, b even, gcd(b, c) >= 3, gcd(d, lcm(b, c)) = 2"),
    LeafRule(RuleId.COTYPE_GE_2_N4, Status.RIGID, None,
             lambda f: permutable(f) and len(f.critical) >= 2,
             "length 4, in T_n, cotype >= 2"),
    LeafRule(RuleId.EQUAL_EXPONENTS, Status.RIGID, None,
             lambda f: f.n >= 4 and len(set(f.entries)) == 1 and f.entries[0] >= f.n,
             "length n >= 4, all entries equal and >= n"),
    LeafRule(RuleId.COTYPE_GE_NMINUS2, Status.RIGID, None,
             lambda f: f.n >= 4 and f.in_tn and len(f.critical) >= f.n - 2,
             "length n >= 4, in T_n, cotype >= n-2"),
    LeafRule(RuleId.I_SUM, Status.RIGID, None,
             lambda f: (f.n - 2) * (f.sigma - sum([f.lcm // f.entries[i - 1] for i in f.critical])) < f.lcm,
             "reciprocal sum over the lcm-stable indices < 1/(n-2)"),
)

_LEAF_BY_ID = {leaf.rule: leaf for leaf in LEAF_RULES}


def recursive_subsets(facts: Facts) -> tuple[tuple[int, ...], ...]:
    """Index sets ``RECURSIVE_SUBTUPLES`` removes, one per child: every
    size-m subset of the lcm-critical indices, m = min(#critical - 1,
    n - 3).  Empty when the rule cannot apply (m < 1)."""
    critical = facts.critical
    size = min(len(critical) - 1, facts.n - 3)
    return tuple(itertools.combinations(critical, size)) if size >= 1 else ()


# --- replay ---------------------------------------------------------------


def _fail(message: str, path: str) -> None:
    raise CertificateError(message, path)


def _need_positive(entries: Exponents, what: str, path: str) -> None:
    """``entries``, which are not empty, are positive integers."""
    if not (_ints(entries) and min(entries) >= 1):
        _fail(f"{what} must be positive integers: {entries!r}", path)


def _need_node(node: Any, path: str) -> None:
    """``node`` is a Certificate, before replay reads any of its fields."""
    if not isinstance(node, Certificate):
        _fail(f"certificate node must be a Certificate, got {type(node).__name__}", path)


def _need_children(node: Certificate, path: str) -> tuple:
    if type(node.children) is not tuple:
        _fail(f"children must be a tuple, got {node.children!r}", path)
    return node.children


def _need_rigid_child(child: Any, path: str, status_path: str) -> None:
    """``child`` is a node (failing at ``path``) whose status establishes
    rigidity (failing at ``status_path``)."""
    _need_node(child, path)
    status = child.status
    if type(status) is not Status or not status.implies_rigid:
        _fail(f"child status {_shown(status)} does not establish rigidity", status_path)


def _shown(value: Any) -> str:
    """A rule or status by its wire name, anything else by its repr."""
    return value.value if isinstance(value, enum.Enum) else repr(value)


def _entries(node: Certificate) -> Any:
    """The entries of ``node`` as a tuple when they are a list, which replay
    takes at every node, so that a parent compares them by value."""
    entries = node.exponents
    return tuple(entries) if isinstance(entries, list) else entries


def _need_witness(node: Certificate, path: str) -> Witness:
    if node.witness is None:
        _fail(f"{node.rule.value} requires a witness", path)
    return node.witness


def _need_int_index(index: Any, path: str) -> None:
    if not _ints((index,)):
        _fail(f"witness index must be an integer, got {index!r}", path)


def _need_int_witness(witness: Witness, path: str) -> None:
    """Every witness value an integer under the parser's rule, whether or
    not the node's rule reads it, so that the node renders to text that
    parses back."""
    index, exponents, subsets = witness
    if index is not None:
        _need_int_index(index, path)
    if exponents is not None and not _ints(exponents):
        _fail(f"witness tuple must be a list of integers, got {exponents!r}", path)
    if subsets is not None and (type(subsets) is not tuple or not all(map(_ints, subsets))):
        _fail(f"witness subsets must be lists of integers, got {subsets!r}", path)


def _replay_node(node: Certificate, path: str) -> None:
    if type(node) is not Certificate:  # the root: a parent checks each child before reading it
        _need_node(node, path)
    entries = node.exponents
    if type(entries) is not tuple and not isinstance(entries, list):
        _fail(f"entries must be a tuple of positive integers, got {entries!r}", path)
    n = len(entries)
    if n < 3:
        _fail(f"classified tuples need length >= 3, got {n}", path)
    _need_positive(entries, "entries", path)
    permutation = node.permutation
    identity = _IDENTITY[n] if n < len(_IDENTITY) else tp.identity_permutation(n)
    # A bool equals 0 or 1, so the type test cannot wait for a mismatch.
    if not _ints(permutation) or permutation != identity and tuple(sorted(permutation)) != identity:
        _fail(f"invalid permutation {permutation!r}", path)
    witness = node.witness
    if witness is not None and not isinstance(witness, Witness):
        _fail(f"witness must be a Witness or None, got {witness!r}", path)
    rule = node.rule
    try:
        leaf = _LEAF_BY_ID.get(rule)
    except TypeError:  # an unhashable rule, which the last branch below names
        leaf = None
    derived: Status

    if leaf is not None:
        permuted = entries  # the permutation is valid, so it reorders them directly
        if permutation != identity:
            permuted = tuple([entries[p - 1] for p in permutation])
        facts = Facts(permuted)
        if leaf.candidates is not None and not permutable(facts):
            _fail("rule applies to length-4 tuples in T_n only", path)
        if not leaf.holds(facts if leaf.candidates is None else permuted):
            _fail(f"{rule.value} side condition fails for {permuted}: needs {leaf.condition}", path)
        if node.children:
            _fail(f"{rule.value} must not have children", path)
        derived = leaf.status
    elif rule is RuleId.RECURSIVE_SUBTUPLES:
        derived = _replay_recursive(node, path)
    elif rule is RuleId.DESCEND:
        derived = _replay_descend(node, path)
    else:
        _fail(f"no replay check for rule {rule!r}", path)

    if node.status is not derived:
        _fail(f"recorded status {_shown(node.status)} but side conditions derive {derived.value}", path)
    if witness is not None:
        _need_int_witness(witness, path)


def _replay_recursive(node: Certificate, path: str) -> Status:
    entries = node.exponents
    required = recursive_subsets(Facts(entries))
    if not required:
        _fail("recursive rule needs length >= 4 and at least two lcm-critical indices", path)
    witness = _need_witness(node, path)
    if witness.subsets != required:
        _fail(f"witness subsets {witness.subsets!r} differ from the required subsets {required!r}", path)
    children = _need_children(node, path)
    if len(children) != len(required):
        _fail(f"expected {len(required)} children, found {len(children)}", path)
    for k, (subset, child) in enumerate(zip(required, children)):
        child_path = f"{path}.children[{k}]"
        _need_rigid_child(child, child_path, child_path)
        expected = tp.subtuple(entries, subset)
        if _entries(child) != expected:
            _fail(f"child tuple {child.exponents!r} is not the subtuple {expected!r}", child_path)
        _replay_node(child, child_path)
    return Status.RIGID


def _replay_descend(node: Certificate, path: str) -> Status:
    witness = _need_witness(node, path)
    if witness.index is None or type(witness.exponents) is not tuple:
        _fail("descend witness needs an index and a witness tuple", path)
    n = len(node.exponents)
    _need_int_index(witness.index, path)
    if not 1 <= witness.index <= n:
        _fail(f"witness index {witness.index} out of range for a tuple of length {n}", path)
    if len(witness.exponents) != n:
        _fail(f"witness tuple {witness.exponents!r} does not have length {n}", path)
    _need_positive(witness.exponents, "witness entries", path)
    if len(_need_children(node, path)) != 1:
        _fail("descend carries exactly one child", path)
    child = node.children[0]
    _need_rigid_child(child, f"{path}.children[0]", path)
    if _entries(child) != witness.exponents:
        _fail("child tuple differs from the witness tuple", path)
    if not tp.lt_at(witness.exponents, node.exponents, witness.index):
        _fail("witness tuple is not strictly below in the coordinate divisor order", path)
    _replay_node(child, f"{path}.children[0]")
    return Status.RIGID


def verify_certificate(certificate: Certificate) -> None:
    """Re-check every arithmetic side condition; raises CertificateError,
    also for a node built in memory with a field of the wrong type."""
    _replay_node(certificate, "root")


def replay(certificate: Certificate) -> bool:
    """True when the whole certificate tree replays successfully."""
    try:
        _replay_node(certificate, "root")
    except CertificateError:
        return False
    return True
