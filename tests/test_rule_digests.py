"""Differential pins of the rule catalogue by digest.

The digests below were recorded at commit 8b8878d, where the search and
replay each wrote out every leaf rule's side condition.  They pin, over
every sorted tuple of length 3-5 with entries 1..10 and every ordered
length-4 tuple over 1..9:

* ``classify``: status, rule and certificate id;
* every standalone ``rule_*`` entry point;
* replay acceptance of a forged leaf certificate for every leaf rule with
  the status it derives, under the identity permutation and, for the
  three permuted length-4 rules, under all 24 permutations.
"""

import hashlib
from itertools import combinations_with_replacement, permutations, product

import brieskorn as bk
from brieskorn.certificates import Certificate, RuleId, Status

UNIVERSES = {
    "sorted-3-5-max10": [
        entries
        for length in (3, 4, 5)
        for entries in combinations_with_replacement(range(1, 11), length)
    ],
    "ordered-4-max9": list(product(range(1, 10), repeat=4)),
}

RECORDED = {
    ("classify", "sorted-3-5-max10"):
        "2c9fc3cb9b388e04d1b8f1f32628ac5974a7bc207a3d7b03d1e280818434ee61",
    ("classify", "ordered-4-max9"):
        "ed3eba49880b697e4be7e9557812194958208dff899e17b1115b8f1ec7efaa57",
    ("rules", "sorted-3-5-max10"):
        "fd6336cc5841614c6f1b14c1e0d7053315cffbe655f11dc6e9fdae789888caac",
    ("rules", "ordered-4-max9"):
        "310bcb69c29b9a9533aea0dba333a76229a5045604ec017fc4f0cc8f6a88235f",
    ("forged", "sorted-3-5-max10"):
        "cf3cdd9e82f63276a63e2efcd5d49176d9e1568762087402dd3ce34c7feda1a7",
    ("forged", "ordered-4-max9"):
        "384f795dd717246082ebe65d123ef18f57509f1f9c4a35fbd020b9c4e8680261",
}

LEAF_STATUS = {
    RuleId.NOT_IN_TN: Status.NON_RIGID,
    RuleId.N3_T3: Status.RIGID,
    RuleId.N3_STABLE: Status.STABLY_RIGID,
    RuleId.LOW_SUM: Status.STABLY_RIGID,
    RuleId.N4_COPRIME: Status.RIGID,
    RuleId.N4_THREE_THREES: Status.RIGID,
    RuleId.N4_EVEN_GCD: Status.RIGID,
    RuleId.COTYPE_GE_2_N4: Status.RIGID,
    RuleId.EQUAL_EXPONENTS: Status.RIGID,
    RuleId.COTYPE_GE_NMINUS2: Status.RIGID,
    RuleId.I_SUM: Status.RIGID,
}
PERMUTED = (RuleId.N4_COPRIME, RuleId.N4_THREE_THREES, RuleId.N4_EVEN_GCD)
PERMS4 = tuple(permutations((1, 2, 3, 4)))

ARITHMETIC_RULES = (
    bk.rule_not_in_tn,
    bk.rule_n3,
    bk.rule_low_sum,
    bk.rule_collection,
    bk.rule_equal_exponents,
    bk.rule_i_sum,
    bk.rule_cotype_high,
)
SEARCH_RULES = (bk.rule_recursive_subtuples, bk.rule_descend)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _json(certificate) -> str:
    return "-" if certificate is None else bk.certificate_to_json(certificate)


def _classify_lines(universe):
    kb = bk.KnowledgeBase()
    for entries in universe:
        outcome = bk.classify(entries, kb)
        cert = outcome.certificate
        yield "|".join((
            str(entries),
            outcome.status.value,
            "-" if cert is None else cert.rule.value,
            "-" if cert is None else bk.certificate_id(cert),
        ))


def _rule_lines(universe):
    kb = bk.KnowledgeBase()
    for entries in universe:
        outputs = [_json(rule(entries)) for rule in ARITHMETIC_RULES]
        outputs += [_json(rule(entries, kb)) for rule in SEARCH_RULES]
        yield f"{entries}|" + "|".join(outputs)


def _forged_lines(universe):
    identity = tuple(range(1, 6))
    for entries in universe:
        verdicts = []
        for rule, status in LEAF_STATUS.items():
            if rule in PERMUTED and len(entries) == 4:
                perms = PERMS4
            else:
                perms = (identity[: len(entries)],)
            verdicts += [
                "1" if bk.replay(Certificate(rule, entries, status, perm)) else "0"
                for perm in perms
            ]
        yield f"{entries}|" + "".join(verdicts)


def test_classify_digests():
    for name, universe in UNIVERSES.items():
        assert _digest(_classify_lines(universe)) == RECORDED[("classify", name)], name


def test_standalone_rule_digests():
    for name, universe in UNIVERSES.items():
        assert _digest(_rule_lines(universe)) == RECORDED[("rules", name)], name


def test_forged_leaf_replay_digests():
    for name, universe in UNIVERSES.items():
        assert _digest(_forged_lines(universe)) == RECORDED[("forged", name)], name


# rule_descend never ran its tuple's leaf cascade, so its witness children
# walk every leaf rule: here N4_COPRIME, which the search's pruned cascade
# for witness children leaves out, decides the child.
DESCEND_TO_COPRIME = {
    (2, 3, 4, 8): (
        '{"children":[{"children":[],"permutation":[1,3,4,2],"rule":"N4_COPRIME","status":"RIGID",'
        '"tuple":[2,3,4,4],"witness":null}],"permutation":[1,2,3,4],"rule":"DESCEND","status":"RIGID",'
        '"tuple":[2,3,4,8],"witness":{"index":4,"tuple":[2,3,4,4]}}'
    ),
    (2, 3, 5, 8): (
        '{"children":[{"children":[],"permutation":[1,2,4,3],"rule":"N4_COPRIME","status":"RIGID",'
        '"tuple":[2,3,5,4],"witness":null}],"permutation":[1,2,3,4],"rule":"DESCEND","status":"RIGID",'
        '"tuple":[2,3,5,8],"witness":{"index":4,"tuple":[2,3,5,4]}}'
    ),
}


def test_rule_descend_children_walk_every_leaf_rule():
    for entries, text in DESCEND_TO_COPRIME.items():
        assert bk.certificate_to_json(bk.rule_descend(entries)) == text, entries
