"""Certificate serialization round trips and independent replay."""

import copy
import hashlib
import json
import re
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brieskorn as bk
from brieskorn import certificates
from brieskorn.census import CensusSpec
from brieskorn.certificates import (
    Certificate,
    RuleId,
    Status,
    Witness,
    certificate_from_dict,
    certificate_from_json,
    certificate_id,
    certificate_to_json,
)
from brieskorn.errors import CertificateError, InputError


def classified(entries):
    cert = bk.classify(entries).certificate
    assert cert is not None
    return cert


SAMPLES = [
    (2, 3, 3, 2),
    (10, 3, 3, 4),
    (2, 5, 7, 3, 3, 3),
    (8, 8, 8, 8),
    (4, 4, 4, 12),
    (2, 3, 7),
    (2, 3, 5),
    (7, 5, 6, 8),
    (5, 10, 15, 20, 25),
]


class TestSerialization:
    @pytest.mark.parametrize("entries", SAMPLES)
    def test_round_trip_is_lossless(self, entries):
        cert = classified(entries)
        parsed = certificate_from_json(certificate_to_json(cert))
        assert parsed == cert
        # and stable under a second round trip
        assert certificate_to_json(parsed) == certificate_to_json(cert)

    def test_schema_field_names(self):
        payload = classified((2, 5, 7, 3, 3, 3)).to_dict()
        assert set(payload) == {"rule", "tuple", "permutation", "witness", "children", "status"}
        assert payload["witness"] is not None and "subsets" in payload["witness"]
        child = payload["children"][0]
        assert set(child) == {"rule", "tuple", "permutation", "witness", "children", "status"}

    def test_certificate_id_is_content_derived(self):
        cert = classified((10, 3, 3, 4))
        assert certificate_id(cert) == certificate_id(classified((10, 3, 3, 4)))
        assert certificate_id(cert) != certificate_id(classified((2, 3, 3, 2)))

    def test_parser_rejects_malformed_payloads(self):
        good = classified((4, 4, 4, 12)).to_dict()
        assert good["rule"] == "DESCEND"
        for mutate in (
            lambda d: d.pop("rule"),
            lambda d: d.update(rule="NO_SUCH_RULE"),
            lambda d: d.update(status="MAYBE"),
            lambda d: d.update(tuple=[2, "3"]),
            lambda d: d.update(children="nope"),
            lambda d: d.update(rule="TRANSFER"),
            lambda d: d.update(foo=1),
            lambda d: d["witness"].update(sibling=[4, 4, 4, 12]),
        ):
            broken = json.loads(json.dumps(good))
            mutate(broken)
            with pytest.raises(CertificateError):
                certificate_from_dict(broken)

    @pytest.mark.parametrize("where, key", [("node", "foo"), ("witness", "sibling")])
    def test_parser_names_an_unknown_key(self, where, key):
        # an extra key would otherwise parse to a certificate whose id
        # differs from that of the text it was read from
        payload = classified((4, 4, 4, 12)).to_dict()
        (payload if where == "node" else payload["witness"])[key] = [4, 4, 4, 12]
        with pytest.raises(CertificateError, match=key):
            certificate_from_json(json.dumps(payload))

    def test_parser_rejects_boolean_witness_index(self):
        payload = classified((4, 4, 4, 12)).to_dict()
        assert payload["witness"]["index"] == 4
        payload["witness"]["index"] = True
        with pytest.raises(CertificateError):
            certificate_from_dict(payload)

    @pytest.mark.parametrize("key", ["index", "tuple", "subsets"])
    def test_parser_rejects_null_witness_values(self, key):
        # Parsed as an absent key, a null would give a certificate that
        # renders to other text than it was read from: with "subsets": null
        # added, the (4,4,4,12) DESCEND text hashes to 020e14f843d7, while
        # the certificate without the key has id e2a2f5a22493.
        payload = classified((4, 4, 4, 12)).to_dict()
        assert payload["rule"] == "DESCEND"
        assert certificate_id(certificate_from_dict(payload)) == "e2a2f5a22493"
        payload["witness"][key] = None
        if key == "subsets":
            text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:12] == "020e14f843d7"
        with pytest.raises(CertificateError, match=key):
            certificate_from_dict(payload)

    def test_parser_rejects_invalid_json(self):
        with pytest.raises(CertificateError):
            certificate_from_json("{not json")

    # Far deeper than the interpreter's recursion limit, so that the JSON
    # decoder runs out of stack on the way down, and far deeper than
    # MAX_NESTING.
    TOO_DEEP = 20_000

    @staticmethod
    def chain_text(depth):
        # The (4,4,4,12) DESCEND text split around its leaf child, with its
        # one DESCEND level repeated ``depth`` times; depth 1 is the text
        # itself.  Built by repetition, not by wrapping the text once per
        # level, which would copy it once per level.
        node = classified((4, 4, 4, 12))
        leaf = certificate_to_json(node.children[0])
        head, tail = certificate_to_json(node).split(leaf)
        return head * depth + leaf + tail * depth

    def test_parser_rejects_text_nested_too_deeply(self):
        assert self.chain_text(1) == certificate_to_json(classified((4, 4, 4, 12)))
        assert certificate_to_json(certificate_from_json(self.chain_text(50))) == self.chain_text(50)
        with pytest.raises(CertificateError, match="nested too deeply") as excinfo:
            certificate_from_json(self.chain_text(self.TOO_DEEP))
        assert excinfo.value.path == "root"

    def test_parser_rejects_a_dict_nested_too_deeply(self):
        node = classified((4, 4, 4, 12))
        outer = node.to_dict()
        payload = node.children[0].to_dict()
        for _ in range(self.TOO_DEEP):
            payload = {**outer, "children": [payload]}
        with pytest.raises(CertificateError, match="nested too deeply") as excinfo:
            certificate_from_dict(payload)
        assert excinfo.value.path == "root"

    @pytest.mark.parametrize("depth", [certificates.MAX_NESTING + 1, 300, 400, 480])
    def test_parser_rejects_what_the_renderer_cannot_write_back(self, depth):
        # Chains 400 and 480 levels deep used to parse, and rendering them
        # back raised RecursionError.
        with pytest.raises(CertificateError, match="nested too deeply") as excinfo:
            certificate_from_json(self.chain_text(depth))
        assert excinfo.value.path == "root"

    def test_the_deepest_accepted_chain_renders_back(self):
        text = self.chain_text(certificates.MAX_NESTING)
        parsed = certificate_from_json(text)
        assert certificate_to_json(parsed) == text
        assert certificate_id(parsed) == hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]

    def test_the_deepest_accepted_valid_chain_replays(self):
        # (4,4,4,4 * 2^j) descends at index 4 to (4,4,4,4 * 2^(j-1)), down to
        # the EQUAL_EXPONENTS leaf (4,4,4,4).
        node = Certificate(RuleId.EQUAL_EXPONENTS, (4, 4, 4, 4), Status.RIGID, (1, 2, 3, 4))
        for j in range(1, certificates.MAX_NESTING + 1):
            node = Certificate(
                RuleId.DESCEND, (4, 4, 4, 4 << j), Status.RIGID, (1, 2, 3, 4),
                Witness(index=4, exponents=node.exponents), (node,),
            )
        text = certificate_to_json(node, indent=2)
        parsed = certificate_from_json(text)
        assert parsed == node and bk.replay(parsed)
        deeper = Certificate(
            RuleId.DESCEND, (4, 4, 4, 8 << j), Status.RIGID, (1, 2, 3, 4),
            Witness(index=4, exponents=node.exponents), (node,),
        )
        assert bk.replay(deeper)
        with pytest.raises(CertificateError, match="nested too deeply"):
            certificate_from_json(certificate_to_json(deeper))


def oracle(certificate, **layout):
    return json.dumps(certificate.to_dict(), sort_keys=True, **layout)


def assert_renders_like_json_dumps(certificate):
    assert certificate_to_json(certificate) == oracle(certificate, separators=(",", ":"))
    for indent in (0, 2, 4):
        assert certificate_to_json(certificate, indent=indent) == oracle(certificate, indent=indent)


class TestRenderer:
    """The direct renderer against json.dumps, the reference it replaces."""

    @pytest.mark.parametrize("length,max_exponent", [(3, 30), (4, 16), (5, 8), (6, 6)])
    def test_every_census_certificate(self, length, max_exponent):
        result = bk.run_census(CensusSpec(length=length, max_exponent=max_exponent))
        certificates = [row.certificate for row in result.rows if row.certificate is not None]
        assert certificates
        for certificate in certificates:
            assert_renders_like_json_dumps(certificate)

    @pytest.mark.parametrize(
        "witness",
        [
            None,
            Witness(),
            Witness(subsets=()),
            Witness(subsets=((1,), (2, 3))),
            Witness(index=4, exponents=(4, 4, 4, 4)),
            Witness(index=4, exponents=(4, 4, 4, 4), subsets=((1, 2),)),
        ],
    )
    def test_hand_built_nodes(self, witness):
        leaf = Certificate(RuleId.N3_T3, (2, 3, 4), Status.RIGID, (1, 2, 3))
        node = Certificate(RuleId.DESCEND, (4, 4, 4, 24), Status.RIGID, (4, 3, 2, 1), witness)
        nested = node._replace(children=(leaf, node._replace(children=(leaf,))))
        for certificate in (node, nested):
            assert_renders_like_json_dumps(certificate)
        if witness == Witness():
            assert '"witness":{}' in certificate_to_json(node)

    @pytest.mark.parametrize(
        "exponents, permutation",
        [
            ((2, 3, 4), (1, 2, 3)),
            ((1, 10, 100), (3, 1, 2)),
            ((10,) * 12, tuple(range(12, 0, -1))),
            ((), ()),
        ],
    )
    def test_leaves(self, exponents, permutation):
        # A leaf is written as a cached frame around its entries, alone and
        # as a child, whatever its status, and with a list for a tuple.
        for status in (Status.RIGID, Status.UNKNOWN):
            leaf = Certificate(RuleId.LOW_SUM, exponents, status, permutation)
            parent = Certificate(RuleId.DESCEND, (5, 5, 5, 5), status, (1, 2, 3, 4), Witness(index=1), (leaf, leaf))
            listed = leaf._replace(exponents=list(exponents), permutation=list(permutation))
            for certificate in (leaf, parent, leaf._replace(exponents=exponents[::-1]), listed):
                assert_renders_like_json_dumps(certificate)

    def test_a_bool_permutation_leaves_the_leaf_cache_alone(self):
        # (True, 2, 3) == (1, 2, 3), so a frame cached for the bool
        # permutation would be the frame of every later (1, 2, 3) leaf.
        certificates._leaf_frame.cache_clear()
        forged = Certificate(RuleId.N3_T3, (2, 3, 4), Status.RIGID, (True, 2, 3))
        assert "True" in certificate_to_json(forged)
        real = classified((2, 3, 4))
        assert real == forged._replace(permutation=(1, 2, 3))
        text = certificate_to_json(real)
        assert text == oracle(real, separators=(",", ":"))
        assert certificate_from_json(text) == real

    def test_wire_names_hold_no_whitespace(self):
        # The compact text is the indented text with its whitespace removed,
        # which is the same text only while no string in it holds whitespace.
        names = [
            *(rule.value for rule in RuleId),
            *(status.value for status in Status),
            *certificates._NODE_KEYS,
            *certificates._WITNESS_KEYS,
        ]
        for name in names:
            assert re.fullmatch(r"[A-Za-z0-9_]+", name), name


# (changed witness fields, child tuple) of the (4,4,4,12) DESCEND node: the
# child must equal the witness tuple, so where it is given the child is
# forged to match and replay reaches the order check
FORGED_ORDER_WITNESSES = [
    pytest.param({"index": 0}, None, id="descend-index-0"),
    pytest.param({"index": 9}, None, id="descend-index-9"),
    pytest.param({"exponents": (4, 4, 4)}, None, id="descend-short-witness"),
    pytest.param({"exponents": (4, 4, 4)}, (4, 4, 4), id="descend-short-witness-and-child"),
    pytest.param({"exponents": (4, 4, 4, 0)}, (4, 4, 4, 0), id="descend-zero-witness-entry"),
    pytest.param({"exponents": (4, 4, 4, -4)}, (4, 4, 4, -4), id="descend-negative-witness-entry"),
]


class TestReplay:
    @pytest.mark.parametrize("entries", SAMPLES)
    def test_classifier_output_replays(self, entries):
        assert bk.replay(classified(entries))

    def test_replay_after_round_trip(self):
        cert = classified((2, 5, 7, 3, 3, 3))
        assert bk.replay(certificate_from_json(certificate_to_json(cert)))

    def test_tampered_witness_index_fails(self):
        cert = classified((4, 4, 4, 12))
        assert cert.rule is RuleId.DESCEND
        bad = cert._replace(witness=cert.witness._replace(index=2))
        assert not bk.replay(bad)

    @pytest.mark.parametrize("witness, child", FORGED_ORDER_WITNESSES)
    def test_forged_order_witness_fails_at_the_node(self, witness, child):
        node = classified((4, 4, 4, 12))
        bad = node._replace(witness=node.witness._replace(**witness))
        if child is not None:
            forged_child = node.children[0]._replace(exponents=child)
            bad = bad._replace(children=(forged_child,))
        assert not bk.replay(bad)
        with pytest.raises(CertificateError) as excinfo:
            bk.verify_certificate(bad)
        assert excinfo.value.path == "root"

    def test_tampered_status_fails(self):
        cert = classified((10, 3, 3, 4))
        bad = cert._replace(status=Status.STABLY_RIGID)
        assert not bk.replay(bad)

    def test_tampered_tuple_fails(self):
        cert = classified((10, 3, 3, 4))
        bad = cert._replace(exponents=(10, 3, 3, 6))
        assert not bk.replay(bad)

    def test_tampered_child_fails_with_path(self):
        cert = classified((2, 5, 7, 3, 3, 3))
        children = list(cert.children)
        children[1] = children[1]._replace(exponents=(5, 3, 3, 9))
        bad = cert._replace(children=tuple(children))
        with pytest.raises(CertificateError) as excinfo:
            bk.verify_certificate(bad)
        assert "children[1]" in excinfo.value.path

    def test_missing_child_fails(self):
        cert = classified((2, 5, 7, 3, 3, 3))
        bad = cert._replace(children=cert.children[:2])
        assert not bk.replay(bad)

    @pytest.mark.parametrize("build", [lambda: classified((4, 4, 4, 12)), lambda: chain_node()], ids=["descend", "chain"])
    def test_a_descend_node_with_list_entries_replays(self, build):
        node = build()
        assert node.rule is RuleId.DESCEND
        listed = node._replace(exponents=list(node.exponents))
        assert bk.replay(listed)
        bk.verify_certificate(listed)

    @pytest.mark.parametrize(
        "build",
        [lambda: descend_node(), lambda: recursive_node(), lambda: chain_node()],
        ids=["descend", "recursive", "chain"],
    )
    def test_children_with_list_entries_replay(self, build):
        node = listed(build())
        assert isinstance(node.children[0].exponents, list)
        assert bk.replay(node)
        bk.verify_certificate(node)

    def test_unknown_status_never_replays(self):
        cert = Certificate(
            RuleId.NOT_IN_TN, (2, 3, 3, 2), Status.UNKNOWN, (1, 2, 3, 4)
        )
        assert not bk.replay(cert)

    def test_wrong_rule_claim_fails(self):
        # claims the equal-exponent criterion for a tuple below the length bound
        cert = Certificate(
            RuleId.EQUAL_EXPONENTS, (3, 3, 3, 3), Status.RIGID, (1, 2, 3, 4)
        )
        assert not bk.replay(cert)


class TestArgumentTypes:
    """A wrong-typed argument to the text helpers is an error that names it."""

    CALLS = {
        "to_json": certificate_to_json,
        "id": certificate_id,
        "id-with-text": lambda node: certificate_id(node, "{}"),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_a_non_certificate_is_named(self, call):
        for node in (None, 5, classified((4, 4, 4, 12)).to_dict()):
            with pytest.raises(CertificateError) as excinfo:
                self.CALLS[call](node)
            assert str(excinfo.value) == f"root: certificate node must be a Certificate, got {type(node).__name__}"

    def test_certificate_text_of_the_wrong_type_is_named(self):
        cert = classified((4, 4, 4, 12))
        assert certificate_from_json(certificate_to_json(cert).encode()) == cert
        for text in (5, None, cert.to_dict()):
            with pytest.raises(CertificateError) as excinfo:
                certificate_from_json(text)
            assert str(excinfo.value) == f"root: certificate text must be a str, bytes or bytearray, got {type(text).__name__}"

    def test_certificate_id_text_of_the_wrong_type_is_named(self):
        cert = classified((4, 4, 4, 12))
        assert certificate_id(cert, certificate_to_json(cert, indent=2)) == certificate_id(cert, None)
        for text in (5, b"{}", ["{}"]):
            with pytest.raises(InputError) as excinfo:
                certificate_id(cert, text)
            assert str(excinfo.value) == f"text must be a str or None, got {type(text).__name__}"

    def test_an_indent_of_the_wrong_type_is_named(self):
        cert = classified((4, 4, 4, 12))
        for indent in ("x", 1.5, True):
            with pytest.raises(InputError) as excinfo:
                certificate_to_json(cert, indent=indent)
            assert str(excinfo.value) == f"indent must be an integer or None, got {indent!r}"


# --- every parser and replay error, byte for byte ---------------------------
#
# Each case builds one malformed payload (parsed by certificate_from_dict) or
# one forged certificate (checked by verify_certificate) and pins the error's
# full text and path.  The bases are the (4,4,4,12) DESCEND certificate, the
# (2,5,7,3,3,3) RECURSIVE_SUBTUPLES one with three leaf children, and the
# DESCEND chain (4,4,4,32) -> (4,4,4,16) -> (4,4,4,8) -> (4,4,4,4), whose
# last node is an EQUAL_EXPONENTS leaf.


def descend_payload():
    return classified((4, 4, 4, 12)).to_dict()


def recursive_payload():
    return classified((2, 5, 7, 3, 3, 3)).to_dict()


def chain_node(bottom=RuleId.EQUAL_EXPONENTS):
    node = leaf(bottom, (4, 4, 4, 4))
    for j in (1, 2, 3):
        node = leaf(RuleId.DESCEND, (4, 4, 4, 4 << j), witness=Witness(index=4, exponents=node.exponents),
                    children=(node,))
    return node


def chain_payload():
    return chain_node().to_dict()


def edited(base, edit):
    """A parse case: the payload ``base()`` changed in place by ``edit``."""

    def build():
        payload = base()
        edit(payload)
        return payload

    return "parse", build


def forged(build):
    """A replay case: the certificate ``build()``."""
    return "replay", build


def descend_node():
    return classified((4, 4, 4, 12))


def recursive_node():
    return classified((2, 5, 7, 3, 3, 3))


def with_child(node, k, **changes):
    children = list(node.children)
    children[k] = children[k]._replace(**changes)
    return node._replace(children=tuple(children))


def listed(node):
    """``node`` with its entries and those of every node below it as lists."""
    return node._replace(exponents=list(node.exponents), children=tuple(map(listed, node.children)))


def with_witness(node, **changes):
    return node._replace(witness=node.witness._replace(**changes))


def leaf(rule, entries, status=Status.RIGID, permutation=None, **fields):
    return Certificate(rule, entries, status, permutation or tuple(range(1, len(entries) + 1)), **fields)


ERROR_PINS = [
    # the mutations of test_parser_rejects_malformed_payloads
    ("missing-rule", edited(descend_payload, lambda d: d.pop("rule")),
     "root: missing fields: ['rule']", "root"),
    ("unknown-rule", edited(descend_payload, lambda d: d.update(rule="NO_SUCH_RULE")),
     "root: unknown rule 'NO_SUCH_RULE'", "root"),
    ("unknown-status", edited(descend_payload, lambda d: d.update(status="MAYBE")),
     "root: unknown status 'MAYBE'", "root"),
    ("str-entry", edited(descend_payload, lambda d: d.update(tuple=[2, "3"])),
     "root: tuple must be a list of integers, got [2, '3']", "root"),
    ("children-not-list", edited(descend_payload, lambda d: d.update(children="nope")),
     "root: children must be a list", "root"),
    ("retired-rule", edited(descend_payload, lambda d: d.update(rule="TRANSFER")),
     "root: unknown rule 'TRANSFER'", "root"),
    ("unknown-field", edited(descend_payload, lambda d: d.update(foo=1)),
     "root: unknown fields: ['foo']", "root"),
    ("unknown-witness-field", edited(descend_payload, lambda d: d["witness"].update(sibling=[4, 4, 4, 12])),
     "root: unknown witness fields: ['sibling']", "root"),
    # node and field types
    ("node-not-object", ("parse", lambda: [descend_payload()]),
     "root: certificate node must be an object, got list", "root"),
    ("missing-fields", edited(descend_payload, lambda d: [d.pop(k) for k in ("witness", "status")]),
     "root: missing fields: ['status', 'witness']", "root"),
    ("unknown-non-string-field", edited(descend_payload, lambda d: d.update({7: 1, "extra": 2})),
     "root: unknown fields: [7, 'extra']", "root"),
    ("tuple-not-list", edited(descend_payload, lambda d: d.update(tuple="4,4,4,12")),
     "root: tuple must be a list of integers, got '4,4,4,12'", "root"),
    ("tuple-tuple", edited(descend_payload, lambda d: d.update(tuple=(4, 4, 4, 12))),
     "root: tuple must be a list of integers, got (4, 4, 4, 12)", "root"),
    ("bool-entry", edited(descend_payload, lambda d: d.update(tuple=[4, 4, 4, True])),
     "root: tuple must be a list of integers, got [4, 4, 4, True]", "root"),
    ("float-entry", edited(descend_payload, lambda d: d.update(tuple=[4, 4, 4, 12.0])),
     "root: tuple must be a list of integers, got [4, 4, 4, 12.0]", "root"),
    ("null-entry", edited(descend_payload, lambda d: d.update(tuple=[4, None, 4, 12])),
     "root: tuple must be a list of integers, got [4, None, 4, 12]", "root"),
    ("bool-permutation", edited(descend_payload, lambda d: d.update(permutation=[True, 2, 3, 4])),
     "root: permutation must be a list of integers, got [True, 2, 3, 4]", "root"),
    ("permutation-not-list", edited(descend_payload, lambda d: d.update(permutation=None)),
     "root: permutation must be a list of integers, got None", "root"),
    ("unhashable-rule", edited(descend_payload, lambda d: d.update(rule=["DESCEND"])),
     "root: unknown rule ['DESCEND']", "root"),
    ("unhashable-status", edited(descend_payload, lambda d: d.update(status=["RIGID"])),
     "root: unknown status ['RIGID']", "root"),
    ("dict-rule", edited(descend_payload, lambda d: d.update(rule={})),
     "root: unknown rule {}", "root"),
    ("int-status", edited(descend_payload, lambda d: d.update(status=1)),
     "root: unknown status 1", "root"),
    ("lowercase-rule", edited(descend_payload, lambda d: d.update(rule="descend")),
     "root: unknown rule 'descend'", "root"),
    # witnesses
    ("witness-not-object", edited(descend_payload, lambda d: d.update(witness=[4, [4, 4, 4, 4]])),
     "root: witness must be an object or null", "root"),
    ("null-witness-index", edited(descend_payload, lambda d: d["witness"].update(index=None)),
     "root: witness index must be an integer", "root"),
    ("bool-witness-index", edited(descend_payload, lambda d: d["witness"].update(index=True)),
     "root: witness index must be an integer", "root"),
    ("str-witness-index", edited(descend_payload, lambda d: d["witness"].update(index="4")),
     "root: witness index must be an integer", "root"),
    ("null-witness-tuple", edited(descend_payload, lambda d: d["witness"].update(tuple=None)),
     "root: witness tuple must be a list of integers, got None", "root"),
    ("bool-witness-tuple", edited(descend_payload, lambda d: d["witness"].update(tuple=[4, 4, False, 4])),
     "root: witness tuple must be a list of integers, got [4, 4, False, 4]", "root"),
    ("null-witness-subsets", edited(descend_payload, lambda d: d["witness"].update(subsets=None)),
     "root: witness subsets must be a list of lists", "root"),
    ("subsets-not-list", edited(recursive_payload, lambda d: d["witness"].update(subsets="12,13,23")),
     "root: witness subsets must be a list of lists", "root"),
    ("subset-not-list", edited(recursive_payload, lambda d: d["witness"].update(subsets=[[1, 2], 13, [2, 3]])),
     "root: witness subset must be a list of integers, got 13", "root"),
    ("bool-subset-entry", edited(recursive_payload, lambda d: d["witness"].update(subsets=[[1, 2], [True, 3]])),
     "root: witness subset must be a list of integers, got [True, 3]", "root"),
    # children, and the path of a bad node below the root
    ("child-not-object", edited(recursive_payload, lambda d: d["children"].__setitem__(1, "leaf")),
     "root.children[1]: certificate node must be an object, got str", "root.children[1]"),
    ("bad-child", edited(recursive_payload, lambda d: d["children"][2].update(status="MAYBE")),
     "root.children[2]: unknown status 'MAYBE'", "root.children[2]"),
    ("bad-grandchild", edited(chain_payload, lambda d: d["children"][0]["children"][0].update(tuple=[4, True])),
     "root.children[0].children[0]: tuple must be a list of integers, got [4, True]",
     "root.children[0].children[0]"),
    ("bad-great-grandchild-witness",
     edited(chain_payload, lambda d: d["children"][0]["children"][0]["children"][0].update(witness=7)),
     "root.children[0].children[0].children[0]: witness must be an object or null",
     "root.children[0].children[0].children[0]"),
    ("nested-too-deeply",
     ("parse", lambda: json.loads(TestSerialization.chain_text(certificates.MAX_NESTING + 1))),
     "root: certificate nested too deeply", "root"),
    # _replay_node
    ("replay-short-tuple", forged(lambda: leaf(RuleId.NOT_IN_TN, (2, 2))),
     "root: classified tuples need length >= 3, got 2", "root"),
    ("replay-zero-entry", forged(lambda: leaf(RuleId.NOT_IN_TN, (0, 2, 3), Status.NON_RIGID)),
     "root: entries must be positive integers: (0, 2, 3)", "root"),
    ("replay-str-entry", forged(lambda: leaf(RuleId.NOT_IN_TN, (1, "2", 3), Status.NON_RIGID)),
     "root: entries must be positive integers: (1, '2', 3)", "root"),
    ("replay-repeated-slot", forged(lambda: leaf(RuleId.N3_T3, (2, 3, 4), permutation=(1, 1, 2))),
     "root: invalid permutation (1, 1, 2)", "root"),
    ("replay-short-permutation", forged(lambda: leaf(RuleId.N3_T3, (2, 3, 4), permutation=(2, 1))),
     "root: invalid permutation (2, 1)", "root"),
    ("replay-permuted-rule-on-length-3", forged(lambda: leaf(RuleId.N4_COPRIME, (2, 3, 5))),
     "root: rule applies to length-4 tuples in T_n only", "root"),
    ("replay-permuted-rule-outside-tn", forged(lambda: leaf(RuleId.N4_COPRIME, (1, 3, 5, 7))),
     "root: rule applies to length-4 tuples in T_n only", "root"),
    ("replay-symmetric-condition", forged(lambda: leaf(RuleId.EQUAL_EXPONENTS, (3, 3, 3, 3))),
     "root: EQUAL_EXPONENTS side condition fails for (3, 3, 3, 3): needs length n >= 4, "
     "all entries equal and >= n", "root"),
    ("replay-permuted-condition",
     forged(lambda: leaf(RuleId.N4_COPRIME, (2, 9, 4, 6), permutation=(4, 1, 2, 3))),
     "root: N4_COPRIME side condition fails for (6, 2, 9, 4): needs gcd(a*b*c, d) = 1", "root"),
    ("replay-leaf-with-children",
     forged(lambda: leaf(RuleId.LOW_SUM, (4, 4, 4), Status.STABLY_RIGID,
                         children=(leaf(RuleId.EQUAL_EXPONENTS, (4, 4, 4, 4)),))),
     "root: LOW_SUM must not have children", "root"),
    ("replay-unknown-status", forged(lambda: leaf(RuleId.NOT_IN_TN, (2, 3, 3, 2), Status.UNKNOWN)),
     "root: recorded status UNKNOWN but side conditions derive NON_RIGID", "root"),
    ("replay-recursive-status", forged(lambda: recursive_node()._replace(status=Status.STABLY_RIGID)),
     "root: recorded status STABLY_RIGID but side conditions derive RIGID", "root"),
    # nodes built in memory with a field of the wrong type
    ("replay-root-not-a-node", forged(lambda: "x"),
     "root: certificate node must be a Certificate, got str", "root"),
    ("replay-unhashable-rule", forged(lambda: leaf(["NOT_IN_TN"], (2, 3, 3, 2), Status.NON_RIGID)),
     "root: no replay check for rule ['NOT_IN_TN']", "root"),
    ("replay-rule-by-name", forged(lambda: leaf("NOT_IN_TN", (2, 3, 3, 2), Status.NON_RIGID)),
     "root: no replay check for rule 'NOT_IN_TN'", "root"),
    ("replay-null-entries", forged(lambda: leaf(RuleId.NOT_IN_TN, None, Status.NON_RIGID, (1, 2, 3))),
     "root: entries must be a tuple of positive integers, got None", "root"),
    ("replay-set-entries", forged(lambda: leaf(RuleId.NOT_IN_TN, {2, 3, 5, 7}, Status.NON_RIGID, (1, 2, 3, 4))),
     "root: entries must be a tuple of positive integers, got {2, 3, 5, 7}", "root"),
    ("replay-null-permutation", forged(lambda: leaf(RuleId.NOT_IN_TN, (2, 3, 3, 2))._replace(permutation=None)),
     "root: invalid permutation None", "root"),
    ("replay-status-by-name", forged(lambda: leaf(RuleId.NOT_IN_TN, (2, 3, 3, 2), "NON_RIGID")),
     "root: recorded status 'NON_RIGID' but side conditions derive NON_RIGID", "root"),
    ("replay-leaf-witness-dict",
     forged(lambda: leaf(RuleId.NOT_IN_TN, (2, 3, 3, 2), Status.NON_RIGID, witness={"index": 1})),
     "root: witness must be a Witness or None, got {'index': 1}", "root"),
    ("replay-leaf-subsets-not-tuple",
     forged(lambda: leaf(RuleId.NOT_IN_TN, (2, 3, 3, 2), Status.NON_RIGID, witness=Witness(subsets=5))),
     "root: witness subsets must be lists of integers, got 5", "root"),
    ("replay-null-children", forged(lambda: recursive_node()._replace(children=None)),
     "root: children must be a tuple, got None", "root"),
    ("replay-child-not-a-node", forged(lambda: recursive_node()._replace(children=("x", "y", "z"))),
     "root.children[0]: certificate node must be a Certificate, got str", "root.children[0]"),
    ("replay-child-status-by-name", forged(lambda: with_child(recursive_node(), 1, status="RIGID")),
     "root.children[1]: child status 'RIGID' does not establish rigidity", "root.children[1]"),
    ("descend-plain-tuple-witness", forged(lambda: descend_node()._replace(witness=tuple(descend_node().witness))),
     "root: witness must be a Witness or None, got (4, (4, 4, 4, 4), None)", "root"),
    ("descend-witness-tuple-not-a-tuple", forged(lambda: with_witness(descend_node(), exponents=4)),
     "root: descend witness needs an index and a witness tuple", "root"),
    ("descend-null-children", forged(lambda: descend_node()._replace(children=None)),
     "root: children must be a tuple, got None", "root"),
    ("descend-child-not-a-node", forged(lambda: descend_node()._replace(children=("x",))),
     "root.children[0]: certificate node must be a Certificate, got str", "root.children[0]"),
    ("descend-child-status-by-name", forged(lambda: with_child(descend_node(), 0, status="RIGID")),
     "root: child status 'RIGID' does not establish rigidity", "root"),
    # _replay_recursive
    ("recursive-on-length-3", forged(lambda: leaf(RuleId.RECURSIVE_SUBTUPLES, (2, 3, 5), witness=Witness())),
     "root: recursive rule needs length >= 4 and at least two lcm-critical indices", "root"),
    ("recursive-without-witness", forged(lambda: recursive_node()._replace(witness=None)),
     "root: RECURSIVE_SUBTUPLES requires a witness", "root"),
    ("recursive-other-subsets", forged(lambda: with_witness(recursive_node(), subsets=((1, 2), (1, 3)))),
     "root: witness subsets ((1, 2), (1, 3)) differ from the required subsets "
     "((1, 2), (1, 3), (2, 3))", "root"),
    ("recursive-missing-child", forged(lambda: recursive_node()._replace(children=recursive_node().children[:2])),
     "root: expected 3 children, found 2", "root"),
    ("recursive-child-not-subtuple", forged(lambda: with_child(recursive_node(), 1, exponents=(5, 3, 3, 9))),
     "root.children[1]: child tuple (5, 3, 3, 9) is not the subtuple (5, 3, 3, 3)", "root.children[1]"),
    ("recursive-child-not-rigid", forged(lambda: with_child(recursive_node(), 2, status=Status.NON_RIGID)),
     "root.children[2]: child status NON_RIGID does not establish rigidity", "root.children[2]"),
    ("recursive-child-fails", forged(lambda: with_child(recursive_node(), 0, rule=RuleId.LOW_SUM)),
     "root.children[0]: LOW_SUM side condition fails for (3, 3, 3, 7): needs reciprocal sum <= 1/(n-2)",
     "root.children[0]"),
    # _replay_descend
    ("descend-without-witness", forged(lambda: descend_node()._replace(witness=None)),
     "root: DESCEND requires a witness", "root"),
    ("descend-without-index", forged(lambda: with_witness(descend_node(), index=None)),
     "root: descend witness needs an index and a witness tuple", "root"),
    ("descend-without-tuple", forged(lambda: with_witness(descend_node(), exponents=None)),
     "root: descend witness needs an index and a witness tuple", "root"),
    ("descend-index-0", forged(lambda: with_witness(descend_node(), index=0)),
     "root: witness index 0 out of range for a tuple of length 4", "root"),
    ("descend-index-5", forged(lambda: with_witness(descend_node(), index=5)),
     "root: witness index 5 out of range for a tuple of length 4", "root"),
    ("descend-str-index", forged(lambda: with_witness(descend_node(), index="4")),
     "root: witness index must be an integer, got '4'", "root"),
    ("descend-float-index", forged(lambda: with_witness(descend_node(), index=4.0)),
     "root: witness index must be an integer, got 4.0", "root"),
    ("descend-fractional-index", forged(lambda: with_witness(descend_node(), index=2.5)),
     "root: witness index must be an integer, got 2.5", "root"),
    ("descend-float-index-out-of-range", forged(lambda: with_witness(descend_node(), index=7.0)),
     "root: witness index must be an integer, got 7.0", "root"),
    ("descend-short-witness", forged(lambda: with_witness(descend_node(), exponents=(4, 4, 4))),
     "root: witness tuple (4, 4, 4) does not have length 4", "root"),
    ("descend-zero-witness-entry", forged(lambda: with_witness(descend_node(), exponents=(4, 4, 4, 0))),
     "root: witness entries must be positive integers: (4, 4, 4, 0)", "root"),
    ("descend-str-witness-entry", forged(lambda: with_witness(descend_node(), exponents=(4, 4, 4, "4"))),
     "root: witness entries must be positive integers: (4, 4, 4, '4')", "root"),
    ("descend-two-children",
     forged(lambda: descend_node()._replace(children=descend_node().children * 2)),
     "root: descend carries exactly one child", "root"),
    ("descend-child-differs", forged(lambda: with_child(descend_node(), 0, exponents=(4, 4, 4, 8))),
     "root: child tuple differs from the witness tuple", "root"),
    ("descend-not-below",
     forged(lambda: with_child(with_witness(descend_node(), exponents=(4, 4, 4, 12)), 0, exponents=(4, 4, 4, 12))),
     "root: witness tuple is not strictly below in the coordinate divisor order", "root"),
    ("descend-other-index", forged(lambda: with_witness(descend_node(), index=2)),
     "root: witness tuple is not strictly below in the coordinate divisor order", "root"),
    ("descend-child-not-rigid", forged(lambda: with_child(descend_node(), 0, status=Status.UNKNOWN)),
     "root: child status UNKNOWN does not establish rigidity", "root"),
    ("descend-child-fails", forged(lambda: with_child(descend_node(), 0, rule=RuleId.N3_T3)),
     "root.children[0]: N3_T3 side condition fails for (4, 4, 4, 4): needs length 3, in T_n, "
     "reciprocal sum > 1", "root.children[0]"),
    ("descend-grandchild-not-rigid",
     forged(lambda: chain_node()._replace(
         children=(with_child(chain_node().children[0], 0, status=Status.NON_RIGID),))),
     "root.children[0]: child status NON_RIGID does not establish rigidity", "root.children[0]"),
    ("descend-great-grandchild-fails", forged(lambda: chain_node(bottom=RuleId.N3_T3)),
     "root.children[0].children[0].children[0]: N3_T3 side condition fails for (4, 4, 4, 4): needs length 3, "
     "in T_n, reciprocal sum > 1", "root.children[0].children[0].children[0]"),
]


class TestErrorPins:
    """The exact text and path of every parser and replay error."""

    def test_the_bases_are_valid(self):
        for node in (descend_node(), recursive_node(), chain_node()):
            assert bk.replay(node)
            assert certificate_from_dict(node.to_dict()) == node

    @pytest.mark.parametrize(
        "case, message, path", [pytest.param(case, message, path, id=name) for name, case, message, path in ERROR_PINS]
    )
    def test_error_text_and_path(self, case, message, path):
        kind, build = case
        check = certificate_from_dict if kind == "parse" else bk.verify_certificate
        subject = build()
        with pytest.raises(CertificateError) as excinfo:
            check(subject)
        assert (str(excinfo.value), excinfo.value.path) == (message, path)
        if kind == "replay":
            assert bk.replay(subject) is False


# (forged certificate, the same certificate with each bool replaced by the
# int it equals, error text, path).  Replay took a bool for the int it
# equals, so each forged certificate replayed, and rendered to text with
# ``True`` or ``False`` in it, which the parser rejects as invalid JSON.
BOOLEAN_FORGERIES = [
    pytest.param(lambda: leaf(RuleId.NOT_IN_TN, (True, 2, 3), Status.NON_RIGID),
                 lambda: leaf(RuleId.NOT_IN_TN, (1, 2, 3), Status.NON_RIGID),
                 "root: entries must be positive integers: (True, 2, 3)", "root", id="entry"),
    pytest.param(lambda: with_witness(classified((12, 4, 4, 4)), index=True),
                 lambda: with_witness(classified((12, 4, 4, 4)), index=1),
                 "root: witness index must be an integer, got True", "root", id="descend-index"),
    pytest.param(lambda: with_witness(recursive_node(), index=False),
                 lambda: with_witness(recursive_node(), index=0),
                 "root: witness index must be an integer, got False", "root", id="recursive-index"),
    pytest.param(lambda: leaf(RuleId.N3_T3, (2, 3, 4), witness=Witness(exponents=(True, 3, 4))),
                 lambda: leaf(RuleId.N3_T3, (2, 3, 4), witness=Witness(exponents=(1, 3, 4))),
                 "root: witness tuple must be a list of integers, got (True, 3, 4)", "root", id="witness-tuple"),
    pytest.param(lambda: with_witness(recursive_node(), subsets=((True, 2), (True, 3), (2, 3))),
                 lambda: with_witness(recursive_node(), subsets=((1, 2), (1, 3), (2, 3))),
                 "root: witness subsets must be lists of integers, got ((True, 2), (True, 3), (2, 3))", "root",
                 id="witness-subsets"),
    pytest.param(lambda: with_child(descend_node(), 0, witness=Witness(index=True)),
                 lambda: with_child(descend_node(), 0, witness=Witness(index=1)),
                 "root.children[0]: witness index must be an integer, got True", "root.children[0]",
                 id="child-witness-index"),
]


class TestIntegerRule:
    """Replay takes the parser's integer rule: an int, and never a bool."""

    @pytest.mark.parametrize("forge, fix, message, path", BOOLEAN_FORGERIES)
    def test_replay_rejects_a_bool(self, forge, fix, message, path):
        fixed = fix()
        assert bk.replay(fixed)
        assert certificate_from_json(certificate_to_json(fixed)) == fixed
        forgery = forge()
        assert forgery == fixed  # a bool equals the int it stands for
        assert bk.replay(forgery) is False
        with pytest.raises(CertificateError) as excinfo:
            bk.verify_certificate(forgery)
        assert (str(excinfo.value), excinfo.value.path) == (message, path)
        with pytest.raises(CertificateError, match="invalid JSON"):
            certificate_from_json(certificate_to_json(forgery))

    def test_replay_rejects_a_bool_permutation(self):
        # (True, 2, 3) == (1, 2, 3), so the identity test alone passed it.
        forgery = leaf(RuleId.N3_T3, (2, 3, 4), permutation=(True, 2, 3))
        assert bk.replay(forgery._replace(permutation=(1, 2, 3)))
        assert bk.replay(forgery) is False
        with pytest.raises(CertificateError) as excinfo:
            bk.verify_certificate(forgery)
        assert (str(excinfo.value), excinfo.value.path) == ("root: invalid permutation (True, 2, 3)", "root")

    def test_int_subclasses_other_than_bool_still_parse(self):
        # The one type pass fails on them, and the test per entry accepts them.
        class Entry(int):
            pass

        payload = descend_payload()
        payload["tuple"] = [Entry(v) for v in payload["tuple"]]
        payload["witness"]["index"] = Entry(4)
        parsed = certificate_from_dict(payload)
        assert parsed == descend_node() and bk.replay(parsed)
        assert {type(v) for v in parsed.exponents} == {Entry}

    def test_members_parse_as_their_names(self):
        # RuleId(...) and Status(...) take a member as well as its name.
        payload = descend_payload()
        payload.update(rule=RuleId.DESCEND, status=Status.RIGID)
        assert certificate_from_dict(payload) == descend_node()


# --- parse and replay under mutation ---------------------------------------


@lru_cache(maxsize=None)
def fuzz_bases():
    """Sidecar entries of two small censuses, at most four of each rule:
    leaves of every rule, DESCEND trees and RECURSIVE_SUBTUPLES trees."""
    by_rule = {}
    for length, max_exponent in ((4, 12), (5, 6)):
        sidecar = json.loads(bk.run_census(CensusSpec(length=length, max_exponent=max_exponent)).certificates_json())
        for payload in sidecar.values():
            by_rule.setdefault(payload["rule"], []).append(payload)
    return tuple(payload for rule in sorted(by_rule) for payload in by_rule[rule][:4])


def slots(value, found):
    """Every (container, key) pair inside ``value``, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        found.append((value, key))
        slots(item, found)
    return found


JUNK = st.sampled_from([
    True, False, "3", 3.0, -1, 0, 2**70, None, [], [1, "x"], [[2, 3]], {}, ["LOW_SUM"], {"rule": "RIGID"},
    "LOW_SUM", "RIGID", "DESCEND", "NON_RIGID",
]).map(copy.deepcopy)  # a later mutation may write into a list or dict drawn here


def mutate(data, payload):
    """Change ``payload`` in place once, or wrap it as the child of a base
    node; returns the payload to parse."""
    action = data.draw(st.sampled_from(["replace", "drop", "add", "nest"]))
    if action == "nest":
        parent = copy.deepcopy(data.draw(st.sampled_from(fuzz_bases())))
        parent["children"] = [payload, *parent["children"]][: data.draw(st.integers(1, 2))]
        return parent
    dicts = [payload] + [item for container, key in slots(payload, []) if isinstance(item := container[key], dict)]
    if action == "drop":
        target = data.draw(st.sampled_from(dicts))
        if target:
            del target[data.draw(st.sampled_from(sorted(target, key=str)))]
    elif action == "add":
        data.draw(st.sampled_from(dicts))[data.draw(st.sampled_from(["extra", "index", "subsets", "rule", 7]))] = (
            data.draw(JUNK)
        )
    else:
        container, key = data.draw(st.sampled_from(slots(payload, [])))
        container[key] = data.draw(JUNK)
    return payload


class TestFuzz:
    def test_the_bases_round_trip_and_replay(self):
        assert {payload["rule"] for payload in fuzz_bases()} >= {"DESCEND", "RECURSIVE_SUBTUPLES", "N4_EVEN_GCD"}
        for payload in fuzz_bases():
            parsed = certificate_from_dict(payload)
            assert certificate_to_json(parsed, indent=2) == json.dumps(payload, sort_keys=True, indent=2)
            assert bk.replay(parsed)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_parse_and_replay_of_mutated_sidecar_entries(self, data):
        payload = copy.deepcopy(data.draw(st.sampled_from(fuzz_bases())))
        for _ in range(data.draw(st.integers(1, 3))):
            payload = mutate(data, payload)
        try:
            parsed = certificate_from_dict(payload)
        except CertificateError:
            return
        assert isinstance(parsed, Certificate)
        assert certificate_to_json(parsed, indent=2) == json.dumps(payload, sort_keys=True, indent=2)
        assert certificate_from_json(certificate_to_json(parsed)) == parsed
        verdict = bk.replay(parsed)
        assert verdict is True or verdict is False
