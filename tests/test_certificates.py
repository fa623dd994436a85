"""Certificate serialization round trips and independent replay."""

import hashlib
import json
import re

import pytest

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
from brieskorn.errors import CertificateError


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
