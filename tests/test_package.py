"""The package namespace: every exported name, eager or loaded on first
access, is the object its submodule defines."""

import pytest

import brieskorn
from brieskorn import backend, certificates, engine, errors, tuples

#: The names ``brieskorn`` exported when it imported every submodule
#: eagerly, by the submodule that defines them.
EXPORTS = {
    "backend": ["active_backend"],
    "census": [
        "CensusResult", "CensusRow", "CensusSpec", "CensusSummary", "enumerate_universe",
        "run_census", "universe_size", "write_census_files",
    ],
    "certificates": [
        "Certificate", "RuleId", "Status", "Witness", "certificate_from_dict",
        "certificate_from_json", "certificate_id", "certificate_to_json", "replay",
        "verify_certificate",
    ],
    "engine": [
        "RULE_PRIORITY", "Budget", "Classification", "KernelBound", "KnowledgeBase", "classify",
        "kernel_degree_bound", "rule_collection", "rule_cotype_high", "rule_descend",
        "rule_equal_exponents", "rule_i_sum", "rule_low_sum", "rule_n3", "rule_not_in_tn",
        "rule_recursive_subtuples",
    ],
    "errors": ["BrieskornError", "CertificateError", "InputError", "SoundnessError"],
    "proj": ["ProjClass", "ProjEdge", "proj_classes", "proj_edges"],
    "tuples": [
        "Exponents", "InvariantReport", "as_exponents", "coordinate_gcd", "coordinate_gcds",
        "cotype", "cotype_sets", "degrees", "divisors", "gcd_critical_indices", "in_tn",
        "invariant_report", "lcm_critical_indices", "lcm_drop", "lcm_gcd", "lcm_stable_indices",
        "leq_at", "lt_at", "normalization", "omit", "omitted_gcds", "omitted_lcms",
        "reciprocal_sum", "subtuple", "type_set", "type_size",
    ],
}
PUBLIC = set(EXPORTS) | {name for names in EXPORTS.values() for name in names}


def test_exports_are_the_submodules_objects():
    from brieskorn import census, proj

    modules = {
        "backend": backend, "census": census, "certificates": certificates, "engine": engine,
        "errors": errors, "proj": proj, "tuples": tuples,
    }
    for module_name, names in EXPORTS.items():
        module = modules[module_name]
        assert getattr(brieskorn, module_name) is module
        for name in names:
            assert getattr(brieskorn, name) is getattr(module, name), name


def test_listing_covers_every_export():
    assert PUBLIC <= set(brieskorn.__all__)
    assert PUBLIC <= set(dir(brieskorn))
    namespace = {}
    exec("from brieskorn import *", namespace)
    assert PUBLIC <= set(namespace)


def test_unknown_attribute_is_absent():
    assert not hasattr(brieskorn, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        brieskorn.no_such_name
