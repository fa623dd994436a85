"""The contract every public record keeps: immutable, equal and hashed by
value, shown with its class and field names, and unchanged by a pickle
round trip (census children send their rows back that way)."""

import copy
import pickle

import pytest

import brieskorn as bk
from brieskorn import tuples as tp
from brieskorn.certificates import LEAF_RULES, RuleId, Status
from brieskorn.errors import InputError


def forged(record, change):
    """``record`` with ``change`` to its fields, built past its validation."""
    return tuple.__new__(type(record), (record._asdict() | change).values())


def census_result():
    return bk.run_census(bk.CensusSpec(length=4, max_exponent=4))


def proj_class():
    universe = list(bk.enumerate_universe(bk.CensusSpec(length=3, max_exponent=6)))
    return next(cls for cls in bk.proj_classes(universe) if cls.edges)


#: Each record type, a builder that makes a fresh record from the same
#: fields on every call, and the record's field names in order.
RECORDS = {
    "Witness": (
        lambda: bk.Witness(index=2, exponents=(4, 4, 4, 6), subsets=((1, 2),)),
        ("index", "exponents", "subsets"),
    ),
    "Certificate": (
        lambda: bk.Certificate(RuleId.N3_T3, (2, 3, 4), Status.RIGID, (1, 2, 3)),
        ("rule", "exponents", "status", "permutation", "witness", "children"),
    ),
    "LeafRule": (
        lambda: LEAF_RULES[0]._replace(),
        ("rule", "status", "candidates", "holds", "condition"),
    ),
    "Budget": (
        lambda: bk.Budget(max_depth=3, max_divisor_witnesses=5),
        ("max_depth", "max_divisor_witnesses"),
    ),
    "Classification": (
        lambda: bk.classify((4, 4, 4, 12)),
        ("status", "certificate", "budget_hit"),
    ),
    "KernelBound": (
        lambda: bk.kernel_degree_bound((2, 3, 3, 4)),
        ("value", "rigid_critical", "undecided"),
    ),
    "InvariantReport": (
        lambda: tp.invariant_report((2, 3, 3, 4)),
        (
            "exponents", "total_lcm", "total_gcd", "normalization", "degrees", "type", "cotype",
            "gcd_critical", "lcm_critical", "lcm_stable", "coordinate_gcds", "in_tn",
            "critical_lcm_drop", "reciprocal_sum",
        ),
    ),
    "CensusSpec": (
        lambda: bk.CensusSpec(length=4, max_exponent=9, min_exponent=2, budget=bk.Budget(max_depth=2)),
        ("length", "max_exponent", "min_exponent", "budget"),
    ),
    "CensusRow": (
        lambda: census_result().rows[-1],
        (
            "exponents", "status", "rule", "cotype", "in_tn", "certificate_id", "budget_hit",
            "sidecar_entry", "csv_line",
        ),
    ),
    "CensusSummary": (
        lambda: census_result().summary,
        ("spec", "row_count", "status_counts", "rule_counts", "unknown_budget_hits"),
    ),
    "CensusResult": (census_result, ("spec", "rows", "summary")),
    "ProjEdge": (
        lambda: proj_class().edges[0],
        ("source", "target", "index", "veronese_index", "alignment"),
    ),
    "ProjClass": (
        proj_class,
        ("members", "edges", "statuses", "mixed", "relative_to_universe"),
    ),
}

#: Records whose fields hold functions, which pickle cannot send.
UNPICKLABLE = {"LeafRule"}


@pytest.fixture(params=sorted(RECORDS))
def record_case(request):
    build, fields = RECORDS[request.param]
    return request.param, build, fields


def test_fields_cannot_be_assigned_or_added(record_case):
    _, build, fields = record_case
    record = build()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_equal_fields_give_equal_records_and_hashes(record_case):
    _, build, fields = record_case
    first, second = build(), build()
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert not first != second
    assert [getattr(first, field) for field in fields] == [getattr(second, field) for field in fields]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_named_tuples_replace_and_compare_as_tuples(name):
    build, fields = RECORDS[name]
    record = build()
    assert record._replace() == record
    assert record._replace(**{fields[0]: getattr(build(), fields[0])}) == record
    assert record == tuple(getattr(record, field) for field in fields)


def test_repr_names_the_class_and_its_fields(record_case):
    name, build, fields = record_case
    text = repr(build())
    assert text.startswith(f"{name}(")
    position = 0
    for field in fields:
        position = text.index(f"{field}=", position)


@pytest.mark.parametrize("name", sorted(set(RECORDS) - UNPICKLABLE))
def test_pickle_round_trip(name):
    record = RECORDS[name][0]()
    restored = pickle.loads(pickle.dumps(record))
    assert restored == record
    assert type(restored) is type(record)
    assert hash(restored) == hash(record)


class TestDefaultsAndKeywords:
    def test_witness(self):
        assert bk.Witness() == bk.Witness(index=None, exponents=None, subsets=None)

    def test_certificate(self):
        node = bk.Certificate(
            rule=RuleId.N3_T3, exponents=(2, 3, 4), status=Status.RIGID, permutation=(1, 2, 3)
        )
        assert node.witness is None and node.children == ()

    def test_budget(self):
        assert bk.Budget() == bk.Budget(max_depth=6, max_divisor_witnesses=32)
        assert bk.Budget(4) == bk.Budget(max_depth=4)
        assert bk.Budget() != bk.Budget(max_depth=5)

    def test_classification(self):
        assert bk.Classification(Status.UNKNOWN, None).budget_hit is False

    def test_census_spec(self):
        spec = bk.CensusSpec(length=3, max_exponent=4)
        assert spec.min_exponent == 1 and spec.budget == bk.Budget()
        assert spec == bk.CensusSpec(3, 4, 1, bk.Budget())
        assert spec != bk.CensusSpec(length=3, max_exponent=5)

    def test_proj_class(self):
        assert bk.ProjClass((), (), (), False).relative_to_universe is True


class TestValidation:
    def test_budget_messages(self):
        for fields, text in [
            (dict(max_depth=-1), "Budget(max_depth=-1, max_divisor_witnesses=32)"),
            (dict(max_divisor_witnesses=0), "Budget(max_depth=6, max_divisor_witnesses=0)"),
        ]:
            with pytest.raises(InputError) as excinfo:
                bk.Budget(**fields)
            assert str(excinfo.value) == f"invalid budget {text}"

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(max_depth=1.5), "Budget.max_depth must be an integer, got 1.5"),
            (dict(max_depth=True), "Budget.max_depth must be an integer, got True"),
            (dict(max_depth="3"), "Budget.max_depth must be an integer, got '3'"),
            (dict(max_divisor_witnesses=None), "Budget.max_divisor_witnesses must be an integer, got None"),
            (dict(max_divisor_witnesses=2.0), "Budget.max_divisor_witnesses must be an integer, got 2.0"),
        ],
    )
    def test_budget_type_messages(self, fields, message):
        with pytest.raises(InputError) as excinfo:
            bk.Budget(**fields)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(length=2, max_exponent=5), "census tuples need length >= 3, got 2"),
            (dict(length=3, max_exponent=5, min_exponent=0), "minimum exponent must be >= 1, got 0"),
            (dict(length=3, max_exponent=2, min_exponent=5), "empty exponent range [5, 2]"),
            (dict(length=3.0, max_exponent=4), "CensusSpec.length must be an integer, got 3.0"),
            (dict(length=3, max_exponent=4.5), "CensusSpec.max_exponent must be an integer, got 4.5"),
            (
                dict(length=3, max_exponent=4, min_exponent=2.0),
                "CensusSpec.min_exponent must be an integer, got 2.0",
            ),
            (dict(length=True, max_exponent=4), "CensusSpec.length must be an integer, got True"),
            (dict(length=3, max_exponent=4, budget=None), "CensusSpec.budget must be a Budget, got None"),
            (dict(length=3, max_exponent=4, budget=5), "CensusSpec.budget must be a Budget, got 5"),
        ],
    )
    def test_census_spec_messages(self, fields, message):
        with pytest.raises(InputError) as excinfo:
            bk.CensusSpec(**fields)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "workers, message",
        [
            (1.5, "workers must be an integer, got 1.5"),
            (True, "workers must be an integer, got True"),
            (0, "workers must be >= 1, got 0"),
        ],
    )
    def test_run_census_workers_messages(self, workers, message):
        with pytest.raises(InputError) as excinfo:
            bk.run_census(bk.CensusSpec(length=3, max_exponent=4), workers=workers)
        assert str(excinfo.value) == message

    def test_knowledge_base_budget(self):
        assert bk.KnowledgeBase(None).budget == bk.KnowledgeBase().budget == bk.Budget()
        for budget in ("x", 5, bk.CensusSpec(length=3, max_exponent=4)):
            with pytest.raises(InputError) as excinfo:
                bk.KnowledgeBase(budget)
            assert str(excinfo.value) == f"KnowledgeBase.budget must be a Budget, got {budget!r}"

    # Every public entry point that takes a memo; None still means a
    # fresh memo with the default budget.
    MEMO_CALLS = {
        "classify": lambda kb: bk.classify((2, 3, 4), kb),
        "kernel_degree_bound": lambda kb: bk.kernel_degree_bound((2, 3, 3, 4), kb),
        "rule_recursive_subtuples": lambda kb: bk.rule_recursive_subtuples((2, 5, 7, 3, 3, 3), kb),
        "rule_descend": lambda kb: bk.rule_descend((4, 4, 4, 12), kb),
        "proj_classes": lambda kb: bk.proj_classes([(2, 3, 4), (2, 3, 8)], kb),
    }

    @pytest.mark.parametrize("call", sorted(MEMO_CALLS))
    def test_a_memo_of_the_wrong_type_is_named(self, call):
        run = self.MEMO_CALLS[call]
        assert run(None) == run(bk.KnowledgeBase())
        for kb in (bk.Budget(), "x", 5):
            with pytest.raises(InputError) as excinfo:
                run(kb)
            assert str(excinfo.value) == f"kb must be a KnowledgeBase, got {kb!r}"

    @pytest.mark.parametrize("call", [bk.run_census, bk.enumerate_universe, bk.universe_size])
    def test_a_census_spec_of_the_wrong_type_is_named(self, call):
        for spec in ((3, 4), None, bk.Budget()):
            with pytest.raises(InputError) as excinfo:
                call(spec)
            assert str(excinfo.value) == f"spec must be a CensusSpec, got {spec!r}"

    @pytest.mark.parametrize("call", [bk.proj_classes, bk.proj_edges])
    def test_a_universe_that_is_not_a_collection_is_named(self, call):
        for universe in (5, None):
            with pytest.raises(InputError) as excinfo:
                call(universe)
            assert str(excinfo.value) == f"universe must be a collection of tuples, got {universe!r}"

    def test_census_files_of_a_wrong_result_leave_no_directory(self, tmp_path):
        out = tmp_path / "out"
        for result in ("x", census_result().rows):
            with pytest.raises(InputError) as excinfo:
                bk.write_census_files(result, out)
            assert str(excinfo.value) == f"result must be a CensusResult, got {result!r}"
        assert not out.exists()

    # The records that validate their fields: a valid record, and changes
    # to its fields with the message each raises; a wrong type is named
    # before a value out of range.
    INVALID = {
        "Budget": (
            bk.Budget(max_depth=1),
            [
                (dict(max_depth=-1), "invalid budget Budget(max_depth=-1, max_divisor_witnesses=32)"),
                (
                    dict(max_depth=-1, max_divisor_witnesses=2.0),
                    "Budget.max_divisor_witnesses must be an integer, got 2.0",
                ),
            ],
        ),
        "CensusSpec": (
            bk.CensusSpec(length=3, max_exponent=4),
            [
                (dict(min_exponent=5), "empty exponent range [5, 4]"),
                (dict(length=2, min_exponent=0.5), "CensusSpec.min_exponent must be an integer, got 0.5"),
                (dict(length=2, budget=(6, 32)), "CensusSpec.budget must be a Budget, got (6, 32)"),
            ],
        ),
    }

    # Every way to build a record from field values.  copy and pickle start
    # from a record forged past the constructor.
    BUILDS = {
        "constructor": lambda record, change: type(record)(**(record._asdict() | change)),
        "_make": lambda record, change: type(record)._make((record._asdict() | change).values()),
        "_replace": lambda record, change: record._replace(**change),
        "copy": lambda record, change: copy.copy(forged(record, change)),
        **{
            f"pickle-{protocol}": (
                lambda record, change, protocol=protocol: pickle.loads(pickle.dumps(forged(record, change), protocol))
            )
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        },
    }

    @pytest.mark.parametrize("build", sorted(BUILDS))
    @pytest.mark.parametrize("name", sorted(INVALID))
    def test_every_way_to_build_validates(self, name, build):
        record, cases = self.INVALID[name]
        made = self.BUILDS[build](record, {})
        assert made == record and type(made) is type(record)
        for change, message in cases:
            with pytest.raises(InputError) as excinfo:
                self.BUILDS[build](record, change)
            assert str(excinfo.value) == message

    def test_unpickling_goes_through_the_constructor(self):
        for record in (bk.Budget(max_depth=1), bk.CensusSpec(length=3, max_exponent=4)):
            build, args = record.__reduce__()
            assert build is type(record) and build(*args) == record

    def test_a_pickled_field_of_the_wrong_type_is_rejected_on_loading(self):
        class Tampered:
            def __reduce__(self):
                return bk.Budget, (3.0, 32)

        data = pickle.dumps(Tampered())
        with pytest.raises(InputError, match=r"^Budget\.max_depth must be an integer, got 3\.0$"):
            pickle.loads(data)
