"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every expected value is exact; tolerances are the stated wall-clock
targets for the two timed criteria.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import gcd, lcm

import brieskorn as bk
from brieskorn import census
from brieskorn import tuples as tp
from brieskorn.census import CensusSpec
from brieskorn.certificates import RuleId, Status, certificate_from_dict
from brieskorn.engine import RULE_PRIORITY


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def test_criterion_1_worked_example_regression():
    with criterion(1, "worked-example regression under 1 s"):
        start = time.monotonic()
        kb = bk.KnowledgeBase()

        assert bk.classify((2, 3, 3, 2), kb).status is Status.NON_RIGID

        decided = bk.classify((10, 3, 3, 4), kb)
        assert decided.status is Status.RIGID
        assert decided.certificate.rule is RuleId.COTYPE_GE_2_N4

        open_case = bk.classify((2, 3, 3, 4), kb)
        assert open_case.status is Status.UNKNOWN
        assert open_case.certificate is None

        recursive = bk.classify((2, 5, 7, 3, 3, 3), kb)
        assert recursive.status is Status.RIGID
        assert recursive.certificate.rule is RuleId.RECURSIVE_SUBTUPLES
        children = [child.exponents for child in recursive.certificate.children]
        assert children == [(7, 3, 3, 3), (5, 3, 3, 3), (2, 3, 3, 3)]
        assert all(child.status.implies_rigid for child in recursive.certificate.children)

        assert time.monotonic() - start < 1.0


def test_criterion_2_equal_exponents_beyond_low_sum():
    with criterion(2, "equal exponents 4..7 rigid via the dedicated rule"):
        for a in range(4, 8):
            entries = (a, a, a, a)
            assert tp.reciprocal_sum(entries) > Fraction(1, 2)
            assert bk.rule_low_sum(entries) is None
            outcome = bk.classify(entries)
            assert outcome.status is Status.RIGID
            assert outcome.certificate.rule is RuleId.EQUAL_EXPONENTS


def _order_witnesses(entries, index):
    value = entries[index - 1]
    floor = tp.coordinate_gcd(entries, index)
    return [d for d in tp.divisors(value) if d != value and d % floor == 0]


def test_criterion_3_identity_oracle_suite():
    with criterion(3, "exhaustive identity suite, lengths 3..5, entries 1..10, under 30 s"):
        start = time.monotonic()
        checked = 0
        for n in (3, 4, 5):
            full_sets = (
                [frozenset(m) for k in range(n + 1) for m in combinations(range(1, n + 1), k)]
                if n <= 4
                else None
            )
            for entries in product(range(1, 11), repeat=n):
                bar = tp.degrees(entries)
                critical = tp.lcm_critical_indices(entries)

                # degree-tuple dualities
                assert tp.type_size(bar) == len(critical)
                assert tp.gcd_critical_indices(bar) == critical
                assert tp.lcm_gcd(bar)[1] == 1
                assert tp.degrees(bar) == tp.normalization(entries)

                # witness characterization of critical indices
                for index in range(1, n + 1):
                    witnesses = _order_witnesses(entries, index)
                    assert (index in critical) == bool(witnesses)
                    if witnesses:
                        below = entries[: index - 1] + (witnesses[0],) + entries[index:]
                        assert tp.lt_at(below, entries, index)

                # coordinate gcd is constant along the divisor order
                for index in range(1, n + 1):
                    value = entries[index - 1]
                    for multiple in range(2 * value, 11, value):
                        above = entries[: index - 1] + (multiple,) + entries[index:]
                        if tp.leq_at(entries, above, index):
                            assert tp.coordinate_gcd(entries, index) == tp.coordinate_gcd(
                                above, index
                            )

                # drop factor is 1 exactly off the critical set
                if full_sets is not None:
                    subsets = full_sets
                else:
                    subsets = [frozenset(), critical, frozenset(range(1, n + 1))]
                    subsets += [frozenset(m) for m in combinations(range(1, n + 1), 2)]
                for subset in subsets:
                    assert (tp.lcm_drop(entries, subset) == 1) == (not (subset & critical))
                checked += 1
        elapsed = time.monotonic() - start
        assert checked == 10**3 + 10**4 + 10**5
        assert elapsed < 30.0


def _expected_three_entry_status(entries):
    if min(entries) < 2 or entries.count(2) > 1:
        return Status.NON_RIGID
    total = sum(Fraction(1, value) for value in entries)
    return Status.STABLY_RIGID if total <= 1 else Status.RIGID


def test_criterion_4_totality_for_three_entry_tuples():
    with criterion(4, "three-entry census to 50 fully decided, matching the direct rule"):
        result = bk.run_census(CensusSpec(length=3, max_exponent=50))
        assert result.summary.row_count == bk.universe_size(result.spec) == 22100
        for row in result.rows:
            assert row.status is not Status.UNKNOWN
            assert row.status is _expected_three_entry_status(row.exponents)


def test_criterion_5_soundness_and_replay():
    with criterion(5, "length-4 census to 10: sound statuses, all certificates replay"):
        result = bk.run_census(CensusSpec(length=4, max_exponent=10))
        seen = {}
        for row in result.rows:
            canonical = tuple(sorted(row.exponents))
            assert canonical not in seen  # one row per permutation class
            seen[canonical] = row.status
            if row.status is Status.NON_RIGID:
                assert row.certificate.rule is RuleId.NOT_IN_TN
                assert not row.in_tn
            if row.status.implies_rigid:
                assert row.in_tn  # rigid verdicts stay inside the candidate set
        certified = [row for row in result.rows if row.certificate is not None]
        assert certified and all(bk.replay(row.certificate) for row in certified)
        # the sidecar replays too, independently of the in-memory objects
        sidecar = json.loads(result.certificates_json())
        assert len(sidecar) == len({row.certificate_id for row in certified})
        assert all(bk.replay(certificate_from_dict(payload)) for payload in sidecar.values())


def test_criterion_6_derived_family_coverage():
    with criterion(6, "scaled coprime quadruples and low-sum-with-critical-entry families rigid"):
        kb = bk.KnowledgeBase()

        scaled = 0
        for a in range(3, 61):
            top = 60 // a
            for ks in combinations_with_replacement(range(1, top + 1), 4):
                if all(gcd(x, y) == 1 for x, y in combinations(ks, 2)):
                    outcome = bk.classify(tuple(a * k for k in ks), kb)
                    assert outcome.status.implies_rigid, (a, ks, outcome.status)
                    scaled += 1
        assert scaled > 1000

        cutoff = RULE_PRIORITY.index(RuleId.I_SUM)
        matched = 0
        for b, c, d in combinations_with_replacement(range(3, 31), 3):
            if Fraction(1, b) + Fraction(1, c) + Fraction(1, d) >= Fraction(1, 2):
                continue
            rest_lcm = lcm(b, c, d)
            for a in range(1, 31):
                if rest_lcm % a == 0:
                    continue
                outcome = bk.classify((a, b, c, d), kb)
                assert outcome.status.implies_rigid, (a, b, c, d, outcome.status)
                assert RULE_PRIORITY.index(outcome.certificate.rule) <= cutoff
                matched += 1
        assert matched > 1000


def test_criterion_7_proj_classes():
    with criterion(7, "length-4 universe to 10 reproduces the mixed three-member class"):
        universe = list(bk.enumerate_universe(CensusSpec(length=4, max_exponent=10)))
        classes = bk.proj_classes(universe)
        targets = {(2, 2, 3, 3), (2, 3, 3, 4), (3, 3, 4, 10)}
        containing = [cls for cls in classes if targets <= set(cls.members)]
        assert len(containing) == 1
        cls = containing[0]
        statuses = dict(cls.statuses)
        assert statuses[(2, 2, 3, 3)] is Status.NON_RIGID
        assert statuses[(2, 3, 3, 4)] is Status.UNKNOWN
        assert statuses[(3, 3, 4, 10)] is Status.RIGID
        assert cls.mixed
        connecting = {
            (edge.source, edge.target): edge.veronese_index
            for edge in cls.edges
            if edge.source in targets and edge.target in targets
        }
        assert connecting[(2, 2, 3, 3), (2, 3, 3, 4)] == 2
        assert connecting[(2, 3, 3, 4), (3, 3, 4, 10)] == 5


def test_criterion_8_census_determinism(monkeypatch):
    # 715 rows fall under the floor: lower it so that children fork
    monkeypatch.setattr(census, "MIN_ROWS_PER_PROCESS", 1)
    with criterion(8, "census output identical for different worker counts"):
        spec = CensusSpec(length=4, max_exponent=10)
        serial = bk.run_census(spec, workers=1)
        parallel = bk.run_census(spec, workers=4)
        assert serial.csv_text() == parallel.csv_text()
        assert serial.certificates_json() == parallel.certificates_json()
