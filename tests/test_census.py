"""Census enumeration, aggregation, determinism, and file outputs."""

import hashlib
import importlib.util
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import brieskorn as bk
from brieskorn import census
from brieskorn.census import CSV_HEADER, CensusSpec
from brieskorn.certificates import RuleId, Status, certificate_from_dict, certificate_id
from brieskorn.errors import CertificateError, InputError, SoundnessError
from brieskorn.tuples import Facts


class TestSpec:
    def test_validation(self):
        with pytest.raises(InputError):
            CensusSpec(length=2, max_exponent=5)
        with pytest.raises(InputError):
            CensusSpec(length=3, max_exponent=5, min_exponent=0)
        with pytest.raises(InputError):
            CensusSpec(length=3, max_exponent=2, min_exponent=5)


class TestEnumeration:
    def test_row_count_matches_closed_form(self):
        for spec in (
            CensusSpec(length=3, max_exponent=6),
            CensusSpec(length=4, max_exponent=4),
            CensusSpec(length=5, max_exponent=3, min_exponent=2),
        ):
            universe = list(bk.enumerate_universe(spec))
            assert len(universe) == bk.universe_size(spec)
            assert universe == sorted(universe)
            assert all(t == tuple(sorted(t)) for t in universe)

    def test_single_value_universe(self):
        spec = CensusSpec(length=4, max_exponent=1)
        assert list(bk.enumerate_universe(spec)) == [(1, 1, 1, 1)]


class TestRows:
    def test_small_universe_rows(self):
        result = bk.run_census(CensusSpec(length=4, max_exponent=4))
        rows = {row.exponents: row for row in result.rows}
        assert len(rows) == bk.universe_size(result.spec) == 35
        assert rows[(2, 3, 3, 4)].status is Status.UNKNOWN
        assert rows[(2, 3, 3, 4)].certificate_id == ""
        assert rows[(3, 3, 3, 3)].status is Status.RIGID
        assert rows[(2, 2, 3, 4)].status is Status.NON_RIGID
        assert rows[(2, 2, 3, 4)].rule is RuleId.NOT_IN_TN
        assert rows[(1, 1, 1, 1)].reciprocal_sum == 4

    def test_equal_exponent_slices(self):
        for a in (4, 5, 6, 7):
            spec = CensusSpec(length=4, max_exponent=a, min_exponent=a)
            rows = bk.run_census(spec).rows
            assert len(rows) == 1
            assert rows[0].status is Status.RIGID
            assert rows[0].rule is RuleId.EQUAL_EXPONENTS

    def test_exponent_one_universe_is_non_rigid(self):
        rows = bk.run_census(CensusSpec(length=4, max_exponent=1)).rows
        assert all(row.status is Status.NON_RIGID for row in rows)

    def test_summary_counts_are_consistent(self):
        result = bk.run_census(CensusSpec(length=3, max_exponent=8))
        counts = dict(result.summary.status_counts)
        assert sum(counts.values()) == result.summary.row_count == len(result.rows)
        assert counts[Status.UNKNOWN] == 0  # three-entry tuples are totally decided
        rendered = result.summary.render()
        assert "rows: " in rendered and "status counts:" in rendered

    def test_summary_budget_line_keeps_the_siblings_field(self):
        # siblings=16 is a fixed field of the format, not a budget
        spec = CensusSpec(length=3, max_exponent=3, budget=bk.Budget(max_depth=2, max_divisor_witnesses=5))
        lines = bk.run_census(spec).summary.render().splitlines()
        assert lines[1] == "budget depth=2 witnesses=5 siblings=16"


class TestCsv:
    def test_header_and_shape(self):
        result = bk.run_census(CensusSpec(length=3, max_exponent=3))
        lines = result.csv_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(result.rows)
        first = lines[1].split(";")
        assert len(first) == 7
        assert first[0] == "1,1,1"
        assert first[1] == "NON_RIGID"

    def test_exact_rationals_in_csv(self):
        result = bk.run_census(CensusSpec(length=3, max_exponent=3, min_exponent=2))
        by_tuple = {row.exponents: row for row in result.rows}
        assert str(by_tuple[(2, 3, 3)].reciprocal_sum) == "7/6"
        assert "7/6" in result.csv_text()


class TestDeterminismAndFiles:
    def test_worker_counts_agree_byte_for_byte(self, monkeypatch):
        # 126 rows fall under the floor: lower it so that children fork
        monkeypatch.setattr(census, "MIN_ROWS_PER_PROCESS", 1)
        spec = CensusSpec(length=4, max_exponent=6)
        serial = bk.run_census(spec, workers=1)
        parallel = bk.run_census(spec, workers=3)
        assert serial.csv_text() == parallel.csv_text()
        assert serial.certificates_json() == parallel.certificates_json()
        assert serial.summary.render() == parallel.summary.render()

    FOUR_CPUS = {0, 1, 2, 3}

    @pytest.mark.parametrize(
        "max_exponent, floor, affinity, cpu_count, workers, children",
        [
            # n=3 max 21 has 1,771 rows, max 22 has 2,024 and max 8 has 120
            pytest.param(21, None, FOUR_CPUS, 4, 5000, 0, id="below-twice-the-floor"),
            pytest.param(22, None, FOUR_CPUS, 4, 5000, 1, id="twice-the-floor"),
            pytest.param(22, None, {0}, 4, 5000, 0, id="one-cpu-affinity"),
            pytest.param(22, None, None, None, 5000, 0, id="no-affinity-no-cpu-count"),
            pytest.param(22, None, None, 4, 5000, 1, id="no-affinity-cpu-count"),
            pytest.param(8, 60, FOUR_CPUS, 4, 5000, 1, id="each-process-at-the-floor"),
            pytest.param(8, 61, FOUR_CPUS, 4, 5000, 0, id="each-process-under-the-floor"),
            pytest.param(8, 1, FOUR_CPUS, 8, 5000, 3, id="capped-at-affinity"),
            pytest.param(8, 1, FOUR_CPUS, 4, 2, 1, id="capped-at-workers"),
        ],
    )
    def test_pool_size_from_rows_and_cpus(
        self, monkeypatch, max_exponent, floor, affinity, cpu_count, workers, children
    ):
        # the stub classifies each child's chunk in this process, so no
        # child is ever started
        started = []

        def in_process(chunk, budget):
            started.append(chunk)
            rows = census._classify_chunk(chunk, budget)
            return lambda abort=False: rows

        monkeypatch.setattr(census, "_fork_chunk", in_process)
        monkeypatch.setattr(census.os, "cpu_count", lambda: cpu_count)
        if affinity is None:
            monkeypatch.delattr(census.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(
                census.os, "sched_getaffinity", lambda pid: affinity, raising=False
            )
        if floor is not None:
            monkeypatch.setattr(census, "MIN_ROWS_PER_PROCESS", floor)
        spec = CensusSpec(length=3, max_exponent=max_exponent)
        sized = bk.run_census(spec, workers=workers)
        assert len(started) == children
        assert sized.csv_text() == bk.run_census(spec).csv_text()

    def test_files_written_and_sidecar_replays(self, tmp_path):
        result = bk.run_census(CensusSpec(length=4, max_exponent=4))
        paths = bk.write_census_files(result, tmp_path / "out")
        assert paths["csv"].read_text(encoding="utf-8") == result.csv_text()
        assert "rows: 35" in paths["summary"].read_text(encoding="utf-8")
        sidecar = json.loads(paths["certificates"].read_text(encoding="utf-8"))
        assert sidecar  # decided rows produce certificates
        for key, payload in sidecar.items():
            certificate = certificate_from_dict(payload)
            assert bk.certificate_id(certificate) == key
            assert bk.replay(certificate)
        ids_in_rows = {row.certificate_id for row in result.rows if row.certificate_id}
        assert ids_in_rows == set(sidecar)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedChunks:
    """Each chunk after the first is classified in a forked child, which
    pipes its rows back; every child is reaped whether the census returns
    or raises, and a child's exception is raised in the caller."""

    SPEC = CensusSpec(length=3, max_exponent=8)  # 120 rows: two chunks of 60

    @pytest.fixture
    def two_chunks(self, monkeypatch):
        monkeypatch.setattr(census, "MIN_ROWS_PER_PROCESS", 1)
        monkeypatch.setattr(census.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def raise_on(self, monkeypatch, target, action):
        classify = census._classify_valid

        def stub(entries, *args):
            if entries == target:
                action()
            return classify(entries, *args)

        monkeypatch.setattr(census, "_classify_valid", stub)

    @pytest.mark.parametrize(
        "error",
        [
            SoundnessError("(8, 8, 8) is both RIGID and NON_RIGID"),
            # its __init__ rewrites its message, so the child sends args
            CertificateError("bad witness", "root.children[1]"),
        ],
        ids=["soundness", "certificate"],
    )
    def test_child_error_reaches_the_caller(self, two_chunks, monkeypatch, error):
        def fail():
            raise error

        self.raise_on(monkeypatch, (8, 8, 8), fail)  # the last row, in chunk 2
        with pytest.raises(type(error)) as excinfo:
            bk.run_census(self.SPEC, workers=2)
        assert type(excinfo.value) is type(error)
        assert str(excinfo.value) == str(error)
        assert vars(excinfo.value) == vars(error)
        no_child_left()

    def test_child_that_sends_nothing(self, two_chunks, monkeypatch):
        self.raise_on(monkeypatch, (8, 8, 8), lambda: os._exit(3))
        with pytest.raises(ChildProcessError, match="exited with code 3 and sent no rows"):
            bk.run_census(self.SPEC, workers=2)
        no_child_left()

    def test_parent_error_leaves_no_child(self, two_chunks, monkeypatch):
        def fail():
            raise SoundnessError("in the first chunk")

        self.raise_on(monkeypatch, (1, 1, 1), fail)  # the first row, in chunk 1
        with pytest.raises(SoundnessError, match="in the first chunk"):
            bk.run_census(self.SPEC, workers=2)
        no_child_left()

    def test_forked_rows_equal_serial_rows(self, two_chunks):
        assert bk.run_census(self.SPEC, workers=2) == bk.run_census(self.SPEC)
        no_child_left()


def old_sidecar(result):
    """The sidecar as json.dumps wrote it, the reference for the renderer."""
    sidecar = {
        row.certificate_id: row.certificate.to_dict()
        for row in result.rows
        if row.certificate is not None
    }
    return json.dumps(sidecar, sort_keys=True, indent=2) + "\n"


class TestSidecarRenderer:
    @pytest.mark.parametrize("length,max_exponent", [(3, 12), (4, 8), (5, 6)])
    def test_matches_json_dumps(self, length, max_exponent):
        result = bk.run_census(CensusSpec(length=length, max_exponent=max_exponent))
        assert result.certificates_json() == old_sidecar(result)

    def test_no_certificates(self):
        result = bk.run_census(CensusSpec(length=4, max_exponent=4))
        empty = result._replace(
            rows=tuple(row for row in result.rows if row.certificate is None)
        )
        assert empty.rows  # (2, 3, 3, 4) is UNKNOWN
        assert empty.certificates_json() == old_sidecar(empty) == "{}\n"


#: perfbench/digests.json keys and the universes they were recorded on.
BENCHMARK_UNIVERSES = {"wide-n3": (3, 30), "deep-n5": (5, 5), "classify-cold": (4, 10)}

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def recorded_digests(workload):
    return json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))[workload]


class TestBenchmarkDigests:
    """Census files and the reference verdicts stay byte-identical to the
    benchmark's recorded digests (perfbench/ is only read)."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("workload", sorted(BENCHMARK_UNIVERSES))
    def test_census_files_match(self, workload, workers, tmp_path):
        expected = recorded_digests(workload)
        length, max_exponent = BENCHMARK_UNIVERSES[workload]
        result = bk.run_census(CensusSpec(length=length, max_exponent=max_exponent), workers=workers)
        paths = bk.write_census_files(result, tmp_path)
        for key in ("csv", "summary", "certificates"):
            assert hashlib.sha256(paths[key].read_bytes()).hexdigest() == expected[key], key

    def test_reference_verdicts_match(self, monkeypatch):
        # The records perfbench/stage.verdicts digests, over the reference
        # classify-cold stream (seed 0, 300 tuples), each tuple classified
        # with a fresh memo.
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
        spec.loader.exec_module(workloads)
        assert (workloads.REFERENCE_SEED, workloads.REFERENCE_COUNT) == (0, 300)
        stream = workloads.classify_cold_stream(workloads.REFERENCE_SEED, workloads.REFERENCE_COUNT)
        records = []
        for entries in stream:
            outcome = bk.classify(entries, bk.KnowledgeBase())
            certificate = outcome.certificate
            records.append([
                list(entries),
                outcome.status.value,
                None if certificate is None else certificate.rule.value,
                "" if certificate is None else bk.certificate_id(certificate),
            ])
        digest = hashlib.sha256(json.dumps(records).encode("utf-8")).hexdigest()
        assert digest == recorded_digests("classify-cold")["verdicts"]


#: sha256 of the census files of n=5 over 1..10 at shallow depths, where
#: many searches are cut.  The memo holds no cut search that decides, so
#: these pin that re-searching one gives the bytes a held entry gave.
CUT_DEPTH_DIGESTS = {
    1: {
        "csv": "23dca5d35c7f45ce7c04baf7cc265a3b5987229acb937b1fa821fadb3000d98f",
        "summary": "df69dd0f997c0fb1203cb4ddfeb9b0cd788f92b71037695e645038e0c6f0b94a",
        "certificates": "5d114e57ea18ef8f0b7a64d185285d4a3b04ee426a981928b21715424e198f08",
    },
    2: {
        "csv": "546565141193d9d0c518644ede120b99ed54c8cc57fe467de40325e47c37ee8c",
        "summary": "44ab750e601acc15aaecc46dbf80b5196eb5a4524699ab2aaca03d580b938fc2",
        "certificates": "10f6d99222ec49b515db5595fb9b3b96adc6123016c9c3d32f78c436febf4007",
    },
}


class TestCutDepthDigests:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("depth", sorted(CUT_DEPTH_DIGESTS))
    def test_census_files_match(self, monkeypatch, tmp_path, depth, workers):
        # 2,002 rows fall under the floor: lower it so that children fork
        monkeypatch.setattr(census, "MIN_ROWS_PER_PROCESS", 1)
        spec = CensusSpec(length=5, max_exponent=10, budget=bk.Budget(max_depth=depth))
        paths = bk.write_census_files(bk.run_census(spec, workers=workers), tmp_path)
        for key, expected in CUT_DEPTH_DIGESTS[depth].items():
            assert hashlib.sha256(paths[key].read_bytes()).hexdigest() == expected, key


class TestRenderOnce:
    """Each decided row's certificate is rendered once, into its sidecar
    entry, and its id hashes that same text; each row's search and its
    fields read one Facts record."""

    def test_one_facts_record_per_length_3_row(self, monkeypatch):
        # A length-3 tuple is decided at its root, so the census row's
        # record is the only one its classification needs.
        from brieskorn import tuples

        made = []
        init = tuples.Facts.__init__

        def counting(self, entries):
            made.append(entries)
            init(self, entries)

        monkeypatch.setattr(tuples.Facts, "__init__", counting)
        result = bk.run_census(CensusSpec(length=3, max_exponent=12))
        assert made == [row.exponents for row in result.rows]

    @pytest.mark.parametrize("workload", sorted(BENCHMARK_UNIVERSES))
    def test_row_id_is_the_certificate_id(self, workload):
        length, max_exponent = BENCHMARK_UNIVERSES[workload]
        result = bk.run_census(CensusSpec(length=length, max_exponent=max_exponent))
        decided = [row for row in result.rows if row.certificate is not None]
        assert decided
        for row in decided:
            assert row.certificate_id == certificate_id(row.certificate)

    @pytest.mark.parametrize("workload", sorted(BENCHMARK_UNIVERSES))
    def test_rows_read_back_the_search(self, workload):
        # A row stores texts and scalars only; its certificate and exact
        # reciprocal sum, parsed back from them, are the search's.
        length, max_exponent = BENCHMARK_UNIVERSES[workload]
        result = bk.run_census(CensusSpec(length=length, max_exponent=max_exponent), workers=2)
        kb = bk.KnowledgeBase()
        for row in result.rows:
            facts = Facts(row.exponents)
            assert row.certificate == bk.classify(row.exponents, kb).certificate
            assert row.reciprocal_sum == Fraction(facts.sigma, facts.lcm)
            assert type(row.reciprocal_sum) is Fraction

    def test_files_render_no_certificate(self, monkeypatch, tmp_path):
        from brieskorn import certificates

        result = bk.run_census(CensusSpec(length=4, max_exponent=8))

        def no_render(*args, **kwargs):
            raise AssertionError("a certificate was rendered after the census")

        monkeypatch.setattr(certificates, "_render", no_render)
        monkeypatch.setattr(census, "_render", no_render)
        assert result.certificates_json() == old_sidecar(result)
        paths = bk.write_census_files(result, tmp_path)
        assert paths["certificates"].read_text(encoding="utf-8") == old_sidecar(result)
