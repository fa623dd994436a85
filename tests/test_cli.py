"""Command-line interface: output shapes, exit codes, budget plumbing."""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brieskorn
from brieskorn import tuples as tp
from brieskorn.cli import MAX_ENTRIES, MAX_UNIVERSE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, **env):
    """Run ``python -m brieskorn`` in a fresh interpreter with extra env vars."""
    package_root = os.path.dirname(os.path.dirname(brieskorn.__file__))
    return subprocess.run(
        [sys.executable, "-m", "brieskorn", *argv],
        capture_output=True, text=True, timeout=10,
        env=dict(os.environ, PYTHONPATH=package_root, **env),
    )


class TestClassify:
    def test_rigid_with_certificate(self, capsys):
        code, out, _ = run(capsys, "classify", "2", "5", "7", "3", "3", "3")
        assert code == 0
        assert "status: RIGID" in out
        assert "RECURSIVE_SUBTUPLES" in out

    def test_non_rigid(self, capsys):
        code, out, _ = run(capsys, "classify", "2", "3", "3", "2")
        assert code == 0
        assert "status: NON_RIGID" in out
        assert "NOT_IN_TN" in out

    def test_unknown_is_success(self, capsys):
        code, out, _ = run(capsys, "classify", "2", "3", "3", "4")
        assert code == 0
        assert "status: UNKNOWN" in out

    def test_unknown_note_does_not_claim_truncation(self, capsys):
        # depth 400 cuts nothing on (2,3,3,4): the note must not say it did
        code, out, _ = run(capsys, "classify", "--depth", "400", "2", "3", "3", "4")
        assert code == 0
        assert "status: UNKNOWN" in out
        assert "truncated" not in out
        assert "note: the recursive rules had candidates" in out

    def test_structured_output_parses_and_replays(self, capsys):
        code, out, _ = run(capsys, "classify", "--format", "structured", "10", "3", "3", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "RIGID"
        assert payload["rule"] == "COTYPE_GE_2_N4"
        from brieskorn import certificate_from_dict, replay

        assert replay(certificate_from_dict(payload["certificate"]))

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "classify", "--format", "csv", "8", "8", "8", "8")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("tuple;status;")
        assert row.startswith("8,8,8,8;STABLY_RIGID;LOW_SUM;")

    @staticmethod
    def census_line(entries):
        """The line ``run_census`` writes for the sorted tuple ``entries``."""
        spec = brieskorn.CensusSpec(length=len(entries), max_exponent=max(entries))
        prefix = ",".join(map(str, entries)) + ";"
        lines = brieskorn.run_census(spec).csv_text().splitlines()
        return next(line for line in lines if line.startswith(prefix))

    @pytest.mark.parametrize("entries", [(2, 3, 7), (2, 3, 3, 4)])
    def test_csv_line_is_the_census_line(self, capsys, entries):
        code, out, _ = run(capsys, "classify", "--format", "csv", *map(str, entries))
        assert code == 0
        assert out.splitlines()[1] == self.census_line(entries)

    @pytest.mark.parametrize("entries", [(7, 3, 2), (4, 3, 3, 2)])
    def test_csv_line_keeps_the_input_order(self, capsys, entries):
        code, out, _ = run(capsys, "classify", "--format", "csv", *map(str, entries))
        assert code == 0
        fields = out.splitlines()[1].split(";")
        sorted_fields = self.census_line(tuple(sorted(entries))).split(";")
        assert fields[0] == ",".join(map(str, entries))
        # cotype, in_Tn and reciprocal_sum do not depend on the order
        assert fields[3:6] == sorted_fields[3:6]

    def test_rejects_non_integers(self, capsys):
        code, _, err = run(capsys, "classify", "2", "three", "4")
        assert code == 2
        assert "error:" in err

    def test_rejects_nonpositive(self, capsys):
        code, _, err = run(capsys, "classify", "2", "3", "0")
        assert code == 2
        assert "error:" in err

    def test_rejects_too_few(self, capsys):
        code, _, err = run(capsys, "classify", "2", "3")
        assert code == 2


class TestInvariants:
    def test_human_report(self, capsys):
        code, out, _ = run(capsys, "invariants", "10", "3", "3", "4")
        assert code == 0
        assert "lcm: 60" in out
        assert "cotype: 2" in out
        assert "lcm drop over critical indices: 10" in out
        assert "kernel degree bound: 10" in out
        assert "reciprocal sum: 61/60" in out

    def test_three_entry_report_has_no_kernel_bound(self, capsys):
        code, out, _ = run(capsys, "invariants", "3", "3", "3")
        assert code == 0
        assert "cotype: 0" in out
        assert "lcm drop over critical indices: 1" in out
        assert "kernel degree bound" not in out

    def test_structured_report(self, capsys):
        code, out, _ = run(capsys, "invariants", "--format", "structured", "2", "3", "3", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["lcm_critical"] == [4]
        assert payload["degrees"] == [6, 4, 4, 3]
        assert payload["reciprocal_sum"] == "17/12"
        assert payload["in_Tn"] is True


class TestCensus:
    def test_writes_files(self, capsys, tmp_path):
        out_dir = tmp_path / "census"
        code, out, _ = run(
            capsys, "census", "--n", "3", "--max", "5", "--out", str(out_dir)
        )
        assert code == 0
        assert "rows: 35" in out
        csv_text = (out_dir / "census.csv").read_text(encoding="utf-8")
        assert csv_text.startswith("tuple;status;rule;cotype;in_Tn;reciprocal_sum;certificate_id")
        assert (out_dir / "summary.txt").exists()
        assert (out_dir / "certificates.json").exists()

    def test_invalid_range_exits_two(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "census", "--n", "3", "--max", "2", "--min", "5",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "error:" in err

    def test_unwritable_out_exits_two(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory", encoding="utf-8")
        code, _, err = run(
            capsys, "census", "--n", "3", "--max", "3", "--out", str(blocker / "sub")
        )
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unwritable_out_fails_before_classifying(self, capsys, tmp_path, monkeypatch):
        import brieskorn.census

        def no_census(*args, **kwargs):
            raise AssertionError("run_census called although --out is unusable")

        monkeypatch.setattr(brieskorn.census, "run_census", no_census)
        blocker = tmp_path / "file"
        blocker.write_text("not a directory", encoding="utf-8")
        code, _, err = run(
            capsys, "census", "--n", "3", "--max", "3", "--out", str(blocker / "sub")
        )
        assert code == 2
        assert err.startswith("error: cannot write census files") and err.count("\n") == 1

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exits_two_without_classifying(
        self, capsys, tmp_path, monkeypatch, workers
    ):
        from brieskorn import census

        def no_classify(*args, **kwargs):
            raise AssertionError("a tuple was classified although --workers is invalid")

        monkeypatch.setattr(census, "_classify_chunk", no_classify)
        out_dir = tmp_path / "census"
        code, out, err = run(
            capsys, "census", "--n", "3", "--max", "3", "--out", str(out_dir),
            "--workers", workers,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: workers must be >= 1, got {workers}\n"
        assert not out_dir.exists()


class TestProjClasses:
    def test_reports_mixed_class(self, capsys):
        code, out, _ = run(capsys, "proj-classes", "--n", "4", "--max", "4", "--min", "2")
        assert code == 0
        assert "classes are relative to this universe" in out
        assert "(2,3,3,4): UNKNOWN" in out

    def test_structured_output(self, capsys):
        code, out, _ = run(
            capsys, "proj-classes", "--n", "4", "--max", "4", "--min", "3", "--format", "structured"
        )
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload, list) and payload
        assert {"members", "edges", "statuses", "mixed", "relative_to_universe"} == set(payload[0])


class TestUniverseCap:
    """Universes above ``MAX_UNIVERSE`` are refused before any is listed."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("census", "--n", "10", "--max", "1000"),
            ("proj-classes", "--n", "10", "--max", "1000"),
            ("proj-classes", "--n", str(10**12), "--max", str(10**12)),
        ],
    )
    def test_huge_universe_exits_two_at_once(self, capsys, tmp_path, argv):
        out_dir = tmp_path / "huge"
        extra = ("--out", str(out_dir)) if argv[0] == "census" else ()
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, *extra)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: the universe") and err.count("\n") == 1
        assert f"more than {MAX_UNIVERSE} tuples" in err
        assert not out_dir.exists()

    def test_cap_is_inclusive(self, capsys, monkeypatch):
        import brieskorn.cli

        # n=3 over 1..3 has exactly 10 tuples.
        monkeypatch.setattr(brieskorn.cli, "MAX_UNIVERSE", 10)
        assert run(capsys, "proj-classes", "--n", "3", "--max", "3")[0] == 0
        assert run(capsys, "proj-classes", "--n", "3", "--max", "4")[0] == 2


class TestLongTupleUniverses:
    """A universe under ``MAX_UNIVERSE`` tuples is still refused when its
    tuples hold more than ``MAX_ENTRIES`` entries in all, before any tuple
    is listed or --out created."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("census", "--n", "30000", "--min", "1", "--max", "2"),
            ("proj-classes", "--n", "30000", "--min", "1", "--max", "2"),
            ("census", "--n", str(10**9), "--min", "5", "--max", "5"),
            ("proj-classes", "--n", str(10**9), "--min", "5", "--max", "5"),
        ],
    )
    def test_exits_two_at_once(self, capsys, monkeypatch, tmp_path, argv):
        import brieskorn.census

        def no_listing(*args, **kwargs):
            raise AssertionError("listed a refused universe")

        monkeypatch.setattr(brieskorn.census, "enumerate_universe", no_listing)
        monkeypatch.setattr(brieskorn.census, "run_census", no_listing)
        out_dir = tmp_path / "huge"
        extra = ("--out", str(out_dir)) if argv[0] == "census" else ()
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, *extra)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error: the universe") and err.count("\n") == 1
        assert f"more than {MAX_ENTRIES} entries" in err
        assert not out_dir.exists()

    def test_entries_cap_is_inclusive(self, capsys, monkeypatch):
        import brieskorn.cli

        # n=3 over 1..3 has 10 tuples of 3 entries; over 1..4, 15 tuples.
        assert MAX_ENTRIES == 10 * MAX_UNIVERSE
        monkeypatch.setattr(brieskorn.cli, "MAX_ENTRIES", 30)
        assert run(capsys, "proj-classes", "--n", "3", "--max", "3")[0] == 0
        code, _, err = run(capsys, "proj-classes", "--n", "3", "--max", "4")
        assert code == 2 and "more than 30 entries" in err


class TestBudgetPlumbing:
    def test_flags_override(self, capsys):
        code, out, _ = run(capsys, "classify", "--depth", "0", "4", "4", "4", "12")
        assert code == 0
        assert "status: UNKNOWN" in out  # the deciding descend step needs depth >= 1

    def test_env_budget(self, capsys, monkeypatch, tmp_path):
        # Budgets come from the flags only: the retired variable, set to
        # anything, is refused in one line naming the flags, before any
        # tuple is classified or listed and before --out is created, so
        # that a run never takes a budget its flags do not show.
        import brieskorn.census
        import brieskorn.cli

        def no_work(*args, **kwargs):
            raise AssertionError("worked under a refused budget")

        out_dir = tmp_path / "out"
        commands = [
            ("classify", "4", "4", "4", "12"),
            ("invariants", "2", "3", "3", "4"),
            ("census", "--n", "3", "--max", "4", "--out", str(out_dir)),
            ("proj-classes", "--n", "3", "--max", "4"),
        ]
        with monkeypatch.context() as patched:
            for name in ("classify", "kernel_degree_bound"):
                patched.setattr(brieskorn.cli, name, no_work)
            for name in ("run_census", "enumerate_universe"):
                patched.setattr(brieskorn.census, name, no_work)
            for raw in ("depth=0", " "):
                patched.setenv("BRIESKORN_BUDGET", raw)
                for argv in commands:
                    code, out, err = run(capsys, *argv)
                    assert (code, out) == (2, ""), (raw, argv)
                    assert err.startswith("error: BRIESKORN_BUDGET") and err.count("\n") == 1
                    assert "--depth" in err and "--max-witnesses" in err
        assert not out_dir.exists()
        # an empty value is no setting: the default depth decides the tuple
        monkeypatch.setenv("BRIESKORN_BUDGET", "")
        code, out, _ = run(capsys, "classify", "4", "4", "4", "12")
        assert code == 0 and "status: RIGID" in out

    def test_flag_beats_env(self, capsys, monkeypatch):
        # The flag is the only budget: a set variable does not combine with
        # it but refuses the run, and with the variable empty the flag alone
        # decides the depth.
        monkeypatch.setenv("BRIESKORN_BUDGET", "depth=0")
        code, out, err = run(capsys, "classify", "--depth", "6", "4", "4", "4", "12")
        assert (code, out) == (2, "")
        assert "BRIESKORN_BUDGET" in err and "--depth" in err
        monkeypatch.setenv("BRIESKORN_BUDGET", "")
        code, out, _ = run(capsys, "classify", "--depth", "6", "4", "4", "4", "12")
        assert code == 0
        assert "status: RIGID" in out
        code, out, _ = run(capsys, "classify", "--depth", "0", "4", "4", "4", "12")
        assert code == 0
        assert "status: UNKNOWN" in out

    def test_bad_env_budget_is_an_input_error(self, capsys, monkeypatch):
        # "\u00b2" (superscript two) passes str.isdigit() but not int()
        for raw in ("depth=fast", "depth=\u00b2"):
            monkeypatch.setenv("BRIESKORN_BUDGET", raw)
            code, _, err = run(capsys, "classify", "2", "3", "3", "4")
            assert code == 2, raw
            assert "BRIESKORN_BUDGET" in err
            assert "Traceback" not in err

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["census", "--n", "3"])  # missing required --max
        assert excinfo.value.code == 2


class TestRemovedSiblingBudget:
    """The sibling budget bounded only the retired TRANSFER rule: its flag
    is a usage error and its environment key an input error."""

    def test_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["classify", "--max-siblings", "16", "2", "3", "3", "4"])
        assert excinfo.value.code == 2
        assert "--max-siblings" in capsys.readouterr().err

    def test_env_key_is_an_input_error(self, capsys, monkeypatch):
        monkeypatch.setenv("BRIESKORN_BUDGET", "siblings=16")
        code, _, err = run(capsys, "classify", "2", "3", "3", "4")
        assert code == 2
        assert "BRIESKORN_BUDGET" in err
        assert err.rstrip().endswith("set the budget with --depth and --max-witnesses")


class TestLargeBudgets:
    """Large budgets keep the exit-code contract and finish quickly: the
    cascade's search steps shrink the tuple, so a deep --depth does not
    multiply the work."""

    @pytest.mark.parametrize("flags", [("--depth", "400")])
    def test_exits_zero_quickly(self, flags):
        completed = run_module("classify", "2", "3", "3", "4", *flags)
        assert completed.returncode == 0
        assert "Traceback" not in completed.stderr
        assert "status: UNKNOWN" in completed.stdout


HUGE_BUDGET = ("--depth", 100000, "--max-witnesses", 1000)


class TestHugeEntries:
    """DESCEND lists the witnesses of an entry from its factorization, so an
    entry near 2^60 finishes quickly: 4e17 is 4 times a prime, 2^60 a power
    of 2.  So do entries of hundreds of digits under a huge budget, and
    2^10 * 3^6 * p * q with p and q the primes just above 2^50, whose 33
    smallest divisors over its floor 6 are those of the smooth part, so
    rho never factors p * q."""

    @pytest.mark.parametrize("argv", [
        (2, 3, 3, 400000000000000012),
        (2, 3, 3, 2**60, "--depth", 400),
        (2, 3, 3, 2**400, *HUGE_BUDGET),
        (2, 3, 5, 60**100, *HUGE_BUDGET),
        (3, 3, 4, 2**300 * 3**200, *HUGE_BUDGET),
        (2, 3, 3, 4, 2**500, *HUGE_BUDGET),
        (6, 3, 10, 7647185, *HUGE_BUDGET),
        (2, 3, 3, 2**10 * 3**6 * (2**50 + 55) * (2**50 + 99)),
    ])
    def test_exits_zero_within_five_seconds(self, capsys, argv):
        tp.divisors.cache_clear()
        start = time.perf_counter()
        code, out, _ = run(capsys, "classify", *map(str, argv))
        assert time.perf_counter() - start < 5
        assert code == 0
        assert "status: UNKNOWN" in out


def odd_primes(count):
    limit = 16 * count  # ample for the counts used here; callers check the count
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit, p)))
    return [p for p in range(3, limit) if sieve[p]][:count]


class TestLongCoprimeTuples:
    """The kernel takes O(n) steps that each pair a running lcm with one
    entry, so thousands of coprime entries, whose lcm has tens of
    thousands of digits, classify in about a second; pairing prefix
    and suffix lcms took about 24 s on the first 6,000 odd primes."""

    def test_six_thousand_odd_primes_within_five_seconds(self, capsys):
        primes = odd_primes(6000)
        assert len(primes) == 6000 and primes[-1] > 59_000
        start = time.perf_counter()
        code, out, _ = run(capsys, "classify", *map(str, primes))
        elapsed = time.perf_counter() - start
        assert code == 0
        assert "status: RIGID" in out and "rule: COTYPE_GE_NMINUS2" in out
        assert elapsed < 5

    def test_classify_holds_no_kernel_memory_afterwards(self):
        # The tuple's omit-one lcms are each as large as its lcm (about
        # 70 MB together); no cache may keep any kernel result alive.
        primes = tuple(odd_primes(6000))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            outcome = brieskorn.classify(primes)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert outcome.status is brieskorn.Status.RIGID
        assert held < 1 << 20

    def test_classify_peak_holds_one_quotient_at_a_time(self):
        # sigma, the sum of the quotients L/a_i, each nearly as large as
        # L, is summed one quotient at a time: the list of all 6,000 of
        # them peaked at about 68 MB.
        primes = tuple(odd_primes(6000))
        gc.collect()
        tracemalloc.start()
        try:
            brieskorn.classify(primes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 << 20


class TestInvariantsKernelPasses:
    """``invariants`` runs the report's lean pass and gcd pass once, and one
    lean pass per tuple it searches: the kernel bound takes the critical
    indices and the drop over the rigid ones from one record of the tuple."""

    EXPECTED = (
        "tuple: (2,3,3,4,5)\n"
        "lcm: 60\n"
        "gcd: 1\n"
        "normalization: (2,3,3,4,5)\n"
        "degrees (lcm/entry): (30,20,20,15,12)\n"
        "type: 0   gcd-critical indices: {}\n"
        "cotype: 2   lcm-critical indices: {4,5}\n"
        "lcm-stable indices: {1,2,3}\n"
        "coordinate gcds: (2,3,3,2,1)\n"
        "in_Tn: true\n"
        "lcm drop over critical indices: 10\n"
        "reciprocal sum: 97/60\n"
        "kernel degree bound: 2  (divides the true bound; undecided subtuples at {5})\n"
    )

    def test_every_pass_of_the_report_and_the_bound(self, capsys, monkeypatch):
        passes = []
        core, gcds = tp.invariant_core, tp._gcd_pass

        def counted(kernel, kind):
            def wrapper(entries):
                passes.append((kind, len(entries)))
                return kernel(entries)

            return wrapper

        monkeypatch.setattr(tp, "invariant_core", counted(core, "core"))
        monkeypatch.setattr(tp, "_gcd_pass", counted(gcds, "gcd"))
        code, out, _ = run(capsys, "invariants", "2", "3", "3", "4", "5")
        assert code == 0
        assert out == self.EXPECTED
        # the report's gcd pass and the lean pass of the one record that
        # the report and the bound share, then the search of the subtuple
        # (2,3,3,4); that of (2,3,3,5) reads no kernel
        assert passes == [("gcd", 5), ("core", 5), ("core", 4)]


class TestKernelNotSelectable:
    """There is one kernel, the exact pure-Python passes: the
    kernel-selection variable of older releases is ignored, whatever its
    value, and cannot break the exit-code contract."""

    @pytest.mark.parametrize("value", ["c", "python", "fortran"])
    def test_old_selection_variable_is_ignored(self, value):
        completed = run_module("classify", "2", "3", "3", "4", BRIESKORN_KERNEL=value)
        assert completed.returncode == 0
        assert "Traceback" not in completed.stderr
        assert "status: UNKNOWN" in completed.stdout


class TestColdStart:
    """``classify`` loads only the core modules: a one-tuple call in a
    fresh interpreter imports neither the census nor proj modules, nor the
    standard-library modules only they (or other commands) need, and there
    is no ``brieskorn.backend`` module to load."""

    def test_classify_imports_only_the_core(self):
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "from brieskorn import cli\n"
            "code = cli.main(['classify', '2', '3', '3', '4'])\n"
            "print(code, *sorted(set(sys.modules) - before))\n"
        )
        package_root = os.path.dirname(os.path.dirname(brieskorn.__file__))
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=10,
            env=dict(os.environ, PYTHONPATH=package_root),
        )
        assert completed.returncode == 0, completed.stderr
        *output, last = completed.stdout.splitlines()
        assert "status: UNKNOWN" in output
        code, *loaded = last.split()
        assert code == "0"
        assert "brieskorn.engine" in loaded
        unwanted = {
            "brieskorn.backend", "brieskorn.census", "brieskorn.proj", "multiprocessing", "json",
            "fractions", "dataclasses", "inspect",
        }
        assert unwanted.isdisjoint(loaded)


# Entries stay below 2**64: DESCEND factors entries with Pollard rho
# (tuples._rho), which has no step budget yet, so an entry with two large
# prime factors can take seconds.
POSITIVE = st.integers(1, 12) | st.integers(1, 2**64 - 1)
ENTRY_TOKENS = (st.integers(-3, 0) | POSITIVE).map(str) | st.sampled_from(
    ["x", "", "1.5", "2e3", "0x10", "-", "-x", " 7 "]
)
# half the entry lists are valid, so that most of those are classified
ENTRY_LISTS = st.lists(POSITIVE.map(str), max_size=8) | st.lists(ENTRY_TOKENS, max_size=8)
BUDGET_FLAGS = st.tuples(
    st.sampled_from(["--depth", "--max-witnesses"]), st.integers(-2, 100_000).map(str)
)


def universes():
    """(--n, --min, --max): a small universe (under 2,000 tuples, so no
    census forks, or rejected), or one over a cap by its tuples or entries."""
    small = st.tuples(
        st.integers(3, 6) | st.integers(-1, 6),
        st.none() | st.integers(1, 3) | st.integers(-1, 3),
        st.integers(1, 8) | st.integers(-2, 8),
    )
    wide = st.tuples(st.integers(3, 10**9), st.none(), st.integers(10**3, 10**30))
    long = st.integers(MAX_ENTRIES + 1, 10**9).flatmap(
        lambda n: st.integers(1, 9).map(lambda value: (n, value, value))
    )
    return st.one_of(small, small, wide, long)


@st.composite
def command_lines(draw):
    """argv for one of the four commands, valid or not."""
    command = draw(st.sampled_from(["classify", "invariants", "census", "proj-classes"]))
    argv = [command]
    if command in ("classify", "invariants"):
        argv += draw(ENTRY_LISTS)
    else:
        n, low, high = draw(universes())
        argv += ["--n", str(n), "--max", str(high)]
        if low is not None:
            argv += ["--min", str(low)]
        if command == "census":
            argv += ["--workers", str(draw(st.integers(-1, 3)))]
    if command != "census" and draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["human", "structured", "csv", "json"]))]
    for flag in draw(st.lists(BUDGET_FLAGS, max_size=2)):
        argv += flag
    return argv


class TestFuzz:
    """Every command line of the four commands keeps the exit contract:
    0 or 2, and never an exception.  ``main`` runs in-process."""

    @settings(max_examples=300, deadline=None)
    @given(command_lines())
    def test_every_exit_code_is_0_or_2(self, argv):
        with tempfile.TemporaryDirectory() as scratch:
            if argv[0] == "census":
                argv = [*argv, "--out", os.path.join(scratch, "out")]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as stop:
                    code = stop.code
        assert code in (0, 2), argv
