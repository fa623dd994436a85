"""Command-line interface: output shapes, exit codes, budget plumbing."""

import json
import os
import subprocess
import sys
import time

import pytest

import brieskorn
from brieskorn import tuples as tp
from brieskorn.cli import MAX_UNIVERSE, main


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
        import brieskorn.cli

        def no_census(*args, **kwargs):
            raise AssertionError("run_census called although --out is unusable")

        monkeypatch.setattr(brieskorn.cli, "run_census", no_census)
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


class TestBudgetPlumbing:
    def test_flags_override(self, capsys):
        code, out, _ = run(capsys, "classify", "--depth", "0", "4", "4", "4", "12")
        assert code == 0
        assert "status: UNKNOWN" in out  # the deciding descend step needs depth >= 1

    def test_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("BRIESKORN_BUDGET", "depth=0")
        code, out, _ = run(capsys, "classify", "4", "4", "4", "12")
        assert code == 0
        assert "status: UNKNOWN" in out

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BRIESKORN_BUDGET", "depth=0")
        code, out, _ = run(capsys, "classify", "--depth", "6", "4", "4", "4", "12")
        assert code == 0
        assert "status: RIGID" in out

    def test_bad_env_budget_is_an_input_error(self, capsys, monkeypatch):
        # "\u00b2" (superscript two) passes str.isdigit() but not int()
        for raw in ("depth=fast", "depth=\u00b2"):
            monkeypatch.setenv("BRIESKORN_BUDGET", raw)
            code, _, err = run(capsys, "classify", "2", "3", "3", "4")
            assert code == 2, raw
            assert "BRIESKORN_BUDGET" in err

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
        assert err.rstrip().endswith("expected e.g. depth=6,witnesses=32")


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


class TestHugeEntries:
    """DESCEND lists the witnesses of an entry from its factorization, so an
    entry near 2^60 finishes quickly: 4e17 is 4 times a prime, 2^60 a power
    of 2."""

    @pytest.mark.parametrize("extra", [("400000000000000012",), ("1152921504606846976", "--depth", "400")])
    def test_exits_zero_within_five_seconds(self, capsys, extra):
        tp.divisors.cache_clear()
        start = time.perf_counter()
        code, out, _ = run(capsys, "classify", "2", "3", "3", *extra)
        assert time.perf_counter() - start < 5
        assert code == 0
        assert "status: UNKNOWN" in out


class TestKernelNotSelectable:
    """Whether the compiled kernel is built is all that picks it: the
    kernel-selection variable of older releases is ignored, whatever its
    value, and cannot break the exit-code contract."""

    @pytest.mark.parametrize("value", ["c", "python", "fortran"])
    def test_old_selection_variable_is_ignored(self, value):
        completed = run_module("classify", "2", "3", "3", "4", BRIESKORN_KERNEL=value)
        assert completed.returncode == 0
        assert "Traceback" not in completed.stderr
        assert "status: UNKNOWN" in completed.stdout
