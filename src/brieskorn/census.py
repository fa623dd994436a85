"""Exhaustive classification of tuple universes.

Enumerates all non-decreasing tuples of a given length over an exponent
range (one representative per permutation class), classifies each one,
and aggregates counts per status and per deciding rule plus the frontier
of UNKNOWN tuples.  Output is deterministic: rows come in lexicographic
order of the sorted tuples and are independent of the worker count, so
two runs produce byte-identical files.

Each row is built from one :class:`~brieskorn.tuples.Facts` record: the
census builds it for the tuple, the search reads it at its root node, and
the row takes its cotype, T_n membership and reciprocal sum from it.  The
reciprocal sum's CSV field is written from sigma / L reduced by their
gcd.  Both texts a row contributes are rendered once, when the row is
built: its CSV line, and for a decided row its ``certificates.json``
entry, written by the certificate renderer (sorted keys, two-space
indent, no generic JSON encoder).  The row's id hashes that same
certificate text, and the files are joined from these texts without
rendering anything again.  A row stores only those texts and scalars; its
certificate tree and exact reciprocal sum are parsed back from them when
read.

A census with k > 1 processes forks one child per chunk after the first.
Each child classifies its chunk and writes its rows, pickled, to a pipe
of its own: texts, ints, bools and enum members, with no certificate
tree and no ``Fraction``.  An exception in a child is sent the same way
and raised again in the caller with its type and message.

File outputs::

    census.csv          tuple;status;rule;cotype;in_Tn;reciprocal_sum;certificate_id
    summary.txt         structured text block with the histograms
    certificates.json   sidecar mapping certificate_id -> certificate
"""

from __future__ import annotations

import errno
import os
import pickle
import signal
import stat
from itertools import combinations_with_replacement
from math import gcd
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

from .certificates import (
    Certificate,
    RuleId,
    Status,
    _render,
    _wrap,
    certificate_from_json,
    certificate_id,
)
from .engine import (
    _DEFAULT_BUDGET, Budget, Classification, KnowledgeBase, _classify_valid, _require_int, _require_type,
)
from .engine import _collector_paused, classify  # noqa: F401  (perfbench's tracer wraps census.classify)
from .errors import InputError
from .tuples import Exponents, Facts

if TYPE_CHECKING:
    from fractions import Fraction

CSV_HEADER = "tuple;status;rule;cotype;in_Tn;reciprocal_sum;certificate_id"

#: Fixed last field of the budget line of ``summary.txt``: part of the
#: census file format, not set by any budget.
SUMMARY_SIBLINGS_FIELD = "siblings=16"

#: Fewest rows a census process is given.  Below it, forking a child and
#: sending its rows back cost more than the search they share out.
MIN_ROWS_PER_PROCESS = 1_000


class _CensusSpecFields(NamedTuple):
    length: int
    max_exponent: int
    min_exponent: int
    budget: Budget


class CensusSpec(_CensusSpecFields):
    """Universe description plus budget overrides, validated as
    :class:`~brieskorn.engine.Budget` is."""

    __slots__ = ()

    def __new__(
        cls, length: int, max_exponent: int, min_exponent: int = 1, budget: Budget = _DEFAULT_BUDGET
    ):
        _require_int("CensusSpec.length", length)
        _require_int("CensusSpec.max_exponent", max_exponent)
        _require_int("CensusSpec.min_exponent", min_exponent)
        _require_type("CensusSpec.budget", budget, Budget)
        if length < 3:
            raise InputError(f"census tuples need length >= 3, got {length}")
        if min_exponent < 1:
            raise InputError(f"minimum exponent must be >= 1, got {min_exponent}")
        if min_exponent > max_exponent:
            raise InputError(f"empty exponent range [{min_exponent}, {max_exponent}]")
        return super().__new__(cls, length, max_exponent, min_exponent, budget)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


class CensusRow(NamedTuple):
    """One classified tuple of a census, with the texts it contributes.

    ``cotype`` and ``in_tn`` come from the tuple's
    :class:`~brieskorn.tuples.Facts` record, the one its search read at the
    root.  ``csv_line`` is the row's line of ``census.csv`` and
    ``sidecar_entry`` its entry of ``certificates.json``
    (``"<certificate_id>": <certificate>``, empty for an UNKNOWN row), both
    rendered when the row is built.  The row stores no certificate tree and
    no ``Fraction``: ``certificate`` and ``reciprocal_sum`` are parsed from
    those two texts on every read, so a row sent from a census child reads
    the same as one built in the caller.
    """

    exponents: Exponents
    status: Status
    rule: RuleId | None
    cotype: int
    in_tn: bool
    certificate_id: str
    budget_hit: bool
    sidecar_entry: str
    csv_line: str

    @property
    def certificate(self) -> Certificate | None:
        """The certificate of a decided row, parsed from its sidecar entry."""
        if not self.sidecar_entry:
            return None
        return certificate_from_json(self.sidecar_entry.partition(": ")[2])

    @property
    def reciprocal_sum(self) -> Fraction:
        """The exact sum of 1/a_i, parsed from the row's CSV field."""
        from fractions import Fraction

        return Fraction(self.csv_line.split(";")[5])


class CensusSummary(NamedTuple):
    spec: CensusSpec
    row_count: int
    status_counts: tuple[tuple[Status, int], ...]
    rule_counts: tuple[tuple[RuleId, int], ...]
    unknown_budget_hits: int

    def render(self) -> str:
        lines = [
            f"census length={self.spec.length} "
            f"exponents={self.spec.min_exponent}..{self.spec.max_exponent}",
            f"budget depth={self.spec.budget.max_depth} "
            f"witnesses={self.spec.budget.max_divisor_witnesses} "
            f"{SUMMARY_SIBLINGS_FIELD}",
            f"rows: {self.row_count}",
            "status counts:",
        ]
        lines += [f"  {status.value}: {count}" for status, count in self.status_counts]
        lines.append("rule counts:")
        lines += [f"  {rule.value}: {count}" for rule, count in self.rule_counts]
        lines.append(f"unknown rows hitting the search budget: {self.unknown_budget_hits}")
        return "\n".join(lines) + "\n"


class CensusResult(NamedTuple):
    spec: CensusSpec
    rows: tuple[CensusRow, ...]
    summary: CensusSummary

    def csv_text(self) -> str:
        return "\n".join([CSV_HEADER, *(row.csv_line for row in self.rows)]) + "\n"

    def certificates_json(self) -> str:
        # Each entry starts with its quoted id, and equal ids carry equal
        # text, so the sorted distinct entries are the sidecar in id order.
        entries = sorted({row.sidecar_entry for row in self.rows if row.sidecar_entry})
        return _wrap(entries, "{}", "", "  ") + "\n"


def enumerate_universe(spec: CensusSpec):
    """Non-decreasing tuples over the range, in lexicographic order."""
    _require_type("spec", spec, CensusSpec)
    values = range(spec.min_exponent, spec.max_exponent + 1)
    return combinations_with_replacement(values, spec.length)


def universe_size(spec: CensusSpec) -> int:
    """Closed form: multiset coefficient of the enumeration."""
    from math import comb

    _require_type("spec", spec, CensusSpec)
    choices = spec.max_exponent - spec.min_exponent + 1
    return comb(choices + spec.length - 1, spec.length)


def _build_row(entries: Exponents, outcome: Classification, facts: Facts) -> CensusRow:
    """The row of ``entries``, classified as ``outcome`` by a search that
    read ``facts`` at its root."""
    certificate = outcome.certificate
    if certificate is None:
        rule, key, entry = None, "", ""
    else:
        rule = certificate.rule
        text = _render(certificate, "  ", "  ")
        key = certificate_id(certificate, text)
        entry = f'"{key}": {text}'
    cotype = len(facts.critical)
    common = gcd(facts.sigma, facts.lcm)
    numerator, denominator = facts.sigma // common, facts.lcm // common
    line = ";".join(
        (
            ",".join(map(str, entries)),
            outcome.status.value,
            "" if rule is None else rule.value,
            str(cotype),
            "true" if facts.in_tn else "false",
            str(numerator) if denominator == 1 else f"{numerator}/{denominator}",
            key,
        )
    )
    return CensusRow(
        exponents=entries,
        status=outcome.status,
        rule=rule,
        cotype=cotype,
        in_tn=facts.in_tn,
        certificate_id=key,
        budget_hit=outcome.budget_hit,
        sidecar_entry=entry,
        csv_line=line,
    )


def _classify_chunk(chunk: list[Exponents], budget: Budget) -> list[CensusRow]:
    # tuples from enumerate_universe over a validated spec need no checks
    kb = KnowledgeBase(budget)
    rows = []
    for entries in chunk:
        facts = Facts(entries)
        rows.append(_build_row(entries, _classify_valid(entries, kb, facts), facts))
    return rows


def _fork_chunk(chunk: list[Exponents], budget: Budget) -> Callable[..., list[CensusRow]]:
    """Fork a child that classifies ``chunk`` and writes its rows to a pipe.

    Returns the collector of that child.  ``collect()`` reads the pipe to
    its end, reaps the child and returns its rows, or raises the child's
    exception with its type and message.  ``collect(abort=True)`` kills
    the child and reaps it.  The child leaves only through ``os._exit``,
    so it never returns into the caller's frames or flushes the stdio
    buffers it inherited.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            try:
                payload = (True, _classify_chunk(chunk, budget))
            except BaseException as exc:
                # Forwarded to the caller, which raises it.  Sent as its
                # parts, since an exception's __init__ need not take its
                # own args back.
                payload = (False, (type(exc), exc.args, vars(exc)))
            with open(write_end, "wb") as pipe:
                pipe.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)

    def collect(abort: bool = False) -> list[CensusRow]:
        data = b""
        try:
            if not abort:
                with open(read_end, "rb", closefd=False) as pipe:
                    data = pipe.read()
        finally:
            os.close(read_end)
            # Past the end of its pipe the child is only exiting.  Short of
            # it, the child may be blocked on a write that no read will
            # drain (a later child holds a copy of this read end), so it is
            # killed rather than waited for.
            os.kill(pid, signal.SIGKILL)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if abort:
            return []
        if not data:
            raise ChildProcessError(f"census child {pid} exited with code {code} and sent no rows")
        ok, payload = pickle.loads(data)
        if ok:
            return payload
        kind, args, attributes = payload
        exc = kind.__new__(kind, *args)
        exc.args = args
        exc.__dict__.update(attributes)
        raise exc

    return collect


def run_census(spec: CensusSpec, workers: int = 1) -> CensusResult:
    """Classify the whole universe.

    It runs in ``k`` processes, the least of ``workers``, the CPUs this
    process may run on and ``len(universe) // MIN_ROWS_PER_PROCESS``.
    With ``k`` > 1 the universe is cut into ``k`` contiguous chunks: one
    forked child per chunk after the first classifies it with a private
    memo table and pipes its rows back, while this process classifies the
    first.  Classification is a pure function of tuple and budget, so the
    rows, joined in chunk order, are those of a serial run.  Every child
    is reaped before this returns or raises, and a child's exception is
    raised here.  ``workers`` that is not an integer, or is below 1, is an
    InputError.

    The census builds no reference cycles, so it pauses the cyclic
    garbage collector, a process-wide state that its children inherit,
    and leaves it as the caller had it, also when the call raises.
    """
    _require_type("spec", spec, CensusSpec)
    _require_int("workers", workers)
    if workers < 1:
        raise InputError(f"workers must be >= 1, got {workers}")
    with _collector_paused():
        universe = list(enumerate_universe(spec))
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        workers = min(workers, cpus, len(universe) // MIN_ROWS_PER_PROCESS)
        if workers <= 1:
            rows = _classify_chunk(universe, spec.budget)
        else:
            step = (len(universe) + workers - 1) // workers
            chunks = [universe[i : i + step] for i in range(0, len(universe), step)]
            pending = []
            try:
                for chunk in chunks[1:]:
                    pending.append(_fork_chunk(chunk, spec.budget))
                rows = _classify_chunk(chunks[0], spec.budget)
                while pending:
                    rows += pending.pop(0)()
            finally:
                for collect in pending:
                    collect(abort=True)
        return CensusResult(spec=spec, rows=tuple(rows), summary=_summarize(spec, rows))


def _summarize(spec: CensusSpec, rows) -> CensusSummary:
    status_counts = {status: 0 for status in Status}
    rule_counts: dict[RuleId, int] = {}
    budget_hits = 0
    for row in rows:
        status_counts[row.status] += 1
        if row.rule is not None:
            rule_counts[row.rule] = rule_counts.get(row.rule, 0) + 1
        if row.status is Status.UNKNOWN and row.budget_hit:
            budget_hits += 1
    return CensusSummary(
        spec=spec,
        row_count=len(rows),
        status_counts=tuple((s, status_counts[s]) for s in Status),
        rule_counts=tuple(sorted(rule_counts.items(), key=lambda kv: kv[0].value)),
        unknown_budget_hits=budget_hits,
    )


def write_census_files(result: CensusResult, out_dir) -> dict[str, Path]:
    """Write census.csv, summary.txt and certificates.json under ``out_dir``.
    The texts are rendered first, written to temporary files in ``out_dir``
    and moved into place one after another with ``os.replace``, so each
    file is replaced whole.  A target that exists and is not a regular file
    (a directory, or a symbolic link) is refused before anything is
    written.  On a failure the temporary files are removed.  A refused
    target, or a failure before the first move, leaves every old file as it
    was; a failure of a later move leaves the files already moved new
    beside old ones."""
    _require_type("result", result, CensusResult)
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "csv": directory / "census.csv",
        "summary": directory / "summary.txt",
        "certificates": directory / "certificates.json",
    }
    texts = (result.csv_text(), result.summary.render(), result.certificates_json())
    for path in paths.values():
        _require_regular(path)
    staged: list[Path] = []
    try:
        for path, text in zip(paths.values(), texts):
            temporary = directory / f".{path.name}.{os.urandom(6).hex()}.tmp"
            handle = open(temporary, "x", encoding="utf-8")
            staged.append(temporary)
            with handle:
                handle.write(text)
        for temporary, path in zip(staged, paths.values()):
            os.replace(temporary, path)
    except BaseException:
        for temporary in staged:
            temporary.unlink(missing_ok=True)
        raise
    return paths


def _require_regular(path: Path) -> None:
    """OSError unless ``path`` is missing or a regular file."""
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        return
    if not stat.S_ISREG(mode):
        raise OSError(errno.EEXIST, "exists and is not a regular file", str(path))
