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
reciprocal sum is an exact ``Fraction``, and its CSV field is written
from that fraction's numerator and denominator.  Both texts a row
contributes are rendered once, when the row is built: its CSV line, and
for a decided row its ``certificates.json`` entry, written by the
certificate renderer (sorted keys, two-space indent, no generic JSON
encoder).  The row's id hashes that same certificate text, and the files
are joined from these texts without rendering anything again.

File outputs::

    census.csv          tuple;status;rule;cotype;in_Tn;reciprocal_sum;certificate_id
    summary.txt         structured text block with the histograms
    certificates.json   sidecar mapping certificate_id -> certificate
"""

from __future__ import annotations

import multiprocessing
import os
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path
from typing import NamedTuple

from .certificates import Certificate, RuleId, Status, _render, _wrap, certificate_id
from .engine import _DEFAULT_BUDGET, Budget, Classification, KnowledgeBase, _Record, classify
from .errors import InputError
from .tuples import Exponents, Facts

CSV_HEADER = "tuple;status;rule;cotype;in_Tn;reciprocal_sum;certificate_id"

#: Fixed last field of the budget line of ``summary.txt``: part of the
#: census file format, not set by any budget.
SUMMARY_SIBLINGS_FIELD = "siblings=16"

#: Fewest rows a census process is given.  Below it, starting the pool
#: and pickling the rows back cost more than the search they share out.
MIN_ROWS_PER_PROCESS = 1_000


class CensusSpec(_Record):
    """Universe description plus budget overrides."""

    __slots__ = ("length", "max_exponent", "min_exponent", "budget")

    def __init__(
        self, length: int, max_exponent: int, min_exponent: int = 1, budget: Budget = _DEFAULT_BUDGET
    ):
        self._set(length=length, max_exponent=max_exponent, min_exponent=min_exponent, budget=budget)
        if length < 3:
            raise InputError(f"census tuples need length >= 3, got {length}")
        if min_exponent < 1:
            raise InputError(f"minimum exponent must be >= 1, got {min_exponent}")
        if min_exponent > max_exponent:
            raise InputError(f"empty exponent range [{min_exponent}, {max_exponent}]")


class CensusRow(NamedTuple):
    """One classified tuple of a census, with the texts it contributes.

    ``cotype``, ``in_tn`` and ``reciprocal_sum`` (an exact ``Fraction``)
    come from the tuple's :class:`~brieskorn.tuples.Facts` record, the one
    its search read at the root.  ``csv_line`` is the row's line of
    ``census.csv`` and ``sidecar_entry`` its entry of ``certificates.json``
    (``"<certificate_id>": <certificate>``, empty for an UNKNOWN row), both
    rendered when the row is built.
    """

    exponents: Exponents
    status: Status
    rule: RuleId | None
    cotype: int
    in_tn: bool
    reciprocal_sum: Fraction
    certificate_id: str
    budget_hit: bool
    certificate: Certificate | None
    sidecar_entry: str
    csv_line: str


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
    values = range(spec.min_exponent, spec.max_exponent + 1)
    yield from combinations_with_replacement(values, spec.length)


def universe_size(spec: CensusSpec) -> int:
    """Closed form: multiset coefficient of the enumeration."""
    from math import comb

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
    cotype = facts.mask.bit_count()
    ratio = Fraction(facts.sigma, facts.lcm)
    numerator, denominator = ratio.numerator, ratio.denominator
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
        reciprocal_sum=ratio,
        certificate_id=key,
        budget_hit=outcome.budget_hit,
        certificate=certificate,
        sidecar_entry=entry,
        csv_line=line,
    )


def _classify_chunk(args: tuple[tuple[Exponents, ...], Budget]) -> list[CensusRow]:
    chunk, budget = args
    kb = KnowledgeBase(budget)
    rows = []
    for entries in chunk:
        facts = Facts(entries)
        rows.append(_build_row(entries, classify(entries, kb, facts=facts), facts))
    return rows


def run_census(spec: CensusSpec, workers: int = 1) -> CensusResult:
    """Classify the whole universe.

    It runs in ``k`` processes, the least of ``workers``, the CPUs this
    process may run on and ``len(universe) // MIN_ROWS_PER_PROCESS``.
    With ``k`` > 1 this process classifies the first of ``k`` contiguous
    chunks while a fork pool of ``k - 1`` processes classifies the rest,
    each with a private memo table.  Classification is a pure function of
    tuple and budget, so the rows, joined in chunk order, are those of a
    serial run.  ``workers`` below 1 is an InputError.
    """
    if workers < 1:
        raise InputError(f"workers must be >= 1, got {workers}")
    universe = list(enumerate_universe(spec))
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(workers, cpus, len(universe) // MIN_ROWS_PER_PROCESS)
    if workers <= 1:
        rows = _classify_chunk((tuple(universe), spec.budget))
    else:
        step = (len(universe) + workers - 1) // workers
        chunks = [
            (tuple(universe[i : i + step]), spec.budget)
            for i in range(0, len(universe), step)
        ]
        with multiprocessing.get_context("fork").Pool(len(chunks) - 1) as pool:
            pending = pool.map_async(_classify_chunk, chunks[1:])
            rows = _classify_chunk(chunks[0])
            for part in pending.get():
                rows.extend(part)
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
    """Write census.csv, summary.txt and certificates.json under ``out_dir``."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "csv": directory / "census.csv",
        "summary": directory / "summary.txt",
        "certificates": directory / "certificates.json",
    }
    paths["csv"].write_text(result.csv_text(), encoding="utf-8")
    paths["summary"].write_text(result.summary.render(), encoding="utf-8")
    paths["certificates"].write_text(result.certificates_json(), encoding="utf-8")
    return paths
