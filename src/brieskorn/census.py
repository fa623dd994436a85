"""Exhaustive classification of tuple universes.

Enumerates all non-decreasing tuples of a given length over an exponent
range (one representative per permutation class), classifies each one,
and aggregates counts per status and per deciding rule plus the frontier
of UNKNOWN tuples.  Output is deterministic: rows come in lexicographic
order of the sorted tuples and are independent of the worker count, so
two runs produce byte-identical files.  Each row's reciprocal sum is one
exact ``Fraction`` built from integers.  Each decided row's certificate
is rendered once, by the certificate renderer (sorted keys, two-space
indent, no generic JSON encoder), into the row's ``certificates.json``
entry; the row's id hashes that same text, and the sidecar is built from
the entries without rendering anything again.

File outputs::

    census.csv          tuple;status;rule;cotype;in_Tn;reciprocal_sum;certificate_id
    summary.txt         structured text block with the histograms
    certificates.json   sidecar mapping certificate_id -> certificate
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

from .certificates import Certificate, RuleId, Status, _render, _wrap, certificate_id
from .engine import Budget, Classification, KnowledgeBase, classify
from .errors import InputError
from .tuples import Exponents, Facts

CSV_HEADER = "tuple;status;rule;cotype;in_Tn;reciprocal_sum;certificate_id"

#: Fixed last field of the budget line of ``summary.txt``: part of the
#: census file format, not set by any budget.
SUMMARY_SIBLINGS_FIELD = "siblings=16"

#: Fewest rows a census process is given.  Below it, starting the pool
#: and pickling the rows back cost more than the search they share out.
MIN_ROWS_PER_PROCESS = 1_000


@dataclass(frozen=True)
class CensusSpec:
    """Universe description plus budget overrides."""

    length: int
    max_exponent: int
    min_exponent: int = 1
    budget: Budget = field(default_factory=Budget)

    def __post_init__(self):
        if self.length < 3:
            raise InputError(f"census tuples need length >= 3, got {self.length}")
        if self.min_exponent < 1:
            raise InputError(f"minimum exponent must be >= 1, got {self.min_exponent}")
        if self.min_exponent > self.max_exponent:
            raise InputError(
                f"empty exponent range [{self.min_exponent}, {self.max_exponent}]"
            )


@dataclass(frozen=True)
class CensusRow:
    exponents: Exponents
    status: Status
    rule: RuleId | None
    cotype: int
    in_tn: bool
    reciprocal_sum: Fraction
    certificate_id: str
    budget_hit: bool
    certificate: Certificate | None
    #: ``"<certificate_id>": <certificate>``, as certificates.json holds it;
    #: empty for an UNKNOWN row.
    sidecar_entry: str

    def csv_line(self) -> str:
        return ";".join(
            (
                ",".join(str(v) for v in self.exponents),
                self.status.value,
                "" if self.rule is None else self.rule.value,
                str(self.cotype),
                "true" if self.in_tn else "false",
                str(self.reciprocal_sum),
                self.certificate_id,
            )
        )


@dataclass(frozen=True)
class CensusSummary:
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


@dataclass(frozen=True)
class CensusResult:
    spec: CensusSpec
    rows: tuple[CensusRow, ...]
    summary: CensusSummary

    def csv_text(self) -> str:
        return "\n".join([CSV_HEADER, *(row.csv_line() for row in self.rows)]) + "\n"

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


def _build_row(entries: Exponents, outcome: Classification) -> CensusRow:
    certificate = outcome.certificate
    text = "" if certificate is None else _render(certificate, "  ", "  ")
    key = certificate_id(certificate, text) if text else ""
    facts = Facts(entries)
    return CensusRow(
        exponents=entries,
        status=outcome.status,
        rule=None if certificate is None else certificate.rule,
        cotype=facts.mask.bit_count(),
        in_tn=facts.in_tn,
        reciprocal_sum=Fraction(facts.sigma, facts.lcm),
        certificate_id=key,
        budget_hit=outcome.budget_hit,
        certificate=certificate,
        sidecar_entry=f'"{key}": {text}' if text else "",
    )


def _classify_chunk(args: tuple[tuple[Exponents, ...], Budget]) -> list[CensusRow]:
    chunk, budget = args
    kb = KnowledgeBase(budget)
    return [_build_row(entries, classify(entries, kb)) for entries in chunk]


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
