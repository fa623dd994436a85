"""Command-line interface.

Subcommands: ``classify``, ``invariants``, ``census``, ``proj-classes``.
Numbers are always printed exactly (integers and p/q rationals, never
floats).  Exit code 0 covers every successful run including UNKNOWN
verdicts (an open case is an answer, not a failure); exit code 2 is
reserved for usage and input errors.

Search budgets default to depth=6, witnesses=32 and come from the
``--depth/--max-witnesses`` flags only.  A non-empty ``BRIESKORN_BUDGET``
(an environment variable no longer read) is refused with exit code 2, so
that no run silently takes a budget its command line does not show.

``census`` and ``proj-classes`` refuse a universe of more than
``MAX_UNIVERSE`` tuples or ``MAX_ENTRIES`` entries (tuples times length)
with exit code 2, before enumerating it.

``classify`` and ``invariants`` load only the core modules: ``census``,
``proj``, ``json`` and ``pathlib`` are imported inside the commands and
branches that use them, so a one-tuple call does not pay for them.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

from . import tuples as tp
from .certificates import Certificate
from .engine import Budget, KnowledgeBase, classify, kernel_degree_bound
from .errors import BrieskornError, InputError

if TYPE_CHECKING:
    from .census import CensusSpec

#: Largest universe ``census`` and ``proj-classes`` accept: about 1 GB of
#: census rows at roughly 2 KB a row.
MAX_UNIVERSE = 500_000
#: Most entries (tuples times length) such a universe may hold, so that
#: long tuples cannot fill memory under the tuple cap.
MAX_ENTRIES = 10 * MAX_UNIVERSE


def _build_budget(args) -> Budget:
    if os.environ.get("BRIESKORN_BUDGET"):
        raise InputError("BRIESKORN_BUDGET is not read; set the budget with --depth and --max-witnesses")
    overrides = {}
    if args.depth is not None:
        overrides["max_depth"] = args.depth
    if args.max_witnesses is not None:
        overrides["max_divisor_witnesses"] = args.max_witnesses
    return Budget(**overrides)


def _parse_exponents(raw: list[str]):
    values = []
    for token in raw:
        try:
            values.append(int(token))
        except ValueError:
            raise InputError(f"exponents must be integers, got {token!r}") from None
    return tp.as_exponents(values, minimum_length=3)


def _format_tuple(entries) -> str:
    return "(" + ",".join(str(v) for v in entries) + ")"


def _render_certificate(cert: Certificate, indent: int = 0) -> list[str]:
    pad = "  " * indent
    line = f"{pad}{cert.rule.value} {_format_tuple(cert.exponents)} -> {cert.status.value}"
    details = []
    if cert.permutation != tp.identity_permutation(len(cert.exponents)):
        details.append("permutation=" + _format_tuple(cert.permutation))
    witness = cert.witness
    if witness is not None:
        if witness.index is not None:
            details.append(f"index={witness.index}")
        if witness.exponents is not None:
            details.append("witness=" + _format_tuple(witness.exponents))
        if witness.subsets is not None:
            details.append("subsets=" + " ".join("{" + ",".join(map(str, s)) + "}" for s in witness.subsets))
    if details:
        line += "  [" + ", ".join(details) + "]"
    lines = [line]
    for child in cert.children:
        lines.extend(_render_certificate(child, indent + 1))
    return lines


def _cmd_classify(args) -> int:
    entries = _parse_exponents(args.exponents)
    kb = KnowledgeBase(_build_budget(args))
    facts = tp.Facts(entries)
    outcome = classify(entries, kb, facts=facts)
    cert = outcome.certificate
    if args.format == "structured":
        import json

        payload = {
            "tuple": list(entries),
            "status": outcome.status.value,
            "rule": None if cert is None else cert.rule.value,
            "budget_hit": outcome.budget_hit,
            "certificate": None if cert is None else cert.to_dict(),
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0
    if args.format == "csv":
        from . import census

        print(census.CSV_HEADER)
        print(census._build_row(entries, outcome, facts).csv_line)
        return 0
    print(f"tuple: {_format_tuple(entries)}")
    print(f"status: {outcome.status.value}")
    if cert is None:
        print("rule: none (no criterion in the catalogue decides this tuple)")
        if outcome.budget_hit:
            print("note: the recursive rules had candidates, but none decided the tuple within the budget")
    else:
        print(f"rule: {cert.rule.value}")
        print("certificate:")
        for line in _render_certificate(cert, indent=1):
            print(line)
    return 0


def _cmd_invariants(args) -> int:
    entries = _parse_exponents(args.exponents)
    facts = tp.Facts(entries)
    report = tp.invariant_report(entries, facts=facts)
    kb = KnowledgeBase(_build_budget(args))
    bound = kernel_degree_bound(entries, kb, facts=facts) if len(entries) >= 4 else None
    if args.format == "structured":
        import json

        payload = report.to_dict()
        if bound is not None:
            payload["kernel_degree_bound"] = {
                "value": bound.value,
                "rigid_critical": sorted(bound.rigid_critical),
                "undecided": sorted(bound.undecided),
                "partial": bound.is_partial,
            }
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0
    def show_set(indices):
        return "{" + ",".join(str(i) for i in sorted(indices)) + "}"

    print(f"tuple: {_format_tuple(report.exponents)}")
    print(f"lcm: {report.total_lcm}")
    print(f"gcd: {report.total_gcd}")
    print(f"normalization: {_format_tuple(report.normalization)}")
    print(f"degrees (lcm/entry): {_format_tuple(report.degrees)}")
    print(f"type: {report.type}   gcd-critical indices: {show_set(report.gcd_critical)}")
    print(f"cotype: {report.cotype}   lcm-critical indices: {show_set(report.lcm_critical)}")
    print(f"lcm-stable indices: {show_set(report.lcm_stable)}")
    print(f"coordinate gcds: {_format_tuple(report.coordinate_gcds)}")
    print(f"in_Tn: {'true' if report.in_tn else 'false'}")
    print(f"lcm drop over critical indices: {report.critical_lcm_drop}")
    print(f"reciprocal sum: {report.reciprocal_sum}")
    if bound is not None:
        suffix = ""
        if bound.is_partial:
            suffix = (
                "  (divides the true bound; undecided subtuples at "
                + show_set(bound.undecided)
                + ")"
            )
        print(f"kernel degree bound: {bound.value}{suffix}")
    return 0


def _check_universe(spec: CensusSpec) -> None:
    from . import census

    where = (
        f"the universe (length {spec.length}, exponents {spec.min_exponent}.."
        f"{spec.max_exponent}) has more than"
    )
    # The count is C(c+n-1, k) with k = min(n, c-1) <= (c+n-1)/2, so it is
    # at least 2**k: a k of the cap's bit length is over the cap without
    # the closed form, whose cost grows with k.
    k = min(spec.length, spec.max_exponent - spec.min_exponent)
    if k >= MAX_UNIVERSE.bit_length() or (size := census.universe_size(spec)) > MAX_UNIVERSE:
        raise InputError(f"{where} {MAX_UNIVERSE} tuples")
    if size * spec.length > MAX_ENTRIES:
        raise InputError(f"{where} {MAX_ENTRIES} entries")


def _unwritable(out: str, error: OSError) -> InputError:
    return InputError(f"cannot write census files under {out!r}: {error}")


def _cmd_census(args) -> int:
    from pathlib import Path

    from . import census

    spec = census.CensusSpec(
        length=args.n,
        min_exponent=args.min,
        max_exponent=args.max,
        budget=_build_budget(args),
    )
    # Reject a bad --workers, universe or --out before the classification
    # work, and the first two before --out is created.
    if args.workers < 1:
        raise InputError(f"workers must be >= 1, got {args.workers}")
    _check_universe(spec)
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as error:
        raise _unwritable(args.out, error) from None
    result = census.run_census(spec, workers=args.workers)
    try:
        paths = census.write_census_files(result, args.out)
    except OSError as error:
        raise _unwritable(args.out, error) from None
    print(result.summary.render(), end="")
    print(f"csv: {paths['csv']}")
    print(f"summary: {paths['summary']}")
    print(f"certificates: {paths['certificates']}")
    return 0


def _cmd_proj_classes(args) -> int:
    from . import census, proj

    kb = KnowledgeBase(_build_budget(args))
    spec = census.CensusSpec(length=args.n, min_exponent=args.min, max_exponent=args.max)
    _check_universe(spec)
    universe = list(census.enumerate_universe(spec))
    classes = proj.proj_classes(universe, kb)
    if args.format == "structured":
        print(proj.classes_to_json(classes))
        return 0
    print(
        f"{len(classes)} classes over {len(universe)} tuples "
        f"(length {args.n}, exponents {args.min}..{args.max}; "
        "classes are relative to this universe)"
    )
    for number, cls in enumerate(classes, start=1):
        flag = "mixed" if cls.mixed else "uniform"
        print(f"class {number} ({flag}, {len(cls.members)} members):")
        for member, status in cls.statuses:
            print(f"  {_format_tuple(member)}: {status.value}")
        for edge in cls.edges:
            print(
                f"  edge {_format_tuple(edge.source)} -> {_format_tuple(edge.target)}"
                f"  index={edge.index} veronese={edge.veronese_index}"
            )
    return 0


def _add_budget_flags(parser) -> None:
    parser.add_argument("--depth", type=int, default=None, help="max recursion depth (default 6)")
    parser.add_argument(
        "--max-witnesses", type=int, default=None,
        help="max divisor witnesses per coordinate for descend (default 32)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brieskorn",
        description="Classify exponent tuples of Pham-Brieskorn rings as rigid, "
        "stably rigid, non-rigid or unknown, with replayable certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify one tuple")
    p_classify.add_argument("exponents", nargs="+", help="at least three positive integers")
    p_classify.add_argument("--format", choices=("human", "structured", "csv"), default="human")
    _add_budget_flags(p_classify)
    p_classify.set_defaults(handler=_cmd_classify)

    p_inv = sub.add_parser("invariants", help="print the arithmetic invariants of one tuple")
    p_inv.add_argument("exponents", nargs="+", help="at least three positive integers")
    p_inv.add_argument("--format", choices=("human", "structured"), default="human")
    _add_budget_flags(p_inv)
    p_inv.set_defaults(handler=_cmd_invariants)

    p_census = sub.add_parser("census", help="classify a whole universe and write files")
    p_census.add_argument("--n", type=int, required=True, help="tuple length (>= 3)")
    p_census.add_argument("--max", type=int, required=True, help="largest exponent")
    p_census.add_argument("--min", type=int, default=1, help="smallest exponent (default 1)")
    p_census.add_argument("--out", default="census-out", help="output directory")
    p_census.add_argument(
        "--workers", type=int, default=1, help="at most N processes (default 1)", metavar="N"
    )
    _add_budget_flags(p_census)
    p_census.set_defaults(handler=_cmd_census)

    p_proj = sub.add_parser(
        "proj-classes", help="group a universe into projective-cone isomorphism classes"
    )
    p_proj.add_argument("--n", type=int, required=True, help="tuple length (>= 3)")
    p_proj.add_argument("--max", type=int, required=True, help="largest exponent")
    p_proj.add_argument("--min", type=int, default=1, help="smallest exponent (default 1)")
    p_proj.add_argument("--format", choices=("human", "structured"), default="human")
    _add_budget_flags(p_proj)
    p_proj.set_defaults(handler=_cmd_proj_classes)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrieskornError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
