"""One benchmark stage, run in a fresh interpreter by ``run.py``.

Usage: python stage.py --workload NAME --stage STAGE --seed N --out DIR --src SRC [--trace]

A fresh interpreter per stage keeps the process-global caches (the
``tuples._core`` lru cache) and memo tables of one stage from reaching
the next.  The stage prints one JSON object on its last output line:
the timed quantities, the digests and counts the correctness gate needs,
and, with ``--trace``, the per-layer span totals.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

STAGES = ("setup", "census", "census_w2", "replay", "proj", "classify", "arith", "cli", "reference")
TRACED_STAGES = ("census", "census_w2", "replay", "proj", "classify")
CLI_REPEATS = 3
RECURSIVE_RULES = ("RECURSIVE_SUBTUPLES", "DESCEND", "TRANSFER")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def install_tracer(tracer):
    """Wrap the attributes each layer calls the next one through."""
    from brieskorn import backend, census, certificates, engine, proj, tuples

    tracer.wrap(backend, "invariant_core", "kernel")
    for name in ("reciprocal_sum", "apply_permutation", "divisors"):
        tracer.wrap(tuples, name, f"tuples.{name}")
    tracer.wrap(census, "run_census", "census.run")
    tracer.wrap(census, "classify", "census.classify", serves_first_arg=True)
    tracer.wrap(census, "certificate_id", "certificates.certificate_id")
    tracer.wrap(census, "write_census_files", "census.write")
    tracer.wrap(census.CensusResult, "csv_text", "census.render")
    tracer.wrap(census.CensusResult, "certificates_json", "census.render")
    tracer.wrap(certificates, "certificate_from_dict", "certificates.from_dict")
    tracer.wrap(certificates, "replay", "certificates.replay")
    tracer.wrap(proj, "proj_classes", "proj.classes")
    tracer.wrap(proj, "proj_edges", "proj.edges")
    tracer.wrap(proj, "classify", "proj.classify", serves_first_arg=True)
    tracer.wrap(engine, "classify", "engine.classify", serves_first_arg=True)

    def memo_hit(t, result):
        if result is not None:
            t.count("memo_hits")

    tracer.wrap(engine.KnowledgeBase, "lookup", "engine.memo.lookup", on_result=memo_hit)
    tracer.wrap(engine.KnowledgeBase, "store", "engine.store")


def meter(traced: bool, all_cpus: bool = False) -> speed.Meter:
    """A meter that samples the speed while a region runs (see ``speed.py``);
    in a traced sample, only before and after it, so that the samples do
    not fall inside spans."""
    return speed.Meter(period_s=None if traced else speed.PERIOD_S, all_cpus=all_cpus)


def timed(run, traced: bool, all_cpus: bool = False) -> tuple[object, float, float]:
    """``run()``, its time and its time at reference speed."""
    with meter(traced, all_cpus) as m:
        start = m.clock()
        value = run()
        end = m.clock()
    return value, end - start, m.scaled(start, end)


def census_stage(workload, out: Path, workers: int, traced: bool, stop) -> dict:
    from brieskorn import census

    spec = census.CensusSpec(
        length=workload.length,
        max_exponent=workload.max_exponent,
    )
    directory = out / f"census-w{workers}"

    def run():
        result = census.run_census(spec, workers=workers)
        return result, census.write_census_files(result, directory)

    # With two workers, the work runs in child processes on every CPU.
    (result, paths), raw_seconds, seconds = timed(run, traced, all_cpus=workers > 1)
    stop()
    files = {key: path.read_bytes() for key, path in paths.items()}
    rows = result.rows
    return {
        "seconds": seconds,
        "raw_seconds": raw_seconds,
        "ops": len(rows),
        "digests": {key: sha256(data) for key, data in files.items()},
        "bytes_written": sum(len(data) for data in files.values()),
        "sidecar_bytes": len(files["certificates"]),
        "recursive_rows": sum(
            1 for row in rows if row.rule is not None and row.rule.value in RECURSIVE_RULES
        ),
        "budget_hit_rows": result.summary.unknown_budget_hits,
    }


def count_nodes(certificate) -> int:
    return 1 + sum(count_nodes(child) for child in certificate.children)


def replay_stage(out: Path, traced: bool, stop) -> dict:
    from brieskorn import certificates

    sidecar = out / "census-w1" / "certificates.json"

    def run():
        raw = json.loads(sidecar.read_text(encoding="utf-8"))
        trees = [certificates.certificate_from_dict(node) for node in raw.values()]
        return raw, trees, [certificates.replay(tree) for tree in trees]

    (raw, trees, replayed), raw_seconds, seconds = timed(run, traced)
    stop()
    ids_match = all(
        certificates.certificate_id(tree) == key for key, tree in zip(raw, trees)
    )
    return {
        "seconds": seconds,
        "raw_seconds": raw_seconds,
        "ops": len(trees),
        "failed": replayed.count(False) + (0 if ids_match else 1),
        "nodes": sum(count_nodes(tree) for tree in trees),
    }


def proj_stage(workload, traced: bool, stop) -> dict:
    from brieskorn import proj

    members = workloads.universe(workload)
    classes, raw_seconds, seconds = timed(lambda: proj.proj_classes(members), traced)
    stop()
    text = json.dumps([c.to_dict() for c in classes], sort_keys=True)
    return {
        "seconds": seconds,
        "raw_seconds": raw_seconds,
        "ops": len(members),
        "digests": {"proj": sha256(text.encode("utf-8"))},
        "edges": sum(len(c.edges) for c in classes),
    }


def verdicts(stream, outcomes) -> list:
    from brieskorn import certificates

    return [
        [
            list(entries),
            outcome.status.value,
            None if outcome.certificate is None else outcome.certificate.rule.value,
            "" if outcome.certificate is None else certificates.certificate_id(outcome.certificate),
        ]
        for entries, outcome in zip(stream, outcomes)
    ]


def classify_stage(workload, seed: int, traced: bool, stop) -> dict:
    from brieskorn import certificates, engine

    stream = workloads.classify_stream(workload, seed)
    spans = []
    outcomes = []
    with meter(traced) as m:
        for entries in stream:
            start = m.clock()
            outcome = engine.classify(entries, engine.KnowledgeBase())
            spans.append((start, m.clock()))
            outcomes.append(outcome)
    stop()
    latencies = [m.scaled(start, end) for start, end in spans]
    failed = sum(
        1
        for outcome in outcomes
        if outcome.certificate is not None and not certificates.replay(outcome.certificate)
    )
    open_case = [
        outcome.status.value
        for entries, outcome in zip(stream, outcomes)
        if entries == workloads.OPEN_CASE
    ]
    return {
        "seconds": sum(latencies),
        "raw_seconds": sum(end - start for start, end in spans),
        "ops": len(stream),
        "failed": failed,
        "latencies": latencies,
        "open_case": open_case,
        "recursive_rows": sum(
            1
            for outcome in outcomes
            if outcome.certificate is not None
            and outcome.certificate.rule.value in RECURSIVE_RULES
        ),
        "budget_hit_rows": sum(1 for outcome in outcomes if outcome.budget_hit),
    }


def reference_stage() -> dict:
    """Digest of the verdicts on the reference classify-cold stream, which
    is pinned in digests.json.  (The census workloads' verdicts are pinned
    by their ``census.csv`` digest.)"""
    from brieskorn import engine

    stream = workloads.classify_cold_stream(workloads.REFERENCE_SEED, workloads.REFERENCE_COUNT)
    records = verdicts(stream, [engine.classify(t, engine.KnowledgeBase()) for t in stream])
    return {"digest": sha256(json.dumps(records).encode("utf-8"))}


def arith_stage(workload, seed: int) -> dict:
    """Depth-0 pass: the arithmetic rules alone, over the workload's
    primary inputs (the census universe, or the classify-cold stream)."""
    from brieskorn import engine

    if workload.name == "classify-cold":
        inputs = workloads.classify_stream(workload, seed)
    else:
        inputs = workloads.universe(workload)
    budget = engine.Budget(max_depth=0)
    start = time.perf_counter()
    outcomes = [engine.classify(entries, engine.KnowledgeBase(budget)) for entries in inputs]
    seconds = time.perf_counter() - start
    undecided = sum(1 for outcome in outcomes if outcome.certificate is None)
    return {"seconds": seconds, "ops": len(inputs), "undecided": undecided}


def timed_calls(commands, env) -> tuple[list[float], float, int]:
    """Runs each command in turn, on the CPU the meter samples.

    Returns the wall time of each at reference speed, their total raw
    wall time and the number that exited other than 0.  Every call is
    scaled by the mean speed over all of them: a call takes about 0.1 s,
    so only one or two samples fall inside it, and the calibration loop
    right after a process start reads its speed poorly.
    """
    spans = []
    failed = 0
    with speed.one_cpu(), speed.Meter() as m:
        for argv in commands:
            start = m.clock()
            completed = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                                       stderr=subprocess.DEVNULL, check=False)
            spans.append((start, m.clock()))
            failed += completed.returncode != 0
    factor = m.factor(spans[0][0], spans[-1][1])
    walls = [end - start for start, end in spans]
    return [wall * factor for wall in walls], sum(walls), failed


def cli_stage(workload, src: Path, traced: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    commands = [
        [sys.executable, "-m", "brieskorn", "classify", *map(str, entries)]
        for _ in range(CLI_REPEATS)
        for entries in workload.cli_tuples
    ]
    walls, raw_seconds, failed = timed_calls(commands, env)
    result = {
        "seconds": sum(walls),
        "raw_seconds": raw_seconds,
        "ops": len(walls),
        "failed": failed,
        "walls": walls,
    }
    if traced:
        result["python_walls"], _, bare_failed = timed_calls(
            [[sys.executable, "-c", "pass"]] * 5, env)
        result["import_walls"], _, import_failed = timed_calls(
            [[sys.executable, "-c", "import brieskorn"]] * 5, env)
        result["failed"] += bare_failed + import_failed
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--stage", required=True, choices=STAGES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--src", required=True, help="directory holding the brieskorn package")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    src = Path(args.src)
    sys.path.insert(0, str(src))
    import brieskorn  # noqa: F401  (the import is part of set-up)

    workload = workloads.WORKLOADS[args.workload]
    out = Path(args.out)
    if args.stage == "setup":
        workloads.universe(workload)
        workloads.classify_stream(workload, args.seed)
        print(json.dumps({"ready": time.perf_counter(), "ops": 1, "failed": 0,
                          "peak_rss_mb": peak_rss_mb()}))
        return 0

    tracer = None
    if args.trace and args.stage in TRACED_STAGES:
        from tracing import Tracer

        tracer = Tracer()
        install_tracer(tracer)

    def stop():
        # Spans end with the timed region; the checks after it are not traced.
        if tracer is not None:
            tracer.unwrap()

    if args.stage == "census":
        result = census_stage(workload, out, 1, args.trace, stop)
    elif args.stage == "census_w2":
        result = census_stage(workload, out, 2, args.trace, stop)
    elif args.stage == "replay":
        result = replay_stage(out, args.trace, stop)
    elif args.stage == "proj":
        result = proj_stage(workload, args.trace, stop)
    elif args.stage == "classify":
        result = classify_stage(workload, args.seed, args.trace, stop)
    elif args.stage == "reference":
        result = reference_stage()
    elif args.stage == "arith":
        result = arith_stage(workload, args.seed)
    else:
        result = cli_stage(workload, src, args.trace)

    if tracer is not None:
        tracer.write(out / "spans", args.stage)
        result["trace"] = {
            "calls": tracer.calls,
            "busy": tracer.busy,
            "self": tracer.self_time_by_name(),
            "counters": tracer.counters,
            "spans": len(tracer.start),
        }
    result.setdefault("failed", 0)
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
