#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the brieskorn package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload wide-n3 --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``wide-n3``,
``deep-n5`` and ``classify-cold``.  Each runs six stages, every sample of
a stage in a fresh interpreter: the serial census and its files, the
census with two workers, replay of the sidecar, ``proj_classes``, a cold
``classify`` stream and ``python -m brieskorn classify`` cold starts.
Stages are sampled again until ``--seconds`` is spent (see ``measure``).
Set-up time is measured separately, by starting several fresh
interpreters that import the package and generate the inputs.

Every sample is checked: the census files of both worker counts match
the digests in ``digests.json`` (so they are byte-identical across worker
counts), as does the ``proj_classes`` output; every certificate replays;
(2,3,3,4) stays UNKNOWN; every CLI call exits 0.  On ``classify-cold``
the verdicts on a fixed reference stream (not the timed one, which the
seed draws) match their recorded digest.

While a timing runs, a fixed calibration loop samples the speed of the
CPU every 50 ms, and the timing is reported at the loop's reference
speed (see ``speed.py``).  That takes out most of the changes of speed
of the shared machines the benchmark runs on.
``--trace 0`` reports the end-to-end metrics: set-up and CLI times are
medians, rates are medians of the per-sample rates, and latency
percentiles are taken over each tuple's median latency across the
classify samples.  ``--trace 1``
follows every untraced sample of a stage with a sample traced at the
layer boundaries, wrapped from the outside (see ``tracing.py``), and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object; the lines before it give every metric
by name and unit, plus the run context, which is also written to
``.perfbench/<workload>/result.json``.  The exit status is 1 when a check
fails or a stage crashes, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

PASS_STAGES = ("census", "census_w2", "replay", "proj", "classify", "cli")
# Sampled in this order in every round (see ``measure``).
ROUND_STAGES = ("setup", "census", "census_w2", "replay", "proj", "classify", "cli")
MIN_ROUNDS = 2
ROUND_TARGET_S = 1.0
MAX_PER_ROUND = 4
STAGE_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "census_rows_per_s": "1/s",
    "census_w2_rows_per_s": "1/s",
    "replay_certs_per_s": "1/s",
    "proj_tuples_per_s": "1/s",
    "classify_tuples_per_s": "1/s",
    "classify_p50_ms": "ms",
    "classify_p99_ms": "ms",
    "cli_cold_ms": "ms",
    "peak_rss_mb": "MB",
}


class StageFailed(RuntimeError):
    pass


def run_stage(stage: str, args, out: Path, src: Path, traced: bool = False) -> dict:
    argv = [
        sys.executable, str(HERE / "stage.py"),
        "--workload", args.workload, "--stage", stage, "--seed", str(args.seed),
        "--out", str(out), "--src", str(src),
    ]
    if traced:
        argv.append("--trace")
    completed = subprocess.run(argv, capture_output=True, text=True, timeout=STAGE_TIMEOUT_S)
    if completed.returncode != 0:
        raise StageFailed(f"stage {stage} exited {completed.returncode}:\n{completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def setup_sample(args, out: Path, src: Path) -> dict:
    """Interpreter start through import and input generation, timed on
    the CPU the meter samples (see ``speed.py``)."""
    with speed.one_cpu(), speed.Meter() as meter:
        begun = meter.clock()
        result = run_stage("setup", args, out, src)
        spent = meter.spent
    # The stage read the same clock, which the meter's clock trails by the
    # time spent sampling.
    ready = result["ready"] - spent
    result["raw_seconds"] = ready - begun
    result["seconds"] = meter.scaled(begun, ready)
    return result


def measure(args, out: Path, src: Path, budget_s: float, traced: bool = False):
    """Sample every stage in rounds until ``budget_s`` is spent.

    Every sample is a fresh interpreter, so it starts as cold as the
    first.  The machine's speed changes every few seconds, so the samples
    of a stage are spread over the run in rounds rather than taken back
    to back.  Within a round, a stage whose first sample measured less
    than ``ROUND_TARGET_S`` is sampled again (up to ``MAX_PER_ROUND``
    times), interleaved with the other stages.  Another round starts while
    one as long as the last fits in the budget, and an untraced run takes
    at least ``MIN_ROUNDS``.

    Returns the untraced samples by stage, and with ``traced`` the traced
    samples of ``PASS_STAGES`` too (else ``None``).  Each traced sample
    directly follows an untraced one of the same stage, so both modes have
    as many samples taken under the same machine conditions.
    """
    started = time.monotonic()
    results: dict[str, list[dict]] = {stage: [] for stage in ROUND_STAGES}
    traced_results = {stage: [] for stage in PASS_STAGES} if traced else None

    def sample(stage: str) -> None:
        if stage == "setup":
            results[stage].append(setup_sample(args, out, src))
        else:
            results[stage].append(run_stage(stage, args, out, src))
        if traced and stage in PASS_STAGES:
            traced_results[stage].append(run_stage(stage, args, out, src, traced=True))

    for stage in ROUND_STAGES:
        sample(stage)
    per_round = {
        stage: min(MAX_PER_ROUND, math.ceil(ROUND_TARGET_S / results[stage][0]["seconds"]))
        for stage in ROUND_STAGES
    }

    def finish_round(first: int) -> None:
        for k in range(first, MAX_PER_ROUND):
            for stage in ROUND_STAGES:
                if k < per_round[stage]:
                    sample(stage)

    finish_round(1)
    rounds = 1
    round_s = time.monotonic() - started
    min_rounds = 1 if traced else MIN_ROUNDS
    while rounds < min_rounds or round_s <= budget_s - (time.monotonic() - started):
        begun = time.monotonic()
        finish_round(0)
        rounds += 1
        round_s = time.monotonic() - begun
    return results, traced_results


def stage_seconds(results: dict, stage: str) -> float:
    """Median time of one sample of a stage, at reference speed."""
    return statistics.median(r["seconds"] for r in results[stage])


def total_seconds(results: dict) -> float:
    return sum(stage_seconds(results, stage) for stage in PASS_STAGES)


class Gate:
    """Counts attempted operations and failures across every check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def stage(self, name: str, result: dict) -> None:
        self.attempted += result["ops"]
        self.failed += result["failed"]
        if result["failed"]:
            self.problems.append(f"{name}: {result['failed']} failed operations")


def gate_results(gate: Gate, workload, results: dict, recorded: dict) -> None:
    for name, repeats in results.items():
        for result in repeats:
            if name != "setup":
                gate.stage(name, result)
    # Both worker counts match the recorded digests, hence each other.
    for repeats in (results["census"], results["census_w2"]):
        for result in repeats:
            for key in ("csv", "summary", "certificates"):
                gate.check(result["digests"][key] == recorded.get(key),
                           f"{key} digest differs from the recorded one")
    for result in results["proj"]:
        gate.check(result["digests"]["proj"] == recorded.get("proj"),
                   "proj_classes digest differs from the recorded one")
    for result in results["classify"]:
        if workload.name == "classify-cold":
            statuses = result["open_case"]
            gate.check(bool(statuses) and set(statuses) == {"UNKNOWN"},
                       f"{workloads.OPEN_CASE} is missing from the stream or not UNKNOWN")


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def rate(results: dict, stage: str) -> float:
    """Median over the samples of a stage of its work per second."""
    return statistics.median(r["ops"] / r["seconds"] for r in results[stage])


def tuple_percentile(results: dict, q: float) -> float:
    """Latency percentile over the stream's tuples, of each tuple's median
    latency across the classify samples.

    Every sample classifies the same stream in the same order, each in a
    fresh interpreter.  Within a sample, the tail of 20-microsecond
    latencies is mostly moments the CPU ran slow for less than the speed
    meter resolves, which fall on other tuples in every sample; the
    median per tuple keeps them out, and the percentile then measures
    which tuples are slow.
    """
    samples = [r["latencies"] for r in results["classify"]]
    return percentile([statistics.median(column) for column in zip(*samples)], q)


def pooled(results: dict, stage: str, key: str) -> list[float]:
    return [x for result in results[stage] for x in result[key]]


def cli_ms(results: dict, workload) -> float:
    """Mean over the workload's CLI tuples of the median time of a call.

    Not the median of all calls: the tuples take different times (one
    of deep-n5's searches for 0.2 s), and the median of the mixture lands
    in the noisy tail of one of them.
    """
    walls = pooled(results, "cli", "walls")
    count = len(workload.cli_tuples)
    # A sample calls each tuple in turn (see ``stage.cli_stage``).
    return statistics.fmean(statistics.median(walls[k::count]) for k in range(count)) * 1e3


def end_to_end(results: dict, workload) -> dict:
    return {
        "setup_s": statistics.median(r["seconds"] for r in results["setup"]),
        "census_rows_per_s": rate(results, "census"),
        "census_w2_rows_per_s": rate(results, "census_w2"),
        "replay_certs_per_s": rate(results, "replay"),
        "proj_tuples_per_s": rate(results, "proj"),
        "classify_tuples_per_s": rate(results, "classify"),
        "classify_p50_ms": tuple_percentile(results, 50) * 1e3,
        "classify_p99_ms": tuple_percentile(results, 99) * 1e3,
        "cli_cold_ms": cli_ms(results, workload),
        "peak_rss_mb": max(
            statistics.median(result["peak_rss_mb"] for result in repeats)
            for repeats in results.values()
        ),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(traced: dict, untraced: dict, arith: dict, workload) -> dict:
    """Per-layer metrics of the traced stages; ``untraced`` holds the plain
    samples of the same run, for the pool efficiency and tracing overhead,
    and ``arith`` the depth-0 pass.

    Each layer is read on the stage that exercises it as the workload
    intends: the kernel, tuple and engine layers on the primary stage (the
    serial census, or the classify stream on classify-cold), certificate
    ids and rendering on the serial census, replay on the replay stage and
    ``proj`` on the proj stage.  The census with two workers does its work
    in forked children, whose spans are not collected.
    """
    first = {stage: repeats[0] for stage, repeats in traced.items()}
    primary = first["classify" if workload.name == "classify-cold" else "census"]
    census, replay, proj = first["census"], first["replay"], first["proj"]

    def calls(result, name):
        return result["trace"]["calls"].get(name, 0)

    def busy(result, name):
        return result["trace"]["busy"].get(name, 0.0)

    def own(result, name):
        return result["trace"]["self"].get(name, 0.0)

    lookups = calls(primary, "engine.memo.lookup")
    metrics = {
        "kernel.calls": calls(primary, "kernel"),
        "kernel.busy_s": busy(primary, "kernel"),
    }
    for name in ("reciprocal_sum", "apply_permutation", "divisors"):
        metrics[f"tuples.{name}.calls"] = calls(primary, f"tuples.{name}")
        metrics[f"tuples.{name}.busy_s"] = busy(primary, f"tuples.{name}")
    metrics.update({
        "engine.arith.busy_s": arith["seconds"],
        "engine.arith.decided_ratio": 1 - arith["undecided"] / arith["ops"],
        "engine.nodes": calls(primary, "engine.store"),
        "engine.memo.lookups": lookups,
        "engine.memo.hit_ratio": _ratio(primary["trace"]["counters"].get("memo_hits", 0), lookups),
        "engine.search.useful_ratio": _ratio(primary["recursive_rows"], arith["undecided"]),
        "engine.budget_hit_rows": primary["budget_hit_rows"],
        "certificates.certificate_id.calls": calls(census, "certificates.certificate_id"),
        "certificates.certificate_id.busy_s": busy(census, "certificates.certificate_id"),
        "certificates.sidecar_bytes": census["sidecar_bytes"],
        "certificates.replay.busy_s": busy(replay, "certificates.replay"),
        "certificates.replay.nodes": replay["nodes"],
        "certificates.from_dict.busy_s": busy(replay, "certificates.from_dict"),
        "census.render.busy_s": busy(census, "census.render"),
        "census.write.busy_s": own(census, "census.write"),
        "census.bytes_written": census["bytes_written"],
        "census.pool.efficiency": stage_seconds(untraced, "census")
        / (2 * stage_seconds(untraced, "census_w2")),
        "proj.edges.busy_s": busy(proj, "proj.edges"),
        "proj.edges.count": proj["edges"],
        "proj.classify.busy_s": busy(proj, "proj.classify"),
        "proj.group.busy_s": own(proj, "proj.classes"),
        "cli.import_ms": statistics.median(pooled(traced, "cli", "import_walls")) * 1e3,
        "cli.python_ms": statistics.median(pooled(traced, "cli", "python_walls")) * 1e3,
        "trace.overhead_s": total_seconds(traced) - total_seconds(untraced),
        "trace.overhead_ratio": total_seconds(traced) / total_seconds(untraced) - 1,
        "trace.spans": sum(r.get("trace", {}).get("spans", 0) for r in first.values()),
    })
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_bytes") or name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("ratio") or name.endswith("efficiency"):
        return "ratio"
    return "count"


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        completed = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                   text=True, timeout=10, check=False)
    except OSError:
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "brieskorn" / "__init__.py").is_file():
        print(f"error: no brieskorn package under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        args.workload = name
        code = run_workload(args, root, src)
        if code:
            return code
    return 0


def run_workload(args, root: Path, src: Path) -> int:
    workload = workloads.WORKLOADS[args.workload]
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8")).get(workload.name, {})
    out = root / ".perfbench" / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    started = time.monotonic()
    try:
        # A traced run takes one round.
        untraced, traced = measure(args, out, src, 0 if args.trace else args.seconds,
                                   traced=bool(args.trace))
        arith = run_stage("arith", args, out, src) if traced else None
        reference = (run_stage("reference", args, out, src)
                     if workload.name == "classify-cold" else None)
    except (StageFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    gate = Gate()
    for results in (untraced, traced) if traced else (untraced,):
        gate_results(gate, workload, results, recorded)
    if reference is not None:
        gate.check(reference["digest"] == recorded.get("verdicts"),
                   "reference classify verdict digest differs from the recorded one")

    if traced:
        metrics = layer_metrics(traced, untraced, arith, workload)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(untraced, workload)
        units = END_TO_END_UNITS

    sys.path.insert(0, str(src))
    import brieskorn

    context = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "kernel_backend": brieskorn.active_backend(),
        "stage_samples": {stage: len(repeats) for stage, repeats in untraced.items()},
        "traced_stage_samples": (
            {stage: len(repeats) for stage, repeats in traced.items()} if traced else None
        ),
        "classify_samples": len(pooled(untraced, "classify", "latencies")),
        # Reference speed over measured speed (see speed.py): above 1 when
        # the machine ran slower than the reference.
        "speed_factor": statistics.median(
            r["seconds"] / r["raw_seconds"]
            for repeats in untraced.values() for r in repeats if r.get("raw_seconds")
        ),
        "cli_samples": len(pooled(untraced, "cli", "walls")),
        "error_rate": gate.failed / gate.attempted,
        "problems": gate.problems,
        "wall_s": time.monotonic() - started,
    }
    report = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (out / "result.json").write_text(json.dumps({"context": context, **report}, indent=2) + "\n",
                                     encoding="utf-8")
    for key, value in context.items():
        print(f"# {key}: {value}")
    for name, value in metrics.items():
        print(f"{workload.name} {name} {value:.6g} {units[name]}")
    print(f"{workload.name} error_rate {context['error_rate']:.6g} ratio "
          f"({gate.failed} of {gate.attempted} operations failed)")
    print(json.dumps(report))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
