"""End-to-end benchmark of the PProx data plane.

Drives seeded MovieLens traffic, open loop in virtual time, through the
real client -> UA -> shuffle -> IA -> LRS -> IA -> UA -> client path and
prints every metric by name and unit, then one JSON result line::

    python3 perfbench/run.py --workload reads-real --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports the per-layer metrics from a separate run whose
layer entry points are wrapped by ``layertrace.LayerTracer``, plus the
tracing overhead against an untraced run of the same traffic.

Every repetition runs in a fresh process (``workload.py``).  A run makes
:data:`REPETITIONS` of them, each with its own traffic seed derived from
``--seed``, and sizes each so that together they measure about
``--seconds`` of wall time on a 2-core x86 box.  The number of requests
depends only on ``--seconds`` and the workload, so the same seed gives
the same calls, the same virtual latencies and the same counters.

A failed correctness check ends the run with a named verdict and exit
code 1; a checkout without the PProx sources ends it with exit code 2
and no result.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spec import (  # noqa: E402
    DEPLOYMENT_SEED,
    END_TO_END,
    ONCE_PER_PHASE,
    ROOT_SPAN,
    SPANS,
    WORKLOADS,
    per_layer_metrics,
    percentile,
)

#: Fresh-process repetitions per run.
REPETITIONS = 3
#: Every run ends within this many wall seconds.
RUN_DEADLINE_S = 170.0
#: Relative slack allowed between the summed span self times and the
#: traced phase's wall time.
SPAN_SUM_TOLERANCE = 0.01
OUT_DIR = os.path.join(HERE, "out")


class RunFailed(Exception):
    """A repetition ended with a named verdict instead of a result."""

    def __init__(self, verdict: str, detail: str) -> None:
        super().__init__(f"{verdict}: {detail}")
        self.verdict = verdict
        self.detail = detail


def requests_per_repetition(workload_name: str, seconds: float, repetitions: int) -> int:
    """Measured calls per repetition when *repetitions* share *seconds*."""
    workload = WORKLOADS[workload_name]
    return max(1, round(seconds * workload.nominal_wall_rate / repetitions))


def traffic_seed(seed: int, repetition: int) -> int:
    """The traffic seed of one repetition of a run seeded with *seed*."""
    return seed * 1000 + repetition


def run_repetition(
    workload: str, seed: int, requests: int, traced: bool, deadline: float
) -> Dict[str, Any]:
    """Run ``workload.py`` once in a fresh process and parse its result."""
    command = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--requests", str(requests),
    ]
    if traced:
        command.append("--trace")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("TIMEOUT", f"no time left for a {workload} repetition")
    try:
        completed = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise RunFailed("TIMEOUT", f"{workload} repetition exceeded the run deadline") from None
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        tail = completed.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RunFailed("CRASHED", f"exit {completed.returncode}: {tail[0]}")
    if "verdict" in result:
        raise RunFailed(result["verdict"], result["detail"])
    if completed.returncode != 0:
        raise RunFailed("CRASHED", f"exit {completed.returncode} after a result")
    return result


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    """End-to-end metrics of a run from its untraced repetitions."""
    latencies = [value for rep in reps for value in rep["latencies_ms"]]
    sent = sum(rep["sent"] for rep in reps)
    return {
        # The repetitions' measured phases taken together as one phase.
        "req_per_s": sum(rep["succeeded"] for rep in reps) / sum(rep["wall_s"] for rep in reps),
        "vlat_p50_ms": percentile(latencies, 0.50),
        "vlat_p99_ms": percentile(latencies, 0.99),
        "success_ratio": sum(rep["succeeded"] for rep in reps) / sent,
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }


#: Outputs a traced repetition must reproduce exactly from its untraced
#: twin: tracing may cost wall time but must not change behaviour.
DETERMINISTIC_KEYS = ("sent", "succeeded", "latencies_ms", "events", "shuffle", "checks")


def per_layer(untraced: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics from one traced repetition and its untraced twin."""
    changed = [key for key in DETERMINISTIC_KEYS if untraced[key] != traced[key]]
    if changed:
        raise RunFailed(
            "NONDETERMINISTIC", f"traced run of the same traffic changed {', '.join(changed)}"
        )
    completed = traced["succeeded"]
    spans = traced["spans"]
    span_total = sum(span["self_s"] for span in spans.values())
    if abs(span_total - traced["wall_s"]) > SPAN_SUM_TOLERANCE * traced["wall_s"]:
        raise RunFailed(
            "SPAN_SUM_MISMATCH",
            f"span self times add to {span_total:.6f} s, traced phase took "
            f"{traced['wall_s']:.6f} s",
        )
    metrics: Dict[str, float] = {}
    for span in list(SPANS) + [ROOT_SPAN]:
        metrics[f"{span}.us"] = 1e6 * spans[span]["self_s"] / completed
        if span not in ONCE_PER_PHASE:
            metrics[f"{span}.calls"] = spans[span]["calls"] / completed
    cache = traced["pseudonym_cache"]
    lookups = cache["hits"] + cache["misses"]
    shuffle = traced["shuffle"]
    flushes = shuffle["flushes"]
    codec = traced["codec"]
    metrics.update(
        {
            "crypto.pseudonym_cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
            "shuffle.flushes": flushes,
            "shuffle.full_flush_ratio": shuffle["full_flushes"] / flushes if flushes else 0.0,
            "shuffle.mean_batch": shuffle["entries"] / flushes if flushes else 0.0,
            "shuffle.min_batch": shuffle["min_batch"],
            "client.retries": traced["client_retries"],
            "codec.request_bytes": codec["request_bytes"],
            "codec.response_bytes": codec["response_bytes"],
            "simnet.events_per_req": traced["events"] / completed,
            "setup.deploy_s": untraced["setup"]["deploy_s"],
            "setup.warmup_s": untraced["setup"]["warmup_s"],
            "setup.train_s": untraced["setup"]["train_s"],
            "trace.wall_us_per_req": 1e6 * traced["wall_s"] / completed,
            "trace.overhead_ratio": traced["req_per_s"] / untraced["req_per_s"],
        }
    )
    for stage, value in traced["vstage_p50_ms"].items():
        metrics[f"vstage.{stage}.p50_ms"] = value
    return metrics


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, deadline: float
) -> Dict[str, Any]:
    """All repetitions of one workload; returns metrics and raw results."""
    if trace:
        # One untraced and one traced pass over the same traffic.
        requests = requests_per_repetition(name, seconds, 2)
        untraced = run_repetition(name, traffic_seed(seed, 0), requests, False, deadline)
        traced = run_repetition(name, traffic_seed(seed, 0), requests, True, deadline)
        reps = [untraced, traced]
        metrics = per_layer(untraced, traced)
        units = {metric: unit for metric, (unit, _) in per_layer_metrics().items()}
    else:
        requests = requests_per_repetition(name, seconds, REPETITIONS)
        reps = [
            run_repetition(name, traffic_seed(seed, rep), requests, False, deadline)
            for rep in range(REPETITIONS)
        ]
        metrics = end_to_end(reps)
        units = {metric: unit for metric, (unit, _, _) in END_TO_END.items()}
    return {"metrics": metrics, "units": units, "reps": reps, "requests": requests}


def source_revision() -> Dict[str, str]:
    """Git revision if the checkout has one, and a digest of ``src/``."""
    revision = "unknown"
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head_path):
        with open(head_path, encoding="utf-8") as handle:
            head = handle.read().strip()
        revision = head
        if head.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", head[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as handle:
                    revision = handle.read().strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, subdirs, files in sorted(os.walk(src)):
        subdirs.sort()
        for filename in sorted(files):
            if filename.endswith(".py"):
                path = os.path.join(directory, filename)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {"git_revision": revision, "source_sha256": digest.hexdigest()}


def write_meta(args: argparse.Namespace, outcome: Dict[str, Any]) -> str:
    """Write the run's meta file (never compared across runs)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    meta = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "deployment_seed": DEPLOYMENT_SEED,
        "repetitions": REPETITIONS,
        "python": platform.python_version(),
        "platform": platform.platform(),
        **source_revision(),
        "workloads": {},
    }
    for name, result in outcome.items():
        meta["workloads"][name] = {
            "parameters": dataclasses.asdict(WORKLOADS[name]),
            "requests_per_repetition": result.get("requests"),
            "metrics": result.get("metrics"),
            "verdict": result.get("verdict"),
            "repetitions": [
                {key: value for key, value in rep.items() if key != "latencies_ms"}
                for rep in result.get("reps", [])
            ],
        }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
    return path


def report(name: str, result: Dict[str, Any], trace: bool) -> None:
    """Print one workload's metrics and checks, one per line."""
    workload = WORKLOADS[name]
    reps = result["reps"]
    measured = reps if not trace else reps[:1]
    sent = sum(rep["sent"] for rep in measured)
    succeeded = sum(rep["succeeded"] for rep in measured)
    samples = sum(len(rep["latencies_ms"]) for rep in measured)
    print(
        f"{name}: provider={workload.provider} codec={workload.codec} "
        f"shards={workload.shards} I={workload.instances} S={workload.shuffle_size} "
        f"rate={workload.rate:g}/s get={workload.get_share:.0%} "
        f"repetitions={len(reps)} requests/rep={result['requests']}"
    )
    print(
        f"  calls: sent={sent} succeeded={succeeded} failed={sent - succeeded} "
        f"fail_ratio={(sent - succeeded) / sent:.6f}"
    )
    for metric, value in result["metrics"].items():
        note = ""
        if metric.startswith("vlat_"):
            note = f"  (n={samples} calls; failed calls count as inf)"
        elif metric == "req_per_s":
            note = "  (repetitions: " + ", ".join(f"{rep['req_per_s']:.2f}" for rep in reps) + ")"
        print(f"  {metric:36s} {value:14.4f} {result['units'][metric]}{note}")
    checks = reps[-1]["checks"]
    print(
        f"  checks: ok (gets={checks['gets']} non-empty={checks['nonempty_share']:.3f}, "
        f"LRS holds {checks['stored_events']} events under layer pseudonyms, "
        "no cleartext id, no padding, catalog items only)"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no PProx sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcome: Dict[str, Dict[str, Any]] = {}
    failure: Optional[RunFailed] = None
    for name in names:
        try:
            outcome[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        except RunFailed as error:
            outcome[name] = {"verdict": error.verdict, "detail": error.detail}
            failure = error
            print(f"{name}: verdict {error.verdict}: {error.detail}")
            break
        report(name, outcome[name], bool(args.trace))
    print(f"meta: {os.path.relpath(write_meta(args, outcome), ROOT)}")

    metrics: Dict[str, Dict[str, Any]] = {}
    attempted = failed = 0
    for name, result in outcome.items():
        for rep in result.get("reps", []):
            attempted += rep["sent"]
            failed += rep["sent"] - rep["succeeded"]
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, value in result.get("metrics", {}).items():
            metrics[prefix + metric] = {"value": value, "unit": result["units"][metric]}
    print(
        json.dumps(
            {
                "correct": failure is None,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failure is None else 1


if __name__ == "__main__":
    sys.exit(main())
