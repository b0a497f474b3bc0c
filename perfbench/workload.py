"""One repetition of a benchmark workload, meant to run in its own process.

Builds the real PProx data plane through the public API (``Deployment``
or ``build_fleet``, ``PProxClient``, the Harness LRS), warms the LRS by
posting through the proxy, trains, then drives an open-loop seeded
MovieLens mix with :class:`repro.workload.injector.Injector` and checks
every outcome.  ``run.py`` starts one process per repetition, because
the proxy memoizes RSA layer keys for the life of a process and a warm
process would understate set-up time.

Run one repetition by hand (from the repository root)::

    python3 perfbench/workload.py --workload reads-real --seed 1 --requests 400

The last line of standard output is one JSON object.  With ``--trace``
the measured phase runs under :class:`layertrace.LayerTracer` and the
object carries per-layer self times.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from layertrace import LayerTracer  # noqa: E402
from spec import DEPLOYMENT_SEED, ROOT_SPAN, SPANS, WORKLOADS, Workload, percentile  # noqa: E402

from repro.client.library import CompletedCall  # noqa: E402
from repro.context import Deployment, SimContext  # noqa: E402
from repro.crypto.envelope import (  # noqa: E402
    MAX_RECOMMENDATIONS,
    EnvelopeCodec,
    encode_identifier,
    is_padding_item,
)
from repro.crypto.provider import RealCryptoProvider, SimCryptoProvider  # noqa: E402
from repro.fleet.drill import default_fleet_overload  # noqa: E402
from repro.fleet.service import build_fleet  # noqa: E402
from repro.lrs import HarnessService  # noqa: E402
from repro.proxy import PProxConfig  # noqa: E402
from repro.rest.messages import Verb  # noqa: E402
from repro.simnet.metrics import LatencyRecorder  # noqa: E402
from repro.simnet.rng import RngRegistry  # noqa: E402
from repro.telemetry import PIPELINE_STAGES, Telemetry, Tracer, instrument_stack  # noqa: E402
from repro.workload.injector import Injector  # noqa: E402
from repro.workload.movielens import SyntheticMovieLens  # noqa: E402

#: Client-side limit on each attempt, in virtual seconds: every call
#: settles, as a success or as a failure, within a bounded time.
REQUEST_TIMEOUT = 5.0
MAX_RETRIES = 2
#: Warm-up posts sent through the proxy before training.
WARMUP_POSTS = 240
#: Share of gets that must return a non-empty recommendation list.
MIN_NONEMPTY_SHARE = 0.95


class Verdict(Exception):
    """A failed correctness check, named so ``run.py`` can report it."""

    def __init__(self, name: str, detail: str) -> None:
        super().__init__(f"{name}: {detail}")
        self.name = name
        self.detail = detail


class SpanHub:
    """The program's span tracer without metrics, scraper or event log.

    Traced runs of workloads that run without telemetry arm this hub so
    the per-stage virtual latencies can be read from the program's own
    spans at the least extra cost (no scrape events, no redaction).
    """

    def __init__(self) -> None:
        self.loop: Any = None
        self.tracer = Tracer(clock=self.now)
        self.registry = None
        self.event_log = None

    def bind(self, loop: Any, run_label: str = "") -> None:
        self.loop = loop

    def now(self) -> float:
        return self.loop.now

    def emit_fault(self, role: str, payload: Dict[str, Any]) -> None:
        """Faults are not injected by this benchmark."""


class Stack:
    """The deployed system and the seeded traffic it is driven with."""

    def __init__(
        self, workload: Workload, seed: int, movielens: SyntheticMovieLens, telemetry: Any
    ) -> None:
        self.workload = workload
        self.movielens = movielens
        self.telemetry = telemetry
        #: Traffic randomness: MovieLens trace, verb mix, arrival jitter.
        self.traffic = RngRegistry(seed=seed)
        ctx = SimContext.fresh(DEPLOYMENT_SEED, telemetry=telemetry, codec=workload.codec)
        if workload.provider == "real":
            provider = RealCryptoProvider(rng_bytes=ctx.rng.bytes_fn("crypto"))
        else:
            provider = SimCryptoProvider(rng_bytes=ctx.rng.bytes_fn("crypto"))
        ctx.provider = provider
        self.ctx = ctx
        self.loop = ctx.loop
        if telemetry is not None:
            telemetry.bind(ctx.loop, run_label=f"perfbench/{workload.name}/{seed}")
        self.harness = HarnessService(
            loop=ctx.loop, rng=ctx.rng.stream("lrs"), frontend_count=workload.frontends
        )
        config = PProxConfig(
            ua_instances=workload.instances,
            ia_instances=workload.instances,
            shuffle_size=workload.shuffle_size,
            shuffle_timeout=workload.shuffle_timeout,
            balancing="round-robin",
        )
        if workload.shards:
            fleet = build_fleet(
                ctx,
                config,
                self.harness.pick_frontend,
                shards=workload.shards,
                overload=default_fleet_overload(),
            )
            self.deployment = Deployment(ctx=ctx, service=fleet, config=config)
        else:
            self.deployment = Deployment.build(
                ctx=ctx, config=config, lrs_picker=self.harness.pick_frontend
            )
        self.service = self.deployment.service
        self.client = self.deployment.client(
            request_timeout=REQUEST_TIMEOUT,
            max_retries=MAX_RETRIES,
            backoff_base=0.05,
            backoff_jitter=0.02,
        )
        # Arrivals are spread uniformly over each inter-arrival slot:
        # with the injector's default 1 ms jitter a fixed-rate schedule
        # lines up with the shuffle timers and latencies fall into a
        # comb whose median jumps from tooth to tooth between seeds.
        self.injector = Injector(
            loop=ctx.loop,
            rng=self.traffic.stream("injector"),
            recorder=LatencyRecorder("bench"),
            jitter_seconds=1.0 / workload.rate,
        )
        if isinstance(telemetry, Telemetry):
            instrument_stack(
                telemetry,
                service=self.service,
                provider=provider,
                lrs=self.harness,
                injector=self.injector,
                network=ctx.network,
                client=self.client,
            )
        self.flush_sizes: List[Tuple[int, bool]] = []
        self._hook_shuffle_buffers()

        self.catalog = set(self.movielens.items)
        self.posted: List[Tuple[str, str]] = []
        #: (settled call, counted in latency) for the measured phase.
        self.calls: List[Tuple[CompletedCall, bool]] = []

    # -- wiring -----------------------------------------------------------

    def buffers(self) -> List[Any]:
        """Every shuffle buffer of every UA and IA instance."""
        found = []
        for instance in list(self.service.ua_instances) + list(self.service.ia_instances):
            for buffer in (
                getattr(instance, "request_buffer", None),
                getattr(instance, "response_buffer", None),
            ):
                if buffer is not None:
                    found.append(buffer)
        return found

    def _hook_shuffle_buffers(self) -> None:
        """Record each flush's size through the buffers' public hook,
        chained after any hook telemetry installed."""
        for buffer in self.buffers():
            chained = buffer.on_flush

            def on_flush(size: int, timer_fired: bool, chained=chained) -> None:
                if chained is not None:
                    chained(size, timer_fired)
                self.flush_sizes.append((size, timer_fired))

            buffer.on_flush = on_flush

    # -- traffic ------------------------------------------------------------

    def post(self, user: str, item: str, on_complete) -> None:
        self.posted.append((user, item))
        self.client.post(user, item, on_complete=on_complete)

    def warm_up(self) -> None:
        """Post the first events through the proxy, then drain."""
        events = self.movielens.events[:WARMUP_POSTS]
        self.warm_users = sorted({user for user, _ in events})
        warm_calls: List[CompletedCall] = []
        feed = iter(events)
        warmup = Injector(loop=self.loop, rng=self.traffic.stream("warmup"))

        def issue(on_complete) -> None:
            user, item = next(feed)
            self.post(user, item, lambda call: (warm_calls.append(call), on_complete(call)))

        warmup.inject(self.workload.rate, (len(events) + 0.5) / self.workload.rate, issue)
        self.loop.run()
        failed = sum(1 for call in warm_calls if not call.ok)
        if len(warm_calls) != len(events) or failed:
            raise Verdict(
                "WARMUP_FAILED",
                f"{len(events)} warm-up posts sent, {len(warm_calls)} settled, {failed} failed",
            )

    def schedule_phase(self, requests: int) -> int:
        """Schedule the open-loop measured phase; returns calls scheduled.

        After the *requests* measured arrivals, a trailing window of
        two shuffle timeouts keeps arriving at the same rate, so the
        last measured calls leave their shuffle buffers the way every
        other call did rather than by the drain timer.  Trailing calls
        are checked like any other but excluded from latency.
        """
        workload = self.workload
        mix = self.traffic.stream("mix")
        histories = self.movielens.user_histories()
        users = self.warm_users
        weights = [len(histories[user]) for user in users]
        events = self.movielens.events
        cursor = [WARMUP_POSTS % len(events)]
        index = [0]

        def issue(on_complete) -> None:
            measured = index[0] < requests
            index[0] += 1

            def settled(call: CompletedCall) -> None:
                self.calls.append((call, measured))
                on_complete(call)

            if mix.random() < workload.get_share:
                user = mix.choices(users, weights=weights, k=1)[0]
                self.client.get(user, on_complete=settled)
            else:
                user, item = events[cursor[0]]
                cursor[0] = (cursor[0] + 1) % len(events)
                self.post(user, item, settled)

        if isinstance(self.telemetry, Telemetry):
            self.telemetry.scraper.start()
        total = requests + math.ceil(2 * workload.shuffle_timeout * workload.rate)
        self.injector.inject(workload.rate, (total + 0.5) / workload.rate, issue)
        return total

    # -- checks ---------------------------------------------------------------

    def check(self, sent: int) -> Dict[str, Any]:
        """Verify every outcome; raise :class:`Verdict` on a violation."""
        calls = [call for call, _ in self.calls]
        failed = [call for call in calls if not call.ok]
        if len(calls) != sent:
            raise Verdict("UNSETTLED_CALLS", f"{sent - len(calls)} of {sent} calls never settled")
        if failed:
            raise Verdict("FAILED_CALLS", f"{len(failed)} of {sent} calls failed")
        gets = [call for call in calls if call.verb == Verb.GET]
        nonempty = 0
        for call in gets:
            if any(is_padding_item(item) for item in call.items):
                raise Verdict("PADDING_LEAK", f"request {call.request_id} returned padding")
            foreign = [item for item in call.items if item not in self.catalog]
            if foreign:
                raise Verdict(
                    "FOREIGN_ITEM", f"request {call.request_id} returned {foreign[0]!r}"
                )
            if len(call.items) > MAX_RECOMMENDATIONS:
                raise Verdict("LIST_TOO_LONG", f"request {call.request_id}: {len(call.items)}")
            nonempty += bool(call.items)
        nonempty_share = nonempty / len(gets) if gets else 1.0
        if nonempty_share < MIN_NONEMPTY_SHARE:
            raise Verdict(
                "EMPTY_RECOMMENDATIONS",
                f"{nonempty_share:.3f} of gets non-empty, need {MIN_NONEMPTY_SHARE}",
            )
        stored = self._check_store()
        return {"gets": len(gets), "nonempty_share": nonempty_share, "stored_events": stored}

    def _check_store(self) -> int:
        """The LRS holds exactly the posted events, each under the
        pseudonyms the layer keys define, and no cleartext id."""
        store = self.harness.engine.store
        users = set(self.movielens.users)
        leaked = (set(store.users()) & users) | (set(store.items()) & self.catalog)
        if leaked:
            raise Verdict("CLEARTEXT_IN_LRS", f"{len(leaked)} cleartext ids in the LRS store")
        keys = self.service.provisioner.layer_keys
        provider = self.ctx.provider

        def pseudonym(layer: str, identifier: str) -> str:
            return EnvelopeCodec.wire_text(
                provider.pseudonymize(keys[layer].symmetric_key, encode_identifier(identifier))
            )

        expected = sorted((pseudonym("UA", u), pseudonym("IA", i)) for u, i in self.posted)
        stored = sorted(store.interactions())
        if stored != expected:
            raise Verdict(
                "PSEUDONYM_MISMATCH",
                f"LRS holds {len(stored)} events, {len(expected)} posts expected"
                " under the layer pseudonyms",
            )
        return len(stored)


def _resolve(target: str, live: Dict[str, type]) -> Tuple[Any, str]:
    """``module:path.attr`` or ``{live}.attr`` -> (owner, attribute)."""
    if target.startswith("{"):
        key, attribute = target[1:].split("}.", 1)
        return live[key], attribute
    module_name, path = target.split(":", 1)
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


def install_spans(tracer: LayerTracer, stack: Stack) -> None:
    """Wrap every entry point named in :data:`spec.SPANS`."""
    live = {
        "provider": type(stack.ctx.provider),
        "codec": type(stack.ctx.resolved_codec()),
        "loop": type(stack.loop),
    }
    codec = live["codec"]
    tracer.measure("request_bytes", codec, "encode_request")
    tracer.measure("response_bytes", codec, "encode_response")
    for span, targets in SPANS.items():
        tracer.install(span, [_resolve(target, live) for target in targets])


def run(workload: Workload, seed: int, requests: int, traced: bool) -> Dict[str, Any]:
    """One repetition: set up, measure, check; returns the raw result."""
    if workload.shards:
        telemetry: Any = Telemetry(scrape_interval=1.0)
    else:
        telemetry = SpanHub() if traced else None
    tracer = LayerTracer() if traced else None

    movielens = SyntheticMovieLens(seed=seed, scale=workload.movielens_scale)
    started = time.perf_counter()
    stack = Stack(workload, seed, movielens, telemetry)
    deployed = time.perf_counter()
    stack.warm_up()
    warmed = time.perf_counter()
    stack.harness.train()
    trained = time.perf_counter()

    events_before = stack.loop.events_processed
    flushes_before = len(stack.flush_sizes)
    cache_before = _cache_counts(stack.ctx.provider)
    retries_before = stack.client.retries_performed
    if telemetry is not None:
        traces_before = len(telemetry.tracer.finished)
    scheduled = [0]

    def measured_phase() -> None:
        scheduled[0] = stack.schedule_phase(requests)
        stack.loop.run()

    if tracer is not None:
        install_spans(tracer, stack)
        measured_phase = tracer.wrap(ROOT_SPAN, measured_phase)
        tracer.start()
    try:
        phase_started = time.perf_counter()
        measured_phase()
        phase_wall = time.perf_counter() - phase_started
    finally:
        if tracer is not None:
            tracer.stop()
            tracer.restore()

    sent = stack.injector.report.issued
    if sent != scheduled[0]:
        raise Verdict("UNSENT_CALLS", f"{scheduled[0]} calls scheduled, {sent} sent")
    succeeded = sum(1 for call, _ in stack.calls if call.ok)
    measured = [call for call, counted in stack.calls if counted]
    # Virtual round trip from each call's scheduled send; a failed or
    # unsettled call misses every limit.
    latencies = [call.latency if call.ok else math.inf for call in measured]
    latencies += [math.inf] * (requests - len(measured))
    flushes = stack.flush_sizes[flushes_before:]
    cache_after = _cache_counts(stack.ctx.provider)
    result: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "requests": requests,
        "traced": traced,
        "sent": sent,
        "succeeded": succeeded,
        "failed": sent - succeeded,
        "wall_s": phase_wall,
        "req_per_s": succeeded / phase_wall,
        "latencies_ms": [1e3 * latency for latency in latencies],
        "setup": {
            "deploy_s": deployed - started,
            "warmup_s": warmed - deployed,
            "train_s": trained - warmed,
        },
        "setup_s": trained - started,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "events": stack.loop.events_processed - events_before,
        "shuffle": {
            "flushes": len(flushes),
            "full_flushes": sum(1 for _, timer in flushes if not timer),
            "entries": sum(size for size, _ in flushes),
            "min_batch": min((size for size, _ in flushes), default=0),
        },
        "pseudonym_cache": {
            "hits": cache_after[0] - cache_before[0],
            "misses": cache_after[1] - cache_before[1],
        },
        "client_retries": stack.client.retries_performed - retries_before,
    }
    if telemetry is not None:
        result["vstage_p50_ms"] = _stage_medians(telemetry.tracer.finished[traces_before:])
    if tracer is not None:
        result["codec"] = {
            counter: tracer.sizes[counter] / tracer.sized[counter] if tracer.sized[counter] else 0.0
            for counter in ("request_bytes", "response_bytes")
        }
        result["spans"] = {
            span: {"self_s": tracer.self_seconds.get(span, 0.0), "calls": tracer.calls.get(span, 0)}
            for span in list(SPANS) + [ROOT_SPAN]
        }
    result["checks"] = stack.check(sent)
    return result


def _cache_counts(provider: Any) -> Tuple[int, int]:
    """(hits, misses) of the provider's pseudonym memo, if it has one."""
    stats = getattr(provider, "cache_stats", None)
    if stats is None:
        return 0, 0
    snapshot = stats()
    return (
        sum(part["hits"] for part in snapshot.values()),
        sum(part["misses"] for part in snapshot.values()),
    )


def _stage_medians(traces: List[Any]) -> Dict[str, float]:
    """Median virtual duration of each paper stage over complete traces."""
    medians: Dict[str, float] = {}
    complete = [trace.stage_durations() for trace in traces if trace.is_complete()]
    for stage in PIPELINE_STAGES:
        values = [durations[stage] for durations in complete]
        medians[stage] = 1e3 * percentile(values, 0.5) if values else 0.0
    return medians


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--requests", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.requests < 1:
        parser.error("--requests must be at least 1")
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.requests, args.trace)
    except Verdict as verdict:
        print(json.dumps({"verdict": verdict.name, "detail": verdict.detail}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
