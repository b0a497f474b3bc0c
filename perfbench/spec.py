"""Workloads and metric catalogue of the PProx data-plane benchmark.

Shared by the runner (``run.py``), the per-repetition child
(``workload.py``) and the benchmark's own tests, so a workload or a
metric is defined in exactly one place.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Metric names: a letter or digit first, then at most 63 more of
#: letters, digits, ``_``, ``.`` and ``-``.
NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
#: Units: at most 16 letters, digits, ``_``, ``/``, ``%``, ``.``, ``-``.
UNIT_PATTERN = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


#: Seed of the simulated deployment: layer keys, network jitter, LRS
#: service times.  Fixed, so set-up work (RSA key generation above all)
#: is the same in every run; ``--seed`` varies only the traffic.  Key
#: generation takes about 1 s with this seed; over seeds 1-8 it takes
#: 1.8-9.1 s on a 2-core x86 box.
DEPLOYMENT_SEED = 2014


@dataclass(frozen=True)
class Workload:
    """One seeded traffic mix against one deployment shape."""

    name: str
    why: str
    #: Share of calls that are ``get``; the rest are ``post``.
    get_share: float
    #: ``real`` (RSA-1024 OAEP + AES-CTR) or ``sim`` (keyed BLAKE2).
    provider: str
    #: Wire codec on every protected hop.
    codec: str
    #: 0: one ``Deployment``; otherwise ``build_fleet`` with this many
    #: shards, telemetry and an ``OverloadPolicy`` armed.
    shards: int
    #: UA (= IA) instances per deployment or per shard: the paper's I.
    instances: int
    shuffle_size: int
    shuffle_timeout: float
    #: Open-loop arrival rate in virtual requests per second.
    rate: float
    #: Harness frontends behind the proxy (3 sustain ~250 get/s).
    frontends: int
    #: Scale of the synthetic MovieLens trace (users, items, events).
    movielens_scale: float
    #: Requests per wall second on a 2-core x86 box; sizes the
    #: measured phase so it lasts about ``--seconds``.
    nominal_wall_rate: float


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="reads-real",
            why=(
                "90% get on real RSA-1024/AES crypto, binary wire, one deployment "
                "UA=IA=2 S=16 at a timer-flush rate: the paper's crypto-bound read path"
            ),
            get_share=0.9,
            provider="real",
            codec="binary",
            shards=0,
            instances=2,
            shuffle_size=16,
            shuffle_timeout=0.25,
            rate=40.0,
            frontends=3,
            movielens_scale=0.01,
            nominal_wall_rate=90.0,
        ),
        Workload(
            name="writes-real",
            why=(
                "90% post on the reads-real deployment: pseudonymizes user and item "
                "and inserts, so a read-only speed-up that slows writes shows here"
            ),
            get_share=0.1,
            provider="real",
            codec="binary",
            shards=0,
            instances=2,
            shuffle_size=16,
            shuffle_timeout=0.25,
            rate=40.0,
            frontends=3,
            movielens_scale=0.01,
            nominal_wall_rate=125.0,
        ),
        Workload(
            name="writes-fleet",
            why=(
                "80% post, sim crypto, JSON wire, 4-shard fleet with telemetry and "
                "overload armed, full batches: engine, glue, codec and LRS set req/s"
            ),
            get_share=0.2,
            provider="sim",
            codec="json",
            shards=4,
            instances=2,
            shuffle_size=4,
            shuffle_timeout=0.35,
            rate=400.0,
            frontends=6,
            movielens_scale=0.01,
            nominal_wall_rate=800.0,
        ),
    )
}

#: End-to-end metrics: name -> (unit, better, bound).
#: Wall-clock metrics get the widest bound: on a shared 2-core box the
#: speed of a pure-Python loop swings between 0.66x and 1.42x of its
#: median within a minute, and runs of one workload spread by 10-20%.
#: Virtual latencies and memory are steady to about 1%.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "req_per_s": ("1/s", "higher", 0.25),
    "vlat_p50_ms": ("ms", "lower", 0.05),
    "vlat_p99_ms": ("ms", "lower", 0.05),
    "success_ratio": ("ratio", "higher", 0.01),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

#: Layer spans timed by the traced run: span name -> public entry
#: points.  ``module:Class.attribute`` and ``module:function`` name
#: fixed targets; ``{provider}``, ``{codec}`` and ``{loop}`` stand for
#: the class of the live crypto provider, wire codec and event loop.
#: A span's self time is its duration minus the spans it encloses, so
#: ``simnet.loop_self`` is event-loop time no other span claims.
SPANS: Dict[str, List[str]] = {
    "crypto.asym_encrypt": ["{provider}.asym_encrypt"],
    "crypto.asym_decrypt": ["{provider}.asym_decrypt"],
    "crypto.pseudonymize": ["{provider}.pseudonymize"],
    "crypto.depseudonymize": ["{provider}.depseudonymize"],
    "crypto.sym_encrypt": ["{provider}.sym_encrypt"],
    "crypto.sym_decrypt": ["{provider}.sym_decrypt"],
    "crypto.seal_batch": ["repro.crypto.envelope:EnvelopeCodec.seal_batch"],
    "crypto.open_batch": ["repro.crypto.envelope:EnvelopeCodec.open_batch"],
    "proxy.ua.transform": ["repro.proxy.protocol:ua_transform_request"],
    "proxy.ua.wrap_response": ["repro.proxy.protocol:ua_wrap_response"],
    "proxy.ia.transform": ["repro.proxy.protocol:ia_transform_request"],
    "proxy.ia.response": ["repro.proxy.protocol:ia_transform_response"],
    "client.encode": [
        "repro.proxy.protocol:client_encode_get",
        "repro.proxy.protocol:client_encode_post",
    ],
    "client.decode": ["repro.proxy.protocol:client_decode_response"],
    "codec.encode": ["{codec}.encode_request", "{codec}.encode_response"],
    "codec.decode": ["{codec}.decode_request", "{codec}.decode_response"],
    "lrs.recommend": ["repro.lrs.engine:HarnessEngine.get_recommendations"],
    "lrs.post_event": ["repro.lrs.engine:HarnessEngine.post_event"],
    "lrs.handle": ["repro.lrs.service:HarnessFrontend.handle"],
    "fleet.route": ["repro.fleet.service:ShardedPProxService.entry_for"],
    "simnet.loop_self": ["{loop}.run"],
}

#: The root span around the measured phase (injector scheduling and
#: phase bookkeeping are its self time).
ROOT_SPAN = "workload.inject"
#: Spans entered once per phase: only their self time is reported.
ONCE_PER_PHASE = ("simnet.loop_self", ROOT_SPAN)

#: Per-layer metrics that are not span times: name -> (unit, better).
LAYER_COUNTERS: Dict[str, Tuple[str, str]] = {
    "crypto.pseudonym_cache.hit_ratio": ("ratio", "higher"),
    "shuffle.flushes": ("count", "lower"),
    "shuffle.full_flush_ratio": ("ratio", "higher"),
    "shuffle.mean_batch": ("entries", "higher"),
    "shuffle.min_batch": ("entries", "higher"),
    "client.retries": ("count", "lower"),
    "codec.request_bytes": ("bytes", "lower"),
    "codec.response_bytes": ("bytes", "lower"),
    "simnet.events_per_req": ("events/req", "lower"),
    "vstage.ua_inbound.p50_ms": ("ms", "lower"),
    "vstage.ia_inbound.p50_ms": ("ms", "lower"),
    "vstage.lrs.p50_ms": ("ms", "lower"),
    "vstage.ia_outbound.p50_ms": ("ms", "lower"),
    "vstage.ua_outbound.p50_ms": ("ms", "lower"),
    "setup.deploy_s": ("s", "lower"),
    "setup.warmup_s": ("s", "lower"),
    "setup.train_s": ("s", "lower"),
    "trace.wall_us_per_req": ("us/req", "lower"),
    "trace.overhead_ratio": ("ratio", "higher"),
}

#: Which end-to-end metric each layer should move, on which workload.
LAYER_TARGETS: Dict[str, str] = {
    "crypto": "req_per_s @ reads-real, writes-real; none @ writes-fleet",
    "proxy": "req_per_s @ all three; proxy.ia.response mostly @ reads-real",
    "shuffle": "vlat_p50_ms, vlat_p99_ms @ all three",
    "client": "req_per_s @ reads-real",
    "codec": "req_per_s @ writes-fleet (JSON)",
    "lrs": "req_per_s @ reads-real (recommend), @ writes-fleet (post_event)",
    "fleet": "req_per_s @ writes-fleet only",
    "simnet": "req_per_s @ writes-fleet",
    "vstage": "vlat_p50_ms, vlat_p99_ms @ all three",
    "setup": "setup_s @ all three",
    "workload": "req_per_s @ all three (injector scheduling)",
    "trace": "none: tracing cost, not a program layer",
}


def per_layer_metrics() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric, in report order: name -> (unit, better).

    Each span reports its self wall time per completed request
    (``<span>.us``) and, unless entered once per phase, its calls per
    completed request (``<span>.calls``).
    """
    metrics: Dict[str, Tuple[str, str]] = {}
    for span in list(SPANS) + [ROOT_SPAN]:
        metrics[f"{span}.us"] = ("us/req", "lower")
        if span not in ONCE_PER_PHASE:
            metrics[f"{span}.calls"] = ("calls/req", "lower")
    metrics.update(LAYER_COUNTERS)
    return metrics


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1]) of *values*."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]
