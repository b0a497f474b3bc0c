"""The UA and IA proxy layer instances (data plane).

Each instance models one proxy enclave and its host node, as
described in §5: an event-driven server (outside the enclave) feeding
a pool of data-processing workers (inside the enclave) through a
concurrent queue, a routing table ``T`` for pending requests, and a
shuffle buffer for the direction that instance randomizes (UA:
requests, IA: responses).

Both layers share one skeleton, :class:`_ProxyLayer`; they differ
only in the hooks they supply (shuffled direction, key slots,
transforms and upstream).

Processing is charged to the instance's 2-core
:class:`repro.simnet.node.SimNode` using the calibrated
:class:`repro.proxy.costs.ProxyCostModel`; transformations perform the
*actual* cryptographic rewrites from :mod:`repro.proxy.protocol`.
"""

from __future__ import annotations

import random
from dataclasses import KW_ONLY, dataclass, field
from typing import Any, Callable, ClassVar, Dict, List, Optional, Set, Tuple

from repro.crypto.envelope import EnvelopeCodec, decode_identifier
from repro.crypto.keys import LayerKeys
from repro.crypto.provider import CryptoProvider
from repro.overload.admission import AdmissionController, OverloadSignal
from repro.overload.deadline import charge, decode_deadline, stamp_deadline
from repro.overload.policy import OverloadPolicy
from repro.overload.shedding import (
    STAGE_ADMISSION,
    STAGE_DEADLINE,
    STAGE_QUEUE,
    STAGE_UPSTREAM,
    uniform_reject,
)
from repro.proxy import protocol
from repro.proxy.config import PProxConfig
from repro.proxy.costs import ProxyCostModel
from repro.proxy.epochs import (
    EPOCH_FIELD,
    epoch_window_of,
    strip_epoch,
    window_candidates,
)
from repro.obs.tracewire import TRACE_FIELD, strip_trace
from repro.proxy.shuffler import ShuffleBuffer
from repro.rest.codec import BatchEnvelope, WireCodec, ship
from repro.rest.messages import Request, Response, Verb
from repro.rest.routing import RoutingTable
from repro.sgx.enclave import Enclave
from repro.sgx.provisioning import IA_SECRET_K, IA_SECRET_SK, UA_SECRET_K, UA_SECRET_SK
from repro.simnet.clock import EventLoop
from repro.simnet.loadbalancer import BalancerError, LoadBalancer
from repro.simnet.network import Network
from repro.simnet.node import SimNode
from repro.simnet.queueing import ConcurrentQueue
from repro.telemetry.types import TelemetryLike

__all__ = [
    "UserAnonymizer",
    "ItemAnonymizer",
    "ProxyRuntime",
    "DEFAULT_TENANT",
    "RETRYABLE_STATUS",
]

ReplyFn = Callable[[Response], None]

#: Status returned when a proxy layer cannot transform a message (e.g.
#: its keys were rotated while the request was in flight).  Clients
#: treat it like a timeout: back off and retry under a fresh id.
RETRYABLE_STATUS = 503

#: Tenant label used by single-application deployments.
DEFAULT_TENANT = "default"


def _tenant_of(request: Request) -> str:
    """The (public) application identity a request belongs to."""
    tenant = request.fields.get("tenant")
    return tenant if isinstance(tenant, str) else DEFAULT_TENANT


@dataclass
class ProxyRuntime:
    """Shared wiring every proxy instance needs."""

    loop: EventLoop
    network: Network
    rng: random.Random
    provider: CryptoProvider
    config: PProxConfig
    costs: ProxyCostModel
    #: Optional :class:`repro.telemetry.Telemetry` hub.  When absent,
    #: the data plane runs with zero instrumentation overhead.
    telemetry: Optional[TelemetryLike] = None
    #: Optional overload-protection knobs.  ``None`` (the default)
    #: means the layers run exactly the pre-overload data plane: no
    #: ingress queues, no admission control, no deadline enforcement.
    overload: Optional[OverloadPolicy] = None
    #: Optional :class:`repro.obs.causal.CausalTracer`.  The UA front
    #: door notifies it when a trace id is severed; batch spans are
    #: wired separately (:func:`repro.obs.causal.instrument_causal`).
    causal: Optional[Any] = None
    #: Optional :class:`repro.rest.codec.WireCodec`.  ``None`` (the
    #: default) is the seed data plane: messages cross the simulated
    #: network as Python objects, byte-identical to pre-codec builds.
    #: With a codec armed, every protected hop carries encoded frames,
    #: and a batch-capable codec switches the UA to one sealed
    #: envelope per shuffle flush.
    codec: Optional[WireCodec] = None
    #: Current IA-layer public material (set by ``build_service``; kept
    #: a callable so it tracks live key rotation).  Needed by the UA in
    #: batch-envelope mode to seal the flushed batch under ``pkIA``.
    ia_public: Optional[Callable[[], Any]] = None

    def field_blob(self, value: Any) -> bytes:
        """Materialize a wire field into ciphertext bytes."""
        if self.codec is not None:
            return self.codec.blob_value(value)
        return EnvelopeCodec.wire_blob(value)


class _BatchCollector:
    """Accumulates one shuffle flush's transformed requests.

    Each flushed entry contributes exactly once — a transformed
    request via :meth:`add`, or a :meth:`skip` when its transform
    failed — and *seal* runs once, when the last contribution lands.
    An entry fenced off by a crash or restart never contributes, so a
    flush interrupted that way never seals: its partial batch is
    dropped like a drained shuffle buffer.
    """

    __slots__ = ("expected", "requests", "seal")

    def __init__(self, expected: int, seal: Callable[[List[Request]], None]) -> None:
        self.expected = expected
        self.requests: List[Request] = []
        self.seal: Optional[Callable[[List[Request]], None]] = seal

    def add(self, request: Request) -> None:
        self.requests.append(request)
        self._maybe_seal()

    def skip(self) -> None:
        self.expected -= 1
        self._maybe_seal()

    def _maybe_seal(self) -> None:
        if self.seal is None or len(self.requests) < self.expected:
            return
        seal, self.seal = self.seal, None
        if self.requests:
            seal(self.requests)


@dataclass
class _ProxyLayer:
    """What every proxy instance does regardless of its layer.

    A request enters through :meth:`receive_request` (deadline check,
    admission, ingress queue), optionally waits in the request shuffle,
    then takes the **forward step**: transform, pick an upstream,
    register in ``T``, ship.  The reply optionally waits in the
    response shuffle, then takes the **return step**: consume from
    ``T``, transform, reply.

    Layer hooks: ``_request_leg`` and ``_response_leg`` (service time;
    the latter also returns the step's span attributes, ``None`` for no
    ecall count), ``_transform``, ``_transform_response``,
    ``_probe_field`` (wire field validating a trial key, if any),
    ``_pick_upstream`` and ``_deliver``.
    """

    #: Telemetry role of this layer and of the peer it forwards to.
    role: ClassVar[str]
    upstream_role: ClassVar[str]
    #: Sealed-slot names of the layer's (private, symmetric) keys.
    key_slots: ClassVar[Tuple[str, str]]

    name: str
    runtime: ProxyRuntime
    enclave: Enclave
    _: KW_ONLY
    node: SimNode = None  # type: ignore[assignment]
    routing: RoutingTable = None  # type: ignore[assignment]
    #: Shuffle buffers.  Each layer randomizes one direction (UA:
    #: requests, IA: responses) and takes only that one as an argument.
    request_buffer: Optional[ShuffleBuffer] = field(default=None, init=False)
    response_buffer: Optional[ShuffleBuffer] = field(default=None, init=False)
    requests_processed: int = 0
    responses_processed: int = 0
    #: Crash-stop failure flag: a dead instance silently drops traffic
    #: (clients recover via timeout + retry).
    alive: bool = True
    #: Bumped on every restart; callbacks scheduled by a previous life
    #: carry their generation and go inert once it is stale.
    generation: int = 0
    #: Transforms rejected with a retryable error (e.g. stale keys
    #: after a breach-response rotation).
    transform_errors: int = 0
    #: Responses dropped because their routing entry did not survive a
    #: crash/restart (the client recovers via timeout + retry).
    stale_responses: int = 0
    #: Messages decrypted under the previous epoch's private key during
    #: a dual-epoch window (always re-encrypted forward under the new).
    previous_epoch_decrypts: int = 0
    #: Virtual time the previous epoch's keys were last needed; the
    #: rotation coordinator retires the old epoch only after this has
    #: been quiet longer than the shuffle timeout.
    last_previous_epoch_use: Optional[float] = None
    #: Bounded ingress queue (overload mode only; ``None`` otherwise).
    ingress: Optional[ConcurrentQueue] = None
    #: Front-door admission controller (UA in overload mode only).
    admission: Optional[AdmissionController] = field(default=None, init=False)
    #: Requests shed at this instance, keyed by ``(stage, reason)``.
    shed_totals: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: Requests rejected because every upstream was ejected.
    no_upstream: int = 0
    #: Non-ok responses rewritten to the uniform reject before they
    #: crossed a protected hop.
    rejects_normalized: int = 0
    #: Telemetry hooks (set by ``instrument_overload``): called per shed
    #: with ``(stage, reason)`` / per arriving deadline with the
    #: remaining budget in seconds.
    shed_observer: Optional[Callable[[str, str], None]] = None
    deadline_observer: Optional[Callable[[float], None]] = None
    _pump_window: int = 0
    _announced_sheds: Set[Tuple[str, str]] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.node is None:
            self.node = SimNode(name=self.name, loop=self.runtime.loop, cores=2)
        if self.routing is None:
            self.routing = RoutingTable(name=f"T-{self.role}")
        policy = self.runtime.overload
        if policy is not None:
            if self.ingress is None:
                self.ingress = self._ingress_queue(f"{self.name}-ingress")
            # The pump never throttles below a full shuffle batch:
            # bounding concurrency must not starve the buffer under S,
            # and on the IA response-side submissions share the node,
            # so the window must cover a flushed batch of S responses.
            self._pump_window = max(
                policy.max_inflight, self.runtime.config.shuffle_size
            )

    def _ingress_queue(self, name: str) -> ConcurrentQueue:
        queue = self.runtime.overload.make_ingress_queue(
            name, clock=lambda: self.runtime.loop.now
        )
        queue.on_shed = self._shed_from_queue
        return queue

    def _shuffle_buffer(self, direction: str, release: Callable[[Any], None]) -> ShuffleBuffer:
        config = self.runtime.config
        return ShuffleBuffer(
            loop=self.runtime.loop,
            rng=self.runtime.rng,
            size=config.shuffle_size,
            timeout=config.shuffle_timeout,
            release=release,
            name=f"{self.name}-{direction}",
        )

    @property
    def address(self) -> str:
        """Network address of this instance."""
        return self.name

    @property
    def _buffers(self) -> List[ShuffleBuffer]:
        return [b for b in (self.request_buffer, self.response_buffer) if b is not None]

    @property
    def pending(self) -> int:
        """Outstanding work (load-balancer signal)."""
        buffered = sum(buffer.pending for buffer in self._buffers)
        queued = self.ingress.depth if self.ingress is not None else 0
        return self.node.pending + len(self.routing) + buffered + queued

    @property
    def sheds(self) -> int:
        """Total requests shed at this instance (all stages)."""
        return sum(self.shed_totals.values())

    def overload_signal(self) -> OverloadSignal:
        """Point-in-time overload indicators for this instance."""
        depth = self.ingress.depth if self.ingress is not None else 0
        sojourn = self.ingress.oldest_sojourn() if self.ingress is not None else 0.0
        pressure = (
            self.runtime.costs.sgx.paging_pressure(len(self.routing))
            if self.runtime.config.sgx
            else 0.0
        )
        return OverloadSignal(
            queue_depth=depth,
            queue_sojourn=sojourn,
            inflight=self.node.pending,
            epc_pressure=pressure,
        )

    # -- lifecycle -----------------------------------------------------

    def fail(self) -> int:
        """Crash-stop this instance: all in-flight and future traffic
        addressed to it is lost, including its buffered shuffle batch.
        Returns the number of buffered entries drained."""
        self.alive = False
        return sum(buffer.drain() for buffer in self._buffers)

    def restart(self, enclave: Enclave) -> None:
        """Come back from a crash with a freshly provisioned enclave.

        The caller (see :meth:`PProxService.restart_instance
        <repro.proxy.service.PProxService.restart_instance>`) must have
        completed remote attestation and key provisioning on *enclave*
        first — an unattested enclave holds no layer secrets and could
        not serve.  Pre-crash routing state is gone (crash-stop), so a
        fresh routing table starts this life; late responses addressed
        to the old life are counted in ``stale_responses`` and dropped.
        """
        if self.alive:
            raise RuntimeError(f"instance {self.name!r} is alive; nothing to restart")
        if not enclave.attested:
            raise ValueError(
                f"enclave {enclave.name!r} must complete attestation and "
                "provisioning before it can serve"
            )
        self.generation += 1
        self.enclave = enclave
        self.routing = RoutingTable(name=f"T-{self.role}-g{self.generation}")
        if self.runtime.overload is not None:
            # Pre-crash queue entries are crash-stop casualties exactly
            # like the shuffle batch: the new life starts empty.
            self.ingress = self._ingress_queue(f"{self.name}-ingress-g{self.generation}")
        self.alive = True

    def _submit(self, service_time: float, step: Callable[[], None]) -> None:
        """Charge *service_time* to the node, then run *step* — unless
        this life ended in the meantime (generation fence)."""
        generation = self.generation

        def run() -> None:
            if self.alive and generation == self.generation:
                step()

        self.node.submit(service_time, run)

    # -- front door ----------------------------------------------------

    def receive_request(self, request: Request, reply: ReplyFn) -> None:
        """Entry point for a request delivered by the network."""
        if not self.alive:
            return
        request = self._sever(request)
        if self.ingress is None:
            self._enter((request, reply))
            return
        remaining = decode_deadline(request)
        if remaining is not None and self.deadline_observer is not None:
            self.deadline_observer(remaining)
        policy = self.runtime.overload
        if policy.enforce_deadlines and remaining is not None and remaining <= 0.0:
            # Spent budget: the client already gave up, so shed before
            # any enclave entry-cost is paid for this request.  Safe for
            # anonymity on both layers: the UA sheds before its request
            # shuffle, and the IA randomizes responses, not requests.
            self._shed(STAGE_DEADLINE, "expired", request.request_id, reply)
            return
        if self.admission is not None:
            refusal = self.admission.admit(self.overload_signal())
            if refusal is not None:
                self._shed(STAGE_ADMISSION, refusal, request.request_id, reply)
                return
        self.ingress.push((request, reply, self.runtime.loop.now, remaining))
        self._pump()

    def _sever(self, request: Request) -> Request:
        """Strip what must not reach the shuffle (UA hook)."""
        return request

    def _enter(self, entry: tuple) -> None:
        """Hand an admitted entry to the request shuffle, or straight to
        the enclave on a layer that does not shuffle requests."""
        if self.request_buffer is not None:
            self.request_buffer.add(entry)
        else:
            self._start_forward(entry)

    def _pump(self) -> None:
        """Drain admitted entries into the shuffle buffer / node while
        the in-flight window has room.  Sheds decided at dequeue time
        (CoDel sojourn) happen here — still pre-shuffle."""
        if self.ingress is None:
            return
        while True:
            buffered = self.request_buffer.pending if self.request_buffer is not None else 0
            if self.node.pending + buffered >= self._pump_window:
                return
            entry = self.ingress.pop()
            if entry is None:
                return
            self._enter(entry)

    def _count_shed(self, stage: str, reason: str) -> None:
        key = (stage, reason)
        self.shed_totals[key] = self.shed_totals.get(key, 0) + 1
        if self.shed_observer is not None:
            self.shed_observer(stage, reason)
        telemetry = self.runtime.telemetry
        if telemetry is not None and key not in self._announced_sheds:
            # Sparse: one event per (stage, reason) per instance life;
            # volumes live in pprox_shed_total.  Payload carries no
            # request identifiers, so the layer's redaction role has
            # nothing to scrub but also nothing to leak.
            self._announced_sheds.add(key)
            telemetry.event_log.emit(
                "shed",
                self.role,
                {
                    "event": "request_shed",
                    "stage": stage,
                    "reason": reason,
                    "instance": self.name,
                },
            )

    def _shed(self, stage: str, reason: str, request_id: int, reply: ReplyFn) -> None:
        self._count_shed(stage, reason)
        reply(uniform_reject(request_id))

    def _shed_from_queue(self, entry: tuple, reason: str) -> None:
        self._shed(STAGE_QUEUE, reason, entry[0].request_id, entry[1])

    # -- forward step --------------------------------------------------

    def _start_forward(
        self,
        entry: tuple,
        attrs: Optional[dict] = None,
        sink: Optional[_BatchCollector] = None,
    ) -> None:
        if attrs is None:
            attrs = self._forward_attrs()
        service_time = self._request_leg()
        self._submit(service_time, lambda: self._forward(entry, service_time, attrs, sink))

    def _forward(
        self, entry: tuple, service_time: float, attrs: dict, sink: Optional[_BatchCollector]
    ) -> None:
        """Transform the entry's request in the enclave and pass it on:
        shipped to an upstream picked now, or — in batch-envelope mode —
        into *sink*, the flush's collector, which picks one upstream for
        the whole sealed batch."""
        request, reply = entry[0], entry[1]
        arrived = entry[2] if len(entry) > 2 else None
        remaining = entry[3] if len(entry) > 3 else None
        ecalls_before = self.enclave.ecall_count
        try:
            transformed, context = self._transform_request(request)
        except Exception:
            # Stale client material vs. rotated layer keys (breach
            # response mid-flight): reject retryably, never crash.  Not
            # even the exception *type* crosses the wire — messages can
            # quote the payload, and type names correlate with layer
            # state; the cause survives only in ``transform_errors``.
            self.transform_errors += 1
            reply(uniform_reject(request.request_id))
            if sink is not None:
                sink.skip()
            self._pump()
            return
        upstream = None
        if sink is None:
            try:
                upstream = self._pick_upstream(request)
            except BalancerError:
                # NoUpstream: every upstream is ejected, so reject
                # retryably before registering any routing state.  On
                # the UA this request already traversed the shuffle
                # batch, so it is not a load shed — but the reject is
                # still the uniform message, indistinguishable from one.
                self.no_upstream += 1
                self._shed(STAGE_UPSTREAM, "no_upstream", request.request_id, reply)
                self._pump()
                return
        if remaining is not None:
            # Charge this hop's queueing + service time to the budget
            # and restamp (the hardened-mode transform rebuilds the
            # request from sealed inner fields, dropping the top-level
            # budget).  Never shed here: on the UA the request already
            # traversed the shuffle, and post-shuffle drops would thin
            # the batch below S.
            if arrived is not None:
                remaining = charge(remaining, self.runtime.loop.now - arrived)
            transformed = stamp_deadline(transformed, remaining)
        self.routing.register(request.request_id, (reply, context))
        self.requests_processed += 1
        self.enclave.ocall()
        telemetry = self.runtime.telemetry
        if telemetry is not None:
            self._annotate(
                request.request_id,
                service_time,
                **attrs,
                ecalls=self.enclave.ecall_count - ecalls_before,
            )
            telemetry.tracer.record_hop(request.request_id, self.role, self.upstream_role)
        if sink is not None:
            sink.add(transformed)
        else:
            reply_from_upstream = self._reply_from(upstream)
            ship(
                self.runtime.network, self.runtime.codec, self.address,
                upstream.address, transformed,
                lambda req: self._deliver(upstream, req, reply_from_upstream),
            )
        self._pump()

    def _reply_from(self, upstream: Any) -> ReplyFn:
        """The reply callback handed to *upstream*: ships its response
        back into this instance's return path."""
        network = self.runtime.network
        codec = self.runtime.codec
        telemetry = self.runtime.telemetry

        def reply(response: Response) -> None:
            if telemetry is not None:
                # Same virtual instant as the wire record ship() makes.
                self._annotate_upstream_reply(response, upstream)
                telemetry.tracer.record_hop(
                    response.request_id, self.upstream_role, self.role
                )
            ship(network, codec, upstream.address, self.address, response,
                 self._receive_response)

        return reply

    def _annotate(self, request_id: int, service_time: float, **attrs: Any) -> None:
        """Attach this instance's cost and enclave-boundary attributes
        to the request's open span."""
        pending = len(self.routing)
        attrs["routing_pending"] = pending
        sgx = self.runtime.costs.sgx
        if self.runtime.config.sgx and sgx.enabled:
            attrs["sgx_overhead_seconds"] = sgx.request_overhead(
                pending, self.enclave.performance_penalty
            )
            attrs["epc_paging"] = pending > sgx.epc_entries
        self.runtime.telemetry.tracer.annotate(
            request_id, instance=self.name, service_seconds=service_time, **attrs
        )

    # -- return step ---------------------------------------------------

    def _receive_response(self, response: Response) -> None:
        if not self.alive:
            return
        if self.response_buffer is not None:
            self.response_buffer.add(response)
        else:
            self._start_return(response)

    def _start_return(self, response: Response) -> None:
        service_time, attrs = self._response_leg(response)
        self._submit(
            service_time, lambda: self._return_response(response, service_time, attrs)
        )

    def _return_response(
        self,
        response: Response,
        service_time: float = 0.0,
        attrs: Optional[dict] = None,
    ) -> None:
        if response.request_id not in self.routing:
            # The route predates a crash/restart; the client's retry
            # already travels under a fresh id.
            self.stale_responses += 1
            self._pump()
            return
        reply, context = self.routing.consume(response.request_id)
        if not response.ok:
            # Whatever failed upstream (brownout text, guard shed,
            # backend or transform error), the next hop carries only the
            # canonical reject: cause strings correlate with upstream
            # state that must stay behind the redaction boundary, and a
            # shed must look exactly like any other failure.  Rewritten
            # before the transform, so a hardened UA seals the reject.
            self.rejects_normalized += 1
            response = uniform_reject(response.request_id)
        ecalls_before = self.enclave.ecall_count
        try:
            transformed = self._transform_response(context, response)
        except Exception:
            self.transform_errors += 1
            reply(uniform_reject(response.request_id))
            self._pump()
            return
        self.responses_processed += 1
        self.enclave.ocall()
        if self.runtime.telemetry is not None:
            # The outbound span closes when the next hop records its
            # hop inside *reply*.
            extra = {} if attrs is None else {
                **attrs, "ecalls": self.enclave.ecall_count - ecalls_before
            }
            self._annotate(response.request_id, service_time, **extra)
        reply(transformed)
        self._pump()

    # -- keys and dual-epoch trials ------------------------------------

    def _keys_for(self, tenant: str) -> LayerKeys:
        """Resolve key material; single-tenant deployments ignore
        *tenant* (multi-tenant subclasses dispatch on it, §6.3)."""
        return self._slot_keys(*self.key_slots)

    def _slot_keys(self, sk_slot: str, k_slot: str) -> LayerKeys:
        """Reconstruct key material from sealed enclave slots."""
        return LayerKeys(
            private_key=self.enclave.secret(sk_slot),
            symmetric_key=self.enclave.secret(k_slot),
        )

    def _note_previous_use(self) -> None:
        self.previous_epoch_decrypts += 1
        self.last_previous_epoch_use = self.runtime.loop.now

    def _trial(
        self,
        active: LayerKeys,
        attempt: Callable[[LayerKeys], Any],
        check: Optional[Callable[[LayerKeys], Any]] = None,
    ) -> Any:
        """Run ``attempt(keys)``, dual-epoch aware.

        Outside a rotation window this is the single active-key call
        (zero extra ecalls — the window check is host-side).  During a
        window the active then the previous private key are trialled;
        *check* runs first on each candidate to reject a wrong key that
        decrypts silently to garbage.
        """
        window = epoch_window_of(self.enclave)
        if window is None:
            return attempt(active)
        last_error: Optional[Exception] = None
        for candidate, is_previous in window_candidates(self.enclave, active, window):
            try:
                if check is not None:
                    check(candidate)
                result = attempt(candidate)
            except Exception as exc:
                last_error = exc
                continue
            if is_previous:
                self._note_previous_use()
            return result
        raise last_error  # type: ignore[misc]  # loop ran at least once

    def _transform_request(self, request: Request) -> Tuple[Request, Any]:
        """The layer's request transform under trial keys.  Whichever
        epoch a message was sealed under, the forward pseudonym is
        minted under the active symmetric key, so nothing downstream of
        this enclave ever sees an old-epoch identifier again."""
        if not self.runtime.config.encryption:
            return self._transform(None, request)
        probe = self._probe_field(request)

        def check(keys: LayerKeys) -> None:
            # Providers without authenticated decryption return garbage
            # (not an exception) under the wrong key; the fixed-size
            # identifier encoding acts as the validator.
            decode_identifier(
                self.runtime.provider.asym_decrypt(
                    keys, self.runtime.field_blob(request.fields[probe])
                )
            )

        return self._trial(
            self._keys_for(_tenant_of(request)),
            lambda keys: self._transform(keys, request),
            check if probe is not None else None,
        )

    # -- layer hooks ---------------------------------------------------

    def _forward_attrs(self) -> dict:
        """Span attributes of the forward step besides the defaults."""
        return {}

    def _annotate_upstream_reply(self, response: Response, upstream: Any) -> None:
        """Span attributes recorded when *upstream* replies."""


@dataclass
class UserAnonymizer(_ProxyLayer):
    """One UA-layer proxy instance (first layer, client-facing):
    shuffles requests, and seals each flush into one envelope when the
    codec supports it."""

    role = "ua"
    upstream_role = "ia"
    key_slots = (UA_SECRET_SK, UA_SECRET_K)

    ia_balancer: LoadBalancer
    request_buffer: Optional[ShuffleBuffer] = field(default=None, kw_only=True)
    admission: Optional[AdmissionController] = field(default=None, kw_only=True)
    #: Epoch tags stripped at the front door (pre-shuffle, so batches
    #: never carry an epoch marker an adversary could partition by).
    epoch_tags_seen: int = 0
    #: Causal trace ids severed at the front door (pre-shuffle, so no
    #: trace can be followed through the batch — the linkage channel a
    #: conventional tracer would open is closed here by construction).
    trace_tags_seen: int = 0
    #: Shuffle batches sealed into a single hybrid envelope
    #: (batch-envelope mode only).
    batch_envelopes_sealed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.runtime.config.shuffling and self.request_buffer is None:
            self.request_buffer = self._shuffle_buffer("requests", self._start_forward)
        codec = self.runtime.codec
        if (
            codec is not None
            and codec.batch_envelopes
            and self.runtime.config.encryption
            and self.request_buffer is not None
            # Runtimes without a shared IA key (multi-tenant stacks
            # hold per-tenant keys instead) fall back to per-request
            # sends; a batch envelope needs one sealing key.
            and self.runtime.ia_public is not None
        ):
            # Batch-envelope mode: a flush becomes one sealed envelope
            # to one IA instance instead of S independent sends.
            self.request_buffer.release_batch = self._release_batch
        policy = self.runtime.overload
        if policy is not None and self.admission is None:
            self.admission = policy.make_admission()

    def _sever(self, request: Request) -> Request:
        if EPOCH_FIELD in request.fields:
            # Strip the epoch tag before the request can enter the
            # shuffle buffer: whatever a batch holds is tag-free, so
            # its composition can never be partitioned by epoch.  The
            # tag is only a hint anyway — decryption trials run
            # active-epoch-first regardless.
            request, _ = strip_epoch(request)
            self.epoch_tags_seen += 1
        if TRACE_FIELD in request.fields:
            # Sever the causal trace here, unconditionally: downstream
            # of this line the request is indistinguishable from its
            # batch peers, and post-shuffle attribution happens only at
            # batch granularity through aggregate fan-in counts.
            request, _ = strip_trace(request)
            self.trace_tags_seen += 1
            if self.runtime.causal is not None:
                self.runtime.causal.absorb(self.name)
        return request

    def _forward_attrs(self) -> dict:
        buffer = self.request_buffer
        return {"shuffle_wait_seconds": buffer.last_wait if buffer is not None else 0.0}

    def _request_leg(self) -> float:
        return self.runtime.costs.ua_request_leg(
            self.runtime.config, len(self.routing), self.enclave.performance_penalty
        )

    def _response_leg(self, response: Response) -> Tuple[float, Optional[dict]]:
        service_time = self.runtime.costs.ua_response_leg(
            self.runtime.config, len(self.routing), self.enclave.performance_penalty
        )
        return service_time, None

    def _probe_field(self, request: Request) -> Optional[str]:
        # Hardened mode self-validates via its JSON envelope inside the
        # transform.
        return None if self.runtime.config.harden_client_hop else "user"

    def _transform(self, keys: Optional[LayerKeys], request: Request):
        return protocol.ua_transform_request(
            self.runtime.provider, keys, self.runtime.config, request,
            self.address, codec=self.runtime.codec,
        )

    def _transform_response(self, response_key: Optional[bytes], response: Response) -> Response:
        return protocol.ua_wrap_response(
            self.runtime.provider, self.runtime.config, response_key, response,
            codec=self.runtime.codec,
        )

    def _pick_upstream(self, request: Request) -> "ItemAnonymizer":
        return self.ia_balancer.pick()

    def _deliver(self, ia: "ItemAnonymizer", request: Request, reply: ReplyFn) -> None:
        ia.receive_request(request, reply)

    # -- batch envelopes -----------------------------------------------

    def _release_batch(self, batch: list) -> None:
        """Shuffle-flush hook in batch-envelope mode.

        Every flushed entry takes the ordinary forward step on this
        node, with the flush's collector as its sink; once the last one
        lands the batch is sealed into ONE hybrid envelope and sent to
        one IA instance — amortizing the asymmetric operation across
        the whole batch.
        """
        collector = _BatchCollector(len(batch), self._seal_and_send)
        now = self.runtime.loop.now
        for entry, enqueued_at in batch:
            self._start_forward(
                entry, {"shuffle_wait_seconds": now - enqueued_at}, collector
            )

    def _seal_and_send(self, requests: List[Request]) -> None:
        """Seal transformed *requests* into one envelope, route to one IA."""
        try:
            ia = self.ia_balancer.pick()
        except BalancerError:
            self.no_upstream += len(requests)
            for request in requests:
                if request.request_id in self.routing:
                    reply, _ = self.routing.consume(request.request_id)
                    self._shed(STAGE_UPSTREAM, "no_upstream", request.request_id, reply)
            return
        frames = [self.runtime.codec.encode_request(request) for request in requests]
        sealer = EnvelopeCodec(self.runtime.provider)
        blob = sealer.seal_batch(self.runtime.ia_public(), frames)
        envelope = BatchEnvelope(
            blob=blob,
            request_ids=[request.request_id for request in requests],
            verbs=[request.verb for request in requests],
            source=self.address,
        )
        self.batch_envelopes_sealed += 1
        reply_from_ia = self._reply_from(ia)
        self.runtime.network.send(
            self.address,
            ia.address,
            envelope,
            envelope.size_bytes(),
            lambda env: ia.receive_batch(env, reply_from_ia),
        )


@dataclass
class ItemAnonymizer(_ProxyLayer):
    """One IA-layer proxy instance (second layer, LRS-facing):
    shuffles responses and opens UA-sealed batch envelopes."""

    role = "ia"
    upstream_role = "lrs"
    key_slots = (IA_SECRET_SK, IA_SECRET_K)

    #: Callable returning the LRS backend for the next request.
    lrs_picker: Callable[[], object]
    response_buffer: Optional[ShuffleBuffer] = field(default=None, kw_only=True)
    #: Sealed batch envelopes opened (batch-envelope mode only).
    batch_envelopes_opened: int = 0

    def __post_init__(self) -> None:
        # No admission controller here: the UA is the front door.
        super().__post_init__()
        if self.runtime.config.shuffling and self.response_buffer is None:
            self.response_buffer = self._shuffle_buffer("responses", self._start_return)

    def receive_batch(self, envelope: BatchEnvelope, reply: ReplyFn) -> None:
        """Entry point for a UA-sealed shuffle batch (batch-envelope
        mode): open the single hybrid envelope, decode the frames, and
        feed each inner request through the normal request path."""
        if not self.alive:
            return
        try:
            requests = self._open_envelope(envelope)
        except Exception:
            # The whole batch is undecryptable (e.g. sealed under keys
            # this enclave no longer holds): every inner request gets
            # the same uniform retryable reject.
            self.transform_errors += 1
            for request_id in envelope.request_ids:
                reply(uniform_reject(request_id))
            return
        self.batch_envelopes_opened += 1
        for request in requests:
            self.receive_request(request, reply)

    def _open_envelope(self, envelope: BatchEnvelope) -> list:
        """Decrypt and decode a batch envelope, dual-epoch aware.

        A wrong-epoch private key yields garbage plaintext (providers
        decrypt silently); the frame length-prefix structure acts as
        the validator, exactly like the fixed-size identifier encoding
        does on the per-request path.
        """
        opener = EnvelopeCodec(self.runtime.provider)
        frames = self._trial(
            self._keys_for(DEFAULT_TENANT),
            lambda keys: opener.open_batch(keys, envelope.blob),
        )
        if len(frames) != len(envelope.request_ids):
            raise ValueError(
                f"batch envelope frame count {len(frames)} != "
                f"{len(envelope.request_ids)} announced requests"
            )
        return [
            self.runtime.codec.decode_request(
                frame,
                verb=verb,
                request_id=request_id,
                client_address=envelope.source,
            )
            for frame, request_id, verb in zip(
                frames, envelope.request_ids, envelope.verbs
            )
        ]

    def _request_leg(self) -> float:
        return self.runtime.costs.ia_request_leg(
            self.runtime.config, len(self.routing), self.enclave.performance_penalty
        )

    def _response_leg(self, response: Response) -> Tuple[float, Optional[dict]]:
        shuffle_wait = (
            self.response_buffer.last_wait if self.response_buffer is not None else 0.0
        )
        item_count = len(response.fields.get("items", []))
        service_time = self.runtime.costs.ia_response_leg(
            self.runtime.config,
            len(self.routing),
            item_count,
            self.enclave.performance_penalty,
        )
        return service_time, {"shuffle_wait_seconds": shuffle_wait, "item_count": item_count}

    def _probe_field(self, request: Request) -> Optional[str]:
        # GET temporary keys are 32 opaque bytes with no structure to
        # validate, so under a provider whose wrong-key decryption
        # returns garbage silently the active-epoch trial always
        # "wins"; a stale-epoch GET then yields an undecodable blob and
        # heals through the client's decode-failure retry, re-encoded
        # under the current epoch.
        return "item" if request.verb == Verb.POST else None

    def _transform(self, keys: Optional[LayerKeys], request: Request):
        return protocol.ia_transform_request(
            self.runtime.provider, keys, self.runtime.config, request,
            self.address, codec=self.runtime.codec,
        )

    def _transform_response(
        self, context: "protocol.IaRequestContext", response: Response
    ) -> Response:
        keys = self._keys_for(context.tenant) if self.runtime.config.encryption else None
        return protocol.ia_transform_response(
            self.runtime.provider,
            keys,
            self.runtime.config,
            context,
            response,
            previous=self._previous_keys() if keys is not None else None,
            on_previous_use=self._note_previous_use,
            codec=self.runtime.codec,
        )

    def _previous_keys(self) -> Optional[LayerKeys]:
        """Previous-epoch key material while a window is open (the
        presence check is host-side; reading the slots is an ecall)."""
        window = epoch_window_of(self.enclave)
        if window is None:
            return None
        return self._slot_keys(*window.secret_slots())

    def _pick_backend(self, request: Request):
        """Choose the LRS backend; multi-tenant subclasses route by
        the request's tenant."""
        return self.lrs_picker()

    def _pick_upstream(self, request: Request):
        backend = self._pick_backend(request)
        # The IA is the only component that knows, by construction,
        # that this peer is an LRS backend: register it in the
        # operator-side role directory on first contact.
        network = self.runtime.network
        if backend.address not in network.roles:
            network.register_role(backend.address, "lrs")
        return backend

    def _deliver(self, backend: Any, request: Request, reply: ReplyFn) -> None:
        backend.handle(request, reply)

    def _annotate_upstream_reply(self, response: Response, backend: Any) -> None:
        self.runtime.telemetry.tracer.annotate(response.request_id, backend=backend.address)
