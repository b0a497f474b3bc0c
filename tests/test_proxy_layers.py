"""Proxy layer instances: data-plane behaviour through the simulator."""

from __future__ import annotations

import pytest

from repro.client import PProxClient
from repro.context import Deployment, SimContext
from repro.crypto.provider import FastCryptoProvider
from repro.lrs.stub import StubLrs, make_pseudonymous_payload
from repro.overload import OverloadPolicy
from repro.proxy import PProxConfig, build_pprox
from repro.proxy.costs import DEFAULT_COSTS
from repro.rest.messages import Request, Verb
from repro.rest.routing import RoutingError
from repro.sgx.enclave import Enclave
from repro.simnet.clock import EventLoop
from repro.simnet.network import Network
from repro.simnet.rng import RngRegistry


def _stack(config: PProxConfig, seed: int = 21):
    rng = RngRegistry(seed=seed)
    loop = EventLoop()
    network = Network(loop=loop, rng=rng.stream("net"))
    stub = StubLrs(loop=loop, rng=rng.stream("stub"))
    provider = FastCryptoProvider(rng_bytes=rng.bytes_fn("crypto"))
    service = build_pprox(
        loop, network, rng, config, lrs_picker=lambda: stub, provider=provider
    )
    if config.encryption and config.item_pseudonymization:
        stub.items = make_pseudonymous_payload(
            provider, service.provisioner.layer_keys["IA"].symmetric_key
        )
    client = PProxClient(
        loop=loop, network=network, provider=provider, service=service,
        costs=DEFAULT_COSTS, rng=rng.stream("client"),
    )
    return loop, network, stub, service, client


NOSHUF = PProxConfig(shuffle_size=0)


def test_get_roundtrip_through_both_layers():
    loop, _, _, service, client = _stack(NOSHUF)
    results = []
    client.get("alice", on_complete=results.append)
    loop.run()
    assert results[0].ok
    assert results[0].items  # stub items decrypted back to cleartext
    assert all(item.startswith("static-item-") for item in results[0].items)


def test_post_roundtrip():
    loop, _, _, service, client = _stack(NOSHUF)
    results = []
    client.post("alice", "item-1", on_complete=results.append)
    loop.run()
    assert results[0].ok
    assert results[0].items == []


def test_layers_count_processed_requests():
    loop, _, _, service, client = _stack(NOSHUF)
    for _ in range(3):
        client.get("u", on_complete=lambda c: None)
    loop.run()
    assert service.ua_instances[0].requests_processed == 3
    assert service.ua_instances[0].responses_processed == 3
    assert service.ia_instances[0].requests_processed == 3


def test_routing_tables_drain():
    loop, _, _, service, client = _stack(NOSHUF)
    for _ in range(5):
        client.get("u", on_complete=lambda c: None)
    loop.run()
    assert len(service.ua_instances[0].routing) == 0
    assert len(service.ia_instances[0].routing) == 0


def test_ia_never_sees_client_addresses():
    loop, network, _, service, client = _stack(NOSHUF)
    client.get("alice", on_complete=lambda c: None)
    loop.run()
    ia_inbound = [
        f for f in network.flows if f.destination.startswith("pprox-ia")
    ]
    assert ia_inbound
    # IA traffic comes only from the UA layer and the LRS — never from
    # a client address.
    assert all(not f.source.startswith("client") for f in ia_inbound)
    assert any(f.source.startswith("pprox-ua") for f in ia_inbound)


def test_lrs_sees_only_pseudonyms():
    loop, network, stub, service, client = _stack(NOSHUF)
    taps = []
    network.add_wiretap(lambda record, payload: taps.append((record, payload)))
    client.post("alice", "secret-movie", on_complete=lambda c: None)
    loop.run()
    lrs_requests = [
        payload for record, payload in taps
        if record.destination == stub.address and hasattr(payload, "fields")
    ]
    assert lrs_requests
    for request in lrs_requests:
        assert request.fields.get("user") != "alice"
        assert request.fields.get("item") != "secret-movie"


def test_shuffling_delays_processing():
    loop, _, _, service, client = _stack(PProxConfig(shuffle_size=4, shuffle_timeout=0.5))
    results = []
    client.get("solo", on_complete=results.append)
    loop.run()
    # A lone request waits for the timer on the request and response
    # buffers: total latency ~ 2 x timeout.
    assert results[0].latency >= 0.5


def test_full_shuffle_batch_proceeds_without_timer():
    loop, _, _, service, client = _stack(PProxConfig(shuffle_size=4, shuffle_timeout=60.0))
    results = []
    for index in range(4):
        client.get(f"user-{index}", on_complete=results.append)
    loop.run()
    assert len(results) == 4
    assert all(r.latency < 1.0 for r in results)


def test_multi_instance_layers_balance_load():
    loop, _, _, service, client = _stack(
        PProxConfig(shuffle_size=0, ua_instances=2, ia_instances=2, balancing="round-robin")
    )
    for index in range(10):
        client.get(f"user-{index}", on_complete=lambda c: None)
    loop.run()
    assert all(inst.requests_processed > 0 for inst in service.ua_instances)
    assert all(inst.requests_processed > 0 for inst in service.ia_instances)


def test_encryption_disabled_stays_functional():
    loop, _, _, service, client = _stack(PProxConfig(encryption=False, sgx=False, shuffle_size=0))
    results = []
    client.get("alice", on_complete=results.append)
    loop.run()
    assert results[0].ok
    assert results[0].items


def test_hardened_hop_end_to_end():
    loop, _, _, service, client = _stack(PProxConfig(shuffle_size=0, harden_client_hop=True))
    results = []
    client.get("alice", on_complete=results.append)
    client.post("alice", "item-2", on_complete=results.append)
    loop.run()
    assert all(r.ok for r in results)
    get_result = next(r for r in results if r.verb == "GET")
    assert get_result.items


def test_unknown_response_id_counted_as_stale_and_dropped():
    # A response whose route is gone (e.g. it predates a crash/restart)
    # must not crash the instance: it is counted and dropped, and the
    # client recovers via timeout + retry.
    loop, _, _, service, client = _stack(NOSHUF)
    from repro.rest.messages import Response

    ua = service.ua_instances[0]
    ua._return_response(Response(status=200, request_id=424242))
    assert ua.stale_responses == 1
    assert ua.alive

    # Direct consumption of an unknown route still raises.
    with pytest.raises(RoutingError):
        ua.routing.consume(424242)


def test_ua_response_transform_error_answers_with_uniform_reject():
    # A failing response wrap is counted and answered with the one
    # canonical reject, as on the IA; the exception never escapes into
    # the event loop and its cause never reaches the client hop.
    from repro.overload.shedding import is_uniform_reject
    from repro.rest.messages import Response

    _, _, _, service, _ = _stack(NOSHUF)
    ua = service.ua_instances[0]

    def broken(context, response):
        raise ValueError("wrap failed")

    ua._transform_response = broken
    replies = []
    ua.routing.register(7, (replies.append, b"response-key"))
    ua._return_response(Response(status=200, fields={"items": "x"}, request_id=7))
    assert ua.transform_errors == 1
    assert ua.responses_processed == 0
    assert len(replies) == 1 and replies[0].request_id == 7
    assert is_uniform_reject(replies[0])
    assert len(ua.routing) == 0


# -- shared lifecycle and batch-envelope crash-stop ---------------------


def _deployment(config: PProxConfig, seed: int = 5, **build):
    ctx = SimContext.fresh(seed)
    stub = StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub"))
    deployment = Deployment.build(ctx=ctx, config=config, lrs_picker=lambda: stub, **build)
    return ctx, stub, deployment


@pytest.mark.parametrize("crash", [None, "fail", "restart"])
def test_crash_mid_flush_never_seals_a_partial_batch_envelope(crash):
    """A UA that dies (or dies and comes back) while one flush's entries
    are still on its node must drop the partial batch, never seal it:
    crash-stop means a dead life ships nothing, and a sealed envelope
    below S would thin the batch crossing the ua->ia hop."""
    config = PProxConfig(shuffle_size=4, shuffle_timeout=60.0)
    ctx, _, deployment = _deployment(config, codec="binary")
    service = deployment.service
    ua, ia = service.ua_instances[0], service.ia_instances[0]
    # Four entries on a 2-core node complete at t and 2t after the
    # flush; crashing at 1.5t leaves two transformed and two pending.
    leg = ctx.costs.ua_request_leg(config, 0, ua.enclave.performance_penalty)

    def crash_now():
        ua.fail()
        if crash == "restart":
            service.restart_instance(ua)

    def on_flush(size, timer_fired):
        if crash is not None:
            ctx.loop.schedule(1.5 * leg, crash_now)

    ua.request_buffer.on_flush = on_flush
    client = deployment.client(max_retries=0)
    for index in range(4):
        client.post(f"user-{index}", f"item-{index}")
    ctx.loop.run()
    expected = 0 if crash is not None else 1
    assert ua.batch_envelopes_sealed == expected
    assert ia.batch_envelopes_opened == expected


@pytest.mark.parametrize("layer", ["UA", "IA"])
def test_layer_lifecycle_guards_fresh_state_and_fencing(layer):
    config = PProxConfig(encryption=False, sgx=False, shuffle_size=4, shuffle_timeout=60.0)
    ctx, stub, deployment = _deployment(config, overload=OverloadPolicy())
    service = deployment.service
    instance = service.layer_instances(layer)[0]
    with pytest.raises(RuntimeError):
        instance.restart(instance.enclave)

    # Four requests put work on the node (the UA's flush fills at S=4).
    for request_id in range(1, 5):
        request = Request(
            verb=Verb.GET, fields={"user": f"u{request_id}"},
            request_id=request_id, client_address="peer",
        )
        instance.receive_request(request, lambda response: None)
    assert instance.node.pending > 0
    buffer = instance.request_buffer if layer == "UA" else instance.response_buffer
    buffer.add(object())
    buffer.add(object())
    assert instance.fail() == 2

    unattested = Enclave(
        name="rogue", measurement=instance.enclave.measurement, host_node="nowhere"
    )
    with pytest.raises(ValueError):
        instance.restart(unattested)

    old_routing, old_ingress = instance.routing, instance.ingress
    service.restart_instance(instance)
    assert instance.alive and instance.generation == 1
    assert instance.routing is not old_routing and len(instance.routing) == 0
    assert instance.ingress is not old_ingress and instance.ingress.depth == 0

    # The previous life's node jobs complete, but their callbacks are
    # fenced off: nothing is transformed, registered or sent on.
    ctx.loop.run()
    assert instance.requests_processed == 0
    assert len(instance.routing) == 0
    assert stub.requests_served == 0
