"""In-process integration tests for the dialect service.

Boots a real :class:`DialectServer` on an ephemeral port inside the
test's event loop and drives it with :class:`ServerClient`s — every
request type, multi-tenant isolation (asserted on context identity),
graceful-shutdown draining, per-request timeouts, and frame bounds.
"""

import asyncio

import pytest

from repro.server.client import ServerClient, ServerError
from repro.server.daemon import DialectServer
from repro.server.protocol import ErrorCode
from tests.server.conftest import BAD_IR, GOOD_IR, TOY_DIALECT, make_variant

TOY_IR = '%t = "toy.make"() : () -> !toy.thing\n'


class running_server:
    """Async context manager: a started server plus its accept task."""

    def __init__(self, **kwargs):
        kwargs.setdefault("port", 0)
        self.server = DialectServer(**kwargs)
        self._task = None

    async def __aenter__(self) -> DialectServer:
        await self.server.start()
        self._task = asyncio.create_task(self.server.serve_forever())
        return self.server

    async def __aexit__(self, *exc_info) -> None:
        await self.server.shutdown(drain_timeout=5)
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass


def run(coro):
    return asyncio.run(coro)


class TestRequestTypes:
    def test_every_request_type(self, cmath_text):
        async def scenario():
            async with running_server() as server:
                async with await ServerClient.connect(
                    server.host, server.port
                ) as client:
                    assert (await client.ping())["pong"] is True

                    registered = await client.register_dialect(
                        cmath_text, name="cmath.irdl"
                    )
                    assert registered["dialects"] == ["cmath"]
                    assert registered["cache_hit"] is False

                    parsed = await client.parse(GOOD_IR)
                    assert "cmath.norm" in parsed["ir"]
                    assert parsed["ops"] == 4

                    verified = await client.verify(GOOD_IR)
                    assert verified == {"verified": True, "ops": 4}

                    rewritten = await client.rewrite(
                        GOOD_IR, pipeline=["canonicalize", "dce", "verify"]
                    )
                    assert [name for name, _ in rewritten["history"]] == [
                        "canonicalize", "dce", "verify",
                    ]

                    linted = await client.lint(cmath_text)
                    assert linted["findings"] == []
                    assert linted["exit_code"] == 0

                    roundtripped = await client.roundtrip(GOOD_IR)
                    assert roundtripped["stable"] is True

                    stats = await client.stats()
                    assert stats["requests_total"] >= 7
                    assert stats["draining"] is False
                    assert "default" in stats["tenants"]

        run(scenario())

    def test_parse_emits_bytecode(self, cmath_text):
        async def scenario():
            async with running_server() as server:
                async with await ServerClient.connect(
                    server.host, server.port
                ) as client:
                    await client.register_dialect(cmath_text)
                    blob = await client.parse(GOOD_IR, emit="bytecode")
                    from repro.server.protocol import from_b64

                    data = from_b64(blob["ir_b64"])
                    # Bytecode round-trips back through parse.
                    again = await client.parse(data)
                    assert "cmath.norm" in again["ir"]

        run(scenario())

    def test_structured_errors(self, cmath_text):
        async def scenario():
            async with running_server() as server:
                async with await ServerClient.connect(
                    server.host, server.port
                ) as client:
                    await client.register_dialect(cmath_text)

                    with pytest.raises(ServerError) as excinfo:
                        await client.verify(BAD_IR)
                    assert excinfo.value.code == ErrorCode.VERIFY_ERROR

                    with pytest.raises(ServerError) as excinfo:
                        await client.parse("%x = not even ir")
                    assert excinfo.value.code == ErrorCode.PARSE_ERROR

                    with pytest.raises(ServerError) as excinfo:
                        await client.register_dialect(cmath_text)
                    assert excinfo.value.code == ErrorCode.DIALECT_ERROR

                    with pytest.raises(ServerError) as excinfo:
                        await client.rewrite(GOOD_IR, pipeline=["warp"])
                    assert excinfo.value.code == ErrorCode.PIPELINE_ERROR

                    with pytest.raises(ServerError) as excinfo:
                        await client.lint("Dialect oops {")
                    assert excinfo.value.code == ErrorCode.LINT_ERROR

                    with pytest.raises(ServerError) as excinfo:
                        await client.call("summon")
                    assert excinfo.value.code == ErrorCode.UNKNOWN_TYPE

                    with pytest.raises(ServerError) as excinfo:
                        await client.call("parse")  # no ir payload
                    assert excinfo.value.code == ErrorCode.BAD_REQUEST

                    # The connection survives every structured error.
                    assert (await client.ping())["pong"] is True

        run(scenario())


class TestMultiTenancy:
    def test_concurrent_tenants_are_isolated(self, cmath_text):
        """≥4 simultaneous clients, distinct tenants, zero leakage."""

        async def scenario():
            async with running_server() as server:
                clients = [
                    await ServerClient.connect(
                        server.host, server.port, tenant=f"tenant-{i}"
                    )
                    for i in range(4)
                ]
                try:
                    # Everyone registers *something* concurrently:
                    # tenants 0/1 share cmath, 2 gets toy, 3 registers
                    # nothing beyond a ping.
                    await asyncio.gather(
                        clients[0].register_dialect(cmath_text),
                        clients[1].register_dialect(cmath_text),
                        clients[2].register_dialect(TOY_DIALECT),
                        clients[3].ping(),
                    )
                    results = await asyncio.gather(
                        clients[0].verify(GOOD_IR),
                        clients[1].verify(GOOD_IR),
                        clients[2].parse(TOY_IR),
                        clients[3].ping(),
                    )
                    assert results[0]["verified"] and results[1]["verified"]
                    assert "toy.make" in results[2]["ir"]

                    # Leakage checks: dialects registered in one tenant
                    # must be invisible to the others.
                    with pytest.raises(ServerError):
                        await clients[2].parse(GOOD_IR)  # no cmath here
                    with pytest.raises(ServerError):
                        await clients[0].parse(TOY_IR)  # no toy here
                    with pytest.raises(ServerError):
                        await clients[3].parse(GOOD_IR)  # nothing here

                    stats = await clients[0].stats()
                    tenants = stats["tenants"]
                    context_ids = {
                        tenants[f"tenant-{i}"]["context_id"]
                        for i in range(4)
                    }
                    assert len(context_ids) == 4, (
                        "each tenant owns a private Context"
                    )
                    assert "cmath" in tenants["tenant-0"]["dialects"]
                    assert "cmath" in tenants["tenant-1"]["dialects"]
                    assert "cmath" not in tenants["tenant-2"]["dialects"]
                    assert "toy" in tenants["tenant-2"]["dialects"]
                    assert "toy" not in tenants["tenant-3"]["dialects"]
                finally:
                    for client in clients:
                        await client.close()

        run(scenario())

    def test_cache_shared_across_tenants(self, cmath_text):
        async def scenario():
            async with running_server() as server:
                async with await ServerClient.connect(
                    server.host, server.port, tenant="a"
                ) as a, await ServerClient.connect(
                    server.host, server.port, tenant="b"
                ) as b:
                    cold = await a.register_dialect(cmath_text)
                    warm = await b.register_dialect(cmath_text)
                    assert cold["cache_hit"] is False
                    assert warm["cache_hit"] is True
                    assert warm["key"] == cold["key"]
                    stats = await a.stats()
                    assert stats["dialect_cache"]["hits"] == 1
                    assert stats["dialect_cache"]["misses"] == 1

        run(scenario())

    def test_hot_reload_single_tenant(self, cmath_text):
        async def scenario():
            v2_text = cmath_text.replace(
                'Summary "Multiply two complex numbers"',
                'Summary "Multiply two complex numbers (v2)"',
            )
            assert v2_text != cmath_text
            async with running_server() as server:
                async with await ServerClient.connect(
                    server.host, server.port, tenant="a"
                ) as a, await ServerClient.connect(
                    server.host, server.port, tenant="b"
                ) as b:
                    await a.register_dialect(cmath_text)
                    await b.register_dialect(cmath_text)
                    reloaded = await a.register_dialect(v2_text,
                                                        replace=True)
                    assert reloaded["replaced"] is True
                    # Both tenants keep serving their generation.
                    assert (await a.verify(GOOD_IR))["verified"]
                    assert (await b.verify(GOOD_IR))["verified"]

        run(scenario())


class _NoPool:
    """Stands in for the worker pool where no request may reach it."""

    def submit(self, *args, **kwargs):
        raise AssertionError("request reached the worker pool")


class TestCachedRegistration:
    def test_a_hit_is_answered_without_a_worker(self, cmath_text):
        async def scenario():
            async with running_server() as server:
                async with await ServerClient.connect(
                    server.host, server.port, tenant="a"
                ) as a, await ServerClient.connect(
                    server.host, server.port, tenant="b"
                ) as b:
                    cold = await a.register_dialect(cmath_text)
                    assert cold["cache_hit"] is False
                    pool, server._pool = server._pool, _NoPool()
                    try:
                        warm = await b.register_dialect(cmath_text)
                        with pytest.raises(ServerError) as excinfo:
                            await b.register_dialect(cmath_text)
                    finally:
                        server._pool = pool
                    assert warm["cache_hit"] is True
                    assert warm["key"] == cold["key"]
                    assert excinfo.value.code == ErrorCode.DIALECT_ERROR
                    assert "already registered" in str(excinfo.value)
                    assert server.tenants["b"].requests == 2
                    assert (await b.verify(GOOD_IR))["verified"]

        run(scenario())

    def test_a_hit_for_a_busy_tenant_waits_for_it(self, cmath_text):
        async def scenario():
            async with running_server() as server:
                async with await ServerClient.connect(
                    server.host, server.port, tenant="a"
                ) as a:
                    await a.register_dialect(cmath_text)
                    tenant = server.tenants["a"]
                    tenant.lock.acquire()
                    loop = asyncio.get_running_loop()
                    start = loop.time()
                    loop.call_later(0.05, tenant.lock.release)
                    reloaded = await a.register_dialect(cmath_text,
                                                        replace=True)
                    assert loop.time() - start >= 0.05
                    assert reloaded["cache_hit"] is True
                    assert reloaded["replaced"] is True
                    assert tenant.requests == 2

        run(scenario())


class TestRobustness:
    def test_graceful_drain_delivers_inflight_response(self):
        """A slow request racing shutdown still gets its reply."""

        async def scenario():
            async with running_server(allow_sleep=True) as server:
                slow = await ServerClient.connect(server.host, server.port)
                control = await ServerClient.connect(server.host,
                                                     server.port)
                try:
                    slow_task = asyncio.create_task(
                        slow.ping(sleep_ms=300)
                    )
                    await asyncio.sleep(0.05)  # slow request is in flight
                    assert (await control.shutdown())["draining"] is True
                    result = await slow_task
                    assert result["slept_ms"] == 300
                finally:
                    await slow.close()
                    await control.close()

        run(scenario())

    def test_new_requests_refused_during_drain(self):
        async def scenario():
            async with running_server(allow_sleep=True) as server:
                slow = await ServerClient.connect(server.host, server.port)
                control = await ServerClient.connect(server.host,
                                                     server.port)
                # The connection that sends shutdown closes after the
                # reply; probe on one opened before the drain began.
                probe = await ServerClient.connect(server.host,
                                                   server.port)
                try:
                    slow_task = asyncio.create_task(
                        slow.ping(sleep_ms=400)
                    )
                    await asyncio.sleep(0.05)
                    await control.shutdown()
                    # stats stays available during the drain...
                    stats = await probe.stats()
                    assert stats["draining"] is True
                    # ...but new work is refused.
                    with pytest.raises(ServerError) as excinfo:
                        await probe.ping()
                    assert excinfo.value.code == ErrorCode.SHUTTING_DOWN
                    await slow_task
                finally:
                    await slow.close()
                    await control.close()
                    await probe.close()

        run(scenario())

    def test_request_timeout_is_structured_and_survivable(self):
        async def scenario():
            async with running_server(
                allow_sleep=True, request_timeout=0.05
            ) as server:
                async with await ServerClient.connect(
                    server.host, server.port
                ) as client:
                    with pytest.raises(ServerError) as excinfo:
                        await client.ping(sleep_ms=500)
                    assert excinfo.value.code == ErrorCode.TIMEOUT
                    # The server keeps serving afterwards.
                    assert (await client.ping())["pong"] is True
                    stats = await client.stats()
                    assert stats["counters"]["server.timeouts"] == 1

        run(scenario())

    def test_oversized_frame_gets_error_reply(self, cmath_text):
        async def scenario():
            async with running_server(max_frame=1024) as server:
                client = await ServerClient.connect(
                    server.host, server.port, max_frame=1 << 20
                )
                try:
                    response = await client.request(
                        "register_dialect", irdl="x" * 4096
                    )
                    assert response["ok"] is False
                    code = response["error"]["code"]
                    assert code == ErrorCode.FRAME_TOO_LARGE
                finally:
                    await client.close()

        run(scenario())

    def test_malformed_json_gets_error_reply(self):
        async def scenario():
            async with running_server() as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                try:
                    import struct

                    blob = b"this is not json"
                    writer.write(struct.pack(">I", len(blob)) + blob)
                    await writer.drain()
                    from repro.server.protocol import read_frame

                    response = await read_frame(reader)
                    assert response["ok"] is False
                    assert response["error"]["code"] == ErrorCode.BAD_REQUEST
                finally:
                    writer.close()

        run(scenario())

    def test_missing_type_field(self):
        async def scenario():
            async with running_server() as server:
                async with await ServerClient.connect(
                    server.host, server.port
                ) as client:
                    response = await client.request("ping")
                    assert response["ok"]
                    bad = dict(id=99, tenant="default")
                    from repro.server import protocol

                    await protocol.write_frame(client._writer, bad,
                                               client.max_frame)
                    reply = await protocol.read_frame(client._reader,
                                                      client.max_frame)
                    assert reply["ok"] is False
                    assert reply["error"]["code"] == ErrorCode.BAD_REQUEST

        run(scenario())


class TestStats:
    def test_latency_and_counters(self, cmath_text):
        async def scenario():
            async with running_server() as server:
                async with await ServerClient.connect(
                    server.host, server.port
                ) as client:
                    await client.register_dialect(cmath_text)
                    for _ in range(3):
                        await client.parse(GOOD_IR)
                    stats = await client.stats()
                    counters = stats["counters"]
                    assert counters["server.requests.parse"] == 3
                    assert counters["server.requests.register_dialect"] == 1
                    parse_latency = stats["latency"]["parse"]
                    assert parse_latency["count"] == 3
                    assert parse_latency["p50_ms"] >= 0
                    assert parse_latency["p99_ms"] >= parse_latency["p50_ms"]
                    assert stats["req_per_s"] > 0
                    assert stats["uptime_s"] > 0

        run(scenario())

    def test_distinct_variants_fill_cache(self):
        async def scenario():
            async with running_server(cache_size=2) as server:
                async with await ServerClient.connect(
                    server.host, server.port
                ) as client:
                    for index in range(3):
                        await client.register_dialect(make_variant(index))
                    stats = await client.stats()
                    cache = stats["dialect_cache"]
                    assert cache["misses"] == 3
                    assert cache["evictions"] == 1
                    assert cache["live"] == 2

        run(scenario())


class TestVerifyInProcess:
    """``verify`` checks the module in the tenant's session; a request
    that still carries the removed ``workers`` field gets the same
    reply as one without it."""

    @staticmethod
    def make_artifact(n_ops=80, bad=False):
        from repro.builtin import default_context
        from repro.builtin.types import FloatType
        from repro.bytecode import encode_module
        from repro.corpus.synth import synthesize_module

        context = default_context()
        module = synthesize_module(n_ops, seed=5, context=context)
        if bad:
            f32 = context.intern(FloatType(32))
            src = context.create_operation(
                "bench.source", result_types=[f32]
            )
            module.regions[0].blocks[0].insert_op(src, 7)
        return encode_module(module)

    @staticmethod
    def with_bench_tenant(check):
        """Run ``await check(client)`` against a server whose default
        tenant has the bench dialect registered."""
        from repro.corpus.synth import BENCH_DIALECT_SOURCE

        async def scenario():
            async with running_server() as server:
                async with await ServerClient.connect(
                    server.host, server.port
                ) as client:
                    await client.register_dialect(
                        BENCH_DIALECT_SOURCE, name="bench.irdl"
                    )
                    await check(client)

        run(scenario())

    def test_invalid_op_with_workers_is_a_verify_error(self):
        async def check(client):
            with pytest.raises(ServerError) as excinfo:
                await client.verify(self.make_artifact(bad=True), workers=2)
            assert excinfo.value.code == ErrorCode.VERIFY_ERROR
            assert "bench.source" in str(excinfo.value)

        self.with_bench_tenant(check)

    def test_clean_module_with_workers_gets_the_plain_reply(self):
        async def check(client):
            data = self.make_artifact()
            reply = await client.verify(data, workers=3)
            assert reply == await client.verify(data)
            assert reply == {"verified": True, "ops": 81}

        self.with_bench_tenant(check)
