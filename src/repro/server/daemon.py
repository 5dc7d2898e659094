"""The asyncio dialect service: ``repro-serve``.

One long-running process serves many clients over the length-prefixed
JSON protocol of :mod:`repro.server.protocol`.  Architecture:

* **Tenancy.** Every request names a ``tenant``; each tenant owns a
  private :class:`~repro.server.session.Session` (and hence a private
  :class:`~repro.ir.context.Context`), created lazily on first use.
  Dialect registrations are visible only within the tenant — isolation
  is by context object identity, which the ``stats`` request exposes
  (``tenants.<name>.context_id``) so tests can assert zero leakage.
* **Caching.** ``register_dialect`` routes through the shared
  :class:`~repro.server.cache.DialectCache`: the first sight of a
  payload compiles it (parse/decode → resolve → codegen), every later
  registration — from any tenant — installs the same compiled binding
  objects.  ``replace=true`` hot-reloads a dialect in one tenant
  without disturbing the others.
* **Concurrency.** The event loop only frames and routes; compilation
  and pipeline work runs on a bounded thread pool, serialized
  *per tenant* by a tenant lock (the shared caches underneath are
  themselves thread-safe — see ``tests/obs/test_thread_safety.py``).
  A registration whose payload is already compiled is answered on the
  loop when its tenant is idle: it installs shared bindings, which costs
  less than the hop to a worker thread.
  Each request is bounded by a wall-clock timeout; an expired request
  gets a structured ``timeout`` reply while its worker thread is
  abandoned to finish in the background.
* **Robustness.** Oversized/malformed frames get structured error
  replies; unexpected handler exceptions reply ``internal`` and dump
  the :class:`~repro.obs.ring.EventRing` flight recorder to stderr;
  :meth:`DialectServer.shutdown` stops accepting work, drains in-flight
  requests, then closes connections.
* **Observability.** The server owns an always-on
  :class:`~repro.obs.metrics.MetricsRegistry` recording ``server.*``
  counters and latency histograms; the ``stats`` request renders a
  snapshot (req/s, queue depth, per-type p50/p99, cache hit rate).
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from repro.ir.exceptions import UnregisteredConstructError, VerifyError
from repro.obs.instrument import OBS, dump_recent_events
from repro.obs.metrics import MetricsRegistry
from repro.server import protocol
from repro.server.cache import (
    DEFAULT_CAPACITY,
    CompiledDialects,
    DialectCache,
)
from repro.server.protocol import ErrorCode, FrameError
from repro.server.session import Session
from repro.utils.diagnostics import DiagnosticError

#: Default TCP port; 0 binds an ephemeral port (printed at startup).
DEFAULT_PORT = 7333

#: Default per-request wall-clock budget, in seconds.
DEFAULT_REQUEST_TIMEOUT = 30.0

#: Default worker-thread pool width.
DEFAULT_WORKERS = 8

#: The request types the daemon understands.
REQUEST_TYPES = (
    "register_dialect",
    "parse",
    "verify",
    "rewrite",
    "lint",
    "roundtrip",
    "stats",
    "ping",
    "shutdown",
)


class Tenant:
    """One tenant's isolated state: a session plus its request lock."""

    def __init__(self, name: str):
        self.name = name
        self.session = Session()
        self.lock = threading.Lock()
        self.created = time.time()
        self.requests = 0

    def info(self) -> dict[str, Any]:
        return {
            "context_id": id(self.session.ctx),
            "dialects": sorted(self.session.ctx.dialects),
            "requests": self.requests,
        }


class DialectServer:
    """The long-running multi-tenant IRDL dialect service."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        cache_size: int = DEFAULT_CAPACITY,
        max_frame: int = protocol.DEFAULT_MAX_FRAME,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        workers: int = DEFAULT_WORKERS,
        allow_sleep: bool = False,
    ):
        self.host = host
        self.port = port
        self.max_frame = max_frame
        self.request_timeout = request_timeout
        #: Load-generator/test knob: lets ``ping`` carry a ``sleep_ms``
        #: payload so drains and timeouts are exercised deterministically.
        self.allow_sleep = allow_sleep
        #: Server-owned registry: always on, independent of the global
        #: OBS switchboard, snapshotted by the ``stats`` request.
        self.metrics = MetricsRegistry(enabled=True)
        self.scope = self.metrics.scope("server")
        self.cache = DialectCache(cache_size,
                                  metrics=self.scope.scope("dialect_cache"))
        self.tenants: dict[str, Tenant] = {}
        self._tenants_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._inflight = 0
        self._draining = False
        self._drained = asyncio.Event()
        self._started = 0.0
        self._handlers: dict[str, Callable[[Tenant, dict], dict]] = {
            "register_dialect": self._do_register_dialect,
            "parse": self._do_parse,
            "verify": self._do_verify,
            "rewrite": self._do_rewrite,
            "lint": self._do_lint,
            "roundtrip": self._do_roundtrip,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener; ``self.port`` holds the resolved port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started = time.time()
        self._drained.set()

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def shutdown(self, drain_timeout: float = 30.0) -> None:
        """Graceful shutdown: stop accepting, drain in-flight, close.

        New requests arriving on live connections during the drain are
        refused with a ``shutting-down`` error; requests already being
        processed run to completion (bounded by ``drain_timeout``) and
        their responses are delivered before the connections close.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._inflight:
            try:
                await asyncio.wait_for(self._drained.wait(), drain_timeout)
            except asyncio.TimeoutError:
                pass
        for writer in list(self._connections):
            writer.close()
        self._pool.shutdown(wait=False)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._connections.add(writer)
        self.scope.counter("connections_total").inc()
        try:
            while True:
                try:
                    request = await protocol.read_frame(reader,
                                                        self.max_frame)
                except FrameError as err:
                    # The stream may be desynchronized: reply, then drop
                    # the connection.
                    await protocol.write_frame(
                        writer,
                        protocol.error_response(None, err.code, str(err)),
                        self.max_frame,
                    )
                    break
                if request is None:
                    break
                # In-flight accounting brackets the response write too,
                # so a graceful drain never closes a connection between
                # computing a reply and delivering it.
                self._inflight += 1
                self._drained.clear()
                try:
                    response = await self._dispatch(request)
                    try:
                        await protocol.write_frame(writer, response,
                                                   self.max_frame)
                    except FrameError as err:
                        # The *response* outgrew the bound (giant module).
                        await protocol.write_frame(
                            writer,
                            protocol.error_response(
                                request.get("id"), err.code, str(err)
                            ),
                            self.max_frame,
                        )
                finally:
                    self._inflight -= 1
                    if self._inflight == 0:
                        self._drained.set()
                if request.get("type") == "shutdown":
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()

    async def _dispatch(self, request: dict) -> dict:
        request_id = request.get("id")
        request_type = request.get("type")
        if not isinstance(request_type, str):
            return protocol.error_response(
                request_id, ErrorCode.BAD_REQUEST,
                "request has no 'type' field",
            )
        if request_type not in REQUEST_TYPES:
            return protocol.error_response(
                request_id, ErrorCode.UNKNOWN_TYPE,
                f"unknown request type {request_type!r} "
                f"(known: {', '.join(REQUEST_TYPES)})",
            )
        if self._draining and request_type != "stats":
            return protocol.error_response(
                request_id, ErrorCode.SHUTTING_DOWN,
                "server is draining; no new requests accepted",
            )

        self.scope.counter("requests_total").inc()
        self.scope.counter(f"requests.{request_type}").inc()
        self.scope.histogram("queue_depth").observe(self._inflight)
        OBS.ring.push("server.request", type=request_type,
                      tenant=request.get("tenant", "default"),
                      id=request_id)
        start = time.perf_counter()
        try:
            response = await self._run_request(request_id, request_type,
                                               request)
        finally:
            elapsed_ms = (time.perf_counter() - start) * 1e3
            self.scope.histogram(f"latency_ms.{request_type}").observe(
                elapsed_ms
            )
        if not response.get("ok", False):
            self.scope.counter("errors_total").inc()
            code = response.get("error", {}).get("code", "unknown")
            self.scope.counter(f"errors.{code}").inc()
        return response

    async def _run_request(self, request_id: Any, request_type: str,
                           request: dict) -> dict:
        # Cheap control-plane requests run on the loop directly.
        if request_type == "stats":
            return protocol.ok_response(request_id, self.stats())
        if request_type == "shutdown":
            asyncio.get_running_loop().create_task(self.shutdown())
            return protocol.ok_response(request_id, {"draining": True})
        if request_type == "ping":
            sleep_ms = request.get("sleep_ms", 0)
            if sleep_ms and self.allow_sleep:
                return await self._in_worker(
                    request_id, self._tenant(request),
                    lambda tenant, req: self._do_sleep(req), request,
                )
            return protocol.ok_response(request_id, {"pong": True})

        tenant = self._tenant(request)
        if request_type == "register_dialect":
            response = self._register_cached(request_id, tenant, request)
            if response is not None:
                return response
        handler = self._handlers[request_type]
        return await self._in_worker(request_id, tenant, handler, request)

    def _tenant(self, request: dict) -> Tenant:
        name = request.get("tenant", "default")
        if not isinstance(name, str) or not name:
            name = "default"
        with self._tenants_lock:
            tenant = self.tenants.get(name)
            if tenant is None:
                tenant = self.tenants[name] = Tenant(name)
                self.scope.counter("tenants_created").inc()
        return tenant

    async def _in_worker(self, request_id: Any, tenant: Tenant,
                         handler: Callable[[Tenant, dict], dict],
                         request: dict) -> dict:
        """Run a handler on the pool under the tenant lock, with timeout."""

        def run() -> dict:
            with tenant.lock:
                tenant.requests += 1
                return handler(tenant, request)

        loop = asyncio.get_running_loop()
        try:
            result = await asyncio.wait_for(
                loop.run_in_executor(self._pool, run),
                self.request_timeout,
            )
            return protocol.ok_response(request_id, result)
        except asyncio.TimeoutError:
            self.scope.counter("timeouts").inc()
            return protocol.error_response(
                request_id, ErrorCode.TIMEOUT,
                f"request exceeded the {self.request_timeout:g}s budget "
                "(its worker thread was abandoned)",
            )
        except Exception as err:  # noqa: BLE001 — the server must survive
            return self._error_response(request_id, err)

    def _register_cached(self, request_id: Any, tenant: Tenant,
                         request: dict) -> dict | None:
        """Answer, on the loop, a ``register_dialect`` whose payload is
        already compiled, when its tenant is idle.

        A cache hit only installs shared bindings, a few dictionary
        inserts, which costs less than the hop to a worker thread and
        back.  None sends the request down the worker path: the tenant
        is busy, the payload is malformed or not yet compiled.
        """
        if not tenant.lock.acquire(blocking=False):
            return None
        try:
            try:
                data = protocol.extract_payload(request, "irdl", "irdl_b64")
            except FrameError:
                return None
            compiled = None if data is None else self.cache.lookup(data)
            if compiled is None:
                return None
            tenant.requests += 1
            try:
                result = self._install_compiled(tenant, request, compiled,
                                                hit=True)
            except Exception as err:  # noqa: BLE001 — as on the pool
                return self._error_response(request_id, err)
            return protocol.ok_response(request_id, result)
        finally:
            tenant.lock.release()

    def _error_response(self, request_id: Any, err: Exception) -> dict:
        """The structured reply to a handler's exception."""
        if isinstance(err, FrameError):
            return protocol.error_response(request_id, err.code, str(err))
        if isinstance(err, VerifyError):
            code = ErrorCode.VERIFY_ERROR
        elif isinstance(err, UnregisteredConstructError):
            code = ErrorCode.DIALECT_ERROR
        elif isinstance(err, DiagnosticError):
            # Rendered diagnostics (carets and all) travel in the reply.
            code = ErrorCode.PARSE_ERROR
        elif isinstance(err, ValueError):
            code = ErrorCode.PIPELINE_ERROR
        else:
            # An unexpected handler crash: say so, and dump the event
            # ring so the events leading up to it are not lost.
            print(f"repro-serve: internal error: {type(err).__name__}: "
                  f"{err}", file=sys.stderr)
            dump_recent_events(sys.stderr)
            return protocol.error_response(
                request_id, ErrorCode.INTERNAL,
                f"{type(err).__name__}: {err}",
            )
        return protocol.error_response(
            request_id, code, str(err), detail=type(err).__name__
        )

    # ------------------------------------------------------------------
    # Handlers (worker threads, tenant lock held)
    # ------------------------------------------------------------------

    def _do_sleep(self, request: dict) -> dict:
        time.sleep(float(request.get("sleep_ms", 0)) / 1e3)
        return {"pong": True, "slept_ms": request.get("sleep_ms", 0)}

    def _do_register_dialect(self, tenant: Tenant, request: dict) -> dict:
        data = protocol.extract_payload(request, "irdl", "irdl_b64")
        if data is None:
            raise FrameError(
                ErrorCode.BAD_REQUEST,
                "register_dialect needs 'irdl' (text) or 'irdl_b64' "
                "(bytecode)",
            )
        compiled, hit = self.cache.get_or_compile(
            data, name=request.get("name", "<irdl>")
        )
        return self._install_compiled(tenant, request, compiled, hit)

    def _install_compiled(self, tenant: Tenant, request: dict,
                          compiled: CompiledDialects, hit: bool) -> dict:
        replace = bool(request.get("replace", False))
        session = tenant.session
        clashing = [n for n in compiled.names if n in session.ctx.dialects]
        if clashing and not replace:
            raise UnregisteredConstructError(
                f"dialect {clashing[0]!r} is already registered for "
                f"tenant {tenant.name!r} (pass replace=true to hot-reload)"
            )
        for binding, dialect_def in zip(compiled.bindings, compiled.defs):
            session.install_binding(binding, dialect_def, replace=replace)
        return {
            "dialects": list(compiled.names),
            "cache_hit": hit,
            "key": compiled.key,
            "source_kind": compiled.source_kind,
            "compile_ms": round(compiled.compile_seconds * 1e3, 3),
            "replaced": bool(clashing),
        }

    def _load(self, tenant: Tenant, request: dict):
        data = protocol.extract_payload(request, "ir", "ir_b64")
        if data is None:
            raise FrameError(
                ErrorCode.BAD_REQUEST,
                "request needs 'ir' (text) or 'ir_b64' (bytecode)",
            )
        return tenant.session.load_module(
            data, request.get("name", "<request>")
        )

    def _do_parse(self, tenant: Tenant, request: dict) -> dict:
        module = self._load(tenant, request)
        if request.get("verify", False):
            tenant.session.verify(module)
        return self._emit(tenant, module, request)

    def _do_verify(self, tenant: Tenant, request: dict) -> dict:
        module = self._load(tenant, request)
        tenant.session.verify(module)
        return {"verified": True, "ops": sum(1 for _ in module.walk())}

    def _do_rewrite(self, tenant: Tenant, request: dict) -> dict:
        module = self._load(tenant, request)
        session = tenant.session
        if request.get("verify", True):
            session.verify(module)
        patterns = []
        pattern_text = request.get("patterns")
        if pattern_text is not None:
            if not isinstance(pattern_text, str):
                raise FrameError(
                    ErrorCode.BAD_REQUEST, "'patterns' must be a string"
                )
            patterns = session.parse_pattern_text(
                pattern_text, request.get("patterns_name", "<patterns>")
            )
        passes = request.get("pipeline")
        if passes is not None and not (
            isinstance(passes, list)
            and all(isinstance(p, str) for p in passes)
        ):
            raise FrameError(
                ErrorCode.BAD_REQUEST,
                "'pipeline' must be a list of pass names",
            )
        manager = session.run_patterns(
            module, patterns, passes,
            verify_each=bool(request.get("verify_each", False)),
            validate_rewrites=bool(request.get("validate", False)),
        )
        if request.get("verify", True):
            session.verify(module)
        result = self._emit(tenant, module, request)
        result["changed"] = any(changed for _, changed in manager.history)
        result["history"] = [[name, changed]
                             for name, changed in manager.history]
        result["statistics"] = {
            p.name: dict(p.statistics()) for p in manager.passes
            if p.statistics()
        }
        return result

    def _do_lint(self, tenant: Tenant, request: dict) -> dict:
        from repro.tools.lint import exit_code

        sources = request.get("sources")
        if isinstance(request.get("irdl"), str):
            sources = [{"irdl": request["irdl"],
                        "name": request.get("name", "<irdl>")}]
        if not isinstance(sources, list) or not sources:
            raise FrameError(
                ErrorCode.BAD_REQUEST,
                "lint needs 'irdl' (text) or 'sources' "
                "([{irdl, name}, ...])",
            )
        pairs = []
        for index, source in enumerate(sources):
            if not (isinstance(source, dict)
                    and isinstance(source.get("irdl"), str)):
                raise FrameError(
                    ErrorCode.BAD_REQUEST,
                    f"sources[{index}] must be {{'irdl': text, ...}}",
                )
            pairs.append(
                (source["irdl"], source.get("name", f"<irdl#{index}>"))
            )
        pattern_pairs = []
        if isinstance(request.get("patterns"), str):
            pattern_pairs.append(
                (request["patterns"],
                 request.get("patterns_name", "<patterns>"))
            )
        try:
            findings = tenant.session.lint_sources(pairs, pattern_pairs)
        except DiagnosticError as err:
            # A lint source that fails to parse or register is a
            # lint-error (the CLI's exit-2 case), not a parse-error on
            # the tenant's own IR.
            raise FrameError(ErrorCode.LINT_ERROR, str(err)) from err
        return {
            "findings": [f.to_dict() for f in findings],
            "exit_code": exit_code(findings),
        }

    def _do_roundtrip(self, tenant: Tenant, request: dict) -> dict:
        module = self._load(tenant, request)
        result = tenant.session.roundtrip(module)
        return {
            "text": result["text"],
            "bytecode_b64": protocol.to_b64(result["bytecode"]),
            "stable": result["stable"],
        }

    def _emit(self, tenant: Tenant, module, request: dict) -> dict:
        emit = request.get("emit", "text")
        if emit not in ("text", "bytecode"):
            raise FrameError(
                ErrorCode.BAD_REQUEST,
                f"unknown emit format {emit!r} (text or bytecode)",
            )
        rendered = tenant.session.emit(
            module, emit,
            print_locations=bool(request.get("print_locations", False)),
        )
        ops = sum(1 for _ in module.walk())
        if emit == "bytecode":
            return {"ir_b64": protocol.to_b64(rendered), "ops": ops}
        return {"ir": rendered, "ops": ops}

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """The ``stats`` request body: a full ``server.*`` snapshot."""
        uptime = max(time.time() - self._started, 1e-9)
        snapshot = self.metrics.snapshot()
        requests_total = snapshot["counters"].get("server.requests_total", 0)
        latency = {
            name[len("server.latency_ms."):]: {
                "count": body["count"],
                "mean_ms": round(body["mean"], 3),
                "p50_ms": round(body["p50"], 3),
                "p99_ms": round(body["p99"], 3),
            }
            for name, body in snapshot["histograms"].items()
            if name.startswith("server.latency_ms.")
        }
        queue = snapshot["histograms"].get("server.queue_depth", {})
        with self._tenants_lock:
            tenants = {name: t.info() for name, t in self.tenants.items()}
        return {
            "uptime_s": round(uptime, 3),
            "draining": self._draining,
            "inflight": self._inflight,
            "requests_total": requests_total,
            "req_per_s": round(requests_total / uptime, 3),
            "counters": snapshot["counters"],
            "latency": latency,
            "queue_depth": {
                "p50": queue.get("p50", 0),
                "p99": queue.get("p99", 0),
                "max": queue.get("max", 0),
            },
            "dialect_cache": self.cache.stats(),
            "tenants": tenants,
        }


# ----------------------------------------------------------------------
# Console entry point
# ----------------------------------------------------------------------


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Long-running multi-tenant IRDL dialect service "
        "(length-prefixed JSON protocol; see docs/server.md).",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"TCP port; 0 picks a free one "
                        f"(default: {DEFAULT_PORT})")
    parser.add_argument("--cache-size", type=int, default=DEFAULT_CAPACITY,
                        help="compiled-dialect LRU capacity "
                        f"(default: {DEFAULT_CAPACITY})")
    parser.add_argument("--max-frame", type=int,
                        default=protocol.DEFAULT_MAX_FRAME,
                        help="per-frame byte bound (default: 8 MiB)")
    parser.add_argument("--request-timeout", type=float,
                        default=DEFAULT_REQUEST_TIMEOUT,
                        help="per-request wall-clock budget in seconds "
                        f"(default: {DEFAULT_REQUEST_TIMEOUT:g})")
    parser.add_argument("--workers", type=int, default=DEFAULT_WORKERS,
                        help="worker thread pool width "
                        f"(default: {DEFAULT_WORKERS})")
    parser.add_argument("--allow-sleep", action="store_true",
                        help="allow ping requests to carry sleep_ms "
                        "(load-generator / test knob)")
    return parser


async def _serve(args: argparse.Namespace) -> int:
    server = DialectServer(
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        max_frame=args.max_frame,
        request_timeout=args.request_timeout,
        workers=args.workers,
        allow_sleep=args.allow_sleep,
    )
    await server.start()
    # The smoke scripts parse this line; keep it first and flushed.
    print(f"repro-serve: listening on {server.host}:{server.port}",
          flush=True)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover — non-POSIX loops
            pass
    serve_task = asyncio.create_task(server.serve_forever())
    stop_task = asyncio.create_task(stop.wait())
    await asyncio.wait({serve_task, stop_task},
                       return_when=asyncio.FIRST_COMPLETED)
    await server.shutdown()
    serve_task.cancel()
    stop_task.cancel()
    print("repro-serve: drained and shut down", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:  # pragma: no cover — signal-handler race
        return 0


if __name__ == "__main__":
    sys.exit(main())
