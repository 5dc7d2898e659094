"""``daemon_mix``: a closed loop against a ``repro.server`` subprocess.

The load comes from one asyncio process over two connections, one per
tenant, driven by :class:`repro.server.client.LoadGenerator`.  The loop
is closed because the daemon's callers (CLI sessions, editors) wait for
each reply before sending the next request.  One *round* is a client's
fixed, seeded sequence of the :data:`MIX` of parse / verify (text and
IRBC) / rewrite / roundtrip requests on small modules, then two
re-registrations of ``cmath`` with ``replace=true``: a warm one of the
unchanged source, which the dialect cache must serve, and a cold one
with a unique pad, which it must compile, so cache reads and writes run
beside the IR requests.  One verify payload in ten is invalid and must
come back as ``verify-error``.

The timed run is cut into segments of ``harness.BLOCK_EVERY_S``, each
one ``LoadGenerator.run`` preceded by a reference block (see
:class:`harness.HostSpeed`); ``req_per_s`` is the median of the
segments' throughputs.
"""

from __future__ import annotations

import asyncio
import os
import random
import statistics
import subprocess
import sys
import time

from repro.builtin import default_context
from repro.bytecode import encode_module
from repro.corpus import BENCH_DIALECT_SOURCE, cmath_source
from repro.irdl import register_irdl
from repro.server.client import (
    LoadGenerator,
    LoadReport,
    ServerClient,
    ServerError,
    TimedClient,
)
from repro.server.protocol import to_b64
from repro.textir import parse_module

from harness import (
    BLOCK_EVERY_S,
    NO_LAYERS,
    HostSpeed,
    LayerTracer,
    Tally,
    layer_metrics,
    ratio,
    timed_setups,
)
from workloads import CONORM_PATH, REPO

#: Connections, one per tenant: all load comes from one process on a
#: 2-core host.
CLIENTS = 2

HOST = "127.0.0.1"

#: Request kinds of one round before the registrations, and their counts.
MIX = {"parse": 5, "verify": 5, "verify_irbc": 5, "rewrite": 4,
       "roundtrip": 5}

#: ``bench.add`` chain lengths of the small modules each client sends,
#: and of its invalid verify payloads.
ADDS = (3, 4, 5, 6, 7, 8, 9, 10)
INVALID_ADDS = 6

#: Seconds to wait for the daemon to boot or to stop.
PROCESS_TIMEOUT = 30

REQUEST_TYPES = ("parse", "verify", "rewrite", "roundtrip",
                 "register_dialect")


def small_module(rng: random.Random, adds: int,
                 invalid: bool) -> tuple[str, int]:
    """A module with one ``conorm`` site and a ``bench.add`` chain.

    Returns the text and its op count (module and function included).
    An invalid module carries a two-operand ``bench.sink``.
    """
    lines = [
        '  %np = "cmath.norm"(%p) : (!cmath.complex<f32>) -> (f32)',
        '  %nq = "cmath.norm"(%q) : (!cmath.complex<f32>) -> (f32)',
        '  %pq = "arith.mulf"(%np, %nq) : (f32, f32) -> (f32)',
        '  %s0 = "bench.source"() : () -> (i32)',
    ]
    for step in range(1, adds + 1):
        lhs = rng.randrange(step)
        lines.append(f'  %s{step} = "bench.add"(%s{lhs}, %s{step - 1})'
                     ' : (i32, i32) -> (i32)')
    operands = f"%s{adds}, %s{adds}" if invalid else f"%s{adds}"
    types = "i32, i32" if invalid else "i32"
    lines.append(f'  "bench.sink"({operands}) : ({types}) -> ()')
    lines.append('  "func.return"(%pq) : (f32) -> ()')
    text = "\n".join([
        '"builtin.module"() ({',
        '"func.func"() ({',
        '^bb0(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>):',
        *lines,
        '}) {sym_name = "m", function_type = '
        '(!cmath.complex<f32>, !cmath.complex<f32>) -> f32} : () -> ()',
        '}) : () -> ()',
    ])
    return text, 2 + len(lines)


class DaemonMix:
    """Boots the daemon, drives two closed-loop clients, checks replies."""

    name = "daemon_mix"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        context = default_context()
        register_irdl(context, cmath_source(), "cmath.irdl")
        register_irdl(context, BENCH_DIALECT_SOURCE, "bench.irdl")
        self.cmath = cmath_source()
        with open(CONORM_PATH, encoding="utf-8") as handle:
            self.patterns = handle.read()
        #: Cold registrations so far; numbers each one's unique pad.
        self.cold = 0
        self.plans = [self._plan(rng, context) for _ in range(CLIENTS)]
        self.ops = sum(ops for plan in self.plans for *_, ops in plan)

    def _plan(self, rng, context) -> list[tuple[str, dict, dict, int]]:
        """One client's round: ``(type, params, expected, ops)`` tuples.

        The seed picks the operand wiring and the order of the requests.
        Which module sizes each kind of request carries is fixed, so one
        round costs about the same under every seed.
        """
        pool = [small_module(rng, adds, invalid=False) for adds in ADDS]
        requests = [(kind, pool[(offset + i) % len(pool)])
                    for offset, (kind, count) in enumerate(MIX.items())
                    for i in range(count)]
        rng.shuffle(requests)
        verifies = 0
        plan = []
        for kind, (text, ops) in requests:
            if kind == "parse":
                plan.append(("parse", {"ir": text}, {"ops": ops}, ops))
            elif kind == "rewrite":
                # conorm turns norm, norm, mulf into mul, norm.
                plan.append(("rewrite", {
                    "ir": text, "patterns": self.patterns,
                    "pipeline": ["canonicalize", "dce"],
                }, {"ops": ops - 1, "changed": True}, ops))
            elif kind == "roundtrip":
                plan.append(("roundtrip", {"ir": text}, {"stable": True}, ops))
            else:
                verifies += 1
                expected = {"verified": True, "ops": ops}
                if verifies % 10 == 0:
                    text, ops = small_module(rng, INVALID_ADDS,
                                             invalid=True)
                    expected = {"error": "verify-error"}
                params = {"ir": text}
                if kind == "verify_irbc":
                    # Ops are only created here; verification happens in
                    # the daemon.
                    module = parse_module(context, text)
                    params = {"ir_b64": to_b64(encode_module(module))}
                plan.append(("verify", params, expected, ops))
        return plan

    # ------------------------------------------------------------------
    # The daemon process
    # ------------------------------------------------------------------

    def _boot(self, cpus: set[int]) -> tuple[subprocess.Popen, int]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(REPO, "src"), env.get("PYTHONPATH")) if p
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0"],
            stdout=subprocess.PIPE, env=env, cwd=REPO, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus),
        )
        line = process.stdout.readline()
        if "listening on" not in line:
            _stop(process)
            raise RuntimeError(f"daemon did not boot: {line!r}")
        return process, int(line.rsplit(":", 1)[1])

    def run(self, seconds: float, trace: bool,
            trace_out: str | None = None) -> dict:
        # The daemon gets one core and the client the rest, as when clients
        # run elsewhere.  Left to the scheduler, the two processes and the
        # daemon's threads migrate between cores, and on a 2-core host
        # the median round time then varies by a third from run to run.
        cpus = sorted(os.sched_getaffinity(0))
        daemon_cpus = {cpus[0]}
        client_cpus = set(cpus[1:]) or daemon_cpus
        process = None
        try:
            os.sched_setaffinity(0, client_cpus)
            (process, port), setup_s = timed_setups(
                lambda: self._boot(daemon_cpus),
                lambda booted: _stop(booted[0]),
            )
            record = asyncio.run(
                self._drive(port, process.pid, seconds, trace, trace_out)
            )
        finally:
            if process is not None:
                _stop(process)
            os.sched_setaffinity(0, cpus)
        record["metrics"]["setup_s"] = setup_s
        return record

    # ------------------------------------------------------------------
    # The clients
    # ------------------------------------------------------------------

    async def _drive(self, port: int, pid: int, seconds: float, trace: bool,
                     trace_out: str | None) -> dict:
        tally = Tally()
        load = LoadGenerator(HOST, port, tenants=CLIENTS)
        registered = await load.run(self._registrations(tally))
        timed = _Rounds()
        speed = HostSpeed()
        segments: list[LoadReport] = []
        end = time.perf_counter() + seconds
        while not segments or time.perf_counter() < end:
            # The reference block blocks this process's event loop, so it
            # runs between segments, when no request is in flight.
            speed.measure()
            deadline = min(time.perf_counter() + BLOCK_EVERY_S, end)
            segments.append(await load.run(
                self._rounds(deadline, timed, tally, NO_LAYERS)
            ))
        record = {
            "metrics": {
                "wall_s": speed.normalize(statistics.fmean(timed.times)),
                "peak_rss_mb": _peak_rss_mb(pid),
                "emit_bytes": statistics.median(timed.emitted),
            },
            "samples": len(timed.times),
            "ops": self.ops,
        }
        if trace:
            report = LoadReport(latencies_ms=[
                latency for segment in segments
                for latency in segment.latencies_ms
            ])
            client_metrics = {
                "server.client.req_per_s": statistics.median(
                    segment.req_per_s for segment in segments),
                "server.client.latency_ms_p50": report.percentile(0.50),
                "server.client.latency_ms_p99": report.percentile(0.99),
                "server.client.register_hit_ms":
                    statistics.median(timed.register_ms[True]),
                "server.client.register_miss_ms":
                    statistics.median(timed.register_ms[False]),
            }
            layers = LayerTracer(iteration=len(timed.times))
            start = time.perf_counter()
            traced = await load.run(
                self._rounds(start, _Rounds(), tally, layers)
            )
            traced_s = time.perf_counter() - start
            async with await ServerClient.connect(
                    HOST, port, tenant="tenant-0") as client:
                stats = await client.stats()
            record["layers"] = layers.table(traced_s, CLIENTS)
            if trace_out:
                layers.write(trace_out)
            latencies = [*registered.latencies_ms, *report.latencies_ms,
                         *traced.latencies_ms]
            record["counters"] = layer_metrics(
                layers.self_s, {}, statistics.fmean(timed.times), traced_s,
                covered_s=sum(layers.self_s.values()) / CLIENTS,
                reference_s=statistics.fmean(speed.blocks),
                server={**client_metrics, **server_metrics(stats, latencies)},
            )
        record.update(tally.fields())
        return record

    def _registrations(self, tally: Tally):
        """A worker registering ``cmath`` and ``bench``: the first tenant
        compiles both, then the second must hit the cache."""
        first_done = asyncio.Event()

        async def worker(client: TimedClient, index: int) -> None:
            if index:
                await first_done.wait()
            try:
                for name, source in (("cmath.irdl", self.cmath),
                                     ("bench.irdl", BENCH_DIALECT_SOURCE)):
                    response = await _send(client, "register_dialect",
                                           {"irdl": source, "name": name})
                    tally.record(reply_problem("register_dialect", response,
                                               {"cache_hit": index > 0}))
            finally:
                first_done.set()

        return worker

    def _rounds(self, deadline: float, rounds: _Rounds, tally: Tally,
                layers):
        """A worker running rounds until ``deadline`` (at least one)."""

        async def worker(client: TimedClient, index: int) -> None:
            while True:
                round_start = time.perf_counter()
                emitted = 0
                for kind, params, expected, _ in (self.plans[index]
                                                  + self._reregistrations()):
                    sent = time.perf_counter()
                    with layers(f"server.{kind}", lane=index + 1):
                        response = await _send(client, kind, params)
                    done = time.perf_counter()
                    tally.record(reply_problem(kind, response, expected))
                    emitted += emitted_bytes(response)
                    if kind == "register_dialect":
                        rounds.register_ms[expected["cache_hit"]].append(
                            (done - sent) * 1e3)
                rounds.times.append(time.perf_counter() - round_start)
                rounds.emitted.append(emitted)
                if time.perf_counter() >= deadline:
                    return

        return worker

    def _reregistrations(self) -> list[tuple[str, dict, dict, int]]:
        """The end of a round: ``cmath`` again, warm (the cached source)
        and cold (a unique pad, so the cache must compile it)."""
        self.cold += 1
        pad = f"\n// cold registration {self.cold}\n"
        return [
            ("register_dialect",
             {"irdl": source, "name": "cmath.irdl", "replace": True},
             {"cache_hit": hit, "dialects": ["cmath"]}, 0)
            for source, hit in ((self.cmath, True), (self.cmath + pad, False))
        ]


class _Rounds:
    """Round bookkeeping of one phase of the run; the per-request
    latencies are in the phase's :class:`repro.server.client.LoadReport`."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.emitted: list[int] = []
        #: Client-observed registration latencies, by cache hit.
        self.register_ms: dict[bool, list[float]] = {True: [], False: []}


async def _send(client: TimedClient, kind: str, params: dict) -> dict:
    """One timed request, returned as its reply envelope: an error reply
    is returned, not raised, as ``verify-error`` is an expected answer."""
    try:
        return {"ok": True, "result": await client.call(kind, **params)}
    except ServerError as err:
        return {"ok": False,
                "error": {"code": err.code, "message": err.message}}


def reply_problem(kind: str, response: dict, expected: dict) -> str | None:
    """``None`` when the reply carries every expected field."""
    if "error" in expected:
        code = None if response.get("ok") else response["error"]["code"]
        if code == expected["error"]:
            return None
        return f"{kind}: expected {expected['error']}, got {response!r:.200}"
    if not response.get("ok"):
        return f"{kind}: {response.get('error')!r:.200}"
    result = response["result"]
    for key, want in expected.items():
        if result.get(key) != want:
            return f"{kind}: {key} is {result.get(key)!r}, expected {want!r}"
    return None


def emitted_bytes(response: dict) -> int:
    """IR bytes a reply carries (text, or base64 bytecode)."""
    result = response.get("result") or {}
    return sum(len(result.get(key, "")) for key in
               ("ir", "ir_b64", "text", "bytecode_b64"))


def server_metrics(stats: dict, client_latencies_ms: list[float]) -> dict:
    """Daemon-side figures from ``stats``.  Its percentiles are
    power-of-two buckets, so only the means are used."""
    latency = stats["latency"]
    metrics = {
        f"server.{kind}.mean_ms": latency.get(kind, {}).get("mean_ms", 0.0)
        for kind in REQUEST_TYPES
    }
    served = sum(latency[k]["count"] for k in REQUEST_TYPES if k in latency)
    server_ms = sum(latency[k]["count"] * latency[k]["mean_ms"]
                    for k in REQUEST_TYPES if k in latency)
    metrics["server.framing_ms_mean"] = (
        statistics.fmean(client_latencies_ms) - ratio(server_ms, served)
    )
    metrics["server.cache.hit_ratio"] = stats["dialect_cache"]["hit_ratio"]
    metrics["server.queue_depth.max"] = stats["queue_depth"]["max"]
    return metrics


def _peak_rss_mb(pid: int) -> float:
    """The daemon's peak resident set (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc status")


def _stop(process: subprocess.Popen) -> None:
    """SIGTERM (the daemon drains and exits), then wait; kill if stuck."""
    process.terminate()
    try:
        process.wait(PROCESS_TIMEOUT)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    process.stdout.close()
