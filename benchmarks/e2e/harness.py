"""Timing, layer attribution and result records shared by every workload.

A workload run has three phases:

1. **Set-up**, repeated at least :data:`SETUPS` times; ``setup_s`` is
   the median, in reference seconds (see :class:`HostSpeed`).
   The workload's own input generation happens before and is excluded.
2. **Timed iterations** with tracing off, after :data:`WARMUP_SECONDS`
   of untimed ones, for at least ``seconds`` and at least
   :data:`MIN_SAMPLES` iterations; ``wall_s`` is their mean, in
   reference seconds.
   Garbage is collected before each one, outside its time.
   Every iteration's output, warm-up included, is checked against
   answers the workload fixed when it generated its inputs.
3. With ``trace``, **one traced iteration**: every call into a compiler
   layer runs inside a :class:`LayerTracer` span, and the repository's
   own counters are switched on with :func:`repro.obs.enable_metrics`.
   Stand-alone probes (a lexer-only pass, sharded verifies with two
   workers and one, a matcher build) run after it, outside its wall
   time; a probe whose output is checked counts as one more operation.

The harness never installs its tracer into ``repro.obs.OBS``: spans come
from the benchmark's calls into public functions, so the program under
test is unchanged.
"""

from __future__ import annotations

import contextlib
import contextvars
import gc
import re
import resource
import time
from collections import defaultdict
from statistics import fmean, median
from typing import Any, Callable, Iterator

from repro.obs import MetricsRegistry, Tracer, enable_metrics, reset

#: Set-ups per run: at least ``SETUPS``, and more while they have taken
#: under ``SETUP_SECONDS``, up to ``MAX_SETUPS``.  ``setup_s`` is their
#: median, so quick set-ups get a median over more samples.
SETUPS = 3
SETUP_SECONDS = 2.0
MAX_SETUPS = 15

#: Fewest timed iterations per run, however long each one takes.
MIN_SAMPLES = 3

#: Untimed iterations after set-up: at least one, and more until they
#: have taken this long.  The first iterations after a set-up run up to
#: a fifth faster than later ones (``rewrite_mix``: 0.80 and 0.88 of
#: the steady time), so a run with fewer samples would read faster.
WARMUP_SECONDS = 2.0

#: Failure messages echoed to stderr per run; the rest are only counted.
MAX_REPORTED_FAILURES = 5

#: Seconds one reference block is defined to take: see :class:`HostSpeed`.
#: It is about the block's median time on the 2-core host the bounds
#: were measured on, so reference seconds read close to raw ones there.
REFERENCE_S = 0.035

#: How far measured times follow the reference block's: see
#: :class:`HostSpeed`.
ELASTICITY = 0.75

#: Seconds of measured work per reference block.
BLOCK_EVERY_S = 0.5

#: The reference block: passes over a fixed program of op lines.  It is
#: small, so that the block adds nothing to a workload's peak memory.
_REFERENCE_PASSES = 10
_REFERENCE_LINES = [
    f'%v{i} = "ref.op{i % 17}"(%v{i // 2}, %v{i // 3}) {{index = {i} : i64}}'
    for i in range(1, 400)
]
_REFERENCE_TOKEN = re.compile(r'%\w+|"[^"]*"|\w+|[^\s\w]')
_REFERENCE_CHECKS = 8
_REFERENCE_SOURCE = "\n".join(
    f"def check_{i}(op):\n"
    f"    if len(op.operands) != 2 or op.name == 'ref.op{i}':\n"
    f"        return 0\n"
    f"    return op.attrs['index'] % {i + 2}\n"
    for i in range(_REFERENCE_CHECKS)
)


class _RefOp:
    __slots__ = ("name", "operands", "attrs", "users")

    def __init__(self, name: str, operands: list, attrs: dict):
        self.name, self.operands, self.attrs = name, operands, attrs
        self.users: list[_RefOp] = []


def _reference_pass() -> int:
    """Lex, build a use-def graph, compile checks, run them, print."""
    values = {"%v0": _RefOp("ref.arg", [], {"index": 0})}
    for line in _REFERENCE_LINES:
        tokens = _REFERENCE_TOKEN.findall(line)
        op = _RefOp(tokens[2].strip('"'),
                    [values[tokens[4]], values[tokens[6]]],
                    {tokens[9]: int(tokens[11])})
        for operand in op.operands:
            operand.users.append(op)
        values[tokens[0]] = op
    namespace: dict[str, Any] = {}
    exec(compile(_REFERENCE_SOURCE, "<reference>", "exec"), namespace)
    checks = [namespace[f"check_{i}"] for i in range(_REFERENCE_CHECKS)]
    total = sum(check(op) for op in values.values() for check in checks)
    printed = "\n".join(
        f"{name} = {op.name}({', '.join(str(len(o.users)) for o in op.operands)})"
        for name, op in values.items()
    )
    return total + len(printed)


def reference_block() -> float:
    """Wall seconds of a fixed block of interpreter work."""
    gc.collect()
    start = time.perf_counter()
    for _ in range(_REFERENCE_PASSES):
        _reference_pass()
    return time.perf_counter() - start


class HostSpeed:
    """Reference blocks timed between units of measured work.

    The cores of a small shared host change speed by up to 1.8x, within
    fractions of a second, as other tenants load them, and the share of
    slow time drifts over minutes; process CPU time slows as much as
    wall time.  Raw times of unchanged code then spread by up to 40%
    between runs.  So a run times :func:`reference_block` -- the same
    kind of work as the compiler's: regex lexing, a use-def object
    graph, ``compile``, calls, string building -- between its units of
    measured work, one block per :data:`BLOCK_EVERY_S` of that work, and
    scales its times to the host speed at which one block takes
    :data:`REFERENCE_S`.  The block uses nothing from ``src/``, so a
    change to the compiler moves only the measured times.

    The block fits in the caches; the compiler's heap does not, and the
    part of its time spent waiting on memory slows less when the host
    does.  Across runs, its mean iteration time moved by 0.5-0.9 of the
    block's mean time (log-log slopes, correlation 0.86-0.95), so times
    are scaled by the block's ratio to the power :data:`ELASTICITY`.
    """

    def __init__(self) -> None:
        self.blocks: list[float] = []

    def measure(self, work_s: float = 0.0) -> None:
        """Time one block per :data:`BLOCK_EVERY_S` of ``work_s``, the
        measured work since the last call, and at least one."""
        for _ in range(max(1, round(work_s / BLOCK_EVERY_S))):
            self.blocks.append(reference_block())

    def normalize(self, seconds: float) -> float:
        """``seconds`` as they read at the reference host speed."""
        return seconds * (REFERENCE_S / fmean(self.blocks)) ** ELASTICITY


def timed_setups(setup: Callable[[], Any],
                 close: Callable[[Any], None]) -> tuple[Any, float]:
    """Repeat ``setup`` (see :data:`SETUPS`) and keep only the last state;
    returns it and ``setup_s``, the median in reference seconds."""
    times: list[float] = []
    speed = HostSpeed()
    state = None
    while len(times) < SETUPS or (sum(times) < SETUP_SECONDS
                                  and len(times) < MAX_SETUPS):
        if state is not None:
            close(state)
        speed.measure(times[-1] if times else 0.0)
        start = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - start)
    return state, speed.normalize(median(times))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _Frame:
    __slots__ = ("layer", "child_s")

    def __init__(self, layer: str):
        self.layer = layer
        self.child_s = 0.0


class LayerTracer:
    """Spans around calls into compiler layers, folded into self time.

    ``with layers("textir.parser"): parse_module(...)`` records a Chrome
    trace event in a private :class:`repro.obs.Tracer` (args:
    ``iteration``, ``parent``, ``lane``) and adds the span's *self time*
    -- its duration minus the time its child spans cover -- to the
    layer's total.  The open span lives in a context variable, so
    concurrent asyncio tasks (the daemon's clients) each nest their own
    spans.
    """

    def __init__(self, iteration: int):
        self.tracer = Tracer(process_name="benchmarks/e2e",
                             thread_name="workload")
        self.iteration = iteration
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._open: contextvars.ContextVar[_Frame | None] = (
            contextvars.ContextVar("e2e_open_span", default=None)
        )

    @contextlib.contextmanager
    def __call__(self, layer: str, lane: int = 1) -> Iterator[None]:
        parent = self._open.get()
        frame = _Frame(layer)
        token = self._open.set(frame)
        start = time.perf_counter()
        try:
            with self.tracer.span(
                layer, category=layer.split(".")[0],
                iteration=self.iteration,
                parent=parent.layer if parent is not None else None,
                lane=lane,
            ):
                yield
        finally:
            elapsed = time.perf_counter() - start
            self._open.reset(token)
            self.self_s[layer] += elapsed - frame.child_s
            self.calls[layer] += 1
            if parent is not None:
                parent.child_s += elapsed

    def table(self, wall_s: float, lanes: int = 1) -> dict[str, dict]:
        """``{layer: {self_s, share, calls}}``; share is of lane time."""
        return {
            layer: {
                "self_s": self_s,
                "share": ratio(self_s, wall_s * lanes),
                "calls": self.calls[layer],
            }
            for layer, self_s in sorted(self.self_s.items())
        }

    def write(self, path: str) -> None:
        """Write the Chrome trace, one track per lane."""
        for event in self.tracer.events:
            event["tid"] = event.get("args", {}).get("lane", 1)
        self.tracer.write(path)


class _NoLayers:
    """The untraced stand-in for :class:`LayerTracer`: spans cost nothing."""

    _NULL = contextlib.nullcontext()

    def __call__(self, layer: str, lane: int = 1):
        return self._NULL


NO_LAYERS = _NoLayers()


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < MAX_REPORTED_FAILURES:
                self.reasons.append(problem)

    def fields(self) -> dict:
        """The record fields: attempted, failed, error_rate, failures."""
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "error_rate": ratio(self.failed, self.attempted),
            "failures": self.reasons,
        }


def attempt(fn, *args) -> tuple[Any, str | None]:
    """``(result, None)``, or ``(None, reason)`` when ``fn`` raises."""
    try:
        return fn(*args), None
    except Exception as err:  # noqa: BLE001 -- counted as a failed operation
        return None, f"{type(err).__name__}: {err}"


class Workload:
    """A batch workload: seeded inputs, a set-up and a pipeline iteration.

    Subclasses generate their inputs and expected answers in
    ``__init__`` (excluded from ``setup_s``) and implement
    :meth:`setup`, :meth:`iteration` and :meth:`check`.
    """

    name = "workload"
    #: IR operations in the workload's input, for the results file.
    ops = 0

    def setup(self) -> Any:
        raise NotImplementedError

    def iteration(self, state: Any, layers) -> Any:
        """One pipeline run; returns what :meth:`check` inspects."""
        raise NotImplementedError

    def check(self, state: Any, output: Any) -> str | None:
        """``None`` when ``output`` matches the expected answers."""
        raise NotImplementedError

    def emit_bytes(self, output: Any) -> int:
        """Size of the artifact one iteration emits."""
        raise NotImplementedError

    def probes(self, state: Any, layers: LayerTracer) -> list[str | None]:
        """Traced-run-only measurements, outside the traced wall time;
        one problem (or ``None``) per probe output that is checked."""
        return []

    def lifetime_counts(self, state: Any) -> dict[str, int]:
        """Counters to take as before/after differences of totals kept on
        objects that outlive an iteration, instead of from the registry."""
        return {}

    def close(self, state: Any) -> None:
        """Release what :meth:`setup` acquired."""

    def run(self, seconds: float, trace: bool,
            trace_out: str | None = None) -> dict:
        """Set up, time, optionally trace; returns the run's record."""
        state, setup_s = timed_setups(self.setup, self.close)
        try:
            return self._measure(state, setup_s, seconds, trace, trace_out)
        finally:
            self.close(state)

    def _checked(self, state: Any, layers, tally: Tally) -> tuple[float, int]:
        """One checked iteration: ``(wall seconds, emitted bytes)``.

        The output is dropped here, and the garbage of earlier iterations
        (IR is full of reference cycles) is collected before the clock
        starts, so every iteration begins from the same heap, as a fresh
        invocation would, instead of paying for an earlier one's garbage.
        """
        gc.collect()
        start = time.perf_counter()
        output, problem = attempt(self.iteration, state, layers)
        elapsed = time.perf_counter() - start
        if problem is None:
            problem = self.check(state, output)
        tally.record(problem)
        return elapsed, self.emit_bytes(output) if output else 0

    def _measure(self, state: Any, setup_s: float, seconds: float,
                 trace: bool, trace_out: str | None) -> dict:
        tally = Tally()
        warmup_s = 0.0
        while not warmup_s or warmup_s < WARMUP_SECONDS:
            warmup_s += self._checked(state, NO_LAYERS, tally)[0]
        samples: list[float] = []
        speed = HostSpeed()
        elapsed = 0.0
        start = time.perf_counter()
        while (len(samples) < MIN_SAMPLES
               or time.perf_counter() - start < seconds):
            speed.measure(elapsed)
            elapsed, emitted = self._checked(state, NO_LAYERS, tally)
            samples.append(elapsed)
        record = {
            "metrics": {
                "setup_s": setup_s,
                # The mean, not the median: it moves with the share of
                # slow time in the run, as the blocks' mean does.
                "wall_s": speed.normalize(fmean(samples)),
                "peak_rss_mb": peak_rss_mb(),
                "emit_bytes": emitted,
            },
            "samples": len(samples),
            "ops": self.ops,
        }
        if trace:
            layers = LayerTracer(iteration=len(samples))
            before = self.lifetime_counts(state)
            registry = enable_metrics(MetricsRegistry())
            try:
                traced_s, _ = self._checked(state, layers, tally)
                counters = registry.snapshot()["counters"]
            finally:
                reset()
            after = self.lifetime_counts(state)
            counters.update({k: after[k] - before[k] for k in after})
            record["layers"] = layers.table(traced_s)
            for problem in self.probes(state, layers):
                tally.record(problem)
            if trace_out:
                layers.write(trace_out)
            record["counters"] = layer_metrics(
                layers.self_s, counters, fmean(samples), traced_s,
                covered_s=sum(row["self_s"]
                              for row in record["layers"].values()),
                reference_s=fmean(speed.blocks),
            )
        record.update(tally.fields())
        return record


def layer_metrics(self_s: dict[str, float], counters: dict[str, int],
                  wall_s: float, traced_s: float, covered_s: float,
                  reference_s: float,
                  server: dict[str, float] | None = None) -> dict[str, float]:
    """Every per-layer metric, 0 where the workload leaves a layer idle.

    ``self_s`` holds span self time by layer (probes included);
    ``counters`` the repository's own counters from the traced
    iteration; ``wall_s`` the timed iterations' mean and
    ``reference_s`` the reference blocks' mean, both in raw seconds;
    ``server`` the daemon-side figures of ``daemon_mix``, which only its
    record carries.  Layer times
    are raw seconds of the traced iteration.
    """
    s = defaultdict(float, self_s)
    c = defaultdict(int, counters)
    metrics = {
        "textir.lexer.s": s["textir.lexer"],
        "textir.lexer.tokens": c["textir.lexer.tokens"],
        "textir.parser.s": s["textir.parser"],
        "textir.parser.ops": c["textir.parser.ops_parsed"],
        "textir.printer.s": s["textir.printer"],
        "ir.uniquer.hit_ratio": ratio(
            c["ir.uniquer.hits"], c["ir.uniquer.hits"] + c["ir.uniquer.misses"]
        ),
        "irdl.parser.s": s["irdl.parser"],
        "irdl.instantiate.text_s": s["irdl.instantiate.text"],
        "irdl.instantiate.irbc_s": s["irdl.instantiate.irbc"],
        "irdl.codegen.definitions_compiled":
            c["irdl.codegen.definitions_compiled"],
        "ir.verify.s": s["ir.verify"],
        "irdl.verifier.ops_verified": c["irdl.verifier.ops_verified"],
        "irdl.verifier.memo_hit_ratio": ratio(
            c["irdl.verifier.memo_hits"],
            c["irdl.verifier.memo_hits"] + c["irdl.verifier.memo_misses"],
        ),
        "bytecode.encoder.s":
            s["bytecode.encoder.module"] + s["bytecode.encoder.dialects"],
        "bytecode.encoder.dialects_s": s["bytecode.encoder.dialects"],
        "bytecode.decoder.s":
            s["bytecode.decoder.module"] + s["bytecode.decoder.dialects"],
        "bytecode.decoder.module_s": s["bytecode.decoder.module"],
        "bytecode.decoder.dialects_s": s["bytecode.decoder.dialects"],
        "bytecode.lazy.open_s": s["bytecode.lazy.open"],
        "bytecode.lazy.force_s": s["bytecode.lazy.force"],
        "parallel.verify.s": s["parallel.verify"],
        "parallel.verify.serial_s": s["parallel.verify.serial"],
        "parallel.verify.speedup": ratio(
            s["parallel.verify.serial"], s["parallel.verify"]
        ),
        "rewriting.matcher.build_s": s["rewriting.matcher.build"],
        "rewriting.driver.s": s["rewriting.driver"],
        "rewriting.driver.rewrites_applied":
            c["rewriting.driver.rewrites_applied"],
        "rewriting.driver.match_attempts":
            c["rewriting.driver.match_attempts"],
        "rewriting.driver.hit_ratio": ratio(
            c["rewriting.driver.rewrites_applied"],
            c["rewriting.driver.match_attempts"],
        ),
        "rewriting.passes.cse_s": s["rewriting.passes.cse"],
        "rewriting.passes.dce_s": s["rewriting.passes.dce"],
        "ir.clone.s": s["ir.clone"],
        "analysis.dataflow.constprop_s": s["analysis.dataflow.constprop"],
        "analysis.dataflow.cache_hits": c["analysis.dataflow.cache_hits"],
        "tracing.overhead": ratio(traced_s, wall_s),
        "tracing.coverage": ratio(covered_s, traced_s),
        "host.reference_s": reference_s,
    }
    if server is not None:
        metrics.update(server)
    return metrics
