"""Multiprocessing-sharded verification over indexed bytecode.

The driver partitions a module's top-level operations across worker
processes using the bytecode op-index section.  Each worker rebuilds a
fresh :class:`~repro.ir.context.Context` from the same dialect payloads
the parent registered (IRDL text or compiled IRBC — both are plain
``bytes`` and pickle cheaply), mmaps the artifact, and forces only its
shard's subtrees.  Cross-shard operand references materialize as typed
placeholder values, which is sound here because verification is
op-local: operand *types* are what constraint programs check, and the
use-def bookkeeping is consistent for placeholders too.

Diagnostics carry the top-level entry index, so the merge is a sort —
the output order and messages are identical to running
:func:`verify_module_serial` over the eagerly-decoded module, which the
differential tests assert across the corpus.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.ir.exceptions import VerifyError
from repro.ir.operation import Operation
from repro.obs.instrument import OBS

#: Hard ceiling on worker processes; requests above it are clamped.
MAX_WORKERS = 64


@dataclass(frozen=True)
class VerifyDiagnostic:
    """One verification failure, anchored to a top-level op."""

    entry_index: int
    op_name: str
    message: str


@dataclass
class VerifyReport:
    """The outcome of a (possibly sharded) verification run."""

    diagnostics: list[VerifyDiagnostic] = field(default_factory=list)
    ops: int = 0
    workers: int = 1
    shards: int = 1

    @property
    def ok(self) -> bool:
        return not self.diagnostics


def effective_workers(requested: int) -> int:
    """Resolve a ``workers`` argument to a worker count.

    ``0`` means "one per CPU"; anything else is clamped to
    ``[1, MAX_WORKERS]``.
    """
    if requested <= 0:
        requested = os.cpu_count() or 1
    return max(1, min(requested, MAX_WORKERS))


def partition_entries(
    weights: list[int] | tuple[int, ...], shards: int
) -> list[tuple[int, int]]:
    """Split entry indices into ≤ ``shards`` contiguous ``(start, end)``
    ranges balanced by weight (per-subtree op count).

    Contiguity keeps the merge a stable sort and lets each worker walk
    its region of the OPS payload mostly sequentially through the mmap.
    Every range is non-empty; fewer ranges than ``shards`` come back
    when there are fewer entries than shards.
    """
    n = len(weights)
    if n == 0:
        return []
    shards = max(1, min(shards, n))
    ranges: list[tuple[int, int]] = []
    start = 0
    remaining = sum(weights)
    for shard in range(shards):
        left = shards - shard
        if left == 1:
            ranges.append((start, n))
            break
        target = remaining / left
        end, acc = start, 0
        # Leave at least one entry for each shard still to come.
        while end < n - (left - 1) and (end == start or acc < target):
            acc += weights[end]
            end += 1
        ranges.append((start, end))
        remaining -= acc
        start = end
    return ranges


def verify_module_serial(root: Operation) -> VerifyReport:
    """The serial reference: verify each top-level op, collect failures.

    Unlike ``root.verify()`` (which raises on the first violation), this
    walks every top-level op of every region of ``root`` and records all
    failures — the exact semantics the sharded driver reproduces, so the
    two are diff-testable.  The root op itself is not verified; it is
    the container, not part of any shard.
    """
    report = VerifyReport()
    entry = 0
    for region in root.regions:
        for block in region.blocks:
            for op in block.ops:
                try:
                    op.verify()
                except VerifyError as err:
                    report.diagnostics.append(
                        VerifyDiagnostic(entry, op.name, str(err))
                    )
                entry += 1
    report.ops = entry
    return report


def _build_context(payloads: list[bytes]):
    """Rebuild a verification context from pickled dialect payloads."""
    from repro.server.session import Session

    session = Session()
    for i, payload in enumerate(payloads):
        session.register_dialect_data(payload, f"<shard-dialect-{i}>")
    return session.ctx


def _run_shard(task: dict) -> dict:
    """Verify one contiguous shard of top-level ops.

    Module-level and dict-in/dict-out so it pickles under every
    multiprocessing start method; exceptions are flattened to strings
    because ``DiagnosticError`` subclasses do not all survive pickling.
    """
    try:
        from repro.bytecode.lazy import LazyModuleReader

        context = _build_context(task["payloads"])
        diags: list[tuple[int, str, str]] = []
        with LazyModuleReader.open(context, task["path"]) as reader:
            for index in range(task["start"], task["end"]):
                handle = reader.handles[index]
                op = handle.force()
                try:
                    op.verify()
                except VerifyError as err:
                    diags.append((index, op.name, str(err)))
        return {"diags": diags}
    except Exception as err:  # noqa: BLE001 — crossing a process boundary
        return {"error": f"{type(err).__name__}: {err}"}


def _mp_context():
    """Prefer ``fork`` (cheap, inherits the imported interpreter);
    fall back to the platform default where fork is unavailable."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def shard_verify_file(
    path: str,
    *,
    workers: int = 0,
    dialect_payloads: list[bytes] | None = None,
) -> VerifyReport:
    """Verify an indexed bytecode module with sharded worker processes.

    ``path`` must be a seekable bytecode artifact carrying the op-index
    section; an artifact without one raises
    :class:`~repro.bytecode.wire.BytecodeError`.  ``dialect_payloads``
    are raw IRDL payloads (text or IRBC) re-registered inside each
    worker on top of the builtin context.  ``workers=0`` means one per
    CPU; ``workers=1`` runs the identical shard code in-process.

    Returns a :class:`VerifyReport` whose diagnostics are sorted by
    top-level entry index — the same order and messages the serial
    reference produces.
    """
    import time

    payloads = list(dialect_payloads or [])
    workers = effective_workers(workers)
    start_time = time.perf_counter()
    span = (
        OBS.tracer.span("parallel.verify", category="parallel")
        if OBS.active
        else None
    )
    if span is not None:
        span.__enter__()
    try:
        # One cheap open in the parent fetches the per-entry op counts
        # that drive the balanced partition.
        from repro.bytecode.lazy import LazyModuleReader

        context = _build_context(payloads)
        with LazyModuleReader.open(context, path) as reader:
            if not reader.lazy:
                from repro.bytecode.wire import BytecodeError

                raise BytecodeError(
                    "module has no op-index section; sharded "
                    "verification requires an indexed artifact",
                    source_name=path,
                )
            weights = [h.op_count for h in reader.handles]
        ranges = partition_entries(weights, workers)
        tasks = [
            {
                "path": path,
                "payloads": payloads,
                "start": lo,
                "end": hi,
            }
            for lo, hi in ranges
        ]
        if workers <= 1 or len(tasks) <= 1:
            results = [_run_shard(task) for task in tasks]
        else:
            mp = _mp_context()
            with mp.Pool(processes=len(tasks)) as pool:
                results = pool.map(_run_shard, tasks)
        merged: list[VerifyDiagnostic] = []
        for result in results:
            if "error" in result:
                raise VerifyError(
                    f"sharded verification worker failed: {result['error']}"
                )
            merged.extend(
                VerifyDiagnostic(*diag) for diag in result["diags"]
            )
        merged.sort(key=lambda d: d.entry_index)
        report = VerifyReport(
            diagnostics=merged,
            ops=len(weights),
            workers=workers,
            shards=len(tasks),
        )
    finally:
        if span is not None:
            span.__exit__(None, None, None)
    if OBS.active and OBS.metrics.enabled:
        metrics = OBS.metrics
        metrics.counter("parallel.verify.runs").inc()
        metrics.counter("parallel.verify.ops").inc(report.ops)
        metrics.counter("parallel.verify.diagnostics").inc(
            len(report.diagnostics)
        )
        metrics.histogram("parallel.verify.workers").observe(report.workers)
        metrics.histogram("parallel.verify.shards").observe(report.shards)
        metrics.timer("parallel.verify.time").record(
            time.perf_counter() - start_time
        )
    return report
