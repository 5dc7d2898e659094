"""The global observability switchboard the pipeline layers consult.

Hot code imports the singleton :data:`OBS` once and guards with
``OBS.active`` (or ``OBS.metrics.enabled``), so the disabled pipeline
pays a couple of attribute loads per instrumented region — nothing is
allocated and no names are formatted.  Enabling observability swaps the
fields of the singleton in place, which every importer observes
immediately (the object identity never changes).

A library entry point gets its span and timer from :func:`observed`
and keeps only the metrics that need its own data::

    from repro.obs.instrument import OBS, observed

    @observed("textir.parse", "textir.parser.parse_time", "textir")
    def parse(...):
        result = ...
        if OBS.metrics.enabled:
            OBS.metrics.counter("textir.parser.ops_parsed").inc(n)
        return result
"""

from __future__ import annotations

import functools
import json
from typing import TYPE_CHECKING, Any, Callable, TextIO, TypeVar

from repro.obs import timing
from repro.obs.metrics import MetricsRegistry
from repro.obs.remarks import NULL_REMARKS, NullRemarkEngine, RemarkEngine
from repro.obs.ring import EventRing
from repro.obs.tracing import NULL_TRACER, NullTracer, Tracer

if TYPE_CHECKING:
    from repro.ir.operation import Operation


class Observability:
    """The global sinks: metrics registry, tracer, remark engine, ring."""

    __slots__ = ("metrics", "tracer", "remarks", "ring")

    def __init__(self):
        self.metrics = MetricsRegistry(enabled=False)
        self.tracer: Tracer | NullTracer = NULL_TRACER
        self.remarks: RemarkEngine | NullRemarkEngine = NULL_REMARKS
        #: The flight-recorder ring; only populated while a remark
        #: engine (or another pusher) is installed, so the disabled
        #: path never touches it.
        self.ring = EventRing()

    @property
    def active(self) -> bool:
        return self.metrics.enabled or self.tracer.enabled


#: The process-wide observability state.  Mutated in place — never rebound.
OBS = Observability()


def enable_metrics(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install (and enable) a metrics registry; returns it."""
    OBS.metrics = registry if registry is not None else MetricsRegistry()
    OBS.metrics.enable()
    return OBS.metrics


def disable_metrics() -> MetricsRegistry:
    """Disable metric collection, keeping recorded values readable."""
    OBS.metrics.disable()
    return OBS.metrics


def install_tracer(tracer: Tracer | None = None) -> Tracer:
    """Install (and return) a tracer; spans start recording immediately."""
    installed = tracer if tracer is not None else Tracer()
    OBS.tracer = installed
    return installed


def uninstall_tracer() -> Tracer | NullTracer:
    """Stop tracing; returns the tracer that was collecting events."""
    previous = OBS.tracer
    OBS.tracer = NULL_TRACER
    return previous


def install_remarks(engine: RemarkEngine | None = None) -> RemarkEngine:
    """Install (and return) a remark engine; emitters start recording."""
    installed = engine if engine is not None else RemarkEngine()
    OBS.remarks = installed
    return installed


def uninstall_remarks() -> RemarkEngine | NullRemarkEngine:
    """Stop remark collection; returns the engine that was recording."""
    previous = OBS.remarks
    OBS.remarks = NULL_REMARKS
    return previous


def recent_events() -> list[dict]:
    """The flight-recorder snapshot: the last events, oldest first."""
    return OBS.ring.snapshot()


def dump_recent_events(stream: TextIO) -> None:
    """Write the flight-recorder snapshot to ``stream`` under a header,
    one JSON object per line; nothing when the ring is empty."""
    events = recent_events()
    if not events:
        return
    print(f"--- flight recorder ({len(events)} event(s), oldest first) ---",
          file=stream)
    for event in events:
        print(json.dumps(event, sort_keys=True, default=str), file=stream)


def reset() -> None:
    """Return the global state to its fully disabled default."""
    OBS.metrics = MetricsRegistry(enabled=False)
    OBS.tracer = NULL_TRACER
    OBS.remarks = NULL_REMARKS
    OBS.ring.clear()


_F = TypeVar("_F", bound=Callable[..., Any])


def observed(span: str | Callable[..., tuple[str, dict[str, Any]]],
             timer: str, category: str) -> Callable[[_F], _F]:
    """Trace and time each call of the decorated entry point.

    With observability off the wrapper calls the function directly.
    With it on, the call runs inside one tracer span of ``category``
    and records one sample of the timer ``timer``, read with
    :func:`repro.obs.timing.now`.  ``span`` is the span name, or a
    function of the call's arguments that returns the name and the
    span's args.
    """

    def decorate(fn: _F) -> _F:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not OBS.active:
                return fn(*args, **kwargs)
            if isinstance(span, str):
                name, span_args = span, {}
            else:
                name, span_args = span(*args, **kwargs)
            start = timing.now()
            with OBS.tracer.span(name, category, **span_args):
                result = fn(*args, **kwargs)
            if OBS.metrics.enabled:
                OBS.metrics.timer(timer).record(timing.now() - start)
            return result

        return wrapper  # type: ignore[return-value]

    return decorate


def count_ops(root: "Operation") -> int:
    """The number of operations under (and including) ``root``."""
    return sum(1 for _ in root.walk())
