"""``repro.obs``: tracing, metrics, and pass-timing instrumentation.

The paper's pitch (§3) is dialect definitions as *data* from which
tooling is derived; this package makes the derived pipeline itself
observable.  Three cooperating pieces:

* :mod:`repro.obs.metrics` — named counters/timers/histograms in a
  :class:`MetricsRegistry`, with a zero-overhead no-op mode;
* :mod:`repro.obs.tracing` — a :class:`Tracer` emitting Chrome
  trace-event JSON (load the file in ``chrome://tracing`` or Perfetto);
* :mod:`repro.obs.report` — text renderers for the MLIR-style
  ``--timing`` and ``--pass-statistics`` reports plus a metric catalog.

The pipeline layers (textir lexer/parser, IRDL instantiation and
verifiers, the greedy rewrite driver, the pass manager) consult the
process-wide :data:`OBS` switchboard; ``irdl-opt`` exposes it via
``--timing``, ``--pass-statistics``, ``--trace-out`` and ``--metrics``.
"""

from repro.obs.instrument import (
    OBS,
    Observability,
    count_ops,
    disable_metrics,
    dump_recent_events,
    enable_metrics,
    install_remarks,
    install_tracer,
    observed,
    recent_events,
    reset,
    uninstall_remarks,
    uninstall_tracer,
)
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    MetricsScope,
    Timer,
)
from repro.obs.report import (
    render_metrics,
    render_pass_statistics,
    render_timing_report,
)
from repro.obs.remarks import (
    NULL_REMARKS,
    NullRemarkEngine,
    Remark,
    RemarkEngine,
)
from repro.obs.ring import EventRing
from repro.obs.timing import PassRunRecord
from repro.obs.tracing import NullTracer, Tracer

__all__ = [
    "OBS",
    "Observability",
    "Counter",
    "Timer",
    "Histogram",
    "MetricsRegistry",
    "MetricsScope",
    "Tracer",
    "NullTracer",
    "Remark",
    "RemarkEngine",
    "NullRemarkEngine",
    "NULL_REMARKS",
    "EventRing",
    "PassRunRecord",
    "count_ops",
    "enable_metrics",
    "disable_metrics",
    "install_tracer",
    "uninstall_tracer",
    "install_remarks",
    "uninstall_remarks",
    "recent_events",
    "dump_recent_events",
    "observed",
    "reset",
    "render_metrics",
    "render_pass_statistics",
    "render_timing_report",
]
