"""The analysis cache: compute once, invalidate on mutation.

An *analysis* is any callable mapping one IR object (a region, an
operation, …) to an immutable result — :class:`~repro.ir.dominance.
DominanceInfo`, :class:`~repro.analysis.dataflow.liveness.Liveness`,
or a bound :func:`~repro.analysis.dataflow.lattice.run_sparse_forward`.
The manager memoizes ``analysis(key)`` per *object identity* and owns
the invalidation story:

* :meth:`invalidate` drops every analysis of one key;
* :meth:`invalidate_scope` drops the key **and its enclosing chain** —
  the containing blocks, regions, and operations up to the root — which
  is the contract mutation sites use: editing ops inside one region
  cannot change a *sibling* region's CFG, so siblings stay cached;
* :meth:`invalidate_all` is the coarse hook pass boundaries use.

Keys are held strongly while cached (a dropped-and-collected region
must not alias a new region's ``id``), and every hit/miss/invalidation
is visible as ``analysis.dataflow.*`` metrics.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

from repro.obs.instrument import OBS


def _enclosing_chain(key: Any):
    """The IR objects whose analyses a mutation under ``key`` can stale.

    Yields ``key`` itself, then alternating block/region/operation
    ancestors until the chain leaves the IR tree.  Works for operations
    (``parent`` is a block), blocks (``parent`` is a region), and
    regions (``parent`` is an operation); other keys yield only
    themselves.
    """
    seen: set[int] = set()
    current = key
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        yield current
        current = getattr(current, "parent", None)


class AnalysisManager:
    """Memoizes analysis results per ``(analysis, IR object)`` pair."""

    def __init__(self) -> None:
        #: ``(analysis, id(key)) -> (key, result)``; the key reference
        #: keeps ``id`` stable for the life of the entry.
        self._cache: dict[tuple[Hashable, int], tuple[Any, Any]] = {}
        #: ``id(key) -> cache keys`` reverse index for invalidation.
        self._by_key: dict[int, set[tuple[Hashable, int]]] = {}

    # -- queries -------------------------------------------------------

    def get(self, analysis: Callable[[Any], Any], key: Any) -> Any:
        """The cached ``analysis(key)``, computing on first use."""
        slot = (analysis, id(key))
        entry = self._cache.get(slot)
        if entry is not None and entry[0] is key:
            if OBS.metrics.enabled:
                OBS.metrics.counter("analysis.dataflow.cache_hits").inc()
            return entry[1]
        if OBS.metrics.enabled:
            OBS.metrics.counter("analysis.dataflow.computes").inc()
        result = analysis(key)
        self._cache[slot] = (key, result)
        self._by_key.setdefault(id(key), set()).add(slot)
        return result

    def cached(self, analysis: Callable[[Any], Any], key: Any) -> Any | None:
        """The cached result, or ``None`` without computing."""
        entry = self._cache.get((analysis, id(key)))
        return entry[1] if entry is not None and entry[0] is key else None

    def dominance(self, region: Any):
        """The cached :class:`~repro.ir.dominance.DominanceInfo`."""
        from repro.ir.dominance import DominanceInfo

        return self.get(DominanceInfo, region)

    def liveness(self, region: Any):
        """The cached :class:`~repro.analysis.dataflow.liveness.Liveness`."""
        from repro.analysis.dataflow.liveness import Liveness

        return self.get(Liveness, region)

    # -- invalidation --------------------------------------------------

    def invalidate(self, key: Any) -> int:
        """Drop every analysis of ``key``; returns the entries dropped."""
        slots = self._by_key.pop(id(key), None)
        if not slots:
            return 0
        dropped = 0
        for slot in slots:
            if self._cache.pop(slot, None) is not None:
                dropped += 1
        if dropped and OBS.metrics.enabled:
            OBS.metrics.counter("analysis.dataflow.invalidations").inc(dropped)
        return dropped

    def invalidate_scope(self, key: Any) -> int:
        """Drop analyses of ``key`` and of every enclosing IR object.

        This is the mutation hook: after editing IR under ``key``, the
        analyses of the containing region chain may be stale, while
        sibling scopes (other regions of an ancestor op) are not.
        """
        if not self._cache:
            return 0
        dropped = 0
        for scope in _enclosing_chain(key):
            dropped += self.invalidate(scope)
        return dropped

    def invalidate_all(self) -> int:
        """Drop the whole cache (the pass-boundary hook)."""
        dropped = len(self._cache)
        self._cache.clear()
        self._by_key.clear()
        if dropped and OBS.metrics.enabled:
            OBS.metrics.counter("analysis.dataflow.invalidations").inc(dropped)
        return dropped

    def __len__(self) -> int:
        return len(self._cache)

    def __repr__(self) -> str:
        return f"<AnalysisManager {len(self._cache)} cached result(s)>"
