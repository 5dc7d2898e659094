"""An LRU of hot compiled dialects, keyed by payload hash.

Compiling a dialect — parse/decode, resolve, parameter verifiers and
format programs — is the expensive part of ``register_dialect``; its op
verifiers are lowered on first use, once for every tenant sharing it.
The server sees the same dialect payload from many tenants, so the
:class:`DialectCache` compiles each distinct payload once (in a scratch
context) and hands every later registration the *same*
:class:`~repro.ir.dialect.DialectBinding` objects.  Bindings change
after compilation only when an op verifier is lowered, under a lock,
and intern their attributes through the process-wide uniquer, so
sharing them across tenant contexts is safe; installing a shared
binding into a tenant is a dictionary insert.

The key is the SHA-256 of the raw payload bytes — textual IRDL and
IRBC bytecode of the same dialect hash differently, which is the
conservative choice: a hit guarantees the bytes were seen before.
Entries evict in least-recently-used order once ``capacity`` is
exceeded.  All public methods are thread-safe; the server's worker
threads share one cache.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.ir.dialect import DialectBinding
    from repro.irdl.defs import DialectDef
    from repro.obs.metrics import MetricsScope

#: Default number of distinct compiled payloads kept hot.
DEFAULT_CAPACITY = 64


@dataclass(frozen=True)
class CompiledDialects:
    """One compiled payload: the shared bindings plus their definitions."""

    key: str
    names: tuple[str, ...]
    bindings: tuple["DialectBinding", ...]
    defs: tuple["DialectDef", ...]
    source_kind: str  # "text" | "bytecode"
    compile_seconds: float
    #: Monotonic generation stamp (hot-reload debugging aid).
    generation: int = field(default=0, compare=False)


def payload_key(data: bytes) -> str:
    """The cache key of a raw dialect payload."""
    return hashlib.sha256(data).hexdigest()


class DialectCache:
    """Compile-once storage for dialect payloads, with LRU eviction."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 metrics: "MetricsScope | None" = None):
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, CompiledDialects]" = OrderedDict()
        self._lock = threading.Lock()
        self._metrics = metrics
        self._generation = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list[str]:
        """Cache keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def get_or_compile(self, data: bytes,
                       name: str = "<irdl>") -> tuple[CompiledDialects, bool]:
        """The compiled form of ``data``, compiling on first sight.

        Returns ``(compiled, hit)``.  Compilation runs outside the
        cache lock — two threads racing on the same new payload may
        both compile, and the first to publish wins (the loser's result
        is discarded in favour of the canonical entry, preserving the
        "same hash → identical bindings" guarantee).
        """
        key = payload_key(data)
        entry = self._hit(key)
        if entry is not None:
            return entry, True
        compiled = self._compile(key, data, name)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                # Lost the compile race: adopt the published entry.
                self._entries.move_to_end(key)
                self.hits += 1
                self._count("hits")
                return entry, True
            self.misses += 1
            self._count("misses")
            self._entries[key] = compiled
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                self._count("evictions")
        return compiled, False

    def lookup(self, data: bytes) -> CompiledDialects | None:
        """The compiled form of ``data`` when it is cached (a hit), else
        None; never compiles."""
        return self._hit(payload_key(data))

    def _hit(self, key: str) -> CompiledDialects | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                self._count("hits")
            return entry

    def invalidate(self, data: bytes) -> bool:
        """Drop the entry for ``data``; True when one was cached."""
        key = payload_key(data)
        with self._lock:
            return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def _compile(self, key: str, data: bytes, name: str) -> CompiledDialects:
        """Compile a payload in a scratch context.

        The scratch context is a fresh default context, so payloads may
        reference builtin/native types freely; dialects that reference
        *each other* must travel in one payload (they register into the
        same scratch context in declaration order).
        """
        from repro.builtin import default_context
        from repro.bytecode import is_bytecode
        from repro.irdl.instantiate import read_dialects, register_dialect

        start = time.perf_counter()
        decls = read_dialects(data, name)
        scratch = default_context()
        defs = [register_dialect(scratch, decl) for decl in decls]
        bindings = tuple(scratch.dialects[decl.name] for decl in decls)
        elapsed = time.perf_counter() - start
        with self._lock:
            self._generation += 1
            generation = self._generation
        if self._metrics is not None and self._metrics.enabled:
            self._metrics.histogram("compile_seconds").observe(elapsed)
        return CompiledDialects(
            key=key,
            names=tuple(decl.name for decl in decls),
            bindings=bindings,
            defs=tuple(defs),
            source_kind="bytecode" if is_bytecode(data) else "text",
            compile_seconds=elapsed,
            generation=generation,
        )

    def _count(self, which: str) -> None:
        if self._metrics is not None and self._metrics.enabled:
            self._metrics.counter(which).inc()

    def stats(self) -> dict[str, Any]:
        with self._lock:
            live = len(self._entries)
        total = self.hits + self.misses
        return {
            "capacity": self.capacity,
            "live": live,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_ratio": (self.hits / total) if total else 0.0,
        }

    def __repr__(self) -> str:
        return (f"<DialectCache {len(self)}/{self.capacity} live, "
                f"{self.hits} hits / {self.misses} misses>")
