"""Space out CPython's cyclic garbage collector while IR is built in bulk.

Building a module or a dialect allocates tens of thousands of container
objects that all stay alive, so the collections it triggers free
nothing, and each full one walks the whole heap.  A function decorated
with :func:`bulk_construction` runs with the young-generation threshold
raised to :data:`BULK_THRESHOLD`: collections still run, less often.
The collector is never paused or frozen, because daemon requests
overlap, a timed-out worker thread is abandoned, not stopped, and an
evicted dialect's objects must still be freed.

The threshold belongs to the process, so one count of open scopes is
shared by every thread: the first entry saves the thresholds, the last
exit restores them, also after an exception.  So a ``gc.set_threshold``
call made while a scope is open is undone at the last exit, and a
worker abandoned inside a scope keeps the threshold raised until it
returns.  A young threshold of 0 (automatic collection off) or one
already at or above :data:`BULK_THRESHOLD` is left as it is.
"""

from __future__ import annotations

import functools
import gc
import threading
from typing import Any, Callable, TypeVar

#: The young-generation threshold while any scope is open.
BULK_THRESHOLD = 10_000

_F = TypeVar("_F", bound=Callable[..., Any])

_lock = threading.Lock()
_depth = 0
_saved: tuple[int, ...] = ()


def bulk_construction(fn: _F) -> _F:
    """Run ``fn`` with the young collection threshold raised.

    Meant for entry points that build a whole module or dialect; a lock
    round trip and two threshold calls per call are too much for a
    per-op helper.
    """

    @functools.wraps(fn)
    def scoped(*args: Any, **kwargs: Any) -> Any:
        global _depth, _saved
        with _lock:
            if not _depth:
                _saved = gc.get_threshold()
                if 0 < _saved[0] < BULK_THRESHOLD:
                    gc.set_threshold(BULK_THRESHOLD, *_saved[1:])
            _depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with _lock:
                _depth -= 1
                if not _depth:
                    gc.set_threshold(*_saved)

    return scoped  # type: ignore[return-value]
