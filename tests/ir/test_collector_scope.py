"""The collector scope around bulk IR construction.

``parse_module``, ``decode_module``, ``Operation.clone`` and
``register_dialect`` run with CPython's young-generation threshold
raised to ``BULK_THRESHOLD``.  Open scopes are counted across threads,
the last exit restores the caller's thresholds (also after an
exception), and the collector keeps running inside a scope: it is spaced
out, never paused.
"""

import contextlib
import gc
import threading
import weakref

import pytest

from repro.builtin import default_context
from repro.bytecode import BytecodeError, decode_module, encode_module
from repro.bytecode import decoder
from repro.ir import Operation
from repro.irdl import instantiate
from repro.irdl.parser import parse_irdl
from repro.textir.parser import IRParser, parse_module
from repro.utils import DiagnosticError
from repro.utils.collector import BULK_THRESHOLD, bulk_construction

#: The caller's thresholds; the older two differ from CPython's
#: defaults, so a restore of anything else shows.
CALLER = (700, 11, 12)
RAISED = (BULK_THRESHOLD, 11, 12)
TIMEOUT = 30

TEXT = """
%a = "t.a"() : () -> i32
"t.b"(%a) ({
  "t.c"(%a) : (i32) -> ()
}) : (i32) -> ()
"""
DIALECT = "Dialect scoped { Operation op { Operands (x: !i32) } }"


@pytest.fixture(autouse=True)
def thresholds():
    saved = gc.get_threshold()
    gc.set_threshold(*CALLER)
    try:
        yield
    finally:
        gc.set_threshold(*saved)


def thresholds_seen(monkeypatch, owner, name) -> list:
    """The thresholds in force at each call of ``owner.name``, which the
    entry point under test calls inside its scope."""
    seen = []
    inner = getattr(owner, name)

    def spy(*args, **kwargs):
        seen.append(gc.get_threshold())
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return seen


def unregistered_module():
    context = default_context(allow_unregistered=True)
    return context, parse_module(context, TEXT)


#: entry point -> (owner and name of a call it makes inside its scope,
#: the call of the entry point).
ENTRY_POINTS = {
    "parse_module": (
        IRParser, "parse_module",
        lambda context, module: parse_module(context, TEXT),
    ),
    "decode_module": (
        decoder, "_read_sections",
        lambda context, module: decode_module(context,
                                              encode_module(module)),
    ),
    "Operation.clone": (
        Operation, "_copy", lambda context, module: module.clone(),
    ),
    "register_dialect": (
        instantiate, "resolve_dialect_body",
        lambda context, module: instantiate.register_dialect(
            context, parse_irdl(DIALECT)[0]
        ),
    ),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_each_entry_point_runs_with_the_threshold_raised(entry, monkeypatch):
    owner, name, call = ENTRY_POINTS[entry]
    context, module = unregistered_module()
    seen = thresholds_seen(monkeypatch, owner, name)
    assert call(context, module) is not None
    assert seen and set(seen) == {RAISED}
    assert gc.get_threshold() == CALLER


def corrupt_decode(context, module):
    data = encode_module(module)
    decode_module(context, data[: len(data) // 2])


@pytest.mark.parametrize("owner, name, call, error", [
    (IRParser, "parse_module",
     lambda context, module: parse_module(context, '"t.a"(%undefined)'),
     DiagnosticError),
    (decoder, "_read_sections", corrupt_decode, BytecodeError),
], ids=["parse_module", "decode_module"])
def test_an_exception_inside_restores_the_thresholds(owner, name, call, error,
                                                     monkeypatch):
    context, module = unregistered_module()
    seen = thresholds_seen(monkeypatch, owner, name)
    with pytest.raises(error):
        call(context, module)
    assert seen == [RAISED]
    assert gc.get_threshold() == CALLER


def test_nested_scopes_restore_at_the_last_exit():
    seen = []

    @bulk_construction
    def inner():
        seen.append(gc.get_threshold())

    @bulk_construction
    def outer():
        inner()
        seen.append(gc.get_threshold())

    outer()
    assert seen == [RAISED, RAISED]
    assert gc.get_threshold() == CALLER


@pytest.mark.parametrize("young", [0, 50_000])
def test_a_threshold_off_or_above_the_bulk_one_is_left_alone(young,
                                                            monkeypatch):
    gc.set_threshold(young, 11, 12)
    seen = thresholds_seen(monkeypatch, IRParser, "parse_module")
    parse_module(default_context(allow_unregistered=True), TEXT)
    assert seen == [(young, 11, 12)]
    assert gc.get_threshold() == (young, 11, 12)


@contextlib.contextmanager
def two_held_parses(monkeypatch):
    """Two ``parse_module`` calls on threads of their own, each held
    inside its scope until its event is set, as the daemon's worker
    threads hold overlapping requests.  Yields the events and the
    threads once both are inside."""
    inside = threading.Barrier(3, timeout=TIMEOUT)
    release = {"first": threading.Event(), "second": threading.Event()}
    parse = IRParser.parse_module
    parsed = []

    def held(self):
        inside.wait()
        if not release[self.source.name].wait(TIMEOUT):
            raise TimeoutError(self.source.name)
        return parse(self)

    def run(name):
        context = default_context(allow_unregistered=True)
        parsed.append(parse_module(context, TEXT, name))

    monkeypatch.setattr(IRParser, "parse_module", held)
    threads = {
        name: threading.Thread(target=run, args=(name,), daemon=True)
        for name in release
    }
    for thread in threads.values():
        thread.start()
    try:
        inside.wait()
        yield release, threads
    finally:
        for event in release.values():
            event.set()
        for thread in threads.values():
            thread.join(TIMEOUT)
    assert not any(thread.is_alive() for thread in threads.values())
    assert len(parsed) == 2


def finish(release, threads, name):
    release[name].set()
    threads[name].join(TIMEOUT)
    assert not threads[name].is_alive()


def test_overlapping_scopes_on_two_threads_restore_at_the_last_exit(
        monkeypatch):
    with two_held_parses(monkeypatch) as (release, threads):
        assert gc.get_threshold() == RAISED
        finish(release, threads, "first")
        assert gc.get_threshold() == RAISED
        finish(release, threads, "second")
        assert gc.get_threshold() == CALLER


class Node:
    pass


def garbage_cycle() -> weakref.ref:
    node = Node()
    node.self = node
    return weakref.ref(node)


def test_the_collector_still_runs_inside_overlapping_scopes(monkeypatch):
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    with two_held_parses(monkeypatch):
        gc.callbacks.append(count)
        try:
            ref = garbage_cycle()
            junk = []
            # Tracked allocations alone, without gc.collect(), reclaim
            # the cycle: young collections still run, only spaced out.
            while ref() is not None and len(junk) < 20 * BULK_THRESHOLD:
                junk.append([])
        finally:
            gc.callbacks.remove(count)
        assert ref() is None
        assert gc.get_threshold() == RAISED
    assert 0 < len(collections) <= len(junk) // BULK_THRESHOLD + 2
