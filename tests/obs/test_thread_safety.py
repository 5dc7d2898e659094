"""Thread-safety regression tests for the shared process-wide state.

The dialect server runs handler work on a thread pool, so the pieces
every tenant shares — the attribute uniquer, the metrics instruments,
the event ring and the verifier's constraint memo — must tolerate
concurrent mutation.  These tests hammer each from many worker threads
and assert *exact* outcomes (counts, identities, gap-free sequence
numbers), which lost updates would violate with overwhelming
probability.
"""

import sys
import threading
from collections import OrderedDict

from repro.builtin.attributes import IntegerAttr
from repro.builtin.types import IntegerType, i32
from repro.ir.uniquer import AttributeUniquer
from repro.irdl.constraints import AnyTypeConstraint
from repro.irdl.plan import ConstraintMemo
from repro.obs.metrics import MetricsRegistry
from repro.obs.ring import EventRing

THREADS = 8
ROUNDS = 200
#: Seconds each worker thread may take before the test fails.
JOIN_TIMEOUT = 60


def hammer(worker):
    """Run ``worker(index)`` on THREADS threads behind a start barrier."""
    barrier = threading.Barrier(THREADS)
    errors = []

    def wrapped(index):
        try:
            barrier.wait()
            worker(index)
        except Exception as err:  # pragma: no cover — failure path
            errors.append(err)

    threads = [threading.Thread(target=wrapped, args=(i,))
               for i in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOIN_TIMEOUT)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors


class TestAttributeUniquer:
    def test_concurrent_interning_agrees_on_one_canonical(self):
        uniquer = AttributeUniquer()
        results = [[] for _ in range(THREADS)]
        # Hold strong references so the weak-value cache can't evict
        # mid-test.
        attrs = [[IntegerAttr(value, IntegerType(32))
                  for value in range(ROUNDS)]
                 for _ in range(THREADS)]

        def worker(index):
            for attr in attrs[index]:
                results[index].append(uniquer.intern(attr))

        hammer(worker)
        for value in range(ROUNDS):
            canonical = {id(results[index][value])
                         for index in range(THREADS)}
            assert len(canonical) == 1, (
                f"value {value}: threads disagree on the canonical attr"
            )
        # Exactly one miss per distinct key; every other intern is a hit.
        assert uniquer.misses == ROUNDS
        assert uniquer.hits == (THREADS - 1) * ROUNDS

    def test_concurrent_clear_does_not_corrupt(self):
        uniquer = AttributeUniquer()
        keep = [IntegerAttr(v, IntegerType(32)) for v in range(64)]

        def worker(index):
            if index == 0:
                for _ in range(ROUNDS):
                    uniquer.clear()
            else:
                for _ in range(ROUNDS):
                    for attr in keep:
                        uniquer.intern(attr)

        hammer(worker)
        # No exact counts after clears — but the cache must still be
        # coherent: interning now returns a canonical instance.
        a = uniquer.intern(IntegerAttr(1, IntegerType(32)))
        b = uniquer.intern(IntegerAttr(1, IntegerType(32)))
        assert a is b


class TestMetrics:
    def test_counter_increments_are_exact(self):
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("hammered")

        def worker(index):
            for _ in range(ROUNDS):
                counter.inc()

        hammer(worker)
        assert counter.value == THREADS * ROUNDS

    def test_instrument_creation_race_yields_one_instrument(self):
        registry = MetricsRegistry(enabled=True)
        seen = [[] for _ in range(THREADS)]

        def worker(index):
            for round_ in range(ROUNDS):
                seen[index].append(registry.counter(f"c{round_}"))
                registry.counter(f"c{round_}").inc()

        hammer(worker)
        for round_ in range(ROUNDS):
            identities = {id(seen[index][round_])
                          for index in range(THREADS)}
            assert len(identities) == 1
            assert registry.counter(f"c{round_}").value == THREADS

    def test_histogram_observations_are_exact(self):
        registry = MetricsRegistry(enabled=True)
        histogram = registry.histogram("latency")

        def worker(index):
            for value in range(ROUNDS):
                histogram.observe(float(value))

        hammer(worker)
        snapshot = registry.snapshot()["histograms"]["latency"]
        assert snapshot["count"] == THREADS * ROUNDS

    def test_timer_records_are_exact(self):
        registry = MetricsRegistry(enabled=True)
        timer = registry.timer("work")

        def worker(index):
            for _ in range(ROUNDS):
                timer.record(0.001)

        hammer(worker)
        assert timer.count == THREADS * ROUNDS
        assert abs(timer.total - 0.001 * THREADS * ROUNDS) < 1e-6


class TestEventRing:
    def test_sequence_numbers_are_gap_free_and_total_exact(self):
        ring = EventRing(capacity=THREADS * ROUNDS)

        def worker(index):
            for round_ in range(ROUNDS):
                ring.push("hammer", thread=index, round=round_)

        hammer(worker)
        events = ring.snapshot()
        assert ring.total_pushed == THREADS * ROUNDS
        assert len(events) == THREADS * ROUNDS
        seqs = [event["seq"] for event in events]
        assert seqs == list(range(1, THREADS * ROUNDS + 1)), (
            "sequence numbers must be unique and gap-free"
        )

    def test_bounded_ring_never_exceeds_capacity(self):
        ring = EventRing(capacity=32)

        def worker(index):
            for round_ in range(ROUNDS):
                ring.push("hammer", thread=index)
                assert len(ring) <= 32

        hammer(worker)
        assert len(ring) == 32
        assert ring.total_pushed == THREADS * ROUNDS
        # The survivors are the *latest* events, still in order.
        seqs = [event["seq"] for event in ring.snapshot()]
        expected_first = THREADS * ROUNDS - 32 + 1
        assert seqs == list(range(expected_first, THREADS * ROUNDS + 1))

    def test_snapshot_during_pushes_is_consistent(self):
        ring = EventRing(capacity=64)

        def worker(index):
            if index == 0:
                for _ in range(ROUNDS):
                    events = ring.snapshot()
                    seqs = [event["seq"] for event in events]
                    assert seqs == sorted(seqs)
                    assert len(seqs) == len(set(seqs))
            else:
                for round_ in range(ROUNDS):
                    ring.push("hammer", thread=index, round=round_)

        hammer(worker)


class TestConstraintMemo:
    """``ConstraintMemo.hit`` reads an entry and then moves it to the
    recent end; another thread's ``record`` can evict it in between."""

    def test_hit_survives_an_eviction_before_its_reorder(self):
        class EvictingEntries(OrderedDict):
            # Drops the key first, as another thread's record does when
            # it evicts the entry between hit's read and its reorder.
            def move_to_end(self, key, last=True):
                del self[key]
                super().move_to_end(key, last)

        memo = ConstraintMemo(maxsize=4)
        memo._entries = EvictingEntries()
        constraint = AnyTypeConstraint()
        memo.record(constraint, i32)
        assert memo.hit(constraint, i32)
        assert memo.hits == 1 and len(memo) == 0

    def test_concurrent_hits_and_records_on_a_full_memo(self):
        memo = ConstraintMemo(maxsize=64)
        constraint = AnyTypeConstraint()
        # More values than the memo holds, so records keep evicting
        # entries that other threads are hitting.
        values = [object() for _ in range(70)]

        def worker(index):
            for step in range(40_000):
                value = values[(step * 7 + index) % len(values)]
                if not memo.hit(constraint, value):
                    memo.record(constraint, value)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            hammer(worker)
        finally:
            sys.setswitchinterval(interval)
        assert 0 < len(memo) <= memo.maxsize
        assert memo.hits > 0
