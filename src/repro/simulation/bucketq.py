"""Calendar (bucketed) event queue for the discrete-event kernel.

A flat binary heap pays ``O(log n)`` tuple comparisons per push/pop where
*n* is the number of *pending* events — on a 10,000-node cluster that heap
holds tens of thousands of timers and every kernel event grinds through
~15 tuple comparisons each way. :class:`BucketQueue` splits the timeline
into fixed-width buckets: entries go into a small per-bucket heap, and the
buckets themselves are ordered by a heap of plain integers (cheap
comparisons, one entry per *occupied* bucket). Pops drain the earliest
bucket; pushes land in an existing bucket most of the time.

Two properties make this safe as a drop-in replacement for the flat heap:

* **Identical total order.** Entries are ``(time, priority, eid, event)``
  with a unique ``eid``, so the pop order is a total order determined by
  the key alone — any correct priority queue yields byte-identical runs.
  The Hypothesis property test (``tests/test_bucket_queue.py``) checks
  observational equivalence against ``heapq`` directly.
* **Monotonic pushes.** The kernel only schedules at ``now + delay`` with
  ``delay >= 0``, so a push never lands in a bucket earlier than the one
  currently being drained. The bucket-order heap therefore never needs
  lazy deletion: a bucket index is pushed exactly once per occupancy
  episode and popped exactly when its bucket empties.

``cancel(eid)`` supports consumers that retire scheduled entries (the
heartbeat wheel suspends dead/drained nodes this way): cancelled entries
are skipped lazily at pop time, costing one set lookup per pop only while
cancellations are outstanding.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heappop, heappush
from typing import Any, Optional

#: Entries are (time, priority, eid, payload) — compared left-to-right,
#: and eid is unique, so the payload never participates in a comparison.
Entry = Any

#: Times at or beyond this horizon (including ``inf``) share one overflow
#: bucket — ``int(inf // width)`` would raise, and entries that far out are
#: ordered correctly by the in-bucket heap anyway.
FAR_HORIZON = 1e18


class BucketQueue:
    """Min-queue over ``(time, priority, eid, payload)`` entries.

    ``width`` is the bucket span in simulated seconds. The default (0.25s)
    keeps per-bucket heaps shallow for heartbeat/RPC-dominated workloads;
    correctness does not depend on it, only constant factors do.
    """

    __slots__ = ("_width", "_buckets", "_order", "_len", "_cancelled")

    def __init__(self, width: float = 0.25) -> None:
        if width <= 0:
            raise ValueError(f"bucket width must be positive, got {width}")
        self._width = width
        self._buckets: dict[int, list[Entry]] = {}
        self._order: list[int] = []
        self._len = 0
        self._cancelled: set[int] = set()

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    @property
    def width(self) -> float:
        return self._width

    def push(self, entry: Entry) -> None:
        when = entry[0]
        if when < FAR_HORIZON:
            idx = int(when // self._width)
        else:
            idx = int(FAR_HORIZON // self._width) + 1
        bucket = self._buckets.get(idx)
        if bucket is None:
            self._buckets[idx] = [entry]
            heappush(self._order, idx)
        else:
            heappush(bucket, entry)
        self._len += 1

    def load(self, entries: list[Entry]) -> None:
        """Fill an empty queue with ``entries``, already sorted by key.

        A sorted run is a valid heap, so each bucket takes its run of
        entries as is and the bucket order is the sorted run of indices:
        O(occupied buckets × log n) Python work instead of one ``push``
        per entry.
        """
        if self._len:
            raise ValueError("load() needs an empty queue")
        width = self._width

        def bucket_of(entry: Entry) -> int:  # the rule push() inlines
            when = entry[0]
            if when < FAR_HORIZON:
                return int(when // width)
            return int(FAR_HORIZON // width) + 1

        start = 0
        while start < len(entries):
            idx = bucket_of(entries[start])
            end = bisect_right(entries, idx, lo=start, key=bucket_of)
            self._buckets[idx] = entries[start:end]
            self._order.append(idx)
            start = end
        self._len = len(entries)

    def pop(self) -> Entry:
        """Remove and return the smallest live entry.

        Raises :class:`IndexError` when empty, like ``heappop``.
        """
        cancelled = self._cancelled
        while True:
            entry = self._pop_any()
            if not cancelled or entry[2] not in cancelled:
                return entry
            cancelled.discard(entry[2])

    def _pop_any(self) -> Entry:
        if not self._len:
            raise IndexError("pop from an empty BucketQueue")
        idx = self._order[0]
        bucket = self._buckets[idx]
        entry = heappop(bucket)
        if not bucket:
            heappop(self._order)
            del self._buckets[idx]
        self._len -= 1
        return entry

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live entry, or ``None`` when empty."""
        cancelled = self._cancelled
        while self._len:
            idx = self._order[0]
            entry = self._buckets[idx][0]
            if not cancelled or entry[2] not in cancelled:
                return entry[0]
            self._pop_any()
            cancelled.discard(entry[2])
        return None

    def stats(self) -> dict[str, int]:
        """Occupancy snapshot for the telemetry/bench kernel gauges.

        ``pending`` counts live + cancelled-but-unpopped entries (what the
        queue physically holds); ``occupied_buckets``/``max_bucket_depth``
        describe how they spread across the calendar — a ballooning depth
        means the bucket width no longer matches the workload's timer
        horizon; ``cancelled_outstanding`` is the lazy-tombstone backlog.
        """
        return {
            "pending": self._len,
            "occupied_buckets": self.occupied_buckets,
            "max_bucket_depth": self.max_bucket_depth(),
            "cancelled_outstanding": self.cancelled_outstanding,
        }

    @property
    def occupied_buckets(self) -> int:
        return len(self._buckets)

    @property
    def cancelled_outstanding(self) -> int:
        return len(self._cancelled)

    def max_bucket_depth(self) -> int:
        """Deepest bucket; the one statistic that walks every bucket."""
        return max((len(b) for b in self._buckets.values()), default=0)

    def cancel(self, eid: int) -> None:
        """Retire the entry with ``eid`` (skipped lazily at pop time).

        The entry still occupies queue space until its turn comes up, but
        it is never returned. Cancelling an unknown/already-popped eid is
        a silent no-op — callers cancel by token without tracking whether
        the entry already fired.
        """
        self._cancelled.add(eid)
