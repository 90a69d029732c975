"""Indexed binary min-heap with O(log n) removal by key.

The weighted reservoirs (GPS / GPS-A / WSD) need a min-priority queue
over sampled edges keyed by rank that also supports *deleting an
arbitrary edge* when a deletion event arrives (WSD Case 3). The standard
library ``heapq`` cannot remove by key without lazy tombstones, which
would violate the fixed-memory constraint, so this is a classic indexed
binary heap: a position map gives O(1) lookup and O(log n)
sift-up/sift-down removal.

Storage is a single list of ``(priority, key)`` pairs rather than two
parallel ``_keys`` / ``_priorities`` lists: every sift level moves one
tuple reference instead of two list entries, halving the list writes
per level on :meth:`replace_min` — the operation every full-reservoir
replacement (WSD Case 2.1) pays. (Measured on CPython 3.11 the halved
writes are offset by the tuple-element reads, landing within a few
percent of the parallel-list layout — see the ROADMAP perf notes; the
pair layout is kept for its simpler invariants and single-allocation
entries.) The sift loops use hole-percolation (shift parents/children
into the hole, write the moved element once at the end) rather than
pairwise swaps. Comparisons are always on the priority alone (never
tuple-vs-tuple, which would fall back to comparing keys on priority
ties and could raise ``TypeError`` for mixed key types).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator

__all__ = ["IndexedMinHeap"]


class IndexedMinHeap:
    """A binary min-heap of ``(priority, key)`` pairs indexed by key.

    Keys must be hashable and unique. Ties in priority are broken
    arbitrarily (heap order only guarantees the minimum).
    """

    __slots__ = ("_heap", "_position")

    def __init__(self) -> None:
        #: The heap array: ``(priority, key)`` pairs in heap order.
        self._heap: list[tuple[float, Hashable]] = []
        self._position: dict[Hashable, int] = {}

    # -- core helpers -------------------------------------------------------

    def _sift_up(self, i: int) -> None:
        heap, position = self._heap, self._position
        entry = heap[i]
        priority = entry[0]
        while i > 0:
            parent = (i - 1) >> 1
            parent_entry = heap[parent]
            if priority < parent_entry[0]:
                heap[i] = parent_entry
                position[parent_entry[1]] = i
                i = parent
            else:
                break
        heap[i] = entry
        position[entry[1]] = i

    def _sift_down(self, i: int) -> None:
        heap, position = self._heap, self._position
        n = len(heap)
        entry = heap[i]
        priority = entry[0]
        while True:
            child = 2 * i + 1
            if child >= n:
                break
            # Fetch each candidate entry once; compare on the priority
            # slot only (never whole tuples — a priority tie must not
            # fall back to comparing keys).
            child_entry = heap[child]
            child_priority = child_entry[0]
            right = child + 1
            if right < n:
                right_entry = heap[right]
                right_priority = right_entry[0]
                if right_priority < child_priority:
                    child = right
                    child_entry = right_entry
                    child_priority = right_priority
            if child_priority < priority:
                heap[i] = child_entry
                position[child_entry[1]] = i
                i = child
            else:
                break
        heap[i] = entry
        position[entry[1]] = i

    # -- public API ---------------------------------------------------------

    def push(self, key: Hashable, priority: float) -> None:
        """Insert ``key`` with ``priority``. Raises if the key exists."""
        if key in self._position:
            raise KeyError(f"key {key!r} already in heap")
        self._heap.append((priority, key))
        self._position[key] = len(self._heap) - 1
        self._sift_up(len(self._heap) - 1)

    def peek_min(self) -> tuple[Hashable, float]:
        """Return (key, priority) of the minimum without removing it."""
        if not self._heap:
            raise IndexError("peek on empty heap")
        priority, key = self._heap[0]
        return key, priority

    def min_priority(self) -> float:
        """Return the minimum priority without removing it."""
        if not self._heap:
            raise IndexError("peek on empty heap")
        return self._heap[0][0]

    def pop_min(self) -> tuple[Hashable, float]:
        """Remove and return (key, priority) of the minimum."""
        if not self._heap:
            raise IndexError("pop on empty heap")
        priority, key = self._heap[0]
        self._remove_at(0)
        return key, priority

    def replace_min(self, key: Hashable, priority: float) -> tuple[Hashable, float]:
        """Replace the minimum element with ``key`` in one sift.

        Returns the evicted ``(key, priority)``. Equivalent to
        ``pop_min()`` followed by ``push(key, priority)`` but does a
        single sift-down — the fast path for reservoir replacement.
        """
        if not self._heap:
            raise IndexError("replace_min on empty heap")
        if key in self._position:
            raise KeyError(f"key {key!r} already in heap")
        old_priority, old_key = self._heap[0]
        del self._position[old_key]
        self._heap[0] = (priority, key)
        self._position[key] = 0
        self._sift_down(0)
        return old_key, old_priority

    def remove(self, key: Hashable) -> float:
        """Remove ``key`` and return its priority. Raises KeyError if absent."""
        i = self._position.get(key)
        if i is None:
            raise KeyError(f"key {key!r} not in heap")
        priority = self._heap[i][0]
        self._remove_at(i)
        return priority

    def _remove_at(self, i: int) -> None:
        heap = self._heap
        last = len(heap) - 1
        del self._position[heap[i][1]]
        if i == last:
            heap.pop()
            return
        moved = heap.pop()
        heap[i] = moved
        self._position[moved[1]] = i
        # The moved element may need to go either direction.
        self._sift_down(i)
        self._sift_up(self._position[moved[1]])

    def priority(self, key: Hashable) -> float:
        """Return the priority of ``key``. Raises KeyError if absent."""
        i = self._position.get(key)
        if i is None:
            raise KeyError(f"key {key!r} not in heap")
        return self._heap[i][0]

    def update(self, key: Hashable, priority: float) -> None:
        """Change the priority of an existing key."""
        i = self._position.get(key)
        if i is None:
            raise KeyError(f"key {key!r} not in heap")
        old = self._heap[i][0]
        self._heap[i] = (priority, key)
        if priority < old:
            self._sift_up(i)
        else:
            self._sift_down(i)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._position

    def __len__(self) -> int:
        return len(self._heap)

    def __iter__(self) -> Iterator[Hashable]:
        """Iterate keys in arbitrary (heap-internal) order."""
        return iter([key for _, key in self._heap])

    def items(self) -> Iterator[tuple[Hashable, float]]:
        """Iterate (key, priority) pairs in arbitrary order."""
        return iter([(key, priority) for priority, key in self._heap])

    def entries(self) -> list[tuple[float, Hashable]]:
        """The ``(priority, key)`` pairs in heap-array order (a copy).

        Checkpoints store this order: :meth:`load` turns it back into
        the identical heap.
        """
        return list(self._heap)

    def load(self, entries: list[tuple[float, Hashable]]) -> None:
        """Replace the contents with ``(priority, key)`` pairs in heap order.

        The inverse of :meth:`entries`: O(n) assignment with no sifting,
        for checkpoint restore. The caller guarantees unique keys and
        the heap property. Both containers are refilled in place, since
        ingestion loops may hold references to them.
        """
        self._heap[:] = entries
        self._position.clear()
        self._position.update(
            (key, i) for i, (_, key) in enumerate(entries)
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"IndexedMinHeap(size={len(self)})"
