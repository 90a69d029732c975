"""Edge-event streams: the fully dynamic graph stream model of Section II.

A stream S = {s(1), s(2), ...} is a sequence of :class:`EdgeEvent`
values, each inserting (``op = +``) or deleting (``op = -``) one edge.
:class:`EdgeStream` is an immutable container with (de)serialisation to
a simple one-event-per-line text format::

    + 12 57
    - 12 57

:class:`EventBlock` is the columnar twin of :class:`EdgeStream`: the
same events as a struct of numpy arrays (``is_insert``, ``u``, ``v``),
which is what the samplers' batched fast loops and the process
executor's shared-memory transport consume. Blocks carry int64 vertex
labels only — streams with other label types stay on the
:class:`EdgeEvent` path.
"""

from __future__ import annotations

import io
import struct
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError, StreamFormatError
from repro.graph.edges import Edge, Vertex, canonical_edge

__all__ = [
    "INSERT",
    "DELETE",
    "EdgeEvent",
    "EdgeStream",
    "EventBlock",
    "checkpoint_positions",
    "checkpoint_segments",
    "iter_stream_file",
]

INSERT = "+"
DELETE = "-"
_OPS = frozenset({INSERT, DELETE})


@dataclass(frozen=True, slots=True)
class EdgeEvent:
    """One stream element s(t) = (op, e_t).

    ``op`` is ``"+"`` (insertion) or ``"-"`` (deletion); ``edge`` is the
    canonical undirected edge.
    """

    op: str
    edge: Edge

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"op must be '+' or '-', got {self.op!r}")
        object.__setattr__(self, "edge", canonical_edge(*self.edge))

    @property
    def is_insertion(self) -> bool:
        return self.op == INSERT

    @property
    def is_deletion(self) -> bool:
        return self.op == DELETE

    @classmethod
    def insertion(cls, u: Vertex, v: Vertex) -> "EdgeEvent":
        """Construct an insertion event for edge ``{u, v}``."""
        return cls(INSERT, (u, v))

    @classmethod
    def deletion(cls, u: Vertex, v: Vertex) -> "EdgeEvent":
        """Construct a deletion event for edge ``{u, v}``."""
        return cls(DELETE, (u, v))


class EdgeStream(Sequence[EdgeEvent]):
    """An immutable sequence of edge events.

    Supports ``len``, indexing, slicing (returns a new
    :class:`EdgeStream`), iteration, equality, and round-trip text
    (de)serialisation.
    """

    def __init__(self, events: Iterable[EdgeEvent]) -> None:
        self._events: tuple[EdgeEvent, ...] = tuple(events)

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[EdgeEvent]:
        return iter(self._events)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return EdgeStream(self._events[index])
        return self._events[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeStream):
            return NotImplemented
        return self._events == other._events

    def __hash__(self) -> int:
        return hash(self._events)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"EdgeStream(events={len(self)}, insertions={self.num_insertions},"
            f" deletions={self.num_deletions})"
        )

    # -- statistics --------------------------------------------------------

    @property
    def num_insertions(self) -> int:
        """|A|: number of insertion events."""
        return sum(1 for e in self._events if e.is_insertion)

    @property
    def num_deletions(self) -> int:
        """|D|: number of deletion events."""
        return len(self._events) - self.num_insertions

    def final_edge_count(self) -> int:
        """Number of edges alive after the whole stream is applied."""
        return self.num_insertions - self.num_deletions

    def distinct_edges(self) -> set[Edge]:
        """Set of edges that appear in at least one event."""
        return {e.edge for e in self._events}

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[Vertex, Vertex]]) -> "EdgeStream":
        """Build an insertion-only stream from an edge sequence."""
        return cls(EdgeEvent.insertion(u, v) for u, v in edges)

    def concat(self, other: "EdgeStream") -> "EdgeStream":
        """Return the concatenation of this stream and ``other``."""
        return EdgeStream(self._events + tuple(other))

    # -- text (de)serialisation ---------------------------------------------

    def dumps(self) -> str:
        """Serialise to the one-event-per-line text format."""
        out = io.StringIO()
        for event in self._events:
            u, v = event.edge
            out.write(f"{event.op} {u} {v}\n")
        return out.getvalue()

    def dump(self, path: str | Path) -> None:
        """Write the text serialisation to ``path``."""
        Path(path).write_text(self.dumps(), encoding="utf-8")

    @classmethod
    def loads(cls, text: str, vertex_type: type = int) -> "EdgeStream":
        """Parse the text format produced by :meth:`dumps`.

        Vertex tokens are converted with ``vertex_type`` (default
        ``int``). Blank lines and lines starting with ``#`` are skipped.
        """
        events = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3 or parts[0] not in _OPS:
                raise StreamFormatError(
                    f"line {lineno}: expected '<op> <u> <v>', got {raw!r}"
                )
            try:
                u = vertex_type(parts[1])
                v = vertex_type(parts[2])
            except (TypeError, ValueError) as exc:
                raise StreamFormatError(
                    f"line {lineno}: bad vertex token in {raw!r}"
                ) from exc
            events.append(EdgeEvent(parts[0], (u, v)))
        return cls(events)

    @classmethod
    def load(cls, path: str | Path, vertex_type: type = int) -> "EdgeStream":
        """Read the text format from ``path``."""
        return cls.loads(Path(path).read_text(encoding="utf-8"), vertex_type)

    def to_block(self) -> "EventBlock":
        """Columnar view of this stream (int vertex labels required)."""
        return EventBlock.from_events(self._events)


def checkpoint_positions(
    num_events: int, num_checkpoints: int
) -> tuple[int, ...]:
    """The 1-based event counts at which a checkpointed run reads out.

    Every ``max(1, num_events // num_checkpoints)``-th event, plus the
    last event when that step does not land on it.
    """
    if num_checkpoints < 1:
        raise ConfigurationError("num_checkpoints must be >= 1")
    step = max(1, num_events // num_checkpoints)
    positions = list(range(step, num_events + 1, step))
    if positions and positions[-1] != num_events:
        positions.append(num_events)
    return tuple(positions)


def checkpoint_segments(
    events: Iterable[EdgeEvent], checkpoints: Sequence[int]
) -> Iterator[list[EdgeEvent]]:
    """Cut ``events`` into the segments that end at ``checkpoints``.

    ``checkpoints`` are increasing 1-based event counts, as
    :func:`checkpoint_positions` gives them. The ``i``-th list holds
    the events after checkpoint ``i - 1`` up to and including
    checkpoint ``i``, so a consumer that ingests each list whole
    (``process_batch``) and then reads its state reads it at exactly
    the checkpoint. ``events`` is iterated once and to the end: after
    the last segment one more event is asked for, to confirm there is
    none.

    Raises:
        ConfigurationError: the events run out before the last
            checkpoint, or continue past it.
    """
    iterator = iter(events)
    done = 0
    for end in checkpoints:
        segment = list(islice(iterator, end - done))
        done += len(segment)
        if done != end:
            raise ConfigurationError(
                f"checkpoint mismatch: the events ran out after {done} "
                f"of {checkpoints[-1]}"
            )
        yield segment
    if next(iterator, None) is not None:
        raise ConfigurationError(
            f"checkpoint mismatch: the events continue past the last "
            f"checkpoint ({done})"
        )


#: Wire header of an encoded :class:`EventBlock`: magic + event count.
_BLOCK_MAGIC = b"EVB1"
_BLOCK_HEADER = struct.Struct("<4sQ")


class EventBlock:
    """A columnar batch of edge events (struct of numpy arrays).

    The arrays are parallel: event ``t`` is an insertion of edge
    ``(u[t], v[t])`` when ``is_insert[t]`` is true, a deletion
    otherwise. Edges are canonical (``u < v``) by construction — the
    constructor canonicalises vectorised unless told the input already
    is. Only int64 vertex labels are supported (the library convention;
    every built-in dataset and generator uses ints) — streams with
    other label types stay on the :class:`EdgeEvent` tuple path.

    Blocks are what the batched sampler kernels consume natively
    (``process_batch`` accepts either representation and produces
    bit-identical results for either under a fixed seed) and what the
    process executor's shared-memory transport ships between processes
    (:meth:`write_into` / :meth:`from_buffer`, no pickling involved).
    """

    __slots__ = ("is_insert", "u", "v")

    def __init__(self, is_insert, u, v, *, canonical: bool = False) -> None:
        is_insert = np.ascontiguousarray(is_insert, dtype=np.bool_)
        u = self._as_int64(u)
        v = self._as_int64(v)
        if not (len(is_insert) == len(u) == len(v)):
            raise ValueError(
                "column length mismatch: "
                f"{len(is_insert)}/{len(u)}/{len(v)}"
            )
        if len(u) and bool((u == v).any()):
            from repro.errors import SelfLoopError

            raise SelfLoopError("EventBlock contains a self-loop event")
        if not canonical and len(u):
            lo = np.minimum(u, v)
            hi = np.maximum(u, v)
            u, v = lo, hi
        self.is_insert = is_insert
        self.u = u
        self.v = v

    @staticmethod
    def _as_int64(column) -> np.ndarray:
        arr = np.asarray(column)
        if arr.dtype == np.int64:
            return np.ascontiguousarray(arr)
        if arr.size == 0:
            # An empty list coerces to float64; there is nothing to
            # lose in an empty cast.
            return np.empty(0, dtype=np.int64)
        try:
            return np.ascontiguousarray(arr.astype(np.int64, casting="safe"))
        except TypeError as exc:
            raise TypeError(
                "EventBlock requires int64-compatible vertex labels, got "
                f"dtype {arr.dtype}"
            ) from exc

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.is_insert)

    def __iter__(self) -> Iterator[EdgeEvent]:
        insert, delete = INSERT, DELETE
        for is_ins, u, v in zip(
            self.is_insert.tolist(), self.u.tolist(), self.v.tolist()
        ):
            yield EdgeEvent(insert if is_ins else delete, (u, v))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EventBlock(
                self.is_insert[index],
                self.u[index],
                self.v[index],
                canonical=True,
            )
        is_ins = bool(self.is_insert[index])
        return EdgeEvent(
            INSERT if is_ins else DELETE,
            (int(self.u[index]), int(self.v[index])),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventBlock):
            return NotImplemented
        return (
            np.array_equal(self.is_insert, other.is_insert)
            and np.array_equal(self.u, other.u)
            and np.array_equal(self.v, other.v)
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"EventBlock(events={len(self)}, "
            f"insertions={self.num_insertions})"
        )

    # -- statistics ---------------------------------------------------------

    @property
    def num_insertions(self) -> int:
        """|A|: number of insertion events (one C-level pass)."""
        return int(np.count_nonzero(self.is_insert))

    @property
    def num_deletions(self) -> int:
        """|D|: number of deletion events."""
        return len(self) - self.num_insertions

    # -- conversion ---------------------------------------------------------

    @classmethod
    def from_events(cls, events: Iterable[EdgeEvent]) -> "EventBlock":
        """Build a block from :class:`EdgeEvent` values (int labels)."""
        ops: list[bool] = []
        us: list = []
        vs: list = []
        op_insert = INSERT
        for event in events:
            ops.append(event.op == op_insert)
            u, v = event.edge
            us.append(u)
            vs.append(v)
        # One conversion per column; non-int labels surface as the
        # object/str/float dtypes _as_int64 rejects. Events are
        # canonical by EdgeEvent construction.
        return cls(
            ops, np.asarray(us), np.asarray(vs), canonical=True
        )

    @classmethod
    def from_triples(
        cls, triples: Iterable[tuple[bool, int, int]]
    ) -> "EventBlock":
        """Build a block from raw ``(is_insert, u, v)`` triples."""
        ops: list[bool] = []
        us: list[int] = []
        vs: list[int] = []
        for is_ins, u, v in triples:
            ops.append(is_ins)
            us.append(u)
            vs.append(v)
        return cls(ops, us, vs)

    def to_stream(self) -> EdgeStream:
        """Materialise the block as an :class:`EdgeStream`."""
        return EdgeStream(iter(self))

    def columns(self) -> tuple[list, list, list]:
        """The three columns as plain Python lists (one C-level pass
        each) — the form the batched mega-loops iterate."""
        return self.is_insert.tolist(), self.u.tolist(), self.v.tolist()

    def edges(self) -> list[Edge]:
        """The canonical edge tuples, one per event."""
        return list(zip(self.u.tolist(), self.v.tolist()))

    def concat(self, other: "EventBlock") -> "EventBlock":
        """Return the concatenation of this block and ``other``."""
        return EventBlock(
            np.concatenate([self.is_insert, other.is_insert]),
            np.concatenate([self.u, other.u]),
            np.concatenate([self.v, other.v]),
            canonical=True,
        )

    # -- wire format (shared-memory transport) ------------------------------

    @staticmethod
    def byte_size(num_events: int) -> int:
        """Encoded size in bytes of a block of ``num_events`` events."""
        return _BLOCK_HEADER.size + 17 * num_events

    @property
    def nbytes(self) -> int:
        """Encoded size of this block in bytes."""
        return self.byte_size(len(self))

    def write_into(self, buf) -> int:
        """Encode into a writable buffer; return the bytes written.

        The native-endianness layout is header, then the ``is_insert``
        bytes, then the ``u`` and ``v`` int64 columns — a straight
        memcpy per column, no pickling. Intended for same-machine
        transport (shared memory); :meth:`from_buffer` reverses it.
        """
        n = len(self)
        mv = memoryview(buf).cast("B")
        header = _BLOCK_HEADER.size
        mv[:header] = _BLOCK_HEADER.pack(_BLOCK_MAGIC, n)
        if n:
            mv[header:header + n] = self.is_insert.view(np.uint8).data
            offset = header + n
            mv[offset:offset + 8 * n] = self.u.view(np.uint8).data
            offset += 8 * n
            mv[offset:offset + 8 * n] = self.v.view(np.uint8).data
        return self.byte_size(n)

    def to_bytes(self) -> bytes:
        """Encode to a standalone bytes object."""
        out = bytearray(self.nbytes)
        self.write_into(out)
        return bytes(out)

    @classmethod
    def from_buffer(cls, buf, offset: int = 0) -> "EventBlock":
        """Decode a block written by :meth:`write_into` / :meth:`to_bytes`.

        The returned arrays own their memory (copied out of ``buf``),
        so the source buffer — e.g. a shared-memory slot — may be
        reused immediately.
        """
        mv = memoryview(buf).cast("B")
        header = _BLOCK_HEADER.size
        magic, n = _BLOCK_HEADER.unpack(mv[offset:offset + header])
        if magic != _BLOCK_MAGIC:
            raise StreamFormatError(
                f"bad EventBlock magic {magic!r} (corrupt payload)"
            )
        start = offset + header
        is_insert = np.frombuffer(mv, dtype=np.bool_, count=n, offset=start)
        u = np.frombuffer(mv, dtype=np.int64, count=n, offset=start + n)
        v = np.frombuffer(
            mv, dtype=np.int64, count=n, offset=start + 9 * n
        )
        return cls(is_insert.copy(), u.copy(), v.copy(), canonical=True)


def iter_stream_file(
    path: str | Path, vertex_type: type = int
) -> Iterator[EdgeEvent]:
    """Yield events from a stream file without materialising it.

    The samplers consume any iterable of events, so this is the
    constant-memory ingestion path for streams too large to hold as an
    :class:`EdgeStream` — the single-pass constraint of Section II made
    literal::

        sampler.process_stream(iter_stream_file("huge-stream.txt"))

    Uses the same one-event-per-line format as :meth:`EdgeStream.dumps`;
    blank lines and ``#`` comments are skipped.
    """
    with open(Path(path), "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3 or parts[0] not in _OPS:
                raise StreamFormatError(
                    f"line {lineno}: expected '<op> <u> <v>', got {raw!r}"
                )
            try:
                u = vertex_type(parts[1])
                v = vertex_type(parts[2])
            except (TypeError, ValueError) as exc:
                raise StreamFormatError(
                    f"line {lineno}: bad vertex token in {raw!r}"
                ) from exc
            yield EdgeEvent(parts[0], (u, v))
