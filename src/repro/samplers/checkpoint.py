"""Checkpoint / restore for kernel-based samplers.

Long-running stream consumers need to survive restarts. A sampler's
full state is small and regular: for the threshold kernels (WSD, GPS,
GPS-A) a fixed budget of sampled edges, each with its rank, weight and
arrival time, plus a few scalars (thresholds with their generation
counter, the running estimate, the clock and the rank-randomness
generator state); for the random-pairing kernels (ThinkD, Triest, WRS)
the sampled edges plus the RP counters (and, for WRS, the waiting-room
FIFO). So a checkpoint (format 5) is a small header plus typed
columns — see ``docs/protocol.md`` for the table. Restoring yields a
sampler that continues *bit-for-bit* identically to one that never
stopped (verified by tests).

The entry points are :func:`sampler_state_dict` (header scalars plus
numpy columns) / :func:`restore_sampler`, the wire pair
:func:`state_to_wire` / :func:`state_from_wire` (the header and the
column bytes in the RSX2 codec, inside a magic + version + CRC-32
frame), and the file-level :func:`save_sampler` / :func:`load_sampler`,
which write and read those framed bytes. The framed bytes are what
worker processes, host agents and the service's shard files carry;
:func:`check_state_wire` verifies a frame without decoding it.

Vertex columns are int64. Integer and string vertices are supported
(integers are the library convention throughout): a column whose labels
are not all int64-sized ints is stored as an RSX2 list of the labels
instead. Format-4 JSON documents (frame version 1, and the plain JSON
files the format-4 :func:`save_sampler` wrote) are still read, as a
migration path only.
"""

from __future__ import annotations

import json
import struct
import zlib
from operator import itemgetter
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError, ProtocolError
from repro.samplers.gps import GPS
from repro.samplers.gps_a import GPSA
from repro.samplers.kernel import PairingSamplerKernel, ThresholdSamplerKernel
from repro.samplers.random_pairing import RandomPairingReservoir
from repro.samplers.thinkd import ThinkD
from repro.samplers.triest import Triest
from repro.samplers.wrs import WRS
from repro.samplers.wsd import WSD
from repro.utils.io import atomic_write_bytes
from repro.weights.base import WeightFunction

__all__ = [
    "sampler_state_dict",
    "restore_sampler",
    "save_sampler",
    "load_sampler",
    "state_to_wire",
    "state_from_wire",
    "check_state_wire",
]

#: Format 5 stores the sample as typed columns (see the module
#: docstring). Format 4 — the JSON document of per-edge dicts — is read
#: as a migration only.
_FORMAT_VERSION = 5

_THRESHOLD_ALGORITHMS: dict[str, type[ThresholdSamplerKernel]] = {
    "wsd": WSD,
    "gps": GPS,
    "gps-a": GPSA,
}
_PAIRING_ALGORITHMS: dict[str, type[PairingSamplerKernel]] = {
    "thinkd": ThinkD,
    "triest": Triest,
    "wrs": WRS,
}
_ALGORITHM_NAMES = {
    cls: name
    for name, cls in {**_THRESHOLD_ALGORITHMS, **_PAIRING_ALGORITHMS}.items()
}

# -- the format-5 schema ------------------------------------------------------

#: Marks a vertex-label column: int64, or an RSX2 list of int/str labels.
_LABEL = None
_I8 = np.dtype("<i8")
_F8 = np.dtype("<f8")
_BOOL = np.dtype("|b1")

#: Every table's columns, in wire order.
_TABLES = {
    "interner": (("label", _LABEL),),
    "slabbed": (("vertex", _LABEL),),
    "reservoir": (
        ("u", _LABEL), ("v", _LABEL), ("rank", _F8), ("weight", _F8),
        ("time", _I8), ("tagged", _BOOL),
    ),
    "wedge_light_inv": (("vertex", _LABEL), ("value", _F8)),
    "arrival_tracker": (("vertex", _LABEL), ("sum", _I8), ("max", _I8)),
    "sample": (("u", _LABEL), ("v", _LABEL)),
    "waiting_room": (("u", _LABEL), ("v", _LABEL), ("arrival", _I8)),
}
#: Tables that are ``None`` when the sampler has no such structure (no
#: arena, no wedge-delta tracker, no arrival tracker).
_OPTIONAL_TABLES = frozenset({"slabbed", "wedge_light_inv", "arrival_tracker"})

_INT = (int,)
_NUMBER = (int, float)
_NONE = type(None)
#: Header field → accepted types (bools are refused wherever ints are).
_FIELD_TYPES = {
    "format": _INT,
    "algorithm": (str,),
    "pattern": (str,),
    "budget": _INT,
    "time": _INT,
    "rng_state": (dict,),
    "arena_cutoff": (int, _NONE),
    "rank_fn": (str,),
    "threshold": _NUMBER,
    "threshold_generation": _INT,
    "estimate": _NUMBER,
    "learned_weight": (dict, _NONE),
    "tau_p": _NUMBER,
    "tau_q": _NUMBER,
    "rp": (dict,),
    "waiting_room_capacity": _INT,
    "tau": _INT,
}

_COMMON = (
    "format", "algorithm", "pattern", "budget", "time", "rng_state",
    "arena_cutoff",
)
_THRESHOLD_HEADER = _COMMON + (
    "rank_fn", "threshold", "threshold_generation", "estimate",
    "learned_weight",
)
_THRESHOLD_TABLES = (
    "interner", "slabbed", "reservoir", "wedge_light_inv", "arrival_tracker",
)
_PAIRING_TABLES = ("interner", "slabbed", "sample")
#: Per algorithm: (header fields, tables), both in wire order.
_SCHEMA = {
    "wsd": (_THRESHOLD_HEADER + ("tau_p", "tau_q"), _THRESHOLD_TABLES),
    "gps": (_THRESHOLD_HEADER, _THRESHOLD_TABLES),
    "gps-a": (_THRESHOLD_HEADER, _THRESHOLD_TABLES),
    "thinkd": (_COMMON + ("rp", "estimate"), _PAIRING_TABLES),
    "triest": (_COMMON + ("rp", "tau"), _PAIRING_TABLES),
    "wrs": (
        _COMMON + ("rp", "waiting_room_capacity", "estimate"),
        _PAIRING_TABLES + ("waiting_room",),
    ),
}
_RP_COUNTERS = ("d_i", "d_o", "population")


def _label_column(labels: list):
    """Vertex labels as an int64 column, else the validated label list.

    The one encoder of vertex columns; :func:`_labels` is its inverse.
    """
    kinds = set(map(type, labels))
    if kinds <= {int}:
        try:
            return np.array(labels, dtype=_I8)
        except OverflowError:  # an int beyond int64 rides the list form
            return labels
    if not kinds <= {int, str}:
        raise ConfigurationError(
            "checkpointing supports int/str vertices, got "
            f"{sorted(kind.__name__ for kind in kinds - {int, str})}"
        )
    return labels


def _labels(column) -> list:
    """The Python labels of a column built by :func:`_label_column`."""
    return column.tolist() if isinstance(column, np.ndarray) else column


def _edges(table: dict) -> list:
    return list(zip(_labels(table["u"]), _labels(table["v"])))


# -- WSD-L serving state ------------------------------------------------------


def _learned_weight_state(weight_fn) -> dict | None:
    """Serialise a learned weight function, or ``None`` if not one.

    The actor is a single linear layer, so the whole serving artifact —
    parameters plus the feature settings that must match training — fits
    in a few header fields. Imported lazily: this module loads during
    ``repro.samplers`` initialisation, before ``repro.rl`` (which
    imports the samplers back) can be touched at module level.
    """
    from repro.rl.policy import Policy
    from repro.weights.learned import LearnedWeight

    if not isinstance(weight_fn, LearnedWeight):
        return None
    policy = weight_fn.policy
    if not isinstance(policy, Policy):
        # Foreign policy objects (training-time actors, test doubles)
        # have no declared parameter layout; the caller must re-supply
        # the weight function on restore.
        return None
    return {
        "weights": [float(w) for w in policy.weights],
        "bias": float(policy.bias),
        "metadata": policy.metadata,
        "frozen": _is_frozen(policy),
        "temporal_aggregation": weight_fn.temporal_aggregation,
        "normalize": weight_fn.normalize,
        "minimum_weight": weight_fn.minimum_weight,
        "block_serving": weight_fn.block_serving,
    }


def _is_frozen(policy) -> bool:
    from repro.rl.policy import FrozenPolicy

    return isinstance(policy, FrozenPolicy)


def _learned_weight_from_state(state: dict):
    """Rebuild the checkpointed learned weight function, if any."""
    info = state.get("learned_weight")
    if info is None:
        return None
    from repro.rl.policy import FrozenPolicy, Policy
    from repro.weights.learned import LearnedWeight

    cls = FrozenPolicy if info.get("frozen", True) else Policy
    policy = cls(
        np.asarray(info["weights"], dtype=np.float64),
        float(info["bias"]),
        info.get("metadata"),
    )
    return LearnedWeight(
        policy,
        temporal_aggregation=info.get("temporal_aggregation", "max"),
        normalize=bool(info.get("normalize", True)),
        minimum_weight=float(info.get("minimum_weight", 1e-6)),
        block_serving=bool(info.get("block_serving", False)),
    )


# -- state extraction ---------------------------------------------------------


def sampler_state_dict(sampler) -> dict:
    """Extract a format-5 snapshot: header scalars plus numpy columns.

    Supports every kernel-based sampler registered for restore: WSD,
    GPS, GPS-A (threshold kernels) and ThinkD, Triest, WRS (pairing
    kernels). :func:`state_to_wire` turns the result into bytes.
    """
    name = _ALGORITHM_NAMES.get(type(sampler))
    if name is None:
        raise ConfigurationError(
            f"checkpointing not supported for {type(sampler).__name__}; "
            f"supported: {sorted(_ALGORITHM_NAMES.values())}"
        )
    graph = sampler._sampled_graph
    arena = graph.arena is not None
    state = {
        "format": _FORMAT_VERSION,
        "algorithm": name,
        "pattern": sampler.pattern.name,
        "budget": int(sampler.budget),
        "time": int(sampler.time),
        "rng_state": sampler.rng.bit_generator.state,
        # Slab membership is trajectory state, not derivable from the
        # sample: hysteresis keeps a slab while the degree sits in
        # [cutoff/2, cutoff), and which path computes a delta decides
        # its float grouping. Record cutoff + the exact slabbed set (in
        # id order, so equal states encode to equal bytes) so the
        # restored sampler routes queries identically.
        "arena_cutoff": graph.slab_cutoff if arena else None,
        # The vertex interner's full id order. Ids are assigned in
        # first-seen order and survive edge eviction, so they cannot be
        # reconstructed from the sample alone; the id-ordered clique
        # enumerators need the exact order for the restored sampler's
        # float accumulation to stay bit-identical. Grows with the
        # number of vertices ever sampled.
        "interner": {"label": _label_column(graph.interner.labels())},
        "slabbed": (
            {
                "vertex": _label_column(
                    sorted(
                        graph.slabbed_vertices(),
                        key=graph.interner.sort_key,
                    )
                )
            }
            if arena else None
        ),
    }
    if isinstance(sampler, ThresholdSamplerKernel):
        # Heap-array order: replaying it as the heap array rebuilds the
        # identical heap with no sifting (see _restore_threshold).
        entries = sampler._reservoir.entries()
        edges = list(map(itemgetter(1), entries))
        n = len(edges)
        tagged = (
            np.fromiter(map(sampler._tagged.__contains__, edges), bool, n)
            if isinstance(sampler, GPSA)
            else np.zeros(n, dtype=bool)
        )
        state.update(
            rank_fn=sampler.rank_fn.name,
            threshold=float(sampler.threshold),
            threshold_generation=int(sampler.threshold_generation),
            estimate=float(sampler.estimate),
            learned_weight=_learned_weight_state(sampler.weight_fn),
            reservoir={
                "u": _label_column(list(map(itemgetter(0), edges))),
                "v": _label_column(list(map(itemgetter(1), edges))),
                "rank": np.fromiter(map(itemgetter(0), entries), _F8, n),
                "weight": np.fromiter(
                    map(sampler._edge_weights.__getitem__, edges), _F8, n
                ),
                "time": np.fromiter(
                    map(sampler._edge_times.__getitem__, edges), _I8, n
                ),
                "tagged": tagged,
            },
            wedge_light_inv=None,
            arrival_tracker=None,
        )
        if isinstance(sampler, WSD):
            state["tau_p"] = float(sampler.tau_p)
            state["tau_q"] = float(sampler.tau_q)
        if sampler._wedge_tracker is not None:
            # The light-side inverse-weight sums accumulate incremental
            # float residue over a run (x + a - a need not equal x), so
            # a restore that merely re-added the surviving edges would
            # continue a hair off the uninterrupted run. Storing the
            # per-vertex sums keeps wedge continuations bit-identical;
            # the integer heavy counts and the classification are exact
            # functions of the restored reservoir and need no extra state.
            light = sampler._wedge_tracker.light_inv
            state["wedge_light_inv"] = {
                "vertex": _label_column(list(light)),
                "value": np.array(list(light.values()), dtype=np.float64),
            }
        if sampler._att is not None:
            aggregates = sampler._att.aggregates()
            state["arrival_tracker"] = {
                "vertex": _label_column(list(aggregates)),
                "sum": np.array(
                    [s for s, _ in aggregates.values()], dtype=np.int64
                ),
                "max": np.array(
                    [m for _, m in aggregates.values()], dtype=np.int64
                ),
            }
        return state
    rp = sampler._rp
    # The reservoir's internal list order feeds future eviction index
    # draws, so the sample is stored in list order and replayed the
    # same way on restore.
    sample = list(rp)
    state["rp"] = {
        "d_i": int(rp.d_i), "d_o": int(rp.d_o),
        "population": int(rp.population),
    }
    state["sample"] = {
        "u": _label_column([u for u, _ in sample]),
        "v": _label_column([v for _, v in sample]),
    }
    if isinstance(sampler, WRS):
        # The waiting-room FIFO order decides which edge exits next, so
        # it is stored in insertion order too. The capacity split is
        # stored explicitly: the constructor derives it from a fraction,
        # and int truncation must not re-round it differently on restore.
        room = list(sampler._waiting_room.items())
        state["waiting_room"] = {
            "u": _label_column([u for (u, _), _ in room]),
            "v": _label_column([v for (_, v), _ in room]),
            "arrival": np.array([t for _, t in room], dtype=np.int64),
        }
        state["waiting_room_capacity"] = int(sampler.waiting_room_capacity)
        state["estimate"] = float(sampler.estimate)
    elif isinstance(sampler, Triest):
        # τ is the real state; the estimate is derived at query time.
        state["tau"] = int(sampler.tau)
    else:
        state["estimate"] = float(sampler.estimate)
    return state


# -- validation ---------------------------------------------------------------


def _check_header(state, error: type[Exception]) -> str:
    """Check the header fields and table slots; return the algorithm.

    ``error`` is the exception to raise: :class:`ConfigurationError`
    for states handed to :func:`restore_sampler`,
    :class:`ProtocolError` for bytes being decoded.
    """
    if not isinstance(state, dict):
        raise error(
            f"checkpoint state is {type(state).__name__}, expected a dict"
        )
    if state.get("format") != _FORMAT_VERSION:
        raise error(
            f"unsupported checkpoint format: {state.get('format')!r} "
            f"(this build reads {_FORMAT_VERSION}, and 4 as a migration)"
        )
    name = state.get("algorithm")
    if name not in _SCHEMA:
        raise error(
            f"unknown checkpoint algorithm {name!r}; supported: "
            f"{sorted(_SCHEMA)}"
        )
    fields, tables = _SCHEMA[name]
    for field in fields:
        if field not in state:
            raise error(f"{name!r} checkpoint is missing header {field!r}")
        value = state[field]
        if isinstance(value, bool) or not isinstance(
            value, _FIELD_TYPES[field]
        ):
            raise error(
                f"checkpoint header {field!r} has type "
                f"{type(value).__name__}"
            )
    if "rp" in fields and not all(
        type(state["rp"].get(key)) is int for key in _RP_COUNTERS
    ):
        raise error(f"checkpoint RP counters are not ints: {state['rp']!r}")
    learned = state.get("learned_weight")
    if learned is not None and not (
        isinstance(learned.get("weights"), list)
        and all(_is_number(w) for w in learned["weights"])
        and _is_number(learned.get("bias"))
    ):
        raise error("checkpoint learned-weight block is malformed")
    for table in tables:
        if table not in state:
            raise error(f"{name!r} checkpoint is missing table {table!r}")
        columns = state[table]
        if columns is None and table in _OPTIONAL_TABLES:
            continue
        if not isinstance(columns, dict):
            raise error(f"checkpoint table {table!r} is not a column dict")
    if (state["arena_cutoff"] is None) != (state["slabbed"] is None):
        raise error("checkpoint arena cutoff and slabbed set disagree")
    return name


def _is_number(value) -> bool:
    return isinstance(value, _NUMBER) and not isinstance(value, bool)


def _decode_column(raw, dtype, where: str):
    """One wire column → numpy array (or label list), validated."""
    if dtype is _LABEL:
        if isinstance(raw, list):
            try:
                return _label_column(raw)
            except ConfigurationError as exc:
                raise ProtocolError(f"checkpoint column {where}: {exc}") from None
        dtype = _I8
    if not isinstance(raw, bytes):
        raise ProtocolError(
            f"checkpoint column {where} is {type(raw).__name__}, "
            "expected bytes"
        )
    if len(raw) % dtype.itemsize:
        raise ProtocolError(
            f"checkpoint column {where} holds {len(raw)} bytes, not a "
            f"multiple of its {dtype.itemsize}-byte items"
        )
    return np.frombuffer(raw, dtype=dtype)


def _distinct_edges(table: dict) -> bool:
    u, v = table["u"], table["v"]
    if isinstance(u, np.ndarray) and isinstance(v, np.ndarray):
        order = np.lexsort((v, u))
        same = (np.diff(u[order]) == 0) & (np.diff(v[order]) == 0)
        return not same.any()
    return len(set(_edges(table))) == len(u)


def _check_columns(name: str, state: dict) -> None:
    """Cross-column checks of a decoded state (raises ProtocolError)."""
    _, tables = _SCHEMA[name]
    for table in tables:
        columns = state[table]
        if columns is None:
            continue
        lengths = {len(columns[column]) for column, _ in _TABLES[table]}
        if len(lengths) > 1:
            raise ProtocolError(
                f"checkpoint table {table!r} has columns of unequal "
                f"lengths {sorted(lengths)}"
            )
        if "u" in columns and not _distinct_edges(columns):
            raise ProtocolError(
                f"checkpoint table {table!r} holds an edge twice"
            )
    labels = _labels(state["interner"]["label"])
    if len(set(labels)) != len(labels):
        raise ProtocolError("checkpoint interner holds a label twice")
    if state["slabbed"] is not None and not set(
        _labels(state["slabbed"]["vertex"])
    ) <= set(labels):
        raise ProtocolError("checkpoint slabs a vertex it never interned")
    reservoir = state.get("reservoir")
    if reservoir is not None:
        if len(reservoir["rank"]) > state["budget"]:
            raise ProtocolError("checkpoint reservoir exceeds its budget")
        rank = reservoir["rank"]
        parents = rank[(np.arange(1, len(rank)) - 1) // 2]
        if not np.all(parents <= rank[1:]):
            raise ProtocolError(
                "checkpoint reservoir ranks are not in heap order"
            )


def _decoded(doc) -> dict:
    """Validate an RSX2-decoded format-5 document; columns → arrays."""
    name = _check_header(doc, ProtocolError)
    state = dict(doc)
    for table in _SCHEMA[name][1]:
        raw = doc[table]
        if raw is None:
            continue
        columns = {}
        for column, dtype in _TABLES[table]:
            if column not in raw:
                raise ProtocolError(
                    f"checkpoint table {table!r} is missing column "
                    f"{column!r}"
                )
            columns[column] = _decode_column(
                raw[column], dtype, f"{table}.{column}"
            )
        state[table] = columns
    _check_columns(name, state)
    return state


# -- format-4 migration -------------------------------------------------------


def _v4_vertex(pair) -> object:
    kind, value = pair
    if kind == "i" and type(value) is int:
        return value
    if kind == "s" and isinstance(value, str):
        return value
    raise ValueError(f"bad vertex entry {pair!r}")


def _v4_edges(entries: list) -> dict:
    edges = [(_v4_vertex(e["u"]), _v4_vertex(e["v"])) for e in entries]
    return {
        "u": _label_column([u for u, _ in edges]),
        "v": _label_column([v for _, v in edges]),
    }


def _from_v4(doc: dict) -> dict:
    """Translate a format-4 JSON document into the format-5 state.

    Format 4 stored the same state per edge (reservoir in heap-array
    order, sample and waiting room in list order), so the translation
    is a transposition; the result goes through the format-5 checks.
    """
    if not isinstance(doc, dict) or doc.get("format") != 4:
        raise ValueError("not a format-4 checkpoint document")
    name = doc["algorithm"]
    if name not in _SCHEMA:
        raise ValueError(f"unknown checkpoint algorithm {name!r}")
    arena = doc.get("arena")
    state = {key: doc[key] for key in _SCHEMA[name][0] if key in doc}
    state.update(
        format=_FORMAT_VERSION,
        arena_cutoff=None if arena is None else arena["cutoff"],
        interner={
            "label": _label_column([_v4_vertex(p) for p in doc["interner"]])
        },
        slabbed=None if arena is None else {
            "vertex": _label_column([_v4_vertex(p) for p in arena["slabbed"]])
        },
    )
    if name in _THRESHOLD_ALGORITHMS:
        entries = doc["reservoir"]
        light = doc.get("wedge_light_inv")
        tracker = doc.get("arrival_tracker")
        state.update(
            learned_weight=doc.get("learned_weight"),
            reservoir={
                **_v4_edges(entries),
                "rank": np.array([e["rank"] for e in entries], dtype=_F8),
                "weight": np.array([e["weight"] for e in entries], dtype=_F8),
                "time": np.array([e["time"] for e in entries], dtype=_I8),
                "tagged": np.array(
                    [bool(e.get("tagged", False)) for e in entries], dtype=bool
                ),
            },
            wedge_light_inv=None if light is None else {
                "vertex": _label_column([_v4_vertex(p) for p, _ in light]),
                "value": np.array([x for _, x in light], dtype=_F8),
            },
            arrival_tracker=None if tracker is None else {
                "vertex": _label_column([_v4_vertex(p) for p, _, _ in tracker]),
                "sum": np.array([s for _, s, _ in tracker], dtype=_I8),
                "max": np.array([m for _, _, m in tracker], dtype=_I8),
            },
        )
    else:
        state["sample"] = _v4_edges(doc["sample"])
        if name == "wrs":
            room = doc["waiting_room"]
            state["waiting_room"] = {
                **_v4_edges([entry for entry, _ in room]),
                "arrival": np.array([t for _, t in room], dtype=_I8),
            }
    _check_columns(_check_header(state, ProtocolError), state)
    return state


def _state_from_json(payload: bytes) -> dict:
    """Read a format-4 JSON document (migration only)."""
    try:
        return _from_v4(json.loads(payload.decode("utf-8")))
    except ProtocolError:
        raise
    except (
        UnicodeDecodeError, ValueError, KeyError, TypeError, IndexError,
        OverflowError,
    ) as exc:
        raise ProtocolError(
            f"unreadable format-4 checkpoint document: {exc!r}"
        ) from None


# -- restoration --------------------------------------------------------------


def _restore_graph_prefix(sampler, state: dict) -> None:
    """Replay the interner and re-impose the slab cutoff.

    The interner goes first so every vertex gets its original dense id
    regardless of the order the sample is replayed in. The cutoff
    decides where slabs are built *during* that replay, so it must
    match the recording run's before the first edge lands; a sampler
    built with arena acceleration disabled keeps its configuration (the
    switch must match the recording run for bit-identity, the same
    contract the wedge toggle has).
    """
    graph = sampler._sampled_graph
    intern = graph.interner.intern
    for label in _labels(state["interner"]["label"]):
        intern(label)
    if state["arena_cutoff"] is not None and graph.arena is not None:
        graph.enable_arena(
            graph._payload_fn,
            cutoff=state["arena_cutoff"],
            payload2_fn=graph._payload2_fn,
        )


def _restore_slabs(sampler, state: dict) -> None:
    """Force the slabbed-vertex set to exactly the recorded one.

    Replay rebuilds slabs only where the final degree reaches the
    cutoff; vertices the recording run kept slabbed through hysteresis
    are built here (and anything extra dropped) so the adaptive query
    routing — hence float grouping — continues identically.
    """
    graph = sampler._sampled_graph
    if state["slabbed"] is not None and graph.arena is not None:
        graph.sync_arena_slabs(_labels(state["slabbed"]["vertex"]))


def _restore_threshold(sampler: ThresholdSamplerKernel, state: dict) -> None:
    sampler._threshold = float(state["threshold"])
    if sampler._wedge_tracker is not None:
        # Seed the (still empty) wedge-delta aggregates with the
        # restored threshold so the replay below classifies each edge
        # against it.
        sampler._wedge_tracker.set_threshold(sampler._threshold)
    # Restoring starts a fresh memo epoch: the probability cache is
    # empty by construction, and the generation counter is restored so
    # consumers keyed on it (see ``tau_q_generation``) stay monotone
    # across the checkpoint boundary.
    sampler._threshold_generation = state["threshold_generation"]
    sampler._prob_cache.clear()
    _restore_graph_prefix(sampler, state)
    table = state["reservoir"]
    edges = _edges(table)
    # The stored order is a valid heap array, so assigning it is exactly
    # what pushing it entry by entry builds (every sift-up a no-op).
    sampler._reservoir.load(list(zip(table["rank"].tolist(), edges)))
    sampler._edge_weights.update(zip(edges, table["weight"].tolist()))
    sampler._edge_times.update(zip(edges, table["time"].tolist()))
    add = sampler._sample_add
    if isinstance(sampler, GPSA) and table["tagged"].any():
        tagged = sampler._tagged
        for edge, is_tagged in zip(edges, table["tagged"].tolist()):
            if is_tagged:
                tagged.add(edge)
            else:
                add(edge)
    else:
        for edge in edges:
            add(edge)
    light = state["wedge_light_inv"]
    if sampler._wedge_tracker is not None and light is not None:
        # Overwrite the rebuilt (clean) light sums with the stored ones
        # so the continuation reproduces the uninterrupted run's float
        # state bit for bit.
        sampler._wedge_tracker.light_inv = dict(
            zip(_labels(light["vertex"]), light["value"].tolist())
        )
    tracker = state["arrival_tracker"]
    if sampler._att is not None and tracker is not None:
        # The replay above already rebuilt the tracker exactly (integer
        # sums are order-independent); the stored aggregates overwrite
        # it anyway, mirroring the ``wedge_light_inv`` idiom.
        sampler._att.load_aggregates(
            dict(
                zip(
                    _labels(tracker["vertex"]),
                    zip(tracker["sum"].tolist(), tracker["max"].tolist()),
                )
            )
        )
    _restore_slabs(sampler, state)


def _set_rng_state(sampler, state: dict) -> None:
    try:
        sampler.rng.bit_generator.state = state["rng_state"]
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigurationError(
            f"checkpoint rng state is unusable: {exc!r}"
        ) from None


def restore_sampler(
    state: dict,
    weight_fn: WeightFunction | None = None,
) -> WSD | GPS | GPSA | ThinkD | Triest | WRS:
    """Rebuild a sampler from :func:`sampler_state_dict` output.

    For the threshold kernels the weight function is supplied by the
    caller (it may hold a learned policy or other non-serialisable
    resources) and must match the one used before checkpointing for the
    continuation to be meaningful. Checkpoints of WSD-L samplers embed
    the actor parameters, so ``weight_fn`` may be omitted there — the
    learned weight function is rebuilt from the header (an explicitly
    supplied one still wins). The pairing kernels take no weight
    function.
    """
    name = _check_header(state, ConfigurationError)
    budget = state["budget"]
    if name in _THRESHOLD_ALGORITHMS:
        if weight_fn is None:
            # Learned-weight checkpoints embed the frozen actor, so
            # WSD-L shards restore without the caller re-supplying the
            # weight function (the process executor relies on this).
            weight_fn = _learned_weight_from_state(state)
        if weight_fn is None:
            raise ConfigurationError(
                f"restoring {name!r} requires the weight function used "
                "before checkpointing"
            )
        sampler = _THRESHOLD_ALGORITHMS[name](
            state["pattern"],
            budget,
            weight_fn,
            rank_fn=state["rank_fn"],
            rng=np.random.default_rng(),
        )
        _set_rng_state(sampler, state)
        sampler._estimate = float(state["estimate"])
        sampler._time = state["time"]
        _restore_threshold(sampler, state)
        if isinstance(sampler, WSD):
            sampler._tau_p = float(state["tau_p"])
        return sampler

    sampler = _PAIRING_ALGORITHMS[name](
        state["pattern"], budget, rng=np.random.default_rng()
    )
    if isinstance(sampler, WRS):
        # Re-impose the checkpointed budget split before any state is
        # replayed: the constructor derived its own waiting-room size
        # from the default fraction. The reservoir is rebuilt with the
        # stored capacity around the sampler's own generator (the same
        # sharing the constructor sets up), still empty at this point.
        capacity = state["waiting_room_capacity"]
        sampler.waiting_room_capacity = capacity
        sampler._rp = RandomPairingReservoir(budget - capacity, sampler.rng)
    _set_rng_state(sampler, state)
    sampler._time = state["time"]
    _restore_graph_prefix(sampler, state)
    rp = sampler._rp
    rp.d_i, rp.d_o, rp.population = (state["rp"][k] for k in _RP_COUNTERS)
    for edge in _edges(state["sample"]):
        rp._add(edge)
        sampler._sample_add(edge)
    if isinstance(sampler, WRS):
        room = state["waiting_room"]
        for edge, arrival in zip(_edges(room), room["arrival"].tolist()):
            sampler._waiting_room[edge] = arrival
            sampler._sample_add(edge)
        # The wedge-delta degree aggregates mirror the FIFO just
        # repopulated above.
        sampler._rebuild_wr_degrees()
        sampler._estimate = float(state["estimate"])
    elif isinstance(sampler, Triest):
        sampler._tau = state["tau"]
    else:
        sampler._estimate = float(state["estimate"])
    _restore_slabs(sampler, state)
    return sampler


# -- wire framing -------------------------------------------------------------

#: Framed-checkpoint header: magic, frame version, CRC-32 of the
#: payload, payload length. Frame version 2 carries a format-5 RSX2
#: payload; version 1 carried format-4 JSON and is read as a migration.
_STATE_WIRE_MAGIC = b"RPCK"
_STATE_WIRE_VERSION = 2
_STATE_WIRE_V4 = 1
_STATE_WIRE_HEADER = struct.Struct("<4sBxxxIQ")


def state_to_wire(state: dict) -> bytes:
    """Frame a :func:`sampler_state_dict` state for transport or disk.

    The payload is the header and the columns in the RSX2 control codec
    (:mod:`repro.streams.codec`), each column a ``bytes`` field of
    fixed little-endian items, keys in schema order — so equal sampler
    states give equal bytes. It is prefixed with a magic tag, the frame
    version, a CRC-32 of the payload and the payload length, so a
    truncated, corrupted or cross-version frame fails loudly at
    :func:`state_from_wire` instead of restoring a subtly wrong replica.
    """
    # Imported lazily: ``repro.streams`` imports this module during its
    # own package initialisation.
    from repro.streams.codec import encode

    name = _check_header(state, ConfigurationError)
    fields, tables = _SCHEMA[name]
    doc = {field: state[field] for field in fields}
    for table in tables:
        columns = state[table]
        doc[table] = None if columns is None else {
            column: (
                columns[column]
                if dtype is _LABEL and isinstance(columns[column], list)
                else np.ascontiguousarray(
                    columns[column], dtype=_I8 if dtype is _LABEL else dtype
                ).tobytes()
            )
            for column, dtype in _TABLES[table]
        }
    payload = encode(doc)
    return (
        _STATE_WIRE_HEADER.pack(
            _STATE_WIRE_MAGIC,
            _STATE_WIRE_VERSION,
            zlib.crc32(payload),
            len(payload),
        )
        + payload
    )


def _unframe(blob) -> tuple[int, bytes]:
    """Check magic, version, length and CRC; return (version, payload)."""
    header = _STATE_WIRE_HEADER.size
    if not isinstance(blob, (bytes, bytearray, memoryview)):
        raise ProtocolError(
            f"checkpoint frame is {type(blob).__name__}, expected bytes"
        )
    if len(blob) < header:
        raise ProtocolError(
            f"checkpoint frame truncated: {len(blob)} bytes is shorter "
            f"than the {header}-byte header"
        )
    magic, version, crc, length = _STATE_WIRE_HEADER.unpack_from(blob)
    if magic != _STATE_WIRE_MAGIC:
        raise ProtocolError(f"bad checkpoint frame magic {magic!r}")
    if version not in (_STATE_WIRE_VERSION, _STATE_WIRE_V4):
        raise ProtocolError(
            f"checkpoint frame version {version} is not the supported "
            f"version {_STATE_WIRE_VERSION} (or {_STATE_WIRE_V4}, read "
            "as a migration)"
        )
    payload = bytes(blob[header:])
    if len(payload) != length:
        raise ProtocolError(
            f"checkpoint frame truncated: header declares {length} "
            f"payload bytes, got {len(payload)}"
        )
    if zlib.crc32(payload) != crc:
        raise ProtocolError("checkpoint frame failed its CRC-32 check")
    return version, payload


def check_state_wire(blob) -> None:
    """Verify a checkpoint frame's magic, version, length and CRC only.

    What a parent process needs before it persists or forwards bytes
    a worker sent: the cost is one CRC pass, and nothing is decoded.
    """
    _unframe(blob)


def state_from_wire(blob) -> dict:
    """Decode and validate a frame built by :func:`state_to_wire`.

    Every violation — framing, CRC, a missing header field, an unknown
    algorithm, a column whose byte length is not a multiple of its item
    size, columns of unequal length in one table, an edge held twice —
    raises :class:`~repro.errors.ProtocolError`. Format-4 JSON frames
    (frame version 1) are translated on the way in.
    """
    version, payload = _unframe(blob)
    if version == _STATE_WIRE_V4:
        return _state_from_json(payload)
    from repro.streams.codec import decode

    return _decoded(decode(payload))


# -- file round-trip ----------------------------------------------------------


def save_sampler(sampler, path: str | Path) -> None:
    """Write a sampler's framed checkpoint (:func:`state_to_wire`) to a file.

    The write is atomic (write-tmp + ``os.replace`` + fsync via
    :func:`~repro.utils.io.atomic_write_bytes`): a crash mid-save leaves
    the previous checkpoint intact instead of a torn one — the
    durability contract the long-running service tier leans on.
    """
    atomic_write_bytes(path, state_to_wire(sampler_state_dict(sampler)))


def load_sampler(
    path: str | Path, weight_fn: WeightFunction | None = None
):
    """Restore a sampler from a file written by :func:`save_sampler`.

    A plain format-4 JSON file (what :func:`save_sampler` wrote before
    format 5) is read as a migration.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"checkpoint file not found: {path}")
    blob = path.read_bytes()
    try:
        if blob[:1] == b"{":
            state = _state_from_json(blob)
        else:
            state = state_from_wire(blob)
    except ProtocolError as exc:
        raise ConfigurationError(f"malformed checkpoint {path}: {exc}") from exc
    return restore_sampler(state, weight_fn)
