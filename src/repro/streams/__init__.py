"""Fully dynamic stream construction, validation, and sharded execution."""

from repro.streams.executor import (
    ShardedStreamExecutor,
    default_shard_key,
    partition_block,
    partition_events,
    vectorized_edge_hash,
)
from repro.streams.transport import ShardTransport, TcpShardTransport
from repro.streams.workers import ProcessShardTransport, ShardWorker
from repro.streams.faults import Fault, FaultPlan
from repro.streams.scenarios import (
    build_stream,
    insertion_only_stream,
    light_deletion_stream,
    massive_deletion_stream,
    partition_stream,
)
from repro.streams.supervisor import (
    DEFAULT_RECOVERY_POLICY,
    RecoveryPolicy,
    ShardSupervisor,
)
from repro.streams.validate import is_feasible, validate_stream

_HOST_EXPORTS = ("HostAgent", "spawn_local_host")
_SERVICE_EXPORTS = {
    "StreamConfig": "service",
    "StreamSession": "service",
    "ServiceConfig": "service",
    "CountingService": "service",
    "SERVICE_ALGORITHMS": "service",
    "StreamIngestServer": "ingest",
    "ServiceClient": "ingest",
    "StreamQueries": "queries",
    "StreamSnapshot": "queries",
    "run_query": "queries",
}


def __getattr__(name: str):
    # The host-agent and service modules double as ``python -m`` CLIs;
    # importing them eagerly here would make runpy warn about the
    # module already being in sys.modules, so their exports resolve
    # lazily instead.
    if name in _HOST_EXPORTS:
        from repro.streams import host

        return getattr(host, name)
    if name in _SERVICE_EXPORTS:
        import importlib

        module = importlib.import_module(
            f"repro.streams.{_SERVICE_EXPORTS[name]}"
        )
        return getattr(module, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )

__all__ = [
    "build_stream",
    "insertion_only_stream",
    "light_deletion_stream",
    "massive_deletion_stream",
    "partition_stream",
    "is_feasible",
    "validate_stream",
    "ShardedStreamExecutor",
    "ShardWorker",
    "ShardTransport",
    "ProcessShardTransport",
    "TcpShardTransport",
    "HostAgent",
    "spawn_local_host",
    "default_shard_key",
    "partition_block",
    "partition_events",
    "vectorized_edge_hash",
    "RecoveryPolicy",
    "ShardSupervisor",
    "DEFAULT_RECOVERY_POLICY",
    "Fault",
    "FaultPlan",
    "StreamConfig",
    "StreamSession",
    "ServiceConfig",
    "CountingService",
    "SERVICE_ALGORITHMS",
    "StreamIngestServer",
    "ServiceClient",
    "StreamQueries",
    "StreamSnapshot",
    "run_query",
]
