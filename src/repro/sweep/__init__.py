"""Design-space sweep engine with a persistent result store.

The paper's evaluation is a sweep over kernel x version x way x
configuration points.  This package makes that sweep a first-class
object:

* :mod:`repro.sweep.points` -- declarative axis specs and the named
  grids behind each figure;
* :mod:`repro.sweep.store` -- a content-addressed on-disk store keyed by
  point + resolved-configuration fingerprint + simulator code digest;
* :mod:`repro.sweep.engine` -- parallel execution over a process pool
  with deterministic chunking, warm-starting from the store;
* :mod:`repro.sweep.dispatch` -- the campaign orchestrator: shard a
  grid across pluggable executors, supervise/retry the workers, and
  merge + verify + promote the per-shard stores;
* :mod:`repro.sweep.remote` / :mod:`repro.sweep.transport` -- the
  supervised worker executor: shards on local worker slots or fleet
  hosts over pluggable transports, with heartbeat supervision,
  tarballed store shipping and elastic rebalancing of dead hosts'
  unfinished work.

``python -m repro sweep`` and ``python -m repro campaign`` are the CLI
front ends.
"""

from repro.sweep.dispatch import (
    CampaignError,
    CampaignManifest,
    CampaignReport,
    Executor,
    LocalExecutor,
    ShardOutcome,
    ShardStatus,
    campaign_status,
    load_fleet,
    make_executor,
    run_campaign,
    shard_command,
)
from repro.sweep.remote import RemoteExecutor
from repro.sweep.transport import (
    LocalTransport,
    LoopbackTransport,
    SshTransport,
    TRANSPORTS,
    Transport,
    TransportError,
    resolve_transport,
)
from repro.sweep.engine import (
    ShardProgress,
    SweepInterrupted,
    SweepReport,
    acquire_trace,
    compute_points,
    default_jobs,
    emulation_count,
    keys_progress,
    lookup_point,
    point_key,
    reset_simulation_count,
    resolve_configs,
    retime_stack,
    run_point,
    set_compute_budget,
    simulation_count,
    sweep,
    sweep_progress,
    trace_key,
)
from repro.sweep.points import (
    GRIDS,
    SweepPoint,
    dedupe,
    point_from_dict,
    read_points_file,
    reshard_keys,
    shard_assignment,
    fig4_points,
    fig5_points,
    fig6_points,
    fig7_points,
    full_points,
    grid,
    machine_grid,
    parse_shard_spec,
    shard,
    write_points_file,
)
from repro.sweep.store import (
    GcStats,
    ImportStats,
    MEMO,
    MergeStats,
    ResultStore,
    VerifyReport,
    code_version,
    config_fingerprint,
    default_store,
    peek_payload,
    shard_store_root,
    stable_hash,
    store_from_root,
)


def clear_memory_caches() -> None:
    """Forget every *in-process* memoised result (the store is untouched).

    Empties the store-scoped :data:`~repro.sweep.store.MEMO`.  Used by
    tests to distinguish memory warmth from store warmth.
    """
    MEMO.clear()


__all__ = [
    "GRIDS",
    "TRANSPORTS",
    "CampaignError",
    "CampaignManifest",
    "CampaignReport",
    "Executor",
    "GcStats",
    "ImportStats",
    "LocalExecutor",
    "LocalTransport",
    "LoopbackTransport",
    "MergeStats",
    "RemoteExecutor",
    "ResultStore",
    "ShardOutcome",
    "ShardProgress",
    "ShardStatus",
    "SshTransport",
    "SweepInterrupted",
    "SweepPoint",
    "SweepReport",
    "Transport",
    "TransportError",
    "VerifyReport",
    "acquire_trace",
    "campaign_status",
    "clear_memory_caches",
    "code_version",
    "compute_points",
    "config_fingerprint",
    "dedupe",
    "default_jobs",
    "default_store",
    "emulation_count",
    "keys_progress",
    "load_fleet",
    "lookup_point",
    "make_executor",
    "point_from_dict",
    "read_points_file",
    "reshard_keys",
    "resolve_transport",
    "run_campaign",
    "fig4_points",
    "fig5_points",
    "fig6_points",
    "fig7_points",
    "full_points",
    "grid",
    "machine_grid",
    "parse_shard_spec",
    "peek_payload",
    "point_key",
    "reset_simulation_count",
    "resolve_configs",
    "retime_stack",
    "run_point",
    "set_compute_budget",
    "shard",
    "shard_assignment",
    "shard_command",
    "shard_store_root",
    "simulation_count",
    "stable_hash",
    "sweep",
    "sweep_progress",
    "trace_key",
]
