//! Aggregated statistics of a [`crate::ShardedPioEngine`].

use btree::Key;
use pio_btree::PioStats;
use storage::{BufferPoolStats, IntegrityStats, LeafCacheStats, StoreStats};

/// A point-in-time snapshot of one shard.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// Shard index (position in key order).
    pub shard: usize,
    /// Inclusive lower bound of the shard's key range.
    pub key_lo: Key,
    /// Exclusive upper bound of the shard's key range (`Key::MAX` means the shard
    /// also owns `Key::MAX` itself).
    pub key_hi: Key,
    /// Tree height in levels.
    pub height: usize,
    /// Resolved ticket-pipeline depth of the shard tree's batched hot paths
    /// (`Auto` resolves against the shard's provisioned backend, so custom
    /// topologies may differ per shard).
    pub pipeline_depth: usize,
    /// Operations currently buffered in the shard's OPQ.
    pub opq_len: usize,
    /// OPQ capacity in entries.
    pub opq_capacity: usize,
    /// Point-request sub-batches this shard received through the engine's
    /// batched entry points (`multi_search` / `insert_batch`).
    pub batched_calls: u64,
    /// Point requests those sub-batches carried in total;
    /// `batched_ops / batched_calls` is the shard's average batch occupancy.
    pub batched_ops: u64,
    /// Requests routed to this shard (reads and writes alike, batched or not)
    /// since the previous [`crate::ShardedPioEngine::stats`] snapshot — the
    /// load half of the rebalancer's per-shard signal. Reset on read.
    pub routed_ops: u64,
    /// Peak OPQ fill observed after any write since the previous snapshot, as
    /// a percentage of capacity — the queue-pressure half of the rebalancer's
    /// signal. Reset on read.
    pub queue_peak_pct: u64,
    /// The shard tree's operation counters.
    pub pio: PioStats,
    /// Buffer-pool counters of the shard's cached store.
    pub pool: BufferPoolStats,
    /// Scan-resistant leaf-cache counters of the shard's cached store (all
    /// zero when [`crate::EngineConfig::leaf_cache_bytes`] is unset). The
    /// shard's inner-tier counters ride in [`ShardSnapshot::pio`].
    pub leaf_cache: LeafCacheStats,
    /// Page-store counters (psync batches, page reads/writes, allocation).
    pub store: StoreStats,
    /// Simulated I/O time this shard's store has consumed, µs.
    pub io_elapsed_us: f64,
    /// Logical WAL bytes a recovery of this shard would still scan (durable
    /// minus truncated; 0 without a WAL). Checkpoint-anchored truncation keeps
    /// this proportional to activity since the shard's last checkpoint.
    pub wal_replayable_bytes: u64,
    /// Whether the shard's health breaker is open: writes are being rejected
    /// with a retryable error until a maintenance probe heals the device.
    pub degraded: bool,
    /// Device-class failures observed in a row on the shard's foreground path
    /// (reset by any success; the breaker opens at 3).
    pub consecutive_failures: u64,
    /// Times this shard's breaker opened over the engine's lifetime.
    pub breaker_opens: u64,
    /// Times a maintenance probe closed this shard's breaker.
    pub breaker_closes: u64,
    /// Checksum-corruption errors this shard's foreground path returned.
    pub corruption_errors: u64,
    /// Page-checksum counters of the shard's store: verify failures and
    /// recoveries on the read path, plus background-scrub progress.
    pub integrity: IntegrityStats,
    /// Batches the shard's resilient I/O wrapper resubmitted after a
    /// transient failure (0 when [`crate::EngineConfig::retry_limit`] is 0).
    pub io_retries: u64,
    /// Attempts the wrapper abandoned after the retry budget or deadline ran
    /// out — each one surfaced to the caller as a retryable timeout.
    pub io_give_ups: u64,
}

/// Roll-up of every shard plus engine-level schedule accounting.
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Name of the storage topology the shards were provisioned on
    /// (`device-per-shard`, `shared-device`, `real-files`, …).
    pub topology: &'static str,
    /// Per-shard snapshots, in key order.
    pub shards: Vec<ShardSnapshot>,
    /// Sum of all shards' operation counters.
    pub rollup: PioStats,
    /// Sum of all shards' simulated I/O time, µs — the *device work* performed.
    pub total_io_us: f64,
    /// Schedule makespan, µs: per engine call, the participating shards issue their
    /// psync streams concurrently, so the call costs the *maximum* of the per-shard
    /// times; this field accumulates those maxima. With one shard it equals
    /// `total_io_us`; the gap between the two is the engine's I/O overlap win.
    pub scheduled_io_us: f64,
    /// Fan-outs dispatched to the shard workers (batched calls and maintenance
    /// passes). Single-key operations run on the calling thread and are not
    /// counted here.
    pub scheduled_batches: u64,
    /// Point-request sub-batches landed on shards through `multi_search` /
    /// `insert_batch` (sum over shards; each fan-out contributes one sub-batch
    /// per participating shard).
    pub batched_calls: u64,
    /// Point requests those sub-batches carried in total — the engine-level
    /// ground truth behind any front end's batch-occupancy metric (see
    /// [`EngineStats::avg_batch_occupancy`]).
    pub batched_ops: u64,
    /// Largest resolved ticket-pipeline depth across the shards (every shard's
    /// own value is in its [`ShardSnapshot::pipeline_depth`]; on the shipped
    /// topologies all shards resolve identically).
    pub pipeline_depth: usize,
    /// Aggregate buffer-pool hit ratio across shards in `[0, 1]`.
    pub pool_hit_ratio: f64,
    /// Sum of all shards' scan-resistant leaf-cache counters (all zero when
    /// [`crate::EngineConfig::leaf_cache_bytes`] is unset).
    pub leaf_cache: LeafCacheStats,
    /// Total operations buffered in shard OPQs.
    pub queued_ops: usize,
    /// Cross-shard flush epochs committed (one per `insert_batch` with WALs
    /// enabled, plus epochs completed by recovery).
    pub committed_epochs: u64,
    /// Uncommitted epochs that recovery found durable on every member shard and
    /// re-drove (committed).
    pub recovered_epochs: u64,
    /// Uncommitted epochs that recovery discarded on every member shard.
    pub discarded_epochs: u64,
    /// Hot shards split at a median key since the engine was built (see the
    /// `rebalance` module).
    pub splits: u64,
    /// Cold shard ranges merged into a neighbour since the engine was built.
    pub merges: u64,
    /// Keys moved between shards by migrations in total.
    pub migrated_keys: u64,
    /// Migrations whose `MigrateCommit` recovery found durable and whose
    /// boundary swap it re-applied.
    pub committed_migrations: u64,
    /// Uncommitted migrations recovery rolled back (discarded on both shards;
    /// a migration epoch is never re-driven).
    pub rolled_back_migrations: u64,
    /// Whether a shard migration was in flight when this snapshot was taken
    /// (shard key ranges then overlap transiently; the old shard stays
    /// authoritative until commit).
    pub active_migration: bool,
    /// Bumped on every boundary change; front ends compare it across
    /// snapshots to notice a rebalance without diffing bound vectors.
    pub routing_version: u64,
    /// Checkpoints completed over the engine's lifetime (foreground calls and
    /// the maintenance worker's `checkpoint_interval_ms` ticks alike).
    pub checkpoints: u64,
    /// Logical log bytes dropped by checkpoint-anchored truncation over the
    /// lifetime, across the shard WALs and the engine epoch log.
    pub truncated_bytes: u64,
    /// Log records scanned by the most recent
    /// [`crate::ShardedPioEngine::recover`] (every shard's WAL analysis pass
    /// plus the epoch-log scan; 0 before any recovery). The bounded-recovery
    /// observable: with checkpointing active it tracks the work done since the
    /// last checkpoint, not the engine's age.
    pub recovery_replayed_records: u64,
    /// Logical bytes a recovery would still scan in the engine epoch log
    /// (0 without WALs).
    pub epoch_log_bytes: u64,
    /// Shards whose health breaker is currently open (degraded: writes
    /// rejected with a retryable error until a maintenance probe heals them).
    pub degraded_shards: usize,
    /// Breaker-open events across all shards, lifetime.
    pub breaker_opens: u64,
    /// Breaker-close (probe-healed) events across all shards, lifetime.
    pub breaker_closes: u64,
    /// Sum of all shards' page-checksum counters (read-verify failures and
    /// recoveries, scrub progress and heals).
    pub integrity: IntegrityStats,
    /// Batches resubmitted by the shards' resilient I/O wrappers after
    /// transient failures, summed.
    pub io_retries: u64,
    /// Attempts those wrappers abandoned (retry budget or deadline exhausted),
    /// summed.
    pub io_give_ups: u64,
    /// Maintenance passes that flushed at least one shard.
    pub maintenance_flushes: u64,
    /// Background maintenance passes that failed with an I/O error. A non-zero
    /// value means some shard's flush failed off the foreground path; the batch
    /// stays queued, but partially applied node writes may need WAL recovery.
    pub maintenance_errors: u64,
    /// Message of the most recent background maintenance error, if any.
    pub last_maintenance_error: Option<String>,
}

impl EngineStats {
    /// `total_io_us / scheduled_io_us`: the effective cross-shard I/O overlap
    /// factor (1.0 = fully serialised, `shards` = perfect overlap).
    pub fn overlap_factor(&self) -> f64 {
        if self.scheduled_io_us <= 0.0 {
            return 1.0;
        }
        self.total_io_us / self.scheduled_io_us
    }

    /// Total logical log bytes a full engine recovery would still scan: every
    /// shard's replayable WAL bytes plus the engine epoch log's. The quantity
    /// checkpoint-anchored truncation bounds.
    pub fn replayable_log_bytes(&self) -> u64 {
        self.epoch_log_bytes + self.shards.iter().map(|s| s.wal_replayable_bytes).sum::<u64>()
    }

    /// Average point requests per per-shard sub-batch across the engine's
    /// lifetime (`batched_ops / batched_calls`; 0.0 before the first batched
    /// call). A service front end coalescing independent requests should report
    /// an occupancy that matches this engine-level measurement.
    pub fn avg_batch_occupancy(&self) -> f64 {
        if self.batched_calls == 0 {
            return 0.0;
        }
        self.batched_ops as f64 / self.batched_calls as f64
    }

    /// Fraction of descent probes the pinned inner tier answered without any
    /// store I/O, across all shards (`rollup.inner_tier_hits / (hits+misses)`;
    /// 0.0 when the tier is disabled or never probed).
    pub fn inner_tier_hit_rate(&self) -> f64 {
        let total = self.rollup.inner_tier_hits + self.rollup.inner_tier_misses;
        if total == 0 {
            return 0.0;
        }
        self.rollup.inner_tier_hits as f64 / total as f64
    }

    /// Aggregate scan-resistant leaf-cache hit ratio across shards (point
    /// lookups only — scan-hinted traffic is excluded by construction; 0.0
    /// when the cache is disabled or never probed).
    pub fn leaf_cache_hit_rate(&self) -> f64 {
        self.leaf_cache.hit_ratio()
    }
}
