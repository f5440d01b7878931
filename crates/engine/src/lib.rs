//! # engine — the sharded PIO engine
//!
//! The PIO B-tree (Roh et al., PVLDB 2011) exploits SSD-internal parallelism
//! *within* one tree: MPSearch, prange search and batch updates all issue psync
//! calls of up to `PioMax` outstanding I/Os. But a single tree still has one root,
//! one operation queue and one psync stream, so everything above the I/O layer is
//! serialised. This crate multiplies the paper's parallelism one level up:
//!
//! * [`ShardedPioEngine`] partitions the key space across `N` independent
//!   [`pio_btree::PioBTree`] shards, each with its own
//!   [`storage::CachedStore`], OPQ and (optional) WAL — one "index file" per shard,
//!   the layout the paper's Figure 4(b) shows behaves like independent psync
//!   streams;
//! * a **router** splits `multi_search` / `insert_batch` / `range_search` requests
//!   by shard and hands each shard's task to that shard's persistent worker
//!   thread (zero threads spawned per call); the caller collects its own
//!   completions by shard index and stitches them back into caller order;
//! * a **background maintenance worker** drains shard OPQs at a configurable fill
//!   threshold, moving bupdate flushes off the foreground critical path;
//! * [`EngineStats`] aggregates per-shard [`pio_btree::PioStats`], buffer-pool hit
//!   ratios and store counters, and separates *device work* (`total_io_us`) from
//!   the *schedule makespan* (`scheduled_io_us`) so the cross-shard overlap win is
//!   directly measurable;
//! * engine-wide **memory budgets** — [`EngineConfig`]'s `inner_tier_bytes`
//!   pins each shard's inner levels in memory ([`pio_btree::inner_tier`]:
//!   immutable snapshots behind a locked slot, republished at flush
//!   commits and re-pinned by the maintenance tick after crashes/migrations),
//!   and `leaf_cache_bytes` gives leaf regions a scan-resistant segmented-LRU
//!   cache; both divide across shards, are validated (non-zero, page-multiple)
//!   and roll up in [`EngineStats`] (`inner_tier_hit_rate`,
//!   `leaf_cache_hit_rate`);
//! * shard boundaries are chosen from a key sample at construction time
//!   (quantiles, topped up with uniform cuts), so a skewed key population still
//!   loads balanced shards;
//! * [`TreeTarget`] and the [`workload::IndexTarget`] implementation let the
//!   synthetic and TPC-C generators drive the engine (or a single tree) directly.
//!
//! ## Storage topology
//!
//! *Where* the shards live is a first-class, pluggable decision: engines are
//! constructed through one [`EngineBuilder`] over a [`ShardProvisioner`]
//! topology (the [`topology`] module):
//!
//! | topology | placement | what it shows |
//! |---|---|---|
//! | [`DevicePerShard`] | one simulated device per shard (default) | Figure 4(b)'s separate-file layout: free cross-shard overlap |
//! | [`SharedDevice`] | all shards as [`pio::PartitionIo`] partitions of **one** device | the paper's real claim — shards contending for one SSD's channels and host interface |
//! | [`RealFiles`] | one real file per shard + persisted manifest ([`pio::FileThreadPoolIo`]) | a persistent engine: survives the process, reopens via [`EngineBuilder::recover`] |
//! | [`EngineBackends`] (hand-built) | caller-supplied queues | the crash-injection seam of the recovery tests ([`pio::FaultIo`] wrappers) |
//!
//! ```
//! use engine::{EngineBuilder, EngineConfig, SharedDevice};
//!
//! let entries: Vec<(u64, u64)> = (0..10_000).map(|k| (k, k)).collect();
//! let engine = EngineBuilder::new(EngineConfig::default())
//!     .topology(SharedDevice) // all shards on ONE simulated SSD
//!     .entries(&entries)
//!     .build()
//!     .unwrap();
//! assert_eq!(engine.stats().topology, "shared-device");
//! ```
//!
//! Migration from the historic constructors:
//!
//! | old constructor | builder call |
//! |---|---|
//! | `ShardedPioEngine::create(cfg, sample)` | `EngineBuilder::new(cfg).key_sample(sample).build()` (still available as a thin wrapper) |
//! | `ShardedPioEngine::bulk_load(cfg, entries)` | `EngineBuilder::new(cfg).entries(entries).build()` (still available as a thin wrapper) |
//! | `ShardedPioEngine::bulk_load_with_sample(cfg, entries, sample)` | `EngineBuilder::new(cfg).entries(entries).key_sample(sample).build()` |
//! | `ShardedPioEngine::create_with_backends(cfg, sample, backends)` | `EngineBuilder::new(cfg).key_sample(sample).topology(backends).build()` |
//! | `ShardedPioEngine::bulk_load_with_backends(cfg, entries, backends)` | `EngineBuilder::new(cfg).entries(entries).topology(backends).build()` |
//!
//! A [`RealFiles`] engine persists an [`EngineManifest`] (shard boundaries plus
//! each shard's superblock: root, height, allocation frontier) at creation,
//! checkpoints, maintenance flushes and recovery; [`EngineBuilder::recover`]
//! reopens the directory, restores the snapshots and replays the WALs — root
//! growths and page allocations that happened after the last manifest sync are
//! rolled forward from the logs' `FlushRoot`/`FlushAlloc` records.
//!
//! ## Cross-shard crash recovery
//!
//! Each shard recovers from its own WAL (Section 3.4 of the paper), but a
//! batched insert fans one logical batch out to several shards — so with WALs
//! enabled, every [`ShardedPioEngine::insert_batch`] runs as a **two-phase flush
//! epoch** over a dedicated engine log (the [`epoch`] module): `Begin` is forced
//! before fan-out, each member shard appends its sub-batch inside an epoch
//! bracket of its own WAL and forces it, the per-shard `Ack`s are forced, and
//! `Commit` is forced last. [`ShardedPioEngine::recover`] replays the shard WALs
//! under the engine log's verdicts, making the batch all-or-nothing across
//! shards wherever the crash lands:
//!
//! | crash point | engine log state | recovery outcome |
//! |---|---|---|
//! | before `Begin` is durable | nothing | no shard ever saw the batch — absent |
//! | mid fan-out (some shards durable) | `Begin`, partial `Ack`s | epoch **discarded** on every shard: logical records dropped, and any flush that already applied them is unwound from its preimages |
//! | between the shards' durable writes and `Commit` | `Begin`, all `Ack`s | epoch **re-driven**: the batch is durable everywhere, so recovery writes the missing `Commit` and replays it — fully present |
//! | after `Commit` | complete | normal per-shard replay — fully present |
//!
//! Partial acks mean the batch *might* be missing on some shard, so the whole
//! epoch is dropped (presumed abort); a full ack set proves it is everywhere, so
//! the epoch is completed instead. Either way no partial batch is ever visible
//! after recovery — the property `tests/engine_recovery.rs` checks for scripted
//! crash points and hundreds of randomized ones against an in-memory oracle,
//! using the [`pio::fault`] crash-injection harness.
//!
//! ## Log lifecycle
//!
//! Left alone, the shard WALs and the engine epoch log grow without bound and
//! every recovery rescans the store's whole history. The engine closes the
//! loop with **checkpoint-anchored truncation**
//! ([`ShardedPioEngine::checkpoint`]):
//!
//! 1. **Incremental checkpoint** — per-shard dirty tracking
//!    ([`pio_btree::PioBTree::dirty_ops`]) selects only the shards that logged
//!    or queued work since their last checkpoint; clean shards are untouched,
//!    so the maintenance worker can run the whole thing on a timer
//!    ([`EngineConfig::checkpoint_interval_ms`]) under live traffic.
//! 2. **Anchored truncation** — once the flushes are durable and the manifest
//!    is synced (the superblocks recovery would need), each flushed shard's
//!    WAL drops everything below its new `Checkpoint` record via
//!    [`storage::Wal::truncate_to`] (an alternating-slot, checksummed header
//!    flip: a crash mid-truncation leaves the old head or the new one, never
//!    a torn in-between), and the engine log drops everything below the
//!    pre-flush cursor. Undecided epochs pin both: the coordinator floors the
//!    engine-log cut at the oldest in-flight `Begin`, and each tree floors
//!    its own cut at its oldest open epoch bracket.
//!    [`EngineConfig::log_retention_bytes`] keeps a configurable tail around.
//! 3. **Bounded recovery** — [`ShardedPioEngine::recover`] seeks each log to
//!    its truncation marker instead of byte 0, so the records it scans
//!    ([`EngineStats::recovery_replayed_records`]) track the work done since
//!    the last checkpoint, not the store's age. On [`RealFiles`], truncation
//!    also compacts the log region and shrinks the files on disk.
//!
//! `tests/log_lifecycle.rs` pins all three properties; the crash sweeps in
//! `tests/engine_recovery.rs` land crash points before, during and after the
//! truncation-marker writes and verify no acked write is ever lost.
//!
//! ## Elastic shard management
//!
//! Boundaries picked from a build-time key sample go stale under append-heavy
//! or skew-shifting traffic. The [`rebalance`] module keeps them live: a load
//! monitor (per-shard routed ops + OPQ queue pressure, also surfaced in
//! [`ShardSnapshot`]), a split/merge policy ([`rebalance::plan`]) and a
//! migration executor that moves a leaf region between adjacent shards as an
//! epoch-logged, crash-recoverable operation — `MigrateBegin{src,dst,range}`
//! forced first, region copies bracketed in both shards' WALs, then the
//! boundary-swap `MigrateCommit`. Reads and writes keep flowing throughout
//! (the moving range is dual-resolved, old shard authoritative until commit),
//! and recovery rolls an uncommitted migration back on both shards. Drive it
//! with [`ShardedPioEngine::rebalance_once`] or let the maintenance worker
//! tick it via [`RebalanceConfig::auto`]; knobs live in
//! [`EngineConfig::rebalance`] and are validated with the rest of the
//! configuration. See the [`rebalance`] module docs for the lifecycle diagram.
//!
//! ## Transient-fault tolerance
//!
//! Every shard queue — store, WAL, and the engine epoch log — is wrapped in
//! [`pio::ResilientIo`]: transient failures are retried with deterministic
//! exponential backoff, bounded by [`EngineConfig::retry_limit`] and the
//! per-ticket budget [`EngineConfig::io_deadline_us`] (backoff is *accounted*
//! into simulated latency, never slept). Page checksums are verified on every
//! device fetch, and the maintenance worker re-verifies a bounded slice of
//! each shard's pages per [`EngineConfig::scrub_interval_ms`] tick, healing
//! persistent rot from pooled copies that still verify. Three consecutive
//! device-class failures open a shard's **health breaker** — writes are
//! rejected with a clean retryable error, reads still try the caches — and
//! the next maintenance probe closes it once the device answers again. The
//! service front end adds per-request deadlines
//! ([`EngineConfig::request_deadline_ms`]) and bounded-admission load
//! shedding ([`EngineConfig::admission_queue_limit`]). Observability:
//! [`EngineStats::io_retries`], [`EngineStats::io_give_ups`],
//! [`EngineStats::integrity`], [`EngineStats::degraded_shards`],
//! [`EngineStats::breaker_opens`] / [`EngineStats::breaker_closes`].
//!
//! ## Quick example
//!
//! ```
//! use engine::{EngineConfig, ShardedPioEngine};
//! use pio_btree::PioConfig;
//! use ssd_sim::DeviceProfile;
//!
//! let config = EngineConfig::builder()
//!     .shards(4)
//!     .profile(DeviceProfile::P300)
//!     .base(PioConfig::builder().page_size(2048).pool_pages(512).build())
//!     .build();
//! let entries: Vec<(u64, u64)> = (0..10_000).map(|k| (k, k * 10)).collect();
//! let engine = ShardedPioEngine::bulk_load(config, &entries).unwrap();
//! assert_eq!(engine.search(1234).unwrap(), Some(12340));
//! let hits = engine.multi_search(&[1, 9_999, 20_000]).unwrap();
//! assert_eq!(hits, vec![Some(10), Some(99_990), None]);
//! let stats = engine.stats();
//! assert!(stats.scheduled_io_us <= stats.total_io_us);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod config;
pub mod epoch;
mod maintenance;
pub mod rebalance;
pub mod sharded;
pub mod stats;
pub mod target;
pub mod topology;
mod workers;

pub use builder::EngineBuilder;
pub use config::{EngineConfig, EngineConfigBuilder, RebalanceConfig};
pub use epoch::{EngineRecoveryReport, EpochAnalysis, EpochLog, EpochRecord, EpochState};
pub use rebalance::{MoveKind, RebalanceOutcome, RebalancePlan, ShardLoad};
pub use sharded::{boundaries_from_sample, ShardedPioEngine};
pub use stats::{EngineStats, ShardSnapshot};
pub use target::TreeTarget;
pub use topology::{
    DevicePerShard, EngineBackends, EngineManifest, ProvisionMode, RealFiles, ShardMeta, ShardProvisioner, SharedDevice,
};
