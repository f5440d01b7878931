//! The sharded PIO engine: key-range partitioning and the cross-shard parallel
//! fan-out.
//!
//! ## Partitioning
//!
//! The key space is cut into `N` contiguous ranges by `N − 1` boundary keys chosen
//! from a key sample at [`ShardedPioEngine::create`] / [`ShardedPioEngine::bulk_load`]
//! time (quantiles of the sample, topped up with uniform cuts if the sample is too
//! small or skewed). Shard `i` owns `[bounds[i-1], bounds[i])`; the last shard also
//! owns `Key::MAX`. Every shard is a complete [`PioBTree`] with its own
//! [`storage::CachedStore`], operation queue and (optional) WAL — the engine-level
//! analogue of the paper's one-index-per-file layout, which Figure 4(b) shows
//! behaves like independent psync streams.
//!
//! ## Fan-out
//!
//! Batch entry points (`multi_search`, `insert_batch`, `range_search`,
//! `checkpoint`, `maintain_once`) split their work by shard and hand each task to
//! that shard's **persistent worker thread** (the `workers` module). The calling
//! thread then waits for its own completions. Batched calls spawn **zero**
//! threads. Because the stores simulate time rather than sleep, cross-shard
//! overlap is accounted explicitly: once a call's last completion lands, the
//! caller adds the **maximum** of the participating shards' simulated I/O deltas
//! to the schedule makespan ([`crate::EngineStats::scheduled_io_us`]), while the
//! sum of all deltas remains visible as `total_io_us`. The ratio of the two is
//! the measured overlap win. Results are always collected by shard index — never
//! by completion order — so fan-outs are deterministic.

use crate::builder::EngineBuilder;
use crate::config::EngineConfig;
use crate::epoch::{EngineRecoveryReport, EpochLog, MigrationSpec};
use crate::maintenance::MaintenanceWorker;
use crate::stats::{EngineStats, ShardSnapshot};
use crate::topology::{EngineBackends, EngineManifest, ShardMeta, ShardProvisioner};
use crate::workers::{ShardTask, ShardWorkers, TaskOutput};
use btree::{Key, Value};
use parking_lot::{Mutex, RwLock};
use pio::{IoQueue, IoResult, ParallelIo};
use pio_btree::{OpEntry, OpKind, PioBTree, PioConfig, PioStats};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use storage::{CachedStore, LeafCacheStats, Lsn, PageStore, Wal, WritePolicy};

/// One key-range shard: an independent PIO B-tree. Its key range is *not*
/// stored here — ranges live in the engine's [`RoutingState`] so a boundary
/// migration can move them without touching the shard itself.
pub(crate) struct Shard {
    /// Shared with the shard's worker thread, which runs fan-out tasks on it.
    tree: Arc<Mutex<PioBTree>>,
    /// Point-request sub-batches this shard received through the batched entry
    /// points (`multi_search` / `insert_batch`) over the engine's lifetime.
    batched_calls: AtomicU64,
    /// Point requests those sub-batches carried in total; `batched_ops /
    /// batched_calls` is the shard's average batch occupancy — the engine-level
    /// ground truth for the service front end's occupancy metric.
    batched_ops: AtomicU64,
    /// Requests routed to this shard since the last [`EngineStats`] snapshot
    /// (reset by `stats()`): the per-window load signal.
    routed_since: AtomicU64,
    /// Requests routed to this shard over the engine's lifetime (monotonic):
    /// the rebalance monitor diffs this against its own baseline, so its
    /// windows are independent of how often anyone calls `stats()`.
    routed_total: AtomicU64,
    /// Peak OPQ fill (percent of capacity) observed after any write since the
    /// last [`EngineStats`] snapshot (reset by `stats()`): the queue-pressure
    /// signal. Behind an `Arc` so batched-write task closures can update it
    /// from the worker threads.
    queue_peak_pct: Arc<AtomicU64>,
    /// Health breaker of this shard's device (see [`ShardHealth`]).
    health: ShardHealth,
}

/// Consecutive device failures that trip a shard's breaker open. Transient
/// errors below this are already being absorbed by the retry wrapper — a run
/// of failures that *survives* retrying means the device is sick, not noisy.
const BREAKER_THRESHOLD: u64 = 3;

/// Circuit breaker over one shard's device health. Device-class failures
/// (OS errors, worker crashes, checksum corruption) on the shard's foreground
/// path feed a consecutive-failure counter; at [`BREAKER_THRESHOLD`] the
/// breaker opens and the shard is *degraded*: writes are rejected immediately
/// with a retryable error (instead of queueing work onto a sick device), reads
/// are still attempted — the inner tier, buffer pool and leaf cache keep
/// serving whatever they hold. The background maintenance worker probes a
/// degraded shard's device each sweep and closes the breaker when a probe
/// succeeds.
#[derive(Default)]
pub(crate) struct ShardHealth {
    /// Device-class failures observed in a row (reset by any success).
    consecutive_failures: AtomicU64,
    /// Whether the breaker is open (shard degraded).
    open: std::sync::atomic::AtomicBool,
    /// Times the breaker opened, lifetime.
    opens: AtomicU64,
    /// Times a maintenance probe closed it, lifetime.
    closes: AtomicU64,
    /// Checksum-corruption errors observed on this shard, lifetime.
    corruption_errors: AtomicU64,
}

impl ShardHealth {
    fn is_open(&self) -> bool {
        self.open.load(Ordering::Relaxed)
    }

    /// Whether `error` indicts the device (as opposed to a caller mistake like
    /// an out-of-bounds request, which says nothing about device health).
    fn indicts_device(error: &pio::IoError) -> bool {
        matches!(
            error,
            pio::IoError::Os(_) | pio::IoError::WorkerFailed(_) | pio::IoError::Corruption { .. }
        )
    }

    /// Feeds one operation outcome into the breaker. Successes heal the
    /// consecutive-failure count; device-class failures grow it and trip the
    /// breaker at the threshold.
    fn observe<T>(&self, result: &IoResult<T>) {
        match result {
            Ok(_) => {
                self.consecutive_failures.store(0, Ordering::Relaxed);
            }
            Err(e) if Self::indicts_device(e) => {
                if matches!(e, pio::IoError::Corruption { .. }) {
                    self.corruption_errors.fetch_add(1, Ordering::Relaxed);
                }
                let run = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
                if run >= BREAKER_THRESHOLD && !self.open.swap(true, Ordering::Relaxed) {
                    self.opens.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {}
        }
    }

    /// Closes the breaker after a successful probe.
    fn close(&self) {
        self.consecutive_failures.store(0, Ordering::Relaxed);
        if self.open.swap(false, Ordering::Relaxed) {
            self.closes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The retryable rejection a degraded shard answers writes with.
    fn rejection(shard: usize) -> pio::IoError {
        pio::IoError::Os(std::io::Error::new(
            std::io::ErrorKind::WouldBlock,
            format!("shard {shard} is degraded (circuit breaker open); retry after the next maintenance probe"),
        ))
    }
}

impl Shard {
    fn new(tree: PioBTree) -> Self {
        Self {
            tree: Arc::new(Mutex::new(tree)),
            batched_calls: AtomicU64::new(0),
            batched_ops: AtomicU64::new(0),
            routed_since: AtomicU64::new(0),
            routed_total: AtomicU64::new(0),
            queue_peak_pct: Arc::new(AtomicU64::new(0)),
            health: ShardHealth::default(),
        }
    }

    /// Counts one point-request sub-batch of `ops` requests landing on this shard.
    fn note_batch(&self, ops: usize) {
        self.batched_calls.fetch_add(1, Ordering::Relaxed);
        self.batched_ops.fetch_add(ops as u64, Ordering::Relaxed);
        self.note_routed(ops as u64);
    }

    /// Counts `ops` requests routed to this shard (window + lifetime signals).
    fn note_routed(&self, ops: u64) {
        self.routed_since.fetch_add(ops, Ordering::Relaxed);
        self.routed_total.fetch_add(ops, Ordering::Relaxed);
    }
}

/// Folds the OPQ fill after a write into the shard's queue-pressure peak.
fn note_queue_peak(peak: &AtomicU64, tree: &PioBTree) {
    let pct = (tree.opq_len() * 100 / tree.opq_capacity().max(1)) as u64;
    peak.fetch_max(pct, Ordering::Relaxed);
}

/// A boundary migration in flight (installed in [`RoutingState`] for its whole
/// duration). Until the commit swaps the boundary, the routing table is
/// unchanged — the source shard stays authoritative for the moving range — and
/// every write that lands in the captured range is also appended to `dirty` so
/// the committed state includes writes that raced the region copy.
pub(crate) struct ActiveMigration {
    /// The shard losing keys.
    src: usize,
    /// The adjacent shard gaining them.
    dst: usize,
    /// Captured range (the source shard's full range at install time): writes
    /// inside it are mirrored into `dirty`.
    lo: Key,
    hi: Key,
    /// Ordered log of writes that hit the captured range after the snapshot.
    /// Pushed under the owning shard's tree lock, so its order matches the
    /// order the writes applied in; drained under the routing write lock.
    dirty: Arc<Mutex<Vec<OpEntry>>>,
}

/// The live routing table: boundary keys plus the (at most one) migration in
/// flight. Every request path holds the read half for its whole operation, so
/// acquiring the write half is a barrier that drains in-flight requests — the
/// commit's boundary swap can never race a request routed under the old
/// bounds.
pub(crate) struct RoutingState {
    /// Boundary keys; shard `i` owns keys `< bounds[i]` (and `≥ bounds[i-1]`).
    /// Non-decreasing: two equal adjacent bounds denote an empty (merged-away)
    /// shard, which `partition_point` routing handles naturally.
    bounds: Vec<Key>,
    /// The migration in flight, if any.
    migration: Option<ActiveMigration>,
    /// Bumped on every boundary change (diagnostics; lets front ends detect
    /// topology movement cheaply).
    version: u64,
}

/// The engine side of the two-phase flush-epoch protocol (present only when the
/// per-shard WALs are enabled).
pub(crate) struct EpochCoordinator {
    log: EpochLog,
    /// Next epoch id to assign (continued past the log's maximum on recovery).
    next_epoch: AtomicU64,
    /// `Begin`-record LSN of every epoch that is still undecided (begun but not
    /// yet committed or abandoned). Checkpoint truncation of the engine log may
    /// not pass the minimum of these pins: dropping an undecided epoch's
    /// `Begin` would make recovery treat its shard-side brackets as orphans.
    /// Registered *before* `EpochLog::begin` forces the record and removed
    /// after the commit force, so the pin conservatively covers the whole
    /// undecided window.
    in_flight: Mutex<std::collections::BTreeMap<u64, Lsn>>,
}

impl EpochCoordinator {
    /// The LSN below which the engine log may be truncated without losing an
    /// undecided epoch, given a candidate checkpoint cut `upto`.
    fn truncation_floor(&self, upto: Lsn) -> Lsn {
        let pins = self.in_flight.lock();
        // Minimum pinned LSN, not the first map entry: epoch ids are allocated
        // outside this lock, so id order need not match Begin-LSN order.
        match pins.values().min() {
            Some(&pin) => upto.min(pin),
            None => upto,
        }
    }
}

/// Shared state between the engine handle, the fan-out callers and the
/// background maintenance worker.
pub(crate) struct EngineInner {
    shards: Vec<Shard>,
    /// The live routing table (bounds + in-flight migration); see
    /// [`RoutingState`] for the locking discipline.
    routing: RwLock<RoutingState>,
    config: EngineConfig,
    /// The storage topology the shards were provisioned on (manifest persistence
    /// for durable topologies; no-ops for the simulated ones).
    topology: Box<dyn ShardProvisioner>,
    /// The last manifest snapshot handed to the topology, so
    /// [`EngineInner::sync_manifest`] only persists actual changes.
    manifest: Mutex<Option<EngineManifest>>,
    /// Dirty-marker state: whether the topology's durable marker is raised,
    /// plus the counters that let a checkpoint prove no mutation raced its
    /// clear (see [`EngineInner::begin_mutation`] and
    /// [`EngineInner::checkpoint`]).
    dirty: Mutex<DirtyState>,
    /// Cross-shard batch-atomicity coordinator (`None` without WALs).
    epoch: Option<EpochCoordinator>,
    /// Epochs committed over the engine's lifetime.
    committed_epochs: AtomicU64,
    /// Uncommitted-but-fully-acked epochs completed by `recover`.
    recovered_epochs: AtomicU64,
    /// Uncommitted epochs discarded on every shard by `recover`.
    discarded_epochs: AtomicU64,
    /// Accumulated schedule makespan in µs (see the module docs).
    scheduled_us: Mutex<f64>,
    /// The per-shard worker threads that run fan-out tasks.
    pub(crate) workers: ShardWorkers,
    /// Fan-outs dispatched to the shard workers over the engine's lifetime.
    scheduled_batches: AtomicU64,
    /// Splits (hot shard cut at a median key) completed over the lifetime.
    splits: AtomicU64,
    /// Merges (cold shard emptied into a neighbour) completed over the lifetime.
    merges: AtomicU64,
    /// Entries moved between shards by migrations over the lifetime.
    migrated_keys: AtomicU64,
    /// Committed migrations whose boundary was re-applied by `recover`.
    committed_migrations: AtomicU64,
    /// Uncommitted migrations rolled back by `recover`.
    rolled_back_migrations: AtomicU64,
    /// The rebalance monitor's per-shard `routed_total` baseline: the window a
    /// policy decision sees is the delta since the previous decision.
    rebalance_baseline: Mutex<Vec<u64>>,
    /// Checkpoints completed over the engine's lifetime.
    checkpoints: AtomicU64,
    /// Logical log bytes dropped by checkpoint-anchored truncation over the
    /// lifetime (shard WALs + engine epoch log).
    truncated_bytes: AtomicU64,
    /// Log records scanned by the most recent `recover` (shard WAL analysis
    /// passes plus the epoch-log scan) — the bounded-recovery observable.
    recovery_replayed_records: AtomicU64,
    /// Maintenance passes that flushed at least one shard.
    maintenance_flushes: AtomicU64,
    /// Background maintenance passes that returned an I/O error.
    maintenance_errors: AtomicU64,
    /// Message of the most recent background maintenance error.
    last_maintenance_error: Mutex<Option<String>>,
}

impl EngineInner {
    /// Records a background maintenance failure so it surfaces through
    /// [`EngineStats`] instead of disappearing in the worker thread.
    pub(crate) fn note_maintenance_error(&self, error: &pio::IoError) {
        self.maintenance_errors.fetch_add(1, Ordering::Relaxed);
        *self.last_maintenance_error.lock() = Some(error.to_string());
    }

    /// Counts one completed fan-out.
    pub(crate) fn note_scheduled_batch(&self) {
        self.scheduled_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// The current manifest snapshot: shard boundaries plus each shard's
    /// superblock (root, height, allocation frontier).
    fn manifest_snapshot(&self) -> EngineManifest {
        EngineManifest {
            shards: self.shards.len(),
            page_size: self.config.base.page_size,
            wal_enabled: self.config.base.wal_enabled,
            bounds: self.routing.read().bounds.clone(),
            shard_meta: self
                .shards
                .iter()
                .map(|s| {
                    let tree = s.tree.lock();
                    ShardMeta {
                        root: tree.root_page(),
                        height: tree.height() as u64,
                        high_water: tree.store().store().high_water_pages(),
                    }
                })
                .collect(),
        }
    }

    /// Opens a mutation bracket: raises the durable dirty marker (only the
    /// first mutation after a checkpoint pays the topology call) and counts the
    /// mutation, so a concurrent [`EngineInner::checkpoint`] can prove whether
    /// its clear raced a writer. The returned guard closes the bracket on drop.
    pub(crate) fn begin_mutation(&self) -> IoResult<MutationGuard<'_>> {
        let mut state = self.dirty.lock();
        state.begun += 1;
        state.in_flight += 1;
        if !state.marked {
            if let Err(e) = self.topology.set_dirty(true) {
                state.in_flight -= 1;
                return Err(e);
            }
            state.marked = true;
        }
        drop(state);
        Ok(MutationGuard { inner: self })
    }

    /// Persists the manifest through the topology when it changed since the
    /// last sync. Called after creation, checkpoints, maintenance flushes and
    /// recovery — the points where shard superblocks move durably. Roots moved
    /// by foreground flushes *between* syncs are covered by the WAL's
    /// `FlushRoot`/`FlushAlloc` roll-forward at the next recovery; without a
    /// WAL the manifest is only as fresh as the last checkpoint (see
    /// [`crate::RealFiles`]).
    pub(crate) fn sync_manifest(&self) -> IoResult<()> {
        // Snapshot under the manifest lock: two concurrent syncs (checkpoint +
        // background maintenance) must not save an older snapshot after a newer
        // one. No other path acquires shard locks after the manifest lock, so
        // the ordering is cycle-free.
        let mut cached = self.manifest.lock();
        let snapshot = self.manifest_snapshot();
        if cached.as_ref() != Some(&snapshot) {
            self.topology.save_manifest(&snapshot)?;
            *cached = Some(snapshot);
        }
        Ok(())
    }
}

/// A key-range-sharded PIO B-tree engine with cross-shard parallel fan-out.
///
/// All operations take `&self`; per-shard trees are behind their own mutexes, so
/// client threads operating on different shards proceed concurrently (unlike a
/// single `Mutex<PioBTree>`, which serialises every operation). Batched calls
/// hand one task per shard to that shard's persistent worker thread and collect
/// the completions on the calling thread — no threads are spawned per call.
pub struct ShardedPioEngine {
    // Field order is drop order: the maintenance worker stops first (it issues
    // fan-outs), then the shared state, whose worker pool drains and joins the
    // shard workers.
    worker: Option<MaintenanceWorker>,
    inner: Arc<EngineInner>,
}

impl std::fmt::Debug for ShardedPioEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedPioEngine")
            .field("shards", &self.inner.shards.len())
            .field("bounds", &self.inner.routing.read().bounds)
            .field("background_maintenance", &self.worker.is_some())
            .finish()
    }
}

/// Chooses `shards − 1` strictly increasing boundary keys: quantiles of `sample`,
/// topped up with uniform cuts of the remaining key space when the sample has too
/// few distinct keys.
pub fn boundaries_from_sample(sample: &[Key], shards: usize) -> Vec<Key> {
    if shards <= 1 {
        return Vec::new();
    }
    let mut sorted = sample.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    boundaries_from_sorted(sorted.len(), |i| sorted[i], shards)
}

/// Quantile + top-up boundary selection over an already sorted, duplicate-free
/// sequence accessed through `key_at` — the zero-copy path used by
/// [`ShardedPioEngine::bulk_load`], whose entries are sorted by contract.
pub(crate) fn boundaries_from_sorted(len: usize, key_at: impl Fn(usize) -> Key, shards: usize) -> Vec<Key> {
    if shards <= 1 {
        return Vec::new();
    }
    let mut bounds: Vec<Key> = Vec::with_capacity(shards - 1);
    if len > 0 {
        for i in 1..shards {
            let idx = (i * len / shards).min(len - 1);
            let candidate = key_at(idx);
            if bounds.last().is_none_or(|&prev| candidate > prev) && candidate > 0 {
                bounds.push(candidate);
            }
        }
    }
    // Top up by repeatedly cutting the largest remaining gap in half (with 0 and
    // `Key::MAX` as sentinels), so the chooser stays total even when the sample
    // clusters at either end of the key space.
    while bounds.len() < shards - 1 {
        let mut best: Option<(Key, usize, Key)> = None; // (gap, insert position, new cut)
        let mut prev = 0;
        for (i, &b) in bounds.iter().chain(std::iter::once(&Key::MAX)).enumerate() {
            let gap = b - prev;
            // A cut strictly between `prev` and `b` needs a gap of at least 2.
            if gap >= 2 && best.is_none_or(|(g, _, _)| gap > g) {
                best = Some((gap, i, prev + gap / 2));
            }
            prev = b;
        }
        let Some((_, pos, cut)) = best else {
            // The key space has fewer representable cut points than requested
            // shards (only possible for absurd shard counts).
            break;
        };
        bounds.insert(pos, cut);
    }
    bounds
}

/// State of the durable dirty marker (see [`crate::ShardProvisioner::set_dirty`]).
#[derive(Debug, Default)]
struct DirtyState {
    /// Whether the durable marker is currently raised.
    marked: bool,
    /// Mutations that have *begun* over the engine's lifetime (monotonic).
    begun: u64,
    /// Mutations begun but not yet finished.
    in_flight: u64,
}

/// RAII half of a mutation bracket: decrements `in_flight` when the mutation
/// finishes (success or error alike).
pub(crate) struct MutationGuard<'a> {
    inner: &'a EngineInner,
}

impl Drop for MutationGuard<'_> {
    fn drop(&mut self) {
        self.inner.dirty.lock().in_flight -= 1;
    }
}

/// The key range `[lo, hi)` of shard `i` under `bounds` (`hi == Key::MAX` for
/// the last shard, which also owns `Key::MAX` itself).
pub(crate) fn shard_range(bounds: &[Key], i: usize, shards: usize) -> (Key, Key) {
    let lo = if i == 0 { 0 } else { bounds[i - 1] };
    let hi = if i == shards - 1 { Key::MAX } else { bounds[i] };
    (lo, hi)
}

/// The shard index owning `key` under `bounds`. Free function so request paths
/// already holding the routing lock never re-enter it.
fn shard_of(bounds: &[Key], key: Key) -> usize {
    bounds.partition_point(|&b| b <= key)
}

/// Builds a fresh cached store over a provisioned backend. With a retry policy
/// the backend is wrapped in [`pio::ResilientIo`], so transient device errors
/// are retried with backoff below the store (backoff is charged into simulated
/// latency, never slept — the engine's backends simulate time).
fn build_store(cfg: &PioConfig, retry: Option<pio::RetryPolicy>, store_io: Arc<dyn IoQueue>) -> Arc<CachedStore> {
    let store_io: Arc<dyn IoQueue> = match retry {
        Some(policy) => Arc::new(pio::ResilientIo::new(store_io, policy)),
        None => store_io,
    };
    Arc::new(CachedStore::new(
        PageStore::new(store_io, cfg.page_size),
        cfg.pool_pages,
        WritePolicy::WriteThrough,
    ))
}

/// Attaches a WAL over a provisioned backend: the log gets its own queue so log
/// appends never interleave with index-node I/O inside one psync call. The same
/// retry policy that guards the store wraps the log queue — a dropped WAL
/// append would fail an otherwise healthy flush epoch.
fn attach_shard_wal(tree: &mut PioBTree, cfg: &PioConfig, retry: Option<pio::RetryPolicy>, wal_io: Arc<dyn IoQueue>) {
    let wal_io: Arc<dyn IoQueue> = match retry {
        Some(policy) => Arc::new(pio::ResilientIo::new(wal_io, policy)),
        None => wal_io,
    };
    tree.attach_wal(Wal::new(Arc::new(wal_io) as Arc<dyn ParallelIo>, 0, cfg.page_size));
}

/// Bulk loads one shard tree over its provisioned store backend (its own
/// "index file" — a simulated device, a partition of a shared device, or a
/// real file, per the topology).
fn build_shard_tree(
    cfg: &PioConfig,
    retry: Option<pio::RetryPolicy>,
    entries: &[(Key, Value)],
    store_io: Arc<dyn IoQueue>,
    wal_io: Option<Arc<dyn IoQueue>>,
) -> IoResult<PioBTree> {
    let mut tree = PioBTree::bulk_load(build_store(cfg, retry, store_io), entries, cfg.clone())?;
    if cfg.wal_enabled {
        let wal_io = wal_io.expect("validated: one WAL backend per shard when the WAL is enabled");
        attach_shard_wal(&mut tree, cfg, retry, wal_io);
    }
    Ok(tree)
}

impl ShardedPioEngine {
    // ------------------------------------------------------------------ creation --

    /// Creates an empty engine on the default [`crate::DevicePerShard`] topology.
    /// `key_sample` guides the shard boundaries (pass the expected key
    /// population, or `&[]` for uniform cuts of the full `u64` space). Thin
    /// delegation to [`EngineBuilder`]; use the builder directly to choose a
    /// topology.
    pub fn create(config: EngineConfig, key_sample: &[Key]) -> IoResult<Self> {
        EngineBuilder::new(config).key_sample(key_sample).build()
    }

    /// Bulk loads `entries` (sorted, duplicate-free) into a fresh engine on the
    /// default [`crate::DevicePerShard`] topology, using the entry keys
    /// themselves as the boundary sample (read in place — no key copy). Thin
    /// delegation to [`EngineBuilder`]; use the builder directly to choose a
    /// topology.
    pub fn bulk_load(config: EngineConfig, entries: &[(Key, Value)]) -> IoResult<Self> {
        EngineBuilder::new(config).entries(entries).build()
    }

    pub(crate) fn check_sorted(entries: &[(Key, Value)]) {
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "bulk_load requires sorted, duplicate-free input"
        );
    }

    /// The provisioned backends must match the configuration before anything is
    /// built on them.
    fn validate_backends(config: &EngineConfig, backends: &EngineBackends) -> IoResult<()> {
        let wal = config.base.wal_enabled;
        if backends.shard_stores.len() != config.shards
            || (wal && (backends.shard_wals.len() != config.shards || backends.engine_wal.is_none()))
        {
            return Err(pio::IoError::InvalidConfig(format!(
                "the topology must supply one store{} backend per shard ({} shards){}",
                if wal { " and one WAL" } else { "" },
                config.shards,
                if wal { " plus the engine epoch-log backend" } else { "" },
            )));
        }
        Ok(())
    }

    /// The cross-shard epoch coordinator exists exactly when the shards log:
    /// without per-shard WALs there is nothing to make atomic.
    fn build_epoch_coordinator(
        shard_cfg: &PioConfig,
        retry: Option<pio::RetryPolicy>,
        backends: &mut EngineBackends,
    ) -> Option<EpochCoordinator> {
        shard_cfg.wal_enabled.then(|| {
            let engine_wal = backends
                .engine_wal
                .take()
                .expect("validated: engine WAL backend present");
            // The epoch log anchors cross-shard atomicity; it gets the same
            // transient-error shielding as every other engine queue.
            let engine_wal: Arc<dyn IoQueue> = match retry {
                Some(policy) => Arc::new(pio::ResilientIo::new(engine_wal, policy)),
                None => engine_wal,
            };
            let wal_io: Arc<dyn ParallelIo> = Arc::new(engine_wal);
            EpochCoordinator {
                log: EpochLog::new(Wal::new(wal_io, 0, shard_cfg.page_size)),
                next_epoch: AtomicU64::new(1),
                in_flight: Mutex::new(std::collections::BTreeMap::new()),
            }
        })
    }

    /// Assembles a fresh engine over provisioned backends: splits the (sorted)
    /// entries at the boundary keys, bulk loads every shard, and persists the
    /// initial manifest snapshot. Called by [`EngineBuilder::build`].
    pub(crate) fn assemble(
        config: EngineConfig,
        entries: &[(Key, Value)],
        bounds: Vec<Key>,
        mut backends: EngineBackends,
        topology: Box<dyn ShardProvisioner>,
    ) -> IoResult<Self> {
        if bounds.len() != config.shards - 1 {
            return Err(pio::IoError::InvalidConfig(format!(
                "key space cannot be cut into {} shards",
                config.shards
            )));
        }
        Self::validate_backends(&config, &backends)?;
        let shard_cfg = config.shard_config();

        // Split the (sorted) entries at the boundary keys.
        let mut shards = Vec::with_capacity(config.shards);
        let mut build_makespan_us = 0.0f64;
        let mut rest = entries;
        for i in 0..config.shards {
            let (_, hi) = shard_range(&bounds, i, config.shards);
            let cut = if i == config.shards - 1 {
                rest.len()
            } else {
                rest.partition_point(|&(k, _)| k < hi)
            };
            let (mine, others) = rest.split_at(cut);
            rest = others;
            let tree = build_shard_tree(
                &shard_cfg,
                config.retry_policy(),
                mine,
                Arc::clone(&backends.shard_stores[i]),
                backends.shard_wals.get(i).cloned(),
            )?;
            // Shard loads run as concurrent streams like every other engine
            // operation, so the schedule is charged the slowest shard's build.
            build_makespan_us = build_makespan_us.max(tree.io_elapsed_us());
            shards.push(Shard::new(tree));
        }
        let epoch = Self::build_epoch_coordinator(&shard_cfg, config.retry_policy(), &mut backends);
        // A freshly built engine is clean: clear any stale marker left in the
        // topology's durable state by a previous incarnation.
        topology.set_dirty(false)?;
        let engine = Self::finish(config, shards, bounds, epoch, build_makespan_us, topology, None, false);
        engine.inner.sync_manifest()?;
        Ok(engine)
    }

    /// Reopens a persisted engine over its existing storage: every shard's
    /// superblock snapshot (root, height, allocation frontier) comes from the
    /// manifest, the volatile state starts empty — exactly as after a crash —
    /// and the caller ([`EngineBuilder::recover`]) runs
    /// [`ShardedPioEngine::recover`] next to replay the WALs.
    /// Checks a loaded manifest against the configuration (and its own internal
    /// shape — a custom provisioner's `load_manifest` can hand back anything).
    /// Called by [`EngineBuilder::recover`] *before* provisioning, so a
    /// mismatched recover attempt never touches the topology's storage.
    pub(crate) fn validate_manifest(config: &EngineConfig, manifest: &EngineManifest) -> IoResult<()> {
        if manifest.shards != config.shards
            || manifest.page_size != config.base.page_size
            || manifest.wal_enabled != config.base.wal_enabled
        {
            return Err(pio::IoError::InvalidConfig(format!(
                "manifest (shards {}, page_size {}, wal {}) does not match the configuration \
                 (shards {}, page_size {}, wal {})",
                manifest.shards,
                manifest.page_size,
                manifest.wal_enabled,
                config.shards,
                config.base.page_size,
                config.base.wal_enabled,
            )));
        }
        if manifest.bounds.len() + 1 != manifest.shards || manifest.shard_meta.len() != manifest.shards {
            return Err(pio::IoError::InvalidConfig(format!(
                "malformed manifest: {} bounds and {} shard snapshots for {} shards",
                manifest.bounds.len(),
                manifest.shard_meta.len(),
                manifest.shards,
            )));
        }
        Ok(())
    }

    pub(crate) fn reopen(
        config: EngineConfig,
        manifest: EngineManifest,
        backends: EngineBackends,
        topology: Box<dyn ShardProvisioner>,
    ) -> IoResult<Self> {
        Self::validate_manifest(&config, &manifest)?;
        Self::validate_backends(&config, &backends)?;
        let shard_cfg = config.shard_config();
        let mut backends = backends;
        let bounds = manifest.bounds.clone();
        let mut shards = Vec::with_capacity(config.shards);
        for (i, meta) in manifest.shard_meta.iter().enumerate() {
            let store = build_store(&shard_cfg, config.retry_policy(), Arc::clone(&backends.shard_stores[i]));
            store.ensure_high_water(meta.high_water);
            let mut tree = PioBTree::open(store, shard_cfg.clone(), meta.root, meta.height as usize)?;
            if shard_cfg.wal_enabled {
                attach_shard_wal(
                    &mut tree,
                    &shard_cfg,
                    config.retry_policy(),
                    Arc::clone(&backends.shard_wals[i]),
                );
            }
            shards.push(Shard::new(tree));
        }
        let epoch = Self::build_epoch_coordinator(&shard_cfg, config.retry_policy(), &mut backends);
        // Keep the durable dirty marker as-is (the WAL replay that follows does
        // not change what it means) and mirror it in memory.
        let dirty = topology.load_dirty()?;
        Ok(Self::finish(
            config,
            shards,
            bounds,
            epoch,
            0.0,
            topology,
            Some(manifest),
            dirty,
        ))
    }

    /// Shared tail of [`ShardedPioEngine::assemble`] / [`ShardedPioEngine::reopen`]:
    /// spawns the shard workers and the optional maintenance worker.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        config: EngineConfig,
        shards: Vec<Shard>,
        bounds: Vec<Key>,
        epoch: Option<EpochCoordinator>,
        build_makespan_us: f64,
        topology: Box<dyn ShardProvisioner>,
        manifest: Option<EngineManifest>,
        dirty: bool,
    ) -> Self {
        let shard_count = shards.len();
        let workers = ShardWorkers::spawn(shards.iter().map(|s| Arc::clone(&s.tree)));
        let inner = Arc::new(EngineInner {
            shards,
            routing: RwLock::new(RoutingState {
                bounds,
                migration: None,
                version: 0,
            }),
            config: config.clone(),
            topology,
            manifest: Mutex::new(manifest),
            dirty: Mutex::new(DirtyState {
                marked: dirty,
                ..DirtyState::default()
            }),
            epoch,
            committed_epochs: AtomicU64::new(0),
            recovered_epochs: AtomicU64::new(0),
            discarded_epochs: AtomicU64::new(0),
            scheduled_us: Mutex::new(build_makespan_us),
            workers,
            scheduled_batches: AtomicU64::new(0),
            splits: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            migrated_keys: AtomicU64::new(0),
            committed_migrations: AtomicU64::new(0),
            rolled_back_migrations: AtomicU64::new(0),
            rebalance_baseline: Mutex::new(vec![0; shard_count]),
            checkpoints: AtomicU64::new(0),
            truncated_bytes: AtomicU64::new(0),
            recovery_replayed_records: AtomicU64::new(0),
            maintenance_flushes: AtomicU64::new(0),
            maintenance_errors: AtomicU64::new(0),
            last_maintenance_error: Mutex::new(None),
        });
        let worker = config
            .maintenance_interval_ms
            .map(|ms| MaintenanceWorker::spawn(Arc::clone(&inner), std::time::Duration::from_millis(ms)));
        Self { worker, inner }
    }

    // ------------------------------------------------------------------ accessors --

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.inner.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The boundary keys separating the shards (length `shards − 1`), a
    /// snapshot of the live routing table. Non-decreasing; two equal adjacent
    /// bounds denote a shard merged away to an empty range.
    pub fn boundaries(&self) -> Vec<Key> {
        self.inner.routing.read().bounds.clone()
    }

    /// Bumped on every boundary change: lets callers detect that a rebalance
    /// happened between two observations without comparing bound vectors.
    pub fn routing_version(&self) -> u64 {
        self.inner.routing.read().version
    }

    /// The shard index that owns `key` under the current boundaries. Advisory
    /// for concurrent callers: a rebalance may move the boundary right after
    /// this returns, so use it for placement hints (e.g. batch binning), not
    /// correctness — the engine's own entry points re-route internally.
    pub fn shard_for(&self, key: Key) -> usize {
        self.inner.shard_for(key)
    }

    /// A handle to the engine's shared state, for the sibling `rebalance`
    /// module's engine-level entry points.
    pub(crate) fn inner(&self) -> &Arc<EngineInner> {
        &self.inner
    }

    /// Whether a background maintenance worker is running.
    pub fn has_background_maintenance(&self) -> bool {
        self.worker.is_some()
    }

    // ----------------------------------------------------------------- operations --

    /// Point search, routed to the owning shard.
    pub fn search(&self, key: Key) -> IoResult<Option<Value>> {
        self.inner.single(key, |tree| tree.search(key))
    }

    /// Insert, routed to the owning shard.
    pub fn insert(&self, key: Key, value: Value) -> IoResult<()> {
        let _mutation = self.inner.begin_mutation()?;
        self.inner.single_write(OpEntry::insert(key, value))
    }

    /// Delete, routed to the owning shard.
    pub fn delete(&self, key: Key) -> IoResult<()> {
        let _mutation = self.inner.begin_mutation()?;
        self.inner.single_write(OpEntry::delete(key))
    }

    /// Update, routed to the owning shard.
    pub fn update(&self, key: Key, value: Value) -> IoResult<()> {
        let _mutation = self.inner.begin_mutation()?;
        self.inner.single_write(OpEntry::update(key, value))
    }

    /// MPSearch across shards: the batch is split by owning shard and every
    /// sub-batch runs as a concurrent MPSearch on its shard. Results are returned
    /// in the order of `keys`.
    pub fn multi_search(&self, keys: &[Key]) -> IoResult<Vec<Option<Value>>> {
        self.inner.multi_search(keys)
    }

    /// Batched insert: entries are split by owning shard and applied concurrently,
    /// preserving per-shard arrival order.
    pub fn insert_batch(&self, entries: &[(Key, Value)]) -> IoResult<()> {
        let _mutation = if entries.is_empty() {
            None
        } else {
            Some(self.inner.begin_mutation()?)
        };
        self.inner.insert_batch(entries)
    }

    /// Range search over `[lo, hi)`: every intersecting shard scans its clamped
    /// sub-range concurrently and the per-shard results (each sorted) are stitched
    /// together in shard order, which *is* key order.
    pub fn range_search(&self, lo: Key, hi: Key) -> IoResult<Vec<(Key, Value)>> {
        self.inner.range_search(lo, hi)
    }

    /// Incremental checkpoint: drains the OPQ of every shard that changed since
    /// its last checkpoint (dirty shards in parallel, clean shards untouched),
    /// persists the manifest, and then truncates the shard WALs and the engine
    /// epoch log up to the checkpoint — bounding both on-disk log size and the
    /// work the next [`ShardedPioEngine::recover`] must do. Truncation honours
    /// [`crate::EngineConfig::log_retention_bytes`] and never drops an
    /// undecided epoch's records. The background maintenance worker calls this
    /// on the [`crate::EngineConfig::checkpoint_interval_ms`] cadence.
    pub fn checkpoint(&self) -> IoResult<()> {
        self.inner.checkpoint()
    }

    /// One maintenance pass: every shard whose OPQ fill is at or above the
    /// configured threshold is drained below it (in parallel). Returns the number
    /// of shards flushed. The background worker calls exactly this. Degraded
    /// shards get a healing probe first and are excluded from the flush.
    pub fn maintain_once(&self) -> IoResult<usize> {
        self.inner.maintain_once()
    }

    /// One checksum-scrub pass: every healthy shard re-reads and verifies up
    /// to `max_pages_per_shard` of its checksummed pages, healing rot from
    /// clean pooled copies where possible. Returns the total pages scanned.
    /// The background worker drives this on the
    /// [`EngineConfig::scrub_interval_ms`] cadence; call it directly in
    /// deterministic (no-worker) setups.
    pub fn scrub_once(&self, max_pages_per_shard: usize) -> IoResult<usize> {
        self.inner.scrub_tick(max_pages_per_shard)
    }

    /// Simulates a crash of the whole engine: every shard loses its OPQ, buffer
    /// pool, LSMap and un-forced WAL records, and the engine log loses its
    /// un-forced records. Returns the total number of OPQ entries lost. Call
    /// [`ShardedPioEngine::recover`] afterwards.
    pub fn simulate_crash(&self) -> usize {
        let mut lost = 0;
        for shard in &self.inner.shards {
            lost += shard.tree.lock().simulate_crash();
        }
        if let Some(coord) = &self.inner.epoch {
            coord.log.simulate_crash();
        }
        lost
    }

    /// Engine-level restart recovery. First the engine log is analyzed and every
    /// epoch is given a verdict — **committed** (normal replay), **re-driven**
    /// (uncommitted but durable on every member shard: the missing commit record
    /// is written now), or **discarded** (uncommitted with at least one shard
    /// not durably acked: dropped on *every* shard). Then each shard replays its
    /// own WAL through [`PioBTree::recover_with`], with the discard verdicts as
    /// the redo filter — so after this returns, every cross-shard batch is
    /// either fully present or fully absent (crash matrix in the crate docs).
    pub fn recover(&self) -> IoResult<EngineRecoveryReport> {
        self.inner.recover()
    }

    /// Counts live entries across all shards (expensive; for tests and examples).
    pub fn count_entries(&self) -> IoResult<u64> {
        let mut total: u64 = self.inner.count_entries_tasked()?;
        // The underlying half-open range scan cannot see `Key::MAX` itself, so the
        // sentinel key is counted with a point lookup in its owning (last) shard —
        // charged to the schedule like any other single-key lookup.
        if self.inner.single(Key::MAX, |tree| tree.search(Key::MAX))?.is_some() {
            total += 1;
        }
        Ok(total)
    }

    /// Verifies per-shard structural invariants plus the engine-level invariant
    /// that every shard only holds keys inside its range. Returns the live entry
    /// count. Intended for tests.
    pub fn check_invariants(&self) -> IoResult<u64> {
        let mut total = 0;
        let shard_count = self.inner.shards.len();
        let last_shard = shard_count - 1;
        // Pin the routing table for the whole sweep (and skip the containment
        // assertions while a migration is mid-copy — the destination legally
        // holds out-of-range keys until the commit swaps the boundary).
        let routing = self.inner.routing.read();
        let mid_migration = routing.migration.is_some();
        // Conceptually a fan over all shards: charge the schedule the slowest
        // shard's verification I/O, like fan_out does.
        let mut makespan_us = 0.0f64;
        for (i, shard) in self.inner.shards.iter().enumerate() {
            let (lo, hi) = shard_range(&routing.bounds, i, shard_count);
            let mut tree = shard.tree.lock();
            let before = tree.io_elapsed_us();
            total += tree.check_invariants()?;
            if !mid_migration {
                let in_range = tree.range_search(lo, hi)?.len() as u64;
                let everywhere = tree.range_search(0, Key::MAX)?.len() as u64;
                assert_eq!(in_range, everywhere, "shard {i} holds keys outside [{lo}, {hi})");
                // Half-open scans are blind to `Key::MAX`: check the sentinel
                // key's placement with a point lookup (only the last shard may
                // hold it).
                if i != last_shard {
                    assert!(
                        tree.search(Key::MAX)?.is_none(),
                        "shard {i} holds Key::MAX outside [{lo}, {hi})"
                    );
                }
            }
            makespan_us = makespan_us.max(tree.io_elapsed_us() - before);
        }
        drop(routing);
        self.inner.charge(makespan_us);
        Ok(total)
    }

    /// Aggregated engine statistics.
    pub fn stats(&self) -> EngineStats {
        self.inner.stats()
    }

    /// Schedule makespan so far, µs (see [`EngineStats::scheduled_io_us`]).
    pub fn scheduled_io_us(&self) -> f64 {
        *self.inner.scheduled_us.lock()
    }

    /// Total device work so far across all shards, µs.
    pub fn total_io_us(&self) -> f64 {
        self.inner.shards.iter().map(|s| s.tree.lock().io_elapsed_us()).sum()
    }
}

impl EngineInner {
    pub(crate) fn shard_for(&self, key: Key) -> usize {
        shard_of(&self.routing.read().bounds, key)
    }

    /// Runs a read-only `op` on the shard owning `key`, holding the routing
    /// read lock for the whole operation (so a migration's boundary swap
    /// drains it first) and charging its full I/O delta to the schedule (a
    /// single-shard call has nothing to overlap with).
    fn single<R>(&self, key: Key, op: impl FnOnce(&mut PioBTree) -> IoResult<R>) -> IoResult<R> {
        let routing = self.routing.read();
        let shard = &self.shards[shard_of(&routing.bounds, key)];
        shard.note_routed(1);
        // Reads are attempted even on a degraded shard: the inner tier, buffer
        // pool and leaf cache answer without touching the sick device.
        let mut tree = shard.tree.lock();
        let before = tree.io_elapsed_us();
        let result = op(&mut tree);
        // Charge even on error: any partially performed I/O is in the shard's
        // elapsed time and the makespan must stay in lockstep with it.
        let delta = tree.io_elapsed_us() - before;
        drop(tree);
        shard.health.observe(&result);
        drop(routing);
        self.charge(delta);
        result
    }

    /// Applies one write to the shard owning `entry.key`. Holds the routing
    /// read lock for the whole operation, and — when the key falls in an
    /// active migration's captured range — mirrors the entry into the
    /// migration's dirty log *under the tree lock*, so the dirty log's order
    /// matches the order writes actually applied in.
    fn single_write(&self, entry: OpEntry) -> IoResult<()> {
        let routing = self.routing.read();
        let idx = shard_of(&routing.bounds, entry.key);
        let shard = &self.shards[idx];
        shard.note_routed(1);
        // A degraded shard rejects writes up front: queueing more work onto a
        // sick device only grows the backlog that has to replay once it heals,
        // and the rejection is retryable — callers back off and resubmit.
        if shard.health.is_open() {
            return Err(ShardHealth::rejection(idx));
        }
        let mirror = routing
            .migration
            .as_ref()
            .filter(|m| idx == m.src && entry.key >= m.lo && entry.key < m.hi)
            .map(|m| Arc::clone(&m.dirty));
        let mut tree = shard.tree.lock();
        if let Some(dirty) = mirror {
            // Mirrored even if the apply then errors: an errored write is
            // undecided, and replaying it on the destination errs on the side
            // of never losing an acked write.
            dirty.lock().push(entry);
        }
        let before = tree.io_elapsed_us();
        let result = match entry.op {
            OpKind::Insert => tree.insert(entry.key, entry.value),
            OpKind::Update => tree.update(entry.key, entry.value),
            OpKind::Delete => tree.delete(entry.key),
        };
        let delta = tree.io_elapsed_us() - before;
        note_queue_peak(&shard.queue_peak_pct, &tree);
        drop(tree);
        shard.health.observe(&result);
        drop(routing);
        self.charge(delta);
        result
    }

    pub(crate) fn charge(&self, makespan_us: f64) {
        if makespan_us > 0.0 {
            *self.scheduled_us.lock() += makespan_us;
        }
    }

    /// Fans an operation out to *every* shard and returns
    /// the results in shard order.
    fn fan_out_all(
        &self,
        op: impl Fn(&mut PioBTree) -> IoResult<TaskOutput> + Clone + Send + 'static,
    ) -> IoResult<Vec<TaskOutput>> {
        let work: Vec<(usize, ShardTask)> = (0..self.shards.len())
            .map(|i| {
                let op = op.clone();
                (i, Box::new(move |tree: &mut PioBTree| op(tree)) as ShardTask)
            })
            .collect();
        // Fan-out results are already sorted by shard index.
        Ok(self.fan_out_tasks(work)?.into_iter().map(|(_, out)| out).collect())
    }

    fn multi_search(&self, keys: &[Key]) -> IoResult<Vec<Option<Value>>> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        // Partition the batch by owning shard, remembering original positions.
        // Positions and keys live in separate vectors so the key sub-batches can be
        // *moved* into the shard tasks while the positions stay behind for
        // scattering.
        // Pin the routing table across partitioning AND the fan-out: a
        // migration's boundary swap must not land between the two.
        let routing = self.routing.read();
        let mut positions: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        let mut sub_keys: Vec<Vec<Key>> = vec![Vec::new(); self.shards.len()];
        for (pos, &key) in keys.iter().enumerate() {
            let s = shard_of(&routing.bounds, key);
            positions[s].push(pos);
            sub_keys[s].push(key);
        }
        let work: Vec<(usize, ShardTask)> = sub_keys
            .into_iter()
            .enumerate()
            .filter(|(_, sub)| !sub.is_empty())
            .map(|(i, sub)| {
                self.shards[i].note_batch(sub.len());
                (
                    i,
                    Box::new(move |tree: &mut PioBTree| tree.multi_search(&sub).map(TaskOutput::Values)) as ShardTask,
                )
            })
            .collect();
        let results = self.fan_out_tasks(work)?;
        drop(routing);
        let mut out = vec![None; keys.len()];
        for (shard_idx, output) in results {
            let TaskOutput::Values(sub_results) = output else {
                unreachable!("multi_search tasks return Values")
            };
            for (pos, verdict) in positions[shard_idx].iter().zip(sub_results) {
                out[*pos] = verdict;
            }
        }
        Ok(out)
    }

    /// Batched insert. With WALs enabled, the batch runs as a two-phase flush
    /// epoch: `Begin` is forced to the engine log before fan-out, every member
    /// shard appends its sub-batch inside an epoch bracket of its own WAL and
    /// forces it, and only after the shard acks are durable is `Commit` forced —
    /// so a crash anywhere in between leaves an epoch that
    /// [`ShardedPioEngine::recover`] resolves to all-or-nothing across shards.
    ///
    /// An *error* return means the batch is undecided: some shards may hold it
    /// durably, and no commit record exists. The caller should either retry the
    /// batch (enqueueing is idempotent) or crash-and-recover the engine, which
    /// discards the epoch everywhere.
    fn insert_batch(&self, entries: &[(Key, Value)]) -> IoResult<()> {
        if entries.is_empty() {
            return Ok(());
        }
        // Pin the routing table across partitioning, fan-out AND commit: the
        // boundary swap of a migration waits for every in-flight batch, so a
        // batch's sub-batches always land where its binning said they would.
        let routing = self.routing.read();
        let mut per_shard: Vec<Vec<(Key, Value)>> = vec![Vec::new(); self.shards.len()];
        for &(key, value) in entries {
            per_shard[shard_of(&routing.bounds, key)].push((key, value));
        }
        let members: Vec<usize> = per_shard
            .iter()
            .enumerate()
            .filter(|(_, batch)| !batch.is_empty())
            .map(|(i, _)| i)
            .collect();
        let epoch = match &self.epoch {
            Some(coord) => {
                let epoch = coord.next_epoch.fetch_add(1, Ordering::Relaxed);
                // Hold the pin map across the Begin force: a concurrent
                // checkpoint computes its truncation floor under this lock, so
                // it either sees the pin or runs before the record is durable
                // (and truncation clamps to the durable frontier).
                let mut pins = coord.in_flight.lock();
                let begin_lsn = coord.log.begin(epoch, &members)?;
                pins.insert(epoch, begin_lsn);
                drop(pins);
                Some(epoch)
            }
            None => None,
        };
        let work: Vec<(usize, ShardTask)> = per_shard
            .into_iter()
            .enumerate()
            .filter(|(_, batch)| !batch.is_empty())
            .map(|(i, batch)| {
                self.shards[i].note_batch(batch.len());
                let peak = Arc::clone(&self.shards[i].queue_peak_pct);
                // Writes landing in an active migration's captured range are
                // mirrored into its dirty log from inside the task — under the
                // tree lock — so the mirror order matches the applied order.
                let mirror = routing
                    .migration
                    .as_ref()
                    .filter(|m| i == m.src)
                    .map(|m| {
                        let subset: Vec<OpEntry> = batch
                            .iter()
                            .filter(|&&(k, _)| k >= m.lo && k < m.hi)
                            .map(|&(k, v)| OpEntry::insert(k, v))
                            .collect();
                        (Arc::clone(&m.dirty), subset)
                    })
                    .filter(|(_, subset)| !subset.is_empty());
                let task: ShardTask = match epoch {
                    Some(epoch) => Box::new(move |tree: &mut PioBTree| {
                        if let Some((dirty, subset)) = mirror {
                            dirty.lock().extend(subset);
                        }
                        let out = tree.insert_batch_epoch(&batch, epoch).map(TaskOutput::Durable);
                        note_queue_peak(&peak, tree);
                        out
                    }),
                    None => Box::new(move |tree: &mut PioBTree| {
                        if let Some((dirty, subset)) = mirror {
                            dirty.lock().extend(subset);
                        }
                        let out = tree.insert_batch(&batch).map(|()| TaskOutput::Unit);
                        note_queue_peak(&peak, tree);
                        out
                    }),
                };
                (i, task)
            })
            .collect();
        let results = self.fan_out_tasks(work)?;
        if let (Some(epoch), Some(coord)) = (epoch, &self.epoch) {
            let acks: Vec<(usize, Lsn)> = results
                .into_iter()
                .map(|(shard, out)| {
                    let TaskOutput::Durable(lsn) = out else {
                        unreachable!("epoch insert tasks return Durable")
                    };
                    (shard, lsn)
                })
                .collect();
            coord.log.ack_all(epoch, &acks)?;
            coord.log.commit(epoch)?;
            // Decided: release the truncation pins — the engine log's (this
            // epoch's records are now redundant for recovery) and each member
            // shard's bracket pin. An error return above keeps both pins, so
            // an undecided epoch can never be truncated away.
            coord.in_flight.lock().remove(&epoch);
            for &(shard, _) in &acks {
                self.shards[shard].tree.lock().resolve_epoch(epoch);
            }
            self.committed_epochs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn range_search(&self, lo: Key, hi: Key) -> IoResult<Vec<(Key, Value)>> {
        if lo >= hi {
            return Ok(Vec::new());
        }
        // Pin the routing table across the fan-out (see `multi_search`).
        let routing = self.routing.read();
        let shard_count = self.shards.len();
        let work: Vec<(usize, ShardTask)> = (0..shard_count)
            .filter_map(|i| {
                let (s_lo, s_hi) = shard_range(&routing.bounds, i, shard_count);
                (s_lo < hi && lo < s_hi).then(|| {
                    let (sub_lo, sub_hi) = (lo.max(s_lo), hi.min(s_hi));
                    (
                        i,
                        Box::new(move |tree: &mut PioBTree| tree.range_search(sub_lo, sub_hi).map(TaskOutput::Entries))
                            as ShardTask,
                    )
                })
            })
            .collect();
        // Fan-out results arrive sorted by shard index, and shard order is key
        // order: concatenation keeps the result sorted.
        let results = self.fan_out_tasks(work)?;
        drop(routing);
        let mut out = Vec::new();
        for (_, output) in results {
            let TaskOutput::Entries(mut part) = output else {
                unreachable!("range_search tasks return Entries")
            };
            out.append(&mut part);
        }
        Ok(out)
    }

    /// Incremental checkpoint: flushes only the shards that logged or queued
    /// work since their last checkpoint, persists the manifest, then truncates
    /// the logs the checkpoint made redundant (shard WALs up to their new
    /// `Checkpoint` records, the engine epoch log up to the pre-flush cursor).
    /// Truncation is anchored on the *committed* checkpoint — the manifest sync
    /// happens first, so the superblocks recovery would need are durable before
    /// any `FlushRoot`/`FlushAlloc` record is dropped — and honours
    /// `log_retention_bytes` plus the undecided-epoch pins (engine-log
    /// `in_flight`, per-shard open brackets).
    pub(crate) fn checkpoint(&self) -> IoResult<()> {
        let begun_before = self.dirty.lock().begun;
        // Snapshot the engine-log cut BEFORE flushing: epoch records appended
        // after this point may belong to batches the flushes do not capture.
        let engine_cut = self.epoch.as_ref().map(|c| c.log.cursor());
        // Incremental selection: a shard pays a flush (and even the Checkpoint
        // record append) only when something reached its log or queue since
        // the last checkpoint. Clean shards are untouched.
        let work: Vec<(usize, ShardTask)> = self
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                let tree = s.tree.lock();
                tree.dirty_ops() > 0 || tree.opq_len() > 0
            })
            .map(|(i, _)| {
                let task: ShardTask = Box::new(|tree: &mut PioBTree| tree.checkpoint().map(TaskOutput::Durable));
                (i, task)
            })
            .collect();
        let flushed: Vec<(usize, Lsn)> = if work.is_empty() {
            Vec::new()
        } else {
            self.fan_out_tasks(work)?
                .into_iter()
                .map(|(shard, out)| {
                    let TaskOutput::Durable(lsn) = out else {
                        unreachable!("checkpoint tasks return Durable")
                    };
                    (shard, lsn)
                })
                .collect()
        };
        // The checkpoint moved the flushed shards' durable frontiers: refresh
        // the persisted manifest so a WAL-less reopen sees the checkpointed
        // state. This MUST precede truncation — once FlushRoot records are
        // gone, the manifest is the only carrier of the rolled-forward roots.
        self.sync_manifest()?;
        // Checkpoint-anchored truncation, gated by the retention window.
        let retention = self.config.log_retention_bytes;
        let mut dropped: u64 = 0;
        for &(shard, ckpt_lsn) in &flushed {
            let mut tree = self.shards[shard].tree.lock();
            if tree.wal_replayable_bytes() > retention {
                dropped += tree.truncate_wal(ckpt_lsn)?;
            }
        }
        if let (Some(cut), Some(coord)) = (engine_cut, &self.epoch) {
            if coord.log.replayable_bytes() > retention {
                dropped += coord.log.truncate_to(coord.truncation_floor(cut))?;
            }
        }
        self.truncated_bytes.fetch_add(dropped, Ordering::Relaxed);
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        // Clear the dirty marker only when provably nothing raced the flush: no
        // mutation began since before the fan-out and none is still in flight.
        // The OPQ/manifest re-check runs while the dirty lock is held, so a new
        // writer (blocked in begin_mutation) cannot slip between the proof and
        // the clear; writers arriving after the clear re-raise the marker.
        let mut state = self.dirty.lock();
        if state.marked && state.in_flight == 0 && state.begun == begun_before {
            let quiescent = self.shards.iter().all(|s| s.tree.lock().opq_len() == 0);
            if quiescent {
                self.sync_manifest()?;
                self.topology.set_dirty(false)?;
                state.marked = false;
            }
        }
        Ok(())
    }

    fn recover(&self) -> IoResult<EngineRecoveryReport> {
        let mut report = EngineRecoveryReport::default();
        let mut discard: HashSet<u64> = HashSet::new();
        let mut boundary_replay: Vec<MigrationSpec> = Vec::new();
        let mut scanned: u64 = 0;
        if let Some(coord) = &self.epoch {
            // Pre-crash pins are meaningless now: every epoch in the log gets
            // a verdict below, and the shard-side brackets are re-registered
            // (or dropped) by the per-shard replay.
            coord.in_flight.lock().clear();
            let analysis = coord.log.analyze()?;
            scanned += analysis.records as u64;
            for state in &analysis.epochs {
                if let Some(migration) = state.migration {
                    if state.committed {
                        // The boundary swap is durable: the copies and retires
                        // replay through normal per-shard recovery, and the
                        // boundary itself is re-applied (in log order) below.
                        report.committed_migrations += 1;
                        boundary_replay.push(migration);
                    } else {
                        // NEVER re-driven, even when fully acked: the swap did
                        // not happen, so the copies belong to a boundary that
                        // never existed. Roll the epoch back on both shards and
                        // keep the old boundary.
                        discard.insert(state.epoch);
                        report.rolled_back_migrations += 1;
                    }
                } else if state.committed {
                    report.committed_epochs += 1;
                } else if state.fully_acked() {
                    // The crash hit between the ack force and the commit force:
                    // the batch is durable on every member shard, so complete the
                    // protocol instead of throwing the batch away.
                    coord.log.commit(state.epoch)?;
                    report.recovered_epochs += 1;
                } else {
                    discard.insert(state.epoch);
                    report.discarded_epochs += 1;
                }
            }
            // Epoch ids must stay unique across restarts: later batches must
            // never collide with epochs already judged in the log.
            coord.next_epoch.store(analysis.max_epoch + 1, Ordering::Relaxed);
        }
        // Re-apply committed boundary swaps in log order (absolute sets, so the
        // replay is idempotent whether the manifest had caught up or not), and
        // drop any in-memory migration state a pre-crash attempt left behind.
        {
            let mut routing = self.routing.write();
            routing.migration = None;
            for migration in &boundary_replay {
                let idx = (migration.src.min(migration.dst)) as usize;
                routing.bounds[idx] = if migration.dst > migration.src {
                    migration.lo
                } else {
                    migration.hi
                };
            }
            if !boundary_replay.is_empty() {
                routing.version += 1;
            }
        }
        let work: Vec<(usize, ShardTask)> = (0..self.shards.len())
            .map(|i| {
                let discard = discard.clone();
                let task: ShardTask = Box::new(move |tree: &mut PioBTree| {
                    tree.recover_with(&mut |epoch| !discard.contains(&epoch))
                        .map(TaskOutput::Recovered)
                });
                (i, task)
            })
            .collect();
        report.shards = self
            .fan_out_tasks(work)?
            .into_iter()
            .map(|(_, out)| {
                let TaskOutput::Recovered(shard_report) = out else {
                    unreachable!("recovery tasks return Recovered")
                };
                shard_report
            })
            .collect();
        self.recovered_epochs
            .fetch_add(report.recovered_epochs, Ordering::Relaxed);
        self.discarded_epochs
            .fetch_add(report.discarded_epochs, Ordering::Relaxed);
        self.committed_migrations
            .fetch_add(report.committed_migrations, Ordering::Relaxed);
        self.rolled_back_migrations
            .fetch_add(report.rolled_back_migrations, Ordering::Relaxed);
        // A re-driven epoch is now committed in the log, so the lifetime
        // committed counter includes it (as its documentation promises).
        self.committed_epochs
            .fetch_add(report.recovered_epochs, Ordering::Relaxed);
        // The bounded-recovery observable: total log records the analysis
        // passes visited (epoch log + every shard WAL). With checkpoint-
        // anchored truncation this tracks activity since the last checkpoint,
        // not the engine's age.
        scanned += report.shards.iter().map(|r| r.scanned as u64).sum::<u64>();
        self.recovery_replayed_records.store(scanned, Ordering::Relaxed);
        // Recovery may have rolled roots forward (reopen) or rewound them
        // (undone flushes): persist the post-recovery superblocks.
        self.sync_manifest()?;
        Ok(report)
    }

    pub(crate) fn count_entries_tasked(&self) -> IoResult<u64> {
        let counts = self.fan_out_all(|tree| tree.count_entries().map(TaskOutput::Count))?;
        Ok(counts
            .into_iter()
            .map(|out| {
                let TaskOutput::Count(n) = out else {
                    unreachable!("count tasks return Count")
                };
                n
            })
            .sum())
    }

    /// Probes every degraded shard's device with one direct page read (the
    /// root page, bypassing all caches) and closes the breaker on success.
    /// Called from the maintenance path so shards heal without foreground
    /// traffic having to risk the sick device first.
    pub(crate) fn probe_degraded(&self) -> usize {
        let mut healed = 0;
        for shard in self.shards.iter().filter(|s| s.health.is_open()) {
            let tree = shard.tree.lock();
            let root = tree.root_page();
            let before = tree.io_elapsed_us();
            let probe = tree.store().store().read_page(root);
            let delta = tree.io_elapsed_us() - before;
            drop(tree);
            self.charge(delta);
            if probe.is_ok() {
                shard.health.close();
                healed += 1;
            }
        }
        healed
    }

    /// One scrub tick: every healthy shard verifies a bounded slice of its
    /// checksummed pages (see [`storage::CachedStore::scrub_step`]). Degraded
    /// shards are skipped — scrub reads would only hammer a device the breaker
    /// just decided to rest.
    pub(crate) fn scrub_tick(&self, max_pages_per_shard: usize) -> IoResult<usize> {
        let mut scanned = 0;
        for shard in self.shards.iter().filter(|s| !s.health.is_open()) {
            let tree = shard.tree.lock();
            let before = tree.io_elapsed_us();
            let result = tree.store().scrub_step(max_pages_per_shard);
            let delta = tree.io_elapsed_us() - before;
            drop(tree);
            self.charge(delta);
            scanned += result?.scanned;
        }
        Ok(scanned)
    }

    pub(crate) fn maintain_once(&self) -> IoResult<usize> {
        // Give degraded shards their healing probe before anything else — the
        // flush pass below deliberately leaves them alone.
        self.probe_degraded();
        // Re-pin any cold inner tier off the foreground path (a cheap no-op
        // for warm or disabled tiers; a failed rebuild just stays cold —
        // descents keep falling back to the store wavefront).
        for shard in self.shards.iter() {
            let mut tree = shard.tree.lock();
            let before = tree.io_elapsed_us();
            let _ = tree.refresh_inner_tier();
            let delta = tree.io_elapsed_us() - before;
            drop(tree);
            self.charge(delta);
        }
        let threshold = self.config.flush_threshold;
        let work: Vec<(usize, ShardTask)> = self
            .shards
            .iter()
            .enumerate()
            // A degraded shard's OPQ stays queued: flushing it would drive a
            // bupdate into the device the breaker is resting.
            .filter(|(_, s)| !s.health.is_open())
            .filter_map(|(i, s)| {
                let tree = s.tree.lock();
                let floor = ((tree.opq_capacity() as f64) * threshold).ceil() as usize;
                let floor = floor.max(1);
                (tree.opq_len() >= floor).then_some((i, floor))
            })
            .map(|(i, floor)| {
                // A selected shard may have been drained by a foreground flush
                // between the scan above (locks released) and the task running;
                // count only shards where this pass actually ran a bupdate.
                (
                    i,
                    Box::new(move |tree: &mut PioBTree| {
                        let mut did_flush = false;
                        while tree.opq_len() >= floor {
                            tree.flush_once()?;
                            did_flush = true;
                        }
                        Ok(TaskOutput::Flushed(did_flush))
                    }) as ShardTask,
                )
            })
            .collect();
        if work.is_empty() {
            return Ok(0);
        }
        let flushed = self
            .fan_out_tasks(work)?
            .into_iter()
            .filter(|(_, out)| matches!(out, TaskOutput::Flushed(true)))
            .count();
        if flushed > 0 {
            self.maintenance_flushes.fetch_add(1, Ordering::Relaxed);
            // Flushes may have grown roots and allocated pages: keep the
            // persisted manifest fresh off the foreground path.
            self.sync_manifest()?;
        }
        Ok(flushed)
    }

    // ----------------------------------------------------------------- rebalance --

    /// The engine configuration (for the sibling `rebalance` module).
    pub(crate) fn engine_config(&self) -> &EngineConfig {
        &self.config
    }

    /// A snapshot of the current boundary keys.
    pub(crate) fn bounds_snapshot(&self) -> Vec<Key> {
        self.routing.read().bounds.clone()
    }

    /// Current per-shard OPQ peak-fill percentages (read without resetting —
    /// the `stats()` snapshot owns the reset; the balancer only needs an
    /// advisory pressure signal).
    pub(crate) fn queue_peaks(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.queue_peak_pct.load(Ordering::Relaxed))
            .collect()
    }

    /// Per-shard routed-op counts since the previous call — the rebalance
    /// monitor's load window, independent of anyone calling `stats()`.
    pub(crate) fn rebalance_window(&self) -> Vec<u64> {
        let mut baseline = self.rebalance_baseline.lock();
        self.shards
            .iter()
            .zip(baseline.iter_mut())
            .map(|(s, base)| {
                let total = s.routed_total.load(Ordering::Relaxed);
                let delta = total - *base;
                *base = total;
                delta
            })
            .collect()
    }

    /// Moves a key range from shard `src` to the adjacent shard `dst` as one
    /// crash-recoverable, epoch-logged migration, serving reads and writes
    /// throughout. Returns `Ok(None)` when the move is vacuous (splitting a
    /// shard with fewer than two entries, merging an already-empty range).
    ///
    /// The sequence (see the `rebalance` module docs for the lifecycle
    /// diagram): install the migration marker under a brief routing write lock
    /// (draining in-flight requests, so later writers see it); snapshot the
    /// moving region from `src`; force `MigrateBegin`; copy the region into
    /// `dst` under the migration epoch *without* holding the routing lock (the
    /// expensive half — traffic flows meanwhile, `src` stays authoritative,
    /// and writes to the range are mirrored into the migration's dirty log);
    /// then, under the routing write lock, replay the dirty tail onto `dst`,
    /// retire the moved keys from `src`, force `Ack`+`MigrateCommit`, and swap
    /// the boundary. A crash anywhere before the commit rolls the whole
    /// migration back at [`ShardedPioEngine::recover`]; a crash after it
    /// re-applies the boundary. An *error* return leaves the engine like a
    /// failed `insert_batch`: consistent for reads (the boundary is
    /// unchanged), but carrying an undecided epoch that the next
    /// crash-recovery cycle rolls back.
    pub(crate) fn migrate(
        &self,
        src: usize,
        dst: usize,
        kind: crate::rebalance::MoveKind,
    ) -> IoResult<Option<crate::rebalance::RebalanceOutcome>> {
        use crate::rebalance::MoveKind;
        let n = self.shards.len();
        let adjacency_ok = match kind {
            MoveKind::SplitUpper => dst == src + 1 && dst < n,
            MoveKind::SplitLower => src >= 1 && dst == src - 1,
            // A merge may empty any shard except the last (the `Key::MAX`
            // sentinel can never leave it): to fold the last shard's range
            // away, merge its *left neighbour into it* instead.
            MoveKind::MergeAll => (dst == src + 1 && dst < n) || (src >= 1 && dst == src - 1 && src != n - 1),
        };
        if !adjacency_ok || src >= n {
            return Err(pio::IoError::InvalidConfig(format!(
                "invalid migration {src} -> {dst} ({kind:?}) over {n} shards"
            )));
        }
        let _mutation = self.begin_mutation()?;
        // Install the migration marker. The write acquisition drains every
        // in-flight request; once it is released, new writes in the captured
        // range mirror themselves into the dirty log.
        {
            let mut routing = self.routing.write();
            if routing.migration.is_some() {
                return Err(pio::IoError::InvalidConfig(
                    "a shard migration is already in flight".into(),
                ));
            }
            let (lo, hi) = shard_range(&routing.bounds, src, n);
            routing.migration = Some(ActiveMigration {
                src,
                dst,
                lo,
                hi,
                dirty: Arc::new(Mutex::new(Vec::new())),
            });
        }
        let result = self.migrate_run(src, dst, kind);
        if !matches!(result, Ok(Some(_))) {
            // Vacuous or failed: withdraw the marker (the success path consumed
            // it inside the commit's critical section).
            self.routing.write().migration = None;
        }
        result
    }

    /// The body of [`EngineInner::migrate`], running with the migration marker
    /// installed. Any `Err` is cleaned up by the caller.
    fn migrate_run(
        &self,
        src: usize,
        dst: usize,
        kind: crate::rebalance::MoveKind,
    ) -> IoResult<Option<crate::rebalance::RebalanceOutcome>> {
        use crate::rebalance::{MoveKind, RebalanceOutcome};
        let (cap_lo, cap_hi) = {
            let routing = self.routing.read();
            let m = routing.migration.as_ref().expect("installed by migrate");
            debug_assert_eq!((m.src, m.dst), (src, dst));
            (m.lo, m.hi)
        };
        // Snapshot the source range (a pipelined prange scan + OPQ overlay).
        let snapshot = {
            let mut tree = self.shards[src].tree.lock();
            let before = tree.io_elapsed_us();
            let out = tree.export_region(cap_lo, cap_hi);
            let delta = tree.io_elapsed_us() - before;
            drop(tree);
            self.charge(delta);
            out?
        };
        // Choose the final moving range. Split cuts at the median key, so both
        // halves inherit half the (observed) population.
        let (lo, hi, moving): (Key, Key, Vec<(Key, Value)>) = match kind {
            MoveKind::SplitUpper => {
                if snapshot.len() < 2 {
                    return Ok(None);
                }
                let cut = snapshot[snapshot.len() / 2].0;
                (cut, cap_hi, snapshot[snapshot.len() / 2..].to_vec())
            }
            MoveKind::SplitLower => {
                if snapshot.len() < 2 {
                    return Ok(None);
                }
                let cut = snapshot[snapshot.len() / 2].0;
                (cap_lo, cut, snapshot[..snapshot.len() / 2].to_vec())
            }
            MoveKind::MergeAll => {
                if cap_lo == cap_hi {
                    return Ok(None);
                }
                (cap_lo, cap_hi, snapshot)
            }
        };
        // Journal the migration before any entry crosses shards.
        let epoch = match &self.epoch {
            Some(coord) => {
                let ep = coord.next_epoch.fetch_add(1, Ordering::Relaxed);
                // Pin the epoch against engine-log truncation for its whole
                // undecided window (same discipline as `insert_batch`).
                let mut pins = coord.in_flight.lock();
                let begin_lsn = coord.log.migrate_begin(
                    ep,
                    MigrationSpec {
                        src: src as u32,
                        dst: dst as u32,
                        lo,
                        hi,
                    },
                )?;
                pins.insert(ep, begin_lsn);
                drop(pins);
                Some(ep)
            }
            None => None,
        };
        // Phase 1 — the expensive copy, off the routing lock: traffic keeps
        // flowing, `src` stays authoritative, writes to the range are mirrored.
        {
            let mut tree = self.shards[dst].tree.lock();
            let before = tree.io_elapsed_us();
            let out = match epoch {
                Some(ep) => tree.import_region(&moving, ep).map(|_| ()),
                None => tree.insert_batch(&moving),
            };
            let delta = tree.io_elapsed_us() - before;
            drop(tree);
            self.charge(delta);
            out?;
        }
        // Phase 2 — the critical section: acquiring the routing write lock
        // waits out every in-flight request, so the dirty log is complete and
        // no new write can land on `src` until the boundary has swapped.
        let mut routing = self.routing.write();
        let migration = routing.migration.take().expect("installed by migrate");
        let dirty = std::mem::take(&mut *migration.dirty.lock());
        let tail: Vec<OpEntry> = dirty.into_iter().filter(|e| e.key >= lo && e.key < hi).collect();
        let dst_lsn = {
            let mut tree = self.shards[dst].tree.lock();
            let before = tree.io_elapsed_us();
            let out = match epoch {
                Some(ep) => tree.apply_batch_epoch(&tail, ep),
                None => {
                    for e in &tail {
                        match e.op {
                            OpKind::Insert => tree.insert(e.key, e.value)?,
                            OpKind::Update => tree.update(e.key, e.value)?,
                            OpKind::Delete => tree.delete(e.key)?,
                        }
                    }
                    Ok(0)
                }
            };
            let delta = tree.io_elapsed_us() - before;
            drop(tree);
            self.charge(delta);
            out?
        };
        // Retire everything that may live in the moved range on `src`: the
        // snapshot keys plus every mirrored key (a delete of an absent key is
        // a harmless tombstone).
        let mut retire: Vec<Key> = moving.iter().map(|&(k, _)| k).collect();
        retire.extend(tail.iter().map(|e| e.key));
        retire.sort_unstable();
        retire.dedup();
        let src_lsn = {
            let mut tree = self.shards[src].tree.lock();
            let before = tree.io_elapsed_us();
            let out = match epoch {
                Some(ep) => tree.retire_region(&retire, ep),
                None => {
                    for &k in &retire {
                        tree.delete(k)?;
                    }
                    Ok(0)
                }
            };
            let delta = tree.io_elapsed_us() - before;
            drop(tree);
            self.charge(delta);
            out?
        };
        if let (Some(ep), Some(coord)) = (epoch, &self.epoch) {
            coord.log.ack_all(ep, &[(src, src_lsn), (dst, dst_lsn)])?;
            // The durable boundary swap: before this force the migration rolls
            // back on recovery, after it the new boundary is re-applied.
            coord.log.migrate_commit(ep)?;
            coord.in_flight.lock().remove(&ep);
        }
        let idx = src.min(dst);
        routing.bounds[idx] = if dst > src { lo } else { hi };
        routing.version += 1;
        drop(routing);
        // Decided: release both shards' bracket pins so the next checkpoint
        // may truncate past the migration's records.
        if let Some(ep) = epoch {
            self.shards[src].tree.lock().resolve_epoch(ep);
            self.shards[dst].tree.lock().resolve_epoch(ep);
        }
        // The boundary swap is durable: re-pin both shards' inner tiers so no
        // pre-migration snapshot can serve a descent across the new boundary
        // (best effort — a failed rebuild leaves the tier cold, not stale).
        for &i in &[src, dst] {
            let mut tree = self.shards[i].tree.lock();
            let before = tree.io_elapsed_us();
            let _ = tree.refresh_inner_tier();
            let delta = tree.io_elapsed_us() - before;
            drop(tree);
            self.charge(delta);
        }
        let moved_keys = retire.len() as u64;
        self.migrated_keys.fetch_add(moved_keys, Ordering::Relaxed);
        match kind {
            MoveKind::MergeAll => self.merges.fetch_add(1, Ordering::Relaxed),
            _ => self.splits.fetch_add(1, Ordering::Relaxed),
        };
        self.sync_manifest()?;
        Ok(Some(RebalanceOutcome {
            kind,
            src,
            dst,
            lo,
            hi,
            moved_keys,
            epoch,
        }))
    }

    fn stats(&self) -> EngineStats {
        // Snapshot the makespan BEFORE sweeping the shards: work is charged only
        // after its device time has accrued in a shard's counters, so everything in
        // this reading is already contained in the shard sweep that follows — the
        // snapshot preserves `scheduled_io_us <= total_io_us` even while the
        // background worker (or other clients) keep operating mid-sweep.
        let scheduled_io_us = *self.scheduled_us.lock();
        // A brief routing read: bounds for the per-shard key ranges, plus the
        // migration flag. Dropped before the shard sweep so stats never holds
        // routing across tree locks longer than needed.
        let (bounds, active_migration, routing_version) = {
            let routing = self.routing.read();
            (routing.bounds.clone(), routing.migration.is_some(), routing.version)
        };
        let mut shards = Vec::with_capacity(self.shards.len());
        let mut rollup = PioStats::default();
        let mut total_io = 0.0;
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut queued = 0usize;
        let mut pipeline_depth = 0usize;
        let mut batched_calls = 0u64;
        let mut batched_ops = 0u64;
        let mut leaf_cache = LeafCacheStats::default();
        let mut degraded_shards = 0usize;
        let mut breaker_opens = 0u64;
        let mut breaker_closes = 0u64;
        let mut integrity = storage::IntegrityStats::default();
        let mut io_retries = 0u64;
        let mut io_give_ups = 0u64;
        for (i, shard) in self.shards.iter().enumerate() {
            let (key_lo, key_hi) = shard_range(&bounds, i, self.shards.len());
            let shard_batched_calls = shard.batched_calls.load(Ordering::Relaxed);
            let shard_batched_ops = shard.batched_ops.load(Ordering::Relaxed);
            batched_calls += shard_batched_calls;
            batched_ops += shard_batched_ops;
            // Window counters: reset on read, so each snapshot reports the
            // activity since the previous one.
            let routed_ops = shard.routed_since.swap(0, Ordering::Relaxed);
            let queue_peak_pct = shard.queue_peak_pct.swap(0, Ordering::Relaxed);
            let degraded = shard.health.is_open();
            let consecutive_failures = shard.health.consecutive_failures.load(Ordering::Relaxed);
            let shard_breaker_opens = shard.health.opens.load(Ordering::Relaxed);
            let shard_breaker_closes = shard.health.closes.load(Ordering::Relaxed);
            let corruption_errors = shard.health.corruption_errors.load(Ordering::Relaxed);
            let tree = shard.tree.lock();
            let pio = tree.stats();
            let pool = tree.store().pool_stats();
            let shard_leaf_cache = tree.store().leaf_cache_stats();
            let store = tree.store().store().stats();
            let shard_integrity = tree.store().integrity_stats();
            let mut backend_io = tree.store().store().io().io_stats();
            // The shard WAL appends through its own retry-wrapped queue; its
            // retries and give-ups belong in the same resilience rollup.
            if let Some(wal) = tree.wal() {
                let wal_io = wal.io().stats();
                backend_io.retries += wal_io.retries;
                backend_io.give_ups += wal_io.give_ups;
            }
            let io_us = tree.io_elapsed_us();
            rollup.merge(&pio);
            leaf_cache.merge(&shard_leaf_cache);
            degraded_shards += degraded as usize;
            breaker_opens += shard_breaker_opens;
            breaker_closes += shard_breaker_closes;
            integrity.merge(&shard_integrity);
            io_retries += backend_io.retries;
            io_give_ups += backend_io.give_ups;
            total_io += io_us;
            hits += pool.hits;
            misses += pool.misses;
            queued += tree.opq_len();
            pipeline_depth = pipeline_depth.max(tree.pipeline_depth());
            shards.push(ShardSnapshot {
                shard: i,
                key_lo,
                key_hi,
                height: tree.height(),
                pipeline_depth: tree.pipeline_depth(),
                opq_len: tree.opq_len(),
                opq_capacity: tree.opq_capacity(),
                batched_calls: shard_batched_calls,
                batched_ops: shard_batched_ops,
                routed_ops,
                queue_peak_pct,
                pio,
                pool,
                leaf_cache: shard_leaf_cache,
                store,
                io_elapsed_us: io_us,
                wal_replayable_bytes: tree.wal_replayable_bytes(),
                degraded,
                consecutive_failures,
                breaker_opens: shard_breaker_opens,
                breaker_closes: shard_breaker_closes,
                corruption_errors,
                integrity: shard_integrity,
                io_retries: backend_io.retries,
                io_give_ups: backend_io.give_ups,
            });
        }
        EngineStats {
            topology: self.topology.name(),
            shards,
            rollup,
            total_io_us: total_io,
            scheduled_io_us,
            scheduled_batches: self.scheduled_batches.load(Ordering::Relaxed),
            batched_calls,
            batched_ops,
            pipeline_depth,
            pool_hit_ratio: if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
            leaf_cache,
            queued_ops: queued,
            committed_epochs: self.committed_epochs.load(Ordering::Relaxed),
            recovered_epochs: self.recovered_epochs.load(Ordering::Relaxed),
            discarded_epochs: self.discarded_epochs.load(Ordering::Relaxed),
            splits: self.splits.load(Ordering::Relaxed),
            merges: self.merges.load(Ordering::Relaxed),
            migrated_keys: self.migrated_keys.load(Ordering::Relaxed),
            committed_migrations: self.committed_migrations.load(Ordering::Relaxed),
            rolled_back_migrations: self.rolled_back_migrations.load(Ordering::Relaxed),
            active_migration,
            routing_version,
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            truncated_bytes: self.truncated_bytes.load(Ordering::Relaxed),
            recovery_replayed_records: self.recovery_replayed_records.load(Ordering::Relaxed),
            epoch_log_bytes: self.epoch.as_ref().map_or(0, |c| c.log.replayable_bytes()),
            degraded_shards,
            breaker_opens,
            breaker_closes,
            integrity,
            io_retries,
            io_give_ups,
            maintenance_flushes: self.maintenance_flushes.load(Ordering::Relaxed),
            maintenance_errors: self.maintenance_errors.load(Ordering::Relaxed),
            last_maintenance_error: self.last_maintenance_error.lock().clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_sim::DeviceProfile;

    fn small_config(shards: usize) -> EngineConfig {
        EngineConfig::builder()
            .shards(shards)
            .profile(DeviceProfile::F120)
            .shard_capacity_bytes(1 << 30)
            .base(
                PioConfig::builder()
                    .page_size(2048)
                    .leaf_segments(2)
                    .opq_pages(1) // one OPQ page per shard
                    .pio_max(16)
                    .speriod(50)
                    .bcnt(100)
                    .pool_pages(256)
                    .build(),
            )
            .build()
    }

    /// Epoch ids are allocated outside the pin lock, so a smaller id can pin a
    /// HIGHER Begin-LSN than a larger one. The truncation floor must be the
    /// minimum pinned LSN, not the smallest-id entry's pin — taking the latter
    /// would let a checkpoint truncate a still-undecided epoch's Begin record.
    #[test]
    fn truncation_floor_uses_the_minimum_pin_not_the_smallest_epoch_id() {
        let io: Arc<dyn ParallelIo> = Arc::new(pio::SimPsyncIo::with_profile(DeviceProfile::F120, 16 << 20));
        let coord = EpochCoordinator {
            log: EpochLog::new(Wal::new(io, 0, 2048)),
            next_epoch: AtomicU64::new(7),
            in_flight: Mutex::new(std::collections::BTreeMap::new()),
        };
        assert_eq!(coord.truncation_floor(1000), 1000, "no pins: the cut passes through");
        // Inverted order: epoch 5 began at LSN 900, epoch 6 at LSN 400.
        coord.in_flight.lock().extend([(5u64, 900u64), (6u64, 400u64)]);
        assert_eq!(coord.truncation_floor(1000), 400, "the floor is the minimum pin");
        assert_eq!(coord.truncation_floor(300), 300, "a cut below every pin is unaffected");
        coord.in_flight.lock().remove(&6);
        assert_eq!(coord.truncation_floor(1000), 900, "the floor follows the surviving pin");
    }

    #[test]
    fn boundaries_cut_quantiles_of_the_sample() {
        let sample: Vec<Key> = (0..1000u64).collect();
        let bounds = boundaries_from_sample(&sample, 4);
        assert_eq!(bounds.len(), 3);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        assert!(bounds[0] >= 200 && bounds[0] <= 300, "{bounds:?}");
        assert!(bounds[1] >= 450 && bounds[1] <= 550, "{bounds:?}");
    }

    #[test]
    fn boundaries_fall_back_to_uniform_cuts() {
        let bounds = boundaries_from_sample(&[], 4);
        assert_eq!(bounds.len(), 3);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        // Roughly uniform over u64.
        assert!(bounds[0] > Key::MAX / 8 && bounds[0] < Key::MAX / 2);
        // A tiny sample still yields a full set of cuts.
        let bounds = boundaries_from_sample(&[10], 4);
        assert_eq!(bounds.len(), 3);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn shard_for_routes_by_boundaries() {
        let engine = ShardedPioEngine::create(small_config(4), &(0..4000u64).collect::<Vec<_>>()).unwrap();
        assert_eq!(engine.shard_count(), 4);
        let bounds = engine.boundaries().to_vec();
        assert_eq!(engine.shard_for(0), 0);
        assert_eq!(engine.shard_for(bounds[0] - 1), 0);
        assert_eq!(engine.shard_for(bounds[0]), 1);
        assert_eq!(engine.shard_for(bounds[2]), 3);
        assert_eq!(engine.shard_for(Key::MAX), 3);
    }

    #[test]
    fn operations_round_trip_across_shards() {
        let engine = ShardedPioEngine::create(small_config(4), &(0..10_000u64).collect::<Vec<_>>()).unwrap();
        for k in 0..2_000u64 {
            engine.insert(k * 5, k).unwrap();
        }
        engine.checkpoint().unwrap();
        assert_eq!(engine.search(500).unwrap(), Some(100));
        assert_eq!(engine.search(501).unwrap(), None);
        engine.delete(500).unwrap();
        engine.update(505, 999).unwrap();
        assert_eq!(engine.search(500).unwrap(), None);
        assert_eq!(engine.search(505).unwrap(), Some(999));
        assert_eq!(engine.count_entries().unwrap(), 1_999);
        engine.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_partitions_entries() {
        let entries: Vec<(Key, Value)> = (0..20_000u64).map(|k| (k * 2, k)).collect();
        let engine = ShardedPioEngine::bulk_load(small_config(4), &entries).unwrap();
        assert_eq!(engine.count_entries().unwrap(), 20_000);
        let stats = engine.stats();
        // Quantile boundaries must spread the load roughly evenly.
        for snap in &stats.shards {
            let mine = entries
                .iter()
                .filter(|&&(k, _)| k >= snap.key_lo && k < snap.key_hi)
                .count();
            assert!(
                (3_000..=7_000).contains(&mine),
                "shard {} holds {} entries",
                snap.shard,
                mine
            );
        }
        assert_eq!(engine.search(10_000).unwrap(), Some(5_000));
        engine.check_invariants().unwrap();
    }

    #[test]
    fn multi_search_preserves_caller_order() {
        let entries: Vec<(Key, Value)> = (0..8_000u64).map(|k| (k * 3, k)).collect();
        let engine = ShardedPioEngine::bulk_load(small_config(4), &entries).unwrap();
        let keys: Vec<Key> = (0..500u64).map(|i| (i * 7919) % 30_000).collect();
        let got = engine.multi_search(&keys).unwrap();
        for (k, verdict) in keys.iter().zip(&got) {
            let expected = if k % 3 == 0 && *k < 24_000 { Some(k / 3) } else { None };
            assert_eq!(*verdict, expected, "key {k}");
        }
    }

    #[test]
    fn range_search_stitches_across_shard_boundaries() {
        let entries: Vec<(Key, Value)> = (0..10_000u64).map(|k| (k, k * 10)).collect();
        let engine = ShardedPioEngine::bulk_load(small_config(4), &entries).unwrap();
        let bounds = engine.boundaries().to_vec();
        // A range straddling the middle boundary.
        let lo = bounds[1] - 100;
        let hi = bounds[1] + 100;
        let out = engine.range_search(lo, hi).unwrap();
        assert_eq!(out.len(), 200);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "must be sorted");
        assert_eq!(out.first().unwrap().0, lo);
        assert_eq!(out.last().unwrap().0, hi - 1);
        // Full scan equals the population.
        assert_eq!(engine.range_search(0, Key::MAX).unwrap().len(), 10_000);
    }

    #[test]
    fn insert_batch_fans_out_and_preserves_data() {
        let engine = ShardedPioEngine::create(small_config(4), &(0..40_000u64).collect::<Vec<_>>()).unwrap();
        let batch: Vec<(Key, Value)> = (0..5_000u64).map(|i| ((i * 2_654_435_761) % 40_000, i)).collect();
        engine.insert_batch(&batch).unwrap();
        engine.checkpoint().unwrap();
        // Last write wins per key: build the model the same way.
        let mut model = std::collections::BTreeMap::new();
        for &(k, v) in &batch {
            model.insert(k, v);
        }
        for (&k, &v) in model.iter().step_by(97) {
            assert_eq!(engine.search(k).unwrap(), Some(v), "key {k}");
        }
        assert_eq!(engine.count_entries().unwrap(), model.len() as u64);
        engine.check_invariants().unwrap();
    }

    #[test]
    fn batch_occupancy_counters_track_sub_batches() {
        let entries: Vec<(Key, Value)> = (0..8_000u64).map(|k| (k, k)).collect();
        let engine = ShardedPioEngine::bulk_load(small_config(4), &entries).unwrap();
        assert_eq!(engine.stats().batched_calls, 0, "bulk load is not a batched call");

        // 64 keys spread across the full space: every shard gets a sub-batch.
        let keys: Vec<Key> = (0..64u64).map(|i| i * 125).collect();
        engine.multi_search(&keys).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.batched_ops, 64, "every key lands in exactly one sub-batch");
        assert_eq!(stats.batched_calls, 4, "one sub-batch per participating shard");
        assert!((stats.avg_batch_occupancy() - 16.0).abs() < 1e-9);
        for snap in &stats.shards {
            assert_eq!(snap.batched_calls, 1, "shard {}", snap.shard);
            assert!(snap.batched_ops > 0, "shard {}", snap.shard);
        }

        // A batched insert confined to one shard lands on exactly one counter.
        let batch: Vec<(Key, Value)> = (0..10u64).map(|i| (i, i)).collect();
        engine.insert_batch(&batch).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.batched_ops, 74);
        assert_eq!(stats.batched_calls, 5);
        assert_eq!(stats.shards[0].batched_calls, 2, "the insert hit only shard 0");
        // Single-key operations and range scans are not point sub-batches.
        engine.search(1).unwrap();
        engine.range_search(0, 1_000).unwrap();
        assert_eq!(engine.stats().batched_calls, 5);
    }

    #[test]
    fn invalid_config_is_an_error_not_a_panic() {
        let mut config = small_config(2);
        config.flush_threshold = 2.0;
        let err = ShardedPioEngine::create(config, &[]).unwrap_err();
        assert!(err.to_string().contains("flush_threshold"), "{err}");
    }

    #[test]
    fn maintenance_drains_full_opqs() {
        let mut config = small_config(2);
        config.flush_threshold = 0.25;
        let engine = ShardedPioEngine::create(config, &(0..1_000u64).collect::<Vec<_>>()).unwrap();
        for k in 0..60u64 {
            engine.insert(k * 16 % 1_000, k).unwrap();
        }
        let queued_before = engine.stats().queued_ops;
        assert!(queued_before > 0);
        let flushed = engine.maintain_once().unwrap();
        assert!(flushed >= 1, "at least one shard must flush");
        let stats = engine.stats();
        assert!(stats.queued_ops < queued_before);
        assert_eq!(stats.maintenance_flushes, 1);
        // Below threshold now: a second pass is a no-op.
        assert_eq!(engine.maintain_once().unwrap(), 0);
    }

    #[test]
    fn background_worker_flushes_without_explicit_calls() {
        let mut config = small_config(2);
        config.flush_threshold = 0.1;
        config.maintenance_interval_ms = Some(1);
        let engine = ShardedPioEngine::create(config, &(0..1_000u64).collect::<Vec<_>>()).unwrap();
        assert!(engine.has_background_maintenance());
        for k in 0..200u64 {
            engine.insert(k * 5 % 1_000, k).unwrap();
        }
        // Wait (bounded) for the worker to drain the queues *and* count the pass:
        // a pass drains the OPQs inside its fan-out but bumps the counter only
        // after the fan-out returns.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let stats = loop {
            let stats = engine.stats();
            if (stats.queued_ops < 40 && stats.maintenance_flushes >= 1) || std::time::Instant::now() > deadline {
                break stats;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        };
        let queued = stats.queued_ops;
        assert!(queued < 40, "worker should have drained the OPQs, {queued} left");
        assert!(stats.maintenance_flushes >= 1);
        assert_eq!(stats.maintenance_errors, 0);
        assert!(stats.last_maintenance_error.is_none());
    }

    fn wal_config(shards: usize) -> EngineConfig {
        let mut config = small_config(shards);
        config.base.wal_enabled = true;
        config
    }

    #[test]
    fn committed_batches_survive_an_engine_crash() {
        let engine = ShardedPioEngine::create(wal_config(3), &(0..9_000u64).collect::<Vec<_>>()).unwrap();
        let batch: Vec<(Key, Value)> = (0..90u64).map(|k| (k * 100, k + 1)).collect();
        engine.insert_batch(&batch).unwrap();
        assert_eq!(engine.stats().committed_epochs, 1, "one epoch per batched insert");

        let lost = engine.simulate_crash();
        assert!(lost >= batch.len(), "the queued batch is lost with the OPQs");
        let report = engine.recover().unwrap();
        assert_eq!(report.committed_epochs, 1);
        assert_eq!(report.recovered_epochs, 0);
        assert_eq!(report.discarded_epochs, 0);
        assert!(report.redone() >= batch.len(), "every entry re-drives through the WALs");

        engine.checkpoint().unwrap();
        for &(k, v) in &batch {
            assert_eq!(engine.search(k).unwrap(), Some(v), "key {k}");
        }
        engine.check_invariants().unwrap();
    }

    #[test]
    fn epoch_ids_stay_unique_across_restarts() {
        let engine = ShardedPioEngine::create(wal_config(2), &(0..1_000u64).collect::<Vec<_>>()).unwrap();
        for round in 0..3u64 {
            let batch: Vec<(Key, Value)> = (0..20u64).map(|k| (k * 7 + round, round)).collect();
            engine.insert_batch(&batch).unwrap();
            engine.simulate_crash();
            let report = engine.recover().unwrap();
            assert_eq!(report.discarded_epochs, 0, "round {round}");
            assert_eq!(report.committed_epochs, round + 1, "epochs accumulate in the log");
        }
        engine.checkpoint().unwrap();
        engine.check_invariants().unwrap();
    }

    #[test]
    fn recovery_without_wals_is_a_noop() {
        let engine = ShardedPioEngine::create(small_config(2), &(0..100u64).collect::<Vec<_>>()).unwrap();
        engine.insert_batch(&[(1, 1), (99, 2)]).unwrap();
        engine.simulate_crash();
        let report = engine.recover().unwrap();
        assert_eq!(report.redone(), 0, "nothing to replay without WALs");
        assert_eq!(engine.search(1).unwrap(), None, "unlogged queued entries are gone");
        assert_eq!(engine.stats().committed_epochs, 0);
    }

    #[test]
    fn scheduled_io_is_at_most_total_io() {
        let entries: Vec<(Key, Value)> = (0..20_000u64).map(|k| (k, k)).collect();
        let engine = ShardedPioEngine::bulk_load(small_config(4), &entries).unwrap();
        let keys: Vec<Key> = (0..256u64).map(|i| i * 73 % 20_000).collect();
        engine.multi_search(&keys).unwrap();
        let stats = engine.stats();
        assert!(stats.scheduled_io_us > 0.0);
        assert!(
            stats.scheduled_io_us <= stats.total_io_us + 1e-9,
            "makespan {} must not exceed device work {}",
            stats.scheduled_io_us,
            stats.total_io_us
        );
        assert!(stats.overlap_factor() >= 1.0);
    }

    #[test]
    fn one_shard_schedule_equals_device_work() {
        // With a single shard there is nothing to overlap, so the lifetime
        // makespan (including the bulk load) must equal the device work exactly.
        let entries: Vec<(Key, Value)> = (0..10_000u64).map(|k| (k, k)).collect();
        let engine = ShardedPioEngine::bulk_load(small_config(1), &entries).unwrap();
        for k in 0..500u64 {
            engine.insert(k * 3, k).unwrap();
        }
        engine.checkpoint().unwrap();
        engine.multi_search(&(0..64u64).collect::<Vec<_>>()).unwrap();
        // The diagnostic paths must also keep the schedule in lockstep.
        engine.count_entries().unwrap();
        engine.check_invariants().unwrap();
        let stats = engine.stats();
        assert!(stats.total_io_us > 0.0);
        assert!(
            (stats.scheduled_io_us - stats.total_io_us).abs() < 1e-6,
            "1 shard: makespan {} must equal device work {}",
            stats.scheduled_io_us,
            stats.total_io_us
        );
        assert!((stats.overlap_factor() - 1.0).abs() < 1e-9);
    }
}
