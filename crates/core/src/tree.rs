//! The PIO B-tree itself (Section 3.3): the integration of MPSearch, prange search,
//! the OPQ with batch updates, and asymmetric append-only leaf nodes.
//!
//! Structure on disk:
//!
//! * internal nodes are single pages in the same format as the baseline B+-tree
//!   (sorted separator keys + child pointers);
//! * leaf nodes are `L` physically consecutive pages (Leaf Segments) holding records
//!   in the append-only OPQ-entry format (see [`crate::leaf`]);
//! * there is always at least one internal level (the root), so the tree height is
//!   `internal levels + 1` and every leaf has a parent to receive fence keys.
//!
//! I/O discipline: internal nodes are cached by a write-through buffer pool; leaf
//! regions are read with single large requests (`Pr(L)` in the cost model); every
//! batched read or write goes through one psync call bounded by `PioMax`; reads and
//! writes are never mixed in one call (Principle 3).

use crate::config::PioConfig;
use crate::entry::{OpEntry, OpKind};
use crate::inner_tier::InnerTier;
use crate::leaf::PioLeaf;
use crate::lsmap::LsMap;
use crate::mpsearch::{locate_leaves, locate_leaves_in_range, LeafLocation};
use crate::opq::OperationQueue;
use crate::recovery::{LogRecord, RecoveryReport};
use btree::{InternalNode, Key, Node, Value};
use pio::ring::run_pipeline;
use pio::{IoResult, SimPsyncIo, TicketRing};
use ssd_sim::DeviceProfile;
use std::collections::BTreeMap;
use std::sync::Arc;
use storage::{CachedReadTicket, CachedStore, PageId, PageStore, RegionWriteTicket, Wal, WritePolicy};

/// Operation and structural counters of a [`PioBTree`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PioStats {
    /// Point searches.
    pub searches: u64,
    /// Multi-key (MPSearch) calls.
    pub multi_searches: u64,
    /// prange searches.
    pub range_searches: u64,
    /// Insert operations accepted.
    pub inserts: u64,
    /// Delete operations accepted.
    pub deletes: u64,
    /// Update operations accepted.
    pub updates: u64,
    /// OPQ appends (should equal inserts + deletes + updates).
    pub opq_appends: u64,
    /// bupdate invocations.
    pub bupdates: u64,
    /// Leaves handled by the append path (last-LS read + segment writes).
    pub leaf_appends: u64,
    /// Leaves handled by the full path (whole-region read, shrink, rewrite).
    pub leaf_rewrites: u64,
    /// Shrink operations performed.
    pub shrinks: u64,
    /// Leaf splits.
    pub leaf_splits: u64,
    /// Internal node splits.
    pub internal_splits: u64,
    /// Times the tree grew a level.
    pub height_growths: u64,
    /// Descents fully served by the in-memory inner tier (no inner-node I/O).
    pub inner_tier_hits: u64,
    /// Descents that fell back to the store wavefront (tier cold/stale/over
    /// budget).
    pub inner_tier_misses: u64,
    /// Inner-tier snapshots rebuilt and published.
    pub inner_tier_rebuilds: u64,
    /// Inner-tier snapshot loads that found the slot held and waited for it.
    pub inner_tier_retries: u64,
}

impl PioStats {
    /// Accumulates `other` into `self`, field by field — used by the sharded engine
    /// to roll per-shard counters up into one aggregate. The exhaustive destructuring
    /// (no `..`) makes adding a `PioStats` field without extending the rollup a
    /// compile error.
    pub fn merge(&mut self, other: &PioStats) {
        let PioStats {
            searches,
            multi_searches,
            range_searches,
            inserts,
            deletes,
            updates,
            opq_appends,
            bupdates,
            leaf_appends,
            leaf_rewrites,
            shrinks,
            leaf_splits,
            internal_splits,
            height_growths,
            inner_tier_hits,
            inner_tier_misses,
            inner_tier_rebuilds,
            inner_tier_retries,
        } = *other;
        self.searches += searches;
        self.multi_searches += multi_searches;
        self.range_searches += range_searches;
        self.inserts += inserts;
        self.deletes += deletes;
        self.updates += updates;
        self.opq_appends += opq_appends;
        self.bupdates += bupdates;
        self.leaf_appends += leaf_appends;
        self.leaf_rewrites += leaf_rewrites;
        self.shrinks += shrinks;
        self.leaf_splits += leaf_splits;
        self.internal_splits += internal_splits;
        self.height_growths += height_growths;
        self.inner_tier_hits += inner_tier_hits;
        self.inner_tier_misses += inner_tier_misses;
        self.inner_tier_rebuilds += inner_tier_rebuilds;
        self.inner_tier_retries += inner_tier_retries;
    }

    /// Total update-type operations accepted (inserts + deletes + updates).
    pub fn update_ops(&self) -> u64 {
        self.inserts + self.deletes + self.updates
    }
}

/// A pending fence-key insertion produced by a node split during bupdate.
#[derive(Debug, Clone)]
struct FenceInsert {
    /// Root-to-parent path of the node that split (the last element is the parent
    /// that must receive the fence key).
    path: Vec<(PageId, usize)>,
    key: Key,
    new_child: PageId,
}

/// One leaf node's share of a bupdate batch.
#[derive(Debug, Clone)]
struct LeafJob {
    leaf: PageId,
    path: Vec<(PageId, usize)>,
    ops: Vec<OpEntry>,
}

/// In-memory undo state captured while a bupdate runs: the same page preimages the
/// WAL's `FlushUndo` records hold, plus the volatile state (LSMap entries) a
/// durable log cannot cover. A failed flush replays this in process, so the tree
/// is left consistent without a restart (see [`PioBTree::flush_once`]).
#[derive(Debug, Default)]
struct FlushUndo {
    /// Page preimages in capture order (replayed in reverse, first capture wins).
    pages: Vec<(PageId, Vec<u8>)>,
    /// LSMap entries before the flush touched them (`None` = no entry existed).
    lsmap: Vec<(PageId, Option<u32>)>,
    /// Pages the flush allocated (`(first, n)` runs) — freed again on rollback so
    /// failed flushes do not strand store space.
    allocations: Vec<(PageId, u64)>,
}

impl FlushUndo {
    fn note_page(&mut self, page: PageId, preimage: Vec<u8>) {
        self.pages.push((page, preimage));
    }

    fn note_lsmap(&mut self, leaf: PageId, previous: Option<u32>) {
        self.lsmap.push((leaf, previous));
    }

    fn note_alloc(&mut self, first: PageId, n: u64) {
        self.allocations.push((first, n));
    }
}

/// The PIO B-tree.
pub struct PioBTree {
    store: Arc<CachedStore>,
    config: PioConfig,
    root: PageId,
    /// Total levels including the leaf level (always ≥ 2).
    height: usize,
    opq: OperationQueue,
    lsmap: LsMap,
    stats: PioStats,
    wal: Option<Wal>,
    next_flush_id: u64,
    next_tx: u64,
    /// Ticket-pipeline depth of the batched hot paths, resolved at construction
    /// from `config.pipeline_depth` and the store backend's queue-depth hint.
    pipeline_depth: usize,
    /// Earliest `BatchBegin` LSN of every cross-shard epoch whose verdict the
    /// engine has not delivered yet ([`PioBTree::resolve_epoch`]). WAL
    /// truncation must never pass the minimum of these: recovery needs the
    /// whole bracket to keep or discard the epoch atomically.
    open_brackets: BTreeMap<u64, storage::Lsn>,
    /// Operations accepted since the last checkpoint — the engine's dirty-shard
    /// test (a clean shard's checkpoint would be pure overhead).
    dirty_ops: u64,
    /// The in-memory inner-node tier: probed before every descent, rebuilt at
    /// the flush-commit points where the structure can change, invalidated on
    /// crash/rollback. Disabled (always cold) when
    /// `config.inner_tier_pages == 0`.
    tier: InnerTier,
}

impl std::fmt::Debug for PioBTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PioBTree")
            .field("root", &self.root)
            .field("height", &self.height)
            .field("opq_len", &self.opq.len())
            .field("leaves_tracked", &self.lsmap.len())
            .finish()
    }
}

impl PioBTree {
    // ------------------------------------------------------------------ creation --

    /// Creates an empty PIO B-tree over a freshly simulated device of `profile` with
    /// `capacity_bytes` of storage.
    pub fn create(profile: DeviceProfile, capacity_bytes: u64, config: PioConfig) -> IoResult<Self> {
        let io = Arc::new(SimPsyncIo::with_profile(profile, capacity_bytes));
        let store = Arc::new(CachedStore::new(
            PageStore::new(io, config.page_size),
            config.pool_pages,
            WritePolicy::WriteThrough,
        ));
        let mut tree = Self::bulk_load(store, &[], config.clone())?;
        if config.wal_enabled {
            // The log lives in its own file (its own backend) so log appends never
            // interleave with index-node I/O inside a psync call.
            let wal_io = Arc::new(SimPsyncIo::with_profile(profile, 256 * 1024 * 1024));
            tree.wal = Some(Wal::new(wal_io, 0, config.page_size));
        }
        Ok(tree)
    }

    /// Builds a PIO B-tree over an existing cached store (whose page size must match
    /// the configuration) by bulk loading `entries`, which must be sorted and
    /// duplicate-free.
    pub fn bulk_load(store: Arc<CachedStore>, entries: &[(Key, Value)], config: PioConfig) -> IoResult<Self> {
        config.validate().map_err(pio::IoError::InvalidConfig)?;
        assert_eq!(
            store.page_size(),
            config.page_size,
            "store page size must match the config"
        );
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "bulk_load requires sorted, duplicate-free input"
        );
        let page_size = config.page_size;
        let segments = config.leaf_segments;
        let leaf_cap = PioLeaf::capacity(segments, page_size);
        let per_leaf = ((leaf_cap as f64 * config.fill_factor).floor() as usize).max(1);
        let pipeline_depth = config.resolve_pipeline_depth(store.queue_depth_hint());
        let mut lsmap = LsMap::new();

        // --- Leaf level -----------------------------------------------------------
        // Region batches are pipelined: up to `pipeline_depth` write tickets stay
        // in flight on the device while the next batch of leaf images is encoded,
        // so the loader overlaps CPU work (and the following batches' submission)
        // with device time instead of blocking on every 64 regions.
        let mut level: Vec<(Key, PageId)> = Vec::new();
        let mut region_writes: Vec<(PageId, Vec<u8>)> = Vec::new();
        let mut ring: TicketRing<RegionWriteTicket> = TicketRing::new(pipeline_depth);
        let submit_batch =
            |region_writes: &mut Vec<(PageId, Vec<u8>)>, ring: &mut TicketRing<RegionWriteTicket>| -> IoResult<()> {
                if !ring.has_room() {
                    let oldest = ring.pop().expect("full ring is non-empty");
                    if let Err(e) = store.complete_write_regions(oldest) {
                        // Drain the other in-flight tickets before surfacing the
                        // error so no submission is left outstanding.
                        ring.drain_with(|t| {
                            let _ = store.complete_write_regions(t);
                        });
                        return Err(e);
                    }
                }
                let refs: Vec<(PageId, &[u8])> = region_writes.iter().map(|(p, d)| (*p, d.as_slice())).collect();
                match store.submit_write_regions(&refs) {
                    Ok(ticket) => {
                        ring.push(ticket);
                        region_writes.clear();
                        Ok(())
                    }
                    Err(e) => {
                        ring.drain_with(|t| {
                            let _ = store.complete_write_regions(t);
                        });
                        Err(e)
                    }
                }
            };
        let chunks: Vec<&[(Key, Value)]> = if entries.is_empty() {
            vec![&[][..]]
        } else {
            entries.chunks(per_leaf).collect()
        };
        for chunk in chunks {
            let first = store.allocate_contiguous(segments as u64);
            let leaf = PioLeaf::from_sorted(segments, chunk);
            lsmap.set(first, leaf.last_segment(page_size));
            level.push((chunk.first().map(|&(k, _)| k).unwrap_or(0), first));
            region_writes.push((first, leaf.encode(page_size)));
            if region_writes.len() >= 64 {
                submit_batch(&mut region_writes, &mut ring)?;
            }
        }
        if !region_writes.is_empty() {
            submit_batch(&mut region_writes, &mut ring)?;
        }
        // Writes are durable when reaped: every remaining ticket must complete
        // (and any completion error must surface) before the load returns.
        let mut drain_error: Option<pio::IoError> = None;
        ring.drain_with(|t| {
            if let Err(e) = store.complete_write_regions(t) {
                drain_error.get_or_insert(e);
            }
        });
        if let Some(e) = drain_error {
            return Err(e);
        }

        // --- Internal levels --------------------------------------------------------
        let internal_cap =
            ((InternalNode::max_children(page_size) as f64 * config.fill_factor).floor() as usize).max(2);
        let mut height = 1usize;
        loop {
            let force_root = height == 1; // always create at least one internal level
            if level.len() == 1 && !force_root {
                break;
            }
            height += 1;
            let mut next_level = Vec::new();
            let mut writes: Vec<(PageId, Vec<u8>)> = Vec::new();
            for chunk in level.chunks(internal_cap) {
                let page = store.allocate();
                let node = InternalNode {
                    keys: chunk.iter().skip(1).map(|&(k, _)| k).collect(),
                    children: chunk.iter().map(|&(_, p)| p).collect(),
                };
                next_level.push((chunk[0].0, page));
                writes.push((page, Node::Internal(node).encode(page_size)));
            }
            let refs: Vec<(PageId, &[u8])> = writes.iter().map(|(p, d)| (*p, d.as_slice())).collect();
            store.write_pages(&refs)?;
            level = next_level;
            if level.len() == 1 {
                break;
            }
        }

        let root = level[0].1;
        store.set_leaf_cache(config.leaf_cache_pages);
        let tier = InnerTier::new(config.inner_tier_pages);
        let tree = Self {
            store,
            opq: OperationQueue::new(config.opq_pages, config.page_size, config.speriod),
            lsmap,
            root,
            height,
            stats: PioStats::default(),
            wal: None,
            next_flush_id: 1,
            next_tx: 1,
            pipeline_depth,
            open_brackets: BTreeMap::new(),
            dirty_ops: 0,
            config,
            tier,
        };
        // Warm the tier from the freshly written internal levels (pool-hot, so
        // this is a memory walk, not device I/O).
        tree.tier.rebuild_from(&tree.store, tree.root, tree.height)?;
        Ok(tree)
    }

    /// Reopens a tree over a store that already holds its pages — the restart
    /// path of a persistent deployment. `root`, `height` and the store's
    /// allocation frontier come from a persisted manifest snapshot (the
    /// superblock that [`PioBTree::simulate_crash`]'s surviving root pointer
    /// stands in for); the caller must restore the frontier with
    /// [`storage::CachedStore::ensure_high_water`] before operating on the tree.
    /// The volatile state (OPQ, LSMap, statistics) starts empty, exactly as
    /// after a crash.
    ///
    /// The snapshot may be **stale** when a WAL is attached afterwards: flushes
    /// completed after the snapshot moved the root and allocated pages, and
    /// [`PioBTree::recover`] rolls both forward from the log's `FlushRoot` /
    /// `FlushAlloc` records. Without a WAL the snapshot must describe a cleanly
    /// checkpointed tree — there is nothing to roll forward from.
    pub fn open(store: Arc<CachedStore>, config: PioConfig, root: PageId, height: usize) -> IoResult<Self> {
        config.validate().map_err(pio::IoError::InvalidConfig)?;
        assert_eq!(
            store.page_size(),
            config.page_size,
            "store page size must match the config"
        );
        // The snapshot comes from a persisted manifest, so an impossible value
        // is corruption, not a caller bug: report it instead of panicking.
        if height < 2 {
            return Err(pio::IoError::InvalidConfig(format!(
                "snapshot height {height} is impossible (a PIO B-tree always has at least one internal level)"
            )));
        }
        let pipeline_depth = config.resolve_pipeline_depth(store.queue_depth_hint());
        store.set_leaf_cache(config.leaf_cache_pages);
        let tier = InnerTier::new(config.inner_tier_pages);
        // The tier stays cold here on purpose: the manifest snapshot may be
        // stale (a WAL attached afterwards rolls the root forward), so the
        // rebuild happens at the end of recovery — or on the first
        // `refresh_inner_tier` tick for WAL-less reopens.
        Ok(Self {
            store,
            opq: OperationQueue::new(config.opq_pages, config.page_size, config.speriod),
            lsmap: LsMap::new(),
            root,
            height,
            stats: PioStats::default(),
            wal: None,
            next_flush_id: 1,
            next_tx: 1,
            pipeline_depth,
            open_brackets: BTreeMap::new(),
            dirty_ops: 0,
            config,
            tier,
        })
    }

    /// Attaches a write-ahead log (enables crash recovery).
    pub fn attach_wal(&mut self, wal: Wal) {
        self.wal = Some(wal);
    }

    /// The attached write-ahead log, if any (position/durability hooks for the
    /// engine's cross-shard epoch protocol).
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// Forces the WAL and returns its durable LSN (0 without a WAL) — the
    /// per-shard durability ack of the engine's flush-epoch protocol.
    pub fn force_wal(&self) -> IoResult<storage::Lsn> {
        match &self.wal {
            Some(wal) => {
                wal.force()?;
                Ok(wal.durable_lsn())
            }
            None => Ok(0),
        }
    }

    // ------------------------------------------------------------------ accessors --

    /// The tree's configuration.
    pub fn config(&self) -> &PioConfig {
        &self.config
    }

    /// The cached store the tree performs I/O through.
    pub fn store(&self) -> &Arc<CachedStore> {
        &self.store
    }

    /// The current root page id (with [`PioBTree::height`] and the store's
    /// high-water mark, the manifest snapshot a persistent deployment saves so
    /// [`PioBTree::open`] can reopen the tree).
    pub fn root_page(&self) -> PageId {
        self.root
    }

    /// Tree height in levels, including the leaf level (always ≥ 2).
    pub fn height(&self) -> usize {
        self.height
    }

    /// The resolved ticket-pipeline depth of the batched hot paths: how many
    /// `PioMax`-bounded batches stay in flight at once. Resolved at
    /// construction from [`PioConfig::pipeline_depth`] (`Auto` derives it from
    /// the store backend's queue-depth hint; see
    /// [`crate::config::PipelineDepth`]).
    pub fn pipeline_depth(&self) -> usize {
        self.pipeline_depth
    }

    /// Number of internal levels (height − 1).
    fn internal_levels(&self) -> usize {
        self.height - 1
    }

    /// Operation counters, with the inner tier's atomics folded in.
    pub fn stats(&self) -> PioStats {
        let mut stats = self.stats;
        let tier = self.tier.stats();
        stats.inner_tier_hits = tier.hits;
        stats.inner_tier_misses = tier.misses;
        stats.inner_tier_rebuilds = tier.rebuilds;
        stats.inner_tier_retries = tier.retries;
        stats
    }

    /// The in-memory inner-node tier (cold and disabled unless
    /// [`PioConfig::inner_tier_pages`] is set).
    pub fn inner_tier(&self) -> &InnerTier {
        &self.tier
    }

    /// Rebuilds the inner tier's snapshot from the store if the tier is
    /// enabled and not already warm for the current root — the engine's
    /// maintenance tick and post-migration refresh. Returns whether a rebuild
    /// ran. A failed rebuild leaves the tier cold (every descent falls back),
    /// never stale.
    pub fn refresh_inner_tier(&mut self) -> IoResult<bool> {
        if !self.tier.enabled() {
            return Ok(false);
        }
        if let Some(snap) = self.tier.load() {
            if snap.root == self.root && snap.height == self.height {
                return Ok(false);
            }
        }
        self.tier.rebuild_from(&self.store, self.root, self.height)
    }

    /// Rebuild variant for the flush hot path: an I/O error during the rebuild
    /// must not fail the flush that already committed, so it only leaves the
    /// tier cold (correctness never depends on the tier).
    fn rebuild_tier_after_structural_change(&mut self) {
        if self.tier.enabled() {
            let _ = self.tier.rebuild_from(&self.store, self.root, self.height);
        }
    }

    /// Number of operations currently buffered in the OPQ.
    pub fn opq_len(&self) -> usize {
        self.opq.len()
    }

    /// Maximum number of entries the OPQ holds before a flush is forced.
    pub fn opq_capacity(&self) -> usize {
        self.opq.capacity()
    }

    /// Simulated (or wall-clock) I/O time consumed by index I/O, in µs.
    pub fn io_elapsed_us(&self) -> f64 {
        self.store.io_elapsed_us()
    }

    /// Approximate main-memory footprint of the LSMap in bytes.
    pub fn lsmap_bytes(&self) -> usize {
        self.lsmap.memory_bytes()
    }

    /// Counts the live entries by scanning the whole key space (exact but expensive;
    /// meant for tests and examples).
    pub fn count_entries(&mut self) -> IoResult<u64> {
        Ok(self.range_search(0, Key::MAX)?.len() as u64)
    }

    // ----------------------------------------------------------------- operations --

    /// Point search. Consults the OPQ first (Section 3.3), then descends the internal
    /// levels and reads the leaf region.
    pub fn search(&mut self, key: Key) -> IoResult<Option<Value>> {
        self.stats.searches += 1;
        if let Some(verdict) = self.opq.lookup(key) {
            return Ok(verdict);
        }
        let page = match self.tier.probe_leaf(self.root, self.height, key) {
            Some(leaf) => leaf,
            None => {
                // Tier cold or stale: page-at-a-time descent through the store.
                let mut page = self.root;
                for _ in 0..self.internal_levels() {
                    let node = Node::decode(&self.store.read_page(page)?).expect_internal();
                    page = node.children[node.child_for(key)];
                }
                page
            }
        };
        let image = self.store.read_region(page, self.config.leaf_segments as u64)?;
        let leaf = PioLeaf::decode(&image, self.config.leaf_segments, self.config.page_size);
        Ok(leaf.lookup(key).unwrap_or(None))
    }

    /// MPSearch: searches every key in `keys` at once, fetching internal nodes and
    /// leaf regions level by level with psync calls bounded by `PioMax`. Results are
    /// returned in the order of `keys`.
    pub fn multi_search(&mut self, keys: &[Key]) -> IoResult<Vec<Option<Value>>> {
        self.stats.multi_searches += 1;
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        // Sort the requests, remembering the original positions.
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        let sorted_keys: Vec<Key> = order.iter().map(|&i| keys[i]).collect();
        let locs = match self.tier.probe_leaves(self.root, self.height, &sorted_keys) {
            Some(locs) => locs,
            // Fallback: the ticketed store wavefront, which keeps the paper's
            // `PioMax · (treeHeight − 1)` buffer bound.
            None => locate_leaves(
                &self.store,
                self.root,
                self.internal_levels(),
                &sorted_keys,
                self.config.pio_max,
                self.pipeline_depth,
            )?,
        };

        let mut results = vec![None; keys.len()];
        let l = self.config.leaf_segments as u64;
        // Deduplicated leaf-region list of every PioMax-sized batch, computed up
        // front so later batches can be submitted while earlier ones are decoded.
        let chunk_regions: Vec<Vec<(PageId, u64)>> = locs
            .chunks(self.config.pio_max)
            .map(|group| {
                let mut regions: Vec<(PageId, u64)> = Vec::new();
                for loc in group {
                    if regions.last().map(|&(p, _)| p) != Some(loc.leaf) {
                        regions.push((loc.leaf, l));
                    }
                }
                regions
            })
            .collect();
        // Pipelined fetch: up to `pipeline_depth` batches stay in flight, so that
        // many psync windows overlap on the device while the CPU resolves the
        // current batch's keys — the depth that fills the device queue instead of
        // flat-lining at double buffering.
        let key_chunks: Vec<&[Key]> = sorted_keys.chunks(self.config.pio_max).collect();
        let loc_chunks: Vec<&[LeafLocation]> = locs.chunks(self.config.pio_max).collect();
        run_pipeline(
            self.pipeline_depth,
            chunk_regions.len(),
            |group_idx| self.store.submit_read_regions(&chunk_regions[group_idx]),
            |ticket| self.store.complete_read_regions(ticket),
            |group_idx, images| {
                let regions = &chunk_regions[group_idx];
                let leaves: Vec<PioLeaf> = images
                    .iter()
                    .map(|img| PioLeaf::decode(img, self.config.leaf_segments, self.config.page_size))
                    .collect();
                for (pos_in_group, loc) in loc_chunks[group_idx].iter().enumerate() {
                    let leaf_idx = regions
                        .iter()
                        .position(|&(p, _)| p == loc.leaf)
                        .expect("region fetched");
                    let key = key_chunks[group_idx][pos_in_group];
                    // Map back from the sorted position to the caller's position.
                    let original_idx = order[group_idx * self.config.pio_max + pos_in_group];
                    let verdict = self
                        .opq
                        .lookup(key)
                        .or_else(|| leaves[leaf_idx].lookup(key))
                        .unwrap_or(None);
                    results[original_idx] = verdict;
                }
            },
        )?;
        Ok(results)
    }

    /// prange search (Section 3.1.2): reads all internal nodes and leaf regions that
    /// intersect `[lo, hi)` level by level via psync I/O and returns the live entries
    /// in the range, sorted by key.
    pub fn range_search(&mut self, lo: Key, hi: Key) -> IoResult<Vec<(Key, Value)>> {
        self.stats.range_searches += 1;
        if lo >= hi {
            return Ok(Vec::new());
        }
        let leaves = match self.tier.probe_range(self.root, self.height, lo, hi) {
            Some(leaves) => leaves,
            None => locate_leaves_in_range(
                &self.store,
                self.root,
                self.internal_levels(),
                lo,
                hi,
                self.config.pio_max,
                self.pipeline_depth,
            )?,
        };
        let l = self.config.leaf_segments as u64;
        let mut merged: BTreeMap<Key, Value> = BTreeMap::new();
        // Leaf regions are fetched through the same depth-N ticket pipeline as
        // multi_search: later batches ride the device queue while earlier ones
        // are decoded and merged.
        let batches: Vec<&[PageId]> = leaves.chunks(self.config.pio_max).collect();
        run_pipeline(
            self.pipeline_depth,
            batches.len(),
            |batch_idx| {
                let regions: Vec<(PageId, u64)> = batches[batch_idx].iter().map(|&p| (p, l)).collect();
                // Scan-hinted: the stream may hit resident leaf-cache entries
                // but never evicts the point-lookup working set.
                self.store
                    .submit_read_regions_hinted(&regions, storage::AccessHint::Scan)
            },
            |ticket| self.store.complete_read_regions(ticket),
            |_, images| {
                for img in &images {
                    let leaf = PioLeaf::decode(img, self.config.leaf_segments, self.config.page_size);
                    for (k, v) in leaf.resolve() {
                        if k >= lo && k < hi {
                            merged.insert(k, v);
                        }
                    }
                }
            },
        )?;
        // Overlay the queued (not yet flushed) operations.
        for e in self.opq.entries_in_range(lo, hi) {
            match e.op {
                OpKind::Insert | OpKind::Update => {
                    merged.insert(e.key, e.value);
                }
                OpKind::Delete => {
                    merged.remove(&e.key);
                }
            }
        }
        Ok(merged.into_iter().collect())
    }

    /// Index-insert: appended to the OPQ; a full OPQ triggers one bupdate of `bcnt`
    /// entries.
    pub fn insert(&mut self, key: Key, value: Value) -> IoResult<()> {
        self.stats.inserts += 1;
        self.enqueue(OpEntry::insert(key, value))
    }

    /// Inserts a batch of key/value pairs in order. This is the router-facing entry
    /// point of the sharded engine: the whole batch is enqueued under one borrow, and
    /// any OPQ-full flushes triggered along the way run as usual.
    pub fn insert_batch(&mut self, entries: &[(Key, Value)]) -> IoResult<()> {
        for &(key, value) in entries {
            self.insert(key, value)?;
        }
        Ok(())
    }

    /// Inserts a batch inside a cross-shard epoch bracket and forces the WAL, so
    /// the whole sub-batch is durable when this returns (the engine's per-shard
    /// durability step). The logical records between the `BatchBegin`/`BatchEnd`
    /// markers belong to `epoch`; at recovery, [`PioBTree::recover_with`] keeps or
    /// discards them wholesale according to the engine's epoch verdict, which is
    /// what makes an engine batch all-or-nothing across shards. Returns the WAL's
    /// durable LSN.
    ///
    /// The bracket is closed (and a force attempted) even when the batch fails
    /// mid-way, so every record that did reach the log stays attributable to the
    /// epoch — an unclosed bracket would leak the epoch tag onto later,
    /// unrelated records.
    pub fn insert_batch_epoch(&mut self, entries: &[(Key, Value)], epoch: u64) -> IoResult<storage::Lsn> {
        if let Some(wal) = &self.wal {
            let lsn = wal.append(&LogRecord::BatchBegin { epoch }.encode());
            // Pin WAL truncation below this bracket until the engine delivers
            // the epoch's verdict (the earliest bracket of an epoch wins).
            self.open_brackets.entry(epoch).or_insert(lsn);
        }
        let result = self.insert_batch(entries);
        let Some(wal) = &self.wal else {
            result?;
            return Ok(0);
        };
        wal.append(&LogRecord::BatchEnd { epoch }.encode());
        match result {
            Ok(()) => {
                wal.force()?;
                Ok(wal.durable_lsn())
            }
            Err(e) => {
                // Best effort: if the force fails too, the records were lost with
                // the crash and recovery discards the epoch anyway.
                let _ = wal.force();
                Err(e)
            }
        }
    }

    /// Applies a batch of arbitrary operations (inserts, updates, deletes)
    /// inside a cross-shard epoch bracket and forces the WAL — the general form
    /// of [`PioBTree::insert_batch_epoch`], used by shard migration to journal
    /// region copies and retires under the migration epoch. Returns the WAL's
    /// durable LSN.
    pub fn apply_batch_epoch(&mut self, ops: &[OpEntry], epoch: u64) -> IoResult<storage::Lsn> {
        if let Some(wal) = &self.wal {
            let lsn = wal.append(&LogRecord::BatchBegin { epoch }.encode());
            self.open_brackets.entry(epoch).or_insert(lsn);
        }
        let mut result = Ok(());
        for &op in ops {
            result = match op.op {
                OpKind::Insert => self.insert(op.key, op.value),
                OpKind::Update => self.update(op.key, op.value),
                OpKind::Delete => self.delete(op.key),
            };
            if result.is_err() {
                break;
            }
        }
        let Some(wal) = &self.wal else {
            result?;
            return Ok(0);
        };
        wal.append(&LogRecord::BatchEnd { epoch }.encode());
        match result {
            Ok(()) => {
                wal.force()?;
                Ok(wal.durable_lsn())
            }
            Err(e) => {
                // Best effort, as in `insert_batch_epoch`: a failed force means
                // the records died with the crash and the epoch is discarded.
                let _ = wal.force();
                Err(e)
            }
        }
    }

    /// Exports every live entry in `[lo, hi)` — the leaf regions intersecting
    /// the range plus the OPQ overlay — as the snapshot side of a shard
    /// migration. This *is* a prange search ([`PioBTree::range_search`]): the
    /// moving region is read through the same pipelined region fetch, so an
    /// export costs what a scan of the range costs.
    pub fn export_region(&mut self, lo: Key, hi: Key) -> IoResult<Vec<(Key, Value)>> {
        self.range_search(lo, hi)
    }

    /// Imports entries (the other shard's exported region) under `epoch` — an
    /// epoch-bracketed upsert batch, durable when it returns.
    pub fn import_region(&mut self, entries: &[(Key, Value)], epoch: u64) -> IoResult<storage::Lsn> {
        self.insert_batch_epoch(entries, epoch)
    }

    /// Retires a migrated key set from this shard under `epoch` — an
    /// epoch-bracketed delete batch. Deleting a key the shard never held is a
    /// harmless tombstone, so the caller may pass the union of everything that
    /// *may* have landed here (snapshot keys plus writes mirrored during the
    /// migration).
    pub fn retire_region(&mut self, keys: &[Key], epoch: u64) -> IoResult<storage::Lsn> {
        let ops: Vec<OpEntry> = keys.iter().map(|&k| OpEntry::delete(k)).collect();
        self.apply_batch_epoch(&ops, epoch)
    }

    /// Index-delete.
    pub fn delete(&mut self, key: Key) -> IoResult<()> {
        self.stats.deletes += 1;
        self.enqueue(OpEntry::delete(key))
    }

    /// Index-update (replace the record pointer of `key`).
    pub fn update(&mut self, key: Key, value: Value) -> IoResult<()> {
        self.stats.updates += 1;
        self.enqueue(OpEntry::update(key, value))
    }

    fn enqueue(&mut self, entry: OpEntry) -> IoResult<()> {
        self.stats.opq_appends += 1;
        self.dirty_ops += 1;
        if let Some(wal) = &self.wal {
            let tx = self.next_tx;
            self.next_tx += 1;
            wal.append(&LogRecord::LogicalRedo { tx, entry }.encode());
        }
        if self.opq.append(entry) {
            self.flush_once()?;
        }
        Ok(())
    }

    /// Runs one bupdate over at most `bcnt` OPQ entries (the paper's latency-bounding
    /// mechanism). Does nothing if the OPQ is empty.
    ///
    /// The flush is **transactional in process**: while the bupdate runs, every
    /// node write is preceded by capturing its preimage (the same images the WAL's
    /// `FlushUndo` records hold) together with the touched LSMap entries and the
    /// root/height. If any chunk of the bupdate fails, the preimages are written
    /// back in reverse order, the in-memory state is restored, and the batch
    /// returns to the front of the OPQ — so a failed flush leaves the tree exactly
    /// as it was, without a restart. The WAL (when enabled) still covers the crash
    /// case: a crash mid-flush is undone by [`PioBTree::recover`] from the same
    /// preimages (Section 3.4).
    ///
    /// If the *rollback writes themselves* fail, in-process repair is impossible
    /// and the tree needs WAL recovery; the original error is returned either way.
    pub fn flush_once(&mut self) -> IoResult<()> {
        let batch = self.opq.take_batch(self.config.bcnt);
        let root = self.root;
        let height = self.height;
        let flush_id = self.next_flush_id;
        let mut undo = FlushUndo::default();
        match self.bupdate(&batch, &mut undo) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.rollback_flush(undo, root, height);
                // Mark the flush aborted in the WAL: recovery must not replay its
                // undo preimages (the pages were just restored, and a successful
                // retry flush may rewrite them), while its batch — back in the
                // OPQ — must still be redone after a crash. Best-effort: if the
                // abort record does not become durable, recovery re-applies the
                // same preimages, which is idempotent.
                if !batch.is_empty() {
                    if let Some(wal) = &self.wal {
                        wal.append(&LogRecord::FlushAbort { flush_id }.encode());
                        let _ = wal.force();
                    }
                }
                self.opq.restore_front(batch);
                Err(e)
            }
        }
    }

    /// Applies a [`FlushUndo`] capture: page preimages are written back in reverse
    /// capture order (first capture wins), then the LSMap entries and the
    /// root/height are restored. Write errors during rollback are swallowed — at
    /// that point only WAL recovery can help, and the caller is already returning
    /// the original flush error.
    fn rollback_flush(&mut self, undo: FlushUndo, root: PageId, height: usize) {
        let writes: Vec<(PageId, &[u8])> = undo.pages.iter().rev().map(|(p, d)| (*p, d.as_slice())).collect();
        for chunk in writes.chunks(self.config.pio_max.max(1)) {
            let _ = self.store.write_pages(chunk);
        }
        for &(leaf, previous) in undo.lsmap.iter().rev() {
            match previous {
                Some(ls) => self.lsmap.set(leaf, ls),
                None => self.lsmap.remove(leaf),
            }
        }
        // Return the pages the flush allocated (split siblings, new internal
        // nodes) to the free list so failed flushes do not strand store space.
        for &(first, n) in undo.allocations.iter().rev() {
            for page in first..first + n {
                self.store.free(page);
            }
        }
        self.root = root;
        self.height = height;
        // The store may hold partially rolled-back pages if any rollback write
        // failed (errors are swallowed above); the tier must not keep serving a
        // snapshot the store no longer matches. It warms again at the next
        // flush commit or maintenance refresh.
        self.tier.invalidate();
    }

    /// Flushes the entire OPQ (checkpoint / shutdown), then writes a checkpoint record
    /// if a WAL is attached. On error the failing batch stays queued (see
    /// [`PioBTree::flush_once`]).
    ///
    /// Returns the durable LSN of the `Checkpoint` record (0 without a WAL): at
    /// that LSN the OPQ was empty and every flush it describes is complete, so
    /// once the caller has persisted the tree's root snapshot it is a safe WAL
    /// truncation floor ([`PioBTree::truncate_wal`]).
    pub fn checkpoint(&mut self) -> IoResult<storage::Lsn> {
        while !self.opq.is_empty() {
            self.flush_once()?;
        }
        self.dirty_ops = 0;
        let Some(wal) = &self.wal else {
            return Ok(0);
        };
        let lsn = wal.append(&LogRecord::Checkpoint.encode());
        wal.force()?;
        Ok(lsn)
    }

    /// Operations accepted since the last checkpoint. The engine's incremental
    /// checkpoint skips shards where this is 0 and the OPQ is empty — nothing
    /// new would become durable.
    pub fn dirty_ops(&self) -> u64 {
        self.dirty_ops
    }

    /// Delivers the engine's verdict for cross-shard epoch `epoch`: its bracket
    /// no longer pins WAL truncation. Unknown epochs are ignored (the shard may
    /// never have seen the epoch, or a restart already cleared the bracket).
    pub fn resolve_epoch(&mut self, epoch: u64) {
        self.open_brackets.remove(&epoch);
    }

    /// Truncates the attached WAL to `upto` (normally a checkpoint LSN from
    /// [`PioBTree::checkpoint`]), floored below the earliest still-unresolved
    /// epoch bracket — dropping an open bracket's `BatchBegin` would break the
    /// all-or-nothing replay of a batch whose verdict is still pending. Returns
    /// the logical bytes dropped (0 without a WAL).
    pub fn truncate_wal(&mut self, upto: storage::Lsn) -> IoResult<u64> {
        let Some(wal) = &self.wal else {
            return Ok(0);
        };
        let floor = match self.open_brackets.values().min() {
            Some(&pinned) => upto.min(pinned),
            None => upto,
        };
        wal.truncate_to(floor)
    }

    /// Bytes of durable WAL a recovery of this tree would replay (0 without a
    /// WAL) — the quantity checkpoint-anchored truncation keeps bounded.
    pub fn wal_replayable_bytes(&self) -> u64 {
        self.wal.as_ref().map_or(0, |w| w.replayable_bytes())
    }

    // -------------------------------------------------------------------- bupdate --

    /// Batch update (Algorithm 2 + the modified updateNode of Algorithm 3): apply a
    /// key-sorted batch of OPQ entries to the tree, holding multiple submission
    /// tickets in flight — chunk `k+1`'s last-segment reads are submitted before
    /// chunk `k`'s writes are reaped, so consecutive chunks overlap on the device.
    fn bupdate(&mut self, ops: &[OpEntry], undo: &mut FlushUndo) -> IoResult<()> {
        if ops.is_empty() {
            return Ok(());
        }
        self.stats.bupdates += 1;
        debug_assert!(ops.windows(2).all(|w| w[0].key <= w[1].key));

        // WAL: the logical redo logs of these entries, then the flush-start event,
        // must be durable before any node write (write-ahead rule, Section 3.4).
        let flush_id = self.next_flush_id;
        self.next_flush_id += 1;
        if let Some(wal) = &self.wal {
            wal.force()?;
            let key_hi = ops.last().expect("non-empty").key;
            wal.append(
                &LogRecord::FlushStart {
                    flush_id,
                    key_lo: ops.first().expect("non-empty").key,
                    key_hi,
                    hi_ties: ops.iter().rev().take_while(|e| e.key == key_hi).count() as u32,
                }
                .encode(),
            );
            wal.force()?;
        }

        // 1. Locate the target leaf of every entry with an MPSearch-style descent,
        // probing the pinned inner tier first; the store wavefront fallback keeps
        // the paper's PioMax·(treeHeight−1) buffer bound.
        let keys: Vec<Key> = ops.iter().map(|e| e.key).collect();
        let locs = match self.tier.probe_leaves(self.root, self.height, &keys) {
            Some(locs) => locs,
            None => locate_leaves(
                &self.store,
                self.root,
                self.internal_levels(),
                &keys,
                self.config.pio_max,
                self.pipeline_depth,
            )?,
        };
        let jobs = Self::group_jobs(ops, &locs);

        // 2. Apply the operations leaf by leaf, in PioMax-sized psync batches.
        // Phase-A reads (each target leaf's last segment) are prefetched up to
        // `pipeline_depth − 1` chunks ahead: the tickets for chunks k+1.. are
        // already in flight while chunk k decodes, shrinks and writes. Chunks
        // target disjoint leaf sets (jobs are grouped by leaf), so neither the
        // prefetched pages nor the LSMap entries they were computed from can be
        // dirtied by a preceding chunk.
        let mut fences: Vec<FenceInsert> = Vec::new();
        let chunks: Vec<&[LeafJob]> = jobs.chunks(self.config.pio_max).collect();
        let mut ring: TicketRing<(CachedReadTicket, Vec<u32>)> = TicketRing::new(self.pipeline_depth);
        let mut next_submit = 0usize;
        for chunk in &chunks {
            while next_submit < chunks.len() && ring.has_room() {
                match self.submit_last_segments(chunks[next_submit]) {
                    Ok(prefetch) => ring.push(prefetch),
                    Err(e) => {
                        ring.drain_with(|(ticket, _)| {
                            let _ = self.store.complete_read_pages(ticket);
                        });
                        return Err(e);
                    }
                }
                next_submit += 1;
            }
            let (ticket, last_ls) = ring.pop().expect("submitted above");
            let ls_images = match self.store.complete_read_pages(ticket) {
                Ok(images) => images,
                Err(e) => {
                    ring.drain_with(|(ticket, _)| {
                        let _ = self.store.complete_read_pages(ticket);
                    });
                    return Err(e);
                }
            };
            if let Err(e) = self.apply_leaf_chunk(chunk, &ls_images, &last_ls, flush_id, &mut fences, undo) {
                // Drain the prefetched tickets before surfacing the error, so no
                // in-flight batch outlives the bupdate.
                ring.drain_with(|(ticket, _)| {
                    let _ = self.store.complete_read_pages(ticket);
                });
                return Err(e);
            }
        }

        // 3. Propagate fence keys upward, level by level.
        let had_fences = !fences.is_empty();
        self.propagate_fences(fences, flush_id, undo)?;

        // WAL: flush completed.
        if let Some(wal) = &self.wal {
            wal.append(&LogRecord::FlushEnd { flush_id }.encode());
            wal.force()?;
        }

        // 4. Republish the inner tier at the flush-commit point. The key→leaf
        // mapping and the separators can only change through the fence
        // propagation above (split leaves keep their first page; appends and
        // in-place rewrites do not move keys between leaves), so a fence-free
        // flush leaves the existing snapshot exact.
        if had_fences {
            self.rebuild_tier_after_structural_change();
        }
        Ok(())
    }

    /// Records a flush allocation in both rollback channels: the in-process undo
    /// capture (freed by [`PioBTree::rollback_flush`]) and the WAL (freed when
    /// crash recovery undoes the flush), so unwound flushes never strand pages.
    fn log_alloc(&self, undo: &mut FlushUndo, flush_id: u64, first: PageId, pages: u64) {
        if let Some(wal) = &self.wal {
            wal.append(&LogRecord::FlushAlloc { flush_id, first, pages }.encode());
        }
        undo.note_alloc(first, pages);
    }

    /// Groups key-sorted ops by their destination leaf, preserving op order.
    fn group_jobs(ops: &[OpEntry], locs: &[LeafLocation]) -> Vec<LeafJob> {
        let mut jobs: Vec<LeafJob> = Vec::new();
        for (op, loc) in ops.iter().zip(locs) {
            match jobs.last_mut() {
                Some(j) if j.leaf == loc.leaf => j.ops.push(*op),
                _ => jobs.push(LeafJob {
                    leaf: loc.leaf,
                    path: loc.path.clone(),
                    ops: vec![*op],
                }),
            }
        }
        jobs
    }

    /// Phase A of one PioMax-sized group of leaf jobs: submits the read of every
    /// target leaf's current last segment (one in-flight batch) and returns the
    /// ticket together with the last-segment indices it was computed from.
    fn submit_last_segments(&self, chunk: &[LeafJob]) -> IoResult<(CachedReadTicket, Vec<u32>)> {
        let last_ls: Vec<u32> = chunk.iter().map(|j| self.lsmap.get(j.leaf).unwrap_or(0)).collect();
        let ls_pages: Vec<PageId> = chunk.iter().zip(&last_ls).map(|(j, &ls)| j.leaf + ls as u64).collect();
        let ticket = self.store.submit_read_pages(&ls_pages)?;
        Ok((ticket, last_ls))
    }

    /// Applies one PioMax-sized group of leaf jobs over its (already fetched)
    /// Phase-A images: the append path rewrites only the trailing segments; the
    /// full path reads the whole region, shrinks, and splits if necessary.
    fn apply_leaf_chunk(
        &mut self,
        chunk: &[LeafJob],
        ls_images: &[Vec<u8>],
        last_ls: &[u32],
        flush_id: u64,
        fences: &mut Vec<FenceInsert>,
        undo: &mut FlushUndo,
    ) -> IoResult<()> {
        let page_size = self.config.page_size;
        let segments = self.config.leaf_segments;
        let seg_cap = PioLeaf::segment_capacity(page_size);
        let leaf_cap = PioLeaf::capacity(segments, page_size);

        let mut page_writes: Vec<(PageId, Vec<u8>)> = Vec::new();
        let mut full_path: Vec<usize> = Vec::new();

        for (i, job) in chunk.iter().enumerate() {
            let known = self.lsmap.get(job.leaf).is_some() && PioLeaf::is_segment(&ls_images[i]);
            if !known {
                full_path.push(i);
                continue;
            }
            let existing = PioLeaf::decode_segment(&ls_images[i]);
            let total_before = last_ls[i] as usize * seg_cap + existing.len();
            if total_before + job.ops.len() > leaf_cap {
                full_path.push(i);
                continue;
            }
            // Append path: only the trailing segment(s) are rewritten.
            self.stats.leaf_appends += 1;
            let mut tail_records = existing;
            tail_records.extend(job.ops.iter().copied());
            let mut seg = last_ls[i] as usize;
            let mut idx = 0usize;
            while idx < tail_records.len() {
                let end = (idx + seg_cap).min(tail_records.len());
                let mut page = vec![0u8; page_size];
                PioLeaf::encode_segment_into(&tail_records[idx..end], &mut page);
                let preimage = if seg == last_ls[i] as usize {
                    ls_images[i].clone()
                } else {
                    vec![0u8; page_size]
                };
                if let Some(wal) = &self.wal {
                    wal.append(
                        &LogRecord::FlushUndo {
                            flush_id,
                            page: job.leaf + seg as u64,
                            preimage: preimage.clone(),
                        }
                        .encode(),
                    );
                }
                undo.note_page(job.leaf + seg as u64, preimage);
                page_writes.push((job.leaf + seg as u64, page));
                idx = end;
                seg += 1;
            }
            undo.note_lsmap(job.leaf, self.lsmap.get(job.leaf));
            self.lsmap.set(job.leaf, (seg - 1) as u32);
        }

        // Phase B: full path — whole-region reads, shrink, possible splits.
        let mut region_writes: Vec<(PageId, Vec<u8>)> = Vec::new();
        if !full_path.is_empty() {
            let regions: Vec<(PageId, u64)> = full_path.iter().map(|&i| (chunk[i].leaf, segments as u64)).collect();
            let images = self.store.read_regions(&regions)?;
            for (&i, image) in full_path.iter().zip(&images) {
                let job = &chunk[i];
                // One undo record per page of the region.
                for (p, pre) in image.chunks(page_size).enumerate() {
                    if let Some(wal) = &self.wal {
                        wal.append(
                            &LogRecord::FlushUndo {
                                flush_id,
                                page: job.leaf + p as u64,
                                preimage: pre.to_vec(),
                            }
                            .encode(),
                        );
                    }
                    undo.note_page(job.leaf + p as u64, pre.to_vec());
                }
                self.stats.leaf_rewrites += 1;
                let mut leaf = PioLeaf::decode(image, segments, page_size);
                leaf.append(&job.ops);
                self.stats.shrinks += 1;
                leaf.shrink();
                if leaf.len() <= leaf_cap {
                    undo.note_lsmap(job.leaf, self.lsmap.get(job.leaf));
                    self.lsmap.set(job.leaf, leaf.last_segment(page_size));
                    region_writes.push((job.leaf, leaf.encode(page_size)));
                    continue;
                }
                // Still full after shrinking: split until every part fits.
                let mut parts = vec![leaf];
                while parts.iter().any(|p| p.len() > leaf_cap) {
                    let mut next = Vec::with_capacity(parts.len() + 1);
                    for mut p in parts {
                        if p.len() > leaf_cap {
                            let (_, right) = p.split();
                            next.push(p);
                            next.push(right);
                        } else {
                            next.push(p);
                        }
                    }
                    parts = next;
                }
                self.stats.leaf_splits += (parts.len() - 1) as u64;
                for (pi, part) in parts.iter().enumerate() {
                    let target = if pi == 0 {
                        job.leaf
                    } else {
                        let fresh = self.store.allocate_contiguous(segments as u64);
                        self.log_alloc(undo, flush_id, fresh, segments as u64);
                        fresh
                    };
                    undo.note_lsmap(target, self.lsmap.get(target));
                    self.lsmap.set(target, part.last_segment(page_size));
                    region_writes.push((target, part.encode(page_size)));
                    if pi > 0 {
                        fences.push(FenceInsert {
                            path: job.path.clone(),
                            key: part.records.first().expect("non-empty split part").key,
                            new_child: target,
                        });
                    }
                }
            }
        }

        // Phase C: write everything back — one psync call for the segment pages, one
        // for the rewritten regions (reads never mix with writes).
        if let Some(wal) = &self.wal {
            wal.force()?;
        }
        if !page_writes.is_empty() {
            let refs: Vec<(PageId, &[u8])> = page_writes.iter().map(|(p, d)| (*p, d.as_slice())).collect();
            self.store.write_pages(&refs)?;
        }
        if !region_writes.is_empty() {
            let refs: Vec<(PageId, &[u8])> = region_writes.iter().map(|(p, d)| (*p, d.as_slice())).collect();
            self.store.write_regions(&refs)?;
        }
        Ok(())
    }

    /// Inserts the fence keys produced by leaf splits into their parents, splitting
    /// internal nodes (and ultimately the root) as needed. Each level's modified
    /// nodes are written with one psync call.
    fn propagate_fences(&mut self, mut pending: Vec<FenceInsert>, flush_id: u64, undo: &mut FlushUndo) -> IoResult<()> {
        let page_size = self.config.page_size;
        let internal_cap = InternalNode::max_children(page_size);
        while !pending.is_empty() {
            // Fences whose parent path is empty mean the root split: build a new root.
            let (rootless, rest): (Vec<FenceInsert>, Vec<FenceInsert>) =
                pending.into_iter().partition(|f| f.path.is_empty());
            if !rootless.is_empty() {
                let mut adds: Vec<(Key, PageId)> = rootless.iter().map(|f| (f.key, f.new_child)).collect();
                adds.sort_by_key(|&(k, _)| k);
                let new_root_page = self.store.allocate();
                self.log_alloc(undo, flush_id, new_root_page, 1);
                let node = InternalNode {
                    keys: adds.iter().map(|&(k, _)| k).collect(),
                    children: std::iter::once(self.root).chain(adds.iter().map(|&(_, p)| p)).collect(),
                };
                assert!(node.children.len() <= internal_cap, "root fan-in exceeded in one flush");
                // The root-change record must be durable before the new root
                // exists anywhere: if the crash comes later in this flush, undo
                // restores the previous root/height from it.
                if let Some(wal) = &self.wal {
                    wal.append(
                        &LogRecord::FlushRoot {
                            flush_id,
                            prev_root: self.root,
                            prev_height: self.height as u64,
                            new_root: new_root_page,
                            new_height: self.height as u64 + 1,
                        }
                        .encode(),
                    );
                    wal.force()?;
                }
                self.store
                    .write_page(new_root_page, &Node::Internal(node).encode(page_size))?;
                self.root = new_root_page;
                self.height += 1;
                self.stats.height_growths += 1;
            }
            if rest.is_empty() {
                break;
            }

            // Group the remaining fences by the parent node they must be applied to.
            let mut groups: Vec<(PageId, Vec<FenceInsert>)> = Vec::new();
            for f in rest {
                let parent = f.path.last().expect("non-empty path").0;
                match groups.iter_mut().find(|(p, _)| *p == parent) {
                    Some((_, v)) => v.push(f),
                    None => groups.push((parent, vec![f])),
                }
            }
            let parent_pages: Vec<PageId> = groups.iter().map(|&(p, _)| p).collect();
            let images = self.store.read_pages(&parent_pages)?;
            let mut writes: Vec<(PageId, Vec<u8>)> = Vec::new();
            let mut next_pending: Vec<FenceInsert> = Vec::new();

            for ((parent_page, fences), image) in groups.into_iter().zip(images) {
                if let Some(wal) = &self.wal {
                    wal.append(
                        &LogRecord::FlushUndo {
                            flush_id,
                            page: parent_page,
                            preimage: image.clone(),
                        }
                        .encode(),
                    );
                }
                undo.note_page(parent_page, image.clone());
                let mut node = Node::decode(&image).expect_internal();
                let grandparent_path: Vec<(PageId, usize)> = {
                    let mut p = fences[0].path.clone();
                    p.pop();
                    p
                };
                for f in &fences {
                    let idx = node.keys.partition_point(|&k| k < f.key);
                    node.keys.insert(idx, f.key);
                    node.children.insert(idx + 1, f.new_child);
                }
                while node.children.len() > internal_cap {
                    self.stats.internal_splits += 1;
                    let mid = node.keys.len() / 2;
                    let promote = node.keys[mid];
                    let right_keys = node.keys.split_off(mid + 1);
                    node.keys.pop();
                    let right_children = node.children.split_off(mid + 1);
                    let right_page = self.store.allocate();
                    self.log_alloc(undo, flush_id, right_page, 1);
                    let right = InternalNode {
                        keys: right_keys,
                        children: right_children,
                    };
                    writes.push((right_page, Node::Internal(right).encode(page_size)));
                    next_pending.push(FenceInsert {
                        path: grandparent_path.clone(),
                        key: promote,
                        new_child: right_page,
                    });
                }
                writes.push((parent_page, Node::Internal(node).encode(page_size)));
            }
            if let Some(wal) = &self.wal {
                wal.force()?;
            }
            let refs: Vec<(PageId, &[u8])> = writes.iter().map(|(p, d)| (*p, d.as_slice())).collect();
            self.store.write_pages(&refs)?;
            pending = next_pending;
        }
        Ok(())
    }

    // ------------------------------------------------------------------- recovery --

    /// Simulates a crash: the volatile OPQ, buffer pool and LSMap are lost, as are
    /// any WAL records that were never forced. Returns the number of OPQ entries
    /// lost. (The root pointer survives — standing in for the superblock a real
    /// deployment would read it from; [`PioBTree::recover`] rewinds it when the
    /// flush that moved it is undone.)
    pub fn simulate_crash(&mut self) -> usize {
        let lost = self.opq.len();
        self.opq.clear();
        self.store.drop_cache();
        // The checksum sidecar dies with the process: after a torn write the
        // device holds pre-crash bytes that the recorded checksum would
        // wrongly indict.
        self.store.reset_integrity();
        self.tier.invalidate();
        self.lsmap.clear();
        // In-flight epoch verdicts die with the process; recovery re-derives
        // every epoch's fate from the engine log before truncation resumes.
        self.open_brackets.clear();
        if let Some(wal) = &self.wal {
            wal.simulate_crash();
        }
        lost
    }

    /// ARIES-style restart recovery (Section 3.4): undo any incomplete flush from its
    /// undo records, then re-apply (re-append to the OPQ) every logical redo record
    /// not covered by a completed flush. Equivalent to
    /// [`PioBTree::recover_with`] with a filter that keeps every epoch.
    pub fn recover(&mut self) -> IoResult<RecoveryReport> {
        self.recover_with(&mut |_| true)
    }

    /// Restart recovery with an externally supplied epoch verdict: `keep_epoch`
    /// is consulted once per cross-shard epoch found in the log (the brackets
    /// written by [`PioBTree::insert_batch_epoch`]) and decides whether that
    /// epoch's logical records are replayed (`true`) or discarded (`false`).
    /// Records outside any bracket are always replayed. The sharded engine calls
    /// this with the verdicts of its engine-level epoch log, which is what makes
    /// a cross-shard batch all-or-nothing.
    ///
    /// The pass proceeds in four steps:
    ///
    /// 1. **Rescan + analysis** — the WAL re-derives its durable LSN from the
    ///    device ([`Wal::rescan`]), so records completed by a torn force are
    ///    seen; replay stops cleanly at the first torn or corrupt record
    ///    (`torn_tail` in the report).
    /// 2. **Attribution** — every logical record is attributed to the completed
    ///    flush that certainly applied it, if any. `take_batch` removes the
    ///    smallest-key prefix of the sorted OPQ, so a flush certainly applied a
    ///    record iff the record predates the flush, was not applied earlier, and
    ///    its key is strictly inside the flushed range — or ties the range's
    ///    upper bound and is among the oldest `hi_ties` unattributed ties.
    ///    Anything the attribution cannot prove flushed is redone instead
    ///    (redo is idempotent; skipping an unflushed record would lose it).
    ///    The flush/transaction counters and the store's allocation frontier
    ///    are also rolled forward past everything the log proves happened, and
    ///    the surviving `FlushRoot` moves are replayed in log order — so a tree
    ///    reopened from a stale manifest snapshot ([`PioBTree::open`]) converges
    ///    on the crashed process's state before undo begins.
    /// 3. **Undo** — the incomplete flush (if any) and every *poisoned* flush — a
    ///    completed flush that applied a discarded record — are undone by
    ///    restoring page preimages, newest flush first, together with every
    ///    later flush (their preimages capture the state the newer flushes
    ///    wrote over, so the chain must unwind as a suffix). Root growths are
    ///    rewound from their `FlushRoot` records.
    /// 4. **Redo** — surviving records not attributed to a surviving flush are
    ///    re-appended to the OPQ in log order; discarded records are dropped.
    pub fn recover_with(&mut self, keep_epoch: &mut dyn FnMut(u64) -> bool) -> IoResult<RecoveryReport> {
        self.open_brackets.clear();
        // The pre-crash snapshot may describe structure the crash rolled back;
        // stay cold until the pass settles on the recovered root.
        self.tier.invalidate();
        let Some(wal) = &self.wal else {
            return Ok(RecoveryReport::default());
        };
        let mut report = RecoveryReport::default();
        let (rescan, scan) = wal.recover_scan()?;
        report.torn_tail = rescan.torn_tail || scan.torn_tail;
        report.scanned = scan.records.len();

        // ------------------------------------------------------------- analysis --
        #[derive(Debug)]
        struct FlushInfo {
            start_lsn: u64,
            key_lo: Key,
            key_hi: Key,
            hi_ties: u32,
            complete: bool,
            /// Rolled back in process before the crash: skip its undo records (the
            /// pages were already restored, and a retry flush may have rewritten
            /// them); it covers no logical records (its batch went back to the OPQ).
            aborted: bool,
            undo: Vec<(PageId, Vec<u8>)>,
            /// `FlushRoot` records (previous and new root/height), in log order.
            roots: Vec<(PageId, usize, PageId, usize)>,
            /// `FlushAlloc` records (page runs the flush allocated), in log order.
            allocs: Vec<(PageId, u64)>,
        }
        let mut flushes: Vec<(u64, FlushInfo)> = Vec::new();
        // flush_id → index in `flushes` (the per-record lookups below must not
        // rescan the flush list — logs are never truncated, so they grow).
        let mut flush_idx: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        // (lsn, entry, enclosing cross-shard epoch).
        let mut logical: Vec<(u64, OpEntry, Option<u64>)> = Vec::new();
        let mut current_epoch: Option<u64> = None;
        let mut max_tx: u64 = 0;
        for rec in &scan.records {
            match LogRecord::decode(&rec.payload) {
                None => {
                    // A corrupt record: everything after it is untrustworthy.
                    // Stop replay cleanly at the last intact record.
                    report.torn_tail = true;
                    break;
                }
                Some(LogRecord::LogicalRedo { tx, entry }) => {
                    max_tx = max_tx.max(tx);
                    logical.push((rec.lsn, entry, current_epoch));
                }
                Some(LogRecord::BatchBegin { epoch }) => current_epoch = Some(epoch),
                Some(LogRecord::BatchEnd { .. }) => current_epoch = None,
                Some(LogRecord::FlushStart {
                    flush_id,
                    key_lo,
                    key_hi,
                    hi_ties,
                }) => {
                    flush_idx.insert(flush_id, flushes.len());
                    flushes.push((
                        flush_id,
                        FlushInfo {
                            start_lsn: rec.lsn,
                            key_lo,
                            key_hi,
                            hi_ties,
                            complete: false,
                            aborted: false,
                            undo: Vec::new(),
                            roots: Vec::new(),
                            allocs: Vec::new(),
                        },
                    ));
                }
                Some(LogRecord::FlushEnd { flush_id }) => {
                    if let Some(&i) = flush_idx.get(&flush_id) {
                        flushes[i].1.complete = true;
                    }
                }
                Some(LogRecord::FlushAbort { flush_id }) => {
                    if let Some(&i) = flush_idx.get(&flush_id) {
                        flushes[i].1.aborted = true;
                    }
                }
                Some(LogRecord::FlushUndo {
                    flush_id,
                    page,
                    preimage,
                }) => {
                    if let Some(&i) = flush_idx.get(&flush_id) {
                        flushes[i].1.undo.push((page, preimage));
                    }
                }
                Some(LogRecord::FlushRoot {
                    flush_id,
                    prev_root,
                    prev_height,
                    new_root,
                    new_height,
                }) => {
                    if let Some(&i) = flush_idx.get(&flush_id) {
                        flushes[i]
                            .1
                            .roots
                            .push((prev_root, prev_height as usize, new_root, new_height as usize));
                    }
                }
                Some(LogRecord::FlushAlloc { flush_id, first, pages }) => {
                    if let Some(&i) = flush_idx.get(&flush_id) {
                        flushes[i].1.allocs.push((first, pages));
                    }
                }
                Some(LogRecord::Checkpoint) => {}
            }
        }
        if let Some(epoch) = current_epoch {
            // The log ends inside an epoch bracket (the crash hit between
            // `BatchBegin` and `BatchEnd`). Close it durably now: otherwise
            // every record logged *after* this recovery would be misattributed
            // to the stale epoch — and dropped by the next recovery if the
            // epoch's verdict was discard.
            wal.append(&LogRecord::BatchEnd { epoch }.encode());
            wal.force()?;
        }
        report.aborted_flushes = flushes.iter().filter(|(_, i)| i.aborted).count();

        // Counter continuity across restarts: a reopened tree starts its flush
        // and transaction counters at 1, but the log already holds higher ids —
        // and a duplicated flush id would corrupt the next recovery's
        // attribution (flush_idx keeps only the newest occurrence).
        let max_flush_id = flushes.iter().map(|&(id, _)| id).max().unwrap_or(0);
        self.next_flush_id = self.next_flush_id.max(max_flush_id + 1);
        self.next_tx = self.next_tx.max(max_tx + 1);

        // Allocation roll-forward: every flush allocation in the log lies below
        // the allocator frontier the crashed process had reached, but a reopened
        // store starts from its manifest snapshot's (possibly older) frontier.
        // Raise it over every logged run *before* any undo frees pages — freeing
        // a page the bump allocator has not reached would hand it out twice.
        let alloc_frontier = flushes
            .iter()
            .flat_map(|(_, info)| info.allocs.iter())
            .map(|&(first, n)| first + n)
            .max()
            .unwrap_or(0);
        if alloc_frontier > 0 {
            self.store.ensure_high_water(alloc_frontier);
        }

        // Epoch verdicts, one filter call per distinct epoch.
        let mut fate: std::collections::HashMap<u64, bool> = std::collections::HashMap::new();
        let drops: Vec<bool> = logical
            .iter()
            .map(|&(_, _, epoch)| match epoch {
                None => false,
                Some(e) => !*fate.entry(e).or_insert_with(|| keep_epoch(e)),
            })
            .collect();

        // ---------------------------------------------------------- attribution --
        // Walk the completed flushes in start order; each consumes the records it
        // certainly applied (a record is consumed at most once — by the first
        // flush that took it out of the OPQ). The indexed pass in
        // `recovery::attribute_flushed_records` visits each record O(1) times,
        // keeping recovery proportional to the truncated log's length rather
        // than flushes × records.
        let mut order: Vec<usize> = (0..flushes.len())
            .filter(|&f| flushes[f].1.complete && !flushes[f].1.aborted)
            .collect();
        order.sort_by_key(|&f| flushes[f].1.start_lsn);

        // Root roll-forward: replay the surviving root moves in log order, so a
        // reopened tree whose manifest snapshot predates completed flushes lands
        // on the current root. In-place recovery is unaffected — the in-memory
        // root already equals the newest surviving move's target (every root
        // change is logged and forced before the new root is written), and moves
        // of incomplete or aborted flushes are skipped here exactly as their
        // flushes are rewound (or were already rolled back) below.
        for &f in &order {
            for &(_, _, new_root, new_height) in &flushes[f].1.roots {
                self.root = new_root;
                self.height = new_height;
            }
        }
        let spans: Vec<crate::recovery::FlushSpan> = order
            .iter()
            .map(|&f| {
                let info = &flushes[f].1;
                crate::recovery::FlushSpan {
                    tag: f,
                    start_lsn: info.start_lsn,
                    key_lo: info.key_lo,
                    key_hi: info.key_hi,
                    hi_ties: info.hi_ties,
                }
            })
            .collect();
        let keyed: Vec<(u64, Key)> = logical.iter().map(|&(lsn, entry, _)| (lsn, entry.key)).collect();
        let mut visits = 0usize;
        let consumed_by = crate::recovery::attribute_flushed_records(&keyed, &spans, &mut visits);

        // ----------------------------------------------------------------- undo --
        // The undo set: the incomplete flush, every poisoned flush (a completed
        // flush that applied a discarded record), and — because preimages only
        // compose as a suffix — every flush that started after the earliest of
        // those.
        let poisoned_start = (0..logical.len())
            .filter(|&i| drops[i])
            .filter_map(|i| consumed_by[i])
            .map(|f| flushes[f].1.start_lsn)
            .min();
        let incomplete_start = flushes
            .iter()
            .filter(|(_, i)| !i.complete && !i.aborted)
            .map(|(_, i)| i.start_lsn)
            .min();
        let min_undo_start = match (poisoned_start, incomplete_start) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        };
        let mut undone: Vec<bool> = vec![false; flushes.len()];
        if let Some(min_start) = min_undo_start {
            let mut to_undo: Vec<usize> = (0..flushes.len())
                .filter(|&f| !flushes[f].1.aborted && flushes[f].1.start_lsn >= min_start)
                .collect();
            // Newest first: each flush's preimages restore the state the flushes
            // before it wrote, so the chain unwinds in reverse start order.
            to_undo.sort_by_key(|&f| std::cmp::Reverse(flushes[f].1.start_lsn));
            for f in to_undo {
                let info = &flushes[f].1;
                if info.complete {
                    report.unwound_flushes += 1;
                } else {
                    report.incomplete_flushes += 1;
                }
                let writes: Vec<(PageId, &[u8])> = info.undo.iter().map(|(p, d)| (*p, d.as_slice())).collect();
                for chunk in writes.chunks(self.config.pio_max) {
                    self.store.write_pages(chunk)?;
                }
                report.undone_pages += writes.len();
                // Rewind root growths, newest first within the flush.
                for &(prev_root, prev_height, _, _) in info.roots.iter().rev() {
                    self.root = prev_root;
                    self.height = prev_height;
                }
                // Return the pages the flush allocated to the free list (the
                // crash-time analogue of rollback_flush's allocation reclaim).
                for &(first, n) in info.allocs.iter().rev() {
                    for page in first..first + n {
                        self.store.free(page);
                    }
                }
                undone[f] = true;
            }
            // Whatever the LSMap claimed about the undone leaves is stale; it is
            // a cache, so dropping all of it is always safe.
            self.lsmap.clear();
        }

        // ----------------------------------------------------------------- redo --
        for (i, (_, entry, _)) in logical.iter().enumerate() {
            if drops[i] {
                report.discarded += 1;
            } else if consumed_by[i].is_some_and(|f| !undone[f]) {
                report.skipped_flushed += 1;
            } else {
                report.redone += 1;
                self.opq.append(*entry);
            }
        }
        // The recovered structure is now authoritative; re-pin the inner tier
        // (best effort — a failed rebuild just leaves it cold).
        self.rebuild_tier_after_structural_change();
        Ok(report)
    }

    // ----------------------------------------------------------------- validation --

    /// Verifies structural invariants (internal-node sortedness, separator bounds,
    /// leaf key ranges, LSMap consistency) and returns the number of live entries.
    /// Queued OPQ entries are not considered. Intended for tests.
    pub fn check_invariants(&self) -> IoResult<u64> {
        fn visit(tree: &PioBTree, page: PageId, level: usize, lo: Option<Key>, hi: Option<Key>) -> IoResult<u64> {
            if level == tree.internal_levels() {
                // Leaf region.
                let image = tree.store.read_region(page, tree.config.leaf_segments as u64)?;
                let leaf = PioLeaf::decode(&image, tree.config.leaf_segments, tree.config.page_size);
                for rec in &leaf.records {
                    if let Some(lo) = lo {
                        assert!(rec.key >= lo, "leaf record {} below bound {lo}", rec.key);
                    }
                    if let Some(hi) = hi {
                        assert!(rec.key < hi, "leaf record {} above bound {hi}", rec.key);
                    }
                }
                if let Some(cached) = tree.lsmap.get(page) {
                    assert_eq!(
                        cached,
                        leaf.last_segment(tree.config.page_size),
                        "LSMap out of date for leaf {page}"
                    );
                }
                return Ok(leaf.resolve().len() as u64);
            }
            let node = Node::decode(&tree.store.read_page(page)?).expect_internal();
            assert_eq!(node.children.len(), node.keys.len() + 1, "internal arity");
            assert!(node.keys.windows(2).all(|w| w[0] < w[1]), "internal keys sorted");
            let mut total = 0;
            for (i, &child) in node.children.iter().enumerate() {
                let child_lo = if i == 0 { lo } else { Some(node.keys[i - 1]) };
                let child_hi = if i == node.keys.len() { hi } else { Some(node.keys[i]) };
                total += visit(tree, child, level + 1, child_lo, child_hi)?;
            }
            Ok(total)
        }
        visit(self, self.root, 0, None, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> PioConfig {
        PioConfig::builder()
            .page_size(2048)
            .leaf_segments(2)
            .opq_pages(1)
            .pio_max(16)
            .speriod(50)
            .bcnt(100)
            .pool_pages(128)
            .build()
    }

    fn tree_with(config: PioConfig) -> PioBTree {
        PioBTree::create(DeviceProfile::F120, 1 << 30, config).unwrap()
    }

    #[test]
    fn pipeline_depth_resolves_from_the_device_at_construction() {
        use crate::config::PipelineDepth;
        // F120 reports NCQ 32: Auto at PioMax 16 → 2 batches in flight.
        let t = tree_with(small_config());
        assert_eq!(t.pipeline_depth(), 2);
        // Smaller batches leave more queue headroom: PioMax 4 → depth 8.
        let t = tree_with(PioConfig {
            pio_max: 4,
            ..small_config()
        });
        assert_eq!(t.pipeline_depth(), 8);
        // An explicit override passes through untouched.
        let t = tree_with(PioConfig {
            pipeline_depth: PipelineDepth::Fixed(5),
            ..small_config()
        });
        assert_eq!(t.pipeline_depth(), 5);
    }

    #[test]
    fn empty_tree_has_an_internal_root() {
        let mut t = tree_with(small_config());
        assert_eq!(t.height(), 2);
        assert_eq!(t.search(5).unwrap(), None);
        assert_eq!(t.count_entries().unwrap(), 0);
    }

    #[test]
    fn insert_search_before_and_after_flush() {
        let mut t = tree_with(small_config());
        for k in 0..50u64 {
            t.insert(k, k * 2).unwrap();
        }
        // Still (partly) in the OPQ.
        assert_eq!(t.search(10).unwrap(), Some(20));
        t.checkpoint().unwrap();
        assert_eq!(t.opq_len(), 0);
        assert_eq!(t.search(10).unwrap(), Some(20));
        assert_eq!(t.search(49).unwrap(), Some(98));
        assert_eq!(t.search(50).unwrap(), None);
        t.check_invariants().unwrap();
    }

    #[test]
    fn deletes_and_updates_are_visible_through_the_opq_and_after_flush() {
        let mut t = tree_with(small_config());
        for k in 0..100u64 {
            t.insert(k, k).unwrap();
        }
        t.checkpoint().unwrap();
        t.delete(10).unwrap();
        t.update(20, 999).unwrap();
        // Visible while still queued.
        assert_eq!(t.search(10).unwrap(), None);
        assert_eq!(t.search(20).unwrap(), Some(999));
        t.checkpoint().unwrap();
        assert_eq!(t.search(10).unwrap(), None);
        assert_eq!(t.search(20).unwrap(), Some(999));
    }

    #[test]
    fn many_inserts_split_leaves_and_grow_the_tree() {
        let mut t = tree_with(small_config());
        let n = 40_000u64;
        for k in 0..n {
            let key = (k * 2_654_435_761) % 1_000_003;
            t.insert(key, key).unwrap();
        }
        t.checkpoint().unwrap();
        assert!(t.stats().leaf_splits > 0, "splits must have happened");
        assert!(t.height() >= 3, "tree must have grown");
        t.check_invariants().unwrap();
        for k in (0..n).step_by(373) {
            let key = (k * 2_654_435_761) % 1_000_003;
            assert_eq!(t.search(key).unwrap(), Some(key), "key {key}");
        }
    }

    #[test]
    fn matches_a_model_under_a_mixed_workload() {
        let mut t = tree_with(small_config());
        let mut model: std::collections::BTreeMap<Key, Value> = std::collections::BTreeMap::new();
        let mut x: u64 = 0x12345678;
        let mut rand = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..5_000 {
            let key = rand() % 2_000;
            match rand() % 10 {
                0..=5 => {
                    let v = rand();
                    t.insert(key, v).unwrap();
                    model.insert(key, v);
                }
                6..=7 => {
                    t.delete(key).unwrap();
                    model.remove(&key);
                }
                _ => {
                    let v = rand();
                    t.update(key, v).unwrap();
                    model.insert(key, v);
                }
            }
        }
        // Spot-check while part of the workload is still queued.
        for key in (0..2_000u64).step_by(37) {
            assert_eq!(
                t.search(key).unwrap(),
                model.get(&key).copied(),
                "queued state, key {key}"
            );
        }
        t.checkpoint().unwrap();
        for key in 0..2_000u64 {
            assert_eq!(
                t.search(key).unwrap(),
                model.get(&key).copied(),
                "flushed state, key {key}"
            );
        }
        let all = t.range_search(0, u64::MAX).unwrap();
        assert_eq!(all.len(), model.len());
        t.check_invariants().unwrap();
    }

    #[test]
    fn multi_search_agrees_with_point_search() {
        let mut t = tree_with(small_config());
        for k in 0..5_000u64 {
            t.insert(k * 3, k).unwrap();
        }
        t.checkpoint().unwrap();
        let keys: Vec<Key> = (0..200u64).map(|i| i * 77 % 15_000).collect();
        let batch = t.multi_search(&keys).unwrap();
        for (k, r) in keys.iter().zip(&batch) {
            assert_eq!(*r, t.search(*k).unwrap(), "key {k}");
        }
    }

    #[test]
    fn range_search_includes_queued_operations() {
        let mut t = tree_with(small_config());
        for k in 0..1_000u64 {
            t.insert(k, k).unwrap();
        }
        t.checkpoint().unwrap();
        t.delete(500).unwrap();
        t.insert(1_500, 42).unwrap(); // queued, outside the flushed key space
        let r = t.range_search(490, 510).unwrap();
        assert_eq!(r.len(), 19, "500 must be missing");
        assert!(!r.iter().any(|&(k, _)| k == 500));
        let r = t.range_search(1_400, 1_600).unwrap();
        assert_eq!(r, vec![(1_500, 42)]);
    }

    #[test]
    fn prange_uses_fewer_psync_batches_than_leaf_count() {
        let mut t = tree_with(small_config());
        for k in 0..30_000u64 {
            t.insert(k, k).unwrap();
        }
        t.checkpoint().unwrap();
        t.store().drop_cache();
        let before = t.store().store().stats().read_batches;
        let out = t.range_search(0, 20_000).unwrap();
        assert_eq!(out.len(), 20_000);
        let batches = t.store().store().stats().read_batches - before;
        let leaves_touched = 20_000 / PioLeaf::capacity(2, 2048) as u64 + 2;
        assert!(
            batches < leaves_touched,
            "prange must batch leaf reads: {batches} batches for ~{leaves_touched} leaves"
        );
    }

    #[test]
    fn bupdate_appends_use_the_append_path_for_small_batches() {
        let mut t = tree_with(small_config());
        for k in 0..10_000u64 {
            t.insert(k, k).unwrap();
        }
        t.checkpoint().unwrap();
        let before = t.stats();
        // A scattered trickle of updates: every leaf receives few records, so the
        // append path should dominate.
        for k in (0..10_000u64).step_by(400) {
            t.update(k, k + 1).unwrap();
        }
        t.checkpoint().unwrap();
        let after = t.stats();
        assert!(after.leaf_appends > before.leaf_appends);
        assert_eq!(t.search(400).unwrap(), Some(401));
    }

    #[test]
    fn crash_without_wal_loses_queued_operations() {
        let mut t = tree_with(small_config());
        for k in 0..50u64 {
            t.insert(k, k).unwrap();
        }
        t.checkpoint().unwrap();
        t.insert(1_000, 1).unwrap();
        let lost = t.simulate_crash();
        assert!(lost >= 1);
        assert_eq!(t.search(1_000).unwrap(), None, "unlogged queued insert is gone");
        assert_eq!(t.search(10).unwrap(), Some(10), "flushed data survives");
    }

    #[test]
    fn wal_recovery_replays_lost_operations() {
        let config = PioConfig {
            wal_enabled: true,
            ..small_config()
        };
        let mut t = tree_with(config);
        for k in 0..200u64 {
            t.insert(k, k).unwrap();
        }
        t.checkpoint().unwrap();
        // These stay in the OPQ (bcnt 100 > 3, no flush trigger) but their logical
        // redo records reach the WAL on the next force; force happens inside
        // checkpoint/flush, so call flush-once explicitly after logging.
        t.insert(500, 5).unwrap();
        t.delete(10).unwrap();
        t.update(20, 99).unwrap();
        // Force the redo records (normally done by the transaction commit).
        if let Some(wal) = &t.wal {
            wal.force().unwrap();
        }
        let lost = t.simulate_crash();
        assert_eq!(lost, 3);
        assert_eq!(t.search(500).unwrap(), None, "lost before recovery");
        let report = t.recover().unwrap();
        assert_eq!(report.redone, 3);
        assert!(report.skipped_flushed > 0, "flushed prefix must be skipped");
        assert_eq!(t.search(500).unwrap(), Some(5));
        assert_eq!(t.search(10).unwrap(), None);
        assert_eq!(t.search(20).unwrap(), Some(99));
        // Flushing the recovered queue must leave a consistent tree.
        t.checkpoint().unwrap();
        assert_eq!(t.search(500).unwrap(), Some(5));
        t.check_invariants().unwrap();
    }

    use pio::{CrashPlan, FaultClock, FaultIo};

    /// Builds a tree whose store is wrapped in the shared [`pio::fault`] harness
    /// (nothing armed yet) and returns it with the clock that scripts failures.
    fn failing_tree(config: PioConfig, entries: &[(Key, Value)]) -> (PioBTree, Arc<FaultClock>) {
        let clock = FaultClock::new();
        let faulty = Arc::new(FaultIo::new(
            Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 1 << 30)),
            Arc::clone(&clock),
        ));
        let store = Arc::new(CachedStore::new(
            PageStore::new(faulty as Arc<dyn pio::IoQueue>, config.page_size),
            config.pool_pages,
            WritePolicy::WriteThrough,
        ));
        let tree = PioBTree::bulk_load(store, entries, config).unwrap();
        (tree, clock)
    }

    /// Arms a transient failure of the `skip`-th upcoming write submission
    /// (0 = the very next one) — the old inline `FailingIo` semantics.
    fn fail_write_in(clock: &FaultClock, skip: u64) {
        clock.arm(CrashPlan::at_write(clock.writes_seen() + skip).transient());
    }

    #[test]
    fn failed_flush_rolls_back_in_process() {
        let config = PioConfig {
            pio_max: 4, // several chunks per bupdate
            opq_pages: 4,
            bcnt: 120,
            ..small_config()
        };
        let entries: Vec<(Key, Value)> = (0..4_000u64).map(|k| (k * 3, k)).collect();
        let (mut t, failing) = failing_tree(config, &entries);

        // Scattered updates so the batch spans many leaves (multi-chunk bupdate).
        let mut model: BTreeMap<Key, Value> = entries.iter().copied().collect();
        for k in (0..4_000u64).step_by(37) {
            t.update(k * 3, k + 1_000_000).unwrap();
            model.insert(k * 3, k + 1_000_000);
        }
        let queued = t.opq_len();
        assert!(queued > 100, "batch must exceed bcnt-sized chunks");

        // Fail the second write submission: chunk 0 applies, a later chunk fails.
        fail_write_in(&failing, 1);
        let err = t.flush_once().unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        // The failed batch is back in the queue and every queued update is still
        // visible through the OPQ overlay.
        assert_eq!(t.opq_len(), queued);
        for (&k, &v) in model.iter().step_by(53) {
            assert_eq!(t.search(k).unwrap(), Some(v), "key {k}");
        }
        // The on-disk tree was rolled back to its pre-flush state: structurally
        // sound and holding exactly the bulk-loaded entries.
        assert_eq!(t.check_invariants().unwrap(), 4_000);

        // The failure was one-shot: the retried flush lands the same batch.
        t.checkpoint().unwrap();
        assert_eq!(t.opq_len(), 0);
        for (&k, &v) in model.iter().step_by(29) {
            assert_eq!(t.search(k).unwrap(), Some(v), "key {k} after retry");
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn crash_after_failed_flush_and_successful_retry_recovers_cleanly() {
        // A flush fails and is rolled back in process (FlushAbort logged), the
        // retry succeeds, and THEN the process crashes. Recovery must not replay
        // the aborted flush's undo preimages over the retry's durable pages.
        let config = PioConfig {
            pio_max: 4,
            opq_pages: 4,
            bcnt: 120,
            wal_enabled: true,
            ..small_config()
        };
        let entries: Vec<(Key, Value)> = (0..4_000u64).map(|k| (k * 3, k)).collect();
        let (mut t, failing) = failing_tree(config, &entries);
        // bulk_load does not attach a WAL itself (PioBTree::create does): attach one.
        t.attach_wal(storage::Wal::new(
            Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 64 << 20)),
            0,
            2048,
        ));

        let mut model: BTreeMap<Key, Value> = entries.iter().copied().collect();
        for k in (0..4_000u64).step_by(37) {
            t.update(k * 3, k + 1_000_000).unwrap();
            model.insert(k * 3, k + 1_000_000);
        }
        fail_write_in(&failing, 1);
        t.flush_once().unwrap_err();
        // Retry lands the whole queue durably.
        t.checkpoint().unwrap();
        assert_eq!(t.opq_len(), 0);

        // Crash and recover: the aborted flush must be skipped, not undone.
        t.simulate_crash();
        let report = t.recover().unwrap();
        assert_eq!(report.aborted_flushes, 1, "the failed flush was marked aborted");
        assert_eq!(
            report.incomplete_flushes, 0,
            "aborted flush must not be treated as incomplete"
        );
        for (&k, &v) in model.iter().step_by(31) {
            assert_eq!(t.search(k).unwrap(), Some(v), "key {k} after crash recovery");
        }
        t.checkpoint().unwrap();
        t.check_invariants().unwrap();
    }

    #[test]
    fn failed_flush_frees_rolled_back_allocations() {
        let config = PioConfig {
            pio_max: 4,
            opq_pages: 8,
            bcnt: 512,
            ..small_config()
        };
        let (mut t, failing) = failing_tree(config, &[]);
        for k in 0..500u64 {
            if t.opq_len() + 1 >= t.opq_capacity() {
                break;
            }
            t.insert(k, k).unwrap();
        }
        let allocated_before = t.store().store().stats().allocated;
        let freed_before = t.store().store().stats().freed;
        fail_write_in(&failing, 1);
        t.flush_once().unwrap_err();
        let stats = t.store().store().stats();
        let leaked = (stats.allocated - allocated_before) - (stats.freed - freed_before);
        assert_eq!(leaked, 0, "every page the failed flush allocated must be freed again");
    }

    #[test]
    fn failed_flush_with_splits_restores_root_and_lsmap() {
        let config = PioConfig {
            pio_max: 4,
            opq_pages: 8,
            bcnt: 512,
            ..small_config()
        };
        // A dense insert burst into a small tree (its single leaf cannot hold the
        // batch) forces leaf splits during the flush that fails.
        let (mut t, failing) = failing_tree(config, &[]);
        let height_before = t.height();
        for k in 0..500u64 {
            // Stay below the OPQ-full trigger: enqueue only.
            if t.opq_len() + 1 >= t.opq_capacity() {
                break;
            }
            t.insert(k, k).unwrap();
        }
        let queued = t.opq_len();
        // Fail the fence-propagation write, after the split leaf regions landed.
        fail_write_in(&failing, 1);
        let err = t.flush_once().unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert_eq!(t.opq_len(), queued, "batch restored");
        assert_eq!(t.height(), height_before, "root growth rolled back");
        assert_eq!(t.check_invariants().unwrap(), 0, "no partial leaf state survives");
        // Retry succeeds and the data is intact.
        t.checkpoint().unwrap();
        assert_eq!(t.count_entries().unwrap(), queued as u64);
        t.check_invariants().unwrap();
    }

    /// Attaches a WAL whose backend is wrapped in the fault harness, returning
    /// the clock that scripts WAL-write failures.
    fn attach_faulty_wal(tree: &mut PioBTree, page_size: usize) -> Arc<FaultClock> {
        let clock = FaultClock::new();
        let faulty = Arc::new(FaultIo::new(
            Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 64 << 20)),
            Arc::clone(&clock),
        ));
        tree.attach_wal(Wal::new(Arc::new(faulty) as Arc<dyn pio::ParallelIo>, 0, page_size));
        clock
    }

    #[test]
    fn recovery_stops_cleanly_at_a_torn_wal_tail() {
        let config = PioConfig {
            opq_pages: 4,
            ..small_config()
        };
        let mut t = tree_with(config);
        let wal_clock = attach_faulty_wal(&mut t, 2048);
        // A durable prefix of 50 inserts...
        for k in 0..50u64 {
            t.insert(k, k).unwrap();
        }
        t.force_wal().unwrap();
        // ...then 30 more whose force is torn mid-record: only a prefix of the
        // page image reaches the device.
        for k in 50..80u64 {
            t.insert(k, k).unwrap();
        }
        // Tear the force inside the new records: the first page keeps the durable
        // prefix plus ~3 of the new records, and the record after the cut is
        // half-written.
        let cut = t.wal().unwrap().durable_lsn() as usize + 100;
        assert!(cut < 2048, "cut must fall inside the first page");
        wal_clock.arm(
            pio::CrashPlan::at_write(wal_clock.writes_seen()).with_torn(pio::TornWrite {
                keep_requests: 0,
                keep_bytes_of_next: cut,
            }),
        );
        assert!(t.force_wal().is_err());
        wal_clock.heal();
        t.simulate_crash();

        let report = t.recover().unwrap();
        assert!(report.torn_tail, "the torn force must be detected");
        let redone = report.redone;
        assert!(
            (50..80).contains(&redone),
            "a prefix of the torn force is salvaged: {redone}"
        );
        t.checkpoint().unwrap();
        // Exactly the salvaged prefix survives — nothing after the torn record.
        for k in 0..80u64 {
            let expect = (k < redone as u64).then_some(k);
            assert_eq!(t.search(k).unwrap(), expect, "key {k}");
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn recover_with_discards_exactly_the_filtered_epochs() {
        let config = PioConfig {
            opq_pages: 4,
            wal_enabled: true,
            ..small_config()
        };
        let mut t = tree_with(config);
        let b1: Vec<(Key, Value)> = (0..20u64).map(|k| (k * 2, k)).collect();
        let b2: Vec<(Key, Value)> = (0..15u64).map(|k| (k * 2 + 1, k + 100)).collect();
        t.insert_batch_epoch(&b1, 7).unwrap();
        t.insert_batch_epoch(&b2, 8).unwrap();
        t.simulate_crash();
        let report = t.recover_with(&mut |epoch| epoch == 7).unwrap();
        assert_eq!(report.redone, 20, "kept epoch is replayed");
        assert_eq!(report.discarded, 15, "discarded epoch is dropped");
        t.checkpoint().unwrap();
        for &(k, v) in &b1 {
            assert_eq!(t.search(k).unwrap(), Some(v), "kept key {k}");
        }
        for &(k, _) in &b2 {
            assert_eq!(t.search(k).unwrap(), None, "discarded key {k}");
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn discarding_a_flushed_epoch_unwinds_the_flush() {
        // The discarded epoch's batch overfills the OPQ, so part of it is flushed
        // *into the tree* before the crash: discarding the epoch must unwind that
        // completed flush (restoring its preimages) and re-queue the surviving
        // records it covered.
        let config = PioConfig {
            opq_pages: 1, // capacity ~120 < the 150-entry batch below
            wal_enabled: true,
            ..small_config()
        };
        let seed: Vec<(Key, Value)> = (0..500u64).map(|k| (k * 2, k)).collect();
        let mut t = tree_with(config);
        // Rebuild over the seed entries so the flush touches populated leaves.
        t = {
            let store = Arc::clone(t.store());
            let mut fresh = PioBTree::bulk_load(store, &seed, t.config().clone()).unwrap();
            fresh.attach_wal(Wal::new(
                Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 64 << 20)),
                0,
                2048,
            ));
            fresh
        };
        // A non-epoch single op logged before the batch, with a key inside the
        // range the flush will cover: the unwind must re-queue (not lose) it.
        t.update(100, 4242).unwrap();
        let net_before = {
            let s = t.store().store().stats();
            s.allocated - s.freed
        };
        let batch: Vec<(Key, Value)> = (0..150u64).map(|k| (k * 2 + 1, k + 1_000)).collect();
        t.insert_batch_epoch(&batch, 3).unwrap();
        assert!(t.stats().bupdates >= 1, "the batch must have overflowed into a flush");
        assert!(
            t.stats().leaf_splits >= 1,
            "the dense batch must split leaves (so the unwind has allocations to reclaim)"
        );

        t.simulate_crash();
        let report = t.recover_with(&mut |_| false).unwrap();
        assert!(report.unwound_flushes >= 1, "the poisoned flush must be unwound");
        assert_eq!(report.discarded, 150);
        assert!(report.redone >= 1, "the non-epoch update survives");
        // The unwound flush completed normally (no in-process rollback ever
        // ran), so its split allocations are reclaimed solely by recovery's
        // FlushAlloc sweep — nothing may leak across the crash.
        let net_after = {
            let s = t.store().store().stats();
            s.allocated - s.freed
        };
        assert_eq!(
            net_after, net_before,
            "every page the unwound flush allocated must be back on the free list"
        );
        t.checkpoint().unwrap();
        for &(k, v) in &seed {
            let expect = if k == 100 { 4242 } else { v };
            assert_eq!(t.search(k).unwrap(), Some(expect), "seed key {k}");
        }
        for &(k, _) in &batch {
            assert_eq!(t.search(k).unwrap(), None, "discarded key {k}");
        }
        assert_eq!(t.check_invariants().unwrap(), 500);
    }

    /// A crash between a durable `BatchBegin` and its `BatchEnd` leaves an open
    /// bracket in the log. Recovery must close it durably: otherwise every
    /// record logged *after* recovery (until the next bracket) would be
    /// misattributed to the dead epoch — and silently dropped by the next
    /// recovery.
    #[test]
    fn recovery_closes_a_stale_epoch_bracket() {
        let config = PioConfig {
            opq_pages: 1, // the 150-entry batch overflows into a flush mid-epoch
            ..small_config()
        };
        let batch: Vec<(Key, Value)> = (0..150u64).map(|k| (k * 3 + 1, k + 500)).collect();
        let run = |crash_at: Option<u64>| -> (PioBTree, Arc<FaultClock>, IoResult<storage::Lsn>) {
            let mut t = tree_with(config.clone());
            let wal_clock = attach_faulty_wal(&mut t, 2048);
            if let Some(at) = crash_at {
                wal_clock.arm(pio::CrashPlan::at_write(at));
            }
            let outcome = t.insert_batch_epoch(&batch, 11);
            (t, wal_clock, outcome)
        };
        // Profiling run: the batch's final WAL write carries the BatchEnd.
        let (_, clean_clock, outcome) = run(None);
        outcome.unwrap();
        let final_write = clean_clock.writes_seen() - 1;

        let (mut t, wal_clock, outcome) = run(Some(final_write));
        outcome.unwrap_err();
        wal_clock.heal();
        t.simulate_crash();
        let first = t.recover_with(&mut |_| false).unwrap();
        assert!(first.discarded > 0, "the bracketed records must be discarded");

        // Post-recovery operations belong to no epoch; a second crash+recovery
        // (still discarding epoch 11) must not swallow them.
        t.insert(999_999, 77).unwrap();
        t.checkpoint().unwrap();
        t.simulate_crash();
        let second = t.recover_with(&mut |_| false).unwrap();
        assert_eq!(
            second.discarded, first.discarded,
            "no post-recovery record may be misattributed to the stale epoch"
        );
        t.checkpoint().unwrap();
        assert_eq!(
            t.search(999_999).unwrap(),
            Some(77),
            "the post-recovery insert survives"
        );
        for &(k, _) in &batch {
            assert_eq!(t.search(k).unwrap(), None, "discarded key {k}");
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn undoing_a_flush_that_grew_the_root_rewinds_the_root() {
        // One giant flush splits the single leaf into 120+ leaves and the root
        // itself, then crashes on the very last WAL write (the FlushEnd force):
        // every node write including the new root is durable, but the flush is
        // incomplete. Recovery must rewind the root/height from the FlushRoot
        // record and re-drive the whole batch.
        let config = PioConfig {
            opq_pages: 512, // hold the whole batch without an auto flush
            bcnt: 30_000,
            wal_enabled: false, // replaced by the faulty WAL below
            ..small_config()
        };
        let run = |crash_at: Option<u64>| -> (PioBTree, Arc<FaultClock>, IoResult<()>) {
            let mut t = tree_with(config.clone());
            let wal_clock = attach_faulty_wal(&mut t, 2048);
            for k in 0..30_000u64 {
                t.insert(k, k + 7).unwrap();
            }
            if let Some(at) = crash_at {
                wal_clock.arm(pio::CrashPlan::at_write(at));
            }
            let outcome = t.flush_once();
            (t, wal_clock, outcome)
        };
        // Profiling run: the flush's final WAL write is the FlushEnd force.
        let (_, clean_clock, outcome) = run(None);
        outcome.unwrap();
        let flush_end_write = clean_clock.writes_seen() - 1;

        let (mut t, wal_clock, outcome) = run(Some(flush_end_write));
        let err = outcome.unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        let height_before = 2;
        wal_clock.heal();
        t.simulate_crash();

        let report = t.recover().unwrap();
        assert_eq!(report.incomplete_flushes, 1);
        assert_eq!(t.height(), height_before, "root growth rewound");
        assert_eq!(t.check_invariants().unwrap(), 0, "pre-flush tree restored");
        assert_eq!(report.redone, 30_000, "the whole batch re-drives");
        // The failed flush's allocations were reclaimed once by the in-process
        // rollback and once more by recovery's FlushAlloc sweep; the free list
        // must hold each page once (idempotent free), or the re-driven
        // checkpoint below would hand one page to two nodes.
        t.checkpoint().unwrap();
        assert!(t.height() > height_before, "the re-driven flush grows the tree again");
        for k in (0..30_000u64).step_by(997) {
            assert_eq!(t.search(k).unwrap(), Some(k + 7), "key {k}");
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn stats_track_operations() {
        let mut t = tree_with(small_config());
        t.insert(1, 1).unwrap();
        t.delete(1).unwrap();
        t.update(1, 2).unwrap();
        t.search(1).unwrap();
        t.range_search(0, 10).unwrap();
        t.multi_search(&[1, 2]).unwrap();
        let s = t.stats();
        assert_eq!(s.inserts, 1);
        assert_eq!(s.deletes, 1);
        assert_eq!(s.updates, 1);
        assert_eq!(s.searches, 1);
        assert_eq!(s.range_searches, 1);
        assert_eq!(s.multi_searches, 1);
        assert_eq!(s.opq_appends, 3);
    }

    #[test]
    fn bulk_load_and_point_lookup() {
        let io = Arc::new(SimPsyncIo::with_profile(DeviceProfile::P300, 1 << 30));
        let config = small_config();
        let store = Arc::new(CachedStore::new(
            PageStore::new(io, config.page_size),
            config.pool_pages,
            WritePolicy::WriteThrough,
        ));
        let entries: Vec<(Key, Value)> = (0..50_000u64).map(|k| (k * 2, k)).collect();
        let mut t = PioBTree::bulk_load(store, &entries, config).unwrap();
        assert!(t.height() >= 3);
        assert_eq!(t.search(20_000).unwrap(), Some(10_000));
        assert_eq!(t.search(20_001).unwrap(), None);
        t.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_rejects_an_invalid_config() {
        let config = PioConfig {
            bcnt: 0,
            ..small_config()
        };
        let io = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 1 << 30));
        let store = Arc::new(CachedStore::new(
            PageStore::new(io, config.page_size),
            config.pool_pages,
            WritePolicy::WriteThrough,
        ));
        let err = PioBTree::bulk_load(store, &[], config).unwrap_err();
        assert!(err.to_string().contains("bcnt"), "{err}");
    }

    /// A tree reopened via [`PioBTree::open`] from a **stale** superblock
    /// snapshot (taken at bulk-load time) must converge on the crashed
    /// process's state: `recover` rolls the root moves and the allocation
    /// frontier forward from the log's `FlushRoot`/`FlushAlloc` records, and
    /// re-queues the unflushed logical records.
    #[test]
    fn reopen_from_a_stale_snapshot_rolls_the_root_forward() {
        // Tiny pages so flushes split aggressively and the root grows within a
        // small workload.
        let config = PioConfig {
            page_size: 256,
            opq_pages: 1,
            speriod: 16,
            bcnt: 64,
            pio_max: 8,
            pool_pages: 64,
            wal_enabled: true,
            ..small_config()
        };
        let store_io: Arc<dyn pio::IoQueue> = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 64 << 20));
        let wal_io: Arc<dyn pio::IoQueue> = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 16 << 20));
        let build_store = |io: &Arc<dyn pio::IoQueue>| {
            Arc::new(CachedStore::new(
                PageStore::new(Arc::clone(io), config.page_size),
                config.pool_pages,
                WritePolicy::WriteThrough,
            ))
        };
        let entries: Vec<(Key, Value)> = (0..120u64).map(|k| (k * 200, k)).collect();
        let mut t = PioBTree::bulk_load(build_store(&store_io), &entries, config.clone()).unwrap();
        t.attach_wal(Wal::new(
            Arc::new(Arc::clone(&wal_io)) as Arc<dyn pio::ParallelIo>,
            0,
            256,
        ));
        // The stale snapshot: taken before any flush moved anything.
        let snapshot = (t.root_page(), t.height(), t.store().store().high_water_pages());
        assert_eq!(snapshot.1, 2, "bulk load of 120 entries stays at height 2");

        let mut model: std::collections::BTreeMap<Key, Value> = entries.iter().copied().collect();
        for i in 0..1_500u64 {
            let key = (i * 97) % 25_000;
            t.insert(key, i).unwrap();
            model.insert(key, i);
        }
        let grown = (t.root_page(), t.height());
        assert!(grown.1 > 2, "the workload must grow the root");
        // Leave records queued (lost with the crash, replayed from the WAL).
        let mut extra = 0u64;
        while t.opq_len() == 0 {
            let key = 25_001 + extra * 13;
            t.insert(key, extra).unwrap();
            model.insert(key, extra);
            extra += 1;
            assert!(extra < 200, "the OPQ must accept a queued record eventually");
        }
        // Make the queued records durable (the engine does this on every batch
        // boundary); an unforced record is legitimately lost with the crash.
        t.force_wal().unwrap();
        drop(t);

        // Restart: a fresh tree object over the same devices, from the STALE
        // snapshot — no in-memory state survives.
        let mut t = PioBTree::open(build_store(&store_io), config.clone(), snapshot.0, snapshot.1).unwrap();
        t.store().ensure_high_water(snapshot.2);
        t.attach_wal(Wal::new(Arc::new(wal_io) as Arc<dyn pio::ParallelIo>, 0, 256));
        let report = t.recover().unwrap();
        assert!(report.redone > 0, "queued records replay from the WAL");
        assert!(!report.torn_tail);
        assert_eq!(
            (t.root_page(), t.height()),
            grown,
            "recovery must roll the stale snapshot forward to the crashed process's root"
        );
        t.checkpoint().unwrap();
        let recovered: std::collections::BTreeMap<Key, Value> =
            t.range_search(0, Key::MAX).unwrap().into_iter().collect();
        assert_eq!(recovered, model);
        t.check_invariants().unwrap();

        // Counter continuity: new flushes after the reopen must not reuse
        // logged flush ids, or the NEXT recovery would misattribute coverage.
        for i in 0..400u64 {
            let key = (i * 89) % 25_000 + 1;
            t.insert(key, i + 10_000).unwrap();
            model.insert(key, i + 10_000);
        }
        t.force_wal().unwrap();
        t.simulate_crash();
        t.recover().unwrap();
        t.checkpoint().unwrap();
        let recovered: std::collections::BTreeMap<Key, Value> =
            t.range_search(0, Key::MAX).unwrap().into_iter().collect();
        assert_eq!(recovered, model, "second-generation recovery stays exact");
        t.check_invariants().unwrap();
    }
}
