//! The in-memory inner-node tier: descent without I/O.
//!
//! The paper spends its I/O budget on *leaf-level* parallelism — MPSearch,
//! prange and bupdate all fan out over the leaves — yet every descent still
//! pays page-at-a-time inner-node reads through the store. The inner levels of
//! a B+-tree are tiny compared to the leaf level (a fraction `1/fanout` of the
//! index), so this module pins them in memory outright, the way FB+-tree and
//! BS-tree keep their inner levels in memory-optimized form:
//!
//! * **Immutable snapshots.** A [`InnerSnapshot`] is a frozen copy of *all*
//!   internal nodes (root page, height, decoded nodes). It is never mutated —
//!   structural changes replace the whole snapshot. This is safe to do at
//!   flush granularity because the PIO B-tree only changes structure inside
//!   bupdate (updates buffer in the OPQ between flushes), so a snapshot
//!   rebuilt at each flush-commit point is *exactly* current until the next
//!   flush.
//! * **A locked one-pointer slot.** [`InnerTier`] holds the current snapshot
//!   as an `Arc` behind a mutex. Publishing swaps the `Arc`; a probe clones it
//!   and walks the snapshot outside the lock, so the lock covers a pointer
//!   copy and nothing else. In the engine every prober and publisher already
//!   holds the shard's tree lock, so the slot is never contended there; loads
//!   that do find it held are counted in [`InnerTierStats::retries`].
//! * **Fallback, not a correctness dependency.** Every caller passes the
//!   root/height it believes current; a cold, over-budget or stale tier
//!   returns `None` and the caller falls back to the ticketed
//!   [`crate::mpsearch`] wavefront, which keeps the paper's
//!   `PioMax · (treeHeight − 1)` buffer bound. The tier can therefore be
//!   invalidated at any time (crash simulation, recovery, migration) without
//!   blocking anything.

use crate::mpsearch::LeafLocation;
use btree::{InternalNode, Key, Node};
use parking_lot::Mutex;
use pio::IoResult;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use storage::{CachedStore, PageId};

/// Monotonic counters of an [`InnerTier`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InnerTierStats {
    /// Probes fully served from the in-memory snapshot (one per descent, not
    /// per key).
    pub hits: u64,
    /// Probes that fell back to the store wavefront (tier cold, stale or over
    /// budget).
    pub misses: u64,
    /// Snapshots successfully rebuilt and published.
    pub rebuilds: u64,
    /// Snapshot loads that found the slot held and waited for it.
    pub retries: u64,
}

impl InnerTierStats {
    /// Hit rate over all probes; 0 when the tier was never probed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A frozen image of every internal level of one tree.
#[derive(Debug)]
pub struct InnerSnapshot {
    /// Root page the snapshot was built from.
    pub root: PageId,
    /// Tree height the snapshot was built from (1 = root is a leaf).
    pub height: usize,
    nodes: HashMap<PageId, InternalNode>,
}

impl InnerSnapshot {
    fn internal_levels(&self) -> usize {
        self.height.saturating_sub(1)
    }

    /// Number of internal nodes pinned by this snapshot.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Walks the snapshot for one key, producing the same root-to-parent path
    /// as [`crate::mpsearch::locate_leaves`]. `None` if a node is missing
    /// (truncated snapshot — the caller must fall back).
    pub fn locate(&self, key: Key) -> Option<LeafLocation> {
        let mut page = self.root;
        let mut path = Vec::with_capacity(self.internal_levels());
        for _ in 0..self.internal_levels() {
            let node = self.nodes.get(&page)?;
            let idx = node.child_for(key);
            path.push((page, idx));
            page = node.children[idx];
        }
        Some(LeafLocation { leaf: page, path })
    }

    /// Walks the snapshot for a key range `[lo, hi)`, producing the same leaf
    /// list (first pages, key order) as
    /// [`crate::mpsearch::locate_leaves_in_range`].
    pub fn locate_range(&self, lo: Key, hi: Key) -> Option<Vec<PageId>> {
        if lo >= hi {
            return Some(Vec::new());
        }
        let mut frontier = vec![self.root];
        for _ in 0..self.internal_levels() {
            let mut next = Vec::new();
            for &p in &frontier {
                let node = self.nodes.get(&p)?;
                let first = node.child_for(lo);
                let last = node.child_for(hi - 1);
                next.extend_from_slice(&node.children[first..=last]);
            }
            frontier = next;
        }
        Some(frontier)
    }
}

/// The per-tree pinned inner tier. Cheap to construct disabled (budget 0).
#[derive(Debug)]
pub struct InnerTier {
    /// Page budget; 0 disables the tier entirely.
    budget_pages: u64,
    /// The published snapshot. The mutex guards only the `Arc` swap/clone.
    slot: Mutex<Option<Arc<InnerSnapshot>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    rebuilds: AtomicU64,
    retries: AtomicU64,
}

impl InnerTier {
    /// Creates a tier with the given page budget (0 = disabled).
    pub fn new(budget_pages: u64) -> Self {
        Self {
            budget_pages,
            slot: Mutex::new(None),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        }
    }

    /// Whether the tier is configured at all.
    pub fn enabled(&self) -> bool {
        self.budget_pages > 0
    }

    /// The configured budget in pages.
    pub fn budget_pages(&self) -> u64 {
        self.budget_pages
    }

    /// Counter snapshot.
    pub fn stats(&self) -> InnerTierStats {
        InnerTierStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
        }
    }

    /// Loads the current snapshot; `None` when the tier is cold. A load that
    /// finds the slot held counts a retry, then waits for it.
    pub fn load(&self) -> Option<Arc<InnerSnapshot>> {
        if !self.enabled() {
            return None;
        }
        let slot = self.slot.try_lock().unwrap_or_else(|| {
            self.retries.fetch_add(1, Ordering::Relaxed);
            self.slot.lock()
        });
        slot.clone()
    }

    /// Loads the snapshot **iff** it matches the caller's current root and
    /// height; a mismatch (stale tier) counts as a miss.
    fn load_for(&self, root: PageId, height: usize) -> Option<Arc<InnerSnapshot>> {
        let snap = self.load();
        match snap {
            Some(s) if s.root == root && s.height == height => Some(s),
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Probes the tier for a sorted key set. `Some` is exact (equivalent to
    /// [`crate::mpsearch::locate_leaves`]); `None` means the caller must fall
    /// back to the store wavefront.
    pub fn probe_leaves(&self, root: PageId, height: usize, keys: &[Key]) -> Option<Vec<LeafLocation>> {
        if !self.enabled() {
            return None;
        }
        let snap = self.load_for(root, height)?;
        let mut out = Vec::with_capacity(keys.len());
        for &key in keys {
            match snap.locate(key) {
                Some(loc) => out.push(loc),
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            }
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(out)
    }

    /// Probes the tier for one key, returning the leaf's first page.
    pub fn probe_leaf(&self, root: PageId, height: usize, key: Key) -> Option<PageId> {
        self.probe_leaves(root, height, std::slice::from_ref(&key))
            .map(|locs| locs[0].leaf)
    }

    /// Probes the tier for the leaves intersecting `[lo, hi)`. `Some` is exact
    /// (equivalent to [`crate::mpsearch::locate_leaves_in_range`]).
    pub fn probe_range(&self, root: PageId, height: usize, lo: Key, hi: Key) -> Option<Vec<PageId>> {
        if !self.enabled() {
            return None;
        }
        let snap = self.load_for(root, height)?;
        match snap.locate_range(lo, hi) {
            Some(leaves) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(leaves)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Publishes a snapshot (or `None` to go cold) by swapping the slot.
    pub fn publish(&self, snapshot: Option<Arc<InnerSnapshot>>) {
        *self.slot.lock() = snapshot;
    }

    /// Drops the snapshot: every probe until the next rebuild falls back.
    pub fn invalidate(&self) {
        self.publish(None);
    }

    /// Rebuilds the snapshot from the store by walking all internal levels
    /// from `root`. Returns `Ok(true)` if a snapshot was published,
    /// `Ok(false)` if the tier is disabled or the internal levels exceed the
    /// page budget (the tier then goes cold — over budget is not an error).
    /// On an I/O error the tier is invalidated before the error is returned,
    /// so a half-built snapshot can never serve probes.
    pub fn rebuild_from(&self, store: &CachedStore, root: PageId, height: usize) -> IoResult<bool> {
        if !self.enabled() {
            return Ok(false);
        }
        let levels = height.saturating_sub(1);
        let mut nodes: HashMap<PageId, InternalNode> = HashMap::new();
        let mut frontier = vec![root];
        for _ in 0..levels {
            let mut next: Vec<PageId> = Vec::new();
            for &page in &frontier {
                if nodes.len() as u64 + 1 > self.budget_pages {
                    self.invalidate();
                    return Ok(false);
                }
                let image = match store.read_page(page) {
                    Ok(image) => image,
                    Err(e) => {
                        self.invalidate();
                        return Err(e);
                    }
                };
                let node = Node::decode(&image).expect_internal();
                next.extend_from_slice(&node.children);
                nodes.insert(page, node);
            }
            frontier = next;
        }
        self.publish(Some(Arc::new(InnerSnapshot { root, height, nodes })));
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btree::LeafNode;
    use pio::SimPsyncIo;
    use ssd_sim::DeviceProfile;
    use storage::{PageStore, WritePolicy};

    /// Two internal levels over four placeholder leaves (same shape as the
    /// mpsearch fixture): root → [n0 (< 100), n1 (≥ 100)] → leaves.
    fn fixture() -> (Arc<CachedStore>, PageId, Vec<PageId>) {
        let io = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 64 * 1024 * 1024));
        let store = Arc::new(CachedStore::new(
            PageStore::new(io, 2048),
            64,
            WritePolicy::WriteThrough,
        ));
        let leaves: Vec<PageId> = (0..4).map(|_| store.allocate()).collect();
        for &l in &leaves {
            store.write_page(l, &LeafNode::default().encode(2048)).unwrap();
        }
        let n0 = store.allocate();
        let n1 = store.allocate();
        let root = store.allocate();
        let internal =
            |keys: Vec<u64>, children: Vec<PageId>| Node::Internal(InternalNode { keys, children }).encode(2048);
        store
            .write_page(n0, &internal(vec![50], vec![leaves[0], leaves[1]]))
            .unwrap();
        store
            .write_page(n1, &internal(vec![150], vec![leaves[2], leaves[3]]))
            .unwrap();
        store.write_page(root, &internal(vec![100], vec![n0, n1])).unwrap();
        (store, root, leaves)
    }

    #[test]
    fn disabled_tier_never_hits_and_never_counts() {
        let (store, root, _) = fixture();
        let tier = InnerTier::new(0);
        assert!(!tier.rebuild_from(&store, root, 3).unwrap());
        assert!(tier.probe_leaves(root, 3, &[10]).is_none());
        assert_eq!(tier.stats(), InnerTierStats::default());
    }

    #[test]
    fn probe_matches_the_store_descent() {
        let (store, root, leaves) = fixture();
        let tier = InnerTier::new(16);
        assert!(tier.rebuild_from(&store, root, 3).unwrap());
        let keys = vec![10u64, 60, 120, 200];
        let probed = tier.probe_leaves(root, 3, &keys).unwrap();
        let walked = crate::mpsearch::locate_leaves(&store, root, 2, &keys, 64, 2).unwrap();
        assert_eq!(
            probed, walked,
            "tier probe must equal the store descent, paths included"
        );
        assert_eq!(
            tier.probe_range(root, 3, 60, 160).unwrap(),
            vec![leaves[1], leaves[2], leaves[3]]
        );
        let s = tier.stats();
        assert_eq!(s.rebuilds, 1);
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 0);
    }

    #[test]
    fn stale_root_or_height_is_a_miss() {
        let (store, root, _) = fixture();
        let tier = InnerTier::new(16);
        tier.rebuild_from(&store, root, 3).unwrap();
        assert!(tier.probe_leaves(root + 999, 3, &[10]).is_none(), "wrong root");
        assert!(tier.probe_leaves(root, 4, &[10]).is_none(), "wrong height");
        assert_eq!(tier.stats().misses, 2);
        // Invalidation sends the next probe to the fallback too.
        tier.invalidate();
        assert!(tier.probe_leaves(root, 3, &[10]).is_none());
        assert_eq!(tier.stats().misses, 3);
    }

    #[test]
    fn over_budget_tier_stays_cold() {
        let (store, root, _) = fixture();
        let tier = InnerTier::new(2); // 3 internal nodes > 2-page budget
        assert!(!tier.rebuild_from(&store, root, 3).unwrap());
        assert!(tier.probe_leaves(root, 3, &[10]).is_none());
        assert_eq!(tier.stats().rebuilds, 0);
    }

    #[test]
    fn degenerate_single_node_tree_probes_to_the_root() {
        let (store, root, _) = fixture();
        let tier = InnerTier::new(4);
        tier.rebuild_from(&store, root, 1).unwrap();
        let locs = tier.probe_leaves(root, 1, &[1, 2]).unwrap();
        assert!(locs.iter().all(|l| l.leaf == root && l.path.is_empty()));
    }

    /// The publish hammer: a publisher alternates between a hand-built
    /// snapshot and a rebuilt one while reader threads probe, so loads contend
    /// with swaps on the slot. Every probe must be exact against the snapshot
    /// it loaded. The run is fixed in size: a fixed number of publishes, and
    /// every reader makes at least a fixed number of probe rounds, the last
    /// one after the final publish.
    #[test]
    fn concurrent_publish_hammer_exercises_retries_with_exact_results() {
        const PUBLISHES: usize = 4_000;
        const MIN_ROUNDS: u64 = 200;
        const READERS: usize = 4;
        let (store, root, leaves) = fixture();
        let tier = InnerTier::new(16);
        tier.rebuild_from(&store, root, 3).unwrap();
        // An alternative root with the separator moved: key 60 routes to
        // leaves[2] instead of leaves[1].
        let alt_root = store.allocate();
        store
            .write_page(
                alt_root,
                &Node::Internal(InternalNode {
                    keys: vec![55],
                    children: vec![leaves[1], leaves[2]],
                })
                .encode(2048),
            )
            .unwrap();
        let alt = Arc::new(InnerSnapshot {
            root: alt_root,
            height: 2,
            nodes: HashMap::from([(
                alt_root,
                Node::decode(&store.read_page(alt_root).unwrap()).expect_internal(),
            )]),
        });

        let done = std::sync::atomic::AtomicBool::new(false);
        let start = std::sync::Barrier::new(READERS + 1);
        std::thread::scope(|scope| {
            for _ in 0..READERS {
                scope.spawn(|| {
                    start.wait();
                    let (mut rounds, mut probes) = (0u64, 0u64);
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        // Probe whichever snapshot is current; each answer must
                        // be exact for that snapshot's root.
                        if let Some(leaf) = tier.probe_leaf(root, 3, 60) {
                            assert_eq!(leaf, leaves[1], "main snapshot routes 60 → leaves[1]");
                            probes += 1;
                        }
                        if let Some(leaf) = tier.probe_leaf(alt_root, 2, 60) {
                            assert_eq!(leaf, leaves[2], "alt snapshot routes 60 → leaves[2]");
                            probes += 1;
                        }
                        rounds += 1;
                        if finished && rounds >= MIN_ROUNDS {
                            break;
                        }
                    }
                    assert!(probes > 0, "reader never observed a snapshot");
                });
            }
            start.wait();
            for _ in 0..PUBLISHES / 2 {
                tier.publish(Some(Arc::clone(&alt)));
                tier.rebuild_from(&store, root, 3).unwrap();
            }
            done.store(true, Ordering::Release);
        });
        let stats = tier.stats();
        assert_eq!(stats.rebuilds, 1 + PUBLISHES as u64 / 2, "every rebuild published");
        assert!(stats.hits > 0, "readers must have probed warm snapshots");
        assert!(
            stats.hits + stats.misses >= 2 * MIN_ROUNDS * READERS as u64,
            "every reader makes its minimum number of probe rounds"
        );
    }
}
