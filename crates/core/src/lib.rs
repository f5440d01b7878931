//! # pio-btree — the PIO B-tree (Parallel I/O B-tree)
//!
//! This crate is the paper's primary contribution: a B+-tree variant that exploits
//! the internal parallelism of flash SSDs (Roh et al., *B+-tree Index Optimization by
//! Exploiting Internal Parallelism of Flash-based Solid State Drives*, PVLDB 5(4),
//! 2011). It integrates:
//!
//! * **MPSearch** (Section 3.1.1) — multi-path search that traverses the tree level
//!   by level, fetching up to `PioMax` nodes per level with one psync I/O call;
//! * **prange search** (Section 3.1.2) — range search as an MPSearch over the key
//!   range, so leaf nodes are fetched in parallel instead of one at a time along the
//!   leaf chain;
//! * **the Operation Queue (OPQ)** and **batch update / bupdate** (Section 3.1.3) —
//!   updates are buffered in memory, merge-sorted every `speriod` appends, and
//!   applied in batches that read and write all affected nodes via psync I/O,
//!   propagating fence keys level by level;
//! * **asymmetric leaf nodes** built from **Leaf Segments** with an append-only
//!   record format, the in-memory **LSMap**, and the **shrink** operation
//!   (Section 3.2.2);
//! * **the cost model** (Sections 3.2.1, 3.5, Appendix) with the optimal-node-size
//!   and `(L_opt, O_opt)` auto-tuning procedure of Section 3.6;
//! * **crash recovery** (Section 3.4) — logical redo logs, flush event and flush undo
//!   logs over a write-ahead log, a no-steal OPQ flush policy and an ARIES-style
//!   redo/undo recovery pass.
//!
//! A tree takes `&mut self` for every operation; callers that share one across
//! threads put it behind a lock, as the sharded engine does per shard.
//!
//! ## Depth-adaptive ticket pipelines
//!
//! Every batched hot path (the `locate_leaves` descent, multi-search and
//! prange leaf fetches, bupdate's Phase-A prefetch, bulk-load region writes)
//! keeps up to [`PioConfig::pipeline_depth`] batches in flight through the
//! ticketed store tier. The default, [`config::PipelineDepth::Auto`], resolves
//! at construction from the store backend's
//! [`pio::IoQueue::queue_depth_hint`]: `ceil(hint / PioMax)` in-flight
//! `PioMax`-sized batches — enough to fill the device's command queue, the
//! Figure-3 headroom — clamped to `[2, 16]`. The descent caps its lookahead at
//! `treeHeight − 1` batches, preserving the paper's
//! `PioMax · (treeHeight − 1)` buffer bound, and every pipeline drains its
//! in-flight tickets before surfacing an error.
//!
//! ## The in-memory inner tier
//!
//! With [`PioConfig::inner_tier_pages`] set, the tree pins an immutable
//! snapshot of all internal levels in memory ([`inner_tier::InnerTier`]) and
//! every descent — point search, multi-search, prange, bupdate — probes it
//! first, falling back to the ticketed `locate_leaves` wavefront only when the
//! tier is cold or stale (startup, recovery, migration import). Snapshots are
//! republished at the only points where the structure can change (flush
//! commit, recovery, bulk load) by swapping one `Arc` in a locked slot; a
//! probe clones that `Arc` and walks the snapshot outside the lock.
//! [`PioConfig::leaf_cache_pages`] independently installs a
//! scan-resistant leaf-region cache ([`storage::LeafCache`]) on the store, so
//! a warm tree can serve hot point lookups without any descent I/O while
//! `range_search` streams bypass the cache's admission. Both default to 0
//! (off), preserving the paper-faithful I/O pattern.
//!
//! ## Quick example
//!
//! ```
//! use pio_btree::{PioBTree, PioConfig};
//! use ssd_sim::DeviceProfile;
//!
//! // A PIO B-tree over a simulated Micron P300 with 4 KiB pages, leaf nodes of
//! // 2 segments and a 16-page operation queue.
//! let config = PioConfig::builder()
//!     .page_size(4096)
//!     .leaf_segments(2)
//!     .opq_pages(16)
//!     .build();
//! let mut tree = PioBTree::create(DeviceProfile::P300, 1 << 30, config).unwrap();
//! for key in 0..10_000u64 {
//!     tree.insert(key, key * 10).unwrap();
//! }
//! assert_eq!(tree.search(1234).unwrap(), Some(12340));
//! let range = tree.range_search(100, 200).unwrap();
//! assert_eq!(range.len(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod cost;
pub mod entry;
pub mod inner_tier;
pub mod leaf;
pub mod lsmap;
pub mod mpsearch;
pub mod opq;
pub mod recovery;
pub mod tree;

pub use config::{PioConfig, PioConfigBuilder, PipelineDepth};
pub use cost::{recommended_shards, CostModel, ShardTuning, WorkloadMix};
pub use entry::{OpEntry, OpKind};
pub use inner_tier::{InnerSnapshot, InnerTier, InnerTierStats};
pub use leaf::PioLeaf;
pub use lsmap::LsMap;
pub use opq::OperationQueue;
pub use recovery::{LogRecord, RecoveryReport};
pub use tree::{PioBTree, PioStats};
