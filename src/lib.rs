//! Umbrella crate for the PIO B-tree reproduction suite.
//!
//! This crate only re-exports the workspace members so that the runnable
//! examples under `examples/` and the integration tests under `tests/` can use
//! every component through a single dependency. See the individual crates for
//! the actual implementation:
//!
//! * [`ssd_sim`] — flash SSD simulator (channels, packages, NCQ batching).
//! * [`pio`] — the psync I/O abstraction and its backends.
//! * [`storage`] — page store, buffer pool and write-ahead log.
//! * [`btree`] — baseline disk B+-tree and the concurrent B-link tree.
//! * [`pio_btree`] — the paper's contribution: the PIO B-tree.
//! * [`flash_indexes`] — BFTL and FD-tree baselines.
//! * [`workload`] — synthetic and TPC-C-like workload generators.
//! * [`engine`] — the sharded PIO engine: key-range-partitioned PIO B-tree shards
//!   behind a cross-shard parallel fan-out.

pub use btree;
pub use engine;
pub use flash_indexes;
pub use pio;
pub use pio_btree;
pub use ssd_sim;
pub use storage;
pub use workload;
