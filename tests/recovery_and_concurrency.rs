//! Integration: crash recovery across flushes — deterministic cases plus a
//! randomized crash-point sweep — and multi-threaded use of a PIO B-tree behind
//! one lock, cross-checked against the concurrent B-link tree.

mod common;

use btree::ConcurrentBTree;
use common::crash::seeded_rng;
use parking_lot::Mutex;
use pio::{CrashPlan, FaultClock, FaultIo, IoQueue, ParallelIo, SimPsyncIo};
use pio_btree::{PioBTree, PioConfig};
use rand::Rng;
use ssd_sim::DeviceProfile;
use std::collections::BTreeMap;
use std::sync::Arc;
use storage::{CachedStore, PageStore, Wal, WritePolicy};

fn recoverable_config() -> PioConfig {
    PioConfig::builder()
        .page_size(2048)
        .leaf_segments(2)
        .opq_pages(2)
        .pio_max(16)
        .speriod(32)
        .bcnt(64)
        .pool_pages(64)
        .wal(true)
        .build()
}

#[test]
fn committed_operations_survive_a_crash_mid_stream() {
    let mut tree = PioBTree::create(DeviceProfile::P300, 1 << 30, recoverable_config()).unwrap();
    // Phase 1: a workload large enough to trigger several OPQ flushes.
    for k in 0..3_000u64 {
        tree.insert(k, k + 7).unwrap();
    }
    // Phase 2: a tail of operations that stays queued, but whose redo records are
    // forced (commit).
    tree.checkpoint().unwrap();
    for k in 10_000..10_050u64 {
        tree.insert(k, k).unwrap();
    }
    tree.delete(1_500).unwrap();
    tree.update(2_000, 42).unwrap();
    if let Err(e) = tree.recover() {
        panic!("recover should not fail before crash: {e}");
    }
    // Force the commit records, then crash.
    tree.checkpoint().unwrap();
    for k in 20_000..20_020u64 {
        tree.insert(k, k).unwrap();
    }
    // (these last 20 are forced by the next flush-force inside recover-test below)
    let lost = tree.simulate_crash();
    assert!(lost <= 20);

    let report = tree.recover().unwrap();
    assert!(report.skipped_flushed > 0, "flushed operations must be recognised");
    // Everything that was checkpointed must be present.
    assert_eq!(tree.search(100).unwrap(), Some(107));
    assert_eq!(tree.search(10_020).unwrap(), Some(10_020));
    assert_eq!(tree.search(1_500).unwrap(), None);
    assert_eq!(tree.search(2_000).unwrap(), Some(42));
    tree.checkpoint().unwrap();
    tree.check_invariants().unwrap();
}

#[test]
fn repeated_crash_recover_cycles_converge() {
    let mut tree = PioBTree::create(DeviceProfile::F120, 1 << 30, recoverable_config()).unwrap();
    for round in 0..5u64 {
        for k in 0..500u64 {
            tree.insert(round * 10_000 + k, k).unwrap();
        }
        tree.checkpoint().unwrap();
        tree.simulate_crash();
        tree.recover().unwrap();
    }
    // All five rounds must be visible.
    for round in 0..5u64 {
        assert_eq!(tree.search(round * 10_000 + 123).unwrap(), Some(123), "round {round}");
    }
    tree.check_invariants().unwrap();
}

/// One step of the deterministic single-tree workload.
#[derive(Debug, Clone, Copy)]
enum TreeOp {
    Insert(u64, u64),
    Delete(u64),
    Update(u64, u64),
    /// An explicit bupdate (on top of the OPQ-full automatic ones).
    Flush,
}

/// A deterministic mix of inserts, deletes, updates and explicit flushes over a
/// small key space (so deletes and updates hit existing keys).
fn tree_workload() -> Vec<TreeOp> {
    let mut ops = Vec::new();
    for i in 0..900u64 {
        let key = (i * 67 + 13) % 800;
        ops.push(match i % 7 {
            5 => TreeOp::Delete(key),
            6 => TreeOp::Update(key, i + 10_000),
            _ => TreeOp::Insert(key, i + 1),
        });
        // Explicit flushes on top of the OPQ-full automatic ones (capacity
        // ~100, so several batches overflow between these).
        if i % 130 == 129 {
            ops.push(TreeOp::Flush);
        }
    }
    ops
}

/// In-memory models of every workload prefix: `snapshots[p]` is the state after
/// the first `p` ops.
fn prefix_snapshots(ops: &[TreeOp]) -> Vec<BTreeMap<u64, u64>> {
    let mut snapshots = Vec::with_capacity(ops.len() + 1);
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    snapshots.push(model.clone());
    for op in ops {
        match *op {
            TreeOp::Insert(k, v) | TreeOp::Update(k, v) => {
                model.insert(k, v);
            }
            TreeOp::Delete(k) => {
                model.remove(&k);
            }
            TreeOp::Flush => {}
        }
        snapshots.push(model.clone());
    }
    snapshots
}

/// Builds a WAL-enabled tree whose store *and* WAL backends share `clock`.
fn crashy_tree(clock: &Arc<FaultClock>) -> PioBTree {
    let config = PioConfig::builder()
        .page_size(2048)
        .leaf_segments(2)
        .opq_pages(1) // capacity ~100: the workload overflows into auto flushes
        .pio_max(8)
        .speriod(32)
        .bcnt(64)
        .pool_pages(64)
        .build();
    let store_io = Arc::new(FaultIo::new(
        Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 1 << 28)),
        Arc::clone(clock),
    ));
    let store = Arc::new(CachedStore::new(
        PageStore::new(store_io as Arc<dyn IoQueue>, 2048),
        64,
        WritePolicy::WriteThrough,
    ));
    let mut tree = PioBTree::bulk_load(store, &[], config).unwrap();
    let wal_io = Arc::new(FaultIo::new(
        Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 64 << 20)),
        Arc::clone(clock),
    ));
    tree.attach_wal(Wal::new(Arc::new(wal_io) as Arc<dyn ParallelIo>, 0, 2048));
    tree
}

/// Applies the workload; returns the index of the op the crash surfaced in.
fn run_tree_ops(tree: &mut PioBTree, ops: &[TreeOp]) -> Result<(), usize> {
    for (i, op) in ops.iter().enumerate() {
        let outcome = match *op {
            TreeOp::Insert(k, v) => tree.insert(k, v),
            TreeOp::Delete(k) => tree.delete(k),
            TreeOp::Update(k, v) => tree.update(k, v),
            TreeOp::Flush => tree.flush_once(),
        };
        if outcome.is_err() {
            return Err(i);
        }
    }
    Ok(())
}

/// Randomized crash points over interleaved inserts/deletes/updates/flushes on
/// a single tree: whatever write the crash lands on, the recovered state must
/// equal the workload applied up to *some* op prefix — committed work is never
/// lost, half-applied flushes never show (complements the deterministic cases
/// above).
#[test]
fn randomized_tree_crash_points_recover_to_an_op_prefix() {
    let (mut rng, seed) = seeded_rng();
    let ops = tree_workload();
    let snapshots = prefix_snapshots(&ops);

    // Profiling run: total write submissions of the clean workload.
    let clock = FaultClock::new();
    let mut tree = crashy_tree(&clock);
    let base = clock.writes_seen();
    run_tree_ops(&mut tree, &ops).expect("clean run must not fail");
    let total_writes = clock.writes_seen() - base;
    drop(tree);
    assert!(total_writes > 40, "workload too small: {total_writes} writes");

    const TRIALS: usize = 60;
    let mut incomplete = 0usize;
    for trial in 0..TRIALS {
        let k = rng.gen_range(0u64..total_writes);
        let clock = FaultClock::new();
        let mut tree = crashy_tree(&clock);
        clock.arm(CrashPlan::at_write(clock.writes_seen() + k));
        let failed_at = run_tree_ops(&mut tree, &ops).expect_err(&format!(
            "seed {seed} trial {trial}: write {k}/{total_writes} must crash some op"
        ));

        clock.heal();
        tree.simulate_crash();
        let report = tree
            .recover()
            .unwrap_or_else(|e| panic!("seed {seed} trial {trial} write {k}: recovery failed: {e}"));
        incomplete += report.incomplete_flushes;
        tree.checkpoint()
            .unwrap_or_else(|e| panic!("seed {seed} trial {trial} write {k}: post-recovery checkpoint failed: {e}"));

        let state: BTreeMap<u64, u64> = tree.range_search(0, u64::MAX).unwrap().into_iter().collect();
        // The recovered state must be the workload applied up to some prefix no
        // longer than the crashed op (ops after the crash never ran).
        let matched = snapshots[..=(failed_at + 1).min(snapshots.len() - 1)]
            .iter()
            .rposition(|model| *model == state);
        assert!(
            matched.is_some(),
            "seed {seed} trial {trial} write {k}: recovered state ({} entries, crashed op {failed_at}, \
             report {report:?}) matches no op prefix",
            state.len(),
        );
        tree.check_invariants()
            .unwrap_or_else(|e| panic!("seed {seed} trial {trial} write {k}: invariants violated: {e}"));
    }
    assert!(
        incomplete >= 1,
        "seed {seed}: no trial crashed mid-flush — the sweep is not reaching the undo path"
    );
}

#[test]
fn concurrent_trees_serve_many_threads() {
    let config = PioConfig::builder()
        .page_size(2048)
        .leaf_segments(2)
        .opq_pages(4)
        .pio_max(32)
        .speriod(64)
        .bcnt(256)
        .pool_pages(128)
        .build();
    let pio = Arc::new(Mutex::new(
        PioBTree::create(DeviceProfile::Iodrive, 1 << 30, config).unwrap(),
    ));
    let io = Arc::new(pio::SimPsyncIo::with_profile(DeviceProfile::Iodrive, 1 << 30));
    let store = Arc::new(storage::CachedStore::new(
        storage::PageStore::new(io, 2048),
        128,
        storage::WritePolicy::WriteBack,
    ));
    let blink = Arc::new(ConcurrentBTree::new(btree::BPlusTree::new(store).unwrap()));
    // A checkpointed base population the threads read while others insert.
    const BASE: u64 = 600;
    for key in 1_000_000..1_000_000 + BASE {
        pio.lock().insert(key, key).unwrap();
        blink.insert(key, key).unwrap();
    }
    pio.lock().checkpoint().unwrap();

    let mut handles = Vec::new();
    for thread in 0..6u64 {
        let pio = Arc::clone(&pio);
        let blink = Arc::clone(&blink);
        handles.push(std::thread::spawn(move || {
            for i in 0..400u64 {
                let key = thread * 100_000 + i;
                pio.lock().insert(key, i).unwrap();
                blink.insert(key, i).unwrap();
                if i % 10 == 0 {
                    assert_eq!(pio.lock().search(key).unwrap(), Some(i));
                    assert_eq!(blink.search(key).unwrap(), Some(i));
                }
                if i % 10 == 5 {
                    let base = 1_000_000 + (thread * 97 + i * 7) % BASE;
                    assert_eq!(pio.lock().search(base).unwrap(), Some(base));
                    assert_eq!(blink.search(base).unwrap(), Some(base));
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut pio = pio.lock();
    pio.checkpoint().unwrap();
    blink.flush().unwrap();
    assert_eq!(
        pio.stats().inserts,
        BASE + 6 * 400,
        "every insert from every thread counted"
    );
    // Cross-check both concurrent structures agree after the storm.
    for thread in 0..6u64 {
        let keys: Vec<u64> = (0..400).step_by(37).map(|i| thread * 100_000 + i).collect();
        let a = pio.multi_search(&keys).unwrap();
        let b = blink.concurrent_search(&keys).unwrap();
        assert_eq!(a, b);
        assert!(a.iter().all(|r| r.is_some()));
    }
}
