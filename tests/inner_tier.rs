//! The in-memory inner tier and the scan-resistant leaf cache, end to end.
//!
//! Four layers of coverage for the `inner_tier` subsystem:
//!
//! 1. **Equivalence** — the tier and the leaf cache are pure accelerators: a
//!    CRASH_SEED-randomized interleaving of `multi_search` / `range_search` /
//!    `insert_batch` returns bit-identical results with them on and off, on
//!    every simulated topology (device-per-shard and shared-device).
//! 2. **Concurrent hammer** — snapshot republications (the flush-commit path's
//!    `rebuild_from`) race readers on one shared tier: every successful probe
//!    must route to the exact leaf of the published snapshot.
//! 3. **Crash / migration sweep** — CRASH_SEED-randomized crash points over a
//!    workload interleaving batches with forced shard migrations, tier and
//!    cache enabled: after `recover()` the tier-served key set must equal the
//!    oracle (never a stale pre-migration boundary), with all-or-nothing
//!    bounds exactly as in the tier-off sweep.
//! 4. **Scan resistance** — a hot point-lookup working set must keep a high
//!    leaf-cache hit rate while full-range scans stream through the store.

mod common;

use common::crash::{crashy_engine, seeded_rng};
use engine::{DevicePerShard, EngineBuilder, EngineConfig, ShardedPioEngine, SharedDevice};
use pio::{CrashPlan, FaultClock, IoQueue, SimPsyncIo};
use pio_btree::{PioBTree, PioConfig};
use rand::{rngs::StdRng, Rng};
use ssd_sim::DeviceProfile;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use storage::{CachedStore, PageStore, WritePolicy};

const PAGE: u64 = 2048;

/// Small pages + tiny OPQs so the randomized workload flushes (and therefore
/// republishes tier snapshots) many times.
fn base_config(wal: bool) -> PioConfig {
    PioConfig::builder()
        .page_size(PAGE as usize)
        .leaf_segments(2)
        .opq_pages(1)
        .pio_max(8)
        .speriod(32)
        .bcnt(64)
        .pool_pages(96)
        .wal(wal)
        .build()
}

fn config(tier: bool, wal: bool) -> EngineConfig {
    let mut builder = EngineConfig::builder()
        .shards(4)
        .profile(DeviceProfile::F120)
        .shard_capacity_bytes(1 << 28)
        .base(base_config(wal));
    if tier {
        builder = builder.inner_tier_bytes(PAGE * 64 * 4).leaf_cache_bytes(PAGE * 64 * 4);
    }
    builder.build()
}

fn seed_entries() -> Vec<(u64, u64)> {
    (0..2_000u64).map(|k| (k * 16, k + 1)).collect()
}

// ------------------------------------------------------------- equivalence --

/// One step of the randomized interleaving, drawn identically for every engine
/// under comparison.
enum Step {
    Insert(Vec<(u64, u64)>),
    Multi(Vec<u64>),
    Range(u64, u64),
}

fn random_steps(rng: &mut StdRng, steps: usize) -> Vec<Step> {
    (0..steps)
        .map(|_| match rng.gen_range(0u32..3) {
            0 => {
                // Distinct keys: a stride walk over the space, mixing
                // overwrites of the seed population with fresh tail keys.
                let start = rng.gen_range(0u64..40_000);
                let stride = rng.gen_range(3u64..37) | 1;
                Step::Insert((0..64u64).map(|i| (start + i * stride, start ^ i)).collect())
            }
            1 => {
                let start = rng.gen_range(0u64..40_000);
                Step::Multi((0..100u64).map(|i| (start + i * 97) % 45_000).collect())
            }
            _ => {
                let lo = rng.gen_range(0u64..35_000);
                Step::Range(lo, lo + rng.gen_range(100u64..5_000))
            }
        })
        .collect()
}

/// Runs the interleaving, returning every observable result in order.
#[allow(clippy::type_complexity)]
fn run_steps(engine: &ShardedPioEngine, steps: &[Step]) -> (Vec<Vec<Option<u64>>>, Vec<Vec<(u64, u64)>>) {
    let (mut multis, mut ranges) = (Vec::new(), Vec::new());
    for step in steps {
        match step {
            Step::Insert(batch) => engine.insert_batch(batch).expect("insert_batch"),
            Step::Multi(keys) => multis.push(engine.multi_search(keys).expect("multi_search")),
            Step::Range(lo, hi) => ranges.push(engine.range_search(*lo, *hi).expect("range_search")),
        }
    }
    (multis, ranges)
}

#[test]
fn tier_on_equals_tier_off_on_every_sim_topology() {
    let (mut rng, seed) = seeded_rng();
    let entries = seed_entries();
    let steps = random_steps(&mut rng, 40);

    // The tier-off device-per-shard engine is the reference.
    let reference = EngineBuilder::new(config(false, false))
        .topology(DevicePerShard)
        .entries(&entries)
        .build()
        .expect("reference engine");
    let expected = run_steps(&reference, &steps);
    let final_state: BTreeMap<u64, u64> = reference.range_search(0, u64::MAX).unwrap().into_iter().collect();

    let with_tier = |engine: ShardedPioEngine, label: &str| {
        let got = run_steps(&engine, &steps);
        assert_eq!(got, expected, "seed {seed}: {label} diverged from tier-off reference");
        let scan: BTreeMap<u64, u64> = engine.range_search(0, u64::MAX).unwrap().into_iter().collect();
        assert_eq!(scan, final_state, "seed {seed}: {label} final state diverged");
        let stats = engine.stats();
        assert!(
            stats.rollup.inner_tier_hits > 0,
            "seed {seed}: {label} never answered a descent from the tier"
        );
        assert!(
            stats.leaf_cache.hits + stats.leaf_cache.misses + stats.leaf_cache.scan_bypasses > 0,
            "seed {seed}: {label} never consulted the leaf cache"
        );
        engine.check_invariants().unwrap();
    };
    with_tier(
        EngineBuilder::new(config(true, false))
            .topology(DevicePerShard)
            .entries(&entries)
            .build()
            .expect("tier-on device-per-shard"),
        "tier-on device-per-shard",
    );
    with_tier(
        EngineBuilder::new(config(true, false))
            .topology(SharedDevice)
            .entries(&entries)
            .build()
            .expect("tier-on shared-device"),
        "tier-on shared-device",
    );
}

// ----------------------------------------------------------------- hammer --

/// Snapshot republications race readers on one tree's tier: the writer thread
/// re-runs the flush-commit publication path (`rebuild_from`, with
/// `invalidate` in between, so readers also see cold windows) while reader
/// threads probe a fixed key set. Every `Some` answer must be the exact leaf of
/// the (static) structure. The run is fixed in size: a fixed number of
/// republications, and every reader makes at least a fixed number of probe
/// rounds, the last one after the final republication.
#[test]
fn snapshot_republication_races_readers_with_exact_results() {
    let io: Arc<dyn IoQueue> = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 1 << 28));
    let store = Arc::new(CachedStore::new(
        PageStore::new(io, PAGE as usize),
        256,
        WritePolicy::WriteThrough,
    ));
    let config = PioConfig {
        inner_tier_pages: 256,
        ..base_config(false)
    };
    let entries: Vec<(u64, u64)> = (0..40_000u64).map(|k| (k * 8, k + 1)).collect();
    let tree = PioBTree::bulk_load(Arc::clone(&store), &entries, config).expect("bulk load");
    assert!(tree.height() >= 3, "the hammer needs a multi-level tree");

    let (root, height) = (tree.root_page(), tree.height());
    let tier = tree.inner_tier();
    // The ground truth: the warm tier's own routing before any contention.
    let probes: Vec<u64> = (0..64u64).map(|i| i * 4_999).collect();
    let expected: Vec<_> = probes
        .iter()
        .map(|&k| tier.probe_leaf(root, height, k).expect("warm tier must answer"))
        .collect();

    const REPUBLISHES: u64 = 200;
    const MIN_ROUNDS: u64 = 20;
    const READERS: usize = 4;
    let done = AtomicBool::new(false);
    let start = Barrier::new(READERS + 1);
    std::thread::scope(|scope| {
        for _ in 0..READERS {
            scope.spawn(|| {
                start.wait();
                let mut rounds = 0u64;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    for (&key, &leaf) in probes.iter().zip(&expected) {
                        if let Some(got) = tier.probe_leaf(root, height, key) {
                            assert_eq!(got, leaf, "probe of {key} routed to a torn snapshot");
                        }
                    }
                    rounds += 1;
                    if finished && rounds >= MIN_ROUNDS {
                        break;
                    }
                }
            });
        }
        start.wait();
        for _ in 0..REPUBLISHES {
            tier.invalidate();
            tier.rebuild_from(&store, root, height).expect("rebuild");
        }
        done.store(true, Ordering::Release);
    });
    let stats = tier.stats();
    assert!(stats.rebuilds > 1, "the writer must have republished snapshots");
    assert!(stats.hits > 0, "readers must have probed warm snapshots");
}

// ------------------------------------------------- crash / migration sweep --

enum Op {
    Batch(Vec<(u64, u64)>),
    Split(usize),
    Merge(usize, usize),
}

/// Batches interleaved with forced migrations, as in the rebalance sweep, so
/// crash points land inside migration windows while the tier is live.
fn sweep_ops() -> Vec<Op> {
    let mut ops = Vec::new();
    let batch = |b: u64| -> Vec<(u64, u64)> {
        (0..48u64)
            .map(|i| {
                let key = if i % 3 == 0 {
                    32_000 + (b * 48 + i) * 11
                } else {
                    (i * 131 + b * 17) % 32_000
                };
                (key, b * 1_000 + i + 1)
            })
            .collect()
    };
    for (b, migration) in [
        Some(Op::Split(3)),
        Some(Op::Merge(1, 2)),
        None,
        Some(Op::Split(0)),
        Some(Op::Merge(0, 1)),
        Some(Op::Split(1)),
    ]
    .into_iter()
    .enumerate()
    {
        ops.push(Op::Batch(batch(b as u64)));
        if let Some(m) = migration {
            ops.push(m);
        }
    }
    ops
}

fn sweep_oracle(entries: &[(u64, u64)], ops: &[Op]) -> BTreeMap<u64, u64> {
    let mut model: BTreeMap<u64, u64> = entries.iter().copied().collect();
    for op in ops {
        if let Op::Batch(batch) = op {
            for &(k, v) in batch {
                model.insert(k, v);
            }
        }
    }
    model
}

fn run_sweep(engine: &ShardedPioEngine, ops: &[Op]) -> Result<(), usize> {
    for (i, op) in ops.iter().enumerate() {
        let outcome = match op {
            Op::Batch(batch) => engine.insert_batch(batch),
            Op::Split(s) => engine.split_shard(*s).map(|_| ()),
            Op::Merge(s, d) => engine.merge_shard(*s, *d).map(|_| ()),
        };
        if outcome.is_err() {
            return Err(i);
        }
    }
    Ok(())
}

/// After any crash — mid-batch, mid-migration, mid-commit — the recovered
/// engine's **tier-served** answers must equal the oracle: multi-search every
/// key the workload ever wrote and compare against the authoritative scan. A
/// tier snapshot surviving a boundary swap or rollback it should not have
/// would surface here as a missing or misrouted key.
#[test]
fn recovered_tier_never_serves_a_stale_boundary() {
    let (mut rng, seed) = seeded_rng();
    let cfg = config(true, true);
    let seeds: Vec<(u64, u64)> = (0..400u64).map(|k| (k * 80, k + 1)).collect();
    let ops = sweep_ops();

    // Profiling run: how many write submissions the clean workload makes.
    let clock = FaultClock::new();
    let engine = crashy_engine(&cfg, &seeds, &clock);
    let base = clock.writes_seen();
    run_sweep(&engine, &ops).expect("clean run must not fail");
    let total_writes = clock.writes_seen() - base;
    assert!(engine.stats().splits + engine.stats().merges >= 4, "sweep must migrate");
    assert!(
        engine.stats().rollup.inner_tier_hits > 0,
        "sweep must exercise the tier"
    );
    drop(engine);

    // Every key the workload can ever contain, probed through the tier path.
    let all_keys: Vec<u64> = sweep_oracle(&seeds, &ops).keys().copied().collect();

    const TRIALS: usize = 60;
    for trial in 0..TRIALS {
        let k = rng.gen_range(0u64..total_writes);
        let clock = FaultClock::new();
        let engine = crashy_engine(&cfg, &seeds, &clock);
        clock.arm(CrashPlan::at_write(clock.writes_seen() + k));
        let failed_at = run_sweep(&engine, &ops).expect_err(&format!(
            "seed {seed} trial {trial}: write {k}/{total_writes} must crash some op"
        ));
        clock.heal();
        engine.simulate_crash();
        engine
            .recover()
            .unwrap_or_else(|e| panic!("seed {seed} trial {trial} write {k}: recovery failed: {e}"));

        // The authoritative state (range scan) with/without the in-flight op.
        let got: BTreeMap<u64, u64> = engine.range_search(0, u64::MAX).unwrap().into_iter().collect();
        let without = sweep_oracle(&seeds, &ops[..failed_at]);
        let with = sweep_oracle(&seeds, &ops[..=failed_at]);
        assert!(
            got == without || got == with,
            "seed {seed} trial {trial} write {k}: key set diverged after crash in op {failed_at}"
        );
        // The tier-served point reads must agree with that state exactly.
        let answers = engine.multi_search(&all_keys).unwrap();
        for (&key, answer) in all_keys.iter().zip(&answers) {
            assert_eq!(
                *answer,
                got.get(&key).copied(),
                "seed {seed} trial {trial} write {k}: stale tier answer for key {key} after \
                 crash in op {failed_at}"
            );
        }
        engine
            .check_invariants()
            .unwrap_or_else(|e| panic!("seed {seed} trial {trial} write {k}: invariants violated: {e}"));
    }
}

/// A committed migration with no crash at all: the moment `split_shard` /
/// `merge_shard` return, tier-served reads must already see the new boundary.
#[test]
fn tier_reads_are_exact_immediately_after_committed_migrations() {
    let engine = EngineBuilder::new(config(true, true))
        .entries(&seed_entries())
        .build()
        .expect("bulk load");
    let mut model: BTreeMap<u64, u64> = seed_entries().into_iter().collect();
    let keys: Vec<u64> = model.keys().copied().collect();
    for round in 0..4u64 {
        let batch: Vec<(u64, u64)> = keys.iter().step_by(3).map(|&k| (k, k + round)).collect();
        engine.insert_batch(&batch).unwrap();
        for &(k, v) in &batch {
            model.insert(k, v);
        }
        match round % 2 {
            0 => drop(engine.split_shard(0).expect("split")),
            _ => drop(engine.merge_shard(1, 2).expect("merge")),
        }
        let answers = engine.multi_search(&keys).unwrap();
        for (&key, answer) in keys.iter().zip(&answers) {
            assert_eq!(*answer, model.get(&key).copied(), "round {round}, key {key}");
        }
    }
    assert!(engine.stats().rollup.inner_tier_hits > 0);
    engine.check_invariants().unwrap();
}

// --------------------------------------------------------- scan resistance --

/// The satellite guarantee at tree level: a hot point-lookup working set keeps
/// its leaf-cache hit rate while full-range scans stream every leaf of the
/// tree through the store.
#[test]
fn hot_working_set_keeps_its_hit_rate_under_streaming_scans() {
    let config = PioConfig {
        leaf_cache_pages: 16, // a handful of leaves — far smaller than the tree
        ..base_config(false)
    };
    let entries: Vec<(u64, u64)> = (0..8_000u64).map(|k| (k * 4, k + 1)).collect();
    let io: Arc<dyn IoQueue> = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 1 << 28));
    let store = Arc::new(CachedStore::new(
        PageStore::new(io, PAGE as usize),
        96,
        WritePolicy::WriteThrough,
    ));
    let mut tree = PioBTree::bulk_load(store, &entries, config).expect("bulk load");

    // A hot set inside a few adjacent leaves.
    let hot: Vec<u64> = (0..32u64).map(|k| k * 4).collect();
    for round in 0..30 {
        for &k in &hot {
            assert_eq!(tree.search(k).unwrap(), Some(k / 4 + 1));
        }
        if round % 3 == 0 {
            // The antagonist: a full-range scan touching every leaf.
            let n = tree.range_search(0, u64::MAX).unwrap().len();
            assert_eq!(n, entries.len());
        }
    }
    let stats = tree.store().leaf_cache_stats();
    assert!(stats.scan_bypasses > 0, "the scans must have streamed past the cache");
    assert!(
        stats.hit_ratio() >= 0.8,
        "hot working set lost its hit rate under scans: {:.3} ({stats:?})",
        stats.hit_ratio()
    );
    assert_eq!(
        stats.evictions, 0,
        "scans must not force evictions from a cache that fits the hot set"
    );
}
