//! Integration: the sharded PIO engine — routing correctness (every key lands in
//! exactly one shard, cross-shard range search stitches results in key order) and a
//! multi-threaded smoke test hammering the engine from concurrent clients.

use engine::{boundaries_from_sample, EngineConfig, ShardedPioEngine};
use pio_btree::PioConfig;
use ssd_sim::DeviceProfile;
use std::collections::BTreeMap;
use std::sync::Arc;

fn config(shards: usize) -> EngineConfig {
    EngineConfig::builder()
        .shards(shards)
        .profile(DeviceProfile::P300)
        .shard_capacity_bytes(2 << 30)
        .base(
            PioConfig::builder()
                .page_size(2048)
                .leaf_segments(2)
                .opq_pages(2)
                .pio_max(32)
                .speriod(64)
                .bcnt(256)
                .pool_pages(512)
                .build(),
        )
        .build()
}

/// Every key is owned by exactly one shard: the router's shard choice agrees with
/// the boundary arithmetic, and after a checkpoint each key is physically present
/// in its owning shard and in no other (shard key ranges are disjoint).
#[test]
fn every_key_lands_in_exactly_one_shard() {
    let sample: Vec<u64> = (0..50_000u64).map(|i| i * 17).collect();
    let engine = ShardedPioEngine::create(config(4), &sample).unwrap();
    let bounds = engine.boundaries().to_vec();
    assert_eq!(bounds.len(), 3);
    assert!(
        bounds.windows(2).all(|w| w[0] < w[1]),
        "bounds must be strictly increasing"
    );

    // Probe keys all over the space, including the exact boundary keys.
    let mut probes: Vec<u64> = (0..2_000u64).map(|i| i * 425_171 % 850_000).collect();
    probes.extend(bounds.iter().flat_map(|&b| [b - 1, b, b + 1]));
    probes.extend([0, u64::MAX]);
    for &key in &probes {
        // Routing invariant: the chosen shard's range contains the key, and the
        // ranges tile the space, so membership in any other shard is impossible.
        let owner = engine.shard_for(key);
        let lo = if owner == 0 { 0 } else { bounds[owner - 1] };
        let hi = bounds.get(owner).copied().unwrap_or(u64::MAX);
        assert!(key >= lo, "key {key} below shard {owner} range");
        assert!(
            key < hi || (owner == 3 && key == u64::MAX),
            "key {key} above shard {owner} range"
        );
        let owners = (0..4)
            .filter(|&s| {
                let s_lo = if s == 0 { 0 } else { bounds[s - 1] };
                let s_hi = bounds.get(s).copied().unwrap_or(u64::MAX);
                key >= s_lo && (key < s_hi || (s == 3 && key == u64::MAX))
            })
            .count();
        assert_eq!(owners, 1, "key {key} owned by {owners} shards");
    }

    // Physical check: insert, flush, and ask each shard for its population — the
    // per-shard range scans must tile the inserted set exactly.
    for &key in &probes {
        engine.insert(key, key.wrapping_mul(3)).unwrap();
    }
    engine.checkpoint().unwrap();
    let unique: BTreeMap<u64, u64> = probes.iter().map(|&k| (k, k.wrapping_mul(3))).collect();
    // u64::MAX is outside the [0, MAX) scan window; account for it separately.
    let scanned = engine.range_search(0, u64::MAX).unwrap();
    assert_eq!(
        scanned.len() + 1,
        unique.len(),
        "full scan plus MAX must equal the population"
    );
    assert_eq!(engine.search(u64::MAX).unwrap(), Some(u64::MAX.wrapping_mul(3)));
    assert_eq!(
        engine.count_entries().unwrap(),
        unique.len() as u64,
        "count_entries must include Key::MAX"
    );
    let per_shard_total: u64 = engine.stats().shards.iter().map(|s| s.pio.inserts).sum();
    assert_eq!(
        per_shard_total,
        probes.len() as u64,
        "every insert routed to exactly one shard"
    );
    engine.check_invariants().unwrap();
}

/// Cross-shard range search returns exactly the model's contents, in key order,
/// for ranges that start, end, and straddle shard boundaries.
#[test]
fn cross_shard_range_search_stitches_in_key_order() {
    let entries: Vec<(u64, u64)> = (0..30_000u64).map(|k| (k * 3, k)).collect();
    let engine = ShardedPioEngine::bulk_load(config(4), &entries).unwrap();
    let model: BTreeMap<u64, u64> = entries.iter().copied().collect();
    let bounds = engine.boundaries().to_vec();

    let mut ranges: Vec<(u64, u64)> = vec![
        (0, 90_000),            // whole population
        (100, 101),             // sub-shard sliver
        (0, bounds[0]),         // exactly the first shard
        (bounds[0], bounds[2]), // exactly the middle two shards
    ];
    for &b in &bounds {
        ranges.push((b.saturating_sub(500), b + 500)); // straddling each boundary
    }
    for (lo, hi) in ranges {
        let got = engine.range_search(lo, hi).unwrap();
        let expected: Vec<(u64, u64)> = model.range(lo..hi).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, expected, "range [{lo}, {hi})");
        assert!(
            got.windows(2).all(|w| w[0].0 < w[1].0),
            "range [{lo}, {hi}) must be sorted"
        );
    }

    // Queued (unflushed) operations must be visible through cross-shard ranges too.
    engine.insert(bounds[1] - 1, 111).unwrap();
    engine.insert(bounds[1], 222).unwrap();
    let straddle = engine.range_search(bounds[1] - 2, bounds[1] + 2).unwrap();
    assert!(straddle.iter().any(|&(k, v)| k == bounds[1] - 1 && v == 111));
    assert!(straddle.iter().any(|&(k, v)| k == bounds[1] && v == 222));
}

/// Boundary selection balances a *skewed* sample: quantile cuts put comparable
/// entry counts in every shard even when keys cluster at the bottom of the space.
#[test]
fn skewed_samples_still_load_balanced_shards() {
    // 90% of keys in [0, 10k), 10% spread to 1M.
    let mut keys: Vec<u64> = (0..9_000u64).collect();
    keys.extend((0..1_000u64).map(|i| 10_000 + i * 990));
    keys.sort_unstable();
    keys.dedup();
    let entries: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
    let engine = ShardedPioEngine::bulk_load(config(4), &entries).unwrap();
    let n = entries.len();
    for snap in &engine.stats().shards {
        let mine = entries
            .iter()
            .filter(|&&(k, _)| k >= snap.key_lo && k < snap.key_hi)
            .count();
        assert!(
            mine >= n / 8 && mine <= n / 2,
            "shard {} holds {mine} of {n} entries — boundaries did not adapt to the skew",
            snap.shard
        );
    }
}

/// Concurrent smoke test: ≥4 client threads hammer the engine with disjoint and
/// overlapping key ranges; everything written must be readable afterwards and the
/// shard invariants must hold.
#[test]
fn concurrent_clients_hammer_the_engine() {
    let sample: Vec<u64> = (0..80_000u64).collect();
    let engine = Arc::new(ShardedPioEngine::create(config(4), &sample).unwrap());

    let threads = 6u64;
    let per_thread = 400u64;
    let mut handles = Vec::new();
    for t in 0..threads {
        let engine = Arc::clone(&engine);
        handles.push(std::thread::spawn(move || {
            for i in 0..per_thread {
                // Disjoint writes per thread, spread across every shard.
                let key = (i * 200 + t) % 80_000;
                engine.insert(key, t * 1_000_000 + i).unwrap();
                if i % 7 == 0 {
                    // Reads mixed in, including cross-shard batches.
                    let probe: Vec<u64> = (0..8).map(|j| (i + j * 9_973) % 80_000).collect();
                    engine.multi_search(&probe).unwrap();
                }
                if i % 31 == 0 {
                    engine.range_search(i * 100, i * 100 + 500).unwrap();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    engine.checkpoint().unwrap();

    // Every thread's writes survive (threads write disjoint keys).
    for t in 0..threads {
        for i in (0..per_thread).step_by(41) {
            let key = (i * 200 + t) % 80_000;
            assert_eq!(
                engine.search(key).unwrap(),
                Some(t * 1_000_000 + i),
                "thread {t} op {i}"
            );
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.rollup.inserts, threads * per_thread);
    assert!(stats.scheduled_io_us <= stats.total_io_us + 1e-9);
    engine.check_invariants().unwrap();
}

/// Persistent-worker hammer: many client threads issue *interleaved batched
/// calls* (whose tasks all flow through the per-shard workers) while the
/// background maintenance sweeper runs its own fan-outs
/// concurrently. Every fan-out's results must come back keyed by shard index —
/// i.e. `multi_search` answers in caller order — no matter which shard's worker
/// finishes first, and the engine must dispatch every batched call to the
/// shard workers rather than spawning threads.
#[test]
fn scheduler_hammer_with_interleaved_batched_calls() {
    let mut cfg = config(4);
    cfg.flush_threshold = 0.25;
    cfg.maintenance_interval_ms = Some(1); // maintenance fan-outs interleave too
    let entries: Vec<(u64, u64)> = (0..40_000u64).map(|k| (k * 2, k)).collect();
    let engine = Arc::new(ShardedPioEngine::bulk_load(cfg, &entries).unwrap());

    let threads = 6u64;
    let rounds = 60u64;
    let mut handles = Vec::new();
    for t in 0..threads {
        let engine = Arc::clone(&engine);
        handles.push(std::thread::spawn(move || {
            for r in 0..rounds {
                // Cross-shard batches: every call fans out to all four shards.
                let probe: Vec<u64> = (0..64u64).map(|j| (t * 13 + r * 97 + j * 1_251) % 80_000).collect();
                let got = engine.multi_search(&probe).unwrap();
                for (key, verdict) in probe.iter().zip(&got) {
                    let expected = (key % 2 == 0 && *key < 80_000).then_some(key / 2);
                    // Updated keys are odd (see below), so only even probes assert.
                    if key % 2 == 0 {
                        assert_eq!(*verdict, expected, "thread {t} round {r} key {key}");
                    }
                }
                let batch: Vec<(u64, u64)> = (0..32u64)
                    .map(|j| (80_001 + ((t * rounds + r) * 32 + j) * 2, t))
                    .collect();
                engine.insert_batch(&batch).unwrap();
                if r % 9 == 0 {
                    let lo = (r * 613) % 70_000;
                    let hits = engine.range_search(lo, lo + 256).unwrap();
                    assert!(hits.windows(2).all(|w| w[0].0 < w[1].0), "range must stay sorted");
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    engine.checkpoint().unwrap();

    let stats = engine.stats();
    // Every batched call above went through the persistent shard workers.
    assert!(
        stats.scheduled_batches >= threads * rounds * 2,
        "batched calls must be dispatched to the shard workers ({} fan-outs)",
        stats.scheduled_batches
    );
    assert_eq!(stats.rollup.inserts, threads * rounds * 32);
    assert!(stats.scheduled_io_us <= stats.total_io_us + 1e-9);
    engine.check_invariants().unwrap();
}

/// The boundary chooser used by the engine is deterministic and total: any sample,
/// any shard count, strictly increasing output of the right length.
#[test]
fn boundary_chooser_is_total() {
    for shards in 1..=9usize {
        for sample in [
            vec![],
            vec![0],
            vec![5; 100],
            vec![u64::MAX],
            vec![u64::MAX - 1, u64::MAX],
            (u64::MAX - 10..=u64::MAX).collect::<Vec<_>>(),
            (0..3u64).collect::<Vec<_>>(),
            (0..10_000u64).map(|i| i * i).collect::<Vec<_>>(),
        ] {
            let bounds = boundaries_from_sample(&sample, shards);
            assert_eq!(
                bounds.len(),
                shards.saturating_sub(1),
                "shards={shards} sample={sample:?}"
            );
            assert!(
                bounds.windows(2).all(|w| w[0] < w[1]),
                "shards={shards} sample={sample:?}"
            );
        }
    }

    // The end-to-end path that used to panic: creating an engine whose boundary
    // sample clusters at the very top of the key space.
    let engine = ShardedPioEngine::create(config(4), &[u64::MAX]).unwrap();
    engine.insert(u64::MAX, 7).unwrap();
    engine.insert(0, 9).unwrap();
    assert_eq!(engine.search(u64::MAX).unwrap(), Some(7));
    assert_eq!(engine.search(0).unwrap(), Some(9));
}
