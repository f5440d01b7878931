//! Concurrent histories of the sharded engine's fan-out paths, checked call by
//! call rather than only by final state.
//!
//! Writer threads issue `insert_batch` calls while reader threads issue
//! `multi_search` and `range_search` calls over a 4-shard engine whose
//! maintenance worker runs its own fan-outs in between. Every tracked key has
//! exactly one writer, which writes strictly increasing versions, so the
//! single-writer linearizability condition reduces to bounds per read: the
//! value a read returns must be at least the newest version whose write
//! *returned* before the read was *invoked*, and at most the newest version
//! whose write was *invoked* before the read *returned*.
//!
//! The operation mix comes from `CRASH_SEED` (fixed default otherwise) and
//! every failure message carries the seed for replay.

mod common;

use common::crash::seeded_rng;
use engine::{EngineConfig, ShardedPioEngine};
use pio_btree::PioConfig;
use rand::{rngs::StdRng, Rng, SeedableRng};
use ssd_sim::DeviceProfile;
use std::collections::BTreeMap;
use std::time::Instant;

const POPULATION: u64 = 20_000;
/// Every `TRACK_EVERY`-th key of the population is tracked (versioned).
const TRACK_EVERY: u64 = 200;
const WRITERS: usize = 2;
const READERS: usize = 2;
const WRITE_CALLS: usize = 120;
const READ_CALLS: usize = 150;

fn config() -> EngineConfig {
    let mut config = EngineConfig::builder()
        .shards(4)
        .profile(DeviceProfile::P300)
        .shard_capacity_bytes(1 << 30)
        .base(
            PioConfig::builder()
                .page_size(2048)
                .leaf_segments(2)
                .opq_pages(1)
                .pio_max(16)
                .speriod(32)
                .bcnt(64)
                .pool_pages(256)
                .build(),
        )
        .build();
    config.flush_threshold = 0.25;
    config.maintenance_interval_ms = Some(1);
    config
}

/// Population keys are even; tracked keys start at version 0, the untracked
/// rest hold a fixed value that no call changes.
fn key(i: u64) -> u64 {
    i * 2
}

fn filler_value(key: u64) -> u64 {
    1_000_000 + key
}

fn tracked_keys() -> Vec<u64> {
    (0..POPULATION).step_by(TRACK_EVERY as usize).map(key).collect()
}

/// One versioned write of one key, with its call's invoke/response instants.
struct Write {
    version: u64,
    invoked: Instant,
    returned: Instant,
}

/// One tracked key as observed by one read call.
struct Observation {
    key: u64,
    value: Option<u64>,
    invoked: Instant,
    returned: Instant,
    call: String,
}

fn writer(engine: &ShardedPioEngine, keys: Vec<u64>, mut rng: StdRng, seed: u64) -> BTreeMap<u64, Vec<Write>> {
    let mut versions: BTreeMap<u64, u64> = keys.iter().map(|&k| (k, 0)).collect();
    let mut history: BTreeMap<u64, Vec<Write>> = BTreeMap::new();
    for _ in 0..WRITE_CALLS {
        let picks = rng.gen_range(1..keys.len().min(16) + 1);
        let mut batch: BTreeMap<u64, u64> = BTreeMap::new();
        for _ in 0..picks {
            let k = keys[rng.gen_range(0..keys.len())];
            if let std::collections::btree_map::Entry::Vacant(slot) = batch.entry(k) {
                let version = versions
                    .get_mut(&k)
                    .unwrap_or_else(|| panic!("seed {seed}: key {k} has no writer"));
                *version += 1;
                slot.insert(*version);
            }
        }
        let entries: Vec<(u64, u64)> = batch.into_iter().collect();
        let invoked = Instant::now();
        engine
            .insert_batch(&entries)
            .unwrap_or_else(|e| panic!("seed {seed}: insert_batch: {e}"));
        let returned = Instant::now();
        for (k, version) in entries {
            history.entry(k).or_default().push(Write {
                version,
                invoked,
                returned,
            });
        }
    }
    history
}

fn reader(engine: &ShardedPioEngine, tracked: &[u64], mut rng: StdRng, seed: u64) -> Vec<Observation> {
    let mut seen = Vec::new();
    for call in 0..READ_CALLS {
        if rng.gen_bool(0.7) {
            let probes: Vec<u64> = (0..rng.gen_range(1..25usize))
                .map(|_| tracked[rng.gen_range(0..tracked.len())])
                .collect();
            let invoked = Instant::now();
            let got = engine
                .multi_search(&probes)
                .unwrap_or_else(|e| panic!("seed {seed}: multi_search call {call}: {e}"));
            let returned = Instant::now();
            assert_eq!(got.len(), probes.len(), "seed {seed}: multi_search answer count");
            for (&key, value) in probes.iter().zip(got) {
                seen.push(Observation {
                    key,
                    value,
                    invoked,
                    returned,
                    call: format!("multi_search call {call}"),
                });
            }
        } else {
            let lo = rng.gen_range(0..key(POPULATION));
            let hi = lo + rng.gen_range(1..4_000);
            let invoked = Instant::now();
            let got = engine
                .range_search(lo, hi)
                .unwrap_or_else(|e| panic!("seed {seed}: range_search [{lo}, {hi}) call {call}: {e}"));
            let returned = Instant::now();
            let what = format!("range_search [{lo}, {hi}) call {call}");
            assert!(
                got.windows(2).all(|w| w[0].0 < w[1].0),
                "seed {seed}: {what} is not sorted"
            );
            let got: BTreeMap<u64, u64> = got.into_iter().collect();
            let expected_keys: Vec<u64> = (0..POPULATION).map(key).filter(|k| (lo..hi).contains(k)).collect();
            assert_eq!(
                got.keys().copied().collect::<Vec<_>>(),
                expected_keys,
                "seed {seed}: {what} returned the wrong key set"
            );
            for (&k, &v) in &got {
                if k % (2 * TRACK_EVERY) != 0 {
                    assert_eq!(v, filler_value(k), "seed {seed}: {what} changed untracked key {k}");
                }
            }
            for &key in tracked.iter().filter(|k| (lo..hi).contains(*k)) {
                seen.push(Observation {
                    key,
                    value: got.get(&key).copied(),
                    invoked,
                    returned,
                    call: what.clone(),
                });
            }
        }
    }
    seen
}

#[test]
fn single_writer_histories_are_linearizable_across_fan_outs() {
    let (mut rng, seed) = seeded_rng();
    let tracked = tracked_keys();
    let entries: Vec<(u64, u64)> = (0..POPULATION)
        .map(key)
        .map(|k| (k, if k % (2 * TRACK_EVERY) == 0 { 0 } else { filler_value(k) }))
        .collect();
    let engine =
        ShardedPioEngine::bulk_load(config(), &entries).unwrap_or_else(|e| panic!("seed {seed}: bulk load: {e}"));
    let writer_seeds: Vec<u64> = (0..WRITERS).map(|_| rng.gen()).collect();
    let reader_seeds: Vec<u64> = (0..READERS).map(|_| rng.gen()).collect();

    let (writes, reads) = std::thread::scope(|scope| {
        let writers: Vec<_> = writer_seeds
            .iter()
            .enumerate()
            .map(|(w, &s)| {
                let own: Vec<u64> = tracked.iter().copied().skip(w).step_by(WRITERS).collect();
                let engine = &engine;
                scope.spawn(move || writer(engine, own, StdRng::seed_from_u64(s), seed))
            })
            .collect();
        let readers: Vec<_> = reader_seeds
            .iter()
            .map(|&s| {
                let (engine, tracked) = (&engine, &tracked);
                scope.spawn(move || reader(engine, tracked, StdRng::seed_from_u64(s), seed))
            })
            .collect();
        let mut writes: BTreeMap<u64, Vec<Write>> = BTreeMap::new();
        for handle in writers {
            writes.extend(
                handle
                    .join()
                    .unwrap_or_else(|_| panic!("seed {seed}: a writer thread panicked")),
            );
        }
        let reads: Vec<Observation> = readers
            .into_iter()
            .flat_map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|_| panic!("seed {seed}: a reader thread panicked"))
            })
            .collect();
        (writes, reads)
    });

    let newest = |key: u64, counts: &dyn Fn(&Write) -> bool| -> u64 {
        writes
            .get(&key)
            .into_iter()
            .flatten()
            .filter(|w| counts(w))
            .map(|w| w.version)
            .max()
            .unwrap_or(0)
    };
    assert!(!reads.is_empty(), "seed {seed}: the readers observed nothing");
    for read in &reads {
        let Some(value) = read.value else {
            panic!("seed {seed}: {} lost tracked key {}", read.call, read.key);
        };
        let floor = newest(read.key, &|w| w.returned < read.invoked);
        let ceiling = newest(read.key, &|w| w.invoked < read.returned);
        assert!(
            (floor..=ceiling).contains(&value),
            "seed {seed}: {} read key {} = version {value}, outside [{floor}, {ceiling}]",
            read.call,
            read.key
        );
    }

    // Quiescent final state: every key holds its writer's last version.
    let finals = engine
        .multi_search(&tracked)
        .unwrap_or_else(|e| panic!("seed {seed}: final multi_search: {e}"));
    for (&key, value) in tracked.iter().zip(finals) {
        let last = newest(key, &|_| true);
        assert_eq!(value, Some(last), "seed {seed}: final value of key {key}");
    }
    engine
        .check_invariants()
        .unwrap_or_else(|e| panic!("seed {seed}: invariants: {e}"));
    assert!(
        engine.stats().rollup.inserts > 0,
        "seed {seed}: the writers never reached the shards"
    );
}
