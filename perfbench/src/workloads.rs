//! The three workloads: set-up, the timed drive, and the correctness checks
//! that run after it.

use crate::measure::{peak_rss_mib, Edge, Latencies, Op, Sample, StealSampler, StealTrace};
use crate::probe::{Device, PioSpan, Tracer};
use btree::{Key, Value};
use engine::{EngineBuilder, EngineConfig, ShardedPioEngine};
use pio_btree::PioConfig;
use service::{EngineService, ServiceError, ServiceHandle, ServiceStats};
use ssd_sim::DeviceProfile;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use workload::{
    run_closed_loop, ClientMix, ClosedLoopReport, ClosedLoopSpec, ErrorClass, KeyDistribution, KeyGenerator,
    ServiceTarget,
};

/// Entries bulk loaded before every workload.
pub const LOADED: u64 = 1_000_000;
const SHARDS: usize = 4;
/// Keys per `insert_batch` on `ingest-uniform`.
const INGEST_BATCH: usize = 256;
/// `ingest-uniform` draws keys from a space this many times the population.
const INGEST_SPREAD: u64 = 4;
/// `ingest-uniform` checkpoints once some log (a shard WAL or the epoch log)
/// has taken this share of its capacity in writes since the last checkpoint.
/// Without a maintenance worker nothing else truncates the logs, and a full
/// WAL fails every later write. Bytes written bound a log's growth from above,
/// so no log holds more than this share plus one call's records.
const CHECKPOINT_AT_LOG_FILL: f64 = 0.5;
/// Keys per `multi_search` on `lookup-scan-uncached`.
const LOOKUP_BATCH: usize = 64;
/// Keys each `range_search` of `lookup-scan-uncached` covers.
const RANGE_SPAN: u64 = 1000;
/// Closed-loop clients on `serve-zipf-cached`.
const CLIENTS: usize = 2;
/// Requests per client in the service warm-up round.
const WARM_OPS_PER_CLIENT: u64 = 1000;
/// Requests per client in one closed-loop round of `serve-zipf-cached`. The
/// timed window runs rounds until its time is up, so it lasts as long as it
/// is asked to however fast the host serves.
const ROUND_OPS_PER_CLIENT: u64 = 1000;
/// Bit of a put's value where `serve-zipf-cached` writes the round number,
/// above the closed loop's client (bits 32..48) and sequence number (0..32),
/// so every put of a run writes a distinct value.
const ROUND_SHIFT: u32 = 48;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeZipfCached,
    IngestUniform,
    LookupScanUncached,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        [Self::ServeZipfCached, Self::IngestUniform, Self::LookupScanUncached]
            .into_iter()
            .find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::ServeZipfCached => "serve-zipf-cached",
            Self::IngestUniform => "ingest-uniform",
            Self::LookupScanUncached => "lookup-scan-uncached",
        }
    }

    /// 4 shards on one P300-profile device, WAL on, no maintenance worker (OPQ
    /// flushes run inline), default admission knobs (64 requests / 200 µs).
    fn config(self) -> EngineConfig {
        let mut base = PioConfig::builder().wal(true);
        if self == Self::LookupScanUncached {
            // Room for the inner levels of every shard and nothing more.
            base = base.pool_pages(64);
        }
        let mut config = EngineConfig::builder()
            .shards(SHARDS)
            .profile(DeviceProfile::P300)
            .shard_capacity_bytes(1 << 30)
            .base(base.build());
        if self == Self::ServeZipfCached {
            // About 4× the loaded leaves and inner nodes: the data fits in cache.
            config = config.inner_tier_bytes(4 << 20).leaf_cache_bytes(96 << 20);
        }
        config.build()
    }

    /// Calls after which the [`Mark`] is taken. The tree grows under ingest,
    /// so a longer run costs more device time and space per key, and the
    /// allocator's footprint creeps with every call: read at a fixed call,
    /// the simulated clock, peak RSS and (on ingest) space cover the same
    /// work however fast the host runs it.
    fn mark_calls(self) -> u64 {
        match self {
            Self::ServeZipfCached => 65_536,
            Self::IngestUniform => 1_024,
            Self::LookupScanUncached => 8_192,
        }
    }

    fn key_space(self) -> u64 {
        match self {
            Self::IngestUniform => LOADED * INGEST_SPREAD,
            _ => LOADED,
        }
    }

    /// The bulk-load population: dense keys, or every `INGEST_SPREAD`-th key on
    /// `ingest-uniform`.
    pub fn entries(self) -> Vec<(Key, Value)> {
        KeyGenerator::bulk_keys(LOADED, self.key_space())
            .into_iter()
            .map(|k| (k, loaded_value(k)))
            .collect()
    }
}

/// The value bulk loaded for `key`.
pub fn loaded_value(key: Key) -> Value {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An engine on its device, bulk loaded and warmed.
pub struct Rig {
    pub engine: Arc<ShardedPioEngine>,
    pub device: Device,
    pub page_size: u64,
}

impl Rig {
    /// Set-up: bulk load plus cache warm-up.
    pub fn build(w: Workload, entries: &[(Key, Value)], tracer: Option<Arc<Tracer>>) -> Rig {
        let config = w.config();
        let page_size = config.base.page_size as u64;
        let device = Device::new(&config, tracer);
        let engine = EngineBuilder::new(config)
            .topology(device.backends())
            .entries(entries)
            .build()
            .expect("bulk load");
        let warm: Vec<Key> = match w {
            // Every leaf into the leaf cache, every inner node into the tier.
            Workload::ServeZipfCached => entries.iter().map(|e| e.0).collect(),
            // The inner levels into the pool.
            _ => entries.iter().step_by(entries.len() / 4096).map(|e| e.0).collect(),
        };
        for chunk in warm.chunks(1024) {
            engine.multi_search(chunk).expect("warm-up read");
        }
        Rig {
            engine: Arc::new(engine),
            device,
            page_size,
        }
    }

    pub fn edge(&self) -> Edge {
        Edge {
            stats: self.engine.stats(),
            device: self.device.counts(),
        }
    }
}

/// How long a drive lasts.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    /// Exactly this many client calls (per client on `serve-zipf-cached`).
    Calls(u64),
}

impl Budget {
    fn more(self, done: u64, started: Instant) -> bool {
        match self {
            Budget::Seconds(s) => started.elapsed().as_secs_f64() < s,
            Budget::Calls(n) => done < n,
        }
    }
}

/// A root span: one client call.
#[derive(Debug, Clone, Copy)]
pub struct CallSpan {
    pub id: u64,
    pub op: Op,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The outcome of one timed drive.
pub struct Drive {
    pub samples: Vec<Sample>,
    /// Steal share of the host's CPU time through the window.
    pub steal: StealTrace,
    pub mark: Mark,
    /// Client calls per [`Op`].
    pub calls: [u64; 3],
    /// Key operations: each key of a get or put batch, and each scan.
    pub key_ops: u64,
    /// Keys of acknowledged puts.
    pub put_keys: u64,
    pub failed: u64,
    pub wall: Duration,
    pub before: Edge,
    pub after: Edge,
    pub service: Option<ServiceStats>,
    /// Calls per client the drive made, to repeat it exactly.
    pub calls_per_client: u64,
    pub call_spans: Vec<CallSpan>,
    pub pio_spans: Vec<PioSpan>,
    /// Live entries where `space_amp` is read: at the mark on
    /// `ingest-uniform`, at the window's end elsewhere.
    pub live_entries: u64,
    /// The checkpoints `ingest-uniform` ran inside the window.
    pub checkpoints: Checkpoints,
    /// Correctness problems found after the window; empty when all is well.
    pub problems: Vec<String>,
}

/// Checkpoints inside a timed window and what they cost on both clocks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checkpoints {
    pub count: u64,
    pub wall: Duration,
    pub sim_us: f64,
}

impl Drive {
    pub fn attempted(&self) -> u64 {
        self.calls.iter().sum()
    }

    pub fn sim_us(&self) -> f64 {
        self.after.stats.scheduled_io_us - self.before.stats.scheduled_io_us
    }

    /// Store pages allocated and not freed where `space_amp` is read.
    pub fn store_pages(&self) -> u64 {
        self.mark.store_pages.unwrap_or_else(|| store_pages(&self.after.stats))
    }
}

fn store_pages(stats: &engine::EngineStats) -> u64 {
    stats.shards.iter().map(|s| s.store.allocated - s.store.freed).sum()
}

/// Runs workload `w` on `rig` for `budget`, then checks its outputs.
pub fn drive(w: Workload, rig: &Rig, entries: &[(Key, Value)], seed: u64, budget: Budget) -> Drive {
    match w {
        Workload::ServeZipfCached => serve(rig, seed, budget),
        Workload::IngestUniform => ingest(rig, entries, seed, budget),
        Workload::LookupScanUncached => lookup(rig, seed, budget),
    }
}

/// Records every client call of a timed window, and takes the [`Mark`] when
/// call `mark_at` returns.
struct Recorder {
    lat: Latencies,
    steal: StealSampler,
    spans: Option<(Arc<Tracer>, Mutex<Vec<CallSpan>>)>,
    engine: Arc<ShardedPioEngine>,
    mark_at: u64,
    /// Whether the mark counts store pages, which takes an `EngineStats`
    /// snapshot inside the window.
    space_at_mark: bool,
    done: AtomicU64,
    keys_done: AtomicU64,
    mark: Mutex<Option<Mark>>,
}

/// The engine and process a fixed number of calls into the window (see
/// [`Workload::mark_calls`]).
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// Calls returned when the mark was taken (fewer than asked for when the
    /// window ended first).
    pub calls: u64,
    pub key_ops: u64,
    pub scheduled_io_us: f64,
    pub peak_rss_mib: f64,
    /// Store pages allocated and not freed, over all shards, on
    /// `ingest-uniform` only.
    pub store_pages: Option<u64>,
}

impl Recorder {
    fn new(rig: &Rig, w: Workload) -> Self {
        let lat = Latencies::new();
        Self {
            steal: StealSampler::start(lat.origin()),
            lat,
            spans: rig
                .device
                .tracer
                .as_ref()
                .map(|t| (Arc::clone(t), Mutex::new(Vec::new()))),
            engine: Arc::clone(&rig.engine),
            mark_at: w.mark_calls(),
            space_at_mark: w == Workload::IngestUniform,
            done: AtomicU64::new(0),
            keys_done: AtomicU64::new(0),
            mark: Mutex::new(None),
        }
    }

    /// Times `call` as one client call of type `op` carrying `keys` keys.
    fn call<R, E>(&self, op: Op, keys: usize, call: impl FnOnce() -> Result<R, E>) -> Result<R, E> {
        let start_ns = self.spans.as_ref().map_or(0, |(t, _)| t.now_ns());
        let started = Instant::now();
        let result = call();
        let took = started.elapsed();
        self.lat.record(op, keys as u32, result.is_ok().then_some(took));
        if result.is_ok() {
            self.keys_done.fetch_add(keys as u64, Ordering::Relaxed);
        }
        let id = self.done.fetch_add(1, Ordering::Relaxed);
        if id + 1 == self.mark_at {
            self.take_mark();
        }
        if let Some((tracer, spans)) = &self.spans {
            let span = CallSpan {
                id,
                op,
                start_ns,
                end_ns: tracer.now_ns(),
            };
            spans.lock().expect("call spans poisoned").push(span);
        }
        result
    }

    fn take_mark(&self) {
        // Only the growing tree of `ingest-uniform` needs its space read at a
        // fixed call. That is the one `EngineStats` snapshot inside a window:
        // it locks each shard once, between two calls of the only client, and
        // the rebalancer counters it resets are unused here.
        let mark = Mark {
            calls: self.done.load(Ordering::Relaxed),
            key_ops: self.keys_done.load(Ordering::Relaxed),
            scheduled_io_us: self.engine.scheduled_io_us(),
            peak_rss_mib: peak_rss_mib(),
            store_pages: self.space_at_mark.then(|| store_pages(&self.engine.stats())),
        };
        *self.mark.lock().expect("mark poisoned") = Some(mark);
    }

    /// Ends the window: takes the mark now if the window ended before it.
    fn finish(self) -> (Vec<Sample>, StealTrace, Vec<CallSpan>, Mark) {
        if self.mark.lock().expect("mark poisoned").is_none() {
            self.take_mark();
        }
        let mark = self.mark.into_inner().expect("mark poisoned").expect("mark taken");
        let spans = self
            .spans
            .map_or_else(Vec::new, |(_, s)| s.into_inner().expect("call spans poisoned"));
        (self.lat.into_samples(), self.steal.finish(), spans, mark)
    }
}

fn drain_spans(rig: &Rig) -> Vec<PioSpan> {
    rig.device.tracer.as_ref().map_or_else(Vec::new, |t| t.drain())
}

/// Compares engine reads of `keys` against `expect`, noting mismatches.
fn check_reads(
    engine: &ShardedPioEngine,
    keys: &[Key],
    what: &str,
    problems: &mut Vec<String>,
    expect: impl Fn(Key, Option<Value>) -> bool,
) {
    for chunk in keys.chunks(4096) {
        match engine.multi_search(chunk) {
            Ok(values) => {
                let bad = chunk.iter().zip(&values).filter(|(k, v)| !expect(**k, **v)).count();
                if bad > 0 {
                    let (k, v) = chunk
                        .iter()
                        .zip(&values)
                        .find(|(k, v)| !expect(**k, **v))
                        .expect("counted");
                    problems.push(format!("{what}: {bad} wrong reads, e.g. key {k} -> {v:?}"));
                }
            }
            Err(e) => problems.push(format!("{what}: read failed: {e}")),
        }
    }
}

fn crash_and_recover(engine: &ShardedPioEngine, problems: &mut Vec<String>) {
    engine.simulate_crash();
    if let Err(e) = engine.recover() {
        problems.push(format!("recovery failed: {e}"));
    }
}

// ------------------------------------------------------------- ingest-uniform --

fn ingest_value(call: u64, slot: usize) -> Value {
    (1 << 63) | (call << 16) | slot as u64
}

fn ingest_batch(keys: &mut KeyGenerator, call: u64, batch: &mut Vec<(Key, Value)>) {
    batch.clear();
    batch.extend((0..INGEST_BATCH).map(|slot| (keys.next_key(), ingest_value(call, slot))));
}

fn ingest(rig: &Rig, entries: &[(Key, Value)], seed: u64, budget: Budget) -> Drive {
    let engine = &rig.engine;
    let space = Workload::IngestUniform.key_space();
    let mut keys = KeyGenerator::new(seed, space, KeyDistribution::Uniform);
    let mut batch = Vec::with_capacity(INGEST_BATCH);
    let mut failed_calls = Vec::new();
    let mut checkpoint_errors = Vec::new();
    let mut checkpoints = Checkpoints::default();
    let log_limit = (rig.device.log_capacity as f64 * CHECKPOINT_AT_LOG_FILL) as u64;
    let mut call = 0u64;
    drain_spans(rig);
    let before = rig.edge();
    let mut logged = rig.device.log_bytes_written();
    let rec = Recorder::new(rig, Workload::IngestUniform);
    let started = Instant::now();
    while budget.more(call, started) {
        ingest_batch(&mut keys, call, &mut batch);
        if rec.call(Op::Put, INGEST_BATCH, || engine.insert_batch(&batch)).is_err() {
            failed_calls.push(call);
        }
        call += 1;
        let now = rig.device.log_bytes_written();
        if now.iter().zip(&logged).any(|(n, l)| n - l >= log_limit) {
            let (wall_0, sim_0) = (Instant::now(), engine.scheduled_io_us());
            if let Err(e) = engine.checkpoint() {
                checkpoint_errors.push(format!("checkpoint after call {call}: {e}"));
            }
            checkpoints.count += 1;
            checkpoints.wall += wall_0.elapsed();
            checkpoints.sim_us += engine.scheduled_io_us() - sim_0;
            logged = rig.device.log_bytes_written();
        }
    }
    let wall = started.elapsed();
    let after = rig.edge();
    let (samples, steal, call_spans, mark) = rec.finish();
    let pio_spans = drain_spans(rig);

    // The oracle: replay the same inputs.
    let loaded: HashMap<Key, Value> = entries.iter().copied().collect();
    let mut last: HashMap<Key, Value> = HashMap::new();
    let mut unsure: HashSet<Key> = HashSet::new();
    let mut keys = KeyGenerator::new(seed, space, KeyDistribution::Uniform);
    let mut recent = Vec::new();
    let mut live_entries = LOADED;
    for c in 0..call {
        ingest_batch(&mut keys, c, &mut batch);
        let failed = failed_calls.contains(&c);
        for &(k, v) in &batch {
            if failed {
                unsure.insert(k);
            } else {
                last.insert(k, v);
            }
        }
        if c + 1 == mark.calls {
            live_entries += last.keys().filter(|k| !loaded.contains_key(k)).count() as u64;
        }
        if c + 16 >= call {
            recent.extend(batch.iter().map(|e| e.0));
        }
    }
    let expect = |k: Key, v: Option<Value>| unsure.contains(&k) || v == last.get(&k).or(loaded.get(&k)).copied();

    let mut problems = checkpoint_errors;
    check_reads(engine, &recent, "last-written sample", &mut problems, expect);
    crash_and_recover(engine, &mut problems);
    let mut written: Vec<Key> = last.keys().copied().collect();
    written.sort_unstable();
    check_reads(engine, &written, "acked puts after recovery", &mut problems, expect);
    let untouched: Vec<Key> = entries.iter().step_by(251).map(|e| e.0).collect();
    check_reads(
        engine,
        &untouched,
        "loaded sample after recovery",
        &mut problems,
        expect,
    );

    let acked = call - failed_calls.len() as u64;
    Drive {
        samples,
        steal,
        mark,
        calls: [0, call, 0],
        key_ops: acked * INGEST_BATCH as u64,
        put_keys: acked * INGEST_BATCH as u64,
        failed: failed_calls.len() as u64,
        wall,
        before,
        after,
        service: None,
        calls_per_client: call,
        call_spans,
        pio_spans,
        live_entries,
        checkpoints,
        problems,
    }
}

// ------------------------------------------------------- lookup-scan-uncached --

fn fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
}

enum LookupCall {
    Multi(Vec<Key>),
    Range(Key, Key),
}

/// Call `i` of the lookup stream: 7 of 8 are `multi_search`, 1 of 8 a
/// `range_search`.
fn lookup_call(keys: &mut KeyGenerator, i: u64) -> LookupCall {
    if i % 8 == 7 {
        let lo = keys.next_key().min(LOADED - RANGE_SPAN);
        LookupCall::Range(lo, lo + RANGE_SPAN)
    } else {
        LookupCall::Multi((0..LOOKUP_BATCH).map(|_| keys.next_key()).collect())
    }
}

fn lookup(rig: &Rig, seed: u64, budget: Budget) -> Drive {
    let engine = &rig.engine;
    let mut keys = KeyGenerator::new(seed, LOADED, KeyDistribution::Uniform);
    // One digest per call; the results are checked after the window.
    let mut digests: Vec<Option<u64>> = Vec::new();
    let mut calls = [0u64; 3];
    let mut key_ops = 0u64;
    let mut i = 0u64;
    drain_spans(rig);
    let before = rig.edge();
    let rec = Recorder::new(rig, Workload::LookupScanUncached);
    let started = Instant::now();
    while budget.more(i, started) {
        let digest = match lookup_call(&mut keys, i) {
            LookupCall::Multi(batch) => {
                calls[Op::Get as usize] += 1;
                let r = rec.call(Op::Get, batch.len(), || engine.multi_search(&batch));
                r.ok().map(|vs| {
                    key_ops += vs.len() as u64;
                    vs.iter().fold(0, |h, v| fold(h, v.map_or(0, |v| v ^ 1)))
                })
            }
            LookupCall::Range(lo, hi) => {
                calls[Op::Scan as usize] += 1;
                let r = rec.call(Op::Scan, 1, || engine.range_search(lo, hi));
                r.ok().map(|es| {
                    key_ops += 1;
                    es.iter().fold(0, |h, &(k, v)| fold(fold(h, k), v))
                })
            }
        };
        digests.push(digest);
        i += 1;
    }
    let wall = started.elapsed();
    let after = rig.edge();
    let (samples, steal, call_spans, mark) = rec.finish();
    let pio_spans = drain_spans(rig);

    let mut keys = KeyGenerator::new(seed, LOADED, KeyDistribution::Uniform);
    let mut wrong = 0u64;
    for (i, got) in digests.iter().enumerate() {
        let expect = match lookup_call(&mut keys, i as u64) {
            LookupCall::Multi(batch) => batch.iter().fold(0, |h, &k| fold(h, loaded_value(k) ^ 1)),
            LookupCall::Range(lo, hi) => (lo..hi).fold(0, |h, k| fold(fold(h, k), loaded_value(k))),
        };
        if got.is_some_and(|g| g != expect) {
            wrong += 1;
        }
    }
    let mut problems = Vec::new();
    if wrong > 0 {
        problems.push(format!("{wrong} of {i} lookup calls returned wrong results"));
    }
    let failed = digests.iter().filter(|d| d.is_none()).count() as u64;
    Drive {
        samples,
        steal,
        mark,
        calls,
        key_ops,
        put_keys: 0,
        failed,
        wall,
        before,
        after,
        service: None,
        calls_per_client: i,
        call_spans,
        pio_spans,
        live_entries: LOADED,
        checkpoints: Checkpoints::default(),
        problems,
    }
}

// ---------------------------------------------------------- serve-zipf-cached --

/// A put as a client issued it, in the client's program order.
#[derive(Debug, Clone, Copy)]
struct PutRecord {
    key: Key,
    value: Value,
    acked: bool,
}

/// The closed-loop clients' view of the service: times every call and keeps
/// what the checks after the window need.
struct Client<'a> {
    handle: ServiceHandle,
    /// The closed-loop round, written into every put's value.
    round: u64,
    /// Times the calls of the timed window (`None` during the warm-up).
    rec: Option<&'a Recorder>,
    puts: &'a Mutex<Vec<PutRecord>>,
    /// Reads that did not return the loaded value, to check against the puts.
    odd_reads: &'a Mutex<Vec<(Key, Value)>>,
    problems: &'a Mutex<Vec<String>>,
}

impl Client<'_> {
    fn timed<R>(&self, op: Op, call: impl FnOnce() -> Result<R, ServiceError>) -> Result<R, ServiceError> {
        match self.rec {
            Some(rec) => rec.call(op, 1, call),
            None => call(),
        }
    }
}

impl ServiceTarget for Client<'_> {
    type Error = ServiceError;

    fn get(&self, key: u64) -> Result<Option<u64>, ServiceError> {
        let value = self.timed(Op::Get, || self.handle.get(key))?.value();
        match value {
            Some(v) if v == loaded_value(key) => {}
            Some(v) => self.odd_reads.lock().expect("odd reads poisoned").push((key, v)),
            None => self
                .problems
                .lock()
                .expect("problems poisoned")
                .push(format!("get {key}: missing")),
        }
        Ok(value)
    }

    fn put(&self, key: u64, value: u64) -> Result<(), ServiceError> {
        let value = value | self.round << ROUND_SHIFT;
        let result = self.timed(Op::Put, || self.handle.put(key, value));
        let record = PutRecord {
            key,
            value,
            acked: result.is_ok(),
        };
        self.puts.lock().expect("put log poisoned").push(record);
        result.map(|_| ())
    }

    fn scan(&self, lo: u64, hi: u64) -> Result<usize, ServiceError> {
        let response = self.timed(Op::Scan, || self.handle.scan(lo, hi))?;
        let entries = response.entries();
        let want = hi.min(LOADED).saturating_sub(lo) as usize;
        if entries.len() != want || entries.iter().zip(lo..).any(|(e, k)| e.0 != k) {
            let msg = format!("scan [{lo}, {hi}): {} entries, want {want}", entries.len());
            self.problems.lock().expect("problems poisoned").push(msg);
        }
        let mut odd = self.odd_reads.lock().expect("odd reads poisoned");
        odd.extend(entries.iter().filter(|e| e.1 != loaded_value(e.0)));
        Ok(entries.len())
    }

    fn classify(&self, error: &ServiceError) -> ErrorClass {
        ServiceTarget::classify(&self.handle, error)
    }
}

/// Adds one round's tallies to the window's.
fn add_report(total: &mut ClosedLoopReport, r: &ClosedLoopReport) {
    total.gets += r.gets;
    total.get_hits += r.get_hits;
    total.puts += r.puts;
    total.scans += r.scans;
    total.scanned_entries += r.scanned_entries;
    total.get_errors += r.get_errors;
    total.put_errors += r.put_errors;
    total.scan_errors += r.scan_errors;
    total.timeouts += r.timeouts;
    total.overloads += r.overloads;
    total.wall += r.wall;
}

fn closed_loop_spec(seed: u64, ops_per_client: u64) -> ClosedLoopSpec {
    ClosedLoopSpec {
        clients: CLIENTS,
        ops_per_client: ops_per_client as usize,
        think_time: Duration::ZERO,
        key_space: LOADED,
        distribution: KeyDistribution::Zipfian { theta: 0.99 },
        mix: ClientMix::read_heavy(),
        seed,
    }
}

fn serve(rig: &Rig, seed: u64, budget: Budget) -> Drive {
    let engine = &rig.engine;
    let puts = Mutex::new(Vec::new());
    let odd_reads = Mutex::new(Vec::new());
    let problems = Mutex::new(Vec::new());
    let client = |handle, round, rec| Client {
        handle,
        round,
        rec,
        puts: &puts,
        odd_reads: &odd_reads,
        problems: &problems,
    };

    // Warm-up round (round 0) on a service of its own: warms the request path.
    let warm = EngineService::start(Arc::clone(engine));
    let warm_report = run_closed_loop(
        &client(warm.handle(), 0, None),
        &closed_loop_spec(seed ^ 0x3A3A, WARM_OPS_PER_CLIENT),
    );
    warm.shutdown();

    let service = EngineService::start(Arc::clone(engine));
    drain_spans(rig);
    let before = rig.edge();
    let rec = Recorder::new(rig, Workload::ServeZipfCached);
    let mut report = warm_report.map(|_| ClosedLoopReport::default());
    let mut rounds = 0u64;
    let started = Instant::now();
    while let Ok(total) = &mut report {
        if !budget.more(rounds * ROUND_OPS_PER_CLIENT, started) {
            break;
        }
        rounds += 1;
        let spec = closed_loop_spec(seed.wrapping_add(rounds << 20), ROUND_OPS_PER_CLIENT);
        match run_closed_loop(&client(service.handle(), rounds, Some(&rec)), &spec) {
            Ok(r) => add_report(total, &r),
            Err(e) => report = Err(e),
        }
    }
    let wall = started.elapsed();
    let after = rig.edge();
    let (samples, steal, call_spans, mark) = rec.finish();
    let pio_spans = drain_spans(rig);
    let service_stats = service.shutdown();
    let per_client = rounds * ROUND_OPS_PER_CLIENT;

    let mut problems = problems.into_inner().expect("problems poisoned");
    let (failed, calls) = match &report {
        Ok(r) => (
            r.total_errors(),
            [r.gets + r.get_errors, r.puts + r.put_errors, r.scans + r.scan_errors],
        ),
        Err(e) => {
            problems.push(format!("closed loop aborted: {e}"));
            let n = (per_client * CLIENTS as u64).max(1);
            (n, [n, 0, 0])
        }
    };
    let acked_puts = report.as_ref().map_or(0, |r| r.puts);

    // Every value a read returned must be the loaded one or one some client put.
    let puts = puts.into_inner().expect("put log poisoned");
    let mut put_values: HashMap<Key, HashSet<Value>> = HashMap::new();
    for p in &puts {
        put_values.entry(p.key).or_default().insert(p.value);
    }
    let odd_reads = odd_reads.into_inner().expect("odd reads poisoned");
    let foreign = odd_reads
        .iter()
        .filter(|(k, v)| !put_values.get(k).is_some_and(|s| s.contains(v)))
        .count();
    if foreign > 0 {
        problems.push(format!("{foreign} reads returned a value nobody wrote"));
    }

    // After a crash, each written key holds the last acked put to it of some
    // client in the last round that wrote it (the clients of a round race).
    let mut last: HashMap<Key, (u64, HashMap<u64, Value>)> = HashMap::new();
    for p in puts.iter().filter(|p| p.acked) {
        let (round, client) = (
            p.value >> ROUND_SHIFT,
            (p.value >> 32) & ((1 << (ROUND_SHIFT - 32)) - 1),
        );
        let (latest, by_client) = last.entry(p.key).or_default();
        if round > *latest {
            *latest = round;
            by_client.clear();
        }
        by_client.insert(client, p.value);
    }
    crash_and_recover(engine, &mut problems);
    let mut written: Vec<Key> = last.keys().copied().collect();
    written.sort_unstable();
    let expect = |k: Key, v: Option<Value>| match last.get(&k) {
        Some((_, by_client)) => v.is_some_and(|v| by_client.values().any(|&w| w == v)),
        None => v == Some(loaded_value(k)),
    };
    check_reads(engine, &written, "acked puts after recovery", &mut problems, expect);
    let untouched: Vec<Key> = (0..LOADED)
        .step_by(251)
        .filter(|k| !put_values.contains_key(k))
        .collect();
    check_reads(
        engine,
        &untouched,
        "loaded sample after recovery",
        &mut problems,
        expect,
    );

    let answered = calls.iter().sum::<u64>() - failed;
    Drive {
        samples,
        steal,
        mark,
        calls,
        key_ops: answered,
        put_keys: acked_puts,
        failed,
        wall,
        before,
        after,
        service: Some(service_stats),
        calls_per_client: per_client,
        call_spans,
        pio_spans,
        live_entries: LOADED,
        checkpoints: Checkpoints::default(),
        problems,
    }
}
