//! Client-side latency accounting, window-edge snapshots and the report the
//! benchmark prints.

use crate::probe::DeviceCounts;
use engine::EngineStats;
use service::{HistogramSnapshot, LatencyHistogram};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where a failed or refused call is recorded: above any latency limit, so it
/// counts against every percentile instead of being dropped.
pub const FAILED_US: u64 = 1 << 40;

/// A client call's type. On the engine-direct workloads a get is one
/// `multi_search`, a put one `insert_batch` and a scan one `range_search`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get,
    Put,
    Scan,
}

impl Op {
    pub const ALL: [Op; 3] = [Op::Get, Op::Put, Op::Scan];

    pub fn name(self) -> &'static str {
        match self {
            Op::Get => "get",
            Op::Put => "put",
            Op::Scan => "scan",
        }
    }
}

/// One client call, timed on the calling thread.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub op: Op,
    /// Keys the call carried (one for a scan).
    pub keys: u32,
    /// When the call returned, µs since the window began.
    pub end_us: u64,
    /// Wall latency, µs, or [`FAILED_US`] for a failed or refused call.
    pub took_us: u64,
}

/// Every client call of the timed window, kept in memory and summarised after
/// it.
pub struct Latencies {
    origin: Instant,
    samples: Mutex<Vec<Sample>>,
}

impl Latencies {
    /// Starts the window's clock.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            samples: Mutex::new(Vec::new()),
        }
    }

    /// Records one call; `None` marks a failed or refused call.
    pub fn record(&self, op: Op, keys: u32, took: Option<Duration>) {
        let sample = Sample {
            op,
            keys,
            end_us: self.origin.elapsed().as_micros() as u64,
            took_us: took.map_or(FAILED_US, |d| d.as_micros() as u64),
        };
        self.samples.lock().expect("samples poisoned").push(sample);
    }

    /// When the window began.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn into_samples(self) -> Vec<Sample> {
        self.samples.into_inner().expect("samples poisoned")
    }
}

/// Latency histogram of `samples`.
pub fn histogram<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> HistogramSnapshot {
    let h = LatencyHistogram::new();
    for s in samples {
        h.record(s.took_us);
    }
    h.snapshot()
}

/// Splits the window `[0, window_us)` into `k` equal slices by call end time.
pub fn slices(samples: &[Sample], k: usize, window_us: u64) -> Vec<Vec<Sample>> {
    let mut out = vec![Vec::new(); k];
    for s in samples {
        let i = ((s.end_us as u128 * k as u128) / window_us.max(1) as u128) as usize;
        out[i.min(k - 1)].push(*s);
    }
    out
}

/// The value at quantile `q`, or `None` when fewer than ten samples lie
/// beyond it.
pub fn percentile(h: &HistogramSnapshot, q: f64) -> Option<u64> {
    let beyond = h.count() as f64 * (1.0 - q);
    (beyond >= 10.0 - 1e-9).then(|| h.quantile(q))
}

/// How often [`StealSampler`] reads `/proc/stat`.
const STEAL_SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// Samples the machine's CPU-time counters through a timed window, so each
/// slice of it can be told how much CPU time the hypervisor gave to other
/// guests ("steal"). On a shared host that share comes and goes in episodes,
/// and every thread hand-off of the request path waits out part of it.
pub struct StealSampler {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<Vec<StealSample>>>,
}

/// Steal and total CPU-time ticks (over all CPUs) when a sample was taken, µs
/// into the window.
#[derive(Debug, Clone, Copy)]
struct StealSample {
    at_us: u64,
    steal: u64,
    total: u64,
}

impl StealSampler {
    /// Starts sampling; `origin` is the window's start.
    pub fn start(origin: Instant) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("steal-sampler".into())
            .spawn(move || {
                let mut samples = Vec::new();
                loop {
                    if let Some((steal, total)) = cpu_ticks() {
                        let at_us = origin.elapsed().as_micros() as u64;
                        samples.push(StealSample { at_us, steal, total });
                    }
                    if flag.load(Ordering::Relaxed) {
                        return samples;
                    }
                    std::thread::sleep(STEAL_SAMPLE_EVERY);
                }
            })
            .expect("spawn steal sampler");
        Self {
            stop,
            thread: Some(thread),
        }
    }

    /// Stops the sampler, waits for it, and returns what it saw.
    pub fn finish(mut self) -> StealTrace {
        StealTrace(self.join())
    }

    fn join(&mut self) -> Vec<StealSample> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .take()
            .map_or_else(Vec::new, |t| t.join().expect("steal sampler panicked"))
    }
}

impl Drop for StealSampler {
    fn drop(&mut self) {
        self.join();
    }
}

/// The steal samples of one timed window.
#[derive(Debug, Clone, Default)]
pub struct StealTrace(Vec<StealSample>);

impl StealTrace {
    /// Share of all CPU time stolen between `from_us` and `to_us` into the
    /// window, read between the last samples at or before each edge; 0 when
    /// the counters are unavailable or did not move.
    pub fn share(&self, from_us: u64, to_us: u64) -> f64 {
        let at = |us: u64| {
            self.0
                .iter()
                .take_while(|s| s.at_us <= us)
                .last()
                .or(self.0.first())
                .copied()
        };
        match (at(from_us), at(to_us)) {
            (Some(a), Some(b)) => ratio((b.steal - a.steal) as f64, (b.total - a.total) as f64),
            _ => 0.0,
        }
    }
}

/// Steal and total ticks of the `cpu` line of `/proc/stat` (user, nice,
/// system, idle, iowait, irq, softirq, steal).
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

/// Engine and device state at one edge of the timed window. Besides the
/// `ingest-uniform` mark, these are the only `EngineStats` snapshots of a
/// drive: `stats()` locks every shard and resets the rebalancer's windowed
/// counters.
pub struct Edge {
    pub stats: EngineStats,
    pub device: DeviceCounts,
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The printed report: one human-readable line per figure, then one JSON
/// object as the last line of standard output.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// A metric that goes into the JSON result (and is printed).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("{name:<36} {value:>14.4} {unit}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A figure printed for the reader only.
    pub fn note(&mut self, name: &str, value: f64, unit: &str) {
        println!("{name:<36} {value:>14.4} {unit}");
    }

    /// Prints the p50 and p99 of `h` with their sample count, omitting a
    /// percentile with fewer than ten samples beyond it.
    pub fn percentiles(&mut self, prefix: &str, h: &HistogramSnapshot) {
        for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
            match percentile(h, q) {
                Some(v) => println!("{:<36} {v:>14} us (n={})", format!("{prefix}_{tag}_us"), h.count()),
                None => println!(
                    "{:<36} {:>14} (n={}, too few samples)",
                    format!("{prefix}_{tag}_us"),
                    "-",
                    h.count()
                ),
            }
        }
    }

    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out =
            format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}").expect("write to String");
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
