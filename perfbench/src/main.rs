//! End-to-end benchmark of the sharded PIO B-tree engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-zipf-cached|ingest-uniform|lookup-scan-uncached> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Two clocks are read: host wall time, which the simulated backends never
//! advance (so it is pure software cost), and simulated device time, the delta
//! of `ShardedPioEngine::scheduled_io_us()` from the window start.
//!
//! `--trace 0` sets up five times (the median is `setup_s`), runs the workload
//! for `--seconds`, checks every output and prints the end-to-end metrics.
//! `--trace 1` runs the workload untraced for half the time, then repeats the
//! same calls on a fresh engine whose device queues are wrapped in probes, and
//! prints the per-layer metrics of the traced run. It fails if the traced run's
//! device counts differ from the untraced run's. Spans go to
//! `perfbench-traces/` next to the executable. `README.md` beside this
//! package lists every metric and the end-to-end metric each layer should move.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod measure;
mod probe;
mod workloads;

use measure::{histogram, percentile, ratio, slices, Op, Report, FAILED_US};
use probe::{Class, DeviceCounts, Tracer};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use workloads::{drive, Budget, Drive, Rig, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Calls a slice of the timed window must hold on average (so its p90 has
/// ten samples beyond it).
const SLICE_CALLS: usize = 100;
/// Most slices per second of the timed window.
const SLICES_PER_S: f64 = 2.0;
/// How far a traced `serve-zipf-cached` run's device counts may stray from
/// the untraced run's: the interquartile range over median of its
/// `sim_ops_per_s` over ten seeds. Its two clients batch differently from
/// run to run; the single-thread workloads must match exactly.
const SERVE_COUNT_TOLERANCE: f64 = 0.022;
/// Bytes of one logical entry (key + value).
const ENTRY_BYTES: f64 = 16.0;

const USAGE: &str = "usage: perfbench --workload <serve-zipf-cached|ingest-uniform|lookup-scan-uncached> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad value for {flag}: {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for {flag}: {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} (host parallelism {parallelism})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut report = Report::default();
    let (problems, attempted, failed) = if args.trace {
        traced(&args, &mut report)
    } else {
        untraced(&args, &mut report)
    };
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = problems.is_empty();
    println!("{}", report.json(correct, attempted, failed));
    if !correct {
        std::process::exit(1);
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn untraced(args: &Args, report: &mut Report) -> (Vec<String>, u64, u64) {
    let w = args.workload;
    let entries = w.entries();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut rig = None;
    for _ in 0..SETUPS {
        drop(rig.take());
        let started = Instant::now();
        rig = Some(Rig::build(w, &entries, None));
        setups.push(started.elapsed().as_secs_f64());
    }
    let rig = rig.expect("at least one set-up");
    let d = drive(w, &rig, &entries, args.seed, Budget::Seconds(args.seconds));

    let all = histogram(&d.samples);
    let sliced = Sliced::new(&d, report);
    report.metric("ops_per_s", sliced.ops_per_s, "ops/s");
    let mark = d.mark;
    let sim_s = (mark.scheduled_io_us - d.before.stats.scheduled_io_us) / 1e6;
    report.metric("sim_ops_per_s", ratio(mark.key_ops as f64, sim_s), "ops/s");
    report.metric("call_p50_us", sliced.p50_us, "us");
    report.metric("call_p90_us", sliced.p90_us, "us");
    report.metric("space_amp", space_amp(&rig, &d), "ratio");
    report.metric("setup_s", median(setups), "s");
    report.metric("peak_rss_mib", mark.peak_rss_mib, "MiB");
    if sliced.p99_thin {
        println!("note: some calm slice has fewer than ten samples beyond its p99");
    } else {
        report.note("call_p99_us (median of calm slices)", sliced.p99_us, "us");
    }
    println!("-- per call type (wall, client side)");
    report.percentiles("call", &all);
    for op in Op::ALL {
        report.percentiles(op.name(), &histogram(d.samples.iter().filter(|s| s.op == op)));
    }
    println!("-- other");
    let dev = d.after.device.minus(&d.before.device);
    for (class, bytes) in Class::ALL.iter().zip(dev.written) {
        report.note(
            &format!("written_mib.{}", class.name()),
            bytes as f64 / (1 << 20) as f64,
            "MiB",
        );
    }
    let written = dev.written.iter().sum::<u64>();
    report.note(
        "write_amp",
        ratio(written as f64, d.put_keys as f64 * ENTRY_BYTES),
        "ratio",
    );
    report.note("fail_frac", ratio(d.failed as f64, d.attempted() as f64), "ratio");
    report.note("window_s", d.wall.as_secs_f64(), "s");
    report.note("sim_window_s", d.sim_us() / 1e6, "s");
    report.note("key_ops", d.key_ops as f64, "ops");
    report.note("mark_calls", mark.calls as f64, "calls");
    if w == Workload::IngestUniform {
        let c = d.checkpoints;
        report.note("checkpoints", c.count as f64, "count");
        report.note(
            "checkpoint_wall_frac",
            ratio(c.wall.as_secs_f64(), d.wall.as_secs_f64()),
            "ratio",
        );
        report.note("checkpoint_sim_frac", ratio(c.sim_us, d.sim_us()), "ratio");
        let s = &d.after.stats;
        let fullest = s
            .shards
            .iter()
            .map(|s| s.wal_replayable_bytes)
            .max()
            .unwrap_or(0)
            .max(s.epoch_log_bytes);
        report.note(
            "fullest_log_frac (window end)",
            ratio(fullest as f64, rig.device.log_capacity as f64),
            "ratio",
        );
    }
    let attempted = d.attempted();
    (d.problems, attempted, d.failed)
}

/// The window cut into equal-time slices, [`SLICES_PER_S`] a second, each
/// holding at least [`SLICE_CALLS`] calls on average. The end-to-end rate and
/// percentiles are medians over the calm slices: those whose steal share is
/// at most the median slice's. On a shared host the hypervisor hands CPU time
/// to other guests in episodes, and each thread hand-off of a call waits out
/// part of it; the calm half of the window is the program's own speed. Where
/// no steal is reported every slice is calm.
struct Sliced {
    ops_per_s: f64,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    p99_thin: bool,
}

impl Sliced {
    fn new(d: &Drive, report: &mut Report) -> Self {
        let window_us = d.wall.as_micros() as u64;
        let most = ((d.wall.as_secs_f64() * SLICES_PER_S) as usize).max(1);
        let k = (d.samples.len() / SLICE_CALLS).clamp(1, most);
        let slice_s = d.wall.as_secs_f64() / k as f64;
        let edge = |i: usize| (window_us as u128 * i as u128 / k as u128) as u64;
        let steal: Vec<f64> = (0..k).map(|i| d.steal.share(edge(i), edge(i + 1))).collect();
        let calm_limit = median(steal.clone());
        let (mut rates, mut p50s, mut p90s, mut p99s, mut p99_thin) = (vec![], vec![], vec![], vec![], false);
        println!("-- {k} slices of {slice_s:.2} s; calm: steal share <= {calm_limit:.4}");
        for (i, slice) in slices(&d.samples, k, window_us).iter().enumerate() {
            let h = histogram(slice);
            let keys: u64 = slice
                .iter()
                .filter(|s| s.took_us != FAILED_US)
                .map(|s| s.keys as u64)
                .sum();
            let rate = keys as f64 / slice_s;
            let (p50, p90, p99) = (h.quantile(0.5), h.quantile(0.9), h.quantile(0.99));
            let p99_shown = percentile(&h, 0.99).map_or("-".to_string(), |v| v.to_string());
            let calm = steal[i] <= calm_limit;
            println!(
                "slice {i:>2}: steal {:.4}{} calls {:>6} key_ops/s {rate:>10.0} p50 {p50:>7} p90 {p90:>7} p99 {p99_shown:>7} us",
                steal[i],
                if calm { " calm" } else { "     " },
                h.count()
            );
            if !calm {
                continue;
            }
            p99_thin |= p99_shown == "-";
            rates.push(rate);
            p50s.push(p50 as f64);
            p90s.push(p90 as f64);
            p99s.push(p99 as f64);
        }
        report.note("calm_slices", rates.len() as f64, "count");
        report.note("steal_share (window)", d.steal.share(0, window_us), "ratio");
        Self {
            ops_per_s: median(rates),
            p50_us: median(p50s),
            p90_us: median(p90s),
            p99_us: median(p99s),
            p99_thin,
        }
    }
}

/// Allocated store bytes per byte of live entry: at the mark on
/// `ingest-uniform`, at the window's end elsewhere.
fn space_amp(rig: &Rig, d: &Drive) -> f64 {
    ratio(
        (d.store_pages() * rig.page_size) as f64,
        d.live_entries as f64 * ENTRY_BYTES,
    )
}

fn traced(args: &Args, report: &mut Report) -> (Vec<String>, u64, u64) {
    let w = args.workload;
    let entries = w.entries();
    // A discarded set-up first, as in the untraced run, so neither measured
    // engine is the first one the process allocates.
    drop(Rig::build(w, &entries, None));
    let plain = {
        let rig = Rig::build(w, &entries, None);
        drive(w, &rig, &entries, args.seed, Budget::Seconds(args.seconds / 2.0))
    };
    let rig = Rig::build(w, &entries, Some(Arc::new(Tracer::start())));
    let t = drive(w, &rig, &entries, args.seed, Budget::Calls(plain.calls_per_client));

    let mut problems = plain.problems.clone();
    problems.extend(t.problems.iter().cloned());
    compare_device_counts(w, &plain, &t, &mut problems);
    per_layer(w, &rig, &t, report);
    let overhead = ratio(
        t.key_ops as f64 / t.wall.as_secs_f64(),
        plain.key_ops as f64 / plain.wall.as_secs_f64(),
    );
    report.metric("trace.ops_per_s_ratio", overhead, "ratio");
    match write_spans(args, rig.page_size, &t) {
        Ok(path) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written: {e}"),
    }
    (problems, plain.attempted() + t.attempted(), plain.failed + t.failed)
}

/// The traced run must reproduce the untraced run's device work: psync calls,
/// pages read and written, and committed epochs.
fn compare_device_counts(w: Workload, plain: &Drive, traced: &Drive, problems: &mut Vec<String>) {
    let counts = |d: &Drive| {
        let dev = d.after.device.minus(&d.before.device);
        let epochs = d.after.stats.committed_epochs - d.before.stats.committed_epochs;
        [
            ("psync calls", dev.batches),
            ("pages read", dev.pages_read),
            ("pages written", dev.pages_written),
            ("committed epochs", epochs),
        ]
    };
    let tolerance = if w == Workload::ServeZipfCached {
        SERVE_COUNT_TOLERANCE
    } else {
        0.0
    };
    for ((name, a), (_, b)) in counts(plain).into_iter().zip(counts(traced)) {
        let diff = ratio((a as f64 - b as f64).abs(), a.max(b) as f64);
        println!(
            "device count {name:<18} untraced {a:>10} traced {b:>10} diff {:.4}",
            diff
        );
        if diff > tolerance {
            problems.push(format!("traced run changed {name}: {a} untraced vs {b} traced"));
        }
    }
}

fn per_layer(w: Workload, rig: &Rig, d: &Drive, report: &mut Report) {
    let (s0, s1) = (&d.before.stats, &d.after.stats);
    let dev: DeviceCounts = d.after.device.minus(&d.before.device);
    let [gets, puts, _scans] = d.calls;
    let key_ops = d.key_ops as f64;
    let sum = |s: &engine::EngineStats, f: &dyn Fn(&engine::ShardSnapshot) -> u64| s.shards.iter().map(f).sum::<u64>();
    let delta = |f: &dyn Fn(&engine::ShardSnapshot) -> u64| (sum(s1, f) - sum(s0, f)) as f64;

    // service: only serve-zipf-cached goes through it.
    let svc = d.service.as_ref();
    let hist = |pick: fn(&service::ServiceStats) -> &service::HistogramSnapshot, q: f64| {
        svc.map_or(0.0, |s| pick(s).quantile(q) as f64)
    };
    report.metric("service.queue_wait_p50_us", hist(|s| &s.queue_wait, 0.5), "us");
    report.metric("service.queue_wait_p99_us", hist(|s| &s.queue_wait, 0.99), "us");
    report.metric("service.engine_call_p50_us", hist(|s| &s.batch_service, 0.5), "us");
    let reply = svc.map_or(0.0, |s| s.e2e.mean() - s.queue_wait.mean() - s.batch_service.mean());
    report.metric("service.reply_us", reply, "us");
    report.metric(
        "service.batch_occupancy",
        svc.map_or(0.0, |s| s.avg_batch_occupancy()),
        "ratio",
    );
    let budget_frac = svc.map_or(0.0, |s| ratio(s.budget_expired_flushes as f64, s.batches_formed as f64));
    report.metric("service.budget_flush_frac", budget_frac, "ratio");

    // engine
    let sim_us = d.sim_us();
    report.metric(
        "engine.overlap_factor",
        ratio(s1.total_io_us - s0.total_io_us, sim_us),
        "ratio",
    );
    let engine_calls = match w {
        Workload::ServeZipfCached => svc.map_or(0, |s| s.batches_formed),
        Workload::IngestUniform => puts,
        Workload::LookupScanUncached => gets,
    };
    let sub_batches = (s1.batched_calls - s0.batched_calls) as f64;
    report.metric(
        "engine.shards_per_call",
        ratio(sub_batches, engine_calls as f64),
        "count",
    );
    let epochs = (s1.committed_epochs - s0.committed_epochs) as f64;
    report.metric("engine.epochs_per_put", ratio(epochs, puts as f64), "ratio");
    let self_us = if w == Workload::ServeZipfCached {
        0.0
    } else {
        self_us_per_call(d)
    };
    report.metric("engine.self_us_per_call", self_us, "us");

    // core
    let (r0, r1) = (&s0.rollup, &s1.rollup);
    let tier_hits = (r1.inner_tier_hits - r0.inner_tier_hits) as f64;
    let tier_misses = (r1.inner_tier_misses - r0.inner_tier_misses) as f64;
    report.metric(
        "core.inner_tier_hit_rate",
        ratio(tier_hits, tier_hits + tier_misses),
        "ratio",
    );
    report.metric(
        "core.inner_tier_retries",
        (r1.inner_tier_retries - r0.inner_tier_retries) as f64,
        "count",
    );
    let bupdates = (r1.bupdates - r0.bupdates) as f64;
    report.metric(
        "core.ops_per_bupdate",
        ratio((r1.opq_appends - r0.opq_appends) as f64, bupdates),
        "ratio",
    );
    let rewrites = (r1.leaf_rewrites - r0.leaf_rewrites) as f64;
    report.metric("core.leaf_rewrites_per_bupdate", ratio(rewrites, bupdates), "ratio");
    report.metric("core.leaf_splits", (r1.leaf_splits - r0.leaf_splits) as f64, "count");

    // storage
    let pool_hits = delta(&|s| s.pool.hits);
    let pool_misses = delta(&|s| s.pool.misses);
    report.metric(
        "storage.pool_hit_ratio",
        ratio(pool_hits, pool_hits + pool_misses),
        "ratio",
    );
    report.metric(
        "storage.page_reads_per_op",
        ratio(delta(&|s| s.store.page_reads), key_ops),
        "ratio",
    );
    report.metric(
        "storage.page_writes_per_op",
        ratio(delta(&|s| s.store.page_writes), key_ops),
        "ratio",
    );
    let (c0, c1) = (&s0.leaf_cache, &s1.leaf_cache);
    let cache_hits = (c1.hits - c0.hits) as f64;
    let cache_misses = (c1.misses - c0.misses) as f64;
    report.metric(
        "storage.leaf_cache_hit_rate",
        ratio(cache_hits, cache_hits + cache_misses),
        "ratio",
    );
    report.metric(
        "storage.scan_bypasses",
        (c1.scan_bypasses - c0.scan_bypasses) as f64,
        "count",
    );
    let corrupt = s1.integrity.corruption_detected - s0.integrity.corruption_detected;
    report.metric("storage.checksum_failures", corrupt as f64, "count");
    let written = dev.written.iter().sum::<u64>() as f64;
    report.metric(
        "storage.write_amp",
        ratio(written, d.put_keys as f64 * ENTRY_BYTES),
        "ratio",
    );

    // pio, from the probe spans
    let page = rig.page_size as f64;
    for class in Class::ALL {
        let spans = || d.pio_spans.iter().filter(move |s| s.class == class);
        let c = class.name();
        if class == Class::Store {
            for (write, dir) in [(false, "read"), (true, "write")] {
                let (calls, bytes) = spans()
                    .filter(|s| s.write == write)
                    .fold((0u64, 0u64), |(n, b), s| (n + 1, b + s.bytes));
                report.metric(
                    &format!("pio.store.{dir}_pages_per_call"),
                    ratio(bytes as f64 / page, calls as f64),
                    "count",
                );
            }
        }
        report.metric(&format!("pio.{c}.calls"), spans().count() as f64, "count");
        let wall_ns: u64 = spans().map(|s| s.end_ns - s.start_ns).sum();
        report.metric(&format!("pio.{c}.wall_us"), wall_ns as f64 / 1e3, "us");
        report.metric(&format!("pio.{c}.sim_us"), spans().fold(0.0, |a, s| a + s.sim_us), "us");
    }
    report.metric("pio.retries", (s1.io_retries - s0.io_retries) as f64, "count");
    report.metric("pio.give_ups", (s1.io_give_ups - s0.io_give_ups) as f64, "count");

    // ssd
    report.metric("ssd.busy_us", dev.busy_us, "us");
    let pipelined = ratio((dev.batches - dev.overlap_groups) as f64, dev.batches as f64);
    report.metric("ssd.pipelined_frac", pipelined, "ratio");
}

/// Mean wall time per client call not covered by any pio span inside it:
/// the CPU time of engine, core and storage. Only meaningful with one client
/// thread, where the call in flight owns every span that starts inside it.
fn self_us_per_call(d: &Drive) -> f64 {
    let mut pio: Vec<(u64, u64)> = d.pio_spans.iter().map(|s| (s.start_ns, s.end_ns)).collect();
    pio.sort_unstable();
    let mut next = 0;
    let mut self_ns = 0u64;
    for call in &d.call_spans {
        while next < pio.len() && pio[next].0 < call.start_ns {
            next += 1;
        }
        let mut covered = 0u64;
        let mut reach = call.start_ns;
        while next < pio.len() && pio[next].0 <= call.end_ns {
            let (start, end) = (pio[next].0.max(reach), pio[next].1.min(call.end_ns));
            if end > start {
                covered += end - start;
                reach = end;
            }
            next += 1;
        }
        self_ns += (call.end_ns - call.start_ns).saturating_sub(covered);
    }
    ratio(self_ns as f64 / 1e3, d.call_spans.len() as f64)
}

/// Writes the root and pio spans as JSON lines next to the executable. On
/// the single-thread workloads each pio span names the call it ran inside.
fn write_spans(args: &Args, page_size: u64, d: &Drive) -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .unwrap_or(std::path::Path::new("."))
        .join("perfbench-traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for c in &d.call_spans {
        let (id, op, start, end) = (c.id, c.op.name(), c.start_ns, c.end_ns);
        writeln!(
            out,
            "{{\"span\":\"call\",\"id\":{id},\"op\":\"{op}\",\"start_ns\":{start},\"end_ns\":{end}}}"
        )?;
    }
    let attribute = args.workload != Workload::ServeZipfCached;
    let mut calls = d.call_spans.iter().peekable();
    let mut pio = d.pio_spans.clone();
    pio.sort_by_key(|s| s.start_ns);
    for s in &pio {
        while calls.peek().is_some_and(|c| c.end_ns < s.start_ns) {
            calls.next();
        }
        let parent = match calls.peek() {
            Some(c) if attribute && c.start_ns <= s.start_ns => c.id.to_string(),
            _ => "null".to_string(),
        };
        writeln!(
            out,
            "{{\"span\":\"pio\",\"call\":{parent},\"class\":\"{}\",\"shard\":{},\"dir\":\"{}\",\"requests\":{},\"pages\":{},\"sim_us\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.class.name(),
            s.shard,
            if s.write { "write" } else { "read" },
            s.requests,
            s.bytes / page_size,
            s.sim_us,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()?;
    Ok(path)
}
