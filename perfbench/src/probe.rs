//! The device seam: the shared simulated SSD the engine's shards live on, and
//! an optional [`Probe`] around every partition queue that records one span per
//! psync submit→completion.
//!
//! The layout is the engine's `SharedDevice` topology rebuilt on the benchmark
//! side (shard stores, then shard WALs, then the epoch log, all partitions of one
//! `SimPsyncIo`), so the benchmark keeps handles on the device and on every
//! partition and can read their counters without going through the engine.

use engine::{EngineBackends, EngineConfig};
use pio::{Completion, IoQueue, IoResult, PartitionIo, ReadRequest, SimPsyncIo, Ticket, TryComplete, WriteRequest};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which log or store a queue serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A shard's page store.
    Store,
    /// A shard's write-ahead log.
    Wal,
    /// The engine's cross-shard epoch log.
    Epoch,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Store, Class::Wal, Class::Epoch];

    pub fn name(self) -> &'static str {
        match self {
            Class::Store => "store",
            Class::Wal => "wal",
            Class::Epoch => "epoch",
        }
    }
}

/// One psync batch, from submission to reaped completion.
#[derive(Debug, Clone, Copy)]
pub struct PioSpan {
    pub class: Class,
    pub shard: usize,
    pub write: bool,
    pub requests: usize,
    pub bytes: u64,
    /// Simulated completion latency the device reported for the batch.
    pub sim_us: f64,
    /// Host wall time, ns since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans in memory; they are written out when the benchmark ends.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<PioSpan>>,
}

impl Tracer {
    /// Starts the trace clock.
    pub fn start() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Removes and returns every span recorded so far.
    pub fn drain(&self) -> Vec<PioSpan> {
        std::mem::take(&mut *self.spans.lock().expect("span list poisoned"))
    }

    fn push(&self, span: PioSpan) {
        self.spans.lock().expect("span list poisoned").push(span);
    }
}

struct Pending {
    start_ns: u64,
    requests: usize,
    bytes: u64,
    write: bool,
}

/// An [`IoQueue`] that forwards every call to `inner` and records a
/// [`PioSpan`] for each batch it completes.
pub struct Probe {
    inner: Arc<dyn IoQueue>,
    class: Class,
    shard: usize,
    tracer: Arc<Tracer>,
    inflight: Mutex<HashMap<u64, Pending>>,
}

impl Probe {
    fn submitted(&self, ticket: &Ticket, start_ns: u64, requests: usize, bytes: u64, write: bool) {
        if ticket.is_empty_batch() {
            return;
        }
        let pending = Pending {
            start_ns,
            requests,
            bytes,
            write,
        };
        self.inflight
            .lock()
            .expect("inflight poisoned")
            .insert(ticket.id(), pending);
    }

    fn completed(&self, id: u64, completion: &Completion) {
        let Some(p) = self.inflight.lock().expect("inflight poisoned").remove(&id) else {
            return;
        };
        self.tracer.push(PioSpan {
            class: self.class,
            shard: self.shard,
            write: p.write,
            requests: p.requests,
            bytes: p.bytes,
            sim_us: completion.stats.elapsed_us,
            start_ns: p.start_ns,
            end_ns: self.tracer.now_ns(),
        });
    }

    fn forget(&self, id: u64) {
        self.inflight.lock().expect("inflight poisoned").remove(&id);
    }
}

impl IoQueue for Probe {
    fn submit_read(&self, reqs: &[ReadRequest]) -> IoResult<Ticket> {
        let start = self.tracer.now_ns();
        let ticket = self.inner.submit_read(reqs)?;
        let bytes = reqs.iter().map(|r| r.len as u64).sum();
        self.submitted(&ticket, start, reqs.len(), bytes, false);
        Ok(ticket)
    }

    fn submit_write(&self, reqs: &[WriteRequest<'_>]) -> IoResult<Ticket> {
        let start = self.tracer.now_ns();
        let ticket = self.inner.submit_write(reqs)?;
        let bytes = reqs.iter().map(|r| r.data.len() as u64).sum();
        self.submitted(&ticket, start, reqs.len(), bytes, true);
        Ok(ticket)
    }

    fn wait(&self, ticket: Ticket) -> IoResult<Completion> {
        let id = ticket.id();
        match self.inner.wait(ticket) {
            Ok(completion) => {
                self.completed(id, &completion);
                Ok(completion)
            }
            Err(e) => {
                self.forget(id);
                Err(e)
            }
        }
    }

    fn try_complete(&self, ticket: Ticket) -> IoResult<TryComplete> {
        let id = ticket.id();
        match self.inner.try_complete(ticket) {
            Ok(TryComplete::Ready(completion)) => {
                self.completed(id, &completion);
                Ok(TryComplete::Ready(completion))
            }
            Ok(pending) => Ok(pending),
            Err(e) => {
                self.forget(id);
                Err(e)
            }
        }
    }

    fn io_stats(&self) -> pio::IoStats {
        self.inner.io_stats()
    }

    fn reset_io_stats(&self) {
        self.inner.reset_io_stats()
    }

    fn queue_depth_hint(&self) -> Option<usize> {
        self.inner.queue_depth_hint()
    }

    fn reclaim_to(&self, len: u64) -> IoResult<()> {
        self.inner.reclaim_to(len)
    }
}

/// Device-level counters, read straight off the simulated SSD and its
/// partitions.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceCounts {
    /// psync calls the device serviced.
    pub batches: u64,
    /// Submissions that found the device idle (each opens an overlap group).
    pub overlap_groups: u64,
    pub pages_read: u64,
    pub pages_written: u64,
    /// Device clock, µs: it only advances while the device works.
    pub busy_us: f64,
    /// Bytes written per queue class, indexed like [`Class::ALL`].
    pub written: [u64; 3],
}

impl DeviceCounts {
    pub fn minus(&self, before: &DeviceCounts) -> DeviceCounts {
        DeviceCounts {
            batches: self.batches - before.batches,
            overlap_groups: self.overlap_groups - before.overlap_groups,
            pages_read: self.pages_read - before.pages_read,
            pages_written: self.pages_written - before.pages_written,
            busy_us: self.busy_us - before.busy_us,
            written: [0, 1, 2].map(|i| self.written[i] - before.written[i]),
        }
    }
}

/// The storage an engine is assembled on.
pub struct Device {
    sim: Arc<SimPsyncIo>,
    partitions: Vec<(Class, Arc<PartitionIo>)>,
    page_size: u64,
    /// Capacity of each shard WAL and of the epoch log, bytes.
    pub log_capacity: u64,
    /// Present when every partition is wrapped in a [`Probe`].
    pub tracer: Option<Arc<Tracer>>,
    backends: EngineBackends,
}

impl Device {
    /// Lays out one simulated device for `config` (WAL enabled). With a tracer,
    /// every queue handed to the engine is a [`Probe`].
    pub fn new(config: &EngineConfig, tracer: Option<Arc<Tracer>>) -> Self {
        let shards = config.shards as u64;
        let (store_cap, wal_cap) = (config.shard_capacity_bytes, config.wal_capacity_bytes);
        let total = shards * store_cap + (shards + 1) * wal_cap;
        let sim = Arc::new(SimPsyncIo::with_profile(config.profile, total));
        let mut partitions = Vec::new();
        let mut queues: Vec<Arc<dyn IoQueue>> = Vec::new();
        let layout = (0..shards)
            .map(|i| (Class::Store, i, i * store_cap, store_cap))
            .chain((0..shards).map(|i| (Class::Wal, i, shards * store_cap + i * wal_cap, wal_cap)))
            .chain(std::iter::once((
                Class::Epoch,
                0,
                shards * (store_cap + wal_cap),
                wal_cap,
            )));
        for (class, shard, base, capacity) in layout {
            let inner: Arc<dyn IoQueue> = sim.clone();
            let partition = Arc::new(PartitionIo::new(inner, base, capacity));
            partitions.push((class, Arc::clone(&partition)));
            queues.push(match &tracer {
                Some(tracer) => Arc::new(Probe {
                    inner: partition,
                    class,
                    shard: shard as usize,
                    tracer: Arc::clone(tracer),
                    inflight: Mutex::new(HashMap::new()),
                }),
                None => partition,
            });
        }
        let n = config.shards;
        let epoch = queues.pop();
        let wals = queues.split_off(n);
        let backends = EngineBackends {
            shard_stores: queues,
            shard_wals: wals,
            engine_wal: epoch,
        };
        Self {
            sim,
            partitions,
            page_size: config.base.page_size as u64,
            log_capacity: wal_cap,
            tracer,
            backends,
        }
    }

    pub fn backends(&self) -> EngineBackends {
        self.backends.clone()
    }

    /// Bytes written so far to each shard WAL and to the epoch log. A force
    /// rewrites its partial tail page, so this bounds from above how far each
    /// log has grown.
    pub fn log_bytes_written(&self) -> Vec<u64> {
        self.partitions
            .iter()
            .filter(|(class, _)| *class != Class::Store)
            .map(|(_, partition)| partition.io_stats().write_bytes)
            .collect()
    }

    pub fn counts(&self) -> DeviceCounts {
        let io = self.sim.io_stats();
        let mut written = [0u64; 3];
        for (class, partition) in &self.partitions {
            written[*class as usize] += partition.io_stats().write_bytes;
        }
        DeviceCounts {
            batches: io.batches,
            overlap_groups: io.overlap_groups,
            pages_read: io.read_bytes / self.page_size,
            pages_written: io.write_bytes / self.page_size,
            busy_us: self.sim.device_time_us(),
            written,
        }
    }
}
