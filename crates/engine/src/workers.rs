//! The persistent shard workers and the cross-shard fan-out.
//!
//! Each shard owns one long-lived worker thread fed over an mpsc channel. A
//! worker locks its shard's tree, runs the task (catching panics so one poisoned
//! call cannot kill the thread), measures the shard's simulated-I/O delta, and
//! sends a completion straight back to the caller that submitted the task.
//!
//! A fan-out ([`EngineInner::fan_out_tasks`]) enqueues all of its tasks under one
//! lock, so two concurrent calls reach every shard they share in the same order,
//! then blocks on its own reply channel and finishes the call on its own thread:
//!
//! * it charges the **maximum** per-shard I/O delta to the engine's schedule
//!   makespan ([`crate::EngineStats::scheduled_io_us`]) — the shards ran their
//!   psync streams concurrently, so the call costs the slowest of them;
//! * it orders the results **by shard index**, never by arrival order, so a
//!   fan-out is deterministic regardless of which shard finishes first;
//! * it surfaces the lowest-shard-index error and re-raises a worker panic.
//!
//! Batched engine calls therefore spawn **zero** threads: the only engine
//! threads are the shard workers and (optionally) the maintenance sweeper.

use crate::sharded::EngineInner;
use btree::{Key, Value};
use parking_lot::Mutex;
use pio::{IoError, IoResult};
use pio_btree::PioBTree;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Result payload of one shard task (one variant per batched engine operation).
pub(crate) enum TaskOutput {
    /// `multi_search` verdicts for the shard's sub-batch.
    Values(Vec<Option<Value>>),
    /// `range_search` hits for the shard's clamped sub-range.
    Entries(Vec<(Key, Value)>),
    /// `count_entries` tally.
    Count(u64),
    /// Whether a maintenance task actually flushed the shard.
    Flushed(bool),
    /// A shard's durability ack for an epoch-bracketed `insert_batch`: its WAL's
    /// durable LSN after the sub-batch was forced.
    Durable(storage::Lsn),
    /// A shard's recovery outcome (`ShardedPioEngine::recover`).
    Recovered(pio_btree::RecoveryReport),
    /// Operations with no payload (`insert_batch`, `checkpoint`).
    Unit,
}

/// A closure a shard worker runs on its exclusively locked tree.
pub(crate) type ShardTask = Box<dyn FnOnce(&mut PioBTree) -> IoResult<TaskOutput> + Send>;

/// Why a shard task failed.
enum Failure {
    Io(IoError),
    Panicked(String),
}

/// One finished task: `(shard, verdict, io_delta_us)`.
type Completion = (usize, Result<TaskOutput, Failure>, f64);

/// A task queued on a shard worker, with the channel its completion goes to.
struct Job {
    task: ShardTask,
    reply: Sender<Completion>,
}

/// The per-shard worker threads. Dropping the pool closes every queue and joins
/// the workers once they have drained the tasks already enqueued.
pub(crate) struct ShardWorkers {
    /// One job queue per shard. A fan-out enqueues all of its tasks under this
    /// one lock (atomic enqueue).
    queues: Mutex<Vec<Sender<Job>>>,
    handles: Vec<JoinHandle<()>>,
}

impl ShardWorkers {
    /// Spawns one worker per shard tree, named after the shard's index.
    pub(crate) fn spawn(trees: impl IntoIterator<Item = Arc<Mutex<PioBTree>>>) -> Self {
        let (queues, handles) = trees
            .into_iter()
            .enumerate()
            .map(|(shard, tree)| {
                let (tx, rx) = channel::<Job>();
                let handle = std::thread::Builder::new()
                    .name(format!("engine-shard-{shard}"))
                    .spawn(move || worker_loop(shard, &tree, rx))
                    .expect("spawn shard worker");
                (tx, handle)
            })
            .unzip();
        Self {
            queues: Mutex::new(queues),
            handles,
        }
    }
}

impl Drop for ShardWorkers {
    fn drop(&mut self) {
        // Closing the queues ends each worker's receive loop after the jobs
        // already queued (channels are FIFO), so no task is abandoned mid-flight
        // and no worker outlives the engine.
        self.queues.get_mut().clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shard: usize, tree: &Mutex<PioBTree>, jobs: Receiver<Job>) {
    for Job { task, reply } in jobs {
        let mut tree = tree.lock();
        let before = tree.io_elapsed_us();
        let verdict = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(&mut tree))) {
            Ok(result) => result.map_err(Failure::Io),
            Err(panic) => Err(Failure::Panicked(panic_message(&*panic))),
        };
        // Charge even on error: any partially performed I/O is in the shard's
        // elapsed time and the makespan must stay in lockstep with it.
        let io_delta_us = tree.io_elapsed_us() - before;
        drop(tree);
        // A caller that went away is not the worker's concern.
        let _ = reply.send((shard, verdict, io_delta_us));
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

impl EngineInner {
    /// Runs one task per listed shard on the shard workers and blocks for all of
    /// their completions. Results come back ordered by shard index; the
    /// lowest-shard-index error wins, and a worker panic is re-raised here, on
    /// the calling thread.
    pub(crate) fn fan_out_tasks(&self, work: Vec<(usize, ShardTask)>) -> IoResult<Vec<(usize, TaskOutput)>> {
        if work.is_empty() {
            return Ok(Vec::new());
        }
        let tasks = work.len();
        let (reply, completions) = channel::<Completion>();
        {
            let queues = self.workers.queues.lock();
            for (shard, task) in work {
                let job = Job {
                    task,
                    reply: reply.clone(),
                };
                // A dead worker drops the job with its reply sender; the
                // collection loop below reports the missing completion.
                let _ = queues[shard].send(job);
            }
        }
        drop(reply);
        let mut results = Vec::with_capacity(tasks);
        // Lowest-shard-index failure (deterministic error choice).
        let mut failure: Option<(usize, Failure)> = None;
        let mut makespan_us = 0.0f64;
        for _ in 0..tasks {
            let Ok((shard, verdict, io_delta_us)) = completions.recv() else {
                return Err(IoError::WorkerFailed("a shard worker dropped its task".into()));
            };
            makespan_us = makespan_us.max(io_delta_us);
            match verdict {
                Ok(output) => results.push((shard, output)),
                Err(why) if failure.as_ref().is_none_or(|&(s, _)| shard < s) => failure = Some((shard, why)),
                Err(_) => {}
            }
        }
        self.charge(makespan_us);
        self.note_scheduled_batch();
        match failure {
            None => {
                results.sort_by_key(|&(shard, _)| shard);
                Ok(results)
            }
            Some((_, Failure::Io(e))) => Err(e),
            Some((_, Failure::Panicked(msg))) => panic!("shard worker panicked: {msg}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, ShardedPioEngine};
    use pio_btree::PioConfig;
    use ssd_sim::DeviceProfile;
    use std::panic::AssertUnwindSafe;
    use std::time::Duration;

    fn engine(shards: usize) -> ShardedPioEngine {
        let config = EngineConfig::builder()
            .shards(shards)
            .profile(DeviceProfile::F120)
            .shard_capacity_bytes(1 << 30)
            .base(PioConfig::builder().page_size(2048).pool_pages(64).build())
            .build();
        ShardedPioEngine::create(config, &(0..1_000u64).collect::<Vec<_>>()).unwrap()
    }

    fn task(op: impl FnOnce(&mut PioBTree) -> IoResult<TaskOutput> + Send + 'static) -> ShardTask {
        Box::new(op)
    }

    fn counts(results: Vec<(usize, TaskOutput)>) -> Vec<(usize, u64)> {
        results
            .into_iter()
            .map(|(shard, out)| match out {
                TaskOutput::Count(n) => (shard, n),
                _ => panic!("shard {shard}: unexpected output"),
            })
            .collect()
    }

    #[test]
    fn a_task_panic_is_re_raised_on_the_caller_and_the_worker_keeps_serving() {
        let engine = engine(2);
        let inner = engine.inner();
        let work = vec![(0, task(|_| Ok(TaskOutput::Count(0)))), (1, task(|_| panic!("boom")))];
        let Err(panic) = std::panic::catch_unwind(AssertUnwindSafe(|| inner.fan_out_tasks(work))) else {
            panic!("the task panic must reach the caller");
        };
        assert_eq!(panic_message(&*panic), "shard worker panicked: boom");
        let again = inner.fan_out_tasks(vec![(1, task(|_| Ok(TaskOutput::Count(7))))]);
        assert_eq!(
            counts(again.unwrap()),
            vec![(1, 7)],
            "the panicked shard's worker must still serve"
        );
        assert_eq!(engine.stats().scheduled_batches, 2, "a panicked fan-out still counts");
    }

    #[test]
    fn the_lowest_failing_shard_index_wins_over_arrival_order() {
        let engine = engine(4);
        // Shards 1-3 fail in the order 2, 1, 3: each waits for its predecessor's
        // failure, so neither the first nor the last error to land is shard 1's.
        let mut work: Vec<(usize, ShardTask)> = vec![(0, task(|_| Ok(TaskOutput::Unit)))];
        let mut previous: Option<Receiver<()>> = None;
        for shard in [2usize, 1, 3] {
            let (failed, next) = channel::<()>();
            let wait = previous.replace(next);
            let op = task(move |_| {
                if let Some(wait) = wait {
                    wait.recv().unwrap();
                    std::thread::sleep(Duration::from_millis(20));
                }
                let _ = failed.send(());
                Err(IoError::WorkerFailed(format!("shard {shard} failed")))
            });
            work.push((shard, op));
        }
        let Err(err) = engine.inner().fan_out_tasks(work) else {
            panic!("failing shards must fail the fan-out");
        };
        assert!(
            err.to_string().contains("shard 1 failed"),
            "expected shard 1's error, got: {err}"
        );
    }

    #[test]
    fn results_come_back_in_shard_order_when_later_shards_finish_first() {
        let engine = engine(4);
        let (finished, wait_for_others) = channel::<usize>();
        // Submitted in reverse; shard 0 finishes last.
        let mut work: Vec<(usize, ShardTask)> = (1..4)
            .rev()
            .map(|shard| {
                let finished = finished.clone();
                let op = task(move |_| {
                    finished.send(shard).unwrap();
                    Ok(TaskOutput::Count(shard as u64 * 10))
                });
                (shard, op)
            })
            .collect();
        work.push((
            0,
            task(move |_| {
                for _ in 1..4 {
                    wait_for_others.recv().unwrap();
                }
                Ok(TaskOutput::Count(0))
            }),
        ));
        let results = engine.inner().fan_out_tasks(work).unwrap();
        assert_eq!(counts(results), vec![(0, 0), (1, 10), (2, 20), (3, 30)]);
    }

    #[test]
    fn concurrent_fan_outs_reach_every_shared_shard_in_the_same_order() {
        const SHARDS: usize = 4;
        let engine = engine(SHARDS);
        let logs: Arc<Mutex<Vec<Vec<u64>>>> = Arc::new(Mutex::new(vec![Vec::new(); SHARDS]));
        std::thread::scope(|scope| {
            for thread in 0..4u64 {
                let (engine, logs) = (&engine, &logs);
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let call = thread * 1_000 + i;
                        let work = (0..SHARDS)
                            .map(|shard| {
                                let logs = Arc::clone(logs);
                                let op = task(move |_| {
                                    logs.lock()[shard].push(call);
                                    Ok(TaskOutput::Unit)
                                });
                                (shard, op)
                            })
                            .collect();
                        engine.inner().fan_out_tasks(work).unwrap();
                    }
                });
            }
        });
        let logs = logs.lock();
        assert_eq!(logs[0].len(), 800);
        for (shard, log) in logs.iter().enumerate() {
            assert_eq!(
                log, &logs[0],
                "shard {shard} ran the calls in a different order than shard 0"
            );
        }
    }
}
