//! The engine pool: worker threads that keep caches warm across
//! requests.
//!
//! Each worker owns one [`Engine`] for its whole lifetime, so the probe
//! lineage built by one request is live for the next. Jobs are routed by the *circuit fingerprint*
//! (FNV-1a over the BLIF text): the same circuit always lands on the
//! same worker, which guarantees the warm-cache path on resubmission
//! and — because one engine is only ever driven by its one worker
//! thread — serializes cache binds per engine, so two different
//! circuits can never interleave on shared per-circuit state.
//!
//! Per-request work deltas are exact for the same reason: the worker
//! snapshots its engine's counters before and after the run with no
//! other mutator in between.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use turbosyn::trace::{Summary, TraceSink};
use turbosyn::{Engine, LabelStats, MapOptions, MapReport, SynthesisError};
use turbosyn_netlist::Circuit;

use crate::proto::Algorithm;

/// One unit of work for a pool worker.
#[derive(Debug)]
pub struct MapJob {
    /// Parsed input circuit.
    pub circuit: Circuit,
    /// Fully resolved mapper options (budget included).
    pub opts: MapOptions,
    /// Which mapper to run.
    pub algorithm: Algorithm,
    /// Admission timestamp, for the queue-latency breakdown.
    pub admitted_at: Instant,
    /// Where the outcome goes (a rendezvous channel; the submitting
    /// connection thread is blocked on it).
    pub reply: mpsc::SyncSender<MapOutcome>,
}

/// What a worker produced for one job.
#[derive(Debug)]
pub struct MapOutcome {
    /// Index of the worker that ran the job.
    pub worker: usize,
    /// The mapper's verdict.
    pub result: Result<MapReport, SynthesisError>,
    /// Label-work counter increments attributable to this job alone
    /// (sweeps, cut tests, worklist skips, warm starts, ...).
    pub work_delta: LabelStats,
    /// Time spent admitted-but-waiting, in milliseconds.
    pub queue_ms: u64,
    /// Time spent inside the mapper, in milliseconds.
    pub run_ms: u64,
}

/// One worker's lifetime totals, as reported by the `stats` endpoint.
#[derive(Debug, Clone, Copy)]
pub struct WorkerStats {
    /// Jobs that returned a clean report.
    pub served: u64,
    /// Jobs that returned a degraded (budget-concession) report.
    pub degraded: u64,
    /// Jobs that returned a typed error.
    pub failed: u64,
    /// Label-work counters accumulated over every run of this worker's
    /// engine.
    pub work: LabelStats,
}

/// Lifetime counters of one worker, shared with the stats endpoint.
#[derive(Debug, Default)]
pub struct WorkerCounters {
    /// Jobs that returned a clean report.
    pub served: AtomicU64,
    /// Jobs that returned a degraded (budget-concession) report.
    pub degraded: AtomicU64,
    /// Jobs that returned a typed error.
    pub failed: AtomicU64,
    /// Jobs currently executing on this worker (0 or 1).
    pub running: AtomicUsize,
}

/// A fixed-size pool of engine workers.
#[derive(Debug)]
pub struct Pool {
    workers: Vec<WorkerSlot>,
}

/// One worker: its job channel, engine, counters, and thread handle.
#[derive(Debug)]
struct WorkerSlot {
    tx: mpsc::Sender<MapJob>,
    engine: Arc<Engine>,
    counters: Arc<WorkerCounters>,
    /// Per-phase trace aggregates over every job this worker ran. The
    /// worker drains its engine's sink after each job and folds the
    /// result in here; the `metrics` endpoint snapshots it.
    summary: Arc<Mutex<Summary>>,
    handle: Option<JoinHandle<()>>,
}

impl Pool {
    /// Spawns `jobs` workers, each with a fresh engine.
    #[must_use]
    pub fn new(jobs: usize) -> Pool {
        Pool {
            workers: (0..jobs.max(1)).map(spawn_worker).collect(),
        }
    }

    /// Number of workers (and engines).
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Routes a job to the worker that owns `fingerprint`'s shard.
    ///
    /// # Errors
    ///
    /// The job back (boxed — it holds a whole circuit), if the worker
    /// has already shut down.
    pub fn submit(&self, fingerprint: u64, job: MapJob) -> Result<usize, Box<MapJob>> {
        let index = (fingerprint % self.workers.len() as u64) as usize;
        match self.workers[index].tx.send(job) {
            Ok(()) => Ok(index),
            Err(mpsc::SendError(job)) => Err(Box::new(job)),
        }
    }

    /// Jobs currently executing across all workers.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.workers
            .iter()
            .map(|w| w.counters.running.load(Ordering::SeqCst))
            .sum()
    }

    /// Per-worker lifetime snapshots, in worker order.
    #[must_use]
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.workers
            .iter()
            .map(|w| WorkerStats {
                served: w.counters.served.load(Ordering::Relaxed),
                degraded: w.counters.degraded.load(Ordering::Relaxed),
                failed: w.counters.failed.load(Ordering::Relaxed),
                work: w.engine.label_stats(),
            })
            .collect()
    }

    /// Per-worker trace summaries, in worker order (snapshots).
    #[must_use]
    pub fn worker_metrics(&self) -> Vec<Summary> {
        self.workers
            .iter()
            .map(|w| w.summary.lock().expect("worker summary poisoned").clone())
            .collect()
    }

    /// Closes the job channels and joins every worker. Queued jobs are
    /// finished first — workers drain their channel before exiting.
    pub fn shutdown(mut self) {
        for w in &mut self.workers {
            // Replacing the sender with a dropped dummy closes the
            // channel; the worker's recv loop then ends.
            let (dummy, _) = mpsc::channel();
            w.tx = dummy;
        }
        for w in &mut self.workers {
            if let Some(handle) = w.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

fn spawn_worker(index: usize) -> WorkerSlot {
    let (tx, rx) = mpsc::channel::<MapJob>();
    // Every worker engine records into its own always-on sink; the
    // worker drains it between jobs, so the per-job cost is bounded and
    // the `metrics` endpoint always sees completed jobs only.
    let sink = TraceSink::enabled();
    let engine = Arc::new(Engine::with_trace(sink.clone()));
    let counters = Arc::new(WorkerCounters::default());
    let summary = Arc::new(Mutex::new(Summary::default()));
    let worker_engine = Arc::clone(&engine);
    let worker_counters = Arc::clone(&counters);
    let worker_summary = Arc::clone(&summary);
    let handle = std::thread::Builder::new()
        .name(format!("turbosyn-worker-{index}"))
        .spawn(move || {
            worker_loop(
                index,
                &rx,
                &worker_engine,
                &worker_counters,
                &worker_summary,
            )
        })
        .expect("spawns worker thread");
    WorkerSlot {
        tx,
        engine,
        counters,
        summary,
        handle: Some(handle),
    }
}

fn worker_loop(
    index: usize,
    rx: &mpsc::Receiver<MapJob>,
    engine: &Engine,
    counters: &WorkerCounters,
    summary: &Mutex<Summary>,
) {
    while let Ok(job) = rx.recv() {
        counters.running.store(1, Ordering::SeqCst);
        let queue_ms = ms_since(job.admitted_at);
        let work_before = engine.label_stats();
        let started = Instant::now();
        let result = match job.algorithm {
            Algorithm::TurboSyn => engine.turbosyn(&job.circuit, &job.opts),
            Algorithm::TurboMap => engine.turbomap(&job.circuit, &job.opts),
            Algorithm::FlowSynS => engine.flowsyn_s(&job.circuit, &job.opts),
        };
        let run_ms = ms_since(started);
        let work_delta = engine.label_stats().delta_since(work_before);
        let job_summary = engine.trace().drain().summary();
        summary
            .lock()
            .expect("worker summary poisoned")
            .merge(&job_summary);
        match &result {
            Ok(r) if r.degradation.is_some() => {
                counters.degraded.fetch_add(1, Ordering::Relaxed);
            }
            Ok(_) => {
                counters.served.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                counters.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Clear `running` before replying: a client that sends `stats`
        // right after receiving its result must observe in_flight == 0.
        counters.running.store(0, Ordering::SeqCst);
        // A gone client (dropped receiver) is not the worker's problem.
        let _ = job.reply.send(MapOutcome {
            worker: index,
            result,
            work_delta,
            queue_ms,
            run_ms,
        });
    }
}

fn ms_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// FNV-1a over the raw circuit text — the routing key that pins a
/// circuit to one worker/engine.
#[must_use]
pub fn fingerprint(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbosyn_netlist::{blif, gen};

    fn job_for(circuit: Circuit, reply: mpsc::SyncSender<MapOutcome>) -> MapJob {
        MapJob {
            circuit,
            opts: MapOptions::default(),
            algorithm: Algorithm::TurboSyn,
            admitted_at: Instant::now(),
            reply,
        }
    }

    #[test]
    fn same_fingerprint_routes_to_same_worker_and_warms_its_lineage() {
        let pool = Pool::new(2);
        let text = blif::write(&gen::figure1());
        let fp = fingerprint(&text);
        let mut workers = Vec::new();
        let mut work = Vec::new();
        for _ in 0..2 {
            let circuit = blif::parse(&text).expect("parses");
            let (tx, rx) = mpsc::sync_channel(1);
            let worker = pool.submit(fp, job_for(circuit, tx)).expect("submits");
            let outcome = rx.recv().expect("worker replies");
            assert_eq!(outcome.worker, worker);
            outcome.result.as_ref().expect("maps cleanly");
            workers.push(worker);
            work.push(outcome.work_delta);
        }
        assert_eq!(workers[0], workers[1], "same circuit pins to one worker");
        // The pinned worker's engine keeps its probe lineage, so the
        // resubmission warm-starts and does strictly less label work.
        assert!(work[0].sweeps > 0, "cold run sweeps: {:?}", work[0]);
        assert!(
            work[1].warm_started_probes > 0 && work[1].cut_tests < work[0].cut_tests,
            "second run warm-starts its probes: {:?} vs {:?}",
            work[1],
            work[0]
        );
        let stats = pool.worker_stats();
        let served: u64 = stats.iter().map(|s| s.served).sum();
        assert_eq!(served, 2);
        let work_total: u64 = stats.iter().map(|s| s.work.sweeps).sum();
        assert_eq!(work_total, work[0].sweeps + work[1].sweeps);
        assert_eq!(pool.in_flight(), 0);
        pool.shutdown();
    }

    #[test]
    fn fingerprint_differs_across_texts() {
        assert_ne!(fingerprint("a"), fingerprint("b"));
        assert_eq!(fingerprint("same"), fingerprint("same"));
    }
}
