//! The daemon: connection handling, dispatch, stats, and graceful drain.
//!
//! Transport is plain `std::net::TcpListener` plus one thread per
//! connection (or a single stdio session) — matching the workspace's
//! no-dependency style. Concurrency comes from multiple connections;
//! *within* one connection requests are handled strictly in order, so a
//! client that wants to cancel an in-flight map sends the `cancel` on a
//! second connection (the id namespace is server-global).
//!
//! Request lifecycle: read frame → parse/validate → (maps only) load
//! and parse BLIF → admission gate → route to the engine pool by
//! circuit fingerprint → block on the worker's reply → write the
//! response → release the admission slot. The slot is held until the
//! response bytes are flushed, which is what lets the drain barrier
//! ("finish in-flight, refuse new") also guarantee every admitted
//! request gets its answer before the process exits.
//!
//! Drain: `shutdown` frames and SIGINT both funnel into
//! [`ServerHandle::begin_drain`] — the admission gate flips to
//! reject-everything, a wake-up connection unblocks the accept loop,
//! and [`Server::wait`] returns once the last admitted request has been
//! answered and every worker joined.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;
use turbosyn::{
    cache_stats_to_json, label_stats_to_json, report_to_json, Budget, CancelToken, MapOptions,
    MapReport,
};
use turbosyn_json::chrome::summary_to_json;
use turbosyn_json::Json;
use turbosyn_netlist::blif;

use crate::pool::{fingerprint, MapJob, MapOutcome, Pool};
use crate::proto::{
    error_frame, read_frame, synthesis_error_code, CircuitSource, MapRequest, Request,
    DEFAULT_MAX_LINE,
};
use crate::queue::{Admission, Reject, Ticket};

/// Tunables of one service instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Engine workers (each owns one warm [`turbosyn::Engine`]).
    pub jobs: usize,
    /// Admission cap: maximum simultaneously admitted map requests
    /// (queued + running + writing their response).
    pub queue_cap: usize,
    /// Per-frame byte ceiling.
    pub max_line: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            jobs: 2,
            queue_cap: 16,
            max_line: DEFAULT_MAX_LINE,
        }
    }
}

/// Service state shared by every connection.
///
/// The pool sits behind `Mutex<Option<...>>` so the drain path can take
/// it out and join the workers; connections only hold the lock for the
/// non-blocking `submit` call, never across the mapper run.
#[derive(Debug)]
struct Shared {
    admission: Arc<Admission>,
    pool: Mutex<Option<Pool>>,
    config: ServeConfig,
    /// Cancel tokens of in-flight map requests, by request id.
    cancels: Mutex<HashMap<String, CancelToken>>,
    /// `cancel` frames that found a live target.
    cancelled: AtomicU64,
    /// Address to poke when draining, to unblock `accept`.
    wake_addr: Mutex<Option<SocketAddr>>,
}

impl Shared {
    fn new(config: ServeConfig) -> Arc<Shared> {
        Arc::new(Shared {
            admission: Admission::new(config.queue_cap),
            pool: Mutex::new(Some(Pool::new(config.jobs))),
            config,
            cancels: Mutex::new(HashMap::new()),
            cancelled: AtomicU64::new(0),
            wake_addr: Mutex::new(None),
        })
    }

    fn begin_drain(&self) {
        self.admission.begin_drain();
        let addr = *self.wake_addr.lock().expect("wake addr poisoned");
        if let Some(addr) = addr {
            // Wake the accept loop so it observes the drain flag.
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
        }
    }

    fn in_flight(&self) -> usize {
        self.pool
            .lock()
            .expect("pool poisoned")
            .as_ref()
            .map_or(0, Pool::in_flight)
    }

    /// Waits for the drain barrier, then joins the workers.
    fn finish_drain(&self) {
        while !self.admission.drained() {
            std::thread::sleep(Duration::from_millis(10));
        }
        let pool = self.pool.lock().expect("pool poisoned").take();
        if let Some(pool) = pool {
            pool.shutdown();
        }
    }
}

/// A clonable remote control for a running server (drain trigger).
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Starts a graceful drain: refuse new maps, finish in-flight work.
    pub fn begin_drain(&self) {
        self.shared.begin_drain();
    }

    /// Whether a drain has begun.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.shared.admission.is_draining()
    }
}

/// A running TCP service.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    addr: SocketAddr,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections.
    ///
    /// # Errors
    ///
    /// The bind failure, verbatim.
    pub fn bind(addr: &str, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Shared::new(config);
        *shared.wake_addr.lock().expect("wake addr poisoned") = Some(local);
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("turbosyn-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawns accept thread");
        Ok(Server {
            shared,
            accept: Some(accept),
            addr: local,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A drain trigger usable from other threads / signal pollers.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Blocks until a drain completes: every admitted request answered,
    /// every worker joined. (Trigger the drain via [`Server::handle`] or
    /// a client `shutdown` frame.)
    pub fn wait(mut self) {
        self.shared.finish_drain();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.admission.is_draining() {
            return;
        }
        let Ok(stream) = stream else { continue };
        let Ok(read_half) = stream.try_clone() else {
            continue;
        };
        let conn_shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("turbosyn-conn".into())
            .spawn(move || {
                let mut reader = BufReader::new(read_half);
                let mut writer = stream;
                serve_connection(&conn_shared, &mut reader, &mut writer);
            });
    }
}

/// Serves one framed session until end-of-stream, an unrecoverable
/// protocol error, or a `shutdown` frame. Shared between the TCP accept
/// loop and the stdio mode.
fn serve_connection<R: BufRead, W: Write>(shared: &Arc<Shared>, reader: &mut R, writer: &mut W) {
    loop {
        let line = match read_frame(reader, shared.config.max_line) {
            Ok(Some(line)) => line,
            Ok(None) => return,
            Err(e) => {
                let _ = write_frame(writer, &error_frame(None, e.code(), &e.to_string(), None));
                if e.is_recoverable() {
                    continue;
                }
                return;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match Request::parse(&line) {
            Ok(request) => request,
            Err(e) => {
                let _ = write_frame(writer, &error_frame(None, e.code(), &e.to_string(), None));
                continue;
            }
        };
        let shutdown = matches!(request, Request::Shutdown { .. });
        let (frame, ticket) = dispatch(shared, request);
        let write_failed = write_frame(writer, &frame).is_err();
        // The admission slot is released only now, with the response
        // flushed — so `drained()` implies every admitted request got
        // its answer onto the wire.
        drop(ticket);
        if write_failed || shutdown {
            return;
        }
    }
}

/// Handles one valid request and produces its response frame, plus the
/// admission ticket (maps only) the caller must hold until the frame is
/// flushed.
fn dispatch(shared: &Arc<Shared>, request: Request) -> (Json, Option<Ticket>) {
    let frame = match request {
        Request::Ping { id } => {
            Json::obj(vec![("type", Json::from("pong")), ("id", Json::from(id))])
        }
        Request::Stats { id } => stats_frame(shared, &id),
        Request::Metrics { id } => metrics_frame(shared, &id),
        Request::Shutdown { id } => {
            shared.begin_drain();
            Json::obj(vec![
                ("type", Json::from("shutting_down")),
                ("id", Json::from(id)),
            ])
        }
        Request::Cancel { id, target } => {
            let token = shared
                .cancels
                .lock()
                .expect("cancel map poisoned")
                .get(&target)
                .cloned();
            let found = token.is_some();
            if let Some(token) = token {
                token.cancel();
                shared.cancelled.fetch_add(1, Ordering::Relaxed);
            }
            Json::obj(vec![
                ("type", Json::from("cancelled")),
                ("id", Json::from(id)),
                ("target", Json::from(target)),
                ("found", Json::from(found)),
            ])
        }
        Request::Map(request) => return handle_map(shared, *request),
    };
    (frame, None)
}

fn handle_map(shared: &Arc<Shared>, request: MapRequest) -> (Json, Option<Ticket>) {
    let ticket = match shared.admission.try_admit() {
        Ok(ticket) => ticket,
        Err(Reject::Busy { retry_after_ms }) => {
            return (
                error_frame(
                    Some(&request.id),
                    "busy",
                    "admission queue is full",
                    Some(retry_after_ms),
                ),
                None,
            )
        }
        Err(Reject::Draining) => {
            return (
                error_frame(
                    Some(&request.id),
                    "draining",
                    "service is draining and accepts no new work",
                    None,
                ),
                None,
            )
        }
    };
    (run_admitted_map(shared, request), Some(ticket))
}

/// The admitted portion of a map request. The caller holds the
/// admission ticket until the returned frame is flushed.
fn run_admitted_map(shared: &Arc<Shared>, request: MapRequest) -> Json {
    let text = match &request.source {
        CircuitSource::Blif(text) => text.clone(),
        CircuitSource::Path(path) => match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                return error_frame(
                    Some(&request.id),
                    "bad_input",
                    &format!("cannot read {path:?}: {e}"),
                    None,
                )
            }
        },
    };
    let circuit = match blif::parse(&text) {
        Ok(circuit) => circuit,
        Err(e) => {
            return error_frame(Some(&request.id), "bad_input", &e.to_string(), None);
        }
    };

    // Register the cancel token; a duplicate in-flight id would make
    // `cancel` ambiguous, so it is refused outright.
    let token = CancelToken::new();
    match shared
        .cancels
        .lock()
        .expect("cancel map poisoned")
        .entry(request.id.clone())
    {
        Entry::Occupied(_) => {
            return error_frame(
                Some(&request.id),
                "bad_frame",
                "a map request with this id is already in flight",
                None,
            )
        }
        Entry::Vacant(slot) => {
            slot.insert(token.clone());
        }
    }

    let outcome = submit_and_wait(shared, &request, circuit, &text, token);
    shared
        .cancels
        .lock()
        .expect("cancel map poisoned")
        .remove(&request.id);

    match outcome {
        None => error_frame(
            Some(&request.id),
            "draining",
            "service is draining and accepts no new work",
            None,
        ),
        Some(outcome) => match &outcome.result {
            Ok(report) => result_frame(&request.id, &outcome, report),
            Err(e) => error_frame(
                Some(&request.id),
                synthesis_error_code(e),
                &e.to_string(),
                None,
            ),
        },
    }
}

/// Routes the job to its engine and blocks for the outcome. `None`
/// means the pool is already torn down (drain lost the race).
fn submit_and_wait(
    shared: &Arc<Shared>,
    request: &MapRequest,
    circuit: turbosyn_netlist::Circuit,
    text: &str,
    token: CancelToken,
) -> Option<MapOutcome> {
    let mut budget = Budget::unlimited().with_cancel(token);
    if let Some(ms) = request.timeout_ms {
        budget = budget.with_deadline(Duration::from_millis(ms));
    }
    if let Some(n) = request.max_work {
        budget = budget.with_max_work(n);
    }
    if let Some(n) = request.max_sweeps {
        budget = budget.with_max_sweeps(n);
    }
    let opts = MapOptions {
        k: request.k,
        max_wires: request.max_wires,
        jobs: request.jobs,
        pack: request.pack,
        minimize_registers: request.minimize_registers,
        budget,
        ..MapOptions::default()
    };
    let (reply, receive) = mpsc::sync_channel(1);
    let job = MapJob {
        circuit,
        opts,
        algorithm: request.algorithm,
        admitted_at: std::time::Instant::now(),
        reply,
    };
    {
        let guard = shared.pool.lock().expect("pool poisoned");
        let pool = guard.as_ref()?;
        pool.submit(fingerprint(text), job).ok()?;
    }
    receive.recv().ok()
}

fn result_frame(id: &str, outcome: &MapOutcome, report: &MapReport) -> Json {
    let status = if report.degradation.is_some() {
        "degraded"
    } else {
        "ok"
    };
    Json::obj(vec![
        ("type", Json::from("result")),
        ("id", Json::from(id)),
        ("status", Json::from(status)),
        ("worker", Json::from(outcome.worker)),
        ("cache", cache_stats_to_json(&outcome.cache_delta)),
        ("work", label_stats_to_json(&outcome.work_delta)),
        (
            "timing",
            Json::obj(vec![
                ("queue_ms", Json::from(outcome.queue_ms)),
                ("run_ms", Json::from(outcome.run_ms)),
            ]),
        ),
        ("report", report_to_json(report)),
    ])
}

fn stats_frame(shared: &Arc<Shared>, id: &str) -> Json {
    let in_flight = shared.in_flight();
    let depth = shared.admission.depth();
    let engines: Vec<Json> = shared
        .pool
        .lock()
        .expect("pool poisoned")
        .as_ref()
        .map(Pool::worker_stats)
        .unwrap_or_default()
        .into_iter()
        .map(|w| {
            Json::obj(vec![
                ("served", Json::from(w.served)),
                ("degraded", Json::from(w.degraded)),
                ("failed", Json::from(w.failed)),
                ("cache", cache_stats_to_json(&w.cache)),
                ("work", label_stats_to_json(&w.work)),
            ])
        })
        .collect();
    let (served, degraded, failed) = engines.iter().fold((0u64, 0u64, 0u64), |acc, e| {
        let get = |k: &str| e.get(k).and_then(Json::as_u64).unwrap_or(0);
        (
            acc.0 + get("served"),
            acc.1 + get("degraded"),
            acc.2 + get("failed"),
        )
    });
    Json::obj(vec![
        ("type", Json::from("stats")),
        ("id", Json::from(id)),
        ("workers", Json::from(shared.config.jobs.max(1))),
        ("queue_cap", Json::from(shared.admission.cap())),
        ("queue_depth", Json::from(depth.saturating_sub(in_flight))),
        ("in_flight", Json::from(in_flight)),
        ("served", Json::from(served)),
        ("degraded", Json::from(degraded)),
        ("failed", Json::from(failed)),
        ("rejected", Json::from(shared.admission.rejected())),
        (
            "cancelled",
            Json::from(shared.cancelled.load(Ordering::Relaxed)),
        ),
        ("draining", Json::from(shared.admission.is_draining())),
        ("engines", Json::Arr(engines)),
    ])
}

/// The `metrics` response: per-phase trace aggregates. `"workers"`
/// holds one summary per pool worker (worker order); `"phases"` is the
/// pool-wide merge of all of them. Only completed jobs contribute —
/// each worker drains its engine's sink after a job finishes.
fn metrics_frame(shared: &Arc<Shared>, id: &str) -> Json {
    let summaries = shared
        .pool
        .lock()
        .expect("pool poisoned")
        .as_ref()
        .map(Pool::worker_metrics)
        .unwrap_or_default();
    let mut pool_wide = turbosyn::trace::Summary::default();
    let workers: Vec<Json> = summaries
        .iter()
        .enumerate()
        .map(|(index, summary)| {
            pool_wide.merge(summary);
            let mut obj = summary_to_json(summary);
            if let Json::Obj(pairs) = &mut obj {
                pairs.insert(0, ("worker".into(), Json::from(index as u64)));
            }
            obj
        })
        .collect();
    let merged = summary_to_json(&pool_wide);
    Json::obj(vec![
        ("type", Json::from("metrics")),
        ("id", Json::from(id)),
        (
            "spans",
            merged.get("spans").cloned().unwrap_or(Json::Int(0)),
        ),
        (
            "span_ns",
            merged.get("span_ns").cloned().unwrap_or(Json::Int(0)),
        ),
        (
            "phases",
            merged.get("phases").cloned().unwrap_or(Json::Arr(vec![])),
        ),
        (
            "counters",
            merged.get("counters").cloned().unwrap_or(Json::Arr(vec![])),
        ),
        ("workers", Json::Arr(workers)),
    ])
}

fn write_frame<W: Write>(w: &mut W, frame: &Json) -> std::io::Result<()> {
    let mut line = frame.write();
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Serves one session over stdin/stdout, then drains and joins the
/// workers. Returns when the peer closes stdin or sends `shutdown`.
pub fn run_stdio(config: ServeConfig) {
    let shared = Shared::new(config);
    {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let mut reader = stdin.lock();
        let mut writer = stdout.lock();
        serve_connection(&shared, &mut reader, &mut writer);
    }
    shared.admission.begin_drain();
    shared.finish_drain();
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbosyn_netlist::gen;

    /// Runs `frames` through one in-memory session and returns the
    /// response lines.
    fn session(config: ServeConfig, frames: &str) -> Vec<String> {
        let shared = Shared::new(config);
        let mut reader = std::io::BufReader::new(frames.as_bytes());
        let mut out: Vec<u8> = Vec::new();
        serve_connection(&shared, &mut reader, &mut out);
        shared.admission.begin_drain();
        shared.finish_drain();
        String::from_utf8(out)
            .expect("responses are UTF-8")
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn ping_stats_and_map_over_one_session() {
        let blif_text = blif::write(&gen::figure1());
        let map = MapRequest::new("r1", blif_text).to_json().write();
        let frames = format!(
            "{{\"type\":\"ping\",\"id\":\"p\"}}\n{map}\n{{\"type\":\"stats\",\"id\":\"s\"}}\n"
        );
        let lines = session(ServeConfig::default(), &frames);
        assert_eq!(lines.len(), 3);
        let pong = Json::parse(&lines[0]).expect("pong json");
        assert_eq!(pong.get("type").and_then(Json::as_str), Some("pong"));
        let result = Json::parse(&lines[1]).expect("result json");
        assert_eq!(result.get("type").and_then(Json::as_str), Some("result"));
        assert_eq!(result.get("status").and_then(Json::as_str), Some("ok"));
        assert!(result.get("report").is_some());
        let work = result.get("work").expect("work section");
        assert!(work.get("sweeps").and_then(Json::as_u64).unwrap_or(0) > 0);
        let stats = Json::parse(&lines[2]).expect("stats json");
        assert_eq!(stats.get("served").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("in_flight").and_then(Json::as_u64), Some(0));
        let engines = stats.get("engines").and_then(Json::as_arr).expect("array");
        let engine_sweeps: u64 = engines
            .iter()
            .map(|e| {
                e.get("work")
                    .and_then(|w| w.get("sweeps"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(
            engine_sweeps,
            work.get("sweeps").and_then(Json::as_u64).unwrap_or(0),
            "the one served request accounts for all engine work"
        );
    }

    #[test]
    fn malformed_frames_get_typed_errors_and_session_survives() {
        let frames = "this is not json\n{\"type\":\"nope\",\"id\":\"x\"}\n{\"type\":\"ping\",\"id\":\"p\"}\n";
        let lines = session(ServeConfig::default(), frames);
        assert_eq!(lines.len(), 3);
        let e1 = Json::parse(&lines[0]).expect("error json");
        assert_eq!(e1.get("code").and_then(Json::as_str), Some("bad_json"));
        let e2 = Json::parse(&lines[1]).expect("error json");
        assert_eq!(e2.get("code").and_then(Json::as_str), Some("bad_frame"));
        let pong = Json::parse(&lines[2]).expect("pong json");
        assert_eq!(pong.get("type").and_then(Json::as_str), Some("pong"));
    }

    #[test]
    fn shutdown_frame_acks_then_ends_the_session() {
        let frames = "{\"type\":\"shutdown\",\"id\":\"q\"}\n{\"type\":\"ping\",\"id\":\"p\"}\n";
        let lines = session(ServeConfig::default(), frames);
        assert_eq!(lines.len(), 1, "nothing is served after the shutdown ack");
        let ack = Json::parse(&lines[0]).expect("ack json");
        assert_eq!(
            ack.get("type").and_then(Json::as_str),
            Some("shutting_down")
        );
    }
}
