//! A blocking client for the turbosyn-serve wire protocol.
//!
//! One [`Client`] owns one TCP connection and issues requests strictly
//! in order (the protocol answers in order too, so request/response
//! pairing is positional). For concurrent requests, open one client per
//! thread — the server multiplexes across connections, not within one.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use turbosyn::LabelStats;
use turbosyn_json::Json;

use crate::proto::{label_stats_from_json, read_frame, MapRequest, ProtoError, DEFAULT_MAX_LINE};

/// Why a client call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The transport failed (connect, read, or write).
    Io(String),
    /// The server's bytes violated the protocol.
    Protocol(ProtoError),
    /// The server answered with an `error` frame.
    Server {
        /// Machine-readable error code (`busy`, `bad_input`, ...).
        code: String,
        /// Human-readable detail.
        message: String,
        /// Backoff hint, present on `busy` rejections.
        retry_after_ms: Option<u64>,
    },
    /// The server answered with a frame of the wrong type.
    UnexpectedReply(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(msg) => write!(f, "transport error: {msg}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Server {
                code,
                message,
                retry_after_ms,
            } => {
                write!(f, "server error [{code}]: {message}")?;
                if let Some(ms) = retry_after_ms {
                    write!(f, " (retry after {ms} ms)")?;
                }
                Ok(())
            }
            ClientError::UnexpectedReply(kind) => {
                write!(f, "unexpected reply frame of type {kind:?}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e.to_string())
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> ClientError {
        ClientError::Protocol(e)
    }
}

/// A successful map response, decoded.
#[derive(Debug, Clone)]
pub struct MapResponse {
    /// The canonical report object — byte-identical, re-serialized, to
    /// the one-shot CLI's `--emit-json` output for the same input.
    pub report: Json,
    /// `true` when the server answered `status: "degraded"`.
    pub degraded: bool,
    /// Index of the engine worker that served the request.
    pub worker: u64,
    /// Label-work counter increments attributable to this request alone.
    pub work: LabelStats,
    /// Milliseconds spent admitted-but-queued.
    pub queue_ms: u64,
    /// Milliseconds spent inside the mapper.
    pub run_ms: u64,
}

/// Process-wide connection counter: request ids are
/// `c<connection>-<sequence>`, so concurrent clients in one process
/// never collide in the server's (global) in-flight id namespace.
static CONNECTION_SEQ: AtomicU64 = AtomicU64::new(0);

/// A blocking connection to a turbosyn-serve instance.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    connection: u64,
    next_id: u64,
    max_line: usize,
}

impl Client {
    /// Connects to `addr` (e.g. `"127.0.0.1:9317"`).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the connection cannot be established.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let writer = TcpStream::connect(addr)?;
        Ok(Self::from_stream(writer)?)
    }

    fn from_stream(writer: TcpStream) -> Result<Client, std::io::Error> {
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            reader,
            writer,
            connection: CONNECTION_SEQ.fetch_add(1, Ordering::Relaxed),
            next_id: 0,
            max_line: DEFAULT_MAX_LINE,
        })
    }

    /// Lowers (or raises) the response-frame byte ceiling.
    pub fn set_max_line(&mut self, max_line: usize) {
        self.max_line = max_line;
    }

    /// A fresh request id, unique across every client in this process.
    pub fn next_id(&mut self) -> String {
        self.next_id += 1;
        format!("c{}-{}", self.connection, self.next_id)
    }

    fn round_trip(&mut self, frame: &Json) -> Result<Json, ClientError> {
        let mut line = frame.write();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let reply = read_frame(&mut self.reader, self.max_line)?
            .ok_or_else(|| ClientError::Io("server closed the connection".into()))?;
        let reply =
            Json::parse(&reply).map_err(|e| ClientError::Protocol(ProtoError::BadJson(e)))?;
        if reply.get("type").and_then(Json::as_str) == Some("error") {
            return Err(ClientError::Server {
                code: reply
                    .get("code")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                message: reply
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                retry_after_ms: reply.get("retry_after_ms").and_then(Json::as_u64),
            });
        }
        Ok(reply)
    }

    fn expect_type(reply: Json, want: &str) -> Result<Json, ClientError> {
        let kind = reply
            .get("type")
            .and_then(Json::as_str)
            .unwrap_or("missing")
            .to_string();
        if kind == want {
            Ok(reply)
        } else {
            Err(ClientError::UnexpectedReply(kind))
        }
    }

    /// Submits a map request and blocks for its result.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] carries the server's typed rejection
    /// (`busy` with a retry hint, `bad_input`, `budget_exceeded`,
    /// `cancelled`, `draining`, ...); the other variants are transport
    /// or protocol failures.
    pub fn map(&mut self, request: &MapRequest) -> Result<MapResponse, ClientError> {
        let reply = self.round_trip(&request.to_json())?;
        let reply = Self::expect_type(reply, "result")?;
        let report = reply
            .get("report")
            .cloned()
            .ok_or_else(|| ClientError::UnexpectedReply("result without report".into()))?;
        let timing = reply.get("timing");
        let timing_ms = |key: &str| {
            timing
                .and_then(|t| t.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        Ok(MapResponse {
            degraded: reply.get("status").and_then(Json::as_str) == Some("degraded"),
            worker: reply.get("worker").and_then(Json::as_u64).unwrap_or(0),
            work: reply
                .get("work")
                .map(label_stats_from_json)
                .unwrap_or_default(),
            queue_ms: timing_ms("queue_ms"),
            run_ms: timing_ms("run_ms"),
            report,
        })
    }

    /// Convenience: map inline BLIF text with default options.
    ///
    /// # Errors
    ///
    /// As for [`Client::map`].
    pub fn map_blif(&mut self, blif_text: &str) -> Result<MapResponse, ClientError> {
        let id = self.next_id();
        self.map(&MapRequest::new(id, blif_text))
    }

    /// Fetches the service counters frame.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        let id = self.next_id();
        let frame = Json::obj(vec![("type", Json::from("stats")), ("id", Json::from(id))]);
        Self::expect_type(self.round_trip(&frame)?, "stats")
    }

    /// Fetches the per-phase trace metrics frame (histograms and span
    /// totals, per worker and pool-wide).
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn metrics(&mut self) -> Result<Json, ClientError> {
        let id = self.next_id();
        let frame = Json::obj(vec![
            ("type", Json::from("metrics")),
            ("id", Json::from(id)),
        ]);
        Self::expect_type(self.round_trip(&frame)?, "metrics")
    }

    /// Requests cancellation of an in-flight map request (submitted on
    /// *another* connection — this one is busy waiting if it submitted).
    /// Returns whether the target was found still running.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn cancel(&mut self, target: &str) -> Result<bool, ClientError> {
        let id = self.next_id();
        let frame = Json::obj(vec![
            ("type", Json::from("cancel")),
            ("id", Json::from(id)),
            ("target", Json::from(target)),
        ]);
        let reply = Self::expect_type(self.round_trip(&frame)?, "cancelled")?;
        Ok(reply.get("found").and_then(Json::as_bool).unwrap_or(false))
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let id = self.next_id();
        let frame = Json::obj(vec![("type", Json::from("ping")), ("id", Json::from(id))]);
        Self::expect_type(self.round_trip(&frame)?, "pong").map(|_| ())
    }

    /// Asks the server to drain and exit. The server acks, finishes
    /// in-flight work, and then terminates.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let id = self.next_id();
        let frame = Json::obj(vec![
            ("type", Json::from("shutdown")),
            ("id", Json::from(id)),
        ]);
        Self::expect_type(self.round_trip(&frame)?, "shutting_down").map(|_| ())
    }

    /// Brief connect timeout wrapper used by retry loops.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when no connection within `timeout`.
    pub fn connect_timeout(
        addr: &std::net::SocketAddr,
        timeout: Duration,
    ) -> Result<Client, ClientError> {
        let writer = TcpStream::connect_timeout(addr, timeout)?;
        Ok(Self::from_stream(writer)?)
    }
}
