//! The wire protocol: line-delimited JSON frames.
//!
//! Every frame is one JSON object on one `\n`-terminated line, in both
//! directions. Requests:
//!
//! ```json
//! {"type":"map","id":"r1","blif":"...BLIF text...","k":5,"timeout_ms":2000}
//! {"type":"map","id":"r2","path":"designs/s420.blif"}
//! {"type":"cancel","id":"c1","target":"r1"}
//! {"type":"stats","id":"s1"}
//! {"type":"metrics","id":"m1"}
//! {"type":"ping","id":"p1"}
//! {"type":"shutdown","id":"q1"}
//! ```
//!
//! Responses (`type` is `result`, `error`, `stats`, `metrics`,
//! `cancelled`, `pong`, or `shutting_down`) echo the request `id`. A `result` frame
//! carries the canonical [`MapReport` JSON](turbosyn::report_json)
//! under `"report"` — byte-identical to the one-shot CLI's
//! `--emit-json` output — plus per-request label-work deltas (`"work"`:
//! sweeps, cut tests, worklist skips, warm starts) and a timing breakdown
//! (`"timing"`), both deliberately *outside* the report object, because
//! timing and work depend on the engine's lineage history while the
//! report must stay a pure function of the input.
//!
//! Hostile input never panics the reader: oversized lines, truncated
//! frames, invalid UTF-8, malformed JSON, and schema violations each
//! map to a typed [`ProtoError`] (and, through
//! `From<ProtoError> for SynthesisError`, onto the engine's
//! established error surface).

use std::io::BufRead;
use turbosyn::{LabelStats, SynthesisError};
use turbosyn_json::{Json, JsonError};

/// Default ceiling on one frame's byte length (BLIF payloads included).
pub const DEFAULT_MAX_LINE: usize = 16 * 1024 * 1024;

/// What went wrong while reading or decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The line exceeded the configured byte ceiling.
    LineTooLong {
        /// The configured ceiling.
        limit: usize,
    },
    /// The stream ended in the middle of a frame (no terminating `\n`).
    Truncated,
    /// The frame bytes were not valid UTF-8.
    InvalidUtf8,
    /// The frame was not valid JSON.
    BadJson(JsonError),
    /// The frame was valid JSON but violated the request schema.
    BadFrame(String),
    /// The underlying transport failed.
    Io(String),
}

impl ProtoError {
    /// Stable machine-readable code, carried in `error` responses.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            ProtoError::LineTooLong { .. } => "line_too_long",
            ProtoError::Truncated => "truncated_frame",
            ProtoError::InvalidUtf8 => "invalid_utf8",
            ProtoError::BadJson(_) => "bad_json",
            ProtoError::BadFrame(_) => "bad_frame",
            ProtoError::Io(_) => "io",
        }
    }

    /// Whether the connection can keep serving after this error. Frame
    /// *content* problems are recoverable (the line was fully consumed);
    /// transport-level problems leave the stream position undefined.
    #[must_use]
    pub fn is_recoverable(&self) -> bool {
        matches!(self, ProtoError::BadJson(_) | ProtoError::BadFrame(_))
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::LineTooLong { limit } => {
                write!(f, "frame exceeds the {limit}-byte line limit")
            }
            ProtoError::Truncated => write!(f, "truncated frame: stream ended before '\\n'"),
            ProtoError::InvalidUtf8 => write!(f, "frame is not valid UTF-8"),
            ProtoError::BadJson(e) => write!(f, "malformed JSON: {e}"),
            ProtoError::BadFrame(msg) => write!(f, "invalid frame: {msg}"),
            ProtoError::Io(msg) => write!(f, "transport error: {msg}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<ProtoError> for SynthesisError {
    fn from(e: ProtoError) -> SynthesisError {
        SynthesisError::InvalidInput(format!("protocol ({}): {e}", e.code()))
    }
}

/// Reads one `\n`-terminated frame, enforcing `max_line`.
///
/// Returns `Ok(None)` on a clean end-of-stream (no pending bytes).
///
/// # Errors
///
/// [`ProtoError::LineTooLong`], [`ProtoError::Truncated`] (EOF with a
/// partial frame pending), [`ProtoError::InvalidUtf8`], or
/// [`ProtoError::Io`]. The byte cap is enforced *while* reading, so a
/// hostile peer cannot balloon memory by never sending a newline.
pub fn read_frame<R: BufRead>(r: &mut R, max_line: usize) -> Result<Option<String>, ProtoError> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let available = match r.fill_buf() {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtoError::Io(e.to_string())),
        };
        if available.is_empty() {
            return if buf.is_empty() {
                Ok(None)
            } else {
                Err(ProtoError::Truncated)
            };
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.map_or(available.len(), |i| i);
        if buf.len() + take > max_line {
            return Err(ProtoError::LineTooLong { limit: max_line });
        }
        buf.extend_from_slice(&available[..take]);
        let consumed = newline.map_or(take, |i| i + 1);
        r.consume(consumed);
        if newline.is_some() {
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return match String::from_utf8(buf) {
                Ok(s) => Ok(Some(s)),
                Err(_) => Err(ProtoError::InvalidUtf8),
            };
        }
    }
}

/// Where a map request's circuit comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitSource {
    /// Inline BLIF text.
    Blif(String),
    /// A filesystem path the server reads.
    Path(String),
}

/// The mapping algorithm requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// The paper's contribution (default).
    #[default]
    TurboSyn,
    /// The no-resynthesis baseline.
    TurboMap,
    /// Per-subcircuit combinational FlowSYN.
    FlowSynS,
}

impl Algorithm {
    /// The protocol name (matches the CLI's `-a` values).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::TurboSyn => "turbosyn",
            Algorithm::TurboMap => "turbomap",
            Algorithm::FlowSynS => "flowsyn-s",
        }
    }

    fn parse(name: &str) -> Result<Algorithm, ProtoError> {
        match name {
            "turbosyn" => Ok(Algorithm::TurboSyn),
            "turbomap" => Ok(Algorithm::TurboMap),
            "flowsyn-s" => Ok(Algorithm::FlowSynS),
            other => Err(ProtoError::BadFrame(format!("unknown algorithm {other:?}"))),
        }
    }
}

/// A fully validated `map` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapRequest {
    /// Caller-chosen id, echoed in the response and usable as a
    /// `cancel` target while in flight.
    pub id: String,
    /// The circuit to map.
    pub source: CircuitSource,
    /// LUT input count (2..=8, the CLI's supported range).
    pub k: usize,
    /// Which mapper to run.
    pub algorithm: Algorithm,
    /// Decomposition wires (1..=2).
    pub max_wires: usize,
    /// Label-sweep worker threads inside the engine (results are
    /// identical for every value).
    pub jobs: usize,
    /// Run the LUT packing pass.
    pub pack: bool,
    /// Run exact register minimization.
    pub minimize_registers: bool,
    /// Per-request wall-clock budget.
    pub timeout_ms: Option<u64>,
    /// Expanded-node work budget.
    pub max_work: Option<u64>,
    /// Labeling sweep cap per φ probe.
    pub max_sweeps: Option<u64>,
}

impl MapRequest {
    /// A request with inline BLIF and default options (K = 5, TurboSYN).
    #[must_use]
    pub fn new(id: impl Into<String>, blif: impl Into<String>) -> MapRequest {
        MapRequest {
            id: id.into(),
            source: CircuitSource::Blif(blif.into()),
            k: 5,
            algorithm: Algorithm::default(),
            max_wires: 1,
            jobs: 1,
            pack: true,
            minimize_registers: false,
            timeout_ms: None,
            max_work: None,
            max_sweeps: None,
        }
    }

    /// Serializes to the wire frame (client side).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("type", Json::from("map")),
            ("id", Json::from(self.id.clone())),
        ];
        match &self.source {
            CircuitSource::Blif(text) => pairs.push(("blif", Json::from(text.clone()))),
            CircuitSource::Path(path) => pairs.push(("path", Json::from(path.clone()))),
        }
        pairs.push(("k", Json::from(self.k)));
        pairs.push(("algorithm", Json::from(self.algorithm.name())));
        pairs.push(("max_wires", Json::from(self.max_wires)));
        pairs.push(("jobs", Json::from(self.jobs)));
        pairs.push(("pack", Json::from(self.pack)));
        pairs.push(("minimize_registers", Json::from(self.minimize_registers)));
        if let Some(ms) = self.timeout_ms {
            pairs.push(("timeout_ms", Json::from(ms)));
        }
        if let Some(n) = self.max_work {
            pairs.push(("max_work", Json::from(n)));
        }
        if let Some(n) = self.max_sweeps {
            pairs.push(("max_sweeps", Json::from(n)));
        }
        Json::obj(pairs)
    }
}

/// Any decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Map a circuit.
    Map(Box<MapRequest>),
    /// Cancel an in-flight map request by its id.
    Cancel {
        /// This frame's own id.
        id: String,
        /// The id of the map request to cancel.
        target: String,
    },
    /// Report service counters.
    Stats {
        /// This frame's id.
        id: String,
    },
    /// Report per-phase trace aggregates (histograms, span totals) per
    /// worker and pool-wide.
    Metrics {
        /// This frame's id.
        id: String,
    },
    /// Liveness probe.
    Ping {
        /// This frame's id.
        id: String,
    },
    /// Begin a graceful drain: finish in-flight work, refuse new maps,
    /// exit once idle.
    Shutdown {
        /// This frame's id.
        id: String,
    },
}

impl Request {
    /// The frame id (always present — it is required by the schema).
    #[must_use]
    pub fn id(&self) -> &str {
        match self {
            Request::Map(m) => &m.id,
            Request::Cancel { id, .. }
            | Request::Stats { id }
            | Request::Metrics { id }
            | Request::Ping { id }
            | Request::Shutdown { id } => id,
        }
    }

    /// Decodes and validates one request frame.
    ///
    /// # Errors
    ///
    /// [`ProtoError::BadJson`] for syntax problems, otherwise
    /// [`ProtoError::BadFrame`] naming the schema violation (missing or
    /// mistyped fields, unknown keys, out-of-range option values).
    pub fn parse(line: &str) -> Result<Request, ProtoError> {
        let root = Json::parse(line).map_err(ProtoError::BadJson)?;
        let pairs = root
            .as_obj()
            .ok_or_else(|| ProtoError::BadFrame("frame must be a JSON object".into()))?;
        let kind = str_field(&root, "type")?;
        let id = str_field(&root, "id")?;
        match kind.as_str() {
            "map" => Ok(Request::Map(Box::new(parse_map(&root, pairs, id)?))),
            "cancel" => {
                reject_unknown_keys(pairs, &["type", "id", "target"])?;
                Ok(Request::Cancel {
                    id,
                    target: str_field(&root, "target")?,
                })
            }
            "stats" => {
                reject_unknown_keys(pairs, &["type", "id"])?;
                Ok(Request::Stats { id })
            }
            "metrics" => {
                reject_unknown_keys(pairs, &["type", "id"])?;
                Ok(Request::Metrics { id })
            }
            "ping" => {
                reject_unknown_keys(pairs, &["type", "id"])?;
                Ok(Request::Ping { id })
            }
            "shutdown" => {
                reject_unknown_keys(pairs, &["type", "id"])?;
                Ok(Request::Shutdown { id })
            }
            other => Err(ProtoError::BadFrame(format!(
                "unknown request type {other:?}"
            ))),
        }
    }
}

const MAP_KEYS: &[&str] = &[
    "type",
    "id",
    "blif",
    "path",
    "k",
    "algorithm",
    "max_wires",
    "jobs",
    "pack",
    "minimize_registers",
    "timeout_ms",
    "max_work",
    "max_sweeps",
];

fn parse_map(root: &Json, pairs: &[(String, Json)], id: String) -> Result<MapRequest, ProtoError> {
    reject_unknown_keys(pairs, MAP_KEYS)?;
    let source = match (root.get("blif"), root.get("path")) {
        (Some(b), None) => CircuitSource::Blif(
            b.as_str()
                .ok_or_else(|| bad_type("blif", "a string"))?
                .to_string(),
        ),
        (None, Some(p)) => CircuitSource::Path(
            p.as_str()
                .ok_or_else(|| bad_type("path", "a string"))?
                .to_string(),
        ),
        (Some(_), Some(_)) => {
            return Err(ProtoError::BadFrame(
                "\"blif\" and \"path\" are mutually exclusive".into(),
            ))
        }
        (None, None) => {
            return Err(ProtoError::BadFrame(
                "map request needs \"blif\" or \"path\"".into(),
            ))
        }
    };
    Ok(MapRequest {
        k: usize_field(root, "k", 5, 2..=8)?,
        algorithm: match root.get("algorithm") {
            None => Algorithm::default(),
            Some(v) => Algorithm::parse(
                v.as_str()
                    .ok_or_else(|| bad_type("algorithm", "a string"))?,
            )?,
        },
        max_wires: usize_field(root, "max_wires", 1, 1..=2)?,
        jobs: usize_field(root, "jobs", 1, 1..=256)?,
        pack: bool_field(root, "pack", true)?,
        minimize_registers: bool_field(root, "minimize_registers", false)?,
        timeout_ms: opt_u64_field(root, "timeout_ms")?,
        max_work: opt_u64_field(root, "max_work")?,
        max_sweeps: opt_u64_field(root, "max_sweeps")?,
        id,
        source,
    })
}

fn reject_unknown_keys(pairs: &[(String, Json)], allowed: &[&str]) -> Result<(), ProtoError> {
    for (key, _) in pairs {
        if !allowed.contains(&key.as_str()) {
            return Err(ProtoError::BadFrame(format!("unknown key {key:?}")));
        }
    }
    Ok(())
}

fn bad_type(key: &str, want: &str) -> ProtoError {
    ProtoError::BadFrame(format!("\"{key}\" must be {want}"))
}

fn str_field(root: &Json, key: &str) -> Result<String, ProtoError> {
    root.get(key)
        .ok_or_else(|| ProtoError::BadFrame(format!("missing \"{key}\"")))?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| bad_type(key, "a string"))
}

fn bool_field(root: &Json, key: &str, default: bool) -> Result<bool, ProtoError> {
    match root.get(key) {
        None => Ok(default),
        Some(v) => v.as_bool().ok_or_else(|| bad_type(key, "a boolean")),
    }
}

fn usize_field(
    root: &Json,
    key: &str,
    default: usize,
    range: std::ops::RangeInclusive<usize>,
) -> Result<usize, ProtoError> {
    let v = match root.get(key) {
        None => return Ok(default),
        Some(v) => v
            .as_usize()
            .ok_or_else(|| bad_type(key, "a non-negative integer"))?,
    };
    if !range.contains(&v) {
        return Err(ProtoError::BadFrame(format!(
            "\"{key}\" = {v} out of the supported range {}..={}",
            range.start(),
            range.end()
        )));
    }
    Ok(v)
}

fn opt_u64_field(root: &Json, key: &str) -> Result<Option<u64>, ProtoError> {
    match root.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad_type(key, "a non-negative integer")),
    }
}

/// Decodes a `work` object back into [`LabelStats`] (client side).
/// Missing counters read as 0, so newer clients stay compatible with
/// older servers.
#[must_use]
pub fn label_stats_from_json(j: &Json) -> LabelStats {
    let get = |key: &str| j.get(key).and_then(Json::as_u64).unwrap_or(0);
    LabelStats {
        sweeps: get("sweeps"),
        cut_tests: get("cut_tests"),
        resyn_attempts: get("resyn_attempts"),
        resyn_successes: get("resyn_successes"),
        candidates_skipped: get("candidates_skipped"),
        warm_started_probes: get("warm_started_probes"),
        pld_checks_skipped: get("pld_checks_skipped"),
    }
}

/// Builds an `error` response frame.
#[must_use]
pub fn error_frame(
    id: Option<&str>,
    code: &str,
    message: &str,
    retry_after_ms: Option<u64>,
) -> Json {
    let mut pairs = vec![
        ("type", Json::from("error")),
        ("id", id.map_or(Json::Null, Json::from)),
        ("code", Json::from(code)),
        ("message", Json::from(message)),
    ];
    if let Some(ms) = retry_after_ms {
        pairs.push(("retry_after_ms", Json::from(ms)));
    }
    Json::obj(pairs)
}

/// Maps a [`SynthesisError`] onto the wire error code space (the same
/// partition the CLI's exit codes use).
#[must_use]
pub fn synthesis_error_code(e: &SynthesisError) -> &'static str {
    match e {
        SynthesisError::InvalidInput(_)
        | SynthesisError::Blif(_)
        | SynthesisError::TooManyVars { .. } => "bad_input",
        SynthesisError::BudgetExceeded { .. } => "budget_exceeded",
        SynthesisError::Cancelled => "cancelled",
        SynthesisError::Verify(_) | SynthesisError::Internal(_) => "internal",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn map_request_round_trips_through_the_wire_form() {
        let mut req = MapRequest::new("r1", ".model m\n.inputs a\n.outputs y\n.end\n");
        req.k = 4;
        req.algorithm = Algorithm::TurboMap;
        req.timeout_ms = Some(250);
        req.max_sweeps = Some(10_000);
        let line = req.to_json().write();
        match Request::parse(&line).expect("parses") {
            Request::Map(parsed) => assert_eq!(*parsed, req),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn non_map_requests_parse() {
        let cases = [
            (
                "{\"type\":\"stats\",\"id\":\"s\"}",
                Request::Stats { id: "s".into() },
            ),
            (
                "{\"type\":\"ping\",\"id\":\"p\"}",
                Request::Ping { id: "p".into() },
            ),
            (
                "{\"type\":\"shutdown\",\"id\":\"q\"}",
                Request::Shutdown { id: "q".into() },
            ),
            (
                "{\"type\":\"cancel\",\"id\":\"c\",\"target\":\"r9\"}",
                Request::Cancel {
                    id: "c".into(),
                    target: "r9".into(),
                },
            ),
        ];
        for (line, want) in cases {
            assert_eq!(Request::parse(line).expect(line), want);
        }
    }

    #[test]
    fn read_frame_handles_eof_crlf_and_caps() {
        let mut r = BufReader::new("{\"a\":1}\r\n{\"b\":2}\n".as_bytes());
        assert_eq!(
            read_frame(&mut r, 64).expect("frame"),
            Some("{\"a\":1}".to_string()),
            "CRLF is tolerated"
        );
        assert_eq!(
            read_frame(&mut r, 64).expect("frame"),
            Some("{\"b\":2}".to_string())
        );
        assert_eq!(read_frame(&mut r, 64).expect("eof"), None);

        let mut long = "x".repeat(100).into_bytes();
        long.push(b'\n');
        let err = read_frame(&mut BufReader::new(&long[..]), 10).expect_err("too long");
        assert_eq!(err, ProtoError::LineTooLong { limit: 10 });
    }

    #[test]
    fn errors_expose_codes_and_synthesis_surface() {
        let e = ProtoError::Truncated;
        assert_eq!(e.code(), "truncated_frame");
        assert!(!e.is_recoverable());
        let s: SynthesisError = e.into();
        assert!(matches!(s, SynthesisError::InvalidInput(_)));
        assert!(s.to_string().contains("truncated_frame"));
        assert!(ProtoError::BadFrame("x".into()).is_recoverable());
    }

    #[test]
    fn error_frame_shape() {
        let f = error_frame(Some("r1"), "busy", "queue full", Some(50));
        assert_eq!(
            f.write(),
            "{\"type\":\"error\",\"id\":\"r1\",\"code\":\"busy\",\
             \"message\":\"queue full\",\"retry_after_ms\":50}"
        );
        let f = error_frame(None, "bad_json", "oops", None);
        assert_eq!(f.get("id"), Some(&Json::Null));
    }
}
