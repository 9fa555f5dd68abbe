//! turbosyn-serve: a concurrent synthesis service for TurboSYN.
//!
//! A long-running daemon that keeps [`turbosyn::Engine`] caches warm
//! across requests, speaking line-delimited JSON over TCP or
//! stdin/stdout. Built entirely on `std` (TcpListener + threads), like
//! the rest of the workspace.
//!
//! The service is three layers:
//!
//! - [`proto`] — the wire protocol: framing with a hard byte cap,
//!   strict request schemas, and typed errors that never panic on
//!   hostile input.
//! - [`queue`] — admission control: a bounded gate that rejects with a
//!   `retry_after_ms` backpressure hint instead of queueing unboundedly,
//!   and owns the graceful-drain barrier.
//! - [`pool`] — the engine pool: one warm engine per worker thread,
//!   with jobs routed by circuit fingerprint so resubmitting a circuit
//!   always replays the same warm probe lineage, and per-request work
//!   deltas are exact.
//!
//! [`server`] ties them together; [`client`] is the matching blocking
//! client library (used by the `turbosyn-serve --client` mode, the
//! tests, and `examples/service_client.rs`).
//!
//! Result frames embed the *canonical* report encoding from
//! [`turbosyn::report_json`], so a daemon response and the one-shot
//! CLI's `--emit-json` output are byte-identical for the same input.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod pool;
pub mod proto;
pub mod queue;
pub mod server;

pub use client::{Client, ClientError, MapResponse};
pub use pool::{fingerprint, Pool};
pub use proto::{Algorithm, CircuitSource, MapRequest, ProtoError, Request};
pub use queue::{Admission, Reject, Ticket};
pub use server::{run_stdio, ServeConfig, Server, ServerHandle};
