//! Service quickstart: start an in-process turbosyn-serve instance,
//! submit the same circuit twice, and watch the second request replay
//! the warm engine's probe lineage.
//!
//! Run with `cargo run --example service_client`.
//!
//! The same conversation works against a standalone daemon — start one
//! with `turbosyn-serve --listen 127.0.0.1:0 --jobs 4`, read the
//! `LISTENING <addr>` line it prints, and point `Client::connect` at
//! that address.

use turbosyn_json::Json;
use turbosyn_netlist::{blif, gen};
use turbosyn_serve::{Client, MapRequest, ServeConfig, Server};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An ephemeral-port server with two warm engine workers.
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            jobs: 2,
            ..ServeConfig::default()
        },
    )?;
    let addr = server.local_addr().to_string();
    println!("serving on {addr}");

    let mut client = Client::connect(&addr)?;
    client.ping()?;

    // Submit the paper's Figure 1 circuit twice. The fingerprint router
    // pins both requests to the same worker, so the second run replays
    // the φ probes the first one converged.
    let text = blif::write(&gen::figure1());
    for round in ["cold", "warm"] {
        let response = client.map_blif(&text)?;
        let phi = response.report.get("phi").and_then(Json::as_int);
        let luts = response.report.get("lut_count").and_then(Json::as_int);
        println!(
            "{round}: worker={} phi={phi:?} luts={luts:?} \
             warm-started probes={} cut tests={} ({} ms queued, {} ms mapping)",
            response.worker,
            response.work.warm_started_probes,
            response.work.cut_tests,
            response.queue_ms,
            response.run_ms,
        );
    }

    // A per-request budget: this request may degrade (best verified
    // mapping so far) or fail with a typed budget error — but it can
    // never affect any other request's result.
    let mut starved = MapRequest::new(client.next_id(), text.clone());
    starved.timeout_ms = Some(1);
    match client.map(&starved) {
        Ok(response) => println!("budgeted request: degraded={}", response.degraded),
        Err(e) => println!("budgeted request: {e}"),
    }

    let stats = client.stats()?;
    println!(
        "served={} rejected={} draining={}",
        stats.get("served").and_then(Json::as_u64).unwrap_or(0),
        stats.get("rejected").and_then(Json::as_u64).unwrap_or(0),
        stats
            .get("draining")
            .and_then(Json::as_bool)
            .unwrap_or(false),
    );

    // Graceful drain: in-flight work finishes, then wait() returns.
    client.shutdown()?;
    server.wait();
    println!("drained cleanly");
    Ok(())
}
