//! End-to-end service tests over real TCP connections.

use std::time::{Duration, Instant};
use turbosyn::{report_to_json, Engine, MapOptions};
use turbosyn_json::Json;
use turbosyn_netlist::gen::{figure1, iscas_like, pipeline, IscasConfig};
use turbosyn_netlist::{blif, Circuit};
use turbosyn_serve::proto::MapRequest;
use turbosyn_serve::{Client, ClientError, ServeConfig, Server};

fn small_circuit(seed: u64) -> Circuit {
    pipeline(6, 10, seed)
}

/// A circuit that maps in high hundreds of milliseconds — long enough
/// that a peer can deterministically observe it in flight.
fn slow_circuit() -> Circuit {
    iscas_like(IscasConfig {
        layers: 10,
        width: 70,
        inputs: 17,
        outputs: 5,
        feedback_pct: 24,
        seed: 203,
    })
}

fn start(config: ServeConfig) -> (Server, String) {
    let server = Server::bind("127.0.0.1:0", config).expect("binds an ephemeral port");
    let addr = server.local_addr().to_string();
    (server, addr)
}

#[test]
fn cold_then_warm_submission_is_byte_identical_and_hits_the_cache() {
    let (server, addr) = start(ServeConfig::default());
    // figure1 maps through resynthesis, so it exercises the
    // decomposition cache (a circuit mapped without resynthesis would
    // show empty deltas).
    let text = blif::write(&figure1());

    // The ground truth: the same engine path the one-shot CLI drives
    // for --emit-json, run in-process.
    let reference = {
        let engine = Engine::new();
        let report = engine
            .turbosyn(&blif::parse(&text).expect("parses"), &MapOptions::default())
            .expect("maps");
        report_to_json(&report).write()
    };

    let mut client = Client::connect(&addr).expect("connects");
    let cold = client.map_blif(&text).expect("cold map");
    let warm = client.map_blif(&text).expect("warm map");

    assert_eq!(
        cold.report.write(),
        reference,
        "daemon report must be byte-identical to the CLI encoding"
    );
    assert_eq!(
        warm.report.write(),
        reference,
        "caching must never change results"
    );
    assert_eq!(cold.worker, warm.worker, "fingerprint pins the worker");
    assert!(
        warm.cache.decomposition_hits > 0,
        "warm run reports cache hits: {:?}",
        warm.cache
    );
    assert!(
        warm.cache.decomposition_misses < cold.cache.decomposition_misses,
        "warm run misses less: warm {:?} vs cold {:?}",
        warm.cache,
        cold.cache
    );

    client.shutdown().expect("shutdown ack");
    server.wait();
}

#[test]
fn four_concurrent_clients_each_get_their_own_answer() {
    let (server, addr) = start(ServeConfig {
        jobs: 4,
        ..ServeConfig::default()
    });
    let texts: Vec<String> = (0..4)
        .map(|i| blif::write(&small_circuit(100 + i)))
        .collect();

    // Reference reports, computed serially in-process.
    let references: Vec<String> = texts
        .iter()
        .map(|t| {
            let engine = Engine::new();
            let report = engine
                .turbosyn(&blif::parse(t).expect("parses"), &MapOptions::default())
                .expect("maps");
            report_to_json(&report).write()
        })
        .collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = texts
            .iter()
            .zip(&references)
            .map(|(text, want)| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).expect("connects");
                    for _ in 0..3 {
                        let response = client.map_blif(text).expect("maps");
                        assert_eq!(
                            response.report.write(),
                            *want,
                            "no cross-request corruption under concurrency"
                        );
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("client thread");
        }
    });

    let mut client = Client::connect(&addr).expect("connects");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("served").and_then(Json::as_u64), Some(12));
    assert_eq!(stats.get("failed").and_then(Json::as_u64), Some(0));
    client.shutdown().expect("shutdown ack");
    server.wait();
}

#[test]
fn budgeted_request_degrades_without_harming_neighbors() {
    let (server, addr) = start(ServeConfig {
        jobs: 2,
        ..ServeConfig::default()
    });
    let starved_text = blif::write(&slow_circuit());
    let neighbor_text = blif::write(&small_circuit(7));

    let neighbor_reference = {
        let engine = Engine::new();
        let report = engine
            .turbosyn(
                &blif::parse(&neighbor_text).expect("parses"),
                &MapOptions::default(),
            )
            .expect("maps");
        report_to_json(&report).write()
    };

    std::thread::scope(|scope| {
        let starved = scope.spawn(|| {
            let mut client = Client::connect(&addr).expect("connects");
            let id = client.next_id();
            let mut request = MapRequest::new(id, starved_text.clone());
            request.timeout_ms = Some(1);
            request.max_work = Some(100);
            client.map(&request)
        });
        let neighbor = scope.spawn(|| {
            let mut client = Client::connect(&addr).expect("connects");
            let mut reports = Vec::new();
            for _ in 0..3 {
                reports.push(client.map_blif(&neighbor_text).expect("neighbor maps"));
            }
            reports
        });

        match starved.join().expect("starved thread") {
            Ok(response) => assert!(
                response.degraded,
                "a starved request that returns a report must be degraded"
            ),
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, "budget_exceeded", "typed budget rejection");
            }
            Err(other) => panic!("unexpected failure: {other}"),
        }
        for response in neighbor.join().expect("neighbor thread") {
            assert!(!response.degraded, "neighbors keep their full budget");
            assert_eq!(
                response.report.write(),
                neighbor_reference,
                "neighbor results are unaffected"
            );
        }
    });

    let mut client = Client::connect(&addr).expect("connects");
    client.shutdown().expect("shutdown ack");
    server.wait();
}

#[test]
fn saturated_service_rejects_with_retry_hint() {
    let (server, addr) = start(ServeConfig {
        jobs: 1,
        queue_cap: 1,
        ..ServeConfig::default()
    });
    let slow_text = blif::write(&slow_circuit());

    std::thread::scope(|scope| {
        let slow = scope.spawn(|| {
            let mut client = Client::connect(&addr).expect("connects");
            client.map_blif(&slow_text).expect("slow map completes")
        });

        // Wait until the slow request is observably admitted.
        let mut probe = Client::connect(&addr).expect("connects");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let stats = probe.stats().expect("stats");
            let busy = stats.get("queue_depth").and_then(Json::as_u64).unwrap_or(0)
                + stats.get("in_flight").and_then(Json::as_u64).unwrap_or(0);
            if busy >= 1 {
                break;
            }
            assert!(Instant::now() < deadline, "slow request never admitted");
            std::thread::sleep(Duration::from_millis(2));
        }

        // The only admission slot is held; a second map must bounce.
        let tiny = blif::write(&small_circuit(7));
        match probe.map_blif(&tiny) {
            Err(ClientError::Server {
                code,
                retry_after_ms,
                ..
            }) => {
                assert_eq!(code, "busy");
                assert!(retry_after_ms.expect("backpressure hint") > 0);
            }
            other => panic!("expected a busy rejection, got {other:?}"),
        }

        slow.join().expect("slow thread");
    });

    let mut client = Client::connect(&addr).expect("connects");
    let stats = client.stats().expect("stats");
    assert!(stats.get("rejected").and_then(Json::as_u64).unwrap_or(0) >= 1);
    client.shutdown().expect("shutdown ack");
    server.wait();
}

/// Pulls `(name, count, bucket-sum)` triples out of a metrics frame's
/// pool-wide `phases` array.
fn metric_phases(frame: &Json) -> Vec<(String, u64, u64)> {
    let Some(Json::Arr(phases)) = frame.get("phases") else {
        panic!("metrics frame has a phases array: {}", frame.write());
    };
    phases
        .iter()
        .map(|phase| {
            let name = match phase.get("name") {
                Some(Json::Str(s)) => s.clone(),
                other => panic!("phase name: {other:?}"),
            };
            let count = phase.get("count").and_then(Json::as_u64).expect("count");
            let Some(Json::Arr(buckets)) = phase.get("buckets") else {
                panic!("phase {name} has buckets");
            };
            let sum = buckets
                .iter()
                .map(|pair| match pair {
                    Json::Arr(kv) => kv[1].as_u64().expect("bucket count"),
                    other => panic!("bucket pair: {other:?}"),
                })
                .sum();
            (name, count, sum)
        })
        .collect()
}

fn phase_count(frame: &Json, name: &str) -> u64 {
    metric_phases(frame)
        .iter()
        .find(|(n, _, _)| n == name)
        .map(|(_, c, _)| *c)
        .unwrap_or(0)
}

#[test]
fn metrics_shows_lineage_replay_and_histograms_stay_consistent() {
    let (server, addr) = start(ServeConfig::default());
    let text = blif::write(&figure1());
    let mut client = Client::connect(&addr).expect("connects");

    // Before any job the frame is well-formed and empty.
    let empty = client.metrics().expect("metrics");
    assert_eq!(empty.get("spans").and_then(Json::as_u64), Some(0));
    assert!(metric_phases(&empty).is_empty());

    client.map_blif(&text).expect("cold map");
    let cold = client.metrics().expect("metrics after cold run");
    client.map_blif(&text).expect("warm map");
    let warm = client.metrics().expect("metrics after warm run");

    // Metrics are cumulative per worker, so the warm job's own probe
    // spans are the increment between the two snapshots. Resubmitting
    // the identical circuit replays every probe from the engine's
    // lineage — each replayed probe returns before the `label.probe`
    // span opens, so the increment collapses.
    let cold_probes = phase_count(&cold, "label.probe");
    let warm_probes = phase_count(&warm, "label.probe") - cold_probes;
    assert!(cold_probes > 0, "cold run records label.probe spans");
    assert!(
        warm_probes < cold_probes,
        "lineage replay must suppress label.probe spans on resubmission \
         (cold {cold_probes}, warm increment {warm_probes})"
    );

    // Every phase's histogram bucket counts sum to its span/op count,
    // pool-wide and per worker.
    for (name, count, sum) in metric_phases(&warm) {
        assert_eq!(sum, count, "phase {name} bucket counts sum to its count");
    }
    let Some(Json::Arr(workers)) = warm.get("workers") else {
        panic!("metrics frame has a workers array");
    };
    assert!(!workers.is_empty());
    let mut worker_spans = 0;
    for worker in workers {
        assert!(worker.get("worker").and_then(Json::as_u64).is_some());
        worker_spans += worker.get("spans").and_then(Json::as_u64).expect("spans");
        for (name, count, sum) in metric_phases(worker) {
            assert_eq!(sum, count, "worker phase {name} bucket sum");
        }
    }
    assert_eq!(
        warm.get("spans").and_then(Json::as_u64),
        Some(worker_spans),
        "pool-wide span total is the sum over workers"
    );

    client.shutdown().expect("shutdown ack");
    server.wait();
}

#[test]
fn shutdown_drains_in_flight_work_then_wait_returns() {
    let (server, addr) = start(ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    });
    let slow_text = blif::write(&slow_circuit());

    std::thread::scope(|scope| {
        let slow = scope.spawn(|| {
            let mut client = Client::connect(&addr).expect("connects");
            client
                .map_blif(&slow_text)
                .expect("in-flight work survives the drain")
        });

        // Admit the slow request, then pull the plug.
        let mut probe = Client::connect(&addr).expect("connects");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let stats = probe.stats().expect("stats");
            let busy = stats.get("queue_depth").and_then(Json::as_u64).unwrap_or(0)
                + stats.get("in_flight").and_then(Json::as_u64).unwrap_or(0);
            if busy >= 1 {
                break;
            }
            assert!(Instant::now() < deadline, "slow request never admitted");
            std::thread::sleep(Duration::from_millis(2));
        }
        probe.shutdown().expect("shutdown ack");

        // New work is refused while the drain runs. (The listener may
        // already be gone, in which case the connect itself fails —
        // also a refusal.)
        if let Ok(mut late) = Client::connect(&addr) {
            match late.map_blif(&blif::write(&small_circuit(7))) {
                Err(ClientError::Server { code, .. }) => assert_eq!(code, "draining"),
                // The accept loop may already be gone; a reset/EOF on
                // this connection is also a refusal.
                Err(ClientError::Io(_) | ClientError::Protocol(_)) => {}
                other => panic!("expected a draining rejection, got {other:?}"),
            }
        }

        let response = slow.join().expect("slow thread");
        assert!(
            !response.degraded,
            "drained work finishes with full quality"
        );
    });

    // wait() returning (rather than hanging) IS the assertion.
    server.wait();
}
