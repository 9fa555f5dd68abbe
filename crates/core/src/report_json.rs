//! Canonical JSON encoding of [`MapReport`] and friends.
//!
//! One encoder, used by both the one-shot CLI (`--emit-json`) and the
//! `turbosyn-serve` daemon, so a circuit mapped either way produces
//! **byte-identical** report JSON. To keep that contract meaningful the
//! encoding contains only deterministic fields — wall-clock
//! (`MapReport::elapsed`) is deliberately excluded; services report
//! timing in a separate, explicitly non-deterministic section.
//!
//! Circuits are embedded as BLIF text ([`blif::write`] is a pure
//! function of the circuit), so a report consumer can reconstruct the
//! mapped netlist without a side channel.

use crate::budget::{Degradation, DegradeEvent};
use crate::cache::CacheStats;
use crate::label::LabelStats;
use crate::mappers::MapReport;
use turbosyn_json::Json;
use turbosyn_netlist::blif;

/// Schema version stamped into every report object.
///
/// Schema 2 removed the `stats` work counters from the canonical
/// report: with cross-run warm starts and the delta-driven worklist the
/// amount of *work* depends on engine history (a warm engine sweeps
/// less), while the canonical report must stay a pure function of the
/// input — the serve daemon's warm responses are byte-compared against
/// cold CLI output. Work counters are still observable through the
/// non-canonical channels: [`label_stats_to_json`] feeds the CLI's
/// `--stats`, the serve `result`/`stats` frames, and the bench JSON.
pub const REPORT_SCHEMA: i64 = 2;

/// Encodes a [`MapReport`] as the canonical deterministic JSON object.
#[must_use]
pub fn report_to_json(report: &MapReport) -> Json {
    Json::obj(vec![
        ("schema", Json::from(REPORT_SCHEMA)),
        ("algorithm", Json::from(report.algorithm)),
        ("phi", Json::from(report.phi)),
        ("lut_count", Json::from(report.lut_count)),
        ("register_count", Json::from(report.register_count)),
        ("clock_period", Json::from(report.clock_period)),
        (
            "probes",
            Json::Arr(
                report
                    .probes
                    .iter()
                    .map(|&(phi, feasible)| Json::Arr(vec![Json::from(phi), Json::from(feasible)]))
                    .collect(),
            ),
        ),
        (
            "degradation",
            report
                .degradation
                .as_ref()
                .map_or(Json::Null, degradation_to_json),
        ),
        ("mapped_blif", Json::from(blif::write(&report.mapped))),
        ("final_blif", Json::from(blif::write(&report.final_circuit))),
    ])
}

/// Encodes the label-computation work counters.
///
/// Deliberately *not* part of [`report_to_json`]: work depends on the
/// engine's cache/lineage history, so it travels in explicitly
/// non-deterministic sections (alongside timing and cache deltas).
#[must_use]
pub fn label_stats_to_json(stats: &LabelStats) -> Json {
    Json::obj(vec![
        ("sweeps", Json::from(stats.sweeps)),
        ("cut_tests", Json::from(stats.cut_tests)),
        ("resyn_attempts", Json::from(stats.resyn_attempts)),
        ("resyn_successes", Json::from(stats.resyn_successes)),
        ("candidates_skipped", Json::from(stats.candidates_skipped)),
        ("warm_started_probes", Json::from(stats.warm_started_probes)),
        ("pld_checks_skipped", Json::from(stats.pld_checks_skipped)),
    ])
}

/// Encodes a [`Degradation`] report with structured events.
#[must_use]
pub fn degradation_to_json(d: &Degradation) -> Json {
    Json::obj(vec![
        ("phi_achieved", Json::from(d.phi_achieved)),
        (
            "events",
            Json::Arr(d.events.iter().map(degrade_event_to_json).collect()),
        ),
    ])
}

/// Encodes one [`DegradeEvent`] as `{"kind": ..., ...fields}`.
#[must_use]
pub fn degrade_event_to_json(event: &DegradeEvent) -> Json {
    match event {
        DegradeEvent::Deadline { phi_abandoned } => Json::obj(vec![
            ("kind", Json::from("deadline")),
            ("phi_abandoned", Json::from(*phi_abandoned)),
        ]),
        DegradeEvent::WorkExhausted { phi_abandoned } => Json::obj(vec![
            ("kind", Json::from("work_exhausted")),
            ("phi_abandoned", Json::from(*phi_abandoned)),
        ]),
        DegradeEvent::SweepCap { phi, scc_size } => Json::obj(vec![
            ("kind", Json::from("sweep_cap")),
            ("phi", Json::from(*phi)),
            ("scc_size", Json::from(*scc_size)),
        ]),
        DegradeEvent::PldAnomaly { phi, scc_size } => Json::obj(vec![
            ("kind", Json::from("pld_anomaly")),
            ("phi", Json::from(*phi)),
            ("scc_size", Json::from(*scc_size)),
        ]),
    }
}

/// Encodes cache counters (totals or a per-request delta). The
/// always-zero expansion counters are left out.
#[must_use]
pub fn cache_stats_to_json(stats: &CacheStats) -> Json {
    Json::obj(vec![
        ("decomposition_hits", Json::from(stats.decomposition_hits)),
        (
            "decomposition_misses",
            Json::from(stats.decomposition_misses),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mappers::{turbosyn, MapOptions};
    use turbosyn_netlist::gen;

    #[test]
    fn report_json_is_deterministic_and_elapsed_free() {
        let c = gen::figure1();
        let opts = MapOptions::default();
        let a = turbosyn(&c, &opts).expect("maps");
        let b = turbosyn(&c, &opts).expect("maps");
        let ja = report_to_json(&a).write();
        let jb = report_to_json(&b).write();
        assert_eq!(ja, jb, "two runs encode byte-identically");
        assert!(
            !ja.contains("elapsed"),
            "wall-clock must stay out of the canonical encoding"
        );
        let parsed = Json::parse(&ja).expect("round trips");
        assert_eq!(parsed.get("schema").and_then(Json::as_int), Some(2));
        assert!(
            parsed.get("stats").is_none(),
            "work counters are history-dependent and stay out of the canonical encoding"
        );
        assert_eq!(
            parsed.get("algorithm").and_then(Json::as_str),
            Some("TurboSYN")
        );
        assert_eq!(
            parsed.get("phi").and_then(Json::as_int),
            Some(i128::from(a.phi))
        );
        let final_blif = parsed
            .get("final_blif")
            .and_then(Json::as_str)
            .expect("final netlist embedded");
        let final_parsed = blif::parse(final_blif).expect("embedded BLIF parses");
        assert_eq!(final_parsed.node_count(), a.final_circuit.node_count());
    }

    #[test]
    fn degrade_events_encode_structurally() {
        let d = Degradation {
            events: vec![
                DegradeEvent::Deadline { phi_abandoned: 2 },
                DegradeEvent::WorkExhausted { phi_abandoned: 3 },
                DegradeEvent::SweepCap {
                    phi: 4,
                    scc_size: 9,
                },
                DegradeEvent::PldAnomaly {
                    phi: 5,
                    scc_size: 11,
                },
            ],
            phi_achieved: 6,
        };
        let j = degradation_to_json(&d);
        assert_eq!(j.get("phi_achieved").and_then(Json::as_int), Some(6));
        let events = j.get("events").and_then(Json::as_arr).expect("array");
        let kinds: Vec<_> = events
            .iter()
            .map(|e| e.get("kind").and_then(Json::as_str).expect("kind"))
            .collect();
        assert_eq!(
            kinds,
            ["deadline", "work_exhausted", "sweep_cap", "pld_anomaly"]
        );
        assert_eq!(
            events[0].get("phi_abandoned").and_then(Json::as_int),
            Some(2)
        );
    }

    #[test]
    fn label_stats_encode_all_counters() {
        let s = LabelStats {
            sweeps: 1,
            cut_tests: 2,
            resyn_attempts: 3,
            resyn_successes: 4,
            candidates_skipped: 5,
            warm_started_probes: 6,
            pld_checks_skipped: 7,
        };
        let j = label_stats_to_json(&s);
        assert_eq!(
            j.write(),
            "{\"sweeps\":1,\"cut_tests\":2,\"resyn_attempts\":3,\
             \"resyn_successes\":4,\"candidates_skipped\":5,\
             \"warm_started_probes\":6,\"pld_checks_skipped\":7}"
        );
    }

    #[test]
    fn cache_stats_encode_the_decomposition_counters() {
        let s = CacheStats {
            decomposition_hits: 3,
            decomposition_misses: 4,
            ..CacheStats::default()
        };
        let j = cache_stats_to_json(&s);
        assert_eq!(
            j.write(),
            "{\"decomposition_hits\":3,\"decomposition_misses\":4}"
        );
    }
}
