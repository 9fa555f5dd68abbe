//! Benchmarks of the three mappers on representative suite circuits
//! (one small and one mid FSM row, one ISCAS row) — the timing backbone
//! of Table 1's CPU columns — plus a `--jobs` scaling section on the
//! largest generator circuit.
//!
//! Hermetic harness (no criterion): median of a fixed iteration count.
//! Run with `cargo bench -p turbosyn-bench`.
//!
//! Set `BENCH_JSON=<path>` to also write the timings as a
//! [`turbosyn_bench::json::BenchFile`]; CI's bench-regression job feeds
//! that file to the `bench_gate` binary, which compares the
//! `mappers/*` entries against the committed `BENCH_baseline.json`
//! (machine-normalized through `calib_ns`, measured right before and
//! right after the `mappers/*` section; the smaller reading is recorded,
//! since load only ever slows the calibration loop). The `jobs/*`
//! entries are informational — they document thread scaling, which
//! depends on the runner's core count, so the gate does not threshold
//! them. The
//! `phases/*` entries (per-phase trace timing attribution from an
//! instrumented run) are likewise informational.
//!
//! The `probe_ladder/*` section runs the full φ binary search on the
//! two largest generated circuits — cold, then resubmitted to the same
//! engine (the serve daemon's workload) — once with the delta-driven
//! worklist, warm-started probes, and exact-φ lineage replay (the
//! default), and once with all of it disabled (`full_sweeps` legacy
//! mode). It records the two runs' summed `sweeps` / `cut_tests`
//! counters alongside the timing; the gate thresholds those counters at
//! 5% raw, which is the regression tripwire for the incremental
//! machinery itself. All four runs must produce bit-identical reports —
//! asserted here on every run.

use std::hint::black_box;
use std::time::Instant;
use turbosyn::{flowsyn_s, turbomap, turbosyn, MapOptions, MapReport};
use turbosyn_bench::json::{BenchFile, BenchResult};
use turbosyn_netlist::{blif, gen};

struct Recorder {
    results: Vec<BenchResult>,
}

impl Recorder {
    fn bench(&mut self, name: &str, iters: usize, mut f: impl FnMut()) {
        f(); // warmup
        let mut times = Vec::with_capacity(iters);
        for _ in 0..iters {
            let t = Instant::now();
            f();
            times.push(t.elapsed());
        }
        times.sort();
        let median = times[times.len() / 2];
        println!("{name:<40} {median:>12.3?} /iter  ({iters} iters)");
        self.results
            .push(BenchResult::timing(name, median.as_nanos()));
    }

    /// One timed run, no warmup — for benches whose single iteration
    /// already takes tens of seconds.
    fn bench_cold(&mut self, name: &str, mut f: impl FnMut()) {
        let t = Instant::now();
        f();
        let elapsed = t.elapsed();
        println!("{name:<40} {elapsed:>12.3?} /iter  (1 cold iter)");
        self.results
            .push(BenchResult::timing(name, elapsed.as_nanos()));
    }

    /// Attaches deterministic work counters to the most recent bench.
    fn attach_counters(&mut self, counters: Vec<(String, u64)>) {
        self.results
            .last_mut()
            .expect("a bench was recorded")
            .counters = counters;
    }
}

/// Everything a mapper run decides, for bit-identity checks.
fn fingerprint(r: &MapReport) -> (i64, usize, u64, i64, Vec<(i64, bool)>, String) {
    (
        r.phi,
        r.lut_count,
        r.register_count,
        r.clock_period,
        r.probes.clone(),
        blif::write(&r.final_circuit),
    )
}

fn main() {
    let mut rec = Recorder {
        results: Vec::new(),
    };
    let suite = gen::suite();

    let pick = ["bbara", "cse", "s420"];
    let calib_before = turbosyn_bench::calibrate_ns();
    for b in suite.iter().filter(|b| pick.contains(&b.name)) {
        let opts = MapOptions::default();
        let c = &b.circuit;
        rec.bench(&format!("mappers/flowsyn_s/{}", b.name), 10, || {
            black_box(flowsyn_s(black_box(c), &opts).expect("maps"));
        });
        rec.bench(&format!("mappers/turbomap/{}", b.name), 10, || {
            black_box(turbomap(black_box(c), &opts).expect("maps"));
        });
        rec.bench(&format!("mappers/turbosyn/{}", b.name), 10, || {
            black_box(turbosyn(black_box(c), &opts).expect("maps"));
        });
    }
    let calib_ns = calib_before.min(turbosyn_bench::calibrate_ns());

    // Per-phase attribution: one traced TurboSYN run per pick circuit,
    // with the sink's per-phase nanosecond totals attached as counters
    // on a `phases/*` entry. Informational, like `jobs/*` — the totals
    // are timing-derived and machine-dependent, so the gate does not
    // threshold them; the BENCH_*.json archive simply shows where each
    // run's time went (label probes vs min-cuts vs mapping generation).
    for b in suite.iter().filter(|b| pick.contains(&b.name)) {
        let sink = turbosyn::TraceSink::enabled();
        let opts = MapOptions {
            trace: sink.clone(),
            ..MapOptions::default()
        };
        rec.bench_cold(&format!("phases/turbosyn/{}", b.name), || {
            black_box(turbosyn(black_box(&b.circuit), &opts).expect("maps"));
        });
        let summary = sink.drain().summary();
        rec.attach_counters(
            summary
                .phases
                .iter()
                .map(|p| (format!("phase_{}_ns", p.name), p.total_ns))
                .collect(),
        );
    }

    // Thread-scaling section: the largest generated circuit, mapped
    // serially and with eight label workers. One iteration each — the
    // runs take tens of seconds and the speedup ratio, not the absolute
    // time, is the quantity of interest. The fingerprint comparison
    // pins the determinism contract at full scale.
    let big = suite
        .iter()
        .max_by_key(|b| b.circuit.node_count())
        .expect("suite is non-empty");
    let mut reports: Vec<MapReport> = Vec::new();
    for jobs in [1, 8] {
        let opts = MapOptions {
            jobs,
            ..MapOptions::default()
        };
        rec.bench_cold(&format!("jobs/turbosyn/{}/j{jobs}", big.name), || {
            reports.push(turbosyn(black_box(&big.circuit), &opts).expect("maps"));
        });
    }
    assert_eq!(
        fingerprint(&reports[0]),
        fingerprint(reports.last().expect("two runs")),
        "jobs=8 must be bit-identical to jobs=1 on {}",
        big.name
    );
    let (j1, j8) = (
        rec.results[rec.results.len() - 2].median_ns,
        rec.results[rec.results.len() - 1].median_ns,
    );
    println!(
        "jobs speedup on {}: {:.2}x (j1 {:.2}s, j8 {:.2}s; scales with runner cores)",
        big.name,
        j1 as f64 / j8 as f64,
        j1 as f64 / 1e9,
        j8 as f64 / 1e9,
    );

    // Probe-ladder section: the full binary search followed by a
    // resubmission of the same circuit to the same engine — the serve
    // daemon's steady-state workload — with the delta-driven machinery
    // on (default) vs off (`full_sweeps` legacy). Counters are
    // deterministic, so they are recorded for the 5% counter gate; all
    // four reports must be bit-identical (that is the whole contract of
    // the worklist/warm-start/lineage rewrite).
    let mut ranked: Vec<_> = suite.iter().collect();
    ranked.sort_by_key(|b| std::cmp::Reverse(b.circuit.node_count()));
    for b in ranked.iter().take(2) {
        let mut pair: Vec<(MapReport, MapReport)> = Vec::new();
        for (variant, full_sweeps) in [("delta", false), ("full", true)] {
            let opts = MapOptions {
                full_sweeps,
                warm_start: !full_sweeps,
                ..MapOptions::default()
            };
            let engine = turbosyn::Engine::new();
            rec.bench_cold(&format!("probe_ladder/{}/{variant}", b.name), || {
                let cold = engine.turbosyn(black_box(&b.circuit), &opts).expect("maps");
                let resub = engine.turbosyn(black_box(&b.circuit), &opts).expect("maps");
                pair.push((cold, resub));
            });
            let (cold, resub) = pair.last().expect("just ran");
            let stats = cold.stats + resub.stats;
            rec.attach_counters(vec![
                ("sweeps".into(), stats.sweeps),
                ("cut_tests".into(), stats.cut_tests),
                ("candidates_skipped".into(), stats.candidates_skipped),
                ("warm_started_probes".into(), stats.warm_started_probes),
                ("pld_checks_skipped".into(), stats.pld_checks_skipped),
            ]);
            println!(
                "probe ladder {}/{variant}: cold cut_tests {} + resubmitted {}",
                b.name, cold.stats.cut_tests, resub.stats.cut_tests,
            );
        }
        let (delta, full) = (&pair[0], &pair[1]);
        for (report, what) in [
            (&delta.1, "delta resubmission"),
            (&full.0, "full-sweep search"),
            (&full.1, "full-sweep resubmission"),
        ] {
            assert_eq!(
                fingerprint(&delta.0),
                fingerprint(report),
                "{what} must agree bit-for-bit with the delta search on {}",
                b.name
            );
        }
        let (delta, full) = (delta.0.stats + delta.1.stats, full.0.stats + full.1.stats);
        let pct = |now: u64, was: u64| 100.0 * (1.0 - now as f64 / was.max(1) as f64);
        println!(
            "probe ladder on {}: cut_tests {} -> {} (-{:.1}%), sweeps {} -> {} (-{:.1}%)",
            b.name,
            full.cut_tests,
            delta.cut_tests,
            pct(delta.cut_tests, full.cut_tests),
            full.sweeps,
            delta.sweeps,
            pct(delta.sweeps, full.sweeps),
        );
    }

    let file = BenchFile {
        calib_ns,
        results: rec.results,
    };
    if let Ok(path) = std::env::var("BENCH_JSON") {
        std::fs::write(&path, file.to_json()).expect("write BENCH_JSON file");
        println!("wrote {path}");
    }
}
