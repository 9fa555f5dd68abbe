//! Per-layer attribution of one traced pass.
//!
//! Times come from two sources. The benchmark's own spans go around the
//! public calls it makes (`bench.op`, `netlist.blif.parse`,
//! `core.mappers`, `json.report`, `netlist.blif.write`). The program's
//! own spans and hot-op histograms (`drive`, `label.probe`,
//! `label.sweep`, `pld.check`, `mapgen`, `verify`, `retime`, `expand`,
//! `flow.min_cut`, `seqdecomp`) record the phases inside the mapper call.
//! Counts come from each report's work counters and the engine's cache
//! counters, which repeat exactly from run to run.

use crate::op::Product;
use turbosyn::trace::{Span, Trace};

/// Every per-layer metric, with its unit, in output order.
pub const METRICS: [(&str, &str); 36] = [
    ("core.mappers.call_ms", "ms"),
    ("core.mappers.untraced_frac", "ratio"),
    ("core.label.probe_ms", "ms"),
    ("core.label.self_ms", "ms"),
    ("core.label.prepass_ms", "ms"),
    ("core.label.probes", "count"),
    ("core.label.probe_spans", "count"),
    ("core.label.sweeps", "count"),
    ("core.label.cut_tests", "count"),
    ("core.label.candidates_skipped", "count"),
    ("core.label.warm_started_probes", "count"),
    ("core.expand.ms", "ms"),
    ("core.expand.calls", "count"),
    ("graph.maxflow.min_cut_ms", "ms"),
    ("graph.maxflow.min_cuts", "count"),
    ("core.seqdecomp.ms", "ms"),
    ("core.seqdecomp.calls", "count"),
    ("core.seqdecomp.attempts", "count"),
    ("core.seqdecomp.successes", "count"),
    ("core.seqdecomp.success_ratio", "ratio"),
    ("core.pld.check_ms", "ms"),
    ("core.pld.checks", "count"),
    ("core.pld.checks_skipped", "count"),
    ("core.cache.expansion_hit_ratio", "ratio"),
    ("core.cache.expansion_lookups", "count"),
    ("core.cache.decomposition_hit_ratio", "ratio"),
    ("core.cache.decomposition_lookups", "count"),
    ("core.cache.replay_ratio", "ratio"),
    ("core.mapgen.ms", "ms"),
    ("core.verify.ms", "ms"),
    ("retime.ms", "ms"),
    ("retime.period_lower_bound_ms", "ms"),
    ("netlist.blif.parse_ms", "ms"),
    ("netlist.blif.write_ms", "ms"),
    ("json.report_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Metrics derived from the pass's latencies rather than its trace.
pub const LATENCY_METRICS: [(&str, &str); 2] = [
    ("core.cache.first_sight_p50_ms", "ms"),
    ("core.cache.repeat_p50_ms", "ms"),
];

/// Named metric values of one pass.
pub type Values = Vec<(&'static str, f64)>;
/// Attribution rows: name, total ms, count, self ms.
pub type Table = Vec<(&'static str, f64, u64, f64)>;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Span totals by name: (total ns, count, self ns), where self time is a
/// span's duration minus the durations of its direct children.
#[derive(Debug, Default, Clone)]
pub struct SpanTotals(pub Vec<(&'static str, u64, u64, u64)>);

impl SpanTotals {
    pub fn of(spans: &[Span]) -> Self {
        let mut child_ns = std::collections::HashMap::new();
        for s in spans {
            *child_ns.entry(s.parent).or_insert(0u64) += s.dur_ns();
        }
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for s in spans {
            let own = s
                .dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += s.dur_ns();
                    r.2 += 1;
                    r.3 += own;
                }
                None => rows.push((s.name, s.dur_ns(), 1, own)),
            }
        }
        rows.sort_by_key(|r| r.0);
        SpanTotals(rows)
    }

    fn total(&self, name: &str) -> u64 {
        self.0.iter().find(|r| r.0 == name).map_or(0, |r| r.1)
    }

    fn count(&self, name: &str) -> u64 {
        self.0.iter().find(|r| r.0 == name).map_or(0, |r| r.2)
    }
}

/// Hot-op totals: (total ns, count).
fn hot(trace: &Trace, name: &str) -> (u64, u64) {
    trace
        .hot
        .iter()
        .find(|p| p.name == name)
        .map_or((0, 0), |p| (p.total_ns, p.count))
}

/// Sum of the durations of `spans` named `name` whose parent is named
/// `parent`.
fn under(spans: &[Span], name: &str, parent: &str) -> (u64, u64) {
    let parents: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == parent)
        .map(|s| s.id)
        .collect();
    spans
        .iter()
        .filter(|s| s.name == name && parents.contains(&s.parent))
        .fold((0, 0), |(ns, n), s| (ns + s.dur_ns(), n + 1))
}

/// The deterministic work counters of a pass, summed over its
/// operations' reports and engine cache deltas.
pub fn report_counters(products: &[&Product]) -> Vec<(&'static str, u64)> {
    let sum = |f: &dyn Fn(&Product) -> u64| products.iter().map(|p| f(p)).sum::<u64>();
    vec![
        ("core.label.probes", sum(&|p| p.probes.len() as u64)),
        ("core.label.sweeps", sum(&|p| p.stats.sweeps)),
        ("core.label.cut_tests", sum(&|p| p.stats.cut_tests)),
        (
            "core.label.candidates_skipped",
            sum(&|p| p.stats.candidates_skipped),
        ),
        (
            "core.label.warm_started_probes",
            sum(&|p| p.stats.warm_started_probes),
        ),
        ("core.seqdecomp.attempts", sum(&|p| p.stats.resyn_attempts)),
        (
            "core.seqdecomp.successes",
            sum(&|p| p.stats.resyn_successes),
        ),
        (
            "core.pld.checks_skipped",
            sum(&|p| p.stats.pld_checks_skipped),
        ),
        (
            "core.cache.expansion_hits",
            sum(&|p| p.cache.expansion_hits),
        ),
        (
            "core.cache.expansion_misses",
            sum(&|p| p.cache.expansion_misses),
        ),
        (
            "core.cache.decomposition_hits",
            sum(&|p| p.cache.decomposition_hits),
        ),
        (
            "core.cache.decomposition_misses",
            sum(&|p| p.cache.decomposition_misses),
        ),
    ]
}

/// The counts a trace records, which also repeat exactly between traced
/// passes.
pub fn trace_counters(trace: &Trace) -> Vec<(&'static str, u64)> {
    let spans = SpanTotals::of(&trace.spans);
    vec![
        ("core.label.probe_spans", spans.count("label.probe")),
        ("core.label.sweep_spans", spans.count("label.sweep")),
        ("core.pld.checks", spans.count("pld.check")),
        ("core.expand.calls", hot(trace, "expand").1),
        ("graph.maxflow.min_cuts", hot(trace, "flow.min_cut").1),
        ("core.seqdecomp.calls", hot(trace, "seqdecomp").1),
    ]
}

fn counter(counters: &[(&'static str, u64)], name: &str) -> u64 {
    counters.iter().find(|c| c.0 == name).map_or(0, |c| c.1)
}

/// The per-layer metrics of one traced pass (all but the ones computed
/// across passes: `trace.overhead_frac` and the latency metrics).
/// `plb_ns` is the time `period_lower_bound` took on the prepared inputs
/// of the pass's operations, measured outside the mapper calls.
pub fn pass_metrics(trace: &Trace, products: &[&Product], plb_ns: u64) -> Values {
    let spans = SpanTotals::of(&trace.spans);
    let mut counters = report_counters(products);
    counters.extend(trace_counters(trace));
    let c = |name: &str| counter(&counters, name);

    let call_ns = spans.total("core.mappers");
    // Top-level in-program spans: the children of the mapper root span
    // (`drive`, and the TurboSYN prepass probes that run outside it).
    let (drive_ns, _) = under(&trace.spans, "drive", "core.mappers");
    let (prepass_ns, _) = under(&trace.spans, "label.probe", "core.mappers");
    let (_, drive_probe_spans) = under(&trace.spans, "label.probe", "drive");
    let probe_ns = spans.total("label.probe");
    let (expand_ns, expand_calls) = hot(trace, "expand");
    let (cut_ns, cuts) = hot(trace, "flow.min_cut");
    let (seq_ns, seq_calls) = hot(trace, "seqdecomp");
    let pld_ns = spans.total("pld.check");
    let self_ns = probe_ns as i64 - (expand_ns + cut_ns + seq_ns + pld_ns) as i64;
    let probes = c("core.label.probes");
    let exp_lookups = c("core.cache.expansion_hits") + c("core.cache.expansion_misses");
    let dec_lookups = c("core.cache.decomposition_hits") + c("core.cache.decomposition_misses");

    vec![
        ("core.mappers.call_ms", ms(call_ns)),
        (
            "core.mappers.untraced_frac",
            ratio(call_ns.saturating_sub(drive_ns + prepass_ns), call_ns),
        ),
        ("core.label.probe_ms", ms(probe_ns)),
        ("core.label.self_ms", self_ns as f64 / 1e6),
        ("core.label.prepass_ms", ms(prepass_ns)),
        ("core.label.probes", probes as f64),
        ("core.label.probe_spans", c("core.label.probe_spans") as f64),
        ("core.label.sweeps", c("core.label.sweeps") as f64),
        ("core.label.cut_tests", c("core.label.cut_tests") as f64),
        (
            "core.label.candidates_skipped",
            c("core.label.candidates_skipped") as f64,
        ),
        (
            "core.label.warm_started_probes",
            c("core.label.warm_started_probes") as f64,
        ),
        ("core.expand.ms", ms(expand_ns)),
        ("core.expand.calls", expand_calls as f64),
        ("graph.maxflow.min_cut_ms", ms(cut_ns)),
        ("graph.maxflow.min_cuts", cuts as f64),
        ("core.seqdecomp.ms", ms(seq_ns)),
        ("core.seqdecomp.calls", seq_calls as f64),
        (
            "core.seqdecomp.attempts",
            c("core.seqdecomp.attempts") as f64,
        ),
        (
            "core.seqdecomp.successes",
            c("core.seqdecomp.successes") as f64,
        ),
        (
            "core.seqdecomp.success_ratio",
            ratio(c("core.seqdecomp.successes"), c("core.seqdecomp.attempts")),
        ),
        ("core.pld.check_ms", ms(pld_ns)),
        ("core.pld.checks", c("core.pld.checks") as f64),
        (
            "core.pld.checks_skipped",
            c("core.pld.checks_skipped") as f64,
        ),
        (
            "core.cache.expansion_hit_ratio",
            ratio(c("core.cache.expansion_hits"), exp_lookups),
        ),
        ("core.cache.expansion_lookups", exp_lookups as f64),
        (
            "core.cache.decomposition_hit_ratio",
            ratio(c("core.cache.decomposition_hits"), dec_lookups),
        ),
        ("core.cache.decomposition_lookups", dec_lookups as f64),
        (
            "core.cache.replay_ratio",
            ratio(probes.saturating_sub(drive_probe_spans), probes),
        ),
        ("core.mapgen.ms", ms(spans.total("mapgen"))),
        ("core.verify.ms", ms(spans.total("verify"))),
        ("retime.ms", ms(spans.total("retime"))),
        ("retime.period_lower_bound_ms", ms(plb_ns)),
        (
            "netlist.blif.parse_ms",
            ms(spans.total("netlist.blif.parse")),
        ),
        (
            "netlist.blif.write_ms",
            ms(spans.total("netlist.blif.write")),
        ),
        ("json.report_ms", ms(spans.total("json.report"))),
    ]
}

/// The attribution table of one traced pass: every span name with its
/// total, count and self time, then every hot op (no children, so self
/// time is its total).
pub fn attribution(trace: &Trace) -> Table {
    let mut rows: Table = SpanTotals::of(&trace.spans)
        .0
        .into_iter()
        .map(|(name, total, count, own)| (name, ms(total), count, ms(own)))
        .collect();
    rows.extend(
        trace
            .hot
            .iter()
            .map(|p| (p.name, ms(p.total_ns), p.count, ms(p.total_ns))),
    );
    rows
}
