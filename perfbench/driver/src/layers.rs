//! The per-layer metrics of a traced run.  Every workload prints every
//! metric; a layer a workload does not reach reads 0.

use std::collections::BTreeMap;

use panda::prelude::ReasonCode;

use crate::common::{Metrics, Samples, Tracer};

/// Timing metrics read from spans: `(metric, spans summed per request,
/// scale from ms)`.
const FROM_SPANS: &[(&str, &[&str], f64, &str)] = &[
    ("query.parse_us", &["query.parse_query"], 1e3, "us"),
    (
        "query.enumerate_ms",
        &["query.TreeDecomposition::enumerate", "query.BagSelector::enumerate"],
        1.0,
        "ms",
    ),
    ("entropy.stats_measure_ms", &["entropy.StatisticsSet::measure"], 1.0, "ms"),
    ("entropy.width_lp_ms", &["entropy.fhtw_with_tds", "entropy.subw_with_tds"], 1.0, "ms"),
    ("proof.derive_ms", &["proof.ProofSequence::derive"], 1.0, "ms"),
    ("panda-core.fingerprint_us", &["panda-core.canonicalize_query"], 1e3, "us"),
    ("panda-core.plan_ms", &["panda-core.Panda::plan_report"], 1.0, "ms"),
    ("panda-core.partition_ms", &["panda-core.PandaEvaluator::build_branches"], 1.0, "ms"),
    ("panda-core.exec_ms", &["panda-core.Panda::try_evaluate_with"], 1.0, "ms"),
    ("relation.load_ms", &["relation.load"], 1.0, "ms"),
    ("server.session_ms", &["server.Session::handle_line"], 1.0, "ms"),
];

/// Metrics sampled directly (counts per request, per-branch times, wire
/// times), reported as medians.
const SAMPLED: &[(&str, &str)] = &[
    ("query.td_count", "count"),
    ("query.selector_count", "count"),
    ("entropy.lp_solves", "count"),
    ("lp.pivots", "count"),
    ("proof.steps", "count"),
    ("panda-core.branches", "count"),
    ("panda-core.branch_exec_ms", "ms"),
    ("panda-core.branch_rows_max", "count"),
    ("relation.output_rows", "count"),
    ("server.wire_ms", "ms"),
    ("server.reply_lines", "count"),
];

/// Metrics with one value per run.
const SINGLE: &[(&str, &str)] =
    &[("panda-core.plan_cache_hit_ratio", "ratio"), ("trace.overhead_ms", "ms")];

/// Layers whose self time is reported as `self.<layer>_ms`.
const LAYERS: &[&str] = &["query", "entropy", "proof", "panda-core", "relation", "server"];

#[derive(Debug, Default)]
pub struct LayerMetrics {
    samples: BTreeMap<&'static str, Samples>,
    single: BTreeMap<&'static str, f64>,
    checked: u64,
    mismatched: u64,
    cache_hits: u64,
    cache_lookups: u64,
}

impl LayerMetrics {
    pub fn sample(&mut self, name: &'static str, value: f64) {
        debug_assert!(SAMPLED.iter().any(|(n, _)| *n == name), "undeclared metric {name}");
        self.samples.entry(name).or_default().push(value);
    }

    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(SINGLE.iter().any(|(n, _)| *n == name), "undeclared metric {name}");
        self.single.insert(name, value);
    }

    /// Counts the plan-cache events of one library call.
    pub fn cache_events(&mut self, events: &[ReasonCode]) {
        for event in events {
            match event {
                ReasonCode::PlanCacheHit => {
                    self.cache_hits += 1;
                    self.cache_lookups += 1;
                }
                ReasonCode::PlanCacheMiss => self.cache_lookups += 1,
                _ => {}
            }
        }
    }

    pub fn hit_ratio(&self) -> f64 {
        self.cache_hits as f64 / self.cache_lookups.max(1) as f64
    }

    /// Records one comparison of a rebuilt pipeline's rows with the
    /// library's.
    pub fn fidelity(&mut self, same: bool) {
        self.checked += 1;
        self.mismatched += u64::from(!same);
    }

    pub fn finish(self, tracer: &Tracer) -> Metrics {
        println!(
            "rebuilt pipelines: checked={} mismatched={} spans={}",
            self.checked,
            self.mismatched,
            tracer.spans.len()
        );
        let mut m = Metrics::default();
        for (name, spans, scale, unit) in FROM_SPANS {
            m.put(*name, tracer.per_request_ms(spans).median() * scale, unit);
        }
        for (name, unit) in SAMPLED {
            m.put(*name, self.samples.get(name).map_or(0.0, Samples::median), unit);
        }
        for (name, unit) in SINGLE {
            m.put(*name, self.single.get(name).copied().unwrap_or(0.0), unit);
        }
        let self_times = tracer.self_times();
        for layer in LAYERS {
            let value = self_times.get(layer).map_or(0.0, Samples::median);
            m.put(format!("self.{layer}_ms"), value, "ms");
        }
        m
    }
}
