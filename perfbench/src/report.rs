//! Metric names, units and the result line every run prints.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json`. An untraced run
//! prints every end-to-end metric and a traced run every per-layer
//! metric, for every workload; a per-layer metric of a layer that the
//! workload does not reach reads 0.

use scwsc_core::json::Json;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("cost_total", "weight"),
    ("peak_mem_mb", "MB"),
    ("ok_share", "ratio"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("max_rate_rps", "req/s"),
    ("complete_share", "ratio"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lbl.generate_s", "s"),
    ("index.build_s", "s"),
    ("enumerate.s", "s"),
    ("enumerate.sets", "count"),
    ("opt_cwsc.solve_s", "s"),
    ("opt_cwsc.expand_self_s", "s"),
    ("opt_cwsc.patterns_considered", "count"),
    ("opt_cwsc.postings_scanned", "count"),
    ("opt_cwsc.subtrees_pruned", "count"),
    ("opt_cwsc.allocs", "count"),
    ("opt_cwsc.alloc_mb", "MB"),
    ("opt_cmc.solve_s", "s"),
    ("opt_cmc.guess_self_s", "s"),
    ("opt_cmc.guesses", "count"),
    ("opt_cmc.heap_stale_pops", "count"),
    ("opt_cmc.patterns_considered", "count"),
    ("opt_cmc.allocs", "count"),
    ("parallel.serial_solve_s", "s"),
    ("parallel.speedup", "ratio"),
    ("parallel.useful_guess_ratio", "ratio"),
    ("cmc.solve_s", "s"),
    ("cwsc.solve_s", "s"),
    ("cmc.guesses", "count"),
    ("cmc.selections", "count"),
    ("cmc.heap_stale_pops", "count"),
    ("scan.candidates_pruned", "count"),
    ("scan.bounds_refreshed", "count"),
    ("scan.sketch_inconclusive", "count"),
    ("scan.prune_ratio", "ratio"),
    ("telemetry.trace_overhead", "ratio"),
    ("telemetry.serve_observer_overhead", "ratio"),
    ("cache.hit_share", "ratio"),
    ("cache.hit_latency_p50_ms", "ms"),
    ("cache.miss_latency_p50_ms", "ms"),
    ("admission.queue_ms_p50", "ms"),
    ("admission.queue_ms_p90", "ms"),
    ("admission.degraded_share", "ratio"),
    ("admission.rejected_share", "ratio"),
    ("admission.max_tier", "count"),
    ("dispatch.solve_ms_p50.cwsc", "ms"),
    ("dispatch.solve_ms_p50.cmc", "ms"),
    ("server.residual_ms_p50", "ms"),
    ("protocol.parse_us", "us"),
    ("protocol.serialize_us", "us"),
    ("dispatch.inproc_ms_p50", "ms"),
    ("loadgen.lag_ms_p90", "ms"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (solve calls or requests).
    pub attempted: u64,
    /// Operations that failed: solve errors, answers that fail
    /// verification or differ from the reference, dropped, `error` or
    /// `rejected` responses.
    pub failed: u64,
    /// Mismatches found by the checks; any entry makes the run wrong.
    pub mismatches: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Rendered span profile of the traced calls (traced runs only).
    pub profile: String,
}

impl Report {
    /// Records a metric value. The name must be one of the declared
    /// metrics.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Records a failed check: counts one failed operation.
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        self.mismatches.push(what);
    }

    /// Whether every answer checked out.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// of the chosen class. An end-to-end metric the workload did not
    /// set is a bug in the benchmark and panics; an unset per-layer
    /// metric reads 0.
    pub fn result_line(&self, traced: bool) -> String {
        let class = if traced { PER_LAYER } else { END_TO_END };
        let metrics = class
            .iter()
            .map(|&(name, unit)| {
                let value = match self.values.get(name) {
                    // A failed solve can leave a NaN cost; JSON has no NaN,
                    // and such a run already reads `correct: false`.
                    Some(&v) if v.is_finite() => v,
                    Some(_) => 0.0,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::from_u64(self.attempted)),
            ("failed".into(), Json::from_u64(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(json: &Json, key: &str, fields: &[&str]) -> Vec<Vec<String>> {
        json.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|entry| {
                fields
                    .iter()
                    .map(|f| {
                        entry
                            .get(f)
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn declared_metrics_and_workloads_match_benchmark_json() {
        let json =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        for (key, ours) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let ours: Vec<Vec<String>> = ours
                .iter()
                .map(|(n, u)| vec![n.to_string(), u.to_string()])
                .collect();
            assert_eq!(names(&json, key, &["name", "unit"]), ours, "{key}");
        }
        let workloads: Vec<Vec<String>> = crate::WORKLOADS
            .iter()
            .map(|w| vec![w.to_string()])
            .collect();
        assert_eq!(names(&json, "workloads", &["name"]), workloads);
    }

    #[test]
    fn result_line_carries_every_metric_of_its_class() {
        let mut report = Report {
            attempted: 1,
            ..Report::default()
        };
        for &(name, _) in END_TO_END {
            report.set(name, 1.5);
        }
        let line = Json::parse(&report.result_line(false)).expect("valid JSON");
        let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        let traced = Json::parse(&report.result_line(true)).expect("valid JSON");
        let per_layer = traced
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    }
}
