//! The metric catalogue and the run's result line.
//!
//! `BENCHMARK.json` lists exactly these names; the benchmark's own tests
//! check that the two agree.

use std::collections::BTreeMap;

use crowd_serve::Json;

/// An end-to-end metric. Its definition on each workload is in
/// `perfbench/spec.json`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// Every end-to-end metric, reported by every workload (spans off).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
    },
    EndToEnd {
        name: "wait_p50_ms",
        unit: "ms",
        better: "lower",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
    },
    EndToEnd {
        name: "accuracy",
        unit: "fraction",
        better: "higher",
    },
    EndToEnd {
        name: "state_mb",
        unit: "MB",
        better: "lower",
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MB",
        better: "lower",
    },
];

/// A per-layer metric. What it measures and which end-to-end metric it
/// should move, on which workload, is in `perfbench/spec.json`.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

macro_rules! layer {
    ($name:expr, $unit:expr, $better:expr) => {
        PerLayer {
            name: $name,
            unit: $unit,
            better: $better,
        }
    };
}

/// Every per-layer metric, reported by every traced run. A layer a
/// workload does not call reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    layer!("http.request_self_ms.p50", "ms", "lower"),
    layer!("http.request_self_ms.p99", "ms", "lower"),
    layer!("http.labels_self_ms.p50", "ms", "lower"),
    layer!("http.bytes_per_session", "bytes", "lower"),
    layer!("service.request_ms.p50", "ms", "lower"),
    layer!("service.request_ms.p99", "ms", "lower"),
    layer!("service.submit_ms.p99", "ms", "lower"),
    layer!("service.blocked_share", "fraction", "lower"),
    layer!("service.quiesce_ms", "ms", "lower"),
    layer!("service.queue_depth.max", "count", "lower"),
    layer!("service.empty_share", "fraction", "lower"),
    layer!("service.rejected", "count", "lower"),
    layer!("service.rebuilds", "count", "lower"),
    layer!("service.gossip_folds", "count", "lower"),
    layer!("assign.request_ms.p50", "ms", "lower"),
    layer!("assign.request_ms.p99", "ms", "lower"),
    layer!("assign.pairs_per_request", "count", "higher"),
    layer!("model.absorb_us.p50", "us", "lower"),
    layer!("em.rebuild_ms.p50", "ms", "lower"),
    layer!("em.rebuild_ms.p99", "ms", "lower"),
    layer!("em.rebuild_s.sum", "s", "lower"),
    layer!("em.full_sweeps", "count", "lower"),
    layer!("em.dirty_sweeps", "count", "lower"),
    layer!("em.iterations", "count", "lower"),
    layer!("em.answers_swept", "count", "lower"),
    layer!("em.threads", "count", "higher"),
    layer!("gossip.round_ms.p50", "ms", "lower"),
    layer!("gossip.folds", "count", "lower"),
    layer!("snapshot.capture_ms", "ms", "lower"),
    layer!("json.render_ms", "ms", "lower"),
    layer!("json.parse_ms", "ms", "lower"),
    layer!("snapshot.restore_ms", "ms", "lower"),
    layer!("snapshot.suffix_answers", "count", "lower"),
    layer!("snapshot.events", "count", "lower"),
    layer!("gen.late_ms.p99", "ms", "lower"),
    layer!("run.cpu_s", "s", "lower"),
    layer!("trace.overhead", "fraction", "lower"),
];

/// One measured value with its sample count.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, answers, cycles, output checks).
    pub attempted: u64,
    /// Operations that failed: errors, unexpected statuses, failed checks.
    pub failed: u64,
    /// Failed output checks, by description.
    pub check_failures: Vec<String>,
    pub values: BTreeMap<&'static str, Value>,
    /// Run-record lines (`key = value`), printed above the result.
    pub record: Vec<(String, String)>,
    /// Extra documents written beside the trace (cross-checks).
    pub extra: Vec<(String, Json)>,
}

impl Outcome {
    /// Sets a metric value with its sample count.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, Value { value, samples });
    }

    /// Counts one output check; a failed check is also a failed operation.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.check_failures.push(what.into());
        }
    }

    /// Adds a run-record line.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.record.push((key.to_owned(), value.to_string()));
    }

    /// The names this run must report, with units, for its trace mode.
    #[must_use]
    pub fn catalogue(traced: bool) -> Vec<(&'static str, &'static str)> {
        if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of the trace mode, each with its value and unit.
    #[must_use]
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = Self::catalogue(traced)
            .into_iter()
            .map(|(name, unit)| {
                let value = self.values.get(name).map_or(0.0, |v| v.value);
                (
                    name.to_owned(),
                    Json::Obj(vec![
                        ("value".to_owned(), Json::Num(value)),
                        ("unit".to_owned(), Json::Str(unit.to_owned())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            (
                "correct".to_owned(),
                Json::Bool(self.failed == 0 && self.check_failures.is_empty()),
            ),
            (
                "attempted".to_owned(),
                Json::Num(self.attempted.max(1) as f64),
            ),
            ("failed".to_owned(), Json::Num(self.failed as f64)),
            ("metrics".to_owned(), Json::Obj(metrics)),
        ])
        .render()
    }
}
