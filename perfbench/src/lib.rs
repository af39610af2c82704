//! A layer-attributed benchmark of the crowdpoi labelling service.
//!
//! Three workloads drive the release build through its public surfaces:
//! `campaign` (open-loop HTTP, 4 shards), `ingest` (one producer into a
//! 1-shard service) and `recover` (checkpoint → recover cycles). The
//! untraced run reports the end-to-end metrics; the traced run times every
//! call the benchmark makes into a layer's public functions and reports the
//! per-layer metrics. See `perfbench/README.md`.

pub mod campaign;
pub mod client;
pub mod ingest;
pub mod recover;
pub mod report;
pub mod stats;
pub mod trace;
pub mod world;

use std::time::Instant;

use crowd_core::{CoreError, LabelBits, TaskId, TaskSet, WorkerId, WorkerPool};
use crowd_serve::{LabellingService, ServiceSnapshot, Shard, ShardMetricsSnapshot};

use report::Outcome;
use stats::Samples;

/// Timings and exact counts of `Shard::submit_global` calls in a
/// single-threaded replay: a call that returns `false` absorbed the answer
/// incrementally, one that returns `true` ran a delayed EM rebuild.
#[derive(Debug, Default)]
pub struct ModelTiming {
    pub absorb: Samples,
    pub rebuild: Samples,
    pub full_sweeps: u64,
    pub dirty_sweeps: u64,
    pub iterations: u64,
    pub answers_swept: u64,
}

impl ModelTiming {
    /// Submits one answer to `shard`, timing the call and reading the
    /// rebuild report when one ran.
    ///
    /// # Errors
    /// The shard's rejection.
    pub fn submit(
        &mut self,
        shard: &mut Shard,
        w: WorkerId,
        t: TaskId,
        bits: LabelBits,
    ) -> Result<bool, CoreError> {
        let started = Instant::now();
        let triggered = shard.submit_global(w, t, bits)?;
        let took = started.elapsed();
        if triggered {
            self.rebuild.push(took);
            if let Some(report) = shard.framework().model().last_report() {
                if report.full_sweep {
                    self.full_sweeps += 1;
                } else {
                    self.dirty_sweeps += 1;
                }
                self.iterations += report.iterations as u64;
                self.answers_swept += report.answers_swept as u64;
            }
        } else {
            self.absorb.push(took);
        }
        Ok(triggered)
    }

    /// Reports the `model.*` and `em.*` metrics.
    pub fn report(&self, out: &mut Outcome, em_threads: usize) {
        out.set(
            "model.absorb_us.p50",
            self.absorb.pct(0.50) * 1e3,
            self.absorb.len(),
        );
        out.set(
            "em.rebuild_ms.p50",
            self.rebuild.pct(0.50),
            self.rebuild.len(),
        );
        out.set(
            "em.rebuild_ms.p99",
            self.rebuild.pct(0.99),
            self.rebuild.len(),
        );
        out.set(
            "em.rebuild_s.sum",
            self.rebuild.sum() / 1e3,
            self.rebuild.len(),
        );
        let n = self.rebuild.len();
        out.set("em.full_sweeps", self.full_sweeps as f64, n);
        out.set("em.dirty_sweeps", self.dirty_sweeps as f64, n);
        out.set("em.iterations", self.iterations as f64, n);
        out.set("em.answers_swept", self.answers_swept as f64, n);
        out.set("em.threads", em_threads as f64, 1);
    }
}

/// Reads the shard counters from `LabellingService::metrics()` into the
/// `service.*` metrics and checks that no shard rejected an answer (in
/// `campaign`, a rejection means a pair was issued twice).
pub fn counters(service: &LabellingService, out: &mut Outcome) {
    let shards = service.metrics().shards;
    let sum = |f: fn(&ShardMetricsSnapshot) -> u64| shards.iter().map(f).sum::<u64>();
    let rejected = sum(|s| s.rejected);
    out.set("service.rejected", rejected as f64, 1);
    out.set("service.rebuilds", sum(|s| s.em_rebuilds) as f64, 1);
    out.set("service.gossip_folds", sum(|s| s.gossip_folds) as f64, 1);
    out.check(
        rejected == 0,
        format!("{rejected} answers rejected by a shard"),
    );
}

/// One checkpoint → recover cycle, split at the four public calls.
#[derive(Debug)]
pub struct Cycle {
    pub doc: String,
    pub restored: LabellingService,
    pub parsed: ServiceSnapshot,
    pub capture_ms: f64,
    pub render_ms: f64,
    pub parse_ms: f64,
    pub restore_ms: f64,
}

/// Checkpoint (`LabellingService::snapshot` + `ServiceSnapshot::to_json`)
/// then recover (`ServiceSnapshot::from_json` + `LabellingService::restore`).
///
/// # Errors
/// A parse or restore failure, as text.
pub fn cycle(
    tasks: &TaskSet,
    pool: &WorkerPool,
    source: &LabellingService,
) -> Result<Cycle, String> {
    let t0 = Instant::now();
    let snapshot = source.snapshot();
    let t1 = Instant::now();
    let doc = snapshot.to_json();
    let t2 = Instant::now();
    let parsed = ServiceSnapshot::from_json(&doc).map_err(|e| format!("from_json: {e}"))?;
    let t3 = Instant::now();
    let restored =
        LabellingService::restore(tasks, pool, &parsed).map_err(|e| format!("restore: {e}"))?;
    let t4 = Instant::now();
    Ok(Cycle {
        doc,
        restored,
        parsed,
        capture_ms: stats::ms(t1 - t0),
        render_ms: stats::ms(t2 - t1),
        parse_ms: stats::ms(t3 - t2),
        restore_ms: stats::ms(t4 - t3),
    })
}

/// Output checks of a recovered service: the same decisions as its source,
/// and a re-rendered document byte-equal to the one it was restored from.
pub fn check_recovered(source_decisions: &[LabelBits], cycle: &Cycle, out: &mut Outcome) {
    out.check(
        cycle.restored.decisions() == source_decisions,
        "restored decisions differ from the source's",
    );
    out.check(
        cycle.restored.snapshot().to_json() == cycle.doc,
        "re-rendered snapshot differs from the document it was restored from",
    );
}

/// Answers recorded after each shard's checkpoint (what restore replays)
/// and out-of-stream events, counted from a parsed document.
#[must_use]
pub fn suffix_and_events(parsed: &ServiceSnapshot) -> (usize, usize) {
    let mut suffix = 0;
    let mut events = 0;
    for shard in &parsed.shards {
        let stream = shard.pruned_pairs.len() + shard.answers.len();
        suffix += stream
            - shard
                .checkpoint
                .as_ref()
                .map_or(0, |c| c.position.min(stream));
        events += shard.gossip_events.len();
    }
    (suffix, events)
}

/// The end-of-run persistence round trip of `campaign` and `ingest`: one
/// cycle over the final state, checked, its document size reported as
/// `state_mb` and its calls as the `snapshot.*` / `json.*` layers.
pub fn roundtrip(
    tasks: &TaskSet,
    pool: &WorkerPool,
    service: &LabellingService,
    out: &mut Outcome,
) {
    let decisions = service.decisions();
    match cycle(tasks, pool, service) {
        Ok(c) => {
            check_recovered(&decisions, &c, out);
            out.set("state_mb", c.doc.len() as f64 / 1e6, 1);
            out.set("snapshot.capture_ms", c.capture_ms, 1);
            out.set("json.render_ms", c.render_ms, 1);
            out.set("json.parse_ms", c.parse_ms, 1);
            out.set("snapshot.restore_ms", c.restore_ms, 1);
            let (suffix, events) = suffix_and_events(&c.parsed);
            out.set("snapshot.suffix_answers", suffix as f64, 1);
            out.set("snapshot.events", events as f64, 1);
            c.restored.shutdown();
        }
        Err(e) => out.check(false, e),
    }
}
