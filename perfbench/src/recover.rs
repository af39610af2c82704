//! `recover`: restart after a crash. A 4-shard gossiping service holds a
//! fixed Deployment-1 stream; the snapshot is taken without a final
//! hardening, so restore hardens from each shard's last checkpoint and
//! replays the post-checkpoint suffix. The run repeats checkpoint
//! (`LabellingService::snapshot` + `ServiceSnapshot::to_json`) → recover
//! (`ServiceSnapshot::from_json` + `LabellingService::restore`) cycles.
//! Persistence does all the work here and none in the other workloads.

use std::time::{Duration, Instant};

use crowd_core::{LabelBits, TaskId, WorkerId};
use crowd_serve::{LabellingService, ServeConfig};
use crowd_sim::SimPlatform;

use crate::report::Outcome;
use crate::stats::{median, Samples};
use crate::trace::Tracer;
use crate::world;

/// Simulated workers in the population.
pub const WORKERS: usize = 80;
/// Distinct workers answering each of the 200 POIs.
pub const K: usize = 20;
/// Geographic shards of the source service.
pub const SHARDS: usize = 4;
/// Answers a shard applies between gossip rounds.
pub const GOSSIP_EVERY: usize = 128;
/// Source states built per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Fewest cycles a run makes, however short its window.
pub const MIN_CYCLES: usize = 20;

/// 4 shards, budget 0, gossip every 128, all else `ServeConfig` defaults.
#[must_use]
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        n_shards: SHARDS,
        budget: 0,
        gossip_every: Some(GOSSIP_EVERY),
        ..ServeConfig::default()
    }
}

/// Generated inputs for one seed.
pub struct Inputs {
    pub platform: SimPlatform,
    pub stream: Vec<(WorkerId, TaskId, LabelBits)>,
}

impl Inputs {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let platform = world::platform(WORKERS);
        let stream = world::deployment1(&platform, K, seed);
        Self { platform, stream }
    }
}

/// Builds the source state: one producer submits the stream, then waits
/// for it to be applied. No hardening.
fn build_source(inputs: &Inputs, submit: &mut Samples, traced: bool) -> (LabellingService, u64) {
    let service = LabellingService::start(
        &inputs.platform.dataset.tasks,
        &inputs.platform.population.pool,
        serve_config(),
    );
    let handle = service.handle();
    let mut failed = 0;
    for &(w, t, bits) in &inputs.stream {
        let call = Instant::now();
        if handle.submit(w, t, bits).is_err() {
            failed += 1;
        }
        if traced {
            submit.push(call.elapsed());
        }
    }
    service.quiesce();
    (service, failed)
}

/// Runs the workload: build the source [`SETUPS`] times, then cycle until
/// `seconds` have passed (at least [`MIN_CYCLES`]). A traced run records a
/// span per call and alternates traced and untraced cycles.
pub fn run(seed: u64, seconds: u64, traced: bool, out: &mut Outcome) {
    let inputs = Inputs::new(seed);
    let tasks = &inputs.platform.dataset.tasks;
    let pool = &inputs.platform.population.pool;
    out.note("stream_answers", inputs.stream.len());

    let mut setup = Vec::new();
    let mut submit = Samples::default();
    let mut source = None;
    for _ in 0..SETUPS {
        if let Some(prev) = source.take() {
            LabellingService::shutdown(prev);
        }
        let started = Instant::now();
        let (service, failed) = build_source(&inputs, &mut submit, traced);
        setup.push(started.elapsed().as_secs_f64());
        out.attempted += inputs.stream.len() as u64;
        out.failed += failed;
        source = Some(service);
    }
    let source = source.expect("at least one setup");
    out.set("setup_s", median(&setup), setup.len());
    crate::counters(&source, out);
    let decisions = source.decisions();

    let mut tracer = Tracer::new(traced, Instant::now());
    let mut restore = Samples::default();
    let mut cycle_ms = Vec::new();
    let mut traced_cycle_ms = Vec::new();
    let (mut capture, mut render, mut parse, mut restore_only) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut timed = 0.0;
    let mut doc_len = 0;
    let mut last = None;
    let window = Instant::now();
    let mut i = 0usize;
    while i < MIN_CYCLES || window.elapsed() < Duration::from_secs(seconds) {
        let spans = traced && i % 2 == 1;
        let began = Instant::now();
        match crate::cycle(tasks, pool, &source) {
            Ok(c) => {
                let total = c.capture_ms + c.render_ms + c.parse_ms + c.restore_ms;
                timed += total;
                if spans {
                    traced_cycle_ms.push(total);
                    let root = tracer.next_id();
                    let trace = i as u64 + 1;
                    let mut at = began;
                    for (name, d) in [
                        ("snapshot.capture", c.capture_ms),
                        ("json.render", c.render_ms),
                        ("json.parse", c.parse_ms),
                        ("snapshot.restore", c.restore_ms),
                    ] {
                        let end = at + Duration::from_secs_f64(d / 1e3);
                        tracer.record(name, trace, root, at, end);
                        at = end;
                    }
                    tracer.record_as(root, "cycle", trace, 0, began, at);
                } else {
                    cycle_ms.push(total);
                    restore.push_ms(c.parse_ms + c.restore_ms);
                    capture.push(c.capture_ms);
                    render.push(c.render_ms);
                    parse.push(c.parse_ms);
                    restore_only.push(c.restore_ms);
                }
                crate::check_recovered(&decisions, &c, out);
                doc_len = c.doc.len();
                // Dropping detaches: the replaced service's threads see it
                // closed and exit within one poll, off the timed path.
                last = Some((c.restored, c.parsed));
            }
            Err(e) => out.check(false, e),
        }
        i += 1;
    }
    out.note("cycles", i);
    out.note("cycle_ms_p50", format!("{:.4}", median(&cycle_ms)));
    out.set("wait_p50_ms", restore.pct(0.50), restore.len());
    out.note(
        "wait_p99_ms",
        format!("{:.4} (n={})", restore.pct(0.99), restore.len()),
    );
    out.set("ops_per_s", i as f64 / (timed / 1e3).max(1e-9), i);
    out.set("state_mb", doc_len as f64 / 1e6, 1);
    out.set("snapshot.capture_ms", median(&capture), capture.len());
    out.set("json.render_ms", median(&render), render.len());
    out.set("json.parse_ms", median(&parse), parse.len());
    out.set(
        "snapshot.restore_ms",
        median(&restore_only),
        restore_only.len(),
    );
    if let Some((restored, parsed)) = last {
        let (suffix, events) = crate::suffix_and_events(&parsed);
        out.set("snapshot.suffix_answers", suffix as f64, 1);
        out.set("snapshot.events", events as f64, 1);
        restored.force_full_em();
        out.set(
            "accuracy",
            world::accuracy(&inputs.platform, &restored.decisions()),
            tasks.len(),
        );
        restored.shutdown();
    }
    source.shutdown();
    if traced {
        out.set("service.submit_ms.p99", submit.pct(0.99), submit.len());
        out.set(
            "trace.overhead",
            median(&traced_cycle_ms) / median(&cycle_ms) - 1.0,
            traced_cycle_ms.len(),
        );
        out.extra.push(("spans".to_owned(), tracer.to_json()));
    }
}
