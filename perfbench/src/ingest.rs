//! `ingest`: the paper's single, unsharded framework fed the Deployment-1
//! stream. One producer thread pushes every answer through
//! `ServiceHandle::submit` as fast as backpressure allows into a 1-shard
//! service with budget 0, then calls `quiesce`. No HTTP and no ACCOPT:
//! EM rebuilds are nearly all of the wall time, one drain thread runs and
//! the second core is left to the E-step. One shard and one producer make
//! the output deterministic, so every pass is checked bit for bit against
//! a single-threaded `Shard` replay of the same stream.

use std::time::{Duration, Instant};

use crowd_core::{Distances, LabelBits, TaskId, WorkerId};
use crowd_serve::{LabellingService, ServeConfig, Shard, ShardMap};
use crowd_sim::SimPlatform;

use crate::report::Outcome;
use crate::stats::{median, Samples};
use crate::trace::Tracer;
use crate::{world, ModelTiming};

/// Simulated workers in the population.
pub const WORKERS: usize = 200;
/// Distinct workers answering each of the 200 POIs.
pub const K: usize = 10;
/// Fewest passes a run makes, however short its window.
pub const MIN_PASSES: usize = 3;

/// One shard, budget 0, all else `ServeConfig` defaults.
#[must_use]
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        n_shards: 1,
        budget: 0,
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
        Self::sized(seed, K)
    }

    /// The stream with `k` answers per POI (the benchmark's own tests use
    /// a small `k`).
    #[must_use]
    pub fn sized(seed: u64, k: usize) -> Self {
        let platform = world::platform(WORKERS);
        let stream = world::deployment1(&platform, k, seed);
        Self { platform, stream }
    }
}

/// The single-threaded reference: the stream submitted in order to one
/// `Shard` built as the service builds its only shard. Returns its
/// decisions and the timings of every `Shard::submit_global` call.
#[must_use]
pub fn replay(inputs: &Inputs) -> (Vec<LabelBits>, ModelTiming) {
    let tasks = &inputs.platform.dataset.tasks;
    let map = ShardMap::build(tasks, 1);
    let mut shard = Shard::new(
        0,
        tasks,
        map.tasks_of(0),
        inputs.platform.population.pool.clone(),
        serve_config().framework_config(0),
        Distances::from_tasks(tasks),
    );
    let mut timing = ModelTiming::default();
    for &(w, t, bits) in &inputs.stream {
        timing
            .submit(&mut shard, w, t, bits)
            .expect("Deployment-1 answers are valid");
    }
    let mut decisions = vec![LabelBits::zeros(0); tasks.len()];
    shard.decisions_into(&mut decisions);
    (decisions, timing)
}

/// One pass: what the producer saw.
struct Pass {
    service: LabellingService,
    setup: Duration,
    /// First submit until `quiesce` returned.
    wall: Duration,
    /// Per answer: from its submit until the service counted it applied.
    lag: Samples,
    /// Per `submit` call (traced passes only).
    submit: Samples,
    quiesce: Duration,
    queue_depth_max: usize,
    failed: u64,
}

fn pass(inputs: &Inputs, traced: bool, tracer: &mut Tracer) -> Pass {
    let started = Instant::now();
    let service = LabellingService::start(
        &inputs.platform.dataset.tasks,
        &inputs.platform.population.pool,
        serve_config(),
    );
    let setup = started.elapsed();
    let handle = service.handle();
    let n = inputs.stream.len();
    let mut submitted_at = Vec::with_capacity(n);
    let mut lag = Samples::default();
    let mut submit = Samples::default();
    let mut applied = 0usize;
    let mut queue_depth_max = 0;
    let mut failed = 0;
    // The applied count only grows; every answer below it is applied.
    let observe = |lag: &mut Samples, submitted_at: &[Instant], applied: &mut usize| {
        let now = Instant::now();
        let processed = service.metrics().processed as usize;
        while *applied < processed.min(submitted_at.len()) {
            lag.push(now - submitted_at[*applied]);
            *applied += 1;
        }
    };
    let first = Instant::now();
    for (i, &(w, t, bits)) in inputs.stream.iter().enumerate() {
        let call = Instant::now();
        submitted_at.push(call);
        if handle.submit(w, t, bits).is_err() {
            failed += 1;
        }
        if traced {
            let end = Instant::now();
            submit.push(end - call);
            tracer.record("service.submit", i as u64 + 1, 0, call, end);
            if i % 16 == 0 {
                queue_depth_max = queue_depth_max.max(handle.queue_depth());
            }
        }
        observe(&mut lag, &submitted_at, &mut applied);
    }
    let last_submit = Instant::now();
    while applied < n && applied + (failed as usize) < n {
        std::thread::sleep(Duration::from_micros(200));
        observe(&mut lag, &submitted_at, &mut applied);
    }
    service.quiesce();
    let end = Instant::now();
    tracer.record("service.quiesce", 0, 0, last_submit, end);
    Pass {
        service,
        setup,
        wall: end - first,
        lag,
        submit,
        quiesce: end - last_submit,
        queue_depth_max,
        failed,
    }
}

/// Runs the workload: passes over the stream until `seconds` have passed
/// (at least [`MIN_PASSES`]); a traced run alternates untraced and traced
/// passes so `trace.overhead` compares like with like.
pub fn run(seed: u64, seconds: u64, traced: bool, out: &mut Outcome) {
    let inputs = Inputs::new(seed);
    let n = inputs.stream.len();
    let (reference, timing) = replay(&inputs);
    out.note("stream_answers", n);
    out.note("passes_min", MIN_PASSES);

    let mut tracer = Tracer::new(traced, Instant::now());
    let mut setup = Vec::new();
    let mut rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut lag = Samples::default();
    let mut submit = Samples::default();
    let mut quiesce = Samples::default();
    let mut blocked = Vec::new();
    let mut depth = 0;
    let window = Instant::now();
    let mut last = None;
    let mut i = 0;
    while i < MIN_PASSES || window.elapsed() < Duration::from_secs(seconds) {
        // Only the last pass's service outlives its pass; stop the one
        // before so no idle service shares the next pass's cores.
        if let Some(prev) = last.take() {
            LabellingService::shutdown(prev);
        }
        let spans = traced && i % 2 == 1;
        let p = pass(&inputs, spans, &mut tracer);
        out.attempted += n as u64;
        out.failed += p.failed;
        setup.push(p.setup.as_secs_f64());
        let rate = n as f64 / p.wall.as_secs_f64();
        if spans {
            traced_rates.push(rate);
            blocked.push(p.submit.sum() / crate::stats::ms(p.wall));
            submit.extend(p.submit);
            depth = depth.max(p.queue_depth_max);
        } else {
            rates.push(rate);
            lag.extend(p.lag);
        }
        quiesce.push(p.quiesce);
        out.check(
            p.service.decisions() == reference,
            format!("pass {i}: decisions differ from the single-threaded replay"),
        );
        last = Some(p.service);
        i += 1;
    }
    out.note("passes", i);
    out.set("setup_s", median(&setup), setup.len());
    out.set("ops_per_s", median(&rates), rates.len());
    out.set("wait_p50_ms", lag.pct(0.50), lag.len());
    out.note(
        "wait_p99_ms",
        format!("{:.4} (n={})", lag.pct(0.99), lag.len()),
    );

    let service = last.expect("at least one pass");
    crate::counters(&service, out);
    service.force_full_em();
    out.set(
        "accuracy",
        world::accuracy(&inputs.platform, &service.decisions()),
        inputs.platform.dataset.tasks.len(),
    );
    crate::roundtrip(
        &inputs.platform.dataset.tasks,
        &inputs.platform.population.pool,
        &service,
        out,
    );
    service.shutdown();

    if traced {
        out.set("service.submit_ms.p99", submit.pct(0.99), submit.len());
        out.set("service.blocked_share", median(&blocked), blocked.len());
        out.set("service.quiesce_ms", quiesce.pct(0.50), quiesce.len());
        out.set("service.queue_depth.max", depth as f64, submit.len() / 16);
        out.set(
            "trace.overhead",
            median(&rates) / median(&traced_rates) - 1.0,
            traced_rates.len(),
        );
        timing.report(out, serve_config().policy.parallelism.resolve());
        out.extra.push(("spans".to_owned(), tracer.to_json()));
    }
}
