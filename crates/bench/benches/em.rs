//! Inference hot-path micro-benchmarks: the cost of the delayed rebuild
//! (the dominant per-shard cost in `crowd_serve`) across log sizes, for
//! every implementation tier:
//!
//! * `naive_full`    — warm-started full EM on the reference path
//!   (per-iteration `FvalTable`, per-bit `factored`); what every rebuild
//!   cost before the overhaul.
//! * `cached_full`   — the same full EM on the answer-geometry cache with
//!   prepared per-answer terms (`EmRun`); bit-identical results.
//! * `dirty_set`     — `OnlineModel::full_em` after 100 fresh submits on a
//!   converged model: re-sweeps only answers touching dirty tasks/workers.
//! * `incremental`   — absorbing the same 100 answers with no rebuild at
//!   all (the per-submit steady-state cost, for scale).
//!
//! * `parallel_full_tN` — the same full EM at `N` E-step threads
//!   (`EmRun::threads`): `t1` is the sequential sweep, every
//!   `N ≥ 2` the two-thread side split (task side on the caller, worker
//!   side on one helper), so `t4`/`t8` repeat `t2`; bit-identical
//!   results, pure throughput.
//!
//! The committed baseline lives in `BENCH_em.json` at the repo root. With
//! `EM_BENCH_ENFORCE=1` (set by CI) the final "bench" asserts that the
//! optimized rebuild beats the naive rebuild at the largest log size and
//! that the parallel sweep at the `EM_THREADS` setting is no regression
//! over the sequential one.
//!
//! Environment knobs:
//!
//! * `EM_THREADS` — `max` resolves to the host's available parallelism,
//!   a number pins the E-step thread count (a sweep uses at most two);
//!   absent means `1` (the sequential baseline configuration). Applied to
//!   the online-model rows (`dirty_set`, `incremental`) and the smoke
//!   gate.
//! * `EM_SWEEP=1` — additionally runs the policy-knob sweep
//!   (`full_sweep_every`, `dirty_coverage_fallback`) and prints one JSON
//!   line per configuration for `BENCH_em.json`'s sweep table.
//! * `EM_FLOOR=1` — additionally prints the sequential vs side-split
//!   per-iteration cost on short logs of three worlds, the rows behind
//!   `BENCH_em.json`'s `parallel_full.floor` table and
//!   `EmParallelism::effective`'s floor.

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use crowd_core::model::{run_em_from_naive, AnswerGeometry, EmRun};
use crowd_core::{
    synthetic_task, Answer, AnswerLog, EmConfig, EmParallelism, LabelBits, ModelParams,
    OnlineModel, PeerStats, TaskId, TaskSet, UpdatePolicy, WorkerId,
};
use crowd_geo::Point;

/// E-step thread counts the `parallel_full` rows sweep.
const THREAD_ROWS: [usize; 4] = [1, 2, 4, 8];

/// The `EM_THREADS` environment knob: `max` → auto-resolve, a number →
/// that many threads, absent → the sequential baseline.
fn em_threads_from_env() -> EmParallelism {
    match std::env::var("EM_THREADS") {
        Ok(s) if s == "max" => EmParallelism::Auto,
        Ok(s) => EmParallelism::Fixed(s.parse().expect("EM_THREADS must be a number or 'max'")),
        Err(_) => EmParallelism::Fixed(1),
    }
}

const N_TASKS: usize = 400;
const N_WORKERS: usize = 1500;
const N_LABELS: usize = 4;
/// Fresh submits between delayed rebuilds (the paper's policy).
const FRESH: usize = 100;
const LOG_SIZES: [usize; 3] = [1000, 4000, 16000];

fn world() -> (TaskSet, AnswerLog) {
    let tasks = TaskSet::new(
        (0..N_TASKS)
            .map(|i| {
                synthetic_task(
                    format!("t{i}"),
                    Point::new((i % 20) as f64, (i / 20) as f64),
                    N_LABELS,
                )
            })
            .collect(),
    );
    let log = AnswerLog::new(tasks.len(), N_WORKERS);
    (tasks, log)
}

/// Deterministic answer `i` of the synthetic stream: workers cycle, each
/// answering a worker-specific progression of tasks.
fn answer_at(i: usize) -> Answer {
    let w = i % N_WORKERS;
    let round = i / N_WORKERS;
    let t = (round * 17 + w * 3) % N_TASKS;
    let seed = crowd_sim::rngx::pair_seed(w as u64, t as u64);
    Answer {
        worker: WorkerId::from_index(w),
        task: TaskId::from_index(t),
        bits: LabelBits::from_slice(
            &(0..N_LABELS)
                .map(|k| seed >> k & 1 == 1)
                .collect::<Vec<_>>(),
        ),
        distance: f64::from(u32::try_from(seed & 0xffff).unwrap()) / 65535.0,
    }
}

/// A converged model over the first `size - FRESH` answers with the last
/// `FRESH` absorbed but not yet rebuilt — the state every delayed rebuild
/// starts from — plus the full log and its geometry cache.
struct Prepared {
    tasks: TaskSet,
    log: AnswerLog,
    geometry: AnswerGeometry,
    config: EmConfig,
    /// Converged, then dirtied by the last `FRESH` absorptions.
    model: OnlineModel,
    /// Converged over the prefix only; used to time pure absorption.
    settled: OnlineModel,
    fresh: Vec<Answer>,
}

impl Prepared {
    /// The cached full EM over this log at `threads` E-step threads.
    fn em_run(&self, threads: usize) -> EmRun<'_> {
        EmRun {
            tasks: &self.tasks,
            log: &self.log,
            geometry: &self.geometry,
            config: &self.config,
            peers: PeerStats::empty_ref(),
            threads,
            baseline: None,
        }
    }
}

fn prepare(size: usize) -> Prepared {
    // A policy that never full-sweeps on its own: rebuild cadence is driven
    // manually, so each timed rebuild exercises exactly one path.
    prepare_policy(
        size,
        UpdatePolicy {
            full_em_every: None,
            full_sweep_every: usize::MAX,
            parallelism: em_threads_from_env(),
            ..UpdatePolicy::default()
        },
    )
}

fn time_naive_rebuild(p: &Prepared) -> std::time::Duration {
    let mut params = p.model.params().clone();
    let start = Instant::now();
    black_box(run_em_from_naive(
        &p.tasks,
        &p.log,
        &p.config,
        black_box(&mut params),
    ));
    start.elapsed()
}

fn time_dirty_rebuild(p: &Prepared) -> std::time::Duration {
    let mut model = p.model.clone();
    let start = Instant::now();
    model.full_em(&p.tasks, &p.log);
    black_box(model.params());
    let elapsed = start.elapsed();
    let report = model.last_report().expect("rebuild ran");
    if report.full_sweep {
        // The dirty path disengaged (e.g. a constant change pushed the
        // dirty coverage past the fallback limit) — the gate would compare
        // full sweep vs full sweep. Surface it; panic only when enforcing.
        eprintln!("warning: smoke gate measured a full sweep, not a dirty-set rebuild");
        assert!(
            std::env::var_os("EM_BENCH_ENFORCE").is_none(),
            "expected a dirty-set rebuild at the largest log size"
        );
    }
    elapsed
}

fn bench_em(c: &mut Criterion) {
    let prepared: Vec<Prepared> = LOG_SIZES.iter().map(|&s| prepare(s)).collect();
    let mut group = c.benchmark_group("em_rebuild");
    group.sample_size(10);
    // Every tier clones its mutable starting state in `iter_batched` setup,
    // outside the timed region, so the tiers are measured on equal footing.
    for p in &prepared {
        let size = p.log.len();
        group.bench_with_input(BenchmarkId::new("naive_full", size), p, |b, p| {
            b.iter_batched(
                || p.model.params().clone(),
                |mut params| {
                    black_box(run_em_from_naive(&p.tasks, &p.log, &p.config, &mut params));
                    params
                },
                BatchSize::PerIteration,
            );
        });
        group.bench_with_input(BenchmarkId::new("cached_full", size), p, |b, p| {
            b.iter_batched(
                || p.model.params().clone(),
                |mut params| {
                    black_box(p.em_run(1).run(&mut params));
                    params
                },
                BatchSize::PerIteration,
            );
        });
        for threads in THREAD_ROWS {
            group.bench_with_input(
                BenchmarkId::new(format!("parallel_full_t{threads}"), size),
                p,
                |b, p| {
                    b.iter_batched(
                        || p.model.params().clone(),
                        |mut params| {
                            black_box(p.em_run(threads).run(&mut params));
                            params
                        },
                        BatchSize::PerIteration,
                    );
                },
            );
        }
        group.bench_with_input(BenchmarkId::new("dirty_set", size), p, |b, p| {
            b.iter_batched(
                || p.model.clone(),
                |mut model| {
                    model.full_em(&p.tasks, &p.log);
                    black_box(model.last_report().map(|r| r.iterations));
                    model
                },
                BatchSize::PerIteration,
            );
        });
        group.bench_with_input(BenchmarkId::new("incremental", size), p, |b, p| {
            b.iter_batched(
                || p.settled.clone(),
                |mut model| {
                    for answer in &p.fresh {
                        model.absorb(&p.tasks, answer);
                    }
                    black_box(model.absorbed_since_full());
                    model
                },
                BatchSize::PerIteration,
            );
        });
    }
    group.finish();
}

/// One warm-started full sweep at `threads` E-step threads.
fn time_parallel_rebuild(p: &Prepared, threads: usize) -> std::time::Duration {
    let mut params = p.model.params().clone();
    let start = Instant::now();
    black_box(p.em_run(threads).run(black_box(&mut params)));
    start.elapsed()
}

/// CI smoke gate: at the largest log size the optimized rebuild (dirty-set
/// path, as the service runs it) must not be slower than the naive full
/// EM, and the parallel full sweep at the `EM_THREADS` setting must not be
/// slower than the sequential one (with ≥ 2 resolved threads on a
/// multi-core host it must be a real speedup). Only enforced with
/// `EM_BENCH_ENFORCE=1` so local runs never flake.
fn bench_smoke_gate(_c: &mut Criterion) {
    let p = prepare(*LOG_SIZES.last().unwrap());
    let enforce = std::env::var_os("EM_BENCH_ENFORCE").is_some();
    let naive = (0..3).map(|_| time_naive_rebuild(&p)).min().unwrap();
    let optimized = (0..3).map(|_| time_dirty_rebuild(&p)).min().unwrap();
    let ratio = naive.as_secs_f64() / optimized.as_secs_f64();
    eprintln!(
        "smoke gate @ {} answers: naive {naive:?} vs optimized {optimized:?} ({ratio:.1}x)",
        p.log.len()
    );
    if enforce {
        assert!(
            optimized <= naive,
            "optimized rebuild ({optimized:?}) is slower than the naive full EM ({naive:?})"
        );
    }

    let threads = em_threads_from_env().sweep_threads();
    let sequential = (0..3).map(|_| time_parallel_rebuild(&p, 1)).min().unwrap();
    let parallel = (0..3)
        .map(|_| time_parallel_rebuild(&p, threads))
        .min()
        .unwrap();
    let speedup = sequential.as_secs_f64() / parallel.as_secs_f64();
    eprintln!(
        "parallel gate @ {} answers: t1 {sequential:?} vs t{threads} {parallel:?} ({speedup:.2}x)",
        p.log.len()
    );
    if enforce {
        if threads == 1 {
            // Same code path by construction; the 5% margin absorbs timer
            // noise while still catching an accidental buffer/dispatch
            // cost leaking into the sequential configuration.
            assert!(
                parallel.as_secs_f64() <= sequential.as_secs_f64() * 1.05,
                "EM_THREADS=1 regressed the sequential sweep: {parallel:?} vs {sequential:?}"
            );
        } else if std::thread::available_parallelism().map_or(1, std::num::NonZero::get) >= 2 {
            assert!(
                speedup >= 1.5,
                "parallel full sweep at {threads} threads is only {speedup:.2}x over sequential"
            );
        }
    }
}

/// A `prepare`d world whose online model runs under `policy` instead of
/// the manual-cadence default — the sweep needs each probe policy baked
/// in at construction because `UpdatePolicy` is fixed for a model's life.
fn prepare_policy(size: usize, policy: UpdatePolicy) -> Prepared {
    assert!(size > FRESH);
    let (tasks, mut log) = world();
    let config = EmConfig::default();
    let mut model = OnlineModel::new(&tasks, &log, config.clone(), policy);
    let mut fresh = Vec::new();
    let mut i = 0;
    while log.len() < size {
        let answer = answer_at(i);
        i += 1;
        if log.push(&tasks, answer).is_err() {
            continue;
        }
        if log.len() == size - FRESH {
            model.full_sweep(&tasks, &log);
        }
        if log.len() > size - FRESH {
            fresh.push(answer);
        }
    }
    let settled = model.clone();
    for answer in &fresh {
        model.absorb(&tasks, answer);
    }
    let geometry = AnswerGeometry::build(&tasks, &log, &config.fset);
    Prepared {
        tasks,
        log,
        geometry,
        config,
        model,
        settled,
        fresh,
    }
}

/// Policy-knob sweep (`EM_SWEEP=1`): prices one delayed rebuild of the
/// standard 100-fresh-answer dirtied state on the 4000-answer world under
/// each knob setting and prints one JSON line per configuration — the
/// raw rows behind `BENCH_em.json`'s `knob_sweep` table.
///
/// `dirty_coverage_fallback` rows measure `full_em` directly (the knob
/// decides whether the dirty path engages; `dirty_share` records which
/// path actually ran). `full_sweep_every = K` rows amortize one K-cycle
/// from the two measured path costs — (K−1) dirty rebuilds plus one
/// scheduled full sweep — because a real cycle would need K×100 distinct
/// fresh answers and the knob only changes cadence, never per-rebuild
/// cost.
fn bench_knob_sweep(_c: &mut Criterion) {
    if std::env::var_os("EM_SWEEP").is_none() {
        return;
    }
    let manual = |dirty_coverage_fallback: usize| UpdatePolicy {
        full_em_every: None,
        full_sweep_every: usize::MAX,
        dirty_coverage_fallback,
        parallelism: em_threads_from_env(),
    };
    // One rebuild of the dirtied state under each coverage-fallback value.
    let mut dirty_ns = f64::INFINITY; // the engaged dirty path, for amortization
    let mut full_ns = f64::INFINITY; // the disengaged (full-sweep) path
    for dirty_coverage_fallback in [20usize, 40, 60, 80, 100] {
        let p = prepare_policy(4000, manual(dirty_coverage_fallback));
        let mut best = f64::INFINITY;
        let mut full_sweeps = 0u32;
        for _ in 0..3 {
            let mut m = p.model.clone();
            let start = Instant::now();
            m.full_em(&p.tasks, &p.log);
            best = best.min(start.elapsed().as_secs_f64());
            full_sweeps += u32::from(m.last_report().expect("rebuild ran").full_sweep);
        }
        let dirty_share = if full_sweeps > 0 { 0.0 } else { 1.0 };
        if full_sweeps > 0 {
            full_ns = full_ns.min(best * 1e9);
        } else {
            dirty_ns = dirty_ns.min(best * 1e9);
        }
        eprintln!(
            "knob_sweep {{\"knob\":\"dirty_coverage_fallback\",\"value\":{dirty_coverage_fallback},\
             \"mean_rebuild_ns\":{:.0},\"dirty_share\":{dirty_share:.2}}}",
            best * 1e9
        );
    }
    // If every fallback value kept the dirty path engaged, price the full
    // sweep from the cached-geometry batch path it would take.
    if full_ns.is_infinite() {
        let p = prepare_policy(4000, manual(60));
        full_ns = (0..3)
            .map(|_| time_parallel_rebuild(&p, em_threads_from_env().sweep_threads()))
            .min()
            .unwrap()
            .as_secs_f64()
            * 1e9;
    }
    for full_sweep_every in [1usize, 2, 4, 8, 16] {
        #[allow(clippy::cast_precision_loss)]
        let k = full_sweep_every as f64;
        let amortized = ((k - 1.0) * dirty_ns + full_ns) / k;
        eprintln!(
            "knob_sweep {{\"knob\":\"full_sweep_every\",\"value\":{full_sweep_every},\
             \"mean_rebuild_ns\":{amortized:.0},\"dirty_share\":{:.2}}}",
            (k - 1.0) / k
        );
    }
}

/// A world of the small-log floor probe: its tasks and the answer stream
/// whose prefixes it sweeps, over a log sized for `n_workers`.
struct FloorWorld {
    name: &'static str,
    tasks: TaskSet,
    n_workers: usize,
    stream: Vec<Answer>,
}

/// The worlds the floor probe covers: the Deployment-1 stream (200 POIs,
/// 10 labels each, 10 answers per POI) with the `ingest` benchmark's 200
/// workers and with a campaign shard's 2000, and this bench's synthetic
/// stream (4 labels, 1500 workers).
fn floor_worlds() -> Vec<FloorWorld> {
    let deployment1 = |name, n_workers| {
        let dataset = crowd_sim::beijing(2016);
        let population = crowd_sim::generate_population(
            &crowd_sim::PopulationConfig::with_workers(n_workers, 2017),
            &dataset,
        );
        let platform = crowd_sim::SimPlatform::new(
            dataset,
            population,
            crowd_sim::BehaviorConfig::default(),
            2018,
        );
        let stream = platform.deployment1_with_seed(10, 1).answers().to_vec();
        FloorWorld {
            name,
            tasks: platform.dataset.tasks,
            n_workers,
            stream,
        }
    };
    let (tasks, log) = world();
    let mut synthetic = AnswerLog::new(tasks.len(), N_WORKERS);
    for i in 0..4 * N_WORKERS {
        // Repeated (worker, task) pairs are rejected; skip them.
        let _ = synthetic.push(&tasks, answer_at(i));
    }
    vec![
        deployment1("deployment1_w200", 200),
        deployment1("deployment1_w2000", 2000),
        FloorWorld {
            name: "synthetic_w1500",
            tasks,
            n_workers: log.n_workers(),
            stream: synthetic.answers().to_vec(),
        },
    ]
}

/// Small-log floor probe (`EM_FLOOR=1`): the per-iteration cost of the
/// sequential and the side-split full sweep on prefixes of each
/// [`floor_worlds`] stream, the two interleaved rep by rep so host drift
/// hits both alike, printed as one JSON line per world and log size — the
/// rows behind `BENCH_em.json`'s `parallel_full.floor` table and
/// `EmParallelism::SMALL_LOG_FLOOR` and `WORKERS_PER_SPLIT_ANSWER`. Each
/// line also says whether an online model would split that sweep
/// (`split`).
fn bench_floor(_c: &mut Criterion) {
    if std::env::var_os("EM_FLOOR").is_none() {
        return;
    }
    const ITERATIONS: usize = 20;
    const REPS: usize = 21;
    let config = EmConfig {
        tolerance: 0.0,
        max_iterations: ITERATIONS,
        ..EmConfig::default()
    };
    for world in floor_worlds() {
        for size in [64, 128, 192, 256, 384, 512, 768, 1000, 1500, 2000] {
            let mut log = AnswerLog::new(world.tasks.len(), world.n_workers);
            for answer in &world.stream[..size] {
                log.push(&world.tasks, *answer)
                    .expect("a prefix of a valid stream");
            }
            let geometry = AnswerGeometry::build(&world.tasks, &log, &config.fset);
            let init = ModelParams::init(
                &world.tasks,
                log.n_workers(),
                config.fset.len(),
                config.init,
                &log,
            );
            let mut ns = [Vec::new(), Vec::new()];
            for _ in 0..REPS {
                for (samples, threads) in ns.iter_mut().zip([1, 2]) {
                    let mut params = init.clone();
                    let start = Instant::now();
                    let run = EmRun {
                        tasks: &world.tasks,
                        log: &log,
                        geometry: &geometry,
                        config: &config,
                        peers: PeerStats::empty_ref(),
                        threads,
                        baseline: None,
                    };
                    black_box(run.run(&mut params));
                    #[allow(clippy::cast_precision_loss)]
                    samples.push(start.elapsed().as_secs_f64() * 1e9 / ITERATIONS as f64);
                }
            }
            let [t1, t2] = ns.map(|mut v| {
                v.sort_by(f64::total_cmp);
                v[REPS / 2]
            });
            let bits = geometry.total_bits();
            let split = EmParallelism::Fixed(2).effective(size, log.n_workers()) > 1;
            eprintln!(
                "floor {{\"world\":\"{}\",\"log_size\":{size},\"label_bits\":{bits},\"n_workers\":{},\"t1_ns_per_iter\":{t1:.0},\"t2_ns_per_iter\":{t2:.0},\"t1_over_t2\":{:.2},\"split\":{split}}}",
                world.name,
                log.n_workers(),
                t1 / t2
            );
        }
    }
}

criterion_group!(
    benches,
    bench_em,
    bench_smoke_gate,
    bench_knob_sweep,
    bench_floor
);
criterion_main!(benches);
