//! Service-layer ingestion throughput: the paper's Deployment-1 answer
//! stream (k simulated answers per task, globally shuffled — what a live
//! campaign actually delivers) pushed through `crowd_serve` by four
//! producer threads, at 1/2/4/8 shards. More shards mean smaller per-shard
//! logs for the delayed EM rebuilds *and* independent ingestion queues, so
//! the per-submit model update (the real cost) shrinks and parallelises
//! across regions.
//!
//! The timed unit includes service construction and shutdown — the
//! campaign-restart path a production deployment pays — but is dominated
//! by the `submits`-long ingestion phase. A second row set repeats every
//! shard count with cross-shard worker-quality gossip enabled (every 100
//! applied answers per shard) to price the accuracy-recovering exchange.
//! Committed baseline numbers live in `BENCH_serve.json` at the repo root.

//! Environment knobs: `EM_THREADS` (`max` or a number) sets the E-step
//! parallelism of every row's update policy; `SERVE_SCALING=1` adds the
//! shard×thread scaling curve (every shard count at every E-step thread
//! count); `EM_SWEEP=1` adds the `gossip_every` knob sweep, printed as
//! JSON lines for `BENCH_serve.json`'s sweep table. The elasticity
//! rows (throughput before/during/after a live shard-map split, with a
//! storm-free control campaign) always run and print as JSON lines for
//! the same file's elasticity block.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowd_core::{
    synthetic_task, EmParallelism, LabelBits, TaskId, TaskSet, UpdatePolicy, Worker, WorkerId,
    WorkerPool,
};
use crowd_geo::Point;
use crowd_serve::{LabellingService, RetentionPolicy, ServeConfig};
use crowd_sim::{generate_population, BehaviorConfig, PopulationConfig, SimPlatform};

const SUBMITS: usize = 2000;
const PRODUCERS: usize = 4;

/// The `EM_THREADS` environment knob: `max` → auto-resolve, a number →
/// that many E-step threads, absent → the sequential baseline.
fn em_threads_from_env() -> EmParallelism {
    match std::env::var("EM_THREADS") {
        Ok(s) if s == "max" => EmParallelism::Auto,
        Ok(s) => EmParallelism::Fixed(s.parse().expect("EM_THREADS must be a number or 'max'")),
        Err(_) => EmParallelism::Fixed(1),
    }
}

fn platform() -> SimPlatform {
    let dataset = crowd_sim::beijing(41);
    let population = generate_population(&PopulationConfig::with_workers(60, 42), &dataset);
    SimPlatform::new(dataset, population, BehaviorConfig::default(), 43)
}

/// The Deployment-1 stream (`SUBMITS / n_tasks` answers per task, shuffled
/// arrival order, model-generated verdicts), dealt round-robin into one
/// sub-stream per producer.
fn streams(platform: &SimPlatform) -> Vec<Vec<(WorkerId, TaskId, LabelBits)>> {
    let n_tasks = platform.dataset.tasks.len();
    assert_eq!(SUBMITS % n_tasks, 0, "SUBMITS must be k * n_tasks");
    let log = platform.deployment1(SUBMITS / n_tasks);
    assert_eq!(log.len(), SUBMITS);
    let mut out = vec![Vec::new(); PRODUCERS];
    for (i, a) in log.answers().iter().enumerate() {
        out[i % PRODUCERS].push((a.worker, a.task, a.bits));
    }
    out
}

fn ingest(
    platform: &SimPlatform,
    streams: &[Vec<(WorkerId, TaskId, LabelBits)>],
    shards: usize,
    gossip_every: Option<usize>,
    parallelism: EmParallelism,
) {
    let service = LabellingService::start(
        &platform.dataset.tasks,
        &platform.population.pool,
        ServeConfig {
            n_shards: shards,
            ingest_threads: shards,
            queue_capacity: 512,
            budget: 0, // pure ingestion: no assignment traffic
            gossip_every,
            policy: UpdatePolicy {
                parallelism,
                ..UpdatePolicy::default()
            },
            ..ServeConfig::default()
        },
    );
    std::thread::scope(|scope| {
        for stream in streams {
            let handle = service.handle();
            scope.spawn(move || {
                for &(w, t, bits) in stream {
                    handle.submit(w, t, bits).unwrap();
                }
            });
        }
    });
    service.quiesce();
    assert_eq!(service.answers_total(), SUBMITS);
    service.shutdown();
}

fn bench_serve_throughput(c: &mut Criterion) {
    let platform = platform();
    let streams = streams(&platform);
    let parallelism = em_threads_from_env();
    let mut group = c.benchmark_group("serve_ingest_2000_submits");
    group.sample_size(10);
    for shards in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    ingest(
                        black_box(&platform),
                        black_box(&streams),
                        shards,
                        None,
                        parallelism,
                    );
                });
            },
        );
    }
    // The same ingestion with cross-shard worker-quality gossip every 100
    // applied answers per shard — the accuracy-recovering configuration;
    // the delta against the plain rows is the gossip overhead (publishing
    // deltas, folding peers, dirty-marking gossiped workers for rebuilds).
    for shards in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("gossip", shards), &shards, |b, &shards| {
            b.iter(|| {
                ingest(
                    black_box(&platform),
                    black_box(&streams),
                    shards,
                    Some(100),
                    parallelism,
                );
            });
        });
    }
    // The shard×thread scaling curve (SERVE_SCALING=1): every shard count
    // crossed with every E-step thread count — shards parallelise the
    // ingestion queues and shrink per-shard logs, threads parallelise each
    // rebuild's E-step; the curve shows where the two compose and where
    // they contend for cores.
    if std::env::var_os("SERVE_SCALING").is_some() {
        for threads in [1usize, 2, 4, 8] {
            for shards in [1usize, 2, 4, 8] {
                group.bench_with_input(
                    BenchmarkId::new(format!("threads_{threads}"), shards),
                    &shards,
                    |b, &shards| {
                        b.iter(|| {
                            ingest(
                                black_box(&platform),
                                black_box(&streams),
                                shards,
                                None,
                                EmParallelism::Fixed(threads),
                            );
                        });
                    },
                );
            }
        }
    }
    group.finish();
}

// ── Retention pruning: the bounded-memory cycle ────────────────────────
//
// The same Deployment-1 stream, ingested in chunks with an explicit
// `service.prune()` (harden + drop the checkpoint-covered prefix) after
// each chunk — the steady-state loop of an unbounded campaign — against
// the keep-all ingest with the same hardening cadence. The delta is
// dominated by sweep scope: keep-all hardening re-sweeps the whole
// ever-growing log, while a pruned shard sweeps only the resident
// suffix on top of its frozen baseline, so the pruning row gets
// *faster* per answer as the campaign grows (the bounded-memory design
// also bounds rebuild cost).

fn ingest_chunked(
    platform: &SimPlatform,
    streams: &[Vec<(WorkerId, TaskId, LabelBits)>],
    retention: RetentionPolicy,
    chunks: usize,
) {
    let pruning = matches!(retention, RetentionPolicy::PruneCheckpointed { .. });
    let service = LabellingService::start(
        &platform.dataset.tasks,
        &platform.population.pool,
        ServeConfig {
            n_shards: 4,
            ingest_threads: 4,
            queue_capacity: 512,
            budget: 0,
            retention,
            ..ServeConfig::default()
        },
    );
    for chunk in 0..chunks {
        std::thread::scope(|scope| {
            for stream in streams {
                let handle = service.handle();
                let slice = stream.len() / chunks;
                scope.spawn(move || {
                    for &(w, t, bits) in &stream[chunk * slice..(chunk + 1) * slice] {
                        handle.submit(w, t, bits).unwrap();
                    }
                });
            }
        });
        service.quiesce();
        if pruning {
            service.prune();
        } else {
            service.force_full_em();
        }
    }
    assert_eq!(service.answers_total(), SUBMITS);
    if pruning {
        assert_eq!(service.answers_resident(), 0);
    }
    service.shutdown();
}

fn bench_retention_prune(c: &mut Criterion) {
    let platform = platform();
    let streams = streams(&platform);
    let mut group = c.benchmark_group("retention_2000_submits");
    group.sample_size(10);
    group.bench_function("keep_all", |b| {
        b.iter(|| {
            ingest_chunked(
                black_box(&platform),
                black_box(&streams),
                RetentionPolicy::KeepAll,
                4,
            );
        });
    });
    group.bench_function("prune_chunked", |b| {
        b.iter(|| {
            ingest_chunked(
                black_box(&platform),
                black_box(&streams),
                RetentionPolicy::PruneCheckpointed { spill_dir: None },
                4,
            );
        });
    });
    group.finish();
}

/// `gossip_every` knob sweep (`EM_SWEEP=1`): the 4-shard ingestion at
/// each gossip cadence, printed as JSON lines for `BENCH_serve.json`'s
/// sweep table. `0` means gossip disabled.
fn bench_gossip_sweep(_c: &mut Criterion) {
    if std::env::var_os("EM_SWEEP").is_none() {
        return;
    }
    let platform = platform();
    let streams = streams(&platform);
    let parallelism = em_threads_from_env();
    for gossip_every in [0usize, 50, 100, 200, 400] {
        let cadence = (gossip_every > 0).then_some(gossip_every);
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let start = std::time::Instant::now();
            ingest(&platform, &streams, 4, cadence, parallelism);
            best = best.min(start.elapsed().as_secs_f64());
        }
        #[allow(clippy::cast_precision_loss)]
        let per_sec = SUBMITS as f64 / best;
        eprintln!(
            "knob_sweep {{\"knob\":\"gossip_every\",\"value\":{gossip_every},\
             \"best_ns\":{:.0},\"submits_per_sec\":{per_sec:.0}}}",
            best * 1e9
        );
    }
}

// ── Elasticity: ingestion throughput before / during / after a split ──
//
// The 4-shard Deployment-1 ingest measured in three consecutive phases
// of one campaign: a plain warm-up chunk, a chunk racing a
// split/merge-back handoff storm (freeze → drain → transfer → publish
// against live producers), and a final chunk under a persistently moved
// map. Phase throughput declines over a campaign *anyway* — the delayed
// EM rebuilds sweep an ever-growing log — so every storm run is paired
// with a storm-free control campaign measured over the same windows:
// the handoff cost is each row's gap to its `control_ns`, not to the
// row before it. The during-phase gap prices the freeze window (the
// frozen cell's submits park until the transfer publishes) plus the
// transfer's replay rebuild; the after row, running on the moved map,
// prices the epoch-stamped re-route (a per-command index lookup — it
// should sit within noise of its control). Best of `ELASTIC_RUNS`
// campaigns per phase, printed as JSON lines for `BENCH_serve.json`'s
// elasticity block.

const ELASTIC_RUNS: usize = 3;

/// One measured campaign: wall time per phase window, plus the number of
/// published handoffs when `storm` is on (0 when off — the control).
#[allow(clippy::cast_precision_loss)]
fn elastic_campaign(
    platform: &SimPlatform,
    streams: &[Vec<(WorkerId, TaskId, LabelBits)>],
    cuts: (usize, usize),
    storm: bool,
) -> ([f64; 3], usize) {
    use std::sync::atomic::{AtomicBool, Ordering};

    let (cut1, cut2) = cuts;
    let per = streams[0].len();
    let service = LabellingService::start(
        &platform.dataset.tasks,
        &platform.population.pool,
        ServeConfig {
            n_shards: 4,
            ingest_threads: 4,
            queue_capacity: 512,
            budget: 0,
            ..ServeConfig::default()
        },
    );
    let ingest_phase = |lo: usize, hi: usize| {
        let start = std::time::Instant::now();
        std::thread::scope(|scope| {
            for stream in streams {
                let handle = service.handle();
                scope.spawn(move || {
                    for &(w, t, bits) in &stream[lo..hi] {
                        handle.submit(w, t, bits).unwrap();
                    }
                });
            }
        });
        service.quiesce();
        start.elapsed().as_secs_f64()
    };
    let before = ingest_phase(0, cut1);
    let mut handoffs = 0usize;
    let during = if storm {
        // Round-trip handoffs racing the producers: split the hottest
        // cell out, move it straight back, repeat until the chunk is in.
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let (svc, stop_flag) = (&service, &stop);
            let storm_thread = scope.spawn(move || {
                let mut n = 0usize;
                while !stop_flag.load(Ordering::Acquire) {
                    if let Ok(report) = svc.split_hot() {
                        n += 1;
                        std::thread::sleep(std::time::Duration::from_micros(500));
                        n += usize::from(svc.reassign_cell(report.cell, report.from).is_ok());
                    }
                    std::thread::sleep(std::time::Duration::from_micros(500));
                }
                n
            });
            let elapsed = ingest_phase(cut1, cut2);
            stop.store(true, Ordering::Release);
            handoffs = storm_thread.join().expect("storm thread");
            elapsed
        })
    } else {
        ingest_phase(cut1, cut2)
    };
    if storm {
        // One persistent split, so the last phase runs on a moved map.
        handoffs += usize::from(service.split_hot().is_ok());
    }
    let after = ingest_phase(cut2, per);
    assert_eq!(service.answers_total(), SUBMITS);
    if storm {
        assert!(service.metrics().map_version > 1, "no handoff published");
    }
    service.shutdown();
    ([before, during, after], handoffs)
}

#[allow(clippy::cast_precision_loss)]
fn bench_elastic_split(_c: &mut Criterion) {
    let platform = platform();
    let streams = streams(&platform);
    // Per-producer phase cuts: 40% plain, 30% racing the storm, 30%
    // under the moved map.
    let per = streams[0].len();
    let cuts = (per * 2 / 5, per * 7 / 10);
    let mut best = [f64::INFINITY; 3];
    let mut control = [f64::INFINITY; 3];
    let mut handoffs_at_best = 0usize;
    for _ in 0..ELASTIC_RUNS {
        let (phases, handoffs) = elastic_campaign(&platform, &streams, cuts, true);
        for (i, (slot, phase)) in best.iter_mut().zip(phases).enumerate() {
            if phase < *slot {
                *slot = phase;
                if i == 1 {
                    handoffs_at_best = handoffs;
                }
            }
        }
        let (phases, _) = elastic_campaign(&platform, &streams, cuts, false);
        for (slot, phase) in control.iter_mut().zip(phases) {
            *slot = slot.min(phase);
        }
    }
    let submits = [4 * cuts.0, 4 * (cuts.1 - cuts.0), 4 * (per - cuts.1)];
    let phases = ["before_split", "during_split_storm", "after_split"];
    for (((phase, n), secs), ctl) in phases.iter().zip(submits).zip(best).zip(control) {
        let extra = if *phase == "during_split_storm" {
            format!(",\"handoffs\":{handoffs_at_best}")
        } else {
            String::new()
        };
        eprintln!(
            "elasticity {{\"phase\":\"{phase}\",\"submits\":{n},\
             \"best_ns\":{:.0},\"submits_per_sec\":{:.0},\
             \"control_ns\":{:.0},\"control_submits_per_sec\":{:.0}{extra}}}",
            secs * 1e9,
            n as f64 / secs,
            ctl * 1e9,
            n as f64 / ctl
        );
    }
}

// ── Snapshot format: v2 (inline, replay restore) vs v3 (dedup table,
// parameter restore) at 16k answers ─────────────────────────────────────
//
// A 200-task × 80-worker lattice gives exactly 16 000 distinct
// (worker, task) pairs; they are ingested once (4 shards, gossip every
// 100 applied answers per shard — the accuracy-recovering configuration,
// which is also what makes v2 documents balloon: every fold stores a full
// worker-stat payload per folding peer). The timed rows compare restoring
// the same campaign through the v2 algorithm (full event-stream replay)
// and the v3 algorithm (harden from checkpoint parameters + suffix
// replay); the document sizes for both encodings are printed alongside so
// `BENCH_serve.json` can record size and time together.

const SNAPSHOT_SUBMITS: usize = 16_000;

fn snapshot_world() -> (TaskSet, WorkerPool) {
    let tasks = TaskSet::new(
        (0..200)
            .map(|i| {
                synthetic_task(
                    format!("t{i}"),
                    Point::new((i % 20) as f64, (i / 20) as f64 * 1.3),
                    4,
                )
            })
            .collect(),
    );
    let workers = WorkerPool::from_workers(
        (0..80)
            .map(|i| {
                Worker::at(
                    format!("w{i}"),
                    Point::new((i % 10) as f64 * 2.0, (i / 10) as f64 * 1.4),
                )
            })
            .collect(),
    )
    .unwrap();
    (tasks, workers)
}

fn snapshot_bits(w: WorkerId, t: TaskId) -> LabelBits {
    let x = crowd_sim::rngx::pair_seed(u64::from(w.0), u64::from(t.0));
    LabelBits::from_slice(&[x & 1 == 1, x & 2 == 2, x & 4 == 4, x & 8 == 8])
}

fn bench_snapshot_format(c: &mut Criterion) {
    let (tasks, workers) = snapshot_world();
    let service = LabellingService::start(
        &tasks,
        &workers,
        ServeConfig {
            n_shards: 4,
            queue_capacity: 512,
            budget: 0,
            gossip_every: Some(100),
            ..ServeConfig::default()
        },
    );
    let handle = service.handle();
    for w in 0..80u32 {
        for t in 0..200u32 {
            let (w, t) = (WorkerId(w), TaskId(t));
            handle.submit(w, t, snapshot_bits(w, t)).unwrap();
        }
    }
    service.quiesce();
    assert_eq!(service.answers_total(), SNAPSHOT_SUBMITS);
    // Harden so every shard carries a checkpoint near the end of the log —
    // the steady state of a long-running campaign (full sweeps also occur
    // naturally every 8th delayed rebuild).
    service.force_full_em();
    let snapshot = service.snapshot();
    service.shutdown();

    let v3_text = snapshot.to_json();
    eprintln!(
        "snapshot_format_16k: v3_bytes={} (events: {:?})",
        v3_text.len(),
        snapshot
            .shards
            .iter()
            .map(|s| s.gossip_events.len())
            .collect::<Vec<_>>()
    );
    let parsed_v3 = crowd_serve::ServiceSnapshot::from_json(&v3_text).unwrap();
    // Without checkpoints restore replays every shard's whole event stream,
    // as it does for a v2 document.
    let mut replayed = parsed_v3.clone();
    for shard in &mut replayed.shards {
        shard.checkpoint = None;
    }

    // The same campaign under checkpoint pruning: after the hardening
    // prune the document carries only the identity-pair floor plus the
    // frozen baseline instead of 16k answer payloads, and restore
    // bulk-loads that floor instead of replaying — the bounded-memory
    // equivalent of the restore_params_v3 row.
    let pruned_service = LabellingService::start(
        &tasks,
        &workers,
        ServeConfig {
            n_shards: 4,
            queue_capacity: 512,
            budget: 0,
            gossip_every: Some(100),
            retention: RetentionPolicy::PruneCheckpointed { spill_dir: None },
            ..ServeConfig::default()
        },
    );
    let handle = pruned_service.handle();
    for w in 0..80u32 {
        for t in 0..200u32 {
            let (w, t) = (WorkerId(w), TaskId(t));
            handle.submit(w, t, snapshot_bits(w, t)).unwrap();
        }
    }
    pruned_service.quiesce();
    pruned_service.prune();
    let resident = pruned_service.answers_resident();
    let pruned_snapshot = pruned_service.snapshot();
    pruned_service.shutdown();
    let pruned_text = pruned_snapshot.to_json();
    eprintln!(
        "snapshot_format_16k_pruned: v3_bytes={} resident_answers={resident}",
        pruned_text.len(),
    );

    let mut group = c.benchmark_group("snapshot_format_16k");
    group.sample_size(10);
    group.bench_function("restore_replay_v2", |b| {
        b.iter(|| {
            let restored =
                LabellingService::restore(&tasks, &workers, black_box(&replayed)).unwrap();
            black_box(restored.answers_total())
        });
    });
    group.bench_function("restore_params_v3", |b| {
        b.iter(|| {
            let restored =
                LabellingService::restore(&tasks, &workers, black_box(&parsed_v3)).unwrap();
            black_box(restored.answers_total())
        });
    });
    group.bench_function("encode_v3", |b| {
        b.iter(|| black_box(&snapshot).to_json().len());
    });
    group.bench_function("parse_v3", |b| {
        b.iter(|| crowd_serve::ServiceSnapshot::from_json(black_box(&v3_text)).unwrap());
    });
    group.bench_function("restore_params_v3_pruned", |b| {
        b.iter(|| {
            let restored =
                LabellingService::restore(&tasks, &workers, black_box(&pruned_snapshot)).unwrap();
            black_box(restored.answers_total())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_serve_throughput,
    bench_retention_prune,
    bench_gossip_sweep,
    bench_elastic_split,
    bench_snapshot_format
);
criterion_main!(benches);
