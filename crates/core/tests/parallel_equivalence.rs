//! Bit-for-bit equivalence of the side-split EM sweeps and the
//! geometry-cache-backed ACCOPT scoring with their sequential paths.
//!
//! Parallelism here is a pure throughput knob: with two threads each EM
//! sweep splits by side — the calling thread accumulates the task-side
//! statistics, one helper the worker-side ones — and both sides visit every
//! answer in answer order, so every accumulator cell receives exactly the
//! additions of the single-threaded sweep. These tests pin that contract:
//! every thread count must reproduce the sequential path (and the naive
//! oracle) bit for bit, including the log-likelihood and delta series, on
//! every rebuild path — full sweeps, dirty-set sweeps, gossip-pooled and
//! frozen-baseline (pruned) rebuilds — and geometry-backed ACCOPT scoring
//! must reproduce the re-evaluating scorer exactly.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use crowd_core::accuracy::AccuracyEstimator;
use crowd_core::model::WorkerStatDelta;
use crowd_core::model::{
    run_em, run_em_naive, AnswerGeometry, EmConfig, EmParallelism, EmReport, EmRun, OnlineModel,
    PeerStats, UpdatePolicy,
};
use crowd_core::{
    synthetic_task, AccOptAssigner, Answer, AnswerLog, AssignContext, Assigner,
    DistanceFunctionSet, Distances, InitStrategy, LabelBits, ModelParams, Recorder, RecorderHandle,
    ReservationSet, TaskId, TaskSet, Worker, WorkerId, WorkerPool,
};
use crowd_geo::Point;
use proptest::prelude::*;

/// Thread counts the equivalence gate sweeps: sequential, the side split,
/// and counts above its two-thread cap (which must run the same split).
const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

fn build_world(
    n_tasks: usize,
    n_workers: usize,
    n_labels: usize,
    answers: &[(u32, u32, u16, f64)],
) -> (TaskSet, WorkerPool, AnswerLog, Vec<Answer>) {
    let tasks = TaskSet::new(
        (0..n_tasks)
            .map(|i| {
                synthetic_task(
                    format!("t{i}"),
                    Point::new((i % 5) as f64, (i / 5) as f64),
                    n_labels,
                )
            })
            .collect(),
    );
    let workers = WorkerPool::from_workers(
        (0..n_workers)
            .map(|i| Worker::at(format!("w{i}"), Point::new(i as f64 * 0.7, 2.0)))
            .collect(),
    )
    .expect("workers have locations");
    let mut log = AnswerLog::new(tasks.len(), n_workers);
    let mut stream = Vec::new();
    for &(w, t, bit_seed, dist) in answers {
        let w = w % n_workers as u32;
        let t = t % n_tasks as u32;
        if log.has_answered(WorkerId(w), TaskId(t)) {
            continue;
        }
        let bits = LabelBits::from_slice(
            &(0..n_labels)
                .map(|k| (bit_seed >> (k % 16)) & 1 == 1)
                .collect::<Vec<_>>(),
        );
        let answer = Answer {
            worker: WorkerId(w),
            task: TaskId(t),
            bits,
            distance: dist,
        };
        log.push(&tasks, answer).expect("valid answer");
        stream.push(answer);
    }
    (tasks, workers, log, stream)
}

/// Asserts two parameter sets are equal bit for bit.
fn assert_same_params(a: &ModelParams, b: &ModelParams) {
    let bits = |p: &ModelParams| -> Vec<u64> {
        [p.z(), p.inherent_all(), p.dw_flat(), p.dt_flat()]
            .concat()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    };
    assert_eq!(bits(a), bits(b), "parameters diverged");
}

/// Asserts two EM runs are the same run: identical parameters and
/// identical per-iteration log-likelihood and delta series, bit for bit.
fn assert_same_run(a: &ModelParams, ra: &EmReport, b: &ModelParams, rb: &EmReport) {
    assert_same_params(a, b);
    assert_eq!(ra.full_sweep, rb.full_sweep);
    assert_eq!(ra.iterations, rb.iterations);
    assert_eq!(ra.converged, rb.converged);
    assert_eq!(ra.answers_swept, rb.answers_swept);
    assert_eq!(
        ra.log_likelihood_history.len(),
        rb.log_likelihood_history.len()
    );
    for (x, y) in ra
        .log_likelihood_history
        .iter()
        .zip(&rb.log_likelihood_history)
    {
        assert_eq!(x.to_bits(), y.to_bits(), "log-likelihood series diverged");
    }
    assert_eq!(ra.max_delta_history.len(), rb.max_delta_history.len());
    for (x, y) in ra.max_delta_history.iter().zip(&rb.max_delta_history) {
        assert_eq!(x.to_bits(), y.to_bits(), "delta series diverged");
    }
}

/// Records the E-step thread count of every rebuild, so a test can prove
/// which path actually ran.
#[derive(Default)]
struct ThreadLog(Mutex<Vec<usize>>);

impl Recorder for ThreadLog {
    fn em_rebuild(
        &self,
        _took: Duration,
        _full_sweep: bool,
        _swept: usize,
        threads: usize,
        _iterations: usize,
        _converged: bool,
    ) {
        self.0.lock().unwrap().push(threads);
    }

    fn assignment(&self, _took: Duration, _pairs: usize) {}
}

/// A `Fixed(1)` and a `Fixed(2)` online model under the same policy, the
/// second recording its rebuilds' thread counts.
struct Pair {
    sequential: OnlineModel,
    split: OnlineModel,
    threads: Arc<ThreadLog>,
}

impl Pair {
    fn new(tasks: &TaskSet, n_workers: usize, policy: UpdatePolicy) -> Self {
        let empty = AnswerLog::new(tasks.len(), n_workers);
        let config = EmConfig {
            max_iterations: 8,
            ..EmConfig::default()
        };
        let model = |parallelism| {
            let policy = UpdatePolicy {
                parallelism,
                ..policy
            };
            OnlineModel::new(tasks, &empty, config.clone(), policy)
        };
        let mut split = model(EmParallelism::Fixed(2));
        let threads = Arc::new(ThreadLog::default());
        split.set_recorder(RecorderHandle::new(
            Arc::clone(&threads) as Arc<dyn Recorder>
        ));
        Self {
            sequential: model(EmParallelism::Fixed(1)),
            split,
            threads,
        }
    }

    fn both(&mut self, mut f: impl FnMut(&mut OnlineModel)) {
        f(&mut self.sequential);
        f(&mut self.split);
    }

    /// The latest rebuild ran on two threads in the split model and gave
    /// the sequential model's run, bit for bit.
    fn assert_split_rebuild_matches(&self) {
        assert_eq!(
            self.threads.0.lock().unwrap().last(),
            Some(&2),
            "the side split did not run"
        );
        assert_same_run(
            self.sequential.params(),
            self.sequential.last_report().expect("a rebuild ran"),
            self.split.params(),
            self.split.last_report().expect("a rebuild ran"),
        );
    }
}

/// A sparse world where a handful of fresh answers dirty a few hundred old
/// ones without covering most of the log: 300 workers answering 3 of 200
/// tasks each, in worker order.
fn sparse_stream() -> (TaskSet, AnswerLog, Vec<Answer>) {
    let answers: Vec<(u32, u32, u16, f64)> = (0..300u32)
        .flat_map(|w| {
            (0..3u32).map(move |j| {
                let t = (w * 7 + j * 53) % 200;
                let bits = (w * 31 + j * 17 + t) as u16;
                (w, t, bits, f64::from((w + 3 * j) % 10) / 10.0)
            })
        })
        .collect();
    let (tasks, _, log, stream) = build_world(200, 300, 3, &answers);
    (tasks, log, stream)
}

/// Dirty-set rebuilds (subtract, then re-add under current parameters)
/// are the same run on two threads as on one, for a dirty set above the
/// small-log floor and below the full-sweep coverage fallback.
#[test]
fn split_dirty_sweep_matches_sequential_bit_for_bit() {
    let (tasks, full_log, stream) = sparse_stream();
    let policy = UpdatePolicy {
        full_em_every: None,
        full_sweep_every: 16,
        ..UpdatePolicy::default()
    };
    let mut pair = Pair::new(&tasks, full_log.n_workers(), policy);
    let fresh = 70;
    let mut log = AnswerLog::new(tasks.len(), full_log.n_workers());
    for answer in &stream[..stream.len() - fresh] {
        log.push(&tasks, *answer).unwrap();
        pair.both(|m| m.absorb(&tasks, answer));
    }
    pair.both(|m| m.full_sweep(&tasks, &log));
    pair.assert_split_rebuild_matches();
    for answer in &stream[stream.len() - fresh..] {
        log.push(&tasks, *answer).unwrap();
        pair.both(|m| m.absorb(&tasks, answer));
    }
    pair.both(|m| m.full_em(&tasks, &log));
    let report = pair.split.last_report().unwrap();
    assert!(!report.full_sweep, "expected a dirty-set rebuild");
    assert!(report.answers_swept >= EmParallelism::SMALL_LOG_FLOOR);
    assert!(report.answers_swept * 100 <= log.len() * policy.dirty_coverage_fallback);
    pair.assert_split_rebuild_matches();
    // The next rebuild re-sweeps the same dirty answers from their
    // refreshed cached contributions.
    pair.both(|m| m.full_sweep(&tasks, &log));
    pair.assert_split_rebuild_matches();
}

/// Gossip-pooled rebuilds are the same run on two threads as on one, with
/// peers covering workers the local log has never seen.
#[test]
fn split_gossip_pooled_rebuild_matches_sequential_bit_for_bit() {
    let (tasks, log, stream) = sparse_stream();
    let policy = UpdatePolicy {
        full_em_every: None,
        full_sweep_every: 16,
        ..UpdatePolicy::default()
    };
    let mut pair = Pair::new(&tasks, log.n_workers(), policy);
    for answer in &stream {
        pair.both(|m| m.absorb(&tasks, answer));
    }
    pair.both(|m| m.full_sweep(&tasks, &log));
    // A peer with bits for every third local worker and for 60 workers
    // beyond the local pool.
    let n_funcs = 3;
    let n_peer_workers = log.n_workers() + 60;
    let mut peer = WorkerStatDelta {
        source: 7,
        version: 1,
        n_funcs,
        i_sum: vec![0.0; n_peer_workers],
        worker_bits: vec![0; n_peer_workers],
        dw_sum: vec![0.0; n_peer_workers * n_funcs],
    };
    for w in (0..n_peer_workers).filter(|w| w % 3 == 0 || *w >= log.n_workers()) {
        let bits = 3 + (w % 5) as u32;
        peer.worker_bits[w] = bits;
        peer.i_sum[w] = f64::from(bits) * (0.3 + (w % 7) as f64 / 10.0);
        let dw = &mut peer.dw_sum[w * n_funcs..(w + 1) * n_funcs];
        dw.copy_from_slice(&[0.5, 0.3, 0.2].map(|share| share * f64::from(bits)));
    }
    pair.both(|m| assert!(m.fold_peer_stats(&tasks, &peer)));
    // The fold dirties the covered local workers: a pooled rebuild.
    pair.both(|m| m.full_em(&tasks, &log));
    pair.assert_split_rebuild_matches();
    pair.both(|m| m.full_sweep(&tasks, &log));
    pair.assert_split_rebuild_matches();
    assert!(pair.split.params().n_workers() >= n_peer_workers);
}

/// A pruned model's full sweep — the retained suffix re-swept over the
/// frozen baseline of the pruned prefix — is the same run on two threads
/// as on one, and so is the statistics rebuild that follows it.
#[test]
fn split_frozen_baseline_sweep_matches_sequential_bit_for_bit() {
    let (tasks, full_log, stream) = sparse_stream();
    let policy = UpdatePolicy {
        full_em_every: None,
        full_sweep_every: 16,
        ..UpdatePolicy::default()
    };
    let mut pair = Pair::new(&tasks, full_log.n_workers(), policy);
    let mut log = AnswerLog::new(tasks.len(), full_log.n_workers());
    let (prefix, suffix) = stream.split_at(stream.len() / 2);
    assert!(suffix.len() >= EmParallelism::SMALL_LOG_FLOOR);
    for answer in prefix {
        log.push(&tasks, *answer).unwrap();
        pair.both(|m| m.absorb(&tasks, answer));
    }
    pair.both(|m| m.full_sweep(&tasks, &log));
    pair.both(|m| assert!(m.prune_frozen(&log)));
    log.prune_retained();
    for answer in suffix {
        log.push(&tasks, *answer).unwrap();
        pair.both(|m| m.absorb(&tasks, answer));
    }
    pair.both(|m| m.full_sweep(&tasks, &log));
    pair.assert_split_rebuild_matches();
    assert_eq!(
        pair.split.last_report().unwrap().answers_swept,
        suffix.len()
    );
    // Same state after the sweep: absorbing one more answer into each
    // reads the rebuilt statistics.
    let extra = Answer {
        worker: WorkerId(0),
        task: TaskId(199),
        bits: LabelBits::from_slice(&[true, false, true]),
        distance: 0.25,
    };
    log.push(&tasks, extra).unwrap();
    pair.both(|m| m.absorb(&tasks, &extra));
    assert_same_params(pair.sequential.params(), pair.split.params());
}

/// A log whose tasks carry 1, 10 (Deployment 1) and
/// `LabelBits::MAX_LABELS` labels, so answers fill one lane, a
/// Deployment-1 block and every lane of the E-step's bit block in one
/// sweep: 240 workers answering 2 of 120 tasks each, with verdict words
/// that set bits above 31.
fn mixed_width_stream() -> (TaskSet, Vec<Answer>) {
    let widths = [1, 10, LabelBits::MAX_LABELS];
    let tasks = TaskSet::new(
        (0..120)
            .map(|i| {
                synthetic_task(
                    format!("t{i}"),
                    Point::new((i % 12) as f64 * 0.3, (i / 12) as f64 * 0.3),
                    widths[i % 3],
                )
            })
            .collect(),
    );
    let mut stream = Vec::new();
    for w in 0..240u64 {
        for t in [w % 120, (w * 7 + 13) % 120] {
            let task = TaskId::from_index(t as usize);
            let n = tasks.n_labels(task);
            // A splitmix64 step of (w, t): every verdict word bit varies.
            let mut z = (w << 32 | t).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            stream.push(Answer {
                worker: WorkerId::from_index(w as usize),
                task,
                bits: LabelBits::from_slice(&(0..n).map(|k| z >> k & 1 == 1).collect::<Vec<_>>()),
                distance: (z >> 40) as f64 / f64::from(1u32 << 24),
            });
        }
    }
    (tasks, stream)
}

/// The bit block's lane boundaries: one log mixing 1-, 10- and
/// 64-label tasks (verdict bits above 31 set) runs the same EM on the
/// sequential sweep, the side split and the naive per-bit oracle, and
/// the online model's full and dirty re-sweeps on two threads match
/// their one-thread twins.
#[test]
fn mixed_label_widths_match_naive_and_sequential_bit_for_bit() {
    let (tasks, stream) = mixed_width_stream();
    let n_workers = 240;
    let mut log = AnswerLog::new(tasks.len(), n_workers);
    for answer in &stream {
        log.push(&tasks, *answer).expect("distinct pairs");
    }
    assert!(log
        .answers()
        .iter()
        .any(|a| a.bits.len() == LabelBits::MAX_LABELS
            && (32..LabelBits::MAX_LABELS).any(|k| a.bits.get(k))));
    let config = EmConfig {
        max_iterations: 12,
        ..EmConfig::default()
    };
    let (naive, naive_report) = run_em_naive(&tasks, &log, &config);
    for threads in [1, 2] {
        let (params, report) = run_at(&tasks, &log, &config, threads);
        assert_same_run(&naive, &naive_report, &params, &report);
    }

    // Exact policy: every delayed rebuild is a full sweep, the later
    // ones above the small-log floor.
    let mut exact = Pair::new(&tasks, n_workers, UpdatePolicy::exact(Some(100)));
    let mut replay = AnswerLog::new(tasks.len(), n_workers);
    for answer in &stream {
        replay.push(&tasks, *answer).unwrap();
        let mut rebuilt = [false; 2];
        let mut k = 0;
        exact.both(|m| {
            rebuilt[k] = m.on_submit(&tasks, &replay, answer);
            k += 1;
        });
        assert_eq!(rebuilt[0], rebuilt[1]);
        assert_same_params(exact.sequential.params(), exact.split.params());
        if rebuilt[0] && replay.len() >= EmParallelism::SMALL_LOG_FLOOR {
            exact.assert_split_rebuild_matches();
        }
    }

    // Dirty re-sweeps: subtract each dirty answer's cached rows, re-add
    // its fresh block.
    let policy = UpdatePolicy {
        full_em_every: None,
        full_sweep_every: 16,
        ..UpdatePolicy::default()
    };
    let mut dirty = Pair::new(&tasks, n_workers, policy);
    let fresh = 40;
    let (settled, recent) = stream.split_at(stream.len() - fresh);
    let mut log = AnswerLog::new(tasks.len(), n_workers);
    for answer in settled {
        log.push(&tasks, *answer).unwrap();
        dirty.both(|m| m.absorb(&tasks, answer));
    }
    dirty.both(|m| m.full_sweep(&tasks, &log));
    dirty.assert_split_rebuild_matches();
    for answer in recent {
        log.push(&tasks, *answer).unwrap();
        dirty.both(|m| m.absorb(&tasks, answer));
    }
    dirty.both(|m| m.full_em(&tasks, &log));
    let report = dirty.split.last_report().unwrap();
    assert!(!report.full_sweep, "expected a dirty-set rebuild");
    assert!(report.answers_swept >= EmParallelism::SMALL_LOG_FLOOR);
    dirty.assert_split_rebuild_matches();
}

/// Runs batch EM at `threads` from a fresh VoteShare init.
fn run_at(
    tasks: &TaskSet,
    log: &AnswerLog,
    config: &EmConfig,
    threads: usize,
) -> (ModelParams, EmReport) {
    let mut params = ModelParams::init(tasks, log.n_workers(), config.fset.len(), config.init, log);
    let geometry = AnswerGeometry::build(tasks, log, &config.fset);
    let report = EmRun {
        tasks,
        log,
        geometry: &geometry,
        config,
        peers: PeerStats::empty_ref(),
        threads,
        baseline: None,
    }
    .run(&mut params);
    (params, report)
}

#[test]
fn parallel_em_handles_degenerate_logs() {
    // Empty log, one answer, and a handful: the side split's boundary
    // cases (the log-likelihood halves split at `n / 2`, possibly empty).
    let cases: &[&[(u32, u32, u16, f64)]] = &[
        &[],
        &[(0, 0, 0b101, 0.3)],
        &[(0, 0, 1, 0.1), (1, 1, 2, 0.5), (2, 2, 3, 0.9)],
        &[
            (0, 0, 1, 0.1),
            (1, 1, 2, 0.2),
            (2, 2, 3, 0.3),
            (0, 1, 4, 0.4),
            (1, 2, 5, 0.5),
            (2, 0, 6, 0.6),
            (0, 2, 7, 0.7),
        ],
    ];
    let config = EmConfig {
        max_iterations: 8,
        ..EmConfig::default()
    };
    for answers in cases {
        let (tasks, _, log, _) = build_world(3, 3, 3, answers);
        let (seq, seq_report) = run_at(&tasks, &log, &config, 1);
        for threads in THREAD_COUNTS {
            let (par, par_report) = run_at(&tasks, &log, &config, threads);
            assert_same_run(&seq, &seq_report, &par, &par_report);
        }
    }
}

#[test]
fn effective_parallelism_floors_small_logs_and_caps_at_answers() {
    let floor = EmParallelism::SMALL_LOG_FLOOR;
    let few = 10; // workers: the answer floor decides
    assert_eq!(
        EmParallelism::Fixed(8).effective(floor - 1, few),
        1,
        "below the floor"
    );
    assert_eq!(EmParallelism::Fixed(8).effective(0, few), 1);
    assert_eq!(
        EmParallelism::Fixed(8).effective(floor, few),
        2,
        "a sweep has two sides"
    );
    assert_eq!(EmParallelism::Fixed(200).effective(100 * floor, few), 2);
    assert_eq!(EmParallelism::Fixed(1).effective(100 * floor, few), 1);
    // Many workers raise the floor to one answer per
    // `WORKERS_PER_SPLIT_ANSWER` workers.
    let many = 4 * floor * EmParallelism::WORKERS_PER_SPLIT_ANSWER;
    assert_eq!(EmParallelism::Fixed(2).effective(floor, many), 1);
    assert_eq!(EmParallelism::Fixed(2).effective(4 * floor - 1, many), 1);
    assert_eq!(EmParallelism::Fixed(2).effective(4 * floor, many), 2);
    assert_eq!(
        EmParallelism::Fixed(8).resolve(),
        8,
        "ACCOPT keeps the full count"
    );
    assert_eq!(EmParallelism::Fixed(0).resolve(), 1, "zero means one");
    assert!(EmParallelism::Auto.resolve() >= 1);
    assert!(EmParallelism::Auto.effective(floor, few) <= 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Acceptance gate: side-split batch EM is the *same run* as the
    /// sequential path and the naive oracle for every thread count.
    #[test]
    fn parallel_em_is_bit_identical_for_every_thread_count(
        n_tasks in 1usize..6,
        n_workers in 1usize..5,
        n_labels in 1usize..5,
        answers in prop::collection::vec(
            (0u32..8, 0u32..12, 0u16..u16::MAX, 0.0f64..1.0),
            1..40,
        ),
    ) {
        let (tasks, _, log, _) = build_world(n_tasks, n_workers, n_labels, &answers);
        let config = EmConfig { max_iterations: 12, ..EmConfig::default() };
        let (seq, seq_report) = run_em(&tasks, &log, &config);
        for threads in THREAD_COUNTS {
            let (par, par_report) = run_at(&tasks, &log, &config, threads);
            assert_same_run(&seq, &seq_report, &par, &par_report);
        }
        // And both equal the straightforward per-bit oracle.
        let (naive, naive_report) = run_em_naive(&tasks, &log, &config);
        prop_assert!(seq.max_abs_diff(&naive) <= 1e-12);
        prop_assert_eq!(seq_report.iterations, naive_report.iterations);
    }

    /// The online estimator — delayed full sweeps, dirty-set sweeps, and
    /// stat rebuilds — produces bit-identical parameters under any fixed
    /// parallelism. Streams run well past the small-log floor so the side
    /// split actually engages on the later rebuilds.
    #[test]
    fn online_model_is_bit_identical_across_parallelism(
        every in 10usize..30,
        full_sweep_every in 1usize..4,
        draws in prop::collection::vec(
            (0u32..u32::MAX, 0u16..u16::MAX, 0.0f64..1.0),
            EmParallelism::SMALL_LOG_FLOOR + 40..EmParallelism::SMALL_LOG_FLOOR + 80,
        ),
    ) {
        // A partial Fisher–Yates shuffle of the 40 × 60 (worker, task)
        // pairs: distinct pairs in random order, so `build_world` drops
        // none and every stream clears the floor.
        let mut pairs: Vec<u32> = (0..40 * 60).collect();
        let seed_answers: Vec<_> = draws
            .iter()
            .enumerate()
            .map(|(i, &(pick, bits, distance))| {
                let j = i + pick as usize % (pairs.len() - i);
                pairs.swap(i, j);
                (pairs[i] % 40, pairs[i] / 40, bits, distance)
            })
            .collect();
        let (tasks, _, full_log, stream) = build_world(60, 40, 3, &seed_answers);
        prop_assert_eq!(stream.len(), draws.len());
        let config = EmConfig { max_iterations: 6, ..EmConfig::default() };
        let policy = |parallelism| UpdatePolicy {
            full_em_every: Some(every),
            full_sweep_every,
            parallelism,
            ..UpdatePolicy::default()
        };
        let empty = AnswerLog::new(tasks.len(), full_log.n_workers());
        let mut sequential = OnlineModel::new(
            &tasks, &empty, config.clone(), policy(EmParallelism::Fixed(1)),
        );
        let mut parallel = [2, 3].map(|threads| OnlineModel::new(
            &tasks, &empty, config.clone(), policy(EmParallelism::Fixed(threads)),
        ));
        let threads = Arc::new(ThreadLog::default());
        parallel[0].set_recorder(RecorderHandle::new(Arc::clone(&threads) as Arc<dyn Recorder>));
        let mut replay = AnswerLog::new(tasks.len(), full_log.n_workers());
        for answer in &stream {
            replay.push(&tasks, *answer).expect("replaying a valid stream");
            let a = sequential.on_submit(&tasks, &replay, answer);
            for model in &mut parallel {
                let b = model.on_submit(&tasks, &replay, answer);
                prop_assert_eq!(a, b, "rebuild triggers diverged");
                prop_assert_eq!(
                    sequential.params().max_abs_diff(model.params()), 0.0,
                    "online parameters diverged"
                );
            }
        }
        // The hardening full sweep too.
        sequential.full_sweep(&tasks, &replay);
        for model in &mut parallel {
            model.full_sweep(&tasks, &replay);
            assert_same_params(sequential.params(), model.params());
        }
        let last = threads.0.lock().unwrap().last().copied();
        prop_assert_eq!(last, Some(2), "the side split did not run");
    }

    /// The cached-fvals accuracy estimator equals the re-evaluating one
    /// bit for bit on arbitrary distances.
    #[test]
    fn accuracy_from_cached_values_matches_reevaluation(
        n_tasks in 1usize..6,
        n_workers in 1usize..5,
        d in 0.0f64..3.0,
        answers in prop::collection::vec(
            (0u32..8, 0u32..12, 0u16..u16::MAX, 0.0f64..1.0),
            1..30,
        ),
    ) {
        let (tasks, _, log, _) = build_world(n_tasks, n_workers, 4, &answers);
        let fset = DistanceFunctionSet::paper_default();
        let params = ModelParams::init(&tasks, n_workers, fset.len(), InitStrategy::VoteShare, &log);
        let estimator = AccuracyEstimator::new(&params, &fset, &log, 0.5);
        let fvals = fset.values(d);
        for w in 0..n_workers as u32 {
            for t in tasks.ids() {
                let task = tasks.get(t).expect("id from the set");
                let direct = estimator.answer_accuracy(WorkerId(w), task, d);
                let cached = estimator.answer_accuracy_from_values(WorkerId(w), task, &fvals);
                prop_assert_eq!(direct.to_bits(), cached.to_bits());
            }
        }
    }

    /// ACCOPT with the geometry-backed memo and parallel candidate
    /// scoring picks the identical assignment for every thread count —
    /// cold memo, warm memo, and a fresh assigner all agree.
    #[test]
    fn accopt_assignment_is_identical_across_threads_and_memo_state(
        n_tasks in 2usize..10,
        n_workers in 1usize..6,
        h in 1usize..4,
        answers in prop::collection::vec(
            (0u32..8, 0u32..12, 0u16..u16::MAX, 0.0f64..1.0),
            0..24,
        ),
    ) {
        let (tasks, workers, log, _) = build_world(n_tasks, n_workers, 4, &answers);
        let fset = DistanceFunctionSet::paper_default();
        let params = ModelParams::init(&tasks, n_workers, fset.len(), InitStrategy::VoteShare, &log);
        let distances = Distances::from_tasks(&tasks);
        let reserved = ReservationSet::new();
        let ctx = |threads| AssignContext {
            tasks: &tasks,
            workers: &workers,
            log: &log,
            params: &params,
            fset: &fset,
            alpha: 0.5,
            distances: &distances,
            reserved: &reserved,
            threads,
        };
        let batch: Vec<WorkerId> = workers.ids().collect();
        let mut baseline = AccOptAssigner::new();
        let expected = baseline.assign(&ctx(1), &batch, h);
        for threads in THREAD_COUNTS {
            let mut fresh = AccOptAssigner::new();
            let cold = fresh.assign(&ctx(threads), &batch, h);
            prop_assert_eq!(&cold, &expected, "cold-memo run diverged");
            // Second round reuses the now-warm fvals memo.
            let warm = fresh.assign(&ctx(threads), &batch, h);
            prop_assert_eq!(&warm, &expected, "warm-memo run diverged");
        }
    }
}
