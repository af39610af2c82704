//! Property tests over the versioned shard map and the elastic handoff:
//!
//! 1. **Version monotonicity** — every successful `reassign_cell` bumps
//!    the map version by exactly one; refusals leave it untouched.
//! 2. **Routing determinism** — under any split/merge sequence, every
//!    task is owned by exactly one shard, cell and task routing agree,
//!    and the persisted `cells()` vector rebuilds the identical map.
//! 3. **Bit-identity** — a campaign that splits a hot cell away and
//!    merges it back mid-stream ends bit-identical (per-shard parameters,
//!    decisions, answer order) to a never-split reference fed the same
//!    answer stream. The handoff rebuild is a pure replay, so elasticity
//!    must be invisible to the model.
//! 4. **Mid-handoff persistence** — a snapshot taken after a split (map
//!    version > 1, materialized seqs) restores into a service that
//!    resumes in lockstep with the original. Delta chains span
//!    mid-campaign registrations but refuse a moved map.
//!
//! Bit-identity runs with gossip off: gossip folds depend on racy
//! cross-shard timing and are exactly what the recorded event stream (not
//! this test) pins down.

use crowd_core::{synthetic_task, LabelBits, TaskId, TaskSet, Worker, WorkerId, WorkerPool};
use crowd_geo::Point;
use crowd_serve::{
    LabellingService, ServeConfig, ServeError, ServiceSnapshotDelta, ShardDelta, ShardMap,
    SnapshotError,
};
use proptest::prelude::*;

fn world(n_tasks: usize, n_workers: usize) -> (TaskSet, WorkerPool) {
    let side = (n_tasks as f64).sqrt().ceil() as usize;
    let tasks = TaskSet::new(
        (0..n_tasks)
            .map(|i| {
                synthetic_task(
                    format!("t{i}"),
                    Point::new((i % side) as f64, (i / side) as f64 * 1.3),
                    3,
                )
            })
            .collect(),
    );
    let workers = WorkerPool::from_workers(
        (0..n_workers)
            .map(|i| {
                Worker::at(
                    format!("w{i}"),
                    Point::new((i % 3) as f64 * 1.7, (i / 3) as f64 * 1.1),
                )
            })
            .collect(),
    )
    .unwrap();
    (tasks, workers)
}

/// Deterministic answer bits per (worker, task).
fn bits_for(w: WorkerId, t: TaskId) -> LabelBits {
    let x = crowd_sim::rngx::pair_seed(u64::from(w.0), u64::from(t.0));
    LabelBits::from_slice(&[x & 1 == 1, x & 2 == 2, x & 4 == 4])
}

/// The deterministic global answer stream: every (worker, task) pair in a
/// fixed interleaving that touches all shards.
fn answer_stream(n_workers: usize, n_tasks: usize) -> Vec<(WorkerId, TaskId)> {
    let mut stream = Vec::with_capacity(n_workers * n_tasks);
    for round in 0..n_tasks {
        for w in 0..n_workers {
            let t = (round + w * 7) % n_tasks;
            let pair = (WorkerId::from_index(w), TaskId::from_index(t));
            if !stream.contains(&pair) {
                stream.push(pair);
            }
        }
    }
    stream
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Version bumps by one per accepted move and never otherwise; task
    /// and cell routing stay consistent; slices always conserve the
    /// budget.
    #[test]
    fn map_versions_are_monotone_and_routing_stays_consistent(
        n_tasks in 4usize..48,
        n_shards in 1usize..6,
        budget in 1usize..500,
        moves in prop::collection::vec((0usize..64, 0usize..8), 0..12),
    ) {
        let (tasks, _) = world(n_tasks, 3);
        let mut map = ShardMap::build(&tasks, n_shards);
        prop_assert_eq!(map.version(), 1);
        let mut expected_version = 1u64;
        for (cell_raw, to_raw) in moves {
            let cell = cell_raw % map.n_cells();
            let to = to_raw % (map.n_shards() + 1); // sometimes out of range
            match map.reassign_cell(cell, to) {
                Ok(next) => {
                    expected_version += 1;
                    prop_assert_eq!(next.version(), expected_version);
                    prop_assert_eq!(next.shard_of_cell(cell), to);
                    map = next;
                }
                Err(_) => {
                    // Refused moves must not perturb the published map.
                    prop_assert_eq!(map.version(), expected_version);
                }
            }
            // Every task is owned by exactly one shard, and that shard is
            // the owner of the task's cell.
            let mut seen = vec![false; map.n_tasks()];
            for s in 0..map.n_shards() {
                for t in map.tasks_of(s) {
                    prop_assert!(!seen[t.index()], "task {t:?} owned twice");
                    seen[t.index()] = true;
                    prop_assert_eq!(map.shard_of_task(t), s);
                }
            }
            prop_assert!(seen.iter().all(|&s| s), "task with no owner");
            // Budget slices conserve the campaign budget exactly.
            let slices = map.budget_slices(budget);
            prop_assert_eq!(slices.iter().sum::<usize>(), budget);
        }
    }

    /// The persisted `cells()` vector plus the task set rebuild a map
    /// with identical routing — what snapshot v4 relies on.
    #[test]
    fn cells_vector_rebuilds_identical_routing(
        n_tasks in 4usize..48,
        n_shards in 1usize..6,
        moves in prop::collection::vec((0usize..64, 0usize..6), 0..8),
    ) {
        let (tasks, _) = world(n_tasks, 3);
        let mut map = ShardMap::build(&tasks, n_shards);
        for (cell_raw, to_raw) in moves {
            let cell = cell_raw % map.n_cells();
            let to = to_raw % map.n_shards();
            if let Ok(next) = map.reassign_cell(cell, to) {
                map = next;
            }
        }
        let rebuilt = ShardMap::with_cells(&tasks, map.n_shards(), map.cells(), map.version())
            .expect("a published map always round-trips");
        prop_assert_eq!(rebuilt.version(), map.version());
        prop_assert_eq!(rebuilt.n_shards(), map.n_shards());
        prop_assert_eq!(rebuilt.cells(), map.cells());
        for t in 0..n_tasks {
            let t = TaskId::from_index(t);
            prop_assert_eq!(rebuilt.shard_of_task(t), map.shard_of_task(t));
        }
    }
}

fn quiet_config(n_shards: usize, budget: usize) -> ServeConfig {
    ServeConfig {
        n_shards,
        budget,
        gossip_every: None, // bit-identity tests pin the gossip-free stream
        ..ServeConfig::default()
    }
}

/// Per-shard model state must match between two services shard by shard.
fn assert_bit_identical(a: &LabellingService, b: &LabellingService) {
    assert_eq!(a.n_shards(), b.n_shards());
    for s in 0..a.n_shards() {
        let sa = a.shard(s);
        let sb = b.shard(s);
        let answers_a: Vec<_> = sa.answers_global().collect();
        let answers_b: Vec<_> = sb.answers_global().collect();
        assert_eq!(answers_a, answers_b, "shard {s}: answer streams differ");
        assert_eq!(
            sa.framework().params(),
            sb.framework().params(),
            "shard {s}: parameters differ"
        );
    }
    assert_eq!(a.decisions(), b.decisions(), "decisions differ");
}

/// PINNED: a split + merge-back round trip mid-stream is bit-identical
/// to a never-split reference on the same answer stream. This is the
/// handoff acceptance gate from the elastic-serving issue — if the
/// two-phase handoff loses an answer, reorders a shard's stream, or
/// perturbs a model parameter by one bit, this test fails.
#[test]
fn split_then_merge_back_is_bit_identical_to_never_split() {
    const N_TASKS: usize = 24;
    const N_WORKERS: usize = 6;
    let (tasks, workers) = world(N_TASKS, N_WORKERS);
    let stream = answer_stream(N_WORKERS, N_TASKS);
    let budget = stream.len();

    let elastic = LabellingService::start(&tasks, &workers, quiet_config(3, budget));
    let reference = LabellingService::start(&tasks, &workers, quiet_config(3, budget));
    let eh = elastic.handle();
    let rh = reference.handle();

    let third = stream.len() / 3;
    for &(w, t) in &stream[..third] {
        eh.submit_wait(w, t, bits_for(w, t)).unwrap();
        rh.submit_wait(w, t, bits_for(w, t)).unwrap();
    }

    // Move some cell off its owner, feed another third, move it back.
    let map = elastic.map();
    let (cell, from, to) = (0..map.n_cells())
        .filter_map(|c| {
            let from = map.shard_of_cell(c);
            let to = (from + 1) % map.n_shards();
            // The source must keep at least one task, or the move refuses.
            (map.tasks_of(from).len() > map.cell_tasks(c).len() && !map.cell_tasks(c).is_empty())
                .then_some((c, from, to))
        })
        .next()
        .expect("a 3-shard map over 24 tasks has a movable cell");
    let report = elastic.reassign_cell(cell, to).unwrap();
    assert_eq!(report.map_version, 2);
    assert_eq!((report.from, report.to), (from, to));
    assert_eq!(elastic.map().shard_of_cell(cell), to);

    for &(w, t) in &stream[third..2 * third] {
        eh.submit_wait(w, t, bits_for(w, t)).unwrap();
        rh.submit_wait(w, t, bits_for(w, t)).unwrap();
    }

    let back = elastic.reassign_cell(cell, from).unwrap();
    assert_eq!(back.map_version, 3);
    assert_eq!(elastic.map().shard_of_cell(cell), from);

    for &(w, t) in &stream[2 * third..] {
        eh.submit_wait(w, t, bits_for(w, t)).unwrap();
        rh.submit_wait(w, t, bits_for(w, t)).unwrap();
    }
    elastic.quiesce();
    reference.quiesce();

    assert_bit_identical(&elastic, &reference);
    assert_eq!(elastic.answers_total(), stream.len());
    assert_eq!(
        elastic.budget_used(),
        reference.budget_used(),
        "budget accounting must survive the round trip"
    );

    elastic.shutdown();
    reference.shutdown();
}

/// A snapshot taken mid-handoff (map version > 1, materialized seqs)
/// restores into a service that resumes in lockstep with the original:
/// same routing, same model state, same continued stream.
#[test]
fn mid_handoff_snapshot_restores_in_lockstep() {
    const N_TASKS: usize = 20;
    const N_WORKERS: usize = 5;
    let (tasks, workers) = world(N_TASKS, N_WORKERS);
    let stream = answer_stream(N_WORKERS, N_TASKS);
    let budget = stream.len();

    let original = LabellingService::start(&tasks, &workers, quiet_config(2, budget));
    let oh = original.handle();
    let half = stream.len() / 2;
    for &(w, t) in &stream[..half] {
        oh.submit_wait(w, t, bits_for(w, t)).unwrap();
    }
    original.split_hot().unwrap();
    assert!(original.map().version() > 1, "split must bump the map");

    let snapshot = original.snapshot();
    assert!(
        snapshot.to_json().contains("\"map\""),
        "a moved map must be recorded in the v4 document"
    );
    let restored = LabellingService::restore(&tasks, &workers, &snapshot).unwrap();

    // The restored service routes under the adopted (post-split) map.
    assert_eq!(restored.map().version(), original.map().version());
    assert_eq!(restored.map().cells(), original.map().cells());
    assert_bit_identical(&original, &restored);

    // Both resume on the same continuation and stay in lockstep.
    let rh = restored.handle();
    for &(w, t) in &stream[half..] {
        oh.submit_wait(w, t, bits_for(w, t)).unwrap();
        rh.submit_wait(w, t, bits_for(w, t)).unwrap();
    }
    original.quiesce();
    restored.quiesce();
    assert_bit_identical(&original, &restored);

    // And the resumed states re-snapshot identically.
    assert_eq!(original.snapshot_json(), restored.snapshot_json());

    original.shutdown();
    restored.shutdown();
}

/// A mid-campaign registration survives snapshot → restore: the recorded
/// `register` event re-grows the pool at the right stream position, and
/// the registered worker keeps answering in lockstep.
#[test]
fn registered_worker_survives_snapshot_restore() {
    const N_TASKS: usize = 12;
    const N_WORKERS: usize = 3;
    let (tasks, workers) = world(N_TASKS, N_WORKERS);
    let stream = answer_stream(N_WORKERS, N_TASKS);

    let original = LabellingService::start(&tasks, &workers, quiet_config(2, 200));
    let oh = original.handle();
    for &(w, t) in &stream[..stream.len() / 2] {
        oh.submit_wait(w, t, bits_for(w, t)).unwrap();
    }
    let newcomer = original
        .register_worker(Worker::at("late-joiner", Point::new(0.4, 0.6)))
        .unwrap();
    assert_eq!(newcomer.index(), N_WORKERS);
    assert_eq!(original.n_workers(), N_WORKERS + 1);
    // The newcomer answers a few tasks before the snapshot.
    for t in [0, 3, 5] {
        oh.submit_wait(
            newcomer,
            TaskId::from_index(t),
            bits_for(newcomer, TaskId::from_index(t)),
        )
        .unwrap();
    }
    original.quiesce();

    let snapshot = original.snapshot();
    let restored = LabellingService::restore(&tasks, &workers, &snapshot).unwrap();
    assert_eq!(restored.n_workers(), N_WORKERS + 1);
    assert_eq!(
        restored.worker_name(newcomer).as_deref(),
        Some("late-joiner")
    );
    assert_bit_identical(&original, &restored);

    // Both services keep serving the registered worker in lockstep.
    let rh = restored.handle();
    for t in [7, 9] {
        let t = TaskId::from_index(t);
        oh.submit_wait(newcomer, t, bits_for(newcomer, t)).unwrap();
        rh.submit_wait(newcomer, t, bits_for(newcomer, t)).unwrap();
    }
    original.quiesce();
    restored.quiesce();
    assert_bit_identical(&original, &restored);

    original.shutdown();
    restored.shutdown();
}

/// A delta chain whose first link records a mid-campaign registration
/// keeps chaining: base → d1 → d2 compacts to the full snapshot byte for
/// byte and restores bit-identically. Once a handoff moves the map, no
/// delta is written and none folds onto the moved base.
#[test]
fn delta_chain_spans_a_registration_but_not_a_moved_map() {
    const N_TASKS: usize = 12;
    const N_WORKERS: usize = 3;
    let (tasks, workers) = world(N_TASKS, N_WORKERS);
    let stream = answer_stream(N_WORKERS, N_TASKS);
    let third = stream.len() / 3;

    let service = LabellingService::start(&tasks, &workers, quiet_config(2, 200));
    let handle = service.handle();
    let feed = |pairs: &[(WorkerId, TaskId)]| {
        for &(w, t) in pairs {
            handle.submit_wait(w, t, bits_for(w, t)).unwrap();
        }
    };
    feed(&stream[..third]);
    let base = service.snapshot();
    let newcomer = service
        .register_worker(Worker::at("late-joiner", Point::new(0.4, 0.6)))
        .unwrap();
    feed(&stream[third..2 * third]);
    feed(&[0, 3, 5].map(|t| (newcomer, TaskId::from_index(t))));
    let d1 = service.snapshot_delta(&base.cursors()).unwrap();
    feed(&stream[2 * third..]);
    feed(&[7, 9].map(|t| (newcomer, TaskId::from_index(t))));
    let d2 = service.snapshot_delta(&d1.cursors()).unwrap();

    let full = service.snapshot();
    let compacted = base.compact(&[d1.clone(), d2.clone()]).unwrap();
    assert_eq!(compacted.to_json(), full.to_json());
    let chained =
        LabellingService::restore_chain(&tasks, &workers, &base, [Ok(d1), Ok(d2)]).unwrap();
    assert_eq!(chained.n_workers(), N_WORKERS + 1);
    assert_bit_identical(&service, &chained);
    chained.shutdown();

    // Move a cell: the service writes no delta any more, and an otherwise
    // contiguous empty delta does not fold onto the moved base.
    let map = service.map();
    let (cell, to) = (0..map.n_cells())
        .find_map(|c| {
            let from = map.shard_of_cell(c);
            (map.tasks_of(from).len() > map.cell_tasks(c).len() && !map.cell_tasks(c).is_empty())
                .then_some((c, (from + 1) % map.n_shards()))
        })
        .expect("a 2-shard map over 12 tasks has a movable cell");
    service.reassign_cell(cell, to).unwrap();
    assert!(matches!(
        service.snapshot_delta(&full.cursors()),
        Err(SnapshotError::Mismatch(_))
    ));
    let moved = service.snapshot();
    assert!(moved.map.is_some());
    let empty = ServiceSnapshotDelta {
        n_tasks: moved.n_tasks,
        n_workers: moved.n_workers,
        shards: moved
            .shards
            .iter()
            .zip(moved.cursors())
            .map(|(s, since)| ShardDelta {
                shard: s.shard,
                since,
                budget_used: s.budget_used,
                publishes: s.publishes,
                answers: Vec::new(),
                gossip_events: Vec::new(),
                checkpoint: s.checkpoint.clone(),
            })
            .collect(),
        exchange: moved.exchange.clone(),
    };
    let mut map_only = moved.clone();
    for shard in &mut map_only.shards {
        shard.seqs = None;
    }
    for refused in [&moved, &map_only] {
        assert!(matches!(
            refused.compact(std::slice::from_ref(&empty)),
            Err(SnapshotError::Mismatch(_))
        ));
    }
    let mut unmoved = map_only;
    unmoved.map = None;
    assert!(unmoved.compact(&[empty]).is_ok());
    service.shutdown();
}

/// Budget rebalance conserves the campaign budget, never strands used
/// budget above a slice, and the rebalanced service snapshot-restores
/// (slices are adopted, not assumed equal to the startup split).
#[test]
fn rebalance_conserves_budget_and_round_trips_through_snapshot() {
    const N_TASKS: usize = 16;
    const N_WORKERS: usize = 4;
    let (tasks, workers) = world(N_TASKS, N_WORKERS);
    let stream = answer_stream(N_WORKERS, N_TASKS);
    let budget = 60;

    let service = LabellingService::start(&tasks, &workers, quiet_config(2, budget));
    let handle = service.handle();
    // Skew the spend towards shard of task 0's region.
    for &(w, t) in stream.iter().take(20) {
        handle.submit_wait(w, t, bits_for(w, t)).unwrap();
    }
    let slices = service.rebalance_budget();
    assert_eq!(
        slices.iter().sum::<usize>(),
        budget,
        "slices must conserve the budget"
    );
    for (s, &slice) in slices.iter().enumerate() {
        let used = service.shard(s).framework().budget_used();
        assert!(
            used <= slice,
            "shard {s}: rebalance stranded {used} used above slice {slice}"
        );
    }

    // The moved slices survive a snapshot round trip byte-for-byte.
    let snapshot = service.snapshot();
    let restored = LabellingService::restore(&tasks, &workers, &snapshot).unwrap();
    for (s, &slice) in slices.iter().enumerate() {
        assert_eq!(
            restored.shard(s).framework().config().budget,
            slice,
            "shard {s}: restored slice differs"
        );
    }
    assert_eq!(service.snapshot_json(), restored.snapshot_json());

    service.shutdown();
    restored.shutdown();
}

/// Elastic refusals are clean: a single-shard service refuses splits, an
/// out-of-range cell refuses reassignment, and nothing changes.
#[test]
fn refused_handoffs_leave_the_service_untouched() {
    let (tasks, workers) = world(6, 2);
    let service = LabellingService::start(&tasks, &workers, quiet_config(1, 20));
    assert!(matches!(service.split_hot(), Err(ServeError::Rejected(_))));
    assert!(matches!(service.merge_cold(), Err(ServeError::Rejected(_))));
    assert!(matches!(
        service.reassign_cell(usize::MAX, 0),
        Err(ServeError::Rejected(_))
    ));
    assert_eq!(service.map().version(), 1);
    assert_eq!(service.metrics().map_version, 1);
    service.shutdown();
}
