//! Concurrent-ingestion stress tests: N producer threads hammer the
//! service and we assert the three service invariants —
//!
//! 1. no accepted answer is ever lost,
//! 2. no shard ever charges more than its budget slice (and the slices
//!    never exceed the campaign budget),
//! 3. the final model state of every shard equals a deterministic
//!    single-threaded replay of that shard's *event stream* — answers in
//!    arrival order interleaved with any recorded gossip folds at their
//!    recorded positions (which is also the snapshot/restore guarantee).
//!    The live services sweep EM on two threads and the replay on one, so
//!    this also checks the side-split sweep against the sequential one.
//!
//! The gossip-enabled variants re-assert all three with the cross-shard
//! worker-quality exchange racing ingestion: fold payloads are produced by
//! racy cross-shard timing, but each shard records what it actually folded
//! and where, so the event replay is still exact.

use crowd_core::{
    synthetic_task, CoreError, EmParallelism, Framework, FrameworkConfig, LabelBits, TaskId,
    TaskSet, UpdatePolicy, Worker, WorkerId, WorkerPool,
};
use crowd_geo::Point;
use crowd_serve::{GossipEventKind, LabellingService, ServeConfig, ServeError, ServiceSnapshot};

const N_TASKS: usize = 40;
const N_WORKERS: usize = 12;
const N_PRODUCERS: usize = 6;
const SUBMITS_PER_PRODUCER: usize = 60;

fn world() -> (TaskSet, WorkerPool) {
    let tasks = TaskSet::new(
        (0..N_TASKS)
            .map(|i| {
                synthetic_task(
                    format!("t{i}"),
                    Point::new((i % 8) as f64, (i / 8) as f64 * 1.7),
                    4,
                )
            })
            .collect(),
    );
    let workers = WorkerPool::from_workers(
        (0..N_WORKERS)
            .map(|i| {
                Worker::at(
                    format!("w{i}"),
                    Point::new((i % 4) as f64 * 2.0, (i / 4) as f64 * 1.5),
                )
            })
            .collect(),
    )
    .unwrap();
    (tasks, workers)
}

/// The live services sweep with the two-thread side split whatever the
/// runner's core count, and the replay oracle ([`sequential`]) with one
/// thread, so a replay comparison checks the split sweep against the
/// sequential one whenever a shard's rebuild clears the small-log floor
/// (`EmParallelism::effective`).
fn split_policy() -> UpdatePolicy {
    UpdatePolicy {
        parallelism: EmParallelism::Fixed(2),
        ..UpdatePolicy::default()
    }
}

/// `config` pinned to the sequential sweep.
fn sequential(config: &FrameworkConfig) -> FrameworkConfig {
    let mut config = config.clone();
    config.policy.parallelism = EmParallelism::Fixed(1);
    config
}

/// Deterministic answer content per (worker, task): bits derived from a
/// mixed hash so the stream is reproducible regardless of interleaving.
fn bits_for(w: WorkerId, t: TaskId) -> LabelBits {
    let x = crowd_sim::rngx::pair_seed(u64::from(w.0), u64::from(t.0));
    LabelBits::from_slice(&[x & 1 == 1, x & 2 == 2, x & 4 == 4, x & 8 == 8])
}

/// All distinct (worker, task) pairs, dealt round-robin to producers so
/// every producer touches every shard.
fn producer_streams() -> Vec<Vec<(WorkerId, TaskId)>> {
    let mut streams = vec![Vec::new(); N_PRODUCERS];
    let mut i = 0usize;
    'outer: for w in 0..N_WORKERS {
        for t in 0..N_TASKS {
            streams[i % N_PRODUCERS].push((WorkerId::from_index(w), TaskId::from_index(t)));
            i += 1;
            if i >= N_PRODUCERS * SUBMITS_PER_PRODUCER {
                break 'outer;
            }
        }
    }
    assert!(streams.iter().all(|s| s.len() == SUBMITS_PER_PRODUCER));
    streams
}

/// A full request → answer loop using **fire-and-forget** submits: the
/// per-shard reservation set (see [`crowd_core::ReservationSet`]) keeps a
/// pending pair from being re-issued before its queued answer is applied,
/// so the loop needs no `submit_wait` barrier. An empty assignment may
/// just mean every remaining eligible pair is reserved behind a queued
/// answer, so the loop backs off briefly and retries before concluding
/// the budget (or the worker's task space) is really dry.
fn request_answer_loop(handle: &crowd_serve::ServiceHandle, ids: &[WorkerId]) {
    let mut empties = 0u32;
    loop {
        match handle.request_tasks(ids) {
            Ok(a) if a.is_empty() => {
                empties += 1;
                if empties > 50 {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            Ok(a) => {
                empties = 0;
                for (w, t) in a.pairs() {
                    handle.submit(w, t, bits_for(w, t)).unwrap();
                }
            }
            Err(_) => break, // budget exhausted
        }
    }
}

/// Replays one shard's event stream — answers in recorded order,
/// interleaved with its recorded gossip folds at their recorded positions
/// — into a fresh framework, single-threaded, and asserts the model state
/// is bit-identical. Without gossip the event list is empty and this is a
/// plain answer-log replay.
fn assert_shard_equals_replay(service: &LabellingService, shard_id: usize) {
    let shard = service.shard(shard_id);
    let live = shard.framework();
    let events = shard.gossip_events();
    let mut replay = Framework::with_distances(
        live.tasks().clone(),
        live.workers().clone(),
        sequential(live.config()),
        *live.distances(),
    );
    let mut next_event = 0usize;
    let apply_events_at = |replay: &mut Framework, position: usize, next_event: &mut usize| {
        while *next_event < events.len() && events[*next_event].position == position {
            match &events[*next_event].kind {
                GossipEventKind::Fold(delta) => assert!(
                    replay.fold_peer_stats(delta),
                    "shard {shard_id}: recorded fold {next_event:?} was stale on replay"
                ),
                GossipEventKind::FullSweep => replay.force_full_em(),
                GossipEventKind::FoldRef { .. } => {
                    panic!("shard {shard_id}: pruned fold reference in an unpruned stress run")
                }
                GossipEventKind::Register { .. } => {
                    panic!("shard {shard_id}: registration event in a fixed-pool stress run")
                }
            }
            *next_event += 1;
        }
    };
    for (position, answer) in live.log().answers().iter().enumerate() {
        apply_events_at(&mut replay, position, &mut next_event);
        replay
            .submit(answer.worker, answer.task, answer.bits)
            .expect("replaying a valid log");
    }
    apply_events_at(&mut replay, live.log().len(), &mut next_event);
    assert_eq!(next_event, events.len(), "shard {shard_id}: stray events");
    assert_eq!(
        replay.params(),
        live.params(),
        "shard {shard_id}: concurrent state must equal its deterministic replay"
    );
    assert_eq!(
        replay.inference().decisions(),
        live.inference().decisions(),
        "shard {shard_id}: decisions must match"
    );
    assert_eq!(
        replay.peer_stats(),
        live.peer_stats(),
        "shard {shard_id}: folded peer tables must match"
    );
}

#[test]
fn concurrent_submits_lose_nothing_and_match_replay() {
    let (tasks, workers) = world();
    let service = LabellingService::start(
        &tasks,
        &workers,
        ServeConfig {
            n_shards: 4,
            ingest_threads: 3,
            // Small queue so producers actually hit backpressure.
            queue_capacity: 32,
            budget: 0, // submits only; budget exercised in the next test
            policy: split_policy(),
            ..ServeConfig::default()
        },
    );
    let streams = producer_streams();
    std::thread::scope(|s| {
        for stream in &streams {
            let handle = service.handle();
            s.spawn(move || {
                for &(w, t) in stream {
                    handle.submit(w, t, bits_for(w, t)).unwrap();
                }
            });
        }
    });
    service.quiesce();

    // Invariant 1: nothing lost, nothing rejected.
    let total = N_PRODUCERS * SUBMITS_PER_PRODUCER;
    assert_eq!(service.answers_total(), total);
    let metrics = service.metrics();
    assert_eq!(metrics.total_submits() as usize, total);
    assert_eq!(metrics.shards.iter().map(|s| s.rejected).sum::<u64>(), 0);
    assert_eq!(metrics.enqueued, metrics.processed);

    // Invariant 3: every shard equals its deterministic replay.
    for shard_id in 0..service.n_shards() {
        assert_shard_equals_replay(&service, shard_id);
    }
    service.shutdown();
}

#[test]
fn per_shard_queues_isolate_traffic_and_match_replay() {
    // One producer per shard floods only that shard's tasks through tiny
    // per-shard queues (heavy backpressure), while the periodic full EM
    // stalls each drain thread in turn. With per-shard queues a stalled
    // shard must not corrupt or lose traffic routed to the other shards,
    // and every shard must still equal its deterministic replay.
    let (tasks, workers) = world();
    let service = LabellingService::start(
        &tasks,
        &workers,
        ServeConfig {
            n_shards: 2,
            queue_capacity: 8, // 4 slots per shard
            budget: 0,
            policy: split_policy(),
            ..ServeConfig::default()
        },
    );
    assert_eq!(service.n_shards(), 2);
    // Partition every (worker, task) pair by the task's owning shard.
    let mut per_shard: Vec<Vec<(WorkerId, TaskId)>> = vec![Vec::new(); service.n_shards()];
    for w in 0..N_WORKERS {
        for t in 0..N_TASKS {
            let task = TaskId::from_index(t);
            let shard = (0..service.n_shards())
                .find(|&s| service.shard(s).local_of(task).is_some())
                .expect("every task is owned by a shard");
            per_shard[shard].push((WorkerId::from_index(w), task));
        }
    }
    std::thread::scope(|s| {
        for stream in &per_shard {
            let handle = service.handle();
            s.spawn(move || {
                for &(w, t) in stream {
                    handle.submit(w, t, bits_for(w, t)).unwrap();
                }
            });
        }
    });
    service.quiesce();

    assert_eq!(service.answers_total(), N_WORKERS * N_TASKS);
    let metrics = service.metrics();
    assert_eq!(metrics.total_submits() as usize, N_WORKERS * N_TASKS);
    assert!(metrics.shards.iter().all(|s| s.queue_depth == 0));
    assert_eq!(service.handle().queue_depth(), 0);
    for shard_id in 0..service.n_shards() {
        assert_shard_equals_replay(&service, shard_id);
    }

    // The router rejects tasks no shard owns before they reach any queue.
    let err = service
        .handle()
        .submit(WorkerId(0), TaskId(9999), LabelBits::zeros(4))
        .unwrap_err();
    assert!(matches!(
        err,
        ServeError::Core(CoreError::UnknownTask(TaskId(9999)))
    ));
    service.shutdown();
}

#[test]
fn concurrent_requests_never_overcharge_budget() {
    let (tasks, workers) = world();
    let budget = 150;
    let service = LabellingService::start(
        &tasks,
        &workers,
        ServeConfig {
            n_shards: 4,
            ingest_threads: 3,
            queue_capacity: 64,
            budget,
            h: 2,
            policy: split_policy(),
            ..ServeConfig::default()
        },
    );
    // Requester threads drive full request → answer loops concurrently.
    std::thread::scope(|s| {
        for chunk in 0..4 {
            let handle = service.handle();
            s.spawn(move || {
                let ids: Vec<WorkerId> = (0..N_WORKERS)
                    .skip(chunk * 3)
                    .take(3)
                    .map(WorkerId::from_index)
                    .collect();
                request_answer_loop(&handle, &ids);
            });
        }
    });
    service.quiesce();

    // Invariant 2: per-shard charges stay within slices; slices sum to the
    // campaign budget; the campaign never overcharges in total.
    let mut slice_sum = 0;
    let mut used_sum = 0;
    for shard_id in 0..service.n_shards() {
        let shard = service.shard(shard_id);
        let slice = shard.framework().config().budget;
        let used = shard.framework().budget_used();
        assert!(
            used <= slice,
            "shard {shard_id} charged {used} of a {slice} slice"
        );
        slice_sum += slice;
        used_sum += used;
    }
    assert_eq!(slice_sum, budget);
    assert!(used_sum <= budget);
    assert_eq!(used_sum, service.budget_used());
    // Every issued assignment was answered by the loop above — exactly
    // once. Fire-and-forget submits surface duplicates shard-side as
    // rejections, so a zero rejection count proves no pair was ever
    // issued twice and the answer-count equality proves none was lost.
    assert_eq!(service.answers_total(), used_sum);
    let metrics = service.metrics();
    assert_eq!(
        metrics.shards.iter().map(|s| s.rejected).sum::<u64>(),
        0,
        "a reserved pair was re-issued and double-answered"
    );

    // The concurrent interleaving still equals its per-shard replay.
    for shard_id in 0..service.n_shards() {
        assert_shard_equals_replay(&service, shard_id);
    }
    service.shutdown();
}

#[test]
fn snapshot_restore_resume_reproduces_decisions() {
    let (tasks, workers) = world();
    let config = ServeConfig {
        n_shards: 3,
        ingest_threads: 2,
        queue_capacity: 64,
        budget: 0,
        policy: split_policy(),
        ..ServeConfig::default()
    };
    let service = LabellingService::start(&tasks, &workers, config);

    // Phase 1: concurrent producers submit the first half of the stream.
    let streams = producer_streams();
    let (phase1, phase2): (Vec<_>, Vec<_>) = streams
        .iter()
        .flat_map(|s| s.iter().copied())
        .enumerate()
        .partition(|(i, _)| i % 2 == 0);
    std::thread::scope(|s| {
        for chunk in phase1.chunks(30) {
            let handle = service.handle();
            s.spawn(move || {
                for &(_, (w, t)) in chunk {
                    handle.submit(w, t, bits_for(w, t)).unwrap();
                }
            });
        }
    });
    service.quiesce();

    // Snapshot through the JSON wire format.
    let snapshot = service.snapshot();
    let json = snapshot.to_json();
    let parsed = ServiceSnapshot::from_json(&json).unwrap();
    assert_eq!(parsed, snapshot);
    let restored = LabellingService::restore(&tasks, &workers, &parsed).unwrap();

    // Restore reproduces the snapshotted inference exactly.
    assert_eq!(restored.decisions(), service.decisions());
    assert_eq!(restored.answers_total(), service.answers_total());

    // Phase 2 (resume): feed both services the same remaining answers from
    // one thread; they must stay in lockstep.
    let original_handle = service.handle();
    let restored_handle = restored.handle();
    for &(_, (w, t)) in &phase2 {
        original_handle.submit_wait(w, t, bits_for(w, t)).unwrap();
        restored_handle.submit_wait(w, t, bits_for(w, t)).unwrap();
    }
    service.quiesce();
    restored.quiesce();
    assert_eq!(restored.decisions(), service.decisions());
    assert_eq!(
        restored.snapshot().to_json(),
        service.snapshot().to_json(),
        "resumed services must serialise identically"
    );
    service.shutdown();
    restored.shutdown();
}

#[test]
fn gossip_racing_ingestion_loses_nothing_and_matches_event_replay() {
    // Producers hammer all shards while the per-shard gossip (every 25
    // applied answers) publishes and folds worker statistics concurrently.
    // The fold payloads depend on racy cross-shard timing, but invariant 1
    // (nothing lost) and invariant 3 (event replay equality) must still
    // hold, and the gossip-round metrics must advance.
    let (tasks, workers) = world();
    let service = LabellingService::start(
        &tasks,
        &workers,
        ServeConfig {
            n_shards: 4,
            queue_capacity: 32,
            budget: 0,
            gossip_every: Some(25),
            policy: split_policy(),
            ..ServeConfig::default()
        },
    );
    let streams = producer_streams();
    std::thread::scope(|s| {
        for stream in &streams {
            let handle = service.handle();
            s.spawn(move || {
                for &(w, t) in stream {
                    handle.submit(w, t, bits_for(w, t)).unwrap();
                }
            });
        }
    });
    service.quiesce();

    let total = N_PRODUCERS * SUBMITS_PER_PRODUCER;
    assert_eq!(service.answers_total(), total);
    let metrics = service.metrics();
    assert_eq!(metrics.total_submits() as usize, total);
    assert_eq!(metrics.shards.iter().map(|s| s.rejected).sum::<u64>(), 0);

    // Gossip actually ran: rounds fired on every shard that crossed the
    // cadence, deltas were folded, and the lag stays below the cadence.
    let rounds: u64 = metrics.shards.iter().map(|s| s.gossip_rounds).sum();
    let folds: u64 = metrics.shards.iter().map(|s| s.gossip_folds).sum();
    assert!(rounds > 0, "no gossip round fired");
    assert!(folds > 0, "no peer delta was ever folded");
    for s in &metrics.shards {
        assert_eq!(s.gossip_rounds, s.submits / 25, "shard {}", s.shard);
        assert!(s.gossip_lag < 25, "shard {} lag {}", s.shard, s.gossip_lag);
    }

    for shard_id in 0..service.n_shards() {
        let shard = service.shard(shard_id);
        assert!(
            !shard.framework().peer_stats().is_empty(),
            "shard {shard_id} never learned about its peers"
        );
        drop(shard);
        assert_shard_equals_replay(&service, shard_id);
    }
    service.shutdown();
}

#[test]
fn gossip_request_loops_never_overcharge_budget() {
    // Invariant 2 with gossip racing the request → answer loops.
    let (tasks, workers) = world();
    let budget = 150;
    let service = LabellingService::start(
        &tasks,
        &workers,
        ServeConfig {
            n_shards: 4,
            queue_capacity: 64,
            budget,
            h: 2,
            gossip_every: Some(10),
            policy: split_policy(),
            ..ServeConfig::default()
        },
    );
    std::thread::scope(|s| {
        for chunk in 0..4 {
            let handle = service.handle();
            s.spawn(move || {
                let ids: Vec<WorkerId> = (0..N_WORKERS)
                    .skip(chunk * 3)
                    .take(3)
                    .map(WorkerId::from_index)
                    .collect();
                request_answer_loop(&handle, &ids);
            });
        }
    });
    service.quiesce();

    let mut slice_sum = 0;
    let mut used_sum = 0;
    for shard_id in 0..service.n_shards() {
        let shard = service.shard(shard_id);
        let slice = shard.framework().config().budget;
        let used = shard.framework().budget_used();
        assert!(
            used <= slice,
            "shard {shard_id} charged {used} of a {slice} slice"
        );
        slice_sum += slice;
        used_sum += used;
    }
    assert_eq!(slice_sum, budget);
    assert!(used_sum <= budget);
    assert_eq!(used_sum, service.budget_used());
    assert_eq!(service.answers_total(), used_sum);
    assert_eq!(
        service
            .metrics()
            .shards
            .iter()
            .map(|s| s.rejected)
            .sum::<u64>(),
        0,
        "a reserved pair was re-issued and double-answered"
    );
    for shard_id in 0..service.n_shards() {
        assert_shard_equals_replay(&service, shard_id);
    }
    service.shutdown();
}

#[test]
fn gossip_snapshot_restore_resume_stays_in_lockstep() {
    // Phase 1 runs with gossip racing concurrent producers; the snapshot
    // must capture the actual fold events and the in-flight exchange so
    // the restored service is bit-identical *and* keeps gossiping in
    // lockstep with the original under a serialised resume stream.
    let (tasks, workers) = world();
    let config = ServeConfig {
        n_shards: 3,
        queue_capacity: 64,
        budget: 0,
        gossip_every: Some(20),
        policy: split_policy(),
        ..ServeConfig::default()
    };
    let service = LabellingService::start(&tasks, &workers, config);

    let streams = producer_streams();
    let (phase1, phase2): (Vec<_>, Vec<_>) = streams
        .iter()
        .flat_map(|s| s.iter().copied())
        .enumerate()
        .partition(|(i, _)| i % 2 == 0);
    std::thread::scope(|s| {
        for chunk in phase1.chunks(30) {
            let handle = service.handle();
            s.spawn(move || {
                for &(_, (w, t)) in chunk {
                    handle.submit(w, t, bits_for(w, t)).unwrap();
                }
            });
        }
    });
    service.quiesce();

    let snapshot = service.snapshot();
    assert!(
        snapshot.shards.iter().any(|s| !s.gossip_events.is_empty()),
        "phase 1 should have produced at least one fold to make this test meaningful"
    );
    assert!(snapshot.exchange.iter().any(Option::is_some));
    let json = snapshot.to_json();
    let parsed = ServiceSnapshot::from_json(&json).unwrap();
    assert_eq!(parsed, snapshot);
    let restored = LabellingService::restore(&tasks, &workers, &parsed).unwrap();

    assert_eq!(restored.decisions(), service.decisions());
    assert_eq!(restored.answers_total(), service.answers_total());

    // Restored gossip metrics are seeded from the replayed events: fold
    // counts match the snapshot and no shard reports a spurious
    // full-history lag.
    let restored_metrics = restored.metrics();
    for (s, shard_snapshot) in snapshot.shards.iter().enumerate() {
        let m = &restored_metrics.shards[s];
        assert_eq!(m.gossip_folds as usize, shard_snapshot.gossip_events.len());
        if let Some(last) = shard_snapshot.gossip_events.last() {
            assert!(m.gossip_rounds > 0);
            assert_eq!(m.gossip_lag, m.submits - last.position as u64);
        }
    }

    // Resume both services with the same serialised stream: gossip
    // triggers at deterministic positions and reads identical exchanges,
    // so they must stay in lockstep through further rounds.
    let original_handle = service.handle();
    let restored_handle = restored.handle();
    for &(_, (w, t)) in &phase2 {
        original_handle.submit_wait(w, t, bits_for(w, t)).unwrap();
        restored_handle.submit_wait(w, t, bits_for(w, t)).unwrap();
    }
    service.quiesce();
    restored.quiesce();
    assert_eq!(restored.decisions(), service.decisions());
    assert_eq!(
        restored.snapshot().to_json(),
        service.snapshot().to_json(),
        "resumed gossiping services must serialise identically"
    );
    for shard_id in 0..service.n_shards() {
        assert_shard_equals_replay(&service, shard_id);
        assert_shard_equals_replay(&restored, shard_id);
    }
    service.shutdown();
    restored.shutdown();
}

#[test]
fn snapshot_after_force_full_em_restores_bit_identically() {
    // force_full_em runs a final exchange cycle *and* hardening sweeps;
    // both are recorded in the event streams, so a snapshot taken after
    // hardening must still restore to bit-identical model state — and a
    // second hardening must exchange the post-sweep statistics (publish
    // versions count publishes, not answers, so the re-publish at an
    // unchanged answer count is not mistaken for a re-delivery).
    let (tasks, workers) = world();
    let service = LabellingService::start(
        &tasks,
        &workers,
        ServeConfig {
            n_shards: 3,
            budget: 0,
            gossip_every: Some(20),
            policy: split_policy(),
            ..ServeConfig::default()
        },
    );
    let handle = service.handle();
    for w in 0..N_WORKERS {
        for t in 0..N_TASKS {
            let (w, t) = (WorkerId::from_index(w), TaskId::from_index(t));
            handle.submit_wait(w, t, bits_for(w, t)).unwrap();
        }
    }
    service.quiesce();
    service.force_full_em();
    let folds_after_first: u64 = service
        .metrics()
        .shards
        .iter()
        .map(|s| s.gossip_folds)
        .sum();
    // Hardening again with no new answers still exchanges the post-sweep
    // statistics: the re-publishes carry strictly newer versions.
    service.force_full_em();
    let folds_after_second: u64 = service
        .metrics()
        .shards
        .iter()
        .map(|s| s.gossip_folds)
        .sum();
    assert!(
        folds_after_second > folds_after_first,
        "second hardening exchange must fold the post-sweep statistics \
         ({folds_after_first} -> {folds_after_second})"
    );

    let snapshot = service.snapshot();
    assert!(snapshot.shards.iter().all(|s| s
        .gossip_events
        .iter()
        .any(|e| matches!(e.kind, GossipEventKind::FullSweep))));
    let parsed = ServiceSnapshot::from_json(&snapshot.to_json()).unwrap();
    assert_eq!(parsed, snapshot);
    let restored = LabellingService::restore(&tasks, &workers, &parsed).unwrap();
    for shard_id in 0..service.n_shards() {
        assert_eq!(
            restored.shard(shard_id).framework().params(),
            service.shard(shard_id).framework().params(),
            "shard {shard_id}: hardened state must survive snapshot → restore"
        );
        assert_eq!(
            restored.shard(shard_id).publishes(),
            service.shard(shard_id).publishes()
        );
        assert_shard_equals_replay(&restored, shard_id);
    }
    assert_eq!(restored.decisions(), service.decisions());
    service.shutdown();
    restored.shutdown();
}

#[test]
fn mispositioned_gossip_event_is_rejected_on_restore() {
    let (tasks, workers) = world();
    let service = LabellingService::start(
        &tasks,
        &workers,
        ServeConfig {
            n_shards: 2,
            budget: 0,
            gossip_every: Some(5),
            policy: split_policy(),
            ..ServeConfig::default()
        },
    );
    let handle = service.handle();
    for w in 0..N_WORKERS {
        for t in 0..N_TASKS / 2 {
            let (w, t) = (WorkerId::from_index(w), TaskId::from_index(t));
            handle.submit_wait(w, t, bits_for(w, t)).unwrap();
        }
    }
    let mut snapshot = service.snapshot();
    let shard_with_events = snapshot
        .shards
        .iter()
        .position(|s| !s.gossip_events.is_empty())
        .expect("gossip ran");
    snapshot.shards[shard_with_events].gossip_events[0].position = usize::MAX;
    let err = LabellingService::restore(&tasks, &workers, &snapshot).unwrap_err();
    assert!(
        matches!(err, crowd_serve::SnapshotError::Mismatch(_)),
        "{err}"
    );
    service.shutdown();
}
