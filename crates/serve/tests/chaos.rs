//! Chaos stress: a split/merge storm plus mid-flight worker registration
//! racing ingestion across two concurrent campaigns multiplexed over one
//! shard pool. The service invariants must hold through all of it:
//!
//! 1. no accepted answer is lost,
//! 2. neither campaign ever charges beyond its own budget (slices always
//!    sum to the campaign budget, even mid-rebalance),
//! 3. no (worker, task) pair is ever re-issued (surfaced shard-side as a
//!    rejected duplicate — the count must be zero),
//! 4. every shard's final state equals a deterministic single-threaded
//!    replay of its recorded event stream — answers in arrival order with
//!    registrations applied at their recorded positions — and the whole
//!    service survives a snapshot → restore round trip. The live services
//!    sweep EM on two threads and the replay on one; the budgets fill
//!    shards past the small-log floor, so some of every campaign's live
//!    rebuilds run the side split.
//!
//! Gossip stays off here: the storm already republishes the map under
//! racing traffic, and the gossip × ingestion race has its own suite in
//! `stress.rs`.

use std::sync::atomic::{AtomicUsize, Ordering};

use crowd_core::{
    synthetic_task, EmParallelism, Framework, FrameworkConfig, LabelBits, TaskId, TaskSet,
    UpdatePolicy, Worker, WorkerId, WorkerPool,
};
use crowd_geo::Point;
use crowd_serve::{CampaignPool, GossipEventKind, LabellingService, ServeConfig};

const N_TASKS: usize = 200;
const N_WORKERS: usize = 12;

fn world() -> (TaskSet, WorkerPool) {
    let tasks = TaskSet::new(
        (0..N_TASKS)
            .map(|i| {
                synthetic_task(
                    format!("t{i}"),
                    Point::new((i % 20) as f64, (i / 20) as f64 * 1.7),
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
/// (`EmParallelism::effective`): a shard's second delayed rebuild, at 200
/// answers, does.
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

fn bits_for(w: WorkerId, t: TaskId) -> LabelBits {
    let x = crowd_sim::rngx::pair_seed(u64::from(w.0), u64::from(t.0));
    LabelBits::from_slice(&[x & 1 == 1, x & 2 == 2, x & 4 == 4, x & 8 == 8])
}

/// Request → answer loop over a fixed worker-id chunk, backing off on
/// empty assignments (a pending pair may be reserved behind the queue)
/// and stopping on budget exhaustion.
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
            Err(_) => break,
        }
    }
}

/// Replays one shard's recorded event stream — answers in arrival order
/// with `register` events applied at their recorded positions — starting
/// from the campaign's **base** worker pool, and asserts the live state
/// is bit-identical. This is the elastic extension of the replay oracle
/// in `stress.rs`: handoffs rebuild shards by exactly this replay, so a
/// storm of them must leave nothing the replay cannot reproduce.
fn assert_shard_equals_replay(
    service: &LabellingService,
    shard_id: usize,
    base_workers: &WorkerPool,
) {
    let shard = service.shard(shard_id);
    let live = shard.framework();
    let events = shard.gossip_events();
    let mut replay = Framework::with_distances(
        live.tasks().clone(),
        base_workers.clone(),
        sequential(live.config()),
        *live.distances(),
    );
    let mut next_event = 0usize;
    let apply_events_at = |replay: &mut Framework, position: usize, next_event: &mut usize| {
        while *next_event < events.len() && events[*next_event].position == position {
            match &events[*next_event].kind {
                GossipEventKind::Register { name, x, y } => {
                    replay
                        .register_worker(Worker::at(name.clone(), Point::new(*x, *y)))
                        .expect("replaying a recorded registration");
                }
                other => {
                    panic!("shard {shard_id}: unexpected event {other:?} in a gossip-free run")
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
        "shard {shard_id}: storm state must equal its deterministic replay"
    );
    assert_eq!(
        replay.inference().decisions(),
        live.inference().decisions(),
        "shard {shard_id}: decisions must match"
    );
}

/// Full post-storm audit of one campaign: budget conservation, zero
/// re-issues, answer accounting, replay equality, restore round trip.
fn audit_campaign(
    service: &LabellingService,
    base_workers: &WorkerPool,
    tasks: &TaskSet,
    budget: usize,
    direct_submits: usize,
) {
    let mut slice_sum = 0;
    let mut used_sum = 0;
    for shard_id in 0..service.n_shards() {
        let shard = service.shard(shard_id);
        let slice = shard.framework().config().budget;
        let used = shard.framework().budget_used();
        assert!(
            used <= slice,
            "campaign {}: shard {shard_id} charged {used} of a {slice} slice",
            service.campaign_id()
        );
        slice_sum += slice;
        used_sum += used;
    }
    assert_eq!(slice_sum, budget, "slices must sum to the campaign budget");
    assert!(used_sum <= budget, "campaign overcharged");
    assert_eq!(used_sum, service.budget_used());
    // Every answer is either an answered assignment (budget-charged) or
    // one of the counted direct submits from a registered worker.
    assert_eq!(service.answers_total(), used_sum + direct_submits);
    let metrics = service.metrics();
    assert_eq!(
        metrics.shards.iter().map(|s| s.rejected).sum::<u64>(),
        0,
        "a reserved pair was re-issued and double-answered"
    );
    assert_eq!(metrics.enqueued, metrics.processed, "lost queued commands");
    assert_eq!(metrics.map_version, service.map().version());

    for shard_id in 0..service.n_shards() {
        assert_shard_equals_replay(service, shard_id, base_workers);
    }

    // The stormed state survives persistence: the restored service makes
    // the same decisions and serialises identically.
    let snapshot = service.snapshot();
    let restored = LabellingService::restore(tasks, base_workers, &snapshot).unwrap();
    assert_eq!(restored.decisions(), service.decisions());
    assert_eq!(restored.snapshot_json(), service.snapshot_json());
    restored.shutdown();
}

#[test]
fn split_merge_storm_with_registration_across_two_campaigns() {
    let (tasks, workers) = world();
    let pool = CampaignPool::new(4, 64, 32);
    let budget_a = 1000;
    let budget_b = 900;
    let campaign_a = pool.attach(
        &tasks,
        &workers,
        ServeConfig {
            n_shards: 4,
            queue_capacity: 64,
            budget: budget_a,
            h: 2,
            policy: split_policy(),
            ..ServeConfig::default()
        },
    );
    let campaign_b = pool.attach(
        &tasks,
        &workers,
        ServeConfig {
            n_shards: 4,
            queue_capacity: 64,
            budget: budget_b,
            h: 2,
            policy: split_policy(),
            ..ServeConfig::default()
        },
    );
    assert_eq!(campaign_a.campaign_id(), 0);
    assert_eq!(campaign_b.campaign_id(), 1);
    assert_eq!(pool.campaign_ids(), vec![0, 1]);

    // Handoff successes and direct submits, tallied by the racing threads.
    let handoffs_a = AtomicUsize::new(0);
    let handoffs_b = AtomicUsize::new(0);
    let direct_a = AtomicUsize::new(0);
    let direct_b = AtomicUsize::new(0);

    std::thread::scope(|s| {
        // Requesters: campaign A owns worker ids 0..6, campaign B 6..12,
        // two threads each so assignments race within a campaign too.
        for chunk in 0..2 {
            let handle = campaign_a.handle();
            s.spawn(move || {
                let ids: Vec<WorkerId> = (chunk * 3..chunk * 3 + 3)
                    .map(WorkerId::from_index)
                    .collect();
                request_answer_loop(&handle, &ids);
            });
            let handle = campaign_b.handle();
            s.spawn(move || {
                let ids: Vec<WorkerId> = (6 + chunk * 3..6 + chunk * 3 + 3)
                    .map(WorkerId::from_index)
                    .collect();
                request_answer_loop(&handle, &ids);
            });
        }

        // The storm: alternating hot-splits and cold-merges on campaign A
        // (with periodic demand-driven rebalances), a lighter storm on B.
        // Refusals (nothing hot, nothing cold, would empty a shard) are
        // part of normal operation and ignored.
        s.spawn(|| {
            for i in 0..24 {
                let outcome = if i % 2 == 0 {
                    campaign_a.split_hot()
                } else {
                    campaign_a.merge_cold()
                };
                if outcome.is_ok() {
                    handoffs_a.fetch_add(1, Ordering::Relaxed);
                }
                if i % 6 == 5 {
                    let slices = campaign_a.rebalance_budget();
                    assert_eq!(slices.iter().sum::<usize>(), budget_a);
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        s.spawn(|| {
            for i in 0..8 {
                let outcome = if i % 2 == 0 {
                    campaign_b.split_hot()
                } else {
                    campaign_b.merge_cold()
                };
                if outcome.is_ok() {
                    handoffs_b.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        });

        // Mid-flight registrations: each campaign grows its pool while the
        // storm and the requesters are both running; every newcomer then
        // submits a few direct answers (distinct pairs by construction).
        s.spawn(|| {
            let handle = campaign_a.handle();
            for n in 0..3 {
                std::thread::sleep(std::time::Duration::from_millis(3));
                let w = campaign_a
                    .register_worker(Worker::at(
                        format!("late-a{n}"),
                        Point::new(1.0 + n as f64, 2.0),
                    ))
                    .unwrap();
                for t in [n, n + 8, n + 16] {
                    let t = TaskId::from_index(t);
                    handle.submit(w, t, bits_for(w, t)).unwrap();
                    direct_a.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        s.spawn(|| {
            let handle = campaign_b.handle();
            for n in 0..2 {
                std::thread::sleep(std::time::Duration::from_millis(4));
                let w = campaign_b
                    .register_worker(Worker::at(
                        format!("late-b{n}"),
                        Point::new(3.0, 1.0 + n as f64),
                    ))
                    .unwrap();
                for t in [n + 4, n + 24] {
                    let t = TaskId::from_index(t);
                    handle.submit(w, t, bits_for(w, t)).unwrap();
                    direct_b.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
    });
    campaign_a.quiesce();
    campaign_b.quiesce();

    // The live services ran the side split: some rebuild in each campaign
    // swept past the small-log floor on two threads, so the replay audit
    // below checks split sweeps against the sequential replay.
    for campaign in [&campaign_a, &campaign_b] {
        let obs = campaign.obs();
        let split = obs.em_full.threads(2).count() + obs.em_dirty.threads(2).count();
        assert!(
            split > 0,
            "campaign {}: no rebuild ran the side split",
            campaign.campaign_id()
        );
    }

    // Registrations landed on both campaigns, independently.
    assert_eq!(campaign_a.n_workers(), N_WORKERS + 3);
    assert_eq!(campaign_b.n_workers(), N_WORKERS + 2);
    assert_eq!(
        campaign_a
            .worker_name(WorkerId::from_index(N_WORKERS))
            .as_deref(),
        Some("late-a0")
    );
    assert_eq!(
        campaign_b
            .worker_name(WorkerId::from_index(N_WORKERS))
            .as_deref(),
        Some("late-b0")
    );

    // Each successful handoff published exactly one map version; the
    // storms were sequential per campaign, so the versions pin the counts.
    assert_eq!(
        campaign_a.map().version(),
        1 + handoffs_a.load(Ordering::Relaxed) as u64
    );
    assert_eq!(
        campaign_b.map().version(),
        1 + handoffs_b.load(Ordering::Relaxed) as u64
    );
    assert!(
        handoffs_a.load(Ordering::Relaxed) > 0,
        "the storm never landed a handoff — the test exercised nothing"
    );

    audit_campaign(
        &campaign_a,
        &workers,
        &tasks,
        budget_a,
        direct_a.load(Ordering::Relaxed),
    );
    audit_campaign(
        &campaign_b,
        &workers,
        &tasks,
        budget_b,
        direct_b.load(Ordering::Relaxed),
    );

    // Shutting one campaign down leaves the other (and the pool) serving.
    campaign_b.shutdown();
    assert!(pool.is_open());
    assert_eq!(pool.campaign_ids(), vec![0]);
    let handle = campaign_a.handle();
    let w = WorkerId::from_index(0);
    let t = TaskId::from_index(39);
    // A fresh pair still flows end to end after the sibling closed.
    if !campaign_a
        .shard(campaign_a.map().shard_of_task(t))
        .framework()
        .log()
        .answers()
        .iter()
        .any(|a| a.worker == w && a.task == t)
    {
        handle.submit(w, t, bits_for(w, t)).unwrap();
        campaign_a.quiesce();
    }
    campaign_a.shutdown();
    assert!(!pool.is_open(), "last campaign closed the pool");
}
