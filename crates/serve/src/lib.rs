//! `crowd_serve` — a sharded, concurrent labelling service over the POI
//! framework.
//!
//! The paper's framework (Figure 1) is an online loop: workers request
//! HITs, submit answers, and the model updates incrementally. The core
//! [`crowd_core::Framework`] realises one such loop behind `&mut self`; this
//! crate turns it into a *service* that survives concurrent traffic:
//!
//! * **Geographic sharding** ([`ShardMap`], [`Shard`]) — tasks are
//!   partitioned by `crowd_geo`'s uniform grid into shards, each owning a
//!   private `Framework` over its region with a proportional slice of the
//!   campaign budget. Shards share no mutable state.
//! * **Elastic serving** — the shard map is *versioned and mutable*:
//!   [`LabellingService::split_hot`] / [`LabellingService::merge_cold`]
//!   (or the explicit [`LabellingService::reassign_cell`]) move one grid
//!   cell between shards through a freeze → drain → transfer → publish
//!   handoff that rebuilds the receiving shards by pure replay of their
//!   merged, sequence-ordered event streams — bit-identical to a service
//!   that never split. Routing is epoch-stamped, so commands already
//!   queued under an older map version drain correctly (re-routed at
//!   apply time, counted in [`ServiceMetrics::rerouted`]). Workers can
//!   register mid-campaign ([`LabellingService::register_worker`], or
//!   `POST /workers/register` over HTTP) as a positioned event replayed
//!   on restore, and [`LabellingService::rebalance_budget`] re-slices
//!   unspent budget toward observed per-shard spend rates.
//! * **Campaign multiplexing** ([`CampaignPool`]) — N concurrent
//!   campaigns share one drain-thread pool, each with its own shards,
//!   budget, metrics and snapshots; the HTTP front-end routes by
//!   `?campaign=<id>` and exposes create/list/close admin routes.
//! * **Striped locking + ingestion pipeline** ([`LabellingService`],
//!   [`ServiceHandle`]) — producers push `SubmitAnswer` / `RequestTasks`
//!   commands into a bounded MPMC channel (backpressure when the service
//!   falls behind); N drain threads apply them in batches under per-shard
//!   `parking_lot::RwLock`s. Requests route to the workers' home region
//!   first, then roam to the shard with the most remaining budget.
//! * **Worker-quality gossip** ([`ServeConfig::gossip_every`],
//!   [`GossipEvent`]) — every N applied answers a shard publishes its
//!   worker-side sufficient statistics to a shared exchange and folds its
//!   peers' latest deltas (a commutative, associative, idempotent join —
//!   see [`crowd_core::model::gossip`]), so every shard's `P(i_w)` / `P(d_w)`
//!   estimates converge on the pooled values a single unsharded framework
//!   would compute.
//! * **HTTP front-end** ([`HttpServer`], [`http`]) — a dependency-free
//!   HTTP/1.1 server (accept pool + thread-per-connection keep-alive over
//!   [`std::net::TcpListener`]) exposing the labelling loop as JSON routes
//!   (`POST /tasks/request`, fire-and-forget `POST /labels`, progress /
//!   stats / metrics reads, and admin snapshot/restore) — spec in
//!   `docs/HTTP_API.md`. Safe interleaving of requests with queued
//!   answers rests on [`crowd_core::ReservationSet`]: issued pairs stay
//!   invisible to the assigners until their answers are applied.
//! * **Metrics** ([`ServiceMetrics`]) — lock-free per-shard counters:
//!   accepted submits, served requests, issued pairs, delayed full-EM
//!   rebuilds, rejections, gossip rounds/folds/lag, queue depth (with a
//!   reset-on-read high-water mark), submits/sec.
//! * **Observability** ([`ObsHub`], backed by the `crowd_obs` crate) —
//!   every service owns lock-free latency histograms (queue wait,
//!   per-answer apply, EM rebuild split dirty vs full sweep, assignment,
//!   gossip round, snapshot/restore), a span-id trace ring following one
//!   labelling request across HTTP parse → enqueue → drain → EM →
//!   gossip fold (drained by `GET /debug/trace`), and a self-sampler
//!   thread recording queue-depth / event-log-length gauges.
//!   `GET /metrics?format=prometheus` renders it all as Prometheus text
//!   (spec in `docs/OBSERVABILITY.md`). Deliberately process-local:
//!   snapshots never serialize observability state.
//! * **Persistence** ([`ServiceSnapshot`], format v4 — spec in
//!   `docs/SNAPSHOT_FORMAT.md`) — each shard's answer log, its recorded
//!   out-of-stream events (folds, sweeps, registrations), its latest
//!   full-sweep parameter checkpoint ([`ModelCheckpoint`]), the service
//!   configuration, the in-flight exchange and — once elasticity has
//!   moved them — the versioned shard map and canonical sequence
//!   numbers serialise to JSON with every gossip payload stored once in
//!   a `(source, version)`-deduplicated table.
//!   [`LabellingService::restore`] *hardens from parameters* — bulk-load
//!   the pre-checkpoint log, re-seed the converged parameters, replay
//!   only the suffix — and replays the full event stream of any shard
//!   without a checkpoint; [`LabellingService::restore_verified`] also
//!   restores a checkpoint-free copy that way and proves the two
//!   bit-identical.
//!   [`Shard::snapshot_delta`] / [`ServiceSnapshot::compact`] add
//!   incremental snapshots: ship only what a base missed, then fold the
//!   chain back into a base byte-identical to a one-shot snapshot
//!   (re-base after a handoff — deltas are not defined once the map has
//!   moved). Every writer emits v4; v1–v3 documents are upgraded on
//!   parse and restore exactly as recorded.
//!
//! # Quick start
//!
//! ```
//! use crowd_core::prelude::*;
//! use crowd_geo::Point;
//! use crowd_serve::{LabellingService, ServeConfig};
//!
//! let tasks = TaskSet::new(
//!     (0..16)
//!         .map(|i| synthetic_task(format!("poi{i}"), Point::new(f64::from(i % 4), f64::from(i / 4)), 3))
//!         .collect(),
//! );
//! let workers = WorkerPool::from_workers(vec![
//!     Worker::at("alice", Point::new(0.0, 0.0)),
//!     Worker::at("bob", Point::new(3.0, 3.0)),
//! ])
//! .unwrap();
//!
//! let service = LabellingService::start(
//!     &tasks,
//!     &workers,
//!     ServeConfig { n_shards: 2, budget: 40, ..ServeConfig::default() },
//! );
//! let handle = service.handle();
//!
//! // A worker requests tasks and answers them (possibly from another thread).
//! let assignment = handle.request_tasks(&[WorkerId(0)]).unwrap();
//! for (w, t) in assignment.pairs() {
//!     handle.submit(w, t, LabelBits::from_slice(&[true, false, true])).unwrap();
//! }
//!
//! service.quiesce();
//! assert_eq!(service.answers_total(), assignment.total());
//! let snapshot = service.snapshot();
//! let restored = LabellingService::restore(&tasks, &workers, &snapshot).unwrap();
//! assert_eq!(restored.decisions(), service.decisions());
//! service.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod json;
pub mod metrics;
pub mod obs;
pub mod service;
pub mod shard;
pub mod snapshot;
pub mod spill;

pub use http::{HttpConfig, HttpServer};
pub use json::{Json, JsonError};
pub use metrics::{ServiceMetrics, ShardMetrics, ShardMetricsSnapshot};
pub use obs::{CoreRecorder, EmRebuilds, ObsHub};
pub use service::{
    CampaignPool, HandoffReport, LabellingService, RetentionPolicy, ServeConfig, ServeError,
    ServiceHandle,
};
pub use shard::{GossipEvent, GossipEventKind, ModelCheckpoint, Shard, ShardMap};
pub use snapshot::{
    ServiceSnapshot, ServiceSnapshotDelta, ShardDelta, ShardSnapshot, SnapshotAnswer,
    SnapshotCursor, SnapshotError, SNAPSHOT_VERSION,
};
pub use spill::{spill_path, SpillError, SpillReader, SpillWriter, SPILL_MAGIC};

#[cfg(test)]
mod tests {
    use crate::{LabellingService, ServeConfig, ServeError};
    use crowd_core::{
        synthetic_task, CoreError, LabelBits, TaskId, TaskSet, Worker, WorkerId, WorkerPool,
    };
    use crowd_geo::Point;

    fn world(n_tasks: usize, n_workers: usize) -> (TaskSet, WorkerPool) {
        let side = (n_tasks as f64).sqrt().ceil() as usize;
        let tasks = TaskSet::new(
            (0..n_tasks)
                .map(|i| {
                    synthetic_task(
                        format!("t{i}"),
                        Point::new((i % side) as f64, (i / side) as f64),
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
                        Point::new((i % side) as f64 + 0.3, (i / side) as f64 + 0.2),
                    )
                })
                .collect(),
        )
        .unwrap();
        (tasks, workers)
    }

    #[test]
    fn request_submit_loop_reaches_inference() {
        let (tasks, workers) = world(16, 4);
        let service = LabellingService::start(
            &tasks,
            &workers,
            ServeConfig {
                n_shards: 2,
                budget: 32,
                ..ServeConfig::default()
            },
        );
        let handle = service.handle();
        let mut assigned = 0;
        for w in workers.ids() {
            let a = handle.request_tasks(&[w]).unwrap();
            assigned += a.total();
            for (worker, task) in a.pairs() {
                assert!(task.index() < 16, "global id expected");
                handle
                    .submit_wait(worker, task, LabelBits::from_slice(&[true, true, false]))
                    .unwrap();
            }
        }
        assert!(assigned > 0);
        service.quiesce();
        assert_eq!(service.answers_total(), assigned);
        assert_eq!(service.budget_used(), assigned);
        let decisions = service.decisions();
        assert_eq!(decisions.len(), 16);
        let metrics = service.metrics();
        assert_eq!(metrics.total_submits() as usize, assigned);
        assert_eq!(metrics.total_assigned() as usize, assigned);
        assert_eq!(metrics.enqueued, metrics.processed);
        service.shutdown();
    }

    #[test]
    fn budget_exhausts_across_all_shards() {
        let (tasks, workers) = world(9, 3);
        let service = LabellingService::start(
            &tasks,
            &workers,
            ServeConfig {
                n_shards: 3,
                budget: 6,
                h: 2,
                ..ServeConfig::default()
            },
        );
        let handle = service.handle();
        let mut total = 0;
        loop {
            match handle.request_tasks(&[WorkerId(0), WorkerId(1), WorkerId(2)]) {
                Ok(a) if a.is_empty() => break,
                Ok(a) => total += a.total(),
                Err(ServeError::Core(CoreError::BudgetExhausted)) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert_eq!(total, 6);
        assert_eq!(service.budget_used(), 6);
        // Sum of slices equals the campaign budget and none is overdrawn.
        let per_shard: usize = (0..service.n_shards())
            .map(|s| {
                let shard = service.shard(s);
                assert!(shard.framework().budget_used() <= shard.framework().config().budget);
                shard.framework().budget_used()
            })
            .sum();
        assert_eq!(per_shard, 6);
        service.shutdown();
    }

    #[test]
    fn duplicate_submit_is_rejected_and_counted() {
        let (tasks, workers) = world(4, 2);
        let service = LabellingService::start(
            &tasks,
            &workers,
            ServeConfig {
                n_shards: 1,
                budget: 10,
                ..ServeConfig::default()
            },
        );
        let handle = service.handle();
        let bits = LabelBits::from_slice(&[true, false, false]);
        handle.submit_wait(WorkerId(0), TaskId(0), bits).unwrap();
        let err = handle
            .submit_wait(WorkerId(0), TaskId(0), bits)
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Core(CoreError::DuplicateAnswer { .. })
        ));
        let metrics = service.metrics();
        assert_eq!(metrics.shards[0].rejected, 1);
        assert_eq!(metrics.shards[0].submits, 1);
        service.shutdown();
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let (tasks, workers) = world(4, 2);
        let service = LabellingService::start(&tasks, &workers, ServeConfig::default());
        let handle = service.handle();
        assert!(matches!(
            handle.submit_wait(WorkerId(0), TaskId(99), LabelBits::zeros(3)),
            Err(ServeError::Core(CoreError::UnknownTask(TaskId(99))))
        ));
        assert!(matches!(
            handle.request_tasks(&[WorkerId(42)]),
            Err(ServeError::Core(CoreError::UnknownWorker(WorkerId(42))))
        ));
        service.shutdown();
    }

    #[test]
    fn handles_refuse_commands_after_shutdown() {
        let (tasks, workers) = world(4, 2);
        let service = LabellingService::start(&tasks, &workers, ServeConfig::default());
        let handle = service.handle();
        service.shutdown();
        assert_eq!(
            handle.submit(WorkerId(0), TaskId(0), LabelBits::zeros(3)),
            Err(ServeError::Closed)
        );
        assert!(matches!(
            handle.request_tasks(&[WorkerId(0)]),
            Err(ServeError::Closed)
        ));
    }

    #[test]
    fn empty_worker_batch_gets_empty_assignment() {
        let (tasks, workers) = world(4, 2);
        let service = LabellingService::start(&tasks, &workers, ServeConfig::default());
        let a = service.handle().request_tasks(&[]).unwrap();
        assert!(a.is_empty());
        service.shutdown();
    }

    #[test]
    fn force_full_em_hardens_every_shard() {
        let (tasks, workers) = world(9, 3);
        let service = LabellingService::start(
            &tasks,
            &workers,
            ServeConfig {
                n_shards: 3,
                budget: 30,
                ..ServeConfig::default()
            },
        );
        let handle = service.handle();
        for w in workers.ids() {
            let a = handle.request_tasks(&[w]).unwrap();
            for (worker, task) in a.pairs() {
                handle
                    .submit(worker, task, LabelBits::from_slice(&[true, true, true]))
                    .unwrap();
            }
        }
        service.quiesce();
        service.force_full_em();
        for s in 0..service.n_shards() {
            let shard = service.shard(s);
            if !shard.framework().log().is_empty() {
                assert!(shard.framework().model().last_report().is_some());
            }
        }
        service.shutdown();
    }
}
