//! The concurrent labelling service: sharded campaign state behind striped
//! locks, multiplexed over a pool of bounded ingestion queues.
//!
//! ```text
//!  producers (request/submit)          pool slots            campaigns
//!  ┌────────┐ route by (campaign, ┌─▶ slot 0 ─▶ drain 0 ─┐ ┌──────────────┐
//!  │ handle │─────────────────────┤                      ├▶│ C0: shards   │
//!  └────────┘  task) against the  ├─▶ slot 1 ─▶ drain 1 ─┤ │ (RwLock each)│
//!  ┌────────┐  campaign's current │                      │ ├──────────────┤
//!  │ handle │─┘ versioned ShardMap└─▶   …         …      └▶│ C1: shards   │
//!  └────────┘                                              └──────────────┘
//! ```
//!
//! * The shard map is a **versioned, immutable snapshot**: routing reads an
//!   `Arc<ShardMap>` and stamps every command with the map version it was
//!   routed under. A hot-cell split or cold-cell merge
//!   ([`LabellingService::reassign_cell`]) publishes a *successor* map
//!   under a two-phase handoff (freeze both shards → transfer answer-log
//!   segments, reservations, gossip events and a budget share → publish);
//!   in-flight commands routed under the old version are re-resolved on
//!   the drain side under the shard lock, so nothing is lost or misapplied.
//! * [`ServiceHandle::submit`] routes the answer to its owning shard and
//!   enqueues it on that shard's pool slot; the bounded queue blocks the
//!   producer only when that slot falls behind.
//! * [`ServiceHandle::request_tasks`] enqueues on the workers' home shard
//!   and blocks on a one-shot reply channel; the draining thread serves
//!   from its own shard first and roams to the shard with the most
//!   remaining budget when the home region has nothing assignable.
//! * N campaigns can share one [`CampaignPool`]: the routing key carries
//!   the campaign id, each campaign keeps its own shards, budget slices,
//!   metrics and snapshots, and drain threads dispatch each command to its
//!   campaign's shard. A single campaign started with
//!   [`LabellingService::start`] is simply a pool of one.
//! * With [`ServeConfig::gossip_every`] set, the drain loops additionally
//!   run the cross-shard worker-quality gossip: every N applied answers a
//!   shard publishes its worker-side sufficient statistics to a shared
//!   exchange and folds its peers' latest deltas, so every shard's
//!   `P(i_w)` / `P(d_w)` estimates converge on the pooled (unsharded)
//!   values. Folds are recorded as positioned events, keeping shard state
//!   a deterministic function of its persisted event stream.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use crowd_core::{
    Assignment, CoreError, Distances, EmConfig, FrameworkConfig, LabelBits, RecorderHandle, TaskId,
    TaskSet, UpdatePolicy, Worker, WorkerId, WorkerPool, WorkerStatDelta,
};
use parking_lot::{Mutex, RwLock};

use crate::metrics::{ServiceMetrics, ShardMetrics};
use crate::obs::{CoreRecorder, ObsHub};
use crate::shard::{GossipEventKind, Shard, ShardMap};
use crate::spill::SpillWriter;

/// What a shard keeps in memory as its answer stream grows.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum RetentionPolicy {
    /// Keep every answer payload in memory for the campaign's lifetime —
    /// the historical behaviour, and the only mode in which the full
    /// replay restore/verify path exists.
    #[default]
    KeepAll,
    /// Bound memory: whenever a shard records a full-sweep checkpoint at
    /// the end of its stream, drop the answer payloads the checkpoint
    /// covers, keeping only a two-integer `(worker, task)` index (exact
    /// duplicate detection and counts) plus the frozen sufficient-
    /// statistics baseline. Resident memory is O(suffix since the last
    /// checkpoint), not O(campaign).
    PruneCheckpointed {
        /// When set, pruned payloads are appended to
        /// `{spill_dir}/shard-{id}.spill` before being dropped (the cold
        /// archive tier — see [`crate::spill`]). `None` discards them:
        /// snapshots still restore bit-identically through the checkpoint,
        /// but the raw pre-checkpoint answers are gone. Spilling is
        /// best-effort: an I/O error disables the writer rather than
        /// blocking ingestion.
        spill_dir: Option<String>,
    },
}

/// Service configuration.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ServeConfig {
    /// Number of geographic shards (clamped to the task count).
    pub n_shards: usize,
    /// Legacy knob from the shared-queue design: the service now runs
    /// exactly one drain thread per shard, and
    /// [`LabellingService::start`] normalises this field to the (clamped)
    /// shard count so [`LabellingService::config`] reports reality.
    pub ingest_threads: usize,
    /// Total ingestion capacity — the backpressure bound, split evenly
    /// across the per-shard queues (at least one slot each). A producer
    /// blocks only when the *target shard's* queue is full.
    pub queue_capacity: usize,
    /// Maximum commands a drain thread applies per wakeup.
    pub drain_batch: usize,
    /// Total campaign budget, split proportionally across shards.
    pub budget: usize,
    /// Tasks per HIT.
    pub h: usize,
    /// Inference configuration (shared by every shard's framework).
    pub em: EmConfig,
    /// Online-update policy (per shard).
    pub policy: UpdatePolicy,
    /// Cross-shard worker-quality gossip: every `gossip_every` answers a
    /// shard applies, it publishes its worker-side sufficient statistics
    /// to the shared exchange and folds its peers' latest deltas into its
    /// own model (see [`crowd_core::model::gossip`]). The folds land
    /// before the shard's next delayed rebuild, so dirty-set sweeps
    /// re-estimate under the pooled worker quality. `None` (or `Some(0)`)
    /// disables gossip everywhere — each shard estimates `P(i_w)` from its
    /// own answers only, the pre-gossip behaviour.
    pub gossip_every: Option<usize>,
    /// Period, in milliseconds, of the observability self-sampler thread
    /// that appends queue-depth and event-log-length gauge points to the
    /// service's [`ObsHub`]. `0` disables the sampler.
    pub obs_sample_ms: u64,
    /// What each shard keeps in memory as its stream grows (see
    /// [`RetentionPolicy`]). Defaults to [`RetentionPolicy::KeepAll`].
    pub retention: RetentionPolicy,
    /// Period, in milliseconds, of the self-scheduled retention prune:
    /// every period the sampler thread runs the equivalent of
    /// [`LabellingService::prune`] (harden every shard, drop the
    /// checkpoint-covered prefixes). Only meaningful under
    /// [`RetentionPolicy::PruneCheckpointed`]; `None` (the default) and
    /// `Some(0)` disable the timer — pruning then happens only on
    /// checkpoints and explicit admin calls.
    pub prune_every: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            n_shards: 4,
            ingest_threads: 2,
            queue_capacity: 1024,
            drain_batch: 64,
            budget: 1000,
            h: 2,
            em: EmConfig::default(),
            policy: UpdatePolicy::default(),
            gossip_every: None,
            obs_sample_ms: 200,
            retention: RetentionPolicy::KeepAll,
            prune_every: None,
        }
    }
}

impl ServeConfig {
    /// The per-shard framework configuration for a given budget slice.
    #[must_use]
    pub fn framework_config(&self, budget_slice: usize) -> FrameworkConfig {
        FrameworkConfig {
            em: self.em.clone(),
            policy: self.policy,
            budget: budget_slice,
            h: self.h,
        }
    }
}

/// Service-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The underlying framework rejected the command.
    Core(CoreError),
    /// The service is shut down (or shutting down) and accepts no commands.
    Closed,
    /// An elastic operation (handoff, rebalance, registration) was refused;
    /// the message says why. The current state is untouched — refusals
    /// happen before any migration starts.
    Rejected(String),
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        Self::Core(e)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Core(e) => write!(f, "{e}"),
            Self::Closed => write!(f, "labelling service is closed"),
            Self::Rejected(why) => write!(f, "{why}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// An ingestion command. Every command carries its trace span (0 =
/// untraced) and the instant it was enqueued, so the drain side can
/// record shard queue-wait time and continue the span.
enum Command {
    Submit {
        worker: WorkerId,
        task: TaskId,
        bits: LabelBits,
        reply: Option<Sender<Result<bool, ServeError>>>,
        span: u64,
        queued_at: Instant,
    },
    Request {
        workers: Vec<WorkerId>,
        reply: Sender<Result<Assignment, ServeError>>,
        span: u64,
        queued_at: Instant,
    },
}

/// A command routed into the shared slot queues: which campaign it belongs
/// to, the shard it was routed to, and the shard-map version that routing
/// decision was made under. The drain side resolves the campaign, takes the
/// shard's lock, and re-validates ownership against the *current* map — a
/// command routed under an older epoch follows the task to its new owner
/// (see [`Inner::apply_submit`]).
struct Routed {
    campaign: u32,
    shard: u32,
    epoch: u64,
    cmd: Command,
}

/// What one cell handoff moved (returned by
/// [`LabellingService::reassign_cell`] and the hot/cold auto-pickers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandoffReport {
    /// The shard-map version the handoff published.
    pub map_version: u64,
    /// The grid cell that changed owner.
    pub cell: usize,
    /// The shard that gave the cell up.
    pub from: usize,
    /// The shard that received it.
    pub to: usize,
    /// Tasks that moved with the cell.
    pub moved_tasks: usize,
    /// Answers whose log segments migrated to the receiving shard.
    pub moved_answers: usize,
    /// Budget units transferred from the source's remaining slice.
    pub budget_moved: usize,
}

/// Bookkeeping serialized by the elastic mutex: one handoff, rebalance or
/// registration at a time.
struct ElasticState {
    /// Per-shard `assigned` counter at the last rebalance — the window
    /// over which the next rebalance measures observed spend rate.
    last_assigned: Vec<u64>,
}

/// Shared state between one campaign's service, its handles and the pool's
/// drain threads.
pub(crate) struct Inner {
    /// This campaign's id inside its [`CampaignPool`] (the routing key).
    campaign: u32,
    /// The shard pool this campaign is multiplexed onto.
    pool: Arc<PoolInner>,
    pub(crate) shards: Vec<RwLock<Shard>>,
    /// The current task → shard partition. Readers clone the `Arc` out and
    /// drop the guard immediately (see [`Inner::map`]); a handoff publishes
    /// a successor version while still holding every shard's write lock, so
    /// anything resolved through the newest map is definitive.
    pub(crate) map: RwLock<Arc<ShardMap>>,
    pub(crate) metrics: Vec<ShardMetrics>,
    /// The gossip exchange: each shard's latest published worker-stat
    /// delta. Leaf locks — never held while acquiring a shard lock.
    pub(crate) exchange: Vec<RwLock<Option<WorkerStatDelta>>>,
    /// Gossip cadence (copied out of the config for the hot path).
    gossip_every: Option<usize>,
    /// Whether checkpoint pruning is on (copied out of the config).
    prune_on_checkpoint: bool,
    /// Per-shard spill writers (the on-disk answer tier). `None` when
    /// retention keeps everything, spilling is unconfigured, or the writer
    /// was disabled after an I/O error. Leaf locks, taken only while
    /// holding the owning shard's write lock.
    spills: Vec<Mutex<Option<SpillWriter>>>,
    /// The effective configuration — handoffs rebuild shards from it.
    serve_config: ServeConfig,
    /// The campaign's task universe (rebuilds need the full set).
    tasks: TaskSet,
    /// Campaign-global distance normalisation, shared by every shard.
    distances: Distances,
    /// The worker pool as it was at start — the base every rebuild
    /// re-registers from, before replaying mid-campaign registrations.
    pub(crate) base_pool: WorkerPool,
    /// Home shard per registered worker (grows with registrations, fully
    /// recomputed when a handoff publishes a new map).
    pub(crate) worker_home: RwLock<Vec<usize>>,
    /// Serializes elastic operations: handoff, rebalance, registration.
    elastic: Mutex<ElasticState>,
    /// The next canonical global sequence number, once any shard's seqs
    /// have been materialized by a first handoff. Allocated under the
    /// owning shard's write lock, so per-shard seq order tracks apply
    /// order.
    pub(crate) next_seq: AtomicU64,
    /// Submits that drained against a newer map version than they were
    /// routed under and followed their task to its new owner.
    rerouted: AtomicU64,
    /// The recorder every shard's framework reports EM/assignment timings
    /// through; rebuilds re-attach it.
    recorder: RecorderHandle,
    /// Commands accepted into the pool queues on behalf of this campaign.
    enqueued: AtomicU64,
    /// Commands fully applied.
    processed: AtomicU64,
    /// Byte length of the last snapshot rendered via
    /// [`LabellingService::snapshot_json`] (operator gauge).
    pub(crate) snapshot_bytes: AtomicU64,
    /// This service's observability hub (histograms, trace ring, gauge
    /// series). Process-local: never serialized into snapshots.
    pub(crate) obs: Arc<ObsHub>,
    /// Cleared on shutdown; handles refuse new commands once false.
    open: AtomicBool,
    /// Whether this campaign has already been detached from its pool
    /// (shutdown and drop are both allowed to run; only the first acts).
    detached: AtomicBool,
    started: Instant,
}

impl Inner {
    pub(crate) fn n_workers(&self) -> usize {
        self.worker_home.read().len()
    }

    /// The current shard map. Clones the `Arc` out and releases the map
    /// lock immediately, so no caller ever holds it while acquiring a
    /// shard lock.
    pub(crate) fn map(&self) -> Arc<ShardMap> {
        Arc::clone(&self.map.read())
    }

    /// Applies one routed command for this campaign.
    fn apply(&self, routed: Routed) {
        let shard = (routed.shard as usize).min(self.shards.len() - 1);
        match routed.cmd {
            Command::Submit {
                worker,
                task,
                bits,
                reply,
                span,
                queued_at,
            } => {
                self.obs.queue_wait.record_duration(queued_at.elapsed());
                self.obs.trace.record(span, "drain", Some(shard));
                let result = self.apply_submit(shard, routed.epoch, worker, task, bits, span);
                if let Some(reply) = reply {
                    // A producer that gave up on the reply is not an error.
                    let _ = reply.send(result);
                }
            }
            Command::Request {
                workers,
                reply,
                span,
                queued_at,
            } => {
                self.obs.queue_wait.record_duration(queued_at.elapsed());
                self.obs.trace.record(span, "drain", Some(shard));
                let _ = reply.send(self.apply_request(shard, &workers));
            }
        }
        self.processed.fetch_add(1, Ordering::AcqRel);
    }

    fn apply_submit(
        &self,
        routed_to: usize,
        epoch: u64,
        worker: WorkerId,
        task: TaskId,
        bits: LabelBits,
        span: u64,
    ) -> Result<bool, ServeError> {
        // Lock-then-check routing: the shard this command was routed to may
        // have handed the task off while the command sat in the queue. Take
        // the shard's lock, verify it still owns the task, and on a miss
        // follow the *current* map (a handoff publishes the new map before
        // releasing the shard locks, so whatever the newest map says is
        // definitive; a still-newer handoff just loops again).
        let mut target = routed_to;
        let mut shard = loop {
            let guard = self.shards[target].write();
            if guard.local_of(task).is_some() {
                break guard;
            }
            drop(guard);
            let map = self.map();
            debug_assert!(map.version() >= epoch, "shard maps are monotone");
            match map.shard_of_task_checked(task) {
                Some(owner) => target = owner,
                None => return Err(CoreError::UnknownTask(task).into()),
            }
        };
        let shard_id = target;
        if shard_id != routed_to {
            self.rerouted.fetch_add(1, Ordering::Relaxed);
        }
        let applied_at = Instant::now();
        let result = shard.submit_global(worker, task, bits);
        self.obs.apply.record_duration(applied_at.elapsed());
        match result {
            Ok(triggered) => {
                // Once seqs are materialized (first handoff), every applied
                // answer records its canonical global sequence number,
                // allocated under this shard's write lock.
                if shard.seqs().is_some() {
                    let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
                    shard.push_seq(seq);
                }
                self.obs.trace.record(span, "apply", Some(shard_id));
                if triggered {
                    // The delayed full EM ran inside submit_global; its
                    // duration lands in the EM histograms via the core
                    // recorder, this event ties it to the span.
                    self.obs.trace.record(span, "em", Some(shard_id));
                }
                self.metrics[shard_id].record_submit(triggered);
                // Gossip piggybacks on the drain loop: every
                // `gossip_every`-th applied answer, publish + fold while
                // still holding this shard's write lock, so the fold
                // position in the event stream is exact.
                // A delayed full EM just recorded a checkpoint at the
                // exact end of the stream; under a pruning policy this is
                // the moment the covered prefix leaves memory. Must run
                // *before* the gossip round below appends an event and
                // makes the checkpoint non-current.
                if triggered {
                    self.maybe_prune(shard_id, &mut shard);
                }
                if let Some(every) = self.gossip_every.filter(|&n| n > 0) {
                    // Cadence counts the whole stream, so pruning the
                    // resident log never shifts the gossip schedule.
                    if shard.framework().log().stream_len() % every == 0 {
                        self.gossip_round(shard_id, &mut shard, span);
                    }
                }
                Ok(triggered)
            }
            Err(e) => {
                self.metrics[shard_id].record_rejected();
                Err(e.into())
            }
        }
    }

    /// One gossip round for `shard`: publish its cumulative worker
    /// statistics to the exchange, then fold every peer's latest published
    /// delta in one batched pass (each covered worker's pooled parameters
    /// refresh once per round, not once per delta). The exchange slots are
    /// leaf locks, taken strictly after the shard lock the caller already
    /// holds. `span` ties the round into the trace when the triggering
    /// answer was traced (0 otherwise).
    pub(crate) fn gossip_round(&self, shard_id: usize, shard: &mut Shard, span: u64) {
        let started = Instant::now();
        self.publish(shard_id, shard.publish_delta());
        self.fold_round(shard_id, shard);
        self.obs.gossip_round.record_duration(started.elapsed());
        self.obs.trace.record(span, "gossip_fold", Some(shard_id));
    }

    /// The fold half of a gossip round: fold every peer's latest published
    /// delta in one batched pass (each covered worker's pooled parameters
    /// refresh once per round, not once per delta). Slots whose version
    /// the shard has already absorbed are skipped before cloning — in
    /// steady state with slow-publishing peers a round costs one version
    /// comparison per peer, not a deep copy.
    pub(crate) fn fold_round(&self, shard_id: usize, shard: &mut Shard) {
        // Clone each (new-to-us) slot out under its lock; fold outside.
        let deltas: Vec<WorkerStatDelta> = (0..self.shards.len())
            .filter(|&peer| peer != shard_id)
            .filter_map(|peer| {
                let slot = self.exchange[peer].read();
                slot.as_ref()
                    .filter(|held| {
                        shard
                            .framework()
                            .peer_stats()
                            .version_of(held.source)
                            .is_none_or(|seen| seen < held.version)
                    })
                    .cloned()
            })
            .collect();
        let folded = shard.fold_peers(&deltas);
        self.metrics[shard_id].record_gossip_round(folded);
        self.metrics[shard_id].set_events_len(shard.gossip_events().len() as u64);
    }

    /// Whether gossip is configured on (`Some(0)` spells disabled, like a
    /// `None`, on every gossip path).
    fn gossip_enabled(&self) -> bool {
        self.gossip_every.is_some_and(|n| n > 0)
    }

    /// Under a pruning retention policy, drops the answer prefix the
    /// shard's (current) checkpoint covers: spills the payloads to the
    /// shard's on-disk tier when one is configured, then updates the
    /// resident/pruned gauges. No-op (and cheap) when retention keeps
    /// everything or the checkpoint is not at the exact end of the stream.
    /// Caller holds the shard's write lock.
    pub(crate) fn maybe_prune(&self, shard_id: usize, shard: &mut Shard) {
        if !self.prune_on_checkpoint {
            return;
        }
        let Some(drained) = shard.prune_to_checkpoint() else {
            return;
        };
        let mut slot = self.spills[shard_id].lock();
        if let Some(writer) = slot.as_mut() {
            let spilled = drained
                .iter()
                .try_for_each(|&(worker, task, bits)| writer.append(worker, task, bits))
                .and_then(|()| writer.flush());
            if spilled.is_err() {
                // Best-effort archive: a failing disk must not take down
                // ingestion. The writer is dropped so the error surfaces
                // once, not per prune.
                *slot = None;
            }
        }
        drop(slot);
        self.metrics[shard_id].set_answer_tiers(shard.resident_answers(), shard.pruned_answers());
    }

    /// Stores `delta` as `shard_id`'s latest published statistics unless
    /// the slot already holds a newer version.
    pub(crate) fn publish(&self, shard_id: usize, delta: WorkerStatDelta) {
        let mut slot = self.exchange[shard_id].write();
        if slot
            .as_ref()
            .is_none_or(|held| held.version < delta.version)
        {
            *slot = Some(delta);
        }
    }

    fn apply_request(&self, home: usize, workers: &[WorkerId]) -> Result<Assignment, ServeError> {
        if workers.is_empty() {
            return Ok(Assignment::new(Vec::new()));
        }
        // Candidate order: home region first (location-aware routing), then
        // the fattest remaining budget slices. The mirror may lag by an
        // in-flight request; the shard's framework stays authoritative.
        let mut candidates: Vec<usize> = (0..self.shards.len()).collect();
        candidates.sort_by_key(|&s| (std::cmp::Reverse(self.metrics[s].budget_remaining()), s));
        if let Some(pos) = candidates.iter().position(|&s| s == home) {
            candidates.remove(pos);
            candidates.insert(0, home);
        }
        let mut saw_budget = false;
        for s in candidates {
            if self.metrics[s].budget_remaining() == 0 {
                continue;
            }
            let mut shard = self.shards[s].write();
            match shard.request(workers) {
                Ok(a) if !a.is_empty() => {
                    self.metrics[s].record_request(a.total());
                    self.metrics[s].set_budget_remaining(shard.framework().budget_remaining());
                    return Ok(a);
                }
                // Budget remains but these workers have answered everything
                // assignable here; roam to the next shard.
                Ok(_) => saw_budget = true,
                Err(CoreError::BudgetExhausted) => {
                    self.metrics[s].set_budget_remaining(0);
                }
                Err(e) => {
                    self.metrics[s].record_rejected();
                    return Err(e.into());
                }
            }
        }
        if saw_budget {
            Ok(Assignment::new(Vec::new()))
        } else {
            Err(CoreError::BudgetExhausted.into())
        }
    }

    /// Registers a new worker into every shard of this campaign and
    /// records their home shard. Serialized with handoffs by the elastic
    /// mutex, so a concurrent rebuild sees either all shards with the
    /// worker or none.
    ///
    /// Mid-campaign workers carry exactly one location: the recorded
    /// `Register` event (which snapshot restore and handoff rebuilds
    /// replay) stores a single point, so extra locations are dropped here
    /// rather than silently lost on the first restore.
    pub(crate) fn register_worker(&self, mut worker: Worker) -> Result<WorkerId, ServeError> {
        if worker.locations.is_empty() {
            let next = WorkerId(u32::try_from(self.n_workers()).unwrap_or(u32::MAX));
            return Err(CoreError::WorkerWithoutLocation(next).into());
        }
        worker.locations.truncate(1);
        let _elastic = self.elastic.lock();
        let mut id = None;
        for lock in &self.shards {
            let assigned = lock.write().register_worker(worker.clone())?;
            debug_assert!(
                id.is_none_or(|prev: WorkerId| prev == assigned),
                "shards assign registration ids in lockstep"
            );
            id = Some(assigned);
        }
        let id = id.expect("a service always has at least one shard");
        let home = self.map().shard_for_point(worker.locations[0]);
        self.worker_home.write().push(home);
        Ok(id)
    }

    /// Two-phase cell handoff: freeze (all shard write locks), drain (the
    /// locks drain the queues by construction — a queued command applies
    /// only under its shard's lock), transfer (rebuild both affected
    /// shards by replaying their post-handoff streams), publish (install
    /// the bumped map while still frozen).
    pub(crate) fn reassign_cell(
        &self,
        cell: usize,
        to: usize,
    ) -> Result<HandoffReport, ServeError> {
        let _elastic = self.elastic.lock();
        let old_map = self.map();
        let next = old_map
            .reassign_cell(cell, to)
            .map_err(ServeError::Rejected)?;
        let from = old_map.shard_of_cell(cell);
        let mut guards: Vec<_> = self.shards.iter().map(RwLock::write).collect();
        for (role, s) in [("source", from), ("target", to)] {
            let shard = &guards[s];
            let has_refs = shard
                .gossip_events()
                .iter()
                .any(|e| matches!(e.kind, GossipEventKind::FoldRef { .. }));
            if shard.pruned_answers() > 0 || has_refs {
                return Err(ServeError::Rejected(format!(
                    "shard {s} ({role}) has pruned history; a handoff needs the full resident stream"
                )));
            }
        }
        if next.tasks_of(from).is_empty() {
            return Err(ServeError::Rejected(format!(
                "handoff would leave shard {from} without tasks"
            )));
        }
        // Materialize canonical sequence numbers under the freeze: while
        // the map was static they were implied by position and shard id;
        // from here on the global counter allocates them at apply time.
        let n_shards = guards.len();
        for g in &mut guards {
            g.materialize_seqs(n_shards);
        }
        let max_seq = guards
            .iter()
            .filter_map(|g| g.seqs().and_then(|s| s.last().copied()))
            .max()
            .unwrap_or(0);
        self.next_seq.fetch_max(max_seq + 1, Ordering::AcqRel);

        // Capture both shards' full histories before the rebuild.
        let from_answers: Vec<_> = guards[from].answers_global().collect();
        let from_seqs = guards[from].seqs().expect("just materialized").to_vec();
        let to_answers: Vec<_> = guards[to].answers_global().collect();
        let to_seqs = guards[to].seqs().expect("just materialized").to_vec();
        let from_events: Vec<(usize, GossipEventKind)> = guards[from]
            .gossip_events()
            .iter()
            .map(|e| (e.position, e.kind.clone()))
            .collect();
        let to_events: Vec<(usize, GossipEventKind)> = guards[to]
            .gossip_events()
            .iter()
            .map(|e| (e.position, e.kind.clone()))
            .collect();
        let from_publishes = guards[from].publishes();
        let to_publishes = guards[to].publishes();
        let mut reservations = guards[from].reservations_global();
        reservations.extend(guards[to].reservations_global());
        let extras: Vec<Worker> = guards[from]
            .framework()
            .workers()
            .iter()
            .skip(self.base_pool.len())
            .cloned()
            .collect();
        let (from_used, from_remaining) = {
            let f = guards[from].framework();
            (f.budget_used(), f.budget_remaining())
        };
        let (to_used, to_remaining) = {
            let f = guards[to].framework();
            (f.budget_used(), f.budget_remaining())
        };

        // Partition the source's stream: answers for tasks of the moving
        // cell migrate, the rest stay. `kept_before[p]` counts surviving
        // answers among the first `p` — the event-schedule remap.
        let mut kept = Vec::new();
        let mut moved = Vec::new();
        let mut kept_before = vec![0usize];
        for (i, ans) in from_answers.into_iter().enumerate() {
            if next.shard_of_task(ans.1) == from {
                kept.push((from_seqs[i], true, ans));
            } else {
                moved.push((from_seqs[i], false, ans));
            }
            kept_before.push(kept.len());
        }
        let moved_answers = moved.len();
        let mut merged: Vec<_> = to_seqs
            .iter()
            .zip(to_answers)
            .map(|(&seq, ans)| (seq, true, ans))
            .collect();
        merged.extend(moved);
        merged.sort_by_key(|&(seq, _, _)| seq);
        let from_sched: Vec<(usize, GossipEventKind)> = from_events
            .into_iter()
            .map(|(p, k)| (kept_before[p], k))
            .collect();

        let mut new_from = self.rebuild_shard(from, next.tasks_of(from), kept, from_sched, &extras);
        let mut new_to = self.rebuild_shard(to, next.tasks_of(to), merged, to_events, &extras);
        new_from.set_publishes(from_publishes);
        new_to.set_publishes(to_publishes);

        // Budget migrates with the tasks: a share of the source's
        // *remaining* slice proportional to the tasks that left. The spent
        // part stays where it was charged, so `used ≤ slice` holds on both
        // sides and the slices still sum to the campaign budget.
        let moved_tasks = old_map.cell_tasks(cell).len();
        let from_tasks_before = old_map.tasks_of(from).len();
        let transfer = (from_remaining * moved_tasks)
            .checked_div(from_tasks_before)
            .unwrap_or(0);
        new_from
            .framework_mut()
            .set_budget(from_used + from_remaining - transfer);
        new_from.framework_mut().charge(from_used);
        new_to
            .framework_mut()
            .set_budget(to_used + to_remaining + transfer);
        new_to.framework_mut().charge(to_used);

        // In-flight reservations follow their tasks; each rebuilt shard
        // adopts the pairs it now owns, so a (worker, task) issued before
        // the handoff still cannot be re-issued after it.
        new_from.adopt_reservations_global(&reservations);
        new_to.adopt_reservations_global(&reservations);

        self.install_rebuilt(from, &mut guards[from], new_from);
        self.install_rebuilt(to, &mut guards[to], new_to);

        // Re-home every worker under the new partition, then publish the
        // map while the shards are still frozen: the moment a drain thread
        // can observe rebuilt shards, the map already routes to them.
        let homes: Vec<usize> = guards[from]
            .framework()
            .workers()
            .iter()
            .map(|w| next.shard_for_point(w.locations[0]))
            .collect();
        *self.worker_home.write() = homes;
        let map_version = next.version();
        *self.map.write() = Arc::new(next);
        Ok(HandoffReport {
            map_version,
            cell,
            from,
            to,
            moved_tasks,
            moved_answers,
            budget_moved: transfer,
        })
    }

    /// Rebuilds one shard from scratch by replaying its post-handoff
    /// stream: fresh state over the new task set, the base worker pool
    /// plus every mid-campaign registration pre-registered at position 0,
    /// then every `(seq, answer)` in canonical order with the shard's
    /// recorded out-of-stream events re-applied at their own-stream
    /// positions. The result is bit-identical to a shard that owned these
    /// tasks from the start and saw the same answer stream.
    fn rebuild_shard(
        &self,
        id: usize,
        task_ids: Vec<TaskId>,
        stream: Vec<(u64, bool, (WorkerId, TaskId, LabelBits))>,
        events: Vec<(usize, GossipEventKind)>,
        extras: &[Worker],
    ) -> Shard {
        let mut shard = Shard::new(
            id,
            &self.tasks,
            task_ids,
            self.base_pool.clone(),
            self.serve_config.framework_config(0),
            self.distances,
        );
        shard.framework_mut().set_recorder(self.recorder.clone());
        for w in extras {
            shard
                .register_worker(w.clone())
                .expect("mid-campaign workers re-register during a handoff rebuild");
        }
        let mut events = events.into_iter().peekable();
        let mut own_count = 0usize;
        let mut seqs = Vec::with_capacity(stream.len());
        for (seq, own, (worker, task, bits)) in stream {
            while events.peek().is_some_and(|&(p, _)| p <= own_count) {
                let (_, kind) = events.next().expect("peeked");
                replay_event(&mut shard, kind);
            }
            shard
                .submit_global(worker, task, bits)
                .expect("replaying an accepted answer cannot fail");
            seqs.push(seq);
            if own {
                own_count += 1;
            }
        }
        for (_, kind) in events {
            replay_event(&mut shard, kind);
        }
        let adopted = shard.adopt_seqs(seqs);
        debug_assert!(adopted, "rebuild collects one seq per replayed answer");
        shard
    }

    /// Installs a rebuilt shard and refreshes its metric gauges.
    fn install_rebuilt(&self, s: usize, slot: &mut Shard, rebuilt: Shard) {
        let (used, remaining) = {
            let f = rebuilt.framework();
            (f.budget_used(), f.budget_remaining())
        };
        self.metrics[s].set_budget_slice(used + remaining);
        self.metrics[s].set_budget_remaining(remaining);
        self.metrics[s].set_answer_tiers(rebuilt.resident_answers(), rebuilt.pruned_answers());
        self.metrics[s].set_events_len(rebuilt.gossip_events().len() as u64);
        *slot = rebuilt;
    }

    /// Picks `(cell, to)` for an automatic handoff: the hottest (or
    /// coldest) movable cell by resident answer count, handed to the
    /// least-loaded other shard. A cell is movable when its owner keeps at
    /// least one task after the move.
    fn pick_cell(&self, hottest: bool) -> Result<(usize, usize), ServeError> {
        let map = self.map();
        if map.n_shards() < 2 {
            return Err(ServeError::Rejected(
                "elastic handoff needs at least 2 shards".into(),
            ));
        }
        let mut cell_of = vec![0usize; map.n_tasks()];
        for c in 0..map.n_cells() {
            for t in map.cell_tasks(c) {
                cell_of[t.index()] = c;
            }
        }
        let mut cell_heat = vec![0usize; map.n_cells()];
        let mut shard_heat = vec![0usize; map.n_shards()];
        for (s, heat) in shard_heat.iter_mut().enumerate() {
            let shard = self.shards[s].read();
            for (_, t, _) in shard.answers_global() {
                cell_heat[cell_of[t.index()]] += 1;
                *heat += 1;
            }
        }
        let movable = (0..map.n_cells()).filter(|&c| {
            let owner = map.shard_of_cell(c);
            map.tasks_of(owner).len() > map.cell_tasks(c).len()
        });
        let cell = if hottest {
            movable.max_by_key(|&c| (cell_heat[c], std::cmp::Reverse(c)))
        } else {
            movable.min_by_key(|&c| (cell_heat[c], c))
        };
        let Some(cell) = cell else {
            return Err(ServeError::Rejected(
                "no movable cell: every owner would be left without tasks".into(),
            ));
        };
        let owner = map.shard_of_cell(cell);
        let to = (0..map.n_shards())
            .filter(|&s| s != owner)
            .min_by_key(|&s| (shard_heat[s], s))
            .expect("checked n_shards >= 2");
        Ok((cell, to))
    }

    /// Demand-driven budget rebalance: under a full freeze, re-split the
    /// campaign's unspent budget across shards proportionally to each
    /// shard's observed spend (pairs assigned) since the last rebalance.
    /// Every shard keeps what it has already spent — `used ≤ slice` never
    /// breaks, and the slices still sum to the campaign budget. Returns
    /// the new per-shard slices.
    pub(crate) fn rebalance(&self) -> Vec<usize> {
        let mut elastic = self.elastic.lock();
        let mut guards: Vec<_> = self.shards.iter().map(RwLock::write).collect();
        let n = guards.len();
        let used: Vec<usize> = guards.iter().map(|g| g.framework().budget_used()).collect();
        let spendable: usize = guards
            .iter()
            .map(|g| g.framework().budget_remaining())
            .sum();
        let assigned: Vec<u64> = (0..n).map(|s| self.metrics[s].assigned()).collect();
        // +1 keeps every shard fundable: a region quiet in this window
        // still gets a sliver, so a worker showing up there is servable.
        let weights: Vec<u64> = (0..n)
            .map(|s| assigned[s].saturating_sub(elastic.last_assigned[s]) + 1)
            .collect();
        let shares = largest_remainder(spendable, &weights);
        let mut slices = Vec::with_capacity(n);
        for s in 0..n {
            let slice = used[s] + shares[s];
            guards[s].framework_mut().set_budget(slice);
            self.metrics[s].set_budget_slice(slice);
            self.metrics[s].set_budget_remaining(shares[s]);
            slices.push(slice);
        }
        elastic.last_assigned = assigned;
        slices
    }

    /// Hardens every shard: with gossip enabled a final publish/fold
    /// exchange first, then one full-sweep EM per shard, pruning each
    /// checkpoint-covered prefix under a pruning retention policy.
    pub(crate) fn harden_all(&self) {
        if self.gossip_enabled() {
            // Everyone publishes first, so every fold below sees every
            // peer's final statistics.
            for (s, lock) in self.shards.iter().enumerate() {
                let delta = lock.write().publish_delta();
                self.publish(s, delta);
            }
            for (s, lock) in self.shards.iter().enumerate() {
                self.fold_round(s, &mut lock.write());
            }
        }
        for (s, lock) in self.shards.iter().enumerate() {
            let mut shard = lock.write();
            shard.harden();
            // The sweep checkpointed the whole stream; under a pruning
            // policy the covered prefix leaves memory here, in the same
            // critical section, before any new answer can extend the log.
            self.maybe_prune(s, &mut shard);
            self.metrics[s].set_events_len(shard.gossip_events().len() as u64);
        }
    }

    /// [`Inner::harden_all`] under a pruning policy, reporting how many
    /// answers this call pruned; `None` when retention keeps everything.
    pub(crate) fn prune_all(&self) -> Option<usize> {
        if !self.prune_on_checkpoint {
            return None;
        }
        let before: usize = self.shards.iter().map(|s| s.read().pruned_answers()).sum();
        self.harden_all();
        let after: usize = self.shards.iter().map(|s| s.read().pruned_answers()).sum();
        Some(after - before)
    }

    /// Replaces every (still-empty) shard with fresh state partitioned by
    /// `map`, with explicit budget slices, and publishes `map` as the
    /// current version. Restore uses this to resume a snapshot taken
    /// mid-elasticity before replaying its answers.
    pub(crate) fn adopt_map(&self, map: ShardMap, slices: &[usize]) {
        let _elastic = self.elastic.lock();
        let mut guards: Vec<_> = self.shards.iter().map(RwLock::write).collect();
        for (s, guard) in guards.iter_mut().enumerate() {
            debug_assert_eq!(
                guard.framework().log().stream_len(),
                0,
                "adopt_map expects untouched shards"
            );
            let mut shard = Shard::new(
                s,
                &self.tasks,
                map.tasks_of(s),
                self.base_pool.clone(),
                self.serve_config.framework_config(slices[s]),
                self.distances,
            );
            shard.framework_mut().set_recorder(self.recorder.clone());
            **guard = shard;
            self.metrics[s].set_budget_slice(slices[s]);
            self.metrics[s].set_budget_remaining(slices[s]);
        }
        let homes: Vec<usize> = self
            .base_pool
            .iter()
            .map(|w| map.shard_for_point(w.locations[0]))
            .collect();
        *self.worker_home.write() = homes;
        *self.map.write() = Arc::new(map);
    }
}

/// Re-applies one recorded out-of-stream event during a handoff rebuild.
fn replay_event(shard: &mut Shard, kind: GossipEventKind) {
    match kind {
        GossipEventKind::Fold(delta) => {
            let _ = shard.fold_peer(&delta);
        }
        GossipEventKind::FullSweep => shard.harden(),
        // Mid-campaign workers are pre-registered at position 0 of every
        // rebuild; the recorded event's effect is already in the pool.
        GossipEventKind::Register { .. } => {}
        GossipEventKind::FoldRef { .. } => {
            unreachable!("handoff refuses shards with pruned history")
        }
    }
}

/// Largest-remainder apportionment of `total` across `weights`.
fn largest_remainder(total: usize, weights: &[u64]) -> Vec<usize> {
    let sum: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    if sum == 0 {
        return vec![0; weights.len()];
    }
    let mut shares = Vec::with_capacity(weights.len());
    let mut remainders = Vec::with_capacity(weights.len());
    for (i, &w) in weights.iter().enumerate() {
        let exact = u128::from(w) * total as u128;
        shares.push(usize::try_from(exact / sum).expect("a share is at most `total`"));
        remainders.push((exact % sum, i));
    }
    let mut deficit = total - shares.iter().sum::<usize>();
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in &remainders {
        if deficit == 0 {
            break;
        }
        shares[i] += 1;
        deficit -= 1;
    }
    shares
}

/// One pool slot's drain thread: pops routed commands off its shared
/// queue in batches, resolves each command's campaign, and applies it. A
/// command whose campaign has been closed is dropped — its reply sender
/// (if any) closes and the caller observes [`ServeError::Closed`].
fn pool_drain_loop(pool: &PoolInner, rx: &Receiver<Routed>, drain_batch: usize) {
    let mut batch: Vec<Routed> = Vec::with_capacity(drain_batch.max(1));
    loop {
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(cmd) => batch.push(cmd),
            Err(RecvTimeoutError::Timeout) => {
                if !pool.open.load(Ordering::Acquire) && rx.is_empty() {
                    return;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
        while batch.len() < drain_batch.max(1) {
            match rx.try_recv() {
                Ok(cmd) => batch.push(cmd),
                Err(_) => break,
            }
        }
        for routed in batch.drain(..) {
            let campaign = pool
                .campaigns
                .read()
                .get(routed.campaign as usize)
                .and_then(Clone::clone);
            if let Some(inner) = campaign {
                inner.apply(routed);
            }
        }
    }
}

/// The campaign's self-scheduled maintenance thread: appends queue-depth
/// and event-log-length gauge points every `obs_period`, and runs a
/// retention prune every `prune_period` ([`ServeConfig::prune_every`]).
/// Gauge sampling reads only lock-free counters; the prune takes shard
/// write locks like any admin call. Polls in 25 ms naps so shutdown never
/// waits a full period.
fn sampler_loop(inner: &Inner, obs_period: Option<Duration>, prune_period: Option<Duration>) {
    let mut next_obs = obs_period.map(|_| Instant::now());
    let mut next_prune = prune_period.map(|p| Instant::now() + p);
    while inner.open.load(Ordering::Acquire) {
        let now = Instant::now();
        if let (Some(period), Some(due)) = (obs_period, next_obs) {
            if now >= due {
                inner
                    .obs
                    .queue_depth_series
                    .record(inner.pool.queued_total() as u64);
                let events: u64 = inner.metrics.iter().map(ShardMetrics::events_len).sum();
                inner.obs.events_len_series.record(events);
                next_obs = Some(now + period);
            }
        }
        if let (Some(period), Some(due)) = (prune_period, next_prune) {
            if now >= due {
                let _ = inner.prune_all();
                next_prune = Some(Instant::now() + period);
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Shared state of one shard pool: the slot queues, their drain threads,
/// and the campaign registry the drains resolve routing keys against.
pub(crate) struct PoolInner {
    /// One bounded queue per pool slot; campaign shard `s` routes to slot
    /// `s % n_slots`.
    queues: Vec<Sender<Routed>>,
    /// Campaign id → shared state; `None` marks a closed (or reusable)
    /// slot.
    campaigns: RwLock<Vec<Option<Arc<Inner>>>>,
    /// Campaigns currently attached; the pool closes when the last one
    /// shuts down.
    active: AtomicUsize,
    /// Cleared when the last campaign detaches; drains exit once their
    /// queues are empty.
    open: AtomicBool,
    /// The slot drain threads, joined by whichever campaign closes last.
    drains: Mutex<Vec<JoinHandle<()>>>,
}

impl PoolInner {
    /// Commands currently waiting across all slot queues (all campaigns).
    fn queued_total(&self) -> usize {
        self.queues.iter().map(Sender::len).sum()
    }
}

/// A pool of ingestion slots (queues + drain threads) that any number of
/// concurrent campaigns multiplex over.
///
/// [`LabellingService::start`] creates a single-campaign pool internally;
/// to run several campaigns over one set of drain threads, create the pool
/// explicitly and [`CampaignPool::attach`] each campaign:
///
/// ```no_run
/// # use crowd_core::prelude::*;
/// # use crowd_serve::{CampaignPool, ServeConfig};
/// # let (tasks_a, tasks_b): (TaskSet, TaskSet) = unimplemented!();
/// # let workers = WorkerPool::new();
/// let pool = CampaignPool::new(4, 1024, 64);
/// let campaign_a = pool.attach(&tasks_a, &workers, ServeConfig::default());
/// let campaign_b = pool.attach(&tasks_b, &workers, ServeConfig::default());
/// ```
///
/// Each campaign keeps its own shards, budget, metrics, map and snapshot;
/// only the queues and drain threads are shared. The pool closes when its
/// last attached campaign shuts down (attaching to a closed pool panics),
/// so attach every campaign before shutting the first one down, or keep
/// one alive. Campaigns under a pruning retention policy should use
/// distinct `spill_dir`s — spill files are named by shard id only.
#[derive(Clone)]
pub struct CampaignPool {
    pool: Arc<PoolInner>,
}

impl std::fmt::Debug for CampaignPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignPool")
            .field("n_slots", &self.pool.queues.len())
            .field("active", &self.pool.active.load(Ordering::Acquire))
            .finish_non_exhaustive()
    }
}

impl CampaignPool {
    /// Creates a pool with `n_slots` drain threads (at least one), a total
    /// ingestion capacity of `queue_capacity` split across the slots, and
    /// the given per-wakeup drain batch size.
    #[must_use]
    pub fn new(n_slots: usize, queue_capacity: usize, drain_batch: usize) -> Self {
        let n_slots = n_slots.max(1);
        let per_slot = (queue_capacity / n_slots).max(1);
        let mut queues = Vec::with_capacity(n_slots);
        let mut receivers = Vec::with_capacity(n_slots);
        for _ in 0..n_slots {
            let (tx, rx) = channel::bounded(per_slot);
            queues.push(tx);
            receivers.push(rx);
        }
        let pool = Arc::new(PoolInner {
            queues,
            campaigns: RwLock::new(Vec::new()),
            active: AtomicUsize::new(0),
            open: AtomicBool::new(true),
            drains: Mutex::new(Vec::new()),
        });
        let drains: Vec<JoinHandle<()>> = receivers
            .into_iter()
            .enumerate()
            .map(|(s, rx)| {
                let pool = Arc::clone(&pool);
                std::thread::Builder::new()
                    .name(format!("crowd-serve-slot-{s}"))
                    .spawn(move || pool_drain_loop(&pool, &rx, drain_batch))
                    .expect("spawn pool drain thread")
            })
            .collect();
        *pool.drains.lock() = drains;
        Self { pool }
    }

    /// Number of slot queues / drain threads.
    #[must_use]
    pub fn n_slots(&self) -> usize {
        self.pool.queues.len()
    }

    /// Whether the pool still accepts campaigns (false once the last
    /// attached campaign has shut down).
    #[must_use]
    pub fn is_open(&self) -> bool {
        self.pool.open.load(Ordering::Acquire)
    }

    /// Commands currently waiting across all slot queues (all campaigns).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.pool.queued_total()
    }

    /// Ids of the currently attached campaigns, in id order.
    #[must_use]
    pub fn campaign_ids(&self) -> Vec<u32> {
        self.pool
            .campaigns
            .read()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_some())
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Attaches a new campaign over `tasks` and `workers` to this pool and
    /// returns its service. The campaign id (visible via
    /// [`LabellingService::campaign_id`]) is the routing key its handles
    /// stamp on every command; closed campaigns' ids are reused.
    ///
    /// The requested shard count is clamped to the task count; the clamped
    /// value is what [`LabellingService::config`] reports afterwards.
    ///
    /// # Panics
    /// Panics if `tasks` is empty or the pool is closed (its last campaign
    /// already shut down).
    #[must_use]
    pub fn attach(
        &self,
        tasks: &TaskSet,
        workers: &WorkerPool,
        mut config: ServeConfig,
    ) -> LabellingService {
        assert!(
            self.pool.open.load(Ordering::Acquire),
            "campaign pool is closed"
        );
        let map = ShardMap::build(tasks, config.n_shards);
        config.n_shards = map.n_shards();
        // Legacy knob: report the campaign's parallelism deterministically
        // (snapshots round-trip it), even though drains belong to the pool.
        config.ingest_threads = map.n_shards();
        // Every shard measures d(w, t) on the campaign-global scale.
        let distances = Distances::from_tasks(tasks);
        let slices = map.budget_slices(config.budget);
        let shards: Vec<RwLock<Shard>> = (0..map.n_shards())
            .map(|s| {
                RwLock::new(Shard::new(
                    s,
                    tasks,
                    map.tasks_of(s),
                    workers.clone(),
                    config.framework_config(slices[s]),
                    distances,
                ))
            })
            .collect();
        let metrics: Vec<ShardMetrics> = slices
            .iter()
            .map(|&b| ShardMetrics::with_budget(b))
            .collect();
        // Every shard's model sweeps with the same capped thread count;
        // seed the gauge once so /metrics reports it before the first
        // rebuild fires.
        let em_threads = config.policy.parallelism.sweep_threads() as u64;
        for m in &metrics {
            m.set_em_threads(em_threads);
        }
        let worker_home: Vec<usize> = workers
            .iter()
            .map(|w| map.shard_for_point(w.locations[0]))
            .collect();
        let exchange = (0..map.n_shards()).map(|_| RwLock::new(None)).collect();
        // The on-disk answer tier: one append-mode spill writer per shard
        // when pruning is configured with a directory. Best-effort — a
        // writer that cannot open starts disabled instead of failing the
        // service.
        let spill_dir = match &config.retention {
            RetentionPolicy::PruneCheckpointed { spill_dir } => spill_dir.clone(),
            RetentionPolicy::KeepAll => None,
        };
        let spills = (0..map.n_shards())
            .map(|s| {
                Mutex::new(
                    spill_dir
                        .as_ref()
                        .and_then(|dir| SpillWriter::open(std::path::Path::new(dir), s).ok()),
                )
            })
            .collect();
        // Wire the core recorder before any answer flows: EM rebuilds and
        // assignment rounds inside the shards land in this service's hub.
        let obs = Arc::new(ObsHub::new());
        let recorder = RecorderHandle::new(Arc::new(CoreRecorder::new(Arc::clone(&obs))));
        for lock in &shards {
            lock.write().framework_mut().set_recorder(recorder.clone());
        }
        let n_shards = map.n_shards();
        let prune_on_checkpoint =
            matches!(config.retention, RetentionPolicy::PruneCheckpointed { .. });
        // The registry write lock spans slot choice and insertion, so two
        // racing attaches cannot claim the same campaign id.
        let mut campaigns = self.pool.campaigns.write();
        let slot = campaigns
            .iter()
            .position(Option::is_none)
            .unwrap_or(campaigns.len());
        let inner = Arc::new(Inner {
            campaign: u32::try_from(slot).expect("campaign ids fit in u32"),
            pool: Arc::clone(&self.pool),
            shards,
            map: RwLock::new(Arc::new(map)),
            metrics,
            exchange,
            gossip_every: config.gossip_every,
            prune_on_checkpoint,
            spills,
            serve_config: config.clone(),
            tasks: tasks.clone(),
            distances,
            base_pool: workers.clone(),
            worker_home: RwLock::new(worker_home),
            elastic: Mutex::new(ElasticState {
                last_assigned: vec![0; n_shards],
            }),
            next_seq: AtomicU64::new(0),
            rerouted: AtomicU64::new(0),
            recorder,
            enqueued: AtomicU64::new(0),
            processed: AtomicU64::new(0),
            snapshot_bytes: AtomicU64::new(0),
            obs,
            open: AtomicBool::new(true),
            detached: AtomicBool::new(false),
            started: Instant::now(),
        });
        if slot == campaigns.len() {
            campaigns.push(Some(Arc::clone(&inner)));
        } else {
            campaigns[slot] = Some(Arc::clone(&inner));
        }
        self.pool.active.fetch_add(1, Ordering::AcqRel);
        drop(campaigns);
        let obs_period =
            (config.obs_sample_ms > 0).then(|| Duration::from_millis(config.obs_sample_ms));
        let prune_period = config
            .prune_every
            .filter(|&ms| ms > 0 && prune_on_checkpoint)
            .map(Duration::from_millis);
        let sampler = (obs_period.is_some() || prune_period.is_some()).then(|| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("crowd-obs-sampler".to_owned())
                .spawn(move || sampler_loop(&inner, obs_period, prune_period))
                .expect("spawn obs sampler thread")
        });
        LabellingService {
            inner,
            config,
            sampler,
        }
    }
}

/// A sharded, concurrent labelling campaign service.
///
/// Construction spawns the drain threads; [`LabellingService::handle`]
/// hands out cloneable producer endpoints. Producers stop, then
/// [`LabellingService::quiesce`] flushes the queue, and
/// [`LabellingService::shutdown`] joins the drain threads. Dropping the
/// service without a shutdown also stops the threads (they notice the
/// closed flag within one poll interval).
pub struct LabellingService {
    pub(crate) inner: Arc<Inner>,
    pub(crate) config: ServeConfig,
    sampler: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for LabellingService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LabellingService")
            .field("n_shards", &self.inner.shards.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl LabellingService {
    /// Starts a service over `tasks` and `workers`.
    ///
    /// The requested shard count is clamped to the task count; the clamped
    /// value is what [`LabellingService::config`] reports afterwards.
    ///
    /// # Panics
    /// Panics if `tasks` is empty.
    #[must_use]
    pub fn start(tasks: &TaskSet, workers: &WorkerPool, config: ServeConfig) -> Self {
        let n_slots = config.n_shards.clamp(1, tasks.len().max(1));
        let pool = CampaignPool::new(n_slots, config.queue_capacity, config.drain_batch);
        pool.attach(tasks, workers, config)
    }

    /// The effective configuration (shard count clamped, thread count
    /// normalised).
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Number of shards.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// A cloneable producer endpoint.
    #[must_use]
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Blocks until every command accepted for this campaign has been
    /// applied. Producers must have stopped sending first, otherwise this
    /// chases a moving target.
    pub fn quiesce(&self) {
        loop {
            let enqueued = self.inner.enqueued.load(Ordering::Acquire);
            let processed = self.inner.processed.load(Ordering::Acquire);
            if processed >= enqueued {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Detaches this campaign from its pool: refuses new commands, clears
    /// its registry slot, and — when it was the pool's last campaign —
    /// closes the pool itself. Returns whether this call closed the pool.
    /// Idempotent: only the first of shutdown/drop acts.
    fn close(&self) -> bool {
        if self.inner.detached.swap(true, Ordering::AcqRel) {
            return false;
        }
        self.inner.open.store(false, Ordering::Release);
        let campaign = self.inner.campaign as usize;
        self.inner.pool.campaigns.write()[campaign] = None;
        if self.inner.pool.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.inner.pool.open.store(false, Ordering::Release);
            return true;
        }
        false
    }

    /// Flushes this campaign's accepted commands, closes it to new ones
    /// and, when it is the pool's last campaign, joins the pool's drain
    /// threads. Call after producers have stopped.
    pub fn shutdown(mut self) {
        self.quiesce();
        let closed_pool = self.close();
        if let Some(sampler) = self.sampler.take() {
            let _ = sampler.join();
        }
        if closed_pool {
            let drains: Vec<JoinHandle<()>> = self.inner.pool.drains.lock().drain(..).collect();
            for handle in drains {
                let _ = handle.join();
            }
        }
    }

    /// Point-in-time service metrics. Per-shard queue depth reads the
    /// *pool slot* the shard routes through, which other campaigns (and
    /// other shards mapping to the same slot) share.
    #[must_use]
    pub fn metrics(&self) -> ServiceMetrics {
        let n_slots = self.inner.pool.queues.len();
        let shards: Vec<_> = self
            .inner
            .metrics
            .iter()
            .enumerate()
            .map(|(s, m)| m.snapshot(s, self.inner.pool.queues[s % n_slots].len()))
            .collect();
        // Summing the per-shard snapshots keeps the service total
        // consistent with them within this one snapshot.
        let queue_depth = shards.iter().map(|s| s.queue_depth).sum();
        ServiceMetrics {
            shards,
            queue_depth,
            enqueued: self.inner.enqueued.load(Ordering::Acquire),
            processed: self.inner.processed.load(Ordering::Acquire),
            rerouted: self.inner.rerouted.load(Ordering::Relaxed),
            map_version: self.inner.map().version(),
            snapshot_bytes: self.inner.snapshot_bytes.load(Ordering::Relaxed),
            uptime: self.inner.started.elapsed(),
        }
    }

    /// Hardened label decisions for every task, indexed by global task id.
    /// Taken under shard read locks; call [`LabellingService::quiesce`]
    /// first for a consistent end-of-campaign view.
    #[must_use]
    pub fn decisions(&self) -> Vec<LabelBits> {
        let mut out = vec![LabelBits::zeros(0); self.inner.map().n_tasks()];
        for lock in &self.inner.shards {
            lock.read().decisions_into(&mut out);
        }
        out
    }

    /// Total budget charged across all shards (authoritative, under read
    /// locks).
    #[must_use]
    pub fn budget_used(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.read().framework().budget_used())
            .sum()
    }

    /// Total answers accepted across all shards over the campaign's whole
    /// stream — pruned answers count; this is not the resident total.
    #[must_use]
    pub fn answers_total(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.read().framework().log().stream_len())
            .sum()
    }

    /// Answers currently held in memory across all shards (the retained
    /// stream suffixes; equals [`LabellingService::answers_total`] until a
    /// retention prune runs).
    #[must_use]
    pub fn answers_resident(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.read().resident_answers())
            .sum()
    }

    /// Runs one full batch EM on every shard (end-of-campaign hardening,
    /// the moral equivalent of [`crowd_core::Framework::force_full_em`]).
    ///
    /// With gossip enabled, a final exchange cycle runs first — every
    /// shard publishes, then every shard folds — so the hardening sweep
    /// estimates worker quality from the complete pooled statistics. Both
    /// the folds and the sweeps are recorded in the shards' event streams,
    /// so a snapshot taken afterwards still restores bit-identically.
    /// Call after [`LabellingService::quiesce`] for a stable result.
    pub fn force_full_em(&self) {
        self.inner.harden_all();
    }

    /// Runs an explicit retention prune: hardens every shard (a final
    /// gossip exchange first, when enabled, exactly like
    /// [`LabellingService::force_full_em`]) and drops each shard's
    /// checkpoint-covered prefix from memory in the same critical section.
    /// Returns the total answers pruned by *this* call, or `None` when the
    /// configured retention policy is [`RetentionPolicy::KeepAll`] (the
    /// admin surface maps that to 409). Call after producers have paused
    /// (or accept that a racing submit keeps its shard unpruned this
    /// round).
    pub fn prune(&self) -> Option<usize> {
        self.inner.prune_all()
    }

    /// Read access to a shard (diagnostics and tests).
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn shard(&self, shard: usize) -> parking_lot::RwLockReadGuard<'_, Shard> {
        self.inner.shards[shard].read()
    }

    /// This service's observability hub: latency histograms, the request
    /// trace ring, and the self-sampled gauge series. Process-local —
    /// snapshots never carry it, and a restored service starts fresh.
    #[must_use]
    pub fn obs(&self) -> &Arc<ObsHub> {
        &self.inner.obs
    }

    /// The current shard map (a consistent point-in-time snapshot; a
    /// handoff publishes a successor rather than mutating it).
    #[must_use]
    pub fn map(&self) -> Arc<ShardMap> {
        self.inner.map()
    }

    /// Workers currently registered (base pool plus mid-campaign
    /// registrations).
    #[must_use]
    pub fn n_workers(&self) -> usize {
        self.inner.n_workers()
    }

    /// The display name of a registered worker, if the id is known.
    #[must_use]
    pub fn worker_name(&self, id: WorkerId) -> Option<String> {
        self.inner.shards[0]
            .read()
            .framework()
            .workers()
            .get(id)
            .map(|w| w.name.clone())
    }

    /// This campaign's id inside its [`CampaignPool`].
    #[must_use]
    pub fn campaign_id(&self) -> u32 {
        self.inner.campaign
    }

    /// The pool this campaign is multiplexed onto (attach more campaigns
    /// through it).
    #[must_use]
    pub fn pool(&self) -> CampaignPool {
        CampaignPool {
            pool: Arc::clone(&self.inner.pool),
        }
    }

    /// Registers a worker mid-campaign into every shard and returns the
    /// assigned id. The registration is recorded in each shard's event
    /// stream, so snapshots taken afterwards restore the grown pool.
    ///
    /// # Errors
    /// [`CoreError::WorkerWithoutLocation`] when the worker has no
    /// location (the model cannot compute `d(w, t)` without one).
    pub fn register_worker(&self, worker: Worker) -> Result<WorkerId, ServeError> {
        self.inner.register_worker(worker)
    }

    /// Moves one grid cell (and its tasks, answer-log segments,
    /// reservations and a proportional budget share) from its owning shard
    /// to `to` under a two-phase handoff, publishing a new map version.
    ///
    /// # Errors
    /// [`ServeError::Rejected`] when the move is invalid (cell out of
    /// range, `to` already owns it, the source would be left without
    /// tasks) or when either affected shard has pruned history.
    pub fn reassign_cell(&self, cell: usize, to: usize) -> Result<HandoffReport, ServeError> {
        self.inner.reassign_cell(cell, to)
    }

    /// Splits load: hands the hottest movable cell (most resident
    /// answers) to the least-loaded other shard.
    ///
    /// # Errors
    /// [`ServeError::Rejected`] when no cell is movable or the service has
    /// a single shard; otherwise as [`LabellingService::reassign_cell`].
    pub fn split_hot(&self) -> Result<HandoffReport, ServeError> {
        let (cell, to) = self.inner.pick_cell(true)?;
        self.inner.reassign_cell(cell, to)
    }

    /// Consolidates load: hands the coldest movable cell to the
    /// least-loaded other shard.
    ///
    /// # Errors
    /// As [`LabellingService::split_hot`].
    pub fn merge_cold(&self) -> Result<HandoffReport, ServeError> {
        let (cell, to) = self.inner.pick_cell(false)?;
        self.inner.reassign_cell(cell, to)
    }

    /// Rebalances the campaign's unspent budget across shards by observed
    /// per-shard spend rate since the last rebalance (see
    /// [`crowd_core::Framework::charge`] / `set_budget` — this drives
    /// those hooks). Returns the new per-shard slices.
    pub fn rebalance_budget(&self) -> Vec<usize> {
        self.inner.rebalance()
    }
}

impl Drop for LabellingService {
    fn drop(&mut self) {
        // Detach without joining: pool drains (if this was the last
        // campaign) exit on their next poll.
        let _ = self.close();
    }
}

/// A cloneable producer endpoint for a [`LabellingService`].
///
/// The handle *is* the router: it resolves the owning shard of every
/// command against the *current* shard map version and enqueues onto that
/// shard's pool slot, stamping the command with the map version it was
/// routed under. A handoff racing the enqueue is benign: the drain side
/// re-checks ownership under the shard lock and re-resolves against the
/// newer map when the task has moved (counted in
/// [`ServiceMetrics::rerouted`](crate::ServiceMetrics)).
#[derive(Clone)]
pub struct ServiceHandle {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ServiceHandle { .. }")
    }
}

impl ServiceHandle {
    fn enqueue(&self, shard: usize, epoch: u64, span: u64, cmd: Command) -> Result<(), ServeError> {
        if !self.inner.open.load(Ordering::Acquire) {
            return Err(ServeError::Closed);
        }
        // Recorded *before* the send: once the command is in the queue the
        // drain thread races this caller, and the span's "drain" event
        // must sort after its "enqueue" event.
        self.inner.obs.trace.record(span, "enqueue", Some(shard));
        let slot = shard % self.inner.pool.queues.len();
        // Counted *before* the send so `quiesce` never observes
        // `processed` overtaking `enqueued` mid-handoff of the count.
        self.inner.enqueued.fetch_add(1, Ordering::AcqRel);
        let routed = Routed {
            campaign: self.inner.campaign,
            shard: shard as u32,
            epoch,
            cmd,
        };
        if self.inner.pool.queues[slot].send(routed).is_err() {
            self.inner.enqueued.fetch_sub(1, Ordering::AcqRel);
            return Err(ServeError::Closed);
        }
        self.inner.metrics[shard].note_queue_depth(self.inner.pool.queues[slot].len());
        Ok(())
    }

    /// Enqueues an answer on its owning shard's queue without waiting for
    /// it to be applied. Blocks only when *that shard's* queue is full
    /// (per-shard backpressure).
    ///
    /// A request → fire-and-forget answer → request loop for the same
    /// workers is safe: every issued pair stays *reserved* on its shard
    /// until the answer is applied, so a follow-up request racing a
    /// still-queued submit skips the in-flight pair instead of re-issuing
    /// it (see [`crowd_core::ReservationSet`]).
    ///
    /// # Errors
    /// [`ServeError::Closed`] when the service is shut down, or
    /// [`CoreError::UnknownTask`] when no shard owns the task (the router
    /// rejects it before it reaches a queue). Other validation failures
    /// (duplicate answers, foreign worker ids) surface in the shard
    /// metrics, not here — use [`ServiceHandle::submit_wait`] to observe
    /// them.
    pub fn submit(
        &self,
        worker: WorkerId,
        task: TaskId,
        bits: LabelBits,
    ) -> Result<(), ServeError> {
        self.submit_traced(worker, task, bits, 0)
    }

    /// [`ServiceHandle::submit`] with an explicit trace span: the
    /// "enqueue", "drain", "apply" (and, when triggered, "em" /
    /// "gossip_fold") events the command produces all carry `span`, so a
    /// reader of the trace ring can follow this one answer across
    /// threads. Span 0 means untraced — no events are recorded.
    ///
    /// # Errors
    /// As [`ServiceHandle::submit`].
    pub fn submit_traced(
        &self,
        worker: WorkerId,
        task: TaskId,
        bits: LabelBits,
        span: u64,
    ) -> Result<(), ServeError> {
        let map = self.inner.map();
        let Some(shard) = map.shard_of_task_checked(task) else {
            return Err(CoreError::UnknownTask(task).into());
        };
        self.enqueue(
            shard,
            map.version(),
            span,
            Command::Submit {
                worker,
                task,
                bits,
                reply: None,
                span,
                queued_at: Instant::now(),
            },
        )
    }

    /// Enqueues an answer and blocks until it is applied, returning whether
    /// it triggered a delayed full EM.
    ///
    /// # Errors
    /// [`ServeError::Closed`] when the service is shut down, or the
    /// underlying [`CoreError`] when the router or the shard rejects the
    /// answer.
    pub fn submit_wait(
        &self,
        worker: WorkerId,
        task: TaskId,
        bits: LabelBits,
    ) -> Result<bool, ServeError> {
        let map = self.inner.map();
        let Some(shard) = map.shard_of_task_checked(task) else {
            return Err(CoreError::UnknownTask(task).into());
        };
        let (reply_tx, reply_rx) = channel::bounded(1);
        self.enqueue(
            shard,
            map.version(),
            0,
            Command::Submit {
                worker,
                task,
                bits,
                reply: Some(reply_tx),
                span: 0,
                queued_at: Instant::now(),
            },
        )?;
        reply_rx.recv().map_err(|_| ServeError::Closed)?
    }

    /// Requests tasks for a batch of workers and blocks for the
    /// assignment. The command queues on the workers' home shard; its
    /// drain thread serves locally first and roams to other shards when
    /// the home region has nothing assignable. Task ids in the result are
    /// global. An empty assignment means budget remains but nothing is
    /// currently assignable to these workers.
    ///
    /// # Errors
    /// [`ServeError::Closed`] when the service is shut down,
    /// [`CoreError::BudgetExhausted`] when every shard's slice is spent, or
    /// [`CoreError::UnknownWorker`] for unregistered ids.
    pub fn request_tasks(&self, workers: &[WorkerId]) -> Result<Assignment, ServeError> {
        self.request_tasks_traced(workers, 0)
    }

    /// [`ServiceHandle::request_tasks`] with an explicit trace span (see
    /// [`ServiceHandle::submit_traced`]; span 0 means untraced).
    ///
    /// # Errors
    /// As [`ServiceHandle::request_tasks`].
    pub fn request_tasks_traced(
        &self,
        workers: &[WorkerId],
        span: u64,
    ) -> Result<Assignment, ServeError> {
        let Some(&first) = workers.first() else {
            return Ok(Assignment::new(Vec::new()));
        };
        let Some(home) = self.inner.worker_home.read().get(first.index()).copied() else {
            return Err(CoreError::UnknownWorker(first).into());
        };
        let epoch = self.inner.map().version();
        let (reply_tx, reply_rx) = channel::bounded(1);
        self.enqueue(
            home,
            epoch,
            span,
            Command::Request {
                workers: workers.to_vec(),
                reply: reply_tx,
                span,
                queued_at: Instant::now(),
            },
        )?;
        reply_rx.recv().map_err(|_| ServeError::Closed)?
    }

    /// Registers a worker mid-campaign (see
    /// [`LabellingService::register_worker`] — this is the same operation,
    /// reachable from a handle so the HTTP front-end can thread
    /// `POST /workers/register` through to every shard's
    /// [`crowd_core::Framework::register_worker`]).
    ///
    /// # Errors
    /// [`ServeError::Closed`] when the service is shut down, or the
    /// underlying [`CoreError`] when the worker is invalid.
    pub fn register_worker(&self, worker: Worker) -> Result<WorkerId, ServeError> {
        if !self.inner.open.load(Ordering::Acquire) {
            return Err(ServeError::Closed);
        }
        self.inner.register_worker(worker)
    }

    /// Commands currently waiting across the pool's ingestion queues
    /// (shared with any other campaigns on the same pool).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.inner.pool.queued_total()
    }
}
