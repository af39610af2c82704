//! Online parameter maintenance (Section III-D of the paper): an
//! incremental EM step per submitted answer, with a *delayed* rebuild every
//! `N` submissions.
//!
//! The rebuild itself comes in two flavours:
//!
//! * a **full sweep** — batch EM over the whole log on the geometry-cached
//!   fast path ([`EmRun`]),
//!   bit-identical to the
//!   naive reference when no peer statistics have been folded in — for
//!   *every* [`UpdatePolicy::parallelism`] setting;
//! * a **dirty-set sweep** — batch EM that warm-starts from the current
//!   parameters and re-sweeps only the answers whose task or worker was
//!   touched since the last converged run. Clean answers keep their cached
//!   posterior contributions (Neal & Hinton's partial E-step), so the cost
//!   scales with the *churn*, not the log.
//!
//! [`UpdatePolicy::full_sweep_every`] schedules a guaranteed full sweep
//! every `K`-th rebuild, which both bounds the staleness of the frozen
//! contributions and resets any floating-point drift from the dirty path's
//! subtract/re-add bookkeeping. `K ≤ 1` is the exact-equivalence escape
//! hatch: every rebuild is a full sweep and the estimator reproduces the
//! naive path bit for bit.
//!
//! In a sharded deployment the estimator additionally pools worker-side
//! sufficient statistics gossiped by peer instances
//! ([`OnlineModel::fold_peer_stats`], see [`crate::model::gossip`]): every
//! worker M-step divides the *pooled* accumulators by the *pooled* bit
//! count, so `P(i_w)` / `P(d_w)` converge on what a single instance holding
//! the union of the answers would estimate.

use crate::model::em::{
    EmConfig, EmParallelism, EmReport, EmRun, SufficientStats, TaskStats, WorkerStats,
};
use crate::model::geometry::AnswerGeometry;
use crate::model::gossip::{PeerStats, WorkerStatDelta};
use crate::model::params::{TaskParams, WorkerParams};
use crate::model::sweep::{
    self, Llh, Meet, Params, Scratch, Side, StatContribs, Step, TaskSide, WorkerSide,
};
use crate::model::{InitStrategy, ModelParams};
use crate::obs::RecorderHandle;
use crate::{Answer, AnswerLog, TaskId, TaskSet, WorkerId};

/// When and how to re-run the delayed batch EM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct UpdatePolicy {
    /// Run a delayed batch EM after this many incremental absorptions.
    /// `None` disables the periodic rebuild (pure incremental mode). The
    /// paper suggests "run the complete EM algorithm only if there are 100
    /// submissions".
    pub full_em_every: Option<usize>,
    /// Every `K`-th delayed rebuild sweeps the full log; the runs in
    /// between are dirty-set sweeps that only re-visit answers touching
    /// tasks/workers dirtied since the last run. `K ≤ 1` makes *every*
    /// rebuild a full sweep — the exact-equivalence escape hatch used by
    /// the property tests. A dirty sweep also falls back to a full sweep
    /// on its own when the dirty set covers most of the log (see
    /// [`UpdatePolicy::dirty_coverage_fallback`]).
    pub full_sweep_every: usize,
    /// When the dirty answers cover **strictly more** than this percentage
    /// of the log, a dirty sweep falls back to a full sweep: the
    /// subtract/re-add bookkeeping would touch nearly every answer anyway,
    /// and the full sweep is exact. Coverage *equal* to the threshold
    /// still runs the dirty sweep. `0` disables dirty sweeps outright
    /// (every rebuild full-sweeps unless the dirty set is empty); `≥ 100`
    /// never falls back on coverage. The `em` bench's `EM_SWEEP=1` knob
    /// sweep (recorded in `BENCH_em.json`) shows the engaged dirty path
    /// at roughly half the full-sweep cost on the standard
    /// 100-fresh-answer workload (~30 % coverage), so the threshold only
    /// needs to sit above typical coverage; the default of 60 % keeps
    /// headroom for burstier streams while still catching the
    /// nearly-all-dirty case. Re-sweep when the workload shape changes.
    pub dirty_coverage_fallback: usize,
    /// Threads for delayed rebuilds (full sweeps, their statistics
    /// rebuild, and dirty-set sweeps). With two or more, each rebuild
    /// splits its E-step by side — task accumulators on the calling thread,
    /// worker accumulators on one helper — and every accumulator cell still
    /// receives its additions in answer order, so results are bit-identical
    /// for every setting and this is a pure throughput knob. A sweep uses
    /// at most [`EmParallelism::MAX_SWEEP_THREADS`] threads, and sweeps too
    /// small to gain from the split run sequentially (see
    /// [`EmParallelism::effective`]).
    pub parallelism: EmParallelism,
}

impl Default for UpdatePolicy {
    fn default() -> Self {
        Self {
            full_em_every: Some(100),
            full_sweep_every: 8,
            dirty_coverage_fallback: 60,
            parallelism: EmParallelism::default(),
        }
    }
}

impl UpdatePolicy {
    /// The exact-equivalence escape hatch: rebuild every `full_em_every`
    /// submissions and make every rebuild a full sweep, reproducing the
    /// naive reference path bit for bit.
    #[must_use]
    pub fn exact(full_em_every: Option<usize>) -> Self {
        Self {
            full_em_every,
            full_sweep_every: 1,
            ..Self::default()
        }
    }
}

/// Tasks and workers touched since the last converged rebuild.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
struct DirtySet {
    tasks: Vec<bool>,
    workers: Vec<bool>,
}

impl DirtySet {
    fn ensure(&mut self, n_tasks: usize, n_workers: usize) {
        if n_tasks > self.tasks.len() {
            self.tasks.resize(n_tasks, false);
        }
        if n_workers > self.workers.len() {
            self.workers.resize(n_workers, false);
        }
    }

    fn mark(&mut self, task: TaskId, worker: WorkerId) {
        self.tasks[task.index()] = true;
        self.workers[worker.index()] = true;
    }

    /// Marks only the worker side — used when gossiped peer statistics
    /// change a worker's pooled quality without any local answer arriving.
    fn mark_worker(&mut self, worker: WorkerId) {
        self.workers[worker.index()] = true;
    }

    fn is_dirty(&self, answer: &Answer) -> bool {
        self.tasks[answer.task.index()] || self.workers[answer.worker.index()]
    }

    fn clear(&mut self) {
        self.tasks.fill(false);
        self.workers.fill(false);
    }
}

/// The online estimator: current parameters plus running sufficient
/// statistics, the answer-geometry cache and the dirty-set bookkeeping.
///
/// Between delayed rebuilds, each submitted answer triggers one partial
/// E-step (Neal & Hinton's incremental EM): the answer's posterior is
/// computed under the *current* parameters, added to the sufficient
/// statistics, and only the parameters it touches are recomputed — the
/// submitting worker's quality (`P(i_w)`, `P(d_w)`) and the answered task's
/// results and influence (`P(z_{t,·})`, `P(d_t)`).
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct OnlineModel {
    config: EmConfig,
    policy: UpdatePolicy,
    params: ModelParams,
    stats: SufficientStats,
    geometry: AnswerGeometry,
    contribs: StatContribs,
    dirty: DirtySet,
    /// Gossiped worker-side statistics from peer instances; every worker
    /// M-step pools its own accumulators with this aggregate.
    peers: PeerStats,
    scratch: Scratch,
    /// Reusable buffer of pre-M-step parameter values for delta tracking.
    mstep_old: Vec<f64>,
    /// Frozen sufficient statistics of the pruned answer-stream prefix,
    /// captured (as an exact clone of `stats`) at the pruning checkpoint.
    /// `None` until [`OnlineModel::prune_frozen`] runs. Every stats
    /// rebuild seeds from this baseline instead of zero, so pruned answers
    /// keep contributing their checkpointed posteriors.
    #[cfg_attr(feature = "serde", serde(default))]
    frozen: Option<SufficientStats>,
    absorbed_since_full: usize,
    runs_since_sweep: usize,
    last_report: Option<EmReport>,
    /// Optional timing sink for rebuilds. Process-local: never carried
    /// by snapshots (the embedder re-attaches one after restore).
    #[cfg_attr(feature = "serde", serde(skip, default))]
    recorder: RecorderHandle,
}

impl OnlineModel {
    /// Builds the estimator, running an initial full EM over whatever is
    /// already in `log` (a no-op on an empty log).
    #[must_use]
    pub fn new(tasks: &TaskSet, log: &AnswerLog, config: EmConfig, policy: UpdatePolicy) -> Self {
        let n_funcs = config.fset.len();
        let params = ModelParams::init(tasks, log.n_workers(), n_funcs, config.init, log);
        let stats = SufficientStats::new(tasks, log.n_workers(), n_funcs);
        let geometry = AnswerGeometry::new(n_funcs);
        let mut model = Self {
            config,
            policy,
            params,
            stats,
            geometry,
            contribs: StatContribs::default(),
            dirty: DirtySet::default(),
            peers: PeerStats::new(),
            scratch: Scratch::new(n_funcs),
            mstep_old: Vec::new(),
            frozen: None,
            absorbed_since_full: 0,
            runs_since_sweep: 0,
            last_report: None,
            recorder: RecorderHandle::none(),
        };
        if !log.is_empty() {
            model.full_em(tasks, log);
        }
        model
    }

    /// Current parameter estimates.
    #[must_use]
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// The EM configuration in use.
    #[must_use]
    pub fn config(&self) -> &EmConfig {
        &self.config
    }

    /// The rebuild policy in use.
    #[must_use]
    pub fn policy(&self) -> &UpdatePolicy {
        &self.policy
    }

    /// Diagnostics of the most recent delayed rebuild, if any.
    #[must_use]
    pub fn last_report(&self) -> Option<&EmReport> {
        self.last_report.as_ref()
    }

    /// Number of answers absorbed incrementally since the last rebuild.
    #[must_use]
    pub fn absorbed_since_full(&self) -> usize {
        self.absorbed_since_full
    }

    /// Number of dirty-set rebuilds since the last full sweep.
    #[must_use]
    pub fn runs_since_full_sweep(&self) -> usize {
        self.runs_since_sweep
    }

    /// The gossiped peer statistics folded in so far.
    #[must_use]
    pub fn peer_stats(&self) -> &PeerStats {
        &self.peers
    }

    /// This instance's own worker-side accumulators, packaged for the
    /// gossip exchange. `source` identifies the instance; `version` must
    /// be strictly increasing per source and unique per payload — stamp a
    /// publish counter (the answer count is *not* enough: a hardening
    /// sweep rebuilds the statistics without growing the log).
    #[must_use]
    pub fn worker_stat_delta(&self, source: u64, version: u64) -> WorkerStatDelta {
        self.stats.worker_delta(source, version)
    }

    /// Folds one peer's published statistics in. Returns `true` when the
    /// delta was new (strictly newer version for its source): the pooled
    /// quality of every worker the delta covers is refreshed immediately —
    /// visible to inference and assignment before the next rebuild — and
    /// those workers are marked dirty so the next delayed rebuild
    /// re-sweeps their local answers under the pooled estimates.
    /// Re-delivered or stale deltas are a no-op returning `false`.
    pub fn fold_peer_stats(&mut self, tasks: &TaskSet, delta: &WorkerStatDelta) -> bool {
        self.fold_peer_stats_batch(tasks, std::slice::from_ref(delta))[0]
    }

    /// [`OnlineModel::fold_peer_stats`] for a whole gossip round: absorbs
    /// every delta first, then refreshes each covered worker's pooled
    /// parameters exactly once against the final table. Bit-identical to
    /// folding the deltas one by one — a worker's intermediate refreshes
    /// are overwritten by the last one, and sources that do not cover a
    /// worker contribute exact zeros to its aggregate — but without the
    /// `O(deltas × workers)` redundant M-steps. Returns, per input delta,
    /// whether it was absorbed (stale/re-delivered deltas are skipped).
    pub fn fold_peer_stats_batch(
        &mut self,
        tasks: &TaskSet,
        deltas: &[WorkerStatDelta],
    ) -> Vec<bool> {
        let absorbed = self.peers.absorb_batch(deltas);
        if !absorbed.contains(&true) {
            return absorbed;
        }
        let n_workers = self.peers.n_workers().max(self.params.n_workers());
        self.params.ensure_workers(n_workers);
        self.stats.ensure_workers(n_workers);
        self.dirty.ensure(tasks.len(), n_workers);
        // Union of the workers the absorbed deltas cover. Cumulative
        // deltas never shrink: a worker with zero bits in the new payload
        // had zero in every earlier version too, so nothing pooled changed
        // for them.
        let mut covered = vec![false; n_workers];
        for (delta, &ok) in deltas.iter().zip(&absorbed) {
            if !ok {
                continue;
            }
            for (w, &bits) in delta.worker_bits.iter().enumerate() {
                covered[w] |= bits > 0;
            }
        }
        for (w, &hit) in covered.iter().enumerate() {
            if hit {
                let id = WorkerId::from_index(w);
                self.stats
                    .apply_worker_pooled(&mut self.params, id, &self.peers);
                self.dirty.mark_worker(id);
            }
        }
        absorbed
    }

    /// Runs the delayed batch EM over `log`, warm-starting from the current
    /// parameters: a dirty-set sweep when the policy and the dirty set's
    /// coverage allow it, a full sweep otherwise.
    pub fn full_em(&mut self, tasks: &TaskSet, log: &AnswerLog) {
        let started = self.recorder.is_enabled().then(std::time::Instant::now);
        self.sync_caches(tasks, log);
        let k = self.policy.full_sweep_every;
        let dirty_allowed = k > 1
            && self.runs_since_sweep + 1 < k
            && !log.is_empty()
            // Absorb covers every answer that arrived through the online
            // path; a shortfall means answers were bulk-loaded (fresh model
            // or reset) and their contributions were never cached.
            && self.contribs.n_answers() == log.len();
        let mut report = None;
        if dirty_allowed {
            report = self.dirty_sweep(tasks, log);
            if report.is_some() {
                self.runs_since_sweep += 1;
            }
        }
        let report = report.unwrap_or_else(|| self.run_full_sweep(tasks, log));
        self.finish_run(started, report);
    }

    /// Runs an unconditional full-sweep batch EM (end-of-campaign
    /// hardening; this is what `Framework::force_full_em` invokes).
    pub fn full_sweep(&mut self, tasks: &TaskSet, log: &AnswerLog) {
        let started = self.recorder.is_enabled().then(std::time::Instant::now);
        self.sync_caches(tasks, log);
        let report = self.run_full_sweep(tasks, log);
        self.finish_run(started, report);
    }

    /// Attaches (or clears, with [`RecorderHandle::none`]) the timing
    /// sink notified after every delayed rebuild and hardening sweep.
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = recorder;
    }

    /// The thread count of a sweep over `n_answers`. A rebuild grows the
    /// parameters to the peers' workers, so this count is the same before
    /// and after it.
    fn sweep_threads(&self, n_answers: usize) -> usize {
        let n_workers = self.params.n_workers().max(self.peers.n_workers());
        self.policy.parallelism.effective(n_answers, n_workers)
    }

    fn sync_caches(&mut self, tasks: &TaskSet, log: &AnswerLog) {
        self.params.ensure_workers(log.n_workers());
        self.stats.ensure_workers(log.n_workers());
        self.dirty.ensure(tasks.len(), log.n_workers());
        self.geometry.sync(tasks, log, &self.config.fset);
    }

    /// Reports the rebuild that began at `started` (when a recorder is
    /// attached) and resets the per-rebuild state.
    fn finish_run(&mut self, started: Option<std::time::Instant>, report: EmReport) {
        if let Some(t0) = started {
            self.recorder.em_rebuild(
                t0.elapsed(),
                report.full_sweep,
                report.answers_swept,
                self.sweep_threads(report.answers_swept),
                report.iterations,
                report.converged,
            );
        }
        self.dirty.clear();
        self.absorbed_since_full = 0;
        self.last_report = Some(report);
    }

    fn run_full_sweep(&mut self, tasks: &TaskSet, log: &AnswerLog) -> EmReport {
        let threads = self.sweep_threads(log.len());
        let report = EmRun {
            tasks,
            log,
            geometry: &self.geometry,
            config: &self.config,
            peers: &self.peers,
            threads,
            baseline: self.frozen.as_ref(),
        }
        .run(&mut self.params);
        self.rebuild_stats(log);
        self.runs_since_sweep = 0;
        report
    }

    /// One E-pass over `log` under the current parameters, rebuilding the
    /// statistics (from the frozen baseline, if any) and every answer's
    /// contribution row.
    fn rebuild_stats(&mut self, log: &AnswerLog) {
        let threads = self.sweep_threads(log.len());
        self.stats.reset_from(self.frozen.as_ref(), log.n_workers());
        self.contribs.reset(&self.geometry);
        let (task_stats, worker_stats) = self.stats.sides_mut();
        let task = TaskSide::recording(task_stats, &mut self.contribs.task, false);
        let worker = WorkerSide::recording(worker_stats, &mut self.contribs.worker, false);
        let params = Params::of(&self.params);
        let (geometry, alpha) = (&self.geometry, self.config.alpha);
        let pass = |side: &mut dyn Side, scratch: &mut Scratch| {
            let answers = log.answers().iter().enumerate();
            sweep::sweep(side, params, geometry, alpha, answers, scratch, Llh::Skip);
        };
        if threads > 1 {
            let n_funcs = self.config.fset.len();
            let (mut task, mut worker) = (task, worker);
            sweep::split(
                |_: &Meet<(), ()>| pass(&mut task, &mut Scratch::new(n_funcs)),
                |_| pass(&mut worker, &mut Scratch::new(n_funcs)),
            );
        } else {
            pass(&mut (task, worker), &mut self.scratch);
        }
    }

    /// The dirty-set sweep: batch EM iterations that re-sweep only the
    /// answers whose task or worker is dirty, with frozen contributions for
    /// the rest. Returns `None` when the dirty set covers too much of the
    /// log (the caller falls back to an exact full sweep).
    fn dirty_sweep(&mut self, tasks: &TaskSet, log: &AnswerLog) -> Option<EmReport> {
        // Collect the dirty answers and the entities they touch (one-hop:
        // a clean task answered by a dirty worker gets its parameters
        // refreshed, but does not recursively dirty its other workers).
        let mut dirty_answers: Vec<usize> = Vec::new();
        let mut touched_tasks = vec![false; tasks.len()];
        let mut touched_workers = vec![false; log.n_workers()];
        for (i, answer) in log.answers().iter().enumerate() {
            if self.dirty.is_dirty(answer) {
                dirty_answers.push(i);
                touched_tasks[answer.task.index()] = true;
                touched_workers[answer.worker.index()] = true;
            }
        }
        if dirty_answers.len() * 100 > log.len() * self.policy.dirty_coverage_fallback {
            return None;
        }
        let mut report = EmReport {
            iterations: 0,
            converged: true,
            full_sweep: false,
            answers_swept: dirty_answers.len(),
            max_delta_history: Vec::new(),
            log_likelihood_history: Vec::new(),
        };
        if dirty_answers.is_empty() {
            return Some(report);
        }
        report.converged = false;

        if self.sweep_threads(dirty_answers.len()) > 1 {
            self.dirty_split(
                tasks,
                log,
                &dirty_answers,
                &touched_tasks,
                &touched_workers,
                &mut report,
            );
            return Some(report);
        }
        let answers = log.answers();
        for _ in 0..self.config.max_iterations {
            // Partial E-step: replace each dirty answer's contribution.
            let mut log_likelihood = 0.0;
            let (task_stats, worker_stats) = self.stats.sides_mut();
            sweep::sweep(
                &mut (
                    TaskSide::recording(task_stats, &mut self.contribs.task, true),
                    WorkerSide::recording(worker_stats, &mut self.contribs.worker, true),
                ),
                Params::of(&self.params),
                &self.geometry,
                self.config.alpha,
                sweep::at(answers, dirty_answers.iter().copied()),
                &mut self.scratch,
                Llh::Sum(&mut log_likelihood),
            );

            // Partial M-step over the touched entities, tracking the
            // parameter delta (untouched parameters cannot move).
            let (task_params, worker_params) = self.params.halves_mut();
            let old = &mut self.mstep_old;
            let delta = touched_task_mstep(task_stats, task_params, tasks, &touched_tasks, old)
                .max(touched_worker_mstep(
                    worker_stats,
                    worker_params,
                    &self.peers,
                    &touched_workers,
                    old,
                ));
            debug_assert!(self.params.check_invariants());
            if report.record(delta, log_likelihood, self.config.tolerance) {
                break;
            }
        }
        Some(report)
    }

    /// [`OnlineModel::dirty_sweep`]'s iterations as a side split: the task
    /// side on the calling thread, the worker side on one helper.
    fn dirty_split(
        &mut self,
        tasks: &TaskSet,
        log: &AnswerLog,
        dirty_answers: &[usize],
        touched_tasks: &[bool],
        touched_workers: &[bool],
        report: &mut EmReport,
    ) {
        let (first, second) = dirty_answers.split_at(dirty_answers.len() / 2);
        let answers = log.answers();
        let halves = || [first, second].map(|ids| sweep::at(answers, ids.iter().copied()));
        let (geometry, alpha) = (&self.geometry, self.config.alpha);
        let (task_stats, worker_stats) = self.stats.sides_mut();
        let (task_rows, worker_rows) = (&mut self.contribs.task, &mut self.contribs.worker);
        let peers = &self.peers;
        let n_funcs = self.config.fset.len();
        let (mut task_scratch, mut worker_scratch) = (Scratch::new(n_funcs), Scratch::new(n_funcs));
        let (mut task_old, mut worker_old) = (Vec::new(), Vec::new());
        sweep::lockstep(
            &mut self.params,
            &self.config,
            report,
            |step| match step {
                Step::Estep { params, llh } => {
                    let side = &mut TaskSide::recording(task_stats, task_rows, true);
                    let scratch = &mut task_scratch;
                    sweep::sweep_halves(side, params, geometry, alpha, halves(), scratch, llh);
                    0.0
                }
                Step::Mstep { params, .. } => {
                    touched_task_mstep(task_stats, params, tasks, touched_tasks, &mut task_old)
                }
            },
            |step| match step {
                Step::Estep { params, llh } => {
                    let side = &mut WorkerSide::recording(worker_stats, worker_rows, true);
                    let scratch = &mut worker_scratch;
                    sweep::sweep_halves(side, params, geometry, alpha, halves(), scratch, llh);
                    0.0
                }
                Step::Mstep { params, .. } => touched_worker_mstep(
                    worker_stats,
                    params,
                    peers,
                    touched_workers,
                    &mut worker_old,
                ),
            },
        );
        debug_assert!(self.params.check_invariants());
    }

    /// One partial E-step: folds `answer`'s posterior into the statistics
    /// and refreshes the parameters it touches.
    ///
    /// The caller must have already appended `answer` to its [`AnswerLog`];
    /// the log itself is only needed again at the next delayed rebuild.
    pub fn absorb(&mut self, tasks: &TaskSet, answer: &Answer) {
        self.params.ensure_workers(answer.worker.index() + 1);
        self.stats.ensure_workers(answer.worker.index() + 1);
        self.dirty.ensure(tasks.len(), answer.worker.index() + 1);
        // Submit-time build of the immutable per-answer geometry; every
        // later sweep reads it instead of recomputing distances.
        self.geometry.push(tasks, &self.config.fset, answer);
        let i = self.geometry.len() - 1;
        self.contribs
            .push_answer(answer.bits.len(), self.config.fset.len());
        let (task_stats, worker_stats) = self.stats.sides_mut();
        sweep::sweep(
            &mut (
                TaskSide::recording(task_stats, &mut self.contribs.task, false),
                WorkerSide::recording(worker_stats, &mut self.contribs.worker, false),
            ),
            Params::of(&self.params),
            &self.geometry,
            self.config.alpha,
            [(i, answer)],
            &mut self.scratch,
            Llh::Skip,
        );
        self.dirty.mark(answer.task, answer.worker);
        // Refresh exactly the parameters the paper's Section III-D names:
        // the submitting worker's quality and the task's results + influence.
        self.stats.apply_task(&mut self.params, tasks, answer.task);
        self.stats
            .apply_worker_pooled(&mut self.params, answer.worker, &self.peers);
        self.absorbed_since_full += 1;
    }

    /// Absorbs a just-logged answer and, per the update policy, runs the
    /// delayed batch EM. Returns `true` if a rebuild was triggered.
    pub fn on_submit(&mut self, tasks: &TaskSet, log: &AnswerLog, answer: &Answer) -> bool {
        self.absorb(tasks, answer);
        if let Some(every) = self.policy.full_em_every {
            if self.absorbed_since_full >= every {
                self.full_em(tasks, log);
                return true;
            }
        }
        false
    }

    /// Restores the estimator to the deterministic state it holds
    /// immediately after a **full-sweep** rebuild that converged on
    /// `params` over exactly the answers currently in `log`, with `peers`
    /// as the folded peer table at that moment.
    ///
    /// Right after a full sweep the entire mutable state is a pure
    /// function of `(params, log, peers)`: the sufficient statistics and
    /// the per-answer contribution cache are what one E-pass under the
    /// converged parameters accumulates (the same statistics pass that
    /// ends every live full sweep, e.g. [`OnlineModel::full_sweep`]), the
    /// dirty set is clear, and the absorb / run counters are zero.
    /// Snapshot restore exploits this to *harden
    /// from parameters*: instead of replaying the whole answer log through
    /// incremental EM, it bulk-loads the log, calls this method with the
    /// persisted checkpoint parameters, and replays only the suffix of the
    /// stream recorded after the checkpoint — bit-identical to the full
    /// replay, as `crowd_serve`'s snapshot tests prove.
    ///
    /// The most recent [`EmReport`] is diagnostics, not model state; it is
    /// reset to `None` here.
    ///
    /// # Errors
    /// Returns `false` (leaving the estimator untouched) when `params` does
    /// not match this model's shapes (`|F|`, total label slots, or a worker
    /// count below the log's).
    pub fn restore_checkpoint(
        &mut self,
        tasks: &TaskSet,
        log: &AnswerLog,
        params: ModelParams,
        peers: PeerStats,
    ) -> bool {
        if params.n_funcs() != self.config.fset.len()
            || params.z().len() != tasks.total_labels()
            || params.n_tasks() != tasks.len()
            || params.n_workers() < log.n_workers()
        {
            return false;
        }
        self.params = params;
        self.peers = peers;
        self.geometry.clear();
        self.geometry.sync(tasks, log, &self.config.fset);
        self.dirty = DirtySet::default();
        self.dirty.ensure(tasks.len(), self.params.n_workers());
        self.rebuild_stats(log);
        self.absorbed_since_full = 0;
        self.runs_since_sweep = 0;
        self.last_report = None;
        true
    }

    /// Freezes the current sufficient statistics as the pruned-prefix
    /// baseline, releasing the per-answer caches (geometry + contribution
    /// rows) so the caller can truncate `log` with
    /// [`AnswerLog::prune_retained`] immediately after.
    ///
    /// Must be called at an exact full-sweep boundary — right after
    /// [`OnlineModel::full_sweep`] (or a full-sweep `full_em`) with no
    /// absorptions since and the caches covering the whole log — so the
    /// baseline is a bit-exact clone of the converged accumulators.
    /// Returns `false` (no state change) when that precondition does not
    /// hold.
    ///
    /// After a prune, full sweeps re-sweep only the retained suffix under
    /// current parameters while the frozen prefix keeps its checkpointed
    /// posteriors — the same approximation class as a dirty-set sweep
    /// (Neal & Hinton partial E-steps), except the frozen set is never
    /// revisited. Pure-incremental absorption is unaffected and stays
    /// bit-identical to the unpruned estimator.
    pub fn prune_frozen(&mut self, log: &AnswerLog) -> bool {
        if self.absorbed_since_full != 0
            || self.runs_since_sweep != 0
            || self.geometry.len() != log.len()
            || self.contribs.n_answers() != log.len()
        {
            return false;
        }
        self.frozen = Some(self.stats.clone());
        self.geometry.clear();
        self.contribs = StatContribs::default();
        self.dirty.clear();
        true
    }

    /// The frozen pruned-prefix baseline, if this model has pruned.
    #[must_use]
    pub fn frozen_baseline(&self) -> Option<&SufficientStats> {
        self.frozen.as_ref()
    }

    /// Installs a persisted pruned-prefix baseline (snapshot restore of a
    /// pruned shard). Must run *before* [`OnlineModel::restore_checkpoint`]
    /// so the checkpoint's stats rebuild seeds from it. Returns `false`
    /// when the baseline was accumulated for a different function count.
    pub fn restore_frozen(&mut self, baseline: SufficientStats) -> bool {
        if baseline.n_funcs() != self.config.fset.len() {
            return false;
        }
        self.frozen = Some(baseline);
        true
    }

    /// Re-initialises from scratch (used by tests and by the framework when
    /// the task set changes). Folded peer statistics are retained: they
    /// describe workers, not tasks, and remain valid across a task-set
    /// change. A frozen pruned-prefix baseline is discarded: it was
    /// accumulated against the old task set, and the pruned payloads are
    /// gone — a reset after pruning restarts estimation from the retained
    /// suffix only.
    pub fn reset(&mut self, tasks: &TaskSet, log: &AnswerLog) {
        self.frozen = None;
        let n_funcs = self.config.fset.len();
        self.params = ModelParams::init(
            tasks,
            log.n_workers(),
            n_funcs,
            // A reset mid-campaign re-seeds from current votes.
            InitStrategy::VoteShare,
            log,
        );
        self.stats = SufficientStats::new(tasks, log.n_workers(), n_funcs);
        self.geometry.clear();
        self.contribs = StatContribs::default();
        self.dirty = DirtySet::default();
        self.absorbed_since_full = 0;
        self.runs_since_sweep = 0;
        if !log.is_empty() {
            self.full_em(tasks, log);
        }
    }
}

/// The partial task M-step of a dirty sweep: refreshes every touched task
/// and returns the largest parameter change.
fn touched_task_mstep(
    stats: &TaskStats,
    params: &mut TaskParams,
    tasks: &TaskSet,
    touched: &[bool],
    old: &mut Vec<f64>,
) -> f64 {
    let mut delta = 0.0_f64;
    for (t, _) in touched.iter().enumerate().filter(|(_, &hit)| hit) {
        delta = delta.max(stats.apply_tracked(params, tasks, TaskId::from_index(t), old));
    }
    delta
}

/// The partial (peer-pooled) worker M-step of a dirty sweep: refreshes
/// every touched worker and returns the largest parameter change.
fn touched_worker_mstep(
    stats: &WorkerStats,
    params: &mut WorkerParams,
    peers: &PeerStats,
    touched: &[bool],
    old: &mut Vec<f64>,
) -> f64 {
    let mut delta = 0.0_f64;
    for (w, _) in touched.iter().enumerate().filter(|(_, &hit)| hit) {
        delta = delta.max(stats.apply_tracked(params, WorkerId::from_index(w), peers, old));
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::synthetic_task;
    use crate::{LabelBits, TaskId, WorkerId};
    use crowd_geo::Point;

    fn world() -> (TaskSet, AnswerLog) {
        let tasks = TaskSet::new(vec![
            synthetic_task("a", Point::new(0.0, 0.0), 3),
            synthetic_task("b", Point::new(1.0, 0.0), 3),
        ]);
        let log = AnswerLog::new(tasks.len(), 3);
        (tasks, log)
    }

    fn answer(w: u32, t: u32, bits: &[bool], d: f64) -> Answer {
        Answer {
            worker: WorkerId(w),
            task: TaskId(t),
            bits: LabelBits::from_slice(bits),
            distance: d,
        }
    }

    #[test]
    fn absorb_moves_z_toward_answers() {
        let (tasks, mut log) = world();
        let mut model =
            OnlineModel::new(&tasks, &log, EmConfig::default(), UpdatePolicy::default());
        let a = answer(0, 0, &[true, true, false], 0.05);
        log.push(&tasks, a).unwrap();
        model.absorb(&tasks, &a);
        let base = tasks.label_offset(TaskId(0));
        assert!(model.params().z_slot(base) > 0.5);
        assert!(model.params().z_slot(base + 2) < 0.5);
        // Untouched task stays at prior.
        assert_eq!(model.params().z_slot(tasks.label_slot(TaskId(1), 0)), 0.5);
        assert!(model.params().check_invariants());
    }

    #[test]
    fn on_submit_triggers_delayed_full_em() {
        let (tasks, mut log) = world();
        let policy = UpdatePolicy {
            full_em_every: Some(2),
            ..UpdatePolicy::default()
        };
        let mut model = OnlineModel::new(&tasks, &log, EmConfig::default(), policy);
        let a1 = answer(0, 0, &[true, true, false], 0.1);
        log.push(&tasks, a1).unwrap();
        assert!(!model.on_submit(&tasks, &log, &a1));
        assert_eq!(model.absorbed_since_full(), 1);

        let a2 = answer(1, 0, &[true, true, false], 0.2);
        log.push(&tasks, a2).unwrap();
        assert!(model.on_submit(&tasks, &log, &a2));
        assert_eq!(model.absorbed_since_full(), 0);
        assert!(model.last_report().is_some());
    }

    #[test]
    fn pure_incremental_mode_never_rebuilds() {
        let (tasks, mut log) = world();
        let policy = UpdatePolicy {
            full_em_every: None,
            ..UpdatePolicy::default()
        };
        let mut model = OnlineModel::new(&tasks, &log, EmConfig::default(), policy);
        for i in 0..3 {
            let a = answer(i, 0, &[true, false, false], 0.1);
            log.push(&tasks, a).unwrap();
            assert!(!model.on_submit(&tasks, &log, &a));
        }
        assert_eq!(model.absorbed_since_full(), 3);
        assert!(model.last_report().is_none());
    }

    #[test]
    fn incremental_tracks_full_em_closely() {
        // Absorb a stream incrementally (with periodic rebuilds) and compare
        // the final decisions against a single batch EM over the same log.
        let (tasks, mut log) = world();
        let policy = UpdatePolicy {
            full_em_every: Some(3),
            ..UpdatePolicy::default()
        };
        let mut model = OnlineModel::new(&tasks, &log, EmConfig::default(), policy);
        let stream = [
            answer(0, 0, &[true, true, false], 0.05),
            answer(1, 0, &[true, true, false], 0.1),
            answer(2, 0, &[false, false, true], 0.8),
            answer(0, 1, &[false, true, true], 0.4),
            answer(1, 1, &[false, true, true], 0.3),
            answer(2, 1, &[true, false, false], 0.9),
        ];
        for a in &stream {
            log.push(&tasks, *a).unwrap();
            model.on_submit(&tasks, &log, a);
        }
        let (batch, _) = crate::model::em::run_em(&tasks, &log, &EmConfig::default());
        for slot in 0..tasks.total_labels() {
            assert_eq!(
                model.params().z_slot(slot) >= 0.5,
                batch.z_slot(slot) >= 0.5,
                "slot {slot}: online {} vs batch {}",
                model.params().z_slot(slot),
                batch.z_slot(slot)
            );
        }
    }

    #[test]
    fn absorb_handles_new_worker_beyond_initial_pool() {
        let (tasks, mut log) = world();
        let mut model =
            OnlineModel::new(&tasks, &log, EmConfig::default(), UpdatePolicy::default());
        log.ensure_workers(6);
        let a = answer(5, 0, &[true, false, true], 0.2);
        log.push(&tasks, a).unwrap();
        model.absorb(&tasks, &a);
        assert!(model.params().n_workers() >= 6);
        assert!(model.params().check_invariants());
    }

    #[test]
    fn reset_restores_consistency() {
        let (tasks, mut log) = world();
        let mut model =
            OnlineModel::new(&tasks, &log, EmConfig::default(), UpdatePolicy::default());
        let a = answer(0, 0, &[true, true, true], 0.1);
        log.push(&tasks, a).unwrap();
        model.absorb(&tasks, &a);
        model.reset(&tasks, &log);
        assert_eq!(model.absorbed_since_full(), 0);
        assert!(model.params().check_invariants());
        // Reset re-ran full EM over the log: task 0's labels lean positive.
        assert!(model.params().z_slot(0) > 0.5);
    }

    #[test]
    fn exact_policy_reproduces_seed_rebuild_behavior() {
        // The escape hatch (full_sweep_every = 1) must behave exactly like
        // the pre-dirty-set estimator: warm-started full-sweep batch EM at
        // every rebuild.
        let (tasks, mut log) = world();
        let mut model = OnlineModel::new(
            &tasks,
            &log,
            EmConfig::default(),
            UpdatePolicy::exact(Some(2)),
        );
        for (i, a) in [
            answer(0, 0, &[true, true, false], 0.05),
            answer(1, 0, &[true, true, false], 0.1),
            answer(2, 1, &[false, false, true], 0.6),
            answer(0, 1, &[false, true, true], 0.4),
        ]
        .iter()
        .enumerate()
        {
            log.push(&tasks, *a).unwrap();
            let rebuilt = model.on_submit(&tasks, &log, a);
            assert_eq!(rebuilt, i % 2 == 1);
        }
        let report = model.last_report().unwrap();
        assert!(report.full_sweep);
        assert_eq!(report.answers_swept, log.len());
        assert_eq!(model.runs_since_full_sweep(), 0);
    }

    /// A world large enough that 100 fresh submits leave most of the log
    /// clean: many workers, each answering a disjoint pair of tasks.
    fn sparse_world() -> (TaskSet, AnswerLog, Vec<Answer>) {
        let n_tasks = 60;
        let n_workers = 120;
        let tasks = TaskSet::new(
            (0..n_tasks)
                .map(|i| synthetic_task(format!("t{i}"), Point::new(i as f64, 0.0), 3))
                .collect(),
        );
        let mut log = AnswerLog::new(n_tasks, n_workers);
        let mut stream = Vec::new();
        for w in 0..n_workers as u32 {
            for dt in 0..2u32 {
                let t = (w * 2 + dt) % n_tasks as u32;
                let bits = [(w + dt) % 3 != 0, w % 2 == 0, dt == 0];
                let a = answer(w, t, &bits, f64::from(w % 10) / 10.0);
                if log.push(&tasks, a).is_ok() {
                    stream.push(a);
                }
            }
        }
        (tasks, log, stream)
    }

    #[test]
    fn dirty_sweep_only_visits_dirty_answers_and_stays_close() {
        let (tasks, log, stream) = sparse_world();
        // Absorb the whole stream with the exact policy, full-sweep once.
        let policy = UpdatePolicy {
            full_em_every: None,
            full_sweep_every: 16,
            ..UpdatePolicy::default()
        };
        let empty = AnswerLog::new(log.n_tasks(), log.n_workers());
        let mut model = OnlineModel::new(&tasks, &empty, EmConfig::default(), policy);
        for a in &stream {
            model.absorb(&tasks, a);
        }
        model.full_sweep(&tasks, &log);
        assert_eq!(model.runs_since_full_sweep(), 0);

        // Dirty a handful of workers with fresh-looking absorptions, then
        // rebuild: the sweep must be partial.
        let touched: Vec<Answer> = stream.iter().rev().take(12).copied().collect();
        let mut reference = model.clone();
        for a in &touched {
            // Marking (task, worker) pairs dirty by hand stands in for
            // fresh submissions without growing the log.
            model.dirty.mark(a.task, a.worker);
        }
        model.full_em(&tasks, &log);
        let report = model.last_report().unwrap().clone();
        assert!(!report.full_sweep, "expected a dirty-set sweep");
        assert!(report.answers_swept < log.len() / 2);
        assert_eq!(model.runs_since_full_sweep(), 1);

        // A dirty sweep with no *new* information must stay numerically
        // close to the converged state it started from.
        reference.full_sweep(&tasks, &log);
        let delta = model.params().max_abs_diff(reference.params());
        assert!(delta < 0.05, "dirty sweep drifted {delta}");
        assert!(model.params().check_invariants());
    }

    #[test]
    fn dirty_sweep_falls_back_to_full_sweep_on_high_coverage() {
        let (tasks, mut log) = world();
        let policy = UpdatePolicy {
            full_em_every: Some(3),
            full_sweep_every: 16,
            ..UpdatePolicy::default()
        };
        let mut model = OnlineModel::new(&tasks, &log, EmConfig::default(), policy);
        for a in [
            answer(0, 0, &[true, true, false], 0.05),
            answer(1, 0, &[true, true, false], 0.1),
            answer(2, 1, &[false, false, true], 0.6),
        ] {
            log.push(&tasks, a).unwrap();
            model.on_submit(&tasks, &log, &a);
        }
        // Every answer was fresh → dirty set covers the whole log → the
        // rebuild must have been a full sweep despite the dirty policy.
        let report = model.last_report().unwrap();
        assert!(report.full_sweep);
        assert_eq!(model.runs_since_full_sweep(), 0);
    }

    #[test]
    fn scheduled_full_sweep_resets_the_counter() {
        let (tasks, log, stream) = sparse_world();
        let policy = UpdatePolicy {
            full_em_every: None,
            full_sweep_every: 2,
            ..UpdatePolicy::default()
        };
        let empty = AnswerLog::new(log.n_tasks(), log.n_workers());
        let mut model = OnlineModel::new(&tasks, &empty, EmConfig::default(), policy);
        for a in &stream {
            model.absorb(&tasks, a);
        }
        model.full_sweep(&tasks, &log);
        model.dirty.mark(stream[0].task, stream[0].worker);
        model.full_em(&tasks, &log);
        assert_eq!(model.runs_since_full_sweep(), 1);
        model.dirty.mark(stream[1].task, stream[1].worker);
        // K = 2: the next rebuild is the scheduled full sweep.
        model.full_em(&tasks, &log);
        assert_eq!(model.runs_since_full_sweep(), 0);
        assert!(model.last_report().unwrap().full_sweep);
    }

    /// Ten workers, ten tasks, each worker answering exactly their own
    /// task: marking `k` (task, worker) pairs dirty dirties exactly `k`
    /// answers, so dirty coverage is exactly `10·k` percent.
    fn diagonal_world() -> (TaskSet, AnswerLog, Vec<Answer>) {
        let n = 10;
        let tasks = TaskSet::new(
            (0..n)
                .map(|i| synthetic_task(format!("t{i}"), Point::new(i as f64, 0.0), 3))
                .collect(),
        );
        let mut log = AnswerLog::new(n, n);
        let mut stream = Vec::new();
        for i in 0..n as u32 {
            let a = answer(i, i, &[i % 2 == 0, i % 3 == 0, true], 0.1);
            log.push(&tasks, a).unwrap();
            stream.push(a);
        }
        (tasks, log, stream)
    }

    #[test]
    fn dirty_coverage_fallback_boundary_is_strictly_greater_than() {
        // Pin the documented boundary semantics: coverage *equal* to
        // `dirty_coverage_fallback` still dirty-sweeps; one answer more
        // falls back to a full sweep.
        let (tasks, log, stream) = diagonal_world();
        let policy = UpdatePolicy {
            full_em_every: None,
            full_sweep_every: 16,
            dirty_coverage_fallback: 50,
            ..UpdatePolicy::default()
        };
        let empty = AnswerLog::new(log.n_tasks(), log.n_workers());
        let mut base = OnlineModel::new(&tasks, &empty, EmConfig::default(), policy);
        for a in &stream {
            base.absorb(&tasks, a);
        }
        base.full_sweep(&tasks, &log);

        // 5 of 10 answers dirty = exactly 50 % coverage → dirty sweep.
        let mut at_limit = base.clone();
        for a in &stream[..5] {
            at_limit.dirty.mark(a.task, a.worker);
        }
        at_limit.full_em(&tasks, &log);
        let report = at_limit.last_report().unwrap();
        assert!(!report.full_sweep, "coverage == threshold must stay dirty");
        assert_eq!(report.answers_swept, 5);

        // 6 of 10 answers dirty = 60 % > 50 % → full-sweep fallback.
        let mut above_limit = base.clone();
        for a in &stream[..6] {
            above_limit.dirty.mark(a.task, a.worker);
        }
        above_limit.full_em(&tasks, &log);
        assert!(above_limit.last_report().unwrap().full_sweep);

        // A zero threshold disables dirty sweeps for any non-empty set.
        let mut never = base.clone();
        never.policy.dirty_coverage_fallback = 0;
        never.dirty.mark(stream[0].task, stream[0].worker);
        never.full_em(&tasks, &log);
        assert!(never.last_report().unwrap().full_sweep);
    }

    #[test]
    fn restore_checkpoint_reproduces_post_sweep_state_bit_for_bit() {
        // Absorb a stream, full-sweep, remember the converged state; a
        // fresh model restored from (params, log, peers) must be internally
        // identical — stats, contribution cache, dirty set, counters — and
        // must continue bit-identically on further absorptions.
        let (tasks, log, stream) = sparse_world();
        let policy = UpdatePolicy {
            full_em_every: None,
            full_sweep_every: 16,
            ..UpdatePolicy::default()
        };
        let empty = AnswerLog::new(log.n_tasks(), log.n_workers());
        let mut live = OnlineModel::new(&tasks, &empty, EmConfig::default(), policy);
        for a in &stream {
            live.absorb(&tasks, a);
        }
        // A folded peer delta makes the checkpoint's peer table non-trivial.
        let peer = WorkerStatDelta {
            source: 77,
            version: 1,
            n_funcs: 3,
            i_sum: vec![2.0; log.n_workers()],
            worker_bits: vec![3; log.n_workers()],
            dw_sum: vec![1.0; log.n_workers() * 3],
        };
        assert!(live.fold_peer_stats(&tasks, &peer));
        live.full_sweep(&tasks, &log);

        let mut restored = OnlineModel::new(&tasks, &empty, EmConfig::default(), policy);
        assert!(
            !restored.restore_checkpoint(
                &tasks,
                &log,
                ModelParams::init(&tasks, log.n_workers(), 2, InitStrategy::Uniform, &log),
                PeerStats::new(),
            ),
            "arity-mismatched parameters must be rejected"
        );
        assert!(restored.restore_checkpoint(
            &tasks,
            &log,
            live.params().clone(),
            live.peer_stats().clone(),
        ));
        assert_eq!(restored.params(), live.params());
        assert_eq!(restored.stats, live.stats);
        assert_eq!(restored.contribs, live.contribs);
        assert_eq!(restored.geometry, live.geometry);
        assert_eq!(restored.peers, live.peers);
        assert_eq!(restored.absorbed_since_full(), 0);
        assert_eq!(restored.runs_since_full_sweep(), 0);

        // Both sides absorb a fresh answer and rebuild: still identical.
        let mut log2 = log.clone();
        let fresh = answer(0, 5, &[true, false, true], 0.42);
        log2.push(&tasks, fresh).unwrap();
        live.absorb(&tasks, &fresh);
        restored.absorb(&tasks, &fresh);
        assert_eq!(restored.params(), live.params());
        live.full_em(&tasks, &log2);
        restored.full_em(&tasks, &log2);
        assert_eq!(restored.params(), live.params());
        assert_eq!(restored.stats, live.stats);
    }

    #[test]
    fn prune_frozen_preserves_pure_incremental_bit_identity() {
        // Two pure-incremental estimators over the same stream; one prunes
        // at a full-sweep boundary halfway through. Incremental absorption
        // never re-reads the pruned payloads, so the two must stay
        // bit-identical to the end of the stream.
        let (tasks, log, stream) = sparse_world();
        let policy = UpdatePolicy {
            full_em_every: None,
            full_sweep_every: 16,
            ..UpdatePolicy::default()
        };
        let empty = AnswerLog::new(log.n_tasks(), log.n_workers());
        let mut pruned = OnlineModel::new(&tasks, &empty, EmConfig::default(), policy);
        let mut reference = OnlineModel::new(&tasks, &empty, EmConfig::default(), policy);
        let mut plog = empty.clone();
        let mut rlog = empty.clone();
        let half = stream.len() / 2;
        for a in &stream[..half] {
            plog.push(&tasks, *a).unwrap();
            rlog.push(&tasks, *a).unwrap();
            pruned.absorb(&tasks, a);
            reference.absorb(&tasks, a);
        }

        // Mid-absorption pruning is refused: the baseline would not be a
        // converged full-sweep state.
        assert!(!pruned.prune_frozen(&plog));

        pruned.full_sweep(&tasks, &plog);
        reference.full_sweep(&tasks, &rlog);
        assert!(pruned.prune_frozen(&plog));
        assert_eq!(pruned.frozen_baseline(), Some(&reference.stats));
        let drained = plog.prune_retained();
        assert_eq!(drained.len(), half);
        assert_eq!(plog.len(), 0);
        assert_eq!(plog.stream_len(), half);

        for a in &stream[half..] {
            plog.push(&tasks, *a).unwrap();
            rlog.push(&tasks, *a).unwrap();
            pruned.absorb(&tasks, a);
            reference.absorb(&tasks, a);
        }
        assert_eq!(pruned.params(), reference.params());
        assert_eq!(pruned.stats, reference.stats);

        // A post-prune full sweep re-sweeps only the retained suffix over
        // the frozen baseline: not bit-identical to the unpruned sweep —
        // the prefix keeps checkpoint-time posteriors, and unlike a dirty
        // sweep those are never revisited, so the drift bound is looser
        // than the dirty-sweep one. Here half the stream is frozen and
        // every task gains fresh post-checkpoint answers, close to the
        // worst case for staleness.
        pruned.full_sweep(&tasks, &plog);
        assert_eq!(pruned.last_report().unwrap().answers_swept, plog.len());
        reference.full_sweep(&tasks, &rlog);
        let delta = pruned.params().max_abs_diff(reference.params());
        assert!(delta < 0.25, "post-prune sweep drifted {delta}");
        assert!(pruned.params().check_invariants());
    }

    #[test]
    fn restore_frozen_validates_function_count() {
        let (tasks, log) = world();
        let mut model =
            OnlineModel::new(&tasks, &log, EmConfig::default(), UpdatePolicy::default());
        let wrong = SufficientStats::new(&tasks, log.n_workers(), 7);
        assert!(!model.restore_frozen(wrong));
        assert!(model.frozen_baseline().is_none());
        let right = SufficientStats::new(&tasks, log.n_workers(), 3);
        assert!(model.restore_frozen(right));
        assert!(model.frozen_baseline().is_some());
    }

    #[test]
    fn fold_peer_stats_pools_worker_quality_and_is_idempotent() {
        let (tasks, log) = world();
        let mut model =
            OnlineModel::new(&tasks, &log, EmConfig::default(), UpdatePolicy::default());
        // A peer saw 4 answer bits by worker 0 with Σ P(i=1|r) = 3.0.
        let delta = WorkerStatDelta {
            source: 9,
            version: 4,
            n_funcs: 3,
            i_sum: vec![3.0],
            worker_bits: vec![4],
            dw_sum: vec![2.0, 1.0, 1.0],
        };
        assert!(model.fold_peer_stats(&tasks, &delta));
        // With no local answers the pooled estimate is the peer's alone.
        assert!((model.params().inherent(WorkerId(0)) - 0.75).abs() < 1e-12);
        assert_eq!(model.params().dw(WorkerId(0)), &[0.5, 0.25, 0.25]);
        assert!(model.params().check_invariants());

        // Re-delivery and stale versions are no-ops.
        assert!(!model.fold_peer_stats(&tasks, &delta));
        let mut stale = delta.clone();
        stale.version = 3;
        assert!(!model.fold_peer_stats(&tasks, &stale));
        assert_eq!(model.peer_stats().version_of(9), Some(4));

        // A newer cumulative delta replaces the old contribution instead of
        // double-counting it.
        let newer = WorkerStatDelta {
            version: 8,
            i_sum: vec![4.0],
            worker_bits: vec![8],
            ..delta
        };
        assert!(model.fold_peer_stats(&tasks, &newer));
        assert!((model.params().inherent(WorkerId(0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fold_marks_covered_workers_dirty_for_the_next_rebuild() {
        let (tasks, log, stream) = sparse_world();
        let policy = UpdatePolicy {
            full_em_every: None,
            full_sweep_every: 16,
            ..UpdatePolicy::default()
        };
        let empty = AnswerLog::new(log.n_tasks(), log.n_workers());
        let mut model = OnlineModel::new(&tasks, &empty, EmConfig::default(), policy);
        for a in &stream {
            model.absorb(&tasks, a);
        }
        model.full_sweep(&tasks, &log);

        // A peer publishes statistics covering exactly worker 0.
        let mut other = model.worker_stat_delta(1, 1);
        for w in 1..other.worker_bits.len() {
            other.worker_bits[w] = 0;
            other.i_sum[w] = 0.0;
            other.dw_sum[w * other.n_funcs..(w + 1) * other.n_funcs].fill(0.0);
        }
        assert!(model.fold_peer_stats(&tasks, &other));

        // The next rebuild is a dirty sweep re-visiting only worker 0's
        // local answers under the pooled quality.
        model.full_em(&tasks, &log);
        let report = model.last_report().unwrap().clone();
        assert!(!report.full_sweep, "fold must not force a full sweep here");
        let by_worker0 = log.answers().iter().filter(|a| a.worker.0 == 0).count();
        assert!(report.answers_swept >= by_worker0);
        assert!(report.answers_swept < log.len() / 2);
        assert!(model.params().check_invariants());
    }
}
