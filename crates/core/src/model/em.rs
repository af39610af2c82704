//! Batch EM parameter estimation (Section III-C of the paper) and the
//! sufficient statistics shared with the incremental variant.
//!
//! Two implementations of the same algorithm live here:
//!
//! * [`run_em`] (cold start) / [`EmRun::run`] (warm start) — the production
//!   path: per-answer terms come from an [`AnswerGeometry`] cache built once
//!   at submit time, the mixture dot products are hoisted to answer level,
//!   and the E-step kernel fills the posterior masses of all of an answer's
//!   label bits as one block of lanes. Each lane evaluates [`factored`]'s
//!   expression for its bit, and every accumulator receives its additions
//!   in the naive order, so the two paths are bit-identical.
//! * [`run_em_naive`] / [`run_em_from_naive`] — the straightforward
//!   per-bit [`factored`] sweep, kept as the reference implementation, the
//!   equivalence-test oracle and the benchmark baseline.
//!
//! # Side-split E-step
//!
//! An [`EmRun`] with two or more `threads` splits each iteration by
//! *side*, not by answers: the calling
//! thread accumulates the task side of the statistics (`Σ P(z)`, `|W(t)|`,
//! `Σ P(d_t)`) and one scoped helper, spawned once for the whole run, the
//! worker side (`Σ P(i)`, bit counts, `Σ P(d_w)`). Both sweep every answer
//! in answer order and fill each answer's bit block themselves, so
//! every accumulator cell receives the same additions in the same order as
//! the sequential sweep — results are **bit-identical by construction**.
//! Each side then runs its own half of the M-step and its own part of the
//! maximum parameter change (`max` is exact), and the two meet once per
//! iteration to trade those changes. The crate-private `model::sweep`
//! module holds the mechanics; `tests/parallel_equivalence.rs` enforces the
//! identity against the naive oracle. `threads = 1` runs both sides in one
//! pass on the calling thread.

use crate::model::geometry::AnswerGeometry;
use crate::model::gossip::{PeerStats, WorkerStatDelta};
use crate::model::params::{TaskParams, WorkerParams};
use crate::model::posterior::{factored, Posterior, PosteriorInputs};
use crate::model::sweep::{self, Llh, Params, Scratch, Step, TaskSide, WorkerSide};
use crate::model::{InitStrategy, ModelParams};
use crate::prob;
use crate::{AnswerLog, DistanceFunctionSet, TaskId, TaskSet, WorkerId};

/// How many threads the EM sweeps (and the ACCOPT candidate scorer) may
/// use.
///
/// `Auto` resolves to the machine's available parallelism at run time;
/// `Fixed(1)` is the sequential sweep. An EM sweep uses at most
/// [`EmParallelism::MAX_SWEEP_THREADS`] threads — the side split has two
/// sides — while ACCOPT scoring uses the full [`EmParallelism::resolve`]
/// count. Snapshots persist the knob (absent ⇒ `Fixed(1)` for back-compat
/// with pre-parallel documents); results are bit-identical across
/// settings, so the knob is a pure throughput choice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum EmParallelism {
    /// Use `std::thread::available_parallelism()` (1 if unavailable).
    #[default]
    Auto,
    /// Use exactly this many threads (clamped to at least 1).
    Fixed(usize),
}

impl EmParallelism {
    /// Sweeps over fewer answers than this run sequentially regardless of
    /// the requested parallelism: below it, the helper thread's start and
    /// its meeting with the caller every iteration cost more than its half
    /// of the sweep saves. Measured as the t1/t2 crossover of the
    /// side-split full sweep on a 2-vCPU host (the `em` bench's `EM_FLOOR=1`
    /// rows, recorded in `BENCH_em.json` → `parallel_full.floor`) on the
    /// Deployment-1 world with 200 workers. [`EmRun::run`] honours its
    /// `threads` field literally (so equivalence tests can exercise the
    /// split on tiny logs); the floor is applied by
    /// [`EmParallelism::effective`], which the
    /// [`OnlineModel`](crate::OnlineModel) calls per rebuild.
    pub const SMALL_LOG_FLOOR: usize = 128;

    /// A sweep also runs sequentially while it covers fewer than one
    /// answer per this many workers the model tracks. The crossover moves
    /// with the worker count: the same probe crosses at about 128 answers
    /// with 200 workers and at about 192–256 with 1500–2000 workers, so
    /// one answer per five workers splits no measured sweep below it.
    pub const WORKERS_PER_SPLIT_ANSWER: usize = 5;

    /// Most threads an EM sweep uses: the task side on the calling thread
    /// and the worker side on one helper.
    pub const MAX_SWEEP_THREADS: usize = 2;

    /// The configured thread count, with `Auto` resolved against the host.
    #[must_use]
    pub fn resolve(self) -> usize {
        match self {
            Self::Auto => std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            Self::Fixed(n) => n.max(1),
        }
    }

    /// The thread count an EM sweep uses: [`EmParallelism::resolve`]
    /// capped at [`EmParallelism::MAX_SWEEP_THREADS`].
    #[must_use]
    pub fn sweep_threads(self) -> usize {
        self.resolve().min(Self::MAX_SWEEP_THREADS)
    }

    /// The thread count actually worth using for a sweep over `n_answers`
    /// of a model tracking `n_workers` workers:
    /// [`EmParallelism::sweep_threads`], floored to 1 below
    /// [`EmParallelism::SMALL_LOG_FLOOR`] answers or below one answer per
    /// [`EmParallelism::WORKERS_PER_SPLIT_ANSWER`] workers.
    #[must_use]
    pub fn effective(self, n_answers: usize, n_workers: usize) -> usize {
        let floor = Self::SMALL_LOG_FLOOR.max(n_workers / Self::WORKERS_PER_SPLIT_ANSWER);
        if n_answers < floor {
            1
        } else {
            self.sweep_threads()
        }
    }
}

/// Configuration of the EM estimator.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct EmConfig {
    /// Weight α of the worker's distance-aware quality versus the POI
    /// influence in Equation 8. The paper sets `α = 0.5`.
    pub alpha: f64,
    /// Convergence threshold on the maximum parameter change between
    /// iterations. The paper's experiments use `0.005` (Figure 10).
    pub tolerance: f64,
    /// Hard cap on EM iterations.
    pub max_iterations: usize,
    /// How `P(z)` is seeded.
    pub init: InitStrategy,
    /// The distance-function set `F`.
    pub fset: DistanceFunctionSet,
}

impl Default for EmConfig {
    fn default() -> Self {
        Self {
            alpha: 0.5,
            tolerance: 0.005,
            max_iterations: 100,
            init: InitStrategy::default(),
            fset: DistanceFunctionSet::paper_default(),
        }
    }
}

/// Diagnostics of one EM run.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct EmReport {
    /// Number of iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was reached before `max_iterations`.
    pub converged: bool,
    /// Whether every E-step swept the whole answer log. `false` marks a
    /// dirty-set run (see [`UpdatePolicy`](crate::UpdatePolicy)) that only
    /// re-swept answers touching dirty tasks/workers.
    pub full_sweep: bool,
    /// Answers visited per E-step iteration: the log size for full sweeps,
    /// the dirty-set size for dirty runs.
    pub answers_swept: usize,
    /// Maximum absolute parameter change after each iteration — the series
    /// plotted in Figure 10 ("maximum variance of parameters").
    pub max_delta_history: Vec<f64>,
    /// Data log-likelihood `Σ ln P(r)` computed during each E-step — over
    /// the swept answers only on dirty runs.
    pub log_likelihood_history: Vec<f64>,
}

impl EmReport {
    /// Records one finished iteration; returns `true` (and marks the run
    /// converged) when `delta` reached `tolerance`.
    pub(crate) fn record(&mut self, delta: f64, log_likelihood: f64, tolerance: f64) -> bool {
        self.iterations += 1;
        self.max_delta_history.push(delta);
        self.log_likelihood_history.push(log_likelihood);
        self.converged = delta <= tolerance;
        self.converged
    }
}

/// Per-parameter accumulators for the M-step (Equation 14).
///
/// The M-step sets every parameter to the mean of the corresponding marginal
/// posterior over the answers that touch it:
///
/// * `P(z_{t,k})` — mean over the `|W(t)|` answers on label `(t, k)`;
/// * `P(i_w)`, `P(d_w)` — mean over the `Σ_{t∈T(w)} |L_t|` answer bits by `w`;
/// * `P(d_t)` — mean over the `|W(t)|·|L_t|` answer bits on `t`.
///
/// (The paper's printed denominator for `P(d_t)` is a worker-side copy;
/// see DESIGN.md §6.1 for why the task-side denominator is the correct one.)
///
/// The accumulators are stored as a task side and a worker side that no
/// cell straddles: each M-step half reads only its own side, which is what
/// lets the side-split E-step accumulate them on two threads.
///
/// The incremental EM (Section III-D) reuses these accumulators: a new
/// answer's posterior is *added* and only the affected parameters recomputed.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SufficientStats {
    n_funcs: usize,
    task: TaskStats,
    worker: WorkerStats,
}

/// The task side of [`SufficientStats`].
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub(crate) struct TaskStats {
    pub(crate) n_funcs: usize,
    /// Σ `P(z=1|r)` per flat label slot.
    pub(crate) z_sum: Vec<f64>,
    /// Number of answers per task (`|W(t)|`).
    pub(crate) task_answers: Vec<u32>,
    /// Σ `P(dt=j|r)` per task × function.
    pub(crate) dt_sum: Vec<f64>,
}

/// The worker side of [`SufficientStats`].
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub(crate) struct WorkerStats {
    pub(crate) n_funcs: usize,
    /// Σ `P(i=1|r)` per worker.
    pub(crate) i_sum: Vec<f64>,
    /// Number of answer bits per worker (`Σ_{t∈T(w)} |L_t|`).
    pub(crate) worker_bits: Vec<u32>,
    /// Σ `P(dw=j|r)` per worker × function.
    pub(crate) dw_sum: Vec<f64>,
}

impl TaskStats {
    fn clear(&mut self) {
        self.z_sum.fill(0.0);
        self.task_answers.fill(0);
        self.dt_sum.fill(0.0);
    }

    /// Resets to `baseline` (a pruned shard's frozen prefix) or to zero.
    pub(crate) fn reset_from(&mut self, baseline: Option<&Self>) {
        match baseline {
            Some(b) => self.clone_from(b),
            None => self.clear(),
        }
    }

    /// Writes the task-side parameters of `t` (its `P(z)` row and `P(d_t)`
    /// mixture). No-op when the task has no answers.
    pub(crate) fn apply(&self, params: &mut TaskParams, tasks: &TaskSet, t: TaskId) {
        let n_answers = self.task_answers[t.index()];
        if n_answers == 0 {
            return;
        }
        let base = tasks.label_offset(t);
        let n_labels = tasks.n_labels(t);
        for k in 0..n_labels {
            params.set_z_slot(base + k, self.z_sum[base + k] / f64::from(n_answers));
        }
        let denom = f64::from(n_answers) * n_labels as f64;
        if denom > 0.0 {
            let tb = t.index() * self.n_funcs;
            let dst = params.dt_mut(t);
            for (j, d) in dst.iter_mut().enumerate() {
                *d = self.dt_sum[tb + j] / denom;
            }
            prob::normalize_simplex(dst);
        }
    }

    /// The task half of the full M-step.
    pub(crate) fn apply_all(&self, params: &mut TaskParams, tasks: &TaskSet) {
        for t in tasks.ids() {
            self.apply(params, tasks, t);
        }
    }

    /// [`TaskStats::apply`] returning the largest absolute change of the
    /// parameters it wrote; `old` is scratch.
    pub(crate) fn apply_tracked(
        &self,
        params: &mut TaskParams,
        tasks: &TaskSet,
        t: TaskId,
        old: &mut Vec<f64>,
    ) -> f64 {
        let base = tasks.label_offset(t);
        let n_labels = tasks.n_labels(t);
        old.clear();
        old.extend((0..n_labels).map(|k| params.z_slot(base + k)));
        old.extend_from_slice(params.dt(t));
        self.apply(params, tasks, t);
        let mut delta = 0.0_f64;
        for (k, &prev) in old[..n_labels].iter().enumerate() {
            delta = delta.max((params.z_slot(base + k) - prev).abs());
        }
        for (j, &prev) in old[n_labels..].iter().enumerate() {
            delta = delta.max((params.dt(t)[j] - prev).abs());
        }
        delta
    }
}

impl WorkerStats {
    fn clear(&mut self) {
        self.i_sum.fill(0.0);
        self.worker_bits.fill(0);
        self.dw_sum.fill(0.0);
    }

    fn ensure(&mut self, n_workers: usize) {
        if n_workers * self.n_funcs > self.dw_sum.len() {
            self.i_sum.resize(n_workers, 0.0);
            self.worker_bits.resize(n_workers, 0);
            self.dw_sum.resize(n_workers * self.n_funcs, 0.0);
        }
    }

    /// Resets to `baseline` (a pruned shard's frozen prefix) or to zero,
    /// covering at least `n_workers` workers.
    pub(crate) fn reset_from(&mut self, baseline: Option<&Self>, n_workers: usize) {
        match baseline {
            Some(b) => self.clone_from(b),
            None => self.clear(),
        }
        self.ensure(n_workers);
    }

    /// The pooled worker M-step for `w`: see
    /// [`SufficientStats::apply_worker_pooled`].
    pub(crate) fn apply_pooled(&self, params: &mut WorkerParams, w: WorkerId, peers: &PeerStats) {
        let own_bits = self.worker_bits.get(w.index()).copied().unwrap_or(0);
        let bits = u64::from(own_bits) + peers.bits(w.index());
        if bits == 0 {
            return;
        }
        #[allow(clippy::cast_precision_loss)] // bit counts stay far below 2^53
        let denom = bits as f64;
        let own_i = self.i_sum.get(w.index()).copied().unwrap_or(0.0);
        params.set_inherent(w, (own_i + peers.i_sum(w.index())) / denom);
        let wb = w.index() * self.n_funcs;
        let peer_dw = peers.dw_sum(w.index());
        let dst = params.dw_mut(w);
        for (j, d) in dst.iter_mut().enumerate() {
            let own = self.dw_sum.get(wb + j).copied().unwrap_or(0.0);
            *d = (own + peer_dw.get(j).copied().unwrap_or(0.0)) / denom;
        }
        prob::normalize_simplex(dst);
    }

    /// The worker half of the full M-step: every worker either this
    /// framework or a peer knows about.
    pub(crate) fn apply_all_pooled(&self, params: &mut WorkerParams, peers: &PeerStats) {
        for w in 0..self.i_sum.len().max(peers.n_workers()) {
            self.apply_pooled(params, WorkerId::from_index(w), peers);
        }
    }

    /// [`WorkerStats::apply_pooled`] returning the largest absolute change
    /// of the parameters it wrote; `old` is scratch.
    pub(crate) fn apply_tracked(
        &self,
        params: &mut WorkerParams,
        w: WorkerId,
        peers: &PeerStats,
        old: &mut Vec<f64>,
    ) -> f64 {
        old.clear();
        old.push(params.inherent(w));
        old.extend_from_slice(params.dw(w));
        self.apply_pooled(params, w, peers);
        let mut delta = (params.inherent(w) - old[0]).abs();
        for (j, &prev) in old[1..].iter().enumerate() {
            delta = delta.max((params.dw(w)[j] - prev).abs());
        }
        delta
    }
}

impl SufficientStats {
    /// Zeroed accumulators for the given shapes.
    #[must_use]
    pub fn new(tasks: &TaskSet, n_workers: usize, n_funcs: usize) -> Self {
        Self {
            n_funcs,
            task: TaskStats {
                n_funcs,
                z_sum: vec![0.0; tasks.total_labels()],
                task_answers: vec![0; tasks.len()],
                dt_sum: vec![0.0; tasks.len() * n_funcs],
            },
            worker: WorkerStats {
                n_funcs,
                i_sum: vec![0.0; n_workers],
                worker_bits: vec![0; n_workers],
                dw_sum: vec![0.0; n_workers * n_funcs],
            },
        }
    }

    /// Resets all accumulators to zero.
    pub fn clear(&mut self) {
        self.task.clear();
        self.worker.clear();
    }

    /// Grows the worker-side accumulators for newly registered workers.
    pub fn ensure_workers(&mut self, n_workers: usize) {
        self.worker.ensure(n_workers);
    }

    /// Resets to `baseline` (or zero) covering at least `n_workers`.
    pub(crate) fn reset_from(&mut self, baseline: Option<&Self>, n_workers: usize) {
        self.task.reset_from(baseline.map(|b| &b.task));
        self.worker
            .reset_from(baseline.map(|b| &b.worker), n_workers);
    }

    /// The two sides, borrowed apart.
    pub(crate) fn sides_mut(&mut self) -> (&mut TaskStats, &mut WorkerStats) {
        (&mut self.task, &mut self.worker)
    }

    /// Marks one answer (all of its label bits will follow via
    /// [`SufficientStats::add_label_bit`]).
    pub fn add_answer(&mut self, task: TaskId, worker: WorkerId, n_labels: usize) {
        self.task.task_answers[task.index()] += 1;
        self.worker.worker_bits[worker.index()] += n_labels as u32;
    }

    /// Accumulates the posterior of one answer bit.
    pub fn add_label_bit(
        &mut self,
        slot: usize,
        task: TaskId,
        worker: WorkerId,
        posterior: &Posterior,
    ) {
        self.task.z_sum[slot] += posterior.z1;
        self.worker.i_sum[worker.index()] += posterior.i1;
        let wb = worker.index() * self.n_funcs;
        let tb = task.index() * self.n_funcs;
        for j in 0..self.n_funcs {
            self.worker.dw_sum[wb + j] += posterior.dw[j];
            self.task.dt_sum[tb + j] += posterior.dt[j];
        }
    }

    /// Removes one answer's previously accumulated posterior contribution
    /// (all of its label bits at once), leaving the answer *counts*
    /// untouched — the answer is still in the log, only its posterior is
    /// about to be recomputed.
    ///
    /// `z1[k]` must be the total `P(z=1|r)` that was added to slot
    /// `base + k`; `i1`, `dw` and `dt` the per-answer sums over bits. The
    /// dirty-set EM performs the same subtraction side by side before it
    /// re-adds an answer under current parameters.
    #[allow(clippy::too_many_arguments)]
    pub fn sub_answer_contrib(
        &mut self,
        base: usize,
        task: TaskId,
        worker: WorkerId,
        z1: &[f64],
        i1: f64,
        dw: &[f64],
        dt: &[f64],
    ) {
        for (k, &z) in z1.iter().enumerate() {
            self.task.z_sum[base + k] -= z;
        }
        self.worker.i_sum[worker.index()] -= i1;
        let wb = worker.index() * self.n_funcs;
        let tb = task.index() * self.n_funcs;
        for j in 0..self.n_funcs {
            self.worker.dw_sum[wb + j] -= dw[j];
            self.task.dt_sum[tb + j] -= dt[j];
        }
    }

    /// Writes the task-side parameters of `t` (its `P(z)` row and `P(d_t)`
    /// mixture) from the accumulators. No-op when the task has no answers.
    pub fn apply_task(&self, params: &mut ModelParams, tasks: &TaskSet, t: TaskId) {
        self.task.apply(params.halves_mut().0, tasks, t);
    }

    /// Writes the worker-side parameters of `w` (`P(i_w)` and the `P(d_w)`
    /// mixture). No-op when the worker has no answers.
    pub fn apply_worker(&self, params: &mut ModelParams, w: WorkerId) {
        self.apply_worker_pooled(params, w, PeerStats::empty_ref());
    }

    /// The pooled worker M-step: `P(i_w)` and `P(d_w)` from this
    /// framework's own accumulators *plus* the peer aggregate, divided by
    /// the pooled bit count. With an empty peer table this is bit-identical
    /// to [`SufficientStats::apply_worker`] (the peer terms add exact
    /// zeros); with gossip data it is exactly the M-step a single
    /// framework holding the union of the answers would perform, modulo
    /// floating-point summation order. No-op when nobody (local or peer)
    /// has bits for the worker.
    pub fn apply_worker_pooled(&self, params: &mut ModelParams, w: WorkerId, peers: &PeerStats) {
        self.worker.apply_pooled(params.halves_mut().1, w, peers);
    }

    /// Full M-step: writes every parameter with a non-zero denominator.
    pub fn apply_all(&self, params: &mut ModelParams, tasks: &TaskSet) {
        self.apply_all_pooled(params, tasks, PeerStats::empty_ref());
    }

    /// Full M-step with the worker side pooled against `peers` — covers
    /// every worker either side knows about (a worker with only remote
    /// answers still gets a pooled quality estimate, which the assigner
    /// reads).
    pub fn apply_all_pooled(&self, params: &mut ModelParams, tasks: &TaskSet, peers: &PeerStats) {
        let (task_params, worker_params) = params.halves_mut();
        self.task.apply_all(task_params, tasks);
        self.worker.apply_all_pooled(worker_params, peers);
    }

    /// Extracts the worker-side accumulators as a publishable
    /// [`WorkerStatDelta`] stamped `(source, version)`. The caller is
    /// responsible for version monotonicity (instances stamp their answer
    /// count, which only grows).
    #[must_use]
    pub fn worker_delta(&self, source: u64, version: u64) -> WorkerStatDelta {
        WorkerStatDelta {
            source,
            version,
            n_funcs: self.n_funcs,
            i_sum: self.worker.i_sum.clone(),
            worker_bits: self.worker.worker_bits.clone(),
            dw_sum: self.worker.dw_sum.clone(),
        }
    }

    /// `|W(t)|` as accumulated.
    #[must_use]
    pub fn task_answer_count(&self, t: TaskId) -> u32 {
        self.task.task_answers[t.index()]
    }

    /// Number of distance functions the accumulators are shaped for.
    #[must_use]
    pub fn n_funcs(&self) -> usize {
        self.n_funcs
    }

    /// Σ `P(z=1|r)` per flat label slot.
    #[must_use]
    pub fn z_sum(&self) -> &[f64] {
        &self.task.z_sum
    }

    /// Answers per task.
    #[must_use]
    pub fn task_answers(&self) -> &[u32] {
        &self.task.task_answers
    }

    /// Σ `P(i=1|r)` per worker.
    #[must_use]
    pub fn i_sum(&self) -> &[f64] {
        &self.worker.i_sum
    }

    /// Answer bits per worker.
    #[must_use]
    pub fn worker_bits(&self) -> &[u32] {
        &self.worker.worker_bits
    }

    /// Σ `P(dw=j|r)` per worker × function.
    #[must_use]
    pub fn dw_sum(&self) -> &[f64] {
        &self.worker.dw_sum
    }

    /// Σ `P(dt=j|r)` per task × function.
    #[must_use]
    pub fn dt_sum(&self) -> &[f64] {
        &self.task.dt_sum
    }

    /// Rebuilds accumulators from persisted parts (a pruned shard's frozen
    /// baseline coming out of a snapshot). Returns `None` when the shapes
    /// are inconsistent with each other.
    #[must_use]
    #[allow(clippy::similar_names)]
    pub fn from_parts(
        n_funcs: usize,
        z_sum: Vec<f64>,
        task_answers: Vec<u32>,
        i_sum: Vec<f64>,
        worker_bits: Vec<u32>,
        dw_sum: Vec<f64>,
        dt_sum: Vec<f64>,
    ) -> Option<Self> {
        if n_funcs == 0
            || worker_bits.len() != i_sum.len()
            || dw_sum.len() != i_sum.len() * n_funcs
            || dt_sum.len() != task_answers.len() * n_funcs
        {
            return None;
        }
        Some(Self {
            n_funcs,
            task: TaskStats {
                n_funcs,
                z_sum,
                task_answers,
                dt_sum,
            },
            worker: WorkerStats {
                n_funcs,
                i_sum,
                worker_bits,
                dw_sum,
            },
        })
    }
}

/// Precomputed per-answer distance-function values: `fvals(i)[j] =
/// f_λj(d_i)` for answer stream position `i`.
///
/// EM evaluates these for every answer in every iteration; hoisting the
/// `exp` calls out of the loop is the single biggest win in the hot path.
#[derive(Debug, Clone)]
pub struct FvalTable {
    n_funcs: usize,
    values: Vec<f64>,
}

impl FvalTable {
    /// Builds the table for every answer currently in `log`.
    #[must_use]
    pub fn build(log: &AnswerLog, fset: &DistanceFunctionSet) -> Self {
        let n_funcs = fset.len();
        let mut values = Vec::with_capacity(log.len() * n_funcs);
        for answer in log.answers() {
            for f in fset.functions() {
                values.push(f.eval(answer.distance));
            }
        }
        Self { n_funcs, values }
    }

    /// Function values for answer stream position `i`.
    #[must_use]
    pub fn fvals(&self, i: usize) -> &[f64] {
        &self.values[i * self.n_funcs..(i + 1) * self.n_funcs]
    }

    /// Number of answers covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len().checked_div(self.n_funcs).unwrap_or(0)
    }

    /// `true` when no answers are covered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

fn empty_report(log: &AnswerLog) -> EmReport {
    EmReport {
        iterations: 0,
        converged: false,
        full_sweep: true,
        answers_swept: log.len(),
        max_delta_history: Vec::new(),
        log_likelihood_history: Vec::new(),
    }
}

/// Runs batch EM to convergence (or `max_iterations`) on the fast
/// (geometry-cached) path, cold-started from `config.init`.
///
/// Returns the estimated parameters and per-iteration diagnostics. With an
/// empty answer log the parameters stay at their initialisation and the
/// report shows zero iterations.
#[must_use]
pub fn run_em(tasks: &TaskSet, log: &AnswerLog, config: &EmConfig) -> (ModelParams, EmReport) {
    let n_workers = log.n_workers();
    let mut params = ModelParams::init(tasks, n_workers, config.fset.len(), config.init, log);
    let geometry = AnswerGeometry::build(tasks, log, &config.fset);
    let report = EmRun {
        tasks,
        log,
        geometry: &geometry,
        config,
        peers: PeerStats::empty_ref(),
        threads: 1,
        baseline: None,
    }
    .run(&mut params);
    (params, report)
}

/// The inputs of one full-sweep batch EM run, warm-started from whatever
/// parameters [`EmRun::run`] is handed — the delayed rebuild of the
/// incremental estimator (Section III-D) and the cold start of [`run_em`].
///
/// Bit-identical to [`run_em_from_naive`] when `peers` is empty, `baseline`
/// is `None` and the parameters match: the per-answer terms are the same
/// arithmetic, hoisted out of the per-bit loop. Bit-identical across every
/// `threads` value.
#[derive(Debug)]
pub struct EmRun<'a> {
    /// The task set the log answers.
    pub tasks: &'a TaskSet,
    /// The answers to sweep.
    pub log: &'a AnswerLog,
    /// The answer-geometry cache; must cover exactly the answers of `log`.
    pub geometry: &'a AnswerGeometry,
    /// The estimator configuration.
    pub config: &'a EmConfig,
    /// Gossiped peer statistics the worker M-step pools against — the
    /// rebuild path of a gossiping instance. [`PeerStats::empty_ref`]
    /// pools nothing.
    pub peers: &'a PeerStats,
    /// E-step threads: `1` runs the sequential sweep, anything more the
    /// two-thread side split (see the module docs). Honoured literally (no
    /// small-log floor) so equivalence tests can drive the split over tiny
    /// and degenerate logs; production callers go through
    /// [`EmParallelism::effective`].
    pub threads: usize,
    /// A frozen baseline each E-step starts from instead of zeroed
    /// accumulators, so answers whose payloads were pruned from `log` still
    /// contribute their checkpointed posteriors to every M-step — the
    /// full-sweep path of a pruned shard. Only the retained suffix is
    /// re-swept under current parameters: the same approximation class as
    /// a dirty-set run.
    pub baseline: Option<&'a SufficientStats>,
}

impl EmRun<'_> {
    /// Runs EM to convergence (or `max_iterations`) starting from, and
    /// updating, `params`.
    ///
    /// # Panics
    /// Panics if `geometry` does not cover exactly the answers of `log`, or
    /// if a provided `baseline` was accumulated for a different function
    /// count.
    pub fn run(&self, params: &mut ModelParams) -> EmReport {
        assert_eq!(
            self.geometry.len(),
            self.log.len(),
            "geometry cache out of sync with the answer log"
        );
        if let Some(b) = self.baseline {
            assert_eq!(
                b.n_funcs,
                self.config.fset.len(),
                "frozen baseline shaped for a different function set"
            );
        }
        let mut report = empty_report(self.log);
        if self.log.is_empty() {
            report.converged = true;
            return report;
        }
        let n_workers = self.log.n_workers().max(self.peers.n_workers());
        params.ensure_workers(n_workers);
        if self.threads > 1 {
            self.side_split(params, &mut report, n_workers);
        } else {
            self.sequential(params, &mut report, n_workers);
        }
        report
    }

    fn new_stats(&self, n_workers: usize) -> SufficientStats {
        SufficientStats::new(self.tasks, n_workers, self.config.fset.len())
    }

    /// Both sides in one pass per iteration, on the calling thread.
    fn sequential(&self, params: &mut ModelParams, report: &mut EmReport, n_workers: usize) {
        let mut stats = self.new_stats(n_workers);
        let mut scratch = Scratch::new(self.config.fset.len());
        let mut previous = params.clone();
        for _ in 0..self.config.max_iterations {
            stats.reset_from(self.baseline, n_workers);
            let mut log_likelihood = 0.0;
            let (task, worker) = stats.sides_mut();
            sweep::sweep(
                &mut (TaskSide::fresh(task), WorkerSide::fresh(worker)),
                Params::of(params),
                self.geometry,
                self.config.alpha,
                self.log.answers().iter().enumerate(),
                &mut scratch,
                Llh::Sum(&mut log_likelihood),
            );

            // M-step (worker side pooled with whatever the peers contributed).
            stats.apply_all_pooled(params, self.tasks, self.peers);
            debug_assert!(params.check_invariants());

            let delta = params.max_abs_diff(&previous);
            previous.clone_from(params);
            if report.record(delta, log_likelihood, self.config.tolerance) {
                break;
            }
        }
    }

    /// The side split: the task side on the calling thread, the worker
    /// side on one helper for the whole run.
    fn side_split(&self, params: &mut ModelParams, report: &mut EmReport, n_workers: usize) {
        let answers = self.log.answers();
        let mid = answers.len() / 2;
        let halves = || {
            [
                sweep::at(answers, 0..mid),
                sweep::at(answers, mid..answers.len()),
            ]
        };
        let (geometry, alpha) = (self.geometry, self.config.alpha);
        let mut stats = self.new_stats(n_workers);
        let (task_stats, worker_stats) = stats.sides_mut();
        let n_funcs = self.config.fset.len();
        let (mut task_scratch, mut worker_scratch) = (Scratch::new(n_funcs), Scratch::new(n_funcs));
        sweep::lockstep(
            params,
            self.config,
            report,
            |step| match step {
                Step::Estep { params, llh } => {
                    task_stats.reset_from(self.baseline.map(|b| &b.task));
                    let side = &mut TaskSide::fresh(task_stats);
                    let scratch = &mut task_scratch;
                    sweep::sweep_halves(side, params, geometry, alpha, halves(), scratch, llh);
                    0.0
                }
                Step::Mstep { params, previous } => {
                    task_stats.apply_all(params, self.tasks);
                    params.max_abs_diff(previous)
                }
            },
            |step| match step {
                Step::Estep { params, llh } => {
                    worker_stats.reset_from(self.baseline.map(|b| &b.worker), n_workers);
                    let side = &mut WorkerSide::fresh(worker_stats);
                    let scratch = &mut worker_scratch;
                    sweep::sweep_halves(side, params, geometry, alpha, halves(), scratch, llh);
                    0.0
                }
                Step::Mstep { params, previous } => {
                    worker_stats.apply_all_pooled(params, self.peers);
                    params.max_abs_diff(previous)
                }
            },
        );
        debug_assert!(params.check_invariants());
    }
}

/// Runs batch EM on the straightforward per-bit path — the reference
/// implementation the optimized path is property-tested against, and the
/// baseline the `em` bench compares to.
#[must_use]
pub fn run_em_naive(
    tasks: &TaskSet,
    log: &AnswerLog,
    config: &EmConfig,
) -> (ModelParams, EmReport) {
    let n_workers = log.n_workers();
    let mut params = ModelParams::init(tasks, n_workers, config.fset.len(), config.init, log);
    let report = run_em_from_naive(tasks, log, config, &mut params);
    (params, report)
}

/// Runs the reference batch EM starting from (and updating) existing
/// parameters: per-iteration [`FvalTable`] lookups, per-bit [`factored`]
/// calls, no hoisting. Kept verbatim as the oracle for the cached path.
pub fn run_em_from_naive(
    tasks: &TaskSet,
    log: &AnswerLog,
    config: &EmConfig,
    params: &mut ModelParams,
) -> EmReport {
    let mut report = empty_report(log);
    if log.is_empty() {
        report.converged = true;
        return report;
    }
    params.ensure_workers(log.n_workers());

    let fvals = FvalTable::build(log, &config.fset);
    let mut stats = SufficientStats::new(tasks, log.n_workers(), config.fset.len());
    let mut scratch = Posterior::zeros(config.fset.len());
    let mut previous = params.clone();

    for _ in 0..config.max_iterations {
        stats.clear();
        let mut log_likelihood = 0.0;

        // E-step over every answer bit.
        for (i, answer) in log.answers().iter().enumerate() {
            let base = tasks.label_offset(answer.task);
            stats.add_answer(answer.task, answer.worker, answer.bits.len());
            for (k, r) in answer.bits.iter().enumerate() {
                let inputs = PosteriorInputs {
                    pz1: params.z_slot(base + k),
                    pi1: params.inherent(answer.worker),
                    pdw: params.dw(answer.worker),
                    pdt: params.dt(answer.task),
                    fvals: fvals.fvals(i),
                    alpha: config.alpha,
                    r,
                };
                factored(&inputs, &mut scratch);
                log_likelihood += scratch.likelihood.max(prob::EPS).ln();
                stats.add_label_bit(base + k, answer.task, answer.worker, &scratch);
            }
        }

        // M-step.
        stats.apply_all(params, tasks);
        debug_assert!(params.check_invariants());

        let delta = params.max_abs_diff(&previous);
        previous.clone_from(params);
        if report.record(delta, log_likelihood, config.tolerance) {
            break;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::synthetic_task;
    use crate::{Answer, LabelBits};
    use crowd_geo::Point;

    /// Two tasks, three workers: w0 and w1 agree (and answer truthfully),
    /// w2 contradicts them everywhere.
    fn conflict_world() -> (TaskSet, AnswerLog) {
        let tasks = TaskSet::new(vec![
            synthetic_task("a", Point::new(0.0, 0.0), 4),
            synthetic_task("b", Point::new(1.0, 0.0), 4),
        ]);
        let truth_a = LabelBits::from_slice(&[true, true, false, false]);
        let truth_b = LabelBits::from_slice(&[true, false, true, false]);
        let flip = |b: &LabelBits| LabelBits::from_slice(&b.iter().map(|x| !x).collect::<Vec<_>>());
        let mut log = AnswerLog::new(tasks.len(), 3);
        for (w, dist) in [(0u32, 0.05), (1u32, 0.1)] {
            log.push(
                &tasks,
                Answer {
                    worker: WorkerId(w),
                    task: TaskId(0),
                    bits: truth_a,
                    distance: dist,
                },
            )
            .unwrap();
            log.push(
                &tasks,
                Answer {
                    worker: WorkerId(w),
                    task: TaskId(1),
                    bits: truth_b,
                    distance: dist,
                },
            )
            .unwrap();
        }
        log.push(
            &tasks,
            Answer {
                worker: WorkerId(2),
                task: TaskId(0),
                bits: flip(&truth_a),
                distance: 0.05,
            },
        )
        .unwrap();
        log.push(
            &tasks,
            Answer {
                worker: WorkerId(2),
                task: TaskId(1),
                bits: flip(&truth_b),
                distance: 0.05,
            },
        )
        .unwrap();
        (tasks, log)
    }

    #[test]
    fn em_converges_and_reports_history() {
        let (tasks, log) = conflict_world();
        let config = EmConfig::default();
        let (params, report) = run_em(&tasks, &log, &config);
        assert!(report.converged, "history {:?}", report.max_delta_history);
        assert_eq!(report.iterations, report.max_delta_history.len());
        assert!(params.check_invariants());
        // Deltas shrink overall (allow local wiggles, require final below
        // tolerance).
        assert!(*report.max_delta_history.last().unwrap() <= config.tolerance);
    }

    #[test]
    fn em_separates_majority_from_dissenter() {
        let (tasks, log) = conflict_world();
        let (params, _) = run_em(&tasks, &log, &EmConfig::default());
        let q_majority = params
            .inherent(WorkerId(0))
            .min(params.inherent(WorkerId(1)));
        let q_dissenter = params.inherent(WorkerId(2));
        assert!(
            q_majority > q_dissenter,
            "majority {q_majority} vs dissenter {q_dissenter}"
        );
        // Inferred labels follow the majority.
        let base = tasks.label_offset(TaskId(0));
        assert!(params.z_slot(base) > 0.5);
        assert!(params.z_slot(base + 2) < 0.5);
    }

    #[test]
    fn em_log_likelihood_is_non_decreasing_in_practice() {
        // Eq. 14's averaging M-step is the paper's heuristic; on this
        // well-behaved instance the likelihood should still improve from
        // first to last iteration.
        let (tasks, log) = conflict_world();
        let (_, report) = run_em(&tasks, &log, &EmConfig::default());
        let first = report.log_likelihood_history.first().unwrap();
        let last = report.log_likelihood_history.last().unwrap();
        assert!(last >= first, "{first} -> {last}");
    }

    #[test]
    fn empty_log_returns_initial_params() {
        let tasks = TaskSet::new(vec![synthetic_task("a", Point::ORIGIN, 3)]);
        let log = AnswerLog::new(tasks.len(), 2);
        let (params, report) = run_em(&tasks, &log, &EmConfig::default());
        assert_eq!(report.iterations, 0);
        assert!(report.converged);
        assert!(params.z().iter().all(|&z| z == 0.5));
    }

    #[test]
    fn max_iterations_respected() {
        let (tasks, log) = conflict_world();
        let config = EmConfig {
            tolerance: 0.0, // unreachable
            max_iterations: 3,
            ..EmConfig::default()
        };
        let (_, report) = run_em(&tasks, &log, &config);
        assert_eq!(report.iterations, 3);
        assert!(!report.converged);
    }

    #[test]
    fn cached_path_is_bit_identical_to_naive() {
        let (tasks, log) = conflict_world();
        let config = EmConfig::default();
        let (fast, fast_report) = run_em(&tasks, &log, &config);
        let (naive, naive_report) = run_em_naive(&tasks, &log, &config);
        assert_eq!(fast, naive, "hoisting must not change a single bit");
        assert_eq!(fast_report, naive_report);
        assert!(fast_report.full_sweep);
        assert_eq!(fast_report.answers_swept, log.len());
    }

    #[test]
    fn sub_answer_contrib_round_trips() {
        let (tasks, log) = conflict_world();
        let config = EmConfig::default();
        let params = ModelParams::init(&tasks, log.n_workers(), 3, InitStrategy::Uniform, &log);
        let mut stats = SufficientStats::new(&tasks, log.n_workers(), 3);
        let mut scratch = Posterior::zeros(3);
        let fvals = FvalTable::build(&log, &config.fset);
        // Accumulate everything, remembering answer 0's contribution.
        let mut z1 = Vec::new();
        let mut i1 = 0.0;
        let mut dw = vec![0.0; 3];
        let mut dt = vec![0.0; 3];
        for (i, answer) in log.answers().iter().enumerate() {
            let base = tasks.label_offset(answer.task);
            stats.add_answer(answer.task, answer.worker, answer.bits.len());
            for (k, r) in answer.bits.iter().enumerate() {
                let inputs = PosteriorInputs {
                    pz1: params.z_slot(base + k),
                    pi1: params.inherent(answer.worker),
                    pdw: params.dw(answer.worker),
                    pdt: params.dt(answer.task),
                    fvals: fvals.fvals(i),
                    alpha: config.alpha,
                    r,
                };
                factored(&inputs, &mut scratch);
                stats.add_label_bit(base + k, answer.task, answer.worker, &scratch);
                if i == 0 {
                    z1.push(scratch.z1);
                    i1 += scratch.i1;
                    for j in 0..3 {
                        dw[j] += scratch.dw[j];
                        dt[j] += scratch.dt[j];
                    }
                }
            }
        }
        // Subtracting answer 0 then re-adding it restores the sums.
        let reference = stats.clone();
        let a0 = log.answers()[0];
        let base = tasks.label_offset(a0.task);
        stats.sub_answer_contrib(base, a0.task, a0.worker, &z1, i1, &dw, &dt);
        assert_ne!(stats, reference);
        for (k, &z) in z1.iter().enumerate() {
            stats.task.z_sum[base + k] += z;
        }
        stats.worker.i_sum[a0.worker.index()] += i1;
        for j in 0..3 {
            stats.worker.dw_sum[a0.worker.index() * 3 + j] += dw[j];
            stats.task.dt_sum[a0.task.index() * 3 + j] += dt[j];
        }
        for (a, b) in stats.z_sum().iter().zip(reference.z_sum()) {
            assert!((a - b).abs() < 1e-12);
        }
        for (a, b) in stats.dw_sum().iter().zip(reference.dw_sum()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn fval_table_matches_direct_evaluation() {
        let (_, log) = conflict_world();
        let fset = DistanceFunctionSet::paper_default();
        let table = FvalTable::build(&log, &fset);
        assert_eq!(table.len(), log.len());
        for (i, answer) in log.answers().iter().enumerate() {
            assert_eq!(table.fvals(i), fset.values(answer.distance).as_slice());
        }
    }

    #[test]
    fn uniform_and_vote_share_init_agree_on_decisions() {
        let (tasks, log) = conflict_world();
        let mut config = EmConfig::default();
        let (p1, _) = run_em(&tasks, &log, &config);
        config.init = InitStrategy::Uniform;
        let (p2, _) = run_em(&tasks, &log, &config);
        for slot in 0..tasks.total_labels() {
            assert_eq!(
                p1.z_slot(slot) >= 0.5,
                p2.z_slot(slot) >= 0.5,
                "slot {slot}: {} vs {}",
                p1.z_slot(slot),
                p2.z_slot(slot)
            );
        }
    }
}
