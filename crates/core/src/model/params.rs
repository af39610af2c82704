//! Model parameters: `P(z_{t,k})`, `P(i_w)`, `P(d_w)`, `P(d_t)`.

use crate::prob;
use crate::{AnswerLog, TaskId, TaskSet, WorkerId};

/// How `P(z_{t,k} = 1)` is seeded before the first EM iteration.
///
/// The paper does not specify the initialisation; both options below are
/// supported and compared by an ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum InitStrategy {
    /// Uninformative `P(z) = 0.5` everywhere.
    Uniform,
    /// Seed `P(z)` with the per-label "yes"-vote share (the MV signal);
    /// labels with no answers fall back to `0.5`. This breaks the z/1−z
    /// symmetry and converges measurably faster (default).
    #[default]
    VoteShare,
}

/// All estimated parameters of the graphical model.
///
/// Storage is flat and id-indexed:
/// * `z[slot]` — `P(z_{t,k} = 1)` where `slot = tasks.label_slot(t, k)`;
/// * `iw[w]` — `P(i_w = 1)` (worker inherent quality, Definition 2);
/// * `dw[w · |F| + j]` — `P(d_w = f_λj)` (distance-aware quality weights,
///   Definition 5);
/// * `dt[t · |F| + j]` — `P(d_t = f_λj)` (POI-influence weights,
///   Definition 6).
///
/// The task half (`P(z)`, `P(d_t)`) and the worker half (`P(i_w)`,
/// `P(d_w)`) are stored apart: the M-step writes each half from its own
/// side of the sufficient statistics, which lets the side-split E-step
/// hand the halves to two threads.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ModelParams {
    n_funcs: usize,
    n_tasks: usize,
    n_workers: usize,
    task: TaskParams,
    worker: WorkerParams,
}

/// The task half of [`ModelParams`]: `P(z)` per flat label slot and the
/// `P(d_t)` mixtures.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub(crate) struct TaskParams {
    n_funcs: usize,
    z: Vec<f64>,
    dt: Vec<f64>,
}

impl TaskParams {
    pub(crate) fn z_slot(&self, slot: usize) -> f64 {
        self.z[slot]
    }

    pub(crate) fn z_slots(&self, slots: std::ops::Range<usize>) -> &[f64] {
        &self.z[slots]
    }

    pub(crate) fn set_z_slot(&mut self, slot: usize, value: f64) {
        self.z[slot] = prob::clamp_prob(value);
    }

    pub(crate) fn dt(&self, t: TaskId) -> &[f64] {
        let base = t.index() * self.n_funcs;
        &self.dt[base..base + self.n_funcs]
    }

    pub(crate) fn dt_mut(&mut self, t: TaskId) -> &mut [f64] {
        let base = t.index() * self.n_funcs;
        &mut self.dt[base..base + self.n_funcs]
    }

    /// Maximum absolute difference over `P(z)` then `P(d_t)`.
    pub(crate) fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.z.len(), other.z.len(), "shape mismatch");
        let pairs = self
            .z
            .iter()
            .zip(&other.z)
            .chain(self.dt.iter().zip(&other.dt));
        pairs.map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
    }
}

/// The worker half of [`ModelParams`]: `P(i_w)` and the `P(d_w)` mixtures.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub(crate) struct WorkerParams {
    n_funcs: usize,
    iw: Vec<f64>,
    dw: Vec<f64>,
}

impl WorkerParams {
    pub(crate) fn inherent(&self, w: WorkerId) -> f64 {
        self.iw[w.index()]
    }

    pub(crate) fn set_inherent(&mut self, w: WorkerId, value: f64) {
        self.iw[w.index()] = prob::clamp_prob(value);
    }

    pub(crate) fn dw(&self, w: WorkerId) -> &[f64] {
        let base = w.index() * self.n_funcs;
        &self.dw[base..base + self.n_funcs]
    }

    pub(crate) fn dw_mut(&mut self, w: WorkerId) -> &mut [f64] {
        let base = w.index() * self.n_funcs;
        &mut self.dw[base..base + self.n_funcs]
    }

    /// Maximum absolute difference over `P(i_w)` then `P(d_w)`.
    pub(crate) fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.iw.len(), other.iw.len(), "shape mismatch");
        let pairs = self
            .iw
            .iter()
            .zip(&other.iw)
            .chain(self.dw.iter().zip(&other.dw));
        pairs.map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
    }
}

/// Prior worker inherent quality used at initialisation: most platform
/// workers are qualified, a minority are spammers (the paper's data analysis
/// in Figure 6 shows roughly an 80/20 split).
pub const PRIOR_INHERENT_QUALITY: f64 = 0.8;

impl ModelParams {
    /// Initialises parameters for `tasks` and `n_workers` workers over a
    /// distance-function set of size `n_funcs`.
    ///
    /// Mixtures start uniform; `P(i_w)` starts at
    /// [`PRIOR_INHERENT_QUALITY`]; `P(z)` per `strategy` (needs the answer
    /// `log` for [`InitStrategy::VoteShare`]).
    #[must_use]
    pub fn init(
        tasks: &TaskSet,
        n_workers: usize,
        n_funcs: usize,
        strategy: InitStrategy,
        log: &AnswerLog,
    ) -> Self {
        assert!(n_funcs > 0, "distance function set must be non-empty");
        let uniform = 1.0 / n_funcs as f64;
        let mut params = Self {
            n_funcs,
            n_tasks: tasks.len(),
            n_workers,
            task: TaskParams {
                n_funcs,
                z: vec![0.5; tasks.total_labels()],
                dt: vec![uniform; tasks.len() * n_funcs],
            },
            worker: WorkerParams {
                n_funcs,
                iw: vec![PRIOR_INHERENT_QUALITY; n_workers],
                dw: vec![uniform; n_workers * n_funcs],
            },
        };
        if strategy == InitStrategy::VoteShare {
            params.seed_vote_share(tasks, log);
        }
        params
    }

    fn seed_vote_share(&mut self, tasks: &TaskSet, log: &AnswerLog) {
        for task in tasks.iter() {
            let n = log.n_answers_on(task.id);
            if n == 0 {
                continue;
            }
            let base = tasks.label_offset(task.id);
            for k in 0..task.n_labels() {
                let yes = log.answers_on(task.id).filter(|a| a.bits.get(k)).count();
                self.task.z[base + k] = prob::clamp_prob(yes as f64 / n as f64);
            }
        }
    }

    /// Rebuilds a parameter set from its flat storage vectors — the inverse
    /// of the flat accessors ([`ModelParams::z`], [`ModelParams::inherent_all`],
    /// [`ModelParams::dw_flat`], [`ModelParams::dt_flat`]), used by snapshot
    /// restore to re-seed a model from persisted parameters.
    ///
    /// `z` is *not* shape-checked against a task set here (the caller knows
    /// its label layout); the worker/task counts are derived from the vector
    /// lengths, which must be consistent with `n_funcs`.
    ///
    /// # Errors
    /// Returns `None` when the shapes are inconsistent (`dw`/`dt` not a
    /// multiple of `n_funcs`, `iw` disagreeing with `dw`) or any value is
    /// not a valid probability / simplex (within the usual tolerance).
    #[must_use]
    pub fn from_parts(
        n_funcs: usize,
        z: Vec<f64>,
        iw: Vec<f64>,
        dw: Vec<f64>,
        dt: Vec<f64>,
    ) -> Option<Self> {
        if n_funcs == 0 || dw.len() % n_funcs != 0 || dt.len() % n_funcs != 0 {
            return None;
        }
        if iw.len() * n_funcs != dw.len() {
            return None;
        }
        let params = Self {
            n_funcs,
            n_tasks: dt.len() / n_funcs,
            n_workers: iw.len(),
            task: TaskParams { n_funcs, z, dt },
            worker: WorkerParams { n_funcs, iw, dw },
        };
        params.check_invariants().then_some(params)
    }

    /// `|F|` — the number of distance functions.
    #[must_use]
    pub fn n_funcs(&self) -> usize {
        self.n_funcs
    }

    /// Number of tasks covered.
    #[must_use]
    pub fn n_tasks(&self) -> usize {
        self.n_tasks
    }

    /// Number of workers covered.
    #[must_use]
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// `P(z = 1)` for the flat label slot (see [`TaskSet::label_slot`]).
    #[must_use]
    pub fn z_slot(&self, slot: usize) -> f64 {
        self.task.z_slot(slot)
    }

    /// Sets `P(z = 1)` for a flat label slot (clamped).
    pub fn set_z_slot(&mut self, slot: usize, value: f64) {
        self.task.set_z_slot(slot, value);
    }

    /// All `P(z = 1)` values, flat.
    #[must_use]
    pub fn z(&self) -> &[f64] {
        &self.task.z
    }

    /// `P(i_w = 1)` — the worker's inherent quality.
    #[must_use]
    pub fn inherent(&self, w: WorkerId) -> f64 {
        self.worker.inherent(w)
    }

    /// All `P(i_w = 1)` values, flat by worker id (snapshot encoding).
    #[must_use]
    pub fn inherent_all(&self) -> &[f64] {
        &self.worker.iw
    }

    /// All `P(d_w)` mixture weights, flat worker-major (snapshot encoding).
    #[must_use]
    pub fn dw_flat(&self) -> &[f64] {
        &self.worker.dw
    }

    /// All `P(d_t)` mixture weights, flat task-major (snapshot encoding).
    #[must_use]
    pub fn dt_flat(&self) -> &[f64] {
        &self.task.dt
    }

    /// Sets `P(i_w = 1)` (clamped).
    pub fn set_inherent(&mut self, w: WorkerId, value: f64) {
        self.worker.set_inherent(w, value);
    }

    /// Mixture weights `P(d_w = f_λj)` for worker `w`.
    #[must_use]
    pub fn dw(&self, w: WorkerId) -> &[f64] {
        self.worker.dw(w)
    }

    /// Mutable mixture weights for worker `w` (renormalise after writing!).
    pub fn dw_mut(&mut self, w: WorkerId) -> &mut [f64] {
        self.worker.dw_mut(w)
    }

    /// Mixture weights `P(d_t = f_λj)` for task `t`.
    #[must_use]
    pub fn dt(&self, t: TaskId) -> &[f64] {
        self.task.dt(t)
    }

    /// Mutable mixture weights for task `t` (renormalise after writing!).
    pub fn dt_mut(&mut self, t: TaskId) -> &mut [f64] {
        self.task.dt_mut(t)
    }

    /// Grows the worker-side parameters when workers register
    /// mid-campaign; new workers get prior values.
    pub fn ensure_workers(&mut self, n_workers: usize) {
        if n_workers <= self.n_workers {
            return;
        }
        self.worker.iw.resize(n_workers, PRIOR_INHERENT_QUALITY);
        self.worker
            .dw
            .resize(n_workers * self.n_funcs, 1.0 / self.n_funcs as f64);
        self.n_workers = n_workers;
    }

    /// Maximum absolute difference across all parameters — the paper's
    /// convergence measure ("maximum variance of parameters", Figure 10).
    /// The maximum of the two halves' maxima: `max` is exact, so splitting
    /// it changes nothing.
    ///
    /// # Panics
    /// Panics if the two parameter sets have different shapes.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        self.task
            .max_abs_diff(&other.task)
            .max(self.worker.max_abs_diff(&other.worker))
    }

    /// The two halves.
    pub(crate) fn halves(&self) -> (&TaskParams, &WorkerParams) {
        (&self.task, &self.worker)
    }

    /// The two halves, borrowed apart so each side of the split E-step
    /// can own one.
    pub(crate) fn halves_mut(&mut self) -> (&mut TaskParams, &mut WorkerParams) {
        (&mut self.task, &mut self.worker)
    }

    /// Debug invariant: every probability valid, every mixture a simplex.
    #[must_use]
    pub fn check_invariants(&self) -> bool {
        self.task.z.iter().all(|&p| prob::is_prob(p))
            && self.worker.iw.iter().all(|&p| prob::is_prob(p))
            && self
                .worker
                .dw
                .chunks_exact(self.n_funcs.max(1))
                .all(|c| prob::is_simplex(c, 1e-6))
            && self
                .task
                .dt
                .chunks_exact(self.n_funcs.max(1))
                .all(|c| prob::is_simplex(c, 1e-6))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::synthetic_task;
    use crate::{Answer, LabelBits};
    use crowd_geo::Point;

    fn small_world() -> (TaskSet, AnswerLog) {
        let tasks = TaskSet::new(vec![
            synthetic_task("a", Point::new(0.0, 0.0), 3),
            synthetic_task("b", Point::new(1.0, 0.0), 2),
        ]);
        let mut log = AnswerLog::new(tasks.len(), 2);
        log.push(
            &tasks,
            Answer {
                worker: WorkerId(0),
                task: TaskId(0),
                bits: LabelBits::from_slice(&[true, true, false]),
                distance: 0.1,
            },
        )
        .unwrap();
        log.push(
            &tasks,
            Answer {
                worker: WorkerId(1),
                task: TaskId(0),
                bits: LabelBits::from_slice(&[true, false, false]),
                distance: 0.5,
            },
        )
        .unwrap();
        (tasks, log)
    }

    #[test]
    fn uniform_init_shapes_and_values() {
        let (tasks, log) = small_world();
        let p = ModelParams::init(&tasks, 2, 3, InitStrategy::Uniform, &log);
        assert_eq!(p.z().len(), 5);
        assert!(p.z().iter().all(|&v| v == 0.5));
        assert_eq!(p.inherent(WorkerId(0)), PRIOR_INHERENT_QUALITY);
        assert_eq!(p.dw(WorkerId(1)), &[1.0 / 3.0; 3]);
        assert_eq!(p.dt(TaskId(1)), &[1.0 / 3.0; 3]);
        assert!(p.check_invariants());
    }

    #[test]
    fn vote_share_init_uses_answer_fractions() {
        let (tasks, log) = small_world();
        let p = ModelParams::init(&tasks, 2, 3, InitStrategy::VoteShare, &log);
        // label 0 of task 0: 2/2 yes (clamped below 1).
        assert!(p.z_slot(0) > 0.99);
        // label 1: 1/2 yes.
        assert!((p.z_slot(1) - 0.5).abs() < 1e-9);
        // label 2: 0/2 yes (clamped above 0).
        assert!(p.z_slot(2) < 0.01);
        // task 1 has no answers: stays at 0.5.
        assert_eq!(p.z_slot(tasks.label_slot(TaskId(1), 0)), 0.5);
        assert!(p.check_invariants());
    }

    #[test]
    fn setters_clamp() {
        let (tasks, log) = small_world();
        let mut p = ModelParams::init(&tasks, 2, 3, InitStrategy::Uniform, &log);
        p.set_z_slot(0, 1.5);
        assert!(p.z_slot(0) < 1.0);
        p.set_inherent(WorkerId(0), -3.0);
        assert!(p.inherent(WorkerId(0)) > 0.0);
        assert!(p.check_invariants());
    }

    #[test]
    fn ensure_workers_extends_with_priors() {
        let (tasks, log) = small_world();
        let mut p = ModelParams::init(&tasks, 2, 3, InitStrategy::Uniform, &log);
        p.ensure_workers(4);
        assert_eq!(p.n_workers(), 4);
        assert_eq!(p.inherent(WorkerId(3)), PRIOR_INHERENT_QUALITY);
        assert_eq!(p.dw(WorkerId(3)), &[1.0 / 3.0; 3]);
        // No shrink.
        p.ensure_workers(1);
        assert_eq!(p.n_workers(), 4);
    }

    #[test]
    fn max_abs_diff_detects_largest_change() {
        let (tasks, log) = small_world();
        let a = ModelParams::init(&tasks, 2, 3, InitStrategy::Uniform, &log);
        let mut b = a.clone();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b.set_z_slot(2, 0.9);
        assert!((a.max_abs_diff(&b) - 0.4).abs() < 1e-9);
        b.set_inherent(WorkerId(0), 0.2);
        assert!((a.max_abs_diff(&b) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn from_parts_round_trips_flat_storage() {
        let (tasks, log) = small_world();
        let mut p = ModelParams::init(&tasks, 2, 3, InitStrategy::VoteShare, &log);
        p.set_inherent(WorkerId(1), 0.3);
        let rebuilt = ModelParams::from_parts(
            p.n_funcs(),
            p.z().to_vec(),
            p.inherent_all().to_vec(),
            p.dw_flat().to_vec(),
            p.dt_flat().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, p);
        // Inconsistent shapes and invalid probabilities are rejected.
        assert!(ModelParams::from_parts(0, vec![], vec![], vec![], vec![]).is_none());
        assert!(ModelParams::from_parts(3, vec![0.5], vec![0.5], vec![0.5; 4], vec![]).is_none());
        assert!(
            ModelParams::from_parts(2, vec![1.5], vec![0.5], vec![0.5; 2], vec![0.5; 2]).is_none(),
            "out-of-range probability must be rejected"
        );
    }

    #[test]
    fn mutable_mixture_views_are_disjoint_per_id() {
        let (tasks, log) = small_world();
        let mut p = ModelParams::init(&tasks, 2, 3, InitStrategy::Uniform, &log);
        p.dw_mut(WorkerId(0)).copy_from_slice(&[1.0, 0.0, 0.0]);
        assert_eq!(p.dw(WorkerId(0)), &[1.0, 0.0, 0.0]);
        assert_eq!(p.dw(WorkerId(1)), &[1.0 / 3.0; 3]);
    }
}
