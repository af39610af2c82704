//! The location-aware inference model (Section III of the paper).
//!
//! Layout:
//! * [`params`] — the estimated quantities `P(z)`, `P(i_w)`, `P(d_w)`,
//!   `P(d_t)` in flat id-indexed storage;
//! * [`posterior`] — the E-step joint posterior of Equation 12, in a naive
//!   `O(|F|²)` form (test oracle), the factorised `O(|F|)` form, and the
//!   prepared per-answer form used by production hot loops;
//! * [`geometry`] — the append-only answer-geometry cache: per-answer
//!   distance-function values and label-slot layout built once at submit
//!   time and shared by every inference path;
//! * [`em`] — batch EM (Equation 14) with convergence diagnostics, in a
//!   geometry-cached fast path and a naive reference path;
//! * `sweep` — the E-step sweep every EM path shares and its two-thread
//!   side split (task side on the caller, worker side on one helper);
//! * [`incremental`] — the online estimator: per-answer incremental EM plus
//!   the delayed rebuild of Section III-D (full-sweep or dirty-set);
//! * [`gossip`] — the mergeable, versioned worker-statistic deltas that
//!   sharded deployments exchange so every instance estimates worker
//!   quality from the pooled answer set.

pub mod em;
pub mod geometry;
pub mod gossip;
pub mod incremental;
pub mod params;
pub mod posterior;
pub(crate) mod sweep;

pub use em::{
    run_em, run_em_from_naive, run_em_naive, EmConfig, EmParallelism, EmReport, EmRun, FvalTable,
    SufficientStats,
};
pub use geometry::AnswerGeometry;
pub use gossip::{PeerStats, WorkerStatDelta};
pub use incremental::{OnlineModel, UpdatePolicy};
pub use params::{InitStrategy, ModelParams, PRIOR_INHERENT_QUALITY};
pub use posterior::{factored, naive, AnswerTerms, Posterior, PosteriorInputs};

use crate::{LabelBits, TaskId, TaskSet};

/// Hardened inference output: per-label probabilities and binary decisions.
///
/// A label is inferred correct when `P(z_{t,k} = 1) ≥ 0.5` (Section III-B).
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct InferenceResult {
    pz1: Vec<f64>,
    offsets: Vec<u32>,
    decisions: Vec<LabelBits>,
}

impl InferenceResult {
    /// Extracts the inference from estimated parameters.
    #[must_use]
    pub fn from_params(tasks: &TaskSet, params: &ModelParams) -> Self {
        let mut offsets = Vec::with_capacity(tasks.len() + 1);
        offsets.push(0u32);
        let mut decisions = Vec::with_capacity(tasks.len());
        for task in tasks.iter() {
            let base = tasks.label_offset(task.id);
            let mut bits = LabelBits::zeros(task.n_labels());
            for k in 0..task.n_labels() {
                bits.set(k, params.z_slot(base + k) >= 0.5);
            }
            decisions.push(bits);
            offsets.push(offsets.last().unwrap() + task.n_labels() as u32);
        }
        Self {
            pz1: params.z().to_vec(),
            offsets,
            decisions,
        }
    }

    /// Builds a result directly from probabilities (used by baseline
    /// inference methods that produce per-label `P(z = 1)` estimates).
    ///
    /// # Panics
    /// Panics if `pz1.len()` does not equal the task set's total label count.
    #[must_use]
    pub fn from_probabilities(tasks: &TaskSet, pz1: Vec<f64>) -> Self {
        assert_eq!(
            pz1.len(),
            tasks.total_labels(),
            "probability count mismatch"
        );
        let mut offsets = Vec::with_capacity(tasks.len() + 1);
        offsets.push(0u32);
        let mut decisions = Vec::with_capacity(tasks.len());
        for task in tasks.iter() {
            let base = tasks.label_offset(task.id);
            let mut bits = LabelBits::zeros(task.n_labels());
            for k in 0..task.n_labels() {
                bits.set(k, pz1[base + k] >= 0.5);
            }
            decisions.push(bits);
            offsets.push(offsets.last().unwrap() + task.n_labels() as u32);
        }
        Self {
            pz1,
            offsets,
            decisions,
        }
    }

    /// Number of tasks covered.
    #[must_use]
    pub fn n_tasks(&self) -> usize {
        self.decisions.len()
    }

    /// `P(z_{t,k} = 1)`.
    #[must_use]
    pub fn pz1(&self, task: TaskId, k: usize) -> f64 {
        self.pz1[self.offsets[task.index()] as usize + k]
    }

    /// The inferred label vector for `task`.
    #[must_use]
    pub fn decision(&self, task: TaskId) -> LabelBits {
        self.decisions[task.index()]
    }

    /// All decisions in task order.
    #[must_use]
    pub fn decisions(&self) -> &[LabelBits] {
        &self.decisions
    }

    /// All probabilities, flat in label-slot order.
    #[must_use]
    pub fn probabilities(&self) -> &[f64] {
        &self.pz1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::synthetic_task;
    use crate::AnswerLog;
    use crowd_geo::Point;

    #[test]
    fn decisions_threshold_at_half() {
        let tasks = TaskSet::new(vec![synthetic_task("a", Point::ORIGIN, 3)]);
        let result = InferenceResult::from_probabilities(&tasks, vec![0.49, 0.5, 0.81]);
        let d = result.decision(TaskId(0));
        assert!(!d.get(0));
        assert!(d.get(1)); // boundary counts as correct per "≥ 0.5"
        assert!(d.get(2));
        assert_eq!(result.pz1(TaskId(0), 2), 0.81);
        assert_eq!(result.n_tasks(), 1);
    }

    #[test]
    fn from_params_round_trips_probabilities() {
        let tasks = TaskSet::new(vec![
            synthetic_task("a", Point::ORIGIN, 2),
            synthetic_task("b", Point::new(1.0, 0.0), 2),
        ]);
        let log = AnswerLog::new(tasks.len(), 1);
        let mut params = ModelParams::init(&tasks, 1, 3, InitStrategy::Uniform, &log);
        params.set_z_slot(0, 0.9);
        params.set_z_slot(3, 0.1);
        let result = InferenceResult::from_params(&tasks, &params);
        assert!(result.decision(TaskId(0)).get(0));
        assert!(!result.decision(TaskId(1)).get(1));
        assert_eq!(result.probabilities().len(), 4);
    }

    #[test]
    #[should_panic(expected = "probability count mismatch")]
    fn from_probabilities_validates_length() {
        let tasks = TaskSet::new(vec![synthetic_task("a", Point::ORIGIN, 3)]);
        let _ = InferenceResult::from_probabilities(&tasks, vec![0.5; 2]);
    }
}
