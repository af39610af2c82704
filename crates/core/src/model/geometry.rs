//! The answer-geometry cache: per-answer terms that never change once the
//! answer is logged, precomputed at submit time and shared by every
//! inference path.
//!
//! EM's E-step evaluates, for every answer in every iteration, the distance
//! function values `f_λj(d(w, t))` and the answer's flat label-slot base.
//! Both are pure functions of the (immutable) answer record, so the
//! [`OnlineModel`](crate::OnlineModel) appends them to this cache exactly
//! once per submission and the batch, dirty-set and incremental estimators
//! all read the same flat matrix instead of recomputing `exp` calls and
//! offset lookups per iteration.

use crate::{Answer, AnswerLog, DistanceFunctionSet, TaskSet};

/// Append-only flat matrix of per-answer precomputed geometry.
///
/// For answer stream position `i` (matching [`AnswerLog`] arrival order):
/// * `fvals(i)[j] = f_λj(d_i)` — the distance-function values;
/// * `base(i)` — the flat label-slot offset of the answer's task;
/// * `bit_range(i)` — the answer's span in the global bit stream (one slot
///   per label verdict), used to index per-answer statistic caches.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AnswerGeometry {
    n_funcs: usize,
    /// `f_λj(d_i)`, flat: answer-major, function-minor.
    fvals: Vec<f64>,
    /// Flat label-slot base of the answer's task.
    base: Vec<u32>,
    /// Cumulative label-bit offsets; `len() + 1` entries.
    bit_offset: Vec<u32>,
}

impl AnswerGeometry {
    /// An empty cache for a distance-function set of size `n_funcs`.
    #[must_use]
    pub fn new(n_funcs: usize) -> Self {
        assert!(n_funcs > 0, "distance function set must be non-empty");
        Self {
            n_funcs,
            fvals: Vec::new(),
            base: Vec::new(),
            bit_offset: vec![0],
        }
    }

    /// Builds the cache for every answer already in `log`.
    #[must_use]
    pub fn build(tasks: &TaskSet, log: &AnswerLog, fset: &DistanceFunctionSet) -> Self {
        let mut out = Self::new(fset.len());
        out.sync(tasks, log, fset);
        out
    }

    /// Appends the geometry of one just-logged answer. Call in arrival
    /// order: entry `i` must describe `log.answers()[i]`.
    ///
    /// # Panics
    /// Panics if the task's label-slot base or the cumulative label-bit
    /// count exceeds `u32::MAX` — failing loudly beats silently aliasing
    /// earlier answers' slots.
    pub fn push(&mut self, tasks: &TaskSet, fset: &DistanceFunctionSet, answer: &Answer) {
        debug_assert_eq!(fset.len(), self.n_funcs);
        for f in fset.functions() {
            self.fvals.push(f.eval(answer.distance));
        }
        self.base.push(
            u32::try_from(tasks.label_offset(answer.task)).expect("label slots exceed u32 range"),
        );
        let last = *self.bit_offset.last().expect("non-empty offsets");
        let bits = u32::try_from(answer.bits.len()).expect("label count exceeds u32 range");
        self.bit_offset
            .push(last.checked_add(bits).expect("label bits exceed u32 range"));
    }

    /// Catches up with `log`: appends entries for any answers logged beyond
    /// the cache's current length. A no-op when already in sync.
    pub fn sync(&mut self, tasks: &TaskSet, log: &AnswerLog, fset: &DistanceFunctionSet) {
        for answer in &log.answers()[self.len()..] {
            self.push(tasks, fset, answer);
        }
    }

    /// Number of answers covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// `true` when no answers are covered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// `|F|` — functions per answer.
    #[must_use]
    pub fn n_funcs(&self) -> usize {
        self.n_funcs
    }

    /// Total label bits across all covered answers.
    #[must_use]
    pub fn total_bits(&self) -> usize {
        *self.bit_offset.last().expect("non-empty offsets") as usize
    }

    /// Precomputed function values for answer stream position `i`.
    #[must_use]
    pub fn fvals(&self, i: usize) -> &[f64] {
        &self.fvals[i * self.n_funcs..(i + 1) * self.n_funcs]
    }

    /// The flat label-slot base of answer `i`'s task.
    #[must_use]
    pub fn base(&self, i: usize) -> usize {
        self.base[i] as usize
    }

    /// Answer `i`'s span in the global label-bit stream.
    #[must_use]
    pub fn bit_range(&self, i: usize) -> std::ops::Range<usize> {
        self.bit_offset[i] as usize..self.bit_offset[i + 1] as usize
    }

    /// Drops all entries (the task set changed; offsets are invalid).
    pub fn clear(&mut self) {
        self.fvals.clear();
        self.base.clear();
        self.bit_offset.truncate(1);
    }
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
            synthetic_task("b", Point::new(1.0, 0.0), 2),
        ]);
        let mut log = AnswerLog::new(tasks.len(), 2);
        for (w, t, d) in [(0u32, 1u32, 0.3), (1, 0, 0.7), (0, 0, 0.05)] {
            let n = tasks.n_labels(TaskId(t));
            log.push(
                &tasks,
                crate::Answer {
                    worker: WorkerId(w),
                    task: TaskId(t),
                    bits: LabelBits::zeros(n),
                    distance: d,
                },
            )
            .unwrap();
        }
        (tasks, log)
    }

    #[test]
    fn build_matches_direct_evaluation() {
        let (tasks, log) = world();
        let fset = DistanceFunctionSet::paper_default();
        let geo = AnswerGeometry::build(&tasks, &log, &fset);
        assert_eq!(geo.len(), log.len());
        assert_eq!(geo.n_funcs(), 3);
        for (i, answer) in log.answers().iter().enumerate() {
            assert_eq!(geo.fvals(i), fset.values(answer.distance).as_slice());
            assert_eq!(geo.base(i), tasks.label_offset(answer.task));
        }
    }

    #[test]
    fn bit_ranges_partition_the_bit_stream() {
        let (tasks, log) = world();
        let fset = DistanceFunctionSet::paper_default();
        let geo = AnswerGeometry::build(&tasks, &log, &fset);
        // Answers: task 1 (2 labels), task 0 (3), task 0 (3) → 8 bits.
        assert_eq!(geo.total_bits(), 8);
        assert_eq!(geo.bit_range(0), 0..2);
        assert_eq!(geo.bit_range(1), 2..5);
        assert_eq!(geo.bit_range(2), 5..8);
    }

    #[test]
    fn sync_appends_only_missing_entries() {
        let (tasks, mut log) = world();
        let fset = DistanceFunctionSet::paper_default();
        let mut geo = AnswerGeometry::build(&tasks, &log, &fset);
        let before = geo.len();
        geo.sync(&tasks, &log, &fset); // no-op
        assert_eq!(geo.len(), before);
        log.push(
            &tasks,
            crate::Answer {
                worker: WorkerId(1),
                task: TaskId(1),
                bits: LabelBits::zeros(2),
                distance: 0.9,
            },
        )
        .unwrap();
        geo.sync(&tasks, &log, &fset);
        assert_eq!(geo.len(), log.len());
        assert_eq!(geo.fvals(before), fset.values(0.9).as_slice());
    }

    #[test]
    fn clear_resets_to_empty() {
        let (tasks, log) = world();
        let fset = DistanceFunctionSet::paper_default();
        let mut geo = AnswerGeometry::build(&tasks, &log, &fset);
        geo.clear();
        assert!(geo.is_empty());
        assert_eq!(geo.total_bits(), 0);
        geo.sync(&tasks, &log, &fset);
        assert_eq!(geo.len(), log.len());
    }
}
