//! The E-step sweep every EM path shares, and its two-thread side split.
//!
//! An E-step visits answers in stream order. For each label bit it forms
//! the branch masses of Equation 12 ([`BitMasses`]) under the current
//! parameters and adds the bit's marginals to the sufficient statistics.
//! Those statistics fall into two sides that no accumulator cell
//! straddles:
//!
//! * the **task side** ([`TaskSide`]) — `Σ P(z)`, `|W(t)|`, `Σ P(d_t)` and
//!   the `z1`/`dt` rows of the per-answer contribution cache. The task
//!   M-step reads only these and writes only `P(z)` and `P(d_t)`.
//! * the **worker side** ([`WorkerSide`]) — `Σ P(i)`, the bit counts,
//!   `Σ P(d_w)` and the `i1`/`dw` rows. The (peer-pooled) worker M-step
//!   reads only these and writes only `P(i_w)` and `P(d_w)`.
//!
//! A sequential sweep feeds both sides from one pass. The side split
//! ([`split`]) runs the task side on the calling thread and the worker side
//! on one scoped helper that lives for the whole EM run. Each thread sweeps
//! *every* answer in the same order and computes the shared per-bit masses
//! itself, so every accumulator cell receives the same additions in the
//! same order as the sequential sweep: the results are bit-identical by
//! construction. Each side then runs its own half of the M-step and its
//! own part of the maximum parameter change; `max` is exact, so combining
//! the two halves changes nothing.
//!
//! The threads meet ([`Meet`]) once per iteration ([`lockstep`]): each
//! side updates its own parameter half in place and, at the meeting, hands
//! the other a copy of it together with its parameter change, so neither
//! reads parameters the other is writing. The log-likelihood
//! keeps its summation order too: the calling thread adds the terms of
//! the first half of the answers as it sweeps, the helper stores the terms
//! of the second half and hands them over at the meeting, and the calling
//! thread adds them after its own.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use crate::model::em::{EmConfig, EmReport, TaskStats, WorkerStats};
use crate::model::geometry::AnswerGeometry;
use crate::model::params::{TaskParams, WorkerParams};
use crate::model::posterior::{mixture_weights, AnswerTerms, BitMasses};
use crate::model::ModelParams;
use crate::Answer;

/// Read access to both parameter halves during one E-step.
#[derive(Clone, Copy)]
pub(crate) struct Params<'a> {
    task: &'a TaskParams,
    worker: &'a WorkerParams,
}

impl<'a> Params<'a> {
    pub(crate) fn new(task: &'a TaskParams, worker: &'a WorkerParams) -> Self {
        Self { task, worker }
    }

    pub(crate) fn of(params: &'a ModelParams) -> Self {
        let (task, worker) = params.halves();
        Self { task, worker }
    }
}

/// Where a sweep sends the per-bit log-likelihood terms
/// `ln max(P(r), EPS)`.
pub(crate) enum Llh<'a> {
    /// Not tracked.
    Skip,
    /// Added in answer order to a running sum.
    Sum(&'a mut f64),
    /// Appended in answer order, for the calling thread to add later.
    Store(&'a mut Vec<f64>),
}

/// Per-thread scratch of a sweep: the prepared answer terms and the masses
/// of the current answer's bits.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub(crate) struct Scratch {
    terms: AnswerTerms,
    #[cfg_attr(feature = "serde", serde(skip))]
    masses: Vec<BitMasses>,
}

impl Scratch {
    pub(crate) fn new(n_funcs: usize) -> Self {
        Self {
            terms: AnswerTerms::zeros(n_funcs),
            masses: Vec::new(),
        }
    }
}

/// One side's accumulation of an answer from its per-bit masses.
pub(crate) trait Side {
    /// Adds answer `i`'s share. `terms` holds the answer's prepared
    /// mixture terms and `masses` one entry per label bit.
    fn answer(
        &mut self,
        i: usize,
        answer: &Answer,
        geometry: &AnswerGeometry,
        params: Params<'_>,
        terms: &AnswerTerms,
        masses: &[BitMasses],
    );
}

/// Both sides in one pass: the sequential sweep.
impl<T: Side, W: Side> Side for (T, W) {
    #[inline]
    fn answer(
        &mut self,
        i: usize,
        answer: &Answer,
        geometry: &AnswerGeometry,
        params: Params<'_>,
        terms: &AnswerTerms,
        masses: &[BitMasses],
    ) {
        self.0.answer(i, answer, geometry, params, terms, masses);
        self.1.answer(i, answer, geometry, params, terms, masses);
    }
}

/// Sweeps `answers` — `(stream position, answer)` pairs, in order — under
/// `params`, feeding `side`.
pub(crate) fn sweep<'a>(
    side: &mut (impl Side + ?Sized),
    params: Params<'_>,
    geometry: &AnswerGeometry,
    alpha: f64,
    answers: impl IntoIterator<Item = (usize, &'a Answer)>,
    scratch: &mut Scratch,
    mut llh: Llh<'_>,
) {
    let Scratch { terms, masses } = scratch;
    for (i, answer) in answers {
        let pdw = params.worker.dw(answer.worker);
        terms.prepare(pdw, params.task.dt(answer.task), geometry.fvals(i), alpha);
        let pi1 = params.worker.inherent(answer.worker);
        let base = geometry.base(i);
        masses.clear();
        for (k, r) in answer.bits.iter().enumerate() {
            let m = BitMasses::new(terms.q(), params.task.z_slot(base + k), pi1, r);
            match &mut llh {
                Llh::Skip => {}
                Llh::Sum(sum) => **sum += m.ln_likelihood(),
                Llh::Store(lns) => lns.push(m.ln_likelihood()),
            }
            masses.push(m);
        }
        side.answer(i, answer, geometry, params, terms, masses);
    }
}

/// The answers at stream positions `ids`, paired with their positions.
pub(crate) fn at<'a>(
    answers: &'a [Answer],
    ids: impl IntoIterator<Item = usize> + 'a,
) -> impl Iterator<Item = (usize, &'a Answer)> + 'a {
    ids.into_iter().map(move |i| (i, &answers[i]))
}

/// Sweeps the answers of `halves[0]` then those of `halves[1]` — one
/// continuous pass in that order — sending the log-likelihood terms of
/// each half to the matching entry of `llh`.
pub(crate) fn sweep_halves<'a, I: IntoIterator<Item = (usize, &'a Answer)>>(
    side: &mut (impl Side + ?Sized),
    params: Params<'_>,
    geometry: &AnswerGeometry,
    alpha: f64,
    halves: [I; 2],
    scratch: &mut Scratch,
    llh: [Llh<'_>; 2],
) {
    for (answers, llh) in halves.into_iter().zip(llh) {
        sweep(side, params, geometry, alpha, answers, scratch, llh);
    }
}

/// One call into a side of [`lockstep`].
pub(crate) enum Step<'a, P> {
    /// The side's E-step under `params`, passing `llh` on to
    /// [`sweep_halves`]. The return value is ignored.
    Estep {
        params: Params<'a>,
        llh: [Llh<'a>; 2],
    },
    /// The side's half of the M-step, in place on `params`, whose values
    /// before it are `previous`. Returns the largest change.
    Mstep { params: &'a mut P, previous: &'a P },
}

/// What one side hands the other when they meet: its largest parameter
/// change, a copy of its new parameter half and a buffer of log-likelihood
/// terms (the worker side's terms; the task side returns the buffer for
/// reuse).
type Trade<P> = (f64, Arc<P>, Vec<f64>);

/// Runs the EM iterations of one rebuild as a side split: `task` on the
/// calling thread, `worker` on one helper spawned for the whole run.
///
/// Each side owns its parameter half and updates it in place. After its
/// M-step it sends a copy of the new half to the other side, which reads
/// it during the next E-step; the sender keeps the same copy as the old
/// values of its next M-step. So the sides meet once per iteration, after
/// their M-steps, and also trade their parameter changes (stopping together
/// once the larger one reaches the tolerance) and the worker side's
/// log-likelihood terms, which the caller adds after its own. The report
/// receives the delta and log-likelihood series a sequential run records.
pub(crate) fn lockstep(
    params: &mut ModelParams,
    config: &EmConfig,
    report: &mut EmReport,
    mut task: impl FnMut(Step<'_, TaskParams>) -> f64,
    mut worker: impl FnMut(Step<'_, WorkerParams>) -> f64 + Send,
) {
    let (task_params, worker_params) = params.halves_mut();
    let task_sent = Arc::new(task_params.clone());
    let worker_sent = Arc::new(worker_params.clone());
    let task_view = Arc::clone(&task_sent);
    let worker_view = Arc::clone(&worker_sent);
    split(
        |meet: &Meet<Trade<TaskParams>, Trade<WorkerParams>>| {
            let (mut sent, mut view, mut spare) = (task_sent, worker_view, Vec::new());
            for _ in 0..config.max_iterations {
                let mut log_likelihood = 0.0;
                task(Step::Estep {
                    params: Params::new(task_params, &view),
                    llh: [Llh::Sum(&mut log_likelihood), Llh::Skip],
                });
                let own = task(Step::Mstep {
                    params: task_params,
                    previous: &sent,
                });
                sent = Arc::new(task_params.clone());
                let (other, half, lns) = meet.trade((own, Arc::clone(&sent), spare));
                view = half;
                log_likelihood = lns.iter().fold(log_likelihood, |sum, &ln| sum + ln);
                spare = lns;
                if report.record(own.max(other), log_likelihood, config.tolerance) {
                    break;
                }
            }
        },
        |meet| {
            let (mut sent, mut view, mut lns) = (worker_sent, task_view, Vec::new());
            for _ in 0..config.max_iterations {
                lns.clear();
                worker(Step::Estep {
                    params: Params::new(&view, worker_params),
                    llh: [Llh::Skip, Llh::Store(&mut lns)],
                });
                let own = worker(Step::Mstep {
                    params: worker_params,
                    previous: &sent,
                });
                sent = Arc::new(worker_params.clone());
                let (other, half, spare) = meet.trade((own, Arc::clone(&sent), lns));
                view = half;
                lns = spare;
                if other.max(own) <= config.tolerance {
                    break;
                }
            }
        },
    );
}

/// Why a channel of the side split fails: only a panic on the other side
/// drops its end.
const PEER_PANICKED: &str = "the other side of the EM sweep panicked";

/// The task side of a sweep.
pub(crate) struct TaskSide<'a> {
    stats: &'a mut TaskStats,
    rows: Option<&'a mut TaskRows>,
    resweep: bool,
}

impl<'a> TaskSide<'a> {
    /// Counts and accumulates each swept answer; no contribution rows.
    pub(crate) fn fresh(stats: &'a mut TaskStats) -> Self {
        Self {
            stats,
            rows: None,
            resweep: false,
        }
    }

    /// Like [`TaskSide::fresh`], also writing each answer's contribution
    /// row. With `resweep`, the answers are already counted: each one's
    /// cached contribution is subtracted before the fresh one is added.
    pub(crate) fn recording(
        stats: &'a mut TaskStats,
        rows: &'a mut TaskRows,
        resweep: bool,
    ) -> Self {
        Self {
            stats,
            rows: Some(rows),
            resweep,
        }
    }
}

impl Side for TaskSide<'_> {
    #[inline]
    fn answer(
        &mut self,
        i: usize,
        answer: &Answer,
        geometry: &AnswerGeometry,
        params: Params<'_>,
        terms: &AnswerTerms,
        masses: &[BitMasses],
    ) {
        let n = self.stats.n_funcs;
        let t = answer.task.index();
        let base = geometry.base(i);
        let pdt = params.task.dt(answer.task);
        let TaskStats {
            z_sum,
            task_answers,
            dt_sum,
            ..
        } = &mut *self.stats;
        let z_sum = &mut z_sum[base..base + masses.len()];
        let dt_sum = &mut dt_sum[t * n..(t + 1) * n];
        let Some(rows) = self.rows.as_deref_mut() else {
            task_answers[t] += 1;
            for (z, m) in z_sum.iter_mut().zip(masses) {
                *z += m.z1;
                for (s, v) in dt_sum.iter_mut().zip(mixture_weights(m, pdt, terms.h())) {
                    *s += v;
                }
            }
            return;
        };
        let z_row = &mut rows.z1[geometry.bit_range(i)];
        let dt_row = &mut rows.dt[i * n..(i + 1) * n];
        if self.resweep {
            sub_assign(z_sum, z_row);
            sub_assign(dt_sum, dt_row);
        } else {
            task_answers[t] += 1;
        }
        dt_row.fill(0.0);
        for ((z, z_cached), m) in z_sum.iter_mut().zip(z_row.iter_mut()).zip(masses) {
            *z += m.z1;
            *z_cached = m.z1;
            let weights = mixture_weights(m, pdt, terms.h());
            for ((s, row), v) in dt_sum.iter_mut().zip(dt_row.iter_mut()).zip(weights) {
                *s += v;
                *row += v;
            }
        }
    }
}

/// The worker side of a sweep.
pub(crate) struct WorkerSide<'a> {
    stats: &'a mut WorkerStats,
    rows: Option<&'a mut WorkerRows>,
    resweep: bool,
}

impl<'a> WorkerSide<'a> {
    /// Counts and accumulates each swept answer; no contribution rows.
    pub(crate) fn fresh(stats: &'a mut WorkerStats) -> Self {
        Self {
            stats,
            rows: None,
            resweep: false,
        }
    }

    /// See [`TaskSide::recording`].
    pub(crate) fn recording(
        stats: &'a mut WorkerStats,
        rows: &'a mut WorkerRows,
        resweep: bool,
    ) -> Self {
        Self {
            stats,
            rows: Some(rows),
            resweep,
        }
    }
}

impl Side for WorkerSide<'_> {
    #[inline]
    fn answer(
        &mut self,
        i: usize,
        answer: &Answer,
        _geometry: &AnswerGeometry,
        params: Params<'_>,
        terms: &AnswerTerms,
        masses: &[BitMasses],
    ) {
        let n = self.stats.n_funcs;
        let w = answer.worker.index();
        let pdw = params.worker.dw(answer.worker);
        let WorkerStats {
            i_sum,
            worker_bits,
            dw_sum,
            ..
        } = &mut *self.stats;
        let i_sum = &mut i_sum[w];
        let dw_sum = &mut dw_sum[w * n..(w + 1) * n];
        let Some(rows) = self.rows.as_deref_mut() else {
            worker_bits[w] += masses.len() as u32;
            for m in masses {
                *i_sum += m.i1;
                for (s, v) in dw_sum.iter_mut().zip(mixture_weights(m, pdw, terms.g())) {
                    *s += v;
                }
            }
            return;
        };
        let i_row = &mut rows.i1[i];
        let dw_row = &mut rows.dw[i * n..(i + 1) * n];
        if self.resweep {
            *i_sum -= *i_row;
            sub_assign(dw_sum, dw_row);
        } else {
            worker_bits[w] += masses.len() as u32;
        }
        *i_row = 0.0;
        dw_row.fill(0.0);
        for m in masses {
            *i_sum += m.i1;
            *i_row += m.i1;
            let weights = mixture_weights(m, pdw, terms.g());
            for ((s, row), v) in dw_sum.iter_mut().zip(dw_row.iter_mut()).zip(weights) {
                *s += v;
                *row += v;
            }
        }
    }
}

fn sub_assign(sums: &mut [f64], old: &[f64]) {
    for (s, &o) in sums.iter_mut().zip(old) {
        *s -= o;
    }
}

/// Cached per-answer posterior contributions — exactly what each answer
/// most recently added to the sufficient statistics, so a dirty sweep can
/// subtract an answer's old contribution and re-add a fresh one without
/// sweeping the rest of the log. Split by side like the statistics.
#[derive(Debug, Clone, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub(crate) struct StatContribs {
    pub(crate) task: TaskRows,
    pub(crate) worker: WorkerRows,
}

/// The task side of [`StatContribs`].
#[derive(Debug, Clone, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub(crate) struct TaskRows {
    /// `P(z=1|r)` per label bit, flat by the geometry's bit offsets.
    z1: Vec<f64>,
    /// Σ over bits of `P(dt|r)`, per answer × function.
    dt: Vec<f64>,
}

/// The worker side of [`StatContribs`].
#[derive(Debug, Clone, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub(crate) struct WorkerRows {
    /// Σ over bits of `P(i=1|r)`, per answer.
    i1: Vec<f64>,
    /// Σ over bits of `P(dw|r)`, per answer × function.
    dw: Vec<f64>,
}

impl StatContribs {
    pub(crate) fn n_answers(&self) -> usize {
        self.worker.i1.len()
    }

    /// Appends a zeroed row for a just-absorbed answer with `n_bits` labels.
    pub(crate) fn push_answer(&mut self, n_bits: usize, n_funcs: usize) {
        self.task.z1.resize(self.task.z1.len() + n_bits, 0.0);
        self.task.dt.resize(self.task.dt.len() + n_funcs, 0.0);
        self.worker.i1.push(0.0);
        self.worker.dw.resize(self.worker.dw.len() + n_funcs, 0.0);
    }

    /// Zeroes then resizes the rows to cover `geometry` (full rebuild).
    pub(crate) fn reset(&mut self, geometry: &AnswerGeometry) {
        let n_funcs = geometry.n_funcs();
        for (rows, len) in [
            (&mut self.task.z1, geometry.total_bits()),
            (&mut self.task.dt, geometry.len() * n_funcs),
            (&mut self.worker.i1, geometry.len()),
            (&mut self.worker.dw, geometry.len() * n_funcs),
        ] {
            rows.clear();
            rows.resize(len, 0.0);
        }
    }
}

/// One end of the side split's rendezvous: a channel each way, sending
/// `S` and receiving `R`.
pub(crate) struct Meet<S, R> {
    tx: Sender<S>,
    rx: Receiver<R>,
}

impl<S, R> Meet<S, R> {
    /// Waits for the other side and trades `mine` for its value. A side
    /// that panics drops its end, so the other side panics here instead of
    /// waiting forever.
    pub(crate) fn trade(&self, mine: S) -> R {
        self.tx.send(mine).expect(PEER_PANICKED);
        self.rx.recv().expect(PEER_PANICKED)
    }
}

/// Runs `task` on the calling thread and `worker` on one scoped helper
/// thread, each holding its end of a [`Meet`], and returns both results.
/// The two closures must meet the same number of times.
pub(crate) fn split<A: Send, B: Send, T, W: Send>(
    task: impl FnOnce(&Meet<A, B>) -> T,
    worker: impl FnOnce(&Meet<B, A>) -> W + Send,
) -> (T, W) {
    std::thread::scope(|s| {
        let (to_worker, from_task) = channel();
        let (to_task, from_worker) = channel();
        let worker_end = Meet {
            tx: to_task,
            rx: from_task,
        };
        let helper = s.spawn(move || worker(&worker_end));
        // Owned by this closure so that a panic below drops it (waking the
        // helper) before the scope joins.
        let task_end = Meet {
            tx: to_worker,
            rx: from_worker,
        };
        let t = task(&task_end);
        let w = helper
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (t, w)
    })
}
