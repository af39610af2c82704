//! The E-step sweep every EM path shares, and its two-thread side split.
//!
//! An E-step visits answers in stream order. For each answer it fills one
//! [`BitBlock`]: the branch masses of Equation 12 for every label bit of
//! the answer under the current parameters, one lane per quantity. The
//! block's lanes feed the sufficient statistics, which fall into two sides
//! that no accumulator cell straddles:
//!
//! * the **task side** ([`TaskSide`]) — `Σ P(z)`, `|W(t)|`, `Σ P(d_t)` and
//!   the `z1`/`dt` rows of the per-answer contribution cache. The task
//!   M-step reads only these and writes only `P(z)` and `P(d_t)`.
//! * the **worker side** ([`WorkerSide`]) — `Σ P(i)`, the bit counts,
//!   `Σ P(d_w)` and the `i1`/`dw` rows. The (peer-pooled) worker M-step
//!   reads only these and writes only `P(i_w)` and `P(d_w)`.
//!
//! Each side adds the block's `z1` or `i1` lane, then each mixture
//! component's weights in turn, in bit order. So every accumulator cell
//! receives one addition per bit, in bit order, exactly as the per-bit
//! reference ([`factored`](crate::model::posterior::factored), which the
//! naive EM calls) accumulates it.
//!
//! A sequential sweep feeds both sides from one pass. The side split
//! ([`split`]) runs the task side on the calling thread and the worker side
//! on one scoped helper that lives for the whole EM run. Each thread sweeps
//! *every* answer in the same order and fills the blocks itself, so every
//! accumulator cell receives the same additions in the same order as the
//! sequential sweep: the results are bit-identical by construction. Each
//! side then runs its own half of the M-step and its own part of the
//! maximum parameter change; `max` is exact, so combining the two halves
//! changes nothing.
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
use crate::model::posterior::AnswerTerms;
use crate::model::ModelParams;
use crate::{Answer, LabelBits};

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

/// Per-thread scratch of a sweep: the prepared answer terms and the bit
/// block of the current answer.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub(crate) struct Scratch {
    terms: AnswerTerms,
    #[cfg_attr(feature = "serde", serde(skip))]
    block: Box<BitBlock>,
}

impl Scratch {
    pub(crate) fn new(n_funcs: usize) -> Self {
        Self {
            terms: AnswerTerms::zeros(n_funcs),
            block: Box::default(),
        }
    }
}

/// Lane capacity of a [`BitBlock`]: one lane per label a task may carry.
const LANES: usize = LabelBits::MAX_LABELS;

/// The `(z, i)` branch masses (Cases 1–4 of Equation 12) of every label
/// bit of one answer, one lane per quantity: lane `k` holds bit `k`. Both
/// sides of the sweep derive everything they accumulate from one block,
/// so the task side (`z1`, the `d_t` mixture) and the worker side (`i1`,
/// the `d_w` mixture) see the same bits whether they run in one pass or
/// on two threads.
///
/// Every lane is the expression
/// [`factored`](crate::model::posterior::factored) evaluates for that bit,
/// with the same operands in the same order. Only pure per-answer
/// subexpressions (`1 − q̄`, `1 − P(i)` and each component's `1 − g_a` /
/// `1 − h_b`) are evaluated once per answer.
#[derive(Debug, Clone)]
pub(crate) struct BitBlock {
    /// Filled lanes: the answer's label count.
    n: usize,
    /// The answer's worker prior `P(i_w = 1)`.
    pi1: f64,
    /// `1 / |F|`: every mixture weight of a degenerate bit.
    uniform: f64,
    /// `P(r)` — the normaliser.
    likelihood: [f64; LANES],
    /// `P(z = 1 | r)`.
    z1: [f64; LANES],
    /// `P(i_w = 1 | r)`.
    i1: [f64; LANES],
    /// The mass of the two `i = 0` branches.
    m_i0: [f64; LANES],
    /// The label prior of the truth value `r` agrees with, and of the one
    /// it contradicts.
    p_match: [f64; LANES],
    p_miss: [f64; LANES],
    /// `1 / P(r)`.
    inv: [f64; LANES],
}

impl Default for BitBlock {
    fn default() -> Self {
        Self {
            n: 0,
            pi1: 0.0,
            uniform: 0.0,
            likelihood: [0.0; LANES],
            z1: [0.0; LANES],
            i1: [0.0; LANES],
            m_i0: [0.0; LANES],
            p_match: [0.0; LANES],
            p_miss: [0.0; LANES],
            inv: [0.0; LANES],
        }
    }
}

impl BitBlock {
    /// Fills one lane per label bit of an answer under its prepared
    /// `terms`: `pz` are the answer's `P(z = 1)` slots in label order,
    /// `verdicts` its verdict word (bit `k` is `r_k`) and `pi1` its
    /// worker's `P(i = 1)`.
    #[inline]
    pub(crate) fn fill(&mut self, terms: &AnswerTerms, pi1: f64, pz: &[f64], verdicts: u64) {
        let n = pz.len();
        let q = terms.q();
        let (not_q, pi0) = (1.0 - q, 1.0 - pi1);
        self.n = n;
        self.pi1 = pi1;
        self.uniform = 1.0 / terms.n_funcs() as f64;
        let likelihood = &mut self.likelihood[..n];
        let z1 = &mut self.z1[..n];
        let i1 = &mut self.i1[..n];
        let m_i0 = &mut self.m_i0[..n];
        let p_match = &mut self.p_match[..n];
        let p_miss = &mut self.p_miss[..n];
        let inv = &mut self.inv[..n];
        for k in 0..n {
            let r = verdicts >> k & 1 == 1;
            let pz1 = pz[k];
            let pz0 = 1.0 - pz1;
            let m_z1_i0 = pz1 * pi0 * 0.5;
            let m_z0_i0 = pz0 * pi0 * 0.5;
            // A qualified worker matches the truth with probability q.
            let (l_z1, l_z0) = if r { (q, not_q) } else { (not_q, q) };
            let m_z1_i1 = pz1 * pi1 * l_z1;
            let m_z0_i1 = pz0 * pi1 * l_z0;
            let total = m_z1_i0 + m_z0_i0 + m_z1_i1 + m_z0_i1;
            let inv_total = 1.0 / total;
            // Degenerate priors fall back to uninformative posteriors.
            let degenerate = total <= 0.0;
            likelihood[k] = total;
            z1[k] = if degenerate {
                0.5
            } else {
                (m_z1_i0 + m_z1_i1) * inv_total
            };
            i1[k] = if degenerate {
                0.5
            } else {
                (m_z1_i1 + m_z0_i1) * inv_total
            };
            m_i0[k] = m_z1_i0 + m_z0_i0;
            (p_match[k], p_miss[k]) = if r { (pz1, pz0) } else { (pz0, pz1) };
            inv[k] = inv_total;
        }
    }

    /// `P(z = 1 | r)` per bit.
    pub(crate) fn z1(&self) -> &[f64] {
        &self.z1[..self.n]
    }

    /// `P(i_w = 1 | r)` per bit.
    pub(crate) fn i1(&self) -> &[f64] {
        &self.i1[..self.n]
    }

    /// `ln max(P(r), EPS)` per bit, in bit order: the log-likelihood
    /// terms.
    fn ln_likelihoods(&self) -> impl Iterator<Item = f64> + '_ {
        self.likelihood[..self.n]
            .iter()
            .map(|&l| l.max(crate::prob::EPS).ln())
    }

    /// Passes `add` the posterior weight of one mixture component for
    /// every bit, in bit order: `p` is the component's prior and `x` its
    /// partial likelihood with the other mixture summed out (`g_a` for
    /// `d_w`, `h_b` for `d_t`). The `i = 0` branches keep the prior, and a
    /// degenerate bit (`P(r) ≤ 0`) weighs every component `1 / |F|`.
    ///
    /// The weight is `p·(m_i0 + P(i)·(p_match·x + p_miss·(1−x)))/P(r)`,
    /// equal bit for bit to `factored`'s
    /// `p·(m_i0 + P(i)·(P(z=1)·l1 + P(z=0)·l0))/P(r)` with
    /// `(l1, l0) = r ? (x, 1−x) : (1−x, x)`: the two products are only
    /// summed in the other order when `r = 0`, and IEEE addition commutes.
    #[inline]
    pub(crate) fn mixture(&self, p: f64, x: f64, mut add: impl FnMut(f64)) {
        let n = self.n;
        let not_x = 1.0 - x;
        let likelihood = &self.likelihood[..n];
        let m_i0 = &self.m_i0[..n];
        let p_match = &self.p_match[..n];
        let p_miss = &self.p_miss[..n];
        let inv = &self.inv[..n];
        for k in 0..n {
            let v = p * (m_i0[k] + self.pi1 * (p_match[k] * x + p_miss[k] * not_x)) * inv[k];
            add(if likelihood[k] <= 0.0 {
                self.uniform
            } else {
                v
            });
        }
    }
}

/// One side's accumulation of an answer from its bit block.
pub(crate) trait Side {
    /// Adds answer `i`'s share. `terms` holds the answer's prepared
    /// mixture terms and `block` the masses of its label bits.
    fn answer(
        &mut self,
        i: usize,
        answer: &Answer,
        geometry: &AnswerGeometry,
        params: Params<'_>,
        terms: &AnswerTerms,
        block: &BitBlock,
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
        block: &BitBlock,
    ) {
        self.0.answer(i, answer, geometry, params, terms, block);
        self.1.answer(i, answer, geometry, params, terms, block);
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
    let Scratch { terms, block } = scratch;
    for (i, answer) in answers {
        let pdw = params.worker.dw(answer.worker);
        terms.prepare(pdw, params.task.dt(answer.task), geometry.fvals(i), alpha);
        let base = geometry.base(i);
        let pz = params.task.z_slots(base..base + answer.bits.len());
        let pi1 = params.worker.inherent(answer.worker);
        block.fill(terms, pi1, pz, answer.bits.word());
        match &mut llh {
            Llh::Skip => {}
            Llh::Sum(sum) => **sum = block.ln_likelihoods().fold(**sum, |sum, ln| sum + ln),
            Llh::Store(lns) => lns.extend(block.ln_likelihoods()),
        }
        side.answer(i, answer, geometry, params, terms, block);
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
        block: &BitBlock,
    ) {
        let n = self.stats.n_funcs;
        let t = answer.task.index();
        let base = geometry.base(i);
        let z1 = block.z1();
        let TaskStats {
            z_sum,
            task_answers,
            dt_sum,
            ..
        } = &mut *self.stats;
        let z_sum = &mut z_sum[base..base + z1.len()];
        let dt_sum = &mut dt_sum[t * n..(t + 1) * n];
        let components = params.task.dt(answer.task).iter().zip(terms.h());
        let Some(rows) = self.rows.as_deref_mut() else {
            task_answers[t] += 1;
            add_assign(z_sum, z1);
            for (s, (&p, &x)) in dt_sum.iter_mut().zip(components) {
                block.mixture(p, x, |v| *s += v);
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
        add_assign(z_sum, z1);
        z_row.copy_from_slice(z1);
        for ((s, row), (&p, &x)) in dt_sum.iter_mut().zip(dt_row.iter_mut()).zip(components) {
            *row = 0.0;
            block.mixture(p, x, |v| {
                *s += v;
                *row += v;
            });
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
        block: &BitBlock,
    ) {
        let n = self.stats.n_funcs;
        let w = answer.worker.index();
        let i1 = block.i1();
        let WorkerStats {
            i_sum,
            worker_bits,
            dw_sum,
            ..
        } = &mut *self.stats;
        let i_sum = &mut i_sum[w];
        let dw_sum = &mut dw_sum[w * n..(w + 1) * n];
        let components = params.worker.dw(answer.worker).iter().zip(terms.g());
        let Some(rows) = self.rows.as_deref_mut() else {
            worker_bits[w] += i1.len() as u32;
            for &v in i1 {
                *i_sum += v;
            }
            for (s, (&p, &x)) in dw_sum.iter_mut().zip(components) {
                block.mixture(p, x, |v| *s += v);
            }
            return;
        };
        let i_row = &mut rows.i1[i];
        let dw_row = &mut rows.dw[i * n..(i + 1) * n];
        if self.resweep {
            *i_sum -= *i_row;
            sub_assign(dw_sum, dw_row);
        } else {
            worker_bits[w] += i1.len() as u32;
        }
        *i_row = 0.0;
        for &v in i1 {
            *i_sum += v;
            *i_row += v;
        }
        for ((s, row), (&p, &x)) in dw_sum.iter_mut().zip(dw_row.iter_mut()).zip(components) {
            *row = 0.0;
            block.mixture(p, x, |v| {
                *s += v;
                *row += v;
            });
        }
    }
}

fn add_assign(sums: &mut [f64], new: &[f64]) {
    for (s, &v) in sums.iter_mut().zip(new) {
        *s += v;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::posterior::{factored, Posterior, PosteriorInputs};
    use crate::DistanceFunctionSet;

    /// Bits a lane test compares: `P(r)`, its log term, `z1`, `i1` and
    /// every `d_w` then `d_t` weight.
    fn bits_of(p: &Posterior) -> Vec<u64> {
        [
            p.likelihood,
            p.likelihood.max(crate::prob::EPS).ln(),
            p.z1,
            p.i1,
        ]
        .iter()
        .chain(&p.dw)
        .chain(&p.dt)
        .map(|v| v.to_bits())
        .collect()
    }

    #[test]
    fn block_lanes_are_bit_identical_to_factored() {
        let fset = DistanceFunctionSet::paper_default();
        let (pdw, pdt) = ([0.25, 0.35, 0.4], [0.5, 0.2, 0.3]);
        // Unclamped label priors, including the exact 0 and 1 a
        // checkpoint's parameters never hold but the kernel must not mind.
        let priors = [0.0, 0.02, 0.5, 0.97, 1.0, 0.31, 0.73];
        // Verdict words with bits set above 31.
        let words = [0u64, u64::MAX, 0xA5A5_F00F_0123_8001, 0x8000_0000_0000_0001];
        let mut terms = AnswerTerms::zeros(fset.len());
        let mut block = BitBlock::default();
        let mut degenerate = 0;
        // `[1.0; 3]` makes q̄ = 1: a qualified worker always matches, so
        // `P(z=1) = P(i=1) = 1` with `r = 0` has zero likelihood.
        let all_fvals = [0.0, 0.15, 0.6, 1.0]
            .map(|d| fset.values(d))
            .into_iter()
            .chain([vec![1.0; 3]]);
        for fvals in all_fvals {
            terms.prepare(&pdw, &pdt, &fvals, 0.5);
            for pi1 in [0.0, 0.4, 1.0] {
                for &word in &words {
                    for n in [1, 10, LabelBits::MAX_LABELS] {
                        let pz: Vec<f64> = (0..n).map(|k| priors[k % priors.len()]).collect();
                        block.fill(&terms, pi1, &pz, word);
                        let lns: Vec<f64> = block.ln_likelihoods().collect();
                        let mut dw = vec![Vec::new(); 3];
                        let mut dt = vec![Vec::new(); 3];
                        for j in 0..3 {
                            block.mixture(pdw[j], terms.g()[j], |v| dw[j].push(v));
                            block.mixture(pdt[j], terms.h()[j], |v| dt[j].push(v));
                        }
                        for k in 0..n {
                            let inputs = PosteriorInputs {
                                pz1: pz[k],
                                pi1,
                                pdw: &pdw,
                                pdt: &pdt,
                                fvals: &fvals,
                                alpha: 0.5,
                                r: word >> k & 1 == 1,
                            };
                            let mut expected = Posterior::zeros(3);
                            factored(&inputs, &mut expected);
                            degenerate += usize::from(expected.likelihood <= 0.0);
                            let lane = Posterior {
                                z1: block.z1()[k],
                                i1: block.i1()[k],
                                dw: dw.iter().map(|w| w[k]).collect(),
                                dt: dt.iter().map(|w| w[k]).collect(),
                                likelihood: block.likelihood[k],
                            };
                            let mut got = bits_of(&lane);
                            got[1] = lns[k].to_bits();
                            assert_eq!(
                                got,
                                bits_of(&expected),
                                "lane {k} of {n}: pz1={} pi1={pi1} word={word:#x}",
                                pz[k]
                            );
                        }
                        assert_eq!(block.z1().len(), n);
                        assert_eq!(block.i1().len(), n);
                        assert!(dw.iter().chain(&dt).all(|w| w.len() == n));
                    }
                }
            }
        }
        assert!(degenerate > 0, "no zero-likelihood bit was checked");
    }
}
