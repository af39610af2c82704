//! E-step: the joint posterior `P(z, i_w, d_w, d_t | r)` for one answer bit
//! (Equation 12 of the paper), marginalised to what the M-step needs.
//!
//! The worker-side marginals (`i1`, `dw`) accumulated from these posteriors
//! are exactly the payload of the cross-instance gossip deltas
//! ([`crate::model::gossip::WorkerStatDelta`]): because the M-step is a
//! *mean* of per-bit marginals, per-instance sums can be pooled by plain
//! addition before dividing by the pooled bit count.

/// Marginal posteriors of the latent variables for a single observed answer
/// bit `r_{w,t,k}`, plus the answer's marginal likelihood `P(r)`.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Posterior {
    /// `P(z_{t,k} = 1 | r)`.
    pub z1: f64,
    /// `P(i_w = 1 | r)`.
    pub i1: f64,
    /// `P(d_w = f_λj | r)` for each function `j`.
    pub dw: Vec<f64>,
    /// `P(d_t = f_λj | r)` for each function `j`.
    pub dt: Vec<f64>,
    /// Marginal likelihood `P(r)` — the normaliser; summed logs give the
    /// data log-likelihood tracked per EM iteration.
    pub likelihood: f64,
}

impl Posterior {
    /// An empty posterior sized for `n_funcs` distance functions.
    #[must_use]
    pub fn zeros(n_funcs: usize) -> Self {
        Self {
            z1: 0.0,
            i1: 0.0,
            dw: vec![0.0; n_funcs],
            dt: vec![0.0; n_funcs],
            likelihood: 0.0,
        }
    }
}

/// Inputs to the posterior computation for one answer bit.
///
/// `fvals[j] = f_λj(d(w, t))` are precomputed once per answer; priors come
/// from the current [`ModelParams`](crate::ModelParams).
#[derive(Debug, Clone, Copy)]
pub struct PosteriorInputs<'a> {
    /// Prior `P(z_{t,k} = 1)`.
    pub pz1: f64,
    /// Prior `P(i_w = 1)`.
    pub pi1: f64,
    /// Prior mixture weights `P(d_w = f_λj)`.
    pub pdw: &'a [f64],
    /// Prior mixture weights `P(d_t = f_λj)`.
    pub pdt: &'a [f64],
    /// Precomputed `f_λj(d(w, t))` values.
    pub fvals: &'a [f64],
    /// The linear-combination weight α of Equation 8.
    pub alpha: f64,
    /// The observed answer bit `r_{w,t,k}`.
    pub r: bool,
}

/// Per-answer terms of the factorised posterior that are shared by every
/// label bit of one answer: the mixture qualities `q̄_w`, `q̄_t`, `q̄`
/// (Equation 8) and the partial mixtures `g_a` / `h_b` used by the `d_w` /
/// `d_t` marginals. None of them depend on the label prior `P(z)` or the
/// observed bit `r`, so the EM sweeps prepare them once per answer and
/// amortise the dot products over all `|L_t|` bits: the sweep kernel fills
/// the posterior masses of all of an answer's bits as one block of lanes
/// from these terms, evaluating exactly [`factored`]'s expressions.
///
/// The buffers are reusable scratch — one `AnswerTerms` lives for a whole
/// E-step sweep, so the inner loop allocates nothing.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AnswerTerms {
    qw: f64,
    qt: f64,
    q: f64,
    g: Vec<f64>,
    h: Vec<f64>,
}

impl AnswerTerms {
    /// Empty scratch sized for `n_funcs` distance functions.
    #[must_use]
    pub fn zeros(n_funcs: usize) -> Self {
        Self {
            qw: 0.0,
            qt: 0.0,
            q: 0.0,
            g: vec![0.0; n_funcs],
            h: vec![0.0; n_funcs],
        }
    }

    /// Computes the answer-level terms from the current mixtures and the
    /// (cached) function values:
    ///
    /// * `q̄_w = Σ_a P(d_w = a)·f_a`, `q̄_t = Σ_b P(d_t = b)·f_b`,
    ///   `q̄ = α·q̄_w + (1−α)·q̄_t`;
    /// * `g_a = α·f_a + (1−α)·q̄_t` (joint likelihood with `d_t` summed out);
    /// * `h_b = α·q̄_w + (1−α)·f_b` (symmetrically for `d_t`).
    #[inline]
    pub fn prepare(&mut self, pdw: &[f64], pdt: &[f64], fvals: &[f64], alpha: f64) {
        let n = fvals.len();
        debug_assert_eq!(pdw.len(), n);
        debug_assert_eq!(pdt.len(), n);
        debug_assert_eq!(self.g.len(), n);
        debug_assert_eq!(self.h.len(), n);
        self.qw = pdw.iter().zip(fvals).map(|(&w, &f)| w * f).sum();
        self.qt = pdt.iter().zip(fvals).map(|(&w, &f)| w * f).sum();
        self.q = alpha * self.qw + (1.0 - alpha) * self.qt;
        for (g, &f) in self.g.iter_mut().zip(fvals) {
            *g = alpha * f + (1.0 - alpha) * self.qt;
        }
        for (h, &f) in self.h.iter_mut().zip(fvals) {
            *h = alpha * self.qw + (1.0 - alpha) * f;
        }
    }

    /// The prepared Equation-8 quality `q̄`.
    #[must_use]
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Number of distance functions the scratch is sized for.
    #[must_use]
    pub fn n_funcs(&self) -> usize {
        self.g.len()
    }

    /// The prepared `g_a` (the `d_w` partial likelihoods).
    pub(crate) fn g(&self) -> &[f64] {
        &self.g
    }

    /// The prepared `h_b` (the `d_t` partial likelihoods).
    pub(crate) fn h(&self) -> &[f64] {
        &self.h
    }
}

/// Computes the posterior in `O(|F|)` using the factorised form.
///
/// The joint of Equation 12 has `2 · 2 · |F| · |F|` states, but the `i_w = 0`
/// branch is independent of `(d_w, d_t)` and the `i_w = 1` likelihood
/// `q = α·f_{d_w} + (1−α)·f_{d_t}` is *linear* in the two mixtures, so each
/// marginal collapses to a single pass over `F` (see [`AnswerTerms`]).
///
/// This is the single-bit form and the per-bit oracle of the EM sweeps:
/// the reference EM calls it for every bit, and the production sweeps
/// prepare an [`AnswerTerms`] once per answer and fill all of its bits as
/// one block of lanes, which hoists the dot products but evaluates the
/// same expressions, so the results are bit-identical. [`naive`]
/// enumerates the full joint and is the test oracle for this one.
#[inline]
pub fn factored(inputs: &PosteriorInputs<'_>, out: &mut Posterior) {
    let n = inputs.fvals.len();
    debug_assert_eq!(inputs.pdw.len(), n);
    debug_assert_eq!(inputs.pdt.len(), n);
    debug_assert_eq!(out.dw.len(), n);
    debug_assert_eq!(out.dt.len(), n);

    let pz1 = inputs.pz1;
    let pz0 = 1.0 - pz1;
    let pi1 = inputs.pi1;
    let pi0 = 1.0 - pi1;
    let alpha = inputs.alpha;

    let qw: f64 = inputs
        .pdw
        .iter()
        .zip(inputs.fvals)
        .map(|(&w, &f)| w * f)
        .sum();
    let qt: f64 = inputs
        .pdt
        .iter()
        .zip(inputs.fvals)
        .map(|(&w, &f)| w * f)
        .sum();
    let q = alpha * qw + (1.0 - alpha) * qt;

    // Branch masses over (z, i); Case 1–4 of Equation 12.
    let m_z1_i0 = pz1 * pi0 * 0.5;
    let m_z0_i0 = pz0 * pi0 * 0.5;
    // A qualified worker matches the truth with probability q.
    let (lik_match, lik_mismatch) = (q, 1.0 - q);
    let (l_z1, l_z0) = if inputs.r {
        (lik_match, lik_mismatch) // r = 1: matches z = 1
    } else {
        (lik_mismatch, lik_match) // r = 0: matches z = 0
    };
    let m_z1_i1 = pz1 * pi1 * l_z1;
    let m_z0_i1 = pz0 * pi1 * l_z0;

    let total = m_z1_i0 + m_z0_i0 + m_z1_i1 + m_z0_i1;
    out.likelihood = total;
    if total <= 0.0 {
        // Degenerate priors; fall back to uninformative posteriors.
        out.z1 = 0.5;
        out.i1 = 0.5;
        let uniform = 1.0 / n as f64;
        out.dw.fill(uniform);
        out.dt.fill(uniform);
        return;
    }
    let inv = 1.0 / total;
    out.z1 = (m_z1_i0 + m_z1_i1) * inv;
    out.i1 = (m_z1_i1 + m_z0_i1) * inv;

    // d_w marginal: i = 0 branches keep the prior over d_w; in the i = 1
    // branch d_t is summed out of q_ab, leaving g_a.
    let m_i0 = m_z1_i0 + m_z0_i0;
    for a in 0..n {
        let g_a = alpha * inputs.fvals[a] + (1.0 - alpha) * qt;
        let (l1, l0) = if inputs.r {
            (g_a, 1.0 - g_a)
        } else {
            (1.0 - g_a, g_a)
        };
        out.dw[a] = inputs.pdw[a] * (m_i0 + pi1 * (pz1 * l1 + pz0 * l0)) * inv;
    }
    for b in 0..n {
        let h_b = alpha * qw + (1.0 - alpha) * inputs.fvals[b];
        let (l1, l0) = if inputs.r {
            (h_b, 1.0 - h_b)
        } else {
            (1.0 - h_b, h_b)
        };
        out.dt[b] = inputs.pdt[b] * (m_i0 + pi1 * (pz1 * l1 + pz0 * l0)) * inv;
    }
}

/// Computes the same posterior by enumerating the full
/// `2 × 2 × |F| × |F|` joint of Equation 12. `O(|F|²)`.
///
/// Kept as the readable reference implementation and the property-test
/// oracle for [`factored`].
#[must_use]
pub fn naive(inputs: &PosteriorInputs<'_>) -> Posterior {
    let n = inputs.fvals.len();
    let mut out = Posterior::zeros(n);
    let mut total = 0.0;

    for z in [false, true] {
        let pz = if z { inputs.pz1 } else { 1.0 - inputs.pz1 };
        for i in [false, true] {
            let pi = if i { inputs.pi1 } else { 1.0 - inputs.pi1 };
            for a in 0..n {
                for b in 0..n {
                    let lik = if i {
                        let q_ab =
                            inputs.alpha * inputs.fvals[a] + (1.0 - inputs.alpha) * inputs.fvals[b];
                        if inputs.r == z {
                            q_ab
                        } else {
                            1.0 - q_ab
                        }
                    } else {
                        0.5
                    };
                    let mass = pz * pi * inputs.pdw[a] * inputs.pdt[b] * lik;
                    total += mass;
                    if z {
                        out.z1 += mass;
                    }
                    if i {
                        out.i1 += mass;
                    }
                    out.dw[a] += mass;
                    out.dt[b] += mass;
                }
            }
        }
    }

    out.likelihood = total;
    if total <= 0.0 {
        out.z1 = 0.5;
        out.i1 = 0.5;
        out.dw.fill(1.0 / n as f64);
        out.dt.fill(1.0 / n as f64);
        return out;
    }
    let inv = 1.0 / total;
    out.z1 *= inv;
    out.i1 *= inv;
    for v in &mut out.dw {
        *v *= inv;
    }
    for v in &mut out.dt {
        *v *= inv;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DistanceFunctionSet;

    fn inputs_at<'a>(
        pz1: f64,
        pi1: f64,
        pdw: &'a [f64],
        pdt: &'a [f64],
        fvals: &'a [f64],
        r: bool,
    ) -> PosteriorInputs<'a> {
        PosteriorInputs {
            pz1,
            pi1,
            pdw,
            pdt,
            fvals,
            alpha: 0.5,
            r,
        }
    }

    fn assert_close(a: &Posterior, b: &Posterior) {
        assert!((a.z1 - b.z1).abs() < 1e-12, "z1 {} vs {}", a.z1, b.z1);
        assert!((a.i1 - b.i1).abs() < 1e-12, "i1 {} vs {}", a.i1, b.i1);
        for (x, y) in a.dw.iter().zip(&b.dw) {
            assert!((x - y).abs() < 1e-12, "dw {x} vs {y}");
        }
        for (x, y) in a.dt.iter().zip(&b.dt) {
            assert!((x - y).abs() < 1e-12, "dt {x} vs {y}");
        }
        assert!((a.likelihood - b.likelihood).abs() < 1e-12);
    }

    #[test]
    fn factored_matches_naive_on_grid() {
        let fset = DistanceFunctionSet::paper_default();
        for d in [0.0, 0.2, 0.7, 1.0] {
            let fvals = fset.values(d);
            for pz1 in [0.1, 0.5, 0.9] {
                for pi1 in [0.05, 0.8] {
                    for r in [false, true] {
                        let pdw = vec![0.2, 0.3, 0.5];
                        let pdt = vec![0.6, 0.3, 0.1];
                        let inp = inputs_at(pz1, pi1, &pdw, &pdt, &fvals, r);
                        let expected = naive(&inp);
                        let mut got = Posterior::zeros(3);
                        factored(&inp, &mut got);
                        assert_close(&got, &expected);
                    }
                }
            }
        }
    }

    #[test]
    fn marginals_are_normalised() {
        let fset = DistanceFunctionSet::paper_default();
        let fvals = fset.values(0.4);
        let pdw = vec![0.1, 0.1, 0.8];
        let pdt = vec![1.0 / 3.0; 3];
        let inp = inputs_at(0.7, 0.6, &pdw, &pdt, &fvals, true);
        let mut p = Posterior::zeros(3);
        factored(&inp, &mut p);
        assert!((p.dw.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((p.dt.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&p.z1));
        assert!((0.0..=1.0).contains(&p.i1));
        assert!(p.likelihood > 0.0 && p.likelihood <= 1.0);
    }

    #[test]
    fn spammer_posterior_ignores_distance() {
        // With P(i=1) = 0 the answer carries no information about z.
        let fset = DistanceFunctionSet::paper_default();
        let fvals = fset.values(0.1);
        let pdw = vec![1.0 / 3.0; 3];
        let pdt = vec![1.0 / 3.0; 3];
        let inp = inputs_at(0.3, 0.0, &pdw, &pdt, &fvals, true);
        let mut p = Posterior::zeros(3);
        factored(&inp, &mut p);
        assert!((p.z1 - 0.3).abs() < 1e-12, "prior preserved, got {}", p.z1);
        assert!((p.i1 - 0.0).abs() < 1e-12);
    }

    #[test]
    fn reliable_nearby_yes_raises_z() {
        // A fully qualified worker right next to the POI answering "yes"
        // should push P(z=1) far above the prior.
        let fset = DistanceFunctionSet::paper_default();
        let fvals = fset.values(0.0); // all f = 1 → q = 1
        let pdw = vec![1.0 / 3.0; 3];
        let pdt = vec![1.0 / 3.0; 3];
        let inp = inputs_at(0.5, 1.0, &pdw, &pdt, &fvals, true);
        let mut p = Posterior::zeros(3);
        factored(&inp, &mut p);
        assert!(p.z1 > 0.99, "got {}", p.z1);
    }

    #[test]
    fn mismatching_answer_shifts_dw_toward_steep_functions() {
        // A distant "wrong-looking" answer (r disagrees with a confident
        // prior z) is best explained by a steep distance function, which
        // predicts near-random quality far away.
        let fset = DistanceFunctionSet::paper_default();
        let fvals = fset.values(1.0); // f_0.1 ≈ 0.95, f_100 ≈ 0.5
        let pdw = vec![1.0 / 3.0; 3];
        let pdt = vec![1.0 / 3.0; 3];
        let inp = inputs_at(0.99, 0.9, &pdw, &pdt, &fvals, false);
        let mut p = Posterior::zeros(3);
        factored(&inp, &mut p);
        assert!(
            p.dw[2] > p.dw[0],
            "steep {} should outweigh flat {}",
            p.dw[2],
            p.dw[0]
        );
    }

    #[test]
    fn degenerate_zero_mass_falls_back_to_uniform() {
        // pz1 = 1 and a qualified worker guaranteed to match (q = 1)
        // observing r = 0 has probability 0 under the model.
        let fvals = vec![1.0, 1.0, 1.0];
        let pdw = vec![1.0 / 3.0; 3];
        let pdt = vec![1.0 / 3.0; 3];
        let inp = inputs_at(1.0, 1.0, &pdw, &pdt, &fvals, false);
        let mut p = Posterior::zeros(3);
        factored(&inp, &mut p);
        assert_eq!(p.likelihood, 0.0);
        assert_eq!(p.z1, 0.5);
        assert_eq!(p.dw, vec![1.0 / 3.0; 3]);
        // Naive oracle behaves identically.
        let q = naive(&inp);
        assert_eq!(q.z1, 0.5);
    }

    #[test]
    fn single_function_set_works() {
        let fvals = vec![0.8];
        let pdw = vec![1.0];
        let pdt = vec![1.0];
        let inp = inputs_at(0.5, 0.9, &pdw, &pdt, &fvals, true);
        let mut got = Posterior::zeros(1);
        factored(&inp, &mut got);
        assert_close(&got, &naive(&inp));
        assert_eq!(got.dw, vec![1.0]);
    }
}
