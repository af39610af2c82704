//! Inputs. The data is fixed: the simulated Beijing dataset (200 POIs) and
//! its worker population, generated from [`DATA_SEED`]. The traffic is
//! seeded by the workload seed: which worker answers which POI and in what
//! order, each answer's content, the arrival schedule and think times.
//! Fixing the data keeps the amount of work per run comparable across
//! seeds; the seed varies the traffic over it. None of this is timed.

use crowd_core::{Distances, LabelBits, TaskId, WorkerId};
use crowd_sim::{
    beijing, generate_population, AnswerSimulator, BehaviorConfig, PopulationConfig, SimPlatform,
};

/// SplitMix64: a tiny, stable generator for schedules and choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5eed_ba5e_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Seed of the dataset and the worker population.
pub const DATA_SEED: u64 = 2016;

/// The simulated Beijing dataset (200 POIs) with `n_workers` workers.
#[must_use]
pub fn platform(n_workers: usize) -> SimPlatform {
    let dataset = beijing(DATA_SEED);
    let population = generate_population(
        &PopulationConfig::with_workers(n_workers, DATA_SEED ^ 1),
        &dataset,
    );
    SimPlatform::new(
        dataset,
        population,
        BehaviorConfig::default(),
        DATA_SEED ^ 2,
    )
}

/// The simulated answer of worker `w` to task `t`: a function of the pair
/// and the seed only, so it does not depend on arrival interleaving.
#[must_use]
pub fn simulate_answer(
    platform: &SimPlatform,
    distances: &Distances,
    seed: u64,
    w: WorkerId,
    t: TaskId,
) -> LabelBits {
    let worker = platform.population.pool.worker(w);
    let task = platform.dataset.tasks.task(t);
    let pair = crowd_sim::rngx::pair_seed(u64::from(w.0), u64::from(t.0));
    let mut sim = AnswerSimulator::new(platform.behavior().clone(), pair.wrapping_add(seed));
    sim.answer(
        &platform.population.profiles[w.index()],
        &platform.dataset.true_dt[t.index()],
        &platform.dataset.truth[t.index()],
        distances.between(worker, task),
    )
}

/// The paper's accuracy (Equation 1) of a decision vector against the
/// simulated truth.
#[must_use]
pub fn accuracy(platform: &SimPlatform, decisions: &[LabelBits]) -> f64 {
    let tasks = &platform.dataset.tasks;
    let total: f64 = tasks
        .iter()
        .map(|task| {
            let truth = &platform.dataset.truth[task.id.index()];
            truth.agreement(&decisions[task.id.index()]) as f64 / task.n_labels() as f64
        })
        .sum();
    total / tasks.len() as f64
}

/// The Deployment-1 stream drawn with `seed`: every POI answered by `k`
/// distinct workers, globally shuffled.
#[must_use]
pub fn deployment1(
    platform: &SimPlatform,
    k: usize,
    seed: u64,
) -> Vec<(WorkerId, TaskId, LabelBits)> {
    platform
        .deployment1_with_seed(k, seed)
        .answers()
        .iter()
        .map(|a| (a.worker, a.task, a.bits))
        .collect()
}
