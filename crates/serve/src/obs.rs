//! Serve-layer observability: the per-service [`ObsHub`] and the bridge
//! implementing [`crowd_core::Recorder`] over it.
//!
//! Every [`LabellingService`](crate::LabellingService) owns one hub. The
//! drain threads record shard queue-wait and per-answer apply time into
//! its histograms; the core recorder bridge feeds EM-rebuild (split
//! dirty vs full sweep) and assignment timings; the snapshot paths
//! record capture/restore durations; a periodic self-sampler thread
//! appends queue-depth and event-log-length gauges. The trace ring
//! follows individual labelling requests across threads (see
//! [`crowd_obs::TraceBuf`]) and is drained by `GET /debug/trace`.
//!
//! The hub is process-local by design: snapshots do **not** serialize
//! it, and a restored service starts a fresh one (documented in
//! `docs/OBSERVABILITY.md`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crowd_core::{EmParallelism, Recorder};
use crowd_obs::{GaugeSeries, Histogram, TraceBuf};

/// Buffered trace events before the ring drops the oldest.
const TRACE_CAP: usize = 4096;
/// Buffered self-sampler points per gauge series.
const SERIES_CAP: usize = 512;

/// All observability state for one running service.
#[derive(Debug)]
pub struct ObsHub {
    /// Time commands spent waiting in their shard's ingestion queue.
    pub queue_wait: Histogram,
    /// Per-answer apply time under the shard write lock (includes any
    /// incremental model update; a triggered delayed rebuild shows up
    /// here *and* in the EM histograms).
    pub apply: Histogram,
    /// Full-sweep EM rebuilds: durations, iterations, unconverged count.
    pub em_full: EmRebuilds,
    /// Dirty-set EM rebuilds: durations, iterations, unconverged count.
    pub em_dirty: EmRebuilds,
    /// Assignment-round durations (the assigner's inner loop).
    pub assign: Histogram,
    /// Gossip publish + fold round durations.
    pub gossip_round: Histogram,
    /// Snapshot capture (quiesce + render) durations.
    pub snapshot: Histogram,
    /// Snapshot restore durations (recorded into the *restored*
    /// service's hub).
    pub restore: Histogram,
    /// The request trace ring (span ids across HTTP → enqueue → drain →
    /// EM → gossip fold).
    pub trace: TraceBuf,
    /// Self-sampled total ingestion-queue depth over time.
    pub queue_depth_series: GaugeSeries,
    /// Self-sampled total recorded-event-log length over time.
    pub events_len_series: GaugeSeries,
}

/// EM rebuilds of one sweep kind: their durations, kept apart by the
/// E-step thread count each rebuild ran with (1 = sequential, 2 = side
/// split) so every sample keeps the count it was recorded under, their
/// iteration counts, and how many stopped at the iteration cap without
/// converging.
#[derive(Debug)]
pub struct EmRebuilds {
    by_threads: [Histogram; EmParallelism::MAX_SWEEP_THREADS],
    iterations: Histogram,
    unconverged: AtomicU64,
}

impl EmRebuilds {
    /// Empty histograms and a zero count.
    #[must_use]
    pub fn new() -> Self {
        Self {
            by_threads: [Histogram::new(), Histogram::new()],
            iterations: Histogram::new(),
            unconverged: AtomicU64::new(0),
        }
    }

    /// Records one rebuild that ran `iterations` EM iterations on
    /// `threads` E-step threads, stopping converged or not.
    pub fn record(&self, took: Duration, threads: usize, iterations: usize, converged: bool) {
        self.by_threads[threads.clamp(1, EmParallelism::MAX_SWEEP_THREADS) - 1]
            .record_duration(took);
        self.iterations.record(iterations as u64);
        if !converged {
            self.unconverged.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The rebuilds that ran on `threads` (1 or 2) E-step threads.
    ///
    /// # Panics
    /// Panics if `threads` is not 1 or 2.
    #[must_use]
    pub fn threads(&self, threads: usize) -> &Histogram {
        &self.by_threads[threads - 1]
    }

    /// Every rebuild of this kind, whatever its thread count.
    #[must_use]
    pub fn total(&self) -> Histogram {
        let total = Histogram::new();
        for h in &self.by_threads {
            total.merge_from(h);
        }
        total
    }

    /// EM iterations per rebuild.
    #[must_use]
    pub fn iterations(&self) -> &Histogram {
        &self.iterations
    }

    /// Rebuilds that stopped at the iteration cap without reaching the
    /// tolerance.
    #[must_use]
    pub fn unconverged(&self) -> u64 {
        self.unconverged.load(Ordering::Relaxed)
    }
}

impl Default for EmRebuilds {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsHub {
    /// A fresh hub with empty histograms and rings.
    #[must_use]
    pub fn new() -> Self {
        Self {
            queue_wait: Histogram::new(),
            apply: Histogram::new(),
            em_full: EmRebuilds::new(),
            em_dirty: EmRebuilds::new(),
            assign: Histogram::new(),
            gossip_round: Histogram::new(),
            snapshot: Histogram::new(),
            restore: Histogram::new(),
            trace: TraceBuf::new(TRACE_CAP),
            queue_depth_series: GaugeSeries::new(SERIES_CAP),
            events_len_series: GaugeSeries::new(SERIES_CAP),
        }
    }
}

impl Default for ObsHub {
    fn default() -> Self {
        Self::new()
    }
}

/// Bridges [`crowd_core::Recorder`] onto an [`ObsHub`]: attached to
/// every shard's framework at service construction, so EM rebuilds and
/// assignment rounds inside the core land in the hub's histograms.
#[derive(Debug)]
pub struct CoreRecorder {
    hub: Arc<ObsHub>,
}

impl CoreRecorder {
    /// A recorder feeding `hub`.
    #[must_use]
    pub fn new(hub: Arc<ObsHub>) -> Self {
        Self { hub }
    }
}

impl Recorder for CoreRecorder {
    fn em_rebuild(
        &self,
        took: Duration,
        full_sweep: bool,
        _answers_swept: usize,
        threads: usize,
        iterations: usize,
        converged: bool,
    ) {
        let rebuilds = if full_sweep {
            &self.hub.em_full
        } else {
            &self.hub.em_dirty
        };
        rebuilds.record(took, threads, iterations, converged);
    }

    fn assignment(&self, took: Duration, _pairs: usize) {
        self.hub.assign.record_duration(took);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_recorder_splits_em_by_sweep_kind() {
        let hub = Arc::new(ObsHub::new());
        let rec = CoreRecorder::new(Arc::clone(&hub));
        rec.em_rebuild(Duration::from_micros(5), true, 100, 2, 100, false);
        rec.em_rebuild(Duration::from_micros(2), false, 10, 1, 4, true);
        rec.em_rebuild(Duration::from_micros(3), false, 12, 1, 6, true);
        rec.em_rebuild(Duration::from_micros(7), true, 50, 1, 9, true);
        rec.assignment(Duration::from_micros(1), 4);
        assert_eq!(hub.em_full.total().count(), 2);
        assert_eq!(hub.em_dirty.total().count(), 2);
        assert_eq!(hub.assign.count(), 1);
        assert_eq!(hub.em_full.total().sum(), 12_000);
        // Each sample keeps the thread count it ran with: the later
        // sequential rebuild does not relabel the earlier split one.
        assert_eq!(hub.em_full.threads(2).sum(), 5_000);
        assert_eq!(hub.em_full.threads(1).sum(), 7_000);
        assert_eq!(hub.em_dirty.threads(1).count(), 2);
        assert!(hub.em_dirty.threads(2).is_empty());
        // Iterations and unconverged rebuilds, per sweep kind.
        assert_eq!(hub.em_full.iterations().count(), 2);
        assert_eq!(hub.em_full.iterations().sum(), 109);
        assert_eq!(hub.em_full.iterations().max(), 100);
        assert_eq!(hub.em_dirty.iterations().sum(), 10);
        assert_eq!(hub.em_full.unconverged(), 1);
        assert_eq!(hub.em_dirty.unconverged(), 0);
    }
}
