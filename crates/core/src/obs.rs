//! Instrumentation hooks: the [`Recorder`] trait and its handle.
//!
//! `crowd_core` stays dependency-free, so instead of depending on an
//! observability crate it *defines* the sink interface and lets the
//! embedding layer (e.g. `crowd_serve`) plug one in. When no recorder
//! is attached — the default — the hot paths skip even the clock reads:
//! every instrumentation site checks [`RecorderHandle::is_enabled`]
//! before touching `Instant::now()`, so an uninstrumented `Framework`
//! pays one branch on a `None` per event, nothing more.
//!
//! The handle is deliberately excluded from `serde` state: recorders
//! describe a *process*, not a campaign, so snapshots neither carry nor
//! restore them (the embedder re-attaches after restore).

use std::sync::Arc;
use std::time::Duration;

/// A sink for timing events produced inside the core framework.
///
/// Implementations must be cheap and non-blocking — these methods are
/// called from the EM and assignment hot paths.
pub trait Recorder: Send + Sync {
    /// An EM rebuild finished. `full_sweep` distinguishes an
    /// unconditional full sweep from a dirty (incremental) sweep;
    /// `answers_swept` is how many answers the sweep visited; `threads`
    /// is the effective E-step thread count the sweep ran with (1 = the
    /// sequential path); `iterations` is how many EM iterations it ran,
    /// and `converged` whether it reached the tolerance before the
    /// iteration cap. A rebuild's E-step cost is `iterations` ×
    /// `answers_swept`.
    fn em_rebuild(
        &self,
        took: Duration,
        full_sweep: bool,
        answers_swept: usize,
        threads: usize,
        iterations: usize,
        converged: bool,
    );

    /// One assignment round finished: the assigner produced `pairs`
    /// worker–task pairs in `took`.
    fn assignment(&self, took: Duration, pairs: usize);
}

/// A cloneable, optional [`Recorder`] slot held by [`Framework`] and
/// [`OnlineModel`].
///
/// The handle is [`Default`]-empty, compares irrelevant to model state
/// (it is skipped by `serde`), and is safe to clone across shards — all
/// clones share the same underlying recorder.
///
/// [`Framework`]: crate::Framework
/// [`OnlineModel`]: crate::OnlineModel
#[derive(Clone, Default)]
pub struct RecorderHandle(Option<Arc<dyn Recorder>>);

impl std::fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("RecorderHandle")
            .field(&if self.0.is_some() { "attached" } else { "none" })
            .finish()
    }
}

impl RecorderHandle {
    /// A handle wrapping `recorder`.
    #[must_use]
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        Self(Some(recorder))
    }

    /// The empty handle: every event is a no-op.
    #[must_use]
    pub fn none() -> Self {
        Self(None)
    }

    /// Whether a recorder is attached. Instrumentation sites gate their
    /// `Instant::now()` calls on this, keeping the disabled path free
    /// of clock reads.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Forwards an EM rebuild event, if a recorder is attached.
    pub fn em_rebuild(
        &self,
        took: Duration,
        full_sweep: bool,
        answers_swept: usize,
        threads: usize,
        iterations: usize,
        converged: bool,
    ) {
        if let Some(r) = &self.0 {
            r.em_rebuild(
                took,
                full_sweep,
                answers_swept,
                threads,
                iterations,
                converged,
            );
        }
    }

    /// Forwards an assignment event, if a recorder is attached.
    pub fn assignment(&self, took: Duration, pairs: usize) {
        if let Some(r) = &self.0 {
            r.assignment(took, pairs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Counting {
        em: AtomicUsize,
        assign: AtomicUsize,
    }

    impl Recorder for Counting {
        fn em_rebuild(
            &self,
            _took: Duration,
            _full_sweep: bool,
            _answers_swept: usize,
            _threads: usize,
            _iterations: usize,
            _converged: bool,
        ) {
            self.em.fetch_add(1, Ordering::Relaxed);
        }

        fn assignment(&self, _took: Duration, _pairs: usize) {
            self.assign.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn handle_forwards_when_attached_and_noops_when_not() {
        let none = RecorderHandle::default();
        assert!(!none.is_enabled());
        none.em_rebuild(Duration::ZERO, true, 0, 1, 0, true); // no-op, no panic

        let sink = Arc::new(Counting {
            em: AtomicUsize::new(0),
            assign: AtomicUsize::new(0),
        });
        let handle = RecorderHandle::new(sink.clone());
        assert!(handle.is_enabled());
        let clone = handle.clone();
        handle.em_rebuild(Duration::from_millis(1), false, 7, 2, 12, false);
        clone.assignment(Duration::from_millis(2), 3);
        assert_eq!(sink.em.load(Ordering::Relaxed), 1);
        assert_eq!(sink.assign.load(Ordering::Relaxed), 1);
        assert_eq!(format!("{handle:?}"), "RecorderHandle(\"attached\")");
    }
}
