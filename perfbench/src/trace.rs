//! In-memory spans recorded around the benchmark's calls into the
//! workspace's public functions. Nothing inside the crates is
//! instrumented: a span covers one public call as seen by its caller.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crowd_serve::Json;

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// One timed interval. `trace` is shared by every span of one session
/// (campaign), answer (ingest) or cycle (recover); `parent` is the span
/// that caused this one, 0 for a root.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span buffer. Disabled tracers record nothing, so the
/// untraced run pays only a branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    /// A fresh span id, for a parent whose children are recorded first.
    #[must_use]
    pub fn next_id(&self) -> u64 {
        if self.enabled {
            NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records a finished span under a pre-allocated id.
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        trace: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Records a finished span and returns its id (0 when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id();
        self.record_as(id, name, trace, parent, start, end);
        id
    }

    /// Moves another tracer's spans into this one.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// The spans as a JSON array of `[id, parent, trace, name, start_ns,
    /// end_ns]` rows (compact: a traced run holds tens of thousands).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let num = |v: u64| Json::Num(v as f64);
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Arr(vec![
                        num(s.id),
                        num(s.parent),
                        num(s.trace),
                        Json::Str(s.name.to_owned()),
                        num(s.start_ns),
                        num(s.end_ns),
                    ])
                })
                .collect(),
        )
    }
}
