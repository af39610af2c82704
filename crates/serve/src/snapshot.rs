//! Campaign persistence: snapshot format **v4** — elastic-aware on top of
//! the v3 parameter-carrying, delta-deduplicated layout — plus the
//! upgrade-on-parse readers for v1–v3 documents.
//!
//! The full spec lives in `docs/SNAPSHOT_FORMAT.md`; the short version:
//!
//! * **v1** (pre-gossip) stored each shard's answer log; restore replayed
//!   it through [`crowd_core::Framework::submit`].
//! * **v2** added the gossip layer: positioned out-of-stream events (peer
//!   folds, hardening sweeps) with *inline* delta payloads, per-shard
//!   publish counters, and the in-flight exchange. Restore replayed the
//!   whole event stream — answers interleaved with events — which is
//!   bit-identical but costs a full campaign's worth of incremental-EM
//!   work, and the inline payloads stored every published delta once *per
//!   folding peer*.
//! * **v3** fixes both growth terms:
//!   1. **Parameters**: each shard persists its latest full-sweep
//!      [`ModelCheckpoint`] (position, event index, converged
//!      [`ModelParams`]). Right after a full sweep the whole model state
//!      is a pure function of `(params, log prefix, folded peers)` — see
//!      [`crowd_core::OnlineModel::restore_checkpoint`] — so restore
//!      bulk-loads the prefix, re-seeds the parameters, recomputes the
//!      sufficient statistics with one deterministic E-pass and replays
//!      only the short suffix recorded after the checkpoint. A shard
//!      without a checkpoint replays its whole stream;
//!      [`LabellingService::restore_verified`] also restores a copy of the
//!      document with every checkpoint cleared and proves the two
//!      bit-identical.
//!   2. **Deduplication**: every [`WorkerStatDelta`] payload is stored
//!      once in a top-level table keyed `(source, version)` (the publish
//!      counter makes the key unique); fold events and exchange slots are
//!      two-number references into it.
//!   3. **Increments**: [`Shard::snapshot_delta`] emits only the answers
//!      and events recorded past a [`SnapshotCursor`];
//!      [`ServiceSnapshot::compact`] folds a chain of
//!      [`ServiceSnapshotDelta`]s back into a base that is
//!      byte-identical to a fresh full snapshot.
//!
//! * **v4** makes elasticity persistable. Three content-conditional
//!   additions to the v3 layout — absent on a campaign that never used
//!   them, so such documents differ from v3 only in the version stamp:
//!   1. a top-level `map {version, cells}` block recording the current
//!      [`ShardMap`] whenever a split/merge has bumped it
//!      past the initial version 1 (restore re-partitions shards by it
//!      before replaying);
//!   2. a per-shard `seqs` array of canonical global sequence numbers,
//!      present once a handoff has materialized them (they order the
//!      merged answer streams of later handoffs);
//!   3. a `register` gossip-event kind recording mid-campaign worker
//!      registration at its stream position, replayed into the pool so a
//!      restored service re-grows it identically.
//!
//!   A `prune_every` config field (the periodic self-scheduled prune)
//!   rides along, emitted only when set. Incremental deltas are **not**
//!   defined once a handoff has moved the map or materialized `seqs`:
//!   [`LabellingService::snapshot_delta`] rejects such a campaign (re-base
//!   on a full snapshot instead). Registrations are ordinary stream events
//!   and chain like any other.
//!
//! The in-memory form is version-free: [`ServiceSnapshot::to_json`] always
//! writes v4, and v1–v3 documents are upgraded on parse into the same form
//! (inline v1/v2 payloads resolve where v3+ table references do) and
//! restore exactly as recorded — v1/v2 carry no checkpoint, so restore
//! replays their whole stream.

use std::collections::BTreeMap;

use crowd_core::{
    CoreError, DistanceFunctionSet, EmConfig, EmParallelism, InitStrategy, LabelBits, ModelParams,
    PeerStats, SufficientStats, TaskId, TaskSet, UpdatePolicy, Worker, WorkerId, WorkerPool,
    WorkerStatDelta,
};
use crowd_geo::Point;

use crate::json::{Json, JsonError};
use crate::service::{LabellingService, RetentionPolicy, ServeConfig};
use crate::shard::{GossipEvent, GossipEventKind, ModelCheckpoint, Shard, ShardMap};

/// The snapshot format version every writer stamps. Versions 1
/// (pre-gossip), 2 (gossip, inline payloads, no checkpoint) and 3
/// (checkpoints + delta table, no elasticity) are still accepted by
/// [`ServiceSnapshot::from_json`], and v3 deltas by
/// [`ServiceSnapshotDelta::from_json`].
pub const SNAPSHOT_VERSION: u64 = 4;

/// Errors from snapshot encoding, decoding or restore.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The document is not valid JSON.
    Json(JsonError),
    /// The document is valid JSON but not a valid snapshot.
    Schema(String),
    /// The snapshot does not match the task set / worker pool / shard map
    /// it is being restored against (or a delta does not chain onto its
    /// base, or the two restore paths disagreed under verification).
    Mismatch(String),
    /// A recorded answer was rejected during replay (corrupt log).
    Replay {
        /// The shard whose replay failed.
        shard: usize,
        /// The rejection.
        error: CoreError,
    },
}

impl From<JsonError> for SnapshotError {
    fn from(e: JsonError) -> Self {
        Self::Json(e)
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Json(e) => write!(f, "{e}"),
            Self::Schema(msg) => write!(f, "snapshot schema error: {msg}"),
            Self::Mismatch(msg) => write!(f, "snapshot mismatch: {msg}"),
            Self::Replay { shard, error } => {
                write!(f, "replay failed on shard {shard}: {error}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One recorded answer, in the global task id space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SnapshotAnswer {
    /// The answering worker.
    pub worker: WorkerId,
    /// The answered task (global id).
    pub task: TaskId,
    /// The verdict bits.
    pub bits: LabelBits,
}

/// One shard's persisted state.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ShardSnapshot {
    /// Shard id.
    pub shard: usize,
    /// The shard's budget slice.
    pub budget: usize,
    /// Budget charged at snapshot time (may exceed the answer count:
    /// assignments can be issued and not yet answered).
    pub budget_used: usize,
    /// The shard's answers in arrival order.
    pub answers: Vec<SnapshotAnswer>,
    /// Out-of-stream model events (peer-statistic folds, hardening full
    /// sweeps) applied to this shard, in order, each stamped with the
    /// answer-log position it was applied at. Restore interleaves them
    /// with the answer replay to reproduce the exact event stream.
    pub gossip_events: Vec<GossipEvent>,
    /// Deltas the shard has published — the version-stamp counter, so a
    /// restored shard's next publish continues the sequence instead of
    /// reusing an already-seen version.
    pub publishes: u64,
    /// The shard's latest full-sweep checkpoint (v3): restore hardens from
    /// these parameters and replays only the stream recorded after it.
    /// `None` in v1/v2 documents and before the first full sweep — restore
    /// then replays the whole stream.
    pub checkpoint: Option<ModelCheckpoint>,
    /// The `(worker, global task)` pairs of answers truncated from the
    /// front of the stream by a retention prune
    /// ([`Shard::prune_to_checkpoint`]). Their payloads live only in the
    /// spill tier (if configured); the pairs keep duplicate detection and
    /// per-worker/per-task counts exact. Empty until a prune; when
    /// non-empty, `answers` holds only the stream suffix from position
    /// `pruned_pairs.len()` on and the shard must carry a checkpoint at or
    /// past that floor.
    pub pruned_pairs: Vec<(WorkerId, TaskId)>,
    /// The frozen sufficient-statistics baseline the pruned prefix
    /// contributed ([`crowd_core::OnlineModel::frozen_baseline`]). Present
    /// exactly when the shard has pruned; restore re-seeds the model from
    /// it before recomputing the resident suffix.
    pub frozen: Option<SufficientStats>,
    /// Canonical global sequence numbers of this shard's answers, in
    /// arrival order (v4, present once a handoff has materialized them —
    /// `None` on a campaign whose map never moved). They record the total
    /// order handoffs merge answer streams in; restore adopts them
    /// verbatim and resumes the global counter past their maximum.
    pub seqs: Option<Vec<u64>>,
}

/// The versioned grid-cell → shard partition of a v4 document, recorded
/// whenever a split/merge has pushed the [`ShardMap`]
/// past its initial version.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SnapshotShardMap {
    /// Monotone map version (1 = the startup partition).
    pub version: u64,
    /// Owning shard of each grid cell, indexed by cell id.
    pub cells: Vec<u32>,
}

/// A whole-service snapshot.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ServiceSnapshot {
    /// Task count of the campaign the snapshot belongs to.
    pub n_tasks: usize,
    /// Worker count of the campaign the snapshot belongs to.
    pub n_workers: usize,
    /// The service configuration (shard count already clamped).
    pub config: ServeConfig,
    /// Per-shard state, indexed by shard id.
    pub shards: Vec<ShardSnapshot>,
    /// The gossip exchange at snapshot time: each shard's latest
    /// *published* delta (the "in-flight" statistics peers have not
    /// necessarily folded yet), indexed by shard id. Empty when gossip is
    /// disabled or in v1 documents.
    pub exchange: Vec<Option<WorkerStatDelta>>,
    /// The current shard map, recorded (v4) only when elasticity has
    /// bumped its version past the initial partition — `None` means the
    /// startup [`ShardMap`] derived from the task set and
    /// `config.n_shards` is still in force, exactly as in v1–v3.
    pub map: Option<SnapshotShardMap>,
}

/// A per-shard position in the persisted stream: how many answers and how
/// many out-of-stream events a base snapshot (or delta chain) already
/// covers. [`Shard::snapshot_delta`] emits everything past the cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SnapshotCursor {
    /// Answers already covered.
    pub answers: usize,
    /// Recorded events already covered.
    pub events: usize,
}

/// One shard's incremental snapshot: the stream recorded past a cursor,
/// plus the shard's current counters and latest checkpoint.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ShardDelta {
    /// Shard id.
    pub shard: usize,
    /// Where the base (or previous delta) left off.
    pub since: SnapshotCursor,
    /// Budget charged at delta time (current total, not an increment).
    pub budget_used: usize,
    /// Publish counter at delta time (current total).
    pub publishes: u64,
    /// Answers recorded after `since.answers`, in arrival order.
    pub answers: Vec<SnapshotAnswer>,
    /// Events recorded after `since.events`, in order.
    pub gossip_events: Vec<GossipEvent>,
    /// The shard's latest checkpoint at delta time (may predate the
    /// cursor when no full sweep ran since the base).
    pub checkpoint: Option<ModelCheckpoint>,
}

/// A whole-service incremental snapshot: everything recorded since a base
/// snapshot (or since the previous delta in a chain). Fold a chain back
/// into a restorable base with [`ServiceSnapshot::compact`].
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ServiceSnapshotDelta {
    /// Task count of the campaign (validated against the base on compact).
    pub n_tasks: usize,
    /// Worker count of the campaign.
    pub n_workers: usize,
    /// Per-shard increments, indexed by shard id.
    pub shards: Vec<ShardDelta>,
    /// The full exchange at delta time (supersedes the base's).
    pub exchange: Vec<Option<WorkerStatDelta>>,
}

fn bits_to_string(bits: LabelBits) -> String {
    bits.iter().map(|b| if b { '1' } else { '0' }).collect()
}

fn bits_from_string(s: &str) -> Result<LabelBits, SnapshotError> {
    if s.len() > LabelBits::MAX_LABELS || s.chars().any(|c| c != '0' && c != '1') {
        return Err(SnapshotError::Schema(format!("invalid bit string '{s}'")));
    }
    let values: Vec<bool> = s.chars().map(|c| c == '1').collect();
    Ok(LabelBits::from_slice(&values))
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, SnapshotError> {
    obj.get(key)
        .ok_or_else(|| SnapshotError::Schema(format!("missing field '{key}'")))
}

fn usize_field(obj: &Json, key: &str) -> Result<usize, SnapshotError> {
    field(obj, key)?.as_usize().ok_or_else(|| {
        SnapshotError::Schema(format!("field '{key}' is not a non-negative integer"))
    })
}

fn f64_field(obj: &Json, key: &str) -> Result<f64, SnapshotError> {
    field(obj, key)?
        .as_f64()
        .ok_or_else(|| SnapshotError::Schema(format!("field '{key}' is not a number")))
}

fn str_field<'a>(obj: &'a Json, key: &str) -> Result<&'a str, SnapshotError> {
    field(obj, key)?
        .as_str()
        .ok_or_else(|| SnapshotError::Schema(format!("field '{key}' is not a string")))
}

fn f64_array(obj: &Json, key: &str) -> Result<Vec<f64>, SnapshotError> {
    field(obj, key)?
        .as_arr()
        .ok_or_else(|| SnapshotError::Schema(format!("'{key}' is not an array")))?
        .iter()
        .map(|v| {
            v.as_f64()
                .filter(|x| x.is_finite())
                .ok_or_else(|| SnapshotError::Schema(format!("'{key}' holds a non-number")))
        })
        .collect()
}

fn u32_array(obj: &Json, key: &str) -> Result<Vec<u32>, SnapshotError> {
    field(obj, key)?
        .as_arr()
        .ok_or_else(|| SnapshotError::Schema(format!("'{key}' is not an array")))?
        .iter()
        .map(|v| {
            v.as_usize()
                .and_then(|x| u32::try_from(x).ok())
                .ok_or_else(|| SnapshotError::Schema(format!("'{key}' holds an invalid count")))
        })
        .collect()
}

#[allow(clippy::cast_precision_loss)] // n_funcs stays far below 2^53
fn delta_to_json(delta: &WorkerStatDelta) -> Json {
    Json::Obj(vec![
        ("source".into(), Json::uint(delta.source)),
        ("version".into(), Json::uint(delta.version)),
        ("n_funcs".into(), Json::Num(delta.n_funcs as f64)),
        ("i_sum".into(), Json::num_array(delta.i_sum.iter().copied())),
        (
            "worker_bits".into(),
            Json::num_array(delta.worker_bits.iter().map(|&b| f64::from(b))),
        ),
        (
            "dw_sum".into(),
            Json::num_array(delta.dw_sum.iter().copied()),
        ),
    ])
}

fn delta_from_json(value: &Json) -> Result<WorkerStatDelta, SnapshotError> {
    let delta = WorkerStatDelta {
        source: usize_field(value, "source")? as u64,
        version: usize_field(value, "version")? as u64,
        n_funcs: usize_field(value, "n_funcs")?,
        i_sum: f64_array(value, "i_sum")?,
        worker_bits: u32_array(value, "worker_bits")?,
        dw_sum: f64_array(value, "dw_sum")?,
    };
    if !delta.is_well_formed() {
        return Err(SnapshotError::Schema(
            "worker-stat delta has inconsistent shapes".into(),
        ));
    }
    Ok(delta)
}

/// The deduplicated payload table of a v3 document: each referenced
/// [`WorkerStatDelta`] exactly once, keyed by its unique `(source,
/// version)` stamp, in key order for deterministic rendering.
type DeltaTable<'a> = BTreeMap<(u64, u64), &'a WorkerStatDelta>;

fn table_insert<'a>(table: &mut DeltaTable<'a>, delta: &'a WorkerStatDelta) {
    let prior = table.insert((delta.source, delta.version), delta);
    debug_assert!(
        prior.is_none_or(|p| p == delta),
        "two distinct payloads share the stamp ({}, {}) — publish counters must be unique",
        delta.source,
        delta.version
    );
}

/// Collects every delta payload referenced by `events` and `exchange`.
fn build_delta_table<'a>(
    shard_events: impl Iterator<Item = &'a [GossipEvent]>,
    exchange: &'a [Option<WorkerStatDelta>],
) -> DeltaTable<'a> {
    let mut table = DeltaTable::new();
    for events in shard_events {
        for event in events {
            if let GossipEventKind::Fold(delta) = &event.kind {
                table_insert(&mut table, delta);
            }
        }
    }
    for slot in exchange.iter().flatten() {
        table_insert(&mut table, slot);
    }
    table
}

#[allow(clippy::cast_precision_loss)]
fn table_to_json(table: &DeltaTable<'_>) -> Json {
    Json::Arr(table.values().map(|d| delta_to_json(d)).collect())
}

/// The parsed payload table of a v3+ document, keyed like [`DeltaTable`].
type PayloadTable = BTreeMap<(u64, u64), WorkerStatDelta>;

fn table_from_json(doc: &Json) -> Result<PayloadTable, SnapshotError> {
    let mut table = BTreeMap::new();
    // Absent table = no gossip data anywhere in the document.
    let Some(entries) = doc.get("deltas") else {
        return Ok(table);
    };
    let entries = entries
        .as_arr()
        .ok_or_else(|| SnapshotError::Schema("'deltas' is not an array".into()))?;
    for entry in entries {
        let delta = delta_from_json(entry)?;
        let key = (delta.source, delta.version);
        if table.insert(key, delta).is_some() {
            // A valid writer emits each stamp exactly once; a duplicate
            // means the two entries could disagree and references would
            // silently resolve to whichever won.
            return Err(SnapshotError::Schema(format!(
                "delta table holds (source {}, version {}) more than once",
                key.0, key.1
            )));
        }
    }
    Ok(table)
}

/// Rejects documents in which two *different* payloads share a `(source,
/// version)` stamp — the uniqueness invariant the gossip algebra and the
/// v3 delta table rest on. Identical duplicates are expected (the same
/// published delta folded by several shards appears once per fold in
/// legacy documents) and pass. Called on the legacy parse path; v3
/// documents are covered by the table itself.
fn check_stamp_uniqueness<'a>(
    payloads: impl Iterator<Item = &'a WorkerStatDelta>,
) -> Result<(), SnapshotError> {
    let mut seen: DeltaTable<'a> = BTreeMap::new();
    for delta in payloads {
        if let Some(prior) = seen.insert((delta.source, delta.version), delta) {
            if prior != delta {
                return Err(SnapshotError::Schema(format!(
                    "two different payloads share the stamp (source {}, version {}) — \
                     publish stamps must identify payloads uniquely",
                    delta.source, delta.version
                )));
            }
        }
    }
    Ok(())
}

fn table_lookup(table: &PayloadTable, value: &Json) -> Result<WorkerStatDelta, SnapshotError> {
    let source = usize_field(value, "source")? as u64;
    let version = usize_field(value, "version")? as u64;
    table.get(&(source, version)).cloned().ok_or_else(|| {
        SnapshotError::Schema(format!(
            "delta table has no entry for (source {source}, version {version})"
        ))
    })
}

/// Resolves one fold payload: inline in a v1/v2 document (`table` is
/// `None`), a `(source, version)` reference into the table from v3 on.
fn payload_from_json(
    value: &Json,
    table: Option<&PayloadTable>,
) -> Result<WorkerStatDelta, SnapshotError> {
    match table {
        None => delta_from_json(value),
        Some(table) => table_lookup(table, value),
    }
}

fn delta_ref_json(delta: &WorkerStatDelta) -> Json {
    Json::Obj(vec![
        ("source".into(), Json::uint(delta.source)),
        ("version".into(), Json::uint(delta.version)),
    ])
}

#[allow(clippy::cast_precision_loss)]
fn params_to_json(params: &ModelParams) -> Json {
    Json::Obj(vec![
        ("n_funcs".into(), Json::Num(params.n_funcs() as f64)),
        ("z".into(), Json::num_array(params.z().iter().copied())),
        (
            "iw".into(),
            Json::num_array(params.inherent_all().iter().copied()),
        ),
        (
            "dw".into(),
            Json::num_array(params.dw_flat().iter().copied()),
        ),
        (
            "dt".into(),
            Json::num_array(params.dt_flat().iter().copied()),
        ),
    ])
}

fn params_from_json(value: &Json) -> Result<ModelParams, SnapshotError> {
    ModelParams::from_parts(
        usize_field(value, "n_funcs")?,
        f64_array(value, "z")?,
        f64_array(value, "iw")?,
        f64_array(value, "dw")?,
        f64_array(value, "dt")?,
    )
    .ok_or_else(|| {
        SnapshotError::Schema("checkpoint parameters are malformed (shape or range)".into())
    })
}

/// Serializes a frozen [`SufficientStats`] baseline (pruned shards only):
/// the raw accumulator arrays, restored bit-for-bit through
/// [`SufficientStats::from_parts`].
#[allow(clippy::cast_precision_loss)]
fn stats_to_json(stats: &SufficientStats) -> Json {
    Json::Obj(vec![
        ("n_funcs".into(), Json::Num(stats.n_funcs() as f64)),
        (
            "z_sum".into(),
            Json::num_array(stats.z_sum().iter().copied()),
        ),
        (
            "task_answers".into(),
            Json::num_array(stats.task_answers().iter().map(|&n| f64::from(n))),
        ),
        (
            "i_sum".into(),
            Json::num_array(stats.i_sum().iter().copied()),
        ),
        (
            "worker_bits".into(),
            Json::num_array(stats.worker_bits().iter().map(|&n| f64::from(n))),
        ),
        (
            "dw_sum".into(),
            Json::num_array(stats.dw_sum().iter().copied()),
        ),
        (
            "dt_sum".into(),
            Json::num_array(stats.dt_sum().iter().copied()),
        ),
    ])
}

fn stats_from_json(value: &Json) -> Result<SufficientStats, SnapshotError> {
    SufficientStats::from_parts(
        usize_field(value, "n_funcs")?,
        f64_array(value, "z_sum")?,
        u32_array(value, "task_answers")?,
        f64_array(value, "i_sum")?,
        u32_array(value, "worker_bits")?,
        f64_array(value, "dw_sum")?,
        f64_array(value, "dt_sum")?,
    )
    .ok_or_else(|| {
        SnapshotError::Schema("frozen statistics baseline is malformed (shape mismatch)".into())
    })
}

fn checkpoint_to_json(cp: &ModelCheckpoint) -> Json {
    Json::Obj(vec![
        ("position".into(), Json::uint(cp.position as u64)),
        (
            "events_applied".into(),
            Json::uint(cp.events_applied as u64),
        ),
        ("params".into(), params_to_json(&cp.params)),
    ])
}

fn checkpoint_from_json(value: &Json) -> Result<ModelCheckpoint, SnapshotError> {
    Ok(ModelCheckpoint {
        position: usize_field(value, "position")?,
        events_applied: usize_field(value, "events_applied")?,
        params: params_from_json(field(value, "params")?)?,
    })
}

#[allow(clippy::cast_precision_loss)]
fn answers_to_json(answers: &[SnapshotAnswer]) -> Json {
    Json::Arr(
        answers
            .iter()
            .map(|a| {
                Json::Obj(vec![
                    ("w".into(), Json::Num(f64::from(a.worker.0))),
                    ("t".into(), Json::Num(f64::from(a.task.0))),
                    ("bits".into(), Json::Str(bits_to_string(a.bits))),
                ])
            })
            .collect(),
    )
}

fn answers_from_json(value: &Json) -> Result<Vec<SnapshotAnswer>, SnapshotError> {
    let answers_json = value
        .as_arr()
        .ok_or_else(|| SnapshotError::Schema("'answers' is not an array".into()))?;
    let mut answers = Vec::with_capacity(answers_json.len());
    for a in answers_json {
        answers.push(SnapshotAnswer {
            worker: WorkerId(
                u32::try_from(usize_field(a, "w")?)
                    .map_err(|_| SnapshotError::Schema("worker id out of range".into()))?,
            ),
            task: TaskId(
                u32::try_from(usize_field(a, "t")?)
                    .map_err(|_| SnapshotError::Schema("task id out of range".into()))?,
            ),
            bits: bits_from_string(str_field(a, "bits")?)?,
        });
    }
    Ok(answers)
}

/// Marks a pruned fold: `"ref":true` plus the stamp, and — unlike a plain
/// `(source, version)` table reference — no payload anywhere in the
/// document. The marker keeps the dangling-reference corruption check
/// meaningful for unpruned folds.
fn fold_ref_entry(entry: &mut Vec<(String, Json)>, source: u64, version: u64) {
    entry.push(("ref".into(), Json::Bool(true)));
    entry.push(("source".into(), Json::uint(source)));
    entry.push(("version".into(), Json::uint(version)));
}

/// Renders a mid-campaign worker registration (v4): the display name and
/// the single recorded location.
fn register_entry(entry: &mut Vec<(String, Json)>, name: &str, x: f64, y: f64) {
    entry.push((
        "register".into(),
        Json::Obj(vec![
            ("name".into(), Json::Str(name.into())),
            ("x".into(), Json::Num(x)),
            ("y".into(), Json::Num(y)),
        ]),
    ));
}

/// Renders events with fold payloads as `(source, version)` references
/// into the top-level delta table.
fn events_to_json(events: &[GossipEvent]) -> Json {
    Json::Arr(
        events
            .iter()
            .map(|e| {
                let mut entry = vec![("position".into(), Json::uint(e.position as u64))];
                match &e.kind {
                    GossipEventKind::Fold(delta) => {
                        entry.push(("source".into(), Json::uint(delta.source)));
                        entry.push(("version".into(), Json::uint(delta.version)));
                    }
                    GossipEventKind::FoldRef { source, version } => {
                        fold_ref_entry(&mut entry, *source, *version);
                    }
                    GossipEventKind::FullSweep => {
                        entry.push(("sweep".into(), Json::Bool(true)));
                    }
                    GossipEventKind::Register { name, x, y } => {
                        register_entry(&mut entry, name, *x, *y);
                    }
                }
                Json::Obj(entry)
            })
            .collect(),
    )
}

/// Parses a worker registration event, when marked.
fn register_from_json(e: &Json) -> Result<Option<GossipEventKind>, SnapshotError> {
    let Some(reg) = e.get("register") else {
        return Ok(None);
    };
    if e.get("delta").is_some() || e.get("sweep").is_some() || e.get("ref").is_some() {
        return Err(SnapshotError::Schema(
            "a worker registration event cannot also carry a fold or sweep".into(),
        ));
    }
    let x = f64_field(reg, "x")?;
    let y = f64_field(reg, "y")?;
    if !x.is_finite() || !y.is_finite() {
        return Err(SnapshotError::Schema(
            "worker registration location is not finite".into(),
        ));
    }
    Ok(Some(GossipEventKind::Register {
        name: str_field(reg, "name")?.to_owned(),
        x,
        y,
    }))
}

/// Parses a pruned fold reference, when marked.
fn fold_ref_from_json(e: &Json) -> Result<Option<GossipEventKind>, SnapshotError> {
    match e.get("ref") {
        None => Ok(None),
        Some(Json::Bool(true)) => {
            if e.get("delta").is_some() || e.get("sweep").is_some() {
                return Err(SnapshotError::Schema(
                    "a pruned fold reference cannot also carry a payload or 'sweep'".into(),
                ));
            }
            Ok(Some(GossipEventKind::FoldRef {
                source: usize_field(e, "source")? as u64,
                version: usize_field(e, "version")? as u64,
            }))
        }
        Some(_) => Err(SnapshotError::Schema(
            "'ref' must be the boolean true when present".into(),
        )),
    }
}

/// Parses a shard's event stream. A fold carries its payload inline in a
/// v1/v2 document (`table` is `None`) and a `(source, version)` reference
/// into the table from v3 on; both resolve through [`payload_from_json`].
fn events_from_json(
    value: &Json,
    table: Option<&PayloadTable>,
) -> Result<Vec<GossipEvent>, SnapshotError> {
    let events_json = value
        .as_arr()
        .ok_or_else(|| SnapshotError::Schema("'gossip_events' is not an array".into()))?;
    let mut events = Vec::with_capacity(events_json.len());
    for e in events_json {
        let kind = if let Some(kind) = register_from_json(e)? {
            kind
        } else if let Some(kind) = fold_ref_from_json(e)? {
            kind
        } else {
            let fold = match table {
                None => e.get("delta"),
                Some(_) => (e.get("source").is_some() || e.get("version").is_some()).then_some(e),
            };
            match (fold, e.get("sweep")) {
                (Some(payload), None) => GossipEventKind::Fold(payload_from_json(payload, table)?),
                (None, Some(Json::Bool(true))) => GossipEventKind::FullSweep,
                _ => {
                    return Err(SnapshotError::Schema(
                        "gossip event must carry exactly one fold payload or 'sweep':true".into(),
                    ))
                }
            }
        };
        events.push(GossipEvent {
            position: usize_field(e, "position")?,
            kind,
        });
    }
    Ok(events)
}

fn exchange_to_json(exchange: &[Option<WorkerStatDelta>]) -> Json {
    Json::Arr(
        exchange
            .iter()
            .map(|slot| slot.as_ref().map_or(Json::Null, delta_ref_json))
            .collect(),
    )
}

fn exchange_from_json(
    value: &Json,
    table: Option<&PayloadTable>,
) -> Result<Vec<Option<WorkerStatDelta>>, SnapshotError> {
    let slots = value
        .as_arr()
        .ok_or_else(|| SnapshotError::Schema("'exchange' is not an array".into()))?;
    let mut exchange = Vec::with_capacity(slots.len());
    for slot in slots {
        exchange.push(match slot {
            Json::Null => None,
            v => Some(payload_from_json(v, table)?),
        });
    }
    Ok(exchange)
}

fn em_to_json(em: &EmConfig) -> Json {
    Json::Obj(vec![
        ("alpha".into(), Json::Num(em.alpha)),
        ("tolerance".into(), Json::Num(em.tolerance)),
        ("max_iterations".into(), Json::Num(em.max_iterations as f64)),
        (
            "init".into(),
            Json::Str(
                match em.init {
                    InitStrategy::Uniform => "uniform",
                    InitStrategy::VoteShare => "vote_share",
                }
                .into(),
            ),
        ),
        (
            "lambdas".into(),
            Json::Arr(
                em.fset
                    .functions()
                    .iter()
                    .map(|f| Json::Num(f.lambda))
                    .collect(),
            ),
        ),
    ])
}

fn em_from_json(value: &Json) -> Result<EmConfig, SnapshotError> {
    let init = match str_field(value, "init")? {
        "uniform" => InitStrategy::Uniform,
        "vote_share" => InitStrategy::VoteShare,
        other => {
            return Err(SnapshotError::Schema(format!(
                "unknown init strategy '{other}'"
            )))
        }
    };
    let lambdas: Vec<f64> = field(value, "lambdas")?
        .as_arr()
        .ok_or_else(|| SnapshotError::Schema("'lambdas' is not an array".into()))?
        .iter()
        .map(|v| {
            v.as_f64()
                .filter(|l| l.is_finite() && *l >= 0.0)
                .ok_or_else(|| SnapshotError::Schema("invalid lambda".into()))
        })
        .collect::<Result<_, _>>()?;
    if lambdas.is_empty() {
        return Err(SnapshotError::Schema("'lambdas' must be non-empty".into()));
    }
    Ok(EmConfig {
        alpha: f64_field(value, "alpha")?,
        tolerance: f64_field(value, "tolerance")?,
        max_iterations: usize_field(value, "max_iterations")?,
        init,
        fset: DistanceFunctionSet::new(&lambdas),
    })
}

fn config_to_json(config: &ServeConfig) -> Json {
    let mut fields = vec![
        ("n_shards".into(), Json::Num(config.n_shards as f64)),
        (
            "ingest_threads".into(),
            Json::Num(config.ingest_threads as f64),
        ),
        (
            "queue_capacity".into(),
            Json::Num(config.queue_capacity as f64),
        ),
        ("drain_batch".into(), Json::Num(config.drain_batch as f64)),
        ("budget".into(), Json::Num(config.budget as f64)),
        ("h".into(), Json::Num(config.h as f64)),
        ("em".into(), em_to_json(&config.em)),
        (
            "full_em_every".into(),
            config
                .policy
                .full_em_every
                .map_or(Json::Null, |n| Json::Num(n as f64)),
        ),
        (
            "full_sweep_every".into(),
            Json::Num(config.policy.full_sweep_every as f64),
        ),
        (
            "dirty_coverage_fallback".into(),
            Json::Num(config.policy.dirty_coverage_fallback as f64),
        ),
        (
            "em_threads".into(),
            match config.policy.parallelism {
                EmParallelism::Auto => Json::Str("auto".into()),
                EmParallelism::Fixed(n) => Json::Num(n as f64),
            },
        ),
        (
            "gossip_every".into(),
            config
                .gossip_every
                .map_or(Json::Null, |n| Json::Num(n as f64)),
        ),
        (
            "obs_sample_ms".into(),
            Json::Num(config.obs_sample_ms as f64),
        ),
    ];
    // Emitted only when set (v4), so documents from campaigns without the
    // periodic prune timer stay byte-identical to what v3 writers emitted.
    if let Some(period) = config.prune_every {
        fields.push(("prune_every".into(), Json::uint(period)));
    }
    // Emitted only when pruning is on, so pre-retention documents (and
    // every keep-all campaign) stay byte-identical to what older builds
    // wrote.
    if let RetentionPolicy::PruneCheckpointed { spill_dir } = &config.retention {
        fields.push((
            "retention".into(),
            Json::Obj(vec![
                ("mode".into(), Json::Str("prune_checkpointed".into())),
                (
                    "spill_dir".into(),
                    spill_dir
                        .as_ref()
                        .map_or(Json::Null, |d| Json::Str(d.clone())),
                ),
            ]),
        ));
    }
    Json::Obj(fields)
}

fn retention_from_json(value: &Json) -> Result<RetentionPolicy, SnapshotError> {
    match value.get("retention") {
        // Absent in every pre-retention document: those campaigns kept all.
        None => Ok(RetentionPolicy::KeepAll),
        Some(r) => match str_field(r, "mode")? {
            "prune_checkpointed" => Ok(RetentionPolicy::PruneCheckpointed {
                spill_dir: match field(r, "spill_dir")? {
                    Json::Null => None,
                    Json::Str(d) => Some(d.clone()),
                    _ => {
                        return Err(SnapshotError::Schema(
                            "'spill_dir' is not a string or null".into(),
                        ))
                    }
                },
            }),
            other => Err(SnapshotError::Schema(format!(
                "unknown retention mode '{other}'"
            ))),
        },
    }
}

fn config_from_json(value: &Json) -> Result<ServeConfig, SnapshotError> {
    let full_em_every = match field(value, "full_em_every")? {
        Json::Null => None,
        v => Some(v.as_usize().ok_or_else(|| {
            SnapshotError::Schema("'full_em_every' is not an integer or null".into())
        })?),
    };
    // Absent in pre-dirty-set snapshots, which were recorded under
    // always-full-sweep behaviour — restore them exactly as such.
    let full_sweep_every = match value.get("full_sweep_every") {
        None => 1,
        Some(v) => v
            .as_usize()
            .ok_or_else(|| SnapshotError::Schema("'full_sweep_every' is not an integer".into()))?,
    };
    // Absent before the threshold was promoted to a policy field; 60 is
    // the hard-coded value those snapshots ran under.
    let dirty_coverage_fallback = match value.get("dirty_coverage_fallback") {
        None => 60,
        Some(v) => v.as_usize().ok_or_else(|| {
            SnapshotError::Schema("'dirty_coverage_fallback' is not an integer".into())
        })?,
    };
    // Absent before EM got its parallelism knob; those snapshots ran the
    // sequential sweep, so restore them pinned to one thread rather than
    // the auto default (parallel EM is bit-identical, but the pin keeps
    // the restored config an exact record of what ran).
    let parallelism = match value.get("em_threads") {
        None => EmParallelism::Fixed(1),
        Some(Json::Str(s)) if s == "auto" => EmParallelism::Auto,
        Some(v) => EmParallelism::Fixed(v.as_usize().ok_or_else(|| {
            SnapshotError::Schema("'em_threads' is not an integer or \"auto\"".into())
        })?),
    };
    // Absent in v1 (pre-gossip) documents: restore with gossip disabled,
    // exactly as the campaign was recorded.
    let gossip_every = match value.get("gossip_every") {
        None | Some(Json::Null) => None,
        Some(v) => Some(v.as_usize().ok_or_else(|| {
            SnapshotError::Schema("'gossip_every' is not an integer or null".into())
        })?),
    };
    // Absent in pre-observability snapshots; the sampler is pure
    // diagnostics, so restoring with the default period changes nothing
    // about the recorded campaign.
    let obs_sample_ms = match value.get("obs_sample_ms") {
        None => ServeConfig::default().obs_sample_ms,
        Some(v) => v
            .as_usize()
            .ok_or_else(|| SnapshotError::Schema("'obs_sample_ms' is not an integer".into()))?
            as u64,
    };
    // Absent before the periodic self-scheduled prune existed (and on
    // every campaign that never enabled it).
    let prune_every = match value.get("prune_every") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_usize()
                .ok_or_else(|| SnapshotError::Schema("'prune_every' is not an integer".into()))?
                as u64,
        ),
    };
    Ok(ServeConfig {
        n_shards: usize_field(value, "n_shards")?,
        ingest_threads: usize_field(value, "ingest_threads")?,
        queue_capacity: usize_field(value, "queue_capacity")?,
        drain_batch: usize_field(value, "drain_batch")?,
        budget: usize_field(value, "budget")?,
        h: usize_field(value, "h")?,
        em: em_from_json(field(value, "em")?)?,
        policy: UpdatePolicy {
            full_em_every,
            full_sweep_every,
            dirty_coverage_fallback,
            parallelism,
        },
        gossip_every,
        obs_sample_ms,
        retention: retention_from_json(value)?,
        prune_every,
    })
}

impl ServiceSnapshot {
    /// Renders the snapshot as a deterministic v4 JSON document: a
    /// deduplicated delta table, fold events and exchange slots as
    /// references into it, and checkpoint blocks.
    #[allow(clippy::cast_precision_loss)]
    #[must_use]
    pub fn to_json(&self) -> String {
        let table = build_delta_table(
            self.shards.iter().map(|s| s.gossip_events.as_slice()),
            &self.exchange,
        );
        let shards = self
            .shards
            .iter()
            .map(|s| {
                let mut entry = vec![
                    ("shard".into(), Json::Num(s.shard as f64)),
                    ("budget".into(), Json::Num(s.budget as f64)),
                    ("budget_used".into(), Json::Num(s.budget_used as f64)),
                    ("answers".into(), answers_to_json(&s.answers)),
                    ("gossip_events".into(), events_to_json(&s.gossip_events)),
                    ("publishes".into(), Json::uint(s.publishes)),
                ];
                if let Some(cp) = &s.checkpoint {
                    entry.push(("checkpoint".into(), checkpoint_to_json(cp)));
                }
                // Pruned-prefix fields: two parallel u32 arrays (packed
                // u64 pairs could exceed 2^53) plus the frozen baseline.
                // Absent on unpruned shards, keeping those documents
                // byte-identical to pre-retention writers.
                if !s.pruned_pairs.is_empty() {
                    entry.push((
                        "pruned_workers".into(),
                        Json::Arr(
                            s.pruned_pairs
                                .iter()
                                .map(|(w, _)| Json::uint(u64::from(w.0)))
                                .collect(),
                        ),
                    ));
                    entry.push((
                        "pruned_tasks".into(),
                        Json::Arr(
                            s.pruned_pairs
                                .iter()
                                .map(|(_, t)| Json::uint(u64::from(t.0)))
                                .collect(),
                        ),
                    ));
                }
                if let Some(frozen) = &s.frozen {
                    entry.push(("frozen".into(), stats_to_json(frozen)));
                }
                // Materialized sequence numbers (v4, post-handoff only).
                if let Some(seqs) = &s.seqs {
                    entry.push((
                        "seqs".into(),
                        Json::Arr(seqs.iter().map(|&q| Json::uint(q)).collect()),
                    ));
                }
                Json::Obj(entry)
            })
            .collect();
        let mut doc = vec![
            ("version".into(), Json::uint(SNAPSHOT_VERSION)),
            ("kind".into(), Json::Str("base".into())),
            ("n_tasks".into(), Json::Num(self.n_tasks as f64)),
            ("n_workers".into(), Json::Num(self.n_workers as f64)),
            ("config".into(), config_to_json(&self.config)),
        ];
        // The moved shard map (v4): absent while the startup partition is
        // in force, so non-elastic documents match the v3 shape.
        if let Some(map) = &self.map {
            doc.push((
                "map".into(),
                Json::Obj(vec![
                    ("version".into(), Json::uint(map.version)),
                    (
                        "cells".into(),
                        Json::Arr(
                            map.cells
                                .iter()
                                .map(|&c| Json::uint(u64::from(c)))
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        doc.extend([
            ("deltas".into(), table_to_json(&table)),
            ("shards".into(), Json::Arr(shards)),
            ("exchange".into(), exchange_to_json(&self.exchange)),
        ]);
        Json::Obj(doc).render()
    }

    /// Parses a snapshot document of any supported version (1–4), upgrading
    /// older layouts into the version-free in-memory form.
    ///
    /// # Errors
    /// [`SnapshotError::Json`] on malformed JSON, [`SnapshotError::Schema`]
    /// on a structurally invalid or version-incompatible document — this
    /// includes *delta* documents, which must go through
    /// [`ServiceSnapshotDelta::from_json`] and
    /// [`ServiceSnapshot::compact`] instead.
    pub fn from_json(text: &str) -> Result<Self, SnapshotError> {
        let doc = Json::parse(text)?;
        let version = usize_field(&doc, "version")? as u64;
        if version == 0 || version > SNAPSHOT_VERSION {
            return Err(SnapshotError::Schema(format!(
                "unsupported snapshot version {version} (expected 1..={SNAPSHOT_VERSION})"
            )));
        }
        let v3 = version >= 3;
        if v3 {
            match doc.get("kind").and_then(Json::as_str) {
                None | Some("base") => {}
                Some("delta") => {
                    return Err(SnapshotError::Schema(
                        "this is a delta document — parse it with \
                         ServiceSnapshotDelta::from_json and fold it into a base \
                         with ServiceSnapshot::compact"
                            .into(),
                    ))
                }
                Some(other) => {
                    return Err(SnapshotError::Schema(format!(
                        "unknown document kind '{other}'"
                    )))
                }
            }
        }
        let table = v3.then(|| table_from_json(&doc)).transpose()?;
        let shards_json = field(&doc, "shards")?
            .as_arr()
            .ok_or_else(|| SnapshotError::Schema("'shards' is not an array".into()))?;
        let mut shards = Vec::with_capacity(shards_json.len());
        for shard_json in shards_json {
            let answers = answers_from_json(field(shard_json, "answers")?)?;
            // v1 documents predate gossip; an absent array means none.
            let gossip_events = match shard_json.get("gossip_events") {
                None => Vec::new(),
                Some(events) => events_from_json(events, table.as_ref())?,
            };
            let publishes = match shard_json.get("publishes") {
                None => 0,
                Some(v) => v
                    .as_usize()
                    .ok_or_else(|| SnapshotError::Schema("'publishes' is not an integer".into()))?
                    as u64,
            };
            let checkpoint = match shard_json.get("checkpoint") {
                Some(cp) if v3 => Some(checkpoint_from_json(cp)?),
                _ => None,
            };
            let pruned_pairs = match shard_json.get("pruned_workers") {
                Some(_) if v3 => {
                    let workers = u32_array(shard_json, "pruned_workers")?;
                    let tasks = u32_array(shard_json, "pruned_tasks")?;
                    if workers.len() != tasks.len() {
                        return Err(SnapshotError::Schema(format!(
                            "'pruned_workers' has {} entries but 'pruned_tasks' has {}",
                            workers.len(),
                            tasks.len()
                        )));
                    }
                    workers
                        .into_iter()
                        .zip(tasks)
                        .map(|(w, t)| (WorkerId(w), TaskId(t)))
                        .collect()
                }
                _ => Vec::new(),
            };
            let frozen = match shard_json.get("frozen") {
                Some(f) if v3 => Some(stats_from_json(f)?),
                _ => None,
            };
            if !pruned_pairs.is_empty() && frozen.is_none() {
                return Err(SnapshotError::Schema(
                    "a pruned shard must carry its frozen statistics baseline".into(),
                ));
            }
            let seqs = match shard_json.get("seqs") {
                Some(s) if version >= 4 => {
                    let arr = s
                        .as_arr()
                        .ok_or_else(|| SnapshotError::Schema("'seqs' is not an array".into()))?;
                    let seqs: Vec<u64> = arr
                        .iter()
                        .map(|v| {
                            v.as_usize().map(|q| q as u64).ok_or_else(|| {
                                SnapshotError::Schema("'seqs' holds an invalid number".into())
                            })
                        })
                        .collect::<Result<_, _>>()?;
                    if seqs.len() != answers.len() {
                        return Err(SnapshotError::Schema(format!(
                            "'seqs' has {} entries but the shard holds {} answers",
                            seqs.len(),
                            answers.len()
                        )));
                    }
                    Some(seqs)
                }
                _ => None,
            };
            shards.push(ShardSnapshot {
                shard: usize_field(shard_json, "shard")?,
                budget: usize_field(shard_json, "budget")?,
                budget_used: usize_field(shard_json, "budget_used")?,
                answers,
                gossip_events,
                publishes,
                checkpoint,
                pruned_pairs,
                frozen,
                seqs,
            });
        }
        let exchange = match doc.get("exchange") {
            None => Vec::new(),
            Some(slots) => exchange_from_json(slots, table.as_ref())?,
        };
        if !v3 {
            // Legacy documents carry payloads inline; make sure no two of
            // them disagree under one stamp before anything (a re-encode
            // into the v3 table, a restore) relies on stamp uniqueness.
            check_stamp_uniqueness(
                shards
                    .iter()
                    .flat_map(|s| s.gossip_events.iter())
                    .filter_map(|e| match &e.kind {
                        GossipEventKind::Fold(delta) => Some(delta),
                        // Payload-free kinds carry nothing to conflict.
                        GossipEventKind::FoldRef { .. }
                        | GossipEventKind::FullSweep
                        | GossipEventKind::Register { .. } => None,
                    })
                    .chain(exchange.iter().flatten()),
            )?;
        }
        let map = match doc.get("map") {
            Some(m) if version >= 4 => {
                let map_version = usize_field(m, "version")? as u64;
                if map_version < 2 {
                    return Err(SnapshotError::Schema(format!(
                        "recorded map version {map_version} — the startup partition \
                         (version 1) is never recorded explicitly"
                    )));
                }
                Some(SnapshotShardMap {
                    version: map_version,
                    cells: u32_array(m, "cells")?,
                })
            }
            _ => None,
        };
        Ok(Self {
            n_tasks: usize_field(&doc, "n_tasks")?,
            n_workers: usize_field(&doc, "n_workers")?,
            config: config_from_json(field(&doc, "config")?)?,
            shards,
            exchange,
            map,
        })
    }

    /// The per-shard cursors marking where this snapshot leaves off — pass
    /// them to [`LabellingService::snapshot_delta`] to capture only what
    /// the campaign records next. Cursor positions count the whole
    /// recorded stream, so on a pruned shard they include the truncated
    /// prefix.
    #[must_use]
    pub fn cursors(&self) -> Vec<SnapshotCursor> {
        self.shards
            .iter()
            .map(|s| SnapshotCursor {
                answers: s.pruned_pairs.len() + s.answers.len(),
                events: s.gossip_events.len(),
            })
            .collect()
    }

    /// Folds a chain of incremental snapshots into a new base, in
    /// order. The result is byte-identical to the full snapshot the
    /// service would have produced at the last delta's capture point
    /// (`compact() ≡ snapshot()` — pinned by the snapshot_v3 test suite),
    /// so a delta chain can be compacted offline and restored like any
    /// base document.
    ///
    /// # Errors
    /// [`SnapshotError::Mismatch`] when a delta does not chain onto the
    /// accumulated base (campaign shapes differ, shard ids disagree, or a
    /// delta's cursor is not exactly where the previous document left
    /// off).
    pub fn compact(&self, chain: &[ServiceSnapshotDelta]) -> Result<Self, SnapshotError> {
        self.compact_iter(chain.iter().map(|d| Ok(d.clone())))
    }

    /// [`ServiceSnapshot::compact`] over a *stream* of deltas: each
    /// document is consumed (and dropped) before the next is pulled, so a
    /// long chain can be folded with peak memory of the accumulated base
    /// plus one delta — the caller parses each document lazily (e.g. one
    /// file at a time) and hands errors through. The result is
    /// byte-identical to compacting the same chain from a slice.
    ///
    /// # Errors
    /// As for [`ServiceSnapshot::compact`], plus any error the iterator
    /// yields (a document that failed to read or parse).
    pub fn compact_iter<I>(&self, chain: I) -> Result<Self, SnapshotError>
    where
        I: IntoIterator<Item = Result<ServiceSnapshotDelta, SnapshotError>>,
    {
        let mut base = self.clone();
        for (step, delta) in chain.into_iter().enumerate() {
            Self::apply_delta(&mut base, &delta?, step)?;
        }
        Ok(base)
    }

    /// Folds one delta onto the accumulated base (the per-step body of
    /// [`ServiceSnapshot::compact`] / [`ServiceSnapshot::compact_iter`]).
    fn apply_delta(
        base: &mut Self,
        delta: &ServiceSnapshotDelta,
        step: usize,
    ) -> Result<(), SnapshotError> {
        // Exactly what `LabellingService::snapshot_delta` refuses to write:
        // a handoff rewrites per-shard streams wholesale.
        if base.map.is_some() || base.shards.iter().any(|s| s.seqs.is_some()) {
            return Err(SnapshotError::Mismatch(format!(
                "delta {step}: the base snapshot carries a moved map or materialized \
                 sequence numbers — deltas are not defined over it; take a new full \
                 snapshot instead"
            )));
        }
        if delta.n_tasks != base.n_tasks || delta.n_workers != base.n_workers {
            return Err(SnapshotError::Mismatch(format!(
                "delta {step} covers {}×{} tasks×workers, base covers {}×{}",
                delta.n_tasks, delta.n_workers, base.n_tasks, base.n_workers
            )));
        }
        if delta.shards.len() != base.shards.len() {
            return Err(SnapshotError::Mismatch(format!(
                "delta {step} has {} shards, base has {}",
                delta.shards.len(),
                base.shards.len()
            )));
        }
        // A delta's exchange *replaces* the base's, so a missing or
        // truncated one would silently drop the in-flight gossip
        // deltas (restore would read "no exchange recorded" and the
        // resumed service would fall out of lockstep). A delta may
        // introduce an exchange over a v1-era base that had none, but
        // never shrink one.
        if !base.exchange.is_empty()
            && (delta.exchange.is_empty() || delta.exchange.len() != base.exchange.len())
        {
            return Err(SnapshotError::Mismatch(format!(
                "delta {step}: exchange has {} slots, base has {} — an incremental \
                 snapshot must carry the full exchange",
                delta.exchange.len(),
                base.exchange.len()
            )));
        }
        for (shard, increment) in base.shards.iter_mut().zip(&delta.shards) {
            if increment.shard != shard.shard {
                return Err(SnapshotError::Mismatch(format!(
                    "delta {step}: shard entry {} is labelled {}",
                    shard.shard, increment.shard
                )));
            }
            // Cursors are stream positions: on a pruned base the answers
            // already covered include the truncated prefix.
            let stream_len = shard.pruned_pairs.len() + shard.answers.len();
            if increment.since.answers != stream_len
                || increment.since.events != shard.gossip_events.len()
            {
                return Err(SnapshotError::Mismatch(format!(
                    "delta {step}: shard {} resumes at ({}, {}) but the base ends at \
                     ({}, {}) — deltas must chain contiguously",
                    shard.shard,
                    increment.since.answers,
                    increment.since.events,
                    stream_len,
                    shard.gossip_events.len()
                )));
            }
            shard.answers.extend(increment.answers.iter().copied());
            shard
                .gossip_events
                .extend(increment.gossip_events.iter().cloned());
            shard.budget_used = increment.budget_used;
            shard.publishes = increment.publishes;
            shard.checkpoint.clone_from(&increment.checkpoint);
        }
        base.exchange.clone_from(&delta.exchange);
        Ok(())
    }
}

impl ServiceSnapshotDelta {
    /// Renders the delta as a deterministic v4 JSON document (its own
    /// deduplicated payload table, marked `"kind":"delta"`).
    #[allow(clippy::cast_precision_loss)]
    #[must_use]
    pub fn to_json(&self) -> String {
        let table = build_delta_table(
            self.shards.iter().map(|s| s.gossip_events.as_slice()),
            &self.exchange,
        );
        let shards = self
            .shards
            .iter()
            .map(|s| {
                let mut entry = vec![
                    ("shard".into(), Json::Num(s.shard as f64)),
                    ("since_answers".into(), Json::uint(s.since.answers as u64)),
                    ("since_events".into(), Json::uint(s.since.events as u64)),
                    ("budget_used".into(), Json::Num(s.budget_used as f64)),
                    ("publishes".into(), Json::uint(s.publishes)),
                    ("answers".into(), answers_to_json(&s.answers)),
                    ("gossip_events".into(), events_to_json(&s.gossip_events)),
                ];
                if let Some(cp) = &s.checkpoint {
                    entry.push(("checkpoint".into(), checkpoint_to_json(cp)));
                }
                Json::Obj(entry)
            })
            .collect();
        Json::Obj(vec![
            ("version".into(), Json::uint(SNAPSHOT_VERSION)),
            ("kind".into(), Json::Str("delta".into())),
            ("n_tasks".into(), Json::Num(self.n_tasks as f64)),
            ("n_workers".into(), Json::Num(self.n_workers as f64)),
            ("deltas".into(), table_to_json(&table)),
            ("shards".into(), Json::Arr(shards)),
            ("exchange".into(), exchange_to_json(&self.exchange)),
        ])
        .render()
    }

    /// Parses a delta document. Deltas exist from v3 on, and the v3 and
    /// v4 delta layouts are identical.
    ///
    /// # Errors
    /// [`SnapshotError::Json`] on malformed JSON, [`SnapshotError::Schema`]
    /// on a structurally invalid document or one that is not a v3/v4 delta.
    pub fn from_json(text: &str) -> Result<Self, SnapshotError> {
        let doc = Json::parse(text)?;
        let version = usize_field(&doc, "version")? as u64;
        if !(3..=SNAPSHOT_VERSION).contains(&version) {
            return Err(SnapshotError::Schema(format!(
                "unsupported delta version {version} (expected 3..={SNAPSHOT_VERSION})"
            )));
        }
        if doc.get("kind").and_then(Json::as_str) != Some("delta") {
            return Err(SnapshotError::Schema(
                "not a delta document (missing \"kind\":\"delta\")".into(),
            ));
        }
        let table = table_from_json(&doc)?;
        let shards_json = field(&doc, "shards")?
            .as_arr()
            .ok_or_else(|| SnapshotError::Schema("'shards' is not an array".into()))?;
        let mut shards = Vec::with_capacity(shards_json.len());
        for shard_json in shards_json {
            shards.push(ShardDelta {
                shard: usize_field(shard_json, "shard")?,
                since: SnapshotCursor {
                    answers: usize_field(shard_json, "since_answers")?,
                    events: usize_field(shard_json, "since_events")?,
                },
                budget_used: usize_field(shard_json, "budget_used")?,
                publishes: usize_field(shard_json, "publishes")? as u64,
                answers: answers_from_json(field(shard_json, "answers")?)?,
                gossip_events: events_from_json(field(shard_json, "gossip_events")?, Some(&table))?,
                checkpoint: shard_json
                    .get("checkpoint")
                    .map(checkpoint_from_json)
                    .transpose()?,
            });
        }
        Ok(Self {
            n_tasks: usize_field(&doc, "n_tasks")?,
            n_workers: usize_field(&doc, "n_workers")?,
            shards,
            exchange: exchange_from_json(field(&doc, "exchange")?, Some(&table))?,
        })
    }

    /// The per-shard cursors marking where this delta leaves off — feed
    /// them to the next [`LabellingService::snapshot_delta`] call to keep
    /// the chain contiguous.
    #[must_use]
    pub fn cursors(&self) -> Vec<SnapshotCursor> {
        self.shards
            .iter()
            .map(|s| SnapshotCursor {
                answers: s.since.answers + s.answers.len(),
                events: s.since.events + s.gossip_events.len(),
            })
            .collect()
    }
}

impl Shard {
    /// Captures this shard's stream past `since`: answers and recorded
    /// events beyond the cursor, the current budget/publish counters and
    /// the latest checkpoint. The per-shard half of
    /// [`LabellingService::snapshot_delta`].
    ///
    /// # Errors
    /// [`SnapshotError::Mismatch`] when the cursor lies beyond what this
    /// shard has recorded (it belongs to a different campaign, or the
    /// chain skipped a document).
    pub fn snapshot_delta(&self, since: SnapshotCursor) -> Result<ShardDelta, SnapshotError> {
        let floor = self.framework().log().pruned();
        let n_answers = self.framework().log().stream_len();
        let n_events = self.gossip_events().len();
        if since.answers > n_answers || since.events > n_events {
            return Err(SnapshotError::Mismatch(format!(
                "shard {}: cursor ({}, {}) is beyond the recorded stream ({}, {})",
                self.id(),
                since.answers,
                since.events,
                n_answers,
                n_events
            )));
        }
        // A retention prune dropped the payloads before `floor` from
        // memory; a cursor behind it asks for answers this shard can no
        // longer supply. The chain must re-base on a fresh full snapshot.
        if since.answers < floor {
            return Err(SnapshotError::Mismatch(format!(
                "shard {}: cursor {} predates the pruned prefix ({} answers truncated) — \
                 take a new base snapshot instead of extending this chain",
                self.id(),
                since.answers,
                floor
            )));
        }
        Ok(ShardDelta {
            shard: self.id(),
            since,
            budget_used: self.framework().budget_used(),
            publishes: self.publishes(),
            answers: self
                .answers_global()
                .skip(since.answers - floor)
                .map(|(worker, task, bits)| SnapshotAnswer { worker, task, bits })
                .collect(),
            gossip_events: self.gossip_events()[since.events..].to_vec(),
            checkpoint: self.checkpoint().cloned(),
        })
    }
}

/// How many delayed rebuilds `on_submit` deterministically triggered over
/// the first `position` answers, given the hardening sweeps recorded in
/// the event prefix (each resets the absorb counter) — used to seed the
/// `em_rebuilds` metric for answers that are bulk-loaded instead of
/// replayed.
fn prefix_rebuilds(position: usize, prefix_events: &[GossipEvent], policy: &UpdatePolicy) -> u64 {
    let Some(every) = policy.full_em_every else {
        return 0;
    };
    let mut sweeps = prefix_events
        .iter()
        .filter(|e| matches!(e.kind, GossipEventKind::FullSweep))
        .map(|e| e.position)
        .peekable();
    let mut rebuilds = 0u64;
    let mut absorbed = 0usize;
    for p in 0..position {
        while sweeps.peek() == Some(&p) {
            absorbed = 0;
            sweeps.next();
        }
        absorbed += 1;
        if absorbed >= every {
            rebuilds += 1;
            absorbed = 0;
        }
    }
    rebuilds
}

impl LabellingService {
    /// Captures the campaign state. Flushes the ingestion queue first
    /// (producers must have stopped, as for
    /// [`LabellingService::quiesce`]).
    #[must_use]
    pub fn snapshot(&self) -> ServiceSnapshot {
        let started = std::time::Instant::now();
        self.quiesce();
        let map = self.inner.map();
        let shards = self
            .inner
            .shards
            .iter()
            .enumerate()
            .map(|(i, lock)| {
                let shard = lock.read();
                ShardSnapshot {
                    shard: i,
                    budget: shard.framework().config().budget,
                    budget_used: shard.framework().budget_used(),
                    answers: shard
                        .answers_global()
                        .map(|(worker, task, bits)| SnapshotAnswer { worker, task, bits })
                        .collect(),
                    gossip_events: shard.gossip_events().to_vec(),
                    publishes: shard.publishes(),
                    checkpoint: shard.checkpoint().cloned(),
                    pruned_pairs: shard.pruned_pairs_global().collect(),
                    frozen: shard.framework().model().frozen_baseline().cloned(),
                    seqs: shard.seqs().map(<[u64]>::to_vec),
                }
            })
            .collect();
        let exchange = self
            .inner
            .exchange
            .iter()
            .map(|slot| slot.read().clone())
            .collect();
        let snapshot = ServiceSnapshot {
            n_tasks: map.n_tasks(),
            // The *base* pool: mid-campaign registrations live in the
            // event streams and re-grow the pool on restore, so the shape
            // check stays against the pool the campaign started from.
            n_workers: self.inner.base_pool.len(),
            config: self.config.clone(),
            shards,
            exchange,
            // The startup partition is implied by (tasks, n_shards);
            // record the map only once elasticity has moved it.
            map: (map.version() > 1).then(|| SnapshotShardMap {
                version: map.version(),
                cells: map.cells().to_vec(),
            }),
        };
        self.inner.obs.snapshot.record_duration(started.elapsed());
        snapshot
    }

    /// [`LabellingService::snapshot`] rendered straight to JSON, recording
    /// the document size in [`ServiceMetrics::snapshot_bytes`](crate::ServiceMetrics::snapshot_bytes)
    /// so operators can watch the v3 format and compaction keep persisted
    /// state bounded.
    #[must_use]
    pub fn snapshot_json(&self) -> String {
        let json = self.snapshot().to_json();
        self.inner
            .snapshot_bytes
            .store(json.len() as u64, std::sync::atomic::Ordering::Relaxed);
        json
    }

    /// Captures an incremental snapshot: only what each shard recorded
    /// past `since` (the cursors of the base snapshot or of the previous
    /// delta in the chain — see [`ServiceSnapshot::cursors`] /
    /// [`ServiceSnapshotDelta::cursors`]). Quiesces first, like
    /// [`LabellingService::snapshot`].
    ///
    /// # Errors
    /// [`SnapshotError::Mismatch`] when the cursor count does not match
    /// the shard count or a cursor lies beyond a shard's recorded stream.
    pub fn snapshot_delta(
        &self,
        since: &[SnapshotCursor],
    ) -> Result<ServiceSnapshotDelta, SnapshotError> {
        self.quiesce();
        // Incremental documents are defined over a *fixed* partition: a
        // split/merge rewrites per-shard streams wholesale (answers move
        // between shards), which no append-only delta can express. Worker
        // registrations ride in the event stream and would be fine, but a
        // materialized seq column is also per-answer state a ShardDelta
        // does not carry — re-base on a full snapshot once elastic.
        let elastic = self.inner.map().version() > 1
            || self
                .inner
                .shards
                .iter()
                .any(|lock| lock.read().seqs().is_some());
        if elastic {
            return Err(SnapshotError::Mismatch(
                "the shard map has moved since startup — incremental snapshots are \
                 not defined across a split/merge; take a new base snapshot"
                    .into(),
            ));
        }
        if since.len() != self.n_shards() {
            return Err(SnapshotError::Mismatch(format!(
                "{} cursors supplied for {} shards",
                since.len(),
                self.n_shards()
            )));
        }
        let mut shards = Vec::with_capacity(self.n_shards());
        for (lock, &cursor) in self.inner.shards.iter().zip(since) {
            shards.push(lock.read().snapshot_delta(cursor)?);
        }
        let exchange = self
            .inner
            .exchange
            .iter()
            .map(|slot| slot.read().clone())
            .collect();
        Ok(ServiceSnapshotDelta {
            n_tasks: self.inner.map().n_tasks(),
            n_workers: self.inner.base_pool.len(),
            shards,
            exchange,
        })
    }

    /// Rebuilds a service from a base snapshot plus a *stream* of deltas,
    /// without materialising the whole chain: each delta is folded into
    /// the accumulated base ([`ServiceSnapshot::compact_iter`]) before the
    /// next is pulled, so restoring an arbitrarily long chain peaks at the
    /// compacted base plus one delta. The result is byte-identical to
    /// compacting the full chain first and restoring that document.
    ///
    /// # Errors
    /// As for [`ServiceSnapshot::compact_iter`] and
    /// [`LabellingService::restore`].
    pub fn restore_chain<I>(
        tasks: &TaskSet,
        workers: &WorkerPool,
        base: &ServiceSnapshot,
        chain: I,
    ) -> Result<Self, SnapshotError>
    where
        I: IntoIterator<Item = Result<ServiceSnapshotDelta, SnapshotError>>,
    {
        let compacted = base.compact_iter(chain)?;
        Self::restore(tasks, workers, &compacted)
    }

    /// Restores through **both** paths — parameters, and full replay of a
    /// copy with every checkpoint cleared — and proves them bit-identical
    /// (per-shard model parameters, folded peer tables, publish counters,
    /// checkpoints, and the hardened decisions) before returning the
    /// parameter-restored service. The snapshot `--verify` mode: slower
    /// than [`LabellingService::restore`] by one full replay, but
    /// certifies the fast path on the operator's actual document.
    ///
    /// On a **pruned** snapshot the replay path no longer exists (the
    /// truncated payloads are gone), so verification degrades to
    /// params-only: the restored service is re-snapshotted and the result
    /// must reproduce the input document exactly — every surviving byte of
    /// state (parameters, frozen baseline, pruned index, events, counters)
    /// round-trips, but the pre-prune history itself is taken on the
    /// checkpoint's authority.
    ///
    /// # Errors
    /// As for [`LabellingService::restore`], plus
    /// [`SnapshotError::Mismatch`] when the two paths disagree anywhere
    /// (or, pruned, when the re-snapshot differs from the input).
    pub fn restore_verified(
        tasks: &TaskSet,
        workers: &WorkerPool,
        snapshot: &ServiceSnapshot,
    ) -> Result<Self, SnapshotError> {
        let fast = Self::restore(tasks, workers, snapshot)?;
        let pruned = snapshot
            .shards
            .iter()
            .any(|s| !s.pruned_pairs.is_empty() || s.frozen.is_some());
        if pruned {
            let again = fast.snapshot();
            if again != *snapshot {
                return Err(SnapshotError::Mismatch(
                    "restore verification failed: re-snapshotting the restored service \
                     did not reproduce the pruned document"
                        .into(),
                ));
            }
            return Ok(fast);
        }
        let mut replayed = snapshot.clone();
        for shard in &mut replayed.shards {
            shard.checkpoint = None;
        }
        let replay = Self::restore(tasks, workers, &replayed)?;
        for i in 0..fast.n_shards() {
            let a = fast.shard(i);
            let b = replay.shard(i);
            if a.framework().params() != b.framework().params() {
                return Err(SnapshotError::Mismatch(format!(
                    "restore verification failed: shard {i} parameters differ between \
                     the checkpoint and replay paths"
                )));
            }
            if a.framework().peer_stats() != b.framework().peer_stats() {
                return Err(SnapshotError::Mismatch(format!(
                    "restore verification failed: shard {i} peer tables differ"
                )));
            }
            if a.publishes() != b.publishes() || a.checkpoint() != b.checkpoint() {
                return Err(SnapshotError::Mismatch(format!(
                    "restore verification failed: shard {i} counters differ"
                )));
            }
        }
        if fast.decisions() != replay.decisions() {
            return Err(SnapshotError::Mismatch(
                "restore verification failed: hardened decisions differ".into(),
            ));
        }
        replay.shutdown();
        Ok(fast)
    }

    /// Rebuilds a service from a snapshot over the *same* task set and
    /// worker pool the snapshot was taken from.
    ///
    /// Shards that carry a v3 [`ModelCheckpoint`] **harden from
    /// parameters**: the answers before the checkpoint are bulk-loaded
    /// (validated but not run through the model), the checkpoint
    /// parameters are re-seeded and the sufficient statistics recomputed
    /// with one deterministic E-pass, and only the stream recorded after
    /// the checkpoint is replayed. Shards without a checkpoint (v1/v2
    /// documents, campaigns that never full-swept, or a copy with every
    /// checkpoint cleared) **replay** their whole event stream — answers
    /// in arrival order interleaved with gossip folds and hardening sweeps
    /// at their recorded positions, which reproduces the exact sequence
    /// the live shard processed. A pruned shard has no payloads to replay
    /// and restores only through its checkpoint. Either way the restored
    /// model state is bit-identical to the snapshotted one
    /// ([`LabellingService::restore_verified`] proves it on demand), the
    /// exchange is re-seeded with the snapshotted in-flight deltas, and the
    /// service is live — producers can resume (and keep gossiping) where
    /// the campaign left off.
    ///
    /// # Errors
    /// [`SnapshotError::Mismatch`] when `tasks` / `workers` do not match
    /// the snapshot's shapes (or the derived shard map / budget slices
    /// disagree, a gossip event is mis-positioned, a checkpoint is
    /// inconsistent with its shard, or a pruned shard lacks its
    /// checkpoint), [`SnapshotError::Replay`] when a recorded answer is
    /// rejected.
    #[allow(clippy::too_many_lines)]
    pub fn restore(
        tasks: &TaskSet,
        workers: &WorkerPool,
        snapshot: &ServiceSnapshot,
    ) -> Result<Self, SnapshotError> {
        let started = std::time::Instant::now();
        if snapshot.n_tasks != tasks.len() {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot covers {} tasks, task set has {}",
                snapshot.n_tasks,
                tasks.len()
            )));
        }
        if snapshot.n_workers != workers.len() {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot covers {} workers, pool has {}",
                snapshot.n_workers,
                workers.len()
            )));
        }
        let service = Self::start(tasks, workers, snapshot.config.clone());
        if service.n_shards() != snapshot.shards.len() {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot has {} shards, rebuilt map has {}",
                snapshot.shards.len(),
                service.n_shards()
            )));
        }
        // Budget slices are validated as a whole (they must still sum to
        // the campaign budget) and adopted per shard below: a handoff or a
        // demand-driven rebalance moves them off the startup split.
        let sliced: usize = snapshot.shards.iter().map(|s| s.budget).sum();
        if sliced != snapshot.config.budget {
            return Err(SnapshotError::Mismatch(format!(
                "per-shard budget slices sum to {sliced}, config budget is {}",
                snapshot.config.budget
            )));
        }
        // A recorded (v4) shard map supersedes the startup partition:
        // re-partition the still-empty shards under it before replaying,
        // so every answer replays on the shard that owned it at capture.
        if let Some(map) = &snapshot.map {
            let rebuilt =
                ShardMap::with_cells(tasks, snapshot.config.n_shards, &map.cells, map.version)
                    .map_err(SnapshotError::Mismatch)?;
            let slices: Vec<usize> = snapshot.shards.iter().map(|s| s.budget).collect();
            service.inner.adopt_map(rebuilt, &slices);
        }
        // Publish counters must cover every version this campaign already
        // put on the wire (recorded folds, in-flight exchange): a resumed
        // shard stamps `publishes + 1` next, so a counter behind the
        // recorded maximum would re-stamp old versions with *different*
        // payloads — breaking the (source, version)-uniqueness invariant
        // the gossip algebra and the v3 delta table both rest on.
        let mut max_published = vec![0u64; snapshot.shards.len()];
        let recorded = snapshot
            .shards
            .iter()
            .flat_map(|s| s.gossip_events.iter())
            .filter_map(|e| match &e.kind {
                GossipEventKind::Fold(delta) => Some((delta.source, delta.version)),
                // A pruned fold still records that its source published
                // this version — the counter must cover it.
                GossipEventKind::FoldRef { source, version } => Some((*source, *version)),
                GossipEventKind::FullSweep | GossipEventKind::Register { .. } => None,
            })
            .chain(
                snapshot
                    .exchange
                    .iter()
                    .flatten()
                    .map(|d| (d.source, d.version)),
            );
        for (delta_source, delta_version) in recorded {
            let source = usize::try_from(delta_source)
                .ok()
                .filter(|&s| s < max_published.len())
                .ok_or_else(|| {
                    SnapshotError::Mismatch(format!(
                        "recorded gossip payload from source {delta_source} but the campaign \
                         has only {} shards — no shard could have published it",
                        snapshot.shards.len()
                    ))
                })?;
            max_published[source] = max_published[source].max(delta_version);
        }
        for (i, shard_snapshot) in snapshot.shards.iter().enumerate() {
            if shard_snapshot.publishes < max_published[i] {
                return Err(SnapshotError::Mismatch(format!(
                    "shard {i}: publish counter {} lags behind version {} already recorded \
                     for this source — a resumed shard would republish a seen version with \
                     a different payload",
                    shard_snapshot.publishes, max_published[i]
                )));
            }
        }
        for (i, shard_snapshot) in snapshot.shards.iter().enumerate() {
            if shard_snapshot.shard != i {
                return Err(SnapshotError::Mismatch(format!(
                    "shard entry {i} is labelled {}",
                    shard_snapshot.shard
                )));
            }
            let mut shard = service.inner.shards[i].write();
            // Adopt the recorded slice: rebalance (and, with a recorded
            // map, handoff) move slices off the startup split, so equality
            // with the fresh shard's slice is not an invariant — only the
            // campaign-wide sum (validated above) is.
            shard.framework_mut().set_budget(shard_snapshot.budget);
            service.inner.metrics[i].set_budget_slice(shard_snapshot.budget);
            let all_events = &shard_snapshot.gossip_events;
            let floor = shard_snapshot.pruned_pairs.len();
            if floor > 0 && shard_snapshot.checkpoint.is_none() {
                return Err(SnapshotError::Mismatch(format!(
                    "shard {i}: {floor} answers were pruned but no checkpoint was \
                     recorded — the pruned prefix is unrecoverable"
                )));
            }
            // The stream position replay starts from: (0, 0) without a
            // checkpoint (a pruned shard has one, checked above), the
            // checkpoint on the parameter path. Positions are stream-wide:
            // on a pruned shard the in-memory answers vector starts at
            // `floor`.
            let (start_answer, start_event) = match &shard_snapshot.checkpoint {
                None => (0, 0),
                Some(cp) => {
                    Self::restore_shard_checkpoint(i, &mut shard, shard_snapshot, cp)?;
                    service.inner.metrics[i].seed_submits(
                        cp.position as u64,
                        prefix_rebuilds(
                            cp.position,
                            &all_events[..cp.events_applied],
                            &snapshot.config.policy,
                        ),
                    );
                    (cp.position, cp.events_applied)
                }
            };
            // Replay the remaining event stream: before the answer at
            // stream position `p`, apply every event recorded at position
            // `p` (i.e. after `p` answers had been applied), in recorded
            // order. The events re-record themselves, so a re-snapshot is
            // identical.
            let mut events = all_events[start_event..].iter().peekable();
            let mut apply_events_at =
                |shard: &mut Shard, position: usize| -> Result<(), SnapshotError> {
                    while events.peek().is_some_and(|e| e.position == position) {
                        let event = events.next().expect("peeked");
                        match &event.kind {
                            GossipEventKind::Fold(delta) => {
                                if !shard.fold_peer(delta) {
                                    return Err(SnapshotError::Mismatch(format!(
                                        "shard {i}: recorded gossip fold at position {position} \
                                         was stale on replay (corrupt event order)"
                                    )));
                                }
                            }
                            GossipEventKind::FoldRef { .. } => {
                                // Prunes strip payloads strictly before the
                                // checkpoint; a ref past it cannot be
                                // re-applied and marks a corrupt document.
                                return Err(SnapshotError::Mismatch(format!(
                                    "shard {i}: pruned fold reference at position {position} \
                                     lies after the checkpoint and cannot be replayed"
                                )));
                            }
                            GossipEventKind::FullSweep => shard.harden(),
                            GossipEventKind::Register { name, x, y } => {
                                shard
                                    .register_worker(Worker::at(name.clone(), Point::new(*x, *y)))
                                    .map_err(|error| SnapshotError::Replay { shard: i, error })?;
                            }
                        }
                    }
                    Ok(())
                };
            let stream_len = floor + shard_snapshot.answers.len();
            for (idx, answer) in shard_snapshot
                .answers
                .iter()
                .enumerate()
                .skip(start_answer - floor)
            {
                apply_events_at(&mut shard, floor + idx)?;
                let triggered = shard
                    .submit_global(answer.worker, answer.task, answer.bits)
                    .map_err(|error| SnapshotError::Replay { shard: i, error })?;
                service.inner.metrics[i].record_submit(triggered);
            }
            // Trailing events recorded at the final answer count (e.g. an
            // end-of-campaign exchange cycle + hardening sweep).
            apply_events_at(&mut shard, stream_len)?;
            if let Some(stray) = events.next() {
                return Err(SnapshotError::Mismatch(format!(
                    "shard {i}: gossip event at position {} but only {stream_len} answers \
                     recorded",
                    stray.position
                )));
            }
            shard.set_publishes(shard_snapshot.publishes);
            // Seed the gossip counters from the recorded fold events so
            // the restored metrics are consistent with the submit/rebuild
            // counters (distinct fold positions = rounds that folded
            // something; publish-only rounds are not persisted).
            let fold_positions: Vec<usize> = all_events
                .iter()
                .filter(|e| matches!(e.kind, GossipEventKind::Fold(_)))
                .map(|e| e.position)
                .collect();
            if let Some(&last) = fold_positions.last() {
                let rounds = 1 + fold_positions.windows(2).filter(|w| w[0] != w[1]).count() as u64;
                service.inner.metrics[i].seed_gossip(
                    rounds,
                    fold_positions.len() as u64,
                    last as u64,
                );
            }
            service.inner.metrics[i].set_events_len(shard.gossip_events().len() as u64);
            service.inner.metrics[i]
                .set_answer_tiers(shard.resident_answers(), shard.pruned_answers());
            let charged = shard.framework_mut().charge(shard_snapshot.budget_used);
            if charged != shard_snapshot.budget_used {
                return Err(SnapshotError::Mismatch(format!(
                    "shard {i} cannot re-charge {} of budget {}",
                    shard_snapshot.budget_used, shard_snapshot.budget
                )));
            }
            service.inner.metrics[i].set_budget_remaining(shard.framework().budget_remaining());
        }
        // Adopt the recorded canonical sequence numbers (present once a
        // handoff materialized them) and advance the global allocator past
        // the highest, so post-restore answers extend the same stream.
        let mut max_seq: Option<u64> = None;
        for (i, shard_snapshot) in snapshot.shards.iter().enumerate() {
            let Some(seqs) = &shard_snapshot.seqs else {
                continue;
            };
            let mut shard = service.inner.shards[i].write();
            if !shard.adopt_seqs(seqs.clone()) {
                return Err(SnapshotError::Mismatch(format!(
                    "shard {i}: {} seqs recorded for {} resident answers",
                    seqs.len(),
                    shard_snapshot.answers.len()
                )));
            }
            max_seq = max_seq.max(seqs.iter().copied().max());
        }
        if let Some(max) = max_seq {
            service
                .inner
                .next_seq
                .store(max + 1, std::sync::atomic::Ordering::Release);
        }
        // Mid-campaign registrations replayed above grew every shard's
        // pool in lockstep but bypassed the routing table; rebuild it from
        // the (now complete) pool under the adopted map.
        {
            let shard = service.inner.shards[0].read();
            let map = service.inner.map();
            let homes: Vec<usize> = shard
                .framework()
                .workers()
                .iter()
                .map(|w| map.shard_for_point(w.locations[0]))
                .collect();
            *service.inner.worker_home.write() = homes;
        }
        // Re-seed the exchange with the snapshotted in-flight deltas so the
        // resumed service gossips from exactly where the original stood —
        // republishing current state instead would hand peers *newer*
        // statistics than the original exchange held and break
        // resume-lockstep with a still-running original.
        if !snapshot.exchange.is_empty() {
            if snapshot.exchange.len() != service.n_shards() {
                return Err(SnapshotError::Mismatch(format!(
                    "snapshot exchange has {} slots, service has {} shards",
                    snapshot.exchange.len(),
                    service.n_shards()
                )));
            }
            for (slot, held) in service.inner.exchange.iter().zip(&snapshot.exchange) {
                *slot.write() = held.clone();
            }
        }
        // The restored service's hub is fresh (observability state is
        // never snapshotted); the restore itself is its first sample.
        service.inner.obs.restore.record_duration(started.elapsed());
        Ok(service)
    }

    /// The parameter fast path for one shard: validate the checkpoint,
    /// seed the pruned prefix and frozen baseline (pruned shards),
    /// bulk-load the resident answer prefix, adopt the event prefix
    /// verbatim, reconstruct the folded peer table from the prefix folds,
    /// and re-seed the model from the checkpoint parameters.
    fn restore_shard_checkpoint(
        i: usize,
        shard: &mut Shard,
        shard_snapshot: &ShardSnapshot,
        cp: &ModelCheckpoint,
    ) -> Result<(), SnapshotError> {
        let events = &shard_snapshot.gossip_events;
        let floor = shard_snapshot.pruned_pairs.len();
        let stream_len = floor + shard_snapshot.answers.len();
        if cp.position > stream_len || cp.events_applied > events.len() {
            return Err(SnapshotError::Mismatch(format!(
                "shard {i}: checkpoint at ({}, {}) is beyond the recorded stream \
                 ({stream_len}, {})",
                cp.position,
                cp.events_applied,
                events.len()
            )));
        }
        if cp.position < floor {
            return Err(SnapshotError::Mismatch(format!(
                "shard {i}: checkpoint at position {} lies inside the pruned prefix \
                 ({floor} answers truncated) — a prune is only legal at its checkpoint",
                cp.position
            )));
        }
        if events[..cp.events_applied]
            .iter()
            .any(|e| e.position > cp.position)
            || events[cp.events_applied..]
                .iter()
                .any(|e| e.position < cp.position)
        {
            return Err(SnapshotError::Mismatch(format!(
                "shard {i}: checkpoint event index {} does not split the event stream at \
                 position {}",
                cp.events_applied, cp.position
            )));
        }
        if floor > 0 {
            if !shard.restore_pruned_global(&shard_snapshot.pruned_pairs) {
                return Err(SnapshotError::Mismatch(format!(
                    "shard {i}: pruned answer index names a task this shard does not own \
                     or repeats a (worker, task) pair"
                )));
            }
            let Some(frozen) = &shard_snapshot.frozen else {
                return Err(SnapshotError::Mismatch(format!(
                    "shard {i}: pruned shard carries no frozen statistics baseline"
                )));
            };
            if !shard.framework_mut().restore_frozen(frozen.clone()) {
                return Err(SnapshotError::Mismatch(format!(
                    "shard {i}: frozen baseline does not match the configured distance \
                     function set"
                )));
            }
        }
        // Pre-checkpoint registrations must grow the pool *before* the
        // bulk load so the checkpoint's parameter shapes match; their
        // events are adopted verbatim with the rest of the prefix below
        // (registering through the framework records no event).
        for event in &events[..cp.events_applied] {
            if let GossipEventKind::Register { name, x, y } = &event.kind {
                shard
                    .framework_mut()
                    .register_worker(Worker::at(name.clone(), Point::new(*x, *y)))
                    .map_err(|error| SnapshotError::Replay { shard: i, error })?;
            }
        }
        for answer in &shard_snapshot.answers[..cp.position - floor] {
            shard
                .load_global(answer.worker, answer.task, answer.bits)
                .map_err(|error| SnapshotError::Replay { shard: i, error })?;
        }
        let mut peers = PeerStats::new();
        for event in &events[..cp.events_applied] {
            // Pruned folds (`FoldRef`) are skipped: a prune keeps each
            // source's *latest* fold payload intact, and absorbing just
            // that one rebuilds the same per-source row the full sequence
            // would have (aggregation is latest-per-source).
            if let GossipEventKind::Fold(delta) = &event.kind {
                if !peers.absorb(delta) {
                    return Err(SnapshotError::Mismatch(format!(
                        "shard {i}: recorded gossip fold at position {} was stale when \
                         rebuilding the checkpoint peer table (corrupt event order)",
                        event.position
                    )));
                }
            }
        }
        shard.adopt_events(events[..cp.events_applied].to_vec());
        if !shard.restore_checkpoint(cp.clone(), peers) {
            return Err(SnapshotError::Mismatch(format!(
                "shard {i}: checkpoint parameters do not match the shard's task/worker/\
                 function shapes"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_delta(source: u64, version: u64) -> WorkerStatDelta {
        WorkerStatDelta {
            source,
            version,
            n_funcs: 2,
            i_sum: vec![0.1 + 0.2, 1.5],
            worker_bits: vec![2, 4],
            dw_sum: vec![0.25, 1.0 / 3.0, 0.5, 0.125],
        }
    }

    fn sample_checkpoint() -> ModelCheckpoint {
        ModelCheckpoint {
            position: 2,
            events_applied: 1,
            params: ModelParams::from_parts(
                2,
                vec![0.25, 0.5, 0.75],
                vec![0.8, 0.1 + 0.2],
                vec![0.5, 0.5, 0.25, 0.75],
                vec![1.0 / 3.0, 2.0 / 3.0],
            )
            .unwrap(),
        }
    }

    fn sample_snapshot() -> ServiceSnapshot {
        ServiceSnapshot {
            n_tasks: 20,
            n_workers: 7,
            config: ServeConfig {
                n_shards: 3,
                budget: 123,
                gossip_every: Some(50),
                ..ServeConfig::default()
            },
            shards: vec![
                ShardSnapshot {
                    shard: 0,
                    budget: 60,
                    budget_used: 12,
                    answers: vec![
                        SnapshotAnswer {
                            worker: WorkerId(3),
                            task: TaskId(11),
                            bits: LabelBits::from_slice(&[true, false, true]),
                        },
                        SnapshotAnswer {
                            worker: WorkerId(0),
                            task: TaskId(4),
                            bits: LabelBits::from_slice(&[false, false, false]),
                        },
                    ],
                    gossip_events: vec![
                        GossipEvent {
                            position: 1,
                            kind: GossipEventKind::Fold(sample_delta(1, 9)),
                        },
                        GossipEvent {
                            position: 2,
                            kind: GossipEventKind::FullSweep,
                        },
                    ],
                    publishes: 3,
                    checkpoint: Some(sample_checkpoint()),
                    pruned_pairs: Vec::new(),
                    frozen: None,
                    seqs: None,
                },
                ShardSnapshot {
                    shard: 1,
                    budget: 63,
                    budget_used: 0,
                    answers: vec![],
                    gossip_events: vec![],
                    publishes: 0,
                    checkpoint: None,
                    pruned_pairs: Vec::new(),
                    frozen: None,
                    seqs: None,
                },
            ],
            exchange: vec![Some(sample_delta(0, 2)), None, Some(sample_delta(2, 7))],
            map: None,
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let snapshot = sample_snapshot();
        let text = snapshot.to_json();
        let back = ServiceSnapshot::from_json(&text).unwrap();
        assert_eq!(back, snapshot);
        // Determinism: rendering twice gives identical bytes.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn v3_documents_deduplicate_fold_payloads() {
        // Two shards folding the same published delta store the payload
        // once in the table; events are two-number references.
        let mut snapshot = sample_snapshot();
        snapshot.shards[1].gossip_events = vec![GossipEvent {
            position: 0,
            kind: GossipEventKind::Fold(sample_delta(1, 9)),
        }];
        let text = snapshot.to_json();
        assert_eq!(
            text.matches("\"worker_bits\"").count(),
            3,
            "payload (1,9) must be stored once, plus the two exchange slots"
        );
        let back = ServiceSnapshot::from_json(&text).unwrap();
        assert_eq!(back, snapshot);
    }

    #[test]
    fn checkpoint_params_survive_round_trip_bit_for_bit() {
        let snapshot = sample_snapshot();
        let back = ServiceSnapshot::from_json(&snapshot.to_json()).unwrap();
        let params = &back.shards[0].checkpoint.as_ref().unwrap().params;
        let original = &snapshot.shards[0].checkpoint.as_ref().unwrap().params;
        assert_eq!(params, original);
        assert_eq!(params.inherent_all()[1].to_bits(), (0.1f64 + 0.2).to_bits());
    }

    fn sample_frozen() -> SufficientStats {
        SufficientStats::from_parts(
            2,
            vec![0.5, 0.1 + 0.2],
            vec![1, 2],
            vec![0.5, 0.75],
            vec![1, 2],
            vec![0.25, 0.5, 0.125, 0.375],
            vec![1.0 / 3.0, 2.0 / 3.0, 0.2, 0.8],
        )
        .unwrap()
    }

    fn pruned_sample_snapshot() -> ServiceSnapshot {
        let mut snapshot = sample_snapshot();
        let shard = &mut snapshot.shards[0];
        shard.pruned_pairs = vec![(WorkerId(1), TaskId(2)), (WorkerId(2), TaskId(11))];
        shard.frozen = Some(sample_frozen());
        // A prune strips superseded pre-checkpoint folds to references.
        shard.gossip_events.insert(
            0,
            GossipEvent {
                position: 0,
                kind: GossipEventKind::FoldRef {
                    source: 1,
                    version: 8,
                },
            },
        );
        snapshot
    }

    #[test]
    fn pruned_snapshot_round_trips() {
        let snapshot = pruned_sample_snapshot();
        let text = snapshot.to_json();
        let back = ServiceSnapshot::from_json(&text).unwrap();
        assert_eq!(back, snapshot);
        assert_eq!(back.to_json(), text);
        // The frozen floats survive bit-for-bit.
        let frozen = back.shards[0].frozen.as_ref().unwrap();
        assert_eq!(frozen.z_sum()[1].to_bits(), (0.1f64 + 0.2).to_bits());
        // Cursors are stream positions: the pruned prefix counts.
        assert_eq!(back.cursors()[0].answers, 2 + 2);
        // A pruned fold reference must not resolve through the delta table
        // (its payload is gone by design) and must round-trip as a ref.
        assert!(text.contains("\"ref\":true"));
    }

    #[test]
    fn pruned_shard_without_its_baseline_is_rejected() {
        let mut snapshot = pruned_sample_snapshot();
        snapshot.shards[0].frozen = None;
        let err = ServiceSnapshot::from_json(&snapshot.to_json()).unwrap_err();
        assert!(matches!(err, SnapshotError::Schema(_)), "{err}");

        // Parallel pruned arrays of different lengths are corrupt.
        let text = pruned_sample_snapshot().to_json();
        let broken = text.replace("\"pruned_workers\":[1,2]", "\"pruned_workers\":[1]");
        assert_ne!(broken, text);
        let err = ServiceSnapshot::from_json(&broken).unwrap_err();
        assert!(matches!(err, SnapshotError::Schema(_)), "{err}");
    }

    #[test]
    fn em_config_floats_survive_round_trip() {
        let mut snapshot = sample_snapshot();
        snapshot.config.em.alpha = 0.1 + 0.2; // a float with an ugly tail
        snapshot.config.em.tolerance = 1e-9;
        snapshot.config.policy = UpdatePolicy {
            full_em_every: None,
            full_sweep_every: 5,
            dirty_coverage_fallback: 42,
            parallelism: EmParallelism::Fixed(3),
        };
        let back = ServiceSnapshot::from_json(&snapshot.to_json()).unwrap();
        assert_eq!(
            back.config.em.alpha.to_bits(),
            snapshot.config.em.alpha.to_bits()
        );
        assert_eq!(back.config.policy.full_em_every, None);
        assert_eq!(back.config.policy.full_sweep_every, 5);
        assert_eq!(back.config.policy.dirty_coverage_fallback, 42);
        assert_eq!(back.config.policy.parallelism, EmParallelism::Fixed(3));
        assert_eq!(back.config.em.fset, snapshot.config.em.fset);
    }

    #[test]
    fn retention_policy_round_trips_and_defaults_to_keep_all() {
        // Keep-all campaigns emit no 'retention' field at all, so
        // pre-retention documents and writers agree byte-for-byte.
        let mut snapshot = sample_snapshot();
        assert!(!snapshot.to_json().contains("retention"));
        assert_eq!(
            ServiceSnapshot::from_json(&snapshot.to_json())
                .unwrap()
                .config
                .retention,
            RetentionPolicy::KeepAll
        );
        snapshot.config.retention = RetentionPolicy::PruneCheckpointed {
            spill_dir: Some("/var/lib/crowd/spill".into()),
        };
        let back = ServiceSnapshot::from_json(&snapshot.to_json()).unwrap();
        assert_eq!(back.config.retention, snapshot.config.retention);
        snapshot.config.retention = RetentionPolicy::PruneCheckpointed { spill_dir: None };
        let back = ServiceSnapshot::from_json(&snapshot.to_json()).unwrap();
        assert_eq!(back.config.retention, snapshot.config.retention);
    }

    #[test]
    fn auto_parallelism_round_trips_as_auto() {
        let mut snapshot = sample_snapshot();
        snapshot.config.policy.parallelism = EmParallelism::Auto;
        let text = snapshot.to_json();
        assert!(text.contains("\"em_threads\":\"auto\""), "{text}");
        let back = ServiceSnapshot::from_json(&text).unwrap();
        assert_eq!(back.config.policy.parallelism, EmParallelism::Auto);
    }

    #[test]
    fn missing_full_sweep_every_restores_as_exact() {
        // Pre-dirty-set snapshots carry no 'full_sweep_every'; they must
        // restore to always-full-sweep behaviour, matching how they were
        // recorded.
        let snapshot = sample_snapshot();
        let text = snapshot.to_json();
        let stripped = text.replace(",\"full_sweep_every\":8", "");
        assert_ne!(stripped, text, "expected the field to be present");
        let back = ServiceSnapshot::from_json(&stripped).unwrap();
        assert_eq!(back.config.policy.full_sweep_every, 1);
    }

    #[test]
    fn gossip_payload_round_trips_exactly() {
        let snapshot = sample_snapshot();
        let back = ServiceSnapshot::from_json(&snapshot.to_json()).unwrap();
        assert_eq!(back.exchange, snapshot.exchange);
        assert_eq!(
            back.shards[0].gossip_events,
            snapshot.shards[0].gossip_events
        );
        // Float payloads survive bit-for-bit (0.1 + 0.2 has an ugly tail).
        let held = back.exchange[0].as_ref().unwrap();
        assert_eq!(held.i_sum[0].to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(back.config.gossip_every, Some(50));
        assert_eq!(back.config.policy.dirty_coverage_fallback, 60);
    }

    #[test]
    fn v1_documents_without_gossip_fields_still_parse() {
        // A pre-gossip (version 1) snapshot carries none of the new
        // fields; it must parse with gossip disabled and no events.
        let v1 = "{\"version\":1,\"n_tasks\":4,\"n_workers\":2,\
                  \"config\":{\"n_shards\":1,\"ingest_threads\":1,\
                  \"queue_capacity\":8,\"drain_batch\":4,\"budget\":10,\"h\":2,\
                  \"em\":{\"alpha\":0.5,\"tolerance\":0.005,\"max_iterations\":100,\
                  \"init\":\"vote_share\",\"lambdas\":[0.4,1.0,2.5]},\
                  \"full_em_every\":100,\"full_sweep_every\":8},\
                  \"shards\":[{\"shard\":0,\"budget\":10,\"budget_used\":0,\
                  \"answers\":[{\"w\":0,\"t\":1,\"bits\":\"101\"}]}]}";
        let parsed = ServiceSnapshot::from_json(v1).unwrap();
        assert_eq!(parsed.config.gossip_every, None);
        assert_eq!(parsed.config.policy.dirty_coverage_fallback, 60);
        // Pre-parallelism snapshots restore pinned to the sequential
        // sweep, not the auto default.
        assert_eq!(parsed.config.policy.parallelism, EmParallelism::Fixed(1));
        assert!(parsed.shards[0].gossip_events.is_empty());
        assert!(parsed.shards[0].checkpoint.is_none());
        assert!(parsed.exchange.is_empty());
    }

    /// A handwritten v2 document (payloads inline, no checkpoint, no delta
    /// table): shard 0 folds `fold0` at position 1 and hardens at 2,
    /// shard 1 folds `fold1` at 0, and the exchange holds `held`.
    fn v2_text(fold0: &WorkerStatDelta, fold1: &WorkerStatDelta, held: &WorkerStatDelta) -> String {
        let inline = |d: &WorkerStatDelta| delta_to_json(d).render();
        format!(
            "{{\"version\":2,\"n_tasks\":20,\"n_workers\":7,\"config\":{},\"shards\":[\
             {{\"shard\":0,\"budget\":60,\"budget_used\":12,\"answers\":[\
             {{\"w\":3,\"t\":11,\"bits\":\"101\"}},{{\"w\":0,\"t\":4,\"bits\":\"000\"}}],\
             \"gossip_events\":[{{\"position\":1,\"delta\":{}}},{{\"position\":2,\"sweep\":true}}],\
             \"publishes\":3}},\
             {{\"shard\":1,\"budget\":63,\"budget_used\":0,\"answers\":[],\
             \"gossip_events\":[{{\"position\":0,\"delta\":{}}}],\"publishes\":0}}],\
             \"exchange\":[{},null]}}",
            config_to_json(&sample_snapshot().config).render(),
            inline(fold0),
            inline(fold1),
            inline(held),
        )
    }

    #[test]
    fn malformed_delta_payload_is_rejected() {
        let mut snapshot = sample_snapshot();
        snapshot.exchange[0].as_mut().unwrap().i_sum.pop();
        let err = ServiceSnapshot::from_json(&snapshot.to_json()).unwrap_err();
        assert!(matches!(err, SnapshotError::Schema(_)), "{err}");

        // The same shape check guards payloads carried inline (v1/v2).
        let mut short = sample_delta(0, 2);
        short.i_sum.pop();
        let text = v2_text(&sample_delta(1, 9), &sample_delta(1, 9), &short);
        let err = ServiceSnapshot::from_json(&text).unwrap_err();
        assert!(matches!(err, SnapshotError::Schema(_)), "{err}");
    }

    #[test]
    fn conflicting_stamps_and_ambiguous_events_are_rejected() {
        // Legacy documents: two *different* payloads under one stamp are
        // corrupt (v2 stored one copy per folding peer — they must agree);
        // identical duplicates are the normal case and must keep parsing,
        // upgraded into the same in-memory form a v4 document parses to.
        let (fold, held) = (sample_delta(1, 9), sample_delta(0, 2));
        let legacy = ServiceSnapshot::from_json(&v2_text(&fold, &fold, &held))
            .expect("identical duplicate payloads are the expected legacy shape");
        assert_eq!(
            legacy.shards[1].gossip_events[0].kind,
            GossipEventKind::Fold(fold.clone())
        );
        assert_eq!(legacy.exchange, vec![Some(held.clone()), None]);
        let upgraded = legacy.to_json();
        assert!(upgraded.starts_with("{\"version\":4,"), "{upgraded}");
        assert_eq!(ServiceSnapshot::from_json(&upgraded).unwrap(), legacy);

        let mut conflicting = fold.clone();
        conflicting.i_sum[0] += 1.0;
        let err = ServiceSnapshot::from_json(&v2_text(&fold, &conflicting, &held)).unwrap_err();
        assert!(matches!(err, SnapshotError::Schema(_)), "{err}");

        // A v2 event carrying both an inline payload and 'sweep':true is
        // ambiguous.
        let text = v2_text(&fold, &fold, &held);
        let ambiguous = text.replacen(
            "{\"position\":2,\"sweep\":true}",
            &format!(
                "{{\"position\":2,\"sweep\":true,\"delta\":{}}}",
                delta_to_json(&fold).render()
            ),
            1,
        );
        assert_ne!(ambiguous, text);
        let err = ServiceSnapshot::from_json(&ambiguous).unwrap_err();
        assert!(matches!(err, SnapshotError::Schema(_)), "{err}");

        // v3 documents: a duplicated table entry is rejected outright.
        let text = sample_snapshot().to_json();
        let entry = "{\"source\":1,\"version\":9,";
        let duplicated = text.replacen(entry, &format!("{entry}\"dup\":0,"), 1);
        let duplicated = duplicated.replace(
            "\"deltas\":[",
            &format!(
                "\"deltas\":[{},",
                delta_to_json(&sample_delta(1, 9)).render()
            ),
        );
        let err = ServiceSnapshot::from_json(&duplicated).unwrap_err();
        assert!(matches!(err, SnapshotError::Schema(_)), "{err}");

        // An event carrying both a fold reference and 'sweep':true is
        // ambiguous — rejected, like the inline parser always did.
        let ambiguous = text.replace(
            "{\"position\":1,\"source\":1,\"version\":9}",
            "{\"position\":1,\"source\":1,\"version\":9,\"sweep\":true}",
        );
        assert_ne!(ambiguous, text);
        let err = ServiceSnapshot::from_json(&ambiguous).unwrap_err();
        assert!(matches!(err, SnapshotError::Schema(_)), "{err}");
    }

    #[test]
    fn dangling_table_reference_is_rejected() {
        let snapshot = sample_snapshot();
        let text = snapshot.to_json();
        // Repoint the (source 2, version 7) exchange reference at a stamp
        // the table does not hold.
        let broken = text.replace(
            "{\"source\":2,\"version\":7}",
            "{\"source\":2,\"version\":8}",
        );
        assert_ne!(broken, text);
        let err = ServiceSnapshot::from_json(&broken).unwrap_err();
        assert!(matches!(err, SnapshotError::Schema(_)), "{err}");
    }

    #[test]
    fn delta_documents_are_rejected_by_the_base_parser() {
        let delta = ServiceSnapshotDelta {
            n_tasks: 20,
            n_workers: 7,
            shards: vec![],
            exchange: vec![],
        };
        let err = ServiceSnapshot::from_json(&delta.to_json()).unwrap_err();
        assert!(matches!(err, SnapshotError::Schema(_)), "{err}");
    }

    #[test]
    fn delta_document_round_trips() {
        let delta = ServiceSnapshotDelta {
            n_tasks: 20,
            n_workers: 7,
            shards: vec![ShardDelta {
                shard: 0,
                since: SnapshotCursor {
                    answers: 2,
                    events: 2,
                },
                budget_used: 14,
                publishes: 4,
                answers: vec![SnapshotAnswer {
                    worker: WorkerId(5),
                    task: TaskId(9),
                    bits: LabelBits::from_slice(&[true, true, false]),
                }],
                gossip_events: vec![GossipEvent {
                    position: 3,
                    kind: GossipEventKind::Fold(sample_delta(1, 10)),
                }],
                checkpoint: Some(sample_checkpoint()),
            }],
            exchange: vec![Some(sample_delta(0, 3)), None],
        };
        let text = delta.to_json();
        let back = ServiceSnapshotDelta::from_json(&text).unwrap();
        assert_eq!(back, delta);
        assert_eq!(back.to_json(), text);
        assert_eq!(
            back.cursors(),
            vec![SnapshotCursor {
                answers: 3,
                events: 3
            }]
        );
    }

    #[test]
    fn compact_appends_streams_and_adopts_latest_counters() {
        let base = sample_snapshot();
        let delta = ServiceSnapshotDelta {
            n_tasks: 20,
            n_workers: 7,
            shards: vec![
                ShardDelta {
                    shard: 0,
                    since: SnapshotCursor {
                        answers: 2,
                        events: 2,
                    },
                    budget_used: 20,
                    publishes: 5,
                    answers: vec![SnapshotAnswer {
                        worker: WorkerId(1),
                        task: TaskId(2),
                        bits: LabelBits::from_slice(&[true, false, false]),
                    }],
                    gossip_events: vec![],
                    checkpoint: base.shards[0].checkpoint.clone(),
                },
                ShardDelta {
                    shard: 1,
                    since: SnapshotCursor {
                        answers: 0,
                        events: 0,
                    },
                    budget_used: 3,
                    publishes: 1,
                    answers: vec![],
                    gossip_events: vec![GossipEvent {
                        position: 0,
                        kind: GossipEventKind::Fold(sample_delta(0, 4)),
                    }],
                    checkpoint: None,
                },
            ],
            exchange: vec![Some(sample_delta(0, 4)), None, None],
        };
        let compacted = base.compact(std::slice::from_ref(&delta)).unwrap();
        assert_eq!(compacted.shards[0].answers.len(), 3);
        assert_eq!(compacted.shards[0].budget_used, 20);
        assert_eq!(compacted.shards[0].publishes, 5);
        assert_eq!(compacted.shards[1].gossip_events.len(), 1);
        assert_eq!(compacted.exchange, delta.exchange);
        // The compacted base is a normal base document.
        let back = ServiceSnapshot::from_json(&compacted.to_json()).unwrap();
        assert_eq!(back, compacted);

        // A delta that does not chain contiguously is rejected.
        let err = compacted.compact(std::slice::from_ref(&delta)).unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch(_)), "{err}");

        // A truncated exchange would silently drop the in-flight gossip
        // deltas on restore — rejected instead of replacing the base's.
        let mut truncated = delta.clone();
        truncated.exchange.clear();
        let err = base.compact(std::slice::from_ref(&truncated)).unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch(_)), "{err}");
        let mut short = delta;
        short.exchange.pop();
        let err = base.compact(std::slice::from_ref(&short)).unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch(_)), "{err}");
    }

    #[test]
    fn prefix_rebuild_simulation_counts_sweep_resets() {
        let policy = UpdatePolicy {
            full_em_every: Some(3),
            ..UpdatePolicy::default()
        };
        // 10 answers, rebuilds at 3, 6, 9 → 3 rebuilds.
        assert_eq!(prefix_rebuilds(10, &[], &policy), 3);
        // A hardening sweep at position 2 resets the counter: rebuilds at
        // 5, 8 → 2 rebuilds.
        let sweep = [GossipEvent {
            position: 2,
            kind: GossipEventKind::FullSweep,
        }];
        assert_eq!(prefix_rebuilds(10, &sweep, &policy), 2);
        // Folds never reset anything.
        let fold = [GossipEvent {
            position: 2,
            kind: GossipEventKind::Fold(sample_delta(0, 1)),
        }];
        assert_eq!(prefix_rebuilds(10, &fold, &policy), 3);
        // Pure-incremental mode never rebuilds.
        let none = UpdatePolicy {
            full_em_every: None,
            ..policy
        };
        assert_eq!(prefix_rebuilds(10, &[], &none), 0);
    }

    #[test]
    fn wrong_version_is_rejected() {
        let text = sample_snapshot().to_json();
        for bad in ["0", "5", "99"] {
            let stamped = text.replacen("\"version\":4", &format!("\"version\":{bad}"), 1);
            let err = ServiceSnapshot::from_json(&stamped).unwrap_err();
            assert!(matches!(err, SnapshotError::Schema(_)), "{err}");
        }
        // Deltas exist from v3 on.
        let delta = ServiceSnapshotDelta {
            n_tasks: 20,
            n_workers: 7,
            shards: vec![],
            exchange: vec![],
        }
        .to_json();
        for (stamp, ok) in [("2", false), ("3", true), ("4", true), ("5", false)] {
            let stamped = delta.replacen("\"version\":4", &format!("\"version\":{stamp}"), 1);
            assert_eq!(
                ServiceSnapshotDelta::from_json(&stamped).is_ok(),
                ok,
                "delta stamped v{stamp}"
            );
        }
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(matches!(
            ServiceSnapshot::from_json("{not json"),
            Err(SnapshotError::Json(_))
        ));
        assert!(matches!(
            ServiceSnapshot::from_json("{\"version\": 1}"),
            Err(SnapshotError::Schema(_))
        ));
        let bad_bits = sample_snapshot().to_json().replace("101", "10x");
        assert!(ServiceSnapshot::from_json(&bad_bits).is_err());
    }
}
