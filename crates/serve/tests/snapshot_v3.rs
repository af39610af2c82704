//! Snapshot format v3 integration suite — the guarantees the written spec
//! (`docs/SNAPSHOT_FORMAT.md`) promises:
//!
//! 1. **Restore-from-parameters ≡ replay restore**, bit for bit, with
//!    gossip and hardening in the stream (the `--verify` path).
//! 2. **Upgrades**: v1 and v2 documents (checked in under `fixtures/`,
//!    written by an earlier build) still parse and restore exactly as
//!    recorded, re-snapshotting an upgraded service emits the v4 document
//!    a native service wrote, and v3 delta chains compact like their v4
//!    twins.
//! 3. **`compact()` ≡ full snapshot**: folding a delta chain into a base
//!    yields byte-identical JSON to a one-shot full snapshot at the same
//!    point, and restores identically.
//! 4. **Mid-gossip stress**: snapshot → delta → compact → restore while
//!    gossip races ingestion, then resume the original and the restored
//!    service in lockstep.

use crowd_core::{synthetic_task, LabelBits, TaskId, TaskSet, Worker, WorkerId, WorkerPool};
use crowd_geo::Point;
use crowd_serve::{
    LabellingService, RetentionPolicy, ServeConfig, ServiceSnapshot, ServiceSnapshotDelta,
    SnapshotError,
};

const N_TASKS: usize = 40;
const N_WORKERS: usize = 12;

fn world() -> (TaskSet, WorkerPool) {
    let tasks = TaskSet::new(
        (0..N_TASKS)
            .map(|i| {
                synthetic_task(
                    format!("t{i}"),
                    Point::new((i % 8) as f64, (i / 8) as f64 * 1.7),
                    4,
                )
            })
            .collect(),
    );
    let workers = WorkerPool::from_workers(
        (0..N_WORKERS)
            .map(|i| {
                Worker::at(
                    format!("w{i}"),
                    Point::new((i % 4) as f64 * 2.0, (i / 4) as f64 * 1.5),
                )
            })
            .collect(),
    )
    .unwrap();
    (tasks, workers)
}

/// Deterministic answer content per (worker, task) — reproducible
/// regardless of interleaving.
fn bits_for(w: WorkerId, t: TaskId) -> LabelBits {
    let x = crowd_sim::rngx::pair_seed(u64::from(w.0), u64::from(t.0));
    LabelBits::from_slice(&[x & 1 == 1, x & 2 == 2, x & 4 == 4, x & 8 == 8])
}

/// All (worker, task) pairs in a deterministic shuffled-ish order.
fn stream() -> Vec<(WorkerId, TaskId)> {
    let mut pairs = Vec::with_capacity(N_WORKERS * N_TASKS);
    for w in 0..N_WORKERS {
        for t in 0..N_TASKS {
            pairs.push((WorkerId::from_index(w), TaskId::from_index(t)));
        }
    }
    // Deal by a fixed stride so consecutive submits hit different shards
    // and different workers, like a live campaign.
    pairs.sort_by_key(|&(w, t)| crowd_sim::rngx::pair_seed(u64::from(w.0), u64::from(t.0)));
    pairs
}

fn gossip_config() -> ServeConfig {
    ServeConfig {
        n_shards: 3,
        queue_capacity: 64,
        budget: 0,
        gossip_every: Some(20),
        ..ServeConfig::default()
    }
}

fn ingest(service: &LabellingService, pairs: &[(WorkerId, TaskId)]) {
    let handle = service.handle();
    for &(w, t) in pairs {
        handle.submit_wait(w, t, bits_for(w, t)).unwrap();
    }
    service.quiesce();
}

/// The document with every shard's checkpoint cleared: restoring it
/// replays each shard's whole event stream.
fn without_checkpoints(snapshot: &ServiceSnapshot) -> ServiceSnapshot {
    let mut replayed = snapshot.clone();
    for shard in &mut replayed.shards {
        shard.checkpoint = None;
    }
    replayed
}

fn assert_services_bit_identical(a: &LabellingService, b: &LabellingService, context: &str) {
    assert_eq!(a.n_shards(), b.n_shards(), "{context}: shard counts");
    for i in 0..a.n_shards() {
        let sa = a.shard(i);
        let sb = b.shard(i);
        assert_eq!(
            sa.framework().params(),
            sb.framework().params(),
            "{context}: shard {i} parameters"
        );
        assert_eq!(
            sa.framework().peer_stats(),
            sb.framework().peer_stats(),
            "{context}: shard {i} peer tables"
        );
        assert_eq!(sa.publishes(), sb.publishes(), "{context}: shard {i}");
        assert_eq!(sa.checkpoint(), sb.checkpoint(), "{context}: shard {i}");
    }
    assert_eq!(a.decisions(), b.decisions(), "{context}: decisions");
}

#[test]
fn param_restore_is_bit_identical_to_replay_restore() {
    // Enough traffic for several full sweeps (full_em_every=100 per shard,
    // every 8th rebuild a full sweep) plus hardening, with gossip racing.
    let (tasks, workers) = world();
    let service = LabellingService::start(&tasks, &workers, gossip_config());
    let pairs = stream();
    ingest(&service, &pairs[..pairs.len() / 2]);
    service.force_full_em(); // harden mid-campaign: sweeps + a final exchange
    ingest(&service, &pairs[pairs.len() / 2..]);

    let snapshot = service.snapshot();
    assert!(
        snapshot.shards.iter().all(|s| s.checkpoint.is_some()),
        "every shard hardened at least once, so every shard must carry a checkpoint"
    );
    let parsed = ServiceSnapshot::from_json(&snapshot.to_json()).unwrap();
    assert_eq!(parsed, snapshot);

    let fast = LabellingService::restore(&tasks, &workers, &parsed).unwrap();
    let replay =
        LabellingService::restore(&tasks, &workers, &without_checkpoints(&parsed)).unwrap();
    assert_services_bit_identical(&fast, &replay, "fast vs replay");
    assert_services_bit_identical(&fast, &service, "fast vs live");
    assert_eq!(fast.snapshot().to_json(), replay.snapshot().to_json());

    // restore_verified runs both restores itself and returns the fast one.
    let verified = LabellingService::restore_verified(&tasks, &workers, &parsed).unwrap();
    assert_eq!(verified.snapshot().to_json(), snapshot.to_json());

    // The fast path seeded the metrics consistently: submits equal the
    // answer log, rebuild counts match the deterministic schedule.
    let fast_metrics = fast.metrics();
    let replay_metrics = replay.metrics();
    for i in 0..fast.n_shards() {
        assert_eq!(
            fast_metrics.shards[i].submits,
            replay_metrics.shards[i].submits
        );
        assert_eq!(
            fast_metrics.shards[i].em_rebuilds, replay_metrics.shards[i].em_rebuilds,
            "shard {i}: bulk-load rebuild seeding must match what replay counts"
        );
        assert_eq!(
            fast_metrics.shards[i].events_len,
            snapshot.shards[i].gossip_events.len() as u64
        );
    }
    service.shutdown();
    fast.shutdown();
    replay.shutdown();
    verified.shutdown();
}

#[test]
fn v1_documents_upgrade_to_v3_on_resnapshot() {
    // A handcrafted pre-gossip v1 document (single shard, budget 10, one
    // recorded answer) restores exactly as recorded and re-snapshots as a
    // v3 document that round-trips and restores again.
    let tasks = TaskSet::new(
        (0..4)
            .map(|i| synthetic_task(format!("t{i}"), Point::new(i as f64, 0.0), 3))
            .collect(),
    );
    let workers = WorkerPool::from_workers(vec![
        Worker::at("a", Point::new(0.0, 0.5)),
        Worker::at("b", Point::new(3.0, 0.5)),
    ])
    .unwrap();
    let v1 = "{\"version\":1,\"n_tasks\":4,\"n_workers\":2,\
              \"config\":{\"n_shards\":1,\"ingest_threads\":1,\
              \"queue_capacity\":8,\"drain_batch\":4,\"budget\":10,\"h\":2,\
              \"em\":{\"alpha\":0.5,\"tolerance\":0.005,\"max_iterations\":100,\
              \"init\":\"vote_share\",\"lambdas\":[0.4,1.0,2.5]},\
              \"full_em_every\":100,\"full_sweep_every\":8},\
              \"shards\":[{\"shard\":0,\"budget\":10,\"budget_used\":1,\
              \"answers\":[{\"w\":0,\"t\":1,\"bits\":\"101\"}]}]}";
    let parsed = ServiceSnapshot::from_json(v1).unwrap();
    let restored = LabellingService::restore(&tasks, &workers, &parsed).unwrap();
    assert_eq!(restored.answers_total(), 1);
    assert_eq!(restored.budget_used(), 1);

    // Re-snapshot: a current document (no checkpoint yet — one answer
    // never triggered a full sweep) that parses, restores, and stays stable.
    let upgraded = restored.snapshot();
    let text = upgraded.to_json();
    let stamp = format!(
        "{{\"version\":{},\"kind\":\"base\",",
        crowd_serve::SNAPSHOT_VERSION
    );
    assert!(text.starts_with(&stamp), "{text}");
    let reparsed = ServiceSnapshot::from_json(&text).unwrap();
    assert_eq!(reparsed, upgraded);
    let again = LabellingService::restore_verified(&tasks, &workers, &reparsed).unwrap();
    assert_eq!(again.decisions(), restored.decisions());
    assert_eq!(again.snapshot().to_json(), text);
    restored.shutdown();
    again.shutdown();
}

/// The half-stream gossip campaign of `world()` (hardened once), rendered
/// from one snapshot by an earlier build both as v2 — payloads inline, no
/// checkpoints — and natively as v4.
const HALF_STREAM_V2: &str = include_str!("fixtures/half_stream_v2.json");
const HALF_STREAM_V4: &str = include_str!("fixtures/half_stream_v4.json");

#[test]
fn v2_documents_upgrade_to_v3_and_match_the_native_path() {
    // The v2 document restores on the replay path (v2 has no parameters),
    // and the upgraded service re-snapshots to exactly the v4 document the
    // original service wrote natively.
    let (tasks, workers) = world();
    let parsed_v2 = ServiceSnapshot::from_json(HALF_STREAM_V2).unwrap();
    let parsed_v4 = ServiceSnapshot::from_json(HALF_STREAM_V4).unwrap();
    assert!(parsed_v2.shards.iter().all(|s| s.checkpoint.is_none()));
    assert!(parsed_v4.shards.iter().all(|s| s.checkpoint.is_some()));
    for (v2, v4) in parsed_v2.shards.iter().zip(&parsed_v4.shards) {
        assert_eq!(
            v2.gossip_events, v4.gossip_events,
            "v2 inline payloads must carry the same events"
        );
    }
    assert_eq!(parsed_v2.exchange, parsed_v4.exchange);
    // Parsing and re-rendering the native document reproduces its bytes.
    assert_eq!(parsed_v4.to_json(), HALF_STREAM_V4);

    let upgraded = LabellingService::restore(&tasks, &workers, &parsed_v2).unwrap();
    let native = LabellingService::restore(&tasks, &workers, &parsed_v4).unwrap();
    assert_services_bit_identical(&upgraded, &native, "v2-upgraded vs native v4");
    assert_eq!(
        upgraded.snapshot().to_json(),
        HALF_STREAM_V4,
        "re-snapshotting a v2-restored service must emit the native v4 document \
         (checkpoints are re-recorded deterministically during replay)"
    );
    upgraded.shutdown();
    native.shutdown();
}

/// A small v3 chain from an earlier build: a base over the first 48
/// answers of `stream()`, and a delta stamped v3 over the next 96 plus a
/// hardening pass.
const SMALL_BASE_V3: &str = include_str!("fixtures/small_base_v3.json");
const SMALL_DELTA_V3: &str = include_str!("fixtures/small_delta_v3.json");

#[test]
fn v3_delta_chains_compact_like_their_v4_twins() {
    let twin = |text: &str| {
        let v4 = text.replacen("{\"version\":3,", "{\"version\":4,", 1);
        assert_ne!(v4, text, "fixture must carry a v3 stamp");
        v4
    };
    let base = ServiceSnapshot::from_json(SMALL_BASE_V3).unwrap();
    let delta = ServiceSnapshotDelta::from_json(SMALL_DELTA_V3).unwrap();
    assert!(
        delta.shards.iter().all(|s| s.checkpoint.is_some()),
        "the delta must carry the hardening pass"
    );
    // The v3 and v4 delta layouts are identical.
    assert_eq!(delta.to_json(), twin(SMALL_DELTA_V3));
    let compacted = base.compact(&[delta]).unwrap().to_json();
    let twin_base = ServiceSnapshot::from_json(&twin(SMALL_BASE_V3)).unwrap();
    let twin_delta = ServiceSnapshotDelta::from_json(&twin(SMALL_DELTA_V3)).unwrap();
    assert_eq!(
        compacted,
        twin_base.compact(&[twin_delta]).unwrap().to_json(),
        "a v3 chain must compact to the same bytes as its v4 twin"
    );

    // The compacted chain restores like any base.
    let (tasks, workers) = world();
    let parsed = ServiceSnapshot::from_json(&compacted).unwrap();
    let restored = LabellingService::restore_verified(&tasks, &workers, &parsed).unwrap();
    assert_eq!(restored.snapshot().to_json(), compacted);
    restored.shutdown();
}

#[test]
fn compact_equals_full_snapshot() {
    // base → delta → delta, compacted, must be byte-identical to a full
    // snapshot taken at the end — and restore identically.
    let (tasks, workers) = world();
    let service = LabellingService::start(&tasks, &workers, gossip_config());
    let pairs = stream();
    let third = pairs.len() / 3;

    ingest(&service, &pairs[..third]);
    let base = service.snapshot();

    ingest(&service, &pairs[third..2 * third]);
    let delta1 = service.snapshot_delta(&base.cursors()).unwrap();

    ingest(&service, &pairs[2 * third..]);
    service.force_full_em();
    let delta2 = service.snapshot_delta(&delta1.cursors()).unwrap();

    let full = service.snapshot();
    let compacted = base.compact(&[delta1.clone(), delta2.clone()]).unwrap();
    assert_eq!(
        compacted.to_json(),
        full.to_json(),
        "compact() must reproduce the one-shot snapshot byte for byte"
    );

    // The deltas round-trip through their wire format and still compact
    // to the same document.
    let delta1_back = ServiceSnapshotDelta::from_json(&delta1.to_json()).unwrap();
    let delta2_back = ServiceSnapshotDelta::from_json(&delta2.to_json()).unwrap();
    assert_eq!(
        base.compact(&[delta1_back, delta2_back]).unwrap().to_json(),
        full.to_json()
    );

    // Incremental documents are (much) smaller than re-shipping the base.
    assert!(
        delta2.to_json().len() < full.to_json().len(),
        "a delta must not re-ship the whole campaign"
    );

    let restored = LabellingService::restore_verified(&tasks, &workers, &compacted).unwrap();
    assert_services_bit_identical(&restored, &service, "compacted restore vs live");
    service.shutdown();
    restored.shutdown();
}

#[test]
fn snapshot_compact_restore_mid_gossip_resumes_in_lockstep() {
    // Concurrent producers race gossip; we take a base early, a delta
    // mid-flight (quiescing each time), compact, restore — then feed the
    // original and the restored service the same remaining stream from
    // one thread and they must stay in lockstep through further gossip
    // rounds, hardening and re-snapshots.
    let (tasks, workers) = world();
    let service = LabellingService::start(&tasks, &workers, gossip_config());
    let pairs = stream();
    let (phase1, rest) = pairs.split_at(pairs.len() / 3);
    let (phase2, phase3) = rest.split_at(rest.len() / 2);

    // Phase 1: concurrent producers.
    std::thread::scope(|s| {
        for chunk in phase1.chunks(40) {
            let handle = service.handle();
            s.spawn(move || {
                for &(w, t) in chunk {
                    handle.submit(w, t, bits_for(w, t)).unwrap();
                }
            });
        }
    });
    service.quiesce();
    let base = service.snapshot();

    // Phase 2: more concurrent traffic, then an incremental snapshot.
    std::thread::scope(|s| {
        for chunk in phase2.chunks(40) {
            let handle = service.handle();
            s.spawn(move || {
                for &(w, t) in chunk {
                    handle.submit(w, t, bits_for(w, t)).unwrap();
                }
            });
        }
    });
    let delta = service.snapshot_delta(&base.cursors()).unwrap();
    assert!(
        delta.shards.iter().any(|s| !s.gossip_events.is_empty()),
        "phase 2 should have gossiped — otherwise this test is vacuous"
    );

    let compacted = base.compact(std::slice::from_ref(&delta)).unwrap();
    let restored = LabellingService::restore(&tasks, &workers, &compacted).unwrap();
    assert_services_bit_identical(&restored, &service, "after compact+restore");

    // Phase 3 (resume): same serialised stream into both services.
    let original_handle = service.handle();
    let restored_handle = restored.handle();
    for &(w, t) in phase3 {
        original_handle.submit_wait(w, t, bits_for(w, t)).unwrap();
        restored_handle.submit_wait(w, t, bits_for(w, t)).unwrap();
    }
    service.quiesce();
    restored.quiesce();
    service.force_full_em();
    restored.force_full_em();
    assert_services_bit_identical(&restored, &service, "after lockstep resume");
    assert_eq!(
        restored.snapshot().to_json(),
        service.snapshot().to_json(),
        "resumed services must serialise identically"
    );
    service.shutdown();
    restored.shutdown();
}

#[test]
fn pruned_campaigns_snapshot_restore_and_stream_deltas() {
    // A campaign under PruneCheckpointed: every hardening sweep drops the
    // checkpoint-covered prefix from memory. Its snapshot persists the
    // pruned pairs + frozen baseline, restores on the parameter path
    // (replay is impossible and must be rejected), and incremental
    // snapshots keep flowing across the floor — with restore_chain's
    // streaming fold byte-identical to compact-then-restore.
    let (tasks, workers) = world();
    // Delayed full EMs also checkpoint (and therefore prune) mid-stream;
    // disable them so the pruned floor only moves at the explicit
    // hardening points below and the delta chain in between stays valid.
    let config = ServeConfig {
        retention: RetentionPolicy::PruneCheckpointed { spill_dir: None },
        policy: crowd_core::UpdatePolicy {
            full_em_every: None,
            ..crowd_core::UpdatePolicy::default()
        },
        ..gossip_config()
    };
    let service = LabellingService::start(&tasks, &workers, config);
    let pairs = stream();
    let third = pairs.len() / 3;

    ingest(&service, &pairs[..third]);
    service.force_full_em(); // harden + prune: the whole prefix leaves memory
    assert_eq!(service.answers_resident(), 0, "prune must empty the log");
    assert_eq!(service.answers_total(), third, "the stream total survives");
    let base = service.snapshot();
    assert!(
        base.shards.iter().any(|s| !s.pruned_pairs.is_empty()),
        "the base snapshot must record the pruned tier"
    );

    // The document round-trips and carries the frozen baselines.
    let parsed = ServiceSnapshot::from_json(&base.to_json()).unwrap();
    assert_eq!(parsed, base);

    // Replay restore is impossible without the payloads; the fast path
    // restores bit-identically (restore_verified proves it by
    // re-snapshotting) and keeps duplicate detection for pruned pairs.
    assert!(matches!(
        LabellingService::restore(&tasks, &workers, &without_checkpoints(&parsed)),
        Err(SnapshotError::Mismatch(_))
    ));
    let restored = LabellingService::restore_verified(&tasks, &workers, &parsed).unwrap();
    assert_services_bit_identical(&restored, &service, "pruned restore vs live");
    assert_eq!(restored.answers_resident(), 0);
    assert_eq!(restored.answers_total(), third);
    let (w, t) = pairs[0];
    assert!(
        matches!(
            restored.handle().submit_wait(w, t, bits_for(w, t)),
            Err(crowd_serve::ServeError::Core(
                crowd_core::CoreError::DuplicateAnswer { .. }
            ))
        ),
        "a pruned pair must still be rejected as a duplicate"
    );

    // Deltas on top of the pruned floor: ship only the live suffix, and
    // the streaming restore equals compact-then-restore byte for byte.
    ingest(&service, &pairs[third..2 * third]);
    let delta1 = service.snapshot_delta(&base.cursors()).unwrap();
    ingest(&service, &pairs[2 * third..]);
    let delta2 = service.snapshot_delta(&delta1.cursors()).unwrap();

    let full = service.snapshot();
    let compacted = base.compact(&[delta1.clone(), delta2.clone()]).unwrap();
    assert_eq!(compacted.to_json(), full.to_json());
    let chained =
        LabellingService::restore_chain(&tasks, &workers, &base, [Ok(delta1), Ok(delta2)]).unwrap();
    let via_compact = LabellingService::restore(&tasks, &workers, &compacted).unwrap();
    assert_eq!(
        chained.snapshot().to_json(),
        via_compact.snapshot().to_json(),
        "streaming (base, chain) restore must be byte-identical to compact-then-restore"
    );
    assert_services_bit_identical(&chained, &service, "chained restore vs live");

    // A further prune truncates past every outstanding cursor: extending
    // the old chain is refused with a pointer to take a new base.
    service.force_full_em();
    assert_eq!(service.answers_resident(), 0);
    match service.snapshot_delta(&base.cursors()) {
        Err(SnapshotError::Mismatch(msg)) => {
            assert!(msg.contains("pruned"), "unhelpful error: {msg}");
        }
        other => panic!("a pre-floor cursor must be rejected, got {other:?}"),
    }

    service.shutdown();
    restored.shutdown();
    chained.shutdown();
    via_compact.shutdown();
}

#[test]
fn corrupt_checkpoints_and_cursors_are_rejected() {
    let (tasks, workers) = world();
    let service = LabellingService::start(&tasks, &workers, gossip_config());
    ingest(&service, &stream());
    service.force_full_em();
    let snapshot = service.snapshot();

    // A checkpoint pointing beyond the recorded stream.
    let mut beyond = snapshot.clone();
    beyond.shards[0].checkpoint.as_mut().unwrap().position = usize::MAX;
    assert!(matches!(
        LabellingService::restore(&tasks, &workers, &beyond),
        Err(SnapshotError::Mismatch(_))
    ));

    // A checkpoint whose event split disagrees with the event positions.
    let shard_with_events = snapshot
        .shards
        .iter()
        .position(|s| s.checkpoint.as_ref().is_some_and(|c| c.events_applied > 0))
        .expect("hardening recorded events before the checkpoint");
    let mut split = snapshot.clone();
    split.shards[shard_with_events]
        .checkpoint
        .as_mut()
        .unwrap()
        .events_applied = 0;
    assert!(matches!(
        LabellingService::restore(&tasks, &workers, &split),
        Err(SnapshotError::Mismatch(_))
    ));

    // Checkpoint parameters that do not match the shard's shapes.
    let mut shapes = snapshot.clone();
    let cp = shapes.shards[0].checkpoint.as_mut().unwrap();
    cp.params = crowd_core::ModelParams::from_parts(
        3,
        vec![0.5; 2],
        vec![0.5; 2],
        vec![1.0 / 3.0; 6],
        vec![1.0 / 3.0; 6],
    )
    .unwrap();
    assert!(matches!(
        LabellingService::restore(&tasks, &workers, &shapes),
        Err(SnapshotError::Mismatch(_))
    ));

    // A publish counter lagging behind a version already on the wire
    // (recorded folds / exchange) would let the resumed shard re-stamp a
    // seen (source, version) with a different payload — rejected.
    let republisher = snapshot
        .exchange
        .iter()
        .flatten()
        .map(|d| d.source as usize)
        .next()
        .expect("gossip published");
    let mut lagging = snapshot.clone();
    lagging.shards[republisher].publishes = 0;
    assert!(matches!(
        LabellingService::restore(&tasks, &workers, &lagging),
        Err(SnapshotError::Mismatch(_))
    ));

    // A recorded payload from a source no shard could have published.
    let mut ghost = snapshot.clone();
    ghost.exchange[0].as_mut().unwrap().source = 99;
    assert!(matches!(
        LabellingService::restore(&tasks, &workers, &ghost),
        Err(SnapshotError::Mismatch(_))
    ));

    // Delta cursors beyond the recorded stream.
    let mut cursors = snapshot.cursors();
    cursors[0].answers = usize::MAX;
    assert!(matches!(
        service.snapshot_delta(&cursors),
        Err(SnapshotError::Mismatch(_))
    ));
    assert!(matches!(
        service.snapshot_delta(&snapshot.cursors()[..1]),
        Err(SnapshotError::Mismatch(_))
    ));
    service.shutdown();
}
