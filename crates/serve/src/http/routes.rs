//! Route dispatch and handlers.
//!
//! Every handler speaks the same JSON dialect as the snapshot format
//! ([`crate::json::Json`]) and maps service errors onto HTTP statuses:
//!
//! | condition                              | status |
//! |----------------------------------------|--------|
//! | malformed JSON / wrong shape           | 400    |
//! | unknown task, worker or route          | 404    |
//! | method not allowed on a known route    | 405    |
//! | duplicate answer                       | 409    |
//! | budget exhausted                       | 409    |
//! | service shut down / being replaced     | 503    |
//!
//! Mutating handlers clone a [`ServiceHandle`] under a short read lock and
//! release the lock before doing any blocking work, so an
//! `/admin/restore` (which swaps the service under the write lock) is
//! never blocked behind a slow in-flight request.

use std::sync::atomic::Ordering;

use crowd_core::{Assignment, CoreError, EmParallelism, LabelBits, TaskId, Worker, WorkerId};
use crowd_geo::Point;
use crowd_obs::{Histogram, PromText};

use crate::json::Json;
use crate::metrics::ServiceMetrics;
use crate::obs::ObsHub;
use crate::service::{HandoffReport, LabellingService, ServeError};
use crate::snapshot::ServiceSnapshot;

use super::proto::{Request, Response};
use super::{Route, ServerState};

/// Counts and ids all stay far below 2⁵³, where `f64` is exact.
#[allow(clippy::cast_precision_loss)]
fn num(n: usize) -> Json {
    Json::Num(n as f64)
}

#[allow(clippy::cast_precision_loss)]
fn num64(n: u64) -> Json {
    Json::Num(n as f64)
}

fn obj(entries: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Routes one request to its handler. Returns the matched [`Route`] so
/// the connection loop can attribute the handler's latency; `span` (0 =
/// untraced) threads the request's trace span into the enqueueing
/// handlers.
pub(crate) fn dispatch(state: &ServerState, req: &Request, span: u64) -> (Route, Response) {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let route = match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["tasks", "request"]) => Route::TasksRequest,
        ("POST", ["labels"]) => Route::Labels,
        ("GET", ["campaign", "progress"]) => Route::Progress,
        ("GET", ["workers", _, "stats"]) => Route::WorkerStats,
        ("GET", ["metrics"]) => Route::Metrics,
        ("GET", ["healthz"]) => Route::Healthz,
        ("GET", ["debug", "trace"]) => Route::DebugTrace,
        ("POST", ["admin", "snapshot"]) => Route::AdminSnapshot,
        ("POST", ["admin", "restore"]) => Route::AdminRestore,
        ("POST", ["admin", "prune"]) => Route::AdminPrune,
        ("POST", ["workers", "register"]) => Route::WorkersRegister,
        ("POST", ["admin", "split"]) => Route::AdminSplit,
        ("POST", ["admin", "merge"]) => Route::AdminMerge,
        ("POST", ["admin", "rebalance"]) => Route::AdminRebalance,
        ("POST", ["campaigns"]) => Route::CampaignsCreate,
        ("GET", ["campaigns"]) => Route::CampaignsList,
        ("POST", ["campaigns", _, "close"]) => Route::CampaignsClose,
        _ => Route::Other,
    };
    // The routing decision is a span stage of its own, recorded before
    // the handler runs so it sorts ahead of "enqueue".
    if span != 0 {
        if let Some(svc) = state.service.read().as_ref() {
            svc.obs().trace.record(span, "route", None);
        }
    }
    let response = match route {
        Route::TasksRequest => tasks_request(state, req, span),
        Route::Labels => labels(state, req, span),
        Route::Progress => progress(state, req),
        Route::WorkerStats => worker_stats(state, req, segments[1]),
        Route::Metrics => metrics(state, req),
        Route::Healthz => Response::json(200, obj(vec![("ok", Json::Bool(true))]).render()),
        Route::DebugTrace => debug_trace(state, req),
        Route::AdminSnapshot => admin_snapshot(state, req),
        Route::AdminRestore => admin_restore(state, req),
        Route::AdminPrune => admin_prune(state, req),
        Route::WorkersRegister => workers_register(state, req),
        Route::AdminSplit => admin_reassign(state, req, true),
        Route::AdminMerge => admin_reassign(state, req, false),
        Route::AdminRebalance => admin_rebalance(state, req),
        Route::CampaignsCreate => campaigns_create(state, req),
        Route::CampaignsList => campaigns_list(state),
        Route::CampaignsClose => campaigns_close(state, segments[1]),
        // Known paths with the wrong method answer 405, not 404.
        Route::Other => match segments.as_slice() {
            ["tasks", "request"]
            | ["labels"]
            | ["campaign", "progress"]
            | ["campaigns"]
            | ["campaigns", _, "close"]
            | ["metrics"]
            | ["healthz"]
            | ["debug", "trace"]
            | ["workers", _, "stats"]
            | ["workers", "register"]
            | ["admin", "snapshot"]
            | ["admin", "restore"]
            | ["admin", "prune"]
            | ["admin", "split"]
            | ["admin", "merge"]
            | ["admin", "rebalance"] => Response::error(405, "method not allowed"),
            _ => Response::error(404, "no such route"),
        },
    };
    (route, response)
}

/// Maps a service error to its HTTP status.
fn serve_error(e: &ServeError) -> Response {
    let status = match e {
        ServeError::Closed => 503,
        ServeError::Core(CoreError::BudgetExhausted | CoreError::DuplicateAnswer { .. }) => 409,
        ServeError::Core(CoreError::UnknownTask(_) | CoreError::UnknownWorker(_)) => 404,
        ServeError::Core(_) => 400,
        ServeError::Rejected(_) => 409,
    };
    Response::error(status, &e.to_string())
}

/// Parses the request body as a JSON document (400 on failure).
fn parse_body(req: &Request) -> Result<Json, Response> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| Response::error(400, "body is not valid UTF-8"))?;
    Json::parse(text).map_err(|e| Response::error(400, &format!("malformed JSON: {e}")))
}

/// Runs `f` with the service under the read lock (503 when closed).
fn with_service<T>(
    state: &ServerState,
    f: impl FnOnce(&LabellingService) -> T,
) -> Result<T, Response> {
    state
        .service
        .read()
        .as_ref()
        .map(f)
        .ok_or_else(|| Response::error(503, "labelling service is closed"))
}

/// Parses the `?campaign=N` selector (`None` = the primary campaign).
fn campaign_param(req: &Request) -> Result<Option<u32>, Response> {
    match req.query_get("campaign") {
        None => Ok(None),
        Some(raw) => raw
            .parse::<u32>()
            .map(Some)
            .map_err(|_| Response::error(400, "campaign must be a non-negative integer")),
    }
}

/// Runs `f` with the campaign selected by `?campaign=N`: the primary
/// service when the parameter is absent or names its id, otherwise the
/// matching secondary campaign on the shared pool (404 when unknown).
fn with_campaign<T>(
    state: &ServerState,
    req: &Request,
    f: impl FnOnce(&LabellingService) -> T,
) -> Result<T, Response> {
    let Some(id) = campaign_param(req)? else {
        return with_service(state, f);
    };
    {
        let guard = state.service.read();
        if let Some(svc) = guard.as_ref() {
            if svc.campaign_id() == id {
                return Ok(f(svc));
            }
        }
    }
    state
        .campaigns
        .read()
        .iter()
        .find(|c| c.campaign_id() == id)
        .map(f)
        .ok_or_else(|| Response::error(404, &format!("no campaign {id}")))
}

fn assignment_json(a: &Assignment) -> Json {
    Json::Arr(
        a.per_worker()
            .iter()
            .map(|(w, ts)| {
                obj(vec![
                    ("worker", num(w.index())),
                    (
                        "tasks",
                        Json::Arr(ts.iter().map(|t| num(t.index())).collect()),
                    ),
                ])
            })
            .collect(),
    )
}

/// `POST /tasks/request` — body `{"workers": [0, 1, …]}`. Blocks for the
/// assignment (the request must roam shards and consult the model), then
/// answers `{"assignments": […], "issued": n}`.
fn tasks_request(state: &ServerState, req: &Request, span: u64) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let Some(ids) = body.get("workers").and_then(Json::as_arr) else {
        return Response::error(400, "expected {\"workers\": [ids]}");
    };
    // Ids validate against the campaign's *live* pool — mid-campaign
    // registration grows it past the startup roster.
    let (handle, n_workers) = match with_campaign(state, req, |svc| (svc.handle(), svc.n_workers()))
    {
        Ok(pair) => pair,
        Err(r) => return r,
    };
    let mut workers = Vec::with_capacity(ids.len());
    for id in ids {
        let Some(idx) = id.as_usize() else {
            return Response::error(400, "worker ids must be non-negative integers");
        };
        if idx >= n_workers {
            return Response::error(404, &format!("unknown worker {idx}"));
        }
        workers.push(WorkerId::from_index(idx));
    }
    match handle.request_tasks_traced(&workers, span) {
        Ok(a) => Response::json(
            200,
            obj(vec![
                ("assignments", assignment_json(&a)),
                ("issued", num(a.total())),
            ])
            .render(),
        ),
        Err(e) => serve_error(&e),
    }
}

/// One parsed label submission, validated against the campaign's live
/// worker count (registration grows it past `ServerState::workers`).
fn parse_label(
    state: &ServerState,
    n_workers: usize,
    entry: &Json,
) -> Result<(WorkerId, TaskId, LabelBits), String> {
    let worker = entry
        .get("worker")
        .and_then(Json::as_usize)
        .ok_or("label needs a \"worker\" id")?;
    let task = entry
        .get("task")
        .and_then(Json::as_usize)
        .ok_or("label needs a \"task\" id")?;
    let bits = entry
        .get("bits")
        .and_then(Json::as_str)
        .ok_or("label needs a \"bits\" string of 0s and 1s")?;
    if worker >= n_workers {
        return Err(format!("unknown worker {worker}"));
    }
    let task_id = TaskId::from_index(task);
    let Some(task_ref) = state.tasks.get(task_id) else {
        return Err(format!("unknown task {task}"));
    };
    if bits.len() != task_ref.n_labels() {
        return Err(format!(
            "task {task} has {} labels but \"bits\" carries {}",
            task_ref.n_labels(),
            bits.len()
        ));
    }
    let mut values = Vec::with_capacity(bits.len());
    for c in bits.chars() {
        match c {
            '0' => values.push(false),
            '1' => values.push(true),
            _ => return Err("\"bits\" must contain only 0 and 1".to_string()),
        }
    }
    Ok((
        WorkerId::from_index(worker),
        task_id,
        LabelBits::from_slice(&values),
    ))
}

/// `POST /labels` — body is one label object or an array of them:
/// `{"worker": 0, "task": 3, "bits": "101"}`. Answers are validated here
/// (ids in range, bit arity) and then enqueued **fire-and-forget** onto
/// their shards' ingestion queues; the pending-assignment reservation on
/// each shard guarantees a follow-up `/tasks/request` never re-issues a
/// pair whose answer is still queued. Nothing is enqueued unless the whole
/// batch validates. Answers `202 {"accepted": n}`.
///
/// With `?wait=1` each answer instead blocks until its shard has applied
/// it, answering `200 {"accepted": n}` — and surfacing shard-side
/// rejections that fire-and-forget mode only counts in metrics: a
/// duplicate `(worker, task)` pair answers `409`. This is the safe mode
/// for clients re-submitting after an `/admin/restore`, which deliberately
/// drops in-flight reservations — a pair whose answer already landed
/// before the snapshot gets a clean `409`, never a crash, while a pair
/// that was still queued (lost with the snapshotted process) is accepted.
fn labels(state: &ServerState, req: &Request, span: u64) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let entries: Vec<&Json> = match &body {
        Json::Arr(items) => items.iter().collect(),
        entry @ Json::Obj(_) => vec![entry],
        _ => return Response::error(400, "expected a label object or an array of them"),
    };
    if entries.is_empty() {
        return Response::error(400, "empty label batch");
    }
    let (handle, n_workers) = match with_campaign(state, req, |svc| (svc.handle(), svc.n_workers()))
    {
        Ok(pair) => pair,
        Err(r) => return r,
    };
    let mut parsed = Vec::with_capacity(entries.len());
    for entry in entries {
        match parse_label(state, n_workers, entry) {
            Ok(t) => parsed.push(t),
            Err(msg) => {
                let status = if msg.starts_with("unknown") { 404 } else { 400 };
                return Response::error(status, &msg);
            }
        }
    }
    let accepted = parsed.len();
    if req.query_has("wait", "1") {
        for (worker, task, bits) in parsed {
            if let Err(e) = handle.submit_wait(worker, task, bits) {
                return serve_error(&e);
            }
        }
        return Response::json(200, obj(vec![("accepted", num(accepted))]).render());
    }
    for (worker, task, bits) in parsed {
        // Shard-side validation failures (duplicates) surface in the shard
        // metrics, exactly like any other fire-and-forget ingestion.
        if let Err(e) = handle.submit_traced(worker, task, bits, span) {
            return serve_error(&e);
        }
    }
    Response::json(202, obj(vec![("accepted", num(accepted))]).render())
}

/// `GET /campaign/progress` — budget, answers and queue state.
fn progress(state: &ServerState, req: &Request) -> Response {
    let result = with_campaign(state, req, |svc| {
        let m = svc.metrics();
        obj(vec![
            ("campaign", num64(u64::from(svc.campaign_id()))),
            ("budget", num(svc.config().budget)),
            ("budget_used", num(svc.budget_used())),
            ("answers_total", num(svc.answers_total())),
            ("n_shards", num(svc.n_shards())),
            ("n_workers", num(svc.n_workers())),
            ("map_version", num64(m.map_version)),
            ("queue_depth", num(m.queue_depth)),
            ("enqueued", num64(m.enqueued)),
            ("processed", num64(m.processed)),
            ("uptime_secs", Json::Num(m.uptime.as_secs_f64())),
        ])
        .render()
    });
    match result {
        Ok(body) => Response::json(200, body),
        Err(r) => r,
    }
}

/// `GET /workers/:id/stats` — the worker's profile plus per-shard model
/// state: inherent quality `P(i_w)` and answers applied on each shard.
fn worker_stats(state: &ServerState, req: &Request, id: &str) -> Response {
    let Ok(idx) = id.parse::<usize>() else {
        return Response::error(400, "worker id must be an integer");
    };
    let w = WorkerId::from_index(idx);
    let result = with_campaign(state, req, |svc| {
        if idx >= svc.n_workers() {
            return Err(Response::error(404, &format!("unknown worker {idx}")));
        }
        let mut shards = Vec::with_capacity(svc.n_shards());
        let mut answers_total = 0usize;
        for s in 0..svc.n_shards() {
            let shard = svc.shard(s);
            let answers = shard.framework().log().n_answers_by(w);
            answers_total += answers;
            shards.push(obj(vec![
                ("shard", num(s)),
                (
                    "inherent",
                    Json::Num(shard.framework().params().inherent(w)),
                ),
                ("answers", num(answers)),
            ]));
        }
        // Name and locations come from the campaign's live pool (shard 0
        // carries the full roster including mid-campaign registrations).
        let shard0 = svc.shard(0);
        let worker = shard0
            .framework()
            .workers()
            .get(w)
            .expect("id validated against the live pool");
        Ok(obj(vec![
            ("worker", num(idx)),
            ("name", Json::Str(worker.name.clone())),
            (
                "locations",
                Json::Arr(
                    worker
                        .locations
                        .iter()
                        .map(|p| Json::Arr(vec![Json::Num(p.x), Json::Num(p.y)]))
                        .collect(),
                ),
            ),
            ("answers_total", num(answers_total)),
            ("shards", Json::Arr(shards)),
        ])
        .render())
    });
    match result {
        Ok(Ok(body)) => Response::json(200, body),
        Ok(Err(r)) | Err(r) => r,
    }
}

/// A histogram's summary as JSON (nanosecond percentiles, bucket upper
/// bounds — see `docs/OBSERVABILITY.md` for the bucket scheme).
fn summary_json(h: &Histogram) -> Json {
    let s = h.summary();
    obj(vec![
        ("count", num64(s.count)),
        ("p50_ns", num64(s.p50)),
        ("p90_ns", num64(s.p90)),
        ("p99_ns", num64(s.p99)),
        ("max_ns", num64(s.max)),
    ])
}

fn metrics_json(state: &ServerState, hub: &ObsHub, m: &ServiceMetrics) -> Json {
    let shards = m
        .shards
        .iter()
        .map(|s| {
            obj(vec![
                ("shard", num(s.shard)),
                ("submits", num64(s.submits)),
                ("requests", num64(s.requests)),
                ("assigned", num64(s.assigned)),
                ("em_rebuilds", num64(s.em_rebuilds)),
                ("rejected", num64(s.rejected)),
                ("budget_slice", num64(s.budget_slice)),
                ("budget_remaining", num64(s.budget_remaining)),
                ("gossip_rounds", num64(s.gossip_rounds)),
                ("gossip_folds", num64(s.gossip_folds)),
                ("gossip_lag", num64(s.gossip_lag)),
                ("events_len", num64(s.events_len)),
                ("queue_depth", num(s.queue_depth)),
                ("queue_hwm", num64(s.queue_hwm)),
                ("em_threads", num64(s.em_threads)),
                ("resident_answers", num64(s.resident_answers)),
                ("pruned_answers", num64(s.pruned_answers)),
            ])
        })
        .collect();
    obj(vec![
        ("shards", Json::Arr(shards)),
        ("queue_depth", num(m.queue_depth)),
        ("enqueued", num64(m.enqueued)),
        ("processed", num64(m.processed)),
        ("rerouted", num64(m.rerouted)),
        ("map_version", num64(m.map_version)),
        ("snapshot_bytes", num64(m.snapshot_bytes)),
        ("uptime_secs", Json::Num(m.uptime.as_secs_f64())),
        ("submits_per_sec", Json::Num(m.submits_per_sec())),
        (
            "latency",
            obj(vec![
                ("queue_wait", summary_json(&hub.queue_wait)),
                ("apply", summary_json(&hub.apply)),
                ("em_full", summary_json(&hub.em_full.total())),
                ("em_dirty", summary_json(&hub.em_dirty.total())),
                ("assign", summary_json(&hub.assign)),
                ("gossip_round", summary_json(&hub.gossip_round)),
                ("snapshot", summary_json(&hub.snapshot)),
                ("restore", summary_json(&hub.restore)),
            ]),
        ),
        (
            "http",
            obj(vec![
                (
                    "connections_total",
                    num64(state.stats.connections_total.load(Ordering::Relaxed)),
                ),
                (
                    "active_connections",
                    num64(state.stats.active_connections.load(Ordering::Relaxed)),
                ),
                (
                    "requests_total",
                    num64(state.stats.requests_total.load(Ordering::Relaxed)),
                ),
                (
                    "responses_2xx",
                    num64(state.stats.responses_2xx.load(Ordering::Relaxed)),
                ),
                (
                    "responses_4xx",
                    num64(state.stats.responses_4xx.load(Ordering::Relaxed)),
                ),
                (
                    "responses_5xx",
                    num64(state.stats.responses_5xx.load(Ordering::Relaxed)),
                ),
                (
                    "responses_408",
                    num64(state.stats.responses_408.load(Ordering::Relaxed)),
                ),
            ]),
        ),
    ])
}

/// The Prometheus text exposition: HTTP-layer counters and per-route
/// latency histograms, the service's latency histograms, and per-shard
/// counters/gauges. Metric registry in `docs/OBSERVABILITY.md`.
#[allow(clippy::too_many_lines)]
fn metrics_prometheus(state: &ServerState, hub: &ObsHub, m: &ServiceMetrics) -> String {
    let mut out = PromText::new();
    // HTTP layer (server-lifetime, survives /admin/restore).
    out.counter(
        "crowd_http_connections_total",
        "Connections accepted since startup",
        &[],
        state.stats.connections_total.load(Ordering::Relaxed),
    );
    out.gauge(
        "crowd_http_active_connections",
        "Connections currently open",
        &[],
        state.stats.active_connections.load(Ordering::Relaxed) as f64,
    );
    out.counter(
        "crowd_http_requests_total",
        "Requests parsed and dispatched",
        &[],
        state.stats.requests_total.load(Ordering::Relaxed),
    );
    for (class, counter) in [
        ("2xx", &state.stats.responses_2xx),
        ("4xx", &state.stats.responses_4xx),
        ("5xx", &state.stats.responses_5xx),
    ] {
        out.counter(
            "crowd_http_responses_total",
            "Responses by status class",
            &[("class", class)],
            counter.load(Ordering::Relaxed),
        );
    }
    out.counter(
        "crowd_http_responses_408_total",
        "Request-deadline expiries (also counted in class 4xx)",
        &[],
        state.stats.responses_408.load(Ordering::Relaxed),
    );
    for route in Route::ALL {
        out.histogram_ns(
            "crowd_http_request_seconds",
            "Handler wall-clock latency by route",
            &[("route", route.as_str())],
            &state.stats.route_latency[route.index()],
        );
    }
    // Service-side latency histograms (this service's lifetime).
    out.histogram_ns(
        "crowd_queue_wait_seconds",
        "Time commands waited in their shard's ingestion queue",
        &[],
        &hub.queue_wait,
    );
    out.histogram_ns(
        "crowd_apply_seconds",
        "Per-answer apply time under the shard write lock",
        &[],
        &hub.apply,
    );
    // One series per (sweep kind, E-step thread count each rebuild ran
    // with): 1 = sequential, 2 = side split. The split is bit-identical,
    // so the label partitions *durations*, never results. The sequential
    // series is always present; the split one appears with its first
    // sample.
    for (sweep, rebuilds) in [("full", &hub.em_full), ("dirty", &hub.em_dirty)] {
        for threads in 1..=EmParallelism::MAX_SWEEP_THREADS {
            let h = rebuilds.threads(threads);
            if threads == 1 || !h.is_empty() {
                out.histogram_ns(
                    "crowd_em_rebuild_seconds",
                    "EM rebuild duration by sweep kind and E-step threads",
                    &[("sweep", sweep), ("threads", &threads.to_string())],
                    h,
                );
            }
        }
    }
    // A rebuild's E-step cost is its iterations times the answers it
    // swept; rebuilds that hit the iteration cap stopped unconverged.
    for (sweep, rebuilds) in [("full", &hub.em_full), ("dirty", &hub.em_dirty)] {
        out.histogram(
            "crowd_em_rebuild_iterations",
            "EM iterations per rebuild by sweep kind",
            &[("sweep", sweep)],
            rebuilds.iterations(),
        );
    }
    for (sweep, rebuilds) in [("full", &hub.em_full), ("dirty", &hub.em_dirty)] {
        out.counter(
            "crowd_em_unconverged_total",
            "EM rebuilds that stopped at the iteration cap without converging",
            &[("sweep", sweep)],
            rebuilds.unconverged(),
        );
    }
    out.histogram_ns(
        "crowd_assign_seconds",
        "Assignment-round duration",
        &[],
        &hub.assign,
    );
    out.histogram_ns(
        "crowd_gossip_round_seconds",
        "Gossip publish + fold round duration",
        &[],
        &hub.gossip_round,
    );
    out.histogram_ns(
        "crowd_snapshot_seconds",
        "Snapshot capture duration (quiesce + render)",
        &[],
        &hub.snapshot,
    );
    out.histogram_ns(
        "crowd_restore_seconds",
        "Snapshot restore duration",
        &[],
        &hub.restore,
    );
    // Per-shard counters and gauges.
    for s in &m.shards {
        let shard = s.shard.to_string();
        let l: &[(&str, &str)] = &[("shard", &shard)];
        out.counter(
            "crowd_shard_submits_total",
            "Answers accepted",
            l,
            s.submits,
        );
        out.counter(
            "crowd_shard_requests_total",
            "Requests served",
            l,
            s.requests,
        );
        out.counter("crowd_shard_assigned_total", "Pairs issued", l, s.assigned);
        out.counter(
            "crowd_shard_em_rebuilds_total",
            "Delayed full-EM rebuilds",
            l,
            s.em_rebuilds,
        );
        out.counter(
            "crowd_shard_rejected_total",
            "Rejected commands",
            l,
            s.rejected,
        );
        out.counter(
            "crowd_shard_gossip_rounds_total",
            "Gossip rounds run",
            l,
            s.gossip_rounds,
        );
        out.counter(
            "crowd_shard_gossip_folds_total",
            "Peer deltas folded",
            l,
            s.gossip_folds,
        );
        out.gauge(
            "crowd_shard_budget_slice",
            "Budget slice assigned to this shard",
            l,
            s.budget_slice as f64,
        );
        out.gauge(
            "crowd_shard_budget_remaining",
            "Budget slice remaining",
            l,
            s.budget_remaining as f64,
        );
        out.gauge(
            "crowd_shard_queue_depth",
            "Ingestion-queue depth at scrape",
            l,
            s.queue_depth as f64,
        );
        out.gauge(
            "crowd_shard_queue_hwm",
            "Queue high-water mark since the window was last closed (reads never reset it)",
            l,
            s.queue_hwm as f64,
        );
        out.gauge(
            "crowd_shard_events_len",
            "Recorded out-of-stream events",
            l,
            s.events_len as f64,
        );
        out.gauge(
            "crowd_shard_gossip_lag",
            "Versions behind the freshest published peer delta",
            l,
            s.gossip_lag as f64,
        );
        out.gauge(
            "crowd_shard_em_threads",
            "Resolved E-step thread count for this shard's EM sweeps (1 = sequential)",
            l,
            s.em_threads as f64,
        );
        out.gauge(
            "crowd_shard_resident_answers",
            "Answers held in memory (the retained stream suffix)",
            l,
            s.resident_answers as f64,
        );
        out.gauge(
            "crowd_shard_pruned_answers",
            "Answers dropped from memory by retention pruning",
            l,
            s.pruned_answers as f64,
        );
    }
    // Service-level gauges, including the self-sampler's latest points.
    out.counter("crowd_enqueued_total", "Commands accepted", &[], m.enqueued);
    out.counter(
        "crowd_processed_total",
        "Commands fully applied",
        &[],
        m.processed,
    );
    out.gauge(
        "crowd_queue_depth",
        "Total ingestion-queue depth at scrape",
        &[],
        m.queue_depth as f64,
    );
    out.counter(
        "crowd_rerouted_total",
        "Commands re-resolved on drain after a shard-map move",
        &[],
        m.rerouted,
    );
    out.gauge(
        "crowd_map_version",
        "Current shard-map version (1 = startup partition)",
        &[],
        m.map_version as f64,
    );
    out.gauge(
        "crowd_snapshot_bytes",
        "Byte length of the last rendered snapshot",
        &[],
        m.snapshot_bytes as f64,
    );
    out.gauge(
        "crowd_uptime_seconds",
        "Service uptime",
        &[],
        m.uptime.as_secs_f64(),
    );
    out.counter(
        "crowd_trace_dropped_total",
        "Trace events dropped by the full ring",
        &[],
        hub.trace.dropped(),
    );
    if let Some((_, depth)) = hub.queue_depth_series.last() {
        out.gauge(
            "crowd_sampled_queue_depth",
            "Queue depth at the sampler's last tick",
            &[],
            depth as f64,
        );
    }
    if let Some((_, events)) = hub.events_len_series.last() {
        out.gauge(
            "crowd_sampled_events_len",
            "Event-log length at the sampler's last tick",
            &[],
            events as f64,
        );
    }
    out.render()
}

/// `GET /metrics` — the full [`ServiceMetrics`] snapshot plus HTTP-layer
/// counters and latency summaries as JSON, or the Prometheus text
/// exposition with `?format=prometheus`.
fn metrics(state: &ServerState, req: &Request) -> Response {
    let prometheus = req.query_has("format", "prometheus");
    let result = with_campaign(state, req, |svc| {
        let m = svc.metrics();
        if prometheus {
            (true, metrics_prometheus(state, svc.obs(), &m))
        } else {
            (false, metrics_json(state, svc.obs(), &m).render())
        }
    });
    match result {
        Ok((true, body)) => Response::text(200, "text/plain; version=0.0.4", body),
        Ok((false, body)) => Response::json(200, body),
        Err(r) => r,
    }
}

/// `GET /debug/trace` — drains the trace ring, returning every buffered
/// event in record order plus the ring's drop counter. Draining is
/// destructive by design: two concurrent readers split the stream.
fn debug_trace(state: &ServerState, req: &Request) -> Response {
    let result = with_campaign(state, req, |svc| {
        let trace = &svc.obs().trace;
        let events = trace
            .drain()
            .into_iter()
            .map(|e| {
                obj(vec![
                    ("span", num64(e.span)),
                    ("stage", Json::Str(e.stage.to_string())),
                    ("shard", e.shard.map_or(Json::Null, num)),
                    ("at_ns", num64(e.at_ns)),
                    ("seq", num64(e.seq)),
                ])
            })
            .collect();
        obj(vec![
            ("dropped", num64(trace.dropped())),
            ("events", Json::Arr(events)),
        ])
        .render()
    });
    match result {
        Ok(body) => Response::json(200, body),
        Err(r) => r,
    }
}

/// `POST /admin/snapshot` — renders the v4 snapshot document and returns
/// it as the response body. Quiesces the ingestion queues first, so
/// clients should pause traffic for a consistent capture (concurrent
/// submits merely delay the flush).
fn admin_snapshot(state: &ServerState, req: &Request) -> Response {
    match with_campaign(state, req, LabellingService::snapshot_json) {
        Ok(doc) => Response::json(200, doc),
        Err(r) => r,
    }
}

/// `POST /admin/prune` — runs an explicit retention prune: hardens every
/// shard behind a final full sweep and drops the checkpoint-covered
/// answer prefixes from memory (spilling them to disk when a spill
/// directory is configured). Answers `200 {"pruned": n, "resident": m}`
/// on success, `409` when the service runs under
/// [`RetentionPolicy::KeepAll`](crate::RetentionPolicy) — pruning is a
/// policy decision made at startup, not something an admin call can
/// spring on a campaign that promised to keep its history.
fn admin_prune(state: &ServerState, req: &Request) -> Response {
    let result = with_campaign(state, req, |svc| {
        svc.prune().map(|pruned| (pruned, svc.answers_resident()))
    });
    match result {
        Ok(Some((pruned, resident))) => Response::json(
            200,
            obj(vec![("pruned", num(pruned)), ("resident", num(resident))]).render(),
        ),
        Ok(None) => Response::error(409, "retention policy is keep_all; nothing to prune"),
        Err(r) => r,
    }
}

/// `POST /admin/restore` — body is a snapshot document previously
/// obtained from `/admin/snapshot`. Rebuilds a fresh service from it over
/// the server's task set and worker pool, swaps it in, and shuts the old
/// one down. In-flight requests against the old service answer 503; the
/// reservation set is deliberately *not* restored (the clients holding
/// those assignments died with the snapshotted process), so restored
/// campaigns re-issue in-flight pairs. A client that outlived the swap
/// and re-submits an answer the snapshot already contained races that
/// re-issue: the duplicate is rejected like any other (counted in shard
/// metrics in fire-and-forget mode, `409` under `POST /labels?wait=1`),
/// never a crash.
fn admin_restore(state: &ServerState, req: &Request) -> Response {
    if req.query_get("campaign").is_some() {
        return Response::error(
            400,
            "restore applies to the primary campaign; it cannot target a multiplexed one",
        );
    }
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "body is not valid UTF-8"),
    };
    let snapshot = match ServiceSnapshot::from_json(text) {
        Ok(s) => s,
        Err(e) => return Response::error(400, &format!("invalid snapshot: {e}")),
    };
    let restored = match LabellingService::restore(&state.tasks, &state.workers, &snapshot) {
        Ok(s) => s,
        Err(e) => return Response::error(400, &format!("restore failed: {e}")),
    };
    let n_shards = restored.n_shards();
    let answers = restored.answers_total();
    let old = {
        let mut cell = state.service.write();
        cell.replace(restored)
    };
    if let Some(old) = old {
        old.shutdown();
    }
    Response::json(
        200,
        obj(vec![
            ("restored", Json::Bool(true)),
            ("n_shards", num(n_shards)),
            ("answers_total", num(answers)),
        ])
        .render(),
    )
}

/// `POST /workers/register` — body `{"name": "…", "location": [x, y]}`.
/// Registers a worker mid-campaign on every shard of the selected
/// campaign (the recorded `register` event makes the grown pool part of
/// the replayable stream). Answers `200 {"worker": id, "n_workers": n}`.
fn workers_register(state: &ServerState, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let Some(name) = body.get("name").and_then(Json::as_str) else {
        return Response::error(400, "expected {\"name\": \"…\", \"location\": [x, y]}");
    };
    let location = body.get("location").and_then(Json::as_arr);
    let Some([x, y]) = location.and_then(|a| {
        let x = a.first().and_then(Json::as_f64)?;
        let y = a.get(1).and_then(Json::as_f64)?;
        (a.len() == 2).then_some([x, y])
    }) else {
        return Response::error(400, "\"location\" must be a [x, y] pair of numbers");
    };
    if !x.is_finite() || !y.is_finite() {
        return Response::error(400, "\"location\" coordinates must be finite");
    }
    let worker = Worker::at(name.to_string(), Point::new(x, y));
    let result = with_campaign(state, req, |svc| {
        svc.register_worker(worker).map(|id| (id, svc.n_workers()))
    });
    match result {
        Ok(Ok((id, n_workers))) => Response::json(
            200,
            obj(vec![
                ("worker", num(id.index())),
                ("n_workers", num(n_workers)),
            ])
            .render(),
        ),
        Ok(Err(e)) => serve_error(&e),
        Err(r) => r,
    }
}

/// The handoff report as a JSON body.
fn handoff_json(report: &HandoffReport) -> String {
    obj(vec![
        ("map_version", num64(report.map_version)),
        ("cell", num(report.cell)),
        ("from", num(report.from)),
        ("to", num(report.to)),
        ("moved_tasks", num(report.moved_tasks)),
        ("moved_answers", num(report.moved_answers)),
        ("budget_moved", num(report.budget_moved)),
    ])
    .render()
}

/// `POST /admin/split` and `POST /admin/merge` — run a two-phase cell
/// handoff on the selected campaign and answer the handoff report. With
/// an empty body `split` hands the hottest movable cell to the
/// least-loaded other shard and `merge` the coldest; a body
/// `{"cell": c, "to": s}` pins the move explicitly (either verb).
/// Refused handoffs (single shard, pruned history, …) answer `409`.
fn admin_reassign(state: &ServerState, req: &Request, hot: bool) -> Response {
    let explicit = if req.body.is_empty() {
        None
    } else {
        let body = match parse_body(req) {
            Ok(b) => b,
            Err(r) => return r,
        };
        let cell = body.get("cell").and_then(Json::as_usize);
        let to = body.get("to").and_then(Json::as_usize);
        match (cell, to) {
            (Some(cell), Some(to)) => Some((cell, to)),
            _ => return Response::error(400, "expected {\"cell\": c, \"to\": shard} or no body"),
        }
    };
    let result = with_campaign(state, req, |svc| match explicit {
        Some((cell, to)) => svc.reassign_cell(cell, to),
        None if hot => svc.split_hot(),
        None => svc.merge_cold(),
    });
    match result {
        Ok(Ok(report)) => Response::json(200, handoff_json(&report)),
        Ok(Err(e)) => serve_error(&e),
        Err(r) => r,
    }
}

/// `POST /admin/rebalance` — re-slices the selected campaign's unspent
/// budget across shards by observed spend rate. Answers the new slices.
fn admin_rebalance(state: &ServerState, req: &Request) -> Response {
    let result = with_campaign(state, req, |svc| {
        let slices = svc.rebalance_budget();
        obj(vec![
            (
                "slices",
                Json::Arr(slices.iter().map(|&s| num(s)).collect()),
            ),
            ("budget", num(svc.config().budget)),
        ])
        .render()
    });
    match result {
        Ok(body) => Response::json(200, body),
        Err(r) => r,
    }
}

/// One campaign's row in `GET /campaigns`.
fn campaign_json(svc: &LabellingService, primary: bool) -> Json {
    obj(vec![
        ("campaign", num64(u64::from(svc.campaign_id()))),
        ("primary", Json::Bool(primary)),
        ("budget", num(svc.config().budget)),
        ("budget_used", num(svc.budget_used())),
        ("answers_total", num(svc.answers_total())),
        ("n_shards", num(svc.n_shards())),
        ("n_workers", num(svc.n_workers())),
        ("map_version", num64(svc.map().version())),
    ])
}

/// `POST /campaigns` — attaches a new campaign to the primary service's
/// shard pool, multiplexing it over the same drain threads and task
/// space. The body may override `{"budget": n, "n_shards": k}`; every
/// other knob is inherited from the primary's config. Retention pruning
/// is disabled for multiplexed campaigns (their spill files would collide
/// with the primary's). Answers `201` with the new campaign's row.
fn campaigns_create(state: &ServerState, req: &Request) -> Response {
    let body = if req.body.is_empty() {
        Json::Obj(Vec::new())
    } else {
        match parse_body(req) {
            Ok(b) => b,
            Err(r) => return r,
        }
    };
    let pooled = with_service(state, |svc| (svc.pool(), svc.config().clone()));
    let (pool, mut config) = match pooled {
        Ok(p) => p,
        Err(r) => return r,
    };
    if let Some(budget) = body.get("budget").and_then(Json::as_usize) {
        config.budget = budget;
    }
    if let Some(n_shards) = body.get("n_shards").and_then(Json::as_usize) {
        if n_shards == 0 {
            return Response::error(400, "n_shards must be at least 1");
        }
        config.n_shards = n_shards;
    }
    config.retention = crate::service::RetentionPolicy::KeepAll;
    config.prune_every = None;
    if !pool.is_open() {
        return Response::error(503, "campaign pool is closed");
    }
    let campaign = pool.attach(&state.tasks, &state.workers, config);
    let row = campaign_json(&campaign, false);
    state.campaigns.write().push(campaign);
    Response::json(201, row.render())
}

/// `GET /campaigns` — lists every campaign sharing the pool: the primary
/// first, then the multiplexed ones in attach order.
fn campaigns_list(state: &ServerState) -> Response {
    let mut rows = Vec::new();
    if let Some(svc) = state.service.read().as_ref() {
        rows.push(campaign_json(svc, true));
    }
    for svc in state.campaigns.read().iter() {
        rows.push(campaign_json(svc, false));
    }
    Response::json(200, obj(vec![("campaigns", Json::Arr(rows))]).render())
}

/// `POST /campaigns/:id/close` — quiesces and shuts a multiplexed
/// campaign down, freeing its id for reuse. The primary campaign cannot
/// be closed this way (`409`) — it anchors the server's lifecycle and is
/// only replaced by `/admin/restore` or server shutdown.
fn campaigns_close(state: &ServerState, id: &str) -> Response {
    let Ok(id) = id.parse::<u32>() else {
        return Response::error(400, "campaign id must be a non-negative integer");
    };
    if let Some(svc) = state.service.read().as_ref() {
        if svc.campaign_id() == id {
            return Response::error(409, "the primary campaign cannot be closed");
        }
    }
    let found = {
        let mut campaigns = state.campaigns.write();
        campaigns
            .iter()
            .position(|c| c.campaign_id() == id)
            .map(|at| campaigns.remove(at))
    };
    match found {
        Some(campaign) => {
            campaign.shutdown();
            Response::json(200, obj(vec![("closed", num64(u64::from(id)))]).render())
        }
        None => Response::error(404, &format!("no campaign {id}")),
    }
}
