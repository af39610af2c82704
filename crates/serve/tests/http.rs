//! End-to-end tests of the HTTP/1.1 front-end over real sockets:
//! route round-trips, malformed-request rejection, concurrent keep-alive
//! clients driving full request → answer loops, and snapshot → restore
//! through the admin endpoints.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crowd_core::{synthetic_task, TaskSet, UpdatePolicy, Worker, WorkerPool};
use crowd_geo::Point;
use crowd_obs::validate_exposition;
use crowd_serve::{
    spill_path, HttpConfig, HttpServer, Json, LabellingService, RetentionPolicy, ServeConfig,
    SpillReader,
};

fn world(n_tasks: usize, n_workers: usize) -> (TaskSet, WorkerPool) {
    let side = (n_tasks as f64).sqrt().ceil() as usize;
    let tasks = TaskSet::new(
        (0..n_tasks)
            .map(|i| {
                synthetic_task(
                    format!("t{i}"),
                    Point::new((i % side) as f64, (i / side) as f64),
                    3,
                )
            })
            .collect(),
    );
    let workers = WorkerPool::from_workers(
        (0..n_workers)
            .map(|i| {
                Worker::at(
                    format!("w{i}"),
                    Point::new((i % side) as f64 + 0.25, (i / side) as f64 + 0.4),
                )
            })
            .collect(),
    )
    .unwrap();
    (tasks, workers)
}

fn start_server(n_tasks: usize, n_workers: usize, config: ServeConfig) -> HttpServer {
    let (tasks, workers) = world(n_tasks, n_workers);
    let service = LabellingService::start(&tasks, &workers, config);
    HttpServer::start(service, tasks, workers, HttpConfig::default()).unwrap()
}

/// A minimal blocking HTTP/1.1 client that keeps its connection alive
/// between requests.
struct Client {
    stream: TcpStream,
}

impl Client {
    fn connect(server: &HttpServer) -> Self {
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Self { stream }
    }

    /// Sends one request and reads the full response.
    fn send(&mut self, method: &str, path: &str, body: &str) -> (u16, Json) {
        let (status, text) = self.send_raw(&format!(
            "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ));
        let json = Json::parse(&text).unwrap_or_else(|e| panic!("bad JSON ({e}): {text}"));
        (status, json)
    }

    /// Writes raw bytes and parses the response head + framed body.
    fn send_raw(&mut self, raw: &str) -> (u16, String) {
        self.stream.write_all(raw.as_bytes()).unwrap();
        self.stream.flush().unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            let n = self.stream.read(&mut chunk).expect("response head");
            assert!(n > 0, "connection closed mid-head");
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8(buf[..head_end].to_vec()).unwrap();
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line: {head}"));
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().unwrap())
            })
            .expect("content-length header");
        while buf.len() < head_end + content_length {
            let n = self.stream.read(&mut chunk).expect("response body");
            assert!(n > 0, "connection closed mid-body");
            buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8(buf[head_end..head_end + content_length].to_vec()).unwrap();
        (status, body)
    }
}

fn as_usize(json: &Json, key: &str) -> usize {
    json.get(key)
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("missing numeric {key:?} in {}", json.render()))
}

#[test]
fn routes_round_trip_over_a_real_socket() {
    let server = start_server(
        16,
        4,
        ServeConfig {
            n_shards: 2,
            budget: 24,
            ..ServeConfig::default()
        },
    );
    let mut client = Client::connect(&server);

    let (status, health) = client.send("GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(health.get("ok"), Some(&Json::Bool(true)));

    // Request tasks for two workers, answer every issued pair, and watch
    // the progress counters converge — all over one keep-alive connection.
    let (status, assigned) = client.send("POST", "/tasks/request", r#"{"workers": [0, 1]}"#);
    assert_eq!(status, 200);
    let issued = as_usize(&assigned, "issued");
    assert!(issued > 0, "no tasks issued: {}", assigned.render());

    let mut labels = Vec::new();
    for entry in assigned.get("assignments").and_then(Json::as_arr).unwrap() {
        let w = as_usize(entry, "worker");
        for t in entry.get("tasks").and_then(Json::as_arr).unwrap() {
            let t = t.as_usize().unwrap();
            labels.push(format!(r#"{{"worker": {w}, "task": {t}, "bits": "101"}}"#));
        }
    }
    let (status, accepted) = client.send("POST", "/labels", &format!("[{}]", labels.join(",")));
    assert_eq!(status, 202);
    assert_eq!(as_usize(&accepted, "accepted"), issued);

    // Fire-and-forget answers may still be in flight; poll progress.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let (status, progress) = client.send("GET", "/campaign/progress", "");
        assert_eq!(status, 200);
        assert_eq!(as_usize(&progress, "budget"), 24);
        assert_eq!(as_usize(&progress, "budget_used"), issued);
        if as_usize(&progress, "answers_total") == issued {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "answers never drained: {}",
            progress.render()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let (status, stats) = client.send("GET", "/workers/0/stats", "");
    assert_eq!(status, 200);
    assert_eq!(stats.get("name"), Some(&Json::Str("w0".to_string())));
    assert!(stats.get("locations").and_then(Json::as_arr).is_some());
    assert!(as_usize(&stats, "answers_total") > 0);

    let (status, metrics) = client.send("GET", "/metrics", "");
    assert_eq!(status, 200);
    assert_eq!(
        metrics
            .get("shards")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(2)
    );
    let http = metrics.get("http").expect("http counter block");
    assert!(as_usize(http, "requests_total") > 0);
    assert_eq!(as_usize(http, "active_connections"), 1);

    let service = server.shutdown().unwrap();
    assert_eq!(service.answers_total(), issued);
    service.shutdown();
}

/// Requests tasks for `workers` and answers the *first* issued pair in
/// synchronous mode, returning that pair and the total issued.
fn issue_and_answer_first(client: &mut Client, workers: &str) -> ((usize, usize), usize) {
    let (status, assigned) = client.send(
        "POST",
        "/tasks/request",
        &format!(r#"{{"workers": {workers}}}"#),
    );
    assert_eq!(status, 200);
    let issued = as_usize(&assigned, "issued");
    assert!(issued > 0);
    let entry = &assigned.get("assignments").and_then(Json::as_arr).unwrap()[0];
    let w = as_usize(entry, "worker");
    let t = entry.get("tasks").and_then(Json::as_arr).unwrap()[0]
        .as_usize()
        .unwrap();
    let (status, accepted) = client.send(
        "POST",
        "/labels?wait=1",
        &format!(r#"{{"worker": {w}, "task": {t}, "bits": "101"}}"#),
    );
    assert_eq!(status, 200, "{}", accepted.render());
    assert_eq!(as_usize(&accepted, "accepted"), 1);
    ((w, t), issued)
}

#[test]
fn restore_drops_reservations_and_duplicate_resubmit_gets_409() {
    let server = start_server(
        16,
        4,
        ServeConfig {
            n_shards: 2,
            budget: 30,
            ..ServeConfig::default()
        },
    );
    let mut client = Client::connect(&server);
    let ((w, t), _issued) = issue_and_answer_first(&mut client, "[0, 1]");

    // Synchronous mode surfaces the duplicate as a 409, where
    // fire-and-forget would only bump the shard's rejection counter.
    let dup = format!(r#"{{"worker": {w}, "task": {t}, "bits": "101"}}"#);
    let (status, body) = client.send("POST", "/labels?wait=1", &dup);
    assert_eq!(status, 409, "{}", body.render());

    // Snapshot with one answer in and the other pairs still reserved,
    // then restore: the swap deliberately drops those reservations.
    let (status, snapshot) = client.send("POST", "/admin/snapshot", "");
    assert_eq!(status, 200);
    let (status, restored) = client.send("POST", "/admin/restore", &snapshot.render());
    assert_eq!(status, 200, "{}", restored.render());
    assert_eq!(as_usize(&restored, "answers_total"), 1);

    // A client that outlived the swap and re-submits the already-applied
    // answer races the re-issue below; it gets a clean 409, not a crash.
    let (status, body) = client.send("POST", "/labels?wait=1", &dup);
    assert_eq!(status, 409, "{}", body.render());

    // The dropped reservations make the unanswered pairs assignable again.
    let (status, again) = client.send("POST", "/tasks/request", r#"{"workers": [0, 1]}"#);
    assert_eq!(status, 200);
    assert!(
        as_usize(&again, "issued") > 0,
        "restore must free the in-flight pairs for re-issue: {}",
        again.render()
    );

    server.shutdown().unwrap().shutdown();
}

#[test]
fn admin_prune_rejects_keep_all() {
    let server = start_server(9, 3, ServeConfig::default());
    let mut client = Client::connect(&server);
    let (status, body) = client.send("POST", "/admin/prune", "");
    assert_eq!(status, 409, "{}", body.render());
    server.shutdown().unwrap().shutdown();
}

#[test]
fn admin_prune_bounds_memory_and_spills_to_disk() {
    let spill_dir = std::env::temp_dir().join(format!("crowd-spill-http-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spill_dir);
    let server = start_server(
        16,
        4,
        ServeConfig {
            n_shards: 2,
            budget: 30,
            retention: RetentionPolicy::PruneCheckpointed {
                spill_dir: Some(spill_dir.to_string_lossy().into_owned()),
            },
            ..ServeConfig::default()
        },
    );
    let mut client = Client::connect(&server);
    let ((w, t), _) = issue_and_answer_first(&mut client, "[0, 1, 2]");

    let (status, pruned) = client.send("POST", "/admin/prune", "");
    assert_eq!(status, 200, "{}", pruned.render());
    assert_eq!(as_usize(&pruned, "pruned"), 1);
    assert_eq!(as_usize(&pruned, "resident"), 0);

    // The stream-wide total is unchanged; only residency moved tiers.
    let (status, progress) = client.send("GET", "/campaign/progress", "");
    assert_eq!(status, 200);
    assert_eq!(as_usize(&progress, "answers_total"), 1);

    // Duplicate detection survives the prune: the dropped payload's
    // (worker, task) pair is still remembered.
    let (status, body) = client.send(
        "POST",
        "/labels?wait=1",
        &format!(r#"{{"worker": {w}, "task": {t}, "bits": "101"}}"#),
    );
    assert_eq!(status, 409, "{}", body.render());

    // The tier gauges expose the split, JSON and Prometheus alike.
    let (status, metrics) = client.send("GET", "/metrics", "");
    assert_eq!(status, 200);
    let shards = metrics.get("shards").and_then(Json::as_arr).unwrap();
    let sum = |key: &str| shards.iter().map(|s| as_usize(s, key)).sum::<usize>();
    assert_eq!(sum("pruned_answers"), 1);
    assert_eq!(sum("resident_answers"), 0);
    let (status, text) = client.send_raw(
        "GET /metrics?format=prometheus HTTP/1.1\r\nhost: test\r\ncontent-length: 0\r\n\r\n",
    );
    assert_eq!(status, 200);
    validate_exposition(&text).unwrap();
    assert!(text.contains("crowd_shard_pruned_answers"));
    assert!(text.contains("crowd_shard_resident_answers"));

    // The pruned payload landed in the owning shard's spill file.
    let spilled: usize = (0..2)
        .filter_map(|s| SpillReader::open(&spill_path(&spill_dir, s)).ok())
        .map(|r| r.map(Result::unwrap).count())
        .sum();
    assert_eq!(spilled, 1, "the pruned answer must be on disk");

    server.shutdown().unwrap().shutdown();
    let _ = std::fs::remove_dir_all(&spill_dir);
}

#[test]
fn malformed_requests_are_rejected_without_killing_the_server() {
    let server = start_server(9, 3, ServeConfig::default());

    // Protocol-level garbage: each case gets its status and a close.
    for (raw, want) in [
        ("NONSENSE\r\n\r\n", 400),
        ("GET / HTTP/2\r\n\r\n", 505),
        (
            "POST /labels HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
            501,
        ),
    ] {
        let mut c = Client::connect(&server);
        let (status, _) = c.send_raw(raw);
        assert_eq!(status, want, "{raw:?}");
    }

    // Application-level garbage: the keep-alive connection survives.
    let mut c = Client::connect(&server);
    for (method, path, body, want) in [
        ("GET", "/nope", "", 404),
        ("DELETE", "/labels", "", 405),
        ("POST", "/tasks/request", "not json", 400),
        ("POST", "/tasks/request", r#"{"workers": "zero"}"#, 400),
        ("POST", "/tasks/request", r#"{"workers": [99]}"#, 404),
        ("POST", "/labels", "[]", 400),
        ("POST", "/labels", r#"{"worker": 0, "task": 0}"#, 400),
        (
            "POST",
            "/labels",
            r#"{"worker": 0, "task": 0, "bits": "10"}"#,
            400,
        ),
        (
            "POST",
            "/labels",
            r#"{"worker": 0, "task": 777, "bits": "101"}"#,
            404,
        ),
        (
            "POST",
            "/labels",
            r#"{"worker": 0, "task": 0, "bits": "1x1"}"#,
            400,
        ),
        ("GET", "/workers/abc/stats", "", 400),
        ("GET", "/workers/99/stats", "", 404),
        ("POST", "/admin/restore", r#"{"version": 99}"#, 400),
    ] {
        let (status, body) = c.send(method, path, body);
        assert_eq!(status, want, "{method} {path} {body:?}");
        assert!(body.get("error").is_some(), "{method} {path}");
    }
    // A batch with one invalid entry is rejected atomically.
    let (status, _) = c.send(
        "POST",
        "/labels",
        r#"[{"worker": 0, "task": 0, "bits": "101"}, {"worker": 0, "task": 777, "bits": "101"}]"#,
    );
    assert_eq!(status, 404);

    // The server still answers normal traffic on the same connection, and
    // the rejected batch enqueued nothing.
    let (status, progress) = c.send("GET", "/campaign/progress", "");
    assert_eq!(status, 200);
    assert_eq!(as_usize(&progress, "answers_total"), 0);

    server.shutdown().unwrap().shutdown();
}

#[test]
fn concurrent_keep_alive_clients_drive_full_loops() {
    let server = start_server(
        36,
        8,
        ServeConfig {
            n_shards: 4,
            budget: 120,
            h: 2,
            ..ServeConfig::default()
        },
    );
    let n_clients = 8usize;
    std::thread::scope(|s| {
        for worker in 0..n_clients {
            let server = &server;
            s.spawn(move || {
                let mut client = Client::connect(server);
                let mut empties = 0u32;
                loop {
                    let (status, assigned) = client.send(
                        "POST",
                        "/tasks/request",
                        &format!(r#"{{"workers": [{worker}]}}"#),
                    );
                    if status == 409 {
                        break; // budget exhausted
                    }
                    assert_eq!(status, 200);
                    if as_usize(&assigned, "issued") == 0 {
                        // Remaining pairs may be reserved behind queued
                        // answers; back off briefly before giving up.
                        empties += 1;
                        if empties > 50 {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(2));
                        continue;
                    }
                    empties = 0;
                    let mut labels = Vec::new();
                    for entry in assigned.get("assignments").and_then(Json::as_arr).unwrap() {
                        let w = as_usize(entry, "worker");
                        for t in entry.get("tasks").and_then(Json::as_arr).unwrap() {
                            let t = t.as_usize().unwrap();
                            labels
                                .push(format!(r#"{{"worker": {w}, "task": {t}, "bits": "110"}}"#));
                        }
                    }
                    let (status, _) =
                        client.send("POST", "/labels", &format!("[{}]", labels.join(",")));
                    assert_eq!(status, 202);
                }
            });
        }
    });

    let service = server.shutdown().unwrap();
    service.quiesce();
    // Every issued pair was answered exactly once: fire-and-forget
    // duplicates would show up as shard-side rejections.
    assert_eq!(service.answers_total(), service.budget_used());
    assert!(service.budget_used() > 0);
    let metrics = service.metrics();
    assert_eq!(
        metrics.shards.iter().map(|m| m.rejected).sum::<u64>(),
        0,
        "a reserved pair was re-issued over HTTP"
    );
    service.shutdown();
}

/// A config that makes every applied answer trigger a delayed full EM
/// *and* a gossip round, so one `POST /labels` walks the entire span
/// taxonomy.
fn eager_config() -> ServeConfig {
    ServeConfig {
        n_shards: 2,
        budget: 24,
        policy: UpdatePolicy {
            full_em_every: Some(1),
            ..UpdatePolicy::default()
        },
        gossip_every: Some(1),
        ..ServeConfig::default()
    }
}

/// Polls `/campaign/progress` until `answers_total` reaches `want`.
fn await_answers(client: &mut Client, want: usize) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let (status, progress) = client.send("GET", "/campaign/progress", "");
        assert_eq!(status, 200);
        if as_usize(&progress, "answers_total") == want {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "answers never drained: {}",
            progress.render()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn one_labels_request_traces_end_to_end() {
    let server = start_server(16, 4, eager_config());
    let mut client = Client::connect(&server);

    // One assignment, one answer.
    let (status, assigned) = client.send("POST", "/tasks/request", r#"{"workers": [0]}"#);
    assert_eq!(status, 200);
    let entry = &assigned.get("assignments").and_then(Json::as_arr).unwrap()[0];
    let task = entry.get("tasks").and_then(Json::as_arr).unwrap()[0]
        .as_usize()
        .unwrap();
    let (status, _) = client.send(
        "POST",
        "/labels",
        &format!(r#"{{"worker": 0, "task": {task}, "bits": "101"}}"#),
    );
    assert_eq!(status, 202);
    await_answers(&mut client, 1);

    let (status, trace) = client.send("GET", "/debug/trace", "");
    assert_eq!(status, 200);
    let events = trace.get("events").and_then(Json::as_arr).unwrap();
    assert!(!events.is_empty());

    // The labels request is the one span whose command reached a shard's
    // apply path; everything it did shares that span id.
    let span_of = |e: &Json| as_usize(e, "span");
    let stage_of = |e: &Json| match e.get("stage") {
        Some(Json::Str(s)) => s.clone(),
        other => panic!("bad stage: {other:?}"),
    };
    let apply_spans: Vec<usize> = events
        .iter()
        .filter(|e| stage_of(e) == "apply")
        .map(span_of)
        .collect();
    assert_eq!(apply_spans.len(), 1, "exactly one answer was applied");
    let span = apply_spans[0];
    assert_ne!(span, 0, "the applied answer was traced");

    let mut mine: Vec<(usize, String)> = events
        .iter()
        .filter(|e| span_of(e) == span)
        .map(|e| (as_usize(e, "seq"), stage_of(e)))
        .collect();
    mine.sort_unstable();
    let stages: Vec<&str> = mine.iter().map(|(_, s)| s.as_str()).collect();
    assert_eq!(
        stages,
        [
            "http_parse",
            "route",
            "enqueue",
            "drain",
            "apply",
            "em",
            "gossip_fold"
        ],
        "span {span} did not walk the pipeline in order"
    );
    // Global sequence numbers prove the ordering even under ties in at_ns.
    assert!(mine.windows(2).all(|w| w[0].0 < w[1].0));

    // The shard-side stages all name the same shard; the HTTP-side ones
    // name none.
    for e in events.iter().filter(|e| span_of(e) == span) {
        let shard = e.get("shard");
        match stage_of(e).as_str() {
            "http_parse" | "route" => assert_eq!(shard, Some(&Json::Null)),
            _ => assert!(shard.and_then(Json::as_usize).is_some()),
        }
    }

    server.shutdown().unwrap().shutdown();
}

#[test]
fn prometheus_exposition_is_well_formed() {
    let server = start_server(16, 4, eager_config());
    let mut client = Client::connect(&server);

    // Drive enough traffic that EM, gossip and the per-route histograms
    // all have samples, plus one 404 for the error counters.
    let (status, assigned) = client.send("POST", "/tasks/request", r#"{"workers": [0, 1]}"#);
    assert_eq!(status, 200);
    let mut labels = Vec::new();
    for entry in assigned.get("assignments").and_then(Json::as_arr).unwrap() {
        let w = as_usize(entry, "worker");
        for t in entry.get("tasks").and_then(Json::as_arr).unwrap() {
            labels.push(format!(
                r#"{{"worker": {w}, "task": {}, "bits": "011"}}"#,
                t.as_usize().unwrap()
            ));
        }
    }
    let issued = labels.len();
    assert!(issued > 0);
    let (status, _) = client.send("POST", "/labels", &format!("[{}]", labels.join(",")));
    assert_eq!(status, 202);
    let (status, _) = client.send("GET", "/nope", "");
    assert_eq!(status, 404);
    await_answers(&mut client, issued);

    let (status, body) = client.send_raw(
        "GET /metrics?format=prometheus HTTP/1.1\r\nhost: test\r\ncontent-length: 0\r\n\r\n",
    );
    assert_eq!(status, 200);
    validate_exposition(&body).unwrap_or_else(|e| panic!("invalid exposition ({e}):\n{body}"));

    // The acceptance-critical families are present with real samples.
    for needle in [
        "crowd_http_request_seconds_bucket{route=\"labels\",",
        "crowd_http_request_seconds_count{route=\"tasks_request\"}",
        "crowd_http_responses_total{class=\"4xx\"} 1",
        "crowd_http_responses_408_total 0",
        "crowd_queue_wait_seconds_count",
        "crowd_apply_seconds_bucket",
        "crowd_em_rebuild_seconds_count{sweep=\"full\",threads=\"1\"}",
        "crowd_em_rebuild_seconds_count{sweep=\"dirty\",threads=\"1\"}",
        "crowd_em_rebuild_iterations_count{sweep=\"full\"}",
        "crowd_em_rebuild_iterations_count{sweep=\"dirty\"}",
        "crowd_em_unconverged_total{sweep=\"full\"}",
        "crowd_em_unconverged_total{sweep=\"dirty\"}",
        "crowd_shard_em_threads{shard=\"0\"}",
        "crowd_gossip_round_seconds_count",
        "crowd_shard_queue_hwm{shard=\"0\"}",
        "crowd_enqueued_total",
    ] {
        assert!(body.contains(needle), "missing {needle:?} in:\n{body}");
    }
    // EM and gossip actually fired under the eager config.
    let count_of = |family: &str| -> f64 {
        body.lines()
            .find(|l| l.starts_with(family))
            .and_then(|l| l.rsplit_once(' '))
            .map(|(_, v)| v.parse().unwrap())
            .unwrap_or_else(|| panic!("no sample for {family}"))
    };
    assert!(count_of("crowd_em_rebuild_seconds_count{sweep=\"full\",threads=\"1\"}") >= 1.0);
    // Every timed rebuild also records its iteration count.
    let full_rebuilds: f64 = (1..=2)
        .filter_map(|threads| {
            let family =
                format!("crowd_em_rebuild_seconds_count{{sweep=\"full\",threads=\"{threads}\"}}");
            body.contains(&family).then(|| count_of(&family))
        })
        .sum();
    assert_eq!(
        count_of("crowd_em_rebuild_iterations_count{sweep=\"full\"}"),
        full_rebuilds
    );
    assert!(count_of("crowd_gossip_round_seconds_count") >= 1.0);
    assert!(count_of("crowd_queue_wait_seconds_count") >= issued as f64);

    server.shutdown().unwrap().shutdown();
}

#[test]
fn admin_snapshot_restore_round_trips_over_http() {
    let server = start_server(
        16,
        4,
        ServeConfig {
            n_shards: 2,
            budget: 30,
            ..ServeConfig::default()
        },
    );
    let mut client = Client::connect(&server);

    // Drive some traffic so the snapshot has real state.
    let (status, assigned) = client.send("POST", "/tasks/request", r#"{"workers": [0, 1, 2]}"#);
    assert_eq!(status, 200);
    let issued = as_usize(&assigned, "issued");
    assert!(issued > 0);
    let mut labels = Vec::new();
    for entry in assigned.get("assignments").and_then(Json::as_arr).unwrap() {
        let w = as_usize(entry, "worker");
        for t in entry.get("tasks").and_then(Json::as_arr).unwrap() {
            labels.push(format!(
                r#"{{"worker": {w}, "task": {}, "bits": "011"}}"#,
                t.as_usize().unwrap()
            ));
        }
    }
    let (status, _) = client.send("POST", "/labels", &format!("[{}]", labels.join(",")));
    assert_eq!(status, 202);

    // Snapshot (quiesces the queues first, so the answers above are in).
    let (status, snapshot) = client.send("POST", "/admin/snapshot", "");
    assert_eq!(status, 200);
    assert!(as_usize(&snapshot, "version") >= 3);
    let document = snapshot.render();

    // Restore swaps in a fresh service rebuilt from the document.
    let (status, restored) = client.send("POST", "/admin/restore", &document);
    assert_eq!(status, 200, "{}", restored.render());
    assert_eq!(restored.get("restored"), Some(&Json::Bool(true)));
    assert_eq!(as_usize(&restored, "answers_total"), issued);

    // The swapped-in service answers traffic with the restored state.
    let (status, progress) = client.send("GET", "/campaign/progress", "");
    assert_eq!(status, 200);
    assert_eq!(as_usize(&progress, "answers_total"), issued);
    assert_eq!(as_usize(&progress, "budget_used"), issued);

    let service = server.shutdown().unwrap();
    assert_eq!(service.answers_total(), issued);
    service.shutdown();
}
