//! `campaign`: the paper's Deployment 2 over real sockets, open loop.
//!
//! Each session is one worker: `POST /tasks/request`, a seeded think time,
//! then `POST /labels` with the simulated answers. Sessions fall due on a
//! seeded Poisson schedule at a fixed offered rate and keep arriving until
//! the campaign budget is spent (the 409 that ends the campaign is not a
//! failure). Two generator threads, each with one keep-alive connection,
//! serve the due events in order; latency is timed from the due time, so
//! a stall delays every later event and is charged to it.
//!
//! The traced run records spans for every other session of the HTTP pass
//! (so traced and untraced sessions share the same conditions and their
//! difference is `trace.overhead`), then adds two passes over the same
//! schedule: in process through `ServiceHandle` (the service layer without
//! HTTP) and a single-threaded replay on `Shard`s (assignment, model and
//! gossip without queues or threads).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crowd_core::{CoreError, Distances, LabelBits, TaskId, WorkerId};
use crowd_serve::{
    HttpConfig, HttpServer, Json, LabellingService, ServeConfig, ServeError, ServiceHandle, Shard,
    ShardMap,
};
use crowd_sim::{CampaignConfig, SimPlatform};

use crate::client::HttpClient;
use crate::report::Outcome;
use crate::stats::{ms, Samples};
use crate::trace::Tracer;
use crate::world::{self, Rng};
use crate::ModelTiming;

/// Simulated workers in the population.
pub const WORKERS: usize = 2000;
/// Geographic shards of the server.
pub const SHARDS: usize = 4;
/// Tasks per HIT.
pub const H: usize = 2;
/// Answers a shard applies between gossip rounds.
pub const GOSSIP_EVERY: usize = 128;
/// Offered load, sessions per second.
pub const RATE: f64 = 100.0;
/// Think time between a HIT and its answers, uniform in this range (ms).
pub const THINK_MS: (u64, u64) = (2, 10);
/// Generator threads, one keep-alive connection each.
pub const GENERATORS: usize = 2;
/// Request latency the offered rate must meet at p99 (ms).
pub const LATENCY_LIMIT_MS: f64 = 250.0;
/// Service setups timed per run (the last one serves the campaign).
pub const SETUPS: usize = 9;
/// Most accuracy the served campaign may lose against the single-threaded
/// reference. Ending above the reference is no fault: the 4-shard service
/// reads above the single-threaded framework on most seeds, on some by as
/// much as this.
pub const ACCURACY_GATE: f64 = 0.02;

/// The campaign budget for a run of `seconds`: one HIT of `H` tasks per
/// offered session.
#[must_use]
pub fn budget(seconds: u64) -> usize {
    (RATE * seconds as f64) as usize * H
}

/// The server configuration: 4 shards, h = 2, gossip every 128, all else
/// `ServeConfig` defaults.
#[must_use]
pub fn serve_config(budget: usize) -> ServeConfig {
    ServeConfig {
        n_shards: SHARDS,
        budget,
        h: H,
        gossip_every: Some(GOSSIP_EVERY),
        ..ServeConfig::default()
    }
}

/// One worker session of the schedule.
#[derive(Debug, Clone, Copy)]
pub struct Session {
    pub worker: WorkerId,
    /// Due time, from the start of the schedule.
    pub due: Duration,
    pub think: Duration,
}

/// The seeded schedule: Poisson arrivals at [`RATE`], uniformly drawn
/// workers, uniform think times. It runs half as long again as the budget
/// needs, so the campaign always ends by spending its budget.
#[must_use]
pub fn schedule(seed: u64, seconds: u64) -> Vec<Session> {
    let mut rng = Rng::new(seed ^ 0xca3f);
    let n = (RATE * seconds as f64 * 1.5) as usize + 16;
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -rng.unit().ln() / RATE;
            let span_us = (THINK_MS.1 - THINK_MS.0) * 1000;
            Session {
                worker: WorkerId::from_index(rng.below(WORKERS)),
                due: Duration::from_secs_f64(t),
                think: Duration::from_micros(
                    THINK_MS.0 * 1000 + rng.below(span_us as usize) as u64,
                ),
            }
        })
        .collect()
}

/// Generated inputs for one seed.
pub struct Inputs {
    pub seed: u64,
    pub platform: SimPlatform,
    pub distances: Distances,
    pub sessions: Vec<Session>,
    pub budget: usize,
}

impl Inputs {
    #[must_use]
    pub fn new(seed: u64, seconds: u64) -> Self {
        let platform = world::platform(WORKERS);
        let distances = Distances::from_tasks(&platform.dataset.tasks);
        Self {
            seed,
            platform,
            distances,
            sessions: schedule(seed, seconds),
            budget: budget(seconds),
        }
    }

    fn answer(&self, w: WorkerId, t: TaskId) -> LabelBits {
        world::simulate_answer(&self.platform, &self.distances, self.seed, w, t)
    }

    fn start_service(&self) -> LabellingService {
        LabellingService::start(
            &self.platform.dataset.tasks,
            &self.platform.population.pool,
            serve_config(self.budget),
        )
    }
}

/// Independent single-threaded campaigns averaged into the reference.
pub const REFERENCE_RUNS: u64 = 3;

/// Accuracy of the single-threaded `SimPlatform` campaign at the same
/// budget (ACCOPT, h = 2, one uniformly drawn worker per round), averaged
/// over [`REFERENCE_RUNS`] arrival sequences drawn from the seed: one
/// sequence alone varies by about as much as the 0.02 gate at this budget.
#[must_use]
pub fn reference_accuracy(inputs: &Inputs) -> f64 {
    let mut rng = Rng::new(inputs.seed ^ 0x4ef0);
    let total: f64 = (0..REFERENCE_RUNS)
        .map(|_| {
            let mut assigner = crowd_core::AccOptAssigner::new();
            inputs
                .platform
                .run_campaign(
                    &mut assigner,
                    &CampaignConfig {
                        budget: inputs.budget,
                        h: H,
                        batch_size: 1,
                        careless_arrival_boost: 1.0,
                        seed: rng.next_u64(),
                        ..CampaignConfig::default()
                    },
                )
                .final_accuracy
        })
        .sum();
    total / REFERENCE_RUNS as f64
}

/// What a request step returned.
enum Step {
    Tasks(Vec<TaskId>),
    Exhausted,
}

/// Where the generator sends a session's two calls.
trait Endpoint {
    fn request(&mut self, w: WorkerId) -> Result<Step, String>;
    fn labels(&mut self, w: WorkerId, answers: &[(TaskId, LabelBits)]) -> Result<(), String>;
}

struct HttpEndpoint(HttpClient);

impl Endpoint for HttpEndpoint {
    fn request(&mut self, w: WorkerId) -> Result<Step, String> {
        let body = format!(r#"{{"workers": [{}]}}"#, w.index());
        let reply = self
            .0
            .send("POST", "/tasks/request", &body)
            .map_err(|e| e.to_string())?;
        match reply.status {
            200 => {
                let json = Json::parse(&reply.body).map_err(|e| e.to_string())?;
                let mut tasks = Vec::new();
                for entry in json
                    .get("assignments")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                {
                    for t in entry.get("tasks").and_then(Json::as_arr).unwrap_or(&[]) {
                        let t = t.as_usize().ok_or("non-integer task id")?;
                        tasks.push(TaskId::from_index(t));
                    }
                }
                Ok(Step::Tasks(tasks))
            }
            409 => Ok(Step::Exhausted),
            s => Err(format!("/tasks/request answered {s}: {}", reply.body)),
        }
    }

    fn labels(&mut self, w: WorkerId, answers: &[(TaskId, LabelBits)]) -> Result<(), String> {
        let entries: Vec<String> = answers
            .iter()
            .map(|(t, bits)| {
                let bits: String = bits.iter().map(|b| if b { '1' } else { '0' }).collect();
                format!(
                    r#"{{"worker": {}, "task": {}, "bits": "{bits}"}}"#,
                    w.index(),
                    t.index()
                )
            })
            .collect();
        let reply = self
            .0
            .send("POST", "/labels", &format!("[{}]", entries.join(",")))
            .map_err(|e| e.to_string())?;
        match reply.status {
            202 => Ok(()),
            s => Err(format!("/labels answered {s}: {}", reply.body)),
        }
    }
}

/// The service layer without HTTP: the same calls the routes make.
struct InProcess {
    handle: ServiceHandle,
    submit: Samples,
    queue_depth_max: usize,
}

impl Endpoint for InProcess {
    fn request(&mut self, w: WorkerId) -> Result<Step, String> {
        self.queue_depth_max = self.queue_depth_max.max(self.handle.queue_depth());
        match self.handle.request_tasks(&[w]) {
            Ok(a) => Ok(Step::Tasks(a.pairs().map(|(_, t)| t).collect())),
            Err(ServeError::Core(CoreError::BudgetExhausted)) => Ok(Step::Exhausted),
            Err(e) => Err(e.to_string()),
        }
    }

    fn labels(&mut self, w: WorkerId, answers: &[(TaskId, LabelBits)]) -> Result<(), String> {
        self.queue_depth_max = self.queue_depth_max.max(self.handle.queue_depth());
        for &(t, bits) in answers {
            let started = Instant::now();
            self.handle.submit(w, t, bits).map_err(|e| e.to_string())?;
            self.submit.push(started.elapsed());
        }
        Ok(())
    }
}

/// What one generator pass observed.
#[derive(Default)]
pub struct GenStats {
    /// `/tasks/request` latency from the due time.
    pub request_wait: Samples,
    /// The same, split by whether the session's spans were recorded.
    pub traced_wait: Samples,
    pub untraced_wait: Samples,
    /// `/tasks/request` round trip from the send.
    pub request_rtt: Samples,
    pub labels_wait: Samples,
    pub labels_rtt: Samples,
    /// How late each event was sent against its due time.
    pub late: Samples,
    /// Sessions completed (HIT answered, or answered empty).
    pub sessions: u64,
    pub empty: u64,
    /// Requests sent, including the ones answered 409.
    pub requests: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// When the last call completed.
    pub last_end: Option<Instant>,
    /// Seconds from the first due time to the last completed call.
    pub window_s: f64,
    /// (seconds from the first due time, request wait in ms), in
    /// completion order.
    pub timeline: Vec<(f64, f64)>,
}

impl GenStats {
    fn merge(&mut self, o: GenStats) {
        self.request_wait.extend(o.request_wait);
        self.traced_wait.extend(o.traced_wait);
        self.untraced_wait.extend(o.untraced_wait);
        self.request_rtt.extend(o.request_rtt);
        self.labels_wait.extend(o.labels_wait);
        self.labels_rtt.extend(o.labels_rtt);
        self.late.extend(o.late);
        self.sessions += o.sessions;
        self.empty += o.empty;
        self.requests += o.requests;
        self.failed += o.failed;
        self.errors.extend(o.errors);
        self.last_end = self.last_end.max(o.last_end);
    }
}

/// Sleeps until `due`. Returns the instant latency is timed from: the due
/// time when the generator was still busy with earlier events (a stall the
/// system caused), the wake-up otherwise (timer slack is the generator's).
fn wait_until(due: Instant, late: &mut Samples) -> Instant {
    let now = Instant::now();
    if now < due {
        std::thread::sleep(due - now);
        let woke = Instant::now();
        late.push(woke - due);
        woke
    } else {
        late.push(now - due);
        due
    }
}

/// One generator thread's result: its stats, its endpoint, its spans and
/// its (completion, request wait in ms) timeline.
type Generated<E> = (GenStats, E, Tracer, Vec<(Instant, f64)>);

/// Runs the schedule against `GENERATORS` endpoints, one thread each;
/// thread `g` serves sessions `g, g + GENERATORS, …`. Spans are recorded
/// for every `trace_every`-th session (0: none), named by `spans` (the
/// request call, the labels call).
fn drive<E: Endpoint + Send>(
    inputs: &Inputs,
    endpoints: Vec<E>,
    trace_every: usize,
    spans: [&'static str; 2],
) -> (GenStats, Vec<E>, Tracer) {
    let traced = trace_every > 0;
    let done = AtomicBool::new(false);
    let t0 = Instant::now() + Duration::from_millis(5);
    let results: Vec<Generated<E>> = std::thread::scope(|scope| {
        let threads: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(g, mut ep)| {
                let done = &done;
                scope.spawn(move || {
                    let mut tracer = Tracer::new(traced, t0);
                    let mut st = GenStats::default();
                    let mut timeline = Vec::new();
                    let mine: Vec<usize> = (g..inputs.sessions.len()).step_by(GENERATORS).collect();
                    let mut next = 0;
                    // Pending labels: (due, session index) with the HIT.
                    let mut pending: BinaryHeap<Reverse<(Instant, usize)>> = BinaryHeap::new();
                    let mut hits: Vec<Option<(Instant, u64, Vec<TaskId>)>> =
                        vec![None; inputs.sessions.len()];
                    loop {
                        let next_req = (!done.load(Ordering::Acquire) && next < mine.len())
                            .then(|| (t0 + inputs.sessions[mine[next]].due, mine[next]));
                        let next_lab = pending.peek().map(|r| r.0);
                        let take_request = match (next_req, next_lab) {
                            (None, None) => break,
                            (Some(r), Some(l)) => r.0 <= l.0,
                            (Some(_), None) => true,
                            (None, Some(_)) => false,
                        };
                        if take_request {
                            let (due, s) = next_req.expect("chosen");
                            next += 1;
                            let session = inputs.sessions[s];
                            let on = traced && s % trace_every == 0;
                            let from = wait_until(due, &mut st.late);
                            let sent = Instant::now();
                            let step = ep.request(session.worker);
                            let end = Instant::now();
                            st.last_end = Some(end);
                            st.requests += 1;
                            match step {
                                Ok(Step::Tasks(tasks)) => {
                                    st.request_wait.push(end - from);
                                    st.request_rtt.push(end - sent);
                                    timeline.push((end, ms(end - from)));
                                    let mut root = 0;
                                    if on {
                                        st.traced_wait.push(end - from);
                                        root = tracer.next_id();
                                        tracer.record(spans[0], s as u64 + 1, root, sent, end);
                                    } else {
                                        st.untraced_wait.push(end - from);
                                    }
                                    if tasks.is_empty() {
                                        st.empty += 1;
                                        st.sessions += 1;
                                        if on {
                                            tracer.record_as(
                                                root,
                                                "session",
                                                s as u64 + 1,
                                                0,
                                                from,
                                                end,
                                            );
                                        }
                                    } else {
                                        let due = end + session.think;
                                        hits[s] = Some((from, root, tasks));
                                        pending.push(Reverse((due, s)));
                                    }
                                }
                                // The 409 that ends the campaign.
                                Ok(Step::Exhausted) => done.store(true, Ordering::Release),
                                Err(e) => {
                                    st.failed += 1;
                                    st.errors.push(e);
                                }
                            }
                        } else {
                            let Reverse((due, s)) = pending.pop().expect("peeked");
                            let (began, root, tasks) = hits[s].take().expect("pending HIT");
                            let on = traced && s % trace_every == 0;
                            let worker = inputs.sessions[s].worker;
                            let answers: Vec<(TaskId, LabelBits)> = tasks
                                .iter()
                                .map(|&t| (t, inputs.answer(worker, t)))
                                .collect();
                            let from = wait_until(due, &mut st.late);
                            let sent = Instant::now();
                            let result = ep.labels(worker, &answers);
                            let end = Instant::now();
                            st.last_end = Some(end);
                            match result {
                                Ok(()) => {
                                    st.labels_wait.push(end - from);
                                    st.labels_rtt.push(end - sent);
                                    st.sessions += 1;
                                    if on {
                                        tracer.record(spans[1], s as u64 + 1, root, sent, end);
                                        tracer.record_as(
                                            root,
                                            "session",
                                            s as u64 + 1,
                                            0,
                                            began,
                                            end,
                                        );
                                    }
                                }
                                Err(e) => {
                                    st.failed += 1;
                                    st.errors.push(e);
                                }
                            }
                        }
                    }
                    (st, ep, tracer, timeline)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("generator thread"))
            .collect()
    });
    let mut stats = GenStats::default();
    let mut endpoints = Vec::new();
    let mut tracer = Tracer::new(traced, t0);
    let mut timeline = Vec::new();
    for (st, ep, tr, tl) in results {
        stats.merge(st);
        endpoints.push(ep);
        tracer.absorb(tr);
        timeline.extend(tl);
    }
    let first_due = t0 + inputs.sessions[0].due;
    let since = |t: Instant| t.saturating_duration_since(first_due).as_secs_f64();
    stats.window_s = stats.last_end.map_or(0.0, since);
    timeline.sort_by_key(|&(t, _)| t);
    stats.timeline = timeline.into_iter().map(|(t, v)| (since(t), v)).collect();
    (stats, endpoints, tracer)
}

/// One HTTP pass over the schedule: the service behind the HTTP front-end,
/// two keep-alive connections.
struct HttpPass {
    stats: GenStats,
    bytes: u64,
    setup: Vec<f64>,
    service: LabellingService,
    tracer: Tracer,
    cross_check: Option<Json>,
}

fn start_server(inputs: &Inputs) -> (HttpServer, Vec<HttpEndpoint>) {
    let server = HttpServer::start(
        inputs.start_service(),
        inputs.platform.dataset.tasks.clone(),
        inputs.platform.population.pool.clone(),
        HttpConfig {
            addr: "127.0.0.1:0".to_owned(),
            ..HttpConfig::default()
        },
    )
    .expect("bind a loopback port");
    let endpoints = (0..GENERATORS)
        .map(|_| HttpEndpoint(HttpClient::connect(server.addr()).expect("connect to the server")))
        .collect();
    (server, endpoints)
}

fn http_pass(inputs: &Inputs, trace_every: usize, setups: usize) -> HttpPass {
    // Set up several times and report the median; the last setup serves.
    let mut setup = Vec::new();
    let mut live = None;
    for i in 0..setups.max(1) {
        let started = Instant::now();
        let (server, endpoints) = start_server(inputs);
        setup.push(started.elapsed().as_secs_f64());
        if i + 1 == setups.max(1) {
            live = Some((server, endpoints));
        } else {
            drop(endpoints);
            if let Some(service) = server.shutdown() {
                service.shutdown();
            }
        }
    }
    let (server, endpoints) = live.expect("at least one setup");
    let (stats, endpoints, tracer) = drive(
        inputs,
        endpoints,
        trace_every,
        ["http.tasks_request", "http.labels"],
    );
    let bytes = endpoints.iter().map(|e| e.0.sent + e.0.received).sum();
    let cross_check = (trace_every > 0).then(|| scrape(server.addr(), &stats));
    drop(endpoints);
    let service = server.shutdown().expect("service still installed");
    HttpPass {
        stats,
        bytes,
        setup,
        service,
        tracer,
        cross_check,
    }
}

/// The server's own latency breakdown (`GET /metrics` latency block and
/// the per-route handler histograms), beside the client's round trips and
/// the unattributed residual: client round trip minus server route time.
fn scrape(addr: std::net::SocketAddr, stats: &GenStats) -> Json {
    let mut client = HttpClient::connect(addr).expect("connect the scraper");
    let latency = client
        .send("GET", "/metrics", "")
        .ok()
        .and_then(|r| Json::parse(&r.body).ok())
        .and_then(|j| j.get("latency").cloned())
        .unwrap_or(Json::Null);
    let prom = client
        .send("GET", "/metrics?format=prometheus", "")
        .map(|r| r.body)
        .unwrap_or_default();
    let route_mean_ms = |route: &str| {
        let find = |suffix: &str| {
            let key = format!("crowd_http_request_seconds_{suffix}{{route=\"{route}\"}} ");
            prom.lines()
                .find_map(|l| l.strip_prefix(&key))
                .and_then(|v| v.trim().parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        let count = find("count");
        if count > 0.0 {
            find("sum") / count * 1e3
        } else {
            0.0
        }
    };
    let mut routes = Vec::new();
    for (route, client_rtt) in [
        ("tasks_request", &stats.request_rtt),
        ("labels", &stats.labels_rtt),
    ] {
        let server_ms = route_mean_ms(route);
        let client_ms = client_rtt.mean();
        routes.push((
            route.to_owned(),
            Json::Obj(vec![
                ("client_mean_ms".to_owned(), Json::Num(client_ms)),
                ("server_route_mean_ms".to_owned(), Json::Num(server_ms)),
                ("residual_ms".to_owned(), Json::Num(client_ms - server_ms)),
            ]),
        ));
    }
    Json::Obj(vec![
        ("latency".to_owned(), latency),
        ("routes".to_owned(), Json::Obj(routes)),
    ])
}

/// Timing and counts of the single-threaded shard replay.
#[derive(Default)]
pub struct Replay {
    pub assign: Samples,
    pub pairs: Vec<usize>,
    pub model: ModelTiming,
    pub gossip: Samples,
    pub folds: u64,
}

/// Replays the session sequence on `Shard`s built exactly as the service
/// builds them, in one thread: a HIT is answered right away, requests
/// roam from the home shard to the fullest budget slices, and every
/// `GOSSIP_EVERY` answers a shard publishes and folds its peers.
#[must_use]
pub fn replay(inputs: &Inputs) -> Replay {
    let tasks = &inputs.platform.dataset.tasks;
    let pool = &inputs.platform.population.pool;
    let config = serve_config(inputs.budget);
    let map = ShardMap::build(tasks, SHARDS);
    let slices = map.budget_slices(inputs.budget);
    let mut shards: Vec<Shard> = (0..map.n_shards())
        .map(|s| {
            Shard::new(
                s,
                tasks,
                map.tasks_of(s),
                pool.clone(),
                config.framework_config(slices[s]),
                inputs.distances,
            )
        })
        .collect();
    let home: Vec<usize> = pool
        .iter()
        .map(|w| map.shard_for_point(w.locations[0]))
        .collect();
    let mut exchange: Vec<Option<crowd_core::WorkerStatDelta>> = vec![None; shards.len()];
    let mut out = Replay::default();
    'sessions: for session in &inputs.sessions {
        let w = session.worker;
        let mut order: Vec<usize> = (0..shards.len()).collect();
        order.sort_by_key(|&s| (Reverse(shards[s].framework().budget_remaining()), s));
        let h = home[w.index()];
        order.retain(|&s| s != h);
        order.insert(0, h);
        let mut assigned = None;
        let mut saw_budget = false;
        for s in order {
            if shards[s].framework().budget_remaining() == 0 {
                continue;
            }
            let started = Instant::now();
            let result = shards[s].request(&[w]);
            out.assign.push(started.elapsed());
            match result {
                Ok(a) => {
                    out.pairs.push(a.total());
                    if a.is_empty() {
                        saw_budget = true;
                    } else {
                        assigned = Some((s, a));
                        break;
                    }
                }
                Err(CoreError::BudgetExhausted) => {}
                Err(e) => panic!("replay request failed: {e}"),
            }
        }
        let Some((s, a)) = assigned else {
            if saw_budget {
                continue;
            }
            break 'sessions;
        };
        for (w, t) in a.pairs() {
            let bits = inputs.answer(w, t);
            let shard = &mut shards[s];
            out.model
                .submit(shard, w, t, bits)
                .expect("replayed answers are valid");
            if shard
                .framework()
                .log()
                .stream_len()
                .is_multiple_of(GOSSIP_EVERY)
            {
                let started = Instant::now();
                let delta = shard.publish_delta();
                if exchange[s]
                    .as_ref()
                    .is_none_or(|d| d.version < delta.version)
                {
                    exchange[s] = Some(delta);
                }
                let peers: Vec<_> = exchange
                    .iter()
                    .enumerate()
                    .filter(|&(p, _)| p != s)
                    .filter_map(|(_, d)| d.clone())
                    .filter(|d| {
                        shard
                            .framework()
                            .peer_stats()
                            .version_of(d.source)
                            .is_none_or(|seen| seen < d.version)
                    })
                    .collect();
                out.folds += shard.fold_peers(&peers) as u64;
                out.gossip.push(started.elapsed());
            }
        }
    }
    out
}

/// Checks and measures the end state: counters, accuracy after hardening,
/// and a persistence round trip whose size is `state_mb`.
fn finish(inputs: &Inputs, service: &LabellingService, reference: f64, out: &mut Outcome) {
    service.quiesce();
    crate::counters(service, out);
    let (answers, used) = (service.answers_total(), service.budget_used());
    out.check(
        answers == used && used == inputs.budget,
        format!(
            "answers_total {answers}, budget_used {used}, budget {}",
            inputs.budget
        ),
    );
    service.force_full_em();
    let accuracy = world::accuracy(&inputs.platform, &service.decisions());
    out.set("accuracy", accuracy, inputs.platform.dataset.tasks.len());
    out.note("accuracy_reference", format!("{reference:.4}"));
    out.note("accuracy_gap", format!("{:+.4}", accuracy - reference));
    out.check(
        accuracy >= reference - ACCURACY_GATE,
        format!(
            "accuracy {accuracy:.4} is more than {ACCURACY_GATE} below the \
             single-threaded reference {reference:.4}"
        ),
    );
    crate::roundtrip(
        &inputs.platform.dataset.tasks,
        &inputs.platform.population.pool,
        service,
        out,
    );
}

/// Runs the workload. The untraced run reports the end-to-end metrics;
/// the traced run reports the per-layer metrics. Both check the outputs.
pub fn run(seed: u64, seconds: u64, traced: bool, out: &mut Outcome) {
    let inputs = Inputs::new(seed, seconds);
    let reference = reference_accuracy(&inputs);
    out.note("offered_rate_per_s", RATE);
    out.note("budget", inputs.budget);
    out.note("latency_limit_ms", LATENCY_LIMIT_MS);

    let pass = http_pass(
        &inputs,
        if traced { 2 } else { 0 },
        if traced { 1 } else { SETUPS },
    );
    let st = &pass.stats;
    out.attempted += st.requests + st.sessions - st.empty;
    out.failed += st.failed;
    for e in st.errors.iter().take(5) {
        out.check_failures.push(e.clone());
    }
    out.set(
        "setup_s",
        crate::stats::median(&pass.setup),
        pass.setup.len(),
    );
    out.set(
        "wait_p50_ms",
        st.request_wait.pct(0.50),
        st.request_wait.len(),
    );
    out.note(
        "wait_p99_ms",
        format!(
            "{:.4} (n={})",
            st.request_wait.pct(0.99),
            st.request_wait.len()
        ),
    );
    out.set(
        "ops_per_s",
        st.sessions as f64 / st.window_s.max(1e-9),
        st.sessions as usize,
    );
    out.note("labels_p50_ms", format!("{:.4}", st.labels_wait.pct(0.50)));
    out.note("labels_p99_ms", format!("{:.4}", st.labels_wait.pct(0.99)));
    out.note("sessions", st.sessions);
    out.note("requests", st.requests);
    out.note("window_s", format!("{:.3}", st.window_s));
    out.note("gen_late_p99_ms", format!("{:.4}", st.late.pct(0.99)));
    // A growing backlog shows as a rising wait from the first quarter of
    // the campaign to the last.
    let quarter = st.timeline.len() / 4;
    let wait_median = |part: &[(f64, f64)]| {
        crate::stats::median(&part.iter().map(|&(_, v)| v).collect::<Vec<_>>())
    };
    out.note(
        "backlog_p50_first_last_quarter_ms",
        format!(
            "{:.4} {:.4}",
            wait_median(&st.timeline[..quarter]),
            wait_median(&st.timeline[st.timeline.len() - quarter..])
        ),
    );
    // The limit places the offered rate below the knee; missing it is a
    // slow run, not a wrong output.
    out.note(
        "latency_limit_met",
        st.request_wait.pct(0.99) <= LATENCY_LIMIT_MS,
    );
    finish(&inputs, &pass.service, reference, out);
    pass.service.shutdown();
    if !traced {
        return;
    }

    out.set(
        "trace.overhead",
        st.traced_wait.pct(0.50) / st.untraced_wait.pct(0.50).max(1e-9) - 1.0,
        st.traced_wait.len(),
    );
    out.set("gen.late_ms.p99", st.late.pct(0.99), st.late.len());
    out.set(
        "http.bytes_per_session",
        pass.bytes as f64 / st.sessions.max(1) as f64,
        st.sessions as usize,
    );
    out.set(
        "service.empty_share",
        st.empty as f64 / st.sessions.max(1) as f64,
        st.sessions as usize,
    );
    if let Some(cc) = pass.cross_check.clone() {
        out.extra.push(("cross_check".to_owned(), cc));
    }

    let service = inputs.start_service();
    let endpoints: Vec<InProcess> = (0..GENERATORS)
        .map(|_| InProcess {
            handle: service.handle(),
            submit: Samples::default(),
            queue_depth_max: 0,
        })
        .collect();
    let (is, endpoints, in_tracer) = drive(
        &inputs,
        endpoints,
        1,
        ["service.request_tasks", "service.submit"],
    );
    service.quiesce();
    service.shutdown();
    let mut submit = Samples::default();
    let mut depth = 0;
    for ep in endpoints {
        submit.extend(ep.submit);
        depth = depth.max(ep.queue_depth_max);
    }
    out.set(
        "service.request_ms.p50",
        is.request_rtt.pct(0.50),
        is.request_rtt.len(),
    );
    out.set(
        "service.request_ms.p99",
        is.request_rtt.pct(0.99),
        is.request_rtt.len(),
    );
    out.set("service.submit_ms.p99", submit.pct(0.99), submit.len());
    out.set(
        "service.queue_depth.max",
        depth as f64,
        is.requests as usize,
    );
    out.set(
        "http.request_self_ms.p50",
        st.request_rtt.pct(0.50) - is.request_rtt.pct(0.50),
        st.request_rtt.len(),
    );
    out.set(
        "http.request_self_ms.p99",
        st.request_rtt.pct(0.99) - is.request_rtt.pct(0.99),
        st.request_rtt.len(),
    );
    out.set(
        "http.labels_self_ms.p50",
        st.labels_rtt.pct(0.50) - is.labels_rtt.pct(0.50),
        st.labels_rtt.len(),
    );

    let rp = replay(&inputs);
    rp.model
        .report(out, serve_config(0).policy.parallelism.resolve());
    out.set("gossip.round_ms.p50", rp.gossip.pct(0.50), rp.gossip.len());
    out.set("gossip.folds", rp.folds as f64, rp.gossip.len());
    out.set(
        "assign.request_ms.p50",
        rp.assign.pct(0.50),
        rp.assign.len(),
    );
    out.set(
        "assign.request_ms.p99",
        rp.assign.pct(0.99),
        rp.assign.len(),
    );
    out.set(
        "assign.pairs_per_request",
        rp.pairs.iter().sum::<usize>() as f64 / rp.pairs.len().max(1) as f64,
        rp.pairs.len(),
    );
    let mut tracer = pass.tracer;
    tracer.absorb(in_tracer);
    out.extra.push(("spans".to_owned(), tracer.to_json()));
}
