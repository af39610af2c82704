//! An end-to-end HTTP labelling campaign: thousands of simulated mobile
//! workers drive the `crowd_serve` HTTP/1.1 front-end over real sockets —
//! request a HIT, think, answer, repeat — and the resulting inference must
//! match the equivalent single-threaded `SimPlatform` campaign at the same
//! budget within the 0.02 accuracy gate.
//!
//! The workers are multiplexed over a pool of keep-alive connections (one
//! client thread ≈ one phone's persistent connection carrying a
//! neighbourhood of workers), each with a small per-request think time.
//! Every answer goes through `POST /labels` **fire-and-forget**: the
//! shard-side reservation set is what keeps a follow-up `POST
//! /tasks/request` from re-issuing a pair whose answer is still queued.
//!
//! ```sh
//! cargo run --release --example http_campaign                   # full campaign + gate
//! cargo run --release --example http_campaign -- --smoke        # small CI variant
//! cargo run --release --example http_campaign -- --bench        # shard sweep, prints BENCH_http.json body
//! cargo run --release --example http_campaign -- --campaigns 2  # N campaigns on one server
//! ```
//!
//! With `--campaigns N` (N ≥ 2) the example runs N concurrent campaigns
//! against ONE server: the extras are created over the wire with `POST
//! /campaigns`, every request is routed with `?campaign=<id>`, and each
//! campaign's final inference — recovered via `POST /admin/snapshot` and a
//! local restore — must independently pass the 0.02 accuracy gate.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crowdpoi::prelude::*;
use crowdpoi::sim::AnswerSimulator;

const SEED: u64 = 2016;
const GOSSIP_EVERY: usize = 128;

/// Knobs for one campaign scale.
struct Scale {
    n_workers: usize,
    budget: usize,
    n_shards: usize,
    /// Keep-alive client connections (each carries a worker slice).
    clients: usize,
    /// Mean per-request think time; zero disables thinking entirely.
    think: Duration,
}

const FULL: Scale = Scale {
    n_workers: 2000,
    budget: 6000,
    n_shards: 4,
    clients: 24,
    think: Duration::from_millis(2),
};

const SMOKE: Scale = Scale {
    n_workers: 300,
    budget: 1500,
    n_shards: 2,
    clients: 8,
    think: Duration::ZERO,
};

fn answer_seed(w: WorkerId, t: TaskId) -> u64 {
    crowdpoi::sim::rngx::pair_seed(u64::from(w.0), u64::from(t.0)).wrapping_add(SEED)
}

/// Deterministic simulated answer for (worker, task) — same content the
/// single-threaded reference sees, regardless of arrival interleaving.
fn simulate_answer(
    platform: &SimPlatform,
    distances: &Distances,
    w: WorkerId,
    t: TaskId,
) -> LabelBits {
    let worker = platform.population.pool.worker(w);
    let task = platform.dataset.tasks.task(t);
    let d = distances.between(worker, task);
    let mut sim = AnswerSimulator::new(platform.behavior().clone(), answer_seed(w, t));
    sim.answer(
        &platform.population.profiles[w.index()],
        &platform.dataset.true_dt[t.index()],
        &platform.dataset.truth[t.index()],
        d,
    )
}

/// The paper's accuracy metric (Equation 1) for a decision vector.
fn accuracy_of_decisions(platform: &SimPlatform, decisions: &[LabelBits]) -> f64 {
    let tasks = &platform.dataset.tasks;
    let total: f64 = tasks
        .iter()
        .map(|task| {
            let truth = &platform.dataset.truth[task.id.index()];
            f64::from(truth.agreement(&decisions[task.id.index()]) as u32) / task.n_labels() as f64
        })
        .sum();
    total / tasks.len() as f64
}

/// A blocking HTTP/1.1 client over one keep-alive connection.
struct HttpClient {
    stream: TcpStream,
}

impl HttpClient {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self { stream })
    }

    /// One round-trip; returns (status, parsed JSON body, latency).
    fn send(&mut self, method: &str, path: &str, body: &str) -> (u16, Json, Duration) {
        let (status, text, dt) = self.send_text(method, path, body);
        let json = Json::parse(&text).unwrap_or_else(|e| panic!("bad JSON ({e}): {text}"));
        (status, json, dt)
    }

    /// One round-trip; returns the raw body text (for non-JSON responses
    /// like the Prometheus exposition).
    fn send_text(&mut self, method: &str, path: &str, body: &str) -> (u16, String, Duration) {
        let start = Instant::now();
        let request = format!(
            "{method} {path} HTTP/1.1\r\nhost: campaign\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(request.as_bytes()).expect("send");
        let mut buf = Vec::new();
        let mut chunk = [0u8; 8192];
        let head_end = loop {
            if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            let n = self.stream.read(&mut chunk).expect("response head");
            assert!(n > 0, "server closed mid-response");
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&buf[..head_end]).expect("ascii head");
        let status: u16 = head.split(' ').nth(1).and_then(|s| s.parse().ok()).unwrap();
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().unwrap())
            })
            .expect("framed response");
        while buf.len() < head_end + content_length {
            let n = self.stream.read(&mut chunk).expect("response body");
            assert!(n > 0, "server closed mid-body");
            buf.extend_from_slice(&chunk[..n]);
        }
        let text = std::str::from_utf8(&buf[head_end..head_end + content_length]).unwrap();
        (status, text.to_string(), start.elapsed())
    }
}

fn get_usize(json: &Json, key: &str) -> usize {
    json.get(key)
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("missing {key:?} in {}", json.render()))
}

/// Drives the campaign over HTTP until the budget is exhausted (409) or no
/// client can obtain work any more. Returns every request's latency.
fn drive_http(
    addr: std::net::SocketAddr,
    platform: &SimPlatform,
    distances: &Distances,
    scale: &Scale,
    query: &str,
) -> Vec<Duration> {
    let done = AtomicBool::new(false);
    let issued_total = AtomicU64::new(0);
    let mut all_latencies = Vec::new();
    std::thread::scope(|s| {
        let mut threads = Vec::new();
        for c in 0..scale.clients {
            let done = &done;
            let issued_total = &issued_total;
            threads.push(s.spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connect");
                let my_workers: Vec<WorkerId> = (0..scale.n_workers)
                    .filter(|i| i % scale.clients == c)
                    .map(WorkerId::from_index)
                    .collect();
                let mut latencies = Vec::new();
                let mut dry_rounds = 0u32;
                'campaign: loop {
                    let mut any_issued = false;
                    for (round, &w) in my_workers.iter().enumerate() {
                        if done.load(Ordering::Relaxed) {
                            break 'campaign;
                        }
                        // The mobile worker opens the app: request a HIT.
                        let (status, assigned, dt) = client.send(
                            "POST",
                            &format!("/tasks/request{query}"),
                            &format!(r#"{{"workers": [{}]}}"#, w.index()),
                        );
                        latencies.push(dt);
                        if status == 409 {
                            done.store(true, Ordering::Relaxed);
                            break 'campaign; // campaign budget exhausted
                        }
                        assert_eq!(status, 200, "{}", assigned.render());
                        let issued = get_usize(&assigned, "issued");
                        if issued == 0 {
                            continue;
                        }
                        any_issued = true;
                        issued_total.fetch_add(issued as u64, Ordering::Relaxed);
                        // Think, then answer every task in the HIT at once.
                        if !scale.think.is_zero() {
                            let jitter =
                                crowdpoi::sim::rngx::pair_seed(u64::from(w.0), round as u64) % 3;
                            std::thread::sleep(scale.think + Duration::from_millis(jitter));
                        }
                        let mut labels = Vec::new();
                        for entry in assigned.get("assignments").and_then(Json::as_arr).unwrap() {
                            for t in entry.get("tasks").and_then(Json::as_arr).unwrap() {
                                let t = TaskId::from_index(t.as_usize().unwrap());
                                let bits: String = simulate_answer(platform, distances, w, t)
                                    .iter()
                                    .map(|b| if b { '1' } else { '0' })
                                    .collect();
                                labels.push(format!(
                                    r#"{{"worker": {}, "task": {}, "bits": "{bits}"}}"#,
                                    w.index(),
                                    t.index()
                                ));
                            }
                        }
                        let (status, accepted, dt) = client.send(
                            "POST",
                            &format!("/labels{query}"),
                            &format!("[{}]", labels.join(",")),
                        );
                        latencies.push(dt);
                        assert_eq!(status, 202, "{}", accepted.render());
                    }
                    if any_issued {
                        dry_rounds = 0;
                    } else {
                        // Whole slice came back empty: remaining pairs are
                        // reserved behind queued answers, or truly dry.
                        dry_rounds += 1;
                        if dry_rounds > 10 {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
                latencies
            }));
        }
        for t in threads {
            all_latencies.extend(t.join().expect("client thread"));
        }
    });
    all_latencies
}

/// Starts a service + HTTP server for `scale` on an ephemeral port.
fn start_server(platform: &SimPlatform, scale: &Scale) -> HttpServer {
    let config = ServeConfig {
        n_shards: scale.n_shards,
        queue_capacity: 256,
        budget: scale.budget,
        h: 2,
        gossip_every: Some(GOSSIP_EVERY),
        ..ServeConfig::default()
    };
    let service =
        LabellingService::start(&platform.dataset.tasks, &platform.population.pool, config);
    HttpServer::start(
        service,
        platform.dataset.tasks.clone(),
        platform.population.pool.clone(),
        HttpConfig::default(),
    )
    .expect("bind ephemeral port")
}

/// The service-side latency histograms, as a small table (values are
/// log-bucket upper bounds, so read them as "at most ~12.5% above").
fn print_latency_table(hub: &ObsHub) {
    #[allow(clippy::cast_precision_loss)]
    let us = |ns: u64| ns as f64 / 1e3;
    println!("  service-side latency (µs):");
    println!(
        "    {:<14} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "stage", "count", "p50", "p90", "p99", "max"
    );
    let (em_full, em_dirty) = (hub.em_full.total(), hub.em_dirty.total());
    for (name, h) in [
        ("queue_wait", &hub.queue_wait),
        ("apply", &hub.apply),
        ("em_full", &em_full),
        ("em_dirty", &em_dirty),
        ("assign", &hub.assign),
        ("gossip_round", &hub.gossip_round),
    ] {
        let s = h.summary();
        println!(
            "    {:<14} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            name,
            s.count,
            us(s.p50),
            us(s.p90),
            us(s.p99),
            us(s.max)
        );
    }
}

fn percentile_us(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)].as_secs_f64() * 1e6
}

/// The full end-to-end campaign with the accuracy gate.
fn run_campaign_with_gate(scale: &Scale) {
    println!(
        "Generating synthetic Beijing dataset (200 POIs) and {} workers…",
        scale.n_workers
    );
    let dataset = beijing(SEED);
    let population = generate_population(
        &PopulationConfig::with_workers(scale.n_workers, SEED ^ 1),
        &dataset,
    );
    let platform = SimPlatform::new(dataset, population, BehaviorConfig::default(), SEED ^ 2);
    let distances = Distances::from_tasks(&platform.dataset.tasks);

    println!(
        "Running the single-threaded reference campaign (budget {})…",
        scale.budget
    );
    let mut assigner = AccOptAssigner::new();
    let reference = platform.run_campaign(
        &mut assigner,
        &CampaignConfig {
            budget: scale.budget,
            h: 2,
            batch_size: 1,
            careless_arrival_boost: 1.0,
            seed: SEED ^ 3,
            ..CampaignConfig::default()
        },
    );
    println!(
        "  reference final accuracy: {:.1}%",
        reference.final_accuracy * 100.0
    );

    println!(
        "Starting the HTTP front-end ({} shards) and {} keep-alive clients carrying {} workers…",
        scale.n_shards, scale.clients, scale.n_workers
    );
    let server = start_server(&platform, scale);
    let started = Instant::now();
    let latencies = drive_http(server.addr(), &platform, &distances, scale, "");
    let elapsed = started.elapsed();

    // Scrape the Prometheus exposition off the still-live socket and
    // prove it well-formed before tearing the server down.
    {
        let mut scraper = HttpClient::connect(server.addr()).expect("connect scraper");
        let (status, text, _) = scraper.send_text("GET", "/metrics?format=prometheus", "");
        assert_eq!(status, 200);
        crowdpoi::obs::validate_exposition(&text)
            .unwrap_or_else(|e| panic!("invalid Prometheus exposition ({e}):\n{text}"));
        println!(
            "  /metrics?format=prometheus: {} lines, exposition well-formed ✓",
            text.lines().count()
        );
    }

    let service = server.shutdown().expect("service still installed");
    service.quiesce();
    let metrics = service.metrics();
    assert_eq!(
        metrics.shards.iter().map(|s| s.rejected).sum::<u64>(),
        0,
        "a reserved pair was re-issued over HTTP and double-answered"
    );
    assert_eq!(
        service.answers_total(),
        service.budget_used(),
        "every issued pair must be answered exactly once"
    );
    println!(
        "  campaign over HTTP: {} answers in {:.2}s ({} requests, {} shards)",
        service.answers_total(),
        elapsed.as_secs_f64(),
        latencies.len(),
        service.n_shards()
    );
    print_latency_table(service.obs());

    // End-of-campaign hardening (same as the in-process example), then the
    // paper's accuracy gate against the single-threaded reference.
    service.force_full_em();
    service.force_full_em();
    let accuracy = accuracy_of_decisions(&platform, &service.decisions());
    println!("  service   final accuracy: {:.1}%", accuracy * 100.0);
    let gap = (accuracy - reference.final_accuracy).abs();
    assert!(
        gap <= 0.02,
        "HTTP campaign accuracy ({accuracy:.4}) must stay within 0.02 of the \
         single-threaded reference ({:.4}) at the same budget {}; gap {gap:.4}",
        reference.final_accuracy,
        scale.budget
    );
    println!("  within tolerance (|gap| = {gap:.4} <= 0.02) ✓");
    service.shutdown();
}

/// Throughput/latency sweep over shard counts; prints a JSON body for
/// `BENCH_http.json`.
fn run_bench() {
    let scale = Scale {
        think: Duration::ZERO, // throughput run: no think time
        ..SMOKE
    };
    let dataset = beijing(SEED);
    let population = generate_population(
        &PopulationConfig::with_workers(scale.n_workers, SEED ^ 1),
        &dataset,
    );
    let platform = SimPlatform::new(dataset, population, BehaviorConfig::default(), SEED ^ 2);
    let distances = Distances::from_tasks(&platform.dataset.tasks);

    let mut rows = Vec::new();
    for n_shards in [1usize, 2, 4, 8] {
        let scale = Scale { n_shards, ..scale };
        let server = start_server(&platform, &scale);
        let started = Instant::now();
        let mut latencies = drive_http(server.addr(), &platform, &distances, &scale, "");
        let elapsed = started.elapsed();
        let service = server.shutdown().expect("service still installed");
        service.quiesce();
        assert_eq!(service.answers_total(), service.budget_used());
        service.shutdown();
        latencies.sort_unstable();
        #[allow(clippy::cast_precision_loss)]
        let rps = latencies.len() as f64 / elapsed.as_secs_f64();
        let row = format!(
            r#"    {{ "shards": {n_shards}, "requests": {}, "elapsed_ms": {:.0}, "requests_per_sec": {:.0}, "p50_us": {:.0}, "p99_us": {:.0} }}"#,
            latencies.len(),
            elapsed.as_secs_f64() * 1e3,
            rps,
            percentile_us(&latencies, 0.50),
            percentile_us(&latencies, 0.99),
        );
        eprintln!("shards={n_shards}: {row}");
        rows.push(row);
    }
    println!("{{");
    println!(r#"  "bench": "http_front_end","#);
    println!(
        r#"  "description": "HTTP/1.1 front-end throughput: {} simulated mobile workers over {} keep-alive connections drive full request -> fire-and-forget answer loops (POST /tasks/request + POST /labels, budget {}, h 2, gossip every {}) against 1/2/4/8 geographic shards on loopback; latency is per HTTP round-trip.","#,
        scale.n_workers, scale.clients, scale.budget, GOSSIP_EVERY
    );
    println!(
        r#"  "nproc": {},"#,
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    );
    println!(r#"  "results": ["#);
    println!("{}", rows.join(",\n"));
    println!("  ]");
    println!("}}");
}

/// N concurrent campaigns over one HTTP server: the extras are created
/// over the wire, each drives its own budget through `?campaign=<id>`
/// routing, and each final inference passes the accuracy gate.
fn run_multi_campaigns(n_campaigns: usize) {
    let scale = SMOKE;
    println!(
        "Generating synthetic Beijing dataset (200 POIs) and {} workers…",
        scale.n_workers
    );
    let dataset = beijing(SEED);
    let population = generate_population(
        &PopulationConfig::with_workers(scale.n_workers, SEED ^ 1),
        &dataset,
    );
    let platform = SimPlatform::new(dataset, population, BehaviorConfig::default(), SEED ^ 2);
    let distances = Distances::from_tasks(&platform.dataset.tasks);

    println!(
        "Running the single-threaded reference campaign (budget {})…",
        scale.budget
    );
    let mut assigner = AccOptAssigner::new();
    let reference = platform.run_campaign(
        &mut assigner,
        &CampaignConfig {
            budget: scale.budget,
            h: 2,
            batch_size: 1,
            careless_arrival_boost: 1.0,
            seed: SEED ^ 3,
            ..CampaignConfig::default()
        },
    );
    println!(
        "  reference final accuracy: {:.1}%",
        reference.final_accuracy * 100.0
    );

    println!(
        "Starting one HTTP front-end and multiplexing {n_campaigns} campaigns over it \
         (budget {} each)…",
        scale.budget
    );
    let server = start_server(&platform, &scale);
    let mut admin = HttpClient::connect(server.addr()).expect("connect admin");

    // The primary campaign is id 0; create the rest over the wire.
    let mut ids = vec![0usize];
    for _ in 1..n_campaigns {
        let (status, created, _) = admin.send("POST", "/campaigns", "{}");
        assert_eq!(status, 201, "{}", created.render());
        ids.push(get_usize(&created, "campaign"));
    }
    let (status, listing, _) = admin.send("GET", "/campaigns", "");
    assert_eq!(status, 200);
    let listed = listing
        .get("campaigns")
        .and_then(Json::as_arr)
        .expect("campaign rows")
        .len();
    assert_eq!(listed, n_campaigns, "{}", listing.render());
    println!("  campaigns live: {ids:?}");

    // Every campaign drives its own full budget concurrently — same
    // socket pool pattern, routed by `?campaign=<id>`.
    std::thread::scope(|s| {
        for &id in &ids {
            let (platform, distances, scale) = (&platform, &distances, &scale);
            let addr = server.addr();
            s.spawn(move || {
                let query = format!("?campaign={id}");
                drive_http(addr, platform, distances, scale, &query);
            });
        }
    });

    // Let the fire-and-forget tail drain before snapshotting.
    loop {
        let (status, metrics, _) = admin.send("GET", "/metrics", "");
        assert_eq!(status, 200);
        if get_usize(&metrics, "queue_depth") == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    // Audit each campaign over the wire: snapshot → local restore →
    // hardening → the paper's gate. Budgets never bleed across campaigns.
    for &id in &ids {
        let (status, doc, _) =
            admin.send_text("POST", &format!("/admin/snapshot?campaign={id}"), "");
        assert_eq!(status, 200);
        let snapshot = ServiceSnapshot::from_json(&doc).expect("own snapshot parses");
        assert_eq!(snapshot.config.budget, scale.budget);
        let restored = LabellingService::restore(
            &platform.dataset.tasks,
            &platform.population.pool,
            &snapshot,
        )
        .expect("own snapshot restores");
        assert_eq!(restored.budget_used(), scale.budget, "campaign {id}");
        restored.force_full_em();
        restored.force_full_em();
        let accuracy = accuracy_of_decisions(&platform, &restored.decisions());
        let gap = (accuracy - reference.final_accuracy).abs();
        println!(
            "  campaign {id}: {} answers over HTTP, accuracy {:.1}% (reference {:.1}%, \
             |gap| {gap:.4})",
            restored.answers_total(),
            accuracy * 100.0,
            reference.final_accuracy * 100.0,
        );
        assert!(
            gap <= 0.02,
            "campaign {id} accuracy ({accuracy:.4}) must stay within 0.02 of the \
             single-threaded reference ({:.4}) at the same budget {}; gap {gap:.4}",
            reference.final_accuracy,
            scale.budget
        );
        restored.shutdown();
    }
    println!("  all {n_campaigns} campaigns within tolerance ✓");

    // Close a secondary over the wire; the listing shrinks, the primary
    // stays (closing it answers 409).
    if let Some(&closable) = ids.get(1) {
        let (status, closed, _) = admin.send("POST", &format!("/campaigns/{closable}/close"), "");
        assert_eq!(status, 200, "{}", closed.render());
        let (status, refused, _) = admin.send("POST", "/campaigns/0/close", "");
        assert_eq!(status, 409, "{}", refused.render());
        let (_, listing, _) = admin.send("GET", "/campaigns", "");
        let left = listing
            .get("campaigns")
            .and_then(Json::as_arr)
            .expect("campaign rows")
            .len();
        assert_eq!(left, n_campaigns - 1);
        println!("  closed campaign {closable} over the wire; primary close refused (409) ✓");
    }
    server
        .shutdown()
        .expect("service still installed")
        .shutdown();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n_campaigns = args
        .iter()
        .position(|a| a == "--campaigns")
        .and_then(|i| args.get(i + 1))
        .map_or(1, |v| v.parse().expect("--campaigns takes a count"));
    if n_campaigns > 1 {
        run_multi_campaigns(n_campaigns);
    } else if args.iter().any(|a| a == "--bench") {
        run_bench();
    } else if args.iter().any(|a| a == "--smoke") {
        run_campaign_with_gate(&SMOKE);
    } else {
        run_campaign_with_gate(&FULL);
    }
}
