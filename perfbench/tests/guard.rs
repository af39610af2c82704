//! Guards on the benchmark itself, at a small size: the counts the
//! single-threaded replays report repeat exactly for one seed, and the
//! metric names the command prints are exactly those `BENCHMARK.json` and
//! `spec.json` list.

use crowd_serve::Json;
use perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use perfbench::{campaign, ingest};

fn load(file: &str) -> Json {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    let text = std::fs::read_to_string(&path).expect("readable file");
    Json::parse(&text).expect("valid JSON")
}

fn names(list: &Json) -> Vec<(String, String, String)> {
    list.as_arr()
        .expect("an array of metrics")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let bench = load("../BENCHMARK.json");
    let e2e: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better.to_owned()))
        .collect();
    assert_eq!(names(bench.get("end_to_end").expect("end_to_end")), e2e);
    let layers: Vec<_> = PER_LAYER
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better.to_owned()))
        .collect();
    assert_eq!(names(bench.get("per_layer").expect("per_layer")), layers);
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, ["campaign", "ingest", "recover"]);

    // The result line carries exactly the catalogue of its trace mode.
    for traced in [false, true] {
        let line = Json::parse(&Outcome::default().result_line(traced)).expect("JSON line");
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics object");
        };
        let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let listed: Vec<&str> = Outcome::catalogue(traced).iter().map(|m| m.0).collect();
        assert_eq!(printed, listed);
    }

    // Every per-layer metric says what it should move, in spec.json.
    let spec = load("spec.json");
    let Some(Json::Obj(spec_layers)) = spec.get("per_layer") else {
        panic!("spec.json per_layer object");
    };
    let spec_names: Vec<&str> = spec_layers.iter().map(|(k, _)| k.as_str()).collect();
    let code_names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(spec_names, code_names);
    for (_, entry) in spec_layers {
        assert!(entry.get("moves").and_then(Json::as_str).is_some());
    }
}

#[test]
fn ingest_replay_counts_repeat() {
    let run = || {
        let (decisions, timing) = ingest::replay(&ingest::Inputs::sized(7, 3));
        (
            decisions,
            timing.full_sweeps,
            timing.dirty_sweeps,
            timing.iterations,
            timing.answers_swept,
            timing.rebuild.len(),
        )
    };
    let first = run();
    assert!(first.5 > 0, "the stream triggers rebuilds");
    assert_eq!(first, run());
}

#[test]
fn campaign_replay_counts_repeat() {
    let run = || {
        let r = campaign::replay(&campaign::Inputs::new(7, 1));
        (
            r.pairs,
            r.folds,
            r.model.full_sweeps,
            r.model.dirty_sweeps,
            r.model.iterations,
            r.model.answers_swept,
            r.model.absorb.len(),
        )
    };
    let first = run();
    assert_eq!(
        first.0.iter().sum::<usize>(),
        campaign::budget(1),
        "the replay spends the budget"
    );
    assert_eq!(first, run());
}
