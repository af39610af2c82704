//! `perfbench --workload <campaign|ingest|recover> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload against the release build, prints the run record and
//! every metric of the trace mode by name with its unit and sample count,
//! writes the spans and cross-checks under `perfbench/out/`, and ends with
//! one JSON result line. Exits non-zero when an operation or an output
//! check fails, naming each failed check on standard error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use crowd_serve::Json;
use perfbench::report::{Outcome, END_TO_END};
use perfbench::{campaign, ingest, recover};

/// Workload parameters, metric definitions and what each per-layer
/// metric should move.
const SPEC: &str = include_str!("../spec.json");

const USAGE: &str = "usage: perfbench --workload <campaign|ingest|recover> --seed <n> \
                     --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["campaign", "ingest", "recover"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// User plus system CPU seconds of this process (all threads), from
/// `/proc/self/stat` at the kernel's 100 ticks per second.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(vec![], |(_, rest)| rest.split_whitespace().collect());
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Host CPU ticks from `/proc/stat`: (stolen by the hypervisor, all).
fn host_ticks() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0.0), ticks.iter().sum())
}

/// Peak resident set (VmHWM) in MB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// The checkout root: the benchmark package's parent directory.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// The commit when the checkout is a git repository, otherwise an FNV-1a
/// digest of the sources the benchmark builds from.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
        let head = head.trim();
        return match head.strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(git.join(r))
                .map_or_else(|_| head.to_owned(), |c| c.trim().to_owned()),
            None => head.to_owned(),
        };
    }
    let mut files = Vec::new();
    for top in ["crates", "vendor", "Cargo.toml", "Cargo.lock"] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("source-fnv64:{h:016x}")
}

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            if e.file_name() != "target" {
                collect(&e.path(), out);
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let cpu0 = cpu_seconds();
    let host0 = host_ticks();
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "campaign" => campaign::run(args.seed, args.seconds, args.trace, &mut out),
        "ingest" => ingest::run(args.seed, args.seconds, args.trace, &mut out),
        _ => recover::run(args.seed, args.seconds, args.trace, &mut out),
    }
    let wall = started.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu0;
    let host1 = host_ticks();
    let steal = (host1.0 - host0.0) / (host1.1 - host0.1).max(1.0);
    out.set("run.cpu_s", cpu, 1);
    out.set("rss_peak_mb", rss_peak_mb(), 1);
    for m in END_TO_END {
        if !out.values.contains_key(m.name) {
            out.check(false, format!("{} was not measured", m.name));
        }
    }

    let root = root();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut record = vec![
        ("workload".to_owned(), args.workload.clone()),
        ("seed".to_owned(), args.seed.to_string()),
        ("seconds".to_owned(), args.seconds.to_string()),
        ("trace".to_owned(), u8::from(args.trace).to_string()),
        ("nproc".to_owned(), nproc.to_string()),
        ("commit".to_owned(), commit(&root)),
        ("wall_s".to_owned(), format!("{wall:.3}")),
        ("cpu_s".to_owned(), format!("{cpu:.2}")),
        // CPU time the hypervisor gave to other guests: a validity check on
        // every timing of the run.
        ("host_steal_share".to_owned(), format!("{steal:.4}")),
        (
            "fail_ratio".to_owned(),
            format!("{:.6}", out.failed as f64 / out.attempted.max(1) as f64),
        ),
    ];
    record.append(&mut out.record);
    for (k, v) in &record {
        println!("# {k} = {v}");
    }
    let spec = Json::parse(SPEC).expect("spec.json is valid JSON");
    for (name, unit) in Outcome::catalogue(args.trace) {
        let v = out.values.get(name).copied();
        let (value, n) = v.map_or((0.0, 0), |v| (v.value, v.samples));
        let moves = spec
            .get("per_layer")
            .and_then(|l| l.get(name))
            .and_then(|m| m.get("moves"))
            .and_then(Json::as_str)
            .map_or_else(String::new, |m| format!("  -> moves {m}"));
        println!("{name} = {value} {unit} (n={n}){moves}");
    }
    for f in &out.check_failures {
        eprintln!("FAILED: {f}");
    }

    let dir = root.join("perfbench").join("out");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let mut doc: Vec<(String, Json)> = vec![(
        "record".to_owned(),
        Json::Obj(record.into_iter().map(|(k, v)| (k, Json::Str(v))).collect()),
    )];
    doc.append(&mut out.extra);
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, Json::Obj(doc).render()));
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", file.display());
    }

    println!("{}", out.result_line(args.trace));
    if out.failed == 0 && out.check_failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
