//! The repository benchmark: one closed-loop client driving the
//! TreeSketch pipeline through its public functions. See README.md.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload xmark-estimate --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! records the host, the inputs and any failed checks.

mod inputs;
mod layers;
mod run;
mod stats;
mod workloads;

use run::json_str;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Answers, Book, Estimate, Summarize, Workload};

// Installs the counting allocator so traced runs attribute allocations
// to spans; untraced, it costs one relaxed atomic load per allocation.
#[global_allocator]
static ALLOC: axqa_obs::alloc::CountingAlloc = axqa_obs::alloc::CountingAlloc;

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["xmark-summarize", "xmark-estimate", "imdb-answers"];

const USAGE: &str =
    "usage: axqa-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => &flag[2..],
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(key, value);
    }
    let get = |key: &str| {
        values
            .get(key)
            .copied()
            .ok_or_else(|| format!("missing --{key}"))
    };
    let workload = get("workload")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds: f64 = get("seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload: workload.to_string(),
        seed: get("seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace,
    })
}

/// Builds a workload's inputs from the seed alone. The query pools hold
/// 1.3 to 2 times the operations a 30-second run completed on the 2-CPU
/// reference host, so that a faster program still draws from the same
/// shuffled pool.
fn make_workload(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "xmark-summarize" => Box::new(Summarize::new(seed)),
        "xmark-estimate" => Box::new(Estimate::new(seed, 140_000)),
        _ => Box::new(Answers::new(seed, 18_000)),
    }
}

/// Where this build keeps the deterministic values of earlier runs: next
/// to the executable, keyed by workload and seed, and stamped with the
/// executable's size and mtime so that a rebuilt program starts afresh.
fn record_path(workload: &str, seed: u64) -> Option<(PathBuf, String)> {
    let exe = std::env::current_exe().ok()?;
    let meta = std::fs::metadata(&exe).ok()?;
    let mtime = meta
        .modified()
        .ok()?
        .duration_since(std::time::UNIX_EPOCH)
        .ok()?
        .as_nanos();
    let dir = exe.parent()?.join("determinism");
    Some((
        dir.join(format!("{workload}-{seed}.txt")),
        format!("{}-{mtime}", meta.len()),
    ))
}

/// Determinism across runs of one seed: every value recorded by an
/// earlier run of the same executable must repeat exactly.
fn check_record(book: &mut Book, path: &Path, stamp: &str, values: &BTreeMap<String, String>) {
    let mut merged = BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(path) {
        let mut lines = text.lines();
        if lines.next() == Some(stamp) {
            for line in lines {
                if let Some((key, value)) = line.split_once(' ') {
                    merged.insert(key.to_string(), value.to_string());
                }
            }
        }
    }
    for (key, value) in values {
        if let Some(earlier) = merged.get(key) {
            book.check(earlier == value, || {
                format!("{key} = {value}, but an earlier run of this seed gave {earlier}")
            });
        }
        merged.insert(key.clone(), value.clone());
    }
    let mut text = format!("{stamp}\n");
    for (key, value) in &merged {
        text.push_str(&format!("{key} {value}\n"));
    }
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut workload = make_workload(&args.workload, args.seed);
    let result = match run::run(workload.as_mut(), args.seconds, args.trace) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: {} (seed {}): {e}", args.workload, args.seed);
            return ExitCode::from(1);
        }
    };
    let mut book = result.book;
    if let Some((path, stamp)) = record_path(&args.workload, args.seed) {
        check_record(&mut book, &path, &stamp, &result.deterministic);
    }
    for note in &book.notes {
        eprintln!("check failed: {note}");
    }
    println!("{}", result.info);
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|&(name, unit, value)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        book.failed == 0,
        book.attempted.max(1),
        book.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name": "…"` values of one top-level array of BENCHMARK.json.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let end = body.find(']').expect("array closes");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("name value").to_string())
            .collect()
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(names_in(&json, "workloads"), WORKLOADS);
        let e2e: Vec<&str> = run::END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        let layers: Vec<&str> = run::PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names_in(&json, "per_layer"), layers);
        for (name, unit) in run::END_TO_END.iter().chain(run::PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                json.contains(&entry),
                "{name} has unit {unit} in BENCHMARK.json"
            );
        }
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload imdb-answers --seed 3 --seconds 2 --trace 1",
        ));
        let ok = ok.unwrap();
        assert_eq!((ok.seed, ok.trace), (3, true));
        for bad in [
            "--workload nope --seed 3 --seconds 2 --trace 0",
            "--workload imdb-answers --seed 3 --seconds 2",
            "--workload imdb-answers --seed x --seconds 2 --trace 0",
            "--workload imdb-answers --seed 1 --seconds 0 --trace 0",
            "--workload imdb-answers --seed 1 --seconds 1 --trace 2",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn record_detects_a_changed_value() {
        let exe = std::env::current_exe().unwrap();
        let dir = exe.parent().unwrap().join("record-test");
        let path = dir.join("w-1.txt");
        let _ = std::fs::remove_dir_all(&dir);
        let mut values = BTreeMap::new();
        values.insert("sketch_sq_error".to_string(), "1.5".to_string());
        let mut book = Book::default();
        check_record(&mut book, &path, "stamp", &values);
        check_record(&mut book, &path, "stamp", &values);
        assert_eq!(book.failed, 0);
        values.insert("sketch_sq_error".to_string(), "1.25".to_string());
        check_record(&mut book, &path, "stamp", &values);
        assert_eq!(book.failed, 1);
        // A rebuilt executable starts a fresh record.
        check_record(&mut book, &path, "other", &values);
        assert_eq!(book.failed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
