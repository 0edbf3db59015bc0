// Integration tests opt back into panicking extractors.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::arithmetic_side_effects
)]

//! End-to-end tests of the `axqa` binary: generate → stats → summarize
//! → estimate/preview/exact round trips through real files.

use std::path::PathBuf;
use std::process::{Command, Output};

fn axqa(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_axqa"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(output: &Output) -> String {
    assert!(
        output.status.success(),
        "exit {:?}\nstderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("axqa-cli-test-{}-{name}", std::process::id()));
    dir
}

#[test]
fn full_pipeline_through_files() {
    let doc_path = tmp("doc.xml");
    let sketch_path = tmp("sketch.ts");
    let doc = doc_path.to_str().unwrap();
    let sketch = sketch_path.to_str().unwrap();

    // generate
    let out = stdout(&axqa(&[
        "generate",
        "dblp",
        "--elements",
        "3000",
        "--seed",
        "7",
        "-o",
        doc,
    ]));
    assert!(out.contains("elements"));

    // stats
    let out = stdout(&axqa(&["stats", doc]));
    assert!(out.contains("stable summary"));

    // summarize
    let out = stdout(&axqa(&["summarize", doc, "--budget", "2KB", "-o", sketch]));
    assert!(out.contains("clusters"));

    // estimate vs exact on the same query
    let query = "q1: q0 //article ; q2: q1 /author";
    let estimate: f64 = stdout(&axqa(&["estimate", sketch, "-q", query]))
        .trim()
        .parse()
        .unwrap();
    let exact: f64 = stdout(&axqa(&["exact", doc, "-q", query]))
        .trim()
        .parse()
        .unwrap();
    assert!(exact > 0.0);
    let error = (exact - estimate).abs() / exact;
    assert!(
        error < 0.5,
        "estimate {estimate} too far from exact {exact}"
    );

    // preview (sketch dump + expansion)
    let out = stdout(&axqa(&["preview", sketch, "-q", query]));
    assert!(out.contains("q1:"));
    let out = stdout(&axqa(&["preview", sketch, "-q", query, "--expand", "50"]));
    assert!(out.contains("article"));

    // workload
    let out = stdout(&axqa(&["workload", doc, "-n", "5"]));
    assert_eq!(out.lines().count(), 5);
    for line in out.lines() {
        assert!(line.starts_with("q1:"), "bad workload line {line:?}");
    }

    let _ = std::fs::remove_file(doc_path);
    let _ = std::fs::remove_file(sketch_path);
}

#[test]
fn errors_are_reported() {
    let out = axqa(&["estimate", "/nonexistent.ts", "-q", "q1: q0 //a"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));

    let out = axqa(&["nonsense"]);
    assert!(!out.status.success());

    let out = axqa(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // Mistyped or removed options, extra arguments and budgets no
    // synopsis fits in are usage errors (exit 2), never a silent default
    // or a panic.
    let doc_path = tmp("usage.xml");
    let sketch_path = tmp("usage.ts");
    let (doc, sketch) = (doc_path.to_str().unwrap(), sketch_path.to_str().unwrap());
    std::fs::write(
        &doc_path,
        "<bib><a><p><k/></p></a><a><p><k/><k/></p></a></bib>",
    )
    .unwrap();
    for (args, message) in [
        (vec!["--budgte", "4KB"], "unknown option \"--budgte\""),
        (vec!["--threads", "2"], "unknown option \"--threads\""),
        (vec!["extra.xml"], "unexpected argument \"extra.xml\""),
        (vec!["--budget", "0"], "is zero bytes"),
        (vec!["--budget", "18014398509481984MB"], "is too large"),
    ] {
        let mut full = vec!["summarize", doc, "-o", sketch];
        full.extend(args);
        let out = axqa(&full);
        assert_eq!(out.status.code(), Some(2), "{full:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{full:?}: {stderr}");
        assert!(!sketch_path.exists(), "{full:?} wrote a sketch");
    }
    let _ = std::fs::remove_file(doc_path);
}

#[test]
fn negative_workload_flag() {
    let doc_path = tmp("neg.xml");
    let doc = doc_path.to_str().unwrap();
    stdout(&axqa(&[
        "generate",
        "imdb",
        "--elements",
        "2000",
        "--seed",
        "3",
        "-o",
        doc,
    ]));
    let out = stdout(&axqa(&["workload", doc, "-n", "3", "--negative"]));
    assert_eq!(out.lines().count(), 3);
    let _ = std::fs::remove_file(doc_path);
}

#[test]
fn value_layer_roundtrip() {
    let doc_path = tmp("valdoc.xml");
    let sketch_path = tmp("valsketch.ts");
    let values_path = tmp("valsketch.vals");
    let (doc, sketch, values) = (
        doc_path.to_str().unwrap(),
        sketch_path.to_str().unwrap(),
        values_path.to_str().unwrap(),
    );
    stdout(&axqa(&[
        "generate",
        "dblp",
        "--elements",
        "4000",
        "--seed",
        "11",
        "-o",
        doc,
    ]));
    let out = stdout(&axqa(&[
        "summarize",
        doc,
        "--budget",
        "2KB",
        "-o",
        sketch,
        "--values",
        values,
    ]));
    assert!(out.contains("value layer"));

    let query = "q1: q0 //year[. > 1990]";
    let with_values: f64 = stdout(&axqa(&[
        "estimate", sketch, "-q", query, "--values", values,
    ]))
    .trim()
    .parse()
    .unwrap();
    let without: f64 = stdout(&axqa(&["estimate", sketch, "-q", query]))
        .trim()
        .parse()
        .unwrap();
    let exact: f64 = stdout(&axqa(&["exact", doc, "-q", query]))
        .trim()
        .parse()
        .unwrap();
    // Ignoring the predicate gives the structural upper bound; the value
    // layer gets close to exact.
    assert!(without > with_values);
    assert!(
        (exact - with_values).abs() / exact < 0.2,
        "exact {exact} vs {with_values}"
    );

    for p in [doc_path, sketch_path, values_path] {
        let _ = std::fs::remove_file(p);
    }
}
