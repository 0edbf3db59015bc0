// Integration tests opt back into panicking extractors (workspace lint
// table, DESIGN.md "Static analysis & invariants").
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! End-to-end check of the `--trace`/`--metrics` write path: a tiny
//! `harness table3` run must leave a balanced Chrome trace of the paper's
//! construction phases and an `axqa-obs/2` metrics document.

use std::process::Command;

#[test]
fn table3_writes_trace_and_metrics_files() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let trace_path = dir.join(format!("axqa-harness-trace-{pid}.json"));
    let metrics_path = dir.join(format!("axqa-harness-metrics-{pid}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(["table3", "--scale", "0.02", "--no-xsketch", "--trace"])
        .arg(&trace_path)
        .arg("--metrics")
        .arg(&metrics_path)
        .output()
        .expect("harness runs");
    assert!(
        out.status.success(),
        "exit {:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );

    let trace = std::fs::read_to_string(&trace_path).unwrap();
    assert!(trace.starts_with("{\"traceEvents\": ["));
    for name in [
        "TSBUILD",
        "CREATEPOOL",
        "TSBUILD.merge_loop.score",
        "TSBUILD.merge_loop.apply",
        "BUILDSTABLE",
    ] {
        assert!(
            trace.contains(&format!("\"name\": \"{name}\"")),
            "trace missing {name}"
        );
    }
    let begins = trace.matches("\"ph\": \"B\"").count();
    assert!(begins > 0);
    assert_eq!(begins, trace.matches("\"ph\": \"E\"").count());

    let metrics = std::fs::read_to_string(&metrics_path).unwrap();
    assert!(metrics.contains("\"schema\": \"axqa-obs/2\""));
    assert!(metrics.contains("\"tsbuild.merges\""));

    let _ = std::fs::remove_file(trace_path);
    let _ = std::fs::remove_file(metrics_path);
}
