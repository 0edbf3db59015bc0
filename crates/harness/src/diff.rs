//! `bench diff OLD NEW` — metric-by-metric comparison of two
//! `axqa-bench-baseline/*` snapshots (DESIGN.md §12), turning the
//! committed BENCH_core.json into a ratcheting performance trajectory
//! the way lint-baseline.toml ratchets findings.
//!
//! Three kinds of checks, with different tolerances:
//!
//! * **time** metrics (wall-clock medians, phase totals) are noisy —
//!   they pass within a relative threshold (default ±8%, `--time-pct`)
//!   and can be demoted to warnings wholesale (`--warn-only-time`,
//!   which CI uses until a quiet multi-core reference host exists);
//! * **determinism counters** (`tsbuild.merges`, …) are exact by
//!   construction — the sequential TSBUILD merge sequence is a pure
//!   function of the document and the config — so any difference is a
//!   real behavioral change and always fails, never warns;
//! * **ratchet counters** (`tsbuild.reevals`) measure work whose
//!   *outcome* is pinned by the determinism set but whose *amount* is
//!   an optimization target (the lazy merge queue, DESIGN.md §13,
//!   exists to shrink it): they must not increase, while decreases are
//!   improvements and pass.
//!
//! Comparing runs of different configurations (dataset, size, seed,
//! budgets, run count) is meaningless for the exact checks, so a config
//! mismatch fails fast before any metric is looked at.

use crate::json::{parse, Json};

/// Tuning knobs for one diff run.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Relative noise threshold for time metrics, in percent.
    pub time_pct: f64,
    /// Demote time regressions from `fail` to `warn` (determinism
    /// counters still fail).
    pub warn_only_time: bool,
    /// Optional path for the `axqa-bench-diff/1` verdict document.
    pub out: Option<std::path::PathBuf>,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            time_pct: 8.0,
            warn_only_time: false,
            out: None,
        }
    }
}

/// Outcome of one compared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Within tolerance (or an improvement).
    Ok,
    /// Out of tolerance, but demoted by `--warn-only-time`.
    Warn,
    /// Out of tolerance; fails the diff.
    Fail,
}

impl Status {
    fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Warn => "warn",
            Status::Fail => "fail",
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct Check {
    /// Dotted metric path, e.g. `ts_build[10kb].ms`.
    pub metric: String,
    /// `time` (threshold), `counter` (exact), `ratchet` (must not
    /// increase), or `config` (equality).
    pub kind: &'static str,
    pub old: String,
    pub new: String,
    /// Relative change in percent (time metrics only).
    pub delta_pct: Option<f64>,
    pub status: Status,
}

/// The full comparison result.
#[derive(Debug, Clone)]
pub struct DiffReport {
    pub old_path: String,
    pub new_path: String,
    pub config: DiffConfig,
    pub checks: Vec<Check>,
    /// Fatal precondition failure (unreadable file, bad JSON, schema or
    /// config mismatch) — recorded instead of per-metric checks.
    pub error: Option<String>,
}

/// Determinism counters: identical across hosts by construction (the
/// merge sequence and the query answers depend only on the document
/// and the config), so they are compared exactly. Scratch-bookkeeping
/// counters (`tsbuild.scratch_reuses`, `tsbuild.stat_bsearch`) are
/// deliberately absent.
pub const DETERMINISM_COUNTERS: &[&str] = &[
    "tsbuild.merges",
    "tsbuild.pool_rebuilds",
    "tsbuild.candidates_scored",
    "evalquery.automaton_states",
    "evalquery.embeddings_expanded",
];

/// Ratcheting counters: deterministic for a given implementation, but
/// *reducing* them is the point of
/// perf work — `tsbuild.reevals` dropped by design when the lazy merge
/// queue started serving stale pops from its score memo. An increase
/// fails; a decrease is an improvement and passes. (The squared-error
/// outcome itself stays pinned by the exact set: `tsbuild.merges`
/// changing would mean a different merge sequence.)
pub const RATCHET_COUNTERS: &[&str] = &["tsbuild.reevals"];

/// Config keys that must match for two snapshots to be comparable at
/// all (they determine the workload, hence every exact counter).
/// `runs` is included because the recorder accumulates counters across
/// timed runs, so counter totals scale linearly with it.
const CONFIG_KEYS: &[&str] = &[
    "dataset",
    "elements",
    "queries",
    "runs",
    "seed",
    "budgets_kb",
];

/// Scalar time metrics compared under the relative threshold.
const TIME_PATHS: &[&str] = &[
    "stable_build_ms",
    "ts_build_phases.ts_build_us",
    "ts_build_phases.create_pool_us",
    "ts_build_phases.merge_loop_us",
    "ts_build_phases.merge_loop_score_us",
    "ts_build_phases.merge_loop_apply_us",
    "ts_build_phases.to_sketch_us",
    "eval_query.total_ms",
    "eval_query.per_query_us",
    "eval_query.per_query_us_p50",
    "eval_query.per_query_us_p95",
];

fn render_json(value: Option<&Json>) -> String {
    match value {
        None => "absent".into(),
        Some(Json::Number(n)) => {
            if n.fract() == 0.0 {
                format!("{n:.0}")
            } else {
                format!("{n:.3}")
            }
        }
        Some(Json::String(s)) => s.clone(),
        Some(Json::Bool(b)) => b.to_string(),
        Some(Json::Null) => "null".into(),
        Some(other) => format!("{other:?}"),
    }
}

/// Loads, parses, and compares the two snapshots.
pub fn run_diff(old_path: &str, new_path: &str, config: DiffConfig) -> DiffReport {
    let mut report = DiffReport {
        old_path: old_path.to_string(),
        new_path: new_path.to_string(),
        config,
        checks: Vec::new(),
        error: None,
    };
    let old = match load(old_path) {
        Ok(doc) => doc,
        Err(err) => {
            report.error = Some(err);
            return report;
        }
    };
    let new = match load(new_path) {
        Ok(doc) => doc,
        Err(err) => {
            report.error = Some(err);
            return report;
        }
    };
    compare(&old, &new, &mut report);
    report
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
    let doc = parse(&text).map_err(|err| format!("{path}: invalid JSON: {err}"))?;
    let schema = doc
        .pointer("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{path}: missing \"schema\""))?;
    if !schema.starts_with("axqa-bench-baseline/") {
        return Err(format!(
            "{path}: schema {schema:?} is not an axqa-bench-baseline snapshot"
        ));
    }
    Ok(doc)
}

fn compare(old: &Json, new: &Json, report: &mut DiffReport) {
    // Schema and config equality gate every other check: exact-counter
    // comparison across different workloads would be noise dressed up
    // as signal.
    let old_schema = old.pointer("schema").and_then(Json::as_str).unwrap_or("");
    let new_schema = new.pointer("schema").and_then(Json::as_str).unwrap_or("");
    if old_schema != new_schema {
        report.error = Some(format!(
            "schema mismatch: {old_schema:?} vs {new_schema:?} — regenerate the \
             older snapshot before diffing"
        ));
        return;
    }
    for key in CONFIG_KEYS {
        let path = format!("config.{key}");
        let old_value = old.pointer(&path);
        let new_value = new.pointer(&path);
        if old_value != new_value {
            report.error = Some(format!(
                "config mismatch on {key:?}: {} vs {} — snapshots are not comparable",
                render_json(old_value),
                render_json(new_value)
            ));
            return;
        }
    }

    for path in TIME_PATHS {
        push_time_check(old, new, path, report);
    }
    // Per-budget rows, matched by budget_kb.
    let empty: Vec<Json> = Vec::new();
    let old_rows = old
        .pointer("ts_build")
        .and_then(Json::as_array)
        .unwrap_or(&empty);
    let new_rows = new
        .pointer("ts_build")
        .and_then(Json::as_array)
        .unwrap_or(&empty);
    for old_row in old_rows {
        let Some(budget) = old_row.pointer("budget_kb").and_then(Json::as_u64) else {
            continue;
        };
        let Some(new_row) = new_rows
            .iter()
            .find(|row| row.pointer("budget_kb").and_then(Json::as_u64) == Some(budget))
        else {
            continue; // config equality already guaranteed same budgets
        };
        push_time_pair(
            old_row.pointer("ms"),
            new_row.pointer("ms"),
            &format!("ts_build[{budget}kb].ms"),
            report,
        );
    }
    for counter in DETERMINISM_COUNTERS {
        // Counter names contain dots ("tsbuild.merges" is one key, not
        // a path), so look the member up directly under the map.
        let old_value = old
            .pointer("metrics.counters")
            .and_then(|c| c.get(counter))
            .and_then(Json::as_u64);
        let new_value = new
            .pointer("metrics.counters")
            .and_then(|c| c.get(counter))
            .and_then(Json::as_u64);
        let status = if old_value == new_value {
            Status::Ok
        } else {
            Status::Fail
        };
        report.checks.push(Check {
            metric: (*counter).to_string(),
            kind: "counter",
            old: old_value.map_or("absent".into(), |v| v.to_string()),
            new: new_value.map_or("absent".into(), |v| v.to_string()),
            delta_pct: None,
            status,
        });
    }
    for counter in RATCHET_COUNTERS {
        let old_value = old
            .pointer("metrics.counters")
            .and_then(|c| c.get(counter))
            .and_then(Json::as_u64);
        let new_value = new
            .pointer("metrics.counters")
            .and_then(|c| c.get(counter))
            .and_then(Json::as_u64);
        let status = match (old_value, new_value) {
            (Some(old_n), Some(new_n)) => {
                if new_n > old_n {
                    Status::Fail // the ratchet only turns one way
                } else {
                    Status::Ok
                }
            }
            // A snapshot from before the counter existed sets no bar.
            (None, _) => Status::Ok,
            // Coverage shrank: the new run stopped reporting it.
            (Some(_), None) => Status::Fail,
        };
        report.checks.push(Check {
            metric: (*counter).to_string(),
            kind: "ratchet",
            old: old_value.map_or("absent".into(), |v| v.to_string()),
            new: new_value.map_or("absent".into(), |v| v.to_string()),
            delta_pct: None,
            status,
        });
    }
}

fn push_time_check(old: &Json, new: &Json, path: &str, report: &mut DiffReport) {
    push_time_pair(old.pointer(path), new.pointer(path), path, report);
}

fn push_time_pair(
    old_value: Option<&Json>,
    new_value: Option<&Json>,
    metric: &str,
    report: &mut DiffReport,
) {
    let (Some(old_n), Some(new_n)) = (
        old_value.and_then(Json::as_f64),
        new_value.and_then(Json::as_f64),
    ) else {
        // A time metric missing from either side means the schemas
        // diverged in a way the equality gate did not catch — fail
        // loudly rather than silently shrinking coverage.
        report.checks.push(Check {
            metric: metric.to_string(),
            kind: "time",
            old: render_json(old_value),
            new: render_json(new_value),
            delta_pct: None,
            status: Status::Fail,
        });
        return;
    };
    // Sub-resolution phases (e.g. 0µs on a tiny run) can't support a
    // relative comparison; treat them as within noise.
    let delta_pct = if old_n.abs() < 1e-9 {
        if new_n.abs() < 1e-9 {
            0.0
        } else {
            100.0
        }
    } else {
        100.0 * (new_n - old_n) / old_n
    };
    let regressed = delta_pct > report.config.time_pct;
    let status = if !regressed {
        Status::Ok
    } else if report.config.warn_only_time {
        Status::Warn
    } else {
        Status::Fail
    };
    report.checks.push(Check {
        metric: metric.to_string(),
        kind: "time",
        old: render_json(old_value),
        new: render_json(new_value),
        delta_pct: Some(delta_pct),
        status,
    });
}

impl DiffReport {
    /// `true` when nothing failed (warnings allowed).
    pub fn passed(&self) -> bool {
        self.error.is_none() && self.checks.iter().all(|c| c.status != Status::Fail)
    }

    /// Human-readable verdict for stdout.
    pub fn render(&self) -> String {
        let mut out = format!("bench diff: {} -> {}\n", self.old_path, self.new_path);
        if let Some(err) = &self.error {
            out.push_str(&format!("  error: {err}\n  verdict: FAIL\n"));
            return out;
        }
        for check in &self.checks {
            if check.status == Status::Ok && check.kind == "time" {
                continue; // quiet passes; the JSON verdict has them all
            }
            let delta = check
                .delta_pct
                .map_or(String::new(), |d| format!(" ({d:+.1}%)"));
            out.push_str(&format!(
                "  [{}] {} {}: {} -> {}{}\n",
                check.status.label(),
                check.kind,
                check.metric,
                check.old,
                check.new,
                delta,
            ));
        }
        let warns = self
            .checks
            .iter()
            .filter(|c| c.status == Status::Warn)
            .count();
        let fails = self
            .checks
            .iter()
            .filter(|c| c.status == Status::Fail)
            .count();
        out.push_str(&format!(
            "  {} checks, {} warnings, {} failures\n  verdict: {}\n",
            self.checks.len(),
            warns,
            fails,
            if self.passed() { "PASS" } else { "FAIL" },
        ));
        out
    }

    /// The machine-readable `axqa-bench-diff/1` verdict document.
    pub fn to_json(&self) -> String {
        fn escape(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|check| {
                let delta = check
                    .delta_pct
                    .map_or("null".to_string(), |d| format!("{d:.3}"));
                format!(
                    concat!(
                        "    {{\"metric\": \"{}\", \"kind\": \"{}\", \"old\": \"{}\", ",
                        "\"new\": \"{}\", \"delta_pct\": {}, \"status\": \"{}\"}}"
                    ),
                    escape(&check.metric),
                    check.kind,
                    escape(&check.old),
                    escape(&check.new),
                    delta,
                    check.status.label(),
                )
            })
            .collect();
        format!(
            r#"{{
  "schema": "axqa-bench-diff/1",
  "old": "{old}",
  "new": "{new}",
  "time_pct": {time_pct:.3},
  "warn_only_time": {warn_only},
  "error": {error},
  "checks": [
{checks}
  ],
  "verdict": "{verdict}"
}}
"#,
            old = escape(&self.old_path),
            new = escape(&self.new_path),
            time_pct = self.config.time_pct,
            warn_only = self.config.warn_only_time,
            error = self
                .error
                .as_ref()
                .map_or("null".to_string(), |e| format!("\"{}\"", escape(e))),
            checks = checks.join(",\n"),
            verdict = if self.passed() { "pass" } else { "fail" },
        )
    }

    /// Writes the verdict JSON when `--out` was given.
    pub fn write(&self) -> std::io::Result<()> {
        if let Some(path) = &self.config.out {
            std::fs::write(path, self.to_json())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(merges: u64, build_ms: f64) -> String {
        format!(
            r#"{{
  "schema": "axqa-bench-baseline/4",
  "machine": {{"os": "linux", "arch": "x86_64", "cpus": 1}},
  "config": {{"dataset": "xmark", "elements": 1000, "queries": 10, "runs": 1,
              "budgets_kb": [2, 4], "seed": 24301}},
  "stable_build_ms": 1.5,
  "ts_build": [
    {{"budget_kb": 2, "ms": {build_ms}}},
    {{"budget_kb": 4, "ms": 6.0}}
  ],
  "ts_build_phases": {{"ts_build_us": 900, "create_pool_us": 300, "merge_loop_us": 400,
                       "merge_loop_score_us": 200, "merge_loop_apply_us": 100,
                       "to_sketch_us": 50}},
  "eval_query": {{"queries": 10, "total_ms": 2.0, "per_query_us": 200.0,
                  "per_query_us_p50": 150.0, "per_query_us_p95": 400.0}},
  "metrics": {{"schema": "axqa-obs/2", "process_id": 1,
               "counters": {{"tsbuild.merges": {merges}, "tsbuild.pool_rebuilds": 3,
                             "tsbuild.reevals": 7, "tsbuild.candidates_scored": 90,
                             "evalquery.automaton_states": 40,
                             "evalquery.embeddings_expanded": 11}},
               "histograms": {{}}, "spans": {{}}}}
}}
"#
        )
    }

    fn write_tmp(name: &str, contents: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("axqa-diff-{}-{name}", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn self_compare_passes() {
        let path = write_tmp("self.json", &snapshot(100, 4.0));
        let report = run_diff(
            path.to_str().unwrap(),
            path.to_str().unwrap(),
            DiffConfig::default(),
        );
        assert!(report.error.is_none(), "{:?}", report.error);
        assert!(report.passed(), "{}", report.render());
        assert!(report.render().contains("verdict: PASS"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn determinism_counter_mismatch_fails_even_with_warn_only_time() {
        let old = write_tmp("det-old.json", &snapshot(100, 4.0));
        let new = write_tmp("det-new.json", &snapshot(101, 4.0));
        let config = DiffConfig {
            warn_only_time: true,
            ..DiffConfig::default()
        };
        let report = run_diff(old.to_str().unwrap(), new.to_str().unwrap(), config);
        assert!(!report.passed());
        let failed: Vec<&Check> = report
            .checks
            .iter()
            .filter(|c| c.status == Status::Fail)
            .collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].metric, "tsbuild.merges");
        assert!(report.to_json().contains("\"verdict\": \"fail\""));
        let _ = std::fs::remove_file(&old);
        let _ = std::fs::remove_file(&new);
    }

    #[test]
    fn time_regression_respects_threshold_and_warn_only() {
        let old = write_tmp("time-old.json", &snapshot(100, 4.0));
        let new = write_tmp("time-new.json", &snapshot(100, 5.0)); // +25%
        let strict = run_diff(
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            DiffConfig::default(),
        );
        assert!(!strict.passed());
        let warn_only = run_diff(
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            DiffConfig {
                warn_only_time: true,
                ..DiffConfig::default()
            },
        );
        assert!(warn_only.passed());
        assert!(warn_only.render().contains("[warn] time ts_build[2kb].ms"));
        let loose = run_diff(
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            DiffConfig {
                time_pct: 30.0,
                ..DiffConfig::default()
            },
        );
        assert!(loose.passed());
        // Improvements never fail: -20% back the other way.
        let improved = run_diff(
            new.to_str().unwrap(),
            old.to_str().unwrap(),
            DiffConfig::default(),
        );
        assert!(improved.passed());
        let _ = std::fs::remove_file(&old);
        let _ = std::fs::remove_file(&new);
    }

    #[test]
    fn reeval_ratchet_accepts_improvements_and_rejects_increases() {
        let old = write_tmp("ratchet-old.json", &snapshot(100, 4.0));
        // tsbuild.reevals drops 7 → 3: an improvement, which must pass
        // even though the values differ (the old exact-match rule would
        // have failed it).
        let better = snapshot(100, 4.0).replace("\"tsbuild.reevals\": 7", "\"tsbuild.reevals\": 3");
        let new = write_tmp("ratchet-new.json", &better);
        let improved = run_diff(
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            DiffConfig::default(),
        );
        assert!(improved.passed(), "{}", improved.render());

        // The other direction (3 → 7) turns the ratchet backwards.
        let regressed = run_diff(
            new.to_str().unwrap(),
            old.to_str().unwrap(),
            DiffConfig {
                warn_only_time: true, // ratchet failures must not demote
                ..DiffConfig::default()
            },
        );
        assert!(!regressed.passed());
        let failed: Vec<&Check> = regressed
            .checks
            .iter()
            .filter(|c| c.status == Status::Fail)
            .collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].metric, "tsbuild.reevals");
        assert_eq!(failed[0].kind, "ratchet");
        assert!(regressed
            .render()
            .contains("[fail] ratchet tsbuild.reevals"));

        // A pre-ratchet snapshot (no reevals counter at all) sets no
        // bar: diffing a new run against it passes the ratchet.
        let ancient = snapshot(100, 4.0).replace("\"tsbuild.reevals\": 7, ", "");
        let ancient = write_tmp("ratchet-ancient.json", &ancient);
        let vs_ancient = run_diff(
            ancient.to_str().unwrap(),
            old.to_str().unwrap(),
            DiffConfig::default(),
        );
        assert!(vs_ancient.passed(), "{}", vs_ancient.render());
        // But dropping the counter from the new run shrinks coverage.
        let dropped = run_diff(
            old.to_str().unwrap(),
            ancient.to_str().unwrap(),
            DiffConfig::default(),
        );
        assert!(!dropped.passed());
        let _ = std::fs::remove_file(&old);
        let _ = std::fs::remove_file(&new);
        let _ = std::fs::remove_file(&ancient);
    }

    #[test]
    fn config_mismatch_fails_fast() {
        let old = write_tmp("cfg-old.json", &snapshot(100, 4.0));
        let other = snapshot(100, 4.0).replace("\"elements\": 1000", "\"elements\": 2000");
        let new = write_tmp("cfg-new.json", &other);
        let report = run_diff(
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            DiffConfig::default(),
        );
        assert!(!report.passed());
        assert!(report.error.as_ref().unwrap().contains("elements"));
        assert!(report.checks.is_empty());
        let _ = std::fs::remove_file(&old);
        let _ = std::fs::remove_file(&new);
    }

    #[test]
    fn verdict_json_is_balanced_and_typed() {
        let path = write_tmp("verdict.json", &snapshot(100, 4.0));
        let out = std::env::temp_dir().join(format!("axqa-verdict-{}.json", std::process::id()));
        let report = run_diff(
            path.to_str().unwrap(),
            path.to_str().unwrap(),
            DiffConfig {
                out: Some(out.clone()),
                ..DiffConfig::default()
            },
        );
        report.write().unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let doc = crate::json::parse(&text).unwrap();
        assert_eq!(
            doc.pointer("schema").unwrap().as_str(),
            Some("axqa-bench-diff/1")
        );
        assert_eq!(doc.pointer("verdict").unwrap().as_str(), Some("pass"));
        assert!(!doc
            .pointer("checks")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&out);
    }
}
