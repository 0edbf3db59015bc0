// Integration tests opt back into panicking extractors (workspace lint
// table, DESIGN.md "Static analysis & invariants").
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Observability test: TSBUILD's `tsbuild.*` counters must agree with
//! the [`axqa_core::BuildReport`] they instrument, and every span of the
//! build must come from the calling thread (TSBUILD is sequential, like
//! Fig. 5), so a counter regression (double counting, a lost buffer)
//! fails loudly.
//!
//! Kept as a single `#[test]` because the recorder is process-wide
//! state.

use axqa_core::{ts_build, BuildConfig};
use axqa_synopsis::build_stable;
use axqa_xml::parse_document;

/// Enough same-label classes per level to exercise both CREATEPOOL
/// scoring paths (all pairs and the sliding window).
fn many_class_doc() -> axqa_xml::Document {
    let mut src = String::from("<r>");
    for k in 1..=40 {
        src.push_str("<p>");
        src.push_str(&"<k/>".repeat(k));
        src.push_str(&"<m/>".repeat(k % 5 + 1));
        src.push_str("</p>");
    }
    for k in 1..=20 {
        src.push_str("<q><p>");
        src.push_str(&"<k/>".repeat(k * 2));
        src.push_str("</p></q>");
    }
    src.push_str("</r>");
    parse_document(&src).unwrap()
}

#[test]
fn tsbuild_counters_match_its_report() {
    let doc = many_class_doc();
    let stable = build_stable(&doc);

    let recorder = axqa_obs::Recorder::new();
    recorder.install();
    let report = ts_build(&stable, &BuildConfig::with_budget(1));
    axqa_obs::uninstall();
    let snapshot = recorder.drain();

    // The build did real work, and counted it.
    assert!(snapshot.counter("tsbuild.merges") > 0, "{snapshot:?}");
    assert!(snapshot.counter("tsbuild.candidates_scored") > 0);
    assert!(snapshot.counter("tsbuild.reevals") > 0);
    // Counters agree with the build report they instrument.
    assert_eq!(
        snapshot.counter("tsbuild.merges"),
        u64::try_from(report.merges).unwrap()
    );
    assert_eq!(
        snapshot.counter("tsbuild.pool_rebuilds"),
        u64::try_from(report.pool_rebuilds).unwrap()
    );
    assert_eq!(
        snapshot.span_count("CREATEPOOL"),
        report.pool_rebuilds,
        "one CREATEPOOL span per pool rebuild"
    );

    // The whole build stays on the calling thread.
    let tids: std::collections::HashSet<u64> = snapshot.spans.iter().map(|s| s.tid).collect();
    assert_eq!(tids.len(), 1, "{tids:?}");
}
