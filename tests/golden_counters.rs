// Integration tests opt back into panicking extractors (workspace lint
// table, DESIGN.md "Static analysis & invariants").
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Golden determinism counters of the reference build-and-estimate run:
//! an XMark document of 60,000 elements (seed 24301), one TSBUILD per
//! budget from 10 to 50 KB, and 200 positive queries (seed
//! `24301 ^ 0xA11CE`) estimated over the 10 KB sketch.
//!
//! TSBUILD and EVALQUERY are deterministic, so every figure is pinned
//! exactly. A change that moves one (a different merge order, a scoring
//! change, a counter that counts differently) updates the constant here
//! and says why in CHANGES.md; that includes `tsbuild.reevals` going
//! down. Wall-clock time is measured by `benchmark/`, not here.
//!
//! Kept as a single `#[test]` in its own binary because the axqa-obs
//! recorder is process-wide state.

use axqa::core::{
    estimate_selectivity, eval_query_with_scratch, ts_build, BuildConfig, EvalConfig, EvalScratch,
};
use axqa::datagen::workload::{positive_workload, WorkloadConfig};
use axqa::datagen::{generate, Dataset, GenConfig};
use axqa::synopsis::build_stable;
use axqa::synopsis::size::kb;

const ELEMENTS: usize = 60_000;
const SEED: u64 = 24_301;
const QUERIES: usize = 200;

/// What one TSBUILD at one budget did and produced.
#[derive(Debug, PartialEq)]
struct BudgetRow {
    budget_kb: usize,
    merges: usize,
    pool_rebuilds: usize,
    final_bytes: usize,
    nodes: usize,
    edges: usize,
    squared_error_bits: u64,
}

const BUDGETS: [BudgetRow; 5] = [
    BudgetRow {
        budget_kb: 10,
        merges: 2_158,
        pool_rebuilds: 2,
        final_bytes: 10_216,
        nodes: 343,
        edges: 934,
        squared_error_bits: 0x40cc_fdf4_1421_2040, // 14843.9
    },
    BudgetRow {
        budget_kb: 20,
        merges: 1_944,
        pool_rebuilds: 2,
        final_bytes: 20_464,
        nodes: 557,
        edges: 2_001,
        squared_error_bits: 0x40cc_9fb0_dcd8_d2e2, // 14655.4
    },
    BudgetRow {
        budget_kb: 30,
        merges: 1_801,
        pool_rebuilds: 2,
        final_bytes: 30_648,
        nodes: 700,
        edges: 3_131,
        squared_error_bits: 0x40cc_6e48_a9f0_74d0, // 14556.6
    },
    BudgetRow {
        budget_kb: 40,
        merges: 1_644,
        pool_rebuilds: 2,
        final_bytes: 40_936,
        nodes: 857,
        edges: 4_260,
        squared_error_bits: 0x40cc_5588_a9f0_74d0, // 14507.1
    },
    BudgetRow {
        budget_kb: 50,
        merges: 1_336,
        pool_rebuilds: 1,
        final_bytes: 51_088,
        nodes: 1_165,
        edges: 5_221,
        squared_error_bits: 0x40c4_6fd4_b3bd_0f50, // 10463.7
    },
];

/// Counters summed over the five builds and the query pass.
const COUNTERS: [(&str, u64); 8] = [
    ("tsbuild.merges", 8_883),
    ("tsbuild.pool_rebuilds", 9),
    ("tsbuild.candidates_scored", 76_515),
    ("tsbuild.reevals", 38_338),
    ("tsbuild.stale_skipped", 78_692),
    ("tsbuild.adjacent_rescored", 5_621),
    ("evalquery.automaton_states", 69_736),
    ("evalquery.embeddings_expanded", 5_469),
];

/// Bits of the workload's summed `estimate_selectivity`, added in
/// workload order.
const SELECTIVITY_SUM_BITS: u64 = 0x41ce_3d1c_16dd_f882; // 1014642733.734

#[test]
fn reference_run_reproduces_its_golden_counters() {
    let doc = generate(
        Dataset::XMark,
        &GenConfig {
            target_elements: ELEMENTS,
            seed: SEED,
        },
    );
    let stable = build_stable(&doc);
    let workload = positive_workload(
        &stable,
        &WorkloadConfig {
            count: QUERIES,
            seed: SEED ^ 0xA11CE,
            ..WorkloadConfig::default()
        },
    );
    assert_eq!(workload.len(), QUERIES);

    let recorder = axqa_obs::Recorder::new();
    recorder.install();
    let reports: Vec<_> = BUDGETS
        .iter()
        .map(|row| ts_build(&stable, &BuildConfig::with_budget(kb(row.budget_kb))))
        .collect();
    let eval_config = EvalConfig::default();
    let mut scratch = EvalScratch::new();
    let mut selectivity_sum = 0.0f64;
    for query in &workload {
        if let Some(result) =
            eval_query_with_scratch(&reports[0].sketch, query, &eval_config, None, &mut scratch)
        {
            selectivity_sum += estimate_selectivity(&result, query);
        }
    }
    axqa_obs::uninstall();
    let snapshot = recorder.drain();

    let rows: Vec<BudgetRow> = BUDGETS
        .iter()
        .zip(&reports)
        .map(|(row, report)| BudgetRow {
            budget_kb: row.budget_kb,
            merges: report.merges,
            pool_rebuilds: report.pool_rebuilds,
            final_bytes: report.final_bytes,
            nodes: report.sketch.len(),
            edges: report.sketch.num_edges(),
            squared_error_bits: report.squared_error.to_bits(),
        })
        .collect();
    assert_eq!(rows, BUDGETS);

    let counters: Vec<(&str, u64)> = COUNTERS
        .iter()
        .map(|&(name, _)| (name, snapshot.counter(name)))
        .collect();
    assert_eq!(counters, COUNTERS);
    // Scratch bookkeeping is not pinned, only required to happen: after
    // CREATEPOOL warms the workspace, scoring reuses it, and stats
    // lookups go through the sorted binary search.
    for name in ["tsbuild.scratch_reuses", "tsbuild.stat_bsearch"] {
        assert!(snapshot.counter(name) > 0, "{name} never counted");
    }

    assert_eq!(
        selectivity_sum.to_bits(),
        SELECTIVITY_SUM_BITS,
        "summed estimate {selectivity_sum} (bits {:#018x})",
        selectivity_sum.to_bits()
    );
}
