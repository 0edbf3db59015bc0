// Examples/integration tests are demo code: panicking extractors are fine.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::arithmetic_side_effects
)]

//! Property tests of the lazy stale-skipping merge queue
//! (`core/src/queue.rs`; DESIGN.md §13).
//!
//! The production TSBUILD path drains a `MergeQueue`: stale heap entries
//! whose endpoints' merge-generation stamps are unchanged are re-pushed
//! from a score memo instead of re-running `evaluate_merge`. The loop
//! rewrite kept the eager pop-and-rescore implementation as
//! `ts_build_eager`, and these tests pin the two bitwise under random
//! documents × budgets × pool bounds: the *full merge sequence*
//! (`merge_log` under `record_merges`), the pool-rebuild trajectory,
//! `squared_error` bits, final byte size, and every node of the final
//! sketch must be identical. Any divergence means a memo hit served a
//! ratio that eager re-evaluation would not have produced.

use axqa::core::{try_ts_build, ts_build_eager, BuildConfig, BuildReport};
use axqa::prelude::*;
use proptest::prelude::*;

/// A random tree: label index and children.
#[derive(Debug, Clone)]
struct Tree {
    label: u8,
    children: Vec<Tree>,
}

fn tree_strategy() -> impl Strategy<Value = Tree> {
    let leaf = (0u8..4).prop_map(|label| Tree {
        label,
        children: vec![],
    });
    leaf.prop_recursive(4, 60, 5, |inner| {
        ((0u8..4), prop::collection::vec(inner, 0..5))
            .prop_map(|(label, children)| Tree { label, children })
    })
}

fn label_name(index: u8) -> String {
    format!("l{index}")
}

fn to_document(tree: &Tree) -> Document {
    fn add(doc: &mut Document, parent: axqa::xml::NodeId, tree: &Tree) {
        let node = doc.add_child_named(parent, &label_name(tree.label));
        for child in &tree.children {
            add(doc, node, child);
        }
    }
    let mut doc = Document::new(&label_name(tree.label));
    let root = doc.root();
    for child in &tree.children {
        add(&mut doc, root, child);
    }
    doc
}

/// Asserts every observable of the two builds is identical, the
/// floating-point ones bitwise.
fn assert_reports_identical(lazy: &BuildReport, eager: &BuildReport, context: &str) {
    assert_eq!(lazy.merges, eager.merges, "{context}: merges");
    assert_eq!(
        lazy.pool_rebuilds, eager.pool_rebuilds,
        "{context}: pool_rebuilds"
    );
    assert_eq!(
        lazy.merge_log, eager.merge_log,
        "{context}: merge sequence diverged"
    );
    assert_eq!(
        lazy.squared_error.to_bits(),
        eager.squared_error.to_bits(),
        "{context}: squared_error {} vs {}",
        lazy.squared_error,
        eager.squared_error
    );
    assert_eq!(
        lazy.final_bytes, eager.final_bytes,
        "{context}: final_bytes"
    );
    assert_eq!(
        lazy.reached_budget, eager.reached_budget,
        "{context}: reached_budget"
    );
    assert_eq!(
        lazy.stable_assignment, eager.stable_assignment,
        "{context}: stable_assignment"
    );
    assert_eq!(lazy.sketch.len(), eager.sketch.len(), "{context}: nodes");
    for (l, e) in lazy.sketch.nodes().iter().zip(eager.sketch.nodes()) {
        assert_eq!(l, e, "{context}: sketch node diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The lazy queue reproduces the eager merge sequence bitwise at
    // every compression level, from barely-compressing down to the
    // label-split floor.
    #[test]
    fn lazy_queue_matches_eager_across_budgets(
        tree in tree_strategy(),
        frac in 1u32..100,
    ) {
        let doc = to_document(&tree);
        let stable = build_stable(&doc);
        let exact = SizeModel::TREESKETCH.graph_bytes(stable.len(), stable.num_edges());
        let random = (exact * frac as usize / 100).max(1);
        for budget in [exact / 2, exact / 4, exact / 8, random, 1] {
            let budget = budget.max(1);
            let mut config = BuildConfig::with_budget(budget);
            config.record_merges = true;
            let lazy = try_ts_build(&stable, &config).unwrap();
            let eager = ts_build_eager(&stable, &config).unwrap();
            assert_reports_identical(&lazy, &eager, &format!("budget {budget}"));
        }
    }

    // Tiny pool bounds force many CREATEPOOL rounds and Lh drains —
    // the regimes where the memo sees the most stale traffic and the
    // heap-length trajectory (pool_rebuilds) is easiest to perturb.
    #[test]
    fn lazy_queue_matches_eager_under_stressed_pool_bounds(
        tree in tree_strategy(),
        heap_upper in 2usize..24,
        lower_frac in 0usize..100,
    ) {
        let doc = to_document(&tree);
        let stable = build_stable(&doc);
        let exact = SizeModel::TREESKETCH.graph_bytes(stable.len(), stable.num_edges());
        let mut config = BuildConfig::with_budget((exact / 6).max(1));
        config.record_merges = true;
        config.heap_upper = heap_upper;
        config.heap_lower = heap_upper * lower_frac / 100;
        // Window pairing stresses duplicate/forwarded candidates.
        config.group_all_pairs_cap = 4;
        config.window = 2;
        let lazy = try_ts_build(&stable, &config).unwrap();
        let eager = ts_build_eager(&stable, &config).unwrap();
        assert_reports_identical(
            &lazy,
            &eager,
            &format!("Uh {heap_upper} Lh {}", config.heap_lower),
        );
    }
}
