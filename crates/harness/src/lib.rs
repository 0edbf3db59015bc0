// Tests opt back into panicking extractors; library code returns errors
// (workspace lint table, DESIGN.md "Static analysis & invariants").
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )
)]

//! # axqa-harness — regenerating the paper's tables and figures
//!
//! One module per experiment, each producing a typed report with a
//! `print` method (paper-style rows) and CSV export. The `harness`
//! binary dispatches subcommands:
//!
//! | command    | reproduces                                              |
//! |------------|---------------------------------------------------------|
//! | `table1`   | Table 1 — dataset characteristics                        |
//! | `table2`   | Table 2 — workload characteristics                       |
//! | `table3`   | Table 3 — construction times                             |
//! | `fig11`    | Figure 11 — avg ESD of approximate answers vs budget     |
//! | `fig12`    | Figure 12 — avg selectivity error vs budget (TX)         |
//! | `fig13`    | Figure 13 — TreeSketch error on the large datasets       |
//! | `negative` | §6.1 — negative-workload behavior                        |
//! | `all`      | everything above (EXPERIMENTS.md source)                 |
//!
//! Wall-clock measurement of the pipeline, layer by layer, lives in
//! `benchmark/` (declared by `BENCHMARK.json`), not here.
//!
//! Scale control: `--scale f` multiplies every dataset's element target
//! (default 0.25 for figures — laptop-friendly while preserving the
//! shapes; `--scale 1` is the paper's scale), `--queries n` sets the
//! workload size (paper: 1000).

pub mod experiments;
pub mod pipeline;
pub mod report;

pub use pipeline::{PipelineConfig, Prepared};
