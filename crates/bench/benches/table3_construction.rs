// Benchmarks are test-like code: panicking extractors are acceptable here.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::arithmetic_side_effects
)]

//! Table 3 — construction time: TSBUILD (stable → label-split floor) vs
//! the workload-driven twig-XSketch build (label-split → 10 KB).
//!
//! The paper reports minutes on 2004 hardware at full scale; here the
//! datasets are scaled down and the *ratio* between the techniques is
//! the reproduced shape (TreeSketch construction is the faster of the
//! two because it never evaluates a query workload).

/// Bench binaries install the counting allocator (DESIGN.md §12)
/// so recorded spans carry real allocation profiles.
#[global_allocator]
static ALLOC: axqa_obs::alloc::CountingAlloc = axqa_obs::alloc::CountingAlloc;

use axqa_bench::Fixture;
use axqa_core::{ts_build, BuildConfig};
use axqa_datagen::Dataset;
use axqa_xsketch::build::{build_xsketch, XsBuildConfig};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3_construction");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));
    for dataset in [Dataset::Imdb, Dataset::XMark, Dataset::SProt] {
        let fixture = Fixture::new(dataset, 20_000, 0);
        let build_workload = fixture.build_workload(20);
        group.bench_function(format!("treesketch/{}", dataset.name()), |b| {
            b.iter(|| ts_build(&fixture.stable, &BuildConfig::with_budget(1)))
        });
        group.bench_function(format!("twig_xsketch/{}", dataset.name()), |b| {
            b.iter(|| {
                build_xsketch(
                    &fixture.stable,
                    &build_workload,
                    &XsBuildConfig::with_budget(10 * 1024),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_construction);
criterion_main!(benches);
