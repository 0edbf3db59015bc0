// Benchmarks are test-like code: panicking extractors are acceptable here.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::arithmetic_side_effects
)]

//! The lazy stale-skipping merge queue in isolation (DESIGN.md §13):
//! `MergeQueue::from_pool` (heapify + score-memo seeding) and a full
//! pop/skip/rescore drain — exactly the per-pool work of one TSBUILD
//! merge round — at three pool sizes. The drain interleaves every path
//! the queue has: fresh pops handed to `apply_merge`, dead self-pairs
//! discarded, memo hits re-pushed without scoring, and
//! adjacency-invalidated entries re-evaluated lazily.

/// Bench binaries install the counting allocator (DESIGN.md §12)
/// so recorded spans carry real allocation profiles.
#[global_allocator]
static ALLOC: axqa_obs::alloc::CountingAlloc = axqa_obs::alloc::CountingAlloc;

use axqa_bench::Fixture;
use axqa_core::{create_candidate_pool, BuildConfig, ClusterState, MergeQueue, ScoreScratch};
use axqa_datagen::Dataset;
use axqa_synopsis::SizeModel;
use criterion::{criterion_group, criterion_main, Criterion};

/// The paper's `Lh` drain threshold (§4.2): pools drain down to this
/// length before TSBUILD regenerates them.
const LOWER: usize = 100;

/// One CREATEPOOL-sized candidate pool against a fresh state, capped at
/// `pool_size` by the `Uh` bound.
fn build_pool(fixture: &Fixture, pool_size: usize) -> Vec<axqa_core::MergeCandidate> {
    let state = ClusterState::new(&fixture.stable, SizeModel::TREESKETCH);
    let mut config = BuildConfig::with_budget(1);
    config.heap_upper = pool_size;
    let mut scratch = ScoreScratch::new();
    create_candidate_pool(&state, &config, &mut scratch)
}

fn bench_from_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_queue_seed");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));
    // The reference-config document size (BENCH_core.json): smaller
    // fixtures cannot fill a 10k-candidate pool, which would collapse
    // the three sizes into one.
    let fixture = Fixture::new(Dataset::SProt, 60_000, 0);
    // The first CREATEPOOL round of this fixture yields ~3.5k
    // candidates before the level loop exits, so the `Uh` sweep stays
    // below that to keep the three sizes distinct.
    for pool_size in [500usize, 1_500, 3_000] {
        let pool = build_pool(&fixture, pool_size);
        let state = ClusterState::new(&fixture.stable, SizeModel::TREESKETCH);
        group.bench_function(format!("from_pool/{pool_size}"), |b| {
            b.iter(|| {
                let queue = MergeQueue::from_pool(pool.clone(), &state);
                queue.len()
            })
        });
    }
    group.finish();
}

fn bench_drain(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_queue_drain");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(10));
    // The reference-config document size (BENCH_core.json): smaller
    // fixtures cannot fill a 10k-candidate pool, which would collapse
    // the three sizes into one.
    let fixture = Fixture::new(Dataset::SProt, 60_000, 0);
    // The first CREATEPOOL round of this fixture yields ~3.5k
    // candidates before the level loop exits, so the `Uh` sweep stays
    // below that to keep the three sizes distinct.
    for pool_size in [500usize, 1_500, 3_000] {
        let pool = build_pool(&fixture, pool_size);
        group.bench_function(format!("pop_skip_rescore/{pool_size}"), |b| {
            b.iter(|| {
                // ClusterState is not Clone; rebuild-and-replay keeps
                // each iteration identical (a fresh state from the same
                // stable summary has the same ids, versions, and
                // merge-generation stamps the pool was scored under).
                let mut state = ClusterState::new(&fixture.stable, SizeModel::TREESKETCH);
                let mut queue = MergeQueue::from_pool(pool.clone(), &state);
                let mut scratch = ScoreScratch::new();
                let mut merges = 0usize;
                while let Some((a, b)) = queue.next_merge(&mut state, &mut scratch, LOWER) {
                    state.apply_merge(a, b);
                    merges += 1;
                }
                let stats = queue.stats();
                (merges, stats.reevals, stats.stale_skipped)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_from_pool, bench_drain);
criterion_main!(benches);
