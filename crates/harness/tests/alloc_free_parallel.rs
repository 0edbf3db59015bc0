// Integration tests opt back into panicking extractors (workspace lint
// table, DESIGN.md "Static analysis & invariants").
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Dynamic checks for the `pipeline::parallel_map_indexed_with` hot-path
//! root: worker-item spans stay alloc-free — the driver's own
//! handle/result allocations are granted and attributed *outside* the
//! item spans — and every parallel region reports its `parallel.*`
//! utilization counters.

use axqa_harness::pipeline::parallel_map_indexed_with;

/// Allocation attribution needs the counting allocator in this binary.
#[global_allocator]
static ALLOC: axqa_obs::alloc::CountingAlloc = axqa_obs::alloc::CountingAlloc;

#[test]
fn parallel_worker_spans_are_alloc_free_and_report_utilization() {
    const ITEMS: usize = 64;
    const THREADS: usize = 3;
    let recorder = axqa_obs::Recorder::new();
    recorder.install();
    // Per-item body: open a span and do pure arithmetic on per-worker
    // state — the shape every harness experiment is expected to keep.
    let out = parallel_map_indexed_with(
        THREADS,
        ITEMS,
        || 0u64,
        |acc, i| {
            let _span = axqa_obs::span("test.worker_item");
            *acc = acc.wrapping_add(i as u64);
            *acc + i as u64
        },
    );
    axqa_obs::uninstall();
    let snapshot = recorder.drain();

    assert_eq!(out.len(), ITEMS);
    assert_eq!(snapshot.span_count("test.worker_item"), ITEMS);

    // The driver allocates (worker handles, result lists — granted via
    // [[alloc-ok]]), but exclusive attribution keeps those events out
    // of the item spans: the measured loop body is alloc-free.
    assert_eq!(snapshot.span_alloc_count("test.worker_item"), 0);
    assert_eq!(snapshot.span_alloc_bytes("test.worker_item"), 0);

    // Utilization telemetry: one region, capacity = wall x threads, and
    // every item accounted to exactly one worker.
    assert_eq!(snapshot.counter("parallel.regions"), 1);
    let wall = snapshot.counter("parallel.wall_us");
    assert_eq!(
        snapshot.counter("parallel.capacity_us"),
        wall * THREADS as u64
    );
    let items = snapshot
        .histograms
        .iter()
        .find(|(name, _)| name == "parallel.worker_items")
        .map(|(_, hist)| hist)
        .expect("per-worker item histogram");
    assert_eq!(items.count, THREADS as u64);
    assert_eq!(items.sum, ITEMS as u64);
}
