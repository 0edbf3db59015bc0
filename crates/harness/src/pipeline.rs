//! Shared experiment pipeline: dataset → stable summary → workload →
//! exact ground truth, with parallel exact evaluation.

use axqa_datagen::workload::{positive_workload, WorkloadConfig};
use axqa_datagen::{generate, Dataset, GenConfig};
use axqa_eval::{evaluate, DocIndex, NestingTree};
use axqa_query::TwigQuery;
use axqa_synopsis::{build_stable, StableSummary};
use axqa_xml::Document;

/// Pipeline parameters.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Multiplier on the dataset's paper element count.
    pub scale: f64,
    /// Workload size (the paper uses 1000).
    pub queries: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads for exact evaluation (0 = available parallelism).
    pub threads: usize,
    /// Materialize exact nesting trees (needed for ESD experiments);
    /// selectivity-only experiments can skip them and use the direct
    /// tuple counter.
    pub need_nesting: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            scale: 0.25,
            queries: 200,
            seed: 0x5EED,
            threads: 0,
            need_nesting: true,
        }
    }
}

impl PipelineConfig {
    /// Worker-thread count to use.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        }
    }
}

/// A dataset prepared for experiments.
pub struct Prepared {
    /// Which dataset this is.
    pub dataset: Dataset,
    /// Whether the large-scale element target was used.
    pub large: bool,
    /// The document.
    pub doc: Document,
    /// Its count-stable summary.
    pub stable: StableSummary,
    /// Evaluation index.
    pub index: DocIndex,
    /// Positive twig workload.
    pub workload: Vec<TwigQuery>,
    /// Exact nesting trees; `None` per query when `need_nesting` was
    /// off (selectivity-only pipelines).
    pub nesting: Vec<Option<NestingTree>>,
    /// Exact binding-tuple counts.
    pub exact: Vec<f64>,
}

impl Prepared {
    /// Generates and fully prepares a dataset at TX (`large = false`) or
    /// large (`large = true`) scale.
    pub fn new(dataset: Dataset, large: bool, config: &PipelineConfig) -> Prepared {
        let base = if large {
            dataset.large_elements()
        } else {
            // DBLP has no TX row; fall back to its large count.
            let tx = dataset.tx_elements();
            if tx == 0 {
                dataset.large_elements()
            } else {
                tx
            }
        };
        let target = usize::try_from(axqa_xml::f64_to_u64(
            ((base as f64) * config.scale).max(2_000.0),
        ))
        .unwrap_or(usize::MAX);
        let doc = generate(
            dataset,
            &GenConfig {
                target_elements: target,
                seed: config.seed,
            },
        );
        let stable = build_stable(&doc);
        let index = DocIndex::build(&doc);
        let workload = positive_workload(
            &stable,
            &WorkloadConfig {
                count: config.queries,
                seed: config.seed ^ 0xA11CE,
                ..WorkloadConfig::default()
            },
        );
        let (nesting, exact) = exact_ground_truth(&doc, &index, &workload, config);
        Prepared {
            dataset,
            large,
            doc,
            stable,
            index,
            workload,
            nesting,
            exact,
        }
    }

    /// The paper's sanity bound `s`: the 10-percentile of true counts.
    pub fn sanity_bound(&self) -> f64 {
        let mut counts = self.exact.clone();
        counts.sort_by(f64::total_cmp);
        if counts.is_empty() {
            1.0
        } else {
            counts[counts.len() / 10].max(1.0)
        }
    }

    /// Average binding tuples per workload query (Table 2).
    pub fn avg_binding_tuples(&self) -> f64 {
        if self.exact.is_empty() {
            0.0
        } else {
            self.exact.iter().sum::<f64>() / self.exact.len() as f64
        }
    }
}

/// Index-parallel map: evaluates `f(0), …, f(n-1)` on `threads` scoped
/// workers (work-stealing via an atomic cursor) and returns the results
/// in index order. `threads <= 1` or `n <= 1` runs inline. This is the
/// one fan-out primitive of the harness — exact ground truth and the
/// per-budget/per-query experiment loops go through it.
pub fn parallel_map_indexed<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_indexed_with(threads, n, || (), |_, i| f(i))
}

/// [`parallel_map_indexed`] with per-worker scratch state: `init` builds
/// one `S` per worker (one total on the inline path) and `f` receives it
/// mutably alongside the index. This is how the query-serving loops
/// reuse an `EvalScratch` across calls without sharing it between
/// threads.
///
/// # Panics
///
/// If any worker closure panics, the panic is re-raised on the calling
/// thread once the scope joins.
pub fn parallel_map_indexed_with<S, T, I, F>(threads: usize, n: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 || n <= 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    // Utilization telemetry (DESIGN.md §12): region wall time vs summed
    // per-worker busy time.
    let region = axqa_obs::Stopwatch::start();
    // Each worker returns the `(index, value)` pairs it computed; the
    // pairs are put back in index order after the join, so no result
    // slot is shared between threads.
    let mut pairs: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let busy = axqa_obs::Stopwatch::start();
                    let mut state = init();
                    let mut done = Vec::new();
                    let mut items = 0u64;
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        done.push((i, f(&mut state, i)));
                        items = items.saturating_add(1);
                    }
                    axqa_obs::counter("parallel.busy_us", busy.elapsed_us());
                    axqa_obs::observe("parallel.worker_items", items);
                    // Tail events land after the last span's eager flush;
                    // push them out before the scope joins past us.
                    axqa_obs::flush();
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| match worker.join() {
                Ok(done) => done,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    });
    let wall_us = region.elapsed_us();
    axqa_obs::counter("parallel.regions", 1);
    axqa_obs::counter("parallel.wall_us", wall_us);
    axqa_obs::counter(
        "parallel.capacity_us",
        wall_us.saturating_mul(threads as u64),
    );
    pairs.sort_unstable_by_key(|pair| pair.0);
    pairs.into_iter().map(|(_, value)| value).collect()
}

/// Evaluates the workload exactly, in parallel.
fn exact_ground_truth(
    doc: &Document,
    index: &DocIndex,
    workload: &[TwigQuery],
    config: &PipelineConfig,
) -> (Vec<Option<NestingTree>>, Vec<f64>) {
    let threads = config.effective_threads().max(1);
    let results = parallel_map_indexed(threads, workload.len(), |i| {
        if config.need_nesting {
            let nt = evaluate(doc, index, &workload[i]);
            let count = nt
                .as_ref()
                .map_or(0.0, |tree| tree.binding_tuples(&workload[i]));
            (nt, count)
        } else {
            (
                None,
                axqa_eval::count_binding_tuples(doc, index, &workload[i]),
            )
        }
    });
    let mut nesting = Vec::with_capacity(workload.len());
    let mut exact = Vec::with_capacity(workload.len());
    for (nt, count) in results {
        nesting.push(nt);
        exact.push(count);
    }
    (nesting, exact)
}

/// The paper-literal relative error `|r − e| / max(e, s)` (§6.1).
pub fn relative_error(true_count: f64, estimate: f64, sanity: f64) -> f64 {
    (true_count - estimate).abs() / estimate.max(sanity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_small_dataset() {
        let config = PipelineConfig {
            scale: 0.05,
            queries: 20,
            seed: 9,
            threads: 2,
            need_nesting: true,
        };
        let p = Prepared::new(Dataset::Imdb, false, &config);
        assert_eq!(p.workload.len(), 20);
        assert_eq!(p.exact.len(), 20);
        assert!(p.exact.iter().all(|&c| c > 0.0), "positive workload");
        assert!(p.avg_binding_tuples() > 0.0);
        assert!(p.sanity_bound() >= 1.0);
    }

    #[test]
    fn relative_error_uses_paper_formula() {
        assert_eq!(relative_error(10.0, 5.0, 1.0), 1.0);
        assert_eq!(relative_error(10.0, 0.0, 2.0), 5.0);
        assert_eq!(relative_error(4.0, 4.0, 1.0), 0.0);
    }

    #[test]
    fn parallel_map_matches_serial_and_preserves_order() {
        let serial: Vec<usize> = parallel_map_indexed(1, 100, |i| i * i);
        let parallel: Vec<usize> = parallel_map_indexed(4, 100, |i| i * i);
        assert_eq!(serial, parallel);
        assert_eq!(serial[7], 49);
        let empty: Vec<usize> = parallel_map_indexed(4, 0, |i| i);
        assert!(empty.is_empty());
    }

    #[test]
    fn parallel_map_with_state_matches_stateless() {
        // Worker-local scratch must not change results or their order.
        let stateless: Vec<usize> = parallel_map_indexed(4, 64, |i| i * 3);
        let stateful: Vec<usize> =
            parallel_map_indexed_with(4, 64, Vec::<usize>::new, |scratch, i| {
                scratch.push(i); // scratch persists across a worker's items
                i * 3
            });
        assert_eq!(stateless, stateful);
        let inline: Vec<usize> = parallel_map_indexed_with(
            1,
            8,
            || 0usize,
            |acc, i| {
                *acc += i;
                *acc
            },
        );
        assert_eq!(inline, vec![0, 1, 3, 6, 10, 15, 21, 28]);
    }
}
