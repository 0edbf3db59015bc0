//! One run: set-up repetitions, the quality pass, the closed timed
//! loop, and its metrics. A traced run (`--trace 1`) installs
//! an `axqa_obs::Recorder` and reports per-layer metrics; end-to-end
//! metrics come only from untraced runs.

use crate::inputs::distinct_share;
use crate::layers::Layers;
use crate::stats::{median, peak_rss_mb, percentile};
use crate::workloads::{Book, Step, Workload};
use axqa_obs::{Recorder, Stopwatch};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A run repeats set-up at least this many times and for at least
/// `SETUP_MIN_S` seconds in all; `setup_s` is the median. The
/// repetitions are spread over the timed loop, so that set-up samples
/// the host over the same stretch as the operations: this host runs
/// fast or slow for tens of seconds at a time, and set-ups made back to
/// back all land in one such stretch.
pub const SETUP_MIN_REPS: usize = 9;
pub const SETUP_MIN_S: f64 = 2.0;

/// End-to-end metrics: name and unit. Every workload reports all of
/// them; what one operation is depends on the workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p99", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run: name and unit. A layer a workload
/// does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("xml.parse_s", "s"),
    ("xml.parse_mb_per_s", "MB/s"),
    ("synopsis.build_stable_s", "s"),
    ("synopsis.stable_classes", "count"),
    ("core.createpool_s", "s"),
    ("tsbuild.candidates_scored", "count"),
    ("tsbuild.pool_rebuilds", "count"),
    ("parallel.utilization_pct", "%"),
    ("core.merge_score_s", "s"),
    ("tsbuild.reevals", "count"),
    ("tsbuild.stale_skipped", "count"),
    ("tsbuild.adjacent_rescored", "count"),
    ("tsbuild.rescore_ratio", "ratio"),
    ("core.merge_apply_s", "s"),
    ("core.merge_apply_us_per_merge", "us"),
    ("core.merge_apply_allocs", "count"),
    ("tsbuild.merges", "count"),
    ("core.merge_loop_self_s", "s"),
    ("core.tsbuild_self_s", "s"),
    ("core.to_sketch_s", "s"),
    ("core.to_text_s", "s"),
    ("core.sketch_bytes", "bytes"),
    ("core.load_sketch_s", "s"),
    ("query.parse_twig_us_p50", "us"),
    ("core.evalquery_us_p50", "us"),
    ("core.evalquery_us_p99", "us"),
    ("core.evalquery_allocs_per_query", "count"),
    ("evalquery.automaton_states", "count"),
    ("evalquery.embeddings_expanded", "count"),
    ("core.selectivity_us_p50", "us"),
    ("eval.doc_index_s", "s"),
    ("eval.evaluate_ms_p50", "ms"),
    ("distance.esd_ms_p50", "ms"),
    ("quality.sketch_sq_error", "sq_count"),
    ("quality.sel_rel_err_mean", "ratio"),
    ("quality.esd_mean", "esd"),
    ("share.createpool_pct", "%"),
    ("share.merge_score_pct", "%"),
    ("share.merge_apply_pct", "%"),
    ("share.to_sketch_pct", "%"),
    ("share.evalquery_pct", "%"),
    ("share.exact_eval_pct", "%"),
    ("share.esd_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Counter families that must repeat exactly for one seed.
const DETERMINISTIC_COUNTERS: [&str; 2] = ["tsbuild.", "evalquery."];

/// The result of one run.
#[derive(Debug)]
pub struct RunResult {
    pub book: Book,
    /// `(name, unit, value)` in the order of `END_TO_END` or `PER_LAYER`.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// One JSON object recording the host, the inputs and the checks.
    pub info: String,
    /// Values that must repeat exactly across runs of one seed.
    pub deterministic: BTreeMap<String, String>,
}

/// What the traced phases recorded.
#[derive(Default)]
struct Traced {
    setup: Layers,
    quality: Layers,
    timed: Layers,
    timed_ops: usize,
    untraced_p50_ms: f64,
    traced_p50_ms: f64,
}

pub fn run(workload: &mut dyn Workload, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let mut book = Book::default();
    let recorder = Recorder::new();
    let mut traced = Traced::default();
    if trace {
        recorder.install();
    }

    let mut setups = SetUps::new(seconds);
    setups.rep(
        workload,
        &mut book,
        trace.then_some((&recorder, &mut traced)),
    )?;

    workload.quality_pass(&mut book)?;
    if trace {
        traced.quality.absorb(&recorder.drain());
    }

    let samples = if trace {
        axqa_obs::uninstall();
        let untraced = timed_loop(workload, seconds / 2.0, &mut book, &mut setups, None)?;
        recorder.install();
        let samples = timed_loop(
            workload,
            seconds / 2.0,
            &mut book,
            &mut setups,
            Some((&recorder, &mut traced)),
        )?;
        axqa_obs::uninstall();
        traced.timed_ops = samples.ms.len();
        traced.untraced_p50_ms = median(&untraced.ms);
        traced.traced_p50_ms = median(&samples.ms);
        samples
    } else {
        timed_loop(workload, seconds, &mut book, &mut setups, None)?
    };
    let setup_s = setups.seconds;
    book.check(!samples.ms.is_empty(), || "no operation completed".into());

    let peak_rss = peak_rss_mb().unwrap_or(0.0);
    book.check(peak_rss > 0.0, || "peak RSS unavailable".into());
    let used = workload.queries_used();
    let distinct = distinct_share(used.iter().copied());
    book.check(distinct == 1.0, || {
        format!("only {distinct} of the queries are distinct")
    });

    let mut deterministic: BTreeMap<String, String> = [
        ("quality.sketch_sq_error", workload.sketch_sq_error()),
        ("core.sketch_bytes", workload.sketch_bytes()),
        ("quality.sel_rel_err_mean", workload.sel_rel_err_mean()),
        ("quality.esd_mean", workload.esd_mean()),
    ]
    .iter()
    .map(|&(name, value)| (name.to_string(), repr(value)))
    .collect();

    let layer_values = trace.then(|| per_layer(workload, &traced, setups.recorded));
    let metrics: Vec<(&'static str, &'static str, f64)> = if let Some(values) = &layer_values {
        // The number of set-ups varies with the host's speed, so set-up
        // counters are kept per repetition (each must equal the first's).
        let per_setup = setups.first.take().unwrap_or_default();
        let quality = traced.quality.counters_with(&DETERMINISTIC_COUNTERS);
        for (name, value) in per_setup.into_iter().chain(quality) {
            deterministic.insert(name, value.to_string());
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let total_s = samples.ms.iter().sum::<f64>() / 1e3;
        let values = [
            median(&setup_s),
            median(&samples.ms),
            percentile(&samples.ms, 99.0),
            if total_s > 0.0 {
                samples.ms.len() as f64 / total_s
            } else {
                0.0
            },
            peak_rss,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect()
    };

    let info = info_json(
        workload,
        &book,
        &samples,
        &setup_s,
        (distinct, used.len()),
        &traced,
        layer_values.as_ref(),
    );
    Ok(RunResult {
        book,
        metrics,
        info,
        deterministic,
    })
}

/// Per-operation samples of one timed loop.
struct Samples {
    ms: Vec<f64>,
    exhausted: bool,
}

/// The set-up repetitions of one run.
struct SetUps {
    /// Timed loop length of the whole run, and how much of it has run.
    run_ms: f64,
    done_ms: f64,
    seconds: Vec<f64>,
    /// Repetitions a recorder saw (in traced runs, the first one and
    /// those in the traced half of the loop).
    recorded: usize,
    first: Option<BTreeMap<String, u64>>,
}

impl SetUps {
    fn new(run_seconds: f64) -> SetUps {
        SetUps {
            run_ms: run_seconds * 1e3,
            done_ms: 0.0,
            seconds: Vec::new(),
            recorded: 0,
            first: None,
        }
    }

    /// Whether the repetitions lag behind the timed loop's progress.
    fn due(&self) -> bool {
        let progress = self.done_ms / self.run_ms;
        let total_s: f64 = self.seconds.iter().sum();
        (self.seconds.len() as f64) < SETUP_MIN_REPS as f64 * progress
            || total_s < SETUP_MIN_S * progress
    }

    /// One timed set-up; a traced one is drained into the set-up layers
    /// and its counters must repeat those of the first.
    fn rep(
        &mut self,
        workload: &mut dyn Workload,
        book: &mut Book,
        tracer: Option<(&Recorder, &mut Traced)>,
    ) -> Result<(), String> {
        let watch = Stopwatch::start();
        workload.set_up(book)?;
        self.seconds.push(watch.elapsed_ms() / 1e3);
        if let Some((recorder, traced)) = tracer {
            let snapshot = recorder.drain();
            let mut rep = Layers::default();
            rep.absorb(&snapshot);
            traced.setup.absorb(&snapshot);
            self.recorded += 1;
            check_same_counters(book, &mut self.first, &rep, "set-up repetition");
        }
        Ok(())
    }
}

/// Runs operations back to back until their summed time reaches
/// `seconds`, with the set-up repetitions that fall due between them. A
/// traced loop drains the recorder every `ops_per_drain` operations and
/// before each set-up.
fn timed_loop(
    workload: &mut dyn Workload,
    seconds: f64,
    book: &mut Book,
    setups: &mut SetUps,
    mut tracer: Option<(&Recorder, &mut Traced)>,
) -> Result<Samples, String> {
    let mut samples = Samples {
        ms: Vec::new(),
        exhausted: false,
    };
    let mut total_ms = 0.0;
    let mut since_drain = 0;
    let mut first_op: Option<BTreeMap<String, u64>> = None;
    while total_ms < seconds * 1e3 {
        match workload.op(book) {
            Step::Timed(ms) => {
                samples.ms.push(ms);
                total_ms += ms;
                setups.done_ms += ms;
            }
            Step::Failed => {}
            Step::Exhausted => {
                samples.exhausted = true;
                break;
            }
        }
        if let Some((recorder, traced)) = tracer.as_mut() {
            since_drain += 1;
            if since_drain == workload.ops_per_drain() {
                since_drain = 0;
                let snapshot = recorder.drain();
                traced.timed.absorb(&snapshot);
                if workload.identical_ops() {
                    let mut op = Layers::default();
                    op.absorb(&snapshot);
                    check_same_counters(book, &mut first_op, &op, "operation");
                }
            }
        }
        if setups.due() {
            if let Some((recorder, traced)) = tracer.as_mut() {
                traced.timed.absorb(&recorder.drain());
                since_drain = 0;
            }
            setups.rep(workload, book, tracer.as_mut().map(|(r, t)| (*r, &mut **t)))?;
        }
    }
    if let Some((recorder, traced)) = tracer {
        traced.timed.absorb(&recorder.drain());
    }
    Ok(samples)
}

/// Determinism within a run: repeated identical work must move every
/// `tsbuild.*`/`evalquery.*` counter by exactly the same amount.
fn check_same_counters(
    book: &mut Book,
    first: &mut Option<BTreeMap<String, u64>>,
    layers: &Layers,
    what: &str,
) {
    let counters = layers.counters_with(&DETERMINISTIC_COUNTERS);
    match first {
        Some(reference) => book.check(*reference == counters, || {
            format!("{what} counters differ: {reference:?} vs {counters:?}")
        }),
        None => *first = Some(counters),
    }
}

/// Exact text of a float (Rust prints the shortest round-trip form).
fn repr(value: f64) -> String {
    format!("{value:?}")
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

fn per_layer(
    workload: &dyn Workload,
    traced: &Traced,
    setup_reps: usize,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let input = workload.input();
    let setup = &traced.setup;
    let timed = &traced.timed;

    let parse = setup.span("xml.parse");
    let parse_s = median(&parse.samples_us) / 1e6;
    m.insert("xml.parse_s", parse_s);
    m.insert(
        "xml.parse_mb_per_s",
        if parse_s > 0.0 {
            input.doc_bytes as f64 / 1e6 / parse_s
        } else {
            0.0
        },
    );
    m.insert(
        "synopsis.build_stable_s",
        median(&setup.span("synopsis.build_stable").samples_us) / 1e6,
    );
    m.insert("synopsis.stable_classes", input.stable_classes as f64);

    // TSBUILD runs in the timed loop (summarize workloads, per pass over
    // the budget list) or in the set-up (per repetition).
    let (builds, passes) = if timed.span("TSBUILD").calls > 0 {
        (timed, traced.timed_ops.max(1))
    } else {
        (setup, setup_reps)
    };
    let passes = passes as f64;
    let per_pass_s = |name: &str| builds.span(name).total_s() / passes;
    let per_pass = |name: &str| builds.counter(name) as f64 / passes;
    m.insert("core.createpool_s", per_pass_s("CREATEPOOL"));
    for name in [
        "tsbuild.candidates_scored",
        "tsbuild.pool_rebuilds",
        "tsbuild.reevals",
        "tsbuild.stale_skipped",
        "tsbuild.adjacent_rescored",
        "tsbuild.merges",
    ] {
        m.insert(name, per_pass(name));
    }
    m.insert(
        "parallel.utilization_pct",
        pct(
            builds.counter("parallel.busy_us") as f64,
            builds.counter("parallel.capacity_us") as f64,
        ),
    );
    let reevals = builds.counter("tsbuild.reevals") as f64;
    let stale = builds.counter("tsbuild.stale_skipped") as f64;
    m.insert(
        "tsbuild.rescore_ratio",
        if reevals + stale > 0.0 {
            reevals / (reevals + stale)
        } else {
            0.0
        },
    );
    m.insert("core.merge_score_s", per_pass_s("TSBUILD.merge_loop.score"));
    let apply = builds.span("TSBUILD.merge_loop.apply");
    m.insert("core.merge_apply_s", apply.total_s() / passes);
    let merges = builds.counter("tsbuild.merges") as f64;
    m.insert(
        "core.merge_apply_us_per_merge",
        if merges > 0.0 {
            apply.total_us as f64 / merges
        } else {
            0.0
        },
    );
    m.insert("core.merge_apply_allocs", apply.allocs as f64 / passes);
    // Self times: loop and build time outside every named layer.
    m.insert(
        "core.merge_loop_self_s",
        builds.span("TSBUILD.merge_loop").self_s() / passes,
    );
    m.insert(
        "core.tsbuild_self_s",
        builds.span("TSBUILD").self_s() / passes,
    );
    m.insert("core.to_sketch_s", per_pass_s("TSBUILD.to_sketch"));
    m.insert("core.to_text_s", per_pass_s("core.to_text"));
    m.insert("core.sketch_bytes", workload.sketch_bytes());
    m.insert(
        "core.load_sketch_s",
        median(&setup.span("core.load_sketch").samples_us) / 1e6,
    );

    let tsbuild_s = builds.span("TSBUILD").total_s();
    m.insert(
        "share.createpool_pct",
        pct(builds.span("CREATEPOOL").total_s(), tsbuild_s),
    );
    m.insert(
        "share.merge_score_pct",
        pct(builds.span("TSBUILD.merge_loop.score").total_s(), tsbuild_s),
    );
    m.insert("share.merge_apply_pct", pct(apply.total_s(), tsbuild_s));
    m.insert(
        "share.to_sketch_pct",
        pct(builds.span("TSBUILD.to_sketch").total_s(), tsbuild_s),
    );

    m.insert(
        "query.parse_twig_us_p50",
        median(&timed.span("query.parse_twig").samples_us),
    );
    let evalquery = timed.span("EVALQUERY");
    m.insert("core.evalquery_us_p50", median(&evalquery.samples_us));
    m.insert(
        "core.evalquery_us_p99",
        percentile(&evalquery.samples_us, 99.0),
    );
    m.insert(
        "core.evalquery_allocs_per_query",
        if evalquery.calls > 0 {
            evalquery.allocs as f64 / evalquery.calls as f64
        } else {
            0.0
        },
    );
    // The quality pass runs a fixed query set, so its counters repeat.
    let quality = &traced.quality;
    let quality_queries = quality.span("EVALQUERY").calls as f64;
    for name in [
        "evalquery.automaton_states",
        "evalquery.embeddings_expanded",
    ] {
        m.insert(
            name,
            if quality_queries > 0.0 {
                quality.counter(name) as f64 / quality_queries
            } else {
                0.0
            },
        );
    }
    m.insert(
        "core.selectivity_us_p50",
        median(&timed.span("core.selectivity").samples_us),
    );
    m.insert(
        "eval.doc_index_s",
        median(&setup.span("eval.doc_index").samples_us) / 1e6,
    );
    m.insert(
        "eval.evaluate_ms_p50",
        median(&timed.span("eval.evaluate").samples_us) / 1e3,
    );
    m.insert(
        "distance.esd_ms_p50",
        median(&timed.span("distance.esd").samples_us) / 1e3,
    );
    m.insert("quality.sketch_sq_error", workload.sketch_sq_error());
    m.insert("quality.sel_rel_err_mean", workload.sel_rel_err_mean());
    m.insert("quality.esd_mean", workload.esd_mean());

    let op_s = timed.span("bench.op").total_s();
    m.insert("share.evalquery_pct", pct(evalquery.total_s(), op_s));
    m.insert(
        "share.exact_eval_pct",
        pct(timed.span("eval.evaluate").total_s(), op_s),
    );
    m.insert(
        "share.esd_pct",
        pct(timed.span("distance.esd").total_s(), op_s),
    );
    m.insert(
        "trace.overhead_pct",
        pct(
            traced.traced_p50_ms - traced.untraced_p50_ms,
            traced.untraced_p50_ms,
        ),
    );
    m
}

/// The layer shares the benchmark was designed around, as measured.
fn predictions(m: &BTreeMap<&'static str, f64>) -> String {
    let get = |name: &str| m.get(name).copied().unwrap_or(0.0);
    let apply = get("share.merge_apply_pct");
    let apply_largest = apply > 0.0
        && [
            "share.createpool_pct",
            "share.merge_score_pct",
            "share.to_sketch_pct",
        ]
        .iter()
        .all(|other| apply > get(other));
    format!(
        concat!(
            "{{\"merge_apply_is_largest_tsbuild_layer\": {}, ",
            "\"evalquery_over_half_of_op\": {}, ",
            "\"exact_eval_plus_esd_over_half_of_op\": {}}}"
        ),
        apply_largest,
        get("share.evalquery_pct") > 50.0,
        get("share.exact_eval_pct") + get("share.esd_pct") > 50.0,
    )
}

/// A JSON string literal.
pub fn json_str(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn info_json(
    workload: &dyn Workload,
    book: &Book,
    samples: &Samples,
    setup_s: &[f64],
    (distinct, queries): (f64, usize),
    traced: &Traced,
    layer_values: Option<&BTreeMap<&'static str, f64>>,
) -> String {
    let input = workload.input();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = axqa_core::BuildConfig::with_budget(1).effective_threads();
    let mut out = String::new();
    let _ = write!(
        out,
        concat!(
            "{{\"info\": {{\"cpus\": {}, \"effective_threads\": {}, \"budgets_kb\": {:?}, ",
            "\"doc_bytes\": {}, \"elements\": {}, \"stable_classes\": {}, ",
            "\"queries\": {}, \"distinct_share\": {}, \"timed_ops\": {}, ",
            "\"timed_s\": {}, \"inputs_exhausted\": {}, \"setup_s\": {:?}"
        ),
        cpus,
        threads,
        input.budgets_kb,
        input.doc_bytes,
        input.elements,
        input.stable_classes,
        queries,
        distinct,
        samples.ms.len(),
        samples.ms.iter().sum::<f64>() / 1e3,
        samples.exhausted,
        setup_s,
    );
    if let Some(values) = layer_values {
        let _ = write!(
            out,
            ", \"untraced_op_ms_p50\": {}, \"traced_op_ms_p50\": {}, \"predictions\": {}",
            traced.untraced_p50_ms,
            traced.traced_p50_ms,
            predictions(values)
        );
    }
    let notes: Vec<String> = book.notes.iter().map(|n| json_str(n)).collect();
    let _ = write!(out, ", \"failures\": [{}]}}}}", notes.join(", "));
    out
}
