//! `harness` — regenerate the paper's tables and figures.
//!
//! ```text
//! harness <command> [options]
//!
//! commands:
//!   table1 | table2 | table3 | fig11 | fig12 | fig13 | negative
//!   ablation            bottom-up vs top-down construction
//!   family              §3.1 synopsis-family sizes (A(k), 1-index, stable)
//!   values              value-predicate estimation (extension)
//!   all                 every experiment in order
//!
//! Wall-clock measurement of the pipeline lives in `benchmark/` (declared
//! by `BENCHMARK.json`); `table3` is the paper's own construction-time
//! table.
//!
//! options:
//!   --scale F           dataset scale multiplier (default 0.25; 1 = paper)
//!   --queries N         workload size (default 200; paper = 1000)
//!   --esd-queries N     queries used for ESD (default 100)
//!   --budgets a,b,c     synopsis budgets in KB (default 10,20,30,40,50)
//!   --seed N            RNG seed (default 0x5EED)
//!   --threads N         worker threads (default: all cores)
//!   --no-xsketch        skip the slow twig-XSketch baseline
//!   --csv DIR           also write CSV files into DIR
//!   --trace PATH        record a Chrome trace_event timeline of the run
//!                       (open in chrome://tracing or ui.perfetto.dev)
//!   --metrics PATH      write the axqa-obs/2 metrics snapshot (counters,
//!                       histograms, per-span totals and allocations)
//! ```
//!
//! All argument errors flow back to `main` as `Err(message)` and exit
//! with status 2 (usage); the process never calls `std::process::exit`
//! (forbidden-api rule — destructors must run).

use axqa_harness::experiments::{
    ablation_topdown, family, fig11, fig12, fig13, negative, table1, table2, table3, values,
    ExperimentConfig,
};
use axqa_harness::PipelineConfig;
use std::process::ExitCode;

/// Every allocation this binary makes is tallied (DESIGN.md §12), so the
/// `--metrics` snapshot carries per-span allocation counts.
#[global_allocator]
static ALLOC: axqa_obs::alloc::CountingAlloc = axqa_obs::alloc::CountingAlloc;

const USAGE: &str = "usage: harness <table1|table2|table3|fig11|fig12|fig13|negative|ablation|\
                     family|values|all> [options]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("harness: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first().cloned() else {
        return Err(USAGE.to_string());
    };
    let (config, obs) = parse_experiment_args(&args[1..])?;

    println!(
        "# axqa harness — scale {:.2}, {} queries, seed {:#x}, budgets {:?} KB{}",
        config.pipeline.scale,
        config.pipeline.queries,
        config.pipeline.seed,
        config.budgets_kb,
        if config.with_xsketch {
            ""
        } else {
            ", no xsketch"
        },
    );
    let started = std::time::Instant::now();
    // Only pay for recording when an output was requested; without the
    // flags every span/counter stays a relaxed-atomic branch.
    let recorder = obs.wants_recording().then(|| {
        let recorder = axqa_obs::Recorder::new();
        recorder.install();
        recorder
    });
    match command.as_str() {
        "table1" => print_one(table1(&config)),
        "table2" => print_one(table2(&config)),
        "table3" => print_one(table3(&config)),
        "fig11" => print_many(fig11(&config)),
        "fig12" => print_many(fig12(&config)),
        "fig13" => print_one(fig13(&config)),
        "negative" => print_one(negative(&config)),
        "ablation" => print_one(ablation_topdown(&config)),
        "family" => print_one(family(&config)),
        "values" => print_one(values(&config)),
        "all" => {
            print_one(table1(&config));
            print_one(table2(&config));
            print_one(table3(&config));
            print_many(fig11(&config));
            print_many(fig12(&config));
            print_one(fig13(&config));
            print_one(negative(&config));
            print_one(family(&config));
            print_one(values(&config));
            print_one(ablation_topdown(&config));
        }
        other => return Err(format!("unknown command {other}\n{USAGE}")),
    }
    if let Some(recorder) = recorder {
        axqa_obs::uninstall();
        obs.write(&recorder.drain())?;
    }
    println!("# done in {:.1}s", started.elapsed().as_secs_f64());
    Ok(())
}

/// Where to write the run's observability outputs (`--trace`,
/// `--metrics`).
#[derive(Debug, Default)]
struct ObsOutputs {
    trace: Option<std::path::PathBuf>,
    metrics: Option<std::path::PathBuf>,
}

impl ObsOutputs {
    fn wants_recording(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some()
    }

    fn write(&self, snapshot: &axqa_obs::Snapshot) -> Result<(), String> {
        if let Some(path) = &self.trace {
            std::fs::write(path, axqa_obs::export::chrome_trace(snapshot))
                .map_err(|error| format!("could not write {}: {error}", path.display()))?;
            println!("# wrote trace {}", path.display());
        }
        if let Some(path) = &self.metrics {
            std::fs::write(path, axqa_obs::export::metrics_json(snapshot))
                .map_err(|error| format!("could not write {}: {error}", path.display()))?;
            println!("# wrote metrics {}", path.display());
        }
        Ok(())
    }
}

fn parse_experiment_args(args: &[String]) -> Result<(ExperimentConfig, ObsOutputs), String> {
    let mut config = ExperimentConfig {
        pipeline: PipelineConfig {
            scale: 0.25,
            queries: 200,
            seed: 0x5EED,
            threads: 0,
            need_nesting: true,
        },
        ..ExperimentConfig::default()
    };
    let mut obs = ObsOutputs::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| -> Result<String, String> {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--scale" => config.pipeline.scale = parse("--scale", &value("--scale")?)?,
            "--queries" => config.pipeline.queries = parse("--queries", &value("--queries")?)?,
            "--esd-queries" => {
                config.esd_queries = parse("--esd-queries", &value("--esd-queries")?)?;
            }
            "--seed" => config.pipeline.seed = parse("--seed", &value("--seed")?)?,
            "--threads" => config.pipeline.threads = parse("--threads", &value("--threads")?)?,
            "--no-xsketch" => config.with_xsketch = false,
            "--budgets" => config.budgets_kb = parse_budgets(&value("--budgets")?)?,
            "--csv" => config.csv_dir = Some(value("--csv")?.into()),
            "--trace" => obs.trace = Some(value("--trace")?.into()),
            "--metrics" => obs.metrics = Some(value("--metrics")?.into()),
            other => return Err(format!("unknown option {other}\n{USAGE}")),
        }
    }
    Ok((config, obs))
}

fn print_one(table: axqa_harness::report::Table) {
    println!("{}", table.render());
}

fn print_many(tables: Vec<axqa_harness::report::Table>) {
    for table in tables {
        println!("{}", table.render());
    }
}

fn parse<T: std::str::FromStr>(name: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("could not parse {name} value {text:?}"))
}

fn parse_budgets(text: &str) -> Result<Vec<usize>, String> {
    text.split(',')
        .map(|s| parse::<usize>("--budgets", s.trim()))
        .collect()
}
