//! `axqa` — command-line front end for TreeSketch approximate answering.
//!
//! ```text
//! axqa stats <doc.xml>
//!     Document statistics (elements, size, labels, height, fan-out).
//!
//! axqa summarize <doc.xml> --budget 10KB -o <sketch.ts> [--values f]
//!     Build the count-stable summary, compress it with TSBUILD, save;
//!     --values additionally writes the value layer.
//!
//! axqa estimate <sketch.ts> -q "q1: q0 //a[//b]; q2: q1 //p" [--values f]
//!     Selectivity estimate from a saved synopsis (';' separates lines);
//!     --values loads a value layer so `[. op c]` predicates estimate.
//!
//! axqa preview <sketch.ts> -q <twig> [--expand N]
//!     Approximate answer: result-sketch dump, or an expanded concrete
//!     answer tree capped at N nodes.
//!
//! axqa exact <doc.xml> -q <twig>
//!     Exact selectivity (ground truth; reads the whole document).
//!
//! axqa generate <xmark|imdb|sprot|dblp> --elements N [--seed S] -o <doc.xml>
//!     Synthetic dataset generation.
//!
//! axqa workload <doc.xml> -n 100 [--seed S] [--negative]
//!     Sample a twig workload from the document's stable summary.
//! ```
//!
//! Exit status: 0 on success, 1 when the command fails (unreadable or
//! malformed input), 2 on a usage error (unknown command or option,
//! missing or extra argument, bad option value).

use axqa_core::{
    eval_query, eval_query_with_values, expand_result, try_ts_build, BuildConfig, EvalConfig,
    TreeSketch,
};
use axqa_datagen::workload::{negative_workload, positive_workload, WorkloadConfig};
use axqa_datagen::{generate, Dataset, GenConfig};
use axqa_eval::DocIndex;
use axqa_query::{parse_twig, TwigQuery};
use axqa_synopsis::build_stable;
use axqa_xml::{parse_document, write_document, DocStats, Document};
use std::process::ExitCode;

fn main() -> ExitCode {
    let (message, code) = match run() {
        Ok(()) => return ExitCode::SUCCESS,
        Err(Failure::Usage(message)) => (message, 2),
        Err(Failure::Run(message)) => (message, 1),
    };
    eprintln!("error: {message}");
    ExitCode::from(code)
}

/// Why a command failed, which decides the exit status.
enum Failure {
    /// The command line is wrong: exit 2.
    Usage(String),
    /// The command ran and failed: exit 1.
    Run(String),
}

impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure::Run(message)
    }
}

fn usage(message: impl Into<String>) -> Failure {
    Failure::Usage(message.into())
}

fn run() -> Result<(), Failure> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return Err(usage(
            "usage: axqa <stats|summarize|estimate|preview|exact|generate|workload> …",
        ));
    };
    let rest = &args[1..];
    match command.as_str() {
        "stats" => cmd_stats(rest),
        "summarize" => cmd_summarize(rest),
        "estimate" => cmd_estimate(rest),
        "preview" => cmd_preview(rest),
        "exact" => cmd_exact(rest),
        "generate" => cmd_generate(rest),
        "workload" => cmd_workload(rest),
        other => Err(usage(format!("unknown command {other:?}"))),
    }
}

// ---------------------------------------------------------------------
// Option parsing helpers (no external dependencies).
// ---------------------------------------------------------------------

/// A command's arguments: one positional argument (every command takes
/// exactly one), options that take a value and options that don't.
struct Opts {
    positional: Option<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Opts {
    /// Any option outside `value_flags` and `bool_flags`, and any second
    /// positional argument, is a usage error.
    fn parse(args: &[String], value_flags: &[&str], bool_flags: &[&str]) -> Result<Opts, Failure> {
        let mut positional = None;
        let mut flags = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--").or_else(|| arg.strip_prefix('-')) {
                if value_flags.contains(&name) {
                    let value = iter
                        .next()
                        .ok_or_else(|| usage(format!("missing value for {arg}")))?;
                    flags.push((name.to_owned(), Some(value.clone())));
                } else if bool_flags.contains(&name) {
                    flags.push((name.to_owned(), None));
                } else {
                    return Err(usage(format!("unknown option {arg:?}")));
                }
            } else if positional.is_some() {
                return Err(usage(format!("unexpected argument {arg:?}")));
            } else {
                positional = Some(arg.clone());
            }
        }
        Ok(Opts { positional, flags })
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn positional(&self, what: &str) -> Result<&str, Failure> {
        self.positional
            .as_deref()
            .ok_or_else(|| usage(format!("missing {what}")))
    }
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn write_file(path: &str, content: &str) -> Result<(), String> {
    std::fs::write(path, content).map_err(|e| format!("cannot write {path}: {e}"))
}

fn load_document(path: &str) -> Result<Document, String> {
    parse_document(&read_file(path)?).map_err(|e| format!("{path}: {e}"))
}

fn load_sketch(path: &str) -> Result<TreeSketch, String> {
    axqa_core::io::from_text(&read_file(path)?).map_err(|e| format!("{path}: {e}"))
}

/// Parses "10KB", "512B", "2MB" or a plain byte count; a zero budget,
/// or one that overflows `usize`, is a usage error.
fn parse_budget(text: &str) -> Result<usize, Failure> {
    let lower = text.to_ascii_lowercase();
    let (digits, factor) = if let Some(d) = lower.strip_suffix("kb") {
        (d, 1024)
    } else if let Some(d) = lower.strip_suffix("mb") {
        (d, 1024 * 1024)
    } else if let Some(d) = lower.strip_suffix('b') {
        (d, 1)
    } else {
        (lower.as_str(), 1)
    };
    let count: usize = digits
        .trim()
        .parse()
        .map_err(|_| usage(format!("bad budget {text:?} (try 10KB)")))?;
    match count.checked_mul(factor) {
        Some(0) => Err(usage(format!("budget {text:?} is zero bytes"))),
        Some(bytes) => Ok(bytes),
        None => Err(usage(format!("budget {text:?} is too large"))),
    }
}

/// Parses a twig given inline (';' separates lines) or from a file.
fn query_from_opts(opts: &Opts) -> Result<TwigQuery, Failure> {
    let text = if let Some(inline) = opts.value("q") {
        inline.replace(';', "\n")
    } else if let Some(path) = opts.value("query-file") {
        read_file(path)?
    } else {
        return Err(usage(
            "pass a query with -q \"q1: q0 //a\" (';' separates lines)",
        ));
    };
    Ok(parse_twig(&text).map_err(|e| e.to_string())?)
}

// ---------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------

fn cmd_stats(args: &[String]) -> Result<(), Failure> {
    let opts = Opts::parse(args, &[], &[])?;
    let doc = load_document(opts.positional("document path")?)?;
    let stats = DocStats::compute(&doc);
    let stable = build_stable(&doc);
    println!("elements        {}", stats.elements);
    println!("file bytes      {}", stats.file_bytes);
    println!("distinct labels {}", stats.distinct_labels);
    println!("height          {}", stats.height);
    println!("max fan-out     {}", stats.max_fanout);
    println!("mean fan-out    {:.2}", stats.mean_fanout);
    println!(
        "stable summary  {} classes, {} edges ({} bytes)",
        stable.len(),
        stable.num_edges(),
        axqa_synopsis::SizeModel::TREESKETCH.graph_bytes(stable.len(), stable.num_edges()),
    );
    Ok(())
}

fn cmd_summarize(args: &[String]) -> Result<(), Failure> {
    let opts = Opts::parse(args, &["budget", "o", "values"], &[])?;
    let doc = load_document(opts.positional("document path")?)?;
    let budget = parse_budget(opts.value("budget").unwrap_or("10KB"))?;
    let output = opts
        .value("o")
        .ok_or_else(|| usage("missing -o <sketch.ts>"))?;
    let stable = build_stable(&doc);
    let report =
        try_ts_build(&stable, &BuildConfig::with_budget(budget)).map_err(|e| e.to_string())?;
    write_file(output, &axqa_core::io::to_text(&report.sketch))?;
    if let Some(values_path) = opts.value("values") {
        let values = axqa_core::ValueIndex::build(
            &doc,
            &stable,
            &report.sketch,
            &report.stable_assignment,
            64,
        );
        write_file(values_path, &values.to_text())?;
        println!(
            "wrote {values_path}: value layer, {} bytes",
            values.size_bytes()
        );
    }
    println!(
        "wrote {output}: {} clusters, {} edges, {} bytes (budget {budget}), sq error {:.2}, {} merges",
        report.sketch.len(),
        report.sketch.num_edges(),
        report.final_bytes,
        report.squared_error,
        report.merges,
    );
    if !report.reached_budget {
        println!("note: label-split floor reached above the budget");
    }
    Ok(())
}

fn cmd_estimate(args: &[String]) -> Result<(), Failure> {
    let opts = Opts::parse(args, &["q", "query-file", "values"], &[])?;
    let sketch = load_sketch(opts.positional("sketch path")?)?;
    let query = query_from_opts(&opts)?;
    let values = load_values(&opts, &sketch)?;
    let estimate =
        match eval_query_with_values(&sketch, &query, &EvalConfig::default(), values.as_ref()) {
            Some(result) => axqa_core::estimate_selectivity(&result, &query),
            None => 0.0,
        };
    println!("{estimate}");
    Ok(())
}

/// Loads the optional value layer and checks it matches the sketch.
fn load_values(opts: &Opts, sketch: &TreeSketch) -> Result<Option<axqa_core::ValueIndex>, String> {
    let Some(path) = opts.value("values") else {
        return Ok(None);
    };
    let values =
        axqa_core::ValueIndex::from_text(&read_file(path)?).map_err(|e| format!("{path}: {e}"))?;
    if values.len() != sketch.len() {
        return Err(format!(
            "{path}: value layer has {} nodes but the sketch has {}",
            values.len(),
            sketch.len()
        ));
    }
    Ok(Some(values))
}

fn cmd_preview(args: &[String]) -> Result<(), Failure> {
    let opts = Opts::parse(args, &["q", "query-file", "expand"], &[])?;
    let sketch = load_sketch(opts.positional("sketch path")?)?;
    let query = query_from_opts(&opts)?;
    match eval_query(&sketch, &query, &EvalConfig::default()) {
        None => println!("(empty answer)"),
        Some(result) => {
            if let Some(cap) = opts.value("expand") {
                let cap: usize = cap.parse().map_err(|_| usage("bad --expand value"))?;
                let expansion = expand_result(&result, cap);
                print_answer_tree(&expansion.tree);
                if expansion.truncated {
                    println!("… (truncated at {cap} nodes)");
                }
            } else {
                print!("{}", result.dump());
                for var in query.vars().skip(1) {
                    println!("{var}: ~{:.1} bindings", result.estimated_bindings(var));
                }
            }
        }
    }
    Ok(())
}

fn print_answer_tree(tree: &axqa_eval::AnswerTree) {
    fn rec(tree: &axqa_eval::AnswerTree, node: u32, depth: usize) {
        let n = &tree.nodes()[node as usize];
        println!(
            "{}{} ({})",
            "  ".repeat(depth),
            tree.labels().name(n.label),
            n.var
        );
        for &child in &n.children {
            rec(tree, child, depth + 1);
        }
    }
    rec(tree, tree.root(), 0);
}

fn cmd_exact(args: &[String]) -> Result<(), Failure> {
    let opts = Opts::parse(args, &["q", "query-file"], &[])?;
    let doc = load_document(opts.positional("document path")?)?;
    let query = query_from_opts(&opts)?;
    let index = DocIndex::build(&doc);
    println!("{}", axqa_eval::selectivity(&doc, &index, &query));
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), Failure> {
    let opts = Opts::parse(args, &["elements", "seed", "o"], &[])?;
    let dataset = match opts.positional("dataset name")? {
        "xmark" => Dataset::XMark,
        "imdb" => Dataset::Imdb,
        "sprot" => Dataset::SProt,
        "dblp" => Dataset::Dblp,
        other => {
            return Err(usage(format!(
                "unknown dataset {other:?} (xmark|imdb|sprot|dblp)"
            )))
        }
    };
    let elements: usize = opts
        .value("elements")
        .unwrap_or("10000")
        .parse()
        .map_err(|_| usage("bad --elements"))?;
    let seed: u64 = opts
        .value("seed")
        .unwrap_or("24091")
        .parse()
        .map_err(|_| usage("bad --seed"))?;
    let doc = generate(
        dataset,
        &GenConfig {
            target_elements: elements,
            seed,
        },
    );
    let text = write_document(&doc);
    match opts.value("o") {
        Some(path) => {
            write_file(path, &text)?;
            println!("wrote {path}: {} elements, {} bytes", doc.len(), text.len());
        }
        None => println!("{text}"),
    }
    Ok(())
}

fn cmd_workload(args: &[String]) -> Result<(), Failure> {
    let opts = Opts::parse(args, &["n", "seed"], &["negative"])?;
    let doc = load_document(opts.positional("document path")?)?;
    let stable = build_stable(&doc);
    let count: usize = opts
        .value("n")
        .unwrap_or("20")
        .parse()
        .map_err(|_| usage("bad -n"))?;
    let seed: u64 = opts
        .value("seed")
        .unwrap_or("24091")
        .parse()
        .map_err(|_| usage("bad --seed"))?;
    let config = WorkloadConfig {
        count,
        seed,
        ..WorkloadConfig::default()
    };
    let queries = if opts.has("negative") {
        negative_workload(&stable, &config)
    } else {
        positive_workload(&stable, &config)
    };
    for query in queries {
        println!("{}", query.to_string().replace('\n', " ; "));
    }
    Ok(())
}
