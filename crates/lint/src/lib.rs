#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # axqa-lint — the repository's static-analysis engine
//!
//! `cargo xtask lint` grew out of a line-oriented script (PR 1) into
//! this crate: a token-level linter with a rule registry,
//! workspace-scope rules (crate layering, public-API surface snapshot,
//! panic-reachability surface), call-graph analyses over a lightweight
//! fn-item parser, determinism dataflow rules, a ratcheting baseline,
//! and SARIF 2.1.0 export. See DESIGN.md §8 and §10 for the
//! architecture.
//!
//! The engine is deterministic and nearly dependency-free — its one
//! dependency is the layer-0 `axqa-obs` facade, so the lint phases
//! (`lint.tokenize`, `lint.parse`, `lint.callgraph`, `lint.rules`,
//! `lint.fixpoint`) show up in `lint-metrics.json` like any other
//! phase of the system:
//!
//! * [`token`] tokenizes Rust sources (strings, raw strings, char
//!   literals, comments) and masks `#[cfg(test)]` regions on tokens,
//!   so rules neither miss violations split across lines nor
//!   false-positive inside string literals;
//! * [`rules`] holds the per-file rules, each a type implementing
//!   [`Rule`];
//! * [`parse`] extracts per-file [`parse::FnItem`]s (qualified path,
//!   visibility, `# Panics` docs, body token range) from the token
//!   stream;
//! * [`callgraph`] builds the intra-workspace call graph
//!   (suffix-qualified name resolution, conservative method calls) and
//!   collects direct panic sites;
//! * [`reach`] runs the panic-reachability fixpoint, ratchets the
//!   public classification against `lint/panic-surface.txt`, and
//!   enforces `# Panics` docs on directly panicking public fns;
//! * [`allocsite`] detects direct allocation sites (constructors on
//!   heap-owning types, owned-result methods, growth calls, and
//!   macro-opaque invocations) in function bodies;
//! * [`hotpath`] runs the allocation-reachability fixpoint from the
//!   hot roots declared in `lint/hot-paths.toml`, honors `[[alloc-ok]]`
//!   grants from the baseline, and ratchets the classification against
//!   `lint/alloc-surface.txt` (DESIGN.md §11);
//! * [`deadpub`] reports plain-`pub` functions with zero
//!   intra-workspace callers and no textual references;
//! * [`determinism`] flags order-dependent hashmap iteration and
//!   non-total float comparisons in the deterministic-path crates;
//! * [`sarif`] renders a run as a SARIF 2.1.0 log for GitHub code
//!   scanning;
//! * [`layering`] parses the workspace manifests and enforces the
//!   DESIGN.md §1 crate-layer DAG (no cycles, no upward edges);
//! * [`api_surface`] snapshots `pub fn` / `pub struct` signatures into
//!   `lint/api-surface.txt` and fails on unacknowledged churn;
//! * [`baseline`] implements the `lint-baseline.toml` ratchet:
//!   grandfathered findings pass, new findings fail, and
//!   `--update-baseline` shrinks the file as violations are fixed;
//! * [`engine`] collects sources, runs the registry, applies the
//!   baseline and renders human text or `--format json`
//!   (schema `axqa-lint/1`).

pub mod allocsite;
pub mod api_surface;
pub mod baseline;
pub mod callgraph;
pub mod deadpub;
pub mod determinism;
pub mod engine;
pub mod hotpath;
pub mod layering;
pub mod parse;
pub mod reach;
pub mod rules;
pub mod sarif;
pub mod token;

use std::cell::OnceCell;

use token::Token;

/// How bad a finding is. Everything shipped today is [`Severity::Error`];
/// the distinction exists so future advisory rules can surface without
/// failing the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Reported, never fails the gate.
    Warning,
    /// Fails the gate unless baselined.
    Error,
}

impl Severity {
    /// Stable lowercase name used in the JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One rule violation, structured so it can render as text or JSON and
/// be matched against the baseline.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (stable, kebab-case).
    pub rule: &'static str,
    /// Severity of the owning rule.
    pub severity: Severity,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line (0 when the finding has no line, e.g. a removed
    /// API-surface entry).
    pub line: u32,
    /// Byte span in the file (`0..0` when not applicable).
    pub span: (usize, usize),
    /// Human-readable message.
    pub message: String,
}

/// Whether a rule sees one file at a time or the whole workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Called once per collected source file.
    File,
    /// Called once with the whole [`Workspace`].
    Workspace,
}

/// One collected source file with its token stream and test mask.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes (`crates/core/src/eval.rs`).
    pub rel: String,
    /// Package name of the owning crate (`axqa-core`, `xtask`, or
    /// `axqa` for the umbrella `src/`).
    pub crate_name: String,
    /// True for binary-target roots (`src/main.rs`, `src/bin/*.rs`):
    /// diagnostics printed from a binary are legitimate.
    pub is_bin: bool,
    /// The file contents.
    pub text: String,
    /// Token stream of `text`.
    pub tokens: Vec<Token>,
    /// `in_test[i]` — token `i` sits inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
}

impl SourceFile {
    /// Tokenizes `text` and computes the test mask.
    pub fn new(rel: String, crate_name: String, is_bin: bool, text: String) -> SourceFile {
        let tokens = token::tokenize(&text);
        let in_test = token::test_mask(&text, &tokens);
        SourceFile {
            rel,
            crate_name,
            is_bin,
            text,
            tokens,
            in_test,
        }
    }
}

/// Workspace context handed to [`Scope::Workspace`] rules.
#[derive(Debug)]
pub struct Workspace {
    /// Every collected source file, sorted by path.
    pub files: Vec<SourceFile>,
    /// Test, bench and example sources (`tests/`, `benches/` and
    /// `examples/` of every package), sorted by path. No rule checks
    /// them; they only count as textual references, so a `pub fn`
    /// exercised solely by an integration test is not dead.
    pub references: Vec<SourceFile>,
    /// `(package name, internal [dependencies] edges)` per workspace
    /// crate, from the crate manifests (dev-dependencies excluded —
    /// cargo already forbids dev-cycles that break builds, and tests
    /// may reach upward for fixtures).
    pub dep_edges: Vec<(String, Vec<String>)>,
    /// Contents of `lint/api-surface.txt` if present.
    pub api_surface_snapshot: Option<String>,
    /// Contents of `lint/panic-surface.txt` if present.
    pub panic_surface_snapshot: Option<String>,
    /// Contents of `lint/alloc-surface.txt` if present.
    pub alloc_surface_snapshot: Option<String>,
    /// Contents of `lint/hot-paths.toml` (the alloc-analysis roots)
    /// if present.
    pub hot_paths: Option<String>,
    /// `[[alloc-ok]]` grants parsed from `lint-baseline.toml` — the
    /// hot-path analysis consumes these *before* seeding its fixpoint,
    /// unlike `[[allow]]` entries which apply to finished findings.
    pub alloc_grants: Vec<baseline::AllocGrant>,
    /// Lazily built call graph, shared by every workspace rule (the
    /// engine builds it once per run instead of once per rule).
    pub graph: OnceCell<callgraph::CallGraph>,
}

impl Workspace {
    /// The workspace call graph, built on first use (under a
    /// `lint.callgraph` span) and shared across rules.
    pub fn callgraph(&self) -> &callgraph::CallGraph {
        self.graph.get_or_init(|| {
            let _span = axqa_obs::span("lint.callgraph");
            callgraph::build(&self.files)
        })
    }
}

/// A lint rule: an id, a severity, a scope, and a checker.
///
/// Per-file rules implement [`Rule::check_file`]; workspace rules
/// implement [`Rule::check_workspace`]. The engine owns iteration
/// order, so rules stay pure: findings in, findings out.
pub trait Rule {
    /// Stable kebab-case id (baseline keys and JSON use it).
    fn id(&self) -> &'static str;
    /// One-line description for `--format json` and docs.
    fn describe(&self) -> &'static str;
    /// Severity of this rule's findings.
    fn severity(&self) -> Severity {
        Severity::Error
    }
    /// Per-file or workspace scope.
    fn scope(&self) -> Scope {
        Scope::File
    }
    /// Per-file check; default no-op for workspace rules.
    fn check_file(&self, _file: &SourceFile, _findings: &mut Vec<Finding>) {}
    /// Workspace check; default no-op for per-file rules.
    fn check_workspace(&self, _workspace: &Workspace, _findings: &mut Vec<Finding>) {}
}

/// The registry: every rule the engine runs, in reporting order.
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(rules::CountCast),
        Box::new(rules::FloatEq),
        Box::new(rules::PaperDoc),
        Box::new(rules::NoUnwrap),
        Box::new(rules::ForbiddenApi),
        Box::new(determinism::HashMapIterOrder),
        Box::new(determinism::FloatTotalOrder),
        Box::new(layering::CrateLayering),
        Box::new(api_surface::ApiSurface),
        Box::new(reach::PanicSurface),
        Box::new(reach::PanicDoc),
        Box::new(hotpath::HotPathAlloc),
        Box::new(hotpath::AllocSurface),
        Box::new(deadpub::DeadPub),
    ]
}
