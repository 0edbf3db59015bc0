//! Panic-reachability over the [`crate::callgraph`]: a fixpoint marks
//! every workspace function that can reach a direct panic site, and
//! every plain-`pub` library function is classified as
//!
//! * `panic-free` — no reachable site under the graph's (conservative)
//!   approximation;
//! * `panics-documented` — panic-reaching, with a `# Panics` doc
//!   section on the function itself;
//! * `panic-reaching` — panic-reaching and undocumented.
//!
//! The classification is snapshotted to `lint/panic-surface.txt` and
//! ratcheted exactly like the API surface: any churn is a finding until
//! the snapshot is regenerated with `--update-panic-surface`, so a
//! public function silently *becoming* panic-reaching fails CI.
//!
//! A second rule, `panic-doc`, requires a `# Panics` section on public
//! functions whose **own body** contains a non-indexing panic site
//! (`panic!`, `assert!`, `.unwrap()`, `.expect(…)`) — transitive and
//! indexing-only reachers are left to the snapshot, which keeps the
//! rule's noise proportional to actual `panic!`s written by hand.

use crate::callgraph::{CallGraph, PanicKind};
use crate::parse::Visibility;
use crate::{Finding, Rule, Scope, Severity, Workspace};

/// Path of the committed snapshot, relative to the workspace root.
pub const SNAPSHOT_PATH: &str = "lint/panic-surface.txt";

/// Classification of one public function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicClass {
    /// No reachable panic site.
    Free,
    /// Panic-reaching, `# Panics` documented.
    Documented,
    /// Panic-reaching, undocumented.
    Reaching,
}

impl PanicClass {
    /// Stable name used in the snapshot file.
    pub fn name(self) -> &'static str {
        match self {
            PanicClass::Free => "panic-free",
            PanicClass::Documented => "panics-documented",
            PanicClass::Reaching => "panic-reaching",
        }
    }
}

/// `reachable[i]` — item `i` can reach a direct panic site. Computed by
/// a worklist fixpoint over the call graph (test items excluded).
pub fn panic_reachable(graph: &CallGraph) -> Vec<bool> {
    let n = graph.items.len();
    let mut reachable: Vec<bool> = (0..n)
        .map(|i| !graph.items[i].is_test && !graph.sites[i].is_empty())
        .collect();

    // Reverse edges: callee -> callers.
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (caller, callees) in graph.calls.iter().enumerate() {
        if graph.items[caller].is_test {
            continue;
        }
        for &callee in callees {
            callers[callee].push(caller);
        }
    }

    let mut worklist: Vec<usize> = (0..n).filter(|&i| reachable[i]).collect();
    while let Some(i) = worklist.pop() {
        for &caller in &callers[i] {
            if !reachable[caller] {
                reachable[caller] = true;
                worklist.push(caller);
            }
        }
    }
    reachable
}

/// One line of the panic surface: file, qualified path, classification.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SurfaceLine {
    /// Workspace-relative file.
    pub file: String,
    /// `axqa_core::cluster::ClusterState::evaluate_merge`.
    pub path: String,
    /// Classification name (`panic-free` | `panics-documented` |
    /// `panic-reaching`).
    pub class: String,
}

/// Computes the classified public surface, sorted.
pub fn surface(graph: &CallGraph) -> Vec<(SurfaceLine, u32)> {
    let reachable = panic_reachable(graph);
    let mut out: Vec<(SurfaceLine, u32)> = Vec::new();
    for (i, item) in graph.items.iter().enumerate() {
        if item.vis != Visibility::Public || item.is_test || item.is_bin {
            continue;
        }
        let class = if !reachable[i] {
            PanicClass::Free
        } else if item.has_panics_doc {
            PanicClass::Documented
        } else {
            PanicClass::Reaching
        };
        out.push((
            SurfaceLine {
                file: item.file.clone(),
                path: item.display_path(),
                class: class.name().to_string(),
            },
            item.line,
        ));
    }
    out.sort();
    out
}

/// Renders the snapshot file contents for `--update-panic-surface`.
pub fn render_surface(workspace: &Workspace) -> String {
    let graph = workspace.callgraph();
    let mut out = String::from(
        "# Panic-reachability surface (generated by `cargo xtask lint --update-panic-surface`).\n\
         # One line per plain-`pub` library fn: <file> <qualified path> <classification>.\n\
         # Classifications: panic-free | panics-documented (# Panics section present) |\n\
         # panic-reaching (undocumented). The panic-surface rule fails on any diff\n\
         # against this file, so a public fn silently becoming panic-reaching fails CI.\n",
    );
    for (line, _) in surface(graph) {
        out.push_str(&line.file);
        out.push(' ');
        out.push_str(&line.path);
        out.push(' ');
        out.push_str(&line.class);
        out.push('\n');
    }
    out
}

/// Parses a committed snapshot back into sorted lines.
fn parse_snapshot(text: &str) -> Vec<SurfaceLine> {
    let mut lines: Vec<SurfaceLine> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.split(' ');
            let file = parts.next()?.to_string();
            let path = parts.next()?.to_string();
            let class = parts.next()?.to_string();
            Some(SurfaceLine { file, path, class })
        })
        .collect();
    lines.sort();
    lines
}

/// The panic-surface ratchet rule.
pub struct PanicSurface;

impl Rule for PanicSurface {
    fn id(&self) -> &'static str {
        "panic-surface"
    }
    fn describe(&self) -> &'static str {
        "public fns' panic-reachability classification matches the committed \
         lint/panic-surface.txt snapshot"
    }
    fn scope(&self) -> Scope {
        Scope::Workspace
    }
    fn check_workspace(&self, workspace: &Workspace, findings: &mut Vec<Finding>) {
        let current = surface(workspace.callgraph());
        let Some(snapshot_text) = &workspace.panic_surface_snapshot else {
            findings.push(Finding {
                rule: self.id(),
                severity: Severity::Error,
                file: SNAPSHOT_PATH.to_string(),
                line: 0,
                span: (0, 0),
                message: format!(
                    "missing panic-surface snapshot — run `cargo xtask lint \
                     --update-panic-surface` to create {SNAPSHOT_PATH}"
                ),
            });
            return;
        };
        let mut snapshot = parse_snapshot(snapshot_text);

        for (line, item_line) in &current {
            if let Some(pos) = snapshot.iter().position(|s| s == line) {
                snapshot.remove(pos);
            } else {
                // New or re-classified entry. If the same path exists in
                // the snapshot under another class, name the transition.
                let previous = snapshot
                    .iter()
                    .find(|s| s.file == line.file && s.path == line.path)
                    .map(|s| s.class.clone());
                let detail = match previous {
                    Some(old) => format!("was `{old}`, now `{}`", line.class),
                    None => format!("new public fn, `{}`", line.class),
                };
                findings.push(Finding {
                    rule: self.id(),
                    severity: Severity::Error,
                    file: line.file.clone(),
                    line: (*item_line).max(1),
                    span: (0, 0),
                    message: format!(
                        "panic surface changed for `{}` ({detail}) — review, then run \
                         `cargo xtask lint --update-panic-surface`",
                        line.path
                    ),
                });
            }
        }
        for line in snapshot {
            // Only report entries with no current counterpart at all —
            // re-classifications were already reported above.
            if current
                .iter()
                .any(|(c, _)| c.file == line.file && c.path == line.path)
            {
                continue;
            }
            findings.push(Finding {
                rule: self.id(),
                severity: Severity::Error,
                file: line.file.clone(),
                line: 0,
                span: (0, 0),
                message: format!(
                    "public fn `{}` removed but still in the panic-surface snapshot — review, \
                     then run `cargo xtask lint --update-panic-surface`",
                    line.path
                ),
            });
        }
    }
}

/// Public fns with hand-written panic sites must document them.
pub struct PanicDoc;

impl Rule for PanicDoc {
    fn id(&self) -> &'static str {
        "panic-doc"
    }
    fn describe(&self) -> &'static str {
        "public fns whose own body panics (panic!/assert!/unwrap/expect, indexing excluded) \
         carry a `# Panics` doc section"
    }
    fn scope(&self) -> Scope {
        Scope::Workspace
    }
    fn check_workspace(&self, workspace: &Workspace, findings: &mut Vec<Finding>) {
        let graph = workspace.callgraph();
        for (i, item) in graph.items.iter().enumerate() {
            if item.vis != Visibility::Public || item.is_test || item.is_bin || item.has_panics_doc
            {
                continue;
            }
            let direct: Vec<&str> = graph.sites[i]
                .iter()
                .filter(|s| s.kind != PanicKind::Index)
                .map(|s| s.kind.name())
                .collect();
            if direct.is_empty() {
                continue;
            }
            let mut kinds = direct.clone();
            kinds.dedup();
            findings.push(Finding {
                rule: self.id(),
                severity: Severity::Error,
                file: item.file.clone(),
                line: item.line,
                span: (0, 0),
                message: format!(
                    "public fn `{}` panics ({}) without a `# Panics` doc section",
                    item.display_path(),
                    kinds.join(", ")
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::SourceFile;

    fn files(sources: &[(&str, &str)]) -> Vec<SourceFile> {
        sources
            .iter()
            .map(|(rel, text)| {
                SourceFile::new(
                    rel.to_string(),
                    "axqa-core".to_string(),
                    false,
                    text.to_string(),
                )
            })
            .collect()
    }

    fn workspace(sources: &[(&str, &str)], snapshot: Option<&str>) -> Workspace {
        Workspace {
            files: files(sources),
            references: Vec::new(),
            dep_edges: Vec::new(),
            api_surface_snapshot: None,
            panic_surface_snapshot: snapshot.map(str::to_string),
            alloc_surface_snapshot: None,
            hot_paths: None,
            alloc_grants: Vec::new(),
            graph: std::cell::OnceCell::new(),
        }
    }

    #[test]
    fn transitive_reachability_flows_up_the_graph() {
        let ws = files(&[(
            "crates/core/src/a.rs",
            "pub fn top() { mid(); }\nfn mid() { bottom(); }\nfn bottom() { panic!(\"x\"); }\n\
             pub fn clean() -> u32 { 1 }\n",
        )]);
        let graph = callgraph::build(&ws);
        let reach = panic_reachable(&graph);
        let of = |n: &str| graph.items.iter().position(|i| i.name == n).unwrap();
        assert!(reach[of("top")] && reach[of("mid")] && reach[of("bottom")]);
        assert!(!reach[of("clean")]);
    }

    #[test]
    fn recursive_cycles_terminate() {
        let ws = files(&[(
            "crates/core/src/a.rs",
            "pub fn ping() { pong(); }\npub fn pong() { ping(); }\n",
        )]);
        let graph = callgraph::build(&ws);
        let reach = panic_reachable(&graph);
        assert!(reach.iter().all(|r| !r));
    }

    #[test]
    fn surface_classifies_documented_and_reaching() {
        let ws = files(&[(
            "crates/core/src/a.rs",
            "/// Doc.\n///\n/// # Panics\n/// On empty input.\npub fn documented(v: &[u32]) -> u32 { v[0] }\n\
             pub fn bare() { panic!(\"x\"); }\n\
             pub fn free() {}\n\
             pub(crate) fn internal() { panic!(\"x\"); }\n",
        )]);
        let graph = callgraph::build(&ws);
        let lines = surface(&graph);
        let class_of = |name: &str| {
            lines
                .iter()
                .find(|(l, _)| l.path.ends_with(name))
                .map(|(l, _)| l.class.clone())
                .unwrap()
        };
        assert_eq!(class_of("documented"), "panics-documented");
        assert_eq!(class_of("bare"), "panic-reaching");
        assert_eq!(class_of("free"), "panic-free");
        // pub(crate) is not surface.
        assert_eq!(lines.len(), 3, "{lines:?}");
    }

    #[test]
    fn snapshot_diff_reports_reclassification_and_removal() {
        let src = "pub fn f(v: &[u32]) -> u32 { v[0] }\n";
        let snapshot = "# header\n\
                        crates/core/src/a.rs axqa_core::a::f panic-free\n\
                        crates/core/src/a.rs axqa_core::a::gone panic-free\n";
        let ws = workspace(&[("crates/core/src/a.rs", src)], Some(snapshot));
        let mut findings = Vec::new();
        PanicSurface.check_workspace(&ws, &mut findings);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings
            .iter()
            .any(|f| f.message.contains("was `panic-free`, now `panic-reaching`")));
        assert!(findings
            .iter()
            .any(|f| f.message.contains("`axqa_core::a::gone` removed")));
    }

    #[test]
    fn matching_snapshot_is_clean_and_missing_snapshot_reports() {
        let src = "pub fn f() {}\n";
        let ws = workspace(
            &[("crates/core/src/a.rs", src)],
            Some("crates/core/src/a.rs axqa_core::a::f panic-free\n"),
        );
        let mut findings = Vec::new();
        PanicSurface.check_workspace(&ws, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");

        let ws = workspace(&[("crates/core/src/a.rs", src)], None);
        let mut findings = Vec::new();
        PanicSurface.check_workspace(&ws, &mut findings);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("--update-panic-surface"));
    }

    #[test]
    fn render_round_trips_through_parse() {
        let ws = workspace(
            &[("crates/core/src/a.rs", "pub fn f() { panic!(\"x\") }\n")],
            None,
        );
        let rendered = render_surface(&ws);
        let parsed = parse_snapshot(&rendered);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].class, "panic-reaching");
    }

    #[test]
    fn panic_doc_requires_sections_on_direct_panics_only() {
        let ws = workspace(
            &[(
                "crates/core/src/a.rs",
                "pub fn undocumented() { assert!(true); }\n\
                 /// # Panics\n/// Always.\npub fn documented() { panic!(\"x\"); }\n\
                 pub fn index_only(v: &[u32]) -> u32 { v[0] }\n\
                 pub fn transitive() { undocumented(); }\n",
            )],
            Some(""),
        );
        let mut findings = Vec::new();
        PanicDoc.check_workspace(&ws, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("undocumented"));
        assert!(findings[0].message.contains("assert"));
    }
}
