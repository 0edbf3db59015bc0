//! Allocation-reachability over the [`crate::callgraph`] (DESIGN.md
//! §11).
//!
//! Hot roots — the merge-loop kernels, the pooled EVALQUERY loop, the
//! parallel-map worker bodies — are declared in the committed
//! `lint/hot-paths.toml`. A worklist fixpoint classifies every
//! function on a root's call cone as
//!
//! * `alloc-free` — no ungranted allocation site reachable;
//! * `allocates-directly` — the function's own body has an ungranted
//!   site ([`crate::allocsite`]);
//! * `alloc-reaching` — allocation only through a callee.
//!
//! Deliberate allocations (scratch-pool growth, cold error paths,
//! output construction) are granted per site via `[[alloc-ok]]` tables
//! in `lint-baseline.toml`; a granted site neither seeds the fixpoint
//! nor appears in findings, so a kernel whose only allocations are
//! granted classifies `alloc-free`. Every grant carries a required
//! `reason`, and grants that cover more sites than currently exist are
//! themselves findings — the grant set ratchets like everything else.
//!
//! Two soundness refinements over the raw call graph:
//!
//! * **Dependency pruning** — the conservative method-call matching
//!   (`x.resolve(…)` matches every workspace fn named `resolve`) is
//!   filtered by the manifest dependency closure: a call edge from
//!   crate A into crate B survives only when A actually depends on B
//!   (or A == B). Without this, a method name shared with, say, this
//!   lint crate would poison the kernels' cones.
//! * **Macro opacity** — unknown macro invocations count as direct
//!   allocation sites (see [`crate::allocsite`]), so macro-hidden
//!   allocations fail closed.
//!
//! The per-cone classification is snapshotted to
//! `lint/alloc-surface.txt` and ratcheted exactly like the panic
//! surface: any churn is a finding until regenerated with
//! `--update-alloc-surface`.

use crate::allocsite::{self, AllocSite};
use crate::baseline::BASELINE_PATH;
use crate::reach::SurfaceLine;
use crate::{Finding, Rule, Scope, Severity, Workspace};

/// Path of the committed hot-roots config, relative to the workspace
/// root.
pub const CONFIG_PATH: &str = "lint/hot-paths.toml";

/// Path of the committed snapshot, relative to the workspace root.
pub const SNAPSHOT_PATH: &str = "lint/alloc-surface.txt";

/// Classification of one function on a hot cone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocClass {
    /// No ungranted allocation reachable.
    Free,
    /// Own body has an ungranted allocation site.
    Direct,
    /// Reaches an ungranted allocation through a callee.
    Reaching,
}

impl AllocClass {
    /// Stable name used in the snapshot file.
    pub fn name(self) -> &'static str {
        match self {
            AllocClass::Free => "alloc-free",
            AllocClass::Direct => "allocates-directly",
            AllocClass::Reaching => "alloc-reaching",
        }
    }
}

/// One declared hot root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotRoot {
    /// Qualified path suffix (`ClusterState::evaluate_merge`).
    pub path: String,
    /// Why this is a hot path (documentation only).
    pub reason: String,
}

/// Parses `lint/hot-paths.toml`: comments and `[[root]]` tables with
/// string `path`/`reason` keys. Unknown keys are hard errors, same
/// policy as the baseline.
pub fn parse_config(text: &str) -> Result<Vec<HotRoot>, String> {
    let mut roots: Vec<HotRoot> = Vec::new();
    let mut current: Option<(Option<String>, Option<String>)> = None;
    let finish = |current: &mut Option<(Option<String>, Option<String>)>,
                  roots: &mut Vec<HotRoot>,
                  lineno: usize|
     -> Result<(), String> {
        if let Some((path, reason)) = current.take() {
            let missing =
                |key: &str| format!("{CONFIG_PATH}:{lineno}: [[root]] entry missing `{key}`");
            roots.push(HotRoot {
                path: path.ok_or_else(|| missing("path"))?,
                reason: reason.ok_or_else(|| missing("reason"))?,
            });
        }
        Ok(())
    };
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx.saturating_add(1);
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[root]]" {
            finish(&mut current, &mut roots, lineno)?;
            current = Some((None, None));
            continue;
        }
        if line.starts_with('[') {
            return Err(format!(
                "{CONFIG_PATH}:{lineno}: unknown table `{line}` (expected [[root]])"
            ));
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("{CONFIG_PATH}:{lineno}: expected `key = value`"));
        };
        let entry = current
            .as_mut()
            .ok_or_else(|| format!("{CONFIG_PATH}:{lineno}: key outside a [[root]] table"))?;
        let value = value.trim();
        let string = || -> Result<String, String> {
            value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .filter(|v| !v.contains('"') && !v.contains('\\'))
                .map(str::to_string)
                .ok_or_else(|| format!("{CONFIG_PATH}:{lineno}: expected a double-quoted string"))
        };
        match key.trim() {
            "path" => entry.0 = Some(string()?),
            "reason" => entry.1 = Some(string()?),
            other => {
                return Err(format!(
                    "{CONFIG_PATH}:{lineno}: unknown [[root]] key `{other}`"
                ));
            }
        }
    }
    let end = text.lines().count();
    finish(&mut current, &mut roots, end)?;
    Ok(roots)
}

/// True when qualified path `display` ends with suffix `pattern` at a
/// `::` boundary (`a::B::c` matches `B::c` and `c`, not `bc`).
fn path_matches(display: &str, pattern: &str) -> bool {
    display == pattern
        || display
            .strip_suffix(pattern)
            .is_some_and(|head| head.ends_with("::"))
}

/// The completed analysis over one workspace.
#[derive(Debug)]
pub struct Analysis {
    /// `ungranted[i]` — item `i`'s direct sites minus alloc-ok grants.
    pub ungranted: Vec<Vec<AllocSite>>,
    /// `reaching[i]` — item `i` can reach an ungranted site.
    pub reaching: Vec<bool>,
    /// `cone[i]` — item `i` is a hot root or callable from one.
    pub cone: Vec<bool>,
    /// Item indices matched per configured root (parallel to the
    /// `roots` slice handed to [`analyze`]).
    pub root_items: Vec<Vec<usize>>,
    /// Dependency-pruned forward edges (indices into `graph.items`).
    pub calls: Vec<Vec<usize>>,
    /// `grant_used[g]` — sites covered by grant `g` (parallel to
    /// `workspace.alloc_grants`).
    pub grant_used: Vec<usize>,
}

impl Analysis {
    /// Classification of item `i`.
    pub fn class_of(&self, i: usize) -> AllocClass {
        if !self.ungranted[i].is_empty() {
            AllocClass::Direct
        } else if self.reaching[i] {
            AllocClass::Reaching
        } else {
            AllocClass::Free
        }
    }
}

/// Transitive dependency closure per crate, from the manifest edges.
fn dep_closure(dep_edges: &[(String, Vec<String>)]) -> Vec<(String, Vec<String>)> {
    let mut out = Vec::with_capacity(dep_edges.len());
    for (name, _) in dep_edges {
        let mut seen: Vec<String> = vec![name.clone()];
        let mut stack: Vec<String> = vec![name.clone()];
        while let Some(cur) = stack.pop() {
            if let Some((_, deps)) = dep_edges.iter().find(|(n, _)| *n == cur) {
                for dep in deps {
                    if !seen.contains(dep) {
                        seen.push(dep.clone());
                        stack.push(dep.clone());
                    }
                }
            }
        }
        out.push((name.clone(), seen));
    }
    out
}

/// Runs site detection, grant matching, and the reachability fixpoint.
pub fn analyze(workspace: &Workspace, roots: &[HotRoot]) -> Analysis {
    let graph = workspace.callgraph();
    let n = graph.items.len();

    // File lookup by workspace-relative path (files may arrive in any
    // order; sort an index instead of assuming).
    let mut by_rel: Vec<(&str, usize)> = workspace
        .files
        .iter()
        .enumerate()
        .map(|(f, file)| (file.rel.as_str(), f))
        .collect();
    by_rel.sort_unstable();

    // Direct sites per item.
    let mut sites: Vec<Vec<AllocSite>> = vec![Vec::new(); n];
    for (i, item) in graph.items.iter().enumerate() {
        if item.is_test {
            continue;
        }
        let Some((start, end)) = item.body else {
            continue;
        };
        let Ok(pos) = by_rel.binary_search_by(|(rel, _)| rel.cmp(&item.file.as_str())) else {
            continue;
        };
        sites[i] = allocsite::scan(&workspace.files[by_rel[pos].1], start, end);
    }

    // Apply alloc-ok grants: each grant covers up to `count` matching
    // sites across the items its path suffix matches, in item order.
    let mut grant_used: Vec<usize> = vec![0; workspace.alloc_grants.len()];
    let mut ungranted = sites;
    for (g, grant) in workspace.alloc_grants.iter().enumerate() {
        let mut budget = grant.count;
        for (i, item) in graph.items.iter().enumerate() {
            if budget == 0 {
                break;
            }
            if !path_matches(&item.display_path(), &grant.path) {
                continue;
            }
            ungranted[i].retain(|site| {
                if budget > 0 && site.what == grant.what {
                    budget = budget.saturating_sub(1);
                    false
                } else {
                    true
                }
            });
        }
        grant_used[g] = grant.count.saturating_sub(budget);
    }

    // Dependency-pruned edges: the conservative method matching stays
    // within what the manifests allow.
    let closure = dep_closure(&workspace.dep_edges);
    let allowed = |caller: usize, callee: usize| -> bool {
        let from = &graph.items[caller].crate_name;
        let to = &graph.items[callee].crate_name;
        from == to
            || closure
                .iter()
                .find(|(name, _)| name == from)
                .is_some_and(|(_, deps)| deps.contains(to))
    };
    let calls: Vec<Vec<usize>> = graph
        .calls
        .iter()
        .enumerate()
        .map(|(caller, callees)| {
            callees
                .iter()
                .copied()
                .filter(|&callee| allowed(caller, callee))
                .collect()
        })
        .collect();

    let _span = axqa_obs::span("lint.fixpoint");

    // Backward fixpoint: which items reach an ungranted site.
    let mut reaching: Vec<bool> = (0..n)
        .map(|i| !graph.items[i].is_test && !ungranted[i].is_empty())
        .collect();
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (caller, callees) in calls.iter().enumerate() {
        if graph.items[caller].is_test {
            continue;
        }
        for &callee in callees {
            callers[callee].push(caller);
        }
    }
    let mut worklist: Vec<usize> = (0..n).filter(|&i| reaching[i]).collect();
    while let Some(i) = worklist.pop() {
        for &caller in &callers[i] {
            if !reaching[caller] {
                reaching[caller] = true;
                worklist.push(caller);
            }
        }
    }

    // Roots and their forward cones.
    let mut root_items: Vec<Vec<usize>> = Vec::with_capacity(roots.len());
    let mut cone = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    for root in roots {
        let matched: Vec<usize> = graph
            .items
            .iter()
            .enumerate()
            .filter(|(_, item)| !item.is_test && path_matches(&item.display_path(), &root.path))
            .map(|(i, _)| i)
            .collect();
        for &i in &matched {
            if !cone[i] {
                cone[i] = true;
                stack.push(i);
            }
        }
        root_items.push(matched);
    }
    while let Some(i) = stack.pop() {
        for &callee in &calls[i] {
            if !cone[callee] && !graph.items[callee].is_test {
                cone[callee] = true;
                stack.push(callee);
            }
        }
    }

    Analysis {
        ungranted,
        reaching,
        cone,
        root_items,
        calls,
        grant_used,
    }
}

/// Computes the classified hot-cone surface, sorted and deduplicated.
pub fn surface(workspace: &Workspace, roots: &[HotRoot]) -> Vec<(SurfaceLine, u32)> {
    let analysis = analyze(workspace, roots);
    let graph = workspace.callgraph();
    let mut out: Vec<(SurfaceLine, u32)> = Vec::new();
    for (i, item) in graph.items.iter().enumerate() {
        if !analysis.cone[i] {
            continue;
        }
        out.push((
            SurfaceLine {
                file: item.file.clone(),
                path: item.display_path(),
                class: analysis.class_of(i).name().to_string(),
            },
            item.line,
        ));
    }
    out.sort();
    out.dedup_by(|a, b| a.0 == b.0);
    out
}

/// Renders the snapshot file contents for `--update-alloc-surface`.
/// With a missing or unparseable config the body is empty — the
/// `hot-path-alloc` rule reports the config problem itself.
pub fn render_surface(workspace: &Workspace) -> String {
    let mut out = String::from(
        "# Allocation surface of the hot-path cones (generated by\n\
         # `cargo xtask lint --update-alloc-surface`). One line per fn reachable\n\
         # from a lint/hot-paths.toml root: <file> <qualified path> <classification>.\n\
         # Classifications: alloc-free | allocates-directly | alloc-reaching.\n\
         # [[alloc-ok]] grants in lint-baseline.toml are applied before\n\
         # classification, so granted deliberate allocations read alloc-free.\n\
         # The alloc-surface rule fails on any diff against this file.\n",
    );
    let roots = match workspace.hot_paths.as_deref().map(parse_config) {
        Some(Ok(roots)) => roots,
        Some(Err(_)) | None => return out,
    };
    for (line, _) in surface(workspace, &roots) {
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

/// The hot-path allocation rule: config errors, allocating cone
/// members, and grant hygiene.
pub struct HotPathAlloc;

impl Rule for HotPathAlloc {
    fn id(&self) -> &'static str {
        "hot-path-alloc"
    }
    fn describe(&self) -> &'static str {
        "no ungranted allocation reachable from the hot roots in lint/hot-paths.toml \
         (fix the allocation or add a reasoned [[alloc-ok]] grant)"
    }
    fn scope(&self) -> Scope {
        Scope::Workspace
    }
    fn check_workspace(&self, workspace: &Workspace, findings: &mut Vec<Finding>) {
        let Some(config_text) = &workspace.hot_paths else {
            findings.push(Finding {
                rule: self.id(),
                severity: Severity::Error,
                file: CONFIG_PATH.to_string(),
                line: 0,
                span: (0, 0),
                message: format!(
                    "missing hot-paths config — declare the hot roots in {CONFIG_PATH} \
                     ([[root]] tables with `path` and `reason`)"
                ),
            });
            return;
        };
        let roots = match parse_config(config_text) {
            Ok(roots) => roots,
            Err(message) => {
                findings.push(Finding {
                    rule: self.id(),
                    severity: Severity::Error,
                    file: CONFIG_PATH.to_string(),
                    line: 0,
                    span: (0, 0),
                    message,
                });
                return;
            }
        };
        let analysis = analyze(workspace, &roots);
        let graph = workspace.callgraph();

        for (root, items) in roots.iter().zip(&analysis.root_items) {
            if items.is_empty() {
                findings.push(Finding {
                    rule: self.id(),
                    severity: Severity::Error,
                    file: CONFIG_PATH.to_string(),
                    line: 0,
                    span: (0, 0),
                    message: format!(
                        "hot root `{}` matches no workspace function — fix {CONFIG_PATH}",
                        root.path
                    ),
                });
            }
        }

        for (i, item) in graph.items.iter().enumerate() {
            if !analysis.cone[i] {
                continue;
            }
            match analysis.class_of(i) {
                AllocClass::Free => {}
                AllocClass::Direct => {
                    let mut labels: Vec<String> = analysis.ungranted[i]
                        .iter()
                        .take(4)
                        .map(|s| format!("`{}` line {}", s.what, s.line))
                        .collect();
                    if analysis.ungranted[i].len() > 4 {
                        labels.push(format!("+{} more", analysis.ungranted[i].len() - 4));
                    }
                    findings.push(Finding {
                        rule: self.id(),
                        severity: Severity::Error,
                        file: item.file.clone(),
                        line: item.line,
                        span: (0, 0),
                        message: format!(
                            "hot-path fn `{}` allocates directly ({}) — reuse a scratch/pool \
                             or add an [[alloc-ok]] grant with a reason to {BASELINE_PATH}",
                            item.display_path(),
                            labels.join(", ")
                        ),
                    });
                }
                AllocClass::Reaching => {
                    let via = analysis.calls[i]
                        .iter()
                        .find(|&&c| analysis.reaching[c])
                        .map(|&c| graph.items[c].display_path())
                        .unwrap_or_else(|| "an opaque callee".to_string());
                    findings.push(Finding {
                        rule: self.id(),
                        severity: Severity::Error,
                        file: item.file.clone(),
                        line: item.line,
                        span: (0, 0),
                        message: format!(
                            "hot-path fn `{}` reaches an allocation via `{via}` — fix the \
                             callee or grant its sites in {BASELINE_PATH}",
                            item.display_path()
                        ),
                    });
                }
            }
        }

        for (grant, &used) in workspace.alloc_grants.iter().zip(&analysis.grant_used) {
            if used < grant.count {
                findings.push(Finding {
                    rule: self.id(),
                    severity: Severity::Error,
                    file: BASELINE_PATH.to_string(),
                    line: 0,
                    span: (0, 0),
                    message: format!(
                        "alloc-ok grant for `{}` `{}` covers {} site(s) but only {used} \
                         matched — shrink or remove the grant",
                        grant.path, grant.what, grant.count
                    ),
                });
            }
        }
    }
}

/// The alloc-surface ratchet rule: the classified hot cone must match
/// the committed snapshot.
pub struct AllocSurface;

impl Rule for AllocSurface {
    fn id(&self) -> &'static str {
        "alloc-surface"
    }
    fn describe(&self) -> &'static str {
        "hot-cone allocation classification matches the committed \
         lint/alloc-surface.txt snapshot"
    }
    fn scope(&self) -> Scope {
        Scope::Workspace
    }
    fn check_workspace(&self, workspace: &Workspace, findings: &mut Vec<Finding>) {
        // Config problems are hot-path-alloc findings; the ratchet
        // compares whatever surface the config yields.
        let roots = match workspace.hot_paths.as_deref().map(parse_config) {
            Some(Ok(roots)) => roots,
            Some(Err(_)) | None => return,
        };
        let current = surface(workspace, &roots);
        let Some(snapshot_text) = &workspace.alloc_surface_snapshot else {
            findings.push(Finding {
                rule: self.id(),
                severity: Severity::Error,
                file: SNAPSHOT_PATH.to_string(),
                line: 0,
                span: (0, 0),
                message: format!(
                    "missing alloc-surface snapshot — run `cargo xtask lint \
                     --update-alloc-surface` to create {SNAPSHOT_PATH}"
                ),
            });
            return;
        };
        let mut snapshot = parse_snapshot(snapshot_text);

        for (line, item_line) in &current {
            if let Some(pos) = snapshot.iter().position(|s| s == line) {
                snapshot.remove(pos);
            } else {
                let previous = snapshot
                    .iter()
                    .find(|s| s.file == line.file && s.path == line.path)
                    .map(|s| s.class.clone());
                let detail = match previous {
                    Some(old) => format!("was `{old}`, now `{}`", line.class),
                    None => format!("new on the hot cone, `{}`", line.class),
                };
                findings.push(Finding {
                    rule: self.id(),
                    severity: Severity::Error,
                    file: line.file.clone(),
                    line: (*item_line).max(1),
                    span: (0, 0),
                    message: format!(
                        "alloc surface changed for `{}` ({detail}) — review, then run \
                         `cargo xtask lint --update-alloc-surface`",
                        line.path
                    ),
                });
            }
        }
        for line in snapshot {
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
                    "fn `{}` left the hot cone but is still in the alloc-surface snapshot — \
                     review, then run `cargo xtask lint --update-alloc-surface`",
                    line.path
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::AllocGrant;
    use crate::SourceFile;

    fn files(sources: &[(&str, &str)]) -> Vec<SourceFile> {
        sources
            .iter()
            .map(|(rel, text)| {
                let crate_name = if rel.starts_with("crates/other/") {
                    "axqa-other"
                } else {
                    "axqa-core"
                };
                SourceFile::new(
                    rel.to_string(),
                    crate_name.to_string(),
                    false,
                    text.to_string(),
                )
            })
            .collect()
    }

    fn workspace_with(
        sources: &[(&str, &str)],
        hot_paths: Option<&str>,
        snapshot: Option<&str>,
        grants: Vec<AllocGrant>,
    ) -> Workspace {
        Workspace {
            files: files(sources),
            references: Vec::new(),
            dep_edges: vec![
                ("axqa-core".to_string(), Vec::new()),
                ("axqa-other".to_string(), Vec::new()),
            ],
            api_surface_snapshot: None,
            panic_surface_snapshot: None,
            alloc_surface_snapshot: snapshot.map(str::to_string),
            hot_paths: hot_paths.map(str::to_string),
            alloc_grants: grants,
            graph: std::cell::OnceCell::new(),
        }
    }

    fn root_config(path: &str) -> String {
        format!("[[root]]\npath = \"{path}\"\nreason = \"test kernel\"\n")
    }

    const KERNEL_SRC: &str = "pub fn kernel(n: usize) -> usize { helper(n) }\n\
                              fn helper(n: usize) -> usize { let v: Vec<u32> = Vec::new(); v.len() + n }\n\
                              pub fn unrelated() { let b = Box::new(1); drop(b); }\n";

    #[test]
    fn classification_propagates_up_the_cone() {
        let ws = workspace_with(
            &[("crates/core/src/a.rs", KERNEL_SRC)],
            None,
            None,
            Vec::new(),
        );
        let roots = parse_config(&root_config("kernel")).unwrap();
        let analysis = analyze(&ws, &roots);
        let graph = ws.callgraph();
        let of = |n: &str| graph.items.iter().position(|i| i.name == n).unwrap();
        assert_eq!(analysis.class_of(of("kernel")), AllocClass::Reaching);
        assert_eq!(analysis.class_of(of("helper")), AllocClass::Direct);
        assert!(analysis.cone[of("kernel")] && analysis.cone[of("helper")]);
        // Off-cone fns are not surfaced even though they allocate.
        assert!(!analysis.cone[of("unrelated")]);
    }

    #[test]
    fn grants_neutralize_sites_and_track_usage() {
        let grant = AllocGrant {
            path: "helper".to_string(),
            what: "Vec::new".to_string(),
            count: 1,
            reason: "test".to_string(),
        };
        let ws = workspace_with(
            &[("crates/core/src/a.rs", KERNEL_SRC)],
            Some(&root_config("kernel")),
            None,
            vec![grant],
        );
        let roots = parse_config(ws.hot_paths.as_deref().unwrap()).unwrap();
        let analysis = analyze(&ws, &roots);
        let graph = ws.callgraph();
        let of = |n: &str| graph.items.iter().position(|i| i.name == n).unwrap();
        assert_eq!(analysis.class_of(of("helper")), AllocClass::Free);
        assert_eq!(analysis.class_of(of("kernel")), AllocClass::Free);
        assert_eq!(analysis.grant_used, vec![1]);
    }

    #[test]
    fn over_counted_grants_are_findings() {
        let grant = AllocGrant {
            path: "helper".to_string(),
            what: "Vec::new".to_string(),
            count: 3,
            reason: "test".to_string(),
        };
        let ws = workspace_with(
            &[("crates/core/src/a.rs", KERNEL_SRC)],
            Some(&root_config("kernel")),
            Some(""),
            vec![grant],
        );
        let mut findings = Vec::new();
        HotPathAlloc.check_workspace(&ws, &mut findings);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("covers 3 site(s) but only 1")),
            "{findings:?}"
        );
    }

    #[test]
    fn dependency_pruning_cuts_cross_crate_method_matches() {
        // `x.helper()` conservatively matches axqa-other's `helper`,
        // but axqa-core does not depend on axqa-other, so the edge is
        // pruned and the kernel stays alloc-free.
        let ws = workspace_with(
            &[
                (
                    "crates/core/src/a.rs",
                    "pub fn kernel(x: &S) -> usize { x.helper() }\n",
                ),
                (
                    "crates/other/src/b.rs",
                    "pub fn helper() -> Vec<u32> { Vec::new() }\n",
                ),
            ],
            None,
            None,
            Vec::new(),
        );
        let roots = parse_config(&root_config("kernel")).unwrap();
        let analysis = analyze(&ws, &roots);
        let graph = ws.callgraph();
        let kernel = graph.items.iter().position(|i| i.name == "kernel").unwrap();
        assert_eq!(analysis.class_of(kernel), AllocClass::Free);
    }

    #[test]
    fn unmatched_roots_and_missing_config_report() {
        let ws = workspace_with(
            &[("crates/core/src/a.rs", "pub fn f() {}\n")],
            Some(&root_config("no_such_fn")),
            Some(""),
            Vec::new(),
        );
        let mut findings = Vec::new();
        HotPathAlloc.check_workspace(&ws, &mut findings);
        assert!(
            findings.iter().any(|f| f
                .message
                .contains("`no_such_fn` matches no workspace function")),
            "{findings:?}"
        );

        let ws = workspace_with(
            &[("crates/core/src/a.rs", "pub fn f() {}\n")],
            None,
            None,
            Vec::new(),
        );
        let mut findings = Vec::new();
        HotPathAlloc.check_workspace(&ws, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("missing hot-paths config"));
    }

    #[test]
    fn surface_ratchet_reports_reclassification_and_departure() {
        let snapshot = "# header\n\
                        crates/core/src/a.rs axqa_core::a::kernel alloc-free\n\
                        crates/core/src/a.rs axqa_core::a::gone alloc-free\n";
        let ws = workspace_with(
            &[(
                "crates/core/src/a.rs",
                "pub fn kernel() -> Vec<u32> { Vec::new() }\n",
            )],
            Some(&root_config("kernel")),
            Some(snapshot),
            Vec::new(),
        );
        let mut findings = Vec::new();
        AllocSurface.check_workspace(&ws, &mut findings);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().any(|f| f
            .message
            .contains("was `alloc-free`, now `allocates-directly`")));
        assert!(findings
            .iter()
            .any(|f| f.message.contains("`axqa_core::a::gone` left the hot cone")));
    }

    #[test]
    fn matching_snapshot_is_clean_and_missing_snapshot_reports() {
        let src = "pub fn kernel() -> usize { 1 }\n";
        let config = root_config("kernel");
        let ws = workspace_with(
            &[("crates/core/src/a.rs", src)],
            Some(&config),
            None,
            Vec::new(),
        );
        let rendered = render_surface(&ws);
        assert!(rendered.contains("axqa_core::a::kernel alloc-free"));

        let ws = workspace_with(
            &[("crates/core/src/a.rs", src)],
            Some(&config),
            Some(&rendered),
            Vec::new(),
        );
        let mut findings = Vec::new();
        AllocSurface.check_workspace(&ws, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");

        let ws = workspace_with(
            &[("crates/core/src/a.rs", src)],
            Some(&config),
            None,
            Vec::new(),
        );
        let mut findings = Vec::new();
        AllocSurface.check_workspace(&ws, &mut findings);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("--update-alloc-surface"));
    }

    #[test]
    fn config_parser_rejects_malformed_input() {
        assert!(parse_config("[[root]]\npath = \"x\"\n").is_err()); // missing reason
        assert!(parse_config("path = \"x\"\n").is_err()); // key outside table
        assert!(parse_config("[[root]]\npath = x\n").is_err()); // unquoted
        assert!(parse_config("[[root]]\nnope = \"x\"\n").is_err()); // unknown key
        assert!(parse_config("[other]\n").is_err()); // unknown table
        let roots = parse_config("# c\n\n[[root]]\npath = \"a::b\"\nreason = \"r\"\n").unwrap();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].path, "a::b");
    }

    #[test]
    fn path_matching_respects_module_boundaries() {
        assert!(path_matches(
            "axqa_core::cluster::ClusterState::apply_merge",
            "apply_merge"
        ));
        assert!(path_matches(
            "axqa_core::cluster::ClusterState::apply_merge",
            "ClusterState::apply_merge"
        ));
        assert!(!path_matches(
            "axqa_core::cluster::reapply_merge",
            "apply_merge"
        ));
        assert!(path_matches("apply_merge", "apply_merge"));
    }
}
