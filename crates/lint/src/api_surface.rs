//! Public-API surface snapshot rule.
//!
//! Library crates' plain-`pub` function and struct signatures are
//! extracted from the token streams, normalized, and compared against
//! the committed snapshot `lint/api-surface.txt`. Any churn — an added
//! or removed signature — is a finding until the snapshot is
//! regenerated with `cargo xtask lint --update-api-surface`, making
//! API evolution an explicit, reviewable act rather than a drive-by.
//!
//! `pub(crate)`/`pub(super)` items and `#[cfg(test)]` regions are not
//! part of the surface; binary targets have no API.

use crate::token::{next_code, TokenKind};
use crate::{Finding, Rule, Scope, Severity, SourceFile, Workspace};

/// Path of the committed snapshot, relative to the workspace root.
pub const SNAPSHOT_PATH: &str = "lint/api-surface.txt";

/// Compares the extracted surface against `lint/api-surface.txt`.
pub struct ApiSurface;

impl Rule for ApiSurface {
    fn id(&self) -> &'static str {
        "api-surface"
    }
    fn describe(&self) -> &'static str {
        "public fn/struct signatures match the committed lint/api-surface.txt snapshot"
    }
    fn scope(&self) -> Scope {
        Scope::Workspace
    }
    fn check_workspace(&self, workspace: &Workspace, findings: &mut Vec<Finding>) {
        let current = surface_entries(workspace);
        let Some(snapshot_text) = &workspace.api_surface_snapshot else {
            findings.push(Finding {
                rule: self.id(),
                severity: Severity::Error,
                file: SNAPSHOT_PATH.to_string(),
                line: 0,
                span: (0, 0),
                message: format!(
                    "missing API-surface snapshot — run `cargo xtask lint --update-api-surface` \
                     to create {SNAPSHOT_PATH}"
                ),
            });
            return;
        };
        let snapshot = parse_snapshot(snapshot_text);

        // Multiset diff over sorted lines: a signature change shows up
        // as one removal plus one addition.
        for (entry, line) in diff(&current, &snapshot) {
            findings.push(Finding {
                rule: self.id(),
                severity: Severity::Error,
                file: entry.file.clone(),
                line,
                span: (0, 0),
                message: if line > 0 {
                    format!(
                        "public API added (not in snapshot): `{}` — review, then run \
                         `cargo xtask lint --update-api-surface`",
                        entry.signature
                    )
                } else {
                    format!(
                        "public API removed (still in snapshot): `{}` — review, then run \
                         `cargo xtask lint --update-api-surface`",
                        entry.signature
                    )
                },
            });
        }
    }
}

/// One surface line: the owning file and a normalized signature.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Entry {
    /// Workspace-relative path.
    pub file: String,
    /// Normalized signature (`pub fn ts_build ( doc : & Document ) -> TreeSketch`).
    pub signature: String,
}

/// Extracts the full surface, sorted. Duplicates are kept (two inherent
/// impls can expose same-named methods) so the diff is a true multiset.
pub fn surface_entries(workspace: &Workspace) -> Vec<(Entry, u32)> {
    let mut entries = Vec::new();
    for file in &workspace.files {
        if file.is_bin {
            continue;
        }
        for (signature, line) in extract_file_surface(file) {
            entries.push((
                Entry {
                    file: file.rel.clone(),
                    signature,
                },
                line,
            ));
        }
    }
    entries.sort();
    entries
}

/// Renders the snapshot file contents for `--update-api-surface`.
pub fn render_surface(workspace: &Workspace) -> String {
    let mut out = String::from(
        "# Public API surface (generated by `cargo xtask lint --update-api-surface`).\n\
         # One line per plain-`pub` fn/struct: <file> <normalized signature>.\n\
         # The api-surface rule fails on any diff against this file.\n",
    );
    for (entry, _) in surface_entries(workspace) {
        out.push_str(&entry.file);
        out.push(' ');
        out.push_str(&entry.signature);
        out.push('\n');
    }
    out
}

/// Parses a snapshot back into sorted entries (`#` lines are comments).
fn parse_snapshot(text: &str) -> Vec<Entry> {
    let mut entries: Vec<Entry> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            l.split_once(' ').map(|(file, signature)| Entry {
                file: file.to_string(),
                signature: signature.to_string(),
            })
        })
        .collect();
    entries.sort();
    entries
}

/// Multiset difference both ways. Returns `(entry, line)` where
/// `line > 0` marks an addition (line of the item in its file) and
/// `line == 0` marks a removal.
fn diff(current: &[(Entry, u32)], snapshot: &[Entry]) -> Vec<(Entry, u32)> {
    let mut out = Vec::new();
    let mut snap = snapshot.to_vec();
    for (entry, line) in current {
        if let Some(pos) = snap.iter().position(|s| s == entry) {
            snap.remove(pos);
        } else {
            out.push((entry.clone(), (*line).max(1)));
        }
    }
    for entry in snap {
        out.push((entry, 0));
    }
    out
}

/// Extracts normalized `pub fn`/`pub struct` signatures from one file.
///
/// A signature starts at a plain `pub` (not `pub(...)`) outside
/// `#[cfg(test)]`, runs through qualifier tokens (`const`, `unsafe`,
/// `async`, `extern "C"`) to the `fn`/`struct` keyword, and for
/// functions continues to the body `{` or the terminating `;`
/// (bracket-depth-aware so array types like `[u8; 4]` survive).
/// Structs contribute `pub struct NAME` only — field layout is not API
/// under this rule.
fn extract_file_surface(file: &SourceFile) -> Vec<(String, u32)> {
    let tokens = &file.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident
            || t.text(&file.text) != "pub"
            || file.in_test.get(i).copied().unwrap_or(false)
        {
            i = i.saturating_add(1);
            continue;
        }
        // `pub(...)` restricted visibility is not public API.
        if let Some(n) = next_code(tokens, i) {
            if tokens[n].text(&file.text) == "(" {
                i = i.saturating_add(1);
                continue;
            }
        }
        if let Some((signature, line, resume)) = signature_at(file, i) {
            out.push((signature, line));
            i = resume;
        } else {
            i = i.saturating_add(1);
        }
    }
    out
}

/// Tries to read a fn/struct signature whose `pub` token sits at `i`.
/// Returns `(signature, line, resume_index)`.
fn signature_at(file: &SourceFile, pub_idx: usize) -> Option<(String, u32, usize)> {
    let tokens = &file.tokens;
    let line = tokens[pub_idx].line;

    // Walk qualifiers to find the item keyword.
    let mut j = pub_idx;
    let mut keyword = None;
    for _ in 0..5usize {
        j = next_code(tokens, j)?;
        let text = tokens[j].text(&file.text);
        match text {
            "fn" | "struct" => {
                keyword = Some(text);
                break;
            }
            "const" | "unsafe" | "async" | "extern" => {}
            _ if tokens[j].kind == TokenKind::Literal => {} // the ABI string of `extern "C"`
            _ => return None, // pub use / pub mod / pub enum / pub trait / pub static …
        }
    }
    let keyword = keyword?;

    if keyword == "struct" {
        let name_idx = next_code(tokens, j)?;
        if tokens[name_idx].kind != TokenKind::Ident {
            return None;
        }
        let signature = format!("pub struct {}", tokens[name_idx].text(&file.text));
        return Some((signature, line, name_idx.saturating_add(1)));
    }

    // Function: collect code tokens from `pub` until the body `{` or a
    // `;` outside square brackets (array types carry internal `;`s).
    let mut parts: Vec<&str> = Vec::new();
    let mut k = pub_idx;
    let mut square_depth = 0usize;
    loop {
        let text = tokens[k].text(&file.text);
        match text {
            "{" => break,
            ";" if square_depth == 0 => break,
            "[" => square_depth = square_depth.saturating_add(1),
            "]" => square_depth = square_depth.saturating_sub(1),
            _ => {}
        }
        if !matches!(tokens[k].kind, TokenKind::Comment | TokenKind::DocComment) {
            parts.push(text);
        }
        k = next_code(tokens, k)?;
    }
    Some((parts.join(" "), line, k))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, text: &str) -> SourceFile {
        SourceFile::new(
            rel.to_string(),
            "axqa-core".to_string(),
            false,
            text.to_string(),
        )
    }

    fn surfaces(text: &str) -> Vec<String> {
        extract_file_surface(&file("crates/core/src/lib.rs", text))
            .into_iter()
            .map(|(s, _)| s)
            .collect()
    }

    #[test]
    fn extracts_fn_and_struct_signatures() {
        let got = surfaces(
            "pub fn ts_build(doc: &Document) -> TreeSketch { todo!() }\n\
             pub struct TreeSketch { nodes: Vec<Node> }\n\
             pub const MAX: usize = 4;\n",
        );
        assert_eq!(
            got,
            vec![
                "pub fn ts_build ( doc : & Document ) -> TreeSketch".to_string(),
                "pub struct TreeSketch".to_string(),
            ]
        );
    }

    #[test]
    fn restricted_visibility_and_tests_are_excluded() {
        let got = surfaces(
            "pub(crate) fn helper() {}\n\
             #[cfg(test)]\n\
             mod tests { pub fn fixture() {} }\n",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn qualifiers_and_array_types_survive() {
        let got = surfaces(
            "pub const fn zero() -> [u8; 4] { [0; 4] }\n\
             pub unsafe extern \"C\" fn hook();\n",
        );
        assert_eq!(
            got,
            vec![
                "pub const fn zero ( ) -> [ u8 ; 4 ]".to_string(),
                "pub unsafe extern \"C\" fn hook ( )".to_string(),
            ]
        );
    }

    #[test]
    fn formatting_changes_do_not_move_the_surface() {
        let one = surfaces("pub fn f(a: u32,\n         b: u32) -> u32 { a + b }\n");
        let two = surfaces("pub fn f(a: u32, b: u32) -> u32 { a + b }\n");
        assert_eq!(one, two);
    }

    #[test]
    fn snapshot_diff_reports_additions_and_removals() {
        let ws = Workspace {
            files: vec![file(
                "crates/core/src/lib.rs",
                "pub fn added() {}\npub struct Kept;\n",
            )],
            references: Vec::new(),
            dep_edges: Vec::new(),
            panic_surface_snapshot: None,
            api_surface_snapshot: Some(
                "# header\n\
                 crates/core/src/lib.rs pub struct Kept\n\
                 crates/core/src/lib.rs pub fn removed ( )\n"
                    .to_string(),
            ),
            alloc_surface_snapshot: None,
            hot_paths: None,
            alloc_grants: Vec::new(),
            graph: std::cell::OnceCell::new(),
        };
        let mut findings = Vec::new();
        ApiSurface.check_workspace(&ws, &mut findings);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings
            .iter()
            .any(|f| f.message.contains("added") && f.line > 0));
        assert!(findings
            .iter()
            .any(|f| f.message.contains("removed") && f.line == 0));
    }

    #[test]
    fn missing_snapshot_is_one_actionable_finding() {
        let ws = Workspace {
            files: Vec::new(),
            references: Vec::new(),
            dep_edges: Vec::new(),
            api_surface_snapshot: None,
            panic_surface_snapshot: None,
            alloc_surface_snapshot: None,
            hot_paths: None,
            alloc_grants: Vec::new(),
            graph: std::cell::OnceCell::new(),
        };
        let mut findings = Vec::new();
        ApiSurface.check_workspace(&ws, &mut findings);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("--update-api-surface"));
    }

    #[test]
    fn render_round_trips_through_parse() {
        let ws = Workspace {
            files: vec![file("crates/core/src/lib.rs", "pub fn f() {}\n")],
            references: Vec::new(),
            dep_edges: Vec::new(),
            api_surface_snapshot: None,
            panic_surface_snapshot: None,
            alloc_surface_snapshot: None,
            hot_paths: None,
            alloc_grants: Vec::new(),
            graph: std::cell::OnceCell::new(),
        };
        let rendered = render_surface(&ws);
        let parsed = parse_snapshot(&rendered);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].signature, "pub fn f ( )");
    }
}
