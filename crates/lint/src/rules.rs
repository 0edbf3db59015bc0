//! The per-file token rules, ported from the PR 1 line scanner onto the
//! token stream (DESIGN.md §8). Every rule skips `#[cfg(test)]` tokens
//! via the file's test mask and is immune to string-literal and
//! comment false positives by construction.

use crate::token::{next_code, prev_code, Token, TokenKind};
use crate::{Finding, Rule, SourceFile};

/// Identifier fragments that mark a quantity as count-like.
const COUNT_NEEDLES: [&str; 4] = ["count", "card", "sel", "freq"];

fn finding(rule: &'static str, file: &SourceFile, token: &Token, message: String) -> Finding {
    Finding {
        rule,
        severity: crate::Severity::Error,
        file: file.rel.clone(),
        line: token.line,
        span: (token.start, token.end),
        message,
    }
}

/// The `a.b.c` identifier chain ending at token `i` (inclusive), or
/// `None` if token `i` is not an identifier. Mirrors the old scanner's
/// "trailing identifier" but across lines: walks `Ident (. Ident)*`
/// backwards from `i`.
fn ident_chain(file: &SourceFile, i: usize) -> Option<(usize, String)> {
    if file.tokens[i].kind != TokenKind::Ident {
        return None;
    }
    let mut first = i;
    while let Some(dot) = prev_code(&file.tokens, first) {
        if file.tokens[dot].text(&file.text) != "." {
            break;
        }
        let Some(prev) = prev_code(&file.tokens, dot) else {
            break;
        };
        if file.tokens[prev].kind != TokenKind::Ident {
            break;
        }
        first = prev;
    }
    let mut chain = String::new();
    let mut j = first;
    loop {
        if !chain.is_empty() {
            chain.push('.');
        }
        chain.push_str(file.tokens[j].text(&file.text));
        if j == i {
            break;
        }
        // Step forward over the `.` to the next segment.
        let dot = next_code(&file.tokens, j)?;
        j = next_code(&file.tokens, dot)?;
    }
    Some((first, chain))
}

// ---------------------------------------------------------------------
// Rule 1: count-cast — all crates.
// ---------------------------------------------------------------------

/// No `as u32` / `as usize` on count-like identifiers, in any crate:
/// a silently truncating cast of a `count`/`card`/`sel`/`freq` value
/// corrupts every downstream estimate. Use `u32::try_from` or
/// `axqa_xml::dense_id`.
pub struct CountCast;

impl Rule for CountCast {
    fn id(&self) -> &'static str {
        "count-cast"
    }
    fn describe(&self) -> &'static str {
        "no `as u32`/`as usize` on count-like identifiers (count/card/sel/freq); use try_from/dense_id"
    }
    fn check_file(&self, file: &SourceFile, findings: &mut Vec<Finding>) {
        for (i, token) in file.tokens.iter().enumerate() {
            if file.in_test[i] || token.kind != TokenKind::Ident || token.text(&file.text) != "as" {
                continue;
            }
            let Some(target) = next_code(&file.tokens, i) else {
                continue;
            };
            let target_text = file.tokens[target].text(&file.text);
            if target_text != "u32" && target_text != "usize" {
                continue;
            }
            let Some(prev) = prev_code(&file.tokens, i) else {
                continue;
            };
            let Some((_, chain)) = ident_chain(file, prev) else {
                continue;
            };
            // Judge the final segment (the field/binding actually being
            // cast) so receiver chains don't contribute — `self` must
            // not match `sel`.
            let last = chain.rsplit('.').next().unwrap_or_default();
            let lower = last.to_ascii_lowercase();
            if COUNT_NEEDLES.iter().any(|needle| lower.contains(needle)) {
                findings.push(finding(
                    self.id(),
                    file,
                    token,
                    format!(
                        "`{chain} as {target_text}` — lossy cast of a count-like \
                         quantity (use try_from/dense_id)"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule 2: float-eq — the distance crate only.
// ---------------------------------------------------------------------

/// No float `==`/`!=` in `crates/distance/`: the error-metric crate
/// compares with tolerances, never exactly.
pub struct FloatEq;

/// True for number tokens of float type: a decimal point, an exponent,
/// or an explicit `f32`/`f64` suffix (radix-prefixed integers excluded).
fn is_float_literal(text: &str) -> bool {
    if text.ends_with("f64") || text.ends_with("f32") {
        return true;
    }
    if text.starts_with("0x") || text.starts_with("0o") || text.starts_with("0b") {
        return false;
    }
    text.contains('.') || text.contains('e') || text.contains('E')
}

impl Rule for FloatEq {
    fn id(&self) -> &'static str {
        "float-eq"
    }
    fn describe(&self) -> &'static str {
        "no float `==`/`!=` in crates/distance/ (compare with a tolerance)"
    }
    fn check_file(&self, file: &SourceFile, findings: &mut Vec<Finding>) {
        if file.crate_name != "axqa-distance" {
            return;
        }
        for (i, token) in file.tokens.iter().enumerate() {
            if file.in_test[i] || token.kind != TokenKind::Punct {
                continue;
            }
            let op = token.text(&file.text);
            if op != "==" && op != "!=" {
                continue;
            }
            let float_side = [prev_code(&file.tokens, i), next_code(&file.tokens, i)]
                .into_iter()
                .flatten()
                .any(|j| {
                    file.tokens[j].kind == TokenKind::Number
                        && is_float_literal(file.tokens[j].text(&file.text))
                });
            if float_side {
                findings.push(finding(
                    self.id(),
                    file,
                    token,
                    "float equality comparison in distance/ (compare with a tolerance)".to_string(),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule 3: paper-doc — core build/eval entry points cite the paper.
// ---------------------------------------------------------------------

/// Every plain `pub fn` in `core/src/build.rs` and `core/src/eval.rs`
/// carries a doc comment citing the paper (a `§` section or a `Fig.`
/// reference), so the algorithmic surface stays anchored to its source.
pub struct PaperDoc;

impl Rule for PaperDoc {
    fn id(&self) -> &'static str {
        "paper-doc"
    }
    fn describe(&self) -> &'static str {
        "pub fns in core/src/{build,eval}.rs cite the paper (§ or Fig.) in their doc comment"
    }
    fn check_file(&self, file: &SourceFile, findings: &mut Vec<Finding>) {
        if !file.rel.ends_with("core/src/build.rs") && !file.rel.ends_with("core/src/eval.rs") {
            return;
        }
        for (i, token) in file.tokens.iter().enumerate() {
            if file.in_test[i] || token.kind != TokenKind::Ident || token.text(&file.text) != "pub"
            {
                continue;
            }
            // Plain `pub` only: `pub(crate)` etc. is not public API.
            let Some(mut j) = next_code(&file.tokens, i) else {
                continue;
            };
            if file.tokens[j].text(&file.text) == "(" {
                continue;
            }
            // Skip qualifiers up to `fn`; bail on non-fn items.
            let mut is_fn = false;
            for _ in 0..4 {
                let text = file.tokens[j].text(&file.text);
                if text == "fn" {
                    is_fn = true;
                    break;
                }
                if !matches!(text, "const" | "unsafe" | "async" | "extern")
                    && file.tokens[j].kind != TokenKind::Literal
                {
                    break;
                }
                match next_code(&file.tokens, j) {
                    Some(next) => j = next,
                    None => break,
                }
            }
            if !is_fn {
                continue;
            }
            if !preceding_docs_cite_paper(file, i) {
                findings.push(finding(
                    self.id(),
                    file,
                    token,
                    "pub fn without a paper citation (§ or Fig.) in its doc comment".to_string(),
                ));
            }
        }
    }
}

/// Walks backwards from the `pub` token over attributes and doc
/// comments; true if any doc comment in that run cites the paper.
fn preceding_docs_cite_paper(file: &SourceFile, pub_index: usize) -> bool {
    let mut j = pub_index;
    while j > 0 {
        j -= 1;
        let token = &file.tokens[j];
        match token.kind {
            TokenKind::DocComment => {
                let text = token.text(&file.text);
                if text.contains('§') || text.contains("Fig.") {
                    return true;
                }
            }
            TokenKind::Comment => {}
            _ => {
                // Attributes between docs and the fn are fine: skip one
                // `#[…]` group (we're walking backwards, so from `]`
                // back to `#`).
                if token.text(&file.text) == "]" {
                    let mut depth = 0i64;
                    while j > 0 {
                        match file.tokens[j].text(&file.text) {
                            "]" => depth += 1,
                            "[" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j -= 1;
                    }
                    // Expect the `#` before the `[`.
                    if j > 0 && file.tokens[j - 1].text(&file.text) == "#" {
                        j -= 1;
                        continue;
                    }
                    return false;
                }
                return false;
            }
        }
    }
    false
}

// ---------------------------------------------------------------------
// Rule 4: no-unwrap — everywhere outside tests.
// ---------------------------------------------------------------------

/// No `.unwrap()` in non-test code, anywhere: library code returns
/// typed errors, binaries match explicitly.
pub struct NoUnwrap;

impl Rule for NoUnwrap {
    fn id(&self) -> &'static str {
        "no-unwrap"
    }
    fn describe(&self) -> &'static str {
        "no `.unwrap()`, `.expect(…)` or `.unwrap_unchecked()` outside #[cfg(test)] \
         (return an error or match explicitly)"
    }
    fn check_file(&self, file: &SourceFile, findings: &mut Vec<Finding>) {
        for (i, token) in file.tokens.iter().enumerate() {
            if file.in_test[i] || token.kind != TokenKind::Ident {
                continue;
            }
            let name = token.text(&file.text);
            if !matches!(name, "unwrap" | "expect" | "unwrap_unchecked") {
                continue;
            }
            // Tokens carry no whitespace, so `.` adjacency holds even
            // when rustfmt breaks the receiver chain across lines.
            let dotted =
                prev_code(&file.tokens, i).is_some_and(|j| file.tokens[j].text(&file.text) == ".");
            if !dotted {
                continue;
            }
            let open = next_code(&file.tokens, i);
            let called = match name {
                // `expect` takes a message; any call form counts.
                "expect" => open.is_some_and(|j| file.tokens[j].text(&file.text) == "("),
                // `unwrap` / `unwrap_unchecked` take no arguments —
                // requiring `()` skips unrelated same-named methods.
                _ => {
                    open.is_some_and(|j| file.tokens[j].text(&file.text) == "(")
                        && open
                            .and_then(|j| next_code(&file.tokens, j))
                            .is_some_and(|j| file.tokens[j].text(&file.text) == ")")
                }
            };
            if called {
                findings.push(finding(
                    self.id(),
                    file,
                    token,
                    format!("`.{name}(…)` in non-test code (return an error or match explicitly)"),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule 5: forbidden-api — print macros in libraries, process::exit
// anywhere.
// ---------------------------------------------------------------------

/// Library code must not print: diagnostics route through return values
/// (`Result`, rendered `String`s) so callers decide what reaches a
/// terminal. Binaries may print, but nothing may call
/// `std::process::exit` — `main` returns `ExitCode`, and `exit` skips
/// destructors mid-unwind. And nothing outside `crates/obs` may touch
/// `std::alloc` or implement `GlobalAlloc`: the counting allocator
/// (DESIGN.md §12) is the single installation point for allocation
/// accounting, and a second allocator wrapper would silently bypass it.
pub struct ForbiddenApi;

const PRINT_MACROS: [&str; 4] = ["println", "eprintln", "print", "eprint"];

impl Rule for ForbiddenApi {
    fn id(&self) -> &'static str {
        "forbidden-api"
    }
    fn describe(&self) -> &'static str {
        "no print macros or raw Instant/SystemTime::now in library code (time via axqa-obs); \
         no std::process::exit anywhere (return ExitCode); no std::alloc/GlobalAlloc outside \
         crates/obs (allocate through the counting allocator)"
    }
    fn check_file(&self, file: &SourceFile, findings: &mut Vec<Finding>) {
        for (i, token) in file.tokens.iter().enumerate() {
            if file.in_test[i] || token.kind != TokenKind::Ident {
                continue;
            }
            let text = token.text(&file.text);
            if !file.is_bin && PRINT_MACROS.contains(&text) {
                let is_macro = next_code(&file.tokens, i)
                    .is_some_and(|j| file.tokens[j].text(&file.text) == "!");
                // `writeln!` etc. take a target; only the bare stdout
                // macros are banned. A path prefix (`std::println!`)
                // still ends on this ident, so check we are not a path
                // *segment* prefix like `print` in `print_tree`.
                if is_macro {
                    findings.push(finding(
                        self.id(),
                        file,
                        token,
                        format!(
                            "`{text}!` in library code — route diagnostics through \
                             return values (render to a String or return Result)"
                        ),
                    ));
                }
            }
            if text == "exit" && path_is_process_exit(file, i) {
                let called = next_code(&file.tokens, i)
                    .is_some_and(|j| file.tokens[j].text(&file.text) == "(");
                if called {
                    findings.push(finding(
                        self.id(),
                        file,
                        token,
                        "`std::process::exit` — return ExitCode/Result from main \
                         instead (exit skips destructors)"
                            .to_string(),
                    ));
                }
            }
            // Raw allocator access bypasses the allocation accounting
            // the same way raw clocks bypass the timing layer: axqa-obs
            // owns the one GlobalAlloc impl (DESIGN.md §12), everything
            // else installs it via `axqa_obs::alloc::CountingAlloc`.
            // Applies to binaries too — a bin-local allocator wrapper
            // would shadow the counting one.
            if file.crate_name != "axqa-obs" {
                if text == "alloc" && path_is_std_alloc(file, i) {
                    findings.push(finding(
                        self.id(),
                        file,
                        token,
                        "`std::alloc` outside crates/obs — allocation accounting is \
                         owned by axqa_obs::alloc (DESIGN.md §12)"
                            .to_string(),
                    ));
                }
                if text == "GlobalAlloc" {
                    findings.push(finding(
                        self.id(),
                        file,
                        token,
                        "`GlobalAlloc` outside crates/obs — install \
                         axqa_obs::alloc::CountingAlloc instead of wrapping the \
                         allocator again (DESIGN.md §12)"
                            .to_string(),
                    ));
                }
            }
            // Raw clock reads in library crates bypass the observability
            // layer: all timing flows through axqa-obs (Stopwatch or the
            // recorder's monotonic epoch, DESIGN.md §9) so traces and
            // bench reports share one clock. Binaries may still read the
            // clock directly; axqa-obs is the clock's one owner.
            if text == "now" && !file.is_bin && file.crate_name != "axqa-obs" {
                if let Some(clock) = raw_timing_owner(file, i) {
                    let called = next_code(&file.tokens, i)
                        .is_some_and(|j| file.tokens[j].text(&file.text) == "(");
                    if called {
                        findings.push(finding(
                            self.id(),
                            file,
                            token,
                            format!(
                                "`{clock}::now()` in library code — time through \
                                 axqa_obs::Stopwatch / spans so traces and reports \
                                 share the recorder's clock (DESIGN.md §9)"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// True when the `exit` ident at `i` is reached via a `process::`
/// path segment (`std::process::exit`, `process::exit`).
fn path_is_process_exit(file: &SourceFile, i: usize) -> bool {
    let Some(sep) = prev_code(&file.tokens, i) else {
        return false;
    };
    if file.tokens[sep].text(&file.text) != "::" {
        return false;
    }
    prev_code(&file.tokens, sep).is_some_and(|j| file.tokens[j].text(&file.text) == "process")
}

/// True when the `alloc` ident at `i` is the module in a `std::alloc`
/// path (`std::alloc::System`, `use std::alloc::GlobalAlloc`). A bare
/// `alloc::` path or `Vec::alloc`-style method is not matched — the
/// rule targets the allocator module, not the common word.
fn path_is_std_alloc(file: &SourceFile, i: usize) -> bool {
    let Some(sep) = prev_code(&file.tokens, i) else {
        return false;
    };
    if file.tokens[sep].text(&file.text) != "::" {
        return false;
    }
    prev_code(&file.tokens, sep).is_some_and(|j| file.tokens[j].text(&file.text) == "std")
}

/// When the `now` ident at `i` is reached via an `Instant::` or
/// `SystemTime::` path segment, returns the clock type's name.
fn raw_timing_owner(file: &SourceFile, i: usize) -> Option<&'static str> {
    let sep = prev_code(&file.tokens, i)?;
    if file.tokens[sep].text(&file.text) != "::" {
        return None;
    }
    match file.tokens[prev_code(&file.tokens, sep)?].text(&file.text) {
        "Instant" => Some("Instant"),
        "SystemTime" => Some("SystemTime"),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(
        rule: &dyn Rule,
        rel: &str,
        crate_name: &str,
        is_bin: bool,
        src: &str,
    ) -> Vec<Finding> {
        let file = SourceFile::new(rel.into(), crate_name.into(), is_bin, src.into());
        let mut findings = Vec::new();
        rule.check_file(&file, &mut findings);
        findings
    }

    #[test]
    fn count_cast_flags_direct_and_multiline_casts() {
        let src = "fn f(elem_count: u64) -> u32 {\n    let x = elem_count as u32;\n    x\n}\n";
        let v = check(
            &CountCast,
            "crates/core/src/cluster.rs",
            "axqa-core",
            false,
            src,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("lossy cast"));
        // The line-based scanner missed casts split across lines.
        let multiline = "fn f(c: C) -> u32 { let x = c.elem_count\n        as u32; x }\n";
        let v = check(
            &CountCast,
            "crates/core/src/cluster.rs",
            "axqa-core",
            false,
            multiline,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("c.elem_count as u32"));
    }

    #[test]
    fn count_cast_ignores_strings_self_and_tests() {
        let in_string = "fn f() -> &'static str { \"count as u32\" }\n";
        assert!(check(&CountCast, "a.rs", "axqa-core", false, in_string).is_empty());
        let receiver = "fn f(s: &S) -> usize { s.selector.len as usize }\n";
        assert!(check(&CountCast, "a.rs", "axqa-core", false, receiver).is_empty());
        let self_ok = "fn f(&self) -> usize { self.width as usize }\n";
        assert!(check(&CountCast, "a.rs", "axqa-core", false, self_ok).is_empty());
        let test_code =
            "#[cfg(test)]\nmod tests {\n fn t(count: usize) { let _ = count as u32; }\n}\n";
        assert!(check(&CountCast, "a.rs", "axqa-core", false, test_code).is_empty());
    }

    #[test]
    fn float_eq_only_in_distance_and_only_floats() {
        let code = "fn f(x: f64) -> bool { x == 0.5 }\n";
        assert_eq!(
            check(
                &FloatEq,
                "crates/distance/src/esd.rs",
                "axqa-distance",
                false,
                code
            )
            .len(),
            1
        );
        assert!(check(
            &FloatEq,
            "crates/core/src/eval.rs",
            "axqa-core",
            false,
            code
        )
        .is_empty());
        let ints = "fn f(x: u32) -> bool { x == 5 }\n";
        assert!(check(
            &FloatEq,
            "crates/distance/src/esd.rs",
            "axqa-distance",
            false,
            ints
        )
        .is_empty());
        let suffixed = "fn f(x: f32) -> bool { x != 1f32 }\n";
        assert_eq!(
            check(
                &FloatEq,
                "crates/distance/src/esd.rs",
                "axqa-distance",
                false,
                suffixed
            )
            .len(),
            1
        );
    }

    #[test]
    fn paper_doc_requires_citation_on_build_and_eval() {
        let undocumented = "pub fn ts_build() {}\n";
        assert_eq!(
            check(
                &PaperDoc,
                "crates/core/src/build.rs",
                "axqa-core",
                false,
                undocumented
            )
            .len(),
            1
        );
        let documented = "/// TSBUILD (Fig. 5).\npub fn ts_build() {}\n";
        assert!(check(
            &PaperDoc,
            "crates/core/src/build.rs",
            "axqa-core",
            false,
            documented
        )
        .is_empty());
        let section = "/// See §4.3.\n#[inline]\npub fn eval() {}\n";
        assert!(check(
            &PaperDoc,
            "crates/core/src/eval.rs",
            "axqa-core",
            false,
            section
        )
        .is_empty());
        // Other files are exempt; pub(crate) and pub struct are exempt.
        assert!(check(
            &PaperDoc,
            "crates/xml/src/tree.rs",
            "axqa-xml",
            false,
            undocumented
        )
        .is_empty());
        let scoped = "pub(crate) fn helper() {}\npub struct S;\n";
        assert!(check(
            &PaperDoc,
            "crates/core/src/build.rs",
            "axqa-core",
            false,
            scoped
        )
        .is_empty());
    }

    #[test]
    fn unwrap_flagged_outside_tests_only() {
        let src = "fn g(o: Option<u32>) -> u32 { o.unwrap() }\n";
        assert_eq!(check(&NoUnwrap, "a.rs", "axqa-core", false, src).len(), 1);
        let test_src = "#[cfg(test)]\nmod tests { fn t() { Some(1).unwrap(); } }\n";
        assert!(check(&NoUnwrap, "a.rs", "axqa-core", false, test_src).is_empty());
        // `unwrap_or_else` is not `.unwrap()`.
        let or_else = "fn g(o: Option<u32>) -> u32 { o.unwrap_or_else(|| 0) }\n";
        assert!(check(&NoUnwrap, "a.rs", "axqa-core", false, or_else).is_empty());
    }

    #[test]
    fn expect_flagged_across_rustfmt_multiline_chains() {
        // Exactly the shape rustfmt emits for a long receiver chain.
        let multiline = "fn g(v: &[u32]) -> u32 {\n\
                         \x20   v.iter()\n\
                         \x20       .map(|x| x.checked_mul(2))\n\
                         \x20       .next()\n\
                         \x20       .flatten()\n\
                         \x20       .expect(\"nonempty input\")\n\
                         }\n";
        let findings = check(&NoUnwrap, "a.rs", "axqa-core", false, multiline);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("expect"));
        assert_eq!(findings[0].line, 6);

        // Multiline `.unwrap()` after a broken call is also caught.
        let unwrap_ml = "fn g(o: Option<u32>) -> u32 {\n\
                         \x20   o.map(|x| x)\n\
                         \x20       .unwrap()\n\
                         }\n";
        assert_eq!(
            check(&NoUnwrap, "a.rs", "axqa-core", false, unwrap_ml).len(),
            1
        );
    }

    #[test]
    fn unwrap_unchecked_flagged_and_expect_in_tests_exempt() {
        let unchecked = "fn g(o: Option<u32>) -> u32 {\n\
                         \x20   unsafe { o.unwrap_unchecked() }\n\
                         }\n";
        let findings = check(&NoUnwrap, "a.rs", "axqa-core", false, unchecked);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("unwrap_unchecked"));

        let test_src = "#[cfg(test)]\nmod tests { fn t() { Some(1).expect(\"present\"); } }\n";
        assert!(check(&NoUnwrap, "a.rs", "axqa-core", false, test_src).is_empty());

        // A user method merely named `unwrap` with arguments is not std's.
        let named = "fn g(w: W) -> u32 { w.unwrap(3) }\n";
        assert!(check(&NoUnwrap, "a.rs", "axqa-core", false, named).is_empty());
    }

    #[test]
    fn forbidden_api_prints_in_lib_exit_everywhere() {
        let lib_print = "fn f() { println!(\"x\"); }\n";
        assert_eq!(
            check(
                &ForbiddenApi,
                "crates/harness/src/lib.rs",
                "axqa-harness",
                false,
                lib_print
            )
            .len(),
            1
        );
        // Binaries may print…
        assert!(check(
            &ForbiddenApi,
            "crates/cli/src/main.rs",
            "axqa-cli",
            true,
            lib_print
        )
        .is_empty());
        // …but nothing may exit.
        let exits = "fn f() { std::process::exit(2); }\n";
        assert_eq!(
            check(
                &ForbiddenApi,
                "crates/cli/src/main.rs",
                "axqa-cli",
                true,
                exits
            )
            .len(),
            1
        );
        let bare = "fn f() { process::exit(2); }\n";
        assert_eq!(
            check(
                &ForbiddenApi,
                "crates/cli/src/main.rs",
                "axqa-cli",
                true,
                bare
            )
            .len(),
            1
        );
        // writeln!/print_tree idents are fine; exit as a plain ident is fine.
        let ok = "fn print_tree(w: &mut W) { writeln!(w, \"x\").ok(); exit_state(); }\n";
        assert!(check(
            &ForbiddenApi,
            "crates/harness/src/lib.rs",
            "axqa-harness",
            false,
            ok
        )
        .is_empty());
    }

    #[test]
    fn forbidden_api_raw_clock_reads_in_libraries() {
        // Library crates must route timing through axqa-obs…
        let instant = "fn f() { let t = std::time::Instant::now(); drop(t); }\n";
        let v = check(
            &ForbiddenApi,
            "crates/harness/src/bench.rs",
            "axqa-harness",
            false,
            instant,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("Instant::now()"));
        let system = "fn f() { let t = SystemTime::now(); drop(t); }\n";
        assert_eq!(
            check(
                &ForbiddenApi,
                "crates/core/src/build.rs",
                "axqa-core",
                false,
                system
            )
            .len(),
            1
        );
        // …but axqa-obs owns the clock, and binaries may read it.
        assert!(check(
            &ForbiddenApi,
            "crates/obs/src/recorder.rs",
            "axqa-obs",
            false,
            instant
        )
        .is_empty());
        assert!(check(
            &ForbiddenApi,
            "crates/harness/src/main.rs",
            "axqa-harness",
            true,
            instant
        )
        .is_empty());
        // `now` as a plain ident or another type's method is fine.
        let ok = "fn f(now: u64, w: &Watch) { let _ = now + w.now(); Clock::now(); }\n";
        assert!(check(
            &ForbiddenApi,
            "crates/core/src/build.rs",
            "axqa-core",
            false,
            ok
        )
        .is_empty());
        // Tests inside library files may read the clock.
        let test_code = "#[cfg(test)]\nmod tests { fn t() { let _ = Instant::now(); } }\n";
        assert!(check(
            &ForbiddenApi,
            "crates/core/src/build.rs",
            "axqa-core",
            false,
            test_code
        )
        .is_empty());
    }

    #[test]
    fn forbidden_api_allocator_access_outside_obs() {
        // `std::alloc` paths are banned in libraries and binaries alike…
        let use_alloc = "use std::alloc::{GlobalAlloc, Layout};\n";
        let v = check(
            &ForbiddenApi,
            "crates/core/src/cluster.rs",
            "axqa-core",
            false,
            use_alloc,
        );
        assert_eq!(v.len(), 2, "{v:?}"); // the path and the trait name
        assert!(v[0].message.contains("std::alloc"));
        let direct = "fn f(l: Layout) { let p = unsafe { std::alloc::alloc(l) }; drop(p); }\n";
        let v = check(
            &ForbiddenApi,
            "crates/harness/src/main.rs",
            "axqa-harness",
            true,
            direct,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        // …as is a second GlobalAlloc impl anywhere outside obs.
        let wrapper = "struct MyAlloc;\nunsafe impl GlobalAlloc for MyAlloc {}\n";
        let v = check(
            &ForbiddenApi,
            "crates/cli/src/main.rs",
            "axqa-cli",
            false,
            wrapper,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("GlobalAlloc"));
        // axqa-obs owns the allocator; other `alloc` idents are fine.
        assert!(check(
            &ForbiddenApi,
            "crates/obs/src/alloc.rs",
            "axqa-obs",
            false,
            use_alloc
        )
        .is_empty());
        let ok = "fn f(a: &Arena) { a.alloc(4); my::alloc::helper(); }\n";
        assert!(check(
            &ForbiddenApi,
            "crates/core/src/build.rs",
            "axqa-core",
            false,
            ok
        )
        .is_empty());
        // Test code may build throwaway allocator fixtures.
        let test_code = "#[cfg(test)]\nmod tests { use std::alloc::GlobalAlloc; fn t() {} }\n";
        assert!(check(
            &ForbiddenApi,
            "crates/core/src/build.rs",
            "axqa-core",
            false,
            test_code
        )
        .is_empty());
    }
}
