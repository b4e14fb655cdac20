//! Workspace lint pass.
//!
//! Repo-specific source rules over the *library* crates (`core`, `dist`,
//! `runtime`, `factor`, `matching`, `kernels`, `json`) — the code that
//! must not panic or mis-order under a malformed input, because the CLI
//! and the test harnesses both sit on top of it:
//!
//! * `no-unwrap` / `no-expect` — `.unwrap()` / `.expect(…)` forbidden
//!   outside `#[cfg(test)]` blocks. Genuinely infallible sites (lock
//!   poisoning, checked invariants) are enumerated in an allowlist file,
//!   one `path: trimmed-line` entry each, so every such site is an
//!   explicit, reviewable decision.
//! * `nan-ordering` — `.partial_cmp(` forbidden outside the blessed
//!   bits-ordered `Time` helpers in `runtime/src/sim.rs`; everything else
//!   must use `total_cmp` (a NaN slipping into a schedule comparator
//!   would silently corrupt the ordering).
//! * `unsafe-outside-steal` / `missing-safety-comment` — `unsafe` is
//!   confined to `factor/src/steal.rs` (the work-stealing deque) and
//!   `kernels/src/dispatch.rs` (the one `#[target_feature]` call), and
//!   every use there must carry a `// SAFETY:` comment within the three
//!   preceding lines.
//! * `lossy-cast` — `as`-casts to narrow integer types (`u8`/`u16`/
//!   `u32`/`i8`/`i16`/`i32`/`NodeId`) forbidden in the wire crates
//!   (`net`, `core`): a silently truncating cast in a frame header or an
//!   owner computation corrupts the protocol instead of failing. Use
//!   `try_from` or widen; the handful of provably-in-range sites are
//!   allowlisted.
//!
//! The scanner is line-based: `//` comments are stripped before matching
//! and `#[cfg(test)]` blocks are skipped by brace tracking. Allowlist
//! entries that no longer match anything are themselves findings
//! (`stale-allowlist`), so the list can only shrink as sites get fixed.

use std::fmt;
use std::path::{Path, PathBuf};

/// Crates subject to the pass, relative to the workspace root.
const LIB_CRATES: [&str; 8] = [
    "crates/core",
    "crates/dist",
    "crates/runtime",
    "crates/factor",
    "crates/matching",
    "crates/kernels",
    "crates/json",
    "crates/net",
];

/// Files allowed to contain `unsafe` (with `// SAFETY:` comments).
const UNSAFE_ALLOWED_IN: [&str; 2] = [
    "crates/factor/src/steal.rs",
    "crates/kernels/src/dispatch.rs",
];

/// File allowed to use `partial_cmp` (the bits-ordered `Time` wrapper).
const NAN_ORDERING_ALLOWED_IN: &str = "crates/runtime/src/sim.rs";

/// Crates where a narrowing `as` cast can corrupt wire frames or owner
/// maps and is therefore banned outside the allowlist.
const LOSSY_CAST_CRATES: [&str; 2] = ["crates/net/", "crates/core/"];

/// Narrow integer targets a lossy `as` cast can silently truncate to.
const NARROW_INT_TYPES: [&str; 7] = ["u8", "u16", "u32", "i8", "i16", "i32", "NodeId"];

/// One allowlisted source line: a workspace-relative path plus the
/// trimmed line content it blesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// Trimmed source line the entry matches.
    pub line: String,
}

/// Parsed allowlist (see `scripts/lint_allow.txt`).
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    /// All entries, in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parse the `path: trimmed-line` format; `#` lines and blank lines
    /// are ignored.
    ///
    /// # Errors
    /// Names the first line missing the `: ` separator.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (k, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((path, rest)) = line.split_once(": ") else {
                return Err(format!(
                    "allowlist line {}: expected \"path.rs: source line\", got {line:?}",
                    k + 1
                ));
            };
            entries.push(AllowEntry {
                path: path.trim().to_string(),
                line: rest.trim().to_string(),
            });
        }
        Ok(Self { entries })
    }

    /// Load and parse an allowlist file.
    ///
    /// # Errors
    /// On IO failure or parse errors, with the path in the message.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read allowlist {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn matches(&self, path: &str, trimmed: &str) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.path == path && e.line == trimmed)
    }
}

/// One source-rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number (0 for whole-file/allowlist findings).
    pub line: usize,
    /// Stable rule tag.
    pub rule: &'static str,
    /// The offending trimmed source line or an explanation.
    pub message: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Outcome of one workspace lint pass.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All violations, in path/line order.
    pub findings: Vec<LintFinding>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Sites suppressed by the allowlist.
    pub allowed: usize,
}

impl LintReport {
    /// No findings of any rule.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Render counters plus all findings, one per line.
    #[must_use]
    pub fn to_text(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "lint: {} files scanned, {} allowlisted sites, {} finding(s)",
            self.files_scanned,
            self.allowed,
            self.findings.len()
        );
        for f in &self.findings {
            let _ = writeln!(out, "  {f}");
        }
        out
    }
}

/// Strip a `//` comment, unless the `//` sits inside a string literal.
fn code_portion(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1, // skip escaped char
            b'"' => in_str = !in_str,
            b'/' if !in_str && i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                return &line[..i];
            }
            _ => {}
        }
        i += 1;
    }
    line
}

/// Whether `code` contains `unsafe` as a standalone word (so
/// `unsafe_op_in_unsafe_fn` does not count).
fn has_unsafe_keyword(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(at) = code[from..].find("unsafe") {
        let start = from + at;
        let end = start + "unsafe".len();
        let word = |b: u8| b == b'_' || b.is_ascii_alphanumeric();
        let before_ok = start == 0 || !word(bytes[start - 1]);
        let after_ok = end == bytes.len() || !word(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Whether `code` contains a cast `as T` with `T` one of the narrow
/// integer types — `as` matched as a standalone word so identifiers
/// like `last` or paths like `as_u32(` do not count.
fn has_lossy_cast(code: &str) -> bool {
    let bytes = code.as_bytes();
    let word = |b: u8| b == b'_' || b.is_ascii_alphanumeric();
    let mut from = 0;
    while let Some(at) = code[from..].find(" as ") {
        let start = from + at + 1; // index of the 'a'
        from = start + 3;
        if start > 0 && word(bytes[start - 1]) {
            continue;
        }
        let rest = &code[start + 3..];
        let target: String = rest
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if NARROW_INT_TYPES.contains(&target.as_str()) {
            return true;
        }
    }
    false
}

/// Scan one file's text; `rel` is its workspace-relative path.
fn scan_file(rel: &str, text: &str, allow: &Allowlist, used: &mut [bool], out: &mut LintReport) {
    let mut in_test = false;
    let mut test_depth: i32 = 0;
    let mut test_entered = false;
    let mut recent: Vec<String> = Vec::new(); // raw lines, for SAFETY lookback
    for (k, raw) in text.lines().enumerate() {
        let lineno = k + 1;
        let trimmed = raw.trim();
        if in_test {
            for b in raw.bytes() {
                match b {
                    b'{' => {
                        test_depth += 1;
                        test_entered = true;
                    }
                    b'}' => test_depth -= 1,
                    _ => {}
                }
            }
            if test_entered && test_depth <= 0 {
                in_test = false;
            }
            continue;
        }
        if trimmed.starts_with("#[cfg(test)]") {
            in_test = true;
            test_depth = 0;
            test_entered = false;
            continue;
        }
        let code = code_portion(raw);
        let mut violations: Vec<(&'static str, &str)> = Vec::new();
        if code.contains(".unwrap()") {
            violations.push(("no-unwrap", trimmed));
        }
        if code.contains(".expect(") {
            violations.push(("no-expect", trimmed));
        }
        if code.contains(".partial_cmp(") && rel != NAN_ORDERING_ALLOWED_IN {
            violations.push(("nan-ordering", trimmed));
        }
        if LOSSY_CAST_CRATES.iter().any(|c| rel.starts_with(c)) && has_lossy_cast(code) {
            violations.push(("lossy-cast", trimmed));
        }
        if has_unsafe_keyword(code) {
            if !UNSAFE_ALLOWED_IN.contains(&rel) {
                violations.push(("unsafe-outside-steal", trimmed));
            } else {
                let commented = code_portion(raw) != raw && raw.contains("// SAFETY:");
                let lookback = recent
                    .iter()
                    .rev()
                    .take(3)
                    .any(|l| l.trim_start().starts_with("// SAFETY:"));
                if !commented && !lookback {
                    violations.push(("missing-safety-comment", trimmed));
                }
            }
        }
        for (rule, line) in violations {
            if let Some(idx) = allow.matches(rel, line) {
                used[idx] = true;
                out.allowed += 1;
            } else {
                out.findings.push(LintFinding {
                    file: rel.to_string(),
                    line: lineno,
                    rule,
                    message: line.to_string(),
                });
            }
        }
        recent.push(raw.to_string());
        if recent.len() > 4 {
            recent.remove(0);
        }
    }
}

fn rust_files_under(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            rust_files_under(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Run the lint pass over the library crates under `root` (the workspace
/// directory), suppressing sites named in `allow`.
///
/// # Errors
/// On IO failure walking or reading the sources.
pub fn lint_workspace(root: &Path, allow: &Allowlist) -> Result<LintReport, String> {
    let mut report = LintReport::default();
    let mut used = vec![false; allow.entries.len()];
    for krate in LIB_CRATES {
        let src = root.join(krate).join("src");
        let mut files = Vec::new();
        rust_files_under(&src, &mut files)
            .map_err(|e| format!("cannot walk {}: {e}", src.display()))?;
        files.sort();
        for file in files {
            let text = std::fs::read_to_string(&file)
                .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            report.files_scanned += 1;
            scan_file(&rel, &text, allow, &mut used, &mut report);
        }
    }
    for (idx, entry) in allow.entries.iter().enumerate() {
        if !used[idx] {
            report.findings.push(LintFinding {
                file: entry.path.clone(),
                line: 0,
                rule: "stale-allowlist",
                message: format!("allowlist entry no longer matches: {}", entry.line),
            });
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, text: &str, allow: &Allowlist) -> LintReport {
        let mut report = LintReport::default();
        let mut used = vec![false; allow.entries.len()];
        scan_file(rel, text, allow, &mut used, &mut report);
        for (idx, entry) in allow.entries.iter().enumerate() {
            if !used[idx] {
                report.findings.push(LintFinding {
                    file: entry.path.clone(),
                    line: 0,
                    rule: "stale-allowlist",
                    message: entry.line.clone(),
                });
            }
        }
        report
    }

    #[test]
    fn unwrap_and_expect_flagged_outside_tests() {
        let src = "fn f() {\n    let x = g().unwrap();\n    let y = h().expect(\"why\");\n}\n";
        let rep = run("crates/core/src/x.rs", src, &Allowlist::default());
        let rules: Vec<_> = rep.findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, ["no-unwrap", "no-expect"]);
        assert_eq!(rep.findings[0].line, 2);
    }

    #[test]
    fn cfg_test_blocks_are_skipped() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { g().unwrap(); }\n}\n\
                   fn after() { h().unwrap(); }\n";
        let rep = run("crates/core/src/x.rs", src, &Allowlist::default());
        assert_eq!(rep.findings.len(), 1);
        assert_eq!(rep.findings[0].line, 6);
    }

    #[test]
    fn comments_do_not_count() {
        let src = "// calls .unwrap() internally\nfn f() {} // .expect(\"no\")\n";
        let rep = run("crates/core/src/x.rs", src, &Allowlist::default());
        assert!(rep.is_clean(), "{}", rep.to_text());
    }

    #[test]
    fn allowlist_suppresses_and_reports_stale() {
        let allow = Allowlist::parse(
            "# comment\n\
             crates/core/src/x.rs: let x = g().unwrap();\n\
             crates/core/src/gone.rs: old().unwrap();\n",
        )
        .unwrap();
        let rep = run(
            "crates/core/src/x.rs",
            "fn f() { let x = g().unwrap(); }\n",
            &allow,
        );
        assert_eq!(rep.allowed, 0); // single-line fn body: line is the fn line
                                    // The entry matches the *trimmed line*; here the whole fn line differs,
                                    // so both entries are stale and the unwrap is a finding.
        assert_eq!(
            rep.findings
                .iter()
                .filter(|f| f.rule == "stale-allowlist")
                .count(),
            2
        );
        let allow =
            Allowlist::parse("crates/core/src/x.rs: fn f() { let x = g().unwrap(); }\n").unwrap();
        let rep = run(
            "crates/core/src/x.rs",
            "fn f() { let x = g().unwrap(); }\n",
            &allow,
        );
        assert_eq!(rep.allowed, 1);
        assert!(rep.is_clean(), "{}", rep.to_text());
    }

    #[test]
    fn allowlist_parse_errors_name_the_line() {
        let err = Allowlist::parse("no separator here\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn partial_cmp_banned_except_in_sim() {
        let src = "fn f() { a.partial_cmp(&b); }\n";
        let rep = run("crates/core/src/x.rs", src, &Allowlist::default());
        assert_eq!(rep.findings[0].rule, "nan-ordering");
        let rep = run("crates/runtime/src/sim.rs", src, &Allowlist::default());
        assert!(rep.is_clean());
    }

    #[test]
    fn unsafe_rules() {
        let src = "fn f() { unsafe { g() } }\n";
        let rep = run("crates/core/src/x.rs", src, &Allowlist::default());
        assert_eq!(rep.findings[0].rule, "unsafe-outside-steal");
        // In steal.rs without a SAFETY comment: flagged.
        let rep = run("crates/factor/src/steal.rs", src, &Allowlist::default());
        assert_eq!(rep.findings[0].rule, "missing-safety-comment");
        // With one in the lookback window: clean.
        let src = "// SAFETY: single owner\nfn f() { unsafe { g() } }\n";
        let rep = run("crates/factor/src/steal.rs", src, &Allowlist::default());
        assert!(rep.is_clean(), "{}", rep.to_text());
        // The deny attribute is not the keyword.
        let src = "#![deny(unsafe_op_in_unsafe_fn)]\n";
        let rep = run("crates/factor/src/steal.rs", src, &Allowlist::default());
        assert!(rep.is_clean());
        // The kernels' dispatch file is held to the same two rules ...
        let bare = "fn f() { unsafe { g() } }\n";
        let rep = run(
            "crates/kernels/src/dispatch.rs",
            bare,
            &Allowlist::default(),
        );
        assert_eq!(rep.findings[0].rule, "missing-safety-comment");
        let src =
            "// SAFETY: feature detected above\n#[allow(unsafe_code)]\nfn f() { unsafe { g() } }\n";
        let rep = run("crates/kernels/src/dispatch.rs", src, &Allowlist::default());
        assert!(rep.is_clean(), "{}", rep.to_text());
        // ... and is the only file of its crate that may.
        let rep = run("crates/kernels/src/micro.rs", bare, &Allowlist::default());
        assert_eq!(rep.findings[0].rule, "unsafe-outside-steal");
    }

    #[test]
    fn lossy_casts_banned_in_wire_crates() {
        let src = "fn f(x: u64) -> u32 { x as u32 }\n";
        let rep = run("crates/net/src/x.rs", src, &Allowlist::default());
        assert_eq!(rep.findings[0].rule, "lossy-cast");
        let rep = run("crates/core/src/x.rs", src, &Allowlist::default());
        assert_eq!(rep.findings[0].rule, "lossy-cast");
        // Other crates are out of scope for this rule.
        let rep = run("crates/runtime/src/x.rs", src, &Allowlist::default());
        assert!(rep.is_clean(), "{}", rep.to_text());
        // Widening and float casts are fine; so are identifiers ending
        // in "as" and `as_u32`-style calls.
        let ok = "fn f(x: u32) -> u64 { x as u64 }\n\
                  fn g(x: u32) -> f64 { x as f64 }\n\
                  fn h(atlas: u64) -> u64 { atlas }\n\
                  fn k(v: &V) -> Option<u64> { v.as_u64() }\n";
        let rep = run("crates/net/src/x.rs", ok, &Allowlist::default());
        assert!(rep.is_clean(), "{}", rep.to_text());
        // The NodeId alias is u32, so casting into it is narrowing too.
        let src = "fn f(x: usize) -> NodeId { x as NodeId }\n";
        let rep = run("crates/core/src/x.rs", src, &Allowlist::default());
        assert_eq!(rep.findings[0].rule, "lossy-cast");
        // Allowlisted sites are suppressed, exactly like other rules.
        let allow =
            Allowlist::parse("crates/net/src/x.rs: fn f(x: u64) -> u32 { x as u32 }\n").unwrap();
        let rep = run(
            "crates/net/src/x.rs",
            "fn f(x: u64) -> u32 { x as u32 }\n",
            &allow,
        );
        assert!(rep.is_clean(), "{}", rep.to_text());
        assert_eq!(rep.allowed, 1);
    }

    #[test]
    fn string_literals_do_not_hide_comments() {
        // A `//` inside a string is not a comment start.
        let src = "fn f() { let u = \"http://x\"; g().unwrap(); }\n";
        let rep = run("crates/core/src/x.rs", src, &Allowlist::default());
        assert_eq!(rep.findings.len(), 1);
    }
}
