//! # aqua-lint — project-specific static analysis for the aqua workspace
//!
//! A self-contained lint tool: a hand-rolled lexer ([`lexer`]) feeds eight
//! token-level rules ([`rules`]), and a bounded model checker
//! ([`interleave`]) exhaustively explores the interleavings of eight shadow
//! models ported from real synchronization hot spots, and of ten buggy
//! variants it must catch.
//!
//! The tool takes no dependencies beyond the vendored `shadow` shim — it
//! must keep working in the air-gapped build environment, and it lints the
//! workspace that enforces that same property (`vendor-audit`).
//!
//! Run it as `cargo run -p aqua-lint -- --check` (CI mode) or with
//! `--json` for machine-readable findings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod interleave;
pub mod lexer;
pub mod rules;

use rules::{audit_manifest, detect_cycles, Finding, LockEdge, ALL_RULES};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Aggregate result of linting a workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, in (file, line) order.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of manifests audited.
    pub manifests_audited: usize,
}

impl Report {
    /// Finding count per rule (zero entries included, reporting order).
    pub fn counts(&self) -> Vec<(&'static str, usize)> {
        let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
        for f in &self.findings {
            *by_rule.entry(f.rule).or_insert(0) += 1;
        }
        ALL_RULES
            .iter()
            .map(|r| (*r, by_rule.get(r).copied().unwrap_or(0)))
            .collect()
    }

    /// Render the report as JSON (hand-built; no serializer dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                json_escape(f.rule),
                json_escape(&f.file),
                f.line,
                json_escape(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"by_rule\": {");
        for (ri, rule) in ALL_RULES.iter().enumerate() {
            if ri > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{rule}\": ["));
            let mut first = true;
            for f in self.findings.iter().filter(|f| f.rule == *rule) {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                out.push_str(&format!(
                    "{{\"file\": \"{}\", \"line\": {}}}",
                    json_escape(&f.file),
                    f.line
                ));
            }
            out.push(']');
        }
        out.push_str("},\n  \"counts\": {");
        for (i, (rule, n)) in self.counts().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{rule}\": {n}"));
        }
        out.push_str(&format!(
            "}},\n  \"files_scanned\": {},\n  \"manifests_audited\": {},\n  \"total\": {}\n}}",
            self.files_scanned,
            self.manifests_audited,
            self.findings.len()
        ));
        out
    }
}

/// Suppression keys parsed from a baseline report: `(rule, file, message)`.
///
/// Line numbers drift as files are edited, so they are deliberately not
/// part of a finding's identity. (A message that itself embeds a line
/// reference — the atomics-ordering cross-reference — re-fires when that
/// referenced site moves; refresh the baseline after such edits.)
pub type Baseline = std::collections::BTreeSet<(String, String, String)>;

/// Parse a previous `--json` report into a [`Baseline`].
///
/// The parser is matched to [`Report::to_json`]'s own output — one finding
/// object per line with `rule`/`file`/`message` string fields — rather
/// than being a general JSON parser.
pub fn parse_baseline(text: &str) -> Baseline {
    let mut set = Baseline::new();
    for line in text.lines() {
        let fields = (
            json_field(line, "rule"),
            json_field(line, "file"),
            json_field(line, "message"),
        );
        if let (Some(r), Some(f), Some(m)) = fields {
            set.insert((r, f, m));
        }
    }
    set
}

/// Extract and unescape the string value of `"key": "…"` on one line.
fn json_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let at = line.find(&pat)? + pat.len();
    let mut out = String::new();
    let mut chars = line[at..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = (&mut chars).take(4).collect();
                    if let Some(v) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                        out.push(v);
                    }
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

impl Report {
    /// Drop findings present in `baseline`; returns how many were
    /// suppressed. CI uses this to fail only on *new* findings.
    pub fn apply_baseline(&mut self, baseline: &Baseline) -> usize {
        let before = self.findings.len();
        self.findings.retain(|f| {
            !baseline.contains(&(f.rule.to_string(), f.file.clone(), f.message.clone()))
        });
        before - self.findings.len()
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Lint every `.rs` file and manifest under `root` (a workspace checkout).
///
/// Scans `crates/` and `src/`; skips `target/`, hidden directories, and
/// the lint fixtures (which contain violations on purpose). Audits the
/// root, `crates/*`, and `vendor/*` manifests.
pub fn run_workspace(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut edges: Vec<LockEdge> = Vec::new();

    let mut files = Vec::new();
    for top in ["crates", "src"] {
        collect_rs_files(&root.join(top), &mut files)?;
    }
    files.sort();

    for file in &files {
        let rel = relative(root, file);
        if rel.contains("tests/fixtures") {
            continue;
        }
        let source = std::fs::read_to_string(file)?;
        let analysis = rules::analyze_file(&rel, &source);
        report.findings.extend(analysis.findings);
        edges.extend(analysis.lock_edges);
        report.files_scanned += 1;
    }

    report.findings.extend(detect_cycles(&edges));

    let mut manifests = vec![root.join("Cargo.toml")];
    for dir in ["crates", "vendor"] {
        let base = root.join(dir);
        if let Ok(entries) = std::fs::read_dir(&base) {
            for entry in entries.flatten() {
                let m = entry.path().join("Cargo.toml");
                if m.is_file() {
                    manifests.push(m);
                }
            }
        }
    }
    manifests.sort();
    for m in &manifests {
        let rel = relative(root, m);
        let source = std::fs::read_to_string(m)?;
        report.findings.extend(audit_manifest(&rel, &source));
        report.manifests_audited += 1;
    }

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)?.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Locate the workspace root: walk up from `start` until a directory with
/// both `Cargo.toml` and `crates/` appears.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
