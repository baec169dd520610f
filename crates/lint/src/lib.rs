//! # aqua-lint — project-specific static analysis for the aqua workspace
//!
//! A self-contained lint tool: a hand-rolled lexer ([`lexer`]) feeds
//! twelve rules ([`rules`]), and a bounded model checker
//! ([`interleave`]) exhaustively explores, on the `shadow` crate's replay
//! explorer, the interleavings of six step models ported from real
//! synchronization hot spots, and of seven buggy variants it must catch.
//! (The gateway's timing fault handler is checked on its own code by
//! `crates/gateway/tests/interleave.rs` under `--cfg aqua_check`.)
//! Three of the rules (`pub-has-caller`, `variant-has-constructor` and
//! `knob-census`) share one index of the whole workspace's definitions
//! and uses: every `pub` item needs a caller, every enum variant a
//! constructor and every config field a second value outside tests.
//!
//! The tool takes no dependencies beyond the vendored `shadow` crate — it
//! must keep working in the air-gapped build environment, and it lints the
//! workspace that enforces that same property (`vendor-audit`).
//!
//! Run it as `cargo run -p aqua-lint -- --check` (CI mode, held at 0
//! findings) or with `--json` for machine-readable findings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod interleave;
pub mod lexer;
pub mod rules;

use rules::{audit_manifest, check_callers, detect_cycles, Finding, LockEdge, ALL_RULES};
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
/// the lint fixtures (which contain violations on purpose). `examples/`,
/// `tests/` and `benchmark/src` are read only as callers for
/// `pub-has-caller`. Audits the root, `crates/*`, and `vendor/*` manifests.
pub fn run_workspace(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut edges: Vec<LockEdge> = Vec::new();

    let mut files = Vec::new();
    for top in ["crates", "src", "examples", "tests", "benchmark/src"] {
        collect_rs_files(&root.join(top), &mut files)?;
    }
    files.sort();

    let mut sources = Vec::new();
    for file in &files {
        let rel = relative(root, file);
        if rel.contains("tests/fixtures") {
            continue;
        }
        let source = std::fs::read_to_string(file)?;
        if rel.starts_with("crates/") || rel.starts_with("src/") {
            let analysis = rules::analyze_file(&rel, &source);
            report.findings.extend(analysis.findings);
            edges.extend(analysis.lock_edges);
            report.files_scanned += 1;
        }
        sources.push((rel, source));
    }

    report.findings.extend(detect_cycles(&edges));
    report.findings.extend(check_callers(&sources));

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
