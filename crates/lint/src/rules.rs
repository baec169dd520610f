//! The ten aqua-lint rules, plus the allow-annotation machinery.
//!
//! Rules operate on the token stream from [`crate::lexer`]; none of them
//! parse Rust properly. Each heuristic is documented next to its
//! implementation, including the cases it deliberately does not catch.
//!
//! ## Suppressing a finding
//!
//! ```text
//! // aqua-lint: allow(no-panic-in-hot-path) head < capacity whenever full
//! let slot = &mut self.samples[self.head];
//! ```
//!
//! An annotation suppresses matching findings on its own line (trailing
//! comment) and on the following line (preceding comment). The
//! justification after the closing parenthesis is **mandatory**: an
//! annotation without one does not suppress anything.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::HashMap;
use std::fmt;

/// Rule: no `unwrap`/`expect`/`panic!`/indexing in hot-path crates.
pub const NO_PANIC: &str = "no-panic-in-hot-path";
/// Rule: no allocation inside `#[aqua::hot_path]` functions.
pub const NO_ALLOC: &str = "no-alloc-in-select";
/// Rule: consistent lock acquisition order, no guards across blocking calls.
pub const LOCK_ORDER: &str = "lock-order";
/// Rule: no raw integer arithmetic mixing time units.
pub const UNIT_HYGIENE: &str = "unit-hygiene";
/// Rule: every dependency resolves inside `vendor/` or the workspace.
pub const VENDOR_AUDIT: &str = "vendor-audit";
/// Rule: no Relaxed store/load handshakes on data-publishing atomics.
pub const ATOMICS_ORDER: &str = "atomics-ordering";
/// Rule: `unsafe` needs a `// SAFETY:` comment; FFI confined to `sys.rs`.
pub const UNSAFE_AUDIT: &str = "unsafe-audit";
/// Rule: `thread::spawn` handles must be held, joined, or justified.
pub const SPAWN_JOIN: &str = "spawn-join";
/// Rule: no host-clock reads in the crates a seeded simulation runs.
pub const NO_WALLCLOCK: &str = "no-wallclock-in-sim";
/// Rule: every `pub` item of a library crate has a caller somewhere else.
pub const PUB_HAS_CALLER: &str = "pub-has-caller";

/// All rule identifiers, in reporting order.
pub const ALL_RULES: [&str; 10] = [
    NO_PANIC,
    NO_ALLOC,
    LOCK_ORDER,
    UNIT_HYGIENE,
    VENDOR_AUDIT,
    ATOMICS_ORDER,
    UNSAFE_AUDIT,
    SPAWN_JOIN,
    NO_WALLCLOCK,
    PUB_HAS_CALLER,
];

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired (one of [`ALL_RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A lock-acquisition-order edge (`first` held while `second` is taken).
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Lock acquired first (field/variable name heuristic).
    pub first: String,
    /// Lock acquired while `first` is held.
    pub second: String,
    /// File of the nested acquisition.
    pub file: String,
    /// Line of the nested acquisition.
    pub line: usize,
    /// Function the edge was observed in.
    pub function: String,
}

/// Per-file analysis output: local findings plus lock edges for the
/// cross-file cycle check.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Findings local to this file (already allow-filtered).
    pub findings: Vec<Finding>,
    /// Lock-order edges contributed to the global graph.
    pub lock_edges: Vec<LockEdge>,
}

/// Analyze one source file under the rules that apply to `path`.
///
/// `path` must be workspace-relative (`crates/core/src/pmf.rs`); scoping is
/// purely path-based so fixtures can impersonate any crate.
pub fn analyze_file(path: &str, source: &str) -> FileAnalysis {
    let lexed = lex(source);
    let allows = collect_allows(&lexed.comments);
    let excluded = cfg_test_mask(&lexed.tokens);
    let functions = find_functions(&lexed.tokens);

    let mut raw = Vec::new();
    let mut edges = Vec::new();

    if in_no_panic_scope(path) {
        check_no_panic(path, &lexed.tokens, &excluded, &mut raw);
    }
    if in_sim_scope(path) {
        check_no_wallclock(path, &lexed.tokens, &excluded, &mut raw);
    }
    check_no_alloc(path, &lexed.tokens, &excluded, &functions, &mut raw);
    if in_lock_order_scope(path) {
        check_lock_order(
            path,
            &lexed.tokens,
            &excluded,
            &functions,
            &mut raw,
            &mut edges,
        );
    }
    if path.starts_with("crates/") || path.starts_with("src/") {
        check_unit_hygiene(path, &lexed.tokens, &excluded, &mut raw);
    }
    if in_concurrency_scope(path) {
        check_atomics_ordering(path, &lexed.tokens, &excluded, &mut raw);
        check_spawn_join(path, &lexed.tokens, &excluded, &mut raw);
        check_unsafe_audit(
            path,
            &lexed.tokens,
            &excluded,
            &lexed.comment_lines_containing("SAFETY:"),
            &mut raw,
        );
    }

    // Drop edges whose acquisition site carries an allow annotation; the
    // cycle check then never sees the sanctioned nesting.
    edges.retain(|e| !allowed(&allows, LOCK_ORDER, e.line));

    FileAnalysis {
        findings: raw
            .into_iter()
            .filter(|f| !allowed(&allows, f.rule, f.line))
            .collect(),
        lock_edges: edges,
    }
}

fn allowed(allows: &HashMap<usize, Vec<String>>, rule: &str, line: usize) -> bool {
    let hit = |l: usize| {
        allows
            .get(&l)
            .is_some_and(|rs| rs.iter().any(|r| r == rule))
    };
    hit(line) || (line > 0 && hit(line - 1))
}

/// Parse `// aqua-lint: allow(<rule>) <justification>` annotations.
/// Returns line → allowed rule ids. Annotations without a justification are
/// ignored (they must explain *why* the violation is acceptable).
fn collect_allows(comments: &[crate::lexer::Comment]) -> HashMap<usize, Vec<String>> {
    let mut map: HashMap<usize, Vec<String>> = HashMap::new();
    for c in comments {
        let Some(at) = c.text.find("aqua-lint:") else {
            continue;
        };
        let rest = c.text[at + "aqua-lint:".len()..].trim_start();
        let Some(body) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = body.find(')') else {
            continue;
        };
        let justification = body[close + 1..].trim();
        if justification.is_empty() {
            continue;
        }
        for rule in body[..close].split(',') {
            let rule = rule.trim();
            if !rule.is_empty() {
                map.entry(c.line).or_default().push(rule.to_string());
            }
        }
    }
    map
}

// ---------------------------------------------------------------------------
// Structure recovery: `#[cfg(test)]` regions and function extents.
// ---------------------------------------------------------------------------

/// Per-token mask: `true` when the token sits inside a `#[cfg(test)]` item
/// (including the attribute itself). Handles nested test modules and both
/// braced items and `;`-terminated ones.
fn cfg_test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') {
            let attr_start = i;
            let mut j = i + 1;
            if j < tokens.len() && tokens[j].is_punct('!') {
                j += 1; // inner attribute `#![…]` — never cfg(test) items here
            }
            if j < tokens.len() && tokens[j].is_punct('[') {
                let (attr_end, is_test) = scan_attribute(tokens, j);
                if is_test {
                    let item_end = item_extent(tokens, attr_end + 1);
                    for m in mask.iter_mut().take(item_end + 1).skip(attr_start) {
                        *m = true;
                    }
                    i = item_end + 1;
                    continue;
                }
                i = attr_end + 1;
                continue;
            }
        }
        i += 1;
    }
    mask
}

/// From the `[` at `open`, find the matching `]` and report whether the
/// attribute gates on `test` (`cfg(test)`, `cfg(all(test, …))`, `test`).
fn scan_attribute(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut saw_cfg = false;
    let mut saw_test = false;
    let mut saw_bare_test = false;
    let mut k = open;
    while k < tokens.len() {
        let t = &tokens[k];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.is_ident("cfg") || t.is_ident("cfg_attr") {
            saw_cfg = true;
        } else if t.is_ident("test") {
            if saw_cfg {
                saw_test = true;
            } else if k == open + 1 {
                saw_bare_test = true; // `#[test]` / `#[tokio::test]`-style
            }
        }
        k += 1;
    }
    (k, (saw_cfg && saw_test) || saw_bare_test)
}

/// Extent of the item starting at `start` (skipping further attributes):
/// index of its closing `}` or terminating `;`. A `;` inside parentheses
/// or brackets (`[u8; 4]`) does not end it.
fn item_extent(tokens: &[Token], start: usize) -> usize {
    let mut i = start;
    // Skip stacked attributes on the same item.
    while i + 1 < tokens.len() && tokens[i].is_punct('#') && tokens[i + 1].is_punct('[') {
        let (end, _) = scan_attribute(tokens, i + 1);
        i = end + 1;
    }
    let mut brace = 0usize;
    let mut nest = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('(') || t.is_punct('[') {
            nest += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            nest = nest.saturating_sub(1);
        } else if t.is_punct('{') {
            brace += 1;
        } else if t.is_punct('}') {
            brace -= 1;
            if brace == 0 {
                return i;
            }
        } else if t.is_punct(';') && brace == 0 && nest == 0 {
            return i;
        }
        i += 1;
    }
    tokens.len().saturating_sub(1)
}

/// A function recovered from the token stream.
#[derive(Debug)]
struct FnInfo {
    name: String,
    /// Attribute text (token texts joined by spaces), one entry per attr.
    attrs: Vec<String>,
    /// Token index range of the body, inclusive of both braces.
    /// `None` for bodyless trait method declarations.
    body: Option<(usize, usize)>,
}

/// Recover function names, attributes, and body extents. Nested functions
/// are reported separately; their tokens also belong to the outer body.
fn find_functions(tokens: &[Token]) -> Vec<FnInfo> {
    const ITEM_KEYWORDS: [&str; 10] = [
        "struct", "enum", "trait", "impl", "mod", "const", "static", "type", "union", "use",
    ];
    let mut fns = Vec::new();
    let mut pending: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('#') {
            let mut j = i + 1;
            if j < tokens.len() && tokens[j].is_punct('!') {
                j += 1;
            }
            if j < tokens.len() && tokens[j].is_punct('[') {
                let (end, _) = scan_attribute(tokens, j);
                let text: Vec<&str> = tokens[j + 1..end].iter().map(|t| t.text.as_str()).collect();
                pending.push(text.join(" "));
                i = end + 1;
                continue;
            }
        }
        if t.is_ident("fn") {
            let name = tokens
                .get(i + 1)
                .filter(|n| n.kind == TokenKind::Ident)
                .map(|n| n.text.clone())
                .unwrap_or_default();
            let body = fn_body_extent(tokens, i + 1);
            fns.push(FnInfo {
                name,
                attrs: std::mem::take(&mut pending),
                body,
            });
        } else if ITEM_KEYWORDS.iter().any(|k| t.is_ident(k)) || t.is_punct(';') {
            pending.clear();
        }
        i += 1;
    }
    fns
}

/// From just past `fn`, find the body `{ … }`: the first `{` at zero
/// paren/bracket depth, then its matching `}`. A `;` first means no body.
fn fn_body_extent(tokens: &[Token], from: usize) -> Option<(usize, usize)> {
    let mut paren = 0isize;
    let mut bracket = 0isize;
    let mut i = from;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if paren == 0 && bracket == 0 {
            if t.is_punct(';') {
                return None;
            }
            if t.is_punct('{') {
                let mut depth = 0usize;
                let mut k = i;
                while k < tokens.len() {
                    if tokens[k].is_punct('{') {
                        depth += 1;
                    } else if tokens[k].is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            return Some((i, k));
                        }
                    }
                    k += 1;
                }
                return Some((i, tokens.len() - 1));
            }
        }
        i += 1;
    }
    None
}

// ---------------------------------------------------------------------------
// Rule 1: no-panic-in-hot-path
// ---------------------------------------------------------------------------

fn in_no_panic_scope(path: &str) -> bool {
    path.starts_with("crates/core/src")
        || path.starts_with("crates/strategies/src")
        || path == "crates/gateway/src/concurrent.rs"
}

/// The crates a seeded simulation runs: the model, the strategies, the
/// gateway, the engine, the group, the replica and the workloads. Their
/// results must be a pure function of (config, seed).
fn in_sim_scope(path: &str) -> bool {
    [
        "core",
        "strategies",
        "gateway",
        "sim",
        "group",
        "replica",
        "workload",
    ]
    .iter()
    .any(|krate| path.starts_with(&format!("crates/{krate}/src/")))
}

/// Forbid `Instant::now` and `SystemTime::now` outside `#[cfg(test)]`
/// code, called or passed as a function. Time in these crates is the
/// caller's `now`; `aqua_core::time::Instant` has no `now`, so any match
/// reads the host's clock. A read that reaches only a metric or a span
/// takes an allow annotation saying so.
fn check_no_wallclock(path: &str, tokens: &[Token], excluded: &[bool], out: &mut Vec<Finding>) {
    for (i, window) in tokens.windows(4).enumerate() {
        let [clock, colon, colon2, now] = window else {
            continue;
        };
        if excluded[i]
            || !(clock.is_ident("Instant") || clock.is_ident("SystemTime"))
            || !colon.is_punct(':')
            || !colon2.is_punct(':')
            || !now.is_ident("now")
        {
            continue;
        }
        out.push(Finding {
            rule: NO_WALLCLOCK,
            file: path.to_string(),
            line: clock.line,
            message: format!(
                "`{}::now` reads the host clock in simulated code; take `now` from the caller",
                clock.text
            ),
        });
    }
}

/// Forbid `.unwrap()`, `.expect(…)`, `panic!`, `unreachable!`, `todo!`,
/// `unimplemented!`, and `[i]` indexing outside `#[cfg(test)]` code.
///
/// Indexing heuristic: a `[` whose previous token is an identifier, `)`,
/// `]`, or `?` is a subscript; after `=`, `(`, `,`, `&`, operators, or `!`
/// (macros like `vec![…]`) it is an array/slice literal or pattern.
fn check_no_panic(path: &str, tokens: &[Token], excluded: &[bool], out: &mut Vec<Finding>) {
    const MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
    for i in 0..tokens.len() {
        if excluded[i] {
            continue;
        }
        let t = &tokens[i];
        let next = tokens.get(i + 1);
        let prev = i.checked_sub(1).map(|p| &tokens[p]);

        if t.is_punct('.') {
            if let Some(n) = next {
                if (n.is_ident("unwrap") || n.is_ident("expect"))
                    && tokens.get(i + 2).is_some_and(|p| p.is_punct('('))
                {
                    out.push(Finding {
                        rule: NO_PANIC,
                        file: path.to_string(),
                        line: n.line,
                        message: format!(
                            "`.{}()` can panic; return an error or justify with an allow annotation",
                            n.text
                        ),
                    });
                }
            }
        } else if t.kind == TokenKind::Ident
            && MACROS.iter().any(|m| t.is_ident(m))
            && next.is_some_and(|n| n.is_punct('!'))
            // `core::panic::Location` etc.: require not preceded by `:`.
            && !prev.is_some_and(|p| p.is_punct(':'))
        {
            out.push(Finding {
                rule: NO_PANIC,
                file: path.to_string(),
                line: t.line,
                message: format!("`{}!` is forbidden in hot-path crates", t.text),
            });
        } else if t.is_punct('[') {
            // Keywords that can precede an array/slice *type or literal*:
            // `&mut [f64]`, `for x in [..]`, `return [..]`, `match [..]`.
            const NOT_RECEIVERS: [&str; 8] = [
                "mut", "in", "return", "break", "else", "match", "const", "dyn",
            ];
            let is_index = prev.is_some_and(|p| {
                (p.kind == TokenKind::Ident && !NOT_RECEIVERS.iter().any(|k| p.text == *k))
                    || p.is_punct(')')
                    || p.is_punct(']')
                    || p.is_punct('?')
            });
            // `#[attr]` never matches: `[` follows `#` or `!` there.
            if is_index {
                out.push(Finding {
                    rule: NO_PANIC,
                    file: path.to_string(),
                    line: t.line,
                    message: "slice indexing can panic; use `.get()` or justify the bound"
                        .to_string(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 2: no-alloc-in-select
// ---------------------------------------------------------------------------

/// Inside `#[aqua::hot_path]` functions, forbid the allocating constructs
/// `Vec::new`, `vec!`, `.to_vec()`, `.clone()`, `String::from`, `format!`,
/// `.to_string()`, `.to_owned()`, and `Box::new`.
fn check_no_alloc(
    path: &str,
    tokens: &[Token],
    excluded: &[bool],
    functions: &[FnInfo],
    out: &mut Vec<Finding>,
) {
    for f in functions {
        if !f.attrs.iter().any(|a| a.contains("hot_path")) {
            continue;
        }
        let Some((start, end)) = f.body else { continue };
        for i in start..=end {
            if excluded[i] {
                continue;
            }
            let t = &tokens[i];
            let next = tokens.get(i + 1);
            let next2 = tokens.get(i + 2);
            let next3 = tokens.get(i + 3);
            let mut hit: Option<String> = None;

            if (t.is_ident("Vec") || t.is_ident("Box") || t.is_ident("String"))
                && next.is_some_and(|n| n.is_punct(':'))
                && next2.is_some_and(|n| n.is_punct(':'))
            {
                if let Some(m) = next3 {
                    if m.is_ident("new") || m.is_ident("from") || m.is_ident("with_capacity") {
                        hit = Some(format!("{}::{}", t.text, m.text));
                    }
                }
            } else if (t.is_ident("vec") || t.is_ident("format"))
                && next.is_some_and(|n| n.is_punct('!'))
            {
                hit = Some(format!("{}!", t.text));
            } else if t.is_punct('.') {
                if let Some(n) = next {
                    let is_alloc_method = n.is_ident("to_vec")
                        || n.is_ident("clone")
                        || n.is_ident("to_string")
                        || n.is_ident("to_owned");
                    if is_alloc_method && next2.is_some_and(|p| p.is_punct('(')) {
                        hit = Some(format!(".{}()", n.text));
                    }
                }
            }

            if let Some(what) = hit {
                out.push(Finding {
                    rule: NO_ALLOC,
                    file: path.to_string(),
                    line: tokens[i].line,
                    message: format!(
                        "`{what}` allocates inside `#[aqua::hot_path]` fn `{}`",
                        f.name
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 3: lock-order
// ---------------------------------------------------------------------------

fn in_lock_order_scope(path: &str) -> bool {
    path.starts_with("crates/runtime/src")
        || path.starts_with("crates/obs/src")
        || path.starts_with("crates/gateway/src")
}

/// A lock acquisition site inside one function body.
#[derive(Debug)]
struct Acquisition {
    /// Heuristic lock name: last identifier before `.lock()`/`.read()`/….
    name: String,
    /// Token index of the method identifier.
    idx: usize,
    line: usize,
    /// Token index one past the guard's live range.
    extent: usize,
}

/// Extract guard acquisitions and check nesting + blocking calls.
///
/// Acquisition pattern: `.lock()`, `.read()`, or `.write()` **with empty
/// argument lists** — `io::Read::read(&mut buf)` takes arguments and is
/// skipped. A `let`-bound guard lives to the end of its block (or an
/// explicit `drop(guard)`); a temporary lives to the end of the statement.
fn check_lock_order(
    path: &str,
    tokens: &[Token],
    excluded: &[bool],
    functions: &[FnInfo],
    out: &mut Vec<Finding>,
    edges: &mut Vec<LockEdge>,
) {
    const BLOCKING: [&str; 5] = ["send", "recv", "recv_timeout", "send_timeout", "accept"];
    let depth = brace_depths(tokens);

    for f in functions {
        let Some((start, end)) = f.body else { continue };
        if excluded.get(start).copied().unwrap_or(false) {
            continue;
        }
        let mut acqs: Vec<Acquisition> = Vec::new();
        for i in start..=end {
            let t = &tokens[i];
            let is_acquire = t.kind == TokenKind::Ident
                && (t.text == "lock" || t.text == "read" || t.text == "write")
                && i >= 1
                && tokens[i - 1].is_punct('.')
                && tokens.get(i + 1).is_some_and(|p| p.is_punct('('))
                && tokens.get(i + 2).is_some_and(|p| p.is_punct(')'));
            if !is_acquire {
                continue;
            }
            let name = receiver_name(tokens, i - 1);
            let (is_let, binding) = statement_binding(tokens, i, start);
            // `let g = x.lock();` (possibly via `.unwrap()`/`.expect(…)`/
            // `.unwrap_or_else(…)`, which pass the guard through) binds the
            // guard for the whole block. Any other trailing method call
            // (`.take()`, `.len()`, …) projects *out* of the guard, which
            // then dies at the end of the statement.
            let bound = is_let && !projects_out_of_guard(tokens, i + 3);
            let extent = if bound {
                // End of enclosing block, or explicit drop(binding).
                let d = depth[i];
                let mut ext = end + 1;
                for (k, tk) in tokens.iter().enumerate().take(end + 1).skip(i + 3) {
                    if tk.is_punct('}') && depth[k] < d {
                        ext = k;
                        break;
                    }
                    if let Some(b) = &binding {
                        if tk.is_ident("drop")
                            && tokens.get(k + 1).is_some_and(|p| p.is_punct('('))
                            && tokens.get(k + 2).is_some_and(|n| n.is_ident(b))
                        {
                            ext = k;
                            break;
                        }
                    }
                }
                ext
            } else {
                // Temporary guard: dropped at the end of the statement.
                let d = depth[i];
                let mut ext = end + 1;
                for (k, tk) in tokens.iter().enumerate().take(end + 1).skip(i + 3) {
                    if tk.is_punct(';') && depth[k] == d {
                        ext = k;
                        break;
                    }
                    if tk.is_punct('}') && depth[k] < d {
                        ext = k;
                        break;
                    }
                }
                ext
            };
            acqs.push(Acquisition {
                name,
                idx: i,
                line: t.line,
                extent,
            });
        }

        for a in &acqs {
            // Nested acquisitions while `a` is held.
            for b in &acqs {
                if b.idx > a.idx && b.idx < a.extent {
                    if b.name == a.name {
                        out.push(Finding {
                            rule: LOCK_ORDER,
                            file: path.to_string(),
                            line: b.line,
                            message: format!(
                                "lock `{}` re-acquired while already held in fn `{}` (self-deadlock)",
                                b.name, f.name
                            ),
                        });
                    } else {
                        edges.push(LockEdge {
                            first: a.name.clone(),
                            second: b.name.clone(),
                            file: path.to_string(),
                            line: b.line,
                            function: f.name.clone(),
                        });
                    }
                }
            }
            // Blocking calls under the guard.
            for k in a.idx + 3..a.extent.min(tokens.len()) {
                let t = &tokens[k];
                if t.kind == TokenKind::Ident
                    && BLOCKING.iter().any(|b| t.text == *b)
                    && k >= 1
                    && tokens[k - 1].is_punct('.')
                    && tokens.get(k + 1).is_some_and(|p| p.is_punct('('))
                {
                    out.push(Finding {
                        rule: LOCK_ORDER,
                        file: path.to_string(),
                        line: t.line,
                        message: format!(
                            "guard `{}` held across blocking `.{}()` in fn `{}`",
                            a.name, t.text, f.name
                        ),
                    });
                }
            }
        }
    }
}

/// Brace nesting depth at each token (the depth *inside* which it sits).
fn brace_depths(tokens: &[Token]) -> Vec<usize> {
    let mut depths = Vec::with_capacity(tokens.len());
    let mut d = 0usize;
    for t in tokens {
        if t.is_punct('{') {
            depths.push(d);
            d += 1;
        } else if t.is_punct('}') {
            d = d.saturating_sub(1);
            depths.push(d);
        } else {
            depths.push(d);
        }
    }
    depths
}

/// Scan the method chain after an acquisition's `()` (starting at `from`):
/// `true` when a trailing call other than the guard-passing adapters
/// (`unwrap`, `expect`, `unwrap_or_else`) consumes the guard within the
/// statement.
fn projects_out_of_guard(tokens: &[Token], from: usize) -> bool {
    const ADAPTERS: [&str; 3] = ["unwrap", "expect", "unwrap_or_else"];
    let mut k = from;
    loop {
        let chained = tokens.get(k).is_some_and(|t| t.is_punct('.'))
            && tokens
                .get(k + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident);
        if !chained {
            return false;
        }
        if !ADAPTERS.iter().any(|a| tokens[k + 1].text == *a) {
            return true;
        }
        // Skip the adapter's balanced argument list and keep scanning.
        let Some(open) = tokens.get(k + 2).filter(|t| t.is_punct('(')) else {
            return false;
        };
        let _ = open;
        let mut depth = 0usize;
        k += 2;
        while k < tokens.len() {
            if tokens[k].is_punct('(') {
                depth += 1;
            } else if tokens[k].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k += 1;
        }
        k += 1;
    }
}

/// Walk back over the receiver chain before the `.` at `dot` and name the
/// lock: `self.state.lock()` → `state`, `registry.lock()` → `registry`.
fn receiver_name(tokens: &[Token], dot: usize) -> String {
    tokens
        .get(dot.wrapping_sub(1))
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.clone())
        .unwrap_or_else(|| "<expr>".to_string())
}

/// Is the statement containing token `i` a `let` binding? Returns the bound
/// name when recoverable (skipping `mut` and destructuring patterns).
fn statement_binding(tokens: &[Token], i: usize, body_start: usize) -> (bool, Option<String>) {
    let mut k = i;
    while k > body_start {
        k -= 1;
        let t = &tokens[k];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            k += 1;
            break;
        }
    }
    if !tokens.get(k).is_some_and(|t| t.is_ident("let")) {
        return (false, None);
    }
    let mut n = k + 1;
    if tokens.get(n).is_some_and(|t| t.is_ident("mut")) {
        n += 1;
    }
    let name = tokens
        .get(n)
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.clone());
    (true, name)
}

/// Detect cycles in the global lock-order graph. Each cycle is reported
/// once, anchored at its lexically first edge.
pub fn detect_cycles(edges: &[LockEdge]) -> Vec<Finding> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut graph: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        graph.entry(&e.first).or_default().insert(&e.second);
    }
    let mut findings = Vec::new();
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();

    // DFS from every node; a back edge to a node on the current path closes
    // a cycle. Graphs here are tiny, so no need for anything cleverer.
    for &start in graph.keys() {
        let mut path: Vec<&str> = vec![start];
        let mut stack: Vec<Vec<&str>> = vec![graph[start].iter().copied().collect()];
        while let Some(frame) = stack.last_mut() {
            let Some(next) = frame.pop() else {
                stack.pop();
                path.pop();
                continue;
            };
            if let Some(pos) = path.iter().position(|&n| n == next) {
                let mut cycle: Vec<String> = path[pos..].iter().map(|s| s.to_string()).collect();
                // Canonicalize: rotate so the smallest name leads.
                let lead = cycle
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.cmp(b))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                cycle.rotate_left(lead);
                if reported.insert(cycle.clone()) {
                    let site = edges
                        .iter()
                        .find(|e| cycle.contains(&e.first) && cycle.contains(&e.second));
                    let (file, line, function) = site
                        .map(|e| (e.file.clone(), e.line, e.function.clone()))
                        .unwrap_or_else(|| ("<unknown>".to_string(), 0, String::new()));
                    findings.push(Finding {
                        rule: LOCK_ORDER,
                        file,
                        line,
                        message: format!(
                            "lock-order cycle: {} -> {} (seen in fn `{}`); acquire locks in one global order",
                            cycle.join(" -> "),
                            cycle[0],
                            function
                        ),
                    });
                }
                continue;
            }
            if path.len() > 16 {
                continue; // defensive bound; graphs are tiny
            }
            path.push(next);
            stack.push(
                graph
                    .get(next)
                    .map(|s| s.iter().copied().collect())
                    .unwrap_or_default(),
            );
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Rule 4: unit-hygiene
// ---------------------------------------------------------------------------

/// Flag `+`/`-` arithmetic directly on a raw unit accessor
/// (`.as_millis()`, `.as_nanos()`, …) unless the other operand goes through
/// the *same* accessor. Mixing accessors (`as_millis() + x.as_nanos()`) or
/// mixing with a bare value (`as_millis() + 3`) loses the unit; arithmetic
/// belongs on `Duration` itself.
///
/// Heuristic limits: only the form `<expr>.as_X() <op> <rhs>` is checked —
/// a literal LHS (`3 + x.as_millis()`) is not caught. Scaling with `*`/`/`
/// is unit-preserving and allowed.
fn check_unit_hygiene(path: &str, tokens: &[Token], excluded: &[bool], out: &mut Vec<Finding>) {
    const ACCESSORS: [&str; 7] = [
        "as_nanos",
        "as_micros",
        "as_millis",
        "as_secs",
        "as_secs_f64",
        "as_millis_f64",
        "subsec_nanos",
    ];
    for i in 0..tokens.len() {
        if excluded[i] {
            continue;
        }
        let t = &tokens[i];
        let is_accessor = t.kind == TokenKind::Ident
            && ACCESSORS.iter().any(|a| t.text == *a)
            && i >= 1
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|p| p.is_punct('('))
            && tokens.get(i + 2).is_some_and(|p| p.is_punct(')'));
        if !is_accessor {
            continue;
        }
        let Some(op) = tokens.get(i + 3) else {
            continue;
        };
        if !(op.is_punct('+') || op.is_punct('-')) {
            continue;
        }
        // `..` range or `->`/`- x` unary after comma etc. are not our ops;
        // a following `=` (`+=`) still is arithmetic on the raw value.
        if op.is_punct('-') && tokens.get(i + 4).is_some_and(|n| n.is_punct('>')) {
            continue;
        }
        // Scan the RHS (bounded) for its first unit accessor.
        let mut rhs_accessor: Option<&str> = None;
        for k in i + 4..(i + 20).min(tokens.len()) {
            let r = &tokens[k];
            if r.is_punct(';') || r.is_punct(',') || r.is_punct('{') {
                break;
            }
            if r.kind == TokenKind::Ident
                && ACCESSORS.iter().any(|a| r.text == *a)
                && tokens[k - 1].is_punct('.')
            {
                rhs_accessor = Some(&r.text);
                break;
            }
        }
        match rhs_accessor {
            Some(rhs) if rhs == t.text => {} // same unit on both sides
            Some(rhs) => out.push(Finding {
                rule: UNIT_HYGIENE,
                file: path.to_string(),
                line: t.line,
                message: format!(
                    "mixing `.{}()` with `.{rhs}()` in raw arithmetic; convert to one unit or use Duration ops",
                    t.text
                ),
            }),
            None => out.push(Finding {
                rule: UNIT_HYGIENE,
                file: path.to_string(),
                line: t.line,
                message: format!(
                    "raw `.{}()` value mixed with a unitless operand; do the arithmetic on Duration and convert once",
                    t.text
                ),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 5: vendor-audit
// ---------------------------------------------------------------------------

/// Audit one `Cargo.toml`: every dependency must resolve to a `path` inside
/// `vendor/` or `crates/`, or inherit from the workspace (whose table is
/// itself audited). `version`-only, `git`, and registry deps are findings.
pub fn audit_manifest(path: &str, source: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut section = String::new();
    for (lineno, raw_line) in source.lines().enumerate() {
        let line = raw_line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        let is_dep_section = section == "dependencies"
            || section == "dev-dependencies"
            || section == "build-dependencies"
            || section == "workspace.dependencies"
            || (section.starts_with("target.") && section.ends_with("dependencies"));
        if !is_dep_section {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        let value = value.trim();
        // `rand.workspace = true` / `foo.path = "vendor/foo"` dotted keys.
        if let Some((dep, attr)) = key.split_once('.') {
            let ok = match attr {
                "workspace" => true,
                "path" => value.contains("vendor/") || value.contains("crates/"),
                _ => true, // feature lists etc. ride on an already-audited dep
            };
            if !ok {
                out.push(vendor_finding(path, lineno + 1, dep));
            }
            continue;
        }
        let ok = value.contains("workspace")
            || value.contains("path")
                && (value.contains("vendor/")
                    || value.contains("crates/")
                    || value.contains("../"));
        if !ok {
            out.push(vendor_finding(path, lineno + 1, key));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule 6: atomics-ordering
// ---------------------------------------------------------------------------

/// Crate source proper — where the three v2 concurrency rules apply.
/// Integration tests and fixtures are exempt (they exercise the public API
/// from one thread, or contain violations on purpose).
fn in_concurrency_scope(path: &str) -> bool {
    (path.starts_with("crates/") && path.contains("/src/")) || path.starts_with("src/")
}

/// Methods that, combined with an `Ordering` argument, mark an atomic site.
const ATOMIC_METHODS: [&str; 12] = [
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
];

const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One atomic operation, grouped per receiver field.
#[derive(Debug)]
struct AtomicSite {
    /// `load`, `store`, or an RMW method name.
    method: String,
    /// The memory ordering named at the call site (first named ordering for
    /// loads, last for stores — `store(val, ord)` puts it last).
    ordering: String,
    /// Line of the *receiver* token, so an allow annotation anchors on
    /// `self.field` even when rustfmt splits `.store(…)` onto its own line.
    line: usize,
}

/// Collect atomic operations per receiver name. A site must name an
/// `Ordering` variant in its argument list — that is what separates
/// `flag.load(Ordering::Relaxed)` from `io::Read::read`-style methods that
/// happen to share a name (`store`, `swap` on maps, …).
fn collect_atomic_sites(
    tokens: &[Token],
    excluded: &[bool],
) -> std::collections::BTreeMap<String, Vec<AtomicSite>> {
    let mut sites: std::collections::BTreeMap<String, Vec<AtomicSite>> = Default::default();
    for i in 0..tokens.len() {
        if excluded[i] {
            continue;
        }
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || !ATOMIC_METHODS.iter().any(|m| t.text == *m) {
            continue;
        }
        if i < 2
            || !tokens[i - 1].is_punct('.')
            || !tokens.get(i + 1).is_some_and(|p| p.is_punct('('))
        {
            continue;
        }
        // Scan the balanced argument list for named orderings.
        let mut depth = 0usize;
        let mut k = i + 1;
        let mut ords: Vec<String> = Vec::new();
        while k < tokens.len() {
            let a = &tokens[k];
            if a.is_punct('(') {
                depth += 1;
            } else if a.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if a.kind == TokenKind::Ident && ORDERINGS.iter().any(|o| a.text == *o) {
                ords.push(a.text.clone());
            }
            k += 1;
        }
        let ordering = if t.text == "load" {
            ords.first()
        } else {
            ords.last()
        };
        let Some(ordering) = ordering else { continue };
        let receiver = &tokens[i - 2];
        if receiver.kind != TokenKind::Ident {
            continue; // `(expr).store(…)` — cannot name the field
        }
        sites
            .entry(receiver.text.clone())
            .or_default()
            .push(AtomicSite {
                method: t.text.clone(),
                ordering: ordering.clone(),
                line: receiver.line,
            });
    }
    sites
}

/// Flag broken Relaxed handshakes, per field, file-locally:
///
/// * a **Relaxed plain `store`** on a field that is also plainly `load`ed
///   anywhere in the file — the store cannot publish the data the reader
///   consumes after its load, whatever the load's ordering is;
/// * a **Relaxed plain `load`** on a field whose stores are Release/SeqCst —
///   the writer paid for ordering the reader then discards.
///
/// RMW-only fields (counters via `fetch_add`, flags claimed by CAS/`swap`)
/// are exempt: the classic Relaxed statistics counter never trips the rule.
/// Legit exceptions (termination latches joined elsewhere, gauges tolerant
/// of staleness) carry `// aqua-lint: allow(atomics-ordering) <why>`.
fn check_atomics_ordering(path: &str, tokens: &[Token], excluded: &[bool], out: &mut Vec<Finding>) {
    for (field, sites) in collect_atomic_sites(tokens, excluded) {
        let loads: Vec<&AtomicSite> = sites.iter().filter(|s| s.method == "load").collect();
        let release_store = sites
            .iter()
            .find(|s| s.method == "store" && (s.ordering == "Release" || s.ordering == "SeqCst"));
        if let Some(first_load) = loads.first() {
            for s in sites
                .iter()
                .filter(|s| s.method == "store" && s.ordering == "Relaxed")
            {
                out.push(Finding {
                    rule: ATOMICS_ORDER,
                    file: path.to_string(),
                    line: s.line,
                    message: format!(
                        "`{field}.store(_, Ordering::Relaxed)` publishes a value `{field}.load(…)` consumes (line {}); a Relaxed store cannot order the data it guards — use Release, or justify (counter/latch) with an allow",
                        first_load.line
                    ),
                });
            }
        }
        if let Some(rel) = release_store {
            for l in loads.iter().filter(|l| l.ordering == "Relaxed") {
                out.push(Finding {
                    rule: ATOMICS_ORDER,
                    file: path.to_string(),
                    line: l.line,
                    message: format!(
                        "`{field}.load(Ordering::Relaxed)` pairs with the Release store at line {}; complete the handshake with Acquire, or justify with an allow",
                        rel.line
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 7: unsafe-audit
// ---------------------------------------------------------------------------

/// The one file allowed to contain FFI and `allow(unsafe_code)`.
const SYS_PATH: &str = "crates/runtime/src/sys.rs";

/// Every `extern "C"` signature `sys.rs` may declare. Growing the FFI
/// surface means growing this list — a reviewed, deliberate act.
const FFI_ALLOWLIST: [&str; 4] = ["epoll_create1", "epoll_ctl", "epoll_wait", "close"];

/// Per-token mask of attribute contents (`#[…]`/`#![…]`, introducer
/// included), so attribute-only lines don't break SAFETY-comment adjacency.
fn attribute_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') {
            let start = i;
            let mut j = i + 1;
            if j < tokens.len() && tokens[j].is_punct('!') {
                j += 1;
            }
            if j < tokens.len() && tokens[j].is_punct('[') {
                let (end, _) = scan_attribute(tokens, j);
                for m in mask.iter_mut().take(end + 1).skip(start) {
                    *m = true;
                }
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    mask
}

/// Audit `unsafe` usage:
///
/// 1. every `unsafe` keyword needs a `// SAFETY:` comment on the same line
///    or directly above it (only blank or attribute-only lines between);
/// 2. every crate root (`crates/*/src/lib.rs`, `src/lib.rs`) must assert
///    `#![deny(unsafe_code)]` or `#![forbid(unsafe_code)]`;
/// 3. `allow(unsafe_code)` may appear only in `sys.rs`;
/// 4. `extern "C"` is confined to `sys.rs`, whose declared signatures must
///    all be in [`FFI_ALLOWLIST`].
fn check_unsafe_audit(
    path: &str,
    tokens: &[Token],
    excluded: &[bool],
    safety: &std::collections::BTreeSet<usize>,
    out: &mut Vec<Finding>,
) {
    use std::collections::BTreeSet;
    let attrs = attribute_mask(tokens);
    let mut code_lines: BTreeSet<usize> = BTreeSet::new();
    for (i, t) in tokens.iter().enumerate() {
        if !attrs[i] {
            code_lines.insert(t.line);
        }
    }

    for (i, t) in tokens.iter().enumerate() {
        if excluded[i] || !t.is_ident("unsafe") {
            continue;
        }
        let l = t.line;
        let documented = safety
            .iter()
            .any(|&c| c == l || (c < l && (c + 1..l).all(|m| !code_lines.contains(&m))));
        if !documented {
            out.push(Finding {
                rule: UNSAFE_AUDIT,
                file: path.to_string(),
                line: l,
                message: "`unsafe` without an adjacent `// SAFETY:` comment stating the invariant that makes it sound".to_string(),
            });
        }
    }

    let is_crate_root = path == "src/lib.rs"
        || (path.starts_with("crates/")
            && path.ends_with("/src/lib.rs")
            && path.matches('/').count() == 3);
    if is_crate_root {
        let denies = tokens.windows(3).any(|w| {
            (w[0].is_ident("deny") || w[0].is_ident("forbid"))
                && w[1].is_punct('(')
                && w[2].is_ident("unsafe_code")
        });
        if !denies {
            out.push(Finding {
                rule: UNSAFE_AUDIT,
                file: path.to_string(),
                line: 1,
                message: "crate root does not assert `#![deny(unsafe_code)]` or `#![forbid(unsafe_code)]`".to_string(),
            });
        }
    }

    if path != SYS_PATH {
        for (i, t) in tokens.iter().enumerate() {
            if t.is_ident("unsafe_code")
                && i >= 2
                && tokens[i - 1].is_punct('(')
                && tokens[i - 2].is_ident("allow")
            {
                out.push(Finding {
                    rule: UNSAFE_AUDIT,
                    file: path.to_string(),
                    line: t.line,
                    message: "`allow(unsafe_code)` is reserved for crates/runtime/src/sys.rs; everywhere else stays deny/forbid".to_string(),
                });
            }
        }
    }

    let mut i = 0usize;
    while i < tokens.len() {
        let is_extern_c = tokens[i].is_ident("extern")
            && tokens
                .get(i + 1)
                .is_some_and(|s| s.kind == TokenKind::Str && s.text.trim_matches('"') == "C");
        if !is_extern_c || excluded[i] {
            i += 1;
            continue;
        }
        if path != SYS_PATH {
            out.push(Finding {
                rule: UNSAFE_AUDIT,
                file: path.to_string(),
                line: tokens[i].line,
                message: "`extern \"C\"` FFI outside crates/runtime/src/sys.rs; the audited allowlist lives there".to_string(),
            });
            i += 2;
            continue;
        }
        let mut k = i + 2;
        if tokens.get(k).is_some_and(|b| b.is_punct('{')) {
            let mut depth = 0usize;
            while k < tokens.len() {
                if tokens[k].is_punct('{') {
                    depth += 1;
                } else if tokens[k].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if tokens[k].is_ident("fn") {
                    audit_ffi_name(path, tokens.get(k + 1), out);
                }
                k += 1;
            }
        } else if tokens.get(k).is_some_and(|f| f.is_ident("fn")) {
            audit_ffi_name(path, tokens.get(k + 1), out);
        }
        i = k + 1;
    }
}

fn audit_ffi_name(path: &str, name: Option<&Token>, out: &mut Vec<Finding>) {
    let Some(name) = name.filter(|n| n.kind == TokenKind::Ident) else {
        return;
    };
    if !FFI_ALLOWLIST.iter().any(|a| name.text == *a) {
        out.push(Finding {
            rule: UNSAFE_AUDIT,
            file: path.to_string(),
            line: name.line,
            message: format!(
                "FFI `{}` is not in the audited sys.rs allowlist ({})",
                name.text,
                FFI_ALLOWLIST.join(", ")
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// Rule 8: spawn-join
// ---------------------------------------------------------------------------

/// Flag `thread::spawn` / `thread::Builder…spawn` calls whose `JoinHandle`
/// is dropped on the spot: a bare expression statement, or a `let _ =`
/// binding. A handle that is let-bound, pushed into a collection
/// (`joins.push(thread::spawn(…))` — the spawn sits inside an argument
/// list), returned as a tail expression, or `.join()`ed in the same
/// statement escapes the rule. Non-thread `spawn` methods (scoped threads,
/// `Reactor::spawn`, actor pools) are not matched.
///
/// Deliberate limit: a named binding that is *later* dropped un-joined is
/// not tracked — that needs real dataflow. The rule targets the
/// fire-and-forget idiom, which is exactly what leaks threads past the
/// test harness and shutdown paths.
fn check_spawn_join(path: &str, tokens: &[Token], excluded: &[bool], out: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        if excluded[i] {
            continue;
        }
        let t = &tokens[i];
        if !t.is_ident("spawn") || !tokens.get(i + 1).is_some_and(|p| p.is_punct('(')) {
            continue;
        }
        // Statement start: just past the previous `;`/`{`/`}`.
        let mut start = i;
        while start > 0 {
            let p = &tokens[start - 1];
            if p.is_punct(';') || p.is_punct('{') || p.is_punct('}') {
                break;
            }
            start -= 1;
        }
        let is_thread_spawn = i >= 3
            && tokens[i - 1].is_punct(':')
            && tokens[i - 2].is_punct(':')
            && tokens[i - 3].is_ident("thread");
        let is_builder_spawn = i >= 1
            && tokens[i - 1].is_punct('.')
            && tokens[start..i].iter().any(|b| b.is_ident("Builder"));
        if !is_thread_spawn && !is_builder_spawn {
            continue;
        }
        if tokens.get(start).is_some_and(|t| t.is_ident("return")) {
            continue; // the handle is returned to the caller
        }
        // Inside an argument list (`joins.push(…)`) the handle escapes.
        let mut depth = 0isize;
        for t in &tokens[start..i] {
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            }
        }
        if depth > 0 {
            continue;
        }
        // A named `let` binding holds the handle; `let _ =` discards it.
        if tokens.get(start).is_some_and(|t| t.is_ident("let")) {
            let mut n = start + 1;
            if tokens.get(n).is_some_and(|t| t.is_ident("mut")) {
                n += 1;
            }
            let named = tokens
                .get(n)
                .is_some_and(|t| t.kind == TokenKind::Ident && t.text != "_");
            if named {
                continue;
            }
        }
        // Scan the statement tail: a `;` at chain depth drops the handle
        // unless `.join()` was called; hitting the enclosing `}` first
        // means the spawn is the block's tail expression.
        let mut k = i + 1;
        let mut d = 0isize;
        let mut joined = false;
        let mut dropped = false;
        while k < tokens.len() {
            let a = &tokens[k];
            if a.is_punct('(') || a.is_punct('[') || a.is_punct('{') {
                d += 1;
            } else if a.is_punct(')') || a.is_punct(']') || a.is_punct('}') {
                d -= 1;
                if d < 0 {
                    break;
                }
            } else if d == 0 {
                if a.is_punct(';') {
                    dropped = true;
                    break;
                }
                if a.is_ident("join") {
                    joined = true;
                }
            }
            k += 1;
        }
        if dropped && !joined {
            out.push(Finding {
                rule: SPAWN_JOIN,
                file: path.to_string(),
                line: t.line,
                message: "`thread::spawn` handle dropped un-joined; bind and join it, or justify detaching with an allow".to_string(),
            });
        }
    }
}

fn vendor_finding(path: &str, line: usize, dep: &str) -> Finding {
    Finding {
        rule: VENDOR_AUDIT,
        file: path.to_string(),
        line,
        message: format!(
            "dependency `{dep}` does not resolve to `vendor/` or the workspace; external crates are forbidden"
        ),
    }
}

// ---------------------------------------------------------------------------
// Rule 10: pub-has-caller
// ---------------------------------------------------------------------------

/// Where [`check_pub_has_caller`] looks for `pub` items: the sources of a
/// library crate, not its binaries.
fn in_library_scope(path: &str) -> bool {
    let lib = path.starts_with("src/")
        || (path.starts_with("crates/") && path.split('/').nth(2) == Some("src"));
    lib && !path.contains("/bin/") && !path.ends_with("/main.rs")
}

/// A `pub` item: its name, the line of its `pub`, and the token extent of
/// the whole item.
struct PubItem {
    name: String,
    line: usize,
    extent: (usize, usize),
}

/// `pub` fns, methods, structs, enums, unions, traits, type aliases,
/// consts and statics outside `#[cfg(test)]` code. `pub(crate)` and
/// narrower, `pub use`, `pub mod` and `pub` fields are not items here.
fn pub_items(tokens: &[Token], excluded: &[bool]) -> Vec<PubItem> {
    let mut items = Vec::new();
    for i in 0..tokens.len() {
        if excluded[i] || !tokens[i].is_ident("pub") {
            continue;
        }
        let mut j = i + 1;
        let qualifier = |t: &Token, next: Option<&Token>| {
            t.is_ident("unsafe")
                || t.is_ident("async")
                || t.is_ident("extern")
                || (t.is_ident("const")
                    && next.is_some_and(|n| n.is_ident("fn") || n.is_ident("unsafe")))
        };
        while j < tokens.len() && qualifier(&tokens[j], tokens.get(j + 1)) {
            j += 1;
            if tokens.get(j).is_some_and(|t| t.kind == TokenKind::Str) {
                j += 1; // `extern "C"`
            }
        }
        let Some(keyword) = tokens.get(j) else {
            continue;
        };
        const ITEMS: [&str; 8] = [
            "fn", "struct", "enum", "union", "trait", "type", "const", "static",
        ];
        if !ITEMS.iter().any(|k| keyword.is_ident(k)) {
            continue;
        }
        let mut n = j + 1;
        if tokens.get(n).is_some_and(|t| t.is_ident("mut")) {
            n += 1; // `pub static mut`
        }
        let Some(name) = tokens.get(n).filter(|t| t.kind == TokenKind::Ident) else {
            continue;
        };
        items.push(PubItem {
            name: name.text.clone(),
            line: tokens[i].line,
            extent: (i, item_extent(tokens, n)),
        });
    }
    items
}

/// `impl` blocks as (self type's name, token extent). The self type is the
/// last path segment outside generics after `for`, or after the impl's own
/// generics when there is no `for`.
fn impl_blocks(tokens: &[Token]) -> Vec<(String, (usize, usize))> {
    let mut blocks = Vec::new();
    for i in 0..tokens.len() {
        let item_position = i == 0
            || [';', '{', '}', ']']
                .iter()
                .any(|c| tokens[i - 1].is_punct(*c))
            || tokens[i - 1].is_ident("unsafe");
        if !tokens[i].is_ident("impl") || !item_position {
            continue;
        }
        let mut angle = 0isize;
        let mut paren = 0isize;
        let mut self_type = None;
        let mut k = i + 1;
        while k < tokens.len() {
            let t = &tokens[k];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !tokens[k - 1].is_punct('-') {
                angle -= 1;
            } else if t.is_punct('(') {
                paren += 1;
            } else if t.is_punct(')') {
                paren -= 1;
            } else if angle == 0 && paren == 0 {
                if t.is_punct('{') || t.is_ident("where") {
                    break;
                }
                if t.is_ident("for") && !tokens.get(k + 1).is_some_and(|n| n.is_punct('<')) {
                    self_type = None;
                } else if t.kind == TokenKind::Ident && !t.is_ident("dyn") && !t.is_ident("mut") {
                    self_type = Some(t.text.clone());
                }
            }
            k += 1;
        }
        while k < tokens.len() && !tokens[k].is_punct('{') {
            k += 1;
        }
        if let Some(name) = self_type {
            blocks.push((name, (i, item_extent(tokens, k))));
        }
    }
    blocks
}

/// Per-token mask of `pub use` (and `pub(…) use`) re-exports.
fn reexport_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("pub") {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.is_punct('(')) {
                while j < tokens.len() && !tokens[j].is_punct(')') {
                    j += 1;
                }
                j += 1;
            }
            if tokens.get(j).is_some_and(|t| t.is_ident("use")) {
                let end = item_extent(tokens, j);
                for m in mask.iter_mut().take(end + 1).skip(i) {
                    *m = true;
                }
                i = end;
            }
        }
        i += 1;
    }
    mask
}

/// Flag a `pub` item of a library crate (`crates/*/src`, `src/`, not
/// `bin/` or `main.rs`) whose name is used nowhere else among `files`,
/// given as `(workspace-relative path, source)`. Every file is a caller;
/// the workspace passes `crates/`, `src/`, `examples/`, `tests/` and
/// `benchmark/src`.
///
/// A use is an identifier token equal to the item's name, except:
/// - inside `#[cfg(test)]` code of a `src/` file (an integration test's
///   `#[test]` fns do count);
/// - in a comment, so doc links and doctests do not count;
/// - inside a `pub use` re-export;
/// - the name of any item's declaration (`fn name`, `struct Name`, …);
/// - inside the item itself, or inside an `impl` block whose self type
///   carries the item's name.
///
/// Matching is by name alone: an item sharing its name with a used one
/// (`Pmf::quantile` and some other `quantile`) is never flagged.
pub fn check_pub_has_caller(files: &[(String, String)]) -> Vec<Finding> {
    const DECLARES: [&str; 9] = [
        "fn", "struct", "enum", "union", "trait", "type", "const", "static", "mod",
    ];
    let mut uses: HashMap<String, usize> = HashMap::new();
    let mut candidates = Vec::new();
    for (path, source) in files {
        let lexed = lex(source);
        let tokens = &lexed.tokens;
        let excluded = if path.starts_with("src/") || path.contains("/src/") {
            cfg_test_mask(tokens)
        } else {
            vec![false; tokens.len()]
        };
        let reexported = reexport_mask(tokens);
        let items = if in_library_scope(path) {
            pub_items(tokens, &excluded)
        } else {
            Vec::new()
        };
        let mut owned: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
        for item in &items {
            owned.entry(&item.name).or_default().push(item.extent);
        }
        let blocks = impl_blocks(tokens);
        for (name, extent) in &blocks {
            owned.entry(name).or_default().push(*extent);
        }
        for (k, t) in tokens.iter().enumerate() {
            let declared = k > 0
                && (DECLARES.iter().any(|d| tokens[k - 1].is_ident(d))
                    || (tokens[k - 1].is_ident("mut")
                        && k > 1
                        && tokens[k - 2].is_ident("static")));
            if t.kind != TokenKind::Ident || excluded[k] || reexported[k] || declared {
                continue;
            }
            let own = owned
                .get(t.text.as_str())
                .is_some_and(|ranges| ranges.iter().any(|&(a, b)| a <= k && k <= b));
            if !own {
                *uses.entry(t.text.clone()).or_insert(0) += 1;
            }
        }
        let allows = collect_allows(&lexed.comments);
        candidates.extend(
            items
                .into_iter()
                .filter(|item| !allowed(&allows, PUB_HAS_CALLER, item.line))
                .map(|item| (path.clone(), item)),
        );
    }
    candidates
        .into_iter()
        .filter(|(_, item)| !uses.contains_key(&item.name))
        .map(|(path, item)| Finding {
            rule: PUB_HAS_CALLER,
            file: path,
            line: item.line,
            message: format!(
                "`pub` item `{}` has no caller outside its own body, impls, `#[cfg(test)]` code and re-exports; delete it, narrow it, or justify it with an allow",
                item.name
            ),
        })
        .collect()
}
