//! Fixture-driven rule tests: every rule has a positive fixture (each
//! construct fires with the right rule id) and a negative fixture (tricky
//! non-violations stay silent), plus a self-check that the workspace
//! itself lints clean.

use aqua_lint::rules::{
    analyze_file, audit_manifest, check_callers, detect_cycles, Finding, ATOMICS_ORDER,
    KNOB_CENSUS, LOCK_ORDER, NO_ALLOC, NO_PANIC, NO_WALLCLOCK, PUB_HAS_CALLER, SPAWN_JOIN,
    UNIT_HYGIENE, UNSAFE_AUDIT, VARIANT_HAS_CONSTRUCTOR, VENDOR_AUDIT,
};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lint a fixture as if it lived at `virtual_path` inside the workspace.
fn lint_as(virtual_path: &str, name: &str) -> Vec<Finding> {
    analyze_file(virtual_path, &fixture(name)).findings
}

#[test]
fn no_panic_positive_fires_per_construct() {
    let findings = lint_as("crates/core/src/fixture.rs", "no_panic_positive.rs");
    assert!(findings.iter().all(|f| f.rule == NO_PANIC), "{findings:?}");
    let of = |needle: &str| {
        findings
            .iter()
            .filter(|f| f.message.contains(needle))
            .count()
    };
    assert_eq!(of(".unwrap()"), 2, "plain + unjustified-annotation unwrap");
    assert_eq!(of(".expect()"), 1);
    assert_eq!(of("`panic!`"), 1);
    assert_eq!(of("`unreachable!`"), 1);
    assert_eq!(of("indexing"), 3, "xs[0] + grid[0][1] twice");
    assert_eq!(findings.len(), 8);
}

#[test]
fn no_panic_negative_is_silent() {
    let findings = lint_as("crates/core/src/fixture.rs", "no_panic_negative.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn no_panic_scope_is_path_based() {
    // The same panicking source is fine outside the hot-path crates.
    let findings = lint_as("crates/bench/src/fixture.rs", "no_panic_positive.rs");
    assert!(findings.iter().all(|f| f.rule != NO_PANIC), "{findings:?}");
}

#[test]
fn no_alloc_positive_fires_per_construct() {
    let findings = lint_as("crates/runtime/src/fixture.rs", "no_alloc_positive.rs");
    assert!(findings.iter().all(|f| f.rule == NO_ALLOC), "{findings:?}");
    for needle in [
        "Vec::new",
        "vec!",
        ".to_vec()",
        ".clone()",
        "String::from",
        "format!",
    ] {
        assert_eq!(
            findings
                .iter()
                .filter(|f| f.message.contains(needle))
                .count(),
            1,
            "expected exactly one finding for `{needle}`: {findings:?}"
        );
    }
    assert_eq!(findings.len(), 6);
    assert!(findings
        .iter()
        .all(|f| f.message.contains("allocating_hot_path")));
}

#[test]
fn no_alloc_negative_is_silent() {
    let findings = lint_as("crates/runtime/src/fixture.rs", "no_alloc_negative.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn lock_order_positive_fires() {
    let analysis = analyze_file(
        "crates/runtime/src/fixture.rs",
        &fixture("lock_order_positive.rs"),
    );
    // Guard across send + re-entrant acquisition are local findings.
    assert!(analysis
        .findings
        .iter()
        .any(|f| f.rule == LOCK_ORDER && f.message.contains("blocking `.send()`")));
    assert!(analysis
        .findings
        .iter()
        .any(|f| f.rule == LOCK_ORDER && f.message.contains("re-acquired")));
    // The alpha->beta / beta->alpha cycle comes from the global graph.
    let cycles = detect_cycles(&analysis.lock_edges);
    assert_eq!(cycles.len(), 1, "{cycles:?}");
    assert!(cycles[0].message.contains("alpha"));
    assert!(cycles[0].message.contains("beta"));
}

#[test]
fn lock_order_negative_is_silent() {
    let analysis = analyze_file(
        "crates/runtime/src/fixture.rs",
        &fixture("lock_order_negative.rs"),
    );
    assert!(analysis.findings.is_empty(), "{:?}", analysis.findings);
    // Consistent ordering leaves edges but no cycle; the annotated reverse
    // edge was dropped from the graph.
    let cycles = detect_cycles(&analysis.lock_edges);
    assert!(cycles.is_empty(), "{cycles:?}");
}

#[test]
fn lock_order_scope_is_path_based() {
    let findings = lint_as("crates/core/src/fixture.rs", "lock_order_positive.rs");
    assert!(
        findings.iter().all(|f| f.rule != LOCK_ORDER),
        "{findings:?}"
    );
}

#[test]
fn unit_hygiene_positive_fires_per_construct() {
    let findings = lint_as("crates/sim/src/fixture.rs", "unit_hygiene_positive.rs");
    assert!(
        findings.iter().all(|f| f.rule == UNIT_HYGIENE),
        "{findings:?}"
    );
    assert_eq!(findings.len(), 4, "{findings:?}");
    let mixed = findings
        .iter()
        .filter(|f| f.message.contains("mixing"))
        .count();
    let unitless = findings
        .iter()
        .filter(|f| f.message.contains("unitless"))
        .count();
    assert_eq!(mixed, 2);
    assert_eq!(unitless, 2);
}

#[test]
fn unit_hygiene_negative_is_silent() {
    let findings = lint_as("crates/sim/src/fixture.rs", "unit_hygiene_negative.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn vendor_audit_flags_external_deps() {
    let findings = audit_manifest(
        "crates/fixture/Cargo.toml",
        &fixture("vendor_audit_bad.toml"),
    );
    assert!(
        findings.iter().all(|f| f.rule == VENDOR_AUDIT),
        "{findings:?}"
    );
    let flagged: Vec<&str> = ["serde", "rand", "tokio", "criterion"]
        .into_iter()
        .filter(|dep| {
            findings
                .iter()
                .any(|f| f.message.contains(&format!("`{dep}`")))
        })
        .collect();
    assert_eq!(flagged.len(), 4, "{findings:?}");
    assert_eq!(findings.len(), 4, "aqua-core path dep must not be flagged");
}

#[test]
fn vendor_audit_accepts_workspace_and_vendor_paths() {
    let findings = audit_manifest(
        "crates/fixture/Cargo.toml",
        &fixture("vendor_audit_good.toml"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn allow_annotation_does_not_leak_to_other_lines() {
    // The annotation covers its own line and the next one — not line 3.
    let src = "\
// aqua-lint: allow(no-panic-in-hot-path) only covers the next line
pub fn a(x: Option<u32>) -> u32 { x.unwrap() }
pub fn b(x: Option<u32>) -> u32 { x.unwrap() }
";
    let findings = analyze_file("crates/core/src/fixture.rs", src).findings;
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].line, 3);
}

#[test]
fn allow_annotation_for_wrong_rule_does_not_suppress() {
    let src = "\
// aqua-lint: allow(unit-hygiene) wrong rule id
pub fn a(x: Option<u32>) -> u32 { x.unwrap() }
";
    let findings = analyze_file("crates/core/src/fixture.rs", src).findings;
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, NO_PANIC);
}

#[test]
fn atomics_ordering_positive_fires_per_construct() {
    let findings = lint_as("crates/sim/src/fixture.rs", "atomics_ordering_positive.rs");
    assert!(
        findings.iter().all(|f| f.rule == ATOMICS_ORDER),
        "{findings:?}"
    );
    let of = |needle: &str| {
        findings
            .iter()
            .filter(|f| f.message.contains(needle))
            .count()
    };
    assert_eq!(of("`payload.store"), 2, "plain + rustfmt-split store");
    assert_eq!(of("`ready.store"), 1, "Relaxed store vs Acquire load");
    assert_eq!(of("`half.load"), 1, "Relaxed load vs Release store");
    assert_eq!(findings.len(), 4, "{findings:?}");
}

#[test]
fn atomics_ordering_negative_is_silent() {
    let findings = lint_as("crates/sim/src/fixture.rs", "atomics_ordering_negative.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn atomics_finding_anchors_on_the_receiver_line() {
    // rustfmt splits `self.f` and `.store(…)` across lines; the finding
    // must sit on the receiver so an allow directly above it suppresses.
    let bare = "\
use std::sync::atomic::{AtomicU64, Ordering};
pub struct S {
    f: AtomicU64,
}
impl S {
    pub fn w(&self) {
        self.f
            .store(1, Ordering::Relaxed);
    }
    pub fn r(&self) -> u64 {
        self.f.load(Ordering::Relaxed)
    }
}
";
    let findings = analyze_file("crates/sim/src/fixture.rs", bare).findings;
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].line, 7, "anchor on `self.f`, not `.store`");

    let allowed = bare.replace(
        "        self.f\n",
        "        // aqua-lint: allow(atomics-ordering) split-chain anchor\n        self.f\n",
    );
    let findings = analyze_file("crates/sim/src/fixture.rs", &allowed).findings;
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn unsafe_audit_positive_fires_per_construct() {
    let findings = lint_as("crates/gateway/src/fixture.rs", "unsafe_audit_positive.rs");
    assert!(
        findings.iter().all(|f| f.rule == UNSAFE_AUDIT),
        "{findings:?}"
    );
    let of = |needle: &str| {
        findings
            .iter()
            .filter(|f| f.message.contains(needle))
            .count()
    };
    assert_eq!(of("reserved for"), 1, "allow(unsafe_code) outside sys.rs");
    assert_eq!(of("outside crates/runtime/src/sys.rs"), 1, "extern \"C\"");
    assert_eq!(of("SAFETY"), 2, "undocumented + comment-too-far unsafe");
    assert_eq!(findings.len(), 4, "{findings:?}");
}

#[test]
fn unsafe_audit_crate_root_must_deny() {
    // The same fixture linted as a crate root additionally misses the
    // `#![deny(unsafe_code)]` assertion.
    let findings = lint_as("crates/fixture/src/lib.rs", "unsafe_audit_positive.rs");
    assert_eq!(findings.len(), 5, "{findings:?}");
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("crate root") && f.line == 1),
        "{findings:?}"
    );
}

#[test]
fn unsafe_audit_negative_is_silent_in_sys() {
    let findings = lint_as("crates/runtime/src/sys.rs", "unsafe_audit_negative.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn unsafe_audit_sys_allowlist_catches_strays() {
    let findings = lint_as("crates/runtime/src/sys.rs", "unsafe_audit_sys_bad.rs");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("`socket`"), "{findings:?}");
    assert!(findings[0].message.contains("allowlist"), "{findings:?}");
}

#[test]
fn spawn_join_positive_fires_per_construct() {
    let findings = lint_as("crates/sim/src/fixture.rs", "spawn_join_positive.rs");
    assert!(
        findings.iter().all(|f| f.rule == SPAWN_JOIN),
        "{findings:?}"
    );
    assert_eq!(findings.len(), 3, "bare, `let _`, and Builder spawns");
}

#[test]
fn spawn_join_negative_is_silent() {
    let findings = lint_as("crates/sim/src/fixture.rs", "spawn_join_negative.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn concurrency_rules_scope_is_path_based() {
    // The same sources are exempt outside `src/` trees (tests, benches).
    let findings = lint_as("crates/sim/tests/helper.rs", "spawn_join_positive.rs");
    assert!(
        findings.iter().all(|f| f.rule != SPAWN_JOIN),
        "{findings:?}"
    );
    let findings = lint_as("crates/sim/tests/helper.rs", "atomics_ordering_positive.rs");
    assert!(
        findings.iter().all(|f| f.rule != ATOMICS_ORDER),
        "{findings:?}"
    );
}

#[test]
fn no_wallclock_positive_fires_per_construct() {
    let findings = lint_as("crates/gateway/src/fixture.rs", "no_wallclock_positive.rs");
    let clock = |f: &&Finding| f.rule == NO_WALLCLOCK;
    let of = |needle: &str| {
        findings
            .iter()
            .filter(clock)
            .filter(|f| f.message.contains(needle))
            .count()
    };
    assert_eq!(of("`Instant::now`"), 3, "called, passed, unjustified");
    assert_eq!(of("`SystemTime::now`"), 1);
    assert_eq!(findings.iter().filter(clock).count(), 4, "{findings:?}");
}

#[test]
fn no_wallclock_negative_is_silent() {
    let findings = lint_as("crates/sim/src/fixture.rs", "no_wallclock_negative.rs");
    assert!(
        findings.iter().all(|f| f.rule != NO_WALLCLOCK),
        "{findings:?}"
    );
}

#[test]
fn no_wallclock_scope_is_the_simulated_crates() {
    for krate in [
        "core",
        "strategies",
        "gateway",
        "sim",
        "group",
        "replica",
        "workload",
    ] {
        let path = format!("crates/{krate}/src/fixture.rs");
        let findings = lint_as(&path, "no_wallclock_positive.rs");
        assert_eq!(
            findings.iter().filter(|f| f.rule == NO_WALLCLOCK).count(),
            4,
            "{path}"
        );
    }
    // The socket runtime, the benches and tests run on the wall clock.
    for path in [
        "crates/runtime/src/fixture.rs",
        "crates/bench/src/fixture.rs",
        "crates/sim/tests/fixture.rs",
    ] {
        let findings = lint_as(path, "no_wallclock_positive.rs");
        assert!(findings.iter().all(|f| f.rule != NO_WALLCLOCK), "{path}");
    }
}

/// The caller index's `rule` over `(virtual path, source)` files; returns
/// what it flags (an item's name, `Enum::Variant` or `Struct::field`),
/// sorted.
fn flagged(rule: &str, files: &[(&str, &str)]) -> Vec<String> {
    let files: Vec<(String, String)> = files
        .iter()
        .map(|(path, source)| (path.to_string(), source.to_string()))
        .collect();
    // A `pub-has-caller` message opens with "`pub` item `name`".
    let quoted = if rule == PUB_HAS_CALLER { 3 } else { 1 };
    let mut names: Vec<String> = check_callers(&files)
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| {
            f.message
                .split('`')
                .nth(quoted)
                .unwrap_or_default()
                .to_string()
        })
        .collect();
    names.sort();
    names
}

fn uncalled(files: &[(&str, &str)]) -> Vec<String> {
    flagged(PUB_HAS_CALLER, files)
}

/// Splits a fixture of several files on its `// file: <path>` lines.
fn split_files(source: &str) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = Vec::new();
    for line in source.lines() {
        if let Some(path) = line.strip_prefix("// file: ") {
            files.push((path.to_string(), String::new()));
        } else if let Some((_, body)) = files.last_mut() {
            body.push_str(line);
            body.push('\n');
        }
    }
    files
}

/// What calls the negative fixture: an integration test and the benchmark.
const INTEGRATION_TEST: &str =
    "#[test]\nfn it() { assert!(fixture::used_by_test().area() > 0.0); }\n";
const BENCHMARK: &str =
    "pub fn run() { fixture::used_by_benchmark(); let _: &dyn fixture::Shape = &fixture::Square(1.0); }\n";

#[test]
fn pub_has_caller_positive_fires_per_kind() {
    let positive = fixture("pub_has_caller_positive.rs");
    // The only caller of `test_only` is `#[cfg(test)]` code; the only
    // mention of `DocOnly` is a doc link and a doctest; the only mention
    // of `reexport_only` is its `pub use`.
    assert_eq!(
        uncalled(&[("crates/core/src/fixture.rs", &positive)]),
        [
            "DocOnly",
            "LONELY_CONST",
            "LONELY_STATIC",
            "LonelyAlias",
            "LonelyEnum",
            "LonelyStruct",
            "LonelyTrait",
            "lonely_fn",
            "lonely_method",
            "reexport_only",
            "test_only",
            "unjustified",
        ]
    );
}

#[test]
fn pub_has_caller_negative_is_silent() {
    let negative = fixture("pub_has_caller_negative.rs");
    let lib = ("crates/core/src/fixture.rs", negative.as_str());
    assert!(uncalled(&[
        lib,
        ("crates/core/tests/it.rs", INTEGRATION_TEST),
        ("benchmark/src/workload.rs", BENCHMARK),
    ])
    .is_empty());
    // Without them, exactly what they call has no caller.
    assert_eq!(uncalled(&[lib]), ["used_by_benchmark", "used_by_test"]);
}

#[test]
fn pub_has_caller_scope_is_library_sources() {
    // Binaries, tests, examples and the benchmark declare no API.
    let positive = fixture("pub_has_caller_positive.rs");
    for path in [
        "crates/bench/src/bin/fixture.rs",
        "crates/lint/src/main.rs",
        "crates/core/tests/fixture.rs",
        "examples/fixture.rs",
        "benchmark/src/fixture.rs",
    ] {
        assert!(uncalled(&[(path, &positive)]).is_empty(), "{path}");
    }
}

#[test]
fn pub_has_caller_counts_a_shared_method_name_per_type() {
    let files = split_files(&fixture("pub_has_caller_collision.rs"));
    assert_eq!(files.len(), 5);
    // The handler's and the observer's methods have callers: by path, in
    // a file that names the type, and in a file that imports only the
    // observer's file. Nothing calls the client's forwarders.
    let findings = check_callers(&files);
    let flagged: Vec<(&str, &str)> = findings
        .iter()
        .map(|f| {
            (
                f.file.as_str(),
                f.message.split('`').nth(3).unwrap_or_default(),
            )
        })
        .collect();
    let client = "crates/runtime/src/client.rs";
    assert_eq!(
        flagged,
        [
            (client, "set_fault_windows"),
            (client, "configure_watchdog")
        ]
    );
}

#[test]
fn pub_has_caller_ties_a_self_call_to_its_own_private_method() {
    // The handler's file names the cell, but its `self.publish()` is the
    // handler's private method: the cell's `pub` one has no caller.
    let files = split_files(&fixture("pub_has_caller_private_collision.rs"));
    assert_eq!(files.len(), 3);
    let findings = check_callers(&files);
    let flagged: Vec<(&str, &str)> = findings
        .iter()
        .map(|f| {
            (
                f.file.as_str(),
                f.message.split('`').nth(3).unwrap_or_default(),
            )
        })
        .collect();
    assert_eq!(flagged, [("crates/core/src/snapshot.rs", "publish")]);
}

/// What builds the negative fixture's `Kind::ByTest`.
const VARIANT_TEST: &str = "#[test]\nfn it() { let _ = fixture::Kind::ByTest; }\n";

#[test]
fn variant_has_constructor_positive_fires_per_shape() {
    let positive = fixture("variant_has_constructor_positive.rs");
    assert_eq!(
        flagged(
            VARIANT_HAS_CONSTRUCTOR,
            &[("crates/core/src/fixture.rs", &positive)]
        ),
        [
            "Mode::Slow",
            "Shape::Struct",
            "Shape::Tuple",
            "Shape::Unit",
            "Unjustified::Never",
        ]
    );
}

#[test]
fn variant_has_constructor_negative_is_silent() {
    let negative = fixture("variant_has_constructor_negative.rs");
    let lib = ("crates/core/src/fixture.rs", negative.as_str());
    let test = ("crates/core/tests/it.rs", VARIANT_TEST);
    assert!(flagged(VARIANT_HAS_CONSTRUCTOR, &[lib, test]).is_empty());
    // Without the integration test, its variant has no constructor.
    assert_eq!(flagged(VARIANT_HAS_CONSTRUCTOR, &[lib]), ["Kind::ByTest"]);
}

#[test]
fn knob_census_positive_fires_per_site() {
    let positive = fixture("knob_census_positive.rs");
    let lib = ("crates/core/src/fixture.rs", positive.as_str());
    let expected = [
        "LinkConfig::burst",
        "LinkConfig::jitter",
        "LinkConfig::label",
        "LinkConfig::retries",
        "LinkConfig::timeout_ms",
        "LinkConfig::unjustified",
        "LinkConfig::window",
        "PathSpec::depth",
        "ReadPolicy::strict",
    ];
    assert_eq!(flagged(KNOB_CENSUS, &[lib]), expected);
    // Values that only tests and examples give do not count.
    let others = "pub fn other() { let mut c = fixture::LinkConfig::default(); c.jitter = 0.25; c.retries = 1; }\n";
    for path in ["examples/demo.rs", "tests/it.rs", "crates/core/tests/it.rs"] {
        assert_eq!(
            flagged(KNOB_CENSUS, &[lib, (path, others)]),
            expected,
            "{path}"
        );
    }
}

#[test]
fn knob_census_negative_is_silent() {
    let negative = fixture("knob_census_negative.rs");
    let lib = ("crates/core/src/fixture.rs", negative.as_str());
    let benchmark = "pub fn run() { let mut c = fixture::PoolConfig::default(); c.batch = 2; }\n";
    assert!(flagged(KNOB_CENSUS, &[lib, ("benchmark/src/run.rs", benchmark)]).is_empty());
    // Without the benchmark, its field has one value.
    assert_eq!(flagged(KNOB_CENSUS, &[lib]), ["PoolConfig::batch"]);
}

#[test]
fn workspace_lints_clean() {
    // The tree this crate ships in must itself be finding-free: the CI
    // `--check` gate relies on it.
    let root = aqua_lint::find_workspace_root(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .expect("workspace root");
    let report = aqua_lint::run_workspace(&root).expect("lint run");
    assert!(
        report.findings.is_empty(),
        "workspace must lint clean:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.files_scanned > 50,
        "scanned {}",
        report.files_scanned
    );
    assert!(report.manifests_audited > 10);
}

#[test]
fn json_report_shape() {
    let root = aqua_lint::find_workspace_root(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .expect("workspace root");
    let report = aqua_lint::run_workspace(&root).expect("lint run");
    let json = report.to_json();
    for rule in aqua_lint::rules::ALL_RULES {
        assert!(json.contains(&format!("\"{rule}\"")), "{json}");
    }
    assert!(json.contains("\"findings\""));
    assert!(json.contains("\"by_rule\""));
    assert!(json.contains("\"total\""));
}
