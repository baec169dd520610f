//! aqua-lint CLI.
//!
//! ```text
//! cargo run -p aqua-lint -- --check            # lint, exit 1 on findings
//! cargo run -p aqua-lint -- --json             # machine-readable findings
//! cargo run -p aqua-lint -- --interleave       # run the model checker
//! cargo run -p aqua-lint -- --root /some/tree  # lint another checkout
//! cargo run -p aqua-lint -- --check --baseline lint-baseline.json
//! ```

use aqua_lint::{find_workspace_root, interleave, parse_baseline, run_workspace};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    check: bool,
    json: bool,
    run_interleave: bool,
    root: Option<PathBuf>,
    baseline: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        check: false,
        json: false,
        run_interleave: false,
        root: None,
        baseline: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => opts.check = true,
            "--json" => opts.json = true,
            "--interleave" => opts.run_interleave = true,
            "--root" => {
                let value = args.next().ok_or("--root requires a path")?;
                opts.root = Some(PathBuf::from(value));
            }
            "--baseline" => {
                let value = args.next().ok_or("--baseline requires a file")?;
                opts.baseline = Some(PathBuf::from(value));
            }
            "--help" | "-h" => {
                println!(
                    "aqua-lint: project-specific static analysis\n\n\
                     USAGE: aqua-lint [--check] [--json] [--interleave] [--root PATH] [--baseline FILE]\n\n\
                     --check          exit non-zero when findings exist (CI mode)\n\
                     --json           emit findings as JSON\n\
                     --interleave     run the bounded interleaving checker instead of lints\n\
                     --root PATH      workspace root (default: discovered from this binary's manifest)\n\
                     --baseline FILE  suppress findings recorded in a previous --json report;\n\
                                      only new findings count (and fail --check)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("aqua-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if opts.run_interleave {
        return run_models(opts.json);
    }

    let root = opts
        .root
        .clone()
        .or_else(|| {
            // The manifest dir is crates/lint; the workspace root is above.
            find_workspace_root(&PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."))
        })
        .or_else(|| {
            std::env::current_dir()
                .ok()
                .and_then(|d| find_workspace_root(&d))
        });
    let Some(root) = root else {
        eprintln!("aqua-lint: could not locate the workspace root (try --root)");
        return ExitCode::from(2);
    };

    let mut report = match run_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("aqua-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let mut suppressed = 0usize;
    if let Some(path) = &opts.baseline {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("aqua-lint: reading baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        suppressed = report.apply_baseline(&parse_baseline(&text));
    }

    if opts.json {
        println!("{}", report.to_json());
    } else {
        for f in &report.findings {
            println!("{f}");
        }
        let counts = report.counts();
        let summary: Vec<String> = counts.iter().map(|(r, n)| format!("{r}={n}")).collect();
        let baselined = if suppressed > 0 {
            format!(", {suppressed} baselined")
        } else {
            String::new()
        };
        println!(
            "aqua-lint: {} finding(s) in {} file(s), {} manifest(s){baselined} [{}]",
            report.findings.len(),
            report.files_scanned,
            report.manifests_audited,
            summary.join(" ")
        );
    }

    if opts.check && !report.findings.is_empty() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Explores every catalogue entry. Fails when an entry misses its pinned
/// schedule count, a shipped model fails, or a buggy variant is not
/// caught. Prints one line per shipped model, with its violations, and
/// one per variant.
fn run_models(json: bool) -> ExitCode {
    let results = interleave::run_all();
    let mut ok = true;
    if json {
        let mut out = String::from("{\n  \"models\": [");
        for (i, (entry, e)) in results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"variant\": {}, \"schedules\": {}, \"deadlocks\": {}, \"violations\": {}, \"passed\": {}, \"as_pinned\": {}}}",
                entry.name,
                entry.catches.is_some(),
                e.schedules,
                e.deadlocks,
                e.violations.len(),
                e.passed(),
                entry.check(e).is_ok()
            ));
        }
        out.push_str("\n  ]\n}");
        println!("{out}");
    }
    for (entry, e) in &results {
        let verdict = entry.check(e);
        if !json {
            match entry.catches {
                None => {
                    println!(
                        "model {}: {} schedules, {} deadlocks, {} violations — {}",
                        entry.name,
                        e.schedules,
                        e.deadlocks,
                        e.violations.len(),
                        if e.passed() { "PASS" } else { "FAIL" }
                    );
                    for (trace, msg) in &e.violations {
                        println!("  violation: {msg}");
                        println!("    trace: {}", trace.join(" -> "));
                    }
                }
                Some(text) => println!(
                    "variant {}: {} schedules, must be caught by {text:?} — {}",
                    entry.name,
                    e.schedules,
                    if verdict.is_ok() { "CAUGHT" } else { "MISSED" }
                ),
            }
            if let Err(why) = &verdict {
                println!("  pin: {why}");
            }
        }
        ok &= verdict.is_ok();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
