//! Byte-exact golden outputs under `tests/golden/` at the repo root.
//!
//! A golden is what a seeded run prints, committed: a change that moves
//! one byte of it changed a plan. To accept a deliberate move, regenerate
//! the file with the command in its test and say why in the change.
//!
//! The simulator's plans read a modelled δ, never the host's clock, so
//! these hold on a loaded host too.

use std::path::Path;
use std::process::Command;

/// The stdout of the figure binary at `bin` run with `args`, which must
/// exit 0. No observability sink is attached.
fn run(bin: &str, args: &[&str]) -> Vec<u8> {
    let out = Command::new(bin)
        .args(args)
        .env_remove("AQUA_OBS")
        .output()
        .expect("the binary runs");
    assert!(
        out.status.success(),
        "{bin} {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// Asserts that `out`, printed by `command`, is `tests/golden/<name>`.
fn assert_golden(command: &str, out: &[u8], name: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    let expected = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(
        out == expected,
        "`{command}` moved from its golden:\n--- golden\n{}\n--- now\n{}",
        String::from_utf8_lossy(&expected),
        String::from_utf8_lossy(out)
    );
}

/// The simulator's `QueueScaled` path end to end: every plan publishes
/// one view, whose tables at queues of 2–5 sum over powers of `S`
/// refreshed from the view before. Regenerate with
/// `aqua_lab study queue_estimator 3 > tests/golden/queue_estimator.txt`.
#[test]
fn queue_estimator_study_matches_its_golden() {
    let out = run(
        env!("CARGO_BIN_EXE_aqua_lab"),
        &["study", "queue_estimator", "3"],
    );
    assert_golden(
        "aqua_lab study queue_estimator 3",
        &out,
        "queue_estimator.txt",
    );
}

/// Fig. 4, the replicas selected per deadline and `Pc`. Regenerate with
/// `fig4_selection 3 > tests/golden/fig4_selection.txt`.
#[test]
fn fig4_matches_its_golden() {
    let out = run(env!("CARGO_BIN_EXE_fig4_selection"), &["3"]);
    assert_golden("fig4_selection 3", &out, "fig4_selection.txt");
}

/// Fig. 5, the timing failures per deadline and `Pc`. Regenerate with
/// `fig5_failures 3 > tests/golden/fig5_failures.txt`.
#[test]
fn fig5_matches_its_golden() {
    let out = run(env!("CARGO_BIN_EXE_fig5_failures"), &["3"]);
    assert_golden("fig5_failures 3", &out, "fig5_failures.txt");
}

/// Every scheduled fault kind against the retry-armed client: crash
/// windows, pauses, delay spikes and drops. Regenerate with
/// `chaos_experiment --seed 7 > tests/golden/chaos_experiment.txt`.
#[test]
fn chaos_experiment_matches_its_golden() {
    let out = run(env!("CARGO_BIN_EXE_chaos_experiment"), &["--seed", "7"]);
    assert_golden("chaos_experiment --seed 7", &out, "chaos_experiment.txt");
}

/// Twelve clients on three replicas: the deepest replica queues of the
/// paper's scenarios (over 300 requests). Regenerate with
/// `aqua_lab study overload 3 > tests/golden/overload.txt`.
#[test]
fn overload_study_matches_its_golden() {
    let out = run(env!("CARGO_BIN_EXE_aqua_lab"), &["study", "overload", "3"]);
    assert_golden("aqua_lab study overload 3", &out, "overload.txt");
}
