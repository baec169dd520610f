//! Byte-exact golden outputs under `tests/golden/` at the repo root.
//!
//! A golden is what a seeded run prints, committed: a change that moves
//! one byte of it changed a plan. To accept a deliberate move, regenerate
//! the file with the command in its test and say why in the change.

use std::path::Path;
use std::process::Command;

/// `aqua_lab`'s stdout for `args`, which must exit 0.
fn aqua_lab(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_aqua_lab"))
        .args(args)
        .output()
        .expect("aqua_lab runs");
    assert!(
        out.status.success(),
        "aqua_lab {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn golden(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The simulator's `QueueScaled` path end to end: every plan publishes
/// one view, whose tables at queues of 2–5 sum over powers of `S`
/// refreshed from the view before. Regenerate with
/// `aqua_lab study queue_estimator 3 > tests/golden/queue_estimator.txt`.
#[test]
fn queue_estimator_study_matches_its_golden() {
    let out = aqua_lab(&["study", "queue_estimator", "3"]);
    let expected = golden("queue_estimator.txt");
    assert!(
        out == expected,
        "`aqua_lab study queue_estimator 3` moved from its golden:\n--- golden\n{}\n--- now\n{}",
        String::from_utf8_lossy(&expected),
        String::from_utf8_lossy(&out)
    );
}
