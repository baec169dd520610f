//! `aqua_lab` refuses input it cannot honour, and `aqua_lab study` lists
//! and rejects studies by name.

use std::process::{Command, Output};

fn aqua_lab(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_aqua_lab"))
        .args(args)
        .output()
        .expect("aqua_lab runs")
}

#[test]
fn unhonourable_input_exits_2_naming_the_flag() {
    for (args, flag) in [
        (&["--window", "0"][..], "--window"),
        (&["--replicas", "0"], "--replicas"),
        (&["--crash", "9@1", "--replicas", "3"], "--crash"),
        (&["--bursty", "9"], "--bursty"),
        (&["--strategy", "random:x"], "--strategy"),
        (&["--strategy", "rr:0"], "--strategy"),
        (&["--strategy", "model:3"], "--strategy"),
        (&["--replicas", "many"], "--replicas"),
        (&["--frobnicate"], "--frobnicate"),
    ] {
        let out = aqua_lab(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not run");
    }
}

#[test]
fn unknown_study_exits_2() {
    let out = aqua_lab(&["study", "no_such_study"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no_such_study"));
}

#[test]
fn study_without_a_name_lists_every_study_with_its_id() {
    let out = aqua_lab(&["study"]);
    assert!(out.status.success());
    let listing = String::from_utf8_lossy(&out.stdout);
    for study in &aqua_bench::studies::STUDIES {
        assert!(
            listing
                .lines()
                .any(|l| l.split_whitespace().take(2).eq([study.name, study.id])),
            "{} ({}) missing from:\n{listing}",
            study.name,
            study.id
        );
    }
}

/// `--crash` is a crash-forever fault window, so an observed run journals
/// it as exactly one `crash` fault event, and the journal passes the
/// checks `aqua_forensics --check` makes.
#[test]
fn a_crash_is_journalled_once_and_passes_the_forensics_check() {
    let dir = std::env::temp_dir().join(format!("aqua-lab-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let obs = dir.to_str().expect("a UTF-8 path");
    let out = aqua_lab(&["--crash", "0@10", "--obs", obs]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");

    let journal = std::fs::read_to_string(dir.join("journal.jsonl")).expect("journal");
    let faults: Vec<&str> = journal
        .lines()
        .filter(|l| l.contains(r#""type":"fault""#))
        .collect();
    assert_eq!(faults.len(), 1, "{faults:?}");
    assert!(faults[0].contains(r#""kind":"crash""#), "{}", faults[0]);

    let forensics = aqua_trace::analyze(&aqua_trace::read_journal(&dir).expect("readable"));
    assert_eq!(forensics.bad_lines, 0, "every journal line parses");
    assert!(
        forensics.invariant_violations.is_empty(),
        "span-tree invariants hold: {:?}",
        forensics.invariant_violations
    );
    let _ = std::fs::remove_dir_all(&dir);
}
