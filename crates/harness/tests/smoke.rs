//! Smoke tests of the harness binary. The harness is the one path that
//! regenerates the paper's figures, so every experiment must run at any
//! `--scale` and print well-formed CSV.

use std::collections::BTreeSet;
use std::process::{Command, Output};

/// Every experiment `harness all` runs, by the name its rows carry in
/// their first field.
const EXPERIMENTS: [&str; 18] = [
    "fig8a",
    "fig8b",
    "fig8c",
    "fig9a",
    "fig9b",
    "fig10",
    "fig11",
    "fig12",
    "fig13a",
    "fig13b",
    "fig14a",
    "fig14b",
    "fig15",
    "sec7f",
    "abl-order",
    "abl-negcache",
    "abl-par",
    "abl-lns",
];

fn harness(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_harness"));
    cmd.args(args);
    cmd
}

fn assert_clean_exit(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "harness exited {}: {stderr}",
        out.status
    );
    assert!(!stderr.contains("panicked"), "harness panicked: {stderr}");
}

#[test]
fn every_experiment_emits_well_formed_rows_at_a_tiny_scale() {
    let args = [
        "all",
        "--scale",
        "0.05",
        "--reps",
        "1",
        "--timeout-ms",
        "20",
    ];
    let out = harness(&args).output().expect("spawn harness");
    assert_clean_exit(&out);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");

    // `all` separates experiments by a blank line; each prints its CSV
    // header line (`experiment,…`) before its rows.
    let mut header_fields = None;
    let mut seen = BTreeSet::new();
    for line in stdout.lines() {
        if line.is_empty() {
            header_fields = None;
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields[0] == "experiment" {
            header_fields = Some(fields.len());
            continue;
        }
        let width = header_fields.unwrap_or_else(|| panic!("row before its header: {line}"));
        assert_eq!(fields.len(), width, "row and header disagree: {line}");
        seen.insert(fields[0]);
    }
    assert_eq!(seen, BTreeSet::from(EXPERIMENTS), "experiments with rows");
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let (reader, writer) = std::io::pipe().expect("create pipe");
    // No reader is left before the harness starts, so its first write
    // fails with a broken pipe.
    drop(reader);
    let args = ["abl-par", "--scale", "0.05", "--reps", "1"];
    let out = harness(&args)
        .stdout(writer)
        .output()
        .expect("spawn harness");
    assert_clean_exit(&out);
}
