//! The paper bins print only simulated or analytic numbers, so a refactor
//! of admission or of the simulator must leave their stdout as it is.  Each
//! test runs one bin and compares its stdout, byte for byte, with
//! `tests/paper_output/<bin>.txt`.  The one wall-clock column, the
//! admission time in microseconds that ends each `feasibility_ablation`
//! row, is masked on both sides.
//!
//! To record a new golden file after a change that is meant to move a
//! number, run the bin in release mode and redirect its stdout there (for
//! `feasibility_ablation`, mask the last column of each row with
//! `sed -E 's/ +[0-9]+$/ <us>/'`).

use std::fs;
use std::path::Path;
use std::process::Command;

/// Run `exe` and return its stdout; a non-zero exit fails the test (every
/// bin asserts its own invariants).
fn stdout_of(exe: &str) -> String {
    let output = Command::new(exe).output().expect("the bin runs");
    assert!(
        output.status.success(),
        "{exe} exited with {}:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("stdout is UTF-8")
}

/// Replace a trailing run of digits after a space with ` <us>`.
fn mask_wall_clock(text: &str) -> String {
    text.lines()
        .map(|line| {
            let head = line.trim_end_matches(|c: char| c.is_ascii_digit());
            if head.len() < line.len() && head.ends_with(' ') {
                format!("{} <us>\n", head.trim_end_matches(' '))
            } else {
                format!("{line}\n")
            }
        })
        .collect()
}

/// Compare `actual` with the golden file of `bin`, naming the first line
/// that differs.
fn assert_golden(bin: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/paper_output")
        .join(format!("{bin}.txt"));
    let expected = fs::read_to_string(&path).expect("the golden file exists");
    if actual == expected {
        return;
    }
    let mut expected_lines = expected.lines();
    for (k, line) in actual.lines().enumerate() {
        let want = expected_lines.next();
        assert_eq!(
            Some(line),
            want,
            "{bin}: line {} differs from {}",
            k + 1,
            path.display()
        );
    }
    panic!(
        "{bin}: {} lines printed, {} holds {} (or the trailing newline differs)",
        actual.lines().count(),
        path.display(),
        expected.lines().count()
    );
}

#[test]
fn fig18_5_prints_its_golden_output() {
    assert_golden("fig18_5", &stdout_of(env!("CARGO_BIN_EXE_fig18_5")));
}

#[test]
#[ignore = "about 25 s in a debug build; CI runs it in release with --include-ignored"]
fn dps_ablation_prints_its_golden_output() {
    assert_golden(
        "dps_ablation",
        &stdout_of(env!("CARGO_BIN_EXE_dps_ablation")),
    );
}

#[test]
fn feasibility_ablation_prints_its_golden_output() {
    let out = stdout_of(env!("CARGO_BIN_EXE_feasibility_ablation"));
    assert_golden("feasibility_ablation", &mask_wall_clock(&out));
}

#[test]
fn delay_validation_prints_its_golden_output() {
    assert_golden(
        "delay_validation",
        &stdout_of(env!("CARGO_BIN_EXE_delay_validation")),
    );
}

#[test]
fn coexistence_prints_its_golden_output() {
    assert_golden("coexistence", &stdout_of(env!("CARGO_BIN_EXE_coexistence")));
}

#[test]
fn multiswitch_prints_its_golden_output() {
    assert_golden("multiswitch", &stdout_of(env!("CARGO_BIN_EXE_multiswitch")));
}

#[test]
fn the_mask_hides_only_a_trailing_number() {
    assert_eq!(
        mask_wall_clock("exact   40  3   17\nheader (us)\n a 12\n"),
        "exact   40  3 <us>\nheader (us)\n a <us>\n"
    );
}
