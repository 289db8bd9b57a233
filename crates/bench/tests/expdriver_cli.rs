//! End-to-end tests of the `expdriver` command line: invalid shard specs
//! are rejected with the documented message, and a sweep SIGKILLed at any
//! point resumes from its checkpoint to the CSV of an uninterrupted run.
//!
//! These spawn the real `expdriver` binary (Cargo exposes its path via
//! `CARGO_BIN_EXE_expdriver`), so argument parsing, checkpoint flushing,
//! resume and CSV assembly are all under test.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::Duration;

fn expdriver() -> Command {
    Command::new(env!("CARGO_BIN_EXE_expdriver"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("tcrm-expdriver-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_success(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed (status {:?}):\n--- stderr ---\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn invalid_shard_specs_are_rejected_with_the_documented_message() {
    for (spec, needle) in [
        ("4/4", "count from zero"),
        ("4/4", "0..=3"),
        ("0/0", "at least 1"),
        ("nope", "--shard must be"),
    ] {
        let out = expdriver()
            .args(["sweep", "--policies", "edf", "--shard", spec])
            .output()
            .expect("spawn expdriver");
        assert!(
            !out.status.success(),
            "--shard {spec} must be rejected before any simulation"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(needle),
            "--shard {spec}: expected '{needle}' in:\n{stderr}"
        );
    }
}

/// 3 policies × 2 loads × 8 seeds = 48 cells: more than the 32-row
/// checkpoint flush cadence, so the first flush lands mid-sweep. Cells of
/// 800 jobs keep the sweep running long enough for the kill to land before
/// it finishes most of the time; the assertions hold either way.
const CELLS: usize = 48;

fn grid_args() -> Vec<String> {
    [
        "sweep",
        "--policies",
        "edf,fifo,sjf",
        "--loads",
        "0.7,0.9",
        "--seeds",
        "1,2,3,4,5,6,7,8",
        "--jobs",
        "800",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn sweep(flags: &[(&str, &Path)]) -> Output {
    let mut command = expdriver();
    command.args(grid_args());
    for (flag, path) in flags {
        command.arg(flag).arg(path);
    }
    command.output().expect("spawn expdriver")
}

/// Parse `sweep: <rows> rows (<resumed> resumed, <simulated> simulated)`.
fn row_counts(stderr: &str) -> (usize, usize, usize) {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("sweep: ") && l.contains(" resumed, "))
        .unwrap_or_else(|| panic!("no row-count line in:\n{stderr}"));
    let numbers: Vec<usize> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().unwrap())
        .collect();
    assert_eq!(numbers.len(), 3, "unexpected row-count line: {line}");
    (numbers[0], numbers[1], numbers[2])
}

#[test]
fn sweep_killed_after_its_first_checkpoint_resumes_to_the_identical_csv() {
    let dir = temp_dir("kill-resume");
    let reference_csv = dir.join("reference.csv");
    let checkpoint = dir.join("checkpoint.json");
    let resumed_csv = dir.join("resumed.csv");

    let out = sweep(&[("--csv", &reference_csv)]);
    assert_success(&out, "uninterrupted sweep");

    // SIGKILL the sweep as soon as its checkpoint first exists. Checkpoints
    // are written to a temp file and renamed, so the file is whole whenever
    // it is visible; if the sweep finishes first, the kill is a no-op.
    let mut child = expdriver()
        .args(grid_args())
        .arg("--checkpoint")
        .arg(&checkpoint)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn expdriver");
    while !checkpoint.exists() && child.try_wait().unwrap().is_none() {
        std::thread::sleep(Duration::from_millis(1));
    }
    let _ = child.kill();
    child.wait().unwrap();
    assert!(checkpoint.exists(), "the sweep never wrote its checkpoint");

    let out = sweep(&[("--checkpoint", &checkpoint), ("--csv", &resumed_csv)]);
    assert_success(&out, "resumed sweep");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let (rows, resumed, simulated) = row_counts(&stderr);
    assert_eq!(rows, CELLS, "{stderr}");
    assert_eq!(resumed + simulated, CELLS, "{stderr}");
    // The first flush holds 32 rows, so the rerun resumed at least those.
    assert!(resumed >= 32, "checkpoint rows were not resumed:\n{stderr}");

    let reference = std::fs::read(&reference_csv).unwrap();
    let resumed_bytes = std::fs::read(&resumed_csv).unwrap();
    assert!(!reference.is_empty());
    assert_eq!(
        reference, resumed_bytes,
        "resumed CSV differs from the uninterrupted run:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
