//! End-to-end tests of `expdriver sweep --workers`: the multi-process
//! shared-memory sweep must produce output byte-identical to the
//! single-process sweep — including when a worker is killed mid-run — and
//! the CLI must reject invalid shard specs with the documented message.
//!
//! These spawn the real `expdriver` binary (Cargo exposes its path via
//! `CARGO_BIN_EXE_expdriver`), so the whole chain is under test: argument
//! parsing, plane creation, worker spawning, the steal/publish protocol,
//! crash detection and requeue, and CSV assembly.

use std::path::PathBuf;
use std::process::{Command, Output};

fn expdriver() -> Command {
    Command::new(env!("CARGO_BIN_EXE_expdriver"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tcrm-ipc-sweep-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The grid every test sweeps: 2 policies × 2 loads × 2 seeds = 8 cells,
/// small jobs so the whole binary round trip stays fast in debug builds.
fn sweep_args(csv: &std::path::Path) -> Vec<String> {
    [
        "sweep",
        "--policies",
        "edf,fifo",
        "--loads",
        "0.7,0.9",
        "--seeds",
        "1,2",
        "--jobs",
        "20",
        "--csv",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([csv.display().to_string()])
    .collect()
}

/// The chaos test's grid: [`sweep_args`] with cells of 800 jobs (tens of
/// milliseconds each in a debug build), so the targeted worker completes a
/// cell and is killed while the others still have work. At 20 jobs a whole
/// cell takes about a millisecond, and the survivors could finish the
/// sweep before the kill fires.
fn chaos_sweep_args(csv: &std::path::Path) -> Vec<String> {
    let mut args = sweep_args(csv);
    let jobs = args
        .iter()
        .position(|a| a == "--jobs")
        .expect("--jobs in the grid")
        + 1;
    args[jobs] = "800".into();
    args
}

fn run(args: &[String]) -> Output {
    expdriver().args(args).output().expect("spawn expdriver")
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
fn three_worker_sweep_matches_sequential_byte_for_byte() {
    let dir = temp_dir("clean");
    let seq_csv = dir.join("seq.csv");
    let par_csv = dir.join("par.csv");

    let out = run(&sweep_args(&seq_csv));
    assert_success(&out, "sequential sweep");

    // A tight heartbeat timeout rides along: workers beat from a sidecar
    // thread (every 50 ms), so even 1 s of parent patience must never
    // kill a healthy worker mid-cell.
    let mut args = sweep_args(&par_csv);
    args.extend([
        "--workers".into(),
        "3".into(),
        "--plane".into(),
        dir.join("plane.shm").display().to_string(),
        "--heartbeat-timeout".into(),
        "1".into(),
    ]);
    let out = run(&args);
    assert_success(&out, "3-worker sweep");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("heartbeat stale"),
        "healthy workers must not be killed under a tight timeout:\n{stderr}"
    );

    let seq = std::fs::read(&seq_csv).unwrap();
    let par = std::fs::read(&par_csv).unwrap();
    assert!(!seq.is_empty());
    assert_eq!(
        seq,
        par,
        "multi-process CSV differs from sequential:\n--- seq ---\n{}\n--- par ---\n{}",
        String::from_utf8_lossy(&seq),
        String::from_utf8_lossy(&par)
    );
    // The plane file is cleaned up after a successful sweep.
    assert!(!dir.join("plane.shm").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_worker_is_requeued_and_output_stays_identical() {
    let dir = temp_dir("chaos");
    let seq_csv = dir.join("seq.csv");
    let kill_csv = dir.join("kill.csv");

    let out = run(&chaos_sweep_args(&seq_csv));
    assert_success(&out, "sequential sweep");

    // SIGKILL worker 0 after its first completed cell: its in-flight cell
    // must be requeued and recomputed by a surviving worker.
    let mut args = chaos_sweep_args(&kill_csv);
    args.extend([
        "--workers".into(),
        "3".into(),
        "--plane".into(),
        dir.join("plane.shm").display().to_string(),
        "--kill-worker".into(),
        "0@1".into(),
    ]);
    let out = run(&args);
    assert_success(&out, "3-worker sweep with chaos kill");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("worker 0 crashed"),
        "parent must report the crash:\n{stderr}"
    );

    let seq = std::fs::read(&seq_csv).unwrap();
    let kill = std::fs::read(&kill_csv).unwrap();
    assert_eq!(
        seq, kill,
        "CSV after a worker kill differs from sequential:\n--- stderr ---\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
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

#[test]
fn workers_and_shard_are_mutually_exclusive() {
    let out = expdriver()
        .args([
            "sweep",
            "--policies",
            "edf",
            "--workers",
            "2",
            "--shard",
            "0/2",
        ])
        .output()
        .expect("spawn expdriver");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("mutually exclusive"),
        "unexpected stderr:\n{stderr}"
    );
}
