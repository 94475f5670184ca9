//! End-to-end checks of the `experiments` driver's exit status and of
//! when it writes E9's landscape JSON.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The committed full-mode E9 record at the repo root.
fn record() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_checker_landscape.json")
}

#[test]
fn csv_write_failure_fails_the_run() {
    // A path below a regular file can never be created as a directory.
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["e0", "--quick", "--csv", "/dev/null/sub"])
        .output()
        .expect("experiments binary runs");
    assert!(!out.status.success(), "exit status {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("failed to write"), "stderr: {stderr}");
}

#[test]
fn quick_e9_writes_only_the_named_json() {
    let json = std::env::temp_dir().join(format!("experiments-e9-{}.json", std::process::id()));
    let before = std::fs::read(record()).expect("the landscape record is committed");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["e9", "--quick", "--json"])
        .arg(&json)
        .output()
        .expect("experiments binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let written = std::fs::read_to_string(&json).expect("--json file written");
    std::fs::remove_file(&json).unwrap();
    assert!(written.contains("\"quick\": true"), "{written}");
    assert_eq!(std::fs::read(record()).unwrap(), before, "a quick run rewrote the record");
}

#[test]
fn json_without_e9_is_an_argument_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["e0", "--quick", "--json", "never-written.json"])
        .output()
        .expect("experiments binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--json") && stderr.contains("e9"), "stderr: {stderr}");
}
