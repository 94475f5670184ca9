//! End-to-end checks of the `experiments` driver's exit status.

use std::process::Command;

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
