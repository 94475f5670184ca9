//! Integration tests for the `chasekit` command-line binary.

use std::io::Write as _;
use std::process::Command;

fn write_rules(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("chasekit-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

fn run(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_chasekit"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn classify_reports_class_and_per_rule_details() {
    let path = write_rules(
        "classify.rules",
        "person(X) -> hasFather(X, Y), person(Y). person(bob).",
    );
    let (stdout, _, code) = run(&["classify", path.to_str().unwrap()]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("class: simple-linear"));
    assert!(stdout.contains("multi-head"));
    assert!(stdout.contains("facts: 1"));
}

#[test]
fn decide_answers_for_both_variants() {
    let path = write_rules("decide.rules", "r(X, Y) -> r(X, Z).");
    let (stdout, _, code) = run(&["decide", path.to_str().unwrap(), "--variant", "so"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("TERMINATES"), "{stdout}");
    let (stdout, _, _) = run(&["decide", path.to_str().unwrap(), "--variant", "o"]);
    assert!(stdout.contains("DIVERGES"), "{stdout}");
}

#[test]
fn decide_restricted_uses_the_future_work_procedure() {
    let path = write_rules("restricted.rules", "p(X, Y) -> p(Y, Z).");
    let (stdout, _, code) =
        run(&["decide", path.to_str().unwrap(), "--variant", "restricted"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("Some(false)"), "{stdout}");
}

#[test]
fn chase_prints_the_result_instance() {
    let path = write_rules("chase.rules", "e(a, b). e(X, Y) -> t(Y, X).");
    let (stdout, _, code) = run(&["chase", path.to_str().unwrap()]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("saturated"));
    assert!(stdout.contains("t(b, a)"));
}

#[test]
fn chase_without_facts_uses_the_critical_instance() {
    let path = write_rules("crit-chase.rules", "p(X) -> q(X).");
    let (stdout, _, code) = run(&["chase", path.to_str().unwrap()]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("critical instance"));
    assert!(stdout.contains("q(\u{22c6}critical)"));
}

#[test]
fn conditions_prints_the_whole_ladder() {
    let path = write_rules("conds.rules", "p(X, Y) -> q(X, Y).");
    let (stdout, _, code) = run(&["conditions", path.to_str().unwrap()]);
    assert_eq!(code, Some(0));
    for line in ["weak acyclicity", "rich acyclicity", "joint acyclicity", "aGRD", "MFA"] {
        assert!(stdout.contains(line), "missing {line} in {stdout}");
    }
    assert!(!stdout.contains("false"), "copy rule satisfies every condition: {stdout}");
}

#[test]
fn critical_lists_the_combinations() {
    let path = write_rules("crit.rules", "e(X, a) -> e(a, X).");
    let (stdout, _, code) = run(&["critical", path.to_str().unwrap()]);
    assert_eq!(code, Some(0));
    // Constants {a, ⋆}: 4 combinations for the binary predicate.
    assert_eq!(stdout.lines().filter(|l| l.starts_with("e(")).count(), 4);
    let (std_out, _, _) = run(&["critical", path.to_str().unwrap(), "--standard"]);
    // Constants {a, 0, 1, ⋆}: 16 combinations plus 0(0) and 1(1).
    assert_eq!(std_out.lines().filter(|l| l.starts_with("e(")).count(), 16);
}

#[test]
fn parse_errors_are_reported_with_location() {
    let path = write_rules("broken.rules", "p(X -> q(X).");
    let (_, stderr, code) = run(&["decide", path.to_str().unwrap()]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("parse error"), "{stderr}");
}

#[test]
fn missing_file_and_bad_usage_fail_cleanly() {
    let (_, stderr, code) = run(&["decide", "/nonexistent/never.rules"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("cannot read"));
    let (_, stderr, code) = run(&["frobnicate"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("usage"));
}

#[test]
fn explain_shows_a_dangerous_cycle_for_linear_sets() {
    let path = write_rules("explain-linear.rules", "p(X, Y) -> p(Y, Z).");
    let (stdout, _, code) = run(&["explain", path.to_str().unwrap()]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("dangerous reachable cycle"), "{stdout}");
    assert!(stdout.contains("DIVERGES"), "{stdout}");
}

#[test]
fn explain_shows_a_pumping_certificate_for_guarded_sets() {
    let path = write_rules(
        "explain-guarded.rules",
        "r(X, Y), p(Y) -> r(Y, Z), p(Z).",
    );
    let (stdout, _, code) = run(&["explain", path.to_str().unwrap()]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("pumping certificate"), "{stdout}");
    assert!(stdout.contains("ancestor"), "{stdout}");
}

#[test]
fn explain_reports_termination_cleanly() {
    let path = write_rules("explain-term.rules", "p(X, Y) -> q(X, Y).");
    let (stdout, _, code) = run(&["explain", path.to_str().unwrap()]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("terminates on all databases"), "{stdout}");
}

#[test]
fn chase_writes_a_dot_file() {
    let path = write_rules("dot.rules", "p(a). p(X) -> q(X, Y).");
    let dot_path = std::env::temp_dir().join("chasekit-cli-tests").join("out.dot");
    let (stdout, _, code) = run(&[
        "chase",
        path.to_str().unwrap(),
        "--dot",
        dot_path.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("derivation DAG written"));
    let dot = std::fs::read_to_string(&dot_path).unwrap();
    assert!(dot.starts_with("digraph chase {"));
    assert!(dot.contains("q("));
}

#[test]
fn bad_variant_is_named_in_the_error() {
    let path = write_rules("bad-variant.rules", "p(X) -> q(X).");
    let (_, stderr, code) =
        run(&["chase", path.to_str().unwrap(), "--variant", "sideways"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--variant"), "{stderr}");
    assert!(stderr.contains("sideways"), "{stderr}");
}

#[test]
fn non_numeric_steps_is_named_in_the_error() {
    let path = write_rules("bad-steps.rules", "p(X) -> q(X).");
    let (_, stderr, code) = run(&["chase", path.to_str().unwrap(), "--steps", "many"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--steps"), "{stderr}");
    assert!(stderr.contains("many"), "{stderr}");
}

#[test]
fn flag_missing_its_value_is_named_in_the_error() {
    let path = write_rules("no-value.rules", "p(X) -> q(X).");
    let (_, stderr, code) = run(&["chase", path.to_str().unwrap(), "--timeout-ms"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--timeout-ms"), "{stderr}");
    assert!(stderr.contains("requires a value"), "{stderr}");
}

#[test]
fn unknown_command_is_named_in_the_error() {
    let (_, stderr, code) = run(&["frobnicate", "whatever.rules"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("frobnicate"), "{stderr}");
}

#[test]
fn exhausted_step_budget_exits_10() {
    let path = write_rules("diverge.rules", "p(a, b). p(X, Y) -> p(Y, Z).");
    let (stdout, _, code) = run(&["chase", path.to_str().unwrap(), "--steps", "25"]);
    assert_eq!(code, Some(10), "{stdout}");
    assert!(stdout.contains("applications"), "{stdout}");
}

#[test]
fn wall_clock_deadline_exits_12() {
    let path = write_rules("timeout.rules", "p(a, b). p(X, Y) -> p(Y, Z).");
    let (stdout, _, code) = run(&[
        "chase",
        path.to_str().unwrap(),
        "--steps",
        "100000000",
        "--timeout-ms",
        "30",
    ]);
    assert_eq!(code, Some(12), "{stdout}");
    assert!(stdout.contains("wall-clock"), "{stdout}");
}

#[test]
fn memory_ceiling_exits_13() {
    let path = write_rules("mem.rules", "p(a, b). p(X, Y) -> p(Y, Z).");
    let (stdout, _, code) = run(&[
        "chase",
        path.to_str().unwrap(),
        "--steps",
        "100000000",
        "--max-atoms-mem",
        "20000",
    ]);
    assert_eq!(code, Some(13), "{stdout}");
    assert!(stdout.contains("memory"), "{stdout}");
}

/// `--threads N` is an accepted no-op: the chase has one sequential run
/// loop, so any count prints exactly what the run without the flag
/// prints.
#[test]
fn threaded_chase_output_is_identical_to_the_sequential_default() {
    let path = write_rules(
        "threads-eq.rules",
        "e(a, b). e(X, Y) -> e(Y, Z). e(X, Y) -> f(Y, W). f(X, Y) -> e(Y, Z).",
    );
    let rules = path.to_str().unwrap();
    let (seq_out, _, seq_code) = run(&["chase", rules, "--steps", "120"]);
    assert_eq!(seq_code, Some(10), "{seq_out}");
    for threads in ["1", "2", "4", "8"] {
        let (par_out, _, par_code) = run(&["chase", rules, "--steps", "120", "--threads", threads]);
        assert_eq!(par_code, seq_code, "--threads {threads}");
        // The whole printed report — outcome line, counters, and every
        // atom with its null numbering — must match byte for byte.
        assert_eq!(par_out, seq_out, "--threads {threads}");
    }
}

/// `--threads 0` (once "one worker per core") is accepted like any other
/// count and prints what the run without the flag prints; the value is
/// still validated as a number, and `serve --workers` likewise.
#[test]
fn threads_zero_auto_detects_and_garbage_is_a_named_error() {
    let path = write_rules(
        "threads-auto.rules",
        "e(a, b). e(X, Y) -> e(Y, Z). e(X, Y) -> f(Y, W). f(X, Y) -> e(Y, Z).",
    );
    let rules = path.to_str().unwrap();
    let (seq_out, _, seq_code) = run(&["chase", rules, "--steps", "120"]);
    let (auto_out, _, auto_code) = run(&["chase", rules, "--steps", "120", "--threads", "0"]);
    assert_eq!(auto_code, seq_code, "{auto_out}");
    assert_eq!(auto_out, seq_out);
    // Garbage values still produce a named argument error, not a panic.
    let (_, stderr, code) = run(&["chase", rules, "--threads", "lots"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("`--threads`"), "{stderr}");
    assert!(stderr.contains("`lots`"), "{stderr}");
    let (_, stderr, code) = run(&["serve", "--store", "/tmp/never", "--workers", "-3"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("`--workers`"), "{stderr}");
}

#[test]
fn threaded_chase_keeps_the_exit_code_contract() {
    let diverging = write_rules("threads-codes.rules", "p(a, b). p(X, Y) -> p(Y, Z).");
    let saturating = write_rules("threads-sat.rules", "e(a, b). e(X, Y) -> t(Y, X).");

    let (stdout, _, code) =
        run(&["chase", saturating.to_str().unwrap(), "--threads", "4"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("saturated"), "{stdout}");

    let (stdout, _, code) =
        run(&["chase", diverging.to_str().unwrap(), "--steps", "25", "--threads", "4"]);
    assert_eq!(code, Some(10), "{stdout}");

    let (stdout, _, code) = run(&[
        "chase",
        diverging.to_str().unwrap(),
        "--steps",
        "100000000",
        "--timeout-ms",
        "30",
        "--threads",
        "4",
    ]);
    assert_eq!(code, Some(12), "{stdout}");

    let (stdout, _, code) = run(&[
        "chase",
        diverging.to_str().unwrap(),
        "--steps",
        "100000000",
        "--max-atoms-mem",
        "20000",
        "--threads",
        "4",
    ]);
    assert_eq!(code, Some(13), "{stdout}");
}

#[test]
fn checkpoint_written_sequentially_resumes_under_threads_and_vice_versa() {
    let rules = "p(a, b). p(X, Y) -> p(Y, Z).";
    let path = write_rules("ckpt-threads.rules", rules);
    let ckpt = std::env::temp_dir().join("chasekit-cli-tests").join("threads.ckpt");
    let _ = std::fs::remove_file(&ckpt);

    // A leg without the flag writes the checkpoint; a `--threads` leg
    // resumes it.
    let (_, _, code) = run(&[
        "chase",
        path.to_str().unwrap(),
        "--steps",
        "30",
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(10));
    let (resumed_out, _, code) = run(&[
        "chase",
        path.to_str().unwrap(),
        "--steps",
        "60",
        "--threads",
        "4",
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(10), "{resumed_out}");
    assert!(resumed_out.contains("resuming from checkpoint"), "{resumed_out}");

    // And back: the `--threads` leg's checkpoint resumes without it.
    let (final_out, _, code) = run(&[
        "chase",
        path.to_str().unwrap(),
        "--steps",
        "90",
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(10), "{final_out}");

    // The three-leg relay lands exactly where a straight 90-step run does.
    let (straight_out, _, _) = run(&["chase", path.to_str().unwrap(), "--steps", "90"]);
    let atoms = |s: &str| -> Vec<String> {
        s.lines().filter(|l| l.starts_with("p(")).map(|l| l.to_string()).collect()
    };
    assert_eq!(atoms(&final_out), atoms(&straight_out));
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn checkpointed_run_resumes_and_matches_a_straight_run() {
    let rules = "p(a, b). p(X, Y) -> p(Y, Z).";
    let path = write_rules("ckpt.rules", rules);
    let ckpt = std::env::temp_dir().join("chasekit-cli-tests").join("run.ckpt");
    let _ = std::fs::remove_file(&ckpt);

    // Interrupted run: 30 steps, parked in the checkpoint.
    let (stdout, _, code) = run(&[
        "chase",
        path.to_str().unwrap(),
        "--steps",
        "30",
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(10), "{stdout}");
    assert!(stdout.contains("checkpoint written"), "{stdout}");
    assert!(ckpt.exists());

    // Second leg: another 30 steps on top of the checkpoint = 60 total.
    let (resumed_out, _, code) = run(&[
        "chase",
        path.to_str().unwrap(),
        "--steps",
        "60",
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(10), "{resumed_out}");
    assert!(resumed_out.contains("resuming from checkpoint"), "{resumed_out}");

    // Straight-through run of 60 steps, no checkpointing.
    let (straight_out, _, _) = run(&["chase", path.to_str().unwrap(), "--steps", "60"]);

    // Identical instances: compare the printed atom lines.
    let atoms = |s: &str| -> Vec<String> {
        s.lines().filter(|l| l.starts_with("p(")).map(|l| l.to_string()).collect()
    };
    assert_eq!(atoms(&resumed_out), atoms(&straight_out));
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn saturating_run_removes_its_checkpoint() {
    let path = write_rules("ckpt-sat.rules", "e(a, b). e(X, Y) -> t(Y, X).");
    let ckpt = std::env::temp_dir().join("chasekit-cli-tests").join("sat.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let (stdout, _, code) = run(&[
        "chase",
        path.to_str().unwrap(),
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(!ckpt.exists(), "saturated run must not leave a checkpoint behind");
}

#[test]
fn checkpoint_with_dot_is_rejected_up_front() {
    let path = write_rules("ckpt-dot.rules", "p(X) -> q(X).");
    let (_, stderr, code) = run(&[
        "chase",
        path.to_str().unwrap(),
        "--checkpoint",
        "/tmp/x.ckpt",
        "--dot",
        "/tmp/x.dot",
    ]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--checkpoint"), "{stderr}");
}

#[test]
fn checkpoint_from_a_different_program_is_refused() {
    let rules_a = write_rules("ckpt-a.rules", "p(a, b). p(X, Y) -> p(Y, Z).");
    let rules_b = write_rules("ckpt-b.rules", "p(a, b). p(X, Y) -> p(X, Z).");
    let ckpt = std::env::temp_dir().join("chasekit-cli-tests").join("mismatch.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let (_, _, code) = run(&[
        "chase",
        rules_a.to_str().unwrap(),
        "--steps",
        "10",
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(10));
    let (_, stderr, code) = run(&[
        "chase",
        rules_b.to_str().unwrap(),
        "--steps",
        "10",
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("different program"), "{stderr}");
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn trace_flag_without_a_path_is_named_in_the_error() {
    let path = write_rules("trace-noval.rules", "p(X) -> q(X).");
    let (_, stderr, code) = run(&["chase", path.to_str().unwrap(), "--trace"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--trace"), "{stderr}");
    assert!(stderr.contains("requires a value"), "{stderr}");
}

#[test]
fn progress_zero_and_non_numeric_are_named_in_the_error() {
    let path = write_rules("progress-bad.rules", "p(X) -> q(X).");
    let (_, stderr, code) = run(&["chase", path.to_str().unwrap(), "--progress", "0"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--progress"), "{stderr}");
    assert!(stderr.contains("0"), "{stderr}");
    let (_, stderr, code) = run(&["chase", path.to_str().unwrap(), "--progress", "often"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--progress"), "{stderr}");
    assert!(stderr.contains("often"), "{stderr}");
}

#[test]
fn unwritable_trace_and_metrics_files_exit_1() {
    let path = write_rules("trace-unwritable.rules", "p(a). p(X) -> q(X).");
    let (_, stderr, code) = run(&[
        "chase",
        path.to_str().unwrap(),
        "--trace",
        "/nonexistent-dir/out.jsonl",
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("cannot create trace file"), "{stderr}");
    let (_, stderr, code) = run(&[
        "chase",
        path.to_str().unwrap(),
        "--metrics",
        "/nonexistent-dir/metrics.json",
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("cannot create metrics file"), "{stderr}");
}

#[test]
fn traced_chase_output_is_identical_to_untraced() {
    let path = write_rules(
        "trace-free.rules",
        "e(a, b). e(X, Y) -> e(Y, Z). e(X, Y) -> f(Y, W). f(X, Y) -> e(Y, Z).",
    );
    let trace = std::env::temp_dir().join("chasekit-cli-tests").join("free.jsonl");
    let (plain_out, _, plain_code) =
        run(&["chase", path.to_str().unwrap(), "--steps", "80"]);
    let (traced_out, _, traced_code) = run(&[
        "chase",
        path.to_str().unwrap(),
        "--steps",
        "80",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(traced_code, plain_code);
    // Tracing must not perturb the run: the whole printed report —
    // outcome counters and every atom — matches byte for byte.
    assert_eq!(traced_out, plain_out);
    let text = std::fs::read_to_string(&trace).unwrap();
    for line in text.lines() {
        chasekit::engine::validate_trace_line(line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
    }
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn metrics_file_reconciles_with_the_printed_outcome() {
    let path = write_rules("metrics.rules", "p(a, b). p(X, Y) -> p(Y, Z).");
    let metrics = std::env::temp_dir().join("chasekit-cli-tests").join("metrics.json");
    let (stdout, _, code) = run(&[
        "chase",
        path.to_str().unwrap(),
        "--steps",
        "25",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(10), "{stdout}");
    assert!(stdout.contains("metrics written"), "{stdout}");
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.contains("\"chase.applications\": 25"), "{json}");
    assert!(json.contains("\"stops.applications\": 1"), "{json}");
    assert!(json.contains("\"per_rule\""), "{json}");
    assert!(json.contains("p(X, Y) -> p(Y, Z)."), "{json}");
    let _ = std::fs::remove_file(&metrics);
}

/// The ISSUE's acceptance bar for `--trace` + `--checkpoint`: the traces
/// of an interrupted run and its resumed leg, concatenated, carry exactly
/// the core events (with the same contiguous sequence numbers) of one
/// straight run. Lifecycle records differ legitimately — the interrupted
/// leg has a mid-stream `stop` and `ckpt-write`, the resumed leg a
/// `ckpt-resume` — so the comparison filters to core events.
#[test]
fn trace_with_checkpoint_resume_is_contiguous_with_a_straight_run() {
    let rules = "p(a, b). p(X, Y) -> p(Y, Z).";
    let path = write_rules("trace-ckpt.rules", rules);
    let dir = std::env::temp_dir().join("chasekit-cli-tests");
    let ckpt = dir.join("trace.ckpt");
    let t_straight = dir.join("straight.jsonl");
    let t_leg1 = dir.join("leg1.jsonl");
    let t_leg2 = dir.join("leg2.jsonl");
    let _ = std::fs::remove_file(&ckpt);

    let (_, _, code) = run(&[
        "chase",
        path.to_str().unwrap(),
        "--steps",
        "60",
        "--trace",
        t_straight.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(10));

    let (_, _, code) = run(&[
        "chase",
        path.to_str().unwrap(),
        "--steps",
        "30",
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--trace",
        t_leg1.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(10));
    let (stdout, _, code) = run(&[
        "chase",
        path.to_str().unwrap(),
        "--steps",
        "60",
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--trace",
        t_leg2.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(10), "{stdout}");
    assert!(stdout.contains("resuming from checkpoint"), "{stdout}");

    let core_lines = |path: &std::path::Path| -> Vec<String> {
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .filter(|line| {
                let kind = chasekit::engine::validate_trace_line(line)
                    .unwrap_or_else(|e| panic!("`{line}`: {e}"));
                !matches!(kind, "stop" | "ckpt-write" | "ckpt-resume")
            })
            .map(str::to_string)
            .collect()
    };
    let mut relay = core_lines(&t_leg1);
    relay.extend(core_lines(&t_leg2));
    assert_eq!(relay, core_lines(&t_straight));

    // The lifecycle records are present where expected.
    let leg1 = std::fs::read_to_string(&t_leg1).unwrap();
    assert!(leg1.contains("\"ev\":\"ckpt-write\""), "{leg1}");
    let leg2 = std::fs::read_to_string(&t_leg2).unwrap();
    assert!(leg2.starts_with("{\"seq\":"), "{leg2}");
    assert!(leg2.contains("\"ev\":\"ckpt-resume\""), "{leg2}");

    for f in [&ckpt, &t_straight, &t_leg1, &t_leg2] {
        let _ = std::fs::remove_file(f);
    }
}

fn run_env(args: &[&str], env: &[(&str, &str)]) -> (String, String, Option<i32>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_chasekit"));
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

/// The flags the retired write-ahead journal took (name without the
/// leading `--`, and a value if it took one). Each is now an unknown flag.
const RETIRED_FLAGS: [(&str, Option<&str>); 3] =
    [("journal", Some("/tmp/x.journal")), ("recover", None), ("journal-flush-every", Some("4"))];

#[test]
fn journal_flags_are_validated_up_front() {
    // The name is kept from the journal flags this test used to validate;
    // those flags are gone, and naming one is an unknown-flag error.
    let path = write_rules("journal-flags.rules", "p(a, b). p(X, Y) -> p(Y, Z).");
    let rules = path.to_str().unwrap();
    for (name, value) in RETIRED_FLAGS {
        let flag = format!("--{name}");
        let mut argv = vec!["chase", rules, "--checkpoint", "/tmp/x.ckpt", &flag];
        argv.extend(value);
        let (_, stderr, code) = run(&argv);
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert!(stderr.contains(&format!("unknown flag `{flag}`")), "{stderr}");
    }
    // --checkpoint-every needs --checkpoint and a positive count.
    let (_, stderr, code) = run(&["chase", rules, "--checkpoint-every", "50"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--checkpoint-every"), "{stderr}");
    let (_, stderr, code) = run(&[
        "chase", rules, "--checkpoint", "/tmp/x.ckpt", "--checkpoint-every", "0",
    ]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--checkpoint-every"), "{stderr}");
    assert!(stderr.contains("0"), "{stderr}");
}

#[test]
fn malformed_failpoint_spec_is_named_in_the_error() {
    let path = write_rules("failpoint-bad.rules", "p(X) -> q(X).");
    let (_, stderr, code) = run_env(
        &["chase", path.to_str().unwrap()],
        &[("CHASEKIT_FAILPOINTS", "no-such-point=error")],
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("CHASEKIT_FAILPOINTS"), "{stderr}");
    assert!(stderr.contains("no-such-point"), "{stderr}");
}

#[test]
fn journal_write_failure_exits_15_with_the_state_preserved() {
    // The name is kept from the journal; the durability write that fails
    // is now the second periodic snapshot publication.
    let path = write_rules("journal-io.rules", "p(a, b). p(X, Y) -> p(Y, Z).");
    let rules = path.to_str().unwrap();
    let ckpt = std::env::temp_dir().join("chasekit-cli-tests").join("io15.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let args = ["chase", rules, "--steps", "50", "--checkpoint", ckpt.to_str().unwrap()];
    let (stdout, stderr, code) = run_env(
        &[&args[..], &["--checkpoint-every", "10"]].concat(),
        &[("CHASEKIT_FAILPOINTS", "snapshot.write=error@2")],
    );
    assert_eq!(code, Some(15), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stderr.contains("cannot write checkpoint"), "{stderr}");
    assert!(stderr.contains("snapshot.write"), "{stderr}");
    assert!(stdout.contains("outcome: io after 20 applications"), "{stdout}");
    // Leg 1's checkpoint is intact and resumes into the same result as a
    // straight run.
    let (resumed, _, code) = run(&args);
    assert_eq!(code, Some(10), "{resumed}");
    assert!(resumed.contains("(resuming from checkpoint: 10 applications"), "{resumed}");
    let (straight, _, _) = run(&["chase", rules, "--steps", "50"]);
    let atoms = |s: &str| -> Vec<String> {
        s.lines().filter(|l| l.starts_with("p(")).map(|l| l.to_string()).collect()
    };
    assert_eq!(atoms(&resumed), atoms(&straight));
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn recovery_reports_replayed_records_and_exits_3() {
    // The name is kept from `--recover`, which is gone: recovering a killed
    // run is rerunning the same command. It reports where it resumed and
    // ends bit-identical to a straight run.
    let path = write_rules("recover-report.rules", "p(a, b). p(X, Y) -> p(Y, Z).");
    let rules = path.to_str().unwrap();
    let dir = std::env::temp_dir().join("chasekit-cli-tests");
    let ckpt = dir.join("report.ckpt");
    let reference = dir.join("report-ref.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&reference);
    let args = [
        "chase", rules, "--steps", "60",
        "--checkpoint", ckpt.to_str().unwrap(),
        "--checkpoint-every", "20",
    ];

    // Simulated kill while publishing the second periodic snapshot: leg 1
    // (20 applications) is on disk, leg 2 never landed.
    let (_, _, code) = run_env(&args, &[("CHASEKIT_FAILPOINTS", "snapshot.rename=exit:9@2")]);
    assert_eq!(code, Some(9));
    assert!(ckpt.exists());

    let (stdout, stderr, code) = run(&args);
    assert_eq!(code, Some(10), "stdout: {stdout}\nstderr: {stderr}");
    assert!(
        stdout.contains("(resuming from checkpoint: 20 applications, 21 atoms, 1 pending)"),
        "{stdout}"
    );
    assert!(stdout.contains("outcome: applications after 60 applications"), "{stdout}");

    let (_, _, code) =
        run(&["chase", rules, "--steps", "60", "--checkpoint", reference.to_str().unwrap()]);
    assert_eq!(code, Some(10));
    assert_eq!(
        std::fs::read_to_string(&ckpt).unwrap(),
        std::fs::read_to_string(&reference).unwrap()
    );
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&reference);
}

#[test]
fn saturating_journaled_run_removes_both_files() {
    // The name is kept from the journal; the two files are now the
    // checkpoint and the `.tmp` a torn publication left beside it.
    let path = write_rules("journal-sat.rules", "e(a, b). e(X, Y) -> t(Y, X).");
    let rules = path.to_str().unwrap();
    let dir = std::env::temp_dir().join("chasekit-cli-tests");
    let ckpt = dir.join("jsat.ckpt");
    let tmp = dir.join("jsat.ckpt.tmp");
    let _ = std::fs::remove_file(&ckpt);
    // Park the run before its only application, then plant a torn tmp.
    let (_, _, code) = run(&["chase", rules, "--steps", "0", "--checkpoint", ckpt.to_str().unwrap()]);
    assert_eq!(code, Some(10));
    std::fs::write(&tmp, "torn").unwrap();
    let (stdout, _, code) = run(&["chase", rules, "--checkpoint", ckpt.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("checkpoint"), "{stdout}");
    assert!(!ckpt.exists(), "saturation leaves no checkpoint");
    assert!(!tmp.exists(), "saturation leaves no torn temporary file");
}

#[test]
fn conditions_reports_checker_work_counts() {
    let path = write_rules("conds-work.rules", "p(X, Y) -> p(Y, Z).");
    let (stdout, _, code) = run(&["conditions", path.to_str().unwrap()]);
    assert_eq!(code, Some(0));
    // WA graph of Example 2: 2 nodes, 2 edges, 1 special.
    assert!(stdout.contains("[2 nodes, 2 edges, 1 special]"), "{stdout}");
    // RA (extended) graph adds one special edge.
    assert!(stdout.contains("[2 nodes, 3 edges, 2 special]"), "{stdout}");
    // MFA reports how far the critical-instance chase ran.
    assert!(stdout.contains("applications,"), "{stdout}");
}

#[test]
fn serve_and_flush_flags_are_validated_up_front() {
    let path = write_rules("serve-flags.rules", "p(a, b). p(X, Y) -> p(Y, Z).");
    let rules = path.to_str().unwrap();
    // serve needs a store.
    let (_, stderr, code) = run(&["serve"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--store"), "{stderr}");
    // ... and a store means serve.
    let (_, stderr, code) = run(&["chase", rules, "--store", "/tmp/nope"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--store"), "{stderr}");
    // The journal's group-commit flag is gone: naming it is an error.
    let (name, value) = RETIRED_FLAGS[2];
    let flag = format!("--{name}");
    let (_, stderr, code) = run(&["serve", "--store", "/tmp/nope", &flag, value.unwrap()]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains(&format!("unknown flag `{flag}`")), "{stderr}");
    // Zero is not a queue depth (`--workers 0` is valid: it means one
    // worker per available core).
    let (_, stderr, code) = run(&["serve", "--store", "/tmp/nope", "--queue", "0"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--queue"), "{stderr}");
    // A negative worker count is a named argument error.
    let (_, stderr, code) = run(&["serve", "--store", "/tmp/never", "--workers", "-3"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("`--workers`"), "{stderr}");
}

#[test]
fn final_checkpoint_write_failure_exits_15_with_a_named_error() {
    let path = write_rules("final-io.rules", "p(a, b). p(X, Y) -> p(Y, Z).");
    let dir = std::env::temp_dir().join("chasekit-cli-tests");
    let ckpt = dir.join("final-io.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    // No periodic legs, so the only snapshot write is the final
    // budget-exhausted publication — and it fails.
    let (stdout, stderr, code) = run_env(
        &[
            "chase",
            path.to_str().unwrap(),
            "--steps",
            "30",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ],
        &[("CHASEKIT_FAILPOINTS", "snapshot.write=error@1")],
    );
    assert_eq!(code, Some(15), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stderr.contains("cannot write checkpoint"), "{stderr}");
    assert!(stderr.contains("snapshot.write"), "{stderr}");
    assert!(!ckpt.exists(), "a failed atomic publication leaves no checkpoint");
}

#[test]
fn recovery_publication_failure_exits_15() {
    let path = write_rules("recover-io.rules", "p(a, b). p(X, Y) -> p(Y, Z).");
    let rules = path.to_str().unwrap();
    let ckpt = std::env::temp_dir().join("chasekit-cli-tests").join("recover-io.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let args = [
        "chase", rules, "--steps", "60",
        "--checkpoint", ckpt.to_str().unwrap(),
        "--checkpoint-every", "20",
    ];
    // Kill a durable run after leg 1, then make the resumed run's first
    // publication fail: the rerun must surface the durability failure, not
    // claim success, and leg 1's snapshot must survive it.
    let (_, _, code) = run_env(&args, &[("CHASEKIT_FAILPOINTS", "snapshot.rename=exit:9@2")]);
    assert_eq!(code, Some(9));
    let (stdout, stderr, code) =
        run_env(&args, &[("CHASEKIT_FAILPOINTS", "snapshot.write=error@1")]);
    assert_eq!(code, Some(15), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("resuming from checkpoint: 20 applications"), "{stdout}");
    assert!(stderr.contains("snapshot.write"), "{stderr}");
    let (stdout, _, code) = run(&args);
    assert_eq!(code, Some(10), "{stdout}");
    assert!(stdout.contains("resuming from checkpoint: 20 applications"), "{stdout}");
    let _ = std::fs::remove_file(&ckpt);
}

/// Rewrites every null token (`_:n3`) of a printed atom through `f`.
fn map_nulls(atom: &str, mut f: impl FnMut(&str) -> String) -> String {
    let mut out = String::new();
    let mut rest = atom;
    while let Some(at) = rest.find("_:") {
        out.push_str(&rest[..at]);
        let len = rest[at + 2..]
            .find(|c: char| !c.is_ascii_alphanumeric())
            .unwrap_or(rest.len() - at - 2);
        out.push_str(&f(&rest[at..at + 2 + len]));
        rest = &rest[at + 2 + len..];
    }
    out + rest
}

/// The instance a `chase`/`update` run prints (the lines after its
/// `outcome:` line), up to null renaming: each null is named by its sorted
/// contexts (the atoms mentioning it, with it written `*` and every other
/// null `_`), then the atoms are sorted. Nulls with equal contexts keep a
/// tie, which can only make isomorphic instances compare unequal.
fn printed_instance_up_to_nulls(stdout: &str) -> Vec<String> {
    let atoms: Vec<&str> =
        stdout.lines().skip_while(|l| !l.starts_with("outcome:")).skip(1).collect();
    let mut names: Vec<String> = Vec::new();
    for atom in &atoms {
        map_nulls(atom, |n| {
            if !names.iter().any(|m| m == n) {
                names.push(n.to_string());
            }
            String::new()
        });
    }
    let mut ranked: Vec<(Vec<String>, String)> = names
        .into_iter()
        .map(|n| {
            let mut contexts: Vec<String> = atoms
                .iter()
                .map(|a| map_nulls(a, |m| if m == n { "*".into() } else { "_".into() }))
                .filter(|a| a.contains('*'))
                .collect();
            contexts.sort();
            (contexts, n)
        })
        .collect();
    ranked.sort();
    let mut canonical: Vec<String> = atoms
        .iter()
        .map(|a| map_nulls(a, |n| format!("#{}", ranked.iter().position(|(_, m)| m == n).unwrap())))
        .collect();
    canonical.sort();
    canonical
}

const UPDATE_RULES: &str = "% Every employee works in some department; managers are employees.
emp(ann). emp(bob). mgr(bob).
emp(X) -> worksIn(X, D).
worksIn(X, D) -> dept(D).
mgr(X) -> emp(X).
";

#[test]
fn update_prints_the_chase_of_the_edited_program() {
    let rules = write_rules("update.rules", UPDATE_RULES);
    let edits = write_rules("update.edits", "retract emp(ann).\nadd mgr(carl).\n");
    let edited = write_rules(
        "update-edited.rules",
        &UPDATE_RULES.replace("emp(ann). emp(bob). mgr(bob).", "emp(bob). mgr(bob). mgr(carl)."),
    );
    for variant in ["o", "so", "restricted"] {
        let (stdout, stderr, code) = run(&[
            "update",
            rules.to_str().unwrap(),
            "--edits",
            edits.to_str().unwrap(),
            "--variant",
            variant,
        ]);
        assert_eq!(code, Some(0), "stdout: {stdout}\nstderr: {stderr}");
        assert!(stdout.contains("edits: 1 adds (0 already present), 1 retracts (0 absent)"));
        let (rechase, _, code) =
            run(&["chase", edited.to_str().unwrap(), "--variant", variant]);
        assert_eq!(code, Some(0), "{rechase}");
        let repaired = printed_instance_up_to_nulls(&stdout);
        assert_eq!(repaired.len(), 8, "{stdout}");
        assert_eq!(repaired, printed_instance_up_to_nulls(&rechase), "{variant}");
        let (unedited, _, _) = run(&["chase", rules.to_str().unwrap(), "--variant", variant]);
        assert_ne!(repaired, printed_instance_up_to_nulls(&unedited), "{variant}");
    }
}

#[test]
fn update_without_edits_exits_2() {
    let rules = write_rules("update-noedits.rules", UPDATE_RULES);
    let (_, stderr, code) = run(&["update", rules.to_str().unwrap()]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--edits"), "{stderr}");
}

#[test]
fn update_bad_script_line_exits_1_naming_the_line() {
    let rules = write_rules("update-badscript.rules", UPDATE_RULES);
    let edits = write_rules("update-bad.edits", "retract emp(ann).\nfrobnicate emp(bob).\n");
    let (stdout, stderr, code) =
        run(&["update", rules.to_str().unwrap(), "--edits", edits.to_str().unwrap()]);
    assert_eq!(code, Some(1), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stderr.contains("line 2"), "{stderr}");
}

#[test]
fn update_rejects_guard_flags_it_cannot_honour() {
    let rules = write_rules("update-flags.rules", UPDATE_RULES);
    let edits = write_rules("update-flags.edits", "add mgr(carl).\n");
    for (flag, value) in
        [("--timeout-ms", "50"), ("--max-atoms-mem", "100000"), ("--progress", "1")]
    {
        let (stdout, stderr, code) = run(&[
            "update",
            rules.to_str().unwrap(),
            "--edits",
            edits.to_str().unwrap(),
            flag,
            value,
        ]);
        assert_eq!(code, Some(2), "{flag}: stdout: {stdout}\nstderr: {stderr}");
        assert!(stderr.contains(&format!("`{flag}`")), "{flag}: {stderr}");
        assert!(stdout.is_empty(), "{flag}: rejected before any chase work: {stdout}");
    }
}
