//! Golden-file snapshot tests of the JSONL trace schema.
//!
//! Fixed runs of the paper's Examples 1 and 2 under all three chase
//! variants must produce **byte-identical** trace files, committed under
//! `tests/golden/`. Any schema change shows up as a diff here (regenerate
//! deliberately with `UPDATE_GOLDEN=1 cargo test --test golden_trace`),
//! and every emitted line must pass the closed-schema validator — the
//! guard against silent drift.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use chasekit::engine::{validate_trace_line, ChaseConfig, ChaseMachine, JsonlSink};
use chasekit::prelude::*;

const VARIANTS: [(ChaseVariant, &str); 3] = [
    (ChaseVariant::Oblivious, "oblivious"),
    (ChaseVariant::SemiOblivious, "semi_oblivious"),
    (ChaseVariant::Restricted, "restricted"),
];

/// Paper Examples 1 and 2, seeded with their facts. Both diverge, so a
/// small application budget gives a stable, non-trivial event stream with
/// a deterministic `stop` record.
const EXAMPLES: [(&str, &str); 2] = [
    ("example1", "person(bob). person(X) -> hasFather(X, Y), person(Y)."),
    ("example2", "p(a, b). p(X, Y) -> p(Y, Z)."),
];

const BUDGET_APPLICATIONS: u64 = 12;

/// A `Write` target the test can read back after the sink (and the machine
/// owning it) is dropped.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn new() -> Self {
        SharedBuf(Arc::new(Mutex::new(Vec::new())))
    }

    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("traces are UTF-8")
    }
}

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs `text` under `variant` with a JSONL sink and returns the trace.
fn trace_of(text: &str, variant: ChaseVariant) -> String {
    let program = Program::parse(text).unwrap();
    let initial = Instance::from_atoms(program.facts().iter().cloned());
    let buf = SharedBuf::new();
    let sink = JsonlSink::new(buf.clone(), &program);
    let mut machine =
        ChaseMachine::new_with_trace(&program, ChaseConfig::of(variant), initial, Box::new(sink));
    machine.run(&Budget::applications(BUDGET_APPLICATIONS));
    buf.contents()
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

#[test]
fn golden_traces_are_byte_stable() {
    for (example, text) in EXAMPLES {
        for (variant, tag) in VARIANTS {
            let got = trace_of(text, variant);
            let path = golden_path(&format!("{example}_{tag}.jsonl"));
            if std::env::var("UPDATE_GOLDEN").is_ok() {
                std::fs::create_dir_all(path.parent().unwrap()).unwrap();
                std::fs::write(&path, &got).unwrap();
            }
            let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "missing golden file {path:?} ({e}); regenerate with \
                     UPDATE_GOLDEN=1 cargo test --test golden_trace"
                )
            });
            assert_eq!(
                got, want,
                "trace drift for {example} under {variant:?}; if intentional, \
                 regenerate with UPDATE_GOLDEN=1"
            );
        }
    }
}

#[test]
fn golden_traces_pass_the_closed_schema() {
    for (example, text) in EXAMPLES {
        for (variant, _) in VARIANTS {
            let trace = trace_of(text, variant);
            assert!(!trace.is_empty(), "{example} {variant:?} produced no events");
            for line in trace.lines() {
                validate_trace_line(line)
                    .unwrap_or_else(|e| panic!("{example} {variant:?}: `{line}`: {e}"));
            }
            // The stream must end with the lifecycle stop record.
            let last = trace.lines().last().unwrap();
            assert_eq!(validate_trace_line(last).unwrap(), "stop", "{example} {variant:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// The incremental-update scenario.
// ---------------------------------------------------------------------------

/// A program where a retraction exercises every update event: the cone of
/// `p(a)` is overdeleted, `q(a)` is restored (it is also a base fact), and
/// the added root `p(c)` re-fires the rules.
const UPDATE_PROGRAM: &str = "p(X) -> q(X). q(X) -> e(X, Y). p(a). p(b). q(a).";
const UPDATE_SCRIPT: &str = "% swap one root for another\nretract p(a).\nadd p(c).";

/// Runs the update scenario — a derivation-tracked chase to saturation,
/// then the edit script — returning the trace (empty when untraced) plus
/// the machine's observable end state: Skolem-canonical instance+DAG
/// rendering, stats, and the raw DAG debug form.
fn update_run(variant: ChaseVariant, traced: bool) -> (String, Vec<String>, String, String) {
    let mut program = Program::parse(UPDATE_PROGRAM).unwrap();
    let edits = chasekit::engine::parse_edit_script(UPDATE_SCRIPT, &mut program).unwrap();
    let initial = Instance::from_atoms(program.facts().iter().cloned());
    let cfg = ChaseConfig::of(variant).with_derivation();
    let buf = SharedBuf::new();
    let mut machine = if traced {
        let sink = JsonlSink::new(buf.clone(), &program);
        ChaseMachine::new_with_trace(&program, cfg, initial, Box::new(sink))
    } else {
        ChaseMachine::new(&program, cfg, initial)
    };
    let budget = Budget::applications(100);
    machine.run(&budget);
    machine.apply_edits(&edits, &budget).unwrap();
    machine.flush_trace();
    let canonical = chasekit::engine::canonical_form(machine.instance(), machine.derivation());
    let stats = format!("{:?}", machine.stats());
    let dag = format!("{:?}", machine.derivation());
    (buf.contents(), canonical, stats, dag)
}

#[test]
fn golden_update_traces_are_byte_stable_and_schema_valid() {
    for (variant, tag) in VARIANTS {
        let (trace, ..) = update_run(variant, true);
        let kinds: Vec<&str> = trace
            .lines()
            .map(|l| validate_trace_line(l).unwrap_or_else(|e| panic!("{tag}: `{l}`: {e}")))
            .collect();
        for kind in ["retract", "rederive", "edit"] {
            assert!(kinds.contains(&kind), "{tag}: no `{kind}` event in:\n{trace}");
        }
        let path = golden_path(&format!("update_{tag}.jsonl"));
        if std::env::var("UPDATE_GOLDEN").is_ok() {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &trace).unwrap();
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {path:?} ({e}); regenerate with \
                 UPDATE_GOLDEN=1 cargo test --test golden_trace"
            )
        });
        assert_eq!(
            trace, want,
            "update trace drift under {variant:?}; if intentional, \
             regenerate with UPDATE_GOLDEN=1"
        );
    }
}

/// Tracing must be a pure observer: the updated machine's instance, DAG,
/// and stats are identical with and without a sink attached.
#[test]
fn update_run_is_unchanged_by_tracing() {
    for (variant, tag) in VARIANTS {
        let (_, canon_t, stats_t, dag_t) = update_run(variant, true);
        let (trace, canon_u, stats_u, dag_u) = update_run(variant, false);
        assert!(trace.is_empty());
        assert_eq!(canon_t, canon_u, "{tag}: instance differs under tracing");
        assert_eq!(stats_t, stats_u, "{tag}: stats differ under tracing");
        assert_eq!(dag_t, dag_u, "{tag}: derivation DAG differs under tracing");
    }
}

/// Core sequence numbers are dense: line `k`'s `"seq"` field counts the
/// core events before it, with lifecycle records reusing the current
/// number. Parses the golden runs rather than trusting the writer.
#[test]
fn sequence_numbers_are_contiguous() {
    for (example, text) in EXAMPLES {
        for (variant, _) in VARIANTS {
            let trace = trace_of(text, variant);
            let mut expected = 0u64;
            for line in trace.lines() {
                let kind = validate_trace_line(line).unwrap();
                let seq: u64 = line
                    .split("\"seq\":")
                    .nth(1)
                    .and_then(|r| r.split([',', '}']).next())
                    .and_then(|d| d.parse().ok())
                    .unwrap();
                assert_eq!(seq, expected, "{example} {variant:?}: `{line}`");
                if !matches!(kind, "stop" | "ckpt-write" | "ckpt-resume") {
                    expected += 1;
                }
            }
        }
    }
}
