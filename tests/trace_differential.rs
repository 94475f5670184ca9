//! Differential testing of the observability layer: tracing must be
//! **observationally free**.
//!
//! A traced run and an untraced run must be bit-identical — same
//! checkpoint text (instance, queue, identity set, RNG, stats), same stop
//! reason — over the full datagen corpus and 50 proptest-generated
//! programs. And the metrics registry must reconcile exactly
//! with [`ChaseStats`] and with the trace event stream, including under
//! random scheduling and on a 2000-seed population of random guarded
//! programs.
//!
//! [`ChaseStats`]: chasekit::engine::ChaseStats

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use chasekit::datagen::{random_guarded, RandomConfig};
use chasekit::engine::{
    validate_trace_line, ChaseConfig, ChaseMachine, ChaseStats, JsonlSink, MetricsRegistry,
    MetricsSink, MultiSink, TraceSink,
};
use chasekit::prelude::*;

const VARIANTS: [ChaseVariant; 3] =
    [ChaseVariant::Oblivious, ChaseVariant::SemiOblivious, ChaseVariant::Restricted];

/// The chase's initial instance for a program: its facts, or the critical
/// instance when it carries none.
fn seed(program: &mut Program) -> Instance {
    if program.facts().is_empty() {
        CriticalInstance::build(program).instance
    } else {
        Instance::from_atoms(program.facts().iter().cloned())
    }
}

fn state_text(m: &ChaseMachine<'_>) -> String {
    m.snapshot().to_text().expect("untracked runs serialize")
}

/// A `Write` target readable after the owning machine is dropped.
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

/// Runs the untraced oracle, then the same run traced, asserting
/// bit-identity of state. Returns the trace for further checks.
fn assert_tracing_is_free(
    label: &str,
    program: &Program,
    initial: &Instance,
    variant: ChaseVariant,
    budget: &Budget,
) -> String {
    let cfg = ChaseConfig::of(variant);
    let mut plain = ChaseMachine::new(program, cfg, initial.clone());
    let stop = plain.run(budget);
    let text = state_text(&plain);
    let stats = plain.stats().clone();

    let buf = SharedBuf::new();
    let sink = JsonlSink::new(buf.clone(), program);
    let mut traced = ChaseMachine::new_with_trace(program, cfg, initial.clone(), Box::new(sink));
    assert_eq!(stop, traced.run(budget), "{label}: {variant:?} stop");
    assert_eq!(text, state_text(&traced), "{label}: {variant:?} traced state diverged");
    assert_eq!(&stats, traced.stats(), "{label}: {variant:?} stats");
    buf.contents()
}

/// Counts core-event kinds in a trace and checks them against the stats —
/// the trace-stream side of the reconciliation triangle.
fn assert_trace_matches_stats(label: &str, trace: &str, stats: &ChaseStats) {
    let mut applies = 0u64;
    let mut atoms = 0u64;
    let mut admits = 0u64;
    let mut dedups = 0u64;
    let mut skips = 0u64;
    for line in trace.lines() {
        match validate_trace_line(line).unwrap_or_else(|e| panic!("{label}: `{line}`: {e}")) {
            "apply" => applies += 1,
            "atom" => atoms += 1,
            "admit" => admits += 1,
            "dedup" => dedups += 1,
            "skip" => skips += 1,
            _ => {}
        }
    }
    assert_eq!(applies, stats.applications, "{label}: apply events");
    assert_eq!(atoms, stats.atoms_added, "{label}: atom events");
    assert_eq!(admits, stats.triggers_enqueued, "{label}: admit events");
    assert_eq!(dedups, stats.triggers_deduped, "{label}: dedup events");
    assert_eq!(skips, stats.satisfied_skips, "{label}: skip events");
}

/// The registry side of the reconciliation triangle: counters, per-rule
/// totals, and the apply histogram must match the stats exactly.
fn assert_metrics_match_stats(label: &str, registry: &MetricsRegistry, stats: &ChaseStats) {
    assert_eq!(registry.counter("chase.applications"), stats.applications, "{label}");
    assert_eq!(registry.counter("atoms.inserted"), stats.atoms_added, "{label}");
    assert_eq!(registry.counter("triggers.admitted"), stats.triggers_enqueued, "{label}");
    assert_eq!(registry.counter("triggers.deduped"), stats.triggers_deduped, "{label}");
    assert_eq!(registry.counter("triggers.skipped"), stats.satisfied_skips, "{label}");
    assert_eq!(registry.counter("atoms.duplicates"), stats.duplicate_atoms, "{label}");

    let per_rule = registry.per_rule();
    assert_eq!(
        per_rule.iter().map(|r| r.applied).sum::<u64>(),
        stats.applications,
        "{label}: per-rule applied must sum to the global counter"
    );
    assert_eq!(
        per_rule.iter().map(|r| r.atoms_added).sum::<u64>(),
        stats.atoms_added,
        "{label}: per-rule atoms_added must sum to the global counter"
    );
    assert_eq!(
        registry.per_pred().iter().sum::<u64>(),
        stats.atoms_added,
        "{label}: per-predicate insertions must sum to the global counter"
    );

    let h = registry.histogram("apply.new_atoms").expect("pre-created");
    assert_eq!(h.count, stats.applications, "{label}: histogram count");
    assert_eq!(h.sum, stats.atoms_added, "{label}: histogram sum");
}

/// The full datagen corpus: tracing is observationally free for every
/// family and every variant — and the trace stream
/// reconciles with the stats.
#[test]
fn datagen_corpus_tracing_is_observationally_free() {
    let budget = Budget::applications(250).with_atoms(4_000);
    for family in chasekit::datagen::corpus() {
        let mut program = family.program.clone();
        let initial = seed(&mut program);
        for variant in VARIANTS {
            let trace = assert_tracing_is_free(&family.name, &program, &initial, variant, &budget);
            let mut oracle = ChaseMachine::new(&program, ChaseConfig::of(variant), initial.clone());
            oracle.run(&budget);
            assert_trace_matches_stats(&family.name, &trace, oracle.stats());
        }
    }
}

/// Strategy: small random programs with joins and head-only
/// (existential) variables.
fn random_program() -> impl Strategy<Value = Program> {
    let arity = |p: usize| (p % 3) + 1;
    let atom = |pool: usize| {
        (0usize..3, proptest::collection::vec(0usize..pool, 3)).prop_map(move |(p, vars)| (p, vars))
    };
    proptest::collection::vec(
        (proptest::collection::vec(atom(4), 1..3), proptest::collection::vec(atom(6), 1..3)),
        1..4,
    )
    .prop_map(move |rules| {
        let mut program = Program::new();
        let preds: Vec<_> = (0..3)
            .map(|i| program.vocab.declare_pred(&format!("p{i}"), arity(i)).unwrap())
            .collect();
        for (body, heads) in rules {
            let mut rb = RuleBuilder::new();
            for (bp, bvars) in body {
                let args: Vec<Term> =
                    (0..arity(bp)).map(|k| rb.var(&format!("X{}", bvars[k] % 4))).collect();
                rb.body_atom(preds[bp], args);
            }
            for (hp, hvars) in heads {
                let args: Vec<Term> =
                    (0..arity(hp)).map(|k| rb.var(&format!("X{}", hvars[k]))).collect();
                rb.head_atom(preds[hp], args);
            }
            program.add_rule(rb.build().unwrap()).unwrap();
        }
        program
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50))]

    /// 50 random programs: traced and untraced runs are bit-identical for
    /// every variant.
    #[test]
    fn random_programs_tracing_is_observationally_free(p in random_program()) {
        let mut program = p;
        let initial = seed(&mut program);
        let budget = Budget::applications(80).with_atoms(2_000);
        for variant in VARIANTS {
            assert_tracing_is_free("random", &program, &initial, variant, &budget);
        }
    }

    /// Metrics reconcile exactly with the stats and the trace stream on
    /// random programs under **random scheduling** — the draw order is
    /// arbitrary, the accounting still has to balance.
    #[test]
    fn metrics_reconcile_under_random_scheduling(
        p in random_program(),
        sched_seed in any::<u64>(),
    ) {
        let mut program = p;
        let initial = seed(&mut program);
        let budget = Budget::applications(60).with_atoms(1_500);
        for variant in VARIANTS {
            let cfg = ChaseConfig::of(variant).with_random_scheduling(sched_seed);
            let buf = SharedBuf::new();
            let metrics = MetricsSink::new(&program);
            let registry = metrics.registry();
            let sink = MultiSink::new(vec![
                Box::new(JsonlSink::new(buf.clone(), &program)) as Box<dyn TraceSink>,
                Box::new(metrics),
            ]);
            let mut m =
                ChaseMachine::new_with_trace(&program, cfg, initial.clone(), Box::new(sink));
            m.run(&budget);
            let stats = m.stats().clone();
            drop(m);
            assert_trace_matches_stats("random-sched", &buf.contents(), &stats);
            assert_metrics_match_stats("random-sched", &registry.lock().unwrap(), &stats);
        }
    }
}

/// 2000-seed population of random guarded programs (the E4 population):
/// metrics JSON reconciles exactly with the stats on every run.
#[test]
fn metrics_reconcile_on_population_runs() {
    let cfg = RandomConfig {
        predicates: 4,
        max_arity: 3,
        rules: 4,
        existential_prob: 0.35,
        max_head_atoms: 2,
        complexity: 0.4,
        constants: 0,
    };
    let budget = Budget::applications(40).with_atoms(1_000);
    for s in 0..2_000u64 {
        let mut program = random_guarded(&cfg, 7_000 + s);
        let initial = seed(&mut program);
        let metrics = MetricsSink::new(&program);
        let registry = metrics.registry();
        let mut m = ChaseMachine::new_with_trace(
            &program,
            ChaseConfig::of(ChaseVariant::SemiOblivious),
            initial,
            Box::new(metrics),
        );
        m.run(&budget);
        let stats = m.stats().clone();
        let registry = registry.lock().unwrap();
        assert_metrics_match_stats(&format!("seed {s}"), &registry, &stats);
        // The JSON export is deterministic and carries the same totals.
        let json = registry.to_json();
        assert_eq!(json, registry.to_json(), "seed {s}: JSON must be deterministic");
        assert!(
            json.contains(&format!("\"chase.applications\": {}", stats.applications))
                || stats.applications == 0,
            "seed {s}: JSON must carry the applications counter"
        );
    }
}
