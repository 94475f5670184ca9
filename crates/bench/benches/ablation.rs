//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **Delta-driven trigger discovery** (re-match only bodies touching the
//!   new atom) vs naive full re-matching after every step.
//! * **Deferred certificate re-checks** in the guarded decider (retry pairs
//!   when their missing side condition arrives) vs fresh scans only — this
//!   one trades time for *completeness*, so the bench also reports how many
//!   of the sample sets become undecidable without it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use chasekit_core::{Instance, Program};
use chasekit_datagen::{random_guarded, RandomConfig};
use chasekit_engine::{Budget, ChaseConfig, ChaseMachine, ChaseVariant};
use chasekit_termination::{decide_guarded, GuardedConfig, GuardedVerdict};

fn transitive_closure_program(n: usize) -> Program {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("e(v{i}, v{}).\n", i + 1));
    }
    src.push_str("e(X, Y) -> t(X, Y). e(X, Y), t(Y, Z) -> t(X, Z).\n");
    Program::parse(&src).unwrap()
}

fn bench_delta_vs_naive(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/trigger_discovery");
    group.sample_size(10);
    for n in [16usize, 32] {
        let program = transitive_closure_program(n);
        for naive in [false, true] {
            let label = format!("{}-{}", if naive { "naive" } else { "delta" }, n);
            group.bench_with_input(BenchmarkId::from_parameter(label), &program, |b, p| {
                b.iter(|| {
                    let cfg = if naive {
                        ChaseConfig::of(ChaseVariant::SemiOblivious).with_naive_matching()
                    } else {
                        ChaseConfig::of(ChaseVariant::SemiOblivious)
                    };
                    let initial = Instance::from_atoms(p.facts().iter().cloned());
                    let mut m = ChaseMachine::new(p, cfg, initial);
                    let _ = m.run(&Budget::default());
                    black_box(m.instance().len())
                })
            });
        }
    }
    group.finish();
}

fn bench_deferred_rechecks(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/deferred_rechecks");
    group.sample_size(10);
    let cfg = RandomConfig::default();
    let programs: Vec<_> = (0..20).map(|s| random_guarded(&cfg, 40_000 + s)).collect();

    for deferred in [true, false] {
        let label = if deferred { "with_rechecks" } else { "fresh_scans_only" };
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut decided = 0u32;
                for p in &programs {
                    let mut gcfg = GuardedConfig::new(ChaseVariant::SemiOblivious);
                    gcfg.defer_rechecks = deferred;
                    gcfg.max_applications = 2_000;
                    gcfg.max_atoms = 20_000;
                    if let Ok(r) = decide_guarded(p, gcfg) {
                        decided += r.verdict.terminates().is_some() as u32;
                    }
                }
                black_box(decided)
            })
        });
    }

    // Completeness impact (reported once; not a timing measurement).
    let count = |deferred: bool| {
        programs
            .iter()
            .filter(|p| {
                let mut gcfg = GuardedConfig::new(ChaseVariant::SemiOblivious);
                gcfg.defer_rechecks = deferred;
                gcfg.max_applications = 2_000;
                gcfg.max_atoms = 20_000;
                matches!(
                    decide_guarded(p, gcfg).map(|r| r.verdict),
                    Ok(GuardedVerdict::Unknown)
                )
            })
            .count()
    };
    eprintln!(
        "ablation/deferred_rechecks: unknowns with rechecks = {}, without = {}",
        count(true),
        count(false)
    );
    group.finish();
}

/// Observability ablation on the E4 guarded family: the same chases with
/// tracing disabled (the default `Option<TraceHandle>` = `None` path), with
/// a JSONL sink writing to `io::sink()`, and with the in-memory metrics
/// registry. The disabled row must sit within noise of the pre-trace
/// baseline — the handle is one `Option` check on the hot path.
fn bench_trace_overhead(c: &mut Criterion) {
    use chasekit_core::CriticalInstance;
    use chasekit_engine::{JsonlSink, MetricsSink};

    let mut group = c.benchmark_group("ablation/trace_overhead");
    group.sample_size(10);
    let cfg = RandomConfig { predicates: 4, max_arity: 3, rules: 4, ..Default::default() };
    let programs: Vec<Program> = (0..8)
        .map(|s| {
            let mut p = random_guarded(&cfg, 90_000 + s);
            let _ = CriticalInstance::build(&mut p);
            p
        })
        .collect();
    let budget = Budget { max_applications: 800, max_atoms: 20_000, ..Budget::unlimited() };

    for mode in ["disabled", "jsonl", "metrics"] {
        group.bench_with_input(BenchmarkId::from_parameter(mode), &mode, |b, &mode| {
            b.iter(|| {
                let mut atoms = 0usize;
                for p in &programs {
                    let mut frozen = p.clone();
                    let initial = CriticalInstance::build(&mut frozen).instance;
                    let cfg = ChaseConfig::of(ChaseVariant::SemiOblivious);
                    let mut m = match mode {
                        "jsonl" => ChaseMachine::new_with_trace(
                            &frozen,
                            cfg,
                            initial,
                            Box::new(JsonlSink::new(std::io::sink(), &frozen)),
                        ),
                        "metrics" => ChaseMachine::new_with_trace(
                            &frozen,
                            cfg,
                            initial,
                            Box::new(MetricsSink::new(&frozen)),
                        ),
                        _ => ChaseMachine::new(&frozen, cfg, initial),
                    };
                    let _ = m.run(&budget);
                    atoms += m.instance().len();
                }
                black_box(atoms)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_delta_vs_naive,
    bench_deferred_rechecks,
    bench_trace_overhead
);
criterion_main!(benches);
