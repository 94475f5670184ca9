//! Allocation accounting for the steady-state chase hot path.
//!
//! The interned-instance rebuild promises that once a `MatchScratch` is
//! warm, trigger matching performs **zero per-candidate heap allocation**:
//! candidate postings are borrowed from the columnar indexes (never
//! copied), substitution slots and the binding trail live in the scratch,
//! and `AtomRef` resolution is pointer arithmetic into the arena. This
//! test pins that down with a counting global allocator: warm up once,
//! then re-run the same matching workload and demand the allocation
//! counter not move.
//!
//! It then pins the whole untracked chase step: admission dedups a
//! candidate in a reused key buffer, so only a fresh trigger (its queued
//! substitution and its stored key) and a new atom allocate, and a
//! posting holds its first atom inline.
//!
//! Single-threaded by construction (one `#[test]` per concern would let
//! libtest interleave counters), so everything lives in one test fn.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use chasekit_core::{
    exists_extension_scratch, for_each_hom_scratch, CriticalInstance, MatchScratch, Program,
    Substitution,
};
use chasekit_engine::{Budget, ChaseConfig, ChaseMachine, ChaseVariant, StopReason};

/// A guarded E4 program (`e4-27` of the benchmark's chase inputs) whose
/// semi-oblivious chase of its critical instance does not saturate.
const E4_27: &str = "\
    p2(X0, X1, X2), p2(X0, X0, X2) -> p0(Z1), p2(X2, X2, Z2).\n\
    p3(X0), p1(X0, X0) -> p0(Z1).\n\
    p3(X0) -> p2(Z1, X0, X0), p3(Z2).\n\
    p3(X0) -> p2(Z1, Z2, X0), p2(X0, X0, X0).\n";

/// The allocation budget of one untracked chase step: a fresh trigger's
/// queued substitution and stored key, the step's list of new atoms, and
/// amortised growth of the arena, the postings and the queue.
const ALLOCS_PER_APPLICATION: f64 = 6.0;

/// `System`, with a count of every allocation it hands out.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn warm_scratch_matching_does_not_allocate() {
    // A guarded program whose bodies join two atoms, chased far enough on
    // its critical instance that the postings are non-trivial.
    let src = "\
        g(X, Y), p(Y) -> g(Y, Z), q(Z).\n\
        q(X), g(X, Y) -> p(Y).\n\
        g(a, b). p(b). q(a).\n";
    let mut program = Program::parse(src).unwrap();
    let crit = CriticalInstance::build(&mut program);
    let mut instance = crit.instance;
    // Grow the instance a little so matching walks real candidate lists.
    let facts: Vec<_> = program.facts().to_vec();
    for f in &facts {
        instance.insert(f.clone());
    }

    let rule_bodies: Vec<(Vec<chasekit_core::Atom>, usize)> =
        program.rules().iter().map(|r| (r.body().to_vec(), r.vars().len())).collect();
    let max_vars = rule_bodies.iter().map(|&(_, v)| v).max().unwrap();

    let mut scratch = MatchScratch::default();
    let mut empty_init = Substitution::new(max_vars);
    let mut count = 0u64;

    // Warm-up pass: scratch buffers grow to their steady-state capacity
    // here; allocations are expected and not counted against the budget.
    for (body, vars) in &rule_bodies {
        for_each_hom_scratch(body, *vars, &instance, None, None, &mut scratch, &mut |_s| {
            count += 1;
            std::ops::ControlFlow::Continue(())
        });
        empty_init.reset(*vars);
        let _ = exists_extension_scratch(body, *vars, &instance, &empty_init, &mut scratch);
    }
    assert!(count > 0, "the workload must actually produce matches to mean anything");

    // Measured pass: identical work, warm scratch — zero allocations.
    let before = allocs();
    let mut count2 = 0u64;
    for (body, vars) in &rule_bodies {
        for_each_hom_scratch(body, *vars, &instance, None, None, &mut scratch, &mut |_s| {
            count2 += 1;
            std::ops::ControlFlow::Continue(())
        });
        empty_init.reset(*vars);
        let _ = exists_extension_scratch(body, *vars, &instance, &empty_init, &mut scratch);
    }
    let after = allocs();

    assert_eq!(count2, count, "the two passes must do identical work");
    assert_eq!(
        after - before,
        0,
        "steady-state matching allocated {} time(s) — the scratch/borrowed-postings \
         contract is broken",
        after - before
    );

    // The untracked chase step: build the machine and run 3,000
    // applications, counting every allocation on the way.
    let mut program = Program::parse(E4_27).unwrap();
    let initial = CriticalInstance::build(&mut program).instance;
    let config = ChaseConfig::of(ChaseVariant::SemiOblivious);
    let before = allocs();
    let mut machine = ChaseMachine::new(&program, config, initial);
    let stop = machine.run(&Budget::applications(3_000));
    let made = allocs() - before;
    assert_eq!(stop, StopReason::Applications, "the run must reach its budget");
    let applications = machine.stats().applications;
    assert_eq!(applications, 3_000);
    let per_application = made as f64 / applications as f64;
    assert!(
        per_application <= ALLOCS_PER_APPLICATION,
        "the chase step allocated {per_application:.2} times per application \
         ({made} over {applications}); the budget is {ALLOCS_PER_APPLICATION}"
    );
}
