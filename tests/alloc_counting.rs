//! Allocation accounting for the steady-state matching hot path.
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
//! Single-threaded by construction (one `#[test]` per concern would let
//! libtest interleave counters), so everything lives in one test fn.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use chasekit_core::{
    exists_extension_scratch, for_each_hom_scratch, CriticalInstance, MatchScratch, Program,
    Substitution,
};

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
}
