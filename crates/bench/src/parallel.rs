//! A seed-parallel map for the experiment populations.
//!
//! Experiments evaluate thousands of independent seeded samples; this
//! spreads them over worker threads (std scoped threads + an atomic work
//! cursor) while keeping results in seed order, so all tables and
//! counters stay exactly reproducible regardless of how many cores run
//! them.

use std::sync::atomic::{AtomicU64, Ordering};

/// Applies `f` to every seed in `0..count`, in parallel, returning results
/// in seed order. The workers are the available parallelism, capped at 16.
/// A panic in `f` is re-raised once the other workers finish, so a bad
/// seed fails the whole run.
pub fn par_map_seeds<T, F>(count: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(16);
    let next = AtomicU64::new(0);
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(count as usize))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let seed = next.fetch_add(1, Ordering::Relaxed);
                        if seed >= count {
                            return done;
                        }
                        done.push((seed, f(seed)));
                    }
                })
            })
            .collect();
        for worker in workers {
            match worker.join() {
                Ok(done) => {
                    for (seed, v) in done {
                        slots[seed as usize] = Some(v);
                    }
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    slots.into_iter().map(|v| v.expect("every seed is claimed by one worker")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_seed_order() {
        let out = par_map_seeds(100, |seed| seed * 3);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 3);
        }
    }

    #[test]
    fn zero_and_one_seed_edge_cases() {
        assert!(par_map_seeds(0, |s| s).is_empty());
        assert_eq!(par_map_seeds(1, |s| s), vec![0]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panicking_seed_fails_the_run() {
        let _ = par_map_seeds(8, |seed| {
            if seed == 3 {
                panic!("boom");
            }
            seed
        });
    }

    #[test]
    fn real_workload_through_the_pool() {
        use chasekit_datagen::{random_simple_linear, RandomConfig};
        use chasekit_engine::ChaseVariant;
        use chasekit_termination::decide_linear;
        let cfg = RandomConfig::default();
        let results = par_map_seeds(40, |seed| {
            let p = random_simple_linear(&cfg, seed);
            decide_linear(&p, ChaseVariant::SemiOblivious, false).unwrap().terminates
        });
        let sequential: Vec<bool> = (0..40)
            .map(|seed| {
                let p = random_simple_linear(&cfg, seed);
                decide_linear(&p, ChaseVariant::SemiOblivious, false).unwrap().terminates
            })
            .collect();
        assert_eq!(results, sequential);
    }
}
